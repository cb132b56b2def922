//! The attack and chaos runners, per stack, against their committed
//! artifacts: every `--smoke` cell is also a cell of the full sweep, so
//! each smoke row must appear verbatim as a line of `BENCH_<name>.json`
//! (rows are written one per line).

use std::collections::HashSet;
use std::path::Path;

use bench::attack::Attack;
use bench::campaign::Campaign;
use bench::chaos::Chaos;
use slconform::driver::Kind;

fn assert_smoke_rows_committed<C: Campaign>(c: &C) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{}.json", C::NAME));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let lines: HashSet<&str> = committed
        .lines()
        .map(|l| l.trim_start().trim_end_matches(','))
        .collect();
    let sweep = c.sweep(true);
    let rows: Vec<String> = sweep.as_ref().iter().map(|cell| c.row_json(cell)).collect();
    for kind in [Kind::Mono, Kind::Sub] {
        let tag = format!("\"stack\":\"{}\"", kind.label());
        assert!(
            rows.iter().any(|r| r.contains(&tag)),
            "{}: the smoke sweep has no {} cell",
            C::NAME,
            kind.label()
        );
    }
    for row in &rows {
        assert!(
            lines.contains(row.as_str()),
            "{}: smoke row is not in {}:\n{row}",
            C::NAME,
            path.display()
        );
    }
}

#[test]
fn attack_smoke_rows_match_the_committed_artifact() {
    assert_smoke_rows_committed(&Attack);
}

#[test]
fn chaos_smoke_rows_match_the_committed_artifact() {
    assert_smoke_rows_committed(&Chaos);
}
