//! One runner for every campaign sweep: `exp <name> [--smoke] [--json]`.
//!
//! | name | experiment |
//! |---|---|
//! | `chaos` | E13: fault campaigns |
//! | `attack` | E14: adversarial peers |
//! | `scale` | E15: many-client `slhost` scale |
//! | `overload` | E16: overload control |
//! | `conform` | E17: differential conformance |
//! | `topology` | E18: Internet-in-a-box |
//! | `fairness` | E19: congestion survival |
//! | `shard` | E20: sharded host |
//! | `failover` | E21: shard fault domains |
//! | `contracts` | E22: compositional contracts |
//!
//! A [`Campaign`] says what to sweep (a CI-sized subset with `--smoke`),
//! how to judge each cell and the sweep as a whole, and how to render a
//! cell as a markdown row and a JSON row. The runner does the rest the
//! same way for all of them: it prints the markdown report, or only the
//! JSON summary with `--json`; on a full run it writes the summary to
//! `BENCH_<name>.json`; and it exits non-zero on any violation. The JSON
//! is byte-identical for identical seeds, so CI runs every smoke sweep
//! twice and compares, and regenerates every committed artifact.

use std::process::ExitCode;

use crate::{
    attack, chaos, conform, contracts, failover, fairness, json, markdown_table, overload, scale,
    shard, topology,
};

/// One campaign sweep.
pub trait Campaign {
    /// One cell of the sweep: one table row and one JSON row.
    type Cell;
    /// Everything a sweep produced; for most campaigns just its cells.
    type Sweep: AsRef<[Self::Cell]>;
    /// The name `exp` runs it by, and the `BENCH_<name>.json` it writes.
    const NAME: &'static str;
    /// The key the default summary publishes sweep-level checks under.
    /// `None` publishes the cells as `"campaigns"` with no such list.
    const CROSS_KEY: Option<&'static str> = None;

    /// The report heading, with any context lines.
    fn title(&self, smoke: bool) -> String;
    fn sweep(&self, smoke: bool) -> Self::Sweep;
    /// Checks over the whole sweep; each entry is one violation.
    fn cross_checks(&self, _sweep: &Self::Sweep) -> Vec<String> {
        Vec::new()
    }
    /// The cell's own invariant violations.
    fn violations<'a>(&self, cell: &'a Self::Cell) -> &'a [String];
    fn row_json(&self, cell: &Self::Cell) -> String;
    fn headers(&self) -> &'static [&'static str];
    fn row(&self, cell: &Self::Cell) -> Vec<String>;
    /// Markdown printed after the table.
    fn notes(&self, _sweep: &Self::Sweep) -> String {
        String::new()
    }
    /// The published JSON document.
    fn summary(&self, sweep: &Self::Sweep, cross: &[String]) -> String {
        let cells = sweep.as_ref();
        let rows: Vec<String> = cells.iter().map(|c| self.row_json(c)).collect();
        let violations = cells
            .iter()
            .map(|c| self.violations(c).len())
            .sum::<usize>()
            + cross.len();
        json::envelope(Self::CROSS_KEY, &rows, cross, violations)
    }
}

/// Every `(x, y, seed)` cell of a sweep, x-major, then y, then seed.
pub fn grid<X: Copy, Y: Copy, T>(
    xs: &[X],
    ys: &[Y],
    seeds: &[u64],
    run: impl Fn(X, Y, u64) -> T,
) -> Vec<T> {
    let mut cells = Vec::new();
    for &x in xs {
        for &y in ys {
            for &seed in seeds {
                cells.push(run(x, y, seed));
            }
        }
    }
    cells
}

/// Run one campaign and report it; returns the number of violations.
pub fn run<C: Campaign>(c: &C, smoke: bool, json_only: bool) -> usize {
    let sweep = c.sweep(smoke);
    let cells = sweep.as_ref();
    let cross = c.cross_checks(&sweep);
    let summary = c.summary(&sweep, &cross);
    let mut violations = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        for v in c.violations(cell) {
            violations.push(format!("VIOLATION [row {}]: {v}", i + 1));
        }
    }
    violations.extend(cross.iter().map(|v| format!("VIOLATION [cross]: {v}")));

    if json_only {
        println!("{summary}");
        for v in &violations {
            eprintln!("{v}");
        }
    } else {
        println!("{}\n", c.title(smoke));
        let rows: Vec<Vec<String>> = cells.iter().map(|cell| c.row(cell)).collect();
        println!("{}", markdown_table(c.headers(), &rows));
        let notes = c.notes(&sweep);
        if !notes.is_empty() {
            println!("{notes}");
        }
        for v in &violations {
            println!("{v}");
        }
        println!("\n{} cells, {} violations.", cells.len(), violations.len());
    }
    if !smoke {
        let path = format!("BENCH_{}.json", C::NAME);
        if let Err(e) = std::fs::write(&path, format!("{summary}\n")) {
            panic!("write {path}: {e}");
        }
        if !json_only {
            println!("\nwrote {path}");
        }
    }
    if !violations.is_empty() {
        eprintln!("exp {}: {} violation(s)", C::NAME, violations.len());
    }
    violations.len()
}

/// A campaign with its types erased, so the runner can list them.
trait Named {
    fn name(&self) -> &'static str;
    fn run(&self, smoke: bool, json_only: bool) -> usize;
}

impl<C: Campaign> Named for C {
    fn name(&self) -> &'static str {
        C::NAME
    }
    fn run(&self, smoke: bool, json_only: bool) -> usize {
        run(self, smoke, json_only)
    }
}

const ALL: &[&dyn Named] = &[
    &chaos::Chaos,
    &attack::Attack,
    &scale::Scale,
    &overload::Overload,
    &conform::Conform,
    &topology::Topology,
    &fairness::Fairness,
    &shard::Shard,
    &failover::Failover,
    &contracts::Contracts,
];

/// Every campaign name, in experiment order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|c| c.name()).collect()
}

/// `exp <name> [--smoke] [--json]` over the arguments after the program
/// name. A missing or unknown name, a second name or an unknown flag is
/// a usage error (exit 2), never a silent full run.
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let (mut name, mut smoke, mut json_only) = (None, false, false);
    for a in args {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--json" => json_only = true,
            _ if name.is_none() && !a.starts_with('-') => name = Some(a),
            _ => return usage(&format!("unexpected argument `{a}`")),
        }
    }
    let Some(name) = name else {
        return usage("missing campaign name");
    };
    let Some(c) = ALL.iter().find(|c| c.name() == name) else {
        return usage(&format!("unknown campaign `{name}`"));
    };
    if c.run(smoke, json_only) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "exp: {problem}\nusage: exp <campaign> [--smoke] [--json]\ncampaigns: {}",
        names().join(" ")
    );
    ExitCode::from(2)
}
