//! The replay arms prove they repeated the live work, a run prints
//! exactly the declared metrics, and the metric tables match
//! `BENCHMARK.json`.

use perfbench::replay::{self, TableOp};
use perfbench::stacks::BenchStack;
use perfbench::stream::{receiver_tuple, Stream, StreamSpec, ADDR_B, PORT};
use perfbench::trace::Tracer;
use perfbench::wire::{Captured, Pattern, A_TO_B, PATTERN_LEN};
use sublayer_core::SlTcpStack;
use tcp_mono::TcpStack;

fn small(mut spec: StreamSpec, rounds: usize, kib: u64) -> StreamSpec {
    spec.fixed_rounds = rounds;
    spec.round_bytes = kib << 10;
    spec
}

fn captured_stream<S: BenchStack>(spec: &StreamSpec) -> (Stream<S>, Vec<Captured>, Pattern) {
    let pattern = Pattern::new(spec.seed, PATTERN_LEN);
    let mut tr = Tracer::new(true);
    let mut s = Stream::<S>::open(spec, &mut tr, true).expect("open");
    for _ in 0..spec.fixed_rounds {
        s.round(&pattern, &mut tr).expect("round");
    }
    let cap = s.take_capture();
    (s, cap, pattern)
}

#[test]
fn replays_reproduce_the_live_work() {
    let spec = small(StreamSpec::lossy(3), 16, 64);
    let (sub, cap, pattern) = captured_stream::<SlTcpStack>(&spec);
    let frames: Vec<&[u8]> = cap.iter().map(|c| &c.bytes[..]).collect();
    assert!(frames.len() > 1000);
    replay::sub_codec(&frames).expect("sub codec round trip");
    let (_, mono_cap, _) = captured_stream::<TcpStack>(&spec);
    let mono_frames: Vec<&[u8]> = mono_cap.iter().map(|c| &c.bytes[..]).collect();
    replay::mono_codec(&mono_frames).expect("mono codec round trip");

    let (live, id) = sub.receiver();
    let inbound: Vec<&[u8]> = cap
        .iter()
        .filter(|c| c.dir == A_TO_B)
        .map(|c| &c.bytes[..])
        .collect();
    let ops = [TableOp::Bind(receiver_tuple(), id)];
    replay::dm(
        ADDR_B,
        PORT,
        &ops,
        &inbound,
        |t| live.conn_for_tuple(t),
        false,
        0.0,
    )
    .expect("dm verdicts");

    let payload = pattern.to_vec(0, spec.fixed_bytes() as usize);
    let at_b = receiver_tuple();
    let r = replay::sub_receive(&cap, ADDR_B, |t| (*t == at_b).then_some(&payload[..]), 0.0)
        .expect("receive replay delivers the payload");
    assert_eq!(r.complete, 1);
    replay::osr_segment(&[&payload], 0.0).expect("segmentation replay");
}

#[test]
fn replays_reject_work_they_did_not_repeat() {
    let spec = small(StreamSpec::bulk(3), 2, 64);
    let (sub, cap, pattern) = captured_stream::<SlTcpStack>(&spec);

    // A frame altered after capture no longer decodes to itself.
    let mut bad: Vec<Vec<u8>> = cap.iter().map(|c| c.bytes.clone()).collect();
    let last = bad.len() - 1;
    let n = bad[last].len();
    bad[last][n - 1] ^= 0xFF;
    let frames: Vec<&[u8]> = bad.iter().map(|f| &f[..]).collect();
    assert!(replay::sub_codec(&frames).is_err());

    // A demux that disagrees with the live one is caught.
    let inbound: Vec<&[u8]> = cap
        .iter()
        .filter(|c| c.dir == A_TO_B)
        .map(|c| &c.bytes[..])
        .collect();
    let (live, id) = sub.receiver();
    let wrong = [TableOp::Bind(
        receiver_tuple(),
        sublayer_core::ConnId(id.0 + 1),
    )];
    assert!(replay::dm(
        ADDR_B,
        PORT,
        &wrong,
        &inbound,
        |t| live.conn_for_tuple(t),
        false,
        0.0
    )
    .is_err());

    // A receive replay held to a different payload fails.
    let mut payload = pattern.to_vec(0, spec.fixed_bytes() as usize);
    payload[1234] ^= 1;
    let at_b = receiver_tuple();
    assert!(
        replay::sub_receive(&cap, ADDR_B, |t| (*t == at_b).then_some(&payload[..]), 0.0).is_err()
    );
}

/// Every metric the code can print is declared in `BENCHMARK.json`, in
/// the same order and with the same unit, and nothing else is.
#[test]
fn metric_tables_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let section = |key: &str, next: &str| {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..]
            .find(&format!("\"{next}\""))
            .map_or(json.len(), |e| start + e);
        json[start..end].to_string()
    };
    let names_units = |s: &str| {
        s.split("\"name\": \"")
            .skip(1)
            .map(|chunk| {
                let name = chunk[..chunk.find('"').unwrap()].to_string();
                let u = chunk.find("\"unit\": \"").unwrap() + 9;
                let unit = chunk[u..u + chunk[u..].find('"').unwrap()].to_string();
                (name, unit)
            })
            .collect::<Vec<_>>()
    };
    let own = |t: &[(&str, &str)]| {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        names_units(&section("end_to_end", "per_layer")),
        own(perfbench::metrics::END_TO_END)
    );
    assert_eq!(
        names_units(&section("per_layer", "\u{0}")),
        own(perfbench::metrics::PER_LAYER)
    );
}

/// A short run prints exactly the declared metrics, all finite, and
/// passes its own output gate, untraced and traced.
#[test]
fn a_run_reports_every_declared_metric() {
    for (trace, list) in [
        (false, perfbench::metrics::END_TO_END),
        (true, perfbench::metrics::PER_LAYER),
    ] {
        let args = perfbench::run::Args {
            workload: perfbench::run::Workload::Bulk,
            seed: 5,
            seconds: 0.001,
            trace,
        };
        let report = perfbench::run::run(args)
            .map_err(|(_, why)| why)
            .expect("outputs correct");
        assert!(report.correct && report.failed == 0 && report.attempted > 0);
        let names: Vec<&str> = report.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(report.metrics.values().all(|(v, _)| v.is_finite()));
        let json = report.json();
        assert!(json.starts_with("{\"correct\": true, ") && !json.contains('\n'));
    }
}
