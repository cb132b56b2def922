//! Deterministic figures repeat exactly for a seed and move with it.
//!
//! Allocation counts are read from one process-wide counter, so this file
//! holds a single test: with no other test in the binary, nothing else
//! allocates while it counts (the harness itself allocates when a test
//! finishes).

use netsim::Dur;
use perfbench::rpc::{Rpc, RpcSpec};
use perfbench::stacks::{BenchStack, Counters};
use perfbench::stream::{Stream, StreamSpec};
use perfbench::trace::Tracer;
use perfbench::wire::{Pattern, PATTERN_LEN};
use sublayer_core::SlTcpStack;
use tcp_mono::TcpStack;

/// A smaller `bulk`/`lossy` so the checks run in seconds.
fn small(mut spec: StreamSpec, rounds: usize, kib: u64) -> StreamSpec {
    spec.fixed_rounds = rounds;
    spec.round_bytes = kib << 10;
    spec
}

#[derive(Debug, PartialEq)]
struct Figures {
    sim: Dur,
    round_sim: Vec<Dur>,
    frames: u64,
    allocs: u64,
    peak: Vec<usize>,
    counters: Counters,
}

fn stream_figures<S: BenchStack>(spec: &StreamSpec) -> Figures {
    let pattern = Pattern::new(spec.seed, PATTERN_LEN);
    let mut tr = Tracer::new(false);
    let mut s = Stream::<S>::open(spec, &mut tr, false).expect("open");
    for _ in 0..spec.fixed_rounds {
        s.round(&pattern, &mut tr).expect("round");
    }
    assert_eq!(s.verified(), spec.fixed_bytes());
    Figures {
        sim: s.sim(),
        round_sim: s.round_sim.clone(),
        frames: s.frames(),
        allocs: s.allocs,
        peak: s.round_peak.clone(),
        counters: s.counters(),
    }
}

fn check_stream<S: BenchStack>(make: fn(u64) -> StreamSpec, lossy: bool) {
    // The first use in a process pays one-time allocations (lazily
    // initialised statics), as the benchmark's set-up does before it
    // counts anything.
    stream_figures::<S>(&make(9));
    let a = stream_figures::<S>(&make(7));
    let b = stream_figures::<S>(&make(7));
    assert_eq!(a, b, "{}: same seed, different figures", S::KIND.name());
    let c = stream_figures::<S>(&make(8));
    assert_ne!(
        a.sim,
        c.sim,
        "{}: the seed must move simulated time",
        S::KIND.name()
    );
    assert_ne!(a.round_sim, c.round_sim);
    if lossy {
        // The seed picks the drops, so the frame count moves too.
        assert_ne!(a.frames, c.frames);
        assert_ne!(a.counters, c.counters);
    }
}

fn check_bulk_and_lossy() {
    let bulk = |seed| small(StreamSpec::bulk(seed), 3, 512);
    check_stream::<SlTcpStack>(bulk, false);
    check_stream::<TcpStack>(bulk, false);
    let lossy = |seed| small(StreamSpec::lossy(seed), 24, 64);
    check_stream::<SlTcpStack>(lossy, true);
    check_stream::<TcpStack>(lossy, true);
}

/// `rpc`'s simulated figures repeat exactly. Its allocation and heap
/// figures are not checked: the hosts' connection tables are std
/// `HashMap`s with per-process random hashing, so when a table resizes
/// varies slightly from process to process (the figures move by well
/// under 0.1%).
fn check_rpc() {
    let run = |seed| {
        let mut spec = RpcSpec::new(seed);
        spec.conns = 8;
        spec.fixed_txns = 300;
        let pattern = Pattern::new(seed, PATTERN_LEN);
        let mut tr = Tracer::new(false);
        let mut sys = Rpc::<SlTcpStack>::build(&spec);
        sys.warm_up(&pattern, &mut tr).expect("warm-up");
        let p = sys
            .run_txns(spec.fixed_txns, &pattern, &mut tr)
            .expect("fixed work");
        assert_eq!(p.failed, 0);
        (p.sim, p.latencies_ns, p.frames, p.echoed_bytes)
    };
    let a = run(7);
    assert_eq!(a, run(7));
    let c = run(8);
    assert_ne!(a.0, c.0);
    assert_ne!(a.1, c.1);
}

#[test]
fn figures_repeat_for_a_seed_and_move_with_it() {
    check_bulk_and_lossy();
    check_rpc();
}
