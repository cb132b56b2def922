//! Criterion: host CPU cost of a fixed simulated transfer — monolithic vs
//! sublayered vs shim-translated (E9: "sublayered TCP performance will be
//! poor"? Measure the crossings' real cost). `run_transfer` mutes the
//! entanglement access log, so this times the stacks, not its string
//! allocations.

use bench::{run_transfer, standard_link, StackKind};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("transfer_100KB_2pct_loss");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(100_000));
    for kind in [StackKind::Mono, StackKind::Sub("reno"), StackKind::ShimClientMonoServer] {
        g.bench_function(kind.label(), |b| {
            b.iter(|| {
                let r = run_transfer(kind, 100_000, standard_link(0.02), 42, 300);
                assert!(r.complete);
                r.delivered
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_transfer);
criterion_main!(benches);
