//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] that is off costs one branch per call. When on, each
//! call is bracketed by two clock reads and two allocation-counter reads;
//! the per-call durations are kept in memory (up to a cap per span) and
//! reduced to medians when the run ends. Span names are the metric
//! prefixes, e.g. `stack.sub.on_frame`.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-span samples kept for the median; calls beyond it still count.
const SAMPLE_CAP: usize = 1 << 18;

#[derive(Default)]
struct Span {
    calls: u64,
    /// Calls that produced an output (e.g. a frame), for per-output rates.
    outputs: u64,
    allocs: u64,
    total_ns: u64,
    samples: Vec<u32>,
}

impl Span {
    fn record(&mut self, ns: u64, allocs: u64, produced: bool) {
        self.calls += 1;
        self.outputs += produced as u64;
        self.allocs += allocs;
        self.total_ns += ns;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(ns.min(u32::MAX as u64) as u32);
        }
    }

    /// Median call duration in ns, minus the cost of the clock reads.
    fn median_ns(&self, clock_ns: f64) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|&s| s as f64).collect();
        (crate::stats::median(&mut v) - clock_ns).max(0.0)
    }
}

pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, Span>,
    /// Cost of timing an empty span, subtracted from every sample.
    pub clock_ns: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: BTreeMap::new(),
            clock_ns: if on { clock_cost_ns() } else { 0.0 },
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside span `name`; `produced` tells whether the call
    /// yielded an output (a frame, an event) for per-output accounting.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        produced: impl Fn(&R) -> bool,
    ) -> R {
        if !self.on {
            return f();
        }
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let da = alloc::allocs() - a0;
        let p = produced(&r);
        self.record(name, ns, da, p);
        r
    }

    /// Add one call measured by the caller.
    pub fn record(&mut self, name: &'static str, ns: u64, allocs: u64, produced: bool) {
        self.spans
            .entry(name)
            .or_default()
            .record(ns, allocs, produced);
    }

    /// Shorthand for spans whose every call counts as an output.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, f, |_| true)
    }

    /// Sum of wall time inside the named spans.
    pub fn total_ns<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> u64 {
        names
            .into_iter()
            .filter_map(|n| self.spans.get(n))
            .map(|s| s.total_ns)
            .sum()
    }

    /// Median ns per call of span `name` (0 when never called).
    pub fn median_ns(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |s| s.median_ns(self.clock_ns))
    }

    /// Mean ns per output: time in all calls (empty ones included, less
    /// the clock reads) divided by the calls that produced an output.
    pub fn per_output_ns(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some(s) if s.outputs > 0 => {
                let net = s.total_ns as f64 - self.clock_ns * s.calls as f64;
                net.max(0.0) / s.outputs as f64
            }
            _ => 0.0,
        }
    }

    /// Allocations inside span `name` per output.
    pub fn allocs_per_output(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some(s) if s.outputs > 0 => s.allocs as f64 / s.outputs as f64,
            _ => 0.0,
        }
    }
}

/// Cost of timing an empty span (clock reads plus the allocation counter
/// read), to subtract from span samples: the median of 101 batch means,
/// so a preempted batch does not skew it.
pub fn clock_cost_ns() -> f64 {
    const BATCH: u64 = 1000;
    let mut means: Vec<f64> = (0..101)
        .map(|_| {
            let total: u64 = (0..BATCH)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(alloc::allocs());
                    t0.elapsed().as_nanos() as u64
                })
                .sum();
            total as f64 / BATCH as f64
        })
        .collect();
    crate::stats::median(&mut means)
}
