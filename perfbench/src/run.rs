//! One benchmark run: set-up, the deterministic fixed work, then the
//! timed phase; with tracing, the replay arms and per-layer figures.

use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::replay::{self, TableOp};
use crate::report::Report;
use crate::rpc::{Rpc, RpcSpec, CLIENT_ADDR};
use crate::stacks::{BenchStack, Counters, Kind};
use crate::stats::{median, percentile};
use crate::stream::{receiver_tuple, Stream, StreamSpec, ADDR_A, ADDR_B, PORT};
use crate::trace::Tracer;
use crate::wire::{Captured, Pattern, A_TO_B, B_TO_A, PATTERN_LEN};
use std::time::{Duration, Instant};
use sublayer_core::SlTcpStack;
use tcp_mono::wire::FourTuple;
use tcp_mono::TcpStack;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 21;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Bulk,
    Lossy,
    Rpc,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "bulk" => Some(Workload::Bulk),
            "lossy" => Some(Workload::Lossy),
            "rpc" => Some(Workload::Rpc),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Metric collector: units come from the metric tables.
struct Out(Report);

impl Out {
    fn set(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        self.0.set(name, value, unit);
    }

    fn set_for(&mut self, kind: Kind, metric: &str, value: f64) {
        self.set(&format!("{}.{metric}", kind.name()), value);
    }

    /// Keep exactly the metrics of `list`, reading 0 where unset.
    fn finish(mut self, list: &[(&'static str, &'static str)]) -> Report {
        let mut m = std::mem::take(&mut self.0.metrics);
        for (name, unit) in list {
            let v = m.remove(*name).map_or(0.0, |(v, _)| v);
            self.0.set(*name, v, unit);
        }
        self.0
    }
}

/// Run the benchmark. `Err` carries the report so far (for its counts)
/// and the reason the outputs were not correct.
pub fn run(args: Args) -> Result<Report, (Report, String)> {
    let mut out = Out(Report {
        correct: true,
        ..Report::default()
    });
    let res = match args.workload {
        Workload::Bulk => stream(&mut out, StreamSpec::bulk(args.seed), args),
        Workload::Lossy => stream(&mut out, StreamSpec::lossy(args.seed), args),
        Workload::Rpc => rpc(&mut out, RpcSpec::new(args.seed), args),
    };
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    match res {
        Ok(()) => Ok(out.finish(list)),
        Err(e) => {
            let mut r = out.finish(list);
            r.correct = false;
            r.failed = r.failed.max(1);
            r.attempted = r.attempted.max(r.failed);
            Err((r, e))
        }
    }
}

// ---------------------------------------------------------------- stream

/// Leading rounds left out of the wall-clock figures.
const WARMUP_ROUNDS: usize = 1;

fn stream(out: &mut Out, spec: StreamSpec, args: Args) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut pattern = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let p = Pattern::new(spec.seed, PATTERN_LEN);
        let stacks = (
            SlTcpStack::build(ADDR_A),
            SlTcpStack::build(ADDR_B),
            TcpStack::build(ADDR_A),
            TcpStack::build(ADDR_B),
        );
        std::hint::black_box(&stacks);
        setups.push(t0.elapsed().as_secs_f64());
        pattern = Some(p);
    }
    let pattern = pattern.expect("at least one set-up");
    if args.trace {
        return stream_traced(out, &spec, &pattern, args);
    }
    out.set("setup_s", median(&mut setups));

    let mut off = Tracer::new(false);
    let mut sub = Stream::<SlTcpStack>::open(&spec, &mut off, false)?;
    let mut mono = Stream::<TcpStack>::open(&spec, &mut off, false)?;
    // Rounds alternate between the stacks until the fixed work is done
    // and the time budget spent; the fixed work's figures are taken the
    // moment it completes.
    let mut fixed = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while fixed.is_none() || start.elapsed() < budget {
        sub.round(&pattern, &mut off)?;
        mono.round(&pattern, &mut off)?;
        if sub.rounds() == spec.fixed_rounds {
            fixed = Some((FixedWork::of(&sub), FixedWork::of(&mono)));
        }
    }
    out.0.ops("sub", sub.rounds() as u64, 0);
    out.0.ops("mono", mono.rounds() as u64, 0);
    let (fs, fm) = fixed.expect("fixed work done");
    let mb = spec.round_bytes as f64 / 1e6;
    for (kind, f, walls) in [
        (Kind::Sub, fs, &sub.round_wall),
        (Kind::Mono, fm, &mono.round_wall),
    ] {
        let walls = &walls[WARMUP_ROUNDS..];
        out.set_for(kind, "goodput_MBps", rate(walls.iter().map(|s| mb / s)));
        out.set_for(kind, "txn_per_s", rate(walls.iter().map(|s| 1.0 / s)));
        f.report(out, kind);
    }
    Ok(())
}

/// Deterministic figures of the fixed work of one stack.
struct FixedWork {
    latencies_ms: Vec<f64>,
    frames: u64,
    allocs: u64,
    /// The p99 over rounds of the heap high-water mark within a round.
    peak_heap: f64,
}

impl FixedWork {
    fn of<S: BenchStack>(s: &Stream<S>) -> FixedWork {
        FixedWork {
            latencies_ms: s.round_sim.iter().map(|d| d.0 as f64 / 1e6).collect(),
            frames: s.frames(),
            allocs: s.allocs,
            peak_heap: percentile(
                &mut s.round_peak.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                99.0,
            ),
        }
    }

    /// `sim_s` is the rounds' simulated time with each round capped at
    /// the 99th-percentile round (a winsorized total): a rare stall of
    /// tens of seconds in a backoff chain counts as a slow round, not as
    /// most of the total, so the figure is steady from seed to seed.
    fn report(mut self, out: &mut Out, kind: Kind) {
        let p99 = percentile(&mut self.latencies_ms, 99.0);
        let total_ms: f64 = self.latencies_ms.iter().map(|&ms| ms.min(p99)).sum();
        out.set_for(kind, "txn_p50_ms", percentile(&mut self.latencies_ms, 50.0));
        out.set_for(kind, "txn_p99_ms", p99);
        out.set_for(kind, "sim_s", total_ms / 1e3);
        out.set_for(
            kind,
            "allocs_per_frame",
            self.allocs as f64 / self.frames.max(1) as f64,
        );
        out.set_for(kind, "peak_heap_MB", self.peak_heap / 1e6);
    }
}

/// Rounds captured for the replay arms and counted for the per-layer
/// figures of a traced run: 32 MiB of payload.
fn capture_rounds(spec: &StreamSpec) -> usize {
    (((32 << 20) / spec.round_bytes) as usize).max(1)
}

fn stream_traced(
    out: &mut Out,
    spec: &StreamSpec,
    pattern: &Pattern,
    args: Args,
) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let clock = tr.clock_ns;
    // Traced streams capture their first rounds for the replay arms;
    // untraced twins run alongside to measure the tracing overhead.
    let mut sub = Stream::<SlTcpStack>::open(spec, &mut tr, true)?;
    let mut mono = Stream::<TcpStack>::open(spec, &mut tr, true)?;
    let mut sub_plain = Stream::<SlTcpStack>::open(spec, &mut off, false)?;
    let mut mono_plain = Stream::<TcpStack>::open(spec, &mut off, false)?;
    for _ in 0..capture_rounds(spec) {
        sub.round(pattern, &mut tr)?;
        mono.round(pattern, &mut tr)?;
    }
    let (cap_s, cap_m) = (sub.take_capture(), mono.take_capture());
    let (counts, mono_counts) = (sub.counters(), mono.counters());

    let top = top_spans_stream();
    let (mut span_ns, mut traced_ns) = (0u64, 0u64);
    let mut traced_round = |s: &mut dyn FnMut(&mut Tracer) -> Result<(), String>,
                            tr: &mut Tracer| {
        let s0 = tr.total_ns(top.iter().copied());
        let w0 = Instant::now();
        s(tr)?;
        traced_ns += w0.elapsed().as_nanos() as u64;
        span_ns += tr.total_ns(top.iter().copied()) - s0;
        Ok::<(), String>(())
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let first = sub.rounds();
    while start.elapsed() < budget {
        sub_plain.round(pattern, &mut off)?;
        traced_round(&mut |t| sub.round(pattern, t), &mut tr)?;
        mono_plain.round(pattern, &mut off)?;
        traced_round(&mut |t| mono.round(pattern, t), &mut tr)?;
    }
    out.0
        .ops("sub", (sub.rounds() + sub_plain.rounds()) as u64, 0);
    out.0
        .ops("mono", (mono.rounds() + mono_plain.rounds()) as u64, 0);
    out.set("trace.clock_ns", clock);
    out.set(
        "trace.span_share_pct",
        100.0 * span_ns as f64 / traced_ns.max(1) as f64,
    );
    for (kind, plain, traced) in [
        (Kind::Sub, &sub_plain.round_wall, &sub.round_wall),
        (Kind::Mono, &mono_plain.round_wall, &mono.round_wall),
    ] {
        let r = |w: &[f64]| rate(w.iter().map(|s| 1.0 / s));
        let slow = r(&plain[WARMUP_ROUNDS..]) / r(&traced[first..]);
        out.set(
            &format!("trace.{}.slowdown_pct", kind.name()),
            (slow - 1.0) * 100.0,
        );
    }
    stack_spans::<SlTcpStack>(out, &tr, &counts);
    stack_spans::<TcpStack>(out, &tr, &mono_counts);
    out.set(
        "stack.sub.crossings_per_seg",
        counts.crossings as f64 / counts.data_segments.max(1) as f64,
    );
    sub_counts(out, &counts, 2);

    // Replays of the captured rounds.
    codec_metrics(out, &frames(&cap_s), &frames(&cap_m))?;
    let inbound: Vec<&[u8]> = cap_s
        .iter()
        .filter(|c| c.dir == A_TO_B)
        .map(|c| &c.bytes[..])
        .collect();
    let (live, live_id) = sub.receiver();
    let at_b = receiver_tuple();
    let dm = replay::dm(
        ADDR_B,
        PORT,
        &[TableOp::Bind(at_b, live_id)],
        &inbound,
        |t| live.conn_for_tuple(t),
        false,
        clock,
    )?;
    out.set("dm.classify_ns", dm.classify_ns);
    let payload = pattern.to_vec(0, capture_rounds(spec) * spec.round_bytes as usize);
    let recv = replay::sub_receive(
        &cap_s,
        ADDR_B,
        |t| (*t == at_b).then_some(&payload[..]),
        clock,
    )?;
    recv_metrics(out, &recv);
    out.set(
        "osr.poll_segment_ns",
        replay::osr_segment(&[&payload], clock)?,
    );
    Ok(())
}

/// The wall-clock rate of a run: the 10th percentile of its per-round
/// (per-window) rates, i.e. the rate of its 90th-percentile round time.
/// The median flips between the two speeds a shared machine alternates
/// between for tens of seconds at a time; this quantile does not (see
/// the README).
fn rate(v: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&mut v.into_iter().collect::<Vec<_>>(), 10.0)
}

fn top_spans_stream() -> Vec<&'static str> {
    [SlTcpStack::names(), TcpStack::names()]
        .iter()
        .flat_map(|n| {
            [
                n.on_frame,
                n.poll_transmit,
                n.poll_deadline,
                n.on_tick,
                n.app_send,
                n.app_recv,
            ]
        })
        .collect()
}

fn stack_spans<S: BenchStack>(out: &mut Out, tr: &Tracer, c: &Counters) {
    let (k, n) = (S::KIND, S::names());
    let p = |m: &str| format!("stack.{}.{m}", k.name());
    out.set(&p("on_frame_ns"), tr.median_ns(n.on_frame));
    out.set(&p("poll_transmit_ns"), tr.per_output_ns(n.poll_transmit));
    out.set(&p("poll_deadline_ns"), tr.median_ns(n.poll_deadline));
    out.set(&p("on_tick_ns"), tr.median_ns(n.on_tick));
    out.set(&p("rx_allocs_per_frame"), tr.allocs_per_output(n.on_frame));
    out.set(
        &p("tx_allocs_per_frame"),
        tr.allocs_per_output(n.poll_transmit),
    );
    out.set(&p("retransmits"), c.retransmits as f64);
}

/// RD, OSR and CM counts of the sublayered stack.
fn sub_counts(out: &mut Out, c: &Counters, conns_opened: u64) {
    out.set("rd.retransmits", c.retransmits as f64);
    out.set("rd.fast_retransmits", c.fast_retransmits as f64);
    out.set("rd.timeouts", c.timeouts as f64);
    out.set("rd.dup_dropped", c.dup_dropped as f64);
    out.set(
        "rd.acks_per_seg",
        c.acks_sent as f64 / c.segments_sent.max(1) as f64,
    );
    out.set(
        "osr.signals_per_seg",
        c.signals_up as f64 / c.data_segments.max(1) as f64,
    );
    out.set("cm.conns_opened", conns_opened as f64);
    out.set("cm.challenge_acks", c.challenge_acks as f64);
}

fn frames(capture: &[Captured]) -> Vec<&[u8]> {
    capture.iter().map(|c| &c.bytes[..]).collect()
}

fn codec_metrics(out: &mut Out, sub: &[&[u8]], mono: &[&[u8]]) -> Result<(), String> {
    for (kind, t) in [
        (Kind::Sub, replay::sub_codec(sub)?),
        (Kind::Mono, replay::mono_codec(mono)?),
    ] {
        let p = |m: &str| format!("wire.{}.{m}", kind.name());
        out.set(&p("decode_ns"), t.decode_ns);
        out.set(&p("encode_ns"), t.encode_ns);
        out.set(&p("allocs_per_frame"), t.allocs_per_frame);
    }
    Ok(())
}

fn recv_metrics(out: &mut Out, r: &replay::RecvTimes) {
    out.set("rd.on_packet_ns", r.rd_on_packet_ns);
    out.set("rd.poll_packet_ns", r.rd_poll_packet_ns);
    out.set("osr.on_delivered_ns", r.osr_on_delivered_ns);
    out.set("osr.read_ns", r.osr_read_ns);
}

// ------------------------------------------------------------------- rpc

/// Transactions captured in a traced `rpc` run (the client has 16384
/// ephemeral ports).
const CAPTURED_TXNS: u64 = 8192;

fn rpc(out: &mut Out, spec: RpcSpec, args: Args) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let p = Pattern::new(spec.seed, PATTERN_LEN);
        let s = Rpc::<SlTcpStack>::build(&spec);
        let m = Rpc::<TcpStack>::build(&spec);
        setups.push(t0.elapsed().as_secs_f64());
        drop((p, s, m));
    }
    let pattern = Pattern::new(spec.seed, PATTERN_LEN);
    let mut tr = Tracer::new(args.trace);
    let mut off = Tracer::new(false);

    // Each stack's system is built, warmed past the first TIME_WAIT
    // expiries and run through the fixed work before the other is built,
    // so its peak heap is its own. A traced run captures a shorter phase
    // instead: fewer connects than there are ephemeral ports, so no tuple
    // carries two connections inside the capture.
    let fixed = if args.trace {
        CAPTURED_TXNS
    } else {
        spec.fixed_txns
    };
    let mut sub = Rpc::<SlTcpStack>::build(&spec);
    sub.warm_up(&pattern, &mut tr)?;
    sub.capture(args.trace);
    let fs = sub.run_txns(fixed, &pattern, &mut tr)?;
    let cap_s = sub.capture(false);
    if args.trace {
        rpc_sub_replays(out, &sub, &cap_s, &pattern, tr.clock_ns)?;
    }

    let mut mono = Rpc::<TcpStack>::build(&spec);
    mono.warm_up(&pattern, &mut tr)?;
    mono.capture(args.trace);
    let fm = mono.run_txns(fixed, &pattern, &mut tr)?;
    let cap_m = mono.capture(false);

    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut goodput: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut span_ns, mut window_ns) = (0u64, 0u64);
    let top = top_spans_rpc();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while start.elapsed() < budget {
        for traced in [false, true].into_iter().take(1 + args.trace as usize) {
            let t = if traced { &mut tr } else { &mut off };
            let s0 = t.total_ns(top.iter().copied());
            let ws = sub.run_txns(spec.window_txns, &pattern, t)?;
            let wm = mono.run_txns(spec.window_txns, &pattern, t)?;
            if traced {
                window_ns += ((ws.wall + wm.wall) * 1e9) as u64;
                span_ns += t.total_ns(top.iter().copied()) - s0;
            }
            for (i, w) in [(0, &ws), (1, &wm)] {
                let dst = if traced {
                    &mut traced_rates[i]
                } else {
                    &mut rates[i]
                };
                dst.push(w.txns as f64 / w.wall);
                if !traced {
                    goodput[i].push(w.echoed_bytes as f64 / 1e6 / w.wall);
                }
            }
        }
    }
    out.0.ops("sub", sub.txns + sub.failed, sub.failed);
    out.0.ops("mono", mono.txns + mono.failed, mono.failed);
    if out.0.failed > 0 {
        return Err(format!("{} transactions failed", out.0.failed));
    }

    if !args.trace {
        out.set("setup_s", median(&mut setups));
        for (kind, i, f) in [(Kind::Sub, 0, &fs), (Kind::Mono, 1, &fm)] {
            out.set_for(kind, "goodput_MBps", rate(goodput[i].iter().copied()));
            out.set_for(kind, "txn_per_s", rate(rates[i].iter().copied()));
            let mut lat: Vec<f64> = f.latencies_ns.iter().map(|&n| n as f64 / 1e6).collect();
            out.set_for(kind, "txn_p50_ms", percentile(&mut lat, 50.0));
            out.set_for(kind, "txn_p99_ms", percentile(&mut lat, 99.0));
            out.set_for(kind, "sim_s", f.sim.0 as f64 / 1e9);
            out.set_for(kind, "allocs_per_frame", f.allocs as f64 / f.frames as f64);
            out.set_for(kind, "peak_heap_MB", f.peak_heap as f64 / 1e6);
        }
        return Ok(());
    }

    out.set("trace.clock_ns", tr.clock_ns);
    for (kind, i) in [(Kind::Sub, 0), (Kind::Mono, 1)] {
        let slow = rate(rates[i].iter().copied()) / rate(traced_rates[i].iter().copied());
        out.set(
            &format!("trace.{}.slowdown_pct", kind.name()),
            (slow - 1.0) * 100.0,
        );
    }
    out.set(
        "trace.span_share_pct",
        100.0 * span_ns as f64 / window_ns.max(1) as f64,
    );
    host_metrics(out, &mut sub, &tr);
    host_metrics(out, &mut mono, &tr);
    codec_metrics(out, &frames(&cap_s), &frames(&cap_m))?;
    out.set("stack.sub.retransmits", sub.counters.retransmits as f64);
    let mono_rtx = mono
        .client
        .stack()
        .stack_counters()
        .since(&mono.stack_base)
        .retransmits;
    out.set("stack.mono.retransmits", mono_rtx as f64);
    Ok(())
}

fn top_spans_rpc() -> Vec<&'static str> {
    [SlTcpStack::names(), TcpStack::names()]
        .iter()
        .flat_map(|n| {
            [
                n.host_on_frame,
                n.host_poll_transmit,
                n.host_poll_deadline,
                n.host_on_tick,
                n.host_event,
                n.host_connect,
                n.shard_on_frame,
                n.shard_flush,
                n.shard_poll_transmit,
                n.shard_poll_deadline,
            ]
        })
        .collect()
}

/// The sublayer replays of `rpc`, run right after the sublayered fixed
/// work while the live client still holds the state they are checked
/// against.
fn rpc_sub_replays(
    out: &mut Out,
    sub: &Rpc<SlTcpStack>,
    capture: &[Captured],
    pattern: &Pattern,
    clock: f64,
) -> Result<(), String> {
    let inbound: Vec<&[u8]> = capture
        .iter()
        .filter(|c| c.dir == B_TO_A)
        .map(|c| &c.bytes[..])
        .collect();
    let live = sub.client.stack();
    let listen = slhost::HostConfig::default().listen_port;
    let dm = replay::dm(
        CLIENT_ADDR,
        listen,
        &sub.table_ops,
        &inbound,
        |t| live.conn_for_tuple(t),
        true,
        clock,
    )?;
    out.set("dm.classify_ns", dm.classify_ns);
    out.set("dm.bind_ns", dm.bind_ns);
    out.set("dm.unbind_ns", dm.unbind_ns);

    let expected: std::collections::HashMap<FourTuple, &[u8]> = sub
        .captured_txns
        .iter()
        .map(|&(t, index, len)| (t, sub.request(pattern, index, len)))
        .collect();
    let recv = replay::sub_receive(capture, CLIENT_ADDR, |t| expected.get(t).copied(), clock)?;
    if recv.complete != expected.len() as u64 {
        return Err(format!(
            "receive replay checked {} of {} transactions",
            recv.complete,
            expected.len()
        ));
    }
    recv_metrics(out, &recv);
    let streams: Vec<&[u8]> = expected.values().copied().collect();
    out.set("osr.poll_segment_ns", replay::osr_segment(&streams, clock)?);
    let mut c = sub.counters.clone();
    c.add(&sub.client.stack().stack_counters().since(&sub.stack_base));
    sub_counts(out, &c, sub.connects);
    Ok(())
}

fn host_metrics<S: BenchStack>(out: &mut Out, sys: &mut Rpc<S>, tr: &Tracer) {
    let (k, n) = (S::KIND, S::names());
    let p = |m: &str| format!("slhost.{}.{m}", k.name());
    out.set(&p("on_frame_ns"), tr.median_ns(n.host_on_frame));
    out.set(
        &p("poll_transmit_ns"),
        tr.per_output_ns(n.host_poll_transmit),
    );
    out.set(&p("on_tick_ns"), tr.median_ns(n.host_on_tick));
    out.set(&p("event_ns"), tr.median_ns(n.host_event));
    out.set(&p("connect_ns"), tr.median_ns(n.host_connect));
    let hc = &sys.client.counters;
    out.set(
        &p("timer_touches_per_tick"),
        hc.timer_touches as f64 / hc.ticks.max(1) as f64,
    );
    out.set(&p("conns_open_peak"), hc.conns_peak as f64);
    let q = |m: &str| format!("slshard.{}.{m}", k.name());
    out.set(&q("on_frame_ns"), tr.median_ns(n.shard_on_frame));
    out.set(&q("flush_ns"), tr.median_ns(n.shard_flush));
    let routed = &sys.server.routed;
    let total: u64 = routed.iter().sum();
    out.set(
        &q("frames_per_round"),
        total as f64 / sys.flush_rounds.max(1) as f64,
    );
    let mean = total as f64 / routed.len().max(1) as f64;
    let max = routed.iter().copied().max().unwrap_or(0) as f64;
    out.set(&q("balance"), if mean > 0.0 { max / mean } else { 0.0 });
    out.set(
        &q("ring_stalls"),
        sys.server.supervisor().ring_stalls as f64,
    );
}
