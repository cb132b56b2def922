//! E20 — the sharded multi-core host benchmark (`slshard`).
//!
//! One [`slshard::ShardedHost`] — N whole [`slhost`] hosts behind the
//! stateless 4-tuple shard router — serves a star of clients with
//! heavy-tailed request sizes ([`netsim::HeavyTailed`]) and RTT
//! diversity (four per-client link classes, 100 µs to 10 ms one-way).
//! Each client connects at a staggered time, sends one request, verifies
//! the echo byte-for-byte, lingers briefly (so a mid-run gauge sample
//! sees every connection open), then closes.
//!
//! Per-run invariants (any failure is a violation, reported and fatal to
//! `exp shard`): every echo completes intact with no transport errors
//! and no refusals; every shard's memory peak stays within its own
//! budget and the per-shard peaks sum within the global budget (sum of
//! peaks bounds the peak of the sum, so this is conservative); the
//! global pressure floor never leaves Nominal under a sanely provisioned
//! fleet; no shard starves and per-shard work stays balanced
//! (max/mean frames ≤ 1.5); and every shard's table drains to empty.
//!
//! The smoke sweep runs each cell in both execution modes and requires
//! the threaded run's outcome to be byte-identical to the single-thread
//! inline reference — the determinism claim, enforced in CI.

use netsim::{
    HeavyTailed, LinkParams, MultiStackNode, SimNet, StackNode, Time, TransportError,
};
use slhost::{EchoApp, Host, HostConfig, ResourceBudget, ServedHost};
use slshard::{Mode, ShardedConfig, ShardedHost};
use slconform::driver::{ConformStack, Kind};
use sublayer_core::SlTcpStack;
use tcp_mono::stack::TcpStack;
use tcp_mono::wire::Endpoint;

use crate::campaign::Campaign;
use crate::scale::ScaleClient;
use crate::{dur, json};

const SERVER_ADDR: u32 = crate::A;
const CLIENT_BASE: u32 = 0x0B00_0000;
const PORT: u16 = 80;
/// Gap between successive client connect times.
const STAGGER_NS: u64 = 20_000;
/// Heavy-tailed request sizes: mice of 64 B, elephants to 8 KiB.
const REQ_MIN: u64 = 64;
const REQ_MAX: u64 = 8192;
/// Idle hold after the echo completes, so the mid-run gauge sample sees
/// every connection open at once.
const LINGER_NS: u64 = 5_000_000_000;
/// One-way delay classes (RTT diversity), picked per client.
const DELAY_CLASSES_NS: [u64; 4] = [100_000, 500_000, 2_500_000, 10_000_000];
/// Per-shard byte budget; the global budget is `shards ×` this. Sized so
/// a healthy run never leaves Nominal — the invariants then prove the
/// budgets were *live but never exceeded*, not absent.
const SHARD_BUDGET: usize = 16 << 20;

pub(crate) fn mode_label(m: Mode) -> &'static str {
    match m {
        Mode::Threaded => "threaded",
        Mode::Inline => "inline",
    }
}

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ShardParams {
    pub stack: Kind,
    pub mode: Mode,
    pub shards: usize,
    pub n: usize,
    pub seed: u64,
}

/// Everything one run exposes: workload results, aggregated and
/// per-shard host counters, and the invariant violations (empty = clean).
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    pub stack: &'static str,
    pub mode: &'static str,
    pub shards: usize,
    pub n: usize,
    pub seed: u64,
    pub completed: usize,
    pub corrupt: usize,
    pub client_errors: usize,
    pub first_error: Option<TransportError>,
    pub accepts: u64,
    pub accept_refusals: u64,
    pub conns_per_sec: u64,
    /// Connect-to-established (accept) latency percentiles, microseconds.
    pub accept_p50_us: u64,
    pub accept_p99_us: u64,
    /// Connect-to-echo-complete latency percentiles, microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Echoed payload bytes, and what the workload demanded.
    pub echoed_bytes: u64,
    pub expected_bytes: u64,
    /// Fleet totals from the mid-run gauge sample: open connections,
    /// buffered bytes per open connection, worst-shard occupancy %.
    pub open_mid: u64,
    pub bytes_per_conn: u64,
    pub shard_occupancy: u64,
    /// Fleet memory: sum and worst shard of `mem_peak`, and peak bytes
    /// per connection (sum of peaks / peak connections) — the
    /// memory-per-connection headline.
    pub mem_peak_total: u64,
    pub mem_peak_worst_shard: u64,
    pub peak_bytes_per_conn: u64,
    pub conns_peak_total: u64,
    /// Per-shard frames handled (work balance), and max/mean ×100.
    pub shard_frames: Vec<u64>,
    pub balance_x100: u64,
    /// Per-shard `mem_peak` against the per-shard budget.
    pub shard_mem_peaks: Vec<u64>,
    pub shard_budget: u64,
    pub global_budget: u64,
    /// Global-ladder floor tier at the end of the run (0 = Nominal).
    pub final_floor: u8,
    pub crossings: u64,
    /// Fleet health gauges (E21 fault-domain plumbing): worst heartbeat
    /// age in rounds, supervisor restarts, failover-aborted connections,
    /// and coordinator waits on a slow shard's ring. All 0 in a healthy
    /// run — asserting them here keeps the gauges honest under load.
    pub heartbeat_age: u64,
    pub shard_restarts: u64,
    pub failover_aborts: u64,
    pub ring_stalls: u64,
    /// Fleet-wide connections still tracked at the horizon (leak check).
    pub server_residual: u64,
    pub sim_ms: u64,
    pub violations: Vec<String>,
}

/// Deterministic request payload for client `i` (heavy-tailed length).
fn request(sizes: &HeavyTailed, i: usize) -> Vec<u8> {
    let len = sizes.size(i as u64) as usize;
    (0..len).map(|j| ((i * 131 + j * 7) % 251) as u8).collect()
}

/// Run one cell of the sweep.
pub fn run_one(p: ShardParams) -> ShardOutcome {
    match p.stack {
        Kind::Sub => run_t::<SlTcpStack>(p),
        Kind::Mono => run_t::<TcpStack>(p),
    }
}

fn run_t<S: ConformStack>(p: ShardParams) -> ShardOutcome {
    let sizes = HeavyTailed::new(p.seed ^ 0x5EED_F10D, REQ_MIN, REQ_MAX);
    let expected_bytes: u64 = (0..p.n as u64).map(|i| sizes.size(i)).sum();
    // Per-shard hosts must hold every connection the router can send
    // them; 2× the fair share absorbs hash imbalance.
    let per_shard_conns = (p.n / p.shards.max(1)) * 2 + 1024;
    let host_cfg = HostConfig {
        listen_port: PORT,
        backlog: 1024,
        max_conns: per_shard_conns,
        batch_window: dur(50_000),
        budget: ResourceBudget::bytes(SHARD_BUDGET),
        refresh_every: dur(5_000_000),
        ..HostConfig::default()
    };
    let shard_cfg = ShardedConfig {
        shards: p.shards,
        seed: p.seed,
        batch_window: dur(50_000),
        ring_cap: 4096,
        global_budget: SHARD_BUDGET * p.shards,
        mode: p.mode,
        ..ShardedConfig::default()
    };
    let server: ShardedHost<S, EchoApp> = ShardedHost::new(shard_cfg, move |_shard| {
        ServedHost::new(Host::new(S::mk(SERVER_ADDR), host_cfg.clone()), EchoApp::default())
    });

    // Star with per-client RTT diversity: build the topology by hand so
    // each client link gets its own delay class.
    let mut net = SimNet::new(p.seed);
    let sid = net.add_node(Box::new(MultiStackNode::new(server)));
    let mut cids = Vec::with_capacity(p.n);
    for i in 0..p.n {
        let client = ScaleClient::new(
            S::mk(CLIENT_BASE + i as u32),
            Endpoint::new(SERVER_ADDR, PORT),
            Time(1_000_000 + STAGGER_NS * i as u64),
            request(&sizes, i),
            LINGER_NS,
        );
        let cid = net.add_node(Box::new(StackNode::new(client)));
        let delay = DELAY_CLASSES_NS[sizes.pick(i as u64, 4) as usize];
        net.connect(sid, i, cid, 0, LinkParams::delay_only(dur(delay)));
        cids.push(cid);
    }
    net.poll_all();

    // Mid-linger: the last client has echoed (worst RTT plus transfer
    // slack) but nobody has closed — sample the gauges with every
    // connection open.
    let last_connect = 1_000_000 + STAGGER_NS * p.n as u64;
    let mid = Time(last_connect + 2_000_000_000);
    net.run_until(mid);
    let (open_mid, bytes_per_conn, shard_occupancy) = {
        let srv =
            &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
        let (mid_counters, _, _) = srv.aggregate();
        (
            mid_counters.conns_open,
            mid_counters.bytes_per_conn,
            mid_counters.shard_occupancy,
        )
    };
    // Linger + close settle; the sublayered CM holds both closers in its
    // 10 s TIME_WAIT, so shard tables drain only after it expires.
    let horizon = Time(last_connect + 2_000_000_000 + LINGER_NS + 12_000_000_000);
    net.run_until(horizon);

    let mut completed = 0usize;
    let mut corrupt = 0usize;
    let mut client_errors = 0usize;
    let mut first_error: Option<TransportError> = None;
    let mut starved: Vec<usize> = Vec::new();
    let mut lat_us: Vec<u64> = Vec::new();
    let mut accept_us: Vec<u64> = Vec::new();
    let mut first_connect = u64::MAX;
    let mut last_done = 0u64;
    for (i, &cid) in cids.iter().enumerate() {
        let c = &net.node::<StackNode<ScaleClient<S>>>(cid).stack;
        if c.corrupt {
            corrupt += 1;
        }
        if let Some(e) = c.error {
            client_errors += 1;
            first_error.get_or_insert(e);
        }
        if let (Some(t0), Some(te)) = (c.connected_at, c.established_at) {
            accept_us.push(te.nanos().saturating_sub(t0.nanos()) / 1_000);
        }
        match (c.connected_at, c.done_at) {
            (Some(t0), Some(t1)) if !c.corrupt => {
                completed += 1;
                lat_us.push(t1.nanos().saturating_sub(t0.nanos()) / 1_000);
                first_connect = first_connect.min(t0.nanos());
                last_done = last_done.max(t1.nanos());
            }
            _ => starved.push(i),
        }
    }
    lat_us.sort_unstable();
    accept_us.sort_unstable();
    let window = last_done.saturating_sub(first_connect);
    let conns_per_sec =
        (completed as u64 * 1_000_000_000).checked_div(window).unwrap_or(0);

    let srv = &mut net.node_mut::<MultiStackNode<ShardedHost<S, EchoApp>>>(sid).stack;
    let snaps = srv.snapshots();
    let shard_frames: Vec<u64> = snaps.iter().map(|s| s.counters.frames_in).collect();
    let shard_mem_peaks: Vec<u64> = snaps.iter().map(|s| s.counters.mem_peak).collect();
    let mut total = slmetrics::HostCounters::default();
    let (mut echoed, mut served) = (0u64, 0u64);
    let mut crossings = 0u64;
    for s in &snaps {
        total.absorb(&s.counters);
        echoed += s.app_a;
        served += s.app_b;
        crossings += s.crossings;
    }
    let _ = served;
    let max_frames = shard_frames.iter().copied().max().unwrap_or(0);
    let min_frames = shard_frames.iter().copied().min().unwrap_or(0);
    let mean_frames =
        (total.frames_in).checked_div(p.shards as u64).unwrap_or(0).max(1);
    let balance_x100 = max_frames * 100 / mean_frames;

    let mut out = ShardOutcome {
        stack: p.stack.label(),
        mode: mode_label(p.mode),
        shards: p.shards,
        n: p.n,
        seed: p.seed,
        completed,
        corrupt,
        client_errors,
        first_error,
        accepts: total.accepts,
        accept_refusals: total.accept_refusals + total.pressure_refusals,
        conns_per_sec,
        accept_p50_us: crate::percentile(&accept_us, 50),
        accept_p99_us: crate::percentile(&accept_us, 99),
        p50_us: crate::percentile(&lat_us, 50),
        p99_us: crate::percentile(&lat_us, 99),
        echoed_bytes: echoed,
        expected_bytes,
        open_mid,
        bytes_per_conn,
        shard_occupancy,
        mem_peak_total: total.mem_peak,
        mem_peak_worst_shard: shard_mem_peaks.iter().copied().max().unwrap_or(0),
        peak_bytes_per_conn: total
            .mem_peak
            .checked_div(total.conns_peak)
            .unwrap_or(0),
        conns_peak_total: total.conns_peak,
        shard_frames,
        balance_x100,
        shard_mem_peaks,
        shard_budget: SHARD_BUDGET as u64,
        global_budget: (SHARD_BUDGET * p.shards) as u64,
        final_floor: match srv.global_floor() {
            slmetrics::Pressure::Nominal => 0,
            slmetrics::Pressure::Elevated => 1,
            slmetrics::Pressure::High => 2,
            slmetrics::Pressure::Critical => 3,
        },
        crossings,
        heartbeat_age: total.heartbeat_age,
        shard_restarts: total.shard_restarts,
        failover_aborts: total.failover_aborts,
        ring_stalls: total.ring_stalls,
        server_residual: snaps.iter().map(|s| s.counters.conns_open).sum(),
        sim_ms: net.now().nanos() / 1_000_000,
        violations: Vec::new(),
    };

    if out.completed != p.n {
        let head: Vec<String> =
            starved.iter().take(5).map(|i| i.to_string()).collect();
        out.violations.push(format!(
            "{} of {} clients never completed (first: [{}])",
            p.n - out.completed,
            p.n,
            head.join(",")
        ));
    }
    if out.corrupt > 0 {
        out.violations.push(format!("{} corrupt echoes", out.corrupt));
    }
    if out.client_errors > 0 {
        out.violations.push(format!(
            "{} client transport errors (first: {:?})",
            out.client_errors,
            out.first_error.expect("counted an error")
        ));
    }
    if out.accepts != p.n as u64 {
        out.violations
            .push(format!("accepted {} of {} connections", out.accepts, p.n));
    }
    if out.accept_refusals != 0 {
        out.violations.push(format!("{} accept refusals", out.accept_refusals));
    }
    if out.echoed_bytes != out.expected_bytes {
        out.violations.push(format!(
            "echoed {} bytes, expected {}",
            out.echoed_bytes, out.expected_bytes
        ));
    }
    for (i, &peak) in out.shard_mem_peaks.iter().enumerate() {
        if peak > out.shard_budget {
            out.violations.push(format!(
                "shard {i} budget exceeded: peak {peak} > {}",
                out.shard_budget
            ));
        }
    }
    // Sum of per-shard peaks bounds the peak of the fleet sum, so this
    // conservatively proves the global budget was never exceeded.
    if out.mem_peak_total > out.global_budget {
        out.violations.push(format!(
            "global budget exceeded: peak sum {} > {}",
            out.mem_peak_total, out.global_budget
        ));
    }
    if out.final_floor != 0 {
        out.violations
            .push(format!("global floor ended at tier {}", out.final_floor));
    }
    if min_frames == 0 {
        out.violations.push("a shard starved (0 frames handled)".into());
    }
    if out.balance_x100 > 150 {
        out.violations.push(format!(
            "shard work imbalance: max/mean = {}.{:02} > 1.50 ({:?})",
            out.balance_x100 / 100,
            out.balance_x100 % 100,
            out.shard_frames
        ));
    }
    if out.server_residual != 0 {
        out.violations.push(format!(
            "shards leaked {} connections past close",
            out.server_residual
        ));
    }
    // No faults are injected here, so the E21 fault-domain gauges must
    // stay silent: any restart or failover abort in a healthy run is a
    // supervisor false positive.
    if out.shard_restarts != 0 || out.failover_aborts != 0 {
        out.violations.push(format!(
            "fault-domain activity in a healthy run: restarts={} aborts={}",
            out.shard_restarts, out.failover_aborts
        ));
    }
    out
}

/// E20: the shard sweep (`exp shard`).
pub struct Shard;

impl Campaign for Shard {
    type Cell = ShardOutcome;
    type Sweep = Vec<ShardOutcome>;
    const NAME: &'static str = "shard";
    const CROSS_KEY: Option<&'static str> = Some("mode_cross_checks");

    fn title(&self, _smoke: bool) -> String {
        "# E20: sharded multi-core host (slshard)".into()
    }

    /// Smoke: both stacks × both modes at n=400, shards=4 (the mode pair
    /// feeds the cross-check). Full: both stacks, threaded, 8 shards,
    /// n ∈ {10k, 100k}.
    fn sweep(&self, smoke: bool) -> Vec<ShardOutcome> {
        let stacks = [Kind::Sub, Kind::Mono];
        let mut outs = Vec::new();
        if smoke {
            for stack in stacks {
                for mode in [Mode::Threaded, Mode::Inline] {
                    outs.push(run_one(ShardParams {
                        stack,
                        mode,
                        shards: 4,
                        n: 400,
                        seed: 1,
                    }));
                }
            }
            return outs;
        }
        for n in [10_000usize, 100_000] {
            for stack in stacks {
                outs.push(run_one(ShardParams {
                    stack,
                    mode: Mode::Threaded,
                    shards: 8,
                    n,
                    seed: 1,
                }));
            }
        }
        outs
    }

    /// The mode-determinism cross-check: a threaded run and its inline
    /// reference (same stack, shards, n, seed) must agree on every field
    /// except the mode label.
    fn cross_checks(&self, outs: &Vec<ShardOutcome>) -> Vec<String> {
        let mut v = Vec::new();
        for t in outs.iter().filter(|o| o.mode == "threaded") {
            let Some(i) = outs.iter().find(|o| {
                o.mode == "inline"
                    && o.stack == t.stack
                    && o.shards == t.shards
                    && o.n == t.n
                    && o.seed == t.seed
            }) else {
                continue;
            };
            let strip = |o: &ShardOutcome| {
                let mut c = o.clone();
                c.mode = "";
                self.row_json(&c)
            };
            if strip(t) != strip(i) {
                v.push(format!(
                    "threaded run diverged from inline reference at stack={} shards={} \
                     n={}:\n  threaded: {}\n  inline:   {}",
                    t.stack,
                    t.shards,
                    t.n,
                    self.row_json(t),
                    self.row_json(i)
                ));
            }
        }
        v
    }

    fn violations<'a>(&self, o: &'a ShardOutcome) -> &'a [String] {
        &o.violations
    }

    fn row_json(&self, o: &ShardOutcome) -> String {
        json::Object::default()
            .str("stack", o.stack)
            .str("mode", o.mode)
            .field("shards", o.shards)
            .field("n", o.n)
            .field("seed", o.seed)
            .field("completed", o.completed)
            .field("corrupt", o.corrupt)
            .field("client_errors", o.client_errors)
            .field("accepts", o.accepts)
            .field("accept_refusals", o.accept_refusals)
            .field("conns_per_sec", o.conns_per_sec)
            .field("accept_p50_us", o.accept_p50_us)
            .field("accept_p99_us", o.accept_p99_us)
            .field("p50_us", o.p50_us)
            .field("p99_us", o.p99_us)
            .field("echoed_bytes", o.echoed_bytes)
            .field("expected_bytes", o.expected_bytes)
            .field("open_mid", o.open_mid)
            .field("bytes_per_conn", o.bytes_per_conn)
            .field("shard_occupancy", o.shard_occupancy)
            .field("mem_peak_total", o.mem_peak_total)
            .field("mem_peak_worst_shard", o.mem_peak_worst_shard)
            .field("peak_bytes_per_conn", o.peak_bytes_per_conn)
            .field("conns_peak_total", o.conns_peak_total)
            .field("shard_frames", json::arr(&o.shard_frames))
            .field("balance_x100", o.balance_x100)
            .field("shard_mem_peaks", json::arr(&o.shard_mem_peaks))
            .field("shard_budget", o.shard_budget)
            .field("global_budget", o.global_budget)
            .field("final_floor", o.final_floor)
            .field("crossings", o.crossings)
            .field("heartbeat_age", o.heartbeat_age)
            .field("shard_restarts", o.shard_restarts)
            .field("failover_aborts", o.failover_aborts)
            .field("ring_stalls", o.ring_stalls)
            .field("server_residual", o.server_residual)
            .field("sim_ms", o.sim_ms)
            .field("violations", json::str_list(&o.violations))
            .end()
    }

    fn headers(&self) -> &'static [&'static str] {
        &[
            "stack", "mode", "shards", "n", "done", "conns/s", "acc p99 us", "p99 us",
            "peak B/conn", "occ %", "balance", "floor", "viol",
        ]
    }

    fn row(&self, o: &ShardOutcome) -> Vec<String> {
        vec![
            o.stack.to_string(),
            o.mode.to_string(),
            o.shards.to_string(),
            o.n.to_string(),
            format!("{}/{}", o.completed, o.n),
            o.conns_per_sec.to_string(),
            o.accept_p99_us.to_string(),
            o.p99_us.to_string(),
            o.peak_bytes_per_conn.to_string(),
            o.shard_occupancy.to_string(),
            format!("{}.{:02}", o.balance_x100 / 100, o.balance_x100 % 100),
            o.final_floor.to_string(),
            o.violations.len().to_string(),
        ]
    }
}
