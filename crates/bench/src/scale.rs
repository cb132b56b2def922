//! E15 — the many-client scale benchmark for the `slhost` server host.
//!
//! One [`ServedHost`] + [`EchoApp`] hub serves N clients in a
//! [`netsim::star`] topology. Each client connects at a staggered time,
//! sends one ~256 B request, verifies the echo byte-for-byte, then
//! **lingers** idle for 10 s before closing. Keepalive (idle 5 s) runs on
//! both sides, so during the linger phase every established connection
//! holds a standing timer — the regime where the hierarchical timer
//! wheel's O(fired)-per-tick cost separates from the naive
//! scan-every-connection baseline.
//!
//! Per-run invariants (any failure is a violation, reported and fatal to
//! the experiment binary): every client completes with an intact echo,
//! no client sees a transport error, the host accepts exactly N
//! connections with zero refusals, and the host table drains to empty
//! after the clients close.

use netsim::{Dur, LinkParams, MultiStackNode, Stack, StackNode, Time, TransportError};
use slhost::{EchoApp, Host, HostConfig, HostStack, ServedHost, TimerMode};
use slconform::driver::{ConformStack, Kind};
use sublayer_core::SlTcpStack;
use tcp_mono::stack::{Keepalive, TcpStack};
use tcp_mono::wire::Endpoint;

use crate::campaign::Campaign;
use crate::{dur, json};

/// Server address (clients start above [`CLIENT_BASE`]).
const SERVER_ADDR: u32 = crate::A;
const CLIENT_BASE: u32 = 0x0A01_0000;
const PORT: u16 = 80;
const CLIENT_PORT: u16 = 5000;
/// Request payload length per client.
const REQ_LEN: usize = 256;
/// Gap between successive client connect times.
const STAGGER_NS: u64 = 200_000;
/// Idle hold after the echo completes, before the client closes — the
/// many-idle-connections phase the timer comparison measures.
const LINGER_NS: u64 = 10_000_000_000;
/// Keepalive on both sides: every established connection keeps a timer
/// armed for the whole linger phase.
const KEEPALIVE: Keepalive = Keepalive {
    idle: Dur(5_000_000_000),
    interval: Dur(1_000_000_000),
    max_probes: 5,
};

fn timer_label(mode: TimerMode) -> &'static str {
    match mode {
        TimerMode::Wheel => "wheel",
        TimerMode::NaiveScan => "naive",
    }
}

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScaleParams {
    pub stack: Kind,
    pub timer_mode: TimerMode,
    pub n: usize,
    pub seed: u64,
}

/// Everything one run exposes: workload results, host counters, and the
/// invariant violations (empty = clean).
#[derive(Clone, Debug)]
pub struct ScaleOutcome {
    pub stack: &'static str,
    pub timer: &'static str,
    pub n: usize,
    pub seed: u64,
    /// Clients whose echo came back complete and intact.
    pub completed: usize,
    pub corrupt: usize,
    pub client_errors: usize,
    pub first_error: Option<TransportError>,
    pub accepts: u64,
    pub accept_refusals: u64,
    /// Completed connections per wall-second of the connect..finish window.
    pub conns_per_sec: u64,
    /// Connect-to-echo-complete latency percentiles, microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Connect-to-established (accept) latency percentiles, microseconds
    /// — p99, not a mean, so accept-queue stalls at scale are visible.
    pub accept_p50_us: u64,
    pub accept_p99_us: u64,
    /// `HostCounters::bytes_per_conn` sampled mid-linger (all N
    /// connections open): buffered bytes per open connection.
    pub bytes_per_conn: u64,
    /// `HostCounters::shard_occupancy` at the same sample: open
    /// connections as % of table capacity.
    pub shard_occupancy: u64,
    pub ticks: u64,
    pub timer_fires: u64,
    pub timer_touches: u64,
    /// `timer_touches * 100 / ticks` — the wheel-vs-naive figure of merit,
    /// fixed-point so the JSON stays integers-only.
    pub work_per_tick_x100: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    pub events: u64,
    pub echoed_bytes: u64,
    /// Server-side inter-sublayer boundary crossings (0 for the
    /// monolithic stack, which has none) — the crossing-overhead figure
    /// at scale.
    pub crossings: u64,
    /// Host-tracked connections still present at the horizon (leak check).
    pub server_residual: usize,
    pub sim_ms: u64,
    pub violations: Vec<String>,
}

/// Client phases; time-driven transitions happen in `drive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting for its staggered connect time.
    Idle,
    Connecting,
    /// Request sent; collecting the echo.
    Await,
    /// Echo verified; holding the connection open, keepalive ticking.
    Linger,
    /// FIN sent; waiting out the close handshake.
    Closing,
    Done,
    Failed,
}

/// One scripted client: connect → request → verify echo → linger → close.
/// Generic over the same [`HostStack`] surface the host uses, so the whole
/// experiment is stack-agnostic by construction. Verifies the echo
/// streamingly, with no per-client payload copy, so the E20 shard sweep
/// drives 100k of them.
pub struct ScaleClient<S: HostStack> {
    stack: S,
    server: Endpoint,
    req: Vec<u8>,
    phase: Phase,
    conn: Option<S::ConnId>,
    /// Echo bytes verified so far.
    got: usize,
    connect_at: Time,
    linger_ns: u64,
    linger_until: Time,
    pub connected_at: Option<Time>,
    /// When the handshake completed (accept latency's far edge).
    pub established_at: Option<Time>,
    pub done_at: Option<Time>,
    pub error: Option<TransportError>,
    pub corrupt: bool,
}

impl<S: HostStack> ScaleClient<S> {
    pub(crate) fn new(
        stack: S,
        server: Endpoint,
        connect_at: Time,
        req: Vec<u8>,
        linger_ns: u64,
    ) -> Self {
        ScaleClient {
            stack,
            server,
            req,
            phase: Phase::Idle,
            conn: None,
            got: 0,
            connect_at,
            linger_ns,
            linger_until: Time::MAX,
            connected_at: None,
            established_at: None,
            done_at: None,
            error: None,
            corrupt: false,
        }
    }

    fn drive(&mut self, now: Time) {
        if let (Some(id), None) = (self.conn, self.error) {
            if let Some(e) = self.stack.conn_error(id) {
                self.error = Some(e);
                self.phase = Phase::Failed;
            }
        }
        loop {
            match self.phase {
                Phase::Idle => {
                    if now < self.connect_at {
                        return;
                    }
                    match self.stack.try_connect(now, CLIENT_PORT, self.server) {
                        Ok(id) => {
                            self.conn = Some(id);
                            self.connected_at = Some(now);
                            self.phase = Phase::Connecting;
                        }
                        Err(e) => {
                            self.error = Some(e);
                            self.phase = Phase::Failed;
                        }
                    }
                }
                Phase::Connecting => {
                    let id = self.conn.expect("connected past Idle");
                    if !self.stack.is_established(id) {
                        return;
                    }
                    self.established_at = Some(now);
                    self.stack.send(id, &self.req);
                    self.phase = Phase::Await;
                }
                Phase::Await => {
                    let id = self.conn.expect("connected past Idle");
                    let data = self.stack.recv(id);
                    for &b in &data {
                        if self.got >= self.req.len() || b != self.req[self.got] {
                            self.corrupt = true;
                        }
                        self.got += 1;
                    }
                    if self.got < self.req.len() {
                        return;
                    }
                    self.done_at = Some(now);
                    self.linger_until = Time(now.nanos() + self.linger_ns);
                    self.phase = Phase::Linger;
                }
                Phase::Linger => {
                    if now < self.linger_until {
                        return;
                    }
                    let id = self.conn.expect("connected past Idle");
                    self.stack.close(id);
                    self.phase = Phase::Closing;
                }
                Phase::Closing => {
                    let id = self.conn.expect("connected past Idle");
                    if !self.stack.is_closed(id) {
                        return;
                    }
                    self.phase = Phase::Done;
                }
                Phase::Done | Phase::Failed => return,
            }
        }
    }
}

impl<S: HostStack> Stack for ScaleClient<S> {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        Stack::on_frame(&mut self.stack, now, frame);
        self.drive(now);
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        Stack::poll_transmit(&mut self.stack, now)
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        let own = match self.phase {
            Phase::Idle => Some(self.connect_at),
            Phase::Linger => Some(self.linger_until),
            _ => None,
        };
        [own, Stack::poll_deadline(&self.stack, now)].into_iter().flatten().min()
    }

    fn on_tick(&mut self, now: Time) {
        Stack::on_tick(&mut self.stack, now);
        self.drive(now);
    }
}

/// Deterministic per-client request payload.
fn request(i: usize) -> Vec<u8> {
    (0..REQ_LEN).map(|j| ((i * 31 + j) % 251) as u8).collect()
}

/// Run one cell of the sweep.
pub fn run_one(p: ScaleParams) -> ScaleOutcome {
    match p.stack {
        Kind::Sub => run_t::<SlTcpStack>(p),
        Kind::Mono => run_t::<TcpStack>(p),
    }
}

fn run_t<S: ConformStack>(p: ScaleParams) -> ScaleOutcome {
    let mk = |addr| S::mk_with(addr, "newreno", Some(KEEPALIVE));
    let cfg = HostConfig {
        listen_port: PORT,
        backlog: 256,
        batch_window: dur(50_000),
        timer_mode: p.timer_mode,
        ..HostConfig::default()
    };
    let server = ServedHost::new(Host::new(mk(SERVER_ADDR), cfg), EchoApp::default());
    let clients: Vec<ScaleClient<S>> = (0..p.n)
        .map(|i| {
            ScaleClient::new(
                mk(CLIENT_BASE + i as u32),
                Endpoint::new(SERVER_ADDR, PORT),
                Time(1_000_000 + STAGGER_NS * i as u64),
                request(i),
                LINGER_NS,
            )
        })
        .collect();

    let (mut net, sid, cids) = netsim::star(
        p.seed,
        server,
        clients,
        LinkParams::delay_only(dur(1_000_000)),
    );
    net.poll_all();
    // Last connect + generous handshake/echo slack + linger + close settle.
    // The settle must outlast the sublayered stack's 10 s TIME_WAIT: its CM
    // holds *both* closers there, so server-side conns are reaped only
    // after it expires (mono releases the passive closer immediately).
    let horizon = Time(
        1_000_000 + STAGGER_NS * p.n as u64 + 2_000_000_000 + LINGER_NS + 12_000_000_000,
    );
    // Mid-linger: every client has echoed but none has closed — sample
    // the occupancy gauges with all N connections open.
    let mid = Time(1_000_000 + STAGGER_NS * p.n as u64 + 2_000_000_000 + LINGER_NS / 2);
    net.run_until(mid);
    net.node_mut::<MultiStackNode<ServedHost<S, EchoApp>>>(sid)
        .stack
        .host
        .sample_gauges();
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
    let pct = |q: u64| crate::percentile(&lat_us, q);
    let window = last_done.saturating_sub(first_connect);
    let conns_per_sec =
        (completed as u64 * 1_000_000_000).checked_div(window).unwrap_or(0);

    let srv = &net.node::<MultiStackNode<ServedHost<S, EchoApp>>>(sid).stack;
    let k = &srv.host.counters;
    let mut out = ScaleOutcome {
        stack: p.stack.label(),
        timer: timer_label(p.timer_mode),
        n: p.n,
        seed: p.seed,
        completed,
        corrupt,
        client_errors,
        first_error,
        accepts: k.accepts,
        accept_refusals: k.accept_refusals,
        conns_per_sec,
        p50_us: pct(50),
        p99_us: pct(99),
        accept_p50_us: crate::percentile(&accept_us, 50),
        accept_p99_us: crate::percentile(&accept_us, 99),
        bytes_per_conn: k.bytes_per_conn,
        shard_occupancy: k.shard_occupancy,
        ticks: k.ticks,
        timer_fires: k.timer_fires,
        timer_touches: k.timer_touches,
        work_per_tick_x100: (k.timer_touches * 100).checked_div(k.ticks).unwrap_or(0),
        frames_in: k.frames_in,
        frames_out: k.frames_out,
        events: k.events_dispatched,
        echoed_bytes: srv.app.echoed,
        crossings: srv.host.stack().crossing_events().unwrap_or(0),
        server_residual: srv.host.tracked_count(),
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
        out.violations.push(format!("accepted {} of {} connections", out.accepts, p.n));
    }
    if out.accept_refusals != 0 {
        out.violations.push(format!("{} accept refusals", out.accept_refusals));
    }
    if out.echoed_bytes != (p.n * REQ_LEN) as u64 {
        out.violations.push(format!(
            "echoed {} bytes, expected {}",
            out.echoed_bytes,
            p.n * REQ_LEN
        ));
    }
    if out.server_residual != 0 {
        out.violations
            .push(format!("host leaked {} connections past close", out.server_residual));
    }
    out
}

/// E15: the scale sweep (`exp scale`).
pub struct Scale;

impl Campaign for Scale {
    type Cell = ScaleOutcome;
    type Sweep = Vec<ScaleOutcome>;
    const NAME: &'static str = "scale";
    const CROSS_KEY: Option<&'static str> = Some("cross_checks");

    fn title(&self, _smoke: bool) -> String {
        "# E15: many-client scale (slhost)".into()
    }

    /// Smoke = N=30 across both stacks × both timer modes; full = wheel
    /// at N ∈ {100, 1000, 5000} × both stacks × two seeds, plus the naive
    /// baseline at N ∈ {100, 1000} (quadratic — N=5000 naive is the point
    /// of not having a wheel, so it is not run).
    fn sweep(&self, smoke: bool) -> Vec<ScaleOutcome> {
        let stacks = [Kind::Sub, Kind::Mono];
        let mut outs = Vec::new();
        if smoke {
            for stack in stacks {
                for timer_mode in [TimerMode::Wheel, TimerMode::NaiveScan] {
                    outs.push(run_one(ScaleParams { stack, timer_mode, n: 30, seed: 1 }));
                }
            }
            return outs;
        }
        for &n in &[100usize, 1000, 5000] {
            for stack in stacks {
                for seed in [1u64, 2] {
                    outs.push(run_one(ScaleParams {
                        stack,
                        timer_mode: TimerMode::Wheel,
                        n,
                        seed,
                    }));
                }
            }
        }
        for &n in &[100usize, 1000] {
            for stack in stacks {
                outs.push(run_one(ScaleParams {
                    stack,
                    timer_mode: TimerMode::NaiveScan,
                    n,
                    seed: 1,
                }));
            }
        }
        outs
    }

    /// Wherever the same (stack, n, seed) cell ran under both timer
    /// modes, the wheel must do strictly less timer work per tick than
    /// the naive scan.
    fn cross_checks(&self, outs: &Vec<ScaleOutcome>) -> Vec<String> {
        let mut v = Vec::new();
        for naive in outs.iter().filter(|o| o.timer == "naive") {
            let Some(wheel) = outs.iter().find(|o| {
                o.timer == "wheel"
                    && o.stack == naive.stack
                    && o.n == naive.n
                    && o.seed == naive.seed
            }) else {
                continue;
            };
            if wheel.work_per_tick_x100 >= naive.work_per_tick_x100 {
                v.push(format!(
                    "wheel work/tick ({}.{:02}) not below naive ({}.{:02}) at stack={} n={}",
                    wheel.work_per_tick_x100 / 100,
                    wheel.work_per_tick_x100 % 100,
                    naive.work_per_tick_x100 / 100,
                    naive.work_per_tick_x100 % 100,
                    naive.stack,
                    naive.n
                ));
            }
        }
        v
    }

    fn violations<'a>(&self, o: &'a ScaleOutcome) -> &'a [String] {
        &o.violations
    }

    fn row_json(&self, o: &ScaleOutcome) -> String {
        json::Object::default()
            .str("stack", o.stack)
            .str("timer", o.timer)
            .field("n", o.n)
            .field("seed", o.seed)
            .field("completed", o.completed)
            .field("corrupt", o.corrupt)
            .field("client_errors", o.client_errors)
            .field("first_error", json::err(o.first_error))
            .field("accepts", o.accepts)
            .field("accept_refusals", o.accept_refusals)
            .field("conns_per_sec", o.conns_per_sec)
            .field("p50_us", o.p50_us)
            .field("p99_us", o.p99_us)
            .field("accept_p50_us", o.accept_p50_us)
            .field("accept_p99_us", o.accept_p99_us)
            .field("bytes_per_conn", o.bytes_per_conn)
            .field("shard_occupancy", o.shard_occupancy)
            .field("ticks", o.ticks)
            .field("timer_fires", o.timer_fires)
            .field("timer_touches", o.timer_touches)
            .field("work_per_tick_x100", o.work_per_tick_x100)
            .field("frames_in", o.frames_in)
            .field("frames_out", o.frames_out)
            .field("events", o.events)
            .field("echoed_bytes", o.echoed_bytes)
            .field("crossings", o.crossings)
            .field("server_residual", o.server_residual)
            .field("sim_ms", o.sim_ms)
            .field("violations", json::str_list(&o.violations))
            .end()
    }

    fn headers(&self) -> &'static [&'static str] {
        &[
            "stack", "timer", "n", "seed", "done", "conns/s", "p50 us", "p99 us", "acc p99 us",
            "occ %", "work/tick", "ticks", "xings/conn", "viol",
        ]
    }

    fn row(&self, o: &ScaleOutcome) -> Vec<String> {
        vec![
            o.stack.to_string(),
            o.timer.to_string(),
            o.n.to_string(),
            o.seed.to_string(),
            format!("{}/{}", o.completed, o.n),
            o.conns_per_sec.to_string(),
            o.p50_us.to_string(),
            o.p99_us.to_string(),
            o.accept_p99_us.to_string(),
            o.shard_occupancy.to_string(),
            format!("{}.{:02}", o.work_per_tick_x100 / 100, o.work_per_tick_x100 % 100),
            o.ticks.to_string(),
            (o.crossings / o.n as u64).to_string(),
            o.violations.len().to_string(),
        ]
    }
}
