//! `rpc`: a closed loop of request/echo transactions.
//!
//! The client is one `slhost::Host` with [`RpcSpec::conns`] concurrent
//! connections, driven by the benchmark as its application through the
//! `MultiStack` entry points plus the `Host` API. The server is a
//! `slshard::ShardedHost` with two shards serving `EchoApp`, run in the
//! shard layer's single-threaded `Mode::Inline` (see the README for why
//! not `Mode::Threaded`). Each
//! connection sends one heavy-tailed request, verifies the echo, closes
//! and is replaced at once; the client's closes leave TIME_WAIT entries,
//! so after the warm-up the client's connection table sits at a steady
//! size of several thousand entries.

use crate::alloc;
use crate::replay::TableOp;
use crate::stacks::{BenchStack, Counters};
use crate::stream::seeded_delay;
use crate::trace::Tracer;
use crate::wire::{Captured, Pattern, Wire, A_TO_B, B_TO_A, PATTERN_LEN};
use netsim::{Dur, HeavyTailed, MultiStack, Time};
use slhost::{EchoApp, Host, HostConfig, HostEvent, ServedHost};
use slshard::{Mode, ShardedConfig, ShardedHost};
use std::collections::HashMap;
use std::time::Instant;
use tcp_mono::wire::{Endpoint, FourTuple};

pub const CLIENT_ADDR: u32 = 0x0A01_0001;
pub const SERVER_ADDR: u32 = 0x0A02_0001;
pub const PORT: u16 = 80;
const REQ_MIN: u64 = 64;
const REQ_MAX: u64 = 8192;
const STALL_STEPS: u32 = 100_000;

#[derive(Clone, Debug)]
pub struct RpcSpec {
    pub delay: Dur,
    pub conns: usize,
    pub shards: usize,
    /// Simulated time run untimed before any measurement, past the
    /// expiry of the first TIME_WAIT entries.
    pub warmup: Dur,
    /// Transactions in the deterministic fixed-work phase.
    pub fixed_txns: u64,
    /// Transactions per timed window.
    pub window_txns: u64,
    pub seed: u64,
}

impl RpcSpec {
    /// 10 ms one-way, 32 connections, 2 shards. The fixed work
    /// holds enough transactions that its 99th percentile sits on one
    /// round-trip level for every seed.
    pub fn new(seed: u64) -> RpcSpec {
        RpcSpec {
            delay: seeded_delay(Dur::from_millis(10), seed),
            conns: 32,
            shards: 2,
            warmup: Dur::from_millis(11_000),
            fixed_txns: 16_384,
            window_txns: 2000,
            seed,
        }
    }
}

/// The request of transaction `index`: `len` bytes of the pattern.
fn request(pattern: &Pattern, index: u64, len: usize) -> &[u8] {
    pattern.window(index.wrapping_mul(7919) % PATTERN_LEN as u64, len)
}

/// Time and allocations spent in host calls while handling one event.
#[derive(Default)]
struct HostCost {
    on: bool,
    ns: u64,
    allocs: u64,
}

impl HostCost {
    fn start(&mut self, on: bool) {
        *self = HostCost {
            on,
            ns: 0,
            allocs: 0,
        };
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.allocs += alloc::allocs() - a0;
        r
    }

    fn finish(&self, tr: &mut Tracer, name: &'static str) {
        if self.on {
            tr.record(name, self.ns, self.allocs, true);
        }
    }
}

/// A transaction in flight on one connection.
struct Txn {
    index: u64,
    started: Time,
    len: usize,
    echoed: usize,
}

/// Figures of one measured phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub txns: u64,
    pub failed: u64,
    pub sim: Dur,
    pub wall: f64,
    pub echoed_bytes: u64,
    pub frames: u64,
    pub allocs: u64,
    pub peak_heap: usize,
    /// Simulated connect-to-verified-echo latency of each transaction.
    pub latencies_ns: Vec<u64>,
}

pub struct Rpc<S: BenchStack> {
    spec: RpcSpec,
    pub client: Host<S>,
    pub server: ShardedHost<S, EchoApp>,
    pub wire: Wire,
    pub now: Time,
    sizes: HeavyTailed,
    active: HashMap<S::ConnId, Txn>,
    next_index: u64,
    /// Slots whose connect failed, to be retried on the next step.
    owed: usize,
    /// Mirror of the shard front's batch deadline, to tell the
    /// `poll_transmit` call that flushes a round.
    server_batch: Option<Time>,
    idle_steps: u32,
    // Running totals.
    pub txns: u64,
    pub failed: u64,
    pub echoed_bytes: u64,
    pub flush_rounds: u64,
    latencies: Vec<u64>,
    pub counters: Counters,
    /// The client's bind/unbind sequence, for the DM replay; recorded
    /// only while tracing.
    pub table_ops: Vec<TableOp<S::ConnId>>,
    /// Connects made (successful ones).
    pub connects: u64,
    /// While capturing: when the capture began, and every transaction
    /// that both started and finished inside it (tuple, index, length).
    capture_start: Option<Time>,
    pub captured_txns: Vec<(FourTuple, u64, usize)>,
    /// Client stack counters when the capture began.
    pub stack_base: Counters,
    /// Built-system heap level, the base of the peak-heap figure.
    base_live: usize,
}

impl<S: BenchStack> Rpc<S> {
    /// Build the client host, the sharded server and the wire.
    pub fn build(spec: &RpcSpec) -> Rpc<S> {
        let base_live = alloc::live();
        let mut client = Host::new(S::build(CLIENT_ADDR), HostConfig::default());
        client.set_route(SERVER_ADDR, 0);
        let window = Dur::from_micros(50);
        let host_cfg = HostConfig {
            listen_port: PORT,
            backlog: 1024,
            batch_window: window,
            ..HostConfig::default()
        };
        let shard_cfg = ShardedConfig {
            shards: spec.shards,
            seed: spec.seed,
            batch_window: window,
            mode: Mode::Inline,
            ..ShardedConfig::default()
        };
        let server = ShardedHost::new(shard_cfg, move |_| {
            ServedHost::new(
                Host::new(S::build(SERVER_ADDR), host_cfg.clone()),
                EchoApp::default(),
            )
        });
        Rpc {
            spec: spec.clone(),
            client,
            server,
            wire: Wire::new(spec.delay, 0, spec.seed ^ 0x4C_0F),
            now: Time(1_000_000),
            sizes: HeavyTailed::new(spec.seed ^ 0x5EED_F10D, REQ_MIN, REQ_MAX),
            active: HashMap::with_capacity(spec.conns * 2),
            next_index: 0,
            owed: spec.conns,
            server_batch: None,
            idle_steps: 0,
            txns: 0,
            failed: 0,
            echoed_bytes: 0,
            flush_rounds: 0,
            latencies: Vec::with_capacity(1 << 16),
            counters: Counters::default(),
            table_ops: Vec::new(),
            connects: 0,
            capture_start: None,
            captured_txns: Vec::new(),
            stack_base: Counters::default(),
            base_live,
        }
    }

    /// Open connections for every owed slot.
    fn open(&mut self, tr: &mut Tracer) {
        let n = S::names();
        while self.owed > 0 {
            self.owed -= 1;
            let now = self.now;
            let client = &mut self.client;
            let remote = Endpoint::new(SERVER_ADDR, PORT);
            match tr.call(n.host_connect, || client.connect(now, remote)) {
                Ok(id) => {
                    self.connects += 1;
                    let index = self.next_index;
                    self.next_index += 1;
                    let len = self.sizes.size(index) as usize;
                    self.active.insert(
                        id,
                        Txn {
                            index,
                            started: now,
                            len,
                            echoed: 0,
                        },
                    );
                    if tr.on() {
                        if let Some(t) = self.client.stack().tuple_of(id) {
                            self.table_ops.push(TableOp::Bind(t, id));
                        }
                    }
                }
                Err(_) => {
                    // Refused or out of ports: a failed operation; the
                    // slot is retried on a later step.
                    self.failed += 1;
                    self.owed += 1;
                    return;
                }
            }
        }
    }

    /// The application: handle every pending client event. The
    /// `slhost.*.event` span covers only the calls into the host
    /// (`poll_event` and the `recv`/`send`/`close` it triggers), not the
    /// benchmark's own verification.
    fn dispatch(&mut self, pattern: &Pattern, tr: &mut Tracer) -> Result<usize, String> {
        let name = S::names().host_event;
        let mut handled = 0;
        let mut cost = HostCost::default();
        loop {
            let now = self.now;
            cost.start(tr.on());
            let ev = cost.time(|| self.client.poll_event());
            let Some(ev) = ev else { break };
            handled += 1;
            match ev {
                HostEvent::Writable(id) => {
                    if let Some(t) = self.active.get(&id) {
                        let req = request(pattern, t.index, t.len);
                        let took = cost.time(|| self.client.send(now, id, req));
                        if took < req.len() {
                            return Err(format!("short request write: {took} of {}", req.len()));
                        }
                    }
                }
                HostEvent::Readable(id) => {
                    let data = cost.time(|| self.client.recv(now, id));
                    if let Some(t) = self.active.get_mut(&id) {
                        let want = request(pattern, t.index, t.len);
                        if want.get(t.echoed..t.echoed + data.len()) != Some(&data[..]) {
                            return Err(format!("echo mismatch on transaction {}", t.index));
                        }
                        t.echoed += data.len();
                        if t.echoed == t.len {
                            let t = self.active.remove(&id).expect("transaction present");
                            self.latencies.push(now.since(t.started).0);
                            self.txns += 1;
                            self.echoed_bytes += t.len as u64;
                            if tr.on() {
                                self.counters.add(&self.client.stack().conn_counters(id));
                            }
                            if self.capture_start.is_some_and(|c| t.started >= c) {
                                if let Some(tuple) = self.client.stack().tuple_of(id) {
                                    self.captured_txns.push((tuple, t.index, t.len));
                                }
                            }
                            cost.time(|| self.client.close(now, id));
                            self.owed += 1;
                        }
                    }
                }
                HostEvent::PeerClosed(id) => {
                    if self.active.remove(&id).is_some() {
                        self.failed += 1;
                        self.owed += 1;
                    }
                }
                HostEvent::Error(id, _) => {
                    self.failed += 1;
                    if self.active.remove(&id).is_some() {
                        self.owed += 1;
                    }
                    if tr.on() {
                        self.table_ops.push(TableOp::Unbind(id));
                    }
                }
                HostEvent::Closed(id) => {
                    if tr.on() {
                        self.table_ops.push(TableOp::Unbind(id));
                    }
                }
                HostEvent::Accepted(_) => {}
            }
            cost.finish(tr, name);
        }
        self.open(tr);
        Ok(handled)
    }

    fn step(&mut self, pattern: &Pattern, tr: &mut Tracer) -> Result<(), String> {
        let n = S::names();
        // Client output, interleaved with the application reacting to
        // the events that servicing its input raised.
        loop {
            let now = self.now;
            loop {
                let c = &mut self.client;
                match tr.span(
                    n.host_poll_transmit,
                    || c.poll_transmit(now),
                    Option::is_some,
                ) {
                    Some((_, f)) => self.wire.send(A_TO_B, now, f),
                    None => break,
                }
            }
            if self.dispatch(pattern, tr)? == 0 {
                break;
            }
        }
        let now = self.now;
        loop {
            let flushing = self.server_batch.is_some_and(|d| d <= now);
            let name = if flushing {
                n.shard_flush
            } else {
                n.shard_poll_transmit
            };
            let s = &mut self.server;
            let out = tr.span(name, || s.poll_transmit(now), |_| true);
            if flushing {
                self.server_batch = None;
                self.flush_rounds += 1;
            }
            match out {
                Some((_, f)) => self.wire.send(B_TO_A, now, f),
                None => break,
            }
        }
        let (c, s) = (&self.client, &self.server);
        let dc = tr.call(n.host_poll_deadline, || c.poll_deadline(now));
        let ds = tr.call(n.shard_poll_deadline, || s.poll_deadline(now));
        let next = [self.wire.next_arrival(), dc, ds]
            .into_iter()
            .flatten()
            .min();
        let Some(next) = next else {
            return Err("no frame or timer pending".into());
        };
        if next > self.now {
            self.now = next;
            self.idle_steps = 0;
        } else {
            self.idle_steps += 1;
            if self.idle_steps > STALL_STEPS {
                return Err("simulated time stopped advancing".into());
            }
        }
        let now = self.now;
        while let Some((dir, f)) = self.wire.pop_due(now) {
            if dir == A_TO_B {
                let s = &mut self.server;
                tr.call(n.shard_on_frame, || s.on_frame(now, 0, &f));
                if self.server_batch.is_none() {
                    self.server_batch = Some(now + Dur::from_micros(50));
                }
            } else {
                let c = &mut self.client;
                tr.call(n.host_on_frame, || c.on_frame(now, 0, &f));
            }
            self.wire.recycle(now, dir, f);
        }
        if dc.is_some_and(|d| d <= now) {
            let c = &mut self.client;
            tr.call(n.host_on_tick, || c.on_tick(now));
        }
        if ds.is_some_and(|d| d <= now) {
            let s = &mut self.server;
            tr.call(n.shard_flush, || s.on_tick(now));
            self.server_batch = None;
            self.flush_rounds += 1;
        }
        self.dispatch(pattern, tr)?;
        Ok(())
    }

    /// Run untimed until simulated time reaches the warm-up horizon.
    pub fn warm_up(&mut self, pattern: &Pattern, tr: &mut Tracer) -> Result<(), String> {
        let end = Time(1_000_000) + self.spec.warmup;
        while self.now < end {
            self.step(pattern, tr)
                .map_err(|e| format!("{}: {e}", S::KIND.name()))?;
        }
        Ok(())
    }

    /// Run until `txns` more transactions complete.
    pub fn run_txns(
        &mut self,
        txns: u64,
        pattern: &Pattern,
        tr: &mut Tracer,
    ) -> Result<Phase, String> {
        let (t0, s0, f0, b0, w0) = (
            self.txns,
            self.now,
            self.failed,
            self.echoed_bytes,
            self.wire.sent,
        );
        self.latencies.clear();
        alloc::reset_peak();
        let a0 = alloc::allocs();
        let wall = Instant::now();
        while self.txns - t0 < txns {
            self.step(pattern, tr)
                .map_err(|e| format!("{}: {e}", S::KIND.name()))?;
            if self.failed - f0 > txns {
                return Err(format!("{} failed transactions", self.failed - f0));
            }
        }
        Ok(Phase {
            wall: wall.elapsed().as_secs_f64(),
            allocs: alloc::allocs() - a0,
            peak_heap: alloc::peak().saturating_sub(self.base_live),
            txns: self.txns - t0,
            failed: self.failed - f0,
            sim: self.now.since(s0),
            echoed_bytes: self.echoed_bytes - b0,
            frames: self.wire.sent - w0,
            latencies_ns: std::mem::take(&mut self.latencies),
        })
    }

    /// Turn frame capture on or off (delivered frames are kept while
    /// on); returns what was captured so far. Turning it on also restarts
    /// the per-layer counts, so they cover exactly the captured phase.
    pub fn capture(&mut self, on: bool) -> Vec<Captured> {
        if on {
            self.connects = 0;
            self.counters = Counters::default();
            self.stack_base = self.client.stack().stack_counters();
        }
        self.capture_start = on.then_some(self.now);
        std::mem::replace(&mut self.wire.capture, on.then(Vec::new)).unwrap_or_default()
    }

    /// The request bytes of transaction `index`.
    pub fn request<'p>(&self, pattern: &'p Pattern, index: u64, len: usize) -> &'p [u8] {
        request(pattern, index, len)
    }
}
