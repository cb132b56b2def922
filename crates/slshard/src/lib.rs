//! # slshard — an N-way sharded multi-core host with deterministic replay
//!
//! The paper's sublayered decomposition makes demultiplexing an explicitly
//! *stateless* sublayer: which connection (and therefore which shard) a
//! frame belongs to is a pure function of its 4-tuple. `slshard` exploits
//! exactly that property to scale [`slhost`] across cores:
//!
//! - **Routing** is the shared seeded fx 4-tuple hash
//!   ([`tcp_mono::hash::shard_of`]) — the same mix the demux tables use —
//!   so a tuple always lands on the same shard with no shared state.
//! - **Shards** are whole [`slhost::Host`]s (own connection table, timer
//!   wheel, [`slhost::ResourceBudget`], counters) running on real
//!   `std::thread` workers behind bounded SPSC [`ring`]s. The stacks are
//!   not `Send`, so each worker *constructs* its host from a `Send`
//!   factory; only frames and counters cross threads.
//! - **Determinism**: shards stamp emitted frames with a per-shard
//!   logical clock and the coordinator merges them with a stable
//!   shard-index tie-break ([`merge()`]). Commands reach each shard in FIFO
//!   ring order and replies are collected shard-by-shard, so the merged
//!   stream is a function of the command history, never of OS
//!   scheduling — threaded runs replay byte-identically, and identically
//!   to the single-threaded [`Mode::Inline`] reference.
//! - **Two-level degradation ladder**: each shard keeps its own byte
//!   budget (defer/shed/refuse, PR 4), and the coordinator sums shard
//!   occupancy against a *global* budget, pushing the resulting tier into
//!   every shard as a pressure **floor**
//!   ([`slhost::Host::set_pressure_floor`]) — one hot host degrades
//!   itself; a hot *fleet* degrades together.
//! - **Fault domains**: each worker runs under `catch_unwind`; a shard
//!   panic closes that shard's rings and surfaces as a typed
//!   [`ShardError`], never a coordinator panic. A [`Supervisor`] watches
//!   per-shard heartbeats in *logical rounds*, classifies shards
//!   Healthy/Stalled/Dead/Failed, and a [`RestartPolicy`] rebuilds dead
//!   shards from the factory with round-based backoff. Faults (panic at
//!   round R, stall K rounds, permanent wedge) inject deterministically
//!   via [`Cmd::Inject`] / [`ShardFaultPlan`], identically in both
//!   modes — crashed runs replay byte-for-byte.
//!
//! `slverify::ShardedOverload` proves budget-never-exceeded for this
//! shape per shard *and* globally, `slverify::ShardFail` proves
//! crash-isolation (one shard's death costs only its own connections);
//! `bench::shard` / `exp shard` sweep it to 100k+ connections and
//! `bench::failover` / `exp failover` measure blast radius and recovery.

pub mod fault;
pub mod merge;
pub mod ring;
pub mod shard;
pub mod supervisor;

pub use fault::{mute_injected_panics, FaultKind, FaultSpec, ShardFaultPlan};
pub use merge::{merge, reference_merge, Stamped};
pub use shard::{AppReport, Cmd, FlushRep, Rep, ShardCore, ShardError, ShardSnapshot, Worker};
pub use supervisor::{FaultEvent, FaultEventKind, RestartPolicy, ShardHealth, Supervisor};

use netsim::{Dur, MultiStack, PortId, Time};
use slhost::{HostApp, HostStack, ServedHost};
use slmetrics::{HostCounters, Pressure};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use tcp_mono::hash::shard_of;

/// Whether shards run on real threads or inline on the caller's thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Real `std::thread` workers behind SPSC rings.
    Threaded,
    /// Single-threaded reference: same cores, same command streams, same
    /// merge — the oracle the determinism tests compare against.
    Inline,
}

/// Coordinator tuning.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Seed for the routing hash (also a determinism input).
    pub seed: u64,
    /// Frames arriving within this window are flushed to shards as one
    /// round (the coordinator-level analogue of
    /// [`slhost::HostConfig::batch_window`]).
    pub batch_window: Dur,
    /// SPSC ring capacity per direction per shard.
    pub ring_cap: usize,
    /// Global byte budget across all shards; `0` disables the global
    /// ladder level. Occupancy is the sum of per-shard (throttled)
    /// samples; the derived tier is pushed to every shard as a pressure
    /// floor.
    pub global_budget: usize,
    pub mode: Mode,
    /// Supervision: heartbeat thresholds and restart budget/backoff.
    pub restart: RestartPolicy,
    /// Wall-clock bound on a frame send into a full command ring. In a
    /// healthy (or deterministically-faulted) run the workers always
    /// drain and this never fires; it exists so a *truly* stuck worker
    /// costs a counted, dropped frame instead of wedging the fleet.
    pub send_bound_ms: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            seed: 0x51AD,
            batch_window: Dur::ZERO,
            ring_cap: 1024,
            global_budget: 0,
            mode: Mode::Threaded,
            restart: RestartPolicy::default(),
            send_bound_ms: 250,
        }
    }
}

type Factory<S, A> = Arc<dyn Fn(u32) -> ServedHost<S, A> + Send + Sync>;

/// The sharded host front. Implements [`MultiStack`], so it drops into a
/// simulator topology exactly where a single [`slhost::Host`] would.
pub struct ShardedHost<S: HostStack, A: HostApp<S> + AppReport> {
    cfg: ShardedConfig,
    /// `None` = the shard is down (dead or failed); the supervisor knows
    /// which, and whether a rebuild is scheduled.
    slots: Vec<Option<Worker<S, A>>>,
    /// Kept for supervised restarts: dead shards are rebuilt from the
    /// same factory that booted them.
    factory: Factory<S, A>,
    sup: Supervisor,
    /// Coordinator logical clock: one per flush round. Heartbeats,
    /// backoff, and the fault log are all denominated in these.
    coord_round: u64,
    /// Learned peer-address → simulator-port routes (the coordinator owns
    /// routing; shards never see simulator ports).
    routes: HashMap<u32, PortId>,
    out: VecDeque<(PortId, Vec<u8>)>,
    batch_due: Option<Time>,
    /// Shards holding unflushed frames.
    dirty: Vec<bool>,
    /// Cached per-shard timer deadlines (refreshed with every reply, so
    /// `poll_deadline` is thread-free).
    deadlines: Vec<Option<Time>>,
    /// Last reported per-shard occupancy/conn gauges.
    used: Vec<u64>,
    conns: Vec<u64>,
    floor: Pressure,
    /// Frames routed per shard (router-side work-balance view).
    pub routed: Vec<u64>,
    /// Frames that failed classification (routed to shard 0).
    pub unclassified: u64,
}

impl<S: HostStack, A: HostApp<S> + AppReport> ShardedHost<S, A> {
    /// Build the fleet. `factory(i)` constructs shard `i`'s served host;
    /// in threaded mode it runs inside the worker thread (the host is not
    /// `Send`, the factory must be). The factory is retained: the
    /// supervisor rebuilds dead shards from it.
    pub fn new<F>(cfg: ShardedConfig, factory: F) -> Self
    where
        F: Fn(u32) -> ServedHost<S, A> + Send + Sync + 'static,
    {
        assert!(cfg.shards >= 1, "need at least one shard");
        let factory: Factory<S, A> = Arc::new(factory);
        let slots = (0..cfg.shards as u32)
            .map(|i| match cfg.mode {
                Mode::Threaded => {
                    let f = factory.clone();
                    Some(
                        Worker::spawn(i, cfg.ring_cap, 0, move || f(i))
                            .expect("spawn initial shard worker"),
                    )
                }
                Mode::Inline => Some(Worker::inline(i, 0, factory(i))),
            })
            .collect();
        let n = cfg.shards;
        let sup = Supervisor::new(n, cfg.restart);
        ShardedHost {
            cfg,
            slots,
            factory,
            sup,
            coord_round: 0,
            routes: HashMap::new(),
            out: VecDeque::new(),
            batch_due: None,
            dirty: vec![false; n],
            deadlines: vec![None; n],
            used: vec![0; n],
            conns: vec![0; n],
            floor: Pressure::Nominal,
            routed: vec![0; n],
            unclassified: 0,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.cfg.shards
    }

    /// The current global-ladder floor.
    pub fn global_floor(&self) -> Pressure {
        self.floor
    }

    /// Sum of the last per-shard occupancy samples (what the global
    /// budget tier is derived from). Dead shards contribute zero — their
    /// buffered bytes died with them.
    pub fn global_used(&self) -> u64 {
        self.used.iter().sum()
    }

    /// Supervisor state: health, heartbeat ages, restart counts, fault
    /// log, stall/abort gauges.
    pub fn supervisor(&self) -> &Supervisor {
        &self.sup
    }

    /// Health classification of one shard.
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.sup.health(shard)
    }

    /// Every crash/stall/restart event so far, in coordinator-round
    /// order — part of the deterministic transcript of a crashed run.
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.sup.events()
    }

    /// Arm a deterministic fault on one shard (fires when that shard's
    /// logical round reaches `spec.at_round`).
    pub fn inject(&mut self, shard: usize, spec: FaultSpec) -> Result<(), ShardError> {
        match self.slots[shard].as_mut() {
            Some(w) => w.send(Cmd::Inject(spec)),
            None => Err(ShardError::Disconnected),
        }
    }

    /// Arm a whole fault plan (ignores faults aimed at already-dead
    /// shards — consistent with "the plan is advice, death is death").
    pub fn apply_plan(&mut self, plan: &ShardFaultPlan) {
        for &(shard, spec) in &plan.faults {
            let i = shard as usize % self.cfg.shards;
            let _ = self.inject(i, spec);
        }
    }

    /// Which shard a raw frame routes to.
    pub fn route_of(&self, frame: &[u8]) -> usize {
        S::classify_frame(frame)
            .map(|m| shard_of(self.cfg.seed, &m.tuple_at_dst(), self.cfg.shards))
            .unwrap_or(0)
    }

    /// Pin a peer address to a simulator port (needed only for peers that
    /// have never sent us traffic).
    pub fn set_route(&mut self, addr: u32, port: PortId) {
        self.routes.insert(addr, port);
    }

    /// Tear down one shard: drop its worker (closing the rings; the drop
    /// joins unless the worker is truly wedged) and zero every cached
    /// gauge so the global ladder stops counting a ghost.
    fn kill_shard(&mut self, i: usize, kind: FaultEventKind) {
        self.slots[i] = None;
        let lost = self.conns[i];
        self.sup.died(i, self.coord_round, kind, lost);
        self.used[i] = 0;
        self.conns[i] = 0;
        self.deadlines[i] = None;
        self.dirty[i] = false;
    }

    /// Rebuild shards whose restart backoff has elapsed. The replacement
    /// starts its logical clock at the current coordinator round (stamps
    /// stay merge-ordered across the crash) and inherits the current
    /// global floor.
    fn run_restarts(&mut self, now: Time) {
        for i in 0..self.cfg.shards {
            if !self.sup.restart_due(i, self.coord_round) {
                continue;
            }
            let shard = i as u32;
            let start_round = self.coord_round;
            let built = match self.cfg.mode {
                Mode::Threaded => {
                    let f = self.factory.clone();
                    Worker::spawn(shard, self.cfg.ring_cap, start_round, move || f(shard)).ok()
                }
                Mode::Inline => Some(Worker::inline(shard, start_round, (self.factory)(shard))),
            };
            match built {
                Some(mut w) => {
                    if self.floor != Pressure::Nominal {
                        let _ = w.send(Cmd::SetFloor(now, self.floor));
                    }
                    self.slots[i] = Some(w);
                    self.sup.restarted(i, self.coord_round);
                }
                None => self.sup.gave_up(i, self.coord_round),
            }
        }
    }

    /// Snapshot every shard (barrier; shard-index order). Down shards
    /// yield a placeholder carrying only identity + supervision fields.
    pub fn snapshots(&mut self) -> Vec<ShardSnapshot> {
        let mut asked = vec![false; self.cfg.shards];
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(w) = slot {
                asked[i] = w.send(Cmd::Snapshot).is_ok();
            }
        }
        let mut snaps = Vec::with_capacity(self.cfg.shards);
        for (i, &was_asked) in asked.iter().enumerate() {
            let got = if was_asked {
                match self.slots[i].as_mut().map(|w| w.recv()) {
                    Some(Ok(Rep::Snap(s))) => Some(*s),
                    Some(Ok(Rep::Flushed(_))) => {
                        debug_assert!(false, "snapshot got a flush reply");
                        None
                    }
                    _ => None,
                }
            } else {
                None
            };
            let mut snap = match got {
                Some(s) => s,
                None => {
                    // The worker died between flush and snapshot.
                    if self.slots[i].is_some() {
                        self.kill_shard(i, FaultEventKind::Crashed);
                    }
                    ShardSnapshot { shard: i as u32, ..Default::default() }
                }
            };
            snap.health = self.sup.health(i).as_u8();
            snap.restarts = self.sup.restarts(i);
            snaps.push(snap);
        }
        snaps
    }

    /// Fleet-wide counters plus app totals: absorbs every shard's
    /// [`HostCounters`], sums the app report pairs, and overlays the
    /// supervisor's fleet-health gauges (heartbeat age, restarts,
    /// failover aborts, ring stalls).
    pub fn aggregate(&mut self) -> (HostCounters, u64, u64) {
        let mut total = HostCounters::default();
        let (mut a, mut b) = (0u64, 0u64);
        for snap in self.snapshots() {
            total.absorb(&snap.counters);
            a = a.saturating_add(snap.app_a);
            b = b.saturating_add(snap.app_b);
        }
        total.heartbeat_age = self.sup.max_heartbeat_age();
        total.shard_restarts = self.sup.total_restarts();
        total.failover_aborts = self.sup.failover_aborts;
        total.ring_stalls = self.sup.ring_stalls;
        (total, a, b)
    }

    /// One coordination round: flush dirty shards (and, on a tick, shards
    /// with due timers), barrier-collect replies in shard-index order,
    /// merge the stamped output deterministically, route it, run the
    /// global ladder, then supervise (classify heartbeats, kill wedges,
    /// run due restarts).
    fn flush_round(&mut self, now: Time, tick: bool) {
        self.coord_round += 1;
        let mut participating = Vec::new();
        for i in 0..self.cfg.shards {
            let timer_due = tick && self.deadlines[i].is_some_and(|d| now >= d);
            if !(self.dirty[i] || timer_due) {
                continue;
            }
            let cmd = if timer_due { Cmd::Tick(now) } else { Cmd::Flush(now) };
            match self.slots[i].as_mut() {
                Some(w) => match w.send(cmd) {
                    Ok(()) => participating.push(i),
                    Err(_) => self.kill_shard(i, FaultEventKind::Crashed),
                },
                None => {
                    self.dirty[i] = false;
                }
            }
        }
        // Barrier: replies collected in shard-index order. Workers run
        // concurrently between the send loop above and this collect loop;
        // the order we *read* them in is fixed.
        let mut batches = Vec::with_capacity(participating.len());
        let mut wedged = Vec::new();
        for &i in &participating {
            let rep = self.slots[i].as_mut().map(|w| w.recv());
            match rep {
                Some(Ok(Rep::Flushed(fr))) => {
                    self.deadlines[i] = fr.deadline;
                    self.used[i] = fr.used;
                    self.conns[i] = fr.conns;
                    if fr.stalled {
                        if self.sup.beat_stalled(i) {
                            wedged.push(i);
                        }
                    } else {
                        self.sup.beat_ok(i);
                    }
                    batches.push(fr.frames);
                }
                Some(Ok(Rep::Snap(_))) => {
                    debug_assert!(false, "flush got a snapshot reply");
                }
                _ => self.kill_shard(i, FaultEventKind::Crashed),
            }
            self.dirty[i] = false;
        }
        // A shard that acknowledged `dead_after` consecutive rounds
        // without servicing any is a wedge: kill it so the restart path
        // can replace it.
        for i in wedged {
            self.kill_shard(i, FaultEventKind::DeclaredDead);
        }
        for s in merge::merge(batches) {
            let port = S::classify_frame(&s.frame)
                .and_then(|m| self.routes.get(&m.dst.addr).copied())
                .unwrap_or(0);
            self.out.push_back((port, s.frame));
        }
        self.batch_due = None;
        if self.cfg.global_budget > 0 {
            let floor =
                Pressure::from_occupancy(self.global_used(), self.cfg.global_budget as u64);
            if floor != self.floor {
                self.floor = floor;
                for i in 0..self.cfg.shards {
                    if let Some(w) = self.slots[i].as_mut() {
                        if w.send(Cmd::SetFloor(now, floor)).is_err() {
                            self.kill_shard(i, FaultEventKind::Crashed);
                        }
                    }
                }
            }
        }
        self.run_restarts(now);
        // While a restart is pending, keep the round clock ticking even
        // if no traffic arrives: backoff is counted in rounds, and rounds
        // only happen when something schedules them.
        if self.sup.any_down() {
            let poll = if self.cfg.batch_window > Dur::ZERO {
                self.cfg.batch_window
            } else {
                Dur::from_micros(100)
            };
            self.batch_due = Some(now + poll);
        }
    }
}

impl<S: HostStack, A: HostApp<S> + AppReport> MultiStack for ShardedHost<S, A> {
    fn on_frame(&mut self, now: Time, port: PortId, frame: &[u8]) {
        let shard = match S::classify_frame(frame) {
            Some(meta) => {
                self.routes.insert(meta.src.addr, port);
                shard_of(self.cfg.seed, &meta.tuple_at_dst(), self.cfg.shards)
            }
            None => {
                self.unclassified = self.unclassified.saturating_add(1);
                0
            }
        };
        self.routed[shard] = self.routed[shard].saturating_add(1);
        let bound = Duration::from_millis(self.cfg.send_bound_ms);
        match self.slots[shard].as_mut() {
            Some(w) => match w.send_bounded(Cmd::Frame(now, frame.to_vec()), bound) {
                Ok(()) => self.dirty[shard] = true,
                Err(ShardError::Backlogged) => {
                    // Alive but jammed: drop the frame (TCP retransmit
                    // absorbs the loss) and count the stall instead of
                    // blocking the fleet.
                    self.sup.ring_stalls = self.sup.ring_stalls.saturating_add(1);
                }
                Err(ShardError::Disconnected) => {
                    self.kill_shard(shard, FaultEventKind::Crashed);
                    self.sup.dead_drops = self.sup.dead_drops.saturating_add(1);
                }
            },
            None => {
                // Dead shard: the frame has nowhere to go. Its peer will
                // retransmit; once the shard restarts, the fresh host
                // RSTs unknown tuples and the client reconnects (the
                // typed abort path).
                self.sup.dead_drops = self.sup.dead_drops.saturating_add(1);
            }
        }
        if self.batch_due.is_none() {
            self.batch_due = Some(now + self.cfg.batch_window);
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<(PortId, Vec<u8>)> {
        if self.out.is_empty() && self.batch_due.is_some_and(|due| now >= due) {
            self.flush_round(now, false);
        }
        self.out.pop_front()
    }

    fn poll_deadline(&self, _now: Time) -> Option<Time> {
        [self.batch_due]
            .into_iter()
            .chain(self.deadlines.iter().copied())
            .flatten()
            .min()
    }

    fn on_tick(&mut self, now: Time) {
        self.flush_round(now, true);
    }
}
