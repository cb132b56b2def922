//! Chaos campaigns: adversarial fault schedules soaked against both the
//! sublayered and the monolithic stack.
//!
//! Each campaign is `(fault profile, stack, seed)`. The runner drives a
//! bulk transfer while the schedule injects bursts, partitions, flaps,
//! throttling and jitter, then checks the robustness invariants the
//! chaos harness exists to enforce:
//!
//! 1. **terminal** — the run ends in eventual delivery *or* a clean,
//!    surfaced abort ([`netsim::TransportError`]); never a silent hang;
//! 2. **integrity** — every byte delivered is the right byte;
//! 3. **bounded retransmits** — the wire carries at most a small multiple
//!    of the ideal frame count;
//! 4. **no deadlock** — after an abort, no timer keeps the simulator
//!    spinning;
//! 5. **expectation** — profiles designed to kill the connection abort on
//!    *both* sides, profiles designed to be survivable deliver.
//!
//! Everything is driven by the deterministic simulator: the same seed
//! produces a byte-identical JSON summary, which CI exploits.

use netsim::{
    two_party, AdminOp, BurstLoss, Dur, FaultProfile, LinkParams, Time, TransportError,
};
use slconform::driver::{ConformStack, Kind};
use sublayer_core::SlTcpStack;
use tcp_mono::stack::{Keepalive, TcpStack};
use tcp_mono::wire::Endpoint;

use crate::campaign::{grid, Campaign};
use crate::{json, stack_mut, A, B};

/// How long (simulated) a campaign may run before we declare a hang.
const PATIENCE: Dur = Dur(600_000_000_000);
/// Application drain granularity.
const STEP: Dur = Dur(250_000_000);

/// The five adversarial fault profiles of the standard sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Gilbert–Elliott correlated burst loss.
    BurstLoss,
    /// Repeated short link outages on a slow link.
    FlappyLink,
    /// The link dies shortly after the transfer starts and never heals.
    Blackout,
    /// Bandwidth collapses to a trickle mid-transfer, plus jitter.
    ThrottleJitter,
    /// Loss + corruption + duplication + reordering + jitter at once.
    MixedMayhem,
}

impl ChaosProfile {
    pub fn all() -> [ChaosProfile; 5] {
        [
            ChaosProfile::BurstLoss,
            ChaosProfile::FlappyLink,
            ChaosProfile::Blackout,
            ChaosProfile::ThrottleJitter,
            ChaosProfile::MixedMayhem,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            ChaosProfile::BurstLoss => "burst-loss",
            ChaosProfile::FlappyLink => "flappy-link",
            ChaosProfile::Blackout => "blackout",
            ChaosProfile::ThrottleJitter => "throttle-jitter",
            ChaosProfile::MixedMayhem => "mixed-mayhem",
        }
    }

    /// Must this profile end in an abort (rather than delivery)?
    pub fn expect_abort(&self) -> bool {
        matches!(self, ChaosProfile::Blackout)
    }

    pub fn payload_len(&self) -> usize {
        match self {
            ChaosProfile::BurstLoss => 150_000,
            ChaosProfile::FlappyLink => 400_000,
            ChaosProfile::Blackout => 200_000,
            ChaosProfile::ThrottleJitter => 300_000,
            ChaosProfile::MixedMayhem => 150_000,
        }
    }

    pub fn link_params(&self) -> LinkParams {
        let base = LinkParams::delay_only(Dur::from_millis(10));
        match self {
            ChaosProfile::BurstLoss => base.with_rate(20_000_000).with_fault(
                FaultProfile::none().with_burst(BurstLoss::gilbert(0.02, 0.3, 0.9)),
            ),
            // Slow enough that the transfer spans several flap cycles.
            ChaosProfile::FlappyLink => base.with_rate(1_000_000),
            ChaosProfile::Blackout => base.with_rate(20_000_000),
            ChaosProfile::ThrottleJitter => base
                .with_rate(20_000_000)
                .with_fault(FaultProfile::none().with_jitter(Dur::from_millis(3))),
            ChaosProfile::MixedMayhem => base.with_rate(20_000_000).with_fault(
                FaultProfile::lossy(0.05)
                    .with_corrupt(0.02)
                    .with_duplicate(0.05)
                    .with_reorder(0.10, Dur::from_millis(15))
                    .with_jitter(Dur::from_millis(2)),
            ),
        }
    }

    /// The profile's admin-op schedule. The transfer is queued at t=1 s,
    /// so schedules begin shortly after.
    pub fn admin_ops(&self) -> Vec<(Time, AdminOp)> {
        let t = |ms: u64| Time::ZERO + Dur::from_millis(ms);
        match self {
            ChaosProfile::BurstLoss | ChaosProfile::MixedMayhem => Vec::new(),
            ChaosProfile::FlappyLink => {
                // 4 cycles of 2 s down / 2 s up starting at t=1.1 s.
                let mut ops = Vec::new();
                for i in 0..4u64 {
                    ops.push((t(1_100 + 4_000 * i), AdminOp::LinkDown(0)));
                    ops.push((t(3_100 + 4_000 * i), AdminOp::LinkUp(0)));
                }
                ops
            }
            ChaosProfile::Blackout => vec![(t(1_050), AdminOp::LinkDown(0))],
            ChaosProfile::ThrottleJitter => vec![
                (t(1_050), AdminOp::SetRate(0, 64_000)),
                (t(20_000), AdminOp::SetRate(0, 20_000_000)),
            ],
        }
    }
}

/// The stacks every chaos and attack sweep runs, in row order.
pub const STACKS: [Kind; 2] = [Kind::Mono, Kind::Sub];

/// One campaign's result plus any invariant violations.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    pub profile: &'static str,
    pub stack: &'static str,
    pub seed: u64,
    pub payload: usize,
    pub delivered: usize,
    pub complete: bool,
    pub client_error: Option<TransportError>,
    pub server_error: Option<TransportError>,
    pub sim_ms: u64,
    pub wire_frames: u64,
    pub partition_drops: u64,
    pub violations: Vec<String>,
}

impl CampaignOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run one `(profile, stack, seed)` campaign and judge its invariants.
pub fn run_campaign(profile: ChaosProfile, stack: Kind, seed: u64) -> CampaignOutcome {
    let payload: Vec<u8> = (0..profile.payload_len())
        .map(|i| (i % 251) as u8)
        .collect();
    let out = run_raw(
        stack,
        seed,
        &payload,
        profile.link_params(),
        &profile.admin_ops(),
        profile.name(),
    );
    judge(profile, out)
}

/// Run an arbitrary campaign (any payload, link, admin schedule) without
/// profile-expectation judging — the raw material for property tests.
/// Only the universal invariants (hang, integrity, bounded retransmits,
/// post-abort idleness) are checked.
pub fn run_raw(
    stack: Kind,
    seed: u64,
    payload: &[u8],
    params: LinkParams,
    ops: &[(Time, AdminOp)],
    name: &'static str,
) -> CampaignOutcome {
    match stack {
        Kind::Mono => run_t::<TcpStack>(seed, payload, params, ops, name),
        Kind::Sub => run_t::<SlTcpStack>(seed, payload, params, ops, name),
    }
}

/// Universal invariants, checked by every runner regardless of profile.
fn check_universal(out: &mut CampaignOutcome, idle: bool, got: &[u8], payload: &[u8]) {
    let aborted = out.client_error.is_some();
    if !out.complete && !aborted {
        out.violations
            .push("hung: neither delivered nor aborted within patience".into());
    }
    if got != &payload[..got.len().min(payload.len())] || got.len() > payload.len() {
        out.violations.push("integrity: delivered bytes differ".into());
    }
    let bound = (out.payload as u64 / 1_000) * 10 + 5_000;
    if out.wire_frames > bound {
        out.violations.push(format!(
            "unbounded retransmits: {} wire frames > {}",
            out.wire_frames, bound
        ));
    }
    if aborted && !out.complete && !idle {
        out.violations
            .push("deadlock: simulator still busy after abort".into());
    }
}

/// Profile-expectation judging on top of the universal checks.
fn judge(profile: ChaosProfile, mut out: CampaignOutcome) -> CampaignOutcome {
    if profile.expect_abort() {
        if out.complete {
            out.violations.push("expected abort but delivered".into());
        }
        if out.client_error.is_none() || out.server_error.is_none() {
            out.violations.push(format!(
                "expected surfaced aborts on both sides, got client={:?} server={:?}",
                out.client_error, out.server_error
            ));
        }
    } else if !out.complete {
        out.violations.push(format!(
            "expected delivery, got {}/{} (client={:?})",
            out.delivered, out.payload, out.client_error
        ));
    }
    out
}

/// Both endpoints run the campaigns' keepalive (10 s idle, then a probe
/// every 2 s, abort after 5 unanswered).
fn run_t<H: ConformStack>(
    seed: u64,
    payload: &[u8],
    params: LinkParams,
    ops: &[(Time, AdminOp)],
    name: &'static str,
) -> CampaignOutcome {
    let mut c = H::mk_with(A, "newreno", Some(Keepalive::default()));
    let mut s = H::mk_with(B, "newreno", Some(Keepalive::default()));
    s.listen(80);
    let conn = c.try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).expect("tuple free");
    let (mut net, nc, ns) = two_party(seed, c, s, params);
    for (at, op) in ops {
        net.schedule_admin(*at, op.clone());
    }
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(1));
    // The app streams: offer the unsent tail every tick, so a handshake
    // delayed past t=1s (or a full send buffer) only defers the data.
    let mut sent = stack_mut::<H>(&mut net, nc).send(conn, payload);
    net.poll_all();

    let deadline = net.now() + PATIENCE;
    let mut got: Vec<u8> = Vec::new();
    let mut sconn = None;
    while net.now() < deadline {
        let step = net.now() + STEP;
        net.run_until(step);
        if sent < payload.len() {
            sent += stack_mut::<H>(&mut net, nc).send(conn, &payload[sent..]);
        }
        {
            let st = stack_mut::<H>(&mut net, ns);
            if sconn.is_none() {
                sconn = st.established().first().copied();
            }
            if let Some(id) = sconn {
                got.extend(st.recv(id));
            }
        }
        net.poll_all();
        if got.len() >= payload.len() {
            break;
        }
        let client_dead = stack_mut::<H>(&mut net, nc).is_closed(conn);
        let server_dead = sconn.is_some_and(|id| stack_mut::<H>(&mut net, ns).is_closed(id));
        if client_dead && server_dead {
            break;
        }
    }

    let sim_ms = net.now().since(Time::ZERO).0 / 1_000_000;
    let complete = got.len() >= payload.len();
    if !complete {
        // Let the far side finish dying and the admin backlog drain; a
        // clean abort must leave nothing spinning afterwards.
        let settle = net.now() + Dur::from_secs(120);
        net.run_until(settle);
    }
    let idle = net.is_idle();
    let d0 = net.link_dir_stats(0, 0);
    let d1 = net.link_dir_stats(0, 1);
    let wire_frames = d0.tx_frames + d1.tx_frames;
    let partition_drops = d0.partition_drops + d1.partition_drops;
    let client_error = stack_mut::<H>(&mut net, nc).conn_error(conn);
    let server_error = sconn.and_then(|id| stack_mut::<H>(&mut net, ns).conn_error(id));
    let mut out = CampaignOutcome {
        profile: name,
        stack: H::KIND.label(),
        seed,
        payload: payload.len(),
        delivered: got.len(),
        complete,
        client_error,
        server_error,
        sim_ms,
        wire_frames,
        partition_drops,
        violations: Vec::new(),
    };
    check_universal(&mut out, idle, &got, payload);
    out
}

/// Run `profiles x stacks x seeds` and return every outcome in a fixed
/// order (profile-major, then stack, then seed).
pub fn run_sweep(
    profiles: &[ChaosProfile],
    stacks: &[Kind],
    seeds: &[u64],
) -> Vec<CampaignOutcome> {
    grid(profiles, stacks, seeds, run_campaign)
}

/// The standard sweep's profiles and seeds: all five profiles x five
/// seeds, or a 2-profile x 1-seed subset for `--smoke`.
fn matrix(smoke: bool) -> (Vec<ChaosProfile>, Vec<u64>) {
    if smoke {
        (vec![ChaosProfile::Blackout, ChaosProfile::MixedMayhem], vec![1])
    } else {
        (ChaosProfile::all().to_vec(), vec![1, 2, 3, 4, 5])
    }
}

/// E13: the standard sweep (`exp chaos`).
pub struct Chaos;

impl Campaign for Chaos {
    type Cell = CampaignOutcome;
    type Sweep = Vec<CampaignOutcome>;
    const NAME: &'static str = "chaos";

    fn title(&self, smoke: bool) -> String {
        let (profiles, seeds) = matrix(smoke);
        let names: Vec<&str> = profiles.iter().map(|p| p.name()).collect();
        format!(
            "# E-chaos — fault campaigns: {} runs\n\n\
             Profiles: {}. Seeds: {seeds:?}. Both stacks, keepalive 10s/2s/x5.",
            profiles.len() * STACKS.len() * seeds.len(),
            names.join(", ")
        )
    }

    fn sweep(&self, smoke: bool) -> Vec<CampaignOutcome> {
        let (profiles, seeds) = matrix(smoke);
        run_sweep(&profiles, &STACKS, &seeds)
    }

    fn violations<'a>(&self, o: &'a CampaignOutcome) -> &'a [String] {
        &o.violations
    }

    fn row_json(&self, o: &CampaignOutcome) -> String {
        json::Object::default()
            .str("profile", o.profile)
            .str("stack", o.stack)
            .field("seed", o.seed)
            .field("payload", o.payload)
            .field("delivered", o.delivered)
            .field("complete", o.complete)
            .field("client_error", json::err(o.client_error))
            .field("server_error", json::err(o.server_error))
            .field("sim_ms", o.sim_ms)
            .field("wire_frames", o.wire_frames)
            .field("partition_drops", o.partition_drops)
            .field("violations", json::str_list(&o.violations))
            .end()
    }

    fn headers(&self) -> &'static [&'static str] {
        &[
            "profile", "stack", "seed", "delivered", "client err", "server err", "sim s",
            "frames", "verdict",
        ]
    }

    fn row(&self, o: &CampaignOutcome) -> Vec<String> {
        vec![
            o.profile.to_string(),
            o.stack.to_string(),
            o.seed.to_string(),
            format!("{}/{}", o.delivered, o.payload),
            o.client_error.map_or("-".into(), |e| format!("{e:?}")),
            o.server_error.map_or("-".into(), |e| format!("{e:?}")),
            format!("{:.1}", o.sim_ms as f64 / 1000.0),
            o.wire_frames.to_string(),
            if o.ok() { "ok".into() } else { o.violations.join("; ") },
        ]
    }
}
