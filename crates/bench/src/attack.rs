//! E14 — adversarial-peer robustness campaigns.
//!
//! A deterministic man-in-the-middle ([`netsim::Attacker`]) sits between a
//! legitimate client and server and forges RSTs/SYNs/data at a configured
//! sequence-guessing skill, replays frames, fuzzily mutates wire bytes and
//! mounts spoofed-source SYN floods. Each `(profile, stack, seed)` run
//! judges the RFC 5961-shaped invariants:
//!
//! * **liveness** — below the attacker's sequence-knowledge threshold the
//!   legitimate transfer still completes, with byte-exact integrity;
//! * **no spurious death** — a blind or merely in-window RST/SYN must not
//!   kill an established connection (in-window suspicion is answered with
//!   a challenge ACK instead);
//! * **bounded memory** — half-open connections never exceed
//!   `MAX_HALF_OPEN` and buffered bytes stay under the send/receive caps,
//!   so a flood degrades throughput, not memory;
//! * **honesty about the threshold** — an *exact*-sequence attacker (the
//!   oracle profile) is indistinguishable from the real peer, so there the
//!   connection is *expected* to die and the abort must be surfaced.
//!
//! Both stacks face the byte-identical attacker (same skill, same RNG
//! stream); only the [`netsim::AttackCodec`] differs, which is exactly the
//! like-for-like comparison experiment E14 reports.

use netsim::{
    AttackCodec, AttackConfig, Attacker, DetRng, Dur, LinkParams, SeqKnowledge, SimNet,
    SnoopInfo, StackNode, Time, TransportError,
};
use slconform::driver::{ConformStack, Kind};
use slmetrics::AttackCounters;
use sublayer_core::wire::{CmFlags, CmHeader, DmHeader, OsrHeader, Packet, RdHeader};
use sublayer_core::SlTcpStack;
use tcp_mono::stack::{Keepalive, TcpStack};
use tcp_mono::wire::{Endpoint, Segment, ACK, RST, SYN};

use crate::campaign::{grid, Campaign};
use crate::chaos::STACKS;
use crate::{json, stack_mut, A, B};

/// Wall-clock (simulated) patience before declaring a run hung.
const PATIENCE: Dur = Dur(600_000_000_000);
/// Polling cadence of the application driver loop.
const STEP: Dur = Dur(250_000_000);
/// Bytes the legitimate flow transfers under attack.
const PAYLOAD_LEN: usize = 120_000;
/// Buffered-bytes ceiling per endpoint: the send-buffer cap plus receive
/// reassembly caps plus slack. Both stacks use a 1 MiB send cap and
/// ~64 KiB receive-side caps.
const MEM_BOUND: usize = (1 << 20) + (128 << 10);

fn t(ms: u64) -> Time {
    Time::ZERO + Dur::from_millis(ms)
}

// ---------------------------------------------------------------------------
// Codecs: per-stack wire knowledge for the protocol-agnostic attacker.
// ---------------------------------------------------------------------------

/// [`AttackCodec`] for the monolithic RFC 793 stack.
pub struct MonoCodec;

impl AttackCodec for MonoCodec {
    fn snoop(&self, frame: &[u8]) -> Option<SnoopInfo> {
        let seg = Segment::decode(frame).ok()?;
        Some(SnoopInfo {
            src_addr: seg.src.addr,
            src_port: seg.src.port,
            dst_addr: seg.dst.addr,
            dst_port: seg.dst.port,
            next_seq: seg.seq.wrapping_add(seg.seq_len()),
            syn: seg.syn(),
            rst: seg.rst(),
        })
    }

    fn forge_rst(&self, flow: &SnoopInfo, seq: u32) -> Vec<u8> {
        Segment {
            src: Endpoint::new(flow.src_addr, flow.src_port),
            dst: Endpoint::new(flow.dst_addr, flow.dst_port),
            seq,
            ack: 0,
            flags: RST,
            wnd: 0,
            mss: None,
            payload: Vec::new(),
        }
        .encode()
    }

    fn forge_syn(&self, flow: &SnoopInfo, isn: u32) -> Vec<u8> {
        Segment {
            src: Endpoint::new(flow.src_addr, flow.src_port),
            dst: Endpoint::new(flow.dst_addr, flow.dst_port),
            seq: isn,
            ack: 0,
            flags: SYN,
            wnd: u16::MAX,
            mss: Some(1400),
            payload: Vec::new(),
        }
        .encode()
    }

    fn forge_data(&self, flow: &SnoopInfo, seq: u32, payload: &[u8]) -> Vec<u8> {
        Segment {
            src: Endpoint::new(flow.src_addr, flow.src_port),
            dst: Endpoint::new(flow.dst_addr, flow.dst_port),
            seq,
            ack: 0,
            flags: ACK,
            wnd: u16::MAX,
            mss: None,
            payload: payload.to_vec(),
        }
        .encode()
    }

    fn forge_syn_to(
        &self,
        src_addr: u32,
        src_port: u16,
        dst_addr: u32,
        dst_port: u16,
        isn: u32,
    ) -> Vec<u8> {
        Segment {
            src: Endpoint::new(src_addr, src_port),
            dst: Endpoint::new(dst_addr, dst_port),
            seq: isn,
            ack: 0,
            flags: SYN,
            wnd: u16::MAX,
            mss: Some(1400),
            payload: Vec::new(),
        }
        .encode()
    }
}

/// [`AttackCodec`] for the sublayered native stack.
pub struct SubCodec;

impl SubCodec {
    fn base(src_addr: u32, src_port: u16, dst_addr: u32, dst_port: u16) -> Packet {
        Packet {
            src_addr,
            dst_addr,
            dm: DmHeader { src_port, dst_port },
            cm: CmHeader::default(),
            rd: RdHeader::default(),
            // An honest window so a forged (then discarded) header can
            // never zero-window-poison the victim's flow control.
            osr: OsrHeader { ecn_echo: false, rcv_wnd: u16::MAX },
            payload: Vec::new(),
        }
    }
}

impl AttackCodec for SubCodec {
    fn snoop(&self, frame: &[u8]) -> Option<SnoopInfo> {
        let pkt = Packet::decode(frame).ok()?;
        // A SYN's successor in the receiver's RD space is isn + 1; data
        // advances by its payload length.
        let next_seq = if pkt.cm.flags.syn {
            pkt.cm.isn.wrapping_add(1)
        } else {
            pkt.rd.seq.wrapping_add(pkt.payload.len() as u32)
        };
        Some(SnoopInfo {
            src_addr: pkt.src_addr,
            src_port: pkt.dm.src_port,
            dst_addr: pkt.dst_addr,
            dst_port: pkt.dm.dst_port,
            next_seq,
            syn: pkt.cm.flags.syn,
            rst: pkt.cm.flags.rst,
        })
    }

    fn forge_rst(&self, flow: &SnoopInfo, seq: u32) -> Vec<u8> {
        let mut p = SubCodec::base(flow.src_addr, flow.src_port, flow.dst_addr, flow.dst_port);
        p.cm.flags = CmFlags { rst: true, ..CmFlags::default() };
        p.rd.seq = seq;
        p.encode()
    }

    fn forge_syn(&self, flow: &SnoopInfo, isn: u32) -> Vec<u8> {
        let mut p = SubCodec::base(flow.src_addr, flow.src_port, flow.dst_addr, flow.dst_port);
        p.cm.flags = CmFlags { syn: true, ..CmFlags::default() };
        p.cm.isn = isn;
        p.encode()
    }

    fn forge_data(&self, flow: &SnoopInfo, seq: u32, payload: &[u8]) -> Vec<u8> {
        let mut p = SubCodec::base(flow.src_addr, flow.src_port, flow.dst_addr, flow.dst_port);
        p.rd.seq = seq;
        p.payload = payload.to_vec();
        p.encode()
    }

    fn forge_syn_to(
        &self,
        src_addr: u32,
        src_port: u16,
        dst_addr: u32,
        dst_port: u16,
        isn: u32,
    ) -> Vec<u8> {
        let mut p = SubCodec::base(src_addr, src_port, dst_addr, dst_port);
        p.cm.flags = CmFlags { syn: true, ..CmFlags::default() };
        p.cm.isn = isn;
        p.encode()
    }
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// One adversarial scenario (what the attacker does, and at what skill).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackProfile {
    /// Honest bridge — sanity reference; nothing is forged.
    Baseline,
    /// Blind RST injection: random 32-bit sequences, mostly out of window.
    BlindRst,
    /// In-window RST injection: the classic blind-guessing attacker that
    /// RFC 5961's challenge ACK exists for.
    InWindowRst,
    /// Oracle RST: exact next-sequence knowledge. Defenses are *expected*
    /// to fail — this profile proves the harness isn't rigged.
    OracleRst,
    /// Stray SYNs injected into the established flow.
    SynInject,
    /// Blind data injection: random payloads at random sequences.
    DataInject,
    /// Spoofed-source SYN flood against the listener.
    SynFlood,
    /// Verbatim duplicate replay of legitimate frames.
    Replay,
    /// Fuzzy mutation: a forwarded frame has one bit flipped, checksum
    /// not re-sealed — a decoder-robustness probe.
    Mutate,
}

impl AttackProfile {
    pub fn all() -> [AttackProfile; 9] {
        [
            AttackProfile::Baseline,
            AttackProfile::BlindRst,
            AttackProfile::InWindowRst,
            AttackProfile::OracleRst,
            AttackProfile::SynInject,
            AttackProfile::DataInject,
            AttackProfile::SynFlood,
            AttackProfile::Replay,
            AttackProfile::Mutate,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            AttackProfile::Baseline => "baseline",
            AttackProfile::BlindRst => "blind_rst",
            AttackProfile::InWindowRst => "inwindow_rst",
            AttackProfile::OracleRst => "oracle_rst",
            AttackProfile::SynInject => "syn_inject",
            AttackProfile::DataInject => "data_inject",
            AttackProfile::SynFlood => "syn_flood",
            AttackProfile::Replay => "replay",
            AttackProfile::Mutate => "mutate",
        }
    }

    /// The attacker's schedule and skill for this profile.
    pub fn attack_config(&self) -> AttackConfig {
        let mut cfg = AttackConfig::default();
        match self {
            AttackProfile::Baseline => {}
            AttackProfile::BlindRst => cfg.rst_rate = 0.25,
            AttackProfile::InWindowRst => {
                cfg.knowledge = SeqKnowledge::InWindow;
                cfg.rst_rate = 0.25;
            }
            AttackProfile::OracleRst => {
                cfg.knowledge = SeqKnowledge::Exact;
                cfg.rst_rate = 0.25;
                // Let the legitimate connection establish first, so the
                // kill demonstrably lands on an *established* flow.
                cfg.start = t(500);
            }
            AttackProfile::SynInject => cfg.syn_rate = 0.25,
            AttackProfile::DataInject => cfg.data_rate = 0.25,
            AttackProfile::SynFlood => {
                cfg.flood_syns = 8;
                cfg.flood_interval = Dur::from_millis(50);
                cfg.stop = Some(t(60_000));
            }
            AttackProfile::Replay => cfg.replay_rate = 0.3,
            AttackProfile::Mutate => cfg.mutate_rate = 0.08,
        }
        cfg
    }

    /// Is the attacker above the sequence-knowledge threshold, i.e. is
    /// connection death the *expected* outcome?
    pub fn expect_reset(&self) -> bool {
        matches!(self, AttackProfile::OracleRst)
    }

    /// Must the defense visibly engage (challenge ACKs observed)?
    pub fn require_challenges(&self) -> bool {
        matches!(self, AttackProfile::InWindowRst | AttackProfile::SynInject)
    }

    /// Must the flood fallback visibly engage (cookies or evictions)?
    pub fn require_flood_fallback(&self) -> bool {
        matches!(self, AttackProfile::SynFlood)
    }

    /// Must the hardened decoder visibly engage (bad frames rejected)?
    pub fn require_bad_frames(&self) -> bool {
        matches!(self, AttackProfile::Mutate)
    }
}

// ---------------------------------------------------------------------------
// Outcome + judging
// ---------------------------------------------------------------------------

/// One campaign's result plus any invariant violations.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
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
    /// Peak simultaneous half-open connections observed on the server.
    pub max_half_open: usize,
    /// Peak buffered bytes observed on either endpoint.
    pub max_buffered: usize,
    pub counters: AttackCounters,
    pub violations: Vec<String>,
}

impl AttackOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Invariants every run must satisfy, plus the profile's expectations.
fn judge(profile: AttackProfile, mut out: AttackOutcome, got: &[u8], payload: &[u8]) -> AttackOutcome {
    // Integrity: whatever was delivered is a prefix of what was sent.
    if got != &payload[..got.len().min(payload.len())] || got.len() > payload.len() {
        out.violations.push("integrity: delivered bytes differ".into());
    }
    // Bounded memory, always.
    if out.max_buffered > MEM_BOUND {
        out.violations.push(format!(
            "memory: {} buffered bytes > bound {}",
            out.max_buffered, MEM_BOUND
        ));
    }
    if out.max_half_open > tcp_mono::stack::MAX_HALF_OPEN {
        out.violations.push(format!(
            "half-open queue grew to {} > {}",
            out.max_half_open,
            tcp_mono::stack::MAX_HALF_OPEN
        ));
    }
    if profile.expect_reset() {
        // Above the knowledge threshold: the kill must land and surface.
        if out.complete {
            out.violations.push("oracle attacker failed to kill the flow".into());
        }
        if out.client_error.is_none() && out.server_error.is_none() {
            out.violations.push("reset not surfaced to either application".into());
        }
    } else {
        // Below the threshold: liveness — the legitimate flow completes
        // and nobody died spuriously.
        if !out.complete {
            out.violations.push(format!(
                "expected delivery, got {}/{} (client={:?} server={:?})",
                out.delivered, out.payload, out.client_error, out.server_error
            ));
        }
        if out.client_error.is_some() || out.server_error.is_some() {
            out.violations.push(format!(
                "spurious connection death: client={:?} server={:?}",
                out.client_error, out.server_error
            ));
        }
    }
    if profile.require_challenges() && out.counters.challenge_acks == 0 {
        out.violations.push("defense silent: no challenge ACKs issued".into());
    }
    if profile.require_flood_fallback()
        && out.counters.syn_cookies_sent == 0
        && out.counters.half_open_evictions == 0
    {
        out.violations.push("flood fallback silent: no cookies or evictions".into());
    }
    if profile.require_bad_frames() && out.counters.bad_frames_rejected == 0 {
        out.violations.push("decoder silent: no mutated frames rejected".into());
    }
    out
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

fn link() -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(5))
}

/// The attacker's wire knowledge for stack `kind`.
fn codec(kind: Kind) -> Box<dyn AttackCodec> {
    match kind {
        Kind::Mono => Box::new(MonoCodec),
        Kind::Sub => Box::new(SubCodec),
    }
}

/// Run one `(profile, stack, seed)` campaign and judge its invariants.
pub fn run_campaign(profile: AttackProfile, stack: Kind, seed: u64) -> AttackOutcome {
    let payload: Vec<u8> = (0..PAYLOAD_LEN).map(|i| (i % 251) as u8).collect();
    match stack {
        Kind::Mono => run_t::<TcpStack>(profile, seed, &payload),
        Kind::Sub => run_t::<SlTcpStack>(profile, seed, &payload),
    }
}

/// Both endpoints run the campaigns' keepalive (10 s / 2 s / x5).
fn run_t<H: ConformStack>(profile: AttackProfile, seed: u64, payload: &[u8]) -> AttackOutcome {
    let mut c = H::mk_with(A, "newreno", Some(Keepalive::default()));
    let mut s = H::mk_with(B, "newreno", Some(Keepalive::default()));
    s.listen(80);
    let conn = c.try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).expect("tuple free");

    let mut net = SimNet::new(seed);
    let nc = net.add_node(Box::new(StackNode::new(c)));
    let na = net.add_node(Box::new(Attacker::new(
        codec(H::KIND),
        profile.attack_config(),
        DetRng::new(seed ^ 0xA77A_C4E5),
    )));
    let ns = net.add_node(Box::new(StackNode::new(s)));
    net.connect(nc, 0, na, 0, link());
    net.connect(na, 1, ns, 0, link());

    net.poll_all();
    net.run_until(t(1_000));
    let mut sent = stack_mut::<H>(&mut net, nc).send(conn, payload);
    net.poll_all();

    let deadline = net.now() + PATIENCE;
    let mut got: Vec<u8> = Vec::new();
    let mut sconn = None;
    let mut max_half_open = 0usize;
    let mut max_buffered = 0usize;
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
            max_half_open = max_half_open.max(st.half_open_count());
            max_buffered = max_buffered.max(st.buffered_bytes());
        }
        max_buffered = max_buffered.max(stack_mut::<H>(&mut net, nc).buffered_bytes());
        net.poll_all();
        if got.len() >= payload.len() {
            break;
        }
        let client_dead = stack_mut::<H>(&mut net, nc).is_closed(conn);
        // No established server connection left (it may have been reset and
        // reaped before we ever saw it) counts as a dead server side.
        let st = stack_mut::<H>(&mut net, ns);
        let server_dead = match sconn {
            Some(id) => st.is_closed(id),
            None => st.established().is_empty(),
        };
        if client_dead && server_dead {
            break;
        }
    }

    let sim_ms = net.now().since(Time::ZERO).0 / 1_000_000;
    let complete = got.len() >= payload.len();
    if !complete {
        net.run_until(net.now() + Dur::from_secs(120));
    }
    let d0 = net.link_dir_stats(0, 0);
    let d1 = net.link_dir_stats(0, 1);
    let e0 = net.link_dir_stats(1, 0);
    let e1 = net.link_dir_stats(1, 1);
    let wire_frames = d0.tx_frames + d1.tx_frames + e0.tx_frames + e1.tx_frames;
    let client_error = stack_mut::<H>(&mut net, nc).conn_error(conn);
    let server_error = sconn.and_then(|id| stack_mut::<H>(&mut net, ns).conn_error(id));

    let mut counters = AttackCounters {
        forged_segments: net.node::<Attacker>(na).stats.forged_total(),
        ..AttackCounters::default()
    };
    counters.absorb(&stack_mut::<H>(&mut net, nc).attack_counters(Some(conn)));
    counters.absorb(&stack_mut::<H>(&mut net, ns).attack_counters(sconn));

    let out = AttackOutcome {
        profile: profile.name(),
        stack: H::KIND.label(),
        seed,
        payload: payload.len(),
        delivered: got.len(),
        complete,
        client_error,
        server_error,
        sim_ms,
        wire_frames,
        max_half_open,
        max_buffered,
        counters,
        violations: Vec::new(),
    };
    judge(profile, out, &got, payload)
}

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

/// The standard sweep's profiles and seeds: all nine profiles x three
/// seeds, or a 3-profile x 1-seed subset for `--smoke`.
fn matrix(smoke: bool) -> (Vec<AttackProfile>, Vec<u64>) {
    if smoke {
        (
            vec![AttackProfile::InWindowRst, AttackProfile::OracleRst, AttackProfile::SynFlood],
            vec![1],
        )
    } else {
        (AttackProfile::all().to_vec(), vec![1, 2, 3])
    }
}

/// E14: the standard sweep (`exp attack`).
pub struct Attack;

impl Campaign for Attack {
    type Cell = AttackOutcome;
    type Sweep = Vec<AttackOutcome>;
    const NAME: &'static str = "attack";

    fn title(&self, smoke: bool) -> String {
        let (profiles, seeds) = matrix(smoke);
        let names: Vec<&str> = profiles.iter().map(|p| p.name()).collect();
        format!(
            "# E14 — adversarial robustness: {} runs\n\n\
             Profiles: {}. Seeds: {seeds:?}. Both stacks behind the same attacker.",
            profiles.len() * STACKS.len() * seeds.len(),
            names.join(", ")
        )
    }

    fn sweep(&self, smoke: bool) -> Vec<AttackOutcome> {
        let (profiles, seeds) = matrix(smoke);
        grid(&profiles, &STACKS, &seeds, run_campaign)
    }

    fn violations<'a>(&self, o: &'a AttackOutcome) -> &'a [String] {
        &o.violations
    }

    fn row_json(&self, o: &AttackOutcome) -> String {
        let c = &o.counters;
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
            .field("max_half_open", o.max_half_open)
            .field("max_buffered", o.max_buffered)
            .field("forged_segments", c.forged_segments)
            .field("challenge_acks", c.challenge_acks)
            .field("syn_cookies_sent", c.syn_cookies_sent)
            .field("syn_cookies_validated", c.syn_cookies_validated)
            .field("half_open_evictions", c.half_open_evictions)
            .field("bad_frames_rejected", c.bad_frames_rejected)
            .field("overflow_drops", c.overflow_drops)
            .field("invalid_seq_drops", c.invalid_seq_drops)
            .field("violations", json::str_list(&o.violations))
            .end()
    }

    fn headers(&self) -> &'static [&'static str] {
        &[
            "profile", "stack", "seed", "delivered", "client err", "forged", "challenges",
            "cookies s/v", "half-open", "bad frames", "verdict",
        ]
    }

    fn row(&self, o: &AttackOutcome) -> Vec<String> {
        let c = &o.counters;
        vec![
            o.profile.to_string(),
            o.stack.to_string(),
            o.seed.to_string(),
            format!("{}/{}", o.delivered, o.payload),
            o.client_error.map_or("-".into(), |e| format!("{e:?}")),
            c.forged_segments.to_string(),
            c.challenge_acks.to_string(),
            format!("{}/{}", c.syn_cookies_sent, c.syn_cookies_validated),
            o.max_half_open.to_string(),
            c.bad_frames_rejected.to_string(),
            if o.ok() { "ok".into() } else { o.violations.join("; ") },
        ]
    }
}
