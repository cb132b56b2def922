//! The sublayered TCP stack: DM < CM < RD < OSR, composed.
//!
//! This module is deliberately thin: it *wires* the four sublayers
//! together along the narrow interfaces of test **T2** and contains no
//! protocol logic of its own. Every inter-sublayer crossing is counted in
//! [`CrossingStats`] — the quantity the hardware-offload experiment (E10)
//! studies, since a NIC/host partition pays for exactly these crossings.
//!
//! Contrast with `tcp-mono`: there one function mutates one PCB; here each
//! sublayer's state is a private Rust struct, so test **T3** (separate
//! state) is enforced by the compiler, and the entanglement instrumentation
//! (experiment E6) shows zero cross-sublayer field sharing.

use crate::cc;
use crate::cm::{CmEvent, CmPass, CmScheme, CmState, ConnMgmt};
use crate::dm::{ConnId, Demux, DmVerdict};
use crate::isn::{self, IsnGenerator};
use crate::osr::Osr;
use crate::rd::{RdEvent, ReliableDelivery};
use crate::signals::SeqValidity;
use crate::wire::Packet;
use netsim::{Dur, FrameMeta, HostStack, Stack, Time, TransportError};
use slmetrics::{AttackCounters, Pressure, SharedLog};
use std::collections::{HashMap, VecDeque};
use tcp_mono::wire::{Endpoint, FourTuple};
use tcp_mono::Keepalive;

/// Stack configuration: which mechanism fills each replaceable slot.
#[derive(Clone, Debug)]
pub struct SlConfig {
    pub cm_scheme: CmScheme,
    /// Rate controller name (see [`crate::cc::make`]).
    pub cc: &'static str,
    /// ISN generator name (see [`crate::isn::make`]).
    pub isn: &'static str,
    /// Advertise SACK ranges from RD's out-of-order set (ablation knob for
    /// the design choice DESIGN.md calls out; SACK is RD-private either
    /// way).
    pub use_sack: bool,
    /// Idle keepalive probing (the policy type both stacks share); `None`
    /// (the default) disables it.
    pub keepalive: Option<Keepalive>,
    /// Connection-table capacity: beyond it, passive opens are refused
    /// with a stateless RST and active opens fail with
    /// [`TransportError::ConnTableFull`].
    pub max_conns: usize,
}

impl Default for SlConfig {
    fn default() -> Self {
        SlConfig {
            cm_scheme: CmScheme::ThreeWay,
            cc: "newreno",
            isn: "clock",
            use_sack: true,
            keepalive: None,
            max_conns: 16384,
        }
    }
}

/// Counts of values crossing each sublayer boundary (experiment E10).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrossingStats {
    /// Segments OSR handed down to RD (and their bytes).
    pub osr_to_rd_segments: u64,
    pub osr_to_rd_bytes: u64,
    /// Delivered events RD handed up to OSR.
    pub rd_to_osr_segments: u64,
    pub rd_to_osr_bytes: u64,
    /// Summarized congestion signals RD -> OSR.
    pub signals_up: u64,
    /// Packets crossing RD/CM (all packets pass both).
    pub packets_tx: u64,
    pub packets_rx: u64,
    /// Wire bytes through DM.
    pub wire_bytes_tx: u64,
    pub wire_bytes_rx: u64,
}

struct Connection {
    cm: ConnMgmt,
    rd: Option<ReliableDelivery>,
    osr: Osr,
    want_close: bool,
    fin_routed: bool,
    /// Reported state before removal, for post-mortem queries.
    dead: bool,
    /// Last inbound packet (keepalive bookkeeping).
    last_rx: Time,
    /// Keepalive probes sent since `last_rx`.
    ka_probes: u32,
}

impl Connection {
    fn new(cm: ConnMgmt, osr: Osr, now: Time) -> Connection {
        Connection {
            cm,
            rd: None,
            osr,
            want_close: false,
            fin_routed: false,
            dead: false,
            last_rx: now,
            ka_probes: 0,
        }
    }
}

/// Aggregate stack statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlStats {
    pub packets_sent: u64,
    pub packets_received: u64,
    pub bad_packets: u64,
    pub no_listener_drops: u64,
    /// RFC 5961 challenge ACKs accumulated from *reaped* connections;
    /// [`SlTcpStack::challenge_acks`] adds the live ones.
    pub challenge_acks: u64,
    /// Stateless SYN|ACKs sent because the half-open queue was full.
    pub syn_cookies_sent: u64,
    /// Connections rebuilt from a returning valid cookie.
    pub syn_cookies_validated: u64,
    /// Stale half-open connections evicted to admit a fresh SYN.
    pub half_open_evictions: u64,
    /// Stateless RSTs sent for packets addressed to no connection.
    pub stateless_rsts_sent: u64,
    /// Inbound flows refused because the connection table was full.
    pub conn_table_full_drops: u64,
    /// Inbound flows refused because DM's accept gate was closed (host
    /// memory pressure or drain).
    pub pressure_refusals: u64,
}

/// Bound on simultaneously half-open (`SynRcvd`) passive connections;
/// beyond it a flood is absorbed by eviction or SYN cookies, never by
/// unbounded state.
pub const MAX_HALF_OPEN: usize = 16;
/// A half-open connection idle this long (one SYN-RTO) is stale enough to
/// evict in favor of a fresh SYN.
const HALF_OPEN_EVICT_AGE: Dur = Dur(1_000_000_000);

/// A sublayered TCP endpoint (host).
pub struct SlTcpStack {
    dm: Demux,
    conns: HashMap<ConnId, Connection>,
    isn_gen: Box<dyn IsnGenerator>,
    config: SlConfig,
    /// The configured rate controller, validated once at construction and
    /// cloned into each new connection's OSR — so a bad controller name is
    /// a typed error before any packet moves, never a panic mid-connect.
    cc_template: Box<dyn cc::RateController>,
    /// Terminal failures, surviving connection removal so the application
    /// can learn *why* a connection died (graceful degradation: an abort
    /// is always reported, never a silent hang).
    errors: HashMap<ConnId, TransportError>,
    outbox: VecDeque<Vec<u8>>,
    /// Host memory pressure, fanned out to each sublayer's slice of the
    /// backpressure contract (OSR window clamp, RD ack pacing, DM accept
    /// gate) — one explicit signal down the sublayer column, no shared
    /// state.
    pressure: Pressure,
    /// Host-requested accept gate (drain/quiesce), OR-ed with the
    /// pressure-derived gate before reaching DM.
    gate: bool,
    pub stats: SlStats,
    pub crossings: CrossingStats,
    log: SharedLog,
}

impl SlTcpStack {
    /// Construct with a known-good static config; panics if the config
    /// names an unknown controller. Input-driven configs should use
    /// [`SlTcpStack::try_new`].
    pub fn new(addr: u32, config: SlConfig, log: SharedLog) -> SlTcpStack {
        Self::try_new(addr, config, log).expect("invalid stack config")
    }

    /// Construct, validating the configuration: an unknown congestion
    /// controller name surfaces here as a typed error, at stack
    /// construction, rather than as a panic on the first connect.
    pub fn try_new(addr: u32, config: SlConfig, log: SharedLog) -> Result<SlTcpStack, cc::CcError> {
        let cc_template = cc::make(config.cc)?;
        Ok(SlTcpStack {
            dm: Demux::new(addr, log.clone()),
            conns: HashMap::new(),
            isn_gen: isn::make(config.isn),
            config,
            cc_template,
            errors: HashMap::new(),
            outbox: VecDeque::new(),
            pressure: Pressure::Nominal,
            gate: false,
            stats: SlStats::default(),
            crossings: CrossingStats::default(),
            log,
        })
    }

    pub fn config(&self) -> &SlConfig {
        &self.config
    }

    /// Active open; returns the connection handle. Panics if the tuple is
    /// taken or the table is full — use [`SlTcpStack::try_connect`] when
    /// refusal must be a value, not a crash.
    pub fn connect(&mut self, now: Time, local_port: u16, remote: Endpoint) -> ConnId {
        self.try_connect(now, local_port, remote).expect("tuple free")
    }

    pub fn state(&self, id: ConnId) -> CmState {
        self.conns.get(&id).map_or(CmState::Closed, |c| c.cm.state())
    }

    /// Has the application asked to close this connection? CM defers the
    /// state transition until the send stream drains, so this is the
    /// surface-level "no longer open for the app" signal.
    pub fn close_pending(&self, id: ConnId) -> bool {
        self.conns.get(&id).is_some_and(|c| c.want_close)
    }

    pub fn tuple(&self, id: ConnId) -> Option<FourTuple> {
        self.dm.tuple(id)
    }

    /// [`HostStack::conn_for_tuple`], callable without the trait in scope
    /// (the benchmark's replay arm looks live connections up through it).
    pub fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<ConnId> {
        self.dm.lookup(tuple)
    }

    pub fn pressure(&self) -> Pressure {
        self.pressure
    }

    /// The RD sublayer's counters (for tests/experiments).
    pub fn rd_stats(&self, id: ConnId) -> Option<crate::rd::RdStats> {
        self.conns.get(&id).and_then(|c| c.rd.as_ref()).map(|r| r.stats.clone())
    }

    pub fn osr_stats(&self, id: ConnId) -> Option<crate::osr::OsrStats> {
        self.conns.get(&id).map(|c| c.osr.stats.clone())
    }

    /// Simulate an ECN mark on this connection's next outgoing header.
    pub fn mark_ecn(&mut self, id: ConnId) {
        if let Some(c) = self.conns.get_mut(&id) {
            c.osr.mark_ecn();
        }
    }

    /// Total RFC 5961 challenge ACKs issued (live connections + reaped).
    pub fn challenge_acks(&self) -> u64 {
        self.stats.challenge_acks
            + self.conns.values().map(|c| c.cm.challenge_acks()).sum::<u64>()
    }

    /// Oldest half-open connection idle for at least one SYN-RTO, if any.
    fn stale_half_open(&self, now: Time) -> Option<ConnId> {
        self.conns
            .iter()
            .filter(|(_, c)| {
                c.cm.state() == CmState::SynRcvd && now.since(c.last_rx) >= HALF_OPEN_EVICT_AGE
            })
            .min_by_key(|(id, c)| (c.last_rx, **id))
            .map(|(id, _)| *id)
    }

    /// Keyed hash binding a half-open flow's 4-tuple and client ISN to a
    /// server ISN we can later recognize without keeping any state.
    fn syn_cookie(&self, tuple: &FourTuple, peer_isn: u32) -> u32 {
        let mut h: u32 = 0x9E37_79B9 ^ self.dm.local_addr();
        for v in [
            tuple.local.addr,
            tuple.local.port as u32,
            tuple.remote.addr,
            tuple.remote.port as u32,
            peer_isn,
        ] {
            h = h.wrapping_add(v).wrapping_mul(2_654_435_761).rotate_left(13);
        }
        h
    }

    /// Stateless SYN|ACK whose ISN *is* the cookie — no connection state
    /// exists until the peer's ACK proves it saw this packet. The native
    /// header makes this clean: the completing ACK echoes both ISNs in its
    /// CM subheader, so validation needs nothing remembered.
    fn send_cookie_synack(&mut self, tuple: &FourTuple, peer_isn: u32) {
        let mut pkt = Packet {
            src_addr: tuple.local.addr,
            dst_addr: tuple.remote.addr,
            ..Packet::default()
        };
        pkt.dm.src_port = tuple.local.port;
        pkt.dm.dst_port = tuple.remote.port;
        pkt.cm.flags.syn = true;
        pkt.cm.flags.cm_ack = true;
        pkt.cm.isn = self.syn_cookie(tuple, peer_isn);
        pkt.cm.ack_isn = peer_isn;
        pkt.osr.rcv_wnd = u16::MAX;
        self.stats.packets_sent += 1;
        self.stats.syn_cookies_sent += 1;
        self.outbox.push_back(pkt.encode());
    }

    /// Stateless RST for a non-RST packet addressed to no connection.
    /// Echoing the packet's own ack as our seq makes the reply *exact*
    /// under the peer's RFC 5961 check — this is what lets the
    /// challenge-ACK dance converge when one side has lost all state.
    fn send_stateless_rst(&mut self, pkt: &Packet) {
        if pkt.cm.flags.rst {
            return; // never answer a RST with a RST
        }
        let mut rst = Packet {
            src_addr: pkt.dst_addr,
            dst_addr: pkt.src_addr,
            ..Packet::default()
        };
        rst.dm.src_port = pkt.dm.dst_port;
        rst.dm.dst_port = pkt.dm.src_port;
        rst.cm.flags.rst = true;
        rst.cm.isn = pkt.cm.ack_isn; // the ISN the peer attributes to us
        rst.cm.ack_isn = pkt.cm.isn; // echo theirs: proves we saw their SYN
        rst.rd.seq = pkt.rd.ack;
        self.stats.packets_sent += 1;
        self.stats.stateless_rsts_sent += 1;
        self.outbox.push_back(rst.encode());
    }

    /// Run one connection's machinery: events, close coordination,
    /// segmentation, and packet assembly.
    fn pump(&mut self, now: Time, id: ConnId) {
        let Some(conn) = self.conns.get_mut(&id) else { return };

        // CM events upward.
        for ev in conn.cm.take_events() {
            match ev {
                CmEvent::Established { local_isn, peer_isn } => {
                    match conn.rd.as_mut() {
                        None => {
                            let mut rd =
                                ReliableDelivery::new(local_isn, peer_isn, self.log.clone());
                            rd.set_use_sack(self.config.use_sack);
                            rd.set_ack_pacing(self.pressure.paces_acks());
                            conn.rd = Some(rd);
                        }
                        Some(rd) if matches!(self.config.cm_scheme, CmScheme::TimerBased { .. }) => {
                            // Timer-based: RD existed before the peer ISN
                            // was known; late-bind it. Sender state
                            // (possibly with data already in flight) is
                            // preserved.
                            rd.set_rcv_isn(peer_isn);
                        }
                        Some(_) => {}
                    }
                }
                CmEvent::Reset => {
                    if let Some(reason) = conn.cm.reset_reason() {
                        self.errors.entry(id).or_insert(reason);
                    }
                    conn.dead = true;
                }
                CmEvent::Closed => {
                    conn.dead = true;
                }
            }
        }

        // RD events upward (to OSR and CM).
        if let Some(rd) = conn.rd.as_mut() {
            for ev in rd.take_events() {
                match ev {
                    RdEvent::Delivered { offset, data } => {
                        self.crossings.rd_to_osr_segments += 1;
                        self.crossings.rd_to_osr_bytes += data.len() as u64;
                        conn.osr.on_delivered(offset, data);
                    }
                    RdEvent::LocalFinAcked => conn.cm.on_local_fin_acked(now),
                    RdEvent::PeerFinReached => conn.cm.on_peer_fin(now),
                    RdEvent::RetriesExhausted => {
                        // Data retries spent: abort (RST to the peer if the
                        // path still works) instead of retrying forever.
                        conn.cm.abort(TransportError::RetriesExhausted);
                    }
                }
            }
            // Summarized signals to OSR's rate controller.
            let signals = rd.take_signals();
            if !signals.is_empty() {
                self.crossings.signals_up += signals.len() as u64;
                conn.osr.on_signals(now, &signals);
            }
        }

        // An RD event above may have just aborted CM (RetriesExhausted
        // routes through `cm.abort`), queueing a Reset *after* the CM
        // drain. Drain again now: the abort cleared every timer, so a
        // deferred Reset might otherwise never be processed and the typed
        // error would stay invisible to the application.
        for ev in conn.cm.take_events() {
            match ev {
                CmEvent::Reset => {
                    if let Some(reason) = conn.cm.reset_reason() {
                        self.errors.entry(id).or_insert(reason);
                    }
                    conn.dead = true;
                }
                CmEvent::Closed => conn.dead = true,
                CmEvent::Established { .. } => {}
            }
        }

        // Close coordination: once the app stream is fully handed to RD,
        // CM may route its FIN through RD.
        if conn.want_close && !conn.fin_routed && conn.osr.drained() {
            if let Some(rd) = conn.rd.as_mut() {
                if conn.cm.state() == CmState::Established && conn.cm.close_requested() {
                    rd.send_fin(now);
                    conn.fin_routed = true;
                }
            } else if conn.cm.state() != CmState::Established {
                // Never established: close immediately.
                conn.cm.close_requested();
            }
        }
        // Timer-based close needs no FIN.
        if conn.want_close
            && !conn.fin_routed
            && matches!(self.config.cm_scheme, CmScheme::TimerBased { .. })
            && conn.osr.drained()
        {
            conn.cm.close_requested();
            conn.fin_routed = true;
        }

        // Window updates: the application read; let the peer know the
        // window reopened (OSR owns the decision, RD owns the ack packet).
        if conn.osr.take_window_update() {
            if let Some(rd) = conn.rd.as_mut() {
                rd.force_ack();
            }
        }

        // Segmentation: OSR decides readiness, RD assigns sequences. A
        // zero-window probe released by OSR's persist timer takes the same
        // path, so it is sequenced and retransmitted like any segment.
        if let Some(rd) = conn.rd.as_mut() {
            if conn.cm.state() == CmState::Established || conn.cm.state() == CmState::Closing {
                while rd.can_accept() {
                    let Some(seg) = conn.osr.poll_segment(now) else { break };
                    self.crossings.osr_to_rd_segments += 1;
                    self.crossings.osr_to_rd_bytes += seg.len() as u64;
                    rd.push_segment(now, seg);
                }
                if rd.can_accept() {
                    if let Some(probe) = conn.osr.poll_probe() {
                        self.crossings.osr_to_rd_segments += 1;
                        self.crossings.osr_to_rd_bytes += probe.len() as u64;
                        rd.push_segment(now, probe);
                    }
                }
            }
        }

        // Packet assembly: CM-originated packets first (handshake), then
        // RD's data/ack packets. Each sublayer stamps only its own bits.
        loop {
            let assembled = if let Some(mut pkt) = conn.cm.poll_packet() {
                if let Some(rd) = conn.rd.as_mut() {
                    rd.fill_tx(&mut pkt);
                }
                conn.osr.fill_tx(&mut pkt);
                conn.cm.fill_tx(&mut pkt);
                Some(pkt)
            } else if let Some(rd) = conn.rd.as_mut() {
                match rd.poll_packet(now) {
                    Some((mut pkt, is_fin)) => {
                        if is_fin {
                            conn.cm.stamp_fin(&mut pkt);
                        }
                        conn.osr.fill_tx(&mut pkt);
                        conn.cm.fill_tx(&mut pkt);
                        Some(pkt)
                    }
                    None => None,
                }
            } else {
                None
            };
            let Some(mut pkt) = assembled else { break };
            self.dm.fill_tx(id, &mut pkt);
            let bytes = pkt.encode();
            self.crossings.packets_tx += 1;
            self.crossings.wire_bytes_tx += bytes.len() as u64;
            self.stats.packets_sent += 1;
            self.outbox.push_back(bytes);
        }

        // Reap dead connections (folding their counters into the stack's).
        if conn.dead {
            self.dm.unbind(id);
            if let Some(c) = self.conns.remove(&id) {
                self.stats.challenge_acks += c.cm.challenge_acks();
            }
        }
    }

    fn handle_packet(&mut self, now: Time, id: ConnId, pkt: &Packet) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        conn.last_rx = now;
        conn.ka_probes = 0;
        // The handshake-completing ack is recognized by the stack (not CM)
        // so CM never reads RD's bits: ack == local_isn + 1.
        let handshake_ack =
            pkt.rd.has_ack && pkt.rd.ack == conn.cm.local_isn().wrapping_add(1);
        // RFC 5961: the stack derives the RST's sequence validity from RD
        // (same pattern as `handshake_ack`); before RD exists — handshake
        // states — a RST is taken at face value, as the RFC prescribes.
        let rst_seq = match conn.rd.as_ref() {
            Some(rd) if pkt.cm.flags.rst => rd.seq_validity(pkt.rd.seq),
            _ => SeqValidity::Exact,
        };
        match conn.cm.on_packet(&pkt.cm, handshake_ack, rst_seq, now) {
            CmPass::Drop => {}
            CmPass::Consumed => {
                // Window updates ride even on handshake packets.
                conn.osr.on_header(now, pkt);
            }
            CmPass::PassUp => {
                conn.osr.on_header(now, pkt);
                // Events may have just established RD.
                self.pump(now, id);
                let Some(conn) = self.conns.get_mut(&id) else { return };
                if let Some(rd) = conn.rd.as_mut() {
                    rd.on_packet(now, pkt, pkt.cm.flags.fin);
                }
            }
        }
        self.pump(now, id);
    }
}

impl Stack for SlTcpStack {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        let Ok(pkt) = Packet::decode(frame) else {
            self.stats.bad_packets += 1;
            return;
        };
        self.stats.packets_received += 1;
        self.crossings.packets_rx += 1;
        self.crossings.wire_bytes_rx += frame.len() as u64;
        match self.dm.classify(&pkt) {
            DmVerdict::Known(id) => self.handle_packet(now, id, &pkt),
            DmVerdict::NewFlow(tuple) => {
                // Admission control first: a full connection table refuses
                // every new flow — cookie rebuilds included — with a typed
                // drop counter and a stateless RST, never a panic or a
                // silent discard.
                if self.conns.len() >= self.config.max_conns {
                    self.stats.conn_table_full_drops += 1;
                    self.send_stateless_rst(&pkt);
                    return;
                }
                let three_way = matches!(self.config.cm_scheme, CmScheme::ThreeWay);
                // A returning ACK that proves a SYN cookie rebuilds the
                // connection the stateless SYN|ACK never stored.
                if three_way
                    && !pkt.cm.flags.syn
                    && !pkt.cm.flags.rst
                    && pkt.rd.has_ack
                    && pkt.cm.ack_isn == self.syn_cookie(&tuple, pkt.cm.isn)
                {
                    let Ok(token) = self.dm.bind(tuple) else { return };
                    let id = token.id();
                    let cm = ConnMgmt::open_cookie(
                        token,
                        pkt.cm.ack_isn,
                        pkt.cm.isn,
                        now,
                        self.log.clone(),
                    );
                    let mut osr = Osr::new(self.cc_template.clone(), self.log.clone());
                    osr.set_pressure(self.pressure);
                    self.conns.insert(id, Connection::new(cm, osr, now));
                    self.stats.syn_cookies_validated += 1;
                    self.pump(now, id); // establishment event creates RD
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.osr.on_header(now, &pkt);
                        if let Some(rd) = conn.rd.as_mut() {
                            rd.on_packet(now, &pkt, pkt.cm.flags.fin);
                        }
                    }
                    self.pump(now, id);
                    return;
                }
                // Half-open governance: a SYN beyond the bound either
                // evicts a stale half-open entry or is answered
                // statelessly with a cookie — a flood degrades service,
                // never memory.
                if three_way
                    && pkt.cm.flags.syn
                    && !pkt.cm.flags.cm_ack
                    && self.half_open_count() >= MAX_HALF_OPEN
                {
                    if let Some(victim) = self.stale_half_open(now) {
                        self.stats.half_open_evictions += 1;
                        self.dm.unbind(victim);
                        self.conns.remove(&victim);
                    } else {
                        self.send_cookie_synack(&tuple, pkt.cm.isn);
                        return;
                    }
                }
                let local_isn = self.isn_gen.isn(now, &tuple);
                // Admission first: the token CM's constructor demands is
                // minted by DM's bind. A header that cannot open releases
                // the admission again.
                let Ok(token) = self.dm.bind(tuple) else { return };
                let id = token.id();
                let Some(cm) = ConnMgmt::open_passive(
                    token,
                    self.config.cm_scheme,
                    local_isn,
                    &pkt.cm,
                    now,
                    self.log.clone(),
                ) else {
                    self.dm.unbind(id);
                    self.stats.no_listener_drops += 1;
                    self.send_stateless_rst(&pkt);
                    return;
                };
                let mut osr = Osr::new(self.cc_template.clone(), self.log.clone());
                osr.set_pressure(self.pressure);
                self.conns.insert(id, Connection::new(cm, osr, now));
                // Let establishment events run, then feed this packet's
                // upper parts (timer-based CM carries data on first
                // packet).
                self.pump(now, id);
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.osr.on_header(now, &pkt);
                    if let Some(rd) = conn.rd.as_mut() {
                        rd.on_packet(now, &pkt, pkt.cm.flags.fin);
                    }
                }
                self.pump(now, id);
            }
            DmVerdict::Gated(_) => {
                // DM's slice of the backpressure contract: under Critical
                // pressure or drain, new flows are refused statelessly —
                // no connection state is created, so a flood cannot grow
                // memory while the host digs itself out.
                self.stats.pressure_refusals += 1;
                self.send_stateless_rst(&pkt);
            }
            DmVerdict::NoListener => {
                self.stats.no_listener_drops += 1;
                self.send_stateless_rst(&pkt);
            }
            DmVerdict::NotForUs => {}
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        netsim::poll_transmit_all(self, now)
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        netsim::poll_deadline_all(self, now)
    }

    fn on_tick(&mut self, now: Time) {
        netsim::on_tick_all(self, now);
    }
}

impl HostStack for SlTcpStack {
    type ConnId = ConnId;

    fn local_addr(&self) -> u32 {
        self.dm.local_addr()
    }

    fn listen(&mut self, port: u16) {
        self.dm.listen(port);
    }

    fn set_max_conns(&mut self, max: usize) {
        self.config.max_conns = max;
    }

    fn try_connect(
        &mut self,
        now: Time,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<ConnId, TransportError> {
        if self.conns.len() >= self.config.max_conns {
            return Err(TransportError::ConnTableFull);
        }
        let tuple = FourTuple {
            local: Endpoint::new(self.dm.local_addr(), local_port),
            remote,
        };
        let Ok(token) = self.dm.bind(tuple) else {
            return Err(TransportError::ConnTableFull);
        };
        let id = token.id();
        let local_isn = self.isn_gen.isn(now, &tuple);
        let cm =
            ConnMgmt::open_active(token, self.config.cm_scheme, local_isn, now, self.log.clone());
        let mut osr = Osr::new(self.cc_template.clone(), self.log.clone());
        osr.set_pressure(self.pressure);
        let mut conn = Connection::new(cm, osr, now);
        // Timer-based CM is established immediately; wire RD up now.
        if matches!(self.config.cm_scheme, CmScheme::TimerBased { .. }) {
            let mut rd = ReliableDelivery::new(local_isn, 0, self.log.clone());
            rd.set_use_sack(self.config.use_sack);
            rd.set_ack_pacing(self.pressure.paces_acks());
            conn.rd = Some(rd);
        }
        self.conns.insert(id, conn);
        self.pump(now, id);
        Ok(id)
    }

    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<ConnId, TransportError> {
        if self.conns.len() >= self.config.max_conns {
            return Err(TransportError::ConnTableFull);
        }
        let Some(port) = self.dm.ephemeral_port(remote) else {
            return Err(TransportError::PortsExhausted);
        };
        self.try_connect(now, port, remote)
    }

    fn send(&mut self, id: ConnId, data: &[u8]) -> usize {
        let Some(conn) = self.conns.get_mut(&id) else { return 0 };
        if conn.want_close || conn.dead {
            return 0;
        }
        conn.osr.write(data)
    }

    fn recv(&mut self, id: ConnId) -> Vec<u8> {
        match self.conns.get_mut(&id) {
            Some(conn) => {
                let out = conn.osr.read();
                // Once the peer's FIN is in no more data can arrive, so
                // the reopened window is not worth advertising (same
                // rule as tcp-mono's recv): the gratuitous ack would
                // poke a peer whose TCB may already be deleted.
                if conn.cm.peer_fin_seen() {
                    conn.osr.suppress_window_update();
                }
                out
            }
            None => Vec::new(),
        }
    }

    fn close(&mut self, id: ConnId) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.want_close = true;
            conn.osr.close();
        }
    }

    fn abort(&mut self, now: Time, id: ConnId) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.cm.abort(TransportError::Reset);
            self.pump(now, id);
        }
    }

    fn is_established(&self, id: ConnId) -> bool {
        // Parity tie-break: CM defers its Established -> Closing
        // transition until the send stream drains, but the monolith flips
        // to FIN_WAIT_1 the moment the app closes. Both mean "no longer
        // open for the application", so gate on the close request.
        self.state(id) == CmState::Established && !self.close_pending(id)
    }

    fn is_closed(&self, id: ConnId) -> bool {
        self.state(id) == CmState::Closed
    }

    fn peer_closed(&self, id: ConnId) -> bool {
        // Parity tie-break: the monolith derives this from the PCB state,
        // which stops reporting it once the connection reaches CLOSED;
        // CM's peer-FIN flag would persist. Half-close is only meaningful
        // while the connection is alive, so gate on it.
        self.conns
            .get(&id)
            .is_some_and(|c| c.cm.peer_fin_seen() && c.cm.state() != CmState::Closed)
    }

    fn conn_error(&self, id: ConnId) -> Option<TransportError> {
        self.errors.get(&id).copied()
    }

    fn readable_len(&self, id: ConnId) -> usize {
        self.conns.get(&id).map_or(0, |c| c.osr.readable_len())
    }

    fn send_capacity(&self, id: ConnId) -> usize {
        match self.conns.get(&id) {
            Some(c) if !c.want_close && !c.dead => c.osr.write_capacity(),
            _ => 0,
        }
    }

    fn established(&self) -> Vec<ConnId> {
        let mut v: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.cm.state() == CmState::Established)
            .map(|(&id, _)| id)
            .collect();
        v.sort();
        v
    }

    fn conn_count(&self) -> usize {
        self.conns.len()
    }

    fn conn_ids(&self) -> impl Iterator<Item = ConnId> + '_ {
        self.conns.keys().copied()
    }

    fn classify_frame(frame: &[u8]) -> Option<FrameMeta> {
        crate::wire::classify(frame)
    }

    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<ConnId> {
        self.dm.lookup(tuple)
    }

    fn take_frame(&mut self) -> Option<Vec<u8>> {
        self.outbox.pop_front()
    }

    /// Run one connection's machinery (events, close coordination,
    /// segmentation, packet assembly) — the per-connection half of
    /// `poll_transmit`, for hosts that know which connection changed.
    fn pump_conn(&mut self, now: Time, id: ConnId) {
        self.pump(now, id);
    }

    fn conn_deadline(&self, now: Time, id: ConnId) -> Option<Time> {
        let c = self.conns.get(&id)?;
        [
            c.cm.poll_deadline(),
            c.rd.as_ref().and_then(|r| r.poll_deadline()),
            c.osr.poll_deadline(now),
            self.keepalive_deadline(c),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn tick_conn(&mut self, now: Time, id: ConnId) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.cm.on_tick(now);
            if let Some(rd) = conn.rd.as_mut() {
                rd.on_tick(now);
            }
            conn.osr.on_tick(now);
            if let Some(ka) = self.config.keepalive {
                Self::drive_keepalive(conn, ka, now);
            }
        }
        self.pump(now, id);
    }

    fn crossing_events(&self) -> Option<u64> {
        let c = &self.crossings;
        Some(
            c.osr_to_rd_segments
                + c.rd_to_osr_segments
                + c.signals_up
                + c.packets_tx
                + c.packets_rx,
        )
    }

    /// Propagate host memory pressure down the sublayer column: OSR clamps
    /// the advertised window, RD paces pure acks, DM gates new flows at
    /// the `Critical` tier. Each sublayer receives only its own slice of
    /// the contract — no sublayer reads another's state.
    fn set_pressure(&mut self, p: Pressure) {
        if p == self.pressure {
            return;
        }
        self.pressure = p;
        let pace = p.paces_acks();
        for c in self.conns.values_mut() {
            c.osr.set_pressure(p);
            if let Some(rd) = c.rd.as_mut() {
                rd.set_ack_pacing(pace);
            }
        }
        self.dm.set_gate(self.gate || p.refuses_new_flows());
    }

    fn gate_new_flows(&mut self, refuse: bool) {
        self.gate = refuse;
        self.dm.set_gate(refuse || self.pressure.refuses_new_flows());
    }

    fn conn_buffered(&self, id: ConnId) -> usize {
        self.conns.get(&id).map_or(0, |c| {
            c.osr.buffered_bytes() + c.rd.as_ref().map_or(0, |r| r.in_flight_bytes())
        })
    }

    /// Monotone progress counter for slow-drain detection (bytes delivered
    /// in order + bytes the peer acked); `0` before RD exists.
    fn conn_progress(&self, id: ConnId) -> u64 {
        self.conns
            .get(&id)
            .and_then(|c| c.rd.as_ref())
            .map_or(0, |r| r.progress_bytes())
    }

    fn buffered_bytes(&self) -> usize {
        self.conns
            .values()
            .map(|c| {
                c.osr.buffered_bytes() + c.rd.as_ref().map_or(0, |r| r.in_flight_bytes())
            })
            .sum()
    }

    fn stack_pressure_refusals(&self) -> u64 {
        self.stats.pressure_refusals
    }

    /// Bytes currently pinned in the retransmit queue (bounded by
    /// [`crate::rd::RTX_BYTES_CAP`] no matter how long the path stays
    /// partitioned).
    fn conn_rtx_bytes(&self, id: ConnId) -> usize {
        self.conns
            .get(&id)
            .and_then(|c| c.rd.as_ref())
            .map_or(0, |r| r.in_flight_bytes())
    }

    fn conn_oldest_unacked(&self, id: ConnId, now: Time) -> Option<Dur> {
        self.conns
            .get(&id)
            .and_then(|c| c.rd.as_ref())
            .and_then(|r| r.oldest_unacked_age(now))
    }

    fn expected_seq(&self, id: ConnId) -> Option<u32> {
        self.conns.get(&id)?.rd.as_ref().map(|r| r.wire_rcv_ack())
    }

    fn conn_cc(&self, id: ConnId) -> Option<slmetrics::CcCounters> {
        self.conns.get(&id).map(|c| c.osr.cc)
    }

    fn half_open_count(&self) -> usize {
        self.conns.values().filter(|c| c.cm.state() == CmState::SynRcvd).count()
    }

    fn attack_counters(&self, conn: Option<ConnId>) -> AttackCounters {
        let s = &self.stats;
        let rd = conn.and_then(|id| self.rd_stats(id)).unwrap_or_default();
        AttackCounters {
            challenge_acks: self.challenge_acks(),
            syn_cookies_sent: s.syn_cookies_sent,
            syn_cookies_validated: s.syn_cookies_validated,
            half_open_evictions: s.half_open_evictions,
            bad_frames_rejected: s.bad_packets,
            overflow_drops: rd.ooo_range_drops,
            invalid_seq_drops: rd.invalid_seq_drops,
            ..AttackCounters::default()
        }
    }
}

impl SlTcpStack {
    /// When the next keepalive action (probe or give-up) is due for `c`.
    fn keepalive_deadline(&self, c: &Connection) -> Option<Time> {
        let ka = self.config.keepalive?;
        if c.cm.state() != CmState::Established {
            return None;
        }
        c.rd.as_ref()?;
        Some(c.last_rx + ka.idle + ka.interval.saturating_mul(c.ka_probes as u64))
    }

    fn drive_keepalive(conn: &mut Connection, ka: Keepalive, now: Time) {
        if conn.cm.state() != CmState::Established {
            return;
        }
        let Some(rd) = conn.rd.as_mut() else { return };
        let due = conn.last_rx + ka.idle + ka.interval.saturating_mul(conn.ka_probes as u64);
        if now < due {
            return;
        }
        // Probes keep firing even with data in flight — they are cheap
        // liveness chatter that refreshes the peer's own idle timer — but
        // only an *idle* connection may abort on probe exhaustion. With
        // data in flight RD's retry budget owns liveness; aborting on the
        // (much smaller) probe budget would kill a merely-slow path (a
        // reroute onto a longer RTT, or a partition shorter than the RTO
        // budget) with a spurious PeerVanished.
        if conn.ka_probes >= ka.max_probes && rd.bytes_unacked() == 0 {
            // Unanswered probe budget spent on an idle connection: gone.
            conn.cm.abort(TransportError::PeerVanished);
        } else {
            // A connection that never sent data cannot be probed (there is
            // no sequence behind snd_nxt to re-ack); its silent intervals
            // still count, so sustained peer silence past the keepalive
            // horizon aborts either way.
            let _ = rd.send_keepalive_probe();
            conn.ka_probes += 1;
        }
    }
}
