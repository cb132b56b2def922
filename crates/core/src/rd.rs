//! The **reliable delivery (RD)** sublayer (§3).
//!
//! RD "uses the ISNs supplied by the lower connection management layer to
//! reliably (i.e., exactly once) deliver segments given by the upper layer
//! (OSR). OSR gives RD a segment identified by its byte offset, and RD
//! translates this to segment sequence numbers (by adding the ISN)...
//! All details of retransmission, including keeping track of a window of
//! outstanding packets are encapsulated in RD; if Selective
//! Acknowledgement is used, the SACK options are also processed by this
//! sublayer."
//!
//! Per test **T3**, RD owns the `seq`/`ack`/SACK bits of the native header
//! and nothing else. Its upward interface (test **T2**) is:
//! segments-by-offset down, possibly-out-of-order `Delivered` events up
//! (OSR does the reordering), and **summarized congestion signals**
//! ([`CongSignal`]) — OSR never sees a sequence number.
//!
//! Internally RD works in unwrapped 64-bit byte offsets (offset 0 = first
//! payload byte = wire sequence `isn + 1`); conversion to/from the 32-bit
//! wire space happens only at the header boundary.

use crate::fingerprint as fp;
use crate::signals::{CongSignal, SeqValidity};
use crate::wire::{Packet, SackRange};
use netsim::{Dur, Time};
use slmetrics::SharedLog;
use std::collections::{BTreeMap, VecDeque};

/// Events RD reports to the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RdEvent {
    /// A (possibly out-of-order) segment for OSR, exactly once.
    Delivered { offset: u64, data: Vec<u8> },
    /// Our FIN was acknowledged (close handshake progress, relayed to CM).
    LocalFinAcked,
    /// The peer's FIN was reached in sequence (relayed to CM).
    PeerFinReached,
    /// [`MAX_RETRIES`] consecutive RTOs fired without the cumulative ack
    /// advancing. The stack must abort the connection (graceful
    /// degradation) rather than back off forever.
    RetriesExhausted,
}

/// RD counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RdStats {
    pub segments_sent: u64,
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub acks_sent: u64,
    pub duplicate_payload_dropped: u64,
    pub sacked_skips: u64,
    pub timeouts: u64,
    pub keepalive_probes: u64,
    /// Out-of-order data dropped because the range map hit its safety cap
    /// (an attacker spraying disjoint bytes cannot grow state unboundedly).
    pub ooo_range_drops: u64,
    /// Segments dropped because their sequence number was outside the
    /// plausible receive window in either direction (RFC 793
    /// acceptability; blind data injection lands here).
    pub invalid_seq_drops: u64,
    /// Pure acks deferred by pressure-driven ACK pacing.
    pub acks_paced: u64,
}

#[derive(Clone)]
struct Flight {
    data: Vec<u8>,
    sent_at: Time,
    /// When the segment was *first* transmitted (never touched by
    /// retransmission, unlike `sent_at`) — the basis of oldest-segment
    /// accounting during partitions.
    first_sent: Time,
    retransmitted: bool,
    sacked: bool,
}

const INITIAL_RTO: Dur = Dur(1_000_000_000);
const MIN_RTO: Dur = Dur(200_000_000);
const MAX_RTO: Dur = Dur(60_000_000_000);
/// Safety cap on outstanding segments (the *policy* window is OSR's).
const MAX_IN_FLIGHT: usize = 1024;
/// Hard cap on bytes parked in the retransmission buffer. During a long
/// partition nothing is acked, so without this the application could keep
/// pushing until `MAX_IN_FLIGHT` large segments sat in memory; with it,
/// [`ReliableDelivery::can_accept`] goes false and backpressure propagates
/// up through OSR to the writer. The cap may be overshot by at most one
/// segment (the one accepted while just under it).
pub const RTX_BYTES_CAP: usize = 256 * 1024;
/// Window RD uses to classify inbound control sequences (RFC 5961): a
/// wire sequence within this many bytes past `rcv_nxt` is "in window".
/// Public so `slverify` can cross-check [`ReliableDelivery::seq_validity`]
/// against its own `classify_seq` relation over the same window.
pub const VALIDITY_WND: u32 = 64 * 1024;
/// Safety cap on disjoint out-of-order ranges tracked by the receiver.
const MAX_OOO_RANGES: usize = 256;
/// Safety cap on total out-of-order bytes accepted ahead of `rcv_nxt`
/// (matches OSR's `RCV_BUF_CAP`, which is where the bytes park).
const MAX_OOO_BYTES: u64 = 64 * 1024 - 1;
/// Consecutive RTO expirations without `snd_una` progress before RD gives
/// up and asks the stack to abort ([`RdEvent::RetriesExhausted`]).
pub const MAX_RETRIES: u32 = 8;
/// How long a pure ack may be delayed while ACK pacing is on (host memory
/// pressure). Well under `MIN_RTO` (200 ms), so pacing can never trigger a peer's
/// retransmission timer.
pub const ACK_DELAY: Dur = Dur(50_000_000);

/// The RD sublayer for one connection.
#[derive(Clone)]
pub struct ReliableDelivery {
    snd_isn: u32,
    rcv_isn: u32,

    // --- sender, in unwrapped offsets ---
    snd_una: u64,
    snd_nxt: u64,
    in_flight: BTreeMap<u64, Flight>,
    /// Total payload bytes across `in_flight` (kept incrementally so the
    /// memory-bound check is O(1)).
    flight_bytes: usize,
    fin_off: Option<u64>,
    fin_sent_at: Option<Time>,
    fin_retransmitted: bool,
    fin_acked: bool,
    dupacks: u32,
    /// NewReno-style recovery: retransmit the next hole on each partial
    /// ack until `recover` is reached.
    in_recovery: bool,
    recover: u64,

    // --- RTT / RTO ---
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    rto_deadline: Option<Time>,
    /// RTO expirations since `snd_una` last advanced.
    consecutive_rtx: u32,

    // --- receiver ---
    rcv_nxt: u64,
    /// Disjoint out-of-order received ranges, start -> end (offsets).
    ooo: BTreeMap<u64, u64>,
    peer_fin_off: Option<u64>,
    peer_fin_reached: bool,
    ack_pending: bool,
    /// This pending ack must go out now (window update / probe answer) —
    /// pacing may not hold it.
    ack_forced: bool,
    /// RD's slice of the backpressure contract: when on, pure acks are
    /// held up to [`ACK_DELAY`] and coalesced, throttling the peer's ack
    /// clock. Data, FIN, and forced acks are never delayed.
    pace_acks: bool,
    delayed_ack_deadline: Option<Time>,
    /// Advertise SACK ranges (ablation knob; default on).
    use_sack: bool,

    // --- outputs ---
    /// (offset or None for a pure ack, payload, is_fin)
    outbox: VecDeque<(Option<u64>, Vec<u8>, bool)>,
    signals: VecDeque<CongSignal>,
    events: VecDeque<RdEvent>,
    pub stats: RdStats,
    log: SharedLog,
}

impl ReliableDelivery {
    /// Create from the ISN pair CM established.
    pub fn new(snd_isn: u32, rcv_isn: u32, log: SharedLog) -> ReliableDelivery {
        ReliableDelivery {
            snd_isn,
            rcv_isn,
            snd_una: 0,
            snd_nxt: 0,
            in_flight: BTreeMap::new(),
            flight_bytes: 0,
            fin_off: None,
            fin_sent_at: None,
            fin_retransmitted: false,
            fin_acked: false,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: INITIAL_RTO,
            rto_deadline: None,
            consecutive_rtx: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            peer_fin_off: None,
            peer_fin_reached: false,
            ack_pending: false,
            ack_forced: false,
            pace_acks: false,
            delayed_ack_deadline: None,
            use_sack: true,
            outbox: VecDeque::new(),
            signals: VecDeque::new(),
            events: VecDeque::new(),
            stats: RdStats::default(),
            log,
        }
    }

    // --- wire <-> offset conversions (RD-private) ---

    fn wire_snd(&self, off: u64) -> u32 {
        self.snd_isn.wrapping_add(1).wrapping_add(off as u32)
    }

    pub(crate) fn wire_rcv_ack(&self) -> u32 {
        self.rcv_isn.wrapping_add(1).wrapping_add(self.rcv_nxt as u32)
    }

    /// Classify an inbound wire sequence against the next expected one
    /// (RFC 5961). The *stack* derives this signal for CM — exactly like
    /// the `handshake_ack` boolean — so CM decides reset *policy* without
    /// ever touching RD's sequence arithmetic.
    pub fn seq_validity(&self, wire_seq: u32) -> SeqValidity {
        let delta = wire_seq.wrapping_sub(self.wire_rcv_ack());
        if delta == 0 {
            SeqValidity::Exact
        } else if delta < VALIDITY_WND {
            SeqValidity::InWindow
        } else {
            SeqValidity::Outside
        }
    }

    /// Unwrap a 32-bit wire value to the 64-bit offset closest to `near`.
    fn unwrap(base_isn: u32, wire: u32, near: u64) -> u64 {
        let raw = wire.wrapping_sub(base_isn.wrapping_add(1));
        let delta = raw.wrapping_sub(near as u32) as i32 as i64;
        near.saturating_add_signed(delta)
    }

    /// Enable/disable SACK advertisement (RD-private either way).
    pub fn set_use_sack(&mut self, on: bool) {
        self.use_sack = on;
    }

    /// Late-bind the peer ISN (timer-based CM learns it from the first
    /// inbound packet). Only legal while nothing has been received.
    pub fn set_rcv_isn(&mut self, isn: u32) {
        debug_assert!(self.rcv_nxt == 0 && self.ooo.is_empty(), "receive side must be fresh");
        self.rcv_isn = isn;
    }

    // --- sender side ---

    /// May OSR push another segment? (Safety bound only — rate policy
    /// lives in OSR.) Bounded both by segment count and by
    /// [`RTX_BYTES_CAP`] bytes, so an unreachable peer stalls the writer
    /// instead of growing the retransmission buffer for as long as the
    /// partition lasts.
    pub fn can_accept(&self) -> bool {
        self.in_flight.len() < MAX_IN_FLIGHT
            && self.flight_bytes < RTX_BYTES_CAP
            && self.fin_off.is_none()
    }

    /// Bytes handed to us and not yet acknowledged.
    pub fn bytes_unacked(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Bytes held in the retransmission buffer (memory-bound invariant).
    pub fn in_flight_bytes(&self) -> usize {
        self.flight_bytes
    }

    /// Age of the oldest byte still waiting for an ack, measured from its
    /// *first* transmission. During a partition this grows linearly while
    /// [`in_flight_bytes`](Self::in_flight_bytes) stays capped — the pair
    /// is what the host's `ResourceBudget` accounting sees.
    pub fn oldest_unacked_age(&self, now: Time) -> Option<Dur> {
        let seg = self.in_flight.first_key_value().map(|(_, f)| f.first_sent);
        seg.or(if self.fin_acked { None } else { self.fin_sent_at }).map(|t0| now.since(t0))
    }

    /// Accept a segment from OSR at the next offset; RD assigns sequence
    /// numbers and guarantees eventual delivery.
    pub fn push_segment(&mut self, now: Time, data: Vec<u8>) {
        self.log.borrow_mut().w("rd", "snd_nxt");
        self.log.borrow_mut().w("rd", "in_flight");
        assert!(self.can_accept(), "pushed past RD's safety window");
        assert!(!data.is_empty());
        let off = self.snd_nxt;
        self.snd_nxt += data.len() as u64;
        self.flight_bytes += data.len();
        self.outbox.push_back((Some(off), data.clone(), false));
        self.in_flight.insert(
            off,
            Flight { data, sent_at: now, first_sent: now, retransmitted: false, sacked: false },
        );
        self.stats.segments_sent += 1;
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    /// Queue the FIN (CM decided to close; RD owns its retransmission).
    pub fn send_fin(&mut self, now: Time) {
        if self.fin_off.is_some() {
            return;
        }
        self.log.borrow_mut().w("rd", "snd_nxt");
        let off = self.snd_nxt;
        self.snd_nxt += 1;
        self.fin_off = Some(off);
        self.fin_sent_at = Some(now);
        self.outbox.push_back((Some(off), Vec::new(), true));
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    pub fn fin_acked(&self) -> bool {
        self.fin_acked
    }

    /// All pushed data (and FIN if queued) acknowledged?
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.snd_nxt
    }

    fn rtt_sample(&mut self, sample: Dur) {
        self.log.borrow_mut().w("rd", "srtt");
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = Dur(sample.0 / 2);
            }
            Some(srtt) => {
                let err = sample.0.abs_diff(srtt.0);
                self.rttvar = Dur((3 * self.rttvar.0 + err) / 4);
                self.srtt = Some(Dur((7 * srtt.0 + sample.0) / 8));
            }
        }
        let srtt = self.srtt.unwrap();
        self.rto = Dur(srtt.0 + (4 * self.rttvar.0).max(srtt.0 / 8)).clamp(MIN_RTO, MAX_RTO);
    }

    fn retransmit_first_unacked(&mut self, now: Time) {
        self.log.borrow_mut().r("rd", "in_flight");
        // Skip SACKed segments — SACK is RD-private mechanics.
        let target = self
            .in_flight
            .iter()
            .find(|(_, f)| !f.sacked)
            .map(|(&off, _)| off);
        if let Some(off) = target {
            let f = self.in_flight.get_mut(&off).unwrap();
            f.retransmitted = true;
            f.sent_at = now;
            let data = f.data.clone();
            self.outbox.push_back((Some(off), data, false));
            self.stats.retransmits += 1;
        } else if let Some(fin_off) = self.fin_off {
            if !self.fin_acked {
                self.fin_retransmitted = true;
                self.outbox.push_back((Some(fin_off), Vec::new(), true));
                self.stats.retransmits += 1;
            }
        }
    }

    // --- input processing ---

    /// Process the RD header (+ payload) of an inbound packet.
    /// `fin` is CM's flag, passed through because the FIN occupies one
    /// unit of RD's sequence space (the CM/RD coupling the paper
    /// acknowledges).
    pub fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool) {
        self.log.borrow_mut().r("rd", "snd_una");
        // Acknowledgment processing.
        if pkt.rd.has_ack {
            let ack = Self::unwrap(self.snd_isn, pkt.rd.ack, self.snd_una);
            if ack > self.snd_una && ack <= self.snd_nxt {
                self.log.borrow_mut().w("rd", "snd_una");
                self.log.borrow_mut().w("rd", "in_flight");
                let bytes = (ack - self.snd_una) as u32;
                // RTT sample from the newest fully-acked clean segment
                // (Karn's rule).
                let mut sample = None;
                let acked: Vec<u64> = self
                    .in_flight
                    .range(..ack)
                    .filter(|(&off, f)| off + f.data.len() as u64 <= ack)
                    .map(|(&off, _)| off)
                    .collect();
                for off in acked {
                    let f = self.in_flight.remove(&off).unwrap();
                    self.flight_bytes -= f.data.len();
                    if !f.retransmitted {
                        sample = Some(now.since(f.sent_at));
                    }
                }
                self.snd_una = ack;
                self.dupacks = 0;
                self.consecutive_rtx = 0;
                if let Some(s) = sample {
                    self.rtt_sample(s);
                }
                let was_in_recovery = self.in_recovery;
                if self.in_recovery {
                    if ack >= self.recover {
                        self.in_recovery = false;
                    } else {
                        // Partial ack: the next hole is lost too —
                        // retransmit it immediately (NewReno).
                        self.retransmit_first_unacked(now);
                    }
                }
                // FIN covered by this ack?
                if let Some(foff) = self.fin_off {
                    if ack > foff && !self.fin_acked {
                        self.fin_acked = true;
                        if let (Some(t0), false) = (self.fin_sent_at, self.fin_retransmitted) {
                            self.rtt_sample(now.since(t0));
                        }
                        self.events.push_back(RdEvent::LocalFinAcked);
                    }
                }
                // Summarize progress upward (fin consumes 1 non-data unit).
                let data_bytes = bytes.saturating_sub(
                    self.fin_off.map_or(0, |f| u32::from(ack > f)),
                );
                // RD owns the recovery point; the controller only sees
                // the classification: plain progress, one more hole
                // (partial ack), or episode-closing full ack.
                self.signals.push_back(if !was_in_recovery {
                    CongSignal::Acked { bytes: data_bytes, rtt: sample }
                } else if self.in_recovery {
                    CongSignal::PartialAck { bytes: data_bytes }
                } else {
                    CongSignal::FullAck { bytes: data_bytes, rtt: sample }
                });
                self.rto_deadline =
                    if self.all_acked() { None } else { Some(now + self.rto) };
            } else if ack == self.snd_una
                && !self.all_acked()
                && pkt.payload.is_empty()
                && !fin
            {
                // Duplicate ack.
                self.log.borrow_mut().w("rd", "dupacks");
                self.dupacks += 1;
                if self.dupacks == 3 {
                    self.stats.fast_retransmits += 1;
                    self.in_recovery = true;
                    self.recover = self.snd_nxt;
                    self.retransmit_first_unacked(now);
                    self.signals.push_back(CongSignal::DupAckLoss);
                } else if self.dupacks > 3 && self.in_recovery {
                    // Further dup acks mean segments left the pipe —
                    // NewReno window inflation.
                    self.signals.push_back(CongSignal::DupAck);
                }
            }
            // SACK: mark covered segments so retransmission skips them.
            for r in &pkt.rd.sack {
                let start = Self::unwrap(self.snd_isn, r.start, self.snd_una);
                let end = Self::unwrap(self.snd_isn, r.end, self.snd_una);
                for (_, f) in self.in_flight.range_mut(start..end) {
                    if !f.sacked {
                        f.sacked = true;
                        self.stats.sacked_skips += 1;
                    }
                }
            }
        }

        // Payload / FIN reception.
        let payload_len = pkt.payload.len() as u64;
        if payload_len > 0 || fin {
            // RFC 793 acceptability, checked in *wire* space before
            // unwrapping: the segment must start within VALIDITY_WND of
            // the next expected sequence in either direction (ahead =
            // in-window new data, behind = a retransmission). Without
            // this, a blindly forged sequence number can alias onto a
            // live stream offset and corrupt the byte stream.
            let expected = self.wire_rcv_ack();
            let ahead = pkt.rd.seq.wrapping_sub(expected);
            let behind = expected.wrapping_sub(pkt.rd.seq);
            if ahead >= VALIDITY_WND && behind > VALIDITY_WND {
                self.stats.invalid_seq_drops += 1;
                // Re-anchor an honest-but-desynced peer (and leave a
                // blind forger none the wiser about the real window).
                self.ack_pending = true;
                return;
            }
            self.log.borrow_mut().w("rd", "rcv_ranges");
            let seq_off = Self::unwrap(self.rcv_isn, pkt.rd.seq, self.rcv_nxt);
            if payload_len > 0 {
                self.receive_range(seq_off, &pkt.payload);
            }
            if fin {
                let fin_off = seq_off + payload_len;
                self.peer_fin_off = Some(fin_off);
            }
            self.advance_rcv();
            self.ack_pending = true;
        } else if pkt.rd.has_ack {
            // Pure acks at the peer's current sequence need no response,
            // but an empty segment *behind* rcv_nxt is a keepalive probe:
            // answer with a bare ack so the prober learns we are alive
            // (TCP's unacceptable-segment rule).
            let seq_off = Self::unwrap(self.rcv_isn, pkt.rd.seq, self.rcv_nxt);
            if seq_off < self.rcv_nxt {
                self.ack_pending = true;
            }
        }
    }

    /// Record a received payload range; deliver only the novel parts
    /// (exactly-once).
    fn receive_range(&mut self, start: u64, data: &[u8]) {
        let end = start + data.len() as u64;
        if start > self.rcv_nxt {
            // Receiver-state caps: accept only data that advances rcv_nxt
            // once either cap is reached, so a hostile sender ignoring the
            // advertised window (or spraying disjoint bytes) cannot grow
            // the range map or OSR's parked reassembly bytes unboundedly.
            let held: u64 = self.ooo.iter().map(|(&s, &e)| e - s).sum();
            if self.ooo.len() >= MAX_OOO_RANGES || held + data.len() as u64 > MAX_OOO_BYTES {
                self.stats.ooo_range_drops += 1;
                self.ack_pending = true;
                return;
            }
        }
        // Clip against already-delivered prefix.
        let mut covered: Vec<(u64, u64)> = vec![(0, self.rcv_nxt)];
        for (&s, &e) in &self.ooo {
            covered.push((s, e));
        }
        covered.sort_unstable();
        // Walk the covered list, emitting the novel gaps of [start, end).
        let mut cursor = start;
        let mut novel: Vec<(u64, u64)> = Vec::new();
        for (cs, ce) in covered {
            if ce <= cursor {
                continue;
            }
            if cs >= end {
                break;
            }
            if cs > cursor {
                novel.push((cursor, cs.min(end)));
            }
            cursor = cursor.max(ce);
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            novel.push((cursor, end));
        }
        if novel.is_empty() {
            self.stats.duplicate_payload_dropped += 1;
            return;
        }
        for (ns, ne) in novel {
            let slice = &data[(ns - start) as usize..(ne - start) as usize];
            self.events.push_back(RdEvent::Delivered { offset: ns, data: slice.to_vec() });
            // Merge into the ooo range set.
            Self::merge_range(&mut self.ooo, ns, ne);
        }
    }

    fn merge_range(ooo: &mut BTreeMap<u64, u64>, mut s: u64, mut e: u64) {
        // Absorb overlapping/adjacent ranges.
        let overlapping: Vec<u64> = ooo
            .range(..=e)
            .filter(|(_, &re)| re >= s)
            .map(|(&rs, _)| rs)
            .collect();
        for rs in overlapping {
            let re = ooo.remove(&rs).unwrap();
            s = s.min(rs);
            e = e.max(re);
        }
        ooo.insert(s, e);
    }

    fn advance_rcv(&mut self) {
        // Pull contiguous ranges into rcv_nxt.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
        if let Some(foff) = self.peer_fin_off {
            if !self.peer_fin_reached && self.rcv_nxt == foff {
                self.rcv_nxt += 1; // the FIN consumes one unit
                self.peer_fin_reached = true;
                self.events.push_back(RdEvent::PeerFinReached);
            }
        }
    }

    // --- output ---

    /// Next packet to send: data/fin segments, else a pure ack if owed.
    /// Returns the packet skeleton (RD fields filled) and whether CM must
    /// stamp the FIN flag.
    ///
    /// Under ACK pacing, a non-forced pure ack is deferred up to
    /// [`ACK_DELAY`]: the first poll arms the delay, later polls emit it
    /// once `now` reaches the deadline. Acks riding on data/FIN segments
    /// are never deferred, so pacing only thins the bare-ack stream.
    pub fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)> {
        let (off, payload, is_fin) = match self.outbox.pop_front() {
            Some(x) => x,
            None => {
                if !self.ack_pending {
                    return None;
                }
                if self.pace_acks && !self.ack_forced {
                    match self.delayed_ack_deadline {
                        None => {
                            self.log.borrow_mut().w("rd", "ack_delay");
                            self.delayed_ack_deadline = Some(now + ACK_DELAY);
                            self.stats.acks_paced += 1;
                            return None;
                        }
                        Some(d) if now < d => return None,
                        Some(_) => {}
                    }
                }
                (None, Vec::new(), false)
            }
        };
        self.log.borrow_mut().r("rd", "rcv_ranges");
        let mut pkt = Packet::default();
        pkt.rd.seq = self.wire_snd(off.unwrap_or(self.snd_nxt));
        pkt.rd.has_ack = true;
        pkt.rd.ack = self.wire_rcv_ack();
        // Up to two SACK ranges from the out-of-order set.
        pkt.rd.sack = self
            .ooo
            .iter()
            .take(if self.use_sack { 2 } else { 0 })
            .map(|(&s, &e)| SackRange {
                start: self.rcv_isn.wrapping_add(1).wrapping_add(s as u32),
                end: self.rcv_isn.wrapping_add(1).wrapping_add(e as u32),
            })
            .collect();
        pkt.payload = payload;
        self.ack_pending = false;
        self.ack_forced = false;
        self.delayed_ack_deadline = None;
        if pkt.payload.is_empty() && !is_fin && off.is_none() {
            self.stats.acks_sent += 1;
        }
        Some((pkt, is_fin))
    }

    /// Stamp ack fields on a packet originated elsewhere (CM handshake
    /// acks) so every outgoing packet carries the cumulative ack, exactly
    /// like TCP.
    pub fn fill_tx(&mut self, pkt: &mut Packet) {
        self.log.borrow_mut().r("rd", "rcv_ranges");
        pkt.rd.seq = self.wire_snd(self.snd_nxt);
        pkt.rd.has_ack = true;
        pkt.rd.ack = self.wire_rcv_ack();
        self.ack_pending = false;
        self.ack_forced = false;
        self.delayed_ack_deadline = None;
    }

    /// Request a bare ack packet (used for window updates). Forced acks
    /// bypass ACK pacing — a delayed window update could deadlock a
    /// persist-probing peer.
    pub fn force_ack(&mut self) {
        self.ack_pending = true;
        self.ack_forced = true;
    }

    /// Turn pressure-driven ACK pacing on or off (plumbed down from the
    /// host through the stack).
    pub fn set_ack_pacing(&mut self, on: bool) {
        self.log.borrow_mut().w("rd", "ack_delay");
        self.pace_acks = on;
        if !on {
            // Any held ack goes out at the next poll.
            self.delayed_ack_deadline = None;
        }
    }

    /// Monotone per-connection progress: in-order bytes delivered up to
    /// OSR plus bytes the peer has cumulatively acknowledged. The host's
    /// slow-drain (slowloris) detector compares snapshots of this.
    pub fn progress_bytes(&self) -> u64 {
        self.rcv_nxt + self.snd_una
    }

    /// Queue an idle keepalive probe: an empty segment one unit behind
    /// `snd_nxt`, which the peer must answer with a bare ack (it is not an
    /// acceptable in-sequence segment). Returns `false` when no data has
    /// ever been sent — the probe sequence would be indistinguishable from
    /// a plain ack, so such connections cannot be probed.
    pub fn send_keepalive_probe(&mut self) -> bool {
        if self.snd_nxt == 0 {
            return false;
        }
        self.outbox.push_back((Some(self.snd_nxt - 1), Vec::new(), false));
        self.stats.keepalive_probes += 1;
        true
    }

    /// The current retransmission timeout (exposed so tests can verify
    /// exponential backoff).
    pub fn current_rto(&self) -> Dur {
        self.rto
    }

    /// RTO expirations since the cumulative ack last advanced.
    pub fn consecutive_retries(&self) -> u32 {
        self.consecutive_rtx
    }

    pub fn take_signals(&mut self) -> Vec<CongSignal> {
        self.signals.drain(..).collect()
    }

    pub fn take_events(&mut self) -> Vec<RdEvent> {
        self.events.drain(..).collect()
    }

    pub fn has_output(&self) -> bool {
        !self.outbox.is_empty() || self.ack_pending
    }

    pub fn poll_deadline(&self) -> Option<Time> {
        match (self.rto_deadline, self.delayed_ack_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub fn on_tick(&mut self, now: Time) {
        if self.rto_deadline.is_some_and(|d| now >= d) {
            self.log.borrow_mut().w("rd", "rto");
            if self.all_acked() {
                self.rto_deadline = None;
                return;
            }
            if self.consecutive_rtx >= MAX_RETRIES {
                // Retry budget spent with zero cumulative-ack progress:
                // stop the timer and tell the stack to abort.
                self.rto_deadline = None;
                self.events.push_back(RdEvent::RetriesExhausted);
                return;
            }
            self.consecutive_rtx += 1;
            self.stats.timeouts += 1;
            // Ack-clocked recovery after the timeout: partial acks will
            // pull out the remaining holes without waiting a full RTO
            // each.
            self.in_recovery = true;
            self.recover = self.snd_nxt;
            self.retransmit_first_unacked(now);
            self.signals.push_back(CongSignal::TimeoutLoss);
            self.rto = Dur((self.rto.0 * 2).min(MAX_RTO.0));
            self.rto_deadline = Some(now + self.rto);
        }
    }

    /// Receiver progress (used by the stack/tests).
    pub fn rcv_next_offset(&self) -> u64 {
        self.rcv_nxt
    }

    pub fn peer_fin_reached(&self) -> bool {
        self.peer_fin_reached
    }

    /// Deterministic behavioral fingerprint for the RD contract checker
    /// (see [`crate::fingerprint`]): equal keys must imply behaviorally
    /// identical endpoints under the contract's drive alphabet. Counters
    /// in [`RdStats`] are deliberately excluded — they never influence
    /// future behavior.
    pub fn contract_key(&self) -> Vec<u64> {
        let mut acc = fp::fold(
            fp::SEED,
            [
                self.snd_isn as u64,
                self.rcv_isn as u64,
                self.snd_una,
                self.snd_nxt,
                self.flight_bytes as u64,
                self.fin_off.map_or(u64::MAX, |o| o),
                self.fin_sent_at.map_or(u64::MAX, |t| t.0),
                (self.fin_retransmitted as u64) | (self.fin_acked as u64) << 1,
                self.dupacks as u64,
                (self.in_recovery as u64) | (self.recover << 1),
                self.srtt.map_or(u64::MAX, |d| d.0),
                self.rttvar.0,
                self.rto.0,
                self.rto_deadline.map_or(u64::MAX, |t| t.0),
                self.consecutive_rtx as u64,
                self.rcv_nxt,
                self.peer_fin_off.map_or(u64::MAX, |o| o),
                (self.peer_fin_reached as u64)
                    | (self.ack_pending as u64) << 1
                    | (self.ack_forced as u64) << 2
                    | (self.pace_acks as u64) << 3
                    | (self.use_sack as u64) << 4,
                self.delayed_ack_deadline.map_or(u64::MAX, |t| t.0),
            ],
        );
        for (&off, f) in &self.in_flight {
            acc = fp::fold(
                acc,
                [
                    off,
                    f.data.len() as u64,
                    f.sent_at.0,
                    f.first_sent.0,
                    (f.retransmitted as u64) | (f.sacked as u64) << 1,
                ],
            );
        }
        for (&s, &e) in &self.ooo {
            acc = fp::fold(acc, [s, e]);
        }
        for (off, payload, is_fin) in &self.outbox {
            acc = fp::mix(acc, off.map_or(u64::MAX, |o| o));
            acc = fp::fold_bytes(acc, payload);
            acc = fp::mix(acc, *is_fin as u64);
        }
        acc = fp::fold_bytes(acc, format!("{:?}", self.signals).as_bytes());
        acc = fp::fold_bytes(acc, format!("{:?}", self.events).as_bytes());
        vec![acc]
    }
}

// ---------------------------------------------------------------------
// Contract driver (slverify::contracts::RdContract drives a *real*
// sender/receiver endpoint pair through this, exactly as CongCtrl drives
// RateController).
// ---------------------------------------------------------------------

/// The per-endpoint operations the RD assume/guarantee contract
/// exercises. Implemented by the shipped [`ReliableDelivery`] and by the
/// [`BuggyRd`] mutation canary (used as the sender arm).
pub trait RdDriver {
    fn push_segment(&mut self, now: Time, data: Vec<u8>);
    fn can_accept(&self) -> bool;
    fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool);
    fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)>;
    fn on_tick(&mut self, now: Time);
    fn poll_deadline(&self) -> Option<Time>;
    fn take_events(&mut self) -> Vec<RdEvent>;
    fn all_acked(&self) -> bool;
    fn rcv_next_offset(&self) -> u64;
    fn seq_validity(&self, wire_seq: u32) -> SeqValidity;
    /// See [`ReliableDelivery::contract_key`].
    fn contract_key(&self) -> Vec<u64>;
    fn box_clone(&self) -> Box<dyn RdDriver>;
}

impl Clone for Box<dyn RdDriver> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

impl RdDriver for ReliableDelivery {
    fn push_segment(&mut self, now: Time, data: Vec<u8>) {
        ReliableDelivery::push_segment(self, now, data)
    }
    fn can_accept(&self) -> bool {
        ReliableDelivery::can_accept(self)
    }
    fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool) {
        ReliableDelivery::on_packet(self, now, pkt, fin)
    }
    fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)> {
        ReliableDelivery::poll_packet(self, now)
    }
    fn on_tick(&mut self, now: Time) {
        ReliableDelivery::on_tick(self, now)
    }
    fn poll_deadline(&self) -> Option<Time> {
        ReliableDelivery::poll_deadline(self)
    }
    fn take_events(&mut self) -> Vec<RdEvent> {
        ReliableDelivery::take_events(self)
    }
    fn all_acked(&self) -> bool {
        ReliableDelivery::all_acked(self)
    }
    fn rcv_next_offset(&self) -> u64 {
        ReliableDelivery::rcv_next_offset(self)
    }
    fn seq_validity(&self, wire_seq: u32) -> SeqValidity {
        ReliableDelivery::seq_validity(self, wire_seq)
    }
    fn contract_key(&self) -> Vec<u64> {
        ReliableDelivery::contract_key(self)
    }
    fn box_clone(&self) -> Box<dyn RdDriver> {
        Box::new(self.clone())
    }
}

/// Mutation canary for the RD contract, mirroring [`slcc::BuggyDeflate`]:
/// a plausible refactor slip concludes that one retransmission per segment
/// is enough ("the first retry already covers the loss") and silently
/// drops every RTO retransmission after the first — so a lost retry is
/// never recovered and the byte is never delivered. Never wired into
/// product code; it exists so `RdContract` has a concrete counterexample
/// for its bounded-delivery obligation.
#[derive(Clone)]
pub struct BuggyRd {
    inner: ReliableDelivery,
    rtos: u32,
}

impl BuggyRd {
    pub fn new(snd_isn: u32, rcv_isn: u32, log: SharedLog) -> BuggyRd {
        BuggyRd { inner: ReliableDelivery::new(snd_isn, rcv_isn, log), rtos: 0 }
    }
}

impl RdDriver for BuggyRd {
    fn push_segment(&mut self, now: Time, data: Vec<u8>) {
        self.inner.push_segment(now, data)
    }
    fn can_accept(&self) -> bool {
        self.inner.can_accept()
    }
    fn on_packet(&mut self, now: Time, pkt: &Packet, fin: bool) {
        self.inner.on_packet(now, pkt, fin)
    }
    fn poll_packet(&mut self, now: Time) -> Option<(Packet, bool)> {
        self.inner.poll_packet(now)
    }
    fn on_tick(&mut self, now: Time) {
        let queued = self.inner.outbox.len();
        let timeouts = self.inner.stats.timeouts;
        self.inner.on_tick(now);
        if self.inner.stats.timeouts > timeouts {
            self.rtos += 1;
            if self.rtos >= 2 {
                // THE BUG: swallow the retransmission this RTO queued.
                self.inner.outbox.truncate(queued);
            }
        }
    }
    fn poll_deadline(&self) -> Option<Time> {
        self.inner.poll_deadline()
    }
    fn take_events(&mut self) -> Vec<RdEvent> {
        self.inner.take_events()
    }
    fn all_acked(&self) -> bool {
        self.inner.all_acked()
    }
    fn rcv_next_offset(&self) -> u64 {
        self.inner.rcv_next_offset()
    }
    fn seq_validity(&self, wire_seq: u32) -> SeqValidity {
        self.inner.seq_validity(wire_seq)
    }
    fn contract_key(&self) -> Vec<u64> {
        let mut k = self.inner.contract_key();
        k.push(self.rtos as u64);
        k
    }
    fn box_clone(&self) -> Box<dyn RdDriver> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rd() -> ReliableDelivery {
        ReliableDelivery::new(1000, 2000, slmetrics::shared())
    }

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::from_millis(ms)
    }

    /// Build an inbound packet as the peer would (peer's snd_isn = our
    /// rcv_isn = 2000).
    fn peer_data(seq_off: u64, data: &[u8], ack_off: Option<u64>) -> Packet {
        let mut p = Packet::default();
        p.rd.seq = 2000u32.wrapping_add(1).wrapping_add(seq_off as u32);
        if let Some(a) = ack_off {
            p.rd.has_ack = true;
            p.rd.ack = 1000u32.wrapping_add(1).wrapping_add(a as u32);
        }
        p.payload = data.to_vec();
        p
    }

    #[test]
    fn push_assigns_sequential_offsets() {
        let mut r = rd();
        r.push_segment(t(0), vec![1; 100]);
        r.push_segment(t(0), vec![2; 50]);
        let (p1, _) = r.poll_packet(t(0)).unwrap();
        let (p2, _) = r.poll_packet(t(0)).unwrap();
        assert_eq!(p1.rd.seq, 1001);
        assert_eq!(p2.rd.seq, 1101);
        assert_eq!(r.bytes_unacked(), 150);
    }

    #[test]
    fn cumulative_ack_clears_in_flight() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100]);
        r.push_segment(t(0), vec![0; 100]);
        r.on_packet(t(50), &peer_data(0, &[], Some(200)), false);
        assert!(r.all_acked());
        let sigs = r.take_signals();
        assert_eq!(sigs.len(), 1);
        match sigs[0] {
            CongSignal::Acked { bytes, rtt } => {
                assert_eq!(bytes, 200);
                assert_eq!(rtt, Some(Dur::from_millis(50)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_order_delivery_goes_up_immediately() {
        // The paper: "segments may be delivered out of order by the RD
        // sublayer" — reordering is OSR's job.
        let mut r = rd();
        r.on_packet(t(0), &peer_data(100, &[9; 50], None), false);
        let ev = r.take_events();
        assert_eq!(ev, vec![RdEvent::Delivered { offset: 100, data: vec![9; 50] }]);
        // The cumulative ack still says 0.
        let (ack, _) = r.poll_packet(t(0)).unwrap();
        assert_eq!(ack.rd.ack, 2001);
        // And a SACK range advertises the island.
        assert_eq!(ack.rd.sack.len(), 1);
        assert_eq!(ack.rd.sack[0].start, 2001 + 100);
        assert_eq!(ack.rd.sack[0].end, 2001 + 150);
    }

    #[test]
    fn duplicates_are_dropped_exactly_once() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(0, &[7; 100], None), false);
        assert_eq!(r.take_events().len(), 1);
        r.on_packet(t(1), &peer_data(0, &[7; 100], None), false);
        assert!(r.take_events().is_empty(), "duplicate must not be redelivered");
        assert_eq!(r.stats.duplicate_payload_dropped, 1);
    }

    #[test]
    fn partial_overlap_delivers_only_novel_bytes() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(0, &[1; 100], None), false);
        r.take_events();
        // Retransmission covering [50, 150): only [100, 150) is new.
        r.on_packet(t(1), &peer_data(50, &[2; 100], None), false);
        let ev = r.take_events();
        assert_eq!(ev, vec![RdEvent::Delivered { offset: 100, data: vec![2; 50] }]);
        assert_eq!(r.rcv_next_offset(), 150);
    }

    #[test]
    fn cumulative_ack_advances_over_merged_ranges() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(100, &[2; 100], None), false);
        assert_eq!(r.rcv_next_offset(), 0);
        r.on_packet(t(1), &peer_data(0, &[1; 100], None), false);
        assert_eq!(r.rcv_next_offset(), 200);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit_and_signal() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100]);
        r.push_segment(t(0), vec![0; 100]);
        while r.poll_packet(t(0)).is_some() {}
        for i in 0..3 {
            r.on_packet(t(10 + i), &peer_data(0, &[], Some(0)), false);
        }
        assert_eq!(r.stats.fast_retransmits, 1);
        assert!(r.take_signals().contains(&CongSignal::DupAckLoss));
        // The retransmission is the first unacked segment.
        let (p, _) = r.poll_packet(t(20)).unwrap();
        assert_eq!(p.rd.seq, 1001);
        assert_eq!(p.payload.len(), 100);
    }

    #[test]
    fn sacked_segments_are_skipped_on_retransmit() {
        let mut r = rd();
        r.push_segment(t(0), vec![1; 100]); // offsets 0..100
        r.push_segment(t(0), vec![2; 100]); // offsets 100..200
        while r.poll_packet(t(0)).is_some() {}
        // Peer SACKs the *first* segment but cumulative ack stays 0
        // (contrived, but exercises the skip logic).
        let mut p = peer_data(0, &[], Some(0));
        p.rd.sack = vec![SackRange { start: 1001, end: 1001 + 100 }];
        for _ in 0..3 {
            r.on_packet(t(10), &p.clone(), false);
        }
        let (rtx, _) = r.poll_packet(t(20)).unwrap();
        assert_eq!(rtx.rd.seq, 1101, "retransmit must skip the SACKed segment");
        assert!(r.stats.sacked_skips > 0);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100]);
        while r.poll_packet(t(0)).is_some() {}
        let d1 = r.poll_deadline().unwrap();
        r.on_tick(d1);
        assert_eq!(r.stats.retransmits, 1);
        assert!(r.take_signals().contains(&CongSignal::TimeoutLoss));
        let d2 = r.poll_deadline().unwrap();
        assert!(d2.since(d1) > Dur::ZERO);
        assert_eq!(d2.since(d1), Dur::from_secs(2), "doubled RTO");
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100]);
        while r.poll_packet(t(0)).is_some() {}
        let d = r.poll_deadline().unwrap();
        r.on_tick(d); // retransmitted
        r.on_packet(t(5000), &peer_data(0, &[], Some(100)), false);
        // The ack closes the RTO-recovery episode (FullAck); Karn's rule
        // still forbids an RTT sample from the retransmitted segment.
        match r.take_signals().last() {
            Some(CongSignal::FullAck { rtt, .. }) => assert_eq!(*rtt, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fin_consumes_one_unit_and_is_acked() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 10]);
        r.send_fin(t(0));
        let (_, f1) = r.poll_packet(t(0)).unwrap();
        assert!(!f1);
        let (fin_pkt, is_fin) = r.poll_packet(t(0)).unwrap();
        assert!(is_fin);
        assert_eq!(fin_pkt.rd.seq, 1011);
        // Ack everything incl. the FIN.
        r.on_packet(t(10), &peer_data(0, &[], Some(11)), false);
        assert!(r.fin_acked());
        assert!(r.all_acked());
        assert!(r.take_events().contains(&RdEvent::LocalFinAcked));
    }

    #[test]
    fn peer_fin_reached_only_in_sequence() {
        let mut r = rd();
        // FIN at offset 100 (after 100 bytes we haven't seen yet).
        let mut p = peer_data(100, &[], None);
        p.rd.seq = 2001 + 100;
        r.on_packet(t(0), &p, true);
        assert!(!r.peer_fin_reached());
        // Now the data arrives; the FIN is reached.
        r.on_packet(t(1), &peer_data(0, &[3; 100], None), false);
        assert!(r.peer_fin_reached());
        assert!(r.take_events().contains(&RdEvent::PeerFinReached));
        // The ack covers the FIN: 100 bytes + 1.
        let (ack, _) = r.poll_packet(t(2)).unwrap();
        assert_eq!(ack.rd.ack, 2001 + 101);
    }

    #[test]
    fn fin_retransmitted_on_rto() {
        let mut r = rd();
        r.send_fin(t(0));
        while r.poll_packet(t(0)).is_some() {}
        let d = r.poll_deadline().unwrap();
        r.on_tick(d);
        let (p, is_fin) = r.poll_packet(d).unwrap();
        assert!(is_fin);
        assert_eq!(p.rd.seq, 1001);
    }

    #[test]
    fn pure_ack_emitted_when_owed() {
        let mut r = rd();
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        let (ack, is_fin) = r.poll_packet(t(0)).unwrap();
        assert!(!is_fin);
        assert!(ack.payload.is_empty());
        assert_eq!(ack.rd.ack, 2011);
        assert!(r.poll_packet(t(0)).is_none(), "ack owed only once");
    }

    #[test]
    fn unwrap_handles_sequence_wraparound() {
        // near the 32-bit boundary
        // base = isn+1 = u32::MAX - 9; wire 5 unwraps to raw offset 15,
        // which near `2^32 - 20` means the *second* lap: 2^32 + 15.
        let off = ReliableDelivery::unwrap(u32::MAX - 10, 5, (1u64 << 32) - 20);
        assert_eq!(off, (1u64 << 32) + 15);
    }

    #[test]
    fn merge_range_coalesces() {
        let mut m = BTreeMap::new();
        ReliableDelivery::merge_range(&mut m, 10, 20);
        ReliableDelivery::merge_range(&mut m, 30, 40);
        ReliableDelivery::merge_range(&mut m, 15, 35);
        assert_eq!(m.into_iter().collect::<Vec<_>>(), vec![(10, 40)]);
    }

    #[test]
    fn merge_range_adjacent() {
        let mut m = BTreeMap::new();
        ReliableDelivery::merge_range(&mut m, 0, 10);
        ReliableDelivery::merge_range(&mut m, 10, 20);
        assert_eq!(m.into_iter().collect::<Vec<_>>(), vec![(0, 20)]);
    }

    #[test]
    fn rto_backs_off_exponentially_then_gives_up() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100]);
        let _ = r.poll_packet(t(0));
        let mut now;
        let mut prev_rto = r.current_rto();
        for i in 1..=MAX_RETRIES {
            now = r.poll_deadline().expect("timer armed while unacked");
            r.on_tick(now);
            assert_eq!(r.consecutive_retries(), i);
            // Doubled, up to the 60 s ceiling.
            assert_eq!(r.current_rto(), Dur((prev_rto.0 * 2).min(60_000_000_000)));
            prev_rto = r.current_rto();
            let (pkt, _) = r.poll_packet(now).expect("retransmission queued");
            assert_eq!(pkt.rd.seq, 1001);
        }
        assert!(!r.take_events().contains(&RdEvent::RetriesExhausted));
        // One more expiry crosses the budget: no retransmission, the
        // timer stops, and the give-up event surfaces.
        now = r.poll_deadline().unwrap();
        r.on_tick(now);
        assert_eq!(r.take_events(), vec![RdEvent::RetriesExhausted]);
        assert!(r.poll_packet(now).is_none());
        assert!(r.poll_deadline().is_none(), "no retry timer after give-up");
        assert_eq!(r.stats.retransmits as u32, MAX_RETRIES);
    }

    #[test]
    fn ack_progress_resets_retry_budget() {
        let mut r = rd();
        r.push_segment(t(0), vec![0; 100]);
        r.push_segment(t(0), vec![1; 100]);
        let _ = r.poll_packet(t(0));
        let _ = r.poll_packet(t(0));
        let d = r.poll_deadline().unwrap();
        r.on_tick(d);
        assert_eq!(r.consecutive_retries(), 1);
        // A cumulative ack covering the first segment is progress.
        r.on_packet(d + Dur::from_millis(1), &peer_data(0, &[], Some(100)), false);
        assert_eq!(r.consecutive_retries(), 0);
    }

    #[test]
    fn ack_pacing_defers_then_flushes_pure_acks() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert!(r.poll_packet(t(0)).is_none(), "first poll arms the delay");
        assert_eq!(r.stats.acks_paced, 1);
        let d = r.poll_deadline().expect("delayed-ack deadline armed");
        assert_eq!(d, t(50));
        assert!(r.poll_packet(t(10)).is_none(), "still held before the deadline");
        let (ack, _) = r.poll_packet(d).expect("flushed at the deadline");
        assert_eq!(ack.rd.ack, 2011);
        assert!(r.poll_deadline().is_none(), "nothing left armed");
    }

    #[test]
    fn forced_acks_bypass_pacing() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.force_ack();
        assert!(r.poll_packet(t(0)).is_some(), "window updates are never held");
    }

    #[test]
    fn data_segment_carries_a_held_ack() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert!(r.poll_packet(t(0)).is_none());
        r.push_segment(t(1), vec![9; 10]);
        let (p, _) = r.poll_packet(t(1)).unwrap();
        assert_eq!(p.rd.ack, 2011, "ack rides the data segment");
        assert!(r.poll_packet(t(1)).is_none(), "no separate bare ack owed");
    }

    #[test]
    fn pacing_off_releases_a_held_ack() {
        let mut r = rd();
        r.set_ack_pacing(true);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert!(r.poll_packet(t(0)).is_none());
        r.set_ack_pacing(false);
        assert!(r.poll_packet(t(1)).is_some(), "released as soon as pacing ends");
    }

    #[test]
    fn progress_counts_both_directions() {
        let mut r = rd();
        assert_eq!(r.progress_bytes(), 0);
        r.on_packet(t(0), &peer_data(0, &[1; 10], None), false);
        assert_eq!(r.progress_bytes(), 10, "in-order receive progress");
        r.push_segment(t(1), vec![2; 20]);
        let _ = r.poll_packet(t(1));
        assert_eq!(r.progress_bytes(), 10, "unacked sends are not progress");
        r.on_packet(t(2), &peer_data(10, &[], Some(20)), false);
        assert_eq!(r.progress_bytes(), 30, "acked sends count");
    }

    #[test]
    fn keepalive_probe_is_behind_snd_nxt_and_gets_answered() {
        let mut r = rd();
        assert!(!r.send_keepalive_probe(), "nothing sent yet: unprobeable");
        r.push_segment(t(0), vec![5; 100]);
        let _ = r.poll_packet(t(0));
        r.on_packet(t(10), &peer_data(0, &[], Some(100)), false);
        assert!(r.send_keepalive_probe());
        let (probe, is_fin) = r.poll_packet(t(20)).unwrap();
        assert!(!is_fin);
        assert!(probe.payload.is_empty());
        assert_eq!(probe.rd.seq, 1001 + 99, "one unit behind snd_nxt");
        assert_eq!(r.stats.keepalive_probes, 1);

        // A peer that has received 100 bytes from us answers the probe
        // with a bare ack; an in-sequence pure ack stays unanswered.
        let mut peer = ReliableDelivery::new(2000, 1000, slmetrics::shared());
        let mut data = Packet::default();
        data.rd.seq = 1001;
        data.payload = vec![5; 100];
        peer.on_packet(t(5), &data, false);
        let _ = peer.poll_packet(t(5)); // drain the data ack
        let mut plain_ack = Packet::default();
        plain_ack.rd.seq = 1001 + 100;
        plain_ack.rd.has_ack = true;
        plain_ack.rd.ack = 2001;
        peer.on_packet(t(21), &plain_ack, false);
        assert!(peer.poll_packet(t(21)).is_none(), "in-sequence ack: silent");
        let mut probe_pkt = Packet::default();
        probe_pkt.rd.seq = 1001 + 99;
        probe_pkt.rd.has_ack = true;
        probe_pkt.rd.ack = 2001;
        peer.on_packet(t(22), &probe_pkt, false);
        let (answer, _) = peer.poll_packet(t(22)).expect("probe must be acked");
        assert!(answer.payload.is_empty());
        assert_eq!(answer.rd.ack, 1001 + 100);
    }
}
