//! The Protocol Control Block: **all** connection state in one struct.
//!
//! This is the paper's §2.3 exhibit: "the state maintained by the
//! transport layer (e.g., sequence numbers, window sizes, etc.) is shared
//! by all of these subfunctions, which leads to non-modular code". The
//! fields below are read and written by demultiplexing, connection
//! management, reliable delivery, congestion control, flow control and the
//! timer machinery alike — exactly the entangled layout of the BSD/lwIP
//! PCB. The instrumentation in `stack.rs` records every subfunction's
//! accesses so experiment E6 can quantify the sharing.

use crate::wire::FourTuple;
use netsim::{Dur, Time};
use slcc::{CongSignal, NewReno, RateController};
use std::collections::{BTreeMap, VecDeque};

/// RFC 793 connection states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpState {
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    Closing,
    TimeWait,
    CloseWait,
    LastAck,
    Closed,
}

impl TcpState {
    /// May the application still send data?
    pub fn can_send(&self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }
}

/// Default maximum segment size (payload bytes per segment).
pub const DEFAULT_MSS: u16 = 1000;
/// Receive buffer capacity; the advertised window is its free space.
pub const RCV_BUF_CAP: usize = 64 * 1024 - 1;
/// Initial retransmission timeout.
pub const INITIAL_RTO: Dur = Dur(1_000_000_000);
/// RTO bounds.
pub const MIN_RTO: Dur = Dur(200_000_000);
pub const MAX_RTO: Dur = Dur(60_000_000_000);
/// 2*MSL for TIME_WAIT (shortened for simulation practicality).
pub const TIME_WAIT_DUR: Dur = Dur(10_000_000_000);
/// Connection-establishment retry limit.
pub const MAX_SYN_RETRIES: u32 = 6;
/// Data retransmission limit before the connection is aborted.
pub const MAX_RETRIES: u32 = 10;

/// The monolithic protocol control block.
pub struct Pcb {
    pub tuple: FourTuple,
    pub state: TcpState,

    // --- send sequence space (RFC 793 SND.*) ---
    pub iss: u32,
    pub snd_una: u32,
    pub snd_nxt: u32,
    /// Highest sequence ever sent (BSD's `snd_max`); `snd_nxt` rewinds to
    /// `snd_una` on retransmission timeout but acks up to `snd_max` remain
    /// valid.
    pub snd_max: u32,
    /// Peer-advertised window.
    pub snd_wnd: u32,
    /// Segment/ack used for the last window update (RFC 793 WL1/WL2).
    pub snd_wl1: u32,
    pub snd_wl2: u32,

    // --- receive sequence space (RCV.*) ---
    pub irs: u32,
    pub rcv_nxt: u32,

    // --- congestion control (entangled with everything) ---
    /// The pluggable controller — the same shared [`RateController`] set
    /// the sublayered stack selects from (the paper's swap claim, cashed
    /// in for the monolith). The *feeder* state below (dupacks, recover,
    /// in_fast_recovery) stays in the PCB: classifying acks against the
    /// recovery point is sequence arithmetic, which the controller never
    /// sees.
    pub cc: Box<dyn RateController>,
    /// CC observability: window samples and loss/recovery event counts,
    /// in the shared `slmetrics` shape both stacks fill (E19).
    pub cc_stats: slmetrics::CcCounters,
    pub dupacks: u32,
    /// Right edge of fast recovery (NewReno `recover`).
    pub recover: u32,
    pub in_fast_recovery: bool,
    /// F-RTO (RFC 5682, simplified): the pre-timeout `snd_max`, armed by
    /// the first RTO of a loss episode. While set, ack progress decides
    /// between "spurious — cancel the go-back-N replay" and "genuine —
    /// keep the conventional rewind" (see `stack.rs` ACK processing).
    pub frto_mark: Option<u32>,
    /// The first post-RTO ack advance was seen (F-RTO step 2 taken).
    pub frto_probed: bool,

    // --- RTT estimation ---
    pub srtt: Option<Dur>,
    pub rttvar: Dur,
    pub rto: Dur,
    /// Sequence being timed (Karn: only un-retransmitted samples count).
    pub rtt_timing: Option<(u32, Time)>,

    // --- buffers ---
    /// Unacknowledged + unsent payload bytes; `snd_buf_seq` is the
    /// sequence number of `snd_buf[0]`.
    pub snd_buf: VecDeque<u8>,
    pub snd_buf_seq: u32,
    /// In-order bytes awaiting the application.
    pub rcv_buf: VecDeque<u8>,
    /// Out-of-order segments keyed by sequence number.
    pub ooo: BTreeMap<u32, Vec<u8>>,

    // --- close handshake ---
    /// Application called close; FIN goes out after the buffer drains.
    pub fin_queued: bool,
    /// Sequence number our FIN occupies once sent.
    pub fin_seq: Option<u32>,

    // --- timers ---
    pub rto_deadline: Option<Time>,
    pub time_wait_deadline: Option<Time>,
    /// Zero-window probe timer.
    pub persist_deadline: Option<Time>,
    pub retries: u32,

    // --- keepalive ---
    /// Last time any segment arrived for this connection.
    pub last_rx: Time,
    /// Unanswered keepalive probes since `last_rx`.
    pub ka_probes: u32,

    /// When the oldest currently-unacked data last made cumulative-ack
    /// progress (armed when data goes outstanding, re-anchored on every
    /// ack advance, cleared when all acked). During a partition this ages
    /// linearly while `snd_buf` stays capped at
    /// [`SND_BUF_CAP`](crate::stack::SND_BUF_CAP) — the oldest-segment
    /// accounting the host's resource budget reads.
    pub una_since: Option<Time>,

    pub mss: u32,
    /// Set when we owe the peer an ACK.
    pub ack_pending: bool,
    /// Pressure-driven delayed-ACK deadline. Note the entanglement: this
    /// one field is armed by the output path, cleared by the receive path,
    /// inspected by the timer scan, and gated by stack-global pressure —
    /// four subfunctions sharing a timer the sublayered stack keeps
    /// private inside RD.
    pub delayed_ack_deadline: Option<Time>,
}

impl Pcb {
    pub fn new(tuple: FourTuple, state: TcpState, iss: u32) -> Pcb {
        Self::with_cc(tuple, state, iss, Box::new(NewReno::new()))
    }

    /// Construct with an explicit (already-validated) rate controller.
    pub fn with_cc(
        tuple: FourTuple,
        state: TcpState,
        iss: u32,
        cc: Box<dyn RateController>,
    ) -> Pcb {
        Pcb {
            tuple,
            state,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            snd_wl1: 0,
            snd_wl2: 0,
            irs: 0,
            rcv_nxt: 0,
            cc,
            cc_stats: slmetrics::CcCounters::default(),
            dupacks: 0,
            recover: iss,
            in_fast_recovery: false,
            frto_mark: None,
            frto_probed: false,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: INITIAL_RTO,
            rtt_timing: None,
            snd_buf: VecDeque::new(),
            snd_buf_seq: iss.wrapping_add(1),
            rcv_buf: VecDeque::new(),
            ooo: BTreeMap::new(),
            fin_queued: false,
            fin_seq: None,
            rto_deadline: None,
            time_wait_deadline: None,
            persist_deadline: None,
            retries: 0,
            last_rx: Time::ZERO,
            ka_probes: 0,
            una_since: None,
            mss: DEFAULT_MSS as u32,
            ack_pending: false,
            delayed_ack_deadline: None,
        }
    }

    /// Free space in the receive buffer = advertised window.
    pub fn rcv_wnd(&self) -> u32 {
        (RCV_BUF_CAP - self.rcv_buf.len()) as u32
    }

    /// Bytes in flight.
    pub fn flight_size(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Current congestion allowance in bytes, clamped to window width.
    pub fn cwnd(&self, now: Time) -> u32 {
        self.cc.allowance(now).min(u32::MAX as u64) as u32
    }

    /// Feed one congestion signal to the controller, keeping the
    /// observability counters in step (the same [`slmetrics::CcCounters`]
    /// shape the sublayered OSR fills).
    pub fn feed_cc(&mut self, now: Time, sig: CongSignal) {
        match sig {
            CongSignal::DupAckLoss => {
                self.cc_stats.dupack_losses = self.cc_stats.dupack_losses.saturating_add(1)
            }
            CongSignal::PartialAck { .. } => {
                self.cc_stats.partial_acks = self.cc_stats.partial_acks.saturating_add(1)
            }
            CongSignal::TimeoutLoss => {
                self.cc_stats.rto_resets = self.cc_stats.rto_resets.saturating_add(1)
            }
            CongSignal::EcnEcho => {
                self.cc_stats.ecn_signals = self.cc_stats.ecn_signals.saturating_add(1)
            }
            _ => {}
        }
        let was_in_recovery = self.cc.in_recovery();
        self.cc.on_signal(now, sig);
        if !was_in_recovery && self.cc.in_recovery() {
            self.cc_stats.fast_recoveries = self.cc_stats.fast_recoveries.saturating_add(1);
        }
        self.cc_stats.sample(self.cc.allowance(now), self.cc.ssthresh());
    }

    /// Has every byte (and FIN, if queued) been acknowledged?
    pub fn all_acked(&self) -> bool {
        self.snd_buf.is_empty() && self.snd_una == self.snd_nxt
    }

    /// How long the oldest unacked data has gone without ack progress.
    /// `None` when nothing is outstanding.
    pub fn oldest_unacked_age(&self, now: Time) -> Option<Dur> {
        self.una_since.map(|t| now.since(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Endpoint;

    fn pcb() -> Pcb {
        let t = FourTuple {
            local: Endpoint::new(1, 10),
            remote: Endpoint::new(2, 20),
        };
        Pcb::new(t, TcpState::SynSent, 1000)
    }

    #[test]
    fn fresh_pcb_invariants() {
        let p = pcb();
        assert_eq!(p.snd_una, 1000);
        assert_eq!(p.snd_nxt, 1000);
        assert_eq!(p.snd_buf_seq, 1001, "payload starts after the SYN");
        assert_eq!(p.rcv_wnd(), RCV_BUF_CAP as u32);
        assert!(p.all_acked());
        assert_eq!(p.flight_size(), 0);
    }

    #[test]
    fn rcv_wnd_shrinks_with_buffered_data() {
        let mut p = pcb();
        p.rcv_buf.extend(std::iter::repeat_n(0u8, 1000));
        assert_eq!(p.rcv_wnd(), (RCV_BUF_CAP - 1000) as u32);
    }

    #[test]
    fn state_can_send() {
        assert!(TcpState::Established.can_send());
        assert!(TcpState::CloseWait.can_send());
        assert!(!TcpState::FinWait1.can_send());
        assert!(!TcpState::Listen.can_send());
    }

    #[test]
    fn flight_size_wraps() {
        let mut p = pcb();
        p.snd_una = u32::MAX - 10;
        p.snd_nxt = 20;
        assert_eq!(p.flight_size(), 31);
    }
}
