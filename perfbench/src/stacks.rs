//! The two stacks under test behind one benchmark-facing trait.
//!
//! Both run with a muted access log: the entanglement log is a measuring
//! instrument, not part of the datapath.

use slhost::HostStack;
use sublayer_core::{ConnId, SlConfig, SlTcpStack};
use tcp_mono::wire::FourTuple;
use tcp_mono::TcpStack;

/// Which stack: `sub` is the sublayered stack, `mono` the monolith.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sub,
    Mono,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sub => "sub",
            Kind::Mono => "mono",
        }
    }
}

/// Span names of one stack, so every span key is a `&'static str`.
pub struct Names {
    pub on_frame: &'static str,
    pub poll_transmit: &'static str,
    pub poll_deadline: &'static str,
    pub on_tick: &'static str,
    pub app_send: &'static str,
    pub app_recv: &'static str,
    pub host_on_frame: &'static str,
    pub host_poll_transmit: &'static str,
    pub host_poll_deadline: &'static str,
    pub host_on_tick: &'static str,
    pub host_event: &'static str,
    pub host_connect: &'static str,
    pub shard_on_frame: &'static str,
    pub shard_flush: &'static str,
    pub shard_poll_transmit: &'static str,
    pub shard_poll_deadline: &'static str,
}

macro_rules! names {
    ($k:literal) => {
        Names {
            on_frame: concat!("stack.", $k, ".on_frame"),
            poll_transmit: concat!("stack.", $k, ".poll_transmit"),
            poll_deadline: concat!("stack.", $k, ".poll_deadline"),
            on_tick: concat!("stack.", $k, ".on_tick"),
            app_send: concat!("stack.", $k, ".send"),
            app_recv: concat!("stack.", $k, ".recv"),
            host_on_frame: concat!("slhost.", $k, ".on_frame"),
            host_poll_transmit: concat!("slhost.", $k, ".poll_transmit"),
            host_poll_deadline: concat!("slhost.", $k, ".poll_deadline"),
            host_on_tick: concat!("slhost.", $k, ".on_tick"),
            host_event: concat!("slhost.", $k, ".event"),
            host_connect: concat!("slhost.", $k, ".connect"),
            shard_on_frame: concat!("slshard.", $k, ".on_frame"),
            shard_flush: concat!("slshard.", $k, ".flush"),
            shard_poll_transmit: concat!("slshard.", $k, ".poll_transmit"),
            shard_poll_deadline: concat!("slshard.", $k, ".poll_deadline"),
        }
    };
}

static SUB_NAMES: Names = names!("sub");
static MONO_NAMES: Names = names!("mono");

/// Per-stack counters the benchmark reads after a pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub dup_dropped: u64,
    pub segments_sent: u64,
    pub acks_sent: u64,
    /// Sublayer boundary crossings (`SlTcpStack::crossings`), sub only.
    pub crossings: u64,
    pub signals_up: u64,
    pub data_segments: u64,
    pub challenge_acks: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.retransmits += o.retransmits;
        self.fast_retransmits += o.fast_retransmits;
        self.timeouts += o.timeouts;
        self.dup_dropped += o.dup_dropped;
        self.segments_sent += o.segments_sent;
        self.acks_sent += o.acks_sent;
        self.crossings += o.crossings;
        self.signals_up += o.signals_up;
        self.data_segments += o.data_segments;
        self.challenge_acks += o.challenge_acks;
    }

    /// The counts accrued since `base`, a snapshot of the same counters.
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            retransmits: self.retransmits.saturating_sub(base.retransmits),
            fast_retransmits: self.fast_retransmits.saturating_sub(base.fast_retransmits),
            timeouts: self.timeouts.saturating_sub(base.timeouts),
            dup_dropped: self.dup_dropped.saturating_sub(base.dup_dropped),
            segments_sent: self.segments_sent.saturating_sub(base.segments_sent),
            acks_sent: self.acks_sent.saturating_sub(base.acks_sent),
            crossings: self.crossings.saturating_sub(base.crossings),
            signals_up: self.signals_up.saturating_sub(base.signals_up),
            data_segments: self.data_segments.saturating_sub(base.data_segments),
            challenge_acks: self.challenge_acks.saturating_sub(base.challenge_acks),
        }
    }
}

/// A stack the benchmark can build and read counters from.
pub trait BenchStack: HostStack + Sized {
    const KIND: Kind;

    fn build(addr: u32) -> Self;

    fn names() -> &'static Names {
        match Self::KIND {
            Kind::Sub => &SUB_NAMES,
            Kind::Mono => &MONO_NAMES,
        }
    }

    /// Per-connection retransmission counters of a live connection (sub:
    /// RD's `RdStats`; mono keeps them stack-wide, see [`stack_counters`]).
    ///
    /// [`stack_counters`]: BenchStack::stack_counters
    fn conn_counters(&self, id: Self::ConnId) -> Counters;

    /// Stack-wide counters (crossings and challenge acks on sub; the
    /// retransmission counters of `TcpStats` on mono).
    fn stack_counters(&self) -> Counters;

    /// The 4-tuple of a connection as its own stack sees it.
    fn tuple_of(&self, id: Self::ConnId) -> Option<FourTuple>;
}

impl BenchStack for SlTcpStack {
    const KIND: Kind = Kind::Sub;

    fn build(addr: u32) -> Self {
        SlTcpStack::new(addr, SlConfig::default(), slmetrics::muted())
    }

    fn conn_counters(&self, id: ConnId) -> Counters {
        let Some(rd) = self.rd_stats(id) else {
            return Counters::default();
        };
        Counters {
            retransmits: rd.retransmits,
            fast_retransmits: rd.fast_retransmits,
            timeouts: rd.timeouts,
            dup_dropped: rd.duplicate_payload_dropped,
            segments_sent: rd.segments_sent,
            acks_sent: rd.acks_sent,
            ..Counters::default()
        }
    }

    fn stack_counters(&self) -> Counters {
        let c = &self.crossings;
        Counters {
            crossings: c.osr_to_rd_segments
                + c.rd_to_osr_segments
                + c.signals_up
                + c.packets_tx
                + c.packets_rx,
            signals_up: c.signals_up,
            data_segments: c.osr_to_rd_segments,
            challenge_acks: self.challenge_acks(),
            ..Counters::default()
        }
    }

    fn tuple_of(&self, id: ConnId) -> Option<FourTuple> {
        self.tuple(id)
    }
}

impl BenchStack for TcpStack {
    const KIND: Kind = Kind::Mono;

    fn build(addr: u32) -> Self {
        TcpStack::new(addr, slmetrics::muted())
    }

    fn conn_counters(&self, _id: FourTuple) -> Counters {
        Counters::default()
    }

    fn stack_counters(&self) -> Counters {
        let s = &self.stats;
        Counters {
            retransmits: s.rto_retransmits + s.fast_retransmits,
            fast_retransmits: s.fast_retransmits,
            segments_sent: s.segs_sent,
            challenge_acks: s.challenge_acks,
            ..Counters::default()
        }
    }

    fn tuple_of(&self, id: FourTuple) -> Option<FourTuple> {
        Some(id)
    }
}
