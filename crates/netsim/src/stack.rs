//! Sans-IO protocol stack adapter.
//!
//! Protocol endpoints in this workspace (ARQ machines, both TCPs, routing
//! daemons) are written *sans-IO*, in the style of event-driven stacks like
//! smoltcp: a [`Stack`] is a pure state machine that consumes frames and the
//! clock, and is polled for frames to transmit and for its next timer
//! deadline. This keeps protocol logic directly unit-testable — you can feed
//! it frames by hand — while [`StackNode`] adapts any `Stack` onto a
//! simulator [`Node`].
//!
//! [`HostStack`] is the transport contract on top of [`Stack`]: what a
//! multi-connection host, a sharded server or a campaign driver needs from
//! a TCP. The sublayered stack (`sublayer-core`) and the monolithic
//! baseline (`tcp-mono`) each implement it once, in place; the idle
//! [`Stack`] polls of both are the generic scans [`poll_transmit_all`],
//! [`poll_deadline_all`] and [`on_tick_all`] over its per-connection
//! primitives.

use crate::net::{Node, NodeCtx, PortId, TimerId};
use crate::time::{Dur, Time};
use slmetrics::{AttackCounters, CcCounters, Pressure};
use std::fmt;
use std::hash::Hash;

/// One end of a connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    pub addr: u32,
    pub port: u16,
}

impl Endpoint {
    pub fn new(addr: u32, port: u16) -> Endpoint {
        Endpoint { addr, port }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}:{}", b[0], b[1], b[2], b[3], self.port)
    }
}

/// Connection identifier: the classic 4-tuple, oriented (local, remote).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FourTuple {
    pub local: Endpoint,
    pub remote: Endpoint,
}

impl fmt::Debug for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}<->{:?}", self.local, self.remote)
    }
}

/// Addressing read off a raw frame without full decode — just enough for
/// a host to demux (inbound) or route (outbound) in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    pub src: Endpoint,
    pub dst: Endpoint,
}

impl FrameMeta {
    /// The 4-tuple as seen by the *receiving* host.
    pub fn tuple_at_dst(&self) -> FourTuple {
        FourTuple { local: self.dst, remote: self.src }
    }
}

/// Terminal connection failure surfaced by a transport stack.
///
/// Graceful degradation contract: when a peer vanishes or a link stays
/// partitioned past the retry budget, a stack must *abort* the affected
/// connection and report one of these — never hang, spin, or panic. Both the
/// sublayered stack and the monolithic baseline surface the same vocabulary
/// so chaos campaigns can assert parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransportError {
    /// Data retransmissions were exhausted without the peer acknowledging
    /// progress.
    RetriesExhausted,
    /// The peer reset the connection (inbound RST).
    Reset,
    /// Keepalive probes went unanswered; the peer is presumed gone.
    PeerVanished,
    /// The connection never completed establishment (SYN retries exhausted).
    HandshakeFailed,
    /// The host's connection table is at capacity; no new connection can
    /// be admitted (accept path refuses, active open fails typed).
    ConnTableFull,
    /// Every ephemeral port toward the requested remote endpoint is in
    /// use; an active open cannot be given a local port.
    PortsExhausted,
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::RetriesExhausted => write!(f, "connection aborted: retries exhausted"),
            TransportError::Reset => write!(f, "connection reset by peer"),
            TransportError::PeerVanished => write!(f, "connection aborted: peer vanished"),
            TransportError::HandshakeFailed => write!(f, "connection aborted: handshake failed"),
            TransportError::ConnTableFull => write!(f, "connection refused: connection table full"),
            TransportError::PortsExhausted => write!(f, "connect failed: ephemeral ports exhausted"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A poll-driven protocol endpoint.
pub trait Stack: 'static {
    /// Handle a frame received at `now`.
    fn on_frame(&mut self, now: Time, frame: &[u8]);

    /// Return the next frame to transmit, or `None` when idle. Called
    /// repeatedly until it returns `None`.
    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>>;

    /// The next instant at which [`Stack::on_tick`] must run, or `None` when
    /// no timer is pending. Deadlines at or before `now` mean "tick me
    /// immediately".
    fn poll_deadline(&self, now: Time) -> Option<Time>;

    /// Advance timers to `now`. Spurious calls (before any deadline) must be
    /// harmless.
    fn on_tick(&mut self, now: Time);
}

/// A poll-driven protocol endpoint attached to *several* links (a server
/// host facing many clients). Identical contract to [`Stack`] except that
/// frames are tagged with the port they arrived on / should leave by.
pub trait MultiStack: 'static {
    /// Handle a frame received on `port` at `now`.
    fn on_frame(&mut self, now: Time, port: PortId, frame: &[u8]);

    /// Next frame to transmit and the port to send it on, or `None` when
    /// idle. Called repeatedly until it returns `None`.
    fn poll_transmit(&mut self, now: Time) -> Option<(PortId, Vec<u8>)>;

    /// The next instant at which [`MultiStack::on_tick`] must run.
    fn poll_deadline(&self, now: Time) -> Option<Time>;

    /// Advance timers to `now`. Spurious calls must be harmless.
    fn on_tick(&mut self, now: Time);
}

/// What a transport must expose for a host (`slhost::Host`) to serve many
/// connections over it, and for a campaign to drive and read it:
/// listen/connect, per-connection I/O and state queries, the
/// per-connection timer/transmit split that lets the host tick only the
/// connections whose wheel entry fired, the overload-control knobs, and
/// the introspection the conformance and attack campaigns read. Both
/// stacks implement it with identical observable semantics; the
/// API-parity test (`slhost/tests/parity.rs`) runs one scripted scenario
/// against both.
pub trait HostStack: Stack {
    /// Connection handle (`ConnId` for the sublayered stack, the 4-tuple
    /// itself for the monolithic one).
    type ConnId: Copy + Ord + Eq + Hash + fmt::Debug + 'static;

    fn local_addr(&self) -> u32;
    /// Accept connections on `port`.
    fn listen(&mut self, port: u16);
    /// Bound the connection table (capacity beyond it refuses opens).
    fn set_max_conns(&mut self, max: usize);
    /// Active open, surfacing capacity as a typed error instead of a
    /// panic: a full connection table or an already-bound tuple both mean
    /// the table cannot admit this connection.
    fn try_connect(
        &mut self,
        now: Time,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<Self::ConnId, TransportError>;
    /// Active open with an ephemeral local port, surfacing port
    /// exhaustion and table capacity as typed errors.
    fn try_connect_ephemeral(
        &mut self,
        now: Time,
        remote: Endpoint,
    ) -> Result<Self::ConnId, TransportError>;
    /// Queue data; returns bytes accepted (short count = backpressure).
    fn send(&mut self, id: Self::ConnId, data: &[u8]) -> usize;
    /// Drain received in-order bytes.
    fn recv(&mut self, id: Self::ConnId) -> Vec<u8>;
    /// Graceful close (FIN after the send stream drains).
    fn close(&mut self, id: Self::ConnId);
    /// Hard reset; the connection's error reads
    /// [`TransportError::Reset`].
    fn abort(&mut self, now: Time, id: Self::ConnId);
    /// Synchronized and still open for the application.
    fn is_established(&self, id: Self::ConnId) -> bool;
    /// Fully gone (or never existed).
    fn is_closed(&self, id: Self::ConnId) -> bool;
    /// Peer's FIN processed (EOF after the readable bytes drain).
    fn peer_closed(&self, id: Self::ConnId) -> bool;
    /// Terminal error, surviving the connection's removal.
    fn conn_error(&self, id: Self::ConnId) -> Option<TransportError>;
    /// In-order received bytes available to `recv` without draining them.
    fn readable_len(&self, id: Self::ConnId) -> usize;
    /// How many bytes `send` would accept right now (0 once the stream is
    /// closing or the connection is gone).
    fn send_capacity(&self, id: Self::ConnId) -> usize;
    /// Established connections, sorted (the listener side discovers its
    /// peers here).
    fn established(&self) -> Vec<Self::ConnId>;
    fn conn_count(&self) -> usize;
    /// Every live connection, in table order (unsorted).
    fn conn_ids(&self) -> impl Iterator<Item = Self::ConnId> + '_;

    /// Read addressing off a raw frame without decoding the rest; `None`
    /// for frames too short or not this stack's wire format.
    fn classify_frame(frame: &[u8]) -> Option<FrameMeta>;
    /// O(1) hashed 4-tuple lookup (the host's demux path).
    fn conn_for_tuple(&self, tuple: &FourTuple) -> Option<Self::ConnId>;
    /// Pop one already-assembled outgoing frame (no connection scan).
    fn take_frame(&mut self) -> Option<Vec<u8>>;
    /// Run one connection's output machinery — the per-connection half of
    /// `poll_transmit`, for hosts that know which connection changed.
    fn pump_conn(&mut self, now: Time, id: Self::ConnId);
    /// Next timer deadline for one connection (what the host arms in the
    /// wheel instead of scanning every connection).
    fn conn_deadline(&self, now: Time, id: Self::ConnId) -> Option<Time>;
    /// Advance one connection's timers to `now` (the per-connection half
    /// of `on_tick`); spurious calls are harmless.
    fn tick_conn(&mut self, now: Time, id: Self::ConnId);
    /// Total inter-sublayer boundary crossings so far, for stacks that
    /// have internal boundaries (`None` for the monolithic baseline).
    /// The scale experiment reports this as crossing overhead per
    /// connection at high connection counts.
    fn crossing_events(&self) -> Option<u64> {
        None
    }

    // ---- overload control: the host pushes memory pressure down and
    // reads buffer occupancy / progress back up. Both stacks implement
    // the same contract (OSR occupancy → RD window clamp → CM pacing →
    // DM accept gating in the sublayered stack; one stack-global field
    // in the monolith) so the host's admission policy is stack-agnostic.

    /// Push the host's memory-pressure tier into the transport.
    fn set_pressure(&mut self, p: Pressure);
    /// Refuse all new inbound flows (drain / quiesce), independent of
    /// the pressure tier.
    fn gate_new_flows(&mut self, refuse: bool);
    /// Bytes this connection holds across transport buffers.
    fn conn_buffered(&self, id: Self::ConnId) -> usize;
    /// Monotone progress counter (bytes delivered + bytes acked); a flow
    /// whose counter stalls while holding buffers is a slow drainer.
    fn conn_progress(&self, id: Self::ConnId) -> u64;
    /// Total bytes held across all connection buffers — the memory bound
    /// the attack campaign checks.
    fn buffered_bytes(&self) -> usize;
    /// New flows refused statelessly (RST) because the transport's accept
    /// gate was closed by pressure or drain.
    fn stack_pressure_refusals(&self) -> u64;
    /// Bytes pinned in this connection's retransmit queue. Both stacks
    /// bound this (`RTX_BYTES_CAP` / `SND_BUF_CAP`), so a partition holds
    /// memory flat instead of growing it with the blocked sender.
    fn conn_rtx_bytes(&self, id: Self::ConnId) -> usize;
    /// Age of the oldest unacked segment — how long this connection has
    /// gone without cumulative ack progress. The partition-age signal the
    /// host's resource budget (`slhost::ResourceBudget`) reads to pick
    /// eviction victims: under memory pressure the flow stuck longest
    /// behind a dead path is the one to shed.
    fn conn_oldest_unacked(&self, id: Self::ConnId, now: Time) -> Option<Dur>;

    // ---- introspection for the conformance and attack campaigns.

    /// The next in-order wire sequence this endpoint accepts, for
    /// byte-precise injection aiming (what an exact-sequence "oracle"
    /// attacker would have to guess).
    fn expected_seq(&self, id: Self::ConnId) -> Option<u32>;
    /// The connection's congestion-control counters (window samples and
    /// loss/recovery events, the same shape in both stacks).
    fn conn_cc(&self, id: Self::ConnId) -> Option<CcCounters>;
    /// Half-open (handshaking) connections held right now.
    fn half_open_count(&self) -> usize;
    /// This endpoint's adversarial-defense counters, `forged_segments`
    /// left at 0 (the attacker counts those). Stack-wide counters come
    /// from the stack's stats; the sublayered stack keeps its receive-side
    /// drops in RD, per connection, so those are read for `conn` only.
    ///
    /// `invalid_seq_drops` is not the same event in both stacks. For the
    /// sublayered stack it is RD's data-acceptability drop: forged data
    /// outside the receive window. The monolith counts no such drop (it
    /// answers out-of-window data with an ACK), so its column is
    /// `old_ack_drops`: segments whose ACK field is too old (RFC 5961
    /// §5), ACK-side noise. Forged out-of-window data therefore reads 0
    /// for the monolith.
    fn attack_counters(&self, conn: Option<Self::ConnId>) -> AttackCounters;
}

/// [`Stack::poll_transmit`] of a [`HostStack`]: pop a queued frame, and
/// only when none is queued pump every connection, in sorted order so
/// every same-seed run pumps them identically (hash-map order is not
/// deterministic).
pub fn poll_transmit_all<H: HostStack>(stack: &mut H, now: Time) -> Option<Vec<u8>> {
    if let Some(frame) = stack.take_frame() {
        return Some(frame);
    }
    for id in sorted_ids(stack) {
        stack.pump_conn(now, id);
    }
    stack.take_frame()
}

/// [`Stack::poll_deadline`] of a [`HostStack`]: the earliest
/// per-connection deadline.
pub fn poll_deadline_all<H: HostStack>(stack: &H, now: Time) -> Option<Time> {
    stack.conn_ids().filter_map(|id| stack.conn_deadline(now, id)).min()
}

/// [`Stack::on_tick`] of a [`HostStack`]: tick every connection, in
/// sorted order.
pub fn on_tick_all<H: HostStack>(stack: &mut H, now: Time) {
    for id in sorted_ids(stack) {
        stack.tick_conn(now, id);
    }
}

fn sorted_ids<H: HostStack>(stack: &H) -> Vec<H::ConnId> {
    let mut ids: Vec<H::ConnId> = stack.conn_ids().collect();
    ids.sort();
    ids
}

/// Keep one simulator timer armed at the stack's next deadline: re-arm
/// only when the deadline moved earlier than the armed one (a later
/// deadline is caught by the spurious tick), cancel when none is pending.
fn rearm(armed: &mut Option<(Time, TimerId)>, deadline: Option<Time>, ctx: &mut NodeCtx) {
    match deadline {
        Some(deadline) => {
            let deadline = deadline.max(ctx.now);
            if armed.is_none_or(|(at, _)| deadline < at) {
                if let Some((_, id)) = armed.take() {
                    ctx.cancel(id);
                }
                let id = ctx.arm_at(deadline, 0);
                *armed = Some((deadline, id));
            }
        }
        None => {
            if let Some((_, id)) = armed.take() {
                ctx.cancel(id);
            }
        }
    }
}

/// Adapter embedding a sans-IO [`MultiStack`] as a multi-port simulator
/// node — the server end of a [`crate::star`] topology.
pub struct MultiStackNode<S: MultiStack> {
    /// The protocol endpoint, freely accessible between simulation steps.
    pub stack: S,
    armed: Option<(Time, TimerId)>,
}

impl<S: MultiStack> MultiStackNode<S> {
    pub fn new(stack: S) -> Self {
        MultiStackNode { stack, armed: None }
    }

    fn pump(&mut self, ctx: &mut NodeCtx) {
        while let Some((port, frame)) = self.stack.poll_transmit(ctx.now) {
            ctx.send(port, frame);
        }
        rearm(&mut self.armed, self.stack.poll_deadline(ctx.now), ctx);
    }
}

impl<S: MultiStack> Node for MultiStackNode<S> {
    fn on_frame(&mut self, port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
        self.stack.on_frame(ctx.now, port, &frame);
        self.pump(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut NodeCtx) {
        self.armed = None;
        self.stack.on_tick(ctx.now);
        self.pump(ctx);
    }

    fn poll(&mut self, ctx: &mut NodeCtx) {
        self.pump(ctx);
    }
}

/// Adapter embedding a sans-IO [`Stack`] as a single-port simulator node.
pub struct StackNode<S: Stack> {
    /// The protocol endpoint. Freely accessible for inspection and for
    /// driving the application-side API between simulation steps.
    pub stack: S,
    armed: Option<(Time, TimerId)>,
}

impl<S: Stack> StackNode<S> {
    pub fn new(stack: S) -> Self {
        StackNode { stack, armed: None }
    }

    fn pump(&mut self, ctx: &mut NodeCtx) {
        while let Some(frame) = self.stack.poll_transmit(ctx.now) {
            ctx.send(0, frame);
        }
        rearm(&mut self.armed, self.stack.poll_deadline(ctx.now), ctx);
    }
}

impl<S: Stack> Node for StackNode<S> {
    fn on_frame(&mut self, _port: PortId, frame: Vec<u8>, ctx: &mut NodeCtx) {
        self.stack.on_frame(ctx.now, &frame);
        self.pump(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut NodeCtx) {
        self.armed = None;
        self.stack.on_tick(ctx.now);
        self.pump(ctx);
    }

    fn poll(&mut self, ctx: &mut NodeCtx) {
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LinkParams, SimNet};
    use crate::time::Dur;

    /// Emits `n` frames paced one per millisecond, then goes idle.
    struct Ticker {
        remaining: u32,
        next_at: Time,
        ready: bool,
    }
    impl Stack for Ticker {
        fn on_frame(&mut self, _: Time, _: &[u8]) {}
        fn poll_transmit(&mut self, _: Time) -> Option<Vec<u8>> {
            if self.ready {
                self.ready = false;
                Some(vec![self.remaining as u8])
            } else {
                None
            }
        }
        fn poll_deadline(&self, _: Time) -> Option<Time> {
            (self.remaining > 0).then_some(self.next_at)
        }
        fn on_tick(&mut self, now: Time) {
            if self.remaining > 0 && now >= self.next_at {
                self.remaining -= 1;
                self.ready = true;
                self.next_at = now + Dur::from_millis(1);
            }
        }
    }

    struct Collector {
        got: Vec<Vec<u8>>,
    }
    impl Stack for Collector {
        fn on_frame(&mut self, _: Time, frame: &[u8]) {
            self.got.push(frame.to_vec());
        }
        fn poll_transmit(&mut self, _: Time) -> Option<Vec<u8>> {
            None
        }
        fn poll_deadline(&self, _: Time) -> Option<Time> {
            None
        }
        fn on_tick(&mut self, _: Time) {}
    }

    #[test]
    fn paced_sender_delivers_all() {
        let mut net = SimNet::new(4);
        let t = net.add_node(Box::new(StackNode::new(Ticker {
            remaining: 5,
            next_at: Time::ZERO,
            ready: false,
        })));
        let c = net.add_node(Box::new(StackNode::new(Collector { got: vec![] })));
        net.connect(t, 0, c, 0, LinkParams::delay_only(Dur::from_micros(100)));
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        let got = &net.node::<StackNode<Collector>>(c).stack.got;
        assert_eq!(got.len(), 5);
        // `remaining` is decremented before the frame is emitted.
        assert_eq!(got[0], vec![4]);
        assert_eq!(got[4], vec![0]);
    }

    #[test]
    fn idle_stack_schedules_nothing() {
        let mut net = SimNet::new(4);
        net.add_node(Box::new(StackNode::new(Collector { got: vec![] })));
        net.poll_all();
        assert!(net.is_idle());
    }
}
