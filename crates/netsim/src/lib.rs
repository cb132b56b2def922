//! # netsim — deterministic discrete-event network simulator
//!
//! The substrate for every experiment in this workspace (see `DESIGN.md`,
//! system S1). Provides:
//!
//! * a virtual clock ([`Time`], [`Dur`]) — no wall-clock dependence;
//! * a deterministic, forkable PRNG ([`DetRng`]);
//! * a tie-break-stable event queue ([`EventQueue`]);
//! * fault injection ([`FaultProfile`], [`FaultInjector`]) with drop,
//!   single-bit corruption, duplication, reordering, Gilbert–Elliott burst
//!   loss ([`BurstLoss`]) and delay jitter;
//! * replayable chaos campaigns ([`AdminOp`]): scheduled link partitions
//!   and flaps, rate throttling, fault-profile swaps, and node restarts
//!   with state loss;
//! * an adversarial man-in-the-middle bridge ([`Attacker`]) that forges,
//!   replays and fuzzily mutates segments through a per-stack
//!   [`AttackCodec`], for robustness campaigns;
//! * point-to-point links with propagation delay, serialization delay and
//!   MTU ([`LinkParams`]);
//! * a multi-node simulator ([`SimNet`]) hosting [`Node`]s;
//! * a sans-IO protocol endpoint abstraction ([`Stack`], [`StackNode`]) in
//!   the style of poll-driven stacks such as smoltcp.
//!
//! Every run is exactly reproducible from its seed: event ties break by
//! insertion order and all randomness flows from per-link forks of a single
//! root seed.

pub mod attack;
pub mod event;
pub mod fault;
pub mod net;
pub mod rng;
pub mod stack;
pub mod tap;
pub mod time;
pub mod workload;

pub use attack::{AttackCodec, AttackConfig, Attacker, AttackerStats, SeqKnowledge, SnoopInfo};
pub use event::EventQueue;
pub use fault::{BurstLoss, FaultConfigError, FaultInjector, FaultProfile, FaultStats, Fate};
pub use net::{AdminOp, DirStats, LinkId, LinkParams, Node, NodeCtx, NodeId, PortId, SimNet, TimerId};
pub use rng::DetRng;
pub use stack::{
    on_tick_all, poll_deadline_all, poll_transmit_all, Endpoint, FourTuple, FrameMeta, HostStack,
    MultiStack, MultiStackNode, Stack, StackNode, TransportError,
};
pub use tap::{tap_buffer, SharedTap, TapDir, TapEvent, TapStack};
pub use time::{Dur, Time};
pub use workload::{HeavyTailed, OpenLoopArrivals, ReadBudget};

/// Convenience: build a two-node network from two sans-IO stacks joined by
/// one link, returning the network and both node ids. Used throughout the
/// workspace for two-party protocol experiments.
pub fn two_party<A: Stack, B: Stack>(
    seed: u64,
    a: A,
    b: B,
    params: LinkParams,
) -> (SimNet, NodeId, NodeId) {
    let mut net = SimNet::new(seed);
    let na = net.add_node(Box::new(StackNode::new(a)));
    let nb = net.add_node(Box::new(StackNode::new(b)));
    net.connect(na, 0, nb, 0, params);
    (net, na, nb)
}

/// Convenience: build a star topology — one multi-port server node in the
/// middle, one link per client, client `i`'s port 0 wired to server port
/// `i`. Every link gets a clone of `params`. Used by the many-client scale
/// experiments.
pub fn star<S: MultiStack, C: Stack>(
    seed: u64,
    server: S,
    clients: impl IntoIterator<Item = C>,
    params: LinkParams,
) -> (SimNet, NodeId, Vec<NodeId>) {
    let mut net = SimNet::new(seed);
    let ns = net.add_node(Box::new(MultiStackNode::new(server)));
    let mut ids = Vec::new();
    for (i, c) in clients.into_iter().enumerate() {
        let nc = net.add_node(Box::new(StackNode::new(c)));
        net.connect(ns, i, nc, 0, params.clone());
        ids.push(nc);
    }
    (net, ns, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quiet;
    impl Stack for Quiet {
        fn on_frame(&mut self, _: Time, _: &[u8]) {}
        fn poll_transmit(&mut self, _: Time) -> Option<Vec<u8>> {
            None
        }
        fn poll_deadline(&self, _: Time) -> Option<Time> {
            None
        }
        fn on_tick(&mut self, _: Time) {}
    }

    #[test]
    fn two_party_builds_a_connected_pair() {
        let (mut net, a, b) = two_party(1, Quiet, Quiet, LinkParams::default());
        assert_eq!((a, b), (0, 1));
        net.poll_all();
        assert!(net.is_idle());
    }

    /// Echoes every frame back out the port it arrived on.
    struct PortEcho {
        seen: Vec<(PortId, Vec<u8>)>,
        pending: Vec<(PortId, Vec<u8>)>,
    }
    impl MultiStack for PortEcho {
        fn on_frame(&mut self, _: Time, port: PortId, frame: &[u8]) {
            self.seen.push((port, frame.to_vec()));
            self.pending.push((port, frame.to_vec()));
        }
        fn poll_transmit(&mut self, _: Time) -> Option<(PortId, Vec<u8>)> {
            self.pending.pop()
        }
        fn poll_deadline(&self, _: Time) -> Option<Time> {
            None
        }
        fn on_tick(&mut self, _: Time) {}
    }

    /// Sends one tagged frame at t=0, remembers what comes back.
    struct OneShot {
        tag: u8,
        sent: bool,
        got: Vec<Vec<u8>>,
    }
    impl Stack for OneShot {
        fn on_frame(&mut self, _: Time, frame: &[u8]) {
            self.got.push(frame.to_vec());
        }
        fn poll_transmit(&mut self, _: Time) -> Option<Vec<u8>> {
            (!std::mem::replace(&mut self.sent, true)).then(|| vec![self.tag])
        }
        fn poll_deadline(&self, _: Time) -> Option<Time> {
            None
        }
        fn on_tick(&mut self, _: Time) {}
    }

    #[test]
    fn star_routes_per_port() {
        let clients =
            (0..5).map(|i| OneShot { tag: i as u8, sent: false, got: vec![] });
        let (mut net, ns, ids) = star(
            7,
            PortEcho { seen: vec![], pending: vec![] },
            clients,
            LinkParams::default(),
        );
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(1));
        let server = net.node::<MultiStackNode<PortEcho>>(ns);
        assert_eq!(server.stack.seen.len(), 5);
        for (port, frame) in &server.stack.seen {
            assert_eq!(frame, &vec![*port as u8], "frame tag matches its port");
        }
        for (i, &id) in ids.iter().enumerate() {
            let c = net.node::<StackNode<OneShot>>(id);
            assert_eq!(c.stack.got, vec![vec![i as u8]], "echo came back to client {i}");
        }
    }
}
