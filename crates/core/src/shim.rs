//! The **shim sublayer** (§3.1): native Figure-6 header ↔ RFC 793.
//!
//! "Adding a shim sublayer that converts the sublayered header in Figure 6
//! to a standard TCP header, together with replicating all existing TCP
//! functionality in some sublayer, should allow interoperability." This
//! module is that shim: a *stateless* bidirectional translation, possible
//! precisely because the two headers are isomorphic — every RFC 793 field
//! has a home in some sublayer's bits:
//!
//! | RFC 793 field | native home |
//! |---|---|
//! | ports | DM |
//! | SYN/FIN/RST flags | CM flags |
//! | ISNs | CM `isn`/`ack_isn` (redundant after handshake) |
//! | seq / ack | RD |
//! | window | OSR `rcv_wnd` |
//! | (SACK has no RFC 793 home) | RD — dropped by the shim |
//!
//! [`ShimStack`] wraps an [`SlTcpStack`] so it speaks RFC 793 on the wire;
//! experiment E7 runs it against the monolithic `tcp-mono` stack in both
//! directions.

use crate::stack::SlTcpStack;
use crate::wire::Packet;
use netsim::{Stack, Time};
use tcp_mono::wire::{Segment, ACK, FIN, PSH, RST, SYN};

/// Default MSS advertised on translated SYNs (both stacks use 1000).
const MSS: u16 = crate::osr::MSS as u16;

/// Translate one native packet to an RFC 793 segment.
pub fn to_rfc793(pkt: &Packet) -> Segment {
    let mut flags = 0u8;
    let (seq, ack, has_ack);
    if pkt.cm.flags.syn {
        flags |= SYN;
        // A SYN's sequence number is the ISN itself (it consumes it).
        seq = pkt.cm.isn;
        if pkt.cm.flags.cm_ack {
            has_ack = true;
            ack = pkt.cm.ack_isn.wrapping_add(1);
        } else {
            has_ack = false;
            ack = 0;
        }
    } else {
        seq = pkt.rd.seq;
        has_ack = pkt.rd.has_ack;
        ack = pkt.rd.ack;
    }
    if has_ack {
        flags |= ACK;
    }
    if pkt.cm.flags.fin {
        flags |= FIN;
    }
    if pkt.cm.flags.rst {
        flags |= RST;
    }
    if !pkt.payload.is_empty() {
        flags |= PSH;
    }
    Segment {
        src: pkt.src(),
        dst: pkt.dst(),
        seq,
        ack,
        flags,
        wnd: pkt.osr.rcv_wnd,
        mss: pkt.cm.flags.syn.then_some(MSS),
        payload: pkt.payload.clone(),
    }
}

/// Translate one RFC 793 segment to a native packet.
pub fn from_rfc793(seg: &Segment) -> Packet {
    let mut pkt = Packet {
        src_addr: seg.src.addr,
        dst_addr: seg.dst.addr,
        ..Default::default()
    };
    pkt.dm.src_port = seg.src.port;
    pkt.dm.dst_port = seg.dst.port;
    pkt.cm.flags.fin = seg.fin();
    pkt.cm.flags.rst = seg.rst();
    if seg.syn() {
        pkt.cm.flags.syn = true;
        pkt.cm.isn = seg.seq;
        if seg.ack_flag() {
            pkt.cm.flags.cm_ack = true;
            pkt.cm.ack_isn = seg.ack.wrapping_sub(1);
        }
    }
    pkt.rd.seq = seg.seq;
    pkt.rd.has_ack = seg.ack_flag();
    pkt.rd.ack = seg.ack;
    pkt.osr.rcv_wnd = seg.wnd;
    pkt.payload = seg.payload.clone();
    pkt
}

/// A sublayered stack speaking RFC 793 on the wire via the shim.
pub struct ShimStack {
    /// The wrapped native stack; the application drives it directly.
    pub inner: SlTcpStack,
    /// Translation counters.
    pub translated_tx: u64,
    pub translated_rx: u64,
    pub untranslatable_rx: u64,
}

impl ShimStack {
    pub fn new(inner: SlTcpStack) -> ShimStack {
        ShimStack { inner, translated_tx: 0, translated_rx: 0, untranslatable_rx: 0 }
    }
}

impl Stack for ShimStack {
    fn on_frame(&mut self, now: Time, frame: &[u8]) {
        match Segment::decode(frame) {
            Ok(seg) => {
                self.translated_rx += 1;
                let pkt = from_rfc793(&seg);
                self.inner.on_frame(now, &pkt.encode());
            }
            Err(_) => self.untranslatable_rx += 1,
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        let native = self.inner.poll_transmit(now)?;
        let pkt = Packet::decode(&native).expect("inner stack emits valid native packets");
        self.translated_tx += 1;
        Some(to_rfc793(&pkt).encode())
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        self.inner.poll_deadline(now)
    }

    fn on_tick(&mut self, now: Time) {
        self.inner.on_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dm::ConnId;
    use crate::stack::SlConfig;
    use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, SimNet, StackNode};
    use tcp_mono::stack::TcpStack;
    use tcp_mono::wire::Endpoint;
    use tcp_mono::TcpState;

    const A: u32 = 0x0A000001;
    const B: u32 = 0x0A000002;

    fn run_for(net: &mut SimNet, d: Dur) {
        let deadline = net.now() + d;
        net.run_until(deadline);
    }

    #[test]
    fn translation_round_trips_where_isomorphic() {
        // native -> 793 -> native preserves the fields RFC 793 can carry.
        let mut pkt = Packet { src_addr: A, dst_addr: B, ..Packet::default() };
        pkt.dm.src_port = 5000;
        pkt.dm.dst_port = 80;
        pkt.rd.seq = 12345;
        pkt.rd.ack = 67890;
        pkt.rd.has_ack = true;
        pkt.osr.rcv_wnd = 4096;
        pkt.payload = b"data".to_vec();
        let back = from_rfc793(&to_rfc793(&pkt));
        assert_eq!(back.dm, pkt.dm);
        assert_eq!(back.rd.seq, pkt.rd.seq);
        assert_eq!(back.rd.ack, pkt.rd.ack);
        assert_eq!(back.osr.rcv_wnd, pkt.osr.rcv_wnd);
        assert_eq!(back.payload, pkt.payload);
    }

    #[test]
    fn syn_translation_carries_isn() {
        let mut pkt = Packet::default();
        pkt.cm.flags.syn = true;
        pkt.cm.isn = 999;
        let seg = to_rfc793(&pkt);
        assert!(seg.syn());
        assert_eq!(seg.seq, 999);
        assert_eq!(seg.mss, Some(1000));
        let back = from_rfc793(&seg);
        assert!(back.cm.flags.syn);
        assert_eq!(back.cm.isn, 999);
    }

    #[test]
    fn synack_translation_shifts_ack_by_one() {
        let mut pkt = Packet::default();
        pkt.cm.flags.syn = true;
        pkt.cm.flags.cm_ack = true;
        pkt.cm.isn = 200;
        pkt.cm.ack_isn = 100;
        let seg = to_rfc793(&pkt);
        assert_eq!(seg.ack, 101, "TCP acks ISN+1");
        let back = from_rfc793(&seg);
        assert_eq!(back.cm.ack_isn, 100);
    }

    /// Full interop: sublayered client (via shim) <-> monolithic server.
    fn sub_client_mono_server(seed: u64, fault: FaultProfile) {
        let mut client =
            ShimStack::new(SlTcpStack::new(A, SlConfig::default(), slmetrics::shared()));
        let mut server = TcpStack::new(B, slmetrics::shared());
        server.listen(80);
        let conn = client.inner.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
        let params = LinkParams::delay_only(Dur::from_millis(5)).with_fault(fault);
        let (mut net, nc, ns) = two_party(seed, client, server, params);
        net.poll_all();
        run_for(&mut net, Dur::from_secs(3));

        // Handshake completed on both sides.
        {
            let c = &net.node::<StackNode<ShimStack>>(nc).stack;
            assert_eq!(c.inner.state(conn), crate::cm::CmState::Established);
        }
        let sconn = net.node::<StackNode<TcpStack>>(ns).stack.established()[0];

        // Sublayered -> monolithic data.
        let up: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.send(conn, &up);
        // Monolithic -> sublayered data.
        let down: Vec<u8> = (0..15_000u32).map(|i| (i % 13) as u8).collect();
        net.node_mut::<StackNode<TcpStack>>(ns).stack.send(sconn, &down);
        net.poll_all();

        let mut got_up = Vec::new();
        let mut got_down = Vec::new();
        for _ in 0..120 {
            run_for(&mut net, Dur::from_secs(1));
            got_up.extend(net.node_mut::<StackNode<TcpStack>>(ns).stack.recv(sconn));
            got_down
                .extend(net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.recv(conn));
            net.poll_all();
            if got_up.len() >= up.len() && got_down.len() >= down.len() {
                break;
            }
        }
        assert_eq!(got_up, up, "sublayered->monolithic direction");
        assert_eq!(got_down, down, "monolithic->sublayered direction");

        // Close initiated from the sublayered side completes the TCP
        // close handshake on the monolithic side.
        net.node_mut::<StackNode<ShimStack>>(nc).stack.inner.close(conn);
        net.poll_all();
        run_for(&mut net, Dur::from_secs(3));
        assert_eq!(
            net.node::<StackNode<TcpStack>>(ns).stack.state(sconn),
            TcpState::CloseWait,
            "monolithic server saw the translated FIN"
        );
        net.node_mut::<StackNode<TcpStack>>(ns).stack.close(sconn);
        net.poll_all();
        run_for(&mut net, Dur::from_secs(3));
        assert_eq!(
            net.node::<StackNode<TcpStack>>(ns).stack.state(sconn),
            TcpState::Closed
        );
    }

    #[test]
    fn interop_sublayered_client_monolithic_server_clean() {
        sub_client_mono_server(1, FaultProfile::none());
    }

    #[test]
    fn interop_sublayered_client_monolithic_server_lossy() {
        sub_client_mono_server(2, FaultProfile::lossy(0.08));
    }

    /// Full interop: monolithic client <-> sublayered server (via shim).
    #[test]
    fn interop_monolithic_client_sublayered_server() {
        let mut client = TcpStack::new(A, slmetrics::shared());
        let mut server =
            ShimStack::new(SlTcpStack::new(B, SlConfig::default(), slmetrics::shared()));
        server.inner.listen(80);
        let conn = client.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
        let (mut net, nc, ns) = two_party(
            3,
            client,
            server,
            LinkParams::delay_only(Dur::from_millis(5)).with_fault(FaultProfile::lossy(0.05)),
        );
        net.poll_all();
        run_for(&mut net, Dur::from_secs(3));
        assert_eq!(
            net.node::<StackNode<TcpStack>>(nc).stack.state(conn),
            TcpState::Established
        );
        let sconn: ConnId = net.node::<StackNode<ShimStack>>(ns).stack.inner.established()[0];

        let data: Vec<u8> = (0..25_000u32).map(|i| (i % 201) as u8).collect();
        net.node_mut::<StackNode<TcpStack>>(nc).stack.send(conn, &data);
        net.poll_all();
        let mut got = Vec::new();
        for _ in 0..120 {
            run_for(&mut net, Dur::from_secs(1));
            got.extend(net.node_mut::<StackNode<ShimStack>>(ns).stack.inner.recv(sconn));
            net.poll_all();
            if got.len() >= data.len() {
                break;
            }
        }
        assert_eq!(got, data);
    }

    #[test]
    fn shim_counts_translations() {
        let mut client =
            ShimStack::new(SlTcpStack::new(A, SlConfig::default(), slmetrics::shared()));
        let mut server = TcpStack::new(B, slmetrics::shared());
        server.listen(80);
        client.inner.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
        let (mut net, nc, _ns) =
            two_party(4, client, server, LinkParams::delay_only(Dur::from_millis(5)));
        net.poll_all();
        run_for(&mut net, Dur::from_secs(2));
        let c = &net.node::<StackNode<ShimStack>>(nc).stack;
        assert!(c.translated_tx >= 2, "SYN + handshake ack");
        assert!(c.translated_rx >= 1, "SYN-ACK");
    }
}
