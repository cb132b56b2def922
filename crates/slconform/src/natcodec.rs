//! Per-format network knowledge for the multi-hop fabric: an address peek
//! for `netlayer`'s [`StaticRouter`](netlayer::StaticRouter) ingress and
//! [`NatCodec`] implementations for its [`NatBox`](netlayer::NatBox).
//!
//! `netlayer` deliberately knows neither transport's wire format; the
//! router reads addresses through an [`AddrPeek`](netlayer::AddrPeek)
//! function pointer and the NAT rewrites endpoints through a boxed codec.
//! The peek is [`peek`], generic over the stack: it reads each format
//! through the stack's own `classify_frame`, defined in its wire module.
//! The codecs live here. Every rewrite round-trips through the real
//! `Segment`/`Packet` codecs, so checksums are re-sealed and a mangled
//! frame comes out as `None` (the middlebox drops it as malformed) rather
//! than as garbage on the wire.

use netlayer::NatCodec;
use netsim::HostStack;
use sublayer_core::wire::Packet;
use tcp_mono::wire::{Endpoint, Segment};

use crate::wire::Wire;
use crate::Kind;

/// [`AddrPeek`](netlayer::AddrPeek) for stack `H`'s wire format: the
/// addresses its [`HostStack::classify_frame`] reads.
pub fn peek<H: HostStack>(frame: &[u8]) -> Option<(u32, u32)> {
    H::classify_frame(frame).map(|m| (m.src.addr, m.dst.addr))
}

/// The NAT codec matching a stack kind.
pub fn nat_codec(kind: Kind) -> Box<dyn NatCodec> {
    match kind {
        Kind::Mono => Box::new(MonoNatCodec),
        Kind::Sub => Box::new(SubNatCodec),
    }
}

/// [`NatCodec`] over the monolithic RFC 793 wire format.
pub struct MonoNatCodec;

impl NatCodec for MonoNatCodec {
    fn tuple(&self, frame: &[u8]) -> Option<((u32, u16), (u32, u16))> {
        let s = Segment::decode(frame).ok()?;
        Some(((s.src.addr, s.src.port), (s.dst.addr, s.dst.port)))
    }

    fn rewrite_src(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut s = Segment::decode(frame).ok()?;
        s.src = Endpoint::new(addr, port);
        Some(s.encode())
    }

    fn rewrite_dst(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut s = Segment::decode(frame).ok()?;
        s.dst = Endpoint::new(addr, port);
        Some(s.encode())
    }

    fn shift_seq(&self, frame: &[u8], delta: u32) -> Option<Vec<u8>> {
        let mut s = Segment::decode(frame).ok()?;
        if s.payload.is_empty() {
            return None; // pure acks pass untouched
        }
        s.seq = s.seq.wrapping_add(delta);
        Some(s.encode())
    }

    fn forge_rst_reply(&self, frame: &[u8]) -> Option<Vec<u8>> {
        let s = Segment::decode(frame).ok()?;
        if s.rst() {
            return None; // never answer a RST with a RST
        }
        // RFC 793: a stateless host answering a stray ACK-bearing segment
        // sends RST with seq = the segment's ack; that lands exactly at
        // the sender's snd_nxt, so the reset is accepted.
        let seq = if s.ack_flag() { s.ack } else { 0 };
        Some(Wire::Mono.forge_rst(s.dst, s.src, seq))
    }
}

/// [`NatCodec`] over the sublayered native wire format.
pub struct SubNatCodec;

impl NatCodec for SubNatCodec {
    fn tuple(&self, frame: &[u8]) -> Option<((u32, u16), (u32, u16))> {
        let p = Packet::decode(frame).ok()?;
        Some(((p.src_addr, p.dm.src_port), (p.dst_addr, p.dm.dst_port)))
    }

    fn rewrite_src(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut p = Packet::decode(frame).ok()?;
        p.src_addr = addr;
        p.dm.src_port = port;
        Some(p.encode())
    }

    fn rewrite_dst(&self, frame: &[u8], addr: u32, port: u16) -> Option<Vec<u8>> {
        let mut p = Packet::decode(frame).ok()?;
        p.dst_addr = addr;
        p.dm.dst_port = port;
        Some(p.encode())
    }

    fn shift_seq(&self, frame: &[u8], delta: u32) -> Option<Vec<u8>> {
        let mut p = Packet::decode(frame).ok()?;
        if p.payload.is_empty() {
            return None;
        }
        p.rd.seq = p.rd.seq.wrapping_add(delta);
        Some(p.encode())
    }

    fn forge_rst_reply(&self, frame: &[u8]) -> Option<Vec<u8>> {
        let p = Packet::decode(frame).ok()?;
        if p.cm.flags.rst {
            return None;
        }
        let seq = if p.rd.has_ack { p.rd.ack } else { 0 };
        Some(Wire::Sub.forge_rst(p.dst(), p.src(), seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corpus, run_scenario, ConformStack};
    use netsim::FrameMeta;
    use sublayer_core::SlTcpStack;
    use tcp_mono::wire::ACK;
    use tcp_mono::TcpStack;

    const C: Endpoint = Endpoint { addr: 0x0A000001, port: 5000 };
    const S: Endpoint = Endpoint { addr: 0x0A000002, port: 80 };

    fn mono_data(payload: &[u8]) -> Vec<u8> {
        Segment {
            src: C,
            dst: S,
            seq: 1000,
            ack: 2000,
            flags: ACK,
            wnd: 512,
            mss: None,
            payload: payload.to_vec(),
        }
        .encode()
    }

    fn sub_data(payload: &[u8]) -> Vec<u8> {
        let mut p = Packet {
            src_addr: C.addr,
            dst_addr: S.addr,
            dm: sublayer_core::wire::DmHeader { src_port: C.port, dst_port: S.port },
            cm: sublayer_core::wire::CmHeader::default(),
            rd: sublayer_core::wire::RdHeader::default(),
            osr: sublayer_core::wire::OsrHeader { ecn_echo: false, rcv_wnd: 512 },
            payload: payload.to_vec(),
        };
        p.rd.seq = 1000;
        p.rd.ack = 2000;
        p.rd.has_ack = true;
        p.encode()
    }

    /// Every frame both endpoints of a lossy transfer saw, in `H`'s format.
    fn lossy_frames<H: ConformStack>() -> Vec<Vec<u8>> {
        let sc = corpus().into_iter().find(|sc| sc.name == "loss_2pct_transfer").unwrap();
        let out = run_scenario::<H>(&sc, 7);
        let frames: Vec<Vec<u8>> =
            out.client.raw.iter().chain(&out.server.raw).map(|e| e.bytes.clone()).collect();
        assert!(frames.len() > 40, "{:?}: a transfer's worth of frames", H::KIND);
        frames
    }

    /// The three `classify_frame` checks for stack `H`, whose codec's
    /// floor is `floor`; `Other` is the stack with the other format.
    fn classify_checks<H: ConformStack, Other: ConformStack>(floor: usize) {
        let codec = nat_codec(H::KIND);
        for f in lossy_frames::<H>() {
            // Same endpoints as the full decode.
            let ((sa, sp), (da, dp)) = codec.tuple(&f).expect("captured frames decode");
            let full = FrameMeta { src: Endpoint::new(sa, sp), dst: Endpoint::new(da, dp) };
            assert_eq!(H::classify_frame(&f), Some(full));
            assert_eq!(peek::<H>(&f), Some((sa, da)));
            // Every truncation below the floor is refused; the floor is tight.
            for len in 0..floor {
                assert_eq!(H::classify_frame(&f[..len]), None, "{:?} at {len} bytes", H::KIND);
            }
            assert_eq!(H::classify_frame(&f[..floor]), Some(full));
            // Under the other stack the frame never demuxes to its own
            // connection: the sublayered magic byte refuses RFC 793 frames
            // outright, while RFC 793 has no magic byte and reads the
            // native header as some other address pair.
            match Other::KIND {
                Kind::Sub => assert_eq!(Other::classify_frame(&f), None),
                Kind::Mono => assert_ne!(Other::classify_frame(&f), Some(full)),
            }
        }
    }

    #[test]
    fn classify_frame_matches_the_codecs_on_both_stacks() {
        classify_checks::<SlTcpStack, TcpStack>(sublayer_core::wire::MIN_PACKET_BYTES);
        classify_checks::<TcpStack, SlTcpStack>(tcp_mono::wire::MIN_SEGMENT_BYTES);
    }

    #[test]
    fn rewrites_reseal_the_checksum_in_both_formats() {
        for (frame, codec) in [
            (mono_data(b"abc"), &MonoNatCodec as &dyn NatCodec),
            (sub_data(b"abc"), &SubNatCodec as &dyn NatCodec),
        ] {
            let out = codec.rewrite_src(&frame, 0xC0A80001, 40000).expect("rewrite");
            let ((sa, sp), (da, dp)) = codec.tuple(&out).expect("rewritten frame decodes");
            assert_eq!((sa, sp), (0xC0A80001, 40000));
            assert_eq!((da, dp), (S.addr, S.port));
            let back = codec.rewrite_dst(&out, C.addr, C.port).expect("rewrite back");
            let ((_, _), (da2, dp2)) = codec.tuple(&back).unwrap();
            assert_eq!((da2, dp2), (C.addr, C.port));
        }
    }

    #[test]
    fn shift_seq_skips_pure_acks() {
        for (data, pure, codec) in [
            (mono_data(b"xyz"), mono_data(b""), &MonoNatCodec as &dyn NatCodec),
            (sub_data(b"xyz"), sub_data(b""), &SubNatCodec as &dyn NatCodec),
        ] {
            assert!(codec.shift_seq(&data, 7).is_some(), "data frames shift");
            assert!(codec.shift_seq(&pure, 7).is_none(), "pure acks must not");
        }
    }

    #[test]
    fn forged_rst_replies_answer_at_the_senders_expected_seq() {
        let m = MonoNatCodec.forge_rst_reply(&mono_data(b"hi")).expect("rst");
        let seg = Wire::Mono.decode(&m).unwrap();
        assert!(seg.rst);
        assert_eq!(seg.seq, 2000, "RST seq = the offending frame's ack");
        let s = SubNatCodec.forge_rst_reply(&sub_data(b"hi")).expect("rst");
        let seg = Wire::Sub.decode(&s).unwrap();
        assert!(seg.rst);
        assert_eq!(seg.seq, 2000);
        // A RST never begets another RST.
        assert!(MonoNatCodec.forge_rst_reply(&m).is_none());
        assert!(SubNatCodec.forge_rst_reply(&s).is_none());
    }
}
