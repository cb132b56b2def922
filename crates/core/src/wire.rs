//! The native sublayered header (paper Figure 6).
//!
//! "The header as shown bears no resemblance to the standard TCP header in
//! order to clearly separate sublayers" — each sublayer owns a distinct
//! group of bits (test **T3**), laid out bottom-up on the wire:
//!
//! ```text
//! | DM: src_port, dst_port          |  demultiplexing
//! | CM: flags, isn, ack_isn         |  connection management
//! | RD: seq, ack, sack ranges       |  reliable delivery
//! | OSR: ecn, rcv_wnd               |  ordering/segmenting/rate control
//! | payload ...                     |
//! ```
//!
//! The format is *isomorphic* to RFC 793 (the paper's §3.1 claim): every
//! field of the standard header appears here and vice versa (the ISNs are
//! redundant but static after the handshake). [`crate::shim`] performs the
//! translation in both directions, which is what makes interoperation with
//! the monolithic stack possible (experiment E7).

use netsim::FrameMeta;
pub use tcp_mono::wire::{Endpoint, FourTuple, WireError, MAX_FRAME_BYTES};

/// Demultiplexing subheader — the only bits DM may touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DmHeader {
    pub src_port: u16,
    pub dst_port: u16,
}

/// Connection-management flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CmFlags {
    pub syn: bool,
    pub fin: bool,
    pub rst: bool,
    /// Acknowledges the peer's SYN (handshake progress) or FIN.
    pub cm_ack: bool,
}

/// Connection-management subheader — SYN/FIN/RST plus the ISN pair.
/// "The main service it provides is to establish a pair of Initial
/// Sequence Numbers."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CmHeader {
    pub flags: CmFlags,
    /// Sender's ISN (static after the handshake; redundancy acknowledged
    /// by the paper).
    pub isn: u32,
    /// Echo of the peer's ISN (handshake confirmation).
    pub ack_isn: u32,
}

/// One SACK range `[start, end)` in absolute sequence numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SackRange {
    pub start: u32,
    pub end: u32,
}

/// Reliable-delivery subheader: sequence/ack numbers and SACK — all
/// retransmission mechanics live here and nowhere else.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RdHeader {
    /// Absolute sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgment: next expected sequence.
    pub ack: u32,
    /// Is the ack field meaningful?
    pub has_ack: bool,
    /// Up to two selective-ack ranges (RD-private, invisible to other
    /// sublayers; dropped by the shim since bare RFC 793 has no SACK).
    pub sack: Vec<SackRange>,
}

/// OSR subheader: congestion/flow-control signals available to OSR via its
/// own bits (test **T3**): ECN echo and the receiver window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OsrHeader {
    /// Explicit congestion notification echo.
    pub ecn_echo: bool,
    /// Receiver window (flow control).
    pub rcv_wnd: u16,
}

/// A full native packet: network addresses + the four subheaders +
/// payload.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Packet {
    pub src_addr: u32,
    pub dst_addr: u32,
    pub dm: DmHeader,
    pub cm: CmHeader,
    pub rd: RdHeader,
    pub osr: OsrHeader,
    pub payload: Vec<u8>,
}

/// Magic discriminating native sublayered packets from RFC 793 traffic on
/// the same simulated network.
const MAGIC: u8 = 0x5B; // "SubLayered"

/// Smallest well-formed packet: the fixed header with no SACK range and
/// no payload.
pub const MIN_PACKET_BYTES: usize = 36;

/// Offset of the checksummed body, which opens with DM's ports: after
/// the magic byte, both addresses and the checksum.
const BODY_AT: usize = 11;

/// Read the addressing off a native frame without checksumming or
/// parsing the rest — just enough for a host to demux or a router to
/// forward. `None` for a frame without the magic byte or below the
/// fixed header, so a truncated or foreign frame classifies as `None`
/// rather than panicking the ingest path.
pub fn classify(frame: &[u8]) -> Option<FrameMeta> {
    if frame.len() < MIN_PACKET_BYTES || frame[0] != MAGIC {
        return None;
    }
    let u32_at =
        |i: usize| u32::from_be_bytes([frame[i], frame[i + 1], frame[i + 2], frame[i + 3]]);
    let u16_at = |i: usize| u16::from_be_bytes([frame[i], frame[i + 1]]);
    Some(FrameMeta {
        src: Endpoint::new(u32_at(1), u16_at(BODY_AT)),
        dst: Endpoint::new(u32_at(5), u16_at(BODY_AT + 2)),
    })
}

impl Packet {
    pub fn src(&self) -> Endpoint {
        Endpoint::new(self.src_addr, self.dm.src_port)
    }

    pub fn dst(&self) -> Endpoint {
        Endpoint::new(self.dst_addr, self.dm.dst_port)
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34 + self.payload.len());
        out.push(MAGIC);
        out.extend_from_slice(&self.src_addr.to_be_bytes());
        out.extend_from_slice(&self.dst_addr.to_be_bytes());
        // DM
        out.extend_from_slice(&self.dm.src_port.to_be_bytes());
        out.extend_from_slice(&self.dm.dst_port.to_be_bytes());
        // CM
        let f = &self.cm.flags;
        out.push(
            (f.syn as u8) | (f.fin as u8) << 1 | (f.rst as u8) << 2 | (f.cm_ack as u8) << 3,
        );
        out.extend_from_slice(&self.cm.isn.to_be_bytes());
        out.extend_from_slice(&self.cm.ack_isn.to_be_bytes());
        // RD. The header's 2-bit count carries at most two SACK ranges;
        // clamp rather than let a longer vector silently alias the count
        // bits in release builds.
        out.extend_from_slice(&self.rd.seq.to_be_bytes());
        out.extend_from_slice(&self.rd.ack.to_be_bytes());
        let n_sack = self.rd.sack.len().min(2);
        out.push((self.rd.has_ack as u8) | (n_sack as u8) << 1);
        for r in self.rd.sack.iter().take(n_sack) {
            out.extend_from_slice(&r.start.to_be_bytes());
            out.extend_from_slice(&r.end.to_be_bytes());
        }
        // OSR
        out.push(self.osr.ecn_echo as u8);
        out.extend_from_slice(&self.osr.rcv_wnd.to_be_bytes());
        // payload, checksummed for parity with the monolithic stack
        out.extend_from_slice(&self.payload);
        let csum = tcp_mono::wire::checksum(self.src_addr, self.dst_addr, &out[9..]);
        out.insert(9, (csum >> 8) as u8);
        out.insert(10, csum as u8);
        out
    }

    /// Parse and verify; a typed [`WireError`] for anything malformed.
    /// Arbitrary hostile bytes must classify — never panic, never
    /// mis-parse into a structurally valid packet.
    pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
        if bytes.first() != Some(&MAGIC) {
            return Err(WireError::BadMagic);
        }
        if bytes.len() < MIN_PACKET_BYTES {
            return Err(WireError::Truncated { need: MIN_PACKET_BYTES, got: bytes.len() });
        }
        if bytes.len() > MAX_FRAME_BYTES {
            return Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: bytes.len() });
        }
        let src_addr = u32::from_be_bytes(bytes[1..5].try_into().unwrap());
        let dst_addr = u32::from_be_bytes(bytes[5..9].try_into().unwrap());
        let csum = u16::from_be_bytes([bytes[9], bytes[10]]);
        if tcp_mono::wire::checksum(src_addr, dst_addr, &bytes[BODY_AT..]) != csum {
            return Err(WireError::BadChecksum);
        }
        let b = &bytes[BODY_AT..];
        let mut i = 0;
        let u16_at = |i: &mut usize| {
            let v = u16::from_be_bytes([b[*i], b[*i + 1]]);
            *i += 2;
            v
        };
        let src_port = u16_at(&mut i);
        let dst_port = u16_at(&mut i);
        let u32_at = |i: &mut usize| {
            let v = u32::from_be_bytes([b[*i], b[*i + 1], b[*i + 2], b[*i + 3]]);
            *i += 4;
            v
        };
        let fbyte = b[i];
        i += 1;
        let flags = CmFlags {
            syn: fbyte & 1 != 0,
            fin: fbyte & 2 != 0,
            rst: fbyte & 4 != 0,
            cm_ack: fbyte & 8 != 0,
        };
        let isn = u32_at(&mut i);
        let ack_isn = u32_at(&mut i);
        let seq = u32_at(&mut i);
        let ack = u32_at(&mut i);
        let rdb = b[i];
        i += 1;
        let has_ack = rdb & 1 != 0;
        let n_sack = ((rdb >> 1) & 0x3) as usize;
        if n_sack > 2 {
            return Err(WireError::BadSackCount);
        }
        if b.len() < i + n_sack * 8 + 3 {
            let need = BODY_AT + i + n_sack * 8 + 3;
            return Err(WireError::Truncated { need, got: bytes.len() });
        }
        let mut sack = Vec::with_capacity(n_sack);
        for _ in 0..n_sack {
            let start = u32_at(&mut i);
            let end = u32_at(&mut i);
            sack.push(SackRange { start, end });
        }
        let ecn_echo = b[i] != 0;
        i += 1;
        let rcv_wnd = u16::from_be_bytes([b[i], b[i + 1]]);
        i += 2;
        Ok(Packet {
            src_addr,
            dst_addr,
            dm: DmHeader { src_port, dst_port },
            cm: CmHeader { flags, isn, ack_isn },
            rd: RdHeader { seq, ack, has_ack, sack },
            osr: OsrHeader { ecn_echo, rcv_wnd },
            payload: b[i..].to_vec(),
        })
    }

    /// Render the packet as one line per sublayer — the paper's pedagogy
    /// claim ("sublayering has obvious pedagogic advantages in teaching")
    /// made tangible: every header bit is attributed to its owner.
    pub fn describe(&self) -> String {
        let f = &self.cm.flags;
        let mut flags = String::new();
        for (on, c) in [(f.syn, "SYN"), (f.fin, "FIN"), (f.rst, "RST"), (f.cm_ack, "CMACK")] {
            if on {
                if !flags.is_empty() {
                    flags.push('|');
                }
                flags.push_str(c);
            }
        }
        if flags.is_empty() {
            flags.push('-');
        }
        let sack = if self.rd.sack.is_empty() {
            String::new()
        } else {
            format!(
                " sack={:?}",
                self.rd.sack.iter().map(|r| (r.start, r.end)).collect::<Vec<_>>()
            )
        };
        format!(
            "DM [{} -> {}]  CM [{} isn={} ack_isn={}]  RD [seq={}{}{}]  OSR [wnd={}{}]  payload {}B",
            self.src_addr & 0xFF,
            self.dst_addr & 0xFF,
            flags,
            self.cm.isn,
            self.cm.ack_isn,
            self.rd.seq,
            if self.rd.has_ack { format!(" ack={}", self.rd.ack) } else { String::new() },
            sack,
            self.osr.rcv_wnd,
            if self.osr.ecn_echo { " ECN" } else { "" },
            self.payload.len()
        )
    }

    /// Header size in bytes for the given SACK count (experiment E11).
    pub fn header_len(n_sack: usize) -> usize {
        // magic + addrs + csum + DM(4) + CM(9) + RD(9 + 8*sack) + OSR(3)
        1 + 8 + 2 + 4 + 9 + 9 + 8 * n_sack + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet {
            src_addr: 0x0A000001,
            dst_addr: 0x0A000002,
            dm: DmHeader { src_port: 5000, dst_port: 80 },
            cm: CmHeader {
                flags: CmFlags { syn: true, fin: false, rst: false, cm_ack: true },
                isn: 0x11111111,
                ack_isn: 0x22222222,
            },
            rd: RdHeader {
                seq: 100,
                ack: 200,
                has_ack: true,
                sack: vec![SackRange { start: 300, end: 400 }],
            },
            osr: OsrHeader { ecn_echo: true, rcv_wnd: 9000 },
            payload: b"native".to_vec(),
        }
    }

    #[test]
    fn round_trip() {
        let p = sample();
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn round_trip_minimal() {
        let p = Packet {
            src_addr: 1,
            dst_addr: 2,
            dm: DmHeader { src_port: 1, dst_port: 2 },
            ..Default::default()
        };
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn round_trip_two_sack_ranges() {
        let mut p = sample();
        p.rd.sack.push(SackRange { start: 500, end: 600 });
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn encode_clamps_excess_sack_ranges() {
        // The 2-bit on-wire count cannot carry more than two ranges; a
        // third must be dropped at encode, not allowed to alias the count.
        let mut p = sample();
        p.rd.sack.push(SackRange { start: 500, end: 600 });
        p.rd.sack.push(SackRange { start: 700, end: 800 });
        let got = Packet::decode(&p.encode()).expect("still decodes");
        assert_eq!(got.rd.sack, p.rd.sack[..2].to_vec());
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            if let Ok(got) = Packet::decode(&bad) {
                panic!("flip at {i} undetected: {got:?}");
            }
        }
    }

    #[test]
    fn truncation_regressions() {
        // Every prefix of a valid packet must yield a typed error — the
        // fuzz-found class this decoder must never panic on again.
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            let err = Packet::decode(&bytes[..n]).expect_err("prefix accepted");
            if n == 0 {
                assert_eq!(err, WireError::BadMagic);
            } else if n < 36 {
                assert_eq!(err, WireError::Truncated { need: 36, got: n });
            }
        }
    }

    #[test]
    fn advertised_sack_past_end_is_truncated_error() {
        // Re-seal the checksum after raising the SACK count so the length
        // guard (not the checksum) must catch the overrun.
        let mut bytes = Packet { payload: vec![], ..sample() }.encode();
        let rdb_at = 11 + 21; // body offset of the RD count byte
        bytes[rdb_at] = (bytes[rdb_at] & 1) | (2 << 1); // claim 2 ranges, carry 1
        let src = u32::from_be_bytes(bytes[1..5].try_into().unwrap());
        let dst = u32::from_be_bytes(bytes[5..9].try_into().unwrap());
        let csum = tcp_mono::wire::checksum(src, dst, &bytes[11..]);
        bytes[9] = (csum >> 8) as u8;
        bytes[10] = csum as u8;
        assert!(matches!(
            Packet::decode(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut bytes = vec![0u8; MAX_FRAME_BYTES + 1];
        bytes[0] = 0x5B;
        assert_eq!(
            Packet::decode(&bytes),
            Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: MAX_FRAME_BYTES + 1 })
        );
    }

    #[test]
    fn rejects_rfc793_traffic() {
        // A standard segment from the monolithic stack must not parse as a
        // native packet.
        let seg = tcp_mono::wire::Segment {
            src: Endpoint::new(1, 2),
            dst: Endpoint::new(3, 4),
            seq: 0,
            ack: 0,
            flags: tcp_mono::wire::SYN,
            wnd: 100,
            mss: None,
            payload: vec![],
        };
        assert_eq!(Packet::decode(&seg.encode()), Err(WireError::BadMagic));
    }

    #[test]
    fn header_len_matches_encode() {
        for n_sack in 0..=2 {
            let mut p = sample();
            p.rd.sack = (0..n_sack as u32)
                .map(|i| SackRange { start: i * 10, end: i * 10 + 5 })
                .collect();
            p.payload.clear();
            assert_eq!(p.encode().len(), Packet::header_len(n_sack));
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_any_packet_round_trips(
            src_addr: u32, dst_addr: u32, sp: u16, dp: u16,
            syn: bool, fin: bool, rst: bool, cm_ack: bool,
            isn: u32, ack_isn: u32, seq: u32, ack: u32, has_ack: bool,
            n_sack in 0usize..=2, ecn: bool, wnd: u16,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        ) {
            let pkt = Packet {
                src_addr,
                dst_addr,
                dm: DmHeader { src_port: sp, dst_port: dp },
                cm: CmHeader { flags: CmFlags { syn, fin, rst, cm_ack }, isn, ack_isn },
                rd: RdHeader {
                    seq,
                    ack,
                    has_ack,
                    sack: (0..n_sack as u32)
                        .map(|i| SackRange { start: seq.wrapping_add(i), end: ack.wrapping_add(i) })
                        .collect(),
                },
                osr: OsrHeader { ecn_echo: ecn, rcv_wnd: wnd },
                payload,
            };
            proptest::prop_assert_eq!(Packet::decode(&pkt.encode()), Ok(pkt));
        }

        #[test]
        fn prop_decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
        ) {
            // Ok or typed Err — any panic fails the harness itself.
            let _ = Packet::decode(&bytes);
        }

        #[test]
        fn prop_decode_never_panics_on_mutated_valid_packet(
            flip in 0usize..48, val: u8,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        ) {
            // Mutate an almost-valid frame, then re-seal the checksum so the
            // parse proper (SACK counts, lengths) is what gets probed.
            let mut bytes = Packet { payload, ..sample() }.encode();
            let i = flip % bytes.len();
            bytes[i] = val;
            let src = u32::from_be_bytes(bytes[1..5].try_into().unwrap());
            let dst = u32::from_be_bytes(bytes[5..9].try_into().unwrap());
            let csum = tcp_mono::wire::checksum(src, dst, &bytes[11..]);
            bytes[9] = (csum >> 8) as u8;
            bytes[10] = csum as u8;
            let _ = Packet::decode(&bytes);
        }
    }

    #[test]
    fn describe_attributes_fields_to_sublayers() {
        let d = sample().describe();
        for part in ["DM [", "CM [SYN|CMACK", "RD [seq=100 ack=200", "OSR [wnd=9000 ECN", "payload 6B"] {
            assert!(d.contains(part), "{d:?} missing {part:?}");
        }
    }

    #[test]
    fn endpoints_combine_addr_and_port() {
        let p = sample();
        assert_eq!(p.src(), Endpoint::new(0x0A000001, 5000));
        assert_eq!(p.dst(), Endpoint::new(0x0A000002, 80));
    }
}
