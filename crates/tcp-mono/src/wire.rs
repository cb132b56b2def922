//! The standard (RFC 793) TCP segment format, carried over a minimal
//! 8-byte network header (source/destination address) standing in for IP.
//!
//! This is the *monolithic* wire format: one header whose fields are read
//! and written by every subfunction — ports by demultiplexing, SYN/FIN and
//! ISNs by connection management, seq/ack by reliable delivery, window by
//! both flow control and (implicitly) congestion control. The sublayered
//! stack's shim (experiment E7) translates its native Figure-6 format to
//! and from exactly these bytes, which is what lets the two stacks
//! interoperate.

use netsim::FrameMeta;
pub use netsim::{Endpoint, FourTuple};
use std::fmt;

pub const FIN: u8 = 0x01;
pub const SYN: u8 = 0x02;
pub const RST: u8 = 0x04;
pub const PSH: u8 = 0x08;
pub const ACK: u8 = 0x10;

/// Largest frame either codec will accept. Anything bigger than a maximal
/// TCP segment (60-byte header + 64 KiB payload + network header) is
/// hostile or corrupt, and rejecting it up front bounds what a decoder can
/// be made to allocate.
pub const MAX_FRAME_BYTES: usize = 8 + 60 + 65535;

/// Smallest well-formed frame: 8-byte network header plus the 20-byte
/// option-less TCP header. Exposed so cross-format tooling (the
/// `slconform` codec-equivalence certificate) can reason about the
/// format's floor without re-deriving it.
pub const MIN_SEGMENT_BYTES: usize = NET_HEADER_BYTES + 20;

/// The simulator's network header: source and destination address.
const NET_HEADER_BYTES: usize = 8;

/// Typed decode failure: every way a frame can be malformed, so hostile
/// input is *classified*, never panicked on and never silently mis-parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the fixed header (or an advertised variable part)
    /// requires.
    Truncated { need: usize, got: usize },
    /// Larger than [`MAX_FRAME_BYTES`].
    Oversized { limit: usize, got: usize },
    /// Checksum mismatch (corruption or deliberate mutation).
    BadChecksum,
    /// First byte is not the native-format magic (sublayered codec only).
    BadMagic,
    /// TCP data offset smaller than the minimum header or past the end of
    /// the segment.
    BadDataOffset,
    /// Malformed TCP option (bad length or overrun of the option area).
    BadOption,
    /// SACK count exceeds what the native header can carry.
    BadSackCount,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            WireError::Oversized { limit, got } => {
                write!(f, "oversized frame: {got} bytes exceeds limit {limit}")
            }
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadMagic => write!(f, "bad magic byte"),
            WireError::BadDataOffset => write!(f, "bad data offset"),
            WireError::BadOption => write!(f, "malformed TCP option"),
            WireError::BadSackCount => write!(f, "bad SACK count"),
        }
    }
}

/// A TCP segment plus its network-header addresses.
#[derive(Clone, PartialEq, Eq)]
pub struct Segment {
    pub src: Endpoint,
    pub dst: Endpoint,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub wnd: u16,
    /// MSS option (kind 2), carried on SYN segments.
    pub mss: Option<u16>,
    pub payload: Vec<u8>,
}

impl Segment {
    pub fn fin(&self) -> bool {
        self.flags & FIN != 0
    }
    pub fn syn(&self) -> bool {
        self.flags & SYN != 0
    }
    pub fn rst(&self) -> bool {
        self.flags & RST != 0
    }
    pub fn ack_flag(&self) -> bool {
        self.flags & ACK != 0
    }

    /// Sequence space the segment occupies (payload + SYN + FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.syn() as u32 + self.fin() as u32
    }

    /// Serialize, computing the checksum.
    pub fn encode(&self) -> Vec<u8> {
        let options_len: usize = if self.mss.is_some() { 4 } else { 0 };
        let data_offset_words = (20 + options_len) / 4;
        let mut out = Vec::with_capacity(28 + options_len + self.payload.len());
        out.extend_from_slice(&self.src.addr.to_be_bytes());
        out.extend_from_slice(&self.dst.addr.to_be_bytes());
        let tcp_start = out.len();
        out.extend_from_slice(&self.src.port.to_be_bytes());
        out.extend_from_slice(&self.dst.port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((data_offset_words as u8) << 4);
        out.push(self.flags);
        out.extend_from_slice(&self.wnd.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer (unused)
        if let Some(mss) = self.mss {
            out.push(2); // kind: MSS
            out.push(4); // length
            out.extend_from_slice(&mss.to_be_bytes());
        }
        out.extend_from_slice(&self.payload);
        let csum = checksum(self.src.addr, self.dst.addr, &out[tcp_start..]);
        out[tcp_start + 16] = (csum >> 8) as u8;
        out[tcp_start + 17] = csum as u8;
        out
    }

    /// Parse and verify the checksum; a typed [`WireError`] for malformed
    /// or corrupt segments — hostile bytes must classify, never panic.
    pub fn decode(bytes: &[u8]) -> Result<Segment, WireError> {
        if bytes.len() < MIN_SEGMENT_BYTES {
            return Err(WireError::Truncated { need: MIN_SEGMENT_BYTES, got: bytes.len() });
        }
        if bytes.len() > MAX_FRAME_BYTES {
            return Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: bytes.len() });
        }
        let src_addr = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
        let dst_addr = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        let tcp = &bytes[NET_HEADER_BYTES..];
        if checksum(src_addr, dst_addr, tcp) != 0 {
            return Err(WireError::BadChecksum); // csum incl. its own field is 0
        }
        let src_port = u16::from_be_bytes(tcp[0..2].try_into().unwrap());
        let dst_port = u16::from_be_bytes(tcp[2..4].try_into().unwrap());
        let seq = u32::from_be_bytes(tcp[4..8].try_into().unwrap());
        let ack = u32::from_be_bytes(tcp[8..12].try_into().unwrap());
        let data_offset = (tcp[12] >> 4) as usize * 4;
        if data_offset < 20 || data_offset > tcp.len() {
            return Err(WireError::BadDataOffset);
        }
        let flags = tcp[13] & 0x3F;
        let wnd = u16::from_be_bytes(tcp[14..16].try_into().unwrap());
        // Parse options (we understand only MSS).
        let mut mss = None;
        let mut i = 20;
        while i < data_offset {
            match tcp[i] {
                0 => break,    // end of options
                1 => i += 1,   // NOP
                2 => {
                    if i + 4 > data_offset {
                        return Err(WireError::BadOption);
                    }
                    mss = Some(u16::from_be_bytes(tcp[i + 2..i + 4].try_into().unwrap()));
                    i += 4;
                }
                _ => {
                    // Unknown option: skip by its length byte.
                    if i + 1 >= data_offset {
                        return Err(WireError::BadOption);
                    }
                    let l = tcp[i + 1] as usize;
                    if l < 2 || i + l > data_offset {
                        return Err(WireError::BadOption);
                    }
                    i += l;
                }
            }
        }
        Ok(Segment {
            src: Endpoint::new(src_addr, src_port),
            dst: Endpoint::new(dst_addr, dst_port),
            seq,
            ack,
            flags,
            wnd,
            mss,
            payload: tcp[data_offset..].to_vec(),
        })
    }
}

/// Read the addressing off an RFC 793 frame without checksumming or
/// parsing the rest — just enough for a host to demux or a router to
/// forward. `None` below [`MIN_SEGMENT_BYTES`]. The format has no magic
/// byte, so a foreign frame of that length reads as some address pair;
/// the full decode rejects it on the checksum.
pub fn classify(frame: &[u8]) -> Option<FrameMeta> {
    if frame.len() < MIN_SEGMENT_BYTES {
        return None;
    }
    let u32_at =
        |i: usize| u32::from_be_bytes([frame[i], frame[i + 1], frame[i + 2], frame[i + 3]]);
    let u16_at = |i: usize| u16::from_be_bytes([frame[i], frame[i + 1]]);
    Some(FrameMeta {
        src: Endpoint::new(u32_at(0), u16_at(NET_HEADER_BYTES)),
        dst: Endpoint::new(u32_at(4), u16_at(NET_HEADER_BYTES + 2)),
    })
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut flags = String::new();
        for (bit, c) in [(SYN, 'S'), (ACK, 'A'), (FIN, 'F'), (RST, 'R'), (PSH, 'P')] {
            if self.flags & bit != 0 {
                flags.push(c);
            }
        }
        write!(
            f,
            "{:?}->{:?} [{flags}] seq={} ack={} wnd={} len={}",
            self.src,
            self.dst,
            self.seq,
            self.ack,
            self.wnd,
            self.payload.len()
        )
    }
}

/// RFC 1071 one's-complement checksum over a pseudo-header
/// (addresses + protocol 6 + length) and the TCP segment.
pub fn checksum(src: u32, dst: u32, tcp: &[u8]) -> u16 {
    let mut acc: u64 = 0;
    acc += (src >> 16) as u64 + (src & 0xFFFF) as u64;
    acc += (dst >> 16) as u64 + (dst & 0xFFFF) as u64;
    acc += 6; // protocol
    acc += tcp.len() as u64;
    let mut chunks = tcp.chunks_exact(2);
    for c in &mut chunks {
        acc += u16::from_be_bytes([c[0], c[1]]) as u64;
    }
    if let [last] = chunks.remainder() {
        acc += u16::from_be_bytes([*last, 0]) as u64;
    }
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        Segment {
            src: Endpoint::new(0x0A000001, 1234),
            dst: Endpoint::new(0x0A000002, 80),
            seq: 0xDEADBEEF,
            ack: 0x12345678,
            flags: SYN | ACK,
            wnd: 4096,
            mss: Some(1400),
            payload: b"hello".to_vec(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample();
        assert_eq!(Segment::decode(&s.encode()), Ok(s));
    }

    #[test]
    fn round_trip_without_options_or_payload() {
        let s = Segment { mss: None, payload: vec![], flags: ACK, ..sample() };
        assert_eq!(Segment::decode(&s.encode()), Ok(s));
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Either rejected outright or decodes to something != original —
            // the checksum must catch payload/header flips.
            if let Ok(seg) = Segment::decode(&bad) {
                // A flip in the network header changes addresses, which are
                // covered by the pseudo-header; decode must fail.
                panic!("flip at byte {i} went undetected: {seg:?}");
            }
        }
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(Segment::decode(&[0; 10]), Err(WireError::Truncated { need: 28, got: 10 }));
        assert_eq!(Segment::decode(&[]), Err(WireError::Truncated { need: 28, got: 0 }));
    }

    #[test]
    fn truncation_regressions() {
        // Every prefix of a valid segment must decode to a typed error (the
        // length check, then the checksum over the shortened body) — the
        // fuzz-found class of bugs this codec must never reintroduce.
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            let err = Segment::decode(&bytes[..n]).expect_err("prefix accepted");
            if n < 28 {
                assert_eq!(err, WireError::Truncated { need: 28, got: n });
            }
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let bytes = vec![0u8; MAX_FRAME_BYTES + 1];
        assert_eq!(
            Segment::decode(&bytes),
            Err(WireError::Oversized { limit: MAX_FRAME_BYTES, got: MAX_FRAME_BYTES + 1 })
        );
    }

    #[test]
    fn bad_option_classified() {
        // Valid checksum but an MSS option whose length overruns the
        // option area: must be BadOption, not a slice panic.
        let src = Endpoint::new(1, 10);
        let dst = Endpoint::new(2, 20);
        let mut tcp: Vec<u8> = Vec::new();
        tcp.extend_from_slice(&10u16.to_be_bytes());
        tcp.extend_from_slice(&20u16.to_be_bytes());
        tcp.extend_from_slice(&7u32.to_be_bytes());
        tcp.extend_from_slice(&9u32.to_be_bytes());
        tcp.push(6 << 4); // data offset 24: room for 4 option bytes
        tcp.push(ACK);
        tcp.extend_from_slice(&100u16.to_be_bytes());
        tcp.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        tcp.extend_from_slice(&[1, 1, 1, 2]); // NOPs then MSS kind at the last byte
        let csum = checksum(src.addr, dst.addr, &tcp);
        tcp[16] = (csum >> 8) as u8;
        tcp[17] = csum as u8;
        let mut bytes = src.addr.to_be_bytes().to_vec();
        bytes.extend_from_slice(&dst.addr.to_be_bytes());
        bytes.extend_from_slice(&tcp);
        assert_eq!(Segment::decode(&bytes), Err(WireError::BadOption));
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = sample();
        assert_eq!(s.seq_len(), 5 + 1); // payload + SYN
        s.flags = SYN | FIN;
        assert_eq!(s.seq_len(), 5 + 2);
        s.flags = ACK;
        assert_eq!(s.seq_len(), 5);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut bytes = sample().encode();
        bytes[8 + 12] = 0x20; // data offset 8 words = 32 bytes > segment? ok but options broken
        assert_eq!(Segment::decode(&bytes), Err(WireError::BadChecksum)); // csum fails first
    }

    #[test]
    fn unknown_options_are_skipped() {
        // Hand-craft a header with NOP, an unknown option, then MSS.
        let src = Endpoint::new(1, 10);
        let dst = Endpoint::new(2, 20);
        let mut tcp: Vec<u8> = Vec::new();
        tcp.extend_from_slice(&10u16.to_be_bytes());
        tcp.extend_from_slice(&20u16.to_be_bytes());
        tcp.extend_from_slice(&7u32.to_be_bytes()); // seq
        tcp.extend_from_slice(&9u32.to_be_bytes()); // ack
        tcp.push(8 << 4); // data offset: 32 bytes (12 option bytes)
        tcp.push(ACK);
        tcp.extend_from_slice(&100u16.to_be_bytes());
        tcp.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        tcp.push(1); // NOP
        tcp.extend_from_slice(&[99, 3, 0xAA]); // unknown kind 99, len 3
        tcp.extend_from_slice(&[2, 4]);
        tcp.extend_from_slice(&1234u16.to_be_bytes()); // MSS 1234
        tcp.extend_from_slice(&[0, 0, 0, 0]); // pad to offset 32
        let csum = checksum(src.addr, dst.addr, &tcp);
        tcp[16] = (csum >> 8) as u8;
        tcp[17] = csum as u8;
        let mut bytes = src.addr.to_be_bytes().to_vec();
        bytes.extend_from_slice(&dst.addr.to_be_bytes());
        bytes.extend_from_slice(&tcp);
        let seg = Segment::decode(&bytes).expect("decodes");
        assert_eq!(seg.mss, Some(1234));
        assert_eq!(seg.seq, 7);
    }

    #[test]
    fn checksum_of_valid_segment_is_zero() {
        let bytes = sample().encode();
        assert_eq!(checksum(0x0A000001, 0x0A000002, &bytes[8..]), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_any_segment_round_trips(
            sa: u32, da: u32, sp: u16, dp: u16, seq: u32, ack: u32,
            flags in 0u8..32, wnd: u16, mss in proptest::option::of(proptest::num::u16::ANY),
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        ) {
            let s = Segment {
                src: Endpoint::new(sa, sp),
                dst: Endpoint::new(da, dp),
                seq, ack, flags, wnd, mss, payload,
            };
            proptest::prop_assert_eq!(Segment::decode(&s.encode()), Ok(s));
        }

        #[test]
        fn prop_decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
        ) {
            // Ok or typed Err — any panic fails the test harness itself.
            let _ = Segment::decode(&bytes);
        }

        #[test]
        fn prop_decode_never_panics_on_mutated_valid_segment(
            flip in 0usize..33, val: u8,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        ) {
            // Mutations of *almost-valid* frames probe the deep parse paths
            // (options, offsets) that random bytes rarely reach past the
            // checksum — so re-seal the checksum after mutating.
            let mut bytes = Segment { payload, ..sample() }.encode();
            let i = flip % bytes.len();
            bytes[i] = val;
            bytes[8 + 16] = 0;
            bytes[8 + 17] = 0;
            let sa = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
            let da = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
            let csum = checksum(sa, da, &bytes[8..]);
            bytes[8 + 16] = (csum >> 8) as u8;
            bytes[8 + 17] = csum as u8;
            let _ = Segment::decode(&bytes);
        }
    }

    #[test]
    fn debug_format_shows_flags() {
        let s = format!("{:?}", sample());
        assert!(s.contains("[SA]"), "{s}");
    }
}
