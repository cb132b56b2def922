//! The composed framing codec and its monolithic counterpart.
//!
//! [`FrameCodec`] is the *sublayered* implementation from §4.1: the stuffing
//! sublayer sits above the flag sublayer, and the only value that crosses
//! between them is a frame of bits. The module also provides
//! [`monolithic`]: the traditional single-pass implementation the paper
//! contrasts (sender emits flag, stuffs on the fly, emits flag; receiver
//! detects/unstuffs in one loop). The two must be observationally
//! equivalent — a property tested here and benchmarked in `bench`.

use crate::bits::BitVec;
use crate::flags::{FlagError, Flagger};
use crate::rule::StuffRule;
use crate::stuff::{StuffError, Stuffer};
use std::fmt;

/// Errors from frame decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    Flag(FlagError),
    Stuff(StuffError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Flag(e) => write!(f, "flag sublayer: {e}"),
            FrameError::Stuff(e) => write!(f, "stuffing sublayer: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FlagError> for FrameError {
    fn from(e: FlagError) -> Self {
        FrameError::Flag(e)
    }
}

impl From<StuffError> for FrameError {
    fn from(e: StuffError) -> Self {
        FrameError::Stuff(e)
    }
}

/// The sublayered framing codec: stuffing over flags.
#[derive(Clone, Debug)]
pub struct FrameCodec {
    stuffer: Stuffer,
    flagger: Flagger,
}

impl FrameCodec {
    /// Compose a stuffing rule with a flag. The pairing is *not* validated
    /// here — run [`crate::verify::check_rule`] first; [`FrameCodec::hdlc`]
    /// and validated pairings from [`crate::search()`] are always safe.
    pub fn new(rule: StuffRule, flag: BitVec) -> Result<FrameCodec, StuffError> {
        Ok(FrameCodec { stuffer: Stuffer::new(rule)?, flagger: Flagger::new(flag) })
    }

    /// The classic HDLC pairing.
    pub fn hdlc() -> FrameCodec {
        FrameCodec::new(StuffRule::hdlc(), crate::rule::Flag::hdlc()).expect("HDLC terminates")
    }

    /// The paper's low-overhead pairing (flag `00000010`, stuff `1` after
    /// `0000001`).
    pub fn low_overhead() -> FrameCodec {
        FrameCodec::new(StuffRule::low_overhead(), crate::rule::Flag::low_overhead())
            .expect("rule terminates")
    }

    pub fn stuffer(&self) -> &Stuffer {
        &self.stuffer
    }

    pub fn flagger(&self) -> &Flagger {
        &self.flagger
    }

    /// Sender: `AddFlags(Stuff(data))` — each sublayer applied separately.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        self.flagger.add_flags(&self.stuffer.stuff(data))
    }

    /// Receiver: `Unstuff(RemoveFlags(stream))`.
    pub fn decode(&self, stream: &BitVec) -> Result<BitVec, FrameError> {
        Ok(self.stuffer.unstuff(&self.flagger.remove_flags(stream)?)?)
    }

    /// Receiver over a continuous stream possibly carrying many frames.
    /// Frames whose stuffing is inconsistent (corruption) are dropped.
    pub fn decode_stream(&self, stream: &BitVec) -> Vec<BitVec> {
        self.flagger
            .decode_stream(stream)
            .iter()
            .filter_map(|body| self.stuffer.unstuff(body).ok())
            .collect()
    }
}

/// The traditional single-pass implementation (the paper's "standard
/// implementation": sender emits a start flag, stuffs the data on the fly,
/// and finally emits an end flag — one loop, no sublayer boundary).
pub mod monolithic {
    use super::*;
    use crate::matcher::Matcher;

    /// Single-pass encoder.
    pub fn encode(rule: &StuffRule, flag: &BitVec, data: &BitVec) -> BitVec {
        let m = Matcher::new(&rule.trigger);
        let accept = m.accept();
        let mut out = BitVec::with_capacity(data.len() + 2 * flag.len() + data.len() / 8);
        // Start flag, stuffing counter not running over flag bits.
        out.extend_bits(flag);
        let mut st = 0;
        for bit in data.iter() {
            out.push(bit);
            st = m.step(st, bit);
            if st == accept {
                out.push(rule.stuff_bit);
                st = m.step(st, rule.stuff_bit);
            }
        }
        out.extend_bits(flag);
        out
    }

    /// Single-pass decoder: hunts for the opening flag, then unstuffs on the
    /// fly while watching for the closing flag with a continuous detector.
    pub fn decode(rule: &StuffRule, flag: &BitVec, stream: &BitVec) -> Result<BitVec, FrameError> {
        let fm = Matcher::new(flag);
        let tm = Matcher::new(&rule.trigger);

        // Hunt for the opening flag.
        let mut fs = 0;
        let mut i = 0;
        let mut opened = false;
        while i < stream.len() {
            fs = fm.step(fs, stream.get(i));
            i += 1;
            if fs == fm.accept() {
                opened = true;
                break;
            }
        }
        if !opened {
            return Err(FlagError::NoOpeningFlag.into());
        }
        // Restart-scan semantics (the paper's RemoveFlags): the detector
        // resets after consuming the opening flag.
        fs = 0;

        // Body: unstuff while looking for the closing flag. Because the
        // closing flag's last |flag| bits are not body, we buffer decoded
        // output along with the input position that produced it and roll
        // back when the flag fires.
        let start = i;
        let mut ts = 0;
        // When a trigger match completes, records the input index of the
        // bit that completed it: the *next* bit must be a stuff bit.
        let mut pending_stuff_after: Option<usize> = None;
        // First stuffing violation seen, by input index. A violation is
        // only an error if it turns out to lie inside the body — bits that
        // later prove to be closing-flag bits are allowed to "violate" the
        // stuffing rule (that is precisely how HDLC's receiver tells a flag
        // from data: 11111 followed by 1 means flag, not data error).
        let mut violation: Option<usize> = None;
        // (input_index_consumed, decoded_bit or None for stuffed)
        let mut decoded: Vec<(usize, Option<bool>)> = Vec::new();
        while i < stream.len() {
            let bit = stream.get(i);
            fs = fm.step(fs, bit);
            if fs == fm.accept() {
                // Closing flag fired ending at i+1. Body input is
                // stream[start .. i+1-|flag|]; drop decoded entries from the
                // flag region (they were speculative body bits).
                let body_end = i + 1 - flag.len();
                if let Some(p) = violation {
                    if p < body_end {
                        return Err(StuffError::UnexpectedBit(p - start).into());
                    }
                }
                // If a trigger completed on the last true body bit, the
                // frame ended where a stuff bit was required — only possible
                // on invalid rule pairings or corruption.
                if pending_stuff_after.is_some_and(|p| p + 1 == body_end) {
                    return Err(StuffError::Truncated.into());
                }
                let mut out = BitVec::new();
                for &(pos, b) in &decoded {
                    if pos < body_end {
                        if let Some(b) = b {
                            out.push(b);
                        }
                    }
                }
                return Ok(out);
            }
            if pending_stuff_after.take().is_some() {
                if bit != rule.stuff_bit {
                    // Defer: this may be a closing-flag bit, not body.
                    violation.get_or_insert(i);
                    // Treat it as ordinary body speculation from here on.
                    decoded.push((i, Some(bit)));
                    ts = tm.step(ts, bit);
                    if ts == tm.accept() {
                        pending_stuff_after = Some(i);
                    }
                } else {
                    ts = tm.step(ts, bit);
                    decoded.push((i, None));
                }
            } else {
                decoded.push((i, Some(bit)));
                ts = tm.step(ts, bit);
                if ts == tm.accept() {
                    pending_stuff_after = Some(i);
                }
            }
            i += 1;
        }
        Err(FlagError::NoClosingFlag.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bits;

    #[test]
    fn encode_decode_round_trip_hdlc() {
        let c = FrameCodec::hdlc();
        for len in 0..=10usize {
            for n in 0..(1u64 << len) {
                let d = BitVec::from_uint(n, len);
                assert_eq!(c.decode(&c.encode(&d)), Ok(d));
            }
        }
    }

    #[test]
    fn encode_decode_round_trip_low_overhead() {
        let c = FrameCodec::low_overhead();
        for len in 0..=10usize {
            for n in 0..(1u64 << len) {
                let d = BitVec::from_uint(n, len);
                assert_eq!(c.decode(&c.encode(&d)), Ok(d));
            }
        }
    }

    #[test]
    fn stream_of_frames_round_trips() {
        let c = FrameCodec::hdlc();
        let frames = [bits("11111"), bits("010101"), bits("1111111111")];
        let mut stream = BitVec::new();
        for f in &frames {
            stream.extend_bits(&c.encode(f));
        }
        assert_eq!(c.decode_stream(&stream), frames.to_vec());
    }

    #[test]
    fn worst_case_data_contains_flag_pattern() {
        // Data that *is* the flag must still round-trip: stuffing prevents a
        // false flag.
        let c = FrameCodec::hdlc();
        let d = bits("01111110");
        let encoded = c.encode(&d);
        assert_eq!(c.decode(&encoded), Ok(d));
    }

    #[test]
    fn monolithic_equals_sublayered_exhaustive() {
        let c = FrameCodec::hdlc();
        let rule = StuffRule::hdlc();
        let flag = crate::rule::Flag::hdlc();
        for len in 0..=10usize {
            for n in 0..(1u64 << len) {
                let d = BitVec::from_uint(n, len);
                let sub = c.encode(&d);
                let mono = monolithic::encode(&rule, &flag, &d);
                assert_eq!(sub, mono, "encode mismatch for {d}");
                assert_eq!(monolithic::decode(&rule, &flag, &sub), Ok(d));
            }
        }
    }

    #[test]
    fn monolithic_decode_rejects_noise() {
        let rule = StuffRule::hdlc();
        let flag = crate::rule::Flag::hdlc();
        assert_eq!(
            monolithic::decode(&rule, &flag, &bits("10101010")),
            Err(FrameError::Flag(FlagError::NoOpeningFlag))
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_spec_round_trip(data in proptest::collection::vec(proptest::bool::ANY, 0..300)) {
            // The paper's main specification:
            // Unstuff(RemoveFlags(AddFlags(Stuff(D)))) = D.
            let c = FrameCodec::hdlc();
            let d = BitVec::from_bools(&data);
            proptest::prop_assert_eq!(c.decode(&c.encode(&d)), Ok(d));
        }

        #[test]
        fn prop_monolithic_equivalence(data in proptest::collection::vec(proptest::bool::ANY, 0..300)) {
            let c = FrameCodec::low_overhead();
            let rule = StuffRule::low_overhead();
            let flag = crate::rule::Flag::low_overhead();
            let d = BitVec::from_bools(&data);
            proptest::prop_assert_eq!(c.encode(&d), monolithic::encode(&rule, &flag, &d));
            proptest::prop_assert_eq!(monolithic::decode(&rule, &flag, &c.encode(&d)), Ok(d));
        }
    }
}
