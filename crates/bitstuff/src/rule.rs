//! Stuffing rules.
//!
//! A *stuffing rule* generalizes HDLC's "after five 1s, insert a 0": it is a
//! trigger bit-string `T` and a stuff bit `b`. Whenever the transmitted
//! stream matches `T`, the sender inserts `b`; the receiver deletes the bit
//! following any match of `T`. The paper's §4.1 experiment searches the rule
//! space for alternatives to HDLC's rule with lower stuffing overhead.

use crate::bits::{bits, BitVec};
use crate::matcher::Matcher;
use std::fmt;

/// A bit-stuffing rule: after the output matches `trigger`, insert
/// `stuff_bit`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StuffRule {
    pub trigger: BitVec,
    pub stuff_bit: bool,
}

impl StuffRule {
    pub fn new(trigger: BitVec, stuff_bit: bool) -> StuffRule {
        StuffRule { trigger, stuff_bit }
    }

    /// The classic HDLC rule: after `11111`, stuff a `0`.
    pub fn hdlc() -> StuffRule {
        StuffRule::new(bits("11111"), false)
    }

    /// The lower-overhead rule highlighted by the paper (§4.1, lesson 2):
    /// after `0000001`, stuff a `1`. Pairs with flag [`Flag::low_overhead`]
    /// (`00000010`); its random-model overhead is 1 in 128 versus HDLC's
    /// 1 in 32 (naive model).
    pub fn low_overhead() -> StuffRule {
        StuffRule::new(bits("0000001"), true)
    }

    /// A rule is *terminating* when the inserted stuff bit can never itself
    /// complete another trigger match (which would force inserting forever).
    /// E.g. trigger `11` with stuff bit `1` diverges.
    pub fn is_terminating(&self) -> bool {
        let m = Matcher::new(&self.trigger);
        m.step(m.accept(), self.stuff_bit) != m.accept()
    }
}

impl fmt::Debug for StuffRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "after {} stuff {}", self.trigger, self.stuff_bit as u8)
    }
}

impl fmt::Display for StuffRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Well-known flags.
pub struct Flag;

impl Flag {
    /// The HDLC flag `01111110`.
    pub fn hdlc() -> BitVec {
        bits("01111110")
    }

    /// The paper's low-overhead flag `00000010`.
    pub fn low_overhead() -> BitVec {
        bits("00000010")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdlc_rule_shape() {
        let r = StuffRule::hdlc();
        assert_eq!(format!("{r}"), "after 11111 stuff 0");
        assert!(r.is_terminating());
    }

    #[test]
    fn low_overhead_rule_terminates() {
        assert!(StuffRule::low_overhead().is_terminating());
    }

    #[test]
    fn divergent_rules_detected() {
        // After 11 stuff 1 -> the stuffed 1 completes 11 again.
        assert!(!StuffRule::new(bits("11"), true).is_terminating());
        assert!(!StuffRule::new(bits("1"), true).is_terminating());
        assert!(!StuffRule::new(bits("0"), false).is_terminating());
        // After 01 stuff 1 -> the stuffed 1 cannot complete 01.
        assert!(StuffRule::new(bits("01"), true).is_terminating());
    }

    #[test]
    fn all_single_bit_rules_with_opposite_stuff_terminate() {
        assert!(StuffRule::new(bits("1"), false).is_terminating());
        assert!(StuffRule::new(bits("0"), true).is_terminating());
    }
}
