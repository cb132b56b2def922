//! Exact verification of stuffing-rule / flag pairings.
//!
//! This module is the Rust analogue of the paper's Coq development (§4.1).
//! The paper proved, per rule, that
//! `Unstuff(RemoveFlags(AddFlags(Stuff(D)))) = D` for all `D`. For a fixed
//! pairing `(flag F, rule R)` that property is a *finite-state* question:
//! the transmitter is an automaton (the stuffing KMP automaton) and the
//! receiver's false-flag hazard is another automaton (the flag KMP
//! detector). We therefore decide validity **exactly** — soundly and
//! completely — by exhaustive reachability over the product automaton,
//! covering both hazards the paper identifies: "the stuffed bit \[can\] form
//! a flag with subsequent data bits" (a flag occurrence inside the stuffed
//! body) and "some flags can cause a false flag to occur using the data and
//! a prefix of the end flag" (an occurrence straddling the body /
//! closing-flag boundary).
//!
//! ## Receiver models
//!
//! Two receiver semantics exist in practice, and they disagree on which
//! rules are valid:
//!
//! * [`ReceiverModel::RestartScan`] — the receiver hunts for the opening
//!   flag, then **resets** and scans the remainder for the closing flag.
//!   This is how software framers (and the paper's `RemoveFlags` spec)
//!   work. It is the default.
//! * [`ReceiverModel::Continuous`] — a hardware shift-register detector
//!   that keeps matching across the opening-flag/body junction.
//!
//! The distinction matters: the paper's low-overhead pairing (flag
//! `00000010`, stuff `1` after `0000001`) is valid under restart-scan but
//! **invalid** under a continuous detector — the opening flag's trailing
//! `0`, six data zeros, a data `1`... no: concretely, data `000001` makes
//! `opening-flag-tail 0 · 000001 · closing-flag-head 0` spell the flag.
//! Experiment E4 reports valid-rule counts under both models.

use crate::bits::BitVec;
use crate::matcher::Matcher;
use crate::rule::StuffRule;
use std::collections::{HashMap, HashSet, VecDeque};

/// How the receiver's flag detector behaves at flag/body junctions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReceiverModel {
    /// Software-style: reset the detector after consuming a flag (the
    /// paper's `RemoveFlags` semantics). Default.
    RestartScan,
    /// Hardware-style: the detector shift register never resets.
    Continuous,
}

/// Why a pairing is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Invalid {
    /// The stuff bit re-triggers the rule: stuffing would never terminate.
    Divergent,
    /// Some data makes the stuffed body (or, under the continuous model,
    /// its junction with the opening flag) contain the flag. `witness` is
    /// such a data string.
    FalseFlagInBody { witness: BitVec },
    /// Some data makes a flag occurrence straddle the body / closing-flag
    /// boundary, firing the detector early. `witness` is such a data
    /// string; the early fire happens `early_by` bits before the true end.
    FalseFlagAtEnd { witness: BitVec, early_by: usize },
}

/// Result of checking a pairing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Valid,
    Invalid(Invalid),
}

impl Verdict {
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid)
    }
}

/// Decide whether `(rule, flag)` is valid under the paper's (restart-scan)
/// receiver: for **all** data `D`, `RemoveFlags` recovers exactly
/// `Stuff(D)` and hence the round-trip specification holds.
pub fn check_rule(rule: &StuffRule, flag: &BitVec) -> Verdict {
    check_rule_with(rule, flag, ReceiverModel::RestartScan)
}

/// Decide validity under an explicit receiver model. Sound and complete for
/// the finite-state formulation: the verdict covers *all* data strings.
pub fn check_rule_with(rule: &StuffRule, flag: &BitVec, model: ReceiverModel) -> Verdict {
    if !rule.is_terminating() {
        return Verdict::Invalid(Invalid::Divergent);
    }
    let tm = Matcher::new(&rule.trigger);
    let fm = Matcher::new(flag);
    let t_accept = tm.accept();
    let f_accept = fm.accept();

    // State = (stuff automaton state, flag detector state) at a point where
    // the transmitter is about to emit a *data* bit.
    let start_flag_state = match model {
        // Detector was reset after the opening flag.
        ReceiverModel::RestartScan => 0,
        // Detector continues from the opening flag's border.
        ReceiverModel::Continuous => fm.border_state(),
    };
    let start = (0usize, start_flag_state);
    // Predecessor map for witness reconstruction: state -> (prev, data bit).
    let mut pred: HashMap<(usize, usize), ((usize, usize), bool)> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut seen = HashSet::new();
    queue.push_back(start);
    seen.insert(start);

    #[allow(clippy::type_complexity)]
    let witness = |pred: &HashMap<(usize, usize), ((usize, usize), bool)>,
                   mut s: (usize, usize)| {
        let mut bits_rev = Vec::new();
        while let Some(&(p, b)) = pred.get(&s) {
            bits_rev.push(b);
            s = p;
        }
        bits_rev.reverse();
        BitVec::from_bools(&bits_rev)
    };

    let mut reachable = Vec::new();
    while let Some(state) = queue.pop_front() {
        reachable.push(state);
        let (ts, fs) = state;
        for bit in [false, true] {
            // Emit the data bit.
            let mut ts2 = tm.step(ts, bit);
            let fs2 = fm.step(fs, bit);
            let mut fs_final = fs2;
            if fs2 == f_accept {
                // The flag fired inside the body.
                let mut w = witness(&pred, state);
                w.push(bit);
                return Verdict::Invalid(Invalid::FalseFlagInBody { witness: w });
            }
            if ts2 == t_accept {
                // Forced stuff bit follows.
                let sb = rule.stuff_bit;
                fs_final = fm.step(fs2, sb);
                if fs_final == f_accept {
                    let mut w = witness(&pred, state);
                    w.push(bit);
                    return Verdict::Invalid(Invalid::FalseFlagInBody { witness: w });
                }
                ts2 = tm.step(ts2, sb);
            }
            let next = (ts2, fs_final);
            if seen.insert(next) {
                pred.insert(next, (state, bit));
                queue.push_back(next);
            }
        }
    }

    // End-of-frame check: from every reachable body state, emit the closing
    // flag and make sure the detector does not fire before its final bit.
    for &state in &reachable {
        let (_, mut fs) = state;
        for (j, fb) in flag.iter().enumerate() {
            fs = fm.step(fs, fb);
            if fs == f_accept && j + 1 < flag.len() {
                return Verdict::Invalid(Invalid::FalseFlagAtEnd {
                    witness: witness(&pred, state),
                    early_by: flag.len() - (j + 1),
                });
            }
        }
        debug_assert_eq!(fs, f_accept, "closing flag must fire at its final bit");
    }

    Verdict::Valid
}

/// The named correctness properties ("lemmas") this crate establishes. The
/// experiment harness reports this inventory as the analogue of the paper's
/// lemma count; each entry is enforced by the decision procedure, an
/// exhaustive bounded check, or a property test in this crate.
pub fn property_inventory() -> Vec<&'static str> {
    vec![
        // Stuffing sublayer, any terminating rule.
        "stuff_unstuff_roundtrip: unstuff(stuff(d)) = d",
        "stuff_termination: terminating rules insert at most one bit per trigger",
        "stuff_injective: stuff is injective (follows from roundtrip)",
        "stuffed_no_naked_trigger: every trigger match in stuff(d) is followed by the stuff bit",
        // Flag sublayer.
        "flags_roundtrip: remove_flags(add_flags(s)) = s for flag-free s",
        "flags_shared: decode_stream supports shared closing/opening flags",
        // Validity (decision procedure, per pairing).
        "valid_no_flag_in_body: stuffed body never contains the flag",
        "valid_no_start_straddle: opening-flag/body junction never forms the flag (continuous model)",
        "valid_no_end_straddle: body/closing-flag junction never fires early",
        "valid_divergence_freedom: stuff bit never re-triggers the rule",
        // Composition (the paper's main specification).
        "frame_roundtrip: Unstuff(RemoveFlags(AddFlags(Stuff(D)))) = D",
        "stream_roundtrip: multi-frame streams decode to the framed sequence",
        "monolithic_equivalence: single-pass implementation ≡ sublayered",
        // Per-sublayer modularity (the paper's lesson 1).
        "sublayer_independence: stuffing lemmas do not mention flag internals beyond the validity contract",
    ]
}

/// Exhaustively confirm the round-trip specification for all data up to
/// `max_len` bits (used to cross-check the decision procedure in tests and
/// in experiment E5).
pub fn exhaustive_roundtrip(rule: &StuffRule, flag: &BitVec, max_len: usize) -> Result<(), BitVec> {
    let codec = crate::codec::FrameCodec::new(rule.clone(), flag.clone())
        .expect("terminating rule required");
    for len in 0..=max_len {
        for n in 0..(1u64 << len) {
            let d = BitVec::from_uint(n, len);
            if codec.decode(&codec.encode(&d)) != Ok(d.clone()) {
                return Err(d);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bits;
    use crate::rule::Flag;

    /// Semantic ground truth per receiver model, evaluated on concrete data.
    fn clean(rule: &StuffRule, flag: &BitVec, data: &BitVec, model: ReceiverModel) -> bool {
        let stuffer = crate::stuff::Stuffer::new(rule.clone()).unwrap();
        let s = stuffer.stuff(data);
        match model {
            ReceiverModel::RestartScan => {
                // No occurrence of the flag in s·F before the final one.
                let mut probe = s.clone();
                probe.extend_bits(flag);
                probe.find(flag, 0) == Some(s.len())
            }
            ReceiverModel::Continuous => {
                // The continuous detector over F·s·F fires exactly twice.
                let mut framed = flag.clone();
                framed.extend_bits(&s);
                framed.extend_bits(flag);
                let fires = Matcher::new(flag).match_ends(&framed);
                fires == vec![flag.len(), flag.len() + s.len() + flag.len()]
            }
        }
    }

    #[test]
    fn hdlc_pairing_is_valid_under_both_models() {
        for model in [ReceiverModel::RestartScan, ReceiverModel::Continuous] {
            assert_eq!(
                check_rule_with(&StuffRule::hdlc(), &Flag::hdlc(), model),
                Verdict::Valid,
                "{model:?}"
            );
        }
    }

    #[test]
    fn low_overhead_pairing_valid_under_restart_only() {
        // The paper's headline alternate rule: valid under the paper's
        // RemoveFlags (restart) spec...
        assert_eq!(
            check_rule(&StuffRule::low_overhead(), &Flag::low_overhead()),
            Verdict::Valid
        );
        // ...but a continuous shift-register detector sees a false flag
        // straddling the opening flag and data (e.g. data 000001).
        let v = check_rule_with(
            &StuffRule::low_overhead(),
            &Flag::low_overhead(),
            ReceiverModel::Continuous,
        );
        match v {
            Verdict::Invalid(
                Invalid::FalseFlagInBody { witness } | Invalid::FalseFlagAtEnd { witness, .. },
            ) => {
                assert!(!clean(
                    &StuffRule::low_overhead(),
                    &Flag::low_overhead(),
                    &witness,
                    ReceiverModel::Continuous
                ));
            }
            other => panic!("expected invalid under continuous model, got {other:?}"),
        }
    }

    #[test]
    fn divergent_rule_invalid() {
        assert_eq!(
            check_rule(&StuffRule::new(bits("1"), true), &Flag::hdlc()),
            Verdict::Invalid(Invalid::Divergent)
        );
    }

    #[test]
    fn unrelated_rule_is_invalid_for_hdlc_flag() {
        // Stuffing after 000 does nothing to stop 01111110 appearing in the
        // body.
        let rule = StuffRule::new(bits("000"), true);
        match check_rule(&rule, &Flag::hdlc()) {
            Verdict::Invalid(Invalid::FalseFlagInBody { witness }) => {
                assert!(!clean(&rule, &Flag::hdlc(), &witness, ReceiverModel::RestartScan));
            }
            other => panic!("expected FalseFlagInBody, got {other:?}"),
        }
    }

    #[test]
    fn short_trigger_for_hdlc_flag_is_valid() {
        // Stuffing a 0 after 111 also protects 01111110 (more overhead,
        // still correct).
        assert_eq!(check_rule(&StuffRule::new(bits("111"), false), &Flag::hdlc()), Verdict::Valid);
    }

    #[test]
    fn end_straddle_detected() {
        let rule = StuffRule::new(bits("11"), false);
        let flag = bits("1010");
        match check_rule(&rule, &flag) {
            Verdict::Invalid(
                Invalid::FalseFlagInBody { witness } | Invalid::FalseFlagAtEnd { witness, .. },
            ) => {
                assert!(!clean(&rule, &flag, &witness, ReceiverModel::RestartScan));
            }
            Verdict::Valid => panic!("checker should reject flag 1010 with rule 11/0"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn valid_pairings_pass_exhaustive_roundtrip() {
        for (rule, flag) in [
            (StuffRule::hdlc(), Flag::hdlc()),
            (StuffRule::low_overhead(), Flag::low_overhead()),
            (StuffRule::new(bits("111"), false), Flag::hdlc()),
        ] {
            assert_eq!(check_rule(&rule, &flag), Verdict::Valid);
            assert_eq!(exhaustive_roundtrip(&rule, &flag, 10), Ok(()));
        }
    }

    #[test]
    fn checker_agrees_with_semantic_ground_truth_small_space() {
        // Total cross-validation over a small space, for both models: a
        // Valid verdict must survive brute force over all data up to 12
        // bits, and an Invalid verdict must come with a witness that really
        // breaks the model's criterion.
        for model in [ReceiverModel::RestartScan, ReceiverModel::Continuous] {
            for f in 0..16u64 {
                let flag = BitVec::from_uint(f, 4);
                for tlen in 1..=3usize {
                    for t in 0..(1u64 << tlen) {
                        for sb in [false, true] {
                            let rule = StuffRule::new(BitVec::from_uint(t, tlen), sb);
                            if !rule.is_terminating() {
                                continue;
                            }
                            match check_rule_with(&rule, &flag, model) {
                                Verdict::Valid => {
                                    for len in 0..=12usize {
                                        for n in 0..(1u64 << len) {
                                            let d = BitVec::from_uint(n, len);
                                            assert!(
                                                clean(&rule, &flag, &d, model),
                                                "rule {rule:?} flag {flag} model {model:?}: \
                                                 said Valid but {d} breaks framing"
                                            );
                                        }
                                    }
                                }
                                Verdict::Invalid(
                                    Invalid::FalseFlagInBody { witness }
                                    | Invalid::FalseFlagAtEnd { witness, .. },
                                ) => {
                                    assert!(
                                        !clean(&rule, &flag, &witness, model),
                                        "rule {rule:?} flag {flag} model {model:?}: \
                                         bogus witness {witness}"
                                    );
                                }
                                Verdict::Invalid(Invalid::Divergent) => {
                                    unreachable!("terminating rules only")
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn continuous_model_is_stricter() {
        // Every pairing valid under the continuous model must be valid
        // under restart-scan (the continuous detector sees strictly more
        // hazards).
        for f in 0..64u64 {
            let flag = BitVec::from_uint(f, 6);
            for t in 0..8u64 {
                for sb in [false, true] {
                    let rule = StuffRule::new(BitVec::from_uint(t, 3), sb);
                    if !rule.is_terminating() {
                        continue;
                    }
                    if check_rule_with(&rule, &flag, ReceiverModel::Continuous).is_valid() {
                        assert!(
                            check_rule_with(&rule, &flag, ReceiverModel::RestartScan).is_valid(),
                            "rule {rule:?} flag {flag}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_witnesses_are_real() {
        // Spot-check across all 8-bit flags with the canonical triggers.
        for f in 0..256u64 {
            let flag = BitVec::from_uint(f, 8);
            for (t, tlen, sb) in [(0b11111u64, 5, false), (0b0000001, 7, true), (0b101, 3, false)]
            {
                let rule = StuffRule::new(BitVec::from_uint(t, tlen), sb);
                if !rule.is_terminating() {
                    continue;
                }
                if let Verdict::Invalid(
                    Invalid::FalseFlagInBody { witness }
                    | Invalid::FalseFlagAtEnd { witness, .. },
                ) = check_rule(&rule, &flag)
                {
                    assert!(
                        !clean(&rule, &flag, &witness, ReceiverModel::RestartScan),
                        "bogus witness {witness} for rule {rule:?} flag {flag}"
                    );
                }
            }
        }
    }

    #[test]
    fn property_inventory_is_nonempty_and_distinct() {
        let props = property_inventory();
        assert!(props.len() >= 10);
        let set: std::collections::HashSet<_> = props.iter().collect();
        assert_eq!(set.len(), props.len());
    }
}
