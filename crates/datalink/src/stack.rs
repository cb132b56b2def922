//! The composed **data-link stack** (Figure 2): error recovery over error
//! detection over framing over encoding/decoding.
//!
//! ```text
//!   app messages
//!      │ ▲
//!   [ ARQ ]            error recovery   (seq numbers, retransmission)
//!      │ ▲
//!   [ CRC ]            error detection  (check sequence appended)
//!      │ ▲
//!   [ framer ]         framing          (flags / COBS / escapes / length)
//!      │ ▲
//!   [ line code ]      encoding         (NRZ / NRZI / Manchester / 4B5B)
//!      │ ▲
//!    symbols on the simulated wire
//! ```
//!
//! Each sublayer is held as a trait object, so experiment E1's fungibility
//! claim is literal: swapping CRC-32 for CRC-64 (or HDLC framing for COBS)
//! is one constructor argument and touches no other sublayer. The stack is
//! a sans-IO [`Stack`], so it runs under `netsim` directly.

use crate::arq::{ArqEndpoint, ArqScheme, ArqStats};
use crate::coding::{symbols_to_wire, wire_to_symbols, LineCode};
use crate::errordet::ErrorDetector;
use crate::framing::{Deframer, Framer};
use bitstuff::BitVec;
use netsim::{Dur, Stack, Time};

/// Drop counters for the receive path, per sublayer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Wire chunks that failed symbol unpacking.
    pub wire_errors: u64,
    /// Symbol streams the line code rejected.
    pub coding_errors: u64,
    /// Frames the error detector rejected.
    pub detector_drops: u64,
    /// Frames delivered up to the ARQ sublayer.
    pub frames_up: u64,
}

/// A full data-link endpoint assembled from the four sublayers.
pub struct DataLinkStack {
    code: Box<dyn LineCode>,
    framer: Box<dyn Framer>,
    deframer: Box<dyn Deframer>,
    detector: Box<dyn ErrorDetector>,
    arq: ArqEndpoint,
    pub stats: StackStats,
}

impl DataLinkStack {
    pub fn new(
        code: Box<dyn LineCode>,
        framer: Box<dyn Framer>,
        detector: Box<dyn ErrorDetector>,
        arq_scheme: ArqScheme,
        rto: Dur,
    ) -> DataLinkStack {
        let deframer = framer.deframer();
        DataLinkStack {
            code,
            framer,
            deframer,
            detector,
            arq: ArqEndpoint::new(arq_scheme, rto),
            stats: StackStats::default(),
        }
    }

    /// A reasonable default: NRZI + HDLC framing + CRC-32 + selective
    /// repeat.
    pub fn hdlc_default() -> DataLinkStack {
        DataLinkStack::new(
            Box::new(crate::coding::Nrzi),
            Box::new(crate::framing::HdlcFramer::new()),
            Box::new(crate::errordet::Crc::crc32()),
            ArqScheme::SelectiveRepeat { window: 8 },
            Dur::from_millis(50),
        )
    }

    /// Queue a message for reliable delivery.
    pub fn send(&mut self, msg: Vec<u8>) {
        self.arq.send(msg);
    }

    /// Drain received messages (in order, exactly once).
    pub fn recv_all(&mut self) -> Vec<Vec<u8>> {
        self.arq.recv_all()
    }

    /// True when all queued messages are delivered and acknowledged.
    pub fn idle(&self) -> bool {
        self.arq.idle()
    }

    pub fn arq_stats(&self) -> &ArqStats {
        &self.arq.stats
    }

    /// Sublayer names, for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} / {} / {} / {}",
            self.arq.scheme().name(),
            self.detector.name(),
            self.framer.name(),
            self.code.name()
        )
    }
}

impl Stack for DataLinkStack {
    fn on_frame(&mut self, now: Time, wire: &[u8]) {
        let Some(symbols) = wire_to_symbols(wire) else {
            self.stats.wire_errors += 1;
            return;
        };
        let bits = match self.code.decode(&symbols) {
            Ok(b) => b,
            Err(_) => {
                self.stats.coding_errors += 1;
                return;
            }
        };
        if bits.len() % 8 != 0 {
            self.stats.coding_errors += 1;
            return;
        }
        let bytes = bits.to_bytes_exact();
        for frame in self.deframer.push(&bytes) {
            match self.detector.verify(&frame) {
                Ok(payload) => {
                    self.stats.frames_up += 1;
                    self.arq.on_frame(now, &payload);
                }
                Err(_) => self.stats.detector_drops += 1,
            }
        }
    }

    fn poll_transmit(&mut self, now: Time) -> Option<Vec<u8>> {
        let frame = self.arq.poll_transmit(now)?;
        let protected = self.detector.protect(&frame);
        let framed = self.framer.frame(&protected);
        let symbols = self.code.encode(&BitVec::from_bytes(&framed));
        Some(symbols_to_wire(&symbols))
    }

    fn poll_deadline(&self, now: Time) -> Option<Time> {
        self.arq.poll_deadline(now)
    }

    fn on_tick(&mut self, now: Time) {
        self.arq.on_tick(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{FourBFiveB, Manchester, Nrz, Nrzi};
    use crate::errordet::{Crc, Fletcher16, InternetChecksum};
    use crate::framing::{CobsFramer, EscapeFramer, HdlcFramer, LengthFramer};
    use netsim::{two_party, FaultProfile, LinkParams, StackNode};

    fn make(det: Box<dyn ErrorDetector>) -> DataLinkStack {
        DataLinkStack::new(
            Box::new(Nrzi),
            Box::new(HdlcFramer::new()),
            det,
            ArqScheme::SelectiveRepeat { window: 8 },
            Dur::from_millis(50),
        )
    }

    fn transfer(mut a: DataLinkStack, b: DataLinkStack, fault: FaultProfile, seed: u64) -> (Vec<Vec<u8>>, StackStats) {
        let msgs: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; (i as usize % 40) + 1]).collect();
        for m in &msgs {
            a.send(m.clone());
        }
        let params = LinkParams::delay_only(Dur::from_millis(2)).with_fault(fault);
        let (mut net, _na, nb) = two_party(seed, a, b, params);
        net.poll_all();
        net.run_to_idle(Time::ZERO + Dur::from_secs(600));
        let node = net.node_mut::<StackNode<DataLinkStack>>(nb);
        let got = node.stack.recv_all();
        assert_eq!(got, msgs);
        (got, node.stack.stats.clone())
    }

    #[test]
    fn clean_link_end_to_end() {
        transfer(make(Box::new(Crc::crc32())), make(Box::new(Crc::crc32())), FaultProfile::none(), 1);
    }

    #[test]
    fn corrupting_link_recovered_by_crc_plus_arq() {
        // This is the full Figure-2 story: corruption is caught by error
        // detection and repaired by error recovery above it.
        let (_, stats) = transfer(
            make(Box::new(Crc::crc32())),
            make(Box::new(Crc::crc32())),
            FaultProfile::none().with_corrupt(0.15),
            7,
        );
        assert!(
            stats.detector_drops + stats.coding_errors + stats.wire_errors > 0,
            "corruption should have been caught somewhere below ARQ"
        );
    }

    #[test]
    fn crc32_to_crc64_swap_touches_only_one_sublayer() {
        // Experiment E1 (fungibility): identical code path, different
        // detector instance.
        for det in [true, false] {
            let mk = || -> Box<dyn ErrorDetector> {
                if det {
                    Box::new(Crc::crc32())
                } else {
                    Box::new(Crc::crc64())
                }
            };
            transfer(make(mk()), make(mk()), FaultProfile::none().with_corrupt(0.1), 3);
        }
    }

    #[test]
    fn all_sublayer_combinations_interoperate() {
        // A representative cross-product of line codes, framers and
        // detectors, all under loss + corruption.
        let fault = FaultProfile { drop: 0.1, corrupt: 0.05, ..Default::default() };
        type Combo = (fn() -> Box<dyn LineCode>, fn() -> Box<dyn Framer>, fn() -> Box<dyn ErrorDetector>);
        let combos: Vec<Combo> = vec![
            (|| Box::new(Nrz), || Box::new(CobsFramer), || Box::new(Crc::crc16_ccitt())),
            (|| Box::new(Manchester), || Box::new(EscapeFramer), || Box::new(Crc::crc32())),
            (|| Box::new(FourBFiveB), || Box::new(LengthFramer), || Box::new(Fletcher16)),
            (|| Box::new(Nrzi), || Box::new(HdlcFramer::new()), || Box::new(InternetChecksum)),
        ];
        for (i, (code, framer, det)) in combos.iter().enumerate() {
            let mk = || {
                DataLinkStack::new(
                    code(),
                    framer(),
                    det(),
                    ArqScheme::GoBackN { window: 4 },
                    Dur::from_millis(60),
                )
            };
            transfer(mk(), mk(), fault.clone(), 100 + i as u64);
        }
    }

    #[test]
    fn describe_names_all_sublayers() {
        let s = DataLinkStack::hdlc_default();
        let d = s.describe();
        for part in ["selective repeat", "CRC-32", "HDLC", "NRZI"] {
            assert!(d.contains(part), "{d} missing {part}");
        }
    }

    #[test]
    fn hostile_link_full_stack() {
        let fault = FaultProfile {
            drop: 0.15,
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: 0.1,
            reorder_delay: Dur::from_millis(10),
            ..Default::default()
        };
        for seed in 1..=3 {
            transfer(make(Box::new(Crc::crc32())), make(Box::new(Crc::crc32())), fault.clone(), seed);
        }
    }
}
