//! Hardware-offload partition analysis (§3.1, §5 challenge 6).
//!
//! "Figure 5 offers a principled way to offload parts of TCP processing
//! to hardware. For example, OSR, which appears complex and likely to
//! evolve, is best relegated to software. A simple decomposition places
//! RD, CM, and DM in hardware; with more finagling and a modest
//! duplication of state, only RD can be placed in hardware."
//!
//! We cannot synthesize an FPGA, but the *architectural* quantity an
//! offload design cares about is measurable in software: how many values,
//! and how many bytes, cross the NIC/host boundary for a given cut point.
//! [`analyze`] reads those directly from the [`CrossingStats`] a real
//! workload produced on the sublayered stack (experiment E10).

use crate::stack::CrossingStats;
use std::fmt;

/// Which sublayers live on the NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Nothing, DM (port steering, like modern RSS NICs) or DM + CM
    /// (connection setup offload, as in AccelTCP) on the NIC. Every wire
    /// packet still crosses to the host in all three: DM only steers, and
    /// the handful of handshake packets CM would terminate on the NIC are
    /// not separated out by [`CrossingStats`], so one row stands for all
    /// three cuts.
    BelowRd,
    /// DM + CM + RD on the NIC — the paper's "simple decomposition":
    /// retransmission machinery in hardware, OSR (complex, evolving) in
    /// software.
    DmCmRd,
}

impl Partition {
    pub fn all() -> [Partition; 2] {
        [Partition::BelowRd, Partition::DmCmRd]
    }

    pub fn name(&self) -> &'static str {
        match self {
            Partition::BelowRd => "host-only, DM or DM+CM on NIC (not separated by CrossingStats)",
            Partition::DmCmRd => "DM+CM+RD on NIC (paper's cut)",
        }
    }
}

/// What crosses the NIC/host boundary for a given partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryLoad {
    pub partition: Partition,
    /// Discrete crossings (PCIe transactions, conceptually).
    pub crossings: u64,
    /// Payload bytes crossing the boundary.
    pub bytes: u64,
    /// Does loss recovery stay on the NIC (no host wake-ups on loss)?
    pub retransmissions_on_nic: bool,
}

impl fmt::Display for BoundaryLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<32} crossings={:<8} bytes={:<10} rtx-on-nic={}",
            self.partition.name(),
            self.crossings,
            self.bytes,
            self.retransmissions_on_nic
        )
    }
}

/// Compute the boundary load for each partition from a workload's
/// crossing statistics.
pub fn analyze(cx: &CrossingStats, partition: Partition) -> BoundaryLoad {
    match partition {
        // Every wire packet crosses to the host.
        Partition::BelowRd => BoundaryLoad {
            partition,
            crossings: cx.packets_tx + cx.packets_rx,
            bytes: cx.wire_bytes_tx + cx.wire_bytes_rx,
            retransmissions_on_nic: false,
        },
        // The paper's cut: only OSR-level values cross — segments down,
        // delivered segments up, summarized signals. Acks, retransmissions
        // and SACK never wake the host.
        Partition::DmCmRd => BoundaryLoad {
            partition,
            crossings: cx.osr_to_rd_segments + cx.rd_to_osr_segments + cx.signals_up,
            bytes: cx.osr_to_rd_bytes + cx.rd_to_osr_bytes,
            retransmissions_on_nic: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CrossingStats {
        CrossingStats {
            osr_to_rd_segments: 100,
            osr_to_rd_bytes: 100_000,
            rd_to_osr_segments: 0,
            rd_to_osr_bytes: 0,
            signals_up: 90,
            packets_tx: 130, // 100 data + retransmissions + handshake
            packets_rx: 110, // acks
            wire_bytes_tx: 135_000,
            wire_bytes_rx: 4_000,
        }
    }

    #[test]
    fn paper_cut_is_narrowest() {
        let cx = sample();
        let [below, paper] = Partition::all().map(|p| analyze(&cx, p));
        assert!(
            paper.crossings < below.crossings,
            "paper cut {} vs {}",
            paper.crossings,
            below.crossings
        );
        assert!(paper.bytes <= below.bytes);
        assert!(paper.retransmissions_on_nic);
        assert!(!below.retransmissions_on_nic);
    }

    #[test]
    fn host_only_counts_everything() {
        let cx = sample();
        let l = analyze(&cx, Partition::BelowRd);
        assert_eq!(l.crossings, 240);
        assert_eq!(l.bytes, 139_000);
    }

    #[test]
    fn display_renders() {
        let s = format!("{}", analyze(&sample(), Partition::DmCmRd));
        assert!(s.contains("DM+CM+RD"));
        assert!(s.contains("rtx-on-nic=true"));
    }
}
