//! Pluggable rate control — the congestion-control half of OSR.
//!
//! "If each sublayer adheres to its API, one could in principle seamlessly
//! replace congestion control (by say a rate-based protocol)" (§3, test
//! T3). The controllers themselves now live in the leaf crate [`slcc`]
//! so that `tcp-mono` selects from the **same** shipped set (the swap
//! claim, cashed in for the monolith too); this module re-exports the
//! whole surface for API compatibility. Experiment E8 swaps controllers
//! without touching any other sublayer, and `slverify::CongCtrl` checks
//! every shipped controller against the contract stated in `slcc`.

pub use slcc::{
    make, BuggyDeflate, CcError, Cubic, FixedWindow, NewReno, RateBased, RateController,
    ALLOWANCE_FLOOR, MSS, SHIPPED,
};
