//! E22 — compositional sublayer contracts: the assume/guarantee chain vs
//! the fused product.
//!
//! Runs the four `slverify::contracts` models against the **real**
//! `sublayer-core` sublayers, composes them into the end-to-end proof,
//! and measures the proof-effort gap against three fused arms:
//!
//! * the workspace's original fused model (`slverify::Combined`, the
//!   handshake × window product from E6) — the historical comparison arm;
//! * an *explored* product of two contract models
//!   (`Product<DmContract, OsrContract>`) — the multiplicative cost paid
//!   the moment two sublayers are verified as one machine;
//! * the *estimated* four-way product (per-contract state counts
//!   multiplied) — what a monolithic proof of the whole chain would face.
//!
//! Also re-runs the four mutation canaries (each must be caught by the
//! contract owning the broken obligation) and the `slconform`
//! codec-equivalence certificate, so `BENCH_contracts.json` is a single
//! deterministic artifact for the whole E22 claim set.

use slconform::codec_equiv;
use slverify::{
    check, CheckResult, CmContract, DmContract, OsrContract, Product, RdContract, CM_CONTRACT,
    DM_CONTRACT, OSR_CONTRACT, RD_CONTRACT,
};

use crate::campaign::Campaign;
use crate::{json, markdown_table};

/// Cap per individual contract exploration — far above any of the spaces.
const CAP: usize = 2_000_000;

/// One contract's exploration, flattened for reporting.
#[derive(Clone, Debug)]
pub struct ContractRow {
    pub sublayer: &'static str,
    pub assumes: Vec<&'static str>,
    pub guarantees: Vec<&'static str>,
    pub states: usize,
    pub transitions: usize,
    pub depth: usize,
    pub proved: bool,
}

/// One canary's refutation.
#[derive(Clone, Debug)]
pub struct CanaryRow {
    pub sublayer: &'static str,
    pub steps: usize,
    pub actions: Vec<&'static str>,
    pub reason: String,
}

/// Everything E22 reports.
#[derive(Clone, Debug)]
pub struct ContractsOut {
    pub rows: Vec<ContractRow>,
    /// The derived end-to-end property, or the composition error.
    pub derived: Result<String, String>,
    pub sum_states: usize,
    /// Estimated monolithic cost: product of the four contract spaces.
    pub fused_estimate: u128,
    /// The historical fused arm (E6's handshake × window product).
    pub combined_states: usize,
    /// An explored two-way product of contract models.
    pub product_dm_osr_states: usize,
    pub canaries: Vec<CanaryRow>,
    /// Codec-equivalence certificate (words, transitions), or the refusal.
    pub codec: Result<(usize, usize), String>,
    /// Aggregated failures: anything here fails the experiment.
    pub violations: Vec<String>,
}

fn contract_row(spec: slverify::ContractSpec, r: &CheckResult) -> ContractRow {
    ContractRow {
        sublayer: spec.sublayer,
        assumes: spec.assumes.to_vec(),
        guarantees: spec.guarantees.to_vec(),
        states: r.states,
        transitions: r.transitions,
        depth: r.max_depth,
        proved: r.ok(),
    }
}

/// Run the whole experiment. Everything is exhaustive and deterministic;
/// `_smoke` selects no smaller configuration because the full run is
/// already CI-sized (the whole point of compositional checking).
pub fn run(_smoke: bool) -> ContractsOut {
    let mut violations = Vec::new();

    // The chain, one contract at a time.
    let runs = vec![
        (DM_CONTRACT, check(&DmContract::shipped(), CAP)),
        (CM_CONTRACT, check(&CmContract::shipped(), CAP)),
        (RD_CONTRACT, check(&RdContract::shipped(), CAP)),
        (OSR_CONTRACT, check(&OsrContract::shipped(), CAP)),
    ];
    let rows: Vec<ContractRow> = runs.iter().map(|(s, r)| contract_row(*s, r)).collect();
    for row in &rows {
        if !row.proved {
            violations.push(format!("contract {} did not prove", row.sublayer));
        }
    }

    // The composition theorem.
    let proof = slverify::compose(&runs);
    let (derived, sum_states, fused_estimate) = match &proof {
        Ok(p) => (Ok(p.derived.to_string()), p.sum_states, p.fused_estimate),
        Err(e) => {
            violations.push(format!("composition failed: {e}"));
            (Err(e.clone()), 0, 0)
        }
    };

    // Fused arms.
    let combined = check(
        &slverify::Combined {
            hs: slverify::Handshake { three_way: true },
            win: slverify::SlidingWindow { w: 2, s_mod: 4, n_msgs: 6 },
        },
        20_000_000,
    );
    let product = check(&Product::new(DmContract::shipped(), OsrContract::shipped()), CAP);
    if !product.ok() {
        violations.push("explored DM x OSR product did not prove".into());
    }

    // Mutation canaries: each must be refuted by its owning contract.
    let mut canaries = Vec::new();
    let canary_runs: Vec<(&'static str, CheckResult)> = vec![
        ("dm", check(&DmContract::buggy(), CAP)),
        ("cm", check(&CmContract::buggy(), CAP)),
        ("rd", check(&RdContract::buggy(), CAP)),
        ("osr", check(&OsrContract::buggy(), CAP)),
    ];
    for (sublayer, r) in canary_runs {
        match r.violation {
            Some(v) => canaries.push(CanaryRow {
                sublayer,
                steps: v.actions.len(),
                actions: v.actions,
                reason: v.reason,
            }),
            None => violations.push(format!("canary {sublayer} escaped its contract")),
        }
    }

    // The wire-format leg: codec equivalence certificate.
    let codec = match codec_equiv::certify(CAP) {
        Ok(c) => Ok((c.words, c.transitions)),
        Err(e) => {
            violations.push(format!("codec certificate refused: {e}"));
            Err(e)
        }
    };

    ContractsOut {
        rows,
        derived,
        sum_states,
        fused_estimate,
        combined_states: combined.states,
        product_dm_osr_states: product.states,
        canaries,
        codec,
        violations,
    }
}

impl AsRef<[ContractRow]> for ContractsOut {
    fn as_ref(&self) -> &[ContractRow] {
        &self.rows
    }
}

/// E22: the contract chain, its fused arms, canaries and codec
/// certificate (`exp contracts`).
pub struct Contracts;

impl Campaign for Contracts {
    type Cell = ContractRow;
    type Sweep = ContractsOut;
    const NAME: &'static str = "contracts";

    fn title(&self, _smoke: bool) -> String {
        "# E22: compositional sublayer contracts (assume/guarantee chain)".into()
    }

    fn sweep(&self, smoke: bool) -> ContractsOut {
        run(smoke)
    }

    fn cross_checks(&self, out: &ContractsOut) -> Vec<String> {
        out.violations.clone()
    }

    /// A contract that fails to prove is reported in the aggregated
    /// [`ContractsOut::violations`], not per row.
    fn violations<'a>(&self, _row: &'a ContractRow) -> &'a [String] {
        &[]
    }

    fn row_json(&self, r: &ContractRow) -> String {
        json::Object::default()
            .str("sublayer", r.sublayer)
            .field("assumes", json::str_list(&r.assumes))
            .field("guarantees", json::str_list(&r.guarantees))
            .field("states", r.states)
            .field("transitions", r.transitions)
            .field("depth", r.depth)
            .field("proved", r.proved)
            .end()
    }

    fn headers(&self) -> &'static [&'static str] {
        &["contract", "assumes", "guarantees", "states", "transitions", "depth", "verdict"]
    }

    fn row(&self, r: &ContractRow) -> Vec<String> {
        vec![
            r.sublayer.to_string(),
            r.assumes.join(" + "),
            r.guarantees.join(" + "),
            r.states.to_string(),
            r.transitions.to_string(),
            r.depth.to_string(),
            if r.proved { "proved".into() } else { "FAILED".into() },
        ]
    }

    fn notes(&self, out: &ContractsOut) -> String {
        let composition = match &out.derived {
            Ok(p) => format!(
                "Composition: **{p}** derived from the four contracts alone — \
                 {} states total (additive), against a fused four-way estimate of \
                 **{}** states (multiplicative), the E6 handshake×window product's \
                 {} states, and an *explored* DM×OSR contract product of {} states.",
                out.sum_states, out.fused_estimate, out.combined_states, out.product_dm_osr_states
            ),
            Err(e) => format!("COMPOSITION FAILED: {e}"),
        };
        let canaries: Vec<Vec<String>> = out
            .canaries
            .iter()
            .map(|c| vec![c.sublayer.to_string(), c.steps.to_string(), format!("{:?}", c.actions)])
            .collect();
        let codec = match &out.codec {
            Ok((w, t)) => format!(
                "Codec-equivalence certificate: **{w} alphabet words**, {t} lockstep \
                 transitions — the native format and RFC 793 normalize identically \
                 through the `slconform` taps (the paper's §3.1 isomorphism, checked)."
            ),
            Err(e) => format!("CODEC CERTIFICATE REFUSED: {e}"),
        };
        format!(
            "{composition}\n\n## Mutation canaries (each caught by the owning contract)\n\n{}\n{codec}",
            markdown_table(&["canary", "steps", "shrunk counterexample"], &canaries)
        )
    }

    /// Deterministic JSON summary (byte-identical across reruns: every
    /// number comes from exhaustive exploration of fixed models).
    fn summary(&self, out: &ContractsOut, _cross: &[String]) -> String {
        let contracts: Vec<String> = out.rows.iter().map(|r| self.row_json(r)).collect();
        let canaries: Vec<String> = out
            .canaries
            .iter()
            .map(|c| {
                json::Object::default()
                    .str("sublayer", c.sublayer)
                    .field("steps", c.steps)
                    .field("actions", json::str_list(&c.actions))
                    .str("reason", &c.reason)
                    .end()
            })
            .collect();
        let derived = match &out.derived {
            Ok(d) => format!("{{\"ok\":true,\"property\":{}}}", json::str(d)),
            Err(e) => format!("{{\"ok\":false,\"error\":{}}}", json::str(e)),
        };
        let codec = match &out.codec {
            Ok((w, t)) => format!("{{\"ok\":true,\"words\":{w},\"transitions\":{t}}}"),
            Err(e) => format!("{{\"ok\":false,\"error\":{}}}", json::str(e)),
        };
        format!(
            "{{\"contracts\":[\n  {}\n],\"composition\":{derived},\"sum_states\":{},\
             \"fused_estimate\":{},\"combined_states\":{},\"product_dm_osr_states\":{},\
             \"canaries\":[\n  {}\n],\"codec\":{codec},\"violations\":{}}}",
            contracts.join(",\n  "),
            out.sum_states,
            out.fused_estimate,
            out.combined_states,
            out.product_dm_osr_states,
            canaries.join(",\n  "),
            json::str_list(&out.violations)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e22_is_clean_and_compositional() {
        let out = run(true);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.derived.as_deref(), Ok(slverify::E2E));
        assert_eq!(out.canaries.len(), 4);
        // The headline claim: additive cost strictly and substantially
        // below the multiplicative product.
        assert!(
            (out.sum_states as u128) * 10 < out.fused_estimate,
            "sum {} vs estimate {}",
            out.sum_states,
            out.fused_estimate
        );
        let dm = out.rows.iter().find(|r| r.sublayer == "dm").unwrap().states;
        let osr = out.rows.iter().find(|r| r.sublayer == "osr").unwrap().states;
        assert!(
            out.product_dm_osr_states > 5 * (dm + osr),
            "the explored DM x OSR product ({}) must dwarf its parts ({dm} + {osr})",
            out.product_dm_osr_states
        );
    }

    #[test]
    fn e22_json_is_deterministic() {
        let a = Contracts.summary(&run(true), &[]);
        let b = Contracts.summary(&run(true), &[]);
        assert_eq!(a, b);
    }
}
