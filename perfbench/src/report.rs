//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write;

#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Operations attempted and failed per stack (`sub`, `mono`).
    pub ops: Vec<(&'static str, u64, u64)>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Count one stack's operations into the per-stack and total counts.
    pub fn ops(&mut self, stack: &'static str, attempted: u64, failed: u64) {
        self.ops.push((stack, attempted, failed));
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// A readable table: operations per stack, then one metric per line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (stack, attempted, failed) in &self.ops {
            let _ = writeln!(
                s,
                "{stack}: {attempted} operations attempted, {failed} failed"
            );
        }
        for (name, (v, unit)) in &self.metrics {
            let _ = writeln!(s, "{name:<36} {v:>16.4} {unit}");
        }
        s
    }

    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (v, unit))) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
