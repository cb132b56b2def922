//! Shared harness for the experiment binaries and Criterion benches.
//! `exp <campaign>` runs the campaign sweeps (E13–E22) through one
//! runner, [`campaign`]; the `exp_*` binaries run the other experiments.
//! Each function runs a deterministic simulated workload and returns the
//! measurements the corresponding EXPERIMENTS.md table reports.

pub mod attack;
pub mod campaign;
pub mod chaos;
pub mod conform;
pub mod contracts;
pub mod failover;
pub mod fairness;
pub mod json;
pub mod overload;
pub mod scale;
pub mod shard;
pub mod topology;

use netsim::{
    two_party, Dur, FaultProfile, HostStack, LinkParams, NodeId, SimNet, Stack, StackNode, Time,
};
use sublayer_core::shim::ShimStack;
use sublayer_core::{CmScheme, SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;
use tcp_mono::wire::Endpoint;

pub const A: u32 = 0x0A000001;
pub const B: u32 = 0x0A000002;

/// The stack `S` that simulator node `id` runs.
pub(crate) fn stack_mut<S: Stack>(net: &mut SimNet, id: NodeId) -> &mut S {
    &mut net.node_mut::<StackNode<S>>(id).stack
}

/// Which transport runs on each side of a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackKind {
    Mono,
    Sub(&'static str),          // rate controller name
    SubTimerCm(&'static str),   // timer-based CM variant
    SubNoSack,                  // SACK-advertisement ablation
    ShimClientMonoServer,       // interop: sublayered (shim) -> mono
    MonoClientShimServer,       // interop: mono -> sublayered (shim)
}

impl StackKind {
    pub fn label(&self) -> String {
        match self {
            StackKind::Mono => "monolithic".into(),
            StackKind::Sub(cc) => format!("sublayered/{cc}"),
            StackKind::SubTimerCm(cc) => format!("sublayered/timer-cm/{cc}"),
            StackKind::SubNoSack => "sublayered/reno/no-sack".into(),
            StackKind::ShimClientMonoServer => "sub(shim)->mono".into(),
            StackKind::MonoClientShimServer => "mono->sub(shim)".into(),
        }
    }
}

/// One transfer's outcome.
#[derive(Clone, Debug)]
pub struct TransferReport {
    pub kind: String,
    pub bytes: usize,
    pub delivered: usize,
    pub sim_seconds: f64,
    pub goodput_mbps: f64,
    pub frames_on_wire: u64,
    pub wire_bytes: u64,
    pub complete: bool,
}

fn sub_config(cc: &'static str, timer_cm: bool) -> SlConfig {
    SlConfig {
        cm_scheme: if timer_cm {
            CmScheme::TimerBased { quiet: Dur::from_secs(10) }
        } else {
            CmScheme::ThreeWay
        },
        cc,
        isn: "clock",
        use_sack: true,
        keepalive: None,
        ..SlConfig::default()
    }
}

/// A transfer endpoint as the simulator runs it, and the transport behind
/// it: a bare stack is its own transport, a shim side reaches the
/// sublayered stack through `ShimStack.inner`.
trait Side: Stack {
    type H: HostStack;
    fn transport(&mut self) -> &mut Self::H;
}

impl Side for TcpStack {
    type H = TcpStack;
    fn transport(&mut self) -> &mut TcpStack {
        self
    }
}

impl Side for SlTcpStack {
    type H = SlTcpStack;
    fn transport(&mut self) -> &mut SlTcpStack {
        self
    }
}

impl Side for ShimStack {
    type H = SlTcpStack;
    fn transport(&mut self) -> &mut SlTcpStack {
        &mut self.inner
    }
}

/// Run a one-directional bulk transfer and measure completion time and
/// wire efficiency.
pub fn run_transfer(
    kind: StackKind,
    bytes: usize,
    params: LinkParams,
    seed: u64,
    patience_secs: u64,
) -> TransferReport {
    let mono = |addr| TcpStack::new(addr, slmetrics::muted());
    let sub = |addr, cfg| SlTcpStack::new(addr, cfg, slmetrics::muted());
    let shim = |addr| ShimStack::new(sub(addr, sub_config("reno", false)));
    let run = (bytes, params, seed, patience_secs);
    let (got, secs, net) = match kind {
        StackKind::Mono => transfer(mono(A), mono(B), run),
        StackKind::Sub(cc) | StackKind::SubTimerCm(cc) => {
            let cfg = sub_config(cc, matches!(kind, StackKind::SubTimerCm(_)));
            transfer(sub(A, cfg.clone()), sub(B, cfg), run)
        }
        StackKind::SubNoSack => {
            let cfg = SlConfig { use_sack: false, ..sub_config("reno", false) };
            transfer(sub(A, cfg.clone()), sub(B, cfg), run)
        }
        StackKind::ShimClientMonoServer => transfer(shim(A), mono(B), run),
        StackKind::MonoClientShimServer => transfer(mono(A), shim(B), run),
    };
    let d0 = net.link_dir_stats(0, 0);
    let d1 = net.link_dir_stats(0, 1);
    TransferReport {
        kind: kind.label(),
        bytes,
        delivered: got,
        sim_seconds: secs,
        goodput_mbps: got as f64 * 8.0 / secs / 1e6,
        frames_on_wire: d0.tx_frames + d1.tx_frames,
        wire_bytes: d0.tx_bytes + d1.tx_bytes,
        complete: got >= bytes,
    }
}

/// The transfer itself, over any pair of sides: the client connects and
/// queues `bytes` at 3 s, the server's application drains every 25 ms
/// until it has them all or `patience_secs` pass. Returns the bytes
/// delivered, the seconds until then, and the network.
fn transfer<C: Side, S: Side>(
    mut c: C,
    mut s: S,
    (bytes, params, seed, patience_secs): (usize, LinkParams, u64, u64),
) -> (usize, f64, SimNet) {
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    s.transport().listen(80);
    let conn = c
        .transport()
        .try_connect(Time::ZERO, 5000, Endpoint::new(B, 80))
        .expect("tuple free");
    let (mut net, nc, ns) = two_party(seed, c, s, params);
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(3));
    // Queue the data on the sender.
    stack_mut::<C>(&mut net, nc).transport().send(conn, &data);
    net.poll_all();
    let start = net.now();

    let mut got = 0usize;
    // 25 ms application polling: fine enough that the app read rate never
    // bounds a 20 Mbit/s link (64 KB window / 25 ms = 21 Mbit/s).
    for _ in 0..patience_secs * 40 {
        let dl = net.now() + Dur::from_millis(25);
        net.run_until(dl);
        let st = stack_mut::<S>(&mut net, ns).transport();
        got += st.established().first().map(|&c| st.recv(c).len()).unwrap_or(0);
        net.poll_all();
        if got >= bytes {
            break;
        }
    }
    (got, net.now().since(start).secs_f64().max(1e-9), net)
}

/// Nanoseconds as a simulated duration (the host sweeps' time unit).
pub(crate) fn dur(ns: u64) -> Dur {
    Dur::from_nanos(ns)
}

/// A standard link for the TCP comparisons: 10 ms delay, 20 Mbit/s.
pub fn standard_link(loss: f64) -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(10))
        .with_rate(20_000_000)
        .with_fault(FaultProfile::lossy(loss))
}

/// Nearest-rank percentile over an ascending-sorted slice (`q` in
/// `0..=100`); 0 for empty input. Shared by the scale and shard sweeps
/// so their latency columns are computed identically.
pub fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[((sorted.len() - 1) as u64 * q / 100) as usize]
    }
}

/// Render rows as a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for r in rows {
        out.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    out
}

/// Crossing statistics from a sublayered transfer (for E10).
pub fn crossings_for_workload(bytes: usize, loss: f64, seed: u64) -> sublayer_core::CrossingStats {
    let mut c = SlTcpStack::new(A, SlConfig::default(), slmetrics::muted());
    let mut s = SlTcpStack::new(B, SlConfig::default(), slmetrics::muted());
    s.listen(80);
    let conn = c.connect(Time::ZERO, 5000, Endpoint::new(B, 80));
    let (mut net, nc, ns) = two_party(seed, c, s, standard_link(loss));
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));
    net.node_mut::<StackNode<SlTcpStack>>(nc).stack.send(conn, &vec![7u8; bytes]);
    net.poll_all();
    for _ in 0..180 {
        let dl = net.now() + Dur::from_secs(1);
        net.run_until(dl);
        let st = &mut net.node_mut::<StackNode<SlTcpStack>>(ns).stack;
        if let Some(&sc) = st.established().first() {
            let _ = st.recv(sc);
        }
        net.poll_all();
        if net.node::<StackNode<SlTcpStack>>(nc).stack.osr_stats(conn).is_none_or(|o| o.bytes_written == bytes as u64)
            && net.node::<StackNode<SlTcpStack>>(ns).stack.crossings.rd_to_osr_bytes >= bytes as u64
        {
            break;
        }
    }
    // Sender-host view only: its NIC/host boundary carries OSR->RD
    // segments down and signals up; the receiver host is symmetric.
    net.node::<StackNode<SlTcpStack>>(nc).stack.crossings.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_complete_for_all_stack_kinds() {
        for kind in [
            StackKind::Mono,
            StackKind::Sub("reno"),
            StackKind::SubTimerCm("reno"),
            StackKind::SubNoSack,
            StackKind::ShimClientMonoServer,
            StackKind::MonoClientShimServer,
        ] {
            let r = run_transfer(kind, 30_000, standard_link(0.02), 7, 120);
            assert!(r.complete, "{:?}: {r:?}", kind);
            assert!(r.goodput_mbps > 0.01);
        }
    }

    #[test]
    fn lossier_links_are_slower() {
        let clean = run_transfer(StackKind::Sub("reno"), 100_000, standard_link(0.0), 1, 180);
        let lossy = run_transfer(StackKind::Sub("reno"), 100_000, standard_link(0.1), 1, 180);
        assert!(clean.complete && lossy.complete);
        assert!(clean.sim_seconds < lossy.sim_seconds);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 0), 7);
        assert_eq!(percentile(&[7], 100), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }

    #[test]
    fn markdown_renders() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn crossings_workload_produces_counts() {
        // Sender-host view: its boundary carries segments down and
        // signals up; the opposite direction belongs to the peer host.
        let cx = crossings_for_workload(20_000, 0.02, 3);
        assert!(cx.osr_to_rd_segments >= 20);
        assert_eq!(cx.osr_to_rd_bytes, 20_000);
        assert!(cx.signals_up > 0);
    }
}
