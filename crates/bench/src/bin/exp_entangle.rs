//! E6b — state entanglement: identical workloads through the monolithic
//! and sublayered stacks, comparing the field-sharing matrices (paper
//! §2.3: shared PCB state is what makes monolithic reasoning hard).

use netsim::{two_party, Dur, FaultProfile, LinkParams, StackNode, Time};
use slhost::HostStack;
use slmetrics::{InteractionMatrix, SharedLog};
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::stack::TcpStack;
use tcp_mono::wire::Endpoint;

const A: u32 = 0x0A000001;
const B: u32 = 0x0A000002;

fn link() -> LinkParams {
    LinkParams::delay_only(Dur::from_millis(10)).with_fault(FaultProfile::lossy(0.05))
}

/// Run the workload over two `H` stacks built by `mk` on one live access
/// log, and return that log's field-sharing matrix.
fn drive<H: HostStack>(mk: impl Fn(u32, SharedLog) -> H) -> InteractionMatrix {
    let log = slmetrics::shared();
    let mut c = mk(A, log.clone());
    let mut s = mk(B, log.clone());
    s.listen(80);
    let conn = c.try_connect(Time::ZERO, 5000, Endpoint::new(B, 80)).expect("tuple free");
    let (mut net, nc, ns) = two_party(1, c, s, link());
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));
    net.node_mut::<StackNode<H>>(nc).stack.send(conn, &vec![1u8; 100_000]);
    net.poll_all();
    for _ in 0..120 {
        let dl = net.now() + Dur::from_secs(1);
        net.run_until(dl);
        let st = &mut net.node_mut::<StackNode<H>>(ns).stack;
        if let Some(&sc) = st.established().first() {
            let _ = st.recv(sc);
        }
        net.poll_all();
    }
    net.node_mut::<StackNode<H>>(nc).stack.close(conn);
    net.poll_all();
    net.run_until(net.now() + Dur::from_secs(5));
    let m = InteractionMatrix::from_log(&log.borrow());
    m
}

fn main() {
    println!("# E6b — state entanglement under an identical workload (paper §2.3)\n");
    println!("Workload: 100 KB transfer + graceful close over a 5%-loss link.\n");
    let mono = drive(TcpStack::new);
    let sub = drive(|addr, log| SlTcpStack::new(addr, SlConfig::default(), log));
    println!("{}", mono.render_markdown("Monolithic TCP (subfunctions over one PCB)"));
    println!("{}", sub.render_markdown("Sublayered TCP (DM/CM/RD/OSR private state)"));
    println!(
        "Summary: monolithic entanglement score **{}** across **{}** interacting \
         subfunction pairs; sublayered score **{}** across **{}** pairs. Rust's \
         module privacy makes the sublayered zero *by construction* — exactly \
         the ownership argument the paper cites ([21]).",
        mono.entanglement_score(),
        mono.interacting_pairs(),
        sub.entanglement_score(),
        sub.interacting_pairs()
    );
}
