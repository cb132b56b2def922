//! Quickstart: two sublayered TCP endpoints exchange a message over a
//! simulated lossy link.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use netsim::{two_party, Dur, FaultProfile, HostStack, LinkParams, StackNode, Time};
use sublayering::netsim;
use sublayering::sublayer_core::{SlConfig, SlTcpStack};
use sublayering::tcp_mono::wire::Endpoint;

fn main() {
    // Two hosts, 10.0.0.1 and 10.0.0.2.
    let (a, b) = (0x0A00_0001, 0x0A00_0002);
    let mut client = SlTcpStack::new(a, SlConfig::default(), slmetrics::shared());
    let mut server = SlTcpStack::new(b, SlConfig::default(), slmetrics::shared());
    server.listen(80);

    // Active open: DM binds the tuple, CM starts its SYN handshake.
    let conn = client.connect(Time::ZERO, 5000, Endpoint::new(b, 80));

    // A 5%-lossy link with 10 ms delay.
    let params = LinkParams::delay_only(Dur::from_millis(10))
        .with_fault(FaultProfile::lossy(0.05));
    let (mut net, nc, ns) = two_party(1, client, server, params);
    net.poll_all();
    net.run_until(Time::ZERO + Dur::from_secs(2));

    // Send a message; OSR segments it, RD numbers and delivers it.
    let msg = b"hello, sublayering!".repeat(200);
    net.node_mut::<StackNode<SlTcpStack>>(nc).stack.send(conn, &msg);
    net.poll_all();

    let mut got = Vec::new();
    while got.len() < msg.len() {
        let dl = net.now() + Dur::from_millis(100);
        net.run_until(dl);
        let server = &mut net.node_mut::<StackNode<SlTcpStack>>(ns).stack;
        if let Some(&sc) = server.established().first() {
            got.extend(server.recv(sc));
        }
        net.poll_all();
        assert!(net.now() < Time::ZERO + Dur::from_secs(120), "transfer stalled");
    }
    assert_eq!(got, msg);

    let c = &net.node::<StackNode<SlTcpStack>>(nc).stack;
    println!("delivered {} bytes intact over a 5%-loss link at t={}", got.len(), net.now());
    println!("client packets sent: {}, received: {}", c.stats.packets_sent, c.stats.packets_received);
    println!(
        "sublayer crossings at the client: {} segments OSR->RD ({} bytes), {} signals RD->OSR",
        c.crossings.osr_to_rd_segments, c.crossings.osr_to_rd_bytes, c.crossings.signals_up
    );
    if let Some(rd) = c.rd_stats(conn) {
        println!(
            "RD sublayer: {} segments, {} retransmits ({} fast), {} pure acks",
            rd.segments_sent, rd.retransmits, rd.fast_retransmits, rd.acks_sent
        );
    }
}
