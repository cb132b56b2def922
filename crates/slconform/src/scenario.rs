//! The scenario DSL and the conformance corpus.
//!
//! A [`Scenario`] is a deterministic script of application-level and
//! network-level events, replayed identically against both stacks (each
//! talking its own wire format to a same-kind peer). Everything is plain
//! data — `Clone + Eq` — so the shrinker can slice event lists and compare
//! scenarios structurally.

/// Which endpoint an event applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Client,
    Server,
}

impl Side {
    pub fn label(self) -> &'static str {
        match self {
            Side::Client => "client",
            Side::Server => "server",
        }
    }
}

/// Sequence-number placement for an injected RST, relative to the
/// victim's `rcv_nxt` — the RFC 5961 trichotomy, aimed on purpose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RstOff {
    /// Exactly `rcv_nxt`: must tear the connection down.
    Exact,
    /// Inside the receive window but not exact: must elicit a challenge
    /// ACK, never a teardown.
    InWindow,
    /// Far outside the window: must be dropped silently.
    Outside,
}

/// One scripted event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ev {
    /// Client opens to the server (and the server simultaneously opens
    /// back when [`Scenario::server_connects`] is set).
    Connect,
    /// Queue `len` bytes of deterministic payload on one side.
    Send { side: Side, len: u32 },
    /// Drain readable bytes into the side's delivered stream.
    Recv { side: Side },
    /// Graceful close (FIN).
    Close { side: Side },
    /// Hard abort (RST).
    Abort { side: Side },
    /// Forge an off-path RST at the victim, aimed by [`RstOff`] using the
    /// victim stack's own `expected_seq` introspection.
    InjectRst { to: Side, off: RstOff },
    /// Forge a duplicate SYN for the established 4-tuple at the victim
    /// (RFC 5961 §4: must elicit a challenge ACK, not a new handshake).
    InjectSyn { to: Side },
    /// Take the (single) link down / bring it back.
    LinkDown,
    LinkUp,
}

/// Link impairment, as plain comparable data (mapped to a
/// `netsim::FaultProfile` by the driver).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    None,
    /// Uniform loss, in permille.
    LossPm(u32),
    /// Gilbert-Elliott bursty loss.
    Burst,
    /// Reordering (permille, fixed extra delay).
    ReorderPm(u32),
    /// Duplication, in permille.
    DupPm(u32),
}

/// The link both runs use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    pub delay_ms: u64,
    pub fault: FaultKind,
}

impl LinkSpec {
    pub const fn clean(delay_ms: u64) -> LinkSpec {
        LinkSpec { delay_ms, fault: FaultKind::None }
    }
}

/// A full conformance scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    pub name: &'static str,
    /// Server listens on port 80.
    pub listen: bool,
    /// Server also actively opens to the client (simultaneous open).
    pub server_connects: bool,
    pub link: LinkSpec,
    /// `(at_ms, event)`, non-decreasing times.
    pub events: Vec<(u64, Ev)>,
    /// Settle time after the last event before final observation.
    pub quiet_ms: u64,
}

impl Scenario {
    pub fn new(name: &'static str, events: Vec<(u64, Ev)>) -> Scenario {
        Scenario {
            name,
            listen: true,
            server_connects: false,
            link: LinkSpec::clean(5),
            events,
            quiet_ms: 4_000,
        }
    }

    /// Virtual end time of the script (last event time).
    pub fn end_ms(&self) -> u64 {
        self.events.last().map(|(t, _)| *t).unwrap_or(0)
    }
}

use Ev::*;
use RstOff::*;
use Side::{Client, Server};

/// The conformance corpus: every scenario is run against both stacks and
/// at least three seeds by `exp conform` (and a subset by the golden
/// tests).
pub fn corpus() -> Vec<Scenario> {
    let mut v = vec![Scenario::new("handshake_only", vec![(0, Connect)])];

    // --- handshake and teardown shapes -------------------------------
    v.push(Scenario::new(
        "handshake_client_close",
        vec![(0, Connect), (200, Close { side: Client })],
    ));
    v.push(Scenario::new(
        "handshake_server_close",
        vec![(0, Connect), (200, Close { side: Server })],
    ));
    v.push(Scenario::new(
        "simultaneous_close",
        vec![(0, Connect), (200, Close { side: Client }), (200, Close { side: Server })],
    ));
    v.push(Scenario {
        name: "simultaneous_open",
        listen: false,
        server_connects: true,
        link: LinkSpec::clean(5),
        events: vec![(0, Connect), (400, Close { side: Client })],
        quiet_ms: 4_000,
    });
    v.push(Scenario {
        name: "connect_refused",
        listen: false,
        server_connects: false,
        link: LinkSpec::clean(5),
        events: vec![(0, Connect)],
        quiet_ms: 4_000,
    });
    v.push(Scenario {
        // SYN lost in a link outage; the client must retransmit it once
        // the link returns.
        name: "syn_retransmit",
        listen: true,
        server_connects: false,
        link: LinkSpec::clean(5),
        events: vec![(0, LinkDown), (0, Connect), (700, LinkUp)],
        quiet_ms: 6_000,
    });
    v.push(Scenario {
        // The link never comes back: the handshake must fail cleanly.
        name: "handshake_timeout",
        listen: true,
        server_connects: false,
        link: LinkSpec::clean(5),
        events: vec![(0, LinkDown), (0, Connect)],
        quiet_ms: 90_000,
    });

    // --- data transfer -----------------------------------------------
    v.push(Scenario::new(
        "data_c2s_small",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 1_000 }),
            (1_000, Recv { side: Server }),
            (1_200, Close { side: Client }),
        ],
    ));
    v.push(Scenario::new(
        "data_s2c_small",
        vec![
            (0, Connect),
            (200, Send { side: Server, len: 1_000 }),
            (1_000, Recv { side: Client }),
            (1_200, Close { side: Server }),
        ],
    ));
    v.push(Scenario::new(
        "data_bidirectional",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 2_000 }),
            (200, Send { side: Server, len: 3_000 }),
            (1_500, Recv { side: Client }),
            (1_500, Recv { side: Server }),
            (1_700, Close { side: Client }),
            (1_900, Close { side: Server }),
        ],
    ));
    v.push(Scenario::new(
        "data_large_transfer",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 200_000 }),
            (1_000, Recv { side: Server }),
            (2_000, Recv { side: Server }),
            (4_000, Recv { side: Server }),
            (8_000, Recv { side: Server }),
            (12_000, Recv { side: Server }),
            (14_000, Close { side: Client }),
        ],
    ));
    v.push(Scenario::new(
        "data_interleaved_sends",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 500 }),
            (400, Send { side: Server, len: 700 }),
            (600, Send { side: Client, len: 900 }),
            (800, Recv { side: Server }),
            (900, Send { side: Server, len: 300 }),
            (1_500, Recv { side: Client }),
            (1_500, Recv { side: Server }),
            (1_800, Close { side: Server }),
        ],
    ));
    v.push(Scenario::new(
        // FIN behind queued data: the peer must still see every byte.
        "close_with_pending_data",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 30_000 }),
            (210, Close { side: Client }),
            (3_000, Recv { side: Server }),
        ],
    ));
    v.push(Scenario::new(
        // Half-close: server keeps sending after the client's FIN.
        "half_close_server_sends",
        vec![
            (0, Connect),
            (200, Close { side: Client }),
            (400, Send { side: Server, len: 2_000 }),
            (1_500, Recv { side: Client }),
            (1_700, Close { side: Server }),
        ],
    ));

    // --- aborts -------------------------------------------------------
    v.push(Scenario::new(
        "client_abort",
        vec![(0, Connect), (300, Abort { side: Client })],
    ));
    v.push(Scenario::new(
        "server_abort_mid_transfer",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 50_000 }),
            (400, Abort { side: Server }),
        ],
    ));

    // --- RFC 5961 injections -----------------------------------------
    v.push(Scenario::new(
        "rst_exact_client",
        vec![(0, Connect), (300, InjectRst { to: Client, off: Exact })],
    ));
    v.push(Scenario::new(
        "rst_exact_server",
        vec![(0, Connect), (300, InjectRst { to: Server, off: Exact })],
    ));
    v.push(Scenario::new(
        "rst_in_window_client",
        vec![
            (0, Connect),
            (300, InjectRst { to: Client, off: InWindow }),
            (600, Send { side: Client, len: 1_000 }),
            (1_500, Recv { side: Server }),
        ],
    ));
    v.push(Scenario::new(
        "rst_in_window_server",
        vec![
            (0, Connect),
            (300, InjectRst { to: Server, off: InWindow }),
            (600, Send { side: Server, len: 1_000 }),
            (1_500, Recv { side: Client }),
        ],
    ));
    v.push(Scenario::new(
        "rst_blind_client",
        vec![
            (0, Connect),
            (300, InjectRst { to: Client, off: Outside }),
            (600, Send { side: Client, len: 1_000 }),
            (1_500, Recv { side: Server }),
        ],
    ));
    v.push(Scenario::new(
        "syn_dup_established",
        vec![
            (0, Connect),
            (300, InjectSyn { to: Server }),
            (600, Send { side: Client, len: 500 }),
            (1_500, Recv { side: Server }),
        ],
    ));
    v.push(Scenario::new(
        "rst_during_transfer",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 20_000 }),
            (400, InjectRst { to: Server, off: InWindow }),
            (3_000, Recv { side: Server }),
            (3_200, Close { side: Client }),
        ],
    ));

    // --- impaired links (netsim fault machinery) ---------------------
    let lossy = |name, pm| Scenario {
        name,
        listen: true,
        server_connects: false,
        link: LinkSpec { delay_ms: 5, fault: FaultKind::LossPm(pm) },
        events: vec![
            (0, Connect),
            (200, Send { side: Client, len: 20_000 }),
            (5_000, Recv { side: Server }),
            (9_000, Recv { side: Server }),
            (9_500, Close { side: Client }),
        ],
        quiet_ms: 20_000,
    };
    v.push(lossy("loss_2pct_transfer", 20));
    v.push(lossy("loss_10pct_transfer", 100));
    v.push(Scenario {
        name: "burst_loss_transfer",
        listen: true,
        server_connects: false,
        link: LinkSpec { delay_ms: 5, fault: FaultKind::Burst },
        events: vec![
            (0, Connect),
            (200, Send { side: Client, len: 20_000 }),
            (6_000, Recv { side: Server }),
            (9_500, Close { side: Client }),
        ],
        quiet_ms: 20_000,
    });
    v.push(Scenario {
        name: "reorder_transfer",
        listen: true,
        server_connects: false,
        link: LinkSpec { delay_ms: 5, fault: FaultKind::ReorderPm(150) },
        events: vec![
            (0, Connect),
            (200, Send { side: Client, len: 20_000 }),
            (5_000, Recv { side: Server }),
            (5_500, Close { side: Client }),
        ],
        quiet_ms: 20_000,
    });
    v.push(Scenario {
        name: "duplicate_transfer",
        listen: true,
        server_connects: false,
        link: LinkSpec { delay_ms: 5, fault: FaultKind::DupPm(100) },
        events: vec![
            (0, Connect),
            (200, Send { side: Client, len: 20_000 }),
            (5_000, Recv { side: Server }),
            (5_500, Close { side: Client }),
        ],
        quiet_ms: 20_000,
    });
    v.push(Scenario {
        // Mid-transfer outage long enough to force RTO backoff, then
        // recovery.
        name: "linkdown_retransmit",
        listen: true,
        server_connects: false,
        link: LinkSpec::clean(5),
        events: vec![
            (0, Connect),
            (200, Send { side: Client, len: 10_000 }),
            (250, LinkDown),
            (2_250, LinkUp),
            (8_000, Recv { side: Server }),
            (8_500, Close { side: Client }),
        ],
        quiet_ms: 20_000,
    });

    v.push(Scenario {
        // Enough uniform loss across a multi-window transfer that triple
        // duplicate acks fire: both stacks must fast-retransmit, handle
        // partial acks, and exit recovery by deflation (E19 loss-recovery
        // conformance; the CC module is the shared slcc NewReno).
        name: "fast_retransmit_recovery",
        listen: true,
        server_connects: false,
        link: LinkSpec { delay_ms: 10, fault: FaultKind::LossPm(30) },
        events: vec![
            (0, Connect),
            (200, Send { side: Client, len: 60_000 }),
            (4_000, Recv { side: Server }),
            (8_000, Recv { side: Server }),
            (12_000, Recv { side: Server }),
            (12_500, Close { side: Client }),
        ],
        quiet_ms: 20_000,
    });
    v.push(Scenario {
        // An outage long enough for RTO backoff, then the transfer
        // *continues*: the controller must come back from its timeout
        // collapse (slow-start restart) and carry a second burst, not
        // stall at the floor (E19).
        name: "rto_then_recover",
        listen: true,
        server_connects: false,
        link: LinkSpec::clean(5),
        events: vec![
            (0, Connect),
            (200, Send { side: Client, len: 20_000 }),
            (300, LinkDown),
            (4_300, LinkUp),
            (10_000, Recv { side: Server }),
            (10_500, Send { side: Client, len: 20_000 }),
            (16_000, Recv { side: Server }),
            (16_500, Close { side: Client }),
        ],
        quiet_ms: 20_000,
    });

    // --- flow control -------------------------------------------------
    v.push(Scenario::new(
        // Receiver never drains: the sender must stall at the window,
        // not overrun it.
        "zero_window_stall",
        vec![(0, Connect), (200, Send { side: Client, len: 400_000 }), (6_000, Recv { side: Server })],
    ));
    v.push(Scenario::new(
        // Close while the peer's window is closed; the FIN has to wait
        // for the window to reopen.
        "zero_window_then_close",
        vec![
            (0, Connect),
            (200, Send { side: Client, len: 400_000 }),
            (4_000, Close { side: Client }),
            (6_000, Recv { side: Server }),
            (7_000, Recv { side: Server }),
            (9_000, Recv { side: Server }),
        ],
    ));

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_large_and_well_formed() {
        let c = corpus();
        assert!(c.len() >= 25, "corpus has {} scenarios, need >= 25", c.len());
        let mut names = std::collections::BTreeSet::new();
        for sc in &c {
            assert!(names.insert(sc.name), "duplicate scenario name {}", sc.name);
            let mut last = 0;
            for (t, _) in &sc.events {
                assert!(*t >= last, "{}: event times must be non-decreasing", sc.name);
                last = *t;
            }
        }
    }
}
