//! `bulk` and `lossy`: one connection per stack streams the generated
//! payload in MSS-sized segments over the loopback wire, driven through
//! the bare stacks' `netsim::Stack` entry points.
//!
//! A [`Stream`] is one such connection, opened once and kept for the
//! whole run. It moves the payload in *rounds*: a round ends when the
//! receiver has read and verified its last byte, so the pipe drains
//! between rounds and each round's wall time is one sample. The first
//! [`StreamSpec::fixed_rounds`] rounds are the workload's fixed work,
//! whose deterministic figures (simulated time, frames, allocations,
//! heap) depend only on the seed.

use crate::alloc;
use crate::stacks::{BenchStack, Counters};
use crate::trace::Tracer;
use crate::wire::{Captured, Pattern, Wire, A_TO_B, B_TO_A, PATTERN_LEN};
use netsim::{Dur, Time};
use std::time::Instant;
use tcp_mono::wire::{Endpoint, FourTuple};

pub const ADDR_A: u32 = 0x0A00_0001;
pub const ADDR_B: u32 = 0x0A00_0002;
pub const PORT: u16 = 5001;
pub const CLIENT_PORT: u16 = 40_000;
/// Steps without simulated progress before the stream is declared stuck.
const STALL_STEPS: u32 = 100_000;

#[derive(Clone, Debug)]
pub struct StreamSpec {
    pub delay: Dur,
    pub drop_ppm: u64,
    pub round_bytes: u64,
    /// Rounds of fixed work.
    pub fixed_rounds: usize,
    pub seed: u64,
}

/// Seeded part of the one-way delay: under 1% of the nominal delay, so
/// the path is the stated one while simulated-time figures still differ
/// from seed to seed.
pub fn seeded_delay(nominal: Dur, seed: u64) -> Dur {
    let jitter = netsim::DetRng::new(seed ^ 0xDE1A_7000).below(nominal.0 / 100);
    Dur(nominal.0 + jitter)
}

impl StreamSpec {
    /// 500 µs one-way, no loss; fixed work 8 rounds of 4 MiB plus a
    /// seeded extra under 64 KiB per round, so that every figure of the
    /// loss-free path still depends on the seed.
    pub fn bulk(seed: u64) -> StreamSpec {
        let extra = netsim::DetRng::new(seed ^ 0xB01C).below(64 << 10);
        StreamSpec {
            delay: seeded_delay(Dur::from_micros(500), seed),
            drop_ppm: 0,
            round_bytes: (4 << 20) + extra,
            fixed_rounds: 8,
            seed,
        }
    }

    /// As `bulk`, with a seeded 2% drop each way; fixed work 5461 rounds
    /// of 96 KiB (512 MiB). Loss recovery makes a round's simulated time
    /// heavy tailed and quantized by RTO backoff, so the fixed work holds
    /// many rounds, sized so that neither stack's 99th-percentile round
    /// sits on the edge between two backoff levels.
    pub fn lossy(seed: u64) -> StreamSpec {
        StreamSpec {
            drop_ppm: 20_000,
            round_bytes: 96 << 10,
            fixed_rounds: 5461,
            delay: seeded_delay(Dur::from_micros(500), seed),
            seed,
        }
    }

    pub fn fixed_bytes(&self) -> u64 {
        self.round_bytes * self.fixed_rounds as u64
    }
}

struct Duplex<S: BenchStack> {
    a: S,
    b: S,
    wire: Wire,
    now: Time,
    idle_steps: u32,
}

impl<S: BenchStack> Duplex<S> {
    /// Transmit everything both ends have, advance simulated time to the
    /// next arrival or deadline, deliver due frames and run due timers.
    fn step(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let n = S::names();
        let now = self.now;
        for dir in [A_TO_B, B_TO_A] {
            loop {
                let st = if dir == A_TO_B {
                    &mut self.a
                } else {
                    &mut self.b
                };
                match tr.span(n.poll_transmit, || st.poll_transmit(now), Option::is_some) {
                    Some(f) => self.wire.send(dir, now, f),
                    None => break,
                }
            }
        }
        let (a, b) = (&self.a, &self.b);
        let da = tr.call(n.poll_deadline, || a.poll_deadline(now));
        let db = tr.call(n.poll_deadline, || b.poll_deadline(now));
        let next = [self.wire.next_arrival(), da, db]
            .into_iter()
            .flatten()
            .min();
        let Some(next) = next else {
            return Err("no frame or timer pending".into());
        };
        if next > self.now {
            self.now = next;
            self.idle_steps = 0;
        } else {
            self.idle_steps += 1;
            if self.idle_steps > STALL_STEPS {
                return Err("simulated time stopped advancing".into());
            }
        }
        let now = self.now;
        while let Some((dir, f)) = self.wire.pop_due(now) {
            let st = if dir == A_TO_B {
                &mut self.b
            } else {
                &mut self.a
            };
            tr.call(n.on_frame, || st.on_frame(now, &f));
            self.wire.recycle(now, dir, f);
        }
        if da.is_some_and(|d| d <= now) {
            let a = &mut self.a;
            tr.call(n.on_tick, || a.on_tick(now));
        }
        if db.is_some_and(|d| d <= now) {
            let b = &mut self.b;
            tr.call(n.on_tick, || b.on_tick(now));
        }
        Ok(())
    }
}

/// One long-lived connection of stack `S` and its accounting.
pub struct Stream<S: BenchStack> {
    d: Duplex<S>,
    ida: S::ConnId,
    idb: S::ConnId,
    round_bytes: u64,
    sent: u64,
    verified: u64,
    start: Time,
    /// Simulated and wall seconds of every round so far.
    pub round_sim: Vec<Dur>,
    pub round_wall: Vec<f64>,
    /// Heap allocations made inside this stream's work (the loop is
    /// single-threaded, so they are exactly this stream's).
    pub allocs: u64,
    /// Live heap this stream holds, and the most it held in each round.
    own_live: isize,
    pub round_peak: Vec<usize>,
}

impl<S: BenchStack> Stream<S> {
    /// Build both endpoints and complete the handshake. With `capture`,
    /// every delivered frame is kept until [`Stream::take_capture`].
    pub fn open(spec: &StreamSpec, tr: &mut Tracer, capture: bool) -> Result<Stream<S>, String> {
        let mut s = None;
        let mut acct = Acct::default();
        acct.run(|| -> Result<(), String> {
            let mut d = Duplex {
                a: S::build(ADDR_A),
                b: S::build(ADDR_B),
                wire: Wire::new(spec.delay, spec.drop_ppm, spec.seed ^ 0x10_55),
                now: Time(1_000_000),
                idle_steps: 0,
            };
            if capture {
                d.wire.capture = Some(Vec::with_capacity(1 << 16));
            }
            d.b.listen(PORT);
            let start = d.now;
            let ida =
                d.a.try_connect(start, CLIENT_PORT, Endpoint::new(ADDR_B, PORT))
                    .map_err(|e| format!("connect: {e}"))?;
            let idb = loop {
                d.step(tr)?;
                if let Some(e) = d.a.conn_error(ida) {
                    return Err(format!("handshake: {e}"));
                }
                if let Some(idb) = d.b.conn_for_tuple(&receiver_tuple()) {
                    if d.a.is_established(ida) && d.b.is_established(idb) {
                        break idb;
                    }
                }
            };
            s = Some((d, ida, idb, start));
            Ok(())
        })
        .map_err(|e| format!("{}: {e}", S::KIND.name()))?;
        let (d, ida, idb, start) = s.expect("opened");
        Ok(Stream {
            d,
            ida,
            idb,
            round_bytes: spec.round_bytes,
            sent: 0,
            verified: 0,
            start,
            round_sim: Vec::with_capacity(1 << 16),
            round_wall: Vec::with_capacity(1 << 16),
            allocs: acct.allocs,
            own_live: acct.live,
            round_peak: Vec::with_capacity(1 << 16),
        })
    }

    /// Move and verify one more round of payload.
    pub fn round(&mut self, pattern: &Pattern, tr: &mut Tracer) -> Result<(), String> {
        let mut acct = Acct {
            allocs: self.allocs,
            live: self.own_live,
            peak: 0,
        };
        let (t_wall, t_sim) = (Instant::now(), self.d.now);
        acct.run(|| self.move_round(pattern, tr))
            .map_err(|e| format!("{}: {e}", S::KIND.name()))?;
        self.round_wall.push(t_wall.elapsed().as_secs_f64());
        self.round_sim.push(self.d.now.since(t_sim));
        self.round_peak.push(acct.peak);
        (self.allocs, self.own_live) = (acct.allocs, acct.live);
        Ok(())
    }

    fn move_round(&mut self, pattern: &Pattern, tr: &mut Tracer) -> Result<(), String> {
        let n = S::names();
        let target = self.verified + self.round_bytes;
        let d = &mut self.d;
        let (ida, idb) = (self.ida, self.idb);
        while self.verified < target {
            while self.sent < target {
                let len = (target - self.sent).min(PATTERN_LEN as u64) as usize;
                let chunk = pattern.window(self.sent, len);
                let a = &mut d.a;
                let took = tr.call(n.app_send, || a.send(ida, chunk));
                self.sent += took as u64;
                if took < len {
                    break;
                }
            }
            let b = &mut d.b;
            let got = tr.span(n.app_recv, || b.recv(idb), |v| !v.is_empty());
            if !got.is_empty() {
                if self.verified + got.len() as u64 > target
                    || !pattern.matches(self.verified, &got)
                {
                    return Err(format!("payload mismatch at byte {}", self.verified));
                }
                self.verified += got.len() as u64;
                continue;
            }
            for (st, id) in [(&d.a, ida), (&d.b, idb)] {
                if let Some(e) = st.conn_error(id) {
                    return Err(format!("transfer: {e}"));
                }
            }
            d.step(tr)?;
        }
        Ok(())
    }

    pub fn rounds(&self) -> usize {
        self.round_wall.len()
    }

    /// Frames handed to the wire so far (dropped ones included).
    pub fn frames(&self) -> u64 {
        self.d.wire.sent
    }

    /// Simulated time since the connect.
    pub fn sim(&self) -> Dur {
        self.d.now.since(self.start)
    }

    pub fn verified(&self) -> u64 {
        self.verified
    }

    /// Retransmission, crossing and CM counters of both endpoints.
    pub fn counters(&self) -> Counters {
        let d = &self.d;
        let mut c = d.a.conn_counters(self.ida);
        for o in [
            d.b.conn_counters(self.idb),
            d.a.stack_counters(),
            d.b.stack_counters(),
        ] {
            c.add(&o);
        }
        c
    }

    /// Stop capturing and hand over what was captured.
    pub fn take_capture(&mut self) -> Vec<Captured> {
        self.d.wire.capture.take().unwrap_or_default()
    }

    /// The receiving endpoint and its connection, for replay checks.
    pub fn receiver(&self) -> (&S, S::ConnId) {
        (&self.d.b, self.idb)
    }
}

/// The receiver's 4-tuple.
pub fn receiver_tuple() -> FourTuple {
    FourTuple {
        local: Endpoint::new(ADDR_B, PORT),
        remote: Endpoint::new(ADDR_A, CLIENT_PORT),
    }
}

/// Allocation and heap accounting of the work done inside [`Acct::run`].
#[derive(Default)]
struct Acct {
    allocs: u64,
    live: isize,
    peak: usize,
}

impl Acct {
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let live0 = alloc::live();
        alloc::reset_peak();
        let a0 = alloc::allocs();
        let r = f();
        self.allocs += alloc::allocs() - a0;
        let rise = alloc::peak().saturating_sub(live0) as isize;
        self.peak = self.peak.max((self.live + rise).max(0) as usize);
        self.live += alloc::live() as isize - live0 as isize;
        r
    }
}
