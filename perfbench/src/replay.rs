//! Replay arms: frames captured in a traced run are fed back into the
//! codecs and the sublayers' public functions, one layer at a time, and
//! each arm proves it repeated the live stack's work before its timings
//! count.
//!
//! - codec: decode then encode reproduces every captured frame
//!   byte-for-byte;
//! - DM: replayed verdicts equal the live stack's demux lookups;
//! - RD + OSR receive path: the replayed receiver delivers exactly the
//!   live transfer's payload, in order;
//! - OSR segmentation: the replayed sender cuts exactly the payload.

use crate::alloc;
use crate::stats::median;
use crate::wire::Captured;
use netsim::{Dur, Time};
use std::collections::HashMap;
use std::time::Instant;
use sublayer_core::{cc, CongSignal, ConnId, Demux, DmVerdict, Osr, Packet, ReliableDelivery};
use tcp_mono::wire::{FourTuple, Segment};

/// Repetitions of each timed replay loop; the median is reported.
const REPS: usize = 7;

/// Median ns per call of `f` over `n` calls, timed as whole batches.
fn batch_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    median(&mut v)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct CodecTimes {
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub allocs_per_frame: f64,
}

/// Decode and re-encode every frame with one stack's codec.
pub fn codec<P>(
    frames: &[&[u8]],
    decode: impl Fn(&[u8]) -> Option<P>,
    encode: impl Fn(&P) -> Vec<u8>,
) -> Result<CodecTimes, String> {
    if frames.is_empty() {
        return Ok(CodecTimes::default());
    }
    let mut pdus: Vec<P> = Vec::with_capacity(frames.len());
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let a0 = alloc::allocs();
    for f in frames {
        let p = decode(f).ok_or("codec replay: a captured frame failed to decode")?;
        encoded.push(encode(&p));
        pdus.push(p);
    }
    let allocs = alloc::allocs() - a0;
    if let Some(i) = frames.iter().zip(&encoded).position(|(f, e)| *f != &e[..]) {
        return Err(format!(
            "codec replay: frame {i} did not re-encode byte-for-byte"
        ));
    }
    let decode_ns = batch_ns(frames.len(), || {
        pdus.clear();
        pdus.extend(frames.iter().filter_map(|f| decode(f)));
    });
    let encode_ns = batch_ns(pdus.len(), || {
        encoded.clear();
        encoded.extend(pdus.iter().map(&encode));
    });
    Ok(CodecTimes {
        decode_ns,
        encode_ns,
        allocs_per_frame: allocs as f64 / frames.len() as f64,
    })
}

pub fn sub_codec(frames: &[&[u8]]) -> Result<CodecTimes, String> {
    codec(frames, |f| Packet::decode(f).ok(), Packet::encode)
}

pub fn mono_codec(frames: &[&[u8]]) -> Result<CodecTimes, String> {
    codec(frames, |f| Segment::decode(f).ok(), Segment::encode)
}

/// Per-call samples of one replayed function.
#[derive(Default)]
struct Samples(Vec<f64>);

impl Samples {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.0.push(t0.elapsed().as_nanos() as f64);
        r
    }

    /// Median less the clock cost.
    fn median(mut self, clock_ns: f64) -> f64 {
        (median(&mut self.0) - clock_ns).max(0.0)
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct DmTimes {
    pub classify_ns: f64,
    pub bind_ns: f64,
    pub unbind_ns: f64,
}

/// One change to a live connection table, in order, with the id the
/// live stack gave the connection.
#[derive(Clone, Debug)]
pub enum TableOp<C> {
    Bind(FourTuple, C),
    Unbind(C),
}

/// Replay a demux: apply `ops` (timing bind/unbind when `time_table`),
/// then classify `frames` against the resulting table and compare each
/// verdict with `live(tuple)`, the live stack's lookup.
pub fn dm(
    local_addr: u32,
    listen: u16,
    ops: &[TableOp<ConnId>],
    frames: &[&[u8]],
    live: impl Fn(&FourTuple) -> Option<ConnId>,
    time_table: bool,
    clock_ns: f64,
) -> Result<DmTimes, String> {
    let mut d = Demux::new(local_addr, slmetrics::muted());
    d.listen(listen);
    let (mut bind, mut unbind) = (Samples::default(), Samples::default());
    for op in ops {
        match op {
            TableOp::Bind(t, id) => {
                let got = bind
                    .time(|| d.bind(*t))
                    .map_err(|e| format!("dm replay bind: {e:?}"))?;
                if got.id() != *id {
                    return Err(format!(
                        "dm replay: bind gave {:?}, live gave {id:?}",
                        got.id()
                    ));
                }
            }
            TableOp::Unbind(id) => unbind.time(|| d.unbind(*id)),
        }
    }
    let pkts: Vec<Packet> = frames
        .iter()
        .filter_map(|f| Packet::decode(f).ok())
        .collect();
    for p in &pkts {
        let tuple = FourTuple {
            local: p.dst(),
            remote: p.src(),
        };
        let replayed = match d.classify(p) {
            DmVerdict::Known(id) => Some(id),
            _ => None,
        };
        if replayed != live(&tuple) {
            return Err(format!(
                "dm replay: verdict for {tuple:?} differs from the live demux"
            ));
        }
    }
    let classify_ns = batch_ns(pkts.len(), || {
        for p in &pkts {
            std::hint::black_box(d.classify(p));
        }
    });
    let (bind_ns, unbind_ns) = if time_table {
        (bind.median(clock_ns), unbind.median(clock_ns))
    } else {
        (0.0, 0.0)
    };
    Ok(DmTimes {
        classify_ns,
        bind_ns,
        unbind_ns,
    })
}

#[derive(Clone, Copy, Debug, Default)]
pub struct RecvTimes {
    pub rd_on_packet_ns: f64,
    pub rd_poll_packet_ns: f64,
    pub osr_on_delivered_ns: f64,
    pub osr_read_ns: f64,
    /// Connections whose replay delivered their whole expected payload.
    pub complete: u64,
}

struct RecvConn {
    rd: Option<ReliableDelivery>,
    osr: Osr,
    own_isn: Option<u32>,
    peer_isn: Option<u32>,
    delivered: Vec<u8>,
}

impl RecvConn {
    fn new() -> RecvConn {
        let rate = cc::make("newreno").expect("newreno is shipped");
        RecvConn {
            rd: None,
            osr: Osr::new(rate, slmetrics::muted()),
            own_isn: None,
            peer_isn: None,
            delivered: Vec::new(),
        }
    }
}

/// Replay the sublayered receive path of every connection that ends at
/// `local`: inbound data goes through `ReliableDelivery::on_packet`, its
/// deliveries through `Osr::on_delivered` and `Osr::read`, and the acks
/// it owes come out of `ReliableDelivery::poll_packet`. `expected(tuple)`
/// is the payload the live application verified on that connection, or
/// `None` when the live transfer did not finish inside the capture (such
/// connections are replayed but not checked).
pub fn sub_receive<'a>(
    capture: &[Captured],
    local: u32,
    expected: impl Fn(&FourTuple) -> Option<&'a [u8]>,
    clock_ns: f64,
) -> Result<RecvTimes, String> {
    let mut conns: HashMap<FourTuple, RecvConn> = HashMap::new();
    let mut order: Vec<FourTuple> = Vec::new();
    let (mut on_packet, mut poll, mut delivered, mut read) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    for c in capture {
        let Ok(p) = Packet::decode(&c.bytes) else {
            continue;
        };
        let inbound = p.dst_addr == local;
        let tuple = if inbound {
            FourTuple {
                local: p.dst(),
                remote: p.src(),
            }
        } else {
            FourTuple {
                local: p.src(),
                remote: p.dst(),
            }
        };
        if p.cm.flags.syn {
            let rc = conns.entry(tuple).or_insert_with(|| {
                order.push(tuple);
                RecvConn::new()
            });
            let isn = if inbound {
                &mut rc.peer_isn
            } else {
                &mut rc.own_isn
            };
            // A retransmitted SYN repeats its ISN; a new ISN on a known
            // tuple is a second connection, which the per-tuple replay
            // cannot tell apart from the first.
            if isn.is_some_and(|i| i != p.cm.isn) {
                return Err(format!("receive replay: {tuple:?} carries two connections"));
            }
            *isn = Some(p.cm.isn);
            if let (None, Some(own), Some(peer)) = (&rc.rd, rc.own_isn, rc.peer_isn) {
                let mut rd = ReliableDelivery::new(own, peer, slmetrics::muted());
                rd.set_use_sack(true);
                rc.rd = Some(rd);
            }
            continue;
        }
        if !inbound || p.cm.flags.rst {
            continue;
        }
        let Some(rc) = conns.get_mut(&tuple) else {
            continue;
        };
        let Some(rd) = rc.rd.as_mut() else { continue };
        let now = c.at;
        on_packet.time(|| rd.on_packet(now, &p, p.cm.flags.fin));
        for ev in rd.take_events() {
            if let sublayer_core::RdEvent::Delivered { offset, data } = ev {
                let osr = &mut rc.osr;
                delivered.time(|| osr.on_delivered(offset, data));
            }
        }
        if rc.osr.readable_len() > 0 {
            let osr = &mut rc.osr;
            let bytes = read.time(|| osr.read());
            rc.delivered.extend_from_slice(&bytes);
        }
        loop {
            let got = poll.time(|| rd.poll_packet(now));
            if got.is_none() {
                poll.0.pop();
                break;
            }
        }
    }
    let mut complete = 0;
    for t in &order {
        let rc = &conns[t];
        if let Some(want) = expected(t) {
            if rc.delivered != want {
                return Err(format!(
                    "receive replay on {t:?}: delivered {} bytes, the live run verified {}",
                    rc.delivered.len(),
                    want.len()
                ));
            }
            complete += 1;
        }
    }
    if complete == 0 {
        return Err("receive replay: no connection completed inside the capture".into());
    }
    Ok(RecvTimes {
        rd_on_packet_ns: on_packet.median(clock_ns),
        rd_poll_packet_ns: poll.median(clock_ns),
        osr_on_delivered_ns: delivered.median(clock_ns),
        osr_read_ns: read.median(clock_ns),
        complete,
    })
}

/// Replay OSR segmentation: write each stream into a fresh `Osr` with an
/// open peer window and cut it with `poll_segment`, acknowledging each
/// flight so the window reopens. Returns the median ns per segment cut,
/// after checking the segments concatenate to exactly the stream.
pub fn osr_segment(streams: &[&[u8]], clock_ns: f64) -> Result<f64, String> {
    let mut cut = Samples::default();
    let mut window = Packet::default();
    window.osr.rcv_wnd = u16::MAX;
    let rtt = Some(Dur::from_millis(1));
    for (i, s) in streams.iter().enumerate() {
        let mut osr = Osr::new(
            cc::make("newreno").expect("newreno is shipped"),
            slmetrics::muted(),
        );
        let mut now = Time(1_000_000);
        osr.on_header(now, &window);
        let (mut written, mut out) = (0usize, Vec::with_capacity(s.len()));
        loop {
            written += osr.write(&s[written..]);
            let mut flight = 0u32;
            while let Some(seg) = cut.time(|| osr.poll_segment(now)) {
                flight += seg.len() as u32;
                out.extend_from_slice(&seg);
            }
            cut.0.pop(); // the call that found nothing to cut
            if out.len() == s.len() {
                break;
            }
            if flight == 0 {
                return Err(format!("segmentation replay: stream {i} stalled"));
            }
            now += Dur::from_millis(1);
            osr.on_signals(now, &[CongSignal::Acked { bytes: flight, rtt }]);
        }
        if out != *s {
            return Err(format!(
                "segmentation replay: stream {i} was not cut back to itself"
            ));
        }
    }
    Ok(cut.median(clock_ns))
}
