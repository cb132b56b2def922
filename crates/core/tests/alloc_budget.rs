//! Allocation budget of both stacks' datapaths.
//!
//! A counting global allocator (standard library only) counts the heap
//! allocations made while two bare stacks stream a fixed payload to each
//! other over a loopback wire: once loss-free, once with a seeded 2% drop
//! each way. Allocations per frame put on the wire must stay at or below
//! the committed ceilings, which are the counts this datapath measures.
//! Counts do not depend on the optimization level, so debug and release
//! builds gate alike. Lower a ceiling when a change removes an
//! allocation; a change that needs a higher one has added a per-segment
//! allocation and should say why. One more test holds the sublayered
//! stack's loss-free count at or below the monolith's, both measured in
//! the same run.
//!
//! The counts include the standard library's own allocations (`BTreeMap`
//! nodes, `VecDeque` and `HashMap` growth), so they hold for the
//! toolchain they were measured with, [`MEASURED_WITH`]. A ceiling that
//! fails only after a toolchain change is re-measured on purpose with the
//! new one, not raised by guesswork.
//!
//! Allocations are counted per thread, so other tests running in
//! parallel cannot disturb a measurement.

use netsim::{DetRng, Dur, HostStack, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use sublayer_core::{SlConfig, SlTcpStack};
use tcp_mono::wire::Endpoint;
use tcp_mono::TcpStack;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialized `Cell` needs no allocation or destructor, so
    // the allocator may touch it; `try_with` covers thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Wraps [`System`], counting every `alloc` and `realloc`.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const ADDR_A: u32 = 0x0A00_0001;
const ADDR_B: u32 = 0x0A00_0002;
const PORT: u16 = 5001;
const DELAY: Dur = Dur(500_000);
/// Bytes streamed per transfer, after the handshake.
const TRANSFER: usize = 1 << 20;

/// Byte `i` of the payload.
fn byte(i: usize) -> u8 {
    (i * 7 + i / 251) as u8
}

/// Stream [`TRANSFER`] bytes from `a` to `b` with `drop_ppm` parts per
/// million of frames dropped each way; returns allocations per frame
/// sent (dropped frames count as sent). Everything the loop itself
/// holds is allocated before counting starts, so the count is the
/// stacks' alone: the frames they emit, the buffers `recv` returns, and
/// their internal state.
fn allocs_per_frame<S: HostStack>(mut a: S, mut b: S, drop_ppm: u64) -> f64 {
    let payload: Vec<u8> = (0..TRANSFER).map(byte).collect();
    let drop_below = (u64::MAX / 1_000_000) * drop_ppm;
    let mut rng = DetRng::new(0x5EED);
    let mut lanes: [VecDeque<(Time, Vec<u8>)>; 2] =
        [VecDeque::with_capacity(4096), VecDeque::with_capacity(4096)];
    let mut now = Time(1_000_000);
    b.listen(PORT);
    let ida = a
        .try_connect(now, 40_000, Endpoint::new(ADDR_B, PORT))
        .expect("connect");
    let mut idb = None;
    let (mut sent, mut received, mut frames, mut counted) = (0, 0, 0u64, None);
    while received < TRANSFER {
        if let Some(idb) = idb.filter(|_| a.is_established(ida)) {
            if counted.is_none() {
                counted = Some((allocs(), frames));
            }
            sent += a.send(ida, &payload[sent..]);
            let got = b.recv(idb);
            assert_eq!(
                got,
                payload[received..received + got.len()],
                "payload at {received}"
            );
            received += got.len();
        }
        for (dir, st) in [(0, &mut a), (1, &mut b)] {
            while let Some(f) = st.poll_transmit(now) {
                frames += 1;
                if drop_below == 0 || rng.next_u64() >= drop_below {
                    lanes[dir].push_back((now + DELAY, f));
                }
            }
        }
        let next = [
            lanes[0].front().map(|f| f.0),
            lanes[1].front().map(|f| f.0),
            a.poll_deadline(now),
            b.poll_deadline(now),
        ];
        now = now.max(next.into_iter().flatten().min().expect("transfer stalled"));
        for (dir, st) in [(0, &mut b), (1, &mut a)] {
            while lanes[dir].front().is_some_and(|f| f.0 <= now) {
                let (_, f) = lanes[dir].pop_front().unwrap();
                st.on_frame(now, &f);
            }
            if st.poll_deadline(now).is_some_and(|d| d <= now) {
                st.on_tick(now);
            }
        }
        idb = idb.or_else(|| b.established().first().copied());
        assert!(a.conn_error(ida).is_none(), "transfer aborted");
    }
    let (a0, f0) = counted.expect("connection established");
    (allocs() - a0) as f64 / (frames - f0) as f64
}

fn sub(addr: u32) -> SlTcpStack {
    SlTcpStack::new(addr, SlConfig::default(), slmetrics::muted())
}

fn mono(addr: u32) -> TcpStack {
    TcpStack::new(addr, slmetrics::muted())
}

/// The toolchain the ceilings were measured with. CI builds with it too
/// (`RUSTUP_TOOLCHAIN` in the workflow).
const MEASURED_WITH: &str = "rustc 1.95.0";

fn check(what: &str, got: f64, ceiling: f64) {
    println!("{what}: {got:.4} allocations per frame (ceiling {ceiling}, {MEASURED_WITH})");
    assert!(
        got <= ceiling,
        "{what}: {got:.4} allocations per frame, over the {ceiling} ceiling measured with \
         {MEASURED_WITH}; on that toolchain the datapath gained an allocation, on another \
         re-measure the ceilings with it"
    );
}

#[test]
fn sublayered_loss_free_transfer_stays_within_budget() {
    check(
        "sub, loss-free",
        allocs_per_frame(sub(ADDR_A), sub(ADDR_B), 0),
        2.133,
    );
}

#[test]
fn sublayered_lossy_transfer_stays_within_budget() {
    check(
        "sub, 2% loss",
        allocs_per_frame(sub(ADDR_A), sub(ADDR_B), 20_000),
        2.355,
    );
}

#[test]
fn monolithic_loss_free_transfer_stays_within_budget() {
    check(
        "mono, loss-free",
        allocs_per_frame(mono(ADDR_A), mono(ADDR_B), 0),
        2.554,
    );
}

#[test]
fn monolithic_lossy_transfer_stays_within_budget() {
    check(
        "mono, 2% loss",
        allocs_per_frame(mono(ADDR_A), mono(ADDR_B), 20_000),
        2.689,
    );
}

/// Sublayering need not cost an allocation: on the loss-free stream the
/// sublayered datapath allocates no more per frame than the monolith's,
/// measured in the same run.
#[test]
fn sublayered_allocates_no_more_per_frame_than_the_monolith() {
    let sub = allocs_per_frame(sub(ADDR_A), sub(ADDR_B), 0);
    let mono = allocs_per_frame(mono(ADDR_A), mono(ADDR_B), 0);
    println!("loss-free allocations per frame: sub {sub:.4}, mono {mono:.4}");
    assert!(sub <= mono, "sub {sub:.4} allocations per frame, over mono's {mono:.4}");
}
