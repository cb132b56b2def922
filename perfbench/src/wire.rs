//! The benchmark's loopback wire and its generated payload.
//!
//! Two endpoints are joined by one FIFO per direction with a fixed
//! one-way delay and a seeded drop. Nothing crosses a real link or the
//! host's loopback interface, and simulated time is advanced by the
//! benchmark's own loop, so wall-clock time holds only the program under
//! test plus this small queue.

use netsim::{DetRng, Dur, Time};
use std::collections::VecDeque;

/// Direction of travel: `A_TO_B` is client → server (sender → receiver).
pub const A_TO_B: usize = 0;
pub const B_TO_A: usize = 1;

/// A frame delivered by the wire, kept for the replay arms.
#[derive(Clone, Debug)]
pub struct Captured {
    pub at: Time,
    pub dir: usize,
    pub bytes: Vec<u8>,
}

/// Two FIFO lanes with a fixed delay and seeded independent drops.
pub struct Wire {
    delay: Dur,
    /// Drop a frame when a uniform `u64` falls below this.
    drop_below: u64,
    rng: DetRng,
    lanes: [VecDeque<(Time, Vec<u8>)>; 2],
    /// Frames handed to the wire, dropped ones included.
    pub sent: u64,
    /// When set, delivered frames are moved here instead of freed.
    pub capture: Option<Vec<Captured>>,
}

impl Wire {
    /// `drop_ppm` is the drop probability in parts per million.
    pub fn new(delay: Dur, drop_ppm: u64, seed: u64) -> Wire {
        Wire {
            delay,
            drop_below: (u64::MAX / 1_000_000).saturating_mul(drop_ppm),
            rng: DetRng::new(seed),
            lanes: [VecDeque::with_capacity(4096), VecDeque::with_capacity(4096)],
            sent: 0,
            capture: None,
        }
    }

    pub fn send(&mut self, dir: usize, now: Time, frame: Vec<u8>) {
        self.sent += 1;
        if self.drop_below > 0 && self.rng.next_u64() < self.drop_below {
            return;
        }
        self.lanes[dir].push_back((now + self.delay, frame));
    }

    /// Earliest pending arrival, if any.
    pub fn next_arrival(&self) -> Option<Time> {
        let a = self.lanes[A_TO_B].front().map(|f| f.0);
        let b = self.lanes[B_TO_A].front().map(|f| f.0);
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pop the next frame due at or before `now`, earliest first (ties go
    /// to `A_TO_B`).
    pub fn pop_due(&mut self, now: Time) -> Option<(usize, Vec<u8>)> {
        let due = |l: &VecDeque<(Time, Vec<u8>)>| l.front().map(|f| f.0).filter(|&t| t <= now);
        let dir = match (due(&self.lanes[A_TO_B]), due(&self.lanes[B_TO_A])) {
            (Some(a), Some(b)) if b < a => B_TO_A,
            (Some(_), _) => A_TO_B,
            (None, Some(_)) => B_TO_A,
            (None, None) => return None,
        };
        self.lanes[dir].pop_front().map(|(_, f)| (dir, f))
    }

    /// Hand a delivered frame back: kept when capturing, freed otherwise.
    pub fn recycle(&mut self, at: Time, dir: usize, bytes: Vec<u8>) {
        if let Some(c) = self.capture.as_mut() {
            c.push(Captured { at, dir, bytes });
        }
    }
}

/// Period of the request pattern: prime, so segment boundaries
/// (multiples of the 1000-byte MSS) never line up with it.
pub const PATTERN_LEN: usize = 65_521;

/// A generated payload of `period` bytes, repeating beyond that. The
/// table carries `PATTERN_LEN` extra bytes from its start, so any window
/// of up to `PATTERN_LEN` bytes is one slice and generating or checking
/// the payload is a `memcpy`/`memcmp`.
pub struct Pattern {
    period: usize,
    table: Vec<u8>,
}

impl Pattern {
    pub fn new(seed: u64, period: usize) -> Pattern {
        let mut rng = DetRng::new(seed ^ 0x9A77_E2A1);
        let mut table = Vec::with_capacity(period + PATTERN_LEN + 8);
        while table.len() < period {
            table.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        table.truncate(period);
        for i in 0..PATTERN_LEN {
            table.push(table[i % period]);
        }
        Pattern { period, table }
    }

    /// The `len` payload bytes starting at `offset` (`len` is capped at
    /// `PATTERN_LEN`).
    pub fn window(&self, offset: u64, len: usize) -> &[u8] {
        let start = (offset % self.period as u64) as usize;
        &self.table[start..start + len.min(PATTERN_LEN)]
    }

    /// The `len` payload bytes starting at `offset`, of any length.
    pub fn to_vec(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            let w = self.window(offset + v.len() as u64, len - v.len());
            v.extend_from_slice(w);
        }
        v
    }

    /// Does `data` equal the payload bytes starting at `offset`?
    pub fn matches(&self, offset: u64, data: &[u8]) -> bool {
        let mut off = offset;
        data.chunks(PATTERN_LEN).all(|c| {
            let ok = c == self.window(off, c.len());
            off += c.len() as u64;
            ok
        })
    }
}
