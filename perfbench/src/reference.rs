//! The reference kernel: a fixed stand-in for the simulator's hot path,
//! timed between repetitions to measure how fast the host is running.
//!
//! On a shared host the same repetition can take 1.7× longer for minutes
//! at a time while other tenants contend for the core and its caches. The
//! kernel is a small crossbar decision loop of the same kind as the
//! simulator's (per-VOQ champions gathered in a `BTreeMap`, candidates
//! sorted by a BASRPT key, greedy matching over port bitsets, allocation
//! on every step), so it slows down with the simulator: the host-time
//! metrics are divided by its speed. It is part of the benchmark, not of
//! the program, and every call does exactly the same work, so the
//! division removes the host's drift and nothing a change to the
//! simulator does.

use std::collections::BTreeMap;
use std::time::Instant;

/// Active flows in the kernel's table (the paper run's mean is ~170).
const FLOWS: usize = 170;
/// Servers, as in the paper's fabric.
const PORTS: u32 = 144;
/// Decisions per call.
const STEPS: usize = 3000;

/// The kernel's time per call on the host the benchmark was tuned on, in
/// a quiet phase (a 2-vCPU KVM guest on an Intel Xeon, 2.1 GHz). Host
/// times are scaled by `NOMINAL_S / measured` so they read as seconds on
/// that host.
pub const NOMINAL_S: f64 = 0.05;

/// A xorshift generator with a fixed start, so every call draws the same
/// flows.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn flow(&mut self) -> (u32, u32, u64) {
        let src = (self.next() % u64::from(PORTS)) as u32;
        let dst = (self.next() % u64::from(PORTS)) as u32;
        (src, dst, 1_000 + self.next() % 2_000_000)
    }
}

/// One decision over `flows`: the matched flows send a quantum each, and a
/// flow that finishes is replaced by a fresh one. Returns the schedule size.
fn decide(flows: &mut [(u32, u32, u64)], rng: &mut Rng) -> usize {
    // Per VOQ: backlog, shortest remaining size, and the index of that flow.
    let mut voqs: BTreeMap<(u32, u32), (u64, u64, usize)> = BTreeMap::new();
    for (i, &(src, dst, remaining)) in flows.iter().enumerate() {
        let voq = voqs.entry((src, dst)).or_insert((0, u64::MAX, i));
        voq.0 += remaining;
        if remaining < voq.1 {
            voq.1 = remaining;
            voq.2 = i;
        }
    }
    let weight = 2500.0 / f64::from(PORTS);
    let mut candidates: Vec<(f64, usize, u32, u32)> = voqs
        .iter()
        .map(|(&(src, dst), &(backlog, shortest, i))| {
            (weight * shortest as f64 - backlog as f64, i, src, dst)
        })
        .collect();
    candidates.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut src_busy = [0u64; 3];
    let mut dst_busy = [0u64; 3];
    let mut matched = Vec::new();
    for &(_, i, src, dst) in &candidates {
        let (sw, sb) = ((src / 64) as usize, 1u64 << (src % 64));
        let (dw, db) = ((dst / 64) as usize, 1u64 << (dst % 64));
        if src_busy[sw] & sb == 0 && dst_busy[dw] & db == 0 {
            src_busy[sw] |= sb;
            dst_busy[dw] |= db;
            matched.push(i);
        }
    }
    for &i in &matched {
        let quantum = 5_000 + rng.next() % 50_000;
        if flows[i].2 <= quantum {
            flows[i] = rng.flow();
        } else {
            flows[i].2 -= quantum;
        }
    }
    matched.len()
}

/// Share of a round's host time the kernel takes, so a long repetition is
/// bracketed by as long a sample of the host's speed.
const SHARE: f64 = 0.06;

/// Samples the host's speed next to a repetition that took `rep_s`
/// seconds: runs the kernel enough times to take about [`SHARE`] of that,
/// at least once, and returns its mean host time per call in seconds.
pub fn sample(rep_s: f64) -> f64 {
    let calls = (rep_s * SHARE / NOMINAL_S).ceil().max(1.0) as usize;
    (0..calls).map(|_| time_once()).sum::<f64>() / calls as f64
}

/// Runs the kernel once from its fixed start and returns its host time in
/// seconds.
fn time_once() -> f64 {
    let started = Instant::now();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut flows: Vec<(u32, u32, u64)> = (0..FLOWS).map(|_| rng.flow()).collect();
    let mut matched = 0;
    for _ in 0..STEPS {
        matched += decide(&mut flows, &mut rng);
    }
    std::hint::black_box(matched);
    started.elapsed().as_secs_f64()
}
