//! Property-based tests for the simulation primitives.
//!
//! Each property runs over `CASES` inputs drawn from [`SimRng`] seeded
//! with `mix64(SEED, case)`, so every case is reproducible from the seed
//! its failure message prints.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use nest_simcore::rng::mix64;
use nest_simcore::{EventQueue, Freq, SimRng, Time};

const SEED: u64 = 0x5EED_0001;
const CASES: u64 = 256;

/// Runs `prop` on `cases` inputs drawn by `gen`, one seed per case; a
/// failing case reports its seed and the drawn input.
fn check<T: Debug>(cases: u64, gen: impl Fn(&mut SimRng) -> T, prop: impl Fn(&T)) {
    for case in 0..cases {
        let seed = mix64(SEED, case);
        let input = gen(&mut SimRng::new(seed));
        if panic::catch_unwind(AssertUnwindSafe(|| prop(&input))).is_err() {
            panic!("case {case} (seed {seed:#x}) failed on input {input:?}");
        }
    }
}

/// A uniform draw from the half-open range `r`.
fn draw(rng: &mut SimRng, r: Range<u64>) -> u64 {
    rng.uniform_u64(r.start, r.end - 1)
}

/// A vector whose length is drawn from `len` and whose elements come
/// from `elem`.
fn vec_of<T>(rng: &mut SimRng, len: Range<u64>, mut elem: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
    let n = draw(rng, len);
    (0..n).map(|_| elem(rng)).collect()
}

/// The event queue pops in nondecreasing time order and, at equal
/// times, in insertion order — verified against a stable sort.
#[test]
fn event_queue_matches_stable_sort() {
    check(
        CASES,
        |rng| vec_of(rng, 0..200, |r| draw(r, 0..1000)),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Time::from_nanos(t), i);
            }
            let mut expect: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expect.sort_by_key(|&(t, _)| t); // stable: preserves insertion order
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_nanos(), i))).collect();
            assert_eq!(got, expect);
        },
    );
}

/// Cancellation removes exactly the cancelled events.
#[test]
fn event_queue_cancellation() {
    check(
        CASES,
        |rng| {
            let times = vec_of(rng, 1..100, |r| draw(r, 0..1000));
            let cancel_mask = vec_of(rng, 1..100, |r| r.chance(0.5));
            (times, cancel_mask)
        },
        |(times, cancel_mask)| {
            let mut q = EventQueue::new();
            let keys: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| q.schedule(Time::from_nanos(t), i))
                .collect();
            let mut kept = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    q.cancel(*key);
                } else {
                    kept.push(i);
                }
            }
            let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
            assert_eq!(got.len(), kept.len());
            for i in kept {
                assert!(got.contains(&i));
            }
        },
    );
}

/// Time arithmetic: (t + d) - t == d; align_down is within one
/// interval and divisible by it.
#[test]
fn time_arithmetic() {
    check(
        CASES,
        |rng| {
            (
                draw(rng, 0..u64::MAX / 2),
                draw(rng, 0..u64::MAX / 4),
                draw(rng, 1..1_000_000),
            )
        },
        |&(t, d, interval)| {
            let a = Time::from_nanos(t);
            assert_eq!((a + d) - a, d);
            let aligned = a.align_down(interval);
            assert!(aligned <= a);
            assert!(a - aligned < interval);
            assert_eq!(aligned.as_nanos() % interval, 0);
        },
    );
}

/// Frequency/cycle conversion: executing for the computed duration
/// always yields at least the requested cycles, and never more than
/// one extra tick's worth.
#[test]
fn freq_duration_round_trip() {
    check(
        CASES,
        |rng| (draw(rng, 1..10_000_000), draw(rng, 0..u64::MAX / 2_000_000)),
        |&(khz, cycles)| {
            let f = Freq::from_khz(khz);
            let ns = f.nanos_for_cycles(cycles);
            assert!(f.cycles_in_nanos(ns) >= cycles);
            if cycles > 0 {
                // One nanosecond less would not be enough.
                assert!(f.cycles_in_nanos(ns.saturating_sub(1)) <= cycles);
            }
        },
    );
}

/// Forked RNG streams with different labels differ, same labels agree.
#[test]
fn rng_fork_determinism() {
    check(
        CASES,
        |rng| (rng.next_u64(), rng.next_u64(), rng.next_u64()),
        |&(seed, a, b)| {
            let mut r1 = SimRng::new(seed);
            let mut r2 = SimRng::new(seed);
            let mut fa1 = r1.fork(a);
            let mut fa2 = r2.fork(a);
            assert_eq!(fa1.next_u64(), fa2.next_u64());
            if a != b {
                let mut r3 = SimRng::new(seed);
                let mut fb = r3.fork(b);
                let mut r4 = SimRng::new(seed);
                let mut fa = r4.fork(a);
                assert_ne!(fa.next_u64(), fb.next_u64());
            }
        },
    );
}

/// `jitter` stays within the advertised bounds for valid inputs.
#[test]
fn rng_jitter_bounds() {
    check(
        CASES,
        |rng| {
            (
                rng.next_u64(),
                draw(rng, 0..1_000_000_000),
                rng.uniform_f64(),
            )
        },
        |&(seed, base, j)| {
            let mut r = SimRng::new(seed);
            let v = r.jitter(base, j);
            let lo = ((base as f64) * (1.0 - j)).floor() as u64;
            let hi = ((base as f64) * (1.0 + j)).ceil() as u64;
            assert!(v >= lo && v <= hi, "{v} outside [{lo}, {hi}]");
        },
    );
}
