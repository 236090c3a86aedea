//! Property-based tests for the DVFS model: frequencies stay inside the
//! machine envelope, turbo caps are respected, and energy is monotone,
//! under arbitrary activity sequences.
//!
//! Each property runs over `CASES` inputs drawn from [`SimRng`] seeded
//! with `mix64(SEED, case)`, so every case is reproducible from the seed
//! its failure message prints.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use nest_freq::{Activity, FreqModel, Governor};
use nest_simcore::rng::mix64;
use nest_simcore::{CoreId, SimRng, Time, MILLISEC};
use nest_topology::presets;

const SEED: u64 = 0x5EED_0003;
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

fn activity(i: u32) -> Activity {
    match i % 3 {
        0 => Activity::Idle,
        1 => Activity::Busy,
        _ => Activity::Spinning,
    }
}

/// Under any activity/advance interleaving, every core's frequency
/// remains within [fmin, fmax(1)], and busy cores respect the
/// windowed turbo cap after an advance step.
#[test]
fn frequency_stays_in_envelope() {
    check(
        CASES,
        |rng| {
            let ops = vec_of(rng, 1..200, |r| {
                (draw(r, 0..64) as u32, draw(r, 0..3) as u32, r.uniform_f64())
            });
            (ops, rng.chance(0.5))
        },
        |(ops, gov_perf)| {
            let spec = presets::xeon_5218();
            let gov = if *gov_perf {
                Governor::Performance
            } else {
                Governor::Schedutil
            };
            let mut m = FreqModel::new(&spec, gov);
            let mut now = Time::ZERO;
            for &(core, act, util) in ops {
                now += MILLISEC;
                m.set_activity(now, CoreId(core), activity(act));
                m.advance(now, MILLISEC, &mut |_| util);
                for c in 0..64u32 {
                    let f = m.freq_of(CoreId(c));
                    assert!(f >= spec.freq.fmin, "below fmin: {f}");
                    assert!(f <= spec.freq.fmax(), "above fmax: {f}");
                }
                for s in 0..2 {
                    let windowed = m.windowed_active_in_domain(s, now);
                    let instant = m.active_phys_in_domain(s);
                    assert!(windowed >= instant, "window must include current activity");
                    assert!(windowed <= 16);
                }
            }
        },
    );
}

/// Energy is nonnegative and monotone in time, whatever the activity.
#[test]
fn energy_monotone() {
    check(
        CASES,
        |rng| {
            vec_of(rng, 1..100, |r| {
                (draw(r, 0..64) as u32, draw(r, 0..3) as u32)
            })
        },
        |ops| {
            let spec = presets::xeon_6130(2);
            let mut m = FreqModel::new(&spec, Governor::Schedutil);
            let mut now = Time::ZERO;
            let mut prev = 0.0f64;
            for &(core, act) in ops {
                now += MILLISEC;
                m.set_activity(now, CoreId(core), activity(act));
                m.advance(now, MILLISEC, &mut |_| 0.5);
                let e = m.energy_joules(now);
                assert!(e >= prev, "energy decreased: {e} < {prev}");
                prev = e;
            }
            assert!(prev > 0.0, "no energy accumulated");
        },
    );
}

/// A machine kept fully busy consumes strictly more energy than an
/// idle one over the same horizon.
#[test]
fn busy_costs_more_than_idle() {
    check(
        CASES,
        |rng| draw(rng, 10..200),
        |&ms| {
            let spec = presets::xeon_6130(2);
            let horizon = Time::from_millis(ms);
            let mut idle = FreqModel::new(&spec, Governor::Schedutil);
            let e_idle = idle.energy_joules(horizon);
            let mut busy = FreqModel::new(&spec, Governor::Schedutil);
            for c in 0..64 {
                busy.set_activity(Time::ZERO, CoreId(c), Activity::Busy);
            }
            let mut t = Time::ZERO;
            while t < horizon {
                t += MILLISEC;
                busy.advance(t.min(horizon), MILLISEC, &mut |_| 1.0);
            }
            let e_busy = busy.energy_joules(horizon);
            assert!(e_busy > e_idle);
        },
    );
}
