//! Property-based tests for CPU sets and topology.
//!
//! Each property runs over `CASES` inputs drawn from [`SimRng`] seeded
//! with `mix64(SEED, case)`, so every case is reproducible from the seed
//! its failure message prints.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use nest_simcore::rng::mix64;
use nest_simcore::{CoreId, Freq, SimRng};
use nest_topology::{
    machine::{FreqSpec, MachineSpec, NumaKind, PowerSpec, TurboDomain},
    CpuSet, Topology,
};

const SEED: u64 = 0x5EED_0002;
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

/// A set of distinct values from `elems` whose size is drawn from `len`
/// (`len` must stay below the size of `elems`).
fn set_of(rng: &mut SimRng, elems: Range<u32>, len: Range<u64>) -> BTreeSet<u32> {
    let n = draw(rng, len) as usize;
    let mut set = BTreeSet::new();
    while set.len() < n {
        set.insert(draw(rng, elems.start as u64..elems.end as u64) as u32);
    }
    set
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u8),
    Remove(u8),
    Clear,
}

fn op(rng: &mut SimRng) -> Op {
    match draw(rng, 0..3) {
        0 => Op::Insert(draw(rng, 0..160) as u8),
        1 => Op::Remove(draw(rng, 0..160) as u8),
        _ => Op::Clear,
    }
}

/// CpuSet behaves exactly like a BTreeSet<u32> model under arbitrary
/// operation sequences.
#[test]
fn cpuset_matches_model() {
    check(
        CASES,
        |rng| {
            let n = draw(rng, 0..300);
            (0..n).map(|_| op(rng)).collect::<Vec<_>>()
        },
        |ops| {
            let mut set = CpuSet::new(160);
            let mut model: BTreeSet<u32> = BTreeSet::new();
            for op in ops {
                match *op {
                    Op::Insert(c) => {
                        let a = set.insert(CoreId(c as u32));
                        let b = model.insert(c as u32);
                        assert_eq!(a, b);
                    }
                    Op::Remove(c) => {
                        let a = set.remove(CoreId(c as u32));
                        let b = model.remove(&(c as u32));
                        assert_eq!(a, b);
                    }
                    Op::Clear => {
                        set.clear();
                        model.clear();
                    }
                }
                assert_eq!(set.len(), model.len());
                assert_eq!(set.is_empty(), model.is_empty());
                let iter: Vec<u32> = set.iter().map(|c| c.0).collect();
                let expect: Vec<u32> = model.iter().copied().collect();
                assert_eq!(iter, expect);
                assert_eq!(set.first().map(|c| c.0), model.first().copied());
            }
        },
    );
}

/// The wrapping iterator is a rotation of the plain iterator.
#[test]
fn wrapping_iter_is_rotation() {
    check(
        CASES,
        |rng| (set_of(rng, 0..160, 0..80), draw(rng, 0..160) as u32),
        |(cores, start)| {
            let set =
                CpuSet::from_cores(160, &cores.iter().map(|&c| CoreId(c)).collect::<Vec<_>>());
            let wrapped: Vec<u32> = set
                .iter_wrapping_from(CoreId(*start))
                .map(|c| c.0)
                .collect();
            let mut plain: Vec<u32> = set.iter().map(|c| c.0).collect();
            let pivot = plain.iter().position(|&c| c >= *start).unwrap_or(0);
            plain.rotate_left(pivot);
            assert_eq!(wrapped, plain);
        },
    );
}

/// Set algebra laws against the model.
#[test]
fn cpuset_algebra_laws() {
    check(
        CASES,
        |rng| (set_of(rng, 0..96, 0..50), set_of(rng, 0..96, 0..50)),
        |(a, b)| {
            let to_set = |m: &BTreeSet<u32>| {
                CpuSet::from_cores(96, &m.iter().map(|&c| CoreId(c)).collect::<Vec<_>>())
            };
            let sa = to_set(a);
            let sb = to_set(b);
            let mut union = sa.clone();
            union.union_with(&sb);
            let mut inter = sa.clone();
            inter.intersect_with(&sb);
            let mut diff = sa.clone();
            diff.subtract(&sb);
            assert_eq!(union.len(), a.union(b).count());
            assert_eq!(inter.len(), a.intersection(b).count());
            assert_eq!(diff.len(), a.difference(b).count());
            assert_eq!(sa.intersection_len(&sb), a.intersection(b).count());
            assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(b));
            // Inclusion-exclusion.
            assert_eq!(union.len() + inter.len(), sa.len() + sb.len());
        },
    );
}

/// Topology invariants hold for arbitrary machine shapes: sibling is
/// an involution on the same socket, socket spans partition the
/// machine, nearest-first starts home and covers all sockets, and CCX
/// spans refine socket spans.
#[test]
fn topology_invariants() {
    check(
        CASES,
        |rng| {
            (
                draw(rng, 1..5) as usize,
                draw(rng, 1..4) as usize,
                draw(rng, 1..8) as usize,
            )
        },
        |&(sockets, ccx, phys_per_ccx)| {
            let phys = ccx * phys_per_ccx;
            let spec = MachineSpec {
                name: "prop".to_string(),
                microarch: "prop",
                sockets,
                phys_per_socket: phys,
                ccx_per_socket: ccx,
                smt: 2,
                numa: NumaKind::Flat,
                freq: FreqSpec {
                    fmin: Freq::from_ghz(1.0),
                    fnominal: Freq::from_ghz(2.0),
                    turbo: vec![Freq::from_ghz(3.0)],
                    turbo_domain: TurboDomain::Socket,
                    ramp_up_khz_per_ms: 1,
                    ramp_down_khz_per_ms: 1,
                    idle_cooldown_ns: 1,
                    turbo_window_ns: 1,
                    residency_buckets_ghz: vec![3.0],
                },
                power: PowerSpec {
                    uncore_w: 1.0,
                    core_idle_w: 0.1,
                    dyn_coeff_w_per_ghz: 1.0,
                    spin_power_factor: 0.3,
                    v_at_fmin: 0.6,
                    v_at_fmax: 1.0,
                },
            };
            let topo = Topology::new(spec);
            let mut seen = CpuSet::new(topo.n_cores());
            for s in topo.sockets() {
                let span = topo.socket_span(s);
                assert!(seen.is_disjoint(span));
                seen.union_with(span);
            }
            assert_eq!(seen.len(), topo.n_cores());
            for c in topo.cores() {
                let sib = topo.sibling(c);
                assert_ne!(sib, c);
                assert_eq!(topo.sibling(sib), c);
                assert_eq!(topo.socket_of(sib), topo.socket_of(c));
                assert_eq!(topo.is_primary_thread(c), !topo.is_primary_thread(sib));
                let order = topo.sockets_nearest_first(c);
                assert_eq!(order.len(), sockets);
                assert_eq!(order[0], topo.socket_of(c));
                // CCX membership is consistent with the span tables.
                let cx = topo.ccx_of(c);
                assert!(topo.ccx_span(cx).contains(c));
                assert_eq!(topo.domains().socket_of_ccx(cx), topo.socket_of(c));
                let ccx_order = topo.ccxs_nearest_first(c);
                assert_eq!(ccx_order.len(), topo.n_ccx());
                assert_eq!(ccx_order[0], cx);
            }
            // CCX spans partition each socket span.
            for s in topo.sockets() {
                let mut seen = CpuSet::new(topo.n_cores());
                for cx in topo.domains().ccxs_in_socket(s) {
                    assert!(seen.is_disjoint(topo.ccx_span(cx)));
                    seen.union_with(topo.ccx_span(cx));
                }
                assert_eq!(&seen, topo.socket_span(s));
            }
        },
    );
}
