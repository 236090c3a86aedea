//! Sets of CPUs, the simulator's `cpumask_t`.
//!
//! [`CpuSet`] is a fixed-capacity bitset over core identifiers. Nest's
//! primary and reserve nests, scheduling-domain spans, and group masks are
//! all `CpuSet`s. Iteration is always in ascending core-number order, and
//! [`CpuSet::iter_wrapping_from`] provides the "numerical order, modulo the
//! number of cores, starting from a given core" scan that both CFS and Nest
//! use.

use std::fmt;

use nest_simcore::snap::{self, Snap};
use nest_simcore::{CoreId, Json};

const WORD_BITS: usize = 64;

/// A set of cores, stored as a bitmask.
///
/// # Examples
///
/// ```
/// use nest_simcore::CoreId;
/// use nest_topology::CpuSet;
///
/// let mut s = CpuSet::new(8);
/// s.insert(CoreId(2));
/// s.insert(CoreId(5));
/// assert!(s.contains(CoreId(2)));
/// assert_eq!(s.len(), 2);
/// let order: Vec<u32> = s.iter_wrapping_from(CoreId(4)).map(|c| c.0).collect();
/// assert_eq!(order, vec![5, 2]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CpuSet {
    words: Vec<u64>,
    capacity: usize,
}

impl CpuSet {
    /// Creates an empty set with room for cores `0..capacity`.
    pub fn new(capacity: usize) -> CpuSet {
        CpuSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Creates a set containing all cores `0..capacity`.
    pub fn full(capacity: usize) -> CpuSet {
        let mut s = CpuSet::new(capacity);
        for i in 0..capacity {
            s.insert(CoreId::from_index(i));
        }
        s
    }

    /// Creates a set from the given cores.
    ///
    /// # Panics
    ///
    /// Panics if any core is `>= capacity`.
    pub fn from_cores(capacity: usize, cores: &[CoreId]) -> CpuSet {
        let mut s = CpuSet::new(capacity);
        for &c in cores {
            s.insert(c);
        }
        s
    }

    /// Returns the capacity (the machine's core count).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn check(&self, core: CoreId) {
        assert!(
            core.index() < self.capacity,
            "core {core} out of range (capacity {})",
            self.capacity
        );
    }

    /// Inserts a core. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range.
    pub fn insert(&mut self, core: CoreId) -> bool {
        self.check(core);
        let (w, b) = (core.index() / WORD_BITS, core.index() % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes a core. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range.
    pub fn remove(&mut self, core: CoreId) -> bool {
        self.check(core);
        let (w, b) = (core.index() / WORD_BITS, core.index() % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Returns `true` if the core is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        if core.index() >= self.capacity {
            return false;
        }
        let (w, b) = (core.index() / WORD_BITS, core.index() % WORD_BITS);
        self.words[w] & (1 << b) != 0
    }

    /// Returns the number of cores in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all cores.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Returns the lowest-numbered core in the set, if any.
    pub fn first(&self) -> Option<CoreId> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(CoreId::from_index(
                    i * WORD_BITS + w.trailing_zeros() as usize,
                ));
            }
        }
        None
    }

    /// Iterates over cores in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(CoreId::from_index(i * WORD_BITS + b))
            })
        })
    }

    /// Iterates over cores in numerical order modulo the capacity,
    /// starting from `start` (inclusive) — the scan order of CFS's and
    /// Nest's core searches.
    ///
    /// Word-wise: cost is proportional to the number of bitmask words plus
    /// the number of set bits actually consumed, not to the capacity.
    pub fn iter_wrapping_from(&self, start: CoreId) -> impl Iterator<Item = CoreId> + '_ {
        let cap = self.capacity;
        let s = start.index().min(cap.saturating_sub(1));
        RangeBits::new(&self.words, None, s, cap)
            .chain(RangeBits::new(&self.words, None, 0, s))
            .map(CoreId::from_index)
    }

    /// Like [`CpuSet::iter_wrapping_from`], but restricted to cores also
    /// present in `mask` — the common "scan this span, but only its idle
    /// (or nest-member) cores" pattern, without materializing the
    /// intersection.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn iter_wrapping_from_masked<'a>(
        &'a self,
        mask: &'a CpuSet,
        start: CoreId,
    ) -> impl Iterator<Item = CoreId> + 'a {
        assert_eq!(self.capacity, mask.capacity, "capacity mismatch");
        let cap = self.capacity;
        let s = start.index().min(cap.saturating_sub(1));
        RangeBits::new(&self.words, Some(&mask.words), s, cap)
            .chain(RangeBits::new(&self.words, Some(&mask.words), 0, s))
            .map(CoreId::from_index)
    }

    /// Iterates over the intersection with `mask` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn iter_masked<'a>(&'a self, mask: &'a CpuSet) -> impl Iterator<Item = CoreId> + 'a {
        assert_eq!(self.capacity, mask.capacity, "capacity mismatch");
        RangeBits::new(&self.words, Some(&mask.words), 0, self.capacity).map(CoreId::from_index)
    }

    /// `true` if the two sets share at least one core.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersects(&self, other: &CpuSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Overwrites this set with the contents of `other`, without
    /// reallocating — the allocation-free alternative to `clone()` for
    /// persistent scratch sets.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn copy_from(&mut self, other: &CpuSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &CpuSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &CpuSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn subtract(&mut self, other: &CpuSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `true` if the two sets share no core.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_disjoint(&self, other: &CpuSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Counts the cores present in both sets.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersection_len(&self, other: &CpuSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

impl CpuSet {
    /// Snapshot form: the member core ids, ascending.
    pub fn save(&self) -> Json {
        self.iter().collect::<Vec<_>>().save()
    }

    /// Reads field `key` written by [`CpuSet::save`] as a set over an
    /// `n`-core machine; a member outside the machine is an error.
    pub fn load(obj: &Json, key: &str, n: usize) -> Result<CpuSet, String> {
        let mut set = CpuSet::new(n);
        for core in snap::load::<Vec<CoreId>>(obj, key)? {
            if core.index() >= n {
                return Err(format!(
                    "snapshot field \"{key}\" names core {core}, but the machine has {n} cores"
                ));
            }
            set.insert(core);
        }
        Ok(set)
    }
}

/// Iterator over the set bits of `a` (optionally ANDed with `b`) whose
/// indices fall in `[lo, hi)`, ascending. The workhorse behind every
/// `CpuSet` scan: each 64-core word costs one load (plus one AND for
/// masked scans) and one trailing-zeros per set bit.
struct RangeBits<'a> {
    a: &'a [u64],
    b: Option<&'a [u64]>,
    wi: usize,
    cur: u64,
    hi: usize,
}

impl<'a> RangeBits<'a> {
    fn new(a: &'a [u64], b: Option<&'a [u64]>, lo: usize, hi: usize) -> RangeBits<'a> {
        let wi = lo / WORD_BITS;
        let mut r = RangeBits {
            a,
            b,
            wi,
            cur: 0,
            hi,
        };
        if lo < hi {
            r.cur = r.fetch(wi) & (!0u64 << (lo % WORD_BITS));
        }
        r
    }

    fn fetch(&self, i: usize) -> u64 {
        let w = self.a.get(i).copied().unwrap_or(0);
        match self.b {
            Some(m) => w & m.get(i).copied().unwrap_or(0),
            None => w,
        }
    }
}

impl Iterator for RangeBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                let idx = self.wi * WORD_BITS + b;
                if idx >= self.hi {
                    // Bits ascend, so everything further is past `hi` too.
                    self.cur = 0;
                    self.wi = self.a.len();
                    return None;
                }
                return Some(idx);
            }
            self.wi += 1;
            if self.wi >= self.a.len() || self.wi * WORD_BITS >= self.hi {
                return None;
            }
            self.cur = self.fetch(self.wi);
        }
    }
}

impl fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuSet{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cap: usize, cores: &[u32]) -> CpuSet {
        CpuSet::from_cores(cap, &cores.iter().map(|&c| CoreId(c)).collect::<Vec<_>>())
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = CpuSet::new(130);
        assert!(s.insert(CoreId(129)));
        assert!(!s.insert(CoreId(129)));
        assert!(s.contains(CoreId(129)));
        assert!(s.remove(CoreId(129)));
        assert!(!s.remove(CoreId(129)));
        assert!(s.is_empty());
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = CpuSet::new(4);
        assert!(!s.contains(CoreId(4)));
        assert!(!s.contains(CoreId(1000)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        CpuSet::new(4).insert(CoreId(4));
    }

    #[test]
    fn full_and_len() {
        let s = CpuSet::full(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.first(), Some(CoreId(0)));
    }

    #[test]
    fn iter_is_ascending() {
        let s = set(200, &[150, 3, 64, 65, 199]);
        let v: Vec<u32> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![3, 64, 65, 150, 199]);
    }

    #[test]
    fn wrapping_iter_starts_at_start() {
        let s = set(8, &[0, 2, 5, 7]);
        let v: Vec<u32> = s.iter_wrapping_from(CoreId(5)).map(|c| c.0).collect();
        assert_eq!(v, vec![5, 7, 0, 2]);
    }

    #[test]
    fn wrapping_iter_covers_whole_set() {
        let s = set(64, &[1, 10, 63]);
        assert_eq!(s.iter_wrapping_from(CoreId(11)).count(), 3);
    }

    #[test]
    fn wrapping_iter_matches_naive_scan_everywhere() {
        // Oracle: the original O(capacity) formulation.
        for cap in [1usize, 8, 63, 64, 65, 130, 192] {
            let cores: Vec<u32> = (0..cap as u32)
                .filter(|c| c % 7 == 3 || c % 11 == 0)
                .collect();
            let s = set(cap, &cores);
            for start in [0usize, 1, cap / 2, cap - 1, cap, cap + 5] {
                let sc = CoreId(start as u32);
                let naive: Vec<u32> = {
                    let st = start.min(cap - 1);
                    (0..cap)
                        .map(|off| ((st + off) % cap) as u32)
                        .filter(|&c| s.contains(CoreId(c)))
                        .collect()
                };
                let fast: Vec<u32> = s.iter_wrapping_from(sc).map(|c| c.0).collect();
                assert_eq!(fast, naive, "cap={cap} start={start}");
            }
        }
    }

    #[test]
    fn masked_wrapping_iter_equals_filtered_iter() {
        let s = set(130, &[0, 3, 64, 65, 100, 129]);
        let m = set(130, &[3, 64, 100, 128]);
        let masked: Vec<u32> = s
            .iter_wrapping_from_masked(&m, CoreId(65))
            .map(|c| c.0)
            .collect();
        let filtered: Vec<u32> = s
            .iter_wrapping_from(CoreId(65))
            .filter(|&c| m.contains(c))
            .map(|c| c.0)
            .collect();
        assert_eq!(masked, filtered);
        assert_eq!(masked, vec![100, 3, 64]);
    }

    #[test]
    fn iter_masked_is_ascending_intersection() {
        let s = set(100, &[1, 2, 50, 99]);
        let m = set(100, &[2, 50, 98]);
        let v: Vec<u32> = s.iter_masked(&m).map(|c| c.0).collect();
        assert_eq!(v, vec![2, 50]);
    }

    #[test]
    fn intersects_and_copy_from() {
        let a = set(70, &[1, 69]);
        let b = set(70, &[69]);
        let c = set(70, &[2]);
        assert!(a.intersects(&b));
        assert!(!b.intersects(&c));
        let mut d = CpuSet::new(70);
        d.copy_from(&a);
        assert_eq!(d, a);
    }

    #[test]
    fn set_algebra() {
        let mut a = set(16, &[1, 2, 3]);
        let b = set(16, &[3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, set(16, &[3]));
        a.subtract(&b);
        assert_eq!(a, set(16, &[1, 2]));
        assert!(a.is_disjoint(&b));
        assert_eq!(u.intersection_len(&b), 2);
    }

    #[test]
    fn clear_empties() {
        let mut s = set(16, &[1, 2]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", set(8, &[1, 3])), "CpuSet{1,3}");
    }
}
