//! The scheduling-domain hierarchy.
//!
//! [`DomainTree`] is the spine every layer of the simulator consumes: a
//! core belongs to a CCX (last-level-cache domain), a CCX to a socket,
//! and a socket to the machine, with a NUMA distance matrix between
//! sockets. The paper's Table 2 machines are *degenerate* trees — one CCX
//! per socket, flat NUMA — so on those machines every CCX-level query
//! collapses to the socket-level answer and the tree adds no behaviour.
//! Synthetic AMD-like machines split each socket into several CCXs and
//! may use a non-flat distance matrix, which is where the hierarchy earns
//! its keep: scans and nest bookkeeping become domain-local, and
//! "nearest" is defined by distance instead of by numerical order.
//!
//! Distances follow the Linux SLIT convention: a domain is at distance 10
//! from itself (`LOCAL_DISTANCE`), and remote distances grow from 20.

use nest_simcore::{CcxId, CoreId, SocketId};

use crate::cpuset::CpuSet;
use crate::machine::{MachineSpec, NumaKind};

/// SLIT-style distance of a socket to itself.
pub const LOCAL_DISTANCE: u32 = 10;

/// SLIT-style distance between directly adjacent sockets.
pub const REMOTE_DISTANCE: u32 = 20;

/// One level of the scheduling-domain hierarchy, smallest first.
///
/// The `Core` level is implicit (a core is its own domain); the tree
/// stores spans for the three aggregate levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DomainLevel {
    /// Cores sharing one last-level-cache slice (a CCX). Coincides with
    /// the socket on single-LLC-per-die machines.
    Ccx,
    /// Cores of one socket (the die).
    Socket,
    /// All cores of the machine.
    Machine,
}

impl DomainLevel {
    /// The aggregate levels, smallest first.
    pub const ALL: [DomainLevel; 3] = [DomainLevel::Ccx, DomainLevel::Socket, DomainLevel::Machine];
}

/// The computed domain hierarchy of one machine: per-level [`CpuSet`]
/// spans plus the socket NUMA-distance matrix.
#[derive(Clone, Debug)]
pub struct DomainTree {
    ccx_spans: Vec<CpuSet>,
    socket_spans: Vec<CpuSet>,
    machine: CpuSet,
    ccx_home: Vec<SocketId>,
    /// Row-major `sockets × sockets` distance matrix.
    socket_distance: Vec<u32>,
    /// Row-major `n_ccx × n_ccx` table: row `h` is every CCX ordered
    /// nearest-first from CCX `h` (see [`DomainTree::ccxs_nearest_first`]).
    ccx_order: Vec<CcxId>,
    sockets: usize,
    ccx_per_socket: usize,
}

impl DomainTree {
    /// Builds the tree for a machine description.
    ///
    /// # Panics
    ///
    /// Panics if `ccx_per_socket` is zero or does not divide
    /// `phys_per_socket` (a CCX cannot straddle a physical core, and all
    /// CCXs of a socket are the same size).
    pub fn new(spec: &MachineSpec) -> DomainTree {
        assert!(
            spec.ccx_per_socket > 0,
            "machine needs at least one CCX per socket"
        );
        assert_eq!(
            spec.phys_per_socket % spec.ccx_per_socket,
            0,
            "ccx_per_socket must divide phys_per_socket"
        );
        let n = spec.n_cores();
        let cps = spec.cores_per_socket();
        let ppc = spec.phys_per_ccx();
        let mut socket_spans = Vec::with_capacity(spec.sockets);
        let mut ccx_spans = Vec::with_capacity(spec.sockets * spec.ccx_per_socket);
        let mut ccx_home = Vec::with_capacity(spec.sockets * spec.ccx_per_socket);
        for s in 0..spec.sockets {
            let base = s * cps;
            let mut span = CpuSet::new(n);
            for i in 0..cps {
                span.insert(CoreId::from_index(base + i));
            }
            socket_spans.push(span);
            for c in 0..spec.ccx_per_socket {
                // A CCX owns physical cores `c·ppc .. (c+1)·ppc` of its
                // socket: their first hardware threads, plus (with SMT)
                // the hyperthread block offset by `phys_per_socket`.
                let mut span = CpuSet::new(n);
                for p in c * ppc..(c + 1) * ppc {
                    for t in 0..spec.smt {
                        span.insert(CoreId::from_index(base + t * spec.phys_per_socket + p));
                    }
                }
                ccx_spans.push(span);
                ccx_home.push(SocketId::from_index(s));
            }
        }
        let socket_distance = (0..spec.sockets)
            .flat_map(|a| {
                (0..spec.sockets).map(move |b| numa_distance(spec.numa, a, b, spec.sockets))
            })
            .collect();
        let mut tree = DomainTree {
            ccx_spans,
            socket_spans,
            machine: CpuSet::full(n),
            ccx_home,
            socket_distance,
            ccx_order: Vec::new(),
            sockets: spec.sockets,
            ccx_per_socket: spec.ccx_per_socket,
        };
        let n_ccx = tree.n_ccx();
        let mut ccx_order = Vec::with_capacity(n_ccx * n_ccx);
        for home in (0..n_ccx).map(CcxId::from_index) {
            let mut row: Vec<CcxId> = (0..n_ccx).map(CcxId::from_index).collect();
            row.sort_by_key(|&c| (tree.ccx_distance(home, c), c.index()));
            ccx_order.extend(row);
        }
        tree.ccx_order = ccx_order;
        tree
    }

    /// Number of domains at a level.
    pub fn n_domains(&self, level: DomainLevel) -> usize {
        match level {
            DomainLevel::Ccx => self.ccx_spans.len(),
            DomainLevel::Socket => self.sockets,
            DomainLevel::Machine => 1,
        }
    }

    /// Span of domain `idx` at a level.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the level.
    pub fn span(&self, level: DomainLevel, idx: usize) -> &CpuSet {
        match level {
            DomainLevel::Ccx => &self.ccx_spans[idx],
            DomainLevel::Socket => &self.socket_spans[idx],
            DomainLevel::Machine => {
                assert_eq!(idx, 0, "the machine level has one domain");
                &self.machine
            }
        }
    }

    /// Number of CCXs on the machine.
    pub fn n_ccx(&self) -> usize {
        self.ccx_spans.len()
    }

    /// CCXs per socket.
    pub fn ccx_per_socket(&self) -> usize {
        self.ccx_per_socket
    }

    /// Span of one CCX.
    ///
    /// # Panics
    ///
    /// Panics if the CCX is out of range.
    pub fn ccx_span(&self, ccx: CcxId) -> &CpuSet {
        &self.ccx_spans[ccx.index()]
    }

    /// Span of one socket.
    ///
    /// # Panics
    ///
    /// Panics if the socket is out of range.
    pub fn socket_span(&self, socket: SocketId) -> &CpuSet {
        &self.socket_spans[socket.index()]
    }

    /// Span of the whole machine.
    pub fn machine_span(&self) -> &CpuSet {
        &self.machine
    }

    /// The socket owning a CCX.
    ///
    /// # Panics
    ///
    /// Panics if the CCX is out of range.
    pub fn socket_of_ccx(&self, ccx: CcxId) -> SocketId {
        self.ccx_home[ccx.index()]
    }

    /// Iterates over the CCXs of one socket, in numerical order.
    pub fn ccxs_in_socket(&self, socket: SocketId) -> impl Iterator<Item = CcxId> {
        let base = socket.index() * self.ccx_per_socket;
        (base..base + self.ccx_per_socket).map(CcxId::from_index)
    }

    /// SLIT-style NUMA distance between two sockets (10 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if either socket is out of range.
    pub fn socket_distance(&self, a: SocketId, b: SocketId) -> u32 {
        assert!(a.index() < self.sockets && b.index() < self.sockets);
        self.socket_distance[a.index() * self.sockets + b.index()]
    }

    /// Distance between two CCXs: 0 for the same CCX, otherwise the
    /// distance between their sockets (so two CCXs of one socket are at
    /// [`LOCAL_DISTANCE`], strictly closer than any remote socket).
    pub fn ccx_distance(&self, a: CcxId, b: CcxId) -> u32 {
        if a == b {
            0
        } else {
            self.socket_distance(self.socket_of_ccx(a), self.socket_of_ccx(b))
        }
    }

    /// CCXs ordered by distance from `home` (ties by CCX number): `home`
    /// first, then the other CCXs of its socket, then remote CCXs by
    /// socket distance. On one-CCX-per-socket machines this is the socket
    /// order Nest searches to reduce the number of used dies (§3.1).
    /// Built once per tree, so the lookup is a slice of a table.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn ccxs_nearest_first(&self, home: CcxId) -> &[CcxId] {
        let n = self.n_ccx();
        &self.ccx_order[home.index() * n..(home.index() + 1) * n]
    }
}

/// Distance between two sockets under a NUMA layout.
fn numa_distance(kind: NumaKind, a: usize, b: usize, sockets: usize) -> u32 {
    if a == b {
        return LOCAL_DISTANCE;
    }
    match kind {
        NumaKind::Flat => REMOTE_DISTANCE,
        NumaKind::Ring => {
            let hop = (a as i64 - b as i64).unsigned_abs() as u32;
            let hops = hop.min(sockets as u32 - hop);
            LOCAL_DISTANCE + LOCAL_DISTANCE * hops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn degenerate_tree_collapses_to_sockets() {
        let spec = presets::xeon_6130(4);
        let tree = DomainTree::new(&spec);
        assert_eq!(tree.n_ccx(), 4);
        for s in 0..4 {
            let sock = SocketId::from_index(s);
            let ccx = CcxId::from_index(s);
            assert_eq!(tree.ccx_span(ccx), tree.socket_span(sock));
            assert_eq!(tree.socket_of_ccx(ccx), sock);
            assert_eq!(tree.ccxs_in_socket(sock).collect::<Vec<_>>(), vec![ccx]);
        }
    }

    #[test]
    fn multi_ccx_spans_partition_each_socket() {
        let spec = presets::synth(2, 4, 8, 2, NumaKind::Flat);
        let tree = DomainTree::new(&spec);
        assert_eq!(tree.n_ccx(), 8);
        for s in 0..2 {
            let sock = SocketId::from_index(s);
            let mut seen = CpuSet::new(spec.n_cores());
            for ccx in tree.ccxs_in_socket(sock) {
                let span = tree.ccx_span(ccx);
                assert_eq!(span.len(), 16);
                assert!(seen.is_disjoint(span));
                seen.union_with(span);
            }
            assert_eq!(&seen, tree.socket_span(sock));
        }
    }

    #[test]
    fn smt2_ccx_span_contains_both_threads() {
        // 2 sockets × 2 CCX × 4 phys, SMT-2: socket 0 is cores 0..16,
        // primaries 0..8, hyperthreads 8..16. CCX 1 of socket 0 owns phys
        // 4..8 → threads {4,5,6,7} ∪ {12,13,14,15}.
        let spec = presets::synth(2, 2, 4, 2, NumaKind::Flat);
        let tree = DomainTree::new(&spec);
        let span: Vec<u32> = tree.ccx_span(CcxId(1)).iter().map(|c| c.0).collect();
        assert_eq!(span, vec![4, 5, 6, 7, 12, 13, 14, 15]);
    }

    #[test]
    fn flat_nearest_first_is_home_then_ascending() {
        // One CCX per socket: the CCX order is the socket order.
        let tree = DomainTree::new(&presets::xeon_6130(4));
        let order: Vec<usize> = tree
            .ccxs_nearest_first(CcxId(2))
            .iter()
            .map(|c| c.index())
            .collect();
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn ring_distance_orders_by_hops() {
        // One CCX per socket: the CCX order is the socket order.
        let spec = presets::synth(4, 1, 8, 1, NumaKind::Ring);
        let tree = DomainTree::new(&spec);
        assert_eq!(tree.socket_distance(SocketId(0), SocketId(0)), 10);
        assert_eq!(tree.socket_distance(SocketId(0), SocketId(1)), 20);
        assert_eq!(tree.socket_distance(SocketId(0), SocketId(2)), 30);
        assert_eq!(tree.socket_distance(SocketId(0), SocketId(3)), 20);
        let order: Vec<usize> = tree
            .ccxs_nearest_first(CcxId(0))
            .iter()
            .map(|c| c.index())
            .collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn ccxs_nearest_first_prefers_home_socket() {
        let spec = presets::synth(2, 2, 8, 1, NumaKind::Flat);
        let tree = DomainTree::new(&spec);
        let order: Vec<usize> = tree
            .ccxs_nearest_first(CcxId(1))
            .iter()
            .map(|c| c.index())
            .collect();
        // Home CCX, then its socket sibling, then the remote socket's.
        assert_eq!(order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn level_spans_cover_machine() {
        let spec = presets::synth(2, 2, 4, 2, NumaKind::Flat);
        let tree = DomainTree::new(&spec);
        for level in DomainLevel::ALL {
            let mut seen = CpuSet::new(spec.n_cores());
            for i in 0..tree.n_domains(level) {
                seen.union_with(tree.span(level, i));
            }
            assert_eq!(seen.len(), spec.n_cores(), "{level:?}");
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn ccx_must_divide_phys() {
        let mut spec = presets::synth(1, 2, 4, 1, NumaKind::Flat);
        spec.ccx_per_socket = 3;
        DomainTree::new(&spec);
    }
}
