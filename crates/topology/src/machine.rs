//! Machine description and computed topology.
//!
//! [`MachineSpec`] is pure data describing a machine: socket/CCX/core/SMT
//! counts plus the frequency behaviour ([`FreqSpec`], Table 3) and a power
//! model ([`PowerSpec`]). The paper's test machines (Table 2) and the
//! synthetic many-core machines share this one description. [`Topology`]
//! derives the structures schedulers need: core numbering, hyperthread
//! pairing, and the scheduling-domain hierarchy ([`DomainTree`]) whose
//! socket level the pre-existing socket API is a view over.
//!
//! Core numbering is socket-major, matching the renumbering the paper
//! applies to its traces ("cores on the same socket have adjacent
//! numbers"): on a machine with `P` physical cores per socket, socket `s`
//! owns cores `s·smt·P .. (s+1)·smt·P`, where local index `p < P` is the
//! first hardware thread of physical core `p` and (with SMT) `p + P` is
//! its hyperthread. CCXs partition the physical cores of a socket into
//! equal contiguous runs, so CCX numbering is socket-major too.

use nest_simcore::{CcxId, CoreId, Freq, SocketId};

use crate::cpuset::CpuSet;
use crate::domain::DomainTree;

/// The domain over which the hardware counts active physical cores when
/// choosing a turbo ceiling.
///
/// Intel's ladders (Table 3) apply per socket; AMD-like parts boost per
/// CCX, which is what makes nest locality pay on synthetic multi-CCX
/// machines: concentrating work keeps sibling CCXs' windowed activity at
/// zero and their ladders uncapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TurboDomain {
    /// Active cores are counted over the whole socket (Intel-like).
    Socket,
    /// Active cores are counted per CCX (AMD-like).
    Ccx,
}

/// The NUMA layout of a machine's sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NumaKind {
    /// All remote sockets are equidistant (the paper's machines).
    Flat,
    /// Sockets form a ring; distance grows with hop count. Used by the
    /// synthetic large machines to exercise distance-ordered search.
    Ring,
}

/// Frequency behaviour of a machine (paper Table 3 plus ramp dynamics).
#[derive(Clone, Debug)]
pub struct FreqSpec {
    /// Minimum frequency a core can drop to.
    pub fmin: Freq,
    /// Nominal (base) frequency; the `performance` governor's floor.
    pub fnominal: Freq,
    /// Turbo ceiling by number of active physical cores on the turbo
    /// domain: `turbo[0]` applies with 1 active core, `turbo[1]` with 2,
    /// …; the last entry extends to all higher counts.
    pub turbo: Vec<Freq>,
    /// The domain over which active cores are counted for the ladder.
    pub turbo_domain: TurboDomain,
    /// How fast the hardware raises a busy core's frequency, in kHz per
    /// millisecond. Models the difference between Intel Speed Shift
    /// (fast) and Enhanced SpeedStep on the older Broadwell (slow) that
    /// §5.2 and §5.3 of the paper highlight.
    pub ramp_up_khz_per_ms: u64,
    /// How fast an idle core's frequency decays, in kHz per millisecond.
    pub ramp_down_khz_per_ms: u64,
    /// Idle time before the frequency starts decaying, in nanoseconds.
    pub idle_cooldown_ns: u64,
    /// Window over which the hardware counts a physical core as "active"
    /// for turbo-ladder purposes. The processor does not react instantly
    /// to activity changes (§5.2: "the processor does not react quickly
    /// enough to the change of core activity, and the cores stay in the
    /// lower turbo range"), so dispersing short tasks over many cores
    /// keeps the windowed count — and hence the turbo cap — high.
    pub turbo_window_ns: u64,
    /// Bucket upper edges used by the paper's frequency-distribution
    /// figures for this machine (Figures 6 and 11).
    pub residency_buckets_ghz: Vec<f64>,
}

impl FreqSpec {
    /// Returns the turbo ceiling when `active_phys` physical cores of a
    /// turbo domain are active.
    ///
    /// With zero active cores there is no constraint; the single-core
    /// ceiling is returned. What counts as "a turbo domain" — the socket,
    /// or one CCX — is [`FreqSpec::turbo_domain`]; callers obtain the
    /// count through [`Topology::turbo_domain_of_phys`] so the domain
    /// choice is threaded through one accessor.
    pub fn turbo_limit(&self, active_phys: usize) -> Freq {
        assert!(!self.turbo.is_empty(), "empty turbo table");
        let idx = active_phys.saturating_sub(1).min(self.turbo.len() - 1);
        self.turbo[idx]
    }

    /// Returns the highest turbo frequency (single active core).
    pub fn fmax(&self) -> Freq {
        self.turbo_limit(1)
    }
}

/// A simple CPU power model, calibrated per machine.
///
/// Socket power = `uncore_w` (charged whenever the machine is up — the
/// paper notes sockets never enter deep sleep while any core is active)
/// plus per-core idle power plus per-active-core dynamic power `k·f·V²`,
/// where the socket voltage `V` tracks the fastest active core on the
/// socket (§5.2: "the CPU energy consumption is determined by the
/// consumption of the highest frequency core on the socket").
#[derive(Clone, Debug)]
pub struct PowerSpec {
    /// Constant per-socket uncore power in watts.
    pub uncore_w: f64,
    /// Power of an idle (non-spinning) core in watts.
    pub core_idle_w: f64,
    /// Dynamic coefficient: watts per GHz at V = 1.
    pub dyn_coeff_w_per_ghz: f64,
    /// Fraction of the dynamic power a *spinning* idle loop draws: the
    /// pause-loop keeps the core awake without driving the execution
    /// units at full activity factor.
    pub spin_power_factor: f64,
    /// Voltage at the minimum frequency (relative units).
    pub v_at_fmin: f64,
    /// Voltage at the maximum turbo frequency (relative units).
    pub v_at_fmax: f64,
}

impl PowerSpec {
    /// Returns the relative socket voltage when the fastest active core on
    /// the socket runs at `f`, interpolating linearly in frequency.
    pub fn voltage(&self, f: Freq, fmin: Freq, fmax: Freq) -> f64 {
        if fmax <= fmin {
            return self.v_at_fmax;
        }
        let t = (f.as_khz().saturating_sub(fmin.as_khz())) as f64
            / (fmax.as_khz() - fmin.as_khz()) as f64;
        self.v_at_fmin + t.clamp(0.0, 1.0) * (self.v_at_fmax - self.v_at_fmin)
    }
}

/// A complete machine description.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Short name, e.g. `"4-socket Intel 6130"`. Synthetic machines carry
    /// their canonical registry string (e.g.
    /// `"synth:sockets=4,ccx=8,cores=8"`) so that harness seeds derived
    /// from the name distinguish every shape.
    pub name: String,
    /// Microarchitecture, e.g. `"Skylake"`.
    pub microarch: &'static str,
    /// Number of sockets. A socket is a die (one NUMA node) on all
    /// modeled machines, as in the paper.
    pub sockets: usize,
    /// Physical cores per socket.
    pub phys_per_socket: usize,
    /// CCXs (last-level-cache domains) per socket. 1 on the paper's
    /// Intel machines — the die is one LLC domain; synthetic AMD-like
    /// machines split the socket. Must divide `phys_per_socket`.
    pub ccx_per_socket: usize,
    /// Hardware threads per physical core (1 or 2).
    pub smt: usize,
    /// NUMA layout of the sockets.
    pub numa: NumaKind,
    /// Frequency behaviour.
    pub freq: FreqSpec,
    /// Power model.
    pub power: PowerSpec,
}

impl MachineSpec {
    /// Total number of hardware threads ("cores" in the paper's
    /// terminology).
    pub fn n_cores(&self) -> usize {
        self.sockets * self.phys_per_socket * self.smt
    }

    /// Hardware threads per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.phys_per_socket * self.smt
    }

    /// Physical cores per CCX.
    pub fn phys_per_ccx(&self) -> usize {
        self.phys_per_socket / self.ccx_per_socket
    }

    /// Hardware threads per CCX.
    pub fn cores_per_ccx(&self) -> usize {
        self.phys_per_ccx() * self.smt
    }

    /// Total number of CCXs.
    pub fn n_ccx(&self) -> usize {
        self.sockets * self.ccx_per_socket
    }
}

/// Computed topology: numbering, pairing, spans, domains.
///
/// The socket-level API predates the domain hierarchy and is retained as
/// a view over [`DomainTree`]'s socket level; CCX-level queries are
/// answered by the same tree.
#[derive(Clone, Debug)]
pub struct Topology {
    spec: MachineSpec,
    domains: DomainTree,
}

impl Topology {
    /// Builds the topology for a machine.
    ///
    /// # Panics
    ///
    /// Panics if the spec has zero sockets/cores, an SMT width other than
    /// 1 or 2, or a CCX count that does not divide the physical cores.
    pub fn new(spec: MachineSpec) -> Topology {
        assert!(
            spec.sockets > 0 && spec.phys_per_socket > 0,
            "empty machine"
        );
        assert!(
            spec.smt == 1 || spec.smt == 2,
            "only SMT widths 1 and 2 are modeled"
        );
        let domains = DomainTree::new(&spec);
        Topology { spec, domains }
    }

    /// Returns the machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Returns the scheduling-domain hierarchy.
    pub fn domains(&self) -> &DomainTree {
        &self.domains
    }

    /// Returns the total number of hardware threads.
    pub fn n_cores(&self) -> usize {
        self.spec.n_cores()
    }

    /// Returns the number of sockets.
    pub fn n_sockets(&self) -> usize {
        self.spec.sockets
    }

    /// Returns the number of CCXs.
    pub fn n_ccx(&self) -> usize {
        self.domains.n_ccx()
    }

    /// `true` if any socket holds more than one CCX — i.e. the CCX level
    /// of the tree is not just the socket level under another name.
    /// Degenerate (paper) machines answer `false`, and schedulers use
    /// that to keep their historical per-socket scan paths bit-for-bit.
    pub fn has_subsocket_domains(&self) -> bool {
        self.spec.ccx_per_socket > 1
    }

    /// Returns the socket that owns a core.
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        assert!(core.index() < self.n_cores(), "core {core} out of range");
        SocketId::from_index(core.index() / self.spec.cores_per_socket())
    }

    /// Returns the CCX that owns a core.
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range.
    pub fn ccx_of(&self, core: CoreId) -> CcxId {
        let socket = self.socket_of(core);
        let local = self.phys_index(core) / self.spec.phys_per_ccx();
        CcxId::from_index(socket.index() * self.spec.ccx_per_socket + local)
    }

    /// Returns the hyperthread sharing the physical core with `core`, or
    /// `core` itself on an SMT-1 machine (every core is its own pair,
    /// which makes the hyperthread-pairing heuristics degrade to no-ops).
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range.
    pub fn sibling(&self, core: CoreId) -> CoreId {
        assert!(core.index() < self.n_cores(), "core {core} out of range");
        if self.spec.smt == 1 {
            return core;
        }
        let cps = self.spec.cores_per_socket();
        let p = self.spec.phys_per_socket;
        let base = core.index() / cps * cps;
        let local = core.index() % cps;
        let sib = if local < p { local + p } else { local - p };
        CoreId::from_index(base + sib)
    }

    /// Returns the physical-core index of `core` within its socket.
    pub fn phys_index(&self, core: CoreId) -> usize {
        let local = core.index() % self.spec.cores_per_socket();
        local % self.spec.phys_per_socket
    }

    /// Returns `true` if `core` is the first hardware thread of its
    /// physical core (always true on SMT-1 machines).
    pub fn is_primary_thread(&self, core: CoreId) -> bool {
        core.index() % self.spec.cores_per_socket() < self.spec.phys_per_socket
    }

    /// Returns the span of a socket (its die).
    ///
    /// # Panics
    ///
    /// Panics if the socket is out of range.
    pub fn socket_span(&self, socket: SocketId) -> &CpuSet {
        self.domains.socket_span(socket)
    }

    /// Returns the span of a CCX (the cores sharing one LLC slice).
    ///
    /// # Panics
    ///
    /// Panics if the CCX is out of range.
    pub fn ccx_span(&self, ccx: CcxId) -> &CpuSet {
        self.domains.ccx_span(ccx)
    }

    /// Returns the span of the whole machine.
    pub fn all_cores(&self) -> &CpuSet {
        self.domains.machine_span()
    }

    /// Iterates over socket ids.
    pub fn sockets(&self) -> impl Iterator<Item = SocketId> {
        (0..self.spec.sockets).map(SocketId::from_index)
    }

    /// Iterates over CCX ids.
    pub fn ccxs(&self) -> impl Iterator<Item = CcxId> {
        (0..self.n_ccx()).map(CcxId::from_index)
    }

    /// Iterates over all cores in numerical order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.n_cores()).map(CoreId::from_index)
    }

    /// Returns CCXs ordered by distance from `from`'s CCX: home CCX
    /// first, then the rest of the home socket, then remote sockets by
    /// NUMA distance.
    pub fn ccxs_nearest_first(&self, from: CoreId) -> &[CcxId] {
        self.domains.ccxs_nearest_first(self.ccx_of(from))
    }

    /// Number of turbo-counting domains, per [`FreqSpec::turbo_domain`]:
    /// one per socket, or one per CCX.
    pub fn n_turbo_domains(&self) -> usize {
        match self.spec.freq.turbo_domain {
            TurboDomain::Socket => self.spec.sockets,
            TurboDomain::Ccx => self.n_ccx(),
        }
    }

    /// Physical cores per turbo-counting domain.
    pub fn turbo_domain_phys(&self) -> usize {
        match self.spec.freq.turbo_domain {
            TurboDomain::Socket => self.spec.phys_per_socket,
            TurboDomain::Ccx => self.spec.phys_per_ccx(),
        }
    }

    /// Turbo-counting domain of a global physical-core index (physical
    /// cores are numbered socket-major, `socket · phys_per_socket + p`).
    /// This is the one accessor through which both the frequency model's
    /// active-core windows and any scheduler-side ladder queries resolve
    /// the counting domain, so neither layer hard-codes "socket".
    pub fn turbo_domain_of_phys(&self, phys: usize) -> usize {
        assert!(
            phys < self.spec.sockets * self.spec.phys_per_socket,
            "physical core {phys} out of range"
        );
        phys / self.turbo_domain_phys()
    }

    /// Turbo-counting domain of a core.
    pub fn turbo_domain_of(&self, core: CoreId) -> usize {
        let phys = self.socket_of(core).index() * self.spec.phys_per_socket + self.phys_index(core);
        self.turbo_domain_of_phys(phys)
    }

    /// The socket a turbo-counting domain lies on (used for per-socket
    /// throttle composition).
    pub fn socket_of_turbo_domain(&self, domain: usize) -> SocketId {
        match self.spec.freq.turbo_domain {
            TurboDomain::Socket => SocketId::from_index(domain),
            TurboDomain::Ccx => self.domains.socket_of_ccx(CcxId::from_index(domain)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn topo_6130_4s() -> Topology {
        Topology::new(presets::xeon_6130(4))
    }

    fn topo_synth() -> Topology {
        // 2 sockets × 4 CCX × 8 phys, SMT-1 → 64 cores, CCX turbo.
        Topology::new(presets::synth(2, 4, 8, 1, NumaKind::Flat))
    }

    #[test]
    fn core_counts_match_table2() {
        assert_eq!(Topology::new(presets::e7_8870_v4()).n_cores(), 160);
        assert_eq!(Topology::new(presets::xeon_6130(2)).n_cores(), 64);
        assert_eq!(Topology::new(presets::xeon_6130(4)).n_cores(), 128);
        assert_eq!(Topology::new(presets::xeon_5218()).n_cores(), 64);
    }

    #[test]
    fn socket_of_is_socket_major() {
        let t = topo_6130_4s();
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(31)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(32)), SocketId(1));
        assert_eq!(t.socket_of(CoreId(127)), SocketId(3));
    }

    #[test]
    fn sibling_is_involutive_and_same_socket() {
        let t = topo_6130_4s();
        for c in t.cores() {
            let s = t.sibling(c);
            assert_ne!(s, c);
            assert_eq!(t.sibling(s), c);
            assert_eq!(t.socket_of(s), t.socket_of(c));
            assert_eq!(t.phys_index(s), t.phys_index(c));
        }
    }

    #[test]
    fn sibling_pairing_layout() {
        // 16 physical cores per socket: thread 0 of phys 0 is core 0, its
        // hyperthread is core 16.
        let t = topo_6130_4s();
        assert_eq!(t.sibling(CoreId(0)), CoreId(16));
        assert_eq!(t.sibling(CoreId(16)), CoreId(0));
        assert_eq!(t.sibling(CoreId(32)), CoreId(48));
        assert!(t.is_primary_thread(CoreId(0)));
        assert!(!t.is_primary_thread(CoreId(16)));
    }

    #[test]
    fn smt1_sibling_is_self() {
        let t = topo_synth();
        for c in t.cores() {
            assert_eq!(t.sibling(c), c);
            assert!(t.is_primary_thread(c));
            assert_eq!(t.phys_index(c), c.index() % 32);
        }
    }

    #[test]
    fn socket_spans_partition_machine() {
        let t = topo_6130_4s();
        let mut seen = CpuSet::new(t.n_cores());
        for s in t.sockets() {
            let span = t.socket_span(s);
            assert_eq!(span.len(), 32);
            assert!(seen.is_disjoint(span));
            seen.union_with(span);
        }
        assert_eq!(seen.len(), t.n_cores());
    }

    #[test]
    fn degenerate_ccx_equals_socket() {
        let t = topo_6130_4s();
        assert!(!t.has_subsocket_domains());
        assert_eq!(t.n_ccx(), t.n_sockets());
        for c in t.cores() {
            assert_eq!(t.ccx_of(c).index(), t.socket_of(c).index());
        }
        for s in t.sockets() {
            assert_eq!(t.ccx_span(CcxId(s.0)), t.socket_span(s));
        }
    }

    #[test]
    fn ccx_of_is_socket_major_blocks() {
        let t = topo_synth();
        assert!(t.has_subsocket_domains());
        assert_eq!(t.n_ccx(), 8);
        assert_eq!(t.ccx_of(CoreId(0)), CcxId(0));
        assert_eq!(t.ccx_of(CoreId(7)), CcxId(0));
        assert_eq!(t.ccx_of(CoreId(8)), CcxId(1));
        assert_eq!(t.ccx_of(CoreId(31)), CcxId(3));
        assert_eq!(t.ccx_of(CoreId(32)), CcxId(4));
        assert_eq!(t.ccx_of(CoreId(63)), CcxId(7));
        for c in t.cores() {
            assert!(t.ccx_span(t.ccx_of(c)).contains(c));
        }
    }

    #[test]
    fn nearest_first_starts_home() {
        let t = topo_6130_4s();
        // One CCX per socket: the CCX order is the socket order.
        let order = t.ccxs_nearest_first(CoreId(40));
        assert_eq!(order[0], CcxId(1));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn ccxs_nearest_first_covers_all() {
        let t = topo_synth();
        let order = t.ccxs_nearest_first(CoreId(17));
        assert_eq!(order.len(), 8);
        assert_eq!(order[0], CcxId(2));
        // Rest of socket 0 before socket 1's CCXs.
        assert_eq!(&order[1..4], &[CcxId(0), CcxId(1), CcxId(3)]);
    }

    #[test]
    fn turbo_domains_follow_spec() {
        let intel = topo_6130_4s();
        assert_eq!(intel.n_turbo_domains(), 4);
        assert_eq!(intel.turbo_domain_phys(), 16);
        assert_eq!(intel.turbo_domain_of_phys(17), 1);
        assert_eq!(intel.turbo_domain_of(CoreId(48)), 1);
        let amd = topo_synth();
        assert_eq!(amd.n_turbo_domains(), 8);
        assert_eq!(amd.turbo_domain_phys(), 8);
        assert_eq!(amd.turbo_domain_of_phys(17), 2);
        assert_eq!(amd.socket_of_turbo_domain(5), SocketId(1));
    }

    #[test]
    fn turbo_limit_extends_last_entry() {
        let spec = presets::xeon_6130(2);
        assert_eq!(spec.freq.turbo_limit(1), Freq::from_ghz(3.7));
        assert_eq!(spec.freq.turbo_limit(4), Freq::from_ghz(3.5));
        assert_eq!(spec.freq.turbo_limit(8), Freq::from_ghz(3.4));
        assert_eq!(spec.freq.turbo_limit(12), Freq::from_ghz(3.1));
        assert_eq!(spec.freq.turbo_limit(16), Freq::from_ghz(2.8));
        assert_eq!(spec.freq.turbo_limit(100), Freq::from_ghz(2.8));
        assert_eq!(spec.freq.turbo_limit(0), Freq::from_ghz(3.7));
    }

    #[test]
    fn voltage_interpolates() {
        let spec = presets::xeon_6130(2);
        let p = &spec.power;
        let vmin = p.voltage(spec.freq.fmin, spec.freq.fmin, spec.freq.fmax());
        let vmax = p.voltage(spec.freq.fmax(), spec.freq.fmin, spec.freq.fmax());
        assert!((vmin - p.v_at_fmin).abs() < 1e-12);
        assert!((vmax - p.v_at_fmax).abs() < 1e-12);
        let mid = p.voltage(Freq::from_ghz(2.35), spec.freq.fmin, spec.freq.fmax());
        assert!(mid > vmin && mid < vmax);
    }
}
