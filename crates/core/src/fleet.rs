//! Multi-host fleet co-simulation.
//!
//! `run_fleet` (crate-internal, reached through the normal run entry
//! points) runs N independent host simulations — each a full
//! [`crate::sim::SimConfig`] engine cell with its own machine, policy,
//! governor, and derived seed — behind a discrete-event load balancer
//! that routes the workload's serve streams. The client side implements
//! the robustness stack of the `fleet:` scenario grammar: per-request
//! timeouts, bounded retries with capped-exponential deterministic
//! backoff that re-route to a different host, optional hedged requests
//! (duplicate after a p95-estimate delay, first answer wins), SLO-aware
//! brownout shedding, and host crash/restart with cold nests.
//!
//! # Time model
//!
//! The balancer owns a fleet-wide clock in nanoseconds. Each host engine
//! keeps its own local clock starting at zero per *epoch* (boot or
//! restart); `fleet_ns = epoch_ns + local_ns`. This is a conservative
//! co-simulation: before the balancer processes an event at `t`, every
//! alive host is advanced to its local image of `t` and its request
//! completions are harvested and applied in `(fleet_ns, host)` order.
//! Cross-host interactions only happen through balancer events, which are
//! totally ordered by `(time, sequence)`, so the whole fleet is
//! byte-deterministic at any worker count.
//!
//! # What the merged [`RunResult`] means
//!
//! Scalar and mergeable metrics (energy, placements, wakeup latencies,
//! frequency residency, decision/invariant/serve/phase tallies, task
//! counts) are summed or merged across every host epoch. Machine-lens
//! blocks that are inherently per-host — underload intervals, the
//! time-series, the optional execution trace — report **host 0's first
//! epoch** only. The fleet-wide client view lives in
//! [`RunResult::fleet`].

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::rc::Rc;

use nest_engine::Engine;
use nest_faults::ThrottleFault;
use nest_fleet::{choose_host, BackoffSampler, FleetSpec, HedgeMode, HostView};
use nest_metrics::{FleetMetrics, FleetRunStats, FleetWindow, TailHistogram};
use nest_serve::{ServeSpec, REQUEST_LABEL_PREFIX};
use nest_simcore::rng::mix64;
use nest_simcore::{Probe, TaskId, TaskSpec, Time, TraceEvent};
use nest_workloads::Workload;

use crate::sim::{build_engine, collect_result, spawn_tasks, ProbeRig, RunResult, SimConfig};

/// Salt separating per-host seed streams from every other consumer of the
/// cell seed.
const FLEET_HOST_SALT: u64 = 0xF1EE_7405_7EED_0001;

/// Goodput-timeline bucket width.
const TIMELINE_WINDOW_NS: u64 = 50_000_000;

/// Sliding window of recent attempt latencies per host, feeding the
/// brownout estimator.
const BROWNOUT_RING: usize = 64;

/// Minimum ring samples before the brownout estimator speaks.
const BROWNOUT_MIN_SAMPLES: usize = 16;

/// Completed-request samples required before the hedge delay trusts the
/// p95 estimate instead of the timeout/2 prior.
const HEDGE_MIN_SAMPLES: u64 = 20;

// ---- host-side observation -------------------------------------------

/// What the balancer taps out of one host engine: request completions
/// (label + local time) and the current primary-nest size (the warmth
/// signal the `lb=warmth` policy and time-to-warm metric read).
#[derive(Default)]
struct TapState {
    live_reqs: HashMap<TaskId, String>,
    completions: Vec<(u64, String)>,
    nest_primary: u32,
}

impl Probe for TapState {
    fn on_event(&mut self, now: Time, event: &TraceEvent) {
        match event {
            TraceEvent::TaskCreated { task, label, .. }
                if label.starts_with(REQUEST_LABEL_PREFIX) =>
            {
                self.live_reqs.insert(*task, label.clone());
            }
            TraceEvent::TaskExited { task } => {
                if let Some(label) = self.live_reqs.remove(task) {
                    self.completions.push((now.as_nanos(), label));
                }
            }
            TraceEvent::NestExpand { primary, .. }
            | TraceEvent::NestShrink { primary, .. }
            | TraceEvent::NestCompaction { primary, .. } => self.nest_primary = *primary,
            _ => {}
        }
    }
}

// ---- balancer state ---------------------------------------------------

struct Host {
    engine: Option<Engine>,
    rig: Option<ProbeRig>,
    tap: Rc<RefCell<TapState>>,
    epoch_ns: u64,
    epoch: u64,
    alive: bool,
    outstanding: u32,
    ring: VecDeque<u64>,
    brownout: bool,
    pre_crash_nest: u32,
    restart_ns: Option<u64>,
    harvested: usize,
}

struct Attempt {
    host: usize,
    sent_ns: u64,
    hedge: bool,
    /// The client gave up on this attempt (timeout).
    resolved: bool,
    /// The server finished the work (possibly after the client gave up).
    completed: bool,
}

struct ReqState {
    label: String,
    plan: usize,
    idx: usize,
    arrival_ns: u64,
    attempts: Vec<Attempt>,
    retries_used: u32,
    hedged: bool,
    done: bool,
    failed: bool,
    shed: bool,
}

impl ReqState {
    fn settled(&self) -> bool {
        self.done || self.failed || self.shed
    }
}

enum EvKind {
    Arrival(usize),
    Timeout { req: usize, attempt: usize },
    Retry(usize),
    Hedge(usize),
    Crash,
    Restart,
}

struct Driver<'a> {
    cfg: &'a SimConfig,
    workload: &'a dyn Workload,
    spec: &'a FleetSpec,
    serve_specs: Vec<ServeSpec>,
    slo_ns: u64,
    hosts: Vec<Host>,
    reqs: Vec<ReqState>,
    req_by_label: HashMap<String, usize>,
    /// Materialized request tasks, consumed on first dispatch; retries
    /// and hedges re-materialize from the pure arrival plan.
    pending_tasks: Vec<Vec<Option<TaskSpec>>>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: Vec<EvKind>,
    rr_cursor: usize,
    backoff: BackoffSampler,
    metrics: FleetMetrics,
    timeline: Vec<FleetWindow>,
    /// `(host, epoch, epoch_ns, result)` for every host epoch, in
    /// collection order; sorted by `(host, epoch)` before merging.
    results: Vec<(usize, u64, u64, RunResult)>,
    last_event_ns: u64,
}

impl<'a> Driver<'a> {
    fn push_event(&mut self, t_ns: u64, kind: EvKind) {
        let seq = self.events.len() as u64;
        self.events.push(kind);
        self.heap.push(Reverse((t_ns, seq)));
    }

    fn host_seed(&self, h: usize, epoch: u64) -> u64 {
        mix64(mix64(self.cfg.seed ^ FLEET_HOST_SALT, h as u64), epoch)
    }

    /// Boots host `h` for `epoch` with local clock zero at fleet time
    /// `epoch_ns`. `extra_probes` only ever arrive for host 0's first
    /// epoch (caller probes observe one cell, like single-host runs).
    fn boot_host(&self, h: usize, epoch: u64, extra_probes: Vec<Box<dyn Probe>>) -> Host {
        let mut hcfg = self.cfg.clone().seed(self.host_seed(h, epoch));
        // Degraded modes ride the existing throttle-fault machinery: a
        // `degrade=hK:F@T[:D]` clause throttles every socket of host K at
        // host-local time T (re-applied per epoch after a restart).
        for d in self.spec.degrade.iter().filter(|d| d.host as usize == h) {
            for socket in 0..hcfg.machine.sockets {
                hcfg.faults.throttle.push(ThrottleFault {
                    socket,
                    factor: d.factor,
                    at_ns: d.at_ns,
                    dur_ns: d.dur_ns,
                });
            }
        }
        let slos = self.serve_specs.iter().map(|s| s.slo_ns).collect();
        let tap = Rc::new(RefCell::new(TapState::default()));
        let mut probes: Vec<Box<dyn Probe>> = vec![Box::new(Rc::clone(&tap))];
        probes.extend(extra_probes);
        let (mut engine, rig) = build_engine(&hcfg, slos, probes);
        engine.set_keepalive(true);
        spawn_tasks(&mut engine, hcfg.seed, self.workload);
        Host {
            engine: Some(engine),
            rig: Some(rig),
            tap,
            epoch_ns: 0,
            epoch,
            alive: true,
            outstanding: 0,
            ring: VecDeque::new(),
            brownout: false,
            pre_crash_nest: 0,
            restart_ns: None,
            harvested: 0,
        }
    }

    fn host_views(&self) -> Vec<HostView> {
        self.hosts
            .iter()
            .map(|h| HostView {
                alive: h.alive,
                outstanding: h.outstanding,
                nest_primary: h.tap.borrow().nest_primary,
                brownout: h.brownout,
            })
            .collect()
    }

    fn bump_timeline(&mut self, t_ns: u64, ok: bool) {
        let w = (t_ns / TIMELINE_WINDOW_NS) as usize;
        if self.timeline.len() <= w {
            self.timeline.resize(w + 1, FleetWindow::default());
        }
        if ok {
            self.timeline[w].ok += 1;
        } else {
            self.timeline[w].arrived += 1;
        }
    }

    /// Advances every alive host to fleet time `t_ns`, then applies all
    /// harvested request completions in `(fleet_ns, host)` order and
    /// polls warm-recovery progress.
    fn advance_to(&mut self, t_ns: u64) {
        for h in 0..self.hosts.len() {
            if self.hosts[h].alive {
                let local = t_ns.saturating_sub(self.hosts[h].epoch_ns);
                self.run_host_to(h, local);
            }
        }
        self.apply_completions();
        self.poll_warmth(t_ns);
    }

    /// Runs alive host `h` to host-local time `local_ns`.
    fn run_host_to(&mut self, h: usize, local_ns: u64) {
        let engine = self.hosts[h]
            .engine
            .as_mut()
            .expect("alive host has engine");
        if let Some(outcome) = engine.run_to(Time::from_nanos(local_ns)) {
            // Horizon or watchdog ended this host early; it stops
            // taking traffic but its metrics survive.
            let host = &mut self.hosts[h];
            host.alive = false;
            host.engine = None;
            host.outstanding = 0;
            let rig = host.rig.take().expect("rig present until collected");
            let r = collect_result(&outcome, rig);
            self.results
                .push((h, self.hosts[h].epoch, self.hosts[h].epoch_ns, r));
        }
    }

    fn apply_completions(&mut self) {
        let mut batch: Vec<(u64, usize, String)> = Vec::new();
        for (h, host) in self.hosts.iter_mut().enumerate() {
            let tap = host.tap.borrow();
            for (local_ns, label) in &tap.completions[host.harvested..] {
                batch.push((host.epoch_ns + local_ns, h, label.clone()));
            }
            host.harvested = tap.completions.len();
        }
        batch.sort();
        for (fleet_ns, h, label) in batch {
            self.complete(fleet_ns, h, &label);
        }
    }

    fn complete(&mut self, fleet_ns: u64, h: usize, label: &str) {
        let req_idx = *self
            .req_by_label
            .get(label)
            .expect("completion for unknown request");
        self.hosts[h].outstanding = self.hosts[h].outstanding.saturating_sub(1);
        let (attempt_lat, was_live, was_hedge, client_lat) = {
            let req = &mut self.reqs[req_idx];
            let a = req
                .attempts
                .iter_mut()
                .find(|a| a.host == h && !a.completed)
                .expect("completion without a matching attempt");
            a.completed = true;
            let lat = fleet_ns.saturating_sub(a.sent_ns);
            let live = !a.resolved && !req.done && !req.failed && !req.shed;
            (lat, live, a.hedge, fleet_ns.saturating_sub(req.arrival_ns))
        };
        // Server-side health signal: every completion feeds the host's
        // brownout ring and per-host histogram, wasted or not.
        let host = &mut self.hosts[h];
        if host.ring.len() == BROWNOUT_RING {
            host.ring.pop_front();
        }
        host.ring.push_back(attempt_lat);
        host.brownout = ring_p99(&host.ring).is_some_and(|p99| p99 > self.slo_ns);
        self.metrics.host_hist[h].record(attempt_lat);
        if was_live {
            self.reqs[req_idx].done = true;
            self.metrics.completed += 1;
            self.metrics.hist.record(client_lat);
            self.bump_timeline(fleet_ns, true);
            if was_hedge {
                self.metrics.hedge_wins += 1;
            }
        } else {
            self.metrics.late_completions += 1;
        }
    }

    fn poll_warmth(&mut self, t_ns: u64) {
        for host in &mut self.hosts {
            if let Some(restart_ns) = host.restart_ns {
                if host.alive
                    && host.pre_crash_nest > 0
                    && host.tap.borrow().nest_primary >= host.pre_crash_nest
                {
                    self.metrics.warm_recoveries += 1;
                    self.metrics.time_to_warm_ns_total += t_ns.saturating_sub(restart_ns);
                    host.restart_ns = None;
                }
            }
        }
    }

    /// Re-creates the request's task. The first dispatch consumes the
    /// up-front materialization; retries and hedges replay the pure
    /// per-plan arrival function (request behaviours depend on the RNG
    /// state after requests `0..i`, so a single request can only be
    /// rebuilt by replaying its plan).
    fn request_task(&mut self, plan: usize, idx: usize) -> TaskSpec {
        if let Some(t) = self.pending_tasks[plan][idx].take() {
            return t;
        }
        nest_serve::materialize(&self.serve_specs[plan], plan, self.cfg.seed)
            .into_iter()
            .nth(idx)
            .expect("request index within plan")
            .1
    }

    /// Dispatches one attempt of `req_idx` at fleet time `t_ns`,
    /// preferring hosts outside `exclude`. Returns the chosen host.
    fn dispatch(
        &mut self,
        req_idx: usize,
        t_ns: u64,
        exclude: &[usize],
        hedge: bool,
    ) -> Option<usize> {
        let views = self.host_views();
        let mut eligible: Vec<usize> = (0..views.len())
            .filter(|&i| views[i].alive && !exclude.contains(&i))
            .collect();
        if eligible.is_empty() {
            eligible = (0..views.len()).filter(|&i| views[i].alive).collect();
        }
        let h = choose_host(self.spec.lb, &views, &eligible, &mut self.rr_cursor)?;
        let (plan, idx) = (self.reqs[req_idx].plan, self.reqs[req_idx].idx);
        let task = self.request_task(plan, idx);
        {
            let host = &mut self.hosts[h];
            let local = t_ns.saturating_sub(host.epoch_ns);
            host.engine
                .as_mut()
                .expect("alive host has engine")
                .inject_live(Time::from_nanos(local), task);
            host.outstanding += 1;
        }
        let attempt = self.reqs[req_idx].attempts.len();
        self.reqs[req_idx].attempts.push(Attempt {
            host: h,
            sent_ns: t_ns,
            hedge,
            resolved: false,
            completed: false,
        });
        self.push_event(
            t_ns + self.spec.timeout_ns,
            EvKind::Timeout {
                req: req_idx,
                attempt,
            },
        );
        Some(h)
    }

    /// The hedge trigger delay at fleet time of dispatch: the p95 of the
    /// completed-latency histogram once it has enough mass, else half the
    /// timeout as a prior; or a fixed duration.
    fn hedge_delay(&self) -> Option<u64> {
        match self.spec.hedge {
            HedgeMode::Off => None,
            HedgeMode::After(d) => Some(d),
            HedgeMode::P95 => {
                if self.metrics.hist.len() >= HEDGE_MIN_SAMPLES {
                    Some(
                        self.metrics
                            .hist
                            .quantile(0.95)
                            .unwrap_or(self.spec.timeout_ns / 2),
                    )
                } else {
                    Some(self.spec.timeout_ns / 2)
                }
            }
        }
    }

    fn on_arrival(&mut self, req_idx: usize, t_ns: u64) {
        self.metrics.offered += 1;
        self.bump_timeline(t_ns, false);
        let views = self.host_views();
        let any_alive = views.iter().any(|v| v.alive);
        if !any_alive {
            self.reqs[req_idx].failed = true;
            self.metrics.failed += 1;
            return;
        }
        if self.spec.shed && views.iter().filter(|v| v.alive).all(|v| v.brownout) {
            self.reqs[req_idx].shed = true;
            self.metrics.shed += 1;
            return;
        }
        self.dispatch(req_idx, t_ns, &[], false);
        if let Some(delay) = self.hedge_delay() {
            self.push_event(t_ns + delay, EvKind::Hedge(req_idx));
        }
    }

    fn on_timeout(&mut self, req_idx: usize, attempt: usize, t_ns: u64) {
        {
            let req = &mut self.reqs[req_idx];
            if req.settled() || req.attempts[attempt].completed || req.attempts[attempt].resolved {
                return;
            }
            req.attempts[attempt].resolved = true;
        }
        self.metrics.timeouts += 1;
        let req = &self.reqs[req_idx];
        // Another attempt is still live (hedge pair): let it race on.
        if req.attempts.iter().any(|a| !a.resolved && !a.completed) {
            return;
        }
        if req.retries_used < self.spec.retry {
            let retries_used = req.retries_used + 1;
            let delay = self.backoff.delay_ns(&req.label, retries_used);
            self.reqs[req_idx].retries_used = retries_used;
            self.push_event(t_ns + delay, EvKind::Retry(req_idx));
        } else {
            self.reqs[req_idx].failed = true;
            self.metrics.failed += 1;
        }
    }

    fn on_retry(&mut self, req_idx: usize, t_ns: u64) {
        if self.reqs[req_idx].settled() {
            return;
        }
        let tried: Vec<usize> = self.reqs[req_idx].attempts.iter().map(|a| a.host).collect();
        match self.dispatch(req_idx, t_ns, &tried, false) {
            Some(_) => self.metrics.retries += 1,
            None => {
                self.reqs[req_idx].failed = true;
                self.metrics.failed += 1;
            }
        }
    }

    fn on_hedge(&mut self, req_idx: usize, t_ns: u64) {
        {
            let req = &self.reqs[req_idx];
            if req.settled()
                || req.hedged
                || req.attempts.len() != 1
                || req.attempts[0].resolved
                || req.attempts[0].completed
            {
                return;
            }
        }
        let first_host = self.reqs[req_idx].attempts[0].host;
        if self.dispatch(req_idx, t_ns, &[first_host], true).is_some() {
            self.reqs[req_idx].hedged = true;
            self.metrics.hedges += 1;
        }
    }

    fn on_crash(&mut self, t_ns: u64) {
        let down = self
            .spec
            .down
            .as_ref()
            .expect("crash event implies hostdown");
        // The first `count` hosts crash: index tie-breaking makes the
        // low-indexed hosts the busiest (and warmest), so this is the
        // worst-case failover rather than the loss of an idle spare.
        let count = (down.count as usize).min(self.hosts.len());
        for h in 0..count {
            if !self.hosts[h].alive {
                continue;
            }
            self.metrics.crashes += 1;
            let host = &mut self.hosts[h];
            self.metrics.in_flight_lost += host.outstanding as u64;
            host.pre_crash_nest = host.tap.borrow().nest_primary;
            host.alive = false;
            host.outstanding = 0;
            host.ring.clear();
            host.brownout = false;
            let mut engine = host.engine.take().expect("alive host has engine");
            let rig = host.rig.take().expect("rig present until collected");
            // In-flight attempts are simply lost: their client timeouts
            // fire later and drive retries to the survivors.
            let outcome = engine.abandon();
            let r = collect_result(&outcome, rig);
            let (epoch, epoch_ns) = (self.hosts[h].epoch, self.hosts[h].epoch_ns);
            self.results.push((h, epoch, epoch_ns, r));
        }
        let _ = t_ns;
    }

    fn on_restart(&mut self, t_ns: u64) {
        let down = self
            .spec
            .down
            .as_ref()
            .expect("restart event implies hostdown");
        let count = (down.count as usize).min(self.hosts.len());
        for h in 0..count {
            if self.hosts[h].alive {
                continue;
            }
            let epoch = self.hosts[h].epoch + 1;
            let pre_crash_nest = self.hosts[h].pre_crash_nest;
            let mut fresh = self.boot_host(h, epoch, Vec::new());
            fresh.epoch_ns = t_ns;
            fresh.pre_crash_nest = pre_crash_nest;
            fresh.restart_ns = Some(t_ns);
            self.hosts[h] = fresh;
            self.metrics.restarts += 1;
            // The new epoch boots now, so winding it down in `finish` is
            // valid even when no later event advances it.
            self.run_host_to(h, 0);
        }
    }

    /// Winds down every surviving host (background work runs to its
    /// natural end), harvests the stragglers, and merges everything into
    /// one [`RunResult`].
    fn finish(mut self) -> RunResult {
        for h in 0..self.hosts.len() {
            if !self.hosts[h].alive {
                continue;
            }
            let host = &mut self.hosts[h];
            let mut engine = host.engine.take().expect("alive host has engine");
            engine.set_keepalive(false);
            let outcome = engine.resume();
            let rig = host.rig.take().expect("rig present until collected");
            let r = collect_result(&outcome, rig);
            let (epoch, epoch_ns) = (host.epoch, host.epoch_ns);
            self.results.push((h, epoch, epoch_ns, r));
        }
        self.apply_completions();

        debug_assert_eq!(
            self.metrics.completed + self.metrics.failed + self.metrics.shed,
            self.metrics.offered,
            "every offered request must settle exactly once"
        );

        self.results.sort_by_key(|(h, e, _, _)| (*h, *e));
        let fleet_end_ns = self
            .results
            .iter()
            .map(|(_, _, epoch_ns, r)| epoch_ns + (r.time_s * 1e9).round() as u64)
            .chain(std::iter::once(self.last_event_ns))
            .max()
            .unwrap_or(0);

        let mut it = self.results.into_iter();
        let (_, _, _, mut base) = it.next().expect("at least one host epoch");
        for (_, _, _, r) in it {
            base.energy_j += r.energy_j;
            for (path, n) in &r.placements.by_path {
                *base.placements.by_path.entry(*path).or_insert(0) += n;
            }
            for (mine, theirs) in base
                .placements
                .by_core
                .iter_mut()
                .zip(&r.placements.by_core)
            {
                *mine += theirs;
            }
            base.latency.samples.extend_from_slice(&r.latency.samples);
            for (mine, theirs) in base.freq.busy_ns.iter_mut().zip(&r.freq.busy_ns) {
                *mine += theirs;
            }
            base.decision.merge(&r.decision);
            base.invariants.merge(&r.invariants);
            base.serve.merge(&r.serve);
            base.phases.merge(&r.phases);
            base.total_tasks += r.total_tasks;
            base.hit_horizon |= r.hit_horizon;
            base.aborted |= r.aborted;
        }
        base.latency.samples.sort_unstable();
        base.time_s = fleet_end_ns as f64 / 1e9;
        if base.serve.runs > 0 {
            // The per-host serve probes each report their own makespan;
            // fleet rates are over the fleet clock.
            base.serve.runs = 1;
            base.serve.sim_ns = fleet_end_ns;
        }
        if base.phases.runs > 0 {
            base.phases.runs = 1;
        }

        self.metrics.runs = 1;
        self.metrics.hosts = self.spec.hosts;
        self.metrics.sim_ns = fleet_end_ns;
        base.fleet = Some(FleetRunStats {
            metrics: self.metrics,
            timeline_window_ns: TIMELINE_WINDOW_NS,
            timeline: self.timeline,
        });
        base
    }
}

/// The p99 estimate over a brownout ring: the `ceil(0.99·n)`-th smallest
/// sample, `None` below the minimum sample count.
fn ring_p99(ring: &VecDeque<u64>) -> Option<u64> {
    if ring.len() < BROWNOUT_MIN_SAMPLES {
        return None;
    }
    let mut sorted: Vec<u64> = ring.iter().copied().collect();
    sorted.sort_unstable();
    let rank = (sorted.len() as f64 * 0.99).ceil() as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Runs `workload` once as a fleet of `spec.hosts` independent host
/// simulations behind the load balancer. Caller probes attach to host
/// 0's first epoch only (they observe one cell, exactly like a
/// single-host run).
pub(crate) fn run_fleet(
    cfg: &SimConfig,
    workload: &dyn Workload,
    spec: &FleetSpec,
    extra_probes: Vec<Box<dyn Probe>>,
) -> RunResult {
    spec.validate().expect("fleet spec validated at parse time");
    let serve_specs = workload.serve_specs();
    assert!(
        !serve_specs.is_empty(),
        "a fleet run needs serve streams to route"
    );
    let slo_ns = serve_specs[0].slo_ns;

    let mut driver = Driver {
        cfg,
        workload,
        spec,
        serve_specs: serve_specs.clone(),
        slo_ns,
        hosts: Vec::new(),
        reqs: Vec::new(),
        req_by_label: HashMap::new(),
        pending_tasks: Vec::new(),
        heap: BinaryHeap::new(),
        events: Vec::new(),
        rr_cursor: 0,
        backoff: BackoffSampler::new(spec.backoff_ns, spec.cap_ns, cfg.seed),
        metrics: FleetMetrics {
            host_hist: vec![TailHistogram::default(); spec.hosts as usize],
            ..FleetMetrics::default()
        },
        timeline: Vec::new(),
        results: Vec::new(),
        last_event_ns: 0,
    };

    let mut extra = Some(extra_probes);
    for h in 0..spec.hosts as usize {
        let host = driver.boot_host(h, 0, extra.take().unwrap_or_default());
        driver.hosts.push(host);
    }

    // Materialize every serve stream once, fleet-wide: arrivals are a
    // pure function of (spec, plan, seed), independent of routing.
    for (plan, sspec) in serve_specs.iter().enumerate() {
        let mut tasks = Vec::new();
        for (idx, (at_ns, task)) in nest_serve::materialize(sspec, plan, cfg.seed)
            .into_iter()
            .enumerate()
        {
            let req_idx = driver.reqs.len();
            driver.req_by_label.insert(task.label.clone(), req_idx);
            driver.reqs.push(ReqState {
                label: task.label.clone(),
                plan,
                idx,
                arrival_ns: at_ns,
                attempts: Vec::new(),
                retries_used: 0,
                hedged: false,
                done: false,
                failed: false,
                shed: false,
            });
            tasks.push(Some(task));
            driver.push_event(at_ns, EvKind::Arrival(req_idx));
        }
        driver.pending_tasks.push(tasks);
    }

    if let Some(down) = &spec.down {
        driver.push_event(down.at_ns, EvKind::Crash);
        if let Some(dur) = down.dur_ns {
            driver.push_event(down.at_ns + dur, EvKind::Restart);
        }
    }

    while let Some(Reverse((t_ns, seq))) = driver.heap.pop() {
        driver.advance_to(t_ns);
        driver.last_event_ns = t_ns;
        match driver.events[seq as usize] {
            EvKind::Arrival(r) => driver.on_arrival(r, t_ns),
            EvKind::Timeout { req, attempt } => driver.on_timeout(req, attempt, t_ns),
            EvKind::Retry(r) => driver.on_retry(r, t_ns),
            EvKind::Hedge(r) => driver.on_hedge(r, t_ns),
            EvKind::Crash => driver.on_crash(t_ns),
            EvKind::Restart => driver.on_restart(t_ns),
        }
    }
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_once, PolicyKind};
    use nest_topology::presets;
    use nest_workloads::{FleetLoad, ServeLoad};

    fn serve_spec(requests: u32, rate: f64) -> ServeSpec {
        ServeSpec {
            rate,
            requests,
            service_ms: 0.5,
            ..ServeSpec::default()
        }
    }

    fn fleet_cfg() -> SimConfig {
        SimConfig::new(presets::xeon_5218()).policy(PolicyKind::Nest)
    }

    fn fleet_wl(fleet: FleetSpec, requests: u32, rate: f64) -> FleetLoad {
        FleetLoad::new(fleet, Box::new(ServeLoad::new(serve_spec(requests, rate))))
    }

    fn hosts(hosts: u32) -> FleetSpec {
        FleetSpec {
            hosts,
            ..FleetSpec::default()
        }
    }

    /// Hosts `0..count` crash at `at_ms` and restart after `dur_ms`.
    fn crash(count: u32, at_ms: u64, dur_ms: u64) -> Option<nest_fleet::HostDown> {
        Some(nest_fleet::HostDown {
            count,
            at_ns: at_ms * 1_000_000,
            dur_ns: Some(dur_ms * 1_000_000),
        })
    }

    #[test]
    fn fleet_run_completes_all_requests() {
        let wl = fleet_wl(
            FleetSpec {
                lb: nest_fleet::LbPolicy::Warmth,
                ..hosts(3)
            },
            240,
            2_000.0,
        );
        let r = run_once(&fleet_cfg(), &wl);
        let fleet = r.fleet.as_ref().expect("fleet stats present");
        let m = &fleet.metrics;
        assert_eq!(m.offered, 240);
        assert_eq!(m.completed + m.failed + m.shed, 240);
        assert_eq!(m.crashes, 0);
        assert!(m.completed > 200, "healthy fleet answers: {m:?}");
        assert_eq!(m.hosts, 3);
        assert!(m.hist.len() == m.completed);
        assert!(r.time_s > 0.0);
        assert!(r.energy_j > 0.0);
        assert_eq!(r.serve.runs, 1);
        let s = r.summarize();
        assert!(s.fleet.is_some(), "summary carries the fleet block");
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let mk = || {
            fleet_wl(
                FleetSpec {
                    retry: 2,
                    hedge: HedgeMode::P95,
                    ..hosts(2)
                },
                150,
                1_500.0,
            )
        };
        let a = run_once(&fleet_cfg(), &mk());
        let b = run_once(&fleet_cfg(), &mk());
        let (fa, fb) = (a.fleet.unwrap(), b.fleet.unwrap());
        assert_eq!(fa, fb);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.serve, b.serve);
    }

    #[test]
    fn host_crash_times_out_retries_and_recovers() {
        // Kill the busier of 2 hosts mid-stream with retries enabled: the
        // in-flight work on the dead host times out, retries land on the
        // survivor, and the restart comes back cold and re-warms.
        let wl = fleet_wl(
            FleetSpec {
                retry: 2,
                timeout_ns: 20_000_000,
                down: crash(1, 40, 60),
                ..hosts(2)
            },
            300,
            3_000.0,
        );
        let r = run_once(&fleet_cfg(), &wl);
        let m = r.fleet.as_ref().unwrap().metrics.clone();
        assert_eq!(m.crashes, 1);
        assert_eq!(m.restarts, 1);
        assert_eq!(m.offered, 300);
        assert_eq!(m.completed + m.failed + m.shed, 300);
        assert!(m.timeouts > 0, "lost in-flight work must time out: {m:?}");
        assert!(m.retries > 0, "timeouts must drive retries: {m:?}");
        assert!(
            m.completed >= 280,
            "retries keep goodput through the failover: {m:?}"
        );
        assert!(
            m.warm_recoveries <= m.restarts,
            "warm recoveries bound by restarts"
        );
    }

    #[test]
    fn restart_after_the_stream_drains_winds_down_cleanly() {
        // The host comes back at 300 ms, long after the 100 requests (at
        // 2000/s) have settled: no later event advances the new epoch.
        let spec = FleetSpec {
            down: crash(1, 200, 100),
            ..hosts(2)
        };
        let serve = ServeSpec {
            rate: 2_000.0,
            requests: 100,
            ..ServeSpec::default()
        };
        let wl = FleetLoad::new(spec, Box::new(ServeLoad::new(serve)));
        let r = run_once(&fleet_cfg(), &wl);
        let m = &r.fleet.as_ref().unwrap().metrics;
        assert_eq!(m.completed + m.failed + m.shed, m.offered);
        assert_eq!(m.offered, 100);
        assert_eq!(m.restarts, 1);
    }

    #[test]
    fn hedging_duplicates_slow_requests() {
        let wl = fleet_wl(
            FleetSpec {
                hedge: HedgeMode::After(1_000_000),
                retry: 0,
                timeout_ns: 40_000_000,
                ..hosts(2)
            },
            200,
            2_000.0,
        );
        let r = run_once(&fleet_cfg(), &wl);
        let m = &r.fleet.as_ref().unwrap().metrics;
        assert!(m.hedges > 0, "a 1ms hedge trigger must fire: {m:?}");
        assert!(m.hedge_wins <= m.hedges);
        assert_eq!(m.completed + m.failed + m.shed, m.offered);
    }

    #[test]
    fn single_host_fleet_matches_request_count() {
        let wl = fleet_wl(hosts(1), 100, 1_000.0);
        let r = run_once(&fleet_cfg(), &wl);
        let m = &r.fleet.as_ref().unwrap().metrics;
        assert_eq!(m.offered, 100);
        assert!(m.completed >= 95, "{m:?}");
        assert_eq!(m.host_hist.len(), 1);
        assert_eq!(m.host_hist[0].len(), m.completed + m.late_completions);
    }
}
