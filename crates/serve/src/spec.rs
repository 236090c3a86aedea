//! The serving-workload knob set.
//!
//! [`ServeSpec`] is plain data: every field maps one-to-one onto a
//! `key=value` knob of the scenario registry's `serve:` grammar
//! (e.g. `serve:rate=500,dist=lognorm,slo=2ms`). Parsing and canonical
//! rendering live in `nest-scenario` next to the other workload grammars,
//! with `slo=2ms` in the shared [`nest_simcore::time::parse_duration`]
//! form.

use nest_simcore::time::MILLISEC;

use crate::arrival::ArrivalKind;
use crate::dist::ServiceDist;

/// Default SLO: 2 ms wakeup→completion.
pub const DEFAULT_SLO_NS: u64 = 2 * MILLISEC;

/// Parameters of one open-loop serving stream.
///
/// The defaults describe a moderate-load latency-critical service: 200
/// requests/s of ~1 ms exponential work against a 2 ms SLO — enough to
/// keep a couple of cores warm without saturating a socket, which is the
/// operating point Nest targets.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSpec {
    /// Mean offered load, requests per second.
    pub rate: f64,
    /// Total requests to inject.
    pub requests: u32,
    /// Service-time distribution.
    pub dist: ServiceDist,
    /// Mean service time per request, ms of work at 3 GHz.
    pub service_ms: f64,
    /// Shape of the lognormal service distribution (`dist=lognorm`).
    pub sigma: f64,
    /// Heavy-mode service time, ms at 3 GHz (`dist=bimodal`).
    pub heavy_ms: f64,
    /// Probability of a heavy request (`dist=bimodal`).
    pub p_heavy: f64,
    /// Microservice fan-out: each request forks this many sub-tasks whose
    /// completions gate the response (`0` = a single-stage request).
    pub fanout: u32,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Burst intensity ratio of the on-off process: the ON-state rate is
    /// `burst` times the OFF-state rate (`arrival=onoff`).
    pub burst: f64,
    /// Mean ON-window length, ms (`arrival=onoff`).
    pub on_ms: f64,
    /// Mean OFF-window length, ms (`arrival=onoff`).
    pub off_ms: f64,
    /// Diurnal ramp period in seconds; `0` disables the ramp.
    pub ramp_s: f64,
    /// Relative amplitude of the ramp's rate modulation, in `[0, 1)`.
    pub amp: f64,
    /// Service-level objective on wakeup→completion latency, ns.
    pub slo_ns: u64,
}

impl Default for ServeSpec {
    fn default() -> ServeSpec {
        ServeSpec {
            rate: 200.0,
            requests: 2_000,
            dist: ServiceDist::Exp,
            service_ms: 1.0,
            sigma: 0.5,
            heavy_ms: 10.0,
            p_heavy: 0.05,
            fanout: 0,
            arrival: ArrivalKind::Poisson,
            burst: 8.0,
            on_ms: 50.0,
            off_ms: 200.0,
            ramp_s: 0.0,
            amp: 0.5,
            slo_ns: DEFAULT_SLO_NS,
        }
    }
}

impl ServeSpec {
    /// The workload name shown in figures (e.g. `"serve-r200"`).
    pub fn name(&self) -> String {
        format!("serve-r{}", self.rate)
    }

    /// Checks internal consistency; returns the offending description on
    /// failure. The scenario grammar validates per-knob ranges at parse
    /// time — this is the backstop for specs built in code.
    pub fn validate(&self) -> Result<(), String> {
        let pos = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be positive and finite, got {v}"))
            }
        };
        pos("rate", self.rate)?;
        if self.requests == 0 {
            return Err("requests must be positive".into());
        }
        pos("service", self.service_ms)?;
        pos("sigma", self.sigma)?;
        pos("heavy", self.heavy_ms)?;
        if !(0.0..=1.0).contains(&self.p_heavy) {
            return Err(format!("p_heavy must be in [0, 1], got {}", self.p_heavy));
        }
        if self.burst < 1.0 || !self.burst.is_finite() {
            return Err(format!("burst must be >= 1, got {}", self.burst));
        }
        pos("on", self.on_ms)?;
        pos("off", self.off_ms)?;
        if self.ramp_s < 0.0 || !self.ramp_s.is_finite() {
            return Err(format!("ramp must be >= 0, got {}", self.ramp_s));
        }
        if !(0.0..1.0).contains(&self.amp) {
            return Err(format!("amp must be in [0, 1), got {}", self.amp));
        }
        if self.slo_ns == 0 {
            return Err("slo must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert_eq!(ServeSpec::default().validate(), Ok(()));
        assert_eq!(ServeSpec::default().name(), "serve-r200");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        for f in [
            |s: &mut ServeSpec| s.rate = 0.0,
            |s: &mut ServeSpec| s.requests = 0,
            |s: &mut ServeSpec| s.service_ms = -1.0,
            |s: &mut ServeSpec| s.p_heavy = 1.5,
            |s: &mut ServeSpec| s.burst = 0.5,
            |s: &mut ServeSpec| s.amp = 1.0,
            |s: &mut ServeSpec| s.slo_ns = 0,
        ] {
            let mut s = ServeSpec::default();
            f(&mut s);
            assert!(s.validate().is_err());
        }
    }
}
