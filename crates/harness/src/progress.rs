//! Progress and timing reporting for matrix runs.
//!
//! Lines go to stderr so the figure's stdout (tables, series) stays clean
//! for redirection. On a terminal the cell counter rewrites one line; when
//! piped it prints coarse milestones instead. `NEST_PROGRESS=0` silences
//! everything.

use std::io::{IsTerminal, Write};
use std::sync::Mutex;

use crate::runner::Telemetry;

/// Reporter shared by the worker pool (all methods take `&self`).
#[derive(Debug)]
pub struct Progress {
    label: String,
    enabled: bool,
    tty: bool,
    last_milestone: Mutex<usize>,
}

impl Progress {
    /// A reporter honoring `NEST_PROGRESS` (unset or `1` = on).
    pub fn from_env(label: &str) -> Progress {
        let enabled = std::env::var("NEST_PROGRESS").map_or(true, |v| v != "0");
        Progress {
            label: label.to_string(),
            enabled,
            tty: std::io::stderr().is_terminal(),
            last_milestone: Mutex::new(0),
        }
    }

    /// A silent reporter (tests).
    pub fn quiet() -> Progress {
        Progress {
            label: String::new(),
            enabled: false,
            tty: false,
            last_milestone: Mutex::new(0),
        }
    }

    /// Records that `done` of `total` cells have completed.
    pub fn cell_done(&self, done: usize, total: usize) {
        if !self.enabled || total == 0 {
            return;
        }
        let mut err = std::io::stderr().lock();
        if self.tty {
            let _ = write!(err, "\r[{}] {done}/{total} cells", self.label);
            if done == total {
                let _ = writeln!(err);
            }
            let _ = err.flush();
        } else {
            // Piped: report at most ten milestones to keep logs short.
            let milestone = done * 10 / total;
            let mut last = self.last_milestone.lock().unwrap();
            if milestone > *last || done == total {
                *last = milestone;
                let _ = writeln!(err, "[{}] {done}/{total} cells", self.label);
            }
        }
    }

    /// Prints the end-of-run summary line.
    pub fn finished(&self, t: &Telemetry) {
        if !self.enabled {
            return;
        }
        eprintln!(
            "[{}] {} cells in {:.2}s ({} jobs, {} cached, {:.0}k events/s)",
            self.label,
            t.cells_total,
            t.wall_s,
            t.jobs,
            t.cells_cached,
            t.events_per_sec / 1e3
        );
        for f in &t.failures {
            eprintln!("[{}] FAILED {}: {}", self.label, f.cell, f.message);
        }
        if t.cells_aborted > 0 {
            eprintln!(
                "[{}] {} cell(s) aborted by a watchdog (partial results)",
                self.label, t.cells_aborted
            );
        }
        if t.invariants.violations > 0 {
            eprintln!(
                "[{}] WARNING: {} invariant violation(s) — see telemetry",
                self.label, t.invariants.violations
            );
        }
    }
}
