//! Content-addressed on-disk result cache.
//!
//! Every experiment cell — one `(machine × scheduler setup × workload ×
//! run index)` simulation — is identified by a 128-bit key hashed from a
//! canonical description of *everything* that determines its outcome: the
//! cache schema version, the crate version, the full machine spec, the
//! full scheduler setup (including ablation parameters), the workload key,
//! the run index, the derived seed, and the horizon. Re-running a figure
//! binary after an unrelated change skips completed cells; any change to a
//! cell's configuration changes its key and forces a fresh run. The key
//! does not cover the simulator's code (the crate version is the same
//! across edits), so after a change to simulated behaviour a warm cache
//! serves stale summaries until it is cleared with `NEST_CACHE=clear`.
//!
//! Entries are one JSON file per cell under `results/cache/` (override
//! with `NEST_CACHE_DIR`), written atomically (temp file + rename) so
//! concurrent workers and concurrent harness processes never observe torn
//! entries. Each entry carries a checksum of its canonical summary text;
//! a truncated, garbled, or bit-flipped entry fails validation and is
//! deleted and recomputed — corruption is a cache miss, never a panic.
//! `NEST_CACHE=off` bypasses the cache; `NEST_CACHE=clear` wipes it once
//! at startup and then proceeds with it enabled.

use std::path::{Path, PathBuf};

use nest_metrics::{FleetSummary, LatencySummary, RunSummary, ServeSummary};
use nest_simcore::rng::{mix64, splitmix64};

use crate::json::{obj, parse, Json};

/// Bump when the cached summary format or key derivation changes; old
/// entries then miss instead of deserializing wrongly.
/// Schema 2 added the per-entry content checksum.
pub const CACHE_SCHEMA: u32 = 2;

/// How the cache behaves, from `NEST_CACHE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Read and write entries (the default).
    On,
    /// Bypass entirely.
    Off,
    /// Wipe the cache directory once, then behave like `On`.
    Clear,
}

impl CacheMode {
    /// Parses `NEST_CACHE` (`on` / `off` / `clear`; unset means `On`).
    pub fn from_env() -> CacheMode {
        match std::env::var("NEST_CACHE").as_deref() {
            Ok("off") | Ok("0") => CacheMode::Off,
            Ok("clear") => CacheMode::Clear,
            _ => CacheMode::On,
        }
    }
}

/// Handle to the on-disk cache.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    enabled: bool,
}

impl Cache {
    /// Opens the cache as configured by `NEST_CACHE` / `NEST_CACHE_DIR`.
    pub fn from_env() -> Cache {
        let dir = std::env::var("NEST_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| Path::new("results").join("cache"));
        Cache::at(dir, CacheMode::from_env())
    }

    /// Opens (or clears) a cache at an explicit directory.
    pub fn at(dir: PathBuf, mode: CacheMode) -> Cache {
        match mode {
            CacheMode::Off => Cache {
                dir,
                enabled: false,
            },
            CacheMode::Clear => {
                // Best-effort wipe; a shared cache dir may race with
                // another process, which is fine — entries are re-created.
                let _ = std::fs::remove_dir_all(&dir);
                Cache { dir, enabled: true }
            }
            CacheMode::On => Cache { dir, enabled: true },
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> Cache {
        Cache {
            dir: PathBuf::new(),
            enabled: false,
        }
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Returns the cached summary for `key`, if present and valid.
    ///
    /// An entry that exists but fails validation — unparseable JSON
    /// (truncated writes, garbage), a stale schema, a missing or
    /// mismatched checksum — is deleted so the cell recomputes and
    /// rewrites it. Corruption therefore costs one miss, never a panic
    /// and never a wrong result.
    pub fn lookup(&self, key: &str) -> Option<RunSummary> {
        if !self.enabled {
            return None;
        }
        let path = self.entry_path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        match validate_entry(&text) {
            Some(summary) => Some(summary),
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores `summary` under `key`, atomically. Errors are swallowed —
    /// a failed store only costs a future cache miss.
    pub fn store(&self, key: &str, summary: &RunSummary) {
        if !self.enabled {
            return;
        }
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let summary_json = summary_to_json(summary);
        let root = obj(vec![
            ("schema", Json::u64(CACHE_SCHEMA as u64)),
            (
                "checksum",
                Json::str(&content_checksum(&summary_json.to_pretty())),
            ),
            ("summary", summary_json),
        ]);
        let final_path = self.entry_path(key);
        // Unique temp name per process+key: concurrent writers of the same
        // key produce identical content, so last-rename-wins is safe.
        let tmp = self.dir.join(format!("{key}.{}.tmp", std::process::id()));
        if std::fs::write(&tmp, root.to_pretty()).is_ok() {
            let _ = std::fs::rename(&tmp, &final_path);
        }
    }
}

/// Validates one cache-entry text: schema, checksum, and summary shape.
fn validate_entry(text: &str) -> Option<RunSummary> {
    let root = parse(text).ok()?;
    if root.get("schema")?.as_u64()? != CACHE_SCHEMA as u64 {
        return None;
    }
    let want = root.get("checksum")?.as_str()?;
    let summary = summary_from_json(root.get("summary")?)?;
    // The summary's JSON form is canonical (round-tripping re-serializes
    // to identical bytes), so checksumming the re-serialization detects
    // any in-place edit or bit flip of the stored values.
    if content_checksum(&summary_to_json(&summary).to_pretty()) != want {
        return None;
    }
    Some(summary)
}

/// Checksum of a canonical text blob, as 16 hex digits (the same
/// FNV/SplitMix construction as [`cell_key`], single pass).
pub fn content_checksum(text: &str) -> String {
    format!("{:016x}", hash_pass(text, 0xCBF2_9CE4_8422_2325))
}

/// Builds the canonical identity string of one cell. Every field that can
/// change the simulation's outcome must appear here.
#[allow(clippy::too_many_arguments)]
pub fn cell_identity(
    machine_debug: &str,
    setup_identity: &str,
    workload_key: &str,
    run_index: usize,
    seed: u64,
    horizon_ns: u64,
) -> String {
    format!(
        "schema={CACHE_SCHEMA};version={};machine={machine_debug};setup={setup_identity};\
         workload={workload_key};run={run_index};seed={seed};horizon={horizon_ns}",
        env!("CARGO_PKG_VERSION"),
    )
}

/// Builds the canonical identity string of one *scenario* cell. The
/// scenario's canonical [`cache_scope`](nest_scenario::Scenario::cache_scope)
/// — machine key, policy spec, governor, workload spec, base seed,
/// horizon — replaces the legacy field-by-field description, extending
/// caching to any ad-hoc scenario `nest-sim` can express. The full
/// machine debug string rides along so editing a preset still invalidates
/// entries even though the registry key is unchanged.
pub fn scenario_cell_identity(
    scope: &str,
    machine_debug: &str,
    run_index: usize,
    seed: u64,
) -> String {
    format!(
        "schema={CACHE_SCHEMA};version={};scenario={scope};machine={machine_debug};\
         run={run_index};seed={seed}",
        env!("CARGO_PKG_VERSION"),
    )
}

/// Hashes a cell identity to its 32-hex-digit content address.
///
/// Two independent FNV-1a/SplitMix passes give a 128-bit key; collisions
/// across a few thousand cells are vanishingly unlikely.
pub fn cell_key(identity: &str) -> String {
    let lo = hash_pass(identity, 0xCBF2_9CE4_8422_2325);
    let hi = hash_pass(identity, 0x6C62_272E_07BB_0142);
    format!("{hi:016x}{lo:016x}")
}

fn hash_pass(s: &str, basis: u64) -> u64 {
    let mut h = basis;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    splitmix64(mix64(h, s.len() as u64))
}

/// Serializes a summary to its JSON form (shared by the cache and the
/// figure artifacts).
pub fn summary_to_json(s: &RunSummary) -> Json {
    let mut fields = vec![
        ("time_s", Json::f64(s.time_s)),
        ("energy_j", Json::f64(s.energy_j)),
        ("underload_per_s", Json::f64(s.underload_per_s)),
        ("total_underload", Json::u64(s.total_underload)),
        (
            "freq_edges_ghz",
            Json::Arr(s.freq_edges_ghz.iter().map(|&e| Json::f64(e)).collect()),
        ),
        (
            "freq_busy_ns",
            Json::Arr(s.freq_busy_ns.iter().map(|&n| Json::u64(n)).collect()),
        ),
        (
            "placements",
            Json::Arr(
                s.placements
                    .iter()
                    .map(|(path, n)| Json::Arr(vec![Json::str(path), Json::u64(*n)]))
                    .collect(),
            ),
        ),
        ("distinct_cores", Json::usize(s.distinct_cores)),
        (
            "latency",
            obj(vec![
                ("p50_ns", Json::opt_u64(s.latency.p50_ns)),
                ("p99_ns", Json::opt_u64(s.latency.p99_ns)),
                ("p999_ns", Json::opt_u64(s.latency.p999_ns)),
                ("mean_ns", Json::opt_f64(s.latency.mean_ns)),
                ("samples", Json::usize(s.latency.samples)),
            ]),
        ),
        ("total_tasks", Json::usize(s.total_tasks)),
        ("hit_horizon", Json::Bool(s.hit_horizon)),
    ];
    // The serve block appears only for serving runs, so every
    // pre-existing entry and artifact serializes byte-for-byte as before.
    if let Some(serve) = &s.serve {
        fields.push((
            "serve",
            obj(vec![
                ("offered", Json::u64(serve.offered)),
                ("completed", Json::u64(serve.completed)),
                ("within_slo", Json::u64(serve.within_slo)),
                ("slo_ns", Json::u64(serve.slo_ns)),
                ("p50_ns", Json::opt_u64(serve.p50_ns)),
                ("p99_ns", Json::opt_u64(serve.p99_ns)),
                ("p999_ns", Json::opt_u64(serve.p999_ns)),
                ("mean_ns", Json::opt_f64(serve.mean_ns)),
                ("goodput_per_s", Json::opt_f64(serve.goodput_per_s)),
                (
                    "energy_per_request_j",
                    Json::opt_f64(serve.energy_per_request_j),
                ),
            ]),
        ));
    }
    // Likewise the fleet block: only multi-host runs carry it.
    if let Some(fleet) = &s.fleet {
        fields.push((
            "fleet",
            obj(vec![
                ("hosts", Json::u64(fleet.hosts as u64)),
                ("offered", Json::u64(fleet.offered)),
                ("completed", Json::u64(fleet.completed)),
                ("failed", Json::u64(fleet.failed)),
                ("shed", Json::u64(fleet.shed)),
                ("timeouts", Json::u64(fleet.timeouts)),
                ("retries", Json::u64(fleet.retries)),
                ("hedges", Json::u64(fleet.hedges)),
                ("hedge_wins", Json::u64(fleet.hedge_wins)),
                ("crashes", Json::u64(fleet.crashes)),
                ("restarts", Json::u64(fleet.restarts)),
                ("p50_ns", Json::opt_u64(fleet.p50_ns)),
                ("p99_ns", Json::opt_u64(fleet.p99_ns)),
                ("p999_ns", Json::opt_u64(fleet.p999_ns)),
                ("mean_ns", Json::opt_f64(fleet.mean_ns)),
                ("goodput_per_s", Json::opt_f64(fleet.goodput_per_s)),
                ("time_to_warm_s", Json::opt_f64(fleet.time_to_warm_s)),
                ("timeline_window_ns", Json::u64(fleet.timeline_window_ns)),
                (
                    "timeline",
                    Json::Arr(
                        fleet
                            .timeline
                            .iter()
                            .map(|&(arrived, ok)| {
                                Json::Arr(vec![Json::u64(arrived), Json::u64(ok)])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    obj(fields)
}

/// Rebuilds a summary from its JSON form; `None` on any shape mismatch.
pub fn summary_from_json(v: &Json) -> Option<RunSummary> {
    let nums = |key: &str| -> Option<Vec<f64>> {
        v.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
    };
    let ints = |key: &str| -> Option<Vec<u64>> {
        v.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
    };
    let placements: Option<Vec<(String, u64)>> = v
        .get("placements")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            Some((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_u64()?))
        })
        .collect();
    let lat = v.get("latency")?;
    let opt_u64 = |field: &Json| {
        if field.is_null() {
            Some(None)
        } else {
            field.as_u64().map(Some)
        }
    };
    Some(RunSummary {
        time_s: v.get("time_s")?.as_f64()?,
        energy_j: v.get("energy_j")?.as_f64()?,
        underload_per_s: v.get("underload_per_s")?.as_f64()?,
        total_underload: v.get("total_underload")?.as_u64()?,
        freq_edges_ghz: nums("freq_edges_ghz")?,
        freq_busy_ns: ints("freq_busy_ns")?,
        placements: placements?,
        distinct_cores: v.get("distinct_cores")?.as_usize()?,
        latency: LatencySummary {
            p50_ns: opt_u64(lat.get("p50_ns")?)?,
            p99_ns: opt_u64(lat.get("p99_ns")?)?,
            p999_ns: opt_u64(lat.get("p999_ns")?)?,
            mean_ns: if lat.get("mean_ns")?.is_null() {
                None
            } else {
                Some(lat.get("mean_ns")?.as_f64()?)
            },
            samples: lat.get("samples")?.as_usize()?,
        },
        total_tasks: v.get("total_tasks")?.as_usize()?,
        hit_horizon: v.get("hit_horizon")?.as_bool()?,
        serve: match v.get("serve") {
            None => None,
            Some(serve) => {
                let opt_f64 = |field: &Json| {
                    if field.is_null() {
                        Some(None)
                    } else {
                        field.as_f64().map(Some)
                    }
                };
                Some(ServeSummary {
                    offered: serve.get("offered")?.as_u64()?,
                    completed: serve.get("completed")?.as_u64()?,
                    within_slo: serve.get("within_slo")?.as_u64()?,
                    slo_ns: serve.get("slo_ns")?.as_u64()?,
                    p50_ns: opt_u64(serve.get("p50_ns")?)?,
                    p99_ns: opt_u64(serve.get("p99_ns")?)?,
                    p999_ns: opt_u64(serve.get("p999_ns")?)?,
                    mean_ns: opt_f64(serve.get("mean_ns")?)?,
                    goodput_per_s: opt_f64(serve.get("goodput_per_s")?)?,
                    energy_per_request_j: opt_f64(serve.get("energy_per_request_j")?)?,
                })
            }
        },
        fleet: match v.get("fleet") {
            None => None,
            Some(fleet) => {
                let opt_f64 = |field: &Json| {
                    if field.is_null() {
                        Some(None)
                    } else {
                        field.as_f64().map(Some)
                    }
                };
                let timeline: Option<Vec<(u64, u64)>> = fleet
                    .get("timeline")?
                    .as_arr()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr()?;
                        Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                    })
                    .collect();
                Some(FleetSummary {
                    hosts: fleet.get("hosts")?.as_u64()? as u32,
                    offered: fleet.get("offered")?.as_u64()?,
                    completed: fleet.get("completed")?.as_u64()?,
                    failed: fleet.get("failed")?.as_u64()?,
                    shed: fleet.get("shed")?.as_u64()?,
                    timeouts: fleet.get("timeouts")?.as_u64()?,
                    retries: fleet.get("retries")?.as_u64()?,
                    hedges: fleet.get("hedges")?.as_u64()?,
                    hedge_wins: fleet.get("hedge_wins")?.as_u64()?,
                    crashes: fleet.get("crashes")?.as_u64()?,
                    restarts: fleet.get("restarts")?.as_u64()?,
                    p50_ns: opt_u64(fleet.get("p50_ns")?)?,
                    p99_ns: opt_u64(fleet.get("p99_ns")?)?,
                    p999_ns: opt_u64(fleet.get("p999_ns")?)?,
                    mean_ns: opt_f64(fleet.get("mean_ns")?)?,
                    goodput_per_s: opt_f64(fleet.get("goodput_per_s")?)?,
                    time_to_warm_s: opt_f64(fleet.get("time_to_warm_s")?)?,
                    timeline_window_ns: fleet.get("timeline_window_ns")?.as_u64()?,
                    timeline: timeline?,
                })
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> RunSummary {
        RunSummary {
            time_s: 1.25,
            energy_j: 321.0625,
            underload_per_s: 0.5,
            total_underload: 17,
            freq_edges_ghz: vec![1.0, 2.3, 3.9],
            freq_busy_ns: vec![123, 0, 9_876_543_210_123],
            placements: vec![("CfsFork".into(), 5), ("NestPrimary".into(), 11)],
            distinct_cores: 3,
            latency: LatencySummary {
                p50_ns: Some(1_000),
                p99_ns: Some(50_000),
                p999_ns: None,
                mean_ns: Some(1234.5),
                samples: 400,
            },
            total_tasks: 99,
            hit_horizon: false,
            serve: None,
            fleet: None,
        }
    }

    #[test]
    fn summary_json_round_trip_is_lossless() {
        let s = sample_summary();
        let back = summary_from_json(&summary_to_json(&s)).expect("round trip");
        assert_eq!(back, s);
        // And canonical: serializing twice gives identical bytes.
        assert_eq!(
            summary_to_json(&s).to_pretty(),
            summary_to_json(&back).to_pretty()
        );
        // Non-serving summaries carry no serve key at all.
        assert!(summary_to_json(&s).get("serve").is_none());
        // Likewise single-host summaries carry no fleet key.
        assert!(summary_to_json(&s).get("fleet").is_none());
    }

    #[test]
    fn serving_summary_round_trips_through_the_cache_codec() {
        let s = RunSummary {
            serve: Some(ServeSummary {
                offered: 2_000,
                completed: 1_990,
                within_slo: 1_800,
                slo_ns: 2_000_000,
                p50_ns: Some(400_000),
                p99_ns: Some(1_900_000),
                p999_ns: Some(4_100_000),
                mean_ns: Some(512_333.25),
                goodput_per_s: Some(450.0),
                energy_per_request_j: None,
            }),
            ..sample_summary()
        };
        let json = summary_to_json(&s);
        assert!(json.get("serve").is_some());
        let back = summary_from_json(&json).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(json.to_pretty(), summary_to_json(&back).to_pretty());
    }

    #[test]
    fn fleet_summary_round_trips_through_the_cache_codec() {
        let s = RunSummary {
            fleet: Some(FleetSummary {
                hosts: 4,
                offered: 1_000,
                completed: 960,
                failed: 30,
                shed: 10,
                timeouts: 45,
                retries: 40,
                hedges: 12,
                hedge_wins: 5,
                crashes: 1,
                restarts: 1,
                p50_ns: Some(600_000),
                p99_ns: Some(3_000_000),
                p999_ns: Some(9_000_000),
                mean_ns: Some(812_444.5),
                goodput_per_s: Some(320.0),
                time_to_warm_s: Some(0.125),
                timeline_window_ns: 50_000_000,
                timeline: vec![(100, 98), (120, 60), (110, 109)],
            }),
            ..sample_summary()
        };
        let json = summary_to_json(&s);
        assert!(json.get("fleet").is_some());
        let back = summary_from_json(&json).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(json.to_pretty(), summary_to_json(&back).to_pretty());
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let id = cell_identity("m", "s", "w", 0, 42, 600);
        assert_eq!(cell_key(&id), cell_key(&id));
        assert_eq!(cell_key(&id).len(), 32);
        for changed in [
            cell_identity("m2", "s", "w", 0, 42, 600),
            cell_identity("m", "s2", "w", 0, 42, 600),
            cell_identity("m", "s", "w2", 0, 42, 600),
            cell_identity("m", "s", "w", 1, 42, 600),
            cell_identity("m", "s", "w", 0, 43, 600),
            cell_identity("m", "s", "w", 0, 42, 601),
        ] {
            assert_ne!(cell_key(&id), cell_key(&changed), "{changed}");
        }
    }

    #[test]
    fn store_lookup_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "nest-cache-test-{}-{:x}",
            std::process::id(),
            splitmix64(0xC0FFEE)
        ));
        let cache = Cache::at(dir.clone(), CacheMode::Clear);
        let s = sample_summary();
        let key = cell_key("some-cell");
        assert!(cache.lookup(&key).is_none());
        cache.store(&key, &s);
        assert_eq!(cache.lookup(&key), Some(s));
        // Clearing wipes it.
        let cache = Cache::at(dir.clone(), CacheMode::Clear);
        assert!(cache.lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_entries_are_deleted_and_miss() {
        let dir = std::env::temp_dir().join(format!(
            "nest-cache-corrupt-{}-{:x}",
            std::process::id(),
            splitmix64(0xBADF00D)
        ));
        let cache = Cache::at(dir.clone(), CacheMode::Clear);
        let key = cell_key("corruptible");
        cache.store(&key, &sample_summary());
        let path = dir.join(format!("{key}.json"));
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncation, garbage, a flipped value, and a stripped checksum
        // must all miss — and remove the bad file so it is recomputed.
        let half = &good[..good.len() / 2];
        let corruptions = [
            half.to_string(),
            "not json at all {{{".to_string(),
            good.replace("1.25", "9.75"),
            good.replace("checksum", "chequesum"),
        ];
        for bad in corruptions {
            std::fs::write(&path, &bad).unwrap();
            assert!(cache.lookup(&key).is_none(), "corrupt entry hit: {bad:.40}");
            assert!(!path.exists(), "corrupt entry not deleted");
            cache.store(&key, &sample_summary());
            assert!(cache.lookup(&key).is_some(), "recompute not stored");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn old_schema_entries_miss() {
        let dir = std::env::temp_dir().join(format!(
            "nest-cache-schema-{}-{:x}",
            std::process::id(),
            splitmix64(0x5C4E)
        ));
        let cache = Cache::at(dir.clone(), CacheMode::Clear);
        let key = cell_key("schema-check");
        cache.store(&key, &sample_summary());
        let path = dir.join(format!("{key}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"schema\": 2", "\"schema\": 1")).unwrap();
        assert!(cache.lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clearing_the_cache_also_clears_warm_snapshots() {
        let dir = std::env::temp_dir().join(format!(
            "nest-cache-clear-warm-{}-{:x}",
            std::process::id(),
            splitmix64(0xC1EA)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Older builds kept warm-start snapshots in a `warm/` directory
        // inside the cache directory; a `NEST_CACHE=clear` run wipes the
        // whole directory, so it discards them along with stale summaries.
        let warm = dir.join("warm");
        std::fs::create_dir_all(&warm).unwrap();
        std::fs::write(warm.join("deadbeef.snap"), "stale snapshot").unwrap();
        let _ = Cache::at(dir.clone(), CacheMode::Clear);
        assert!(!warm.exists(), "clear left warm snapshots behind");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checksum_is_stable() {
        assert_eq!(content_checksum("abc"), content_checksum("abc"));
        assert_ne!(content_checksum("abc"), content_checksum("abd"));
        assert_eq!(content_checksum("x").len(), 16);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = Cache::disabled();
        let key = cell_key("x");
        cache.store(&key, &sample_summary());
        assert!(cache.lookup(&key).is_none());
    }
}
