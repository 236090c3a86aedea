//! The machine registry: short keys for the Table 2/3 presets.
//!
//! Keys are the socket-count-qualified model numbers the paper uses in
//! its figure captions (`6130-2`, `e7-8870`, …), with a few convenience
//! aliases (`e7`, `i80` for the 160-thread/80-physical-core E7-8870 v4,
//! `amd` for the Ryzen). Lookups resolve to the *identical*
//! [`MachineSpec`] structs the figure binaries always used — the specs'
//! `name` fields feed the per-cell seed derivation, so registry-built
//! experiments reproduce hand-wired ones bit for bit.

use nest_topology::{presets, MachineSpec, NumaKind};

use crate::error::ScenarioError;
use crate::spec::{apply_knobs, knobs, parse_spec, Codec, Knob};

/// The grammar hint listed alongside the preset keys in error messages.
pub const SYNTH_GRAMMAR: &str = "synth:sockets=S,ccx=C,cores=N[,smt=2][,numa=ring]";

/// The knobs of a `synth:` shape. A zero count is one not given.
struct Shape {
    sockets: usize,
    ccx: usize,
    cores: usize,
    smt: usize,
    numa: NumaKind,
}

/// A shape before any knob is applied: no counts, one thread per core,
/// flat NUMA.
const UNSET: Shape = Shape {
    sockets: 0,
    ccx: 0,
    cores: 0,
    smt: 1,
    numa: NumaKind::Flat,
};

/// The three counts lead the table: they are mandatory.
const SYNTH: &[Knob<Shape>] = knobs!(Shape {
    "sockets" => sockets: Count,
    "ccx" => ccx: Count,
    "cores" => cores: Count,
    "smt" => smt: Smt,
    "numa" => numa: NumaKind,
});
const MANDATORY: usize = 3;

/// A positive count.
struct Count;

impl Codec<usize> for Count {
    const EXPECTED: &'static str = "a positive integer";
    fn parse(value: &str) -> Option<usize> {
        value.parse().ok().filter(|&n| n > 0)
    }
    fn render(value: &usize) -> String {
        value.to_string()
    }
}

/// Hardware threads per core: 1 or 2.
struct Smt;

impl Codec<usize> for Smt {
    const EXPECTED: &'static str = "1 or 2";
    fn parse(value: &str) -> Option<usize> {
        value.parse().ok().filter(|n| (1..=2).contains(n))
    }
    fn render(value: &usize) -> String {
        value.to_string()
    }
}

/// `numa=flat|ring`.
impl Codec<NumaKind> for NumaKind {
    const EXPECTED: &'static str = "flat or ring";
    fn parse(value: &str) -> Option<NumaKind> {
        match value {
            "flat" => Some(NumaKind::Flat),
            "ring" => Some(NumaKind::Ring),
            _ => None,
        }
    }
    fn render(value: &NumaKind) -> String {
        match value {
            NumaKind::Flat => "flat",
            NumaKind::Ring => "ring",
        }
        .to_string()
    }
}

/// Parses a `synth:` machine string into its [`MachineSpec`].
///
/// The grammar is `synth:sockets=S,ccx=C,cores=N[,smt=1|2][,numa=flat|ring]`
/// with the three counts mandatory and order-insensitive. The returned
/// spec's `name` is the canonical identity string (counts in
/// sockets/ccx/cores order, defaults elided), so every way of writing the
/// same shape hashes to the same harness seeds.
fn parse_synth(spec: &str) -> Result<MachineSpec, ScenarioError> {
    let malformed = |reason: String| ScenarioError::MalformedSpec {
        spec: spec.to_string(),
        reason,
    };
    let p = parse_spec("machine", spec)?;
    if let Some(member) = &p.member {
        return Err(malformed(format!("\"{member}\" is not a key=value pair")));
    }
    let mut s = UNSET;
    apply_knobs("machine", SYNTH, &p, &mut s)?;
    if let Some(k) = SYNTH[..MANDATORY]
        .iter()
        .find(|k| (k.show)(&s, &UNSET).is_none())
    {
        return Err(malformed(format!("missing \"{}=\"", k.name)));
    }
    Ok(presets::synth(s.sockets, s.ccx, s.cores, s.smt, s.numa))
}

/// One machine registry entry.
pub struct MachineEntry {
    /// Canonical registry key (e.g. `"6130-2"`).
    pub key: &'static str,
    /// Accepted aliases (e.g. `"e7"`, `"i80"`).
    pub aliases: &'static [&'static str],
    /// One-line description for `nest-sim list`.
    pub summary: &'static str,
    ctor: fn() -> MachineSpec,
}

impl MachineEntry {
    /// Builds the preset this entry names.
    pub fn build(&self) -> MachineSpec {
        (self.ctor)()
    }
}

fn m6130_2() -> MachineSpec {
    presets::xeon_6130(2)
}

fn m6130_4() -> MachineSpec {
    presets::xeon_6130(4)
}

/// Every machine registry entry, in Table 2 order followed by the §5.6
/// mono-socket machines.
pub fn machine_entries() -> Vec<MachineEntry> {
    vec![
        MachineEntry {
            key: "6130-2",
            aliases: &[],
            summary: "2-socket Intel Xeon Gold 6130 (Skylake), 64 hardware threads",
            ctor: m6130_2,
        },
        MachineEntry {
            key: "6130-4",
            aliases: &[],
            summary: "4-socket Intel Xeon Gold 6130 (Skylake), 128 hardware threads",
            ctor: m6130_4,
        },
        MachineEntry {
            key: "5218",
            aliases: &[],
            summary: "2-socket Intel Xeon Gold 5218 (Cascade Lake), 64 hardware threads",
            ctor: presets::xeon_5218,
        },
        MachineEntry {
            key: "e7-8870",
            aliases: &["e7", "i80"],
            summary: "4-socket Intel Xeon E7-8870 v4 (Broadwell), 160 hardware threads",
            ctor: presets::e7_8870_v4,
        },
        MachineEntry {
            key: "5220",
            aliases: &[],
            summary: "mono-socket Intel Xeon 5220 (Cascade Lake), 36 hardware threads",
            ctor: presets::xeon_5220,
        },
        MachineEntry {
            key: "4650g",
            aliases: &["amd"],
            summary: "mono-socket AMD Ryzen 5 PRO 4650G (Zen 2), 12 hardware threads",
            ctor: presets::amd_4650g,
        },
    ]
}

/// Every canonical machine key, registry order.
pub fn machine_keys() -> Vec<&'static str> {
    machine_entries().iter().map(|e| e.key).collect()
}

/// The four Table 2 machines, in the order the paper's figures sweep them.
pub fn paper_machine_keys() -> [&'static str; 4] {
    ["6130-2", "6130-4", "5218", "e7-8870"]
}

/// A machine name resolved once: a registry preset, or a synthetic
/// machine (already built, since parsing its shape builds it).
enum Resolved {
    Preset(MachineEntry),
    Synth(MachineSpec),
}

fn resolve(name: &str) -> Result<Resolved, ScenarioError> {
    let wanted = name.trim().to_ascii_lowercase();
    if wanted.starts_with("synth:") {
        return parse_synth(&wanted).map(Resolved::Synth);
    }
    machine_entries()
        .into_iter()
        .find(|e| e.key == wanted || e.aliases.contains(&wanted.as_str()))
        .map(Resolved::Preset)
        .ok_or_else(|| ScenarioError::UnknownEntry {
            kind: "machine",
            name: name.to_string(),
            valid: machine_keys()
                .iter()
                .map(|k| k.to_string())
                .chain(std::iter::once(SYNTH_GRAMMAR.to_string()))
                .collect(),
        })
}

/// Resolves `name` (key, alias, or `synth:` shape, case-insensitive) to
/// its canonical identity string. For presets that is the registry key;
/// for synthetic machines it is the normalised `synth:` string (counts in
/// sockets/ccx/cores order, defaults elided).
pub fn canonical_machine(name: &str) -> Result<String, ScenarioError> {
    Ok(match resolve(name)? {
        Resolved::Preset(e) => e.key.to_string(),
        Resolved::Synth(m) => m.name,
    })
}

/// Resolves `name` to its [`MachineSpec`].
pub fn machine(name: &str) -> Result<MachineSpec, ScenarioError> {
    Ok(match resolve(name)? {
        Resolved::Preset(e) => e.build(),
        Resolved::Synth(m) => m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_resolve_to_the_preset_structs() {
        // The spec names feed seed derivation; pin them exactly.
        let expect = [
            ("6130-2", "64-core Intel 6130"),
            ("6130-4", "128-core Intel 6130"),
            ("5218", "64-core Intel 5218"),
            ("e7-8870", "160-core Intel E7-8870 v4"),
            ("5220", "36-core Intel 5220"),
            ("4650g", "12-core AMD 4650G"),
        ];
        for (key, name) in expect {
            assert_eq!(machine(key).unwrap().name, name);
        }
    }

    #[test]
    fn aliases_and_case_fold() {
        assert_eq!(canonical_machine("e7").unwrap(), "e7-8870");
        assert_eq!(canonical_machine("i80").unwrap(), "e7-8870");
        assert_eq!(canonical_machine("AMD").unwrap(), "4650g");
        assert_eq!(canonical_machine(" 5218 ").unwrap(), "5218");
    }

    #[test]
    fn unknown_machine_lists_valid_keys() {
        let e = machine("i81").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("unknown machine"), "{msg}");
        for key in machine_keys() {
            assert!(msg.contains(key), "{msg} missing {key}");
        }
    }

    #[test]
    fn synth_grammar_builds_and_canonicalises() {
        let m = machine("synth:sockets=4,ccx=8,cores=8").unwrap();
        assert_eq!(m.n_cores(), 256);
        assert_eq!(m.sockets, 4);
        assert_eq!(m.ccx_per_socket, 8);
        assert_eq!(m.smt, 1);
        assert_eq!(m.name, "synth:sockets=4,ccx=8,cores=8");
        // Parameter order, whitespace, case, and explicit defaults all
        // normalise to the same identity string (and hence the same seeds).
        for alias in [
            "synth:cores=8,sockets=4,ccx=8",
            " SYNTH:sockets=4 , ccx=8 , cores=8 ",
            "synth:sockets=4,ccx=8,cores=8,smt=1,numa=flat",
        ] {
            assert_eq!(
                canonical_machine(alias).unwrap(),
                "synth:sockets=4,ccx=8,cores=8",
                "{alias}"
            );
        }
    }

    #[test]
    fn synth_smt_and_numa_knobs_round_trip() {
        let m = machine("synth:sockets=8,ccx=8,cores=8,smt=2,numa=ring").unwrap();
        assert_eq!(m.n_cores(), 1024);
        assert_eq!(m.smt, 2);
        assert_eq!(m.name, "synth:sockets=8,ccx=8,cores=8,smt=2,numa=ring");
        assert_eq!(canonical_machine(&m.name).unwrap(), m.name);
    }

    #[test]
    fn synth_table_renders_the_preset_name() {
        // `presets::synth` builds the seed-relevant name; the knob table
        // must spell the same shape the same way.
        for (sockets, ccx, cores, smt, numa) in [
            (4, 8, 8, 1, NumaKind::Flat),
            (8, 8, 8, 2, NumaKind::Ring),
            (1, 1, 1, 2, NumaKind::Flat),
        ] {
            let shape = Shape {
                sockets,
                ccx,
                cores,
                smt,
                numa,
            };
            assert_eq!(
                crate::spec::changed_knobs("synth".into(), ':', SYNTH, &shape, &UNSET),
                presets::synth(sockets, ccx, cores, smt, numa).name
            );
        }
    }

    #[test]
    fn synth_rejects_bad_shapes() {
        for (spec, needle) in [
            ("synth:sockets=4,ccx=8", "missing \"cores=\""),
            ("synth:sockets=4,ccx=8,cores=0", "positive integer"),
            ("synth:sockets=4,ccx=8,cores=8,smt=4", "1 or 2"),
            ("synth:sockets=4,ccx=8,cores=8,numa=mesh", "flat or ring"),
            ("synth:sockets=4,ccx=8,cores=8,dies=2", "unknown parameter"),
            ("synth:sockets", "key=value"),
        ] {
            let msg = machine(spec).unwrap_err().to_string();
            assert!(msg.contains(needle), "{spec}: {msg}");
        }
    }

    #[test]
    fn unknown_machine_mentions_synth_grammar() {
        let msg = machine("i81").unwrap_err().to_string();
        assert!(msg.contains(SYNTH_GRAMMAR), "{msg}");
    }

    #[test]
    fn paper_order_matches_presets() {
        let from_registry: Vec<String> = paper_machine_keys()
            .iter()
            .map(|k| machine(k).unwrap().name.to_string())
            .collect();
        let from_presets: Vec<String> = presets::paper_machines()
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(from_registry, from_presets);
    }
}
