//! The shared `name[:member][,k=v,…]` spec grammar.
//!
//! Every registry string — `nest:spin=off,r_impatient=3`,
//! `configure:gdb`, `schbench:mt=4,w=4` — parses through [`parse_spec`]:
//! a head (the registry key), an optional positional member (the first
//! `=`-less token after the colon), and ordered `key=value` parameters.
//! Duplicate keys and trailing positional tokens are errors, never
//! silently dropped.
//!
//! Each registry entry declares its knobs once, in a [`Knob`] table
//! built with `knobs!`: key, field and [`Codec`] (how the value is
//! spelled). That one declaration parses the knob ([`apply_knobs`]),
//! renders it when it differs from the base ([`changed_knobs`]) and
//! lists it for `nest-sim list` ([`knob_names`]).

use std::str::FromStr;

use nest_simcore::time::{format_duration, parse_duration};

use crate::error::ScenarioError;

/// A parsed `head[:member][,k=v,…]` string.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSpec {
    /// The registry key before the first `:` (lowercased).
    pub head: String,
    /// The positional member, when the first token after `:` has no `=`.
    pub member: Option<String>,
    /// `key=value` parameters in the order written.
    pub params: Vec<(String, String)>,
}

/// Parses `input` against the shared grammar. `kind` names the registry
/// for error messages.
pub fn parse_spec(kind: &'static str, input: &str) -> Result<ParsedSpec, ScenarioError> {
    let input = input.trim();
    let malformed = |reason: String| ScenarioError::MalformedSpec {
        spec: input.to_string(),
        reason,
    };
    let (head, rest) = match input.split_once(':') {
        Some((h, r)) => (h.trim(), Some(r)),
        None => (input, None),
    };
    if head.is_empty() {
        return Err(malformed(format!("empty {kind} name")));
    }
    let mut member = None;
    let mut params: Vec<(String, String)> = Vec::new();
    if let Some(rest) = rest {
        if rest.trim().is_empty() {
            return Err(malformed("nothing after `:`".into()));
        }
        for (i, token) in rest.split(',').enumerate() {
            let token = token.trim();
            if token.is_empty() {
                return Err(malformed("empty token between commas".into()));
            }
            match token.split_once('=') {
                Some((k, v)) => {
                    let (k, v) = (k.trim(), v.trim());
                    if k.is_empty() || v.is_empty() {
                        return Err(malformed(format!("incomplete parameter \"{token}\"")));
                    }
                    if params.iter().any(|(seen, _)| seen == k) {
                        return Err(malformed(format!("duplicate parameter \"{k}\"")));
                    }
                    params.push((k.to_string(), v.to_string()));
                }
                None if i == 0 => member = Some(token.to_string()),
                None => {
                    return Err(malformed(format!(
                        "positional token \"{token}\" after the first position \
                         (parameters must be key=value)"
                    )));
                }
            }
        }
    }
    Ok(ParsedSpec {
        head: head.to_ascii_lowercase(),
        member,
        params,
    })
}

impl ParsedSpec {
    /// The entry the parameters apply to, for error messages: the head,
    /// or `head:member` when a member was given.
    pub fn entry(&self) -> String {
        match &self.member {
            Some(m) => format!("{}:{m}", self.head),
            None => self.head.clone(),
        }
    }
}

/// How one knob's value is spelled: parsed from the text after `=` and
/// rendered back so that `parse(render(v)) == Some(v)`.
pub trait Codec<T> {
    /// What a well-formed value looks like, for error messages.
    const EXPECTED: &'static str;
    /// Parses a value; `None` if it is malformed.
    fn parse(value: &str) -> Option<T>;
    /// Renders a value in canonical form.
    fn render(value: &T) -> String;
}

/// A non-negative integer (`u32`, `u64`, `usize`).
pub struct Int;

impl<T: FromStr + ToString> Codec<T> for Int {
    const EXPECTED: &'static str = "a non-negative integer";
    fn parse(value: &str) -> Option<T> {
        value.parse().ok()
    }
    fn render(value: &T) -> String {
        value.to_string()
    }
}

/// A finite `f64`, rendered in Rust's shortest round-trip form.
pub struct Float;

impl Codec<f64> for Float {
    const EXPECTED: &'static str = "a finite number";
    fn parse(value: &str) -> Option<f64> {
        value.parse().ok().filter(|v: &f64| v.is_finite())
    }
    fn render(value: &f64) -> String {
        format!("{value}")
    }
}

/// A boolean: `on`/`off`, `true`/`false` or `1`/`0` (any case), rendered
/// `on`/`off`.
pub struct OnOff;

/// The spellings of `false` and of `true`; the first is canonical.
const BOOL_WORDS: [[&str; 3]; 2] = [["off", "false", "0"], ["on", "true", "1"]];

impl Codec<bool> for OnOff {
    const EXPECTED: &'static str = "on|off";
    fn parse(value: &str) -> Option<bool> {
        BOOL_WORDS
            .iter()
            .position(|words| words.iter().any(|w| value.eq_ignore_ascii_case(w)))
            .map(|i| i == 1)
    }
    fn render(value: &bool) -> String {
        BOOL_WORDS[usize::from(*value)][0].to_string()
    }
}

/// A nanosecond duration in the shared suffix grammar (`2ms`, `500us`).
pub struct Dur;

impl Codec<u64> for Dur {
    const EXPECTED: &'static str = "a duration like 2ms";
    fn parse(value: &str) -> Option<u64> {
        parse_duration(value)
    }
    fn render(value: &u64) -> String {
        format_duration(*value)
    }
}

/// Parses `value` for knob `key` with codec `C`.
pub fn parse_knob<T, C: Codec<T>>(key: &str, value: &str) -> Result<T, ScenarioError> {
    C::parse(value).ok_or_else(|| ScenarioError::BadValue {
        param: key.to_string(),
        value: value.to_string(),
        expected: C::EXPECTED,
    })
}

/// Renders `value` with codec `C` unless it equals `base`.
pub fn render_knob<T: PartialEq, C: Codec<T>>(value: &T, base: &T) -> Option<String> {
    (value != base).then(|| C::render(value))
}

/// One `key=value` knob of a spec `S`: its key, the field it sets and
/// the codec that spells it. Build tables with `knobs!`.
pub struct Knob<S> {
    /// The key as written before `=`.
    pub name: &'static str,
    /// Text shown after the key in `nest-sim list` (e.g. a value shape).
    pub hint: &'static str,
    /// Parses a value into its field.
    pub set: fn(&mut S, &str) -> Result<(), ScenarioError>,
    /// Renders the field, or `None` when it equals the base's.
    pub show: fn(&S, &S) -> Option<String>,
}

/// Declares a knob table: `knobs!(Spec { "key" => field: Codec, … })`.
/// `"key" + "hint" => …` adds a hint to the key in `nest-sim list`.
macro_rules! knobs {
    ($ty:ty { $($key:literal $(+ $hint:literal)? => $field:ident: $codec:ty),* $(,)? }) => {
        &[$($crate::spec::Knob::<$ty> {
            name: $key,
            hint: concat!("" $(, $hint)?),
            set: |s, v| {
                s.$field = $crate::spec::parse_knob::<_, $codec>($key, v)?;
                Ok(())
            },
            show: |s, base| $crate::spec::render_knob::<_, $codec>(&s.$field, &base.$field),
        }),*]
    };
}
pub(crate) use knobs;

/// Applies every parameter of `p` to `s` through `knobs`. A key the
/// table does not declare is an [`ScenarioError::UnknownParam`] that
/// lists the table's keys; `kind` names the registry.
pub fn apply_knobs<S>(
    kind: &'static str,
    knobs: &[Knob<S>],
    p: &ParsedSpec,
    s: &mut S,
) -> Result<(), ScenarioError> {
    for (k, v) in &p.params {
        let Some(knob) = knobs.iter().find(|knob| knob.name == k) else {
            return Err(ScenarioError::UnknownParam {
                kind,
                entry: p.entry(),
                param: k.clone(),
                valid: knobs.iter().map(|knob| knob.name.to_string()).collect(),
            });
        };
        (knob.set)(s, v)?;
    }
    Ok(())
}

/// Appends `key=value` to `head` for each knob whose value in `s`
/// differs from `base`, in declaration order: the first after `lead`,
/// the rest after commas. Values are compared before they are rendered.
pub fn changed_knobs<S>(head: String, lead: char, knobs: &[Knob<S>], s: &S, base: &S) -> String {
    let mut out = head;
    let mut sep = lead;
    for knob in knobs {
        if let Some(value) = (knob.show)(s, base) {
            out.push(sep);
            out.push_str(knob.name);
            out.push('=');
            out.push_str(&value);
            sep = ',';
        }
    }
    out
}

/// The table's keys with their hints, comma-separated, for `nest-sim list`.
pub fn knob_names<S>(knobs: &[Knob<S>]) -> String {
    let names: Vec<String> = knobs
        .iter()
        .map(|k| format!("{}{}", k.name, k.hint))
        .collect();
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_head() {
        let p = parse_spec("policy", "nest").unwrap();
        assert_eq!(p.head, "nest");
        assert_eq!(p.member, None);
        assert!(p.params.is_empty());
    }

    #[test]
    fn member_and_params() {
        let p = parse_spec("workload", "configure:gdb,tests=40").unwrap();
        assert_eq!(p.head, "configure");
        assert_eq!(p.member.as_deref(), Some("gdb"));
        assert_eq!(p.params, vec![("tests".to_string(), "40".to_string())]);
    }

    #[test]
    fn params_only_and_order_preserved() {
        let p = parse_spec("policy", "nest:spin=off,r_impatient=3").unwrap();
        assert_eq!(p.member, None);
        assert_eq!(
            p.params,
            vec![
                ("spin".to_string(), "off".to_string()),
                ("r_impatient".to_string(), "3".to_string())
            ]
        );
    }

    #[test]
    fn member_may_contain_spaces() {
        let p = parse_spec("workload", "phoronix:zstd compression 7").unwrap();
        assert_eq!(p.member.as_deref(), Some("zstd compression 7"));
    }

    #[test]
    fn duplicate_key_is_rejected() {
        let e = parse_spec("policy", "nest:spin=off,spin=on").unwrap_err();
        assert!(e.to_string().contains("duplicate parameter"));
    }

    #[test]
    fn late_positional_is_rejected() {
        let e = parse_spec("workload", "server:c=5,nginx").unwrap_err();
        assert!(e.to_string().contains("positional token"));
    }

    #[test]
    fn empty_pieces_are_rejected() {
        assert!(parse_spec("policy", "").is_err());
        assert!(parse_spec("policy", "nest:").is_err());
        assert!(parse_spec("policy", "nest:a=1,,b=2").is_err());
        assert!(parse_spec("policy", "nest:=3").is_err());
        assert!(parse_spec("policy", "nest:x=").is_err());
    }

    #[test]
    fn value_parsers() {
        assert_eq!(parse_knob::<u32, Int>("g", "16").unwrap(), 16);
        assert!(parse_knob::<u32, Int>("g", "-1").is_err());
        assert_eq!(parse_knob::<f64, Float>("j", "0.5").unwrap(), 0.5);
        assert!(parse_knob::<f64, Float>("j", "nan").is_err());
        assert!(parse_knob::<bool, OnOff>("spin", "on").unwrap());
        assert!(!parse_knob::<bool, OnOff>("spin", "0").unwrap());
        assert!(parse_knob::<bool, OnOff>("spin", "TRUE").unwrap());
        let e = parse_knob::<bool, OnOff>("spin", "maybe").unwrap_err();
        assert_eq!(e.to_string(), "parameter \"spin\": \"maybe\" is not on|off");
        assert_eq!(parse_knob::<u64, Dur>("slo", "4ms").unwrap(), 4_000_000);
        assert!(parse_knob::<u64, Dur>("slo", "4").is_err());
    }

    #[test]
    fn canonical_renderers() {
        assert_eq!(<OnOff as Codec<bool>>::render(&true), "on");
        assert_eq!(Float::render(&3.0), "3");
        assert_eq!(Float::render(&0.5), "0.5");
        assert_eq!(Dur::render(&4_000_000), "4ms");
        assert_eq!(render_knob::<u32, Int>(&5, &5), None);
        assert_eq!(render_knob::<u32, Int>(&6, &5).as_deref(), Some("6"));
    }

    struct Toy {
        n: u32,
        on: bool,
    }

    const TOY: &[Knob<Toy>] = knobs!(Toy { "n" + "=N" => n: Int, "on" => on: OnOff });

    #[test]
    fn a_table_parses_renders_and_lists() {
        let base = Toy { n: 1, on: true };
        let mut t = Toy { n: 1, on: true };
        let p = parse_spec("toy", "toy:on=off,n=3").unwrap();
        apply_knobs("toy", TOY, &p, &mut t).unwrap();
        assert_eq!((t.n, t.on), (3, false));
        assert_eq!(
            changed_knobs("toy".into(), ':', TOY, &t, &base),
            "toy:n=3,on=off"
        );
        assert_eq!(changed_knobs("toy".into(), ':', TOY, &base, &base), "toy");
        assert_eq!(knob_names(TOY), "n=N, on");
        let p = parse_spec("toy", "toy:x=1").unwrap();
        let msg = apply_knobs("toy", TOY, &p, &mut t).unwrap_err().to_string();
        assert_eq!(
            msg,
            "unknown parameter \"x\" for toy \"toy\"; valid parameters: n, on"
        );
    }
}
