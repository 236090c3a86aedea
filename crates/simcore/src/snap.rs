//! The snapshot codec and the behaviour restore registry.
//!
//! Snapshots serialize live simulation state through the in-tree
//! [`Json`] tree. The *format* of every plain value lives here, in one
//! place: each stateful component implements or uses [`Snap`] and
//! describes only which fields it saves, never how a number, time or
//! map is spelled. The encoding rules:
//!
//! * **Integers** (`u64`, `u32`, `u8`, `usize`, and the [`TaskId`],
//!   [`CoreId`], [`BarrierId`], [`ChannelId`] newtypes) are JSON
//!   numbers; [`Time`] is nanoseconds and [`Freq`] is kHz.
//! * **Floats travel as bit patterns.** An `f64` (PELT averages,
//!   energy integrals, throttle factors) is its IEEE-754 bit pattern as
//!   a `u64`, so restore reproduces the exact value — including signed
//!   zeros and any non-finite sentinel — with no dependence on decimal
//!   formatting.
//! * **Containers**: `Option` is the value or `null`; `Vec`,
//!   `VecDeque`, `BTreeSet`, fixed-size arrays and 2-/3-tuples are
//!   arrays; a `HashSet` is a sorted array and a `HashMap` an array of
//!   `[key, value]` pairs sorted by key, so the bytes never depend on
//!   hash iteration order; a [`SimRng`] is its four state words.
//!
//! Loading is strict: a missing field, a wrong type, an integer that
//! overflows its target, or a machine-shaped array of the wrong length
//! ([`load_len`]) is an error naming the field, never a panic.
//!
//! **Behaviours restore through a registry.** A `Box<dyn Behavior>`
//! cannot name its own concrete type across a serialization boundary,
//! so [`Behavior::snap`] tags its state with a kind string and
//! [`BehaviorRegistry`] maps kinds back to constructor functions.
//! Restore functions receive the registry again so specs nested inside
//! pending actions (a not-yet-executed [`Action::Fork`]) restore
//! recursively.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;

use crate::ids::{BarrierId, ChannelId, CoreId, TaskId};
use crate::json::Json;
use crate::rng::SimRng;
use crate::task::{Action, Behavior, ScriptBehavior, TaskSpec};
use crate::time::Time;
use crate::units::Freq;

/// Registry kind under which [`ScriptBehavior`] snapshots itself.
pub const SCRIPT_KIND: &str = "script";

/// A value with one snapshot encoding, shared by both directions.
pub trait Snap: Sized {
    /// Encodes the value.
    fn save(&self) -> Json;
    /// Decodes a value written by [`Snap::save`].
    fn load(j: &Json) -> Result<Self, String>;
}

/// Implements [`Snap`] for a struct saved whole, as an object with one
/// key per field: `snap_struct!(Ty { "key": field, ... })` names each
/// field once for both directions.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($key:literal: $field:ident),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self) -> $crate::json::Json {
                $crate::json::obj(vec![$(($key, $crate::snap::Snap::save(&self.$field))),*])
            }
            fn load(j: &$crate::json::Json) -> Result<$ty, String> {
                Ok($ty { $($field: $crate::snap::load(j, $key)?),* })
            }
        }
    };
}

/// Declares the plain snapshot keys of a component that is first built
/// from the machine spec and then loaded in place:
/// `snap_in_place!(Ty { "key": place, "key": nested.place [len], ... })`
/// names each key once for both directions. It gives `Ty` two private
/// methods:
///
/// * `snap_entries(&self)` — the saved `(key, value)` entries, in
///   declared order;
/// * `load_entries(&mut self, state)` — assigns each place from its key,
///   in declared order.
///
/// A place is a field path under `self` (`busy`, `metrics.spin_ns`). A
/// `[len]` mark loads a machine-shaped array through [`load_len`] against
/// the length of the freshly built value it replaces. Keys with an
/// encoding of their own, and state rebuilt after loading, stay
/// hand-written beside the declaration.
#[macro_export]
macro_rules! snap_in_place {
    ($ty:ident { $($key:literal: $($place:ident).+ $([$len:ident])?),* $(,)? }) => {
        impl $ty {
            fn snap_entries(&self) -> Vec<(&'static str, $crate::json::Json)> {
                vec![$(($key, $crate::snap::Snap::save(&self.$($place).+))),*]
            }
            fn load_entries(&mut self, state: &$crate::json::Json) -> Result<(), String> {
                $($crate::snap_in_place!(@load self, state, $key, [$($len)?] $($place).+);)*
                Ok(())
            }
        }
    };
    (@load $s:ident, $state:ident, $key:literal, [] $($place:ident).+) => {
        $s.$($place).+ = $crate::snap::load($state, $key)?
    };
    (@load $s:ident, $state:ident, $key:literal, [len] $($place:ident).+) => {
        $s.$($place).+ = $crate::snap::load_len($state, $key, $s.$($place).+.len())?
    };
}

/// Looks up `key` in a JSON object, failing with a message that names
/// the missing field.
pub fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("snapshot field \"{key}\" missing"))
}

/// Borrows the array field `key`, for arrays whose entries are not
/// plain values (tagged behaviours, events, probe blocks).
pub fn get_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    items(field(obj, key)?).map_err(|e| format!("snapshot field \"{key}\": {e}"))
}

/// Reads field `key` of `obj`; errors name the field.
pub fn load<T: Snap>(obj: &Json, key: &str) -> Result<T, String> {
    T::load(field(obj, key)?).map_err(|e| format!("snapshot field \"{key}\": {e}"))
}

/// Reads the array field `key`, rejecting it unless it has exactly `n`
/// entries (one per core, socket, CCX, … of the restoring machine).
pub fn load_len<T: Snap>(obj: &Json, key: &str, n: usize) -> Result<Vec<T>, String> {
    let v: Vec<T> = load(obj, key)?;
    if v.len() != n {
        return Err(format!(
            "snapshot field \"{key}\" has {} entries, the machine has {n}",
            v.len()
        ));
    }
    Ok(v)
}

fn narrow<T: TryFrom<u64>>(j: &Json) -> Result<T, String> {
    let v = j.as_u64().ok_or_else(|| "not an integer".to_string())?;
    T::try_from(v).map_err(|_| format!("{v} is out of range"))
}

macro_rules! snap_uint {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn save(&self) -> Json {
                Json::Num(self.to_string())
            }
            fn load(j: &Json) -> Result<$t, String> {
                narrow(j)
            }
        }
    )*};
}

snap_uint!(u8, u32, u64, usize);

impl Snap for bool {
    fn save(&self) -> Json {
        Json::Bool(*self)
    }
    fn load(j: &Json) -> Result<bool, String> {
        j.as_bool().ok_or_else(|| "not a boolean".to_string())
    }
}

impl Snap for String {
    fn save(&self) -> Json {
        Json::str(self)
    }
    fn load(j: &Json) -> Result<String, String> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".to_string())
    }
}

impl Snap for f64 {
    fn save(&self) -> Json {
        Json::u64(self.to_bits())
    }
    fn load(j: &Json) -> Result<f64, String> {
        u64::load(j).map(f64::from_bits)
    }
}

impl Snap for Time {
    fn save(&self) -> Json {
        Json::u64(self.as_nanos())
    }
    fn load(j: &Json) -> Result<Time, String> {
        u64::load(j).map(Time::from_nanos)
    }
}

impl Snap for Freq {
    fn save(&self) -> Json {
        Json::u64(self.as_khz())
    }
    fn load(j: &Json) -> Result<Freq, String> {
        u64::load(j).map(Freq::from_khz)
    }
}

macro_rules! snap_id {
    ($($t:ident),*) => {$(
        impl Snap for $t {
            fn save(&self) -> Json {
                self.0.save()
            }
            fn load(j: &Json) -> Result<$t, String> {
                u32::load(j).map($t)
            }
        }
    )*};
}

snap_id!(TaskId, CoreId, BarrierId, ChannelId);

impl Snap for SimRng {
    fn save(&self) -> Json {
        self.state().save()
    }
    fn load(j: &Json) -> Result<SimRng, String> {
        <[u64; 4]>::load(j).map(SimRng::from_state)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::save)
    }
    fn load(j: &Json) -> Result<Option<T>, String> {
        if j.is_null() {
            Ok(None)
        } else {
            T::load(j).map(Some)
        }
    }
}

fn seq<'a, T: Snap + 'a>(values: impl IntoIterator<Item = &'a T>) -> Json {
    Json::Arr(values.into_iter().map(T::save).collect())
}

fn items(j: &Json) -> Result<&[Json], String> {
    j.as_arr().ok_or_else(|| "not an array".to_string())
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self) -> Json {
        seq(self)
    }
    fn load(j: &Json) -> Result<Vec<T>, String> {
        items(j)?
            .iter()
            .enumerate()
            .map(|(i, e)| T::load(e).map_err(|err| format!("entry {i}: {err}")))
            .collect()
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self) -> Json {
        seq(self)
    }
    fn load(j: &Json) -> Result<[T; N], String> {
        <[T; N]>::try_from(Vec::<T>::load(j)?)
            .map_err(|v| format!("has {} entries, not {N}", v.len()))
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn save(&self) -> Json {
        seq(self)
    }
    fn load(j: &Json) -> Result<BTreeSet<T>, String> {
        Vec::<T>::load(j).map(|v| v.into_iter().collect())
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self) -> Json {
        seq(self)
    }
    fn load(j: &Json) -> Result<VecDeque<T>, String> {
        Vec::<T>::load(j).map(VecDeque::from)
    }
}

fn tuple<const N: usize>(j: &Json) -> Result<&[Json; N], String> {
    items(j)?
        .try_into()
        .map_err(|_| format!("not a {N}-element array"))
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self) -> Json {
        Json::Arr(vec![self.0.save(), self.1.save()])
    }
    fn load(j: &Json) -> Result<(A, B), String> {
        let [a, b] = tuple(j)?;
        Ok((A::load(a)?, B::load(b)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self) -> Json {
        Json::Arr(vec![self.0.save(), self.1.save(), self.2.save()])
    }
    fn load(j: &Json) -> Result<(A, B, C), String> {
        let [a, b, c] = tuple(j)?;
        Ok((A::load(a)?, B::load(b)?, C::load(c)?))
    }
}

impl<T: Snap + Ord + Hash> Snap for HashSet<T> {
    fn save(&self) -> Json {
        let mut sorted: Vec<&T> = self.iter().collect();
        sorted.sort();
        seq(sorted)
    }
    fn load(j: &Json) -> Result<HashSet<T>, String> {
        Vec::<T>::load(j).map(|v| v.into_iter().collect())
    }
}

impl<K: Snap + Ord + Hash, V: Snap> Snap for HashMap<K, V> {
    fn save(&self) -> Json {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        Json::Arr(
            pairs
                .into_iter()
                .map(|(k, v)| Json::Arr(vec![k.save(), v.save()]))
                .collect(),
        )
    }
    fn load(j: &Json) -> Result<HashMap<K, V>, String> {
        Vec::<(K, V)>::load(j).map(|v| v.into_iter().collect())
    }
}

/// Encodes one enum variant as an object whose `"t"` key names the
/// variant, followed by its fields.
pub fn tagged(tag: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("t", Json::str(tag))];
    all.extend(fields);
    crate::json::obj(all)
}

/// Serializes one [`Action`], or `None` when it nests a task spec
/// whose behaviour cannot be checkpointed.
pub fn action_to_json(a: &Action) -> Option<Json> {
    Some(match a {
        Action::Compute { cycles } => tagged("compute", vec![("cycles", cycles.save())]),
        Action::Sleep { ns } => tagged("sleep", vec![("ns", ns.save())]),
        Action::Fork { child } => tagged("fork", vec![("child", task_spec_to_json(child)?)]),
        Action::WaitChildren => tagged("wait_children", vec![]),
        Action::Barrier { id } => tagged("barrier", vec![("id", id.save())]),
        Action::Send { ch, msgs } => tagged("send", vec![("ch", ch.save()), ("msgs", msgs.save())]),
        Action::Recv { ch } => tagged("recv", vec![("ch", ch.save())]),
        Action::Yield => tagged("yield", vec![]),
        Action::Exit => tagged("exit", vec![]),
    })
}

/// Restores one [`Action`] serialized by [`action_to_json`].
pub fn action_from_json(j: &Json, reg: &BehaviorRegistry) -> Result<Action, String> {
    match load::<String>(j, "t")?.as_str() {
        "compute" => Ok(Action::Compute {
            cycles: load(j, "cycles")?,
        }),
        "sleep" => Ok(Action::Sleep { ns: load(j, "ns")? }),
        "fork" => Ok(Action::Fork {
            child: task_spec_from_json(field(j, "child")?, reg)?,
        }),
        "wait_children" => Ok(Action::WaitChildren),
        "barrier" => Ok(Action::Barrier { id: load(j, "id")? }),
        "send" => Ok(Action::Send {
            ch: load(j, "ch")?,
            msgs: load(j, "msgs")?,
        }),
        "recv" => Ok(Action::Recv { ch: load(j, "ch")? }),
        "yield" => Ok(Action::Yield),
        "exit" => Ok(Action::Exit),
        other => Err(format!("unknown action tag \"{other}\"")),
    }
}

/// Serializes a [`TaskSpec`] (label plus tagged behaviour state), or
/// `None` when the behaviour cannot be checkpointed.
pub fn task_spec_to_json(spec: &TaskSpec) -> Option<Json> {
    let behavior = behavior_to_json(spec.behavior.as_ref())?;
    Some(crate::json::obj(vec![
        ("label", spec.label.save()),
        ("behavior", behavior),
    ]))
}

/// Restores a [`TaskSpec`] serialized by [`task_spec_to_json`].
pub fn task_spec_from_json(j: &Json, reg: &BehaviorRegistry) -> Result<TaskSpec, String> {
    Ok(TaskSpec {
        label: load(j, "label")?,
        behavior: behavior_from_json(field(j, "behavior")?, reg)?,
    })
}

/// Serializes a behaviour as a `{kind, state}` object, or `None` when
/// it does not support snapshots.
pub fn behavior_to_json(b: &dyn Behavior) -> Option<Json> {
    let (kind, state) = b.snap()?;
    Some(crate::json::obj(vec![
        ("kind", Json::str(kind)),
        ("state", state),
    ]))
}

/// Restores a behaviour from [`behavior_to_json`] output through the
/// registry.
pub fn behavior_from_json(j: &Json, reg: &BehaviorRegistry) -> Result<Box<dyn Behavior>, String> {
    reg.restore(&load::<String>(j, "kind")?, field(j, "state")?)
}

/// A restore function: rebuilds one behaviour kind from its saved
/// state. Receives the registry so nested specs restore recursively.
pub type RestoreFn = fn(&Json, &BehaviorRegistry) -> Result<Box<dyn Behavior>, String>;

/// Maps behaviour kind strings back to constructors.
///
/// Each crate that defines snapshotable behaviours contributes a
/// `register_behaviors(&mut BehaviorRegistry)` function; the top-level
/// runner chains them so every kind reachable from its workloads is
/// restorable. [`ScriptBehavior`] is pre-registered.
pub struct BehaviorRegistry {
    entries: HashMap<&'static str, RestoreFn>,
}

impl Default for BehaviorRegistry {
    fn default() -> BehaviorRegistry {
        BehaviorRegistry::new()
    }
}

impl BehaviorRegistry {
    /// Creates a registry with the simcore-native kinds registered.
    pub fn new() -> BehaviorRegistry {
        let mut reg = BehaviorRegistry {
            entries: HashMap::new(),
        };
        reg.register(SCRIPT_KIND, |state, reg| {
            let actions = items(state)?
                .iter()
                .map(|a| action_from_json(a, reg))
                .collect::<Result<Vec<Action>, String>>()?;
            Ok(Box::new(ScriptBehavior::new(actions)))
        });
        reg
    }

    /// Registers (or replaces) the restore function for `kind`.
    pub fn register(&mut self, kind: &'static str, f: RestoreFn) {
        self.entries.insert(kind, f);
    }

    /// Restores a behaviour of the given kind from its saved state.
    pub fn restore(&self, kind: &str, state: &Json) -> Result<Box<dyn Behavior>, String> {
        let f = self.entries.get(kind).ok_or_else(|| {
            format!("no restore function registered for behaviour kind \"{kind}\"")
        })?;
        f(state, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ChannelId;

    #[test]
    fn f64_bits_round_trip_is_exact() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, f64::NAN] {
            let obj = crate::json::obj(vec![("x", v.save())]);
            let back: f64 = load(&obj, "x").unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn value_shapes_have_one_fixed_encoding() {
        let map: HashMap<TaskId, Option<Time>> =
            [(TaskId(9), Some(Time::from_nanos(5))), (TaskId(2), None)]
                .into_iter()
                .collect();
        assert_eq!(
            map.save(),
            crate::json::parse("[[2, null], [9, 5]]").unwrap(),
            "maps travel as key-sorted pairs"
        );
        let triple = (7u64, CoreId(3), Freq::from_khz(2_100_000));
        assert_eq!(
            triple.save(),
            crate::json::parse("[7, 3, 2100000]").unwrap()
        );
        assert_eq!(<(u64, CoreId, Freq)>::load(&triple.save()).unwrap(), triple);
        let set: BTreeSet<(u64, TaskId)> = [(4, TaskId(1)), (1, TaskId(2))].into();
        assert_eq!(BTreeSet::load(&set.save()).unwrap(), set);
        assert_eq!(HashMap::load(&map.save()).unwrap(), map);
    }

    #[test]
    fn bad_values_are_errors_that_name_the_field() {
        let obj = crate::json::parse(r#"{"big": 4294967296, "cores": [1, 2], "t": "x"}"#).unwrap();
        let err = load::<u32>(&obj, "big").unwrap_err();
        assert!(
            err.contains("\"big\"") && err.contains("out of range"),
            "{err}"
        );
        assert!(load::<CoreId>(&obj, "big").is_err());
        let err = load_len::<u64>(&obj, "cores", 3).unwrap_err();
        assert!(err.contains("\"cores\" has 2 entries"), "{err}");
        assert_eq!(load_len::<u64>(&obj, "cores", 2).unwrap(), vec![1, 2]);
        assert!(load::<u64>(&obj, "t").unwrap_err().contains("\"t\""));
        assert!(load::<u64>(&obj, "nope").unwrap_err().contains("missing"));
        assert!(<(u64, u64, u64)>::load(&crate::json::parse("[1, 2]").unwrap()).is_err());
        assert!(SimRng::load(&crate::json::parse("[1, 2, 3]").unwrap()).is_err());
    }

    #[derive(Default)]
    struct Counters {
        hits: u64,
        per_core: Vec<u64>,
    }

    #[derive(Default)]
    struct Component {
        now: Time,
        counters: Counters,
        busy: Vec<bool>,
    }

    crate::snap_in_place!(Component {
        "now": now,
        "hits": counters.hits,
        "per_core": counters.per_core [len],
        "busy": busy [len],
    });

    fn component(n: usize) -> Component {
        Component {
            counters: Counters {
                per_core: vec![0; n],
                ..Counters::default()
            },
            busy: vec![false; n],
            ..Component::default()
        }
    }

    #[test]
    fn in_place_form_saves_in_declared_order_and_loads_nested_places() {
        let mut c = component(2);
        c.now = Time::from_nanos(7);
        c.counters.hits = 3;
        c.counters.per_core = vec![1, 2];
        c.busy = vec![true, false];
        let saved = crate::json::obj(c.snap_entries());
        assert_eq!(
            saved,
            crate::json::parse(
                r#"{"now": 7, "hits": 3, "per_core": [1, 2], "busy": [true, false]}"#
            )
            .unwrap()
        );
        let keys: Vec<&str> = c.snap_entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["now", "hits", "per_core", "busy"]);
        let mut back = component(2);
        back.load_entries(&saved).unwrap();
        assert_eq!(back.now, c.now);
        assert_eq!(back.counters.hits, 3);
        assert_eq!(back.counters.per_core, [1, 2]);
        assert_eq!(back.busy, [true, false]);
    }

    #[test]
    fn in_place_form_checks_lengths_and_names_missing_keys() {
        let saved = crate::json::obj(component(2).snap_entries());
        let err = component(3).load_entries(&saved).unwrap_err();
        assert_eq!(
            err,
            "snapshot field \"per_core\" has 2 entries, the machine has 3"
        );
        let partial =
            crate::json::parse(r#"{"now": 7, "per_core": [0, 0], "busy": [true, false]}"#).unwrap();
        let err = component(2).load_entries(&partial).unwrap_err();
        assert_eq!(err, "snapshot field \"hits\" missing");
    }

    #[test]
    fn rng_state_round_trips() {
        let mut rng = SimRng::new(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut restored = SimRng::load(&rng.save()).unwrap();
        let mut orig = SimRng::from_state(rng.state());
        for _ in 0..32 {
            assert_eq!(orig.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn script_behavior_snapshots_remaining_actions() {
        let mut b = ScriptBehavior::new(vec![
            Action::Compute { cycles: 7 },
            Action::Send {
                ch: ChannelId(3),
                msgs: 2,
            },
            Action::Yield,
        ]);
        let mut rng = SimRng::new(0);
        // Consume one action; the snapshot must hold only the remainder.
        assert!(matches!(b.next(&mut rng), Action::Compute { cycles: 7 }));
        let reg = BehaviorRegistry::new();
        let snapped = behavior_to_json(&b).unwrap();
        let mut restored = behavior_from_json(&snapped, &reg).unwrap();
        assert!(matches!(
            restored.next(&mut rng),
            Action::Send {
                ch: ChannelId(3),
                msgs: 2
            }
        ));
        assert!(matches!(restored.next(&mut rng), Action::Yield));
        assert!(matches!(restored.next(&mut rng), Action::Exit));
    }

    #[test]
    fn fork_actions_nest_recursively() {
        let inner = TaskSpec::script("child", vec![Action::Exit]);
        let a = Action::Fork { child: inner };
        let j = action_to_json(&a).unwrap();
        let reg = BehaviorRegistry::new();
        match action_from_json(&j, &reg).unwrap() {
            Action::Fork { child } => assert_eq!(child.label, "child"),
            other => panic!("wrong action: {other:?}"),
        }
    }

    #[test]
    fn unsnapshotable_behaviors_poison_the_spec() {
        let spec = TaskSpec::new(
            "fn",
            Box::new(crate::task::FnBehavior::new(|_| Action::Exit)),
        );
        assert!(task_spec_to_json(&spec).is_none());
        let a = Action::Fork { child: spec };
        assert!(action_to_json(&a).is_none());
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let reg = BehaviorRegistry::new();
        let err = reg.restore("martian", &Json::Null).err().unwrap();
        assert!(err.contains("martian"), "{err}");
    }
}
