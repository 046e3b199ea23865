//! Node features: attribute–value pairs (paper §2).
//!
//! "Nodes have features, such as timestamp, author, etc., modeled as
//! attribute-value pairs." Surrogate nodes protect information by omitting
//! or coarsening features (§3.1), so feature equality and counting are the
//! basis of the default info-score heuristics.

use std::fmt;

/// A single feature value.
///
/// The variants cover the kinds of metadata the paper mentions (authors,
/// timestamps, phone numbers, threat levels, ...). `Timestamp` is integer
/// milliseconds so equality and ordering stay exact.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FeatureValue {
    /// Free text, e.g. `<name, "Joe">`.
    Str(String),
    /// Integer quantity, e.g. `<affected_patients, 412>`.
    Int(i64),
    /// Floating-point quantity, e.g. `<confidence, 0.9>`.
    Float(f64),
    /// Boolean flag, e.g. `<court_sanctioned, true>`.
    Bool(bool),
    /// Milliseconds since the epoch.
    Timestamp(i64),
}

impl FeatureValue {
    /// Short type tag used in displays and the wire codec.
    pub fn type_name(&self) -> &'static str {
        match self {
            FeatureValue::Str(_) => "str",
            FeatureValue::Int(_) => "int",
            FeatureValue::Float(_) => "float",
            FeatureValue::Bool(_) => "bool",
            FeatureValue::Timestamp(_) => "timestamp",
        }
    }
}

impl fmt::Display for FeatureValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureValue::Str(s) => write!(f, "{s:?}"),
            FeatureValue::Int(i) => write!(f, "{i}"),
            FeatureValue::Float(x) => write!(f, "{x}"),
            FeatureValue::Bool(b) => write!(f, "{b}"),
            FeatureValue::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<&str> for FeatureValue {
    fn from(s: &str) -> Self {
        FeatureValue::Str(s.to_owned())
    }
}

impl From<String> for FeatureValue {
    fn from(s: String) -> Self {
        FeatureValue::Str(s)
    }
}

impl From<i64> for FeatureValue {
    fn from(i: i64) -> Self {
        FeatureValue::Int(i)
    }
}

impl From<f64> for FeatureValue {
    fn from(x: f64) -> Self {
        FeatureValue::Float(x)
    }
}

impl From<bool> for FeatureValue {
    fn from(b: bool) -> Self {
        FeatureValue::Bool(b)
    }
}

/// An ordered attribute → value map.
///
/// The entries are one `Vec` sorted by attribute, so iteration is in
/// attribute order — deterministic for the wire codec, for snapshot
/// tests and for reproducible examples — and a lookup is a binary
/// search. A node usually carries one to three features, and a sorted
/// `Vec` holds them in one heap block of exactly their size, where a
/// `BTreeMap` takes a whole leaf node for one entry. [`set`](Self::set)
/// keeps the block exact: a payload is written once and then read and
/// shared by every view of it.
///
/// Bulk construction ([`FromIterator`]) takes its entries in any order:
/// it sorts them stably and keeps the last value of each attribute,
/// as many [`set`](Self::set)s in that order would, in O(k log k).
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Features {
    entries: Vec<(String, FeatureValue)>,
}

impl Features {
    /// Creates an empty feature map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<FeatureValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Position of `key`, or where it would be inserted.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Inserts or replaces a feature.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<FeatureValue>) {
        let key = key.into();
        let value = value.into();
        match self.find(&key) {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => {
                self.entries.reserve_exact(1);
                self.entries.insert(at, (key, value));
            }
        }
    }

    /// Looks up a feature by attribute name.
    pub fn get(&self, key: &str) -> Option<&FeatureValue> {
        self.find(key).ok().map(|at| &self.entries[at].1)
    }

    /// Removes a feature, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<FeatureValue> {
        self.find(key).ok().map(|at| self.entries.remove(at).1)
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no features are present (a `<null>` surrogate).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FeatureValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fraction of `original`'s features that `self` preserves verbatim.
    ///
    /// This is the default `infoScore` heuristic of §4.1: a surrogate
    /// keeping `<name, "Joe">` but dropping `<phone, …>` scores 0.5 against
    /// a two-feature original. An original scores 1 against itself; if the
    /// original has no features, any surrogate scores 1 (nothing lost).
    pub fn retention_against(&self, original: &Features) -> f64 {
        if original.is_empty() {
            return 1.0;
        }
        let kept = original
            .iter()
            .filter(|(k, v)| self.get(k) == Some(v))
            .count();
        kept as f64 / original.len() as f64
    }
}

impl<K: Into<String>, V: Into<FeatureValue>> FromIterator<(K, V)> for Features {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: Vec<(String, FeatureValue)> = iter
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        // Stable, so the entries of one attribute stay in input order;
        // the dedup then moves the last one's value into the first's slot.
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries.dedup_by(|(later, value), (kept, kept_value)| {
            let same = later == kept;
            if same {
                std::mem::swap(value, kept_value);
            }
            same
        });
        Features { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn builder_and_lookup() {
        let f = Features::new()
            .with("name", "Joe")
            .with("phone", "123-456-7890");
        assert_eq!(f.len(), 2);
        assert_eq!(f.get("name"), Some(&FeatureValue::Str("Joe".into())));
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn set_replaces() {
        let mut f = Features::new().with("k", 1i64);
        f.set("k", 2i64);
        assert_eq!(f.get("k"), Some(&FeatureValue::Int(2)));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a = Features::new().with("x", 1i64).with("y", 2i64);
        let b = Features::new().with("y", 2i64).with("x", 1i64);
        assert_eq!(a, b);
    }

    #[test]
    fn retention_matches_paper_example() {
        // §4.1: original has <phone, …> and <name, "Joe">; the surrogate
        // keeps only the name, so it is strictly less informative.
        let original = Features::new()
            .with("phone", "123-456-7890")
            .with("name", "Joe");
        let surrogate = Features::new().with("name", "Joe");
        assert_eq!(surrogate.retention_against(&original), 0.5);
        assert_eq!(original.retention_against(&original), 1.0);
        assert_eq!(Features::new().retention_against(&original), 0.0);
    }

    #[test]
    fn retention_counts_changed_values_as_lost() {
        let original = Features::new().with("substance", "heroin");
        let surrogate = Features::new().with("substance", "illegal substance");
        assert_eq!(surrogate.retention_against(&original), 0.0);
    }

    #[test]
    fn retention_against_empty_original_is_one() {
        let original = Features::new();
        let surrogate = Features::new().with("extra", 1i64);
        assert_eq!(surrogate.retention_against(&original), 1.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(FeatureValue::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(FeatureValue::Int(3).to_string(), "3");
        assert_eq!(FeatureValue::Bool(true).to_string(), "true");
        assert_eq!(FeatureValue::Timestamp(9).to_string(), "@9");
        assert_eq!(FeatureValue::Float(1.5).to_string(), "1.5");
    }

    #[test]
    fn from_iterator_collects() {
        let f: Features = vec![("a", 1i64), ("b", 2i64)].into_iter().collect();
        assert_eq!(f.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `set`, `remove` and `from_iter`, on keys drawn from a small
        /// alphabet so duplicates are common and arrive unsorted, agree
        /// with a `BTreeMap` model on every lookup and on iteration order.
        #[test]
        fn features_match_a_btreemap_model(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let key = |rng: &mut StdRng| format!("k{}", rng.gen_range(0..12u32));
            let pairs: Vec<(String, i64)> = (0..rng.gen_range(0..24usize))
                .map(|_| (key(&mut rng), rng.gen_range(-5..5i64)))
                .collect();
            let mut model: BTreeMap<String, FeatureValue> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), FeatureValue::Int(*v)))
                .collect();
            let mut features: Features = pairs.into_iter().collect();
            for _ in 0..rng.gen_range(0..32usize) {
                let k = key(&mut rng);
                if rng.gen_bool(0.6) {
                    let v = FeatureValue::Str(format!("v{}", rng.gen_range(0..4u32)));
                    model.insert(k.clone(), v.clone());
                    features.set(k, v);
                } else {
                    prop_assert_eq!(features.remove(&k), model.remove(&k));
                }
                prop_assert_eq!(features.len(), model.len());
            }
            for i in 0..12u32 {
                let k = format!("k{i}");
                prop_assert_eq!(features.get(&k), model.get(&k));
            }
            let got: Vec<(&str, &FeatureValue)> = features.iter().collect();
            let want: Vec<(&str, &FeatureValue)> =
                model.iter().map(|(k, v)| (k.as_str(), v)).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn type_names() {
        assert_eq!(FeatureValue::from("x").type_name(), "str");
        assert_eq!(FeatureValue::from(1i64).type_name(), "int");
        assert_eq!(FeatureValue::from(1.0f64).type_name(), "float");
        assert_eq!(FeatureValue::from(true).type_name(), "bool");
        assert_eq!(FeatureValue::Timestamp(0).type_name(), "timestamp");
    }
}
