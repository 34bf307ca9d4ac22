//! Per-relation statistics for cost-based planning.
//!
//! One pass over a u-relation produces a [`RelationStats`]: the row count,
//! per-column distinct-count estimates (a KMV sketch — the k minimum hash
//! values — plus exact min/max), and a descriptor-density summary (the
//! fraction of rows whose descriptor is non-trivial, and the mean number of
//! alternatives of the components the relation references). A
//! [`WorldSet`] computes one per relation from its stored columns
//! (`collect_columnar`) when the relation is inserted, refreshes the
//! descriptor summary when it is normalized, and keeps it beside the
//! relation; the `sql` catalog copies them and the cost-based optimizer
//! phase in `maybms-algebra` consumes them through its `StatsProvider`
//! trait. `maybms-core` itself attaches no planning semantics to the
//! numbers. The row-based [`collect`] is the reference the columnar pass is
//! tested against.
//!
//! ## KMV accuracy
//!
//! With `k` = [`KMV_K`] minima kept, the classical KMV estimator
//! `D ≈ (k − 1) / R_k` (where `R_k` is the k-th smallest hash scaled to
//! `[0, 1]`) is unbiased with relative standard error `≈ 1/√(k − 2)` —
//! about 6% at `k = 256`. Below `k` distinct hashes the sketch *is* the
//! exact distinct set, so small domains are counted exactly.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::columnar::{ColumnData, ColumnVec, ColumnarURelation, StrPool};
use crate::component::ComponentSet;
use crate::fxhash::{FxHashSet, FxHasher};
use crate::intern::{DescId, DescriptorPool};
use crate::urel::URelation;
use crate::value::Value;
use crate::world::WorldSet;

/// Minima kept per KMV sketch (relative standard error ≈ 1/√(k − 2) ≈ 6%).
pub const KMV_K: usize = 256;

/// A k-minimum-values distinct-count sketch over 64-bit hashes.
///
/// Inserts are O(log k) against a bounded max-heap; duplicates of a kept
/// hash are ignored via a membership set, so repeated values never skew the
/// estimate. `FxHasher` output is finalized with a SplitMix64-style mixer —
/// KMV needs uniformly distributed hashes and Fx alone is too regular on
/// sequential integers.
#[derive(Clone, Debug, Default)]
pub struct KmvSketch {
    /// Max-heap of the `KMV_K` smallest hashes seen (root = current k-th min).
    heap: std::collections::BinaryHeap<u64>,
    /// Membership of `heap`, so duplicate hashes are inserted once.
    members: FxHashSet<u64>,
}

impl KmvSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        KmvSketch::default()
    }

    /// Observe one value.
    pub fn observe(&mut self, v: &Value) {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        self.observe_hash(mix64(h.finish()));
    }

    fn observe_hash(&mut self, h: u64) {
        // At capacity, a hash at or above the current k-th minimum changes
        // nothing (a kept duplicate equals it at most) — the common case,
        // decided without touching the membership set.
        if self.heap.len() == KMV_K && h >= *self.heap.peek().expect("heap holds KMV_K entries") {
            return;
        }
        if self.members.contains(&h) {
            return;
        }
        if self.heap.len() < KMV_K {
            self.heap.push(h);
            self.members.insert(h);
        } else if h < *self.heap.peek().expect("heap holds KMV_K entries") {
            let evicted = self.heap.pop().expect("heap holds KMV_K entries");
            self.members.remove(&evicted);
            self.heap.push(h);
            self.members.insert(h);
        }
    }

    /// The distinct-count estimate: exact below `KMV_K` distinct hashes,
    /// `(k − 1)/R_k` at capacity.
    pub fn estimate(&self) -> f64 {
        if self.heap.len() < KMV_K {
            return self.heap.len() as f64;
        }
        let kth = *self.heap.peek().expect("heap holds KMV_K entries");
        let r = (kth as f64 + 1.0) / 2f64.powi(64);
        (KMV_K as f64 - 1.0) / r
    }
}

/// SplitMix64 finalizer: full-avalanche mixing of a 64-bit word.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One column's statistics: estimated distinct count and exact min/max.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values (exact for small domains).
    pub distinct: f64,
    /// Smallest and largest value seen (`None` for an empty relation).
    pub min_max: Option<(Value, Value)>,
}

/// One relation's statistics, collected in a single pass by [`collect`].
#[derive(Clone, Debug, PartialEq)]
pub struct RelationStats {
    /// Number of stored rows (duplicates included).
    pub rows: u64,
    /// Per-column stats, keyed by column name.
    pub columns: BTreeMap<String, ColumnStats>,
    /// Fraction of rows carrying a non-trivial (non-tautology) descriptor.
    pub nontrivial_frac: f64,
    /// Mean alternative count over the components the relation references
    /// (0.0 when every descriptor is trivial).
    pub mean_alternatives: f64,
}

impl RelationStats {
    /// Stats of an empty certain relation (no rows, no columns observed).
    pub fn empty() -> Self {
        RelationStats {
            rows: 0,
            columns: BTreeMap::new(),
            nontrivial_frac: 0.0,
            mean_alternatives: 0.0,
        }
    }
}

/// Collect [`RelationStats`] for one u-relation in a single pass over its
/// rows. `comps` resolves the alternative counts of referenced components.
pub fn collect(rel: &URelation, comps: &ComponentSet) -> RelationStats {
    let names = rel.schema().names();
    let mut sketches: Vec<KmvSketch> = names.iter().map(|_| KmvSketch::new()).collect();
    let mut min_max: Vec<Option<(Value, Value)>> = vec![None; names.len()];
    let mut nontrivial = 0u64;
    let mut referenced: FxHashSet<u32> = FxHashSet::default();
    for (tuple, desc) in rel.rows() {
        for (i, v) in tuple.values().iter().enumerate() {
            sketches[i].observe(v);
            match &mut min_max[i] {
                None => min_max[i] = Some((v.clone(), v.clone())),
                Some((lo, hi)) => {
                    if v < lo {
                        *lo = v.clone();
                    }
                    if v > hi {
                        *hi = v.clone();
                    }
                }
            }
        }
        if !desc.is_tautology() {
            nontrivial += 1;
            for &(c, _) in desc.terms() {
                referenced.insert(c.0);
            }
        }
    }
    let rows = rel.len() as u64;
    let mean_alternatives = if referenced.is_empty() {
        0.0
    } else {
        referenced
            .iter()
            .map(|&c| comps.get(crate::descriptor::ComponentId(c)).alternatives() as f64)
            .sum::<f64>()
            / referenced.len() as f64
    };
    RelationStats {
        rows,
        columns: names
            .into_iter()
            .zip(sketches.iter().zip(min_max))
            .map(|(name, (sk, mm))| {
                (
                    name.to_string(),
                    ColumnStats {
                        distinct: sk.estimate(),
                        min_max: mm,
                    },
                )
            })
            .collect(),
        nontrivial_frac: if rows == 0 {
            0.0
        } else {
            nontrivial as f64 / rows as f64
        },
        mean_alternatives,
    }
}

/// [`collect`] over a columnar relation, reading its cells in place:
/// identical numbers (the KMV sketch hashes string *contents*, exactly as
/// the row pass hashes [`Value`]s), one sweep per column. Strings are
/// sketched and ranged once per distinct code.
pub(crate) fn collect_columnar(
    rel: &ColumnarURelation,
    pool: &DescriptorPool,
    strings: &StrPool,
    comps: &ComponentSet,
) -> RelationStats {
    let columns = rel
        .schema()
        .names()
        .into_iter()
        .zip(rel.columns())
        .map(|(name, col)| (name.to_string(), column_stats(col, strings)))
        .collect();
    let mut stats = RelationStats {
        rows: 0,
        columns,
        nontrivial_frac: 0.0,
        mean_alternatives: 0.0,
    };
    stats.refresh_descriptors(rel.descs(), pool, comps);
    stats
}

/// One column's [`ColumnStats`], as [`collect`] would compute them from the
/// column's values.
fn column_stats(col: &ColumnVec, strings: &StrPool) -> ColumnStats {
    let mut sketch = KmvSketch::new();
    let mut min_max: Option<(Value, Value)> = None;
    let mut widen = |v: &Value| match &mut min_max {
        None => min_max = Some((v.clone(), v.clone())),
        Some((lo, hi)) => {
            if v < lo {
                *lo = v.clone();
            }
            if v > hi {
                *hi = v.clone();
            }
        }
    };
    match col.data() {
        ColumnData::Str(codes) => {
            // The sketch and the range depend only on the distinct values,
            // so each code is looked at once; one reused buffer carries the
            // string into the `Value` the sketch hashes.
            let mut seen = vec![false; strings.len()];
            let mut seen_null = false;
            let mut buf = Value::Str(String::new());
            for (i, &code) in codes.iter().enumerate() {
                if col.is_null(i) {
                    if !std::mem::replace(&mut seen_null, true) {
                        sketch.observe(&Value::Null);
                        widen(&Value::Null);
                    }
                    continue;
                }
                if std::mem::replace(&mut seen[code as usize], true) {
                    continue;
                }
                if let Value::Str(b) = &mut buf {
                    b.clear();
                    b.push_str(strings.get(code));
                }
                sketch.observe(&buf);
                widen(&buf);
            }
        }
        _ => {
            for i in 0..col.len() {
                let v = col.value(i, strings);
                sketch.observe(&v);
                widen(&v);
            }
        }
    }
    ColumnStats {
        distinct: sketch.estimate(),
        min_max,
    }
}

impl RelationStats {
    /// Recompute the row count and the descriptor summary from a relation's
    /// descriptor column, keeping the column statistics. Normalization
    /// rewrites descriptors and drops duplicate rows, but never adds or
    /// removes a distinct tuple, so the column sketches and ranges it would
    /// recompute are the ones already here.
    pub(crate) fn refresh_descriptors(
        &mut self,
        descs: &[DescId],
        pool: &DescriptorPool,
        comps: &ComponentSet,
    ) {
        let mut referenced = vec![false; comps.len()];
        let (mut nontrivial, mut count, mut alternatives) = (0u64, 0u64, 0u64);
        for &d in descs {
            if d.is_tautology() {
                continue;
            }
            nontrivial += 1;
            for &(c, _) in pool.terms(d) {
                if !std::mem::replace(&mut referenced[c.0 as usize], true) {
                    count += 1;
                    alternatives += comps.get(c).alternatives() as u64;
                }
            }
        }
        self.rows = descs.len() as u64;
        self.nontrivial_frac = if descs.is_empty() {
            0.0
        } else {
            nontrivial as f64 / descs.len() as f64
        };
        self.mean_alternatives = if count == 0 {
            0.0
        } else {
            alternatives as f64 / count as f64
        };
    }
}

/// The stored statistics of every relation of a world set.
pub fn world_set_stats(ws: &WorldSet) -> BTreeMap<String, RelationStats> {
    ws.relations()
        .map(|(name, rel)| (name.to_string(), rel.stats().clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::descriptor::WsDescriptor;
    use crate::rel::Tuple;
    use crate::schema::Schema;
    use crate::value::ValueType;

    #[test]
    fn small_domains_are_exact() {
        let mut sk = KmvSketch::new();
        for i in 0..100 {
            sk.observe(&Value::Int(i % 17));
        }
        assert_eq!(sk.estimate(), 17.0);
    }

    #[test]
    fn large_domains_estimate_within_kmv_error() {
        let mut sk = KmvSketch::new();
        for i in 0..50_000 {
            sk.observe(&Value::Int(i));
        }
        let est = sk.estimate();
        let rel_err = (est - 50_000.0).abs() / 50_000.0;
        // 1/√(k−2) ≈ 6.3% standard error; 4σ gives a deterministic bound
        // with huge margin (the hash stream is fixed, so this cannot flake).
        assert!(rel_err < 0.25, "estimate {est} off by {rel_err}");
    }

    #[test]
    fn collect_summarizes_columns_and_descriptors() {
        let mut ws = WorldSet::new();
        let c = ws.components.add(Component::uniform(4).expect("4 > 0"));
        let schema = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Str)]).unwrap();
        let mut rel = URelation::new(schema);
        for i in 0..10 {
            let desc = if i % 2 == 0 {
                WsDescriptor::tautology()
            } else {
                WsDescriptor::single(c, (i % 4) as u16)
            };
            rel.push(
                Tuple::new(vec![Value::Int(i % 3), Value::str(format!("s{}", i % 5))]),
                desc,
            )
            .unwrap();
        }
        let stats = collect(&rel, &ws.components);
        assert_eq!(stats.rows, 10);
        assert_eq!(stats.columns["a"].distinct, 3.0);
        assert_eq!(stats.columns["b"].distinct, 5.0);
        assert_eq!(
            stats.columns["a"].min_max,
            Some((Value::Int(0), Value::Int(2)))
        );
        assert!((stats.nontrivial_frac - 0.5).abs() < 1e-12);
        assert_eq!(stats.mean_alternatives, 4.0);
    }

    #[test]
    fn empty_relation_has_empty_stats() {
        let schema = Schema::of(&[("a", ValueType::Int)]).unwrap();
        let rel = URelation::new(schema);
        let stats = collect(&rel, &ComponentSet::new());
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.columns["a"].distinct, 0.0);
        assert_eq!(stats.columns["a"].min_max, None);
    }
}
