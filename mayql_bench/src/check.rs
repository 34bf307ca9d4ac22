//! Correctness checks, all outside the timed calls: result digests compared
//! against an unoptimized single-threaded reference, `conf` range checks,
//! and the probability mass of repaired key groups.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};

use maybms_core::{ComponentSet, Tuple, URelation, Value};

/// An order-independent digest of a result's distinct `(tuple, descriptor)`
/// rows. Floats (the `conf` column) are compared at 1e-9, since the
/// reference path may sum the same probabilities in another order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Distinct rows.
    pub rows: u64,
    /// Wrapping sum of the distinct rows' hashes.
    pub sum: u64,
}

/// Digest a result relation.
pub fn digest(rel: &URelation) -> Digest {
    let mut seen = HashSet::with_capacity(rel.len());
    for (t, d) in rel.rows() {
        // `DefaultHasher::new` uses fixed keys: equal rows hash equally in
        // every process.
        let mut h = DefaultHasher::new();
        for v in t.values() {
            match v {
                Value::Float(f) => ((f.get() * 1e9).round() as i64).hash(&mut h),
                other => other.hash(&mut h),
            }
        }
        d.terms().hash(&mut h);
        seen.insert(h.finish());
    }
    Digest {
        rows: seen.len() as u64,
        sum: seen.iter().fold(0u64, |a, &x| a.wrapping_add(x)),
    }
}

/// Every `conf` value of a result lies in `[0, 1]`.
pub fn conf_in_range(rel: &URelation) -> Result<(), String> {
    let Ok(idx) = rel.schema().col_index(maybms_ql::CONF_COLUMN) else {
        return Ok(());
    };
    for (t, _) in rel.rows() {
        match t.get(idx) {
            Value::Float(f) if (0.0..=1.0).contains(&f.get()) => {}
            v => return Err(format!("conf value {v:?} outside [0, 1]")),
        }
    }
    Ok(())
}

/// Each key group of a repaired relation carries alternatives whose
/// probabilities sum to 1.
pub fn repair_groups_sum_to_one(
    rel: &URelation,
    key: &[String],
    components: &ComponentSet,
) -> Result<(), String> {
    let idx: Vec<usize> = key
        .iter()
        .map(|k| rel.schema().col_index(k))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut mass: BTreeMap<Tuple, f64> = BTreeMap::new();
    for (t, d) in rel.rows() {
        *mass.entry(t.project(&idx)).or_default() += components.prob_of_descriptor(d);
    }
    match mass.iter().find(|(_, &p)| (p - 1.0).abs() > 1e-9) {
        Some((k, p)) => Err(format!("key group {k:?} sums to probability {p}")),
        None => Ok(()),
    }
}
