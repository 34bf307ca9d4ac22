//! The uncertain database: a component set plus named u-relations, stored
//! columnar over persistent interning pools, with exhaustive world
//! enumeration (the differential-testing oracle).
//!
//! Each relation is stored once, as a [`ColumnarURelation`] whose
//! descriptor handles and string codes live in the world set's own
//! [`DescriptorPool`] and [`StrPool`]; executor scans borrow those columns
//! directly. The row form ([`URelation`]) is only the I/O and oracle
//! boundary: [`WorldSet::insert`] converts rows once, and
//! [`WorldSet::relation`] builds a row view on first request (dropped when
//! the relation changes). An executor run mints into an overlay on the
//! descriptor pool that is discarded when it ends
//! ([`WorldSet::with_run_overlay`]), so runs never grow the pools.
//! Replacing relations can leave entries no relation references; a
//! compaction pass drops them once they outnumber the live ones.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::columnar::{ColumnarURelation, StrPool};
use crate::component::{ComponentSet, WorldPick};
use crate::error::MayError;
use crate::intern::{DescId, DescriptorPool};
use crate::normalize;
use crate::rel::Relation;
use crate::schema::Schema;
use crate::stats::{collect_columnar, RelationStats};
use crate::urel::URelation;
use crate::value::ValueType;

/// One fully instantiated database: a plain relation per name.
pub type Db = BTreeMap<String, Relation>;

/// One stored relation: its columns (over the owning world set's pools),
/// its statistics, and the lazily built row view.
#[derive(Clone, Debug)]
pub struct StoredRelation {
    columnar: ColumnarURelation,
    stats: RelationStats,
    rows: OnceLock<URelation>,
}

impl StoredRelation {
    /// The stored columns. Descriptor handles and string codes resolve
    /// against the owning world set's pools.
    pub fn columnar(&self) -> &ColumnarURelation {
        &self.columnar
    }

    /// The relation's statistics, collected from its columns when it was
    /// inserted (descriptor summary refreshed by normalization).
    pub fn stats(&self) -> &RelationStats {
        &self.stats
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.columnar.schema()
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.columnar.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.columnar.is_empty()
    }

    /// Install a normalized replacement of the columns and refresh what
    /// depends on them.
    pub(crate) fn replace_normalized(
        &mut self,
        columnar: ColumnarURelation,
        pool: &DescriptorPool,
        components: &ComponentSet,
    ) {
        self.stats
            .refresh_descriptors(columnar.descs(), pool, components);
        self.columnar = columnar;
        self.clear_rows();
    }

    /// Drop the row view (the stored content or its descriptors changed).
    pub(crate) fn clear_rows(&mut self) {
        self.rows = OnceLock::new();
    }
}

/// The stored relations of a world set, by name.
pub type Relations = BTreeMap<String, StoredRelation>;

/// Split borrows of a world set for one executor run, handed out by
/// [`WorldSet::with_run_overlay`]: the stored relations and the string pool
/// read-only, the component set (so `repair-key` can mint components) and
/// the descriptor pool (for the run's conjunctions and mints) mutably.
pub struct RunParts<'a> {
    /// The stored relations, by name.
    pub relations: &'a Relations,
    /// The components of the world set.
    pub components: &'a mut ComponentSet,
    /// The descriptor pool, with the run's overlay open: everything
    /// interned or conjoined through it is discarded when the run ends.
    pub pool: &'a mut DescriptorPool,
    /// The string pool every stored string cell is a code into.
    pub strings: &'a StrPool,
}

/// A world-set decomposition of an uncertain database: independent
/// [`ComponentSet`] choices plus named u-relations whose descriptors
/// reference those components.
#[derive(Clone, Debug, Default)]
pub struct WorldSet {
    /// The independent components (the product decomposition of the worlds).
    pub components: ComponentSet,
    /// The stored relations, by name.
    pub(crate) relations: Relations,
    /// Descriptor handles of every stored relation resolve here.
    pub(crate) pool: DescriptorPool,
    /// String codes of every stored relation resolve here.
    pub(crate) strings: StrPool,
    /// Upper bound on descriptor-pool entries no relation references.
    dead_descs: usize,
    /// Upper bound on string-pool entries no relation references.
    dead_strings: usize,
}

impl WorldSet {
    /// An empty world set: no components (one world), no relations.
    pub fn new() -> Self {
        WorldSet::default()
    }

    /// Insert or replace a relation, converting it to the stored columnar
    /// form once and collecting its statistics. Each *distinct* descriptor
    /// is validated against the current component set (unknown components
    /// or out-of-range alternatives are rejected here rather than panicking
    /// during later enumeration or confidence computation); a rejected
    /// relation leaves the stored relations unchanged.
    pub fn insert(&mut self, name: impl Into<String>, rel: URelation) -> Result<(), MayError> {
        let minted_from = self.pool.len();
        let mut checked: Vec<bool> = Vec::new();
        let mut descs = Vec::with_capacity(rel.len());
        for (_, d) in rel.rows() {
            let id = self.pool.intern(d);
            if id.index() >= checked.len() {
                checked.resize(self.pool.len(), false);
            }
            if !checked[id.index()] {
                if let Err(e) = self.components.validate_descriptor(d) {
                    // What this relation interned is referenced by nothing.
                    self.dead_descs += self.pool.len() - minted_from;
                    self.maybe_compact();
                    return Err(e);
                }
                checked[id.index()] = true;
            }
            descs.push(id);
        }
        let columnar = ColumnarURelation::from_urelation_descs(&rel, descs, &mut self.strings);
        // The row form is not kept: free it before the statistics pass.
        drop(rel);
        let stats = collect_columnar(&columnar, &self.pool, &self.strings, &self.components);
        let stored = StoredRelation {
            columnar,
            stats,
            rows: OnceLock::new(),
        };
        if let Some(old) = self.relations.insert(name.into(), stored) {
            self.dead_descs += old.len();
            self.dead_strings += old.len() * str_columns(old.schema());
            self.maybe_compact();
        }
        Ok(())
    }

    /// The relation with the given name, in row form. The row view is built
    /// from the stored columns on first request and kept until the relation
    /// changes; the query path never reads it.
    pub fn relation(&self, name: &str) -> Result<&URelation, MayError> {
        let stored = self.stored(name)?;
        Ok(stored
            .rows
            .get_or_init(|| stored.columnar.to_urelation(&self.pool, &self.strings)))
    }

    /// The stored form of the named relation.
    pub fn stored(&self, name: &str) -> Result<&StoredRelation, MayError> {
        self.relations
            .get(name)
            .ok_or_else(|| MayError::UnknownRelation(name.to_string()))
    }

    /// The stored relations, in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &StoredRelation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// The relation names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// True when no relation is stored.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The descriptor pool the stored relations' handles resolve against.
    pub fn pool(&self) -> &DescriptorPool {
        &self.pool
    }

    /// The string pool the stored relations' string codes resolve against.
    pub fn strings(&self) -> &StrPool {
        &self.strings
    }

    /// Run `f` — one executor run — over split borrows of the world set,
    /// with a per-run overlay on the descriptor pool: every descriptor `f`
    /// interns or conjoins is discarded when `f` returns (on success and on
    /// error alike), so a run never grows the world set's pools and the
    /// pool's state before each run depends only on the world set.
    /// Components `f` adds persist.
    pub fn with_run_overlay<R>(&mut self, f: impl FnOnce(RunParts<'_>) -> R) -> R {
        self.pool.open_overlay();
        let out = f(RunParts {
            relations: &self.relations,
            components: &mut self.components,
            pool: &mut self.pool,
            strings: &self.strings,
        });
        self.pool.discard_overlay();
        out
    }

    /// Enumerate every possible world together with its probability.
    ///
    /// This fully expands the decomposition and is exponential in the number
    /// of components; it exists as the *naive oracle* that the compact
    /// WSD-level evaluators are property-tested against, and for tiny
    /// databases. `limit` bounds the number of worlds.
    pub fn enumerate(&self, limit: u128) -> Result<Vec<(WorldPick, Db, f64)>, MayError> {
        let picks = self.components.enumerate(limit)?;
        let rows: Vec<(&str, &URelation)> = self
            .names()
            .map(|n| Ok((n, self.relation(n)?)))
            .collect::<Result<_, MayError>>()?;
        let mut out = Vec::with_capacity(picks.len());
        for pick in picks {
            let db: Db = rows
                .iter()
                .map(|&(n, r)| (n.to_string(), r.instantiate(&pick)))
                .collect();
            let p = self.components.prob_of_pick(&pick);
            out.push((pick, db, p));
        }
        Ok(out)
    }

    /// Aggregate the enumeration into a distribution over database
    /// *instances*: distinct worlds with identical relation contents are
    /// merged and their probabilities summed. This is the semantics that
    /// [`WorldSet::normalize`] preserves exactly.
    pub fn instance_distribution(&self, limit: u128) -> Result<Vec<(Db, f64)>, MayError> {
        let mut agg: BTreeMap<Db, f64> = BTreeMap::new();
        for (_, db, p) in self.enumerate(limit)? {
            *agg.entry(db).or_insert(0.0) += p;
        }
        Ok(agg.into_iter().collect())
    }

    /// Normalize the decomposition in place: simplify and absorb
    /// descriptors, merge rows that together cover all alternatives of a
    /// component, and garbage-collect components no relation references.
    /// See [`crate::normalize`] for the exact rewrites and the invariant.
    pub fn normalize(&mut self) {
        normalize::normalize(self);
    }

    /// [`normalize`](Self::normalize) with an explicit parallelism
    /// configuration; the result is identical for every thread count.
    pub fn normalize_with(&mut self, par: &crate::parallel::ParCfg) {
        normalize::normalize_with(self, par);
    }

    /// One flag per descriptor-pool entry: referenced by a stored relation
    /// (the tautology always counts as live).
    pub(crate) fn live_descs(&self) -> Vec<bool> {
        let mut live = vec![false; self.pool.len()];
        live[DescId::TAUTOLOGY.index()] = true;
        for rel in self.relations.values() {
            for &d in rel.columnar.descs() {
                live[d.index()] = true;
            }
        }
        live
    }

    /// Drop the dead descriptor entries (per `live`) when they outnumber
    /// the live ones, otherwise record their exact count. `renumber` (an
    /// old → new component table) forces the compaction and rewrites the
    /// survivors' component ids in the same pass.
    pub(crate) fn sweep_descs(&mut self, live: &[bool], renumber: Option<&[u32]>) {
        let alive = live.iter().filter(|&&l| l).count();
        let dead = live.len() - alive;
        if renumber.is_some() || dead > alive {
            let map = self.pool.compact(live, renumber);
            for rel in self.relations.values_mut() {
                rel.columnar.remap_descs(&map);
            }
            self.dead_descs = 0;
        } else {
            self.dead_descs = dead;
        }
    }

    /// Compact whichever pool may hold more dead entries than live ones.
    /// The bounds are cheap upper estimates; a sweep runs only when a bound
    /// says compaction could be due, and replaces the bound by the exact
    /// count. Afterwards each pool holds at most twice its live entries.
    fn maybe_compact(&mut self) {
        if self.dead_descs * 2 > self.pool.len() {
            let live = self.live_descs();
            self.sweep_descs(&live, None);
        }
        if self.dead_strings * 2 > self.strings.len() {
            let mut live = vec![false; self.strings.len()];
            for rel in self.relations.values() {
                for c in rel.columnar.columns() {
                    c.mark_str_codes(&mut live);
                }
            }
            let alive = live.iter().filter(|&&l| l).count();
            let dead = live.len() - alive;
            if dead > alive {
                let map = self.strings.compact(&live);
                for rel in self.relations.values_mut() {
                    rel.columnar.remap_strings(&map);
                }
                self.dead_strings = 0;
            } else {
                self.dead_strings = dead;
            }
        }
    }
}

/// Two world sets are equal when their components are equal and they store
/// the same relations: equal names and schemas, and equal rows in the same
/// order, compared by content — how the pools happen to number descriptors
/// and strings is not observable.
impl PartialEq for WorldSet {
    fn eq(&self, other: &Self) -> bool {
        let same_rows = |a: &ColumnarURelation, b: &ColumnarURelation| {
            (0..a.len()).all(|i| {
                self.pool.terms(a.descs()[i]) == other.pool.terms(b.descs()[i])
                    && a.tuple_at(i, &self.strings) == b.tuple_at(i, &other.strings)
            })
        };
        self.components == other.components
            && self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|((na, a), (nb, b))| {
                    na == nb
                        && a.schema() == b.schema()
                        && a.len() == b.len()
                        && same_rows(&a.columnar, &b.columnar)
                })
    }
}

/// Number of string-typed columns in a schema.
fn str_columns(schema: &Schema) -> usize {
    schema
        .columns()
        .iter()
        .filter(|c| c.ty == ValueType::Str)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use crate::descriptor::{ComponentId, WsDescriptor};
    use crate::error::MayError;
    use crate::rel::Tuple;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn one_col_rel(desc: WsDescriptor) -> URelation {
        let schema = Schema::of(&[("a", ValueType::Int)]).unwrap();
        let mut u = URelation::new(schema);
        u.push(Tuple::new(vec![1.into()]), desc).unwrap();
        u
    }

    #[test]
    fn insert_rejects_unknown_component() {
        let mut ws = WorldSet::new();
        let err = ws.insert("r", one_col_rel(WsDescriptor::single(ComponentId(0), 0)));
        assert!(
            matches!(err, Err(MayError::InvalidDescriptor(_))),
            "{err:?}"
        );
    }

    #[test]
    fn insert_rejects_out_of_range_alternative() {
        let mut ws = WorldSet::new();
        let c = ws.components.add(Component::uniform(2).unwrap());
        let err = ws.insert("r", one_col_rel(WsDescriptor::single(c, 2)));
        assert!(
            matches!(err, Err(MayError::InvalidDescriptor(_))),
            "{err:?}"
        );
        ws.insert("ok", one_col_rel(WsDescriptor::single(c, 1)))
            .unwrap();
    }
}
