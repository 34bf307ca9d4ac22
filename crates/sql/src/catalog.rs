//! The catalog: relation schemas (and statistics) that MayQL names resolve
//! against.

use std::collections::BTreeMap;

use maybms_algebra::{SchemaProvider, StatsProvider};
use maybms_core::{RelationStats, Schema, WorldSet};

/// A name → [`Schema`] map, optionally carrying per-relation statistics
/// ([`RelationStats`]) for the cost-based optimizer phase. Semantic analysis
/// resolves relation references against it; it is typically derived from a
/// [`WorldSet`] with [`Catalog::from_world_set`] — which copies the
/// statistics the world set keeps per relation — and refreshed whenever a
/// relation is added (e.g. after a REPL `LET`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Catalog {
    schemas: BTreeMap<String, Schema>,
    stats: BTreeMap<String, RelationStats>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register (or replace) a relation schema. Schema-only registration
    /// carries no statistics: the relation plans with defaults until
    /// [`Catalog::insert_stats`] (or a catalog refresh) supplies them.
    pub fn insert(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into();
        self.stats.remove(&name);
        self.schemas.insert(name, schema);
    }

    /// Register (or replace) a relation's statistics.
    pub fn insert_stats(&mut self, name: impl Into<String>, stats: RelationStats) {
        self.stats.insert(name.into(), stats);
    }

    /// The schemas *and statistics* of every relation in a world set. The
    /// statistics are the ones the world set keeps beside each stored
    /// relation, copied rather than recollected.
    pub fn from_world_set(ws: &WorldSet) -> Catalog {
        Catalog {
            schemas: ws
                .relations()
                .map(|(n, r)| (n.to_string(), r.schema().clone()))
                .collect(),
            stats: ws
                .relations()
                .map(|(n, r)| (n.to_string(), r.stats().clone()))
                .collect(),
        }
    }

    /// The schema of the named relation, if registered.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.get(name)
    }

    /// The statistics of the named relation, if collected.
    pub fn stats(&self, name: &str) -> Option<&RelationStats> {
        self.stats.get(name)
    }

    /// The registered relation names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.schemas.keys().map(String::as_str)
    }
}

/// The catalog is a [`SchemaProvider`], so the logical optimizer (and plan
/// schema inference) can run against it without materialized relations.
impl SchemaProvider for Catalog {
    fn base_schema(&self, name: &str) -> Option<&Schema> {
        self.schema(name)
    }
}

/// The catalog is also a [`StatsProvider`]: the cost-based phase plans
/// against the statistics collected at catalog-refresh time.
impl StatsProvider for Catalog {
    fn relation_stats(&self, name: &str) -> Option<&RelationStats> {
        self.stats.get(name)
    }
    fn has_stats(&self) -> bool {
        !self.stats.is_empty()
    }
}
