//! U-relations: relations whose tuples carry world-set descriptors.

use std::collections::BTreeMap;
use std::fmt;

use crate::component::WorldPick;
use crate::descriptor::WsDescriptor;
use crate::error::MayError;
use crate::rel::{Relation, Tuple};
use crate::schema::Schema;

/// An uncertain relation: each row is a tuple plus the world-set descriptor
/// of the worlds in which the tuple appears.
///
/// The same tuple may occur in several rows with different descriptors; its
/// world set is then the *disjunction* of the descriptors. Instantiating a
/// u-relation in a world yields a plain set-semantics [`Relation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct URelation {
    schema: Schema,
    rows: Vec<(Tuple, WsDescriptor)>,
}

impl URelation {
    /// An empty u-relation over the given schema.
    pub fn new(schema: Schema) -> Self {
        URelation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Lift a certain relation: every tuple holds in all worlds.
    pub fn from_certain(r: &Relation) -> Self {
        URelation {
            schema: r.schema().clone(),
            rows: r
                .tuples()
                .map(|t| (t.clone(), WsDescriptor::tautology()))
                .collect(),
        }
    }

    /// Append a row, checking the tuple against the schema.
    pub fn push(&mut self, tuple: Tuple, desc: WsDescriptor) -> Result<(), MayError> {
        self.schema.check(&tuple)?;
        self.rows.push((tuple, desc));
        Ok(())
    }

    /// Append a row *without* re-checking the tuple against the schema.
    ///
    /// The bulk path for hot loops whose tuples are schema-correct by
    /// construction — projections of checked tuples, join combinations of
    /// checked tuples, or rows taken from a relation with the same schema.
    /// The caller is responsible for that invariant; it is re-verified in
    /// debug builds only.
    pub fn push_unchecked(&mut self, tuple: Tuple, desc: WsDescriptor) {
        debug_assert!(
            self.schema.check(&tuple).is_ok(),
            "push_unchecked received a tuple that violates the schema"
        );
        self.rows.push((tuple, desc));
    }

    /// Build a u-relation from rows that are schema-correct by construction
    /// (see [`URelation::push_unchecked`]); re-verified in debug builds only.
    pub fn from_rows_unchecked(schema: Schema, rows: Vec<(Tuple, WsDescriptor)>) -> Self {
        debug_assert!(
            rows.iter().all(|(t, _)| schema.check(t).is_ok()),
            "from_rows_unchecked received a tuple that violates the schema"
        );
        URelation { schema, rows }
    }

    /// Decompose into schema and rows (used by the zero-copy executor to
    /// move extension-operator results without cloning).
    pub fn into_parts(self) -> (Schema, Vec<(Tuple, WsDescriptor)>) {
        (self.schema, self.rows)
    }

    /// Reserve capacity for at least `additional` more rows (e.g. before a
    /// bulk union).
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The annotated rows.
    pub fn rows(&self) -> &[(Tuple, WsDescriptor)] {
        &self.rows
    }

    /// Number of annotated rows (not distinct tuples).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when every row holds in all worlds.
    pub fn is_certain(&self) -> bool {
        self.rows.iter().all(|(_, d)| d.is_tautology())
    }

    /// Sort rows canonically and drop exact duplicates.
    pub fn dedup(&mut self) {
        self.rows.sort_unstable();
        self.rows.dedup();
    }

    /// Group the descriptors of each distinct tuple (the tuple's world set is
    /// their disjunction).
    pub fn grouped(&self) -> BTreeMap<&Tuple, Vec<&WsDescriptor>> {
        let mut m: BTreeMap<&Tuple, Vec<&WsDescriptor>> = BTreeMap::new();
        for (t, d) in &self.rows {
            m.entry(t).or_default().push(d);
        }
        m
    }

    /// The plain relation this u-relation denotes in the world picked by
    /// `pick`.
    pub fn instantiate(&self, pick: &WorldPick) -> Relation {
        let mut r = Relation::new(self.schema.clone());
        for (t, d) in &self.rows {
            if d.satisfied_by(pick) {
                // Tuples were schema-checked on the way in.
                let _ = r.insert(t.clone());
            }
        }
        r
    }
}

impl fmt::Display for URelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} | ws-descriptor", self.schema.names().join(" | "))?;
        for (t, d) in &self.rows {
            writeln!(f, "{t} | {d}")?;
        }
        Ok(())
    }
}
