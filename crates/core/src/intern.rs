//! Descriptor interning: map each distinct [`WsDescriptor`] to a dense
//! `u32` handle so the hot executor paths (conjoin, dedup, hash join)
//! key on integers instead of re-allocating sorted term vectors.
//!
//! A [`DescriptorPool`] canonicalizes descriptors: equal descriptors always
//! receive the same [`DescId`], so handle equality *is* descriptor equality.
//! The dominant 0-, 1-, and 2-term descriptors (tautologies, base-table
//! annotations, and binary-join conjunctions) are stored inline without any
//! heap allocation; longer descriptors spill to a boxed slice. Conjunction
//! of two interned descriptors merges their sorted term lists through a
//! reusable scratch buffer, so a consistent conjoin of small descriptors
//! performs no allocation at all unless it mints a brand-new pool entry
//! with more than [`INLINE_TERMS`] terms.

use std::cmp::Ordering;

use crate::descriptor::{merge_sorted_terms, ComponentId, WsDescriptor};
use crate::fxhash::FxHashMap;

/// Maximum number of terms stored inline in a pool entry.
pub const INLINE_TERMS: usize = 2;

/// A handle to an interned [`WsDescriptor`] in a [`DescriptorPool`].
///
/// Handles are only meaningful relative to the pool that issued them.
/// Within one pool, `a == b` iff the underlying descriptors are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescId(u32);

impl DescId {
    /// The handle of the tautology (the all-worlds descriptor). Every pool
    /// interns the tautology at slot 0 on construction.
    pub const TAUTOLOGY: DescId = DescId(0);

    /// True for the tautology handle.
    pub fn is_tautology(self) -> bool {
        self.0 == 0
    }

    /// The dense pool slot of this handle.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The handle of a dense pool slot.
    pub(crate) fn from_index(i: usize) -> DescId {
        DescId(i as u32)
    }
}

/// Compact storage for one interned descriptor. Construction is canonical:
/// term lists of length ≤ [`INLINE_TERMS`] are always `Inline` (padded with
/// a fixed sentinel), longer ones always `Spilled` — so the derived
/// `Eq`/`Hash` agree with logical term-list equality.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Stored {
    /// Up to [`INLINE_TERMS`] terms, no heap allocation.
    Inline {
        len: u8,
        terms: [(ComponentId, u16); INLINE_TERMS],
    },
    /// More than [`INLINE_TERMS`] terms.
    Spilled(Box<[(ComponentId, u16)]>),
}

const PAD: (ComponentId, u16) = (ComponentId(0), 0);

impl Stored {
    fn from_terms(terms: &[(ComponentId, u16)]) -> Stored {
        if terms.len() <= INLINE_TERMS {
            let mut inline = [PAD; INLINE_TERMS];
            inline[..terms.len()].copy_from_slice(terms);
            Stored::Inline {
                len: terms.len() as u8,
                terms: inline,
            }
        } else {
            Stored::Spilled(terms.to_vec().into_boxed_slice())
        }
    }

    fn terms(&self) -> &[(ComponentId, u16)] {
        match self {
            Stored::Inline { len, terms } => &terms[..*len as usize],
            Stored::Spilled(b) => b,
        }
    }

    fn terms_mut(&mut self) -> &mut [(ComponentId, u16)] {
        match self {
            Stored::Inline { len, terms } => &mut terms[..*len as usize],
            Stored::Spilled(b) => b,
        }
    }
}

/// Occupancy and hit statistics of a [`DescriptorPool`], exposed for
/// observability (the REPL's `\stats` meta-command) and for validating that
/// executor changes keep the interning behavior intact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls to [`DescriptorPool::intern`] / [`DescriptorPool::intern_terms`]
    /// (tautology fast path included).
    pub intern_calls: u64,
    /// Intern calls answered from the index (or the tautology fast path)
    /// without minting a new entry.
    pub intern_hits: u64,
    /// Calls to [`DescriptorPool::conjoin`].
    pub conjoin_calls: u64,
    /// Conjoin calls resolved without minting an entry: tautology unit,
    /// equal handles, or one side subsuming the other.
    pub conjoin_shortcuts: u64,
    /// Conjoin calls whose inputs were inconsistent (empty world set).
    pub conjoin_inconsistent: u64,
}

/// FxHash of a term list — the probe key of an [`IdTable`], folded like the
/// string pool's so the low bits the table masks are well mixed.
#[inline]
fn terms_hash(terms: &[(ComponentId, u16)]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = crate::fxhash::FxHasher::default();
    for &(c, a) in terms {
        h.write_u32(c.0);
        h.write_u16(a);
    }
    let h = h.finish();
    h ^ (h >> 32)
}

/// The intern index of a [`DescriptorPool`]: an open-addressing table,
/// probed linearly from the term-list hash, whose slots pack the hash's high
/// half (a tag) with an entry handle ([`EMPTY`] = free). The table stores no
/// keys — each descriptor's terms live once, in the pool's entries — so
/// indexing a spilled descriptor allocates nothing and re-indexing after
/// compaction only rehashes term lists in place. The tag settles almost
/// every mismatched probe without touching the entries, and the load stays
/// at most one half, so a miss (every fresh mint) costs a couple of slot
/// reads.
#[derive(Clone, Debug, Default)]
struct IdTable {
    slots: Vec<u64>,
    len: usize,
}

/// A free [`IdTable`] slot (no handle reaches `u32::MAX`).
const EMPTY: u64 = u64::MAX;

impl IdTable {
    /// An index over every entry (all must be canonical: distinct terms).
    fn over(entries: &[Stored]) -> IdTable {
        let mut t = IdTable::default();
        t.resize(entries, (0..entries.len() as u32).collect());
        t
    }

    /// The indexed handle whose terms are `terms` (hash `h`), if any.
    #[inline]
    fn get(&self, entries: &[Stored], h: u64, terms: &[(ComponentId, u16)]) -> Option<DescId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = h >> 32;
        let mut i = (h as usize) & mask;
        loop {
            let e = self.slots[i];
            if e == EMPTY {
                return None;
            }
            let id = e as u32;
            if e >> 32 == tag && entries[id as usize].terms() == terms {
                return Some(DescId(id));
            }
            i = (i + 1) & mask;
        }
    }

    /// Index entry `id` (hash `h`, not indexed yet), doubling the table
    /// when it would pass half full.
    fn insert(&mut self, entries: &[Stored], h: u64, id: DescId) {
        if (self.len + 1) * 2 > self.slots.len() {
            let mut ids: Vec<u32> = self
                .slots
                .iter()
                .filter(|&&e| e != EMPTY)
                .map(|&e| e as u32)
                .collect();
            ids.push(id.0);
            self.resize(entries, ids);
        } else {
            self.place(h, id.0);
            self.len += 1;
        }
    }

    /// Re-index exactly `ids` at ≤ 50% load.
    fn resize(&mut self, entries: &[Stored], ids: Vec<u32>) {
        let cap = (ids.len() * 2).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        self.len = ids.len();
        for id in ids {
            self.place(terms_hash(entries[id as usize].terms()), id);
        }
    }

    fn place(&mut self, h: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (h >> 32) << 32 | u64::from(id);
    }
}

/// The state of an open overlay (see [`DescriptorPool::open_overlay`]): the
/// pool's extent when it opened, and the index of the entries interned
/// since — kept apart from the persistent index.
#[derive(Clone, Debug)]
struct Overlay {
    base_len: usize,
    base_spilled: usize,
    base_stats: PoolStats,
    index: IdTable,
}

/// An interner for world-set descriptors. See the module docs.
#[derive(Clone, Debug)]
pub struct DescriptorPool {
    entries: Vec<Stored>,
    index: IdTable,
    /// Scratch buffer for conjunction, reused across calls.
    scratch: Vec<(ComponentId, u16)>,
    /// Running usage counters; see [`PoolStats`].
    stats: PoolStats,
    /// Number of entries stored as [`Stored::Spilled`].
    spilled: usize,
    /// The open overlay, if any.
    overlay: Option<Overlay>,
}

impl Default for DescriptorPool {
    fn default() -> Self {
        DescriptorPool::new()
    }
}

impl DescriptorPool {
    /// A fresh pool with the tautology pre-interned as [`DescId::TAUTOLOGY`].
    pub fn new() -> Self {
        let entries = vec![Stored::from_terms(&[])];
        DescriptorPool {
            index: IdTable::over(&entries),
            entries,
            scratch: Vec::new(),
            stats: PoolStats::default(),
            spilled: 0,
            overlay: None,
        }
    }

    /// Number of distinct interned descriptors (≥ 1: the tautology).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: the tautology is pre-interned.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A snapshot of the pool's usage counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of entries that spilled to the heap (more than
    /// [`INLINE_TERMS`] terms). Maintained as a counter, so stats snapshots
    /// never sweep the pool.
    pub fn spilled(&self) -> usize {
        self.spilled
    }

    /// Intern a descriptor, returning its stable handle.
    pub fn intern(&mut self, d: &WsDescriptor) -> DescId {
        self.intern_terms(d.terms())
    }

    /// Intern a sorted, conflict-free term list (the caller guarantees the
    /// [`WsDescriptor`] invariants: strictly increasing component ids).
    pub fn intern_terms(&mut self, terms: &[(ComponentId, u16)]) -> DescId {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0),
            "intern_terms requires strictly sorted component ids"
        );
        self.stats.intern_calls += 1;
        if terms.is_empty() {
            self.stats.intern_hits += 1;
            return DescId::TAUTOLOGY;
        }
        let h = terms_hash(terms);
        if let Some(id) = self.lookup(terms, h) {
            self.stats.intern_hits += 1;
            return id;
        }
        self.push_indexed(Stored::from_terms(terms), h)
    }

    /// Hash-cons a pre-built entry without touching the usage counters (the
    /// shard [`DescriptorPool::absorb`] path, which must not double-count
    /// the shard's already-recorded calls).
    fn intern_stored(&mut self, stored: Stored) -> DescId {
        let h = terms_hash(stored.terms());
        match self.lookup(stored.terms(), h) {
            Some(id) => id,
            None => self.push_indexed(stored, h),
        }
    }

    /// Append a new canonical entry (terms hash `h`) and index it (in the
    /// open overlay's index, if any).
    fn push_indexed(&mut self, stored: Stored, h: u64) -> DescId {
        let id = DescId(self.entries.len() as u32);
        self.spilled += matches!(stored, Stored::Spilled(_)) as usize;
        self.entries.push(stored);
        match &mut self.overlay {
            Some(o) => o.index.insert(&self.entries, h, id),
            None => self.index.insert(&self.entries, h, id),
        };
        id
    }

    /// The canonical handle of a term list (hash `h`), if interned
    /// (persistent index first, then the open overlay's).
    fn lookup(&self, terms: &[(ComponentId, u16)], h: u64) -> Option<DescId> {
        self.index
            .get(&self.entries, h, terms)
            .or_else(|| self.overlay.as_ref()?.index.get(&self.entries, h, terms))
    }

    /// Intern the single assignment `component = alternative`.
    pub fn single(&mut self, component: ComponentId, alternative: u16) -> DescId {
        self.intern_terms(&[(component, alternative)])
    }

    /// The term list of an interned descriptor, sorted by component id.
    pub fn terms(&self, id: DescId) -> &[(ComponentId, u16)] {
        self.entries[id.index()].terms()
    }

    /// Reconstruct the owned [`WsDescriptor`] for a handle.
    pub fn to_descriptor(&self, id: DescId) -> WsDescriptor {
        WsDescriptor::from_sorted_terms_unchecked(self.terms(id).to_vec())
    }

    /// Whether two handles denote the same descriptor. Handles minted by
    /// [`DescriptorPool::intern`] are canonical (equal descriptors share one
    /// handle), so `a == b` suffices for them; handles minted by
    /// [`DescriptorPool::conjoin`] may be fresh duplicates, which this
    /// resolves with a term-list comparison.
    pub fn same_descriptor(&self, a: DescId, b: DescId) -> bool {
        a == b || self.terms(a) == self.terms(b)
    }

    /// Canonical descriptor order on handles (by term list, the same order
    /// `WsDescriptor: Ord` uses) — so interned rows can be sorted into
    /// exactly the canonical order of their un-interned counterparts.
    pub fn cmp_terms(&self, a: DescId, b: DescId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.terms(a).cmp(self.terms(b))
    }

    /// Conjoin two interned descriptors. Returns `None` when they assign
    /// different alternatives to the same component (the empty world set).
    ///
    /// Merges through the pool's scratch buffer: no allocation unless the
    /// result is a descriptor with more than [`INLINE_TERMS`] terms. When one
    /// input subsumes the other, that input's handle is returned directly.
    /// Otherwise the result is *appended* to the pool without consulting the
    /// intern index: in join-heavy workloads conjunction results are almost
    /// always brand-new, so hash-consing each one costs a lookup-plus-insert
    /// per output row for nearly no sharing. The price is that an equal
    /// descriptor may exist under another handle — consumers that
    /// deduplicate must compare with [`DescriptorPool::same_descriptor`]
    /// (or hash/compare term lists), not raw handles.
    pub fn conjoin(&mut self, a: DescId, b: DescId) -> Option<DescId> {
        self.stats.conjoin_calls += 1;
        if a == b || b.is_tautology() {
            self.stats.conjoin_shortcuts += 1;
            return Some(a);
        }
        if a.is_tautology() {
            self.stats.conjoin_shortcuts += 1;
            return Some(b);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let merged = merge_sorted_terms(self.terms(a), self.terms(b), &mut scratch);
        let result = if !merged {
            self.stats.conjoin_inconsistent += 1;
            None
        } else if scratch.len() == self.terms(a).len() {
            // merged ⊇ a and equal length ⟹ merged == a (b ⊆ a).
            self.stats.conjoin_shortcuts += 1;
            Some(a)
        } else if scratch.len() == self.terms(b).len() {
            self.stats.conjoin_shortcuts += 1;
            Some(b)
        } else {
            let id = DescId(self.entries.len() as u32);
            let stored = Stored::from_terms(&scratch);
            self.spilled += matches!(stored, Stored::Spilled(_)) as usize;
            self.entries.push(stored);
            Some(id)
        };
        self.scratch = scratch;
        result
    }

    /// True when every assignment of `a` also occurs in `b` — i.e. `b`
    /// denotes a subset of `a`'s worlds (`a` absorbs `b` in a disjunction).
    pub fn is_subset(&self, a: DescId, b: DescId) -> bool {
        let (ta, tb) = (self.terms(a), self.terms(b));
        ta.iter().all(|t| tb.binary_search(t).is_ok())
    }

    /// The canonical handle of `id` with any assignment to `c` removed.
    /// Goes through the intern index, so the result compares by handle.
    pub fn without(&mut self, id: DescId, c: ComponentId) -> DescId {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(self.terms(id).iter().copied().filter(|&(cc, _)| cc != c));
        let out = self.intern_terms(&scratch);
        self.scratch = scratch;
        out
    }

    /// Open an overlay: until it is discarded, every entry the pool mints
    /// (by interning or conjunction) is provisional, and interned
    /// entries are indexed apart from the persistent index, which is left
    /// untouched. This is the per-run overlay an executor run mints into on
    /// top of a world set's persistent pool. Overlays do not nest.
    pub(crate) fn open_overlay(&mut self) {
        assert!(
            self.overlay.is_none(),
            "descriptor-pool overlays do not nest"
        );
        self.overlay = Some(Overlay {
            base_len: self.entries.len(),
            base_spilled: self.spilled,
            base_stats: self.stats,
            index: IdTable::default(),
        });
    }

    /// Drop everything minted since [`DescriptorPool::open_overlay`] (and
    /// the counters it bumped), restoring the pool to exactly its state when
    /// the overlay opened: handles below that point keep their meaning, and
    /// re-interning a dropped descriptor mints it afresh.
    pub(crate) fn discard_overlay(&mut self) {
        let o = self.overlay.take().expect("no open overlay");
        self.entries.truncate(o.base_len);
        self.spilled = o.base_spilled;
        self.stats = o.base_stats;
    }

    /// Drop every entry whose slot in `live` is false and renumber the
    /// survivors densely, in their old order (the tautology always survives
    /// at slot 0). With `renumber`, also rewrite each survivor's component
    /// ids through that old → new table, which must be strictly increasing
    /// on the ids survivors mention (so term lists stay sorted and distinct)
    /// — what a world set needs when it renumbers its components densely.
    /// Returns the old → new handle table; dropped slots map to `u32::MAX`.
    /// Every surviving entry must be canonical (interned, not a transient
    /// `conjoin` result), which holds outside executor runs.
    pub(crate) fn compact(&mut self, live: &[bool], renumber: Option<&[u32]>) -> Vec<u32> {
        assert!(self.overlay.is_none(), "compaction under an open overlay");
        let mut remap = vec![u32::MAX; self.entries.len()];
        let entries = std::mem::take(&mut self.entries);
        for (i, mut stored) in entries.into_iter().enumerate() {
            if i == 0 || live.get(i).copied().unwrap_or(false) {
                if let Some(table) = renumber {
                    for t in stored.terms_mut() {
                        t.0 = ComponentId(table[t.0 .0 as usize]);
                    }
                }
                remap[i] = self.entries.len() as u32;
                self.entries.push(stored);
            }
        }
        self.reindex();
        remap
    }

    /// Rebuild the index and the spill count over every entry (all
    /// canonical).
    fn reindex(&mut self) {
        self.index = IdTable::over(&self.entries);
        self.spilled = self
            .entries
            .iter()
            .filter(|e| matches!(e, Stored::Spilled(_)))
            .count();
    }

    /// A fresh per-worker append arena over this pool. The pool itself is
    /// frozen while shards exist (they hold `&self`); every shard hands out
    /// handles numbered from `self.len()` upward, so shard handles and base
    /// handles never collide. Collect the shards' deltas and fold them back
    /// with [`DescriptorPool::absorb`].
    pub fn shard(&self) -> PoolShard<'_> {
        PoolShard {
            base: self,
            entries: Vec::new(),
            index: FxHashMap::default(),
            scratch: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Deterministically merge worker shard deltas back into the pool.
    ///
    /// Deltas are absorbed **in the order given** (callers pass them in task
    /// order, never in thread-completion order): each shard entry is
    /// re-interned through the pool's hash-consing index, so two shards that
    /// minted the same descriptor independently converge to one global
    /// canonical handle. The returned remap tables translate each shard's
    /// local handles to global ones; handles below the shard's base length
    /// were global already and pass through unchanged.
    ///
    /// The shards' usage counters are folded into the pool's stats; the
    /// re-interning itself is not counted (it is bookkeeping, not workload).
    pub fn absorb(&mut self, deltas: Vec<ShardDelta>) -> Vec<DescRemap> {
        deltas
            .into_iter()
            .map(|delta| {
                debug_assert!(
                    delta.base_len as usize <= self.entries.len(),
                    "shard built over a different (larger) pool"
                );
                let map = delta
                    .entries
                    .into_iter()
                    .map(|s| self.intern_stored(s))
                    .collect();
                self.stats.accumulate(&delta.stats);
                DescRemap {
                    base_len: delta.base_len,
                    map,
                }
            })
            .collect()
    }
}

impl PoolStats {
    /// The counters accumulated since `earlier` (a snapshot of the same
    /// pool).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            intern_calls: self.intern_calls - earlier.intern_calls,
            intern_hits: self.intern_hits - earlier.intern_hits,
            conjoin_calls: self.conjoin_calls - earlier.conjoin_calls,
            conjoin_shortcuts: self.conjoin_shortcuts - earlier.conjoin_shortcuts,
            conjoin_inconsistent: self.conjoin_inconsistent - earlier.conjoin_inconsistent,
        }
    }

    /// Fold another pool's (or shard's) counters into this one.
    pub fn accumulate(&mut self, other: &PoolStats) {
        self.intern_calls += other.intern_calls;
        self.intern_hits += other.intern_hits;
        self.conjoin_calls += other.conjoin_calls;
        self.conjoin_shortcuts += other.conjoin_shortcuts;
        self.conjoin_inconsistent += other.conjoin_inconsistent;
    }
}

/// A per-worker append arena over a frozen [`DescriptorPool`]: reads resolve
/// against the base pool first, new descriptors land in a local arena with
/// handles numbered from the base pool's length upward. Shards are cheap to
/// create, are `Send` (each worker task owns its own), and are folded back
/// into the base pool — deterministically — by [`DescriptorPool::absorb`].
///
/// The interning contract matches the pool's: [`PoolShard::intern_terms`]
/// is canonical *within the run's frozen base plus this shard* (it consults
/// the base index, then the local index), while [`PoolShard::conjoin`]
/// appends without hash-consing exactly like
/// [`DescriptorPool::conjoin`]. Absorption re-interns every shard entry, so
/// cross-shard duplicates of canonical entries converge to one global
/// handle.
#[derive(Debug)]
pub struct PoolShard<'p> {
    base: &'p DescriptorPool,
    entries: Vec<Stored>,
    index: FxHashMap<Stored, DescId>,
    scratch: Vec<(ComponentId, u16)>,
    stats: PoolStats,
}

impl PoolShard<'_> {
    /// Total descriptors visible through this shard (base + local).
    pub fn len(&self) -> usize {
        self.base.entries.len() + self.entries.len()
    }

    /// Never empty: the base pool holds at least the tautology.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The term list behind a base or shard-local handle.
    pub fn terms(&self, id: DescId) -> &[(ComponentId, u16)] {
        let i = id.index();
        let b = self.base.entries.len();
        if i < b {
            self.base.entries[i].terms()
        } else {
            self.entries[i - b].terms()
        }
    }

    /// Intern a descriptor, returning its (base- or shard-) handle.
    pub fn intern(&mut self, d: &WsDescriptor) -> DescId {
        self.intern_terms(d.terms())
    }

    /// Shard counterpart of [`DescriptorPool::intern_terms`].
    pub fn intern_terms(&mut self, terms: &[(ComponentId, u16)]) -> DescId {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0),
            "intern_terms requires strictly sorted component ids"
        );
        self.stats.intern_calls += 1;
        if terms.is_empty() {
            self.stats.intern_hits += 1;
            return DescId::TAUTOLOGY;
        }
        if let Some(id) = self.base.lookup(terms, terms_hash(terms)) {
            self.stats.intern_hits += 1;
            return id;
        }
        let stored = Stored::from_terms(terms);
        if let Some(&id) = self.index.get(&stored) {
            self.stats.intern_hits += 1;
            return id;
        }
        let id = DescId(self.len() as u32);
        self.entries.push(stored.clone());
        self.index.insert(stored, id);
        id
    }

    /// Intern the single assignment `component = alternative`.
    pub fn single(&mut self, component: ComponentId, alternative: u16) -> DescId {
        self.intern_terms(&[(component, alternative)])
    }

    /// Reconstruct the owned [`WsDescriptor`] for a handle.
    pub fn to_descriptor(&self, id: DescId) -> WsDescriptor {
        WsDescriptor::from_sorted_terms_unchecked(self.terms(id).to_vec())
    }

    /// Whether two handles denote the same descriptor (see
    /// [`DescriptorPool::same_descriptor`]).
    pub fn same_descriptor(&self, a: DescId, b: DescId) -> bool {
        a == b || self.terms(a) == self.terms(b)
    }

    /// Canonical descriptor order on handles (see
    /// [`DescriptorPool::cmp_terms`]).
    pub fn cmp_terms(&self, a: DescId, b: DescId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.terms(a).cmp(self.terms(b))
    }

    /// Shard counterpart of [`DescriptorPool::conjoin`]: identical
    /// shortcuts, and like the pool it *appends* a genuinely new result to
    /// the local arena without hash-consing (absorption canonicalizes).
    pub fn conjoin(&mut self, a: DescId, b: DescId) -> Option<DescId> {
        self.stats.conjoin_calls += 1;
        if a == b || b.is_tautology() {
            self.stats.conjoin_shortcuts += 1;
            return Some(a);
        }
        if a.is_tautology() {
            self.stats.conjoin_shortcuts += 1;
            return Some(b);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let merged = merge_sorted_terms(self.terms(a), self.terms(b), &mut scratch);
        let result = if !merged {
            self.stats.conjoin_inconsistent += 1;
            None
        } else if scratch.len() == self.terms(a).len() {
            self.stats.conjoin_shortcuts += 1;
            Some(a)
        } else if scratch.len() == self.terms(b).len() {
            self.stats.conjoin_shortcuts += 1;
            Some(b)
        } else {
            let id = DescId(self.len() as u32);
            self.entries.push(Stored::from_terms(&scratch));
            Some(id)
        };
        self.scratch = scratch;
        result
    }

    /// See [`DescriptorPool::is_subset`].
    pub fn is_subset(&self, a: DescId, b: DescId) -> bool {
        let (ta, tb) = (self.terms(a), self.terms(b));
        ta.iter().all(|t| tb.binary_search(t).is_ok())
    }

    /// See [`DescriptorPool::without`] (canonical within base + shard).
    pub fn without(&mut self, id: DescId, c: ComponentId) -> DescId {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(self.terms(id).iter().copied().filter(|&(cc, _)| cc != c));
        let out = self.intern_terms(&scratch);
        self.scratch = scratch;
        out
    }

    /// Detach the shard's local entries and counters for
    /// [`DescriptorPool::absorb`]. Consumes the shard, releasing the base
    /// borrow.
    pub fn into_delta(self) -> ShardDelta {
        ShardDelta {
            base_len: self.base.entries.len() as u32,
            entries: self.entries,
            stats: self.stats,
        }
    }
}

/// The detached local arena of one [`PoolShard`], ready to be folded back
/// into the base pool by [`DescriptorPool::absorb`].
#[derive(Debug)]
pub struct ShardDelta {
    base_len: u32,
    entries: Vec<Stored>,
    stats: PoolStats,
}

impl ShardDelta {
    /// Number of locally minted entries this delta carries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the shard minted nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Translation of one shard's local handles to global pool handles, as
/// produced by [`DescriptorPool::absorb`].
#[derive(Clone, Debug)]
pub struct DescRemap {
    base_len: u32,
    map: Vec<DescId>,
}

impl DescRemap {
    /// The global handle for a (base or shard-local) handle.
    #[inline]
    pub fn remap(&self, id: DescId) -> DescId {
        if id.0 < self.base_len {
            id
        } else {
            self.map[(id.0 - self.base_len) as usize]
        }
    }

    /// True when the shard minted nothing (every handle passes through).
    pub fn is_identity(&self) -> bool {
        self.map.is_empty()
    }
}

/// The descriptor operations the normalization fixpoint needs, abstracted
/// over [`DescriptorPool`] and [`PoolShard`] so the per-tuple-group
/// simplification can run inside worker shards. Method names are distinct
/// from the inherent ones to keep concrete call sites unambiguous; the
/// provided combinators mirror the inherent implementations exactly.
pub trait DescInterner {
    /// The sorted term list behind a handle.
    fn terms_of(&self, id: DescId) -> &[(ComponentId, u16)];

    /// Intern a sorted, conflict-free term list, canonically.
    fn intern_sorted(&mut self, terms: &[(ComponentId, u16)]) -> DescId;

    /// Canonical descriptor order on handles (term-list order).
    fn order_terms(&self, a: DescId, b: DescId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.terms_of(a).cmp(self.terms_of(b))
    }

    /// True when every assignment of `a` also occurs in `b`.
    fn subset_terms(&self, a: DescId, b: DescId) -> bool {
        let (ta, tb) = (self.terms_of(a), self.terms_of(b));
        ta.iter().all(|t| tb.binary_search(t).is_ok())
    }

    /// The canonical handle of `id` with any assignment to `c` removed.
    fn drop_component(&mut self, id: DescId, c: ComponentId) -> DescId {
        let terms: Vec<(ComponentId, u16)> = self
            .terms_of(id)
            .iter()
            .copied()
            .filter(|&(cc, _)| cc != c)
            .collect();
        self.intern_sorted(&terms)
    }
}

impl DescInterner for DescriptorPool {
    fn terms_of(&self, id: DescId) -> &[(ComponentId, u16)] {
        self.terms(id)
    }

    fn intern_sorted(&mut self, terms: &[(ComponentId, u16)]) -> DescId {
        self.intern_terms(terms)
    }
}

impl DescInterner for PoolShard<'_> {
    fn terms_of(&self, id: DescId) -> &[(ComponentId, u16)] {
        self.terms(id)
    }

    fn intern_sorted(&mut self, terms: &[(ComponentId, u16)]) -> DescId {
        self.intern_terms(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_canonicalizes() {
        let mut pool = DescriptorPool::new();
        let d = WsDescriptor::single(ComponentId(3), 1);
        let a = pool.intern(&d);
        let b = pool.intern(&d.clone());
        assert_eq!(a, b);
        assert_ne!(a, DescId::TAUTOLOGY);
        assert_eq!(pool.to_descriptor(a), d);
        assert_eq!(pool.intern(&WsDescriptor::tautology()), DescId::TAUTOLOGY);
    }

    #[test]
    fn conjoin_matches_descriptor_conjoin() {
        let mut pool = DescriptorPool::new();
        let d1 = WsDescriptor::single(ComponentId(0), 1);
        let d2 = WsDescriptor::single(ComponentId(1), 0);
        let (a, b) = (pool.intern(&d1), pool.intern(&d2));
        let ab = pool.conjoin(a, b).expect("distinct components");
        assert_eq!(pool.to_descriptor(ab), d1.conjoin(&d2).expect("consistent"));
        // Conflicting assignment to the same component denotes no worlds.
        let conflict = pool.intern(&WsDescriptor::single(ComponentId(0), 2));
        assert_eq!(pool.conjoin(a, conflict), None);
        // Tautology is the unit.
        assert_eq!(pool.conjoin(a, DescId::TAUTOLOGY), Some(a));
        assert_eq!(pool.conjoin(DescId::TAUTOLOGY, b), Some(b));
    }

    #[test]
    fn spills_beyond_inline_capacity() {
        let mut pool = DescriptorPool::new();
        let terms: Vec<_> = (0..5).map(|i| (ComponentId(i), (i % 2) as u16)).collect();
        let d = WsDescriptor::from_terms(terms.clone()).expect("distinct components");
        let id = pool.intern(&d);
        assert_eq!(pool.terms(id), terms.as_slice());
        assert_eq!(pool.intern(&d), id);
        assert_eq!(pool.to_descriptor(id), d);
        assert_eq!(pool.spilled(), 1);
    }

    #[test]
    fn shards_merge_deterministically() {
        let mut pool = DescriptorPool::new();
        let base = pool.intern(&WsDescriptor::single(ComponentId(0), 1));

        let mut a = pool.shard();
        let mut b = pool.shard();
        // Both shards mint the same new descriptor plus one of their own.
        let shared = WsDescriptor::single(ComponentId(7), 2);
        let sa = a.intern(&shared);
        let sb = b.intern(&shared);
        let only_a = a.intern(&WsDescriptor::single(ComponentId(8), 0));
        let only_b = b.intern(&WsDescriptor::single(ComponentId(9), 0));
        // Base handles resolve through shards unchanged.
        assert_eq!(a.intern(&WsDescriptor::single(ComponentId(0), 1)), base);
        assert_eq!(a.terms(base), pool.terms(base));
        assert!(sa.index() >= pool.len() && sb.index() >= pool.len());

        let remaps = pool.absorb(vec![a.into_delta(), b.into_delta()]);
        // The shared descriptor converges to one canonical global handle...
        assert_eq!(remaps[0].remap(sa), remaps[1].remap(sb));
        // ...every remapped handle resolves to the shard's content...
        assert_eq!(
            pool.to_descriptor(remaps[0].remap(only_a)),
            WsDescriptor::single(ComponentId(8), 0)
        );
        assert_eq!(
            pool.to_descriptor(remaps[1].remap(only_b)),
            WsDescriptor::single(ComponentId(9), 0)
        );
        // ...base handles pass through, and the pool stays canonical.
        assert_eq!(remaps[0].remap(base), base);
        assert_eq!(remaps[0].remap(DescId::TAUTOLOGY), DescId::TAUTOLOGY);
        assert_eq!(pool.intern(&shared), remaps[0].remap(sa));
    }

    #[test]
    fn shard_conjoin_matches_pool_conjoin() {
        let mut pool = DescriptorPool::new();
        let d1 = pool.intern(&WsDescriptor::single(ComponentId(0), 1));
        let d2 = pool.intern(&WsDescriptor::single(ComponentId(1), 0));
        let conflict = pool.intern(&WsDescriptor::single(ComponentId(0), 2));

        let mut shard = pool.shard();
        let joined = shard.conjoin(d1, d2).expect("distinct components");
        assert_eq!(
            shard.to_descriptor(joined).terms(),
            &[(ComponentId(0), 1), (ComponentId(1), 0)]
        );
        assert_eq!(shard.conjoin(d1, conflict), None);
        assert_eq!(shard.conjoin(d1, DescId::TAUTOLOGY), Some(d1));
        assert_eq!(shard.conjoin(DescId::TAUTOLOGY, d2), Some(d2));
        // Subsumption shortcut returns the subsuming input's handle.
        assert_eq!(shard.conjoin(joined, d1), Some(joined));

        let remaps = pool.absorb(vec![shard.into_delta()]);
        let global = remaps[0].remap(joined);
        assert_eq!(
            pool.terms(global),
            &[(ComponentId(0), 1), (ComponentId(1), 0)]
        );
    }

    #[test]
    fn overlays_discard_exactly() {
        let mut pool = DescriptorPool::new();
        let a = pool.intern(&WsDescriptor::single(ComponentId(0), 1));
        let b = pool.intern(&WsDescriptor::single(ComponentId(1), 0));
        let both = WsDescriptor::from_terms(vec![(ComponentId(0), 1), (ComponentId(1), 0)])
            .expect("distinct components");
        let canonical = pool.intern(&both);
        let (len, stats) = (pool.len(), pool.stats());
        pool.open_overlay();
        // A non-canonical conjoin duplicate of an older canonical entry, and
        // a fresh canonical entry, both provisional.
        let dup = pool.conjoin(a, b).expect("distinct components");
        assert_ne!(dup, canonical);
        let single = WsDescriptor::single(ComponentId(2), 1);
        let fresh = pool.intern(&single);
        assert_eq!(pool.intern(&single), fresh, "canonical inside the overlay");
        assert_eq!(pool.intern(&both), canonical, "the base stays visible");
        pool.discard_overlay();
        assert_eq!((pool.len(), pool.stats()), (len, stats));
        // The dropped entry is minted afresh at the end of the pool.
        let again = pool.intern(&single);
        assert_eq!(again.index(), len);
    }

    #[test]
    fn compact_renumbers_survivors_and_stays_canonical() {
        let mut pool = DescriptorPool::new();
        let ids: Vec<DescId> = (0..4)
            .map(|c| pool.intern(&WsDescriptor::single(ComponentId(c), 0)))
            .collect();
        let mut live = vec![false; pool.len()];
        live[ids[1].index()] = true;
        live[ids[3].index()] = true;
        let remap = pool.compact(&live, None);
        assert_eq!(pool.len(), 3);
        assert_eq!(remap[0], 0);
        assert_eq!(remap[ids[0].index()], u32::MAX);
        let new3 = DescId(remap[ids[3].index()]);
        assert_eq!(pool.terms(new3), &[(ComponentId(3), 0)]);
        assert_eq!(pool.intern(&WsDescriptor::single(ComponentId(3), 0)), new3);

        // Keep everything, renumbering components 1 → 0 and 3 → 1.
        let live = vec![true; pool.len()];
        let remap = pool.compact(&live, Some(&[u32::MAX, 0, u32::MAX, 1]));
        let new3 = DescId(remap[new3.index()]);
        assert_eq!(pool.terms(new3), &[(ComponentId(1), 0)]);
        assert_eq!(pool.intern(&WsDescriptor::single(ComponentId(1), 0)), new3);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn cmp_terms_matches_descriptor_order() {
        let mut pool = DescriptorPool::new();
        let d1 = WsDescriptor::single(ComponentId(0), 1);
        let d2 = WsDescriptor::from_terms(vec![(ComponentId(0), 1), (ComponentId(2), 0)])
            .expect("distinct components");
        let (a, b) = (pool.intern(&d1), pool.intern(&d2));
        assert_eq!(pool.cmp_terms(a, b), d1.cmp(&d2));
        assert_eq!(pool.cmp_terms(b, a), d2.cmp(&d1));
        assert_eq!(pool.cmp_terms(a, a), Ordering::Equal);
    }
}
