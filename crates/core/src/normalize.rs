//! Normalization of world-set decompositions.
//!
//! The rewrites below preserve the *instance distribution* of the world set
//! ([`WorldSet::instance_distribution`]): the induced probability
//! distribution over database contents is exactly the same before and after,
//! even though the raw number of worlds may shrink (dropping an unreferenced
//! component merges worlds that were indistinguishable anyway).
//!
//! Per relation, to a fixpoint:
//!
//! 1. **Trivial-assignment stripping** — assignments to single-alternative
//!    components always hold and are removed from descriptors.
//! 2. **Duplicate elimination** — identical `(tuple, descriptor)` rows are
//!    merged (set semantics).
//! 3. **Absorption** — if one of a tuple's descriptors is a subset (as a set
//!    of assignments) of another, the larger one denotes a subset of the
//!    smaller one's worlds and is dropped.
//! 4. **Coverage merging** — if a tuple carries `D ∧ c=a` for *every*
//!    alternative `a` of component `c`, those rows merge into the single row
//!    `D`: the tuple's presence no longer depends on `c`. This is how
//!    components that an operation has made irrelevant become independent of
//!    the relation again.
//!
//! Finally, components referenced by no relation are **garbage collected**
//! and the remaining components are renumbered densely.

use crate::columnar::{ColumnarURelation, StrPool};
use crate::component::ComponentSet;
use crate::descriptor::{ComponentId, WsDescriptor};
use crate::fxhash::FxHashMap;
use crate::intern::{DescId, DescInterner, DescriptorPool, ShardDelta};
use crate::parallel::{chunk_ranges, par_sort_by, run_tasks, ParCfg, ParStats};
use crate::rel::Tuple;
use crate::urel::URelation;
use crate::world::WorldSet;

/// Normalize a world set in place. See the module docs for the rewrites.
///
/// Each stored relation goes through the *columnar* pipeline
/// ([`normalize_columnar`]) directly on its stored columns; the
/// row-oriented [`normalize_rows`] is kept as the reference implementation
/// the columnar path is differentially tested against. It runs with
/// [`ParCfg::default`]; [`normalize_with`] takes the thread budget
/// explicitly.
pub fn normalize(ws: &mut WorldSet) {
    normalize_with(ws, &ParCfg::default());
}

/// [`normalize`] with an explicit parallelism configuration. The result is
/// byte-identical for every thread count: the parallel stages (canonical
/// sort, per-tuple-group fixpoint) are deterministic, and the tuple groups
/// the rewrites act on are independent by construction.
pub fn normalize_with(ws: &mut WorldSet, par: &ParCfg) {
    for rel in ws.relations.values_mut() {
        if rel.is_empty() {
            continue;
        }
        let out = normalize_columnar(
            rel.columnar(),
            &mut ws.pool,
            &ws.strings,
            &ws.components,
            par,
        );
        rel.replace_normalized(out, &ws.pool, &ws.components);
    }
    gc_components(ws);
}

/// Columnar normalization of one relation, at the row boundary: the
/// relation is converted over fresh pools, normalized by
/// [`normalize_columnar`], and converted back. Produces exactly the rows
/// [`normalize_rows`] produces.
pub fn normalize_relation(rel: &mut URelation, components: &ComponentSet) {
    let mut pool = DescriptorPool::new();
    let mut strings = StrPool::new();
    let col = ColumnarURelation::from_urelation(rel, &mut pool, &mut strings);
    let out = normalize_columnar(&col, &mut pool, &strings, components, &ParCfg::sequential());
    *rel = out.to_urelation(&pool, &strings);
}

/// Columnar normalization of one relation whose descriptor handles are
/// canonical in `pool` (interned, as every stored relation's are). Returns
/// the normalized relation — the same rows, in the same canonical
/// `(tuple, descriptor)` order, as `normalize_rows` — with canonical handles
/// in `pool`:
///
/// 1. trivial-assignment stripping is **memoized per distinct descriptor
///    handle** instead of re-filtering term vectors per row;
/// 2. the canonical sort orders a `u32` permutation vector with column-wise
///    typed comparisons — rows are never moved, and no `(Tuple, WsDescriptor)`
///    pairs are shuffled through memory;
/// 3. the per-tuple-group fixpoint (dedup, absorption, coverage merging)
///    runs on canonical [`DescId`]s, so descriptor equality inside a group is
///    an integer compare;
/// 4. the surviving rows are gathered column-wise in one pass, each group's
///    representative row repeated once per surviving descriptor.
///
/// Above the morsel threshold two stages fan out, each deterministic: the
/// canonical sort key build plus [`par_sort_by`] (which reproduces a stable
/// sort exactly — and the comparator is a *total* order on surviving rows,
/// so it equals the sequential unstable sort's output too), and the
/// per-tuple-group fixpoint (groups are independent; each task simplifies
/// its groups against a private [`PoolShard`](crate::intern::PoolShard) and
/// the resulting handles are remapped after a task-ordered absorb). The
/// strip memo and the gather stay sequential — both are cheap relative to
/// the sort and fixpoint.
pub fn normalize_columnar(
    col: &ColumnarURelation,
    pool: &mut DescriptorPool,
    strings: &StrPool,
    components: &ComponentSet,
    par: &ParCfg,
) -> ColumnarURelation {
    let registry = crate::obs::metrics();
    registry.normalize_runs_total.inc();
    registry.normalize_rows_total.add(col.len() as u64);
    let mut par_stats = ParStats::default();
    let orig_ids = col.descs();
    let n = col.len();
    let workers = par.workers_for(n);

    // Memoized trivial-assignment stripping: handles are canonical, so each
    // distinct descriptor is stripped (and re-interned) exactly once.
    let mut strip_memo: FxHashMap<DescId, DescId> = FxHashMap::default();
    let mut strip_buf: Vec<(ComponentId, u16)> = Vec::new();
    let descs: Vec<DescId> = orig_ids
        .iter()
        .map(|&d| {
            if let Some(&s) = strip_memo.get(&d) {
                return s;
            }
            let stripped = if pool
                .terms(d)
                .iter()
                .all(|&(c, _)| components.get(c).alternatives() > 1)
            {
                d
            } else {
                strip_buf.clear();
                strip_buf.extend(
                    pool.terms(d)
                        .iter()
                        .copied()
                        .filter(|&(c, _)| components.get(c).alternatives() > 1),
                );
                pool.intern_terms(&strip_buf)
            };
            strip_memo.insert(d, stripped);
            stripped
        })
        .collect();

    // Canonical (tuple, descriptor) order on a permutation vector. Each row
    // is paired with the first column's order-preserving prefix key, so the
    // bulk of the comparisons is one integer compare on data that travels
    // with the permutation entry; ties fall back to the full column-wise
    // comparison.
    let mut keyed: Vec<(u64, u32)> = match col.columns().first() {
        Some(first) => {
            if workers <= 1 {
                (0..n)
                    .map(|i| (first.sort_prefix(i, strings), i as u32))
                    .collect()
            } else {
                let morsels = chunk_ranges(n, workers * 4);
                par_stats.note_stage(workers, morsels.len());
                run_tasks(workers, morsels.len(), |t| {
                    morsels[t]
                        .clone()
                        .map(|i| (first.sort_prefix(i, strings), i as u32))
                        .collect::<Vec<_>>()
                })
                .concat()
            }
        }
        // Zero-arity relation: every tuple is ().
        None => (0..n).map(|i| (0, i as u32)).collect(),
    };
    let by_canonical = |&(ka, i): &(u64, u32), &(kb, j): &(u64, u32)| {
        ka.cmp(&kb).then_with(|| {
            col.cmp_rows(i as usize, j as usize, strings)
                .then_with(|| pool.cmp_terms(descs[i as usize], descs[j as usize]))
        })
    };
    if workers <= 1 {
        keyed.sort_unstable_by(by_canonical);
    } else {
        // Rows that compare equal here are full `(tuple, descriptor)`
        // duplicates (the very rows the dedup below removes), so the
        // stable parallel sort and the sequential unstable sort produce
        // the same surviving permutation.
        par_sort_by(&mut keyed, workers, by_canonical);
    }
    let mut perm: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
    perm.dedup_by(|&mut i, &mut j| {
        descs[i as usize] == descs[j as usize] && col.rows_eq(i as usize, j as usize)
    });

    // Tuple-group boundaries over the canonical permutation.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    {
        let mut start = 0;
        while start < perm.len() {
            let mut end = start + 1;
            while end < perm.len() && col.rows_eq(perm[start] as usize, perm[end] as usize) {
                end += 1;
            }
            groups.push((start, end));
            start = end;
        }
    }

    // Per-tuple-group local fixpoint, exactly as in `normalize_rows` but on
    // canonical handles. Only groups with more than one descriptor need it;
    // they are independent of each other, so tasks simplify disjoint group
    // ranges against private pool shards and the surviving handles are
    // remapped into the global pool afterwards.
    let multi: Vec<usize> = groups
        .iter()
        .enumerate()
        .filter(|&(_, &(s, e))| e - s > 1)
        .map(|(g, _)| g)
        .collect();
    let mut resolved: Vec<Vec<DescId>> = Vec::with_capacity(multi.len());
    let group_ids = |g: usize| -> Vec<DescId> {
        let (s, e) = groups[g];
        perm[s..e].iter().map(|&i| descs[i as usize]).collect()
    };
    if workers <= 1 || multi.len() < 2 {
        for &g in &multi {
            let mut ids = group_ids(g);
            loop {
                ids.sort_unstable_by(|&a, &b| pool.cmp_terms(a, b));
                ids.dedup();
                if !simplify_disjunction_ids(&mut ids, pool, components) {
                    break;
                }
            }
            resolved.push(ids);
        }
    } else {
        let morsels = chunk_ranges(multi.len(), workers * 4);
        par_stats.note_stage(workers, morsels.len());
        let results: Vec<(Vec<Vec<DescId>>, ShardDelta)> = run_tasks(workers, morsels.len(), |t| {
            let mut shard = pool.shard();
            let lists: Vec<Vec<DescId>> = morsels[t]
                .clone()
                .map(|m| {
                    let mut ids = group_ids(multi[m]);
                    loop {
                        ids.sort_unstable_by(|&a, &b| shard.cmp_terms(a, b));
                        ids.dedup();
                        if !simplify_disjunction_ids(&mut ids, &mut shard, components) {
                            break;
                        }
                    }
                    ids
                })
                .collect();
            (lists, shard.into_delta())
        });
        let started = std::time::Instant::now();
        let (lists, deltas): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let entries: u64 = deltas.iter().map(|d| d.len() as u64).sum();
        let remaps = pool.absorb(deltas);
        for (task_lists, remap) in lists.into_iter().zip(&remaps) {
            for mut ids in task_lists {
                for id in &mut ids {
                    *id = remap.remap(*id);
                }
                resolved.push(ids);
            }
        }
        par_stats.note_merge(entries, started.elapsed().as_nanos() as u64);
    }

    // Emit: each group's representative row, once per surviving descriptor
    // (in canonical order), gathered column-wise.
    let mut out_rows: Vec<u32> = Vec::with_capacity(perm.len());
    let mut out_descs: Vec<DescId> = Vec::with_capacity(perm.len());
    let mut resolved = resolved.into_iter();
    let mut mi = 0;
    for (g, &(start, _)) in groups.iter().enumerate() {
        let rep = perm[start];
        if mi < multi.len() && multi[mi] == g {
            mi += 1;
            for id in resolved.next().expect("one resolved list per multi group") {
                out_rows.push(rep);
                out_descs.push(id);
            }
        } else {
            // Singleton group: its one stripped descriptor survives as-is.
            out_rows.push(rep);
            out_descs.push(descs[rep as usize]);
        }
    }
    col.gather_with_descs(&out_rows, out_descs)
}

/// Absorption and coverage merging on canonical descriptor handles — the
/// handle-level mirror of [`simplify_disjunction`]. All ids must be interned
/// (canonical in `pool`), so id equality is descriptor equality. Generic
/// over [`DescInterner`] so the parallel fixpoint can run it against a
/// per-task [`PoolShard`](crate::intern::PoolShard). Returns true when
/// anything changed.
fn simplify_disjunction_ids<P: DescInterner>(
    ids: &mut Vec<DescId>,
    pool: &mut P,
    components: &ComponentSet,
) -> bool {
    let mut changed = false;

    // Absorption: drop any descriptor that a strictly more general one
    // subsumes.
    let mut keep = vec![true; ids.len()];
    for a in 0..ids.len() {
        if !keep[a] {
            continue;
        }
        for b in 0..ids.len() {
            if a != b && keep[b] && ids[a] != ids[b] && pool.subset_terms(ids[a], ids[b]) {
                keep[b] = false;
                changed = true;
            }
        }
    }
    if changed {
        let mut it = keep.iter();
        ids.retain(|_| *it.next().expect("keep mask matches ids length"));
    }

    // Coverage merging: if `base ∧ c=a` is present for every alternative `a`
    // of some component `c`, those ids merge into `base`. Variants are
    // detected by direct term-slice comparison (same terms as `d` with the
    // `c`-assignment swapped) — no descriptor is constructed or interned
    // until a merge actually fires.
    'restart: loop {
        for idx in 0..ids.len() {
            let d = ids[idx];
            for ti in 0..pool.terms_of(d).len() {
                let c = pool.terms_of(d)[ti].0;
                let is_variant = |pool: &P, x: DescId, a: u16| {
                    let (tx, td) = (pool.terms_of(x), pool.terms_of(d));
                    tx.len() == td.len()
                        && tx.iter().zip(td).enumerate().all(|(k, (&xt, &dt))| {
                            if k == ti {
                                xt == (c, a)
                            } else {
                                xt == dt
                            }
                        })
                };
                let n = components.get(c).alternatives();
                if (0..n).all(|a| ids.iter().any(|&x| is_variant(pool, x, a))) {
                    ids.retain(|&x| !(0..n).any(|a| is_variant(pool, x, a)));
                    ids.push(pool.drop_component(d, c));
                    changed = true;
                    continue 'restart;
                }
            }
        }
        break;
    }
    changed
}

/// Normalize one relation's rows against a component set.
///
/// The rewrites (dedup, absorption, coverage merging) only ever relate rows
/// carrying the *same* tuple, so after one global sort each tuple group can
/// be simplified to its own local fixpoint independently — the relation is
/// never re-sorted or rebuilt per iteration, and tuples are moved (cloned
/// only when a tuple keeps several descriptors), which is what keeps
/// normalization linearithmic-plus-local-work on large relations.
pub fn normalize_rows(
    rows: Vec<(Tuple, WsDescriptor)>,
    components: &ComponentSet,
) -> Vec<(Tuple, WsDescriptor)> {
    let mut rows: Vec<(Tuple, WsDescriptor)> = rows
        .into_iter()
        .map(|(t, d)| (t, strip_trivial(d, components)))
        .collect();
    rows.sort_unstable();
    rows.dedup();

    let mut out: Vec<(Tuple, WsDescriptor)> = Vec::with_capacity(rows.len());
    let mut it = rows.into_iter().peekable();
    while let Some((tuple, first_desc)) = it.next() {
        let mut descs = vec![first_desc];
        while it.peek().is_some_and(|(t, _)| *t == tuple) {
            descs.push(it.next().expect("peeked").1);
        }
        if descs.len() > 1 {
            // Local fixpoint: each pass re-sorts and dedups only this
            // tuple's descriptors before trying the rewrites again.
            loop {
                descs.sort_unstable();
                descs.dedup();
                if !simplify_disjunction(&mut descs, components) {
                    break;
                }
            }
        }
        // Emit in canonical (tuple, descriptor) order; the tuple is moved
        // into the group's last row and cloned only for the rows before it.
        let last = descs.len() - 1;
        let mut ds = descs.into_iter();
        for _ in 0..last {
            out.push((tuple.clone(), ds.next().expect("before last")));
        }
        out.push((tuple, ds.next().expect("last descriptor")));
    }
    out
}

/// Remove assignments to components with a single alternative.
fn strip_trivial(d: WsDescriptor, components: &ComponentSet) -> WsDescriptor {
    if d.terms()
        .iter()
        .all(|&(c, _)| components.get(c).alternatives() > 1)
    {
        return d;
    }
    let terms: Vec<_> = d
        .terms()
        .iter()
        .copied()
        .filter(|&(c, _)| components.get(c).alternatives() > 1)
        .collect();
    WsDescriptor::from_terms(terms).expect("filtering terms cannot introduce conflicts")
}

/// Apply absorption and coverage merging to the descriptors of one tuple.
/// Returns true when anything changed.
fn simplify_disjunction(descs: &mut Vec<WsDescriptor>, components: &ComponentSet) -> bool {
    let mut changed = false;

    // Absorption: drop any descriptor that another (strictly more general)
    // descriptor subsumes.
    let mut keep = vec![true; descs.len()];
    for a in 0..descs.len() {
        if !keep[a] {
            continue;
        }
        for b in 0..descs.len() {
            if a != b && keep[b] && descs[a].is_subset_of(&descs[b]) && descs[a] != descs[b] {
                keep[b] = false;
                changed = true;
            }
        }
    }
    if changed {
        let mut it = keep.iter();
        descs.retain(|_| *it.next().expect("keep mask matches descs length"));
    }

    // Coverage merging: if `base ∧ c=a` is present for every alternative `a`
    // of some component `c`, replace those rows with `base`.
    'restart: loop {
        for idx in 0..descs.len() {
            let d = descs[idx].clone();
            for &(c, _) in d.terms() {
                let base = d.without(c);
                let n = components.get(c).alternatives();
                let variant = |a: u16| {
                    base.conjoin(&WsDescriptor::single(c, a))
                        .expect("base has no assignment for c")
                };
                if (0..n).all(|a| descs.contains(&variant(a))) {
                    descs.retain(|x| !(0..n).any(|a| *x == variant(a)));
                    descs.push(base);
                    changed = true;
                    continue 'restart;
                }
            }
        }
        break;
    }
    changed
}

/// Drop components no relation references and renumber the rest densely.
/// Normalization leaves stale descriptors in the world set's pool, so the
/// pool is swept: reference detection reads only the live pool entries (one
/// flag per component), and dead entries are dropped when they outnumber
/// the live ones — or whenever components are renumbered, in the same pass
/// that rewrites the survivors' terms (the relations' handles are remapped
/// with them).
fn gc_components(ws: &mut WorldSet) {
    let live = ws.live_descs();
    let total = ws.components.len();
    let mut used = vec![false; total];
    let mut used_count = 0;
    for (i, _) in live.iter().enumerate().filter(|&(_, &l)| l) {
        for &(c, _) in ws.pool.terms(DescId::from_index(i)) {
            let slot = &mut used[c.0 as usize];
            if !*slot {
                *slot = true;
                used_count += 1;
            }
        }
    }
    if used_count == total {
        ws.sweep_descs(&live, None);
        return;
    }
    // Dense renumbering in ascending component order.
    let mut remap_table = vec![u32::MAX; total];
    let mut new_set = ComponentSet::new();
    for (old, &is_used) in used.iter().enumerate() {
        if is_used {
            let new = new_set.add(ws.components.get(ComponentId(old as u32)).clone());
            remap_table[old] = new.0;
        }
    }
    ws.sweep_descs(&live, Some(&remap_table));
    for rel in ws.relations.values_mut() {
        rel.clear_rows();
    }
    ws.components = new_set;
}
