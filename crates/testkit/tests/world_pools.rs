//! The world set's persistent storage: each relation is stored once,
//! columnar, over pools the world set owns. These tests pin the contracts
//! of that storage:
//!
//! * executor runs leave the pools exactly as they found them, so running a
//!   plan twice reports the same deterministic counters;
//! * replacing one relation over and over keeps the pools within twice
//!   their live entries (compaction);
//! * `insert` followed by `relation()` round-trips rows exactly — order,
//!   descriptors, and float bit patterns — also across compactions;
//! * the statistics kept beside each stored relation equal the row-based
//!   reference `collect`, before and after normalization.

use std::collections::BTreeSet;

use maybms_algebra::{run, run_with_stats_exec, ExecCfg, ExecStats, Plan};
use maybms_core::rng::Rng;
use maybms_core::{
    collect_stats, ConfStats, ParCfg, PoolStats, Schema, Tuple, URelation, Value, ValueType,
    WorldSet, WsDescriptor,
};
use maybms_ql::repair_key;
use maybms_testkit::{gen_mixed_relation, gen_uncertain_plan, gen_world_set, GenConfig};

/// The counters of a run that depend only on (world set, plan, config).
type Counters = (
    usize,
    usize,
    PoolStats,
    usize,
    usize,
    usize,
    u64,
    u64,
    ConfStats,
    [u64; 3],
);

fn counters(s: &ExecStats) -> Counters {
    (
        s.descriptors,
        s.descriptors_spilled,
        s.pool,
        s.strings,
        s.output_rows,
        s.dedups_elided,
        s.par.morsels,
        s.par.shard_entries,
        s.conf,
        [
            s.sip.filters_built,
            s.sip.probe_rows_tested,
            s.sip.probe_rows_pruned,
        ],
    )
}

fn pool_lens(ws: &WorldSet) -> (usize, usize) {
    (ws.pool().len(), ws.strings().len())
}

#[test]
fn runs_leave_the_pools_untouched_and_repeat_their_counters() {
    let configs = [
        ExecCfg {
            par: ParCfg::sequential(),
            sip: true,
            late_mat: true,
        },
        // Every parallel stage fires, so worker shards absorb into the
        // run's overlay too.
        ExecCfg {
            par: ParCfg {
                threads: 2,
                min_rows: 1,
            },
            sip: false,
            late_mat: false,
        },
    ];
    for case in 0..80u64 {
        let mut rng = Rng::new(0x9001_5000 ^ case);
        let mut ws = gen_world_set(&mut rng, &GenConfig::default());
        let plan = gen_uncertain_plan(&mut rng, &ws, 3);
        for cfg in &configs {
            let before = pool_lens(&ws);
            let (_, first) = run_with_stats_exec(&mut ws, &plan, cfg)
                .unwrap_or_else(|e| panic!("case {case}: {e}\nplan: {plan:?}"));
            assert_eq!(pool_lens(&ws), before, "case {case}: first run grew a pool");
            let (_, second) = run_with_stats_exec(&mut ws, &plan, cfg).expect("second run");
            assert_eq!(
                pool_lens(&ws),
                before,
                "case {case}: second run grew a pool"
            );
            assert_eq!(
                counters(&first),
                counters(&second),
                "case {case}: counters drifted\nplan: {plan:?}"
            );
        }
    }
}

/// Distinct descriptors (plus the tautology) and distinct strings over
/// every stored relation, read through the row views.
fn live_entries(ws: &WorldSet) -> (usize, usize) {
    let mut descs: BTreeSet<WsDescriptor> = BTreeSet::new();
    descs.insert(WsDescriptor::tautology());
    let mut strings: BTreeSet<String> = BTreeSet::new();
    for name in ws.names() {
        for (t, d) in ws.relation(name).expect("listed name").rows() {
            descs.insert(d.clone());
            for v in t.values() {
                if let Value::Str(s) = v {
                    strings.insert(s.clone());
                }
            }
        }
    }
    (descs.len(), strings.len())
}

#[test]
fn repeated_replacement_keeps_the_pools_bounded() {
    let schema = Schema::of(&[
        ("k", ValueType::Int),
        ("city", ValueType::Str),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let mut forms = URelation::new(schema);
    for i in 0..60i64 {
        forms
            .push(
                Tuple::new(vec![
                    Value::Int(i % 12),
                    Value::str(format!("city{}", i % 7)),
                    Value::Int(1 + i % 3),
                ]),
                WsDescriptor::tautology(),
            )
            .expect("tuple matches schema");
    }
    let note_schema = Schema::of(&[("note", ValueType::Str)]).expect("one column");
    let mut ws = WorldSet::new();
    ws.insert("forms", forms).expect("certain relation");
    let repair = repair_key(Plan::scan("forms"), &["k"], Some("w"));
    for i in 0..1000 {
        // LET x = REPAIR KEY k IN forms WEIGHT BY w — fresh components, so
        // fresh descriptors, every time.
        let x = run(&mut ws, &repair).expect("repair-key runs");
        ws.insert("x", x).expect("repaired descriptors are valid");
        // A one-row relation whose only string is new every time.
        let mut note = URelation::new(note_schema.clone());
        note.push(
            Tuple::new(vec![Value::str(format!("note{i}"))]),
            WsDescriptor::tautology(),
        )
        .expect("tuple matches schema");
        ws.insert("note", note).expect("certain relation");

        let (live_descs, live_strings) = live_entries(&ws);
        assert!(
            ws.pool().len() <= 2 * live_descs,
            "iteration {i}: {} descriptors for {live_descs} live",
            ws.pool().len()
        );
        assert!(
            ws.strings().len() <= 2 * live_strings,
            "iteration {i}: {} strings for {live_strings} live",
            ws.strings().len()
        );
    }
}

#[test]
fn insert_then_relation_round_trips_rows_exactly() {
    for case in 0..150u64 {
        let mut rng = Rng::new(0x9001_6000 ^ case);
        let mut ws = gen_world_set(&mut rng, &GenConfig::default());
        let mixed = gen_mixed_relation(&mut rng, &ws);
        ws.insert("mixed", mixed.clone())
            .expect("valid descriptors");
        let got = ws.relation("mixed").expect("just inserted");
        // `URelation` equality compares floats by bit pattern, so `-0.0`
        // and `NaN` cells must come back exactly.
        assert_eq!(got, &mixed, "case {case}");
        assert_eq!(got.rows().len(), mixed.rows().len());
        // Replacements compact the pools and renumber handles and codes;
        // the stored columns must still resolve to the same rows (read
        // afresh: the row view built above is cached).
        for round in 0..4 {
            let other = gen_mixed_relation(&mut rng, &ws);
            ws.insert("other", other).expect("valid descriptors");
            let stored = ws.stored("mixed").expect("still stored").columnar();
            assert_eq!(
                stored.to_urelation(ws.pool(), ws.strings()),
                mixed,
                "case {case} round {round}"
            );
        }
    }
}

#[test]
fn stored_statistics_equal_the_row_based_reference() {
    for case in 0..150u64 {
        let mut rng = Rng::new(0x9001_7000 ^ case);
        let mut ws = gen_world_set(&mut rng, &GenConfig::default());
        let mixed = gen_mixed_relation(&mut rng, &ws);
        ws.insert("mixed", mixed).expect("valid descriptors");
        for normalized in [false, true] {
            if normalized {
                ws.normalize_with(&ParCfg::sequential());
            }
            let names: Vec<String> = ws.names().map(str::to_string).collect();
            for name in names {
                let expected = collect_stats(ws.relation(&name).expect("listed"), &ws.components);
                assert_eq!(
                    ws.stored(&name).expect("listed").stats(),
                    &expected,
                    "case {case} relation {name} (normalized: {normalized})"
                );
            }
        }
    }
}

/// Above the sketch capacity the estimate is no longer exact, so equality
/// needs the columnar pass to hash exactly the values the row pass hashes —
/// string contents, not dictionary codes.
#[test]
fn saturated_sketches_match_the_row_based_reference() {
    let schema = Schema::of(&[
        ("i", ValueType::Int),
        ("f", ValueType::Float),
        ("s", ValueType::Str),
    ])
    .expect("distinct columns");
    let mut rel = URelation::new(schema);
    for i in 0..3000i64 {
        let s = if i % 11 == 0 {
            Value::Null
        } else {
            Value::str(format!("name{}", (i * 7919) % 2003))
        };
        rel.push(
            Tuple::new(vec![
                Value::Int(i * 31 % 1777),
                Value::float(i as f64 / 8.0),
                s,
            ]),
            WsDescriptor::tautology(),
        )
        .expect("tuple matches schema");
    }
    let mut ws = WorldSet::new();
    ws.insert("big", rel.clone()).expect("certain relation");
    assert_eq!(
        ws.stored("big").expect("inserted").stats(),
        &collect_stats(&rel, &ws.components)
    );
}
