//! Differential tests for sideways information passing and late
//! materialization.
//!
//! The executor's contract for both features is *byte-identical output*:
//! a Bloom filter is under-approximating (false positives only keep rows
//! the join drops anyway) and rowid-indirection gathers are a pure
//! representation change, so flipping [`ExecCfg::sip`], [`ExecCfg::late_mat`],
//! or the thread count must never change a u-relation or the post-run world
//! set (component minting parity included). These tests are the oracle:
//!
//! * **generated join plans** — 120 randomized plans, each rooted at a
//!   natural join over generated subtrees mixing selections, projections,
//!   renames, unions, and the uncertainty operators, run under every
//!   `{sip} × {late_mat} × {threads 1, 4}` combination (the testkit
//!   sweep) and compared byte-for-byte against the all-off
//!   single-threaded baseline;
//! * **selective join chain** — a deterministic 5-way chain with a
//!   1%-selective tail (the shape SIP exists for: the filter cascades
//!   down the chain), large enough that filters actually build and prune,
//!   checked the same way plus an explicit prune-counter assertion.
//!
//! A failing case prints its seed for exact replay.

use maybms_algebra::{run_with_stats_exec, ExecCfg, Plan};
use maybms_core::rng::Rng;
use maybms_core::{Schema, Tuple, URelation, Value, ValueType, WorldSet, WsDescriptor};
use maybms_testkit::{
    forced_par, gen_plan, gen_uncertain_plan, gen_world_set, run_every_cfg, GenConfig,
};

/// Per the issue's acceptance bar.
const JOIN_PLAN_CASES: usize = 120;

/// 120 generated plans, each rooted at a natural join (the operator SIP
/// instruments), with generated subtrees on both sides — uncertainty
/// operators included, so the mint guard and the filter-descent barriers
/// (unions, extension operators) all get exercised.
#[test]
fn generated_join_plans_agree_across_sip_and_late_mat() {
    let cfg = GenConfig::default();
    for case in 0..JOIN_PLAN_CASES {
        let seed = 0x0051_0000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_world_set(&mut rng, &cfg);
        // A join root over generated subtrees; every third case joins an
        // uncertainty-wrapped left side so repair-key minting sits inside
        // a join input (the mint-guard path).
        let left = if case % 3 == 0 {
            gen_uncertain_plan(&mut rng, &ws, 1)
        } else {
            gen_plan(&mut rng, &ws, 2)
        };
        let right = gen_plan(&mut rng, &ws, 2);
        let plan = left.join(right);
        run_every_cfg(&ws, &plan, &format!("seed {seed}")).ok();
    }
}

/// The SIP showcase shape: a 5-way chain `r1 ⋈ r2 ⋈ r3 ⋈ r4 ⋈ r5` where
/// the last relation keeps only 1% of the key space, so the Bloom filter
/// built from `r5` prunes `r4`'s scan, the already-pruned `r4` seeds the
/// next filter into `r3`, and so on down the chain. Big enough (4 × 4096
/// probe rows) that morsel parallelism engages under the default
/// threshold, small enough for a test.
#[test]
fn selective_join_chain_agrees_and_prunes() {
    let n = 4096u32;
    let mut ws = WorldSet::new();
    let cols = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")];
    for (i, &(k1, k2)) in cols.iter().enumerate() {
        let schema =
            Schema::of(&[(k1, ValueType::Int), (k2, ValueType::Int)]).expect("distinct columns");
        let mut rel = URelation::new(schema);
        // r5 keeps one key in a hundred; r1–r4 cover the full key space.
        let rows = if i == 4 { n / 100 } else { n };
        for r in 0..rows {
            let key = if i == 4 { r * 100 } else { r };
            rel.push(
                Tuple::new(vec![Value::Int(key as i64), Value::Int(key as i64)]),
                WsDescriptor::tautology(),
            )
            .expect("tuple matches schema");
        }
        ws.insert(format!("r{}", i + 1), rel)
            .expect("certain relation is valid");
    }
    let plan = Plan::scan("r1")
        .join(Plan::scan("r2"))
        .join(Plan::scan("r3"))
        .join(Plan::scan("r4"))
        .join(Plan::scan("r5"));
    run_every_cfg(&ws, &plan, "selective chain").expect("chain evaluates");

    // And the filters actually fired: with SIP on, the 1%-selective tail
    // must have pruned the overwhelming majority of probe rows.
    let cfg = ExecCfg {
        par: forced_par(2),
        sip: true,
        late_mat: true,
    };
    let (result, stats) =
        run_with_stats_exec(&mut ws.clone(), &plan, &cfg).expect("chain evaluates");
    assert_eq!(
        result.len(),
        (n / 100) as usize,
        "one row per surviving key"
    );
    assert!(
        stats.sip.filters_built >= 4,
        "expected a filter per join in the chain, built {}",
        stats.sip.filters_built
    );
    assert!(
        stats.sip.probe_rows_pruned > stats.sip.probe_rows_tested / 2,
        "expected the selective tail to prune most probe rows ({} of {} pruned)",
        stats.sip.probe_rows_pruned,
        stats.sip.probe_rows_tested
    );
}
