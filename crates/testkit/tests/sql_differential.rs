//! Differential tests for the MayQL front-end.
//!
//! Two directions, both on randomized world sets:
//!
//! * **text vs. hand-built plan** — `gen_query` emits a random MayQL string
//!   together with the plan it must lower to, built independently of the
//!   parser; the parsed plan must be equivalent and both must execute to
//!   the same u-relation.
//! * **unparse/reparse roundtrip** — random plans (including the
//!   uncertainty operators), and the optimizer's output for each, are
//!   pretty-printed with `to_mayql`, re-parsed, and re-printed: the text
//!   must be a fixpoint and both plans must execute identically.
//!
//! Plan equivalence is compared through the canonical MayQL printing, which
//! is injective on the minimal plan shapes the planner emits. Execution
//! comparison runs each plan on its own clone of the world set: extension
//! operators mint components deterministically, so equivalent plans produce
//! identical descriptors, not merely isomorphic ones — under every
//! execution configuration of the testkit sweep, and again with generated
//! `conf(eps, delta)` nodes forced to sample. A failing case prints its
//! seed (and query text) for exact replay.

use maybms_algebra::Plan;
use maybms_core::rng::Rng;
use maybms_core::{URelation, WorldSet};
use maybms_sql::{compile, compile_unoptimized, to_mayql, Catalog};
use maybms_testkit::{
    gen_plan, gen_query, gen_world_set, run_every_cfg_sampled, wrap_uncertainty, GenConfig, Outcome,
};

/// ≥ 100 cases each, per the acceptance bar of the MayQL front-end issue.
const CASES: usize = 120;

/// Run `plan` under every execution configuration of the testkit sweep
/// and return its result together with that of its forced-sampling
/// variant (the exact result when the plan holds no generated
/// `conf(eps, delta)` node), so every comparison covers sampled output.
fn execute(ws: &WorldSet, plan: &Plan, context: &str) -> (URelation, URelation) {
    let (exact, sampled) = run_every_cfg_sampled(ws, plan, context);
    // Sort-and-dedup so the comparison is order-insensitive (evaluation is
    // deterministic, but equivalence shouldn't depend on that).
    let dedup = |outcome: Outcome| {
        let (mut result, _) = outcome.unwrap_or_else(|e| panic!("{context}: {e}"));
        result.dedup();
        result
    };
    let exact = dedup(exact);
    let sampled = sampled.map_or_else(|| exact.clone(), dedup);
    (exact, sampled)
}

#[test]
fn parsed_text_matches_hand_built_plan() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let seed = 0x5A11_0000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_world_set(&mut rng, &cfg);
        let (text, hand_built) = gen_query(&mut rng, &ws, 2);
        let catalog = Catalog::from_world_set(&ws);

        let parsed = compile_unoptimized(&catalog, &text)
            .unwrap_or_else(|e| panic!("seed {seed}: {text}\n{}", e.render(&text)));
        let printed_parsed =
            to_mayql(&catalog, &parsed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let printed_hand =
            to_mayql(&catalog, &hand_built).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            printed_parsed, printed_hand,
            "seed {seed}: parsed plan diverges from hand-built plan for: {text}"
        );

        let a = execute(&ws, &parsed, &format!("seed {seed}, parsed: {text}"));
        let b = execute(
            &ws,
            &hand_built,
            &format!("seed {seed}, hand-built: {text}"),
        );
        assert_eq!(a, b, "seed {seed}: execution differs for: {text}");
    }
}

/// Optimized approximate `CONF` queries the roundtrip also prints: the
/// cost phase leaves the node's default cutover in place, so the optimized
/// node keeps its `CONF(eps, delta)` text.
const APPROX_CONF_QUERIES: [&str; 2] = [
    "SELECT CONF(0.1, 0.05) * FROM r0",
    "SELECT CONF(0.25, 0.1) * FROM r1, r2",
];

#[test]
fn unparse_reparse_roundtrip() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let seed = 0x0F1C_0000 + case as u64;
        let mut rng = Rng::new(seed);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_plan(&mut rng, &ws, 3);
        let plan = wrap_uncertainty(&mut rng, &ws, plan);
        let catalog = Catalog::from_world_set(&ws);
        let text = to_mayql(&catalog, &plan)
            .unwrap_or_else(|e| panic!("seed {seed}: unparse failed: {e}\nplan:\n{plan}"));
        roundtrip(&ws, &catalog, &plan, &format!("seed {seed}"));
        // The optimizer's output for the same text, and for the fixed
        // approximate-CONF queries, prints too.
        for text in std::iter::once(text.as_str()).chain(APPROX_CONF_QUERIES) {
            let optimized = compile(&catalog, text)
                .unwrap_or_else(|e| panic!("seed {seed}: {text}\n{}", e.render(text)));
            roundtrip(
                &ws,
                &catalog,
                &optimized,
                &format!("seed {seed}, optimized {text}"),
            );
        }
    }
}

/// Print `plan`, re-parse the text, and demand that printing is a fixpoint
/// and that both plans execute identically.
fn roundtrip(ws: &WorldSet, catalog: &Catalog, plan: &Plan, context: &str) {
    let text = to_mayql(catalog, plan)
        .unwrap_or_else(|e| panic!("{context}: unparse failed: {e}\nplan:\n{plan}"));
    let reparsed = compile_unoptimized(catalog, &text)
        .unwrap_or_else(|e| panic!("{context}: {text}\n{}", e.render(&text)));
    let text2 = to_mayql(catalog, &reparsed)
        .unwrap_or_else(|e| panic!("{context}: re-unparse failed: {e}"));
    assert_eq!(
        text2, text,
        "{context}: printing is not a fixpoint (plan shapes diverged)"
    );
    let a = execute(ws, plan, &format!("{context}, original: {text}"));
    let b = execute(ws, &reparsed, &format!("{context}, reparsed: {text}"));
    assert_eq!(a, b, "{context}: execution differs for: {text}");
}

/// The census repair with WEIGHT BY, text vs. hand-built, on deterministic
/// data (random generators avoid weights because generated values include
/// zero, which is not a valid weight).
#[test]
fn weighted_repair_text_matches_hand_built() {
    use maybms_algebra::Plan;
    use maybms_core::{Relation, Schema, Tuple, Value, ValueType};
    use maybms_ql::repair_key;

    let schema = Schema::of(&[
        ("name", ValueType::Str),
        ("ssn", ValueType::Int),
        ("w", ValueType::Int),
    ])
    .expect("distinct columns");
    let rows = [
        ("Smith", 185i64, 3i64),
        ("Smith", 785, 1),
        ("Brown", 185, 1),
        ("Brown", 186, 1),
    ];
    let rel = Relation::from_rows(
        schema,
        rows.iter()
            .map(|&(n, s, w)| Tuple::new(vec![Value::str(n), s.into(), w.into()]))
            .collect(),
    )
    .expect("rows match schema");
    let mut ws = WorldSet::new();
    ws.insert("censusform", URelation::from_certain(&rel))
        .expect("certain relation is valid");
    let catalog = Catalog::from_world_set(&ws);

    let text = "repair key name in censusform weight by w";
    let parsed = compile_unoptimized(&catalog, text).expect("repair parses");
    let hand = repair_key(Plan::scan("censusform"), &["name"], Some("w"));
    assert_eq!(
        to_mayql(&catalog, &parsed).expect("parsed has MayQL form"),
        to_mayql(&catalog, &hand).expect("hand-built has MayQL form"),
    );
    assert_eq!(execute(&ws, &parsed, text), execute(&ws, &hand, text));
}
