//! Differential property tests: for random small world sets and random
//! positive-relational-algebra plans, the WSD-level executor's result,
//! instantiated in each world, must equal the naive single-world algebra run
//! inside that world. This is the central soundness property of evaluating
//! the algebra directly on the decomposition. Every plan runs under every
//! execution configuration of the testkit sweep, which must agree byte for
//! byte.

use maybms_algebra::{naive, run};
use maybms_core::rng::Rng;
use maybms_testkit::{gen_plan, gen_world_set, run_every_cfg, GenConfig, WORLD_LIMIT};

const CASES: u64 = 300;

#[test]
fn wsd_evaluation_matches_per_world_oracle() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0xA15E_B00C ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_plan(&mut rng, &ws, 3);

        let (result, _) = run_every_cfg(&ws, &plan, &format!("case {case}"))
            .unwrap_or_else(|e| panic!("case {case}: eval failed: {e}\nplan: {plan:?}"));

        for (pick, db, _prob) in ws.enumerate(WORLD_LIMIT).expect("small world set") {
            let expected = naive::eval(&plan, &db)
                .unwrap_or_else(|e| panic!("case {case}: naive eval failed: {e}"));
            let actual = result.instantiate(&pick);
            assert_eq!(
                actual, expected,
                "case {case}: world {pick:?} disagrees\nplan: {plan:?}\nwsd result:\n{result}"
            );
        }
    }
}

#[test]
fn evaluation_leaves_base_relations_untouched() {
    let cfg = GenConfig::default();
    for case in 0..20 {
        let mut rng = Rng::new(0xBA5E ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let plan = gen_plan(&mut rng, &ws, 3);
        let mut ws_eval = ws.clone();
        run(&mut ws_eval, &plan).expect("generated plan evaluates");
        assert!(ws_eval.names().eq(ws.names()));
        for name in ws.names() {
            assert_eq!(ws_eval.relation(name), ws.relation(name));
        }
        // Pure relational algebra creates no components either.
        assert_eq!(ws_eval.components, ws.components);
    }
}
