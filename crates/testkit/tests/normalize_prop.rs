//! Property tests for WSD normalization: the rewrites must preserve the
//! induced probability distribution over database *instances* exactly (up to
//! float tolerance), while never growing the representation.

use maybms_core::rng::Rng;
use maybms_testkit::{gen_world_set, GenConfig, WORLD_LIMIT};

const CASES: u64 = 200;
const EPS: f64 = 1e-9;

#[test]
fn normalization_preserves_instance_distribution() {
    let cfg = GenConfig::default();
    for case in 0..CASES {
        let mut rng = Rng::new(0x4E04 ^ case);
        let ws = gen_world_set(&mut rng, &cfg);
        let before = ws
            .instance_distribution(WORLD_LIMIT)
            .expect("small world set");

        let mut normalized = ws.clone();
        normalized.normalize();
        let after = normalized
            .instance_distribution(WORLD_LIMIT)
            .expect("small world set");

        assert_eq!(
            before.len(),
            after.len(),
            "case {case}: instance support changed\nbefore: {ws:?}\nafter: {normalized:?}"
        );
        for ((db_b, p_b), (db_a, p_a)) in before.iter().zip(&after) {
            assert_eq!(db_b, db_a, "case {case}: instance contents changed");
            assert!(
                (p_b - p_a).abs() < EPS,
                "case {case}: instance probability drifted: {p_b} vs {p_a}"
            );
        }

        let rows =
            |w: &maybms_core::WorldSet| -> usize { w.relations().map(|(_, r)| r.len()).sum() };
        assert!(
            rows(&normalized) <= rows(&ws),
            "case {case}: normalization grew the representation"
        );
        assert!(normalized.components.len() <= ws.components.len());
    }
}

#[test]
fn normalization_is_idempotent() {
    let cfg = GenConfig::default();
    for case in 0..50 {
        let mut rng = Rng::new(0x1DE0 ^ case);
        let mut ws = gen_world_set(&mut rng, &cfg);
        ws.normalize();
        let once = ws.clone();
        ws.normalize();
        assert_eq!(ws, once, "case {case}: normalize is not idempotent");
    }
}
