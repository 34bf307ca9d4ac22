//! `conf`: exact and (ε, δ)-approximate tuple confidence from component
//! probabilities.

use std::collections::BTreeSet;
use std::sync::Arc;

use maybms_algebra::{EvalCtx, ExtOperator, ExtProps, Plan};
use maybms_core::columnar::{ColumnVec, ColumnarURelation};
use maybms_core::component::connected_groups;
use maybms_core::parallel::{chunk_ranges, run_tasks};
use maybms_core::rng::{mix64, CounterRng};
use maybms_core::{
    Column, Component, ComponentId, ComponentSet, ConfStats, DescId, MayError, Schema, ValueType,
    WsDescriptor,
};

use crate::order::{run_bounds, sorted_row_ids};

// `Conf::eval` computes P(t) = P(d₁ ∨ … ∨ dₙ) per distinct tuple. Both
// solver paths factorize the disjunction into connected descriptor groups
// over shared components and multiply per-group probabilities
// (`P = 1 − Π(1 − P_group)` by independence), so the cost is driven by the
// largest *connected* group, never the total component count.
//
// * Exact `conf` solves every group by the cheaper of inclusion–exclusion
//   and assignment enumeration (`ComponentSet::prob_of_group`) — still
//   exponential in the group.
// * `conf(eps, delta)` compares each group's exact cost bound
//   (`ComponentSet::group_exact_cost`) against a cutover threshold: cheap
//   groups keep the exact path (zero error), expensive groups are estimated
//   by Monte Carlo over group assignments or by a Karp–Luby
//   importance-sampled estimator, with the draw count derived from the
//   per-group error budget via a Hoeffding bound. The result is within ε of
//   the exact confidence with probability ≥ 1 − δ, per output tuple.
//
// Sampling is deterministic: each group's draws come from a counter-based
// stream keyed on the *content* of the group's descriptors (component ids
// and alternatives), so the estimate for a tuple does not depend on thread
// count, morsel boundaries, or which other tuples are present — the same
// byte-stability contract the exact executor upholds, and the reason the
// optimizer may commute selections through approximate `conf` exactly as it
// does through exact `conf`.

/// Name of the appended confidence column.
pub const CONF_COLUMN: &str = "conf";

/// Default exact/sampling cutover: under `conf(eps, delta)`, connected
/// groups whose exact cost bound is ≤ the cutover are solved exactly and
/// larger groups are sampled (`0` samples every group; plain exact `CONF`
/// never samples). Sampling a group costs on the order of a few hundred
/// draws for typical (ε, δ) (e.g. ε = 0.05, δ = 0.05 needs 738), each draw
/// touching every group component — so groups whose exact bound is under a
/// few thousand operations are cheaper to solve exactly, and exact means
/// zero error.
pub const DEFAULT_CONF_EXACT_LIMIT: u64 = 4096;

/// Default sampling seed for `conf(eps, delta)` nodes built from SQL (which
/// has no seed syntax). Tests vary the seed through [`conf_approx_with`].
pub const DEFAULT_CONF_SEED: u64 = 0x5EED_C0FF_EE00_0007;

/// Parameters of an (ε, δ)-approximate confidence computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxConf {
    /// Absolute error bound: `|estimate − exact| ≤ eps` with probability
    /// ≥ `1 − delta`, per output tuple. Must lie in `(0, 1)`.
    pub eps: f64,
    /// Failure probability of the guarantee. Must lie in `(0, 1)`.
    pub delta: f64,
    /// Sampling seed. Equal seeds give bit-identical results.
    pub seed: u64,
    /// Exact/sampling cutover override; `None` means
    /// [`DEFAULT_CONF_EXACT_LIMIT`].
    pub exact_limit: Option<u64>,
}

impl ApproxConf {
    /// Approximation parameters with the default seed and cutover.
    pub fn new(eps: f64, delta: f64) -> ApproxConf {
        ApproxConf {
            eps,
            delta,
            seed: DEFAULT_CONF_SEED,
            exact_limit: None,
        }
    }
}

/// The `conf R` operator: for every distinct tuple of `R`, the probability
/// of the worlds containing it, appended as a `conf` column — exact, or
/// (ε, δ)-approximate when built by [`conf_approx`]. The result is a certain
/// relation (the confidences themselves are facts about the world set, not
/// uncertain data).
#[derive(Debug)]
pub struct Conf {
    input: Plan,
    approx: Option<ApproxConf>,
}

/// Build an exact `conf` plan node.
pub fn conf(input: Plan) -> Plan {
    Plan::Ext(Arc::new(Conf {
        input,
        approx: None,
    }))
}

/// Build an (ε, δ)-approximate `conf` plan node with the default seed and
/// cutover (what `SELECT CONF(eps, delta) …` lowers to).
pub fn conf_approx(input: Plan, eps: f64, delta: f64) -> Plan {
    conf_approx_with(input, ApproxConf::new(eps, delta))
}

/// Build an (ε, δ)-approximate `conf` plan node with explicit seed and
/// cutover control.
pub fn conf_approx_with(input: Plan, approx: ApproxConf) -> Plan {
    Plan::Ext(Arc::new(Conf {
        input,
        approx: Some(approx),
    }))
}

impl ExtOperator for Conf {
    fn name(&self) -> &'static str {
        "conf"
    }

    fn describe(&self) -> String {
        match &self.approx {
            None => "conf".to_string(),
            Some(a) => format!("conf(eps={}, delta={})", a.eps, a.delta),
        }
    }

    fn mints_components(&self) -> bool {
        // Pure: reads component probabilities (sampling streams are
        // content-keyed), never creates components.
        false
    }

    fn unparse_mayql(&self, inputs: &[String]) -> Option<String> {
        match &self.approx {
            None => Some(format!("SELECT CONF * FROM {}", inputs[0])),
            // `CONF(eps, delta)` has no seed or cutover syntax, so only a
            // node still carrying the defaults has a faithful textual form.
            Some(a) if a.seed == DEFAULT_CONF_SEED && a.exact_limit.is_none() => Some(format!(
                "SELECT CONF({}, {}) * FROM {}",
                a.eps, a.delta, inputs[0]
            )),
            Some(_) => None,
        }
    }

    fn props(&self) -> ExtProps {
        ExtProps {
            // A tuple's confidence depends only on its own descriptors, so
            // removing *other* tuples first changes nothing: σ commutes as
            // long as the predicate reads input columns (the optimizer's
            // input-schema guard keeps predicates over the appended `conf`
            // column above). This holds for the approximate solver too — and
            // not merely in distribution: sampling streams are keyed on
            // descriptor-group content, so a surviving tuple's estimate is
            // bit-identical before and after the rewrite. Projection does
            // NOT commute — it changes which rows count as one tuple, and
            // with them the disjunctions.
            commutes_with_select: true,
            commutes_with_project: false,
            requires_normalized_input: false,
            distinct_output: true,
            certain_output: true,
            // Not an identity even on certain input: it appends a column.
            identity_on_certain: false,
            // Probabilities of the two sides do not combine by union (a
            // tuple's descriptors can span both).
            distributes_over_union: false,
        }
    }

    fn with_inputs(&self, mut inputs: Vec<Plan>) -> Option<Plan> {
        Some(Plan::Ext(Arc::new(Conf {
            input: inputs.remove(0),
            approx: self.approx,
        })))
    }

    fn inputs(&self) -> Vec<&Plan> {
        vec![&self.input]
    }

    fn output_schema(&self, inputs: &[Schema]) -> Result<Schema, MayError> {
        let mut cols = inputs[0].columns().to_vec();
        cols.push(Column::new(CONF_COLUMN, ValueType::Float));
        // Schema::new rejects an input that already has a `conf` column.
        Schema::new(cols)
    }

    fn eval(
        &self,
        ctx: &mut EvalCtx<'_>,
        inputs: Vec<ColumnarURelation>,
    ) -> Result<ColumnarURelation, MayError> {
        let r = &inputs[0];
        let schema = self.output_schema(&[r.schema().clone()])?;
        // Resolve the cutover once per evaluation: the node override, else
        // the default. Exact nodes ignore it entirely.
        let mode: Option<(ApproxConf, u64)> = self
            .approx
            .map(|a| (a, a.exact_limit.unwrap_or(DEFAULT_CONF_EXACT_LIMIT)));
        // Group the rows of each distinct tuple as one contiguous run of a
        // sorted id permutation; the value columns are gathered once at the
        // end and the `conf` column is built as a raw float vector.
        let perm = sorted_row_ids(r, ctx);
        let bounds = run_bounds(r, &perm);
        let solve_started = ctx.tracer.now();
        // P(t in DB) = P(d₁ ∨ … ∨ dₙ) over the components the descriptors
        // mention (they are independent of all others). The handles are
        // resolved to descriptors once per distinct tuple, at this
        // probabilistic-engine boundary. Each run is independent, the
        // canonical order is total on descriptor content, and sampling
        // streams are pure functions of group content — so the per-run
        // solves parallelize over morsels of runs with bit-exact results
        // for every thread count.
        let workers = ctx.par.workers_for(perm.len());
        let pool = &*ctx.pool;
        let components = &*ctx.components;
        let solve_runs = |range: std::ops::Range<usize>| {
            let mut kept: Vec<u32> = Vec::with_capacity(range.len());
            let mut confs: Vec<f64> = Vec::with_capacity(range.len());
            let mut stats = ConfStats::default();
            for &(start, end) in &bounds[range] {
                let descs: Vec<WsDescriptor> = perm[start as usize..end as usize]
                    .iter()
                    .map(|&i| pool.to_descriptor(r.descs()[i as usize]))
                    .collect();
                kept.push(perm[start as usize]);
                confs.push(solve_run(components, &descs, mode.as_ref(), &mut stats));
            }
            (kept, confs, stats)
        };
        let (kept, confs) = if workers <= 1 {
            let (kept, confs, stats) = solve_runs(0..bounds.len());
            ctx.conf_stats.absorb(&stats);
            (kept, confs)
        } else {
            let morsels = chunk_ranges(bounds.len(), workers * 4);
            ctx.par_stats.note_stage(workers, morsels.len());
            let parts = run_tasks(workers, morsels.len(), |t| solve_runs(morsels[t].clone()));
            let mut kept: Vec<u32> = Vec::with_capacity(bounds.len());
            let mut confs: Vec<f64> = Vec::with_capacity(bounds.len());
            for (k, c, stats) in parts {
                kept.extend_from_slice(&k);
                confs.extend_from_slice(&c);
                ctx.conf_stats.absorb(&stats);
            }
            (kept, confs)
        };
        ctx.tracer
            .event("solve", solve_started, bounds.len() as u64);
        let mut cols: Vec<ColumnVec> = r.columns().iter().map(|c| c.gather(&kept)).collect();
        cols.push(ColumnVec::from_floats(confs));
        let descs = vec![DescId::TAUTOLOGY; kept.len()];
        Ok(ColumnarURelation::from_parts(schema, cols, descs))
    }
}

/// Solve one distinct tuple's disjunction, exactly (`mode == None`) or with
/// the cost cutover (`mode == Some((params, limit))`).
///
/// The exact path mirrors [`ComponentSet::prob_of_dnf`] operation for
/// operation (same group order, same per-group solver, same early exit), so
/// exact `conf` results are bit-identical to that oracle. Under sampling,
/// the tuple's error budget is split evenly across its sampled groups:
/// `1 − Π(1 − p_g)` moves by at most the sum of the per-group errors (each
/// partial derivative has magnitude ≤ 1), and a union bound covers δ —
/// exact groups contribute zero error, so they are excluded from the split.
fn solve_run(
    components: &ComponentSet,
    descs: &[WsDescriptor],
    mode: Option<&(ApproxConf, u64)>,
    stats: &mut ConfStats,
) -> f64 {
    if descs.iter().any(WsDescriptor::is_tautology) {
        return 1.0;
    }
    if descs.is_empty() {
        return 0.0;
    }
    let refs: Vec<&WsDescriptor> = descs.iter().collect();
    let groups = connected_groups(&refs);
    let sampled: Vec<bool> = groups
        .iter()
        .map(|g| match mode {
            None => false,
            Some(&(_, limit)) => components.group_exact_cost(g) > u128::from(limit),
        })
        .collect();
    let budget_ways = sampled.iter().filter(|&&s| s).count().max(1) as f64;
    let mut prob_none = 1.0;
    for (group, &is_sampled) in groups.iter().zip(&sampled) {
        stats.largest_group = stats.largest_group.max(group.len() as u64);
        let p = if is_sampled {
            let (a, _) = mode.expect("sampling only under approximate mode");
            stats.sampled_groups += 1;
            let mut rng = CounterRng::new(a.seed, group_stream_key(group));
            GroupSampler::new(components, group).estimate(
                a.eps / budget_ways,
                a.delta / budget_ways,
                &mut rng,
                stats,
            )
        } else {
            stats.exact_groups += 1;
            components.prob_of_group(group)
        };
        prob_none *= 1.0 - p;
        if prob_none == 0.0 {
            break;
        }
    }
    1.0 - prob_none
}

/// Stream key for one connected group's sampling draws: a hash of the
/// group's descriptor *content* (component ids and alternatives, in the
/// group's deterministic order). Keying on content rather than on any run
/// or morsel index is what makes sampling invariant under thread count and
/// under optimizer rewrites that drop unrelated tuples.
fn group_stream_key(group: &[&WsDescriptor]) -> u64 {
    let mut h = 0;
    for d in group {
        for &(c, a) in d.terms() {
            h = mix64(h ^ u64::from(c.0));
            h = mix64(h ^ u64::from(a));
        }
        // Separate descriptors so e.g. [(c0, c1)] and [(c0), (c1)] differ.
        h = mix64(h ^ 0xD15C_0DE5);
    }
    h
}

/// Hoeffding draw count: the mean of `n` i.i.d. variables bounded in
/// `[0, width]` is within `eps` of its expectation with probability
/// ≥ `1 − delta` once `n ≥ width² · ln(2/δ) / (2ε²)`.
fn hoeffding_draws(eps: f64, delta: f64, width: f64) -> u64 {
    let n = width * width * (2.0 / delta).ln() / (2.0 * eps * eps);
    n.ceil().max(1.0) as u64
}

/// One connected descriptor group prepared for sampling: the group's
/// components laid out as dense local slots, descriptors re-expressed over
/// those slots, and the descriptor weights `P(dᵢ)` with their sum `U`.
struct GroupSampler<'a> {
    /// The group's distinct components in ascending id order.
    vars: Vec<&'a Component>,
    /// Descriptors as `(slot, alternative)` term lists.
    descs: Vec<Vec<(u32, u16)>>,
    /// `P(dᵢ)` per descriptor.
    weights: Vec<f64>,
    /// `U = Σ P(dᵢ)`, the Karp–Luby normalizer.
    total_weight: f64,
}

impl<'a> GroupSampler<'a> {
    fn new(components: &'a ComponentSet, group: &[&WsDescriptor]) -> GroupSampler<'a> {
        let ids: Vec<ComponentId> = group
            .iter()
            .flat_map(|d| d.terms().iter().map(|&(c, _)| c))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let slot_of = |c: ComponentId| -> u32 {
            ids.binary_search(&c).expect("component is in the group") as u32
        };
        let descs: Vec<Vec<(u32, u16)>> = group
            .iter()
            .map(|d| d.terms().iter().map(|&(c, a)| (slot_of(c), a)).collect())
            .collect();
        let weights: Vec<f64> = group
            .iter()
            .map(|d| components.prob_of_descriptor(d))
            .collect();
        GroupSampler {
            vars: ids.iter().map(|&c| components.get(c)).collect(),
            descs,
            weights: weights.clone(),
            total_weight: weights.iter().sum(),
        }
    }

    /// Estimate `P(∨ dᵢ)` to within `eps` with probability ≥ `1 − delta`.
    ///
    /// Two estimators, both unbiased, chosen by cost: when `U ≥ 1`, plain
    /// Monte Carlo over group assignments (indicator in `[0, 1]`, so
    /// `ln(2/δ)/(2ε²)` draws). When `U < 1` — long disjunctions of rare
    /// descriptors, where naive draws are almost all misses — the Karp–Luby
    /// estimator: draw descriptor `i` with probability `P(dᵢ)/U`, sample the
    /// remaining components conditionally, and score `U` iff no
    /// earlier-indexed descriptor is also satisfied. Each sample lies in
    /// `[0, U]` and has mean `P(∨ dᵢ)`, so Hoeffding needs only `U²` times
    /// the Monte Carlo count — strictly fewer draws whenever `U < 1`.
    fn estimate(&self, eps: f64, delta: f64, rng: &mut CounterRng, stats: &mut ConfStats) -> f64 {
        let mut assignment: Vec<u16> = vec![0; self.vars.len()];
        let estimate = if self.total_weight < 1.0 {
            let draws = hoeffding_draws(eps, delta, self.total_weight);
            stats.samples_drawn += draws;
            let mut hits = 0u64;
            for _ in 0..draws {
                // Pick descriptor i proportionally to its probability …
                let mut x = rng.unit_f64() * self.total_weight;
                let mut i = 0;
                while i + 1 < self.weights.len() && x > self.weights[i] {
                    x -= self.weights[i];
                    i += 1;
                }
                // … sample every component, then clamp dᵢ's own components
                // to dᵢ (the conditional world). Sampling all slots first
                // keeps the per-draw RNG consumption independent of i.
                self.sample_assignment(rng, &mut assignment);
                for &(slot, alt) in &self.descs[i] {
                    assignment[slot as usize] = alt;
                }
                if !(0..i).any(|j| self.satisfied(j, &assignment)) {
                    hits += 1;
                }
            }
            self.total_weight * hits as f64 / draws as f64
        } else {
            let draws = hoeffding_draws(eps, delta, 1.0);
            stats.samples_drawn += draws;
            let mut hits = 0u64;
            for _ in 0..draws {
                self.sample_assignment(rng, &mut assignment);
                if (0..self.descs.len()).any(|i| self.satisfied(i, &assignment)) {
                    hits += 1;
                }
            }
            hits as f64 / draws as f64
        };
        estimate.min(1.0)
    }

    /// Fill `out` with an independent draw of every group component.
    fn sample_assignment(&self, rng: &mut CounterRng, out: &mut [u16]) {
        for (slot, comp) in self.vars.iter().enumerate() {
            out[slot] = comp.sample(rng.unit_f64());
        }
    }

    /// Whether descriptor `i` holds under a full group assignment.
    fn satisfied(&self, i: usize, assignment: &[u16]) -> bool {
        self.descs[i]
            .iter()
            .all(|&(slot, alt)| assignment[slot as usize] == alt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_core::Component;

    fn two_comp_set() -> (ComponentSet, ComponentId, ComponentId) {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::from_weights(&[1.0, 3.0]).unwrap());
        let c1 = cs.add(Component::uniform(3).unwrap());
        (cs, c0, c1)
    }

    #[test]
    fn hoeffding_counts() {
        // ln(2/0.05) / (2 · 0.05²) = 3.6889 / 0.005 = 737.8 → 738.
        assert_eq!(hoeffding_draws(0.05, 0.05, 1.0), 738);
        // Width scales quadratically.
        assert_eq!(hoeffding_draws(0.05, 0.05, 0.5), 185);
        assert!(hoeffding_draws(0.5, 0.5, 1.0) >= 1);
    }

    #[test]
    fn both_estimators_land_within_eps() {
        let (cs, c0, c1) = two_comp_set();
        // Connected group (shares c0): U = P(c0=1) + P(c0=1 ∧ c1=2) > …
        let descs = [
            WsDescriptor::single(c0, 1),
            WsDescriptor::single(c0, 1)
                .conjoin(&WsDescriptor::single(c1, 2))
                .unwrap(),
        ];
        let refs: Vec<&WsDescriptor> = descs.iter().collect();
        let exact = cs.prob_of_group(&refs);
        for (eps, delta) in [(0.02, 0.01), (0.05, 0.05)] {
            for seed in 0..20u64 {
                let mut stats = ConfStats::default();
                let mut rng = CounterRng::new(seed, group_stream_key(&refs));
                let est = GroupSampler::new(&cs, &refs).estimate(eps, delta, &mut rng, &mut stats);
                assert!(
                    (est - exact).abs() <= eps,
                    "seed {seed}: |{est} - {exact}| > {eps}"
                );
                assert!(stats.samples_drawn > 0);
            }
        }
    }

    #[test]
    fn karp_luby_kicks_in_for_rare_disjunctions() {
        // A chain of rare two-term descriptors over 8-way components: each
        // descriptor has probability 1/64, so U = 3/64 ≪ 1 and the
        // Karp–Luby estimator (width U) needs far fewer draws than plain
        // Monte Carlo (width 1) at the same (ε, δ).
        let mut cs = ComponentSet::new();
        let ids: Vec<ComponentId> = (0..4)
            .map(|_| cs.add(Component::uniform(8).unwrap()))
            .collect();
        // Chain them into one connected group via two-term bridges.
        let descs: Vec<WsDescriptor> = (0..3)
            .map(|i| {
                WsDescriptor::single(ids[i], 0)
                    .conjoin(&WsDescriptor::single(ids[i + 1], 0))
                    .unwrap()
            })
            .collect();
        let refs: Vec<&WsDescriptor> = descs.iter().collect();
        let sampler = GroupSampler::new(&cs, &refs);
        assert!(sampler.total_weight < 1.0, "KL regime");
        let exact = cs.prob_of_group(&refs);
        let mut stats = ConfStats::default();
        let mut rng = CounterRng::new(11, group_stream_key(&refs));
        let est = sampler.estimate(0.01, 0.01, &mut rng, &mut stats);
        assert!((est - exact).abs() <= 0.01, "|{est} - {exact}|");
        // KL on width U < 1 needs fewer draws than MC would.
        assert!(stats.samples_drawn < hoeffding_draws(0.01, 0.01, 1.0));
    }

    #[test]
    fn solve_run_exact_matches_prob_of_dnf() {
        let (cs, c0, c1) = two_comp_set();
        let descs = vec![
            WsDescriptor::single(c0, 0),
            WsDescriptor::single(c1, 2),
            WsDescriptor::single(c0, 1)
                .conjoin(&WsDescriptor::single(c1, 0))
                .unwrap(),
        ];
        let mut stats = ConfStats::default();
        let got = solve_run(&cs, &descs, None, &mut stats);
        // Bit-identical: same group order, same per-group solver.
        assert_eq!(got.to_bits(), cs.prob_of_dnf(&descs).to_bits());
        assert_eq!(stats.sampled_groups, 0);
        assert!(stats.exact_groups >= 1);
        // The two-term descriptor bridges c0 and c1: one group of three.
        assert_eq!(stats.largest_group, 3);
    }

    #[test]
    fn forced_sampling_stays_within_eps() {
        let (cs, c0, c1) = two_comp_set();
        let descs = vec![WsDescriptor::single(c0, 0), WsDescriptor::single(c1, 2)];
        let exact = cs.prob_of_dnf(&descs);
        let approx = ApproxConf {
            eps: 0.02,
            delta: 0.01,
            seed: 5,
            exact_limit: Some(0),
        };
        let mut stats = ConfStats::default();
        let got = solve_run(&cs, &descs, Some(&(approx, 0)), &mut stats);
        assert!((got - exact).abs() <= 0.02, "|{got} - {exact}|");
        assert_eq!(stats.exact_groups, 0);
        assert_eq!(stats.sampled_groups, 2);
    }
}
