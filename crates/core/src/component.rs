//! Components: the independent factors of a world-set decomposition.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

use crate::descriptor::{merge_sorted_terms, ComponentId, WsDescriptor};
use crate::error::MayError;
use crate::fxhash::FxHashMap;

/// One independent component of a world-set decomposition: a finite
/// probability distribution over `alternatives()` local worlds.
///
/// In the paper's component tables, each component is a small relation whose
/// rows (local worlds) assign values to a set of tuple fields and carry a
/// probability. Here the value assignments live in the u-relations (tuples
/// annotated with descriptors referencing the component), and the component
/// itself keeps only the probability vector — the two views are equivalent
/// and this one keeps the algebra simple. See `ARCHITECTURE.md`.
#[derive(Clone, Debug, PartialEq)]
pub struct Component {
    probs: Vec<f64>,
}

impl Component {
    /// Build a component from positive weights; probabilities are the
    /// normalized weights.
    pub fn from_weights(weights: &[f64]) -> Result<Self, MayError> {
        if weights.is_empty() {
            return Err(MayError::InvalidComponent("no alternatives".into()));
        }
        if weights.len() > u16::MAX as usize {
            return Err(MayError::InvalidComponent(format!(
                "{} alternatives exceeds the u16 descriptor limit",
                weights.len()
            )));
        }
        let mut sum = 0.0;
        for &w in weights {
            if !w.is_finite() || w <= 0.0 {
                return Err(MayError::InvalidComponent(format!(
                    "weight {w} is not positive"
                )));
            }
            sum += w;
        }
        Ok(Component {
            probs: weights.iter().map(|w| w / sum).collect(),
        })
    }

    /// A uniform distribution over `n` alternatives.
    pub fn uniform(n: usize) -> Result<Self, MayError> {
        Component::from_weights(&vec![1.0; n])
    }

    /// Number of alternatives (local worlds).
    pub fn alternatives(&self) -> u16 {
        self.probs.len() as u16
    }

    /// Probability of one alternative.
    pub fn prob(&self, alternative: u16) -> f64 {
        self.probs[alternative as usize]
    }

    /// Map a uniform draw `u ∈ (0, 1]` to an alternative by walking the
    /// cumulative distribution. Used by the sampling confidence solver; with
    /// a deterministic `u` source the chosen alternative is deterministic.
    pub fn sample(&self, u: f64) -> u16 {
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u <= acc {
                return i as u16;
            }
        }
        // Float rounding can leave the accumulated sum a hair below 1.0.
        (self.probs.len() - 1) as u16
    }
}

/// The set of all components of an uncertain database. The represented world
/// set is the product of the components' local worlds: one world per
/// combination of alternatives.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ComponentSet {
    comps: Vec<Component>,
}

/// One fully decomposed world: a choice of alternative for every component.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorldPick {
    choices: Vec<u16>,
}

impl WorldPick {
    /// The alternative chosen for a component.
    pub fn choice(&self, c: ComponentId) -> u16 {
        self.choices[c.0 as usize]
    }
}

impl ComponentSet {
    /// An empty component set (exactly one world).
    pub fn new() -> Self {
        ComponentSet::default()
    }

    /// Register a component and return its id.
    pub fn add(&mut self, c: Component) -> ComponentId {
        let id = ComponentId(self.comps.len() as u32);
        self.comps.push(c);
        id
    }

    /// The component with the given id.
    pub fn get(&self, id: ComponentId) -> &Component {
        &self.comps[id.0 as usize]
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// True when there are no components (a single certain world).
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Iterate over `(id, component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.comps
            .iter()
            .enumerate()
            .map(|(i, c)| (ComponentId(i as u32), c))
    }

    /// Total number of represented worlds (the product of alternative
    /// counts), or `None` if the product overflows `u128`.
    pub fn world_count(&self) -> Option<u128> {
        let mut n: u128 = 1;
        for c in &self.comps {
            n = n.checked_mul(c.alternatives() as u128)?;
        }
        Some(n)
    }

    /// Enumerate every world as a [`WorldPick`], in lexicographic order.
    /// This is exponential by design — it is the naive oracle the compact
    /// evaluators are tested against. `limit` guards against blow-up.
    pub fn enumerate(&self, limit: u128) -> Result<Vec<WorldPick>, MayError> {
        let count = self.world_count().ok_or_else(|| {
            MayError::Unsupported("world count overflows u128; enumeration is impossible".into())
        })?;
        if count > limit {
            return Err(MayError::TooManyWorlds { count, limit });
        }
        let mut out = Vec::with_capacity(count as usize);
        let mut choices = vec![0u16; self.comps.len()];
        loop {
            out.push(WorldPick {
                choices: choices.clone(),
            });
            // Advance the odometer; the last component varies fastest.
            let mut i = self.comps.len();
            loop {
                if i == 0 {
                    return Ok(out);
                }
                i -= 1;
                choices[i] += 1;
                if choices[i] < self.comps[i].alternatives() {
                    break;
                }
                choices[i] = 0;
            }
        }
    }

    /// Probability of one world (product of its independent choices).
    pub fn prob_of_pick(&self, pick: &WorldPick) -> f64 {
        self.comps
            .iter()
            .zip(&pick.choices)
            .map(|(c, &a)| c.prob(a))
            .product()
    }

    /// Check that a descriptor only references components of this set, with
    /// in-range alternatives. This is the invariant every stored u-relation
    /// must satisfy (enforced by `WorldSet::insert`); evaluation preserves
    /// it because conjunction never invents terms.
    pub fn validate_descriptor(&self, d: &WsDescriptor) -> Result<(), MayError> {
        for &(c, a) in d.terms() {
            if c.0 as usize >= self.comps.len() {
                return Err(MayError::InvalidDescriptor(format!(
                    "{c} does not exist (only {} components)",
                    self.comps.len()
                )));
            }
            if a >= self.get(c).alternatives() {
                return Err(MayError::InvalidDescriptor(format!(
                    "{c}={a} is out of range ({c} has {} alternatives)",
                    self.get(c).alternatives()
                )));
            }
        }
        Ok(())
    }

    /// Probability of the world set denoted by a single descriptor: the
    /// product of the probabilities of its assignments (components are
    /// independent).
    pub fn prob_of_descriptor(&self, d: &WsDescriptor) -> f64 {
        d.terms()
            .iter()
            .map(|&(c, a)| self.get(c).prob(a))
            .product()
    }

    /// Exact probability of a disjunction of descriptors, *factorized*.
    ///
    /// The descriptors are partitioned into connected groups over shared
    /// components (two descriptors are connected when they mention a common
    /// component). Groups touch disjoint component sets, so by independence
    ///
    /// ```text
    /// P(d₁ ∨ … ∨ dₙ) = 1 − Π over groups g of (1 − P(g))
    /// ```
    ///
    /// and each group is solved exactly by whichever of two exact methods is
    /// cheaper for it: inclusion–exclusion over the group's `k` descriptors
    /// (`2ᵏ − 1` conjunction probabilities) or enumeration of the group's
    /// component assignments (`Π` alternative counts). The overall cost is
    /// exponential only in the largest *connected* group, never in the total
    /// number of relevant components — two disjoint groups of 10 components
    /// cost `2·cost(10)`, not `cost(20)`. Exact `conf` remains #P-hard in
    /// general; [`ComponentSet::prob_of_dnf_enumerate`] keeps the
    /// unfactorized brute force as the differential-testing oracle.
    pub fn prob_of_dnf<D: Borrow<WsDescriptor>>(&self, descs: &[D]) -> f64 {
        if descs.iter().any(|d| d.borrow().is_tautology()) {
            return 1.0;
        }
        let refs: Vec<&WsDescriptor> = descs.iter().map(Borrow::borrow).collect();
        if refs.is_empty() {
            return 0.0;
        }
        let mut prob_none = 1.0;
        for group in connected_groups(&refs) {
            prob_none *= 1.0 - self.prob_of_group(&group);
            if prob_none == 0.0 {
                break;
            }
        }
        1.0 - prob_none
    }

    /// Exact probability of a disjunction of descriptors by brute-force
    /// enumeration of every assignment of every relevant component — the
    /// original unfactorized algorithm, kept as the oracle that the
    /// factorized [`ComponentSet::prob_of_dnf`] is tested against.
    /// Exponential in the total number of relevant components.
    pub fn prob_of_dnf_enumerate<D: Borrow<WsDescriptor>>(&self, descs: &[D]) -> f64 {
        if descs.iter().any(|d| d.borrow().is_tautology()) {
            return 1.0;
        }
        let refs: Vec<&WsDescriptor> = descs.iter().map(Borrow::borrow).collect();
        let mut total = 0.0;
        self.for_each_relevant_assignment(&refs, |assignment, prob| {
            if refs.iter().any(|d| assignment_satisfies(assignment, d)) {
                total += prob;
            }
            ControlFlow::Continue(())
        });
        total
    }

    /// Whether the disjunction of `descs` covers *all* worlds — i.e. a tuple
    /// with these descriptors is certain. Purely possibilistic: probabilities
    /// are ignored, every combination of alternatives counts.
    ///
    /// Factorized like [`ComponentSet::prob_of_dnf`]: a disjunction over
    /// disjoint component groups covers all worlds iff *some single group*
    /// covers every assignment of its own components (if every group has a
    /// falsifying partial assignment, their union falsifies the whole
    /// disjunction). Each group check stops at the first uncovered
    /// assignment, so the common "not certain" case is cheap.
    pub fn covers_all_worlds<D: Borrow<WsDescriptor>>(&self, descs: &[D]) -> bool {
        if descs.iter().any(|d| d.borrow().is_tautology()) {
            return true;
        }
        let refs: Vec<&WsDescriptor> = descs.iter().map(Borrow::borrow).collect();
        if refs.is_empty() {
            return false;
        }
        connected_groups(&refs)
            .iter()
            .any(|group| self.group_covers_all(group))
    }

    /// Exact probability that at least one descriptor of one connected group
    /// holds, by the cheaper of inclusion–exclusion and assignment
    /// enumeration (both exact). Correct for any descriptor set (both
    /// methods are exact regardless of connectivity); connectivity only
    /// matters for cost, which is what [`ComponentSet::group_exact_cost`]
    /// bounds. Both sums can round just outside [0, 1] (a full key group
    /// whose alternatives sum to 1.0000000000000002, say), so the result is
    /// clamped into it.
    pub fn prob_of_group(&self, group: &[&WsDescriptor]) -> f64 {
        let enum_cost = self.assignment_count(group);
        let ie_cost = if group.len() < 64 {
            1u128 << group.len()
        } else {
            u128::MAX
        };
        // The group-size check must stand on its own: when both costs
        // saturate (≥ 64 descriptors over enough components), the tie must
        // fall to enumeration — inclusion–exclusion's u64 subset masks
        // cannot represent ≥ 64 descriptors.
        let p = if group.len() < 64 && ie_cost <= enum_cost {
            self.prob_by_inclusion_exclusion(group)
        } else {
            let mut total = 0.0;
            self.for_each_relevant_assignment(group, |assignment, prob| {
                if group.iter().any(|d| assignment_satisfies(assignment, d)) {
                    total += prob;
                }
                ControlFlow::Continue(())
            });
            total
        };
        p.clamp(0.0, 1.0)
    }

    /// Cost bound for solving one connected group *exactly*: the cheaper of
    /// the two exact methods [`ComponentSet::prob_of_group`] chooses between,
    /// i.e. `min(2^descriptors, Π alternative counts)` (saturating; the
    /// inclusion–exclusion side saturates at `u128::MAX` for ≥ 64
    /// descriptors, whose subset masks are unrepresentable). The sampling
    /// confidence solver compares this bound against its cutover threshold:
    /// groups under the threshold keep the exact factorized path, groups
    /// over it are estimated.
    pub fn group_exact_cost(&self, group: &[&WsDescriptor]) -> u128 {
        let ie_cost = if group.len() < 64 {
            1u128 << group.len()
        } else {
            u128::MAX
        };
        ie_cost.min(self.assignment_count(group))
    }

    /// Number of assignments [`Self::for_each_relevant_assignment`] would
    /// visit for these descriptors (saturating).
    fn assignment_count(&self, descs: &[&WsDescriptor]) -> u128 {
        let vars: BTreeSet<ComponentId> = descs
            .iter()
            .flat_map(|d| d.terms().iter().map(|&(c, _)| c))
            .collect();
        let mut n: u128 = 1;
        for c in vars {
            n = n.saturating_mul(self.get(c).alternatives() as u128);
        }
        n
    }

    /// Inclusion–exclusion over the descriptors of one group:
    /// `P(∨dᵢ) = Σ over non-empty S of (−1)^{|S|+1} · P(∧_{i∈S} dᵢ)`, where
    /// each conjunction's probability is the product of its assignments'
    /// probabilities (0 when the conjunction is inconsistent). `2ᵏ − 1`
    /// subset merges, no allocation beyond two reused term buffers.
    fn prob_by_inclusion_exclusion(&self, descs: &[&WsDescriptor]) -> f64 {
        debug_assert!(descs.len() < 64, "subset masks are u64");
        let mut total = 0.0;
        let mut acc: Vec<(ComponentId, u16)> = Vec::new();
        let mut tmp: Vec<(ComponentId, u16)> = Vec::new();
        for mask in 1u64..(1u64 << descs.len()) {
            acc.clear();
            let mut consistent = true;
            let mut first = true;
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if first {
                    acc.extend_from_slice(descs[i].terms());
                    first = false;
                    continue;
                }
                tmp.clear();
                if !merge_sorted_terms(&acc, descs[i].terms(), &mut tmp) {
                    consistent = false;
                    break;
                }
                std::mem::swap(&mut acc, &mut tmp);
            }
            if !consistent {
                continue;
            }
            let p: f64 = acc.iter().map(|&(c, a)| self.get(c).prob(a)).product();
            if mask.count_ones() % 2 == 1 {
                total += p;
            } else {
                total -= p;
            }
        }
        total
    }

    /// Whether one connected group's descriptors cover every assignment of
    /// the group's components (early-exits on the first gap).
    fn group_covers_all(&self, group: &[&WsDescriptor]) -> bool {
        let mut all = true;
        self.for_each_relevant_assignment(group, |assignment, _| {
            if group.iter().any(|d| assignment_satisfies(assignment, d)) {
                ControlFlow::Continue(())
            } else {
                all = false;
                ControlFlow::Break(())
            }
        });
        all
    }

    /// Drive `f` over every combination of alternatives of the components
    /// mentioned in `descs`, with the combination's probability, until
    /// exhausted or `f` breaks.
    fn for_each_relevant_assignment(
        &self,
        descs: &[&WsDescriptor],
        mut f: impl FnMut(&[(ComponentId, u16)], f64) -> ControlFlow<()>,
    ) {
        let vars: Vec<ComponentId> = descs
            .iter()
            .flat_map(|d| d.terms().iter().map(|&(c, _)| c))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if vars.is_empty() {
            let _ = f(&[], 1.0);
            return;
        }
        let mut assignment: Vec<(ComponentId, u16)> = vars.iter().map(|&c| (c, 0)).collect();
        loop {
            let prob: f64 = assignment
                .iter()
                .map(|&(c, a)| self.get(c).prob(a))
                .product();
            if f(&assignment, prob).is_break() {
                return;
            }
            let mut i = vars.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                assignment[i].1 += 1;
                if assignment[i].1 < self.get(vars[i]).alternatives() {
                    break;
                }
                assignment[i].1 = 0;
            }
        }
    }
}

/// Partition descriptors into connected groups: two descriptors share a
/// group iff they are linked by a chain of shared components. Union-find
/// over descriptor indices, linear in the total number of terms. Groups are
/// returned in first-occurrence order of their earliest descriptor, and
/// each group lists its descriptors in input order, so both the float
/// combination order and any content hashing downstream are deterministic
/// across processes and thread counts. Public because the sampling
/// confidence solver in `maybms-ql` partitions the same way and then
/// decides exact-vs-sample per group.
pub fn connected_groups<'d>(descs: &[&'d WsDescriptor]) -> Vec<Vec<&'d WsDescriptor>> {
    let mut parent: Vec<usize> = (0..descs.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    let mut owner: FxHashMap<ComponentId, usize> = FxHashMap::default();
    for (i, d) in descs.iter().enumerate() {
        for &(c, _) in d.terms() {
            match owner.get(&c) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri] = rj;
                }
                None => {
                    owner.insert(c, i);
                }
            }
        }
    }
    let mut slot_of_root: FxHashMap<usize, usize> = FxHashMap::default();
    let mut groups: Vec<Vec<&WsDescriptor>> = Vec::new();
    for (i, d) in descs.iter().enumerate() {
        let root = find(&mut parent, i);
        let slot = *slot_of_root.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(d);
    }
    groups
}

/// Counters of one confidence-solver run (exact or sampling), surfaced
/// through `ExecStats` and the REPL's `\stats` meta-command. Defined here —
/// next to the group partition both solver paths share — so the executor
/// crate can carry the counters without depending on `maybms-ql`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfStats {
    /// Connected descriptor groups solved by the exact factorized path.
    pub exact_groups: u64,
    /// Connected descriptor groups solved by sampling.
    pub sampled_groups: u64,
    /// Total Monte Carlo / Karp–Luby draws across all sampled groups.
    pub samples_drawn: u64,
    /// Largest connected group seen, in descriptors.
    pub largest_group: u64,
}

impl ConfStats {
    /// Fold another run's counters into this one.
    pub fn absorb(&mut self, other: &ConfStats) {
        self.exact_groups += other.exact_groups;
        self.sampled_groups += other.sampled_groups;
        self.samples_drawn += other.samples_drawn;
        self.largest_group = self.largest_group.max(other.largest_group);
    }
}

/// Whether a (sorted) partial assignment satisfies a descriptor. Every
/// component of `d` is guaranteed to occur in `assignment` by construction.
fn assignment_satisfies(assignment: &[(ComponentId, u16)], d: &WsDescriptor) -> bool {
    d.terms().iter().all(|&(c, a)| {
        assignment
            .binary_search_by_key(&c, |&(id, _)| id)
            .map(|i| assignment[i].1 == a)
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_probabilities_sum_to_one() {
        let mut cs = ComponentSet::new();
        cs.add(Component::from_weights(&[1.0, 3.0]).unwrap());
        cs.add(Component::uniform(3).unwrap());
        let worlds = cs.enumerate(1_000).unwrap();
        assert_eq!(worlds.len(), 6);
        let total: f64 = worlds.iter().map(|w| cs.prob_of_pick(w)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dnf_probability_matches_enumeration() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::from_weights(&[1.0, 1.0]).unwrap());
        let c1 = cs.add(Component::from_weights(&[1.0, 2.0, 1.0]).unwrap());
        let descs = vec![
            WsDescriptor::single(c0, 0),
            WsDescriptor::single(c0, 1)
                .conjoin(&WsDescriptor::single(c1, 2))
                .unwrap(),
        ];
        let by_enum: f64 = cs
            .enumerate(1_000)
            .unwrap()
            .iter()
            .filter(|w| descs.iter().any(|d| d.satisfied_by(w)))
            .map(|w| cs.prob_of_pick(w))
            .sum();
        assert!((cs.prob_of_dnf(&descs) - by_enum).abs() < 1e-12);
    }

    #[test]
    fn coverage_detects_certain_tuples() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::uniform(2).unwrap());
        let both = vec![WsDescriptor::single(c0, 0), WsDescriptor::single(c0, 1)];
        assert!(cs.covers_all_worlds(&both));
        assert!(!cs.covers_all_worlds(&both[..1]));
    }

    #[test]
    fn group_exact_cost_takes_the_cheaper_method() {
        let mut cs = ComponentSet::new();
        let c0 = cs.add(Component::uniform(2).unwrap());
        let c1 = cs.add(Component::uniform(3).unwrap());
        let d0 = WsDescriptor::single(c0, 0);
        let d1 = WsDescriptor::single(c1, 1);
        // Two descriptors over 2·3 assignments: IE (2² = 4) wins.
        assert_eq!(cs.group_exact_cost(&[&d0, &d1]), 4);
        // One descriptor over one binary component: enumeration (2) wins.
        assert_eq!(cs.group_exact_cost(&[&d0]), 2);
    }

    #[test]
    fn sample_walks_the_cdf() {
        let c = Component::from_weights(&[1.0, 2.0, 1.0]).unwrap();
        assert_eq!(c.sample(0.1), 0);
        assert_eq!(c.sample(0.25), 0);
        assert_eq!(c.sample(0.26), 1);
        assert_eq!(c.sample(0.75), 1);
        assert_eq!(c.sample(0.76), 2);
        assert_eq!(c.sample(1.0), 2);
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(Component::from_weights(&[]).is_err());
        assert!(Component::from_weights(&[1.0, 0.0]).is_err());
        assert!(Component::from_weights(&[1.0, f64::NAN]).is_err());
    }
}
