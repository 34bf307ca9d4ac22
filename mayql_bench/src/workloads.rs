//! The three workloads: what each loads, the statement script it replays,
//! and why it is in the benchmark. `README.md` next to this file carries the
//! same definitions together with the layer → metric → workload predictions.
//!
//! Every workload is one closed-loop client. Its input (components plus
//! relations) and its script are pure functions of the seed and the size, so
//! equal seeds give equal inputs and equal statements. Statement *classes*
//! come in a fixed order and mix; only their parameters (keys, ranges,
//! selectivities) are drawn from the seed, which keeps the latency mix the
//! same across seeds.

use maybms_core::rng::Rng;
use maybms_core::{
    Component, ComponentId, ComponentSet, Schema, Tuple, URelation, Value, ValueType, WsDescriptor,
};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Select–project–join reads over four uncertain chains.
    JoinAnalytics,
    /// `CONF` reads over descriptor-heavy relations.
    ConfSolve,
    /// The census-cleaning session: `REPAIR KEY` writes beside reads.
    RepairSession,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::JoinAnalytics,
    Workload::ConfSolve,
    Workload::RepairSession,
];

/// A generated input: the component set the relations' descriptors refer
/// to, and the relations in insertion order.
#[derive(Clone, Debug)]
pub struct Input {
    /// Components referenced by the relations' descriptors.
    pub components: ComponentSet,
    /// Named relations, inserted in this order.
    pub relations: Vec<(String, URelation)>,
}

/// One statement of a script: `LET name = query` when `write` names the
/// relation it binds, otherwise a read query.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The relation a write binds; `None` for reads.
    pub write: Option<String>,
    /// The MayQL query text (without the `LET` prefix).
    pub query: String,
}

impl Stmt {
    fn read(query: String) -> Stmt {
        Stmt { write: None, query }
    }

    /// The full statement text as a client sends it.
    pub fn text(&self) -> String {
        match &self.write {
            Some(name) => format!("LET {name} = {}", self.query),
            None => self.query.clone(),
        }
    }
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinAnalytics => "join_analytics",
            Workload::ConfSolve => "conf_solve",
            Workload::RepairSession => "repair_session",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured input size: rows per relation for `join_analytics` and
    /// `repair_session`, tuples per relation for `conf_solve`.
    pub fn full_size(self) -> usize {
        match self {
            Workload::JoinAnalytics => 100_000,
            Workload::ConfSolve => 1_000,
            Workload::RepairSession => 100_000,
        }
    }

    /// Generate the input and one pass of the script.
    pub fn generate(self, seed: u64, size: usize) -> (Input, Vec<Stmt>) {
        let mut rng = Rng::new(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self {
            Workload::JoinAnalytics => join_analytics(&mut rng, size),
            Workload::ConfSolve => conf_solve(&mut rng, size),
            Workload::RepairSession => repair_session(&mut rng, size),
        }
    }
}

fn schema(cols: &[(&str, ValueType)]) -> Schema {
    Schema::of(cols).expect("workload column names are distinct")
}

fn relation(schema: Schema, rows: Vec<(Tuple, WsDescriptor)>) -> URelation {
    URelation::from_rows_unchecked(schema, rows)
}

fn ints(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
}

/// A selectivity near `base` (±10%), as a count out of `of`.
fn jittered(rng: &mut Rng, base: f64, of: usize) -> usize {
    let f = base * (0.9 + 0.2 * rng.unit_f64());
    ((f * of as f64) as usize).max(1)
}

// ---------------------------------------------------------------------------
// join_analytics
// ---------------------------------------------------------------------------

/// Selectivities the filtered join statements cycle through.
const SELECTIVITIES: [f64; 4] = [0.01, 0.05, 0.2, 0.5];

/// Range of the integer filter columns (`iv*`, `sv*`, `fv*`, `zv*`).
const FILTER_DOMAIN: usize = 1000;

/// A chain `r1 ⋈ r2 ⋈ … ⋈ rm` and the column names its statements use.
struct Chain {
    rels: Vec<String>,
    /// First relation's unique key (the "filter first" column).
    first_key: String,
    /// Last relation's payload column (the "filter last" column), an int in
    /// `0..FILTER_DOMAIN`.
    last_filter: String,
    /// Last column of the chain's last relation (the full join's output).
    last_col: String,
    /// Columns of the 2-way `POSSIBLE` statement: `r1`'s key, `r2`'s
    /// outgoing key, and `r1`'s int filter column.
    pair_cols: (String, String, String),
    /// Keys are strings (`'k0000123'`) rather than ints.
    string_keys: bool,
}

/// `join_analytics` — a seeded mix of select–project–join reads over four
/// uncertain chains loaded side by side in one component set, `n` rows per
/// relation:
///
/// * `ic1 ⋈ ic2 ⋈ ic3` — an int-keyed 3-chain;
/// * `sc1 ⋈ sc2 ⋈ sc3` — a string-keyed 3-chain;
/// * `fc1 ⋈ … ⋈ fc5` — a 5-way chain whose tail `fc5` keeps 1 key in 100;
/// * `zc1 ⋈ zc2 ⋈ zc3` — a chain whose foreign keys are zipf-skewed.
///
/// Every link is a foreign key into the next relation's unique key, so a
/// full chain join returns `n` rows (`n / 100` for the 5-way chain). Half
/// the rows are certain; the rest carry one term on a shared pool of `n/10`
/// binary components, so joins conjoin descriptors and drop inconsistent
/// pairs. Per chain and round the script issues a full join, a join
/// filtered on its first relation, a join filtered on its last relation,
/// and `POSSIBLE` over a filtered 2-way join; there is no `CONF` and no
/// write.
///
/// Why: join build/probe/gather, SIP, cost-based reordering and the
/// morsel-parallel paths carry the load here and almost nowhere else — every
/// statement's inputs are above the 4096-row morsel cutover.
fn join_analytics(rng: &mut Rng, n: usize) -> (Input, Vec<Stmt>) {
    let mut components = ComponentSet::new();
    let pool: Vec<ComponentId> = (0..(n / 10).max(1))
        .map(|_| components.add(Component::uniform(2).expect("2 > 0")))
        .collect();
    let desc = |rng: &mut Rng| {
        if rng.chance(0.5) {
            WsDescriptor::tautology()
        } else {
            WsDescriptor::single(*rng.pick(&pool), rng.below(2) as u16)
        }
    };
    let zipf = Zipf::new(n, 1.0);
    let mut relations = Vec::new();
    let mut chains = Vec::new();

    // Int-keyed 3-chain: ic_j(i_{j-1}, i_j, iv_j), i_{j-1} unique.
    for j in 1..=3 {
        let rows = (0..n)
            .map(|r| {
                let t = ints(&[
                    r as i64,
                    rng.below(n) as i64,
                    rng.below(FILTER_DOMAIN) as i64,
                ]);
                (t, desc(rng))
            })
            .collect();
        let s = schema(&[
            (&format!("i{}", j - 1), ValueType::Int),
            (&format!("i{j}"), ValueType::Int),
            (&format!("iv{j}"), ValueType::Int),
        ]);
        relations.push((format!("ic{j}"), relation(s, rows)));
    }
    chains.push(Chain {
        rels: (1..=3).map(|j| format!("ic{j}")).collect(),
        first_key: "i0".into(),
        last_filter: "iv3".into(),
        last_col: "i3".into(),
        pair_cols: ("i0".into(), "i2".into(), "iv1".into()),
        string_keys: false,
    });

    // String-keyed 3-chain: sc_j(s_{j-1}, s_j, sv_j).
    for j in 1..=3 {
        let rows = (0..n)
            .map(|r| {
                let t = Tuple::new(vec![
                    Value::Str(skey(r)),
                    Value::Str(skey(rng.below(n))),
                    Value::Int(rng.below(FILTER_DOMAIN) as i64),
                ]);
                (t, desc(rng))
            })
            .collect();
        let s = schema(&[
            (&format!("s{}", j - 1), ValueType::Str),
            (&format!("s{j}"), ValueType::Str),
            (&format!("sv{j}"), ValueType::Int),
        ]);
        relations.push((format!("sc{j}"), relation(s, rows)));
    }
    chains.push(Chain {
        rels: (1..=3).map(|j| format!("sc{j}")).collect(),
        first_key: "s0".into(),
        last_filter: "sv3".into(),
        last_col: "s3".into(),
        pair_cols: ("s0".into(), "s2".into(), "sv1".into()),
        string_keys: true,
    });

    // 5-way chain fc_j(f_{j-1}, f_j, fv_j); fc5's key keeps 1 value in 100
    // inside the domain fc4 points into, the rest lie outside it.
    for j in 1..=5 {
        let rows = (0..n)
            .map(|r| {
                let key = if j < 5 || r % 100 == 0 { r } else { n + r };
                let t = ints(&[
                    key as i64,
                    rng.below(n) as i64,
                    rng.below(FILTER_DOMAIN) as i64,
                ]);
                (t, desc(rng))
            })
            .collect();
        let s = schema(&[
            (&format!("f{}", j - 1), ValueType::Int),
            (&format!("f{j}"), ValueType::Int),
            (&format!("fv{j}"), ValueType::Int),
        ]);
        relations.push((format!("fc{j}"), relation(s, rows)));
    }
    chains.push(Chain {
        rels: (1..=5).map(|j| format!("fc{j}")).collect(),
        first_key: "f0".into(),
        last_filter: "fv5".into(),
        last_col: "f5".into(),
        pair_cols: ("f0".into(), "f2".into(), "fv1".into()),
        string_keys: false,
    });

    // Zipf-skewed 3-chain zc_j(z_{j-1}, z_j, zv_j): unique keys, foreign
    // keys drawn from a zipf(1.0) distribution over the next key domain.
    for j in 1..=3 {
        let rows = (0..n)
            .map(|r| {
                let t = ints(&[
                    r as i64,
                    zipf.sample(rng) as i64,
                    rng.below(FILTER_DOMAIN) as i64,
                ]);
                (t, desc(rng))
            })
            .collect();
        let s = schema(&[
            (&format!("z{}", j - 1), ValueType::Int),
            (&format!("z{j}"), ValueType::Int),
            (&format!("zv{j}"), ValueType::Int),
        ]);
        relations.push((format!("zc{j}"), relation(s, rows)));
    }
    chains.push(Chain {
        rels: (1..=3).map(|j| format!("zc{j}")).collect(),
        first_key: "z0".into(),
        last_filter: "zv3".into(),
        last_col: "z3".into(),
        pair_cols: ("z0".into(), "z2".into(), "zv1".into()),
        string_keys: false,
    });

    let mut script = Vec::new();
    for round in 0..2 {
        for (c, chain) in chains.iter().enumerate() {
            let from = chain.rels.join(", ");
            let sel = |k: usize| SELECTIVITIES[(round * 2 + c + k) % SELECTIVITIES.len()];
            script.push(Stmt::read(format!(
                "SELECT {}, {} FROM {from}",
                chain.first_key, chain.last_col
            )));
            let bound = jittered(rng, sel(0), n);
            let bound = if chain.string_keys {
                format!("'{}'", skey(bound))
            } else {
                bound.to_string()
            };
            script.push(Stmt::read(format!(
                "SELECT {}, {} FROM {from} WHERE {} < {bound}",
                chain.first_key, chain.last_col, chain.first_key
            )));
            script.push(Stmt::read(format!(
                "SELECT {}, {} FROM {from} WHERE {} < {}",
                chain.first_key,
                chain.last_col,
                chain.last_filter,
                jittered(rng, sel(1), FILTER_DOMAIN)
            )));
            let (a, b, f) = &chain.pair_cols;
            script.push(Stmt::read(format!(
                "SELECT POSSIBLE {a}, {b} FROM {}, {} WHERE {f} < {}",
                chain.rels[0],
                chain.rels[1],
                jittered(rng, sel(2), FILTER_DOMAIN)
            )));
        }
    }
    (
        Input {
            components,
            relations,
        },
        script,
    )
}

/// A fixed-width string key that sorts like its number.
fn skey(k: usize) -> String {
    format!("k{k:07}")
}

/// Zipf(s) over `0..n`, with ranks scattered over the domain by a fixed
/// bijection so the hot keys are not the smallest ones.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        // 7919 is prime and the sizes used are powers of ten, so this
        // permutes 0..n.
        (rank * 7919 + 13) % self.cdf.len()
    }
}

// ---------------------------------------------------------------------------
// conf_solve
// ---------------------------------------------------------------------------

/// Slice widths (fraction of the tuples) the `CONF` statements cycle
/// through. Each statement converts its whole relation to columnar form, so
/// the slices are wide: that keeps the solver's share of a statement high.
const CONF_SLICES: [f64; 3] = [0.6, 0.8, 1.0];

/// `conf_solve` — `CONF` reads over random id-range slices of three
/// descriptor-heavy relations of `t` tuples each, every tuple owning fresh
/// binary components:
///
/// * `chain(cid)` — exact conf over 10-link chains: 11 components, one
///   2-term descriptor per adjacent pair, one connected group per tuple;
/// * `disj(did)` — exact conf over 2 disjoint 10-component groups of
///   overlapping 2–3-term windows;
/// * `dense(nid)` — `CONF(0.1, 0.05)` over 26-component / 30-descriptor
///   dense groups (3 terms each), whose exact cost bound `2^26` is far above
///   the sampling cutover.
///
/// Why: the confidence solver does most of the work here and none in
/// `join_analytics`. Exact and approximate conf are distinct statement
/// classes with fixed shapes.
fn conf_solve(rng: &mut Rng, t: usize) -> (Input, Vec<Stmt>) {
    let mut components = ComponentSet::new();
    let mut fresh = |k: usize| -> Vec<ComponentId> {
        (0..k)
            .map(|_| components.add(Component::uniform(2).expect("2 > 0")))
            .collect()
    };
    let term = |rng: &mut Rng, c: ComponentId| (c, rng.below(2) as u16);
    let desc = |terms: Vec<(ComponentId, u16)>| {
        WsDescriptor::from_terms(terms).expect("terms name distinct components")
    };

    let mut chain = Vec::new();
    let mut disj = Vec::new();
    let mut dense = Vec::new();
    for i in 0..t {
        let id = ints(&[i as i64]);
        let comps = fresh(11);
        for pair in comps.windows(2) {
            let d = desc(vec![term(rng, pair[0]), term(rng, pair[1])]);
            chain.push((id.clone(), d));
        }
        for _ in 0..2 {
            let comps = fresh(10);
            let width = rng.range(2, 3);
            let mut start = 0;
            loop {
                let end = (start + width).min(comps.len());
                let terms = comps[start..end].iter().map(|&c| term(rng, c)).collect();
                disj.push((id.clone(), desc(terms)));
                if end == comps.len() {
                    break;
                }
                start = end - 1;
            }
        }
        let comps = fresh(26);
        for d in 0..30 {
            let a = d % 25;
            let third = loop {
                let j = rng.below(26);
                if j != a && j != a + 1 {
                    break j;
                }
            };
            let terms = [a, a + 1, third]
                .iter()
                .map(|&j| term(rng, comps[j]))
                .collect();
            dense.push((id.clone(), desc(terms)));
        }
    }
    let relations = vec![
        (
            "chain".to_string(),
            relation(schema(&[("cid", ValueType::Int)]), chain),
        ),
        (
            "disj".to_string(),
            relation(schema(&[("did", ValueType::Int)]), disj),
        ),
        (
            "dense".to_string(),
            relation(schema(&[("nid", ValueType::Int)]), dense),
        ),
    ];

    let slice = |rng: &mut Rng, frac: f64| {
        let w = ((frac * t as f64) as usize).max(1);
        let lo = rng.below(t - w + 1);
        (lo, lo + w)
    };
    let mut script = Vec::new();
    for round in 0..8 {
        let frac = |k: usize| CONF_SLICES[(round + k) % CONF_SLICES.len()];
        let (lo, hi) = slice(rng, frac(0));
        script.push(Stmt::read(format!(
            "SELECT CONF cid FROM chain WHERE cid >= {lo} AND cid < {hi}"
        )));
        let (lo, hi) = slice(rng, frac(1));
        script.push(Stmt::read(format!(
            "SELECT CONF did FROM disj WHERE did >= {lo} AND did < {hi}"
        )));
        let (lo, hi) = slice(rng, frac(2));
        script.push(Stmt::read(format!(
            "SELECT CONF(0.1, 0.05) nid FROM dense WHERE nid >= {lo} AND nid < {hi}"
        )));
    }
    (
        Input {
            components,
            relations,
        },
        script,
    )
}

// ---------------------------------------------------------------------------
// repair_session
// ---------------------------------------------------------------------------

/// Form batches loaded (and repaired, one per round).
pub const REPAIR_ROUNDS: usize = 8;

/// Keys covered by each range read.
const KEY_RANGE: usize = 50;

/// `repair_session` — the paper's census-cleaning flow, writes beside
/// reads. Loads eight certain batches `forms_i(k, v, w)` of `n` rows each
/// (keys in `0..n/4`, so key groups of about 4; readings `v` of key `k` lie
/// in `4k..4k+4`; weights `w` in `1..=5`) plus a certain `homes(v, city)`
/// of `n` rows. Each of the eight rounds issues one write,
/// `LET c_i = REPAIR KEY k IN forms_i WEIGHT BY w`, followed by 25 selective
/// reads: 6 point `POSSIBLE`, 5 range `CERTAIN`, 5 range `CONF`, 4 `CONF`
/// self-joins of `c_i` with `c_{i-1}` (with itself in round 1), and 5
/// `POSSIBLE city FROM c_i, homes WHERE k = …`.
///
/// The world set grows from `9n` to `17n` rows over a pass; each pass
/// restarts from the loaded state.
///
/// Why: the only workload with writes, and the only one where per-query work
/// is dominated by converting whole relations to return a few rows and by
/// re-collecting statistics after each write.
fn repair_session(rng: &mut Rng, n: usize) -> (Input, Vec<Stmt>) {
    let keys = (n / 4).max(1);
    let mut relations = Vec::new();
    let form_schema = schema(&[
        ("k", ValueType::Int),
        ("v", ValueType::Int),
        ("w", ValueType::Int),
    ]);
    for i in 1..=REPAIR_ROUNDS {
        let rows = (0..n)
            .map(|_| {
                let k = rng.below(keys);
                let t = ints(&[
                    k as i64,
                    (4 * k + rng.below(4)) as i64,
                    rng.range(1, 5) as i64,
                ]);
                (t, WsDescriptor::tautology())
            })
            .collect();
        relations.push((format!("forms{i}"), relation(form_schema.clone(), rows)));
    }
    let homes = (0..4 * keys)
        .map(|v| {
            let t = Tuple::new(vec![
                Value::Int(v as i64),
                Value::Str(format!("city{:03}", rng.below(1000))),
            ]);
            (t, WsDescriptor::tautology())
        })
        .collect();
    relations.push((
        "homes".to_string(),
        relation(
            schema(&[("v", ValueType::Int), ("city", ValueType::Str)]),
            homes,
        ),
    ));

    let range = |rng: &mut Rng| {
        let lo = rng.below(keys.saturating_sub(KEY_RANGE) + 1);
        (lo, lo + KEY_RANGE)
    };
    let mut script = Vec::new();
    for i in 1..=REPAIR_ROUNDS {
        let c = format!("c{i}");
        let prev = format!("c{}", (i - 1).max(1));
        script.push(Stmt {
            write: Some(c.clone()),
            query: format!("REPAIR KEY k IN forms{i} WEIGHT BY w"),
        });
        for j in 0..25 {
            let q = match j % 5 {
                0 => {
                    let (lo, hi) = range(rng);
                    format!("SELECT CERTAIN k FROM {c} WHERE k >= {lo} AND k < {hi}")
                }
                1 => {
                    let (lo, hi) = range(rng);
                    format!("SELECT CONF k, v FROM {c} WHERE k >= {lo} AND k < {hi}")
                }
                2 if j < 20 => {
                    let (lo, hi) = range(rng);
                    format!(
                        "SELECT CONF k, v FROM {c}, (SELECT k, v FROM {prev}) \
                         WHERE k >= {lo} AND k < {hi}"
                    )
                }
                3 => format!(
                    "SELECT POSSIBLE city FROM {c}, homes WHERE k = {}",
                    rng.below(keys)
                ),
                _ => format!("SELECT POSSIBLE v FROM {c} WHERE k = {}", rng.below(keys)),
            };
            script.push(Stmt::read(q));
        }
    }
    let components = ComponentSet::new();
    (
        Input {
            components,
            relations,
        },
        script,
    )
}
