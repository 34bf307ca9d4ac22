//! # mayql-bench — a closed-loop MayQL session benchmark
//!
//! One process, one client, one statement in flight. A workload loads a
//! generated world set, then replays a fixed, seeded statement script
//! through the public library API until the run time is used up, timing
//! every call at the layer boundary from the benchmark's own code. See
//! `README.md` for the workloads, the metrics and the predictions they
//! carry, and [`workloads`] for the definitions.
//!
//! A run has four phases:
//!
//! 1. **set-up**, repeated (see [`MIN_SETUP_REPS`]): `insert` the
//!    generated relations into an empty `WorldSet`, `normalize_with`, and
//!    the first `Catalog::from_world_set`;
//! 2. **reference pass**, untimed: every statement once through
//!    `compile_unoptimized` on a clone, one thread, without SIP or late
//!    materialization; its result digests are what the timed path must
//!    reproduce;
//! 3. **timed passes**, untraced: after a warm-up over the first quarter of
//!    the script, whole passes until the run time is used up and
//!    [`MIN_READS`] reads are sampled, each restarting from the loaded state
//!    when the script writes;
//! 4. **traced pass** (only when tracing): one more pass through
//!    `run_traced`, with benchmark spans around every library call. The
//!    per-layer metrics are self times and counters of this pass.

mod check;
pub mod session;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use maybms_algebra::{run_with_exec, ExecCfg, ExecStats};
use maybms_core::{ParCfg, WorldSet};
use maybms_sql::{compile_unoptimized, parse_query, Catalog, Query};

use check::Digest;
use session::{BenchSpan, Outcome, Recorder, Session};
use workloads::{Input, Stmt, Workload};

/// Environment variables the library reads at run time (`optimize_plan`,
/// `run_traced`, the conf sampling cutover, the default thread budget). The
/// benchmark refuses to start when any is set, since a stray value would
/// silently change the program under test.
pub const GUARDED_ENV: [&str; 5] = [
    "MAYBMS_THREADS",
    "MAYBMS_SIP",
    "MAYBMS_LATE_MAT",
    "MAYBMS_COST_OPT",
    "MAYBMS_CONF_EXACT_LIMIT",
];

/// Fail when any of [`GUARDED_ENV`] is set.
pub fn check_env() -> Result<(), String> {
    let set: Vec<&str> = GUARDED_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to start with {} set: the library reads it at run time, \
             so it would change the program under test",
            set.join(", ")
        ))
    }
}

/// The executor's worker threads: 2, or fewer on a smaller host.
pub fn pinned_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// End-to-end metrics, reported from the untraced passes: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("stmts_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass whose totals partition the pass's
/// statement wall time: their sum equals it.
pub const STATEMENT_LAYERS: [&str; 14] = [
    "sql.parse_ms",
    "sql.lower_ms",
    "sql.optimize_ms",
    "algebra.eval.scan_convert_ms",
    "algebra.eval.join_ms",
    "algebra.eval.dedup_ms",
    "algebra.eval.other_ms",
    "algebra.eval.emit_ms",
    "ql.extract_ms",
    "ql.conf.solve_ms",
    "ql.repair_ms",
    "core.insert_ms",
    "sql.catalog_ms",
    "bench.unattributed_ms",
];

/// Every per-layer metric: name and unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sql.parse_ms", "ms"),
    ("sql.lower_ms", "ms"),
    ("sql.optimize_ms", "ms"),
    ("sql.catalog_ms", "ms"),
    ("sql.catalog_calls", "count"),
    ("sql.catalog_setup_ms", "ms"),
    ("core.normalize_ms", "ms"),
    ("core.insert_ms", "ms"),
    ("core.insert_setup_ms", "ms"),
    ("ql.repair_ms", "ms"),
    ("ql.repair.components_minted", "count"),
    ("algebra.eval_ms", "ms"),
    ("algebra.eval.scan_convert_ms", "ms"),
    ("algebra.eval.emit_ms", "ms"),
    ("algebra.eval.join_ms", "ms"),
    ("algebra.eval.dedup_ms", "ms"),
    ("algebra.eval.other_ms", "ms"),
    ("algebra.eval.rows_converted", "count"),
    ("algebra.eval.rows_examined_per_row_out", "ratio"),
    ("algebra.sip.probe_rows_tested", "count"),
    ("algebra.sip.prune_ratio", "ratio"),
    ("ql.extract_ms", "ms"),
    ("ql.conf.solve_ms", "ms"),
    ("ql.conf.exact_groups", "count"),
    ("ql.conf.sampled_groups", "count"),
    ("ql.conf.samples_drawn", "count"),
    ("ql.conf.largest_group", "count"),
    ("core.intern.calls", "count"),
    ("core.intern.hit_ratio", "ratio"),
    ("core.intern.conjoin_calls", "count"),
    ("core.intern.descriptors", "count"),
    ("core.columnar.strings", "count"),
    ("core.parallel.morsels", "count"),
    ("core.parallel.busy_ratio", "ratio"),
    ("core.parallel.merge_ms", "ms"),
    ("core.parallel.shard_entries", "count"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.traced_wall_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics that are deterministic counts: equal seed and equal
/// program give equal values on every host.
pub const DETERMINISTIC: [&str; 13] = [
    "sql.catalog_calls",
    "ql.repair.components_minted",
    "algebra.eval.rows_converted",
    "algebra.sip.probe_rows_tested",
    "algebra.sip.prune_ratio",
    "ql.conf.exact_groups",
    "ql.conf.sampled_groups",
    "ql.conf.samples_drawn",
    "ql.conf.largest_group",
    "core.intern.calls",
    "core.intern.conjoin_calls",
    "core.intern.descriptors",
    "core.parallel.morsels",
];

/// Reads a run samples at least, so that ten or more lie above the p95.
pub const MIN_READS: usize = 200;

/// Set-up repetitions a run makes at least; `setup_s` is their median.
pub const MIN_SETUP_REPS: usize = 3;

/// Set-up time a run spends at least, so that a fast set-up is repeated
/// often enough for a steady median.
pub const SETUP_SECONDS: f64 = 2.0;

/// Set-up repetitions a run makes at most.
pub const MAX_SETUP_REPS: usize = 15;

/// How a run is made.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of the generated input and script.
    pub seed: u64,
    /// Minimum wall time of the timed passes, in seconds.
    pub seconds: f64,
    /// Minimum read samples of the timed passes.
    pub min_reads: usize,
    /// Run the traced pass and report per-layer metrics.
    pub traced: bool,
    /// Input size (see [`Workload::full_size`]).
    pub size: usize,
}

impl Options {
    /// The measured configuration of a workload.
    pub fn full(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Options {
        Options {
            seed,
            seconds,
            min_reads: MIN_READS,
            traced,
            size: workload.full_size(),
        }
    }
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Statement executions checked (timed and traced passes).
    pub attempted: u64,
    /// Executions that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in [`PER_LAYER`] order; empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Read latencies sampled in the timed passes.
    pub reads: usize,
    /// Write latencies sampled in the timed passes.
    pub writes: usize,
    /// Timed passes over the script.
    pub passes: usize,
    /// Statements in one pass.
    pub script_len: usize,
    /// Statement wall time of each timed pass, in ms.
    pub pass_ms: Vec<f64>,
    /// Read samples above the reported p95.
    pub p95_tail: usize,
    /// Wall seconds of the run's phases: set-up (all repetitions),
    /// reference pass, timed passes, traced pass.
    pub phase_s: [f64; 4],
    /// The traced pass's spans.
    pub spans: Vec<BenchSpan>,
}

impl Report {
    /// The value of a metric of either kind.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The counts the executor reports for a statement, or summed over a pass.
/// They must repeat exactly whenever a statement runs on the same state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    intern_calls: u64,
    intern_hits: u64,
    conjoin_calls: u64,
    descriptors: u64,
    strings: u64,
    output_rows: u64,
    sip_tested: u64,
    sip_pruned: u64,
    exact_groups: u64,
    sampled_groups: u64,
    samples_drawn: u64,
    largest_group: u64,
    morsels: u64,
    shard_entries: u64,
    minted: u64,
}

impl Counts {
    fn of(out: &Outcome) -> Counts {
        let s: &ExecStats = &out.stats;
        Counts {
            intern_calls: s.pool.intern_calls,
            intern_hits: s.pool.intern_hits,
            conjoin_calls: s.pool.conjoin_calls,
            descriptors: s.descriptors as u64,
            strings: s.strings as u64,
            output_rows: s.output_rows as u64,
            sip_tested: s.sip.probe_rows_tested,
            sip_pruned: s.sip.probe_rows_pruned,
            exact_groups: s.conf.exact_groups,
            sampled_groups: s.conf.sampled_groups,
            samples_drawn: s.conf.samples_drawn,
            largest_group: s.conf.largest_group,
            morsels: s.par.morsels,
            shard_entries: s.par.shard_entries,
            minted: out.minted as u64,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.intern_calls += o.intern_calls;
        self.intern_hits += o.intern_hits;
        self.conjoin_calls += o.conjoin_calls;
        self.descriptors += o.descriptors;
        self.strings += o.strings;
        self.output_rows += o.output_rows;
        self.sip_tested += o.sip_tested;
        self.sip_pruned += o.sip_pruned;
        self.exact_groups += o.exact_groups;
        self.sampled_groups += o.sampled_groups;
        self.samples_drawn += o.samples_drawn;
        self.largest_group = self.largest_group.max(o.largest_group);
        self.morsels += o.morsels;
        self.shard_entries += o.shard_entries;
        self.minted += o.minted;
    }
}

/// Checks every statement execution against the reference pass and against
/// the first timed execution of the same statement.
struct Checker {
    expected: Vec<Result<Digest, String>>,
    repair_keys: Vec<Option<Vec<String>>>,
    counts: Vec<Option<Counts>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn verify(&mut self, i: usize, stmt: &Stmt, sess: &Session, out: &Result<Outcome, String>) {
        self.attempted += 1;
        if let Err(e) = self.check(i, stmt, sess, out) {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures
                    .push(format!("statement {i} `{}`: {e}", stmt.text()));
            }
        }
    }

    fn check(
        &mut self,
        i: usize,
        stmt: &Stmt,
        sess: &Session,
        out: &Result<Outcome, String>,
    ) -> Result<(), String> {
        let out = out.as_ref().map_err(Clone::clone)?;
        let rel = match (&out.result, &stmt.write) {
            (Some(r), _) => r,
            (None, Some(name)) => sess.ws.relation(name).map_err(|e| e.to_string())?,
            (None, None) => return Err("a read returned no result".into()),
        };
        check_result(rel, self.repair_keys[i].as_deref(), &sess.ws)?;
        let d = check::digest(rel);
        match &self.expected[i] {
            Ok(e) if *e == d => {}
            Ok(e) => return Err(format!("digest {d:?} differs from the reference {e:?}")),
            Err(e) => return Err(format!("the reference pass failed: {e}")),
        }
        let counts = Counts::of(out);
        match self.counts[i] {
            None => self.counts[i] = Some(counts),
            Some(c) if c == counts => {}
            Some(c) => {
                return Err(format!(
                    "deterministic counters drifted: {counts:?} after {c:?}"
                ))
            }
        }
        Ok(())
    }
}

/// The checks that need no reference: `conf` in range, repaired key
/// groups summing to probability 1.
fn check_result(
    rel: &maybms_core::URelation,
    repair_key: Option<&[String]>,
    ws: &WorldSet,
) -> Result<(), String> {
    check::conf_in_range(rel)?;
    if let Some(key) = repair_key {
        check::repair_groups_sum_to_one(rel, key, &ws.components)?;
    }
    Ok(())
}

/// Per-layer times of one set-up, in nanoseconds.
#[derive(Clone, Copy)]
struct SetupTimes {
    insert: u64,
    normalize: u64,
    catalog: u64,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Load a generated input into an empty world set, normalize it and build
/// the first catalog. Copying the input is not timed.
fn setup(input: &Input, par: &ParCfg) -> Result<(Session, SetupTimes), String> {
    let components = input.components.clone();
    let relations = input.relations.clone();
    let t0 = Instant::now();
    let mut ws = WorldSet::new();
    ws.components = components;
    for (name, rel) in relations {
        ws.insert(name, rel).map_err(|e| e.to_string())?;
    }
    let t1 = Instant::now();
    ws.normalize_with(par);
    let t2 = Instant::now();
    let catalog = Catalog::from_world_set(&ws);
    let t3 = Instant::now();
    let times = SetupTimes {
        insert: nanos(t1 - t0),
        normalize: nanos(t2 - t1),
        catalog: nanos(t3 - t2),
    };
    Ok((Session { ws, catalog }, times))
}

/// The reference pass: each statement lowered without optimization and run
/// on one thread without SIP or late materialization, on a clone of the
/// loaded state.
fn reference(
    loaded: &Session,
    script: &[Stmt],
    keys: &[Option<Vec<String>>],
) -> Vec<Result<Digest, String>> {
    let cfg = ExecCfg {
        par: ParCfg::sequential(),
        sip: false,
        late_mat: false,
    };
    let mut sess = loaded.clone();
    script
        .iter()
        .zip(keys)
        .map(|(stmt, key)| {
            let plan = compile_unoptimized(&sess.catalog, &stmt.query)
                .map_err(|e| e.render(&stmt.query))?;
            let result = run_with_exec(&mut sess.ws, &plan, &cfg).map_err(|e| e.to_string())?;
            check_result(&result, key.as_deref(), &sess.ws)?;
            let d = check::digest(&result);
            if let Some(name) = &stmt.write {
                sess.ws
                    .insert(name.clone(), result)
                    .map_err(|e| e.to_string())?;
                sess.catalog = Catalog::from_world_set(&sess.ws);
            }
            Ok(d)
        })
        .collect()
}

/// The key columns of a `REPAIR KEY` write.
fn repair_key(stmt: &Stmt) -> Option<Vec<String>> {
    stmt.write.as_ref()?;
    match parse_query(&stmt.query) {
        Ok(Query::Repair(r)) => Some(r.key.into_iter().map(|k| k.name).collect()),
        _ => None,
    }
}

/// Reset the process's resident-set high-water mark to its current size.
fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0). Without it the
    // reported peak also covers set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile (`xs` need not be sorted; 0 when empty).
fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run one workload.
pub fn run(workload: Workload, opts: &Options) -> Result<Report, String> {
    let threads = pinned_threads();
    let cfg = ExecCfg {
        par: ParCfg::with_threads(threads),
        sip: true,
        late_mat: true,
    };
    let (input, script) = workload.generate(opts.seed, opts.size);
    let repair_keys: Vec<Option<Vec<String>>> = script.iter().map(repair_key).collect();
    let has_writes = script.iter().any(|s| s.write.is_some());

    let mut phase = Instant::now();
    let mut lap = || {
        let s = phase.elapsed().as_secs_f64();
        phase = Instant::now();
        s
    };

    // 1. Set-up, repeated; the last loaded state is kept.
    let mut setups = Vec::new();
    let mut loaded = None;
    let setup_started = Instant::now();
    while setups.len() < MIN_SETUP_REPS
        || (setup_started.elapsed().as_secs_f64() < SETUP_SECONDS && setups.len() < MAX_SETUP_REPS)
    {
        drop(loaded.take());
        let (sess, times) = setup(&input, &cfg.par)?;
        loaded = Some(sess);
        setups.push(times);
    }
    drop(input);
    let loaded = loaded.expect("at least one set-up ran");

    let setup_phase = lap();

    // 2. Reference pass.
    let mut checker = Checker {
        expected: reference(&loaded, &script, &repair_keys),
        repair_keys,
        counts: vec![None; script.len()],
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    let reference_phase = lap();

    // 3. Timed passes.
    reset_peak_rss();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut pass_walls = Vec::new();
    let mut pass_evals = Vec::new();
    let mut pass_p50s = Vec::new();
    let mut pass_p95s = Vec::new();
    let mut rec = Recorder::new(false);
    let mut sess: Option<Session> = None;
    let mut deadline = None;
    loop {
        if has_writes || sess.is_none() {
            drop(sess.take());
            sess = Some(loaded.clone());
        }
        // A first, partial pass over the leading quarter of the script warms
        // the allocator and caches up; its samples are checked but not kept.
        let warm_up = deadline.is_none();
        let len = if warm_up {
            script.len().div_ceil(4)
        } else {
            script.len()
        };
        let s = sess.as_mut().expect("a session was just loaded");
        let (mut wall, mut eval) = (0u64, 0u64);
        let first_read = reads.len();
        for (i, stmt) in script[..len].iter().enumerate() {
            let started = Instant::now();
            let out = s.execute(stmt, &cfg, &mut rec);
            let ns = nanos(started.elapsed());
            checker.verify(i, stmt, s, &out);
            if warm_up {
                continue;
            }
            wall += ns;
            eval += out.as_ref().map_or(0, |o| o.eval_ns);
            let ms = ns as f64 / 1e6;
            if stmt.write.is_some() {
                writes.push(ms);
            } else {
                reads.push(ms);
            }
        }
        match deadline {
            None => deadline = Some(Instant::now() + Duration::from_secs_f64(opts.seconds)),
            Some(d) => {
                pass_walls.push(wall as f64 / 1e6);
                pass_evals.push(eval as f64 / 1e6);
                pass_p50s.push(median(&reads[first_read..]));
                pass_p95s.push(percentile(&reads[first_read..], 0.95));
                if Instant::now() >= d && reads.len() >= opts.min_reads {
                    break;
                }
            }
        }
    }
    let peak_rss = peak_rss_mb();
    drop(sess);
    let timed_phase = lap();

    // Each timing is taken per pass and reported as the median over the
    // passes: a burst of outside load on a shared host slows the passes it
    // overlaps, and the median leaves them out while they are fewer than
    // half. Every pass runs the same statements from the same state.
    let pass_rates: Vec<f64> = pass_walls
        .iter()
        .map(|&ms| ratio(script.len() as f64, ms / 1e3))
        .collect();
    let p95 = median(&pass_p95s);
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|t| (t.insert + t.normalize + t.catalog) as f64 / 1e9)
        .collect();
    let mut report = Report {
        end_to_end: vec![
            ("setup_s", median(&setup_s)),
            ("stmts_per_s", median(&pass_rates)),
            ("query_p50_ms", median(&pass_p50s)),
            ("query_p95_ms", p95),
            ("peak_rss_mb", peak_rss),
        ]
        .into_iter()
        .zip(END_TO_END)
        .map(|((name, value), (_, unit))| Metric { name, value, unit })
        .collect(),
        reads: reads.len(),
        writes: writes.len(),
        passes: pass_walls.len(),
        pass_ms: pass_walls.clone(),
        script_len: script.len(),
        p95_tail: reads.iter().filter(|&&r| r > p95).count(),
        phase_s: [setup_phase, reference_phase, timed_phase, 0.0],
        ..Report::default()
    };

    // 4. Traced pass.
    if opts.traced {
        let mut rec = Recorder::new(true);
        let mut s = loaded.clone();
        let mut t = Counts::default();
        let (mut wall, mut busy_ns, mut eval_ns, mut merge_ns) = (0u64, 0u64, 0u64, 0u64);
        for (i, stmt) in script.iter().enumerate() {
            let started = Instant::now();
            let out = s.execute(stmt, &cfg, &mut rec);
            wall += nanos(started.elapsed());
            if let Ok(o) = &out {
                t.add(&Counts::of(o));
                busy_ns += o.busy_ns;
                eval_ns += o.eval_ns;
                merge_ns += o.stats.par.merge_nanos;
            }
            checker.verify(i, stmt, &s, &out);
        }
        let traced_wall_ms = wall as f64 / 1e6;
        let med = |f: fn(&SetupTimes) -> u64| {
            median(&setups.iter().map(|t| f(t) as f64 / 1e6).collect::<Vec<_>>())
        };
        let mut values = layer_totals(&rec.spans);
        let catalog_calls = rec
            .spans
            .iter()
            .filter(|s| s.layer == "sql.catalog")
            .count();
        let rows_converted: u64 = rec
            .spans
            .iter()
            .filter(|s| s.layer == "algebra.eval.scan_convert")
            .map(|s| s.items)
            .sum();
        values.extend([
            ("sql.catalog_calls", catalog_calls as f64),
            ("sql.catalog_setup_ms", med(|t| t.catalog)),
            ("core.normalize_ms", med(|t| t.normalize)),
            ("core.insert_setup_ms", med(|t| t.insert)),
            ("ql.repair.components_minted", t.minted as f64),
            ("algebra.eval_ms", median(&pass_evals)),
            ("algebra.eval.rows_converted", rows_converted as f64),
            (
                "algebra.eval.rows_examined_per_row_out",
                ratio(rows_converted as f64, t.output_rows as f64),
            ),
            ("algebra.sip.probe_rows_tested", t.sip_tested as f64),
            (
                "algebra.sip.prune_ratio",
                ratio(t.sip_pruned as f64, t.sip_tested as f64),
            ),
            ("ql.conf.exact_groups", t.exact_groups as f64),
            ("ql.conf.sampled_groups", t.sampled_groups as f64),
            ("ql.conf.samples_drawn", t.samples_drawn as f64),
            ("ql.conf.largest_group", t.largest_group as f64),
            ("core.intern.calls", t.intern_calls as f64),
            (
                "core.intern.hit_ratio",
                ratio(t.intern_hits as f64, t.intern_calls as f64),
            ),
            ("core.intern.conjoin_calls", t.conjoin_calls as f64),
            ("core.intern.descriptors", t.descriptors as f64),
            ("core.columnar.strings", t.strings as f64),
            ("core.parallel.morsels", t.morsels as f64),
            (
                "core.parallel.busy_ratio",
                ratio(busy_ns as f64, eval_ns as f64 * threads as f64),
            ),
            ("core.parallel.merge_ms", merge_ns as f64 / 1e6),
            ("core.parallel.shard_entries", t.shard_entries as f64),
            (
                "bench.trace_overhead_ms",
                traced_wall_ms - median(&pass_walls),
            ),
            ("bench.traced_wall_ms", traced_wall_ms),
            ("write_p50_ms", median(&writes)),
            (
                "failed_frac",
                ratio(checker.failed as f64, checker.attempted as f64),
            ),
        ]);
        report.spans = rec.spans;
        report.phase_s[3] = lap();
        report.per_layer = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: values[name],
                unit,
            })
            .collect();
    }

    report.attempted = checker.attempted;
    report.failed = checker.failed;
    report.failures = checker.failures;
    Ok(report)
}

/// Self time per layer over a pass's spans, in ms, keyed by metric name
/// (`<layer>_ms`). Every layer of [`STATEMENT_LAYERS`] is present.
fn layer_totals(spans: &[BenchSpan]) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, f64> =
        STATEMENT_LAYERS.iter().map(|&m| (m, 0.0)).collect();
    for (span, own) in spans.iter().zip(session::self_times(spans)) {
        let metric = STATEMENT_LAYERS
            .iter()
            .find(|m| m.strip_suffix("_ms") == Some(span.layer))
            .expect("every span layer is a statement layer");
        *by_layer.get_mut(metric).expect("initialised above") += own as f64 / 1e6;
    }
    by_layer
}
