//! The client side of a session: one statement at a time through the public
//! library API, every call timed at the layer boundary from here.
//!
//! `parse_statement` → `lower` → `optimize_plan` → `run_with_stats_exec`
//! (or `run_traced` in the traced pass), then for a `LET` the
//! `WorldSet::insert` and the `Catalog::from_world_set` refresh. The library
//! is neither changed nor instrumented: executor internals come from the
//! `QueryTrace` that `run_traced` already returns.

use std::time::Instant;

use maybms_algebra::{run_traced, run_with_stats_exec, ExecCfg, ExecStats};
use maybms_core::{metrics, QueryTrace, URelation, WorldSet};
use maybms_sql::{lower, optimize_plan, parse_statement, Catalog, Statement};

use crate::workloads::Stmt;

/// One recorded span: a timed library call made by the benchmark, or a span
/// of the executor's own `QueryTrace` grafted under the `algebra.eval` call
/// that produced it.
#[derive(Clone, Debug)]
pub struct BenchSpan {
    /// Index of the statement in the pass.
    pub stmt: u32,
    /// The layer this span's self time is charged to.
    pub layer: &'static str,
    /// The executor's span label, or the layer name for benchmark spans.
    pub label: String,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<u32>,
    /// Start, in nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Inclusive duration in nanoseconds.
    pub dur_ns: u64,
    /// Rows out (executor nodes) or items processed (executor phases); 0
    /// for benchmark spans.
    pub items: u64,
}

/// Keeps spans in memory for the traced pass. Whether it is on also picks
/// the executor call: `run_traced` when on, `run_with_stats_exec` when off.
pub(crate) struct Recorder {
    on: bool,
    origin: Instant,
    stmt: u32,
    /// Recorded spans, parents before children.
    pub(crate) spans: Vec<BenchSpan>,
    open: Vec<u32>,
}

/// Layer of the statement span itself: its self time is the statement wall
/// not covered by any timed library call.
pub(crate) const UNATTRIBUTED: &str = "bench.unattributed";
/// Layer of the `run_with_stats_exec` / `run_traced` span's self time: the
/// part of the executor call outside every executor span (context set-up,
/// converting the result batch back to a `URelation`, statistics).
pub(crate) const EMIT: &str = "algebra.eval.emit";

impl Recorder {
    /// A recorder that keeps spans when `on`.
    pub(crate) fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            stmt: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, layer: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(BenchSpan {
            stmt: self.stmt,
            layer,
            label: layer.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            items: 0,
        });
        self.open.push(id);
        Some(id)
    }

    fn exit(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.open.pop();
            let end = self.now_ns();
            let span = &mut self.spans[id as usize];
            span.dur_ns = end.saturating_sub(span.start_ns);
        }
    }

    /// Run `f` inside a span charged to `layer`.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer);
        let out = f();
        self.exit(id);
        out
    }

    /// Graft an executor trace under the span `eval`. Executor span starts
    /// are relative to the tracer's own origin, which opens just after the
    /// `eval` span; only durations enter the self-time arithmetic.
    fn graft(&mut self, eval: Option<u32>, trace: &QueryTrace) {
        let Some(eval) = eval else { return };
        let base = self.spans.len() as u32;
        let origin = self.spans[eval as usize].start_ns;
        for s in &trace.spans {
            self.spans.push(BenchSpan {
                stmt: self.stmt,
                layer: exec_layer(&s.label),
                label: s.label.clone(),
                parent: Some(s.parent.map_or(eval, |p| base + p)),
                start_ns: origin + s.start_nanos,
                dur_ns: s.dur_nanos,
                items: s.rows_out,
            });
        }
    }
}

/// The layer an executor span's self time is charged to, by its label.
pub(crate) fn exec_layer(label: &str) -> &'static str {
    let name = label.strip_suffix(" (cached)").unwrap_or(label);
    match name {
        "scan-convert" => "algebra.eval.scan_convert",
        "natural-join" => "algebra.eval.join",
        "canonical-sort" | "dedup-gather" => "algebra.eval.dedup",
        "possible" | "certain" | "coverage-check" => "ql.extract",
        "solve" => "ql.conf.solve",
        "key-sort" | "mint-components" => "ql.repair",
        _ if name.starts_with("repair-key") => "ql.repair",
        _ => "algebra.eval.other",
    }
}

/// What one statement produced.
pub(crate) struct Outcome {
    /// The result of a read; `None` for a write, whose result is the
    /// relation it bound in the world set.
    pub(crate) result: Option<URelation>,
    /// The executor's counters for the statement's run.
    pub(crate) stats: ExecStats,
    /// Components the statement added to the world set.
    pub(crate) minted: usize,
    /// Worker busy nanoseconds during the executor call.
    pub(crate) busy_ns: u64,
    /// Nanoseconds inside the executor call.
    pub(crate) eval_ns: u64,
}

/// A loaded world set with its catalog: the state a client queries.
#[derive(Clone)]
pub(crate) struct Session {
    /// The uncertain database.
    pub(crate) ws: WorldSet,
    /// The catalog the planner resolves names and statistics against.
    pub(crate) catalog: Catalog,
}

impl Session {
    /// Run one statement through the timed path. Errors carry the rendered
    /// message of the failing layer.
    pub(crate) fn execute(
        &mut self,
        stmt: &Stmt,
        cfg: &ExecCfg,
        rec: &mut Recorder,
    ) -> Result<Outcome, String> {
        let root = rec.enter(UNATTRIBUTED);
        let out = self.execute_inner(stmt, cfg, rec);
        rec.exit(root);
        rec.stmt += 1;
        out
    }

    fn execute_inner(
        &mut self,
        stmt: &Stmt,
        cfg: &ExecCfg,
        rec: &mut Recorder,
    ) -> Result<Outcome, String> {
        let text = stmt.text();
        let render = |e: maybms_sql::SqlError| e.render(&text);
        let parsed = rec
            .time("sql.parse", || parse_statement(&text))
            .map_err(render)?;
        let (query, bind) = match parsed {
            Statement::Query(q) => (q, None),
            Statement::Let { name, query, .. } => (query, Some(name.name)),
            Statement::Explain { .. } => return Err("EXPLAIN is not a session statement".into()),
        };
        let (plan, _) = rec
            .time("sql.lower", || lower(&self.catalog, &query))
            .map_err(render)?;
        let plan = rec
            .time("sql.optimize", || {
                optimize_plan(&self.catalog, &plan, query.span())
            })
            .map_err(render)?;

        let components_before = self.ws.components.len();
        let busy_before = metrics().par_busy_nanos.get();
        let eval = rec.enter(EMIT);
        let started = Instant::now();
        let run = if rec.on {
            run_traced(&mut self.ws, &plan, &cfg.par).map(|(r, s, t)| (r, s, Some(t)))
        } else {
            run_with_stats_exec(&mut self.ws, &plan, cfg).map(|(r, s)| (r, s, None))
        };
        let eval_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        rec.exit(eval);
        let busy_ns = metrics().par_busy_nanos.get().saturating_sub(busy_before);
        let (result, stats, trace) = run.map_err(|e| e.to_string())?;
        if let Some(trace) = &trace {
            rec.graft(eval, trace);
        }
        let minted = self.ws.components.len() - components_before;

        let result = match bind {
            None => Some(result),
            Some(name) => {
                rec.time("core.insert", || self.ws.insert(name, result))
                    .map_err(|e| e.to_string())?;
                // The old catalog is dropped inside the span: freeing its
                // statistics is part of the refresh.
                rec.time("sql.catalog", || {
                    self.catalog = Catalog::from_world_set(&self.ws);
                });
                None
            }
        };
        Ok(Outcome {
            result,
            stats,
            minted,
            busy_ns,
            eval_ns,
        })
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Summed over a statement's spans this equals the statement span's
/// duration exactly, which is what lets the layer totals add up to the
/// statement wall time.
pub fn self_times(spans: &[BenchSpan]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur_ns as i64;
        }
    }
    own
}
