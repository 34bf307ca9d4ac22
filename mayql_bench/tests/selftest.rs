//! Small-scale self-test of the benchmark: every workload at a tiny size,
//! checking that every metric is emitted with its unit, that no statement
//! fails, that the traced pass's layer self times add up to its statement
//! wall time with at most 1% of it unattributed and no span outlasted by its
//! children, and that the deterministic counters repeat at the same seed.

use mayql_bench::session::self_times;
use mayql_bench::workloads::{Workload, ALL};
use mayql_bench::{run, Options, Report, DETERMINISTIC, END_TO_END, PER_LAYER, STATEMENT_LAYERS};

fn tiny(workload: Workload, seed: u64) -> Report {
    let opts = Options {
        seed,
        seconds: 0.05,
        min_reads: 1,
        traced: true,
        // Large enough that a statement takes well over a millisecond, so
        // the benchmark's own few microseconds per statement stay far
        // below the 1% the attribution check allows.
        size: match workload {
            Workload::ConfSolve => 100,
            Workload::JoinAnalytics => 2000,
            Workload::RepairSession => 8000,
        },
    };
    run(workload, &opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// `BENCHMARK.json` at the repository root, which names the metrics.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

#[test]
fn every_workload_emits_every_metric_without_failures() {
    let spec = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for w in ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        let r = tiny(w, 7);
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.failures);
        assert!(r.attempted >= r.script_len as u64);
        let emitted = |list: &[mayql_bench::Metric], expected: &[(&str, &str)]| {
            let got: Vec<(&str, &str)> = list.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{}", w.name());
            assert!(list.iter().all(|m| m.value.is_finite()), "{}", w.name());
        };
        emitted(&r.end_to_end, &END_TO_END);
        emitted(&r.per_layer, &PER_LAYER);
        assert!(r.metric("stmts_per_s").unwrap() > 0.0);
        assert!(r.metric("setup_s").unwrap() > 0.0);
        assert_eq!(r.metric("failed_frac"), Some(0.0));

        let wall = r.metric("bench.traced_wall_ms").unwrap();
        let parts: f64 = STATEMENT_LAYERS.iter().map(|m| r.metric(m).unwrap()).sum();
        assert!(
            (parts - wall).abs() <= 0.01 * wall,
            "{}: layers sum to {parts} ms, statements took {wall} ms",
            w.name()
        );
        // The partition above holds by construction; these two can fail.
        // Time no timed call covers, and children that outlast their
        // parent (a trace grafted in the wrong place), would show here.
        let unattributed = r.metric("bench.unattributed_ms").unwrap();
        assert!(
            unattributed <= 0.01 * wall,
            "{}: {unattributed} ms of {wall} ms unattributed",
            w.name()
        );
        for (span, own) in r.spans.iter().zip(self_times(&r.spans)) {
            assert!(
                own >= -(span.dur_ns as i64 / 100),
                "{}: statement {} span {} lasts {} ns, its children {} ns more",
                w.name(),
                span.stmt,
                span.label,
                span.dur_ns,
                -own
            );
        }
    }
}

#[test]
fn deterministic_counters_repeat_at_the_same_seed() {
    for w in ALL {
        let (a, b) = (tiny(w, 11), tiny(w, 11));
        for m in DETERMINISTIC {
            assert_eq!(a.metric(m), b.metric(m), "{}: {m}", w.name());
        }
    }
}
