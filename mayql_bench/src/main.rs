//! Command-line entry point:
//!
//! ```text
//! mayql-bench --workload <join_analytics|conf_solve|repair_session>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a stamp line (host, toolchain, revision, seed, threads), a sample
//! line, and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced pass's spans are written
//! to `.bench_out/`.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use mayql_bench::workloads::Workload;
use mayql_bench::{check_env, pinned_threads, run, Metric, Options, Report};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// First line of a command's output, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Write the traced pass's spans, one JSON object per line.
fn dump_spans(report: &Report, args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = String::new();
    for s in &report.spans {
        let _ = writeln!(
            out,
            "{{\"stmt\": {}, \"layer\": {}, \"label\": {}, \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"items\": {}}}",
            s.stmt,
            quote(s.layer),
            quote(&s.label),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.dur_ns,
            s.items
        );
    }
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match check_env().and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mayql-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = Options::full(args.workload, args.seed, args.seconds, args.trace);
    println!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {}, \"threads\": {}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}, \"size\": {}}}}}",
        quote(args.workload.name()),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned_threads(),
        quote(&cpu_model()),
        quote(&command_line("rustc", &["--version"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        opts.size
    );
    let report = match run(args.workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mayql-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("mayql-bench: FAILED {f}");
    }
    println!(
        "{{\"samples\": {{\"script_len\": {}, \"passes\": {}, \"reads\": {}, \"writes\": {}, \"reads_above_p95\": {}, \"phase_s\": {{\"setup\": {:.2}, \"reference\": {:.2}, \"timed\": {:.2}, \"traced\": {:.2}}}, \"pass_ms\": {:.0?}}}}}",
        report.script_len,
        report.passes,
        report.reads,
        report.writes,
        report.p95_tail,
        report.phase_s[0],
        report.phase_s[1],
        report.phase_s[2],
        report.phase_s[3],
        report.pass_ms
    );
    if args.trace {
        match dump_spans(&report, &args) {
            Ok(path) => eprintln!("mayql-bench: spans written to {path}"),
            Err(e) => eprintln!("mayql-bench: could not write spans: {e}"),
        }
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(metrics)
    );
    ExitCode::SUCCESS
}
