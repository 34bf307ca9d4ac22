//! Batch-mode golden tests for the REPL's `\set` knob handling.
//!
//! A mistyped knob used to be a silent no-op: the script kept running with
//! whatever settings it *thought* it had changed. These tests pin the hard
//! error — batch mode must stop with a non-zero exit and name the valid
//! knobs — and the success path for the knobs the error message promises.
//!
//! Each test drives the actual `repl` example binary through `cargo run`
//! (the example has no library form), so what is pinned is exactly what a
//! script author sees.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `cargo run --example repl -- --batch <script>` on a temp script.
fn run_batch(name: &str, script: &str) -> Output {
    let path = std::env::temp_dir().join(format!("maybms-repl-batch-{name}.mayql"));
    std::fs::write(&path, script).expect("temp script is writable");
    let manifest: PathBuf = [env!("CARGO_MANIFEST_DIR"), "Cargo.toml"].iter().collect();
    let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["run", "--quiet", "--example", "repl", "--manifest-path"])
        .arg(&manifest)
        .arg("--")
        .arg("--batch")
        .arg(&path)
        .output()
        .expect("cargo runs");
    std::fs::remove_file(&path).ok();
    output
}

#[test]
fn unknown_set_knob_is_a_hard_error_listing_valid_knobs() {
    let out = run_batch(
        "unknown-knob",
        "\\set nosuch on\nSELECT ssn FROM censusform;\n",
    );
    assert!(
        !out.status.success(),
        "batch run with an unknown knob must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown knob `nosuch`"),
        "stderr names the bad knob: {stderr}"
    );
    assert!(
        stderr.contains("valid knobs: threads"),
        "stderr lists the valid knob: {stderr}"
    );
    // The statement after the bad `\set` must not have run.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("rows)"),
        "no query output after the failed \\set: {stdout}"
    );
}

#[test]
fn malformed_set_value_is_a_hard_error() {
    let out = run_batch("bad-value", "\\set threads maybe\n");
    assert!(!out.status.success(), "invalid value must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid value `maybe`"),
        "stderr names the bad value: {stderr}"
    );
}

#[test]
fn valid_knobs_round_trip_in_batch_mode() {
    let out = run_batch(
        "valid-knobs",
        "\\set threads 1\n\\set threads 2\nSELECT ssn FROM censusform;\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "valid knobs succeed: {stderr}");
    for echo in ["threads = 1", "threads = 2"] {
        assert!(stdout.contains(echo), "stdout echoes `{echo}`: {stdout}");
    }
    // Set semantics: the four census readings hold three distinct ssns.
    assert!(stdout.contains("(3 rows)"), "the query ran: {stdout}");
}
