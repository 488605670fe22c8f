//! Schema pin for the `lp_stats` section of harness JSON records: the
//! tiny `fig_faults` smoke run must emit one LP-counter entry per
//! (pattern, rule) warm-start chain, with the invariants the counters
//! promise (every solve counted, warm hits bounded by attempts, wall
//! clock attributed).  The run itself also re-asserts, in-process, that
//! warm-started θ values are bit-identical to cold solves — a failed
//! assertion fails this test through the exit code.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-tmp")
        .join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fig_faults_tiny_records_lp_stats_schema() {
    // The harness writes results/ and logs/ relative to its cwd: run in a
    // scratch directory so the repo's real results stay untouched, and
    // scrub every harness knob the ambient environment might carry.
    let dir = tmp_dir("lp-stats-smoke");
    let _ = std::fs::remove_file(dir.join("results/fig_faults.json"));
    let mut fig = Command::new(env!("CARGO_BIN_EXE_fig"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("TUGAL_") {
            fig.env_remove(name);
        }
    }
    let status = fig
        .args(["fig_faults"])
        .current_dir(&dir)
        .env("TUGAL_TINY", "1")
        .status()
        .expect("fig spawns");
    assert!(status.success(), "fig_faults exited with {status}");

    let data = std::fs::read_to_string(dir.join("results/fig_faults.json"))
        .expect("fig_faults wrote its JSON record");
    let json: serde::Value = serde_json::from_str(&data).expect("record parses");
    let serde::Value::Object(stats) = json
        .get("lp_stats")
        .expect("record has an lp_stats section")
    else {
        panic!("lp_stats is not an object");
    };

    // One chain per (deterministic pattern, rule): UR has no demand
    // matrix, so exactly the two SHIFT chains.
    assert_eq!(
        stats.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        vec!["SHIFT T-UGAL", "SHIFT UGAL"],
        "unexpected chain labels"
    );
    for (label, entry) in stats {
        let get = |k: &str| match entry.get(k) {
            Some(&serde::Value::UInt(u)) => u,
            Some(&serde::Value::Int(i)) if i >= 0 => i as u64,
            other => panic!("{label}.{k} missing or not an integer: {other:?}"),
        };
        let solves = get("solves");
        let pivots = get("pivots");
        let refactorizations = get("refactorizations");
        let attempts = get("warm_attempts");
        let hits = get("warm_hits");
        let wall_ms = match entry.get("wall_ms") {
            Some(&serde::Value::Float(f)) => f,
            Some(&serde::Value::UInt(u)) => u as f64,
            other => panic!("{label}.wall_ms missing or not a number: {other:?}"),
        };
        // Four fractions → four solves, of which three can warm-start.
        assert_eq!(solves, 4, "{label}: solves");
        assert_eq!(attempts, 3, "{label}: warm_attempts");
        assert!(hits >= 1 && hits <= attempts, "{label}: hits {hits}");
        assert!(pivots > 0, "{label}: no pivots counted");
        // Every solve canonicalizes its final basis, so refactorizations
        // can never undercut solves.
        assert!(
            refactorizations >= solves,
            "{label}: {refactorizations} refactorizations < {solves} solves"
        );
        assert!(wall_ms > 0.0, "{label}: no wall clock attributed");
    }
}
