//! The `fig` dispatcher: its listing, a few cheap ids, and the exit code
//! of a bad id or a bad `TUGAL_*` variable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The 27 ids, one per former harness binary, in listing order.
const IDS: &str = "table1 table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 \
    fig14 fig15 fig16 fig17 fig18 ablation_arrangement ablation_balance ablation_candidates \
    ablation_monotonicity ablation_strategic ablation_threshold fig_faults fig_linkload fig_zoo";

fn tmp_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-tmp/fig");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `fig` with every `TUGAL_*` variable removed, plus `vars`.
fn fig(args: &[&str], vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("TUGAL_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args)
        .envs(vars.iter().copied())
        .current_dir(tmp_dir())
        .output()
        .expect("fig spawns")
}

#[test]
fn bare_fig_lists_every_id() {
    let out = fig(&[], &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let ids: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(ids, IDS.split_whitespace().collect::<Vec<_>>());
    assert_eq!(ids.len(), 27);
}

#[test]
fn tables_run_and_print_their_header() {
    for id in ["table1", "table2", "table3"] {
        let out = fig(&[id], &[]);
        assert_eq!(out.status.code(), Some(0), "{id}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with(&format!("# {id}:")), "{id}: {stdout}");
    }
}

#[test]
fn unknown_id_is_a_setup_error() {
    assert_eq!(fig(&["nope"], &[]).status.code(), Some(2));
}

#[test]
fn misspelled_variable_is_a_setup_error() {
    let out = fig(&["table2"], &[("TUGAL_FUL", "1")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stdout).unwrap().is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("TUGAL_FUL"), "{stderr}");
}
