//! The `repro` binary's artifact list end to end: `all` expands in place
//! next to other names, every name runs once, and an unknown name fails
//! with exit 2 before any simulation.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn all_runs_alongside_other_artifacts() {
    let out = repro(&[
        "--scale", "20000", "--nbench", "2", "--jobs", "2", "all", "diag",
    ]);
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(text.matches("diag: per-config").count(), 1, "{text}");
    assert_eq!(text.matches("Table 3:").count(), 1, "{text}");
}

#[test]
fn a_repeated_artifact_runs_once() {
    let out = repro(&["table1", "table1"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out).matches("Table 1").count(), 1);
}

#[test]
fn an_unknown_artifact_exits_2_before_simulating() {
    let dir = std::env::temp_dir().join(format!("rampage-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let out = repro(&[
        "--scale", "20000", "--nbench", "2", "--out", dir_arg, "table3", "tabel4",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stdout(&out), "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact: tabel4"), "{stderr}");
    assert!(
        !dir.exists(),
        "--out was created before the name was checked"
    );
}
