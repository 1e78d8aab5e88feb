//! The `simtrace` and `tracegen` binaries end to end: a trace that cannot
//! be read to its end fails the run (exit 1) instead of simulating a
//! truncated stream, a bad flag is reported (exit 2) instead of
//! panicking, and a `.din` file and a `.rct` corpus shard of the same
//! records simulate identically.

use rampage_trace::corpus::record_source;
use rampage_trace::io::{copy_din, DinWriter};
use rampage_trace::profiles::TABLE2;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rampage-simtrace-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn simtrace(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_simtrace"), args)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The lines of `simtrace`'s report that must not depend on the file
/// format (the per-process rows name the file, so they differ).
fn results(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("simulated time") || l.starts_with("metrics"))
        .map(str::to_string)
        .collect()
}

/// Write gcc's synthetic trace (about `refs` references) to `dir` twice:
/// as `gcc.din` and as the corpus shard `gcc.rct`.
fn gcc_both_ways(dir: &Path, refs: u64) -> (PathBuf, PathBuf) {
    let gcc = TABLE2
        .iter()
        .find(|p| p.name == "gcc")
        .expect("gcc profile");
    let scale = ((gcc.refs_millions * 1e6) as u64 / refs).max(1);
    let din = dir.join("gcc.din");
    let file = std::fs::File::create(&din).expect("create .din");
    let mut w = DinWriter::new(BufWriter::new(file));
    copy_din(&mut gcc.source(scale, 7), &mut w).expect("write .din");
    w.finish().expect("flush .din");
    let meta = record_source(
        dir,
        "gcc",
        &mut gcc.source(scale, 7),
        4096,
        None,
        None,
        None,
    )
    .expect("record .rct");
    assert!(meta.blocks > 2, "the shard spans several blocks");
    (din, dir.join(meta.file))
}

#[test]
fn malformed_din_line_fails_the_run_naming_file_and_line() {
    let dir = scratch("garbled");
    let path = dir.join("garbled.din");
    std::fs::write(&path, "2 400000\n0 1000\n9 nothex\n1 2000\n0 3000\n").expect("write");
    let out = simtrace(&[path.to_str().expect("utf-8 path")]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("garbled.din"), "names the file: {err}");
    assert!(err.contains("line 3"), "names the line: {err}");
    assert!(results(&out).is_empty(), "no report for a truncated trace");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_corpus_block_fails_the_run() {
    let dir = scratch("quarantine");
    let (_, rct) = gcc_both_ways(&dir, 20_000);
    let mut bytes = std::fs::read(&rct).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&rct, &bytes).expect("rewrite shard");
    let out = simtrace(&[rct.to_str().expect("utf-8 path")]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("gcc.rct") && err.contains("skipped"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_exit_2_without_panicking() {
    let dir = scratch("flags");
    let trace = dir.join("ok.din");
    std::fs::write(&trace, "2 400000\n0 1000\n").expect("write");
    let trace = trace.to_str().expect("utf-8 path");
    let out_dir = dir.join("gen");
    let out_dir = out_dir.to_str().expect("utf-8 path");

    let cases: [(&str, Vec<&str>); 7] = [
        ("simtrace", vec!["--mhz", "3", trace]),
        ("simtrace", vec!["--mhz", "0", trace]),
        (
            "simtrace",
            vec!["--system", "rampage", "--unit", "100", trace],
        ),
        ("simtrace", vec!["--system", "dm", "--unit", "0", trace]),
        ("simtrace", vec!["--system", "dm", "--unit", "100", trace]),
        ("simtrace", vec!["--quantum", "0", trace]),
        ("tracegen", vec!["gen", "gcc", out_dir, "--refs", "0"]),
    ];
    for (bin, args) in &cases {
        let exe = match *bin {
            "simtrace" => env!("CARGO_BIN_EXE_simtrace"),
            _ => env!("CARGO_BIN_EXE_tracegen"),
        };
        let out = run(exe, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{bin} {args:?}: {err}");
        assert!(
            err.starts_with(&format!("{bin}: ")),
            "{bin} {args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn din_and_corpus_shard_simulate_identically() {
    let dir = scratch("formats");
    let (din, rct) = gcc_both_ways(&dir, 20_000);
    let din_out = simtrace(&[din.to_str().expect("utf-8 path")]);
    let rct_out = simtrace(&[rct.to_str().expect("utf-8 path")]);
    assert!(din_out.status.success(), "{}", stderr(&din_out));
    assert!(rct_out.status.success(), "{}", stderr(&rct_out));
    let din_results = results(&din_out);
    assert_eq!(din_results.len(), 2, "time and metrics lines");
    assert_eq!(din_results, results(&rct_out));
    std::fs::remove_dir_all(&dir).ok();
}
