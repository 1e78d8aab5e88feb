//! The `repro` binary end to end: `all` expands in place next to other
//! names, every name runs once, and an unknown name fails with exit 2
//! before any simulation; `trace import-din` adds its shard to a corpus
//! manifest without losing the entries already there.

use rampage_trace::corpus::Manifest;
use std::path::PathBuf;
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

/// A temp directory that is removed when the test ends, pass or fail.
struct Scratch(PathBuf);

impl Scratch {
    /// A fresh directory holding a small `.din` trace, `in.din`.
    fn with_din(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("rampage-repro-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let din: String = (0..300u64)
            .map(|i| format!("2 {:x}\n0 {:x}\n", 0x40_0000 + 4 * i, 0x1000_0000 + 8 * i))
            .collect();
        std::fs::write(dir.join("in.din"), din).expect("write din");
        Scratch(dir)
    }

    /// `repro trace import-din` of `in.din` as shard `name` into
    /// `corpus`, a subdirectory of the scratch directory.
    fn import(&self, name: &str) -> Output {
        let corpus = self.corpus();
        let din = self.0.join("in.din");
        repro(&[
            "trace",
            "import-din",
            "--dir",
            corpus.to_str().expect("utf-8 temp dir"),
            "--name",
            name,
            din.to_str().expect("utf-8 temp dir"),
        ])
    }

    fn corpus(&self) -> PathBuf {
        self.0.join("corpus")
    }

    fn shard_names(&self) -> Vec<String> {
        let manifest = Manifest::load(&self.corpus()).expect("manifest loads");
        manifest.shards.into_iter().map(|s| s.name).collect()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn import_din_refuses_a_manifest_it_cannot_load() {
    let scratch = Scratch::with_din("bumped");
    for name in ["alvinn", "awk"] {
        assert_eq!(scratch.import(name).status.code(), Some(0));
    }
    let manifest = scratch.corpus().join("manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    let bumped = text.replacen("\"version\": 1", "\"version\": 2", 1);
    assert_ne!(bumped, text, "the manifest carries a version field");
    std::fs::write(&manifest, &bumped).expect("bump version");

    let out = scratch.import("extra");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("import-din:"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&manifest).expect("read manifest"),
        bumped,
        "the unloadable manifest is left as it was"
    );
    assert!(
        !scratch.corpus().join("extra.rct").exists(),
        "no shard is written before the manifest loads"
    );
}

#[test]
fn import_din_into_a_fresh_directory_starts_a_manifest() {
    let scratch = Scratch::with_din("fresh");
    let out = scratch.import("extra");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).starts_with("imported extra: 600 records"));
    assert_eq!(scratch.shard_names(), ["extra"]);
}

#[test]
fn import_din_keeps_the_entries_of_a_valid_manifest() {
    let scratch = Scratch::with_din("valid");
    for name in ["awk", "alvinn", "extra"] {
        assert_eq!(scratch.import(name).status.code(), Some(0));
    }
    assert_eq!(scratch.shard_names(), ["alvinn", "awk", "extra"]);
}
