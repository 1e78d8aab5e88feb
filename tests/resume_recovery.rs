//! Crash-safety tests for the durable sweep journal: a journaled run
//! resumes exactly where it stopped, concurrent owners drain one grid
//! without duplicating work, a `repro` rerun resumes from the journal
//! alone (never from `cells.json`), and (under `--features fault`) the
//! `repro` binary survives an injected crash at every crash point — the
//! resumed artifact must be bit-identical to an uninterrupted run.

use rampage_core::experiments::{
    scan_journal, table3, CellCache, JournalOp, JournalState, LeaseConfig, SweepRunner, Workload,
};
use rampage_core::IssueRate;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::AtomicBool;

const RATES: [IssueRate; 2] = [IssueRate::MHZ200, IssueRate::GHZ4];

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rampage-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The `repro` binary under test.
fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Reference output: the full grid on a clean serial runner.
fn clean_cells(w: &Workload, sizes: &[u64]) -> String {
    let runner = SweepRunner::serial();
    table3::run(&runner, w, &RATES, sizes);
    runner.cache().to_json().pretty()
}

#[test]
fn journal_resume_skips_completed_cells_and_is_bit_identical() {
    let w = Workload::quick();
    let dir = scratch("resume");
    let jpath = dir.join("journal.jsonl");

    // Phase A: a journaled runner finishes half the grid, then "dies"
    // (drops — every completed cell is already fsync'd in the journal).
    {
        let runner = SweepRunner::serial()
            .with_journal(&jpath, LeaseConfig::new("A".into()))
            .expect("open journal");
        table3::run(&runner, &w, &RATES, &[256]);
        assert_eq!(
            runner.cache().computed(),
            4,
            "half grid: 2 rates x 2 systems"
        );
    }

    // Phase B: a new runner on the same journal resumes and runs the
    // full grid; phase A's cells must be adopted, not recomputed.
    let runner = SweepRunner::serial()
        .with_journal(&jpath, LeaseConfig::new("A".into()))
        .expect("reopen journal");
    assert_eq!(runner.resumed_cells(), 4, "phase A cells recovered");
    table3::run(&runner, &w, &RATES, &[256, 2048]);
    assert_eq!(runner.cache().computed(), 4, "only the new size simulated");
    assert_eq!(
        runner.cache().to_json().pretty(),
        clean_cells(&w, &[256, 2048]),
        "resumed cells.json differs from an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_owners_drain_one_grid_without_duplicate_computation() {
    let w = Workload::quick();
    let dir = scratch("two-owners");
    let jpath = dir.join("journal.jsonl");
    let sizes = [256u64, 2048];

    let make = |owner: &str| {
        SweepRunner::new(2)
            .with_journal(&jpath, LeaseConfig::new(owner.into()))
            .expect("open shared journal")
    };
    let a = make("A");
    let b = make("B");
    std::thread::scope(|s| {
        s.spawn(|| table3::run(&a, &w, &RATES, &sizes));
        s.spawn(|| table3::run(&b, &w, &RATES, &sizes));
    });

    // Both see the complete, correct artifact...
    let clean = clean_cells(&w, &sizes);
    assert_eq!(a.cache().to_json().pretty(), clean, "owner A artifact");
    assert_eq!(b.cache().to_json().pretty(), clean, "owner B artifact");
    // ...and the grid was computed exactly once across both owners.
    assert_eq!(
        a.cache().computed() + b.cache().computed(),
        8,
        "no duplicated or lost cell computations"
    );
    let records = scan_journal(&jpath).expect("scan journal");
    let mut done_per_fp: BTreeMap<u64, u32> = BTreeMap::new();
    for r in &records {
        if let JournalOp::Done { fp, .. } = r.op {
            *done_per_fp.entry(fp).or_insert(0) += 1;
        }
    }
    assert_eq!(done_per_fp.len(), 8, "every cell journaled done");
    assert!(
        done_per_fp.values().all(|&n| n == 1),
        "a cell was journaled done more than once: {done_per_fp:?}"
    );
    // The replayed claim table agrees: every cell done, no open claims.
    let state = JournalState::replay(&records);
    assert!(state.cells.values().all(|c| c.done_count == 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_flag_interrupts_then_resume_completes() {
    static FLAG: AtomicBool = AtomicBool::new(true);
    let w = Workload::quick();
    let dir = scratch("shutdown");
    let jpath = dir.join("journal.jsonl");

    // The flag is already set: every cell drains as an interrupted
    // placeholder and nothing is journaled done.
    {
        let runner = SweepRunner::serial()
            .with_shutdown_flag(&FLAG)
            .with_journal(&jpath, LeaseConfig::new("A".into()))
            .expect("open journal");
        table3::run(&runner, &w, &RATES, &[256]);
        assert!(runner.interrupted(), "shutdown flag honored");
        assert_eq!(runner.cache().computed(), 0, "no cell computed");
    }

    // A fresh runner without the flag completes the grid from zero.
    let runner = SweepRunner::serial()
        .with_journal(&jpath, LeaseConfig::new("A".into()))
        .expect("reopen journal");
    assert_eq!(runner.resumed_cells(), 0);
    table3::run(&runner, &w, &RATES, &[256]);
    assert!(!runner.interrupted());
    assert_eq!(
        runner.cache().to_json().pretty(),
        clean_cells(&w, &[256]),
        "post-interrupt resume differs from a clean run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cells.json` is a write-only snapshot: a rerun seeds its cache from
/// the journal alone, so a well-formed, correctly checksummed entry
/// added to the snapshot between runs never reaches the next snapshot,
/// and nothing is quarantined.
#[test]
fn rerun_resumes_from_the_journal_not_the_cells_json_snapshot() {
    let dir = scratch("snapshot-extra");
    let run = || {
        let out = repro()
            .args(["--scale", "20000", "--nbench", "2", "--jobs", "1"])
            .arg("--out")
            .arg(&dir)
            .arg("table3")
            .output()
            .expect("spawn repro");
        assert!(out.status.success(), "repro failed: {out:?}");
    };
    run();
    let cells_path = dir.join("cells.json");
    let clean = std::fs::read(&cells_path).expect("read cells.json");

    // Append an entry under a fingerprint the journal never recorded,
    // through the snapshot's own writer so its checksum is valid.
    let records = scan_journal(&dir.join("journal.jsonl")).expect("scan journal");
    let done: BTreeMap<u64, _> = records
        .iter()
        .filter_map(|r| match r.op {
            JournalOp::Done { fp, cell } => Some((fp, cell)),
            _ => None,
        })
        .collect();
    let stray_fp = 0x5ca1_ab1e_0000_0001;
    assert!(!done.contains_key(&stray_fp));
    let snapshot = CellCache::new();
    let load = snapshot.load_file(&cells_path);
    assert!(load.is_clean(), "{}", load.describe());
    assert_eq!(load.loaded, done.len(), "the snapshot mirrors the journal");
    let (_, &cell) = done.iter().next().expect("a finished cell");
    snapshot.insert(stray_fp, cell);
    snapshot.save_file(&cells_path).expect("extend snapshot");
    assert_ne!(std::fs::read(&cells_path).expect("read"), clean);

    run();
    assert_eq!(
        std::fs::read(&cells_path).expect("read cells.json"),
        clean,
        "the rerun's snapshot must come from the journal alone"
    );
    let corrupt: Vec<_> = std::fs::read_dir(&dir)
        .expect("list out dir")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|n| n.to_string_lossy().ends_with(".corrupt"))
        .collect();
    assert!(corrupt.is_empty(), "nothing is quarantined: {corrupt:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Child-process crash drills through the real `repro` binary. These
/// need the injected crash points, so they only exist under the
/// `fault` feature (`cargo test --features fault`).
#[cfg(feature = "fault")]
mod drills {
    use super::{repro, scratch};
    use std::path::Path;

    /// Exit code of an injected crash (mirrors a real `kill -9`).
    const CRASH: i32 = 137;

    /// `repro table3` on the 2-benchmark grid at `scale` into `out`.
    fn run_scaled(out: &Path, scale: &str, jobs: &str, extra: &[&str]) -> std::process::Output {
        let mut cmd = repro();
        cmd.args(["--scale", scale, "--nbench", "2", "--jobs", jobs])
            .arg("--out")
            .arg(out)
            .args(extra)
            .arg("table3");
        cmd.output().expect("spawn repro")
    }

    /// The drills' default small grid.
    fn run_table3(out: &Path, extra: &[&str]) -> std::process::Output {
        run_scaled(out, "20000", "2", extra)
    }

    fn cells(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join("cells.json")).expect("read cells.json")
    }

    /// The uninterrupted `--jobs 1` reference artifact.
    fn clean_reference(name: &str) -> Vec<u8> {
        let dir = scratch(name);
        let mut cmd = repro();
        cmd.args(["--scale", "20000", "--nbench", "2", "--jobs", "1"])
            .arg("--out")
            .arg(&dir)
            .arg("table3");
        let out = cmd.output().expect("spawn repro");
        assert!(out.status.success(), "clean run failed: {out:?}");
        let bytes = cells(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    /// Crash at `spec`, resume, and require the artifact to match the
    /// clean run byte for byte.
    fn crash_then_resume(name: &str, spec: &str) {
        let dir = scratch(name);
        let crashed = run_table3(&dir, &["--fault", spec]);
        assert_eq!(
            crashed.status.code(),
            Some(CRASH),
            "expected injected crash: {crashed:?}"
        );
        let resumed = run_table3(&dir, &["--resume"]);
        assert_eq!(resumed.status.code(), Some(0), "resume failed: {resumed:?}");
        assert_eq!(
            cells(&dir),
            clean_reference(&format!("{name}-clean")),
            "{spec}: resumed cells.json differs from an uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn die_after_claim_then_resume_is_bit_identical() {
        crash_then_resume("die-after-claim", "die-after-claim");
    }

    #[test]
    fn die_mid_journal_append_truncates_torn_tail_and_resumes() {
        let dir = scratch("die-mid-append");
        let crashed = run_table3(&dir, &["--fault", "die-mid-append=5"]);
        assert_eq!(crashed.status.code(), Some(CRASH), "{crashed:?}");
        let resumed = run_table3(&dir, &["--resume"]);
        assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            stderr.contains("torn tail"),
            "resume must report the truncated torn tail: {stderr}"
        );
        assert_eq!(
            cells(&dir),
            clean_reference("die-mid-append-clean"),
            "resumed cells.json differs from an uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sigkill_mid_sweep_then_resume_is_bit_identical() {
        let dir = scratch("sigkill");
        let mut cmd = repro();
        cmd.args(["--scale", "2000", "--nbench", "2", "--jobs", "1"])
            .arg("--out")
            .arg(&dir)
            .arg("table3")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        let mut child = cmd.spawn().expect("spawn repro");
        std::thread::sleep(std::time::Duration::from_millis(400));
        // Whether or not the child got anywhere before SIGKILL, the
        // resumed artifact must match the clean run.
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");
        let resumed = run_scaled(&dir, "2000", "2", &[]);
        assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
        let clean = {
            let cdir = scratch("sigkill-clean");
            let out = run_scaled(&cdir, "2000", "1", &[]);
            assert!(out.status.success(), "clean run failed: {out:?}");
            let bytes = cells(&cdir);
            let _ = std::fs::remove_dir_all(&cdir);
            bytes
        };
        assert_eq!(cells(&dir), clean, "post-SIGKILL resume differs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hung_cell_is_stalled_retried_and_tolerated_with_exit_3() {
        let dir = scratch("hang-cell");
        let out = run_table3(
            &dir,
            &[
                "--watchdog",
                "--stall-floor-ms",
                "100",
                "--stall-retries",
                "0",
                "--fault",
                "hang-cell",
                "--max-cell-failures",
                "1",
            ],
        );
        assert_eq!(
            out.status.code(),
            Some(3),
            "tolerated failures exit 3: {out:?}"
        );
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics.json");
        assert!(
            metrics.contains("\"stalled\": 1"),
            "watchdog stall must reach telemetry: {metrics}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("stalled by watchdog"),
            "failure report names the watchdog: {stderr}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_on_empty_directory_is_a_usage_error() {
        let dir = scratch("resume-empty");
        let out = run_table3(&dir, &["--resume"]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
