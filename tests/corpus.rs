//! Integration tests for the trace corpus subsystem: record → replay
//! bit-identity, compression, engine quantum switches across block
//! boundaries, `--trace-dir` sweep equivalence, corruption quarantine,
//! and the committed sample corpus fixture.
//!
//! The fixture under `tests/fixtures/corpus/` is regenerated with:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test corpus
//! git diff tests/fixtures/corpus/   # review, then commit
//! ```

use rampage_core::experiments::{
    corpus_source_stats, scan_journal, set_trace_dir, CorpusSourceStats, Job, JournalOp,
    LeaseConfig, SweepRunner, Workload,
};
use rampage_core::{Engine, IssueRate, SystemConfig};
use rampage_json::ToJson;
use rampage_trace::corpus::{
    fidelity_tolerance, record_profiles, verify_dir, CorpusReader, Manifest, CORPUS_FOOTER_MAGIC,
    CORPUS_MAGIC,
};
use rampage_trace::{profiles, TraceRecord, TraceSource};
use std::path::PathBuf;

/// Quick-workload parameters (kept in sync with [`Workload::quick`] by
/// an assertion in the sweep test).
const QUICK_SCALE: u64 = 20_000;
const QUICK_SEED: u64 = 0x7a9e;
const QUICK_NBENCH: usize = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rampage-corpus-it-{tag}-{}", std::process::id()))
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus")
}

fn drain<S: TraceSource>(source: &mut S) -> Vec<TraceRecord> {
    std::iter::from_fn(|| source.next_record()).collect()
}

#[test]
fn record_then_replay_is_bit_identical_and_3x_smaller() {
    let dir = tmp_dir("roundtrip");
    std::fs::remove_dir_all(&dir).ok();
    let suite = &profiles::TABLE2[..QUICK_NBENCH];
    let manifest = record_profiles(&dir, suite, QUICK_SCALE, QUICK_SEED, 2048).expect("record");

    for p in suite {
        let meta = manifest.find(p.name).expect("shard recorded");
        let mut replay = CorpusReader::open(dir.join(&meta.file)).expect("open shard");
        let mut synth = p.source(QUICK_SCALE, QUICK_SEED);
        assert_eq!(
            drain(&mut replay),
            drain(&mut synth),
            "{} replay must be bit-identical to synthesis",
            p.name
        );
        assert!(replay.warnings().is_empty());
    }

    // The acceptance bar: >= 3x smaller than a raw fixed-width encoding
    // (8-byte header + 9 bytes per record per shard).
    let raw: u64 = manifest.shards.iter().map(|s| 8 + 9 * s.records).sum();
    assert!(
        manifest.total_bytes() * 3 <= raw,
        "corpus {} bytes vs raw bin {raw} bytes",
        manifest.total_bytes()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine over corpus-backed sources must see exactly what it sees
/// over the generating synthetic sources — at the paper's 500 k quantum
/// and at a tiny quantum that forces process switches inside (and
/// across) storage blocks.
#[test]
fn engine_quantum_boundaries_match_synthesis() {
    let dir = tmp_dir("quantum");
    std::fs::remove_dir_all(&dir).ok();
    let suite = &profiles::TABLE2[..QUICK_NBENCH];
    // 512-byte blocks: every shard spans many blocks, so quanta land
    // mid-block and sources resume across block boundaries.
    let manifest = record_profiles(&dir, suite, QUICK_SCALE, QUICK_SEED, 512).expect("record");

    for quantum in [500_000u64, 257] {
        let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        cfg.quantum = quantum;
        let synth: Vec<_> = suite
            .iter()
            .map(|p| Box::new(p.source(QUICK_SCALE, QUICK_SEED)) as Box<dyn TraceSource + Send>)
            .collect();
        let replay: Vec<_> = suite
            .iter()
            .map(|p| {
                let meta = manifest.find(p.name).expect("shard recorded");
                let reader = CorpusReader::open(dir.join(&meta.file)).expect("open shard");
                Box::new(reader.with_name(p.name)) as Box<dyn TraceSource + Send>
            })
            .collect();
        let a = Engine::new(&cfg, synth).run();
        let b = Engine::new(&cfg, replay).run();
        assert_eq!(a.metrics.counts, b.metrics.counts, "quantum {quantum}");
        assert_eq!(a.metrics.time, b.metrics.time, "quantum {quantum}");
        assert_eq!(a.elapsed, b.elapsed, "quantum {quantum}");
        assert_eq!(a.per_process, b.per_process, "quantum {quantum}");
        assert!(
            a.metrics.counts.context_switches > 0,
            "quantum {quantum} switched processes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sweep over corpus-backed sources produces cells (and their
/// persisted JSON) identical to the synthetic sweep, and every source
/// actually came from disk. Routed to a directory with no manifest, the
/// same sweep synthesizes every source and counts each as a fallback.
/// Replaying a shard with a damaged block fails every cell, journaled
/// `failed` and never cached, and synthesis then recomputes them.
///
/// The trace-dir routing is process-global, so this is the only test in
/// this binary that touches `set_trace_dir` or `Workload::sources`.
#[test]
fn sweep_through_trace_dir_is_bit_identical() {
    let dir = tmp_dir("sweep");
    std::fs::remove_dir_all(&dir).ok();
    let w = Workload::quick();
    assert_eq!(
        (w.nbench, w.scale, w.seed),
        (QUICK_NBENCH, QUICK_SCALE, QUICK_SEED),
        "corpus fixture parameters drifted from Workload::quick()"
    );
    let manifest = record_profiles(
        &dir,
        &profiles::TABLE2[..QUICK_NBENCH],
        QUICK_SCALE,
        QUICK_SEED,
        4096,
    )
    .expect("record");

    let sizes = [256u64, 2048];
    let jobs: Vec<Job> = sizes
        .iter()
        .map(|&size| Job::new(SystemConfig::rampage(IssueRate::GHZ1, size), w))
        .collect();
    let synth_cells = SweepRunner::new(2).run_labeled("corpus-synth", &jobs);

    set_trace_dir(Some(dir.clone()));
    CorpusSourceStats::reset();
    let replay_cells = SweepRunner::new(2).run_labeled("corpus-replay", &jobs);
    let stats = corpus_source_stats();
    // A directory with no manifest synthesizes every source, and counts
    // each one as a fallback.
    set_trace_dir(Some(dir.join("missing")));
    CorpusSourceStats::reset();
    let missing_cells = SweepRunner::new(2).run_labeled("corpus-missing", &jobs);
    let missing_stats = corpus_source_stats();
    set_trace_dir(None);

    assert_eq!(
        synth_cells, replay_cells,
        "cells must not depend on the route"
    );
    assert_eq!(
        synth_cells.to_json().pretty(),
        replay_cells.to_json().pretty(),
        "persisted JSON must match byte-for-byte"
    );
    assert_eq!(
        stats,
        CorpusSourceStats {
            opened: (sizes.len() * QUICK_NBENCH) as u64,
            fallback: 0,
        },
        "every source must have replayed from disk"
    );
    assert_eq!(synth_cells, missing_cells, "fallback cells are synthesized");
    assert_eq!(
        missing_stats,
        CorpusSourceStats {
            opened: 0,
            fallback: (sizes.len() * QUICK_NBENCH) as u64,
        },
        "every source of an unreadable corpus is a counted fallback"
    );

    // Damage the middle of the first shard, which every job replays.
    let shard = dir.join(&manifest.shards[0].file);
    let mut bytes = std::fs::read(&shard).expect("read shard");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xff;
    }
    std::fs::write(&shard, &bytes).expect("rewrite shard");
    let journal = dir.join("journal.jsonl");
    let journaled = |owner: &str| {
        SweepRunner::new(2)
            .with_journal(&journal, LeaseConfig::new(owner.into()))
            .expect("open journal")
    };
    set_trace_dir(Some(dir.clone()));
    let damaged = journaled("damaged");
    let damaged_cells = damaged.run_labeled("corpus-damaged", &jobs);
    set_trace_dir(None);
    let failures = damaged.failures();
    assert_eq!(failures.len(), jobs.len(), "{}", damaged.failure_report());
    for (f, job) in failures.iter().zip(&jobs) {
        assert_eq!(f.fingerprint, job.fingerprint());
        assert!(f.error.starts_with("damaged trace: "), "{}", f.error);
    }
    assert!(damaged_cells.iter().all(|c| c.seconds == 0.0));
    assert_eq!(damaged.cache().len(), 0, "failed cells are never cached");
    let mut failed = Vec::new();
    for rec in scan_journal(&journal).expect("scan journal") {
        match rec.op {
            JournalOp::Open => {}
            JournalOp::Done { fp, .. } => panic!("cell {fp:#x} journaled done"),
            JournalOp::Failed { fp, label, .. } => {
                assert_eq!(label, "corpus-damaged");
                failed.push(fp);
            }
        }
    }
    failed.sort_unstable();
    let mut expect: Vec<u64> = jobs.iter().map(Job::fingerprint).collect();
    expect.sort_unstable();
    assert_eq!(failed, expect, "one `failed` record per job");

    // Back on synthesis, the same journal resumes nothing and the
    // cells come out equal to the synthetic sweep.
    let healed = journaled("healed");
    assert_eq!(healed.resumed_cells(), 0);
    assert_eq!(healed.run_labeled("corpus-healed", &jobs), synth_cells);
    assert_eq!(healed.failure_count(), 0, "{}", healed.failure_report());
    std::fs::remove_dir_all(&dir).ok();
}

/// On-disk corruption: a flipped payload byte must quarantine exactly
/// one block (its records vanish, a warning is recorded) and must fail
/// `verify_dir`, while the rest of the corpus stays usable.
#[test]
fn corrupt_block_on_disk_is_quarantined_and_flagged() {
    let dir = tmp_dir("corrupt");
    std::fs::remove_dir_all(&dir).ok();
    let suite = &profiles::TABLE2[..2];
    let manifest = record_profiles(&dir, suite, QUICK_SCALE, QUICK_SEED, 512).expect("record");
    let victim = manifest.find(suite[0].name).expect("shard recorded");
    assert!(victim.blocks > 2, "need multiple blocks to corrupt one");

    // Flip a byte in the middle of the file — inside some block payload,
    // far from the header and the index.
    let path = dir.join(&victim.file);
    let mut bytes = std::fs::read(&path).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("rewrite shard");

    let mut reader = CorpusReader::open(&path).expect("index still loads");
    let got = drain(&mut reader);
    let warnings = reader.warnings();
    assert_eq!(warnings.len(), 1, "exactly one block quarantined");
    assert_eq!(
        got.len() as u64 + warnings[0].records_lost,
        victim.records,
        "stream = all records minus the quarantined block"
    );

    let report = verify_dir(&dir, 2).expect("verify runs");
    assert!(!report.ok(), "verification must flag the tampered shard");
    assert_eq!(report.failed(), 1);
    let healthy = report
        .shards
        .iter()
        .find(|s| s.name == suite[1].name)
        .expect("second shard reported");
    assert!(healthy.ok(), "untouched shard still verifies");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (c): profile fidelity. A recorded shard's stats must sit
/// within [`FIDELITY_TOLERANCE`] of its generating Table 2 parameters,
/// and a manifest whose expectations are doctored past the tolerance
/// must fail verification.
#[test]
fn profile_fidelity_is_checked_against_table2() {
    let dir = tmp_dir("fidelity");
    std::fs::remove_dir_all(&dir).ok();
    let suite = &profiles::TABLE2[..3];
    let mut manifest = record_profiles(&dir, suite, QUICK_SCALE, QUICK_SEED, 2048).expect("record");

    for (p, s) in suite.iter().zip(&manifest.shards) {
        let expect = s.profile.as_ref().expect("profile recorded");
        assert_eq!(expect.name, p.name);
        assert!(
            expect.drift(&s.stats) <= fidelity_tolerance(s.records),
            "{} drifted {:.4} from Table 2 (tolerance {:.4})",
            p.name,
            expect.drift(&s.stats),
            fidelity_tolerance(s.records)
        );
    }
    assert!(verify_dir(&dir, 2).expect("verify").ok());

    // Doctor one expectation beyond the tolerance: verify must fail it.
    let doctor = 2.0 * fidelity_tolerance(manifest.shards[0].records);
    if let Some(e) = manifest.shards[0].profile.as_mut() {
        e.ifetch_frac = (e.ifetch_frac + doctor).min(1.0);
    }
    manifest.save(&dir).expect("save doctored manifest");
    let report = verify_dir(&dir, 2).expect("verify");
    assert!(!report.ok(), "drift past tolerance must fail");
    assert!(
        report.shards[0]
            .problems
            .iter()
            .any(|p| p.contains("drift")),
        "failure names the drift: {:?}",
        report.shards[0].problems
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (d): the committed sample corpus. Two small shards plus a
/// manifest live in `tests/fixtures/corpus/` (< 100 KiB total); they
/// must verify clean and replay bit-identically to their generating
/// profiles on every platform.
#[test]
fn sample_fixture_verifies_and_replays() {
    const FIXTURE_SCALE: u64 = 20_000;
    const FIXTURE_SEED: u64 = 0x0f1d;
    let dir = fixture_dir();
    let suite = &profiles::TABLE2[..2];

    if std::env::var_os("UPDATE_FIXTURES").is_some_and(|v| v == "1") {
        std::fs::remove_dir_all(&dir).ok();
        record_profiles(&dir, suite, FIXTURE_SCALE, FIXTURE_SEED, 1024).expect("record fixture");
    }

    let manifest = Manifest::load(&dir).unwrap_or_else(|e| {
        panic!(
            "missing corpus fixture at {} ({e}); regenerate with \
             UPDATE_FIXTURES=1 cargo test --test corpus",
            dir.display()
        )
    });
    assert_eq!(manifest.shards.len(), 2);

    // Size budget: the fixture must stay a tiny committed artifact.
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .flatten()
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .sum();
    assert!(on_disk < 100 * 1024, "fixture grew to {on_disk} bytes");

    assert!(
        verify_dir(&dir, 2).expect("verify").ok(),
        "committed fixture must verify clean"
    );

    for p in suite {
        let meta = manifest
            .find_recorded(p.name, FIXTURE_SEED, FIXTURE_SCALE)
            .expect("fixture shard matches identity");
        assert!(meta.blocks > 1, "fixture shards span multiple blocks");
        let mut replay = CorpusReader::open(dir.join(&meta.file)).expect("open fixture shard");
        let mut synth = p.source(FIXTURE_SCALE, FIXTURE_SEED);
        assert_eq!(
            drain(&mut replay),
            drain(&mut synth),
            "fixture {} diverged from its generator; regenerate with \
             UPDATE_FIXTURES=1 cargo test --test corpus",
            p.name
        );
    }
}

/// A shard's block checksum (the format's length-seeded FNV-1a over
/// little-endian words), restated so a test can forge a valid block.
fn block_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A block whose header claims `u32::MAX` records over a 4-byte payload,
/// with a valid checksum and a self-consistent index and footer: every
/// record encodes to at least one byte, so the reader must quarantine
/// it as a normal warning instead of reserving room for the claimed
/// count (about 64 GiB) and aborting the process.
#[test]
fn block_claiming_more_records_than_bytes_is_quarantined() {
    let dir = tmp_dir("count");
    std::fs::create_dir_all(&dir).expect("create dir");
    let path = dir.join("forged.rct");

    let count = u32::MAX;
    let payload = [0u8; 4];
    let mut shard = CORPUS_MAGIC.to_vec();
    let block_offset = shard.len() as u64;
    shard.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    shard.extend_from_slice(&count.to_le_bytes());
    shard.extend_from_slice(&block_checksum(&payload).to_le_bytes());
    shard.extend_from_slice(&payload);
    let index_offset = shard.len() as u64;
    shard.extend_from_slice(&1u32.to_le_bytes());
    shard.extend_from_slice(&block_offset.to_le_bytes());
    shard.extend_from_slice(&0u64.to_le_bytes());
    shard.extend_from_slice(&count.to_le_bytes());
    shard.extend_from_slice(&index_offset.to_le_bytes());
    shard.extend_from_slice(&u64::from(count).to_le_bytes());
    shard.extend_from_slice(&CORPUS_FOOTER_MAGIC);
    assert_eq!(shard.len(), 76);
    std::fs::write(&path, &shard).expect("write shard");

    let mut reader = CorpusReader::open(&path).expect("the index is self-consistent");
    assert_eq!(reader.records(), u64::from(count));
    assert!(drain(&mut reader).is_empty(), "no record survives");
    let warnings = reader.warnings();
    assert_eq!(warnings.len(), 1, "the block is quarantined: {warnings:?}");
    assert_eq!(warnings[0].block, 0);
    assert_eq!(warnings[0].records_lost, u64::from(count));
    std::fs::remove_dir_all(&dir).ok();
}
