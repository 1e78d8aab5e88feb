//! Reader and writer tests for the `cells.json` snapshot. The journal is
//! the store a run resumes from; the snapshot is only written. Reading
//! one back (`CellCache::load_file`) must still report damage as a typed
//! error, never panic, and never touch the file: no `.corrupt` copy, no
//! rename, the damaged bytes left exactly where they were.

use rampage_core::error::CacheIoError;
use rampage_core::experiments::{
    CacheLoad, CellCache, Job, SweepRunner, Workload, CACHE_FORMAT_VERSION,
};
use rampage_core::{IssueRate, SystemConfig};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique scratch directory per test (no tempfile crate offline),
/// removed when the guard drops, pass or fail.
struct Scratch(PathBuf);

impl Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(name: &str) -> Scratch {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rampage-cache-recovery-{}-{name}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

/// Run a tiny sweep and persist its cache, returning the runner (for
/// reference cells) and the saved file's path.
fn saved_cache(dir: &Path) -> (SweepRunner, PathBuf, Vec<Job>) {
    let w = Workload::quick();
    let jobs = vec![
        Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w),
        Job::new(SystemConfig::rampage(IssueRate::GHZ1, 512), w),
        Job::new(SystemConfig::two_way(IssueRate::GHZ1, 1024), w),
    ];
    let runner = SweepRunner::serial();
    runner.run_batch(&jobs);
    let path = dir.join("cells.json");
    runner.cache().save_file(&path).expect("save");
    (runner, path, jobs)
}

/// Every file name in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Read `path` into a fresh cache and check the reader left the
/// directory exactly as it found it.
fn load_untouched(path: &Path) -> (CellCache, CacheLoad) {
    let dir = path.parent().expect("file in a directory");
    let before = (listing(dir), std::fs::read(path).ok());
    let cache = CellCache::new();
    let load = cache.load_file(path);
    assert_eq!(
        (listing(dir), std::fs::read(path).ok()),
        before,
        "reading the snapshot must not move, copy, or rewrite it"
    );
    assert!(!dir.join("cells.json.corrupt").exists());
    (cache, load)
}

#[test]
fn missing_file_is_a_clean_cold_start() {
    let dir = scratch("missing");
    let (cache, load) = load_untouched(&dir.join("cells.json"));
    assert!(load.is_clean());
    assert_eq!(load.loaded, 0);
    assert!(cache.is_empty());
    assert!(listing(&dir).is_empty(), "a missing file stays missing");
}

#[test]
fn save_is_atomic_and_reloads_cleanly() {
    let dir = scratch("atomic");
    let (runner, path, jobs) = saved_cache(&dir);
    // Overwriting an existing file also works.
    runner.cache().save_file(&path).expect("overwrite");
    assert_eq!(
        listing(&dir),
        ["cells.json"],
        "no temp file survives a successful save"
    );
    let (fresh, load) = load_untouched(&path);
    assert!(load.is_clean(), "{}", load.describe());
    assert_eq!(load.loaded, jobs.len());
    for job in &jobs {
        assert_eq!(
            fresh.get(job.fingerprint()),
            runner.cache().get(job.fingerprint())
        );
    }
}

#[test]
fn truncated_file_is_a_typed_error_left_in_place() {
    // Half a document on the final path: what a crash mid-write would
    // leave behind with a non-atomic writer (a torn save).
    let dir = scratch("truncated");
    let (runner, path, jobs) = saved_cache(&dir);
    let text = std::fs::read_to_string(&path).expect("read back");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

    let (cache, load) = load_untouched(&path);
    assert!(!load.is_clean());
    assert!(
        matches!(load.error, Some(CacheIoError::Parse(_))),
        "torn JSON is a whole-file parse error: {}",
        load.describe()
    );
    assert_eq!(load.loaded, 0);
    assert!(cache.is_empty());

    // The next (atomic) save replaces it with a clean snapshot.
    runner.cache().save_file(&path).expect("rewrite");
    let (_, reload) = load_untouched(&path);
    assert!(reload.is_clean(), "{}", reload.describe());
    assert_eq!(reload.loaded, jobs.len());
}

#[test]
fn empty_file_is_a_typed_error_left_in_place() {
    let dir = scratch("empty");
    let path = dir.join("cells.json");
    std::fs::write(&path, "").expect("write empty file");
    let (cache, load) = load_untouched(&path);
    assert!(matches!(load.error, Some(CacheIoError::Parse(_))));
    assert_eq!(load.loaded, 0);
    assert!(cache.is_empty());
}

#[test]
fn bit_flipped_entry_is_skipped_with_a_typed_error() {
    let dir = scratch("bitflip");
    let (_, path, jobs) = saved_cache(&dir);
    // Tamper with one entry's stored checksum: the entry no longer
    // matches its body, exactly as a flipped bit in the body would fail
    // to match the stored sum.
    let text = std::fs::read_to_string(&path).expect("read back");
    let i = text.find("\"sum\": ").expect("a sum field") + "\"sum\": ".len();
    let mut bytes = text.into_bytes();
    bytes[i] = if bytes[i] == b'1' { b'2' } else { b'1' };
    std::fs::write(&path, &bytes).expect("tamper");

    let (cache, load) = load_untouched(&path);
    assert_eq!(load.skipped(), 1, "{}", load.describe());
    assert!(
        matches!(
            load.entry_errors.as_slice(),
            [CacheIoError::BadChecksum { .. }]
        ),
        "the skip is recorded as a typed checksum error: {}",
        load.describe()
    );
    assert!(load.error.is_none(), "the envelope itself is fine");
    assert_eq!(load.loaded, jobs.len() - 1, "good neighbours survive");
    assert_eq!(cache.len(), jobs.len() - 1);
}

#[test]
fn version_bump_is_a_typed_error_left_in_place() {
    let dir = scratch("version");
    let (_, path, _) = saved_cache(&dir);
    let text = std::fs::read_to_string(&path).expect("read back");
    let old = format!("\"version\": {CACHE_FORMAT_VERSION}");
    assert!(text.contains(&old), "header present");
    std::fs::write(&path, text.replacen(&old, "\"version\": 1", 1)).expect("downgrade");

    let (cache, load) = load_untouched(&path);
    assert!(
        matches!(
            load.error,
            Some(CacheIoError::VersionMismatch {
                found: 1,
                expected: CACHE_FORMAT_VERSION
            })
        ),
        "{}",
        load.describe()
    );
    assert_eq!(load.loaded, 0, "stale fingerprints must not serve cells");
    assert!(load.describe().contains("version"), "{}", load.describe());
    assert!(cache.is_empty());
}

#[test]
fn wrong_json_shape_is_a_bad_header_error() {
    // Valid JSON, wrong shape: not this cache's format at all.
    let dir = scratch("shape");
    let path = dir.join("cells.json");
    std::fs::write(&path, "[1, 2, 3]\n").expect("write garbage");
    let (cache, load) = load_untouched(&path);
    assert!(matches!(load.error, Some(CacheIoError::BadHeader(_))));
    assert!(cache.is_empty());
}

#[test]
fn concurrent_saves_to_one_path_never_tear_or_fail() {
    let dir = scratch("concurrent");
    let (runner, path, jobs) = saved_cache(&dir);
    let big = runner.cache();
    let small = CellCache::new();
    let fp = jobs[0].fingerprint();
    small.insert(fp, big.get(fp).expect("cached cell"));
    let expected = [small.to_json().pretty(), big.to_json().pretty()];
    // Both threads start every round together, so their saves overlap.
    let round = std::sync::Barrier::new(2);

    std::thread::scope(|s| {
        for cache in [&small, big] {
            let (path, expected, round) = (&path, &expected, &round);
            s.spawn(move || {
                for _ in 0..25 {
                    round.wait();
                    cache
                        .save_file(path)
                        .expect("a concurrent save must not fail");
                    let fresh = CellCache::new();
                    let load = fresh.load_file(path);
                    assert!(load.is_clean(), "torn snapshot: {}", load.describe());
                    assert!(
                        expected.contains(&fresh.to_json().pretty()),
                        "the snapshot is neither cache"
                    );
                }
            });
        }
    });
    assert_eq!(listing(&dir), ["cells.json"], "no temp file left behind");
}
