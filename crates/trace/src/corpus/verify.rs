//! Corpus verification: a sharded parallel check that every shard's
//! bytes, blocks, stats, and profile fidelity still match its manifest.

use super::block::Fnv1a;
use super::manifest::{Manifest, ShardMeta, ShardStats};
use super::reader::CorpusReader;
use super::{fidelity_tolerance, CorpusError};
use crate::record::AccessKind;
use crate::stream::TraceSource;
use std::collections::HashSet;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The verdict for one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard name (from the manifest).
    pub name: String,
    /// Records actually decoded.
    pub records: u64,
    /// Blocks walked.
    pub blocks: u64,
    /// Problems found; empty means the shard is healthy.
    pub problems: Vec<String>,
    /// Profile drift (max abs difference of ifetch/write fractions from
    /// the recorded Table 2 expectations), when a profile was recorded.
    pub drift: Option<f64>,
}

impl ShardReport {
    /// Whether the shard passed every check.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The verdict for a whole corpus directory.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Per-shard verdicts, in manifest order.
    pub shards: Vec<ShardReport>,
}

impl VerifyReport {
    /// Whether every shard passed.
    pub fn ok(&self) -> bool {
        self.shards.iter().all(ShardReport::ok)
    }

    /// Shards that failed.
    pub fn failed(&self) -> usize {
        self.shards.iter().filter(|s| !s.ok()).count()
    }

    /// A human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.shards {
            let status = if s.ok() { "ok" } else { "FAIL" };
            let drift = s
                .drift
                .map(|d| format!(", drift {d:.4}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "{:12} {:>10} records {:>6} blocks{drift}  {status}\n",
                s.name, s.records, s.blocks
            ));
            for p in &s.problems {
                out.push_str(&format!("             - {p}\n"));
            }
        }
        out.push_str(&format!(
            "{} shard(s), {} failed\n",
            self.shards.len(),
            self.failed()
        ));
        out
    }
}

/// Bytes hashed per read when checksumming a shard file.
const HASH_CHUNK: usize = 64 * 1024;

/// Verify one shard against its manifest entry: file size and checksum,
/// block headers and payloads, recomputed stats, and (when recorded)
/// profile fidelity within [`fidelity_tolerance`] of the shard's record
/// count. The path is stat'ed first: one that is not a regular file, or
/// whose size differs from the manifest's, is reported and never read.
fn verify_shard(dir: &Path, meta: &ShardMeta) -> ShardReport {
    let mut report = ShardReport {
        name: meta.name.clone(),
        records: 0,
        blocks: 0,
        problems: Vec::new(),
        drift: None,
    };
    let path = dir.join(&meta.file);
    let problems = &mut report.problems;
    match std::fs::metadata(&path) {
        Err(e) => problems.push(format!("unreadable: {e}")),
        Ok(md) if !md.is_file() => problems.push("not a regular file".to_string()),
        Ok(md) if md.len() != meta.bytes => problems.push(format!(
            "file is {} bytes, manifest says {}",
            md.len(),
            meta.bytes
        )),
        Ok(_) => {
            match file_checksum(&path) {
                Err(e) => problems.push(format!("unreadable: {e}")),
                Ok(sum) if sum != meta.checksum => {
                    problems.push("file checksum disagrees with manifest".to_string());
                }
                Ok(_) => {}
            }
            if let Err(e) = walk_blocks(&path, meta, &mut report) {
                report.problems.push(format!("unreadable shard: {e}"));
            }
        }
    }
    report
}

/// FNV-1a over a whole file, read in [`HASH_CHUNK`]-byte pieces.
fn file_checksum(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; HASH_CHUNK];
    let mut hash = Fnv1a::new();
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(hash.0),
            Ok(n) => hash.update(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Decode every block of a shard into `report` and check its record and
/// block counts, recomputed reference-mix stats and (when recorded)
/// profile drift against `meta`.
fn walk_blocks(path: &Path, meta: &ShardMeta, report: &mut ShardReport) -> Result<(), CorpusError> {
    let mut reader = CorpusReader::open(path)?;
    let mut stats = ShardStats::default();
    let mut pages = HashSet::new();
    while let Some(rec) = reader.next_record() {
        match rec.kind {
            AccessKind::InstrFetch => stats.ifetches += 1,
            AccessKind::Read => stats.reads += 1,
            AccessKind::Write => stats.writes += 1,
        }
        pages.insert(rec.addr.page_number(4096));
    }
    stats.unique_pages = pages.len() as u64;
    let (records, blocks) = (stats.total(), reader.blocks());
    report.records = records;
    report.blocks = blocks;
    let problems = &mut report.problems;
    for w in reader.warnings() {
        problems.push(format!("block {}: {}", w.block, w.reason));
    }
    if records != meta.records {
        problems.push(format!(
            "decoded {records} records, manifest says {}",
            meta.records
        ));
    }
    if blocks != meta.blocks {
        problems.push(format!(
            "walked {blocks} blocks, manifest says {}",
            meta.blocks
        ));
    }
    if stats != meta.stats {
        problems.push(format!(
            "recomputed stats {stats:?} disagree with manifest {:?}",
            meta.stats
        ));
    }
    if let Some(p) = &meta.profile {
        let d = p.drift(&stats);
        let tol = fidelity_tolerance(meta.records);
        report.drift = Some(d);
        if d > tol {
            problems.push(format!("profile drift {d:.4} exceeds tolerance {tol:.4}"));
        }
    }
    Ok(())
}

/// Verify every shard the manifest lists, fanning shards out over `jobs`
/// worker threads (clamped to at least 1). Shards missing from disk are
/// reported as failures; extra `.rct` files not in the manifest are
/// flagged too.
///
/// # Errors
///
/// [`CorpusError::Manifest`] if the manifest itself cannot be loaded;
/// per-shard problems land in the report rather than erroring.
pub fn verify_dir(dir: &Path, jobs: usize) -> Result<VerifyReport, CorpusError> {
    let manifest = Manifest::load(dir)?;
    let jobs = jobs.max(1);
    let work: Vec<(usize, ShardMeta)> = manifest.shards.iter().cloned().enumerate().collect();
    let queue = Mutex::new(work.into_iter());
    let results: Mutex<Vec<(usize, ShardReport)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(manifest.shards.len().max(1)) {
            scope.spawn(|| loop {
                let next = {
                    let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());
                    q.next()
                };
                let Some((i, meta)) = next else { break };
                let report = verify_shard(dir, &meta);
                results
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((i, report));
            });
        }
    });
    let mut indexed = results.into_inner().unwrap_or_else(|p| p.into_inner());
    indexed.sort_by_key(|(i, _)| *i);
    let mut shards: Vec<ShardReport> = indexed.into_iter().map(|(_, r)| r).collect();

    // Flag stray shard files the manifest does not know about.
    if let Ok(entries) = std::fs::read_dir(dir) {
        let known: HashSet<PathBuf> = manifest.shards.iter().map(|s| dir.join(&s.file)).collect();
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "rct") && !known.contains(&p) {
                shards.push(ShardReport {
                    name: p
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "?".to_string()),
                    records: 0,
                    blocks: 0,
                    problems: vec!["shard file not listed in manifest".to_string()],
                    drift: None,
                });
            }
        }
    }
    Ok(VerifyReport { shards })
}

#[cfg(test)]
mod tests {
    use super::super::writer::record_profiles;
    use super::*;
    use crate::profiles::TABLE2;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rampage-verify-{tag}-{}", std::process::id()))
    }

    #[test]
    fn healthy_corpus_verifies_clean() {
        let dir = tmp("clean");
        std::fs::remove_dir_all(&dir).ok();
        record_profiles(&dir, &TABLE2[..3], 20_000, 0x7a9e, 2048).unwrap();
        let report = verify_dir(&dir, 4).unwrap();
        assert_eq!(report.shards.len(), 3);
        assert!(report.ok(), "{}", report.render());
        assert!(report.render().contains("0 failed"));
        for s in &report.shards {
            assert!(s.drift.is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_shard_fails_verification() {
        let dir = tmp("tamper");
        std::fs::remove_dir_all(&dir).ok();
        let m = record_profiles(&dir, &TABLE2[..2], 20_000, 1, 2048).unwrap();
        let victim = dir.join(&m.shards[0].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
        let report = verify_dir(&dir, 2).unwrap();
        assert!(!report.ok());
        assert_eq!(report.failed(), 1);
        assert!(!report.shards[0].ok());
        assert!(report.shards[1].ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_size_and_non_file_shards_are_reported_unread() {
        let dir = tmp("unread");
        std::fs::remove_dir_all(&dir).ok();
        let m = record_profiles(&dir, &TABLE2[..2], 20_000, 3, 2048).unwrap();
        // Shard 0 grows by one byte; shard 1 becomes a directory.
        let grown = dir.join(&m.shards[0].file);
        let mut bytes = std::fs::read(&grown).unwrap();
        bytes.push(0);
        std::fs::write(&grown, &bytes).unwrap();
        let gone = dir.join(&m.shards[1].file);
        std::fs::remove_file(&gone).unwrap();
        std::fs::create_dir(&gone).unwrap();
        let report = verify_dir(&dir, 2).unwrap();
        let size = m.shards[0].bytes;
        assert_eq!(
            report.shards[0].problems,
            [format!("file is {} bytes, manifest says {size}", size + 1)],
            "a wrong-size shard is not read"
        );
        assert_eq!(report.shards[1].problems, ["not a regular file"]);
        assert_eq!(report.shards.len(), 2, "{}", report.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_stray_shards_are_flagged() {
        let dir = tmp("stray");
        std::fs::remove_dir_all(&dir).ok();
        let m = record_profiles(&dir, &TABLE2[..2], 20_000, 2, 2048).unwrap();
        // Rename shard 0: now it is both missing and a stray.
        let old = dir.join(&m.shards[0].file);
        let stray = dir.join("stray.rct");
        std::fs::rename(&old, &stray).unwrap();
        let report = verify_dir(&dir, 2).unwrap();
        assert!(!report.ok());
        let names: Vec<&str> = report.shards.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"stray"));
        assert!(report.failed() >= 2, "{}", report.render());
        std::fs::remove_dir_all(&dir).ok();
    }
}
