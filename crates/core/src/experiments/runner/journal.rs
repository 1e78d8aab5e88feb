//! The durable cell journal: an append-only JSONL file (`journal.jsonl`
//! next to `cells.json`) recording every cell-state transition of a
//! sweep, so a killed `repro` process resumes exactly where it left off
//! and N processes can drain one grid cooperatively.
//!
//! ## Record format
//!
//! One JSON object per line, wrapping the payload with an FNV-1a
//! checksum of its compact rendering:
//!
//! ```text
//! {"sum":<fnv1a(rec.compact())>,"rec":{"op":"claim","fp":…,"owner":…,…}}
//! ```
//!
//! Ops: `open` (one per journal session), `claim` (+`reclaim` flag when
//! taking over a stale lease), `done` (carries the full cell body — the
//! journal, not `cells.json`, is the incremental durable store), `failed`,
//! `released` (graceful shutdown gave the claim back), and `renew`
//! (lease heartbeat).
//!
//! ## Durability and recovery
//!
//! Every append is a single `write_all` of one whole line on an
//! `O_APPEND` handle followed by `sync_data`, so concurrent writers
//! interleave at line granularity and a crash can tear at most the final
//! line. [`Journal::open`] scans the file, truncates a torn tail, and
//! skips (but counts) any mid-file line that is not UTF-8, does not
//! parse, or fails its checksum — one rotten record never discards its
//! neighbours.

use crate::error::CacheIoError;
use crate::experiments::common::Cell;
use rampage_json::{obj, Json, ToJson};
use rampage_trace::corpus::fnv1a;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Milliseconds since the Unix epoch — lease freshness timestamps.
#[expect(
    clippy::disallowed_methods,
    reason = "lease timestamps live in the journal's persistence layer, never in a simulated path"
)]
pub(crate) fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One decoded journal record.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Which transition this records.
    pub op: JournalOp,
    /// The recording process's owner id.
    pub owner: String,
    /// Lease number at the time of the record (monotonic per owner).
    pub lease: u64,
    /// Wall-clock milliseconds since the epoch when appended.
    pub t_ms: u64,
}

/// The operations a journal line can record.
#[derive(Debug, Clone)]
pub enum JournalOp {
    /// A process opened the journal (one per session).
    Open,
    /// A cell was claimed for computation.
    Claim {
        /// [`Job::fingerprint`](crate::experiments::Job::fingerprint).
        fp: u64,
        /// 1-based claim attempt for this fingerprint.
        attempt: u32,
        /// Whether this claim took over a stale lease.
        reclaim: bool,
        /// The batch label the claim was made under.
        label: String,
    },
    /// A cell finished; the full body rides along so resume can seed the
    /// cache without `cells.json`.
    Done {
        /// The finished cell's fingerprint.
        fp: u64,
        /// The computed cell.
        cell: Cell,
    },
    /// A cell failed deterministically (recorded, claim resolved).
    Failed {
        /// The failed cell's fingerprint.
        fp: u64,
        /// Rendered error.
        error: String,
    },
    /// A graceful shutdown gave an unfinished claim back.
    Released {
        /// The released cell's fingerprint.
        fp: u64,
    },
    /// Lease heartbeat (no cell).
    Renew,
}

impl JournalRecord {
    fn to_payload(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("op".into(), self.op_name().to_json())];
        match &self.op {
            JournalOp::Open | JournalOp::Renew => {}
            JournalOp::Claim {
                fp,
                attempt,
                reclaim,
                label,
            } => {
                pairs.push(("fp".into(), fp.to_json()));
                pairs.push(("attempt".into(), attempt.to_json()));
                pairs.push(("reclaim".into(), reclaim.to_json()));
                pairs.push(("label".into(), label.as_str().to_json()));
            }
            JournalOp::Done { fp, cell } => {
                pairs.push(("fp".into(), fp.to_json()));
                pairs.push(("cell".into(), cell.to_json()));
            }
            JournalOp::Failed { fp, error } => {
                pairs.push(("fp".into(), fp.to_json()));
                pairs.push(("error".into(), error.as_str().to_json()));
            }
            JournalOp::Released { fp } => {
                pairs.push(("fp".into(), fp.to_json()));
            }
        }
        pairs.push(("owner".into(), self.owner.as_str().to_json()));
        pairs.push(("lease".into(), self.lease.to_json()));
        pairs.push(("t_ms".into(), self.t_ms.to_json()));
        Json::Obj(pairs)
    }

    fn op_name(&self) -> &'static str {
        match &self.op {
            JournalOp::Open => "open",
            JournalOp::Claim { .. } => "claim",
            JournalOp::Done { .. } => "done",
            JournalOp::Failed { .. } => "failed",
            JournalOp::Released { .. } => "released",
            JournalOp::Renew => "renew",
        }
    }

    fn from_payload(doc: &Json) -> Option<JournalRecord> {
        let op_name = doc.get("op")?.as_str()?;
        let fp = || doc.get("fp").and_then(Json::as_u64);
        let op = match op_name {
            "open" => JournalOp::Open,
            "renew" => JournalOp::Renew,
            "claim" => JournalOp::Claim {
                fp: fp()?,
                attempt: doc.get("attempt")?.as_u64()? as u32,
                reclaim: doc.get("reclaim")?.as_bool()?,
                label: doc.get("label")?.as_str()?.to_string(),
            },
            "done" => JournalOp::Done {
                fp: fp()?,
                cell: Cell::from_json(doc.get("cell")?)?,
            },
            "failed" => JournalOp::Failed {
                fp: fp()?,
                error: doc.get("error")?.as_str()?.to_string(),
            },
            "released" => JournalOp::Released { fp: fp()? },
            _ => return None,
        };
        Some(JournalRecord {
            op,
            owner: doc.get("owner")?.as_str()?.to_string(),
            lease: doc.get("lease")?.as_u64()?,
            t_ms: doc.get("t_ms")?.as_u64()?,
        })
    }
}

/// Decode one journal line (checksum envelope + payload). A line that
/// is not UTF-8 — a crash can cut a multi-byte character in half — is
/// rejected like one that fails its checksum.
fn decode_line(line: &[u8]) -> Option<JournalRecord> {
    let doc = Json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let sum = doc.get("sum")?.as_u64()?;
    let rec = doc.get("rec")?;
    if fnv1a(rec.compact().as_bytes()) != sum {
        return None;
    }
    JournalRecord::from_payload(rec)
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Default, Clone)]
pub struct JournalOpenReport {
    /// Valid records recovered.
    pub records: usize,
    /// Finished cells recoverable from `done` records.
    pub done_cells: usize,
    /// Mid-file lines dropped as not UTF-8, unparseable, or failing
    /// their checksum.
    pub corrupt_lines: usize,
    /// Bytes of torn tail truncated away.
    pub truncated_bytes: u64,
}

/// An open journal: an `O_APPEND` writer plus the path for rescans.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
}

impl Journal {
    /// Open (creating if absent) the journal at `path`, recovering a
    /// torn tail: if the file does not end in a valid, checksummed,
    /// newline-terminated record, the trailing fragment is truncated
    /// away before the append handle is opened.
    ///
    /// # Errors
    ///
    /// [`CacheIoError::Io`] on any underlying file I/O failure.
    pub fn open(path: &Path) -> Result<(Journal, JournalOpenReport), CacheIoError> {
        let mut report = JournalOpenReport::default();
        let existing = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CacheIoError::Io(e)),
        };
        // Walk the complete (newline-terminated) lines. A trailing
        // fragment with no newline is a torn append (appends write one
        // whole line at a time, so a crash can only leave a prefix) and
        // is truncated below; a complete line that does not decode is
        // disk rot — skipped and counted, but its neighbours kept.
        let mut keep: u64 = 0;
        let mut offset: usize = 0;
        for line in existing.split_inclusive(|&b| b == b'\n') {
            let end = offset + line.len();
            if let Some(line) = line.strip_suffix(b"\n") {
                match decode_line(line) {
                    Some(rec) => {
                        if matches!(rec.op, JournalOp::Done { .. }) {
                            report.done_cells += 1;
                        }
                        report.records += 1;
                    }
                    None => report.corrupt_lines += 1,
                }
                keep = end as u64;
            }
            offset = end;
        }
        report.truncated_bytes = (existing.len() as u64).saturating_sub(keep);
        if report.truncated_bytes > 0 {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(keep)?;
            f.sync_data()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
            },
            report,
        ))
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The checksummed append helper — the single legitimate write path
    /// to `journal.jsonl` (the `journal-append` lint enforces this).
    /// One whole line per `write_all` on an `O_APPEND` handle, then
    /// `sync_data`, so appends are atomic at line granularity and
    /// durable before the caller proceeds.
    ///
    /// # Errors
    ///
    /// [`CacheIoError::Io`] when the write or sync fails.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), CacheIoError> {
        let payload = rec.to_payload();
        let sum = fnv1a(payload.compact().as_bytes());
        let line = obj! { "sum" => sum, "rec" => payload }.compact() + "\n";
        #[cfg(feature = "fault")]
        if crate::experiments::fault::take_die_mid_journal_append() {
            // Simulate a crash mid-append: half the line lands on disk
            // and the process dies. Resume must truncate this tail.
            let cut = (line.len() / 2).max(1);
            let _ = self.file.write_all(&line.as_bytes()[..cut]);
            let _ = self.file.sync_data();
            std::process::exit(crate::experiments::fault::INJECTED_CRASH_EXIT);
        }
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Re-read every currently valid record from disk (other processes
    /// may have appended since open). Torn or rotten lines are skipped,
    /// never truncated — a concurrent writer may be mid-append.
    ///
    /// # Errors
    ///
    /// [`CacheIoError::Io`] when the journal cannot be read at all.
    pub fn scan(&self) -> Result<Vec<JournalRecord>, CacheIoError> {
        scan_path(&self.path)
    }
}

/// Read every valid record at `path` (standalone: tests and telemetry
/// inspect journals without opening an append handle).
///
/// # Errors
///
/// [`CacheIoError::Io`] when the file cannot be read (a missing file is
/// an empty journal, not an error).
pub fn scan_path(path: &Path) -> Result<Vec<JournalRecord>, CacheIoError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CacheIoError::Io(e)),
    };
    Ok(bytes
        .split(|&b| b == b'\n')
        .filter_map(decode_line)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rampage-journal-{}-{name}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn rec(op: JournalOp) -> JournalRecord {
        JournalRecord {
            op,
            owner: "t".into(),
            lease: 1,
            t_ms: 42,
        }
    }

    #[test]
    fn records_roundtrip_through_the_file() {
        let path = scratch("roundtrip").join("journal.jsonl");
        let cell = Cell::failed_placeholder(&crate::config::SystemConfig::baseline(
            crate::time::IssueRate::GHZ1,
            128,
        ));
        {
            let (mut j, report) = Journal::open(&path).expect("open");
            assert_eq!(report.records, 0);
            j.append(&rec(JournalOp::Open)).expect("append");
            j.append(&rec(JournalOp::Claim {
                fp: 7,
                attempt: 1,
                reclaim: false,
                label: "table3".into(),
            }))
            .expect("append");
            j.append(&rec(JournalOp::Done { fp: 7, cell }))
                .expect("append");
        }
        let (j, report) = Journal::open(&path).expect("reopen");
        assert_eq!(report.records, 3);
        assert_eq!(report.done_cells, 1);
        assert_eq!(report.corrupt_lines, 0);
        assert_eq!(report.truncated_bytes, 0);
        let recs = j.scan().expect("scan");
        assert_eq!(recs.len(), 3);
        match &recs[2].op {
            JournalOp::Done { fp, cell: c } => {
                assert_eq!(*fp, 7);
                assert_eq!(*c, cell);
            }
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        // Tears: half a record with no newline, cut at an ASCII byte and
        // inside the 3-byte "—" of a `failed` record's error text.
        let tails: [&[u8]; 2] = [
            b"{\"sum\":123,\"rec\":{\"op\":\"cl",
            b"{\"sum\":123,\"rec\":{\"op\":\"failed\",\"error\":\"bad quantum \xe2\x80",
        ];
        for (i, tail) in tails.into_iter().enumerate() {
            let path = scratch(&format!("torn{i}")).join("journal.jsonl");
            {
                let (mut j, _) = Journal::open(&path).expect("open");
                j.append(&rec(JournalOp::Open)).expect("append");
                j.append(&rec(JournalOp::Renew)).expect("append");
            }
            let clean_len = std::fs::metadata(&path).expect("meta").len();
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(tail).expect("tear");
            drop(f);
            let (_, report) = Journal::open(&path).expect("recover");
            assert_eq!(report.records, 2, "tail {i}");
            assert_eq!(report.truncated_bytes, tail.len() as u64, "tail {i}");
            assert_eq!(std::fs::metadata(&path).expect("meta").len(), clean_len);
        }
    }

    #[test]
    fn mid_file_rot_is_skipped_not_truncated() {
        let path = scratch("rot").join("journal.jsonl");
        {
            let (mut j, _) = Journal::open(&path).expect("open");
            j.append(&rec(JournalOp::Open)).expect("append");
        }
        // Rotten full lines — a bad checksum, a byte that is not UTF-8,
        // and nesting deep enough to overflow a recursive parser — then
        // a valid record after them.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"{\"sum\":1,\"rec\":{\"op\":\"renew\"}}\n")
            .expect("rot");
        f.write_all(b"{\"sum\":1,\"rec\":{\"op\":\"renew\",\"owner\":\"\xf4t\"}}\n")
            .expect("rot");
        f.write_all(&[b"[".repeat(50_000), b"\n".to_vec()].concat())
            .expect("rot");
        drop(f);
        {
            let (mut j, report) = Journal::open(&path).expect("reopen");
            assert_eq!(report.corrupt_lines, 3);
            j.append(&rec(JournalOp::Renew)).expect("append");
        }
        let (j, report) = Journal::open(&path).expect("final open");
        assert_eq!(report.records, 2, "records before and after the rot");
        assert_eq!(report.corrupt_lines, 3);
        assert_eq!(j.scan().expect("scan").len(), 2);
    }
}
