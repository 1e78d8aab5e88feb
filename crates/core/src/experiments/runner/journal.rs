//! The durable cell journal: an append-only JSONL file (`journal.jsonl`
//! next to `cells.json`) of every cell a sweep finished, so a killed
//! `repro` process resumes exactly where it left off.
//!
//! ## Record format
//!
//! One JSON object per line, wrapping the payload with an FNV-1a
//! checksum of its compact rendering:
//!
//! ```text
//! {"sum":<fnv1a(rec.compact())>,"rec":{"op":"done","fp":…,"label":…,"cell":{…},"owner":…}}
//! ```
//!
//! Ops: `open` (one per journal session), `done` (the batch label and
//! the full cell body — the journal, not `cells.json`, is the durable
//! store) and `failed` (the batch label and the rendered error). Every
//! record names the owner that wrote it. A `done` or `failed` line
//! without a label, as older builds wrote them, decodes with an empty
//! one; an op this build does not write (older builds' `claim`, `renew`,
//! `released` and `stalled`) counts as a corrupt line.
//!
//! ## Durability and recovery
//!
//! Every append is a single `write_all` of one whole line on an
//! `O_APPEND` handle followed by `sync_data`, so concurrent writers
//! interleave at line granularity and a crash can tear at most the final
//! line. [`Journal::open`] decodes the file once, truncates a torn tail,
//! and skips (but counts) any mid-file line that is not UTF-8, does not
//! parse, or fails its checksum — one rotten record never discards its
//! neighbours.

use crate::error::CacheIoError;
use crate::experiments::common::Cell;
use rampage_json::{obj, Json};
use rampage_trace::corpus::fnv1a;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;

/// One decoded journal record.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// What this records.
    pub op: JournalOp,
    /// The recording process's owner id.
    pub owner: String,
}

/// The operations a journal line can record.
#[derive(Debug, Clone)]
pub enum JournalOp {
    /// A process opened the journal (one per session).
    Open,
    /// A cell finished; the full body rides along so resume can seed the
    /// cache without `cells.json`.
    Done {
        /// [`Job::fingerprint`](crate::experiments::Job::fingerprint).
        fp: u64,
        /// The batch label (the submitting artifact's name).
        label: String,
        /// The computed cell.
        cell: Cell,
    },
    /// A cell failed deterministically; a later run computes it again.
    Failed {
        /// The failed cell's fingerprint.
        fp: u64,
        /// The batch label (the submitting artifact's name).
        label: String,
        /// Rendered error.
        error: String,
    },
}

impl JournalRecord {
    fn to_payload(&self) -> Json {
        let owner = self.owner.as_str();
        match &self.op {
            JournalOp::Open => obj! { "op" => "open", "owner" => owner },
            JournalOp::Done { fp, label, cell } => obj! {
                "op" => "done",
                "fp" => fp,
                "label" => label,
                "cell" => cell,
                "owner" => owner,
            },
            JournalOp::Failed { fp, label, error } => obj! {
                "op" => "failed",
                "fp" => fp,
                "label" => label,
                "error" => error,
                "owner" => owner,
            },
        }
    }

    fn from_payload(doc: &Json) -> Option<JournalRecord> {
        let fp = || doc.get("fp").and_then(Json::as_u64);
        // Older builds wrote no label; one that is there must be a string.
        let label = || match doc.get("label") {
            Some(l) => l.as_str().map(str::to_string),
            None => Some(String::new()),
        };
        let op = match doc.get("op")?.as_str()? {
            "open" => JournalOp::Open,
            "done" => JournalOp::Done {
                fp: fp()?,
                label: label()?,
                cell: Cell::from_json(doc.get("cell")?)?,
            },
            "failed" => JournalOp::Failed {
                fp: fp()?,
                label: label()?,
                error: doc.get("error")?.as_str()?.to_string(),
            },
            _ => return None,
        };
        Some(JournalRecord {
            op,
            owner: doc.get("owner")?.as_str()?.to_string(),
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
    /// Every valid record, in file order.
    pub records: Vec<JournalRecord>,
    /// Mid-file lines dropped as not UTF-8, unparseable, failing their
    /// checksum, or naming an op this build does not write.
    pub corrupt_lines: usize,
    /// Bytes of torn tail truncated away.
    pub truncated_bytes: u64,
}

/// An open journal: an `O_APPEND` writer.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Open (creating if absent) the journal at `path`, decoding every
    /// record already in it and recovering a torn tail: if the file does
    /// not end in a newline-terminated line, the trailing fragment is
    /// truncated away before the append handle is opened.
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
                    Some(rec) => report.records.push(rec),
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
        Ok((Journal { file }, report))
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
}

/// Read every valid record at `path` without opening an append handle
/// or truncating anything (tests inspect journals this way).
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
    use std::path::PathBuf;
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
        }
    }

    fn placeholder() -> Cell {
        Cell::failed_placeholder(&crate::config::SystemConfig::baseline(
            crate::time::IssueRate::GHZ1,
            128,
        ))
    }

    #[test]
    fn records_roundtrip_through_the_file() {
        let path = scratch("roundtrip").join("journal.jsonl");
        let cell = placeholder();
        {
            let (mut j, report) = Journal::open(&path).expect("open");
            assert!(report.records.is_empty());
            j.append(&rec(JournalOp::Open)).expect("append");
            j.append(&rec(JournalOp::Failed {
                fp: 6,
                label: "table3".into(),
                error: "bad quantum".into(),
            }))
            .expect("append");
            j.append(&rec(JournalOp::Done {
                fp: 7,
                label: "table3".into(),
                cell,
            }))
            .expect("append");
        }
        let (_, report) = Journal::open(&path).expect("reopen");
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.corrupt_lines, 0);
        assert_eq!(report.truncated_bytes, 0);
        match &report.records[2].op {
            JournalOp::Done { fp, label, cell: c } => {
                assert_eq!((*fp, label.as_str(), *c), (7, "table3", cell));
            }
            other => panic!("expected done, got {other:?}"),
        }
        assert_eq!(scan_path(&path).expect("scan").len(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        // Tears: half a record with no newline, cut at an ASCII byte and
        // inside the 3-byte "—" of a `failed` record's error text.
        let tails: [&[u8]; 2] = [
            b"{\"sum\":123,\"rec\":{\"op\":\"do",
            b"{\"sum\":123,\"rec\":{\"op\":\"failed\",\"error\":\"bad quantum \xe2\x80",
        ];
        for (i, tail) in tails.into_iter().enumerate() {
            let path = scratch(&format!("torn{i}")).join("journal.jsonl");
            {
                let (mut j, _) = Journal::open(&path).expect("open");
                j.append(&rec(JournalOp::Open)).expect("append");
                j.append(&rec(JournalOp::Open)).expect("append");
            }
            let clean_len = std::fs::metadata(&path).expect("meta").len();
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(tail).expect("tear");
            drop(f);
            let (_, report) = Journal::open(&path).expect("recover");
            assert_eq!(report.records.len(), 2, "tail {i}");
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
        f.write_all(b"{\"sum\":1,\"rec\":{\"op\":\"open\"}}\n")
            .expect("rot");
        f.write_all(b"{\"sum\":1,\"rec\":{\"op\":\"open\",\"owner\":\"\xf4t\"}}\n")
            .expect("rot");
        f.write_all(&[b"[".repeat(50_000), b"\n".to_vec()].concat())
            .expect("rot");
        drop(f);
        {
            let (mut j, report) = Journal::open(&path).expect("reopen");
            assert_eq!(report.corrupt_lines, 3);
            j.append(&rec(JournalOp::Open)).expect("append");
        }
        let (_, report) = Journal::open(&path).expect("final open");
        assert_eq!(report.records.len(), 2, "records before and after the rot");
        assert_eq!(report.corrupt_lines, 3);
        assert_eq!(scan_path(&path).expect("scan").len(), 2);
    }

    /// Lines as the lease-protocol builds wrote them, each with a valid
    /// checksum: every record carried `lease` and `t_ms`, `done` had no
    /// `label`, and `claim`, `renew` and `released` were ops.
    #[test]
    fn older_lease_protocol_journals_resume_their_done_cells() {
        use crate::experiments::{LeaseConfig, SweepRunner};
        let cell = placeholder();
        let fp = 0x00c0_ffee_u64;
        let bare =
            |op: &str| obj! { "op" => op, "owner" => "pid7", "lease" => 1u64, "t_ms" => 42u64 };
        let lines = [
            bare("open"),
            obj! {
                "op" => "claim", "fp" => fp, "attempt" => 1u64, "reclaim" => false,
                "label" => "table3", "owner" => "pid7", "lease" => 1u64, "t_ms" => 43u64,
            },
            obj! {
                "op" => "done", "fp" => fp, "cell" => cell,
                "owner" => "pid7", "lease" => 1u64, "t_ms" => 44u64,
            },
            bare("renew"),
            obj! {
                "op" => "released", "fp" => fp + 1,
                "owner" => "pid7", "lease" => 2u64, "t_ms" => 45u64,
            },
        ];
        let text: String = lines
            .iter()
            .map(|rec| {
                let sum = fnv1a(rec.compact().as_bytes());
                obj! { "sum" => sum, "rec" => rec }.compact() + "\n"
            })
            .collect();
        let path = scratch("lease-format").join("journal.jsonl");
        std::fs::write(&path, text).expect("write an older-format journal");

        let (_, report) = Journal::open(&path).expect("open");
        assert_eq!(report.corrupt_lines, 3, "claim, renew and released");
        assert_eq!(report.truncated_bytes, 0);
        let [open, done] = report.records.as_slice() else {
            panic!("expected open and done, got {:?}", report.records);
        };
        assert!(matches!(open.op, JournalOp::Open) && open.owner == "pid7");
        match &done.op {
            JournalOp::Done {
                fp: f,
                label,
                cell: c,
            } => {
                assert_eq!((*f, label.as_str(), *c), (fp, "", cell));
            }
            other => panic!("expected done, got {other:?}"),
        }

        let runner = SweepRunner::serial()
            .with_journal(&path, LeaseConfig::new("t".into()))
            .expect("attach");
        assert_eq!(runner.resumed_cells(), 1);
        assert_eq!(
            runner.cache().get(fp),
            Some(cell),
            "the done cell is seeded"
        );
    }
}
