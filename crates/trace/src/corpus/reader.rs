//! Replaying shards: the prefetching [`CorpusReader`].

use super::block::{block_checksum, decode_block_into};
use super::{CorpusError, CORPUS_FOOTER_MAGIC, CORPUS_MAGIC};
use crate::record::TraceRecord;
use crate::stream::TraceSource;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One block entry of a shard's end-of-file index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockEntry {
    /// File offset of the block header.
    offset: u64,
    /// Records in the block.
    count: u32,
}

/// A shard's decoded index: where each block starts and how many
/// records it holds, so a reader can frame every block (and step over a
/// corrupt one) without trusting the blocks themselves.
#[derive(Debug)]
pub(crate) struct ShardIndex {
    blocks: Vec<BlockEntry>,
    total: u64,
    /// Where block data ends (the index begins here); blocks must stay
    /// inside it.
    data_end: u64,
}

fn bad_index(path: &Path, reason: impl Into<String>) -> CorpusError {
    CorpusError::BadIndex {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Check an open shard's magic and decode its footer and block index
/// (`path` names the shard in errors).
fn load_index(f: &mut File, path: &Path) -> Result<ShardIndex, CorpusError> {
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)
        .map_err(|_| CorpusError::BadMagic(path.to_path_buf()))?;
    if magic != CORPUS_MAGIC {
        return Err(CorpusError::BadMagic(path.to_path_buf()));
    }
    let file_len = f.seek(SeekFrom::End(0))?;
    if file_len < 8 + 4 + 24 {
        return Err(bad_index(path, "file too short for an index footer"));
    }
    f.seek(SeekFrom::Start(file_len - 24))?;
    let mut footer = [0u8; 24];
    f.read_exact(&mut footer)?;
    if footer[16..24] != CORPUS_FOOTER_MAGIC {
        return Err(bad_index(path, "missing footer magic (truncated shard?)"));
    }
    let index_offset = u64::from_le_bytes(footer[0..8].try_into().unwrap_or_default());
    let total = u64::from_le_bytes(footer[8..16].try_into().unwrap_or_default());
    if index_offset < 8 || index_offset > file_len - 24 - 4 {
        return Err(bad_index(
            path,
            format!("index offset {index_offset} out of range"),
        ));
    }
    f.seek(SeekFrom::Start(index_offset))?;
    let mut count_buf = [0u8; 4];
    f.read_exact(&mut count_buf)?;
    let nblocks = u32::from_le_bytes(count_buf) as u64;
    if index_offset + 4 + nblocks * 20 != file_len - 24 {
        return Err(bad_index(path, "index size disagrees with file length"));
    }
    let mut entries = Vec::with_capacity(nblocks as usize);
    let mut entry_buf = [0u8; 20];
    let mut expect_first = 0u64;
    for i in 0..nblocks {
        f.read_exact(&mut entry_buf)?;
        let offset = u64::from_le_bytes(entry_buf[0..8].try_into().unwrap_or_default());
        let first = u64::from_le_bytes(entry_buf[8..16].try_into().unwrap_or_default());
        let count = u32::from_le_bytes(entry_buf[16..20].try_into().unwrap_or_default());
        if offset < 8 || offset + 16 > index_offset {
            return Err(bad_index(
                path,
                format!("block {i} offset {offset} out of range"),
            ));
        }
        if first != expect_first || count == 0 {
            return Err(bad_index(
                path,
                format!("block {i} record numbering inconsistent"),
            ));
        }
        expect_first = first + u64::from(count);
        entries.push(BlockEntry { offset, count });
    }
    if expect_first != total {
        return Err(bad_index(
            path,
            "block counts do not sum to the footer total",
        ));
    }
    Ok(ShardIndex {
        blocks: entries,
        total,
        data_end: index_offset,
    })
}

/// A warning recorded when a corrupt block was quarantined and skipped
/// during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusWarning {
    /// The shard being replayed.
    pub shard: String,
    /// 0-based block number of the bad block.
    pub block: u64,
    /// Records the skip dropped from the stream.
    pub records_lost: u64,
    /// What was wrong (checksum mismatch, bad header, decode failure).
    pub reason: String,
}

impl std::fmt::Display for CorpusWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} block {}: {} ({} record(s) skipped)",
            self.shard, self.block, self.reason, self.records_lost
        )
    }
}

fn push_warning(warnings: &Mutex<Vec<CorpusWarning>>, w: CorpusWarning) {
    warnings
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .push(w);
}

/// Read and decode one block into caller-owned scratch buffers, seeking
/// to its index offset first (so a corrupt neighbour cannot derail
/// framing). Both buffers are cleared and refilled; on error `out`
/// holds garbage the caller must discard.
fn read_block_into(
    f: &mut File,
    entry: &BlockEntry,
    data_end: u64,
    payload: &mut Vec<u8>,
    out: &mut Vec<TraceRecord>,
) -> Result<(), String> {
    f.seek(SeekFrom::Start(entry.offset))
        .map_err(|e| format!("seek failed: {e}"))?;
    let mut hdr = [0u8; 16];
    f.read_exact(&mut hdr)
        .map_err(|e| format!("header read failed: {e}"))?;
    let len = u64::from(u32::from_le_bytes(hdr[0..4].try_into().unwrap_or_default()));
    let count = u32::from_le_bytes(hdr[4..8].try_into().unwrap_or_default());
    let sum = u64::from_le_bytes(hdr[8..16].try_into().unwrap_or_default());
    if count != entry.count {
        return Err(format!(
            "header count {count} disagrees with index count {}",
            entry.count
        ));
    }
    if entry.offset + 16 + len > data_end {
        return Err(format!("payload length {len} runs past the block area"));
    }
    payload.clear();
    payload.resize(len as usize, 0);
    f.read_exact(payload)
        .map_err(|e| format!("payload read failed: {e}"))?;
    if block_checksum(payload) != sum {
        return Err("payload checksum mismatch".to_string());
    }
    decode_block_into(payload, count, out).map_err(|e| e.to_string())
}

/// The background decode loop: read every block in order and hand the
/// decoded buffers to the consumer over a bounded channel (capacity 2 —
/// one buffer being consumed, one ready, one being decoded: double
/// buffering). `f` is the handle the index was read from.
fn prefetch(
    mut f: File,
    index: Arc<ShardIndex>,
    shard: String,
    warnings: Arc<Mutex<Vec<CorpusWarning>>>,
    tx: SyncSender<Vec<TraceRecord>>,
) {
    let mut payload = Vec::new();
    for (i, entry) in index.blocks.iter().enumerate() {
        let mut records = Vec::new();
        if let Err(reason) =
            read_block_into(&mut f, entry, index.data_end, &mut payload, &mut records)
        {
            push_warning(
                &warnings,
                CorpusWarning {
                    shard: shard.clone(),
                    block: i as u64,
                    records_lost: u64::from(entry.count),
                    reason,
                },
            );
            continue;
        }
        if tx.send(records).is_err() {
            return; // consumer dropped — stop reading
        }
    }
}

/// The background prefetch thread and the channel its decoded blocks
/// arrive on.
#[derive(Debug)]
struct Feed {
    rx: Receiver<Vec<TraceRecord>>,
    handle: JoinHandle<()>,
}

/// Replays a corpus shard as a [`TraceSource`].
///
/// A background prefetch thread reads and decodes blocks ahead of the
/// consumer over a bounded channel (double buffering: one block being
/// consumed, one ready, one in decode). Replay always starts at the
/// first record.
///
/// A block that fails its checksum or decode is **skipped**: its records
/// vanish from the stream, and a [`CorpusWarning`] is recorded
/// ([`warnings`](Self::warnings), and one line each in
/// [`problems`](TraceSource::problems)) instead of ending the replay.
/// The rest of the shard still replays, and a caller that needs the
/// whole trace, such as a sweep cell, fails on the problems.
#[derive(Debug)]
pub struct CorpusReader {
    name: String,
    index: Arc<ShardIndex>,
    warnings: Arc<Mutex<Vec<CorpusWarning>>>,
    /// `None` once the shard is exhausted.
    feed: Option<Feed>,
    buf: Vec<TraceRecord>,
    pos: usize,
}

impl CorpusReader {
    /// Open a shard for replay from its first record.
    ///
    /// # Errors
    ///
    /// [`CorpusError::BadMagic`] / [`CorpusError::BadIndex`] when the
    /// file is not a readable shard; [`CorpusError::Io`] on any I/O
    /// failure, a host that refuses the prefetch thread included.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let index = Arc::new(load_index(&mut file, path)?);
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "corpus".to_string());
        let warnings = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = sync_channel(2);
        let handle = {
            let (index, warnings, shard) =
                (Arc::clone(&index), Arc::clone(&warnings), name.clone());
            std::thread::Builder::new().spawn(move || prefetch(file, index, shard, warnings, tx))?
        };
        Ok(CorpusReader {
            name,
            index,
            warnings,
            feed: Some(Feed { rx, handle }),
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Rename the source (reports show this instead of the file stem).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Total records in the shard (per its index).
    pub fn records(&self) -> u64 {
        self.index.total
    }

    /// Blocks in the shard.
    pub fn blocks(&self) -> u64 {
        self.index.blocks.len() as u64
    }

    /// Warnings recorded so far (corrupt blocks quarantined and
    /// skipped during this replay).
    pub fn warnings(&self) -> Vec<CorpusWarning> {
        self.warnings
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    fn stop(&mut self) {
        // Dropping the receiver makes the producer's next send fail, so
        // the thread exits promptly; join to avoid leaking it.
        if let Some(Feed { rx, handle }) = self.feed.take() {
            drop(rx);
            let _ = handle.join();
        }
    }
}

impl TraceSource for CorpusReader {
    fn next_record(&mut self) -> Option<TraceRecord> {
        loop {
            if let Some(&rec) = self.buf.get(self.pos) {
                self.pos += 1;
                return Some(rec);
            }
            match self.feed.as_ref()?.rx.recv() {
                Ok(block) => {
                    self.buf = block;
                    self.pos = 0;
                }
                Err(_) => {
                    self.stop();
                    return None;
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// One line per quarantined block ([`warnings`](Self::warnings)).
    fn problems(&self) -> Vec<String> {
        self.warnings().iter().map(ToString::to_string).collect()
    }
}

impl Drop for CorpusReader {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::super::writer::CorpusWriter;
    use super::*;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn sample_records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| match i % 3 {
                0 => TraceRecord::fetch(0x40_0000 + i * 4),
                1 => TraceRecord::read(0x1000_0000 + i * 8),
                _ => TraceRecord::write(0x7fff_0000 - i * 16),
            })
            .collect()
    }

    fn write_shard(dir: &Path, name: &str, records: &[TraceRecord], block_bytes: usize) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("{name}.rct"));
        let file = std::fs::File::create(&path).unwrap();
        let mut w = CorpusWriter::with_block_bytes(file, block_bytes).unwrap();
        for &r in records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        path
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rampage-reader-{tag}-{}", std::process::id()))
    }

    fn drain<S: TraceSource>(s: &mut S) -> Vec<TraceRecord> {
        std::iter::from_fn(|| s.next_record()).collect()
    }

    #[test]
    fn replay_is_bit_identical() {
        let dir = tmp("replay");
        let records = sample_records(5000);
        let path = write_shard(&dir, "t", &records, 256);
        let mut r = CorpusReader::open(&path).unwrap();
        assert_eq!(r.records(), 5000);
        assert!(r.blocks() > 10, "small blocks force many");
        assert_eq!(drain(&mut r), records);
        assert!(r.warnings().is_empty());
        assert_eq!(r.next_record(), None, "stays exhausted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_block_is_skipped_with_warning() {
        let dir = tmp("corrupt");
        let records = sample_records(900);
        let path = write_shard(&dir, "t", &records, 128);
        // Find block 1's payload via a clean reader's index, then flip a
        // byte of it on disk.
        let clean = CorpusReader::open(&path).unwrap();
        let lost_block = 1usize;
        let blocks = &clean.index.blocks;
        let (offset, count) = (blocks[lost_block].offset, blocks[lost_block].count);
        let first: u64 = blocks[..lost_block]
            .iter()
            .map(|b| u64::from(b.count))
            .sum();
        drop(clean);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset as usize + 16] ^= 0x55; // first payload byte
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();

        let mut r = CorpusReader::open(&path).unwrap();
        let got = drain(&mut r);
        let mut expect = records.clone();
        expect.drain(first as usize..first as usize + count as usize);
        assert_eq!(got, expect, "original minus the bad block");
        let warnings = r.warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].block, lost_block as u64);
        assert_eq!(warnings[0].records_lost, u64::from(count));
        assert!(
            warnings[0].reason.contains("checksum"),
            "{}",
            warnings[0].reason
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_is_a_typed_error() {
        let dir = tmp("trunc");
        let records = sample_records(100);
        let path = write_shard(&dir, "t", &records, 128);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            CorpusReader::open(&path),
            Err(CorpusError::BadIndex { .. })
        ));
        std::fs::write(&path, b"NOTACORP").unwrap();
        assert!(matches!(
            CorpusReader::open(&path),
            Err(CorpusError::BadMagic(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_shard_replays_empty() {
        let dir = tmp("empty");
        let path = write_shard(&dir, "t", &[], 128);
        let mut r = CorpusReader::open(&path).unwrap();
        assert_eq!(r.records(), 0);
        assert_eq!(r.next_record(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_names_default_to_stem_and_rename() {
        let dir = tmp("name");
        let path = write_shard(&dir, "gcc", &sample_records(10), 128);
        let r = CorpusReader::open(&path).unwrap();
        assert_eq!(r.name(), "gcc");
        let r = r.with_name("renamed");
        assert_eq!(r.name(), "renamed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
