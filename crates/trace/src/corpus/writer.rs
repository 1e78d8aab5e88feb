//! Writing shards: the streaming [`CorpusWriter`] and the suite
//! recorder that captures synthetic profiles into a corpus directory.

use super::block::{BlockEncoder, Fnv1a};
use super::manifest::{Manifest, ProfileExpect, ShardMeta, ShardStats};
use super::{
    check_shard_file, CorpusError, CORPUS_FOOTER_MAGIC, CORPUS_MAGIC, DEFAULT_BLOCK_BYTES,
};
use crate::profiles::Profile;
use crate::record::{AccessKind, TraceRecord};
use crate::stream::TraceSource;
use std::collections::HashSet;
use std::io::{BufWriter, Write};
use std::path::Path;

/// What [`CorpusWriter::finish`] reports about the shard it wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// Records written.
    pub records: u64,
    /// Blocks written.
    pub blocks: u64,
    /// Total file bytes (header, blocks, index, and footer).
    pub bytes: u64,
    /// FNV-1a checksum over every byte of the file.
    pub checksum: u64,
    /// Reference mix and page footprint of the recorded stream.
    pub stats: ShardStats,
}

/// Streams trace records into the corpus shard format.
///
/// Records are delta+varint encoded into ~64 KiB blocks (each with a
/// count and checksum); `finish` writes the block index and footer that
/// readers frame the blocks by. The writer needs only `Write` — offsets are
/// tracked by byte accounting, so it can target pipes and in-memory
/// buffers as well as files.
#[derive(Debug)]
pub struct CorpusWriter<W> {
    out: W,
    enc: BlockEncoder,
    block_bytes: usize,
    /// (file offset, first record number, record count) per block.
    blocks: Vec<(u64, u64, u32)>,
    bytes: u64,
    hash: Fnv1a,
    records: u64,
    ifetches: u64,
    reads: u64,
    writes: u64,
    pages: HashSet<u64>,
}

impl<W: Write> CorpusWriter<W> {
    /// Wrap a writer and emit the shard magic, closing blocks at the
    /// default ~64 KiB payload target.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the header.
    pub fn new(out: W) -> Result<Self, CorpusError> {
        Self::with_block_bytes(out, DEFAULT_BLOCK_BYTES)
    }

    /// As [`new`](Self::new) with an explicit block payload target
    /// (small targets force many blocks — useful for exercising
    /// block-boundary behaviour in tests).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the header.
    pub fn with_block_bytes(out: W, block_bytes: usize) -> Result<Self, CorpusError> {
        let mut w = CorpusWriter {
            out,
            enc: BlockEncoder::new(),
            block_bytes: block_bytes.max(16),
            blocks: Vec::new(),
            bytes: 0,
            hash: Fnv1a::new(),
            records: 0,
            ifetches: 0,
            reads: 0,
            writes: 0,
            pages: HashSet::new(),
        };
        w.emit(&CORPUS_MAGIC)?;
        Ok(w)
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<(), CorpusError> {
        self.out.write_all(bytes)?;
        self.hash.update(bytes);
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Append one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying writer.
    pub fn write(&mut self, rec: TraceRecord) -> Result<(), CorpusError> {
        self.enc.push(rec);
        self.records += 1;
        match rec.kind {
            AccessKind::InstrFetch => self.ifetches += 1,
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.pages.insert(rec.addr.page_number(4096));
        if self.enc.payload_len() >= self.block_bytes {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.records
    }

    fn flush_block(&mut self) -> Result<(), CorpusError> {
        if self.enc.is_empty() {
            return Ok(());
        }
        let count = self.enc.count();
        let (payload, _) = self.enc.take();
        let first_record = self.records - u64::from(count);
        self.blocks.push((self.bytes, first_record, count));
        let sum = super::block::block_checksum(&payload);
        self.emit(&(payload.len() as u32).to_le_bytes())?;
        self.emit(&count.to_le_bytes())?;
        self.emit(&sum.to_le_bytes())?;
        self.emit(&payload)?;
        Ok(())
    }

    /// Flush the final block, write the index and footer, and return the
    /// underlying writer plus the shard summary.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying writer.
    pub fn finish(mut self) -> Result<(W, ShardSummary), CorpusError> {
        self.flush_block()?;
        let index_offset = self.bytes;
        self.emit(&(self.blocks.len() as u32).to_le_bytes())?;
        // Move the block list out so `emit` (which borrows self) can run
        // inside the loop.
        let blocks = std::mem::take(&mut self.blocks);
        for &(offset, first, count) in &blocks {
            self.emit(&offset.to_le_bytes())?;
            self.emit(&first.to_le_bytes())?;
            self.emit(&count.to_le_bytes())?;
        }
        self.emit(&index_offset.to_le_bytes())?;
        self.emit(&self.records.to_le_bytes())?;
        self.emit(&CORPUS_FOOTER_MAGIC)?;
        self.out.flush()?;
        let summary = ShardSummary {
            records: self.records,
            blocks: blocks.len() as u64,
            bytes: self.bytes,
            checksum: self.hash.0,
            stats: ShardStats {
                ifetches: self.ifetches,
                reads: self.reads,
                writes: self.writes,
                unique_pages: self.pages.len() as u64,
            },
        };
        Ok((self.out, summary))
    }
}

/// Record one source as a shard file in `dir` and return its manifest
/// entry (the caller assembles entries into a [`Manifest`]).
///
/// `seed`/`scale` stamp the shard with its synthetic identity (so
/// `--trace-dir` replay can match it to a workload); `profile` carries
/// the generating Table 2 expectations for the fidelity check.
///
/// # Errors
///
/// [`CorpusError::Manifest`], before anything is created, when
/// `{name}.rct` is not a plain file name in `dir`; any file I/O failure
/// creating or writing the shard.
pub fn record_source<S: TraceSource>(
    dir: &Path,
    name: &str,
    source: &mut S,
    block_bytes: usize,
    seed: Option<u64>,
    scale: Option<u64>,
    profile: Option<ProfileExpect>,
) -> Result<ShardMeta, CorpusError> {
    let file = format!("{name}.rct");
    check_shard_file(&format!("shard {name:?}"), &file)?;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(&file);
    let out = BufWriter::new(std::fs::File::create(&path)?);
    let mut w = CorpusWriter::with_block_bytes(out, block_bytes)?;
    while let Some(rec) = source.next_record() {
        w.write(rec)?;
    }
    let (out, summary) = w.finish()?;
    out.into_inner().map_err(|e| CorpusError::Io(e.into()))?;
    Ok(ShardMeta {
        name: name.to_string(),
        file,
        records: summary.records,
        blocks: summary.blocks,
        bytes: summary.bytes,
        checksum: summary.checksum,
        seed,
        scale,
        stats: summary.stats,
        profile,
    })
}

/// Record a suite of Table 2 profiles into `dir` at `1/scale` volume and
/// write the corpus manifest. Returns the manifest.
///
/// # Errors
///
/// Any file I/O failure writing shards or the manifest.
pub fn record_profiles(
    dir: &Path,
    profiles: &[Profile],
    scale: u64,
    seed: u64,
    block_bytes: usize,
) -> Result<Manifest, CorpusError> {
    let mut shards = Vec::with_capacity(profiles.len());
    for p in profiles {
        let mut source = p.source(scale, seed);
        let expect = ProfileExpect {
            name: p.name.to_string(),
            ifetch_frac: p.ifetch_frac(),
            write_frac: p.write_frac,
        };
        shards.push(record_source(
            dir,
            p.name,
            &mut source,
            block_bytes,
            Some(seed),
            Some(scale),
            Some(expect),
        )?);
    }
    let manifest = Manifest { shards };
    manifest.save(dir)?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::TABLE2;

    #[test]
    fn writer_emits_expected_layout() {
        let mut w = CorpusWriter::with_block_bytes(Vec::new(), 16).unwrap();
        for i in 0..100u64 {
            w.write(TraceRecord::fetch(0x40_0000 + i * 4)).unwrap();
        }
        assert_eq!(w.written(), 100);
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.records, 100);
        assert!(summary.blocks > 1, "tiny target forces multiple blocks");
        assert_eq!(summary.bytes, bytes.len() as u64);
        assert_eq!(&bytes[..8], &CORPUS_MAGIC);
        assert_eq!(&bytes[bytes.len() - 8..], &CORPUS_FOOTER_MAGIC);
        assert_eq!(summary.stats.ifetches, 100);
        assert_eq!(summary.stats.total(), 100);
        assert_eq!(summary.checksum, super::super::block::fnv1a(&bytes));
    }

    #[test]
    fn empty_shard_is_valid() {
        let w = CorpusWriter::new(Vec::new()).unwrap();
        let (bytes, summary) = w.finish().unwrap();
        assert_eq!(summary.records, 0);
        assert_eq!(summary.blocks, 0);
        // magic + count + footer.
        assert_eq!(bytes.len(), 8 + 4 + 24);
    }

    #[test]
    fn compression_beats_raw_bin_3x_on_a_profile() {
        // The acceptance bar: the corpus encoding is at least 3x smaller
        // than a raw 9-byte-per-record encoding on a default profile.
        let p = &TABLE2[0];
        let mut src = p.source(5000, 0x7a9e);
        let mut w = CorpusWriter::new(Vec::new()).unwrap();
        let mut n = 0u64;
        while let Some(rec) = src.next_record() {
            w.write(rec).unwrap();
            n += 1;
        }
        let (bytes, _) = w.finish().unwrap();
        let bin_bytes = 8 + 9 * n;
        assert!(
            bytes.len() as u64 * 3 <= bin_bytes,
            "{} corpus bytes vs {bin_bytes} bin bytes for {n} records ({:.2} B/rec)",
            bytes.len(),
            bytes.len() as f64 / n as f64
        );
    }

    #[test]
    fn record_source_refuses_a_name_that_leaves_the_directory() {
        let root =
            std::env::temp_dir().join(format!("rampage-corpus-escape-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let dir = root.join("corpus");
        let mut src = TABLE2[0].source(100_000, 7);
        let err = record_source(
            &dir,
            "../x",
            &mut src,
            DEFAULT_BLOCK_BYTES,
            None,
            None,
            None,
        )
        .expect_err("a name with a path separator must be refused");
        assert!(matches!(err, CorpusError::Manifest(_)), "{err}");
        assert!(
            !root.exists(),
            "nothing is created, inside or outside the corpus"
        );
    }

    #[test]
    fn record_profiles_writes_manifest_and_shards() {
        let dir =
            std::env::temp_dir().join(format!("rampage-corpus-writer-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let m = record_profiles(&dir, &TABLE2[..2], 100_000, 7, DEFAULT_BLOCK_BYTES).unwrap();
        assert_eq!(m.shards.len(), 2);
        for s in &m.shards {
            assert!(dir.join(&s.file).exists());
            assert_eq!(s.seed, Some(7));
            assert_eq!(s.scale, Some(100_000));
            assert!(s.records > 0);
            let p = s.profile.as_ref().expect("profile recorded");
            assert!(p.drift(&s.stats) < 0.05, "drift {}", p.drift(&s.stats));
        }
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }
}
