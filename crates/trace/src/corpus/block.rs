//! The block codec: per-kind delta encoding with zigzag + LEB128
//! varints, one self-contained block at a time.
//!
//! Every record becomes a single varint holding
//! `(zigzag(addr - prev[kind]) << 2) | kind`, where `prev[kind]` is the
//! address of the previous record of the same access kind within the
//! block (0 at block start, so the first record of each kind encodes its
//! absolute address). Instruction fetches march sequentially through
//! code while data references hop between heap, stack, and globals;
//! keeping three independent bases means both streams see small deltas —
//! a fetch after a store still encodes as one or two bytes.
//!
//! The shifted value can occupy 66 bits for a pathological 64-bit delta,
//! so varints are coded through `u128` (at most ten bytes); typical
//! records take one to three.

use crate::record::{AccessKind, TraceRecord, VirtAddr};

/// 2-bit access-kind codes, matching the Dinero label convention.
fn kind_code(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::InstrFetch => 2,
    }
}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Append `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation).
fn write_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one varint at `*pos`, advancing it. `None` on truncation or a
/// value wider than 66 bits (nothing the encoder can produce).
///
/// The hot path is word-at-a-time: load the next eight bytes as one
/// little-endian `u64`, find the terminator (first byte with a clear
/// continuation bit) with `trailing_zeros`, and compact the 7-bit
/// payload groups with three masked shifts — no data-dependent loop,
/// so a mix of 1–4-byte deltas decodes without branch mispredicts.
/// Eight bytes cover 56 bits, which is every varint a realistic delta
/// produces; longer encodings and buffer tails under eight bytes take
/// the cold byte-loop path.
#[inline]
fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u128> {
    let p = *pos;
    let Some(window) = buf.get(p..p + 8) else {
        return read_varint_slow(buf, pos);
    };
    let word = u64::from_le_bytes(window.try_into().unwrap_or_default());
    let stops = !word & 0x8080_8080_8080_8080;
    if stops == 0 {
        return read_varint_slow(buf, pos); // 9- or 10-byte encoding
    }
    let n = (stops.trailing_zeros() >> 3) + 1; // bytes consumed, 1..=8
    *pos = p + n as usize;
    // Drop the bytes past the terminator, then squeeze each byte's low
    // seven bits together: pairs, then quads, then halves.
    let v = word & (u64::MAX >> (64 - 8 * n));
    let v = v & 0x7f7f_7f7f_7f7f_7f7f;
    let v = (v & 0x007f_007f_007f_007f) | ((v & 0x7f00_7f00_7f00_7f00) >> 1);
    let v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x3fff_0000_3fff_0000) >> 2);
    let v = (v & 0x0000_0000_0fff_ffff) | ((v & 0x0fff_ffff_0000_0000) >> 4);
    Some(u128::from(v))
}

/// The cold tail of [`read_varint`]: byte-at-a-time parse for buffer
/// tails shorter than a full 8-byte window and for 9-byte encodings,
/// deferring 10-byte ones to [`read_varint_wide`].
#[cold]
fn read_varint_slow(buf: &[u8], pos: &mut usize) -> Option<u128> {
    let start = *pos;
    let mut v: u64 = 0;
    let mut shift = 0u32;
    while shift <= 56 {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(u128::from(v));
        }
        shift += 7;
    }
    read_varint_wide(buf, pos, start)
}

/// The rare wide tail of [`read_varint`]: re-parse from `start` in
/// `u128`, enforcing the 66-bit ceiling.
#[cold]
fn read_varint_wide(buf: &[u8], pos: &mut usize, start: usize) -> Option<u128> {
    *pos = start;
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 70 {
            return None; // would exceed the encoder's 66-bit ceiling
        }
        v |= u128::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return if v >> 66 == 0 { Some(v) } else { None };
        }
        shift += 7;
    }
}

/// 64-bit FNV-1a over a whole byte slice: the workspace's one byte-wise
/// hash. It fingerprints sweep jobs, checksums persisted cells and
/// journal lines, and is the reference the tests check the streaming
/// `Fnv1a` whole-file checksum against.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-block payload checksum: FNV-1a folded over little-endian
/// 64-bit words (with a length-prefixed zero-padded tail) instead of
/// bytes. One multiply per eight bytes keeps the serially-dependent
/// hash chain off the replay hot path — block checksums are verified on
/// every block of every replay, unlike the file checksum, which only
/// the verifier computes.
pub(crate) fn block_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h ^= word;
        h = h.wrapping_mul(PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Streaming FNV-1a for whole-file checksums.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(pub u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Accumulates records into one block's payload.
#[derive(Debug)]
pub(crate) struct BlockEncoder {
    payload: Vec<u8>,
    count: u32,
    /// Previous address per kind code (read, write, ifetch).
    prev: [u64; 3],
}

impl BlockEncoder {
    pub(crate) fn new() -> Self {
        BlockEncoder {
            payload: Vec::with_capacity(4096),
            count: 0,
            prev: [0; 3],
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub(crate) fn payload_len(&self) -> usize {
        self.payload.len()
    }

    pub(crate) fn count(&self) -> u32 {
        self.count
    }

    /// Encode one record into the block.
    pub(crate) fn push(&mut self, rec: TraceRecord) {
        let k = kind_code(rec.kind);
        let delta = rec.addr.0.wrapping_sub(self.prev[k as usize]) as i64;
        self.prev[k as usize] = rec.addr.0;
        let v = (u128::from(zigzag(delta)) << 2) | u128::from(k);
        write_varint(&mut self.payload, v);
        self.count += 1;
    }

    /// Take the finished payload and record count, resetting the encoder
    /// for the next block.
    pub(crate) fn take(&mut self) -> (Vec<u8>, u32) {
        let payload = std::mem::take(&mut self.payload);
        let count = self.count;
        self.count = 0;
        self.prev = [0; 3];
        (payload, count)
    }
}

/// Why a block payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BlockDecodeError {
    /// A varint was truncated or out of the encodable range.
    BadVarint { at_record: u32 },
    /// A record carried the reserved kind code 3.
    BadKind { at_record: u32 },
    /// Payload held a different number of records than the header said.
    CountMismatch { decoded: u32, expected: u32 },
}

impl std::fmt::Display for BlockDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockDecodeError::BadVarint { at_record } => {
                write!(f, "bad varint at record {at_record}")
            }
            BlockDecodeError::BadKind { at_record } => {
                write!(f, "reserved kind code at record {at_record}")
            }
            BlockDecodeError::CountMismatch { decoded, expected } => {
                write!(f, "decoded {decoded} records, header says {expected}")
            }
        }
    }
}

/// Decode a whole block payload, verifying the record count.
#[cfg(test)]
pub(crate) fn decode_block(
    payload: &[u8],
    expected: u32,
) -> Result<Vec<TraceRecord>, BlockDecodeError> {
    let mut out = Vec::with_capacity(expected as usize);
    decode_block_into(payload, expected, &mut out)?;
    Ok(out)
}

/// Append the record packed in `v` (`(zigzag(delta) << 2) | kind`) to
/// `out`, updating the per-kind delta bases.
#[inline]
fn push_decoded(
    v: u128,
    prev: &mut [u64; 3],
    out: &mut Vec<TraceRecord>,
) -> Result<(), BlockDecodeError> {
    const KINDS: [AccessKind; 3] = [AccessKind::Read, AccessKind::Write, AccessKind::InstrFetch];
    let k = (v & 0x3) as usize;
    if k == 3 {
        return Err(BlockDecodeError::BadKind {
            at_record: out.len() as u32,
        });
    }
    let delta = unzigzag((v >> 2) as u64);
    let addr = prev[k].wrapping_add(delta as u64);
    prev[k] = addr;
    out.push(TraceRecord {
        addr: VirtAddr(addr),
        kind: KINDS[k],
    });
    Ok(())
}

/// [`decode_block`] into a caller-owned buffer (cleared first), so a
/// replay loop reuses one allocation across every block instead of
/// paging in a fresh multi-hundred-KiB `Vec` per block. On error the
/// buffer holds a partial decode the caller must discard.
///
/// The hot loop loads eight payload bytes at a time and decodes *every*
/// varint that terminates inside the window — with typical one-to-three
/// byte deltas that is several records per load, so the serial
/// `position → load → find-terminator → position` dependency chain that
/// bounds a byte-at-a-time decoder is amortised across them.
pub(crate) fn decode_block_into(
    payload: &[u8],
    expected: u32,
    out: &mut Vec<TraceRecord>,
) -> Result<(), BlockDecodeError> {
    const STOPS: u64 = 0x8080_8080_8080_8080;
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    out.clear();
    out.reserve(expected as usize);
    let mut prev = [0u64; 3];
    let mut pos = 0usize;
    while pos + 8 <= payload.len() {
        let word = u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap_or_default());
        let mut stops = !word & STOPS;
        if stops == 0 {
            // A nine- or ten-byte varint: generic path for one record.
            let at_record = out.len() as u32;
            let Some(v) = read_varint(payload, &mut pos) else {
                return Err(BlockDecodeError::BadVarint { at_record });
            };
            push_decoded(v, &mut prev, out)?;
            continue;
        }
        let mut start = 0u32; // bit offset of the current varint
        while stops != 0 {
            let end = stops.trailing_zeros() + 1; // bit past its stop byte
            stops &= stops - 1;
            let chunk = (word >> start) & (u64::MAX >> (64 - (end - start)));
            start = end;
            // Squeeze each byte's low seven bits together: pairs, then
            // quads, then halves.
            let v = chunk & LOW7;
            let v = (v & 0x007f_007f_007f_007f) | ((v & 0x7f00_7f00_7f00_7f00) >> 1);
            let v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x3fff_0000_3fff_0000) >> 2);
            let v = (v & 0x0000_0000_0fff_ffff) | ((v & 0x0fff_ffff_0000_0000) >> 4);
            push_decoded(u128::from(v), &mut prev, out)?;
        }
        // A varint still open at the window's end re-parses from its
        // first byte in the next iteration's (overlapping) load.
        pos += (start >> 3) as usize;
    }
    // Tail: fewer than eight bytes left, decode byte-at-a-time.
    while pos < payload.len() {
        let at_record = out.len() as u32;
        let Some(v) = read_varint(payload, &mut pos) else {
            return Err(BlockDecodeError::BadVarint { at_record });
        };
        push_decoded(v, &mut prev, out)?;
    }
    if out.len() as u32 != expected {
        return Err(BlockDecodeError::CountMismatch {
            decoded: out.len() as u32,
            expected,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn roundtrip(records: &[TraceRecord]) {
        let mut enc = BlockEncoder::new();
        for &r in records {
            enc.push(r);
        }
        let (payload, count) = enc.take();
        assert_eq!(count as usize, records.len());
        let back = decode_block(&payload, count).expect("decodes");
        assert_eq!(back, records);
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for d in [0i64, 1, -1, 4, -4, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        let mut buf = Vec::new();
        let values = [0u128, 1, 0x7f, 0x80, 0x3fff, 0x4000, (1 << 66) - 1];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_oversized_and_truncated() {
        // 11 continuation bytes never terminate within the allowed width.
        let over = [0x80u8; 12];
        assert_eq!(read_varint(&over, &mut 0), None);
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 20);
        buf.pop();
        assert_eq!(read_varint(&buf, &mut 0), None, "truncated tail");
    }

    #[test]
    fn sequential_fetches_cost_one_byte() {
        let mut enc = BlockEncoder::new();
        enc.push(TraceRecord::fetch(0x40_0000));
        for i in 1..100u64 {
            enc.push(TraceRecord::fetch(0x40_0000 + i * 4));
        }
        let (payload, _) = enc.take();
        // First record pays for the absolute address; the rest are +4
        // deltas (zigzag 8, shifted 34) = one byte each.
        assert!(
            payload.len() < 4 + 99 * 2,
            "payload {} bytes",
            payload.len()
        );
    }

    #[test]
    fn per_kind_bases_keep_interleaved_streams_small() {
        // Alternate code fetches and far-away stack writes: with a single
        // base every record would pay a 5-byte cross-region delta; with
        // per-kind bases both streams are sequential.
        let mut enc = BlockEncoder::new();
        for i in 0..50u64 {
            enc.push(TraceRecord::fetch(0x40_0000 + i * 4));
            enc.push(TraceRecord::write(0x7fff_0000 - i * 8));
        }
        let (payload, count) = enc.take();
        assert_eq!(count, 100);
        assert!(
            payload.len() < 2 * 100,
            "interleaved payload {} bytes",
            payload.len()
        );
    }

    #[test]
    fn block_roundtrips_adversarial_streams() {
        roundtrip(&[]);
        roundtrip(&[TraceRecord::read(0)]);
        roundtrip(&[
            TraceRecord::read(u64::MAX),
            TraceRecord::write(0),
            TraceRecord::fetch(u64::MAX / 2),
            TraceRecord::read(1),
        ]);
    }

    #[test]
    fn block_roundtrips_random_streams() {
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let records: Vec<TraceRecord> = (0..1000)
                .map(|_| {
                    let addr: u64 = rng.gen();
                    match rng.gen_range(0u32..3) {
                        0 => TraceRecord::read(addr),
                        1 => TraceRecord::write(addr),
                        _ => TraceRecord::fetch(addr),
                    }
                })
                .collect();
            roundtrip(&records);
        }
    }

    #[test]
    fn decode_rejects_corrupt_payloads() {
        let mut enc = BlockEncoder::new();
        for i in 0..10u64 {
            enc.push(TraceRecord::read(0x1000 + i * 64));
        }
        let (payload, count) = enc.take();
        // Wrong expected count.
        assert!(matches!(
            decode_block(&payload, count + 1),
            Err(BlockDecodeError::CountMismatch { .. })
        ));
        // Truncated mid-varint (the first record's address spans bytes).
        let cut = &payload[..1];
        assert!(decode_block(cut, 1).is_err());
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::record::TraceRecord;

    /// Not an assertion — a diagnostic probe for decode throughput. Run:
    /// `cargo test -p rampage-trace --release probe_decode -- --nocapture --ignored`
    #[test]
    #[ignore]
    fn probe_decode_throughput() {
        let n = 1_000_000u64;
        let mut enc = BlockEncoder::new();
        let mut payloads = Vec::new();
        for i in 0..n {
            enc.push(match i % 4 {
                0 | 1 => TraceRecord::fetch(0x40_0000 + (i % 65536) * 4),
                2 => TraceRecord::read(0x1000_0000 + (i % 9999) * 8),
                _ => TraceRecord::write(0x7fff_0000 - (i % 777) * 16),
            });
            if enc.payload_len() >= 64 * 1024 {
                payloads.push(enc.take());
            }
        }
        if !enc.is_empty() {
            payloads.push(enc.take());
        }
        let t = std::time::Instant::now();
        let mut total = 0u64;
        for (p, c) in &payloads {
            total += decode_block(p, *c).unwrap().len() as u64;
        }
        let d = t.elapsed();
        println!(
            "decode: {} recs in {:?} ({:.2} ns/rec)",
            total,
            d,
            d.as_nanos() as f64 / total as f64
        );
        let t = std::time::Instant::now();
        let mut h = 0u64;
        for (p, _) in &payloads {
            h ^= block_checksum(p);
        }
        let d = t.elapsed();
        println!(
            "checksum: {:#x} in {:?} ({:.2} ns/rec)",
            h,
            d,
            d.as_nanos() as f64 / total as f64
        );
    }

    /// Phase breakdown of a full replay: raw decode vs the reader's
    /// end-to-end path over the same shard. Run:
    /// `cargo test -p rampage-trace --release probe_replay -- --nocapture --ignored`
    #[test]
    #[ignore]
    fn probe_replay_phases() {
        use crate::corpus::CorpusReader;
        use crate::stream::TraceSource;
        let dir = std::env::temp_dir().join(format!("rampage-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.rct");
        {
            let f = std::fs::File::create(&path).unwrap();
            let mut w = crate::corpus::CorpusWriter::new(f).unwrap();
            let mut src = crate::profiles::TABLE2[0].source(200, 0xbe7c4);
            while let Some(r) = src.next_record() {
                w.write(r).unwrap();
            }
            w.finish().unwrap();
        }
        for _ in 0..3 {
            // Phase A: read the file, checksum + decode every block, drop.
            let t = std::time::Instant::now();
            let bytes = std::fs::read(&path).unwrap();
            let mut pos = 8usize;
            let index_off = u64::from_le_bytes(
                bytes[bytes.len() - 24..bytes.len() - 16]
                    .try_into()
                    .unwrap(),
            ) as usize;
            let mut total = 0u64;
            let mut out = Vec::new();
            while pos < index_off {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                let count = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
                let payload = &bytes[pos + 16..pos + 16 + len];
                assert_ne!(block_checksum(payload), 0);
                decode_block_into(payload, count, &mut out).unwrap();
                total += out.len() as u64;
                pos += 16 + len;
            }
            let a = t.elapsed();
            // Phase B: the reader end-to-end.
            let t = std::time::Instant::now();
            let mut r = CorpusReader::open(&path).unwrap();
            let mut n = 0u64;
            while let Some(rec) = r.next_record() {
                std::hint::black_box(rec);
                n += 1;
            }
            let b = t.elapsed();
            assert_eq!(n, total);
            println!(
                "raw decode: {:?} ({:.2} ns/rec)   reader: {:?} ({:.2} ns/rec)",
                a,
                a.as_nanos() as f64 / total as f64,
                b,
                b.as_nanos() as f64 / n as f64
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
