//! Trace file I/O: Dinero `.din` text.
//!
//! The paper's traces came from the NMSU Tracebase archive in Dinero
//! format — one `<label> <hex-address>` pair per line, with label 0 =
//! read, 1 = write, 2 = instruction fetch. [`DinWriter`]/[`DinReader`]
//! speak that format, so synthetic traces generated here can be fed to
//! other classic cache simulators (and real `.din` traces, where still
//! obtainable, can drive this simulator).
//!
//! The compact binary trace format is the [corpus](crate::corpus).

use crate::record::{AccessKind, TraceRecord, VirtAddr};
use crate::stream::TraceSource;
use std::io::{self, BufRead, Write};

/// Errors from trace readers.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed record (message, 1-based line number).
    Malformed(String, u64),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Malformed(what, line) => {
                write!(f, "malformed trace record at line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Malformed(..) => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn kind_to_din(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::InstrFetch => 2,
    }
}

fn din_to_kind(label: u8) -> Option<AccessKind> {
    match label {
        0 => Some(AccessKind::Read),
        1 => Some(AccessKind::Write),
        2 => Some(AccessKind::InstrFetch),
        _ => None,
    }
}

/// Writes records in Dinero `.din` text format.
///
/// Takes the writer by value; pass `&mut w` to keep using it afterwards.
///
/// ```
/// use rampage_trace::io::DinWriter;
/// use rampage_trace::TraceRecord;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut out = Vec::new();
/// let mut w = DinWriter::new(&mut out);
/// w.write(TraceRecord::fetch(0x400000))?;
/// w.write(TraceRecord::read(0x1000))?;
/// w.finish()?;
/// assert_eq!(String::from_utf8(out)?, "2 400000\n0 1000\n");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DinWriter<W> {
    out: W,
    written: u64,
}

impl<W: Write> DinWriter<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        DinWriter { out, written: 0 }
    }

    /// Append one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying writer.
    pub fn write(&mut self, rec: TraceRecord) -> Result<(), TraceIoError> {
        writeln!(self.out, "{} {:x}", kind_to_din(rec.kind), rec.addr.0)?;
        self.written += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and return the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the final flush's I/O failure.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads Dinero `.din` text traces as a [`TraceSource`].
///
/// Blank lines are skipped; any other malformed line ends the stream at
/// the next [`DinReader::error`] check (a `TraceSource` cannot return
/// errors mid-stream, so the reader records it).
#[derive(Debug)]
pub struct DinReader<R> {
    lines: io::Lines<R>,
    line_no: u64,
    error: Option<TraceIoError>,
    name: String,
}

impl<R: BufRead> DinReader<R> {
    /// Wrap a buffered reader.
    pub fn new(input: R) -> Self {
        DinReader {
            lines: input.lines(),
            line_no: 0,
            error: None,
            name: "din".to_string(),
        }
    }

    /// The error that terminated the stream, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    fn parse(&mut self, line: &str) -> Result<Option<TraceRecord>, TraceIoError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let label = parts
            .next()
            .ok_or_else(|| TraceIoError::Malformed("missing label".into(), self.line_no))?;
        let addr = parts
            .next()
            .ok_or_else(|| TraceIoError::Malformed("missing address".into(), self.line_no))?;
        let label: u8 = label
            .parse()
            .map_err(|_| TraceIoError::Malformed(format!("bad label {label:?}"), self.line_no))?;
        let kind = din_to_kind(label).ok_or_else(|| {
            TraceIoError::Malformed(format!("unknown label {label}"), self.line_no)
        })?;
        let addr = u64::from_str_radix(addr, 16)
            .map_err(|_| TraceIoError::Malformed(format!("bad address {addr:?}"), self.line_no))?;
        Ok(Some(TraceRecord {
            addr: VirtAddr(addr),
            kind,
        }))
    }
}

impl<R: BufRead> TraceSource for DinReader<R> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.error.is_some() {
            return None;
        }
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => {
                    self.error = Some(TraceIoError::Io(e));
                    return None;
                }
            };
            self.line_no += 1;
            match self.parse(&line) {
                Ok(Some(rec)) => return Some(rec),
                Ok(None) => continue, // blank line
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Copy every record from `source` into `writer`.
///
/// Returns the number of records copied.
///
/// # Errors
///
/// Propagates the first write failure.
pub fn copy_din<S: TraceSource, W: Write>(
    source: &mut S,
    writer: &mut DinWriter<W>,
) -> Result<u64, TraceIoError> {
    let mut n = 0;
    while let Some(rec) = source.next_record() {
        writer.write(rec)?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::VecSource;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::fetch(0x0040_0000),
            TraceRecord::read(0x1000_0008),
            TraceRecord::write(0x7fff_e000),
            TraceRecord::read(0),
        ]
    }

    #[test]
    fn din_roundtrip() {
        let mut src = VecSource::new("s", sample());
        let mut w = DinWriter::new(Vec::new());
        let n = copy_din(&mut src, &mut w).unwrap();
        assert_eq!(n, 4);
        let bytes = w.finish().unwrap();
        let mut r = DinReader::new(io::BufReader::new(&bytes[..]));
        let got: Vec<_> = std::iter::from_fn(|| r.next_record()).collect();
        assert_eq!(got, sample());
        assert!(r.error().is_none());
    }

    #[test]
    fn din_format_is_classic() {
        let mut w = DinWriter::new(Vec::new());
        w.write(TraceRecord::write(0xdeadbeef)).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), "1 deadbeef\n");
    }

    #[test]
    fn din_reader_accepts_blank_lines_and_whitespace() {
        let text = "2 400000\n\n  0   1000  \n";
        let mut r = DinReader::new(io::BufReader::new(text.as_bytes()));
        assert_eq!(r.next_record(), Some(TraceRecord::fetch(0x400000)));
        assert_eq!(r.next_record(), Some(TraceRecord::read(0x1000)));
        assert_eq!(r.next_record(), None);
        assert!(r.error().is_none());
    }

    #[test]
    fn din_reader_reports_malformed_lines() {
        for bad in ["3 1000", "0 zzzz", "junk"] {
            let mut r = DinReader::new(io::BufReader::new(bad.as_bytes()));
            assert_eq!(r.next_record(), None);
            let err = r.error().expect("error recorded");
            assert!(matches!(err, TraceIoError::Malformed(_, 1)), "{err}");
        }
    }

    /// Deterministic "arbitrary" record streams for the property tests:
    /// full 64-bit addresses, all three kinds, seeded per case.
    fn arbitrary_stream(seed: u64, len: usize) -> Vec<TraceRecord> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let addr: u64 = rng.gen();
                match rng.gen_range(0u32..3) {
                    0 => TraceRecord::read(addr),
                    1 => TraceRecord::write(addr),
                    _ => TraceRecord::fetch(addr),
                }
            })
            .collect()
    }

    #[test]
    fn property_din_roundtrips_arbitrary_streams() {
        for (seed, len) in [(0, 0), (1, 1), (2, 7), (3, 256), (4, 1000)] {
            let records = arbitrary_stream(seed, len);
            let mut src = VecSource::new("s", records.clone());
            let mut w = DinWriter::new(Vec::new());
            assert_eq!(copy_din(&mut src, &mut w).unwrap(), len as u64);
            let bytes = w.finish().unwrap();
            let mut r = DinReader::new(io::BufReader::new(&bytes[..]));
            let got: Vec<_> = std::iter::from_fn(|| r.next_record()).collect();
            assert_eq!(got, records, "din seed {seed} len {len}");
            assert!(r.error().is_none());
        }
    }

    #[test]
    fn property_din_garbled_line_is_a_typed_error() {
        let records = arbitrary_stream(22, 12);
        let mut src = VecSource::new("s", records.clone());
        let mut w = DinWriter::new(Vec::new());
        copy_din(&mut src, &mut w).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let mut lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let victim = 5usize;
        lines[victim] = "9 nothex".to_string();
        let garbled = lines.join("\n");
        let mut r = DinReader::new(io::BufReader::new(garbled.as_bytes()));
        let got: Vec<_> = std::iter::from_fn(|| r.next_record()).collect();
        assert_eq!(got, records[..victim]);
        let err = r.error().expect("error recorded");
        assert!(
            matches!(err, TraceIoError::Malformed(_, n) if *n == victim as u64 + 1),
            "{err}"
        );
    }

    #[test]
    fn error_display_is_useful() {
        let e = TraceIoError::Malformed("bad label \"9\"".into(), 7);
        assert_eq!(
            e.to_string(),
            "malformed trace record at line 7: bad label \"9\""
        );
    }
}
