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
use std::io::{self, BufRead, Read, Write};

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

/// The longest `.din` line [`DinReader`] accepts, newline excluded:
/// ample for a label and a 64-bit hex address with any padding.
const DIN_MAX_LINE: usize = 256;

/// Reads Dinero `.din` text traces as a [`TraceSource`].
///
/// Blank lines are skipped; any other malformed line ends the stream at
/// the next [`DinReader::error`] check (a `TraceSource` cannot return
/// errors mid-stream, so the reader records it). A line longer than
/// 256 bytes is malformed, and the reader stops reading after its first
/// 257 bytes, so no input can make it buffer more than that.
#[derive(Debug)]
pub struct DinReader<R> {
    input: R,
    line: Vec<u8>,
    line_no: u64,
    error: Option<TraceIoError>,
    name: String,
}

impl<R: BufRead> DinReader<R> {
    /// Wrap a buffered reader.
    pub fn new(input: R) -> Self {
        DinReader {
            input,
            line: Vec::with_capacity(DIN_MAX_LINE + 1),
            line_no: 0,
            error: None,
            name: "din".to_string(),
        }
    }

    /// Rename the source (reports show this instead of `din`).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The error that terminated the stream, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Read the next line into `self.line`, newline included; `Ok(false)`
    /// at end of input.
    fn read_line(&mut self) -> Result<bool, TraceIoError> {
        self.line.clear();
        let limit = DIN_MAX_LINE as u64 + 1;
        if (&mut self.input)
            .take(limit)
            .read_until(b'\n', &mut self.line)?
            == 0
        {
            return Ok(false);
        }
        self.line_no += 1;
        if self.line.last() != Some(&b'\n') && self.line.len() > DIN_MAX_LINE {
            let what = format!("line longer than {DIN_MAX_LINE} bytes");
            return Err(TraceIoError::Malformed(what, self.line_no));
        }
        Ok(true)
    }

    fn parse(&self) -> Result<Option<TraceRecord>, TraceIoError> {
        let line = std::str::from_utf8(&self.line)
            .map_err(|_| TraceIoError::Malformed("not UTF-8 text".into(), self.line_no))?
            .trim();
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
            let parsed = match self.read_line() {
                Ok(true) => self.parse(),
                Ok(false) => return None,
                Err(e) => Err(e),
            };
            match parsed {
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

    /// The [`error`](Self::error) that ended the stream, if any.
    fn problems(&self) -> Vec<String> {
        self.error.iter().map(ToString::to_string).collect()
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
        let long_token = format!("{} 1234", "7".repeat(1 << 20));
        let cases = [
            b"3 1000".as_slice(),
            b"0 zzzz",
            b"junk",
            b"0 \xff",
            long_token.as_bytes(),
        ];
        for bad in cases {
            let mut r = DinReader::new(io::BufReader::new(bad));
            assert_eq!(r.next_record(), None);
            let err = r.error().expect("error recorded");
            assert!(matches!(err, TraceIoError::Malformed(_, 1)), "{err}");
            // The message names the problem without echoing the input.
            assert!(
                err.to_string().len() < 256,
                "{} byte message",
                err.to_string().len()
            );
        }
    }

    /// A reader over `len` bytes of `a` that counts what it hands out.
    struct CountingReader {
        left: u64,
        read: u64,
    }

    impl io::Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.left as usize);
            buf[..n].fill(b'a');
            self.left -= n as u64;
            self.read += n as u64;
            Ok(n)
        }
    }

    #[test]
    fn din_reader_stops_early_on_a_line_with_no_newline() {
        let mut counter = CountingReader {
            left: 64 << 20,
            read: 0,
        };
        let mut r = DinReader::new(io::BufReader::new(&mut counter));
        assert_eq!(r.next_record(), None);
        let err = r.error().expect("error recorded");
        assert!(matches!(err, TraceIoError::Malformed(_, 1)), "{err}");
        drop(r);
        assert!(counter.read <= 16 << 10, "read {} bytes", counter.read);
    }

    #[test]
    fn din_reader_accepts_a_line_of_the_maximum_length() {
        let line = format!("0 {:0>width$}\n2 10", "1000", width = DIN_MAX_LINE - 2);
        let mut r = DinReader::new(io::BufReader::new(line.as_bytes()));
        assert_eq!(r.next_record(), Some(TraceRecord::read(0x1000)));
        assert_eq!(r.next_record(), Some(TraceRecord::fetch(0x10)));
        assert_eq!(r.next_record(), None);
        assert!(r.error().is_none(), "{:?}", r.error());
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
