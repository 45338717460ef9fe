//! File I/O for Table-I trace logs.
//!
//! Real deployments exchange day-sized CSV files (the paper's feed is
//! ~10 GB/day); this module provides buffered whole-file and streaming
//! readers/writers over the [`crate::csv`] wire codec.

use crate::csv::{decode_line, decode_record, encode_record, CsvError, LineDecode, LINE_BUF_BYTES};
use crate::record::{Fleet, TaxiRecord};
use crate::stream::TraceLog;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors from trace-file operations.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A record failed to encode (unknown taxi id).
    Encode(CsvError),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O: {e}"),
            TraceFileError::Encode(e) => write!(f, "trace encode: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Writes records to `path` in the Table-I CSV format, one per line.
pub fn write_trace_file(
    path: &Path,
    records: &[TaxiRecord],
    fleet: &Fleet,
) -> Result<(), TraceFileError> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    for r in records {
        let line = encode_record(r, fleet).map_err(TraceFileError::Encode)?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(())
}

/// Result of reading a trace file: the log, the fleet learned from it,
/// and any malformed lines as `(line_number, error)`.
pub type ReadOutcome = (TraceLog, Fleet, Vec<(usize, CsvError)>);

/// Reads a Table-I CSV file into a sorted [`TraceLog`], learning the fleet
/// from the plates it sees. Malformed lines are collected, not fatal.
pub fn read_trace_file(path: &Path) -> Result<ReadOutcome, TraceFileError> {
    let mut fleet = Fleet::new();
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (line_no, record) in TraceReader::open(path, &mut fleet)? {
        match record {
            Ok(r) => records.push(r),
            Err(e) => errors.push((line_no, e)),
        }
    }
    Ok((TraceLog::from_records(records), fleet, errors))
}

/// Reads a feed one line at a time from any [`BufRead`] and decodes each
/// line through [`decode_line`] — the line reader behind [`TraceReader`]
/// and the daemon's ND-JSON feed. It holds at most
/// [`MAX_LINE_BYTES`](crate::csv::MAX_LINE_BYTES) of a line (plus a
/// `\r`); the rest of an overlong line is consumed through its `\n`
/// without being buffered.
pub struct LineReader<R: BufRead> {
    reader: R,
    decode: LineDecode,
    /// The current line, `\n` excluded; never longer than `LINE_BUF_BYTES`.
    buf: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> LineReader<R> {
    /// Wraps `reader`, decoding each line with `decode`.
    pub fn new(reader: R, decode: LineDecode) -> Self {
        LineReader { reader, decode, buf: Vec::with_capacity(LINE_BUF_BYTES), line_no: 0 }
    }

    /// The next non-blank line as `(line_number, decoded)`, numbered from
    /// 0 over every line, blank ones included; `None` at end of input.
    pub fn next_line(
        &mut self,
        fleet: &mut Fleet,
    ) -> std::io::Result<Option<(usize, Result<TaxiRecord, CsvError>)>> {
        while let Some(fits) = self.read_line()? {
            let line_no = self.line_no;
            self.line_no += 1;
            let decoded = if fits {
                decode_line(&self.buf, fleet, self.decode)
            } else {
                Some(Err(CsvError::LineTooLong))
            };
            if let Some(result) = decoded {
                return Ok(Some((line_no, result)));
            }
        }
        Ok(None)
    }

    /// Reads the next line into `buf`, without its `\n`. Returns
    /// `Some(false)` for a line that outgrew `LINE_BUF_BYTES` (consumed,
    /// not kept) and `None` at end of input.
    fn read_line(&mut self) -> std::io::Result<Option<bool>> {
        self.buf.clear();
        let mut fits = true;
        let mut read_any = false;
        loop {
            let avail = match self.reader.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if avail.is_empty() {
                break;
            }
            read_any = true;
            let (part, used, ended) = match avail.iter().position(|&b| b == b'\n') {
                Some(k) => (&avail[..k], k + 1, true),
                None => (avail, avail.len(), false),
            };
            fits &= self.buf.len() + part.len() <= LINE_BUF_BYTES;
            if fits {
                self.buf.extend_from_slice(part);
            }
            self.reader.consume(used);
            if ended {
                break;
            }
        }
        Ok(read_any.then_some(fits))
    }
}

/// A streaming reader: yields `(line_number, Result<record>)` without
/// buffering the whole file, suitable for day-scale feeds.
pub struct TraceReader<'f, R: BufRead> {
    lines: LineReader<R>,
    fleet: &'f mut Fleet,
}

impl<'f> TraceReader<'f, BufReader<std::fs::File>> {
    /// Opens a file for streaming decode.
    pub fn open(path: &Path, fleet: &'f mut Fleet) -> Result<Self, TraceFileError> {
        let file = std::fs::File::open(path)?;
        Ok(TraceReader::new(BufReader::new(file), fleet))
    }
}

impl<'f, R: BufRead> TraceReader<'f, R> {
    /// Wraps any buffered reader (e.g. an in-memory cursor in tests).
    pub fn new(reader: R, fleet: &'f mut Fleet) -> Self {
        TraceReader { lines: LineReader::new(reader, decode_record), fleet }
    }
}

impl<R: BufRead> Iterator for TraceReader<'_, R> {
    type Item = (usize, Result<TaxiRecord, CsvError>);

    fn next(&mut self) -> Option<Self::Item> {
        // An I/O error ends the stream; a bad line never does.
        self.lines.next_line(self.fleet).ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GpsCondition, PassengerState, TaxiRecord};
    use crate::time::Timestamp;
    use crate::GeoPoint;
    use std::io::Cursor;

    fn sample_records(n: usize) -> (Vec<TaxiRecord>, Fleet) {
        let mut fleet = Fleet::new();
        let taxis = fleet.register_many(3);
        let records: Vec<TaxiRecord> = (0..n)
            .map(|k| TaxiRecord {
                taxi: taxis[k % 3],
                position: GeoPoint::new(22.5 + k as f64 * 1e-4, 114.05),
                time: Timestamp::civil(2014, 12, 5, 9, 0, 0).offset(k as i64 * 15),
                speed_kmh: (k % 50) as f64,
                heading_deg: (k * 37 % 360) as f64,
                gps: GpsCondition::Available,
                overspeed: false,
                passenger: if k % 2 == 0 {
                    PassengerState::Vacant
                } else {
                    PassengerState::Occupied
                },
            })
            .collect();
        (records, fleet)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("taxilight-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn file_round_trip() {
        let (records, fleet) = sample_records(200);
        let path = temp_path("roundtrip.csv");
        write_trace_file(&path, &records, &fleet).unwrap();
        let (mut log, fleet2, errors) = read_trace_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(errors.is_empty());
        assert_eq!(log.len(), 200);
        assert_eq!(fleet2.len(), 3);
        // Spot-check a record after the sort.
        let any = log.records()[0];
        assert!(any.position.is_valid());
    }

    #[test]
    fn malformed_lines_are_collected() {
        let (records, fleet) = sample_records(5);
        let path = temp_path("malformed.csv");
        write_trace_file(&path, &records, &fleet).unwrap();
        // Append garbage.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "not,a,record").unwrap();
        writeln!(f).unwrap();
        writeln!(f, "YB-1,bad_lon,22500000,2014-12-05 09:00:00,1,10.0,0.0,1,0,138,0,yellow")
            .unwrap();
        drop(f);
        let (log, _, errors) = read_trace_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(log.len(), 5);
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].0, 5, "line numbers are 0-based and skip nothing");
    }

    #[test]
    fn streaming_reader_over_cursor() {
        let (records, fleet) = sample_records(10);
        let mut text = String::new();
        for r in &records {
            text.push_str(&crate::csv::encode_record(r, &fleet).unwrap());
            text.push('\n');
        }
        text.push('\n'); // trailing blank line is skipped
        let mut fleet2 = Fleet::new();
        let reader = TraceReader::new(Cursor::new(text), &mut fleet2);
        let decoded: Vec<_> = reader.collect();
        assert_eq!(decoded.len(), 10);
        assert!(decoded.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(decoded.last().unwrap().0, 9);
    }

    #[test]
    fn non_utf8_line_is_one_bad_line_not_the_end_of_the_file() {
        let (records, fleet) = sample_records(6);
        let text = crate::csv::encode_log(&records, &fleet).unwrap();
        let first_end = text.find('\n').unwrap() + 1;
        let mut bytes = text.as_bytes()[..first_end].to_vec();
        bytes.extend_from_slice(b"\xff\xfe\n");
        bytes.extend_from_slice(&text.as_bytes()[first_end..]);
        let mut fleet2 = Fleet::new();
        let decoded: Vec<_> = TraceReader::new(Cursor::new(bytes), &mut fleet2).collect();
        assert_eq!(decoded.len(), 7);
        assert_eq!(decoded[1], (1, Err(CsvError::FieldCount(1))));
        assert_eq!(decoded.iter().filter(|(_, r)| r.is_ok()).count(), 6);
    }

    #[test]
    fn line_reader_holds_at_most_the_bound_of_a_newline_free_stream() {
        let (records, fleet) = sample_records(1);
        let mut feed = vec![b'x'; 3 << 20];
        feed.push(b'\n');
        feed.extend_from_slice(crate::csv::encode_record(&records[0], &fleet).unwrap().as_bytes());
        let mut lines = LineReader::new(BufReader::new(Cursor::new(feed)), decode_record);
        let mut fleet2 = Fleet::new();
        let first = lines.next_line(&mut fleet2).unwrap();
        assert_eq!(first, Some((0, Err(CsvError::LineTooLong))));
        assert!(lines.buf.capacity() <= LINE_BUF_BYTES);
        let (line_no, second) = lines.next_line(&mut fleet2).unwrap().unwrap();
        assert_eq!(line_no, 1);
        assert_eq!(second.unwrap().speed_kmh, records[0].speed_kmh);
        assert_eq!(lines.next_line(&mut fleet2).unwrap(), None);
        assert!(lines.buf.capacity() <= LINE_BUF_BYTES);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_trace_file(Path::new("/nonexistent/taxilight.csv")).unwrap_err();
        assert!(matches!(err, TraceFileError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn encode_error_propagates() {
        let (mut records, fleet) = sample_records(1);
        records[0].taxi = crate::record::TaxiId(99); // not in fleet
        let path = temp_path("encode-err.csv");
        let err = write_trace_file(&path, &records, &fleet).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, TraceFileError::Encode(_)));
    }
}
