//! Bounded-memory record sources: the out-of-core ingestion contract.
//!
//! The paper's real workload is ~28 000 taxis emitting ~80 M records/day
//! (~10 GB of CSV); holding a day in a `Vec<TaxiRecord>` is exactly the
//! thing a deployment cannot do. A [`RecordSource`] yields the day as a
//! sequence of *record batches* decoded into one caller-owned
//! [`RecordBatch`] that is recycled between calls, so the resident set of
//! an ingestion loop is `O(chunk size)` — independent of the feed length.
//!
//! Two sources cover the pipeline's needs:
//!
//! * [`MemorySource`] — wraps an in-memory slice and serves it in chunks
//!   of a configurable record count. This is the *reference* source: the
//!   differential test harness proves every streaming consumer produces
//!   bit-identical results whether records arrive through a
//!   [`MemorySource`] of any chunk size or through a whole-day `Vec`.
//! * [`CsvChunkReader`] — streams Table-I CSV from any [`Read`] in
//!   bounded *byte* chunks, decoding complete lines into compact binary
//!   [`TaxiRecord`]s and carrying a partial trailing line across chunk
//!   boundaries. Malformed rows — including rows garbled *across* a
//!   boundary — are reported per line, never fatal, with the same line
//!   numbering as the whole-file reader in [`crate::io`].
//!
//! ## Chunk-boundary semantics
//!
//! A byte chunk almost never ends on a line boundary. The reader keeps
//! the unterminated tail in a carry buffer and prepends it to the next
//! chunk, so every line is decoded exactly once from its complete bytes.
//! The record *sequence* (and the bad-line sequence) is therefore a pure
//! function of the input bytes, identical for every `chunk_bytes ≥ 1` —
//! pinned by the proptests in `tests/chunked_reader.rs`. Memory is
//! bounded by one chunk plus
//! [`MAX_LINE_BYTES`](crate::csv::MAX_LINE_BYTES): the carry never holds
//! more of a line than the bound (and a `\r` that may start its
//! terminator), and a longer line is reported as one
//! [`CsvError::LineTooLong`] while its excess is skipped unbuffered.

use crate::csv::{decode_line, decode_record, CsvError, LINE_BUF_BYTES};
use crate::io::TraceFileError;
use crate::record::{Fleet, TaxiRecord};
use std::io::Read;
use std::path::Path;

/// A rejected row: 0-based line number over the whole feed plus the
/// decode error (same numbering as [`crate::io::TraceReader`]).
pub type BadLine = (usize, CsvError);

/// One decoded chunk of a record feed. Reused across
/// [`RecordSource::next_batch`] calls: the vectors are cleared, not
/// reallocated, so steady-state ingestion does not grow the heap.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    /// Records decoded from this chunk, in feed order.
    pub records: Vec<TaxiRecord>,
    /// Rejected rows as `(line_number, error)`, 0-based over the whole
    /// feed (same numbering as [`crate::io::TraceReader`]). Empty for
    /// sources that never decode text.
    pub bad_lines: Vec<BadLine>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// Clears both vectors, keeping their capacity.
    pub fn clear(&mut self) {
        self.records.clear();
        self.bad_lines.clear();
    }

    /// Records in this batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the batch holds no records (it may still hold bad lines).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A bounded-memory record feed.
///
/// ## Contract
///
/// * `next_batch` clears `batch`, fills it with the next chunk of the
///   feed, and returns `Ok(true)`; it returns `Ok(false)` — with `batch`
///   cleared — once the feed is exhausted. After the first `Ok(false)`
///   every further call also returns `Ok(false)`.
/// * Concatenating `batch.records` over all calls yields the feed's
///   exact record sequence; likewise `batch.bad_lines` for rejects. The
///   split into batches is an implementation detail consumers must not
///   depend on — the differential harness deliberately varies it.
/// * A batch may be empty while the source is not exhausted (e.g. a byte
///   chunk that closed zero lines); consumers must key on the return
///   value, not on `batch.is_empty()`.
pub trait RecordSource {
    /// Fills `batch` with the next chunk. `Ok(false)` means exhausted.
    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, TraceFileError>;
}

/// Serves an in-memory record slice in chunks of `chunk_records` — the
/// reference source for the streaming-vs-in-memory differential proofs.
#[derive(Debug, Clone)]
pub struct MemorySource<'a> {
    records: &'a [TaxiRecord],
    chunk_records: usize,
    pos: usize,
}

impl<'a> MemorySource<'a> {
    /// A source over `records`, yielding at most `chunk_records` per
    /// batch (`0` is treated as 1).
    pub fn new(records: &'a [TaxiRecord], chunk_records: usize) -> Self {
        MemorySource { records, chunk_records: chunk_records.max(1), pos: 0 }
    }
}

impl RecordSource for MemorySource<'_> {
    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, TraceFileError> {
        batch.clear();
        if self.pos >= self.records.len() {
            return Ok(false);
        }
        let end = (self.pos + self.chunk_records).min(self.records.len());
        batch.records.extend_from_slice(&self.records[self.pos..end]);
        self.pos = end;
        Ok(true)
    }
}

/// Streams Table-I CSV from a [`Read`] in bounded byte chunks.
///
/// Unknown plates are registered into the internal [`Fleet`] in feed
/// order — the same learning rule as [`crate::csv::decode_record`] — so
/// the fleet, like the record sequence, is independent of the chunk
/// size. See the module docs for the chunk-boundary semantics.
pub struct CsvChunkReader<R: Read> {
    reader: R,
    fleet: Fleet,
    /// Bytes to request per chunk.
    chunk_bytes: usize,
    /// Read buffer, recycled across chunks.
    buf: Vec<u8>,
    /// Unterminated tail of the previous chunk; never longer than
    /// `LINE_BUF_BYTES`.
    carry: Vec<u8>,
    /// The held line outgrew the carry: its bytes are skipped through its
    /// `\n`, and it is reported as one [`CsvError::LineTooLong`].
    overlong: bool,
    /// Next line number (0-based, counts every line incl. blank ones —
    /// identical to [`crate::io::TraceReader`]).
    line_no: usize,
    /// Cumulative rejected-line count over the whole feed.
    bad_line_total: u64,
    /// Cumulative decoded-record count over the whole feed.
    record_total: u64,
    /// The underlying reader hit EOF; only the carry may remain.
    eof: bool,
    /// Fully exhausted (EOF seen and carry flushed).
    done: bool,
}

impl CsvChunkReader<std::io::BufReader<std::fs::File>> {
    /// Opens a file for chunked streaming decode.
    pub fn open(path: &Path, chunk_bytes: usize) -> Result<Self, TraceFileError> {
        let file = std::fs::File::open(path)?;
        Ok(CsvChunkReader::new(std::io::BufReader::new(file), chunk_bytes))
    }
}

impl<R: Read> CsvChunkReader<R> {
    /// Wraps any reader; each batch decodes the lines completed by one
    /// `chunk_bytes`-sized read (`0` is treated as 1).
    pub fn new(reader: R, chunk_bytes: usize) -> Self {
        let chunk_bytes = chunk_bytes.max(1);
        CsvChunkReader {
            reader,
            fleet: Fleet::new(),
            chunk_bytes,
            buf: vec![0u8; chunk_bytes],
            carry: Vec::with_capacity(LINE_BUF_BYTES),
            overlong: false,
            line_no: 0,
            bad_line_total: 0,
            record_total: 0,
            eof: false,
            done: false,
        }
    }

    /// The fleet learned from the feed so far.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Consumes the reader, returning the learned fleet.
    pub fn into_fleet(self) -> Fleet {
        self.fleet
    }

    /// Rejected lines seen so far across the whole feed.
    pub fn bad_line_total(&self) -> u64 {
        self.bad_line_total
    }

    /// Records decoded so far across the whole feed.
    pub fn record_total(&self) -> u64 {
        self.record_total
    }

    /// Numbers one line and files its outcome into `batch`.
    fn emit(&mut self, decoded: Option<Result<TaxiRecord, CsvError>>, batch: &mut RecordBatch) {
        let n = self.line_no;
        self.line_no += 1;
        match decoded {
            None => {}
            Some(Ok(r)) => batch.records.push(r),
            Some(Err(e)) => batch.bad_lines.push((n, e)),
        }
    }

    /// Appends the next part of the held line to the carry, unless the
    /// line outgrows it: then the line is overlong and the carry dropped.
    fn hold(carry: &mut Vec<u8>, overlong: &mut bool, part: &[u8]) {
        if *overlong {
            return;
        }
        if carry.len() + part.len() > LINE_BUF_BYTES {
            *overlong = true;
            carry.clear();
        } else {
            carry.extend_from_slice(part);
        }
    }

    /// Ends the held line: decodes the carry, or reports the line as too
    /// long if it outgrew the carry.
    fn finish_held(&mut self, batch: &mut RecordBatch) {
        let decoded = if self.overlong {
            Some(Err(CsvError::LineTooLong))
        } else {
            decode_line(&self.carry, &mut self.fleet, decode_record)
        };
        self.carry.clear();
        self.overlong = false;
        self.emit(decoded, batch);
    }
}

impl<R: Read> RecordSource for CsvChunkReader<R> {
    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, TraceFileError> {
        batch.clear();
        if self.done {
            return Ok(false);
        }
        // One bounded read per batch. `read` may return short; that only
        // changes the batch split, never the decoded sequence.
        let mut filled = 0;
        if !self.eof {
            while filled < self.chunk_bytes {
                match self.reader.read(&mut self.buf[filled..]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(TraceFileError::Io(e)),
                }
            }
        }

        // Split carry + chunk on '\n'; the last fragment (no terminator)
        // becomes the next carry. A line that lies wholly in this chunk
        // decodes in place, without touching the carry.
        let mut start = 0;
        while let Some(len) = self.buf[start..filled].iter().position(|&b| b == b'\n') {
            let line = &self.buf[start..start + len];
            start += len + 1;
            if self.carry.is_empty() && !self.overlong {
                let decoded = decode_line(line, &mut self.fleet, decode_record);
                self.emit(decoded, batch);
            } else {
                Self::hold(&mut self.carry, &mut self.overlong, line);
                self.finish_held(batch);
            }
        }
        Self::hold(&mut self.carry, &mut self.overlong, &self.buf[start..filled]);

        if self.eof {
            // Flush the final unterminated line, if any.
            if !self.carry.is_empty() || self.overlong {
                self.finish_held(batch);
            }
            self.done = true;
        }
        self.record_total += batch.records.len() as u64;
        self.bad_line_total += batch.bad_lines.len() as u64;
        Ok(true)
    }
}

/// Drains a source into one `Vec`, for tests and small feeds — the
/// convenience that deliberately gives up the memory bound.
pub fn collect_source(
    src: &mut impl RecordSource,
) -> Result<(Vec<TaxiRecord>, Vec<BadLine>), TraceFileError> {
    let mut records = Vec::new();
    let mut bad = Vec::new();
    let mut batch = RecordBatch::new();
    while src.next_batch(&mut batch)? {
        records.extend_from_slice(&batch.records);
        bad.extend_from_slice(&batch.bad_lines);
    }
    Ok((records, bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::encode_log;
    use crate::record::{GpsCondition, PassengerState};
    use crate::time::Timestamp;
    use crate::GeoPoint;
    use std::io::Cursor;

    fn sample(n: usize) -> (Vec<TaxiRecord>, Fleet) {
        let mut fleet = Fleet::new();
        let taxis = fleet.register_many(4);
        let records = (0..n)
            .map(|k| TaxiRecord {
                taxi: taxis[k % 4],
                position: GeoPoint::new(22.5 + k as f64 * 1e-4, 114.05),
                time: Timestamp::civil(2014, 12, 5, 9, 0, 0).offset(k as i64 * 7),
                speed_kmh: (k % 60) as f64,
                heading_deg: (k * 31 % 360) as f64,
                gps: GpsCondition::Available,
                overspeed: k % 17 == 0,
                passenger: if k % 3 == 0 {
                    PassengerState::Occupied
                } else {
                    PassengerState::Vacant
                },
            })
            .collect();
        (records, fleet)
    }

    #[test]
    fn memory_source_round_trips_any_chunk() {
        let (records, _) = sample(53);
        for chunk in [1, 2, 7, 53, 100, 0] {
            let mut src = MemorySource::new(&records, chunk);
            let (got, bad) = collect_source(&mut src).unwrap();
            assert_eq!(got, records, "chunk_records={chunk}");
            assert!(bad.is_empty());
            // Exhausted stays exhausted.
            let mut batch = RecordBatch::new();
            assert!(!src.next_batch(&mut batch).unwrap());
            assert!(!src.next_batch(&mut batch).unwrap());
        }
    }

    #[test]
    fn csv_chunk_reader_matches_whole_file_decode() {
        let (records, fleet) = sample(40);
        let text = encode_log(&records, &fleet).unwrap();
        for chunk_bytes in [1, 3, 64, 1 << 20] {
            let mut src = CsvChunkReader::new(Cursor::new(text.as_bytes()), chunk_bytes);
            let (got, bad) = collect_source(&mut src).unwrap();
            assert!(bad.is_empty());
            assert_eq!(got.len(), records.len());
            assert_eq!(got, records, "chunk_bytes={chunk_bytes}");
            assert_eq!(src.record_total(), records.len() as u64);
            assert_eq!(src.fleet().len(), fleet.len());
        }
    }

    #[test]
    fn bad_lines_keep_whole_file_numbering() {
        let (records, fleet) = sample(5);
        let mut text = encode_log(&records, &fleet).unwrap();
        text.push_str("not,a,record\n\nYB-1,bad,22500000,x,1,1.0,0.0,1,0,138,0,yellow\n");
        // Whole-file reference.
        let mut ref_fleet = Fleet::new();
        let (ref_records, ref_errors) = crate::csv::decode_log(&text, &mut ref_fleet);
        for chunk_bytes in [1, 5, 37, 4096] {
            let mut src = CsvChunkReader::new(Cursor::new(text.as_bytes()), chunk_bytes);
            let (got, bad) = collect_source(&mut src).unwrap();
            assert_eq!(got, ref_records, "chunk_bytes={chunk_bytes}");
            assert_eq!(bad, ref_errors, "chunk_bytes={chunk_bytes}");
            assert_eq!(src.bad_line_total(), ref_errors.len() as u64);
        }
    }

    #[test]
    fn final_line_without_newline_is_flushed() {
        let (records, fleet) = sample(3);
        let mut text = encode_log(&records, &fleet).unwrap();
        text.pop(); // strip the trailing '\n'
        let mut src = CsvChunkReader::new(Cursor::new(text.as_bytes()), 8);
        let (got, bad) = collect_source(&mut src).unwrap();
        assert_eq!(got, records);
        assert!(bad.is_empty());
    }

    #[test]
    fn crlf_lines_decode_like_lf() {
        let (records, fleet) = sample(4);
        let lf = encode_log(&records, &fleet).unwrap();
        let crlf = lf.replace('\n', "\r\n");
        let mut src = CsvChunkReader::new(Cursor::new(crlf.as_bytes()), 11);
        let (got, bad) = collect_source(&mut src).unwrap();
        assert_eq!(got, records);
        assert!(bad.is_empty());
    }

    #[test]
    fn open_missing_file_is_io_error() {
        match CsvChunkReader::open(Path::new("/nonexistent/feed.csv"), 4096) {
            Err(TraceFileError::Io(_)) => {}
            Err(other) => panic!("expected Io error, got {other}"),
            Ok(_) => panic!("open of a missing file succeeded"),
        }
    }

    #[test]
    fn newline_free_stream_is_one_bad_line_in_bounded_memory() {
        let (records, fleet) = sample(1);
        let mut feed = vec![b'x'; 3 << 20];
        feed.push(b'\n');
        feed.extend_from_slice(encode_log(&records, &fleet).unwrap().as_bytes());
        for chunk_bytes in [7, 4096, 1 << 16] {
            let mut src = CsvChunkReader::new(Cursor::new(&feed), chunk_bytes);
            let mut batch = RecordBatch::new();
            let (mut got, mut bad) = (Vec::new(), Vec::new());
            while src.next_batch(&mut batch).unwrap() {
                got.extend_from_slice(&batch.records);
                bad.extend_from_slice(&batch.bad_lines);
                // One chunk plus at most the bound (and a `\r`) of a line.
                assert_eq!(src.buf.len(), chunk_bytes);
                assert!(src.carry.capacity() <= LINE_BUF_BYTES, "chunk_bytes={chunk_bytes}");
            }
            assert_eq!(bad, vec![(0, CsvError::LineTooLong)], "chunk_bytes={chunk_bytes}");
            assert_eq!(got, records, "chunk_bytes={chunk_bytes}");
        }
    }

    #[test]
    fn unterminated_overlong_final_line_is_reported() {
        let (records, fleet) = sample(2);
        let mut text = encode_log(&records, &fleet).unwrap();
        text.push_str(&"y".repeat(LINE_BUF_BYTES + 10));
        for chunk_bytes in [1, 64, 1 << 16] {
            let mut src = CsvChunkReader::new(Cursor::new(text.as_bytes()), chunk_bytes);
            let (got, bad) = collect_source(&mut src).unwrap();
            assert_eq!(got, records);
            assert_eq!(bad, vec![(2, CsvError::LineTooLong)], "chunk_bytes={chunk_bytes}");
            assert_eq!(src.bad_line_total(), 1);
        }
    }

    #[test]
    fn batch_reuse_does_not_grow() {
        let (records, fleet) = sample(64);
        let text = encode_log(&records, &fleet).unwrap();
        let mut src = CsvChunkReader::new(Cursor::new(text.as_bytes()), 256);
        let mut batch = RecordBatch::new();
        let mut caps = Vec::new();
        while src.next_batch(&mut batch).unwrap() {
            caps.push(batch.records.capacity());
        }
        // Capacity stabilizes: the last batch never exceeds the max seen
        // before it (cleared, not reallocated).
        let max = caps.iter().copied().max().unwrap_or(0);
        assert!(batch.records.capacity() <= max.max(4));
    }
}
