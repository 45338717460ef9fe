//! Live-feed ingestion: the wire formats a `taxilightd` feed socket
//! accepts, both delivered through the bounded-memory [`RecordSource`]
//! contract so the daemon inherits PR 6's O(chunk) resident set.
//!
//! * **CSV** — the Table-I format, streamed through the existing
//!   [`CsvChunkReader`] (it reads from any `Read`, a `TcpStream`
//!   included).
//! * **ND-JSON** — one JSON object per line carrying the same twelve
//!   Table-I fields, decoded with the repo's own parser
//!   ([`taxilight_obs::json`]); no external dependency.
//!
//! Decode errors are per-line, never fatal — a live feed contains
//! garbage, and the daemon's job is to keep serving. ND-JSON errors are
//! reported through the same [`CsvError`] vocabulary as CSV (structural
//! failures as [`CsvError::FieldCount`], per-field failures as
//! [`CsvError::Field`] with Table-I numbering) so consumers see one
//! error surface regardless of the wire format.

use std::io::{BufReader, Read};

use taxilight_obs::json::{self, Json};
use taxilight_trace::csv::CsvError;
use taxilight_trace::io::{LineReader, TraceFileError};
use taxilight_trace::record::{BodyColor, Fleet, GpsCondition, PassengerState, TaxiRecord};
use taxilight_trace::source::{CsvChunkReader, RecordBatch, RecordSource};
use taxilight_trace::time::Timestamp;
use taxilight_trace::GeoPoint;

/// Wire format of a feed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeedFormat {
    /// Table-I CSV lines (the existing file format, over a socket).
    #[default]
    Csv,
    /// One JSON object per line, same fields.
    NdJson,
}

impl FeedFormat {
    /// Parses a CLI/config spelling.
    pub fn parse(s: &str) -> Option<FeedFormat> {
        match s.to_ascii_lowercase().as_str() {
            "csv" => Some(FeedFormat::Csv),
            "ndjson" | "nd-json" | "jsonl" => Some(FeedFormat::NdJson),
            _ => None,
        }
    }
}

/// Streams ND-JSON records from any [`Read`] through a `chunk_bytes`
/// read buffer. A batch is every line one read completes: it ends at the
/// last complete line already buffered, so no read waits for later lines
/// while the batch holds one, and a burst still decodes in chunk-sized
/// batches. Unknown plates are learned into the internal [`Fleet`] in
/// feed order — the same rule as CSV decoding, so the record sequence is
/// independent of batching. Lines are read by the same bounded
/// [`LineReader`] as CSV files: a non-UTF-8 or overlong line is one bad
/// line, never the end of the feed.
pub struct NdJsonReader<R: Read> {
    lines: LineReader<BufReader<R>>,
    fleet: Fleet,
    record_total: u64,
    bad_line_total: u64,
    done: bool,
}

impl<R: Read> NdJsonReader<R> {
    /// Wraps a reader; each read takes at most `chunk_bytes` (`0` is
    /// treated as 1).
    pub fn new(reader: R, chunk_bytes: usize) -> Self {
        NdJsonReader {
            lines: LineReader::new(
                BufReader::with_capacity(chunk_bytes.max(1), reader),
                decode_record_json,
            ),
            fleet: Fleet::new(),
            record_total: 0,
            bad_line_total: 0,
            done: false,
        }
    }

    /// The fleet learned from the feed so far.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Records decoded so far across the whole feed.
    pub fn record_total(&self) -> u64 {
        self.record_total
    }

    /// Rejected lines seen so far across the whole feed.
    pub fn bad_line_total(&self) -> u64 {
        self.bad_line_total
    }
}

impl<R: Read> RecordSource for NdJsonReader<R> {
    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, TraceFileError> {
        batch.clear();
        if self.done {
            return Ok(false);
        }
        // Read until the batch holds a line, then take only the lines the
        // buffer already holds whole.
        while (batch.records.is_empty() && batch.bad_lines.is_empty()) || self.lines.line_buffered()
        {
            match self.lines.next_any_line(&mut self.fleet)? {
                None => {
                    self.done = true;
                    break;
                }
                Some((_, None)) => {}
                Some((_, Some(Ok(r)))) => batch.records.push(r),
                Some((n, Some(Err(e)))) => batch.bad_lines.push((n, e)),
            }
        }
        self.record_total += batch.records.len() as u64;
        self.bad_line_total += batch.bad_lines.len() as u64;
        // Mirror CsvChunkReader: the batch that hit EOF still returns
        // `true`; the *next* call reports exhaustion.
        Ok(!(self.done && batch.records.is_empty() && batch.bad_lines.is_empty()))
    }
}

/// Decodes one ND-JSON line into a record, learning unknown plates into
/// `fleet` exactly like [`taxilight_trace::csv::decode_record`].
pub fn decode_record_json(line: &str, fleet: &mut Fleet) -> Result<TaxiRecord, CsvError> {
    let doc = json::parse(line.trim()).map_err(|_| CsvError::FieldCount(0))?;
    let obj = match &doc {
        Json::Obj(_) => &doc,
        _ => return Err(CsvError::FieldCount(0)),
    };
    // Field numbers mirror Table I, like the CSV decoder's errors.
    let str_field = |key: &str, n: u8| -> Result<&str, CsvError> {
        obj.get(key).and_then(Json::as_str).ok_or(CsvError::Field(n))
    };
    let f64_field = |key: &str, n: u8| -> Result<f64, CsvError> {
        obj.get(key).and_then(Json::as_f64).filter(|v| v.is_finite()).ok_or(CsvError::Field(n))
    };

    // Integer fields take only what CSV's integer parse takes: an
    // integral value in range. An `as` cast would read 1.9 as 1 and -1
    // as 0.
    let u32_field = |key: &str, n: u8| -> Result<u32, CsvError> {
        let v = f64_field(key, n)?;
        if v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v) {
            Ok(v as u32)
        } else {
            Err(CsvError::Field(n))
        }
    };

    let plate = str_field("plate", 1)?;
    let lon = f64_field("lon", 2)?;
    let lat = f64_field("lat", 3)?;
    let time = Timestamp::parse(str_field("time", 4)?).map_err(|_| CsvError::Field(4))?;
    let device_id = u32_field("device", 5)?;
    let speed_kmh = f64_field("speed_kmh", 6)?;
    let heading_deg = f64_field("heading_deg", 7)?;
    let gps = u8::try_from(u32_field("gps", 8)?)
        .ok()
        .and_then(GpsCondition::from_wire)
        .ok_or(CsvError::Field(8))?;
    let overspeed = match u32_field("overspeed", 9)? {
        0 => false,
        1 => true,
        _ => return Err(CsvError::Field(9)),
    };
    let sim = str_field("sim", 10)?;
    let passenger = u8::try_from(u32_field("passenger", 11)?)
        .ok()
        .and_then(PassengerState::from_wire)
        .ok_or(CsvError::Field(11))?;
    let color = BodyColor::from_str_loose(str_field("color", 12)?).ok_or(CsvError::Field(12))?;

    Ok(TaxiRecord {
        taxi: fleet.intern(plate, device_id, sim, color),
        position: GeoPoint::new(lat, lon),
        time,
        speed_kmh,
        heading_deg,
        gps,
        overspeed,
        passenger,
    })
}

/// Encodes one record as an ND-JSON line (no trailing newline) — the
/// inverse of [`decode_record_json`], used by feed generators and tests.
pub fn encode_record_json(record: &TaxiRecord, fleet: &Fleet) -> Result<String, CsvError> {
    let info = fleet.info(record.taxi).ok_or(CsvError::UnknownTaxi(record.taxi.0))?;
    let mut out = String::with_capacity(192);
    out.push_str("{\"plate\":\"");
    json::escape_json_into(&mut out, &info.plate);
    out.push_str("\",\"lon\":");
    out.push_str(&json::fmt_f64(record.position.lon));
    out.push_str(",\"lat\":");
    out.push_str(&json::fmt_f64(record.position.lat));
    out.push_str(",\"time\":\"");
    json::escape_json_into(&mut out, &record.time.format());
    out.push_str("\",\"device\":");
    out.push_str(&info.device_id.to_string());
    out.push_str(",\"speed_kmh\":");
    out.push_str(&json::fmt_f64(record.speed_kmh));
    out.push_str(",\"heading_deg\":");
    out.push_str(&json::fmt_f64(record.heading_deg));
    out.push_str(",\"gps\":");
    out.push_str(&record.gps.to_wire().to_string());
    out.push_str(",\"overspeed\":");
    out.push_str(&u8::from(record.overspeed).to_string());
    out.push_str(",\"sim\":\"");
    json::escape_json_into(&mut out, &info.sim);
    out.push_str("\",\"passenger\":");
    out.push_str(&record.passenger.to_wire().to_string());
    out.push_str(",\"color\":\"");
    json::escape_json_into(&mut out, info.color.as_str());
    out.push_str("\"}");
    Ok(out)
}

/// Encodes many records as ND-JSON, one line each, newline-terminated.
pub fn encode_log_json(records: &[TaxiRecord], fleet: &Fleet) -> Result<String, CsvError> {
    let mut out = String::with_capacity(records.len() * 192);
    for r in records {
        out.push_str(&encode_record_json(r, fleet)?);
        out.push('\n');
    }
    Ok(out)
}

/// A feed connection's record source: one wire format over one reader.
pub enum FeedSource<R: Read> {
    /// Table-I CSV in bounded byte chunks.
    Csv(CsvChunkReader<R>),
    /// ND-JSON through a bounded read buffer.
    NdJson(NdJsonReader<R>),
}

impl<R: Read> FeedSource<R> {
    /// Wraps `reader` in a decoder for `format`. `chunk` is the most
    /// bytes one read takes, for either format; it bounds resident memory
    /// per batch.
    pub fn new(reader: R, format: FeedFormat, chunk: usize) -> Self {
        match format {
            FeedFormat::Csv => FeedSource::Csv(CsvChunkReader::new(reader, chunk)),
            FeedFormat::NdJson => FeedSource::NdJson(NdJsonReader::new(reader, chunk)),
        }
    }

    /// Rejected lines seen so far.
    pub fn bad_line_total(&self) -> u64 {
        match self {
            FeedSource::Csv(s) => s.bad_line_total(),
            FeedSource::NdJson(s) => s.bad_line_total(),
        }
    }

    /// Records decoded so far.
    pub fn record_total(&self) -> u64 {
        match self {
            FeedSource::Csv(s) => s.record_total(),
            FeedSource::NdJson(s) => s.record_total(),
        }
    }
}

impl<R: Read> RecordSource for FeedSource<R> {
    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, TraceFileError> {
        match self {
            FeedSource::Csv(s) => s.next_batch(batch),
            FeedSource::NdJson(s) => s.next_batch(batch),
        }
    }
}

/// Re-encodes records in `format` for transmission to a feed socket —
/// the generator half of the daemon tests and the `feed_decode` example.
pub fn encode_feed(
    records: &[TaxiRecord],
    fleet: &Fleet,
    format: FeedFormat,
) -> Result<String, CsvError> {
    match format {
        FeedFormat::Csv => taxilight_trace::csv::encode_log(records, fleet),
        FeedFormat::NdJson => encode_log_json(records, fleet),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use taxilight_trace::source::collect_source;

    fn sample(n: usize) -> (Vec<TaxiRecord>, Fleet) {
        let mut fleet = Fleet::new();
        let taxis = fleet.register_many(3);
        let records = (0..n)
            .map(|k| TaxiRecord {
                taxi: taxis[k % 3],
                position: GeoPoint::new(22.5 + k as f64 * 1e-4, 114.05 - k as f64 * 2e-4),
                time: Timestamp::civil(2014, 12, 5, 9, 0, 0).offset(k as i64 * 11),
                speed_kmh: (k % 70) as f64 + 0.5,
                heading_deg: (k * 37 % 360) as f64,
                gps: GpsCondition::Available,
                overspeed: k % 13 == 0,
                passenger: if k % 2 == 0 {
                    PassengerState::Occupied
                } else {
                    PassengerState::Vacant
                },
            })
            .collect();
        (records, fleet)
    }

    #[test]
    fn ndjson_round_trips_any_chunk() {
        let (records, fleet) = sample(29);
        let text = encode_log_json(&records, &fleet).unwrap();
        for chunk in [1, 2, 7, 29, 1000] {
            let mut src = NdJsonReader::new(Cursor::new(text.as_bytes()), chunk);
            let (got, bad) = collect_source(&mut src).unwrap();
            assert!(bad.is_empty(), "chunk={chunk}: {bad:?}");
            assert_eq!(got, records, "chunk={chunk}");
            assert_eq!(src.record_total(), records.len() as u64);
            assert_eq!(src.fleet().len(), fleet.len());
        }
    }

    /// Serves its bytes in one read and panics on any further read.
    struct OneRead(Option<Vec<u8>>);

    impl Read for OneRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let bytes = self.0.take().expect("a second read: the batch waited for more lines");
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn ndjson_batch_ends_at_the_last_buffered_line() {
        // Three whole lines and the start of a fourth arrive in one read;
        // the batch is those three, taken without reading again, however
        // many more lines the chunk could hold.
        let (records, fleet) = sample(4);
        let text = encode_log_json(&records, &fleet).unwrap();
        let cut = text.match_indices('\n').nth(2).unwrap().0 + 10;
        let mut src = NdJsonReader::new(OneRead(Some(text.as_bytes()[..cut].to_vec())), 1 << 16);
        let mut batch = RecordBatch::new();
        assert!(src.next_batch(&mut batch).unwrap());
        assert_eq!(batch.records, records[..3]);
        assert!(batch.bad_lines.is_empty());
        assert_eq!(src.record_total(), 3);
    }

    #[test]
    fn ndjson_burst_decodes_in_chunk_sized_batches() {
        // A burst larger than the chunk: each batch is the lines one
        // chunk-sized read completes, and together they are the feed.
        let (records, fleet) = sample(200);
        let text = encode_log_json(&records, &fleet).unwrap();
        let chunk = 4096;
        let mut src = NdJsonReader::new(Cursor::new(text.as_bytes()), chunk);
        let (mut batch, mut got, mut batches) = (RecordBatch::new(), Vec::new(), 0);
        while src.next_batch(&mut batch).unwrap() {
            let longest = text.lines().map(str::len).max().unwrap();
            assert!(
                batch.records.len() <= chunk / (longest / 2),
                "{} records",
                batch.records.len()
            );
            got.extend_from_slice(&batch.records);
            batches += 1;
        }
        assert_eq!(got, records);
        assert!(batches >= text.len() / chunk, "{batches} batches for {} bytes", text.len());
    }

    #[test]
    fn ndjson_matches_csv_decode_of_same_records() {
        let (records, fleet) = sample(17);
        let csv = encode_feed(&records, &fleet, FeedFormat::Csv).unwrap();
        let nd = encode_feed(&records, &fleet, FeedFormat::NdJson).unwrap();
        let mut csv_src = FeedSource::new(Cursor::new(csv.as_bytes()), FeedFormat::Csv, 256);
        let mut nd_src = FeedSource::new(Cursor::new(nd.as_bytes()), FeedFormat::NdJson, 256);
        let (a, _) = collect_source(&mut csv_src).unwrap();
        let (b, _) = collect_source(&mut nd_src).unwrap();
        // CSV quantizes positions to micro-degrees; compare the fields
        // that must be exact and bound the positional quantization.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.taxi, y.taxi);
            assert_eq!(x.time, y.time);
            assert_eq!(x.speed_kmh, y.speed_kmh);
            assert!((x.position.lat - y.position.lat).abs() < 1e-5);
            assert!((x.position.lon - y.position.lon).abs() < 1e-5);
        }
    }

    #[test]
    fn bad_json_lines_are_reported_not_fatal() {
        let (records, fleet) = sample(4);
        let mut text = encode_log_json(&records, &fleet).unwrap();
        text.insert_str(0, "not json at all\n");
        text.push_str("{\"plate\":\"YB-00001\"}\n"); // missing fields
        text.push('\n'); // blank: skipped silently
        let mut src = NdJsonReader::new(Cursor::new(text.as_bytes()), 100);
        let (got, bad) = collect_source(&mut src).unwrap();
        assert_eq!(got, records);
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].0, 0);
        assert_eq!(bad[0].1, CsvError::FieldCount(0));
        assert_eq!(bad[1].0, 5);
        assert_eq!(src.bad_line_total(), 2);
    }

    #[test]
    fn ndjson_rejects_what_csv_rejects_in_integer_fields() {
        let good = "{\"plate\":\"YB-1\",\"lon\":114.125456,\"lat\":22.547123,\
                    \"time\":\"2014-12-05 15:22:00\",\"device\":100000,\"speed_kmh\":36.5,\
                    \"heading_deg\":270.0,\"gps\":1,\"overspeed\":0,\"sim\":\"138\",\
                    \"passenger\":1,\"color\":\"yellow\"}";
        let rec = decode_record_json(good, &mut Fleet::new()).unwrap();
        assert_eq!(rec.gps, GpsCondition::Available);

        let cases: Vec<(String, CsvError)> = vec![
            (good.replace("\"device\":100000", "\"device\":3.7"), CsvError::Field(5)),
            (good.replace("\"device\":100000", "\"device\":-1"), CsvError::Field(5)),
            (good.replace("\"device\":100000", "\"device\":4294967296"), CsvError::Field(5)),
            (good.replace("\"gps\":1", "\"gps\":1.9"), CsvError::Field(8)),
            (good.replace("\"gps\":1", "\"gps\":-1"), CsvError::Field(8)),
            (good.replace("\"gps\":1", "\"gps\":256"), CsvError::Field(8)),
            (good.replace("\"overspeed\":0", "\"overspeed\":0.5"), CsvError::Field(9)),
            (good.replace("\"overspeed\":0", "\"overspeed\":2"), CsvError::Field(9)),
            (good.replace("\"passenger\":1", "\"passenger\":0.9"), CsvError::Field(11)),
            (good.replace("\"passenger\":1", "\"passenger\":-0.5"), CsvError::Field(11)),
        ];
        for (line, want) in cases {
            let mut fleet = Fleet::new();
            let got = decode_record_json(&line, &mut fleet).unwrap_err();
            assert_eq!(got, want, "line: {line}");
            assert!(fleet.is_empty(), "a rejected line taught the fleet a plate: {line}");
        }
    }

    #[test]
    fn ndjson_non_utf8_line_is_a_bad_line_not_a_dropped_feed() {
        let (records, fleet) = sample(6);
        let text = encode_log_json(&records, &fleet).unwrap();
        let first_end = text.find('\n').unwrap() + 1;
        let mut bytes = text.as_bytes()[..first_end].to_vec();
        bytes.extend_from_slice(b"\xff\xfe\n");
        bytes.extend_from_slice(&text.as_bytes()[first_end..]);
        let mut src = NdJsonReader::new(Cursor::new(bytes), 1025);
        let (got, bad) = collect_source(&mut src).unwrap();
        assert_eq!(got, records);
        assert_eq!(bad, vec![(1, CsvError::FieldCount(0))]);
    }

    #[test]
    fn feed_format_parses_cli_spellings() {
        assert_eq!(FeedFormat::parse("csv"), Some(FeedFormat::Csv));
        assert_eq!(FeedFormat::parse("NDJSON"), Some(FeedFormat::NdJson));
        assert_eq!(FeedFormat::parse("jsonl"), Some(FeedFormat::NdJson));
        assert_eq!(FeedFormat::parse("xml"), None);
    }
}
