//! One feed, every reader. The CSV chunk reader at several chunk sizes,
//! the whole-file decoders (`csv::decode_log`, `io::TraceReader`) and the
//! ND-JSON reader decode the same records, learn the same fleet and
//! report the same bad lines under the same numbers — at fleet scale,
//! across non-UTF-8 bytes, and on either side of the line-length bound.

use std::io::{BufReader, Cursor, Read};

use taxilight_serve::ingest::encode_log_json;
use taxilight_serve::{FeedFormat, FeedSource, NdJsonReader};
use taxilight_trace::csv::{decode_log, encode_log, CsvError, MAX_LINE_BYTES};
use taxilight_trace::io::TraceReader;
use taxilight_trace::record::{Fleet, GpsCondition, PassengerState, TaxiInfo, TaxiRecord};
use taxilight_trace::source::{collect_source, BadLine, CsvChunkReader};
use taxilight_trace::time::Timestamp;
use taxilight_trace::GeoPoint;

/// What a reader yields over a whole feed.
struct Decoded {
    records: Vec<TaxiRecord>,
    bad: Vec<BadLine>,
    fleet: Fleet,
}

impl Decoded {
    fn infos(&self) -> Vec<TaxiInfo> {
        self.fleet.iter().cloned().collect()
    }

    fn assert_same(&self, other: &Decoded, what: &str) {
        assert_eq!(self.records, other.records, "{what}: records diverged");
        assert_eq!(self.bad, other.bad, "{what}: bad lines diverged");
        assert_eq!(self.infos(), other.infos(), "{what}: fleets diverged");
    }
}

/// A reader that hands out at most `step` bytes per read, so lines
/// straddle buffer refills at every offset.
struct Trickle<R> {
    inner: R,
    step: usize,
}

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step);
        self.inner.read(&mut buf[..n])
    }
}

fn trickle(bytes: &[u8], step: usize) -> Trickle<Cursor<&[u8]>> {
    Trickle { inner: Cursor::new(bytes), step }
}

fn chunked(bytes: &[u8], chunk_bytes: usize) -> Decoded {
    let mut src = CsvChunkReader::new(Cursor::new(bytes), chunk_bytes);
    let (records, bad) = collect_source(&mut src).expect("in-memory reads cannot fail");
    Decoded { records, bad, fleet: src.into_fleet() }
}

fn whole_file(text: &str) -> Decoded {
    let mut fleet = Fleet::new();
    let (records, bad) = decode_log(text, &mut fleet);
    Decoded { records, bad, fleet }
}

fn trace_reader(reader: impl std::io::BufRead) -> Decoded {
    let mut fleet = Fleet::new();
    let (mut records, mut bad) = (Vec::new(), Vec::new());
    for (n, decoded) in TraceReader::new(reader, &mut fleet) {
        match decoded {
            Ok(r) => records.push(r),
            Err(e) => bad.push((n, e)),
        }
    }
    Decoded { records, bad, fleet }
}

fn ndjson(reader: impl Read, chunk_bytes: usize) -> Decoded {
    let mut src = NdJsonReader::new(reader, chunk_bytes);
    let (records, bad) = collect_source(&mut src).expect("in-memory reads cannot fail");
    Decoded { records, bad, fleet: src.fleet().clone() }
}

/// `n` records over `plates` taxis. Plates are visited out of id order
/// (7 919 is prime), so the ids the decoders learn in first-seen order
/// are a permutation of the generator's.
fn feed(plates: usize, n: usize) -> (Vec<TaxiRecord>, Fleet) {
    let mut fleet = Fleet::new();
    let ids = fleet.register_many(plates);
    let t0 = Timestamp::civil(2014, 12, 5, 8, 0, 0);
    let records = (0..n)
        .map(|k| TaxiRecord {
            taxi: ids[k * 7_919 % plates],
            position: GeoPoint::from_micro_degrees(
                22_500_000 + (k % 997) as i64 * 37,
                114_020_000 + (k % 991) as i64 * 41,
            ),
            time: t0.offset(k as i64),
            speed_kmh: (k % 770) as f64 / 10.0,
            heading_deg: (k * 37 % 3600) as f64 / 10.0,
            gps: if k % 50 == 0 { GpsCondition::Unavailable } else { GpsCondition::Available },
            overspeed: k % 13 == 0,
            passenger: if k % 3 == 0 { PassengerState::Occupied } else { PassengerState::Vacant },
        })
        .collect();
    (records, fleet)
}

/// `text` with `line` (terminator included) inserted before line `at`.
fn insert_line(text: &[u8], at: usize, line: &[u8]) -> Vec<u8> {
    let offset = text.split_inclusive(|&b| b == b'\n').take(at).map(<[u8]>::len).sum::<usize>();
    [&text[..offset], line, &text[offset..]].concat()
}

#[test]
fn large_fleet_decodes_identically_through_every_reader() {
    const PLATES: usize = 5_000;
    let (records, fleet) = feed(PLATES, 3 * PLATES);
    let csv = encode_log(&records, &fleet).unwrap();

    let reference = whole_file(&csv);
    assert_eq!(reference.records.len(), records.len());
    assert!(reference.bad.is_empty(), "{:?}", &reference.bad[..1]);
    assert_eq!(reference.fleet.len(), PLATES);
    // The learned index answers every plate with its first-seen id.
    for info in reference.fleet.iter() {
        assert_eq!(reference.fleet.find_by_plate(&info.plate), Some(info.id));
    }

    for chunk_bytes in [7, 4096, 1 << 16, 1 << 22] {
        chunked(csv.as_bytes(), chunk_bytes)
            .assert_same(&reference, &format!("CsvChunkReader chunk_bytes={chunk_bytes}"));
    }
    trace_reader(Cursor::new(csv.as_bytes())).assert_same(&reference, "TraceReader");

    // The ND-JSON encoding of the decoded records decodes back to them:
    // CSV's micro-degree positions and one-decimal speeds are exact in
    // ND-JSON's shortest round-trip floats.
    let nd = encode_log_json(&reference.records, &reference.fleet).unwrap();
    for chunk_bytes in [1, 64, 1025] {
        ndjson(Cursor::new(nd.as_bytes()), chunk_bytes)
            .assert_same(&reference, &format!("NdJsonReader chunk_bytes={chunk_bytes}"));
    }
    // The daemon's own wiring of both formats, at its 64 KiB chunk.
    for (format, bytes) in [(FeedFormat::Csv, csv.as_bytes()), (FeedFormat::NdJson, nd.as_bytes())]
    {
        let mut src = FeedSource::new(Cursor::new(bytes), format, 1 << 16);
        let (got, bad) = collect_source(&mut src).unwrap();
        let learned = match &src {
            FeedSource::Csv(s) => s.fleet(),
            FeedSource::NdJson(s) => s.fleet(),
        };
        assert_eq!(got, reference.records, "FeedSource {format:?}");
        assert!(bad.is_empty());
        assert_eq!(learned.iter().cloned().collect::<Vec<_>>(), reference.infos());
    }
}

#[test]
fn non_utf8_line_is_one_bad_line_in_every_reader() {
    let (records, fleet) = feed(3, 6);
    let csv = insert_line(encode_log(&records, &fleet).unwrap().as_bytes(), 1, b"\xff\xfe\n");
    let nd = insert_line(encode_log_json(&records, &fleet).unwrap().as_bytes(), 1, b"\xff\xfe\n");

    let reference = chunked(&csv, 1 << 16);
    assert_eq!(reference.records.len(), 6, "the line after the bad one was lost");
    assert_eq!(reference.bad, vec![(1, CsvError::FieldCount(1))]);
    for chunk_bytes in [1, 2, 5, 64] {
        chunked(&csv, chunk_bytes).assert_same(&reference, &format!("chunk_bytes={chunk_bytes}"));
    }
    for step in [1, 3, 4096] {
        trace_reader(BufReader::with_capacity(16, trickle(&csv, step)))
            .assert_same(&reference, &format!("TraceReader step={step}"));
        // Same records and fleet; ND-JSON's parse failure is its own
        // error, on the same line.
        let got = ndjson(trickle(&nd, step), 2);
        assert_eq!(got.records, reference.records, "NdJsonReader step={step}");
        assert_eq!(got.infos(), reference.infos(), "NdJsonReader step={step}");
        assert_eq!(got.bad, vec![(1, CsvError::FieldCount(0))], "NdJsonReader step={step}");
    }
}

/// `line` with its first `plate` padded with `P`s so the line is `len`
/// bytes long.
fn pad_plate(line: &str, plate: &str, len: usize) -> String {
    let pad = "P".repeat(len - line.len());
    line.replacen(plate, &format!("{plate}{pad}"), 1)
}

/// Line number of the over-long line in [`bound_feed`].
const OVER_LINE: usize = 3;

/// Five lines: a record, one exactly at the bound, a record, one a byte
/// over the bound, a record — every line ended by `term`.
fn bound_feed(lines: &[String], term: &str) -> Vec<u8> {
    let plate = "YB-00001";
    let at = pad_plate(&lines[0], plate, MAX_LINE_BYTES);
    let over = pad_plate(&lines[0], plate, MAX_LINE_BYTES + 1);
    assert_eq!((at.len(), over.len()), (MAX_LINE_BYTES, MAX_LINE_BYTES + 1));
    let body = [&lines[0], &at, &lines[1], &over, &lines[2]].map(|l| format!("{l}{term}")).concat();
    body.into_bytes()
}

#[test]
fn line_bound_is_exact_in_every_reader_at_every_chunk_size() {
    let (records, fleet) = feed(3, 3);
    let csv_lines: Vec<String> =
        encode_log(&records, &fleet).unwrap().lines().map(String::from).collect();
    let nd_lines: Vec<String> =
        encode_log_json(&records, &fleet).unwrap().lines().map(String::from).collect();
    for term in ["\n", "\r\n"] {
        let csv = bound_feed(&csv_lines, term);
        let reference = whole_file(std::str::from_utf8(&csv).unwrap());
        assert_eq!(reference.records.len(), 4, "{term:?}: the line at the bound was rejected");
        assert_eq!(reference.bad, vec![(OVER_LINE, CsvError::LineTooLong)], "{term:?}");
        for chunk_bytes in [1, 7, MAX_LINE_BYTES - 1, MAX_LINE_BYTES, MAX_LINE_BYTES + 1, 1 << 16] {
            chunked(&csv, chunk_bytes)
                .assert_same(&reference, &format!("{term:?} chunk_bytes={chunk_bytes}"));
        }
        for step in [1, 7, MAX_LINE_BYTES + 1, 1 << 16] {
            trace_reader(BufReader::with_capacity(4096, trickle(&csv, step)))
                .assert_same(&reference, &format!("{term:?} TraceReader step={step}"));
        }

        let nd = bound_feed(&nd_lines, term);
        let nd_reference = ndjson(Cursor::new(&nd), 1025);
        assert_eq!(nd_reference.records.len(), 4, "{term:?}: ND-JSON line at the bound rejected");
        assert_eq!(nd_reference.bad, vec![(OVER_LINE, CsvError::LineTooLong)], "{term:?}");
        for step in [1, 7, MAX_LINE_BYTES + 1] {
            for chunk_bytes in [1, 2, 1025] {
                ndjson(trickle(&nd, step), chunk_bytes).assert_same(
                    &nd_reference,
                    &format!("{term:?} NdJsonReader step={step} chunk_bytes={chunk_bytes}"),
                );
            }
        }
    }
}

#[test]
fn newline_free_stream_is_one_bad_line_and_the_feed_goes_on() {
    let (records, fleet) = feed(2, 2);
    for format in [FeedFormat::Csv, FeedFormat::NdJson] {
        let tail = taxilight_serve::ingest::encode_feed(&records, &fleet, format).unwrap();
        let mut bytes = vec![b'{'; 3 << 20];
        bytes.push(b'\n');
        bytes.extend_from_slice(tail.as_bytes());
        let mut src = FeedSource::new(Cursor::new(bytes), format, 1 << 16);
        let (got, bad) = collect_source(&mut src).unwrap();
        assert_eq!(bad, vec![(0, CsvError::LineTooLong)], "{format:?}");
        assert_eq!(got.len(), records.len(), "{format:?}");
        assert_eq!(src.record_total(), records.len() as u64);
        assert_eq!(src.bad_line_total(), 1);
    }
}

mod arbitrary_bytes {
    use super::*;
    use proptest::prelude::*;

    /// Byte strings weighted towards what both wire formats split and
    /// nest on — `\n`, `,`, `{`, `"` — with whole CSV and ND-JSON record
    /// lines mixed in so some records decode and the fleet grows, and
    /// arbitrary bytes (non-UTF-8 included) for the rest.
    fn feed_like_bytes() -> impl Strategy<Value = Vec<u8>> {
        let (records, fleet) = feed(3, 4);
        let csv = encode_log(&records, &fleet).unwrap();
        let nd = encode_log_json(&records, &fleet).unwrap();
        let lines: Vec<Vec<u8>> =
            csv.lines().chain(nd.lines()).map(|l| format!("{l}\n").into_bytes()).collect();
        prop::collection::vec((0usize..24, 0u8..=255), 0..256).prop_map(move |picks| {
            let mut out = Vec::new();
            for (pick, byte) in picks {
                match pick {
                    0..=3 => out.push(b'\n'),
                    4..=5 => out.push(b','),
                    6..=7 => out.push(b'{'),
                    8..=9 => out.push(b'"'),
                    10..=12 => out.extend_from_slice(&lines[byte as usize % lines.len()]),
                    _ => out.push(byte),
                }
            }
            out
        })
    }

    /// Everything a [`FeedSource`] reports after reading `bytes` to EOF.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        records: Vec<TaxiRecord>,
        bad: Vec<BadLine>,
        record_total: u64,
        bad_line_total: u64,
        fleet_len: usize,
    }

    fn decode(bytes: &[u8], format: FeedFormat, chunk: usize) -> Result<Outcome, String> {
        let mut src = FeedSource::new(Cursor::new(bytes), format, chunk);
        let (records, bad) = collect_source(&mut src).map_err(|e| format!("{e:?}"))?;
        let fleet_len = match &src {
            FeedSource::Csv(s) => s.fleet().len(),
            FeedSource::NdJson(s) => s.fleet().len(),
        };
        Ok(Outcome {
            records,
            bad,
            record_total: src.record_total(),
            bad_line_total: src.bad_line_total(),
            fleet_len,
        })
    }

    proptest! {
        #[test]
        fn any_bytes_decode_alike_at_two_chunk_sizes(
            bytes in feed_like_bytes(),
            a in 1usize..4096,
            b in 1usize..4096,
        ) {
            let lines = bytes.split(|&c| c == b'\n').count() as u64;
            for format in [FeedFormat::Csv, FeedFormat::NdJson] {
                let x = decode(&bytes, format, a);
                prop_assert!(x.is_ok(), "{format:?} chunk {a}: {x:?}");
                let y = decode(&bytes, format, b);
                prop_assert!(y.is_ok(), "{format:?} chunk {b}: {y:?}");
                let (x, y) = (x.unwrap(), y.unwrap());
                prop_assert_eq!(&x, &y, "{:?}: chunk {} vs chunk {}", format, a, b);
                prop_assert_eq!(x.record_total, x.records.len() as u64);
                prop_assert_eq!(x.bad_line_total, x.bad.len() as u64);
                prop_assert!(
                    x.record_total + x.bad_line_total <= lines,
                    "{format:?}: {} records + {} bad lines from {lines} lines",
                    x.record_total,
                    x.bad_line_total
                );
            }
        }
    }
}
