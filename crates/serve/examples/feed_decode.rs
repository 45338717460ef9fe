//! Feed decode cost by fleet size: ns per record through `FeedSource` at
//! the daemon's 64 KiB chunk, for CSV and ND-JSON.
//!
//! ```text
//! cargo run --release -p taxilight-serve --example feed_decode [PLATES...]
//! ```
//!
//! Each fleet size (default 1 000, 4 000 and 28 000 plates, the last the
//! paper's fleet) gets a feed of ten records per plate, plates taken
//! round-robin, so after the first round every record looks up a plate
//! the decoder already knows. Prints the median of five passes.

use std::io::Cursor;
use std::time::Instant;

use taxilight_serve::ingest::encode_feed;
use taxilight_serve::{FeedFormat, FeedSource};
use taxilight_trace::record::{Fleet, GpsCondition, PassengerState, TaxiRecord};
use taxilight_trace::source::{RecordBatch, RecordSource};
use taxilight_trace::time::Timestamp;
use taxilight_trace::GeoPoint;

const RECORDS_PER_PLATE: usize = 10;
const CHUNK: usize = 64 << 10;
const PASSES: usize = 5;

fn feed(plates: usize) -> (Vec<TaxiRecord>, Fleet) {
    let mut fleet = Fleet::new();
    let ids = fleet.register_many(plates);
    let t0 = Timestamp::civil(2014, 12, 5, 8, 0, 0);
    let records = (0..plates * RECORDS_PER_PLATE)
        .map(|k| TaxiRecord {
            taxi: ids[k % plates],
            position: GeoPoint::from_micro_degrees(
                22_500_000 + (k % 997) as i64 * 37,
                114_020_000 + (k % 991) as i64 * 41,
            ),
            time: t0.offset((k / plates) as i64 * 30),
            speed_kmh: (k % 770) as f64 / 10.0,
            heading_deg: (k * 37 % 3600) as f64 / 10.0,
            gps: GpsCondition::Available,
            overspeed: false,
            passenger: if k % 3 == 0 { PassengerState::Occupied } else { PassengerState::Vacant },
        })
        .collect();
    (records, fleet)
}

/// Median ns per record of decoding `bytes` with a fresh reader each pass.
fn decode_ns_per_record(bytes: &[u8], format: FeedFormat, records: usize) -> f64 {
    let mut passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let mut src = FeedSource::new(Cursor::new(bytes), format, CHUNK);
            let mut batch = RecordBatch::new();
            let mut decoded = 0;
            while src.next_batch(&mut batch).expect("in-memory reads cannot fail") {
                decoded += batch.len();
            }
            assert_eq!(decoded, records, "{format:?} feed did not decode cleanly");
            start.elapsed().as_nanos() as f64 / decoded as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[PASSES / 2]
}

fn main() {
    let args: Vec<usize> =
        std::env::args().skip(1).map(|a| a.parse().expect("PLATES must be a count")).collect();
    let fleets = if args.is_empty() { vec![1_000, 4_000, 28_000] } else { args };
    println!("{:>7} {:>9} {:>12} {:>15}", "plates", "records", "csv_ns/rec", "ndjson_ns/rec");
    for plates in fleets {
        let (records, fleet) = feed(plates);
        let [csv, ndjson] = [FeedFormat::Csv, FeedFormat::NdJson].map(|format| {
            let bytes = encode_feed(&records, &fleet, format).expect("every taxi is registered");
            decode_ns_per_record(bytes.as_bytes(), format, records.len())
        });
        println!("{plates:>7} {:>9} {csv:>12.0} {ndjson:>15.0}", records.len());
    }
}
