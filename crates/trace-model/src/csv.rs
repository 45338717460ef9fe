//! The comma-separated upload wire format of Table I.
//!
//! Field order and encodings follow the table exactly:
//!
//! | # | field | format |
//! |---|-------|--------|
//! | 1 | car plate number | string |
//! | 2 | longitude | degrees × 1 000 000, integer |
//! | 3 | latitude | degrees × 1 000 000, integer |
//! | 4 | report time | `YYYY-MM-DD HH:mm:ss` |
//! | 5 | onboard device id | number |
//! | 6 | driving speed | km/h |
//! | 7 | car heading | degrees to north, clockwise |
//! | 8 | GPS condition | 0 unavailable / 1 available |
//! | 9 | overspeed warning | 1 overspeed |
//! | 10 | SIM card number | string |
//! | 11 | passenger condition | 0 vacant / 1 occupied |
//! | 12 | taxi body colour | `yellow`, `blue`, … |

use crate::record::{BodyColor, Fleet, GpsCondition, PassengerState, TaxiRecord};
use crate::time::Timestamp;
use crate::GeoPoint;

/// Longest feed line any reader accepts, in bytes, not counting its `\n`
/// or `\r\n` terminator. A Table-I CSV line is ~95 bytes and an ND-JSON
/// line ~200; a longer line is one bad line ([`CsvError::LineTooLong`]),
/// and a reader skips its excess without buffering it.
pub const MAX_LINE_BYTES: usize = 4096;

/// Most bytes a reader holds of one line, its `\n` excluded: the bound
/// plus the `\r` of a `\r\n` terminator, which only the next byte can
/// confirm.
pub(crate) const LINE_BUF_BYTES: usize = MAX_LINE_BYTES + 1;

/// Errors from decoding a Table-I CSV line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The line does not have exactly 12 comma-separated fields.
    FieldCount(usize),
    /// A field failed to parse; carries the 1-based Table-I field index.
    Field(u8),
    /// The record references a taxi id absent from the fleet (encode side).
    UnknownTaxi(u32),
    /// The line is longer than [`MAX_LINE_BYTES`].
    LineTooLong,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::FieldCount(n) => write!(f, "expected 12 fields, found {n}"),
            CsvError::Field(i) => write!(f, "malformed field {i}"),
            CsvError::UnknownTaxi(id) => write!(f, "taxi id {id} not in fleet"),
            CsvError::LineTooLong => write!(f, "line longer than {MAX_LINE_BYTES} bytes"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Encodes one record as a Table-I CSV line (no trailing newline).
pub fn encode_record(record: &TaxiRecord, fleet: &Fleet) -> Result<String, CsvError> {
    let info = fleet.info(record.taxi).ok_or(CsvError::UnknownTaxi(record.taxi.0))?;
    let (lat6, lon6) = record.position.to_micro_degrees();
    Ok(format!(
        "{},{},{},{},{},{:.1},{:.1},{},{},{},{},{}",
        info.plate,
        lon6,
        lat6,
        record.time.format(),
        info.device_id,
        record.speed_kmh,
        record.heading_deg,
        record.gps.to_wire(),
        u8::from(record.overspeed),
        info.sim,
        record.passenger.to_wire(),
        info.color.as_str(),
    ))
}

/// True when `line`, less one `\n` or `\r\n` terminator, is longer than
/// [`MAX_LINE_BYTES`].
fn is_overlong(line: &str) -> bool {
    let body = line.strip_suffix('\n').unwrap_or(line);
    body.strip_suffix('\r').unwrap_or(body).len() > MAX_LINE_BYTES
}

/// A one-line record decoder: [`decode_record`] for CSV, or the ND-JSON
/// decoder of a feed socket.
pub type LineDecode = fn(&str, &mut Fleet) -> Result<TaxiRecord, CsvError>;

/// Decodes one raw feed line the way every reader does, so all of them
/// agree line for line. Returns `None` for a blank line, which readers
/// skip. Bytes that are not UTF-8 decode lossily to U+FFFD, so at worst
/// they fail a field, never the feed; a line over [`MAX_LINE_BYTES`]
/// after that is [`CsvError::LineTooLong`] whatever it holds.
pub fn decode_line(
    raw: &[u8],
    fleet: &mut Fleet,
    decode: LineDecode,
) -> Option<Result<TaxiRecord, CsvError>> {
    let text = String::from_utf8_lossy(raw);
    if is_overlong(&text) {
        return Some(Err(CsvError::LineTooLong));
    }
    if text.trim().is_empty() {
        return None;
    }
    Some(decode(&text, fleet))
}

/// Decodes one Table-I CSV line.
///
/// Unknown plates are registered into `fleet` on the fly (the data centre
/// learns the fleet from the stream); a known plate reuses its id.
pub fn decode_record(line: &str, fleet: &mut Fleet) -> Result<TaxiRecord, CsvError> {
    if is_overlong(line) {
        return Err(CsvError::LineTooLong);
    }
    let fields: Vec<&str> = line.trim_end_matches(['\r', '\n']).split(',').collect();
    if fields.len() != 12 {
        return Err(CsvError::FieldCount(fields.len()));
    }
    let plate = fields[0];
    let lon6: i64 = fields[1].trim().parse().map_err(|_| CsvError::Field(2))?;
    let lat6: i64 = fields[2].trim().parse().map_err(|_| CsvError::Field(3))?;
    let time = Timestamp::parse(fields[3].trim()).map_err(|_| CsvError::Field(4))?;
    let device_id: u32 = fields[4].trim().parse().map_err(|_| CsvError::Field(5))?;
    let speed_kmh: f64 = fields[5].trim().parse().map_err(|_| CsvError::Field(6))?;
    let heading_deg: f64 = fields[6].trim().parse().map_err(|_| CsvError::Field(7))?;
    let gps = fields[7]
        .trim()
        .parse::<u8>()
        .ok()
        .and_then(GpsCondition::from_wire)
        .ok_or(CsvError::Field(8))?;
    let overspeed = match fields[8].trim() {
        "0" => false,
        "1" => true,
        _ => return Err(CsvError::Field(9)),
    };
    let sim = fields[9];
    let passenger = fields[10]
        .trim()
        .parse::<u8>()
        .ok()
        .and_then(PassengerState::from_wire)
        .ok_or(CsvError::Field(11))?;
    let color = BodyColor::from_str_loose(fields[11].trim()).ok_or(CsvError::Field(12))?;

    Ok(TaxiRecord {
        taxi: fleet.intern(plate, device_id, sim, color),
        position: GeoPoint::from_micro_degrees(lat6, lon6),
        time,
        speed_kmh,
        heading_deg,
        gps,
        overspeed,
        passenger,
    })
}

/// Encodes many records, one line each, newline-terminated.
pub fn encode_log(records: &[TaxiRecord], fleet: &Fleet) -> Result<String, CsvError> {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        out.push_str(&encode_record(r, fleet)?);
        out.push('\n');
    }
    Ok(out)
}

/// Decodes a multi-line Table-I CSV document, skipping blank lines. Returns
/// the records plus the index (0-based line number) and error of every
/// rejected line — real feeds contain garbage and the paper's preprocessing
/// drops it rather than aborting.
pub fn decode_log(text: &str, fleet: &mut Fleet) -> (Vec<TaxiRecord>, Vec<(usize, CsvError)>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    // Split on `\n` alone, like the streaming readers: a `\r` stays for
    // `decode_line` to count as part of a `\r\n` terminator.
    for (i, line) in text.split_terminator('\n').enumerate() {
        match decode_line(line.as_bytes(), fleet, decode_record) {
            None => {}
            Some(Ok(r)) => records.push(r),
            Some(Err(e)) => errors.push((i, e)),
        }
    }
    (records, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TaxiId;

    fn fixture() -> (TaxiRecord, Fleet) {
        let mut fleet = Fleet::new();
        let taxi = fleet.register();
        let record = TaxiRecord {
            taxi,
            position: GeoPoint::new(22.547123, 114.125456),
            time: Timestamp::civil(2014, 12, 5, 15, 22, 0),
            speed_kmh: 36.5,
            heading_deg: 270.0,
            gps: GpsCondition::Available,
            overspeed: false,
            passenger: PassengerState::Occupied,
        };
        (record, fleet)
    }

    #[test]
    fn encode_produces_table1_layout() {
        let (record, fleet) = fixture();
        let line = encode_record(&record, &fleet).unwrap();
        assert_eq!(
            line,
            "YB-00001,114125456,22547123,2014-12-05 15:22:00,100000,36.5,270.0,1,0,138000000001,1,yellow"
        );
    }

    #[test]
    fn decode_round_trip() {
        let (record, fleet) = fixture();
        let line = encode_record(&record, &fleet).unwrap();
        let mut fleet2 = Fleet::new();
        let back = decode_record(&line, &mut fleet2).unwrap();
        assert_eq!(back.time, record.time);
        assert!((back.position.lat - record.position.lat).abs() < 1e-6);
        assert!((back.position.lon - record.position.lon).abs() < 1e-6);
        assert_eq!(back.speed_kmh, record.speed_kmh);
        assert_eq!(back.heading_deg, record.heading_deg);
        assert_eq!(back.gps, record.gps);
        assert_eq!(back.overspeed, record.overspeed);
        assert_eq!(back.passenger, record.passenger);
        // The new fleet learned the taxi.
        let info = fleet2.info(back.taxi).unwrap();
        assert_eq!(info.plate, "YB-00001");
        assert_eq!(info.device_id, 100_000);
        assert_eq!(info.color, BodyColor::Yellow);
    }

    #[test]
    fn decode_reuses_known_plate() {
        let (record, fleet) = fixture();
        let line = encode_record(&record, &fleet).unwrap();
        let mut fleet2 = Fleet::new();
        let a = decode_record(&line, &mut fleet2).unwrap();
        let b = decode_record(&line, &mut fleet2).unwrap();
        assert_eq!(a.taxi, b.taxi);
        assert_eq!(fleet2.len(), 1);
    }

    #[test]
    fn encode_unknown_taxi_fails() {
        let (mut record, fleet) = fixture();
        record.taxi = TaxiId(99);
        assert_eq!(encode_record(&record, &fleet), Err(CsvError::UnknownTaxi(99)));
    }

    #[test]
    fn decode_rejects_malformed_fields() {
        let good = "YB-1,114125456,22547123,2014-12-05 15:22:00,100000,36.5,270.0,1,0,138,1,yellow";
        let mut fleet = Fleet::new();
        assert!(decode_record(good, &mut fleet).is_ok());

        let cases: Vec<(String, CsvError)> = vec![
            ("a,b,c".to_string(), CsvError::FieldCount(3)),
            (good.replace("114125456", "oops"), CsvError::Field(2)),
            (good.replace("22547123", "oops"), CsvError::Field(3)),
            (good.replace("2014-12-05 15:22:00", "2014-13-05 15:22:00"), CsvError::Field(4)),
            (good.replace(",100000,", ",dev,"), CsvError::Field(5)),
            (good.replace(",36.5,", ",fast,"), CsvError::Field(6)),
            (good.replace(",270.0,", ",west,"), CsvError::Field(7)),
            (good.replace(",1,0,138,", ",7,0,138,"), CsvError::Field(8)),
            (good.replace(",0,138,", ",maybe,138,"), CsvError::Field(9)),
            (good.replace(",1,yellow", ",5,yellow"), CsvError::Field(11)),
            (good.replace("yellow", "plaid"), CsvError::Field(12)),
        ];
        for (line, want) in cases {
            let got = decode_record(&line, &mut Fleet::new()).unwrap_err();
            assert_eq!(got, want, "line: {line}");
        }
    }

    #[test]
    fn error_display_messages() {
        assert!(CsvError::FieldCount(3).to_string().contains("12 fields"));
        assert!(CsvError::Field(6).to_string().contains("field 6"));
        assert!(CsvError::UnknownTaxi(4).to_string().contains("4"));
        assert!(CsvError::LineTooLong.to_string().contains("4096 bytes"));
    }

    /// A valid line whose plate is padded so the line is `len` bytes.
    fn line_of_len(len: usize) -> String {
        let tail = ",114125456,22547123,2014-12-05 15:22:00,100000,36.5,270.0,1,0,138,1,yellow";
        format!("{}{tail}", "P".repeat(len - tail.len()))
    }

    #[test]
    fn line_bound_excludes_the_terminator() {
        for term in ["", "\n", "\r\n"] {
            let at = line_of_len(MAX_LINE_BYTES) + term;
            let rec = decode_record(&at, &mut Fleet::new())
                .unwrap_or_else(|e| panic!("{term:?}: a line of exactly the bound failed: {e}"));
            assert_eq!(rec.speed_kmh, 36.5);
            let over = line_of_len(MAX_LINE_BYTES + 1) + term;
            assert_eq!(decode_record(&over, &mut Fleet::new()), Err(CsvError::LineTooLong));
        }
        // Only one `\r` belongs to the terminator; a second is content.
        let two_cr = line_of_len(MAX_LINE_BYTES) + "\r\r\n";
        assert_eq!(decode_record(&two_cr, &mut Fleet::new()), Err(CsvError::LineTooLong));
    }

    #[test]
    fn decode_line_skips_blanks_but_never_an_overlong_line() {
        let mut fleet = Fleet::new();
        assert_eq!(decode_line(b"  \r", &mut fleet, decode_record), None);
        let spaces = " ".repeat(MAX_LINE_BYTES + 1);
        assert_eq!(
            decode_line(spaces.as_bytes(), &mut fleet, decode_record),
            Some(Err(CsvError::LineTooLong))
        );
        // Non-UTF-8 bytes become U+FFFD and fail a field, not the reader.
        assert_eq!(
            decode_line(b"\xff\xfe", &mut fleet, decode_record),
            Some(Err(CsvError::FieldCount(1)))
        );
        assert!(fleet.is_empty());
    }

    #[test]
    fn decode_log_numbers_an_overlong_line_like_any_bad_line() {
        let text = format!(
            "{}\n\n{}\r\n{}\n",
            line_of_len(90),
            line_of_len(MAX_LINE_BYTES + 1),
            line_of_len(MAX_LINE_BYTES)
        );
        let (records, errors) = decode_log(&text, &mut Fleet::new());
        assert_eq!(records.len(), 2);
        assert_eq!(errors, vec![(2, CsvError::LineTooLong)]);
    }

    #[test]
    fn log_round_trip_and_error_collection() {
        let mut fleet = Fleet::new();
        let taxis = fleet.register_many(3);
        let t0 = Timestamp::civil(2014, 5, 21, 8, 0, 0);
        let records: Vec<TaxiRecord> = taxis
            .iter()
            .enumerate()
            .map(|(k, &taxi)| TaxiRecord {
                taxi,
                position: GeoPoint::new(22.5 + k as f64 * 0.001, 114.1),
                time: t0.offset(k as i64 * 30),
                speed_kmh: 10.0 * k as f64,
                heading_deg: 45.0,
                gps: GpsCondition::Available,
                overspeed: k == 2,
                passenger: PassengerState::Vacant,
            })
            .collect();
        let mut text = encode_log(&records, &fleet).unwrap();
        text.push_str("\ncorrupted,line\n\n");
        let mut fleet2 = Fleet::new();
        let (decoded, errors) = decode_log(&text, &mut fleet2);
        assert_eq!(decoded.len(), 3);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].1, CsvError::FieldCount(2));
        assert_eq!(fleet2.len(), 3);
        assert!(decoded[2].overspeed);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn arbitrary_record_round_trips(
                lat in 22.0f64..23.0,
                lon in 113.5f64..114.5,
                secs in 1_400_000_000i64..1_450_000_000,
                speed10 in 0u32..1200,
                heading10 in 0u32..3599,
                gps_ok in proptest::bool::ANY,
                overspeed in proptest::bool::ANY,
                occupied in proptest::bool::ANY,
            ) {
                let mut fleet = Fleet::new();
                let taxi = fleet.register();
                // Quantise to wire resolution so equality is exact.
                let record = TaxiRecord {
                    taxi,
                    position: GeoPoint::from_micro_degrees(
                        (lat * 1e6) as i64, (lon * 1e6) as i64),
                    time: Timestamp(secs),
                    speed_kmh: speed10 as f64 / 10.0,
                    heading_deg: heading10 as f64 / 10.0,
                    gps: if gps_ok { GpsCondition::Available } else { GpsCondition::Unavailable },
                    overspeed,
                    passenger: if occupied { PassengerState::Occupied } else { PassengerState::Vacant },
                };
                let line = encode_record(&record, &fleet).unwrap();
                let back = decode_record(&line, &mut Fleet::new()).unwrap();
                prop_assert_eq!(back.time, record.time);
                prop_assert!((back.speed_kmh - record.speed_kmh).abs() < 1e-9);
                prop_assert!((back.heading_deg - record.heading_deg).abs() < 1e-9);
                prop_assert_eq!(back.gps, record.gps);
                prop_assert_eq!(back.overspeed, record.overspeed);
                prop_assert_eq!(back.passenger, record.passenger);
                prop_assert!(back.position.distance_m(record.position) < 0.2);
            }
        }
    }
}
