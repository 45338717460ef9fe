//! Minimal JSON support: deterministic float formatting and string
//! escaping shared by the metric/trace writers, a small
//! recursive-descent parser, and the validators behind the `obscheck`
//! binary (Chrome trace-event structure, metrics snapshot schema).
//!
//! The writers elsewhere in the workspace hand-roll their JSON (see
//! `eval::report::JsonWriter`); this module keeps the obs crate on the
//! same convention — shortest round-trip floats with a trailing `.0`
//! for integral values — so snapshots are byte-stable.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Formats a finite f64 with Rust's shortest round-trip representation,
/// forcing a `.0` suffix on integral values (the workspace-wide report
/// convention). Non-finite values render as `null`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let mut s = String::new();
    let _ = write!(s, "{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        s.push_str(".0");
    }
    s
}

/// Appends `s` to `out` with JSON string escaping (quotes, backslash,
/// control characters).
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value. Object member order is preserved (the trace
/// validator never relies on it, but error messages do).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The whole document; `pos` always sits on one of its char
    /// boundaries between tokens.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { offset: self.pos, message: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: combine when the low half
                            // follows; otherwise fall back to the
                            // replacement character (checker use only).
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            // hex4 already advanced past the digits.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // (or the end, which the next turn reports). Both
                    // delimiters are ASCII, so the run ends on a char
                    // boundary of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |k| self.pos + k);
                    out.push_str(&self.src[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// What [`validate_chrome_trace`] learned about a well-formed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events of every phase.
    pub events: usize,
    /// Complete begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Distinct `(pid, tid)` tracks carrying at least one event.
    pub tracks: usize,
    /// Thread-name metadata events.
    pub named_tracks: usize,
}

/// One `(pid, tid)` track and its stack of open `(name, ts)` spans.
type TrackStack = ((i64, i64), Vec<(String, f64)>);

/// Validates the Chrome trace-event structure Perfetto expects:
/// a top-level object with a `traceEvents` array whose members each
/// carry `name`/`ph`/`pid`/`tid` (and `ts` for non-metadata phases),
/// with `B`/`E` pairs strictly nested per `(pid, tid)` track —
/// LIFO order, matching names, non-decreasing timestamps, and no
/// unclosed span left at the end of any track.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;

    // Per-track stack of open (name, ts) pairs.
    let mut stacks: Vec<TrackStack> = Vec::new();
    let mut tracks: BTreeSet<(i64, i64)> = BTreeSet::new();
    let mut summary =
        TraceSummary { events: events.len(), spans: 0, instants: 0, tracks: 0, named_tracks: 0 };

    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: String| format!("traceEvents[{i}]: {msg}");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string \"name\"".into()))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string \"ph\"".into()))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric \"pid\"".into()))? as i64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric \"tid\"".into()))? as i64;
        let track = (pid, tid);

        if ph == "M" {
            if name == "thread_name" {
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("thread_name metadata missing args.name".into()))?;
                summary.named_tracks += 1;
            }
            continue;
        }

        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric \"ts\"".into()))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(ctx(format!("non-finite or negative ts {ts}")));
        }
        tracks.insert(track);

        let stack = match stacks.iter_mut().find(|(t, _)| *t == track) {
            Some((_, s)) => s,
            None => {
                stacks.push((track, Vec::new()));
                &mut stacks.last_mut().unwrap().1
            }
        };
        match ph {
            "B" => stack.push((name.to_string(), ts)),
            "E" => {
                let (open_name, open_ts) = stack.pop().ok_or_else(|| {
                    ctx(format!("\"E\" {name:?} on track {track:?} with no open span"))
                })?;
                if open_name != name {
                    return Err(ctx(format!(
                        "span end {name:?} does not match open span {open_name:?} (track {track:?})"
                    )));
                }
                if ts < open_ts {
                    return Err(ctx(format!(
                        "span {name:?} ends at ts {ts} before it began at {open_ts}"
                    )));
                }
                summary.spans += 1;
            }
            "i" | "I" => summary.instants += 1,
            other => return Err(ctx(format!("unsupported phase {other:?}"))),
        }
    }

    for (track, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!(
                "track {track:?} ends with unclosed span {name:?} ({} open)",
                stack.len()
            ));
        }
    }
    summary.tracks = tracks.len();
    Ok(summary)
}

/// What [`validate_flight_dump`] learned about a well-formed flight
/// bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSummary {
    /// The underlying Chrome-trace structure (a flight dump is a valid
    /// trace first).
    pub trace: TraceSummary,
    /// Why the dump happened (`flight.dump` marker `args.reason`; a
    /// trigger name, or `"on_demand"`).
    pub reason: String,
    /// Events lost to ring wraparound plus orphan ends sanitized away
    /// (`args.dropped`).
    pub dropped: u64,
}

/// Validates a flight-recorder forensic bundle: it must pass
/// [`validate_chrome_trace`] **and** carry exactly one `flight.dump`
/// marker event whose `args` report a string `reason` and numeric
/// `events`, `dropped`, and `rings` — the bookkeeping that makes ring
/// truncation visible instead of silent.
pub fn validate_flight_dump(doc: &Json) -> Result<FlightSummary, String> {
    let trace = validate_chrome_trace(doc)?;
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    let markers: Vec<&Json> = events
        .iter()
        .filter(|ev| ev.get("name").and_then(Json::as_str) == Some("flight.dump"))
        .collect();
    let marker = match markers.as_slice() {
        [m] => *m,
        [] => return Err("missing \"flight.dump\" marker event".into()),
        more => return Err(format!("expected one \"flight.dump\" marker, found {}", more.len())),
    };
    let args = marker.get("args").ok_or("flight.dump marker has no args")?;
    let reason = args
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("flight.dump marker missing string args.reason")?
        .to_string();
    for key in ["events", "dropped", "rings"] {
        args.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("flight.dump marker missing numeric args.{key}"))?;
    }
    let dropped = args.get("dropped").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(FlightSummary { trace, reason, dropped })
}

/// What [`validate_metrics`] learned about a well-formed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Entries in the `deterministic` section.
    pub deterministic: usize,
    /// Entries in the `volatile` section.
    pub volatile: usize,
}

/// Validates a `taxilight-metrics/1` snapshot: schema string, both
/// sections present as objects, and every metric value either a number
/// or a histogram object with `count`/`sum`/`buckets`.
pub fn validate_metrics(doc: &Json) -> Result<MetricsSummary, String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing string \"schema\"")?;
    if schema != "taxilight-metrics/1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let mut summary = MetricsSummary { deterministic: 0, volatile: 0 };
    for section in ["deterministic", "volatile"] {
        let members = doc
            .get(section)
            .ok_or_else(|| format!("missing section {section:?}"))?
            .as_obj()
            .ok_or_else(|| format!("section {section:?} is not an object"))?;
        for (id, value) in members {
            let ok = match value {
                Json::Num(_) | Json::Null => true,
                obj @ Json::Obj(_) => {
                    obj.get("count").and_then(Json::as_f64).is_some()
                        && obj.get("sum").is_some()
                        && obj.get("buckets").and_then(Json::as_arr).is_some()
                }
                _ => false,
            };
            if !ok {
                return Err(format!("{section}.{id}: unsupported metric value shape"));
            }
            match section {
                "deterministic" => summary.deterministic += 1,
                _ => summary.volatile += 1,
            }
        }
    }
    Ok(summary)
}

/// Extracts the byte span of the `"deterministic":{...}` section from
/// snapshot text (for byte-for-byte comparison across runs). Returns
/// `None` when the markers are absent.
pub fn deterministic_section(snapshot: &str) -> Option<&str> {
    let start = snapshot.find("\"deterministic\":")?;
    let end = snapshot[start..].find(",\"volatile\":")? + start;
    Some(&snapshot[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_convention() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-3.0), "-3.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parse_round_trip_basics() {
        let doc = parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":null,"d":true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn parse_unicode_escapes() {
        let doc = parse(r#""Aé😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("Aé😀"));
    }

    #[test]
    fn parse_raw_multibyte_around_escapes() {
        let doc = parse(r#"["é\n😀", "\t日本\"語", "üéß", "end€", "€", "", "\\"]"#).unwrap();
        let got: Vec<&str> = doc.as_arr().unwrap().iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(got, ["é\n😀", "\t日本\"語", "üéß", "end€", "€", "", "\\"]);
        // A string cut off after a multi-byte run reports where it ran out.
        let err = parse("\"日本").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (7, "unterminated string"));
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let original = "he said \"hi\\\" \n\t\u{1} ok";
        let mut buf = String::from("\"");
        escape_json_into(&mut buf, original);
        buf.push('"');
        assert_eq!(parse(&buf).unwrap().as_str(), Some(original));
    }

    #[test]
    fn chrome_validator_accepts_nested_and_rejects_crossed() {
        let good = parse(
            r#"{"traceEvents":[
                {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"w0"}},
                {"name":"outer","cat":"c","ph":"B","ts":0,"pid":1,"tid":1},
                {"name":"inner","cat":"c","ph":"B","ts":1,"pid":1,"tid":1},
                {"name":"blip","cat":"c","ph":"i","ts":2,"pid":1,"tid":1,"s":"t"},
                {"name":"inner","cat":"c","ph":"E","ts":3,"pid":1,"tid":1},
                {"name":"outer","cat":"c","ph":"E","ts":4,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        let s = validate_chrome_trace(&good).unwrap();
        assert_eq!(
            s,
            TraceSummary { events: 6, spans: 2, instants: 1, tracks: 1, named_tracks: 1 }
        );

        let crossed = parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
                {"name":"b","ph":"B","ts":1,"pid":1,"tid":1},
                {"name":"a","ph":"E","ts":2,"pid":1,"tid":1},
                {"name":"b","ph":"E","ts":3,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&crossed).unwrap_err().contains("does not match open span"));

        let unclosed =
            parse(r#"{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}"#).unwrap();
        assert!(validate_chrome_trace(&unclosed).unwrap_err().contains("unclosed span"));
    }

    #[test]
    fn flight_validator_requires_the_dump_marker() {
        let no_marker =
            parse(r#"{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":1,"tid":1}]}"#).unwrap();
        assert!(validate_flight_dump(&no_marker).unwrap_err().contains("flight.dump"));

        let good = parse(
            r#"{"traceEvents":[
                {"name":"flight.dump","ph":"i","ts":5,"pid":1,"tid":0,"s":"t",
                 "args":{"reason":"panic","events":1,"dropped":2,"rings":1}},
                {"name":"x","ph":"i","ts":0,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        let s = validate_flight_dump(&good).unwrap();
        assert_eq!(s.reason, "panic");
        assert_eq!(s.dropped, 2);
        assert_eq!(s.trace.instants, 2);

        let bad_args = parse(
            r#"{"traceEvents":[
                {"name":"flight.dump","ph":"i","ts":5,"pid":1,"tid":0,
                 "args":{"reason":"panic","events":1,"dropped":2}}
            ]}"#,
        )
        .unwrap();
        assert!(validate_flight_dump(&bad_args).unwrap_err().contains("args.rings"));
    }

    #[test]
    fn metrics_validator_and_section_extraction() {
        let text = "{\"schema\":\"taxilight-metrics/1\",\
                    \"deterministic\":{\"a\":1},\
                    \"volatile\":{\"h\":{\"count\":1,\"sum\":0.5,\"buckets\":[]}}}";
        let doc = parse(text).unwrap();
        assert_eq!(
            validate_metrics(&doc).unwrap(),
            MetricsSummary { deterministic: 1, volatile: 1 }
        );
        assert_eq!(deterministic_section(text), Some("\"deterministic\":{\"a\":1}"));

        let bad = parse("{\"schema\":\"nope\",\"deterministic\":{},\"volatile\":{}}").unwrap();
        assert!(validate_metrics(&bad).is_err());
    }
}
