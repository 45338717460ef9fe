//! Dependency-free HTTP/1.1 plumbing: just enough of RFC 9112 for the
//! daemon's GET-only query surface.
//!
//! One [`Request`] is parsed per round trip; responses are written with
//! explicit `Content-Length` so persistent connections (the HTTP/1.1
//! default) work — the load generator drives thousands of queries down
//! one socket. Anything outside the subset (bodies, chunked encoding,
//! methods other than GET/HEAD) is answered with a clean 4xx/5xx rather
//! than hung up on.

use std::io::{self, BufRead, Write};
use taxilight_trace::io::read_line_capped;

/// Longest request or header line accepted, in bytes (its `\n` excluded).
pub const MAX_HEAD_LINE_BYTES: usize = 8 * 1024;

/// Most header lines accepted in one request head.
pub const MAX_HEADERS: usize = 100;

/// A parsed request line plus the connection-relevant headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased (`GET`, `HEAD`, …).
    pub method: String,
    /// Path component of the request target, percent-decoded.
    pub path: String,
    /// Raw query string (no leading `?`), empty when absent.
    pub query: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

/// Outcome of reading one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Peer closed the connection cleanly between requests.
    Closed,
    /// The bytes did not form a parseable request head.
    Malformed,
}

/// Reads one request head (request line + headers) from `reader`.
///
/// Request bodies are not supported: a request advertising one is
/// reported as [`ReadOutcome::Malformed`] so the caller can answer 400
/// and drop the connection instead of desynchronising. So is a head with
/// a line longer than [`MAX_HEAD_LINE_BYTES`], more than [`MAX_HEADERS`]
/// headers, or bytes that are not UTF-8; reading stops at the first byte
/// past a bound.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<ReadOutcome> {
    let mut buf = Vec::new();
    let line = match read_line_capped(reader, &mut buf, MAX_HEAD_LINE_BYTES)? {
        None => return Ok(ReadOutcome::Closed),
        Some(true) => std::str::from_utf8(&buf).ok(),
        Some(false) => None,
    };
    let Some(line) = line else {
        return Ok(ReadOutcome::Malformed);
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Malformed);
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed);
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    let method = method.to_ascii_uppercase();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (percent_decode(p), q.to_string()),
        None => (percent_decode(target), String::new()),
    };

    // Drain headers up to the empty line.
    let mut has_body = false;
    let mut headers = 0;
    loop {
        let header = match read_line_capped(reader, &mut buf, MAX_HEAD_LINE_BYTES)? {
            Some(true) => std::str::from_utf8(&buf).ok(),
            _ => None,
        };
        let Some(header) = header else {
            return Ok(ReadOutcome::Malformed);
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(ReadOutcome::Malformed);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Ok(ReadOutcome::Malformed);
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            has_body = value.parse::<u64>().map(|n| n > 0).unwrap_or(true);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            has_body = true;
        }
    }
    if has_body {
        return Ok(ReadOutcome::Malformed);
    }
    Ok(ReadOutcome::Request(Request { method, path, query, keep_alive }))
}

/// Decodes `%XX` escapes (and `+` as space, for query values routed
/// through here). Invalid escapes pass through literally.
pub fn percent_decode(s: &str) -> String {
    let hex = |b: u8| (b as char).to_digit(16).map(|d| d as u8);
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut k = 0;
    while k < bytes.len() {
        match bytes[k] {
            b'%' if k + 2 < bytes.len() => match (hex(bytes[k + 1]), hex(bytes[k + 2])) {
                (Some(hi), Some(lo)) => {
                    out.push(hi << 4 | lo);
                    k += 3;
                }
                _ => {
                    out.push(b'%');
                    k += 1;
                }
            },
            b'+' => {
                out.push(b' ');
                k += 1;
            }
            b => {
                out.push(b);
                k += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Looks up `key` in a raw query string, percent-decoded.
pub fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then(|| percent_decode(v))
    })
}

/// Writes one response with explicit `Content-Length`.
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> ReadOutcome {
        read_request(&mut Cursor::new(raw.as_bytes())).unwrap()
    }

    #[test]
    fn parses_get_with_query_and_keepalive_default() {
        let ReadOutcome::Request(r) =
            parse("GET /green_wait/7?t=2014-12-05%2009:30:00 HTTP/1.1\r\nHost: x\r\n\r\n")
        else {
            panic!("expected request");
        };
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/green_wait/7");
        assert_eq!(r.query, "t=2014-12-05%2009:30:00");
        assert!(r.keep_alive);
        assert_eq!(query_param(&r.query, "t").unwrap(), "2014-12-05 09:30:00");
        assert_eq!(query_param(&r.query, "missing"), None);
    }

    #[test]
    fn connection_close_and_http10_disable_keepalive() {
        let ReadOutcome::Request(r) = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n") else {
            panic!("expected request");
        };
        assert!(!r.keep_alive);
        let ReadOutcome::Request(r) = parse("GET / HTTP/1.0\r\n\r\n") else {
            panic!("expected request");
        };
        assert!(!r.keep_alive);
    }

    #[test]
    fn eof_is_closed_and_garbage_is_malformed() {
        assert!(matches!(parse(""), ReadOutcome::Closed));
        assert!(matches!(parse("not http\r\n\r\n"), ReadOutcome::Malformed));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
            ReadOutcome::Malformed
        ));
    }

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%2Fx"), "/x");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("%2"), "%2");
        assert_eq!(percent_decode("%+1"), "% 1", "a sign is not a hex digit");
    }

    #[test]
    fn escape_before_a_multibyte_char_passes_through() {
        assert_eq!(percent_decode("%aé"), "%aé");
        assert_eq!(query_param("t=%aé", "t").unwrap(), "%aé");
        let ReadOutcome::Request(r) = parse("GET /schedule/%aé HTTP/1.1\r\n\r\n") else {
            panic!("expected request");
        };
        assert_eq!(r.path, "/schedule/%aé");
    }

    #[test]
    fn overlong_header_line_is_malformed_without_reading_past_the_cap() {
        let request_line = "GET / HTTP/1.1\r\n";
        let mut raw = format!("{request_line}X-Long: ").into_bytes();
        raw.resize(raw.len() + (1 << 20), b'a');
        let mut reader = Cursor::new(raw);
        assert!(matches!(read_request(&mut reader).unwrap(), ReadOutcome::Malformed));
        assert!(reader.position() as usize <= request_line.len() + MAX_HEAD_LINE_BYTES);
    }

    #[test]
    fn too_many_headers_are_malformed() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for k in 0..10_000 {
            raw.push_str(&format!("X-H{k}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), ReadOutcome::Malformed));
    }

    #[test]
    fn non_utf8_head_is_malformed() {
        let mut raw = b"GET /\xff HTTP/1.1\r\n\r\n".to_vec();
        assert!(matches!(read_request(&mut Cursor::new(&raw)).unwrap(), ReadOutcome::Malformed));
        raw = b"GET / HTTP/1.1\r\nX: \xfe\r\n\r\n".to_vec();
        assert!(matches!(read_request(&mut Cursor::new(&raw)).unwrap(), ReadOutcome::Malformed));
    }

    #[test]
    fn respond_writes_content_length_frame() {
        let mut buf = Vec::new();
        respond(&mut buf, 200, "OK", "application/json", "{\"a\":1}", true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Strings weighted towards escapes: `%`, `+`, hex digits and
        /// multi-byte characters, mixed with arbitrary code points.
        fn escape_heavy_string() -> impl Strategy<Value = String> {
            const PICKS: [char; 10] = ['%', '%', '+', 'a', 'F', '7', 'é', '中', '🚦', '/'];
            prop::collection::vec((0usize..16, 0u32..0x11_0000), 0..48).prop_map(|picks| {
                picks
                    .into_iter()
                    .map(|(i, c)| PICKS.get(i).copied().or(char::from_u32(c)).unwrap_or('x'))
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn percent_decode_never_panics(s in escape_heavy_string()) {
                let decoded = percent_decode(&s);
                if !s.contains(['%', '+']) {
                    prop_assert_eq!(decoded, s);
                }
            }

            #[test]
            fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u8..=255, 0..512)) {
                let _ = read_request(&mut Cursor::new(raw));
            }
        }
    }
}
