//! A keep-alive HTTP/1.1 client for the load generator, and the two
//! JSON field readers its response handling needs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A query that takes longer than this counts as failed.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(2);

/// One keep-alive connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with `TCP_NODELAY` and the query timeout set.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(QUERY_TIMEOUT))?;
        Ok(Client { writer: conn.try_clone()?, reader: BufReader::new(conn) })
    }

    /// One GET round trip: the body goes into `body`, the status is
    /// returned.
    pub fn get(&mut self, target: &str, body: &mut String) -> std::io::Result<u16> {
        // One write, so the request leaves as one segment (`TCP_NODELAY`).
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.writer.write_all(request.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| std::io::Error::other("bad content-length"))?;
                }
            }
        }
        body.clear();
        let mut bytes = vec![0u8; content_length];
        self.reader.read_exact(&mut bytes)?;
        body.push_str(&String::from_utf8_lossy(&bytes));
        Ok(status)
    }
}

/// The raw text of `"key":value` in a flat JSON object, up to the next
/// `,` or `}`.
fn raw_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// An unsigned integer field of a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    raw_field(body, key)?.parse().ok()
}

/// A number field of a flat JSON object, as its exact `f64`.
pub fn json_f64(body: &str, key: &str) -> Option<f64> {
    raw_field(body, key)?.parse().ok()
}

/// A string field of a flat JSON object (no escapes expected).
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    raw_field(body, key)?.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flat_fields() {
        let body = r#"{"seq":3,"version":12,"digest":"0x00ab","cycle_s":96.5,"feed_alive":true}"#;
        assert_eq!(json_u64(body, "version"), Some(12));
        assert_eq!(json_u64(body, "seq"), Some(3));
        assert_eq!(json_str(body, "digest"), Some("0x00ab"));
        assert_eq!(json_f64(body, "cycle_s"), Some(96.5));
        assert_eq!(json_u64(body, "missing"), None);
    }
}
