//! A tiny blocking HTTP/1.1 client, just enough for `hmm-loadgen` and
//! the end-to-end tests to drive the server without external crates.
//!
//! One request per connection, mirroring the server's
//! `Connection: close` framing. The response is read to EOF and split on
//! the first blank line; only what the tests and load generator need is
//! parsed (status code, headers, body).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes as UTF-8.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// Send one request and read the full response. `timeout` bounds the
/// connect and each socket read/write.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    request_bytes(addr, method, path, body.as_bytes(), timeout)
}

/// [`request`] with a raw byte body — how traces are uploaded.
pub fn request_bytes(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    // Head and body in one write: a single syscall sends the whole
    // request, so the server's first peek usually sees all of it.
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len(),
    )
    .into_bytes();
    msg.extend_from_slice(body);
    // A server refusing the request early (413 on an oversized upload)
    // answers and closes mid-write; the write then fails with EPIPE even
    // though a perfectly good response is waiting. Salvage it: only
    // surface the write error if nothing readable came back.
    let wrote = stream.write_all(&msg).and_then(|()| stream.flush());
    let mut raw = Vec::new();
    match (wrote, stream.read_to_end(&mut raw)) {
        (_, Ok(_)) if !raw.is_empty() => parse_response(&raw),
        (Err(e), _) => Err(e),
        (Ok(()), Err(e)) => Err(e),
        (Ok(()), Ok(_)) => parse_response(&raw),
    }
}

/// One consumed chunked-transfer stream (the job event endpoint).
#[derive(Debug, Clone)]
pub struct StreamedResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Decoded JSONL lines, in arrival order.
    pub lines: Vec<String>,
    /// Whether the stream ended with the terminating zero chunk — a
    /// deliberate EOF, as opposed to a dropped connection.
    pub clean_eof: bool,
}

/// Issue a GET against a chunked endpoint and consume the stream to its
/// end, calling `on_line` as each JSONL line arrives. A non-chunked
/// (error) response is returned with its body as the only line and
/// `clean_eof` false.
pub fn stream_lines(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
    mut on_line: impl FnMut(&str),
) -> std::io::Result<StreamedResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let msg = format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    stream.write_all(msg.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no head/body separator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("response head is not UTF-8"))?;
    let status = head
        .split("\r\n")
        .next()
        .unwrap_or_default()
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let chunked = head.to_ascii_lowercase().contains("transfer-encoding: chunked");
    let body = &raw[split + 4..];
    if !chunked {
        let text = String::from_utf8_lossy(body).to_string();
        if !text.is_empty() {
            on_line(&text);
        }
        return Ok(StreamedResponse {
            status,
            lines: if text.is_empty() { Vec::new() } else { vec![text] },
            clean_eof: false,
        });
    }

    // Decode the chunk framing, then split the payload on newlines.
    let mut payload = Vec::new();
    let mut pos = 0usize;
    let mut clean_eof = false;
    while pos < body.len() {
        let Some(nl) = body[pos..].windows(2).position(|w| w == b"\r\n") else { break };
        let size_line = std::str::from_utf8(&body[pos..pos + nl])
            .map_err(|_| bad("chunk size line is not UTF-8"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size '{size_line}'")))?;
        pos += nl + 2;
        if size == 0 {
            clean_eof = true;
            break;
        }
        if pos + size > body.len() {
            break; // truncated mid-chunk: not a clean EOF
        }
        payload.extend_from_slice(&body[pos..pos + size]);
        pos += size + 2; // skip the chunk's trailing CRLF
    }
    let text = String::from_utf8(payload).map_err(|_| bad("stream payload is not UTF-8"))?;
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    for line in &lines {
        on_line(line);
    }
    Ok(StreamedResponse { status, lines, clean_eof })
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no head/body separator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("response head is not UTF-8"))?;

    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("malformed status line '{status_line}'")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    // Trust content-length over read-to-EOF only to truncate trailing
    // garbage; the server always sends an exact length. Cut the bytes
    // before decoding: a length may end inside a UTF-8 character.
    let mut body = &raw[split + 4..];
    if let Some(n) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        body = &body[..n.min(body.len())];
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| bad("response body is not UTF-8"))?;
    Ok(HttpResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\ncontent-length: 13\r\nx-cache: miss\r\n\r\n{\"error\":\"q\"}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("x-cache"), Some("miss"));
        assert_eq!(r.body, "{\"error\":\"q\"}");
    }

    #[test]
    fn length_inside_a_utf8_character_is_invalid_data() {
        // "é" is two bytes; a length of 1 cuts it in half.
        let raw = "HTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\né".as_bytes();
        let err = parse_response(raw).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A length on the character boundary still trims trailing bytes.
        let raw = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\néxyz".as_bytes();
        assert_eq!(parse_response(raw).unwrap().body, "é");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }
}
