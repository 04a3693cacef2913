//! A minimal HTTP/1.1 server-side codec over `std::net`.
//!
//! Scope is exactly what the daemon needs: request line + headers,
//! `Content-Length`-framed bodies (no chunked encoding), keep-alive,
//! and enforced ceilings on both the request head and the body so a
//! client cannot make the server buffer unbounded input. Each response
//! leaves in one write, head and body together: on a `TCP_NODELAY`
//! socket two writes are two segments, and the peer wakes once for
//! each.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::TcpStream;

/// Ceiling on a message head (request or status line plus headers),
/// bytes. Messages are tiny JSON documents; anything larger is hostile
/// or broken. The client holds responses to the same ceiling.
pub(crate) const MAX_HEAD: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/query`.
    pub path: String,
    /// The body, UTF-8 decoded (lossy).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection at a request boundary — the
    /// normal end of a keep-alive session, not an error.
    Closed,
    /// Transport failure mid-request.
    Io(std::io::Error),
    /// The bytes on the wire are not a well-formed request.
    BadRequest(String),
    /// The declared body exceeds the configured ceiling.
    TooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured ceiling.
        limit: usize,
    },
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line of a message head from `head`, a reader limited to
/// what is left of the `MAX_HEAD` allowance, so a line that never ends
/// costs at most `MAX_HEAD` bytes of buffer. Returns the bytes read (0
/// at end of stream), or `None` when the limit cut the line off.
pub(crate) fn read_head_line<R: BufRead>(
    head: &mut Take<R>,
    line: &mut String,
) -> std::io::Result<Option<usize>> {
    let n = head.read_line(line)?;
    Ok((head.limit() > 0 || line.ends_with('\n')).then_some(n))
}

/// Reads one request from a persistent connection. `reader` must wrap
/// the same stream across calls so pipelined bytes survive between
/// requests.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Request, HttpError> {
    let mut head = reader.by_ref().take(MAX_HEAD as u64);
    let mut next_line = |line: &mut String| {
        read_head_line(&mut head, line)?.ok_or_else(|| {
            HttpError::BadRequest(format!("request head exceeds the {MAX_HEAD}-byte limit"))
        })
    };
    let mut line = String::new();
    if next_line(&mut line)? == 0 {
        return Err(HttpError::Closed);
    }
    let request_line = line.trim_end();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line '{request_line}'"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    loop {
        let mut header = String::new();
        if next_line(&mut header)? == 0 {
            return Err(HttpError::BadRequest("eof inside headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header '{header}'"
            )));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad content-length '{value}'")))?;
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
        keep_alive,
    })
}

/// The reason phrase for the status codes the daemon emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one JSON response and flushes it. Head and body go out in a
/// single `write_all` of one buffer, so the response leaves as one
/// segment rather than two.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write_of_head_plus_body() {
        let cases = [
            (200, true, "HTTP/1.1 200 OK", "keep-alive"),
            (400, false, "HTTP/1.1 400 Bad Request", "close"),
            (503, false, "HTTP/1.1 503 Service Unavailable", "close"),
        ];
        for (status, keep_alive, status_line, connection) in cases {
            let body = format!("{{\"status\": {status}}}");
            let mut w = CountingWriter::default();
            write_response(&mut w, status, &body, keep_alive).expect("in-memory write");
            assert_eq!(w.writes, 1, "status {status} took {} writes", w.writes);
            let want = format!(
                "{status_line}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                body.len()
            );
            assert_eq!(String::from_utf8(w.bytes).expect("ASCII"), want);
        }
    }
}
