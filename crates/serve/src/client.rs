//! A minimal keep-alive HTTP/1.1 client for the daemon's own tests,
//! the `vls-spice serve` smoke test and the benchmark — the
//! counterpart of [`crate::http`].

use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::{read_head_line, MAX_HEAD};

/// Ceiling on a response body, bytes. The daemon answers with JSON
/// documents of a few kilobytes; a larger declared length comes from a
/// broken or hostile server and is refused before anything is
/// allocated for it.
const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;

/// A persistent connection to the daemon.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects with a read timeout so a test or bench client can
    /// never hang on a dead server.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: impl ToSocketAddrs, read_timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Issues one request on the persistent connection and reads the
    /// full response. The request goes out in a single `write_all` of
    /// one buffer holding head and body, so it leaves as one segment
    /// rather than two.
    ///
    /// # Errors
    ///
    /// Transport failures, timeouts, and malformed responses (as
    /// `InvalidData`), among them a response head over 8 KiB and a
    /// declared body over 16 MiB.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let body = body.unwrap_or("");
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: vls-serve\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        message.push_str(body);
        self.stream.write_all(message.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut head = self.reader.by_ref().take(MAX_HEAD as u64);
        let mut next_line = |line: &mut String| {
            read_head_line(&mut head, line)?
                .ok_or_else(|| bad(format!("response head exceeds the {MAX_HEAD}-byte limit")))
        };
        let mut line = String::new();
        if next_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed before the status line",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("malformed status line '{}'", line.trim_end())))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if next_line(&mut header)? == 0 {
                return Err(bad("eof inside response headers".into()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length '{}'", value.trim())))?;
                }
            }
        }
        if content_length > MAX_RESPONSE_BODY {
            return Err(bad(format!(
                "declared body of {content_length} bytes exceeds the \
                 {MAX_RESPONSE_BODY}-byte limit"
            )));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("response body is not UTF-8".into()))
    }
}

/// One request on a fresh connection — the convenience path for CI
/// smoke checks and one-off probes.
///
/// # Errors
///
/// Everything [`HttpClient::connect`] and [`HttpClient::request`]
/// report.
pub fn one_shot(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    HttpClient::connect(addr, Duration::from_secs(60))?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn an_oversized_declared_body_is_refused_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        std::thread::scope(|s| {
            s.spawn(|| {
                let (mut conn, _) = listener.accept().expect("accept");
                let mut request = [0u8; 256];
                let _ = conn.read(&mut request);
                let _ = conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n");
            });
            let mut client = HttpClient::connect(addr, Duration::from_secs(10)).expect("connect");
            let err = client
                .request("GET", "/healthz", None)
                .expect_err("a terabyte body must be refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("exceeds"), "{err}");
        });
    }
}
