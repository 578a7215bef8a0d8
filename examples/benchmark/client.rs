//! A minimal HTTP/1.1 keep-alive client for the serve workloads.
//!
//! Each client thread owns one connection and runs a closed loop: the
//! next request goes out only after the previous answer is read, so
//! with at most two connections no request waits behind another on
//! its own socket and latency is the server's, not the generator's.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Raw bytes of a `POST` to `target` carrying `body`.
pub fn post(target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One answer off the wire.
pub struct Answer {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck daemon must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one request and reads its answer; returns the answer and
    /// the time from the first byte written to the last byte read.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(Answer, Duration)> {
        let start = Instant::now();
        self.stream.write_all(request)?;
        let answer = self.read_answer()?;
        Ok((answer, start.elapsed()))
    }

    fn read_answer(&mut self) -> io::Result<Answer> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| bad("response head is not UTF-8"))?;
                let status = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("no status line"))?;
                let len: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .ok_or_else(|| bad("no content-length"))?;
                let total = head_end + 4 + len;
                if self.buf.len() >= total {
                    let body = self.buf[head_end + 4..total].to_vec();
                    self.buf.drain(..total);
                    return Ok(Answer { status, body });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed the connection mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}
