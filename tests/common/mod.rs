//! Shared helpers for the `serve` integration tests: a minimal
//! blocking HTTP/1.1 client over `TcpStream` and an ephemeral-port
//! server launcher. Each test crate compiles its own copy, so not
//! every helper is used everywhere.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use moveframe_hls::prelude::*;

/// A [`ServeConfig`] bound to an ephemeral port so parallel test
/// binaries never collide.
pub fn ephemeral_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// Starts a daemon with no access log.
pub fn start(config: ServeConfig) -> Server {
    Server::start(config, Box::new(NullSink)).expect("server starts")
}

/// Sends one HTTP/1.1 request and returns `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, b"")
}

pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    request(addr, "POST", path, body)
}

/// A cold `/schedule` job for a worker to hold while a test fills the
/// queue behind it (see [`Server::hold_workers`]); distinct from the
/// tests' ordinary diffeq job so neither answers from the other's
/// cache entry.
pub const HELD_JOB: &[u8] = br#"{"benchmark":"diffeq","cs":5}"#;

/// Polls `ready` until it holds, failing the test after 30 s. Waits on
/// a fact about the daemon (a parked worker, a queued request), never
/// on how long a computation takes.
pub fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !ready() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
