//! A hand-rolled HTTP/1.1 subset: an incremental parser plus response
//! serialisation.
//!
//! The build container is offline, so there is no tokio/hyper; the
//! daemon speaks the minimum of HTTP/1.1 a load generator or `curl`
//! needs: `Content-Length`-delimited bodies, no chunked transfer
//! coding, keep-alive and pipelining per RFC 7230 defaults. The core
//! is [`parse_request`] — a **pure function over a byte buffer** that
//! either consumes one complete request or asks for more bytes, which
//! is exactly the shape the reactor's per-connection state machine
//! needs (and what makes the parser fuzzable without sockets).
//! [`Response::render_into`] is the one serialiser: the reactor
//! appends each response to its connection's output buffer.

use std::time::Instant;

/// Upper bound on the request line + headers, independent of the body
/// cap.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request: method, decoded path, decoded query pairs, raw
/// body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`).
    pub method: String,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Percent-decoded query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The raw body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// The last value of query key `name`, if present.
    pub fn query_value(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, headers, or unsupported framing → 400.
    BadRequest(String),
    /// Body larger than the configured cap → 413.
    TooLarge,
}

/// The outcome of one [`parse_request`] attempt over a buffer.
#[derive(Debug)]
pub enum Parsed {
    /// One complete request. `consumed` is how many buffer bytes it
    /// occupied (head + body); bytes past it belong to the next
    /// pipelined request. `keep_alive` is whether the *client* allows
    /// the connection to persist (RFC 7230: HTTP/1.1 default yes
    /// unless `Connection: close`; HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed.
        consumed: usize,
        /// Whether the client permits connection reuse.
        keep_alive: bool,
    },
    /// The buffer holds only a prefix of a request; read more bytes.
    Partial,
}

/// Incrementally parses one request from the front of `buf`.
///
/// Pure: no I/O, no state. Returns [`Parsed::Partial`] until the
/// buffer holds a complete head **and** `Content-Length` bytes of
/// body. Errors are terminal for the connection's input stream —
/// after a malformed head the framing is unrecoverable.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<Parsed, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("request head too large".into()));
        }
        return Ok(Parsed::Partial);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let http11 = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v != "HTTP/1.0",
        _ => return Err(HttpError::BadRequest("expected an HTTP/1.x version".into())),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
            return Err(HttpError::BadRequest(
                "chunked transfer coding is not supported".into(),
            ));
        }
        if name == "content-length" {
            let parsed = value
                .parse()
                .map_err(|_| HttpError::BadRequest("invalid Content-Length".into()))?;
            // RFC 7230 §3.3.2: conflicting Content-Length values make
            // the framing ambiguous and must be rejected.
            if content_length.is_some() && content_length != Some(parsed) {
                return Err(HttpError::BadRequest(
                    "conflicting Content-Length headers".into(),
                ));
            }
            content_length = Some(parsed);
        }
        if name == "connection" {
            // The token list form ("keep-alive, TE") is matched per
            // element; `close` anywhere wins.
            let mut close = false;
            let mut keep = false;
            for token in value.split(',') {
                let token = token.trim();
                close |= token.eq_ignore_ascii_case("close");
                keep |= token.eq_ignore_ascii_case("keep-alive");
            }
            keep_alive = !close && (http11 || keep);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::TooLarge);
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(Parsed::Partial);
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = raw_query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    Ok(Parsed::Complete {
        request: Request {
            method,
            path: percent_decode(raw_path),
            query,
            body,
        },
        consumed: body_start + content_length,
        keep_alive,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decodes `%XX` escapes and `+` (form encoding) into UTF-8 text;
/// malformed escapes pass through literally, invalid UTF-8 is replaced.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialise: status, content type, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// The deadline the producing job ran under, if any — carried so
    /// the access log can report how much margin the answer had left
    /// (never serialised onto the wire).
    pub deadline: Option<Instant>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            deadline: None,
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            deadline: None,
        }
    }

    /// Tags the response with the deadline its job ran under.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Response {
        self.deadline = deadline;
        self
    }

    /// An error response with body `{"error":"<message>"}` + newline.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":\"");
        crate::json::escape_into(&mut body, message);
        body.push_str("\"}\n");
        Response::json(status, body)
    }

    /// Serialises the response into `out`. `close` picks the
    /// `Connection:` header — the reactor sends `keep-alive` on every
    /// response but the connection's last.
    pub fn render_into(&self, out: &mut Vec<u8>, close: bool) {
        use std::io::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" }
        );
        out.extend_from_slice(&self.body);
    }
}

/// The standard reason phrase of the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one complete request at the front of `raw`.
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        match parse_request(raw, 1024)? {
            Parsed::Complete { request, .. } => Ok(request),
            Parsed::Partial => panic!("incomplete request: {raw:?}"),
        }
    }

    #[test]
    fn parses_a_get_with_query() {
        let r =
            parse(b"GET /schedule?alg=mfs&cs=4&limit=mul%3A2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/schedule");
        assert_eq!(r.query_value("alg"), Some("mfs"));
        assert_eq!(r.query_value("cs"), Some("4"));
        assert_eq!(r.query_value("limit"), Some("mul:2"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let r =
            parse(b"POST /schedule HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello trailing-ignored")
                .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse(b"GET /x\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nine\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello"),
            Err(HttpError::BadRequest(_))
        ));
        // Duplicates that agree are harmless and accepted.
        let r = parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn oversized_bodies_are_413() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::TooLarge)));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("mul%3A2"), "mul:2");
        assert_eq!(percent_decode("100%"), "100%");
    }

    #[test]
    fn incremental_parse_waits_for_split_heads_and_bodies() {
        let raw = b"POST /schedule?cs=4 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // Every prefix short of the full request is Partial; the full
        // buffer parses and reports its exact extent.
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], 1024) {
                Ok(Parsed::Partial) => {}
                other => panic!("prefix {cut} gave {other:?}"),
            }
        }
        match parse_request(raw, 1024).unwrap() {
            Parsed::Complete {
                request,
                consumed,
                keep_alive,
            } => {
                assert_eq!(request.body, b"hello");
                assert_eq!(consumed, raw.len());
                assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pipelined_buffers_report_per_request_extent() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let Parsed::Complete {
            request, consumed, ..
        } = parse_request(raw, 1024).unwrap()
        else {
            panic!("first request did not parse")
        };
        assert_eq!(request.path, "/healthz");
        let Parsed::Complete { request, .. } = parse_request(&raw[consumed..], 1024).unwrap()
        else {
            panic!("second request did not parse")
        };
        assert_eq!(request.path, "/metrics");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let ka = |raw: &[u8]| match parse_request(raw, 1024).unwrap() {
            Parsed::Complete { keep_alive, .. } => keep_alive,
            other => panic!("{other:?}"),
        };
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!ka(
            b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        ));
    }

    #[test]
    fn responses_render_keep_alive_form() {
        let mut out = Vec::new();
        Response::text(200, "ok\n").render_into(&mut out, false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn responses_serialise_with_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "ok\n").render_into(&mut out, true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
        let e = Response::error(422, "no \"such\" schedule");
        assert_eq!(e.status, 422);
        assert_eq!(
            String::from_utf8(e.body).unwrap(),
            "{\"error\":\"no \\\"such\\\" schedule\"}\n"
        );
    }
}
