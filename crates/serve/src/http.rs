//! Hand-rolled HTTP/1.1, scoped to exactly what the service needs: an
//! **incremental, resumable** request parser plus response writing.
//!
//! No crates.io in this environment, so this replaces `hyper`/`axum`.
//! The core type is [`RequestParser`]: the reactor feeds it whatever
//! bytes a nonblocking read produced and [`RequestParser::advance`]
//! reports whether a complete request materialized — multi-MB bodies
//! stream into the buffer chunk-by-chunk across many readiness events
//! instead of blocking a thread inside one `read` loop. Bytes a client
//! pipelined past one request's body stay buffered and feed the next
//! request.
//!
//! Deliberate non-features: chunked transfer encoding (rejected with
//! `411`), HTTP/2. `Expect: 100-continue` *is* honored because `curl`
//! sends it for bodies above its threshold.

use std::io::{self, Write};

use sabre_json::JsonValue;

/// Header-section size cap — far above any legitimate client.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, query string stripped.
    pub path: String,
    /// Raw query string (bytes after the first `?`, empty when absent).
    pub query: String,
    /// Headers in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.1` (keep-alive by default)
    /// rather than `HTTP/1.0` (close by default).
    pub http11: bool,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `/`-separated path segments, empty segments dropped
    /// (`"/devices/x/noise"` → `["devices", "x", "noise"]`).
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Value of a `&`-separated `key=value` query parameter (first match;
    /// a bare `key` with no `=` yields `""`). No percent-decoding — the
    /// service's parameters are all simple tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// Whether a boolean query parameter is switched on: present as
    /// `name`, `name=1`, or `name=true` (case-insensitive).
    pub fn query_flag(&self, name: &str) -> bool {
        self.query_param(name)
            .is_some_and(|v| v.is_empty() || v == "1" || v.eq_ignore_ascii_case("true"))
    }

    /// Whether the client asked to reuse the connection: an explicit
    /// `close`/`keep-alive` token in the `Connection` header wins (the
    /// header is a comma-separated token list, e.g. `close, TE`);
    /// otherwise HTTP/1.1 defaults to keep-alive and HTTP/1.0 to close.
    pub fn wants_keep_alive(&self) -> bool {
        if let Some(value) = self.header("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    return false;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    return true;
                }
            }
        }
        self.http11
    }
}

/// Why reading a request failed; [`HttpError::response`] maps each case to
/// the status the client should see.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, headers, or body.
    BadRequest(String),
    /// Body larger than the configured cap.
    PayloadTooLarge {
        /// The configured cap, echoed in the error body.
        limit: usize,
    },
    /// `Transfer-Encoding` without a `Content-Length` — unsupported.
    LengthRequired,
    /// The connection died mid-request (includes a clean EOF before any
    /// bytes: the peer connected and said nothing).
    Io(io::Error),
}

impl HttpError {
    /// The error as an HTTP response, or `None` when the peer is gone and
    /// writing one is pointless.
    pub fn response(&self) -> Option<Response> {
        match self {
            HttpError::BadRequest(msg) => Some(Response::error(400, msg)),
            HttpError::PayloadTooLarge { limit } => Some(Response::error(
                413,
                &format!("request body exceeds the {limit}-byte limit"),
            )),
            HttpError::LengthRequired => Some(Response::error(
                411,
                "chunked bodies are not supported; send Content-Length",
            )),
            HttpError::Io(_) => None,
        }
    }
}

/// What [`RequestParser::advance`] produced.
#[derive(Debug)]
pub enum Parsed {
    /// Not enough bytes buffered yet; feed more and advance again.
    Incomplete,
    /// The request head carried `Expect: 100-continue` — the caller
    /// should write `HTTP/1.1 100 Continue\r\n\r\n` before the client
    /// sends the body. Emitted at most once per request, before its
    /// `Request` event.
    Continue,
    /// One complete request. Bytes the client pipelined past its body
    /// stay buffered for the next `advance`.
    Request(Request),
}

/// Internal parser state: between requests / mid-head, or mid-body.
enum ParseState {
    /// Buffering until the `\r\n\r\n` head terminator appears.
    Head,
    /// Head parsed; buffering until `content_length` body bytes arrived.
    /// Any `Expect: 100-continue` was already signaled during the
    /// `Head → Body` transition, so this state never re-emits it.
    Body {
        head: Request,
        content_length: usize,
    },
    /// A previous `advance` reported an error; the byte stream is
    /// unsynchronized and no further request can be parsed.
    Failed,
}

/// Incremental HTTP/1.1 request parser with resumable state.
///
/// Feed raw bytes with [`RequestParser::feed`] (typically whatever one
/// nonblocking read returned), then call [`RequestParser::advance`]
/// until it reports [`Parsed::Incomplete`]. The parser owns the
/// carry-over buffer, so pipelined requests are handled for free: bytes
/// past one request's body are simply the start of the next request.
///
/// Errors are sticky: after an `Err` the stream is unsynchronized and
/// every later `advance` returns the same class of failure — close the
/// connection after writing the error response.
pub struct RequestParser {
    max_body: usize,
    buf: Vec<u8>,
    state: ParseState,
}

impl RequestParser {
    /// A fresh parser; bodies above `max_body` bytes are rejected with
    /// [`HttpError::PayloadTooLarge`] as soon as the head announces them.
    pub fn new(max_body: usize) -> Self {
        RequestParser {
            max_body,
            buf: Vec::new(),
            state: ParseState::Head,
        }
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a request is partially received: either head bytes are
    /// buffered without their terminator, or a body is mid-stream. The
    /// reactor uses this to arm the per-request read deadline (a parser
    /// that is *not* mid-request is an idle keep-alive connection).
    pub fn is_mid_request(&self) -> bool {
        match self.state {
            ParseState::Head => !self.buf.is_empty(),
            ParseState::Body { .. } => true,
            ParseState::Failed => false,
        }
    }

    /// Tries to produce the next event from the buffered bytes.
    ///
    /// # Errors
    ///
    /// [`HttpError`] when the buffered bytes are not a valid request —
    /// the parser stays failed afterwards.
    pub fn advance(&mut self) -> Result<Parsed, HttpError> {
        match std::mem::replace(&mut self.state, ParseState::Failed) {
            ParseState::Head => {
                let Some(end) = find_terminator(&self.buf) else {
                    if self.buf.len() > MAX_HEAD_BYTES {
                        return Err(HttpError::BadRequest(
                            "header section exceeds 16 KiB".into(),
                        ));
                    }
                    self.state = ParseState::Head;
                    return Ok(Parsed::Incomplete);
                };
                let rest = self.buf.split_off(end + 4);
                let head_bytes = std::mem::replace(&mut self.buf, rest);
                let (head, content_length) = parse_head(&head_bytes[..end], self.max_body)?;
                let send_continue = head
                    .header("expect")
                    .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"));
                self.state = ParseState::Body {
                    head,
                    content_length,
                };
                if send_continue {
                    return Ok(Parsed::Continue);
                }
                self.advance()
            }
            ParseState::Body {
                mut head,
                content_length,
            } => {
                if self.buf.len() < content_length {
                    self.state = ParseState::Body {
                        head,
                        content_length,
                    };
                    return Ok(Parsed::Incomplete);
                }
                let rest = self.buf.split_off(content_length);
                head.body = std::mem::replace(&mut self.buf, rest);
                self.state = ParseState::Head;
                Ok(Parsed::Request(head))
            }
            ParseState::Failed => Err(HttpError::BadRequest(
                "connection is unsynchronized after a previous parse error".into(),
            )),
        }
    }
}

/// Parses a complete header section (without the `\r\n\r\n` terminator)
/// into a body-less [`Request`] plus its announced `Content-Length`.
fn parse_head(head: &[u8], max_body: usize) -> Result<(Request, usize), HttpError> {
    let head_text = std::str::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("header section is not valid UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    let request = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
        body: Vec::new(),
        http11: version == "HTTP/1.1",
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::LengthRequired);
    }
    let content_length = match request.header("content-length") {
        Some(text) => text
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad Content-Length `{text}`")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge { limit: max_body });
    }
    Ok((request, content_length))
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response, written with an explicit `Content-Length` and a
/// `Connection` header: `close` by default, `keep-alive` after
/// [`Response::keep_alive`].
#[derive(Clone, Debug)]
pub struct Response {
    status: u16,
    content_type: &'static str,
    extra_headers: Vec<(String, String)>,
    body: Vec<u8>,
    close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &JsonValue) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.to_compact().into_bytes(),
            close: true,
        }
    }

    /// A plain-text response (`/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
            close: true,
        }
    }

    /// The standard error shape: `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &JsonValue::object([("error", message.into())]))
    }

    /// Adds a header (e.g. `Retry-After` on a `503`).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Marks the response `Connection: keep-alive`: the connection loop
    /// will read another request instead of closing.
    pub fn keep_alive(mut self) -> Response {
        self.close = false;
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body bytes (tests inspect these).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serializes the response onto `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" }
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Reason phrases for the statuses the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds `raw` in one piece and advances past any `100 Continue`.
    fn parse_one(raw: &[u8], max_body: usize) -> Result<Parsed, HttpError> {
        let mut parser = RequestParser::new(max_body);
        parser.feed(raw);
        match parser.advance()? {
            Parsed::Continue => parser.advance(),
            other => Ok(other),
        }
    }

    fn request(raw: &[u8]) -> Request {
        match parse_one(raw, 1024) {
            Ok(Parsed::Request(r)) => r,
            other => panic!("expected a request from {raw:?}, got {other:?}"),
        }
    }

    /// Every event `advance` yields after each chunk, `Incomplete` aside.
    fn events(parser: &mut RequestParser, chunks: &[&[u8]]) -> Vec<String> {
        let mut out = Vec::new();
        for chunk in chunks {
            parser.feed(chunk);
            loop {
                match parser.advance() {
                    Ok(Parsed::Incomplete) => break,
                    Ok(event) => out.push(format!("{event:?}")),
                    Err(e) => {
                        out.push(format!("error: {e:?}"));
                        break;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = request(b"POST /route?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/route");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("HOST"), Some("h"));
        assert_eq!(req.body, b"body");
        assert_eq!(req.path_segments(), ["route"]);
    }

    #[test]
    fn query_params_and_flags() {
        let r = request(b"GET /route?profile=true&limit=5&bare HTTP/1.1\r\n\r\n");
        assert_eq!(r.query_param("profile"), Some("true"));
        assert_eq!(r.query_param("limit"), Some("5"));
        assert_eq!(r.query_param("bare"), Some(""));
        assert_eq!(r.query_param("missing"), None);
        assert!(r.query_flag("profile"));
        assert!(r.query_flag("bare"));
        assert!(!r.query_flag("limit"), "limit=5 is not a boolean flag");
        assert!(!r.query_flag("missing"));
        let plain = request(b"GET /route HTTP/1.1\r\n\r\n");
        assert_eq!(plain.query, "");
        assert!(!plain.query_flag("profile"));
        assert!(request(b"GET /r?profile=1 HTTP/1.1\r\n\r\n").query_flag("profile"));
        assert!(request(b"GET /r?profile=TRUE HTTP/1.1\r\n\r\n").query_flag("profile"));
        assert!(!request(b"GET /r?profile=false HTTP/1.1\r\n\r\n").query_flag("profile"));
    }

    #[test]
    fn parses_get_without_body() {
        let req = request(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn incremental_parse_byte_by_byte() {
        // The whole point of the resumable parser: any byte-level
        // fragmentation of a valid request must produce the identical
        // request, with `is_mid_request` flipping on at the first byte.
        let raw = b"POST /route HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new(1024);
        assert!(!parser.is_mid_request());
        let mut request = None;
        for (i, byte) in raw.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            match parser.advance().unwrap() {
                Parsed::Incomplete => {
                    assert!(parser.is_mid_request(), "mid-request from byte 0");
                    assert!(i + 1 < raw.len(), "must complete on the last byte");
                }
                Parsed::Request(r) => {
                    assert_eq!(i + 1, raw.len());
                    request = Some(r);
                }
                Parsed::Continue => panic!("no Expect header present"),
            }
        }
        let request = request.expect("request completed");
        assert_eq!(request.path, "/route");
        assert_eq!(request.body, b"hello");
        assert!(!parser.is_mid_request());
        assert!(matches!(parser.advance(), Ok(Parsed::Incomplete)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any split of a byte stream (pipelined requests, an `Expect`
        /// head, arbitrary body bytes) yields the same events as feeding
        /// it whole.
        #[test]
        fn chunked_feed_matches_one_shot_feed(
            body in proptest::collection::vec(0u8..=255, 0..64),
            cuts in proptest::collection::vec(0usize..400, 0..12),
            expect in any::<bool>(),
            pipelined in any::<bool>(),
        ) {
            let mut raw = format!(
                "POST /route?profile=true HTTP/1.1\r\nHost: h\r\n{}Content-Length: {}\r\n\r\n",
                if expect { "Expect: 100-continue\r\n" } else { "" },
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(&body);
            if pipelined {
                raw.extend_from_slice(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (raw.len() + 1)).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([raw.len()]) {
                chunks.push(&raw[start..cut]);
                start = cut;
            }
            let whole = events(&mut RequestParser::new(1024), &[&raw]);
            prop_assert_eq!(whole.len(), 1 + usize::from(expect) + usize::from(pipelined));
            let mut parser = RequestParser::new(1024);
            prop_assert_eq!(events(&mut parser, &chunks), whole);
            prop_assert!(!parser.is_mid_request());
        }
    }

    #[test]
    fn incremental_parse_keeps_pipelined_bytes() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"POST /route HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /healthz HTTP");
        let first = match parser.advance().unwrap() {
            Parsed::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(first.path, "/route");
        assert_eq!(first.body, b"body");
        // The second request's head is partially buffered: mid-request.
        assert!(parser.is_mid_request());
        assert!(matches!(parser.advance().unwrap(), Parsed::Incomplete));
        parser.feed(b"/1.1\r\n\r\n");
        let second = match parser.advance().unwrap() {
            Parsed::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(second.path, "/healthz");
        assert!(!parser.is_mid_request());
    }

    #[test]
    fn expect_100_continue_is_signaled_once() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"POST /route HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n");
        assert!(matches!(parser.advance().unwrap(), Parsed::Continue));
        assert!(matches!(parser.advance().unwrap(), Parsed::Incomplete));
        parser.feed(b"ok");
        match parser.advance().unwrap() {
            Parsed::Request(r) => assert_eq!(r.body, b"ok"),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_sticky() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GARBAGE\r\n\r\n");
        assert!(parser.advance().is_err());
        parser.feed(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(parser.advance().is_err(), "a failed parser stays failed");
    }

    #[test]
    fn honors_expect_100_continue() {
        // Head and body in one feed: the parser still signals `Continue`
        // before the request, so the reactor writes the interim line.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"POST /route HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok");
        assert!(matches!(parser.advance().unwrap(), Parsed::Continue));
        match parser.advance().unwrap() {
            Parsed::Request(r) => assert_eq!(r.body, b"ok"),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let raw = b"POST /route HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        match parse_one(raw, 10) {
            Err(HttpError::PayloadTooLarge { limit: 10 }) => {}
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_chunked_bodies() {
        let raw = b"POST /route HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(
            parse_one(raw, 1024),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
        ] {
            assert!(
                matches!(parse_one(raw, 1024), Err(HttpError::BadRequest(_))),
                "should reject {raw:?}"
            );
        }
    }

    #[test]
    fn buffered_reads_carry_pipelined_requests_forward() {
        let mut parser = RequestParser::new(1024);
        parser.feed(
            b"POST /route HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /healthz HTTP/1.1\r\n\r\n",
        );
        let first = match parser.advance().unwrap() {
            Parsed::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(first.path, "/route");
        assert_eq!(first.body, b"body");
        assert!(parser.is_mid_request(), "the next request stays buffered");
        let second = match parser.advance().unwrap() {
            Parsed::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(second.path, "/healthz");
        assert!(second.body.is_empty());
        assert!(!parser.is_mid_request());
        assert!(matches!(parser.advance(), Ok(Parsed::Incomplete)));
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_header() {
        let req = request;
        assert!(req(b"GET /healthz HTTP/1.1\r\n\r\n").wants_keep_alive());
        assert!(!req(b"GET /healthz HTTP/1.0\r\n\r\n").wants_keep_alive());
        assert!(!req(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(req(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").wants_keep_alive());
        // The header is a token list: an explicit token wins wherever it
        // appears, unknown tokens fall through to the version default.
        assert!(!req(b"GET /healthz HTTP/1.1\r\nConnection: close, TE\r\n\r\n").wants_keep_alive());
        assert!(
            req(b"GET /healthz HTTP/1.0\r\nConnection: TE, Keep-Alive\r\n\r\n").wants_keep_alive()
        );
        assert!(req(b"GET /healthz HTTP/1.1\r\nConnection: TE\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn keep_alive_response_advertises_it() {
        let resp = Response::text(200, "ok").keep_alive();
        assert!(!resp.close);
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn truncated_body_stays_incomplete() {
        // A body short of its Content-Length is never a request: the
        // parser stays mid-request, so the reactor's read deadline (or
        // the client's EOF) ends the connection.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"POST /route HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        assert!(matches!(parser.advance().unwrap(), Parsed::Incomplete));
        assert!(parser.is_mid_request());
    }

    #[test]
    fn oversized_head_without_terminator_is_rejected() {
        let mut parser = RequestParser::new(1024);
        parser.feed(&vec![b'a'; MAX_HEAD_BYTES + 1]);
        assert!(matches!(parser.advance(), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::json(503, &JsonValue::object([("error", "busy".into())]))
            .with_header("Retry-After", "1");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"busy\"}"));
        let body_len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(body_len, resp.body().len());
    }

    #[test]
    fn reason_phrase_for_429() {
        let resp = Response::error(429, "slow down");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
    }
}
