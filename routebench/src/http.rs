//! A minimal blocking HTTP/1.1 keep-alive client for driving the
//! in-process server over loopback.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// A response: status and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 << 10),
        }
    }

    /// Sends one request and reads its response. Any transport error or
    /// malformed response is an `Err`; the connection is then dropped and
    /// the next request reconnects.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: &str,
    ) -> Result<Reply, String> {
        let result = self.exchange(method, path, body, request_id);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: &str,
    ) -> Result<Reply, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(120)))
                .map_err(|e| format!("timeout: {e}"))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nX-Request-Id: {request_id}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()))
            .map_err(|e| format!("write: {e}"))?;

        self.buf.clear();
        let header_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            read_more(stream, &mut self.buf)?;
        };
        let head =
            std::str::from_utf8(&self.buf[..header_end]).map_err(|_| "non-UTF-8 response head")?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("bad status line")?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| "bad Content-Length")?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < header_end + length {
            read_more(stream, &mut self.buf)?;
        }
        let body = String::from_utf8(self.buf[header_end..header_end + length].to_vec())
            .map_err(|_| "non-UTF-8 response body")?;
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(), String> {
    let mut chunk = [0u8; 16 << 10];
    let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
    if n == 0 {
        return Err("connection closed mid-response".into());
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
