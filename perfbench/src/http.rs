//! A minimal HTTP/1.1 client: keep-alive requests with `Content-Length`
//! bodies and chunked streams, timed from outside.
//!
//! The client waits by polling (yielding the CPU between attempts), never
//! by blocking. On a small shared VM a vCPU that halts pays a host
//! wake-up whose cost swings several-fold with the host's load; with
//! blocking clients the service's latencies moved by ±35 % from run to
//! run with the host, with polling clients by a few percent. Polling
//! keeps the vCPUs awake, so the figures follow the service rather than
//! the hypervisor.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response as the client saw it.
#[derive(Debug, Default)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body (for a chunked stream: the last chunk).
    pub body: Vec<u8>,
    /// Chunks of a chunked stream before the last one.
    pub chunks: usize,
    /// When the first chunk arrived (chunked streams only).
    pub first_chunk: Option<Instant>,
    /// Whether the server will close the connection.
    pub close: bool,
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// When the request in progress times out.
    deadline: Instant,
    /// Received bytes; `buf[start..]` is not yet consumed.
    buf: Vec<u8>,
    start: usize,
    timeout: Duration,
}

impl Conn {
    /// A connection to `addr` (opened lazily, reopened after a close).
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Conn {
            addr,
            stream: None,
            deadline: Instant::now(),
            buf: Vec::new(),
            start: 0,
            timeout,
        }
    }

    /// Opens the socket now if it is not open.
    fn connect(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            self.stream = Some(s);
            self.buf.clear();
            self.start = 0;
        }
        Ok(())
    }

    /// Sends one request and reads its whole response. Any I/O error
    /// (including a timeout) drops the connection.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let result = self.exchange(method, path, body);
        match &result {
            Ok(r) if !r.close => {}
            _ => {
                self.stream = None;
                self.buf.clear();
                self.start = 0;
            }
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.deadline = Instant::now() + self.timeout;
        self.connect()?;
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (stream, deadline) = (self.stream.as_mut().expect("connected"), self.deadline);
        let mut sent = 0;
        while sent < req.len() {
            match polled(stream, deadline, |s| s.write(&req.as_bytes()[sent..]))? {
                0 => return Err(io::ErrorKind::WriteZero.into()),
                n => sent += n,
            }
        }
        let head = self.read_until(b"\r\n\r\n")?;
        let head = String::from_utf8_lossy(&head).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut resp = Response {
            status,
            ..Response::default()
        };
        let mut length = None;
        let mut chunked = false;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_ascii_lowercase());
            match k.as_str() {
                "content-length" => length = v.parse::<usize>().ok(),
                "transfer-encoding" => chunked = v.contains("chunked"),
                "connection" => resp.close = v == "close",
                _ => {}
            }
        }
        if chunked {
            loop {
                let size_line = self.read_until(b"\r\n")?;
                let size_text = String::from_utf8_lossy(&size_line);
                let size = usize::from_str_radix(size_text.trim(), 16)
                    .map_err(|_| bad("malformed chunk size"))?;
                let data = self.read_exact_buf(size + 2)?;
                if size == 0 {
                    break;
                }
                if resp.first_chunk.is_none() {
                    resp.first_chunk = Some(Instant::now());
                }
                if !resp.body.is_empty() {
                    resp.chunks += 1;
                }
                resp.body = data[..size].to_vec();
            }
            // A chunked stream is the connection's last response.
            resp.close = true;
        } else {
            resp.body = self.read_exact_buf(length.unwrap_or(0))?;
        }
        Ok(resp)
    }

    /// Reads through the next `delim`, returning what precedes it.
    fn read_until(&mut self, delim: &[u8]) -> io::Result<Vec<u8>> {
        let mut scanned = self.start;
        loop {
            if let Some(pos) = self.buf[scanned..]
                .windows(delim.len())
                .position(|w| w == delim)
            {
                let end = scanned + pos;
                let out = self.buf[self.start..end].to_vec();
                self.consume(end + delim.len() - self.start);
                return Ok(out);
            }
            scanned = self
                .buf
                .len()
                .saturating_sub(delim.len() - 1)
                .max(self.start);
            self.fill()?;
        }
    }

    /// Reads exactly `n` bytes.
    fn read_exact_buf(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() - self.start < n {
            self.fill()?;
        }
        let out = self.buf[self.start..self.start + n].to_vec();
        self.consume(n);
        Ok(out)
    }

    /// Marks `n` buffered bytes consumed, compacting once most of the
    /// buffer is spent (a stream delivers thousands of small chunks).
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut tmp = [0u8; 16 * 1024];
        let stream = self.stream.as_mut().expect("connected");
        let n = polled(stream, self.deadline, |s| s.read(&mut tmp))?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(())
    }
}

/// Retries `op` until the socket is ready, yielding between attempts;
/// past `deadline` the wait is a timeout.
fn polled<T>(
    stream: &mut TcpStream,
    deadline: Instant,
    mut op: impl FnMut(&mut TcpStream) -> io::Result<T>,
) -> io::Result<T> {
    loop {
        match op(stream) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no response in time",
                    ));
                }
                std::thread::yield_now();
            }
            other => return other,
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The integer after `"key": ` in flat JSON text.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The number after `"key": ` in flat JSON text.
pub fn json_f64(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
