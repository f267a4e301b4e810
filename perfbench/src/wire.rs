//! The load generator's client side: a few TCP connections multiplexed
//! from one thread on epoll, each with its own pipeline of in-flight
//! requests. Responses on a connection arrive in request order.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Instant;

use wiener_connector::service::net::{Epoll, EpollEvent, EPOLLIN};

struct InFlight {
    id: u64,
    tag: usize,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    inflight: VecDeque<InFlight>,
}

/// One completed request.
pub struct Done {
    pub conn: usize,
    /// Caller's label for the request (e.g. its query index).
    pub tag: usize,
    pub id: u64,
    pub sent: Instant,
    pub recv: Instant,
    pub line: Vec<u8>,
}

impl Done {
    pub fn latency_ms(&self) -> f64 {
        self.recv.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

pub struct Wire {
    ep: Epoll,
    conns: Vec<Conn>,
    events: Vec<EpollEvent>,
    next_id: u64,
    scratch: Vec<u8>,
}

impl Wire {
    pub fn connect(addr: SocketAddr, connections: usize) -> std::io::Result<Wire> {
        let ep = Epoll::new()?;
        let mut conns = Vec::with_capacity(connections);
        for token in 0..connections {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            // Sockets stay blocking: epoll reports readability, and one
            // read per readiness event never blocks.
            ep.add(stream.as_raw_fd(), token as u64, EPOLLIN)?;
            conns.push(Conn {
                stream,
                buf: Vec::new(),
                inflight: VecDeque::new(),
            });
        }
        Ok(Wire {
            ep,
            conns,
            events: vec![EpollEvent { events: 0, data: 0 }; 8],
            next_id: 0,
            scratch: vec![0; 1 << 16],
        })
    }

    /// Sends one request: `prefix` is a JSON object missing its closing
    /// brace, to which the request id is appended.
    pub fn send(&mut self, conn: usize, tag: usize, prefix: &str) -> std::io::Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        let line = format!("{prefix},\"id\":{id}}}\n");
        let c = &mut self.conns[conn];
        c.inflight.push_back(InFlight {
            id,
            tag,
            sent: Instant::now(),
        });
        c.stream.write_all(line.as_bytes())?;
        Ok(id)
    }

    pub fn inflight(&self, conn: usize) -> usize {
        self.conns[conn].inflight.len()
    }

    pub fn idle(&self) -> bool {
        self.conns.iter().all(|c| c.inflight.is_empty())
    }

    /// Waits up to `timeout_ms` for responses and appends every complete
    /// one to `out`. A response whose id does not match the oldest
    /// in-flight request of its connection is an error.
    pub fn poll(&mut self, out: &mut Vec<Done>, timeout_ms: i32) -> std::io::Result<()> {
        let n = self.ep.wait(&mut self.events, timeout_ms)?;
        for i in 0..n {
            let token = { self.events[i].data } as usize;
            let c = &mut self.conns[token];
            let read = c.stream.read(&mut self.scratch)?;
            if read == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let recv = Instant::now();
            c.buf.extend_from_slice(&self.scratch[..read]);
            let mut start = 0;
            while let Some(pos) = c.buf[start..].iter().position(|&b| b == b'\n') {
                let line = c.buf[start..start + pos].to_vec();
                start += pos + 1;
                let req = c.inflight.pop_front().ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "unsolicited response")
                })?;
                if response_id(&line) != Some(req.id) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "response out of request order",
                    ));
                }
                out.push(Done {
                    conn: token,
                    tag: req.tag,
                    id: req.id,
                    sent: req.sent,
                    recv,
                    line,
                });
            }
            c.buf.drain(..start);
        }
        Ok(())
    }
}

/// The bytes following `key` in a response line.
pub fn after<'a>(line: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    line.windows(key.len())
        .position(|w| w == key)
        .map(|p| &line[p + key.len()..])
}

/// The leading unsigned integer of `bytes`.
pub fn leading_u64(bytes: &[u8]) -> Option<u64> {
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&bytes[..digits]).ok()?.parse().ok()
}

/// The response's `"id"` (response objects carry their keys sorted, and
/// `"id"` precedes the report).
fn response_id(line: &[u8]) -> Option<u64> {
    leading_u64(after(line, b"\"id\":")?)
}
