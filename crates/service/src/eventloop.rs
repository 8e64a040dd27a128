//! Nonblocking epoll front end for the TCP transport.
//!
//! One thread runs every connection: a level-triggered [`Epoll`] instance
//! watches the listener, a wake pipe, and each client socket. The loop
//! does its own line framing (bytes in `rbuf` until `\n`), parses and
//! answers control requests inline, applies admission control (per-client
//! token bucket, then queue high-water mark), and submits jobs to the
//! worker pool with a reply closure that posts the finished response line
//! on a completion channel and pokes the wake pipe so the loop picks it
//! up immediately.
//!
//! Nothing on the loop ever blocks: responses accumulate in per-client
//! write buffers flushed on writability, a full job queue sheds with
//! `overloaded` instead of waiting, and idle connections (no traffic, no
//! jobs in flight for [`ServiceConfig::idle_timeout`](crate::ServiceConfig))
//! are closed by the periodic sweep. `{"op":"shutdown"}` triggers a
//! graceful drain: the listener is deregistered, new jobs are refused
//! with `queue_closed`, every in-flight job still answers, all write
//! buffers flush, and only then does the loop close the connections and
//! return.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::admission::TokenBucket;
use crate::protocol::{parse_request, ProtocolError, Request};
use crate::server::{Service, SubmitError};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

const LISTENER: u64 = u64::MAX;
const WAKE: u64 = u64::MAX - 1;
/// Epoll wait timeout — the cadence of idle sweeps and drain checks.
const TICK_MS: i32 = 100;
/// Hard per-connection cap on one request line (a line this long is a
/// protocol violation, not a big instance — .hgr files go via
/// `hypergraph_path`).
const MAX_LINE: usize = 64 << 20;

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    last_active: Instant,
    bucket: TokenBucket,
    inflight: usize,
    read_closed: bool,
    interest: u32,
}

impl Conn {
    fn queue_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn write_pending(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }
}

/// Runs the event loop until a client requests shutdown and the drain
/// completes. Returns with all connections closed; the caller still owns
/// worker shutdown.
pub(crate) fn run(service: &Service, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    // Self-pipe: workers finish jobs on their own threads and need to
    // interrupt an epoll_pwait that is watching only sockets.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let wake_tx = Arc::new(wake_tx);
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER)?;
    epoll.add(wake_rx.as_raw_fd(), EPOLLIN, WAKE)?;

    let (done_tx, done_rx) = mpsc::channel::<(u64, String)>();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut draining = false;
    let mut accepting = true;
    let mut events = vec![EpollEvent::zeroed(); 64];
    let idle_timeout = service.idle_timeout();

    loop {
        let n = epoll.wait(&mut events, TICK_MS)?;
        for ev in events.iter().take(n).copied() {
            match ev.data {
                LISTENER => {
                    accept_all(service, &listener, &epoll, &mut conns, &mut next_token);
                }
                WAKE => {
                    // Drain the pipe; the completion channel below has the
                    // actual payloads.
                    let mut sink = [0u8; 256];
                    while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                }
                token => {
                    let hup = ev.events & (EPOLLERR | EPOLLHUP) != 0;
                    if hup {
                        if let Some(conn) = conns.remove(&token) {
                            let _ = epoll.delete(conn.stream.as_raw_fd());
                        }
                        continue;
                    }
                    if ev.events & (EPOLLIN | EPOLLRDHUP) != 0 {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        if handle_readable(conn, token, service, &done_tx, &wake_tx, &mut draining)
                            .is_err()
                        {
                            let conn = conns.remove(&token).expect("conn present");
                            let _ = epoll.delete(conn.stream.as_raw_fd());
                        }
                    }
                    // Writability is handled by the flush pass below.
                }
            }
        }

        // Route finished jobs to their connections' write buffers.
        while let Ok((token, line)) = done_rx.try_recv() {
            if let Some(conn) = conns.get_mut(&token) {
                conn.inflight = conn.inflight.saturating_sub(1);
                conn.last_active = Instant::now();
                conn.queue_line(&line);
            }
            // A vanished connection just drops its response.
        }

        // Flush, close, and interest-update pass over every connection.
        let now = Instant::now();
        let mut dead = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if conn.flush().is_err() {
                dead.push(token);
                continue;
            }
            let settled = !conn.write_pending() && conn.inflight == 0;
            let idle = now.saturating_duration_since(conn.last_active) > idle_timeout;
            if settled && (conn.read_closed || draining || idle) {
                dead.push(token);
                continue;
            }
            let mut want = EPOLLRDHUP;
            if !conn.read_closed {
                want |= EPOLLIN;
            }
            if conn.write_pending() {
                want |= EPOLLOUT;
            }
            if want != conn.interest {
                if epoll.modify(conn.stream.as_raw_fd(), want, token).is_err() {
                    dead.push(token);
                    continue;
                }
                conn.interest = want;
            }
        }
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                let _ = epoll.delete(conn.stream.as_raw_fd());
            }
        }

        if draining {
            if accepting {
                let _ = epoll.delete(listener.as_raw_fd());
                accepting = false;
            }
            // Every job answered, every response flushed, every
            // connection closed: the drain is complete.
            if conns.is_empty() {
                break;
            }
        }
    }
    Ok(())
}

fn accept_all(
    service: &Service,
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Responses are small and latency-sensitive; don't batch.
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                let interest = EPOLLIN | EPOLLRDHUP;
                if epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        last_active: Instant::now(),
                        bucket: TokenBucket::new(&service.admission(), Instant::now()),
                        inflight: 0,
                        read_closed: false,
                        interest,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Reads everything the socket has, then processes every complete line
/// in the buffer. An `Err` means the connection is unusable and must be
/// dropped.
///
/// Between calls `rbuf` holds only the start of a line (no `\n`), so the
/// newline search starts at the bytes this call read: a line that
/// arrives over many reads has each byte examined once.
fn handle_readable(
    conn: &mut Conn,
    token: u64,
    service: &Service,
    done_tx: &mpsc::Sender<(u64, String)>,
    wake_tx: &Arc<UnixStream>,
    draining: &mut bool,
) -> io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    let mut scanned = conn.rbuf.len();
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_active = Instant::now();
                conn.rbuf.extend_from_slice(&buf[..n]);
                if conn.rbuf.len() > MAX_LINE {
                    return Err(io::ErrorKind::InvalidData.into());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }

    // Lines are read out of a taken buffer so that `process_line` can
    // borrow the connection; the unfinished tail goes back afterwards.
    let rbuf = std::mem::take(&mut conn.rbuf);
    let mut start = 0;
    while let Some(pos) = rbuf[scanned..].iter().position(|&b| b == b'\n') {
        let end = scanned + pos;
        let line = String::from_utf8_lossy(&rbuf[start..end]);
        start = end + 1;
        scanned = start;
        let line = line.trim();
        if !line.is_empty() {
            process_line(line, conn, token, service, done_tx, wake_tx, draining);
        }
    }
    conn.rbuf = rbuf;
    conn.rbuf.drain(..start);
    Ok(())
}

fn process_line(
    line: &str,
    conn: &mut Conn,
    token: u64,
    service: &Service,
    done_tx: &mpsc::Sender<(u64, String)>,
    wake_tx: &Arc<UnixStream>,
    draining: &mut bool,
) {
    match parse_request(line) {
        Err(e) => {
            service.note_protocol_error();
            conn.queue_line(&e.to_line());
        }
        Ok(Request::Metrics) => {
            conn.queue_line(&service.metrics_line());
        }
        Ok(Request::Shutdown) => {
            conn.queue_line("{\"status\":\"ok\",\"op\":\"shutdown\"}");
            *draining = true;
        }
        Ok(Request::Job(request)) => {
            let id = request.id.clone();
            let refuse = |conn: &mut Conn, code: &'static str, message: &str| {
                conn.queue_line(
                    &ProtocolError {
                        id: Some(id.clone()),
                        code,
                        message: message.to_string(),
                    }
                    .to_line(),
                );
            };
            if *draining {
                refuse(conn, "queue_closed", "service is shutting down");
                return;
            }
            if let Err(e) = service.admit(
                &mut conn.bucket,
                &request.id,
                request.hg.num_pins(),
                Instant::now(),
            ) {
                conn.queue_line(&e.to_line());
                return;
            }
            let tx = done_tx.clone();
            let wake = Arc::clone(wake_tx);
            let reply = Box::new(move |line: String| {
                let _ = tx.send((token, line));
                // One pending byte is enough to wake the loop; a full
                // pipe means it is already awake.
                let _ = (&*wake).write(&[1u8]);
            });
            match service.try_submit(request, reply) {
                Ok(()) => conn.inflight += 1,
                Err(SubmitError::Full) => {
                    service.note_shed();
                    refuse(conn, "overloaded", "job queue is full; retry later");
                }
                Err(SubmitError::Closed) => {
                    refuse(conn, "queue_closed", "service is shutting down");
                }
            }
        }
    }
}
