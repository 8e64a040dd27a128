//! Nonblocking epoll front end for the TCP transport.
//!
//! One thread runs every connection: a level-triggered [`Epoll`] instance
//! watches the listener, a wake pipe, and each client socket. Each read
//! goes through the connection's [`LineFramer`] and each line it completes
//! through [`Service::accept_line`], the front door the stdio transport
//! shares, so the loop adds only its own queueing and reply routing: an
//! admitted job is submitted without blocking, with a reply closure that
//! posts the finished response line on a completion channel and pokes the
//! wake pipe so the loop picks it up immediately. A line past the framing
//! cap stops the connection's reading, and the connection closes once its
//! jobs have answered.
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
use std::ops::ControlFlow;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::admission::TokenBucket;
use crate::frame::LineFramer;
use crate::server::{Accepted, Service, SHUTDOWN_REPLY};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

const LISTENER: u64 = u64::MAX;
const WAKE: u64 = u64::MAX - 1;
/// Epoll wait timeout — the cadence of idle sweeps and drain checks.
const TICK_MS: i32 = 100;

struct Conn {
    stream: TcpStream,
    framer: LineFramer,
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
            // A closed read side asks for no read events: a peer's
            // half-close stays pending, and a level-triggered EPOLLRDHUP
            // would wake every wait until the connection's jobs answer.
            let mut want = 0;
            if !conn.read_closed {
                want |= EPOLLIN | EPOLLRDHUP;
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
                        framer: LineFramer::default(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        last_active: Instant::now(),
                        bucket: service.token_bucket(),
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

/// Reads everything the socket has and hands each line it completes to
/// [`Service::accept_line`]. An `Err` means the connection is unusable
/// and must be dropped.
///
/// A line longer than the framing cap stops the reading without a reply
/// to it: the connection closes once the jobs it already submitted have
/// answered, as a stdio session ends.
fn handle_readable(
    conn: &mut Conn,
    token: u64,
    service: &Service,
    done_tx: &mpsc::Sender<(u64, String)>,
    wake_tx: &Arc<UnixStream>,
    draining: &mut bool,
) -> io::Result<()> {
    let mut on_line = |conn: &mut Conn, line: &[u8]| {
        match service.accept_line(line, &mut conn.bucket, *draining) {
            Accepted::Blank => {}
            Accepted::Reply(reply) => conn.queue_line(&reply),
            Accepted::Shutdown => {
                conn.queue_line(SHUTDOWN_REPLY);
                *draining = true;
            }
            Accepted::Job(request) => {
                let tx = done_tx.clone();
                let wake = Arc::clone(wake_tx);
                let reply = Box::new(move |line: String| {
                    let _ = tx.send((token, line));
                    // One pending byte is enough to wake the loop; a full
                    // pipe means it is already awake.
                    let _ = (&*wake).write(&[1u8]);
                });
                // The loop never blocks: a full queue sheds the job.
                match service.submit(request, reply, false) {
                    Ok(()) => conn.inflight += 1,
                    Err(refusal) => conn.queue_line(&refusal),
                }
            }
        }
        ControlFlow::<()>::Continue(())
    };
    // The framer is taken out so that each line can borrow the connection.
    let mut framer = std::mem::take(&mut conn.framer);
    let mut buf = [0u8; 16 * 1024];
    let read = loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                let _ = framer.finish(|line| on_line(conn, line));
                break Ok(());
            }
            Ok(n) => {
                conn.last_active = Instant::now();
                if framer.feed(&buf[..n], |line| on_line(conn, line)).is_err() {
                    conn.read_closed = true;
                    // The long line is never answered: free its bytes.
                    framer = LineFramer::default();
                    break Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    conn.framer = framer;
    read
}
