//! Same bytes, same answers: the stdio session (`Service::serve`) and the
//! TCP front end (`serve_tcp`) frame and answer one byte stream alike.
//!
//! One stream holds a JSON-whitespace-only line, a job line with a 0xFF
//! byte in it, a job line that starts with U+00A0 (Unicode, not JSON,
//! whitespace), a metrics query, two valid jobs and a valid job with no
//! `\n` after it. Both transports must answer it with the same response
//! lines, compared as sorted sets with the wall-clock fields masked. A
//! line past the 64 MiB cap ends a session (stdio) or a connection (TCP)
//! without a reply to it, once the jobs accepted before it have answered.

use std::io::{self, BufRead, BufReader, Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use vlsi_service::json;
use vlsi_service::{serve_tcp, MetricsSnapshot, Service, ServiceConfig};

/// The framing cap on one request line (`docs/PROTOCOL.md`, "Framing").
const MAX_LINE: usize = 64 << 20;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// A job on a 6-vertex chain with its ends fixed apart.
fn job(id: &str, seed: u64) -> String {
    format!(
        r#"{{"id":"{id}","engine":"fm","starts":1,"seed":{seed},"tolerance":0.4,"hypergraph":{{"vertices":[1,1,1,1,1,1],"nets":[[0,1],[1,2],[2,3],[3,4],[4,5]]}},"fixed":[0,-1,-1,-1,-1,1]}}"#
    )
}

/// The stream both transports answer. The metrics query comes before
/// the first valid job, so its counters do not depend on how far the
/// worker has got.
fn stream() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b" \t\r\n");
    bytes.extend_from_slice(job("ff", 1).replace("\"ff\"", "\"f\u{0}f\"").as_bytes());
    let nul = bytes
        .iter()
        .position(|&b| b == 0)
        .expect("placeholder byte");
    bytes[nul] = 0xFF;
    bytes.push(b'\n');
    bytes.extend_from_slice(format!("\u{a0}{}\n", job("nbsp", 2)).as_bytes());
    bytes.extend_from_slice(b"{\"op\":\"metrics\"}\n");
    bytes.extend_from_slice(format!("{}\n{}\n", job("a", 3), job("b", 4)).as_bytes());
    bytes.extend_from_slice(job("tail", 5).as_bytes());
    bytes
}

/// Masks the wall-clock fields of a response line and the p50/p99 of a
/// metrics line.
fn mask(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["\"micros\":", "\"p50_us\":", "\"p99_us\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end = out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(out.len(), |off| start + off);
            out.replace_range(start..end, "0");
            from = start;
        }
    }
    out
}

fn sorted_masked(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.lines().map(mask).collect();
    lines.sort();
    lines
}

fn spawn_server() -> (SocketAddr, JoinHandle<MetricsSnapshot>) {
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = probe.local_addr().expect("addr");
    drop(probe);
    let server = std::thread::spawn(move || serve_tcp(config(), addr).expect("serve_tcp runs"));
    (addr, server)
}

fn connect(addr: SocketAddr) -> TcpStream {
    // The event loop may not be up yet: retry briefly.
    for _ in 0..200 {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_nodelay(true).expect("nodelay");
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("could not connect to {addr}");
}

/// Reads a connection's responses until the server closes it.
fn read_to_close(stream: &TcpStream) -> String {
    let mut text = String::new();
    BufReader::new(stream)
        .read_to_string(&mut text)
        .expect("responses are UTF-8 lines");
    text
}

/// Asks the server to shut down over a fresh connection and waits for it.
fn stop(addr: SocketAddr, server: JoinHandle<MetricsSnapshot>) -> MetricsSnapshot {
    let mut control = connect(addr);
    control
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    assert!(read_to_close(&control).contains("\"op\":\"shutdown\""));
    server.join().expect("server thread")
}

#[test]
fn stdio_and_tcp_answer_the_same_bytes_alike() {
    let bytes = stream();

    let service = Service::start(config()).expect("service starts");
    let mut out = Vec::new();
    service
        .serve(Cursor::new(&bytes), &mut out)
        .expect("the stdio session reads to the end");
    service.shutdown();
    let stdio = sorted_masked(&String::from_utf8(out).expect("UTF-8 responses"));

    let (addr, server) = spawn_server();
    let mut client = connect(addr);
    client.write_all(&bytes).expect("send the stream");
    // End of input: the unterminated last line is still a request.
    client.shutdown(Shutdown::Write).expect("half-close");
    let tcp = sorted_masked(&read_to_close(&client));
    stop(addr, server);

    assert_eq!(stdio, tcp, "the transports answer the same bytes alike");

    // What both answered: the two bad lines as bad_json without an id (the
    // 0xFF at its byte offset), the metrics after those two errors, and the
    // three valid jobs, the unterminated one included.
    let codes: Vec<Option<String>> = stdio
        .iter()
        .map(|line| {
            let resp = json::parse(line).expect("valid response");
            resp.get("code")
                .and_then(|c| c.as_str())
                .map(str::to_string)
        })
        .collect();
    assert_eq!(
        codes.iter().filter(|c| c.is_none()).count(),
        4,
        "{stdio:#?}"
    );
    assert_eq!(
        codes
            .iter()
            .filter(|c| c.as_deref() == Some("bad_json"))
            .count(),
        2,
        "{stdio:#?}"
    );
    let ff_offset = job("ff", 1).find("ff").expect("id") + 1;
    assert!(
        stdio
            .iter()
            .any(|l| l.contains(&format!("invalid JSON at byte {ff_offset}: invalid UTF-8"))),
        "{stdio:#?}"
    );
    assert!(
        stdio.iter().any(|l| l.contains("\"protocol_errors\":2")),
        "{stdio:#?}"
    );
    for id in ["a", "b", "tail"] {
        let ok = format!("{{\"id\":\"{id}\",\"status\":\"ok\"");
        assert!(stdio.iter().any(|l| l.starts_with(&ok)), "{id}: {stdio:#?}");
    }
}

/// A reader that counts the bytes taken from it.
struct Counted<R> {
    inner: R,
    taken: usize,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.taken += n;
        Ok(n)
    }
}

#[test]
fn a_line_past_the_cap_ends_a_stdio_session_after_its_answers() {
    const READ: usize = 64 << 10;
    let first = format!("{}\n", job("first", 1));
    let input = Cursor::new(first.clone()).chain(io::repeat(b'x').take(MAX_LINE as u64 + 1));
    let mut reader = BufReader::with_capacity(
        READ,
        Counted {
            inner: input,
            taken: 0,
        },
    );

    let service = Service::start(config()).expect("service starts");
    let mut out = Vec::new();
    let err = service
        .serve(&mut reader, &mut out)
        .expect_err("a line past the cap ends the session");
    let snapshot = service.shutdown();

    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let taken = reader.get_ref().taken;
    assert!(
        taken <= first.len() + MAX_LINE + READ,
        "read {taken} bytes: more than the cap and one read past the first line"
    );
    // The job before the long line answered; the long line did not.
    let text = String::from_utf8(out).expect("UTF-8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "{text}");
    assert!(lines[0].starts_with("{\"id\":\"first\",\"status\":\"ok\""));
    assert_eq!((snapshot.jobs_ok, snapshot.protocol_errors), (1, 0));
}

#[test]
fn a_line_past_the_cap_ends_a_tcp_connection_after_its_answers() {
    let (addr, server) = spawn_server();
    let client = connect(addr);
    let mut writer = client.try_clone().expect("clone stream");
    // The server reads every byte sent, so it closes the connection with
    // nothing left unread (a clean close, not a reset).
    let sender = std::thread::spawn(move || {
        writer
            .write_all(format!("{}\n", job("first", 1)).as_bytes())
            .expect("send job");
        let chunk = vec![b'x'; 64 << 10];
        let mut left = MAX_LINE + 1;
        while left > 0 {
            let n = left.min(chunk.len());
            writer.write_all(&chunk[..n]).expect("send the long line");
            left -= n;
        }
    });

    let mut lines = Vec::new();
    let mut reader = BufReader::new(&client);
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read response") > 0 {
        lines.push(std::mem::take(&mut line));
    }
    sender.join().expect("sender thread");
    let snapshot = stop(addr, server);

    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"id\":\"first\",\"status\":\"ok\""));
    assert_eq!((snapshot.jobs_ok, snapshot.protocol_errors), (1, 0));
}
