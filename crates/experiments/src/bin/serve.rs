//! Batch partitioning server CLI — the `vlsi-service` front end.
//!
//! ```text
//! usage: serve [--stdio | --tcp ADDR] [--workers N] [--queue N]
//!              [--cache N] [--trace FILE] [--high-water N]
//!              [--rate R] [--burst N] [--max-pins N]
//!              [--idle-timeout SECS]
//! ```
//!
//! Speaks the line-delimited JSON protocol documented in
//! `docs/PROTOCOL.md`: one request object per line in, one response
//! object per line out. `--stdio` (the default) serves a single session
//! on stdin/stdout and exits at EOF or `{"op":"shutdown"}`; `--tcp`
//! accepts any number of concurrent connections on the epoll event loop
//! until a client sends shutdown. `--high-water`, `--rate`, `--burst` and
//! `--max-pins` enable admission control (load shedding, per-client rate
//! limits and a per-request instance-size cap — see `docs/OPERATIONS.md`
//! for tuning). On exit the final metrics
//! snapshot is printed to stderr as one line, the object a
//! `{"op":"metrics"}` request returns.

use std::process::exit;
use std::time::Duration;

use vlsi_service::{serve_stdio, serve_tcp, ServiceConfig};

const USAGE: &str = "usage: serve [--stdio | --tcp ADDR] [--workers N] [--queue N] [--cache N] \
                     [--trace FILE] [--high-water N] [--rate R] [--burst N] [--max-pins N] \
                     [--idle-timeout SECS]";

struct Args {
    tcp: Option<String>,
    config: ServiceConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        config: ServiceConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--stdio" => args.tcp = None,
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--workers" => {
                args.config.workers = value("--workers")?.parse().map_err(|_| "bad --workers")?
            }
            "--queue" => {
                args.config.queue_capacity = value("--queue")?.parse().map_err(|_| "bad --queue")?
            }
            "--cache" => {
                args.config.cache_capacity = value("--cache")?.parse().map_err(|_| "bad --cache")?
            }
            "--trace" => args.config.trace_path = Some(value("--trace")?.into()),
            "--high-water" => {
                args.config.admission.high_water = value("--high-water")?
                    .parse()
                    .map_err(|_| "bad --high-water")?
            }
            "--rate" => {
                args.config.admission.rate_per_sec =
                    value("--rate")?.parse().map_err(|_| "bad --rate")?
            }
            "--burst" => {
                args.config.admission.burst =
                    value("--burst")?.parse().map_err(|_| "bad --burst")?
            }
            "--max-pins" => {
                args.config.admission.max_pins =
                    value("--max-pins")?.parse().map_err(|_| "bad --max-pins")?
            }
            "--idle-timeout" => {
                args.config.idle_timeout = Duration::from_secs(
                    value("--idle-timeout")?
                        .parse()
                        .map_err(|_| "bad --idle-timeout")?,
                )
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            exit(2);
        }
    };
    let served = match &args.tcp {
        Some(addr) => {
            eprintln!("serving on tcp://{addr} ({} workers)", args.config.workers);
            serve_tcp(args.config, addr.as_str())
        }
        None => serve_stdio(args.config),
    };
    match served {
        Ok(snapshot) => eprintln!("{}", snapshot.to_line()),
        Err(e) => {
            eprintln!("serve: {e}");
            exit(1);
        }
    }
}
