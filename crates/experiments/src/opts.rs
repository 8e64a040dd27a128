//! Minimal command-line option parsing shared by the experiment binaries,
//! plus the `--trace` plumbing that turns a path into a live
//! [`JsonlSink`].
//!
//! No external CLI dependency is warranted for the handful of flags the
//! experiment binaries share, so this is a tiny hand-rolled parser.

use std::path::Path;

use vlsi_partition::trace::{JsonlSink, NullSink, Sink};

/// Options common to all experiment binaries.
///
/// # Example
/// ```
/// use vlsi_experiments::opts::Options;
/// let o = Options::parse(["--scale", "0.25", "--trials", "3", "--circuit", "ibm03"]
///     .iter()
///     .map(|s| s.to_string()))
///     .unwrap();
/// assert_eq!(o.scale, 0.25);
/// assert_eq!(o.trials, 3);
/// assert_eq!(o.circuits, vec!["ibm03".to_string()]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Instance scale factor (1.0 = the paper's full circuit sizes).
    pub scale: f64,
    /// Trials per data point (the paper averages 50).
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Circuits to run (`ibm01`…`ibm05`).
    pub circuits: Vec<String>,
    /// Emit CSV instead of the aligned text table.
    pub csv: bool,
    /// Write a structured JSONL trace of the measured runs to this path.
    pub trace: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.12,
            trials: 5,
            seed: 1999, // the paper's year — a fixed default for replicability
            circuits: vec!["ibm01".into(), "ibm03".into()],
            csv: false,
            trace: None,
        }
    }
}

impl Options {
    /// Parses the given arguments (excluding the program name).
    ///
    /// Recognised flags: `--scale F`, `--trials N`, `--seed N`,
    /// `--circuit NAME` (repeatable), `--paper` (full scale, 50 trials),
    /// `--csv`.
    ///
    /// # Errors
    /// Returns a human-readable message for unknown flags or bad values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut o = Options::default();
        let mut explicit_circuits = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => o.scale = take(&mut it, "--scale")?,
                "--trials" => o.trials = take(&mut it, "--trials")?,
                "--seed" => o.seed = take(&mut it, "--seed")?,
                "--circuit" => {
                    if !explicit_circuits {
                        o.circuits.clear();
                        explicit_circuits = true;
                    }
                    o.circuits.push(it.next().ok_or("--circuit needs a value")?);
                }
                "--paper" => {
                    o.scale = 1.0;
                    o.trials = 50;
                }
                "--csv" => o.csv = true,
                "--trace" => {
                    o.trace = Some(it.next().ok_or("--trace needs a path")?.into());
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
            }
        }
        if o.trials == 0 {
            return Err("--trials must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&o.scale) || o.scale <= 0.0 {
            return Err("--scale must be in (0, 1]".into());
        }
        Ok(o)
    }

    /// Parses `std::env::args()`, printing usage and exiting on error.
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
}

const USAGE: &str =
    "usage: [--scale F] [--trials N] [--seed N] [--circuit NAME]... [--paper] [--csv] [--trace PATH]
  --scale F       instance scale, 1.0 = paper-size circuits (default 0.12)
  --trials N      trials per data point (default 5; the paper used 50)
  --seed N        base RNG seed (default 1999)
  --circuit NAME  ibm01..ibm05, repeatable (default: ibm01 ibm03)
  --paper         shorthand for --scale 1.0 --trials 50
  --csv           machine-readable CSV output
  --trace PATH    write a JSONL event trace of the measured runs to PATH
                  (see docs/TRACING.md for the schema)";

/// A sink-generic experiment body for [`run_with_trace`]. A plain closure
/// cannot be generic over the sink type, so binaries implement this
/// one-method trait on a small carrier struct instead.
pub trait TraceRun {
    /// What the experiment returns.
    type Output;
    /// Runs the experiment, streaming trace events into `sink` (which may
    /// be shared by worker threads).
    fn run<S: Sink + Sync>(self, sink: &S) -> Self::Output;
}

/// Runs `job` against a [`JsonlSink`] writing to `trace` when a path was
/// given (flushing it and reporting write errors on stderr afterwards), or
/// against the zero-cost [`NullSink`] otherwise. Exits the process when
/// the trace file cannot be created.
pub fn run_with_trace<J: TraceRun>(trace: Option<&Path>, job: J) -> J::Output {
    match trace {
        Some(path) => {
            let sink = match JsonlSink::create(path) {
                Ok(sink) => sink,
                Err(e) => {
                    eprintln!("cannot create trace file {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            let out = job.run(&sink);
            sink.flush();
            if sink.write_errors() > 0 {
                eprintln!(
                    "warning: {} trace write errors; {} is incomplete",
                    sink.write_errors(),
                    path.display()
                );
            } else {
                eprintln!("trace written to {}", path.display());
            }
            out
        }
        None => job.run(&NullSink),
    }
}

fn take<I: Iterator<Item = String>, T: std::str::FromStr>(
    it: &mut I,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("bad value for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.trials, 5);
        assert_eq!(o.circuits.len(), 2);
        assert!(!o.csv);
    }

    #[test]
    fn paper_mode() {
        let o = parse(&["--paper"]).unwrap();
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.trials, 50);
    }

    #[test]
    fn circuit_replaces_defaults() {
        let o = parse(&["--circuit", "ibm05", "--circuit", "ibm02"]).unwrap();
        assert_eq!(o.circuits, vec!["ibm05", "ibm02"]);
    }

    #[test]
    fn rejects_unknown_and_bad() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--scale", "2.0"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn run_with_trace_writes_jsonl() {
        use vlsi_partition::trace::Event;
        struct Emit;
        impl TraceRun for Emit {
            type Output = u32;
            fn run<S: Sink>(self, sink: &S) -> u32 {
                sink.record(&Event::StartFinished {
                    start: 0,
                    cut: 7,
                    micros: 1,
                });
                42
            }
        }
        let path =
            std::env::temp_dir().join(format!("vlsi-opts-trace-test-{}.jsonl", std::process::id()));
        assert_eq!(run_with_trace(Some(&path), Emit), 42);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ev\":\"start\""), "got: {text}");
        std::fs::remove_file(&path).ok();
        assert_eq!(run_with_trace(None, Emit), 42);
    }

    #[test]
    fn trace_path() {
        let o = parse(&["--trace", "results/trace/run.jsonl"]).unwrap();
        assert_eq!(
            o.trace.as_deref(),
            Some(std::path::Path::new("results/trace/run.jsonl"))
        );
        assert_eq!(parse(&[]).unwrap().trace, None);
    }
}
