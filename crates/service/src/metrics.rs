//! Service metrics, built on the [`vlsi_trace::CounterSink`].
//!
//! Two layers of observability meet here: service-level counters (jobs
//! served, cache hits, deadline expirations, latency percentiles) owned by
//! this module, and engine-level counters (passes, moves, cancellations)
//! aggregated by the [`CounterSink`] the workers thread into every
//! partitioning run. A `{"op":"metrics"}` request renders both as one
//! JSON line.
//!
//! Latencies are tracked **per engine**: a slow `sa` job must not hide in
//! the same histogram as sub-millisecond `fm` jobs. The snapshot still
//! exposes the aggregate p50/p99 across all engines (the fields older
//! dashboards scrape) alongside one `{name, count, p50_us, p99_us}` entry
//! per engine that has served at least one job.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vlsi_trace::{CounterSink, Counters};

/// Shared, lock-free-where-it-matters service metrics.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Jobs answered successfully (including cache hits).
    pub jobs_ok: AtomicU64,
    /// Jobs answered with an error response.
    pub jobs_failed: AtomicU64,
    /// Jobs whose worker panicked (isolated; also counted in `jobs_failed`).
    pub panics: AtomicU64,
    /// Jobs answered from the solution cache.
    pub cache_hits: AtomicU64,
    /// Jobs that ran an engine because the cache missed.
    pub cache_misses: AtomicU64,
    /// Jobs whose deadline fired (best-so-far responses).
    pub deadline_expirations: AtomicU64,
    /// Malformed / rejected request lines.
    pub protocol_errors: AtomicU64,
    /// Engine-level counters, fed by every worker's partitioning run.
    pub engine: CounterSink,
    latencies_us: Mutex<BTreeMap<&'static str, Vec<u64>>>,
}

/// Latency distribution of one engine's jobs (cache hits included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineLatency {
    /// Canonical engine name (`"fm"`, `"ml"`, ...).
    pub name: &'static str,
    /// Jobs this engine has answered.
    pub count: u64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
}

/// A point-in-time copy of everything [`ServiceMetrics`] tracks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs answered successfully.
    pub jobs_ok: u64,
    /// Jobs answered with an error.
    pub jobs_failed: u64,
    /// Worker panics survived.
    pub panics: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Deadline expirations.
    pub deadline_expirations: u64,
    /// Rejected request lines.
    pub protocol_errors: u64,
    /// Median service latency across all engines in microseconds
    /// (0 when no jobs ran).
    pub p50_us: u64,
    /// 99th-percentile service latency across all engines in microseconds.
    pub p99_us: u64,
    /// Per-engine latency distributions, sorted by engine name.
    pub engine_latencies: Vec<EngineLatency>,
    /// Engine counters (passes, moves, cancellations, ...).
    pub engine: Counters,
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served job's wall-clock latency under its engine's name.
    pub fn record_latency_us(&self, engine: &'static str, micros: u64) {
        self.latencies_us
            .lock()
            .expect("metrics mutex")
            .entry(engine)
            .or_default()
            .push(micros);
    }

    /// A consistent-enough copy of all counters (see
    /// [`CounterSink::snapshot`] for the relaxed-ordering caveat).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let by_engine = self.latencies_us.lock().expect("metrics mutex").clone();
        let mut all: Vec<u64> = by_engine.values().flatten().copied().collect();
        all.sort_unstable();
        // BTreeMap iteration gives the name-sorted order the JSON line and
        // snapshot comparisons rely on.
        let engine_latencies = by_engine
            .into_iter()
            .map(|(name, mut lat)| {
                lat.sort_unstable();
                EngineLatency {
                    name,
                    count: lat.len() as u64,
                    p50_us: percentile(&lat, 50),
                    p99_us: percentile(&lat, 99),
                }
            })
            .collect();
        MetricsSnapshot {
            jobs_ok: self.jobs_ok.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            deadline_expirations: self.deadline_expirations.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            p50_us: percentile(&all, 50),
            p99_us: percentile(&all, 99),
            engine_latencies,
            engine: self.engine.snapshot(),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank: ceil(p/100 * n), clamped to the sample.
    let rank = ((p as usize * sorted.len()).div_ceil(100)).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

impl MetricsSnapshot {
    /// Renders the snapshot as a one-line JSON metrics response.
    pub fn to_line(&self) -> String {
        let engines: String = self
            .engine_latencies
            .iter()
            .map(|l| {
                format!(
                    "\"{}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
                    l.name, l.count, l.p50_us, l.p99_us
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let engine: String = self
            .engine
            .fields()
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"status\":\"ok\",\"metrics\":{{",
                "\"jobs_ok\":{},\"jobs_failed\":{},\"panics\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},",
                "\"deadline_expirations\":{},\"protocol_errors\":{},",
                "\"p50_us\":{},\"p99_us\":{},",
                "\"engines\":{{{}}},",
                "\"engine\":{{{}}}}}}}"
            ),
            self.jobs_ok,
            self.jobs_failed,
            self.panics,
            self.cache_hits,
            self.cache_misses,
            self.deadline_expirations,
            self.protocol_errors,
            self.p50_us,
            self.p99_us,
            engines,
            engine,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
    }

    #[test]
    fn snapshot_reflects_recorded_activity() {
        let m = ServiceMetrics::new();
        m.jobs_ok.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        for us in [10, 20, 30] {
            m.record_latency_us("fm", us);
        }
        let snap = m.snapshot();
        assert_eq!(snap.jobs_ok, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.p50_us, 20);
        assert_eq!(snap.p99_us, 30);
        assert_eq!(
            snap.engine_latencies,
            vec![EngineLatency {
                name: "fm",
                count: 3,
                p50_us: 20,
                p99_us: 30,
            }]
        );
    }

    #[test]
    fn latencies_are_tracked_per_engine() {
        let m = ServiceMetrics::new();
        // A slow annealing job must not distort the fm percentiles.
        for us in [10, 20, 30, 40] {
            m.record_latency_us("fm", us);
        }
        m.record_latency_us("sa", 90_000);
        let snap = m.snapshot();
        // Name-sorted: fm before sa.
        assert_eq!(snap.engine_latencies.len(), 2);
        let fm = &snap.engine_latencies[0];
        let sa = &snap.engine_latencies[1];
        assert_eq!((fm.name, fm.count, fm.p50_us, fm.p99_us), ("fm", 4, 20, 40));
        assert_eq!((sa.name, sa.count, sa.p50_us), ("sa", 1, 90_000));
        // The aggregate still sees everything.
        assert_eq!(snap.p99_us, 90_000);
    }

    #[test]
    fn metrics_line_is_valid_json() {
        let m = ServiceMetrics::new();
        m.record_latency_us("ml", 5);
        m.record_latency_us("fm", 7);
        let line = m.snapshot().to_line();
        let parsed = crate::json::parse(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.get("p50_us").unwrap().as_u64(), Some(5));
        let engines = metrics.get("engines").unwrap();
        assert_eq!(
            engines.get("fm").unwrap().get("p50_us").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(
            engines.get("ml").unwrap().get("p99_us").unwrap().as_u64(),
            Some(5)
        );
        assert!(metrics
            .get("engine")
            .unwrap()
            .get("cancellations")
            .is_some());
        assert!(metrics.get("engine").unwrap().get("warm_starts").is_some());
        assert!(metrics.get("engine").unwrap().get("sheds").is_some());
    }

    #[test]
    fn metrics_line_lists_every_engine_counter() {
        let line = ServiceMetrics::new().snapshot().to_line();
        let parsed = crate::json::parse(&line).unwrap();
        let engine = parsed.get("metrics").unwrap().get("engine").unwrap();
        // The field names of `Counters`, read off its `Debug` form so this
        // list cannot drift from the struct.
        let debug = format!("{:?}", Counters::default());
        let names: Vec<&str> = debug
            .trim_start_matches("Counters {")
            .trim_end_matches('}')
            .split(',')
            .map(|field| field.split(':').next().unwrap().trim())
            .collect();
        for name in names {
            assert!(engine.get(name).is_some(), "`{name}` missing from {line}");
        }
    }

    #[test]
    fn metrics_line_with_no_jobs_is_valid_json() {
        let line = ServiceMetrics::new().snapshot().to_line();
        let parsed = crate::json::parse(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.get("p50_us").unwrap().as_u64(), Some(0));
        assert!(metrics.get("engines").is_some());
    }
}
