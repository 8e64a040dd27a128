//! Host measurements that tell a slow machine window from a slow program:
//! a fixed reference loop, steal time, and peak resident memory.

use std::time::Instant;

/// Words in the reference loop's buffer: 32 MiB of `u64`, far past the
/// last-level cache, so the loop leans on memory the way partitioning does.
const REF_WORDS: usize = 1 << 22;
/// Random read-modify-write steps per reference measurement.
const REF_STEPS: usize = 1 << 22;

/// The fixed, benchmark-owned reference loop. Every call visits the same
/// index sequence, so its work never changes between commits; only the
/// machine's speed does.
pub struct RefLoop {
    buf: Vec<u64>,
}

impl RefLoop {
    /// Allocates and touches the buffer once, outside any measurement.
    pub fn new() -> Self {
        let mut r = RefLoop {
            buf: (0..REF_WORDS as u64).collect(),
        };
        r.time_ms();
        r
    }

    /// Runs the loop once and returns its wall time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..REF_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (REF_WORDS - 1);
            self.buf[i] = self.buf[i]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1);
        }
        std::hint::black_box(&self.buf);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Cumulative CPU time counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters; `None` without procfs.
    pub fn now() -> Option<Self> {
        let text = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = text
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        (fields.len() == 8).then(|| CpuTimes {
            total: fields.iter().sum(),
            steal: fields[7],
        })
    }
}

/// Steal time as a percentage of all CPU time between two readings
/// (0 when either reading is missing).
pub fn steal_pct(before: Option<CpuTimes>, after: Option<CpuTimes>) -> f64 {
    let (Some(a), Some(b)) = (before, after) else {
        return 0.0;
    };
    let total = b.total.saturating_sub(a.total);
    if total == 0 {
        0.0
    } else {
        100.0 * b.steal.saturating_sub(a.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
