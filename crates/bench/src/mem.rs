//! Process-memory sampling for the perf suite and the scale smoke.
//!
//! Linux exposes the high-water mark of the resident set (`VmHWM`) and the
//! current resident set (`VmRSS`) in `/proc/self/status`; both are read
//! with one small file read and no allocation beyond the line buffer. On
//! platforms without procfs the samplers return `None` and callers skip
//! the memory gate instead of failing.

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// when procfs is unavailable.
///
/// The kernel only ever raises this value, so sampling it *after* a run
/// captures the worst moment of the run — exactly what a memory gate
/// wants.
pub fn peak_rss_bytes() -> Option<u64> {
    field_bytes(&read_status()?, "VmHWM:")
}

/// Peak and current resident set size of this process in bytes (`VmHWM`,
/// `VmRSS`), or `None` when procfs is unavailable.
///
/// Both come from one read of `/proc/self/status`, so they describe the
/// same moment. Two separate reads do not: the second read's own buffer
/// can fault in a page and put the later `VmRSS` above the earlier
/// `VmHWM`.
pub fn peak_and_current_rss_bytes() -> Option<(u64, u64)> {
    let status = read_status()?;
    Some((
        field_bytes(&status, "VmHWM:")?,
        field_bytes(&status, "VmRSS:")?,
    ))
}

fn read_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Parses a `kB` field out of a `/proc/self/status` snapshot.
fn field_bytes(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_current_on_linux() {
        let Some((peak, current)) = peak_and_current_rss_bytes() else {
            return; // no procfs: the samplers opt out instead of lying
        };
        assert!(current > 0);
        assert!(peak >= current, "high-water {peak} below current {current}");
    }

    #[test]
    fn peak_rises_with_allocation() {
        let Some(before) = peak_rss_bytes() else {
            return;
        };
        // Touch every page so the buffer actually becomes resident.
        let mut big = vec![0u8; 64 << 20];
        for i in (0..big.len()).step_by(4096) {
            big[i] = 1;
        }
        let after = peak_rss_bytes().expect("procfs was readable a moment ago");
        std::hint::black_box(&big);
        assert!(
            after >= before + (32 << 20),
            "peak {after} did not rise past {before} after a 64 MiB allocation"
        );
    }
}
