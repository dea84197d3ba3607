//! Small statistics and reporting helpers: nearest-rank percentiles and
//! the count of samples beyond one (a tail percentile needs at least ten),
//! metric-name validation, and the peak-RSS reader.

/// Samples a reported tail percentile must have beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: the smallest rank whose share of samples is at least `p`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    // `p * n` first: for whole percentiles it is exact, so a rank that
    // lands on an integer is not pushed up by rounding (0.9 * 10 > 9).
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Samples ranked beyond percentile `p` among `n`: the tail percentile
/// of a run is meaningful when this is at least [`MIN_BEYOND`].
pub fn beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n).min(n)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A memory field of a `/proc/<pid>/status` text in KiB: `VmHWM` (peak
/// resident set size) or `VmRSS` (current resident set size).
pub fn status_kib(status: &str, field: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let mut fields = line[field.len() + 1..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// A memory field of this process's status, as [`status_kib`], in MiB.
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kib(&status, field).map(|kib| kib as f64 / 1024.0)
}

/// `(steal, total)` CPU ticks of the host's aggregate `cpu` line in the
/// contents of `/proc/stat`.
pub fn steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where the guest times are already counted in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// The machine's CPU ticks so far, as [`steal_ticks`] reads them.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(50.0, 1), 1);
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(50.0, 11), 6);
        assert_eq!(nearest_rank(99.0, 100), 99);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(100.0, 7), 7);
        assert_eq!(percentile(&samples(10), 90.0), 9.0);
        assert_eq!(percentile(&samples(5), 1.0), 1.0);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        assert_eq!(beyond(99.0, 1000), MIN_BEYOND);
        assert_eq!(beyond(99.0, 999), 9);
        assert_eq!(beyond(90.0, 100), MIN_BEYOND);
        assert_eq!(beyond(75.0, 40), MIN_BEYOND);
        assert_eq!(beyond(75.0, 39), 9);
        assert_eq!(beyond(50.0, 1), 0);
        assert_eq!(beyond(50.0, 0), 0);
        for n in 1..3000 {
            for p in [50.0, 75.0, 90.0, 99.0] {
                let b = beyond(p, n);
                assert!(b as f64 * 100.0 <= n as f64 * (100.0 - p), "n={n} p={p}");
                assert_eq!(percentile(&samples(n), p), (n - b) as f64);
            }
        }
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "sched.solve_p95_ms",
            "qcache.hit_ratio",
            "0x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "ü",
            "a/b",
            "a:b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn rss_reader_parses_vmhwm_and_vmrss() {
        let status =
            "Name:\tlnbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(51234));
        assert_eq!(status_kib(status, "VmRSS"), Some(40000));
        assert_eq!(status_kib(status, "VmRS"), None);
        assert_eq!(status_kib("VmRSS:\t 1 kB\n", "VmHWM"), None);
        assert_eq!(status_kib("VmHWM:\t x kB\n", "VmHWM"), None);
        assert_eq!(status_kib("VmHWM:\t 12 MB\n", "VmHWM"), None);
        for field in ["VmHWM", "VmRSS"] {
            let own = status_mb(field).expect("Linux exposes /proc/self/status");
            assert!(own > 0.0);
        }
    }

    #[test]
    fn steal_reader_parses_the_cpu_line() {
        let stat = "cpu  100 0 20 300 5 0 1 74 9 0\ncpu0 50 0 10 150 2 0 0 37 0 0\n";
        assert_eq!(steal_ticks(stat), Some((74, 500)));
        assert_eq!(steal_ticks("cpu  1 2 3\n"), None);
        assert_eq!(steal_ticks("intr 5\n"), None);
    }

    #[test]
    fn ratio_guards_empty_denominators() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
