//! Host-speed calibration. On a shared virtual machine the speed of
//! allocation-heavy, branchy code like a compiler's moves by up to 2x over
//! minutes as other tenants load the physical cores, while a latency-bound
//! arithmetic chain runs at the same speed: the cause is contention for the
//! cores, not the clock. That drift is far wider than any useful regression
//! bound. So the benchmark also times a fixed reference kernel of its own
//! (sorting, tree inserts, string formatting and hashing; no program code)
//! between requests, and scales its gated times to a host on which one
//! kernel call takes [`REFERENCE_NS`]. A change to the program does not
//! change the kernel, so it moves the scaled times as much as the raw ones.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spans::{cpu_ns, nanos};
use crate::stats::{percentile, ratio};

/// Median time of one kernel call, on two threads at once, on an unloaded
/// 2-vCPU Intel Xeon guest at 2.0 GHz. Scaled times are the times that
/// host would measure.
pub const REFERENCE_NS: f64 = 1.2e6;

/// Keys the kernel inserts and sorts.
const KERNEL_KEYS: u64 = 4096;

/// The reference kernel; returns a checksum so nothing is optimized away.
pub fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut tree = BTreeMap::new();
    let mut words = Vec::with_capacity(KERNEL_KEYS as usize);
    for i in 0..KERNEL_KEYS {
        let v = next();
        words.push(format!("n{:x}", v % 100_000));
        tree.insert(v % 8192, i);
    }
    words.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in &words {
        for b in w.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    for (k, v) in &tree {
        h ^= k.wrapping_mul(v + 1);
    }
    std::hint::black_box(h)
}

/// Kernel timings: each sample is the mean over the threads that ran the
/// kernel at once, in wall time and in the threads' CPU time.
#[derive(Debug, Default, Clone)]
pub struct Calibration {
    wall_ns: Vec<u64>,
    cpu_ns: Vec<u64>,
}

impl Calibration {
    /// Runs the kernel on `threads` threads at once and records the sample;
    /// one thread is the calling thread.
    pub fn sample(&mut self, threads: usize) {
        let timed = || {
            let cpu = cpu_ns(false);
            let t = Instant::now();
            kernel();
            (nanos(t), cpu_ns(false) - cpu)
        };
        let times: Vec<(u64, u64)> = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(timed)).collect();
            let mut times = vec![timed()];
            times.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("reference kernel panicked")),
            );
            times
        });
        let n = times.len().max(1) as u64;
        self.wall_ns
            .push(times.iter().map(|t| t.0).sum::<u64>() / n);
        self.cpu_ns.push(times.iter().map(|t| t.1).sum::<u64>() / n);
    }

    pub fn merge(&mut self, other: Calibration) {
        self.wall_ns.extend(other.wall_ns);
        self.cpu_ns.extend(other.cpu_ns);
    }

    pub fn samples(&self) -> usize {
        self.wall_ns.len()
    }

    /// The factor that scales a wall time to the reference host:
    /// [`REFERENCE_NS`] over the median sample; 1 without samples.
    pub fn wall_factor(&self) -> f64 {
        factor(&self.wall_ns)
    }

    /// As [`Calibration::wall_factor`], for CPU times.
    pub fn cpu_factor(&self) -> f64 {
        factor(&self.cpu_ns)
    }
}

fn factor(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    v.sort_by(f64::total_cmp);
    ratio(REFERENCE_NS, percentile(&v, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn factor_scales_to_the_reference_time() {
        assert_eq!(Calibration::default().wall_factor(), 1.0);
        let c = Calibration {
            wall_ns: vec![2_400_000, 2_000_000, 9_000_000],
            cpu_ns: vec![1_200_000, 600_000, 1_300_000],
        };
        assert_eq!(c.wall_factor(), 0.5);
        assert_eq!(c.cpu_factor(), 1.0);
        let mut d = Calibration::default();
        d.sample(2);
        d.merge(c);
        assert_eq!(d.samples(), 4);
        assert!(d.wall_factor() > 0.0 && d.cpu_factor() > 0.0);
    }
}
