//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this local crate
//! provides the subset of the criterion API the workspace's benches use:
//! [`Criterion::bench_function`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BatchSize`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros. It measures with [`std::time::Instant`] and
//! prints a simple `name ... median ns/iter` line — no statistics engine,
//! no plots — which is enough to keep `cargo bench` runnable offline.
//!
//! Like real criterion, a bench binary measures only when `cargo bench`
//! passes `--bench` on its command line; otherwise (`cargo test --benches`)
//! it is in test mode and runs each routine once, so test runs stay quick.
//! Bench targets using it must set `harness = false`, or `main` never runs.

use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How batched inputs are grouped per measurement (accepted, ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// The benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    /// Run each routine once without reporting a time.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            test_mode: false,
        }
    }
}

impl Criterion {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Enters test mode unless the command line carries `--bench`, as
    /// real criterion does. [`criterion_group!`] applies this to every
    /// group's configuration.
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = !std::env::args().any(|a| a == "--bench");
        self
    }

    /// Runs one benchmark and prints its median time per iteration; in
    /// test mode, runs the routine once and prints `ok`.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: if self.test_mode { 1 } else { self.sample_size },
        };
        f(&mut b);
        if self.test_mode {
            println!("test: {id} ... ok");
            return self;
        }
        b.samples.sort_unstable();
        let median = b.samples.get(b.samples.len() / 2).copied().unwrap_or(0);
        println!("bench: {id:<40} {median:>12} ns/iter ({} samples)", b.samples.len());
        self
    }
}

/// Passed to the benchmark closure; runs and times the measured routine.
pub struct Bencher {
    samples: Vec<u128>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine` over `sample_size` samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std_black_box(routine());
            self.samples.push(t0.elapsed().as_nanos());
        }
    }

    /// Times `routine` on fresh inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            std_black_box(routine(input));
            self.samples.push(t0.elapsed().as_nanos());
        }
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the `main` entry point running the given groups: measured
/// under `cargo bench`, each routine once otherwise (see the crate docs).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(3);
        targets = sample_bench
    }

    #[test]
    fn group_runs() {
        benches();
    }

    #[test]
    fn test_mode_runs_each_routine_once() {
        let mut runs = 0;
        let mut c = Criterion::default().sample_size(5);
        c.test_mode = true;
        c.bench_function("counted", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
        c.test_mode = false;
        c.bench_function("counted", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 6);
    }
}
