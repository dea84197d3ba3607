//! The three workloads. Each runs a closed loop of requests for the given
//! time after an untimed set-up, checks every output, and returns its
//! measurements.
//!
//! * `matrix_cold` — the 32-cell evaluation matrix at -O0 on a fresh
//!   cache, 2 workers, cells in a seeded order: the first build a user
//!   pays for, where the scheduler does most of the work.
//! * `matrix_checked` — the same matrix at -O2 followed by the sign-off
//!   checks (xcheck, §5.3 programs, §5.5 array sum): netlist optimization
//!   and simulation dominate.
//! * `serve_stream` — one long-lived, bounded cache shared by 2 closed-loop
//!   clients sending one-cell jobs; every 16th job carries a unique
//!   comment-only edit, so cache replay and the cold path both show.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use longnail::driver::eval_datasheets;
use longnail::{
    isax_lib, CompiledIsax, Longnail, MatrixCell, MatrixResult, OptLevel, PipelineCache,
};
use qcache::Digest;
use rtl::Module;

use crate::calib::Calibration;
use crate::checks::{artifact_digest, cell_ok, CheckPass, Checker};
use crate::layers::{Layers, Mirror};
use crate::spans::{cpu_ns, nanos, Recorder};
use crate::stats::{ratio, status_mb};
use crate::stream;
use telemetry::metrics::CACHE_FRONTEND_HIT as FRONTEND_HIT;

/// Matrix workers and serve clients: the load one 2-CPU host sustains.
pub const WORKERS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Reference-kernel samples taken after each set-up.
const SETUP_CALIBRATIONS: usize = 3;

/// A serve client samples the reference kernel after every this many of
/// its own jobs.
const SERVE_CALIBRATION_EVERY: u64 = 256;

/// Capacity of the serve cache: room for the 32 cells' entries (about
/// 3.5 MiB) plus a window of about forty recent edits, so memory stays
/// flat however long a run is. A cell is hit about every 32 jobs, so the
/// LRU only ever evicts old edits.
const SERVE_CACHE_BYTES: u64 = 8 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatrixCold,
    MatrixChecked,
    ServeStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MatrixCold,
        Workload::MatrixChecked,
        Workload::ServeStream,
    ];

    /// The percentile `latency_tail_ms` reports: the highest of 99, 90
    /// and 75 that keeps at least ten samples beyond it in a 30-second run
    /// (about 50 checked matrices, 200 cold ones, 50000 serve jobs), fixed
    /// so the figure never switches percentile as the program gets faster.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::MatrixCold => 90.0,
            Workload::MatrixChecked => 75.0,
            Workload::ServeStream => 99.0,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixCold => "matrix_cold",
            Workload::MatrixChecked => "matrix_checked",
            Workload::ServeStream => "serve_stream",
        }
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Measured {
    /// CPU time of each set-up, all threads of the process together.
    pub setup_cpu_ns: Vec<u64>,
    /// Reference-kernel samples taken after the set-ups, and between the
    /// requests.
    pub setup_calibration: Calibration,
    pub calibration: Calibration,
    /// Latencies of the untraced requests.
    pub latency_ns: Vec<u64>,
    /// Latencies of the traced requests, each including the tracing work
    /// done for it (traced runs only).
    pub traced_latency_ns: Vec<u64>,
    /// Compile part of each untraced matrix request (`matrix_s`).
    pub compile_ns: Vec<u64>,
    /// Check part of each untraced checked request (`check_s`).
    pub check_ns: Vec<u64>,
    /// Cells compiled by the untraced requests, and the CPU time
    /// those requests took (every thread of the process for a matrix, the
    /// client's own thread for a serve job).
    pub cells: u64,
    pub cpu_ns: u64,
    /// Serve jobs per second of request time, summed over clients.
    pub jobs_per_s: f64,
    /// Jobs whose every stage lookup hit (serve only).
    pub hit_jobs: u64,
    pub attempted: u64,
    pub problems: Vec<String>,
    pub failed: u64,
    pub layers: Layers,
    pub recorder: Recorder,
    /// The outputs of the run, row-major over the matrix, for the
    /// hardware-quality metrics.
    pub outputs: Vec<CompiledIsax>,
    /// The last check pass over those outputs.
    pub checks: CheckPass,
    /// Peak resident memory at the end of the requests, before any
    /// untimed final check pass, whose own peak would otherwise decide it.
    pub peak_rss_mb: f64,
    /// Resident memory sampled between requests, in MiB.
    pub rss_mb: Vec<f64>,
}

impl Measured {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.fail(problem);
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    fn record_checks(&mut self, pass: &CheckPass) {
        self.attempted += pass.attempted;
        for p in &pass.problems {
            self.fail(p.clone());
        }
    }

    /// Runs one check pass over `outputs` (row-major) and accounts it;
    /// returns the pass's wall time.
    fn check(&mut self, checker: &Checker, outputs: &[&CompiledIsax], traced: bool) -> u64 {
        if traced {
            self.recorder.enter("checks");
        }
        let t = Instant::now();
        let pass = checker.run(outputs, WORKERS);
        let ns = nanos(t);
        if traced {
            self.recorder.leaf("xcheck_compiled", pass.xcheck_ns);
            self.recorder.leaf("ExtendedCore::run", pass.exec_ns);
            self.recorder.leaf("GoldenMachine::run", pass.golden_ns);
            self.recorder.exit();
            self.layers.observe_checks(&pass);
        }
        self.record_checks(&pass);
        self.checks = pass;
        ns
    }

    fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
        self.hit_jobs += other.hit_jobs;
        self.latency_ns.extend(other.latency_ns);
        self.traced_latency_ns.extend(other.traced_latency_ns);
        self.cells += other.cells;
        self.cpu_ns += other.cpu_ns;
        self.jobs_per_s += other.jobs_per_s;
        self.layers.merge(other.layers);
        self.recorder.merge(other.recorder);
        self.calibration.merge(other.calibration);
        self.rss_mb.extend(other.rss_mb);
    }
}

/// The evaluation matrix, row-major: every ISAX on every core.
pub fn matrix_cells() -> Vec<MatrixCell> {
    let cores = eval_datasheets();
    isax_lib::all_isaxes()
        .into_iter()
        .flat_map(|(isax, unit, src)| {
            cores.iter().map(move |ds| MatrixCell {
                isax: isax.clone(),
                unit: unit.clone(),
                src: src.clone(),
                datasheet: ds.clone(),
            })
        })
        .collect()
}

/// Whether request `index` is traced: in a traced run every other request
/// is, so traced and untraced requests see the same host and their
/// latencies compare (`trace.overhead_pct`).
fn is_traced(trace: bool, index: u64) -> bool {
    trace && index % 2 == 1
}

/// Outputs of a matrix result in row-major cell order, given the
/// row-major index of each entry; failed cells are `None`.
fn by_cell<'m>(m: &'m MatrixResult, order: &[usize]) -> Vec<Option<&'m CompiledIsax>> {
    let mut out = vec![None; order.len()];
    for (entry, &k) in m.entries.iter().zip(order) {
        out[k] = cell_ok(&entry.outcome).ok();
    }
    out
}

struct MatrixSetup {
    cells: Vec<MatrixCell>,
    digests: Vec<Digest>,
    checker: Checker,
    pre_opt: Option<HashMap<(String, String, String), Module>>,
}

/// Loads the sources, compiles a warm-up matrix (recording each cell's
/// artifact digest), and assembles the check programs, which the checked
/// workload's warm-up also runs.
fn matrix_setup(
    ln: &Longnail,
    seed: u64,
    trace: bool,
    checked: bool,
    m: &mut Measured,
) -> Option<MatrixSetup> {
    let cells = matrix_cells();
    let order = stream::permutation(seed, 0, cells.len());
    let ordered: Vec<MatrixCell> = order.iter().map(|&k| cells[k].clone()).collect();
    let warm = ln.compile_cells(&ordered, WORKERS, &PipelineCache::new());
    let mut digests = vec![Digest([0; 32]); cells.len()];
    let mut compiled = Vec::new();
    for (entry, &k) in warm.entries.iter().zip(&order) {
        match cell_ok(&entry.outcome) {
            Ok(c) => digests[k] = artifact_digest(c),
            Err(problem) => m.fail(format!("warm-up: {problem}")),
        }
    }
    let by = by_cell(&warm, &order);
    for c in &by {
        compiled.push((*c)?);
    }
    let checker = match Checker::new(&cells, &compiled) {
        Ok(c) => c,
        Err(problem) => {
            m.fail(format!("check set-up: {problem}"));
            return None;
        }
    };
    if checked {
        m.record_checks(&checker.run(&compiled, WORKERS));
    }
    // The traced run times the optimizer on the unoptimized netlists.
    let pre_opt = (trace && ln.opt_level != OptLevel::O0).then(|| {
        let o0 = Longnail::new().compile_cells(&cells, WORKERS, &PipelineCache::new());
        o0.compiled()
            .flat_map(|(_, c)| {
                c.graphs.iter().map(|g| {
                    (
                        (c.name.clone(), c.core.clone(), g.name.clone()),
                        g.built.module.clone(),
                    )
                })
            })
            .collect()
    });
    Some(MatrixSetup {
        cells,
        digests,
        checker,
        pre_opt,
    })
}

/// `matrix_cold` (`checked == false`) and `matrix_checked`.
pub fn matrix(seed: u64, seconds: f64, trace: bool, checked: bool) -> Measured {
    let level = if checked { OptLevel::O2 } else { OptLevel::O0 };
    let ln = Longnail::new().with_opt_level(level);
    let mut m = Measured::default();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let cpu = cpu_ns(true);
        setup = matrix_setup(&ln, seed, trace, checked, &mut m);
        m.setup_cpu_ns.push(cpu_ns(true) - cpu);
        for _ in 0..SETUP_CALIBRATIONS {
            m.setup_calibration.sample(WORKERS);
        }
    }
    let Some(setup) = setup else { return m };
    let n = setup.cells.len();
    let mirror = Mirror::new(&ln, setup.pre_opt.as_ref());
    let mut iteration = 1;
    let mut last: Option<(MatrixResult, Vec<usize>)> = None;
    let length = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < length {
        let traced = is_traced(trace, iteration);
        let order = stream::permutation(seed, iteration, n);
        iteration += 1;
        let ordered: Vec<MatrixCell> = order.iter().map(|&k| setup.cells[k].clone()).collect();
        let pipe = PipelineCache::new();
        if traced {
            m.recorder.enter("request");
            m.recorder.enter("compile_cells");
        }
        let cpu = cpu_ns(true);
        let t = Instant::now();
        let result = ln.compile_cells(&ordered, WORKERS, &pipe);
        let compile_ns = nanos(t);
        if traced {
            m.recorder.exit();
        }
        let outputs = by_cell(&result, &order);
        let all_ok = outputs.iter().all(Option::is_some);
        let mut check_ns = 0;
        if checked && all_ok {
            let compiled: Vec<&CompiledIsax> = outputs.iter().flatten().copied().collect();
            check_ns = m.check(&setup.checker, &compiled, traced);
        }
        let cpu = cpu_ns(true) - cpu;
        // Outside the timed region: every cell must compile cleanly to
        // the same bytes as in the warm-up.
        for (k, out) in outputs.iter().enumerate() {
            m.record(match out {
                Some(c) if artifact_digest(c) == setup.digests[k] => Ok(()),
                Some(c) => Err(format!(
                    "{}@{}: artifacts differ from the warm-up",
                    c.name, c.core
                )),
                None => Err(format!(
                    "{}@{}: did not compile",
                    setup.cells[k].isax, setup.cells[k].datasheet.core
                )),
            });
        }
        if checked && !all_ok {
            m.fail("checks skipped: the matrix did not compile".to_string());
        }
        if traced {
            let tracing = Instant::now();
            // A fresh cache: every backend stage of every cell runs.
            m.layers
                .observe_compile(&mut m.recorder, &result, compile_ns, true);
            m.layers.observe_cache(&[], &pipe.stage_stats(), 1);
            for p in mirror.run(&mut m.recorder, &mut m.layers, &ordered, &result, true) {
                m.fail(p);
            }
            m.layers.set_tracked_bytes(pipe.store().tracked_bytes());
            m.recorder.exit();
            m.traced_latency_ns
                .push(compile_ns + check_ns + nanos(tracing));
        } else {
            m.latency_ns.push(compile_ns + check_ns);
            m.compile_ns.push(compile_ns);
            if checked {
                m.check_ns.push(check_ns);
            }
            m.cells += n as u64;
            m.cpu_ns += cpu;
        }
        m.rss_mb.extend(status_mb("VmRSS"));
        // Both workers' CPUs run the kernel, as they ran the request.
        m.calibration.sample(WORKERS);
        last = Some((result, order));
    }
    m.peak_rss_mb = status_mb("VmHWM").unwrap_or(0.0);
    if let Some((result, order)) = last {
        let outputs: Vec<CompiledIsax> = by_cell(&result, &order)
            .into_iter()
            .flatten()
            .cloned()
            .collect();
        if !checked && outputs.len() == n {
            // The cold matrix checks its last outputs once, untimed.
            let refs: Vec<&CompiledIsax> = outputs.iter().collect();
            m.check(&setup.checker, &refs, trace);
        }
        m.outputs = outputs;
    }
    m
}

struct ServeSetup {
    cells: Vec<MatrixCell>,
    pipe: PipelineCache,
    digests: Vec<Digest>,
    outputs: Vec<CompiledIsax>,
    checker: Checker,
}

/// A fresh bounded cache warmed with one job per cell: the state of a
/// daemon that has served the matrix once.
fn serve_setup(ln: &Longnail, m: &mut Measured) -> Option<ServeSetup> {
    let cells = matrix_cells();
    let pipe = PipelineCache::new();
    pipe.store().set_capacity(Some(SERVE_CACHE_BYTES));
    let mut outputs = Vec::new();
    for cell in &cells {
        let result = ln.compile_cells(std::slice::from_ref(cell), 1, &pipe);
        match result.entries.first().map(|e| cell_ok(&e.outcome)) {
            Some(Ok(c)) => outputs.push(c.clone()),
            Some(Err(problem)) => m.fail(format!("warm-up: {problem}")),
            None => m.fail("warm-up: no result".to_string()),
        }
    }
    if outputs.len() != cells.len() {
        return None;
    }
    let refs: Vec<&CompiledIsax> = outputs.iter().collect();
    let checker = match Checker::new(&cells, &refs) {
        Ok(c) => c,
        Err(problem) => {
            m.fail(format!("check set-up: {problem}"));
            return None;
        }
    };
    Some(ServeSetup {
        digests: outputs.iter().map(artifact_digest).collect(),
        cells,
        pipe,
        outputs,
        checker,
    })
}

/// One serve client: claims job indices from `next` until `length` has
/// passed since `start`. In a traced run it traces every other one of its
/// own jobs (edits fall on every 16th global index, so alternating on the
/// global index would trace all of them or none).
fn serve_client(
    ln: &Longnail,
    setup: &ServeSetup,
    seed: u64,
    next: &AtomicU64,
    trace: bool,
    start: Instant,
    length: Duration,
) -> Measured {
    let mut m = Measured::default();
    let mirror = Mirror::new(ln, None);
    let n = setup.cells.len();
    let mut request_ns = 0u64;
    let mut own = 0u64;
    while start.elapsed() < length {
        let traced = is_traced(trace, own);
        own += 1;
        let index = next.fetch_add(1, Ordering::Relaxed);
        let job = stream::job(seed, index, n);
        let mut cell = setup.cells[job.cell].clone();
        if job.edited {
            cell.src.push_str(&stream::edit_comment(seed, index));
        }
        let cells = std::slice::from_ref(&cell);
        if traced {
            m.recorder.enter("job");
            m.recorder.enter("compile_cells");
        }
        let cpu = cpu_ns(false);
        let t = Instant::now();
        let result = ln.compile_cells(cells, 1, &setup.pipe);
        let ns = nanos(t);
        let cpu = cpu_ns(false) - cpu;
        if traced {
            m.recorder.exit();
        }
        // Outside the timed region: an edited job must reproduce the
        // unedited cell's artifacts byte for byte, like every other job.
        m.record(match result.entries.first().map(|e| cell_ok(&e.outcome)) {
            Some(Ok(c)) if artifact_digest(c) == setup.digests[job.cell] => Ok(()),
            Some(Ok(c)) => Err(format!(
                "job {index} ({}@{}): artifacts differ",
                c.name, c.core
            )),
            Some(Err(problem)) => Err(format!("job {index}: {problem}")),
            None => Err(format!("job {index}: no result")),
        });
        // `stage_stats` deltas also count the other client's lookups, so
        // the job's own frontend lookup, recorded in its trace, decides.
        let frontend_hit = result
            .compiled()
            .any(|(_, c)| c.trace.counter_total(FRONTEND_HIT) == 1);
        if frontend_hit {
            m.hit_jobs += 1;
        }
        if traced {
            let tracing = Instant::now();
            // Only an edited job's backend runs: every other job replays
            // the cached stages of its cell.
            m.layers
                .observe_compile(&mut m.recorder, &result, ns, job.edited);
            for p in mirror.run(&mut m.recorder, &mut m.layers, cells, &result, job.edited) {
                m.fail(p);
            }
            m.recorder.exit();
            m.traced_latency_ns.push(ns + nanos(tracing));
        } else {
            m.latency_ns.push(ns);
            m.cells += 1;
            m.cpu_ns += cpu;
            request_ns += ns;
        }
        if own % SERVE_CALIBRATION_EVERY == 0 {
            m.rss_mb.extend(status_mb("VmRSS"));
            m.calibration.sample(1);
        }
    }
    m.jobs_per_s = ratio(m.cells as f64, request_ns as f64 / 1e9);
    m
}

/// `serve_stream`.
pub fn serve(seed: u64, seconds: f64, trace: bool) -> Measured {
    let ln = Longnail::new();
    let mut m = Measured::default();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let cpu = cpu_ns(true);
        setup = serve_setup(&ln, &mut m);
        m.setup_cpu_ns.push(cpu_ns(true) - cpu);
        // The serve set-up compiles on one thread.
        for _ in 0..SETUP_CALIBRATIONS {
            m.setup_calibration.sample(1);
        }
    }
    let Some(setup) = setup else { return m };
    let next = AtomicU64::new(0);
    let before = setup.pipe.stage_stats();
    let start = Instant::now();
    let length = Duration::from_secs_f64(seconds);
    let clients: Vec<Measured> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| s.spawn(|| serve_client(&ln, &setup, seed, &next, trace, start, length)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client panicked"))
            .collect()
    });
    for client in clients {
        m.absorb(client);
    }
    if trace {
        // The cache's lifetime statistics cover every job of the run,
        // traced or not.
        m.layers
            .observe_cache(&before, &setup.pipe.stage_stats(), next.into_inner());
        m.layers
            .set_tracked_bytes(setup.pipe.store().tracked_bytes());
    }
    m.peak_rss_mb = status_mb("VmHWM").unwrap_or(0.0);
    // Every job reproduced its cell's warm-up artifacts (checked above), so
    // checking those artifacts once checks every job's output.
    let refs: Vec<&CompiledIsax> = setup.outputs.iter().collect();
    m.check(&setup.checker, &refs, trace);
    m.outputs = setup.outputs;
    m
}
