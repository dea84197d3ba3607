//! Per-layer accounting of the traced run. Layers are measured from
//! outside the program: by timing the benchmark's own calls into each
//! layer crate's public functions, and, for the stages that have no public
//! entry point of their own, by reading the `dur_ns` of the stage spans a
//! compilation records in `CompiledIsax::trace` when the stage really ran
//! (a cache miss) rather than replayed.

use std::collections::{BTreeMap, HashMap};

use coredsl::Frontend;
use longnail::pipeline::frontend_key;
use longnail::{cell_key, Longnail, MatrixCell, MatrixResult, OptLevel};
use qcache::StageStats;
use rtl::{EmitOptions, Module};
use telemetry::{metrics as tm, EventKind, STAGES};

use crate::checks::CheckPass;
use crate::spans::Recorder;
use crate::stats::{percentile, ratio};
use crate::Metric;

/// Lockstep cycles of the optimizer's equivalence gate, as the program's
/// opt stage runs it.
const GATE_CYCLES: u32 = 32;

/// Solver work counters reported under `ilp.*`. A counter the program's
/// traces no longer carry reads 0.
const ILP_COUNTERS: [(&str, &str); 5] = [
    ("ilp.pivots", tm::SOLVER_PIVOTS),
    ("ilp.presolve", tm::SOLVER_PRESOLVE),
    ("ilp.rounds", tm::SOLVER_ROUNDS),
    ("ilp.nodes", tm::SOLVER_NODES),
    ("ilp.work_used", tm::SOLVER_WORK_USED),
];

/// Sums of everything the traced phase observed.
#[derive(Default)]
pub struct Layers {
    requests: u64,
    /// Requests the cache statistics cover.
    cache_requests: u64,
    passes: u64,
    sums: BTreeMap<&'static str, f64>,
    solve_graph_ns: Vec<u64>,
    tracked_bytes: u64,
}

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Accounts one `compile_cells` request that took `wall_ns` as timed by
    /// the benchmark, and grafts its cells' traces below `compile_cells`.
    /// `cold` says whether the request computed its backend stages; their
    /// spans then time the computation, otherwise a cache replay.
    pub fn observe_compile(
        &mut self,
        rec: &mut Recorder,
        m: &MatrixResult,
        wall_ns: u64,
        cold: bool,
    ) {
        self.requests += 1;
        let pool = &m.pool_stats;
        let workers = pool.per_worker.len() as u64;
        let busy: u64 = pool.per_worker.iter().map(|w| w.busy_ns).sum();
        let idle = (pool.wall_ns * workers).saturating_sub(busy);
        self.add("pool.busy_ns", busy as f64);
        self.add("pool.capacity_ns", (pool.wall_ns * workers) as f64);
        self.add("pool.idle_ns", idle as f64);
        self.add("pool.queue_wait_ns", pool.queue_wait_total_ns() as f64);
        self.add(
            "longnail.active_ns",
            (wall_ns * workers).saturating_sub(idle) as f64,
        );
        for entry in &m.entries {
            let Ok(c) = &entry.outcome else { continue };
            rec.import("compile_cells", &c.trace);
            let mut ends = HashMap::new();
            for e in &c.trace.events {
                if let EventKind::SpanEnd { id, dur_ns } = &e.kind {
                    ends.insert(id.0, *dur_ns);
                }
            }
            for (id, _, name, _) in c.trace.span_starts() {
                let dur = ends.get(&id.0).copied().unwrap_or(0);
                if STAGES.contains(&name) {
                    self.add("longnail.spanned_ns", dur as f64);
                }
                if !cold {
                    continue;
                }
                let layer = match name {
                    "problem" => "sched.problem_ns",
                    "solve" => {
                        self.solve_graph_ns.push(dur);
                        "sched.solve_ns"
                    }
                    "modes" => "scaiev.modes_ns",
                    "config" => "scaiev.config_ns",
                    "rtl" => "rtl.build_ns",
                    "verilog" => "rtl.emit_ns",
                    _ => continue,
                };
                self.add(layer, dur as f64);
            }
            if cold {
                self.add(
                    "sched.fallbacks",
                    c.trace.counter_total(tm::SCHED_FALLBACK) as f64,
                );
                for (name, counter) in ILP_COUNTERS {
                    self.add(name, c.trace.counter_total(counter) as f64);
                }
            }
            for g in &c.graphs {
                self.add("ir.lil_ops", g.graph.len() as f64);
                self.add("rtl.nets", g.built.module.nets.len() as f64);
                self.add("rtl.verilog_bytes", g.verilog.len() as f64);
            }
        }
    }

    /// Accounts the cache lookups of `requests` requests, the difference
    /// between two snapshots of a cache's lifetime statistics.
    pub fn observe_cache(
        &mut self,
        before: &[(String, StageStats)],
        after: &[(String, StageStats)],
        requests: u64,
    ) {
        self.cache_requests += requests;
        for (stage, a) in after {
            let b = before
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, b)| *b)
                .unwrap_or_default();
            self.add("qcache.hits", (a.hits - b.hits) as f64);
            self.add("qcache.misses", (a.misses - b.misses) as f64);
            self.add("qcache.waits", (a.waits - b.waits) as f64);
        }
    }

    /// Accounts one check pass.
    pub fn observe_checks(&mut self, pass: &CheckPass) {
        self.passes += 1;
        self.add("rtl.xcheck_ns", pass.xcheck_ns as f64);
        self.add("rtl.sim_cycles", pass.sim_cycles as f64);
        self.add("cores.exec_ns", pass.exec_ns as f64);
        self.add("cores.cycles", pass.core_cycles as f64);
        self.add("golden.ns", pass.golden_ns as f64);
    }

    /// Records the cache's tracked bytes at the end of the traced phase.
    pub fn set_tracked_bytes(&mut self, bytes: u64) {
        self.tracked_bytes = self.tracked_bytes.max(bytes);
    }

    /// Adds another client's observations.
    pub fn merge(&mut self, other: Layers) {
        self.requests += other.requests;
        self.cache_requests += other.cache_requests;
        self.passes += other.passes;
        for (k, v) in other.sums {
            self.add(k, v);
        }
        self.solve_graph_ns.extend(other.solve_graph_ns);
        self.tracked_bytes = self.tracked_bytes.max(other.tracked_bytes);
    }

    /// The per-layer metrics: times and counts per request (one matrix or
    /// one job), check-layer figures per check pass.
    pub fn metrics(&self, overhead_pct: f64) -> Vec<Metric> {
        let per_req = |name: &str| self.get(name) / self.requests.max(1) as f64;
        let ms_per_req = |name: &str| per_req(name) / 1e6;
        let per_pass = |name: &str| self.get(name) / self.passes.max(1) as f64;
        let per_lookup_req = |name: &str| self.get(name) / self.cache_requests.max(1) as f64;
        let mut solve = self.solve_graph_ns.clone();
        solve.sort_unstable();
        let solve: Vec<f64> = solve.into_iter().map(|ns| ns as f64 / 1e6).collect();
        let hits = self.get("qcache.hits");
        let lookups = hits + self.get("qcache.misses");
        let active = self.get("longnail.active_ns");
        let spanned = self.get("longnail.spanned_ns");
        let mut out = vec![
            Metric::new("coredsl.ms", "ms", ms_per_req("coredsl.ns")),
            Metric::new("ir.lower_ms", "ms", ms_per_req("ir.lower_ns")),
            Metric::new("ir.lil_ops", "count", per_req("ir.lil_ops")),
            Metric::new("sched.problem_ms", "ms", ms_per_req("sched.problem_ns")),
            Metric::new("sched.solve_ms", "ms", ms_per_req("sched.solve_ns")),
            Metric::new(
                "sched.solve_p95_ms",
                "ms",
                if solve.is_empty() {
                    0.0
                } else {
                    percentile(&solve, 95.0)
                },
            ),
            Metric::new("sched.fallbacks", "count", per_req("sched.fallbacks")),
        ];
        out.extend(ILP_COUNTERS.map(|(name, _)| Metric::new(name, "count", per_req(name))));
        out.extend([
            Metric::new("scaiev.modes_ms", "ms", ms_per_req("scaiev.modes_ns")),
            Metric::new("scaiev.config_ms", "ms", ms_per_req("scaiev.config_ns")),
            Metric::new("rtl.build_ms", "ms", ms_per_req("rtl.build_ns")),
            Metric::new("rtl.nets", "count", per_req("rtl.nets")),
            Metric::new("rtl.emit_ms", "ms", ms_per_req("rtl.emit_ns")),
            Metric::new(
                "rtl.verilog_kb",
                "KiB",
                per_req("rtl.verilog_bytes") / 1024.0,
            ),
            Metric::new("rtl.opt_ms", "ms", ms_per_req("rtl.opt_ns")),
            Metric::new("rtl.opt_gate_ms", "ms", ms_per_req("rtl.opt_gate_ns")),
            Metric::new("rtl.opt_rewrites", "count", per_req("rtl.opt_rewrites")),
            Metric::new("rtl.xcheck_ms", "ms", per_pass("rtl.xcheck_ns") / 1e6),
            Metric::new("rtl.sim_cycles", "count", per_pass("rtl.sim_cycles")),
            Metric::new(
                "rtl.sim_cycles_per_s",
                "1/s",
                ratio(self.get("rtl.sim_cycles"), self.get("rtl.xcheck_ns") / 1e9),
            ),
            Metric::new("cores.exec_ms", "ms", per_pass("cores.exec_ns") / 1e6),
            Metric::new("cores.cycles", "count", per_pass("cores.cycles")),
            Metric::new(
                "cores.cycles_per_s",
                "1/s",
                ratio(self.get("cores.cycles"), self.get("cores.exec_ns") / 1e9),
            ),
            Metric::new("golden.ms", "ms", per_pass("golden.ns") / 1e6),
            Metric::new("eda.estimate_ms", "ms", ms_per_req("eda.estimate_ns")),
            Metric::new("qcache.hits", "count", per_lookup_req("qcache.hits")),
            Metric::new("qcache.misses", "count", per_lookup_req("qcache.misses")),
            Metric::new("qcache.waits", "count", per_lookup_req("qcache.waits")),
            Metric::new("qcache.hit_ratio", "ratio", ratio(hits, lookups)),
            Metric::new("qcache.key_ms", "ms", ms_per_req("qcache.key_ns")),
            Metric::new(
                "qcache.tracked_mb",
                "MiB",
                self.tracked_bytes as f64 / 1048576.0,
            ),
            Metric::new(
                "pool.utilization",
                "ratio",
                ratio(self.get("pool.busy_ns"), self.get("pool.capacity_ns")),
            ),
            Metric::new("pool.queue_wait_ms", "ms", ms_per_req("pool.queue_wait_ns")),
            Metric::new("pool.idle_ms", "ms", ms_per_req("pool.idle_ns")),
            Metric::new("longnail.span_coverage", "ratio", ratio(spanned, active)),
            Metric::new(
                "longnail.unspanned_ms",
                "ms",
                (active - spanned).max(0.0) / self.requests.max(1) as f64 / 1e6,
            ),
            Metric::new("trace.overhead_pct", "%", overhead_pct),
        ]);
        out
    }
}

/// The benchmark's own timed calls into layer entry points that the
/// program also runs internally: the frontend, lowering, cache keys,
/// netlist optimization and its gate, and the EDA estimate. They run
/// after a request, on that request's inputs and outputs, outside its
/// timed region.
pub struct Mirror<'a> {
    pub frontend: Frontend,
    pub ln: &'a Longnail,
    /// Unoptimized netlists by `(isax, core, unit)`, for workloads whose
    /// emitted netlists are optimized; `None` when they are not.
    pub pre_opt: Option<&'a HashMap<(String, String, String), Module>>,
    pub eda: eda::TechLibrary,
}

impl Mirror<'_> {
    pub fn new<'a>(
        ln: &'a Longnail,
        pre_opt: Option<&'a HashMap<(String, String, String), Module>>,
    ) -> Mirror<'a> {
        Mirror {
            frontend: Frontend::new(),
            ln,
            pre_opt,
            eda: eda::TechLibrary::new(),
        }
    }

    /// Times the mirrored layer calls for one request over `cells`, whose
    /// result is `m`; `cold` as for [`Layers::observe_compile`]. Returns
    /// problems found (a mirrored call that fails where the program
    /// succeeded).
    pub fn run(
        &self,
        rec: &mut Recorder,
        layers: &mut Layers,
        cells: &[MatrixCell],
        m: &MatrixResult,
        cold: bool,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let ln = self.ln;
        let config = ln.config_fingerprint();
        let (_, key_ns) = rec.timed("qcache.keys", || {
            for cell in cells {
                std::hint::black_box(frontend_key(&cell.unit, &cell.src));
                std::hint::black_box(cell_key(
                    &cell.unit,
                    &cell.src,
                    &cell.datasheet,
                    ln.chain_depth,
                    ln.work_limit,
                    &config,
                ));
            }
        });
        layers.add("qcache.key_ns", key_ns as f64);

        // A cold request ran the frontend once per distinct source.
        if cold {
            let mut seen = Vec::new();
            for cell in cells {
                if seen.contains(&&cell.src) {
                    continue;
                }
                seen.push(&cell.src);
                let (out, ns) = rec.timed("coredsl.compile_str_all", || {
                    self.frontend.compile_str_all(&cell.src, &cell.unit)
                });
                layers.add("coredsl.ns", ns as f64);
                let Some(module) = out.module.filter(|_| out.errors.is_empty()) else {
                    problems.push(format!("frontend rejected {}", cell.unit));
                    continue;
                };
                let (lowered, ns) = rec.timed("ir.lower_module", || ir::lower_module(&module));
                layers.add("ir.lower_ns", ns as f64);
                if let Err(e) = lowered {
                    problems.push(format!("lower_module {}: {e}", cell.unit));
                }
            }
        }

        let opts = EmitOptions::default();
        let level = ln.opt_level;
        for entry in &m.entries {
            let Ok(c) = &entry.outcome else { continue };
            for g in &c.graphs {
                let (_, ns) = rec.timed("eda.estimate_module", || {
                    std::hint::black_box(eda::estimate_module(&self.eda, &g.built.module))
                });
                layers.add("eda.estimate_ns", ns as f64);
                // -O0 skips the opt stage, so the layer does no work there.
                if level == OptLevel::O0 {
                    continue;
                }
                let key = (c.name.clone(), c.core.clone(), g.name.clone());
                let Some(pre) = self.pre_opt.and_then(|map| map.get(&key)) else {
                    problems.push(format!("no -O0 netlist for {key:?}"));
                    continue;
                };
                let (optimized, ns) =
                    rec.timed("rtl.optimize", || rtl::optimize(pre, level, &opts));
                layers.add("rtl.opt_ns", ns as f64);
                let (optimized, report) = match optimized {
                    Ok(out) => out,
                    Err(e) => {
                        problems.push(format!("optimize {}@{} {}: {e}", c.name, c.core, g.name));
                        continue;
                    }
                };
                layers.add("rtl.opt_rewrites", report.total() as f64);
                let (gate, ns) = rec.timed("rtl.verify_equivalent", || {
                    rtl::verify_equivalent(pre, &optimized, &opts, GATE_CYCLES)
                });
                layers.add("rtl.opt_gate_ns", ns as f64);
                if let Err(e) = gate {
                    problems.push(format!("opt gate {}@{} {}: {e}", c.name, c.core, g.name));
                }
            }
        }
        problems
    }
}
