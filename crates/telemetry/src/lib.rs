//! Pipeline telemetry: hierarchical stage spans, solver counters, and
//! machine-readable compile traces.
//!
//! The paper evaluates Longnail by *measuring* the flow — ops per ISAX,
//! schedule lengths, area/fmax overheads (Tables 1–4). This crate is the
//! measurement substrate the rest of the workspace records into:
//!
//! * [`Telemetry`] — the recording sink. The driver opens one span per
//!   pipeline stage ([`STAGES`]) and attaches counters (monotonic integer
//!   totals, e.g. solver lifts), gauges (point-in-time floats, e.g. cell
//!   area in µm²), and attrs (strings, e.g. the execution mode).
//! * [`Trace`] — the finished, ordered event stream. Serializes to JSON
//!   lines ([`Trace::to_jsonl`]) and parses back ([`Trace::from_jsonl`])
//!   without loss.
//! * [`report`] — human-readable sinks: a per-unit compile report in the
//!   style of the paper's Tables 1/4 and an indented span-tree view with
//!   wall-clock timings.
//!
//! **Determinism contract:** wall-clock time appears in exactly one place,
//! the `dur_ns` field of [`EventKind::SpanEnd`]. Every other field is a
//! deterministic function of the input and the algorithms (solver work is
//! *counted*, never timed). [`Trace::stripped`] zeroes the `dur_ns` fields;
//! two traces of the same compilation are identical after stripping, which
//! is how tests compare runs.

pub mod aggregate;
pub mod folded;
pub mod json;
pub mod report;

use std::fmt;
use std::time::Instant;

/// Canonical metric names. The driver records them, [`report`] reads them;
/// keeping the strings here keeps the two ends agreeing.
pub mod metrics {
    /// Lifts of the exact scheduler: improving closed sets raised by one
    /// step (counter, per `solve` span).
    pub const SOLVER_LIFTS: &str = "solver.lifts";
    /// Augmenting paths of the max-flows that find the lifts (counter).
    pub const SOLVER_AUGMENTS: &str = "solver.augments";
    /// Lazy-constraint repair rounds (counter).
    pub const SOLVER_ROUNDS: &str = "solver.rounds";
    /// Simplex pivots of the former float-simplex scheduler. No longer
    /// emitted; kept so older traces and readers that default absent
    /// counters to 0 still resolve the name.
    pub const SOLVER_PIVOTS: &str = "solver.lifts";
    /// Branch-and-bound nodes of the former scheduler. No longer emitted.
    pub const SOLVER_NODES: &str = "solver.nodes";
    /// Presolve batches of the former scheduler. No longer emitted.
    pub const SOLVER_PRESOLVE: &str = "solver.presolve";
    /// Abstract work units spent against the solver budget (counter).
    pub const SOLVER_WORK_USED: &str = "solver.work_used";
    /// The budget's limit (counter, constant per solve).
    pub const SOLVER_WORK_LIMIT: &str = "solver.work_limit";
    /// 1 when the budget was exhausted mid-search (counter).
    pub const SOLVER_EXHAUSTED: &str = "solver.budget_exhausted";
    /// 1 when the ASAP fallback produced the schedule (counter).
    pub const SCHED_FALLBACK: &str = "sched.fallback";
    /// Pipeline stages the unit occupies (counter).
    pub const SCHED_STAGES: &str = "sched.stages";
    /// Initiation interval: 1 for pipelined units, the decoupled-section
    /// latency for `spawn` units (counter).
    pub const SCHED_II: &str = "sched.ii";
    /// Per-stage chaining budget in uniform-delay units (gauge).
    pub const SCHED_CHAIN_LIMIT: &str = "sched.chain_limit";
    /// Deepest combinational chain the schedule actually packs into one
    /// stage, in uniform-delay units (gauge).
    pub const SCHED_CHAIN_DEPTH: &str = "sched.chain_depth";
    /// LIL operations in the unit's graph (counter).
    pub const PROBLEM_OPS: &str = "problem.ops";
    /// Dependence edges in the scheduling problem (counter).
    pub const PROBLEM_DEPS: &str = "problem.deps";
    /// LIL operations bound to SCAIE-V sub-interfaces (counter).
    pub const PROBLEM_IFACE_OPS: &str = "problem.iface_ops";
    /// Netlist cells (nets) in the built module (counter).
    pub const RTL_CELLS: &str = "rtl.cells";
    /// Register bits in the built module (counter).
    pub const RTL_REG_BITS: &str = "rtl.reg_bits";
    /// Longest combinational path, in cells (counter).
    pub const RTL_COMB_DEPTH: &str = "rtl.comb_depth";
    /// Estimated cell area, µm², 22 nm model (gauge).
    pub const EDA_AREA_UM2: &str = "eda.area_um2";
    /// Estimated critical path, ns (gauge).
    pub const EDA_CRIT_NS: &str = "eda.critical_path_ns";
    /// Bytes of emitted SystemVerilog (counter).
    pub const VERILOG_BYTES: &str = "verilog.bytes";
    /// Optimizer: fixpoint iterations executed (counter, per `opt` span).
    pub const OPT_ITERATIONS: &str = "opt.iterations";
    /// Optimizer: constant folding/propagation rewrites (counter).
    pub const OPT_REWRITES_FOLD: &str = "opt.rewrites.fold";
    /// Optimizer: common subexpressions eliminated (counter).
    pub const OPT_REWRITES_CSE: &str = "opt.rewrites.cse";
    /// Optimizer: mux-tree flattening rewrites (counter).
    pub const OPT_REWRITES_MUX: &str = "opt.rewrites.mux";
    /// Optimizer: strength reductions of pow-2 Mul/DivU/RemU (counter).
    pub const OPT_REWRITES_STRENGTH: &str = "opt.rewrites.strength";
    /// Optimizer: bitwidth narrowings (counter, `-O2` only).
    pub const OPT_REWRITES_NARROW: &str = "opt.rewrites.narrow";
    /// Optimizer: dead nets (and ROMs) eliminated (counter).
    pub const OPT_REWRITES_DCE: &str = "opt.rewrites.dce";
    /// Optimizer: nets before optimization (counter).
    pub const OPT_NETS_BEFORE: &str = "opt.nets_before";
    /// Optimizer: nets after optimization (counter).
    pub const OPT_NETS_AFTER: &str = "opt.nets_after";
    /// Optimizer: 1 when the oracle gate rejected the optimized netlist
    /// and the unoptimized module was emitted instead (counter).
    pub const OPT_FALLBACK: &str = "opt.fallback";
    /// Estimated area of the unoptimized module, µm² (gauge; the
    /// optimized area lands on [`EDA_AREA_UM2`] of the same span).
    pub const OPT_AREA_BEFORE_UM2: &str = "opt.area_before_um2";
    /// Frontend: instructions elaborated (counter).
    pub const FRONTEND_INSTRUCTIONS: &str = "frontend.instructions";
    /// Frontend: `always`-blocks elaborated (counter).
    pub const FRONTEND_ALWAYS: &str = "frontend.always_blocks";
    /// Frontend: helper functions elaborated (counter).
    pub const FRONTEND_FUNCTIONS: &str = "frontend.functions";
    /// Config: SCAIE-V schedule entries emitted (counter).
    pub const CONFIG_ENTRIES: &str = "config.schedule_entries";
    /// Config: custom-register requests emitted (counter).
    pub const CONFIG_REGISTERS: &str = "config.registers";
    /// X-check: cycles driven through the differential oracle (counter).
    pub const XCHECK_CYCLES: &str = "xcheck.cycles";
    /// X-check: cycles where a fully-known four-state net disagreed with
    /// the two-valued interpreter (counter).
    pub const XCHECK_MISMATCHES: &str = "xcheck.mismatches";
    /// X-check: X bits observed on outputs under fully-known stimulus,
    /// summed over all checked cycles (counter).
    pub const XCHECK_X_OUTPUT_BITS: &str = "xcheck.x_output_bits";
    /// X-check: static X-hazard lint findings (counter).
    pub const XCHECK_LINT_FINDINGS: &str = "xcheck.lint_findings";
    /// Matrix cells degraded to a fault diagnostic by a contained panic
    /// or poisoned shared state (counter, batch summary).
    pub const DEGRADE_CELL_FAULTS: &str = "degrade.cell_faults";
    /// Error-severity problems contained to their unit or cell instead
    /// of aborting the compilation (counter, per `compile` span and in
    /// the batch summary).
    pub const DEGRADE_ERRORS_RECOVERED: &str = "degrade.errors_recovered";
    /// Frontend-cache lookup by this cell found a computed entry (counter,
    /// 0/1 per cell root span). `cache.*` names are scheduling-dependent
    /// under concurrency and therefore dropped by [`super::Trace::stripped`].
    pub const CACHE_FRONTEND_HIT: &str = "cache.frontend.hit";
    /// Frontend-cache lookup by this cell computed the entry (counter,
    /// 0/1 per cell root span; nondeterministic attribution, see above).
    pub const CACHE_FRONTEND_MISS: &str = "cache.frontend.miss";
    /// This cell blocked on a slot a concurrent peer held (counter, 0/1).
    pub const CACHE_FRONTEND_WAIT: &str = "cache.frontend.wait_on_slot";
    /// Nanoseconds this cell spent blocked on the slot (counter).
    pub const CACHE_FRONTEND_WAIT_NS: &str = "cache.frontend.wait_ns";
    /// Jobs a pool worker ran (counter, one per worker; `pool.*` names
    /// are scheduling-dependent and dropped by [`super::Trace::stripped`]).
    pub const POOL_WORKER_JOBS: &str = "pool.worker.jobs";
    /// Nanoseconds a pool worker spent running jobs (counter, per worker).
    pub const POOL_WORKER_BUSY_NS: &str = "pool.worker.busy_ns";
    /// Fraction of the pool's wall time a worker spent running jobs
    /// (gauge, per worker).
    pub const POOL_WORKER_UTILIZATION: &str = "pool.worker.utilization";
    /// Total nanoseconds jobs waited in the queue before being claimed
    /// (counter, whole run).
    pub const POOL_QUEUE_WAIT_NS: &str = "pool.queue_wait_ns";
    /// Total nanoseconds jobs spent running (counter, whole run).
    pub const POOL_RUN_NS: &str = "pool.run_ns";
    /// Wall time of the whole pool run (counter).
    pub const POOL_WALL_NS: &str = "pool.wall_ns";
}

/// True for metric names whose *values or attribution* depend on worker
/// scheduling (queue timing, which cell raced a shared cache slot first).
/// [`Trace::stripped`] — the deterministic projection — drops counter,
/// gauge, and attr events with these names, the same way it zeroes the
/// wall-clock `dur_ns` fields.
pub fn is_nondeterministic(name: &str) -> bool {
    name.starts_with("pool.") || name.starts_with("cache.")
}

/// The pipeline stages of the Longnail flow, in order. The driver
/// opens exactly one span with each of these names per compilation (the
/// per-unit stages appear once per instruction/always-block, nested in
/// that unit's `unit` span) — except `opt`, which only exists at
/// `--opt-level` 1 and above.
pub const STAGES: [&str; 9] = [
    "frontend", "lower", "problem", "solve", "modes", "rtl", "opt", "verilog", "config",
];

/// Identifier of one span within a trace. Span 1 is the first span
/// started; 0 is never used so links can cheaply mean "no span".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Position in the stream (0-based, dense).
    pub seq: u64,
    pub kind: EventKind,
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A stage (or unit) span opened.
    SpanStart {
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Stage name (one of [`STAGES`], `compile`, or `unit`).
        name: String,
        /// Instruction / always-block name for `unit` spans.
        unit: Option<String>,
    },
    /// A span closed. `dur_ns` is the only non-deterministic field in the
    /// whole schema.
    SpanEnd { id: SpanId, dur_ns: u64 },
    /// A monotonic integer total attributed to a span (e.g.
    /// `solver.lifts`).
    Counter {
        span: SpanId,
        name: String,
        value: u64,
    },
    /// A point-in-time float attributed to a span (e.g. `eda.area_um2`).
    Gauge {
        span: SpanId,
        name: String,
        value: f64,
    },
    /// A string attribute of a span (e.g. `core` = `VexRiscv`).
    Attr {
        span: SpanId,
        name: String,
        value: String,
    },
    /// A diagnostic mirrored into the trace, linked to the span in which
    /// it fired.
    Diag {
        span: Option<SpanId>,
        severity: String,
        stage: String,
        unit: Option<String>,
        message: String,
    },
}

/// The recording sink. Spans nest via an internal stack: a started span is
/// the parent of every span started before it ends.
#[derive(Debug)]
pub struct Telemetry {
    events: Vec<TraceEvent>,
    stack: Vec<(SpanId, Instant)>,
    next_span: u64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Telemetry {
            events: Vec::new(),
            stack: Vec::new(),
            next_span: 1,
        }
    }

    fn push(&mut self, kind: EventKind) {
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent { seq, kind });
    }

    /// Opens a span named `name` under the currently open span.
    pub fn start_span(&mut self, name: &str) -> SpanId {
        self.start_unit_span(name, None)
    }

    /// Opens a span carrying a unit (instruction / always-block) name.
    pub fn start_unit_span(&mut self, name: &str, unit: Option<&str>) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let parent = self.stack.last().map(|&(p, _)| p);
        self.push(EventKind::SpanStart {
            id,
            parent,
            name: name.to_string(),
            unit: unit.map(str::to_owned),
        });
        self.stack.push((id, Instant::now()));
        id
    }

    /// Closes `id`, and — so that error paths cannot leave a trace
    /// malformed — any span opened inside it that is still open.
    pub fn end_span(&mut self, id: SpanId) {
        while let Some(&(top, started)) = self.stack.last() {
            self.stack.pop();
            self.push(EventKind::SpanEnd {
                id: top,
                dur_ns: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            });
            if top == id {
                return;
            }
        }
    }

    /// The innermost open span.
    pub fn current_span(&self) -> Option<SpanId> {
        self.stack.last().map(|&(id, _)| id)
    }

    /// Records a counter on `span`.
    pub fn counter(&mut self, span: SpanId, name: &str, value: u64) {
        self.push(EventKind::Counter {
            span,
            name: name.to_string(),
            value,
        });
    }

    /// Records a gauge on `span`.
    pub fn gauge(&mut self, span: SpanId, name: &str, value: f64) {
        self.push(EventKind::Gauge {
            span,
            name: name.to_string(),
            value,
        });
    }

    /// Records a string attribute on `span`.
    pub fn attr(&mut self, span: SpanId, name: &str, value: &str) {
        self.push(EventKind::Attr {
            span,
            name: name.to_string(),
            value: value.to_string(),
        });
    }

    /// Mirrors a diagnostic into the trace.
    pub fn diag(
        &mut self,
        span: Option<SpanId>,
        severity: &str,
        stage: &str,
        unit: Option<&str>,
        message: &str,
    ) {
        self.push(EventKind::Diag {
            span,
            severity: severity.to_string(),
            stage: stage.to_string(),
            unit: unit.map(str::to_owned),
            message: message.to_string(),
        });
    }

    /// Closes any spans still open and returns the finished trace.
    pub fn finish(mut self) -> Trace {
        while let Some(&(top, _)) = self.stack.last() {
            self.end_span(top);
        }
        Trace {
            events: self.events,
        }
    }
}

/// A finished, ordered telemetry event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The deterministic projection of the trace: every `dur_ns` is
    /// zeroed, and counter/gauge/attr events with
    /// [nondeterministic names](is_nondeterministic) (`pool.*`, `cache.*` —
    /// whose values or per-cell attribution depend on worker scheduling)
    /// are dropped, with `seq` renumbered to stay dense. Two compilations
    /// of the same input produce identical stripped traces.
    pub fn stripped(&self) -> Trace {
        let mut events: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| match &e.kind {
                EventKind::Counter { name, .. }
                | EventKind::Gauge { name, .. }
                | EventKind::Attr { name, .. } => !is_nondeterministic(name),
                _ => true,
            })
            .cloned()
            .collect();
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
            if let EventKind::SpanEnd { dur_ns, .. } = &mut e.kind {
                *dur_ns = 0;
            }
        }
        Trace { events }
    }

    /// Span-start events, in order.
    pub fn span_starts(
        &self,
    ) -> impl Iterator<Item = (SpanId, Option<SpanId>, &str, Option<&str>)> {
        self.events.iter().filter_map(|e| match &e.kind {
            EventKind::SpanStart {
                id,
                parent,
                name,
                unit,
            } => Some((*id, *parent, name.as_str(), unit.as_deref())),
            _ => None,
        })
    }

    /// How many spans with this stage name were opened.
    pub fn span_count(&self, name: &str) -> usize {
        self.span_starts().filter(|&(_, _, n, _)| n == name).count()
    }

    /// Sum of all counters with this name across the trace.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Counter { name: n, value, .. } if n == name => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// All gauges with this name, in order.
    pub fn gauges(&self, name: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Gauge { name: n, value, .. } if n == name => Some(*value),
                _ => None,
            })
            .collect()
    }

    /// Wall-clock duration of the first span with this name, if closed.
    pub fn span_duration_ns(&self, name: &str) -> Option<u64> {
        self.span_durations_ns(name).first().copied()
    }

    /// Wall-clock durations of *every* closed span with this name, in
    /// span-start order. Matrix-mode traces open the per-unit stages once
    /// per unit; [`span_duration_ns`](Trace::span_duration_ns) sees only
    /// the first, this sees them all (the aggregator's view).
    pub fn span_durations_ns(&self, name: &str) -> Vec<u64> {
        let ids: Vec<SpanId> = self
            .span_starts()
            .filter(|&(_, _, n, _)| n == name)
            .map(|(id, _, _, _)| id)
            .collect();
        let ends: std::collections::HashMap<SpanId, u64> = self
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanEnd { id, dur_ns } => Some((*id, *dur_ns)),
                _ => None,
            })
            .collect();
        ids.iter().filter_map(|id| ends.get(id).copied()).collect()
    }

    /// Serializes the trace as JSON lines, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            json::write_event(&mut out, e);
            out.push('\n');
        }
        out
    }

    /// Parses a JSON-lines trace produced by [`Trace::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let e = json::parse_event(line).map_err(|m| format!("line {}: {m}", lineno + 1))?;
            events.push(e);
        }
        Ok(Trace { events })
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&report::render_tree(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_via_the_stack() {
        let mut t = Telemetry::new();
        let root = t.start_span("compile");
        let a = t.start_span("frontend");
        t.end_span(a);
        let b = t.start_unit_span("unit", Some("dotp"));
        let c = t.start_span("solve");
        t.end_span(c);
        t.end_span(b);
        t.end_span(root);
        let trace = t.finish();
        let starts: Vec<_> = trace.span_starts().collect();
        assert_eq!(starts.len(), 4);
        assert_eq!(starts[0], (root, None, "compile", None));
        assert_eq!(starts[1], (a, Some(root), "frontend", None));
        assert_eq!(starts[2], (b, Some(root), "unit", Some("dotp")));
        assert_eq!(starts[3], (c, Some(b), "solve", None));
    }

    #[test]
    fn end_span_closes_dangling_children() {
        // An early return may leave children open; ending the ancestor
        // closes them in LIFO order so the trace stays well-formed.
        let mut t = Telemetry::new();
        let root = t.start_span("compile");
        let child = t.start_span("rtl");
        let grandchild = t.start_span("verilog");
        t.end_span(root);
        let trace = t.finish();
        let ends: Vec<SpanId> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanEnd { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(ends, vec![grandchild, child, root]);
    }

    #[test]
    fn finish_closes_everything() {
        let mut t = Telemetry::new();
        t.start_span("compile");
        t.start_span("lower");
        let trace = t.finish();
        let starts = trace.span_starts().count();
        let ends = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd { .. }))
            .count();
        assert_eq!(starts, ends);
    }

    #[test]
    fn seq_is_dense_and_ordered() {
        let mut t = Telemetry::new();
        let s = t.start_span("compile");
        t.counter(s, "solver.lifts", 17);
        t.gauge(s, "eda.area_um2", 1.5);
        t.attr(s, "core", "ORCA");
        t.end_span(s);
        let trace = t.finish();
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn stripping_zeroes_only_durations() {
        let mut t = Telemetry::new();
        let s = t.start_span("compile");
        t.counter(s, "c", 3);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end_span(s);
        let trace = t.finish();
        assert!(trace.span_duration_ns("compile").unwrap() > 0);
        let stripped = trace.stripped();
        assert_eq!(stripped.span_duration_ns("compile"), Some(0));
        assert_eq!(stripped.counter_total("c"), 3);
        assert_eq!(stripped.events.len(), trace.events.len());
    }

    #[test]
    fn span_durations_sees_every_repeated_span() {
        let mut t = Telemetry::new();
        let root = t.start_span("compile");
        for unit in ["a", "b", "c"] {
            let u = t.start_unit_span("unit", Some(unit));
            let s = t.start_span("solve");
            t.end_span(s);
            t.end_span(u);
        }
        t.end_span(root);
        let trace = t.finish();
        assert_eq!(trace.span_durations_ns("solve").len(), 3);
        assert_eq!(trace.span_durations_ns("frontend").len(), 0);
        // The singular accessor is the first of the plural one.
        assert_eq!(
            trace.span_duration_ns("solve"),
            trace.span_durations_ns("solve").first().copied()
        );
    }

    #[test]
    fn stripping_drops_nondeterministic_metrics_and_renumbers() {
        let mut t = Telemetry::new();
        let s = t.start_span("compile");
        t.counter(s, metrics::CACHE_FRONTEND_HIT, 1);
        t.counter(s, "solver.lifts", 9);
        t.gauge(s, metrics::POOL_WORKER_UTILIZATION, 0.5);
        t.attr(s, "pool.worker", "w0");
        t.end_span(s);
        let trace = t.finish();
        let stripped = trace.stripped();
        assert_eq!(stripped.counter_total(metrics::CACHE_FRONTEND_HIT), 0);
        assert_eq!(stripped.counter_total("solver.lifts"), 9);
        assert!(stripped.gauges(metrics::POOL_WORKER_UTILIZATION).is_empty());
        assert_eq!(stripped.events.len(), 3); // start, lifts, end
        for (i, e) in stripped.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "seq must stay dense after filtering");
        }
        // Round trip still holds on the filtered stream.
        let back = Trace::from_jsonl(&stripped.to_jsonl()).unwrap();
        assert_eq!(back, stripped);
    }

    #[test]
    fn totals_and_counts() {
        let mut t = Telemetry::new();
        let a = t.start_span("unit");
        t.counter(a, "solver.lifts", 10);
        t.end_span(a);
        let b = t.start_span("unit");
        t.counter(b, "solver.lifts", 32);
        t.gauge(b, "sched.chain_depth", 4.5);
        t.end_span(b);
        let trace = t.finish();
        assert_eq!(trace.span_count("unit"), 2);
        assert_eq!(trace.counter_total("solver.lifts"), 42);
        assert_eq!(trace.gauges("sched.chain_depth"), vec![4.5]);
    }
}
