//! The Longnail HLS driver (paper §4).
//!
//! Compiles an ISAX through the full stack: frontend → LIL lowering →
//! core-aware scheduling (the *LongnailProblem*, solved with the Figure 7
//! ILP against the core's virtual datasheet) → execution-mode selection
//! (§4.3) → hardware construction and SystemVerilog emission (§4.5) →
//! SCAIE-V configuration file (§4.6).

use crate::diag::{Diagnostics, Severity};
use crate::faults::{FaultKind, FaultPlan};
use crate::pipeline::{self, PipelineCache, StageCacheStats, StageVal, Tape};
use coredsl::error::{codes, Diagnostic, Span};
use coredsl::tast::TypedModule;
use coredsl::Frontend;
use eda::TechLibrary;
use ir::lil::{Graph, GraphKind, LilModule, OpKind};
use ir::{lower_always, lower_instruction, lower_state, verify_graph};
use pool::Pool;
use qcache::Digest;
use rtl::build::{build_graph_module, BuiltModule};
use rtl::lint::{comb_depth, lint_module};
use rtl::opt::{optimize, verify_equivalent, OptLevel};
use rtl::verilog::{emit_verilog, EmitOptions};
use scaiev::config::{Functionality, IsaxConfig, RegisterRequest, ScheduleEntry};
use scaiev::datasheet::{Timing, VirtualDatasheet};
use scaiev::iface::SubInterfaceOp;
use scaiev::modes::{select_mode, ExecutionMode};
use sched::problem::{LongnailProblem, OperationId, OperatorType, OperatorTypeId, Schedule};
use sched::resilient::DegradationReason;
use sched::{schedule_resilient, Budget, WorkKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use telemetry::{metrics, SpanId, Telemetry, Trace};

/// Abstract combinational-delay unit assigned to every "real" logic level.
///
/// The paper "currently assume\[s\] uniform delays and area for logic and
/// non-combinational sub-interface operations" (§4.2); a real technology
/// library is future work there, and the calibrated 22 nm model lives in
/// the `eda` crate here. Pure wiring (extracts, concats, extensions) costs
/// nothing.
pub const UNIFORM_DELAY: f64 = 1.0;

/// Default chaining budget: how many uniform logic levels fit in one
/// pipeline stage, used when the datasheet does not specify a target
/// clock. Chosen so that the 32-iteration digit-recurrence square root
/// spreads over ~10 stages, matching the paper's observation.
pub const DEFAULT_CHAIN_DEPTH: f64 = 6.0;

/// Physical duration of one uniform logic level (≈ a 32-bit adder in the
/// 22 nm model). When the datasheet carries a target clock period, the
/// per-stage chaining budget becomes `clock_ns / UNIT_NS`: fast cores chain
/// fewer levels per stage and therefore pipeline ISAXes more deeply.
pub const UNIT_NS: f64 = 0.22;

/// Error from any stage of the flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowError {
    /// Flow stage that failed (`frontend`, `lower`, `schedule`, ...).
    pub stage: &'static str,
    pub message: String,
    /// How bad the failure is: [`Severity::Error`] for rejected input,
    /// [`Severity::Fault`] for internal failures (contained panics,
    /// poisoned caches) — drives the exit code and matrix accounting.
    pub severity: Severity,
    /// The full coded diagnostic list behind a `frontend` failure. The
    /// frontend accumulates independent errors instead of stopping at
    /// the first one; `message` summarizes, this field carries them all.
    pub frontend_errors: Vec<Diagnostic>,
}

impl FlowError {
    /// An ordinary stage error (exit-code-1 territory).
    pub fn error(stage: &'static str, message: impl Into<String>) -> Self {
        FlowError {
            stage,
            message: message.into(),
            severity: Severity::Error,
            frontend_errors: Vec::new(),
        }
    }

    /// An internal fault (contained panic, poisoned state; exit code 2).
    pub fn fault(stage: &'static str, message: impl Into<String>) -> Self {
        FlowError {
            stage,
            message: message.into(),
            severity: Severity::Fault,
            frontend_errors: Vec::new(),
        }
    }

    /// A frontend failure carrying every accumulated coded diagnostic.
    /// The summary message is the first diagnostic (matching the old
    /// fail-fast behavior) plus a count of the rest.
    pub fn frontend(errors: Vec<Diagnostic>) -> Self {
        let message = match errors.as_slice() {
            [] => "frontend failed without diagnostics".to_string(),
            [only] => only.to_string(),
            [first, rest @ ..] => format!("{first} (and {} more error(s))", rest.len()),
        };
        FlowError {
            stage: "frontend",
            message,
            severity: Severity::Error,
            frontend_errors: errors,
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.message)
    }
}

impl std::error::Error for FlowError {}

thread_local! {
    /// Pipeline stage the current thread's compilation is inside,
    /// updated at every stage-span boundary. When a panic is contained
    /// (matrix isolation, `lnc`'s top-level catch), this is the stage
    /// context the resulting fault diagnostic is attributed to.
    static CURRENT_STAGE: std::cell::Cell<&'static str> =
        const { std::cell::Cell::new("frontend") };
}

/// The stage boundary most recently crossed on this thread.
pub fn current_stage() -> &'static str {
    CURRENT_STAGE.with(|c| c.get())
}

fn set_stage(stage: &'static str) {
    CURRENT_STAGE.with(|c| c.set(stage));
}

/// One compiled instruction or `always`-block.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// Instruction / always-block name.
    pub name: String,
    /// True for `always`-blocks.
    pub is_always: bool,
    /// Decode mask (instructions only).
    pub mask: u32,
    /// Decode match value (instructions only).
    pub match_value: u32,
    /// The scheduled LIL graph.
    pub graph: Graph,
    /// Per-LIL-operation start times and in-cycle times.
    pub schedule: Schedule,
    /// The constructed hardware module with port bindings.
    pub built: BuiltModule,
    /// Emitted SystemVerilog.
    pub verilog: String,
    /// Overall execution mode (worst interface variant, §3.2/§4.3).
    pub mode: ExecutionMode,
    /// Stage of the WrRD use, if the instruction writes `rd`.
    pub result_stage: Option<u32>,
    /// Earliest stage of any `spawn` operation (decoupled issue point).
    pub spawn_stage: Option<u32>,
    /// Highest active stage (total latency in stages).
    pub max_stage: u32,
}

/// A fully compiled ISAX, ready for SCAIE-V integration into one core.
#[derive(Debug, Clone)]
pub struct CompiledIsax {
    /// ISAX name.
    pub name: String,
    /// Core this compilation targeted.
    pub core: String,
    /// The elaborated, type-checked module (golden-model input).
    pub module: TypedModule,
    /// The lowered LIL module.
    pub lil: LilModule,
    /// One compiled artifact per instruction / always-block.
    ///
    /// Units that failed to compile are missing here and reported in
    /// [`CompiledIsax::diagnostics`] instead — one broken instruction does
    /// not abort the ISAX.
    pub graphs: Vec<CompiledGraph>,
    /// The SCAIE-V configuration file contents (Figure 8).
    pub config: IsaxConfig,
    /// Warnings, degradation notices, and per-unit errors accumulated
    /// across the flow.
    pub diagnostics: Diagnostics,
    /// Telemetry for the whole compilation: one span per pipeline stage
    /// ([`telemetry::STAGES`]), solver counters, per-unit schedule and
    /// hardware statistics, and the diagnostics mirrored with span links.
    /// Deterministic modulo the `dur_ns` timing fields
    /// ([`Trace::stripped`]).
    pub trace: Trace,
}

impl CompiledIsax {
    /// Finds a compiled graph by name.
    pub fn graph(&self, name: &str) -> Option<&CompiledGraph> {
        self.graphs.iter().find(|g| g.name == name)
    }

    /// Iterates over compiled instructions (not always-blocks).
    pub fn instructions(&self) -> impl Iterator<Item = &CompiledGraph> {
        self.graphs.iter().filter(|g| !g.is_always)
    }

    /// Iterates over compiled always-blocks.
    pub fn always_blocks(&self) -> impl Iterator<Item = &CompiledGraph> {
        self.graphs.iter().filter(|g| g.is_always)
    }
}

/// The Longnail compiler.
#[derive(Clone)]
pub struct Longnail {
    /// Chaining budget in uniform-delay units per stage.
    pub chain_depth: f64,
    /// Deterministic solver work budget granted to each graph's scheduling
    /// problem (see [`Budget`]). When the exact ILP exhausts it, the
    /// flow degrades to the verified ASAP fallback scheduler and records a
    /// warning instead of failing.
    pub work_limit: u64,
    /// Deterministic fault-injection plan (chaos testing). `None` — the
    /// default — injects nothing and costs one branch per stage boundary.
    pub fault_plan: Option<FaultPlan>,
    /// Netlist optimization effort (`lnc --opt-level`). At [`OptLevel::O0`]
    /// — the default — the `opt` stage is skipped entirely and the flow is
    /// byte-identical to the pre-optimizer compiler. Higher levels run the
    /// oracle-gated pass pipeline between `rtl` and `verilog`.
    pub opt_level: OptLevel,
}

impl Default for Longnail {
    fn default() -> Self {
        Self::new()
    }
}

impl Longnail {
    /// Creates a compiler with the default chaining budget. Every frontend
    /// run starts from the built-in prelude alone, so the frontend key
    /// (unit and source text) names everything a frontend result depends on.
    pub fn new() -> Self {
        Longnail {
            chain_depth: DEFAULT_CHAIN_DEPTH,
            work_limit: Budget::DEFAULT_LIMIT,
            fault_plan: None,
            opt_level: OptLevel::O0,
        }
    }

    /// The canonical fingerprint of every configuration knob that shapes
    /// emitted artifacts but is *not* part of the datasheet, chaining
    /// budget, or work limit: the optimization level and the SystemVerilog
    /// emission options. Folded into [`pipeline::core_config_key`] (so the
    /// whole backend key cone tracks it) and into the on-disk
    /// [`pipeline::schema_fingerprint`] — a `-O0` artifact can never be
    /// served to a `-O2` run from a shared cache directory.
    pub fn config_fingerprint(&self) -> String {
        let opts = EmitOptions::default();
        format!(
            "opt={};guard_division={};bounded_extract_dyn={}",
            self.opt_level.level(),
            opts.guard_division,
            opts.bounded_extract_dyn
        )
    }

    /// A sibling compiler configured like `self` but at `level` — used by
    /// serve mode for per-job `opt_level` overrides. The two compilers
    /// differ only in their config fingerprints.
    pub fn with_opt_level(&self, level: OptLevel) -> Longnail {
        Longnail {
            opt_level: level,
            ..self.clone()
        }
    }

    /// Compiles CoreDSL source text for the given target core: a
    /// [`Longnail::compile_cell`] on a fresh [`PipelineCache`].
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] naming the failing flow stage.
    pub fn compile(
        &self,
        src: &str,
        unit: &str,
        datasheet: &VirtualDatasheet,
    ) -> Result<CompiledIsax, FlowError> {
        self.compile_cell(src, unit, datasheet, &PipelineCache::new())
    }

    /// Compiles one ISAX for one core through the full incremental
    /// pipeline — the one path every compile takes. Every stage, frontend
    /// and lowering included, runs through one stage runner inside the
    /// cell's root `compile` span: it is looked up in (and populates)
    /// `pipe`'s content-keyed stage store, so recompiling an unchanged cell
    /// is pure cache replay and editing a source recomputes only its
    /// downstream cone. The emitted trace is byte-identical (after
    /// [`Trace::stripped`]) warm or cold.
    ///
    /// Units are compiled independently: a unit that fails in lowering,
    /// verification, scheduling, or netlist construction is dropped and
    /// recorded in [`CompiledIsax::diagnostics`] while the remaining units
    /// compile normally.
    ///
    /// Fault-targeted cells share the store like any other cell: every
    /// injection point sits outside the stage computations, so an
    /// injected fault fires identically warm or cold. The one injection
    /// whose effect reaches a later stage — budget exhaustion drops a
    /// unit before the `config` stage — is covered by the config key,
    /// which names the units that actually compiled; so a faulted cell
    /// never parks a degraded artifact under a key healthy runs trust.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] naming the failing flow stage; a frontend
    /// failure carries *every* accumulated coded diagnostic in
    /// `frontend_errors`. Failures are cached alongside successes — a
    /// deterministically broken input fails identically warm.
    pub fn compile_cell(
        &self,
        src: &str,
        unit: &str,
        datasheet: &VirtualDatasheet,
        pipe: &PipelineCache,
    ) -> Result<CompiledIsax, FlowError> {
        let mut cx = CellCtx::open(self, pipe, unit, src, datasheet);
        if let Some(plan) = &self.fault_plan {
            if plan
                .fault(unit, &datasheet.core, FaultKind::PoisonCache)
                .is_some()
            {
                // Genuinely poison the slot mutex — exactly the state a
                // worker that crashed mid-compute leaves behind — then
                // fail this cell. Peers sharing the entry must recover
                // through the store's poison-tolerant locking.
                set_stage("frontend");
                pipe.store().poison("frontend", cx.fe_key);
                return Err(FlowError::fault(
                    "frontend",
                    format!("injected fault: frontend cache entry for `{unit}` poisoned"),
                ));
            }
            if plan
                .fault(unit, &datasheet.core, FaultKind::ParseError)
                .is_some()
            {
                // Fails before the lookup: the injected failure stays in
                // this cell, never cached for the (healthy) source.
                cx.boundary("frontend");
                return Err(FlowError::frontend(vec![Diagnostic::coded(
                    codes::PARSE_EXPECTED,
                    Span::new(1, 1),
                    "injected fault: forced parse error",
                )
                .in_source(unit)]));
            }
        }
        // The typed module and the lowered LIL each scale with the source.
        let src_bytes = src.len() as u64 * 4;
        let module = cx.run(
            "frontend",
            cx.fe_key,
            |tape| frontend_stage(tape, src, unit),
            |_| src_bytes,
        )?;
        cx.isax = module.name.clone();
        cx.tel.attr(cx.root, "isax", &module.name);
        let lil = cx.run(
            "lower",
            pipeline::derive("lower", &[&cx.fe_key]),
            |tape| lower_stage(tape, &module),
            |_| src_bytes,
        )?;
        let mut graphs = Vec::new();
        // Scope keys of the graphs that compiled: the config is built from
        // exactly these, so they belong in its key.
        let mut compiled_scopes = Vec::new();
        for (gi, graph) in lil.graphs.iter().enumerate() {
            let unit_span = cx.tel.start_unit_span("unit", Some(&graph.name));
            cx.unit = Some((unit_span, graph.name.clone()));
            let scope = pipeline::graph_scope_key(&cx.fe_key, gi, &graph.name);
            // Cell-level fault injection fires once per compilation, on
            // the first unit, so a faulted cell degrades to exactly one
            // diagnostic.
            match cx.compile_graph(graph, &lil, scope, gi == 0) {
                Ok(cg) => {
                    graphs.push(cg);
                    compiled_scopes.push(scope);
                }
                Err(e) => {
                    let span = source_span(&module, &graph.name);
                    cx.diagnostics
                        .push(e.severity, e.stage, Some(&graph.name), span, e.message);
                }
            }
            cx.tel.end_span(unit_span);
        }
        cx.unit = None;
        let config_key = {
            let mut parts = vec![&cx.fe_key, &cx.cfg_key];
            parts.extend(&compiled_scopes);
            pipeline::derive("config", &parts)
        };
        let config = cx
            .run(
                "config",
                config_key,
                |tape| config_stage(tape, &lil, &graphs),
                |c| (c.functionalities.len() as u64 + 1) * 256,
            )
            .expect("config stage is infallible");
        Ok(cx.finish(&module, &lil, graphs, &config))
    }

    /// Compiles a list of cells — a full matrix ([`MatrixCell::grid`]) or
    /// any subset of one (the persistent layer serves some cells from
    /// disk and compiles only the rest) — across up to `jobs` worker
    /// threads, each through [`Longnail::compile_cell`] on the shared
    /// `pipe`. With a fresh cache this is a cold compile that still runs
    /// each distinct ISAX frontend once; with a reused one, every stage
    /// whose content key is unchanged is replayed from the store.
    ///
    /// The result's entries are in input order, merged by stable cell
    /// index — never by worker completion order — so output, diagnostics,
    /// and stripped traces are identical for any `jobs` value. A panic in
    /// one cell becomes that cell's [`Severity::Fault`] outcome.
    pub fn compile_cells(
        &self,
        cells: &[MatrixCell],
        jobs: usize,
        pipe: &PipelineCache,
    ) -> MatrixResult {
        let before: HashMap<String, qcache::StageStats> = pipe.stage_stats().into_iter().collect();
        let pool = Pool::new(jobs);
        let (outcomes, pool_stats) = pool.run_with_stats(cells.len(), |k| {
            let cell = &cells[k];
            // A panic anywhere in this cell's flow becomes a
            // Fault-severity outcome attributed to the stage boundary the
            // thread last crossed, and every other cell completes exactly
            // as in a clean run.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.compile_cell(&cell.src, &cell.unit, &cell.datasheet, pipe)
            }))
            .unwrap_or_else(|p| {
                Err(FlowError::fault(
                    current_stage(),
                    format!("compiler panicked: {}", pool::panic_message(p.as_ref())),
                ))
            })
        });
        let entries: Vec<MatrixEntry> = cells
            .iter()
            .zip(outcomes)
            .map(|(cell, outcome)| MatrixEntry {
                isax: cell.isax.clone(),
                unit: cell.unit.clone(),
                core: cell.datasheet.core.clone(),
                outcome,
            })
            .collect();
        let cell_faults = entries
            .iter()
            .filter(|e| matches!(&e.outcome, Err(f) if f.severity == Severity::Fault))
            .count() as u64;
        let errors_recovered = entries
            .iter()
            .map(|e| match &e.outcome {
                Ok(c) => c.diagnostics.of(Severity::Error).count() as u64,
                Err(f) if f.severity == Severity::Fault => 0,
                Err(f) => f.frontend_errors.len().max(1) as u64,
            })
            .sum();
        // Per-stage cache activity attributable to *this* run: the
        // cache may be long-lived (serve mode, warm recompiles), so
        // report deltas against the entry snapshot, not lifetime totals.
        let stage_stats: Vec<StageCacheStats> = pipe
            .stage_stats()
            .into_iter()
            .map(|(stage, after)| {
                let b = before.get(&stage).copied().unwrap_or_default();
                StageCacheStats {
                    stage,
                    hits: after.hits - b.hits,
                    misses: after.misses - b.misses,
                    waits: after.waits - b.waits,
                }
            })
            .collect();
        MatrixResult {
            entries,
            jobs: pool.workers(),
            cell_faults,
            errors_recovered,
            stage_stats,
            pool_stats,
        }
    }

    /// Stage `problem`: builds the [`LongnailProblem`] for one graph.
    fn problem_stage(
        &self,
        tape: &mut Tape,
        graph: &Graph,
        is_always: bool,
        datasheet: &VirtualDatasheet,
    ) -> Result<ProblemOut, FlowError> {
        let chain_limit = if datasheet.clock_ns > 0.0 {
            (datasheet.clock_ns / UNIT_NS).max(2.0)
        } else {
            self.chain_depth
        };
        let mut problem = LongnailProblem {
            cycle_time: chain_limit,
            ..LongnailProblem::default()
        };
        let mut type_cache: HashMap<String, OperatorTypeId> = HashMap::new();
        let mut op_ids = Vec::with_capacity(graph.len());
        for (_, op) in graph.iter() {
            let key = op.kind.mnemonic();
            let cache_key = format!("{key}/{}", op.in_spawn);
            let tid = match type_cache.get(&cache_key) {
                Some(&t) => t,
                None => {
                    let t =
                        problem.add_operator_type(operator_type(&op.kind, is_always, datasheet)?);
                    type_cache.insert(cache_key, t);
                    t
                }
            };
            op_ids.push(problem.add_operation(&key, tid));
        }
        for (v, op) in graph.iter() {
            for &operand in op.operands.iter().chain(op.pred.iter()) {
                problem.add_dependence(op_ids[operand.0], op_ids[v.0]);
            }
        }
        tape.counter(metrics::PROBLEM_OPS, graph.len() as u64);
        tape.counter(
            metrics::PROBLEM_IFACE_OPS,
            graph.interface_op_count() as u64,
        );
        tape.counter(metrics::PROBLEM_DEPS, graph.edge_count() as u64);
        tape.gauge(metrics::SCHED_CHAIN_LIMIT, chain_limit);
        Ok(ProblemOut { problem, op_ids })
    }

    /// Stage `solve`: runs the resilient scheduler and remaps the result
    /// to graph-indexed start times.
    fn solve_stage(
        &self,
        tape: &mut Tape,
        pout: &ProblemOut,
        graph: &Graph,
    ) -> Result<SolveOut, FlowError> {
        let budget = Budget::new(self.work_limit);
        // Scheduling appends chain breakers to the problem; the cached
        // ProblemOut must stay pristine for replay.
        let mut problem = pout.problem.clone();
        let result = schedule_resilient(&mut problem, &budget);
        // Solver work is counted, not timed — these are deterministic.
        tape.counter(metrics::SOLVER_LIFTS, budget.count(WorkKind::Lift));
        tape.counter(metrics::SOLVER_AUGMENTS, budget.count(WorkKind::Augment));
        tape.counter(metrics::SOLVER_ROUNDS, budget.count(WorkKind::Round));
        tape.counter(metrics::SOLVER_WORK_USED, budget.used());
        tape.counter(metrics::SOLVER_WORK_LIMIT, budget.limit());
        let outcome = result.map_err(|e| FlowError::error("schedule", e.to_string()))?;
        if let Some(deg) = &outcome.degradation {
            tape.counter(metrics::SCHED_FALLBACK, 1);
            if matches!(deg.reason, DegradationReason::BudgetExhausted(_)) {
                tape.counter(metrics::SOLVER_EXHAUSTED, 1);
            }
            tape.diag(Severity::Warning, "schedule", None, None, deg.to_string());
        }
        tape.unit_attr(
            "scheduler",
            if outcome.is_exact() { "ilp" } else { "asap" }.to_string(),
        );
        let schedule = outcome.schedule;
        let start_time: Vec<u32> = (0..graph.len())
            .map(|i| schedule.start_time[pout.op_ids[i].0])
            .collect();
        let max_stage_sched = start_time.iter().copied().max().unwrap_or(0);
        tape.counter(metrics::SCHED_STAGES, u64::from(max_stage_sched));
        tape.gauge(
            metrics::SCHED_CHAIN_DEPTH,
            schedule.max_start_time_in_cycle(),
        );
        let start_time_in_cycle = (0..graph.len())
            .map(|i| schedule.start_time_in_cycle[pout.op_ids[i].0])
            .collect();
        Ok(SolveOut {
            schedule: Schedule {
                start_time,
                start_time_in_cycle,
            },
            max_stage_sched,
        })
    }
}

/// Builds the scheduling operator type for one LIL operation kind.
fn operator_type(
    kind: &OpKind,
    is_always: bool,
    datasheet: &VirtualDatasheet,
) -> Result<OperatorType, FlowError> {
    let name = kind.mnemonic();
    if let Some(iface) = lil_iface_op(kind) {
        if is_always {
            // §4.4: all interface constraints pinned to stage 0.
            return Ok(OperatorType::combinational(&name, 0.0).with_window(0, Some(0)));
        }
        let timing = datasheet.timing(&iface).ok_or_else(|| {
            FlowError::error(
                "schedule",
                format!(
                    "virtual datasheet of `{}` lacks an entry for {}",
                    datasheet.core,
                    iface.key()
                ),
            )
        })?;
        // §4.2: WrRD / RdMem / WrMem get latest = ∞ to unlock the
        // tightly-coupled and decoupled variants.
        let latest = match kind {
            OpKind::WriteRd | OpKind::ReadMem | OpKind::WriteMem => None,
            OpKind::WriteCustReg(_) => None,
            _ => timing.latest,
        };
        let mut ot = OperatorType::sequential(&name, timing.latency, 0.0);
        ot.earliest = timing.earliest;
        ot.latest = latest;
        return Ok(ot);
    }
    // Combinational logic: uniform delay, wiring is free (§4.2).
    let delay = match kind {
        OpKind::Const(_)
        | OpKind::Sink
        | OpKind::Concat
        | OpKind::Replicate(_)
        | OpKind::ExtractConst { .. }
        | OpKind::ZExt
        | OpKind::SExt
        | OpKind::Trunc => 0.0,
        OpKind::Mux | OpKind::Not => 0.2,
        _ => UNIFORM_DELAY,
    };
    Ok(OperatorType::combinational(&name, delay))
}

/// One cell's compilation in flight: the stage-key roots, the cell's
/// trace and diagnostics, and the unit the per-unit stages report into.
/// Every stage runs through [`CellCtx::run`].
struct CellCtx<'a> {
    ln: &'a Longnail,
    pipe: &'a PipelineCache,
    datasheet: &'a VirtualDatasheet,
    /// Name fault plans match at stage boundaries: the requested unit
    /// until the frontend has elaborated the module, then its name.
    isax: String,
    /// Content-address of the frontend artifact this cell consumes.
    fe_key: Digest,
    /// Content-address of the core/options configuration.
    cfg_key: Digest,
    tel: Telemetry,
    /// The cell's root `compile` span.
    root: SpanId,
    diagnostics: Diagnostics,
    /// Span and name of the unit the per-unit stages currently run in.
    unit: Option<(SpanId, String)>,
}

impl<'a> CellCtx<'a> {
    /// Opens the cell's root `compile` span, then derives the two roots
    /// every stage key chains from.
    fn open(
        ln: &'a Longnail,
        pipe: &'a PipelineCache,
        unit: &str,
        src: &str,
        datasheet: &'a VirtualDatasheet,
    ) -> Self {
        let mut tel = Telemetry::new();
        let root = tel.start_span("compile");
        tel.attr(root, "core", &datasheet.core);
        CellCtx {
            ln,
            pipe,
            datasheet,
            isax: unit.to_string(),
            fe_key: pipeline::frontend_key(unit, src),
            cfg_key: pipeline::core_config_key(
                datasheet,
                ln.chain_depth,
                ln.work_limit,
                &ln.config_fingerprint(),
            ),
            tel,
            root,
            diagnostics: Diagnostics::default(),
            unit: None,
        }
    }

    /// Crosses a stage boundary: records the stage for panic attribution
    /// and fires a planned [`FaultKind::Panic`] when this cell is targeted
    /// at this stage.
    fn boundary(&self, stage: &'static str) {
        set_stage(stage);
        if let Some(plan) = &self.ln.fault_plan {
            if plan.panic_at(&self.isax, &self.datasheet.core, stage) {
                panic!(
                    "injected fault: panic at stage `{stage}` of `{}` for `{}`",
                    self.isax, self.datasheet.core
                );
            }
        }
    }

    /// Runs one stage: crosses its boundary, opens its span, looks `key`
    /// up in the stage store (a miss runs `body` and stores its result and
    /// tape), replays the tape and closes the span. Returns the shared
    /// value — callers clone only what they keep — or the cached error.
    ///
    /// Tape counters and gauges land on the stage span; attributes and
    /// diagnostics go to the current unit, or to the stage span when no
    /// unit is open. `payload_bytes` estimates the value's heap footprint
    /// for the byte-accounted LRU (`--cache-mem-bytes`).
    fn run<T: Send + Sync + 'static>(
        &mut self,
        stage: &'static str,
        key: Digest,
        body: impl FnOnce(&mut Tape) -> Result<T, FlowError>,
        payload_bytes: impl FnOnce(&T) -> u64,
    ) -> Result<Arc<T>, FlowError> {
        self.boundary(stage);
        let span = self.tel.start_span(stage);
        let (val, lookup) = self.pipe.store().get_or_compute_sized(
            stage,
            key,
            || {
                let mut tape = Tape::default();
                let outcome = body(&mut tape).map(Arc::new);
                Arc::new(StageVal { outcome, tape })
            },
            |v: &Arc<StageVal<T>>| {
                // Fixed slot/tape overhead plus a coarse payload estimate:
                // the cap is a budget, not an allocator audit.
                512 + match &v.outcome {
                    Ok(t) => payload_bytes(t),
                    Err(e) => e.message.len() as u64,
                }
            },
        );
        if stage == "frontend" {
            // Which cell wins the miss is a race under concurrency, so
            // `Trace::stripped` drops these.
            let (tel, root) = (&mut self.tel, self.root);
            tel.counter(root, metrics::CACHE_FRONTEND_HIT, u64::from(lookup.hit));
            tel.counter(root, metrics::CACHE_FRONTEND_MISS, u64::from(!lookup.hit));
            if lookup.waited {
                tel.counter(root, metrics::CACHE_FRONTEND_WAIT, 1);
                tel.counter(root, metrics::CACHE_FRONTEND_WAIT_NS, lookup.wait_ns);
            }
        }
        let (unit_span, unit) = match &self.unit {
            Some((s, name)) => (*s, Some(name.as_str())),
            None => (span, None),
        };
        self.diagnostics.set_trace_span(Some(unit_span.0));
        val.tape
            .replay(&mut self.tel, span, unit_span, &mut self.diagnostics, unit);
        self.tel.end_span(span);
        val.outcome.clone()
    }

    /// The per-unit stages of one graph: problem → solve → modes → rtl →
    /// opt (above `-O0`) → verilog.
    fn compile_graph(
        &mut self,
        graph: &Graph,
        lil: &LilModule,
        scope: Digest,
        inject: bool,
    ) -> Result<CompiledGraph, FlowError> {
        let (ln, ds) = (self.ln, self.datasheet);
        let is_always = graph.kind == GraphKind::Always;
        // Stage keys chain Merkle-style from this graph's scope key: an
        // upstream edit flips every key downstream of it and no other.
        let problem_key = pipeline::derive("problem", &[&scope, &self.cfg_key]);
        let solve_key = pipeline::derive("solve", &[&problem_key]);
        let modes_key = pipeline::derive("modes", &[&solve_key]);
        let rtl_key = pipeline::derive("rtl", &[&solve_key]);
        let opt_key = pipeline::derive("opt", &[&rtl_key]);
        // The Verilog chains from whichever module actually feeds it:
        // the optimized one above -O0, the raw build otherwise.
        let verilog_key = if ln.opt_level == OptLevel::O0 {
            pipeline::derive("verilog", &[&rtl_key])
        } else {
            pipeline::derive("verilog", &[&opt_key])
        };

        let pout = self.run(
            "problem",
            problem_key,
            |tape| ln.problem_stage(tape, graph, is_always, ds),
            |p| (p.op_ids.len() as u64 + 1) * 192,
        )?;
        if inject {
            if let Some(plan) = &ln.fault_plan {
                if plan
                    .fault(&self.isax, &ds.core, FaultKind::BudgetExhaustion)
                    .is_some()
                {
                    return Err(FlowError::error(
                        "solve",
                        "injected fault: solver work budget exhausted before a schedule \
                         was found",
                    ));
                }
            }
        }
        let sout = self.run(
            "solve",
            solve_key,
            |tape| ln.solve_stage(tape, &pout, graph),
            |s| (s.schedule.start_time.len() as u64 + 1) * 16,
        )?;
        let mout = self.run(
            "modes",
            modes_key,
            |tape| modes_stage(tape, graph, is_always, ds, &sout),
            |_| 64,
        )?;
        let built = self.run(
            "rtl",
            rtl_key,
            |tape| rtl_stage(tape, graph, lil, ds, &sout),
            |b| (b.module.nets.len() as u64 + 1) * 160,
        )?;
        let built = if ln.opt_level == OptLevel::O0 {
            // No `opt` span at -O0, so the default flow is untouched; the
            // boundary is still crossed so chaos plans targeting `opt`
            // behave identically at every level.
            self.boundary("opt");
            built
        } else {
            self.run(
                "opt",
                opt_key,
                |tape| opt_stage(tape, &built, ln.opt_level),
                |b| (b.module.nets.len() as u64 + 1) * 160,
            )?
        };
        let verilog = self.run(
            "verilog",
            verilog_key,
            |tape| verilog_stage(tape, &built),
            |v| v.len() as u64,
        )?;

        let (mask, match_value) = match graph.kind {
            GraphKind::Instruction { mask, match_value } => (mask, match_value),
            GraphKind::Always => (0, 0),
        };
        Ok(CompiledGraph {
            name: graph.name.clone(),
            is_always,
            mask,
            match_value,
            graph: graph.clone(),
            schedule: sout.schedule.clone(),
            max_stage: built.max_stage,
            built: (*built).clone(),
            verilog: (*verilog).clone(),
            mode: mout.mode,
            result_stage: mout.result_stage,
            spawn_stage: mout.spawn_stage,
        })
    }

    /// Closes the root span and assembles the compiled ISAX, mirroring the
    /// diagnostics into the trace, each linked to the span that was open
    /// when it fired.
    fn finish(
        mut self,
        module: &TypedModule,
        lil: &LilModule,
        graphs: Vec<CompiledGraph>,
        config: &IsaxConfig,
    ) -> CompiledIsax {
        // Copying out of the shared stage values is the cell's work too, so
        // it happens before the root span closes.
        let (module, lil, config) = (module.clone(), lil.clone(), config.clone());
        // Errors that were contained to their unit instead of aborting
        // the compilation. Omitted (not zero) on clean runs so a clean
        // trace stays byte-identical to pre-degradation baselines.
        let recovered = self.diagnostics.of(Severity::Error).count() as u64;
        if recovered > 0 {
            self.tel
                .counter(self.root, metrics::DEGRADE_ERRORS_RECOVERED, recovered);
        }
        self.tel.end_span(self.root);
        for e in &self.diagnostics.events {
            self.tel.diag(
                e.trace_span.map(SpanId),
                &e.severity.to_string(),
                e.stage,
                e.unit.as_deref(),
                &e.message,
            );
        }
        CompiledIsax {
            name: lil.name.clone(),
            core: self.datasheet.core.clone(),
            module,
            lil,
            graphs,
            config,
            diagnostics: self.diagnostics,
            trace: self.tel.finish(),
        }
    }
}

/// Cached output of the `problem` stage.
#[derive(Debug, Clone)]
pub(crate) struct ProblemOut {
    problem: LongnailProblem,
    /// Graph-index → problem operation id (the solver's namespace).
    op_ids: Vec<OperationId>,
}

/// Cached output of the `solve` stage, remapped to graph indices.
#[derive(Debug, Clone)]
pub(crate) struct SolveOut {
    schedule: Schedule,
    max_stage_sched: u32,
}

/// Cached output of the `modes` stage.
#[derive(Debug, Clone)]
pub(crate) struct ModesOut {
    mode: ExecutionMode,
    result_stage: Option<u32>,
    spawn_stage: Option<u32>,
}

/// Stage `frontend`: parses, elaborates and type-checks `unit` against
/// the built-in prelude.
fn frontend_stage(tape: &mut Tape, src: &str, unit: &str) -> Result<TypedModule, FlowError> {
    let out = Frontend::new().compile_str_all(src, unit);
    if !out.errors.is_empty() {
        return Err(FlowError::frontend(out.errors));
    }
    let module = out
        .module
        .ok_or_else(|| FlowError::error("frontend", "elaboration produced no module"))?;
    let stats = module.stats();
    tape.counter(metrics::FRONTEND_INSTRUCTIONS, stats.instructions as u64);
    tape.counter(metrics::FRONTEND_ALWAYS, stats.always_blocks as u64);
    tape.counter(metrics::FRONTEND_FUNCTIONS, stats.functions as u64);
    Ok(module)
}

/// Source span of the instruction or always-block named `unit`.
fn source_span(module: &TypedModule, unit: &str) -> Option<Span> {
    let instructions = module.instructions.iter().map(|i| (&i.name, i.span));
    let always = module.always_blocks.iter().map(|a| (&a.name, a.span));
    instructions
        .chain(always)
        .find_map(|(name, span)| (name == unit).then_some(span))
}

/// Stage `lower`: lowers the typed module to verified LIL. A unit that
/// fails to lower or verify is left out and reported on the tape, so the
/// core-independent diagnostic replays into every cell of the ISAX.
fn lower_stage(tape: &mut Tape, module: &TypedModule) -> Result<LilModule, FlowError> {
    let mut lil = lower_state(module);
    let lowered = module
        .instructions
        .iter()
        .map(|i| lower_instruction(module, i))
        .chain(module.always_blocks.iter().map(|a| lower_always(module, a)));
    for result in lowered {
        let graph = match result {
            Ok(g) => g,
            Err(e) => {
                let span = source_span(module, &e.unit);
                tape.diag(Severity::Error, "lower", Some(&e.unit), span, e.message);
                continue;
            }
        };
        // Stage verifier: a graph the lowering itself produced must be
        // well-formed; a violation is a compiler bug, contained to this
        // unit.
        if let Err(errs) = verify_graph(&graph, &lil) {
            let span = source_span(module, &graph.name);
            let msg = join_findings(&errs);
            tape.diag(Severity::Fault, "verify", Some(&graph.name), span, msg);
            continue;
        }
        lil.graphs.push(graph);
    }
    tape.counter("lower.graphs", lil.graphs.len() as u64);
    Ok(lil)
}

/// Stage `modes`: per-write-interface mode selection (§4.3) and the
/// overall execution mode.
fn modes_stage(
    tape: &mut Tape,
    graph: &Graph,
    is_always: bool,
    datasheet: &VirtualDatasheet,
    sout: &SolveOut,
) -> Result<ModesOut, FlowError> {
    let mut mode = if is_always {
        ExecutionMode::Always
    } else {
        ExecutionMode::InPipeline
    };
    let mut result_stage = None;
    let mut spawn_stage: Option<u32> = None;
    for (v, op) in graph.iter() {
        let stage = sout.schedule.start_time[v.0];
        if op.in_spawn {
            spawn_stage = Some(spawn_stage.map_or(stage, |s: u32| s.min(stage)));
        }
        if op.kind == OpKind::WriteRd {
            result_stage = Some(stage);
        }
        if !is_always && mode_relevant(&op.kind) {
            let iface = lil_iface_op(&op.kind).expect("interface op");
            let timing = datasheet.timing(&iface).ok_or_else(|| {
                FlowError::error("modes", format!("datasheet lacks {} timing", iface.key()))
            })?;
            let m = select_mode(stage, timing, datasheet.writeback_stage, op.in_spawn, false);
            mode = worst_mode(mode, m);
        }
    }
    // Initiation interval: pipelined units accept one instruction per
    // cycle; a decoupled (`spawn`) unit is busy for its spawned
    // section's latency.
    let ii = match spawn_stage {
        Some(s) => u64::from(sout.max_stage_sched.saturating_sub(s)).max(1),
        None => 1,
    };
    tape.counter(metrics::SCHED_II, ii);
    tape.unit_attr("mode", mode.to_string());
    Ok(ModesOut {
        mode,
        result_stage,
        spawn_stage,
    })
}

/// Stage `rtl`: hardware construction and the netlist lint gate. Lint
/// findings are internal faults: the netlist is compiler-constructed.
fn rtl_stage(
    tape: &mut Tape,
    graph: &Graph,
    lil: &LilModule,
    datasheet: &VirtualDatasheet,
    sout: &SolveOut,
) -> Result<BuiltModule, FlowError> {
    let ds = datasheet.clone();
    let read_latency = move |kind: &OpKind| -> u32 {
        lil_iface_op(kind)
            .and_then(|op| ds.timing(&op))
            .map(|t| t.latency)
            .unwrap_or(0)
    };
    let built = build_graph_module(graph, lil, &sout.schedule.start_time, &read_latency);
    // Netlist lint: last gate before SystemVerilog leaves the compiler.
    lint_module(&built.module)
        .map_err(|issues| FlowError::fault("netlist", join_findings(&issues)))?;
    tape.counter(metrics::RTL_CELLS, built.module.nets.len() as u64);
    tape.counter(metrics::RTL_REG_BITS, built.module.register_bits());
    tape.counter(
        metrics::RTL_COMB_DEPTH,
        u64::from(comb_depth(&built.module)),
    );
    let estimate = eda::estimate_module(&TechLibrary::new(), &built.module);
    tape.gauge(metrics::EDA_AREA_UM2, estimate.area.total());
    tape.gauge(metrics::EDA_CRIT_NS, estimate.timing.critical_path_ns);
    Ok(built)
}

/// One `; `-separated message from a verifier's or lint's findings.
fn join_findings<T: ToString>(findings: &[T]) -> String {
    findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

/// Cycles of lockstep stimulus the opt stage's runtime oracle drives
/// through the original and optimized netlists (including X stimulus).
const OPT_VERIFY_CYCLES: u32 = 32;

/// Stage `opt`: oracle-gated netlist optimization (`-O1`/`-O2`).
///
/// Runs [`rtl::opt::optimize`] at the requested level, then gates the
/// result two ways before it may replace the built module: the structural
/// lint must stay clean, and [`rtl::opt::verify_equivalent`] must see the
/// optimized module track the original in lockstep — exact two-valued
/// output equality plus four-state refinement under X stimulus. A gate
/// violation is an optimizer bug, but not a reason to fail the cell: the
/// stage falls back to the unoptimized netlist, records a warning, and
/// counts the fallback. (The third gate — `lnc --xcheck` over the full
/// matrix — runs downstream on whatever module this stage emits.)
fn opt_stage(
    tape: &mut Tape,
    built: &BuiltModule,
    level: OptLevel,
) -> Result<BuiltModule, FlowError> {
    let opts = EmitOptions::default();
    let gated = optimize(&built.module, level, &opts).and_then(|(module, report)| {
        lint_module(&module).map_err(|issues| {
            format!("optimized netlist failed lint: {}", join_findings(&issues))
        })?;
        verify_equivalent(&built.module, &module, &opts, OPT_VERIFY_CYCLES)
            .map_err(|e| format!("optimized netlist failed the lockstep oracle: {e}"))?;
        Ok((module, report))
    });
    let (module, report) = match gated {
        Ok(out) => out,
        // A structurally invalid rewrite never leaves the pass manager;
        // emit the known-good module instead.
        Err(why) => {
            let msg = format!("optimization disabled for this unit: {why}");
            tape.diag(Severity::Warning, "opt", None, None, msg);
            tape.counter(metrics::OPT_FALLBACK, 1);
            return Ok(built.clone());
        }
    };
    tape.counter(metrics::OPT_ITERATIONS, u64::from(report.iterations));
    for (pass, count) in &report.rewrites {
        let name = match *pass {
            "fold" => metrics::OPT_REWRITES_FOLD,
            "cse" => metrics::OPT_REWRITES_CSE,
            "mux" => metrics::OPT_REWRITES_MUX,
            "strength" => metrics::OPT_REWRITES_STRENGTH,
            "narrow" => metrics::OPT_REWRITES_NARROW,
            "dce" => metrics::OPT_REWRITES_DCE,
            _ => continue,
        };
        tape.counter(name, *count);
    }
    tape.counter(metrics::OPT_NETS_BEFORE, report.nets_before as u64);
    tape.counter(metrics::OPT_NETS_AFTER, report.nets_after as u64);
    // Area/critical-path before and after: the `rtl` stage already gauged
    // the unoptimized module; gauge it again here so the pair lives on one
    // span, then the optimized estimate on the standard EDA names.
    let lib = TechLibrary::new();
    let before = eda::estimate_module(&lib, &built.module);
    let after = eda::estimate_module(&lib, &module);
    tape.gauge(metrics::OPT_AREA_BEFORE_UM2, before.area.total());
    tape.gauge(metrics::EDA_AREA_UM2, after.area.total());
    tape.gauge(metrics::EDA_CRIT_NS, after.timing.critical_path_ns);
    let mut out = built.clone();
    out.module = module;
    Ok(out)
}

/// Stage `verilog`: SystemVerilog emission.
fn verilog_stage(tape: &mut Tape, built: &BuiltModule) -> Result<String, FlowError> {
    let verilog = emit_verilog(&built.module);
    tape.counter(metrics::VERILOG_BYTES, verilog.len() as u64);
    Ok(verilog)
}

/// Stage `config`: the Figure 8 SCAIE-V configuration file.
fn config_stage(
    tape: &mut Tape,
    lil: &LilModule,
    graphs: &[CompiledGraph],
) -> Result<IsaxConfig, FlowError> {
    let config = build_config(lil, graphs);
    tape.counter(
        metrics::CONFIG_ENTRIES,
        config.schedule_entry_count() as u64,
    );
    tape.counter(metrics::CONFIG_REGISTERS, config.registers.len() as u64);
    Ok(config)
}

/// One cell of work for [`Longnail::compile_cells`]: an ISAX source
/// targeted at one core's datasheet.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// ISAX display name (Table 3 row).
    pub isax: String,
    /// CoreDSL unit to elaborate.
    pub unit: String,
    /// CoreDSL source text.
    pub src: String,
    /// Target core datasheet.
    pub datasheet: VirtualDatasheet,
}

impl MatrixCell {
    /// The `isaxes` × `cores` cross product in row-major order
    /// (`isaxes[0]×cores[0], isaxes[0]×cores[1], …`). `isaxes` entries
    /// are `(display_name, unit, source)` triples in the shape of
    /// [`crate::isax_lib::all_isaxes`].
    pub fn grid(
        isaxes: &[(String, String, String)],
        cores: &[VirtualDatasheet],
    ) -> Vec<MatrixCell> {
        isaxes
            .iter()
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
}

/// One cell of a compiled matrix: one ISAX targeted at one core.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// ISAX display name (Table 3 row).
    pub isax: String,
    /// CoreDSL unit that was elaborated.
    pub unit: String,
    /// Target core name.
    pub core: String,
    /// The compilation outcome for this cell.
    pub outcome: Result<CompiledIsax, FlowError>,
}

/// Result of [`Longnail::compile_cells`]: all cells in input order plus
/// the shared-cache statistics.
#[derive(Debug)]
pub struct MatrixResult {
    /// One entry per input cell, in input order regardless of worker
    /// scheduling.
    pub entries: Vec<MatrixEntry>,
    /// Worker threads the matrix actually ran with.
    pub jobs: usize,
    /// Cells whose outcome is a [`Severity::Fault`] failure (contained
    /// panics, poisoned caches) — the `degrade.cell_faults` counter.
    pub cell_faults: u64,
    /// Error-severity problems that were contained (to a unit or a cell)
    /// instead of aborting the batch — `degrade.errors_recovered`.
    pub errors_recovered: u64,
    /// Per-stage cache activity of this run (hit/miss/wait deltas
    /// against the shared [`PipelineCache`]), sorted by stage name.
    /// `frontend` counts distinct ISAX sources compiled (misses) and
    /// reused (hits) — 8 and 24 for the 8×4 evaluation matrix; `lower`
    /// mirrors it (the lowered IR rides inside the frontend artifact).
    pub stage_stats: Vec<StageCacheStats>,
    /// What the worker pool observed about its own scheduling: wall time,
    /// queue-wait vs run split per cell, per-worker load. Wall-clock- and
    /// scheduling-dependent — informational only, never part of the
    /// deterministic artifacts.
    pub pool_stats: pool::RunStats,
}

impl MatrixResult {
    /// This run's cache activity for one stage (zero if it never ran).
    pub fn stage(&self, stage: &str) -> StageCacheStats {
        self.stage_stats
            .iter()
            .find(|s| s.stage == stage)
            .cloned()
            .unwrap_or_default()
    }

    /// Finds a cell by ISAX display name and core.
    pub fn entry(&self, isax: &str, core: &str) -> Option<&MatrixEntry> {
        self.entries
            .iter()
            .find(|e| e.isax == isax && e.core == core)
    }

    /// Iterates over successfully compiled cells.
    pub fn compiled(&self) -> impl Iterator<Item = (&MatrixEntry, &CompiledIsax)> {
        self.entries
            .iter()
            .filter_map(|e| e.outcome.as_ref().ok().map(|c| (e, c)))
    }
}

/// The virtual datasheets of all four evaluation cores (Table 4), in
/// [`EVAL_CORES`] order.
pub fn eval_datasheets() -> Vec<VirtualDatasheet> {
    EVAL_CORES
        .iter()
        .map(|c| builtin_datasheet(c).expect("builtin evaluation core"))
        .collect()
}

/// Maps a LIL operation to its SCAIE-V sub-interface, if any.
pub fn lil_iface_op(kind: &OpKind) -> Option<SubInterfaceOp> {
    Some(match kind {
        OpKind::InstrWord => SubInterfaceOp::RdInstr,
        OpKind::ReadRs1 => SubInterfaceOp::RdRS1,
        OpKind::ReadRs2 => SubInterfaceOp::RdRS2,
        OpKind::ReadPc => SubInterfaceOp::RdPC,
        OpKind::ReadMem => SubInterfaceOp::RdMem,
        OpKind::WriteRd => SubInterfaceOp::WrRD,
        OpKind::WritePc => SubInterfaceOp::WrPC,
        OpKind::WriteMem => SubInterfaceOp::WrMem,
        OpKind::ReadCustReg(reg) => SubInterfaceOp::RdCustReg { reg: reg.clone() },
        OpKind::WriteCustReg(reg) => SubInterfaceOp::WrCustRegData { reg: reg.clone() },
        _ => return None,
    })
}

/// Interface kinds whose scheduled stage participates in mode selection.
fn mode_relevant(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::WriteRd | OpKind::ReadMem | OpKind::WriteMem | OpKind::WriteCustReg(_)
    )
}

/// Severity order for combining per-interface modes into an instruction
/// mode.
fn worst_mode(a: ExecutionMode, b: ExecutionMode) -> ExecutionMode {
    let rank = |m: ExecutionMode| match m {
        ExecutionMode::InPipeline => 0,
        ExecutionMode::TightlyCoupled => 1,
        ExecutionMode::Decoupled => 2,
        ExecutionMode::Always => 3,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Builds the Figure 8 SCAIE-V configuration file contents.
fn build_config(lil: &LilModule, graphs: &[CompiledGraph]) -> IsaxConfig {
    let mut config = IsaxConfig {
        name: lil.name.clone(),
        ..IsaxConfig::default()
    };
    for reg in &lil.custom_regs {
        config.registers.push(RegisterRequest {
            name: reg.name.clone(),
            width: reg.width,
            elements: reg.elems,
        });
    }
    for cg in graphs {
        let mut schedule = Vec::new();
        for (v, op) in cg.graph.iter() {
            let Some(iface) = lil_iface_op(&op.kind) else {
                continue;
            };
            let stage = cg.schedule.start_time[v.0];
            let has_valid = op.pred.is_some();
            let mode = if cg.is_always {
                ExecutionMode::Always
            } else if mode_relevant(&op.kind) {
                cg.mode
            } else {
                ExecutionMode::InPipeline
            };
            if let OpKind::WriteCustReg(reg) = &op.kind {
                // The .addr entry consistently provides the hazard-handling
                // mechanism with stage information even for single-element
                // registers (paper §4.6).
                schedule.push(ScheduleEntry {
                    interface: SubInterfaceOp::WrCustRegAddr { reg: reg.clone() }.key(),
                    stage,
                    has_valid: false,
                    mode,
                });
            }
            schedule.push(ScheduleEntry {
                interface: iface.key(),
                stage,
                has_valid,
                mode,
            });
        }
        config.functionalities.push(Functionality {
            name: cg.name.clone(),
            encoding: (!cg.is_always).then(|| pattern_string(cg.mask, cg.match_value)),
            schedule,
        });
    }
    config
}

fn pattern_string(mask: u32, match_value: u32) -> String {
    (0..32)
        .rev()
        .map(|i| {
            if mask >> i & 1 == 1 {
                if match_value >> i & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            } else {
                '-'
            }
        })
        .collect()
}

/// Builds the virtual datasheets used in the evaluation. The actual core
/// descriptors (pipeline structure, base area/fmax) live in the `cores`
/// crate; this function only captures the SCAIE-V timing abstraction so the
/// compiler can be used without the core models.
pub fn builtin_datasheet(core: &str) -> Option<VirtualDatasheet> {
    let mut ds = match core {
        // 5-stage in-order pipeline: IF ID EX MEM WB (stages 0..4).
        "VexRiscv" | "ORCA" => {
            let mut ds = VirtualDatasheet::new(core, 5, 4, 3);
            let (rs_stage, wr_earliest) = if core == "ORCA" {
                // ORCA: register operands available in stage 3, result
                // write-back already expected in the following stage (§5.4).
                (3, 3)
            } else {
                (2, 2)
            };
            ds.set(SubInterfaceOp::RdInstr, Timing::new(1, Some(4), 0))
                .set(SubInterfaceOp::RdRS1, Timing::new(rs_stage, Some(4), 0))
                .set(SubInterfaceOp::RdRS2, Timing::new(rs_stage, Some(4), 0))
                .set(SubInterfaceOp::RdPC, Timing::new(1, Some(4), 0))
                .set(SubInterfaceOp::RdMem, Timing::new(3, None, 1))
                .set(SubInterfaceOp::WrRD, Timing::new(wr_earliest, None, 0))
                .set(SubInterfaceOp::WrPC, Timing::new(1, Some(4), 0))
                .set(SubInterfaceOp::WrMem, Timing::new(3, None, 0));
            ds
        }
        // 3-stage pipeline: IF / EX / WB.
        "Piccolo" => {
            let mut ds = VirtualDatasheet::new(core, 3, 2, 1);
            ds.set(SubInterfaceOp::RdInstr, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdRS1, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdRS2, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdPC, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::RdMem, Timing::new(1, None, 1))
                .set(SubInterfaceOp::WrRD, Timing::new(1, None, 0))
                .set(SubInterfaceOp::WrPC, Timing::new(1, Some(2), 0))
                .set(SubInterfaceOp::WrMem, Timing::new(1, None, 0));
            ds
        }
        // Non-pipelined FSM sequencing: everything available from step 1
        // and the core waits for the ISAX (paper footnote 2).
        "PicoRV32" => {
            let mut ds = VirtualDatasheet::new(core, 1, 1, 1);
            ds.set(SubInterfaceOp::RdInstr, Timing::new(0, None, 0))
                .set(SubInterfaceOp::RdRS1, Timing::new(1, None, 0))
                .set(SubInterfaceOp::RdRS2, Timing::new(1, None, 0))
                .set(SubInterfaceOp::RdPC, Timing::new(0, None, 0))
                .set(SubInterfaceOp::RdMem, Timing::new(1, None, 1))
                .set(SubInterfaceOp::WrRD, Timing::new(1, None, 0))
                .set(SubInterfaceOp::WrPC, Timing::new(1, None, 0))
                .set(SubInterfaceOp::WrMem, Timing::new(1, None, 0));
            ds
        }
        _ => return None,
    };
    // Target clock period from the base core's achievable frequency
    // (Table 4 base row) — the scheduler's chaining budget derives from it.
    ds.clock_ns = match core {
        "ORCA" => 1000.0 / 996.0,
        "Piccolo" => 1000.0 / 420.0,
        "PicoRV32" => 1000.0 / 1278.0,
        _ => 1000.0 / 701.0,
    };
    // Custom registers are accessed like the GPR file (§3.2): same window
    // as RdRS1/WrRD, write window unbounded for late commits.
    let rs = ds.entries["RdRS1"];
    let wr = ds.entries["WrRD"];
    ds.entries
        .insert("RdCustReg".into(), Timing::new(rs.earliest, rs.latest, 0));
    ds.entries
        .insert("WrCustReg.addr".into(), Timing::new(wr.earliest, None, 0));
    ds.entries
        .insert("WrCustReg.data".into(), Timing::new(wr.earliest, None, 0));
    Some(ds)
}

/// The four evaluation cores (Table 4).
pub const EVAL_CORES: [&str; 4] = ["ORCA", "Piccolo", "PicoRV32", "VexRiscv"];
