//! The Longnail HLS driver (paper §4).
//!
//! Compiles an ISAX through the full stack: frontend → LIL lowering →
//! core-aware scheduling (the *LongnailProblem*, solved with the Figure 7
//! ILP against the core's virtual datasheet) → execution-mode selection
//! (§4.3) → hardware construction and SystemVerilog emission (§4.5) →
//! SCAIE-V configuration file (§4.6).

use crate::diag::{DiagEvent, Diagnostics, Severity};
use crate::faults::{FaultKind, FaultPlan};
use crate::pipeline::{self, PipelineCache, StageCacheStats, StageVal, Tape};
use coredsl::error::{codes, Diagnostic, Span};
use coredsl::tast::TypedModule;
use coredsl::Frontend;
use eda::TechLibrary;
use ir::lil::{Graph, GraphKind, LilModule, OpKind};
use ir::{lower_always, lower_instruction, lower_state, verify_graph};
use pool::Pool;
use rtl::build::{build_graph_module, BuiltModule};
use rtl::lint::{comb_depth, lint_module};
use rtl::opt::{optimize, verify_equivalent, OptLevel};
use rtl::verilog::{emit_verilog, EmitOptions};
use scaiev::config::{Functionality, IsaxConfig, RegisterRequest, ScheduleEntry};
use scaiev::datasheet::{Timing, VirtualDatasheet};
use scaiev::iface::SubInterfaceOp;
use scaiev::modes::{select_mode, ExecutionMode};
use qcache::Digest;
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
pub struct Longnail {
    frontend: Frontend,
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
    /// Creates a compiler with the built-in prelude and default chaining
    /// budget.
    pub fn new() -> Self {
        Longnail {
            frontend: Frontend::new(),
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
    /// serve mode for per-job `opt_level` overrides. The frontend is a
    /// fresh instance (its prelude state is per-compiler); everything
    /// else carries over, so the two compilers differ only in their
    /// config fingerprints.
    pub fn with_opt_level(&self, level: OptLevel) -> Longnail {
        Longnail {
            frontend: Frontend::new(),
            chain_depth: self.chain_depth,
            work_limit: self.work_limit,
            fault_plan: self.fault_plan.clone(),
            opt_level: level,
        }
    }

    /// Crosses a stage boundary: records the stage for panic attribution
    /// and fires a planned [`FaultKind::Panic`] when this `(unit, core)`
    /// cell is targeted at this stage.
    fn stage_boundary(&self, unit: &str, core: &str, stage: &'static str) {
        set_stage(stage);
        if let Some(plan) = &self.fault_plan {
            if plan.panic_at(unit, core, stage) {
                panic!("injected fault: panic at stage `{stage}` of `{unit}` for `{core}`");
            }
        }
    }

    /// Access to the CoreDSL frontend (e.g. to register import sources).
    pub fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
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
    /// pipeline — the one path every compile takes. Every stage is looked
    /// up in (and populates) `pipe`'s content-keyed stage store, so
    /// recompiling an unchanged cell is pure cache replay and editing a
    /// source recomputes only its downstream cone. The emitted trace is
    /// byte-identical (after [`Trace::stripped`]) warm or cold.
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
        let fe_key = pipeline::frontend_key(unit, src);
        if let Some(plan) = &self.fault_plan {
            if plan.fault(unit, &datasheet.core, FaultKind::PoisonCache).is_some() {
                // Genuinely poison the slot mutex — exactly the state a
                // worker that crashed mid-compute leaves behind — then
                // fail this cell. Peers sharing the entry must recover
                // through the store's poison-tolerant locking.
                set_stage("frontend");
                pipe.store().poison("frontend", fe_key);
                return Err(FlowError::fault(
                    "frontend",
                    format!("injected fault: frontend cache entry for `{unit}` poisoned"),
                ));
            }
            if plan.fault(unit, &datasheet.core, FaultKind::ParseError).is_some() {
                // Fails before the lookup: the injected failure stays in
                // this cell, never cached for the (healthy) source.
                self.stage_boundary(unit, &datasheet.core, "frontend");
                return Err(FlowError::frontend(vec![Diagnostic::coded(
                    codes::PARSE_EXPECTED,
                    Span::new(1, 1),
                    "injected fault: forced parse error",
                )
                .in_source(unit)]));
            }
        }
        let (result, lookup) = pipe.store().get_or_compute_sized(
            "frontend",
            fe_key,
            || self.frontend_artifacts(src, unit).map(Arc::new),
            // Typed module + lowered LIL scale with the source text.
            |_| 1024 + (src.len() as u64) * 8,
        );
        // The lowered LIL rides inside the frontend artifact; mirror the
        // lookup so `cache.lower.*` stats stay observable per stage.
        pipe.store().record("lower", lookup);
        let artifacts = result?;
        let ctx = PipeCtx {
            pipe,
            fe_key,
            cfg_key: pipeline::core_config_key(
                datasheet,
                self.chain_depth,
                self.work_limit,
                &self.config_fingerprint(),
            ),
        };
        Ok(self.compile_backend(&artifacts, datasheet, lookup, &ctx))
    }

    /// Runs the core-independent half of the flow: parse, elaborate,
    /// type-check, and lower to verified LIL. Per-unit lowering problems
    /// are captured inside the artifacts and replayed into each
    /// compilation's diagnostics.
    fn frontend_artifacts(&self, src: &str, unit: &str) -> Result<FrontendArtifacts, FlowError> {
        set_stage("frontend");
        let out = self.frontend.compile_str_all(src, unit);
        if !out.errors.is_empty() {
            return Err(FlowError::frontend(out.errors));
        }
        let module = out
            .module
            .ok_or_else(|| FlowError::error("frontend", "elaboration produced no module"))?;
        set_stage("lower");
        Ok(lower_artifacts(module))
    }

    /// The core-aware backend: schedules, builds, and emits every verified
    /// LIL graph in `artifacts` against `datasheet`, replaying the cached
    /// frontend/lower telemetry so the trace is indistinguishable from a
    /// monolithic run. The cell's root span carries what the frontend
    /// `lookup` observed as `cache.frontend.*` counters; which cell wins
    /// the miss is a race under concurrency, so [`Trace::stripped`] drops
    /// them.
    fn compile_backend(
        &self,
        artifacts: &FrontendArtifacts,
        datasheet: &VirtualDatasheet,
        lookup: qcache::Lookup,
        ctx: &PipeCtx<'_>,
    ) -> CompiledIsax {
        let module = &artifacts.module;
        let lil = &artifacts.lil;
        let mut tel = Telemetry::new();
        let root = tel.start_span("compile");
        tel.attr(root, "core", &datasheet.core);
        tel.counter(root, metrics::CACHE_FRONTEND_HIT, u64::from(lookup.hit));
        tel.counter(root, metrics::CACHE_FRONTEND_MISS, u64::from(!lookup.hit));
        if lookup.waited {
            tel.counter(root, metrics::CACHE_FRONTEND_WAIT, 1);
            tel.counter(root, metrics::CACHE_FRONTEND_WAIT_NS, lookup.wait_ns);
        }
        let stats = module.stats();
        self.stage_boundary(&module.name, &datasheet.core, "frontend");
        let fe = tel.start_span("frontend");
        tel.counter(fe, metrics::FRONTEND_INSTRUCTIONS, stats.instructions as u64);
        tel.counter(fe, metrics::FRONTEND_ALWAYS, stats.always_blocks as u64);
        tel.counter(fe, metrics::FRONTEND_FUNCTIONS, stats.functions as u64);
        tel.end_span(fe);
        tel.attr(root, "isax", &module.name);
        let mut diagnostics = Diagnostics::default();
        self.stage_boundary(&module.name, &datasheet.core, "lower");
        let lower_span = tel.start_span("lower");
        diagnostics.set_trace_span(Some(lower_span.0));
        diagnostics.replay(&artifacts.lower_events);
        tel.counter(lower_span, "lower.graphs", lil.graphs.len() as u64);
        tel.end_span(lower_span);
        let spans: HashMap<String, Span> = module
            .instructions
            .iter()
            .map(|i| (i.name.clone(), i.span))
            .chain(module.always_blocks.iter().map(|a| (a.name.clone(), a.span)))
            .collect();
        let mut graphs = Vec::new();
        // Scope keys of the graphs that compiled: the config is built from
        // exactly these, so they belong in its key.
        let mut compiled_scopes = Vec::new();
        for (gi, graph) in lil.graphs.iter().enumerate() {
            let unit_span = tel.start_unit_span("unit", Some(&graph.name));
            diagnostics.set_trace_span(Some(unit_span.0));
            // Cell-level fault injection fires once per compilation, on
            // the first unit, so a faulted cell degrades to exactly one
            // diagnostic.
            let inject = gi == 0;
            let scope = pipeline::graph_scope_key(&ctx.fe_key, gi, &graph.name);
            match self.compile_graph(
                graph,
                scope,
                lil,
                datasheet,
                &mut diagnostics,
                &mut tel,
                unit_span,
                inject,
                ctx,
            ) {
                Ok(cg) => {
                    graphs.push(cg);
                    compiled_scopes.push(scope);
                }
                Err(e) => {
                    let span = spans.get(&graph.name).copied();
                    // The netlist lint guards compiler-constructed hardware;
                    // its findings are internal faults, not user errors.
                    if e.severity == Severity::Fault || e.stage == "netlist" {
                        diagnostics.fault(e.stage, Some(&graph.name), span, e.message);
                    } else {
                        diagnostics.error(e.stage, Some(&graph.name), span, e.message);
                    }
                }
            }
            // Also closes any stage span an error path left open.
            tel.end_span(unit_span);
        }
        diagnostics.set_trace_span(None);
        self.stage_boundary(&module.name, &datasheet.core, "config");
        let config_span = tel.start_span("config");
        let config_key = {
            let mut parts = vec![&ctx.fe_key, &ctx.cfg_key];
            parts.extend(&compiled_scopes);
            pipeline::derive("config", &parts)
        };
        let cval = run_stage(
            ctx,
            "config",
            config_key,
            || config_stage(lil, &graphs),
            |c| (c.functionalities.len() as u64 + 1) * 256,
        );
        cval.tape
            .replay(&mut tel, config_span, config_span, &mut diagnostics, &lil.name);
        let config = cval
            .outcome
            .as_ref()
            .expect("config stage is infallible")
            .clone();
        tel.end_span(config_span);
        // Errors that were contained to their unit instead of aborting
        // the compilation. Omitted (not zero) on clean runs so a clean
        // trace stays byte-identical to pre-degradation baselines.
        let recovered = diagnostics.of(Severity::Error).count() as u64;
        if recovered > 0 {
            tel.counter(root, metrics::DEGRADE_ERRORS_RECOVERED, recovered);
        }
        tel.end_span(root);
        // Mirror the diagnostics into the trace, each linked to the span
        // that was open when it fired.
        for e in &diagnostics.events {
            tel.diag(
                e.trace_span.map(SpanId),
                &e.severity.to_string(),
                e.stage,
                e.unit.as_deref(),
                &e.message,
            );
        }
        CompiledIsax {
            name: lil.name.clone(),
            core: datasheet.core.clone(),
            module: module.clone(),
            lil: lil.clone(),
            graphs,
            config,
            diagnostics,
            trace: tel.finish(),
        }
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
        let before: HashMap<String, qcache::StageStats> = pipe
            .stage_stats()
            .into_iter()
            .collect();
        let pool = Pool::new(jobs);
        let (outcomes, pool_stats) = pool.run_isolated_with_stats(cells.len(), |k| {
            let cell = &cells[k];
            // First containment layer: a panic anywhere in this cell's
            // flow becomes a Fault-severity outcome attributed to the
            // stage boundary the thread last crossed, and every other
            // cell completes exactly as in a clean run.
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
                // Second containment layer: the pool's own isolation
                // catches anything that escaped the handler above.
                outcome: outcome.unwrap_or_else(|p| {
                    Err(FlowError::fault(
                        "matrix",
                        format!("compiler panicked: {}", p.message),
                    ))
                }),
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

    #[allow(clippy::too_many_arguments)]
    fn compile_graph(
        &self,
        graph: &Graph,
        scope: Digest,
        lil: &LilModule,
        datasheet: &VirtualDatasheet,
        diagnostics: &mut Diagnostics,
        tel: &mut Telemetry,
        unit_span: SpanId,
        inject: bool,
        ctx: &PipeCtx<'_>,
    ) -> Result<CompiledGraph, FlowError> {
        let is_always = graph.kind == GraphKind::Always;
        // Stage keys chain Merkle-style from this graph's scope key: an
        // upstream edit flips every key downstream of it and no other.
        let problem_key = pipeline::derive("problem", &[&scope, &ctx.cfg_key]);
        let solve_key = pipeline::derive("solve", &[&problem_key]);
        let modes_key = pipeline::derive("modes", &[&solve_key]);
        let rtl_key = pipeline::derive("rtl", &[&solve_key]);
        let opt_key = pipeline::derive("opt", &[&rtl_key]);
        // The Verilog chains from whichever module actually feeds it:
        // the optimized one above -O0, the raw build otherwise.
        let verilog_key = if self.opt_level == OptLevel::O0 {
            pipeline::derive("verilog", &[&rtl_key])
        } else {
            pipeline::derive("verilog", &[&opt_key])
        };

        // --- LongnailProblem construction ---
        self.stage_boundary(&lil.name, &datasheet.core, "problem");
        let problem_span = tel.start_span("problem");
        let pval = run_stage(
            ctx,
            "problem",
            problem_key,
            || self.problem_stage(graph, is_always, datasheet),
            |p| (p.op_ids.len() as u64 + 1) * 192,
        );
        pval.tape
            .replay(tel, problem_span, unit_span, diagnostics, &graph.name);
        let pout = pval.outcome.as_ref().map_err(Clone::clone)?;
        tel.end_span(problem_span);

        // --- ILP solve (resilient facade) ---
        self.stage_boundary(&lil.name, &datasheet.core, "solve");
        if inject {
            if let Some(plan) = &self.fault_plan {
                if plan
                    .fault(&lil.name, &datasheet.core, FaultKind::BudgetExhaustion)
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
        let solve_span = tel.start_span("solve");
        let sval = run_stage(
            ctx,
            "solve",
            solve_key,
            || self.solve_stage(pout, graph),
            |s| (s.schedule.start_time.len() as u64 + 1) * 16,
        );
        sval.tape
            .replay(tel, solve_span, unit_span, diagnostics, &graph.name);
        let sout = sval.outcome.as_ref().map_err(Clone::clone)?;
        tel.end_span(solve_span);

        // --- Per-write-interface mode selection (§4.3) and overall mode ---
        self.stage_boundary(&lil.name, &datasheet.core, "modes");
        let modes_span = tel.start_span("modes");
        let mval = run_stage(
            ctx,
            "modes",
            modes_key,
            || modes_stage(graph, is_always, datasheet, sout),
            |_| 64,
        );
        mval.tape
            .replay(tel, modes_span, unit_span, diagnostics, &graph.name);
        let mout = mval.outcome.as_ref().map_err(Clone::clone)?;
        tel.end_span(modes_span);

        // --- Hardware construction and lint ---
        self.stage_boundary(&lil.name, &datasheet.core, "rtl");
        let rtl_span = tel.start_span("rtl");
        let rval = run_stage(
            ctx,
            "rtl",
            rtl_key,
            || rtl_stage(graph, lil, datasheet, sout),
            |b| (b.module.nets.len() as u64 + 1) * 160,
        );
        rval.tape
            .replay(tel, rtl_span, unit_span, diagnostics, &graph.name);
        let built = rval.outcome.as_ref().map_err(Clone::clone)?;
        tel.end_span(rtl_span);

        // --- Oracle-gated netlist optimization (skipped entirely at -O0,
        // so the default flow — spans, traces, artifacts — is untouched).
        // The stage *boundary* is crossed regardless: it only updates the
        // panic-attribution stage and fires planned faults, so chaos plans
        // targeting `opt` behave identically at every level. ---
        self.stage_boundary(&lil.name, &datasheet.core, "opt");
        let oval;
        let built = if self.opt_level == OptLevel::O0 {
            built
        } else {
            let opt_span = tel.start_span("opt");
            oval = run_stage(
                ctx,
                "opt",
                opt_key,
                || opt_stage(built, self.opt_level),
                |b| (b.module.nets.len() as u64 + 1) * 160,
            );
            oval.tape
                .replay(tel, opt_span, unit_span, diagnostics, &graph.name);
            let optimized = oval.outcome.as_ref().map_err(Clone::clone)?;
            tel.end_span(opt_span);
            optimized
        };

        // --- SystemVerilog emission ---
        self.stage_boundary(&lil.name, &datasheet.core, "verilog");
        let verilog_span = tel.start_span("verilog");
        let vval = run_stage(
            ctx,
            "verilog",
            verilog_key,
            || verilog_stage(built),
            |v| v.len() as u64,
        );
        vval.tape
            .replay(tel, verilog_span, unit_span, diagnostics, &graph.name);
        let verilog = vval.outcome.as_ref().map_err(Clone::clone)?;
        tel.end_span(verilog_span);

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
            built: built.clone(),
            verilog: verilog.clone(),
            mode: mout.mode,
            result_stage: mout.result_stage,
            spawn_stage: mout.spawn_stage,
        })
    }

    /// Stage `problem`: builds the [`LongnailProblem`] for one graph.
    fn problem_stage(
        &self,
        graph: &Graph,
        is_always: bool,
        datasheet: &VirtualDatasheet,
    ) -> StageVal<ProblemOut> {
        let mut tape = Tape::default();
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
                    let ot = match self.operator_type(&op.kind, is_always, datasheet) {
                        Ok(ot) => ot,
                        Err(e) => return StageVal { outcome: Err(e), tape },
                    };
                    let t = problem.add_operator_type(ot);
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
        tape.counter(metrics::PROBLEM_IFACE_OPS, graph.interface_op_count() as u64);
        tape.counter(metrics::PROBLEM_DEPS, graph.edge_count() as u64);
        tape.gauge(metrics::SCHED_CHAIN_LIMIT, chain_limit);
        StageVal {
            outcome: Ok(ProblemOut { problem, op_ids }),
            tape,
        }
    }

    /// Stage `solve`: runs the resilient scheduler and remaps the result
    /// to graph-indexed start times.
    fn solve_stage(&self, pout: &ProblemOut, graph: &Graph) -> StageVal<SolveOut> {
        let mut tape = Tape::default();
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
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                return StageVal {
                    outcome: Err(FlowError::error("schedule", e.to_string())),
                    tape,
                }
            }
        };
        if let Some(deg) = &outcome.degradation {
            tape.counter(metrics::SCHED_FALLBACK, 1);
            if matches!(deg.reason, DegradationReason::BudgetExhausted(_)) {
                tape.counter(metrics::SOLVER_EXHAUSTED, 1);
            }
            tape.warn("schedule", deg.to_string());
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
        tape.gauge(metrics::SCHED_CHAIN_DEPTH, schedule.max_start_time_in_cycle());
        let start_time_in_cycle = (0..graph.len())
            .map(|i| schedule.start_time_in_cycle[pout.op_ids[i].0])
            .collect();
        StageVal {
            outcome: Ok(SolveOut {
                schedule: Schedule {
                    start_time,
                    start_time_in_cycle,
                },
                max_stage_sched,
            }),
            tape,
        }
    }

    /// Builds the scheduling operator type for one LIL operation kind.
    fn operator_type(
        &self,
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
            OpKind::RomRead(_) => UNIFORM_DELAY,
            _ => UNIFORM_DELAY,
        };
        Ok(OperatorType::combinational(&name, delay))
    }
}

/// Stage-cache context of one cell compilation: the shared store plus
/// the two roots every stage key chains from.
struct PipeCtx<'a> {
    pipe: &'a PipelineCache,
    /// Content-address of the frontend artifact this cell consumes.
    fe_key: Digest,
    /// Content-address of the core/options configuration.
    cfg_key: Digest,
}

/// Runs one backend stage through the cell's stage store: a hit replays
/// the stored value, a miss runs `compute` and stores its result. The
/// value is shared, not copied: callers borrow it and clone only what
/// they keep.
fn run_stage<T, F>(
    ctx: &PipeCtx<'_>,
    stage: &'static str,
    key: Digest,
    compute: F,
    payload_bytes: fn(&T) -> u64,
) -> Arc<StageVal<T>>
where
    T: Send + Sync + 'static,
    F: FnOnce() -> StageVal<T>,
{
    ctx.pipe
        .store()
        .get_or_compute_sized(
            stage,
            key,
            || Arc::new(compute()),
            |v| stage_bytes(v, payload_bytes),
        )
        .0
}

/// Rough heap footprint of one cached stage value, charged against the
/// byte-accounted in-memory LRU (`--cache-mem-bytes`). Coarse per-stage
/// payload estimates plus a fixed slot/tape overhead — the cap is a
/// budget, not an allocator audit.
fn stage_bytes<T>(v: &StageVal<T>, payload: fn(&T) -> u64) -> u64 {
    const BASE: u64 = 512;
    match &v.outcome {
        Ok(t) => BASE + payload(t),
        Err(e) => BASE + e.message.len() as u64,
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

/// Stage `modes`: per-write-interface mode selection (§4.3) and the
/// overall execution mode.
fn modes_stage(
    graph: &Graph,
    is_always: bool,
    datasheet: &VirtualDatasheet,
    sout: &SolveOut,
) -> StageVal<ModesOut> {
    let mut tape = Tape::default();
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
            let Some(timing) = datasheet.timing(&iface) else {
                return StageVal {
                    outcome: Err(FlowError::error(
                        "modes",
                        format!("datasheet lacks {} timing", iface.key()),
                    )),
                    tape,
                };
            };
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
    StageVal {
        outcome: Ok(ModesOut {
            mode,
            result_stage,
            spawn_stage,
        }),
        tape,
    }
}

/// Stage `rtl`: hardware construction and the netlist lint gate.
fn rtl_stage(
    graph: &Graph,
    lil: &LilModule,
    datasheet: &VirtualDatasheet,
    sout: &SolveOut,
) -> StageVal<BuiltModule> {
    let mut tape = Tape::default();
    let ds = datasheet.clone();
    let read_latency = move |kind: &OpKind| -> u32 {
        lil_iface_op(kind)
            .and_then(|op| ds.timing(&op))
            .map(|t| t.latency)
            .unwrap_or(0)
    };
    let built = build_graph_module(graph, lil, &sout.schedule.start_time, &read_latency);
    // Netlist lint: last gate before SystemVerilog leaves the compiler.
    if let Err(issues) = lint_module(&built.module) {
        return StageVal {
            outcome: Err(FlowError::fault(
                "netlist",
                issues
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
            )),
            tape,
        };
    }
    tape.counter(metrics::RTL_CELLS, built.module.nets.len() as u64);
    tape.counter(metrics::RTL_REG_BITS, built.module.register_bits());
    tape.counter(metrics::RTL_COMB_DEPTH, u64::from(comb_depth(&built.module)));
    let estimate = eda::estimate_module(&TechLibrary::new(), &built.module);
    tape.gauge(metrics::EDA_AREA_UM2, estimate.area.total());
    tape.gauge(metrics::EDA_CRIT_NS, estimate.timing.critical_path_ns);
    StageVal {
        outcome: Ok(built),
        tape,
    }
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
fn opt_stage(built: &BuiltModule, level: OptLevel) -> StageVal<BuiltModule> {
    let mut tape = Tape::default();
    let opts = EmitOptions::default();
    let fall_back = |mut tape: Tape, why: String| {
        tape.warn(
            "opt",
            format!("optimization disabled for this unit: {why}"),
        );
        tape.counter(metrics::OPT_FALLBACK, 1);
        StageVal {
            outcome: Ok(built.clone()),
            tape,
        }
    };
    let (module, report) = match optimize(&built.module, level, &opts) {
        Ok(out) => out,
        // A structurally invalid rewrite never leaves the pass manager;
        // emit the known-good module instead.
        Err(e) => return fall_back(tape, e),
    };
    let gate = lint_module(&module)
        .map_err(|issues| {
            format!(
                "optimized netlist failed lint: {}",
                issues
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        })
        .and_then(|()| {
            verify_equivalent(&built.module, &module, &opts, OPT_VERIFY_CYCLES)
                .map_err(|e| format!("optimized netlist failed the lockstep oracle: {e}"))
        });
    if let Err(why) = gate {
        return fall_back(tape, why);
    }
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
    StageVal {
        outcome: Ok(out),
        tape,
    }
}

/// Stage `verilog`: SystemVerilog emission.
fn verilog_stage(built: &BuiltModule) -> StageVal<String> {
    let mut tape = Tape::default();
    let verilog = emit_verilog(&built.module);
    tape.counter(metrics::VERILOG_BYTES, verilog.len() as u64);
    StageVal {
        outcome: Ok(verilog),
        tape,
    }
}

/// Stage `config`: the Figure 8 SCAIE-V configuration file.
fn config_stage(lil: &LilModule, graphs: &[CompiledGraph]) -> StageVal<IsaxConfig> {
    let mut tape = Tape::default();
    let config = build_config(lil, graphs);
    tape.counter(metrics::CONFIG_ENTRIES, config.schedule_entry_count() as u64);
    tape.counter(metrics::CONFIG_REGISTERS, config.registers.len() as u64);
    StageVal {
        outcome: Ok(config),
        tape,
    }
}

/// The core-independent half of a compilation: the elaborated typed
/// module plus its verified LIL lowering and any per-unit diagnostics the
/// lowering raised. Produced once per `(source, unit)` pair and shared —
/// via the `frontend` stage of the [`PipelineCache`] — across every core
/// the ISAX is compiled for.
#[derive(Debug, Clone)]
struct FrontendArtifacts {
    /// The elaborated, type-checked module.
    module: TypedModule,
    /// The lowered LIL module; only graphs that passed the stage verifier
    /// are present.
    lil: LilModule,
    /// Diagnostics raised during lowering/verification. Core-independent,
    /// so they are replayed verbatim into every per-core compilation
    /// (re-stamped with that compilation's trace span).
    lower_events: Vec<DiagEvent>,
}

/// Lowers a type-checked module to verified LIL, capturing per-unit
/// problems as replayable events instead of aborting.
fn lower_artifacts(module: TypedModule) -> FrontendArtifacts {
    let mut diagnostics = Diagnostics::default();
    let mut lil = lower_state(&module);
    let spans: HashMap<String, Span> = module
        .instructions
        .iter()
        .map(|i| (i.name.clone(), i.span))
        .chain(module.always_blocks.iter().map(|a| (a.name.clone(), a.span)))
        .collect();
    let lowered = module
        .instructions
        .iter()
        .map(|i| lower_instruction(&module, i))
        .chain(module.always_blocks.iter().map(|a| lower_always(&module, a)));
    for result in lowered {
        let graph = match result {
            Ok(g) => g,
            Err(e) => {
                diagnostics.error(
                    "lower",
                    Some(&e.unit),
                    spans.get(&e.unit).copied(),
                    e.message,
                );
                continue;
            }
        };
        // Stage verifier: a graph the lowering itself produced must be
        // well-formed; a violation is a compiler bug, contained to this
        // unit.
        if let Err(errs) = verify_graph(&graph, &lil) {
            let msg = errs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            diagnostics.fault("verify", Some(&graph.name), spans.get(&graph.name).copied(), msg);
            continue;
        }
        lil.graphs.push(graph);
    }
    FrontendArtifacts {
        module,
        lil,
        lower_events: diagnostics.events,
    }
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
