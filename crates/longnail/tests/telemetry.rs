//! End-to-end telemetry integration tests: the compile trace covers every
//! pipeline stage, carries non-trivial solver counters, survives a JSONL
//! round trip, and is deterministic modulo wall-clock timings.

use longnail::driver::builtin_datasheet;
use longnail::{isax_lib, Longnail, Severity};
use telemetry::{metrics, EventKind, Trace, STAGES};

fn compile_dotprod() -> longnail::CompiledIsax {
    let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
    let ds = builtin_datasheet("ORCA").unwrap();
    Longnail::new().compile(&src, &unit, &ds).unwrap()
}

#[test]
fn trace_covers_every_pipeline_stage_exactly_once() {
    let compiled = compile_dotprod();
    let trace = &compiled.trace;
    // dotprod has a single instruction, so each per-unit stage appears
    // exactly once, as do the whole-ISAX stages — except `opt`, which
    // only exists at --opt-level >= 1 and is absent from this -O0 trace.
    for stage in STAGES {
        let want = if stage == "opt" { 0 } else { 1 };
        assert_eq!(
            trace.span_count(stage),
            want,
            "stage `{stage}` should appear exactly {want} time(s)"
        );
    }
    assert_eq!(trace.span_count("unit"), 1);
    assert_eq!(trace.span_count("compile"), 1);

    // At -O2 the opt stage joins the trace, exactly once per unit.
    let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
    let ds = builtin_datasheet("ORCA").unwrap();
    let mut ln = Longnail::new();
    ln.opt_level = longnail::OptLevel::O2;
    let optimized = ln.compile(&src, &unit, &ds).unwrap();
    for stage in STAGES {
        assert_eq!(
            optimized.trace.span_count(stage),
            1,
            "-O2 stage `{stage}` should appear exactly once"
        );
    }
}

#[test]
fn trace_records_solver_and_hardware_counters() {
    let compiled = compile_dotprod();
    let trace = &compiled.trace;
    assert!(trace.counter_total(metrics::SOLVER_AUGMENTS) > 0, "no augmenting paths");
    assert!(trace.counter_total(metrics::SOLVER_ROUNDS) > 0, "no rounds");
    assert!(trace.counter_total(metrics::SOLVER_WORK_USED) > 0);
    assert!(trace.counter_total(metrics::SOLVER_WORK_LIMIT) > 0);
    assert!(trace.counter_total(metrics::PROBLEM_OPS) > 0);
    assert!(trace.counter_total(metrics::PROBLEM_DEPS) > 0);
    assert!(trace.counter_total(metrics::RTL_CELLS) > 0);
    assert!(trace.counter_total(metrics::VERILOG_BYTES) > 0);
    assert!(trace.counter_total(metrics::SCHED_II) >= 1);
    assert_eq!(trace.counter_total(metrics::SCHED_FALLBACK), 0);
    let areas = trace.gauges(metrics::EDA_AREA_UM2);
    assert_eq!(areas.len(), 1);
    assert!(areas[0] > 0.0);
}

#[test]
fn trace_is_deterministic_modulo_timings() {
    let a = compile_dotprod().trace;
    let b = compile_dotprod().trace;
    assert_eq!(a.stripped(), b.stripped());
}

#[test]
fn trace_round_trips_through_jsonl() {
    let trace = compile_dotprod().trace;
    let text = trace.to_jsonl();
    let parsed = Trace::from_jsonl(&text).unwrap();
    assert_eq!(parsed, trace);
}

#[test]
fn budget_exhaustion_emits_counter_and_warning_diagnostic() {
    let (unit, src) = isax_lib::isax_source("sqrt_tightly").unwrap();
    let ds = builtin_datasheet("ORCA").unwrap();
    let mut ln = Longnail::new();
    ln.work_limit = 64; // far below what the sqrt ILP needs
    let compiled = ln.compile(&src, &unit, &ds).unwrap();
    let trace = &compiled.trace;
    assert!(trace.counter_total(metrics::SCHED_FALLBACK) >= 1);
    assert!(trace.counter_total(metrics::SOLVER_EXHAUSTED) >= 1);
    // The resilient fallback still reports a warning diagnostic, and the
    // diagnostic links back to an open span of the trace.
    let warning = compiled
        .diagnostics
        .of(Severity::Warning)
        .next()
        .expect("degradation warning");
    assert_eq!(warning.stage, "schedule");
    let span = warning.trace_span.expect("warning links to a trace span");
    assert!(
        trace.span_starts().any(|(id, ..)| id.0 == span),
        "linked span {span} not found in trace"
    );
    // The diagnostic is mirrored into the trace event stream.
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::Diag { severity, .. } if severity == "warning")));
}
