//! Matrix-level chaos sweep: one injected fault per cell, 32 runs.
//!
//! For every cell of the 8×4 evaluation matrix, a [`FaultPlan`] injects
//! exactly one fault — rotating through contained panics (at rotating
//! stage boundaries), forced parse errors, solver-budget exhaustion, and
//! poisoned frontend-cache entries — and the run must degrade gracefully:
//! the faulted cell yields exactly one Error/Fault-severity diagnostic,
//! and the *other 31 cells* produce SystemVerilog and SCAIE-V YAML
//! byte-identical to a clean baseline run. Poisoned-cache cells double as
//! a recovery proof: sibling cells of the same ISAX share the poisoned
//! entry and must still compile bit-exactly.
//!
//! The baseline and all 32 faulted matrices share one [`PipelineCache`]:
//! fault-targeted cells use the stage store like any other cell, so the
//! sweep also proves that an injected fault fires on a warm store and
//! never parks a broken artifact there — a clean recompile afterwards is
//! pure replay, byte-identical to the baseline. A second test runs the
//! faulted matrix first, on a cold store, so a degraded artifact stored
//! under a healthy key would reach the clean run that follows.

use longnail::driver::{builtin_datasheet, eval_datasheets, MatrixResult};
use longnail::isax_lib::all_isaxes;
use longnail::{
    CompiledIsax, FaultKind, FaultPlan, Longnail, MatrixCell, PipelineCache, Severity,
};

const JOBS: usize = 4;

/// The comparable artifacts of one cell: per-unit SystemVerilog plus the
/// SCAIE-V configuration YAML. `None` for failed cells.
fn cell_artifacts(m: &MatrixResult, k: usize) -> Option<(Vec<(String, String)>, String)> {
    m.entries[k].outcome.as_ref().ok().map(|c| {
        let svs = c
            .graphs
            .iter()
            .map(|g| (g.name.clone(), g.verilog.clone()))
            .collect();
        (svs, c.config.to_yaml())
    })
}

fn graph_names(c: &CompiledIsax) -> Vec<&str> {
    c.graphs.iter().map(|g| g.name.as_str()).collect()
}

fn config_names(c: &CompiledIsax) -> Vec<&str> {
    c.config
        .functionalities
        .iter()
        .map(|f| f.name.as_str())
        .collect()
}

#[test]
fn one_injected_fault_per_cell_leaves_the_other_cells_bit_exact() {
    // Contained panics would otherwise spam stderr via the default hook;
    // silence it for the sweep and restore afterwards.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(sweep);
    std::panic::set_hook(default_hook);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

fn sweep() {
    let isaxes = all_isaxes();
    let cores = eval_datasheets();
    let cells = MatrixCell::grid(&isaxes, &cores);
    let pipe = PipelineCache::new();
    let baseline = Longnail::new().compile_cells(&cells, JOBS, &pipe);
    assert_eq!(baseline.entries.len(), isaxes.len() * cores.len());
    assert_eq!(baseline.cell_faults, 0);
    assert_eq!(baseline.errors_recovered, 0);
    for e in &baseline.entries {
        assert!(e.outcome.is_ok(), "baseline {}×{} failed", e.isax, e.core);
    }
    let kinds = [
        FaultKind::Panic,
        FaultKind::ParseError,
        FaultKind::BudgetExhaustion,
        FaultKind::PoisonCache,
    ];
    for k in 0..baseline.entries.len() {
        let unit = baseline.entries[k].unit.clone();
        let core = baseline.entries[k].core.clone();
        let kind = kinds[k % kinds.len()];
        // Panics rotate across all eight stage boundaries over the sweep;
        // the other kinds have a fixed stage.
        let stage = match kind {
            FaultKind::Panic => telemetry::STAGES[k % telemetry::STAGES.len()],
            FaultKind::ParseError | FaultKind::PoisonCache => "frontend",
            FaultKind::BudgetExhaustion => "solve",
        };
        let mut ln = Longnail::new();
        ln.fault_plan = Some(FaultPlan::single(&unit, &core, kind, stage).unwrap());
        let m = ln.compile_cells(&cells, JOBS, &pipe);
        let ctx = format!("cell {k} ({unit}×{core}, {kind}@{stage})");

        // The faulted cell degrades to exactly one Error/Fault diagnostic.
        match (&m.entries[k].outcome, kind) {
            (Err(f), FaultKind::Panic) => {
                assert_eq!(f.severity, Severity::Fault, "{ctx}");
                assert_eq!(f.stage, stage, "{ctx}: panic attributed to wrong stage");
                assert!(f.message.contains("injected fault"), "{ctx}: {}", f.message);
                assert_eq!(m.cell_faults, 1, "{ctx}");
            }
            (Err(f), FaultKind::PoisonCache) => {
                assert_eq!(f.severity, Severity::Fault, "{ctx}");
                assert_eq!(f.stage, "frontend", "{ctx}");
                assert_eq!(m.cell_faults, 1, "{ctx}");
            }
            (Err(f), FaultKind::ParseError) => {
                assert_eq!(f.severity, Severity::Error, "{ctx}");
                assert_eq!(f.frontend_errors.len(), 1, "{ctx}");
                assert_eq!(f.frontend_errors[0].code, "LN0101", "{ctx}");
                assert_eq!(m.cell_faults, 0, "{ctx}");
                assert!(m.errors_recovered >= 1, "{ctx}");
            }
            (Ok(c), FaultKind::BudgetExhaustion) => {
                let bad: Vec<_> = c
                    .diagnostics
                    .events
                    .iter()
                    .filter(|e| e.severity >= Severity::Error)
                    .collect();
                assert_eq!(bad.len(), 1, "{ctx}: {:?}", c.diagnostics.events);
                assert_eq!(bad[0].stage, "solve", "{ctx}");
                assert_eq!(bad[0].severity, Severity::Error, "{ctx}");
                assert_eq!(m.cell_faults, 0, "{ctx}");
                assert!(m.errors_recovered >= 1, "{ctx}");
                // Even on a warm store the config lists only the units
                // that have hardware.
                assert_eq!(config_names(c), graph_names(c), "{ctx}");
            }
            (outcome, _) => panic!(
                "{ctx}: unexpected outcome {:?}",
                outcome.as_ref().map(|c| &c.name)
            ),
        }

        // Every other cell is byte-identical to the clean baseline.
        for j in 0..m.entries.len() {
            if j == k {
                continue;
            }
            let want = cell_artifacts(&baseline, j).expect("baseline cell compiled");
            let got = cell_artifacts(&m, j).unwrap_or_else(|| {
                panic!(
                    "{ctx}: innocent cell {}×{} failed: {:?}",
                    m.entries[j].isax,
                    m.entries[j].core,
                    m.entries[j].outcome.as_ref().err()
                )
            });
            assert_eq!(got, want, "{ctx}: cell {j} artifacts diverged");
        }
    }

    // The faulted runs left nothing behind: a clean recompile over the
    // same store is pure replay and byte-identical to the baseline.
    let replay = Longnail::new().compile_cells(&cells, JOBS, &pipe);
    for s in &replay.stage_stats {
        assert_eq!(s.misses, 0, "clean replay recomputed stage `{}`", s.stage);
    }
    assert!(
        replay.stage("verilog").hits > 0,
        "clean replay saw no lookups"
    );
    for (k, e) in replay.entries.iter().enumerate() {
        let cell = format!("{}×{}", e.isax, e.core);
        assert_eq!(
            cell_artifacts(&replay, k),
            cell_artifacts(&baseline, k),
            "{cell}"
        );
        let stripped = |m: &MatrixResult| {
            m.entries[k]
                .outcome
                .as_ref()
                .ok()
                .map(|c| c.trace.stripped().to_jsonl())
        };
        assert_eq!(
            stripped(&replay),
            stripped(&baseline),
            "{cell} stripped trace"
        );
    }
}

#[test]
fn a_faulted_matrix_on_a_cold_store_leaves_no_degraded_artifacts() {
    // Every cell exhausts its solver budget on its first unit, and the
    // faulted run fills the store first: anything it parked under a
    // healthy key would be served to the clean run that follows.
    let isaxes = all_isaxes();
    let cores = eval_datasheets();
    let cells = MatrixCell::grid(&isaxes, &cores);
    let baseline = Longnail::new().compile_cells(&cells, JOBS, &PipelineCache::new());
    let plan: String = baseline
        .entries
        .iter()
        .map(|e| format!("{}@{} budget-exhaustion\n", e.unit, e.core))
        .collect();
    let mut faulted = Longnail::new();
    faulted.fault_plan = Some(FaultPlan::parse(&plan).unwrap());
    let pipe = PipelineCache::new();
    let m = faulted.compile_cells(&cells, JOBS, &pipe);
    for e in &m.entries {
        let c = e.outcome.as_ref().expect("budget exhaustion degrades");
        assert_eq!(config_names(c), graph_names(c), "{}×{}", e.isax, e.core);
    }
    let clean = Longnail::new().compile_cells(&cells, JOBS, &pipe);
    for k in 0..cells.len() {
        assert_eq!(
            cell_artifacts(&clean, k),
            cell_artifacts(&baseline, k),
            "cell {k} served a degraded artifact"
        );
    }
}

#[test]
fn a_source_with_independent_errors_reports_them_all_in_one_compile() {
    let src = r#"
import "RV32I.core_desc";
InstructionSet multi extends RV32I {
    instructions {
        lossy {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
            behavior: { X[rd] = X[rs1] + X[rs2]; }
        }
        unknown {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd1 :: rd[4:0] :: 7'b0001011;
            behavior: { X[rd] = (unsigned<32>) nosuch_name; }
        }
        badcall {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd2 :: rd[4:0] :: 7'b0001011;
            behavior: { X[rd] = nosuch_fn(X[rs1]); }
        }
    }
}
"#;
    let ds = builtin_datasheet("ORCA").unwrap();
    let err = Longnail::new().compile(src, "multi", &ds).unwrap_err();
    assert_eq!(err.stage, "frontend");
    assert_eq!(err.severity, Severity::Error);
    assert!(
        err.frontend_errors.len() >= 3,
        "want all three independent errors, got {:?}",
        err.frontend_errors
    );
    for d in &err.frontend_errors {
        assert!(
            d.code.len() == 6 && d.code.starts_with("LN"),
            "uncoded diagnostic: {d}"
        );
    }
    let codes: Vec<&str> = err.frontend_errors.iter().map(|d| d.code).collect();
    for want in [
        coredsl::codes::SEMA_LOSSY_ASSIGN,
        coredsl::codes::SEMA_UNKNOWN_NAME,
        coredsl::codes::SEMA_BAD_CALL,
    ] {
        assert!(codes.contains(&want), "missing {want} in {codes:?}");
    }
    // The summary message mentions the full count, not just the first.
    assert!(err.message.contains("more error(s)"), "{}", err.message);
}

#[test]
fn fault_plans_fire_on_the_single_compile_path() {
    let (unit, src) = longnail::isax_lib::isax_source("dotprod").unwrap();
    let ds = builtin_datasheet("ORCA").unwrap();
    let compile = |kind| {
        let mut ln = Longnail::new();
        ln.fault_plan = Some(FaultPlan::parse(&format!("{unit}@ORCA {kind}")).unwrap());
        ln.compile(&src, &unit, &ds).unwrap_err()
    };
    let err = compile(FaultKind::ParseError);
    assert_eq!(err.severity, Severity::Error);
    assert_eq!(err.frontend_errors.len(), 1);
    assert_eq!(err.frontend_errors[0].code, "LN0101");
    let err = compile(FaultKind::PoisonCache);
    assert_eq!(err.severity, Severity::Fault);
    assert_eq!(err.stage, "frontend");
}
