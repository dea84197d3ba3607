//! Differential X-propagation oracle tests: the full evaluation matrix is
//! clean, and a deliberately reintroduced unguarded division is caught by
//! both the static lint and the dynamic oracle.

use longnail::driver::{builtin_datasheet, eval_datasheets};
use longnail::{
    isax_lib, xcheck_compiled, xcheck_compiled_with, Longnail, MatrixCell, PipelineCache,
    XCheckOptions,
};
use rtl::EmitOptions;

#[test]
fn full_evaluation_matrix_is_xcheck_clean() {
    let ln = Longnail::new();
    let cells = MatrixCell::grid(&isax_lib::all_isaxes(), &eval_datasheets());
    let matrix = ln.compile_cells(&cells, 4, &PipelineCache::new());
    let mut cells = 0;
    for (entry, compiled) in matrix.compiled() {
        let report = xcheck_compiled(compiled);
        assert!(
            report.is_clean(),
            "{}×{}: {}\n{}",
            entry.isax,
            entry.core,
            report.summary(),
            report.problems().join("\n")
        );
        // Telemetry carries the per-unit counters.
        let jsonl = report.trace.to_jsonl();
        assert!(jsonl.contains("xcheck.cycles"), "{jsonl}");
        assert!(jsonl.contains("xcheck.mismatches"));
        cells += 1;
    }
    assert_eq!(cells, 32, "all 8 ISAXes x 4 cores must compile");
}

/// An ISAX exercising every division flavor, for the regression below.
const DIVIDER: &str = r#"
import "RV32I.core_desc";
InstructionSet X_DIV extends RV32I {
  instructions {
    xdivu {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b1011011;
      behavior: {
        unsigned<32> q = X[rs1] / X[rs2];
        unsigned<32> r = X[rs1] % X[rs2];
        X[rd] = q ^ r;
      }
    }
  }
}
"#;

#[test]
fn reintroduced_unguarded_division_is_caught_by_lint_and_oracle() {
    let ln = Longnail::new();
    let ds = builtin_datasheet("ORCA").unwrap();
    let compiled = ln.compile(DIVIDER, "X_DIV", &ds).unwrap();
    assert!(
        compiled
            .graphs
            .iter()
            .any(|g| g.verilog.contains("== 32'd0) ?")),
        "emitted SystemVerilog must carry the zero-divisor guard"
    );

    // With the (default) guarded emission the unit is clean: the guard
    // makes `/`/`%` total with exactly the interpreter's convention.
    let report = xcheck_compiled(&compiled);
    assert!(report.is_clean(), "{}", report.problems().join("\n"));

    // Simulate an emitter regression that drops the guard: the static
    // lint flags every unguarded DivU/RemU, and the dynamic oracle sees X
    // manufactured from fully-known inputs escape to the outputs on the
    // zero-divisor stimulus cycles.
    let raw = XCheckOptions {
        emit: EmitOptions {
            guard_division: false,
            ..EmitOptions::default()
        },
        ..XCheckOptions::default()
    };
    let report = xcheck_compiled_with(&compiled, &raw);
    assert!(!report.is_clean());
    assert!(
        report.lint_findings() >= 2,
        "expected DivU and RemU hazards, got {}",
        report.problems().join("\n")
    );
    assert!(
        report.x_output_bits() > 0,
        "oracle must observe X escaping to outputs: {}",
        report.summary()
    );
    // X-pessimism never fabricates a value disagreement.
    assert_eq!(report.mismatches(), 0, "{}", report.problems().join("\n"));
}
