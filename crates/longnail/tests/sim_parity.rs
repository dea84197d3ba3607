//! The tape simulators against the `ApInt` reference walkers on the real
//! evaluation matrix: the opt stage's equivalence gate and the `--xcheck`
//! oracle must report exactly what the walkers they replaced reported.

use bits::ApInt;
use longnail::driver::{
    builtin_datasheet, eval_datasheets, CompiledGraph, CompiledIsax, MatrixResult,
};
use longnail::{
    isax_lib, xcheck_compiled_with, Longnail, MatrixCell, PipelineCache, XCheckOptions,
};
use rtl::{lint_x_hazards, reference, EmitOptions, IfaceSignal, OptLevel, PortDir};
use std::collections::HashMap;

fn matrix() -> MatrixResult {
    let cells = MatrixCell::grid(&isax_lib::all_isaxes(), &eval_datasheets());
    let matrix = Longnail::new().compile_cells(&cells, 2, &PipelineCache::new());
    assert_eq!(
        matrix.compiled().count(),
        32,
        "all 8 ISAXes x 4 cores must compile"
    );
    matrix
}

#[test]
fn opt_gate_agrees_with_the_reference_gate_on_every_matrix_module() {
    let opts = EmitOptions::default();
    let mut pairs = 0;
    for (_, compiled) in matrix().compiled() {
        for g in &compiled.graphs {
            let pre = &g.built.module;
            for level in [OptLevel::O1, OptLevel::O2] {
                let (optimized, _) = rtl::optimize(pre, level, &opts).unwrap();
                let tape = rtl::verify_equivalent(pre, &optimized, &opts, 32);
                let walker = reference::verify_equivalent(pre, &optimized, &opts, 32);
                assert_eq!(
                    tape, walker,
                    "{}@{} {} {level:?}",
                    compiled.name, compiled.core, g.name
                );
                assert!(
                    tape.is_ok(),
                    "{}@{} {}: {tape:?}",
                    compiled.name,
                    compiled.core,
                    g.name
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 144, "72 modules at -O1 and -O2");
}

/// The xcheck stimulus exactly as the reference oracle built it: a
/// name-keyed map per cycle.
fn reference_stimulus(g: &CompiledGraph, t: u64) -> HashMap<String, ApInt> {
    const PATTERNS: [u64; 8] = [
        0,
        1,
        0xffff_ffff,
        0x8000_0000,
        0x7fff_ffff,
        0xdead_beef,
        2,
        0x0102_0304,
    ];
    let pat = |t: u64| PATTERNS[(t % 8) as usize];
    let mut inputs = HashMap::new();
    inputs.insert("clk".to_string(), ApInt::zero(1));
    inputs.insert("rst".to_string(), ApInt::zero(1));
    for b in g.built.bindings.iter().filter(|b| b.dir == PortDir::Input) {
        let v = match &b.signal {
            IfaceSignal::InstrWord => u64::from(g.match_value) | (pat(t) & !u64::from(g.mask)),
            IfaceSignal::Rs1Data => pat(t),
            IfaceSignal::Rs2Data => pat(t + 3),
            IfaceSignal::PcData => 0x100 + 4 * t,
            IfaceSignal::MemRdData => pat(t + 1),
            IfaceSignal::CustRdData(_) => pat(t + 5),
            IfaceSignal::StallIn => u64::from(t % 7 == 5),
            _ => 0,
        };
        inputs.insert(
            b.name.clone(),
            ApInt::from_u64(v, 64).zext_or_trunc(b.width),
        );
    }
    inputs
}

/// One unit's `(cycles, mismatches, x_output_bits, lint_findings)` from
/// the reference walkers.
type UnitResult = (u64, Vec<String>, u64, Vec<String>);

fn reference_xcheck(isax: &CompiledIsax, opts: &XCheckOptions) -> Vec<UnitResult> {
    isax.graphs
        .iter()
        .map(|g| {
            let lint: Vec<String> = lint_x_hazards(&g.built.module, &opts.emit)
                .into_iter()
                .map(|i| i.to_string())
                .collect();
            let mut diff = reference::DiffSim::with_options(g.built.module.clone(), opts.emit);
            let (mut cycles, mut mismatches, mut x_bits) = (0, Vec::new(), 0);
            for t in 0..opts.cycles {
                cycles = t + 1;
                match diff.step(&reference_stimulus(g, t)) {
                    Ok(stats) => x_bits += stats.output_x_bits,
                    Err(mm) => {
                        mismatches.push(mm.to_string());
                        break;
                    }
                }
            }
            (cycles, mismatches, x_bits, lint)
        })
        .collect()
}

/// An ISAX whose unguarded divisions X-propagate under raw emission, so
/// the comparison below also sees nonzero counts.
const DIVIDER: &str = r#"
import "RV32I.core_desc";
InstructionSet X_DIV extends RV32I {
  instructions {
    xdiv {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b1011011;
      behavior: {
        unsigned<32> q = X[rs1] / X[rs2];
        signed<32> r = (signed<32>) X[rs1] % (signed<32>) X[rs2];
        X[rd] = q ^ (unsigned<32>) r;
      }
    }
  }
}
"#;

#[test]
fn xcheck_agrees_with_the_reference_oracle_on_every_cell() {
    let raw = EmitOptions {
        guard_division: false,
        bounded_extract_dyn: false,
    };
    let matrix = matrix();
    let divider = Longnail::new()
        .compile(DIVIDER, "X_DIV", &builtin_datasheet("ORCA").unwrap())
        .unwrap();
    let mut x_bits = 0;
    for compiled in matrix.compiled().map(|(_, c)| c).chain([&divider]) {
        for emit in [EmitOptions::default(), raw] {
            let opts = XCheckOptions { cycles: 32, emit };
            let report = xcheck_compiled_with(compiled, &opts);
            let got: Vec<UnitResult> = report
                .units
                .iter()
                .map(|u| {
                    (
                        u.cycles,
                        u.mismatches.clone(),
                        u.x_output_bits,
                        u.lint_findings.clone(),
                    )
                })
                .collect();
            let want = reference_xcheck(compiled, &opts);
            assert_eq!(got, want, "{}@{} {emit:?}", compiled.name, compiled.core);
            x_bits += report.x_output_bits();
        }
    }
    // Raw emission must actually let X reach an output (the divider), or
    // the comparison above only ever saw zeros.
    assert!(x_bits > 0, "no X output bit under raw emission");
}
