//! Regenerates Figure 5: the `ADDI` ("add immediate") instruction at the
//! four abstraction levels of the Longnail flow — CoreDSL source, the
//! high-level dialect form, the LIL data-flow graph, and SystemVerilog.

use longnail::driver::builtin_datasheet;
use longnail::Longnail;

/// ADDI described in CoreDSL (Figure 5a).
const ADDI: &str = r#"
import "RV32I.core_desc";
InstructionSet addi_demo extends RV32I {
  instructions {
    ADDI {
      encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0010011;
      behavior: {
        X[rd] = (unsigned<32>)(X[rs1] + (signed<12>)imm);
      }
    }
  }
}
"#;

fn main() {
    let ln = Longnail::new();
    let ds = builtin_datasheet("VexRiscv").unwrap();

    println!("Figure 5(a): ISAX description (CoreDSL)");
    println!("----------------------------------------");
    println!("{}", ADDI.trim());

    let module = coredsl::Frontend::new()
        .compile_str(ADDI, "addi_demo")
        .map_err(|e| e.to_string())
        .unwrap();
    println!("\nFigure 5(b): high-level instruction description (coredsl + hwarith dialects)");
    println!("-----------------------------------------------------------------------------");
    print!("{}", ir::hirprint::print_module(&module));

    let compiled = ln.compile(ADDI, "addi_demo", &ds).unwrap();
    let g = compiled.graph("ADDI").unwrap();
    println!("\nFigure 5(c): data-flow graph IR (lil and comb dialects)");
    println!("--------------------------------------------------------");
    print!("{}", g.graph);

    println!("\nFigure 5(d): register-transfer level (SystemVerilog)");
    println!("-----------------------------------------------------");
    print!("{}", g.verilog);

    println!("\nschedule: {:?}", g.schedule.start_time);
}
