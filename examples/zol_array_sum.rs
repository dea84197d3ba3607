//! The paper's §5.5 motivating workload: sum an integer array on VexRiscv,
//! first with plain RV32I, then with the autoinc + zol ISAX combination —
//! a loop with *no branch instruction at all*, steered by the
//! zero-overhead-loop `always`-block.
//!
//! ```sh
//! cargo run --example zol_array_sum
//! ```

use cores::{descriptor, ExtendedCore};
use longnail::driver::builtin_datasheet;
use longnail::isax_lib;
use longnail::Longnail;
use riscv::asm::Assembler;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u32 = 24;
    let base = 0x1000u32;

    // Compile both ISAXes for VexRiscv and register their mnemonics.
    let ln = Longnail::new();
    let ds = builtin_datasheet("VexRiscv").expect("bundled core");
    let mut asm = Assembler::new();
    let mut compiled = Vec::new();
    for name in ["autoinc", "zol"] {
        let (unit, src) = isax_lib::isax_source(name).expect("bundled ISAX");
        let module = coredsl::Frontend::new()
            .compile_str(&src, &unit)
            .map_err(|e| e.to_string())?;
        isax_lib::register_mnemonics(&mut asm, &module)?;
        compiled.push(ln.compile(&src, &unit, &ds)?);
    }

    let baseline = format!(
        r#"
        li   a0, {base:#x}
        li   a1, {n}
        li   a2, 0
    loop:
        lw   t0, 0(a0)
        add  a2, a2, t0
        addi a0, a0, 4
        addi a1, a1, -1
        bnez a1, loop
        ebreak
    "#
    );
    let with_isax = format!(
        r#"
        li   a0, {base:#x}
        li   a2, 0
        setup_autoinc a0
        setup_zol {m}, 4
        load_inc t0        # auto-incrementing load...
        add  a2, a2, t0    # ...and accumulate; the zol block loops us
        ebreak
    "#,
        m = n - 1
    );

    let run = |program: &str| -> Result<(u64, u32), Box<dyn std::error::Error>> {
        let words = asm.assemble(program)?;
        let mut core = ExtendedCore::new(descriptor("VexRiscv").unwrap(), compiled.clone(), true);
        core.load_program(0, &words);
        for i in 0..n {
            core.cpu.write_word(base + 4 * i, i + 1);
        }
        core.run(1_000_000)?;
        Ok((core.cycles, core.cpu.read_reg(12)))
    };

    let (cycles_base, sum_base) = run(&baseline)?;
    let (cycles_isax, sum_isax) = run(&with_isax)?;
    assert_eq!(sum_base, n * (n + 1) / 2);
    assert_eq!(sum_isax, sum_base);

    println!("summing {n} array elements on VexRiscv:");
    println!("  baseline RV32I loop : {cycles_base:5} cycles (sum = {sum_base})");
    println!("  autoinc + zol       : {cycles_isax:5} cycles (sum = {sum_isax})");
    println!(
        "  speed-up            : {:.2}x",
        cycles_base as f64 / cycles_isax as f64
    );
    println!("\n(the ISAX loop body is two instructions and contains no branch)");
    Ok(())
}
