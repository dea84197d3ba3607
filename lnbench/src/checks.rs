//! Output checks: artifact digests, the X-propagation oracle, the §5.3
//! verification programs on every ISAX × core against the golden model,
//! and the §5.5 autoinc + zol array sum on every core. The same checks run
//! on every workload; `matrix_checked` times them as part of each request.

use cores::{descriptor, ExtendedCore};
use longnail::golden::GoldenMachine;
use longnail::{isax_lib, xcheck_compiled, CompiledIsax, FlowError, MatrixCell};
use qcache::{Digest, Sha256};
use riscv::asm::Assembler;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::spans::nanos;

/// Step limit for every simulated program; all of them halt far sooner.
const MAX_STEPS: u64 = 1_000_000;

/// Elements summed by the §5.5 program.
const SEC55_N: u32 = 64;

/// Base address of the §5.5 array.
const SEC55_BASE: u32 = 0x1000;

/// A §5.3 verification program for one ISAX: after it halts, every GPR,
/// the listed custom registers and the listed memory words of the extended
/// core must equal the golden model's.
struct Program {
    isax: &'static str,
    text: &'static str,
    cust: &'static [(&'static str, u64)],
    mem: &'static [u32],
}

/// One §5.3 program per Table 3 ISAX, as in `crates/cores/tests/verify.rs`.
const PROGRAMS: [Program; 8] = [
    Program {
        isax: "autoinc",
        text: "li a0, 0x300\n li t0, 5\n sw t0, 0(a0)\n li t0, 6\n sw t0, 4(a0)\n \
               setup_autoinc a0\n load_inc t1\n load_inc t2\n add a1, t1, t2\n \
               store_inc a1\n ebreak\n",
        cust: &[("ADDR", 0)],
        mem: &[0x300, 0x304, 0x308],
    },
    Program {
        isax: "dotprod",
        text: "li a1, 0x01020304\n li a2, 0x85068708\n dotp a0, a1, a2\n \
               dotp a3, a2, a2\n ebreak\n",
        cust: &[],
        mem: &[],
    },
    Program {
        isax: "ijmp",
        text: "li a0, 0x400\n li t0, dest\n sw t0, 0(a0)\n ijmp a0\n li a1, 1\n ebreak\n\
               dest:\n li a1, 7\n ebreak\n",
        cust: &[],
        mem: &[0x400],
    },
    Program {
        isax: "sbox",
        text: "li a1, 0x53\n aes_sbox a0, a1\n ebreak\n",
        cust: &[],
        mem: &[],
    },
    Program {
        isax: "sparkle",
        text: "li a1, 0x12345678\n li a2, 0x9abcdef0\n alzette_x0 a0, a1, a2\n \
               alzette_y0 a3, a1, a2\n ebreak\n",
        cust: &[],
        mem: &[],
    },
    Program {
        isax: "sqrt_tightly",
        text: "li a1, 1764\n sqrt a0, a1\n li a2, 2\n sqrt a3, a2\n ebreak\n",
        cust: &[],
        mem: &[],
    },
    Program {
        isax: "sqrt_decoupled",
        text: "li a1, 1764\n sqrt a0, a1\n li t0, 1\n li t1, 2\n li t2, 3\n mv a2, a0\n \
               ebreak\n",
        cust: &[],
        mem: &[],
    },
    Program {
        isax: "zol",
        text: "li t0, 0\n li t1, 0\n setup_zol 9, 4\n addi t0, t0, 1\n addi t1, t1, 2\n \
               ebreak\n",
        cust: &[("COUNT", 0), ("START_PC", 0), ("END_PC", 0)],
        mem: &[],
    },
];

/// The §5.5 array sum: one `load_inc` + `add` body under zero-overhead
/// loop control.
fn sec55_program() -> String {
    format!(
        "li a0, {SEC55_BASE:#x}\n li a2, 0\n setup_autoinc a0\n setup_zol {}, 4\n \
         load_inc t0\n add a2, a2, t0\n ebreak\n",
        SEC55_N - 1
    )
}

/// A compiled cell, or why it does not count as compiled: a flow error or
/// any error or fault diagnostic.
pub fn cell_ok(outcome: &Result<CompiledIsax, FlowError>) -> Result<&CompiledIsax, String> {
    match outcome {
        Ok(c) if c.diagnostics.has_errors() || c.diagnostics.has_faults() => {
            Err(format!("{}@{}: {}", c.name, c.core, c.diagnostics.render()))
        }
        Ok(c) => Ok(c),
        Err(e) => Err(e.to_string()),
    }
}

/// SHA-256 of a cell's artifacts: the SCAIE-V YAML plus every unit's name
/// and SystemVerilog, each followed by a 0xff separator.
pub fn artifact_digest(c: &CompiledIsax) -> Digest {
    let mut h = Sha256::new();
    let mut feed = |bytes: &[u8]| {
        h.update(bytes);
        h.update(&[0xff]);
    };
    feed(c.config.to_yaml().as_bytes());
    for g in &c.graphs {
        feed(g.name.as_bytes());
        feed(g.verilog.as_bytes());
    }
    h.finalize()
}

enum Task {
    Xcheck(usize),
    Sec53 { program: usize, cell: usize },
    Sec55 { core: usize },
}

/// What one check pass measured, summed over its tasks.
#[derive(Debug, Default, Clone)]
pub struct CheckPass {
    pub attempted: u64,
    pub problems: Vec<String>,
    pub xcheck_ns: u64,
    pub sim_cycles: u64,
    pub exec_ns: u64,
    pub core_cycles: u64,
    pub golden_ns: u64,
    pub sec55_cycles: u64,
}

#[derive(Default)]
struct TaskOut {
    xcheck_ns: u64,
    sim_cycles: u64,
    exec_ns: u64,
    core_cycles: u64,
    golden_ns: u64,
    sec55_cycles: u64,
}

/// The assembled check programs for one matrix layout.
pub struct Checker {
    tasks: Vec<Task>,
    words: Vec<Vec<u32>>,
    sec55_words: Vec<u32>,
    /// Row-major cell index of `(isax, core)`.
    index: Vec<Vec<usize>>,
    isaxes: Vec<String>,
    cores: Vec<String>,
}

impl Checker {
    /// Assembles the check programs with the mnemonics of `compiled`
    /// (row-major over `cells`, as compiled by a warm-up request).
    pub fn new(cells: &[MatrixCell], compiled: &[&CompiledIsax]) -> Result<Checker, String> {
        let mut isaxes: Vec<String> = Vec::new();
        let mut cores: Vec<String> = Vec::new();
        for cell in cells {
            if !isaxes.contains(&cell.isax) {
                isaxes.push(cell.isax.clone());
            }
            if !cores.contains(&cell.datasheet.core) {
                cores.push(cell.datasheet.core.clone());
            }
        }
        let pos = |list: &[String], name: &str| list.iter().position(|x| x == name);
        let mut index = vec![vec![usize::MAX; cores.len()]; isaxes.len()];
        for (k, cell) in cells.iter().enumerate() {
            let i = pos(&isaxes, &cell.isax).expect("listed above");
            let c = pos(&cores, &cell.datasheet.core).expect("listed above");
            index[i][c] = k;
        }
        let module_of = |isax: &str| {
            let i = pos(&isaxes, isax).ok_or_else(|| format!("no `{isax}` cells"))?;
            Ok::<_, String>(&compiled[index[i][0]].module)
        };
        let assemble = |names: &[&str], text: &str| {
            let mut asm = Assembler::new();
            for name in names {
                isax_lib::register_mnemonics(&mut asm, module_of(name)?)
                    .map_err(|e| e.to_string())?;
            }
            asm.assemble(text).map_err(|e| format!("{names:?}: {e}"))
        };
        let mut tasks: Vec<Task> = (0..cells.len()).map(Task::Xcheck).collect();
        let mut words = Vec::new();
        for (p, program) in PROGRAMS.iter().enumerate() {
            words.push(assemble(&[program.isax], program.text)?);
            let i =
                pos(&isaxes, program.isax).ok_or_else(|| format!("no `{}` cells", program.isax))?;
            tasks.extend(
                index[i]
                    .iter()
                    .map(|&cell| Task::Sec53 { program: p, cell }),
            );
        }
        if let Some(missing) = isaxes
            .iter()
            .find(|i| !PROGRAMS.iter().any(|p| p.isax == *i))
        {
            return Err(format!("no §5.3 program for `{missing}`"));
        }
        let sec55_words = assemble(&["autoinc", "zol"], &sec55_program())?;
        tasks.extend((0..cores.len()).map(|core| Task::Sec55 { core }));
        Ok(Checker {
            tasks,
            words,
            sec55_words,
            index,
            isaxes,
            cores,
        })
    }

    /// Runs every check on `compiled` (row-major over the cells) with
    /// `threads` threads.
    pub fn run(&self, compiled: &[&CompiledIsax], threads: usize) -> CheckPass {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(self.tasks.len()));
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = self.tasks.get(i) else { break };
                    let out = catch_unwind(AssertUnwindSafe(|| self.run_task(task, compiled)))
                        .unwrap_or_else(|_| Err(format!("check task {i} panicked")));
                    results
                        .lock()
                        .expect("no check thread panics holding the lock")
                        .push(out);
                });
            }
        });
        let mut pass = CheckPass {
            attempted: self.tasks.len() as u64,
            ..CheckPass::default()
        };
        for out in results.into_inner().expect("check threads joined") {
            match out {
                Ok(t) => {
                    pass.xcheck_ns += t.xcheck_ns;
                    pass.sim_cycles += t.sim_cycles;
                    pass.exec_ns += t.exec_ns;
                    pass.core_cycles += t.core_cycles;
                    pass.golden_ns += t.golden_ns;
                    pass.sec55_cycles += t.sec55_cycles;
                }
                Err(problem) => pass.problems.push(problem),
            }
        }
        pass
    }

    fn run_task(&self, task: &Task, compiled: &[&CompiledIsax]) -> Result<TaskOut, String> {
        match *task {
            Task::Xcheck(cell) => {
                let c = compiled[cell];
                let t = Instant::now();
                let report = xcheck_compiled(c);
                let xcheck_ns = nanos(t);
                if !report.is_clean() {
                    return Err(format!("xcheck {}", report.summary()));
                }
                Ok(TaskOut {
                    xcheck_ns,
                    sim_cycles: report.units.iter().map(|u| u.cycles).sum(),
                    ..TaskOut::default()
                })
            }
            Task::Sec53 { program, cell } => {
                let c = compiled[cell];
                let p = &PROGRAMS[program];
                let words = &self.words[program];
                let desc = descriptor(&c.core).ok_or_else(|| format!("unknown core {}", c.core))?;
                let mut core = ExtendedCore::new(desc, vec![c.clone()], true);
                core.load_program(0, words);
                let mut golden = GoldenMachine::new(vec![c.module.clone()]);
                golden.load_program(0, words);
                let t = Instant::now();
                let ran = core.run(MAX_STEPS);
                let exec_ns = nanos(t);
                let t = Instant::now();
                let golden_ran = golden.run(MAX_STEPS);
                let golden_ns = nanos(t);
                let what = format!("§5.3 {}@{}", p.isax, c.core);
                ran.map_err(|e| format!("{what}: core: {e:?}"))?;
                golden_ran.map_err(|e| format!("{what}: golden: {e:?}"))?;
                for r in 0..32 {
                    if core.cpu.read_reg(r) != golden.cpu.read_reg(r) {
                        return Err(format!("{what}: x{r} differs from the golden model"));
                    }
                }
                for &(name, idx) in p.cust {
                    if core.cust_reg(name, idx) != golden.cust_reg(name, idx) {
                        return Err(format!(
                            "{what}: {name}[{idx}] differs from the golden model"
                        ));
                    }
                }
                for &addr in p.mem {
                    if core.cpu.read_word(addr) != golden.cpu.read_word(addr) {
                        return Err(format!(
                            "{what}: mem[{addr:#x}] differs from the golden model"
                        ));
                    }
                }
                Ok(TaskOut {
                    exec_ns,
                    core_cycles: core.cycles,
                    golden_ns,
                    ..TaskOut::default()
                })
            }
            Task::Sec55 { core } => {
                let cell = |isax: &str| {
                    let i = self
                        .isaxes
                        .iter()
                        .position(|x| x == isax)
                        .expect("checked in new");
                    compiled[self.index[i][core]].clone()
                };
                let name = &self.cores[core];
                let desc = descriptor(name).ok_or_else(|| format!("unknown core {name}"))?;
                let mut ext = ExtendedCore::new(desc, vec![cell("autoinc"), cell("zol")], true);
                ext.load_program(0, &self.sec55_words);
                for i in 0..SEC55_N {
                    ext.cpu.write_word(SEC55_BASE + 4 * i, i + 1);
                }
                let t = Instant::now();
                let ran = ext.run(MAX_STEPS);
                let exec_ns = nanos(t);
                ran.map_err(|e| format!("§5.5 on {name}: {e:?}"))?;
                let sum = ext.cpu.read_reg(12);
                let want = SEC55_N * (SEC55_N + 1) / 2;
                if sum != want {
                    return Err(format!("§5.5 on {name}: sum {sum}, expected {want}"));
                }
                Ok(TaskOut {
                    exec_ns,
                    core_cycles: ext.cycles,
                    sec55_cycles: ext.cycles,
                    ..TaskOut::default()
                })
            }
        }
    }
}
