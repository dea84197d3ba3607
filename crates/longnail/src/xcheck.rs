//! The X-propagation verify stage (`lnc --xcheck`).
//!
//! For every compiled unit of an ISAX this drives identical, fully-known
//! stimulus through the two-valued interpreter ([`rtl::interp`]) and the
//! four-state simulator ([`rtl::xsim`]) and reports:
//!
//! * **mismatches** — cycles where a fully-known four-state net disagrees
//!   with the interpreter (an emitter/semantics bug, reported with the
//!   offending net, cycle, and driver operator),
//! * **X output bits** — X reaching an output port although every input
//!   was known (the emitted SystemVerilog would behave unpredictably in
//!   exactly the situations the interpreter claims are fine),
//! * **static X hazards** — [`rtl::lint_x_hazards`] findings, the same
//!   bug class caught without simulation.
//!
//! Oracle protocol: the interpreter ignores the `rst` port (reset happens
//! through [`rtl::Simulator::reset`]) and starts registers at their init
//! values; [`rtl::Xsim`] powers up all-X, so [`DiffSim`] applies
//! [`rtl::Xsim::reset`] before the first cycle — modelling a completed
//! synchronous reset pulse — and the stimulus then holds `rst` low. With
//! the default [`EmitOptions`] a clean report is the machine-checked
//! statement that the emitted SystemVerilog, IEEE-1800 X rules included,
//! implements exactly the semantics the compiler verified against the
//! golden model (paper §5.3).

use crate::driver::{CompiledGraph, CompiledIsax};
use rtl::xsim::DiffSim;
use rtl::{lint_x_hazards, EmitOptions, IfaceSignal, NetTape, PortDir};
use std::sync::Arc;
use telemetry::{metrics, Telemetry, Trace};

/// Tunables for one differential check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XCheckOptions {
    /// Cycles of stimulus per unit.
    pub cycles: u64,
    /// Emission semantics the four-state side models (and the static
    /// hazard lint checks). Use the default unless reproducing a
    /// deliberately broken emitter.
    pub emit: EmitOptions,
}

impl Default for XCheckOptions {
    fn default() -> Self {
        XCheckOptions {
            cycles: 32,
            emit: EmitOptions::default(),
        }
    }
}

/// Differential result for one compiled unit.
#[derive(Debug, Clone)]
pub struct XCheckUnit {
    /// Instruction / always-block name.
    pub unit: String,
    /// Cycles actually driven (stops at the first mismatch).
    pub cycles: u64,
    /// Interp/xsim disagreements on fully-known nets (rendered with net,
    /// cycle, and driver op). At most one: checking stops there.
    pub mismatches: Vec<String>,
    /// X bits that reached output ports under fully-known inputs, summed
    /// over all checked cycles.
    pub x_output_bits: u64,
    /// Static X-hazard findings for this unit's netlist.
    pub lint_findings: Vec<String>,
}

impl XCheckUnit {
    /// True when the unit survived with no signal of any kind.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.x_output_bits == 0 && self.lint_findings.is_empty()
    }
}

/// Differential results for one compiled ISAX on one core.
#[derive(Debug, Clone)]
pub struct XCheckReport {
    /// ISAX name.
    pub isax: String,
    /// Core the compilation targeted.
    pub core: String,
    /// One result per compiled unit.
    pub units: Vec<XCheckUnit>,
    /// Telemetry for the check ([`metrics::XCHECK_CYCLES`] and friends).
    pub trace: Trace,
}

impl XCheckReport {
    /// True when every unit is clean.
    pub fn is_clean(&self) -> bool {
        self.units.iter().all(XCheckUnit::is_clean)
    }

    /// Total interp/xsim mismatches.
    pub fn mismatches(&self) -> u64 {
        self.units.iter().map(|u| u.mismatches.len() as u64).sum()
    }

    /// Total X bits that reached outputs.
    pub fn x_output_bits(&self) -> u64 {
        self.units.iter().map(|u| u.x_output_bits).sum()
    }

    /// Total static hazard findings.
    pub fn lint_findings(&self) -> u64 {
        self.units.iter().map(|u| u.lint_findings.len() as u64).sum()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "xcheck {}@{}: {} unit(s), {} mismatch(es), {} X output bit(s), {} hazard(s)",
            self.isax,
            self.core,
            self.units.len(),
            self.mismatches(),
            self.x_output_bits(),
            self.lint_findings()
        )
    }

    /// Every problem as a flat list of display lines.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for u in &self.units {
            for m in &u.mismatches {
                out.push(format!("{}: mismatch: {m}", u.unit));
            }
            if u.x_output_bits > 0 {
                out.push(format!(
                    "{}: {} X bit(s) reached outputs from known inputs",
                    u.unit, u.x_output_bits
                ));
            }
            for l in &u.lint_findings {
                out.push(format!("{}: X hazard: {l}", u.unit));
            }
        }
        out
    }
}

/// Deterministic corner-biased stimulus words: zero and one (divide-by-
/// zero and trivial operands), sign boundaries, all-ones, and a couple of
/// mixed patterns. `rs2` is offset so zero divisors land against nonzero
/// dividends too.
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

fn pat(t: u64) -> u64 {
    PATTERNS[(t % PATTERNS.len() as u64) as usize]
}

/// Runs the differential check over every unit of `isax` with defaults.
pub fn xcheck_compiled(isax: &CompiledIsax) -> XCheckReport {
    xcheck_compiled_with(isax, &XCheckOptions::default())
}

/// Runs the differential check over every unit of `isax` under `opts`.
pub fn xcheck_compiled_with(isax: &CompiledIsax, opts: &XCheckOptions) -> XCheckReport {
    let mut tel = Telemetry::new();
    let root = tel.start_span("xcheck");
    tel.attr(root, "isax", &isax.name);
    tel.attr(root, "core", &isax.core);
    let mut units = Vec::new();
    for g in &isax.graphs {
        let span = tel.start_unit_span("xcheck_unit", Some(&g.name));
        let lint_findings: Vec<String> = lint_x_hazards(&g.built.module, &opts.emit)
            .into_iter()
            .map(|i| i.to_string())
            .collect();

        let tape = Arc::new(NetTape::new(g.built.module.clone()));
        let stimulus = Stimulus::bind(g, &tape);
        let mut diff = DiffSim::from_tape(tape, opts.emit);
        let mut mismatches = Vec::new();
        let mut x_output_bits = 0u64;
        let mut cycles = 0u64;
        for t in 0..opts.cycles {
            stimulus.drive(&mut diff, t);
            cycles = t + 1;
            match diff.advance() {
                Ok(stats) => x_output_bits += stats.output_x_bits,
                Err(mm) => {
                    mismatches.push(mm.to_string());
                    break;
                }
            }
        }

        tel.counter(span, metrics::XCHECK_CYCLES, cycles);
        tel.counter(span, metrics::XCHECK_MISMATCHES, mismatches.len() as u64);
        tel.counter(span, metrics::XCHECK_X_OUTPUT_BITS, x_output_bits);
        tel.counter(span, metrics::XCHECK_LINT_FINDINGS, lint_findings.len() as u64);
        tel.end_span(span);
        units.push(XCheckUnit {
            unit: g.name.clone(),
            cycles,
            mismatches,
            x_output_bits,
            lint_findings,
        });
    }
    tel.counter(root, metrics::XCHECK_MISMATCHES, units.iter().map(|u| u.mismatches.len() as u64).sum());
    tel.counter(root, metrics::XCHECK_X_OUTPUT_BITS, units.iter().map(|u| u.x_output_bits).sum());
    tel.counter(root, metrics::XCHECK_LINT_FINDINGS, units.iter().map(|u| u.lint_findings.len() as u64).sum());
    tel.end_span(root);
    XCheckReport {
        isax: isax.name.clone(),
        core: isax.core.clone(),
        units,
        trace: tel.finish(),
    }
}

/// A unit's stimulus, bound to its module's input ports once. Every input
/// port of the built module that a binding names is driven each cycle, so
/// no X can enter from outside and any X observed is manufactured by the
/// netlist itself.
struct Stimulus<'g> {
    g: &'g CompiledGraph,
    /// `(port, signal, width)` per input binding, in binding order.
    inputs: Vec<(usize, &'g IfaceSignal, u32)>,
    /// `clk` and `rst`, held low.
    structural: Vec<usize>,
}

impl<'g> Stimulus<'g> {
    fn bind(g: &'g CompiledGraph, tape: &NetTape) -> Stimulus<'g> {
        let inputs = g
            .built
            .bindings
            .iter()
            .filter(|b| b.dir == PortDir::Input)
            .filter_map(|b| Some((tape.input_port(&b.name)?, &b.signal, b.width)))
            .collect();
        // clk/rst are structural (registers are modelled directly); hold
        // rst low so the oracle's one-time reset stays in effect.
        let structural = ["clk", "rst"]
            .iter()
            .filter_map(|name| tape.input_port(name))
            .collect();
        Stimulus {
            g,
            inputs,
            structural,
        }
    }

    /// Drives cycle `t`'s inputs (bindings after `clk`/`rst`, so a binding
    /// of the same port wins).
    fn drive(&self, diff: &mut DiffSim, t: u64) {
        for &port in &self.structural {
            diff.set_input(port, &[0]);
        }
        let g = self.g;
        for &(port, signal, width) in &self.inputs {
            let v = match signal {
                // A word that actually decodes as this instruction, with the
                // don't-care bits cycling through the patterns.
                IfaceSignal::InstrWord => {
                    u64::from(g.match_value) | (pat(t) & !u64::from(g.mask))
                }
                IfaceSignal::Rs1Data => pat(t),
                // Offset so zero/one divisors meet interesting dividends.
                IfaceSignal::Rs2Data => pat(t + 3),
                IfaceSignal::PcData => 0x100 + 4 * t,
                IfaceSignal::MemRdData => pat(t + 1),
                IfaceSignal::CustRdData(_) => pat(t + 5),
                // An occasional stall exercises the register-enable paths.
                IfaceSignal::StallIn => u64::from(t % 7 == 5),
                // Remaining inputs (if any) held low.
                _ => 0,
            };
            let mask = if width >= 64 { u64::MAX } else { (1 << width) - 1 };
            diff.set_input(port, &[v & mask]);
        }
    }
}
