//! Four-state (0/1/X per bit) netlist simulation and the differential
//! X-propagation oracle.
//!
//! The two-valued [`crate::interp::Simulator`] implements the semantics the
//! *compiler* believes in (the RISC-V division convention, zeros beyond a
//! dynamic part-select, registers born at their reset value). Synthesis and
//! commercial simulators instead implement the IEEE-1800 semantics of the
//! *emitted SystemVerilog*, in which division by zero, out-of-range indexed
//! part-selects, ambiguous mux selects, and un-reset registers all produce
//! X. [`Xsim`] models that second world: it interprets the same
//! [`NetTape`] as the two-valued simulator over two planes (value and
//! known bits), and evaluates every [`CombOp`] with the semantics of the
//! expression [`crate::verilog`] emits for it (as selected by
//! [`EmitOptions`]).
//!
//! [`DiffSim`] drives both simulators in lockstep over the same stimulus
//! and fails on the first cycle where a *fully-known* four-state net
//! disagrees with the two-valued interpreter — pinpointing the net, cycle,
//! and driving operator. X bits reaching outputs under fully-known inputs
//! are counted separately: they are exactly the places where the emitted
//! SystemVerilog would diverge from what `interp` (and the golden model
//! upstream of it) promised.

use crate::interp::{self, Simulator};
use crate::netlist::{CombOp, Driver, Module, PortDir};
use crate::sim::{self, NetTape, Op, Slot};
use crate::verilog::EmitOptions;
use bits::ApInt;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A four-state vector: per bit, `known` says whether the bit is a real
/// 0/1 (carried in `value`) or X. Invariant: `value & !known == 0` — X
/// positions always carry a zero value bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XVal {
    pub(crate) value: ApInt,
    pub(crate) known: ApInt,
}

impl XVal {
    /// A fully-known value.
    pub fn known(value: ApInt) -> XVal {
        let known = ApInt::ones(value.width());
        XVal { value, known }
    }

    /// Builds from raw planes, forcing the invariant.
    pub fn from_planes(value: ApInt, known: ApInt) -> XVal {
        assert_eq!(value.width(), known.width(), "plane widths differ");
        XVal {
            value: value.and(&known),
            known,
        }
    }

    /// Bit width.
    pub fn width(&self) -> u32 {
        self.value.width()
    }

    /// The 0/1 plane (X positions read 0).
    pub fn value_plane(&self) -> &ApInt {
        &self.value
    }

    /// The known mask (1 = real bit, 0 = X).
    pub fn known_plane(&self) -> &ApInt {
        &self.known
    }

    /// True when no bit is X.
    pub fn is_fully_known(&self) -> bool {
        self.known.is_all_ones()
    }

    /// The two-valued content, if no bit is X.
    pub fn as_known(&self) -> Option<&ApInt> {
        if self.is_fully_known() {
            Some(&self.value)
        } else {
            None
        }
    }

    /// Number of X bits.
    pub fn x_bits(&self) -> u32 {
        let ones: u32 = self.known.limbs().iter().map(|l| l.count_ones()).sum();
        self.width() - ones
    }
}

impl fmt::Display for XVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in (0..self.width()).rev() {
            let c = if !self.known.bit(pos) {
                'x'
            } else if self.value.bit(pos) {
                '1'
            } else {
                '0'
            };
            f.write_fmt(format_args!("{c}"))?;
        }
        Ok(())
    }
}

/// The four-state netlist simulator: the tape's four-state interpreter,
/// over a value plane and a known plane with the same slot layout.
///
/// Registers power up all-X, exactly like un-reset `always_ff` state in
/// real simulation; [`Xsim::reset`] models a completed synchronous reset
/// pulse (every register takes its `init`). Inputs that were never driven
/// are all-X, where the two-valued interpreter assumes zero.
#[derive(Debug, Clone)]
pub struct Xsim {
    tape: Arc<NetTape>,
    opts: EmitOptions,
    /// The 0/1 plane (X positions read 0).
    value: Vec<u64>,
    /// The known plane (1 = real bit, 0 = X).
    known: Vec<u64>,
    /// Result buffers for multi-word instructions.
    scratch: (Vec<u64>, Vec<u64>),
    /// Register planes latched at the next clock edge.
    latch: (Vec<u64>, Vec<u64>),
}

impl Xsim {
    /// Creates a simulator with the default (X-safe) emission semantics
    /// and all registers at X.
    pub fn new(module: Module) -> Self {
        Self::with_options(module, EmitOptions::default())
    }

    /// Creates a simulator modelling the SystemVerilog that
    /// [`crate::verilog::emit_verilog_with`] produces under `opts`.
    pub fn with_options(module: Module, opts: EmitOptions) -> Self {
        Self::from_tape(Arc::new(NetTape::new(module)), opts)
    }

    /// A simulator over an already compiled tape, registers at X.
    pub fn from_tape(tape: Arc<NetTape>, opts: EmitOptions) -> Self {
        let mut value = tape.image.clone();
        value[tape.reg_block.clone()].fill(0);
        let known = tape.known_image.clone();
        let regs = tape.reg_block.len();
        Xsim {
            tape,
            opts,
            value,
            known,
            scratch: (Vec::new(), Vec::new()),
            latch: (vec![0; regs], vec![0; regs]),
        }
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        self.tape.module()
    }

    /// The compiled tape.
    pub(crate) fn tape(&self) -> &Arc<NetTape> {
        &self.tape
    }

    /// Models a completed synchronous reset: every register holds its
    /// `init` value, fully known.
    pub fn reset(&mut self) {
        let block = self.tape.reg_block.clone();
        self.value[block.clone()].copy_from_slice(&self.tape.image[block.clone()]);
        self.known[block].copy_from_slice(&self.tape.reg_ones);
    }

    /// The most recent value of net `i`.
    pub fn net(&self, i: usize) -> XVal {
        let slot = self.tape.net_slot(i);
        let (value, known) = self.slot_planes(slot);
        XVal {
            value: ApInt::from_limbs(value, slot.width),
            known: ApInt::from_limbs(known, slot.width),
        }
    }

    /// The `(value, known)` words in `slot`.
    pub(crate) fn slot_planes(&self, slot: Slot) -> (&[u64], &[u64]) {
        (&self.value[slot.range()], &self.known[slot.range()])
    }

    /// Drives input port `port` with the planes `value`/`known` (each
    /// zero-extended or truncated to the port width, so bits above a
    /// narrower `known` are X). The value holds until driven again.
    pub fn set_input(&mut self, port: usize, value: &[u64], known: &[u64]) {
        if let Some(slot) = self.tape.port_slot(port) {
            let (v, k) = (&mut self.value[slot.range()], &mut self.known[slot.range()]);
            sim::write_resized(v, value, slot.width);
            sim::write_resized(k, known, slot.width);
            for (v, k) in v.iter_mut().zip(k.iter()) {
                *v &= k;
            }
        }
    }

    /// Drives input port `port` with a fully-known `value`.
    pub fn set_input_known(&mut self, port: usize, value: &[u64]) {
        if let Some(slot) = self.tape.port_slot(port) {
            sim::write_resized(&mut self.value[slot.range()], value, slot.width);
            sim::fill_ones(&mut self.known[slot.range()], slot.width);
        }
    }

    /// Evaluates the combinational fabric for the current inputs. Does
    /// **not** clock the registers.
    pub fn evaluate(&mut self) {
        let tape = &*self.tape;
        let opts = &self.opts;
        let (value, known) = (&mut self.value, &mut self.known);
        for ins in &tape.code {
            let [a, b, c] = ins.args;
            if ins.wide {
                let (ov, ok) = &mut self.scratch;
                for buf in [&mut *ov, &mut *ok] {
                    buf.clear();
                    buf.resize(ins.dst.words(), 0);
                }
                let arg = |s: Slot| (&value[s.range()], &known[s.range()], s.width);
                match ins.op {
                    Op::Comb(op) => eval_wide(
                        op,
                        (ov, ok),
                        ins.dst.width,
                        arg(a),
                        arg(b),
                        arg(c),
                        ins.lo,
                        opts,
                    ),
                    Op::Rom(r) => {
                        if sim::is_ones(&known[a.range()], a.width) {
                            interp::rom_read(&tape.roms[r], &value[a.range()], ov);
                            sim::fill_ones(ok, ins.dst.width);
                        }
                    }
                }
                value[ins.dst.range()].copy_from_slice(ov);
                known[ins.dst.range()].copy_from_slice(ok);
                continue;
            }
            let x = |s: Slot| (value[s.off as usize], known[s.off as usize], s.width);
            let (v, k) = match ins.op {
                Op::Comb(op) => eval_word(op, x(a), x(b), x(c), ins.lo, ins.dst.width, opts),
                Op::Rom(r) => match x(a) {
                    (idx, k, w) if k == sim::mask(w) => {
                        let table = &tape.roms[r];
                        (
                            table.entry(&[idx]).map_or(0, |e| e[0]),
                            sim::mask(table.width),
                        )
                    }
                    _ => (0, 0),
                },
            };
            value[ins.dst.off as usize] = v;
            known[ins.dst.off as usize] = k;
        }
    }

    /// Latches all registers based on the most recent evaluation. An X
    /// enable merges hold and load pessimistically.
    pub fn clock(&mut self) {
        let tape = &*self.tape;
        let base = tape.reg_block.start;
        let (lv, lk) = &mut self.latch;
        lv.copy_from_slice(&self.value[tape.reg_block.clone()]);
        lk.copy_from_slice(&self.known[tape.reg_block.clone()]);
        for r in &tape.regs {
            let load_v = &self.value[r.next.range()];
            let load_k = &self.known[r.next.range()];
            let range = r.dst.range();
            let local = range.start - base..range.end - base;
            let (hold_v, hold_k) = (&mut lv[local.clone()], &mut lk[local]);
            let enable = r.enable.map(|e| {
                sim::is_ones(&self.known[e.range()], e.width)
                    .then(|| !sim::is_zero(&self.value[e.range()]))
            });
            match enable {
                None | Some(Some(true)) => {
                    sim::write_resized(hold_v, load_v, r.dst.width);
                    sim::write_resized(hold_k, load_k, r.dst.width);
                }
                Some(Some(false)) => {}
                Some(None) => {
                    for (i, (hv, hk)) in hold_v.iter_mut().zip(hold_k.iter_mut()).enumerate() {
                        let (v, k) = (load_v.get(i).copied(), load_k.get(i).copied());
                        let agree = *hk & k.unwrap_or(0) & !(*hv ^ v.unwrap_or(0));
                        *hv &= agree;
                        *hk = agree;
                    }
                }
            }
        }
        self.value[tape.reg_block.clone()].copy_from_slice(lv);
        self.known[tape.reg_block.clone()].copy_from_slice(lk);
    }

    /// Name-keyed adapter: evaluates with fully-known inputs. Missing
    /// inputs are all-X.
    pub fn eval(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, XVal> {
        let four_state: HashMap<String, XVal> = inputs
            .iter()
            .map(|(k, v)| (k.clone(), XVal::known(v.clone())))
            .collect();
        self.eval_x(&four_state)
    }

    /// Name-keyed adapter: evaluates with four-state inputs (missing
    /// inputs all-X) and returns the output-port values. Does **not**
    /// clock the registers.
    pub fn eval_x(&mut self, inputs: &HashMap<String, XVal>) -> HashMap<String, XVal> {
        let tape = Arc::clone(&self.tape);
        for (i, p) in tape.module().ports.iter().enumerate() {
            if p.dir == PortDir::Input {
                match inputs.get(&p.name) {
                    Some(v) => self.set_input(i, v.value.limbs(), v.known.limbs()),
                    None => self.set_input(i, &[0], &[0]),
                }
            }
        }
        self.evaluate();
        tape.outputs()
            .iter()
            .map(|&(port, slot)| {
                let (value, known) = self.slot_planes(slot);
                let v = XVal {
                    value: ApInt::from_limbs(value, slot.width),
                    known: ApInt::from_limbs(known, slot.width),
                };
                (tape.module().ports[port].name.clone(), v)
            })
            .collect()
    }

    /// Convenience: `eval` then `clock`, returning the sampled outputs.
    pub fn step(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, XVal> {
        let outputs = self.eval(inputs);
        self.clock();
        outputs
    }
}

/// A four-state operand: value plane, known plane, width.
type Planes<'a> = (&'a [u64], &'a [u64], u32);

/// One combinational operator on one-word four-state operands
/// `(value, known, width)` under the IEEE-1800 semantics of the
/// expression the emitter produces for it: `(value, known)` of the
/// result. Every operator here is monotone under refinement of its
/// inputs, which the optimizer's narrowing analysis relies on.
#[inline(always)]
fn eval_word(
    op: CombOp,
    (va, ka, aw): (u64, u64, u32),
    (vb, kb, bw): (u64, u64, u32),
    (vc, kc, _): (u64, u64, u32),
    lo: u32,
    width: u32,
    opts: &EmitOptions,
) -> (u64, u64) {
    let m = sim::mask(width);
    let full = |k: u64, w: u32| k == sim::mask(w);
    let both = full(ka, aw) && full(kb, bw);
    let two = |a: u64, b: u64| interp::eval_word(op, (a, aw), (b, bw), vc, lo, width);
    // Extends pad with known bits above the source width.
    let pad = m & !sim::mask(aw);
    match op {
        // Arithmetic and shifts: any X in any operand X-poisons the whole
        // result, per the LRM.
        CombOp::Add | CombOp::Sub | CombOp::Mul | CombOp::Shl | CombOp::ShrU | CombOp::ShrS
            if both =>
        {
            (two(va, vb), m)
        }
        // `/` and `%`: with the emitter's zero-divisor guard the
        // expression is total and matches the RISC-V convention;
        // unguarded, a known zero divisor X-poisons the result.
        CombOp::DivU | CombOp::DivS | CombOp::RemU | CombOp::RemS
            if both && (vb != 0 || opts.guard_division) =>
        {
            (two(va, vb), m)
        }
        CombOp::Eq | CombOp::Ne | CombOp::Ult | CombOp::Ule | CombOp::Slt | CombOp::Sle if both => {
            (two(va, vb), m)
        }
        // Emitted as a zero-filled shift: total, zeros past the top.
        CombOp::ExtractDyn if opts.bounded_extract_dyn && both => (two(va, vb), m),
        // Emitted as `base[off +: width]`: bits past the top are X (the
        // known plane shifts in zeros), an unknown index poisons all.
        CombOp::ExtractDyn if !opts.bounded_extract_dyn && full(kb, bw) => {
            (two(va, vb), two(ka, vb))
        }
        CombOp::Add
        | CombOp::Sub
        | CombOp::Mul
        | CombOp::Shl
        | CombOp::ShrU
        | CombOp::ShrS
        | CombOp::DivU
        | CombOp::DivS
        | CombOp::RemU
        | CombOp::RemS
        | CombOp::Eq
        | CombOp::Ne
        | CombOp::Ult
        | CombOp::Ule
        | CombOp::Slt
        | CombOp::Sle
        | CombOp::ExtractDyn => (0, 0),
        // A known 0 on either side pins the bit regardless of the other.
        CombOp::And => (va & vb, (ka & kb) | (ka & !va) | (kb & !vb)),
        CombOp::Or => (va | vb, (ka & kb) | (ka & va) | (kb & vb)),
        CombOp::Xor => ((va ^ vb) & ka & kb, ka & kb),
        CombOp::Not => (!va & ka, ka),
        CombOp::Mux if full(ka, aw) => {
            if va == 0 {
                (vc, kc)
            } else {
                (vb, kb)
            }
        }
        // Ambiguous select: bits where both arms are known and agree
        // survive, everything else is X.
        CombOp::Mux => {
            let agree = kb & kc & !(vb ^ vc);
            (vb & agree, agree)
        }
        // Wiring: the same structure on both planes. A static slice past
        // the base reads X (the lint rejects such netlists; the
        // interpreter zero-pads).
        CombOp::Concat | CombOp::Replicate | CombOp::Extract | CombOp::Trunc => {
            (two(va, vb), two(ka, kb))
        }
        CombOp::ZExt => (va, ka | pad),
        // An unknown sign bit makes the replicated pad X.
        CombOp::SExt if sim::bit(&[ka], aw.saturating_sub(1)) => (two(va, vb), ka | pad),
        CombOp::SExt => (va, ka),
    }
}

/// [`eval_word`] for operands or results of any width. `out` holds the
/// result's value and known planes, `words(width)` words each.
#[allow(clippy::too_many_arguments)]
fn eval_wide(
    op: CombOp,
    (ov, ok): (&mut [u64], &mut [u64]),
    width: u32,
    a: Planes<'_>,
    b: Planes<'_>,
    c: Planes<'_>,
    lo: u32,
    opts: &EmitOptions,
) {
    let full = |(_, k, w): Planes<'_>| sim::is_ones(k, w);
    let both = full(a) && full(b);
    let two = |out: &mut [u64], x: &[u64], y: &[u64]| {
        interp::eval_wide(op, out, width, (x, a.2), (y, b.2), (c.0, c.2), lo);
    };
    ov.fill(0);
    ok.fill(0);
    match op {
        CombOp::Add | CombOp::Sub | CombOp::Mul | CombOp::Shl | CombOp::ShrU | CombOp::ShrS
            if both =>
        {
            two(ov, a.0, b.0);
            sim::fill_ones(ok, width);
        }
        CombOp::DivU | CombOp::DivS | CombOp::RemU | CombOp::RemS
            if both && (!sim::is_zero(b.0) || opts.guard_division) =>
        {
            two(ov, a.0, b.0);
            sim::fill_ones(ok, width);
        }
        CombOp::Eq | CombOp::Ne | CombOp::Ult | CombOp::Ule | CombOp::Slt | CombOp::Sle if both => {
            two(ov, a.0, b.0);
            sim::fill_ones(ok, width);
        }
        CombOp::ExtractDyn if opts.bounded_extract_dyn && both => {
            two(ov, a.0, b.0);
            sim::fill_ones(ok, width);
        }
        CombOp::ExtractDyn if !opts.bounded_extract_dyn && full(b) => {
            two(ov, a.0, b.0);
            two(ok, a.1, b.0);
        }
        CombOp::Add
        | CombOp::Sub
        | CombOp::Mul
        | CombOp::Shl
        | CombOp::ShrU
        | CombOp::ShrS
        | CombOp::DivU
        | CombOp::DivS
        | CombOp::RemU
        | CombOp::RemS
        | CombOp::Eq
        | CombOp::Ne
        | CombOp::Ult
        | CombOp::Ule
        | CombOp::Slt
        | CombOp::Sle
        | CombOp::ExtractDyn => {}
        CombOp::And | CombOp::Or | CombOp::Xor | CombOp::Not | CombOp::Mux => {
            let select = full(a).then(|| !sim::is_zero(a.0));
            let at = |p: &[u64], i: usize| p.get(i).copied().unwrap_or(0);
            for i in 0..ov.len() {
                let (va, ka, vb, kb) = (at(a.0, i), at(a.1, i), at(b.0, i), at(b.1, i));
                let (vc, kc) = (at(c.0, i), at(c.1, i));
                (ov[i], ok[i]) = match (op, select) {
                    (CombOp::And, _) => (va & vb, (ka & kb) | (ka & !va) | (kb & !vb)),
                    (CombOp::Or, _) => (va | vb, (ka & kb) | (ka & va) | (kb & vb)),
                    (CombOp::Xor, _) => ((va ^ vb) & ka & kb, ka & kb),
                    (CombOp::Not, _) => (!va & ka, ka),
                    (_, Some(true)) => (vb, kb),
                    (_, Some(false)) => (vc, kc),
                    (_, None) => {
                        let agree = kb & kc & !(vb ^ vc);
                        (vb & agree, agree)
                    }
                };
            }
            sim::mask_top(ov, width);
            sim::mask_top(ok, width);
        }
        CombOp::Concat | CombOp::Replicate | CombOp::Extract | CombOp::Trunc => {
            two(ov, a.0, b.0);
            two(ok, a.1, b.1);
        }
        CombOp::ZExt => {
            two(ov, a.0, b.0);
            two(ok, a.1, b.1);
            sim::set_ones(ok, a.2, width);
        }
        CombOp::SExt => {
            let sign_known = sim::bit(a.1, a.2.saturating_sub(1));
            interp::eval_wide(
                if sign_known {
                    CombOp::SExt
                } else {
                    CombOp::ZExt
                },
                ov,
                width,
                (a.0, a.2),
                (b.0, b.2),
                (c.0, c.2),
                lo,
            );
            interp::eval_wide(
                CombOp::ZExt,
                ok,
                width,
                (a.1, a.2),
                (b.1, b.2),
                (c.1, c.2),
                lo,
            );
            if sign_known {
                sim::set_ones(ok, a.2, width);
            }
        }
    }
}

/// A divergence found by the oracle: a cycle where a fully-known
/// four-state net disagrees with the two-valued interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffMismatch {
    /// Cycle number (0-based, counted from the first [`DiffSim::step`]).
    pub cycle: u64,
    /// Offending net index.
    pub net: usize,
    /// Debug name of the net (may be empty).
    pub name: String,
    /// Description of the net's driver (e.g. `DivU`, `Reg`).
    pub driver: String,
    /// The two-valued interpreter's value.
    pub interp: ApInt,
    /// The fully-known four-state value.
    pub xsim: ApInt,
}

impl fmt::Display for DiffMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: net {} `{}` ({}) interp={:x} xsim={:x}",
            self.cycle, self.net, self.name, self.driver, self.interp, self.xsim
        )
    }
}

impl std::error::Error for DiffMismatch {}

/// Per-cycle oracle statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffCycle {
    /// Cycle number of this step (0-based).
    pub cycle: u64,
    /// X bits observed on output ports this cycle. With fully-known
    /// stimulus, any nonzero count means the emitted SystemVerilog can
    /// produce X where the interpreter promises a value.
    pub output_x_bits: u64,
    /// X bits across all nets this cycle.
    pub net_x_bits: u64,
}

/// The differential oracle: the two-valued interpreter and the four-state
/// simulator in lockstep over identical stimulus.
#[derive(Debug, Clone)]
pub struct DiffSim {
    interp: Simulator,
    xsim: Xsim,
    cycle: u64,
}

impl DiffSim {
    /// Builds the pair with the default (X-safe) emission semantics. The
    /// four-state side starts from a completed reset so both simulators
    /// agree on register state.
    pub fn new(module: Module) -> Self {
        Self::with_options(module, EmitOptions::default())
    }

    /// Builds the pair modelling `opts`-style emission.
    pub fn with_options(module: Module, opts: EmitOptions) -> Self {
        Self::from_tape(Arc::new(NetTape::new(module)), opts)
    }

    /// Builds the pair over one compiled tape.
    pub fn from_tape(tape: Arc<NetTape>, opts: EmitOptions) -> Self {
        let interp = Simulator::from_tape(Arc::clone(&tape));
        let mut xsim = Xsim::from_tape(tape, opts);
        xsim.reset();
        Self::from_parts(interp, xsim)
    }

    /// Builds the pair from independently constructed halves. This is the
    /// regression-test hook: handing the four-state side a module that
    /// differs from the interpreter's models an emitter bug, and the
    /// oracle must flag it.
    pub fn from_parts(interp: Simulator, xsim: Xsim) -> Self {
        assert_eq!(
            interp.tape().net_count(),
            xsim.tape().net_count(),
            "differential halves must have the same net count"
        );
        DiffSim {
            interp,
            xsim,
            cycle: 0,
        }
    }

    /// The two-valued half.
    pub fn interp(&self) -> &Simulator {
        &self.interp
    }

    /// The four-state half.
    pub fn xsim(&self) -> &Xsim {
        &self.xsim
    }

    /// Drives input port `port` of both halves with the fully-known
    /// `value`; it holds until driven again.
    pub fn set_input(&mut self, port: usize, value: &[u64]) {
        self.interp.set_input(port, value);
        self.xsim.set_input_known(port, value);
    }

    /// Runs one cycle on the inputs driven so far (ports never driven are
    /// zero on the two-valued side and X on the four-state side) and
    /// compares every net.
    ///
    /// # Errors
    ///
    /// The first net (in definition order) whose fully-known four-state
    /// value differs from the interpreter's.
    pub fn advance(&mut self) -> Result<DiffCycle, Box<DiffMismatch>> {
        self.interp.evaluate();
        self.xsim.evaluate();
        self.compare_and_clock()
    }

    /// Name-keyed adapter: drives both simulators one cycle with the same
    /// fully-known inputs (missing inputs: zero and X) and compares every
    /// net.
    ///
    /// # Errors
    ///
    /// The first net (in definition order) whose fully-known four-state
    /// value differs from the interpreter's.
    pub fn step(
        &mut self,
        inputs: &HashMap<String, ApInt>,
    ) -> Result<DiffCycle, Box<DiffMismatch>> {
        self.interp.eval(inputs);
        self.xsim.eval(inputs);
        self.compare_and_clock()
    }

    fn compare_and_clock(&mut self) -> Result<DiffCycle, Box<DiffMismatch>> {
        let cycle = self.cycle;
        let (itape, xtape) = (self.interp.tape(), self.xsim.tape());
        let mut net_x_bits = 0u64;
        for (i, (&is, &xs)) in itape.net_slots().iter().zip(xtape.net_slots()).enumerate() {
            let (value, known) = self.xsim.slot_planes(xs);
            if !sim::is_ones(known, xs.width) {
                net_x_bits += u64::from(sim::x_bits(known, xs.width));
                continue;
            }
            let expected = self.interp.slot_words(is);
            if is.width != xs.width || value != expected {
                let net = &self.xsim.module().nets[i];
                return Err(Box::new(DiffMismatch {
                    cycle,
                    net: i,
                    name: net.name.clone(),
                    driver: driver_desc(&net.driver),
                    interp: ApInt::from_limbs(expected, is.width),
                    xsim: ApInt::from_limbs(value, xs.width),
                }));
            }
        }
        let output_x_bits = xtape
            .outputs()
            .iter()
            .map(|&(_, slot)| u64::from(sim::x_bits(self.xsim.slot_planes(slot).1, slot.width)))
            .sum();
        self.interp.clock();
        self.xsim.clock();
        self.cycle += 1;
        Ok(DiffCycle {
            cycle,
            output_x_bits,
            net_x_bits,
        })
    }
}

/// Short description of a net's driver for oracle reports.
fn driver_desc(d: &Driver) -> String {
    match d {
        Driver::Input { .. } => "Input".into(),
        Driver::Const(_) => "Const".into(),
        Driver::Reg { .. } => "Reg".into(),
        Driver::Rom { .. } => "Rom".into(),
        Driver::Comb { op, .. } => format!("{op:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{NetId, PortDir};

    fn inputs(pairs: &[(&str, u64, u32)]) -> HashMap<String, ApInt> {
        pairs
            .iter()
            .map(|&(n, v, w)| (n.to_string(), ApInt::from_u64(v, w)))
            .collect()
    }

    /// in(a), in(b) -> one comb op -> output.
    fn binop_module(op: CombOp, width: u32, out_width: u32) -> Module {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, width);
        let b = m.add_port("b", PortDir::Input, width);
        let o = m.add_port("o", PortDir::Output, out_width);
        let na = m.add_net(Driver::Input { port: a }, width, "a");
        let nb = m.add_net(Driver::Input { port: b }, width, "b");
        let r = m.add_net(
            Driver::Comb {
                op,
                args: vec![na, nb],
                lo: 0,
            },
            out_width,
            "r",
        );
        m.connect_output(o, r);
        m
    }

    #[test]
    fn known_inputs_evaluate_exactly() {
        let mut sim = Xsim::new(binop_module(CombOp::Add, 8, 8));
        let out = sim.eval(&inputs(&[("a", 5, 8), ("b", 7, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 12);
    }

    #[test]
    fn missing_input_poisons_arithmetic_but_not_masked_logic() {
        // b missing (all-X): a + b is all X; a & b keeps the known zeros
        // of a.
        let mut add = Xsim::new(binop_module(CombOp::Add, 8, 8));
        let out = add.eval(&inputs(&[("a", 5, 8)]));
        assert_eq!(out["o"].x_bits(), 8);

        let mut and = Xsim::new(binop_module(CombOp::And, 8, 8));
        let out = and.eval(&inputs(&[("a", 0b0000_0101, 8)]));
        // Bits where a is 0 are known-0; bits where a is 1 follow X.
        assert_eq!(out["o"].x_bits(), 2);
        assert_eq!(out["o"].value_plane().to_u64(), 0);

        let mut or = Xsim::new(binop_module(CombOp::Or, 8, 8));
        let out = or.eval(&inputs(&[("a", 0b0000_0101, 8)]));
        assert_eq!(out["o"].x_bits(), 6);
        assert_eq!(out["o"].value_plane().to_u64(), 0b0000_0101);
    }

    #[test]
    fn guarded_division_is_total_unguarded_division_x_propagates() {
        for op in [CombOp::DivU, CombOp::DivS, CombOp::RemU, CombOp::RemS] {
            let mut safe = Xsim::new(binop_module(op, 8, 8));
            let out = safe.eval(&inputs(&[("a", 100, 8), ("b", 0, 8)]));
            assert!(out["o"].is_fully_known(), "{op:?} guarded");

            let raw = EmitOptions {
                guard_division: false,
                ..EmitOptions::default()
            };
            let mut unsafe_sim = Xsim::with_options(binop_module(op, 8, 8), raw);
            let out = unsafe_sim.eval(&inputs(&[("a", 100, 8), ("b", 0, 8)]));
            assert_eq!(out["o"].x_bits(), 8, "{op:?} unguarded by zero");
            // Non-zero divisors are exact either way.
            let out = unsafe_sim.eval(&inputs(&[("a", 100, 8), ("b", 7, 8)]));
            assert!(out["o"].is_fully_known(), "{op:?} unguarded nonzero");
        }
    }

    #[test]
    fn mux_with_x_select_merges_agreeing_bits() {
        let mut m = Module::new("t");
        let c = m.add_port("c", PortDir::Input, 1);
        let o = m.add_port("o", PortDir::Output, 4);
        let nc = m.add_net(Driver::Input { port: c }, 1, "c");
        let t = m.add_net(Driver::Const(ApInt::from_u64(0b1010, 4)), 4, "t");
        let e = m.add_net(Driver::Const(ApInt::from_u64(0b1001, 4)), 4, "e");
        let mx = m.add_net(
            Driver::Comb {
                op: CombOp::Mux,
                args: vec![nc, t, e],
                lo: 0,
            },
            4,
            "mx",
        );
        m.connect_output(o, mx);
        let mut sim = Xsim::new(m);
        // Select X: arms agree on bits 3 (1) and 0 (hi arm 0, lo arm 1 —
        // disagree), bit 3 = 1/1 agree, bit 2 = 0/0 agree, bits 1,0 differ.
        let out = sim.eval(&HashMap::new());
        assert_eq!(out["o"].x_bits(), 2);
        assert!(out["o"].known_plane().bit(3) && out["o"].known_plane().bit(2));
        // Known select picks the arm exactly.
        let out = sim.eval(&inputs(&[("c", 1, 1)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0b1010);
    }

    #[test]
    fn comparisons_are_x_pessimistic() {
        let mut sim = Xsim::new(binop_module(CombOp::Eq, 8, 1));
        let out = sim.eval(&inputs(&[("a", 3, 8)]));
        assert_eq!(out["o"].x_bits(), 1);
        let out = sim.eval(&inputs(&[("a", 3, 8), ("b", 3, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 1);
    }

    #[test]
    fn registers_power_up_x_and_reset_known() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let r = m.add_net(
            Driver::Reg {
                next: na,
                enable: None,
                init: ApInt::from_u64(0x5a, 8),
            },
            8,
            "r",
        );
        m.connect_output(o, r);
        let mut sim = Xsim::new(m);
        let out = sim.step(&inputs(&[("a", 1, 8)]));
        assert_eq!(out["o"].x_bits(), 8, "un-reset register reads X");
        sim.reset();
        let out = sim.step(&inputs(&[("a", 1, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0x5a);
        let out = sim.step(&inputs(&[("a", 2, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 1);
    }

    #[test]
    fn x_enable_merges_register_hold_and_load() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 4);
        let en = m.add_port("en", PortDir::Input, 1);
        let o = m.add_port("o", PortDir::Output, 4);
        let na = m.add_net(Driver::Input { port: a }, 4, "a");
        let nen = m.add_net(Driver::Input { port: en }, 1, "en");
        let r = m.add_net(
            Driver::Reg {
                next: na,
                enable: Some(nen),
                init: ApInt::from_u64(0b1100, 4),
            },
            4,
            "r",
        );
        m.connect_output(o, r);
        let mut sim = Xsim::new(m);
        sim.reset();
        // en is X; load value 0b1010 vs hold 0b1100: bit 3 agrees (1),
        // bit 0 agrees (0), bits 2 and 1 disagree -> X.
        sim.step(&inputs(&[("a", 0b1010, 4)]));
        let out = sim.eval(&inputs(&[("a", 0, 4), ("en", 0, 1)]));
        assert_eq!(out["o"].x_bits(), 2);
        assert!(out["o"].known_plane().bit(3) && out["o"].known_plane().bit(0));
    }

    #[test]
    fn bounded_dynamic_extract_is_total_raw_form_is_x_past_the_top() {
        // base is 8 bits, extract 4 from a dynamic offset.
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let off = m.add_port("off", PortDir::Input, 4);
        let o = m.add_port("o", PortDir::Output, 4);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let noff = m.add_net(Driver::Input { port: off }, 4, "off");
        let ex = m.add_net(
            Driver::Comb {
                op: CombOp::ExtractDyn,
                args: vec![na, noff],
                lo: 0,
            },
            4,
            "ex",
        );
        m.connect_output(o, ex);

        let mut bounded = Xsim::new(m.clone());
        let raw = EmitOptions {
            bounded_extract_dyn: false,
            ..EmitOptions::default()
        };
        let mut unbounded = Xsim::with_options(m, raw);
        // Offset 6: bits [9:6] — two bits past the 8-bit base.
        let stim = inputs(&[("a", 0xff, 8), ("off", 6, 4)]);
        let out = bounded.eval(&stim);
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0b0011);
        let out = unbounded.eval(&stim);
        assert_eq!(out["o"].x_bits(), 2, "raw +: is X past the top");
        assert_eq!(out["o"].value_plane().to_u64(), 0b0011);
        // In-range offsets agree between both forms.
        let stim = inputs(&[("a", 0xa5, 8), ("off", 4, 4)]);
        assert_eq!(
            bounded.eval(&stim)["o"],
            unbounded.eval(&stim)["o"],
            "in-range dynamic extract"
        );
    }

    #[test]
    fn sext_with_unknown_sign_bit_pads_x() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 4);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 4, "a");
        let sx = m.add_net(
            Driver::Comb {
                op: CombOp::SExt,
                args: vec![na],
                lo: 0,
            },
            8,
            "sx",
        );
        m.connect_output(o, sx);
        let mut sim = Xsim::new(m);
        let out = sim.eval(&HashMap::new());
        assert_eq!(out["o"].x_bits(), 8);
        let out = sim.eval(&inputs(&[("a", 0b1001, 4)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0b1111_1001);
    }

    #[test]
    fn oracle_passes_clean_module_and_flags_divergent_halves() {
        let m = binop_module(CombOp::Add, 8, 8);
        let mut diff = DiffSim::new(m.clone());
        let stim = inputs(&[("a", 3, 8), ("b", 4, 8)]);
        let report = diff.step(&stim).unwrap();
        assert_eq!(report.output_x_bits, 0);

        // Model an emitter bug: the "SystemVerilog" side computes Sub
        // where the compiler meant Add.
        let mut wrong = m.clone();
        if let Driver::Comb { op, .. } = &mut wrong.nets[2].driver {
            *op = CombOp::Sub;
        }
        let mut diff = DiffSim::from_parts(
            Simulator::new(m),
            Xsim::with_options(wrong, EmitOptions::default()),
        );
        let err = diff.step(&stim).unwrap_err();
        assert_eq!(err.net, 2);
        assert_eq!(err.driver, "Sub");
        assert_eq!(err.cycle, 0);
        assert_eq!(err.interp.to_u64(), 7);
        assert_eq!(err.xsim.to_u64(), 0xff);
    }

    #[test]
    fn oracle_counts_x_outputs_from_known_inputs_for_unguarded_division() {
        let m = binop_module(CombOp::DivU, 8, 8);
        let raw = EmitOptions {
            guard_division: false,
            ..EmitOptions::default()
        };
        let mut diff = DiffSim::with_options(m, raw);
        let report = diff.step(&inputs(&[("a", 9, 8), ("b", 0, 8)])).unwrap();
        assert_eq!(report.output_x_bits, 8, "X escapes to an output");
        let report = diff.step(&inputs(&[("a", 9, 8), ("b", 3, 8)])).unwrap();
        assert_eq!(report.output_x_bits, 0);
    }

    #[test]
    fn rom_reads_with_known_index_are_known() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 4);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        m.roms.push(crate::netlist::RomData {
            name: "tab".into(),
            width: 4,
            contents: vec![ApInt::from_u64(3, 4), ApInt::from_u64(9, 4)],
        });
        let rd = m.add_net(Driver::Rom { rom: 0, index: na }, 4, "rd");
        m.connect_output(o, rd);
        let mut sim = Xsim::new(m);
        let out = sim.eval(&inputs(&[("a", 1, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 9);
        // Past the end: the emitted guard reads zero, still known.
        let out = sim.eval(&inputs(&[("a", 200, 8)]));
        assert_eq!(out["o"].as_known().unwrap().to_u64(), 0);
        // Unknown index: X word.
        let out = sim.eval(&HashMap::new());
        assert_eq!(out["o"].x_bits(), 4);
    }

    #[test]
    fn netid_type_is_reexported_shape() {
        // Sanity: NetId indexes align between interp values and xsim values.
        let m = binop_module(CombOp::Xor, 8, 8);
        let mut diff = DiffSim::new(m);
        diff.step(&inputs(&[("a", 0xf0, 8), ("b", 0x0f, 8)]))
            .unwrap();
        assert_eq!(
            diff.xsim().net(NetId(2).0).as_known().unwrap().to_u64(),
            0xff
        );
        assert_eq!(diff.interp().net_value(2).to_u64(), 0xff);
    }
}
