//! The `ApInt` reference walkers: the two-valued and four-state netlist
//! simulators, their operator tables, the differential oracle and the
//! opt-stage equivalence gate exactly as they ran before [`crate::sim`]'s
//! tape replaced them.
//!
//! Test-only (compiled under `cfg(test)` or the `reference` feature): the
//! tape interpreters are checked against these walkers net by net, and the
//! module goes once that check has run alongside the tape for one change.
//! Every net value is a heap `ApInt` per cycle and ports go through
//! `HashMap<String, _>`, which is why the tape replaced them.

use crate::netlist::{CombOp, Driver, Module};
use crate::verilog::EmitOptions;
use crate::xsim::{DiffCycle, DiffMismatch, XVal};
use bits::ApInt;
use std::collections::HashMap;

/// An all-X value of the given width.
fn all_x(width: u32) -> XVal {
    XVal {
        value: ApInt::zero(width),
        known: ApInt::zero(width),
    }
}

/// Pessimistic merge of two same-width candidates (the IEEE conditional
/// operator with an ambiguous select): bits where both sides are known
/// and agree survive, everything else is X.
fn merge(x: &XVal, y: &XVal) -> XVal {
    let agree = x.known.and(&y.known).and(&x.value.xor(&y.value).not());
    XVal {
        value: x.value.and(&agree),
        known: agree,
    }
}

/// The two-valued `ApInt` walker.
#[derive(Debug, Clone)]
pub struct Simulator {
    module: Module,
    /// Current register values (indexed by net id; `None` for non-regs).
    regs: Vec<Option<ApInt>>,
    /// Net values from the most recent evaluation.
    values: Vec<ApInt>,
}

impl Simulator {
    /// Creates a simulator with all registers at their reset values.
    pub fn new(module: Module) -> Self {
        let regs = module
            .nets
            .iter()
            .map(|n| match &n.driver {
                Driver::Reg { init, .. } => Some(init.clone()),
                _ => None,
            })
            .collect();
        let values = module.nets.iter().map(|n| ApInt::zero(n.width)).collect();
        Simulator {
            module,
            regs,
            values,
        }
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// All net values from the most recent [`Simulator::eval`], indexed by
    /// net id.
    pub fn net_values(&self) -> &[ApInt] {
        &self.values
    }

    /// Resets all registers to their initial values.
    pub fn reset(&mut self) {
        for (i, net) in self.module.nets.iter().enumerate() {
            if let Driver::Reg { init, .. } = &net.driver {
                self.regs[i] = Some(init.clone());
            }
        }
    }

    /// Evaluates the combinational fabric for the given input values and
    /// returns the output-port values. Does **not** clock the registers.
    ///
    /// Missing inputs default to zero.
    pub fn eval(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let port_values: Vec<ApInt> = self
            .module
            .ports
            .iter()
            .map(|p| {
                inputs
                    .get(&p.name)
                    .map(|v| v.zext_or_trunc(p.width))
                    .unwrap_or_else(|| ApInt::zero(p.width))
            })
            .collect();
        for i in 0..self.module.nets.len() {
            let net = &self.module.nets[i];
            let width = net.width;
            let value = match &net.driver {
                Driver::Input { port } => port_values[*port].clone(),
                Driver::Const(c) => c.clone(),
                Driver::Reg { .. } => self.regs[i].clone().expect("register state"),
                Driver::Rom { rom, index } => {
                    let table = &self.module.roms[*rom];
                    // Indices past the table (or past the platform's usize,
                    // which would otherwise wrap on 32-bit targets) read zero.
                    self.values[index.0]
                        .try_to_u64()
                        .and_then(|v| usize::try_from(v).ok())
                        .and_then(|idx| table.contents.get(idx))
                        .cloned()
                        .unwrap_or_else(|| ApInt::zero(table.width))
                }
                Driver::Comb { op, args, lo } => {
                    eval_comb2(*op, |k| &self.values[args[k].0], *lo, width)
                }
            };
            debug_assert_eq!(value.width(), width, "net {i} width mismatch");
            self.values[i] = value;
        }
        self.module
            .outputs
            .iter()
            .map(|&(port, net)| {
                (
                    self.module.ports[port].name.clone(),
                    self.values[net.0].clone(),
                )
            })
            .collect()
    }

    /// Latches all registers based on the most recent [`Simulator::eval`].
    pub fn clock(&mut self) {
        let mut next_values: Vec<(usize, ApInt)> = Vec::new();
        for (i, net) in self.module.nets.iter().enumerate() {
            if let Driver::Reg { next, enable, .. } = &net.driver {
                let en = enable.map(|e| !self.values[e.0].is_zero()).unwrap_or(true);
                if en {
                    next_values.push((i, self.values[next.0].clone()));
                }
            }
        }
        for (i, v) in next_values {
            self.regs[i] = Some(v);
        }
    }

    /// Convenience: `eval` then `clock`, returning the sampled outputs.
    pub fn step(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let outputs = self.eval(inputs);
        self.clock();
        outputs
    }
}

/// Evaluates one combinational operator with the two-valued semantics.
/// `a(k)` reads operand `k`.
pub fn eval_comb2<'a>(op: CombOp, a: impl Fn(usize) -> &'a ApInt, lo: u32, width: u32) -> ApInt {
    match op {
        CombOp::Add => a(0).add(a(1)),
        CombOp::Sub => a(0).sub(a(1)),
        CombOp::Mul => a(0).mul(a(1)),
        CombOp::DivU => a(0).udiv(a(1)),
        CombOp::DivS => a(0).sdiv(a(1)),
        CombOp::RemU => a(0).urem(a(1)),
        CombOp::RemS => a(0).srem(a(1)),
        CombOp::And => a(0).and(a(1)),
        CombOp::Or => a(0).or(a(1)),
        CombOp::Xor => a(0).xor(a(1)),
        CombOp::Not => a(0).not(),
        CombOp::Shl => a(0).shl(a(1)),
        CombOp::ShrU => a(0).lshr(a(1)),
        CombOp::ShrS => a(0).ashr(a(1)),
        CombOp::Eq => ApInt::from_bool(a(0) == a(1)),
        CombOp::Ne => ApInt::from_bool(a(0) != a(1)),
        CombOp::Ult => ApInt::from_bool(a(0).ult(a(1))),
        CombOp::Ule => ApInt::from_bool(a(0).ule(a(1))),
        CombOp::Slt => ApInt::from_bool(a(0).slt(a(1))),
        CombOp::Sle => ApInt::from_bool(a(0).sle(a(1))),
        CombOp::Mux => {
            if a(0).is_zero() {
                a(2).clone()
            } else {
                a(1).clone()
            }
        }
        CombOp::Concat => a(0).concat(a(1)),
        CombOp::Replicate => a(0).replicate(lo),
        CombOp::Extract => {
            let base = a(0);
            let need = lo + width;
            let padded = if base.width() < need {
                base.zext(need)
            } else {
                base.clone()
            };
            padded.extract(lo, width)
        }
        CombOp::ExtractDyn => a(0).lshr(a(1)).zext_or_trunc(width),
        CombOp::ZExt => a(0).zext(width),
        CombOp::SExt => a(0).sext(width),
        CombOp::Trunc => a(0).trunc(width),
    }
}

/// The four-state netlist simulator.
///
/// Registers power up all-X, exactly like un-reset `always_ff` state in
/// real simulation; [`Xsim::reset`] models a completed synchronous reset
/// pulse (every register takes its `init`). Missing inputs are all-X,
/// where the two-valued interpreter silently assumes zero.
#[derive(Debug, Clone)]
pub struct Xsim {
    module: Module,
    opts: EmitOptions,
    /// Register state (indexed by net id; `None` for non-regs).
    regs: Vec<Option<XVal>>,
    /// Net values from the most recent evaluation.
    values: Vec<XVal>,
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
        let regs = module
            .nets
            .iter()
            .map(|n| match &n.driver {
                Driver::Reg { .. } => Some(all_x(n.width)),
                _ => None,
            })
            .collect();
        let values = module.nets.iter().map(|n| all_x(n.width)).collect();
        Xsim {
            module,
            opts,
            regs,
            values,
        }
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Models a completed synchronous reset: every register holds its
    /// `init` value, fully known.
    pub fn reset(&mut self) {
        for (i, net) in self.module.nets.iter().enumerate() {
            if let Driver::Reg { init, .. } = &net.driver {
                self.regs[i] = Some(XVal::known(init.clone()));
            }
        }
    }

    /// The most recent value of net `i`.
    pub fn net(&self, i: usize) -> &XVal {
        &self.values[i]
    }

    /// All net values from the most recent evaluation.
    pub fn net_values(&self) -> &[XVal] {
        &self.values
    }

    /// Evaluates the combinational fabric with fully-known inputs.
    /// Missing inputs are all-X.
    pub fn eval(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, XVal> {
        let four_state: HashMap<String, XVal> = inputs
            .iter()
            .map(|(k, v)| (k.clone(), XVal::known(v.clone())))
            .collect();
        self.eval_x(&four_state)
    }

    /// Evaluates the combinational fabric with four-state inputs and
    /// returns the output-port values. Does **not** clock the registers.
    pub fn eval_x(&mut self, inputs: &HashMap<String, XVal>) -> HashMap<String, XVal> {
        let port_values: Vec<XVal> = self
            .module
            .ports
            .iter()
            .map(|p| match inputs.get(&p.name) {
                Some(v) if v.width() == p.width => v.clone(),
                Some(v) => XVal {
                    value: v.value.zext_or_trunc(p.width),
                    known: v.known.zext_or_trunc(p.width),
                },
                None => all_x(p.width),
            })
            .collect();
        for i in 0..self.module.nets.len() {
            let net = &self.module.nets[i];
            let width = net.width;
            let value = match &net.driver {
                Driver::Input { port } => port_values[*port].clone(),
                Driver::Const(c) => XVal::known(c.clone()),
                Driver::Reg { .. } => self.regs[i].clone().expect("register state"),
                Driver::Rom { rom, index } => {
                    let table = &self.module.roms[*rom];
                    // The emitter guards out-of-range-capable reads, so a
                    // known index always yields a known word (zero when
                    // past the end or the ROM is empty).
                    match self.values[index.0].as_known() {
                        Some(idx) => {
                            let word = idx
                                .try_to_u64()
                                .and_then(|v| usize::try_from(v).ok())
                                .and_then(|k| table.contents.get(k))
                                .cloned()
                                .unwrap_or_else(|| ApInt::zero(table.width));
                            XVal::known(word)
                        }
                        None => all_x(width),
                    }
                }
                Driver::Comb { op, args, lo } => {
                    let a = |k: usize| &self.values[args[k].0];
                    eval_comb4(*op, a, *lo, width, &self.opts)
                }
            };
            debug_assert_eq!(value.width(), width, "net {i} width mismatch");
            self.values[i] = value;
        }
        self.module
            .outputs
            .iter()
            .map(|&(port, net)| {
                (
                    self.module.ports[port].name.clone(),
                    self.values[net.0].clone(),
                )
            })
            .collect()
    }

    /// Latches all registers based on the most recent evaluation. An X
    /// enable merges hold and load pessimistically.
    pub fn clock(&mut self) {
        let mut next_values: Vec<(usize, XVal)> = Vec::new();
        for (i, net) in self.module.nets.iter().enumerate() {
            if let Driver::Reg { next, enable, .. } = &net.driver {
                let hold = self.regs[i].clone().expect("register state");
                let load = self.values[next.0].clone();
                let latched = match enable {
                    None => load,
                    Some(e) => match self.values[e.0].as_known() {
                        Some(en) if en.is_zero() => hold,
                        Some(_) => load,
                        None => merge(&hold, &load),
                    },
                };
                next_values.push((i, latched));
            }
        }
        for (i, v) in next_values {
            self.regs[i] = Some(v);
        }
    }

    /// Convenience: `eval` then `clock`, returning the sampled outputs.
    pub fn step(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, XVal> {
        let outputs = self.eval(inputs);
        self.clock();
        outputs
    }
}

/// Evaluates one combinational operator under IEEE-1800 semantics of the
/// expression the emitter produces for it.
pub fn eval_comb4<'a>(
    op: CombOp,
    a: impl Fn(usize) -> &'a XVal,
    lo: u32,
    width: u32,
    opts: &EmitOptions,
) -> XVal {
    // Arithmetic (and other whole-word) operators: any X in any operand
    // X-poisons the entire result, per the LRM.
    let lift2 = |x: &XVal, y: &XVal, f: &dyn Fn(&ApInt, &ApInt) -> ApInt| match (
        x.as_known(),
        y.as_known(),
    ) {
        (Some(p), Some(q)) => XVal::known(f(p, q)),
        _ => all_x(width),
    };
    // `/` and `%`: with the emitter's zero-divisor guard the expression is
    // total and matches the ApInt (RISC-V) convention; unguarded, a known
    // zero divisor X-poisons the result even though every input is known.
    let div2 = |x: &XVal, y: &XVal, f: &dyn Fn(&ApInt, &ApInt) -> ApInt| match (
        x.as_known(),
        y.as_known(),
    ) {
        (Some(p), Some(q)) => {
            if q.is_zero() && !opts.guard_division {
                all_x(width)
            } else {
                XVal::known(f(p, q))
            }
        }
        _ => all_x(width),
    };
    let cmp2 =
        |x: &XVal, y: &XVal, f: &dyn Fn(&ApInt, &ApInt) -> bool| match (x.as_known(), y.as_known())
        {
            (Some(p), Some(q)) => XVal::known(ApInt::from_bool(f(p, q))),
            _ => all_x(1),
        };
    match op {
        CombOp::Add => lift2(a(0), a(1), &|p, q| p.add(q)),
        CombOp::Sub => lift2(a(0), a(1), &|p, q| p.sub(q)),
        CombOp::Mul => lift2(a(0), a(1), &|p, q| p.mul(q)),
        CombOp::DivU => div2(a(0), a(1), &|p, q| p.udiv(q)),
        CombOp::DivS => div2(a(0), a(1), &|p, q| p.sdiv(q)),
        CombOp::RemU => div2(a(0), a(1), &|p, q| p.urem(q)),
        CombOp::RemS => div2(a(0), a(1), &|p, q| p.srem(q)),
        CombOp::Shl => lift2(a(0), a(1), &|p, q| p.shl(q)),
        CombOp::ShrU => lift2(a(0), a(1), &|p, q| p.lshr(q)),
        CombOp::ShrS => lift2(a(0), a(1), &|p, q| p.ashr(q)),
        CombOp::And => {
            let (x, y) = (a(0), a(1));
            // A known 0 on either side pins the bit regardless of the other.
            let zero_x = x.known.and(&x.value.not());
            let zero_y = y.known.and(&y.value.not());
            let known = x.known.and(&y.known).or(&zero_x).or(&zero_y);
            XVal {
                value: x.value.and(&y.value),
                known,
            }
        }
        CombOp::Or => {
            let (x, y) = (a(0), a(1));
            let one_x = x.known.and(&x.value);
            let one_y = y.known.and(&y.value);
            let known = x.known.and(&y.known).or(&one_x).or(&one_y);
            XVal {
                value: x.value.or(&y.value),
                known,
            }
        }
        CombOp::Xor => {
            let (x, y) = (a(0), a(1));
            let known = x.known.and(&y.known);
            XVal {
                value: x.value.xor(&y.value).and(&known),
                known,
            }
        }
        CombOp::Not => {
            let x = a(0);
            XVal {
                value: x.value.not().and(&x.known),
                known: x.known.clone(),
            }
        }
        CombOp::Eq => cmp2(a(0), a(1), &|p, q| p == q),
        CombOp::Ne => cmp2(a(0), a(1), &|p, q| p != q),
        CombOp::Ult => cmp2(a(0), a(1), &|p, q| p.ult(q)),
        CombOp::Ule => cmp2(a(0), a(1), &|p, q| p.ule(q)),
        CombOp::Slt => cmp2(a(0), a(1), &|p, q| p.slt(q)),
        CombOp::Sle => cmp2(a(0), a(1), &|p, q| p.sle(q)),
        CombOp::Mux => match a(0).as_known() {
            Some(c) if c.is_zero() => a(2).clone(),
            Some(_) => a(1).clone(),
            None => merge(a(1), a(2)),
        },
        CombOp::Concat => {
            let (x, y) = (a(0), a(1));
            XVal {
                value: x.value.concat(&y.value),
                known: x.known.concat(&y.known),
            }
        }
        CombOp::Replicate => {
            let x = a(0);
            XVal {
                value: x.value.replicate(lo),
                known: x.known.replicate(lo),
            }
        }
        CombOp::Extract => {
            // `base[lo+width-1:lo]` — bits past the base are X in SV (the
            // lint rejects such netlists; the interpreter zero-pads).
            let x = a(0);
            let bw = x.width();
            let mut value = ApInt::zero(width);
            let mut known = ApInt::zero(width);
            for i in 0..width {
                let src = u64::from(lo) + u64::from(i);
                if src < u64::from(bw) {
                    value.set_bit(i, x.value.bit(src as u32));
                    known.set_bit(i, x.known.bit(src as u32));
                }
            }
            XVal { value, known }
        }
        CombOp::ExtractDyn => {
            let (x, off) = (a(0), a(1));
            if opts.bounded_extract_dyn {
                // Emitted as a zero-filled shift: total, zeros past the top.
                match (x.as_known(), off.as_known()) {
                    (Some(p), Some(q)) => XVal::known(p.lshr(q).zext_or_trunc(width)),
                    _ => all_x(width),
                }
            } else {
                // Emitted as `base[off +: width]`: out-of-range bits are X,
                // an unknown index poisons everything.
                match off.as_known() {
                    None => all_x(width),
                    Some(q) => {
                        let bw = u64::from(x.width());
                        let base_off = q.try_to_u64();
                        let mut value = ApInt::zero(width);
                        let mut known = ApInt::zero(width);
                        for i in 0..width {
                            let src = base_off.and_then(|o| o.checked_add(u64::from(i)));
                            if let Some(s) = src.filter(|&s| s < bw) {
                                value.set_bit(i, x.value.bit(s as u32));
                                known.set_bit(i, x.known.bit(s as u32));
                            }
                        }
                        XVal { value, known }
                    }
                }
            }
        }
        CombOp::ZExt => {
            let x = a(0);
            let sw = x.width();
            if width == sw {
                // Emitted as a plain alias.
                x.clone()
            } else {
                let pad = ApInt::ones(width).shl_bits(sw);
                XVal {
                    value: x.value.zext(width),
                    known: x.known.zext(width).or(&pad),
                }
            }
        }
        CombOp::SExt => {
            let x = a(0);
            let sw = x.width();
            if width == sw {
                x.clone()
            } else if x.known.bit(sw - 1) {
                let pad = ApInt::ones(width).shl_bits(sw);
                XVal {
                    value: x.value.sext(width),
                    known: x.known.zext(width).or(&pad),
                }
            } else {
                // Unknown sign bit: the replicated pad is X.
                XVal {
                    value: x.value.zext(width),
                    known: x.known.zext(width),
                }
            }
        }
        CombOp::Trunc => {
            let x = a(0);
            XVal {
                value: x.value.trunc(width),
                known: x.known.trunc(width),
            }
        }
    }
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
        let interp = Simulator::new(module.clone());
        let mut xsim = Xsim::with_options(module, opts);
        xsim.reset();
        Self::from_parts(interp, xsim)
    }

    /// Builds the pair from independently constructed halves. This is the
    /// regression-test hook: handing the four-state side a module that
    /// differs from the interpreter's models an emitter bug, and the
    /// oracle must flag it.
    pub fn from_parts(interp: Simulator, xsim: Xsim) -> Self {
        assert_eq!(
            interp.module().nets.len(),
            xsim.module().nets.len(),
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

    /// Drives both simulators one cycle with the same fully-known inputs
    /// and compares every net.
    ///
    /// # Errors
    ///
    /// The first net (in definition order) whose fully-known four-state
    /// value differs from the interpreter's.
    pub fn step(
        &mut self,
        inputs: &HashMap<String, ApInt>,
    ) -> Result<DiffCycle, Box<DiffMismatch>> {
        let cycle = self.cycle;
        self.interp.eval(inputs);
        let outputs = self.xsim.eval(inputs);
        for (i, x) in self.xsim.net_values().iter().enumerate() {
            let Some(known) = x.as_known() else { continue };
            let expected = &self.interp.net_values()[i];
            if known != expected {
                let net = &self.xsim.module().nets[i];
                return Err(Box::new(DiffMismatch {
                    cycle,
                    net: i,
                    name: net.name.clone(),
                    driver: driver_desc(&net.driver),
                    interp: expected.clone(),
                    xsim: known.clone(),
                }));
            }
        }
        let output_x_bits = outputs.values().map(|v| u64::from(v.x_bits())).sum();
        let net_x_bits = self
            .xsim
            .net_values()
            .iter()
            .map(|v| u64::from(v.x_bits()))
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rand_apint(state: &mut u64, width: u32) -> ApInt {
    let mut v = ApInt::zero(width);
    let mut pos = 0;
    while pos < width {
        let word = splitmix64(state);
        let take = (width - pos).min(64);
        for j in 0..take {
            v.set_bit(pos + j, (word >> j) & 1 == 1);
        }
        pos += take;
    }
    v
}

/// The opt stage's equivalence gate as it ran on the walkers (four
/// `Module` clones, `HashMap` stimulus every cycle).
///
/// The runtime half of the oracle gate: drives the original and optimized
/// modules in lockstep over `cycles` cycles of deterministic pseudo-random
/// stimulus and checks
///
/// 1. two-valued output equality (the interpreter semantics are the
///    compiler's contract), and
/// 2. four-state output *refinement* under partially-X stimulus: every
///    output bit the original resolves to a known value must be known with
///    the same value in the optimized module (optimization may remove X,
///    never introduce or change it).
///
/// # Errors
///
/// A description of the first divergence.
pub fn verify_equivalent(
    original: &Module,
    optimized: &Module,
    opts: &EmitOptions,
    cycles: u32,
) -> Result<(), String> {
    let mut interp_a = Simulator::new(original.clone());
    let mut interp_b = Simulator::new(optimized.clone());
    let mut xsim_a = Xsim::with_options(original.clone(), *opts);
    let mut xsim_b = Xsim::with_options(optimized.clone(), *opts);
    xsim_a.reset();
    xsim_b.reset();
    let mut state = 0x6c6e_6770_7470_0001u64 ^ u64::from(cycles);
    for cycle in 0..cycles {
        let mut known = HashMap::new();
        let mut fourstate = HashMap::new();
        for port in &original.ports {
            if port.dir != crate::netlist::PortDir::Input {
                continue;
            }
            let value = rand_apint(&mut state, port.width);
            known.insert(port.name.clone(), value.clone());
            // Every third cycle knocks a pseudo-random subset of bits to X
            // so refinement is exercised, not just the all-known case.
            let mask = if cycle % 3 == 2 {
                rand_apint(&mut state, port.width)
            } else {
                ApInt::ones(port.width)
            };
            fourstate.insert(port.name.clone(), XVal::from_planes(value.and(&mask), mask));
        }
        let out_a = interp_a.step(&known);
        let out_b = interp_b.step(&known);
        for (name, va) in &out_a {
            let vb = out_b
                .get(name)
                .ok_or_else(|| format!("output `{name}` missing from optimized module"))?;
            if va != vb {
                return Err(format!(
                    "cycle {cycle}: output `{name}` diverged: original={va:x} optimized={vb:x}"
                ));
            }
        }
        let x_a = xsim_a.eval_x(&fourstate);
        let x_b = xsim_b.eval_x(&fourstate);
        for (name, va) in &x_a {
            let vb = x_b
                .get(name)
                .ok_or_else(|| format!("output `{name}` missing from optimized module"))?;
            let disagree = va.value_plane().xor(vb.value_plane());
            let bad = va.known_plane().and(&vb.known_plane().not().or(&disagree));
            if !bad.is_zero() {
                return Err(format!(
                    "cycle {cycle}: output `{name}` lost known bits under X stimulus: \
                     original={va} optimized={vb}"
                ));
            }
        }
        xsim_a.clock();
        xsim_b.clock();
    }
    Ok(())
}
