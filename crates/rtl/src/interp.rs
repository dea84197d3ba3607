//! Cycle-accurate two-valued netlist simulation.
//!
//! [`Simulator`] interprets a [`NetTape`] one clock cycle at a time:
//! combinational nets are computed in tape (topological) order, outputs are
//! sampled, then registers latch. This is the "RTL simulation" substrate
//! used to verify the extended cores (paper §5.3), and its operator table
//! (`eval_word` for one-word operands, `eval_wide` above) is the
//! compiler's reference semantics: the RISC-V division convention, zeros
//! beyond a dynamic part-select, registers born at their reset value.
//!
//! Ports are bound by index ([`Simulator::set_input`]); the name-keyed
//! [`Simulator::eval`] / [`Simulator::step`] are adapters for tests and
//! examples.

use crate::netlist::{CombOp, Module, PortDir};
use crate::sim::{self, NetTape, Op, Slot};
use bits::ApInt;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A two-valued netlist simulator instance.
#[derive(Debug, Clone)]
pub struct Simulator {
    tape: Arc<NetTape>,
    /// Every slot's current value.
    arena: Vec<u64>,
    /// Result buffer for multi-word instructions.
    scratch: Vec<u64>,
    /// Register values latched at the next clock edge.
    latch: Vec<u64>,
}

impl Simulator {
    /// Compiles `module` and creates a simulator with all registers at
    /// their reset values.
    pub fn new(module: Module) -> Self {
        Self::from_tape(Arc::new(NetTape::new(module)))
    }

    /// A simulator over an already compiled tape.
    pub fn from_tape(tape: Arc<NetTape>) -> Self {
        let arena = tape.image.clone();
        let latch = vec![0; tape.reg_block.len()];
        Simulator {
            tape,
            arena,
            scratch: Vec::new(),
            latch,
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

    /// Net `i`'s value from the most recent [`Simulator::evaluate`].
    pub fn net_value(&self, i: usize) -> ApInt {
        let slot = self.tape.net_slot(i);
        ApInt::from_limbs(&self.arena[slot.range()], slot.width)
    }

    /// The words in `slot`.
    pub(crate) fn slot_words(&self, slot: Slot) -> &[u64] {
        &self.arena[slot.range()]
    }

    /// Resets all registers to their initial values.
    pub fn reset(&mut self) {
        let block = self.tape.reg_block.clone();
        self.arena[block.clone()].copy_from_slice(&self.tape.image[block]);
    }

    /// Drives input port `port` with `value` (little-endian words,
    /// zero-extended or truncated to the port width). The value holds
    /// until the port is driven again.
    pub fn set_input(&mut self, port: usize, value: &[u64]) {
        if let Some(slot) = self.tape.port_slot(port) {
            sim::write_resized(&mut self.arena[slot.range()], value, slot.width);
        }
    }

    /// Evaluates the combinational fabric for the current inputs. Does
    /// **not** clock the registers.
    pub fn evaluate(&mut self) {
        let tape = &*self.tape;
        let arena = &mut self.arena;
        for ins in &tape.code {
            let [a, b, c] = ins.args;
            if ins.wide {
                let out = &mut self.scratch;
                out.clear();
                out.resize(ins.dst.words(), 0);
                let arg = |s: Slot| (&arena[s.range()], s.width);
                match ins.op {
                    Op::Comb(op) => {
                        eval_wide(op, out, ins.dst.width, arg(a), arg(b), arg(c), ins.lo)
                    }
                    Op::Rom(r) => rom_read(&tape.roms[r], &arena[a.range()], out),
                }
                arena[ins.dst.range()].copy_from_slice(out);
                continue;
            }
            let x = |s: Slot| arena[s.off as usize];
            arena[ins.dst.off as usize] = match ins.op {
                Op::Comb(op) => eval_word(
                    op,
                    (x(a), a.width),
                    (x(b), b.width),
                    x(c),
                    ins.lo,
                    ins.dst.width,
                ),
                Op::Rom(r) => tape.roms[r].entry(&[x(a)]).map_or(0, |e| e[0]),
            };
        }
    }

    /// Latches all registers based on the most recent evaluation.
    pub fn clock(&mut self) {
        let tape = &*self.tape;
        let base = tape.reg_block.start;
        self.latch
            .copy_from_slice(&self.arena[tape.reg_block.clone()]);
        for r in &tape.regs {
            if r.enable
                .is_some_and(|e| sim::is_zero(&self.arena[e.range()]))
            {
                continue;
            }
            let range = r.dst.range();
            let n = range.len().min(r.next.words());
            let dst = &mut self.latch[range.start - base..range.end - base];
            dst[..n].copy_from_slice(&self.arena[r.next.range()][..n]);
            dst[n..].fill(0);
        }
        self.arena[tape.reg_block.clone()].copy_from_slice(&self.latch);
    }

    /// Name-keyed adapter: drives every input port from `inputs` (missing
    /// inputs read zero), evaluates, and returns the output-port values.
    /// Does **not** clock the registers.
    pub fn eval(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let tape = Arc::clone(&self.tape);
        for (i, p) in tape.module().ports.iter().enumerate() {
            if p.dir == PortDir::Input {
                self.set_input(i, inputs.get(&p.name).map_or(&[0][..], ApInt::limbs));
            }
        }
        self.evaluate();
        self.tape
            .outputs()
            .iter()
            .map(|&(port, slot)| {
                let name = self.tape.module().ports[port].name.clone();
                (
                    name,
                    ApInt::from_limbs(&self.arena[slot.range()], slot.width),
                )
            })
            .collect()
    }

    /// Convenience: `eval` then `clock`, returning the sampled outputs.
    pub fn step(&mut self, inputs: &HashMap<String, ApInt>) -> HashMap<String, ApInt> {
        let outputs = self.eval(inputs);
        self.clock();
        outputs
    }
}

/// Copies ROM entry `index` into `out`, or zeros past the table.
pub(crate) fn rom_read(table: &sim::RomTable, index: &[u64], out: &mut [u64]) {
    match table.entry(index) {
        Some(e) => sim::write_resized(out, e, table.width),
        None => out.fill(0),
    }
}

/// `v`, a `width`-bit value, sign-extended to an `i64`.
fn sext(v: u64, width: u32) -> i64 {
    let pad = 64 - width.clamp(1, 64);
    ((v << pad) as i64) >> pad
}

/// One combinational operator on one-word operands `(value, width)` with
/// the two-valued semantics; `c` is the third operand's value (the mux's
/// else arm). Results are canonical `width`-bit words.
// Inlined into both interpreters' loops and the four-state table: on a
// 2-vCPU x86-64 host the matrix modules' four-state evaluation ran 15-25%
// faster than with the call.
#[inline(always)]
pub(crate) fn eval_word(
    op: CombOp,
    (a, aw): (u64, u32),
    (b, bw): (u64, u32),
    c: u64,
    lo: u32,
    width: u32,
) -> u64 {
    let m = sim::mask(width);
    let am = sim::mask(aw);
    match op {
        CombOp::Add => a.wrapping_add(b) & m,
        CombOp::Sub => a.wrapping_sub(b) & m,
        CombOp::Mul => a.wrapping_mul(b) & m,
        CombOp::DivU => a.checked_div(b).unwrap_or(am),
        CombOp::RemU => a.checked_rem(b).unwrap_or(a),
        CombOp::DivS if b == 0 => am,
        CombOp::DivS => sext(a, aw).wrapping_div(sext(b, bw)) as u64 & am,
        CombOp::RemS if b == 0 => a,
        CombOp::RemS => sext(a, aw).wrapping_rem(sext(b, bw)) as u64 & am,
        CombOp::And => a & b,
        CombOp::Or => a | b,
        CombOp::Xor => a ^ b,
        CombOp::Not => !a & am,
        CombOp::Shl if b < u64::from(aw) => (a << b) & am,
        CombOp::ShrU if b < u64::from(aw) => a >> b,
        CombOp::ShrS if b < u64::from(aw) => (sext(a, aw) >> b) as u64 & am,
        CombOp::Shl | CombOp::ShrU => 0,
        CombOp::ShrS if sext(a, aw) < 0 => am,
        CombOp::ShrS => 0,
        CombOp::Eq => u64::from(aw == bw && a == b),
        CombOp::Ne => u64::from(aw != bw || a != b),
        CombOp::Ult => u64::from(a < b),
        CombOp::Ule => u64::from(a <= b),
        CombOp::Slt => u64::from(sext(a, aw) < sext(b, bw)),
        CombOp::Sle => u64::from(sext(a, aw) <= sext(b, bw)),
        CombOp::Mux if a != 0 => b,
        CombOp::Mux => c,
        // Both parts fit one word, so `bw < 64`.
        CombOp::Concat => (a << bw) | b,
        CombOp::Replicate => (1..lo).fold(a, |acc, _| (acc << aw) | a),
        CombOp::Extract if lo < 64 => (a >> lo) & m,
        CombOp::Extract => 0,
        CombOp::ExtractDyn if b < u64::from(aw) => (a >> b) & m,
        CombOp::ExtractDyn => 0,
        CombOp::ZExt => a,
        CombOp::SExt => sext(a, aw) as u64 & m,
        CombOp::Trunc => a & m,
    }
}

/// [`eval_word`] for operands or results of any width, as canonical limb
/// slices `(words, width)`. `out` holds `words(width)` words.
pub(crate) fn eval_wide(
    op: CombOp,
    out: &mut [u64],
    width: u32,
    (a, aw): (&[u64], u32),
    (b, bw): (&[u64], u32),
    (c, _): (&[u64], u32),
    lo: u32,
) {
    let sign = |v: &[u64], w: u32| w > 0 && sim::bit(v, w - 1);
    let cmp = |signed: bool| {
        if signed && sign(a, aw) != sign(b, bw) {
            if sign(a, aw) {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        } else {
            sim::ucmp(a, b)
        }
    };
    let shift = sim::as_u64(b).filter(|&s| s < u64::from(aw));
    out.fill(0);
    match op {
        CombOp::Add => sim::add(out, a, b, false),
        CombOp::Sub => sim::sub(out, a, b),
        CombOp::Mul => sim::mul(out, a, b),
        CombOp::DivU | CombOp::DivS if sim::is_zero(b) => sim::fill_ones(out, width),
        CombOp::RemU | CombOp::RemS if sim::is_zero(b) => sim::extract(out, a, 0),
        CombOp::DivU => sim::extract(out, &sim::udivrem(a, b, aw).0, 0),
        CombOp::RemU => sim::extract(out, &sim::udivrem(a, b, aw).1, 0),
        CombOp::DivS | CombOp::RemS => {
            let (la, lb) = (sign(a, aw), sign(b, bw));
            let magnitude = |v: &[u64], neg: bool| {
                let mut v = v.to_vec();
                if neg {
                    sim::negate(&mut v, aw);
                }
                v
            };
            let (q, r) = sim::udivrem(&magnitude(a, la), &magnitude(b, lb), aw);
            let (mut v, neg) = if op == CombOp::DivS {
                (q, la != lb)
            } else {
                (r, la)
            };
            if neg {
                sim::negate(&mut v, aw);
            }
            sim::extract(out, &v, 0);
        }
        CombOp::And | CombOp::Or | CombOp::Xor | CombOp::Not => {
            for (i, o) in out.iter_mut().enumerate() {
                let (x, y) = (
                    a.get(i).copied().unwrap_or(0),
                    b.get(i).copied().unwrap_or(0),
                );
                *o = match op {
                    CombOp::And => x & y,
                    CombOp::Or => x | y,
                    CombOp::Xor => x ^ y,
                    _ => !x,
                };
            }
        }
        CombOp::Shl => {
            if let Some(s) = shift {
                sim::deposit(out, a, s as u32);
            }
        }
        CombOp::ShrU => {
            if let Some(s) = shift {
                sim::extract(out, a, s);
            }
        }
        CombOp::ShrS => match shift {
            Some(s) => {
                sim::extract(out, a, s);
                if sign(a, aw) {
                    sim::set_ones(out, aw - s as u32, aw);
                }
            }
            None if sign(a, aw) => sim::fill_ones(out, width),
            None => {}
        },
        CombOp::Eq => out[0] = u64::from(aw == bw && a == b),
        CombOp::Ne => out[0] = u64::from(aw != bw || a != b),
        CombOp::Ult => out[0] = u64::from(cmp(false) == Ordering::Less),
        CombOp::Ule => out[0] = u64::from(cmp(false) != Ordering::Greater),
        CombOp::Slt => out[0] = u64::from(cmp(true) == Ordering::Less),
        CombOp::Sle => out[0] = u64::from(cmp(true) != Ordering::Greater),
        CombOp::Mux => sim::extract(out, if sim::is_zero(a) { c } else { b }, 0),
        CombOp::Concat => {
            sim::deposit(out, b, 0);
            sim::deposit(out, a, bw);
        }
        CombOp::Replicate => {
            for k in 0..lo {
                sim::deposit(out, a, k * aw);
            }
        }
        CombOp::Extract => sim::extract(out, a, u64::from(lo)),
        CombOp::ExtractDyn => {
            if let Some(s) = shift {
                sim::extract(out, a, s);
            }
        }
        CombOp::ZExt | CombOp::Trunc => sim::extract(out, a, 0),
        CombOp::SExt => {
            sim::extract(out, a, 0);
            if sign(a, aw) {
                sim::set_ones(out, aw, width);
            }
        }
    }
    sim::mask_top(out, width);
}

/// Constant folding's evaluator: `op` over constant operands with the
/// two-valued semantics of [`Simulator`].
pub(crate) fn eval_const(op: CombOp, args: &[&ApInt], lo: u32, width: u32) -> ApInt {
    let arg = |k: usize| {
        args.get(k)
            .map_or((&[0u64][..], 0), |v| (v.limbs(), v.width()))
    };
    let mut out = vec![0u64; sim::words(width)];
    eval_wide(op, &mut out, width, arg(0), arg(1), arg(2), lo);
    ApInt::from_limbs(&out, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Driver, Module, PortDir};

    /// An accumulator: q <= q + in when en.
    fn accumulator() -> Module {
        let mut m = Module::new("acc");
        let inp = m.add_port("in", PortDir::Input, 8);
        let en = m.add_port("en", PortDir::Input, 1);
        let out = m.add_port("q", PortDir::Output, 8);
        let n_in = m.add_net(Driver::Input { port: inp }, 8, "in");
        let n_en = m.add_net(Driver::Input { port: en }, 1, "en");
        // The register's `next` is a forward reference: create the
        // register first with a placeholder, then the sum, then patch.
        let n_reg = m.add_net(
            Driver::Reg {
                next: crate::netlist::NetId(0),
                enable: Some(n_en),
                init: ApInt::zero(8),
            },
            8,
            "q",
        );
        let n_sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![n_reg, n_in],
                lo: 0,
            },
            8,
            "sum",
        );
        if let Driver::Reg { next, .. } = &mut m.nets[n_reg.0].driver {
            *next = n_sum;
        }
        m.connect_output(out, n_reg);
        m
    }

    #[test]
    fn accumulator_counts() {
        let mut sim = Simulator::new(accumulator());
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), ApInt::from_u64(3, 8));
        inputs.insert("en".to_string(), ApInt::one(1));
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 0);
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 3);
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 6);
        // Stall: enable low holds the value.
        inputs.insert("en".to_string(), ApInt::zero(1));
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 9);
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 9);
        sim.reset();
        inputs.insert("en".to_string(), ApInt::one(1));
        assert_eq!(sim.step(&inputs)["q"].to_u64(), 0);
    }

    #[test]
    fn missing_inputs_default_to_zero() {
        let mut sim = Simulator::new(accumulator());
        let out = sim.step(&HashMap::new());
        assert_eq!(out["q"].to_u64(), 0);
    }

    #[test]
    fn index_bound_inputs_hold_between_cycles() {
        let mut sim = Simulator::new(accumulator());
        sim.set_input(0, &[3]);
        sim.set_input(1, &[1]);
        for expect in [0, 3, 6] {
            sim.evaluate();
            assert_eq!(sim.slot_words(sim.tape().port_slot(2).unwrap()), &[expect]);
            sim.clock();
        }
        // Driving wider than the port truncates.
        sim.set_input(0, &[0x1ff, 7]);
        sim.evaluate();
        assert_eq!(sim.net_value(0).to_u64(), 0xff);
    }

    #[test]
    fn rom_reads_past_the_end_and_past_u64_yield_zero() {
        let mut m = Module::new("romtest");
        let idx = m.add_port("idx", PortDir::Input, 128);
        let out = m.add_port("word", PortDir::Output, 8);
        let n_idx = m.add_net(Driver::Input { port: idx }, 128, "idx");
        m.roms.push(crate::netlist::RomData {
            name: "tab".into(),
            width: 8,
            contents: vec![ApInt::from_u64(0xaa, 8), ApInt::from_u64(0xbb, 8)],
        });
        let n_rd = m.add_net(
            Driver::Rom {
                rom: 0,
                index: n_idx,
            },
            8,
            "word",
        );
        m.connect_output(out, n_rd);
        let mut sim = Simulator::new(m);

        let read = |sim: &mut Simulator, v: ApInt| {
            let mut inputs = HashMap::new();
            inputs.insert("idx".to_string(), v);
            sim.eval(&inputs)["word"].to_u64()
        };
        assert_eq!(read(&mut sim, ApInt::from_u64(1, 128)), 0xbb);
        // Just past the table: zero.
        assert_eq!(read(&mut sim, ApInt::from_u64(2, 128)), 0);
        // Wider than u64 (would saturate to u64::MAX and, on a 32-bit
        // usize, could wrap back into range): zero.
        assert_eq!(read(&mut sim, ApInt::one(128).shl_bits(100)), 0);
        // The largest 64-bit index: zero, without overflowing the entry
        // offset.
        assert_eq!(read(&mut sim, ApInt::from_u64(u64::MAX, 128)), 0);
    }

    #[test]
    fn word_and_wide_tables_agree_on_one_word_operands() {
        let ops = [
            CombOp::Add,
            CombOp::Sub,
            CombOp::Mul,
            CombOp::DivU,
            CombOp::DivS,
            CombOp::RemU,
            CombOp::RemS,
            CombOp::Shl,
            CombOp::ShrU,
            CombOp::ShrS,
            CombOp::Slt,
            CombOp::Sle,
            CombOp::Ult,
            CombOp::ExtractDyn,
        ];
        let values = [0u64, 1, 3, 7, 0x80, 0xff, 0x7f, 0x5a];
        for op in ops {
            for &a in &values {
                for &b in &values {
                    let w = match op {
                        CombOp::Slt | CombOp::Sle | CombOp::Ult => 1,
                        _ => 8,
                    };
                    let word = eval_word(op, (a, 8), (b, 8), 0, 0, w);
                    let mut wide = [0u64];
                    eval_wide(op, &mut wide, w, (&[a], 8), (&[b], 8), (&[0], 0), 0);
                    assert_eq!(word, wide[0], "{op:?} {a:#x} {b:#x}");
                }
            }
        }
    }
}
