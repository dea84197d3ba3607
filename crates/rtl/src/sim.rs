//! The compiled netlist tape both simulators interpret.
//!
//! [`NetTape::new`] compiles a [`Module`] once into a flat, slot-indexed
//! instruction list over one `Vec<u64>` arena:
//!
//! * every net owns a slot: a net of 64 bits or fewer takes one word,
//!   a wider net `ceil(width / 64)` contiguous little-endian words, always
//!   canonical (bits at and above the width read zero);
//! * the arena is laid out as: one reserved zero word (the operand of
//!   unused argument positions), the input ports, the registers (one
//!   contiguous block, so a clock edge is one block copy), the constants,
//!   then every combinational and ROM net in the module's own
//!   (topological) net order;
//! * `Input` nets share their port's slot, and constants and registers
//!   need no instruction, so the per-cycle walk touches only
//!   combinational and ROM nets;
//! * ports are bound by index: a port's slot holds the words an input port
//!   writes or an output port reads ([`NetTape::input_port`] finds an
//!   input by name once).
//!
//! The tape carries no semantics. [`crate::interp::Simulator`] interprets
//! it over one arena with the compiler's two-valued semantics, and
//! [`crate::xsim::Xsim`] over two (value and known planes) with the
//! IEEE-1800 four-state semantics of the emitted SystemVerilog. Each
//! keeps its own per-operator table, which is the part that can disagree,
//! so [`crate::xsim::DiffSim`] still compares two independent semantics,
//! net by net. The word helpers below are shared arithmetic on canonical
//! limb slices, the way both tables used to share [`bits::ApInt`].

use crate::netlist::{CombOp, Driver, Module, PortDir};
use std::cmp::Ordering;
use std::ops::Range;

/// Where a net's value lives in an interpreter's arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Slot {
    /// First word.
    pub off: u32,
    /// Bit width of the value.
    pub width: u32,
}

impl Slot {
    /// Number of words the slot spans (at least one).
    pub fn words(self) -> usize {
        words(self.width)
    }

    /// The slot's word range in the arena.
    pub fn range(self) -> Range<usize> {
        let off = self.off as usize;
        off..off + self.words()
    }

    /// True when the value needs more than one word.
    pub(crate) fn wide(self) -> bool {
        self.width > 64
    }
}

/// What an instruction computes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Comb(CombOp),
    /// Read of the ROM with this index; `args[0]` is the index.
    Rom(usize),
}

/// One combinational or ROM net.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    pub op: Op,
    pub dst: Slot,
    /// Operands; unused positions read the zero word.
    pub args: [Slot; 3],
    /// `lo` of the driver (extract offset, replication count).
    pub lo: u32,
    /// Some operand or the result spans more than one word.
    pub wide: bool,
}

/// One register: its state slot, the nets it latches from, and whether it
/// has an enable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegCell {
    pub dst: Slot,
    pub next: Slot,
    pub enable: Option<Slot>,
}

/// A ROM flattened to `len` entries of `stride` words.
#[derive(Debug, Clone)]
pub(crate) struct RomTable {
    pub width: u32,
    pub stride: usize,
    pub words: Vec<u64>,
}

impl RomTable {
    /// Entry `index` (as index words), or `None` past the end: the
    /// interpreters read zero there.
    pub fn entry(&self, index: &[u64]) -> Option<&[u64]> {
        let i = usize::try_from(as_u64(index)?).ok()?;
        let start = i.checked_mul(self.stride)?;
        self.words.get(start..start.checked_add(self.stride)?)
    }
}

/// A module compiled for simulation. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct NetTape {
    module: Module,
    nets: Vec<Slot>,
    ports: Vec<Option<Slot>>,
    outputs: Vec<(usize, Slot)>,
    pub(crate) code: Vec<Instr>,
    pub(crate) regs: Vec<RegCell>,
    /// Word range of the register block.
    pub(crate) reg_block: Range<usize>,
    pub(crate) roms: Vec<RomTable>,
    /// Arena image: constants and register reset values in place, zeros
    /// elsewhere.
    pub(crate) image: Vec<u64>,
    /// Known-plane image: ones over every constant, zeros elsewhere.
    pub(crate) known_image: Vec<u64>,
    /// Known plane of the register block after a reset: all ones.
    pub(crate) reg_ones: Vec<u64>,
}

impl NetTape {
    /// Compiles `module`. Operands are expected in topological order (the
    /// builder guarantees it and [`Module::validate`] checks it); a
    /// combinational forward reference reads the previous evaluation's
    /// value, like the net-order walk it replaces.
    pub fn new(module: Module) -> NetTape {
        // Word 0 stays zero: unused operand positions read it.
        let mut next = 1usize;
        let mut ports: Vec<Option<Slot>> = module
            .ports
            .iter()
            .map(|p| (p.dir == PortDir::Input).then(|| alloc(&mut next, p.width)))
            .collect();
        let mut nets = vec![Slot::default(); module.nets.len()];
        let reg_start = next;
        for (i, net) in module.nets.iter().enumerate() {
            if matches!(net.driver, Driver::Reg { .. }) {
                nets[i] = alloc(&mut next, net.width);
            }
        }
        let reg_block = reg_start..next;
        for (i, net) in module.nets.iter().enumerate() {
            match &net.driver {
                Driver::Const(_) => nets[i] = alloc(&mut next, net.width),
                Driver::Input { port } => {
                    nets[i] = match ports.get(*port).copied().flatten() {
                        Some(slot) => slot,
                        None => alloc(&mut next, net.width),
                    };
                }
                _ => {}
            }
        }
        for (i, net) in module.nets.iter().enumerate() {
            if matches!(net.driver, Driver::Comb { .. } | Driver::Rom { .. }) {
                nets[i] = alloc(&mut next, net.width);
            }
        }
        let mut image = vec![0u64; next];
        let mut known_image = vec![0u64; next];
        let mut code = Vec::new();
        let mut regs = Vec::new();
        for (i, net) in module.nets.iter().enumerate() {
            let dst = nets[i];
            match &net.driver {
                Driver::Const(c) => {
                    write_resized(&mut image[dst.range()], c.limbs(), dst.width);
                    fill_ones(&mut known_image[dst.range()], dst.width);
                }
                Driver::Reg { next, enable, init } => {
                    write_resized(&mut image[dst.range()], init.limbs(), dst.width);
                    regs.push(RegCell {
                        dst,
                        next: nets[next.0],
                        enable: enable.map(|e| nets[e.0]),
                    });
                }
                Driver::Comb { op, args, lo } => {
                    let mut slots = [Slot::default(); 3];
                    for (s, a) in slots.iter_mut().zip(args) {
                        *s = nets[a.0];
                    }
                    code.push(instr(Op::Comb(*op), dst, slots, *lo));
                }
                Driver::Rom { rom, index } => {
                    let slots = [nets[index.0], Slot::default(), Slot::default()];
                    code.push(instr(Op::Rom(*rom), dst, slots, 0));
                }
                Driver::Input { .. } => {}
            }
        }
        let mut reg_ones = vec![0u64; reg_block.len()];
        for r in &regs {
            let range = r.dst.range();
            let local = range.start - reg_block.start..range.end - reg_block.start;
            fill_ones(&mut reg_ones[local], r.dst.width);
        }
        let roms = module
            .roms
            .iter()
            .map(|rom| {
                let stride = words(rom.width);
                let mut words = vec![0u64; stride * rom.contents.len()];
                for (chunk, v) in words.chunks_mut(stride).zip(&rom.contents) {
                    write_resized(chunk, v.limbs(), rom.width);
                }
                RomTable {
                    width: rom.width,
                    stride,
                    words,
                }
            })
            .collect();
        let outputs: Vec<(usize, Slot)> = module
            .outputs
            .iter()
            .map(|&(port, net)| (port, nets[net.0]))
            .collect();
        for &(port, slot) in &outputs {
            ports[port] = Some(slot);
        }
        NetTape {
            module,
            nets,
            ports,
            outputs,
            code,
            regs,
            reg_block,
            roms,
            image,
            known_image,
            reg_ones,
        }
    }

    /// The compiled module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Number of nets.
    pub(crate) fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Net `i`'s slot.
    pub(crate) fn net_slot(&self, i: usize) -> Slot {
        self.nets[i]
    }

    /// Every net's slot, indexed by net id.
    pub(crate) fn net_slots(&self) -> &[Slot] {
        &self.nets
    }

    /// The slot an input port writes or a connected output port reads;
    /// `None` for an unconnected output.
    pub(crate) fn port_slot(&self, port: usize) -> Option<Slot> {
        self.ports.get(port).copied().flatten()
    }

    /// `(port index, slot)` of every connected output, in connection order.
    pub(crate) fn outputs(&self) -> &[(usize, Slot)] {
        &self.outputs
    }

    /// The input port named `name`.
    pub fn input_port(&self, name: &str) -> Option<usize> {
        self.module
            .ports
            .iter()
            .position(|p| p.name == name && p.dir == PortDir::Input)
    }
}

fn alloc(next: &mut usize, width: u32) -> Slot {
    let slot = Slot {
        off: u32::try_from(*next).expect("netlist too large to simulate"),
        width,
    };
    *next += slot.words();
    slot
}

fn instr(op: Op, dst: Slot, args: [Slot; 3], lo: u32) -> Instr {
    let wide = dst.wide() || args.iter().any(|a| a.wide());
    Instr {
        op,
        dst,
        args,
        lo,
        wide,
    }
}

/// Words needed for `width` bits (at least one).
pub(crate) fn words(width: u32) -> usize {
    (width as usize).div_ceil(64).max(1)
}

/// The low `width` bits set (all 64 from width 64 up).
pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Clears the bits at and above `width` in a `words(width)`-word value.
pub(crate) fn mask_top(v: &mut [u64], width: u32) {
    let rem = width % 64;
    if rem != 0 {
        if let Some(last) = v.get_mut((width / 64) as usize) {
            *last &= (1u64 << rem) - 1;
        }
    }
    if width == 0 {
        v.fill(0);
    }
}

/// Sets `v` to the `width`-bit all-ones value.
pub(crate) fn fill_ones(v: &mut [u64], width: u32) {
    v.fill(u64::MAX);
    mask_top(v, width);
}

/// Writes `src` into `dst`, zero-filling or dropping words, then clears
/// the bits at and above `width`.
pub(crate) fn write_resized(dst: &mut [u64], src: &[u64], width: u32) {
    let n = dst.len().min(src.len());
    dst[..n].copy_from_slice(&src[..n]);
    dst[n..].fill(0);
    mask_top(dst, width);
}

/// True when every word is zero.
pub(crate) fn is_zero(v: &[u64]) -> bool {
    v.iter().all(|&w| w == 0)
}

/// True when all `width` bits are set.
pub(crate) fn is_ones(v: &[u64], width: u32) -> bool {
    let full = (width / 64) as usize;
    v[..full].iter().all(|&w| w == u64::MAX)
        && (width.is_multiple_of(64) || v[full] == mask(width % 64))
}

/// The value as a `u64`, if no bit at or above 64 is set.
pub(crate) fn as_u64(v: &[u64]) -> Option<u64> {
    v[1..].iter().all(|&w| w == 0).then_some(v[0])
}

/// Bit `pos` (zero past the end).
pub(crate) fn bit(v: &[u64], pos: u32) -> bool {
    v.get((pos / 64) as usize)
        .is_some_and(|w| (w >> (pos % 64)) & 1 == 1)
}

/// Number of X bits of a `width`-bit known plane.
pub(crate) fn x_bits(known: &[u64], width: u32) -> u32 {
    width - known.iter().map(|w| w.count_ones()).sum::<u32>()
}

/// Sets bits `from..to` of `v` (bits past the end are dropped).
pub(crate) fn set_ones(v: &mut [u64], from: u32, to: u32) {
    for pos in from..to.min(64 * v.len() as u32) {
        v[(pos / 64) as usize] |= 1u64 << (pos % 64);
    }
}

/// `dst` ← bits `shift..` of `src` (zeros past its end). The caller
/// masks the top word.
pub(crate) fn extract(dst: &mut [u64], src: &[u64], shift: u64) {
    let word = (shift / 64) as usize;
    let bits = (shift % 64) as u32;
    let at = |i: usize| src.get(i).copied().unwrap_or(0);
    for (i, d) in dst.iter_mut().enumerate() {
        let Some(k) = word.checked_add(i) else {
            *d = 0;
            continue;
        };
        *d = if bits == 0 {
            at(k)
        } else {
            (at(k) >> bits) | (at(k.saturating_add(1)) << (64 - bits))
        };
    }
}

/// `dst |= src << shift` (bits past the end of `dst` are dropped).
pub(crate) fn deposit(dst: &mut [u64], src: &[u64], shift: u32) {
    let word = (shift / 64) as usize;
    let bits = shift % 64;
    for (i, &s) in src.iter().enumerate() {
        if let Some(d) = dst.get_mut(word + i) {
            *d |= s << bits;
        }
        if bits != 0 {
            if let Some(d) = dst.get_mut(word + i + 1) {
                *d |= s >> (64 - bits);
            }
        }
    }
}

/// `dst ← a + b + carry` over `dst.len()` words (missing words read zero).
pub(crate) fn add(dst: &mut [u64], a: &[u64], b: &[u64], carry: bool) {
    let mut carry = u64::from(carry);
    for (i, d) in dst.iter_mut().enumerate() {
        let (s1, c1) = a
            .get(i)
            .copied()
            .unwrap_or(0)
            .overflowing_add(b.get(i).copied().unwrap_or(0));
        let (s2, c2) = s1.overflowing_add(carry);
        *d = s2;
        carry = u64::from(c1) + u64::from(c2);
    }
}

/// `dst ← a - b` over `dst.len()` words, two's complement.
pub(crate) fn sub(dst: &mut [u64], a: &[u64], b: &[u64]) {
    let mut borrow = false;
    for (i, d) in dst.iter_mut().enumerate() {
        let (x, y) = (
            a.get(i).copied().unwrap_or(0),
            b.get(i).copied().unwrap_or(0),
        );
        let (s1, b1) = x.overflowing_sub(y);
        let (s2, b2) = s1.overflowing_sub(u64::from(borrow));
        *d = s2;
        borrow = b1 || b2;
    }
}

/// `v ← -v` over `width` bits.
pub(crate) fn negate(v: &mut [u64], width: u32) {
    let mut borrow = false;
    for w in v.iter_mut() {
        let (s1, b1) = 0u64.overflowing_sub(*w);
        let (s2, b2) = s1.overflowing_sub(u64::from(borrow));
        *w = s2;
        borrow = b1 || b2;
    }
    mask_top(v, width);
}

/// `dst ← a · b`, low `dst.len()` words.
pub(crate) fn mul(dst: &mut [u64], a: &[u64], b: &[u64]) {
    dst.fill(0);
    let n = dst.len();
    for (i, &x) in a.iter().enumerate().take(n) {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            if i + j >= n {
                break;
            }
            let t = u128::from(x) * u128::from(y) + u128::from(dst[i + j]) + carry;
            dst[i + j] = t as u64;
            carry = t >> 64;
        }
    }
}

/// Unsigned comparison of equal-length values.
pub(crate) fn ucmp(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

/// Schoolbook long division of `width`-bit values, `b` non-zero:
/// `(quotient, remainder)`.
pub(crate) fn udivrem(a: &[u64], b: &[u64], width: u32) -> (Vec<u64>, Vec<u64>) {
    let n = words(width);
    let mut quot = vec![0u64; n];
    let mut rem = vec![0u64; n];
    let mut shifted = vec![0u64; n];
    let divisor: Vec<u64> = (0..n).map(|i| b.get(i).copied().unwrap_or(0)).collect();
    for pos in (0..width).rev() {
        shifted.fill(0);
        deposit(&mut shifted, &rem, 1);
        mask_top(&mut shifted, width);
        if bit(a, pos) {
            shifted[0] |= 1;
        }
        if ucmp(&shifted, &divisor) != Ordering::Less {
            sub(&mut rem, &shifted, &divisor);
            mask_top(&mut rem, width);
            quot[(pos / 64) as usize] |= 1u64 << (pos % 64);
        } else {
            rem.copy_from_slice(&shifted);
        }
    }
    (quot, rem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetId;
    use bits::ApInt;

    #[test]
    fn layout_shares_input_slots_and_blocks_registers() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 70);
        let o = m.add_port("o", PortDir::Output, 70);
        let n0 = m.add_net(Driver::Input { port: a }, 70, "a");
        let n1 = m.add_net(Driver::Input { port: a }, 70, "a_again");
        let r = m.add_net(
            Driver::Reg {
                next: NetId(3),
                enable: None,
                init: ApInt::from_u64(5, 70),
            },
            70,
            "r",
        );
        let c = m.add_net(Driver::Const(ApInt::ones(70)), 70, "c");
        let sum = m.add_net(
            Driver::Comb {
                op: CombOp::Add,
                args: vec![n0, c],
                lo: 0,
            },
            70,
            "sum",
        );
        m.connect_output(o, sum);
        let tape = NetTape::new(m);
        assert_eq!(tape.net_slot(n0.0), tape.net_slot(n1.0));
        assert_eq!(tape.port_slot(a), Some(tape.net_slot(n0.0)));
        assert_eq!(tape.port_slot(o), Some(tape.net_slot(sum.0)));
        assert_eq!(tape.net_slot(r.0).range(), tape.reg_block);
        assert_eq!(&tape.image[tape.net_slot(r.0).range()], &[5, 0]);
        assert_eq!(&tape.image[tape.net_slot(c.0).range()], &[u64::MAX, 0x3f]);
        assert_eq!(tape.code.len(), 1, "only the adder is an instruction");
        assert!(tape.code[0].wide);
        // zero word + input (2) + register (2) + constant (2) + sum (2).
        assert_eq!(tape.image.len(), 9);
    }

    #[test]
    fn extract_and_deposit_cross_word_boundaries() {
        let src = [0xf000_0000_0000_000fu64, 0x1];
        let mut out = [0u64; 2];
        extract(&mut out, &src, 60);
        assert_eq!(out, [0x1f, 0]);
        let mut dst = [0u64; 2];
        deposit(&mut dst, &[0xff], 60);
        assert_eq!(dst, [0xf000_0000_0000_0000, 0xf]);
        extract(&mut out, &src, u64::MAX);
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn word_division_matches_apint() {
        let a = ApInt::from_u64(0xdead_beef, 64).zext(100).shl_bits(30);
        let b = ApInt::from_u64(12345, 100);
        let (q, r) = udivrem(a.limbs(), b.limbs(), 100);
        assert_eq!(ApInt::from_limbs(&q, 100), a.udiv(&b));
        assert_eq!(ApInt::from_limbs(&r, 100), a.urem(&b));
    }
}
