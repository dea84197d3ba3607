//! Bitwidth narrowing driven by the value/known planes of [`crate::xsim`].
//!
//! The pass abstractly evaluates the module once with every input,
//! register, and dynamic ROM read held all-X and constants fully known:
//! one [`Xsim`] pass over the module's tape, with the exact four-state
//! operator semantics of the simulator. Every operator is monotone under
//! refinement (turning an input X bit into a value never changes an
//! already-known output bit), so any bit that comes out *known* in this
//! evaluation holds that value under every concrete stimulus and register
//! state. Three rewrites follow:
//!
//! * a combinational or ROM net whose abstract value is fully known is a
//!   constant,
//! * `Add`/`Mul`/`And`/`Or`/`Xor` whose operands provably fit in `t < w`
//!   bits (counting top known-zero bits, with a carry bit for `Add` and
//!   the width sum for `Mul`) are re-emitted at width `t` behind `Trunc`s
//!   and the result `ZExt`-patched back to `w` — extends and truncates
//!   are free wiring in the area model while adder/multiplier area scales
//!   with width,
//! * `SExt` whose source sign bit is provably zero becomes `ZExt`.
//!
//! Narrowing strictly shrinks the computed width each time it fires, so
//! the fixpoint terminates. The pass inserts nets and therefore rebuilds
//! the module like [`super::strength`].

use super::as_const;
use crate::netlist::{CombOp, Driver, Module, Net, NetId};
use crate::sim::{self, NetTape};
use crate::verilog::EmitOptions;
use crate::xsim::Xsim;
use bits::ApInt;
use std::sync::Arc;

/// Abstract per-net values: one four-state pass over the module's tape
/// with every input and register X (never driven, never reset) and
/// constants known.
fn abstract_eval(m: &Module, opts: &EmitOptions) -> Xsim {
    let mut xs = Xsim::from_tape(Arc::new(NetTape::new(m.clone())), *opts);
    xs.evaluate();
    xs
}

/// Net `i`'s `(value, known, width)` planes.
fn planes(xs: &Xsim, i: usize) -> (&[u64], &[u64], u32) {
    let slot = xs.tape().net_slot(i);
    let (value, known) = xs.slot_planes(slot);
    (value, known, slot.width)
}

fn fully_known(xs: &Xsim, i: usize) -> bool {
    let (_, known, width) = planes(xs, i);
    sim::is_ones(known, width)
}

/// Number of low bits that can carry information: width minus the run of
/// top bits known to be zero.
fn live_width(xs: &Xsim, i: usize) -> u32 {
    let (value, known, mut w) = planes(xs, i);
    while w > 0 && sim::bit(known, w - 1) && !sim::bit(value, w - 1) {
        w -= 1;
    }
    w
}

enum Rewrite {
    Const(ApInt),
    Narrow(CombOp, NetId, NetId, u32),
    ZeroSignExtend(NetId),
}

fn analyze(m: &Module, vals: &Xsim, i: usize) -> Option<Rewrite> {
    let net = &m.nets[i];
    let w = net.width;
    if w == 0 {
        return None;
    }
    match &net.driver {
        Driver::Comb { op, args, .. } => {
            if fully_known(vals, i) {
                return Some(Rewrite::Const(vals.net(i).value));
            }
            match op {
                CombOp::Add | CombOp::Mul | CombOp::And | CombOp::Or | CombOp::Xor
                    if args.len() == 2 =>
                {
                    let (a, b) = (args[0], args[1]);
                    if m.nets[a.0].width != w || m.nets[b.0].width != w {
                        return None;
                    }
                    let (ua, ub) = (live_width(vals, a.0), live_width(vals, b.0));
                    let t = match op {
                        CombOp::Add => ua.max(ub).saturating_add(1),
                        CombOp::Mul => ua.saturating_add(ub),
                        _ => ua.max(ub),
                    }
                    .max(1);
                    (t < w).then_some(Rewrite::Narrow(*op, a, b, t))
                }
                CombOp::SExt if args.len() == 1 => {
                    let (value, known, sw) = planes(vals, args[0].0);
                    let sign_zero = sw > 0
                        && sw < w
                        && sim::bit(known, sw - 1)
                        && !sim::bit(value, sw - 1);
                    sign_zero.then_some(Rewrite::ZeroSignExtend(args[0]))
                }
                _ => None,
            }
        }
        Driver::Rom { .. } => fully_known(vals, i).then(|| Rewrite::Const(vals.net(i).value)),
        _ => None,
    }
}

pub(super) fn run(m: &Module, opts: &EmitOptions) -> Option<(Module, u64)> {
    // The abstract evaluation (and the rewrites) assume lint-clean width
    // discipline; bail out rather than evaluate a malformed module.
    if crate::lint::lint_module(m).is_err() {
        return None;
    }
    let vals = abstract_eval(m, opts);
    let rewrites: Vec<Option<Rewrite>> = (0..m.nets.len())
        .map(|i| {
            analyze(m, &vals, i).filter(|r| {
                // Re-writing a constant to the same constant is no progress.
                !matches!(r, Rewrite::Const(c) if as_const(m, NetId(i)) == Some(c))
            })
        })
        .collect();
    if rewrites.iter().all(Option::is_none) {
        return None;
    }
    let mut out = Module {
        name: m.name.clone(),
        ports: m.ports.clone(),
        nets: Vec::with_capacity(m.nets.len()),
        outputs: Vec::new(),
        roms: m.roms.clone(),
    };
    let mut map = vec![NetId(0); m.nets.len()];
    let mut count = 0u64;
    for (i, net) in m.nets.iter().enumerate() {
        let w = net.width;
        let name = &net.name;
        map[i] = match &rewrites[i] {
            Some(Rewrite::Const(c)) => {
                count += 1;
                push(&mut out, Driver::Const(c.clone()), w, name)
            }
            Some(Rewrite::Narrow(op, a, b, t)) => {
                count += 1;
                let ta = push(&mut out, comb(CombOp::Trunc, vec![map[a.0]], 0), *t, name);
                let tb = push(&mut out, comb(CombOp::Trunc, vec![map[b.0]], 0), *t, name);
                let narrow = push(&mut out, comb(*op, vec![ta, tb], 0), *t, name);
                push(&mut out, comb(CombOp::ZExt, vec![narrow], 0), w, name)
            }
            Some(Rewrite::ZeroSignExtend(src)) => {
                count += 1;
                push(&mut out, comb(CombOp::ZExt, vec![map[src.0]], 0), w, name)
            }
            None => {
                let mut d = net.driver.clone();
                match &mut d {
                    Driver::Comb { args, .. } => {
                        for a in args.iter_mut() {
                            *a = map[a.0];
                        }
                    }
                    Driver::Rom { index, .. } => *index = map[index.0],
                    Driver::Reg { .. } | Driver::Input { .. } | Driver::Const(_) => {}
                }
                push(&mut out, d, w, name)
            }
        };
    }
    for net in &mut out.nets {
        if let Driver::Reg { next, enable, .. } = &mut net.driver {
            *next = map[next.0];
            if let Some(e) = enable {
                *e = map[e.0];
            }
        }
    }
    out.outputs = m.outputs.iter().map(|&(p, n)| (p, map[n.0])).collect();
    Some((out, count))
}

fn comb(op: CombOp, args: Vec<NetId>, lo: u32) -> Driver {
    Driver::Comb { op, args, lo }
}

fn push(out: &mut Module, driver: Driver, width: u32, name: &str) -> NetId {
    out.nets.push(Net {
        driver,
        width,
        name: name.to_string(),
    });
    NetId(out.nets.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::PortDir;

    /// Two 8-bit inputs zero-extended to 32, then added/multiplied at 32.
    fn wide_module(op: CombOp) -> Module {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 32);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        let wa = m.add_net(comb(CombOp::ZExt, vec![na], 0), 32, "wa");
        let wb = m.add_net(comb(CombOp::ZExt, vec![nb], 0), 32, "wb");
        let r = m.add_net(comb(op, vec![wa, wb], 0), 32, "r");
        m.connect_output(o, r);
        m
    }

    #[test]
    fn wide_ops_on_narrow_data_shrink() {
        for (op, expect) in [(CombOp::Add, 9), (CombOp::Mul, 16), (CombOp::Xor, 8)] {
            let m = wide_module(op);
            let (narrowed, count) = run(&m, &EmitOptions::default()).unwrap();
            assert_eq!(count, 1, "{op:?}");
            narrowed.validate().unwrap();
            crate::lint::lint_module(&narrowed).unwrap();
            let found = narrowed
                .nets
                .iter()
                .find(|n| matches!(&n.driver, Driver::Comb { op: x, .. } if *x == op))
                .unwrap_or_else(|| panic!("{op:?} missing"));
            assert_eq!(found.width, expect, "{op:?}");
            super::super::verify_equivalent(&m, &narrowed, &EmitOptions::default(), 24).unwrap();
        }
    }

    #[test]
    fn masked_constants_fold_through_the_planes() {
        // x & 0 is fully known even though x is an input.
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let zero = m.add_net(Driver::Const(ApInt::zero(8)), 8, "z");
        let and = m.add_net(comb(CombOp::And, vec![na, zero], 0), 8, "and");
        m.connect_output(o, and);
        let (narrowed, count) = run(&m, &EmitOptions::default()).unwrap();
        assert_eq!(count, 1);
        assert_eq!(
            narrowed.nets[and.0].driver,
            Driver::Const(ApInt::zero(8))
        );
    }

    #[test]
    fn sext_of_provably_positive_value_becomes_zext() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 16);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        // ZExt pads known zeros, so the 12-bit value has a known-zero sign.
        let pad = m.add_net(comb(CombOp::ZExt, vec![na], 0), 12, "pad");
        let sx = m.add_net(comb(CombOp::SExt, vec![pad], 0), 16, "sx");
        m.connect_output(o, sx);
        let (narrowed, _) = run(&m, &EmitOptions::default()).unwrap();
        assert!(
            matches!(
                &narrowed.nets[sx.0].driver,
                Driver::Comb { op: CombOp::ZExt, .. }
            ),
            "{:?}",
            narrowed.nets[sx.0].driver
        );
        super::super::verify_equivalent(&m, &narrowed, &EmitOptions::default(), 24).unwrap();
    }

    #[test]
    fn already_tight_ops_are_untouched() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 8);
        let b = m.add_port("b", PortDir::Input, 8);
        let o = m.add_port("o", PortDir::Output, 8);
        let na = m.add_net(Driver::Input { port: a }, 8, "a");
        let nb = m.add_net(Driver::Input { port: b }, 8, "b");
        let x = m.add_net(comb(CombOp::Xor, vec![na, nb], 0), 8, "x");
        m.connect_output(o, x);
        assert!(run(&m, &EmitOptions::default()).is_none());
    }
}
