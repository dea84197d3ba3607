//! Property tests for the oracle-gated netlist optimizer (DESIGN §16).
//!
//! Random *raw* netlists — not ones produced by the LIL builder, so shapes
//! the pipeline never emits are covered too — are pushed through each
//! individual optimization pass and through the full `-O2` fixpoint
//! pipeline. Every result must
//!
//! 1. still pass `lint_module` (structurally well-formed, width-correct,
//!    acyclic), and
//! 2. stay lockstep-equal to the input module over 32 cycles of
//!    differential simulation, including the four-state cycles where
//!    `verify_equivalent` knocks input bits to X.

use bits::ApInt;
use proptest::prelude::*;
use rtl::netlist::RomData;
use rtl::{
    lint_module, optimize, reference, run_pass, verify_equivalent, CombOp, Driver, EmitOptions,
    Module, NetId, OptLevel, Pass, PortDir, Simulator, XVal, Xsim,
};
use std::collections::HashMap;

/// SplitMix64 — the same generator family the optimizer's own
/// `verify_equivalent` stimulus uses, kept local so the netlist shape for a
/// given seed never changes under the test harness.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn apint(&mut self, width: u32) -> ApInt {
        let mut v = ApInt::zero(width);
        for bit in 0..width {
            if self.next() & 1 == 1 {
                v.set_bit(bit, true);
            }
        }
        v
    }
}

/// Nets available as operands, tracked as `(id, width)`.
struct Pool {
    nets: Vec<(NetId, u32)>,
}

impl Pool {
    /// Any existing net.
    fn any(&self, g: &mut Gen) -> (NetId, u32) {
        self.nets[g.below(self.nets.len() as u64) as usize]
    }

    /// A net of exactly `width` bits; materializes a constant when no
    /// existing net matches so every width request succeeds.
    fn of_width(&mut self, m: &mut Module, g: &mut Gen, width: u32) -> NetId {
        let matching: Vec<NetId> = self
            .nets
            .iter()
            .filter(|(_, w)| *w == width)
            .map(|(id, _)| *id)
            .collect();
        if !matching.is_empty() {
            return matching[g.below(matching.len() as u64) as usize];
        }
        let c = g.apint(width);
        let id = m.add_net(Driver::Const(c), width, "");
        self.nets.push((id, width));
        id
    }

    fn push(&mut self, id: NetId, width: u32) {
        self.nets.push((id, width));
    }
}

/// Builds a random module that `Module::validate` and `lint_module` both
/// accept by construction: combinational drivers only reference
/// earlier-index nets, every width rule from `lint_module` is respected,
/// and each output port is driven exactly once.
fn random_module(seed: u64) -> Module {
    generate(seed, false)
}

/// [`random_module`]'s wide variant: inputs and constants of 1–130 bits
/// (so nets of 65–130 bits and wider concatenations are common), zero
/// divisors, dynamic extracts whose offset runs past the top, and ROM
/// indices far past the table.
fn random_wide_module(seed: u64) -> Module {
    generate(seed, true)
}

fn generate(seed: u64, wide: bool) -> Module {
    let mut g = Gen::new(seed);
    let mut m = Module::new("prop");
    let mut pool = Pool { nets: Vec::new() };
    let max_width = if wide { 130 } else { 24 };

    let n_inputs = 1 + g.below(3) as usize;
    for i in 0..n_inputs {
        let w = 1 + g.below(max_width) as u32;
        let port = m.add_port(&format!("in{i}"), PortDir::Input, w);
        let id = m.add_net(Driver::Input { port }, w, &format!("in{i}"));
        pool.push(id, w);
    }
    for i in 0..2 {
        let w = 1 + g.below(max_width) as u32;
        let c = g.apint(w);
        let id = m.add_net(Driver::Const(c), w, &format!("c{i}"));
        pool.push(id, w);
    }
    let rom_w = 2 + g.below(10) as u32;
    let rom_len = 2 + g.below(7) as usize;
    m.roms.push(RomData {
        name: "rom0".into(),
        width: rom_w,
        contents: (0..rom_len).map(|_| g.apint(rom_w)).collect(),
    });

    let body = 8 + g.below(28);
    for k in 0..body {
        let (id, w) = match g.below(16) {
            0..=3 => {
                // Same-width binary arithmetic / logic.
                let ops = [
                    CombOp::Add,
                    CombOp::Sub,
                    CombOp::Mul,
                    CombOp::And,
                    CombOp::Or,
                    CombOp::Xor,
                    CombOp::DivU,
                    CombOp::RemU,
                    CombOp::DivS,
                    CombOp::RemS,
                ];
                let op = ops[g.below(ops.len() as u64) as usize];
                let (a, w) = pool.any(&mut g);
                let b = if wide && matches!(op, CombOp::DivU | CombOp::DivS | CombOp::RemU | CombOp::RemS)
                    && g.below(3) == 0
                {
                    m.add_net(Driver::Const(ApInt::zero(w)), w, "")
                } else {
                    pool.of_width(&mut m, &mut g, w)
                };
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a, b],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            4 => {
                let (a, w) = pool.any(&mut g);
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Not,
                        args: vec![a],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            5 => {
                // Shift: amount may be any width.
                let ops = [CombOp::Shl, CombOp::ShrU, CombOp::ShrS];
                let op = ops[g.below(3) as usize];
                let (a, w) = pool.any(&mut g);
                let amt = if wide && g.below(2) == 0 {
                    // An in-range amount: random wide values rarely are.
                    let at = g.below(u64::from(w));
                    m.add_net(Driver::Const(ApInt::from_u64(at, 8)), 8, "")
                } else {
                    pool.any(&mut g).0
                };
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a, amt],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            6 => {
                // Comparison: 1-bit result.
                let ops = [
                    CombOp::Eq,
                    CombOp::Ne,
                    CombOp::Ult,
                    CombOp::Ule,
                    CombOp::Slt,
                    CombOp::Sle,
                ];
                let op = ops[g.below(ops.len() as u64) as usize];
                let (a, w) = pool.any(&mut g);
                let b = pool.of_width(&mut m, &mut g, w);
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a, b],
                        lo: 0,
                    },
                    1,
                    &format!("n{k}"),
                );
                (id, 1)
            }
            7 => {
                let sel = pool.of_width(&mut m, &mut g, 1);
                let (t, w) = pool.any(&mut g);
                let e = pool.of_width(&mut m, &mut g, w);
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Mux,
                        args: vec![sel, t, e],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            8 => {
                let (hi, wh) = pool.any(&mut g);
                let (lo_net, wl) = pool.any(&mut g);
                let w = wh + wl;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Concat,
                        args: vec![hi, lo_net],
                        lo: 0,
                    },
                    w,
                    &format!("n{k}"),
                );
                (id, w)
            }
            9 => {
                // Extract: lo + width <= source width.
                let (a, w) = pool.any(&mut g);
                let tw = 1 + g.below(u64::from(w)) as u32;
                let lo = g.below(u64::from(w - tw + 1)) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Extract,
                        args: vec![a],
                        lo,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            10 => {
                // ExtractDyn: result width <= base width.
                let (a, w) = pool.any(&mut g);
                let tw = 1 + g.below(u64::from(w)) as u32;
                let off = if wide && g.below(2) == 0 {
                    // An offset at or just past the top of the base.
                    let at = u64::from(w - tw) + g.below(8);
                    m.add_net(Driver::Const(ApInt::from_u64(at, 9)), 9, "")
                } else {
                    pool.any(&mut g).0
                };
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::ExtractDyn,
                        args: vec![a, off],
                        lo: 0,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            11 => {
                let op = if g.next() & 1 == 0 {
                    CombOp::ZExt
                } else {
                    CombOp::SExt
                };
                let (a, w) = pool.any(&mut g);
                let tw = w + g.below(9) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op,
                        args: vec![a],
                        lo: 0,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            12 => {
                let (a, w) = pool.any(&mut g);
                let tw = 1 + g.below(u64::from(w)) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Trunc,
                        args: vec![a],
                        lo: 0,
                    },
                    tw,
                    &format!("n{k}"),
                );
                (id, tw)
            }
            13 => {
                // Replicate: keep the result narrow enough to stay cheap.
                let (a, w) = pool.any(&mut g);
                let reps = 1 + g.below((48 / u64::from(w)).max(1)) as u32;
                let id = m.add_net(
                    Driver::Comb {
                        op: CombOp::Replicate,
                        args: vec![a],
                        lo: reps,
                    },
                    reps * w,
                    &format!("n{k}"),
                );
                (id, reps * w)
            }
            14 => {
                let (next, w) = pool.any(&mut g);
                let enable = if g.next() & 1 == 0 {
                    Some(pool.of_width(&mut m, &mut g, 1))
                } else {
                    None
                };
                let init = g.apint(w);
                let id = m.add_net(Driver::Reg { next, enable, init }, w, &format!("n{k}"));
                (id, w)
            }
            _ => {
                let (index, _) = pool.any(&mut g);
                let id = m.add_net(Driver::Rom { rom: 0, index }, rom_w, &format!("n{k}"));
                (id, rom_w)
            }
        };
        pool.push(id, w);
    }

    let n_outputs = 1 + g.below(3) as usize;
    for i in 0..n_outputs {
        let (id, w) = pool.any(&mut g);
        let port = m.add_port(&format!("out{i}"), PortDir::Output, w);
        m.connect_output(port, id);
    }

    m.validate()
        .expect("random_module produced an invalid netlist");
    m
}

/// Runs `m` for `cycles` cycles on the tape interpreters and on the
/// reference `ApInt` walkers side by side — the two-valued pair on known
/// stimulus, the four-state pair under `opts` on the same stimulus with
/// pseudo-random bits knocked to X every other cycle — and checks that
/// every net agrees in every cycle.
fn tape_matches_reference(m: &Module, opts: EmitOptions, seed: u64, cycles: u32) -> Result<(), String> {
    let mut g = Gen::new(seed ^ 0x5eed);
    let mut tape2 = Simulator::new(m.clone());
    let mut ref2 = reference::Simulator::new(m.clone());
    let mut tape4 = Xsim::with_options(m.clone(), opts);
    let mut ref4 = reference::Xsim::with_options(m.clone(), opts);
    // Half the runs start from a completed reset, half from power-up X.
    if seed & 1 == 0 {
        tape4.reset();
        ref4.reset();
    }
    for cycle in 0..cycles {
        let mut known = HashMap::new();
        let mut four = HashMap::new();
        for p in m.ports.iter().filter(|p| p.dir == PortDir::Input) {
            let value = g.apint(p.width);
            let mask = if cycle % 2 == 1 {
                g.apint(p.width)
            } else {
                ApInt::ones(p.width)
            };
            four.insert(p.name.clone(), XVal::from_planes(value.clone(), mask));
            known.insert(p.name.clone(), value);
        }
        tape2.eval(&known);
        ref2.eval(&known);
        tape4.eval_x(&four);
        ref4.eval_x(&four);
        for (i, net) in m.nets.iter().enumerate() {
            let (t, r) = (tape2.net_value(i), &ref2.net_values()[i]);
            if t != *r {
                return Err(format!(
                    "cycle {cycle}: two-valued net {i} ({:?}, {} bits): tape={t:x} reference={r:x}",
                    net.driver, net.width
                ));
            }
            let (t, r) = (tape4.net(i), &ref4.net_values()[i]);
            if t != *r {
                return Err(format!(
                    "cycle {cycle}: four-state net {i} ({:?}, {} bits): tape={t} reference={r}",
                    net.driver, net.width
                ));
            }
        }
        tape2.clock();
        ref2.clock();
        tape4.clock();
        ref4.clock();
    }
    Ok(())
}

/// Over a fixed run of seeds the wide generator emits every operator,
/// nets of 65–130 bits and above 128, zero divisors, dynamic extracts past the top,
/// out-of-range ROM indices and enabled registers.
#[test]
fn wide_generator_covers_every_operator_and_corner() {
    let all = [
        CombOp::Add, CombOp::Sub, CombOp::Mul, CombOp::DivU, CombOp::DivS, CombOp::RemU,
        CombOp::RemS, CombOp::And, CombOp::Or, CombOp::Xor, CombOp::Not, CombOp::Shl,
        CombOp::ShrU, CombOp::ShrS, CombOp::Eq, CombOp::Ne, CombOp::Ult, CombOp::Ule,
        CombOp::Slt, CombOp::Sle, CombOp::Mux, CombOp::Concat, CombOp::Replicate,
        CombOp::Extract, CombOp::ExtractDyn, CombOp::ZExt, CombOp::SExt, CombOp::Trunc,
    ];
    let mut seen = Vec::new();
    let (mut wide_nets, mut slice_nets, mut zero_div, mut dyn_past_top) = (0, 0, 0, 0);
    let (mut big_rom_index, mut enables) = (0, 0);
    for seed in 0..64 {
        let m = random_wide_module(seed);
        let konst = |id: NetId| match &m.nets[id.0].driver {
            Driver::Const(c) => Some(c.clone()),
            _ => None,
        };
        for net in &m.nets {
            if (65..=130).contains(&net.width) {
                wide_nets += 1;
            }
            if net.width > 128 {
                slice_nets += 1;
            }
            match &net.driver {
                Driver::Comb { op, args, .. } => {
                    if !seen.contains(op) {
                        seen.push(*op);
                    }
                    let divisor_zero = konst(args[args.len() - 1]).is_some_and(|c| c.is_zero());
                    if matches!(op, CombOp::DivU | CombOp::DivS | CombOp::RemU | CombOp::RemS)
                        && divisor_zero
                    {
                        zero_div += 1;
                    }
                    if *op == CombOp::ExtractDyn {
                        let base = m.nets[args[0].0].width;
                        let past = konst(args[1])
                            .is_some_and(|c| c.to_u64() + u64::from(net.width) > u64::from(base));
                        dyn_past_top += u32::from(past);
                    }
                }
                Driver::Rom { index, .. } if m.nets[index.0].width > 64 => big_rom_index += 1,
                Driver::Reg { enable: Some(_), .. } => enables += 1,
                _ => {}
            }
        }
    }
    let missing: Vec<_> = all.iter().filter(|op| !seen.contains(op)).collect();
    assert!(missing.is_empty(), "operators never generated: {missing:?}");
    for (what, count) in [
        ("nets of 65-130 bits", wide_nets),
        ("nets above 128 bits", slice_nets),
        ("zero divisors", zero_div),
        ("dynamic extracts past the top", dyn_past_top),
        ("ROM indices wider than 64 bits", big_rom_index),
        ("enabled registers", enables),
    ] {
        assert!(count > 0, "no {what} in 64 wide modules");
    }
}

/// Both emission semantics the four-state side models.
const EMIT_OPTIONS: [EmitOptions; 2] = [
    EmitOptions {
        guard_division: true,
        bounded_extract_dyn: true,
    },
    EmitOptions {
        guard_division: false,
        bounded_extract_dyn: false,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tape interpreters equal the reference walkers on every net in
    /// every cycle, on narrow and wide random netlists, under both
    /// emission semantics.
    #[test]
    fn tape_interpreters_match_the_reference_walkers(seed: u64) {
        for (shape, m) in [("narrow", random_module(seed)), ("wide", random_wide_module(seed))] {
            for opts in EMIT_OPTIONS {
                if let Err(e) = tape_matches_reference(&m, opts, seed, 16) {
                    return Err(TestCaseError::fail(format!("seed {seed} ({shape}, {opts:?}): {e}")));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wide generator, like the narrow one, only emits lint-clean
    /// modules.
    #[test]
    fn wide_modules_are_lint_clean(seed: u64) {
        let m = random_wide_module(seed);
        let lint = lint_module(&m);
        prop_assert!(lint.is_ok(), "seed {seed}: generator emitted lint issues: {:?}", lint.err());
    }

    /// The generator itself only emits modules the lint accepts — the
    /// properties below compare post-pass lint against this baseline, so
    /// it must hold unconditionally.
    #[test]
    fn generated_modules_are_lint_clean(seed: u64) {
        let m = random_module(seed);
        let lint = lint_module(&m);
        prop_assert!(lint.is_ok(), "seed {seed}: generator emitted lint issues: {:?}", lint.err());
    }

    /// Every individual pass, run alone on a raw netlist, preserves
    /// lint-cleanliness and 32-cycle lockstep behavior (two-valued
    /// equality plus four-state refinement on the X cycles).
    #[test]
    fn each_pass_is_lint_clean_and_lockstep_equal(seed: u64) {
        let m = random_module(seed);
        let opts = EmitOptions::default();
        for pass in Pass::ALL {
            let (out, rewrites) = match run_pass(&m, pass, &opts) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::fail(
                    format!("seed {seed}: pass {} broke validate(): {e}", pass.name()))),
            };
            let lint = lint_module(&out);
            prop_assert!(
                lint.is_ok(),
                "seed {seed}: pass {} ({rewrites} rewrites) left lint issues: {:?}",
                pass.name(),
                lint.err()
            );
            if let Err(e) = verify_equivalent(&m, &out, &opts, 32) {
                return Err(TestCaseError::fail(
                    format!("seed {seed}: pass {} diverged: {e}", pass.name())));
            }
        }
    }

    /// The full -O2 fixpoint pipeline — all passes iterated to
    /// convergence — satisfies the same contract end to end.
    #[test]
    fn full_o2_is_lint_clean_and_lockstep_equal(seed: u64) {
        let m = random_module(seed);
        let opts = EmitOptions::default();
        let (out, report) = match optimize(&m, OptLevel::O2, &opts) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("seed {seed}: -O2 failed: {e}"))),
        };
        let lint = lint_module(&out);
        prop_assert!(lint.is_ok(), "seed {seed}: -O2 output has lint issues: {:?}", lint.err());
        prop_assert_eq!(report.nets_after, out.nets.len());
        if let Err(e) = verify_equivalent(&m, &out, &opts, 32) {
            return Err(TestCaseError::fail(format!("seed {seed}: -O2 diverged: {e}")));
        }
    }
}
