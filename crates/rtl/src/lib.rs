//! Register-transfer-level netlist IR, SystemVerilog export, and netlist
//! simulation (paper §4.1d, §4.5).
//!
//! The analog of CIRCT's `hw`/`comb`/`seq`/`sv` dialect stack:
//!
//! * [`netlist`] — hardware modules with ports, combinational operators,
//!   stallable registers, and internalized ROMs,
//! * [`build`] — constructs a pipelined ISAX module from a scheduled LIL
//!   graph, inserting stallable pipeline registers for intermediate results
//!   where needed; interface operations become input/output ports whose
//!   names carry the active-stage suffix (cf. Figure 5d's `instr_word_2`,
//!   `res_3_data`),
//! * [`verilog`] — emits the module as SystemVerilog,
//! * [`sim`] — [`NetTape`], a module compiled once for simulation: every
//!   net a slot of one word (64 bits or fewer) or contiguous words (wider)
//!   in one flat `Vec<u64>` arena, laid out as a zero word, the input
//!   ports, the register block, the constants, then the combinational and
//!   ROM nets in topological order; ports are bound by index,
//! * [`interp`] — the tape's two-valued interpreter, executing the netlist
//!   cycle by cycle, which is how the "RTL simulation" verification of
//!   paper §5.3 is realized in this reproduction,
//! * [`xsim`] — the tape's four-state (0/1/X) interpreter under the
//!   IEEE-1800 semantics of the emitted SystemVerilog, over a value plane
//!   and a known plane, plus the differential oracle that compares it with
//!   [`interp`] net by net. Each interpreter keeps its own operator table,
//! * [`opt`] — oracle-gated netlist optimization passes (constant folding,
//!   CSE, mux flattening, strength reduction, bitwidth narrowing) run at a
//!   fixpoint between module construction and Verilog emission,
//! * `reference` (tests only: `cfg(test)` or the `reference` feature) —
//!   the former `ApInt` walkers and the former equivalence gate, kept so
//!   tests can check the tape interpreters against them; they go once that
//!   check has run alongside the tape for one change.

pub mod build;
pub mod interp;
pub mod lint;
pub mod netlist;
pub mod opt;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod sim;
pub mod verilog;
pub mod xsim;

pub use build::{build_graph_module, BuiltModule, IfaceSignal, PortBinding};
pub use interp::Simulator;
pub use lint::{lint_module, lint_x_hazards, LintIssue};
pub use netlist::{CombOp, Driver, Module, Net, NetId, Port, PortDir};
pub use opt::{optimize, run_pass, verify_equivalent, OptLevel, OptReport, Pass};
pub use sim::NetTape;
pub use verilog::{emit_verilog_with, EmitOptions};
pub use xsim::{DiffCycle, DiffMismatch, DiffSim, XVal, Xsim};
