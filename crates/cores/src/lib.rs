//! Host-core models: the four open-source embedded RISC-V cores of the
//! evaluation (paper §5.2) with SCAIE-V ISAX integration.
//!
//! * [`descriptor`](mod@descriptor) — microarchitectural descriptors: pipeline shape
//!   (5-stage ORCA/VexRiscv, 3-stage Piccolo, FSM-sequenced PicoRV32) and
//!   the timing parameters of the cycle model,
//! * [`exec`] — the [`exec::ExtendedCore`]: executes RV32I programs with
//!   integrated ISAXes, modeling per-instruction cycle costs, execution
//!   modes (in-pipeline / tightly-coupled / decoupled with scoreboard
//!   stalls), `always`-blocks evaluated every retired instruction, and
//!   SCAIE-V arbitration. Architectural ISAX semantics come from
//!   evaluating the *compiled* LIL graphs — i.e. the same data-flow the
//!   generated hardware implements (differentially tested against the RTL
//!   netlist interpreter and the golden model).

pub mod descriptor;
pub mod exec;

pub use descriptor::{descriptor, CoreDescriptor, CoreKind};
pub use exec::ExtendedCore;
