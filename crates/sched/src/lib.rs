//! Static scheduling infrastructure (paper §4.2–§4.4).
//!
//! Reimplements CIRCT's extensible scheduling problem model and the
//! *LongnailProblem* defined on top of it (Table 2):
//!
//! * [`problem`] — operations, dependences, operator types, and the three
//!   levels of solution constraints (*Problem* → *ChainingProblem* →
//!   *LongnailProblem*),
//! * [`chain`] — computation of chain-breaking dependences that split
//!   overlong combinational chains against a cycle-time budget,
//! * [`ilp_sched`] — the exact ILP formulation of Figure 7, with the lazy
//!   chain-breaker repair loop,
//! * [`lift`] — the exact integer solver for the difference system the
//!   Figure 7 ILP reduces to: it returns the least optimal schedule,
//! * [`budget`] — the deterministic work [`Budget`] that meters it,
//! * [`list_sched`] — a fast ASAP list scheduler used as a baseline and for
//!   ablation benchmarks,
//! * [`resilient`] — the budgeted facade over both schedulers: exact ILP
//!   under a deterministic work [`Budget`], degrading to the verified ASAP
//!   fallback instead of failing,
//! * [`stic`] — start-time-in-cycle propagation (the `ChainingProblem`
//!   property computed after scheduling).
//!
//! The general `ilp` crate is a dev-dependency only: the property tests use
//! its simplex and branch-and-bound as the oracle for [`lift`].

pub mod budget;
pub mod chain;
pub mod ilp_sched;
pub mod lift;
pub mod list_sched;
pub mod problem;
pub mod resilient;
pub mod stic;

pub use budget::{Budget, Exhausted, WorkKind};
pub use ilp_sched::{schedule_ilp, schedule_ilp_with_budget};
pub use list_sched::schedule_asap;
pub use resilient::{schedule_resilient, Degradation, DegradationReason, SchedOutcome};
pub use problem::{
    Dependence, LongnailProblem, Operation, OperationId, OperatorType, OperatorTypeId, Schedule,
    ScheduleError,
};
