//! A general integer linear programming solver: the reference oracle for
//! the scheduler.
//!
//! The paper schedules the *LongnailProblem* with the ILP of Figure 7,
//! solved by Cbc via OR-Tools. The compiler itself solves that ILP with the
//! exact difference-constraint solver in `sched::lift`; this crate is the
//! general solver its property tests check against: a cold two-phase
//! primal simplex ([`simplex::solve_lp`]) with naive depth-first
//! branch-and-bound for integrality ([`branch_bound::solve`]). Solutions
//! are exact rationals ([`rational::Rational`]), re-verified with
//! [`Model::is_feasible`] by the tests.
//!
//! It is a dev-dependency only; no production crate links it.
//!
//! # Examples
//!
//! ```
//! use ilp::{Model, Sense};
//!
//! // minimize x + y  s.t.  x + 2y >= 4,  x >= 1,  x,y integer
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.int_var("x");
//! let y = m.int_var("y");
//! m.obj(x, 1);
//! m.obj(y, 1);
//! m.constraint_ge(&[(x, 1), (y, 2)], 4);
//! m.constraint_ge(&[(x, 1)], 1);
//! let sol = m.solve().unwrap();
//! assert_eq!(sol.value(x) + sol.value(y), 3);
//! ```

pub mod branch_bound;
pub mod model;
pub mod rational;
pub mod simplex;

pub use model::{Constraint, ConstraintOp, Model, Sense, Solution, SolveError, VarId};
pub use rational::Rational;
