//! Model-building API for (integer) linear programs.

use crate::branch_bound;
use crate::rational::Rational;
use std::fmt;

/// Identifies a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    Le,
    Ge,
    Eq,
}

/// A linear constraint `sum(coeff * var) op rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub terms: Vec<(VarId, Rational)>,
    pub op: ConstraintOp,
    pub rhs: Rational,
}

/// A decision variable.
#[derive(Debug, Clone)]
pub struct Variable {
    pub name: String,
    /// Lower bound (default 0).
    pub lower: Rational,
    /// Optional upper bound.
    pub upper: Option<Rational>,
    /// Whether the variable must take an integer value.
    pub integer: bool,
}

/// Why solving failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("model is infeasible"),
            SolveError::Unbounded => f.write_str("objective is unbounded"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// One value per variable, in declaration order.
    pub values: Vec<Rational>,
    /// Objective value at the solution.
    pub objective: Rational,
}

impl Solution {
    /// Integer value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if the value is fractional (only possible for continuous
    /// variables).
    pub fn value(&self, var: VarId) -> i128 {
        self.values[var.0].to_integer()
    }

    /// Exact rational value of `var`.
    pub fn rational_value(&self, var: VarId) -> Rational {
        self.values[var.0]
    }
}

/// An ILP/LP model under construction.
///
/// Variables default to lower bound 0 and no upper bound, matching the
/// non-negativity domain constraints (C4) of the paper's scheduling ILP.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: Vec<Rational>,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
        }
    }

    /// Adds a continuous variable with bounds `[0, +inf)`.
    pub fn var(&mut self, name: &str) -> VarId {
        self.add_var(name, false)
    }

    /// Adds an integer variable with bounds `[0, +inf)`.
    pub fn int_var(&mut self, name: &str) -> VarId {
        self.add_var(name, true)
    }

    fn add_var(&mut self, name: &str, integer: bool) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.to_string(),
            lower: Rational::ZERO,
            upper: None,
            integer,
        });
        self.objective.push(Rational::ZERO);
        id
    }

    /// Sets the lower bound of `var`.
    pub fn set_lower(&mut self, var: VarId, lower: impl Into<Rational>) {
        self.vars[var.0].lower = lower.into();
    }

    /// Sets the upper bound of `var`.
    pub fn set_upper(&mut self, var: VarId, upper: impl Into<Rational>) {
        self.vars[var.0].upper = Some(upper.into());
    }

    /// Adds `coeff` to the objective coefficient of `var`.
    pub fn obj(&mut self, var: VarId, coeff: impl Into<Rational>) {
        let c = coeff.into();
        self.objective[var.0] = self.objective[var.0] + c;
    }

    /// Adds a `<=` constraint with integer coefficients.
    pub fn constraint_le(&mut self, terms: &[(VarId, i64)], rhs: i64) {
        self.add_constraint(terms, ConstraintOp::Le, rhs);
    }

    /// Adds a `>=` constraint with integer coefficients.
    pub fn constraint_ge(&mut self, terms: &[(VarId, i64)], rhs: i64) {
        self.add_constraint(terms, ConstraintOp::Ge, rhs);
    }

    /// Adds an `==` constraint with integer coefficients.
    pub fn constraint_eq(&mut self, terms: &[(VarId, i64)], rhs: i64) {
        self.add_constraint(terms, ConstraintOp::Eq, rhs);
    }

    fn add_constraint(&mut self, terms: &[(VarId, i64)], op: ConstraintOp, rhs: i64) {
        self.constraints.push(Constraint {
            terms: terms
                .iter()
                .map(|&(v, c)| (v, Rational::int(c as i128)))
                .collect(),
            op,
            rhs: Rational::int(rhs as i128),
        });
    }

    /// Adds a general rational constraint.
    pub fn add_rational_constraint(&mut self, constraint: Constraint) {
        self.constraints.push(constraint);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Solves the model: LP relaxation by two-phase simplex, then
    /// depth-first branch-and-bound on fractional integer variables.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        branch_bound::solve(self)
    }

    /// Solves only the LP relaxation (integrality dropped).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
    pub fn solve_relaxation(&self) -> Result<Solution, SolveError> {
        crate::simplex::solve_lp(self)
    }

    /// Checks a candidate assignment against all constraints and bounds
    /// (used by tests and by callers verifying externally produced
    /// schedules).
    pub fn is_feasible(&self, values: &[Rational]) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, var) in values.iter().zip(&self.vars) {
            if *v < var.lower {
                return false;
            }
            if let Some(u) = var.upper {
                if *v > u {
                    return false;
                }
            }
            if var.integer && !v.is_integer() {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = c
                .terms
                .iter()
                .fold(Rational::ZERO, |acc, &(v, coeff)| acc + coeff * values[v.0]);
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs,
                ConstraintOp::Ge => lhs >= c.rhs,
                ConstraintOp::Eq => lhs == c.rhs,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}
