//! The extensible scheduling problem model (Table 2).
//!
//! Following CIRCT's terminology, a *problem* consists of **operations**
//! (vertices), **dependences** (edges), and **operator types** (the
//! characteristics of the hardware units operations run on). Concrete
//! problem definitions differ in their *properties* and *constraints*:
//!
//! | Problem          | Operator-type properties        | Solution constraints |
//! |------------------|---------------------------------|----------------------|
//! | `Problem`        | `latency`                       | precedence           |
//! | `ChainingProblem`| `incomingDelay`, `outgoingDelay`| chaining             |
//! | `LongnailProblem`| `earliest`, `latest`            | interface windows    |
//!
//! The [`LongnailProblem`] struct carries the full property set; the
//! constraint levels are exposed as separate verification methods so that
//! tests (and the paper's Table 2) can exercise each level independently.

use std::fmt;

/// Identifies an operation (a vertex of the dependence graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperationId(pub usize);

/// Identifies an operator type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorTypeId(pub usize);

/// Hardware characteristics of the units executing operations.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorType {
    /// Display name (e.g. `"comb.add"` or `"lil.write_rd"`).
    pub name: String,
    /// Cycles from operand consumption to result availability; 0 for
    /// combinational operators.
    pub latency: u32,
    /// Propagation delay (ns) from the unit's inputs to its first internal
    /// register (or to its outputs if combinational).
    pub incoming_delay: f64,
    /// Propagation delay (ns) from the last internal register (or the
    /// inputs) to the unit's outputs.
    pub outgoing_delay: f64,
    /// Earliest permitted start time (sub-interface availability window
    /// start; 0 for non-interface operators).
    pub earliest: u32,
    /// Latest permitted start time; `None` = unbounded (the paper's
    /// `latest = ∞`, which unlocks the tightly-coupled/decoupled variants).
    pub latest: Option<u32>,
}

impl OperatorType {
    /// A combinational operator type with symmetric delay and no window.
    pub fn combinational(name: &str, delay: f64) -> Self {
        OperatorType {
            name: name.to_string(),
            latency: 0,
            incoming_delay: delay,
            outgoing_delay: delay,
            earliest: 0,
            latest: None,
        }
    }

    /// A sequential operator type with the given latency.
    pub fn sequential(name: &str, latency: u32, delay: f64) -> Self {
        OperatorType {
            name: name.to_string(),
            latency,
            incoming_delay: delay,
            outgoing_delay: delay,
            earliest: 0,
            latest: None,
        }
    }

    /// Restricts the start-time window (used for sub-interface operators,
    /// fed from the SCAIE-V virtual datasheet).
    pub fn with_window(mut self, earliest: u32, latest: Option<u32>) -> Self {
        self.earliest = earliest;
        self.latest = latest;
        self
    }
}

/// An operation, linked to the operator type that executes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// The `linkedOperatorType` property (LOT in Table 2).
    pub operator_type: OperatorTypeId,
    /// Display name for diagnostics.
    pub name: String,
}

/// A dependence edge: `from`'s result is consumed by `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dependence {
    pub from: OperationId,
    pub to: OperationId,
}

/// A problem instance at the *LongnailProblem* level of the hierarchy.
#[derive(Debug, Clone, Default)]
pub struct LongnailProblem {
    pub operator_types: Vec<OperatorType>,
    pub operations: Vec<Operation>,
    pub dependences: Vec<Dependence>,
    /// Additional chain-breaking dependences (constraint C5 of Figure 7);
    /// computed by [`crate::chain::compute_chain_breakers`].
    pub chain_breakers: Vec<Dependence>,
    /// Target clock period in ns (used by chaining).
    pub cycle_time: f64,
}

/// A computed schedule: the solution properties of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `startTime` (ST): cycle each operation starts in.
    pub start_time: Vec<u32>,
    /// `startTimeInCycle` (STIC): physical time (ns) within the start cycle.
    pub start_time_in_cycle: Vec<f64>,
}

impl Schedule {
    /// Overall latency: the last cycle in which any operation starts.
    pub fn makespan(&self) -> u32 {
        self.start_time.iter().copied().max().unwrap_or(0)
    }

    /// Deepest point within any cycle at which an operation starts — the
    /// chaining depth the schedule actually uses, in the same units as
    /// the cycle-time budget.
    ///
    /// Empty schedules report `0.0`. A NaN offset (a solver bug upstream)
    /// propagates to the result instead of being masked, and a legitimate
    /// all-negative schedule reports its true maximum — this is a maximum,
    /// not a clamp to zero. (`f64::max` would swallow both: it discards
    /// NaN and a `0.0` seed floors negatives.)
    pub fn max_start_time_in_cycle(&self) -> f64 {
        let mut worst: Option<f64> = None;
        for &v in &self.start_time_in_cycle {
            if v.is_nan() {
                return f64::NAN;
            }
            worst = Some(match worst {
                Some(w) if w >= v => w,
                _ => v,
            });
        }
        worst.unwrap_or(0.0)
    }
}

/// Constraint-violation report.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A structural (input-constraint) problem.
    InvalidProblem(String),
    /// The model has no feasible schedule.
    Infeasible(String),
    /// A computed solution violates a constraint.
    Violation(String),
    /// The solver work budget ran out before a schedule was found. The
    /// problem may still be feasible; see
    /// [`resilient::schedule_resilient`](crate::resilient::schedule_resilient)
    /// for the degradation path.
    Exhausted(crate::budget::Exhausted),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InvalidProblem(m) => write!(f, "invalid problem: {m}"),
            ScheduleError::Infeasible(m) => write!(f, "infeasible: {m}"),
            ScheduleError::Violation(m) => write!(f, "constraint violated: {m}"),
            ScheduleError::Exhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl LongnailProblem {
    /// Adds an operator type, returning its id.
    pub fn add_operator_type(&mut self, ot: OperatorType) -> OperatorTypeId {
        let id = OperatorTypeId(self.operator_types.len());
        self.operator_types.push(ot);
        id
    }

    /// Adds an operation of the given operator type.
    pub fn add_operation(&mut self, name: &str, operator_type: OperatorTypeId) -> OperationId {
        let id = OperationId(self.operations.len());
        self.operations.push(Operation {
            operator_type,
            name: name.to_string(),
        });
        id
    }

    /// Adds a dependence edge.
    pub fn add_dependence(&mut self, from: OperationId, to: OperationId) {
        self.dependences.push(Dependence { from, to });
    }

    /// Operator type of an operation.
    pub fn lot(&self, op: OperationId) -> &OperatorType {
        &self.operator_types[self.operations[op.0].operator_type.0]
    }

    /// Checks the *input constraints*: ids in range, windows well-formed,
    /// and the dependence graph acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidProblem`] describing the violation.
    pub fn check(&self) -> Result<(), ScheduleError> {
        for op in &self.operations {
            if op.operator_type.0 >= self.operator_types.len() {
                return Err(ScheduleError::InvalidProblem(format!(
                    "operation `{}` links to unknown operator type",
                    op.name
                )));
            }
        }
        for d in self.dependences.iter().chain(&self.chain_breakers) {
            if d.from.0 >= self.operations.len() || d.to.0 >= self.operations.len() {
                return Err(ScheduleError::InvalidProblem(
                    "dependence references unknown operation".into(),
                ));
            }
        }
        for ot in &self.operator_types {
            if let Some(latest) = ot.latest {
                if latest < ot.earliest {
                    return Err(ScheduleError::InvalidProblem(format!(
                        "operator type `{}` has latest {} < earliest {}",
                        ot.name, latest, ot.earliest
                    )));
                }
            }
            if ot.incoming_delay < 0.0 || ot.outgoing_delay < 0.0 {
                return Err(ScheduleError::InvalidProblem(format!(
                    "operator type `{}` has negative delay",
                    ot.name
                )));
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Returns a topological order of the operations.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidProblem`] if the graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<OperationId>, ScheduleError> {
        let n = self.operations.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for d in self.dependences.iter().chain(&self.chain_breakers) {
            indeg[d.to.0] += 1;
            succs[d.from.0].push(d.to.0);
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(OperationId(i));
            for &s in &succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(ScheduleError::InvalidProblem(
                "dependence graph is cyclic".into(),
            ));
        }
        Ok(order)
    }

    // ---- solution constraints, one method per hierarchy level (Table 2) ----

    /// *Problem* level: `i.ST + i.LOT.latency <= j.ST` for every dependence.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Violation`] naming the offending edge.
    pub fn verify_precedence(&self, schedule: &Schedule) -> Result<(), ScheduleError> {
        for d in &self.dependences {
            let start = schedule.start_time[d.from.0] + self.lot(d.from).latency;
            if start > schedule.start_time[d.to.0] {
                return Err(ScheduleError::Violation(format!(
                    "precedence: `{}` (ends cycle {}) -> `{}` (starts cycle {})",
                    self.operations[d.from.0].name,
                    start,
                    self.operations[d.to.0].name,
                    schedule.start_time[d.to.0],
                )));
            }
        }
        Ok(())
    }

    /// *ChainingProblem* level: combinational chains respect in-cycle
    /// physical time, and no operation's completion exceeds the cycle time.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Violation`] naming the offending edge.
    pub fn verify_chaining(&self, schedule: &Schedule) -> Result<(), ScheduleError> {
        for d in &self.dependences {
            let (i, j) = (d.from.0, d.to.0);
            let loti = self.lot(d.from);
            let (sti, stj) = (schedule.start_time[i], schedule.start_time[j]);
            let (sici, sicj) = (
                schedule.start_time_in_cycle[i],
                schedule.start_time_in_cycle[j],
            );
            let violated = if loti.latency == 0 && sti == stj {
                sici + loti.outgoing_delay > sicj + 1e-9
            } else if loti.latency > 0 && sti + loti.latency == stj {
                loti.outgoing_delay > sicj + 1e-9
            } else {
                false
            };
            if violated {
                return Err(ScheduleError::Violation(format!(
                    "chaining: `{}` -> `{}` arrives after the consumer starts",
                    self.operations[i].name, self.operations[j].name
                )));
            }
        }
        if self.cycle_time > 0.0 {
            for (i, op) in self.operations.iter().enumerate() {
                let ot = &self.operator_types[op.operator_type.0];
                if ot.latency == 0
                    && schedule.start_time_in_cycle[i] + ot.outgoing_delay
                        > self.cycle_time + 1e-9
                {
                    return Err(ScheduleError::Violation(format!(
                        "chaining: `{}` completes at {:.2} ns, exceeding the cycle time {:.2} ns",
                        op.name,
                        schedule.start_time_in_cycle[i] + ot.outgoing_delay,
                        self.cycle_time
                    )));
                }
            }
        }
        Ok(())
    }

    /// *LongnailProblem* level: every operation starts within its linked
    /// operator type's `[earliest, latest]` window.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Violation`] naming the offending operation.
    pub fn verify_windows(&self, schedule: &Schedule) -> Result<(), ScheduleError> {
        for (i, op) in self.operations.iter().enumerate() {
            let ot = &self.operator_types[op.operator_type.0];
            let st = schedule.start_time[i];
            if st < ot.earliest || ot.latest.map(|l| st > l).unwrap_or(false) {
                return Err(ScheduleError::Violation(format!(
                    "window: `{}` starts in cycle {st}, outside [{}, {}]",
                    op.name,
                    ot.earliest,
                    ot.latest
                        .map(|l| l.to_string())
                        .unwrap_or_else(|| "inf".into())
                )));
            }
        }
        Ok(())
    }

    /// Verifies all three constraint levels.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, lowest hierarchy level first.
    pub fn verify(&self, schedule: &Schedule) -> Result<(), ScheduleError> {
        if schedule.start_time.len() != self.operations.len() {
            return Err(ScheduleError::Violation(
                "schedule length does not match the operation count".into(),
            ));
        }
        self.verify_precedence(schedule)?;
        self.verify_chaining(schedule)?;
        self.verify_windows(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (LongnailProblem, OperationId, OperationId) {
        let mut p = LongnailProblem {
            cycle_time: 3.5,
            ..LongnailProblem::default()
        };
        let comb = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let a = p.add_operation("a", comb);
        let b = p.add_operation("b", comb);
        p.add_dependence(a, b);
        (p, a, b)
    }

    #[test]
    fn max_stic_is_a_true_maximum() {
        let s = Schedule {
            start_time: vec![0, 0, 1],
            start_time_in_cycle: vec![0.0, 2.5, 1.0],
        };
        assert_eq!(s.max_start_time_in_cycle(), 2.5);
        let empty = Schedule {
            start_time: vec![],
            start_time_in_cycle: vec![],
        };
        assert_eq!(empty.max_start_time_in_cycle(), 0.0);
    }

    #[test]
    fn max_stic_propagates_nan() {
        // A NaN offset is a solver bug; it must surface, not be masked.
        let s = Schedule {
            start_time: vec![0, 0],
            start_time_in_cycle: vec![1.0, f64::NAN],
        };
        assert!(s.max_start_time_in_cycle().is_nan());
    }

    #[test]
    fn max_stic_does_not_floor_negative_offsets() {
        let s = Schedule {
            start_time: vec![0, 0],
            start_time_in_cycle: vec![-2.0, -0.5],
        };
        assert_eq!(s.max_start_time_in_cycle(), -0.5);
    }

    #[test]
    fn input_checks_pass_for_valid_problem() {
        let (p, _, _) = tiny();
        p.check().unwrap();
    }

    #[test]
    fn cycle_detected() {
        let (mut p, a, b) = tiny();
        p.add_dependence(b, a);
        assert!(matches!(p.check(), Err(ScheduleError::InvalidProblem(_))));
    }

    #[test]
    fn bad_window_detected() {
        let mut p = LongnailProblem::default();
        p.add_operator_type(OperatorType::combinational("x", 1.0).with_window(3, Some(2)));
        assert!(matches!(p.check(), Err(ScheduleError::InvalidProblem(_))));
    }

    #[test]
    fn precedence_verification() {
        let (p, _, _) = tiny();
        let good = Schedule {
            start_time: vec![0, 0],
            start_time_in_cycle: vec![0.0, 1.0],
        };
        p.verify_precedence(&good).unwrap();
        // Chaining: b must start after a's 1.0 ns output delay.
        p.verify_chaining(&good).unwrap();
        let bad_chain = Schedule {
            start_time: vec![0, 0],
            start_time_in_cycle: vec![0.5, 1.0],
        };
        assert!(p.verify_chaining(&bad_chain).is_err());
    }

    #[test]
    fn window_verification() {
        let mut p = LongnailProblem::default();
        let iface =
            p.add_operator_type(OperatorType::combinational("rs1", 0.0).with_window(2, Some(4)));
        p.add_operation("read", iface);
        let ok = Schedule {
            start_time: vec![3],
            start_time_in_cycle: vec![0.0],
        };
        p.verify_windows(&ok).unwrap();
        let early = Schedule {
            start_time: vec![1],
            start_time_in_cycle: vec![0.0],
        };
        assert!(p.verify_windows(&early).is_err());
        let late = Schedule {
            start_time: vec![5],
            start_time_in_cycle: vec![0.0],
        };
        assert!(p.verify_windows(&late).is_err());
    }

    #[test]
    fn cycle_time_budget_enforced() {
        let mut p = LongnailProblem {
            cycle_time: 2.0,
            ..LongnailProblem::default()
        };
        let slow = p.add_operator_type(OperatorType::combinational("slow", 1.5));
        p.add_operation("s", slow);
        let ok = Schedule {
            start_time: vec![0],
            start_time_in_cycle: vec![0.0],
        };
        p.verify_chaining(&ok).unwrap();
        let too_late = Schedule {
            start_time: vec![0],
            start_time_in_cycle: vec![1.0],
        };
        assert!(p.verify_chaining(&too_late).is_err());
    }

    #[test]
    fn multicycle_producer_chains_into_consumer_cycle() {
        let mut p = LongnailProblem {
            cycle_time: 3.5,
            ..LongnailProblem::default()
        };
        let seq = p.add_operator_type(OperatorType::sequential("mul", 2, 1.0));
        let comb = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let a = p.add_operation("mul", seq);
        let b = p.add_operation("add", comb);
        p.add_dependence(a, b);
        // b starts exactly when a's result emerges: needs STIC >= 1.0.
        let bad = Schedule {
            start_time: vec![0, 2],
            start_time_in_cycle: vec![0.0, 0.5],
        };
        assert!(p.verify_chaining(&bad).is_err());
        let good = Schedule {
            start_time: vec![0, 2],
            start_time_in_cycle: vec![0.0, 1.0],
        };
        p.verify_chaining(&good).unwrap();
    }
}
