//! Resilient scheduling facade: exact ILP first, graceful degradation to
//! the ASAP list scheduler when the solver cannot finish.
//!
//! The ILP of Figure 7 is optimal but its cost is only loosely bounded by
//! the input size; a pathological instruction can drive the solver into a
//! long search. [`schedule_resilient`] bounds that risk with a
//! deterministic work [`Budget`] and, when the budget runs out (or the ILP
//! fails in a recoverable way), falls back to [`schedule_asap`] — which is
//! linear-time, satisfies the same Table 2 constraint hierarchy, and only
//! sacrifices the register-lifetime term of the objective. The fallback
//! schedule is re-verified against *all* constraint levels before being
//! returned, and the switch is reported as a [`Degradation`] event instead
//! of an error, so one expensive instruction degrades to a slightly larger
//! ISAX module rather than failing the whole compilation.
//!
//! Genuinely infeasible problems (interface windows that cannot be met)
//! fail both schedulers and still surface as [`ScheduleError`]s.

use crate::budget::{Budget, Exhausted};
use crate::ilp_sched::schedule_ilp_with_budget;
use crate::list_sched::schedule_asap;
use crate::problem::{LongnailProblem, Schedule, ScheduleError};
use std::fmt;

/// Why the exact scheduler was abandoned in favor of the fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationReason {
    /// The deterministic work budget ran out mid-search.
    BudgetExhausted(Exhausted),
    /// The ILP reported infeasible but the ASAP scheduler found a valid
    /// schedule (a lazy-constraint artifact, e.g. breaker-induced
    /// over-constraint).
    IlpInfeasible(String),
    /// The ILP produced a schedule that failed post-verification — an
    /// internal solver fault contained by falling back.
    IlpFault(String),
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::BudgetExhausted(e) => e.fmt(f),
            DegradationReason::IlpInfeasible(m) => write!(f, "ILP infeasible: {m}"),
            DegradationReason::IlpFault(m) => write!(f, "ILP solution rejected: {m}"),
        }
    }
}

/// Record of one exact → fallback switch.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// What stopped the exact scheduler.
    pub reason: DegradationReason,
    /// Work units spent before giving up.
    pub work_used: u64,
    /// The budget limit in force.
    pub work_limit: u64,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded to ASAP fallback scheduler: {} (work {}/{})",
            self.reason, self.work_used, self.work_limit
        )
    }
}

/// A schedule plus how it was obtained.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// The verified schedule.
    pub schedule: Schedule,
    /// `Some` when the ASAP fallback produced the schedule.
    pub degradation: Option<Degradation>,
}

impl SchedOutcome {
    /// Whether the exact ILP produced the schedule.
    pub fn is_exact(&self) -> bool {
        self.degradation.is_none()
    }
}

/// Schedules `problem`, degrading gracefully when the exact ILP cannot
/// finish within `budget`.
///
/// The returned schedule — from either path — has been verified against
/// every constraint level of Table 2 (precedence, chaining, interface
/// windows).
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidProblem`] for structurally malformed
/// inputs (no scheduler can help), or the fallback scheduler's error when
/// the problem is genuinely infeasible.
pub fn schedule_resilient(
    problem: &mut LongnailProblem,
    budget: &Budget,
) -> Result<SchedOutcome, ScheduleError> {
    let reason = match schedule_ilp_with_budget(problem, budget) {
        Ok(schedule) => {
            return Ok(SchedOutcome {
                schedule,
                degradation: None,
            })
        }
        // Structural problems affect the fallback identically; don't retry.
        Err(e @ ScheduleError::InvalidProblem(_)) => return Err(e),
        Err(ScheduleError::Exhausted(e)) => DegradationReason::BudgetExhausted(e),
        Err(ScheduleError::Infeasible(m)) => DegradationReason::IlpInfeasible(m),
        Err(ScheduleError::Violation(m)) => DegradationReason::IlpFault(m),
    };
    // Fallback: ASAP with chaining. It ignores the chain-breaker edges the
    // failed ILP attempt may have accumulated, so solver state cannot leak
    // into the fallback. Genuine infeasibility propagates from here.
    let schedule = schedule_asap(problem)?;
    problem.verify(&schedule)?;
    Ok(SchedOutcome {
        schedule,
        degradation: Some(Degradation {
            reason,
            work_used: budget.used(),
            work_limit: budget.limit(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::WorkKind;
    use crate::problem::OperatorType;

    fn chain_problem(n: usize, cycle_time: f64) -> LongnailProblem {
        let mut p = LongnailProblem {
            cycle_time,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let ops: Vec<_> = (0..n)
            .map(|i| p.add_operation(&format!("a{i}"), add))
            .collect();
        for w in ops.windows(2) {
            p.add_dependence(w[0], w[1]);
        }
        p
    }

    #[test]
    fn exact_path_taken_with_ample_budget() {
        let mut p = chain_problem(8, 2.5);
        let budget = Budget::default();
        let out = schedule_resilient(&mut p, &budget).unwrap();
        assert!(out.is_exact());
        p.verify(&out.schedule).unwrap();
    }

    #[test]
    fn tiny_budget_degrades_but_still_verifies() {
        let mut p = chain_problem(8, 2.5);
        let budget = Budget::new(0);
        let out = schedule_resilient(&mut p, &budget).unwrap();
        let deg = out.degradation.expect("zero budget must degrade");
        assert!(matches!(deg.reason, DegradationReason::BudgetExhausted(_)));
        p.verify(&out.schedule).unwrap();
    }

    #[test]
    fn infeasible_windows_still_error() {
        let mut p = LongnailProblem::default();
        let early =
            p.add_operator_type(OperatorType::combinational("early", 0.0).with_window(0, Some(1)));
        let late =
            p.add_operator_type(OperatorType::combinational("late", 0.0).with_window(3, Some(4)));
        let a = p.add_operation("a", late);
        let b = p.add_operation("b", early);
        p.add_dependence(a, b);
        assert!(schedule_resilient(&mut p, &Budget::default()).is_err());
        // Also under an empty budget: exhaustion must not mask
        // infeasibility.
        let mut p2 = LongnailProblem::default();
        let early2 =
            p2.add_operator_type(OperatorType::combinational("early", 0.0).with_window(0, Some(1)));
        let late2 =
            p2.add_operator_type(OperatorType::combinational("late", 0.0).with_window(3, Some(4)));
        let a2 = p2.add_operation("a", late2);
        let b2 = p2.add_operation("b", early2);
        p2.add_dependence(a2, b2);
        assert!(schedule_resilient(&mut p2, &Budget::new(0)).is_err());
    }

    /// A problem whose exact solve lifts and takes a repair round. `p`
    /// feeds two interface ops fixed at time 2, so the optimum lifts it
    /// from time 0 into `q`'s cycle 1 (where `s`'s latency put `q`). The
    /// breaker heuristic saw `p` in cycle 0 and left `q → c` unbroken, so
    /// the chain `p → q → c` then overruns the 2.5 ns cycle and a repair
    /// round adds that breaker; the second round lifts `p` again.
    fn lifting_problem() -> LongnailProblem {
        let mut p = LongnailProblem {
            cycle_time: 2.5,
            ..LongnailProblem::default()
        };
        let reg = p.add_operator_type(OperatorType::sequential("reg", 1, 0.0));
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let iface =
            p.add_operator_type(OperatorType::combinational("iface", 0.0).with_window(2, Some(2)));
        let s = p.add_operation("s", reg);
        let op_p = p.add_operation("p", add);
        let q = p.add_operation("q", add);
        let c = p.add_operation("c", add);
        let x = p.add_operation("x", iface);
        let y = p.add_operation("y", iface);
        for (from, to) in [(s, q), (op_p, q), (q, c), (op_p, x), (op_p, y)] {
            p.add_dependence(from, to);
        }
        p
    }

    #[test]
    fn exhaustion_mid_repair_round_degrades_to_asap() {
        // Measure the full cost, then replay with less: exhaustion at
        // `needed - 1` lands on the final round's last augmenting path,
        // and the ASAP fallback must still produce a verified schedule.
        let mut probe = lifting_problem();
        let full = Budget::unlimited();
        let out = schedule_resilient(&mut probe, &full).unwrap();
        assert!(out.is_exact());
        assert_eq!(full.count(WorkKind::Round), 2, "one repair round");
        assert!(full.count(WorkKind::Lift) > 0, "no lift taken");
        let needed = full.used();
        for limit in [needed / 2, needed - 1] {
            let mut p = lifting_problem();
            let budget = Budget::new(limit);
            let out = schedule_resilient(&mut p, &budget).unwrap();
            let deg = out
                .degradation
                .expect("a limit below the requirement must degrade");
            let DegradationReason::BudgetExhausted(e) = deg.reason else {
                panic!("expected budget exhaustion, got {}", deg.reason);
            };
            if limit == needed - 1 {
                assert_ne!(e.at, WorkKind::Round, "exhaustion must land mid-solve");
            }
            assert!(deg.work_used <= limit);
            p.verify(&out.schedule).unwrap();
        }
    }

    #[test]
    fn degradation_reports_work_accounting() {
        let mut p = lifting_problem();
        let budget = Budget::new(WorkKind::Round.cost()); // first round only
        let out = schedule_resilient(&mut p, &budget).unwrap();
        let deg = out.degradation.expect("must degrade");
        assert_eq!(deg.work_limit, WorkKind::Round.cost());
        assert!(deg.work_used <= deg.work_limit);
        assert!(deg.to_string().contains("ASAP fallback"));
    }
}
