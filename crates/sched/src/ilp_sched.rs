//! The ILP scheduler: exactly the formulation of Figure 7.
//!
//! Decision variables: a start time `t_i` per operation and a lifetime
//! `l_ij` per dependence. The multi-criteria objective minimizes the sum of
//! all start times (overall latency) plus all lifetimes (pipeline registers
//! in the ISAX module):
//!
//! ```text
//! minimize   Σ t_i + Σ l_ij                                    (obj)
//! s.t.       t_i + latency(i) <= t_j        ∀ i→j ∈ dependences (C1)
//!            l_ij >= t_j - t_i              ∀ i→j ∈ dependences (C2)
//!            earliest(i) <= t_i <= latest(i)                    (C3)
//!            t_i, l_ij ∈ ℕ0                                     (C4)
//!            t_i + latency(i) + 1 <= t_j    ∀ i→j ∈ chainBreakers (C5)
//! ```
//!
//! Folding (C2) into the objective leaves a difference system, which
//! [`crate::lift`] solves exactly in integer arithmetic.

use crate::budget::{Budget, WorkKind};
use crate::chain::compute_chain_breakers;
use crate::lift::{self, DiffSystem};
use crate::problem::{LongnailProblem, Schedule, ScheduleError};
use crate::stic::compute_stic;

/// Schedules `problem` with the Figure 7 ILP under a fresh default
/// [`Budget`]. See [`schedule_ilp_with_budget`].
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidProblem`] for malformed inputs and
/// [`ScheduleError::Infeasible`] when the interface windows cannot be met.
pub fn schedule_ilp(problem: &mut LongnailProblem) -> Result<Schedule, ScheduleError> {
    schedule_ilp_with_budget(problem, &Budget::default())
}

/// Schedules `problem` with the Figure 7 ILP, including chain-breaker
/// computation and STIC back-annotation. Verifies the solution against all
/// constraint levels before returning it.
///
/// The ILP is solved exactly by the difference-constraint solver in
/// [`crate::lift`], which returns the least (componentwise-earliest)
/// optimum. All solver work — lifts, augmenting paths, and one
/// [`WorkKind::Round`] per lazy-constraint repair round — is charged
/// against `budget`, so a single budget bounds the whole scheduling
/// attempt deterministically.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidProblem`] for malformed inputs,
/// [`ScheduleError::Infeasible`] when the interface windows cannot be met,
/// and [`ScheduleError::Exhausted`] when the budget runs out first.
pub fn schedule_ilp_with_budget(
    problem: &mut LongnailProblem,
    budget: &Budget,
) -> Result<Schedule, ScheduleError> {
    problem.check()?;
    compute_chain_breakers(problem)?;
    // Breakers repeat dependence edges, so this order stays topological
    // as repair rounds add more of them.
    let order: Vec<usize> = problem.topological_order()?.iter().map(|o| o.0).collect();
    // Lazy-constraint loop: solve, and if the solution violates the
    // chaining budget (the initial breakers are a heuristic), add breakers
    // on the offending edges and re-solve from scratch. Each round adds at
    // least one new breaker edge, so this terminates.
    let mut system = build_system(problem);
    for _ in 0..problem.dependences.len() + 1 {
        budget
            .charge(WorkKind::Round)
            .map_err(ScheduleError::Exhausted)?;
        let t = lift::solve(&system, &order, budget)?;
        let start_time: Vec<u32> = t.iter().map(|&v| v as u32).collect();
        let schedule = compute_stic(problem, start_time)?;
        let extra = crate::chain::repair_breakers(problem, &schedule);
        if extra.is_empty() {
            problem.verify(&schedule)?;
            return Ok(schedule);
        }
        for d in &extra {
            let latency = problem.lot(d.from).latency as i64;
            system.arcs.push((d.from.0, d.to.0, latency + 1));
        }
        problem.chain_breakers.extend(extra);
    }
    Err(ScheduleError::Infeasible(
        "chaining repair did not converge".into(),
    ))
}

/// Builds the Figure 7 model (obj + C1, C3, C4, C5 over the breakers known
/// so far) as a difference system over the start times.
fn build_system(problem: &LongnailProblem) -> DiffSystem {
    // Because every latency is non-negative, C1 forces t_j >= t_i on every
    // dependence, so at any optimum the lifetime variable l_ij of (C2)
    // equals exactly t_j - t_i. Substituting into the objective folds the
    // lifetime terms into per-operation weights:
    //
    //   Σ t_i + Σ_(i→j) (t_j - t_i)  =  Σ_i (1 + indeg(i) - outdeg(i)) t_i
    //
    // which leaves a pure difference system over the start times.
    let mut weight = vec![1i64; problem.operations.len()];
    for d in &problem.dependences {
        weight[d.from.0] -= 1;
        weight[d.to.0] += 1;
    }
    // Window bounds (C3, C4).
    let (lower, upper) = problem
        .operations
        .iter()
        .map(|op| {
            let ot = &problem.operator_types[op.operator_type.0];
            (i64::from(ot.earliest), ot.latest.map(i64::from))
        })
        .unzip();
    // Precedence (C1) and the chain breakers (C5) known so far; repair
    // rounds append later ones.
    let arc = |d: &crate::problem::Dependence, extra: i64| {
        (
            d.from.0,
            d.to.0,
            i64::from(problem.lot(d.from).latency) + extra,
        )
    };
    let arcs = problem
        .dependences
        .iter()
        .map(|d| arc(d, 0))
        .chain(problem.chain_breakers.iter().map(|d| arc(d, 1)))
        .collect();
    DiffSystem {
        lower,
        upper,
        weight,
        arcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LongnailProblem, OperatorType};

    /// Builds the Figure 6 instance: the ADDI data path scheduled against a
    /// VexRiscv-like datasheet (instruction word in stages 1..4, register
    /// file in 2..4, WrRD from 2 with latest = ∞), cycle time 3.5 ns.
    fn figure6() -> (LongnailProblem, Vec<crate::problem::OperationId>) {
        let mut p = LongnailProblem {
            cycle_time: 3.5,
            ..LongnailProblem::default()
        };
        let instr = p.add_operator_type(
            OperatorType::combinational("lil.instr_word", 0.0).with_window(1, Some(4)),
        );
        let rs1 = p.add_operator_type(
            OperatorType::combinational("lil.read_rs1", 0.0).with_window(2, Some(4)),
        );
        let wr = p.add_operator_type(
            OperatorType::combinational("lil.write_rd", 0.0).with_window(2, None),
        );
        let comb = p.add_operator_type(OperatorType::combinational("comb", 1.0));
        let o_instr = p.add_operation("instr_word", instr);
        let o_extract = p.add_operation("extract", comb);
        let o_rs1 = p.add_operation("read_rs1", rs1);
        let o_sext = p.add_operation("sext", comb);
        let o_add = p.add_operation("add", comb);
        let o_wr = p.add_operation("write_rd", wr);
        p.add_dependence(o_instr, o_extract);
        p.add_dependence(o_extract, o_sext);
        p.add_dependence(o_rs1, o_add);
        p.add_dependence(o_sext, o_add);
        p.add_dependence(o_add, o_wr);
        (p, vec![o_instr, o_extract, o_rs1, o_sext, o_add, o_wr])
    }

    #[test]
    fn schedules_figure6_addi() {
        let (mut p, ops) = figure6();
        let sched = schedule_ilp(&mut p).unwrap();
        p.verify(&sched).unwrap();
        // Interface windows honored.
        assert!(sched.start_time[ops[0].0] >= 1);
        assert!(sched.start_time[ops[2].0] >= 2);
        assert!(sched.start_time[ops[5].0] >= 2);
        // The write lands after the add.
        assert!(sched.start_time[ops[5].0] >= sched.start_time[ops[4].0]);
    }

    #[test]
    fn tight_cycle_time_pushes_write_later() {
        // With a 3.5 ns budget and three 1.0 ns combinational levels behind
        // the stage-2 operand read, Figure 6 shows lil.write_rd pushed to
        // start time 3 when the chain cannot finish in stage 2.
        let (mut p, ops) = figure6();
        p.cycle_time = 1.5; // at most one 1.0 ns level per cycle
        let sched = schedule_ilp(&mut p).unwrap();
        p.verify(&sched).unwrap();
        assert!(
            sched.start_time[ops[5].0] >= 3,
            "write_rd at {} should be pushed to stage 3+",
            sched.start_time[ops[5].0]
        );
    }

    #[test]
    fn infeasible_window_is_reported() {
        let mut p = LongnailProblem::default();
        let early =
            p.add_operator_type(OperatorType::combinational("early", 0.0).with_window(0, Some(1)));
        let late =
            p.add_operator_type(OperatorType::combinational("late", 0.0).with_window(3, Some(4)));
        let a = p.add_operation("a", late);
        let b = p.add_operation("b", early);
        p.add_dependence(a, b); // a >= 3 must precede b <= 1: impossible
        assert!(matches!(
            schedule_ilp(&mut p),
            Err(ScheduleError::Infeasible(_))
        ));
    }

    #[test]
    fn lifetimes_pull_producers_toward_consumers() {
        // A producer feeding two far-future interface ops: the two lifetime
        // terms outweigh the single start-time term, so the optimum moves
        // the producer to the consumers (saving two pipeline registers)
        // instead of leaving it at time 0.
        let mut p = LongnailProblem::default();
        let comb = p.add_operator_type(OperatorType::combinational("comb", 1.0));
        let iface =
            p.add_operator_type(OperatorType::combinational("iface", 0.0).with_window(5, Some(5)));
        let a = p.add_operation("a", comb);
        let b = p.add_operation("b", iface);
        let c = p.add_operation("c", iface);
        p.add_dependence(a, b);
        p.add_dependence(a, c);
        p.cycle_time = 1.5;
        let sched = schedule_ilp(&mut p).unwrap();
        // obj = t_a + t_b + t_c + (t_b - t_a) + (t_c - t_a) = 2·5 + 5 + (5 - t_a)·... :
        // coefficient of t_a is 1 - 2 = -1, so t_a = 5 is strictly optimal.
        assert_eq!(sched.start_time[0], 5);
    }

    #[test]
    fn empty_problem_schedules() {
        let mut p = LongnailProblem::default();
        let sched = schedule_ilp(&mut p).unwrap();
        assert!(sched.start_time.is_empty());
    }

    #[test]
    fn chain_breakers_separate_long_chains() {
        let mut p = LongnailProblem {
            cycle_time: 2.5,
            ..LongnailProblem::default()
        };
        let add = p.add_operator_type(OperatorType::combinational("add", 1.0));
        let ops: Vec<_> = (0..6)
            .map(|i| p.add_operation(&format!("a{i}"), add))
            .collect();
        for w in ops.windows(2) {
            p.add_dependence(w[0], w[1]);
        }
        let sched = schedule_ilp(&mut p).unwrap();
        p.verify(&sched).unwrap();
        // Six 1.0 ns adders in 2.5 ns cycles: at most 2 per cycle.
        assert!(sched.makespan() >= 2);
    }
}
