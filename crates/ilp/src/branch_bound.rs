//! Naive depth-first branch-and-bound: every node clones the whole
//! [`Model`] and re-solves its LP relaxation from scratch with the cold
//! simplex. Slow, simple, and the reference the scheduler's property tests
//! compare against.

use crate::model::{Model, Sense, Solution, SolveError};
use crate::rational::Rational;
use crate::simplex;

/// Solves `model` to integer optimality.
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] if no integer point satisfies the
/// constraints, or [`SolveError::Unbounded`] if the relaxation is
/// unbounded.
pub fn solve(model: &Model) -> Result<Solution, SolveError> {
    let root = simplex::solve_lp(model)?;
    if let Some(sol) = integral(model, &root) {
        return Ok(sol);
    }
    let minimize = model.sense == Sense::Minimize;
    let better = |a: Rational, b: Rational| if minimize { a < b } else { a > b };

    let mut incumbent: Option<Solution> = None;
    let mut stack: Vec<Model> = Vec::new();
    branch(model, &root, &mut stack);
    while let Some(node) = stack.pop() {
        let relaxed = match simplex::solve_lp(&node) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        if let Some(inc) = &incumbent {
            if !better(relaxed.objective, inc.objective) {
                continue; // pruned by bound
            }
        }
        match integral(&node, &relaxed) {
            Some(sol) => {
                let is_better = incumbent
                    .as_ref()
                    .map(|inc| better(sol.objective, inc.objective))
                    .unwrap_or(true);
                if is_better {
                    incumbent = Some(sol);
                }
            }
            None => branch(&node, &relaxed, &mut stack),
        }
    }
    incumbent.ok_or(SolveError::Infeasible)
}

/// Pushes the two child models for the first fractional integer variable.
fn branch(model: &Model, sol: &Solution, stack: &mut Vec<Model>) {
    let (i, x) = model
        .vars
        .iter()
        .zip(&sol.values)
        .enumerate()
        .find_map(|(i, (v, x))| (v.integer && !x.is_integer()).then_some((i, *x)))
        .expect("branch called with an integral solution");
    let mut down = model.clone();
    let floor = Rational::int(x.floor());
    match down.vars[i].upper {
        Some(u) if u <= floor => {}
        _ => down.vars[i].upper = Some(floor),
    }
    stack.push(down);
    let mut up = model.clone();
    let ceil = Rational::int(x.ceil());
    if up.vars[i].lower < ceil {
        up.vars[i].lower = ceil;
    }
    stack.push(up);
}

/// Returns the solution if every integer variable is integral.
fn integral(model: &Model, sol: &Solution) -> Option<Solution> {
    let ok = model
        .vars
        .iter()
        .zip(&sol.values)
        .all(|(v, x)| !v.integer || x.is_integer());
    ok.then(|| sol.clone())
}

#[cfg(test)]
mod tests {
    use crate::{Model, Rational, Sense, SolveError};

    #[test]
    fn rounds_fractional_relaxation() {
        // max x s.t. 2x <= 3, x integer → x = 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x");
        m.obj(x, 1);
        m.constraint_le(&[(x, 2)], 3);
        let sol = m.solve().unwrap();
        assert_eq!(sol.value(x), 1);
    }

    #[test]
    fn knapsack_like() {
        // max 5a + 4b s.t. 6a + 5b <= 10, a,b integer.
        // a=1 forces b=0 (value 5); a=0 allows b=2 (value 8) — optimal.
        let mut m = Model::new(Sense::Maximize);
        let a = m.int_var("a");
        let b = m.int_var("b");
        m.obj(a, 5);
        m.obj(b, 4);
        m.constraint_le(&[(a, 6), (b, 5)], 10);
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, 8.into());
        assert_eq!(sol.value(a), 0);
        assert_eq!(sol.value(b), 2);
    }

    #[test]
    fn integer_infeasible() {
        // 1/3 <= x <= 2/3, x integer → infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x");
        m.obj(x, 1);
        m.add_rational_constraint(crate::Constraint {
            terms: vec![(x, Rational::int(3))],
            op: crate::ConstraintOp::Ge,
            rhs: Rational::int(1),
        });
        m.add_rational_constraint(crate::Constraint {
            terms: vec![(x, Rational::int(3))],
            op: crate::ConstraintOp::Le,
            rhs: Rational::int(2),
        });
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn mixed_integer() {
        // min y s.t. y >= x - 0.5, y >= -x + 2.5, x integer, y continuous.
        // x=1 → y >= 1.5; x=2 → y >= 1.5. Optimal y = 1.5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x");
        let y = m.var("y");
        m.obj(y, 1);
        m.add_rational_constraint(crate::Constraint {
            terms: vec![(y, Rational::int(2)), (x, Rational::int(-2))],
            op: crate::ConstraintOp::Ge,
            rhs: Rational::int(-1),
        });
        m.add_rational_constraint(crate::Constraint {
            terms: vec![(y, Rational::int(2)), (x, Rational::int(2))],
            op: crate::ConstraintOp::Ge,
            rhs: Rational::int(5),
        });
        let sol = m.solve().unwrap();
        assert_eq!(sol.rational_value(y), Rational::new(3, 2));
    }

    #[test]
    fn difference_constraints_solve_at_integral_vertices() {
        // A Figure-7-shaped model: start times over a precedence DAG. The
        // constraint matrix is totally unimodular, so the root relaxation
        // is already integral.
        let mut m = Model::new(Sense::Minimize);
        let t: Vec<_> = (0..5).map(|i| m.int_var(&format!("t{i}"))).collect();
        for &v in &t {
            m.obj(v, 1);
        }
        // chain t0 -> t1 -> t3, t2 -> t3, t3 -> t4 with latencies 1.
        for &(a, b) in &[(0, 1), (1, 3), (2, 3), (3, 4)] {
            m.constraint_le(&[(t[a], 1), (t[b], -1)], -1);
        }
        let relaxed = m.solve_relaxation().unwrap();
        assert!(relaxed.values.iter().all(Rational::is_integer));
        let sol = m.solve().unwrap();
        assert_eq!(sol.value(t[0]), 0);
        assert_eq!(sol.value(t[1]), 1);
        assert_eq!(sol.value(t[2]), 0);
        assert_eq!(sol.value(t[3]), 2);
        assert_eq!(sol.value(t[4]), 3);
    }

    #[test]
    fn feasibility_checker_agrees() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x");
        m.obj(x, 1);
        m.constraint_ge(&[(x, 1)], 3);
        let sol = m.solve().unwrap();
        assert!(m.is_feasible(&sol.values));
        assert!(!m.is_feasible(&[Rational::int(2)]));
    }
}
