//! Property-based tests: the ILP solver against brute-force enumeration on
//! small bounded models.

use ilp::{Model, Rational, Sense, SolveError};
use proptest::prelude::*;

/// A small random model: up to 3 integer variables with bounds [0, 6],
/// up to 4 constraints with coefficients in [-3, 3] and rhs in [-8, 8].
#[derive(Debug, Clone)]
struct SmallModel {
    num_vars: usize,
    objective: Vec<i64>,
    maximize: bool,
    constraints: Vec<(Vec<i64>, i64, u8)>, // (coeffs, rhs, op: 0 le, 1 ge, 2 eq)
}

fn small_model() -> impl Strategy<Value = SmallModel> {
    (1usize..=3).prop_flat_map(|num_vars| {
        (
            proptest::collection::vec(-4i64..=4, num_vars),
            any::<bool>(),
            proptest::collection::vec(
                (
                    proptest::collection::vec(-3i64..=3, num_vars),
                    -8i64..=8,
                    0u8..=2,
                ),
                0..=4,
            ),
        )
            .prop_map(move |(objective, maximize, constraints)| SmallModel {
                num_vars,
                objective,
                maximize,
                constraints,
            })
    })
}

const BOUND: i64 = 6;

fn build(m: &SmallModel) -> (Model, Vec<ilp::VarId>) {
    let mut model = Model::new(if m.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let vars: Vec<_> = (0..m.num_vars)
        .map(|i| {
            let v = model.int_var(&format!("x{i}"));
            model.set_upper(v, BOUND);
            model.obj(v, m.objective[i]);
            v
        })
        .collect();
    for (coeffs, rhs, op) in &m.constraints {
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        match op {
            0 => model.constraint_le(&terms, *rhs),
            1 => model.constraint_ge(&terms, *rhs),
            _ => model.constraint_eq(&terms, *rhs),
        }
    }
    (model, vars)
}

/// Exhaustively enumerates the integer grid [0, BOUND]^n.
fn brute_force(m: &SmallModel) -> Option<i64> {
    let n = m.num_vars;
    let mut best: Option<i64> = None;
    let total = (BOUND as usize + 1).pow(n as u32);
    for idx in 0..total {
        let mut point = Vec::with_capacity(n);
        let mut rest = idx;
        for _ in 0..n {
            point.push((rest % (BOUND as usize + 1)) as i64);
            rest /= BOUND as usize + 1;
        }
        let feasible = m.constraints.iter().all(|(coeffs, rhs, op)| {
            let lhs: i64 = coeffs.iter().zip(&point).map(|(c, x)| c * x).sum();
            match op {
                0 => lhs <= *rhs,
                1 => lhs >= *rhs,
                _ => lhs == *rhs,
            }
        });
        if !feasible {
            continue;
        }
        let obj: i64 = m.objective.iter().zip(&point).map(|(c, x)| c * x).sum();
        best = Some(match best {
            None => obj,
            Some(b) => {
                if m.maximize {
                    b.max(obj)
                } else {
                    b.min(obj)
                }
            }
        });
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_matches_brute_force(m in small_model()) {
        let (model, _) = build(&m);
        let brute = brute_force(&m);
        match (model.solve(), brute) {
            (Ok(sol), Some(best)) => {
                prop_assert!(model.is_feasible(&sol.values),
                    "solver returned an infeasible point: {:?}", sol.values);
                prop_assert_eq!(sol.objective, Rational::int(best as i128),
                    "objective mismatch (brute force: {})", best);
            }
            (Err(SolveError::Infeasible), None) => {}
            (Ok(sol), None) => {
                prop_assert!(false, "solver found {:?} but the grid has no feasible point", sol.values);
            }
            (Err(e), Some(best)) => {
                prop_assert!(false, "solver said {} but brute force found optimum {}", e, best);
            }
            (Err(e), None) => {
                // All variables are bounded, so unboundedness cannot
                // happen.
                prop_assert!(false, "infeasible model reported as {}", e);
            }
        }
    }

    #[test]
    fn lp_relaxation_bounds_the_ilp(m in small_model()) {
        let (model, _) = build(&m);
        if let (Ok(relax), Ok(exact)) = (model.solve_relaxation(), model.solve()) {
            if m.maximize {
                prop_assert!(relax.objective >= exact.objective);
            } else {
                prop_assert!(relax.objective <= exact.objective);
            }
        }
    }
}
