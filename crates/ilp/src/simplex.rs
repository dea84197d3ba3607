//! Cold two-phase primal simplex.
//!
//! The tableau works in `f64` with Dantzig pricing, falling back to Bland's
//! rule under prolonged degeneracy, which guarantees termination. Solutions
//! are snapped to exact rationals and re-verified exactly by the callers via
//! [`crate::Model::is_feasible`]. This is the reference oracle's LP layer;
//! the compiler schedules with the exact integer solver in `sched`.

use crate::model::{ConstraintOp, Model, Sense, Solution, SolveError};
use crate::rational::Rational;

const EPS: f64 = 1e-7;
/// After this many Dantzig pivots, switch to Bland's rule (anti-cycling).
const DANTZIG_LIMIT: usize = 20_000;

/// Solves the LP relaxation of `model` from scratch (two-phase primal).
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
///
/// # Panics
///
/// Panics when a vertex coordinate cannot be reconstructed as an exact
/// rational: an oracle must not answer with a guess.
pub fn solve_lp(model: &Model) -> Result<Solution, SolveError> {
    let mut sx = Simplex::new(model);
    sx.optimize()?;
    Ok(sx.solution(model))
}

/// Converts an f64 to a rational: near-integers snap exactly, and
/// fractional values are reconstructed by continued fractions so that LP
/// vertex coordinates (small-denominator rationals like 5/3) come back
/// exact rather than as lossy binary approximations.
///
/// Returns `None` for non-finite values and for magnitudes outside the
/// exactly-representable `i128` range, where a saturating cast would
/// fabricate a plausible-looking but wrong rational.
fn snap(v: f64) -> Option<Rational> {
    if !v.is_finite() {
        return None;
    }
    let r = v.round();
    if r.abs() >= i128::MAX as f64 {
        return None;
    }
    if (v - r).abs() < 1e-6 {
        return Some(Rational::int(r as i128));
    }
    let negative = v < 0.0;
    let target = v.abs();
    let mut x = target;
    let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
    for _ in 0..48 {
        let a = x.floor();
        let ai = a as i128;
        let p2 = ai.saturating_mul(p1).saturating_add(p0);
        let q2 = ai.saturating_mul(q1).saturating_add(q0);
        if q2 > 1_000_000_000 || q2 <= 0 {
            break;
        }
        (p0, q0, p1, q1) = (p1, q1, p2, q2);
        if (p1 as f64 / q1 as f64 - target).abs() < 1e-12 * target.max(1.0) {
            break;
        }
        let frac = x - a;
        if frac < 1e-13 {
            break;
        }
        x = 1.0 / frac;
    }
    if q1 <= 0 {
        // Continued fractions failed (huge leading digit): scale by 2^20.
        // The scaled magnitude must itself fit in i128 — saturating the
        // cast would fabricate a wrong value.
        let scaled = (v * 1_048_576.0).round();
        if scaled.abs() >= i128::MAX as f64 {
            return None;
        }
        return Some(Rational::new(scaled as i128, 1_048_576));
    }
    Some(Rational::new(if negative { -p1 } else { p1 }, q1))
}

/// A simplex tableau over the standard form of one [`Model`].
///
/// Layout: `(m + 1)` rows × `(num_cols + 1)` columns, flat; the last row
/// is the (reduced) objective, the last column the rhs. Structural
/// variables are shifted by their lower bounds (all columns `>= 0`); upper
/// bounds are explicit rows.
struct Simplex {
    a: Vec<f64>,
    width: usize,
    m: usize,
    num_cols: usize,
    basis: Vec<usize>,
    /// Columns that may not enter the basis (frozen artificials after
    /// phase 1).
    banned: Vec<bool>,
    /// Structural variable count of the source model.
    n: usize,
    /// Lower-bound shift per structural variable.
    lower: Vec<f64>,
    /// Phase-2 objective (sense-adjusted to minimization) per column.
    cost: Vec<f64>,
    /// First artificial column, `num_cols` when none exist.
    first_artificial: usize,
}

impl Simplex {
    /// Builds the standard-form tableau for `model` (no pivots yet).
    fn new(model: &Model) -> Simplex {
        let n = model.vars.len();
        let lower: Vec<f64> = model.vars.iter().map(|v| v.lower.to_f64()).collect();

        // Rows: (coeffs, op, rhs) over shifted variables (all >= 0).
        let mut rows: Vec<(Vec<f64>, ConstraintOp, f64)> = Vec::new();
        for c in &model.constraints {
            let mut coeffs = vec![0.0; n];
            let mut rhs = c.rhs.to_f64();
            for &(v, coeff) in &c.terms {
                coeffs[v.0] += coeff.to_f64();
                rhs -= coeff.to_f64() * lower[v.0];
            }
            rows.push((coeffs, c.op, rhs));
        }
        for (i, v) in model.vars.iter().enumerate() {
            if let Some(u) = v.upper {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                rows.push((coeffs, ConstraintOp::Le, u.to_f64() - lower[i]));
            }
        }

        let flip = model.sense == Sense::Maximize;
        let cost: Vec<f64> = model
            .objective
            .iter()
            .map(|&c| if flip { -c.to_f64() } else { c.to_f64() })
            .collect();

        // Normalize rhs >= 0; assign slack/artificial columns.
        let m = rows.len();
        let mut num_cols = n;
        let mut slack_col: Vec<Option<usize>> = vec![None; m];
        for (i, row) in rows.iter_mut().enumerate() {
            if row.2 < 0.0 {
                for c in row.0.iter_mut() {
                    *c = -*c;
                }
                row.2 = -row.2;
                row.1 = match row.1 {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Ge => ConstraintOp::Le,
                    ConstraintOp::Eq => ConstraintOp::Eq,
                };
            }
            if row.1 != ConstraintOp::Eq {
                slack_col[i] = Some(num_cols);
                num_cols += 1;
            }
        }
        let mut artificial_col: Vec<Option<usize>> = vec![None; m];
        for (i, row) in rows.iter().enumerate() {
            if row.1 != ConstraintOp::Le {
                artificial_col[i] = Some(num_cols);
                num_cols += 1;
            }
        }
        let first_artificial = (0..m)
            .filter_map(|i| artificial_col[i])
            .min()
            .unwrap_or(num_cols);

        let width = num_cols + 1;
        let mut sx = Simplex {
            a: vec![0.0; (m + 1) * width],
            width,
            m,
            num_cols,
            basis: vec![usize::MAX; m],
            banned: vec![false; num_cols],
            n,
            lower,
            cost,
            first_artificial,
        };
        for (i, (coeffs, op, rhs)) in rows.iter().enumerate() {
            for (j, &c) in coeffs.iter().enumerate() {
                sx.a[i * width + j] = c;
            }
            if let Some(s) = slack_col[i] {
                sx.a[i * width + s] = match op {
                    ConstraintOp::Le => 1.0,
                    ConstraintOp::Ge => -1.0,
                    ConstraintOp::Eq => unreachable!(),
                };
            }
            if let Some(art) = artificial_col[i] {
                sx.a[i * width + art] = 1.0;
            }
            sx.a[i * width + num_cols] = *rhs;
            sx.basis[i] = artificial_col[i].or(slack_col[i]).expect("basic column");
        }
        sx
    }

    /// Two-phase primal solve from the initial basis.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] or [`SolveError::Unbounded`].
    fn optimize(&mut self) -> Result<(), SolveError> {
        let (width, m, num_cols) = (self.width, self.m, self.num_cols);
        // Phase 1.
        if self.first_artificial < num_cols {
            // Objective: minimize sum of artificials. Reduced objective
            // row: z_j = c_j - Σ_{rows with artificial basis} a[i][j].
            for j in 0..num_cols {
                let mut z = if j >= self.first_artificial { 1.0 } else { 0.0 };
                for i in 0..m {
                    if self.basis[i] >= self.first_artificial {
                        z -= self.a[i * width + j];
                    }
                }
                self.a[m * width + j] = z;
            }
            let mut obj = 0.0;
            for i in 0..m {
                if self.basis[i] >= self.first_artificial {
                    obj -= self.a[i * width + num_cols];
                }
            }
            self.a[m * width + num_cols] = obj;
            self.run()?;
            if self.a[m * width + num_cols] < -1e-5 {
                return Err(SolveError::Infeasible);
            }
            // Drive remaining artificials out of the basis where possible.
            for i in 0..m {
                if self.basis[i] >= self.first_artificial {
                    if let Some(j) =
                        (0..self.first_artificial).find(|&j| self.a[i * width + j].abs() > EPS)
                    {
                        self.pivot(i, j);
                    }
                }
            }
            for j in self.first_artificial..num_cols {
                self.banned[j] = true;
            }
        }

        // Phase 2 objective row.
        for j in 0..num_cols {
            let mut z = self.cost.get(j).copied().unwrap_or(0.0);
            for i in 0..m {
                let cb = self.cost.get(self.basis[i]).copied().unwrap_or(0.0);
                if cb != 0.0 {
                    z -= cb * self.a[i * width + j];
                }
            }
            self.a[m * width + j] = z;
        }
        let mut obj = 0.0;
        for i in 0..m {
            let cb = self.cost.get(self.basis[i]).copied().unwrap_or(0.0);
            obj -= cb * self.a[i * width + num_cols];
        }
        self.a[m * width + num_cols] = obj;
        self.run()
    }

    /// Extracts the (unshifted) solution and exact objective.
    ///
    /// # Panics
    ///
    /// Panics when a coordinate cannot be snapped to an exact rational.
    fn solution(&self, model: &Model) -> Solution {
        let mut raw = vec![0.0f64; self.n];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n {
                raw[b] = self.a[i * self.width + self.num_cols];
            }
        }
        let mut values = Vec::with_capacity(self.n);
        for (&v, &lb) in raw.iter().zip(&self.lower) {
            let x = v + lb;
            values.push(
                snap(x).unwrap_or_else(|| {
                    panic!("vertex coordinate {x:e} has no exact i128 rational")
                }),
            );
        }
        let objective = model
            .objective
            .iter()
            .enumerate()
            .fold(Rational::ZERO, |acc, (i, &c)| acc + c * values[i]);
        Solution { values, objective }
    }

    fn run(&mut self) -> Result<(), SolveError> {
        let width = self.width;
        for iter in 0.. {
            // Entering column.
            let obj_row = self.m * width;
            let entering = if iter < DANTZIG_LIMIT {
                // Dantzig: most negative reduced cost.
                let mut best = None;
                let mut best_z = -EPS;
                for j in 0..self.num_cols {
                    if self.banned[j] {
                        continue;
                    }
                    let z = self.a[obj_row + j];
                    if z < best_z {
                        best_z = z;
                        best = Some(j);
                    }
                }
                best
            } else {
                // Bland: smallest index with negative reduced cost.
                (0..self.num_cols).find(|&j| !self.banned[j] && self.a[obj_row + j] < -EPS)
            };
            let Some(j) = entering else {
                return Ok(());
            };
            // Ratio test.
            let mut best: Option<(f64, usize)> = None;
            for i in 0..self.m {
                let aij = self.a[i * width + j];
                if aij > EPS {
                    let ratio = self.a[i * width + self.num_cols] / aij;
                    best = match best {
                        None => Some((ratio, i)),
                        Some((r, bi)) => {
                            if ratio < r - EPS
                                || (ratio < r + EPS && self.basis[i] < self.basis[bi])
                            {
                                Some((ratio, i))
                            } else {
                                Some((r, bi))
                            }
                        }
                    };
                }
            }
            let Some((_, i)) = best else {
                return Err(SolveError::Unbounded);
            };
            self.pivot(i, j);
        }
        unreachable!("unbounded loop exits via return")
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let p = self.a[row * width + col];
        debug_assert!(p.abs() > EPS);
        let inv = 1.0 / p;
        for j in 0..width {
            self.a[row * width + j] *= inv;
        }
        self.a[row * width + col] = 1.0; // fight rounding drift
        for i in 0..=self.m {
            if i == row {
                continue;
            }
            let factor = self.a[i * width + col];
            if factor == 0.0 {
                continue;
            }
            for j in 0..width {
                self.a[i * width + j] -= factor * self.a[row * width + j];
            }
            self.a[i * width + col] = 0.0;
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use crate::{Model, Sense, SolveError};

    #[test]
    fn simple_minimization() {
        // min x + y s.t. x + y >= 3, x <= 2
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x");
        let y = m.var("y");
        m.obj(x, 1);
        m.obj(y, 1);
        m.constraint_ge(&[(x, 1), (y, 1)], 3);
        m.set_upper(x, 2);
        let sol = m.solve_relaxation().unwrap();
        assert_eq!(sol.objective, 3.into());
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x");
        let y = m.var("y");
        m.obj(x, 3);
        m.obj(y, 2);
        m.constraint_le(&[(x, 1), (y, 1)], 4);
        m.constraint_le(&[(x, 1), (y, 3)], 6);
        let sol = m.solve_relaxation().unwrap();
        assert_eq!(sol.objective, 12.into());
        assert_eq!(sol.value(x), 4);
        assert_eq!(sol.value(y), 0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x");
        m.obj(x, 1);
        m.constraint_ge(&[(x, 1)], 5);
        m.constraint_le(&[(x, 1)], 2);
        assert_eq!(m.solve_relaxation().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x");
        m.obj(x, 1);
        assert_eq!(m.solve_relaxation().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + y s.t. x + y == 5, x - y == 1  → x=3, y=2
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x");
        let y = m.var("y");
        m.obj(x, 2);
        m.obj(y, 1);
        m.constraint_eq(&[(x, 1), (y, 1)], 5);
        m.constraint_eq(&[(x, 1), (y, -1)], 1);
        let sol = m.solve_relaxation().unwrap();
        assert_eq!(sol.value(x), 3);
        assert_eq!(sol.value(y), 2);
    }

    #[test]
    fn lower_bound_shift() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x");
        let y = m.var("y");
        m.set_lower(x, -3);
        m.set_upper(y, 1);
        m.obj(x, 1);
        m.constraint_ge(&[(x, 1), (y, 1)], 0);
        let sol = m.solve_relaxation().unwrap();
        assert_eq!(sol.value(x), -1);
        assert_eq!(sol.value(y), 1);
    }

    #[test]
    fn fractional_lp_solution() {
        // max x s.t. 2x <= 3 → x = 3/2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x");
        m.obj(x, 1);
        m.constraint_le(&[(x, 2)], 3);
        let sol = m.solve_relaxation().unwrap();
        assert_eq!(sol.rational_value(x), crate::Rational::new(3, 2));
    }

    #[test]
    fn degenerate_problems_terminate() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x");
        let y = m.var("y");
        m.obj(x, 1);
        m.obj(y, 1);
        m.constraint_ge(&[(x, 1), (y, 1)], 2);
        m.constraint_ge(&[(x, 2), (y, 2)], 4);
        m.constraint_ge(&[(x, 3), (y, 3)], 6);
        let sol = m.solve_relaxation().unwrap();
        assert_eq!(sol.objective, 2.into());
    }

    #[test]
    fn negative_objective_coefficients() {
        // min x - 2y s.t. y <= x, x <= 10 → x = y = 10 gives -10.
        let mut m = Model::new(Sense::Minimize);
        let x = m.var("x");
        let y = m.var("y");
        m.obj(x, 1);
        m.obj(y, -2);
        m.constraint_le(&[(y, 1), (x, -1)], 0);
        m.set_upper(x, 10);
        let sol = m.solve_relaxation().unwrap();
        assert_eq!(sol.objective, (-10).into());
        assert_eq!(sol.value(x), 10);
        assert_eq!(sol.value(y), 10);
    }

    #[test]
    fn larger_difference_chain_is_fast() {
        // A 200-op chain with fan-outs — must solve in well under a second.
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..200).map(|i| m.int_var(&format!("t{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            m.obj(v, if i % 3 == 0 { 2 } else { -1 });
            m.set_upper(v, 400);
        }
        for w in vars.windows(2) {
            m.constraint_le(&[(w[0], 1), (w[1], -1)], -1);
        }
        for i in (0..190).step_by(10) {
            m.constraint_le(&[(vars[i], 1), (vars[i + 9], -1)], -5);
        }
        let sol = m.solve().unwrap();
        assert!(m.is_feasible(&sol.values));
    }

    #[test]
    fn snap_rejects_out_of_range_values() {
        assert_eq!(super::snap(1e40), None);
        assert_eq!(super::snap(f64::NAN), None);
        assert_eq!(super::snap(f64::INFINITY), None);
        // A huge *fractional* value overflows the continued-fraction
        // accumulator and must error, not saturate: the old fallback
        // returned i128::MAX/2^20 for any such input.
        assert_eq!(super::snap(2.5e38), None);
        // Sane values still snap exactly.
        assert_eq!(super::snap(3.0), Some(crate::Rational::int(3)));
        assert_eq!(super::snap(1.5), Some(crate::Rational::new(3, 2)));
    }
}
