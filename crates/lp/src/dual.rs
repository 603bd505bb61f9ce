//! Dual simplex for programs whose all-slack basis is dual feasible — every
//! repair LP — run as a bounded-variable primal simplex on the dual.
//!
//! A primal program `min Σ_j (c_j x_j + w_j |x_j|)  s.t.  M x ≤ r` (rows
//! with `≥` are negated, `=` rows keep their sign) has the Lagrangian dual
//!
//! ```text
//! min rᵀy   s.t.   Mᵀy = u,   y ≥ 0 (free on = rows),   u_j ∈ [ℓ_j, h_j]
//! ```
//!
//! where a free `x_j` gives the box `[−c_j − w_j, −c_j + w_j]` and a
//! non-negative one `[−c_j − w_j, ∞)`.  When every box contains 0 — the
//! ℓ1 objective, the ℓ∞ lowering and the `param_bound` rows all qualify —
//! `y = 0, u = 0` is a feasible basic solution with every `u_j` basic.  A
//! primal simplex on the dual started there is a dual simplex on the
//! primal started at `x = Δ = 0`: no phase 1, no artificials, and it
//! pivots only on primal rows that become active on the way to the
//! optimum.
//!
//! The working set is one row-major `(k+1) × m` condensed tableau `B⁻¹N`
//! over the `m` nonbasic columns (`k` primal variables, `m` primal rows),
//! plus the reduced-cost row, updated with the same rank-1 pivot as the
//! dense primal tableau ([`crate::simplex::pivot_rows`]).  Pricing is
//! Dantzig's rule, falling back to Bland's after a streak of degenerate
//! steps; the ratio test is Harris's two-pass test with bound flips for
//! entering `u_j` whose box is finite.
//!
//! At the optimum the primal `x_j` is the reduced cost of the column of
//! `u_j` (0 where `u_j` is basic), and the reduced cost of `y_i` is the
//! slack of primal row `i`.  An unbounded dual ray is a Farkas certificate
//! that the primal is infeasible (the paper's `⊥`); it is checked against
//! the original rows before it is believed.

use crate::problem::{ConstraintOp, LpProblem, Objective, VarKind};
use crate::simplex::{pivot_rows, COST_EPS, PIVOT_EPS};
use crate::solver::LpStats;

/// Consecutive degenerate steps before switching to Bland's rule.
const BLAND_THRESHOLD: usize = 40;

/// Bound violation the first pass of the Harris ratio test tolerates, in
/// exchange for a larger pivot element in the second pass.
const HARRIS_TOL: f64 = 1e-9;

/// A dual ray certifies primal infeasibility only if no primal point of
/// ℓ1 norm below this satisfies the rows (see [`certifies_infeasible`]).
const RAY_NORM_FLOOR: f64 = 1e6;

/// Result of [`solve`].
#[derive(Debug, PartialEq)]
pub(crate) enum DualOutcome {
    /// The primal optimum, one value per problem variable.
    Optimal(Vec<f64>),
    /// The dual is unbounded along a ray that certifies primal infeasibility.
    Infeasible,
    /// The dual is unbounded, but its ray does not hold up in the original
    /// rows (a numerical artefact); the caller re-solves another way.
    UnverifiedRay,
    /// The iteration budget ran out.
    IterationLimit,
}

/// The box `[ℓ_j, h_j]` of each dual variable `u_j`, or `None` if some box
/// excludes 0 (the all-slack basis is then not dual feasible) or the
/// objective is not one this path handles.
pub(crate) fn dual_boxes(problem: &LpProblem) -> Option<Vec<(f64, f64)>> {
    let n = problem.num_vars();
    let mut cost = vec![0.0; n];
    let mut weight = vec![0.0; n];
    match &problem.objective {
        Objective::Feasibility => {}
        Objective::Linear(c) => cost[..c.len()].copy_from_slice(c),
        Objective::MinimizeL1(vars) => {
            for v in vars {
                weight[v.0] += 1.0;
            }
        }
        Objective::MinimizeLinf(_) => return None,
    }
    problem
        .kinds
        .iter()
        .zip(cost.iter().zip(&weight))
        .map(|(kind, (&c, &w))| {
            let lo = -c - w;
            let hi = match kind {
                VarKind::Free => -c + w,
                VarKind::NonNegative => f64::INFINITY,
            };
            (lo <= 0.0 && hi >= 0.0).then_some((lo, hi))
        })
        .collect()
}

/// Solves `problem` from `x = 0` given its [`dual_boxes`].  Every iteration
/// (pivot or bound flip) counts against `max_iters` and as one pivot in the
/// returned stats.
pub(crate) fn solve(
    problem: &LpProblem,
    boxes: &[(f64, f64)],
    max_iters: usize,
) -> (DualOutcome, LpStats) {
    let mut dual = Dual::new(problem, boxes);
    let mut stats = LpStats::default();
    let mut degenerate_streak = 0usize;
    loop {
        let bland = degenerate_streak > BLAND_THRESHOLD;
        let Some((q, dir)) = dual.price(bland) else {
            return (DualOutcome::Optimal(dual.primal_values()), stats);
        };
        if stats.pivots as usize >= max_iters {
            return (DualOutcome::IterationLimit, stats);
        }
        let alpha: Vec<f64> = (0..dual.k).map(|j| dir * dual.at(j, q)).collect();
        let leave = dual.ratio_test(&alpha, bland);
        let var = dual.nonbasic[q];
        let range = dual.hi[var] - dual.lo[var];
        let step = match leave {
            None if range == f64::INFINITY => {
                let ray = dual.ray(q, dir, &alpha);
                let outcome = if certifies_infeasible(problem, &ray) {
                    DualOutcome::Infeasible
                } else {
                    DualOutcome::UnverifiedRay
                };
                return (outcome, stats);
            }
            Some((row, step)) if step < range => {
                dual.exchange(row, q, dir, step, &alpha);
                step
            }
            _ => {
                dual.flip(q, dir, range, &alpha);
                range
            }
        };
        stats.pivots += 1;
        if bland {
            stats.bland_pivots += 1;
        }
        if step < PIVOT_EPS {
            stats.degenerate_pivots += 1;
            degenerate_streak += 1;
        } else {
            degenerate_streak = 0;
        }
    }
}

/// The dual program's simplex state.  Variables `0..m` are the row
/// multipliers `y_i`, variables `m..m+k` the `u_j`.
struct Dual {
    /// `(k+1) × m` row-major: `B⁻¹N` over the nonbasic columns, then the
    /// reduced-cost row.
    t: Vec<f64>,
    /// Primal rows (tableau columns).
    m: usize,
    /// Primal variables (tableau rows, excluding the reduced-cost row).
    k: usize,
    /// Bounds of every dual variable.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Basic variable and its value, per tableau row.
    basic: Vec<usize>,
    beta: Vec<f64>,
    /// Nonbasic variable and its value (a bound, or 0 when free), per
    /// tableau column.
    nonbasic: Vec<usize>,
    value: Vec<f64>,
}

impl Dual {
    /// The all-slack start: every `u_j` basic at 0, every `y_i` nonbasic at
    /// 0.  Rows read `u_j − Σ_i M_ij y_i = 0`, so `B = I`, `B⁻¹N = −Mᵀ`, and
    /// the reduced cost of `y_i` is `r_i`.
    fn new(problem: &LpProblem, boxes: &[(f64, f64)]) -> Self {
        let m = problem.num_constraints();
        let k = problem.num_vars();
        let mut t = vec![0.0; (k + 1) * m];
        let mut lo = Vec::with_capacity(m + k);
        let mut hi = Vec::with_capacity(m + k);
        for (i, c) in problem.constraints.iter().enumerate() {
            let sign = if c.op == ConstraintOp::Ge { -1.0 } else { 1.0 };
            for (v, a) in &c.coeffs {
                t[v.0 * m + i] -= sign * a;
            }
            t[k * m + i] = sign * c.rhs;
            lo.push(if c.op == ConstraintOp::Eq {
                f64::NEG_INFINITY
            } else {
                0.0
            });
            hi.push(f64::INFINITY);
        }
        for &(l, h) in boxes {
            lo.push(l);
            hi.push(h);
        }
        Dual {
            t,
            m,
            k,
            lo,
            hi,
            basic: (m..m + k).collect(),
            beta: vec![0.0; k],
            nonbasic: (0..m).collect(),
            value: vec![0.0; m],
        }
    }

    #[inline]
    fn at(&self, row: usize, col: usize) -> f64 {
        self.t[row * self.m + col]
    }

    /// Entering column and direction (`+1` up, `−1` down): the largest
    /// `|d_q|` that improves (Dantzig), or under `bland` the improving
    /// column of smallest variable index.  `None` at optimality.
    fn price(&self, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut best_score = COST_EPS;
        for (q, &d) in self.t[self.k * self.m..].iter().enumerate() {
            let var = self.nonbasic[q];
            let dir = if d < -COST_EPS && self.value[q] < self.hi[var] {
                1.0
            } else if d > COST_EPS && self.value[q] > self.lo[var] {
                -1.0
            } else {
                continue;
            };
            if bland {
                if best.is_none_or(|(b, _)| var < self.nonbasic[b]) {
                    best = Some((q, dir));
                }
            } else if d.abs() > best_score {
                best_score = d.abs();
                best = Some((q, dir));
            }
        }
        best
    }

    /// Distance of basic row `j` to the bound it moves towards, and the
    /// rate `|α_j|` it moves at, when that bound is finite and the rate is
    /// not negligible.
    fn slack(&self, j: usize, alpha: f64) -> Option<(f64, f64)> {
        let var = self.basic[j];
        if alpha > PIVOT_EPS && self.lo[var] > f64::NEG_INFINITY {
            Some((self.beta[j] - self.lo[var], alpha))
        } else if alpha < -PIVOT_EPS && self.hi[var] < f64::INFINITY {
            Some((self.hi[var] - self.beta[j], -alpha))
        } else {
            None
        }
    }

    /// Leaving row and step length, or `None` if no basic variable blocks.
    /// Harris two-pass by default: the first pass bounds the step with
    /// every bound relaxed by [`HARRIS_TOL`], the second takes the largest
    /// pivot element among the rows blocking within that bound.  Under
    /// `bland` it is the textbook minimum ratio, ties to the smallest
    /// variable index.
    fn ratio_test(&self, alpha: &[f64], bland: bool) -> Option<(usize, f64)> {
        let blocking = || {
            alpha
                .iter()
                .enumerate()
                .filter_map(|(j, &a)| self.slack(j, a).map(|(s, rate)| (j, s, rate)))
        };
        if bland {
            let mut best: Option<(usize, f64)> = None;
            for (j, s, rate) in blocking() {
                let ratio = s.max(0.0) / rate;
                let better = best.is_none_or(|(b, r)| {
                    ratio < r - PIVOT_EPS
                        || (ratio < r + PIVOT_EPS && self.basic[j] < self.basic[b])
                });
                if better {
                    best = Some((j, ratio));
                }
            }
            return best;
        }
        let bound = blocking()
            .map(|(_, s, rate)| (s + HARRIS_TOL) / rate)
            .fold(f64::INFINITY, f64::min);
        let mut best: Option<(usize, f64)> = None;
        let mut best_rate = 0.0;
        for (j, s, rate) in blocking() {
            if s / rate <= bound && rate > best_rate {
                best_rate = rate;
                best = Some((j, (s / rate).max(0.0)));
            }
        }
        best
    }

    /// Moves the entering column `q` by `step` in direction `dir`.
    fn advance(&mut self, q: usize, dir: f64, step: f64, alpha: &[f64]) {
        for (b, a) in self.beta.iter_mut().zip(alpha) {
            *b -= a * step;
        }
        self.value[q] += dir * step;
    }

    /// The entering column crosses its whole box: no basis change.
    fn flip(&mut self, q: usize, dir: f64, range: f64, alpha: &[f64]) {
        self.advance(q, dir, range, alpha);
        let var = self.nonbasic[q];
        self.value[q] = if dir > 0.0 {
            self.hi[var]
        } else {
            self.lo[var]
        };
    }

    /// Basis exchange: column `q` enters at `row`, whose basic variable
    /// leaves at the bound it reached.  The tableau update is the rank-1
    /// elimination of the primal tableau, after which column `q` holds the
    /// leaving variable's column `(1/a on the pivot row, −f_i/a elsewhere)`.
    fn exchange(&mut self, row: usize, q: usize, dir: f64, step: f64, alpha: &[f64]) {
        self.advance(q, dir, step, alpha);
        let leaving = self.basic[row];
        self.basic[row] = self.nonbasic[q];
        self.beta[row] = self.value[q];
        self.nonbasic[q] = leaving;
        self.value[q] = if alpha[row] > 0.0 {
            self.lo[leaving]
        } else {
            self.hi[leaving]
        };

        let m = self.m;
        let column: Vec<f64> = (0..=self.k).map(|i| self.at(i, q)).collect();
        let inv = 1.0 / column[row];
        pivot_rows(&mut self.t, m, row, q);
        for (i, f) in column.iter().enumerate() {
            self.t[i * m + q] = if i == row { inv } else { -f * inv };
        }
    }

    /// The primal point: `x_j` is the reduced cost of `u_j`'s column, 0
    /// where `u_j` is basic.
    fn primal_values(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.k];
        let costs = &self.t[self.k * self.m..];
        for (&var, &d) in self.nonbasic.iter().zip(costs) {
            if var >= self.m {
                x[var - self.m] = d;
            }
        }
        x
    }

    /// The row multipliers `y` move along (per unit step) when column `q`
    /// enters in direction `dir` and nothing blocks.
    fn ray(&self, q: usize, dir: f64, alpha: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        if self.nonbasic[q] < self.m {
            y[self.nonbasic[q]] = dir;
        }
        for (&var, a) in self.basic.iter().zip(alpha) {
            if var < self.m {
                y[var] = -a;
            }
        }
        y
    }
}

/// Whether the row multipliers `y` (in the solver's row orientation, `≥`
/// rows negated) certify that `problem` is infeasible, recomputed from the
/// original rows: with `s = Σ_i y_i a_i` and `g = Σ_i y_i r_i < 0`, every
/// feasible `x` has `sᵀx ≤ g`, so if `s` is within `e` of the dual cone
/// (`s_j = 0` for free, `s_j ≥ 0` for non-negative variables) every
/// feasible `x` has `‖x‖₁ ≥ −g/e`.  The ray is believed when that norm is
/// at least [`RAY_NORM_FLOOR`].
fn certifies_infeasible(problem: &LpProblem, y: &[f64]) -> bool {
    let mut s = vec![0.0; problem.num_vars()];
    let mut gap = 0.0;
    for (c, &yi) in problem.constraints.iter().zip(y) {
        let yi = if c.op == ConstraintOp::Ge { -yi } else { yi };
        if yi == 0.0 {
            continue;
        }
        gap += yi * c.rhs;
        for (v, a) in &c.coeffs {
            s[v.0] += yi * a;
        }
    }
    let error = problem
        .kinds
        .iter()
        .zip(&s)
        .map(|(kind, &sj)| match kind {
            VarKind::Free => sj.abs(),
            VarKind::NonNegative => (-sj).max(0.0),
        })
        .fold(0.0, f64::max);
    gap < 0.0 && error * RAY_NORM_FLOOR <= -gap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LpProblem;

    fn run(lp: &LpProblem) -> (DualOutcome, LpStats) {
        let boxes = dual_boxes(lp).expect("dual feasible at the origin");
        solve(lp, &boxes, 10_000)
    }

    #[test]
    fn boxes_follow_the_objective_and_sign() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let t = lp.add_var(VarKind::NonNegative);
        lp.minimize_l1_of(&[x, t]);
        assert_eq!(
            dual_boxes(&lp),
            Some(vec![(-1.0, 1.0), (-1.0, f64::INFINITY)])
        );
        // A free variable with a linear cost has a box that excludes 0.
        lp.set_objective_linear(&[(x, 1.0), (t, 1.0)]);
        assert_eq!(dual_boxes(&lp), None);
        // A non-negative one with a non-negative cost keeps 0.
        lp.set_objective_linear(&[(t, 2.0)]);
        assert_eq!(
            dual_boxes(&lp),
            Some(vec![(0.0, 0.0), (-2.0, f64::INFINITY)])
        );
    }

    #[test]
    fn already_feasible_origin_needs_no_pivot() {
        let mut lp = LpProblem::new();
        let x = lp.add_vars(3, VarKind::Free);
        lp.add_constraint(&[(x[0], 1.0), (x[1], -2.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(&[(x[2], 1.0)], ConstraintOp::Ge, -1.0);
        lp.minimize_l1_of(&x);
        let (outcome, stats) = run(&lp);
        assert_eq!(outcome, DualOutcome::Optimal(vec![0.0; 3]));
        assert_eq!(stats.pivots, 0);
    }

    #[test]
    fn violated_rows_are_repaired_minimally() {
        // x + y ≥ 1 and x ≤ -0.5: the ℓ1 optimum is x = -0.5, y = 1.5.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -0.5);
        lp.minimize_l1_of(&[x, y]);
        let (DualOutcome::Optimal(values), stats) = run(&lp) else {
            panic!("expected an optimum");
        };
        assert!((values[0] + 0.5).abs() < 1e-12 && (values[1] - 1.5).abs() < 1e-12);
        assert!(stats.pivots >= 2);
    }

    #[test]
    fn equality_rows_get_free_multipliers() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        lp.minimize_l1_of(&[x, y]);
        let (DualOutcome::Optimal(values), _) = run(&lp) else {
            panic!("expected an optimum");
        };
        assert!((values[0] - 2.0).abs() < 1e-9 && (values[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_rows_give_a_checked_ray() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 0.0);
        lp.minimize_l1_of(&[x]);
        assert_eq!(run(&lp).0, DualOutcome::Infeasible);

        // An empty row with a negative right-hand side is infeasible too.
        let mut empty = LpProblem::new();
        empty.add_var(VarKind::Free);
        empty.add_constraint(&[], ConstraintOp::Le, -1.0);
        assert_eq!(run(&empty).0, DualOutcome::Infeasible);
    }

    #[test]
    fn rays_that_do_not_hold_in_the_rows_are_rejected() {
        // 0 ≤ x ≤ -1 in the solver's orientation: y = (1, 1) certifies.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, -1.0)], ConstraintOp::Le, 0.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -1.0);
        assert!(certifies_infeasible(&lp, &[1.0, 1.0]));
        // One multiplier alone leaves x unconstrained: no certificate.
        assert!(!certifies_infeasible(&lp, &[0.0, 1.0]));
        // A near-miss only rules out points of ℓ1 norm below 1000: too few.
        assert!(!certifies_infeasible(&lp, &[1.0 - 1e-3, 1.0]));
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let mut lp = LpProblem::new();
        let xs = lp.add_vars(4, VarKind::Free);
        for (i, x) in xs.iter().enumerate() {
            lp.add_constraint(&[(*x, 1.0)], ConstraintOp::Ge, 1.0 + i as f64);
        }
        lp.minimize_l1_of(&xs);
        let boxes = dual_boxes(&lp).unwrap();
        assert_eq!(solve(&lp, &boxes, 2).0, DualOutcome::IterationLimit);
        let (DualOutcome::Optimal(values), stats) = solve(&lp, &boxes, 4) else {
            panic!("four pivots suffice");
        };
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(stats.pivots, 4);
    }
}
