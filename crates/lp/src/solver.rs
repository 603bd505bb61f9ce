//! Backend selection and the conversion from modelling form to standard
//! form.
//!
//! [`LpBackend::Auto`] (the default used by [`solve`] / [`solve_with_limit`]
//! and by the repair algorithms) first asks whether the all-slack basis of
//! the program is dual feasible: whether every dual box `[ℓ_j, h_j]` of
//! [`crate::dual`] contains 0.  The ℓ1 objective, the ℓ∞ lowering and
//! `param_bound` rows always qualify, so every repair LP goes to the dual
//! simplex, started at `x = 0`.  Its `x` is checked against the original
//! rows (and an infeasibility ray against them too); a check that fails
//! re-solves on the primal revised → dense path and counts an
//! [`LpStats::fallbacks`].
//!
//! The remaining programs, and explicit backend choices, take the primal
//! two-phase path over a *sparse* standard form built straight from the
//! (already sparse) modelling constraints:
//!
//! * [`LpBackend::RevisedSparse`] — the revised simplex over CSR/CSC
//!   columns with a Markowitz-ordered LU-factorised, eta-updated basis
//!   ([`crate::revised`]).  `O(nnz + m²)` per pivot.  [`PricingRule`] picks
//!   its entering-column rule (Devex partial pricing by default).  If it
//!   hits a numerical breakdown (singular basis refactorisation), the solve
//!   transparently re-runs on the dense tableau.
//! * [`LpBackend::DenseTableau`] — the flat-tableau two-phase simplex
//!   ([`crate::simplex`]).  `O(m·n)` per pivot with a small constant; the
//!   differential-testing oracle for the other two.
//!
//! For those programs `Auto` compares the estimated per-pivot work of the
//! two primal backends — `m·n` cells for the tableau against `nnz + 2m²`
//! for pricing plus the BTRAN/FTRAN triangular solves — and picks the
//! cheaper one.

use crate::dual::{self, DualOutcome};
use crate::problem::{ConstraintOp, LpProblem, Objective, VarKind};
use crate::revised::{solve_standard_sparse_with_stats, Pricing, RevisedStats};
use crate::simplex::{solve_standard, SimplexOutcome};
use crate::sparse::{CsrMatrix, SparseStandardForm};
use crate::LpError;

/// An optimal solution of an [`LpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value of each problem variable, indexed by [`crate::VarId::index`].
    pub values: Vec<f64>,
    /// Optimal objective value (0 for pure feasibility problems).
    pub objective: f64,
}

/// Work counters from one solve, surfaced by [`solve_with_stats`].
///
/// The dual simplex (the default path of every repair LP) fills `pivots`,
/// `bland_pivots` and `degenerate_pivots`, counting a bound flip as a
/// pivot; it never refactorises.  The dense tableau (an explicit
/// `DenseTableau` solve, or the revised backend's breakdown fallback)
/// fills the same three.  The revised sparse backend fills every field.
/// A dual solve that falls back adds the primal
/// solve's counters to its own.  ℓ∞ objectives are lowered to a single
/// augmented solve, whose counters carry through unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Total simplex pivots across both phases.
    pub pivots: u64,
    /// Pivots taken under the Bland anti-cycling fallback.
    pub bland_pivots: u64,
    /// Mid-solve basis refactorisations.
    pub refactorizations: u64,
    /// Degenerate (zero-step) pivots.
    pub degenerate_pivots: u64,
    /// Dual-path solves whose result failed its check against the original
    /// rows and were re-solved on the primal revised → dense path.
    pub fallbacks: u64,
}

impl From<RevisedStats> for LpStats {
    fn from(s: RevisedStats) -> Self {
        LpStats {
            pivots: s.pivots as u64,
            bland_pivots: s.bland_pivots as u64,
            refactorizations: s.refactorizations as u64,
            degenerate_pivots: s.degenerate_pivots as u64,
            fallbacks: 0,
        }
    }
}

/// Which simplex implementation executes the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpBackend {
    /// The dual simplex for every program whose all-slack basis is dual
    /// feasible (every repair LP); otherwise the revised or dense backend,
    /// chosen from the standard form's shape and sparsity.
    #[default]
    Auto,
    /// Always use the dense flat-tableau simplex.
    DenseTableau,
    /// Always use the sparse revised simplex (falls back to the dense
    /// tableau on numerical breakdown).
    RevisedSparse,
}

/// Entering-column pricing rule for the revised simplex backend (the dense
/// tableau always full-prices its reduced-cost row; both rules fall back to
/// Bland's anti-cycling rule on degenerate stalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Resolve from the `PRDNN_LP_PRICING` environment variable (`dantzig`
    /// or `devex`, mirroring `PRDNN_THREADS`); defaults to Devex, the rule
    /// built for the wide sparse repair programs.
    #[default]
    Auto,
    /// Full pricing: most negative reduced cost, one sparse dot per
    /// nonbasic column per pivot.
    Dantzig,
    /// Devex reference weights with candidate-list partial pricing: most
    /// pivots price a few dozen columns instead of all of them, and the
    /// weights steer towards steepest-edge-like entering choices.
    Devex,
}

impl PricingRule {
    /// Resolves the policy to a concrete rule for the revised backend.
    ///
    /// Precedence mirrors the thread knob: an explicit rule wins over the
    /// `PRDNN_LP_PRICING` environment variable, which wins over the
    /// built-in default (Devex).  Unrecognised variable values fall through
    /// to the default, like an unparsable `PRDNN_THREADS` — but not
    /// silently: the first one seen prints a warning naming the variable
    /// and the value to stderr.
    fn resolve(self) -> Pricing {
        match self {
            PricingRule::Dantzig => Pricing::Dantzig,
            PricingRule::Devex => Pricing::Devex,
            PricingRule::Auto => match std::env::var("PRDNN_LP_PRICING") {
                Ok(raw) => match parse_pricing_value(&raw) {
                    Ok(pricing) => pricing,
                    Err(warning) => {
                        static WARNED: std::sync::Once = std::sync::Once::new();
                        WARNED.call_once(|| eprintln!("{warning}"));
                        Pricing::Devex
                    }
                },
                Err(_) => Pricing::Devex,
            },
        }
    }
}

/// Parses a `PRDNN_LP_PRICING` value (`dantzig` or `devex`, case
/// insensitive), or returns the warning message (naming the variable and
/// the offending value) emitted when it is unrecognised.
///
/// Split out of [`PricingRule::resolve`] so the warning path is
/// unit-testable without capturing stderr.
fn parse_pricing_value(raw: &str) -> Result<Pricing, String> {
    if raw.eq_ignore_ascii_case("dantzig") {
        Ok(Pricing::Dantzig)
    } else if raw.eq_ignore_ascii_case("devex") {
        Ok(Pricing::Devex)
    } else {
        Err(format!(
            "warning: ignoring PRDNN_LP_PRICING={raw:?}: \
             expected \"dantzig\" or \"devex\"; falling back to devex"
        ))
    }
}

/// Options accepted by [`solve_with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// Backend selection policy.
    pub backend: LpBackend,
    /// Simplex iteration budget (shared across both phases).
    pub max_iters: usize,
    /// Entering-column pricing rule for the revised backend.
    pub pricing: PricingRule,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            backend: LpBackend::Auto,
            max_iters: DEFAULT_MAX_ITERS,
            pricing: PricingRule::Auto,
        }
    }
}

/// Default simplex iteration limit used by [`solve`].
const DEFAULT_MAX_ITERS: usize = 2_000_000;

/// Solves the problem with the default iteration limit and automatic
/// backend selection.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] if no point satisfies the constraints,
/// [`LpError::Unbounded`] if the objective is unbounded below, and
/// [`LpError::IterationLimit`] if the simplex iteration budget is exhausted.
pub fn solve(problem: &LpProblem) -> Result<Solution, LpError> {
    solve_with_options(problem, &SolveOptions::default())
}

/// Solves the problem with an explicit simplex iteration limit.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_limit(problem: &LpProblem, max_iters: usize) -> Result<Solution, LpError> {
    solve_with_options(
        problem,
        &SolveOptions {
            max_iters,
            ..SolveOptions::default()
        },
    )
}

/// Solves the problem with explicit backend and iteration options.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_options(
    problem: &LpProblem,
    options: &SolveOptions,
) -> Result<Solution, LpError> {
    solve_with_stats(problem, options).map(|(solution, _)| solution)
}

/// [`solve_with_options`] plus the [`LpStats`] work counters for the solve.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_stats(
    problem: &LpProblem,
    options: &SolveOptions,
) -> Result<(Solution, LpStats), LpError> {
    // ℓ∞ objectives are lowered to a plain linear objective over an
    // augmented problem with one extra bound variable `t ≥ |x_i|`.
    if let Objective::MinimizeLinf(vars) = &problem.objective {
        let mut augmented = problem.clone();
        let t = augmented.add_var(VarKind::NonNegative);
        for v in vars {
            augmented.add_constraint(&[(*v, 1.0), (t, -1.0)], ConstraintOp::Le, 0.0);
            augmented.add_constraint(&[(*v, -1.0), (t, -1.0)], ConstraintOp::Le, 0.0);
        }
        augmented.set_objective_linear(&[(t, 1.0)]);
        let (mut solution, stats) = solve_with_stats(&augmented, options)?;
        let objective = solution.values[t.index()];
        solution.values.truncate(problem.num_vars());
        return Ok((
            Solution {
                values: solution.values,
                objective,
            },
            stats,
        ));
    }

    if options.backend == LpBackend::Auto {
        if let Some(boxes) = dual::dual_boxes(problem) {
            let (outcome, stats) = dual::solve(problem, &boxes, options.max_iters);
            match outcome {
                DualOutcome::Optimal(values) if problem.is_feasible(&values, RESIDUAL_TOL) => {
                    let objective = objective_value(problem, &values);
                    return Ok((Solution { values, objective }, stats));
                }
                DualOutcome::Infeasible => return Err(LpError::Infeasible),
                DualOutcome::IterationLimit => return Err(LpError::IterationLimit),
                // A Δ that misses its own rows or a ray that does not hold
                // up: re-solve on the primal path, counting the fallback.
                DualOutcome::Optimal(_) | DualOutcome::UnverifiedRay => {
                    let (solution, primal) =
                        solve_primal(problem, options, LpBackend::RevisedSparse)?;
                    let stats = LpStats {
                        pivots: stats.pivots + primal.pivots,
                        bland_pivots: stats.bland_pivots + primal.bland_pivots,
                        refactorizations: primal.refactorizations,
                        degenerate_pivots: stats.degenerate_pivots + primal.degenerate_pivots,
                        fallbacks: 1,
                    };
                    return Ok((solution, stats));
                }
            }
        }
    }
    solve_primal(problem, options, options.backend)
}

/// Largest row violation the dual path's `Δ` may have before the solve is
/// repeated on the primal path (the tolerance the solver tests check
/// feasibility with).
const RESIDUAL_TOL: f64 = 1e-7;

/// The objective of `problem` at `values`.
fn objective_value(problem: &LpProblem, values: &[f64]) -> f64 {
    match &problem.objective {
        Objective::Feasibility => 0.0,
        Objective::Linear(c) => c.iter().zip(values).map(|(c, x)| c * x).sum(),
        Objective::MinimizeL1(vars) => vars.iter().map(|v| values[v.index()].abs()).sum(),
        Objective::MinimizeLinf(_) => unreachable!("lowered before solving"),
    }
}

/// The primal two-phase path: the revised backend (which falls back to the
/// dense tableau on a numerical breakdown) or the dense tableau, `Auto`
/// choosing between them by estimated per-pivot work.
fn solve_primal(
    problem: &LpProblem,
    options: &SolveOptions,
    backend: LpBackend,
) -> Result<(Solution, LpStats), LpError> {
    let (sf, mapping) = to_standard_form(problem);
    let use_revised = match backend {
        LpBackend::DenseTableau => false,
        LpBackend::RevisedSparse => true,
        LpBackend::Auto => auto_prefers_revised(&sf),
    };
    let (outcome, stats) = if use_revised {
        // `None` is a numerical breakdown in the revised backend; the dense
        // tableau is the robust fallback.
        solve_standard_sparse_with_stats(&sf, options.max_iters, options.pricing.resolve())
            .map(|(outcome, stats)| (outcome, LpStats::from(stats)))
            .unwrap_or_else(|| solve_standard(&sf.to_dense(), options.max_iters))
    } else {
        solve_standard(&sf.to_dense(), options.max_iters)
    };
    match outcome {
        SimplexOutcome::Optimal { x, objective } => {
            let values = mapping.recover(problem, &x);
            Ok((Solution { values, objective }, stats))
        }
        SimplexOutcome::Infeasible => Err(LpError::Infeasible),
        SimplexOutcome::Unbounded => Err(LpError::Unbounded),
        SimplexOutcome::IterationLimit => Err(LpError::IterationLimit),
    }
}

/// `Auto` policy: estimated per-pivot work of the revised backend
/// (column pricing over the stored non-zeros plus two triangular solves)
/// against the flat tableau's full `m·n` cell update, with a bias towards
/// the tableau's smaller constant factor on little problems.
fn auto_prefers_revised(sf: &SparseStandardForm) -> bool {
    let m = sf.num_rows();
    let n = sf.num_cols();
    if m < 8 || n < 32 {
        return false;
    }
    let revised_estimate = sf.a.nnz() as f64 + 2.0 * (m * m) as f64;
    let tableau_estimate = (m * n) as f64;
    revised_estimate < 0.75 * tableau_estimate
}

/// How each problem variable maps onto standard-form columns.
struct VarMapping {
    /// `(positive_col, Option<negative_col>)` per problem variable; free
    /// variables are split `x = x⁺ − x⁻`.
    cols: Vec<(usize, Option<usize>)>,
}

impl VarMapping {
    fn recover(&self, problem: &LpProblem, x: &[f64]) -> Vec<f64> {
        (0..problem.num_vars())
            .map(|i| {
                let (p, n) = self.cols[i];
                x[p] - n.map_or(0.0, |n| x[n])
            })
            .collect()
    }
}

/// Converts a modelling-form problem into sparse standard simplex form.
fn to_standard_form(problem: &LpProblem) -> (SparseStandardForm, VarMapping) {
    // Assign columns to variables.
    let mut cols: Vec<(usize, Option<usize>)> = Vec::with_capacity(problem.num_vars());
    let mut next = 0usize;
    for kind in &problem.kinds {
        match kind {
            VarKind::NonNegative => {
                cols.push((next, None));
                next += 1;
            }
            VarKind::Free => {
                cols.push((next, Some(next + 1)));
                next += 2;
            }
        }
    }
    let num_var_cols = next;
    // One slack/surplus column per inequality constraint.
    let num_slacks = problem
        .constraints
        .iter()
        .filter(|c| c.op != ConstraintOp::Eq)
        .count();
    let num_cols = num_var_cols + num_slacks;

    let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(problem.constraints.len());
    let mut b: Vec<f64> = Vec::with_capacity(problem.constraints.len());
    let mut slack_idx = num_var_cols;
    for constraint in &problem.constraints {
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(constraint.coeffs.len() * 2 + 1);
        for (v, coeff) in &constraint.coeffs {
            let (p, n) = cols[v.0];
            row.push((p, *coeff));
            if let Some(n) = n {
                row.push((n, -*coeff));
            }
        }
        // Standard form needs `b ≥ 0`: negate the row *before* the slack is
        // assigned, flipping the operator to match, so the slack sign
        // follows directly from the (flipped) operator.  The previous code
        // wrote the slack first and then negated it together with the row —
        // same emitted matrix, but the sign was right only by cancellation;
        // the `negative_rhs_*` tests below pin the emitted form either way.
        let mut rhs = constraint.rhs;
        let mut op = constraint.op;
        if rhs < 0.0 {
            for (_, v) in row.iter_mut() {
                *v = -*v;
            }
            rhs = -rhs;
            op = match op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            };
        }
        match op {
            ConstraintOp::Le => {
                row.push((slack_idx, 1.0));
                slack_idx += 1;
            }
            ConstraintOp::Ge => {
                row.push((slack_idx, -1.0));
                slack_idx += 1;
            }
            ConstraintOp::Eq => {}
        }
        rows.push(row);
        b.push(rhs);
    }

    // Objective.
    let mut c = vec![0.0; num_cols];
    match &problem.objective {
        Objective::Feasibility => {}
        Objective::Linear(dense) => {
            for (i, coeff) in dense.iter().enumerate() {
                let (p, n) = cols[i];
                c[p] += coeff;
                if let Some(n) = n {
                    c[n] -= coeff;
                }
            }
        }
        Objective::MinimizeL1(vars) => {
            // With the split x = x⁺ − x⁻, minimising Σ (x⁺ + x⁻) equals
            // minimising Σ |x| (at an optimum at most one of the pair is
            // non-zero).
            for v in vars {
                let (p, n) = cols[v.0];
                c[p] += 1.0;
                if let Some(n) = n {
                    c[n] += 1.0;
                }
            }
        }
        Objective::MinimizeLinf(_) => unreachable!("lowered before conversion"),
    }

    let a = CsrMatrix::from_rows(num_cols, &rows);
    // Record the split pairs: column `n` is the exact negation of `p`, which
    // lets the revised backend price both with one dot product.
    let mut mirror = vec![None; num_cols];
    for &(p, n) in &cols {
        if let Some(n) = n {
            mirror[p] = Some(n);
        }
    }
    (SparseStandardForm { a, b, c, mirror }, VarMapping { cols })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, VarKind};

    /// Runs every test problem through the dense oracle, the revised
    /// backend under both pricing rules, and `Auto` (the dual simplex for
    /// the programs it takes), checking all four agree.
    fn solve_both(lp: &LpProblem) -> Result<Solution, LpError> {
        let dense = solve_with_options(
            lp,
            &SolveOptions {
                backend: LpBackend::DenseTableau,
                ..SolveOptions::default()
            },
        );
        let mut last = dense.clone();
        for (backend, pricing) in [
            (LpBackend::RevisedSparse, PricingRule::Dantzig),
            (LpBackend::RevisedSparse, PricingRule::Devex),
            (LpBackend::Auto, PricingRule::Auto),
        ] {
            let other = solve_with_options(
                lp,
                &SolveOptions {
                    backend,
                    pricing,
                    ..SolveOptions::default()
                },
            );
            match (&dense, &other) {
                (Ok(d), Ok(o)) => assert!(
                    (d.objective - o.objective).abs() < 1e-6,
                    "backends disagree ({backend:?}/{pricing:?}): dense {} vs {}",
                    d.objective,
                    o.objective
                ),
                (a, b) => assert_eq!(
                    a, b,
                    "backends disagree on classification ({backend:?}/{pricing:?})"
                ),
            }
            last = other;
        }
        last
    }

    #[test]
    fn simple_linear_objective() {
        // min x + y s.t. x + y >= 2, x - y = 0  => x = y = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0);
        lp.set_objective_linear(&[(x, 1.0), (y, 1.0)]);
        let sol = solve_both(&lp).unwrap();
        assert!((sol.values[0] - 1.0).abs() < 1e-7);
        assert!((sol.values[1] - 1.0).abs() < 1e-7);
        assert!((sol.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn l1_minimisation_prefers_sparse_solutions() {
        // Constraints: x + y >= 1. The l1-minimal solutions have |x|+|y| = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        lp.minimize_l1_of(&[x, y]);
        let sol = solve_both(&lp).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-7);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn linf_minimisation_spreads_mass() {
        // x + y >= 1 with linf objective: optimum max(|x|,|y|) = 0.5.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        lp.minimize_linf_of(&[x, y]);
        let sol = solve_both(&lp).unwrap();
        assert!((sol.objective - 0.5).abs() < 1e-7);
        assert!(lp.is_feasible(&sol.values, 1e-7));
        assert!(sol.values.iter().all(|v| v.abs() <= 0.5 + 1e-7));
    }

    #[test]
    fn negative_rhs_handled() {
        // x <= -3 with min |x| => x = -3.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -3.0);
        lp.minimize_l1_of(&[x]);
        let sol = solve_both(&lp).unwrap();
        assert!((sol.values[0] + 3.0).abs() < 1e-7);
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_ge_rows_get_usable_slack() {
        // Pins the standard-form slack invariant: a `≥` row with negative
        // RHS is flipped to a `≤` row with positive RHS and must carry a
        // clean `+1` slack — a basis the phase-1 seeding can use directly,
        // so no artificial variable (and no phase-1 pivots) are needed for
        // it.  Guards the flip-before-slack rewrite of `to_standard_form`.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::NonNegative);
        lp.add_constraint(&[(x, -1.0)], ConstraintOp::Ge, -5.0); // -x >= -5 ⟺ x <= 5
        let (sf, _) = to_standard_form(&lp);
        assert_eq!(sf.b, vec![5.0]);
        let (cols, vals) = sf.a.row(0);
        // Row stores x's coefficient +1 (negated) and the slack +1.
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[1.0, 1.0]);

        // And the flipped row solves correctly under both backends.
        lp.set_objective_linear(&[(x, -1.0)]); // max x => x = 5
        let sol = solve_both(&lp).unwrap();
        assert!((sol.values[0] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_le_rows_become_surplus_rows() {
        // The mirror case: `x ≤ -3` flips to `-x ≥ 3`, whose surplus is -1.
        // The origin violates this row, so an artificial (not the surplus)
        // must seed the basis — the artificial here is mathematically
        // required, and the conversion must *not* pretend the surplus
        // column is usable.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -3.0);
        let (sf, _) = to_standard_form(&lp);
        assert_eq!(sf.b, vec![3.0]);
        let (cols, vals) = sf.a.row(0);
        // x = p - n: flipped row is -p + n - s = 3 with surplus s.
        assert_eq!(cols, &[0, 1, 2]);
        assert_eq!(vals, &[-1.0, 1.0, -1.0]);
    }

    #[test]
    fn infeasible_problem_reports_error() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 0.0);
        lp.minimize_l1_of(&[x]);
        assert_eq!(solve_both(&lp), Err(LpError::Infeasible));
    }

    #[test]
    fn unbounded_problem_reports_error() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 0.0);
        lp.set_objective_linear(&[(x, -1.0)]);
        assert_eq!(solve_both(&lp), Err(LpError::Unbounded));
    }

    #[test]
    fn feasibility_only_problem() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::NonNegative);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let sol = solve_both(&lp).unwrap();
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn equality_constraints_with_free_vars() {
        // x + 2y = 4, x - y = 1 => x = 2, y = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        lp.minimize_l1_of(&[x, y]);
        let sol = solve_both(&lp).unwrap();
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new();
        let xs = lp.add_vars(8, VarKind::Free);
        for (i, x) in xs.iter().enumerate() {
            lp.add_constraint(&[(*x, 1.0)], ConstraintOp::Ge, i as f64);
        }
        lp.minimize_l1_of(&xs);
        assert_eq!(solve_with_limit(&lp, 1), Err(LpError::IterationLimit));
    }

    #[test]
    fn unrecognised_pricing_values_warn_and_fall_back() {
        assert_eq!(parse_pricing_value("dantzig"), Ok(Pricing::Dantzig));
        assert_eq!(parse_pricing_value("DEVEX"), Ok(Pricing::Devex));
        for bad in ["", "steepest", "devex ", "bland"] {
            let warning = parse_pricing_value(bad).expect_err(bad);
            assert!(warning.contains("PRDNN_LP_PRICING"), "{warning}");
            assert!(warning.contains(bad), "{warning}");
            assert!(warning.contains("devex"), "{warning}");
        }
    }

    #[test]
    fn auto_policy_picks_dense_for_small_and_revised_for_wide_sparse() {
        // Small problem: dense.
        let mut small = LpProblem::new();
        let x = small.add_var(VarKind::Free);
        small.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        let (sf_small, _) = to_standard_form(&small);
        assert!(!auto_prefers_revised(&sf_small));

        // Wide block-sparse problem (one block per "key point"): revised.
        let mut wide = LpProblem::new();
        let vars = wide.add_vars(128, VarKind::Free);
        for block in 0..16 {
            let terms: Vec<_> = (0..8).map(|k| (vars[block * 8 + k], 1.0)).collect();
            wide.add_constraint(&terms, ConstraintOp::Le, 1.0);
            wide.add_constraint(&terms, ConstraintOp::Ge, -1.0);
        }
        wide.minimize_l1_of(&vars);
        let (sf_wide, _) = to_standard_form(&wide);
        assert!(auto_prefers_revised(&sf_wide));
    }

    #[test]
    fn solve_with_stats_counts_revised_and_dense_pivots() {
        // A wide block-sparse program the revised backend must pivot on.
        let mut wide = LpProblem::new();
        let vars = wide.add_vars(128, VarKind::Free);
        for block in 0..16 {
            let terms: Vec<_> = (0..8).map(|k| (vars[block * 8 + k], 1.0)).collect();
            wide.add_constraint(&terms, ConstraintOp::Ge, 1.0);
        }
        wide.minimize_l1_of(&vars);
        let revised = SolveOptions {
            backend: LpBackend::RevisedSparse,
            ..SolveOptions::default()
        };
        let (solution, stats) = solve_with_stats(&wide, &revised).unwrap();
        assert!((solution.objective - 16.0).abs() < 1e-6);
        assert!(stats.pivots > 0, "revised solve must report pivot work");

        // The dense tableau counts its pivots too (it never refactorises),
        // and reaches the same optimum.
        let dense = SolveOptions {
            backend: LpBackend::DenseTableau,
            ..SolveOptions::default()
        };
        let (dense_solution, dense_stats) = solve_with_stats(&wide, &dense).unwrap();
        assert!((dense_solution.objective - solution.objective).abs() < 1e-6);
        assert!(dense_stats.pivots > 0, "dense solve must report pivot work");
        assert_eq!(dense_stats.refactorizations, 0);

        // ℓ∞ lowering carries the augmented solve's counters through.
        let mut linf = LpProblem::new();
        let x = linf.add_var(VarKind::Free);
        let y = linf.add_var(VarKind::Free);
        linf.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        linf.minimize_linf_of(&[x, y]);
        let (linf_solution, linf_stats) = solve_with_stats(
            &linf,
            &SolveOptions {
                backend: LpBackend::RevisedSparse,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!((linf_solution.objective - 0.5).abs() < 1e-7);
        assert!(linf_stats.pivots > 0);
    }

    #[test]
    fn auto_solves_repair_lps_on_the_dual_path_and_counts_its_pivots() {
        let mut wide = LpProblem::new();
        let vars = wide.add_vars(128, VarKind::Free);
        for block in 0..16 {
            let terms: Vec<_> = (0..8).map(|k| (vars[block * 8 + k], 1.0)).collect();
            wide.add_constraint(&terms, ConstraintOp::Ge, 1.0);
        }
        for (linf, expected) in [(false, 16.0), (true, 0.125)] {
            let mut lp = wide.clone();
            if linf {
                lp.minimize_linf_of(&vars);
            } else {
                lp.minimize_l1_of(&vars);
            }
            let (solution, stats) = solve_with_stats(&lp, &SolveOptions::default()).unwrap();
            assert!((solution.objective - expected).abs() < 1e-9);
            assert!(lp.is_feasible(&solution.values, RESIDUAL_TOL));
            assert!(stats.pivots >= 16, "one pivot per violated block at least");
            assert_eq!((stats.refactorizations, stats.fallbacks), (0, 0));
        }
    }

    #[test]
    fn badly_scaled_rows_fall_back_to_the_primal_path() {
        // Rows scaled from 1e-7 to 1e8: the dual path's Δ (read off reduced
        // costs) misses a row by more than `RESIDUAL_TOL`, so the solve is
        // repeated on the primal path, which recovers Δ from the basis.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        let rows = [
            (1.0087778668132596, -3.939327658450442, -94.09874438835499),
            (-87335895.4754199, 40045852.373448044, 82780886.69609307),
            (-7901.509782340281, 854.6021084158806, 8281.117202321671),
            (
                -0.06014302279639266,
                0.02161016529325506,
                0.09690553996937895,
            ),
            (
                -0.0275873105111369,
                -0.06464501354151848,
                -0.07077570311424113,
            ),
            (239.7949093726992, -704.6156787868013, -41.58591561514169),
            (
                -2.215218385578188e-7,
                -2.741130192179044e-7,
                -7.465996633571059e-11,
            ),
        ];
        for (a, b, r) in rows {
            lp.add_constraint(&[(x, a), (y, b)], ConstraintOp::Le, r);
        }
        lp.minimize_l1_of(&[x, y]);
        let (solution, stats) = solve_with_stats(&lp, &SolveOptions::default()).unwrap();
        assert_eq!(stats.fallbacks, 1);
        assert!(stats.pivots > 0);
        assert!(lp.is_feasible(&solution.values, RESIDUAL_TOL));
        let dense = solve_both(&lp).unwrap();
        assert!((solution.objective - dense.objective).abs() < 1e-9 * dense.objective);
    }
}
