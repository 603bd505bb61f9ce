//! Differential property tests: the dual simplex that `LpBackend::Auto`
//! routes repair-shaped programs to, against the dense flat-tableau oracle.
//!
//! The programs have the repair LP's shape: free variables `Δ`, `≤` rows
//! `M Δ ≤ r` whose right-hand sides are violated at `Δ = 0` for some rows,
//! an ℓ1 or ℓ∞ objective, and optionally the `param_bound` box rows
//! `−b ≤ Δ_i ≤ b`.  Both solvers must classify every program identically
//! and agree on the optimal objective within `1e-6`; the dual's Δ must
//! satisfy its rows within `1e-7`, and it must have got there itself,
//! without falling back to the primal path.

use prdnn_lp::{
    solve_with_options, solve_with_stats, ConstraintOp, LpBackend, LpError, LpProblem,
    SolveOptions, VarKind,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RepairDraw {
    /// A point every row admits (for the feasible family).
    witness: Vec<f64>,
    /// Row coefficients (zeroed where the mask entry is below 0.4, so rows
    /// are block-sparse like key-point rows) and the row's slack.
    rows: Vec<(Vec<f64>, Vec<f64>, f64)>,
    linf: bool,
    param_bound: Option<f64>,
    /// 0 = feasible by construction, 1 = contradictory rows, 2 = raw rows
    /// (either class).
    family: u8,
}

fn repair_program(num_vars: usize, num_rows: usize) -> impl Strategy<Value = RepairDraw> {
    let row = (
        prop::collection::vec(-2.0..2.0f64, num_vars),
        prop::collection::vec(0.0..1.0f64, num_vars),
        0.0..1.0f64,
    );
    (
        prop::collection::vec(-1.5..1.5f64, num_vars),
        prop::collection::vec(row, 1..num_rows),
        0u8..2,
        0u8..2,
        0.2..3.0f64,
        0u8..3,
    )
        .prop_map(|(witness, rows, linf, bounded, bound, family)| RepairDraw {
            witness,
            rows,
            linf: linf == 1,
            param_bound: (bounded == 1).then_some(bound),
            family,
        })
}

fn build(draw: &RepairDraw) -> LpProblem {
    let mut lp = LpProblem::new();
    let vars = lp.add_vars(draw.witness.len(), VarKind::Free);
    for (coeffs, mask, slack) in &draw.rows {
        let terms: Vec<_> = vars
            .iter()
            .zip(coeffs.iter().zip(mask))
            .filter(|(_, (_, &keep))| keep >= 0.4)
            .map(|(v, (&a, _))| (*v, a))
            .collect();
        let witness_lhs: f64 = terms.iter().map(|(v, a)| a * draw.witness[v.index()]).sum();
        match draw.family {
            0 => lp.add_constraint(&terms, ConstraintOp::Le, witness_lhs + slack),
            1 => {
                lp.add_constraint(&terms, ConstraintOp::Le, witness_lhs - slack - 0.1);
                lp.add_constraint(&terms, ConstraintOp::Ge, witness_lhs);
            }
            _ => lp.add_constraint(&terms, ConstraintOp::Le, slack - 0.5),
        }
    }
    if let Some(bound) = draw.param_bound {
        for v in &vars {
            lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Le, bound);
            lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Ge, -bound);
        }
    }
    if draw.linf {
        lp.minimize_linf_of(&vars);
    } else {
        lp.minimize_l1_of(&vars);
    }
    lp
}

/// Checks the dual (`Auto`) against the dense oracle; returns the shared
/// classification.
fn assert_dual_matches_oracle(lp: &LpProblem) -> Result<f64, LpError> {
    let oracle = solve_with_options(
        lp,
        &SolveOptions {
            backend: LpBackend::DenseTableau,
            ..SolveOptions::default()
        },
    );
    let dual = solve_with_stats(lp, &SolveOptions::default());
    if let Ok((_, stats)) = &dual {
        assert_eq!(stats.fallbacks, 0, "the dual path fell back");
    }
    match (oracle, dual) {
        (Ok(o), Ok((d, _))) => {
            assert!(
                (o.objective - d.objective).abs() <= 1e-6,
                "objectives disagree: dense {} vs dual {}",
                o.objective,
                d.objective
            );
            assert!(lp.is_feasible(&d.values, 1e-7), "dual Δ misses its rows");
            Ok(d.objective)
        }
        (Err(eo), Err(ed)) => {
            assert_eq!(eo, ed, "solvers classify the program differently");
            Err(ed)
        }
        (o, d) => panic!("solvers disagree: dense {o:?} vs dual {d:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn dual_agrees_with_dense_oracle(draw in repair_program(6, 14)) {
        let lp = build(&draw);
        let result = assert_dual_matches_oracle(&lp);
        match draw.family {
            0 if draw.param_bound.is_none_or(|b| {
                draw.witness.iter().all(|w| w.abs() <= b)
            }) => {
                let objective = result.expect("the witness is feasible");
                let norm = if draw.linf {
                    draw.witness.iter().fold(0.0f64, |m, w| m.max(w.abs()))
                } else {
                    draw.witness.iter().map(|w| w.abs()).sum()
                };
                prop_assert!(objective <= norm + 1e-6);
            }
            1 => prop_assert_eq!(result, Err(LpError::Infeasible)),
            _ => {}
        }
    }

    #[test]
    fn wide_programs_agree_with_dense_oracle(draw in repair_program(12, 8)) {
        let _ = assert_dual_matches_oracle(&build(&draw));
    }
}
