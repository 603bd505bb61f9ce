//! The two Task 2 repairs (small scale) the primal simplex backends got
//! wrong: the 6-line repair of layer index 2 (the dense tableau and revised
//! Devex misreported its bounded LP as `Unbounded`) and the 3-line repair of
//! layer index 1 (the dense tableau returned a Δ that violates its own
//! rows).  Both must now solve under the default configuration, satisfy the
//! spec at every key point, and reach the known optimum.

use prdnn_bench::scale::{Scale, Task2Params};
use prdnn_bench::task2;
use prdnn_core::{
    repair_polytopes, DecoupledNetwork, LpBackend, PolytopeSpec, PricingRule, RepairConfig,
};
use prdnn_nn::Network;

/// Worst violation `max(A·y − b)` of the repaired network over every key
/// point of the spec: each vertex of each linear region of the original
/// network, evaluated with the activation pattern of its region.
fn key_point_residual(net: &Network, repaired: &DecoupledNetwork, spec: &PolytopeSpec) -> f64 {
    let polytopes: Vec<&[Vec<f64>]> = spec
        .polytopes
        .iter()
        .map(|p| p.vertices.as_slice())
        .collect();
    let regions = prdnn_syrenn::lin_regions_batch(net, &polytopes).unwrap();
    let mut worst = f64::NEG_INFINITY;
    for (constraint, regions) in spec.constraints.iter().zip(regions) {
        for region in regions {
            for vertex in &region.vertices {
                let y = repaired.forward_decoupled(&region.interior, vertex);
                let ay = constraint.a.matvec(&y);
                for (lhs, rhs) in ay.iter().zip(&constraint.b) {
                    worst = worst.max(lhs - rhs);
                }
            }
        }
    }
    worst
}

/// The ℓ1 norm of the repair of `layer` for the first `lines` lines under
/// `config`, after checking the repaired network against the spec.
fn repair_norm(
    setup: &task2::Task2Setup,
    lines: usize,
    layer: usize,
    config: &RepairConfig,
) -> (f64, f64) {
    let spec = task2::line_spec(setup, lines);
    let outcome = repair_polytopes(&setup.network, layer, &spec, config)
        .unwrap_or_else(|e| panic!("lines={lines} layer={layer}: {e}"))
        .outcome;
    let residual = key_point_residual(&setup.network, &outcome.repaired, &spec);
    (outcome.stats.delta_l1, residual)
}

#[test]
fn known_task2_lp_failures_solve_on_the_default_path() {
    let setup = task2::setup(&Task2Params::for_scale(Scale::Small));
    let default = RepairConfig::default();

    let (six_lines, residual) = repair_norm(&setup, 6, 2, &default);
    assert!(
        residual <= 1e-6,
        "lines=6 layer=2 violates the spec by {residual}"
    );
    let revised_dantzig = RepairConfig {
        lp_backend: LpBackend::RevisedSparse,
        lp_pricing: PricingRule::Dantzig,
        ..RepairConfig::default()
    };
    let (oracle, _) = repair_norm(&setup, 6, 2, &revised_dantzig);
    assert!(
        (six_lines - oracle).abs() <= 1e-6,
        "lines=6 layer=2: default {six_lines} vs revised Dantzig {oracle}"
    );

    let (three_lines, residual) = repair_norm(&setup, 3, 1, &default);
    assert!(
        residual <= 1e-6,
        "lines=3 layer=1 violates the spec by {residual}"
    );
    // The dense tableau's Δ is infeasible, so its objective only bounds
    // the true optimum from above.
    let dense = RepairConfig {
        lp_backend: LpBackend::DenseTableau,
        ..RepairConfig::default()
    };
    let (dense_norm, _) = repair_norm(&setup, 3, 1, &dense);
    assert!(
        three_lines <= dense_norm + 1e-6,
        "lines=3 layer=1: default {three_lines} exceeds the dense tableau's {dense_norm}"
    );
}
