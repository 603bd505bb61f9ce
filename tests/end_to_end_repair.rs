//! Cross-crate integration tests: the full repair pipeline over the facade
//! crate, from dataset generation through training, linear regions, and the
//! LP, to a verified repaired network.

use prdnn::core::{
    repair_points, repair_polytopes, DecoupledNetwork, InputPolytope, LpBackend, OutputPolytope,
    PointSpec, PolytopeSpec, PricingRule, RepairConfig, RepairError, RepairNorm,
};
use prdnn::datasets::{acas, corruptions, digits, imagenet_like, natural_adversarial};
use prdnn::nn::{Activation, Network};
use prdnn::syrenn;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Golden end-to-end repair fixture: the paper's running example (repair
/// `N1`'s layer 0 against Equation 2) must produce *identical* results —
/// success, norm of the parameter delta, and drawdown away from the repair
/// points — under every backend × pricing × thread-count combination, so a
/// pricing or factorisation change can never silently alter a repair.
///
/// Golden values measured from the dense oracle: the ℓ1-minimal *objective*
/// `‖Δ‖₁ = 31/30` is unique, so it is pinned exactly; the optimal *vertex*
/// is not necessarily unique, so `‖Δ‖∞` and the drawdown are pinned as
/// upper bounds (`11/15` and `7/6`, the values every current configuration
/// attains).
#[test]
fn golden_paper_example_repair_is_invariant_across_configurations() {
    const GOLDEN_DELTA_L1: f64 = 31.0 / 30.0;
    const GOLDEN_DELTA_LINF: f64 = 11.0 / 15.0;
    const GOLDEN_DRAWDOWN: f64 = 7.0 / 6.0;
    let n1 = prdnn::core::paper_example::n1();
    let spec = prdnn::core::paper_example::equation_2_spec();
    for backend in [
        LpBackend::Auto,
        LpBackend::DenseTableau,
        LpBackend::RevisedSparse,
    ] {
        for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
            for threads in [1usize, 4] {
                let label = format!("{backend:?}/{pricing:?}/threads={threads}");
                let config = RepairConfig {
                    lp_backend: backend,
                    lp_pricing: pricing,
                    threads: Some(threads),
                    ..RepairConfig::default()
                };
                let outcome = repair_points(&n1, 0, &spec, &config)
                    .unwrap_or_else(|e| panic!("{label}: repair failed: {e}"));
                // Success: the specification holds on the repaired network.
                assert!(
                    spec.is_satisfied_by(|x| outcome.repaired.forward(x), 1e-7),
                    "{label}: repaired network violates Equation 2"
                );
                // Parameter-delta norms are pinned to the golden optimum.
                assert!(
                    (outcome.stats.delta_l1 - GOLDEN_DELTA_L1).abs() < 1e-6,
                    "{label}: delta l1 {} != golden {GOLDEN_DELTA_L1}",
                    outcome.stats.delta_l1
                );
                assert!(
                    outcome.stats.delta_linf <= GOLDEN_DELTA_LINF + 1e-6,
                    "{label}: delta linf {} exceeds golden bound {GOLDEN_DELTA_LINF}",
                    outcome.stats.delta_linf
                );
                // Drawdown: the repair moves no point of the domain by more
                // than the golden bound.
                let mut drawdown = 0.0f64;
                for i in 0..=300 {
                    let x = -1.0 + 3.0 * i as f64 / 300.0;
                    let moved = (outcome.repaired.forward(&[x])[0] - n1.forward(&[x])[0]).abs();
                    drawdown = drawdown.max(moved);
                }
                assert!(
                    drawdown <= GOLDEN_DRAWDOWN + 1e-6,
                    "{label}: drawdown {drawdown} exceeds golden {GOLDEN_DRAWDOWN}"
                );
            }
        }
    }
}

#[test]
fn pointwise_repair_of_a_trained_digit_classifier() {
    // Train, find misclassified test digits, repair the last layer.
    let task = digits::digit_task(3, 250, 120);
    let misclassified = task.test.misclassified(&task.network).take(6);
    assert!(
        !misclassified.is_empty(),
        "the small classifier should make some mistakes"
    );
    let spec = PointSpec::from_classification(
        &misclassified.inputs,
        &misclassified.labels,
        digits::NUM_CLASSES,
        1e-4,
    );
    let outcome = repair_points(&task.network, 2, &spec, &RepairConfig::default())
        .expect("last-layer repair must be feasible");
    // Efficacy is 100% (the paper's guarantee).
    for (x, &y) in misclassified.inputs.iter().zip(&misclassified.labels) {
        assert_eq!(outcome.repaired.classify(x), y);
    }
    // Drawdown stays bounded: the repaired network keeps most of its clean
    // accuracy.
    let before = task.test.accuracy(&task.network);
    let after = task
        .test
        .inputs
        .iter()
        .zip(&task.test.labels)
        .filter(|(x, &y)| outcome.repaired.classify(x) == y)
        .count() as f64
        / task.test.len() as f64;
    assert!(
        before - after < 0.3,
        "drawdown too large: {before} -> {after}"
    );
}

#[test]
fn polytope_repair_guarantees_every_point_of_a_fog_line() {
    let task = digits::digit_task(5, 200, 80);
    // Find a clean/foggy pair where the foggy endpoint is misclassified.
    let mut line = None;
    for (x, &y) in task.train.inputs.iter().zip(&task.train.labels) {
        let foggy = corruptions::fog(x, digits::SIDE, digits::SIDE, 0.6);
        if task.network.classify(x) == y && task.network.classify(&foggy) != y {
            line = Some((x.clone(), foggy, y));
            break;
        }
    }
    let (clean, foggy, label) = line.expect("fog must break at least one training image");
    let mut spec = PolytopeSpec::new();
    spec.push(
        InputPolytope::segment(clean.clone(), foggy.clone()),
        OutputPolytope::classification(label, digits::NUM_CLASSES, 1e-4),
    );
    let result = repair_polytopes(&task.network, 2, &spec, &RepairConfig::default())
        .expect("repair must be feasible");
    // The number of key points equals twice the number of linear regions for
    // a 1-D line (each region contributes its two endpoints).
    assert_eq!(result.num_key_points, 2 * result.num_regions);
    // Provable guarantee: *every* interpolation point is classified correctly.
    for i in 0..=300 {
        let t = i as f64 / 300.0;
        let p: Vec<f64> = clean
            .iter()
            .zip(&foggy)
            .map(|(c, f)| c + t * (f - c))
            .collect();
        assert_eq!(
            result.outcome.repaired.classify(&p),
            label,
            "violated at t = {t}"
        );
    }
}

#[test]
fn repair_is_minimal_with_respect_to_the_chosen_norm() {
    // A repair with a loose specification should be no larger than the same
    // repair with a tighter one, and the l1-minimal delta is never smaller
    // than the linf-minimal delta measured in linf.
    let n1 = prdnn::core::paper_example::n1();
    let loose = {
        let mut s = PointSpec::new();
        s.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.6));
        s
    };
    let tight = {
        let mut s = PointSpec::new();
        s.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.9));
        s
    };
    let config = RepairConfig::default();
    let loose_outcome = repair_points(&n1, 0, &loose, &config).unwrap();
    let tight_outcome = repair_points(&n1, 0, &tight, &config).unwrap();
    assert!(loose_outcome.stats.delta_l1 <= tight_outcome.stats.delta_l1 + 1e-9);
    // N1(0.5) = -0.5 and the output decreases by exactly (0.5·Δw2 + Δb2) at
    // x = 0.5, so pushing it to -0.6 needs an l1-minimal change of 0.1
    // (all on the h2 bias) and pushing it to -0.9 needs 0.4.
    assert!((loose_outcome.stats.delta_l1 - 0.1).abs() < 1e-6);
    assert!((tight_outcome.stats.delta_l1 - 0.4).abs() < 1e-6);

    let linf_outcome = repair_points(
        &n1,
        0,
        &tight,
        &RepairConfig {
            norm: RepairNorm::LInf,
            ..RepairConfig::default()
        },
    )
    .unwrap();
    assert!(linf_outcome.stats.delta_linf <= tight_outcome.stats.delta_linf + 1e-9);
}

#[test]
fn cnn_layers_can_be_repaired_including_convolutions() {
    let task = imagenet_like::object_task(17, 180, 90);
    let mut rng = StdRng::seed_from_u64(2);
    let pool = natural_adversarial::misclassified_pool(&task.network, 3, 3000, &mut rng);
    assert!(!pool.is_empty());
    let spec = PointSpec::from_classification(
        &pool.inputs,
        &pool.labels,
        imagenet_like::NUM_CLASSES,
        1e-4,
    );
    // Repair the *first convolutional layer* — exercising the conv parameter
    // Jacobian path — and the last dense layer.
    for layer in [0usize, 5usize] {
        match repair_points(&task.network, layer, &spec, &RepairConfig::default()) {
            Ok(outcome) => {
                for (x, &y) in pool.inputs.iter().zip(&pool.labels) {
                    assert_eq!(
                        outcome.repaired.classify(x),
                        y,
                        "layer {layer} repair not exact"
                    );
                }
            }
            Err(RepairError::Infeasible) => {
                // Permitted by the algorithm (the paper also reports some
                // layers as unrepairable), but the last layer should succeed.
                assert_ne!(layer, 5, "last-layer repair should be feasible");
            }
            Err(e) => panic!("unexpected repair error: {e}"),
        }
    }
}

#[test]
fn acas_style_plane_repair_respects_linear_regions() {
    let task = acas::acas_task(41, 900);
    let mut rng = StdRng::seed_from_u64(4);
    let slices = acas::random_phi8_slices(10, &mut rng);
    let slice = &slices[0];
    // LinRegions of the slice: every region is affine, and its vertices lie
    // inside (or on the boundary of) the slice rectangle.
    let regions = syrenn::plane_regions(&task.network, &slice.corners()).unwrap();
    assert!(!regions.is_empty());
    let (lo, hi) = acas::phi8_region();
    for region in &regions {
        for v in &region.vertices {
            for d in 0..acas::STATE_DIM {
                assert!(v[d] >= lo[d] - 1e-6 && v[d] <= hi[d] + 1e-6);
            }
        }
    }
    // Repairing the last layer's value channel never changes those regions
    // (Theorem 4.6): activation patterns at region interiors are preserved.
    let mut spec = PolytopeSpec::new();
    spec.push(
        InputPolytope::polygon(slice.corners()),
        OutputPolytope::classification(acas::Advisory::ClearOfConflict as usize, 5, 1e-4),
    );
    let last = task.network.num_layers() - 1;
    if let Ok(result) = repair_polytopes(&task.network, last, &spec, &RepairConfig::default()) {
        for region in &regions {
            assert_eq!(
                result
                    .outcome
                    .repaired
                    .activation_network()
                    .activation_pattern(&region.interior),
                task.network.activation_pattern(&region.interior)
            );
        }
    }
}

#[test]
fn chained_repairs_compose_on_a_ddnn() {
    // Repair one specification, then repair the result against another; both
    // must hold at the end (the second repair re-encodes from the current
    // DDNN, so earlier guarantees are preserved only if re-asserted — check
    // the documented behaviour).
    let mut rng = StdRng::seed_from_u64(12);
    let net = Network::mlp(&[3, 12, 8, 3], Activation::Relu, &mut rng);
    let ddnn = DecoupledNetwork::from_network(&net);
    let spec1 = PointSpec::from_classification(&[vec![0.2, -0.4, 0.6]], &[1], 3, 1e-4);
    let first = prdnn::core::repair_points_ddnn(&ddnn, 2, &spec1, &RepairConfig::default())
        .expect("first repair");
    // Second repair asserts both the old and a new point so both hold.
    let mut spec2 = PointSpec::from_classification(&[vec![0.2, -0.4, 0.6]], &[1], 3, 1e-4);
    spec2.push(
        vec![-0.5, 0.3, 0.1],
        OutputPolytope::classification(2, 3, 1e-4),
    );
    let second =
        prdnn::core::repair_points_ddnn(&first.repaired, 2, &spec2, &RepairConfig::default())
            .expect("second repair");
    assert_eq!(second.repaired.classify(&[0.2, -0.4, 0.6]), 1);
    assert_eq!(second.repaired.classify(&[-0.5, 0.3, 0.1]), 2);
}
