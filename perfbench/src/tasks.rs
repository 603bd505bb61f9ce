//! The paper's repair tasks as workloads: `task2_lines` (Table 2, polytope
//! repair) and `task1_points` (Table 1, point repair).
//!
//! The task instances are the library's own Task 1/Task 2 setups at
//! `PRDNN_SCALE=small` with their fixed training seeds, so the LPs — and
//! the known 6-line layer-2 failure of Task 2 — are the same in every run.
//! The attempts run in the table's order.  The workload seed draws what the
//! benchmark itself chooses: how the held-out inputs are batched for eval
//! and the points sampled inside each input polytope for the output check.

use crate::report::{Report, SpanLog};
use crate::rng::SplitMix;
use crate::stats::{self, Attempt};
use prdnn_bench::scale::{Scale, Task1Params, Task2Params};
use prdnn_core::{
    repair_points, repair_polytopes, DecoupledNetwork, OutputPolytope, PointSpec, PolytopeSpec,
    RepairConfig, RepairError, RepairOutcome, RepairTiming,
};
use prdnn_lp::{ConstraintOp, LpError, LpProblem, LpStats, SolveOptions, VarId, VarKind};
use prdnn_nn::Network;
use prdnn_par::ThreadPool;
use serde::json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Charge for a failed attempt in `repair_s`, in seconds: longer than the
/// whole successful part of either task's sequence, so any fix that makes
/// a failing attempt succeed inside it reads as a speed-up.
pub const TIMEOUT_CHARGE_S: f64 = 10.0;

/// Largest constraint violation `max(A·N′(x) − b)` a repair may leave at a
/// key point or a sampled point (the tolerance of the library's tests).
pub const RESIDUAL_TOL: f64 = 1e-6;

/// Inputs per eval batch (the batch size of `servebench`'s eval
/// requests, which `serve_mixed` sends too).
pub const EVAL_BATCH: usize = 4;

/// Points sampled inside each input polytope for the output check.
const SAMPLES_PER_POLYTOPE: usize = 16;

/// What one attempt asks for.
enum Spec {
    Points(PointSpec),
    Lines(PolytopeSpec),
}

impl Spec {
    fn constraints(&self) -> &[OutputPolytope] {
        match self {
            Spec::Points(s) => &s.constraints,
            Spec::Lines(s) => &s.constraints,
        }
    }
}

/// One repair in the fixed sequence.
struct AttemptDef {
    label: String,
    layer: usize,
    spec: Spec,
}

/// A task instance: the buggy network, the attempt sequence, and the held-out
/// inputs the repaired networks are evaluated on.
pub struct Task {
    network: Network,
    attempts: Vec<AttemptDef>,
    eval_inputs: Vec<Vec<f64>>,
    eval_labels: Vec<usize>,
}

/// Builds the Task 2 instance: the digit MLP and the first {2, 3, 4, 6} fog
/// lines × layers {1, 2}.
pub fn task2_lines() -> Task {
    let setup = prdnn_bench::task2::setup(&Task2Params::for_scale(Scale::Small));
    let mut attempts = Vec::new();
    for lines in [2usize, 3, 4, 6] {
        for layer in [1usize, 2] {
            attempts.push(AttemptDef {
                label: format!("lines={lines} layer={layer}"),
                layer,
                spec: Spec::Lines(prdnn_bench::task2::line_spec(&setup, lines)),
            });
        }
    }
    Task {
        network: setup.network,
        attempts,
        eval_inputs: setup.drawdown_set.inputs,
        eval_labels: setup.drawdown_set.labels,
    }
}

/// Builds the Task 1 instance: the CNN and the first {15, 30, 60} repair-pool
/// points × every repairable layer.
pub fn task1_points() -> Task {
    let setup = prdnn_bench::task1::setup(&Task1Params::for_scale(Scale::Small));
    let mut attempts = Vec::new();
    for points in [15usize, 30, 60] {
        let set = setup.repair_pool.take(points);
        let spec = PointSpec::from_classification(
            &set.inputs,
            &set.labels,
            prdnn_datasets::imagenet_like::NUM_CLASSES,
            1e-4,
        );
        for layer in setup.network.repairable_layers() {
            attempts.push(AttemptDef {
                label: format!("points={points} layer={layer}"),
                layer,
                spec: Spec::Points(spec.clone()),
            });
        }
    }
    Task {
        network: setup.network,
        attempts,
        eval_inputs: setup.drawdown_set.inputs,
        eval_labels: setup.drawdown_set.labels,
    }
}

/// A key point of the reduction: the activation-channel input, the
/// value-channel input, and the index of its output constraint.
struct KeyPoint {
    act: Vec<f64>,
    val: Vec<f64>,
    constraint: usize,
}

/// The key points of an attempt and the number of linear regions behind
/// them, computed with the public LinRegions call for line specs.
fn key_points(net: &Network, spec: &Spec, pool: &ThreadPool) -> (Vec<KeyPoint>, usize) {
    match spec {
        Spec::Points(s) => (
            s.points
                .iter()
                .enumerate()
                .map(|(i, p)| KeyPoint {
                    act: p.clone(),
                    val: p.clone(),
                    constraint: i,
                })
                .collect(),
            0,
        ),
        Spec::Lines(s) => {
            let polytopes: Vec<&[Vec<f64>]> =
                s.polytopes.iter().map(|p| p.vertices.as_slice()).collect();
            let all = prdnn_syrenn::lin_regions_batch_in(pool, net, &polytopes)
                .expect("Task 2 lines are non-degenerate segments of a ReLU network");
            let mut kps = Vec::new();
            let mut regions = 0;
            for (i, rs) in all.into_iter().enumerate() {
                regions += rs.len();
                for r in rs {
                    for v in r.vertices {
                        kps.push(KeyPoint {
                            act: r.interior.clone(),
                            val: v,
                            constraint: i,
                        });
                    }
                }
            }
            (kps, regions)
        }
    }
}

/// Worst violation `max(A·y − b)` over the outputs `ys` of points whose
/// constraints are `which`.
fn worst_residual(ys: &[Vec<f64>], which: &[usize], constraints: &[OutputPolytope]) -> f64 {
    ys.iter()
        .zip(which)
        .flat_map(|(y, &c)| {
            let p = &constraints[c];
            let ay = p.a.matvec(y);
            ay.into_iter()
                .zip(&p.b)
                .map(|(lhs, rhs)| lhs - rhs)
                .collect::<Vec<_>>()
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The residual of a repaired network at every key point, evaluated with the
/// activation pattern of the key point's region.
fn key_point_residual(repaired: &DecoupledNetwork, kps: &[KeyPoint], spec: &Spec) -> f64 {
    let pairs: Vec<(&[f64], &[f64])> = kps
        .iter()
        .map(|k| (k.act.as_slice(), k.val.as_slice()))
        .collect();
    let ys = repaired.forward_decoupled_batch(&pairs);
    let which: Vec<usize> = kps.iter().map(|k| k.constraint).collect();
    worst_residual(&ys, &which, spec.constraints())
}

/// The residual at points sampled uniformly inside each input polytope
/// (segments here), evaluated with the ordinary forward pass.
fn sampled_residual(repaired: &DecoupledNetwork, spec: &Spec, rng: &mut SplitMix) -> f64 {
    let Spec::Lines(s) = spec else {
        return f64::NEG_INFINITY;
    };
    let mut points = Vec::new();
    let mut which = Vec::new();
    for (i, p) in s.polytopes.iter().enumerate() {
        let (a, b) = (&p.vertices[0], &p.vertices[1]);
        for _ in 0..SAMPLES_PER_POLYTOPE {
            let t = rng.unit();
            points.push(
                a.iter()
                    .zip(b)
                    .map(|(x, y)| x + t * (y - x))
                    .collect::<Vec<f64>>(),
            );
            which.push(i);
        }
    }
    let pairs: Vec<(&[f64], &[f64])> = points
        .iter()
        .map(|p| (p.as_slice(), p.as_slice()))
        .collect();
    let ys = repaired.forward_decoupled_batch(&pairs);
    worst_residual(&ys, &which, spec.constraints())
}

/// Runs the library's repair for one attempt.
fn library_repair(
    net: &Network,
    attempt: &AttemptDef,
    config: &RepairConfig,
) -> Result<(RepairOutcome, usize), RepairError> {
    match &attempt.spec {
        Spec::Points(s) => repair_points(net, attempt.layer, s, config).map(|o| (o, 0)),
        Spec::Lines(s) => {
            repair_polytopes(net, attempt.layer, s, config).map(|o| (o.outcome, o.num_regions))
        }
    }
}

fn error_name(e: &RepairError) -> String {
    format!("{e:?}")
}

/// Evaluates a repaired network on the held-out inputs, taken in `order`
/// in batches, and returns the accuracy.  A first sweep warms the caches the
/// repair's LP evicted; each batch of the second sweep is timed.
fn eval_batches(
    task: &Task,
    repaired: &DecoupledNetwork,
    order: &[usize],
    eval_ms: &mut Vec<f64>,
) -> f64 {
    let mut correct = 0usize;
    for timed in [false, true] {
        correct = 0;
        for batch in order.chunks(EVAL_BATCH) {
            let pairs: Vec<(&[f64], &[f64])> = batch
                .iter()
                .map(|&i| {
                    (
                        task.eval_inputs[i].as_slice(),
                        task.eval_inputs[i].as_slice(),
                    )
                })
                .collect();
            let start = Instant::now();
            let ys = black_box(repaired.forward_decoupled_batch(black_box(&pairs)));
            if timed {
                eval_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            correct += ys
                .iter()
                .zip(batch)
                .filter(|(y, &i)| prdnn_linalg::vector::argmax(y) == task.eval_labels[i])
                .count();
        }
    }
    correct as f64 / order.len().max(1) as f64
}

/// Builds the task `reps` times and returns the last instance with every
/// build time.  Each build is dropped before the next starts.
pub fn timed_setup(build: fn() -> Task, reps: usize) -> (Task, Vec<f64>) {
    let mut times = Vec::new();
    let mut task = None;
    for _ in 0..reps {
        drop(task.take());
        let start = Instant::now();
        task = Some(black_box(build()));
        times.push(start.elapsed().as_secs_f64());
    }
    (task.expect("at least one setup"), times)
}

/// Whether another pass of `pass_s` seconds fits in the budget.
fn another_pass_fits(run_start: Instant, pass_s: f64, budget: Duration) -> bool {
    run_start.elapsed().as_secs_f64() + pass_s <= budget.as_secs_f64()
}

/// The untraced run: whole passes over the attempt sequence, each attempt
/// through the library's public repair call, every success checked.
///
/// Each attempt's time is the median over the passes of its charged time;
/// `repair_s` sums those medians over the sequence.  `after_pass` runs at
/// the end of every pass, inside the pass's share of the budget.
pub fn run_untraced(
    task: &Task,
    seed: u64,
    budget: Duration,
    report: &mut Report,
    after_pass: &mut dyn FnMut(),
) {
    let config = RepairConfig::default();
    let pool = prdnn_par::pool_for(None);
    let mut rng = SplitMix::new(seed);
    let eval_order = rng.permutation(task.eval_inputs.len());
    let run_start = Instant::now();
    let mut pass_totals = Vec::new();
    let mut outcomes = vec![Vec::new(); task.attempts.len()];
    let mut eval_ms = Vec::new();
    let mut details = Vec::new();
    let mut violations = std::collections::BTreeMap::new();
    loop {
        let pass_start = Instant::now();
        let mut pass = Vec::new();
        for (attempt, runs) in task.attempts.iter().zip(&mut outcomes) {
            report.attempted += 1;
            let start = Instant::now();
            let result = library_repair(&task.network, attempt, &config);
            let secs = start.elapsed().as_secs_f64();
            let (outcome, detail) = match result {
                Ok((outcome, regions)) => {
                    let (kps, _) = key_points(&task.network, &attempt.spec, &pool);
                    let residual = key_point_residual(&outcome.repaired, &kps, &attempt.spec)
                        .max(sampled_residual(&outcome.repaired, &attempt.spec, &mut rng));
                    let accuracy = eval_batches(task, &outcome.repaired, &eval_order, &mut eval_ms);
                    let detail = Value::obj([
                        (
                            "key_points",
                            Value::Num(outcome.stats.num_key_points as f64),
                        ),
                        ("regions", Value::Num(regions as f64)),
                        ("max_residual", Value::Num(residual)),
                        ("eval_accuracy", Value::Num(accuracy)),
                    ]);
                    // A repair whose result violates its spec is a failed
                    // repair: counted and charged like an error, and named.
                    if residual <= RESIDUAL_TOL {
                        (Attempt::Ok(secs), detail)
                    } else {
                        violations.insert(attempt.label.clone(), residual);
                        (Attempt::Failed(secs), detail)
                    }
                }
                Err(e) => (
                    Attempt::Failed(secs),
                    Value::obj([("error", Value::Str(error_name(&e)))]),
                ),
            };
            if matches!(outcome, Attempt::Failed(_)) {
                report.failed += 1;
            }
            runs.push(outcome);
            if pass_totals.is_empty() {
                details.push(Value::obj([
                    ("attempt", Value::Str(attempt.label.clone())),
                    ("seconds", Value::Num(secs)),
                    ("ok", Value::Bool(matches!(outcome, Attempt::Ok(_)))),
                    ("detail", detail),
                ]));
            }
            pass.push(outcome);
        }
        pass_totals.push(stats::charged_total(&pass, TIMEOUT_CHARGE_S));
        after_pass();
        if !another_pass_fits(run_start, pass_start.elapsed().as_secs_f64(), budget) {
            break;
        }
    }
    let (charged, ok) = stats::sequence_medians(&outcomes, TIMEOUT_CHARGE_S);
    let repair_s: f64 = charged.iter().sum();
    report.metric("repair_s", repair_s);
    // The successful runs alone, so the charge cannot hide a slowdown of
    // the repairs that work.
    let ok_s: f64 = ok.iter().sum();
    if ok_s > 0.0 {
        report.metric("repair_ok_s", ok_s);
    }
    report.info("charge_share", Value::Num(1.0 - ok_s / repair_s));
    let attempt_ms: Vec<f64> = charged.iter().map(|s| s * 1e3).collect();
    if let Some(ok) = stats::ok_fraction(report.attempted as usize, report.failed as usize) {
        report.metric("ok_frac", ok);
    }
    report.info(
        "repair_p50_ms",
        Value::Num(stats::median(&attempt_ms).expect("one attempt")),
    );
    match stats::median(&eval_ms) {
        Some(p50) => report.info("eval_p50_ms", Value::Num(p50)),
        None => report.problem("no attempt succeeded, so nothing was evaluated".into()),
    }
    report.info("eval_samples", Value::Num(eval_ms.len() as f64));
    report.info("spec_violations", violation_info(&violations));
    report.info("pass_totals_s", Value::num_array(&pass_totals));
    report.info("attempt_median_ms", Value::num_array(&attempt_ms));
    report.info("timeout_charge_s", Value::Num(TIMEOUT_CHARGE_S));
    report.info("eval_batch", Value::Num(EVAL_BATCH as f64));
    report.info("attempts", Value::Arr(details));
}

/// The attempts whose repaired network violated its spec, with the worst
/// residual.
fn violation_info(v: &std::collections::BTreeMap<String, f64>) -> Value {
    Value::Obj(v.iter().map(|(k, r)| (k.clone(), Value::Num(*r))).collect())
}

/// The ungated latency metrics: the eval and repair p50s and both tails,
/// with the percentile and sample count behind each tail stamped in the
/// report.
pub fn report_tails(report: &mut Report, eval_ms: &[f64], repair_ms: &[f64]) {
    if let Some(p50) = stats::median(eval_ms) {
        report.metric("eval_p50_ms", p50);
    }
    if let Some(p50) = stats::median(repair_ms) {
        report.metric("repair.p50_ms", p50);
    }
    if let Some(t) = stats::tail(eval_ms) {
        report.metric("tail.eval_ms", t.value);
        report.info("tail.eval", tail_info(&t));
    }
    if let Some(t) = stats::tail(repair_ms) {
        report.metric("tail.repair_ms", t.value);
        report.info("tail.repair", tail_info(&t));
    }
}

/// JSON stamp of a tail percentile: which one, over how many samples.
pub fn tail_info(t: &stats::Tail) -> Value {
    Value::obj([
        ("percentile", Value::Num(t.q * 100.0)),
        ("value", Value::Num(t.value)),
        ("samples", Value::Num(t.count as f64)),
        ("beyond", Value::Num(t.beyond as f64)),
    ])
}

/// The stage times and LP shape of one replayed attempt.
#[derive(Default)]
struct Replay {
    key_points: usize,
    regions: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
    solve_s: f64,
    lp: Option<LpStats>,
    objective: f64,
    delta: Option<Vec<f64>>,
    error: Option<LpError>,
    /// Whether the returned Δ violates the LP's own constraints.
    infeasible: bool,
    residual: f64,
}

/// Replays one attempt stage by stage through public calls, each stage in a
/// span under the attempt's root span.  Mirrors the library's encoding of
/// Algorithm 1 exactly, so its LP, and hence Δ, must match the library's.
fn replay(
    task: &Task,
    attempt: &AttemptDef,
    config: &RepairConfig,
    pool: &ThreadPool,
    log: &mut SpanLog,
    root: usize,
    op: u64,
) -> Replay {
    let ddnn = DecoupledNetwork::from_network(&task.network);
    let mut out = Replay::default();

    // Point specs are their own key points: only line specs call LinRegions.
    let lines = matches!(attempt.spec, Spec::Lines(_));
    let span = lines.then(|| log.open("lin_regions", Some(root), op));
    let (kps, regions) = key_points(&task.network, &attempt.spec, pool);
    span.map(|s| log.close(s));
    out.key_points = kps.len();
    out.regions = regions;

    let pairs: Vec<(&[f64], &[f64])> = kps
        .iter()
        .map(|k| (k.act.as_slice(), k.val.as_slice()))
        .collect();
    let span = log.open("jacobian", Some(root), op);
    let jacobians = ddnn.value_param_jacobian_batch_in(pool, attempt.layer, &pairs);
    log.close(span);
    let span = log.open("forward", Some(root), op);
    let bases = ddnn.forward_decoupled_batch_in(pool, &pairs);
    log.close(span);

    let span = log.open("lp_build", Some(root), op);
    let constraints = attempt.spec.constraints();
    let num_params = ddnn.value_network().layer(attempt.layer).num_params();
    let mut lp = LpProblem::new();
    let vars: Vec<VarId> = lp.add_vars(num_params, VarKind::Free);
    for (k, (jacobian, base)) in kps.iter().zip(jacobians.iter().zip(&bases)) {
        let c = &constraints[k.constraint];
        let a_j = c.a.matmul(jacobian);
        let a_base = c.a.matvec(base);
        for row in 0..c.num_faces() {
            let coeffs: Vec<(VarId, f64)> = vars
                .iter()
                .enumerate()
                .filter_map(|(p, v)| {
                    let x = a_j[(row, p)];
                    (x != 0.0).then_some((*v, x))
                })
                .collect();
            out.nnz += coeffs.len();
            lp.add_constraint(&coeffs, ConstraintOp::Le, c.b[row] - a_base[row]);
        }
    }
    lp.minimize_l1_of(&vars);
    out.rows = lp.num_constraints();
    out.cols = num_params;
    log.close(span);

    let span = log.open("lp_solve", Some(root), op);
    let options = SolveOptions {
        backend: config.lp_backend,
        max_iters: config.max_lp_iterations,
        pricing: config.lp_pricing,
    };
    let solved = prdnn_lp::solve_with_stats(&lp, &options);
    out.solve_s = log.close(span);
    let solution = match solved {
        Ok((solution, lp_stats)) => {
            out.lp = Some(lp_stats);
            out.infeasible = !lp.is_feasible(&solution.values, RESIDUAL_TOL);
            out.objective = solution.objective;
            solution
        }
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    };

    let span = log.open("apply_verify", Some(root), op);
    let mut repaired = ddnn.clone();
    repaired.apply_value_delta(attempt.layer, &solution.values);
    out.residual = key_point_residual(&repaired, &kps, &attempt.spec);
    log.close(span);
    out.delta = Some(solution.values);
    out
}

/// How the library maps an LP error onto a repair error.
fn expected_repair_error(e: &LpError) -> RepairError {
    match e {
        LpError::Infeasible => RepairError::Infeasible,
        LpError::IterationLimit | LpError::Unbounded => RepairError::LpIterationLimit,
    }
}

/// Running totals of the traced run's per-layer quantities.
#[derive(Default)]
struct LayerTotals {
    lin_regions_s: f64,
    regions: usize,
    key_points: usize,
    jacobian_s: f64,
    forward_s: f64,
    apply_verify_s: f64,
    max_residual: f64,
    build_s: f64,
    rows: usize,
    cols: usize,
    nnz: usize,
    solve_s: f64,
    pivots: u64,
    refactorizations: u64,
    bland_pivots: u64,
    degenerate_pivots: u64,
    pivoted_solve_s: f64,
    zero_pivot_solves: u64,
    infeasible_solves: u64,
    errors: u64,
    stats: RepairTiming,
    ok_solve_s: f64,
    ok_attempt_s: f64,
    attempt_s: f64,
    unaccounted_s: f64,
    library_s: f64,
}

/// The traced run: each attempt runs once through the library (untraced, for
/// its `RepairStats` and time) and once replayed stage by stage in spans.
/// The replay must reproduce the library's key points, LP shape and Δ.
pub fn run_traced(
    task: &Task,
    seed: u64,
    budget: Duration,
    report: &mut Report,
    log: &mut SpanLog,
) {
    let config = RepairConfig::default();
    let pool = prdnn_par::pool_for(None);
    let mut rng = SplitMix::new(seed);
    let eval_order = rng.permutation(task.eval_inputs.len());
    let run_start = Instant::now();
    let mut t = LayerTotals {
        max_residual: f64::NEG_INFINITY,
        ..LayerTotals::default()
    };
    let mut passes = 0usize;
    let mut details = Vec::new();
    let mut violations = std::collections::BTreeMap::new();
    let mut eval_ms = Vec::new();
    let mut repair_ms = Vec::new();
    let mut op = 0u64;
    loop {
        let pass_start = Instant::now();
        for attempt in &task.attempts {
            op += 1;
            report.attempted += 1;
            let start = Instant::now();
            let library = library_repair(&task.network, attempt, &config);
            let library_s = start.elapsed().as_secs_f64();
            t.library_s += library_s;
            if let Ok((outcome, _)) = &library {
                eval_batches(task, &outcome.repaired, &eval_order, &mut eval_ms);
            }

            let root = log.open("attempt", None, op);
            let r = replay(task, attempt, &config, &pool, log, root, op);
            let attempt_s = log.close(root);
            t.attempt_s += attempt_s;
            t.unaccounted_s += attempt_s - log.children_s(root);

            let stage = |name: &str| stage_time(log, root, name);
            t.lin_regions_s += stage("lin_regions");
            t.jacobian_s += stage("jacobian");
            t.forward_s += stage("forward");
            t.build_s += stage("lp_build");
            t.apply_verify_s += stage("apply_verify");
            t.solve_s += r.solve_s;
            t.regions += r.regions;
            t.key_points += r.key_points;
            t.rows += r.rows;
            t.cols += r.cols;
            t.nnz += r.nnz;
            if let Some(s) = &r.lp {
                t.pivots += s.pivots;
                t.refactorizations += s.refactorizations;
                t.bland_pivots += s.bland_pivots;
                t.degenerate_pivots += s.degenerate_pivots;
                if s.pivots > 0 {
                    t.pivoted_solve_s += r.solve_s;
                }
            }
            if r.error.is_some() {
                t.errors += 1;
            }
            if r.infeasible {
                t.infeasible_solves += 1;
            }

            let mut ok = false;
            match (&library, &r.error) {
                (Ok((outcome, regions)), None) => {
                    let s = &outcome.stats;
                    let delta = r.delta.as_deref().unwrap_or(&[]);
                    let same_delta = delta.len() == outcome.delta.len()
                        && delta
                            .iter()
                            .zip(&outcome.delta)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    let objective_matches =
                        (r.objective - s.delta_l1).abs() <= 1e-9 * s.delta_l1.abs().max(1.0);
                    if r.key_points != s.num_key_points
                        || r.rows != s.num_constraints
                        || r.cols != s.num_variables
                        || r.regions != *regions
                        || !same_delta
                        || !objective_matches
                    {
                        report.problem(format!(
                            "{}: replay differs from the library (key points {} vs {}, rows {} vs {}, \
                             cols {} vs {}, regions {} vs {regions}, same Δ {same_delta}, objective {} vs {})",
                            attempt.label,
                            r.key_points,
                            s.num_key_points,
                            r.rows,
                            s.num_constraints,
                            r.cols,
                            s.num_variables,
                            r.regions,
                            r.objective,
                            s.delta_l1
                        ));
                    }
                    if r.residual > RESIDUAL_TOL {
                        violations.insert(attempt.label.clone(), r.residual);
                    } else {
                        ok = true;
                    }
                    t.max_residual = t.max_residual.max(r.residual);
                    if delta.iter().any(|&d| d != 0.0)
                        && r.lp.as_ref().is_some_and(|l| l.pivots == 0)
                    {
                        t.zero_pivot_solves += 1;
                    }
                    let timing = &s.timing;
                    t.stats.lin_regions += timing.lin_regions;
                    t.stats.jacobians += timing.jacobians;
                    t.stats.lp += timing.lp;
                    t.stats.other += timing.other;
                    t.ok_solve_s += r.solve_s;
                    t.ok_attempt_s += attempt_s;
                }
                (Err(le), Some(re)) if *le == expected_repair_error(re) => {}
                (lib, rep) => report.problem(format!(
                    "{}: library returned {:?} but the replay's LP returned {:?}",
                    attempt.label,
                    lib.as_ref().map(|_| "Ok").map_err(error_name),
                    rep
                )),
            }
            if !ok {
                report.failed += 1;
            }
            let charged = if ok {
                Attempt::Ok(library_s)
            } else {
                Attempt::Failed(library_s)
            };
            repair_ms.push(stats::charged_seconds(charged, TIMEOUT_CHARGE_S) * 1e3);
            details.push(Value::obj([
                ("attempt", Value::Str(attempt.label.clone())),
                ("op", Value::Num(op as f64)),
                ("ok", Value::Bool(ok)),
                ("replay_s", Value::Num(attempt_s)),
                ("lp_solve_s", Value::Num(r.solve_s)),
                ("lp_build_s", Value::Num(stage("lp_build"))),
                ("rows", Value::Num(r.rows as f64)),
                ("cols", Value::Num(r.cols as f64)),
                ("nnz", Value::Num(r.nnz as f64)),
                (
                    "pivots",
                    Value::Num(r.lp.as_ref().map_or(0, |s| s.pivots) as f64),
                ),
                (
                    "error",
                    r.error
                        .as_ref()
                        .map_or(Value::Null, |e| Value::Str(format!("{e:?}"))),
                ),
            ]));
        }
        passes += 1;
        if !another_pass_fits(run_start, pass_start.elapsed().as_secs_f64(), budget) {
            break;
        }
    }
    let per_pass = |x: f64| x / passes as f64;
    let count = |x: usize| per_pass(x as f64);
    report.metric("syrenn.lin_regions_s", per_pass(t.lin_regions_s));
    report.metric("syrenn.regions", count(t.regions));
    report.metric("syrenn.key_points", count(t.key_points));
    report.metric("core.jacobian_s", per_pass(t.jacobian_s));
    report.metric("core.forward_s", per_pass(t.forward_s));
    report.metric("core.apply_verify_s", per_pass(t.apply_verify_s));
    report.metric("core.max_residual", t.max_residual.max(0.0));
    report.metric("lp.build_s", per_pass(t.build_s));
    report.metric("lp.rows", count(t.rows));
    report.metric("lp.cols", count(t.cols));
    report.metric("lp.nnz", count(t.nnz));
    report.metric("lp.solve_s", per_pass(t.solve_s));
    report.metric("lp.pivots", per_pass(t.pivots as f64));
    report.metric("lp.refactorizations", per_pass(t.refactorizations as f64));
    report.metric("lp.bland_pivots", per_pass(t.bland_pivots as f64));
    report.metric("lp.degenerate_pivots", per_pass(t.degenerate_pivots as f64));
    let us_per_pivot = if t.pivots > 0 {
        t.pivoted_solve_s * 1e6 / t.pivots as f64
    } else {
        0.0
    };
    report.metric("lp.us_per_pivot", us_per_pivot);
    report.metric("lp.zero_pivot_solves", per_pass(t.zero_pivot_solves as f64));
    report.metric("lp.errors", per_pass(t.errors as f64));
    report.metric(
        "repair.stats_lin_regions_s",
        per_pass(t.stats.lin_regions.as_secs_f64()),
    );
    report.metric(
        "repair.stats_jacobians_s",
        per_pass(t.stats.jacobians.as_secs_f64()),
    );
    report.metric("repair.stats_lp_s", per_pass(t.stats.lp.as_secs_f64()));
    report.metric(
        "repair.stats_other_s",
        per_pass(t.stats.other.as_secs_f64()),
    );
    if t.ok_attempt_s > 0.0 {
        report.metric("repair.lp_share", t.ok_solve_s / t.ok_attempt_s);
    }
    report.metric("trace.unaccounted_frac", t.unaccounted_s / t.attempt_s);
    report.metric("trace.overhead_s", per_pass(t.attempt_s - t.library_s));
    report.metric("lp.infeasible_solves", per_pass(t.infeasible_solves as f64));
    report_tails(report, &eval_ms, &repair_ms);
    report.info("spec_violations", violation_info(&violations));
    report.info("passes", Value::Num(passes as f64));
    report.info("attempts", Value::Arr(details));
}

/// Total duration of the `name` children of span `root`.
fn stage_time(log: &SpanLog, root: usize, name: &str) -> f64 {
    log.children(root)
        .filter(|s| s.name == name)
        .map(|s| s.duration_s())
        .sum()
}
