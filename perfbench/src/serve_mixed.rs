//! The `serve_mixed` workload: an in-process durable server under mixed
//! traffic.
//!
//! This process is the single generator.  It holds two connections:
//!
//! * **traffic** — an open loop at [`OFFERED_RPS`]: eval batches on
//!   `@latest` of the Task 2 digit MLP and `lin_regions` over Task 2 fog
//!   lines, most drawn from a small hot pool so the cache both hits and
//!   misses.  Each request is timed from its scheduled send time.
//! * **repairs** — one small point repair of the model's last layer every
//!   [`REPAIR_PERIOD`], cycling through [`REPAIR_SPECS`] fixed specs, each
//!   polled until its job settles, on its own schedule so a waiting repair
//!   never delays a traffic send.  Every published version is checked
//!   through the server against its spec.
//!
//! The traffic shape is `servebench`'s: its default offered rate, the
//! 90/10 eval/lin_regions split of its `eval_heavy` mix, 4-input eval
//! batches and one segment per lin_regions request, and the 16-payload hot
//! pool and 4:1 hot-to-cold request ratio of its `cached` mix.  Each repair
//! has [`REPAIR_POINTS`] points, where `servebench`'s repair spec has two.
//!
//! The seed draws every traffic input; the repair specs are fixed, like the
//! repair workloads' task instances, so every run solves the same LPs.
//! With `--trace 1` the run has two halves, one against a server with span
//! tracing off and one with it on; the per-layer numbers come from the
//! second half's `metrics` and `trace` requests.

use crate::prom::Scrape;
use crate::report::{Report, SpanLog};
use crate::rng::SplitMix;
use crate::stats::{self, Attempt};
use crate::tasks::{EVAL_BATCH, RESIDUAL_TOL, TIMEOUT_CHARGE_S};
use prdnn_bench::scale::{Scale, Task2Params};
use prdnn_bench::task2::RepairLine;
use prdnn_core::{DecoupledNetwork, OutputPolytope, PointSpec, RepairConfig};
use prdnn_datasets::digits::NUM_CLASSES;
use prdnn_nn::Network;
use prdnn_serve::client::Client;
use prdnn_serve::protocol::{JobState, ModelRef, Response};
use prdnn_serve::server::{self, ServerConfig, ServerHandle};
use serde::json::Value;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Offered rate of the traffic connection, requests per second
/// (`servebench --rate` default).
pub const OFFERED_RPS: f64 = 200.0;

/// Time between served repair submissions.  `servebench`'s repair mixes
/// do not await their jobs, so they give no rate for awaited repairs; this
/// one was chosen by measurement (`perfbench/README.md`): the shortest
/// period of the sweep at which the open loop still held, so the run gets
/// the most repairs and the most cache invalidations it can carry.
pub const REPAIR_PERIOD: Duration = Duration::from_millis(100);

/// Sleep between two status polls of a running repair job.
pub const POLL_INTERVAL: Duration = Duration::from_micros(250);

/// The generator sleeps until this long before a send is due and spins for
/// the rest, so its own wake-up latency does not land on the request.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(300);

/// Waits until `due`: sleeps most of the way, then spins.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_BEFORE_DUE {
        thread::sleep(due - now - SPIN_BEFORE_DUE);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Setups timed per untraced run (the median is reported).
const SETUP_REPS: usize = 21;

/// Store name of the served model.
const MODEL: &str = "digits";

/// Repair points per served repair, one per fog line.  `servebench`'s
/// repair spec has 2; with 2 the WAL fsync was two thirds of a served
/// repair, and the shared disk's fsync latency moved by up to 70% from one
/// run to the next (`perfbench/README.md`).  At 8 the repair's LP takes
/// most of its time and the fsync about a fifth.
const REPAIR_POINTS: usize = 8;

/// Distinct repair specs; the served repairs cycle through them in order
/// (`servebench` cycles its repair spec through 8 shifts).  Fewer than the
/// digit classes, so consecutive specs never ask for the same class.
const REPAIR_SPECS: usize = 8;

/// Share of traffic requests that are eval; the rest are lin_regions
/// (`servebench`'s `eval_heavy` split).
const EVAL_SHARE: f64 = 0.9;

/// Payloads per hot pool, one pool per request kind (`servebench`'s
/// `cached` mix pool size).
const HOT_POOL: usize = 16;

/// Share of requests drawn from the hot pools: `servebench`'s `cached`
/// mix sends four hot requests per cold one.
const HOT_SHARE: f64 = 0.8;

/// Slow-request threshold of the traced half, ms (every request slower than
/// this lands in the server's slow-log with its span chain).
const TRACED_SLOW_MS: u64 = 1;

/// The Task 2 instance the server is loaded with.
struct Instance {
    network: Network,
    lines: Vec<RepairLine>,
    held_out: Vec<Vec<f64>>,
}

fn instance() -> Instance {
    let setup = prdnn_bench::task2::setup(&Task2Params::for_scale(Scale::Small));
    let mut held_out = setup.drawdown_set.inputs;
    held_out.extend(setup.generalization_set.inputs);
    Instance {
        network: setup.network,
        lines: setup.lines,
        held_out,
    }
}

/// A point on line `line` at fraction `t` from clean to foggy.
fn on_line(line: &RepairLine, t: f64) -> Vec<f64> {
    line.clean
        .iter()
        .zip(&line.foggy)
        .map(|(c, f)| c + t * (f - c))
        .collect()
}

/// One request of the traffic connection.
enum Request {
    Eval(Vec<Vec<f64>>),
    LinRegions(Vec<Vec<Vec<f64>>>),
}

/// The seeded traffic inputs.
struct Inputs {
    hot_evals: Vec<Vec<Vec<f64>>>,
    hot_lins: Vec<Vec<Vec<Vec<f64>>>>,
}

impl Inputs {
    fn new(inst: &Instance, rng: &mut SplitMix) -> Inputs {
        Inputs {
            hot_evals: (0..HOT_POOL).map(|_| fresh_eval(inst, rng)).collect(),
            hot_lins: (0..HOT_POOL).map(|_| fresh_segment(inst, rng)).collect(),
        }
    }

    /// The next traffic request.
    fn next(&self, inst: &Instance, rng: &mut SplitMix) -> Request {
        let eval = rng.unit() < EVAL_SHARE;
        let hot = rng.unit() < HOT_SHARE;
        match (eval, hot) {
            (true, true) => Request::Eval(self.hot_evals[rng.below(HOT_POOL)].clone()),
            (true, false) => Request::Eval(fresh_eval(inst, rng)),
            (false, true) => Request::LinRegions(self.hot_lins[rng.below(HOT_POOL)].clone()),
            (false, false) => Request::LinRegions(fresh_segment(inst, rng)),
        }
    }
}

/// An eval batch of held-out digits.
fn fresh_eval(inst: &Instance, rng: &mut SplitMix) -> Vec<Vec<f64>> {
    (0..EVAL_BATCH)
        .map(|_| inst.held_out[rng.below(inst.held_out.len())].clone())
        .collect()
}

/// One random sub-segment of a fog line, as a lin_regions request.
fn fresh_segment(inst: &Instance, rng: &mut SplitMix) -> Vec<Vec<Vec<f64>>> {
    let line = &inst.lines[rng.below(inst.lines.len())];
    let (a, b) = (rng.unit(), rng.unit());
    let lo = a.min(b);
    vec![vec![
        on_line(line, lo),
        on_line(line, a.max(b).max(lo + 1e-3)),
    ]]
}

/// The served repairs' specs: [`REPAIR_POINTS`] fixed points, one on each
/// of the first Task 2 fog lines, spread from the clean end to the foggy
/// end; spec `k` must classify all of them as class `k + 1` past the first
/// line's label.  Consecutive specs of the cycle ask for different classes,
/// so every repair has a nonzero Δ and publishes new weights, as
/// `servebench` shifts its spec so that successive repairs are non-trivial.
fn repair_specs(inst: &Instance) -> Vec<PointSpec> {
    let points: Vec<Vec<f64>> = inst.lines[..REPAIR_POINTS]
        .iter()
        .enumerate()
        .map(|(j, line)| on_line(line, (j as f64 + 0.5) / REPAIR_POINTS as f64))
        .collect();
    (0..REPAIR_SPECS)
        .map(|k| {
            let class = (inst.lines[0].label + 1 + k) % NUM_CLASSES;
            let mut spec = PointSpec::new();
            for p in &points {
                spec.push(
                    p.clone(),
                    OutputPolytope::classification(class, NUM_CLASSES, 1e-4),
                );
            }
            spec
        })
        .collect()
}

/// A running server and its control connection.
struct Server {
    handle: ServerHandle,
    client: Client,
    store: PathBuf,
}

impl Server {
    /// Starts a durable server, connects, and loads the model.
    fn start(net: &Network, store: PathBuf, slow_ms: u64) -> std::io::Result<Server> {
        let _ = std::fs::remove_dir_all(&store);
        let handle = server::serve(ServerConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: Some(store.clone()),
            slow_ms,
            ..ServerConfig::default()
        })?;
        let mut client = Client::connect(handle.addr())?;
        client
            .load_network(MODEL, net)
            .map_err(|e| std::io::Error::other(format!("load_network: {e:?}")))?;
        Ok(Server {
            handle,
            client,
            store,
        })
    }

    /// Shuts the server down, waits for it, and removes its store.
    fn stop(mut self, report: &mut Report) {
        if let Err(e) = self.client.shutdown_server() {
            report.problem(format!("shutdown request failed: {e:?}"));
            self.handle.shutdown();
        }
        drop(self.client);
        if let Err(e) = self.handle.join() {
            report.problem(format!("server did not stop cleanly: {e}"));
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// One traffic request's timing.
struct Sample {
    op: u64,
    eval: bool,
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

/// One served repair's outcome.
struct RepairSample {
    op: u64,
    submitted: Instant,
    done: Instant,
    outcome: Attempt,
    /// Why it failed.
    error: Option<String>,
}

/// What one traffic phase measured.
struct Phase {
    samples: Vec<Sample>,
    repairs: Vec<RepairSample>,
    scrape: Scrape,
    slow_log: Value,
}

/// The open-loop traffic connection.
fn traffic(
    addr: std::net::SocketAddr,
    inst: &Instance,
    seed: u64,
    window: Duration,
) -> Vec<Sample> {
    let mut client = Client::connect(addr).expect("traffic connection");
    let mut rng = SplitMix::new(seed ^ 0x7261_6666);
    let inputs = Inputs::new(inst, &mut rng);
    let period = Duration::from_secs_f64(1.0 / OFFERED_RPS);
    let start = Instant::now();
    let mut samples = Vec::new();
    for i in 0u64.. {
        let due = start + period * i as u32;
        if due >= start + window {
            break;
        }
        let request = inputs.next(inst, &mut rng);
        wait_until(due);
        let op = 1_000_000 + i;
        client.set_next_request_id(op);
        let sent = Instant::now();
        let (eval, ok) = match request {
            Request::Eval(batch) => {
                let n = batch.len();
                let out = client.eval(&ModelRef::latest(MODEL), batch, None);
                (true, out.is_ok_and(|ys| ys.len() == n))
            }
            Request::LinRegions(polys) => {
                let n = polys.len();
                let out = client.lin_regions(&ModelRef::latest(MODEL), polys, None);
                (
                    false,
                    out.is_ok_and(|rs| rs.len() == n && rs.iter().all(|r| !r.is_empty())),
                )
            }
        };
        samples.push(Sample {
            op,
            eval,
            due,
            sent,
            done: Instant::now(),
            ok,
        });
    }
    samples
}

/// Worst spec violation of served outputs `ys` for `spec`.
fn served_residual(spec: &PointSpec, ys: &[Vec<f64>]) -> f64 {
    ys.iter()
        .zip(&spec.constraints)
        .flat_map(|(y, c)| {
            c.a.matvec(y)
                .into_iter()
                .zip(&c.b)
                .map(|(l, r)| l - r)
                .collect::<Vec<_>>()
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Submits one repair and polls it until it settles; checks the published
/// version through the server.  A job that fails, times out, or publishes a
/// version that violates its spec is a failed repair, with the reason kept.
fn served_repair(client: &mut Client, spec: PointSpec, layer: usize, op: u64) -> RepairSample {
    let submitted = Instant::now();
    let points = spec.points.clone();
    client.set_next_request_id(op);
    let settled = client
        .repair(
            &ModelRef::latest(MODEL),
            layer,
            spec.clone(),
            RepairConfig::default(),
        )
        .map_err(|e| format!("{e:?}"))
        .and_then(|job| loop {
            match client.job_status(job).map_err(|e| format!("{e:?}"))? {
                JobState::Done { version, .. } => break Ok(version),
                JobState::Failed { message } => break Err(message),
                _ if submitted.elapsed().as_secs_f64() > TIMEOUT_CHARGE_S => {
                    break Err("timed out".into())
                }
                _ => thread::sleep(POLL_INTERVAL),
            }
        });
    let done = Instant::now();
    let error = settled.and_then(|version| {
        let ys = client
            .eval(&ModelRef::version(MODEL, version), points, None)
            .map_err(|e| format!("eval of published version {version}: {e:?}"))?;
        let residual = served_residual(&spec, &ys);
        if residual <= RESIDUAL_TOL {
            Ok(())
        } else {
            Err(format!(
                "published version {version} violates its spec by {residual:e}"
            ))
        }
    });
    let secs = (done - submitted).as_secs_f64();
    RepairSample {
        op,
        submitted,
        done,
        outcome: if error.is_ok() {
            Attempt::Ok(secs)
        } else {
            Attempt::Failed(secs)
        },
        error: error.err(),
    }
}

/// Served eval of `model` must equal the local forward of `local`, bit for bit.
fn check_bitwise(
    client: &mut Client,
    model: &ModelRef,
    local: &DecoupledNetwork,
    inputs: &[Vec<f64>],
    report: &mut Report,
) {
    match client.eval(model, inputs.to_vec(), None) {
        Ok(ys) => {
            let same = ys.len() == inputs.len()
                && ys.iter().zip(inputs).all(|(y, x)| {
                    let want = local.forward(x);
                    y.len() == want.len()
                        && y.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits())
                });
            if !same {
                report.problem(format!(
                    "served eval of {model:?} differs from the local forward pass"
                ));
            }
        }
        Err(e) => report.problem(format!("eval of {model:?} failed: {e:?}")),
    }
}

/// The network of a served version, rebuilt locally from `get_network`.
fn fetch_network(client: &mut Client, model: &ModelRef) -> Result<DecoupledNetwork, String> {
    match client.get_network(model).map_err(|e| format!("{e:?}"))? {
        Response::Network {
            activation, value, ..
        } => Ok(DecoupledNetwork::new(
            prdnn_nn::network_from_json(&activation)?,
            prdnn_nn::network_from_json(&value)?,
        )),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// One phase: traffic and repairs for `window`, then the output checks and
/// a scrape of the server's metrics and slow-log.
fn phase(
    server: &mut Server,
    inst: &Instance,
    seed: u64,
    window: Duration,
    report: &mut Report,
) -> Phase {
    let local = DecoupledNetwork::from_network(&inst.network);
    let check_inputs: Vec<Vec<f64>> = inst.held_out.iter().take(EVAL_BATCH).cloned().collect();
    check_bitwise(
        &mut server.client,
        &ModelRef::version(MODEL, 1),
        &local,
        &check_inputs,
        report,
    );

    let addr = server.handle.addr();
    let layer = inst.network.num_layers() - 1;
    let client = &mut server.client;
    let (samples, repairs) = thread::scope(|scope| {
        let traffic = scope.spawn(|| traffic(addr, inst, seed, window));
        let specs = repair_specs(inst);
        let start = Instant::now();
        let count = (window.as_secs_f64() / REPAIR_PERIOD.as_secs_f64()).floor() as u32;
        let mut repairs = Vec::new();
        for j in 0..count {
            let due = start + REPAIR_PERIOD * j;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let spec = specs[j as usize % REPAIR_SPECS].clone();
            repairs.push(served_repair(client, spec, layer, 2_000_000 + u64::from(j)));
        }
        (traffic.join().expect("traffic thread panicked"), repairs)
    });

    // After the traffic: the loaded version still serves bit-exact outputs,
    // and so does the last repaired one, against a local rebuild of it.
    check_bitwise(
        &mut server.client,
        &ModelRef::version(MODEL, 1),
        &local,
        &check_inputs,
        report,
    );
    match server.client.list_models() {
        Ok(models) => {
            let latest = models
                .iter()
                .find(|(n, _)| n == MODEL)
                .map_or(1, |&(_, v)| v);
            let model = ModelRef::version(MODEL, latest);
            match fetch_network(&mut server.client, &model) {
                Ok(net) => check_bitwise(&mut server.client, &model, &net, &check_inputs, report),
                Err(e) => report.problem(format!("get_network of {model:?}: {e}")),
            }
        }
        Err(e) => report.problem(format!("list_models failed: {e:?}")),
    }
    let scrape = match server
        .client
        .metrics()
        .map_err(|e| format!("{e:?}"))
        .and_then(|t| Scrape::parse(&t))
    {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("metrics scrape failed: {e}"));
            Scrape::parse("").expect("empty scrape")
        }
    };
    let slow_log = server.client.trace().unwrap_or(Value::Arr(Vec::new()));
    Phase {
        samples,
        repairs,
        scrape,
        slow_log,
    }
}

/// Eval latencies from the scheduled send time, in ms.
fn eval_ms(p: &Phase, from_due: bool) -> Vec<f64> {
    p.samples
        .iter()
        .filter(|s| s.eval && s.ok)
        .map(|s| (s.done - if from_due { s.due } else { s.sent }).as_secs_f64() * 1e3)
        .collect()
}

/// Charged submit-to-settled time of every served repair, in ms, in order.
fn repair_ms(p: &Phase) -> Vec<f64> {
    p.repairs
        .iter()
        .map(|r| stats::charged_seconds(r.outcome, TIMEOUT_CHARGE_S) * 1e3)
        .collect()
}

/// Counts a phase's operations and failures into the report, with the
/// first failed repair's reason.
fn count_ops(p: &Phase, report: &mut Report) {
    if let Some(e) = p.repairs.iter().find_map(|r| r.error.as_ref()) {
        report.info("first_failed_repair", Value::Str(e.clone()));
    }
    report.attempted += (p.samples.len() + p.repairs.len()) as u64;
    report.failed += p.samples.iter().filter(|s| !s.ok).count() as u64;
    report.failed += p
        .repairs
        .iter()
        .filter(|r| matches!(r.outcome, Attempt::Failed(_)))
        .count() as u64;
}

/// Runs the workload.
pub fn run(
    seed: u64,
    budget: Duration,
    traced: bool,
    dir: &Path,
    report: &mut Report,
    log: &mut SpanLog,
) {
    report.info("offered_rps", Value::Num(OFFERED_RPS));
    report.info(
        "repair_period_ms",
        Value::Num(REPAIR_PERIOD.as_secs_f64() * 1e3),
    );
    report.info(
        "poll_granularity",
        Value::Str(format!(
            "{} us sleep between job_status polls, plus one status round-trip",
            POLL_INTERVAL.as_micros()
        )),
    );
    report.info("timeout_charge_s", Value::Num(TIMEOUT_CHARGE_S));
    if traced {
        run_traced(seed, budget, dir, report, log);
    } else {
        run_untraced(seed, budget, dir, report);
    }
}

/// Times `reps` set-ups (build the instance, start a durable server, load
/// the model) into `setups` and keeps the last server running.
fn timed_setups(
    reps: usize,
    dir: &Path,
    tag: &str,
    report: &mut Report,
    setups: &mut Vec<f64>,
) -> Option<(Server, Instance)> {
    let mut live: Option<(Server, Instance)> = None;
    for i in 0..reps {
        if let Some((old, _)) = live.take() {
            old.stop(report);
        }
        let start = Instant::now();
        let built = instance();
        let server = match Server::start(&built.network, dir.join(format!("{tag}{i}")), 0) {
            Ok(s) => s,
            Err(e) => {
                report.problem(format!("server start failed: {e}"));
                return None;
            }
        };
        setups.push(start.elapsed().as_secs_f64());
        live = Some((server, built));
    }
    live
}

fn run_untraced(seed: u64, budget: Duration, dir: &Path, report: &mut Report) {
    // Half the set-ups are timed before the traffic and half after it, so
    // `setup_s` samples the host at both ends of the run.
    let mut setups = Vec::new();
    let Some((mut server, inst)) =
        timed_setups(SETUP_REPS.div_ceil(2), dir, "before", report, &mut setups)
    else {
        return;
    };
    let p = phase(&mut server, &inst, seed, budget, report);
    server.stop(report);
    if let Some((last, _)) = timed_setups(SETUP_REPS / 2, dir, "after", report, &mut setups) {
        last.stop(report);
    }
    report.metric("setup_s", stats::median(&setups).expect("one setup"));
    report.info("setup_runs_s", Value::num_array(&setups));
    count_ops(&p, report);
    if let Some(ok) = stats::ok_fraction(report.attempted as usize, report.failed as usize) {
        report.metric("ok_frac", ok);
    }
    if let Some(p50) = stats::median(&eval_ms(&p, true)) {
        report.info("eval_p50_ms", Value::Num(p50));
    }
    // As on the repair workloads: one pass over the spec sequence, from
    // each spec's median over its repairs.
    let runs: Vec<Vec<Attempt>> = (0..REPAIR_SPECS)
        .map(|k| {
            p.repairs
                .iter()
                .skip(k)
                .step_by(REPAIR_SPECS)
                .map(|r| r.outcome)
                .collect()
        })
        .collect();
    let (charged, ok) = stats::sequence_medians(&runs, TIMEOUT_CHARGE_S);
    report.metric("repair_s", charged.iter().sum());
    let ok_s: f64 = ok.iter().sum();
    if ok_s > 0.0 {
        report.metric("repair_ok_s", ok_s);
    }
    let per_spec: Vec<f64> = charged.iter().map(|s| s * 1e3).collect();
    report.info(
        "repair_p50_ms",
        Value::Num(stats::median(&repair_ms(&p)).unwrap_or(0.0)),
    );
    report.info("spec_median_ms", Value::num_array(&per_spec));
    // The server's own split of a repair, to tell which stage moved.
    let ms = |series: &str| Value::Num(p.scrape.quantile(series, 0.5) * 1e3);
    report.info(
        "server_job_queue_ms_p50",
        ms("prdnn_job_queue_wait_seconds"),
    );
    report.info("server_lp_solve_ms_p50", ms("prdnn_lp_solve_seconds"));
    report.info("server_wal_fsync_ms_p50", ms("prdnn_wal_fsync_seconds"));
    let lins: Vec<f64> = p
        .samples
        .iter()
        .filter(|s| !s.eval && s.ok)
        .map(|s| (s.done - s.due).as_secs_f64() * 1e3)
        .collect();
    report.info(
        "lin_regions_p50_ms",
        Value::Num(stats::median(&lins).unwrap_or(0.0)),
    );
    report.info("lin_regions_samples", Value::Num(lins.len() as f64));
    report.info("served_repairs", Value::Num(p.repairs.len() as f64));
}

fn run_traced(seed: u64, budget: Duration, dir: &Path, report: &mut Report, log: &mut SpanLog) {
    let half = budget / 2;
    let inst = instance();
    let mut p50s = Vec::new();
    let mut last = None;
    for (i, slow_ms) in [0, TRACED_SLOW_MS].into_iter().enumerate() {
        let mut server = match Server::start(&inst.network, dir.join(format!("traced{i}")), slow_ms)
        {
            Ok(s) => s,
            Err(e) => return report.problem(format!("server start failed: {e}")),
        };
        let p = phase(&mut server, &inst, seed, half, report);
        server.stop(report);
        count_ops(&p, report);
        p50s.push(stats::median(&eval_ms(&p, true)).unwrap_or(0.0));
        last = Some(p);
    }
    let p = last.expect("two phases");
    for s in &p.samples {
        log.record(
            if s.eval { "eval" } else { "lin_regions" },
            s.op,
            s.due,
            s.done,
        );
    }
    for r in &p.repairs {
        log.record("repair", r.op, r.submitted, r.done);
    }

    crate::tasks::report_tails(report, &eval_ms(&p, true), &repair_ms(&p));
    let s = &p.scrape;
    let ms = |series: &str, q: f64| s.quantile(series, q) * 1e3;
    report.metric(
        "serve.batcher.queue_wait_ms_p50",
        ms("prdnn_batch_queue_wait_seconds", 0.5),
    );
    report.metric(
        "serve.batcher.queue_wait_ms_p99",
        ms("prdnn_batch_queue_wait_seconds", 0.99),
    );
    report.metric(
        "serve.batcher.exec_ms_p50",
        ms("prdnn_batch_exec_seconds", 0.5),
    );
    report.metric("serve.batcher.mean_gulp", s.mean("prdnn_gulp_size"));
    let hits = s.value("prdnn_cache_hits_total");
    let lookups = hits + s.value("prdnn_cache_misses_total");
    report.metric(
        "serve.cache.hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    report.metric("serve.cache.lookups", lookups);
    report.metric(
        "serve.cache.hit_ms_p50",
        ms("prdnn_cache_service_seconds{result=\"hit\"}", 0.5),
    );
    report.metric(
        "serve.cache.miss_ms_p50",
        ms("prdnn_cache_service_seconds{result=\"miss\"}", 0.5),
    );
    let lins: Vec<f64> = p
        .samples
        .iter()
        .filter(|x| !x.eval && x.ok)
        .map(|x| (x.done - x.due).as_secs_f64() * 1e3)
        .collect();
    report.metric(
        "serve.lin_regions_ms_p50",
        stats::median(&lins).unwrap_or(0.0),
    );
    report.metric(
        "serve.jobs.queue_wait_ms_p50",
        ms("prdnn_job_queue_wait_seconds", 0.5),
    );
    report.metric(
        "serve.jobs.lp_solve_ms_p50",
        ms("prdnn_lp_solve_seconds", 0.5),
    );
    report.metric("serve.wal.fsync_ms_p50", ms("prdnn_wal_fsync_seconds", 0.5));
    report.metric(
        "serve.wal.fsync_ms_p99",
        ms("prdnn_wal_fsync_seconds", 0.99),
    );
    report.metric("serve.wal.appends", s.value("prdnn_wal_appends_total"));
    report.metric(
        "serve.shed",
        s.value("prdnn_batch_shed_total") + s.value("prdnn_jobs_shed_total"),
    );
    report.metric(
        "serve.deadline_expired",
        s.value("prdnn_deadline_expired_total"),
    );
    let client_p50 = stats::median(&eval_ms(&p, false)).unwrap_or(0.0);
    report.metric(
        "serve.protocol.eval_gap_ms_p50",
        client_p50 - ms("prdnn_request_seconds{kind=\"eval\"}", 0.5),
    );
    let late: Vec<f64> = p
        .samples
        .iter()
        .map(|x| (x.sent - x.due).as_secs_f64() * 1e3)
        .collect();
    report.metric(
        "gen.late_ms_p99",
        stats::percentile(&late, 0.99).unwrap_or(0.0),
    );
    report.metric("trace.overhead_s", (p50s[1] - p50s[0]) / 1e3);

    // Join the server's slow-log to the client spans by request id: the
    // share of client-observed time the server's spans do not cover.
    let (mut client_s, mut server_s, mut joined) = (0.0, 0.0, 0usize);
    for entry in p.slow_log.as_arr().unwrap_or(&[]) {
        let id = entry
            .get("request_id")
            .and_then(Value::as_f64)
            .map(|v| v as u64);
        let total_ms = entry.get("total_ms").and_then(Value::as_f64);
        let client = id.and_then(|id| {
            p.samples
                .iter()
                .find(|x| x.op == id)
                .map(|x| (x.done - x.sent).as_secs_f64())
                .or_else(|| {
                    p.repairs
                        .iter()
                        .find(|r| r.op == id)
                        .map(|r| (r.done - r.submitted).as_secs_f64())
                })
        });
        if let (Some(c), Some(t)) = (client, total_ms) {
            client_s += c;
            server_s += t / 1e3;
            joined += 1;
        }
    }
    report.metric(
        "trace.unaccounted_frac",
        if client_s > 0.0 {
            (client_s - server_s) / client_s
        } else {
            0.0
        },
    );
    report.info("slow_log_joined", Value::Num(joined as f64));
    report.info(
        "slow_log_entries",
        Value::Num(p.slow_log.as_arr().map_or(0, <[Value]>::len) as f64),
    );
    report.info("cache_lookups", Value::Num(lookups));
}
