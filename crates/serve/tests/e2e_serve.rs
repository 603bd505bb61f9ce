//! End-to-end serving tests: a real server on an ephemeral port, real TCP
//! clients, eval → repair → eval-on-the-new-version, concurrency, abuse,
//! and graceful drain.
//!
//! The central claim is **serving adds nothing numerically**: every value
//! that crosses the wire is bit-identical to the equivalent direct library
//! call.

use prdnn_core::{repair_points, OutputPolytope, PointSpec, RepairConfig};
use prdnn_datasets::registry;
use prdnn_serve::client::Client;
use prdnn_serve::protocol::{
    read_frame, write_frame, ErrorKind, JobState, ModelRef, Request, Response,
};
use prdnn_serve::server::{serve, ServerConfig, ServerHandle};
use std::net::TcpStream;
use std::time::Duration;

fn start_server() -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("ephemeral bind")
}

fn equation_2_spec() -> PointSpec {
    let mut spec = PointSpec::new();
    spec.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.8));
    spec.push(vec![1.5], OutputPolytope::scalar_interval(-0.2, 0.0));
    spec
}

#[test]
fn eval_repair_eval_on_new_version() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(client.load_generator("n1", "n1").unwrap(), 1);

    // Eval v1: bit-identical to the direct forward pass.
    let n1 = registry::build_model("n1").unwrap();
    let xs: Vec<Vec<f64>> = vec![vec![-0.75], vec![0.25], vec![0.5], vec![1.5], vec![1.9]];
    let served = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&served) {
        assert_eq!(y, &n1.forward(x), "serving changed an output at {x:?}");
    }

    // The spec is violated by v1 (that is the point of the repair).
    let spec = equation_2_spec();
    assert!(!spec.is_satisfied_by(|x| n1.forward(x), 1e-6));

    // Repair through the job queue.
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            spec.clone(),
            RepairConfig::default(),
        )
        .unwrap();
    let state = client.wait_for_job(job, Duration::from_secs(60)).unwrap();
    let JobState::Done {
        model,
        version,
        delta_l1,
        delta_linf,
        ..
    } = state
    else {
        panic!("repair failed: {state:?}")
    };
    assert_eq!((model.as_str(), version), ("n1", 2));
    assert!(delta_l1 > 0.0 && delta_linf > 0.0);

    // The published version satisfies the spec over the wire…
    let repaired_served = client
        .eval(&ModelRef::version("n1", 2), spec.points.clone(), None)
        .unwrap();
    for (y, c) in repaired_served.iter().zip(&spec.constraints) {
        assert!(
            c.contains(y, 1e-6),
            "served repair violates the spec: {y:?}"
        );
    }
    // …and is bit-identical to the direct library repair.
    let direct = repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap();
    for (x, y) in spec.points.iter().zip(&repaired_served) {
        assert_eq!(
            y,
            &direct.repaired.forward(x),
            "wire repair differs at {x:?}"
        );
    }
    assert!((delta_l1 - direct.stats.delta_l1).abs() < 1e-12);

    // name@latest now resolves to v2; the pinned v1 is untouched.
    let latest = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&latest) {
        assert_eq!(y, &direct.repaired.forward(x));
    }
    let pinned = client
        .eval(&ModelRef::version("n1", 1), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&pinned) {
        assert_eq!(y, &n1.forward(x));
    }

    // Provenance is recorded on the published version.
    let versions = client.list_versions("n1").unwrap();
    assert_eq!(versions.len(), 2);
    assert_eq!(versions[0].spec_hash, None);
    assert_eq!(
        versions[1].spec_hash.as_deref(),
        Some(format!("0x{:016x}", spec.content_hash()).as_str())
    );
    assert_eq!(versions[1].layer, Some(0));
    assert_eq!(versions[1].source, "repair of n1@v1");
    assert_eq!(client.list_models().unwrap(), vec![("n1".to_owned(), 2)]);

    // Linear regions of the repaired model: value repairs never move them
    // (Theorem 4.6), so v1 and v2 agree region for region.
    let segment = vec![vec![-1.0], vec![2.0]];
    let r1 = client
        .lin_regions(&ModelRef::version("n1", 1), vec![segment.clone()], None)
        .unwrap();
    let r2 = client
        .lin_regions(&ModelRef::version("n1", 2), vec![segment], None)
        .unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r1[0].len(), 3, "N1 has three regions on [-1, 2]");

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_clients_get_batched_bit_identical_evals() {
    let handle = start_server();
    let generator = "mlp:31:4x12x3";
    let net = registry::build_model(generator).unwrap();
    Client::connect(handle.addr())
        .unwrap()
        .load_generator("m", generator)
        .unwrap();

    let clients = 8;
    let per_client = 6;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = handle.addr();
            let net = net.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let inputs: Vec<Vec<f64>> = (0..per_client)
                    .map(|k| {
                        (0..4)
                            .map(|i| ((c * per_client + k) * 4 + i) as f64 * 0.1 - 1.0)
                            .collect()
                    })
                    .collect();
                let outputs = client
                    .eval(&ModelRef::latest("m"), inputs.clone(), Some(30_000))
                    .unwrap();
                for (x, y) in inputs.iter().zip(&outputs) {
                    assert_eq!(y, &net.forward(x), "client {c} diverged at {x:?}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Counter consistency: every request and every point went through the
    // batcher, and the batch count never exceeds the request count (it is
    // lower whenever coalescing merged concurrent requests).
    let mut client = Client::connect(handle.addr()).unwrap();
    let scrape = client.scrape().unwrap();
    let eval_requests = scrape.counter("prdnn_eval_requests_total");
    let eval_batches = scrape.counter("prdnn_eval_batches_total");
    assert_eq!(eval_requests, clients as u64);
    assert_eq!(
        scrape.counter("prdnn_eval_points_total"),
        (clients * per_client) as u64
    );
    assert!(eval_batches >= 1 && eval_batches <= eval_requests);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn result_cache_hits_are_bit_identical_and_repairs_never_serve_stale() {
    // Default config: the result cache is on.  Repeated evals must be
    // answered bit-identically from the cache, and publishing a repaired
    // version must never let `@latest` hit the parent's entries.
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    let n1 = registry::build_model("n1").unwrap();
    let xs: Vec<Vec<f64>> = vec![vec![-0.5], vec![0.25], vec![1.75]];

    let cold = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    let warm = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    assert_eq!(cold, warm, "a cache hit changed an output");
    for (x, y) in xs.iter().zip(&warm) {
        assert_eq!(y, &n1.forward(x));
    }
    let scrape = client.scrape().unwrap();
    let inserts = scrape.counter("prdnn_cache_inserts_total");
    let hits = scrape.counter("prdnn_cache_hits_total");
    let bytes = scrape.counter("prdnn_cache_bytes");
    assert!(inserts >= 1, "{inserts} inserts");
    assert!(hits >= 1, "second eval should hit: {hits} hits");
    assert!(bytes > 0, "{bytes} cache bytes");

    // Same for lin_regions.
    let segment = vec![vec![-1.0], vec![2.0]];
    let lin_cold = client
        .lin_regions(&ModelRef::latest("n1"), vec![segment.clone()], None)
        .unwrap();
    let lin_warm = client
        .lin_regions(&ModelRef::latest("n1"), vec![segment.clone()], None)
        .unwrap();
    assert_eq!(lin_cold, lin_warm);

    // Publish a repair; @latest now resolves to v2, whose outputs differ
    // from v1's on the repaired region — a stale hit would serve v1's.
    let spec = equation_2_spec();
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            spec.clone(),
            RepairConfig::default(),
        )
        .unwrap();
    let state = client.wait_for_job(job, Duration::from_secs(60)).unwrap();
    assert!(
        matches!(state, JobState::Done { version: 2, .. }),
        "{state:?}"
    );

    let direct = repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap();
    let after = client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    for (x, y) in xs.iter().zip(&after) {
        assert_eq!(
            y,
            &direct.repaired.forward(x),
            "eval after repair must come from v2, not v1's cache entry"
        );
    }
    // Value-only repairs share the parent's lin_regions entries (Theorem
    // 4.6): the v2 request is a hit, and bit-identical to v1's regions.
    let hits_before_lin = client.scrape().unwrap().counter("prdnn_cache_hits_total");
    let lin_v2 = client
        .lin_regions(&ModelRef::latest("n1"), vec![segment], None)
        .unwrap();
    assert_eq!(lin_v2, lin_cold);
    let hits = client.scrape().unwrap().counter("prdnn_cache_hits_total");
    assert_eq!(hits, hits_before_lin + 1);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn metrics_endpoint_renders_well_formed_prometheus_text() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    let xs = vec![vec![0.5], vec![1.5]];
    client
        .eval(&ModelRef::latest("n1"), xs.clone(), None)
        .unwrap();
    client.eval(&ModelRef::latest("n1"), xs, None).unwrap();

    // Two scrapes, both linted by the one parser: every line is a HELP
    // comment, a TYPE comment, or a `prdnn_<name>[{labels}] <float>`
    // sample; every sample family has HELP and TYPE; counters carry the
    // `_total` suffix, gauges are bare, histograms contribute
    // `_bucket`/`_sum`/`_count` series.
    let first = client.scrape().unwrap();
    let scrape = client.scrape().unwrap();
    // Counters that cannot move between the two reads agree, and count
    // exactly the two evals.
    for name in [
        "prdnn_eval_requests_total",
        "prdnn_eval_points_total",
        "prdnn_cache_hits_total",
        "prdnn_cache_misses_total",
    ] {
        assert_eq!(scrape.counter(name), first.counter(name), "{name} moved");
    }
    assert_eq!(scrape.counter("prdnn_eval_requests_total"), 2);
    assert!(
        scrape.counter("prdnn_cache_hits_total") >= 1,
        "warm eval should hit"
    );
    assert!(scrape.get("prdnn_lp_pivots_total").is_some());
    assert!(scrape.get("prdnn_deadline_expired_total").is_some());
    assert!(scrape.get("prdnn_lin_rescue_calls_total").is_some());
    // Point-in-time values export as bare-named gauges.
    let kinds: std::collections::BTreeMap<_, _> = scrape.families().collect();
    for gauge in [
        "prdnn_open_connections",
        "prdnn_cache_bytes",
        "prdnn_cache_entries",
        "prdnn_repair_queue_depth",
        "prdnn_repair_in_flight",
    ] {
        assert_eq!(kinds[gauge], "gauge", "{gauge}");
    }
    assert_eq!(scrape.counter("prdnn_open_connections"), 1);
    // Histogram families: at least the six stage boundaries.  The parse
    // has already required each to export a series whose `+Inf` bucket
    // equals its `_count`, next to a `_sum`.
    let histograms: Vec<_> = kinds
        .iter()
        .filter(|(_, kind)| **kind == "histogram")
        .map(|(name, _)| *name)
        .collect();
    assert!(histograms.len() >= 6, "only {histograms:?}");
    // The e2e histogram count matches the request counter exactly: both
    // tick once per accepted eval.
    assert_eq!(
        scrape.histogram_count("prdnn_request_seconds", "kind=\"eval\""),
        scrape.counter("prdnn_eval_requests_total")
    );
    // Process info: a version-labeled constant and an uptime gauge.
    assert!(scrape.build_version().is_some(), "missing build info");
    assert!(scrape.value("prdnn_uptime_seconds") >= 0.0);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

/// `(name, TYPE)` of every family the `metrics` endpoint exports, sorted
/// by name: the 38 counters and gauges, the histogram families, build
/// info and uptime.  `perfbench` and `servebench` read these names, so a
/// rename must fail here.
const PINNED_FAMILIES: [(&str, &str); 48] = [
    ("prdnn_batch_exec_seconds", "histogram"),
    ("prdnn_batch_queue_wait_seconds", "histogram"),
    ("prdnn_batch_shed_total", "counter"),
    ("prdnn_build_info", "gauge"),
    ("prdnn_cache_bytes", "gauge"),
    ("prdnn_cache_entries", "gauge"),
    ("prdnn_cache_evictions_total", "counter"),
    ("prdnn_cache_fill_skips_total", "counter"),
    ("prdnn_cache_hits_total", "counter"),
    ("prdnn_cache_inserts_total", "counter"),
    ("prdnn_cache_misses_total", "counter"),
    ("prdnn_cache_service_seconds", "histogram"),
    ("prdnn_conns_opened_total", "counter"),
    ("prdnn_conns_rejected_total", "counter"),
    ("prdnn_deadline_expired_total", "counter"),
    ("prdnn_eval_batches_total", "counter"),
    ("prdnn_eval_points_total", "counter"),
    ("prdnn_eval_requests_total", "counter"),
    ("prdnn_gulp_items_total", "counter"),
    ("prdnn_gulp_size", "histogram"),
    ("prdnn_gulps_total", "counter"),
    ("prdnn_io_timeouts_total", "counter"),
    ("prdnn_job_queue_wait_seconds", "histogram"),
    ("prdnn_jobs_completed_total", "counter"),
    ("prdnn_jobs_failed_total", "counter"),
    ("prdnn_jobs_shed_total", "counter"),
    ("prdnn_jobs_submitted_total", "counter"),
    ("prdnn_lin_batches_total", "counter"),
    ("prdnn_lin_polytopes_total", "counter"),
    ("prdnn_lin_requests_total", "counter"),
    ("prdnn_lin_rescue_calls_total", "counter"),
    ("prdnn_lp_pivots_total", "counter"),
    ("prdnn_lp_refactorizations_total", "counter"),
    ("prdnn_lp_solve_seconds", "histogram"),
    ("prdnn_max_gulp_total", "counter"),
    ("prdnn_open_connections", "gauge"),
    ("prdnn_recovered_versions_total", "counter"),
    ("prdnn_recovered_wal_records_total", "counter"),
    ("prdnn_repair_in_flight", "gauge"),
    ("prdnn_repair_queue_depth", "gauge"),
    ("prdnn_request_seconds", "histogram"),
    ("prdnn_snapshots_total", "counter"),
    ("prdnn_torn_tail_bytes_total", "counter"),
    ("prdnn_uptime_seconds", "gauge"),
    ("prdnn_wal_appends_total", "counter"),
    ("prdnn_wal_bytes_total", "counter"),
    ("prdnn_wal_failed_appends_total", "counter"),
    ("prdnn_wal_fsync_seconds", "histogram"),
];

#[test]
fn metric_names_and_types_are_pinned() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // The parse itself requires HELP and TYPE on every sample family and
    // the `_total` suffix on every counter.
    let scrape = client.scrape().unwrap();
    let families: Vec<_> = scrape.families().collect();
    assert_eq!(families, PINNED_FAMILIES);
    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_queued_repairs_before_exiting() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    let spec = equation_2_spec();
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            spec.clone(),
            RepairConfig::default(),
        )
        .unwrap();
    // Trigger shutdown immediately: the accepted job must still run and
    // publish during the drain.
    client.shutdown_server().unwrap();
    let store = handle.store();
    handle.join().unwrap();

    let v2 = store
        .resolve(&ModelRef::version("n1", 2))
        .expect("queued repair must publish during drain");
    assert!(spec.is_satisfied_by(|x| v2.ddnn.forward(x), 1e-6));
    assert_eq!(
        v2.provenance.as_ref().unwrap().spec_hash,
        spec.content_hash()
    );
    let _ = job;
}

#[test]
fn typed_errors_and_protocol_abuse_over_real_sockets() {
    // Default config: the connection cap (tested separately) stays out of
    // the way of the framing checks.
    let handle = start_server();

    // Unknown models and versions are typed errors.
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client
        .eval(&ModelRef::latest("ghost"), vec![vec![0.0]], None)
        .unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::UnknownModel));
    client.load_generator("n1", "n1").unwrap();
    let err = client
        .eval(&ModelRef::version("n1", 9), vec![vec![0.0]], None)
        .unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::UnknownVersion));
    // Dimension mismatches are rejected before they reach the batcher.
    let err = client
        .eval(&ModelRef::latest("n1"), vec![vec![0.0, 1.0]], None)
        .unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest));
    let err = client.load_generator("n1", "n1").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest), "duplicate load");
    let err = client.load_generator("x", "warp-drive").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest), "bad generator");
    // '@' is reserved for version references; such a name could never be
    // resolved again, so the load is rejected up front.
    let err = client.load_generator("m@v2", "n1").unwrap_err();
    assert_eq!(err.kind(), Some(ErrorKind::BadRequest), "name with '@'");

    // An oversized frame header is rejected and the connection closed.
    let mut abuser = TcpStream::connect(handle.addr()).unwrap();
    use std::io::Write as _;
    abuser.write_all(&u32::MAX.to_be_bytes()).unwrap();
    abuser.write_all(b"junk").unwrap();
    match read_frame(&mut abuser) {
        Ok(value) => {
            let response = Response::from_value(&value).unwrap();
            assert!(
                matches!(
                    response,
                    Response::Error {
                        kind: ErrorKind::BadRequest,
                        ..
                    }
                ),
                "{response:?}"
            );
        }
        Err(e) => panic!("expected an error response frame, got {e}"),
    }
    drop(abuser);

    // Garbage JSON gets a bad_request error frame.
    let mut garbler = TcpStream::connect(handle.addr()).unwrap();
    let body = b"this is not json";
    garbler
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    garbler.write_all(body).unwrap();
    let value = read_frame(&mut garbler).expect("error frame");
    assert!(matches!(
        Response::from_value(&value).unwrap(),
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        }
    ));
    drop(garbler);

    // The retired `stats` request is now an unknown type: a typed
    // bad_request, and the connection stays usable.
    let mut legacy = TcpStream::connect(handle.addr()).unwrap();
    let body = br#"{"type":"stats"}"#;
    legacy
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    legacy.write_all(body).unwrap();
    let value = read_frame(&mut legacy).expect("error frame");
    assert!(matches!(
        Response::from_value(&value).unwrap(),
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        }
    ));
    write_frame(&mut legacy, &Request::Ping.to_value()).unwrap();
    let value = read_frame(&mut legacy).expect("pong frame");
    assert_eq!(Response::from_value(&value), Ok(Response::Pong));
    drop(legacy);

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn connection_cap_admission_control() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_connections: 2,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");

    // Admission control: with both slots held, a further connection is
    // answered with `overloaded` and closed.  (Earlier connections may
    // still be releasing their slots, which only raises the count; a
    // rejected connection is never counted.)
    let held1 = Client::connect(handle.addr()).unwrap();
    let held2 = Client::connect(handle.addr()).unwrap();
    let overloaded = (0..100).find_map(|_| {
        let mut extra = TcpStream::connect(handle.addr()).ok()?;
        extra
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        match read_frame(&mut extra) {
            Ok(value) => match Response::from_value(&value).ok()? {
                Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                } => Some(true),
                _ => None,
            },
            // A free slot means the server is waiting for our request;
            // the read times out — try again.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                None
            }
        }
    });
    assert_eq!(
        overloaded,
        Some(true),
        "connection beyond the cap should see `overloaded`"
    );
    drop(held1);
    drop(held2);

    // A raw shutdown request still gets its acknowledgement once a slot
    // frees up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut closer = TcpStream::connect(handle.addr()).unwrap();
        closer
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        if write_frame(&mut closer, &Request::Shutdown.to_value()).is_err() {
            continue;
        }
        match read_frame(&mut closer) {
            Ok(value) if Response::from_value(&value) == Ok(Response::ShuttingDown) => break,
            _ if std::time::Instant::now() > deadline => {
                panic!("shutdown request never acknowledged")
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    handle.join().unwrap();
}
