//! Wire-level chaos tests: a real server behind a fault-injecting TCP
//! proxy ([`prdnn_serve::chaos::ChaosProxy`]), driven by the resilient
//! client ([`prdnn_serve::RetryingClient`]).
//!
//! The contract under chaos:
//!
//! * the server never crashes and never leaks a connection slot;
//! * every request that survives is answered **bit-identical** to the
//!   fault-free run;
//! * every failure a client observes is typed (`overloaded` with a
//!   `retry_after_ms` hint, `unavailable`, `deadline_exceeded`) or a
//!   client-side transport error — never a hang;
//! * storage faults fail publishes typed and acked versions recover
//!   bit-identical across a restart.

use prdnn_core::{OutputPolytope, PointSpec, RepairConfig};
use prdnn_datasets::registry;
use prdnn_serve::chaos::{ChaosConfig, ChaosProxy};
use prdnn_serve::client::{Client, ClientError};
use prdnn_serve::protocol::{
    embed_request_id, read_frame, request_id_of, ErrorKind, JobState, ModelRef, Request, Response,
};
use prdnn_serve::retry::{RetryPolicy, RetryingClient};
use prdnn_serve::server::{serve, ServerConfig, ServerHandle};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("prdnn-chaos-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        jitter_per_mille: 200,
        seed,
    }
}

#[test]
fn server_survives_aggressive_wire_chaos_and_stays_bit_identical() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_connections: 8,
        // Reap connections the proxy stalled (dropped chunks) quickly so
        // their cap slots free within the test's lifetime.
        io_timeout_ms: 2_000,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");

    // Setup over a clean connection: chaos tests the serving path, not the
    // fixture.
    let generator = "mlp:31:4x12x3";
    let net = registry::build_model(generator).unwrap();
    Client::connect(handle.addr())
        .unwrap()
        .load_generator("m", generator)
        .unwrap();

    // Aggressive chaos on every chunk class the proxy knows.
    let mut proxy = ChaosProxy::start(
        handle.addr(),
        ChaosConfig {
            seed: 11,
            sever_per_mille: 40,
            truncate_per_mille: 30,
            corrupt_per_mille: 60,
            drop_per_mille: 40,
            delay_per_mille: 200,
            max_delay_ms: 20,
        },
    )
    .unwrap();

    let mut client = RetryingClient::new(proxy.addr(), retry_policy(3), Duration::from_secs(1));
    let requests = 40;
    let mut successes = 0usize;
    for k in 0..requests {
        let inputs: Vec<Vec<f64>> = vec![(0..4).map(|i| (k * 4 + i) as f64 * 0.1 - 1.0).collect()];
        match client.eval(
            &ModelRef::latest("m"),
            &inputs,
            Some(5_000),
            Duration::from_secs(10),
        ) {
            Ok(outputs) => {
                successes += 1;
                // The survivor is bit-identical to the direct library call:
                // chaos may kill a request but never bend its answer.
                assert_eq!(outputs.len(), 1);
                assert_eq!(
                    outputs[0],
                    net.forward(&inputs[0]),
                    "chaos bent an answer at request {k}"
                );
            }
            // A failed request must be a typed rejection or a transport
            // error — ClientError is exactly that partition, and arriving
            // here at all means it did not hang.
            Err(ClientError::Server { kind, .. }) => {
                assert!(
                    matches!(
                        kind,
                        ErrorKind::Overloaded
                            | ErrorKind::Unavailable
                            | ErrorKind::DeadlineExceeded
                            | ErrorKind::BadRequest
                    ),
                    "unexpected server error kind {kind:?} at request {k}"
                );
            }
            Err(_) => {}
        }
    }
    let stats = client.stats;
    assert!(
        successes * 2 >= requests,
        "availability collapsed: {successes}/{requests} (retry stats {stats:?})"
    );
    assert!(
        proxy.counters().total_faults() > 0,
        "the chaos config never fired: {:?}",
        proxy.counters()
    );
    assert!(
        stats.retries > 0,
        "chaos heavy enough to fault must force retries: {stats:?}"
    );

    proxy.shutdown();
    drop(client);

    // No leaked connection slots: once the proxied connections die, the
    // full cap of 8 is available again to clean clients simultaneously.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut held: Vec<Client> = loop {
        let mut attempt = Vec::new();
        for _ in 0..8 {
            let mut c = Client::connect(handle.addr()).unwrap();
            if c.ping().is_ok() {
                attempt.push(c);
            } else {
                break;
            }
        }
        if attempt.len() == 8 {
            break attempt;
        }
        // A chaos-era connection still holds its slot; the io_timeout
        // reaps it shortly.
        assert!(
            std::time::Instant::now() < deadline,
            "connection slots leaked under chaos: only {} of 8 usable",
            attempt.len()
        );
        drop(attempt);
        std::thread::sleep(Duration::from_millis(100));
    };

    let mut closer = held.pop().unwrap();
    let scrape = closer.scrape().unwrap();
    assert_eq!(
        scrape.counter("prdnn_open_connections"),
        8,
        "7 held + this client"
    );
    let opened = scrape.counter("prdnn_conns_opened_total");
    assert!(opened > 8, "{opened} connections opened");
    closer.shutdown_server().unwrap();
    drop(held);
    handle.join().unwrap();
}

#[test]
fn slowloris_connections_are_reaped_and_free_their_slots() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_connections: 2,
        io_timeout_ms: 300,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");

    // A classic slowloris: write half a frame header and stall.
    let mut slow = TcpStream::connect(handle.addr()).unwrap();
    slow.write_all(&[0u8, 0]).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server reaps us with a typed parting frame, then closes.
    let value = read_frame(&mut slow).expect("typed reap frame");
    match Response::from_value(&value).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    drop(slow);

    // The reaped connection released its slot: the full cap is usable.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (mut a, _b) = loop {
        let mut a = Client::connect(handle.addr()).unwrap();
        let mut b = Client::connect(handle.addr()).unwrap();
        if a.ping().is_ok() && b.ping().is_ok() {
            break (a, b);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slowloris leaked a connection slot"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let io_timeouts = a.scrape().unwrap().counter("prdnn_io_timeouts_total");
    assert!(io_timeouts >= 1, "reap not counted: {io_timeouts}");

    a.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn overload_rejections_carry_a_retry_after_hint() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");

    let mut held = Client::connect(handle.addr()).unwrap();
    held.ping().unwrap();

    // Beyond the cap: a typed `overloaded` with an explicit backoff hint.
    let hinted = (0..100).find_map(|_| {
        let mut extra = TcpStream::connect(handle.addr()).ok()?;
        extra
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        match read_frame(&mut extra)
            .ok()
            .map(|v| Response::from_value(&v))
        {
            Some(Ok(Response::Error {
                kind: ErrorKind::Overloaded,
                retry_after_ms,
                ..
            })) => Some(retry_after_ms),
            _ => {
                std::thread::sleep(Duration::from_millis(5));
                None
            }
        }
    });
    let retry_after = hinted.expect("cap rejection never observed");
    assert!(
        retry_after.is_some_and(|ms| ms > 0),
        "overloaded rejection must carry retry_after_ms, got {retry_after:?}"
    );
    let rejected = held.scrape().unwrap().counter("prdnn_conns_rejected_total");
    assert!(rejected >= 1, "{rejected} connections rejected");

    held.shutdown_server().unwrap();
    handle.join().unwrap();
}

fn equation_2_spec() -> PointSpec {
    let mut spec = PointSpec::new();
    spec.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.8));
    spec.push(vec![1.5], OutputPolytope::scalar_interval(-0.2, 0.0));
    spec
}

fn durable_server(dir: &Path, wal_fault_spec: Option<String>) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: Some(dir.to_owned()),
        snapshot_every: 4,
        wal_fault_spec,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind")
}

#[test]
fn storage_faults_surface_unavailable_and_acked_versions_restart_exact() {
    let tmp = TempDir::new("walfault");

    // enospc@1: the very first publish (the load) fails — the client must
    // see a typed `unavailable`, and the immediate retry must succeed.
    {
        let handle = durable_server(tmp.path(), Some("seed=9,enospc@1".into()));
        let mut client = Client::connect(handle.addr()).unwrap();
        let err = client.load_generator("n1", "n1").unwrap_err();
        assert_eq!(err.kind(), Some(ErrorKind::Unavailable), "{err}");
        assert_eq!(client.load_generator("n1", "n1").unwrap(), 1);
        let scrape = client.scrape().unwrap();
        assert_eq!(scrape.counter("prdnn_wal_failed_appends_total"), 1);
        client.shutdown_server().unwrap();
        handle.join().unwrap();
    }

    // enospc@2 from a fresh op counter (recovery replay consumes no write
    // ops): the first repair's publish is write op 1 and lands as v2; the
    // second repair's publish is write op 2 and fails — the job reports
    // `failed` with the durability message, never a phantom version; the
    // third repair retries the number and publishes v3.
    let (acked, expected_network) = {
        let handle = durable_server(tmp.path(), Some("seed=9,enospc@2".into()));
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(client.list_models().unwrap(), vec![("n1".into(), 1)]);

        let run_repair = |client: &mut Client| {
            let job = client
                .repair(
                    &ModelRef::latest("n1"),
                    0,
                    equation_2_spec(),
                    RepairConfig::default(),
                )
                .unwrap();
            client.wait_for_job(job, Duration::from_secs(60)).unwrap()
        };

        let state = run_repair(&mut client);
        assert!(
            matches!(state, JobState::Done { version: 2, .. }),
            "write op 1 is clean: {state:?}"
        );

        let state = run_repair(&mut client);
        let JobState::Failed { message } = state else {
            panic!("publish under enospc must fail the job, got {state:?}")
        };
        assert!(message.contains("publish not durable"), "{message}");
        assert_eq!(client.list_models().unwrap(), vec![("n1".into(), 2)]);

        let state = run_repair(&mut client);
        let JobState::Done { version, .. } = state else {
            panic!("retried repair must publish, got {state:?}")
        };
        assert_eq!(version, 3, "the failed publish's number is reused");
        let scrape = client.scrape().unwrap();
        assert_eq!(scrape.counter("prdnn_wal_failed_appends_total"), 1);

        let acked = client.list_models().unwrap();
        let network = client.get_network(&ModelRef::version("n1", 3)).unwrap();
        client.shutdown_server().unwrap();
        handle.join().unwrap();
        (acked, network)
    };

    // Fault-free restart: exactly the acked versions, bit-identical.
    let handle = durable_server(tmp.path(), None);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.list_models().unwrap(), acked);
    let recovered = client.get_network(&ModelRef::version("n1", 3)).unwrap();
    assert_eq!(
        recovered, expected_network,
        "acked version not bit-identical after restart"
    );
    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn chaos_delayed_request_surfaces_in_trace_with_its_full_span_chain() {
    // A request deliberately slowed on the wire (a delaying chaos proxy
    // plus a mid-frame stall) must cross --slow-ms and surface in `trace`
    // with its complete span chain under the client-chosen request_id.
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        slow_ms: 50,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    Client::connect(handle.addr())
        .unwrap()
        .load_generator("n1", "n1")
        .unwrap();

    // Delay regime: every chunk through the proxy sleeps before it is
    // forwarded (no loss, no corruption — this test is about latency).
    let mut proxy = ChaosProxy::start(
        handle.addr(),
        ChaosConfig {
            seed: 0xD3_1A7,
            delay_per_mille: 1000,
            max_delay_ms: 20,
            ..ChaosConfig::default()
        },
    )
    .expect("proxy start");

    // Hand-rolled frame so the stall lands *mid-frame*: the server's
    // request clock starts at the first header byte, so the sleep between
    // the two halves is charged to server-side residence.
    let mut request = Request::Eval {
        model: ModelRef::latest("n1"),
        inputs: vec![vec![0.5]],
        deadline_ms: None,
    }
    .to_value();
    embed_request_id(&mut request, 4242);
    let body = request.to_json().into_bytes();
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);
    let mut stream = TcpStream::connect(proxy.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let split = frame.len() / 2;
    stream.write_all(&frame[..split]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(120));
    stream.write_all(&frame[split..]).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).expect("slowed eval still answered");
    // The response echoes the client-chosen correlation id.
    assert_eq!(request_id_of(&reply), Some(4242));
    assert_eq!(reply.get("type").and_then(|v| v.as_str()), Some("outputs"));
    drop(stream);
    proxy.shutdown();

    // The slow-log (read over a clean connection) retains the request's
    // whole chain: the e2e request span plus the batcher stages it
    // crossed, each with a sane duration.
    let mut client = Client::connect(handle.addr()).unwrap();
    let slow = client.trace().unwrap();
    let traces = slow.as_arr().expect("trace returns an array");
    let entry = traces
        .iter()
        .find(|t| t.get("request_id").and_then(|v| v.as_f64()) == Some(4242.0))
        .unwrap_or_else(|| panic!("request 4242 missing from trace: {}", slow.to_json()));
    assert_eq!(entry.get("kind").and_then(|v| v.as_str()), Some("eval"));
    let total_ms = entry.get("total_ms").and_then(|v| v.as_f64()).unwrap();
    assert!(
        total_ms >= 100.0,
        "stall not charged to the server: {total_ms}ms"
    );
    let spans = entry.get("spans").and_then(|v| v.as_arr()).unwrap();
    let stages: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("stage").and_then(|v| v.as_str()))
        .collect();
    for want in ["request", "batch_queue", "batch_exec"] {
        assert!(
            stages.contains(&want),
            "span chain {stages:?} missing {want}"
        );
    }
    for span in spans {
        let dur = span.get("duration_ms").and_then(|v| v.as_f64()).unwrap();
        assert!((0.0..60_000.0).contains(&dur), "absurd span duration {dur}");
        assert!(span.get("outcome").and_then(|v| v.as_str()).is_some());
    }

    // The client helpers cover the same correlation plumbing.
    client.set_next_request_id(777);
    client.ping().unwrap();
    assert_eq!(client.last_request_id(), Some(777));
    client.ping().unwrap();
    let assigned = client.last_request_id().expect("server assigns an id");
    assert_ne!(assigned, 777, "one-shot id leaked into the next request");

    client.shutdown_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn slow_ms_zero_disables_tracing_but_keeps_histograms() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        slow_ms: 0,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load_generator("n1", "n1").unwrap();
    client
        .eval(&ModelRef::latest("n1"), vec![vec![0.5]], None)
        .unwrap();
    // Tracing off: nothing is ever promoted, however slow.
    let slow = client.trace().unwrap();
    assert_eq!(
        slow.as_arr().map(|a| a.len()),
        Some(0),
        "{}",
        slow.to_json()
    );
    // Histograms stay on: the eval recorded into its e2e family.
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("prdnn_request_seconds_count{kind=\"eval\"} 1"),
        "histograms must record with tracing disabled"
    );
    client.shutdown_server().unwrap();
    handle.join().unwrap();
}
