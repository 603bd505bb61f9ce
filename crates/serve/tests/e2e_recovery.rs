//! Crash-recovery end-to-end tests: the durability contract is that an
//! **acknowledged** publish survives anything up to and including
//! `SIGKILL`.  The headline test runs the real `prdnn-serve` binary with
//! `--store-dir`, drives a repair burst over TCP, kills the process with
//! no warning mid-burst, restarts it on the same directory, and checks
//! that every version acknowledged before the kill resolves with
//! **bit-identical** weights and provenance.  A second, in-process test
//! exercises the graceful path across a snapshot boundary so recovery
//! replays snapshot *and* WAL tail.

use prdnn_core::{OutputPolytope, PointSpec, RepairConfig};
use prdnn_serve::client::Client;
use prdnn_serve::protocol::{JobState, ModelRef, Response, VersionInfo};
use prdnn_serve::server::{serve, ServerConfig};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Self-cleaning scratch directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "prdnn-e2e-recovery-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned `prdnn-serve` child that is SIGKILLed on drop, so a failing
/// assertion never leaks a listener.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts the real binary on an ephemeral port with a durable store,
    /// and parses the bound address from its stderr.
    fn start(store_dir: &std::path::Path, snapshot_every: u64) -> Server {
        Server::start_with_args(store_dir, snapshot_every, &[])
    }

    /// Like [`Server::start`] with extra flags appended — e.g.
    /// `--fault-wal` for the crash test over faulty storage.
    fn start_with_args(store_dir: &std::path::Path, snapshot_every: u64, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_prdnn-serve"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store-dir")
            .arg(store_dir)
            .arg("--snapshot-every")
            .arg(snapshot_every.to_string())
            .arg("--preload")
            .arg("n1=n1")
            .args(extra)
            .stderr(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn prdnn-serve");
        let stderr = child.stderr.take().unwrap();
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.expect("read child stderr");
            if let Some(rest) = line.strip_prefix("prdnn-serve: listening on ") {
                addr = Some(rest.trim().to_owned());
                break;
            }
        }
        let addr = addr.expect("child exited before reporting its address");
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }

    fn connect(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(&self.addr) {
                Ok(client) => return client,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("could not connect to {}: {e}", self.addr),
            }
        }
    }

    /// SIGKILL — no drain, no flush, no goodbye.
    fn kill(mut self) {
        self.child.kill().expect("kill child");
        self.child.wait().expect("reap child");
        // Consume without running Drop's second kill.
        std::mem::forget(self);
    }

    /// Graceful stop via the protocol; waits for the process to exit.
    fn shutdown(mut self, client: &mut Client) {
        client.shutdown_server().expect("shutdown request");
        let status = self.child.wait().expect("reap child");
        assert!(status.success(), "server exited with {status:?}");
        std::mem::forget(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Two alternating point specs so every repair in the burst has real work
/// to do (each undoes the other's constraint).
fn burst_spec(i: usize) -> PointSpec {
    let mut spec = PointSpec::new();
    if i.is_multiple_of(2) {
        spec.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.8));
        spec.push(vec![1.5], OutputPolytope::scalar_interval(-0.2, 0.0));
    } else {
        spec.push(vec![0.5], OutputPolytope::scalar_interval(0.1, 0.3));
        spec.push(vec![1.5], OutputPolytope::scalar_interval(0.4, 0.6));
    }
    spec
}

/// Everything the client observed at ack time for one version; after the
/// kill + restart, the same queries must produce identical answers.
struct Acked {
    version: u32,
    network: Response,
    info: VersionInfo,
}

/// The binary reports its address before `--preload` runs; wait until the
/// model is actually in the store.
fn wait_for_preload(client: &mut Client, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if client.list_models().unwrap().iter().any(|(n, _)| n == name) {
            return;
        }
        assert!(Instant::now() < deadline, "{name} never preloaded");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn record_ack(client: &mut Client, name: &str, version: u32) -> Acked {
    let network = client
        .get_network(&ModelRef::version(name, version))
        .expect("get_network at ack time");
    let info = client
        .list_versions(name)
        .expect("list_versions at ack time")
        .into_iter()
        .find(|v| v.version == version)
        .expect("acked version listed");
    Acked {
        version,
        network,
        info,
    }
}

#[test]
fn sigkill_mid_burst_loses_nothing_acknowledged() {
    let dir = TempDir::new("sigkill");
    let server = Server::start(&dir.0, 3);
    let mut client = server.connect();
    client.ping().unwrap();
    wait_for_preload(&mut client, "n1");

    // v1 is the preload; record it like any other ack.
    let mut acked = vec![record_ack(&mut client, "n1", 1)];

    // Acknowledged burst: repair, wait for `done`, record the full
    // served state of the new version.
    for i in 0..5 {
        let job = client
            .repair(
                &ModelRef::latest("n1"),
                0,
                burst_spec(i),
                RepairConfig::default(),
            )
            .expect("enqueue repair");
        match client.wait_for_job(job, Duration::from_secs(60)).unwrap() {
            JobState::Done { version, .. } => {
                acked.push(record_ack(&mut client, "n1", version));
            }
            other => panic!("repair {i} did not complete: {other:?}"),
        }
    }
    let max_acked = acked.iter().map(|a| a.version).max().unwrap();
    assert!(
        max_acked >= 6,
        "burst published fewer versions than expected"
    );

    // Un-acknowledged tail: enqueue more repairs and SIGKILL while they
    // are (possibly) in flight.  These carry no promise either way.
    for i in 5..8 {
        let _ = client.repair(
            &ModelRef::latest("n1"),
            0,
            burst_spec(i),
            RepairConfig::default(),
        );
    }
    server.kill();

    // Restart on the same directory — the identical command line must
    // work (the preload finds n1 recovered and skips itself).
    let server = Server::start(&dir.0, 3);
    let mut client = server.connect();

    // The model is back, and nothing acknowledged was lost.  (In-flight
    // repairs may or may not have persisted, so `latest` is a floor.)
    let models = client.list_models().unwrap();
    let (_, latest) = models
        .iter()
        .find(|(name, _)| name == "n1")
        .expect("n1 recovered");
    assert!(
        *latest >= max_acked,
        "latest {latest} < last acknowledged version {max_acked}"
    );

    // Every acknowledged version: bit-identical weights and provenance.
    // `Response::Network` carries both channels as shortest-round-trip
    // JSON documents, so `==` here means every `f64` matches bit for bit.
    for ack in &acked {
        let network = client
            .get_network(&ModelRef::version("n1", ack.version))
            .expect("acknowledged version resolves after restart");
        assert_eq!(
            network, ack.network,
            "n1@v{} changed across the crash",
            ack.version
        );
    }
    let versions = client.list_versions("n1").unwrap();
    for ack in &acked {
        let info = versions
            .iter()
            .find(|v| v.version == ack.version)
            .expect("acked version listed after restart");
        assert_eq!(
            info, &ack.info,
            "provenance of n1@v{} changed across the crash",
            ack.version
        );
    }

    server.shutdown(&mut client);
}

#[test]
fn sigkill_over_faulty_storage_still_loses_nothing_acknowledged() {
    let dir = TempDir::new("sigkill-faults");

    // A deterministic fail-on-Nth-op schedule.  The preload is the first
    // WAL append (write op 1 + fsync op 1), so it lands clean; then the
    // burst below sees exactly three injected failures: write op 2
    // (ENOSPC), fsync op 4, and write op 5 (short write).  Note that
    // healing a failed tail consumes one fsync op itself, so fsync op 4
    // is reached on the *second* publish after the ENOSPC.  Snapshots
    // are disabled so the op numbering stays this simple.
    let spec = "seed=42,enospc@2,short@5,fsync@4";
    let server = Server::start_with_args(&dir.0, 0, &["--fault-wal", spec]);
    let mut client = server.connect();
    wait_for_preload(&mut client, "n1");

    let mut acked = vec![record_ack(&mut client, "n1", 1)];
    let mut failures = Vec::new();
    for i in 0..6 {
        let job = client
            .repair(
                &ModelRef::latest("n1"),
                0,
                burst_spec(i),
                RepairConfig::default(),
            )
            .expect("enqueue repair");
        match client.wait_for_job(job, Duration::from_secs(60)).unwrap() {
            JobState::Done { version, .. } => {
                acked.push(record_ack(&mut client, "n1", version));
            }
            JobState::Failed { message } => {
                assert!(
                    message.contains("publish not durable"),
                    "repair {i} failed for a non-storage reason: {message}"
                );
                failures.push(i);
            }
            other => panic!("repair {i} ended in {other:?}"),
        }
    }
    // The schedule is deterministic: attempts 0, 2, 3 hit the injected
    // faults, and the retried version numbers are reused, not burned.
    assert_eq!(failures, vec![0, 2, 3]);
    let versions: Vec<u32> = acked.iter().map(|a| a.version).collect();
    assert_eq!(versions, vec![1, 2, 3, 4]);

    // Un-acknowledged tail in flight, then SIGKILL — the worst case:
    // injected faults *and* a crash with no flush.
    for i in 0..2 {
        let _ = client.repair(
            &ModelRef::latest("n1"),
            0,
            burst_spec(i),
            RepairConfig::default(),
        );
    }
    server.kill();

    // Fault-free restart on the same directory: every acknowledged
    // version is back, bit-identical, and the store is live.
    let server = Server::start(&dir.0, 0);
    let mut client = server.connect();
    let models = client.list_models().unwrap();
    let (_, latest) = models
        .iter()
        .find(|(name, _)| name == "n1")
        .expect("n1 recovered");
    assert!(
        *latest >= 4,
        "latest {latest} < last acknowledged version 4"
    );
    for ack in &acked {
        let network = client
            .get_network(&ModelRef::version("n1", ack.version))
            .expect("acknowledged version resolves after restart");
        assert_eq!(
            network, ack.network,
            "n1@v{} changed across the faulty-storage crash",
            ack.version
        );
        let info = client
            .list_versions("n1")
            .unwrap()
            .into_iter()
            .find(|v| v.version == ack.version)
            .expect("acked version listed after restart");
        assert_eq!(info, ack.info, "provenance of n1@v{} drifted", ack.version);
    }

    // Live, not read-only: one more publish on top of the recovery.
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            burst_spec(1),
            RepairConfig::default(),
        )
        .unwrap();
    match client.wait_for_job(job, Duration::from_secs(60)).unwrap() {
        JobState::Done { version, .. } => assert!(version > *latest),
        other => panic!("post-recovery repair failed: {other:?}"),
    }
    server.shutdown(&mut client);
}

#[test]
fn graceful_restart_replays_snapshot_plus_wal_tail() {
    let dir = TempDir::new("graceful");

    // First life: two models, enough publishes to cross the snapshot
    // threshold so the second life replays snapshot *and* WAL tail.
    let mut acked = Vec::new();
    {
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            store_dir: Some(dir.0.clone()),
            snapshot_every: 2,
            ..ServerConfig::default()
        })
        .expect("bind first life");
        let mut client = Client::connect(handle.addr()).unwrap();
        client.load_generator("n1", "n1").unwrap();
        client.load_generator("mlp", "mlp:7:2x4x2").unwrap();
        for i in 0..3 {
            let job = client
                .repair(
                    &ModelRef::latest("n1"),
                    0,
                    burst_spec(i),
                    RepairConfig::default(),
                )
                .unwrap();
            let state = client.wait_for_job(job, Duration::from_secs(60)).unwrap();
            assert!(matches!(state, JobState::Done { .. }), "repair {i} failed");
        }
        let scrape = client.scrape().unwrap();
        assert_eq!(
            scrape.counter("prdnn_wal_appends_total"),
            5,
            "2 loads + 3 repairs hit the WAL"
        );
        assert!(
            scrape.counter("prdnn_snapshots_total") >= 1,
            "snapshot threshold never crossed"
        );
        assert_eq!(
            scrape.counter("prdnn_recovered_versions_total"),
            0,
            "first life recovered nothing"
        );
        for v in 1..=4u32 {
            acked.push(record_ack(&mut client, "n1", v));
        }
        acked.push(record_ack(&mut client, "mlp", 1));
        client.shutdown_server().unwrap();
        handle.join().expect("drain first life");
    }

    // Second life: recovery happens before the listener accepts anyone.
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: Some(dir.0.clone()),
        snapshot_every: 2,
        ..ServerConfig::default()
    })
    .expect("bind second life");
    let mut client = Client::connect(handle.addr()).unwrap();

    let scrape = client.scrape().unwrap();
    assert_eq!(
        scrape.counter("prdnn_recovered_versions_total"),
        5,
        "4×n1 + 1×mlp recovered"
    );
    assert!(
        scrape.counter("prdnn_recovered_wal_records_total") < 5,
        "a snapshot should have absorbed part of the log"
    );
    assert_eq!(
        scrape.counter("prdnn_torn_tail_bytes_total"),
        0,
        "graceful shutdown leaves no tear"
    );

    let mut models = client.list_models().unwrap();
    models.sort();
    assert_eq!(models, vec![("mlp".to_owned(), 1), ("n1".to_owned(), 4)]);
    for ack in &acked {
        let name = match &ack.network {
            Response::Network { name, .. } => name.clone(),
            other => panic!("recorded non-network response {other:?}"),
        };
        let network = client
            .get_network(&ModelRef::version(&name, ack.version))
            .unwrap();
        assert_eq!(network, ack.network, "{name}@v{} drifted", ack.version);
    }

    // The recovered store is live, not read-only: publish on top of it.
    let job = client
        .repair(
            &ModelRef::latest("n1"),
            0,
            burst_spec(1),
            RepairConfig::default(),
        )
        .unwrap();
    match client.wait_for_job(job, Duration::from_secs(60)).unwrap() {
        JobState::Done { version, .. } => assert_eq!(version, 5),
        other => panic!("post-recovery repair failed: {other:?}"),
    }

    client.shutdown_server().unwrap();
    handle.join().expect("drain second life");
}
