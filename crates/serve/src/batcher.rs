//! The request planner/batcher.
//!
//! Connection threads never run network math.  They submit work items
//! (an `eval` or `lin_regions` payload, the resolved model version, a
//! deadline, and a reply channel) into a bounded queue and block on the
//! reply.  A dedicated batch worker drains the *whole* queue at once,
//! groups the items by model version, and executes **one** batched library
//! call per group on the shared `prdnn-par` pool — ten concurrent clients
//! asking about the same version cost one layer-at-a-time sweep.
//!
//! Coalescing changes nothing numerically: the batched entry points are
//! bit-identical to their serial counterparts (pinned by the PR 3
//! determinism suite), and results are split back per request in
//! submission order.
//!
//! Admission control lives here too: a full queue rejects instead of
//! buffering without bound, items whose deadline expired before their
//! batch ran are answered with `deadline_exceeded` without paying for the
//! forward pass (counted under `deadline_expired`; deadlines are
//! re-checked per group right before it executes, so a late group's
//! members do not pay for a forward pass into a dead reply channel), and
//! shutdown drains the queue before the worker exits.
//!
//! The [`crate::cache::ResultCache`] sits between the drain and the
//! grouping: each drained item is probed first (a hit replies immediately
//! without entering any group), and every computed result fills the cache
//! on the way out — unless the member's deadline expired while the group
//! ran, in which case the fill is skipped and counted.

use crate::cache::{CacheKey, ResultCache};
use crate::protocol::ErrorKind;
use crate::store::ModelVersion;
use crate::telemetry::{Outcome, Stage, Telemetry};
use prdnn_par::PoolRef;
use prdnn_syrenn::LinearRegion;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One batched call's payload.
#[derive(Debug)]
pub enum Call {
    /// Forward-evaluate a batch of points.
    Eval(Vec<Vec<f64>>),
    /// Linear regions of a batch of input polytopes.
    LinRegions(Vec<Vec<Vec<f64>>>),
}

/// A successful reply's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyData {
    /// Outputs, one per submitted input.
    Outputs(Vec<Vec<f64>>),
    /// Regions, one list per submitted polytope.
    Regions(Vec<Vec<LinearRegion>>),
}

/// What a submitter receives back.
pub type Reply = Result<ReplyData, (ErrorKind, String)>;

struct Pending {
    version: Arc<ModelVersion>,
    call: Call,
    deadline: Instant,
    reply: Sender<Reply>,
    /// The item's cache key, computed once at submission on the connection
    /// thread (`None` when the cache is disabled).
    key: Option<CacheKey>,
    /// Correlation id for span tracing (0 = untracked).
    request_id: u64,
    /// When the item entered the queue; queue-wait and service-time
    /// telemetry measure from here.
    enqueued: Instant,
}

struct BatchState {
    queue: Vec<Pending>,
    shutdown: bool,
}

/// Counters exported by the `metrics` endpoint (one `METRICS` row each in
/// `server.rs`).
#[derive(Debug, Default)]
pub struct BatchCounters {
    /// `eval` items accepted.
    pub eval_requests: AtomicU64,
    /// Batched forward calls executed.
    pub eval_batches: AtomicU64,
    /// Points pushed through those calls.
    pub eval_points: AtomicU64,
    /// `lin_regions` items accepted.
    pub lin_requests: AtomicU64,
    /// Batched `lin_regions` calls executed.
    pub lin_batches: AtomicU64,
    /// Polytopes pushed through those calls.
    pub lin_polytopes: AtomicU64,
    /// Queue drains that found at least one item (a "gulp").
    pub gulps: AtomicU64,
    /// Items drained across all gulps (mean gulp size = `gulp_items /
    /// gulps` — how well concurrent load actually coalesces).
    pub gulp_items: AtomicU64,
    /// Largest single gulp observed.
    pub max_gulp: AtomicU64,
    /// Items rejected at submission because the queue was full (load
    /// shedding — each one surfaced a typed `overloaded` to its client).
    pub shed: AtomicU64,
    /// Items answered `deadline_exceeded` without executing, in the
    /// pre-batch sweep or the per-group re-check.
    pub deadline_expired: AtomicU64,
    /// Individual isolation-rescue calls run after a batched `lin_regions`
    /// group failed (each member re-runs alone; these calls are *not*
    /// counted under `lin_batches`/`lin_polytopes`, which track coalesced
    /// work only).
    pub lin_rescue_calls: AtomicU64,
}

/// The coalescing batcher; see the module docs.
pub struct Batcher {
    state: Mutex<BatchState>,
    cv: Condvar,
    cap: usize,
    pool: Arc<PoolRef>,
    cache: Arc<ResultCache>,
    telemetry: Arc<Telemetry>,
    /// Request/batch counters.
    pub counters: BatchCounters,
}

impl Batcher {
    /// Creates a batcher whose queue holds at most `cap` pending items,
    /// probing and filling `cache` around every batched call and recording
    /// queue-wait / execution / gulp-size telemetry into `telemetry`.
    pub fn new(
        pool: Arc<PoolRef>,
        cap: usize,
        cache: Arc<ResultCache>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        Batcher {
            state: Mutex::new(BatchState {
                queue: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
            pool,
            cache,
            telemetry,
            counters: BatchCounters::default(),
        }
    }

    /// Submits one work item, returning the channel the reply will arrive
    /// on.  `request_id` correlates the item's telemetry spans with the
    /// originating request (0 = untracked).
    ///
    /// # Errors
    ///
    /// `(Overloaded, ..)` when the queue is full, `(ShuttingDown, ..)`
    /// once shutdown has begun.
    pub fn submit(
        &self,
        version: Arc<ModelVersion>,
        call: Call,
        deadline: Instant,
        request_id: u64,
    ) -> Result<Receiver<Reply>, (ErrorKind, String)> {
        let (tx, rx) = std::sync::mpsc::channel();
        // Hash the payload on the connection thread, outside the queue
        // lock: submissions hash in parallel, the single batch worker only
        // probes.
        let key = if self.cache.is_enabled() {
            Some(match &call {
                Call::Eval(inputs) => CacheKey::eval(&version, inputs),
                Call::LinRegions(polys) => CacheKey::lin_regions(&version, polys),
            })
        } else {
            None
        };
        {
            // A poisoned queue lock means a submitter panicked mid-push
            // (never observed; pushes are infallible) — the queue contents
            // are suspect, so fail this request typed rather than guess.
            let mut state = self
                .state
                .lock()
                .map_err(|_| (ErrorKind::Internal, "batch queue lock poisoned".to_owned()))?;
            if state.shutdown {
                return Err((
                    ErrorKind::ShuttingDown,
                    "server is draining; no new work accepted".to_owned(),
                ));
            }
            if state.queue.len() >= self.cap {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Err((
                    ErrorKind::Overloaded,
                    format!("batch queue full ({} pending items)", self.cap),
                ));
            }
            match &call {
                Call::Eval(_) => self.counters.eval_requests.fetch_add(1, Ordering::Relaxed),
                Call::LinRegions(_) => self.counters.lin_requests.fetch_add(1, Ordering::Relaxed),
            };
            state.queue.push(Pending {
                version,
                call,
                deadline,
                reply: tx,
                key,
                request_id,
                enqueued: Instant::now(),
            });
        }
        self.cv.notify_one();
        Ok(rx)
    }

    /// The worker loop: drain, execute, repeat; on shutdown, drain whatever
    /// is left, then exit.  Run this on a dedicated thread.
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let (batch, shutdown) = {
                // The worker recovers from poison: draining a suspect queue
                // at worst answers stale items, whereas a dead worker
                // deadlocks every submitter already blocked on a reply.
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                while state.queue.is_empty() && !state.shutdown {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                (std::mem::take(&mut state.queue), state.shutdown)
            };
            let drained_empty = batch.is_empty();
            // The worker must survive a panicking forward pass (e.g. a
            // malformed model that slipped past validation): the batch's
            // reply senders are dropped by the unwind, so affected
            // submitters see a disconnect — and the next batch is served
            // normally instead of the whole eval plane going dark.
            let _ =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_batch(batch)));
            if shutdown && drained_empty {
                return;
            }
        }
    }

    /// Drains and executes the current queue once without blocking
    /// (used by tests to pin coalescing deterministically).  Returns the
    /// number of items processed.
    pub fn drain_once(&self) -> usize {
        let batch = std::mem::take(
            &mut self
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .queue,
        );
        let n = batch.len();
        self.run_batch(batch);
        n
    }

    /// Begins shutdown: rejects new submissions and wakes the worker to
    /// drain the remainder.
    pub fn shutdown(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.cv.notify_all();
    }

    /// Answers one expired item and counts it.
    fn expire(&self, item: &Pending, when: &str) {
        self.counters
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        let _ = item.reply.send(Err((
            ErrorKind::DeadlineExceeded,
            format!("deadline expired before {when}"),
        )));
    }

    /// Groups the drained items by `(version, kind)` in first-seen order
    /// and executes one batched call per group.  Before grouping, each
    /// item's cache key is probed: hits reply immediately and never enter
    /// a group.
    fn run_batch(&self, batch: Vec<Pending>) {
        if !batch.is_empty() {
            let n = batch.len() as u64;
            self.counters.gulps.fetch_add(1, Ordering::Relaxed);
            self.counters.gulp_items.fetch_add(n, Ordering::Relaxed);
            self.counters.max_gulp.fetch_max(n, Ordering::Relaxed);
            self.telemetry.gulp_size.record(n);
        }
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for item in batch {
            // Queue wait is recorded for every drained item — hits,
            // expirations, and executed members alike — so the histogram's
            // count mirrors the gulp_items counter exactly.
            let wait = now.saturating_duration_since(item.enqueued);
            self.telemetry.batch_queue_wait.record_duration(wait);
            if item.deadline <= now {
                self.telemetry.span_at(
                    item.request_id,
                    Stage::BatchQueue,
                    item.enqueued,
                    wait,
                    Outcome::Deadline,
                );
                self.expire(&item, "the batch ran");
                continue;
            }
            self.telemetry.span_at(
                item.request_id,
                Stage::BatchQueue,
                item.enqueued,
                wait,
                Outcome::Ok,
            );
            if let Some(key) = &item.key {
                if let Some(data) = self.cache.probe(key) {
                    self.telemetry
                        .cache_hit_service
                        .record_duration(item.enqueued.elapsed());
                    self.telemetry
                        .span(item.request_id, Stage::Cache, now, Outcome::Hit);
                    let _ = item.reply.send(Ok(data));
                    continue;
                }
            }
            live.push(item);
        }
        let mut groups: Vec<(bool, Arc<ModelVersion>, Vec<Pending>)> = Vec::new();
        for item in live {
            let is_eval = matches!(item.call, Call::Eval(_));
            match groups
                .iter_mut()
                .find(|(e, v, _)| *e == is_eval && Arc::ptr_eq(v, &item.version))
            {
                Some((_, _, members)) => members.push(item),
                None => groups.push((is_eval, Arc::clone(&item.version), vec![item])),
            }
        }
        // One scratch slab per gulp, reused across groups: replies go out
        // through `&Sender`, so groups are walked by reference and the
        // borrowed input views are rebuilt in place instead of allocating
        // fresh Vecs per group.
        let mut pairs: Vec<(&[f64], &[f64])> = Vec::new();
        let mut polytopes: Vec<&Vec<Vec<f64>>> = Vec::new();
        for (is_eval, version, members) in &mut groups {
            // Re-check deadlines right before this group executes: earlier
            // groups' compute time may have expired members that were live
            // at the pre-batch sweep, and they must not pay for a forward
            // pass into a dead reply channel.
            let now = Instant::now();
            members.retain(|m| {
                if m.deadline <= now {
                    self.expire(m, "its group ran");
                    false
                } else {
                    true
                }
            });
            if members.is_empty() {
                continue;
            }
            if *is_eval {
                // The decoupled forward with both channels at the same
                // point is the served model's semantics (identical to
                // `ddnn.forward` point by point, batched here).
                pairs.clear();
                pairs.extend(
                    members
                        .iter()
                        .flat_map(|m| match &m.call {
                            Call::Eval(inputs) => inputs.iter(),
                            Call::LinRegions(_) => {
                                unreachable!("eval group holds eval calls")
                            }
                        })
                        .map(|x| (x.as_slice(), x.as_slice())),
                );
                self.run_eval_group(version, members, &pairs);
            } else {
                polytopes.clear();
                polytopes.extend(members.iter().flat_map(|m| match &m.call {
                    Call::LinRegions(polys) => polys.iter(),
                    Call::Eval(_) => unreachable!("lin group holds lin_regions calls"),
                }));
                self.run_lin_group(version, members, &polytopes);
            }
        }
    }

    /// Fills the cache with a member's computed payload — unless the
    /// member's deadline expired while its group ran, in which case the
    /// fill is skipped (and counted): the reply channel is likely dead,
    /// and a payload nobody received must not churn the LRU.
    fn fill_from(&self, member: &Pending, data: &ReplyData) {
        if let Some(key) = &member.key {
            if member.deadline <= Instant::now() {
                self.cache.skip_fill();
            } else {
                self.cache.fill(*key, data);
            }
        }
    }

    fn run_eval_group(
        &self,
        version: &ModelVersion,
        members: &[Pending],
        pairs: &[(&[f64], &[f64])],
    ) {
        let exec_start = Instant::now();
        let outputs = version.ddnn.forward_decoupled_batch_in(&self.pool, pairs);
        let exec = exec_start.elapsed();
        self.telemetry.batch_exec.record_duration(exec);
        self.counters.eval_batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .eval_points
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        let mut outputs = outputs.into_iter();
        for member in members {
            let Call::Eval(inputs) = &member.call else {
                unreachable!("eval group holds eval calls")
            };
            let slice: Vec<Vec<f64>> = outputs.by_ref().take(inputs.len()).collect();
            let data = ReplyData::Outputs(slice);
            self.fill_from(member, &data);
            // Spans and service time land before the reply wakes the
            // connection thread, so a slow request's promotion scan always
            // finds its chain complete.
            self.telemetry.span_at(
                member.request_id,
                Stage::BatchExec,
                exec_start,
                exec,
                Outcome::Ok,
            );
            self.telemetry
                .cache_miss_service
                .record_duration(member.enqueued.elapsed());
            let _ = member.reply.send(Ok(data));
        }
    }

    fn run_lin_group(
        &self,
        version: &ModelVersion,
        members: &[Pending],
        polytopes: &[&Vec<Vec<f64>>],
    ) {
        // Value edits never move the linear regions (Theorem 4.6), so every
        // version's regions are its activation network's regions.
        let exec_start = Instant::now();
        let result = prdnn_syrenn::lin_regions_batch_in(
            &self.pool,
            version.ddnn.activation_network(),
            polytopes,
        );
        self.counters.lin_batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .lin_polytopes
            .fetch_add(polytopes.len() as u64, Ordering::Relaxed);
        match result {
            Ok(all_regions) => {
                let exec = exec_start.elapsed();
                self.telemetry.batch_exec.record_duration(exec);
                let mut regions = all_regions.into_iter();
                for member in members {
                    let Call::LinRegions(polys) = &member.call else {
                        unreachable!("lin group holds lin_regions calls")
                    };
                    let slice: Vec<Vec<LinearRegion>> =
                        regions.by_ref().take(polys.len()).collect();
                    let data = ReplyData::Regions(slice);
                    self.fill_from(member, &data);
                    self.telemetry.span_at(
                        member.request_id,
                        Stage::BatchExec,
                        exec_start,
                        exec,
                        Outcome::Ok,
                    );
                    self.telemetry
                        .cache_miss_service
                        .record_duration(member.enqueued.elapsed());
                    let _ = member.reply.send(Ok(data));
                }
            }
            Err(_) => {
                // `lin_regions_batch_in` reports the first failing
                // polytope as a batch-level error (e.g. one member sent a
                // degenerate segment the cheap pre-validation cannot
                // catch).  One bad request must not fail the others it
                // happened to be coalesced with, so isolate: re-run each
                // member on its own and deliver per-member verdicts.  The
                // re-runs are accounted under `lin_rescue_calls`, not
                // `lin_batches`/`lin_polytopes`, which track coalesced
                // work only — rescue work must not inflate mean-gulp
                // metrics.
                for member in members {
                    let Call::LinRegions(polys) = &member.call else {
                        unreachable!("lin group holds lin_regions calls")
                    };
                    self.counters
                        .lin_rescue_calls
                        .fetch_add(1, Ordering::Relaxed);
                    let reply = match prdnn_syrenn::lin_regions_batch_in(
                        &self.pool,
                        version.ddnn.activation_network(),
                        polys,
                    ) {
                        Ok(regions) => {
                            let data = ReplyData::Regions(regions);
                            self.fill_from(member, &data);
                            Ok(data)
                        }
                        Err(e) => Err((ErrorKind::BadRequest, e.to_string())),
                    };
                    // The rescue span covers the batched attempt plus this
                    // member's solo re-run; its outcome is the verdict the
                    // member actually received.
                    let outcome = if reply.is_ok() {
                        Outcome::Ok
                    } else {
                        Outcome::Error
                    };
                    self.telemetry
                        .span(member.request_id, Stage::BatchExec, exec_start, outcome);
                    self.telemetry
                        .cache_miss_service
                        .record_duration(member.enqueued.elapsed());
                    let _ = member.reply.send(reply);
                }
                // The failed batched call still consumed pool time: charge
                // the whole attempt-plus-rescues window once.
                self.telemetry
                    .batch_exec
                    .record_duration(exec_start.elapsed());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ModelStore;
    use prdnn_core::DecoupledNetwork;
    use prdnn_datasets::registry;
    use std::time::Duration;

    fn version_of(spec: &str) -> Arc<ModelVersion> {
        let store = ModelStore::new();
        store
            .load(
                "m",
                DecoupledNetwork::from_network(&registry::build_model(spec).unwrap()),
                spec.to_owned(),
            )
            .unwrap()
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// The pre-cache batcher the legacy tests pin: caching disabled.
    fn batcher_without_cache(threads: usize, cap: usize) -> Batcher {
        let pool = Arc::new(prdnn_par::pool_for(Some(threads)));
        Batcher::new(
            pool,
            cap,
            Arc::new(ResultCache::disabled()),
            Telemetry::new(0),
        )
    }

    /// A batcher with a generous enabled cache.
    fn batcher_with_cache(threads: usize, cap: usize) -> Batcher {
        let pool = Arc::new(prdnn_par::pool_for(Some(threads)));
        Batcher::new(
            pool,
            cap,
            Arc::new(ResultCache::new(1 << 20)),
            Telemetry::new(0),
        )
    }

    #[test]
    fn concurrent_evals_coalesce_into_one_batch_with_exact_results() {
        let batcher = batcher_without_cache(2, 16);
        let version = version_of("mlp:5:3x8x2");
        let net = registry::build_model("mlp:5:3x8x2").unwrap();

        // Three requests queued before any drain: must coalesce into ONE
        // batched call covering all five points.
        let requests: Vec<Vec<Vec<f64>>> = vec![
            vec![vec![0.1, 0.2, 0.3], vec![-0.5, 0.0, 0.5]],
            vec![vec![1.0, -1.0, 0.25]],
            vec![vec![0.0, 0.0, 0.0], vec![0.9, 0.8, 0.7]],
        ];
        let receivers: Vec<_> = requests
            .iter()
            .map(|inputs| {
                batcher
                    .submit(
                        Arc::clone(&version),
                        Call::Eval(inputs.clone()),
                        far_deadline(),
                        0,
                    )
                    .unwrap()
            })
            .collect();
        assert_eq!(batcher.drain_once(), 3);
        assert_eq!(batcher.counters.eval_batches.load(Ordering::Relaxed), 1);
        assert_eq!(batcher.counters.eval_points.load(Ordering::Relaxed), 5);
        assert_eq!(batcher.counters.gulps.load(Ordering::Relaxed), 1);
        assert_eq!(batcher.counters.gulp_items.load(Ordering::Relaxed), 3);
        assert_eq!(batcher.counters.max_gulp.load(Ordering::Relaxed), 3);
        for (inputs, rx) in requests.iter().zip(receivers) {
            let ReplyData::Outputs(outputs) = rx.recv().unwrap().unwrap() else {
                panic!("expected outputs")
            };
            assert_eq!(outputs.len(), inputs.len());
            for (x, y) in inputs.iter().zip(&outputs) {
                // Bit-identical to the direct library call.
                assert_eq!(y, &net.forward(x));
            }
        }
    }

    #[test]
    fn overload_deadline_and_shutdown_are_enforced() {
        let batcher = batcher_without_cache(1, 1);
        let version = version_of("n1");

        let _held = batcher
            .submit(
                Arc::clone(&version),
                Call::Eval(vec![vec![0.5]]),
                far_deadline(),
                0,
            )
            .unwrap();
        let err = batcher
            .submit(
                Arc::clone(&version),
                Call::Eval(vec![vec![0.5]]),
                far_deadline(),
                0,
            )
            .unwrap_err();
        assert_eq!(err.0, ErrorKind::Overloaded);

        // Expired deadline: answered without evaluating.
        batcher.drain_once();
        let rx = batcher
            .submit(
                Arc::clone(&version),
                Call::Eval(vec![vec![0.5]]),
                Instant::now() - Duration::from_millis(1),
                0,
            )
            .unwrap();
        batcher.drain_once();
        assert_eq!(
            rx.recv().unwrap().unwrap_err().0,
            ErrorKind::DeadlineExceeded
        );
        assert_eq!(batcher.counters.eval_batches.load(Ordering::Relaxed), 1);
        assert_eq!(batcher.counters.deadline_expired.load(Ordering::Relaxed), 1);

        batcher.shutdown();
        let err = batcher
            .submit(version, Call::Eval(vec![vec![0.5]]), far_deadline(), 0)
            .unwrap_err();
        assert_eq!(err.0, ErrorKind::ShuttingDown);
    }

    #[test]
    fn degenerate_polytope_does_not_fail_its_batchmates() {
        let batcher = batcher_without_cache(1, 16);
        let version = version_of("n1");

        // A degenerate segment (identical endpoints) coalesced with a
        // valid one: only the degenerate request may fail.
        let bad = batcher
            .submit(
                Arc::clone(&version),
                Call::LinRegions(vec![vec![vec![0.5], vec![0.5]]]),
                far_deadline(),
                0,
            )
            .unwrap();
        let good = batcher
            .submit(
                Arc::clone(&version),
                Call::LinRegions(vec![vec![vec![-1.0], vec![2.0]]]),
                far_deadline(),
                0,
            )
            .unwrap();
        assert_eq!(batcher.drain_once(), 2);
        let (kind, message) = bad.recv().unwrap().unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
        assert!(message.contains("degenerate"), "{message}");
        let ReplyData::Regions(regions) = good.recv().unwrap().unwrap() else {
            panic!("valid batchmate must still succeed")
        };
        assert_eq!(regions[0].len(), 3);
        // Both members re-ran individually; the rescue calls are counted
        // apart from the coalesced lin_batches/lin_polytopes.
        assert_eq!(batcher.counters.lin_rescue_calls.load(Ordering::Relaxed), 2);
        assert_eq!(batcher.counters.lin_batches.load(Ordering::Relaxed), 1);
        assert_eq!(batcher.counters.lin_polytopes.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn lin_regions_group_matches_direct_calls() {
        let batcher = batcher_without_cache(1, 16);
        let version = version_of("n1");
        let net = registry::build_model("n1").unwrap();

        let segment = vec![vec![-1.0], vec![2.0]];
        let rx = batcher
            .submit(
                Arc::clone(&version),
                Call::LinRegions(vec![segment.clone()]),
                far_deadline(),
                0,
            )
            .unwrap();
        batcher.drain_once();
        let ReplyData::Regions(regions) = rx.recv().unwrap().unwrap() else {
            panic!("expected regions")
        };
        let direct = prdnn_syrenn::lin_regions(&net, &segment).unwrap();
        assert_eq!(regions[0], direct);
        // N1 has three linear regions on [-1, 2].
        assert_eq!(regions[0].len(), 3);
    }

    #[test]
    fn cache_hits_are_bit_identical_and_skip_the_pool() {
        let batcher = batcher_with_cache(1, 16);
        let version = version_of("mlp:5:3x8x2");
        let net = registry::build_model("mlp:5:3x8x2").unwrap();
        let inputs = vec![vec![0.1, 0.2, 0.3], vec![-0.5, 0.0, 0.5]];

        let submit_eval = || {
            batcher
                .submit(
                    Arc::clone(&version),
                    Call::Eval(inputs.clone()),
                    far_deadline(),
                    0,
                )
                .unwrap()
        };
        let first = submit_eval();
        batcher.drain_once();
        let second = submit_eval();
        batcher.drain_once();
        // The second drain answered from the cache: still one pool call.
        assert_eq!(batcher.counters.eval_batches.load(Ordering::Relaxed), 1);
        let c = &batcher.cache.counters;
        assert_eq!(c.hits.load(Ordering::Relaxed), 1);
        assert_eq!(c.misses.load(Ordering::Relaxed), 1);
        assert_eq!(c.inserts.load(Ordering::Relaxed), 1);
        for rx in [first, second] {
            let ReplyData::Outputs(outputs) = rx.recv().unwrap().unwrap() else {
                panic!("expected outputs")
            };
            // Both the miss and the hit are bit-identical to the direct
            // library call.
            for (x, y) in inputs.iter().zip(&outputs) {
                assert_eq!(y, &net.forward(x));
            }
        }

        // Same story for lin_regions.
        let segment = vec![vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]];
        let submit_lin = || {
            batcher
                .submit(
                    Arc::clone(&version),
                    Call::LinRegions(vec![segment.clone()]),
                    far_deadline(),
                    0,
                )
                .unwrap()
        };
        let first = submit_lin();
        batcher.drain_once();
        let second = submit_lin();
        batcher.drain_once();
        assert_eq!(batcher.counters.lin_batches.load(Ordering::Relaxed), 1);
        let direct = prdnn_syrenn::lin_regions(&net, &segment).unwrap();
        for rx in [first, second] {
            let ReplyData::Regions(regions) = rx.recv().unwrap().unwrap() else {
                panic!("expected regions")
            };
            assert_eq!(regions[0], direct);
        }
    }

    #[test]
    fn repaired_version_misses_parent_eval_entries_but_shares_lin_entries() {
        let batcher = batcher_with_cache(1, 16);
        let v1 = version_of("n1");
        // A value-only repair of layer 0, exactly what `publish_repair`
        // stores: same activation channel, patched value channel.
        let mut repaired = DecoupledNetwork::from_network(&registry::build_model("n1").unwrap());
        let params = repaired.value_network().layer(0).num_params();
        repaired.apply_value_delta(0, &vec![0.5; params]);
        let v2 = Arc::new(ModelVersion::new(
            "m".to_owned(),
            2,
            repaired,
            "repair of m@v1".to_owned(),
            None,
        ));

        let input = vec![vec![0.5]];
        let eval = |version: &Arc<ModelVersion>| {
            let rx = batcher
                .submit(
                    Arc::clone(version),
                    Call::Eval(input.clone()),
                    far_deadline(),
                    0,
                )
                .unwrap();
            batcher.drain_once();
            let ReplyData::Outputs(outputs) = rx.recv().unwrap().unwrap() else {
                panic!("expected outputs")
            };
            outputs
        };
        let from_v1 = eval(&v1);
        let from_v2 = eval(&v2);
        let c = &batcher.cache.counters;
        // The repaired version's eval key differs (value channel changed):
        // both evals were misses, and the answers actually differ.
        assert_eq!(c.hits.load(Ordering::Relaxed), 0);
        assert_eq!(c.misses.load(Ordering::Relaxed), 2);
        assert_ne!(
            from_v1, from_v2,
            "a stale hit would have returned v1's outputs"
        );

        // lin_regions keys off the activation channel alone, which the
        // value-only repair preserved: v2 legitimately hits v1's entry.
        let segment = vec![vec![-1.0], vec![2.0]];
        let lin = |version: &Arc<ModelVersion>| {
            let rx = batcher
                .submit(
                    Arc::clone(version),
                    Call::LinRegions(vec![segment.clone()]),
                    far_deadline(),
                    0,
                )
                .unwrap();
            batcher.drain_once();
            let ReplyData::Regions(regions) = rx.recv().unwrap().unwrap() else {
                panic!("expected regions")
            };
            regions
        };
        let lin_v1 = lin(&v1);
        let lin_v2 = lin(&v2);
        assert_eq!(
            c.hits.load(Ordering::Relaxed),
            1,
            "v2 shares v1's lin entry"
        );
        assert_eq!(batcher.counters.lin_batches.load(Ordering::Relaxed), 1);
        assert_eq!(lin_v1, lin_v2);
        let direct =
            prdnn_syrenn::lin_regions(&registry::build_model("n1").unwrap(), &segment).unwrap();
        assert_eq!(lin_v1[0], direct);
    }
}
