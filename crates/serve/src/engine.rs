//! The serving engine behind every harness: one scoped pool run.
//!
//! A run is N replica servers ([`MixServer`]s; a single model is a
//! one-tenant mix) fed by N open-loop arrival streams through one
//! [`ArrivalQueue`], with one worker loop per replica and at most one
//! monitor thread. [`ServeOptions::supervision`] sets the error policy:
//!
//! * `None` is fail-stop. The first datapath error aborts the run and is
//!   returned; a panic re-raises its payload and outranks errors. With a
//!   finite SLO the monitor aborts a batch held past
//!   `max(2 × SLO, STALL_ABORT_FLOOR_S)` with
//!   [`CentaurError::ReplicaStalled`].
//! * `Some` is supervision. A failing batch is re-served request by
//!   request (poison isolation), failed requests are requeued or failed
//!   against the retry budget, crashed replicas restart against the
//!   pool-wide budget, and only the last replica's death aborts, re-raising
//!   the first crash's payload. With [`ServeOptions::hedge`] the monitor is
//!   the stall watchdog: it strikes an overdue replica's health and hedges
//!   its riders to a sibling.
//!
//! Each replica records completions into its own log, owned outside the
//! panic guard, and a health board exists only while the watchdog is
//! armed. So the plain drain takes no lock per batch beyond the queue's
//! and the replica's in-flight slot's.

use crate::fault::{FaultGuard, FaultPlan};
use crate::harness::{Completion, ServeOptions, ServeOutcome};
use crate::mix::MixServer;
use crate::policy::BatchPolicy;
use crate::queue::{ArrivalQueue, QueuedRequest};
use crate::supervisor::{
    requeue_or_fail, HealthBoard, InFlightSlot, Supervision, SupervisorShared,
};
use centaur::CentaurError;
use centaur_dlrm::{InferenceRequest, RejectedRequest};
use centaur_workload::QueryStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Floor for the fail-stop stall-abort deadline. A saturated host can
/// deschedule a worker for tens of milliseconds mid-batch, which is
/// indistinguishable from a short stall by hold time alone — so a
/// tight-SLO replay only aborts when the hold dwarfs any plausible
/// preemption, not at a bare `2 × SLO`.
const STALL_ABORT_FLOOR_S: f64 = 0.25;

/// How often a quarantined worker re-checks its re-admission probe (and
/// whether the replay is still running).
const QUARANTINE_PROBE_TICK: Duration = Duration::from_micros(500);

/// One replica's record of its run.
struct ReplicaLog {
    completions: Vec<Completion>,
    batches: usize,
}

/// Everything the replica workers, the generators and the monitor share.
struct Pool {
    queue: ArrivalQueue,
    /// The replay clock every arrival, deadline and dispatch stamp counts
    /// from.
    start: Instant,
    policy: BatchPolicy,
    slo_s: f64,
    supervision: Option<Supervision>,
    /// One in-flight slot per replica: what a crash recovers and what the
    /// monitor watches.
    slots: Vec<InFlightSlot>,
    /// Replica health, present only while the hedge watchdog is armed.
    health: Option<HealthBoard>,
    shared: SupervisorShared,
    /// Set when the run aborts; the generators poll it between sleep
    /// slices and an injected stall ends early on it.
    abort: AtomicBool,
    /// The fail-stop stall diagnostic: replica and hold time in ms.
    stalled: Mutex<Option<(usize, u64)>>,
}

/// Serves one replay: `servers[r]` is replica `r`, and each `(offset,
/// stream)` replays `stream` against `requests` from index `offset` on. The
/// calling thread replays the first stream; every other stream, replica
/// and the monitor get a scoped thread.
///
/// # Errors
///
/// Returns [`CentaurError::InvalidConfig`] for a hedge config without
/// supervision (before any thread spawns), and on the fail-stop path the
/// stall diagnostic or the first replica's datapath error.
///
/// # Panics
///
/// Re-raises the payload of a fail-stop replica's panic, or of the first
/// crash when a supervised pool lost its last replica.
pub(crate) fn serve(
    servers: Vec<MixServer<'_>>,
    requests: &[InferenceRequest],
    streams: &[(usize, &QueryStream)],
    policy: BatchPolicy,
    options: ServeOptions,
    plan: &FaultPlan,
) -> Result<ServeOutcome, CentaurError> {
    if options.hedge.is_some() && options.supervision.is_none() {
        return Err(CentaurError::InvalidConfig(
            "ServeOptions::hedge needs ServeOptions::supervision: the watchdog \
             hedges and quarantines within a supervised pool"
                .to_string(),
        ));
    }
    let replicas = servers.len();
    let queue = ArrivalQueue::with_config(options.admission());
    // Size the fate table for every index and the shed log for the worst
    // case (every request shed), so the replay stays allocation-free in
    // steady state.
    queue.reserve(requests.len());
    let health = options.hedge.map(|hedge| {
        HealthBoard::new(
            replicas,
            hedge.timeout.as_secs_f64(),
            hedge.quarantine_strikes,
            hedge.quarantine_backoff,
        )
    });
    // The monitor's limit: the hedge timeout while the watchdog is armed,
    // the fail-stop stall deadline under a finite SLO, else no monitor.
    let slo_s = options.slo_s();
    let monitor_limit_s = match (options.supervision, options.hedge) {
        (Some(_), Some(hedge)) => Some(hedge.timeout.as_secs_f64()),
        (None, _) if slo_s.is_finite() => Some((slo_s * 2.0).max(STALL_ABORT_FLOOR_S)),
        _ => None,
    };
    // Restarts boot from a clone that never ran, never from state a panic
    // unwound through.
    let template = options.supervision.map(|_| Mutex::new(servers[0].clone()));
    let guards: Vec<FaultGuard> = (0..replicas).map(|r| plan.guard_for(r)).collect();
    // The set-up above ran after the queue captured its clock: measure the
    // replay schedule from when the replay actually begins.
    queue.restart_clock();
    let pool = Pool {
        start: queue.start(),
        queue,
        policy,
        slo_s,
        supervision: options.supervision,
        slots: (0..replicas)
            .map(|_| InFlightSlot::new(policy.max_batch()))
            .collect(),
        health,
        shared: SupervisorShared::new(replicas),
        abort: AtomicBool::new(false),
        stalled: Mutex::new(None),
    };
    let generators = AtomicUsize::new(streams.len());
    let finished: Vec<Result<ReplicaLog, CentaurError>> = std::thread::scope(|scope| {
        let pool = &pool;
        let template = template.as_ref();
        let generators = &generators;
        let handles: Vec<_> = servers
            .into_iter()
            .zip(guards)
            .enumerate()
            .map(|(replica, (server, guard))| {
                scope.spawn(move || pool.run_replica(replica, server, template, guard))
            })
            .collect();
        if let Some(limit_s) = monitor_limit_s {
            scope.spawn(move || pool.monitor(limit_s));
        }
        for &(offset, stream) in &streams[1..] {
            scope.spawn(move || pool.replay(stream, offset, generators));
        }
        let (offset, stream) = streams[0];
        pool.replay(stream, offset, generators);
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    });

    let queue = &pool.queue;
    if queue.is_aborted() {
        // A fail-stop panic, or a supervised pool's last death: re-raise the
        // first crash. An abort without a payload was a stall or an error.
        if let Some(payload) = pool.shared.take_payload() {
            resume_unwind(payload);
        }
    }
    // The stall abort outranks the secondary errors it caused downstream.
    if let Some((replica, held_ms)) = *pool.stalled.lock().expect("stall diagnostic poisoned") {
        return Err(CentaurError::ReplicaStalled { replica, held_ms });
    }
    let mut logs = finished.into_iter().collect::<Result<Vec<_>, _>>()?;
    let batches = logs.iter().map(|log| log.batches).sum();
    let mut completions = std::mem::take(&mut logs[0].completions);
    for log in &mut logs[1..] {
        completions.append(&mut log.completions);
    }
    let health = pool.health.as_ref();
    Ok(ServeOutcome {
        completions,
        batches,
        slo_s,
        shed_admission: queue.shed_admission(),
        shed_expired: queue.shed_expired(),
        failed: queue.failed(),
        retries: queue.retries(),
        restarts: pool.shared.restarts.load(Ordering::Relaxed),
        replicas_lost: replicas - pool.shared.live.load(Ordering::Acquire),
        hedges: queue.hedges(),
        hedge_wins: queue.hedge_wins(),
        duplicates_suppressed: queue.duplicates_suppressed(),
        quarantines: health.map_or(0, HealthBoard::quarantines),
        readmissions: health.map_or(0, HealthBoard::readmissions),
        rejections: queue
            .take_shed()
            .into_iter()
            .map(|(shed, reason)| RejectedRequest {
                id: requests[shed.index].id,
                reason,
                retries: shed.retries,
            })
            .collect(),
    })
}

impl Pool {
    fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Flips the abort flag and abandons the queue, so the generators, the
    /// monitor and every sibling stop promptly instead of playing out the
    /// schedule.
    fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
        self.queue.close_abort();
    }

    /// The open-loop load generator: releases each query of `stream` at its
    /// scheduled offset (bursts of overdue queries release back to back),
    /// shifted by `index_offset` into the merged request set. Sleeps are
    /// sliced so an abort is observed within milliseconds. The queue closes
    /// when the last of `generators_left` finishes.
    fn replay(&self, stream: &QueryStream, index_offset: usize, generators_left: &AtomicUsize) {
        'replay: for (index, arrival_s) in stream.replay() {
            let target = self.start + Duration::from_secs_f64(arrival_s);
            loop {
                if self.abort.load(Ordering::Relaxed) {
                    break 'replay;
                }
                let now = Instant::now();
                if now >= target {
                    break;
                }
                std::thread::sleep((target - now).min(Duration::from_millis(5)));
            }
            let queued = QueuedRequest::with_slo(index + index_offset, arrival_s, self.slo_s);
            if !self.queue.push(queued) && self.queue.is_closed() {
                // A replica failed and closed the queue mid-run.
                break 'replay;
            }
        }
        if generators_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
        }
    }

    /// One replica's thread: runs [`worker_loop`](Self::worker_loop) under
    /// a panic guard and hands back its log, or the error that stopped it
    /// fail-stop. The log grows as it fills: reserved to the request count
    /// on the calling thread it raised the drains' peak RSS by 8 bytes per
    /// request, and reserved here it measured no faster. Fail-stop, any
    /// failure aborts the run. Supervised, a crash
    /// requeues the in-flight batch against the retry budget and restarts
    /// the replica from `template` while the pool-wide budget lasts; a
    /// replica beyond it stays dead, and only the last death aborts.
    fn run_replica<'a>(
        &self,
        replica: usize,
        mut server: MixServer<'a>,
        template: Option<&Mutex<MixServer<'a>>>,
        mut guard: FaultGuard,
    ) -> Result<ReplicaLog, CentaurError> {
        let mut log = ReplicaLog {
            completions: Vec::new(),
            batches: 0,
        };
        loop {
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.worker_loop(replica, &mut server, &mut guard, &mut log)
            }));
            let payload = match result {
                Ok(Ok(())) => return Ok(log),
                Ok(Err(error)) => {
                    self.abort();
                    return Err(error);
                }
                Err(payload) => payload,
            };
            let (Some(supervision), Some(template)) = (self.supervision, template) else {
                self.shared.replica_died(payload);
                self.abort();
                return Ok(log);
            };
            for request in self.slots[replica].recover() {
                requeue_or_fail(&self.queue, request, supervision.retry_limit);
            }
            if self.shared.try_consume_restart(supervision.restart_budget) {
                server = template.lock().expect("template poisoned").clone();
                continue;
            }
            if self.shared.replica_died(payload) {
                self.abort();
            }
            return Ok(log);
        }
    }

    /// One replica's serving loop: pop a coalesced batch, publish it
    /// in-flight (dispatch-stamped for the monitor), poll the fault guard
    /// (a crash panics here, inside the replica's guard), serve, and record
    /// the completions that [`ArrivalQueue::complete_batch`] counts — a
    /// hedged sibling's result is counted once and a straggler's duplicate
    /// is discarded. While the watchdog is armed the replica's health gates
    /// every pull and scores every batch. A transient or datapath error
    /// returns fail-stop; supervised, it strikes the replica and requeues or
    /// fails the riders, and a failing batch is first re-served request by
    /// request so one poison request cannot burn its co-riders' budgets.
    fn worker_loop(
        &self,
        replica: usize,
        server: &mut MixServer<'_>,
        guard: &mut FaultGuard,
        log: &mut ReplicaLog,
    ) -> Result<(), CentaurError> {
        let queue = &self.queue;
        let inflight = &self.slots[replica];
        // Reused across iterations: the steady-state loop allocates nothing
        // once these reach their high-water marks.
        let mut batch: Vec<QueuedRequest> = Vec::with_capacity(self.policy.max_batch());
        let mut probabilities: Vec<f32> = Vec::with_capacity(self.policy.max_batch());
        let mut primary: Vec<bool> = Vec::with_capacity(self.policy.max_batch());
        loop {
            if let Some(health) = &self.health {
                while !health.may_pull(replica, self.now_s()) {
                    if queue.is_aborted() || queue.is_finished() {
                        return Ok(());
                    }
                    std::thread::sleep(QUARANTINE_PROBE_TICK);
                }
            }
            if !queue.pop_batch(self.policy, &mut batch) {
                return Ok(());
            }
            let dispatched_s = self.now_s();
            inflight.publish(&batch, dispatched_s);
            if let Err(error) = guard.intercept(replica, dispatched_s, &self.abort) {
                // An injected transient: the attempt failed, the replica
                // survives — struck, not crashed.
                let retry_limit = self.retry_limit(error)?;
                self.strike(replica);
                inflight.clear();
                for &request in &batch {
                    requeue_or_fail(queue, request, retry_limit);
                }
                continue;
            }
            match server.serve_batch(&batch, &mut probabilities) {
                Ok(()) => {
                    let served_s = self.now_s();
                    guard.apply_degradation(Duration::from_secs_f64(served_s - dispatched_s));
                    inflight.clear();
                    self.record(server, &batch, &probabilities, &mut primary, log);
                    if let Some(health) = &self.health {
                        let now_s = self.now_s();
                        health.record_service(replica, now_s - dispatched_s, now_s);
                    }
                }
                Err(error) => {
                    let retry_limit = self.retry_limit(error)?;
                    self.strike(replica);
                    inflight.clear();
                    if batch.len() == 1 {
                        requeue_or_fail(queue, batch[0], retry_limit);
                        continue;
                    }
                    for i in 0..batch.len() {
                        let one = &batch[i..=i];
                        match server.serve_batch(one, &mut probabilities) {
                            Ok(()) => self.record(server, one, &probabilities, &mut primary, log),
                            Err(_) => requeue_or_fail(queue, batch[i], retry_limit),
                        }
                    }
                }
            }
        }
    }

    /// The retry budget a failed attempt's riders draw on, or — fail-stop —
    /// the error that ends the run.
    fn retry_limit(&self, error: CentaurError) -> Result<u32, CentaurError> {
        self.supervision
            .map(|supervision| supervision.retry_limit)
            .ok_or(error)
    }

    /// Strikes the replica's health for a failed attempt (watchdog armed).
    fn strike(&self, replica: usize) {
        if let Some(health) = &self.health {
            health.record_transient(replica, self.now_s());
        }
    }

    /// Resolves one served batch against the queue and appends its counted
    /// completions to the replica's log.
    fn record(
        &self,
        server: &MixServer<'_>,
        batch: &[QueuedRequest],
        probabilities: &[f32],
        primary: &mut Vec<bool>,
        log: &mut ReplicaLog,
    ) {
        self.queue.complete_batch(batch, primary);
        let completed_s = self.now_s();
        for ((queued, &probability), &keep) in batch.iter().zip(probabilities).zip(primary.iter()) {
            if keep {
                log.completions.push(Completion {
                    id: server.request_id(queued.index),
                    arrival_s: queued.arrival_s,
                    completed_s,
                    probability,
                });
            }
        }
        log.batches += 1;
    }

    /// The monitor: polls every replica's in-flight slot on a tick a quarter
    /// of `limit_s` and acts on a dispatch held past it. Ages count per
    /// *dispatch* (escalating multiples of the limit), so one long stall
    /// strikes repeatedly while a busy-but-healthy replica is left alone.
    /// With the watchdog armed it strikes the straggler's health and — once
    /// per dispatch — clones the overdue riders back into the queue so a
    /// healthy sibling races the stall. Fail-stop, it records the
    /// straggler and aborts the run. Its bookkeeping is preallocated: a
    /// fault-free replay runs it allocation-free.
    fn monitor(&self, limit_s: f64) {
        let tick = Duration::from_secs_f64((limit_s / 4.0).clamp(100e-6, 50e-3));
        // Per replica: the dispatch stamp last seen and how many times that
        // same dispatch has already been struck.
        let mut book: Vec<(f64, u32)> = vec![(f64::NAN, 0); self.slots.len()];
        let mut riders: Vec<QueuedRequest> = Vec::with_capacity(self.policy.max_batch());
        while !self.queue.is_aborted() && !self.queue.is_finished() {
            std::thread::sleep(tick);
            let now_s = self.now_s();
            for (replica, slot) in self.slots.iter().enumerate() {
                let Some((dispatched_s, hedged)) = slot.probe() else {
                    book[replica] = (f64::NAN, 0);
                    continue;
                };
                if book[replica].0 != dispatched_s {
                    book[replica] = (dispatched_s, 0);
                }
                let strikes = book[replica].1;
                let held_s = now_s - dispatched_s;
                if held_s <= limit_s * f64::from(strikes + 1) {
                    continue;
                }
                book[replica].1 = strikes + 1;
                let Some(health) = &self.health else {
                    *self.stalled.lock().expect("stall diagnostic poisoned") =
                        Some((replica, (held_s * 1e3) as u64));
                    self.abort();
                    return;
                };
                health.record_overdue(replica, now_s);
                if !hedged && slot.overdue_riders(now_s, limit_s, &mut riders) {
                    for &rider in &riders {
                        self.queue.hedge(rider);
                    }
                }
            }
        }
    }
}
