//! The replica supervisor's parts: crash-tolerant serving on top of the
//! arrival queue's in-flight accounting. The serving engine's worker loop
//! and monitor drive them.
//!
//! Fail-stop, any replica panic or datapath error aborts the whole replay.
//! Supervision replaces that all-or-nothing contract with the production
//! one — node loss is routine, the pool degrades gracefully:
//!
//! * every batch a worker holds is **published** to an [`InFlightSlot`]
//!   before it runs, so when the worker panics the supervisor recovers the
//!   exact requests that went down with it;
//! * recovered (and datapath-failed) requests are **requeued with their
//!   original arrival stamps** against a bounded per-request retry budget —
//!   exhausted budgets surface as [`RejectReason::Failed`] rejections,
//!   never silently;
//! * the crashed replica is **restarted** from a fresh shard clone, counted
//!   against a pool-wide restart budget; a replica beyond the budget stays
//!   dead and its siblings absorb the load through the existing
//!   admission/deadline machinery;
//! * only unrecoverable states abort: when the **last** live replica dies,
//!   the run aborts with the *first* crash's original panic payload
//!   preserved, exactly like the fail-stop path.
//!
//! The accounting invariant this module exists to uphold: every request the
//! queue ever accepted ends in exactly one of completed / shed / failed.

use crate::queue::{ArrivalQueue, QueuedRequest};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Clean batches a replica on probation must serve to return to
/// [`ReplicaHealth::Healthy`].
const PROBATION_CLEAN_BATCHES: u32 = 2;

/// Fault-tolerance budgets for a supervised replica pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Times one request may be re-served after a replica crash or
    /// datapath error before it is failed ([`RejectReason::Failed`]).
    ///
    /// [`RejectReason::Failed`]: centaur_dlrm::RejectReason::Failed
    pub retry_limit: u32,
    /// Replica restarts the pool may spend across the whole run. A crash
    /// beyond this budget leaves the replica dead; when the *last* replica
    /// dies the run aborts with the first crash's panic payload.
    pub restart_budget: usize,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            retry_limit: 2,
            restart_budget: 2,
        }
    }
}

impl Supervision {
    /// Supervision with the given budgets.
    pub fn new(retry_limit: u32, restart_budget: usize) -> Self {
        Supervision {
            retry_limit,
            restart_budget,
        }
    }
}

/// What one worker currently holds: the published batch, when it was
/// dispatched (seconds on the replay clock), and whether the watchdog has
/// already hedged this dispatch.
#[derive(Debug)]
struct SlotState {
    batch: Vec<QueuedRequest>,
    dispatched_s: f64,
    hedged: bool,
}

/// The crash-recovery and watchdog handoff slot: a worker publishes each
/// batch here *before* running it — stamped with its dispatch time — so
/// the supervisor can recover exactly the requests that were in flight when
/// the worker panicked, and the watchdog monitor can detect a dispatch held
/// past its overdue timeout and hedge its riders to a healthy sibling.
/// Publish/clear reuse one pre-reserved buffer — the fault-free steady
/// state allocates nothing.
#[derive(Debug)]
pub struct InFlightSlot {
    slot: Mutex<SlotState>,
}

impl InFlightSlot {
    /// An empty slot pre-reserved for batches up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        InFlightSlot {
            slot: Mutex::new(SlotState {
                batch: Vec::with_capacity(capacity),
                dispatched_s: 0.0,
                hedged: false,
            }),
        }
    }

    /// Records `batch` as the worker's current in-flight work, dispatched
    /// at `now_s` on the replay clock.
    pub fn publish(&self, batch: &[QueuedRequest], now_s: f64) {
        let mut slot = self.slot.lock().expect("in-flight slot poisoned");
        slot.batch.clear();
        slot.batch.extend_from_slice(batch);
        slot.dispatched_s = now_s;
        slot.hedged = false;
    }

    /// Marks the current batch fully accounted (served/requeued/failed):
    /// the monitor stops watching it. A hedge the monitor already claimed
    /// may still land afterwards; the queue refuses it once the request is
    /// decided.
    pub fn clear(&self) {
        self.slot
            .lock()
            .expect("in-flight slot poisoned")
            .batch
            .clear();
    }

    /// Takes whatever was in flight — the crash-recovery path. The slot
    /// mutex is never poisoned by a worker panic: workers only hold the
    /// lock inside [`publish`](Self::publish)/[`clear`](Self::clear), which
    /// cannot unwind mid-critical-section.
    pub fn recover(&self) -> Vec<QueuedRequest> {
        std::mem::take(&mut self.slot.lock().expect("in-flight slot poisoned").batch)
    }

    /// Watchdog probe: the current dispatch's stamp and hedged flag, or
    /// `None` while the worker holds nothing.
    pub fn probe(&self) -> Option<(f64, bool)> {
        let slot = self.slot.lock().expect("in-flight slot poisoned");
        if slot.batch.is_empty() {
            None
        } else {
            Some((slot.dispatched_s, slot.hedged))
        }
    }

    /// Claims the current dispatch for hedging when it is overdue at
    /// `now_s` (held longer than `timeout_s`) and not already hedged:
    /// marks it hedged and copies its riders into `out` (cleared first).
    /// Returns `false` — with `out` cleared — when the slot is idle, the
    /// dispatch is on time, or it was already hedged. The occupancy and
    /// age re-check under the slot lock means a dispatch that completed
    /// (or changed) since the caller's probe is never claimed.
    pub fn overdue_riders(&self, now_s: f64, timeout_s: f64, out: &mut Vec<QueuedRequest>) -> bool {
        out.clear();
        let mut slot = self.slot.lock().expect("in-flight slot poisoned");
        if slot.batch.is_empty() || slot.hedged || now_s - slot.dispatched_s <= timeout_s {
            return false;
        }
        slot.hedged = true;
        out.extend_from_slice(&slot.batch);
        true
    }
}

/// Routes one failed serve attempt: requeue for another try while the
/// request has retry budget left (original arrival stamp preserved —
/// [`QueuedRequest::retry`] bumps only the count), otherwise fail it
/// permanently with a counted [`RejectReason::Failed`] rejection (a hedged
/// request's live sibling still decides it, see [`ArrivalQueue::fail`]).
///
/// [`RejectReason::Failed`]: centaur_dlrm::RejectReason::Failed
pub fn requeue_or_fail(queue: &ArrivalQueue, request: QueuedRequest, retry_limit: u32) {
    if request.retries < retry_limit {
        queue.requeue(request.retry());
    } else {
        queue.fail(request);
    }
}

/// Per-replica health classification driving quarantine decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Serving normally.
    Healthy,
    /// Recently struck (overdue dispatch, transient, or over-timeout
    /// service) or freshly re-admitted from quarantine: still serving, but
    /// strikes now escalate to quarantine, and it takes consecutive clean
    /// batches to return to [`Healthy`](Self::Healthy).
    Probation,
    /// Pulled from rotation: the replica stops pulling work until its
    /// exponential-backoff probe delay expires, then re-admits on
    /// probation. Distinct from the crash restart budget — a quarantined
    /// replica is alive, just distrusted.
    Quarantined,
}

/// One replica's health ledger.
#[derive(Debug)]
struct HealthState {
    state: ReplicaHealth,
    strikes: u32,
    clean: u32,
    quarantined_until_s: f64,
    backoff_s: f64,
    quarantines: usize,
    readmissions: usize,
}

/// Pool-wide replica health scoring: per-replica overdue, transient and
/// over-timeout service strikes feed a [`ReplicaHealth`] state machine
/// (Healthy → Probation → Quarantined). Workers consult
/// [`may_pull`](Self::may_pull) before taking work; quarantined replicas
/// re-admit via exponential-backoff probes. All state is per-replica behind
/// its own mutex — scoring never contends with the arrival queue's lock.
#[derive(Debug)]
pub struct HealthBoard {
    replicas: Vec<Mutex<HealthState>>,
    timeout_s: f64,
    strike_limit: u32,
    base_backoff_s: f64,
}

impl HealthBoard {
    /// A board for `replicas` workers: a batch held or served past
    /// `timeout_s` is a strike, `strike_limit` strikes quarantine the
    /// replica, and quarantine backoff starts at `backoff` (doubling on
    /// each re-quarantine, reset when the replica earns `Healthy` back).
    pub fn new(replicas: usize, timeout_s: f64, strike_limit: u32, backoff: Duration) -> Self {
        HealthBoard {
            replicas: (0..replicas)
                .map(|_| {
                    Mutex::new(HealthState {
                        state: ReplicaHealth::Healthy,
                        strikes: 0,
                        clean: 0,
                        quarantined_until_s: 0.0,
                        backoff_s: backoff.as_secs_f64(),
                        quarantines: 0,
                        readmissions: 0,
                    })
                })
                .collect(),
            timeout_s,
            strike_limit: strike_limit.max(1),
            base_backoff_s: backoff.as_secs_f64(),
        }
    }

    /// Records one served batch: counts a strike when service exceeded the
    /// timeout, and otherwise credits a clean batch (probation works back
    /// to healthy after [`PROBATION_CLEAN_BATCHES`] of them; healthy
    /// replicas decay one strike per clean batch).
    pub fn record_service(&self, replica: usize, service_s: f64, now_s: f64) {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        if service_s > self.timeout_s {
            self.strike(&mut s, now_s);
            return;
        }
        match s.state {
            ReplicaHealth::Healthy => s.strikes = s.strikes.saturating_sub(1),
            ReplicaHealth::Probation => {
                s.clean += 1;
                if s.clean >= PROBATION_CLEAN_BATCHES {
                    s.state = ReplicaHealth::Healthy;
                    s.strikes = 0;
                    s.clean = 0;
                    s.backoff_s = self.base_backoff_s;
                }
            }
            ReplicaHealth::Quarantined => {}
        }
    }

    /// Records a watchdog-detected overdue dispatch: one strike.
    pub fn record_overdue(&self, replica: usize, now_s: f64) {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        self.strike(&mut s, now_s);
    }

    /// Records a transient/datapath failure on the replica: one strike.
    pub fn record_transient(&self, replica: usize, now_s: f64) {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        self.strike(&mut s, now_s);
    }

    fn strike(&self, s: &mut HealthState, now_s: f64) {
        if s.state == ReplicaHealth::Quarantined {
            return;
        }
        s.strikes += 1;
        s.clean = 0;
        if s.state == ReplicaHealth::Healthy {
            s.state = ReplicaHealth::Probation;
        }
        if s.strikes >= self.strike_limit {
            s.state = ReplicaHealth::Quarantined;
            s.quarantined_until_s = now_s + s.backoff_s;
            s.backoff_s *= 2.0;
            s.quarantines += 1;
            s.strikes = 0;
        }
    }

    /// Whether the replica may pull work right now. A quarantined replica
    /// whose backoff expired re-admits here — onto probation, counted as a
    /// re-admission.
    pub fn may_pull(&self, replica: usize, now_s: f64) -> bool {
        let mut s = self.replicas[replica].lock().expect("health poisoned");
        match s.state {
            ReplicaHealth::Quarantined => {
                if now_s >= s.quarantined_until_s {
                    s.state = ReplicaHealth::Probation;
                    s.clean = 0;
                    s.readmissions += 1;
                    true
                } else {
                    false
                }
            }
            _ => true,
        }
    }

    /// The replica's current classification.
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.replicas[replica]
            .lock()
            .expect("health poisoned")
            .state
    }

    /// Quarantine entries across the pool so far.
    pub fn quarantines(&self) -> usize {
        self.replicas
            .iter()
            .map(|s| s.lock().expect("health poisoned").quarantines)
            .sum()
    }

    /// Backoff-probe re-admissions across the pool so far.
    pub fn readmissions(&self) -> usize {
        self.replicas
            .iter()
            .map(|s| s.lock().expect("health poisoned").readmissions)
            .sum()
    }
}

/// State every replica of one run shares: the pool-wide restart budget, the
/// live count and the first crash's preserved payload.
pub(crate) struct SupervisorShared {
    /// Restarts consumed from the pool-wide budget.
    pub restarts: AtomicUsize,
    /// Replicas still alive (dead = crashed beyond the restart budget).
    pub live: AtomicUsize,
    /// The first crash's original panic payload, preserved for
    /// `resume_unwind` should the run become unrecoverable.
    pub payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl SupervisorShared {
    pub fn new(replicas: usize) -> Self {
        SupervisorShared {
            restarts: AtomicUsize::new(0),
            live: AtomicUsize::new(replicas),
            payload: Mutex::new(None),
        }
    }

    /// Takes the preserved payload, if a replica died.
    pub fn take_payload(&self) -> Option<Box<dyn Any + Send>> {
        self.payload.lock().expect("payload slot poisoned").take()
    }

    /// Claims one restart from the pool-wide budget; `false` once spent.
    pub fn try_consume_restart(&self, budget: usize) -> bool {
        let mut used = self.restarts.load(Ordering::Relaxed);
        loop {
            if used >= budget {
                return false;
            }
            match self.restarts.compare_exchange(
                used,
                used + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => used = actual,
            }
        }
    }

    /// Records a replica death (preserving the first payload) and returns
    /// `true` when it was the last live replica — the unrecoverable state.
    pub fn replica_died(&self, payload: Box<dyn Any + Send>) -> bool {
        let mut slot = self.payload.lock().expect("payload slot poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        self.live.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BatchPolicy;

    #[test]
    fn in_flight_slot_publishes_and_recovers_the_exact_batch() {
        let slot = InFlightSlot::new(4);
        let batch = [
            QueuedRequest::new(3, 0.001),
            QueuedRequest::new(4, 0.002).retry(),
        ];
        slot.publish(&batch, 0.01);
        let recovered = slot.recover();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].index, 3);
        assert_eq!(recovered[1].retries, 1, "retry metadata survives recovery");
        assert!(slot.recover().is_empty(), "recovery drains the slot");
        slot.publish(&batch, 0.02);
        slot.clear();
        assert_eq!(slot.probe(), None, "a cleared slot is idle");
        assert!(
            slot.recover().is_empty(),
            "cleared batches are not recovered"
        );
    }

    /// The watchdog handshake: an overdue dispatch is claimed exactly once,
    /// an on-time or already-hedged one never, and the next dispatch starts
    /// unclaimed.
    #[test]
    fn overdue_riders_claims_an_overdue_dispatch_once() {
        let slot = InFlightSlot::new(4);
        let mut riders = Vec::new();
        assert!(
            !slot.overdue_riders(10.0, 0.001, &mut riders),
            "idle slot has nothing overdue"
        );
        let batch = [QueuedRequest::new(7, 0.0)];
        slot.publish(&batch, 1.0);
        assert!(
            !slot.overdue_riders(1.0005, 0.001, &mut riders),
            "on-time dispatch is not claimed"
        );
        assert!(slot.overdue_riders(1.5, 0.001, &mut riders));
        assert_eq!(riders.len(), 1);
        assert_eq!(riders[0].index, 7);
        assert!(
            !slot.overdue_riders(2.0, 0.001, &mut riders),
            "a dispatch is hedged at most once"
        );
        assert_eq!(slot.probe(), Some((1.0, true)), "the claim is visible");
        slot.clear();
        slot.publish(&batch, 3.0);
        assert_eq!(
            slot.probe(),
            Some((3.0, false)),
            "fresh dispatch, fresh flag"
        );
    }

    #[test]
    fn requeue_or_fail_respects_the_retry_budget() {
        let queue = ArrivalQueue::new();
        let mut batch = Vec::new();
        // Budget 1: first failure requeues, second fails permanently.
        assert!(queue.push(QueuedRequest::new(0, 0.0)));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        requeue_or_fail(&queue, batch[0], 1);
        assert_eq!(queue.depth(), 1, "first failure requeues");
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert_eq!(batch[0].retries, 1);
        requeue_or_fail(&queue, batch[0], 1);
        assert_eq!(queue.depth(), 0, "budget exhausted");
        assert_eq!(queue.failed(), 1);
        // Budget 0 fails immediately.
        assert!(queue.push(QueuedRequest::new(1, 0.0)));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        requeue_or_fail(&queue, batch[0], 0);
        assert_eq!(queue.failed(), 2);
    }

    /// Walks one replica through the whole health state machine: strikes to
    /// probation, probation to quarantine, backoff re-admission, clean
    /// batches back to healthy — with the backoff doubling on a
    /// re-quarantine and resetting on recovery.
    #[test]
    fn health_board_walks_probation_quarantine_and_backoff_readmission() {
        let board = HealthBoard::new(2, 0.010, 2, Duration::from_millis(40));
        assert_eq!(board.health(0), ReplicaHealth::Healthy);
        assert!(board.may_pull(0, 0.0));
        // First strike: probation, still pulling.
        board.record_overdue(0, 0.001);
        assert_eq!(board.health(0), ReplicaHealth::Probation);
        assert!(board.may_pull(0, 0.001));
        // Second strike hits the limit: quarantined, not pulling.
        board.record_transient(0, 0.002);
        assert_eq!(board.health(0), ReplicaHealth::Quarantined);
        assert_eq!(board.quarantines(), 1);
        assert!(!board.may_pull(0, 0.010), "backoff still running");
        // Backoff expiry re-admits onto probation.
        assert!(board.may_pull(0, 0.050), "probe re-admits after 40 ms");
        assert_eq!(board.readmissions(), 1);
        assert_eq!(board.health(0), ReplicaHealth::Probation);
        // A slow batch (service over the timeout) re-strikes straight back
        // to quarantine (probation needed 2 strikes, it had 0 after reset
        // ... one over-timeout service is one strike, second strikes it out).
        board.record_service(0, 0.020, 0.051);
        board.record_service(0, 0.020, 0.052);
        assert_eq!(board.health(0), ReplicaHealth::Quarantined);
        assert_eq!(board.quarantines(), 2);
        assert!(
            !board.may_pull(0, 0.100),
            "doubled backoff (80 ms) still running at +48 ms"
        );
        assert!(board.may_pull(0, 0.140), "doubled backoff expires");
        assert_eq!(board.readmissions(), 2);
        // Two clean batches earn healthy back and reset the backoff.
        board.record_service(0, 0.002, 0.141);
        board.record_service(0, 0.002, 0.142);
        assert_eq!(board.health(0), ReplicaHealth::Healthy);
        // The sibling replica was never touched.
        assert_eq!(board.health(1), ReplicaHealth::Healthy);
        assert_eq!(board.quarantines(), 2, "counts are per-pool sums");
    }

    #[test]
    fn restart_budget_is_pool_wide_and_exact() {
        let shared = SupervisorShared::new(2);
        assert!(shared.try_consume_restart(2));
        assert!(shared.try_consume_restart(2));
        assert!(!shared.try_consume_restart(2), "budget of 2 allows 2");
        assert_eq!(shared.restarts.load(Ordering::Relaxed), 2);
        assert!(!SupervisorShared::new(1).try_consume_restart(0));
    }

    #[test]
    fn last_replica_death_is_flagged_and_first_payload_kept() {
        let shared = SupervisorShared::new(2);
        assert!(
            !shared.replica_died(Box::new("first crash")),
            "one of two deaths is survivable"
        );
        assert!(
            shared.replica_died(Box::new("second crash")),
            "last death is unrecoverable"
        );
        let payload = shared.take_payload().unwrap();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("first crash"),
            "the first crash's payload is the one preserved"
        );
    }
}
