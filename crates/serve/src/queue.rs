//! The shared arrival queue between the load generator and the replica
//! workers: requests land as they arrive and workers coalesce them into
//! batches according to the [`BatchPolicy`].
//!
//! Two structures hold the queue's state:
//!
//! * the **backlog**, one `VecDeque` kept in deadline order. Dequeue is
//!   always earliest deadline first, ties in enqueue order. An arrival
//!   whose deadline is no earlier than the back's appends; a requeue, a
//!   hedge clone or an arrival from a second interleaved generator that
//!   is more urgent is inserted at its deadline's place. Without an SLO
//!   every deadline ties, and with one SLO per queue deadline order is
//!   arrival order, so FIFO needs no path of its own;
//! * the **fate table**, one byte per request index: how many copies of
//!   the request are live (the original, plus at most one hedge clone)
//!   and whether its result has been counted. First-result-wins hedging,
//!   suppressing a stale copy, and refusing to hedge an answered request
//!   all read it, so the queue needs no word from the worker about
//!   whether a batch was hedged.
//!
//! Overload protection lives here as two independently switchable gates
//! configured through [`AdmissionConfig`]:
//!
//! * an **admission gate** — [`ArrivalQueue::push`] refuses new requests
//!   while the queue already holds `max_depth` of them, so a burst sheds at
//!   the door instead of building unbounded backlog every queued request
//!   then pays for;
//! * **dequeue shedding** — [`ArrivalQueue::pop_batch`] drops requests whose
//!   deadline has already passed, so dead work never reaches the
//!   accelerator.
//!
//! Both gates count what they shed (never silently) and park the shed
//! requests in a log the harness drains into per-request rejections.

use crate::policy::BatchPolicy;
use centaur_dlrm::RejectReason;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One queued query: which pre-generated request arrived, when it was
/// scheduled to arrive (seconds from experiment start — the open-loop
/// latency clock starts here, not at enqueue time), and when its answer
/// stops being useful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// Index into the experiment's pre-generated request set.
    pub index: usize,
    /// Scheduled arrival offset in seconds from experiment start.
    pub arrival_s: f64,
    /// Deadline offset in seconds from experiment start: the request is
    /// dead once the clock passes this. `f64::INFINITY` means no deadline.
    pub deadline_s: f64,
    /// Times this request has been re-served after a replica crash or
    /// datapath error. `0` on first enqueue; bumped by
    /// [`ArrivalQueue::requeue`]. The original `arrival_s` stamp is kept
    /// across retries — the open-loop latency clock never resets.
    pub retries: u32,
    /// Marks the hedge clone of a request: [`ArrivalQueue::hedge`]
    /// re-enqueues a copy of an overdue in-flight request with this flag
    /// set, so a first-result win can be attributed to the hedge rather
    /// than the straggler. All other stamps match the original's.
    pub hedged: bool,
}

impl QueuedRequest {
    /// A request with no deadline — pre-SLO behaviour.
    pub fn new(index: usize, arrival_s: f64) -> Self {
        QueuedRequest {
            index,
            arrival_s,
            deadline_s: f64::INFINITY,
            retries: 0,
            hedged: false,
        }
    }

    /// A request that must complete within `slo_s` of its scheduled arrival.
    pub fn with_slo(index: usize, arrival_s: f64, slo_s: f64) -> Self {
        QueuedRequest {
            index,
            arrival_s,
            deadline_s: arrival_s + slo_s,
            retries: 0,
            hedged: false,
        }
    }

    /// This request, one retry later. Arrival and deadline stamps are
    /// unchanged — a retried request is still judged against its original
    /// schedule.
    pub fn retry(mut self) -> Self {
        self.retries += 1;
        self
    }
}

/// Overload-protection knobs for an [`ArrivalQueue`]. The default is fully
/// permissive (unbounded depth, no shedding) — exactly the pre-admission
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    /// Refuse new requests while the queue already holds this many.
    /// `None` = unbounded.
    pub max_depth: Option<usize>,
    /// Drop already-dead requests at dequeue instead of serving them.
    pub shed_expired: bool,
}

/// One request's fate: the live copies (original plus hedge clone, in the
/// backlog or in flight) in the low bits, and [`Fate::DONE`] once one copy
/// has decided the request — completed, shed or failed. The done bit stays
/// set until the index is pushed again, so every later copy, requeue or
/// hedge of an answered request is suppressed or refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Fate(u8);

impl Fate {
    const DONE: u8 = 0x80;
    /// A freshly admitted request: one copy, nothing counted yet — the only
    /// state [`ArrivalQueue::hedge`] accepts.
    const LIVE: Fate = Fate(1);

    fn done(self) -> bool {
        self.0 & Self::DONE != 0
    }

    /// Resolves one copy reaching a terminal state and returns whether it
    /// speaks for the request (count it) or is a duplicate (suppress it).
    /// The first *completion* always speaks; a fail or shed only does as
    /// the last copy standing, since a live sibling may still answer.
    fn resolve(&mut self, completion: bool) -> bool {
        assert!(self.0 & !Self::DONE > 0, "resolved a copy that is not live");
        self.0 -= 1;
        let counted = !self.done() && (completion || self.0 == 0);
        if counted {
            self.0 |= Self::DONE;
        }
        counted
    }
}

#[derive(Debug)]
struct QueueState {
    /// Queued-but-unserved requests in dispatch order: deadline, then
    /// enqueue order. Reuses its buffer at steady state.
    backlog: VecDeque<QueuedRequest>,
    /// One entry per request index ever pushed (or reserved).
    fate: Vec<Fate>,
    closed: bool,
    aborted: bool,
    in_flight: usize,
    shed_admission: usize,
    shed_expired: usize,
    failed: usize,
    retries: usize,
    hedged: usize,
    hedge_wins: usize,
    duplicates: usize,
    shed_log: Vec<(QueuedRequest, RejectReason)>,
}

impl QueueState {
    /// Whether every request the queue ever accepted has reached a terminal
    /// state (served, shed, or failed) — nothing queued, nothing in flight.
    fn drained(&self) -> bool {
        self.backlog.is_empty() && self.in_flight == 0
    }

    /// Adds `request` to the backlog at its deadline's place, after every
    /// request with an equal or earlier deadline (`total_cmp`, so
    /// `INFINITY` sorts last). The common case — no earlier than the back —
    /// is a plain append.
    fn enqueue(&mut self, request: QueuedRequest) {
        let deadline = request.deadline_s;
        match self.backlog.back() {
            Some(back) if back.deadline_s.total_cmp(&deadline).is_gt() => {
                let at = self
                    .backlog
                    .partition_point(|q| q.deadline_s.total_cmp(&deadline).is_le());
                self.backlog.insert(at, request);
            }
            _ => self.backlog.push_back(request),
        }
    }

    /// Pops the next dispatchable request off the backlog: suppresses
    /// copies of already-decided requests, sheds expired requests when
    /// `shed` is set (an expired copy with a live sibling is suppressed
    /// instead of counted), and marks the returned request in flight.
    fn next_live(&mut self, shed: bool, now_s: f64) -> Option<QueuedRequest> {
        while let Some(request) = self.backlog.pop_front() {
            let fate = &mut self.fate[request.index];
            if fate.done() || (shed && request.deadline_s < now_s) {
                if fate.resolve(false) {
                    self.shed_expired += 1;
                    self.shed_log.push((request, RejectReason::DeadlineExpired));
                } else {
                    self.duplicates += 1;
                }
                continue;
            }
            self.in_flight += 1;
            return Some(request);
        }
        None
    }
}

/// MPMC arrival queue (mutex + condvar; no external dependencies). The
/// generator pushes, every replica worker pops batches; closing wakes all
/// waiters so workers drain the tail and exit.
#[derive(Debug)]
pub struct ArrivalQueue {
    state: Mutex<QueueState>,
    nonempty: Condvar,
    config: AdmissionConfig,
    start: Mutex<Instant>,
}

impl ArrivalQueue {
    /// Creates an open, empty, fully permissive queue (unbounded depth, no
    /// shedding).
    pub fn new() -> Self {
        ArrivalQueue::with_config(AdmissionConfig::default())
    }

    /// Creates an open, empty queue with the given overload-protection
    /// config. The queue's deadline clock starts now.
    pub fn with_config(config: AdmissionConfig) -> Self {
        ArrivalQueue {
            state: Mutex::new(QueueState {
                backlog: VecDeque::new(),
                fate: Vec::new(),
                closed: false,
                aborted: false,
                in_flight: 0,
                shed_admission: 0,
                shed_expired: 0,
                failed: 0,
                retries: 0,
                hedged: 0,
                hedge_wins: 0,
                duplicates: 0,
                shed_log: Vec::new(),
            }),
            nonempty: Condvar::new(),
            config,
            start: Mutex::new(Instant::now()),
        }
    }

    /// Releases the lock after a copy left the queue's books, waking every
    /// waiter when that drained a closed queue so idle workers can exit.
    fn unlock_settled(&self, state: MutexGuard<'_, QueueState>) {
        let wake = state.closed && state.drained();
        drop(state);
        if wake {
            self.nonempty.notify_all();
        }
    }

    /// The instant the queue's deadline clock started — the experiment
    /// start every `arrival_s`/`deadline_s` offset is measured from.
    pub fn start(&self) -> Instant {
        *self.start.lock().expect("queue clock poisoned")
    }

    /// Restarts the deadline clock at `Instant::now()`. Harnesses call this
    /// after expensive pre-replay setup (replica construction, respawn
    /// template clones) and immediately before spawning the arrival
    /// generator, so that `arrival_s`/`deadline_s` offsets are measured
    /// from the moment the replay actually starts — not from queue
    /// construction, which may predate it by the full setup cost. Must not
    /// be called once requests are in the queue: stamps already issued
    /// against the old clock would be reinterpreted against the new one.
    pub fn restart_clock(&self) {
        *self.start.lock().expect("queue clock poisoned") = Instant::now();
    }

    /// Enqueues one arrived request and wakes a waiting worker. Returns
    /// `false` without enqueueing when the queue is closed, or when the
    /// admission gate sheds the request because the queue is already at its
    /// depth bound (counted in [`shed_admission`](Self::shed_admission)).
    /// An admitted request starts a fresh fate: one live copy, undecided.
    #[must_use = "a rejected push means the request was shed, not queued"]
    pub fn push(&self, request: QueuedRequest) -> bool {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return false;
        }
        if let Some(depth) = self.config.max_depth {
            if state.backlog.len() >= depth {
                state.shed_admission += 1;
                state.shed_log.push((request, RejectReason::QueueFull));
                return false;
            }
        }
        if request.index >= state.fate.len() {
            // Only a queue that was never reserved grows here.
            state.fate.resize(request.index + 1, Fate::default());
        }
        state.fate[request.index] = Fate::LIVE;
        state.enqueue(request);
        drop(state);
        self.nonempty.notify_one();
        true
    }

    /// Marks the arrival stream finished; workers drain what is left and
    /// then observe the close. Pushes after this are rejected.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.nonempty.notify_all();
    }

    /// Closes the queue *and* abandons whatever it still holds: waiting
    /// workers return immediately without draining. This is the
    /// unrecoverable-failure path — the run is aborting, so serving the
    /// tail would only delay the error.
    pub fn close_abort(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        state.aborted = true;
        drop(state);
        self.nonempty.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }

    /// Whether [`close_abort`](Self::close_abort) has been called.
    pub fn is_aborted(&self) -> bool {
        self.state.lock().expect("queue poisoned").aborted
    }

    /// Marks `n` popped requests served. Every request a
    /// [`pop_batch`](Self::pop_batch) hands out is **in flight** until the
    /// worker accounts for it — [`complete`](Self::complete) /
    /// [`complete_batch`](Self::complete_batch),
    /// [`requeue`](Self::requeue) or [`fail`](Self::fail) — and the queue
    /// does not report itself drained while anything is in flight, so a
    /// crashed worker's batch can be recovered and requeued even after
    /// `close()`. Hedge-free paths only: this does not touch the fate
    /// table, so hedged pools must resolve through
    /// [`complete_batch`](Self::complete_batch).
    pub fn complete(&self, n: usize) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.in_flight -= n;
        self.unlock_settled(state);
    }

    /// Marks every request in `batch` served, resolving hedge copies
    /// first-result-wins. `primary` (cleared first) gets one flag per batch
    /// entry: `true` when the worker should record this completion, `false`
    /// when another copy already answered the request — a suppressed
    /// duplicate, counted once in
    /// [`duplicates_suppressed`](Self::duplicates_suppressed), whose answer
    /// must be discarded. A request completed here is decided: a later
    /// [`hedge`](Self::hedge) of it is refused.
    pub fn complete_batch(&self, batch: &[QueuedRequest], primary: &mut Vec<bool>) {
        primary.clear();
        let mut state = self.state.lock().expect("queue poisoned");
        state.in_flight -= batch.len();
        for request in batch {
            let counted = state.fate[request.index].resolve(true);
            if !counted {
                state.duplicates += 1;
            } else if request.hedged {
                state.hedge_wins += 1;
            }
            primary.push(counted);
        }
        self.unlock_settled(state);
    }

    /// Re-enqueues a **hedge clone** of an overdue in-flight request so a
    /// healthy sibling replica races the straggler. The clone keeps the
    /// original arrival/deadline stamps (the open-loop latency clock never
    /// resets) and bypasses the admission gate like a requeue, succeeding
    /// even after `close()`. First result wins: whichever copy finishes
    /// first is counted once and every other copy is suppressed, so
    /// `generated = completed + shed + failed` stays exact with hedges
    /// counted separately.
    ///
    /// Returns `false` without enqueueing unless the request is live with
    /// exactly one copy: when it is already hedged (copies are bounded at
    /// two), when its fate was already decided (the original finished
    /// between the watchdog's overdue check and this call), or when the
    /// queue aborted.
    pub fn hedge(&self, request: QueuedRequest) -> bool {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.aborted || state.fate.get(request.index) != Some(&Fate::LIVE) {
            return false;
        }
        state.fate[request.index] = Fate(2);
        state.hedged += 1;
        state.enqueue(QueuedRequest {
            hedged: true,
            ..request
        });
        drop(state);
        self.nonempty.notify_one();
        true
    }

    /// Returns one in-flight request to the queue for another serve attempt
    /// (bump its retry count with [`QueuedRequest::retry`] first). Requeues
    /// bypass the admission gate and succeed even after `close()` — the
    /// request was already admitted once; recovery must not re-shed it. A
    /// straggler copy of an already-answered hedged request is suppressed
    /// instead of re-queued: re-serving it could only produce a duplicate.
    pub fn requeue(&self, request: QueuedRequest) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.in_flight -= 1;
        let fate = &mut state.fate[request.index];
        if fate.done() {
            fate.resolve(false);
            state.duplicates += 1;
            self.unlock_settled(state);
            return;
        }
        state.retries += 1;
        state.enqueue(request);
        drop(state);
        self.nonempty.notify_one();
    }

    /// Marks one in-flight request permanently failed (retry budget
    /// exhausted): counted, logged with [`RejectReason::Failed`], never
    /// silent. A failed copy whose hedge sibling is still live resolves as
    /// suppressed — the sibling decides the request's fate.
    pub fn fail(&self, request: QueuedRequest) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.in_flight -= 1;
        if state.fate[request.index].resolve(false) {
            state.failed += 1;
            state.shed_log.push((request, RejectReason::Failed));
        } else {
            state.duplicates += 1;
        }
        self.unlock_settled(state);
    }

    /// Queued-but-unserved requests right now.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").backlog.len()
    }

    /// Requests shed at the admission gate so far.
    pub fn shed_admission(&self) -> usize {
        self.state.lock().expect("queue poisoned").shed_admission
    }

    /// Requests shed at dequeue (deadline already passed) so far.
    pub fn shed_expired(&self) -> usize {
        self.state.lock().expect("queue poisoned").shed_expired
    }

    /// Requests permanently failed (retry budget exhausted) so far.
    pub fn failed(&self) -> usize {
        self.state.lock().expect("queue poisoned").failed
    }

    /// Total re-serve attempts ([`requeue`](Self::requeue) calls) so far.
    pub fn retries(&self) -> usize {
        self.state.lock().expect("queue poisoned").retries
    }

    /// Hedge clones dispatched ([`hedge`](Self::hedge) calls that enqueued
    /// a copy) so far.
    pub fn hedges(&self) -> usize {
        self.state.lock().expect("queue poisoned").hedged
    }

    /// Hedged requests whose **clone** finished first (the hedge paid off)
    /// so far.
    pub fn hedge_wins(&self) -> usize {
        self.state.lock().expect("queue poisoned").hedge_wins
    }

    /// Redundant hedge copies discarded without double-counting — late
    /// originals, losing clones, and suppressed requeues — so far.
    pub fn duplicates_suppressed(&self) -> usize {
        self.state.lock().expect("queue poisoned").duplicates
    }

    /// Whether the arrival stream closed **and** every accepted request
    /// reached a terminal state — the replay is over. Quarantined workers
    /// poll this so a backoff sleep never outlives the replay.
    pub fn is_finished(&self) -> bool {
        let state = self.state.lock().expect("queue poisoned");
        state.closed && state.drained()
    }

    /// Requests popped but not yet completed, requeued or failed.
    pub fn in_flight(&self) -> usize {
        self.state.lock().expect("queue poisoned").in_flight
    }

    /// Pre-sizes the queue for a request set of `requests` indices: the
    /// fate table covers `0..requests` and the shed log holds `requests`
    /// entries (every request shed, the worst case), so neither grows while
    /// the set replays.
    pub fn reserve(&self, requests: usize) {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.fate.len() < requests {
            state.fate.resize(requests, Fate::default());
        }
        state.shed_log.reserve(requests);
    }

    /// Drains and returns every shed request recorded so far with why it
    /// was shed, in shed order (admission and expiry sheds interleaved).
    pub fn take_shed(&self) -> Vec<(QueuedRequest, RejectReason)> {
        std::mem::take(&mut self.state.lock().expect("queue poisoned").shed_log)
    }

    /// Pops the next batch into `out` (cleared first): blocks for the first
    /// live request, then — for a dynamic policy — keeps the batch open
    /// until it fills to `max_batch` or `max_wait` elapses. A deadline-aware
    /// policy additionally closes the batch early when the oldest held
    /// request's remaining slack drops to its `service_estimate`, so the
    /// batch dispatches partial rather than expiring what it already holds.
    /// With `shed_expired` set, already-dead requests are dropped (and
    /// counted) instead of entering the batch.
    ///
    /// Every request handed out is **in flight** until the worker calls
    /// [`complete`](Self::complete), [`requeue`](Self::requeue) or
    /// [`fail`](Self::fail) for it. Returns `false` only when the queue is
    /// closed *and* fully drained — nothing queued **and** nothing in
    /// flight — so requests already queued (or recovered from a crashed
    /// worker) at `close()` are still served or counted-shed, never
    /// silently dropped; or immediately after
    /// [`close_abort`](Self::close_abort), which abandons the drain.
    pub fn pop_batch(&self, policy: BatchPolicy, out: &mut Vec<QueuedRequest>) -> bool {
        out.clear();
        let max_batch = policy.max_batch();
        let shed = self.config.shed_expired;
        let start = self.start();
        let mut state = self.state.lock().expect("queue poisoned");
        // Block until the batch opens with a live request.
        loop {
            if state.aborted {
                return false;
            }
            let now_s = start.elapsed().as_secs_f64();
            if let Some(request) = state.next_live(shed, now_s) {
                out.push(request);
                break;
            }
            if state.closed && state.drained() {
                return false;
            }
            state = self.nonempty.wait(state).expect("queue poisoned");
        }
        // Hold-open deadline: the policy's max_wait, tightened for a
        // deadline-aware policy by when the most urgent held request must
        // dispatch to finish inside its SLO. The backlog is deadline
        // ordered, so the first request popped has the earliest deadline.
        let mut hold_until = Instant::now() + policy.max_wait();
        if let Some(slack) = policy.dispatch_slack() {
            let oldest_deadline_s = out[0].deadline_s;
            if oldest_deadline_s.is_finite() {
                let dispatch_by_s = (oldest_deadline_s - slack.as_secs_f64()).max(0.0);
                let dispatch_by = start + Duration::from_secs_f64(dispatch_by_s);
                hold_until = hold_until.min(dispatch_by);
            }
        }
        // Fill the open batch: drain whatever is queued, then wait out the
        // remainder of the hold-open window for co-riders.
        loop {
            let now_s = start.elapsed().as_secs_f64();
            while out.len() < max_batch {
                match state.next_live(shed, now_s) {
                    Some(request) => out.push(request),
                    None => break,
                }
            }
            if out.len() >= max_batch || state.closed {
                break;
            }
            let now = Instant::now();
            if now >= hold_until {
                break;
            }
            let (next, timeout) = self
                .nonempty
                .wait_timeout(state, hold_until - now)
                .expect("queue poisoned");
            state = next;
            if timeout.timed_out() && state.backlog.is_empty() {
                break;
            }
        }
        true
    }
}

impl Default for ArrivalQueue {
    fn default() -> Self {
        ArrivalQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn request(index: usize) -> QueuedRequest {
        QueuedRequest::new(index, index as f64 * 0.001)
    }

    /// A request whose deadline passed before the experiment even started —
    /// definitely dead without any timing dependence in the test.
    fn dead_request(index: usize) -> QueuedRequest {
        QueuedRequest {
            index,
            arrival_s: 0.0,
            deadline_s: -1.0,
            retries: 0,
            hedged: false,
        }
    }

    #[test]
    fn fifo_pops_one_at_a_time_in_order() {
        let queue = ArrivalQueue::new();
        for i in 0..3 {
            assert!(queue.push(request(i)));
        }
        let mut batch = Vec::new();
        for expected in 0..3 {
            assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].index, expected);
        }
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn dynamic_coalesces_everything_queued() {
        let queue = ArrivalQueue::new();
        for i in 0..5 {
            assert!(queue.push(request(i)));
        }
        let policy = BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
        };
        let mut batch = Vec::new();
        assert!(queue.pop_batch(policy, &mut batch));
        assert_eq!(batch.len(), 4, "caps at max_batch");
        assert!(queue.pop_batch(policy, &mut batch));
        assert_eq!(batch.len(), 1, "tail flushes after max_wait");
    }

    #[test]
    fn close_drains_then_stops() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        queue.close();
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert_eq!(batch.len(), 1);
        queue.complete(1);
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert!(batch.is_empty());
    }

    /// Pins the drain-then-close contract: every request already queued
    /// when `close()` fires is either handed to a worker or shed with a
    /// counted reason — the queue never reports drained while anything it
    /// accepted lacks a terminal state, and nothing is silently dropped.
    #[test]
    fn requests_queued_at_close_are_served_or_counted_never_dropped() {
        let queue = ArrivalQueue::with_config(AdmissionConfig {
            max_depth: None,
            shed_expired: true,
        });
        let total = 6;
        for i in 0..total {
            let pushed = if i % 3 == 2 {
                queue.push(dead_request(i))
            } else {
                queue.push(request(i))
            };
            assert!(pushed);
        }
        queue.close();
        let policy = BatchPolicy::Dynamic {
            max_batch: 3,
            max_wait: Duration::from_millis(5),
        };
        let mut batch = Vec::new();
        let mut served = 0;
        while queue.pop_batch(policy, &mut batch) {
            served += batch.len();
            queue.complete(batch.len());
        }
        assert_eq!(
            served + queue.shed_expired(),
            total,
            "every queued request is served or counted-shed at shutdown"
        );
        assert_eq!(queue.shed_expired(), 2);
        assert_eq!(queue.depth(), 0);
        assert_eq!(queue.in_flight(), 0);
    }

    #[test]
    fn pop_waits_for_in_flight_work_and_serves_requeues_after_close() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let held = batch[0];
        queue.close();
        // The queue is closed and empty, but one request is in flight: a
        // second consumer must wait for its terminal state, and a requeue
        // must reach it even though the queue is closed.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut tail = Vec::new();
                let served = queue.pop_batch(BatchPolicy::Fifo, &mut tail);
                (served, tail)
            });
            std::thread::sleep(Duration::from_millis(10));
            queue.requeue(held.retry());
            let (served, tail) = waiter.join().unwrap();
            assert!(served, "requeued request is re-served, not dropped");
            assert_eq!(tail[0].index, 0);
            assert_eq!(tail[0].retries, 1, "retry count rode along");
            assert_eq!(
                tail[0].arrival_s, held.arrival_s,
                "original arrival stamp preserved across the retry"
            );
            queue.complete(1);
        });
        assert_eq!(queue.retries(), 1);
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch));
    }

    #[test]
    fn fail_records_a_counted_rejection_and_drains_the_queue() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        assert!(queue.push(request(1)));
        queue.close();
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        queue.complete(1);
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        queue.fail(batch[0].retry().retry());
        assert_eq!(queue.failed(), 1);
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch), "drained");
        let shed = queue.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.index, 1);
        assert_eq!(shed[0].0.retries, 2, "exhausted budget rides in the log");
        assert_eq!(shed[0].1, RejectReason::Failed);
    }

    #[test]
    fn close_abort_abandons_the_drain() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        assert!(queue.push(request(1)));
        queue.close_abort();
        assert!(queue.is_closed());
        assert!(queue.is_aborted());
        let mut batch = Vec::new();
        assert!(
            !queue.pop_batch(BatchPolicy::Fifo, &mut batch),
            "aborted queue stops workers immediately, tail unserved"
        );
    }

    #[test]
    fn push_after_close_is_rejected_not_silently_queued() {
        let queue = ArrivalQueue::new();
        queue.close();
        assert!(queue.is_closed());
        assert!(!queue.push(request(0)), "closed queue must refuse pushes");
        assert_eq!(queue.depth(), 0, "nothing may enqueue after close");
        // A rejected-at-close push is not a shed: the stream itself ended.
        assert_eq!(queue.shed_admission(), 0);
    }

    #[test]
    fn admission_gate_sheds_exactly_the_overflow() {
        let queue = ArrivalQueue::with_config(AdmissionConfig {
            max_depth: Some(2),
            shed_expired: false,
        });
        assert!(queue.push(request(0)));
        assert!(queue.push(request(1)));
        assert!(!queue.push(request(2)), "third push exceeds depth 2");
        assert!(!queue.push(request(3)));
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.shed_admission(), 2);
        assert_eq!(queue.shed_expired(), 0);
        let shed: Vec<(usize, RejectReason)> = queue
            .take_shed()
            .iter()
            .map(|&(q, reason)| (q.index, reason))
            .collect();
        assert_eq!(
            shed,
            vec![(2, RejectReason::QueueFull), (3, RejectReason::QueueFull)],
            "shed log records exactly the overflow"
        );
        // Draining one slot re-opens admission.
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert!(queue.push(request(4)));
        assert_eq!(queue.shed_admission(), 2, "re-admitted push is not a shed");
    }

    #[test]
    fn expired_requests_are_shed_at_dequeue_with_exact_counters() {
        let queue = ArrivalQueue::with_config(AdmissionConfig {
            max_depth: None,
            shed_expired: true,
        });
        assert!(queue.push(dead_request(0)));
        assert!(queue.push(request(1)));
        assert!(queue.push(dead_request(2)));
        assert!(queue.push(request(3)));
        queue.close();
        let policy = BatchPolicy::Dynamic {
            max_batch: 8,
            max_wait: Duration::from_millis(10),
        };
        let mut batch = Vec::new();
        assert!(queue.pop_batch(policy, &mut batch));
        let served: Vec<usize> = batch.iter().map(|q| q.index).collect();
        assert_eq!(served, vec![1, 3], "only live requests reach the batch");
        queue.complete(batch.len());
        assert_eq!(queue.shed_expired(), 2);
        assert_eq!(queue.shed_admission(), 0);
        let shed: Vec<(usize, RejectReason)> = queue
            .take_shed()
            .iter()
            .map(|&(q, reason)| (q.index, reason))
            .collect();
        assert_eq!(
            shed,
            vec![
                (0, RejectReason::DeadlineExpired),
                (2, RejectReason::DeadlineExpired),
            ]
        );
        assert!(!queue.pop_batch(policy, &mut batch), "queue is drained");
    }

    #[test]
    fn all_expired_and_closed_pops_nothing_but_counts_everything() {
        let queue = ArrivalQueue::with_config(AdmissionConfig {
            max_depth: None,
            shed_expired: true,
        });
        assert!(queue.push(dead_request(0)));
        assert!(queue.push(dead_request(1)));
        queue.close();
        let mut batch = Vec::new();
        assert!(
            !queue.pop_batch(BatchPolicy::Fifo, &mut batch),
            "a queue of only dead requests produces no batch"
        );
        assert!(batch.is_empty());
        assert_eq!(queue.shed_expired(), 2);
    }

    #[test]
    fn without_shedding_expired_requests_are_still_served() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(dead_request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert_eq!(batch[0].index, 0, "permissive queue serves dead requests");
        assert_eq!(queue.shed_expired(), 0);
    }

    #[test]
    fn deadline_policy_dispatches_partial_batch_before_the_slo_expires() {
        let queue = ArrivalQueue::new();
        // One lone request whose deadline is 50 ms out; the policy would
        // otherwise hold the batch open for 10 s waiting for co-riders.
        let lone = QueuedRequest {
            index: 0,
            arrival_s: 0.0,
            deadline_s: 0.05,
            retries: 0,
            hedged: false,
        };
        assert!(queue.push(lone));
        let policy = BatchPolicy::Deadline {
            max_batch: 64,
            max_wait: Duration::from_secs(10),
            service_estimate: Duration::from_millis(5),
        };
        let mut batch = Vec::new();
        let popped_in = Instant::now();
        assert!(queue.pop_batch(policy, &mut batch));
        let waited = popped_in.elapsed();
        assert_eq!(batch.len(), 1, "dispatches partial rather than expiring");
        assert!(
            waited < Duration::from_secs(2),
            "batch dispatched by the deadline, not after max_wait ({waited:?})"
        );
    }

    /// Pins the one backlog order: batches come out in non-decreasing
    /// deadline order regardless of arrival order, equal deadlines keep
    /// arrival order, and no-deadline requests sort last.
    #[test]
    fn edf_pops_in_deadline_order_not_arrival_order() {
        let queue = ArrivalQueue::new();
        let deadlines = [0.9, 0.3, f64::INFINITY, 0.3, 0.1];
        for (i, &deadline_s) in deadlines.iter().enumerate() {
            assert!(queue.push(QueuedRequest {
                index: i,
                arrival_s: 0.0,
                deadline_s,
                retries: 0,
                hedged: false,
            }));
        }
        queue.close();
        let policy = BatchPolicy::Dynamic {
            max_batch: 8,
            max_wait: Duration::from_millis(5),
        };
        let mut batch = Vec::new();
        assert!(queue.pop_batch(policy, &mut batch));
        let order: Vec<usize> = batch.iter().map(|q| q.index).collect();
        assert_eq!(
            order,
            vec![4, 1, 3, 0, 2],
            "earliest deadline first; 0.3-tie keeps arrival order (1 before 3); INFINITY last"
        );
        queue.complete(batch.len());
    }

    #[test]
    fn edf_requeue_resorts_by_deadline_and_keeps_stamps() {
        let queue = ArrivalQueue::new();
        // A patient request queued first, an urgent one second.
        assert!(queue.push(QueuedRequest::with_slo(0, 0.0, 60.0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let held = batch[0];
        assert!(queue.push(QueuedRequest::with_slo(1, 0.0, 1.0)));
        // Requeueing the patient request must not jump it ahead of the
        // urgent one: it re-enters now but keeps its original
        // arrival/deadline stamps, so it sorts behind index 1.
        queue.requeue(held.retry());
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert_eq!(batch[0].index, 1, "urgent request still dispatches first");
        queue.complete(1);
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert_eq!(batch[0].index, 0);
        assert_eq!(batch[0].retries, 1);
        assert_eq!(batch[0].arrival_s, 0.0, "stamps survive the requeue");
        assert_eq!(batch[0].deadline_s, 60.0);
        queue.complete(1);
    }

    /// Walks the canonical hedge race: an in-flight request is hedged, the
    /// clone is dispatched to a sibling, and whichever copy completes first
    /// is counted exactly once while the straggler's late answer is
    /// suppressed exactly once.
    #[test]
    fn hedge_counts_first_result_once_and_suppresses_the_straggler() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let original = batch[0];
        assert!(queue.hedge(original), "first hedge dispatches a clone");
        assert!(!queue.hedge(original), "copies are bounded at two");
        assert_eq!(queue.hedges(), 1);
        // A sibling worker picks up the clone.
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let clone = batch[0];
        assert!(clone.hedged, "the clone carries the hedge marker");
        assert_eq!(clone.index, original.index);
        assert_eq!(clone.arrival_s, original.arrival_s, "stamps preserved");
        assert_eq!(queue.in_flight(), 2);
        // The clone finishes first: counted, and attributed as a hedge win.
        let mut primary = Vec::new();
        queue.complete_batch(&[clone], &mut primary);
        assert_eq!(primary, vec![true]);
        assert_eq!(queue.hedge_wins(), 1);
        // The straggler's late answer is discarded once.
        queue.complete_batch(&[original], &mut primary);
        assert_eq!(primary, vec![false]);
        assert_eq!(queue.duplicates_suppressed(), 1);
        queue.close();
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch), "drained");
    }

    #[test]
    fn original_completing_first_wins_without_a_hedge_win() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let original = batch[0];
        assert!(queue.hedge(original));
        let mut primary = Vec::new();
        queue.complete_batch(&[original], &mut primary);
        assert_eq!(primary, vec![true], "first result is counted");
        assert_eq!(queue.hedge_wins(), 0, "the straggler won its own race");
        // The clone still sits in the backlog: the next pop suppresses it
        // instead of serving a duplicate.
        queue.close();
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert_eq!(queue.duplicates_suppressed(), 1);
        assert_eq!(queue.depth(), 0);
        assert_eq!(queue.in_flight(), 0);
    }

    /// The watchdog race: the worker resolves its batch after the monitor
    /// claimed it as overdue but before the monitor's `hedge()` call lands.
    /// The request's done bit must cancel the late hedge so no duplicate of
    /// an answered request is ever dispatched.
    #[test]
    fn late_hedge_of_an_answered_request_is_cancelled() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let original = batch[0];
        let mut primary = Vec::new();
        // The worker completes first.
        queue.complete_batch(&[original], &mut primary);
        assert_eq!(primary, vec![true]);
        // The monitor's hedge call lands afterwards: cancelled, no clone.
        assert!(!queue.hedge(original), "late hedge is cancelled");
        assert_eq!(queue.depth(), 0, "no duplicate was enqueued");
        assert_eq!(queue.hedges(), 0);
        queue.close();
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch), "drained");
    }

    /// A decided request cannot be hedged, whatever decided it: the
    /// queue learns nothing from the worker, and the done bit alone
    /// refuses the clone until the index is pushed again.
    #[test]
    fn hedge_of_a_decided_request_is_refused_until_it_is_pushed_again() {
        let queue = ArrivalQueue::new();
        let mut batch = Vec::new();
        let mut primary = Vec::new();
        assert!(queue.push(request(0)));
        assert!(queue.push(request(1)));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let completed = batch[0];
        queue.complete_batch(&[completed], &mut primary);
        assert_eq!(primary, vec![true]);
        assert!(!queue.hedge(completed), "an answered request is not hedged");
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let failed = batch[0];
        queue.fail(failed);
        assert!(!queue.hedge(failed), "a failed request is not hedged");
        assert_eq!(queue.depth(), 0, "no clone was enqueued");
        assert_eq!(queue.hedges(), 0);
        // The same index admitted again starts a fresh fate.
        assert!(queue.push(request(0)));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        assert!(queue.hedge(batch[0]), "a re-admitted request is live again");
        queue.complete_batch(&batch, &mut primary);
        queue.close();
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch), "drained");
        assert_eq!(queue.duplicates_suppressed(), 1, "the clone was suppressed");
    }

    #[test]
    fn failed_copy_with_a_live_sibling_lets_the_sibling_answer() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let original = batch[0];
        assert!(queue.hedge(original));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let clone = batch[0];
        // The straggler exhausts its retry budget while the clone is live:
        // the failure is suppressed, the clone decides the fate.
        queue.fail(original);
        assert_eq!(queue.failed(), 0, "a live sibling may still answer");
        assert_eq!(queue.duplicates_suppressed(), 1);
        let mut primary = Vec::new();
        queue.complete_batch(&[clone], &mut primary);
        assert_eq!(primary, vec![true]);
        assert_eq!(queue.hedge_wins(), 1);
        queue.close();
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch), "drained");
    }

    #[test]
    fn both_copies_failing_counts_one_failure() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let original = batch[0];
        assert!(queue.hedge(original));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let clone = batch[0];
        queue.fail(original);
        queue.fail(clone);
        assert_eq!(queue.failed(), 1, "the request failed exactly once");
        assert_eq!(queue.duplicates_suppressed(), 1);
        let shed = queue.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].1, RejectReason::Failed);
        queue.close();
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch), "drained");
    }

    #[test]
    fn requeue_of_an_answered_hedged_request_is_suppressed() {
        let queue = ArrivalQueue::new();
        assert!(queue.push(request(0)));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let original = batch[0];
        assert!(queue.hedge(original));
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let clone = batch[0];
        let mut primary = Vec::new();
        queue.complete_batch(&[clone], &mut primary);
        assert_eq!(primary, vec![true]);
        // A transient error makes the straggler's worker requeue it — but
        // the request is already answered, so it must not re-enter.
        queue.requeue(original.retry());
        assert_eq!(queue.depth(), 0, "answered request never re-enters");
        assert_eq!(queue.retries(), 0, "suppressed requeue is not a retry");
        assert_eq!(queue.duplicates_suppressed(), 1);
        queue.close();
        assert!(!queue.pop_batch(BatchPolicy::Fifo, &mut batch), "drained");
    }

    #[test]
    fn expired_clone_with_a_live_original_suppresses_instead_of_shedding() {
        let queue = ArrivalQueue::with_config(AdmissionConfig {
            max_depth: None,
            shed_expired: true,
        });
        let short = QueuedRequest::with_slo(0, 0.0, 0.015);
        assert!(queue.push(short));
        let mut batch = Vec::new();
        assert!(queue.pop_batch(BatchPolicy::Fifo, &mut batch));
        let original = batch[0];
        assert!(queue.hedge(original));
        // Let the clone expire in the backlog while the original is served.
        std::thread::sleep(Duration::from_millis(30));
        queue.close();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut tail = Vec::new();
                queue.pop_batch(BatchPolicy::Fifo, &mut tail)
            });
            std::thread::sleep(Duration::from_millis(10));
            let mut primary = Vec::new();
            queue.complete_batch(&[original], &mut primary);
            assert_eq!(primary, vec![true], "the original still answers");
            assert!(
                !waiter.join().unwrap(),
                "expired clone never reaches a worker"
            );
        });
        assert_eq!(queue.shed_expired(), 0, "live sibling suppresses the shed");
        assert_eq!(queue.duplicates_suppressed(), 1);
        assert!(queue.is_finished());
    }

    #[test]
    fn workers_block_until_arrivals_land() {
        let queue = ArrivalQueue::new();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut batch = Vec::new();
                let served = queue.pop_batch(BatchPolicy::Fifo, &mut batch);
                (served, batch)
            });
            std::thread::sleep(Duration::from_millis(10));
            assert!(queue.push(request(9)));
            let (served, batch) = worker.join().unwrap();
            assert!(served);
            assert_eq!(batch[0].index, 9);
        });
    }
}
