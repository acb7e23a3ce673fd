//! Deterministic fault injection for the serving layer.
//!
//! A [`FaultPlan`] schedules crash / stall / transient-error events against
//! specific replicas at specific times into the replay. Each replica worker
//! carries a [`FaultGuard`] — the per-replica slice of the plan — and polls
//! it once per coalesced batch, *after* the batch has been popped and
//! published as in-flight, so an injected crash takes a real in-flight
//! batch down with it exactly like a production node loss would.
//!
//! Plans are either built explicitly ([`FaultPlan::new`]) or sampled
//! deterministically from a seeded [`FaultSpec`] via the workload crate's
//! [`FaultScheduleSampler`](centaur_workload::FaultScheduleSampler)
//! ([`FaultPlan::seeded`]).

use centaur::CentaurError;
use centaur_workload::FaultScheduleSampler;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What an injected fault does to the replica worker that polls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker panics mid-batch (after publishing its in-flight batch) —
    /// a process/node crash. The supervisor recovers the in-flight batch
    /// and restarts the replica against the restart budget.
    Crash,
    /// The worker sleeps for `millis` while holding its batch — a GC pause,
    /// a page-in storm, a slow NIC. No state is lost; the held requests age
    /// (and may miss their deadlines), siblings absorb the load.
    Stall {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The current batch fails with a datapath error but the replica
    /// survives — a parity error, a flaky link. The batch is requeued
    /// against each request's retry budget.
    Transient,
    /// The replica becomes **persistently** `factor`× slower from this
    /// event on — a thermally throttled core, a failing DIMM retraining, a
    /// noisy neighbour. Nothing is lost and no error surfaces: every
    /// subsequent batch just takes `factor`× its true service time, the
    /// slow-node tail the watchdog + quarantine machinery exists to
    /// contain.
    Degraded {
        /// Service-time multiplier (≥ 2 to have any effect; 1 is a no-op).
        factor: u32,
    },
}

impl FaultKind {
    /// Short label (`crash`, `stall`, `transient`, `degraded`).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Transient => "transient",
            FaultKind::Degraded { .. } => "degraded",
        }
    }
}

/// One scheduled fault: which replica, when (seconds from replay start),
/// and what happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Index of the replica the fault targets (events targeting replicas
    /// beyond the pool size never fire).
    pub replica: usize,
    /// Offset into the replay, seconds, at which the event becomes due. It
    /// fires on the victim's first batch at or after this offset.
    pub at_s: f64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events for one serving run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults injected (the fault-free fast path).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (sorted by time per replica).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite fault times"));
        FaultPlan { events }
    }

    /// Samples a plan from a seeded [`FaultSpec`]: `spec.crashes` crash
    /// events, `spec.stalls` stalls, `spec.transients` transient errors and
    /// `spec.degraded` persistent slowdowns, each at a deterministic
    /// mid-replay offset within `window_s` against a deterministic victim
    /// in `0..replicas`. With `spec.repeat_stalls` set, the stall events
    /// instead form a repeating/intermittent schedule — evenly spaced
    /// jittered offsets across the replay window (see
    /// [`FaultScheduleSampler::repeating_offsets_s`]) all striking the
    /// same victim, the flapping slow node a single mid-replay stall
    /// cannot model.
    pub fn seeded(spec: FaultSpec, replicas: usize, window_s: f64) -> Self {
        let mut sampler = FaultScheduleSampler::new(spec.seed);
        let mut events = Vec::with_capacity(spec.count());
        let stall = FaultKind::Stall {
            millis: spec.stall_ms.max(1),
        };
        if spec.repeat_stalls && spec.stalls > 0 {
            let victim = sampler.replica(replicas);
            for at_s in sampler.repeating_offsets_s(spec.stalls, window_s) {
                events.push(FaultEvent {
                    replica: victim,
                    at_s,
                    kind: stall,
                });
            }
        }
        let kinds = [
            (spec.crashes, FaultKind::Crash),
            (if spec.repeat_stalls { 0 } else { spec.stalls }, stall),
            (spec.transients, FaultKind::Transient),
            (
                spec.degraded,
                FaultKind::Degraded {
                    factor: spec.degrade_factor.max(2),
                },
            ),
        ];
        for (count, kind) in kinds {
            for _ in 0..count {
                events.push(FaultEvent {
                    replica: sampler.replica(replicas),
                    at_s: sampler.offset_s(window_s),
                    kind,
                });
            }
        }
        FaultPlan::new(events)
    }

    /// No events scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The per-replica guard a worker polls: the slice of this plan
    /// targeting `replica`, in time order.
    pub fn guard_for(&self, replica: usize) -> FaultGuard {
        FaultGuard {
            events: self
                .events
                .iter()
                .filter(|e| e.replica == replica)
                .map(|e| (e.at_s, e.kind))
                .collect(),
            next: 0,
            degrade_factor: 1,
        }
    }

    /// Compact label for bench cells: `none`, or kind counts like `c1`,
    /// `c1s1t2`, `d1` (crashes, stalls, transients, degraded).
    pub fn label(&self) -> String {
        if self.events.is_empty() {
            return "none".to_string();
        }
        let mut crashes = 0usize;
        let mut stalls = 0usize;
        let mut transients = 0usize;
        let mut degraded = 0usize;
        for event in &self.events {
            match event.kind {
                FaultKind::Crash => crashes += 1,
                FaultKind::Stall { .. } => stalls += 1,
                FaultKind::Transient => transients += 1,
                FaultKind::Degraded { .. } => degraded += 1,
            }
        }
        let mut label = String::new();
        for (count, tag) in [
            (crashes, 'c'),
            (stalls, 's'),
            (transients, 't'),
            (degraded, 'd'),
        ] {
            if count > 0 {
                label.push(tag);
                label.push_str(&count.to_string());
            }
        }
        label
    }
}

/// A compact, copyable description of a seeded fault plan — what a tenant
/// spec carries so [`FaultPlan::seeded`] can materialize the schedule once
/// the replay window and replica count are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for the schedule sampler.
    pub seed: u64,
    /// Number of crash events.
    pub crashes: usize,
    /// Number of stall events.
    pub stalls: usize,
    /// Number of transient-error events.
    pub transients: usize,
    /// Number of persistent-slowdown ([`FaultKind::Degraded`]) events.
    pub degraded: usize,
    /// Stall length in milliseconds (applies to every stall event).
    pub stall_ms: u64,
    /// Service-time multiplier for degraded events (clamped to ≥ 2 when
    /// the plan materializes).
    pub degrade_factor: u32,
    /// Schedule the stall events as a repeating/intermittent series —
    /// evenly spaced jittered offsets all striking one victim — instead of
    /// independent one-off events.
    pub repeat_stalls: bool,
}

impl FaultSpec {
    /// No faults.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            crashes: 0,
            stalls: 0,
            transients: 0,
            degraded: 0,
            stall_ms: 5,
            degrade_factor: 4,
            repeat_stalls: false,
        }
    }

    /// A plan of `count` crashes. Other counts are set with struct-update
    /// syntax (`FaultSpec { stalls: 2, ..FaultSpec::crashes(1) }`).
    pub fn crashes(count: usize) -> Self {
        FaultSpec {
            crashes: count,
            ..FaultSpec::none()
        }
    }

    /// Sets the schedule seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether the spec schedules nothing.
    pub fn is_none(&self) -> bool {
        self.count() == 0
    }

    /// Combines two specs into the schedule a *shared* pool experiences:
    /// event counts sum, the stall length is the longer of the two, and the
    /// seed is the first non-empty spec's. In a shared multi-tenant pool a
    /// fault "targeting" one tenant hits a replica every tenant depends on —
    /// merging the per-tenant specs is what makes that concrete.
    #[must_use]
    pub fn merge(self, other: FaultSpec) -> Self {
        FaultSpec {
            seed: if self.is_none() {
                other.seed
            } else {
                self.seed
            },
            crashes: self.crashes + other.crashes,
            stalls: self.stalls + other.stalls,
            transients: self.transients + other.transients,
            degraded: self.degraded + other.degraded,
            stall_ms: self.stall_ms.max(other.stall_ms),
            degrade_factor: self.degrade_factor.max(other.degrade_factor),
            repeat_stalls: self.repeat_stalls || other.repeat_stalls,
        }
    }

    /// Total scheduled events.
    pub fn count(&self) -> usize {
        self.crashes + self.stalls + self.transients + self.degraded
    }
}

/// Per-replica fault schedule a worker polls once per coalesced batch.
/// Event state survives a replica restart (the guard lives in the
/// replica's runner, outside the crashing worker body), so a fired crash
/// never re-fires against the restarted replica.
#[derive(Debug, Clone)]
pub struct FaultGuard {
    events: Vec<(f64, FaultKind)>,
    next: usize,
    /// Persistent service-time multiplier once a [`FaultKind::Degraded`]
    /// event has fired; `1` while the replica runs at full speed.
    degrade_factor: u32,
}

impl FaultGuard {
    /// A guard with no events — the fault-free fast path (never allocates,
    /// never fires).
    pub fn none() -> Self {
        FaultGuard {
            events: Vec::new(),
            next: 0,
            degrade_factor: 1,
        }
    }

    /// The active persistent slowdown multiplier (`1` = none).
    pub fn degrade_factor(&self) -> u32 {
        self.degrade_factor
    }

    /// Stretches one served batch by the active slowdown: after a
    /// [`FaultKind::Degraded`] event fires, a batch whose true service
    /// took `service` sleeps the remaining `(factor − 1) × service` here,
    /// so the replica's *observed* service time is `factor ×` its real
    /// one from the event onwards. A no-op at full speed.
    pub fn apply_degradation(&self, service: Duration) {
        if self.degrade_factor > 1 {
            std::thread::sleep(service * (self.degrade_factor - 1));
        }
    }

    /// Returns the next due event at `now_s`, if any, consuming it. At most
    /// one event fires per poll; a backlog of overdue events drains one per
    /// batch.
    pub fn poll(&mut self, now_s: f64) -> Option<FaultKind> {
        let &(at_s, kind) = self.events.get(self.next)?;
        if now_s < at_s {
            return None;
        }
        self.next += 1;
        Some(kind)
    }

    /// Polls and *acts*: a due crash panics (the injected payload names the
    /// replica and time — what the supervisor preserves and the harness
    /// re-raises on unrecoverable failure), a due stall sleeps in place,
    /// and a due transient returns a datapath error for the caller to
    /// handle exactly like a real batch failure. A due stall ends early
    /// once `abort` is set: a run that already aborted does not wait out
    /// its straggler.
    ///
    /// # Errors
    ///
    /// Returns an error when a [`FaultKind::Transient`] event is due.
    ///
    /// # Panics
    ///
    /// Panics when a [`FaultKind::Crash`] event is due.
    pub fn intercept(
        &mut self,
        replica: usize,
        now_s: f64,
        abort: &AtomicBool,
    ) -> Result<(), CentaurError> {
        match self.poll(now_s) {
            None => Ok(()),
            Some(FaultKind::Crash) => {
                panic!("injected fault: replica {replica} crash at {now_s:.4} s into the replay")
            }
            Some(FaultKind::Stall { millis }) => {
                let until = Instant::now() + Duration::from_millis(millis);
                while !abort.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now >= until {
                        break;
                    }
                    std::thread::sleep((until - now).min(Duration::from_millis(5)));
                }
                Ok(())
            }
            Some(FaultKind::Transient) => Err(CentaurError::NotInitialised(
                "injected transient datapath fault",
            )),
            Some(FaultKind::Degraded { factor }) => {
                self.degrade_factor = factor.max(1);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_fires_each_event_once_in_time_order() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                replica: 0,
                at_s: 0.2,
                kind: FaultKind::Transient,
            },
            FaultEvent {
                replica: 0,
                at_s: 0.1,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                replica: 1,
                at_s: 0.05,
                kind: FaultKind::Stall { millis: 3 },
            },
        ]);
        let mut guard = plan.guard_for(0);
        assert_eq!(
            guard.events.len() - guard.next,
            2,
            "guard holds only its replica's events"
        );
        assert_eq!(guard.poll(0.05), None, "nothing due yet");
        assert_eq!(guard.poll(0.15), Some(FaultKind::Crash), "earliest first");
        assert_eq!(guard.poll(0.15), None, "fired events never re-fire");
        assert_eq!(guard.poll(0.5), Some(FaultKind::Transient));
        assert_eq!(guard.poll(9.0), None, "guard exhausted");
        assert_eq!(guard.events.len() - guard.next, 0);

        let mut other = plan.guard_for(1);
        assert_eq!(other.poll(1.0), Some(FaultKind::Stall { millis: 3 }));
        assert!(plan.guard_for(7).poll(99.0).is_none(), "absent replica");
    }

    #[test]
    fn overdue_backlog_drains_one_event_per_poll() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                replica: 0,
                at_s: 0.01,
                kind: FaultKind::Transient,
            },
            FaultEvent {
                replica: 0,
                at_s: 0.02,
                kind: FaultKind::Transient,
            },
        ]);
        let mut guard = plan.guard_for(0);
        assert_eq!(guard.poll(1.0), Some(FaultKind::Transient));
        assert_eq!(guard.poll(1.0), Some(FaultKind::Transient));
        assert_eq!(guard.poll(1.0), None);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_sized_by_the_spec() {
        let spec = FaultSpec {
            stalls: 1,
            transients: 3,
            ..FaultSpec::crashes(2)
        }
        .with_seed(9);
        let a = FaultPlan::seeded(spec, 4, 2.0);
        let b = FaultPlan::seeded(spec, 4, 2.0);
        assert_eq!(a, b, "same spec, same plan");
        assert_eq!(a.len(), 6);
        assert_eq!(a.label(), "c2s1t3");
        for event in a.events() {
            assert!(event.replica < 4);
            assert!(event.at_s >= 0.0 && event.at_s <= 2.0);
        }
        assert_ne!(
            a,
            FaultPlan::seeded(spec.with_seed(10), 4, 2.0),
            "different seed, different schedule"
        );
    }

    #[test]
    fn merged_specs_sum_counts_and_keep_the_first_seed() {
        let a = FaultSpec {
            stalls: 2,
            ..FaultSpec::crashes(1)
        }
        .with_seed(7);
        let b = FaultSpec {
            transients: 3,
            stall_ms: 9,
            ..FaultSpec::crashes(2)
        }
        .with_seed(11);
        let merged = a.merge(b);
        assert_eq!(merged.crashes, 3);
        assert_eq!(merged.stalls, 2);
        assert_eq!(merged.transients, 3);
        assert_eq!(merged.stall_ms, 9, "longer stall wins");
        assert_eq!(merged.seed, 7, "first non-empty spec's seed");
        assert_eq!(
            FaultSpec::none().merge(b).seed,
            11,
            "an empty left side defers to the right seed"
        );
    }

    #[test]
    fn labels_and_specs_cover_the_empty_case() {
        assert_eq!(FaultPlan::none().label(), "none");
        assert!(FaultPlan::none().is_empty());
        assert!(FaultSpec::none().is_none());
        assert!(!FaultSpec::crashes(1).is_none());
        assert_eq!(FaultPlan::seeded(FaultSpec::none(), 2, 1.0).len(), 0);
    }

    #[test]
    fn intercept_translates_events_into_actions() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                replica: 0,
                at_s: 0.0,
                kind: FaultKind::Transient,
            },
            FaultEvent {
                replica: 0,
                at_s: 0.0,
                kind: FaultKind::Stall { millis: 1 },
            },
        ]);
        let mut guard = plan.guard_for(0);
        assert!(
            guard.intercept(0, 1.0, &AtomicBool::new(false)).is_err(),
            "transient becomes an error"
        );
        assert!(
            guard.intercept(0, 1.0, &AtomicBool::new(false)).is_ok(),
            "stall sleeps and continues"
        );
        assert!(
            guard.intercept(0, 1.0, &AtomicBool::new(false)).is_ok(),
            "exhausted guard is a no-op"
        );
    }

    #[test]
    fn seeded_degraded_and_repeating_stall_schedules_are_deterministic() {
        let spec = FaultSpec {
            degraded: 1,
            degrade_factor: 4,
            ..FaultSpec::none()
        }
        .with_seed(5);
        let plan = FaultPlan::seeded(spec, 2, 1.0);
        assert_eq!(plan.label(), "d1");
        assert_eq!(plan.events()[0].kind, FaultKind::Degraded { factor: 4 });
        assert_eq!(
            plan,
            FaultPlan::seeded(spec, 2, 1.0),
            "same seed, same plan"
        );

        let repeating = FaultSpec {
            stalls: 4,
            stall_ms: 10,
            repeat_stalls: true,
            ..FaultSpec::none()
        }
        .with_seed(9);
        let plan = FaultPlan::seeded(repeating, 3, 2.0);
        assert_eq!(plan.label(), "s4");
        let victim = plan.events()[0].replica;
        assert!(
            plan.events().iter().all(|e| e.replica == victim),
            "a repeating stall schedule afflicts one victim"
        );
        assert!(
            plan.events().windows(2).all(|p| p[0].at_s <= p[1].at_s),
            "repeating offsets are time-ordered"
        );
        assert!(plan
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::Stall { millis: 10 }));
    }

    #[test]
    fn degraded_event_persistently_stretches_service() {
        let plan = FaultPlan::new(vec![FaultEvent {
            replica: 0,
            at_s: 0.0,
            kind: FaultKind::Degraded { factor: 3 },
        }]);
        let mut guard = plan.guard_for(0);
        assert_eq!(guard.degrade_factor(), 1, "full speed before the event");
        let t0 = std::time::Instant::now();
        guard.apply_degradation(Duration::from_millis(50));
        assert!(
            t0.elapsed() < Duration::from_millis(20),
            "no slowdown applied before the event fires"
        );
        assert!(
            guard.intercept(0, 0.5, &AtomicBool::new(false)).is_ok(),
            "degradation is not a fault"
        );
        assert_eq!(guard.degrade_factor(), 3);
        let t1 = std::time::Instant::now();
        guard.apply_degradation(Duration::from_millis(5));
        assert!(
            t1.elapsed() >= Duration::from_millis(10),
            "a 3x factor sleeps 2x the true service on top of it"
        );
    }

    #[test]
    fn injected_crash_panics_with_a_recognizable_payload() {
        let plan = FaultPlan::new(vec![FaultEvent {
            replica: 3,
            at_s: 0.0,
            kind: FaultKind::Crash,
        }]);
        let mut guard = plan.guard_for(3);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = guard.intercept(3, 0.5, &AtomicBool::new(false));
        }))
        .expect_err("crash event must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("payload is the formatted message");
        assert!(message.contains("injected fault"), "{message}");
        assert!(message.contains("replica 3"), "{message}");
    }
}
