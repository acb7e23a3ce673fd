//! End-to-end fault-tolerance tests for the supervised serving layer: a
//! deterministic seeded fault plan crashes replicas mid-replay and the run
//! must degrade gracefully — in-flight batches recovered and requeued with
//! their original arrival stamps, replicas restarted within the budget,
//! exhausted budgets surfaced as counted `Failed` rejections, and the
//! accounting invariant (every generated request ends exactly one of
//! completed / shed / failed) proven against the generated count. Only
//! unrecoverable states may abort, and they must preserve the injected
//! crash's original panic payload.

use centaur::{CentaurConfig, CentaurRuntime};
use centaur_dlrm::{DlrmModel, PaperModel, RejectReason};
use centaur_serve::{
    generate_requests, serve_replay_faulted, BatchPolicy, FaultEvent, FaultKind, FaultPlan,
    FaultSpec, HedgeConfig, ServeOptions, ServeOutcome, Supervision,
};
use centaur_workload::{ArrivalProcess, IndexDistribution, QueryStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

fn small_model() -> DlrmModel {
    let config = PaperModel::Dlrm1.config().with_rows_per_table(512);
    DlrmModel::random(&config, 5).unwrap()
}

/// The acceptance-criterion scenario: a seeded plan crashes 1 of 2
/// replicas mid-replay. The replay completes without aborting, every
/// request is accounted exactly once, retried requests keep their original
/// arrival stamps, availability stays ≥ 0.99, and the crashed replica is
/// restarted.
#[test]
fn seeded_crash_of_one_replica_is_absorbed_with_full_accounting() {
    let model = small_model();
    let config = model.config().clone();
    let queries = 1_200usize;
    let offered_qps = 20_000.0;
    let requests = generate_requests(&config, IndexDistribution::Uniform, 42, queries);
    let stream = QueryStream::generate(
        ArrivalProcess::Poisson {
            rate_qps: offered_qps,
        },
        queries,
        42 ^ 0xA11,
    );
    let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
    // One crash, deterministically placed in the middle of the replay
    // window, against a deterministic victim.
    let window_s = queries as f64 / offered_qps;
    let plan = FaultPlan::seeded(FaultSpec::crashes(1).with_seed(42), 2, window_s);
    assert_eq!(plan.len(), 1);
    let options = ServeOptions::default().supervised(Supervision::default());

    let outcome = serve_replay_faulted(
        pool,
        &requests,
        &stream,
        BatchPolicy::dynamic_wave(),
        options,
        &plan,
    )
    .expect("supervised run completes despite the crash");

    // Accounting invariant: every generated request has exactly one
    // terminal state.
    assert_eq!(
        outcome.accounted(),
        queries,
        "completed {} + shed {} + failed {} != generated {queries}",
        outcome.completions.len(),
        outcome.shed(),
        outcome.failed
    );
    // The crash really happened and was really recovered.
    assert_eq!(outcome.restarts, 1, "the crashed replica restarted");
    assert_eq!(outcome.replicas_lost, 0);
    assert!(
        outcome.retries >= 1,
        "the in-flight batch was requeued, not dropped"
    );
    assert!(
        outcome.availability() >= 0.99,
        "availability {} under a single crash",
        outcome.availability()
    );
    // Retried requests keep their original arrival stamps: every
    // completion's arrival matches the schedule, and each id completed at
    // most once.
    let arrivals: Vec<f64> = stream.replay().map(|(_, at_s)| at_s).collect();
    let mut seen = vec![false; queries];
    for completion in &outcome.completions {
        let id = completion.id as usize;
        assert!(!seen[id], "request {id} completed twice");
        seen[id] = true;
        assert_eq!(
            completion.arrival_s, arrivals[id],
            "request {id} lost its original arrival stamp"
        );
        assert!(completion.latency_s() >= 0.0);
    }
    // Anything failed is surfaced as a counted rejection, never silent.
    assert_eq!(
        outcome.rejections.len(),
        outcome.shed() + outcome.failed,
        "every non-completion is a wire-level rejection"
    );
    let failed = outcome
        .rejections
        .iter()
        .filter(|r| r.reason == RejectReason::Failed);
    assert_eq!(failed.count(), outcome.failed);
}

/// A plan exceeding the restart budget still aborts — promptly, with the
/// injected crash's original panic payload preserved.
#[test]
fn crash_beyond_the_restart_budget_aborts_with_the_original_payload() {
    let model = small_model();
    let config = model.config().clone();
    let queries = 400usize;
    let requests = generate_requests(&config, IndexDistribution::Uniform, 7, queries);
    // A slow schedule (20 qps => 20 s): the abort must cut it short.
    let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 20.0 }, queries, 3);
    let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 1).unwrap();
    let plan = FaultPlan::new(vec![FaultEvent {
        replica: 0,
        at_s: 0.05,
        kind: FaultKind::Crash,
    }]);
    // Restart budget 0: the only replica stays dead — unrecoverable.
    let options = ServeOptions::default().supervised(Supervision::new(2, 0));

    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        serve_replay_faulted(
            pool,
            &requests,
            &stream,
            BatchPolicy::dynamic_wave(),
            options,
            &plan,
        )
    }));
    let elapsed = started.elapsed();
    let payload = result.expect_err("all replicas dead must abort the run");
    let message = payload
        .downcast_ref::<String>()
        .expect("the injected crash's payload is preserved");
    assert!(
        message.contains("injected fault") && message.contains("replica 0"),
        "unexpected payload: {message}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "abort surfaced in {elapsed:?}, not after the 20 s schedule"
    );
}

/// Transient datapath faults are absorbed by retries alone: no restarts,
/// no failures, every request eventually served.
#[test]
fn transient_faults_are_retried_to_completion() {
    let model = small_model();
    let config = model.config().clone();
    let queries = 256usize;
    let requests = generate_requests(&config, IndexDistribution::Uniform, 11, queries);
    let stream = QueryStream::generate(
        ArrivalProcess::Poisson { rate_qps: 20_000.0 },
        queries,
        11 ^ 0xA11,
    );
    let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
    let window_s = queries as f64 / 20_000.0;
    let plan = FaultPlan::seeded(
        FaultSpec {
            transients: 3,
            ..FaultSpec::none()
        }
        .with_seed(9),
        2,
        window_s,
    );
    let options = ServeOptions::default().supervised(Supervision::default());
    let outcome = serve_replay_faulted(
        pool,
        &requests,
        &stream,
        BatchPolicy::dynamic_wave(),
        options,
        &plan,
    )
    .expect("transients never kill a supervised run");
    assert_eq!(outcome.completions.len(), queries, "everything served");
    assert_eq!(outcome.accounted(), queries);
    assert!(outcome.retries >= 1, "transients forced re-serves");
    assert_eq!(outcome.failed, 0, "the retry budget absorbs transients");
    assert_eq!(outcome.restarts, 0, "transients are not crashes");
    assert_eq!(outcome.availability(), 1.0);
}

/// Stall faults freeze one replica while its sibling keeps serving: the
/// run completes with nothing lost, at worst with late answers.
#[test]
fn stalls_degrade_latency_but_lose_nothing() {
    let model = small_model();
    let config = model.config().clone();
    let queries = 256usize;
    let requests = generate_requests(&config, IndexDistribution::Uniform, 13, queries);
    let stream = QueryStream::generate(
        ArrivalProcess::Poisson { rate_qps: 20_000.0 },
        queries,
        13 ^ 0xA11,
    );
    let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
    let plan = FaultPlan::new(vec![FaultEvent {
        replica: 0,
        at_s: 0.002,
        kind: FaultKind::Stall { millis: 20 },
    }]);
    let options = ServeOptions::default().supervised(Supervision::default());
    let outcome = serve_replay_faulted(
        pool,
        &requests,
        &stream,
        BatchPolicy::dynamic_wave(),
        options,
        &plan,
    )
    .expect("a stall never kills a supervised run");
    assert_eq!(outcome.completions.len(), queries);
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.restarts, 0);
    assert_eq!(outcome.availability(), 1.0);
}

/// End-to-end latency of one completion percentile (p99 here): the smallest
/// latency at least `q` of the completions sit at or below.
fn p99_s(outcome: &ServeOutcome) -> f64 {
    let mut latencies: Vec<f64> = outcome.completions.iter().map(|c| c.latency_s()).collect();
    assert!(!latencies.is_empty());
    latencies.sort_by(f64::total_cmp);
    let rank = ((latencies.len() as f64) * 0.99).ceil() as usize;
    latencies[rank.clamp(1, latencies.len()) - 1]
}

/// The tail-tolerance acceptance scenario: 1 of 2 replicas stalls for
/// 200 ms mid-replay. Unhedged (crash supervision only), the stalled
/// batch's riders eat the whole hold and the p99 tracks the fault — more
/// than 10× the fault-free baseline. Hedged, the watchdog re-dispatches
/// the riders to the healthy sibling within one hedge timeout, quarantines
/// the straggler and re-admits it after backoff — p99 stays within 3× of
/// the baseline, with every duplicate suppressed and every request counted
/// exactly once.
#[test]
fn hedging_bounds_the_tail_of_a_stalled_replica() {
    let model_config = PaperModel::Dlrm1.config().with_rows_per_table(512);
    let queries = 1_600usize;
    // Deterministic arrivals with 2.5x fill headroom: at 8 k qps each
    // replica's 24-slot batch fills in ~6 ms, well inside the 15 ms
    // hold-open window, so batches — including the one the stall catches —
    // dispatch full even when the two workers split arrivals unevenly. The
    // 24 riders comfortably cover the 16 requests p99 of 1 600 resolves,
    // and the fault-free p99 pins near the ~6 ms fill time.
    let requests = generate_requests(&model_config, IndexDistribution::Uniform, 29, queries);
    let stream = QueryStream::generate(ArrivalProcess::Uniform { rate_qps: 8_000.0 }, queries, 31);
    let policy = BatchPolicy::Dynamic {
        max_batch: 24,
        max_wait: Duration::from_millis(15),
    };
    let hedge = HedgeConfig::new(Duration::from_millis(1));
    let stall_plan = || {
        FaultPlan::new(vec![FaultEvent {
            replica: 0,
            at_s: 0.1,
            kind: FaultKind::Stall { millis: 200 },
        }])
    };
    let run = |plan: &FaultPlan, options: ServeOptions| {
        let model = DlrmModel::random(&model_config, 5).unwrap();
        let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
        serve_replay_faulted(pool, &requests, &stream, policy, options, plan)
            .expect("a stall never kills a supervised run")
    };

    let supervised = ServeOptions::default().supervised(Supervision::default());
    let baseline = run(&FaultPlan::none(), supervised.hedged(hedge));
    let unhedged = run(&stall_plan(), supervised);
    let hedged = run(&stall_plan(), supervised.hedged(hedge));

    // Accounting first: every request ends in exactly one terminal state
    // in every cell, stall or no stall, hedge or no hedge.
    for (name, outcome) in [
        ("baseline", &baseline),
        ("unhedged", &unhedged),
        ("hedged", &hedged),
    ] {
        assert_eq!(outcome.accounted(), queries, "{name} accounting");
        assert_eq!(outcome.completions.len(), queries, "{name} completions");
        assert_eq!(outcome.restarts, 0, "{name}: a stall is not a crash");
        assert_eq!(outcome.failed, 0, "{name} failures");
    }
    // No request double-counted in the hedged run, duplicates suppressed.
    let mut seen = vec![false; queries];
    for completion in &hedged.completions {
        let id = completion.id as usize;
        assert!(!seen[id], "request {id} completed twice");
        seen[id] = true;
    }
    assert!(baseline.hedges == 0, "fault-free watchdog never hedges");
    assert!(unhedged.hedges == 0 && unhedged.quarantines == 0);
    assert!(hedged.hedges >= 1, "the stalled batch was hedged");
    assert_eq!(
        hedged.duplicates_suppressed, hedged.hedges,
        "every hedge's redundant copy was suppressed, none double-counted"
    );
    // The straggler was benched and later re-admitted.
    assert!(
        hedged.quarantines >= 1,
        "the stalled replica was quarantined"
    );
    assert!(
        hedged.readmissions >= 1,
        "the quarantined replica re-admitted after backoff"
    );
    // The tail: unhedged eats the 200 ms hold, hedged stays near baseline.
    let (base_p99, unhedged_p99, hedged_p99) = (p99_s(&baseline), p99_s(&unhedged), p99_s(&hedged));
    assert!(
        unhedged_p99 > 10.0 * base_p99,
        "unhedged p99 {:.1} ms should dwarf the fault-free p99 {:.1} ms",
        unhedged_p99 * 1e3,
        base_p99 * 1e3
    );
    assert!(
        hedged_p99 <= 3.0 * base_p99,
        "hedged p99 {:.1} ms should stay within 3x the fault-free p99 {:.1} ms",
        hedged_p99 * 1e3,
        base_p99 * 1e3
    );
}

/// Fault tolerance composes with overload protection: a crash under an
/// admission-gated, deadline-shedding configuration still accounts every
/// request (completed, counted-shed, or failed) and keeps availability.
#[test]
fn supervision_composes_with_overload_protection() {
    let model = small_model();
    let config = model.config().clone();
    let queries = 1_024usize;
    let offered_qps = 150_000.0; // deliberately past one small pool's knee
    let requests = generate_requests(&config, IndexDistribution::Uniform, 17, queries);
    let stream = QueryStream::generate(
        ArrivalProcess::Poisson {
            rate_qps: offered_qps,
        },
        queries,
        17 ^ 0xA11,
    );
    let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
    let window_s = queries as f64 / offered_qps;
    let plan = FaultPlan::seeded(FaultSpec::crashes(1).with_seed(23), 2, window_s);
    let options = ServeOptions {
        admission_depth: Some(256),
        shed_expired: true,
        ..ServeOptions::with_slo(Duration::from_millis(5))
    }
    .supervised(Supervision::default());
    let outcome = serve_replay_faulted(
        pool,
        &requests,
        &stream,
        BatchPolicy::deadline_wave(Duration::from_micros(500)),
        options,
        &plan,
    )
    .expect("crash under overload still completes");
    assert_eq!(
        outcome.accounted(),
        queries,
        "overload shedding and fault recovery account every request"
    );
    assert!(outcome.availability() >= 0.99);
    // Every rejection carries a reason consistent with the counters.
    let mut by_reason = [0usize; 3];
    for rejection in &outcome.rejections {
        by_reason[match rejection.reason {
            RejectReason::QueueFull => 0,
            RejectReason::DeadlineExpired => 1,
            RejectReason::Failed => 2,
        }] += 1;
    }
    assert_eq!(by_reason[0], outcome.shed_admission);
    assert_eq!(by_reason[1], outcome.shed_expired);
    assert_eq!(by_reason[2], outcome.failed);
}
