//! The open-loop workloads: `serve_replay` with one generator thread and one
//! replica. Drain phases give capacity; a traced run adds paced phases for
//! latency and armed drains for the supervisor's tax. Every phase is audited.

use crate::host;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Drive, Inputs, Workload};
use centaur_serve::{
    serve_replay_with, BatchPolicy, HedgeConfig, ServeOptions, ServeOutcome, Supervision,
};
use centaur_workload::{ArrivalProcess, QueryStream};

/// Every query of a drain phase is due within this long: a standing backlog.
const DRAIN_DUE_WITHIN_S: f64 = 0.004;
/// Width of the completion-time windows a drain phase is cut into.
pub const DRAIN_WINDOW_S: f64 = 0.05;
/// Leading drain windows dropped: a freshly spawned worker ran at up to half
/// speed for its first 50 to 100 ms on the reference host.
pub const DRAIN_WARMUP_WINDOWS: usize = 2;
/// Width of the scheduled-arrival windows a paced phase is cut into.
pub const PACED_WINDOW_S: f64 = 0.1;
/// Leading paced windows dropped: the queue and the caches are still filling.
pub const PACED_WARMUP_WINDOWS: usize = 2;
/// Request ids whose answers are compared against the batch-1 oracle.
pub const REFERENCE_IDS: usize = 1024;

/// Oracle answers for a sample of request ids.
#[derive(Debug)]
pub struct Reference {
    answers: Vec<(usize, u32)>,
}

impl Reference {
    /// Batch-1 inferences on the oracle kernels for [`REFERENCE_IDS`] ids
    /// spread evenly over the first `span` requests.
    pub fn compute(inputs: &Inputs, span: usize) -> Self {
        let mut oracle = inputs.oracle_runtime();
        let count = REFERENCE_IDS.min(span);
        let answers = (0..count)
            .map(|k| {
                let id = k * span / count;
                let request = &inputs.requests[id];
                let probability = oracle
                    .infer_sample(&request.dense, &request.sparse)
                    .expect("generated requests are valid");
                (id, probability.to_bits())
            })
            .collect();
        Reference { answers }
    }
}

/// Everything the phases of a run add up to.
#[derive(Debug)]
pub struct ServeRun {
    /// Per plain drain phase, completions per second of every kept window.
    pub drains: Vec<Vec<f64>>,
    /// Per paced phase, the median latency of every kept window, seconds.
    pub paced_p50_s: Vec<Vec<f64>>,
    /// Per paced phase, the p99 latency of every kept window that supports
    /// one, seconds.
    pub paced_p99_s: Vec<Vec<f64>>,
    /// Latencies in the smallest kept paced window.
    pub min_window_samples: usize,
    /// Queries generated over all phases.
    pub generated: u64,
    /// Queries shed, failed, missing, duplicated or answered wrongly.
    pub failed: u64,
    /// Harness counters over all phases.
    pub completed: u64,
    /// Accelerator batches dispatched.
    pub batches: u64,
    /// Queries shed by flow control.
    pub shed: u64,
    /// Queries the harness gave up on.
    pub harness_failed: u64,
    /// Smallest latency any query saw, seconds.
    pub min_latency_s: f64,
}

/// How a phase is placed on the machine.
#[derive(Clone, Copy)]
enum Placement {
    /// Generator and replica worker wherever the scheduler puts them.
    Free,
    /// Both held on the caller's CPU ([`host::on_one_cpu`]), with a clock
    /// reading right before and right after the replay. Only for a drain,
    /// whose generator is done within milliseconds: the worker has the core
    /// to itself and the readings are of its core.
    OneCpu,
}

/// Replays one schedule on a fresh single-replica pool and audits the
/// outcome: `generated = completed + shed + failed`, ids unique, sampled
/// answers bitwise equal to the oracle's. Returns the outcome, the number of
/// queries that did not get a right answer, and the core's clock speed over
/// the replay (1 for a [`Placement::Free`] phase, which has no reading).
fn replay(
    inputs: &Inputs,
    stream: &QueryStream,
    policy: BatchPolicy,
    options: ServeOptions,
    placement: Placement,
    reference: &Reference,
) -> (ServeOutcome, u64, f64) {
    let generated = stream.len();
    let pool = inputs.fresh_pool();
    let run = || serve_replay_with(pool, &inputs.requests[..generated], stream, policy, options);
    let (outcome, clock) = match placement {
        Placement::Free => (run(), 1.0),
        Placement::OneCpu => host::on_one_cpu(|| {
            let before = host::clock_speed();
            let outcome = run();
            (outcome, (before + host::clock_speed()) / 2.0)
        }),
    };
    let outcome = outcome.expect("a fault-free replay of valid requests succeeds");
    let mut bad = (outcome.shed() + outcome.failed) as u64;
    bad += generated.saturating_sub(outcome.accounted()) as u64;
    let mut answer: Vec<Option<u32>> = vec![None; generated];
    for completion in &outcome.completions {
        match answer.get_mut(completion.id as usize) {
            Some(slot @ None) => *slot = Some(completion.probability.to_bits()),
            // An id out of range or answered twice.
            _ => bad += 1,
        }
    }
    for &(id, want) in &reference.answers {
        if let Some(Some(got)) = answer.get(id) {
            bad += u64::from(*got != want);
        }
    }
    (outcome, bad, clock)
}

/// Completions per second, at the reference clock, in each kept
/// [`DRAIN_WINDOW_S`] window by completion time; the first
/// [`DRAIN_WARMUP_WINDOWS`] (the worker thread is still warming up) and the
/// last (partial) are dropped. A drain too short to leave a window reports
/// its whole-phase rate.
pub fn drain_window_rates(outcome: &ServeOutcome, clock: f64) -> Vec<f64> {
    let windows = stats::bucket(
        outcome.completions.iter().map(|c| (c.completed_s, 0.0)),
        DRAIN_WINDOW_S,
        DRAIN_WARMUP_WINDOWS,
        1,
    );
    if windows.is_empty() {
        return vec![outcome.achieved_qps() / clock];
    }
    windows
        .iter()
        .map(|w| w.len() as f64 / DRAIN_WINDOW_S / clock)
        .collect()
}

impl ServeRun {
    /// A run with no phases yet.
    pub fn new() -> Self {
        ServeRun {
            drains: Vec::new(),
            paced_p50_s: Vec::new(),
            paced_p99_s: Vec::new(),
            min_window_samples: usize::MAX,
            generated: 0,
            failed: 0,
            completed: 0,
            batches: 0,
            shed: 0,
            harness_failed: 0,
            min_latency_s: f64::INFINITY,
        }
    }

    fn count(&mut self, outcome: &ServeOutcome, generated: usize, bad: u64) {
        self.generated += generated as u64;
        self.failed += bad;
        self.completed += outcome.completions.len() as u64;
        self.batches += outcome.batches as u64;
        self.shed += outcome.shed() as u64;
        self.harness_failed += outcome.failed as u64;
        self.min_latency_s = outcome
            .completions
            .iter()
            .map(|c| c.latency_s())
            .fold(self.min_latency_s, f64::min);
    }

    fn add_paced(&mut self, outcome: &ServeOutcome, generated: usize, bad: u64) {
        self.count(outcome, generated, bad);
        let mut windows = stats::bucket(
            outcome
                .completions
                .iter()
                .map(|c| (c.arrival_s, c.latency_s())),
            PACED_WINDOW_S,
            PACED_WARMUP_WINDOWS,
            1,
        );
        if windows.is_empty() {
            // Too short to cut: the phase is its own window.
            windows = vec![outcome.completions.iter().map(|c| c.latency_s()).collect()];
        }
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for summary in windows.iter().filter_map(|w| stats::window_latency(w)) {
            p50.push(summary.p50);
            p99.extend(summary.p99);
            self.min_window_samples = self.min_window_samples.min(summary.samples);
        }
        self.paced_p50_s.push(p50);
        self.paced_p99_s.push(p99);
    }

    /// Queries per second the replica sustains: the upper quartile of each
    /// drain phase's windows, then the median over phases.
    pub fn throughput_per_s(&self) -> f64 {
        stats::run_figure(self.drains.iter().map(Vec::as_slice), stats::quiet_rate)
    }

    fn paced_ms(phases: &[Vec<f64>]) -> f64 {
        if phases.iter().all(Vec::is_empty) {
            return 0.0;
        }
        stats::run_figure(phases.iter().map(Vec::as_slice), stats::quiet_latency) * 1e3
    }

    /// Paced median latency in milliseconds, scheduled arrival to completion:
    /// the lower quartile of each phase's window medians, then the median
    /// over phases; 0 for a run without a paced phase.
    pub fn paced_p50_ms(&self) -> f64 {
        Self::paced_ms(&self.paced_p50_s)
    }

    /// Paced p99 latency in milliseconds under the same rule, over the
    /// windows with ten samples beyond their p99; 0 when a run is too short
    /// to have one.
    pub fn paced_p99_ms(&self) -> f64 {
        Self::paced_ms(&self.paced_p99_s)
    }
}

/// A serving workload ready to replay: its two arrival schedules and the
/// oracle answers.
pub struct Replayer<'a> {
    inputs: &'a Inputs,
    policy: BatchPolicy,
    drain: QueryStream,
    paced: Option<QueryStream>,
    reference: Reference,
}

impl<'a> Replayer<'a> {
    /// Generates the schedules (with paced phases of `paced_seconds`, if any)
    /// and computes the oracle answers.
    pub fn new(
        inputs: &'a Inputs,
        workload: &Workload,
        paced_seconds: Option<f64>,
        seed: u64,
    ) -> Self {
        let Drive::Serve {
            policy,
            drain_queries,
            paced_qps,
        } = workload.drive
        else {
            panic!("{} does not replay arrivals", workload.name);
        };
        let due_at_once = ArrivalProcess::Uniform {
            rate_qps: drain_queries as f64 / DRAIN_DUE_WITHIN_S,
        };
        let paced_arrivals = ArrivalProcess::Poisson {
            rate_qps: paced_qps,
        };
        let paced_queries = paced_seconds.map(|seconds| workload.paced_queries(seconds));
        Replayer {
            inputs,
            policy,
            drain: QueryStream::generate(due_at_once, drain_queries, seed ^ 0xD8A1),
            paced: paced_queries
                .map(|queries| QueryStream::generate(paced_arrivals, queries, seed ^ 0x9ACE)),
            reference: Reference::compute(
                inputs,
                drain_queries.min(paced_queries.unwrap_or(drain_queries)),
            ),
        }
    }

    /// One audited phase on a fresh pool, under a span when traced.
    fn phase(
        &self,
        name: &'static str,
        stream: &QueryStream,
        options: ServeOptions,
        placement: Placement,
        trial: usize,
        tracer: Option<&mut Tracer>,
    ) -> (ServeOutcome, u64, f64) {
        let replay = || {
            replay(
                self.inputs,
                stream,
                self.policy,
                options,
                placement,
                &self.reference,
            )
        };
        let Some(tracer) = tracer else {
            return replay();
        };
        let span = tracer.open(name, trial, None);
        let audited = replay();
        tracer.close(span);
        audited
    }

    /// A drain phase on the default options: every query due at once. Its
    /// windows' rates go into `run.drains` and are returned.
    pub fn drain(&self, trial: usize, tracer: Option<&mut Tracer>, run: &mut ServeRun) -> Vec<f64> {
        let (plain, placement) = (ServeOptions::default(), Placement::OneCpu);
        let (outcome, bad, clock) = self.phase(
            "harness.drain",
            &self.drain,
            plain,
            placement,
            trial,
            tracer,
        );
        run.count(&outcome, self.drain.len(), bad);
        let rates = drain_window_rates(&outcome, clock);
        run.drains.push(rates.clone());
        rates
    }

    /// A drain with the supervisor and the stall watchdog armed at their
    /// defaults and no fault injected: what the protection costs when nothing
    /// goes wrong. Counted into `run`, but its rates are only returned.
    pub fn armed_drain(&self, trial: usize, tracer: &mut Tracer, run: &mut ServeRun) -> Vec<f64> {
        let armed = ServeOptions::default()
            .supervised(Supervision::default())
            .hedged(HedgeConfig::derived(None, self.policy));
        let (name, placement) = ("supervisor.armed_drain", Placement::OneCpu);
        let (outcome, bad, clock) =
            self.phase(name, &self.drain, armed, placement, trial, Some(tracer));
        run.count(&outcome, self.drain.len(), bad);
        drain_window_rates(&outcome, clock)
    }

    /// A paced phase: Poisson arrivals at the workload's frozen rate.
    ///
    /// # Panics
    ///
    /// Panics on a replayer made without paced phases.
    pub fn paced(&self, trial: usize, tracer: Option<&mut Tracer>, run: &mut ServeRun) {
        let stream = self.paced.as_ref().expect("made with paced phases");
        let (plain, placement) = (ServeOptions::default(), Placement::Free);
        let (outcome, bad, _) =
            self.phase("harness.paced", stream, plain, placement, trial, tracer);
        run.add_paced(&outcome, stream.len(), bad);
    }
}
