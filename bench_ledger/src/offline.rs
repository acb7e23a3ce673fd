//! The closed-loop workloads: one caller, `CentaurRuntime::infer_batch_into`
//! back to back over a rotating pool of batches, every answer checked.

use crate::host;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{bits, Batch, Inputs};
use centaur::CentaurRuntime;
use std::time::Instant;

/// Calls per window. Short windows separate the host's quiet stretches from
/// its disturbed ones: on the reference host 200-call windows repeated within
/// 5 % where 1000-call windows, measured alternately, repeated within 9 %.
pub const CALLS_PER_WINDOW: usize = 200;

/// Pool batches whose production answers are checked against the oracle
/// kernels before anything is timed.
pub const ORACLE_BATCHES: usize = 8;

/// What the timed loops of a run produced.
#[derive(Debug, Default)]
pub struct OfflineRun {
    /// Per trial, each window's calls per second at the reference clock: the
    /// wall-clock rate divided by the core's clock speed over the window (the
    /// mean of the readings taken right before and right after it).
    pub trials: Vec<Vec<f64>>,
    /// Timed calls.
    pub calls: u64,
    /// Calls whose answer differed from the expected one.
    pub wrong: u64,
}

impl OfflineRun {
    /// Windows over all trials.
    pub fn windows(&self) -> usize {
        self.trials.iter().map(Vec::len).sum()
    }

    /// Samples per second at the reference clock: the upper quartile of each
    /// trial's windows, then the median over trials.
    pub fn throughput_per_s(&self, batch: usize) -> f64 {
        batch as f64 * stats::run_figure(self.trials.iter().map(Vec::as_slice), stats::quiet_rate)
    }
}

/// The answers every later call must reproduce: one production pass over the
/// pool, its first [`ORACLE_BATCHES`] batches checked bit for bit against a
/// second runtime on the oracle kernels. Returns the expected bit patterns
/// and how many of the checked batches disagreed.
pub fn expected_answers(inputs: &Inputs, pool: &[Batch]) -> (Vec<Vec<u32>>, u64) {
    let mut production = inputs.fresh_pool().pop().expect("pool of one");
    let mut out = vec![0.0f32; pool[0].sparse.len()];
    let expected: Vec<Vec<u32>> = pool
        .iter()
        .map(|batch| {
            production
                .infer_batch_into(&batch.dense, &batch.sparse, &mut out)
                .expect("generated batches are valid");
            bits(&out)
        })
        .collect();
    drop(production);
    let mut oracle = inputs.oracle_runtime();
    let mut disagreements = 0;
    for (batch, want) in pool.iter().zip(&expected).take(ORACLE_BATCHES) {
        oracle
            .infer_batch_into(&batch.dense, &batch.sparse, &mut out)
            .expect("generated batches are valid");
        disagreements += u64::from(bits(&out) != *want);
    }
    (expected, disagreements)
}

/// The timed loop of one trial: a runtime, the batches it rotates over, and
/// where the rotation stands.
pub struct Trial<'a> {
    runtime: CentaurRuntime,
    pool: &'a [Batch],
    expected: &'a [Vec<u32>],
    out: Vec<f32>,
    seq: usize,
    number: usize,
}

impl<'a> Trial<'a> {
    /// Takes `runtime` through one untimed rotation: staging buffers reach
    /// their high-water mark and the hot rows of the skewed traffic reach the
    /// caches.
    pub fn warmed(
        mut runtime: CentaurRuntime,
        pool: &'a [Batch],
        expected: &'a [Vec<u32>],
        number: usize,
    ) -> Self {
        let mut out = vec![0.0f32; pool[0].sparse.len()];
        for batch in pool {
            runtime
                .infer_batch_into(&batch.dense, &batch.sparse, &mut out)
                .expect("generated batches are valid");
        }
        Trial {
            runtime,
            pool,
            expected,
            out,
            seq: 0,
            number,
        }
    }

    /// Windows of [`CALLS_PER_WINDOW`] calls until `budget_s` is used up (at
    /// least one), a clock reading between every two. Returns the windows'
    /// rates and counts calls and wrong answers into `run`. With a tracer,
    /// every call, every window and the whole stretch become spans.
    pub fn measure(
        &mut self,
        budget_s: f64,
        mut tracer: Option<&mut Tracer>,
        run: &mut OfflineRun,
    ) -> Vec<f64> {
        let trial = self.number;
        let trial_span = tracer.as_mut().map(|t| t.open("trial", trial, None));
        let start = Instant::now();
        let mut rates = Vec::new();
        let mut clock_before = host::clock_speed();
        loop {
            let window_span = tracer.as_mut().map(|t| t.open("window", trial, trial_span));
            let window_start = Instant::now();
            for _ in 0..CALLS_PER_WINDOW {
                let slot = self.seq % self.pool.len();
                let batch = &self.pool[slot];
                let call_start = Instant::now();
                self.runtime
                    .infer_batch_into(&batch.dense, &batch.sparse, &mut self.out)
                    .expect("generated batches are valid");
                if let Some(tracer) = tracer.as_mut() {
                    let (seq, now) = (self.seq, Instant::now());
                    tracer.record("runtime.infer", trial, seq, window_span, call_start, now);
                }
                run.wrong += u64::from(
                    self.out
                        .iter()
                        .zip(&self.expected[slot])
                        .any(|(got, want)| got.to_bits() != *want),
                );
                self.seq += 1;
            }
            let wall_s = window_start.elapsed().as_secs_f64();
            let clock_after = host::clock_speed();
            rates.push(CALLS_PER_WINDOW as f64 / wall_s / ((clock_before + clock_after) / 2.0));
            clock_before = clock_after;
            run.calls += CALLS_PER_WINDOW as u64;
            if let (Some(tracer), Some(span)) = (tracer.as_mut(), window_span) {
                tracer.close(span);
            }
            if start.elapsed().as_secs_f64() >= budget_s {
                break;
            }
        }
        if let (Some(tracer), Some(span)) = (tracer.as_mut(), trial_span) {
            tracer.close(span);
        }
        rates
    }
}
