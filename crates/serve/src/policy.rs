//! Batching policies for the serving layer.

use centaur_dlrm::ModelConfig;
use std::time::Duration;

/// How queued requests are coalesced into accelerator batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Batch-1 FIFO: every request runs alone, strictly in arrival order —
    /// the baseline an un-batched deployment would serve.
    Fifo,
    /// Dynamic batching: a worker coalesces queued requests into one batch,
    /// dispatching as soon as `max_batch` requests are buffered or
    /// `max_wait` has elapsed since the batch was opened — whichever comes
    /// first. Under saturating load the wait never triggers (the queue
    /// always holds a full batch); under light load it bounds the latency
    /// cost of waiting for co-riders.
    Dynamic {
        /// Largest coalesced batch handed to the accelerator.
        max_batch: usize,
        /// Longest a batch is held open waiting to fill.
        max_wait: Duration,
    },
    /// Deadline-aware dynamic batching: coalesces like [`Dynamic`], but the
    /// hold-open window additionally closes early when the *oldest* held
    /// request's remaining SLO slack drops below `service_estimate` — the
    /// batch dispatches partial rather than letting a request it already
    /// holds expire while waiting for co-riders.
    ///
    /// [`Dynamic`]: BatchPolicy::Dynamic
    Deadline {
        /// Largest coalesced batch handed to the accelerator.
        max_batch: usize,
        /// Longest a batch is held open waiting to fill.
        max_wait: Duration,
        /// Expected service time of one dispatched batch — the margin the
        /// oldest request needs before its deadline for the answer to still
        /// arrive in time.
        service_estimate: Duration,
    },
}

impl BatchPolicy {
    /// A production-shaped dynamic policy: one full accelerator wave per
    /// batch, held open at most 1 ms.
    // lint: allow(dead-pub) — the serve preset the benchmark's own tests pin its workloads to
    pub fn dynamic_wave() -> BatchPolicy {
        BatchPolicy::Dynamic {
            max_batch: centaur::BATCH_WAVE_SAMPLES,
            max_wait: Duration::from_millis(1),
        }
    }

    /// The deadline-aware twin of [`dynamic_wave`]: same wave-sized batch
    /// and 1 ms hold-open, dispatching early when the oldest held request
    /// has less than `service_estimate` of SLO slack left.
    ///
    /// [`dynamic_wave`]: BatchPolicy::dynamic_wave
    pub fn deadline_wave(service_estimate: Duration) -> BatchPolicy {
        BatchPolicy::Deadline {
            max_batch: centaur::BATCH_WAVE_SAMPLES,
            max_wait: Duration::from_millis(1),
            service_estimate,
        }
    }

    /// Largest batch this policy dispatches.
    pub fn max_batch(&self) -> usize {
        match *self {
            BatchPolicy::Fifo => 1,
            BatchPolicy::Dynamic { max_batch, .. } | BatchPolicy::Deadline { max_batch, .. } => {
                max_batch.max(1)
            }
        }
    }

    /// Longest a batch is held open waiting to fill.
    pub fn max_wait(&self) -> Duration {
        match *self {
            BatchPolicy::Fifo => Duration::ZERO,
            BatchPolicy::Dynamic { max_wait, .. } | BatchPolicy::Deadline { max_wait, .. } => {
                max_wait
            }
        }
    }

    /// The slack margin below which a held batch dispatches early, or `None`
    /// for deadline-oblivious policies.
    pub fn dispatch_slack(&self) -> Option<Duration> {
        match *self {
            BatchPolicy::Deadline {
                service_estimate, ..
            } => Some(service_estimate),
            _ => None,
        }
    }

    /// Short label for bench/report output: `fifo`, `dynamic64w1ms`,
    /// `deadline64w1ms e400us`, … — the hold-open window is part of the
    /// label so bench cells differing only in `max_wait` stay
    /// distinguishable, and a deadline policy's label encodes its
    /// `service_estimate` so per-tenant calibrated policies stay
    /// distinguishable too.
    pub fn label(&self) -> String {
        match *self {
            BatchPolicy::Fifo => "fifo".to_string(),
            BatchPolicy::Dynamic {
                max_batch,
                max_wait,
            } => format!("dynamic{max_batch}w{}", wait_label(max_wait)),
            BatchPolicy::Deadline {
                max_batch,
                max_wait,
                service_estimate,
            } => format!(
                "deadline{max_batch}w{}e{}",
                wait_label(max_wait),
                wait_label(service_estimate)
            ),
        }
    }
}

/// Relative per-sample serving cost of a model configuration: dense MLP
/// flops plus the bytes its sparse gathers, index streams and dense
/// activations move. Dimensionally a mix of flops and bytes, which is fine —
/// it is only ever used as a *ratio* between two configs on the same
/// hardware, where both terms scale the same way with model size.
pub fn relative_sample_cost(config: &ModelConfig) -> f64 {
    (config.dense_flops_per_sample()
        + config.gathered_bytes_per_sample()
        + config.index_bytes_per_sample()
        + config.dense_bytes_per_sample()) as f64
}

/// Calibrates a per-tenant `service_estimate` from a measured base: scales
/// `base` (measured for `base_config`, e.g. the capacity-probe model) by the
/// relative per-sample cost of `config`. A DLRM(6) batch costs ~6× a DLRM(1)
/// batch, so one shared constant either over-holds the light tenant's
/// batches or under-protects the heavy tenant's deadlines.
pub fn scaled_service_estimate(
    base: Duration,
    base_config: &ModelConfig,
    config: &ModelConfig,
) -> Duration {
    let ratio = relative_sample_cost(config) / relative_sample_cost(base_config);
    Duration::from_secs_f64(base.as_secs_f64() * ratio)
}

/// Compact duration label: whole milliseconds as `1ms`, sub-millisecond
/// windows as `200us`.
fn wait_label(wait: Duration) -> String {
    let micros = wait.as_micros();
    if micros.is_multiple_of(1_000) {
        format!("{}ms", micros / 1_000)
    } else {
        format!("{micros}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_is_batch_one_no_wait() {
        assert_eq!(BatchPolicy::Fifo.max_batch(), 1);
        assert_eq!(BatchPolicy::Fifo.max_wait(), Duration::ZERO);
        assert_eq!(BatchPolicy::Fifo.dispatch_slack(), None);
        assert_eq!(BatchPolicy::Fifo.label(), "fifo");
    }

    #[test]
    fn dynamic_clamps_and_labels_with_the_hold_open_window() {
        let p = BatchPolicy::Dynamic {
            max_batch: 0,
            max_wait: Duration::from_micros(200),
        };
        assert_eq!(p.max_batch(), 1);
        assert_eq!(p.label(), "dynamic0w200us");
        let wave = BatchPolicy::dynamic_wave();
        assert_eq!(wave.max_batch(), centaur::BATCH_WAVE_SAMPLES);
        assert_eq!(wave.dispatch_slack(), None);
        assert_eq!(
            wave.label(),
            format!("dynamic{}w1ms", centaur::BATCH_WAVE_SAMPLES)
        );
    }

    #[test]
    fn deadline_wave_carries_the_service_estimate() {
        let est = Duration::from_micros(400);
        let p = BatchPolicy::deadline_wave(est);
        assert_eq!(p.max_batch(), centaur::BATCH_WAVE_SAMPLES);
        assert_eq!(p.max_wait(), Duration::from_millis(1));
        assert_eq!(p.dispatch_slack(), Some(est));
        assert_eq!(
            p.label(),
            format!("deadline{}w1mse400us", centaur::BATCH_WAVE_SAMPLES),
            "label encodes the service estimate"
        );
        let p2 = BatchPolicy::deadline_wave(Duration::from_millis(2));
        assert_eq!(
            p2.label(),
            format!("deadline{}w1mse2ms", centaur::BATCH_WAVE_SAMPLES),
            "differently calibrated tenants get distinguishable labels"
        );
    }

    #[test]
    fn service_estimates_scale_with_model_cost() {
        use centaur_dlrm::PaperModel;
        let light = PaperModel::Dlrm1.config();
        let heavy = PaperModel::Dlrm6.config();
        let ratio = relative_sample_cost(&heavy) / relative_sample_cost(&light);
        assert!(
            (5.0..9.0).contains(&ratio),
            "a DLRM(6) sample costs ~6x a DLRM(1) sample, got {ratio:.2}x"
        );
        let base = Duration::from_micros(500);
        let scaled = scaled_service_estimate(base, &light, &heavy);
        let expected = base.as_secs_f64() * ratio;
        assert!((scaled.as_secs_f64() - expected).abs() < 1e-9);
        assert_eq!(
            scaled_service_estimate(base, &light, &light),
            base,
            "same config scales by exactly 1"
        );
    }
}
