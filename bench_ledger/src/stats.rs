//! The estimators: windows, the percentile a window can support, and the
//! figure of a run: the quiet quartile of each trial's windows, then the
//! median over trials.
//!
//! On a shared host a disturbed window is almost always a slower one, so a
//! trial's rate is the **upper** quartile of its windows and a trial's latency
//! percentile the **lower** quartile of its windows' percentile. A run's
//! figure is the **median** of its trials' figures: no single lucky trial (or
//! unlucky one) can set it, and a change that slows most windows of most
//! trials moves it. The reference host spends stretches of seconds in a
//! contended state about a third slower; a trial that falls into one reads
//! slow as a whole, which the median over trials absorbs and no quantile
//! within the trial can.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: f64 = 10.0;

/// Quantile `q` in `[0, 1]` of an ascending-sorted slice, linearly
/// interpolated between ranks (the rule `statistics.quantiles` calls
/// inclusive).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// [`quantile_sorted`] of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether a sample of `n` holds at least [`TAIL_SAMPLES`] values beyond
/// percentile `p` — the condition for reporting that percentile at all.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.99` not being exactly a hundredth.
    n as f64 * (1.0 - p) + 1e-9 >= TAIL_SAMPLES
}

/// Cuts `(time_s, value)` events into consecutive `width_s`-wide windows
/// counted from time zero, in time order and including empty windows
/// between occupied ones, then drops `drop_first` leading and `drop_last`
/// trailing windows (start-up, and the partial window the phase ends in).
///
/// What `time_s` is decides the meaning: a drain phase buckets by completion
/// time (how much got done in the window), a paced phase by scheduled
/// arrival (what a caller arriving in that window experienced).
pub fn bucket(
    events: impl Iterator<Item = (f64, f64)>,
    width_s: f64,
    drop_first: usize,
    drop_last: usize,
) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (time_s, value) in events {
        let index = (time_s.max(0.0) / width_s) as usize;
        if index >= windows.len() {
            windows.resize_with(index + 1, Vec::new);
        }
        windows[index].push(value);
    }
    let end = windows.len().saturating_sub(drop_last);
    windows.truncate(end);
    windows.drain(..drop_first.min(end));
    windows
}

/// The median and, where the window supports it, the 99th percentile of one
/// window of latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowLatency {
    /// Latencies in the window.
    pub samples: usize,
    /// Window median.
    pub p50: f64,
    /// Window p99, `None` when fewer than ten samples lie beyond it.
    pub p99: Option<f64>,
}

/// Summarises one window; `None` for an empty one.
pub fn window_latency(window: &[f64]) -> Option<WindowLatency> {
    if window.is_empty() {
        return None;
    }
    let mut sorted = window.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(WindowLatency {
        samples: sorted.len(),
        p50: quantile_sorted(&sorted, 0.5),
        p99: supports_percentile(sorted.len(), 0.99).then(|| quantile_sorted(&sorted, 0.99)),
    })
}

/// A trial's rate: the upper quartile of its windows' rates (slow windows
/// are the host's).
pub fn quiet_rate(window_rates: &[f64]) -> f64 {
    quantile(window_rates, 0.75)
}

/// A trial's latency: the lower quartile of its windows' percentile.
pub fn quiet_latency(window_latencies: &[f64]) -> f64 {
    quantile(window_latencies, 0.25)
}

/// A run's figure: `per_trial` (one of the two above) of every trial's
/// windows, then the median over trials. Trials without a window are skipped.
///
/// # Panics
///
/// Panics when no trial has a window.
pub fn run_figure<'a>(
    trials: impl IntoIterator<Item = &'a [f64]>,
    per_trial: fn(&[f64]) -> f64,
) -> f64 {
    let figures: Vec<f64> = trials
        .into_iter()
        .filter(|windows| !windows.is_empty())
        .map(per_trial)
        .collect();
    median(&figures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 3.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.125), 1.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(1000, 0.99));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(window_latency(&short).unwrap().p99, None);
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        let summary = window_latency(&long).unwrap();
        assert_eq!(summary.samples, 1000);
        assert_eq!(summary.p50, 499.5);
        assert!(summary.p99.unwrap() > 988.0);
        assert_eq!(window_latency(&[]), None);
    }

    /// One request per 10 ms for a second, each taking 22 ms: bucketing by
    /// completion moves every request two windows' worth of requests later
    /// than bucketing by scheduled arrival.
    #[test]
    fn completion_and_arrival_bucketing_differ() {
        let arrivals: Vec<f64> = (0..100).map(|i| (f64::from(i) + 0.5) * 0.01).collect();
        let by_arrival = bucket(arrivals.iter().map(|&a| (a, 0.022)), 0.1, 0, 0);
        let by_completion = bucket(arrivals.iter().map(|&a| (a + 0.022, 0.022)), 0.1, 0, 0);
        let sizes = |windows: &[Vec<f64>]| windows.iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(sizes(&by_arrival), [10; 10]);
        assert_eq!(
            sizes(&by_completion),
            [8, 10, 10, 10, 10, 10, 10, 10, 10, 10, 2]
        );
    }

    #[test]
    fn edge_windows_are_dropped_and_gaps_kept() {
        let events = [0.01, 0.11, 0.12, 0.35, 0.41].map(|t| (t, t));
        let all = bucket(events.iter().copied(), 0.1, 0, 0);
        assert_eq!(
            all.iter().map(Vec::len).collect::<Vec<_>>(),
            [1, 2, 0, 1, 1],
            "the empty window between occupied ones stays"
        );
        let inner = bucket(events.iter().copied(), 0.1, 1, 1);
        assert_eq!(inner.iter().map(Vec::len).collect::<Vec<_>>(), [2, 0, 1]);
        assert!(bucket(events.iter().copied(), 0.1, 9, 0).is_empty());
        assert!(bucket(events.iter().copied(), 0.1, 2, 9).is_empty());
    }

    /// Half of every trial's windows are disturbed, by a little or by a lot:
    /// the run's figure reads the same either way, the mean does not.
    #[test]
    fn slow_windows_do_not_move_the_figure() {
        let steady: Vec<f64> = (0..60).map(|i| 100.0 + f64::from(i % 3) * 0.1).collect();
        let disturb = |factor: f64| -> Vec<Vec<f64>> {
            (0..8)
                .map(|trial| {
                    let mut rates = steady.clone();
                    for (i, rate) in rates.iter_mut().enumerate() {
                        if (i + trial) % 2 == 0 {
                            *rate /= factor;
                        }
                    }
                    rates
                })
                .collect()
        };
        let figure = |trials: &[Vec<f64>], per_trial| {
            run_figure(trials.iter().map(Vec::as_slice), per_trial)
        };
        let (mild, severe) = (disturb(1.3), disturb(4.0));
        assert_eq!(figure(&mild, quiet_rate), figure(&severe, quiet_rate));
        assert!((figure(&severe, quiet_rate) - 100.1).abs() < 0.11);
        let mean = |trials: &[Vec<f64>]| trials.iter().flatten().sum::<f64>() / 480.0;
        assert!(mean(&mild) - mean(&severe) > 10.0, "the mean moves");

        let invert = |trials: &[Vec<f64>]| -> Vec<Vec<f64>> {
            trials
                .iter()
                .map(|t| t.iter().map(|r| 1.0 / r).collect())
                .collect()
        };
        let (mild, severe) = (invert(&mild), invert(&severe));
        assert_eq!(figure(&mild, quiet_latency), figure(&severe, quiet_latency));
    }

    /// Trial speed on the reference host is bimodal: steady within a trial,
    /// a third apart between trials. The figure follows the majority of the
    /// trials; one lucky trial in eight cannot set it (a pooled upper decile
    /// would read 150 in both mixes below), and empty trials are skipped.
    #[test]
    fn a_bimodal_trial_mix_reads_its_majority() {
        let trial =
            |level: f64| -> Vec<f64> { (0..12).map(|i| level + f64::from(i) * 0.01).collect() };
        let mix = |fast: usize| -> Vec<Vec<f64>> {
            (0..8)
                .map(|t| trial(if t < fast { 150.0 } else { 100.0 }))
                .chain([Vec::new()])
                .collect()
        };
        let figure =
            |trials: Vec<Vec<f64>>| run_figure(trials.iter().map(Vec::as_slice), quiet_rate);
        assert!(
            (figure(mix(1)) - 100.0).abs() < 0.2,
            "one fast trial in eight"
        );
        assert!((figure(mix(3)) - 100.0).abs() < 0.2, "three in eight");
        assert!((figure(mix(6)) - 150.0).abs() < 0.2, "six in eight");
        let pooled: Vec<f64> = mix(1).into_iter().flatten().collect();
        assert!(
            quantile(&pooled, 0.9) > 149.0,
            "what a pooled decile would say"
        );
    }
}
