//! `bench_ledger`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench_ledger/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload for about `--seconds` of measurement, checks every
//! output, and prints two lines: the environment and the sample counts
//! behind each figure, then `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that gives the per-layer metrics. See
//! `README.md` beside this package for what each name means.

mod host;
mod layers;
mod offline;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Drive, Inputs, Workload};

/// Cold builds behind `setup_s`.
const SETUP_BUILDS: usize = 11;

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    /// Internal: this process is one of the cold starts behind `setup_s`.
    setup_probe: bool,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut repeat, mut setup_probe) =
            (None, 1u64, 24.0f64, false, None, false);
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let invalid = || format!("{flag}: invalid value {value:?}");
            let on_off = || match value.as_str() {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(invalid()),
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::by_name(&value).ok_or_else(|| {
                        let names: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
                        format!("unknown workload {value:?}, expected one of {names:?}")
                    })?);
                }
                "--seed" => seed = value.parse().map_err(|_| invalid())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| invalid())?;
                    if !(seconds > 0.0 && seconds <= 60.0) {
                        return Err(format!("--seconds must be in (0, 60], got {value}"));
                    }
                }
                "--trace" => trace = on_off()?,
                "--setup-probe" => setup_probe = on_off()?,
                "--repeat" => {
                    repeat = Some(value.parse().ok().filter(|n| *n >= 2).ok_or_else(invalid)?)
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            repeat,
            setup_probe,
        })
    }
}

/// Seconds of one cold start in this process, at the reference clock: a new
/// model, a replica pool of the workload's size around it, and the first
/// inference, timed between two clock readings.
fn cold_start_seconds(workload: &Workload, seed: u64) -> f64 {
    let inputs = Inputs::generate(workload, seed, workload.batch);
    let first = inputs
        .batches(workload.batch, 1)
        .pop()
        .expect("one batch was generated");
    let mut out = vec![0.0f32; workload.batch];
    let clock_before = host::clock_speed();
    let start = Instant::now();
    let mut pool = inputs.fresh_pool();
    pool[0]
        .infer_batch_into(&first.dense, &first.sparse, &mut out)
        .expect("generated batches are valid");
    let seconds = start.elapsed().as_secs_f64();
    seconds * (clock_before + host::clock_speed()) / 2.0
}

/// `setup_s`: the median of [`SETUP_BUILDS`] cold starts, each in a child
/// process of its own. Repeated in one process, a build's cost depends on
/// what the allocator kept from the one before (the same loop read 0.10 s or
/// 0.046 s per build from one run to the next); a fresh process is the cold
/// start a user pays.
fn setup_seconds(workload: &Workload, seed: u64) -> f64 {
    let starts: Vec<f64> = (0..SETUP_BUILDS)
        .map(|_| {
            run_self(workload, seed, &["--setup-probe", "1"])
                .expect("a cold-start child succeeds")
                .trim()
                .parse()
                .expect("a cold-start child prints its seconds")
        })
        .collect();
    stats::median(&starts)
}

/// Runs this program again as a child process on `workload` and `seed` and
/// waits for it; its standard output, or `None` when it failed.
fn run_self(workload: &Workload, seed: u64, more: &[&str]) -> Option<String> {
    let program = std::env::current_exe().expect("the benchmark knows its own path");
    let output = std::process::Command::new(program)
        .args(["--workload", workload.name, "--seed", &seed.to_string()])
        .args(more)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
}

/// What the workload's own loops measured over a set of trials.
enum Loops {
    Offline(offline::OfflineRun),
    Serve(serve::ServeRun),
}

impl Loops {
    fn throughput_per_s(&self, batch: usize) -> f64 {
        match self {
            Loops::Offline(run) => run.throughput_per_s(batch),
            Loops::Serve(run) => run.throughput_per_s(),
        }
    }

    /// Operations timed, and those that did not end in a right answer.
    fn operations(&self) -> (u64, u64) {
        match self {
            Loops::Offline(run) => (run.calls, run.wrong),
            Loops::Serve(run) => (run.generated, run.failed),
        }
    }

    /// JSON members: the sample counts behind the figures.
    fn samples(&self) -> String {
        match self {
            Loops::Offline(run) => format!(
                "\"trials\": {}, \"windows\": {}, \"calls_per_window\": {}, \"oracle_batches\": {}",
                run.trials.len(),
                run.windows(),
                offline::CALLS_PER_WINDOW,
                offline::ORACLE_BATCHES,
            ),
            Loops::Serve(run) => format!(
                "\"trials\": {}, \"drain_windows\": {}, \"paced_windows\": {}, \
                 \"paced_windows_with_p99\": {}, \"min_paced_window_samples\": {}, \
                 \"reference_ids\": {}, \"generator_lateness\": \"not visible from outside \
                 serve_replay; waits for spans inside the program\"",
                run.drains.len(),
                run.drains.iter().map(Vec::len).sum::<usize>(),
                run.paced_p50_s.iter().map(Vec::len).sum::<usize>(),
                run.paced_p99_s.iter().map(Vec::len).sum::<usize>(),
                if run.paced_p50_s.is_empty() {
                    0
                } else {
                    run.min_window_samples
                },
                serve::REFERENCE_IDS,
            ),
        }
    }
}

/// An offline workload's pool of batches and the answers expected for them.
struct OfflineInputs {
    pool: Vec<workload::Batch>,
    expected: Vec<Vec<u32>>,
    oracle_misses: u64,
}

impl OfflineInputs {
    fn prepare(workload: &Workload, inputs: &Inputs) -> Self {
        let pool = inputs.batches(workload.batch, workload::POOL_BATCHES);
        let (expected, oracle_misses) = offline::expected_answers(inputs, &pool);
        OfflineInputs {
            pool,
            expected,
            oracle_misses,
        }
    }

    /// Trial `number` on a freshly built runtime, warmed.
    fn trial(&self, inputs: &Inputs, number: usize) -> offline::Trial<'_> {
        let runtime = inputs.fresh_pool().pop().expect("pool of one");
        offline::Trial::warmed(runtime, &self.pool, &self.expected, number)
    }
}

/// What a run hands back besides its result line.
struct Report {
    result: RunResult,
    /// JSON members describing the samples behind the figures.
    samples: String,
}

/// `--trace 0`: the end-to-end metrics, tracing off. `setup` measures
/// `setup_s` ([`setup_seconds`], except under test).
fn run_untraced(args: &Args, setup: fn(&Workload, u64) -> f64) -> Report {
    let workload = args.workload;
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup(workload, args.seed));
    let trials = workload.trials_for(args.seconds);
    let inputs = Inputs::generate(workload, args.seed, workload.requests_needed(0.0));
    // Each trial's own resident high-water mark, model build included.
    let mut trial_rss_mb = Vec::with_capacity(trials);
    let run = match workload.drive {
        Drive::Offline => {
            let prepared = OfflineInputs::prepare(workload, &inputs);
            let mut run = offline::OfflineRun {
                wrong: prepared.oracle_misses,
                ..Default::default()
            };
            for number in 0..trials {
                host::restart_peak_rss();
                let mut trial = prepared.trial(&inputs, number);
                let rates = trial.measure(args.seconds / trials as f64, None, &mut run);
                run.trials.push(rates);
                trial_rss_mb.push(host::peak_rss_mb());
            }
            Loops::Offline(run)
        }
        Drive::Serve { .. } => {
            let replayer = serve::Replayer::new(&inputs, workload, None, args.seed);
            let mut run = serve::ServeRun::new();
            for trial in 0..trials {
                host::restart_peak_rss();
                replayer.drain(trial, None, &mut run);
                trial_rss_mb.push(host::peak_rss_mb());
            }
            Loops::Serve(run)
        }
    };
    metrics.set("throughput_per_s", run.throughput_per_s(workload.batch));
    metrics.set("peak_rss_mb", stats::median(&trial_rss_mb));
    let (attempted, failed) = run.operations();
    Report {
        result: RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        samples: run.samples(),
    }
}

/// Where build outputs go: the trace is written beside them.
fn target_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), Into::into)
}

/// One minus the median of `ratios`: the share of its throughput a variant
/// loses against the plain run it was paired with.
fn lost_share(ratios: &[f64]) -> f64 {
    1.0 - stats::median(ratios)
}

/// The workload's own loops under a traced run, in pairs whose two halves
/// differ by one thing only and sit next to each other in time, so that a
/// tax is the median of per-pair ratios and not a difference of two figures
/// taken minutes apart.
///
/// Offline, every trial runs half its budget plain and half recording spans,
/// on the same runtime, in alternating order. Serving, every trial is a
/// plain drain, an armed drain and a paced phase; odd trials record spans
/// and pair with the even trial before them. Fills `trace.`, `harness.` and
/// `supervisor.`; returns the plain loops.
fn traced_trials(
    workload: &Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    run_batch_s: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Loops {
    match workload.drive {
        Drive::Offline => {
            let trials = workload.trials_for(seconds);
            let half_s = seconds / trials as f64 / 2.0;
            let prepared = OfflineInputs::prepare(workload, inputs);
            let mut run = offline::OfflineRun {
                wrong: prepared.oracle_misses,
                ..Default::default()
            };
            let mut traced_to_plain = Vec::new();
            for number in 0..trials {
                let mut trial = prepared.trial(inputs, number);
                let (plain, traced);
                if number % 2 == 0 {
                    plain = trial.measure(half_s, None, &mut run);
                    traced = trial.measure(half_s, Some(tracer), &mut run);
                } else {
                    traced = trial.measure(half_s, Some(tracer), &mut run);
                    plain = trial.measure(half_s, None, &mut run);
                }
                traced_to_plain.push(stats::quiet_rate(&traced) / stats::quiet_rate(&plain));
                run.trials.push(plain);
            }
            metrics.set("trace.overhead_share", lost_share(&traced_to_plain));
            for name in [
                "harness.mean_batch",
                "harness.batches",
                "harness.completed",
                "harness.shed",
                "harness.failed",
                "harness.min_latency_ms",
                "harness.paced_p50_ms",
                "harness.paced_p99_ms",
                "harness.drain_vs_stage_ratio",
                "supervisor.armed_drain_per_s",
                "supervisor.armed_tax_share",
            ] {
                metrics.set(name, 0.0);
            }
            Loops::Offline(run)
        }
        Drive::Serve { .. } => {
            // A trial holds three phases; the nearest even number of trials
            // that fit, so that every traced one has a plain partner.
            let pairs = (seconds / (6.0 * workload::DRAIN_TRIAL_S)).round() as usize;
            let trials = 2 * pairs.max(1);
            let paced_s = workload::PACED_PHASE_S.min(seconds);
            let replayer = serve::Replayer::new(inputs, workload, Some(paced_s), seed);
            let mut run = serve::ServeRun::new();
            let (mut plain_rates, mut armed_rates) = (Vec::new(), Vec::new());
            for trial in 0..trials {
                let traced = trial % 2 == 1;
                let plain = replayer.drain(trial, Some(&mut *tracer).filter(|_| traced), &mut run);
                let armed = replayer.armed_drain(trial, tracer, &mut run);
                replayer.paced(trial, Some(&mut *tracer).filter(|_| traced), &mut run);
                plain_rates.push(stats::quiet_rate(&plain));
                armed_rates.push(stats::quiet_rate(&armed));
            }
            let traced_to_plain: Vec<f64> = plain_rates
                .chunks_exact(2)
                .map(|pair| pair[1] / pair[0])
                .collect();
            let armed_to_plain: Vec<f64> = armed_rates
                .iter()
                .zip(&plain_rates)
                .map(|(armed, plain)| armed / plain)
                .collect();
            metrics.set("trace.overhead_share", lost_share(&traced_to_plain));
            metrics.set("supervisor.armed_drain_per_s", stats::median(&armed_rates));
            metrics.set("supervisor.armed_tax_share", lost_share(&armed_to_plain));
            metrics.set(
                "harness.mean_batch",
                run.completed as f64 / run.batches as f64,
            );
            metrics.set("harness.batches", run.batches as f64);
            metrics.set("harness.completed", run.completed as f64);
            metrics.set("harness.shed", run.shed as f64);
            metrics.set("harness.failed", run.harness_failed as f64);
            metrics.set("harness.min_latency_ms", run.min_latency_s * 1e3);
            metrics.set("harness.paced_p50_ms", run.paced_p50_ms());
            metrics.set("harness.paced_p99_ms", run.paced_p99_ms());
            metrics.set(
                "harness.drain_vs_stage_ratio",
                run.throughput_per_s() / (workload.batch as f64 / run_batch_s),
            );
            Loops::Serve(run)
        }
    }
}

/// `--trace 1`: the per-layer metrics. Half of `--seconds` times each layer
/// on its own; the other half runs the workload itself ([`traced_trials`]).
fn run_traced(args: &Args) -> Report {
    let workload = args.workload;
    let mut metrics = Metrics::new(PER_LAYER);
    let mut tracer = Tracer::new(workload.name, 1 << 18);
    let ceilings_before = (host::peak_gflops(), host::stream_read_gbs());

    let generation = Instant::now();
    let requests = workload.requests_needed(workload::PACED_PHASE_S);
    let inputs = Inputs::generate(workload, args.seed, requests);
    metrics.set(
        "workload.gen_requests_per_s",
        inputs.requests.len() as f64 / generation.elapsed().as_secs_f64(),
    );

    let run_batch_s = layers::measure(
        workload,
        &inputs,
        args.seed,
        args.seconds / 2.0,
        &mut tracer,
        &mut metrics,
    );
    let run = traced_trials(
        workload,
        &inputs,
        args.seed,
        args.seconds / 2.0,
        run_batch_s,
        &mut tracer,
        &mut metrics,
    );
    let (attempted, failed) = run.operations();

    // The ceilings double as a disturbance canary: measured before and after,
    // the better reading is the ceiling and both go on the samples line.
    let ceilings_after = (host::peak_gflops(), host::stream_read_gbs());
    metrics.set("host.peak_gflops", ceilings_before.0.max(ceilings_after.0));
    metrics.set(
        "host.stream_read_gbs",
        ceilings_before.1.max(ceilings_after.1),
    );
    metrics.set("host.nproc", host::nproc() as f64);

    let trace_file = match tracer.write(&target_dir()) {
        Ok(path) => report::json_string(&path.to_string_lossy()),
        Err(error) => report::json_string(&format!("not written: {error}")),
    };
    let samples = format!(
        "{}, \"spans\": {}, \"trace_file\": {trace_file}, \
         \"peak_gflops_before_after\": [{}, {}], \"stream_read_gbs_before_after\": [{}, {}]",
        run.samples(),
        tracer.len(),
        ceilings_before.0,
        ceilings_after.0,
        ceilings_before.1,
        ceilings_after.1,
    );
    Report {
        result: RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
        samples,
    }
}

/// `--repeat N`: the same untraced run, same seed and so same inputs, in `N`
/// fresh child processes, then each end-to-end metric's median, quartile
/// spread and range over the children, each as a share of the median: what
/// the host alone does to the figures.
fn run_repeated(args: &Args, repeats: usize) -> ExitCode {
    let mut lines = Vec::new();
    for child in 0..repeats {
        let seconds = args.seconds.to_string();
        let stdout = run_self(
            args.workload,
            args.seed,
            &["--seconds", &seconds, "--trace", "0"],
        );
        let Some(line) = stdout.as_deref().and_then(|out| out.lines().last()) else {
            eprintln!("bench_ledger: child {child} failed");
            return ExitCode::FAILURE;
        };
        println!("{line}");
        lines.push(line.to_string());
    }
    for (name, unit) in END_TO_END {
        let values: Vec<f64> = lines
            .iter()
            .map(|line| report::metric_in(line, name).expect("children print every metric"))
            .collect();
        let median = stats::median(&values);
        let quartiles = stats::quantile(&values, 0.75) - stats::quantile(&values, 0.25);
        let range = stats::quantile(&values, 1.0) - stats::quantile(&values, 0.0);
        println!(
            "{name}: median {median} {unit}, quartile spread {:.2}%, range {:.2}% over {repeats} runs",
            100.0 * quartiles / median,
            100.0 * range / median,
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_ledger: {message}");
            eprintln!(
                "usage: bench_ledger --workload <name> [--seed <n>] [--seconds <s>] \
                 [--trace <0|1>] [--repeat <n>]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = host::program_knob_set() {
        eprintln!(
            "bench_ledger: {knob} is set; the benchmark measures the program's defaults \
             and refuses to run with any of its knobs set"
        );
        return ExitCode::from(2);
    }
    if args.setup_probe {
        println!("{}", cold_start_seconds(args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    if let Some(repeats) = args.repeat {
        return run_repeated(&args, repeats);
    }
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args, setup_seconds)
    };
    let missing = report.result.metrics.missing();
    assert!(missing.is_empty(), "metrics never measured: {missing:?}");
    println!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"environment\": {}, \"ops_attempted\": {}, \
         \"ops_failed\": {}, {}}}",
        args.workload.name,
        args.trace,
        host::environment_json(args.seed, args.seconds, args.workload.driven_threads()),
        report.result.attempted,
        report.result.failed,
        report.samples,
    );
    println!("{}", report.result.json());
    if report.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "serve_single",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.name, "serve_single");
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.repeat),
            (42, 10.0, true, None)
        );
        let defaults = parse(&["--workload", "offline_mlp"]).unwrap();
        assert_eq!((defaults.seed, defaults.trace), (1, false));
    }

    #[test]
    fn bad_command_lines_are_refused_with_a_reason() {
        for (args, reason) in [
            (&["--seed", "1"][..], "--workload is required"),
            (&["--workload", "offline"], "unknown workload"),
            (
                &["--workload", "offline_mlp", "--trace", "2"],
                "invalid value",
            ),
            (
                &["--workload", "offline_mlp", "--seconds", "0"],
                "must be in",
            ),
            (
                &["--workload", "offline_mlp", "--seconds", "90"],
                "must be in",
            ),
            (
                &["--workload", "offline_mlp", "--repeat", "1"],
                "invalid value",
            ),
            (
                &["--workload", "offline_mlp", "--scale", "1"],
                "unknown argument",
            ),
            (&["--workload"], "needs a value"),
        ] {
            let error = parse(args).unwrap_err();
            assert!(error.contains(reason), "{args:?}: {error}");
        }
    }

    /// One tiny untraced and one tiny traced run of `name`: every metric of
    /// the run's table is measured, printed with its unit, and nothing fails.
    fn smoke(name: &str) {
        for trace in [false, true] {
            let args = Args {
                workload: Workload::by_name(name).unwrap(),
                seed: 9,
                seconds: 0.4,
                trace,
                repeat: None,
                setup_probe: false,
            };
            // Under test the running program is the test harness, so the
            // cold start is timed here instead of in children.
            let (report, table) = if trace {
                (run_traced(&args), PER_LAYER)
            } else {
                (run_untraced(&args, cold_start_seconds), END_TO_END)
            };
            let result = &report.result;
            assert!(result.correct && result.failed == 0 && result.attempted >= 1);
            assert_eq!(result.metrics.missing(), [""; 0]);
            assert!(
                report.samples.starts_with("\"trials\": "),
                "{}",
                report.samples
            );
            let line = result.json();
            for (metric, unit) in table {
                let value = report::metric_in(&line, metric).expect(metric);
                assert!(value.is_finite(), "{metric} = {value}");
                assert!(trace || value > 0.0, "end-to-end {metric} must never be 0");
                assert!(line.contains(&format!(
                    "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                )));
            }
        }
    }

    #[test]
    fn smoke_offline_embed() {
        smoke("offline_embed");
    }

    #[test]
    fn smoke_offline_mlp() {
        smoke("offline_mlp");
    }

    #[test]
    fn smoke_serve_batched() {
        smoke("serve_batched");
    }

    #[test]
    fn smoke_serve_single() {
        smoke("serve_single");
    }
}
