//! Shared experiment-sweep logic used by every figure/table binary and by
//! the workspace integration tests.

use centaur::{CentaurInferenceResult, CentaurRuntime, CentaurSystem};
use centaur_cpusim::{CacheProfile, CacheProfiler, CpuConfig, CpuInferenceResult, CpuSystem};
use centaur_dlrm::config::{ModelConfig, PaperModel};
use centaur_dlrm::DlrmModel;
use centaur_gpusim::{CpuGpuInferenceResult, CpuGpuSystem};
use centaur_power::{EnergyReport, SystemKind};
use centaur_workload::{IndexDistribution, RequestGenerator};
use std::time::Instant;

/// Results of running all three systems on the same request.
#[derive(Debug, Clone)]
pub struct SystemComparison {
    /// Which paper model was run.
    pub model: PaperModel,
    /// Batch size of the request.
    pub batch: usize,
    /// CPU-only result.
    pub cpu: CpuInferenceResult,
    /// CPU-GPU result.
    pub cpu_gpu: CpuGpuInferenceResult,
    /// Centaur result.
    pub centaur: CentaurInferenceResult,
}

impl SystemComparison {
    /// Latency of a given system in nanoseconds.
    pub fn latency_ns(&self, system: SystemKind) -> f64 {
        match system {
            SystemKind::CpuOnly => self.cpu.total_ns(),
            SystemKind::CpuGpu => self.cpu_gpu.total_ns(),
            SystemKind::Centaur => self.centaur.total_ns(),
        }
    }

    /// Energy report of a given system.
    pub fn energy(&self, system: SystemKind) -> EnergyReport {
        EnergyReport::from_latency(system, self.latency_ns(system))
    }

    /// Centaur's end-to-end speedup over CPU-only (Figure 14's right axis).
    pub fn centaur_speedup_vs_cpu(&self) -> f64 {
        self.centaur.speedup_over(self.cpu.total_ns())
    }

    /// Performance of `system` normalized to CPU-GPU (Figure 15(a)).
    pub fn performance_vs_cpu_gpu(&self, system: SystemKind) -> f64 {
        self.energy(system)
            .performance_vs(&self.energy(SystemKind::CpuGpu))
    }

    /// Energy-efficiency of `system` normalized to CPU-GPU (Figure 15(b)).
    pub fn efficiency_vs_cpu_gpu(&self, system: SystemKind) -> f64 {
        self.energy(system)
            .efficiency_vs(&self.energy(SystemKind::CpuGpu))
    }
}

/// A single point of a lookup-count sweep (Figures 7(b) and 13(b)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSweepPoint {
    /// Batch size.
    pub batch: usize,
    /// Total lookups per table for the request.
    pub total_lookups_per_table: usize,
    /// CPU-only effective gather throughput in GB/s.
    pub cpu_gbs: f64,
    /// Centaur effective gather throughput in GB/s.
    pub centaur_gbs: f64,
}

/// Measured functional inference throughput of the accelerator datapath at
/// one batch size, on the production kernels: one call of batch N
/// (`CentaurRuntime::infer_batch_into`, one GEMM per MLP layer with
/// `m = batch`) against N calls of batch 1 (`infer_sample` once per
/// sample) — the paper's batching curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchThroughputPoint {
    /// Batch size of the request.
    pub batch: usize,
    /// Throughput of one batch-N call, in samples per second.
    pub batch_major_sps: f64,
    /// Throughput of N batch-1 calls, in samples per second.
    pub per_sample_sps: f64,
}

impl BatchThroughputPoint {
    /// Speedup of one batch-N call over N batch-1 calls.
    pub fn speedup(&self) -> f64 {
        if self.per_sample_sps <= 0.0 {
            0.0
        } else {
            self.batch_major_sps / self.per_sample_sps
        }
    }
}

/// Drives the three system simulators over the paper's workloads with
/// deterministic seeds and consistent warm-up.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    seed: u64,
    distribution: IndexDistribution,
}

impl ExperimentRunner {
    /// Creates a runner with the default (uniform-locality) workload and a
    /// fixed seed.
    pub fn new() -> Self {
        ExperimentRunner {
            seed: 0xC0FFEE,
            distribution: IndexDistribution::Uniform,
        }
    }

    /// Uses a different index distribution (for locality ablations).
    pub fn with_distribution(mut self, distribution: IndexDistribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// The paper's batch-size sweep.
    pub fn batch_sizes() -> [usize; 6] {
        PaperModel::paper_batch_sizes()
    }

    fn traces(
        &self,
        config: &ModelConfig,
        batch: usize,
    ) -> (
        centaur_dlrm::trace::InferenceTrace,
        centaur_dlrm::trace::InferenceTrace,
    ) {
        let mut warm_gen = RequestGenerator::new(config, self.distribution, self.seed ^ 0x5EED);
        let mut gen = RequestGenerator::new(config, self.distribution, self.seed);
        (warm_gen.inference_trace(batch), gen.inference_trace(batch))
    }

    /// Runs the CPU-only system on one request (after warm-up).
    pub fn run_cpu(&self, config: &ModelConfig, batch: usize) -> CpuInferenceResult {
        let (warm, trace) = self.traces(config, batch);
        let mut system = CpuSystem::broadwell();
        system.simulate_warm(&warm, &trace)
    }

    /// Runs the CPU-GPU system on one request (after warm-up).
    pub fn run_cpu_gpu(&self, config: &ModelConfig, batch: usize) -> CpuGpuInferenceResult {
        let (warm, trace) = self.traces(config, batch);
        let mut system = CpuGpuSystem::dgx1();
        system.simulate_warm(&warm, &trace)
    }

    /// Runs the Centaur system on one request.
    pub fn run_centaur(&self, config: &ModelConfig, batch: usize) -> CentaurInferenceResult {
        let (_, trace) = self.traces(config, batch);
        let mut system = CentaurSystem::harpv2();
        system.simulate(&trace)
    }

    /// Runs all three systems on the same request.
    pub fn compare(&self, model: PaperModel, batch: usize) -> SystemComparison {
        let config = model.config();
        SystemComparison {
            model,
            batch,
            cpu: self.run_cpu(&config, batch),
            cpu_gpu: self.run_cpu_gpu(&config, batch),
            centaur: self.run_centaur(&config, batch),
        }
    }

    /// Runs [`ExperimentRunner::compare`] over the full `models × batches`
    /// grid, fanned out across the host's cores with `std::thread::scope`.
    ///
    /// Every figure/table sweep is embarrassingly parallel — each cell
    /// builds its own simulator instances — so the grid is split into one
    /// contiguous chunk per worker. Results come back in grid order
    /// (models outer, batches inner), identical to the sequential loops the
    /// binaries used to run.
    pub fn compare_matrix(
        &self,
        models: &[PaperModel],
        batches: &[usize],
    ) -> Vec<SystemComparison> {
        let cells: Vec<(PaperModel, usize)> = models
            .iter()
            .flat_map(|&m| batches.iter().map(move |&b| (m, b)))
            .collect();
        self.parallel_cells(&cells, |&(model, batch)| self.compare(model, batch))
    }

    /// Maps `f` over `cells` in parallel, preserving order.
    fn parallel_cells<T, R, F>(&self, cells: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if cells.is_empty() {
            return Vec::new();
        }
        let workers = std::thread::available_parallelism()
            .map_or(1, |t| t.get())
            .min(cells.len());
        if workers <= 1 {
            return cells.iter().map(&f).collect();
        }
        let chunk = cells.len().div_ceil(workers);
        let mut results: Vec<Vec<R>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = cells
                .chunks(chunk)
                .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
                .collect();
            results = handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect();
        });
        results.into_iter().flatten().collect()
    }

    /// Measures *real* functional inference throughput through the
    /// accelerator datapath (not the timing model): for every batch size,
    /// times one `CentaurRuntime::infer_batch_into` call of batch N and the
    /// equivalent N `infer_sample` calls of batch 1 on identical inputs,
    /// after warm-up.
    ///
    /// The measurement loop is adaptive (~50 ms per cell, 3 repetitions
    /// minimum); set `CRITERION_QUICK=1` to collapse it to a smoke run.
    ///
    /// # Panics
    ///
    /// Panics when the model does not fit the accelerator or a request
    /// fails — these are fixed, known-good configurations.
    pub fn functional_batch_throughput(
        &self,
        config: &ModelConfig,
        batches: &[usize],
    ) -> Vec<BatchThroughputPoint> {
        let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1");
        let model = DlrmModel::random(config, self.seed).expect("valid benchmark model");
        let mut runtime = CentaurRuntime::harpv2(model).expect("benchmark model fits on chip");
        let mut points = Vec::with_capacity(batches.len());
        for &batch in batches {
            let mut generator = RequestGenerator::new(config, self.distribution, self.seed);
            let requests = request_pool(&mut generator, config, batch, quick);
            let mut out = vec![0.0f32; batch];
            let mut cursor = 0usize;
            let batch_major_sps = time_samples_per_sec(batch, quick, || {
                let request = &requests[cursor % requests.len()];
                cursor += 1;
                runtime
                    .infer_batch_into(&request.dense, &request.sparse, &mut out)
                    .expect("batched inference succeeds");
            });
            let mut cursor = 0usize;
            let per_sample_sps = time_samples_per_sec(batch, quick, || {
                let request = &requests[cursor % requests.len()];
                cursor += 1;
                for (i, indices) in request.sparse.iter().enumerate() {
                    out[i] = runtime
                        .infer_sample(request.dense.row(i), indices)
                        .expect("per-sample inference succeeds");
                }
            });
            points.push(BatchThroughputPoint {
                batch,
                batch_major_sps,
                per_sample_sps,
            });
        }
        points
    }

    /// Profiles the cache behaviour of one request (Figure 6).
    pub fn profile_cache(&self, model: PaperModel, batch: usize) -> CacheProfile {
        let config = model.config();
        let (warm, trace) = self.traces(&config, batch);
        CacheProfiler::profile(&CpuConfig::broadwell_xeon(), &trace, &warm)
    }

    /// Sweeps the total lookups per table for a single-table DLRM(4)-style
    /// configuration (Figures 7(b) and 13(b)), one sweep point per worker
    /// thread.
    pub fn lookup_sweep(&self, batch: usize, lookups: &[usize]) -> Vec<BatchSweepPoint> {
        let base = PaperModel::Dlrm4.config().with_num_tables(1);
        self.parallel_cells(lookups, |&total| {
            // The x-axis is the *total* lookups per table for the whole
            // batch; convert to per-sample lookups (at least one).
            let per_sample = (total / batch.max(1)).max(1);
            let config = base.with_lookups_per_table(per_sample);
            let cpu = self.run_cpu(&config, batch);
            let centaur = self.run_centaur(&config, batch);
            BatchSweepPoint {
                batch,
                total_lookups_per_table: per_sample * batch,
                cpu_gbs: cpu.effective_embedding_throughput().gigabytes_per_second(),
                centaur_gbs: centaur
                    .effective_embedding_throughput()
                    .gigabytes_per_second(),
            }
        })
    }
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        ExperimentRunner::new()
    }
}

/// Builds the pool of distinct requests a throughput measurement rotates
/// through.
///
/// Timing one fixed request in a loop lets a small batch's entire gathered
/// row set sit in L2 across repetitions — warm-cache numbers production
/// serving never sees (every real request draws fresh indices), which made
/// small batches look faster than large ones on gather-heavy models. The
/// pool is sized so one rotation's gather footprint (≥ 4 MB) exceeds any
/// private cache: every request's rows are cold again by the time it comes
/// back around, at every batch size.
fn request_pool(
    generator: &mut RequestGenerator,
    config: &ModelConfig,
    batch: usize,
    quick: bool,
) -> Vec<centaur_workload::FunctionalBatch> {
    let per_request = (config.gathered_bytes_per_sample() * batch.max(1) as u64).max(1);
    let pool = if quick {
        1
    } else {
        BATCH_POOL_FOOTPRINT.div_ceil(per_request).clamp(4, 512) as usize
    };
    (0..pool)
        .map(|_| generator.functional_batch(batch))
        .collect()
}

/// Rotation footprint for end-to-end batch measurements: enough gathered
/// bytes that a rotation spills L2 on any current CPU.
const BATCH_POOL_FOOTPRINT: u64 = 4 << 20;

/// Times repeated executions of `f` (each covering `batch` samples) and
/// returns the sustained samples-per-second rate. One warm-up call, then an
/// adaptive repetition count targeting ~50 ms of measurement.
fn time_samples_per_sec(batch: usize, quick: bool, mut f: impl FnMut()) -> f64 {
    f(); // Warm-up: grows every staging buffer to its high-water mark.
    if batch == 0 {
        return 0.0;
    }
    let probe = Instant::now();
    f();
    let per_rep = probe.elapsed().as_secs_f64();
    let target = if quick { 0.0 } else { 0.05 };
    let reps = if per_rep > 0.0 {
        ((target / per_rep) as u64).clamp(3, 100_000)
    } else {
        3
    };
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (batch as u64 * reps) as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_all_three_systems() {
        let runner = ExperimentRunner::new();
        let cmp = runner.compare(PaperModel::Dlrm1, 4);
        assert!(cmp.latency_ns(SystemKind::CpuOnly) > 0.0);
        assert!(cmp.latency_ns(SystemKind::CpuGpu) > 0.0);
        assert!(cmp.latency_ns(SystemKind::Centaur) > 0.0);
        assert!(cmp.centaur_speedup_vs_cpu() > 1.0);
        // Normalisation to CPU-GPU makes CPU-GPU itself exactly 1.0.
        assert!((cmp.performance_vs_cpu_gpu(SystemKind::CpuGpu) - 1.0).abs() < 1e-12);
        assert!((cmp.efficiency_vs_cpu_gpu(SystemKind::CpuGpu) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lookup_sweep_is_monotonic_in_lookups_for_cpu() {
        let runner = ExperimentRunner::new();
        let points = runner.lookup_sweep(16, &[16, 128, 512]);
        assert_eq!(points.len(), 3);
        assert!(points[0].cpu_gbs <= points[2].cpu_gbs * 1.05);
        assert!(points.iter().all(|p| p.centaur_gbs > 0.0));
    }

    #[test]
    fn compare_matrix_matches_sequential_compare() {
        let runner = ExperimentRunner::new();
        let models = [PaperModel::Dlrm1, PaperModel::Dlrm3];
        let batches = [1usize, 8];
        let parallel = runner.compare_matrix(&models, &batches);
        assert_eq!(parallel.len(), 4);
        let mut i = 0;
        for &model in &models {
            for &batch in &batches {
                let seq = runner.compare(model, batch);
                assert_eq!(parallel[i].model, model);
                assert_eq!(parallel[i].batch, batch);
                assert_eq!(parallel[i].cpu.total_ns(), seq.cpu.total_ns());
                assert_eq!(parallel[i].centaur.total_ns(), seq.centaur.total_ns());
                i += 1;
            }
        }
    }

    #[test]
    fn functional_batch_throughput_produces_positive_rates() {
        let runner = ExperimentRunner::new();
        let config = PaperModel::Dlrm1.config().with_rows_per_table(256);
        let points = runner.functional_batch_throughput(&config, &[1, 4]);
        assert_eq!(points.iter().map(|p| p.batch).collect::<Vec<_>>(), [1, 4]);
        assert!(points
            .iter()
            .all(|p| p.batch_major_sps > 0.0 && p.per_sample_sps > 0.0 && p.speedup() > 0.0));
    }

    #[test]
    fn runner_is_deterministic() {
        let a = ExperimentRunner::new().compare(PaperModel::Dlrm3, 4);
        let b = ExperimentRunner::new().compare(PaperModel::Dlrm3, 4);
        assert_eq!(a.cpu.total_ns(), b.cpu.total_ns());
        assert_eq!(a.centaur.total_ns(), b.centaur.total_ns());
    }
}
