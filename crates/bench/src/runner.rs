//! Shared experiment-sweep logic used by every figure/table binary and by
//! the workspace integration tests.

use centaur::{CentaurInferenceResult, CentaurRuntime, CentaurSystem};
use centaur_cpusim::{CacheProfile, CacheProfiler, CpuConfig, CpuInferenceResult, CpuSystem};
use centaur_dlrm::config::{ModelConfig, PaperModel};
use centaur_dlrm::DlrmModel;
use centaur_gpusim::{CpuGpuInferenceResult, CpuGpuSystem};
use centaur_power::{EnergyReport, SystemKind};
use centaur_workload::{IndexDistribution, RequestGenerator};
use std::time::{Duration, Instant};

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

    /// Runs the at-load serving sweep: for every `offered QPS × policy ×
    /// replicas` cell, replays a seeded Poisson arrival stream open-loop
    /// against a pool of replica shards (see [`centaur_serve::serve_replay`])
    /// and digests per-request end-to-end latency. `duration_s` sets the
    /// offered window per cell (the query count scales with the offered
    /// load, clamped to `[64, max_queries]`).
    ///
    /// Cells run **sequentially** — each cell saturates the host with its
    /// own generator + worker threads, so overlapping cells would corrupt
    /// the tail-latency measurement.
    ///
    /// # Panics
    ///
    /// Panics when the model does not fit the accelerator or a serving run
    /// fails — fixed, known-good configurations.
    pub fn serve_latency_sweep(
        &self,
        config: &ModelConfig,
        offered_qps: &[f64],
        policies: &[centaur_serve::BatchPolicy],
        replicas: &[usize],
        duration_s: f64,
        max_queries: usize,
    ) -> Vec<centaur_serve::ServeReport> {
        let model = DlrmModel::random(config, self.seed).expect("valid benchmark model");
        let mut reports = Vec::with_capacity(offered_qps.len() * policies.len() * replicas.len());
        for &qps in offered_qps {
            let queries = ((qps * duration_s).ceil() as usize).clamp(64, max_queries.max(64));
            for &policy in policies {
                for &shards in replicas {
                    reports.push(
                        centaur_serve::run_serve_cell(
                            &model,
                            centaur::CentaurConfig::harpv2(),
                            self.distribution,
                            centaur_serve::ServeCell::poisson(
                                qps, queries, policy, shards, self.seed,
                            ),
                        )
                        .expect("serving cell succeeds"),
                    );
                }
            }
        }
        reports
    }

    /// Runs the overload sweep: for every `traffic shape × load multiplier
    /// × serving variant` cell, replays the shaped arrival stream (offered
    /// load = `multiplier × capacity_qps`, deliberately including loads past
    /// the knee) and digests goodput-under-SLO alongside latency. Each
    /// variant pairs a batching policy with its [`ServeOptions`] so an
    /// unprotected baseline and a shedding + deadline-aware configuration
    /// sweep the same traffic.
    ///
    /// Cells run **sequentially** for the same reason as
    /// [`serve_latency_sweep`](Self::serve_latency_sweep).
    ///
    /// [`ServeOptions`]: centaur_serve::ServeOptions
    ///
    /// # Panics
    ///
    /// Panics when the model does not fit the accelerator or a serving run
    /// fails — fixed, known-good configurations.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_overload_sweep(
        &self,
        config: &ModelConfig,
        capacity_qps: f64,
        shapes: &[centaur_workload::TrafficShape],
        load_multipliers: &[f64],
        variants: &[(centaur_serve::BatchPolicy, centaur_serve::ServeOptions)],
        replicas: usize,
        duration_s: f64,
        max_queries: usize,
    ) -> Vec<centaur_serve::ServeReport> {
        let model = DlrmModel::random(config, self.seed).expect("valid benchmark model");
        let mut reports =
            Vec::with_capacity(shapes.len() * load_multipliers.len() * variants.len());
        for &shape in shapes {
            for &multiplier in load_multipliers {
                let qps = multiplier * capacity_qps;
                let queries = ((qps * duration_s).ceil() as usize).clamp(64, max_queries.max(64));
                for &(policy, options) in variants {
                    reports.push(
                        centaur_serve::run_serve_cell(
                            &model,
                            centaur::CentaurConfig::harpv2(),
                            self.distribution,
                            centaur_serve::ServeCell::poisson(
                                qps, queries, policy, replicas, self.seed,
                            )
                            .with_shape(shape)
                            .with_options(options),
                        )
                        .expect("overload cell succeeds"),
                    );
                }
            }
        }
        reports
    }

    /// Runs the availability-under-faults sweep: for every `fault spec ×
    /// load multiplier × serving variant` cell, replays a seeded Poisson
    /// stream against a **supervised** replica pool while a deterministic
    /// fault plan (sampled from the spec over the cell's replay window)
    /// injects crashes, stalls and transient datapath errors — and digests
    /// availability, restarts, retries and per-reason rejections alongside
    /// the goodput metrics. Every variant must carry supervision in its
    /// [`ServeOptions`]; a `CENTAUR_SERVE_FAULT_PLAN` env override replaces
    /// the seeded schedule of every faulted cell.
    ///
    /// Cells run **sequentially** for the same reason as
    /// [`serve_latency_sweep`](Self::serve_latency_sweep).
    ///
    /// [`ServeOptions`]: centaur_serve::ServeOptions
    ///
    /// # Panics
    ///
    /// Panics when the model does not fit the accelerator or a serving run
    /// fails — fixed, known-good configurations (the supervised pool
    /// absorbs the injected faults rather than aborting).
    #[allow(clippy::too_many_arguments)]
    pub fn serve_availability_sweep(
        &self,
        config: &ModelConfig,
        capacity_qps: f64,
        faults: &[centaur_serve::FaultSpec],
        load_multipliers: &[f64],
        variants: &[(centaur_serve::BatchPolicy, centaur_serve::ServeOptions)],
        replicas: usize,
        duration_s: f64,
        max_queries: usize,
    ) -> Vec<centaur_serve::ServeReport> {
        let model = DlrmModel::random(config, self.seed).expect("valid benchmark model");
        let mut reports =
            Vec::with_capacity(faults.len() * load_multipliers.len() * variants.len());
        for &spec in faults {
            for &multiplier in load_multipliers {
                let qps = multiplier * capacity_qps;
                let queries = ((qps * duration_s).ceil() as usize).clamp(64, max_queries.max(64));
                for &(policy, options) in variants {
                    reports.push(
                        centaur_serve::run_serve_cell(
                            &model,
                            centaur::CentaurConfig::harpv2(),
                            self.distribution,
                            centaur_serve::ServeCell::poisson(
                                qps, queries, policy, replicas, self.seed,
                            )
                            .with_options(options)
                            .with_faults(spec),
                        )
                        .unwrap_or_else(|e| {
                            panic!(
                                "availability cell failed ({spec:?}, {qps:.0} qps, {}): {e}",
                                policy.label(),
                            )
                        }),
                    );
                }
            }
        }
        reports
    }

    /// Measures the batch-1 FIFO saturation capacity of `config` on one
    /// replica — the anchor [`ExperimentRunner::serve_latency_sweep`]
    /// callers place offered loads around.
    ///
    /// # Panics
    ///
    /// Panics when the model does not fit the accelerator.
    pub fn serve_fifo_capacity_qps(&self, config: &ModelConfig) -> f64 {
        let model = DlrmModel::random(config, self.seed).expect("valid benchmark model");
        centaur_serve::calibrate_fifo_capacity_qps(
            &model,
            centaur::CentaurConfig::harpv2(),
            self.distribution,
            self.seed,
        )
        .expect("calibration succeeds")
    }

    /// Runs the cross-pool isolation sweep: a light/heavy tenant mix is
    /// served twice per scenario — **isolated** per-tenant pools (own EDF
    /// queue, own SLO, own admission depth, own supervision and fault
    /// budgets) versus one **shared-everything** pool (single FIFO queue,
    /// pooled replicas, merged budgets) — under a fault-free baseline
    /// (every tenant inside its pooled capacity) and a stressed scenario
    /// (the heaviest tenant at 2× its pooled capacity with heavy-tailed
    /// arrivals and a crash plan targeting its pool, the others at their
    /// baseline rates). Rows come back one per tenant in mix order,
    /// grouped `[baseline isolated…, baseline shared…, stressed isolated…,
    /// stressed shared…]` — isolation holds when the stressed-isolated
    /// light rows match their baseline rows while the stressed-shared ones
    /// degrade.
    ///
    /// The tenant mix reads `CENTAUR_SERVE_MIX` (default
    /// `dlrm1:0.7,dlrm6:0.3`, every model shrunk to `rows_per_table`) and
    /// per-tenant SLOs read `CENTAUR_SERVE_MIX_SLO_MS` when the list
    /// length matches the mix (default: the base `CENTAUR_SERVE_SLO_MS`
    /// scaled by each model's relative sample cost and by the tenant
    /// count, since co-located pools time-share the host). Every tenant's
    /// machine rate is **measured** (batch-1 FIFO calibration, so "2× the
    /// pooled capacity" is genuinely overload); the deadline-policy
    /// service estimates are derived from the cheapest tenant's through
    /// [`relative_sample_cost`] / [`scaled_service_estimate`] and
    /// stretched by the co-location factor.
    ///
    /// Cells run **sequentially** for the same reason as
    /// [`serve_latency_sweep`](Self::serve_latency_sweep).
    ///
    /// [`relative_sample_cost`]: centaur_serve::relative_sample_cost
    /// [`scaled_service_estimate`]: centaur_serve::scaled_service_estimate
    ///
    /// # Panics
    ///
    /// Panics when a tenant model does not fit the accelerator or a mix
    /// cell fails — fixed, known-good configurations (the supervised pools
    /// absorb the injected faults rather than aborting).
    pub fn serve_isolation_sweep(
        &self,
        rows_per_table: u64,
        duration_s: f64,
        max_queries: usize,
    ) -> Vec<centaur_serve::ServeReport> {
        use centaur_serve::{PoolMode, TenantSpec};
        use centaur_workload::{TenantTraffic, TrafficShape};

        let mix = centaur_serve::serve_mix()
            .unwrap_or_else(|| vec![(PaperModel::Dlrm1, 0.7), (PaperModel::Dlrm6, 0.3)]);
        let configs: Vec<ModelConfig> = mix
            .iter()
            .map(|(paper, _)| paper.config().with_rows_per_table(rows_per_table))
            .collect();
        let models: Vec<DlrmModel> = configs
            .iter()
            .enumerate()
            .map(|(t, config)| {
                DlrmModel::random(config, self.seed.wrapping_add(t as u64))
                    .expect("valid tenant model")
            })
            .collect();
        let costs: Vec<f64> = configs
            .iter()
            .map(centaur_serve::relative_sample_cost)
            .collect();
        // One measured capacity on the cheapest tenant anchors everything;
        // the other tenants' capacities and service estimates follow from
        // their relative per-sample cost.
        let anchor = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(t, _)| t)
            .expect("non-empty mix");
        // The rate at which each tenant's model alone would saturate the
        // whole machine — measured per tenant, because the analytical
        // per-sample cost overestimates heavy models (it ignores how much
        // better big batches amortize), and an overload cell built on an
        // underestimated pool rate is not actually overloaded.
        let machine_rates: Vec<f64> = models
            .iter()
            .map(|model| {
                centaur_serve::calibrate_fifo_capacity_qps(
                    model,
                    centaur::CentaurConfig::harpv2(),
                    self.distribution,
                    self.seed,
                )
                .expect("calibration succeeds")
            })
            .collect();
        let anchor_capacity = machine_rates[anchor];
        let base_estimate =
            Duration::from_secs_f64(centaur::BATCH_WAVE_SAMPLES as f64 / anchor_capacity.max(1.0));
        let stress_target = costs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(t, _)| t)
            .expect("non-empty mix");

        // Co-located pools time-share the host: a batch's wall-clock
        // service time — and the scheduling delay a worker can absorb —
        // stretches by roughly the number of concurrently busy pools. Both
        // the default per-tenant SLOs and the deadline-policy service
        // estimates scale by this factor; explicit
        // `CENTAUR_SERVE_MIX_SLO_MS` values are used as given.
        let contention = mix.len() as u32;
        let base_slo_ms = centaur_serve::serve_slo_ms();
        let slo_ms: Vec<f64> = centaur_serve::serve_mix_slo_ms()
            .filter(|slos| slos.len() == mix.len())
            .unwrap_or_else(|| {
                costs
                    .iter()
                    .map(|cost| base_slo_ms * cost / costs[anchor] * f64::from(contention))
                    .collect()
            });
        // The stressed tenant gets a second replica so its pool has a
        // restart to spare when the crash plan fires mid-overload.
        let replicas: Vec<usize> = (0..mix.len())
            .map(|t| if t == stress_target { 2 } else { 1 })
            .collect();
        let supervision = centaur_serve::Supervision::new(
            centaur_serve::serve_retry_limit(),
            centaur_serve::serve_restart_budget(),
        );
        // The fleet is provisioned to the mix's *work*: each tenant's pool
        // owns a slice of the one measured machine proportional to its
        // share of the offered work, so pool capacities sum to the machine
        // — on this host extra replicas buy a pool restart headroom, not
        // extra throughput. Work-proportional provisioning makes the
        // baseline request split land exactly on the mix shares.
        let total_work: f64 = mix
            .iter()
            .zip(&costs)
            .map(|((_, share), cost)| share * cost)
            .sum();
        let pooled: Vec<f64> = mix
            .iter()
            .zip(&costs)
            .zip(&machine_rates)
            .map(|(((_, share), cost), rate)| share * cost / total_work * rate)
            .collect();
        // Baseline: every tenant offers 0.5× its own pool's capacity.
        let nominal: Vec<f64> = pooled.iter().map(|capacity| 0.5 * capacity).collect();

        let mut reports = Vec::new();
        for stressed in [false, true] {
            let rates: Vec<f64> = nominal
                .iter()
                .enumerate()
                .map(|(t, &rate)| {
                    if stressed && t == stress_target {
                        2.0 * pooled[t]
                    } else {
                        rate
                    }
                })
                .collect();
            let total_qps: f64 = rates.iter().sum();
            let total_queries =
                ((total_qps * duration_s).ceil() as usize).clamp(64, max_queries.max(64));
            let mut tenants = Vec::with_capacity(mix.len());
            let mut assigned = 0.0_f64;
            for (t, &(paper, _)) in mix.iter().enumerate() {
                // The last share absorbs the rounding residue so the mix
                // always sums to exactly 1.
                let share = if t + 1 == mix.len() {
                    (1.0 - assigned).max(f64::EPSILON)
                } else {
                    rates[t] / total_qps
                };
                assigned += share;
                let under_stress = stressed && t == stress_target;
                let shape = if under_stress {
                    TrafficShape::HeavyTail
                } else {
                    TrafficShape::Poisson
                };
                let slo = Duration::from_secs_f64(slo_ms[t] * 1e-3);
                let depth = ((pooled[t] * slo.as_secs_f64()) as usize).max(16);
                let name = paper.label().to_ascii_lowercase().replace(['(', ')'], "");
                let mut spec = TenantSpec::new(
                    &name,
                    models[t].clone(),
                    TenantTraffic::new(share, shape),
                    slo,
                )
                .with_distribution(self.distribution)
                .with_replicas(replicas[t])
                .supervised(supervision)
                .with_service_estimate(
                    centaur_serve::scaled_service_estimate(
                        base_estimate,
                        &configs[anchor],
                        &configs[t],
                    ) * contention,
                )
                .with_admission_depth(depth);
                if under_stress {
                    spec = spec.with_faults(centaur_serve::FaultSpec::crashes(1).with_seed(42));
                }
                tenants.push(spec);
            }
            for mode in [PoolMode::Isolated, PoolMode::Shared] {
                reports.extend(
                    centaur_serve::run_mix_cell(
                        centaur::CentaurConfig::harpv2(),
                        &tenants,
                        mode,
                        total_qps,
                        total_queries,
                        self.seed,
                    )
                    .unwrap_or_else(|e| {
                        panic!(
                            "isolation cell failed ({} pools, stressed={stressed}): {e}",
                            mode.label(),
                        )
                    }),
                );
            }
        }
        reports
    }

    /// Renders serving measurements as the machine-readable
    /// `BENCH_serve.json` document tracked for the performance trajectory:
    /// one point per `offered QPS × traffic × policy × replicas` cell with
    /// achieved throughput, goodput under the cell's SLO, shed counts, mean
    /// coalesced batch and the full latency digest (mean, p50/p95/p99/p99.9,
    /// max). Cells without an SLO write `"slo_ms": null` and goodput equals
    /// throughput. Fault-tolerance columns ride on every point: the fault
    /// plan label, availability, per-reason rejection counts (`failed`
    /// alongside the shed split), restarts, retries and replicas lost —
    /// `"faults": "none"` with availability 1.0 on fault-free cells.
    /// Tail-tolerance columns follow: hedges issued, hedge wins,
    /// duplicates suppressed by first-result-wins resolution, quarantines
    /// entered and backoff re-admissions — all zero on unhedged cells.
    /// Multi-tenant columns lead every point: the tenant name and pool
    /// topology (`"-"` / `"single"` on single-model cells, the tenant name
    /// with `"isolated"` or `"shared"` on isolation-sweep rows).
    pub fn bench_serve_json(
        model_name: &str,
        fifo_capacity_qps: f64,
        reports: &[centaur_serve::ServeReport],
    ) -> String {
        let mut json = format!(
            "{{\n  \"unit\": \"seconds\",\n  \"scenario\": \"open_loop_shaped_replay\",\n  \
             \"model\": \"{model_name}\",\n  \"fifo_capacity_qps\": {fifo_capacity_qps:.0},\n  \
             \"points\": [\n"
        );
        for (i, r) in reports.iter().enumerate() {
            let slo_ms = r.slo_ms.map_or("null".to_string(), |ms| format!("{ms:.1}"));
            json.push_str(&format!(
                "    {{\"tenant\": \"{}\", \"pool\": \"{}\", \
                 \"offered_qps\": {:.0}, \"traffic\": \"{}\", \"policy\": \"{}\", \
                 \"replicas\": {}, \"slo_ms\": {}, \"completed\": {}, \
                 \"achieved_qps\": {:.1}, \"goodput_qps\": {:.1}, \"shed\": {}, \
                 \"shed_admission\": {}, \"shed_expired\": {}, \"deadline_misses\": {}, \
                 \"faults\": \"{}\", \"availability\": {:.6}, \"failed\": {}, \
                 \"retries\": {}, \"restarts\": {}, \"replicas_lost\": {}, \
                 \"hedges\": {}, \"hedge_wins\": {}, \"duplicates_suppressed\": {}, \
                 \"quarantines\": {}, \"readmissions\": {}, \
                 \"mean_batch\": {:.2}, \
                 \"mean_s\": {:.6}, \"p50_s\": {:.6}, \"p95_s\": {:.6}, \"p99_s\": {:.6}, \
                 \"p999_s\": {:.6}, \"max_s\": {:.6}}}{}\n",
                r.tenant,
                r.pool,
                r.offered_qps,
                r.traffic,
                r.policy,
                r.replicas,
                slo_ms,
                r.completed,
                r.achieved_qps,
                r.goodput_qps,
                r.shed,
                r.shed_admission,
                r.shed_expired,
                r.deadline_misses,
                r.faults,
                r.availability,
                r.failed,
                r.retries,
                r.restarts,
                r.replicas_lost,
                r.hedges,
                r.hedge_wins,
                r.duplicates_suppressed,
                r.quarantines,
                r.readmissions,
                r.mean_batch,
                r.latency.mean_s,
                r.latency.p50_s,
                r.latency.p95_s,
                r.latency.p99_s,
                r.latency.p999_s,
                r.latency.max_s,
                if i + 1 < reports.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
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
    fn serve_sweep_produces_reports_and_json() {
        let runner = ExperimentRunner::new();
        let config = PaperModel::Dlrm1.config().with_rows_per_table(512);
        let policies = [
            centaur_serve::BatchPolicy::Fifo,
            centaur_serve::BatchPolicy::Dynamic {
                max_batch: 8,
                max_wait: std::time::Duration::from_micros(200),
            },
        ];
        let reports = runner.serve_latency_sweep(&config, &[2_000.0], &policies, &[1, 2], 0.04, 96);
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.completed > 0
            && r.achieved_qps > 0.0
            && r.latency.p99_s >= r.latency.p50_s));
        // FIFO never coalesces; dynamic may.
        assert!(reports
            .iter()
            .filter(|r| r.policy == "fifo")
            .all(|r| (r.mean_batch - 1.0).abs() < f64::EPSILON));

        let capacity = runner.serve_fifo_capacity_qps(&config);
        assert!(capacity > 0.0);
        let json = ExperimentRunner::bench_serve_json("DLRM(1)", capacity, &reports);
        assert!(json.contains("\"policy\": \"fifo\""));
        assert!(
            json.contains("\"policy\": \"dynamic8w200us\""),
            "dynamic labels carry the hold-open window"
        );
        assert!(json.contains("\"fifo_capacity_qps\""));
        assert!(json.contains("\"traffic\": \"poisson\""));
        // Single-model cells carry placeholder multi-tenant columns.
        assert_eq!(json.matches("\"tenant\": \"-\"").count(), 4);
        assert_eq!(json.matches("\"pool\": \"single\"").count(), 4);
        assert!(json.contains("\"slo_ms\": null"), "no-SLO cells say so");
        assert_eq!(json.matches("\"p99_s\":").count(), 4);
        assert_eq!(json.matches("\"goodput_qps\":").count(), 4);
        assert_eq!(json.matches("\"shed\":").count(), 4);
        // The deep-tail and mean columns ride along in every point.
        assert_eq!(json.matches("\"p999_s\":").count(), 4);
        assert_eq!(json.matches("\"mean_s\":").count(), 4);
    }

    #[test]
    fn overload_sweep_covers_shapes_loads_and_variants() {
        use std::time::Duration;
        let runner = ExperimentRunner::new();
        let config = PaperModel::Dlrm1.config().with_rows_per_table(512);
        let slo = Duration::from_millis(5);
        let variants = [
            (
                centaur_serve::BatchPolicy::dynamic_wave(),
                centaur_serve::ServeOptions::with_slo(slo),
            ),
            (
                centaur_serve::BatchPolicy::deadline_wave(Duration::from_micros(500)),
                centaur_serve::ServeOptions::overload_protected(slo, 256),
            ),
        ];
        let shapes = [
            centaur_workload::TrafficShape::Poisson,
            centaur_workload::TrafficShape::Bursty,
        ];
        let reports = runner.serve_overload_sweep(
            &config,
            50_000.0,
            &shapes,
            &[0.5, 1.5],
            &variants,
            1,
            0.01,
            128,
        );
        assert_eq!(reports.len(), 8, "2 shapes × 2 loads × 2 variants");
        assert!(reports.iter().all(|r| r.slo_ms == Some(5.0)));
        assert!(reports.iter().any(|r| r.traffic == "bursty"));
        assert!(reports.iter().any(|r| r.policy.starts_with("deadline")));
        for r in &reports {
            assert!(r.goodput_qps <= r.achieved_qps + 1e-9);
            assert_eq!(r.shed, r.shed_admission + r.shed_expired);
        }
        let json = ExperimentRunner::bench_serve_json("DLRM(1)", 50_000.0, &reports);
        assert!(json.contains("\"traffic\": \"bursty\""));
        assert!(json.contains("\"slo_ms\": 5.0"));
        assert_eq!(json.matches("\"goodput_qps\":").count(), 8);
        // Fault-free cells still carry the availability columns.
        assert_eq!(json.matches("\"faults\": \"none\"").count(), 8);
        assert_eq!(json.matches("\"availability\": 1.000000").count(), 8);
    }

    #[test]
    fn availability_sweep_survives_injected_faults_with_full_accounting() {
        use std::time::Duration;
        let runner = ExperimentRunner::new();
        let config = PaperModel::Dlrm1.config().with_rows_per_table(512);
        let slo = Duration::from_millis(5);
        let supervision = centaur_serve::Supervision::default();
        let variants = [(
            centaur_serve::BatchPolicy::dynamic_wave(),
            centaur_serve::ServeOptions::with_slo(slo).supervised(supervision),
        )];
        let faults = [
            centaur_serve::FaultSpec::none(),
            centaur_serve::FaultSpec::crashes(1).with_seed(41),
        ];
        let reports = runner.serve_availability_sweep(
            &config,
            20_000.0,
            &faults,
            &[0.8],
            &variants,
            2,
            0.02,
            256,
        );
        assert_eq!(reports.len(), 2, "2 fault specs × 1 load × 1 variant");
        let clean = &reports[0];
        assert_eq!(clean.faults, "none");
        assert_eq!(clean.restarts, 0);
        assert_eq!(clean.availability, 1.0);
        let crashed = &reports[1];
        assert_eq!(crashed.faults, "c1");
        assert_eq!(crashed.restarts, 1, "the crashed replica restarted");
        assert_eq!(crashed.replicas_lost, 0);
        for r in &reports {
            // queries = clamp(ceil(0.8 × 20k × 0.02 s), 64, 256) = 256.
            assert_eq!(
                r.completed + r.shed + r.failed,
                256,
                "every generated request reached exactly one terminal state"
            );
            assert!(r.availability >= 0.99, "availability {}", r.availability);
        }
        let json = ExperimentRunner::bench_serve_json("DLRM(1)", 20_000.0, &reports);
        assert!(json.contains("\"faults\": \"c1\""));
        assert_eq!(json.matches("\"restarts\":").count(), 2);
        assert_eq!(json.matches("\"failed\":").count(), 2);
        assert_eq!(json.matches("\"replicas_lost\":").count(), 2);
    }

    #[test]
    fn isolation_sweep_confines_stress_to_the_heavy_tenant_pool() {
        let runner = ExperimentRunner::new();
        let reports = runner.serve_isolation_sweep(512, 0.02, 192);
        assert_eq!(reports.len(), 8, "2 scenarios × 2 pool modes × 2 tenants");
        // Rows group [baseline isolated, baseline shared, stressed
        // isolated, stressed shared], one row per tenant in mix order.
        assert!(reports[..2]
            .iter()
            .all(|r| r.pool == "isolated" && r.faults == "none"));
        assert!(reports[2..4].iter().all(|r| r.pool == "shared"));
        let light_stressed = &reports[4];
        let heavy_stressed = &reports[5];
        assert_eq!(light_stressed.tenant, "dlrm1");
        assert_eq!(heavy_stressed.tenant, "dlrm6");
        assert_eq!(heavy_stressed.traffic, "heavytail");
        assert_eq!(
            heavy_stressed.faults, "c1",
            "the crash plan lands on the heavy pool"
        );
        assert_eq!(
            light_stressed.faults, "none",
            "the isolated light pool never sees the heavy tenant's faults"
        );
        assert_eq!(light_stressed.traffic, "poisson");
        // Each tenant row is judged against its own SLO and runs its own
        // calibrated deadline policy; the heavy model's budgets are larger.
        assert!(heavy_stressed.slo_ms.unwrap() > light_stressed.slo_ms.unwrap());
        assert_ne!(light_stressed.policy, heavy_stressed.policy);
        // In the shared stressed cell the merged pool-level fault plan
        // taints every tenant row — there is no per-tenant fault budget.
        assert!(reports[6..8]
            .iter()
            .all(|r| r.pool == "shared" && r.faults == "c1"));
        let json = ExperimentRunner::bench_serve_json("mix", 0.0, &reports);
        assert_eq!(json.matches("\"pool\": \"isolated\"").count(), 4);
        assert_eq!(json.matches("\"pool\": \"shared\"").count(), 4);
        assert_eq!(json.matches("\"tenant\": \"dlrm6\"").count(), 4);
    }

    #[test]
    fn runner_is_deterministic() {
        let a = ExperimentRunner::new().compare(PaperModel::Dlrm3, 4);
        let b = ExperimentRunner::new().compare(PaperModel::Dlrm3, 4);
        assert_eq!(a.cpu.total_ns(), b.cpu.total_ns());
        assert_eq!(a.centaur.total_ns(), b.centaur.total_ns());
    }
}
