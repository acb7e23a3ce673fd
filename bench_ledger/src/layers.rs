//! Per-layer timings of a traced run: each layer's public function timed
//! from here, on the workload's own batches, so that a layer's cost can be
//! set against the layer below it.
//!
//! The program records no spans of its own yet, so a parent and its children
//! are timed in separate loops over the same inputs and a layer's tax is
//! `(layer - its children) / layer`. Every loop is run in [`ROUNDS`] rounds
//! that take the layers in turn, so a slow minute on the host falls on a
//! parent and its children alike, and each figure is the median call over
//! all rounds, at the reference clock ([`host::clock_speed`]).

use crate::host;
use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{batches_of, Batch, Drive, Inputs, Workload, POOL_BATCHES};
use centaur::{CentaurConfig, CentaurRuntime, DenseAccelerator, EbStreamer};
use centaur_bench::ExperimentRunner;
use centaur_dlrm::kernel::{self, Workspace};
use centaur_dlrm::trace::{GatherTrace, SampleTrace};
use centaur_dlrm::{BatchWorkspace, DlrmModel, InferenceRequest, InferenceTrace};
use centaur_serve::{generate_requests, ArrivalQueue, BatchPolicy, QueuedRequest, ReplicaStage};
use centaur_workload::IndexDistribution;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Rounds each layer's loop is split over.
const ROUNDS: usize = 3;
/// Timed loops per round, for sharing out the budget.
const LOOPS_PER_ROUND: usize = 15;
/// Rows of `kernel.gemm_b64`: the batch from which the default backend splits
/// the paper's wider GEMMs into one band per hardware thread.
const BANDED_BATCH: usize = 64;
/// Batches in the uniform-index rotation of `kernel.gather_uniform_gbs`.
const UNIFORM_BATCHES: usize = 64;
/// Most timed calls (and so spans) per layer and round.
const MAX_CALLS: usize = 2048;
/// Calls per round behind `runtime.call_p99_ms`: over all rounds, ten
/// samples beyond the p99.
const P99_CALLS: usize = 1000usize.div_ceil(ROUNDS);
/// Batches replayed through the timing model.
const SIMULATED_TRACES: usize = 32;
/// Requests pushed through the queue per round.
const QUEUE_REQUESTS: usize = 1 << 16;

/// Times layers into one tracer under one root span, pooling each layer's
/// call times over the rounds.
struct Timer<'a> {
    tracer: &'a mut Tracer,
    root: usize,
    round: usize,
    budget_s: f64,
    call_s: BTreeMap<&'static str, Vec<f64>>,
}

impl Timer<'_> {
    /// Calls `call(slot)` over a rotation of `slots` inputs: one untimed
    /// pass of up to 32 calls, then timed calls until the loop's budget is
    /// spent and `min_calls` are made, [`MAX_CALLS`] at most. The loop is a
    /// span named `name`; each call a child span named `call`. Call times are
    /// kept at the reference clock: scaled by the mean of a clock reading
    /// before the loop and one after it (the spans stay wall-clock).
    fn time(
        &mut self,
        name: &'static str,
        slots: usize,
        min_calls: usize,
        mut call: impl FnMut(usize),
    ) {
        for slot in 0..slots.min(32) {
            call(slot);
        }
        let clock_before = host::clock_speed();
        let group = self.tracer.open(name, self.round, Some(self.root));
        let mut wall_s = Vec::new();
        let loop_start = Instant::now();
        let mut previous = loop_start;
        let mut seq = 0;
        while seq < MAX_CALLS
            && (seq < min_calls || (previous - loop_start).as_secs_f64() < self.budget_s)
        {
            call(seq % slots);
            let now = Instant::now();
            wall_s.push((now - previous).as_secs_f64());
            self.tracer
                .record("call", self.round, seq, Some(group), previous, now);
            previous = now;
            seq += 1;
        }
        self.tracer.close(group);
        let clock = (clock_before + host::clock_speed()) / 2.0;
        self.call_s
            .entry(name)
            .or_default()
            .extend(wall_s.iter().map(|s| s * clock));
    }

    /// Median microseconds of every call made under `name`.
    fn median_us(&self, name: &str) -> f64 {
        stats::median(&self.call_s[name]) * 1e6
    }
}

/// One round over `kernel.` to `dense.`: everything that needs the model but
/// not a runtime. Returns the standalone streamer's hot-row hit rate.
fn model_layers(
    timer: &mut Timer<'_>,
    model: &DlrmModel,
    pool: &[Batch],
    uniform_pool: &[Batch],
) -> f64 {
    let config = model.config();
    let batch = pool[0].sparse.len();
    let slots = pool.len();
    let dim = config.embedding_dim;
    let stride = config.num_tables * dim;
    let cols = config.dense_features;
    let backend = kernel::global_backend();
    let bag = model.embeddings();
    let mut reduced = vec![0.0f32; batch * stride];
    let mut out = vec![0.0f32; batch];

    // kernel: the GEMMs of both MLPs at m = batch, and the bare gathers.
    let layers: Vec<_> = model
        .bottom_mlp()
        .iter()
        .chain(model.top_mlp().iter())
        .collect();
    // Also at 64 rows whatever the workload's batch: there the default
    // backend bands every GEMM of 2mkn >= 2^22 over freshly spawned threads,
    // a path `offline_mlp` stays under at its batch of 16.
    for (name, rows) in [("kernel.gemm", batch), ("kernel.gemm_b64", BANDED_BATCH)] {
        let mut activations: Vec<(Vec<f32>, Vec<f32>)> = layers
            .iter()
            .map(|layer| {
                let input = (0..rows * layer.in_dim())
                    .map(|i| (i % 17) as f32 * 0.01)
                    .collect();
                (input, vec![0.0f32; rows * layer.out_dim()])
            })
            .collect();
        timer.time(name, slots, 0, |_| {
            for (layer, (input, output)) in layers.iter().zip(&mut activations) {
                kernel::gemm_bias_act_prepacked(
                    backend,
                    input,
                    layer.packed(),
                    Some(layer.bias().as_slice()),
                    layer.activation().fused(),
                    output,
                    rows,
                );
            }
            black_box(&activations);
        });
    }
    // Table-major, the order the layers above gather in: one table's hot
    // rows serve the whole batch before the next table is touched.
    let mut gather = |name, pool: &[Batch]| {
        timer.time(name, pool.len(), 0, |slot| {
            reduced.fill(0.0);
            for (index, table) in bag.iter().enumerate() {
                for (sample, row) in pool[slot]
                    .sparse
                    .iter()
                    .zip(reduced.chunks_exact_mut(stride))
                {
                    let sum = &mut row[index * dim..(index + 1) * dim];
                    kernel::gather_rows_sum(table.as_slice(), dim, &sample[index], sum);
                }
            }
        })
    };
    gather("kernel.gather", pool);
    gather("kernel.gather_uniform", uniform_pool);

    // embedding, mlp, interaction, model: the reference model's layers.
    timer.time("embedding.reduce", slots, 0, |slot| {
        bag.reduce_batch_into(&pool[slot].sparse, &mut reduced, stride, 0)
            .expect("generated indices are in range");
    });
    let mut mlp_ws = Workspace::new();
    timer.time("mlp.bottom", slots, 0, |slot| {
        let dense = pool[slot].dense.as_slice();
        let result = model
            .bottom_mlp()
            .forward_batch_ws(backend, dense, batch, cols, &mut mlp_ws);
        black_box(result.expect("dense rows match the bottom MLP"));
    });
    let interaction = model.interaction();
    let features = vec![0.25f32; batch * interaction.num_features() * dim];
    let mut interacted = vec![0.0f32; batch * interaction.output_dim()];
    timer.time("interaction", slots, 0, |_| {
        interaction.interact_batch_into(&features, batch, &mut interacted);
        black_box(&interacted);
    });
    timer.time("mlp.top", slots, 0, |_| {
        let width = interaction.output_dim();
        let result =
            model
                .top_mlp()
                .forward_batch_ws(backend, &interacted, batch, width, &mut mlp_ws);
        black_box(result.expect("interaction output matches the top MLP"));
    });
    let mut batch_ws = BatchWorkspace::new();
    timer.time("model.forward", slots, 0, |slot| {
        let Batch { dense, sparse } = &pool[slot];
        model
            .forward_batch_into(backend, dense, sparse, &mut out, &mut batch_ws)
            .expect("generated batches are valid");
    });

    // sparse, dense: the accelerator's two complexes, each stood up alone.
    let mut streamer = EbStreamer::new(CentaurConfig::harpv2().link);
    timer.time("sparse.gather_reduce", slots, 0, |slot| {
        streamer
            .gather_reduce_batch_into(bag, &pool[slot].sparse, &mut reduced, stride, 0)
            .expect("generated indices are in range");
    });
    let mut dense_complex = DenseAccelerator::harpv2();
    dense_complex
        .load_model_packed(model)
        .expect("paper MLPs fit the weight SRAM");
    timer.time("dense.forward", slots, 0, |slot| {
        let rows = pool[slot].dense.as_slice();
        dense_complex
            .forward_batch_rows_into(model, rows, batch, cols, &reduced, &mut out)
            .expect("staged rows match the model");
    });
    streamer.hot_row_cache().hit_rate()
}

/// The timing-model trace of one batch.
fn inference_trace(model: &DlrmModel, batch: &Batch) -> InferenceTrace {
    let samples = batch
        .sparse
        .iter()
        .map(|tables| SampleTrace {
            rows_per_table: tables
                .iter()
                .map(|rows| rows.iter().map(|&row| u64::from(row)).collect())
                .collect(),
        })
        .collect();
    let config = model.config();
    InferenceTrace::new(
        config.clone(),
        GatherTrace::new(config.embedding_dim, samples),
    )
}

/// One round over `runtime.`, `accelerator.` and, for a serving workload,
/// `stage.` and `queue.`.
fn runtime_layers(
    timer: &mut Timer<'_>,
    runtime: &mut CentaurRuntime,
    pool: &[Batch],
    traces: &[InferenceTrace],
    serving: Option<(BatchPolicy, &[InferenceRequest])>,
) {
    let batch = pool[0].sparse.len();
    let cols = runtime.model().config().dense_features;
    let mut out = vec![0.0f32; batch];
    timer.time("runtime.infer", pool.len(), P99_CALLS, |slot| {
        let Batch { dense, sparse } = &pool[slot];
        runtime
            .infer_batch_rows_into(dense.as_slice(), cols, sparse, &mut out)
            .expect("generated batches are valid");
    });
    timer.time("accelerator.estimate", traces.len(), 0, |slot| {
        black_box(runtime.estimate_latency(&traces[slot]));
    });
    let Some((policy, requests)) = serving else {
        return;
    };

    // stage: the replica worker's staging copy around the runtime call.
    let coalesced: Vec<Vec<&InferenceRequest>> = requests
        .chunks_exact(batch)
        .take(POOL_BATCHES)
        .map(|chunk| chunk.iter().collect())
        .collect();
    let mut stage = ReplicaStage::new(runtime.model().config(), batch);
    timer.time("stage.run_batch", coalesced.len(), 0, |slot| {
        let served = stage.run_batch(runtime, &coalesced[slot]);
        black_box(served.expect("generated requests are valid"));
    });

    // queue: the hand-off cost with nobody contending for the lock, timed
    // as one pass per round and kept per request.
    let queued = QUEUE_REQUESTS / batch * batch;
    let queue = ArrivalQueue::new();
    let start = Instant::now();
    for index in 0..queued {
        let accepted = queue.push(QueuedRequest::new(index, 0.0));
        assert!(accepted, "an open unbounded queue accepts every push");
    }
    let pushed = Instant::now();
    // Closed first, so a batch never waits out its hold-open window.
    queue.close();
    let mut popped = Vec::with_capacity(batch);
    while queue.pop_batch(policy, &mut popped) {
        queue.complete(popped.len());
    }
    let drained = Instant::now();
    for (name, from, to) in [
        ("queue.push", start, pushed),
        ("queue.pop_batch", pushed, drained),
    ] {
        timer
            .call_s
            .entry(name)
            .or_default()
            .push((to - from).as_secs_f64() / queued as f64);
        timer
            .tracer
            .record(name, timer.round, 0, Some(timer.root), from, to);
    }
}

fn share(layer: f64, children: f64) -> f64 {
    (layer - children) / layer
}

/// Times every layer below the serving harness on `workload`'s batches and
/// fills the `kernel.` to `queue.` metrics; `stage.` and `queue.` read 0 for
/// an offline workload, which passes through neither. Returns the median
/// `ReplicaStage::run_batch` time in seconds (0 when offline).
pub fn measure(
    workload: &Workload,
    inputs: &Inputs,
    seed: u64,
    budget_s: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> f64 {
    let config = &inputs.config;
    let batch = workload.batch;
    let pool = inputs.batches(batch, POOL_BATCHES);
    // The paper's worst case, uniform indices: bound by DRAM and not
    // repeatable within a tenth on a shared host, so never gated.
    let uniform_requests = generate_requests(
        config,
        IndexDistribution::Uniform,
        seed ^ 0x0F1F,
        batch * UNIFORM_BATCHES,
    );
    let uniform_pool = batches_of(config, &uniform_requests, batch, UNIFORM_BATCHES);
    let serving = match workload.drive {
        Drive::Serve { policy, .. } => Some((policy, &inputs.requests[..])),
        Drive::Offline => None,
    };

    let mut runtime =
        CentaurRuntime::harpv2(inputs.fresh_model()).expect("paper MLPs fit the weight SRAM");
    let cols = config.dense_features;
    let mut out = vec![0.0f32; batch];

    // runtime.output_checksum: the sum of one pool rotation's output bit
    // patterns; below 2^53, so the f64 holds it exactly.
    let mut checksum = 0u64;
    for Batch { dense, sparse } in &pool {
        runtime
            .infer_batch_rows_into(dense.as_slice(), cols, sparse, &mut out)
            .expect("generated batches are valid");
        checksum += out.iter().map(|p| u64::from(p.to_bits())).sum::<u64>();
    }
    metrics.set("runtime.output_checksum", checksum as f64);

    // accelerator: simulated time. Summed over one pass on the runtime's
    // untouched timing model, before any timed loop: the model's hot-row
    // cache carries state between calls, and this way the figures repeat
    // exactly, so any change in them is a change of the model.
    let traces: Vec<InferenceTrace> = pool
        .iter()
        .take(SIMULATED_TRACES)
        .map(|batch| inference_trace(runtime.model(), batch))
        .collect();
    let (mut sparse_ns, mut dense_ns) = (0.0, 0.0);
    for trace in &traces {
        let estimate = runtime.estimate_latency(trace);
        sparse_ns += estimate.sparse.total_ns();
        dense_ns += estimate.dense.total_ns();
    }
    let per_trace_us = 1e3 * traces.len() as f64;
    metrics.set(
        "accelerator.sim_sparse_us_per_batch",
        sparse_ns / per_trace_us,
    );
    metrics.set(
        "accelerator.sim_dense_us_per_batch",
        dense_ns / per_trace_us,
    );
    let comparison = ExperimentRunner::new()
        .with_distribution(IndexDistribution::production_skew())
        .compare(workload.model, batch);
    metrics.set(
        "accelerator.sim_speedup_vs_cpu",
        comparison.centaur_speedup_vs_cpu(),
    );

    let root = tracer.open("layers", 0, None);
    let mut timer = Timer {
        tracer,
        root,
        round: 0,
        budget_s: budget_s / (ROUNDS * LOOPS_PER_ROUND) as f64,
        call_s: BTreeMap::new(),
    };
    let mut hit_rate = 0.0;
    for round in 0..ROUNDS {
        timer.round = round;
        hit_rate = model_layers(&mut timer, runtime.model(), &pool, &uniform_pool);
        runtime_layers(&mut timer, &mut runtime, &pool, &traces, serving);
    }
    timer.tracer.close(root);

    let us = |name: &str| timer.median_us(name);
    // FLOPs and bytes are computed, not counted: 2mkn per layer, and
    // lookups x row bytes.
    let model = runtime.model();
    let flops: usize = model
        .bottom_mlp()
        .iter()
        .chain(model.top_mlp().iter())
        .map(|layer| 2 * batch * layer.in_dim() * layer.out_dim())
        .sum();
    let gathered_bytes = (batch * config.lookups_per_sample() * config.row_bytes()) as f64;
    let mlp_us = us("mlp.bottom") + us("mlp.top");
    let dense_children_us = mlp_us + us("interaction");
    let infer_us = us("runtime.infer");
    metrics.set("kernel.gemm_us_per_batch", us("kernel.gemm"));
    metrics.set("kernel.gemm_gflops", flops as f64 / us("kernel.gemm") / 1e3);
    metrics.set("kernel.gemm_b64_us_per_batch", us("kernel.gemm_b64"));
    metrics.set("kernel.gather_us_per_batch", us("kernel.gather"));
    metrics.set(
        "kernel.gather_gbs",
        gathered_bytes / us("kernel.gather") / 1e3,
    );
    metrics.set(
        "kernel.gather_uniform_gbs",
        gathered_bytes / us("kernel.gather_uniform") / 1e3,
    );
    metrics.set("embedding.reduce_us_per_batch", us("embedding.reduce"));
    metrics.set(
        "embedding.tax_share",
        share(us("embedding.reduce"), us("kernel.gather")),
    );
    metrics.set("mlp.bottom_us_per_batch", us("mlp.bottom"));
    metrics.set("mlp.top_us_per_batch", us("mlp.top"));
    metrics.set("mlp.tax_share", share(mlp_us, us("kernel.gemm")));
    metrics.set("interaction.us_per_batch", us("interaction"));
    metrics.set("model.forward_us_per_batch", us("model.forward"));
    metrics.set(
        "model.tax_share",
        share(
            us("model.forward"),
            us("embedding.reduce") + dense_children_us,
        ),
    );
    metrics.set(
        "sparse.gather_reduce_us_per_batch",
        us("sparse.gather_reduce"),
    );
    metrics.set(
        "sparse.tax_share",
        share(us("sparse.gather_reduce"), us("embedding.reduce")),
    );
    metrics.set(
        "sparse.share_of_runtime",
        us("sparse.gather_reduce") / infer_us,
    );
    metrics.set("sparse.hot_row_hit_rate", hit_rate);
    metrics.set("dense.forward_us_per_batch", us("dense.forward"));
    metrics.set(
        "dense.tax_share",
        share(us("dense.forward"), dense_children_us),
    );
    metrics.set("dense.share_of_runtime", us("dense.forward") / infer_us);
    metrics.set("runtime.infer_us_per_batch", infer_us);
    metrics.set(
        "runtime.tax_share",
        share(infer_us, us("sparse.gather_reduce") + us("dense.forward")),
    );
    metrics.set("runtime.vs_model_ratio", infer_us / us("model.forward"));
    metrics.set(
        "runtime.call_p99_ms",
        stats::quantile(&timer.call_s["runtime.infer"], 0.99) * 1e3,
    );
    metrics.set("accelerator.host_us_per_trace", us("accelerator.estimate"));
    if serving.is_none() {
        for name in [
            "stage.run_batch_us",
            "stage.tax_share",
            "queue.push_ns",
            "queue.pop_batch_ns_per_request",
        ] {
            metrics.set(name, 0.0);
        }
        return 0.0;
    }
    metrics.set("stage.run_batch_us", us("stage.run_batch"));
    metrics.set("stage.tax_share", share(us("stage.run_batch"), infer_us));
    metrics.set("queue.push_ns", us("queue.push") * 1e3);
    metrics.set(
        "queue.pop_batch_ns_per_request",
        us("queue.pop_batch") * 1e3,
    );
    us("stage.run_batch") / 1e6
}
