//! Proves the steady-state zero-allocation guarantee of the workspace
//! inference paths with a counting global allocator: after a warm-up call
//! has grown every scratch buffer to its high-water mark, repeated forward
//! passes must not touch the heap at all.
//!
//! Everything is measured inside a single `#[test]` so no concurrent test
//! in this binary can perturb the allocation counter.

use centaur_dlrm::kernel::{global_backend, global_sparse_backend, Workspace};
use centaur_dlrm::{Activation, Matrix, Mlp, ModelConfig, PaperModel};
use centaur_dlrm::{BatchWorkspace, DlrmModel, EmbeddingTable, FeatureInteraction};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocation/reallocation.
struct CountingAllocator;

// SAFETY: pure pass-through to `System` plus a relaxed-free atomic counter —
// every `GlobalAlloc` contract obligation (layout validity, pointer
// provenance, no unwinding) is delegated unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (non-zero-sized
    // `layout`); forwarded verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract (`ptr` came
    // from this allocator with this `layout`); forwarded to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (`ptr`/`layout`
    // pair valid, `new_size` non-zero); forwarded to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` up to three times and returns the *minimum* allocation count
/// observed across attempts.
///
/// The minimum, not a single sample: the libtest harness's main thread
/// allocates asynchronously every so often (timeout bookkeeping), and those
/// background allocations land in the process-global counter. A path that
/// really allocates does so on every one of its iterations, so it can never
/// measure zero — while transient harness noise vanishes on retry.
fn allocations_during<F: FnMut()>(mut f: F) -> u64 {
    let mut fewest = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        f();
        fewest = fewest.min(ALLOCATIONS.load(Ordering::SeqCst) - before);
        if fewest == 0 {
            break;
        }
    }
    fewest
}

#[test]
fn steady_state_inference_paths_do_not_allocate() {
    // The production backend: what `CentaurRuntime` and the serving layer
    // run by default, at every size — nothing spawns a thread per call.
    let backend = global_backend();

    // --- MlpStack::forward via a Workspace --------------------------------
    let mlp = Mlp::random(&[13, 64, 32, 8], Activation::Relu, 3).unwrap();
    let x = Matrix::from_fn(4, 13, |r, c| (r as f32 - c as f32) * 0.1);
    let mut ws = Workspace::new();
    // Warm-up grows every buffer to its high-water mark.
    mlp.forward_batch_ws(backend, x.as_slice(), 4, 13, &mut ws)
        .unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            mlp.forward_batch_ws(backend, x.as_slice(), 4, 13, &mut ws)
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "Mlp::forward_batch_ws allocated in steady state");

    // --- Embedding gather/reduce into a preallocated buffer ---------------
    let table = EmbeddingTable::random(512, 32, 7);
    let indices: Vec<u32> = (0..40).map(|i| (i * 13) % 512).collect();
    let mut reduced = vec![0.0f32; 32];
    let sparse_backend = global_sparse_backend();
    table
        .gather_reduce_into(&indices, &mut reduced, sparse_backend)
        .unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..3 {
            table
                .gather_reduce_into(&indices, &mut reduced, sparse_backend)
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "gather_reduce_into allocated in steady state");

    // --- Feature interaction into a preallocated buffer -------------------
    let fi = FeatureInteraction::new(9, 32).unwrap();
    let features = Matrix::from_fn(9, 32, |r, c| ((r * 7 + c) % 5) as f32 - 2.0);
    let mut interact_out = vec![0.0f32; fi.output_dim()];
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            fi.interact_batch_into(features.as_slice(), 1, &mut interact_out);
        }
    });
    assert_eq!(allocs, 0, "interact_batch_into allocated in steady state");

    // --- One sample through the model: a batch of one -----------------------
    let config = ModelConfig::builder()
        .name("zero-alloc")
        .num_tables(4)
        .rows_per_table(256)
        .embedding_dim(32)
        .lookups_per_table(8)
        .dense_features(13)
        .bottom_mlp(&[64, 32])
        .top_mlp(&[64, 1])
        .build()
        .unwrap();
    let packs_before_model = centaur_dlrm::prepack_events();
    let model = DlrmModel::random(&config, 11).unwrap();
    // Prepacking happens exactly once per dense layer, at construction —
    // never lazily on the serving path.
    let total_layers = (model.bottom_mlp().num_layers() + model.top_mlp().num_layers()) as u64;
    assert_eq!(
        centaur_dlrm::prepack_events() - packs_before_model,
        total_layers,
        "model construction must prepack each layer exactly once"
    );
    let dense = Matrix::from_fn(1, 13, |_, c| c as f32 * 0.05 - 0.3);
    let sparse: Vec<Vec<u32>> = (0..4)
        .map(|t| (0..8u32).map(|i| (t as u32 * 31 + i * 7) % 256).collect())
        .collect();
    let one = [sparse];
    let mut batch_ws = BatchWorkspace::new();
    let mut warm = [0.0f32];
    model
        .forward_batch_into(backend, &dense, &one, &mut warm, &mut batch_ws)
        .unwrap();
    let mut probs = [0.0f32; 10];
    let allocs = allocations_during(|| {
        for p in probs.chunks_mut(1) {
            model
                .forward_batch_into(backend, &dense, &one, p, &mut batch_ws)
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "a batch of one allocated in steady state");
    assert!(probs.iter().all(|&p| p == warm[0]));

    // --- Batch-major inference through a BatchWorkspace --------------------
    // The whole batch flows through one GEMM per layer; after the workspace
    // has warmed up to the high-water batch size, repeated batched requests
    // must not touch the heap either.
    let batch = 16;
    let batch_dense = Matrix::from_fn(batch, 13, |r, c| (r as f32 * 0.07 - c as f32 * 0.03) % 1.0);
    let batch_sparse: Vec<Vec<Vec<u32>>> = (0..batch)
        .map(|s| {
            (0..4)
                .map(|t| {
                    (0..8u32)
                        .map(|i| ((s * 61 + t * 31) as u32 + i * 7) % 256)
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut batch_out = vec![0.0f32; batch];
    model
        .forward_batch_into(
            backend,
            &batch_dense,
            &batch_sparse,
            &mut batch_out,
            &mut batch_ws,
        )
        .unwrap();
    let warm_batch = batch_out.clone();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            model
                .forward_batch_into(
                    backend,
                    &batch_dense,
                    &batch_sparse,
                    &mut batch_out,
                    &mut batch_ws,
                )
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "forward_batch_into allocated in steady state");
    assert_eq!(batch_out, warm_batch);

    // The batched result must equal one batch-of-one call per sample exactly.
    for i in 0..batch {
        let row = Matrix::row_vector(batch_dense.row(i));
        let mut single = [0.0f32];
        model
            .forward_batch_into(
                backend,
                &row,
                &batch_sparse[i..=i],
                &mut single,
                &mut batch_ws,
            )
            .unwrap();
        assert_eq!(batch_out[i], single[0], "sample {i} diverged");
    }

    // --- Batched inference through the accelerator runtime -----------------
    // The runtime's staging buffers (EB-Streamer batch gather, dense-complex
    // feature/interaction SRAM models, index SRAM) follow the same
    // high-water-mark discipline.
    let mut runtime = centaur::CentaurRuntime::harpv2(model.clone()).unwrap();
    assert_eq!(runtime.backend(), backend);
    runtime
        .infer_batch_into(&batch_dense, &batch_sparse, &mut batch_out)
        .unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            runtime
                .infer_batch_into(&batch_dense, &batch_sparse, &mut batch_out)
                .unwrap();
        }
    });
    assert_eq!(allocs, 0, "infer_batch_into allocated in steady state");
    assert_eq!(batch_out, warm_batch, "runtime diverged from the model");

    // --- Vectorized sparse engine through the EB-Streamer ------------------
    // The production sparse path: register-tiled gather kernels and the
    // index-SRAM chunking must run without heap traffic once the streamer
    // has served one request.
    use centaur_dlrm::SparseBackend;
    let mut streamer = centaur::EbStreamer::default();
    assert_eq!(streamer.sparse_backend(), SparseBackend::Vectorized);
    let bag = model.embeddings();
    let stride = bag.num_tables() * bag.dim();
    let mut reduced_batch = vec![0.0f32; batch * stride];
    streamer
        .gather_reduce_batch_into(bag, &batch_sparse, &mut reduced_batch, stride, 0)
        .unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            streamer
                .gather_reduce_batch_into(bag, &batch_sparse, &mut reduced_batch, stride, 0)
                .unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "vectorized EB-Streamer gather allocated in steady state"
    );
    // The streamed result must equal the scalar bag oracle bitwise.
    let mut oracle = vec![0.0f32; batch * stride];
    bag.reduce_batch_into_with(&batch_sparse, &mut oracle, stride, 0, SparseBackend::Scalar)
        .unwrap();
    assert_eq!(
        reduced_batch, oracle,
        "streamer diverged from scalar oracle"
    );

    // The multi-fill path: a 48-index SRAM against 16 samples x 8 lookups
    // per table is three fills a table, each with its own segment directory
    // and prefetch window, and the one 100-index list spans three fills by
    // itself.
    let mut long_sparse = batch_sparse.clone();
    long_sparse[5][2] = (0..100u32).map(|i| (i * 29) % 256).collect();
    let mut small_streamer = centaur::EbStreamer::with_components(
        centaur::ChipletLinkConfig::harpv2(),
        centaur::sparse::SparseIndexSram::new(48),
        centaur::sparse::EmbeddingReductionUnit::harpv2_sized(),
    );
    small_streamer
        .gather_reduce_batch_into(bag, &long_sparse, &mut reduced_batch, stride, 0)
        .unwrap();
    let fills_per_call = small_streamer.index_sram().loads();
    assert!(fills_per_call >= 4 * 3, "{fills_per_call} fills");
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            small_streamer
                .gather_reduce_batch_into(bag, &long_sparse, &mut reduced_batch, stride, 0)
                .unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "multi-fill EB-Streamer gather allocated in steady state"
    );
    bag.reduce_batch_into_with(&long_sparse, &mut oracle, stride, 0, SparseBackend::Scalar)
        .unwrap();
    assert_eq!(
        reduced_batch, oracle,
        "multi-fill streamer diverged from scalar oracle"
    );

    // --- Serving steady state: stage + batched inference --------------------
    // The serving layer's per-replica staging (`ReplicaStage`) copies a
    // coalesced batch of requests into batch-major buffers and runs the
    // runtime's batched path; after warm-up the whole stage-and-serve step
    // must not touch the heap — this is what keeps the dynamic batcher's
    // steady state allocation-free under sustained load.
    let requests: Vec<centaur_dlrm::InferenceRequest> = (0..batch)
        .map(|s| centaur_dlrm::InferenceRequest {
            id: s as u64,
            dense: batch_dense.row(s).to_vec(),
            sparse: batch_sparse[s].clone(),
        })
        .collect();
    let staged: Vec<&centaur_dlrm::InferenceRequest> = requests.iter().collect();
    let mut serve_stage = centaur_serve::ReplicaStage::new(&config, batch);
    let warm_served = serve_stage
        .run_batch(&mut runtime, &staged)
        .unwrap()
        .to_vec();
    assert_eq!(warm_served, warm_batch, "staged batch diverged");
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            serve_stage.run_batch(&mut runtime, &staged).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "serving stage + batched inference allocated in steady state"
    );

    // The GEMM is fed from strips packed once at model load: booting the
    // runtime re-packed nothing (replica clones copy strips) and neither did
    // any of the serving above.
    assert_eq!(
        centaur_dlrm::prepack_events() - packs_before_model,
        total_layers,
        "runtime boot, staging and steady-state serving must never re-prepack"
    );

    // --- Past the old per-call spawn thresholds -----------------------------
    // Until per-call threading was deleted, a GEMM of 2mkn ≥ 2^22 FLOPs and
    // a bag reduce of ≥ 2 MB gathered each spawned (and so allocated) scoped
    // threads on any host with two hardware threads. DLRM(6) at batch 64
    // runs 64×256×256 layers (8.4 MFLOP), DLRM(3) at batch 64 gathers
    // 64 × 400 × 128 B = 3.3 MB; the thresholds counted FLOPs and gathered
    // bytes, not table size, so scaled-down tables reach them all the same.
    {
        let config = PaperModel::Dlrm6.config().with_rows_per_table(512);
        let wide = DlrmModel::random(&config, 13).unwrap();
        let mut generator = centaur_workload::RequestGenerator::new(
            &config,
            centaur_workload::IndexDistribution::Uniform,
            17,
        );
        let request = generator.functional_batch(64);
        let mut out = vec![0.0f32; 64];
        let mut wide_runtime = centaur::CentaurRuntime::harpv2(wide).unwrap();
        wide_runtime
            .infer_batch_into(&request.dense, &request.sparse, &mut out)
            .unwrap();
        let allocs = allocations_during(|| {
            for _ in 0..3 {
                wide_runtime
                    .infer_batch_into(&request.dense, &request.sparse, &mut out)
                    .unwrap();
            }
        });
        assert_eq!(allocs, 0, "DLRM(6) batch-64 infer_batch_into allocated");

        let config = PaperModel::Dlrm3.config().with_rows_per_table(512);
        let lookup_heavy = DlrmModel::random(&config, 13).unwrap();
        let mut generator = centaur_workload::RequestGenerator::new(
            &config,
            centaur_workload::IndexDistribution::Uniform,
            19,
        );
        let request = generator.functional_batch(64);
        let gathered = 64 * config.gathered_bytes_per_sample();
        assert!(gathered >= 2 << 20, "{gathered} B gathered");
        let mut ws = BatchWorkspace::new();
        lookup_heavy
            .forward_batch_into(backend, &request.dense, &request.sparse, &mut out, &mut ws)
            .unwrap();
        let allocs = allocations_during(|| {
            for _ in 0..3 {
                lookup_heavy
                    .forward_batch_into(backend, &request.dense, &request.sparse, &mut out, &mut ws)
                    .unwrap();
            }
        });
        assert_eq!(allocs, 0, "DLRM(3) batch-64 forward_batch_into allocated");

        // The same wave through the runtime, whose EB-Streamer splits its
        // 25 600 lookups over gather lanes wherever the caller has a second
        // CPU: the hand-off to the helper allocates on neither thread.
        let mut split_runtime = centaur::CentaurRuntime::harpv2(lookup_heavy).unwrap();
        let mut lane_out = vec![0.0f32; 64];
        split_runtime
            .infer_batch_into(&request.dense, &request.sparse, &mut lane_out)
            .unwrap();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(split_runtime.streamer().gather_lanes() > 1, cpus > 1);
        let allocs = allocations_during(|| {
            for _ in 0..3 {
                split_runtime
                    .infer_batch_into(&request.dense, &request.sparse, &mut lane_out)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "DLRM(3) batch-64 infer_batch_into on lanes allocated"
        );
        assert_eq!(lane_out, out, "the lanes diverged from the model");
    }

    // --- Overload-protected queue steady state ------------------------------
    // The shedding/deadline path: an admission-bounded queue with dequeue
    // shedding, exercised through push (admitted + admission-shed) and
    // deadline-aware pop_batch (expired requests shed, live ones batched).
    // After the ring buffer and the shed log reach their high-water marks
    // (one warm-up round + reserve), sustained overload must not touch
    // the heap — shedding is exactly the path that runs hottest when the
    // server is drowning.
    use centaur_serve::{AdmissionConfig, ArrivalQueue, BatchPolicy, QueuedRequest};
    use std::time::Duration;
    let queue = ArrivalQueue::with_config(AdmissionConfig {
        max_depth: Some(8),
        shed_expired: true,
    });
    queue.reserve(256);
    let policy = BatchPolicy::Deadline {
        max_batch: 8,
        max_wait: Duration::ZERO,
        service_estimate: Duration::from_millis(1),
    };
    let mut shed_batch: Vec<QueuedRequest> = Vec::with_capacity(8);
    let mut overload_round = || {
        // Four already-dead requests, four live, two over the depth bound.
        for i in 0..10usize {
            let deadline_s = if i < 4 { -1.0 } else { f64::INFINITY };
            let _ = queue.push(QueuedRequest {
                index: i,
                arrival_s: 0.0,
                deadline_s,
                retries: 0,
                hedged: false,
            });
        }
        // The pop sheds the four dead requests and batches the four live
        // ones; ZERO max_wait means it never parks on the condvar.
        assert!(queue.pop_batch(policy, &mut shed_batch));
        assert_eq!(shed_batch.len(), 4);
        assert_eq!(queue.depth(), 0);
        // Settle the in-flight accounting the pop opened.
        queue.complete(shed_batch.len());
    };
    overload_round(); // warm-up: grow the ring buffer to its high-water mark
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            overload_round();
        }
    });
    assert_eq!(
        allocs, 0,
        "overload-protected queue allocated in steady state"
    );
    // Every round sheds 2 at admission and 4 at dequeue (the retry loop in
    // `allocations_during` may run a variable number of rounds).
    assert!(queue.shed_admission() >= 2 * 11);
    assert_eq!(queue.shed_expired(), 2 * queue.shed_admission());

    // --- Supervised serving steady state (watchdog enabled) ----------------
    // The fault-tolerant path in its hedge-free steady state: the health
    // board gating every pull, publishing each dispatch-stamped batch to
    // the in-flight slot, polling the fault guard, the watchdog's probe /
    // overdue check against a healthy (not overdue) dispatch, staging +
    // batched inference, hedge-aware completion through `complete_batch`
    // (every result primary — no duplicates to suppress), recording
    // completions into a pre-reserved log, and scoring the replica's
    // service time. Supervision plus an armed watchdog must cost nothing on
    // the heap when nothing is stalling — crash recovery and hedge races
    // may allocate, every healthy batch served must not.
    use centaur_serve::{Completion, FaultGuard, HealthBoard, InFlightSlot};
    let supervised_queue = ArrivalQueue::new();
    let spolicy = BatchPolicy::Dynamic {
        max_batch: batch,
        max_wait: Duration::ZERO,
    };
    let slot = InFlightSlot::new(batch);
    // A one-second timeout no sub-millisecond batch ever crosses: the
    // watchdog machinery runs every round, the hedge path never fires.
    let health = HealthBoard::new(1, 1.0, 3, Duration::from_millis(25));
    let mut fault_guard = FaultGuard::none();
    let mut served_batch: Vec<QueuedRequest> = Vec::with_capacity(batch);
    let mut served_staged: Vec<&centaur_dlrm::InferenceRequest> = Vec::with_capacity(batch);
    let mut completion_log: Vec<Completion> = Vec::with_capacity(batch);
    // The monitor's bookkeeping, preallocated exactly as the real watchdog
    // preallocates before its polling loop.
    let mut riders: Vec<QueuedRequest> = Vec::with_capacity(batch);
    let mut primary: Vec<bool> = Vec::with_capacity(batch);
    let mut supervised_round = |completion_log: &mut Vec<Completion>| {
        assert!(
            health.may_pull(0, 0.0),
            "a healthy replica pulls without parking"
        );
        for i in 0..batch {
            assert!(supervised_queue.push(QueuedRequest {
                index: i,
                arrival_s: 0.0,
                deadline_s: f64::INFINITY,
                retries: 0,
                hedged: false,
            }));
        }
        assert!(supervised_queue.pop_batch(spolicy, &mut served_batch));
        assert_eq!(served_batch.len(), batch);
        slot.publish(&served_batch, 0.0);
        fault_guard
            .intercept(0, 0.0)
            .expect("an empty guard injects nothing");
        // The watchdog's per-tick view of this replica: a stamped dispatch
        // that is not yet overdue claims no riders.
        let (dispatched_s, hedged) = slot.probe().expect("a published batch is visible");
        assert_eq!(dispatched_s, 0.0);
        assert!(!hedged);
        assert!(
            !slot.overdue_riders(1e-4, 1.0, &mut riders),
            "a fresh dispatch is never overdue"
        );
        served_staged.clear();
        served_staged.extend(served_batch.iter().map(|q| &requests[q.index]));
        let probabilities = serve_stage.run_batch(&mut runtime, &served_staged).unwrap();
        slot.clear();
        supervised_queue.complete_batch(&served_batch, &mut primary);
        assert!(primary.iter().all(|&keep| keep), "every result is primary");
        completion_log.clear();
        for (queued, &probability) in served_batch.iter().zip(probabilities) {
            completion_log.push(Completion {
                id: requests[queued.index].id,
                arrival_s: queued.arrival_s,
                completed_s: 0.0,
                probability,
            });
        }
        health.record_service(0, 2e-4, 3e-4);
    };
    supervised_round(&mut completion_log); // warm-up: queue ring + buffers
    assert_eq!(completion_log.len(), batch);
    assert_eq!(completion_log[0].probability, warm_batch[0]);
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            supervised_round(&mut completion_log);
        }
    });
    assert_eq!(
        allocs, 0,
        "watchdog-enabled supervised serving path allocated in hedge-free \
         steady state"
    );
    assert_eq!(supervised_queue.in_flight(), 0);
    assert_eq!(supervised_queue.failed(), 0);
    assert_eq!(supervised_queue.hedges(), 0);
    assert_eq!(supervised_queue.duplicates_suppressed(), 0);
    use centaur_serve::ReplicaHealth;
    assert_eq!(health.health(0), ReplicaHealth::Healthy);
    assert_eq!(health.quarantines(), 0);

    // --- Multi-tenant EDF steady state --------------------------------------
    // The isolated-pool dispatch path: an EDF-ordered arrival queue (a
    // deadline-sorted backlog) feeding a `MixServer` that routes every
    // queued request to its tenant's own engine and scatters the
    // probabilities back into batch order. After warm-up has grown the backlog, the per-tenant
    // position scratch and the output buffer, sustained fault-free
    // multi-tenant serving — push with interleaved per-tenant deadlines,
    // EDF pop, route, batch-serve, complete — must not touch the heap.
    use centaur_serve::MixServer;
    let tenant_b_model = DlrmModel::random(&config, 12).unwrap();
    let mix_engines = vec![
        centaur::CentaurRuntime::harpv2(model.clone()).unwrap(),
        centaur::CentaurRuntime::harpv2(tenant_b_model).unwrap(),
    ];
    let tenant_of: Vec<usize> = (0..batch).map(|s| s * 2 / batch).collect();
    let mut mix_server = MixServer::new(mix_engines, &requests, &[0, batch / 2], batch);
    let edf_queue = ArrivalQueue::with_config(AdmissionConfig {
        max_depth: None,
        shed_expired: false,
    });
    let mut mix_out: Vec<f32> = Vec::with_capacity(batch);
    let mut edf_batch: Vec<QueuedRequest> = Vec::with_capacity(batch);
    let mut mix_round = |mix_out: &mut Vec<f32>, edf_batch: &mut Vec<QueuedRequest>| {
        for i in 0..batch {
            // Interleaved urgencies so the queue genuinely inserts by
            // deadline every round instead of degenerating to appends.
            assert!(edf_queue.push(QueuedRequest {
                index: i,
                arrival_s: 0.0,
                deadline_s: ((batch - i) % 5) as f64,
                retries: 0,
                hedged: false,
            }));
        }
        assert!(edf_queue.pop_batch(spolicy, edf_batch));
        assert_eq!(edf_batch.len(), batch);
        for pair in edf_batch.windows(2) {
            assert!(
                pair[0].deadline_s <= pair[1].deadline_s,
                "EDF pop must hand out non-decreasing deadlines"
            );
        }
        mix_server.serve_batch(edf_batch, mix_out).unwrap();
        edf_queue.complete(edf_batch.len());
    };
    mix_round(&mut mix_out, &mut edf_batch); // warm-up: backlog, scratch, output
                                             // Tenant 0 shares the solo model above, so its routed probabilities
                                             // must match the solo batched results exactly.
    for (position, queued) in edf_batch.iter().enumerate() {
        if tenant_of[queued.index] == 0 {
            assert_eq!(
                mix_out[position], warm_batch[queued.index],
                "mix routing diverged from the solo path for request {}",
                queued.index
            );
        }
    }
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            mix_round(&mut mix_out, &mut edf_batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "multi-tenant EDF serving path allocated in steady state"
    );
    assert_eq!(edf_queue.in_flight(), 0);
    assert_eq!(edf_queue.failed(), 0);
}
