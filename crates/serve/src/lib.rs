//! # centaur-serve
//!
//! The serving layer of the Centaur reproduction: what turns the
//! closed-loop batch kernels of the lower crates into an **at-load serving
//! system** — the scenario the paper motivates (user-facing recommendation
//! queries under firm tail-latency targets) and that RecNMP/MicroRec-style
//! evaluations report as p95/p99 versus offered QPS.
//!
//! The moving parts:
//!
//! * [`BatchPolicy`] — batch-1 FIFO (the un-batched baseline), dynamic
//!   batching (coalesce until `max_batch` fills or `max_wait` expires), or
//!   deadline-aware dynamic batching (additionally dispatch partial when
//!   the oldest held request's SLO slack runs out);
//! * [`ArrivalQueue`] — the shared arrival queue between the open-loop load
//!   generator and the replica workers: one backlog in earliest-deadline
//!   order (arrival order when every request carries the same SLO), one
//!   fate byte per request for first-result-wins hedging, an optional
//!   admission gate (bounded depth, shed at enqueue) and dequeue shedding
//!   of already-dead requests, both configured through [`AdmissionConfig`]
//!   / [`ServeOptions`] and always counted — never silent;
//! * [`ReplicaStage`] — per-replica staging buffers that copy a coalesced
//!   batch into batch-major form and run the accelerator's batched path,
//!   zero heap allocations in steady state;
//! * [`Supervision`] / [`FaultPlan`] — crash-tolerant serving: a
//!   supervised replica pool recovers a crashed worker's in-flight batch
//!   (requeued with its original arrival stamps against a bounded retry
//!   budget), restarts the replica up to a pool-wide budget, and lets
//!   survivors absorb the load; deterministic seeded fault plans inject
//!   crash/stall/transient events so availability under faults is
//!   measurable and reproducible;
//! * [`serve_replay`] — replays a seeded
//!   [`QueryStream`](centaur_workload::QueryStream) against a pool of
//!   [`CentaurRuntime`](centaur::CentaurRuntime) replica shards (one worker
//!   thread each), recording per-request end-to-end latency against
//!   *scheduled* arrivals (open-loop);
//! * [`run_mix_cell`] — a multi-tenant cell: per-tenant isolated pools or
//!   one shared pool, one [`ServeReport`] row per tenant.
//!
//! Every harness runs on one private serving engine: one scoped pool run
//! over N replica servers ([`MixServer`]; a single model is a one-tenant
//! mix), N arrival streams, one worker loop and at most one monitor. The
//! error policy comes from [`ServeOptions::supervision`]: `None` is
//! fail-stop (the first error or panic aborts the run, and under an SLO so
//! does a stalled batch), `Some` is supervision. Every tuning value is set in
//! code; the crate reads no environment variables. Performance is measured
//! by the `bench_ledger` benchmark, not here.
//!
//! ```no_run
//! use centaur::{CentaurConfig, CentaurRuntime};
//! use centaur_dlrm::{DlrmModel, PaperModel};
//! use centaur_serve::{generate_requests, serve_replay, BatchPolicy};
//! use centaur_workload::{ArrivalProcess, IndexDistribution, QueryStream};
//!
//! let config = PaperModel::Dlrm1.config().with_rows_per_table(4096);
//! let model = DlrmModel::random(&config, 1).unwrap();
//! let requests = generate_requests(&config, IndexDistribution::Uniform, 1, 1000);
//! let stream = QueryStream::generate(ArrivalProcess::Poisson { rate_qps: 50_000.0 }, 1000, 2);
//! let pool = CentaurRuntime::replica_pool(model, CentaurConfig::harpv2(), 2).unwrap();
//! let outcome = serve_replay(pool, &requests, &stream, BatchPolicy::dynamic_wave()).unwrap();
//! println!(
//!     "p99 {:.2} ms at {:.0} qps",
//!     outcome.latency_summary().unwrap().p99_s * 1e3,
//!     outcome.achieved_qps()
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
pub mod fault;
pub mod harness;
pub mod mix;
pub mod policy;
pub mod queue;
pub mod stage;
pub mod supervisor;

pub use fault::{FaultEvent, FaultGuard, FaultKind, FaultPlan, FaultSpec};
pub use harness::{
    calibrate_fifo_capacity_qps, generate_requests, serve_replay, serve_replay_faulted,
    serve_replay_with, Completion, HedgeConfig, ServeOptions, ServeOutcome,
};
pub use mix::{run_mix_cell, MixServer, PoolMode, ServeReport, TenantSpec};
pub use policy::{relative_sample_cost, scaled_service_estimate, BatchPolicy};
pub use queue::{AdmissionConfig, ArrivalQueue, QueuedRequest};
pub use stage::ReplicaStage;
pub use supervisor::{requeue_or_fail, HealthBoard, InFlightSlot, ReplicaHealth, Supervision};
