//! Declared column sets for the committed `BENCH_*.json` trajectory files.
//!
//! Each writer in [`crate::runner`] named `bench_<x>_json` has a matching
//! `BENCH_<X>_COLUMNS` const here listing every JSON key it may emit.
//! `centaur-analyze`'s `bench-schema` lint cross-checks the two in CI:
//! writing a key that is not declared (or declaring one that is never
//! written) fails the build. The point is append-compatibility — the
//! trajectory files accumulate rows across PRs, so adding or dropping a
//! column must be a conscious, reviewed schema change in this file rather
//! than a drive-by edit to a format string.

/// Columns of `BENCH_serve.json` (serving scenarios: overload, fault
/// injection, multi-tenant): offered/achieved load, shedding and fault
/// accounting, and the latency percentile ladder.
pub const BENCH_SERVE_COLUMNS: &[&str] = &[
    "unit",
    "scenario",
    "model",
    "fifo_capacity_qps",
    "points",
    "tenant",
    "pool",
    "offered_qps",
    "traffic",
    "policy",
    "replicas",
    "slo_ms",
    "completed",
    "achieved_qps",
    "goodput_qps",
    "shed",
    "shed_admission",
    "shed_expired",
    "deadline_misses",
    "faults",
    "availability",
    "failed",
    "retries",
    "restarts",
    "replicas_lost",
    "hedges",
    "hedge_wins",
    "duplicates_suppressed",
    "quarantines",
    "readmissions",
    "mean_batch",
    "mean_s",
    "p50_s",
    "p95_s",
    "p99_s",
    "p999_s",
    "max_s",
];
