//! Ads ranking as a multi-tenant serving problem: the scenario that
//! motivates per-model pools. One accelerator fleet serves two production
//! tenants — a light CTR *filter* (DLRM(1)) doing the high-QPS first pass
//! over the whole candidate set under a tight 5 ms SLO, and a heavy final
//! *ranker* (DLRM(6)) scoring the shortlist under a looser 25 ms budget.
//!
//! The ranker is having a bad day: 3× its pooled capacity of heavy-tailed
//! traffic plus a replica crash mid-replay — more work than the host can
//! absorb. The example replays the same mix twice — **isolated**
//! per-tenant pools (own queue, own SLO / admission / fault budgets)
//! versus one **shared-everything** pool — and shows that isolation
//! confines the damage to the tenant that caused it: the filter's p99
//! holds inside its own 5 ms SLO and the overloaded ranker pool sheds its
//! own excess, while the shared configuration serves the filter's answers
//! 3× past their deadline (the shared pool only enforces the loosest
//! tenant's SLO — late answers nobody can use).
//!
//! Run with: `cargo run --release --example ads_ranking`

use centaur::CentaurConfig;
use centaur_dlrm::{DlrmModel, PaperModel};
use centaur_serve::{
    calibrate_fifo_capacity_qps, relative_sample_cost, run_mix_cell, scaled_service_estimate,
    FaultSpec, PoolMode, ServeReport, Supervision, TenantSpec,
};
use centaur_workload::{IndexDistribution, TenantTraffic, TrafficShape};
use std::time::Duration;

const FILTER_SLO: Duration = Duration::from_millis(5);
const RANKER_SLO: Duration = Duration::from_millis(25);

fn main() {
    let filter_config = PaperModel::Dlrm1.config().with_rows_per_table(4_096);
    let ranker_config = PaperModel::Dlrm6.config().with_rows_per_table(4_096);
    let filter_model = DlrmModel::random(&filter_config, 1).expect("valid filter model");
    let ranker_model = DlrmModel::random(&ranker_config, 2).expect("valid ranker model");

    // One measured capacity anchors both pools; the ranker's machine rate
    // and deadline-policy service estimate follow from its relative
    // per-sample cost (a DLRM(6) sample costs ~6× a DLRM(1) sample). On a
    // co-located host extra replicas buy restart headroom, not throughput,
    // so the pools are provisioned as *work shares* of the one measured
    // machine — the filter owns 70% of its work, the ranker 30% — and the
    // service estimates stretch 2× for the two pools time-sharing it.
    let filter_capacity = calibrate_fifo_capacity_qps(
        &filter_model,
        CentaurConfig::harpv2(),
        IndexDistribution::Uniform,
        7,
    )
    .expect("calibration succeeds");
    let cost_ratio = relative_sample_cost(&ranker_config) / relative_sample_cost(&filter_config);
    let ranker_replicas = 2;
    let filter_pool_qps = 0.7 * filter_capacity;
    let ranker_pool_qps = 0.3 * filter_capacity / cost_ratio;
    let filter_estimate =
        Duration::from_secs_f64(centaur::BATCH_WAVE_SAMPLES as f64 / filter_capacity.max(1.0)) * 2;
    let ranker_estimate = scaled_service_estimate(filter_estimate, &filter_config, &ranker_config);

    // The filter offers a nominal 0.5× of its pooled capacity; the ranker
    // is overloaded at 3× its pooled capacity with heavy-tailed arrivals
    // and a crash targeting its pool — more work than the whole host can
    // absorb, so *someone* must shed, and which tenant pays is exactly
    // what the pool topology decides.
    let filter_qps = 0.5 * filter_pool_qps;
    let ranker_qps = 3.0 * ranker_pool_qps;
    let total_qps = filter_qps + ranker_qps;
    let queries = ((total_qps * 0.2).ceil() as usize).clamp(256, 4_000);
    let filter_share = filter_qps / total_qps;

    let tenants = [
        TenantSpec::new(
            "ctr-filter",
            filter_model,
            TenantTraffic::new(filter_share, TrafficShape::Poisson),
            FILTER_SLO,
        )
        .with_service_estimate(filter_estimate)
        .supervised(Supervision::default())
        .with_admission_depth(((filter_pool_qps * FILTER_SLO.as_secs_f64()) as usize).max(16)),
        TenantSpec::new(
            "final-ranker",
            ranker_model,
            TenantTraffic::new(1.0 - filter_share, TrafficShape::HeavyTail),
            RANKER_SLO,
        )
        .with_replicas(ranker_replicas)
        .with_service_estimate(ranker_estimate)
        .supervised(Supervision::default())
        .with_faults(FaultSpec::crashes(1).with_seed(42))
        .with_admission_depth(((ranker_pool_qps * RANKER_SLO.as_secs_f64()) as usize).max(16)),
    ];

    println!(
        "Ads ranking mix: ctr-filter DLRM(1) @ {:.0} qps under a {} ms SLO, \
         final-ranker DLRM(6) @ {:.0} qps (3x its pooled capacity, heavy-tailed, \
         1 crash) under a {} ms SLO\n",
        filter_qps,
        FILTER_SLO.as_millis(),
        ranker_qps,
        RANKER_SLO.as_millis()
    );
    println!(
        "{:<14} {:<10} {:>12} {:>13} {:>9} {:>7} {:>7} {:>9}",
        "tenant", "pool", "offered qps", "availability", "p99 ms", "shed", "failed", "faults"
    );

    let mut filter_rows = Vec::new();
    for mode in [PoolMode::Isolated, PoolMode::Shared] {
        let rows = run_mix_cell(
            CentaurConfig::harpv2(),
            &tenants,
            mode,
            total_qps,
            queries,
            7,
        )
        .expect("mix cell succeeds");
        for r in &rows {
            println!(
                "{:<14} {:<10} {:>12.0} {:>13.4} {:>9.3} {:>7} {:>7} {:>9}",
                r.tenant,
                r.pool,
                r.offered_qps,
                r.availability(),
                p99_s(r) * 1e3,
                r.outcome.shed(),
                r.outcome.failed,
                r.faults
            );
        }
        filter_rows.extend(rows.into_iter().filter(|r| r.tenant == "ctr-filter"));
    }

    let isolated = p99_s(&filter_rows[0]);
    let shared = p99_s(&filter_rows[1]);
    println!(
        "\nIsolated pools pin the CTR filter at {:.3} ms p99 — inside its {} ms SLO — \
         while its overloaded neighbour sheds its own excess; shared-everything \
         drags the filter's p99 to {:.3} ms, {:.1}x past its deadline.",
        isolated * 1e3,
        FILTER_SLO.as_millis(),
        shared * 1e3,
        shared / FILTER_SLO.as_secs_f64()
    );
}

/// A row's p99 end-to-end latency in seconds (`0` when nothing completed).
fn p99_s(row: &ServeReport) -> f64 {
    row.outcome.latency_summary().unwrap_or_default().p99_s
}
