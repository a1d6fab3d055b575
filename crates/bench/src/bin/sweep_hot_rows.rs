//! Hot-row cache sensitivity: hit rate vs serving tail latency.
//!
//! RecNMP's argument for caching inside the buffer device is that
//! production embedding traffic is Zipf-skewed, so a small SRAM tier in
//! front of the DIMM's DRAM recovers real bandwidth. This harness sweeps
//! the [`HotRowCacheConfig`] capacity grid against traffic skews
//! (`zipf_s`) and reports, per point, the aggregate replay hit rate and
//! the p99 serving latency of a cycle-calibrated TDIMM simulation — the
//! table reproduced in `EXPERIMENTS.md` ("Hot-row caching").
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tensordimm_bench --bin sweep_hot_rows [-- --quick]
//! ```
//!
//! `--quick` shrinks the grid and replay depth so CI can gate on the
//! invariants in seconds. Gated invariants, per skew row:
//!
//! * capacity 0 (disabled) never hits,
//! * the aggregate hit rate is monotone non-decreasing in capacity (the
//!   LRU stack property, surviving the full serving stack), and
//! * caching never *regresses* the p99 tail (2% numeric slack).
//!
//! Hit rates here are bounded by repeats *within* each batch's replayed
//! lookup window (capped at `max_replayed_lookups` over paper-scale
//! 5M-row tables), so they are far below what a row-granularity trace
//! over a long horizon would show — the point is the trend, not the peak.

use tensordimm_models::Workload;
use tensordimm_serving::{simulate_with_pricer, ArrivalProcess, BatchPolicy, SimConfig};
use tensordimm_system::{
    CyclePricer, CyclePricerConfig, DesignPoint, HotRowCacheConfig, HotRowStats, SystemModel,
    SystemModelConfig,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let zipf_grid: &[f64] = if quick { &[0.9] } else { &[0.5, 0.9, 1.2] };
    let capacities: &[u64] = if quick {
        &[0, 4096]
    } else {
        &[0, 512, 4096, 32_768]
    };
    let replay_cap = if quick { 512 } else { 2000 };
    let requests = if quick { 400 } else { 4000 };

    let w = Workload::facebook();
    let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0));
    // One arrival trace shared by every grid point: rows differ only by
    // skew and cache capacity, never by traffic.
    let arrivals = ArrivalProcess::Poisson {
        rate_qps: 100_000.0,
    }
    .sample_arrivals_us(requests, 42);

    println!(
        "Hot-row cache sweep: Facebook, TDIMM, 8 GPUs, batch<=32, {requests} requests, \
         replay cap {replay_cap}"
    );
    println!();
    println!(
        "{:>7} {:>14} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "zipf_s", "capacity_rows", "hits", "misses", "hit_rate", "p99_us", "vs_uncached"
    );

    for &s in zipf_grid {
        let mut model_cfg = SystemModelConfig::paper_defaults();
        model_cfg.zipf_s = s;
        let model = SystemModel::new(model_cfg);

        let mut uncached_p99 = f64::NAN;
        let mut prev_hit_rate = 0.0f64;
        for &capacity in capacities {
            let mut pricer_cfg = CyclePricerConfig::paper_defaults();
            pricer_cfg.max_replayed_lookups = replay_cap;
            pricer_cfg.nmp.hot_rows = if capacity == 0 {
                HotRowCacheConfig::disabled()
            } else {
                HotRowCacheConfig::fully_associative(capacity)
            };
            let pricer = CyclePricer::with_config(&model, pricer_cfg).expect("valid replay config");
            let report =
                simulate_with_pricer(&w, &cfg, &arrivals, &pricer).expect("valid simulation");

            let mut agg = HotRowStats::default();
            for (_, stats) in pricer.cached_hot_row_table() {
                agg.merge(&stats);
            }
            let p99 = report.latency.p99_us;
            if capacity == 0 {
                uncached_p99 = p99;
                assert_eq!(agg, HotRowStats::default(), "zipf {s}: disabled cache hit");
            } else {
                assert!(
                    agg.hit_rate() + 1e-12 >= prev_hit_rate,
                    "zipf {s}: hit rate fell from {prev_hit_rate:.4} to {:.4} \
                     when capacity grew to {capacity}",
                    agg.hit_rate()
                );
                assert!(
                    p99 <= uncached_p99 * 1.02,
                    "zipf {s} capacity {capacity}: cached p99 {p99:.1} us regressed past \
                     uncached {uncached_p99:.1} us"
                );
            }
            prev_hit_rate = agg.hit_rate();
            println!(
                "{:>7.2} {:>14} {:>10} {:>10} {:>9.1}% {:>12.1} {:>+9.1}%",
                s,
                capacity,
                agg.hits,
                agg.misses,
                100.0 * agg.hit_rate(),
                p99,
                100.0 * (p99 - uncached_p99) / uncached_p99,
            );
        }
        println!();
    }
    println!("invariants: disabled-never-hits, hit-rate monotone in capacity, p99 never regresses");
}
