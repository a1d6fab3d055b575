//! Analytic vs cycle-calibrated batch pricing, per design point.
//!
//! The serving simulator prices batches through a pluggable
//! [`BatchPricer`]: the closed-form analytic model, or the
//! cycle-calibrated backend that replays each batch's Zipf gather trace
//! through the event-driven DRAM/NMP co-simulator. This harness quantifies
//! how far the two diverge across the Fig. 14 grid (workload × batch ×
//! node design, at solo and 8-GPU concurrency) and asserts:
//!
//! * the divergence stays inside the calibration band (the analytic
//!   utilization constants were measured on this same simulator, so a
//!   large gap means one of the two regressed), and
//! * the paper's orderings survive the backend swap: TDIMM ≲ PMEM on
//!   every point (NCF's reduction factor of 2 makes them a near-tie).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tensordimm_bench --bin sweep_backend_compare \
//!     [-- --quick] [-- --workers N]
//! ```
//!
//! `--quick` shrinks the batch grid and replay depth so CI can gate on the
//! band in seconds. `--workers N` warms the cycle pricer's latency table by
//! replaying the grid's distinct batch shapes concurrently (the table and
//! every printed number are bit-identical at any worker count — the
//! remaining grid walk is served from memo hits). The full table is
//! reproduced in `EXPERIMENTS.md` ("Analytic vs cycle-calibrated serving").

use std::time::Instant;

use tensordimm_bench::args::workers_from_args;
use tensordimm_models::Workload;
use tensordimm_system::{
    AnalyticPricer, BatchPricer, CyclePricer, CyclePricerConfig, DesignPoint, SystemModel,
};

/// Maximum |cycle − analytic| / analytic allowed on any grid point.
const DIVERGENCE_BAND: f64 = 0.15;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let workers = workers_from_args();
    let model = SystemModel::paper_defaults();
    let analytic = AnalyticPricer::new(&model);
    let cycle = if quick {
        let mut cfg = CyclePricerConfig::paper_defaults();
        cfg.max_replayed_lookups = 512;
        CyclePricer::with_config(&model, cfg).expect("valid replay config")
    } else {
        CyclePricer::new(&model)
    };

    let batches: &[usize] = if quick { &[8, 64] } else { &[8, 64, 128] };
    let designs = [DesignPoint::Pmem, DesignPoint::Tdimm];

    // Warm the latency table by replaying every distinct (workload, batch)
    // shape of the grid concurrently; the sequential comparison loop below
    // is then pure memo hits, so its numbers cannot depend on the worker
    // count (the memo replay is a deterministic function of the key).
    let shapes: Vec<(Workload, usize)> = Workload::all()
        .into_iter()
        .flat_map(|w| batches.iter().map(move |&b| (w.clone(), b)))
        .collect();
    let warm_start = Instant::now();
    let fresh = cycle.warm(&shapes, workers);
    let warm_s = warm_start.elapsed().as_secs_f64();
    eprintln!(
        "warmed {fresh} distinct batch shapes on {workers} workers in {warm_s:.2}s \
         ({} replays total)",
        cycle.replay_count()
    );

    println!(
        "Analytic vs cycle-calibrated batch pricing (service µs per batch; {} replay cap {})",
        if quick { "quick," } else { "full," },
        cycle.config().max_replayed_lookups
    );
    println!();
    println!(
        "{:>10} {:>6} {:>7} | {:>12} {:>12} {:>7} | {:>12} {:>12} {:>7}",
        "workload",
        "batch",
        "design",
        "analytic@1",
        "cycle@1",
        "gap",
        "analytic@8",
        "cycle@8",
        "gap"
    );

    let mut worst_gap = 0.0f64;
    let mut worst_label = String::new();
    for w in Workload::all() {
        for &b in batches {
            let mut per_design = Vec::new();
            for design in designs {
                let mut row = Vec::new();
                for gpus in [1usize, 8] {
                    let a = analytic
                        .price(&w, b, design, gpus)
                        .expect("valid grid point")
                        .service_us;
                    let c = cycle
                        .price(&w, b, design, gpus)
                        .expect("valid grid point")
                        .service_us;
                    let gap = (c - a) / a;
                    if gap.abs() > worst_gap {
                        worst_gap = gap.abs();
                        worst_label = format!("{} b{b} {design} @{gpus}", w.name);
                    }
                    row.push((a, c, gap));
                }
                println!(
                    "{:>10} {:>6} {:>7} | {:>12.1} {:>12.1} {:>+6.1}% | {:>12.1} {:>12.1} {:>+6.1}%",
                    w.name.to_string(),
                    b,
                    design.label(),
                    row[0].0,
                    row[0].1,
                    100.0 * row[0].2,
                    row[1].0,
                    row[1].1,
                    100.0 * row[1].2,
                );
                per_design.push(row);
            }
            // Orderings at solo concurrency (the Fig. 14 regime golden
            // tests pin): TDIMM ≲ PMEM under BOTH backends, with NCF's
            // near-tie tolerance. At 8 GPUs NCF genuinely inverts in the
            // analytic model too (its reduction factor of 2 cannot offset
            // the 8-way shared-lookup scaling), so the 8-GPU columns above
            // are divergence-only.
            let tolerance = if w.name == tensordimm_models::WorkloadName::Ncf {
                1.13
            } else {
                1.0
            };
            let (pmem_a, pmem_c, _) = per_design[0][0];
            let (tdimm_a, tdimm_c, _) = per_design[1][0];
            assert!(
                tdimm_a <= pmem_a * tolerance,
                "{} b{b}: analytic PMEM beat TDIMM",
                w.name
            );
            assert!(
                tdimm_c <= pmem_c * tolerance,
                "{} b{b}: cycle PMEM beat TDIMM ({tdimm_c:.1} vs {pmem_c:.1})",
                w.name
            );
        }
    }

    println!();
    println!(
        "worst divergence: {:.1}% ({worst_label}); band: ±{:.0}%",
        100.0 * worst_gap,
        100.0 * DIVERGENCE_BAND
    );
    assert!(
        worst_gap <= DIVERGENCE_BAND,
        "cycle backend diverged {:.1}% from analytic on {worst_label} (band ±{:.0}%)",
        100.0 * worst_gap,
        100.0 * DIVERGENCE_BAND
    );
    println!("backend agreement: WITHIN BAND; orderings: HOLD under both backends");
}
