//! Static-analysis gate over the cycle pricer's replay grid.
//!
//! For every Fig. 14 grid point (workload × batch) this harness lowers
//! the exact gather the cycle-calibrated pricer replays
//! ([`CyclePricerConfig::lowered_gather`]) and asserts the static
//! analyzer's two contracts against the replay engine:
//!
//! * **program verification** — `analyze_program` accepts the lowered
//!   instruction against the node's DRAM pool with zero error-severity
//!   diagnostics (a rejection here means the runtime lowered an
//!   instruction the abstract interpreter can prove faults), and
//! * **cycle lower bound** — `analyze_plan`'s physical bound
//!   (bandwidth / bank-activation / rank-activation / SRAM-port, the
//!   maximum of the four) never exceeds the replayed cycle count. The
//!   replay also runs with `NmpConfig::verify` on, so the core itself
//!   cross-checks its DRAM request counts against the analyzer.
//!
//! Both checks repeat with the hot-row SRAM tier enabled, where the
//! analyzer must mirror the cache's hit/skip bookkeeping exactly.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tensordimm_bench --bin sweep_static_check [-- --quick]
//! ```
//!
//! `--quick` shrinks the batch grid and replay depth so CI can gate in
//! seconds. The full slack table is reproduced in `EXPERIMENTS.md`
//! ("Static verification of the replay grid").

use tensordimm_analysis::{analyze_plan, analyze_program, gather_tail_waste, ProgramStep};
use tensordimm_cache::HotRowCacheConfig;
use tensordimm_isa::AccessPlan;
use tensordimm_models::Workload;
use tensordimm_nmp::NmpCore;
use tensordimm_system::{CyclePricerConfig, SystemModel};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let model = SystemModel::paper_defaults();
    let zipf_s = model.config().zipf_s;
    let mut cfg = CyclePricerConfig::paper_defaults();
    if quick {
        cfg.max_replayed_lookups = 512;
    }
    cfg.nmp.verify = true;

    let batches: &[usize] = if quick { &[8, 64] } else { &[8, 64, 128] };
    // The node's DRAM pool in 64-byte blocks: the lowered gather's
    // node-level block addresses must all land inside it.
    let pool_blocks = cfg.dimms * (cfg.nmp.dram.capacity_bytes() / 64);
    let caches = [
        ("none", HotRowCacheConfig::disabled()),
        ("64-row", HotRowCacheConfig::fully_associative(64)),
    ];

    println!(
        "Static verifier vs replay engine across the Fig. 14 grid ({} replay cap {})",
        if quick { "quick," } else { "full," },
        cfg.max_replayed_lookups
    );
    println!();
    println!(
        "{:>10} {:>6} {:>7} | {:>9} {:>12} {:>12} {:>7} | {:>6}",
        "workload", "batch", "cache", "diags", "lower_bound", "replayed", "slack", "waste"
    );

    let mut points = 0u64;
    let mut worst_slack = f64::INFINITY;
    for w in Workload::all() {
        let waste = gather_tail_waste(w.embedding_bytes(), cfg.dimms);
        for &b in batches {
            let (instr, indices, ctx) = cfg.lowered_gather(zipf_s, &w, b);

            // Contract 1: the abstract interpreter accepts the lowered
            // program against the node pool.
            let report = analyze_program(
                &[ProgramStep::with_indices(instr, &indices)],
                ctx,
                pool_blocks,
            );
            assert!(
                report.accepted(),
                "{} b{b}: runtime-lowered gather rejected: {}",
                w.name,
                report
                    .first_error()
                    .expect("rejected reports carry an error")
            );

            for (cache_label, hot_rows) in caches {
                let mut nmp = cfg.nmp.clone();
                nmp.hot_rows = hot_rows;
                let plan = AccessPlan::for_dimm(&instr, ctx, Some(&indices))
                    .expect("accepted plans lower");
                let analysis = analyze_plan(&plan, ctx, &nmp.dram, nmp.hot_rows)
                    .expect("pricer DRAM/cache config is valid");

                // Contract 2: the replay (verify mode on — the core
                // re-checks its own DRAM counts) dominates the bound.
                let mut core = NmpCore::new(nmp).expect("pricer NMP config is valid");
                let stats = core
                    .run_plan(&instr, &plan, ctx)
                    .expect("verified replay succeeds");
                let lb = analysis.lower_bound();
                assert!(
                    lb <= stats.cycles,
                    "{} b{b} cache {cache_label}: lower bound {lb} exceeds replayed {}",
                    w.name,
                    stats.cycles
                );
                let slack = (stats.cycles - lb) as f64 / stats.cycles as f64;
                worst_slack = worst_slack.min(slack);
                points += 1;
                println!(
                    "{:>10} {:>6} {:>7} | {:>9} {:>12} {:>12} {:>6.1}% | {:>5.1}%",
                    w.name.to_string(),
                    b,
                    cache_label,
                    report.diagnostics.len(),
                    lb,
                    stats.cycles,
                    100.0 * slack,
                    100.0 * waste.waste_fraction(),
                );
            }
        }
    }

    println!();
    println!(
        "{points} grid points verified; tightest slack {:.1}%",
        100.0 * worst_slack
    );
    println!("static gate: ACCEPTED (0 errors); bounds: HOLD on every point");
}
