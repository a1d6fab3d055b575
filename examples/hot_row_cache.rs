//! Hot-row caching in the NMP gather path, RecNMP-style.
//!
//! Production embedding traffic is Zipf-skewed: a small head of rows
//! absorbs most lookups. A modest SRAM row cache in the DIMM's buffer
//! device can therefore short-circuit a large share of DRAM reads. This
//! example replays the same Zipf gather through the cycle-level NMP core
//! uncached and with growing hot-row caches, then prices a serving batch
//! through the cycle-calibrated backend both ways.
//!
//! Run with: `cargo run --release --example hot_row_cache`

use tensordimm::cache::HotRowCacheConfig;
use tensordimm::isa::{DimmContext, Instruction};
use tensordimm::models::Workload;
use tensordimm::nmp::{NmpConfig, NmpCore};
use tensordimm::serving::zipf_lookup_rows;
use tensordimm::system::{BatchPricer, CyclePricer, CyclePricerConfig, DesignPoint, SystemModel};

fn main() {
    // --- Raw replay: one DIMM, 2048 Zipf-0.9 lookups over 50k rows. ---
    let lookups = 2048usize;
    let table_rows = 50_000u64;
    let indices = zipf_lookup_rows(lookups, table_rows, 0.9, 0xcafe);
    let gather = Instruction::Gather {
        table_base: 0,
        idx_base: 1 << 27,
        output_base: 1 << 28,
        count: lookups as u64,
        vec_blocks: 32,
    };
    let ctx = DimmContext::new(32, 0);

    println!("Zipf-0.9 gather, {lookups} lookups over {table_rows} rows, one DIMM:");
    println!();
    println!(
        "{:>14} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "capacity_rows", "hit_rate", "dram_reads", "cycles", "DRAM GB/s", "delivered"
    );
    for capacity in [0u64, 64, 500, 4000] {
        let mut cfg = NmpConfig::paper();
        cfg.hot_rows = if capacity == 0 {
            HotRowCacheConfig::disabled()
        } else {
            HotRowCacheConfig::fully_associative(capacity)
        };
        let mut core = NmpCore::new(cfg).expect("valid config");
        let stats = core
            .run_instruction(&gather, ctx, Some(&indices))
            .expect("valid gather");
        println!(
            "{:>14} {:>9.1}% {:>10} {:>12} {:>12.2} {:>12.2}",
            capacity,
            100.0 * stats.hot_rows.hit_rate(),
            stats.reads,
            stats.cycles,
            stats.achieved_gbps(),
            stats.delivered_gbps(),
        );
    }
    println!();
    println!("(`delivered` counts SRAM hits as served traffic; `DRAM GB/s` is the bus alone.)");
    println!();

    // --- Serving view: the same knob through the cycle pricer. ---
    let model = SystemModel::paper_defaults();
    let w = Workload::facebook();
    let batch = 32;
    let price = |hot_rows: HotRowCacheConfig| {
        let mut cfg = CyclePricerConfig::paper_defaults();
        cfg.nmp.hot_rows = hot_rows;
        let pricer = CyclePricer::with_config(&model, cfg).expect("valid replay config");
        let cost = pricer
            .price(&w, batch, DesignPoint::Tdimm, 8)
            .expect("valid batch");
        (cost.service_us, pricer.measured_hot_rows(&w, batch))
    };
    let (uncached_us, _) = price(HotRowCacheConfig::disabled());
    let (cached_us, hr) = price(HotRowCacheConfig::fully_associative(100_000));
    println!(
        "Facebook batch-{batch} TDIMM service (8 GPUs, cycle backend): \
         {uncached_us:.1} us uncached, {cached_us:.1} us with a 100k-row cache \
         ({:.1}% replay hit rate)",
        100.0 * hr.hit_rate()
    );
}
