//! Explore the DDR4 simulator substrate directly: access patterns, row
//! locality, scheduling, and the bank-parallelism effects TensorDIMM
//! exploits.
//!
//! The example asserts two orderings, so running it checks the FCFS
//! policy and the multi-rank paths of the scheduler: FR-FCFS delivers at
//! least twice FCFS's bandwidth on the uniform gather, and four ranks beat
//! one on random 64 B reads.
//!
//! Run with: `cargo run --release --example dram_explorer`

use tensordimm::dram::{DramConfig, MemorySystem, Request, SchedulerKind};
use tensordimm::embedding::{Distribution, IndexStream};

/// Replay `addrs` as reads, print the stats line and return the
/// delivered bandwidth in GB/s.
fn run(label: &str, cfg: DramConfig, addrs: &[u64]) -> f64 {
    let mut mem = MemorySystem::new(cfg).expect("valid config");
    for &a in addrs {
        mem.push_when_ready(Request::read(a));
    }
    mem.run_to_completion();
    let s = mem.stats();
    println!(
        "{label:<34} {:>7.1} GB/s  util {:>5.1}%  row-hit {:>5.1}%  lat {:>6.1} ns",
        s.achieved_gbps(),
        100.0 * s.utilization(),
        100.0 * s.row_hit_rate(),
        s.mean_read_latency_ns()
    );
    s.achieved_gbps()
}

fn main() {
    let cfg = DramConfig::ddr4_3200_channel();
    let capacity = cfg.capacity_bytes();
    println!(
        "One TensorDIMM-local DDR4-3200 channel: {} GiB, {:.1} GB/s peak",
        capacity >> 30,
        cfg.peak_gbps()
    );
    println!();

    // Sequential stream: the REDUCE/AVERAGE pattern.
    let seq: Vec<u64> = (0..16_384u64).map(|i| i * 64).collect();
    run("sequential stream", cfg.clone(), &seq);

    // Uniform-random 2 KiB embeddings: worst-case GATHER.
    let mut uniform = IndexStream::new(Distribution::Uniform, capacity / 2048, 1);
    let rand_vecs: Vec<u64> = uniform
        .batch(512)
        .into_iter()
        .flat_map(|row| (0..32u64).map(move |b| row * 2048 + b * 64))
        .collect();
    let fr_fcfs_gbps = run("uniform gather (2KiB vectors)", cfg.clone(), &rand_vecs);

    // Zipfian gather: realistic recommendation traffic.
    let mut zipf = IndexStream::new(Distribution::Zipfian { s: 1.0 }, capacity / 2048, 1);
    let zipf_vecs: Vec<u64> = zipf
        .batch(512)
        .into_iter()
        .flat_map(|row| (0..32u64).map(move |b| row * 2048 + b * 64))
        .collect();
    run("zipfian gather (2KiB vectors)", cfg.clone(), &zipf_vecs);

    // Scheduler matters: strict FCFS on the uniform gather.
    let fcfs_gbps = run(
        "uniform gather, FCFS scheduler",
        cfg.clone().with_scheduler(SchedulerKind::Fcfs),
        &rand_vecs,
    );

    // Random single-block (64 B) reads: the activate-rate wall. Four
    // internal ranks (an LR-DIMM) hide it; a single rank cannot.
    let mut blocks = IndexStream::new(Distribution::Uniform, capacity / 64, 2);
    let rand_blocks: Vec<u64> = blocks.batch(16_384).iter().map(|b| b * 64).collect();
    let four_rank_gbps = run("random 64B reads, 4 ranks", cfg.clone(), &rand_blocks);

    let mut one_rank = cfg.clone();
    one_rank.geometry.ranks_per_channel = 1;
    one_rank.mapping = tensordimm::dram::MappingScheme::nmp_local(&one_rank.geometry);
    let small: Vec<u64> = rand_blocks
        .iter()
        .map(|a| a % one_rank.capacity_bytes())
        .collect();
    let one_rank_gbps = run("random 64B reads, single rank", one_rank, &small);

    assert!(
        fr_fcfs_gbps >= 2.0 * fcfs_gbps,
        "FR-FCFS should at least double FCFS on the uniform gather: \
         {fr_fcfs_gbps:.1} vs {fcfs_gbps:.1} GB/s"
    );
    assert!(
        four_rank_gbps > one_rank_gbps,
        "four ranks should beat one on random 64B reads: \
         {four_rank_gbps:.1} vs {one_rank_gbps:.1} GB/s"
    );

    println!();
    println!(
        "Streams ride open rows; random gathers recover bandwidth through \
         bank/rank parallelism — unless only one rank bounds the activate rate (tFAW)."
    );
}
