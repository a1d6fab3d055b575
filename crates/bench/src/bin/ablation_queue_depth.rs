//! Ablation: SRAM staging-queue sizing (Section 4.2).
//!
//! The paper sizes the NMP core's input/output queues by the
//! bandwidth-delay product (25.6 GB/s x 20 ns = 512 B). This ablation runs
//! the detailed pipeline model with input-queue capacities from one entry
//! up to 4 KiB and shows the knee right around the paper's sizing (the
//! output queue drains into the DRAM controller's write queue, whose depth
//! bounds it instead).

use tensordimm_isa::{DimmContext, Instruction, ReduceOp};
use tensordimm_nmp::{NmpConfig, NmpCore};

fn main() {
    let reduce = Instruction::Reduce {
        input1: 0,
        input2: 1 << 21,
        output_base: 1 << 22,
        count: 32 * 4096,
        op: ReduceOp::Add,
    };
    let gather_indices: Vec<u64> = {
        let mut x = 0x243f6a8885a308d3u64;
        (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1_000_000
            })
            .collect()
    };
    let gather = Instruction::Gather {
        table_base: 0,
        idx_base: 1 << 33,
        output_base: 1 << 34,
        count: gather_indices.len() as u64,
        vec_blocks: 32,
    };
    let ctx = DimmContext::new(32, 0);

    println!("Ablation: NMP SRAM queue depth vs achieved local bandwidth");
    println!("(paper sizing: 512 B = 8 entries per queue)");
    println!();
    println!(
        "{:>11} {:>8} | {:>13} {:>13}",
        "queue bytes", "entries", "REDUCE (GB/s)", "GATHER (GB/s)"
    );
    for bytes in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let mut cfg = NmpConfig::paper();
        cfg.input_queue_bytes = bytes;
        let mut core = NmpCore::new(cfg.clone()).expect("valid config");
        let r = core
            .run_instruction(&reduce, ctx, None)
            .expect("valid instruction");
        let g = core
            .run_instruction(&gather, ctx, Some(&gather_indices))
            .expect("valid instruction");
        println!(
            "{:>11} {:>8} | {:>13.1} {:>13.1}{}",
            bytes,
            cfg.input_queue_entries(),
            r.achieved_gbps(),
            g.achieved_gbps(),
            if bytes == 512 { "   <- paper" } else { "" }
        );
    }
    println!();
    println!(
        "Too-shallow queues stall the pipeline. The knee sits at roughly \
         1 KiB, one doubling above the paper's 512 B: our simulated loaded \
         read latency (~40 ns with queueing) exceeds the 20 ns the paper's \
         bandwidth-delay sizing assumes. Recorded in EXPERIMENTS.md."
    );
}
