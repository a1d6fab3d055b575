//! Shared DRAM-traffic generation for the Fig. 11 / Fig. 12 harnesses.
//!
//! Mirrors the paper's methodology (Section 5): generate the memory
//! accesses of each tensor operation and feed them to the cycle-level DRAM
//! simulator, measuring achieved bandwidth. The TensorNode side replays
//! one representative DIMM's slice (slices are symmetric) and scales by
//! the DIMM count; the CPU side replays the full access stream over the
//! conventional 8-channel memory system.

use tensordimm_dram::{DramConfig, MemorySystem, Trace, TraceRunner};
use tensordimm_isa::{DimmContext, Instruction, ReduceOp};
use tensordimm_nmp::{NmpConfig, NmpCore};
use tensordimm_serving::zipf_lookup_rows;

/// Which tensor operation to generate traffic for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Embedding lookup.
    Gather,
    /// Element-wise reduction of two tensors.
    Reduce,
    /// Grouped element-wise average.
    Average {
        /// Embeddings per pooled output.
        group: u64,
    },
}

impl OpKind {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Gather => "GATHER",
            OpKind::Reduce => "REDUCE",
            OpKind::Average { .. } => "AVERAGE",
        }
    }
}

/// One bandwidth experiment: `count` embeddings of `vec_blocks` blocks.
#[derive(Debug, Clone, Copy)]
pub struct OpExperiment {
    /// The operation.
    pub op: OpKind,
    /// Embeddings processed (for AVERAGE: inputs, not outputs).
    pub count: u64,
    /// 64-byte blocks per embedding vector.
    pub vec_blocks: u64,
    /// Rows in the source table (GATHER index range).
    pub table_rows: u64,
    /// RNG seed for GATHER indices.
    pub seed: u64,
    /// Popularity skew of GATHER indices: `0.0` draws rows uniformly (the
    /// paper's worst case for row-buffer locality), `> 0.0` draws
    /// Zipf-skewed rows (rank 0 hottest) as recommendation serving traffic
    /// does.
    pub zipf_s: f64,
}

fn gather_indices(exp: &OpExperiment) -> Vec<u64> {
    zipf_lookup_rows(exp.count as usize, exp.table_rows, exp.zipf_s, exp.seed)
}

/// Round `vec_blocks` up to a whole stripe over `dimms`.
pub fn padded_vec_blocks(vec_blocks: u64, dimms: u64) -> u64 {
    vec_blocks.div_ceil(dimms) * dimms
}

/// Achieved aggregate TensorNode bandwidth (GB/s) for one experiment:
/// replay DIMM 0's slice on the cycle-level simulator, scale by `dimms`.
pub fn tensornode_gbps(exp: &OpExperiment, dimms: u64) -> f64 {
    let mut nmp_cfg = NmpConfig::paper();
    nmp_cfg.dram = nmp_cfg.dram.with_replay_queues();
    let mut core = NmpCore::new(nmp_cfg).expect("paper NMP config is valid");
    let vb = padded_vec_blocks(exp.vec_blocks, dimms);
    // Place operands in distinct stripe-aligned regions.
    let region = (exp.table_rows.max(exp.count) + 1) * vb;
    let instr = match exp.op {
        OpKind::Gather => Instruction::Gather {
            table_base: 0,
            idx_base: 3 * region,
            output_base: region,
            count: exp.count,
            vec_blocks: vb,
        },
        OpKind::Reduce => Instruction::Reduce {
            input1: 0,
            input2: region,
            output_base: 2 * region,
            count: exp.count * vb,
            op: ReduceOp::Add,
        },
        OpKind::Average { group } => Instruction::Average {
            input_base: 0,
            output_base: region,
            count: exp.count / group.max(1),
            group,
            vec_blocks: vb,
        },
    };
    let indices = gather_indices(exp);
    let stats = core
        .replay_instruction(&instr, DimmContext::new(dimms, 0), Some(&indices))
        .expect("experiment instruction is valid");
    stats.achieved_gbps() * dimms as f64
}

/// The block-level trace of one experiment's logical operation over a
/// memory of `capacity` bytes — the exact stream [`cpu_gbps`] (and hence
/// the Fig. 4 / Fig. 11 harnesses) replays. Public so perf harnesses like
/// `perf_dram_engine` can feed the identical trace through both the
/// tick-stepped and the event-driven engine paths.
pub fn op_trace(exp: &OpExperiment, capacity: u64) -> Trace {
    let vec_bytes = exp.vec_blocks * 64;
    // Operand regions, clamped into capacity.
    let table_bytes = (exp.table_rows * vec_bytes).min(capacity / 4);
    let region = capacity / 4;
    let mut trace = Trace::new();
    match exp.op {
        OpKind::Gather => {
            for (i, row) in gather_indices(exp).iter().enumerate() {
                let src = (row * vec_bytes) % table_bytes;
                trace.read_range(src, vec_bytes);
                trace.write_range(region + i as u64 * vec_bytes, vec_bytes);
            }
        }
        OpKind::Reduce => {
            for b in 0..exp.count * exp.vec_blocks {
                trace.read(b * 64);
                trace.read(region + b * 64);
                trace.write(2 * region + b * 64);
            }
        }
        OpKind::Average { group } => {
            let outputs = exp.count / group.max(1);
            for o in 0..outputs {
                for g in 0..group {
                    trace.read_range((o * group + g) * vec_bytes, vec_bytes);
                }
                trace.write_range(region + o * vec_bytes, vec_bytes);
            }
        }
    }
    trace
}

/// Achieved CPU-memory bandwidth (GB/s) for the same logical operation
/// over a conventional `channels`-channel system with `ranks_per_channel`
/// ranks (DIMMs) per channel.
pub fn cpu_gbps(exp: &OpExperiment, channels: usize, ranks_per_channel: usize) -> f64 {
    let mut cfg = DramConfig::cpu_memory(channels).with_replay_queues();
    cfg.geometry.ranks_per_channel = ranks_per_channel;
    cfg.mapping = tensordimm_dram::MappingScheme::channel_interleaved(&cfg.geometry);
    let trace = op_trace(exp, cfg.capacity_bytes());
    let mem = MemorySystem::new(cfg).expect("cpu memory config is valid");
    let mut runner = TraceRunner::new(mem);
    let stats = runner.run(&trace).expect("trace addresses are in range");
    stats.achieved_gbps()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(op: OpKind) -> OpExperiment {
        OpExperiment {
            op,
            count: 512,
            vec_blocks: 32,
            table_rows: 100_000,
            seed: 5,
            zipf_s: 0.0,
        }
    }

    #[test]
    fn tensornode_beats_cpu_on_every_op() {
        for op in [OpKind::Gather, OpKind::Reduce, OpKind::Average { group: 8 }] {
            let node = tensornode_gbps(&exp(op), 32);
            let cpu = cpu_gbps(&exp(op), 8, 4);
            assert!(
                node > 2.0 * cpu,
                "{}: node {node:.0} vs cpu {cpu:.0}",
                op.label()
            );
            assert!(cpu < 204.8, "cpu exceeded its physical peak");
            assert!(node < 819.2, "node exceeded its physical peak");
        }
    }

    #[test]
    fn padding() {
        assert_eq!(padded_vec_blocks(32, 32), 32);
        assert_eq!(padded_vec_blocks(40, 32), 64);
        assert_eq!(padded_vec_blocks(64, 128), 128);
    }

    #[test]
    fn gather_indices_deterministic_per_seed() {
        let a = gather_indices(&exp(OpKind::Gather));
        let b = gather_indices(&exp(OpKind::Gather));
        assert_eq!(a, b, "same seed must replay the same index stream");

        let mut other = exp(OpKind::Gather);
        other.seed += 1;
        assert_ne!(
            a,
            gather_indices(&other),
            "different seed, different stream"
        );
    }

    #[test]
    fn gather_indices_shape_is_uniformish() {
        let mut e = exp(OpKind::Gather);
        e.count = 10_000;
        let idx = gather_indices(&e);
        assert_eq!(idx.len(), e.count as usize);
        assert!(idx.iter().all(|&i| i < e.table_rows), "index out of range");
        // Uniform draw: each quartile of the table should get roughly a
        // quarter of the traffic (loose 15%..35% band).
        let quarter = e.table_rows / 4;
        for q in 0..4 {
            let hits = idx.iter().filter(|&&i| (i / quarter).min(3) == q).count();
            let share = hits as f64 / idx.len() as f64;
            assert!(
                (0.15..0.35).contains(&share),
                "quartile {q} got {share:.3} of the traffic"
            );
        }
    }

    #[test]
    fn zipf_gather_indices_are_head_heavy() {
        let mut e = exp(OpKind::Gather);
        e.count = 10_000;
        e.zipf_s = 0.9;
        let idx = gather_indices(&e);
        assert_eq!(idx.len(), e.count as usize);
        assert!(idx.iter().all(|&i| i < e.table_rows), "index out of range");
        // The hottest 1% of rows should draw far more than 1% of lookups.
        let cutoff = e.table_rows / 100;
        let hot = idx.iter().filter(|&&i| i < cutoff).count() as f64 / idx.len() as f64;
        assert!(hot > 0.10, "zipf 0.9 hot-row share {hot:.3}");
        // And the stream stays deterministic per seed.
        assert_eq!(idx, gather_indices(&e));
    }

    #[test]
    fn bandwidth_results_deterministic_per_seed() {
        // A small experiment keeps the double cycle-level replay cheap.
        let e = OpExperiment {
            op: OpKind::Gather,
            count: 64,
            vec_blocks: 8,
            table_rows: 10_000,
            seed: 5,
            zipf_s: 0.0,
        };
        assert_eq!(
            tensornode_gbps(&e, 32).to_bits(),
            tensornode_gbps(&e, 32).to_bits(),
            "cycle-level replay must be bit-reproducible"
        );
        assert_eq!(cpu_gbps(&e, 8, 4).to_bits(), cpu_gbps(&e, 8, 4).to_bits());
    }
}
