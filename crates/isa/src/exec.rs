//! Functional execution of TensorISA instructions (paper Fig. 9).
//!
//! [`execute_on_dimm`] runs the slice of an instruction owned by one
//! TensorDIMM (`tid` of `node_dim`): the blocks whose rank-interleaved
//! position satisfies `block % node_dim == tid`. [`execute_on_node`] runs
//! all slices, which is the whole instruction — the decomposition is
//! exhaustive and disjoint, a property the tests check against golden
//! single-threaded implementations.

use crate::instruction::Instruction;
use crate::memory::VecMemory;
use crate::vector::{Vec16, LANES};
use crate::IsaError;

/// Which DIMM executes, out of how many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimmContext {
    /// Number of TensorDIMMs in the node (`nodeDim` in the paper).
    pub node_dim: u64,
    /// This DIMM's id (`tid` in the paper), `0 <= tid < node_dim`.
    pub tid: u64,
}

impl DimmContext {
    /// A context, validated on use.
    pub fn new(node_dim: u64, tid: u64) -> Self {
        DimmContext { node_dim, tid }
    }

    fn validate(&self) -> Result<(), IsaError> {
        if self.node_dim == 0 || self.tid >= self.node_dim {
            return Err(IsaError::InvalidContext {
                node_dim: self.node_dim,
                tid: self.tid,
            });
        }
        Ok(())
    }
}

/// Work performed by one DIMM for one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSummary {
    /// 64-byte blocks read from local DRAM.
    pub blocks_read: u64,
    /// 64-byte blocks written to local DRAM.
    pub blocks_written: u64,
    /// Vector-ALU operations performed (one per 64-byte pair).
    pub alu_ops: u64,
}

impl ExecSummary {
    /// Total bytes moved by this DIMM.
    pub fn bytes_moved(&self) -> u64 {
        (self.blocks_read + self.blocks_written) * 64
    }

    /// Accumulate another summary.
    pub fn merge(&mut self, other: &ExecSummary) {
        self.blocks_read += other.blocks_read;
        self.blocks_written += other.blocks_written;
        self.alu_ops += other.alu_ops;
    }
}

/// Execute the `ctx.tid` slice of `instr` against `mem`.
///
/// # Errors
///
/// * [`IsaError::InvalidContext`] for an out-of-range `tid`.
/// * Validation errors from [`Instruction::validate`].
/// * [`IsaError::IndexOutOfRange`] when a gathered index addresses beyond
///   the memory capacity.
pub fn execute_on_dimm(
    instr: &Instruction,
    mem: &mut VecMemory,
    ctx: DimmContext,
) -> Result<ExecSummary, IsaError> {
    ctx.validate()?;
    instr.validate(ctx.node_dim)?;
    let mut summary = ExecSummary::default();
    let node_dim = ctx.node_dim;
    let tid = ctx.tid;

    match *instr {
        // Fig. 9(a): every DIMM walks the replicated index list and copies
        // its stripe of each named embedding into the output tensor.
        Instruction::Gather {
            table_base,
            idx_base,
            output_base,
            count,
            vec_blocks,
        } => {
            let mut idx_block = [0u32; LANES];
            for i in 0..count {
                let lane = (i % LANES as u64) as usize;
                if lane == 0 {
                    idx_block = mem.read_u32(idx_base + i / LANES as u64);
                    summary.blocks_read += 1;
                }
                let index = idx_block[lane] as u64;
                let src_first = table_base + index * vec_blocks;
                if src_first + vec_blocks > mem.blocks() {
                    return Err(IsaError::IndexOutOfRange {
                        index,
                        block: src_first + vec_blocks - 1,
                        blocks: mem.blocks(),
                    });
                }
                let mut k = tid;
                while k < vec_blocks {
                    let v = mem.read_vec(src_first + k);
                    mem.write_vec(output_base + i * vec_blocks + k, v);
                    summary.blocks_read += 1;
                    summary.blocks_written += 1;
                    k += node_dim;
                }
            }
        }
        // Fig. 9(b): element-wise reduction over this DIMM's stripe.
        Instruction::Reduce {
            input1,
            input2,
            output_base,
            count,
            op,
        } => {
            let mut b = tid;
            while b < count {
                let a = mem.read_vec(input1 + b);
                let c = mem.read_vec(input2 + b);
                mem.write_vec(output_base + b, a.reduce(c, op));
                summary.blocks_read += 2;
                summary.blocks_written += 1;
                summary.alu_ops += 1;
                b += node_dim;
            }
        }
        // Fig. 9(c): average `group` consecutive embeddings per output.
        Instruction::Average {
            input_base,
            output_base,
            count,
            group,
            vec_blocks,
        } => {
            for i in 0..count {
                let mut k = tid;
                while k < vec_blocks {
                    let mut acc = Vec16::zero();
                    for j in 0..group {
                        let src = input_base + (i * group + j) * vec_blocks + k;
                        acc = acc + mem.read_vec(src);
                        summary.blocks_read += 1;
                        summary.alu_ops += 1;
                    }
                    mem.write_vec(output_base + i * vec_blocks + k, acc.scale(group as f32));
                    summary.blocks_written += 1;
                    summary.alu_ops += 1;
                    k += node_dim;
                }
            }
        }
    }
    Ok(summary)
}

/// Execute `instr` completely: every DIMM slice in turn.
///
/// Equivalent to broadcasting the instruction to all `node_dim` NMP cores
/// (Section 4.4) and waiting for each to finish its share.
///
/// # Errors
///
/// Same conditions as [`execute_on_dimm`].
pub fn execute_on_node(
    instr: &Instruction,
    mem: &mut VecMemory,
    node_dim: u64,
) -> Result<ExecSummary, IsaError> {
    let mut total = ExecSummary::default();
    for tid in 0..node_dim {
        let s = execute_on_dimm(instr, mem, DimmContext::new(node_dim, tid))?;
        total.merge(&s);
    }
    Ok(total)
}

/// Execute a whole program (instruction sequence) as one DIMM, stopping at
/// the first failure.
///
/// # Errors
///
/// The same conditions as [`execute_on_dimm`], wrapped in
/// [`IsaError::AtInstruction`] carrying the failing instruction's index —
/// the same site the static analyzer's first diagnostic names.
pub fn execute_program_on_dimm(
    instrs: &[Instruction],
    mem: &mut VecMemory,
    ctx: DimmContext,
) -> Result<ExecSummary, IsaError> {
    let mut total = ExecSummary::default();
    for (index, instr) in instrs.iter().enumerate() {
        let s = execute_on_dimm(instr, mem, ctx).map_err(|e| e.at(index))?;
        total.merge(&s);
    }
    Ok(total)
}

/// Execute a whole program completely: every instruction, every DIMM slice.
///
/// # Errors
///
/// Same conditions as [`execute_program_on_dimm`].
pub fn execute_program_on_node(
    instrs: &[Instruction],
    mem: &mut VecMemory,
    node_dim: u64,
) -> Result<ExecSummary, IsaError> {
    let mut total = ExecSummary::default();
    for (index, instr) in instrs.iter().enumerate() {
        let s = execute_on_node(instr, mem, node_dim).map_err(|e| e.at(index))?;
        total.merge(&s);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::ReduceOp;
    use crate::memory::VecMemory;

    const VB: u64 = 8; // blocks per embedding (512 B)

    /// Build a memory with `rows` embeddings at block 0, value = row index.
    fn table(rows: u64) -> VecMemory {
        let mut mem = VecMemory::new(1 << 14);
        for r in 0..rows {
            for b in 0..VB {
                mem.write_f32(r * VB + b, [(r as f32) + (b as f32) / 100.0; LANES]);
            }
        }
        mem
    }

    fn write_indices(mem: &mut VecMemory, base: u64, indices: &[u32]) {
        mem.write_u32_slice(base, indices);
    }

    #[test]
    fn gather_matches_direct_copy() {
        let mut mem = table(64);
        write_indices(&mut mem, 4096, &[10, 3, 55, 0, 7]);
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 4096,
            output_base: 8192,
            count: 5,
            vec_blocks: VB,
        };
        let summary = execute_on_node(&g, &mut mem, 4).unwrap();
        for (i, &idx) in [10u64, 3, 55, 0, 7].iter().enumerate() {
            for b in 0..VB {
                assert_eq!(
                    mem.read_f32(8192 + i as u64 * VB + b),
                    mem.read_f32(idx * VB + b),
                    "embedding {i} block {b}"
                );
            }
        }
        // Each of 4 DIMMs reads the 1-block index list; 5 embeddings x 8
        // blocks move once in total.
        assert_eq!(summary.blocks_written, 5 * VB);
        assert_eq!(summary.blocks_read, 5 * VB + 4);
    }

    #[test]
    fn reduce_all_ops_match_scalar_math() {
        for op in ReduceOp::all() {
            let mut mem = table(4);
            let r = Instruction::Reduce {
                input1: 0,
                input2: VB,
                output_base: 1024,
                count: VB,
                op,
            };
            execute_on_node(&r, &mut mem, 4).unwrap();
            for b in 0..VB {
                let a = mem.read_f32(b)[0];
                let c = mem.read_f32(VB + b)[0];
                let got = mem.read_f32(1024 + b)[0];
                let want = match op {
                    ReduceOp::Add => a + c,
                    ReduceOp::Sub => a - c,
                    ReduceOp::Mul => a * c,
                    ReduceOp::Min => a.min(c),
                    ReduceOp::Max => a.max(c),
                };
                assert_eq!(got, want, "{op} block {b}");
            }
        }
    }

    #[test]
    fn average_pools_groups() {
        let mut mem = table(8); // embeddings 0..8 with value == row
        let a = Instruction::Average {
            input_base: 0,
            output_base: 2048,
            count: 2,
            group: 4,
            vec_blocks: VB,
        };
        execute_on_node(&a, &mut mem, 4).unwrap();
        // Output 0 averages rows 0..4 -> 1.5 + block offset; output 1
        // averages rows 4..8 -> 5.5 + block offset.
        for b in 0..VB {
            let off = b as f32 / 100.0;
            assert!((mem.read_f32(2048 + b)[0] - (1.5 + off)).abs() < 1e-6);
            assert!((mem.read_f32(2048 + VB + b)[0] - (5.5 + off)).abs() < 1e-6);
        }
    }

    #[test]
    fn dimm_slices_are_disjoint_and_complete() {
        // Execute slice-by-slice into one memory, and whole-node into
        // another; results must agree.
        let mut a = table(32);
        let mut b = a.clone();
        write_indices(&mut a, 4096, &[9, 1, 30]);
        write_indices(&mut b, 4096, &[9, 1, 30]);
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 4096,
            output_base: 8192,
            count: 3,
            vec_blocks: VB,
        };
        // node_dim = 8: execute tids in reverse order to prove independence.
        for tid in (0..8).rev() {
            execute_on_dimm(&g, &mut a, DimmContext::new(8, tid)).unwrap();
        }
        execute_on_node(&g, &mut b, 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn summary_matches_instruction_accounting() {
        let mut mem = table(64);
        write_indices(&mut mem, 4096, &[1; 16]);
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 4096,
            output_base: 8192,
            count: 16,
            vec_blocks: VB,
        };
        let s = execute_on_node(&g, &mut mem, 8).unwrap();
        // Node-level accounting reads the index list once per node in
        // Instruction::blocks_read, but each DIMM physically reads it.
        assert_eq!(s.blocks_written, g.blocks_written());
        assert_eq!(s.blocks_read, 16 * VB + 8);
    }

    #[test]
    fn out_of_range_index_fails() {
        let mut mem = VecMemory::new(64);
        write_indices(&mut mem, 8, &[1000]);
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 8,
            output_base: 16,
            count: 1,
            vec_blocks: 4,
        };
        assert!(matches!(
            execute_on_node(&g, &mut mem, 4),
            Err(IsaError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn invalid_tid_rejected() {
        let mut mem = VecMemory::new(64);
        let r = Instruction::Reduce {
            input1: 0,
            input2: 8,
            output_base: 16,
            count: 8,
            op: ReduceOp::Add,
        };
        assert!(execute_on_dimm(&r, &mut mem, DimmContext::new(4, 4)).is_err());
        assert!(execute_on_dimm(&r, &mut mem, DimmContext::new(0, 0)).is_err());
    }

    #[test]
    fn program_errors_carry_instruction_index() {
        let mut mem = VecMemory::new(1 << 12);
        write_indices(&mut mem, 1024, &[3, 1]);
        let ok = Instruction::Gather {
            table_base: 0,
            idx_base: 1024,
            output_base: 2048,
            count: 2,
            vec_blocks: VB,
        };
        let bad = Instruction::Reduce {
            input1: 0,
            input2: VB,
            output_base: 1 << 20, // past capacity via count misalignment
            count: 3,             // not a multiple of node_dim = 4
            op: ReduceOp::Add,
        };
        let program = [ok, bad, ok];
        let err = execute_program_on_dimm(&program, &mut mem, DimmContext::new(4, 0)).unwrap_err();
        assert_eq!(err.instruction_index(), Some(1));
        assert!(matches!(
            err.root_cause(),
            IsaError::Misaligned { what: "count", .. }
        ));
        // Double-wrapping keeps the innermost index.
        assert_eq!(err.clone().at(7).instruction_index(), Some(1));

        // A clean program merges every step's summary.
        let program = [ok, ok];
        let s = execute_program_on_dimm(&program, &mut mem, DimmContext::new(4, 0)).unwrap();
        let one = execute_on_dimm(&ok, &mut mem, DimmContext::new(4, 0)).unwrap();
        assert_eq!(s.blocks_written, 2 * one.blocks_written);
        assert!(
            execute_program_on_node(&program, &mut mem, 4).is_ok(),
            "node-level program execution"
        );
    }

    #[test]
    fn reduce_on_single_dimm_node() {
        // node_dim = 1 degenerates to a plain sequential loop.
        let mut mem = table(4);
        let r = Instruction::Reduce {
            input1: 0,
            input2: VB,
            output_base: 512,
            count: VB,
            op: ReduceOp::Add,
        };
        let s = execute_on_node(&r, &mut mem, 1).unwrap();
        assert_eq!(s.alu_ops, VB);
        assert_eq!(s.blocks_read, 2 * VB);
    }
}
