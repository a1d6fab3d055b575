//! Property-based contracts between the static analyzer and the runtime:
//!
//! * `analyze_program` agrees with `execute_on_dimm` over random
//!   multi-step programs — accepted programs execute cleanly with the
//!   exact predicted traffic; determinately rejected programs fail (an
//!   `Err` or a memory-model panic) at exactly the flagged instruction;
//! * `analyze_plan`'s physical cycle lower bound never exceeds the cycles
//!   `NmpCore::run_plan` replays, across random gathers, hot-row cache
//!   capacities and refresh settings — and verify mode is bit-identical off.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use tensordimm::analysis::{analyze_plan, analyze_program, ProgramStep};
use tensordimm::cache::HotRowCacheConfig;
use tensordimm::isa::{
    execute_on_dimm, AccessPlan, DimmContext, ExecSummary, Instruction, ReduceOp, VecMemory,
};
use tensordimm::nmp::{NmpConfig, NmpCore};

/// Memory size (in 64-byte blocks) the agreement programs run against:
/// small enough that random operands regularly fall out of bounds.
const POOL_BLOCKS: u64 = 4096;

fn arb_ctx() -> impl Strategy<Value = DimmContext> {
    (1u64..5, 0u64..4).prop_map(|(nd, tid)| DimmContext::new(nd, tid % nd))
}

/// One program step: an instruction plus (for GATHER) its runtime index
/// list. Operand ranges straddle `POOL_BLOCKS` and the `node_dim`
/// alignment rules, so programs mix clean runs, validation rejections and
/// out-of-bounds faults.
fn arb_step() -> impl Strategy<Value = (Instruction, Option<Vec<u64>>)> {
    let gather = (
        0u64..6000,
        0u64..6000,
        0u64..6000,
        1u64..48,
        1u64..12,
        proptest::collection::vec(0u64..1500, 0..48),
    )
        .prop_map(
            |(table_base, idx_base, output_base, count, vec_blocks, idx)| {
                (
                    Instruction::Gather {
                        table_base,
                        idx_base,
                        output_base,
                        count,
                        vec_blocks,
                    },
                    Some(idx),
                )
            },
        );
    let reduce = (0u64..6000, 0u64..6000, 0u64..6000, 1u64..256).prop_map(
        |(input1, input2, output_base, count)| {
            (
                Instruction::Reduce {
                    input1,
                    input2,
                    output_base,
                    count,
                    op: ReduceOp::Add,
                },
                None,
            )
        },
    );
    let average = (0u64..6000, 0u64..6000, 1u64..16, 1u64..6, 1u64..12).prop_map(
        |(input_base, output_base, count, group, vec_blocks)| {
            (
                Instruction::Average {
                    input_base,
                    output_base,
                    count,
                    group,
                    vec_blocks,
                },
                None,
            )
        },
    );
    prop_oneof![gather, reduce, average]
}

/// Execute a program step-by-step on a zero-initialized memory,
/// pre-staging each GATHER's index list exactly as the analyzer models it
/// (entries past the provided list are zero). Returns the merged summary,
/// or the index of the first step that fails — by `Err` or by
/// memory-model panic, the two runtime faulting modes.
fn run_program(
    prog: &[(Instruction, Option<Vec<u64>>)],
    ctx: DimmContext,
    blocks: u64,
) -> Result<ExecSummary, usize> {
    let mut mem = VecMemory::new(blocks);
    let mut total = ExecSummary::default();
    for (i, (instr, indices)) in prog.iter().enumerate() {
        if let (
            Instruction::Gather {
                idx_base, count, ..
            },
            Some(idx),
        ) = (instr, indices)
        {
            // Stage every index block the executor will read, padding the
            // list with zeros (the analyzer's unwrap_or(0) convention).
            let lookups = *count as usize;
            let mut vals = vec![0u32; count.div_ceil(16) as usize * 16];
            for (j, &v) in idx.iter().take(lookups).enumerate() {
                vals[j] = v as u32;
            }
            for (j, chunk) in vals.chunks(16).enumerate() {
                let blk = idx_base + j as u64;
                if blk < blocks {
                    let mut lanes = [0u32; 16];
                    lanes[..chunk.len()].copy_from_slice(chunk);
                    mem.write_u32_slice(blk, &lanes);
                }
            }
        }
        match catch_unwind(AssertUnwindSafe(|| execute_on_dimm(instr, &mut mem, ctx))) {
            Ok(Ok(summary)) => total.merge(&summary),
            Ok(Err(_)) | Err(_) => return Err(i),
        }
    }
    Ok(total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The agreement contract: accepted ⇒ the executor succeeds with the
    /// exact predicted traffic; determinately rejected ⇒ the executor
    /// fails at exactly the flagged instruction. (Indeterminate programs
    /// — a prior write clobbered an index list — make no runtime claim.)
    #[test]
    fn analyzer_agrees_with_executor(
        ctx in arb_ctx(),
        prog in proptest::collection::vec(arb_step(), 1..4),
    ) {
        let steps: Vec<ProgramStep<'_>> = prog
            .iter()
            .map(|(instr, idx)| match idx {
                Some(v) => ProgramStep::with_indices(*instr, v),
                None => ProgramStep::new(*instr),
            })
            .collect();
        let report = analyze_program(&steps, ctx, POOL_BLOCKS);
        prop_assume!(!report.indeterminate());
        let outcome = run_program(&prog, ctx, POOL_BLOCKS);
        match report.first_error() {
            None => {
                prop_assert_eq!(outcome, Ok(report.summary), "accepted program failed");
            }
            Some(d) => {
                prop_assert_eq!(
                    outcome.err(),
                    Some(d.instr_index),
                    "rejection {} did not match the runtime fault site",
                    d
                );
            }
        }
    }

    /// The cycle bound contract on random gather plans: the analyzer's
    /// physical lower bound never exceeds the replayed cycles, its DRAM
    /// traffic prediction is exact (verify mode asserts both internally),
    /// and turning verify mode off is bit-identical.
    #[test]
    fn lower_bound_dominated_by_replay(
        nd_tid in (2u64..9, 0u64..8),
        count in 1u64..96,
        vb_stripes in 1u64..3,
        rows in 1u64..64,
        cache_rows in prop_oneof![Just(0u64), Just(4u64), Just(16u64)],
        refresh_sel in 0u32..2,
        idx_seed in 0u64..u64::MAX,
    ) {
        let (nd, tid_sel) = nd_tid;
        let refresh = refresh_sel == 1;
        let ctx = DimmContext::new(nd, tid_sel % nd);
        let vb = nd * vb_stripes;
        // Distinct stripe-aligned operand regions, as the node allocates.
        let region = (rows.max(count) + 1) * vb;
        let instr = Instruction::Gather {
            table_base: 0,
            idx_base: 3 * region,
            output_base: region,
            count,
            vec_blocks: vb,
        };
        // Cheap deterministic index stream over the table's rows.
        let indices: Vec<u64> = (0..count)
            .map(|i| (idx_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i * 0x1f3) ) % rows)
            .collect();

        let mut cfg = NmpConfig::paper();
        cfg.dram.refresh_enabled = refresh;
        if cache_rows > 0 {
            cfg.hot_rows = HotRowCacheConfig::fully_associative(cache_rows);
        }
        let mut plain = NmpCore::new(cfg.clone()).expect("valid config");
        cfg.verify = true;
        let mut checked = NmpCore::new(cfg.clone()).expect("valid config");

        let a = plain
            .run_instruction(&instr, ctx, Some(&indices))
            .expect("replay succeeds");
        // Verify mode re-checks DRAM counts and the bound internally; a
        // `NmpError::Verify` here is the contract breaking.
        let b = checked
            .run_instruction(&instr, ctx, Some(&indices))
            .expect("verify mode accepts the replay");
        prop_assert_eq!(&a, &b, "verify mode must be bit-identical");

        let plan = AccessPlan::for_dimm(&instr, ctx, Some(&indices)).expect("valid plan");
        let analysis = analyze_plan(&plan, ctx, &cfg.dram, cfg.hot_rows).expect("valid inputs");
        prop_assert_eq!(analysis.dram_reads, a.reads);
        prop_assert_eq!(analysis.dram_writes, a.writes);
        prop_assert!(
            analysis.lower_bound() <= a.cycles,
            "lower bound {} exceeds replayed {}",
            analysis.lower_bound(),
            a.cycles
        );
    }
}
