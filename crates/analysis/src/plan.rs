//! Static analysis of [`AccessPlan`]s: DRAM-level conflict estimates,
//! cycle lower bounds, and access-pattern lints.
//!
//! [`analyze_plan`] mirrors exactly what `tensordimm_nmp::NmpCore::run_plan`
//! does to a plan *before* timing begins — the NMP-local address lowering,
//! the hot-row cache's hit/miss stream, the set of requests that reach
//! DRAM — and then derives bounds no timing engine can undercut:
//!
//! * **bandwidth**: the busiest channel's data bus carries one burst per
//!   64-byte request, serialized;
//! * **activation**: a bank visiting `D` distinct rows issues at least `D`
//!   ACTs, consecutive ones `tRC` apart;
//! * **rank activation**: a rank's ACTs are paced by `tRRD_S` and the
//!   four-deep `tFAW` window;
//! * **SRAM port**: hot-row hits serialize on the SRAM read port at
//!   [`HotRowCacheConfig::PAPER_HIT_LATENCY_CYCLES`] each.
//!
//! The replay engine's measured cycles must dominate
//! [`CycleBounds::lower_bound`]; `NmpCore::run_plan` checks this in verify
//! mode and the `sweep_static_check` bench gates it across the Fig. 14
//! grid.

use std::collections::{BTreeMap, BTreeSet};

use tensordimm_cache::{HotRowCache, HotRowCacheConfig, HotRowStats};
use tensordimm_dram::DramConfig;
use tensordimm_isa::{AccessKind, AccessPlan, BlockAccess, DimmContext, IsaError};

use crate::AnalysisError;

/// The NMP-local lowering of a global 64-byte block address to a
/// DIMM-local byte address — the one lowering the gather replay
/// (`tensordimm_nmp::NmpCore::run_plan` and `replay_instruction`) and this
/// analyzer share.
///
/// A TensorISA instruction names tensors by *global* block addresses in
/// the TensorNode's pooled address space. The paper's rank-interleaved
/// mapping (Fig. 7) stripes global block `b` to DIMM `b % node_dim`, where
/// it lives at local block `b / node_dim`: the stripe one DIMM owns is
/// contiguous in its local DRAM, so every DIMM streams. Replicated data
/// outside the stripe (the GATHER index list, read by every DIMM) maps by
/// the same division, so one rule serves both. The result is wrapped into
/// `capacity_bytes`: the lowering is timing-faithful (stride and locality
/// preserved) rather than allocation-faithful; the functional data path
/// lives in the ISA executor.
///
/// # Example
///
/// ```
/// use tensordimm_analysis::lower_block_byte;
///
/// // Global block 64 lives on DIMM 64 % 32 == 0 at local block 2.
/// assert_eq!(lower_block_byte(64, 32, 1 << 30), 2 * 64);
/// // Consecutive blocks of one DIMM's stripe are consecutive locally.
/// assert_eq!(lower_block_byte(64 + 32, 32, 1 << 30), 3 * 64);
/// ```
pub fn lower_block_byte(block: u64, node_dim: u64, capacity_bytes: u64) -> u64 {
    (block / node_dim) * 64 % capacity_bytes
}

/// Static bank/rank pressure of a plan's DRAM-bound requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankConflicts {
    /// Banks (over all channels/ranks) touched at least once.
    pub banks_touched: u64,
    /// Minimum activations: distinct rows summed over banks.
    pub activations: u64,
    /// Distinct rows in the most row-conflicted single bank.
    pub max_rows_one_bank: u64,
    /// Requests that reach DRAM (reads not served by the hot-row cache,
    /// plus all writes).
    pub dram_accesses: u64,
}

/// The four cycle lower bounds; the binding one is their maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBounds {
    /// Busiest channel's data-bus occupancy: bursts × `burst_cycles`.
    pub bandwidth: u64,
    /// Worst single bank: `(D-1)·tRC + tRCD + burst` over `D` distinct
    /// rows.
    pub activation: u64,
    /// Worst rank: `A` activations paced by `max(⌊(A-1)/4⌋·tFAW,
    /// (A-1)·tRRD_S)`, plus `tRCD + burst` for the last one's data.
    pub rank_activation: u64,
    /// Hot-row hits serialized on the SRAM read port: `cached_writes ×
    /// PAPER_HIT_LATENCY_CYCLES`.
    pub sram_port: u64,
}

impl CycleBounds {
    /// The binding lower bound on replayed cycles.
    pub fn lower_bound(&self) -> u64 {
        self.bandwidth
            .max(self.activation)
            .max(self.rank_activation)
            .max(self.sram_port)
    }
}

/// Access-pattern lints over the raw (pre-lowering) block stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanLint {
    /// Reads of a block already read, with no intervening write to it —
    /// each is a candidate for caching or coalescing.
    RedundantReads {
        /// How many reads were redundant.
        count: u64,
        /// One offending block.
        example_block: u64,
    },
    /// Writes overwritten by a later write with no intervening read of the
    /// block: the first write was wasted traffic.
    DeadWrites {
        /// How many writes were dead.
        count: u64,
        /// One offending block.
        example_block: u64,
    },
}

/// Everything [`analyze_plan`] derives from one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// Reads that reach DRAM (hot-row hits excluded).
    pub dram_reads: u64,
    /// Writes that reach DRAM (always all of them — outputs drain to
    /// DRAM even when their operand came from SRAM).
    pub dram_writes: u64,
    /// The hot-row cache counters this plan would produce.
    pub hot_rows: HotRowStats,
    /// Writes whose operand is sourced from the hot-row SRAM.
    pub cached_writes: u64,
    /// DRAM-bound requests per channel.
    pub channel_bursts: Vec<u64>,
    /// Bank/rank pressure summary.
    pub conflicts: BankConflicts,
    /// The cycle lower bounds.
    pub bounds: CycleBounds,
    /// Access-pattern lints (empty when the stream is clean).
    pub lints: Vec<PlanLint>,
}

impl PlanAnalysis {
    /// Shorthand for [`CycleBounds::lower_bound`].
    pub fn lower_bound(&self) -> u64 {
        self.bounds.lower_bound()
    }
}

/// Analyze `plan` as DIMM `ctx.tid` of `ctx.node_dim` would replay it
/// against `dram`, with an optional hot-row cache in front of the gather
/// path.
///
/// The request stream derived here is exactly the one
/// `NmpCore::run_plan` hands to its `MemorySystem`: in verify mode the
/// core asserts its replayed `reads`/`writes` equal
/// [`PlanAnalysis::dram_reads`]/[`PlanAnalysis::dram_writes`] and its
/// cycles dominate [`PlanAnalysis::lower_bound`].
///
/// # Errors
///
/// * [`AnalysisError::Isa`] for an invalid context,
/// * [`AnalysisError::Dram`] for an invalid DRAM configuration.
pub fn analyze_plan(
    plan: &AccessPlan,
    ctx: DimmContext,
    dram: &DramConfig,
    hot_rows: HotRowCacheConfig,
) -> Result<PlanAnalysis, AnalysisError> {
    analyze_accesses(plan.accesses(), ctx, dram, hot_rows)
}

/// [`analyze_plan`] over a raw access stream — for callers that
/// concatenate or synthesize streams beyond what one instruction's
/// [`AccessPlan`] produces (e.g. multi-instruction programs, where the
/// dead-write lint becomes reachable).
///
/// # Errors
///
/// Same conditions as [`analyze_plan`].
pub fn analyze_accesses(
    accesses: &[BlockAccess],
    ctx: DimmContext,
    dram: &DramConfig,
    hot_rows: HotRowCacheConfig,
) -> Result<PlanAnalysis, AnalysisError> {
    if ctx.node_dim == 0 || ctx.tid >= ctx.node_dim {
        return Err(AnalysisError::Isa(IsaError::InvalidContext {
            node_dim: ctx.node_dim,
            tid: ctx.tid,
        }));
    }
    dram.validate()?;
    let mut cache = hot_rows.is_enabled().then(|| HotRowCache::new(hot_rows));
    let capacity = dram.capacity_bytes();

    let mut dram_reads = 0u64;
    let mut dram_writes = 0u64;
    let mut cached_writes = 0u64;
    let mut channel_bursts = vec![0u64; dram.geometry.channels];
    // (channel, rank, bank_group, bank) -> distinct rows touched.
    let mut bank_rows: BTreeMap<(usize, usize, usize, usize), BTreeSet<usize>> = BTreeMap::new();
    // Raw-block-stream lint state: last operation on each block.
    #[derive(Clone, Copy, PartialEq)]
    enum Last {
        Read,
        WrittenUnread,
        WrittenRead,
    }
    let mut last_op: BTreeMap<u64, Last> = BTreeMap::new();
    let mut redundant_reads = 0u64;
    let mut redundant_example = 0u64;
    let mut dead_writes = 0u64;
    let mut dead_example = 0u64;

    // Mirrors the cache consult in `run_plan`: looked up once per gathered
    // row on its first owned block; the hit state spans the row's whole
    // read/write sequence.
    let mut row_hit = false;
    for access in accesses {
        let mut to_dram = true;
        match access.kind {
            AccessKind::Read => {
                if let (Some(c), Some(row)) = (&mut cache, access.row) {
                    if row.first_block {
                        row_hit = c.access(row.row);
                    }
                    if row_hit {
                        c.credit_hit_blocks(1);
                        to_dram = false;
                    }
                }
                if to_dram {
                    dram_reads += 1;
                }
                match last_op.get(&access.block) {
                    Some(Last::Read) => {
                        redundant_reads += 1;
                        redundant_example = access.block;
                    }
                    Some(Last::WrittenUnread | Last::WrittenRead) => {
                        last_op.insert(access.block, Last::WrittenRead);
                    }
                    None => {
                        last_op.insert(access.block, Last::Read);
                    }
                }
            }
            AccessKind::Write => {
                dram_writes += 1;
                if row_hit {
                    cached_writes += 1;
                }
                if last_op.get(&access.block) == Some(&Last::WrittenUnread) {
                    dead_writes += 1;
                    dead_example = access.block;
                }
                last_op.insert(access.block, Last::WrittenUnread);
            }
        }
        if to_dram {
            let byte = lower_block_byte(access.block, ctx.node_dim, capacity);
            let decoded = dram.mapping.decode(byte, &dram.geometry)?;
            channel_bursts[decoded.channel] += 1;
            bank_rows
                .entry((
                    decoded.channel,
                    decoded.rank,
                    decoded.bank_group,
                    decoded.bank,
                ))
                .or_default()
                .insert(decoded.row);
        }
    }

    let t = &dram.timing;
    let burst = t.burst_cycles();
    let bandwidth = channel_bursts.iter().copied().max().unwrap_or(0) * burst;
    let mut activation = 0u64;
    let mut max_rows_one_bank = 0u64;
    let mut activations = 0u64;
    // (channel, rank) -> total minimum activations.
    let mut rank_acts: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (&(ch, rank, ..), rows) in &bank_rows {
        let d = rows.len() as u64;
        activations += d;
        max_rows_one_bank = max_rows_one_bank.max(d);
        activation = activation.max((d - 1) * t.trc() + t.trcd + burst);
        *rank_acts.entry((ch, rank)).or_default() += d;
    }
    let rank_activation = rank_acts
        .values()
        .map(|&a| {
            let paced = ((a - 1) / 4 * t.tfaw).max((a - 1) * t.trrd_s);
            paced + t.trcd + burst
        })
        .max()
        .unwrap_or(0);
    let sram_port = cached_writes * HotRowCacheConfig::PAPER_HIT_LATENCY_CYCLES;

    let mut lints = Vec::new();
    if redundant_reads > 0 {
        lints.push(PlanLint::RedundantReads {
            count: redundant_reads,
            example_block: redundant_example,
        });
    }
    if dead_writes > 0 {
        lints.push(PlanLint::DeadWrites {
            count: dead_writes,
            example_block: dead_example,
        });
    }

    Ok(PlanAnalysis {
        dram_reads,
        dram_writes,
        hot_rows: cache.map(|c| c.stats()).unwrap_or_default(),
        cached_writes,
        channel_bursts,
        conflicts: BankConflicts {
            banks_touched: bank_rows.len() as u64,
            activations,
            max_rows_one_bank,
            dram_accesses: dram_reads + dram_writes,
        },
        bounds: CycleBounds {
            bandwidth,
            activation,
            rank_activation,
            sram_port,
        },
        lints,
    })
}

/// Tail-line waste of a gather whose payload does not fill its padded
/// vector: the runtime pads `vec_blocks` up to a multiple of `node_dim`
/// so every DIMM owns an equal slice, and the last 64-byte line of the
/// payload itself may be partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailWaste {
    /// Useful bytes per gathered vector.
    pub payload_bytes: u64,
    /// 64-byte blocks the payload spans.
    pub vec_blocks: u64,
    /// Blocks after padding to a `node_dim` multiple.
    pub padded_vec_blocks: u64,
    /// Bytes moved but never used, per vector.
    pub waste_bytes_per_vector: u64,
}

impl TailWaste {
    /// Fraction of moved bytes that are waste (0 when nothing moves).
    pub fn waste_fraction(&self) -> f64 {
        let moved = self.padded_vec_blocks * 64;
        if moved == 0 {
            0.0
        } else {
            self.waste_bytes_per_vector as f64 / moved as f64
        }
    }
}

/// Misalignment/tail-line waste for gathering `payload_bytes`-byte vectors
/// across `node_dim` DIMMs — the static form of the runtime's
/// `div_ceil(64)` + `div_ceil(node_dim) * node_dim` padding.
pub fn gather_tail_waste(payload_bytes: u64, node_dim: u64) -> TailWaste {
    let node_dim = node_dim.max(1);
    let vec_blocks = payload_bytes.div_ceil(64).max(1);
    let padded_vec_blocks = vec_blocks.div_ceil(node_dim) * node_dim;
    TailWaste {
        payload_bytes,
        vec_blocks,
        padded_vec_blocks,
        waste_bytes_per_vector: padded_vec_blocks * 64 - payload_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordimm_isa::{Instruction, ReduceOp};

    fn dram() -> DramConfig {
        DramConfig::ddr4_3200_channel()
    }

    fn gather_plan(indices: &[u64], vec_blocks: u64, ctx: DimmContext) -> AccessPlan {
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 22,
            output_base: 1 << 23,
            count: indices.len() as u64,
            vec_blocks,
        };
        AccessPlan::for_dimm(&g, ctx, Some(indices)).unwrap()
    }

    #[test]
    fn lowering_matches_both_map_branches() {
        // A block of DIMM tid's own stripe (blk % nd == tid) and a
        // replicated block from another stripe lower to the same local
        // offset: blk / nd in 64-byte units, whatever the residue.
        for nd in [1u64, 4, 32] {
            for q in [0u64, 1, 255] {
                for r in 0..nd {
                    assert_eq!(lower_block_byte(q * nd + r, nd, 1 << 30), q * 64);
                }
            }
        }
    }

    #[test]
    fn stripe_ownership() {
        // A block of DIMM tid's own stripe (blk % nd == tid) lowers to
        // blk / nd in 64-byte units: over 4 DIMMs, blocks 2 and 6 are
        // DIMM 2's first two local blocks.
        for (blk, nd) in [(35u64, 4u64), (32, 4), (0, 1), (1023, 32)] {
            assert_eq!(lower_block_byte(blk, nd, 1 << 30), blk / nd * 64);
        }
        assert_eq!(lower_block_byte(2, 4, 1 << 30), 0);
        assert_eq!(lower_block_byte(6, 4, 1 << 30), 64);
    }

    #[test]
    fn replicated_mapping_ignores_residue() {
        // Blocks 3 and 7 belong to DIMM 3's stripe, but a replicated read
        // of them on any DIMM lands at the same local bytes as its own
        // stripe's blocks 2 and 6.
        assert_eq!(lower_block_byte(3, 4, 1 << 30), 0);
        assert_eq!(lower_block_byte(7, 4, 1 << 30), 64);
        assert_eq!(
            lower_block_byte(3, 4, 1 << 30),
            lower_block_byte(2, 4, 1 << 30)
        );
    }

    #[test]
    fn lowering_wraps_capacity() {
        assert_eq!(lower_block_byte(1 << 40, 1, 1 << 20), 0);
        let r = Instruction::Reduce {
            input1: 1 << 40,
            input2: 0,
            output_base: 64,
            count: 1,
            op: ReduceOp::Add,
        };
        let ctx = DimmContext::new(1, 0);
        let plan = AccessPlan::for_dimm(&r, ctx, None).unwrap();
        for a in plan.accesses() {
            assert!(lower_block_byte(a.block, ctx.node_dim, 1 << 20) < 1 << 20);
        }
    }

    #[test]
    fn consecutive_owned_blocks_become_sequential_locally() {
        // The heart of the bandwidth-scaling claim: the stripe owned by one
        // DIMM is *contiguous* in its local DRAM, so every DIMM streams.
        let mut prev = None;
        for i in 0..100u64 {
            let local = lower_block_byte(5 + 32 * i, 32, 1 << 30);
            if let Some(p) = prev {
                assert_eq!(local, p + 64);
            }
            prev = Some(local);
        }
    }

    #[test]
    fn reduce_plan_lowers_each_operand_stripe() {
        let r = Instruction::Reduce {
            input1: 0,
            input2: 1024,
            output_base: 2048,
            count: 64,
            op: ReduceOp::Add,
        };
        let ctx = DimmContext::new(4, 1);
        let plan = AccessPlan::for_dimm(&r, ctx, None).unwrap();
        let local: Vec<u64> = plan
            .accesses()
            .iter()
            .map(|a| lower_block_byte(a.block, ctx.node_dim, 1 << 30))
            .collect();
        // First read: global block 1 -> local block 0.
        assert_eq!(local[0], 0);
        // Second read: global block 1024 + 1 -> local block 256.
        assert_eq!(local[1], 256 * 64);
        // Its write: global block 2048 + 1 -> local block 512.
        assert_eq!(local[2], 512 * 64);
    }

    #[test]
    fn uncached_counts_match_plan() {
        let ctx = DimmContext::new(4, 1);
        let plan = gather_plan(&[3, 7, 3, 9], 8, ctx);
        let a = analyze_plan(&plan, ctx, &dram(), HotRowCacheConfig::disabled()).unwrap();
        assert_eq!(a.dram_reads, plan.reads());
        assert_eq!(a.dram_writes, plan.writes());
        assert_eq!(a.cached_writes, 0);
        assert_eq!(a.hot_rows, HotRowStats::default());
        assert_eq!(a.bounds.sram_port, 0);
        assert_eq!(
            a.channel_bursts.iter().sum::<u64>(),
            a.dram_reads + a.dram_writes
        );
        assert_eq!(a.conflicts.dram_accesses, a.dram_reads + a.dram_writes);
        assert!(a.lower_bound() >= a.bounds.bandwidth);
    }

    #[test]
    fn cache_mirroring_skips_hit_reads_not_writes() {
        let ctx = DimmContext::new(4, 0);
        // Row 3 revisited twice: 2 hits x 2 owned blocks each.
        let plan = gather_plan(&[3, 3, 3, 9], 8, ctx);
        let cold = analyze_plan(&plan, ctx, &dram(), HotRowCacheConfig::disabled()).unwrap();
        let warm =
            analyze_plan(&plan, ctx, &dram(), HotRowCacheConfig::fully_associative(4)).unwrap();
        assert_eq!(warm.hot_rows.hits, 2);
        assert_eq!(warm.hot_rows.misses, 2);
        assert_eq!(warm.hot_rows.hit_blocks, 2 * 2);
        assert_eq!(warm.dram_reads, cold.dram_reads - warm.hot_rows.hit_blocks);
        assert_eq!(warm.dram_writes, cold.dram_writes);
        assert_eq!(warm.cached_writes, warm.hot_rows.hit_blocks);
        assert_eq!(
            warm.bounds.sram_port,
            warm.cached_writes * HotRowCacheConfig::PAPER_HIT_LATENCY_CYCLES
        );
    }

    #[test]
    fn redundant_reads_flagged() {
        let ctx = DimmContext::new(1, 0);
        // The same row gathered twice re-reads its blocks with no writes
        // to them in between.
        let plan = gather_plan(&[5, 5], 4, ctx);
        let a = analyze_plan(&plan, ctx, &dram(), HotRowCacheConfig::disabled()).unwrap();
        assert!(
            a.lints
                .iter()
                .any(|l| matches!(l, PlanLint::RedundantReads { count: 4, .. })),
            "{:?}",
            a.lints
        );
    }

    #[test]
    fn dead_writes_flagged_across_instructions() {
        // One instruction never rewrites a block, so dead writes only
        // appear on concatenated streams — two REDUCEs sharing an output
        // window kill every write of the first.
        let ctx = DimmContext::new(4, 0);
        let r = Instruction::Reduce {
            input1: 0,
            input2: 64,
            output_base: 128,
            count: 32,
            op: ReduceOp::Add,
        };
        let once = AccessPlan::for_dimm(&r, ctx, None).unwrap();
        let mut twice: Vec<BlockAccess> = once.accesses().to_vec();
        twice.extend_from_slice(once.accesses());
        let a = analyze_accesses(&twice, ctx, &dram(), HotRowCacheConfig::disabled()).unwrap();
        assert!(
            a.lints
                .iter()
                .any(|l| matches!(l, PlanLint::DeadWrites { count: 8, .. })),
            "{:?}",
            a.lints
        );
        // A single instruction's stream stays clean.
        let single =
            analyze_accesses(once.accesses(), ctx, &dram(), HotRowCacheConfig::disabled()).unwrap();
        assert!(!single
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::DeadWrites { .. })));
    }

    #[test]
    fn activation_bound_grows_with_distinct_rows() {
        let ctx = DimmContext::new(1, 0);
        // Row-sized strides land in few banks but many DRAM rows.
        let near: Vec<u64> = (0..8).collect();
        let far: Vec<u64> = (0..8).map(|i| i * 4096).collect();
        let a_near = analyze_plan(
            &gather_plan(&near, 4, ctx),
            ctx,
            &dram(),
            HotRowCacheConfig::disabled(),
        )
        .unwrap();
        let a_far = analyze_plan(
            &gather_plan(&far, 4, ctx),
            ctx,
            &dram(),
            HotRowCacheConfig::disabled(),
        )
        .unwrap();
        assert!(a_far.conflicts.activations > a_near.conflicts.activations);
        assert!(a_far.bounds.rank_activation >= a_near.bounds.rank_activation);
        assert_eq!(a_near.bounds.bandwidth, a_far.bounds.bandwidth);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let ctx = DimmContext::new(4, 0);
        let plan = gather_plan(&[1], 4, ctx);
        assert!(matches!(
            analyze_plan(
                &plan,
                DimmContext::new(0, 0),
                &dram(),
                HotRowCacheConfig::disabled()
            ),
            Err(AnalysisError::Isa(_))
        ));
        let mut bad = dram();
        bad.geometry.channels = 0;
        assert!(matches!(
            analyze_plan(&plan, ctx, &bad, HotRowCacheConfig::disabled()),
            Err(AnalysisError::Dram(_))
        ));
    }

    #[test]
    fn tail_waste_accounting() {
        // 100-byte payload on 4 DIMMs: 2 blocks, padded to 4.
        let w = gather_tail_waste(100, 4);
        assert_eq!(w.vec_blocks, 2);
        assert_eq!(w.padded_vec_blocks, 4);
        assert_eq!(w.waste_bytes_per_vector, 4 * 64 - 100);
        assert!(w.waste_fraction() > 0.0 && w.waste_fraction() < 1.0);
        // Exact fit: no waste.
        let e = gather_tail_waste(256, 4);
        assert_eq!(e.waste_bytes_per_vector, 0);
        assert_eq!(e.waste_fraction(), 0.0);
    }
}
