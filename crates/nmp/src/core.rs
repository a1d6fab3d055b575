//! The NMP core pipeline simulation.
//!
//! Models the life of one TensorISA instruction on one TensorDIMM:
//!
//! 1. the NMP-local memory controller issues the instruction's DRAM reads
//!    in order while the input SRAM queues have space,
//! 2. completed reads feed the vector ALU at its 150 MHz clock,
//! 3. results drain through the output queue back to DRAM as writes.
//!
//! The memory side is the cycle-level simulator of [`tensordimm_dram`];
//! the ALU and queues are the models in [`crate::alu`] and [`crate::queue`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tensordimm_cache::{HotRowCache, HotRowStats};
use tensordimm_dram::{MemoryStats, MemorySystem, Request, RequestKind};
use tensordimm_isa::{AccessKind, AccessPlan, DimmContext, Instruction};

use crate::alu::VectorAlu;
use crate::mem_ctrl::LocalAddressMap;
use crate::{NmpConfig, NmpError};

/// Outcome of running one instruction slice on one DIMM.
#[derive(Debug, Clone, PartialEq)]
pub struct NmpRunStats {
    /// DRAM-clock cycles from issue to drain.
    pub cycles: u64,
    /// Local-memory statistics.
    pub memory: MemoryStats,
    /// Blocks read from local DRAM.
    pub reads: u64,
    /// Blocks written to local DRAM.
    pub writes: u64,
    /// Vector-ALU operations performed.
    pub alu_ops: u64,
    /// Cycles the read stream stalled on a full input queue.
    pub input_stall_cycles: u64,
    /// Cycles the write stream stalled waiting for operands or the ALU.
    pub output_wait_cycles: u64,
    /// Hot-row cache counters (all zero when the cache is disabled).
    pub hot_rows: HotRowStats,
    /// Banks the local controller's scheduler visited over the run (a
    /// deterministic measure of simulator work, not a modeled quantity;
    /// see [`MemorySystem::banks_examined`]).
    pub banks_examined: u64,
}

impl NmpRunStats {
    /// Elapsed time in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.cycles as f64 * self.memory.timing.ns_per_cycle()
    }

    /// Achieved local bandwidth in GB/s (blocks moved over elapsed time).
    pub fn achieved_gbps(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.reads + self.writes) as f64 * 64.0 / self.elapsed_ns()
    }

    /// Delivered gather bandwidth in GB/s: DRAM traffic *plus* the blocks
    /// the hot-row cache served from SRAM. This is what the gather
    /// consumer observes; it equals [`NmpRunStats::achieved_gbps`]
    /// bit-for-bit when the cache is disabled or never hits.
    pub fn delivered_gbps(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.reads + self.writes + self.hot_rows.hit_blocks) as f64 * 64.0 / self.elapsed_ns()
    }

    /// Achieved / peak local bandwidth.
    pub fn utilization(&self) -> f64 {
        let peak = self.memory.peak_gbps();
        if peak == 0.0 {
            0.0
        } else {
            self.achieved_gbps() / peak
        }
    }
}

/// One TensorDIMM's NMP core: local DRAM + queues + vector ALU.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct NmpCore {
    config: NmpConfig,
}

impl NmpCore {
    /// Build a core, validating its configuration.
    ///
    /// # Errors
    ///
    /// Returns what [`NmpConfig::validate`] finds.
    pub fn new(config: NmpConfig) -> Result<Self, NmpError> {
        config.validate()?;
        Ok(NmpCore { config })
    }

    /// The core's configuration.
    pub fn config(&self) -> &NmpConfig {
        &self.config
    }

    /// Execute `ctx.tid`'s slice of `instr` and report timing statistics.
    ///
    /// `indices` carries the runtime index values for GATHER (ignored for
    /// the other opcodes). The simulation is timing-only; pair it with
    /// [`tensordimm_isa::execute_on_dimm`] for the functional result.
    ///
    /// # Errors
    ///
    /// Propagates instruction-validation and DRAM-configuration errors.
    pub fn run_instruction(
        &mut self,
        instr: &Instruction,
        ctx: DimmContext,
        indices: Option<&[u64]>,
    ) -> Result<NmpRunStats, NmpError> {
        let plan = AccessPlan::for_dimm(instr, ctx, indices)?;
        self.run_plan(instr, &plan, ctx)
    }

    /// Replay `ctx.tid`'s slice of `instr` through the local DRAM without
    /// modeling the SRAM queues or the vector ALU — the methodology of the
    /// paper's cycle-level evaluation (Section 5), which feeds op traces
    /// into Ramulator and measures pure DRAM bandwidth utilization.
    ///
    /// Use [`NmpCore::run_instruction`] for the full pipeline model; use
    /// this for apples-to-apples reproduction of Figs. 11–12.
    ///
    /// # Errors
    ///
    /// Propagates instruction-validation and DRAM-configuration errors.
    pub fn replay_instruction(
        &mut self,
        instr: &Instruction,
        ctx: DimmContext,
        indices: Option<&[u64]>,
    ) -> Result<NmpRunStats, NmpError> {
        let plan = AccessPlan::for_dimm(instr, ctx, indices)?;
        let map = LocalAddressMap::new(ctx.node_dim, ctx.tid);
        let memory = MemorySystem::new(self.config.dram.clone())?;
        let trace = map.lower_plan(&plan, self.config.dram.capacity_bytes());
        let mut runner = tensordimm_dram::TraceRunner::new(memory);
        let stats = runner.run(&trace)?;
        Ok(NmpRunStats {
            cycles: stats.totals.cycles,
            reads: stats.totals.reads,
            writes: stats.totals.writes,
            alu_ops: 0,
            input_stall_cycles: 0,
            output_wait_cycles: 0,
            hot_rows: HotRowStats::default(),
            banks_examined: runner.memory_mut().banks_examined(),
            memory: stats,
        })
    }

    /// Execute a pre-computed access plan (used by the node-level runtime,
    /// which shares one plan across symmetric DIMMs).
    ///
    /// # Errors
    ///
    /// Returns [`NmpError::Dram`] if the local memory cannot be constructed.
    pub fn run_plan(
        &mut self,
        instr: &Instruction,
        plan: &AccessPlan,
        ctx: DimmContext,
    ) -> Result<NmpRunStats, NmpError> {
        let map = LocalAddressMap::new(ctx.node_dim, ctx.tid);
        let mut memory = MemorySystem::new(self.config.dram.clone())?;
        let capacity = self.config.dram.capacity_bytes();
        let mut alu = VectorAlu::new(self.config.alu_clock_mhz, self.config.dram.timing.clock_mhz);
        let alu_ops_per_write: u64 = match instr {
            Instruction::Gather { .. } => 0, // forwarded input -> output
            Instruction::Reduce { .. } => 1,
            Instruction::Average { group, .. } => group + 1,
        };

        // The optional hot-row SRAM tier: consulted once per gathered row
        // (on its first owned block); a hit drops the row's DRAM reads
        // from the stream entirely and sources its writes from SRAM.
        let mut cache = if self.config.hot_rows.is_enabled() {
            Some(HotRowCache::new(self.config.hot_rows)?)
        } else {
            None
        };

        // Split the plan into an ordered read stream and an ordered write
        // stream; each write records how many reads precede it (its operand
        // dependences are a subset of that prefix) and whether its operand
        // comes from the hot-row cache instead of DRAM.
        let mut reads: Vec<u64> = Vec::with_capacity(plan.len());
        // (local addr, required reads, operand from cache)
        let mut writes: Vec<(u64, u64, bool)> = Vec::new();
        // Whether the gather row currently being streamed hit the cache
        // (spans the row's whole read/write block sequence; non-gather
        // accesses carry no row tag and never set it).
        let mut row_hit = false;
        for access in plan {
            let local = map
                .local_byte_addr(access.block)
                .unwrap_or_else(|| map.replicated_byte_addr(access.block))
                % capacity;
            match access.kind {
                AccessKind::Read => {
                    match (&mut cache, access.row) {
                        (Some(c), Some(row)) => {
                            if row.first_block {
                                row_hit = c.access(row.row);
                            }
                            if row_hit {
                                c.credit_hit_blocks(1);
                            } else {
                                reads.push(local);
                            }
                        }
                        _ => reads.push(local),
                    };
                }
                AccessKind::Write => {
                    // `row_hit` is only ever set while a gather row that
                    // hit the cache is being streamed, and each gather
                    // write directly follows its row's read slot.
                    writes.push((local, reads.len() as u64, row_hit));
                }
            }
        }

        let input_capacity = 2 * self.config.input_queue_entries(); // A and B
        let output_capacity = self.config.output_queue_entries();

        let mut read_pos = 0usize;
        let mut write_pos = 0usize;
        let mut reads_retired: u64 = 0;
        let mut read_done_times: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut pending_write_ready: Option<f64> = None;
        // The SRAM read port serializes hit-row streaming: each cached
        // block becomes available `hit_latency_cycles` after the port
        // frees up.
        let mut sram_free_at = 0.0f64;
        let hit_latency = self.config.hot_rows.hit_latency_cycles as f64;
        let mut input_stall_cycles = 0u64;
        let mut output_wait_cycles = 0u64;
        // Reused across drains so the hot loop never allocates per cycle.
        let mut drained: Vec<tensordimm_dram::request::Completion> = Vec::new();
        // The output (C) queue drains into the controller's write queue: a
        // result occupies SRAM only until the controller accepts it (posted
        // write), so back-pressure comes from the controller's queue depth
        // via `push` returning false. The SRAM capacity itself bounds how
        // far the ALU may run ahead of controller acceptance — with the
        // one-write-per-ALU-op issue discipline below, that window is the
        // single `pending_write_ready` slot plus `output_capacity` entries
        // already handed over, which the controller depth dominates.
        let _ = output_capacity;

        // Event-driven co-simulation: each iteration replays exactly one
        // cycle's worth of the original tick-stepped pipeline, but when an
        // iteration makes no progress the loop jumps straight to the next
        // cycle anything can change — a DRAM event, a read retirement, or
        // the ALU finishing — crediting the stall counters for the skipped
        // span. All gating state (SRAM occupancy, operand counts, ALU
        // readiness) is frozen between those instants, so the replay is
        // bit-identical to ticking through every cycle.
        while read_pos < reads.len() || write_pos < writes.len() || memory.is_busy() {
            let now = memory.cycle();

            // Retire finished reads (frees input SRAM-queue entries).
            while let Some(&Reverse(t)) = read_done_times.peek() {
                if t <= now {
                    read_done_times.pop();
                    reads_retired += 1;
                } else {
                    break;
                }
            }

            let mut progressed = false;
            let mut input_blocked = false;
            let mut output_blocked = false;

            // Issue the next read while the input queues have space.
            // Outstanding = issued to the controller but not yet retired.
            if read_pos < reads.len() {
                if read_pos as u64 - reads_retired < input_capacity as u64 {
                    let req = Request::read(reads[read_pos]).with_id(read_pos as u64);
                    if memory.push(req).expect("lowered addresses are in range") {
                        read_pos += 1;
                        progressed = true;
                    }
                } else {
                    input_stall_cycles += 1;
                    input_blocked = true;
                }
            }

            // Issue the next write once its operands arrived and the ALU
            // (if involved) has produced the result. Cache-sourced writes
            // wait on the SRAM read port instead of a DRAM read.
            if write_pos < writes.len() {
                let (addr, required, from_cache) = writes[write_pos];
                if reads_retired >= required {
                    let ready = *pending_write_ready.get_or_insert_with(|| {
                        if from_cache {
                            sram_free_at = sram_free_at.max(now as f64) + hit_latency;
                            sram_free_at
                        } else if alu_ops_per_write == 0 {
                            now as f64
                        } else {
                            alu.issue(now as f64, alu_ops_per_write)
                        }
                    });
                    if (now as f64) >= ready {
                        if memory
                            .push(Request::write(addr))
                            .expect("lowered addresses are in range")
                        {
                            write_pos += 1;
                            pending_write_ready = None;
                            progressed = true;
                        }
                    } else {
                        output_wait_cycles += 1;
                        output_blocked = true;
                    }
                } else {
                    output_wait_cycles += 1;
                    output_blocked = true;
                }
            }

            // Register newly issued read bursts' completion times.
            drained.clear();
            memory.drain_completions_into(&mut drained);
            for completion in &drained {
                if completion.request.kind == RequestKind::Read {
                    read_done_times.push(Reverse(completion.finished_at));
                }
            }

            if progressed {
                memory.advance_to(now + 1);
                continue;
            }

            // No stream moved this cycle: wake at the next instant anything
            // can — the memory's next event (command issuable, refresh,
            // burst completion), the next read retirement, or ALU
            // readiness.
            let mut wake = memory.next_event_cycle().unwrap_or(u64::MAX);
            if let Some(&Reverse(t)) = read_done_times.peek() {
                wake = wake.min(t);
            }
            if let Some(ready) = pending_write_ready {
                wake = wake.min(ready.ceil() as u64);
            }
            if wake == u64::MAX {
                // Nothing to wait for (cannot happen while the loop
                // condition holds, but never wedge): fall back to a tick.
                memory.tick();
                continue;
            }
            let target = wake.max(now + 1);
            // The skipped cycles [now + 1, target) repeat this iteration's
            // blocked state; credit the stall counters as the tick loop
            // would have.
            let span = target - now - 1;
            if span > 0 {
                if input_blocked {
                    input_stall_cycles += span;
                }
                if output_blocked {
                    output_wait_cycles += span;
                }
            }
            memory.advance_to(target);
        }

        let stats = memory.stats();
        let stats = NmpRunStats {
            cycles: memory.cycle(),
            reads: stats.totals.reads,
            writes: stats.totals.writes,
            alu_ops: alu.ops(),
            input_stall_cycles,
            output_wait_cycles,
            hot_rows: cache.map(|c| c.stats()).unwrap_or_default(),
            banks_examined: memory.banks_examined(),
            memory: stats,
        };
        if self.config.verify {
            self.verify_run(plan, ctx, &stats)?;
        }
        Ok(stats)
    }

    /// Cross-check a finished replay against the static analyzer: the
    /// DRAM request counts must match its prediction exactly and the
    /// cycle count must dominate the physical lower bound. Runs only in
    /// verify mode, after timing completes — the replay itself is
    /// untouched.
    fn verify_run(
        &self,
        plan: &AccessPlan,
        ctx: DimmContext,
        stats: &NmpRunStats,
    ) -> Result<(), NmpError> {
        let analysis = match tensordimm_analysis::analyze_plan(
            plan,
            ctx,
            &self.config.dram,
            self.config.hot_rows,
        ) {
            Ok(a) => a,
            Err(tensordimm_analysis::AnalysisError::Isa(e)) => return Err(NmpError::Isa(e)),
            Err(tensordimm_analysis::AnalysisError::Dram(e)) => return Err(NmpError::Dram(e)),
            Err(tensordimm_analysis::AnalysisError::Cache(e)) => return Err(NmpError::Cache(e)),
        };
        if analysis.dram_reads != stats.reads || analysis.dram_writes != stats.writes {
            return Err(NmpError::Verify(
                tensordimm_analysis::VerifyFailure::PlanMismatch {
                    expected_reads: analysis.dram_reads,
                    expected_writes: analysis.dram_writes,
                    actual_reads: stats.reads,
                    actual_writes: stats.writes,
                },
            ));
        }
        let lower_bound = analysis.lower_bound();
        if stats.cycles < lower_bound {
            return Err(NmpError::Verify(
                tensordimm_analysis::VerifyFailure::BoundExceeded {
                    lower_bound,
                    cycles: stats.cycles,
                },
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordimm_isa::ReduceOp;

    fn no_refresh() -> NmpConfig {
        let mut c = NmpConfig::paper();
        c.dram.refresh_enabled = false;
        c
    }

    fn reduce(count: u64) -> Instruction {
        Instruction::Reduce {
            input1: 0,
            input2: 1 << 20,
            output_base: 1 << 21,
            count,
            op: ReduceOp::Add,
        }
    }

    #[test]
    fn reduce_streams_near_local_peak() {
        let mut core = NmpCore::new(no_refresh()).unwrap();
        let stats = core
            .run_instruction(&reduce(32 * 1024), DimmContext::new(32, 0), None)
            .unwrap();
        // 2 reads + 1 write per op, all sequential locally: expect >70% of
        // the 25.6 GB/s local channel.
        assert!(
            stats.utilization() > 0.7,
            "utilization {:.3}",
            stats.utilization()
        );
        assert_eq!(stats.reads, 2 * 1024);
        assert_eq!(stats.writes, 1024);
        assert_eq!(stats.alu_ops, 1024);
    }

    #[test]
    fn gather_has_no_alu_ops() {
        let mut core = NmpCore::new(no_refresh()).unwrap();
        let indices: Vec<u64> = (0..256).map(|i| (i * 37) % 1024).collect();
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 22,
            output_base: 1 << 23,
            count: indices.len() as u64,
            vec_blocks: 32,
        };
        let stats = core
            .run_instruction(&g, DimmContext::new(32, 3), Some(&indices))
            .unwrap();
        assert_eq!(stats.alu_ops, 0);
        // One block per embedding on this DIMM plus index blocks.
        assert_eq!(stats.reads, 256 + 16);
        assert_eq!(stats.writes, 256);
    }

    #[test]
    fn average_alu_ops_scale_with_group() {
        let mut core = NmpCore::new(no_refresh()).unwrap();
        let a = Instruction::Average {
            input_base: 0,
            output_base: 1 << 22,
            count: 64,
            group: 8,
            vec_blocks: 32,
        };
        let stats = core
            .run_instruction(&a, DimmContext::new(32, 0), None)
            .unwrap();
        // 64 outputs x 1 owned block each x (8 accumulates + 1 scale).
        assert_eq!(stats.alu_ops, 64 * 9);
        assert_eq!(stats.reads, 64 * 8);
        assert_eq!(stats.writes, 64);
    }

    /// The tentpole behavior: a head-sized hot-row cache on a repetitive
    /// gather skips the hot rows' DRAM reads, finishes in fewer cycles,
    /// and reports the skipped traffic in `hot_rows` / `delivered_gbps`.
    #[test]
    fn hot_row_cache_skips_dram_and_shortens_gathers() {
        use tensordimm_cache::HotRowCacheConfig;
        // 256 lookups over only 16 distinct rows: a 16-row cache captures
        // every revisit.
        let indices: Vec<u64> = (0..256).map(|i| (i * 37) % 16).collect();
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 22,
            output_base: 1 << 23,
            count: indices.len() as u64,
            vec_blocks: 32,
        };
        let ctx = DimmContext::new(32, 3);
        let mut cold = NmpCore::new(no_refresh()).unwrap();
        let base = cold.run_instruction(&g, ctx, Some(&indices)).unwrap();
        assert_eq!(base.hot_rows, tensordimm_cache::HotRowStats::default());
        assert_eq!(base.delivered_gbps(), base.achieved_gbps());

        let mut cfg = no_refresh();
        cfg.hot_rows = HotRowCacheConfig::fully_associative(16);
        let mut warm = NmpCore::new(cfg).unwrap();
        let s = warm.run_instruction(&g, ctx, Some(&indices)).unwrap();
        assert_eq!(s.hot_rows.misses, 16, "one cold miss per distinct row");
        assert_eq!(s.hot_rows.hits, 256 - 16);
        assert_eq!(s.hot_rows.evictions, 0);
        // Each hit row owns one block on this DIMM (32 vec_blocks / 32).
        assert_eq!(s.hot_rows.hit_blocks, s.hot_rows.hits);
        assert_eq!(s.reads, base.reads - s.hot_rows.hit_blocks);
        assert_eq!(s.writes, base.writes, "outputs still drain to DRAM");
        assert!(
            s.cycles < base.cycles,
            "cached {} vs uncached {} cycles",
            s.cycles,
            base.cycles
        );
        assert!(s.delivered_gbps() > s.achieved_gbps());
        assert!(s.delivered_gbps() > base.delivered_gbps());
    }

    /// A zero-capacity cache must not perturb the pipeline at all — the
    /// whole stats struct (completions, stalls, DRAM totals) is
    /// byte-identical to a build with no cache plumbing exercised.
    #[test]
    fn disabled_cache_is_bit_identical() {
        use tensordimm_cache::HotRowCacheConfig;
        let indices: Vec<u64> = (0..256).map(|i| (i * 37) % 1024).collect();
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 22,
            output_base: 1 << 23,
            count: indices.len() as u64,
            vec_blocks: 32,
        };
        let ctx = DimmContext::new(32, 3);
        let mut plain = NmpCore::new(NmpConfig::paper()).unwrap();
        let mut zeroed_cfg = NmpConfig::paper();
        zeroed_cfg.hot_rows = HotRowCacheConfig {
            capacity_rows: 0,
            ways: 4,
            hit_latency_cycles: 77,
        };
        let mut zeroed = NmpCore::new(zeroed_cfg).unwrap();
        let a = plain.run_instruction(&g, ctx, Some(&indices)).unwrap();
        let b = zeroed.run_instruction(&g, ctx, Some(&indices)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_cache_geometry_is_rejected() {
        use tensordimm_cache::HotRowCacheConfig;
        let mut cfg = NmpConfig::paper();
        cfg.hot_rows = HotRowCacheConfig::set_associative(48, 4); // 12 sets
        assert!(matches!(NmpCore::new(cfg), Err(NmpError::Cache(_))));
    }

    /// Verify mode re-derives the replay's DRAM traffic and cycle lower
    /// bound statically; it must pass on every opcode and change nothing
    /// in the reported stats (the check runs after timing completes).
    #[test]
    fn verify_mode_is_bit_identical_and_passes() {
        let indices: Vec<u64> = (0..256).map(|i| (i * 37) % 1024).collect();
        let ctx = DimmContext::new(32, 3);
        let programs: Vec<(Instruction, Option<&[u64]>)> = vec![
            (
                Instruction::Gather {
                    table_base: 0,
                    idx_base: 1 << 22,
                    output_base: 1 << 23,
                    count: indices.len() as u64,
                    vec_blocks: 32,
                },
                Some(&indices),
            ),
            (reduce(32 * 1024), None),
            (
                Instruction::Average {
                    input_base: 0,
                    output_base: 1 << 22,
                    count: 64,
                    group: 8,
                    vec_blocks: 32,
                },
                None,
            ),
        ];
        for refresh in [false, true] {
            for (instr, idx) in &programs {
                let mut cfg = NmpConfig::paper();
                cfg.dram.refresh_enabled = refresh;
                let mut plain = NmpCore::new(cfg.clone()).unwrap();
                cfg.verify = true;
                let mut checked = NmpCore::new(cfg).unwrap();
                let a = plain.run_instruction(instr, ctx, *idx).unwrap();
                let b = checked.run_instruction(instr, ctx, *idx).unwrap();
                assert_eq!(a, b, "verify mode perturbed {instr:?}");
            }
        }
    }

    /// Verify mode also holds with the hot-row SRAM tier enabled — the
    /// analyzer mirrors the cache's hit/skip bookkeeping exactly.
    #[test]
    fn verify_mode_passes_with_hot_row_cache() {
        use tensordimm_cache::HotRowCacheConfig;
        let indices: Vec<u64> = (0..256).map(|i| (i * 37) % 16).collect();
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 22,
            output_base: 1 << 23,
            count: indices.len() as u64,
            vec_blocks: 32,
        };
        let mut cfg = NmpConfig::paper();
        cfg.hot_rows = HotRowCacheConfig::fully_associative(16);
        let mut plain = NmpCore::new(cfg.clone()).unwrap();
        cfg.verify = true;
        let mut checked = NmpCore::new(cfg).unwrap();
        let ctx = DimmContext::new(32, 3);
        let a = plain.run_instruction(&g, ctx, Some(&indices)).unwrap();
        let b = checked.run_instruction(&g, ctx, Some(&indices)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.hot_rows.hits, 256 - 16);
    }

    #[test]
    fn tiny_queues_hurt_bandwidth() {
        let mut fast = NmpCore::new(no_refresh()).unwrap();
        let mut slow_cfg = no_refresh();
        slow_cfg.input_queue_bytes = 64; // one entry
        slow_cfg.output_queue_bytes = 64;
        let mut slow = NmpCore::new(slow_cfg).unwrap();
        let instr = reduce(32 * 512);
        let ctx = DimmContext::new(32, 0);
        let f = fast.run_instruction(&instr, ctx, None).unwrap();
        let s = slow.run_instruction(&instr, ctx, None).unwrap();
        assert!(
            f.achieved_gbps() > s.achieved_gbps() * 1.3,
            "queue sizing had no effect: fast {:.2} vs slow {:.2}",
            f.achieved_gbps(),
            s.achieved_gbps()
        );
    }

    #[test]
    fn zero_entry_queue_rejected() {
        let mut cfg = NmpConfig::paper();
        cfg.input_queue_bytes = 32;
        assert!(matches!(
            NmpCore::new(cfg),
            Err(NmpError::QueueTooSmall { .. })
        ));
    }

    #[test]
    fn stats_unit_conversions() {
        let mut core = NmpCore::new(no_refresh()).unwrap();
        let stats = core
            .run_instruction(&reduce(32 * 64), DimmContext::new(32, 0), None)
            .unwrap();
        assert!(stats.elapsed_ns() > 0.0);
        assert!(stats.achieved_gbps() > 0.0);
        assert!(stats.utilization() <= 1.0);
    }
}

#[cfg(test)]
mod event_engine_pins {
    use super::*;
    use tensordimm_isa::ReduceOp;

    /// Exact counters captured from the tick-stepped pipeline before the
    /// event-driven rewrite. The rewrite must replay the pipeline
    /// bit-identically, so any drift here means the time-skipping logic
    /// overshot an event.
    #[test]
    fn run_plan_matches_tick_stepped_baseline() {
        let reduce = Instruction::Reduce {
            input1: 0,
            input2: 1 << 20,
            output_base: 1 << 21,
            count: 32 * 1024,
            op: ReduceOp::Add,
        };
        let indices: Vec<u64> = (0..256).map(|i| (i * 37) % 1024).collect();
        let gather = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 22,
            output_base: 1 << 23,
            count: indices.len() as u64,
            vec_blocks: 32,
        };

        // (instr, refresh, [cycles, in_stall, out_wait, busy, refreshes,
        //  activates, precharges, row_hits, row_misses, read_latency_sum])
        type PinCase<'a> = (&'a Instruction, Option<&'a [u64]>, bool, [u64; 10]);
        let cases: [PinCase; 3] = [
            (
                &reduce,
                None,
                true,
                [17644, 15330, 16486, 17625, 2, 1271, 1219, 1914, 94, 278763],
            ),
            (
                &reduce,
                None,
                false,
                [17052, 14747, 15917, 17033, 0, 1272, 1208, 1917, 77, 269572],
            ),
            (
                &gather,
                Some(&indices),
                true,
                [2383, 1885, 1982, 2364, 0, 216, 152, 325, 65, 35039],
            ),
        ];
        for (instr, idx, refresh, expect) in cases {
            let mut cfg = NmpConfig::paper();
            cfg.dram.refresh_enabled = refresh;
            let mut core = NmpCore::new(cfg).unwrap();
            let s = core
                .run_instruction(instr, DimmContext::new(32, 0), idx)
                .unwrap();
            let got = [
                s.cycles,
                s.input_stall_cycles,
                s.output_wait_cycles,
                s.memory.totals.busy_cycles,
                s.memory.totals.refreshes,
                s.memory.totals.activates,
                s.memory.totals.precharges,
                s.memory.totals.row_hits,
                s.memory.totals.row_misses,
                s.memory.totals.read_latency_sum,
            ];
            assert_eq!(got, expect, "drift vs tick-stepped baseline: {instr:?}");
        }
        pricer_replay_matches_linear_scan_baseline();
    }

    /// The cycle pricer's replay: its depth-256 trace-replay queues
    /// (`CyclePricerConfig::paper_defaults`) on the Facebook batch-32
    /// gather it lowers (`CyclePricerConfig::lowered_gather`, rebuilt here
    /// because this crate sits below the pricer). The tick and event paths
    /// share the scheduler, so only exact pins can see a scheduler change;
    /// these were captured before the per-bank scheduler replaced the
    /// linear queue scan, under FR-FCFS (the pricer's own setting), FCFS
    /// and closed page.
    ///
    /// The scheduler's work counter is pinned too, so a change that makes
    /// scheduling costlier shows here. For scale, the linear scan read
    /// 2 381 254, 45 102 and 2 595 878 queue entries on these replays.
    fn pricer_replay_matches_linear_scan_baseline() {
        use tensordimm_dram::{RowPolicy, SchedulerKind};

        let facebook = tensordimm_models::Workload::facebook();
        let dimms = 32;
        let vec_blocks = facebook.embedding_bytes().div_ceil(64).div_ceil(dimms) * dimms;
        let batch = 32u64;
        let lookups = (batch * facebook.lookups_per_sample()).min(2000);
        let rows = facebook.rows_per_table;
        let seed = 0xc1c1e ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rows;
        let indices = tensordimm_embedding::zipf_lookup_rows(lookups as usize, rows, 0.9, seed);
        let region = (rows.max(lookups) + 1) * vec_blocks;
        let gather = Instruction::Gather {
            table_base: 0,
            idx_base: 3 * region,
            output_base: region,
            count: lookups,
            vec_blocks,
        };

        // (scheduler, row policy, [cycles, in_stall, out_wait, busy,
        //  refreshes, activates, precharges, row_hits, row_misses,
        //  read_latency_sum], banks examined)
        let cases = [
            (
                SchedulerKind::FrFcfs,
                RowPolicy::OpenPage,
                [20215, 17346, 17586, 20196, 3, 2480, 2416, 1878, 104, 312128],
                379_926,
            ),
            (
                SchedulerKind::Fcfs,
                RowPolicy::OpenPage,
                [
                    111743, 106467, 108961, 111724, 32, 2309, 2245, 1827, 564, 1767101,
                ],
                18_528,
            ),
            (
                SchedulerKind::FrFcfs,
                RowPolicy::ClosedPage,
                [21464, 18395, 18728, 21445, 3, 4401, 4401, 0, 3858, 329056],
                494_712,
            ),
        ];
        for (scheduler, row_policy, expect, banks_examined) in cases {
            let mut cfg = NmpConfig::paper();
            cfg.dram.read_queue_depth = 256;
            cfg.dram.write_queue_depth = 256;
            cfg.dram.write_high_watermark = 192;
            cfg.dram.write_low_watermark = 64;
            cfg.dram.scheduler = scheduler;
            cfg.dram.row_policy = row_policy;
            let mut core = NmpCore::new(cfg).unwrap();
            let s = core
                .run_instruction(&gather, DimmContext::new(dimms, 0), Some(&indices))
                .unwrap();
            let got = [
                s.cycles,
                s.input_stall_cycles,
                s.output_wait_cycles,
                s.memory.totals.busy_cycles,
                s.memory.totals.refreshes,
                s.memory.totals.activates,
                s.memory.totals.precharges,
                s.memory.totals.row_hits,
                s.memory.totals.row_misses,
                s.memory.totals.read_latency_sum,
            ];
            assert_eq!(
                got, expect,
                "drift vs linear-scan baseline: {scheduler:?}, {row_policy:?}"
            );
            assert_eq!(
                s.banks_examined, banks_examined,
                "scheduler work moved: {scheduler:?}, {row_policy:?}"
            );
        }
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use tensordimm_isa::ReduceOp;

    #[test]
    fn tiny_queues_report_input_stalls() {
        let mut cfg = NmpConfig::paper();
        cfg.dram.refresh_enabled = false;
        cfg.input_queue_bytes = 64;
        let mut core = NmpCore::new(cfg).unwrap();
        let r = Instruction::Reduce {
            input1: 0,
            input2: 1 << 16,
            output_base: 1 << 17,
            count: 32 * 256,
            op: ReduceOp::Add,
        };
        let stats = core
            .run_instruction(&r, DimmContext::new(32, 0), None)
            .unwrap();
        assert!(
            stats.input_stall_cycles > stats.cycles / 10,
            "one-entry queues should stall the read stream: {} of {}",
            stats.input_stall_cycles,
            stats.cycles
        );
    }

    #[test]
    fn replay_reports_no_pipeline_stalls() {
        let mut core = NmpCore::new(NmpConfig::paper()).unwrap();
        let r = Instruction::Reduce {
            input1: 0,
            input2: 1 << 16,
            output_base: 1 << 17,
            count: 32 * 64,
            op: ReduceOp::Add,
        };
        let stats = core
            .replay_instruction(&r, DimmContext::new(32, 0), None)
            .unwrap();
        assert_eq!(stats.input_stall_cycles, 0);
        assert_eq!(stats.output_wait_cycles, 0);
        assert_eq!(stats.alu_ops, 0, "replay does not model the ALU");
        assert_eq!(stats.reads, 2 * 64);
        assert_eq!(stats.writes, 64);
    }

    #[test]
    fn slower_alu_lengthens_average_not_gather() {
        let gather_idx: Vec<u64> = (0..256).map(|i| i * 3 % 1024).collect();
        let gather = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 20,
            output_base: 1 << 21,
            count: 256,
            vec_blocks: 32,
        };
        let average = Instruction::Average {
            input_base: 0,
            output_base: 1 << 21,
            count: 64,
            group: 25,
            vec_blocks: 32,
        };
        let run = |mhz: u64, instr: &Instruction, idx: Option<&[u64]>| {
            let mut cfg = NmpConfig::paper();
            cfg.dram.refresh_enabled = false;
            cfg.alu_clock_mhz = mhz;
            NmpCore::new(cfg)
                .unwrap()
                .run_instruction(instr, DimmContext::new(32, 0), idx)
                .unwrap()
                .cycles
        };
        // GATHER bypasses the ALU entirely: clock is irrelevant.
        let g_slow = run(10, &gather, Some(&gather_idx));
        let g_fast = run(1600, &gather, Some(&gather_idx));
        assert_eq!(g_slow, g_fast);
        // AVERAGE funnels group+1 blocks per output through the ALU.
        let a_slow = run(75, &average, None);
        let a_fast = run(1600, &average, None);
        assert!(a_slow > 2 * a_fast, "slow {a_slow} vs fast {a_fast}");
    }
}
