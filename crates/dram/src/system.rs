//! Multi-channel memory system front end.
//!
//! Channels share no timing state, so the event-driven paths advance each
//! channel to the common clock in a plain per-channel loop on one thread.
//! A TensorDIMM's NMP core reads a single local channel, so the replays
//! the pricer runs have no cross-channel work to spread over threads.

use crate::config::DramConfig;
use crate::controller::MemoryController;
use crate::request::{Completion, Request};
use crate::stats::{ChannelStats, MemoryStats};
use crate::DramError;

/// A complete memory system: one controller per channel behind a shared
/// address-mapping front end.
///
/// This models either the baseline CPU memory (8 channels, channel
/// interleaving) or the DRAM local to a single TensorDIMM (1 channel, rank
/// interleaving), depending on the [`DramConfig`].
///
/// # Example
///
/// ```
/// use tensordimm_dram::{DramConfig, MemorySystem, Request};
///
/// let mut mem = MemorySystem::new(DramConfig::cpu_memory(2))?;
/// mem.push_when_ready(Request::read(0));
/// mem.push_when_ready(Request::write(4096));
/// mem.run_to_completion();
/// assert_eq!(mem.stats().totals.reads, 1);
/// assert_eq!(mem.stats().totals.writes, 1);
/// # Ok::<(), tensordimm_dram::DramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: DramConfig,
    controllers: Vec<MemoryController>,
    cycle: u64,
}

impl MemorySystem {
    /// Build and validate a memory system.
    ///
    /// # Errors
    ///
    /// Returns any configuration inconsistency found by
    /// [`DramConfig::validate`].
    pub fn new(config: DramConfig) -> Result<Self, DramError> {
        config.validate()?;
        let mut per_channel = config.clone();
        per_channel.geometry.channels = 1;
        let controllers = (0..config.geometry.channels)
            .map(|_| MemoryController::new(per_channel.clone()))
            .collect();
        Ok(MemorySystem {
            config,
            controllers,
            cycle: 0,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Try to enqueue a request; `Ok(false)` means the target channel's
    /// queue is full (retry after ticking).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] for addresses beyond the
    /// configured capacity.
    pub fn push(&mut self, request: Request) -> Result<bool, DramError> {
        let dram = self
            .config
            .mapping
            .decode(request.addr, &self.config.geometry)?;
        Ok(self.controllers[dram.channel].enqueue(request, dram))
    }

    /// Enqueue a request, advancing the system until queue space is
    /// available (jumping idle spans rather than ticking one cycle per
    /// retry).
    ///
    /// Models an infinitely patient producer; useful for throughput replay
    /// where request issue should back-pressure rather than drop.
    ///
    /// # Panics
    ///
    /// Panics if the request address is outside the configured capacity
    /// (use [`MemorySystem::push`] or [`MemorySystem::push_blocking`] for
    /// fallible submission).
    pub fn push_when_ready(&mut self, request: Request) {
        self.push_blocking(request)
            .unwrap_or_else(|e| panic!("push_when_ready: {e}"));
    }

    /// Fallible version of [`MemorySystem::push_when_ready`]: block (in
    /// simulated time) until the target channel accepts the request,
    /// jumping straight to the channel's next scheduling event on each
    /// retry instead of ticking cycle by cycle.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] for addresses beyond the
    /// configured capacity.
    pub fn push_blocking(&mut self, request: Request) -> Result<(), DramError> {
        let dram = self
            .config
            .mapping
            .decode(request.addr, &self.config.geometry)?;
        loop {
            if self.controllers[dram.channel].enqueue(request, dram) {
                return Ok(());
            }
            // Queue full: a slot can only free when the target channel
            // issues a column command. Run that channel just past its next
            // action, then bring every other channel up to the same cycle
            // (channels share no timing state, so catching up out of
            // lockstep is bit-equivalent).
            let target = self.controllers[dram.channel]
                .advance_past_next_action()
                .max(self.cycle + 1);
            self.advance_to(target);
        }
    }

    /// Advance every channel by one cycle.
    pub fn tick(&mut self) {
        for c in &mut self.controllers {
            c.tick();
        }
        self.cycle += 1;
    }

    /// Advance every channel to exactly `target` (no-op when `target` is
    /// not in the future), skipping idle spans. Bit-equivalent to calling
    /// [`MemorySystem::tick`] `target - cycle` times: channels share no
    /// timing state, so each can jump between its own events
    /// independently while staying on the common clock.
    pub fn advance_to(&mut self, target: u64) {
        if target <= self.cycle {
            return;
        }
        for c in &mut self.controllers {
            c.advance_to(target);
        }
        self.cycle = target;
    }

    /// The earliest cycle at or after the current one at which any channel
    /// could act (see [`MemoryController::next_event_cycle`]); `None` when
    /// every channel is fully idle with refresh disabled. Each channel
    /// stores the horizon it proves, so the [`MemorySystem::advance_to`]
    /// that follows reuses it instead of re-evaluating the scheduler.
    pub fn next_event_cycle(&mut self) -> Option<u64> {
        self.controllers
            .iter_mut()
            .filter_map(|c| c.next_event_cycle())
            .min()
    }

    /// Whether any channel still has queued or in-flight work.
    pub fn is_busy(&self) -> bool {
        self.controllers.iter().any(|c| c.is_busy())
    }

    /// Run until all queues drain and all in-flight bursts finish, jumping
    /// between event cycles.
    ///
    /// Bit-equivalent to [`MemorySystem::run_to_completion_ticked`]: each
    /// channel runs to its own idle point independently (channels share no
    /// timing state), then all are advanced to the common stop cycle so
    /// per-channel refresh activity during the tail matches the lockstep
    /// oracle.
    pub fn run_to_completion(&mut self) {
        for c in &mut self.controllers {
            c.run_until_idle();
        }
        let stop = self
            .controllers
            .iter()
            .map(MemoryController::cycle)
            .fold(self.cycle, u64::max);
        self.advance_to(stop);
    }

    /// Tick-stepping oracle equivalent of
    /// [`MemorySystem::run_to_completion`]; used by the equivalence tests
    /// and the `perf_dram_engine` harness.
    pub fn run_to_completion_ticked(&mut self) {
        while self.is_busy() {
            self.tick();
        }
    }

    /// Idle cycles the event-driven paths jumped over, summed across
    /// channels (diagnostic; zero for a purely tick-driven run).
    pub fn idle_cycles_skipped(&self) -> u64 {
        self.controllers
            .iter()
            .map(|c| c.idle_cycles_skipped())
            .sum()
    }

    /// Banks the channels' schedulers visited over all their decisions,
    /// summed across channels (deterministic work counter; see
    /// [`MemoryController::banks_examined`]).
    pub fn banks_examined(&self) -> u64 {
        self.controllers
            .iter()
            .map(MemoryController::banks_examined)
            .sum()
    }

    /// Scheduling decisions the channels evaluated, summed across channels
    /// (deterministic work counter; see [`MemoryController::decisions`]).
    pub fn decisions(&self) -> u64 {
        self.controllers
            .iter()
            .map(MemoryController::decisions)
            .sum()
    }

    /// Bank-local scheduling candidates the channels evaluated, summed
    /// across channels (deterministic work counter; see
    /// [`MemoryController::candidate_evaluations`]).
    pub fn candidate_evaluations(&self) -> u64 {
        self.controllers
            .iter()
            .map(MemoryController::candidate_evaluations)
            .sum()
    }

    /// Move completions from every channel (in channel order) into `out`,
    /// reusing its allocation across drains.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        for c in &mut self.controllers {
            c.drain_completions_into(out);
        }
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> MemoryStats {
        let mut totals = ChannelStats::default();
        for c in &self.controllers {
            totals.merge(&c.stats());
        }
        totals.cycles = self.cycle;
        MemoryStats {
            totals,
            channels: self.controllers.len(),
            timing: self.config.timing.clone(),
            bus_bytes: self.config.geometry.bus_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::MappingScheme;

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.geometry.rows = 100;
        assert!(MemorySystem::new(cfg).is_err());
    }

    #[test]
    fn sequential_read_stream_nears_peak_bandwidth() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg).unwrap();
        for i in 0..8192u64 {
            mem.push_when_ready(Request::read(i * 64));
        }
        mem.run_to_completion();
        let stats = mem.stats();
        assert_eq!(stats.totals.reads, 8192);
        assert!(
            stats.utilization() > 0.85,
            "sequential stream should near peak, got {:.3}",
            stats.utilization()
        );
    }

    #[test]
    fn channels_split_traffic() {
        let mut cfg = DramConfig::cpu_memory(4);
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg).unwrap();
        for i in 0..1024u64 {
            mem.push_when_ready(Request::read(i * 64));
        }
        mem.run_to_completion();
        let stats = mem.stats();
        assert_eq!(stats.totals.reads, 1024);
        assert_eq!(stats.channels, 4);
        // Four channels must beat a single channel's peak on this stream.
        assert!(
            stats.achieved_gbps() > 25.6,
            "got {}",
            stats.achieved_gbps()
        );
    }

    #[test]
    fn out_of_range_push_errors() {
        let cfg = DramConfig::ddr4_3200_channel();
        let cap = cfg.capacity_bytes();
        let mut mem = MemorySystem::new(cfg).unwrap();
        assert!(matches!(
            mem.push(Request::read(cap)),
            Err(DramError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn completions_match_requests() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg).unwrap();
        for i in 0..64u64 {
            mem.push_when_ready(Request::read(i * 4096).with_id(i));
        }
        mem.run_to_completion();
        let mut done = Vec::new();
        mem.drain_completions_into(&mut done);
        let mut ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn random_reads_lose_to_sequential() {
        // A coarse check that the timing model penalizes row misses. With a
        // single rank, random 64-byte reads are tFAW-bound (one activate per
        // burst), whereas a sequential stream rides open rows; with more
        // ranks the activate headroom would hide the misses — which is
        // exactly the bank-parallelism effect TensorDIMM exploits.
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.geometry.ranks_per_channel = 1;
        cfg.mapping = MappingScheme::nmp_local(&cfg.geometry);
        let mut seq = MemorySystem::new(cfg.clone()).unwrap();
        for i in 0..2048u64 {
            seq.push_when_ready(Request::read(i * 64));
        }
        seq.run_to_completion();

        let mut rng_state = 0x12345678u64;
        let mut rnd = MemorySystem::new(cfg.clone()).unwrap();
        let cap = cfg.capacity_bytes();
        for _ in 0..2048u64 {
            // xorshift for a dependency-free pseudo-random stream
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rnd.push_when_ready(Request::read((rng_state % cap) & !63));
        }
        rnd.run_to_completion();

        assert!(
            seq.stats().achieved_gbps() > rnd.stats().achieved_gbps(),
            "sequential {} vs random {}",
            seq.stats().achieved_gbps(),
            rnd.stats().achieved_gbps()
        );
    }
}
