//! Trace replay.
//!
//! The paper's methodology feeds memory traces generated from the DL
//! framework's tensor operations into a cycle-accurate DRAM simulator
//! (Section 5). [`Trace`] is that interchange format and [`TraceRunner`]
//! the replay engine: requests are offered in order with back-pressure
//! (a full queue stalls the producer, not drops the request), which is how
//! a streaming NMP core would drive its local controller.

use crate::request::{Request, RequestKind};
use crate::stats::MemoryStats;
use crate::system::MemorySystem;
use crate::DramError;

/// One trace record: a request plus the earliest cycle it may be offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Earliest issue cycle (0 for pure throughput replay).
    pub not_before: u64,
    /// The memory request.
    pub request: Request,
}

impl TraceEntry {
    /// An entry with no arrival constraint.
    pub fn now(request: Request) -> Self {
        TraceEntry {
            not_before: 0,
            request,
        }
    }
}

/// An ordered memory-request trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append a read of the 64-byte block at `addr`.
    pub fn read(&mut self, addr: u64) -> &mut Self {
        self.entries.push(TraceEntry::now(Request::read(addr)));
        self
    }

    /// Append a write of the 64-byte block at `addr`.
    pub fn write(&mut self, addr: u64) -> &mut Self {
        self.entries.push(TraceEntry::now(Request::write(addr)));
        self
    }

    /// Append a read covering `bytes` starting at `addr` (one request per
    /// 64-byte block).
    pub fn read_range(&mut self, addr: u64, bytes: u64) -> &mut Self {
        for block in 0..bytes.div_ceil(crate::ACCESS_BYTES) {
            self.read(addr + block * crate::ACCESS_BYTES);
        }
        self
    }

    /// Append a write covering `bytes` starting at `addr`.
    pub fn write_range(&mut self, addr: u64, bytes: u64) -> &mut Self {
        for block in 0..bytes.div_ceil(crate::ACCESS_BYTES) {
            self.write(addr + block * crate::ACCESS_BYTES);
        }
        self
    }

    /// Append a raw entry.
    pub fn push(&mut self, entry: TraceEntry) -> &mut Self {
        self.entries.push(entry);
        self
    }

    /// The recorded entries, in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes moved by the trace.
    pub fn bytes(&self) -> u64 {
        self.entries.len() as u64 * crate::ACCESS_BYTES
    }

    /// Count of read entries.
    pub fn reads(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.request.kind == RequestKind::Read)
            .count()
    }

    /// Count of write entries.
    pub fn writes(&self) -> usize {
        self.len() - self.reads()
    }
}

impl Extend<TraceEntry> for Trace {
    fn extend<I: IntoIterator<Item = TraceEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Self {
        Trace {
            entries: iter.into_iter().collect(),
        }
    }
}

/// Replays a [`Trace`] through a [`MemorySystem`] and reports statistics.
#[derive(Debug)]
pub struct TraceRunner {
    memory: MemorySystem,
}

impl TraceRunner {
    /// Build a runner over a validated memory system.
    pub fn new(memory: MemorySystem) -> Self {
        TraceRunner { memory }
    }

    /// Replay `trace` to completion and return the aggregate statistics.
    ///
    /// Uses the event-driven engine ([`MemorySystem::advance_to`] /
    /// [`MemorySystem::push_blocking`]): arrival gaps and back-pressure
    /// stalls are jumped rather than ticked, producing bit-identical
    /// statistics and completions to [`TraceRunner::run_ticked`] in far
    /// less wall-clock time on sparse traces.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] if any entry's address does
    /// not fit the configured capacity; entries before the failure will
    /// already have been simulated.
    pub fn run(&mut self, trace: &Trace) -> Result<MemoryStats, DramError> {
        for entry in trace.entries() {
            if self.memory.cycle() < entry.not_before {
                self.memory.advance_to(entry.not_before);
            }
            self.memory.push_blocking(entry.request)?;
        }
        self.memory.run_to_completion();
        Ok(self.memory.stats())
    }

    /// Tick-stepping oracle equivalent of [`TraceRunner::run`]: advances
    /// strictly one cycle at a time. Kept for the equivalence tests and
    /// the `perf_dram_engine` harness; produces bit-identical results.
    ///
    /// # Errors
    ///
    /// Same as [`TraceRunner::run`].
    pub fn run_ticked(&mut self, trace: &Trace) -> Result<MemoryStats, DramError> {
        for entry in trace.entries() {
            while self.memory.cycle() < entry.not_before {
                self.memory.tick();
            }
            loop {
                match self.memory.push(entry.request)? {
                    true => break,
                    false => self.memory.tick(),
                }
            }
        }
        self.memory.run_to_completion_ticked();
        Ok(self.memory.stats())
    }

    /// Access the underlying memory system (e.g. for completions).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    #[test]
    fn trace_builders() {
        let mut t = Trace::new();
        t.read(0)
            .write(64)
            .read_range(128, 256)
            .write_range(1024, 100);
        assert_eq!(t.reads(), 1 + 4);
        assert_eq!(t.writes(), 1 + 2);
        assert_eq!(t.bytes(), 8 * 64);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_iterator() {
        let t: Trace = (0..4u64)
            .map(|i| TraceEntry::now(Request::read(i * 64)))
            .collect();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn replay_counts_match() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut t = Trace::new();
        t.read_range(0, 64 * 128);
        t.write_range(1 << 20, 64 * 128);
        let mut runner = TraceRunner::new(MemorySystem::new(cfg).unwrap());
        let stats = runner.run(&t).unwrap();
        assert_eq!(stats.totals.reads, 128);
        assert_eq!(stats.totals.writes, 128);
        assert!(stats.achieved_gbps() > 0.0);
    }

    #[test]
    fn not_before_delays_issue() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut t = Trace::new();
        t.push(TraceEntry {
            not_before: 10_000,
            request: Request::read(0),
        });
        let mut runner = TraceRunner::new(MemorySystem::new(cfg).unwrap());
        let stats = runner.run(&t).unwrap();
        assert!(stats.totals.cycles >= 10_000);
    }

    #[test]
    fn replay_out_of_range_fails() {
        let cfg = DramConfig::ddr4_3200_channel();
        let cap = cfg.capacity_bytes();
        let mut t = Trace::new();
        t.read(cap + 64);
        let mut runner = TraceRunner::new(MemorySystem::new(cfg).unwrap());
        assert!(runner.run(&t).is_err());
    }
}
