//! TensorNode configuration.

use tensordimm_nmp::NmpConfig;

/// How much timing fidelity each operation pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Functional execution only; [`crate::OpReport::timing`] is `None`.
    Functional,
    /// Replay the op's access plan on one representative DIMM's
    /// cycle-level DRAM simulator (the paper's Ramulator methodology;
    /// DIMM slices are symmetric, so one DIMM's time is the node's time).
    #[default]
    Replay,
    /// Full NMP pipeline simulation (SRAM queues + 150 MHz vector ALU) on
    /// the representative DIMM.
    Pipeline,
}

/// Configuration of a [`crate::TensorNode`].
///
/// # Example
///
/// ```
/// use tensordimm_core::TensorNodeConfig;
///
/// let cfg = TensorNodeConfig::default();
/// assert_eq!(cfg.dimms, 32);                       // Table 1
/// assert!((cfg.peak_gbps() - 819.2).abs() < 1e-9); // 32 x 25.6 GB/s
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TensorNodeConfig {
    /// Number of TensorDIMMs in the pool (32 in Table 1).
    pub dimms: u64,
    /// Per-DIMM NMP core + local DRAM configuration.
    pub nmp: NmpConfig,
    /// Functional pool capacity in 64-byte blocks (node-wide).
    pub pool_blocks: u64,
    /// Timing fidelity per operation.
    pub timing: TimingMode,
}

impl TensorNodeConfig {
    /// The paper's Table 1 configuration: 32 TensorDIMMs of DDR4-3200.
    ///
    /// The functional pool defaults to 2^21 blocks (128 MiB) — enough for
    /// examples and tests; raise it for larger experiments.
    pub fn paper() -> Self {
        TensorNodeConfig {
            dimms: 32,
            nmp: NmpConfig::paper(),
            pool_blocks: 1 << 21,
            timing: TimingMode::Replay,
        }
    }

    /// A small node for fast tests (4 DIMMs, 2^16-block pool).
    pub fn small() -> Self {
        TensorNodeConfig {
            dimms: 4,
            nmp: NmpConfig::paper(),
            pool_blocks: 1 << 16,
            timing: TimingMode::Replay,
        }
    }

    /// Set the DIMM count (Fig. 12's 32/64/128 sweep), keeping the rest.
    pub fn with_dimms(mut self, dimms: u64) -> Self {
        self.dimms = dimms;
        self
    }

    /// Set the timing mode, keeping the rest.
    pub fn with_timing(mut self, timing: TimingMode) -> Self {
        self.timing = timing;
        self
    }

    /// Set the pool capacity in blocks, keeping the rest.
    pub fn with_pool_blocks(mut self, pool_blocks: u64) -> Self {
        self.pool_blocks = pool_blocks;
        self
    }

    /// Aggregate peak memory bandwidth across all NMP cores, GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.dimms as f64 * self.nmp.dram.peak_gbps()
    }
}

impl Default for TensorNodeConfig {
    fn default() -> Self {
        TensorNodeConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_table1() {
        let c = TensorNodeConfig::paper();
        assert_eq!(c.dimms, 32);
        assert!((c.nmp.dram.peak_gbps() - 25.6).abs() < 1e-9);
        assert!((c.peak_gbps() - 819.2).abs() < 1e-9);
    }

    #[test]
    fn builders() {
        let c = TensorNodeConfig::paper()
            .with_dimms(128)
            .with_timing(TimingMode::Functional)
            .with_pool_blocks(1 << 10);
        assert_eq!(c.dimms, 128);
        assert_eq!(c.timing, TimingMode::Functional);
        assert!((c.peak_gbps() - 3276.8).abs() < 1e-9, "Fig. 12's 3.2 TB/s");
    }
}
