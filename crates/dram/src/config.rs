//! Memory-system geometry and policy configuration.

use crate::address::MappingScheme;
use crate::timing::DramTiming;
use crate::{DramError, ACCESS_BYTES};

/// Physical organization of the memory system.
///
/// All counts must be powers of two (the address mapping peels bit fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Independent memory channels (each with its own controller and bus).
    pub channels: usize,
    /// Ranks sharing each channel's bus.
    pub ranks_per_channel: usize,
    /// DDR4 bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Columns per row, in 64-byte (burst) granularity.
    pub columns: usize,
    /// Data-bus width in bytes (8 for an x64 DIMM).
    pub bus_bytes: usize,
}

impl Geometry {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks_per_channel as u64
            * self.bank_groups as u64
            * self.banks_per_group as u64
            * self.rows as u64
            * self.columns as u64
            * ACCESS_BYTES
    }

    /// Total banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    fn validate(&self) -> Result<(), DramError> {
        let checks = [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("rows", self.rows),
            ("columns", self.columns),
            ("bus_bytes", self.bus_bytes),
        ];
        for (parameter, value) in checks {
            if value == 0 || !value.is_power_of_two() {
                return Err(DramError::InvalidGeometry { parameter, value });
            }
        }
        Ok(())
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Leave rows open after column accesses (exploits locality; pays a
    /// precharge on conflicts).
    #[default]
    OpenPage,
    /// Auto-precharge after every column access (RDA/WRA).
    ClosedPage,
}

/// Request scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-served: row hits first, then oldest.
    #[default]
    FrFcfs,
    /// Strict in-order service of the request queue head.
    Fcfs,
}

/// Full configuration of a [`crate::MemorySystem`].
///
/// # Example
///
/// ```
/// use tensordimm_dram::DramConfig;
///
/// let cfg = DramConfig::cpu_memory(8);
/// assert_eq!(cfg.geometry.channels, 8);
/// assert!((cfg.peak_gbps() - 204.8).abs() < 1e-9);
/// cfg.validate()?;
/// # Ok::<(), tensordimm_dram::DramError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Timing parameters (speed grade).
    pub timing: DramTiming,
    /// Physical organization.
    pub geometry: Geometry,
    /// Physical-to-DRAM address mapping.
    pub mapping: MappingScheme,
    /// Row-buffer policy.
    pub row_policy: RowPolicy,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Per-channel read-queue capacity.
    pub read_queue_depth: usize,
    /// Per-channel write-queue capacity.
    pub write_queue_depth: usize,
    /// Switch the channel to write draining above this write-queue level.
    pub write_high_watermark: usize,
    /// Return to read service below this write-queue level.
    pub write_low_watermark: usize,
    /// Whether periodic refresh is simulated.
    pub refresh_enabled: bool,
}

impl DramConfig {
    /// A single DDR4-3200 channel with four ranks — the local memory of one
    /// TensorDIMM (25.6 GB/s, Table 1; the 128 GB LR-DIMM the paper cites
    /// stacks multiple internal ranks) using the streaming-friendly
    /// NMP-local mapping.
    pub fn ddr4_3200_channel() -> Self {
        let geometry = Geometry {
            channels: 1,
            ranks_per_channel: 4,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 1 << 16,
            columns: 128,
            bus_bytes: 8,
        };
        DramConfig {
            timing: DramTiming::ddr4_3200(),
            mapping: MappingScheme::nmp_local(&geometry),
            geometry,
            row_policy: RowPolicy::OpenPage,
            scheduler: SchedulerKind::FrFcfs,
            read_queue_depth: 64,
            write_queue_depth: 64,
            write_high_watermark: 48,
            write_low_watermark: 16,
            refresh_enabled: true,
        }
    }

    /// The baseline CPU memory system: `channels` DDR4-3200 channels, four
    /// ranks each, conventional channel-interleaved mapping. The paper's
    /// baseline (NVIDIA DGX host) has 8 channels = 204.8 GB/s peak,
    /// time-multiplexed over however many DIMMs are installed.
    pub fn cpu_memory(channels: usize) -> Self {
        let geometry = Geometry {
            channels,
            ranks_per_channel: 4,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 1 << 16,
            columns: 128,
            bus_bytes: 8,
        };
        DramConfig {
            timing: DramTiming::ddr4_3200(),
            mapping: MappingScheme::channel_interleaved(&geometry),
            geometry,
            row_policy: RowPolicy::OpenPage,
            scheduler: SchedulerKind::FrFcfs,
            read_queue_depth: 64,
            write_queue_depth: 64,
            write_high_watermark: 48,
            write_low_watermark: 16,
            refresh_enabled: true,
        }
    }

    /// Deepen the queues to trace-replay depth (the reorder window a
    /// Ramulator-style replay enjoys): read and write queues of 256 and
    /// write-drain watermarks of 192 / 64, keeping everything else. The
    /// analytic constants (`bench::traffic`) and the cycle pricer both
    /// replay through this one setting.
    pub fn with_replay_queues(mut self) -> Self {
        self.read_queue_depth = 256;
        self.write_queue_depth = 256;
        self.write_high_watermark = 192;
        self.write_low_watermark = 64;
        self
    }

    /// Replace the scheduler policy, keeping everything else.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replace the row policy, keeping everything else.
    pub fn with_row_policy(mut self, row_policy: RowPolicy) -> Self {
        self.row_policy = row_policy;
        self
    }

    /// Theoretical peak bandwidth across all channels, GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.timing.peak_gbps(self.geometry.bus_bytes as u64) * self.geometry.channels as f64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry.capacity_bytes()
    }

    /// Validate geometry, timing, mapping and queue parameters.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found; see [`DramError`].
    pub fn validate(&self) -> Result<(), DramError> {
        self.geometry.validate()?;
        self.timing.validate()?;
        self.mapping.validate(&self.geometry)?;
        if self.read_queue_depth == 0 {
            return Err(DramError::InvalidGeometry {
                parameter: "read_queue_depth",
                value: 0,
            });
        }
        if self.write_queue_depth == 0 {
            return Err(DramError::InvalidGeometry {
                parameter: "write_queue_depth",
                value: 0,
            });
        }
        if self.write_low_watermark >= self.write_high_watermark
            || self.write_high_watermark > self.write_queue_depth
        {
            return Err(DramError::InvalidTiming {
                reason: "write watermarks must satisfy low < high <= depth",
            });
        }
        Ok(())
    }
}

impl Default for DramConfig {
    /// Defaults to a single TensorDIMM-local DDR4-3200 channel.
    fn default() -> Self {
        DramConfig::ddr4_3200_channel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        DramConfig::ddr4_3200_channel().validate().unwrap();
        DramConfig::cpu_memory(8).validate().unwrap();
        DramConfig::cpu_memory(1).validate().unwrap();
    }

    #[test]
    fn peak_bandwidth() {
        assert!((DramConfig::ddr4_3200_channel().peak_gbps() - 25.6).abs() < 1e-9);
        assert!((DramConfig::cpu_memory(8).peak_gbps() - 204.8).abs() < 1e-9);
    }

    #[test]
    fn capacity_is_product_of_geometry() {
        let cfg = DramConfig::ddr4_3200_channel();
        let g = cfg.geometry;
        assert_eq!(
            cfg.capacity_bytes(),
            (g.ranks_per_channel * g.bank_groups * g.banks_per_group) as u64
                * g.rows as u64
                * g.columns as u64
                * 64
        );
        // 4 ranks x 16 banks x 64Ki rows x 8 KiB rows = 32 GiB.
        assert_eq!(cfg.capacity_bytes(), 32 << 30);
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.geometry.rows = 1000;
        assert!(matches!(
            cfg.validate(),
            Err(DramError::InvalidGeometry {
                parameter: "rows",
                ..
            })
        ));
    }

    #[test]
    fn bad_watermarks_rejected() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.write_low_watermark = cfg.write_high_watermark;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_style_updates() {
        let cfg = DramConfig::ddr4_3200_channel()
            .with_scheduler(SchedulerKind::Fcfs)
            .with_row_policy(RowPolicy::ClosedPage);
        assert_eq!(cfg.scheduler, SchedulerKind::Fcfs);
        assert_eq!(cfg.row_policy, RowPolicy::ClosedPage);
    }
}
