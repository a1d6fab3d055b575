//! DDR4 energy model.
//!
//! Extends the paper's system-power analysis (Section 6.5, which stops at
//! a per-DIMM TDP from Micron's calculator) down to per-operation energy:
//! command-level dynamic energy derived from IDD-class currents plus
//! rank-count-scaled background power. The constants are representative
//! DDR4-3200 x8 values; the model's purpose is comparing *operations and
//! mappings*, not absolute joules.

use crate::stats::MemoryStats;

/// Energy cost constants for one DDR4 device generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ACTIVATE + PRECHARGE pair (row cycle), nanojoules.
    pub act_pre_nj: f64,
    /// Energy of one 64-byte read burst, nanojoules.
    pub read_nj: f64,
    /// Energy of one 64-byte write burst, nanojoules.
    pub write_nj: f64,
    /// Energy of one all-bank refresh, nanojoules.
    pub refresh_nj: f64,
    /// Background (standby) power per rank, milliwatts.
    pub background_mw_per_rank: f64,
}

impl EnergyModel {
    /// Representative DDR4-3200 x8 rank values.
    pub fn ddr4_3200() -> Self {
        EnergyModel {
            act_pre_nj: 2.1,
            read_nj: 1.8,
            write_nj: 1.9,
            refresh_nj: 90.0,
            background_mw_per_rank: 130.0,
        }
    }

    /// Energy report for a finished simulation over `ranks` total ranks.
    pub fn report(&self, stats: &MemoryStats, ranks: usize) -> EnergyReport {
        let t = &stats.totals;
        let dynamic_nj = t.activates as f64 * self.act_pre_nj
            + t.reads as f64 * self.read_nj
            + t.writes as f64 * self.write_nj
            + t.refreshes as f64 * self.refresh_nj;
        let seconds = stats.elapsed_ns() * 1e-9;
        let background_nj = self.background_mw_per_rank * 1e-3 * ranks as f64 * seconds * 1e9;
        EnergyReport {
            dynamic_nj,
            background_nj,
            bytes: stats.bytes_transferred(),
            seconds,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::ddr4_3200()
    }
}

/// Energy consumed by a simulated interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Command-level (dynamic) energy, nanojoules.
    pub dynamic_nj: f64,
    /// Standby (background) energy over the interval, nanojoules.
    pub background_nj: f64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Interval length in seconds.
    pub seconds: f64,
}

impl EnergyReport {
    /// Total energy, nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.dynamic_nj + self.background_nj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::request::Request;
    use crate::system::MemorySystem;

    fn run(addresses: impl Iterator<Item = u64>) -> MemoryStats {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg).unwrap();
        for a in addresses {
            mem.push_when_ready(Request::read(a));
        }
        mem.run_to_completion();
        mem.stats()
    }

    /// Energy efficiency in picojoules per bit moved.
    fn pj_per_bit(r: &EnergyReport) -> f64 {
        r.total_nj() * 1e3 / (r.bytes as f64 * 8.0)
    }

    #[test]
    fn sequential_beats_random_in_pj_per_bit() {
        let model = EnergyModel::ddr4_3200();
        let seq = model.report(&run((0..4096u64).map(|i| i * 64)), 4);
        let mut x = 0x2545f4914f6cdd1du64;
        let cap = DramConfig::ddr4_3200_channel().capacity_bytes();
        let rnd = model.report(
            &run((0..4096u64).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % cap) & !63
            })),
            4,
        );
        // Random traffic activates a row per burst: strictly worse energy.
        assert!(
            pj_per_bit(&rnd) > 1.5 * pj_per_bit(&seq),
            "random {:.1} vs sequential {:.1} pJ/bit",
            pj_per_bit(&rnd),
            pj_per_bit(&seq)
        );
    }

    #[test]
    fn sane_magnitudes() {
        let model = EnergyModel::ddr4_3200();
        let r = model.report(&run((0..4096u64).map(|i| i * 64)), 4);
        // DDR4 lands in the 5-40 pJ/bit range depending on locality.
        assert!(
            (2.0..60.0).contains(&pj_per_bit(&r)),
            "{} pJ/bit",
            pj_per_bit(&r)
        );
        let watts = r.total_nj() * 1e-9 / r.seconds;
        assert!(watts > 0.1 && watts < 30.0, "{watts} W");
        assert!(r.total_nj() > 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = EnergyReport {
            dynamic_nj: 0.0,
            background_nj: 0.0,
            bytes: 0,
            seconds: 0.0,
        };
        assert_eq!(r.total_nj(), 0.0);
        let stats = run(std::iter::empty());
        assert_eq!(EnergyModel::ddr4_3200().report(&stats, 4), r);
    }

    #[test]
    fn background_scales_with_ranks() {
        let model = EnergyModel::ddr4_3200();
        let stats = run((0..1024u64).map(|i| i * 64));
        let one = model.report(&stats, 1);
        let four = model.report(&stats, 4);
        assert!((four.background_nj - 4.0 * one.background_nj).abs() < 1e-6);
        assert_eq!(one.dynamic_nj, four.dynamic_nj);
    }
}
