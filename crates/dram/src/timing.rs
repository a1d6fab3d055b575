//! DDR4 timing parameters.
//!
//! All values are expressed in memory-controller clock cycles. For DDR4 the
//! controller clock equals the I/O bus clock (half the data rate), so a
//! DDR4-3200 part runs the controller at 1600 MHz and a BL8 burst occupies
//! `BL/2 = 4` cycles on the data bus.

/// JEDEC DDR4 timing parameters in controller clock cycles.
///
/// The presets ([`DramTiming::ddr4_3200`] and friends) follow the common
/// speed-bin datasheet values for 8 Gb x8 devices with a 1 KB page; exact
/// vendor bins differ by a cycle or two, which is irrelevant at the
/// bandwidth-shape level this simulator targets.
///
/// # Example
///
/// ```
/// use tensordimm_dram::DramTiming;
///
/// let t = DramTiming::ddr4_3200();
/// assert_eq!(t.clock_mhz, 1600);
/// assert_eq!(t.trc(), t.tras + t.trp);
/// assert!((t.peak_gbps(8) - 25.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramTiming {
    /// Controller / bus clock in MHz (data rate is twice this).
    pub clock_mhz: u64,
    /// CAS latency (READ command to first data).
    pub cl: u64,
    /// CAS write latency (WRITE command to first data).
    pub cwl: u64,
    /// ACTIVATE to internal READ/WRITE delay.
    pub trcd: u64,
    /// PRECHARGE to ACTIVATE delay (same bank).
    pub trp: u64,
    /// ACTIVATE to PRECHARGE minimum (row active time).
    pub tras: u64,
    /// Burst length in beats (8 for DDR4).
    pub bl: u64,
    /// CAS-to-CAS delay, different bank group.
    pub tccd_s: u64,
    /// CAS-to-CAS delay, same bank group.
    pub tccd_l: u64,
    /// ACTIVATE-to-ACTIVATE delay, different bank group.
    pub trrd_s: u64,
    /// ACTIVATE-to-ACTIVATE delay, same bank group.
    pub trrd_l: u64,
    /// Four-activate window (per rank).
    pub tfaw: u64,
    /// Write recovery time (end of write burst to PRECHARGE).
    pub twr: u64,
    /// Write-to-read turnaround, different bank group.
    pub twtr_s: u64,
    /// Write-to-read turnaround, same bank group.
    pub twtr_l: u64,
    /// READ to PRECHARGE delay.
    pub trtp: u64,
    /// Average refresh interval.
    pub trefi: u64,
    /// Refresh cycle time (all-bank refresh duration).
    pub trfc: u64,
    /// Rank-to-rank switch penalty on the shared data bus.
    pub tcs: u64,
}

impl DramTiming {
    /// DDR4-3200 (PC4-25600): the configuration used throughout the paper
    /// (Table 1; 25.6 GB/s per DIMM).
    pub fn ddr4_3200() -> Self {
        DramTiming {
            clock_mhz: 1600,
            cl: 22,
            cwl: 16,
            trcd: 22,
            trp: 22,
            tras: 52,
            bl: 8,
            tccd_s: 4,
            tccd_l: 8,
            trrd_s: 4,
            trrd_l: 8,
            tfaw: 34,
            twr: 24,
            twtr_s: 4,
            twtr_l: 12,
            trtp: 12,
            trefi: 12480,
            trfc: 560,
            tcs: 2,
        }
    }

    /// DDR4-2666 (PC4-21300): 21.3 GB/s per DIMM.
    pub fn ddr4_2666() -> Self {
        DramTiming {
            clock_mhz: 1333,
            cl: 19,
            cwl: 14,
            trcd: 19,
            trp: 19,
            tras: 43,
            bl: 8,
            tccd_s: 4,
            tccd_l: 7,
            trrd_s: 4,
            trrd_l: 7,
            tfaw: 28,
            twr: 20,
            twtr_s: 4,
            twtr_l: 10,
            trtp: 10,
            trefi: 10400,
            trfc: 467,
            tcs: 2,
        }
    }

    /// DDR4-2400 (PC4-19200): 19.2 GB/s per DIMM.
    pub fn ddr4_2400() -> Self {
        DramTiming {
            clock_mhz: 1200,
            cl: 17,
            cwl: 12,
            trcd: 17,
            trp: 17,
            tras: 39,
            bl: 8,
            tccd_s: 4,
            tccd_l: 6,
            trrd_s: 4,
            trrd_l: 6,
            tfaw: 26,
            twr: 18,
            twtr_s: 3,
            twtr_l: 9,
            trtp: 9,
            trefi: 9360,
            trfc: 420,
            tcs: 2,
        }
    }

    /// Row cycle time: minimum spacing between ACTIVATEs to the same bank.
    pub fn trc(&self) -> u64 {
        self.tras + self.trp
    }

    /// Data-bus cycles occupied by a single burst (`BL/2`).
    pub fn burst_cycles(&self) -> u64 {
        self.bl / 2
    }

    /// Minimum READ-to-WRITE command spacing on the same channel.
    ///
    /// Derived from bus turnaround: `CL + BL/2 + 2 - CWL`.
    pub fn read_to_write(&self) -> u64 {
        (self.cl + self.burst_cycles() + 2).saturating_sub(self.cwl)
    }

    /// Minimum WRITE-to-READ spacing, same rank and same bank group.
    pub fn write_to_read_same_bg(&self) -> u64 {
        self.cwl + self.burst_cycles() + self.twtr_l
    }

    /// Minimum WRITE-to-READ spacing, same rank but different bank group.
    pub fn write_to_read_diff_bg(&self) -> u64 {
        self.cwl + self.burst_cycles() + self.twtr_s
    }

    /// Earliest PRECHARGE after a WRITE command (write recovery).
    pub fn write_to_precharge(&self) -> u64 {
        self.cwl + self.burst_cycles() + self.twr
    }

    /// Nanoseconds per controller clock cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1000.0 / self.clock_mhz as f64
    }

    /// Theoretical peak bandwidth in GB/s for a bus of `bus_bytes` width.
    ///
    /// DDR transfers two beats per clock: `bus_bytes * 2 * clock`.
    pub fn peak_gbps(&self, bus_bytes: u64) -> f64 {
        bus_bytes as f64 * 2.0 * self.clock_mhz as f64 * 1e6 / 1e9
    }

    /// Internal consistency check used by [`crate::DramConfig::validate`].
    pub(crate) fn validate(&self) -> Result<(), crate::DramError> {
        if self.clock_mhz == 0 {
            return Err(crate::DramError::InvalidTiming {
                reason: "clock frequency must be nonzero",
            });
        }
        if self.bl == 0 || !self.bl.is_multiple_of(2) {
            return Err(crate::DramError::InvalidTiming {
                reason: "burst length must be a nonzero multiple of two",
            });
        }
        if self.tras < self.trcd {
            return Err(crate::DramError::InvalidTiming {
                reason: "tRAS must be at least tRCD",
            });
        }
        if self.tccd_l < self.tccd_s || self.trrd_l < self.trrd_s {
            return Err(crate::DramError::InvalidTiming {
                reason: "same-bank-group delays must be at least the cross-group delays",
            });
        }
        if self.tfaw < self.trrd_s {
            return Err(crate::DramError::InvalidTiming {
                reason: "tFAW must be at least tRRD_S",
            });
        }
        if self.trefi <= self.trfc {
            return Err(crate::DramError::InvalidTiming {
                reason: "tREFI must exceed tRFC",
            });
        }
        Ok(())
    }
}

impl Default for DramTiming {
    /// Defaults to DDR4-3200, the paper's configuration.
    fn default() -> Self {
        DramTiming::ddr4_3200()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        DramTiming::ddr4_3200().validate().unwrap();
        DramTiming::ddr4_2666().validate().unwrap();
        DramTiming::ddr4_2400().validate().unwrap();
    }

    #[test]
    fn peak_bandwidth_matches_speed_grade() {
        assert!((DramTiming::ddr4_3200().peak_gbps(8) - 25.6).abs() < 1e-9);
        assert!((DramTiming::ddr4_2400().peak_gbps(8) - 19.2).abs() < 1e-9);
    }

    #[test]
    fn derived_values() {
        let t = DramTiming::ddr4_3200();
        assert_eq!(t.trc(), 74);
        assert_eq!(t.burst_cycles(), 4);
        assert_eq!(t.read_to_write(), 12);
        assert_eq!(t.write_to_read_same_bg(), 16 + 4 + 12);
        assert!((t.ns_per_cycle() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn invalid_timing_detected() {
        let mut t = DramTiming::ddr4_3200();
        t.tras = 1;
        assert!(t.validate().is_err());

        let mut t = DramTiming::ddr4_3200();
        t.bl = 3;
        assert!(t.validate().is_err());

        let mut t = DramTiming::ddr4_3200();
        t.trefi = t.trfc;
        assert!(t.validate().is_err());
    }

    #[test]
    fn default_is_3200() {
        assert_eq!(DramTiming::default(), DramTiming::ddr4_3200());
    }
}
