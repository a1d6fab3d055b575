//! Point-to-point link models.

use crate::InterconnectError;

/// A point-to-point communication link.
///
/// Transfer time is `setup_us + bytes / (bandwidth * efficiency)` — the
/// standard latency-bandwidth (alpha-beta) model. Setup latency covers
/// driver/DMA initiation (the `cudaMemcpy` fixed cost that makes small
/// PCIe transfers so expensive at low batch sizes).
///
/// # Example
///
/// ```
/// use tensordimm_interconnect::Link;
///
/// let pcie = Link::pcie3_x16();
/// let nvlink = Link::nvlink2_x6();
/// // The paper's ~9x claim: NVLINK moves large payloads ~9x faster.
/// let ratio = pcie.transfer_time_us(1 << 30) / nvlink.transfer_time_us(1 << 30);
/// assert!(ratio > 8.0 && ratio < 11.0, "ratio {ratio}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    name: &'static str,
    bandwidth_gbps: f64,
    efficiency: f64,
    setup_us: f64,
}

impl Link {
    /// A custom link.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for non-positive or
    /// non-finite bandwidth, efficiency, or setup latency. Finiteness
    /// matters: NaN slips through every ordering comparison (all are
    /// false), and a NaN parameter would silently poison every transfer
    /// time computed downstream.
    pub fn new(
        name: &'static str,
        bandwidth_gbps: f64,
        efficiency: f64,
        setup_us: f64,
    ) -> Result<Self, InterconnectError> {
        if !bandwidth_gbps.is_finite() || bandwidth_gbps <= 0.0 {
            return Err(InterconnectError::InvalidLink {
                parameter: "bandwidth_gbps",
            });
        }
        if !efficiency.is_finite() || efficiency <= 0.0 || efficiency > 1.0 {
            return Err(InterconnectError::InvalidLink {
                parameter: "efficiency",
            });
        }
        if !setup_us.is_finite() || setup_us < 0.0 {
            return Err(InterconnectError::InvalidLink {
                parameter: "setup_us",
            });
        }
        Ok(Link {
            name,
            bandwidth_gbps,
            efficiency,
            setup_us,
        })
    }

    /// PCIe 3.0 x16: 16 GB/s unidirectional (Section 2.2), ~80% protocol
    /// efficiency, ~10 µs `cudaMemcpy` initiation cost.
    pub fn pcie3_x16() -> Self {
        Link {
            name: "PCIe3 x16",
            bandwidth_gbps: 16.0,
            efficiency: 0.8,
            setup_us: 10.0,
        }
    }

    /// Six NVLINK v2 bricks (a V100's full complement): 150 GB/s.
    pub fn nvlink2_x6() -> Self {
        Link {
            name: "NVLINK2 x6",
            bandwidth_gbps: 150.0,
            efficiency: 0.9,
            setup_us: 5.0,
        }
    }

    /// A scaled NVLINK-class link of the given aggregate bandwidth —
    /// used by the Fig. 16 link-bandwidth sensitivity sweep
    /// (25 / 50 / 150 GB/s).
    pub fn nvlink_class(bandwidth_gbps: f64) -> Result<Self, InterconnectError> {
        Link::new("NVLINK class", bandwidth_gbps, 0.9, 5.0)
    }

    /// Link name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Nominal unidirectional bandwidth, GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps
    }

    /// Effective bandwidth after protocol efficiency, GB/s.
    pub fn effective_gbps(&self) -> f64 {
        self.bandwidth_gbps * self.efficiency
    }

    /// Fixed per-transfer setup latency, µs.
    pub fn setup_us(&self) -> f64 {
        self.setup_us
    }

    /// Time to move `bytes`, in microseconds.
    pub fn transfer_time_us(&self, bytes: u64) -> f64 {
        self.setup_us + bytes as f64 / (self.effective_gbps() * 1e3)
    }

    /// Full transfer report.
    pub fn transfer(&self, bytes: u64) -> TransferReport {
        let time_us = self.transfer_time_us(bytes);
        TransferReport {
            bytes,
            time_us,
            achieved_gbps: if time_us > 0.0 {
                bytes as f64 / (time_us * 1e3)
            } else {
                0.0
            },
        }
    }
}

/// Result of a modeled transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReport {
    /// Payload size.
    pub bytes: u64,
    /// Transfer time in microseconds.
    pub time_us: f64,
    /// Achieved bandwidth including setup cost, GB/s.
    pub achieved_gbps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_published_numbers() {
        assert_eq!(Link::pcie3_x16().bandwidth_gbps(), 16.0);
        assert_eq!(Link::nvlink2_x6().bandwidth_gbps(), 150.0);
    }

    #[test]
    fn alpha_beta_model() {
        let l = Link::new("test", 10.0, 1.0, 2.0).unwrap();
        // 10 GB/s = 10 KB/us: 100 KB takes 10 us + 2 us setup.
        assert!((l.transfer_time_us(100_000) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn small_transfers_are_latency_bound() {
        let l = Link::pcie3_x16();
        let small = l.transfer(64);
        let big = l.transfer(1 << 30);
        assert!(small.achieved_gbps < 0.1);
        assert!(big.achieved_gbps > 10.0);
    }

    #[test]
    fn invalid_links_rejected() {
        assert!(Link::new("x", 0.0, 0.5, 0.0).is_err());
        assert!(Link::new("x", 1.0, 0.0, 0.0).is_err());
        assert!(Link::new("x", 1.0, 1.5, 0.0).is_err());
        assert!(Link::new("x", 1.0, 1.0, -1.0).is_err());
    }

    /// Regression: NaN passes every ordering comparison (`NaN <= 0.0` is
    /// false), so pre-fix `Link::new` accepted NaN parameters and produced
    /// NaN transfer times everywhere downstream. Infinities likewise.
    #[test]
    fn non_finite_links_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Link::new("x", bad, 0.9, 5.0).is_err(), "bandwidth {bad}");
            assert!(Link::new("x", 25.0, bad, 5.0).is_err(), "efficiency {bad}");
            assert!(Link::new("x", 25.0, 0.9, bad).is_err(), "setup {bad}");
            assert!(Link::nvlink_class(bad).is_err(), "nvlink_class {bad}");
        }
        let parameter = |l: Result<Link, InterconnectError>| match l {
            Err(InterconnectError::InvalidLink { parameter }) => parameter,
            other => panic!("expected InvalidLink, got {other:?}"),
        };
        assert_eq!(
            parameter(Link::new("x", f64::NAN, 0.9, 5.0)),
            "bandwidth_gbps"
        );
        assert_eq!(parameter(Link::new("x", 25.0, f64::NAN, 5.0)), "efficiency");
        assert_eq!(parameter(Link::new("x", 25.0, 0.9, f64::NAN)), "setup_us");
    }

    #[test]
    fn nvlink_class_sweep_points() {
        for bw in [25.0, 50.0, 150.0] {
            let l = Link::nvlink_class(bw).unwrap();
            assert_eq!(l.bandwidth_gbps(), bw);
        }
    }
}
