//! Implementation-overhead models (paper Table 3 and Section 6.5).
//!
//! The paper synthesizes the NMP core for a Xilinx Virtex UltraScale+
//! VCU1525 and reports per-component utilization, and estimates DIMM/node
//! power with Micron's DDR4 system power calculator. No FPGA tools exist in
//! this environment, so this module substitutes:
//!
//! * the reported utilization numbers as reference constants, plus a simple
//!   first-order scaling model for configuration sweeps,
//! * the bandwidth-delay SRAM sizing rule of Section 4.2,
//! * a per-DIMM power constant derived from the paper's Micron-calculator
//!   result (13 W per 128 GB LR-DIMM) with linear scaling in DIMM count.

/// FPGA resource utilization of one NMP-core component, in percent of a
/// VCU1525 (as reported in Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaUtilization {
    /// Component name.
    pub component: &'static str,
    /// Look-up tables, %.
    pub lut: f64,
    /// Flip-flops, %.
    pub ff: f64,
    /// DSP slices, %.
    pub dsp: f64,
    /// Block RAM, %.
    pub bram: f64,
}

impl FpgaUtilization {
    /// Table 3, row "SRAM queues".
    pub fn sram_queues() -> Self {
        FpgaUtilization {
            component: "SRAM queues",
            lut: 0.00,
            ff: 0.00,
            dsp: 0.00,
            bram: 0.01,
        }
    }

    /// Table 3, row "FPU" (single-precision floating point).
    pub fn fpu() -> Self {
        FpgaUtilization {
            component: "FPU",
            lut: 0.19,
            ff: 0.01,
            dsp: 0.20,
            bram: 0.00,
        }
    }

    /// Table 3, row "ALU" (fixed point).
    pub fn alu() -> Self {
        FpgaUtilization {
            component: "ALU",
            lut: 0.09,
            ff: 0.01,
            dsp: 0.01,
            bram: 0.00,
        }
    }

    /// All Table 3 rows in order.
    pub fn table3() -> [FpgaUtilization; 3] {
        [Self::sram_queues(), Self::fpu(), Self::alu()]
    }

    /// First-order scaling for a different lane count: the paper's numbers
    /// assume 16 lanes; DSP/LUT scale linearly with lanes, BRAM with queue
    /// bytes.
    pub fn scaled(&self, lanes: usize, queue_bytes: usize) -> FpgaUtilization {
        let lane_factor = lanes as f64 / 16.0;
        let queue_factor = queue_bytes as f64 / 512.0;
        FpgaUtilization {
            component: self.component,
            lut: self.lut * lane_factor,
            ff: self.ff * lane_factor,
            dsp: self.dsp * lane_factor,
            bram: self.bram * queue_factor,
        }
    }
}

/// The bandwidth-delay-product SRAM sizing rule (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramSizing {
    /// Local channel bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Round-trip fill latency in nanoseconds (20 ns in the paper).
    pub latency_ns: f64,
}

impl SramSizing {
    /// The paper's sizing point: 25.6 GB/s × 20 ns.
    pub fn paper() -> Self {
        SramSizing {
            bandwidth_gbps: 25.6,
            latency_ns: 20.0,
        }
    }

    /// Required queue capacity in bytes (bandwidth × delay).
    pub fn queue_bytes(&self) -> f64 {
        self.bandwidth_gbps * self.latency_ns
    }

    /// Total SRAM across the three queues (A, B, C) in bytes.
    pub fn total_bytes(&self) -> f64 {
        3.0 * self.queue_bytes()
    }
}

/// Power model for TensorDIMMs and the TensorNode (Section 6.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimmPowerModel {
    /// Power of one fully-utilized LR-DIMM in watts (13 W for the 128 GB
    /// LR-DIMM the paper evaluates with Micron's calculator).
    pub watts_per_dimm: f64,
    /// Capacity of one DIMM in GiB.
    pub dimm_capacity_gib: f64,
}

impl DimmPowerModel {
    /// The paper's reference point: 13 W per 128 GB LR-DIMM.
    pub fn paper() -> Self {
        DimmPowerModel {
            watts_per_dimm: 13.0,
            dimm_capacity_gib: 128.0,
        }
    }

    /// Power of a TensorNode with `dimms` TensorDIMMs, watts.
    pub fn node_watts(&self, dimms: usize) -> f64 {
        self.watts_per_dimm * dimms as f64
    }

    /// Node capacity in GiB.
    pub fn node_capacity_gib(&self, dimms: usize) -> f64 {
        self.dimm_capacity_gib * dimms as f64
    }

    /// Whether the node fits an accelerator-module power envelope
    /// (the OCP accelerator module's 350–700 W TDP cited in Section 6.5).
    pub fn fits_oam_envelope(&self, dimms: usize) -> bool {
        self.node_watts(dimms) <= 700.0
    }
}

/// Aggregate overhead summary for one NMP core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NmpOverheads {
    /// Per-component FPGA utilization.
    pub utilization: Vec<FpgaUtilization>,
    /// SRAM sizing rule used.
    pub sram: SramSizing,
    /// Power model used.
    pub power: DimmPowerModel,
}

impl NmpOverheads {
    /// The paper's configuration (16 lanes, 512 B queues, 13 W DIMMs).
    pub fn paper() -> Self {
        NmpOverheads {
            utilization: FpgaUtilization::table3().to_vec(),
            sram: SramSizing::paper(),
            power: DimmPowerModel::paper(),
        }
    }
}

impl Default for NmpOverheads {
    fn default() -> Self {
        NmpOverheads::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_sizing_matches_paper() {
        let s = SramSizing::paper();
        assert!((s.queue_bytes() - 512.0).abs() < 1e-9);
        assert!((s.total_bytes() - 1536.0).abs() < 1e-9, "1.5 KB overall");
    }

    #[test]
    fn node_power_matches_paper() {
        let p = DimmPowerModel::paper();
        assert!((p.node_watts(32) - 416.0).abs() < 1e-9);
        assert!(p.fits_oam_envelope(32));
        assert!(!p.fits_oam_envelope(64));
        assert!((p.node_capacity_gib(32) - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn table3_rows() {
        let rows = FpgaUtilization::table3();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].component, "FPU");
        assert!(rows[1].lut > rows[2].lut, "FPU larger than fixed ALU");
        // Every entry is a tiny fraction of the FPGA.
        for r in rows {
            assert!(r.lut <= 0.2 && r.bram <= 0.01);
        }
    }

    #[test]
    fn scaling_model() {
        let wide = FpgaUtilization::fpu().scaled(32, 1024);
        assert!((wide.lut - 0.38).abs() < 1e-9);
        assert!((wide.bram - 0.0).abs() < 1e-9);
        let queues = FpgaUtilization::sram_queues().scaled(16, 1024);
        assert!((queues.bram - 0.02).abs() < 1e-9);
    }

    #[test]
    fn overheads_aggregate() {
        let o = NmpOverheads::paper();
        let lut: f64 = o.utilization.iter().map(|u| u.lut).sum();
        let bram: f64 = o.utilization.iter().map(|u| u.bram).sum();
        assert!((lut - 0.28).abs() < 1e-9);
        assert!((bram - 0.01).abs() < 1e-9);
    }
}
