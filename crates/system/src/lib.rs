//! End-to-end system model: the five recommender design points.
//!
//! Section 6 of the paper compares five ways of deploying a recommender
//! whose embedding tables exceed GPU memory:
//!
//! * [`DesignPoint::CpuOnly`] — embeddings *and* DNN on the host CPU,
//! * [`DesignPoint::CpuGpu`] — embeddings gathered on the CPU, shipped over
//!   PCIe with `cudaMemcpy`, DNN on the GPU,
//! * [`DesignPoint::Pmem`] — a pooled-memory node on the GPU interconnect
//!   *without* NMP: raw embeddings cross NVLINK, the GPU pools them,
//! * [`DesignPoint::Tdimm`] — the proposal: NMP gather + reduction inside
//!   the TensorNode, only pooled tensors cross NVLINK,
//! * [`DesignPoint::GpuOnly`] — the unbuildable oracle with infinite GPU
//!   memory.
//!
//! [`SystemModel::evaluate`] produces the per-phase latency breakdown of
//! Fig. 13 (embedding lookup / `cudaMemcpy` / DNN computation / else) from
//! which Figs. 4, 14, 15 and 16 all derive.
//!
//! # Example
//!
//! ```
//! use tensordimm_system::{DesignPoint, SystemModel};
//! use tensordimm_models::Workload;
//!
//! let model = SystemModel::paper_defaults();
//! let w = Workload::facebook();
//! let tdimm = model.evaluate(&w, 64, DesignPoint::Tdimm);
//! let cpu = model.evaluate(&w, 64, DesignPoint::CpuOnly);
//! let oracle = model.evaluate(&w, 64, DesignPoint::GpuOnly);
//! assert!(cpu.total_us() > 3.0 * tdimm.total_us());
//! assert!(tdimm.total_us() < 1.5 * oracle.total_us());
//! ```

pub mod breakdown;
pub mod design;
pub mod model;
pub mod pricer;
pub mod sweep;

pub use breakdown::PhaseBreakdown;
pub use design::DesignPoint;
pub use model::{SystemModel, SystemModelConfig, TransferBackend};
pub use pricer::{
    AnalyticPricer, BatchCost, BatchPricer, CycleKey, CycleMeasure, CyclePricer, CyclePricerConfig,
    DegradedNode, PricingBackend,
};
pub use sweep::{geometric_mean, normalized_performance, speedup_matrix, SweepPoint};
pub use tensordimm_cache::{HotRowCacheConfig, HotRowStats};
pub use tensordimm_interconnect::TopologyKind;

#[cfg(test)]
mod tests {
    use super::*;
    use tensordimm_models::Workload;

    /// The headline claims of the paper, as loose shape assertions:
    /// average TDIMM speedups of 6.2x over CPU-only and 8.9x over CPU-GPU
    /// at default embedding size, and ~84% of the GPU-only oracle.
    #[test]
    fn headline_shape_holds() {
        let model = SystemModel::paper_defaults();
        let batches = [8usize, 64, 128]; // the Fig. 14/15 batch grid
        let mut vs_cpu = Vec::new();
        let mut vs_hybrid = Vec::new();
        let mut vs_oracle = Vec::new();
        for w in Workload::all() {
            for &b in &batches {
                let t = model.evaluate(&w, b, DesignPoint::Tdimm).total_us();
                let c = model.evaluate(&w, b, DesignPoint::CpuOnly).total_us();
                let h = model.evaluate(&w, b, DesignPoint::CpuGpu).total_us();
                let o = model.evaluate(&w, b, DesignPoint::GpuOnly).total_us();
                vs_cpu.push(c / t);
                vs_hybrid.push(h / t);
                vs_oracle.push(o / t);
            }
        }
        let g_cpu = geometric_mean(&vs_cpu);
        let g_hybrid = geometric_mean(&vs_hybrid);
        let g_oracle = geometric_mean(&vs_oracle);
        assert!(
            (4.0..12.0).contains(&g_cpu),
            "TDIMM vs CPU-only geomean speedup {g_cpu} (paper: 6.2x)"
        );
        assert!(
            (6.0..16.0).contains(&g_hybrid),
            "TDIMM vs CPU-GPU geomean speedup {g_hybrid} (paper: 8.9x)"
        );
        assert!(
            (0.70..0.98).contains(&g_oracle),
            "TDIMM fraction of oracle {g_oracle} (paper: 0.84)"
        );
    }
}
