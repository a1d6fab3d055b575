//! Golden-regression layer over the paper-figure pipelines.
//!
//! The figure binaries (`fig04`, `fig12`, `fig14`, …) print their numbers
//! but nothing asserted them, so a latency-model refactor could silently
//! invert the paper's headline TDIMM-vs-PMEM conclusions without a test
//! failing. This suite snapshots the key quantities behind three figures
//! as asserted ranges and orderings. The bands are ±~10% around the values
//! the model produced when this file was written; they are deliberately
//! looser than run-to-run noise (everything here is deterministic) so only
//! *model* changes trip them — and a deliberate recalibration should
//! update them alongside an EXPERIMENTS.md note.

use tensordimm::models::Workload;
use tensordimm::system::{
    geometric_mean, AnalyticPricer, BatchPricer, CyclePricer, CyclePricerConfig, DesignPoint,
    SystemModel,
};
use tensordimm_bench::traffic::{cpu_gbps, tensornode_gbps, OpExperiment, OpKind};

/// The Fig. 4/14 batch grid.
const BATCHES: [usize; 3] = [8, 64, 128];

fn geomean_normalized(model: &SystemModel, design: DesignPoint, batches: &[usize]) -> f64 {
    let vals: Vec<f64> = Workload::all()
        .iter()
        .flat_map(|w| batches.iter().map(|&b| model.normalized(w, b, design)))
        .collect();
    geometric_mean(&vals)
}

// ---------------------------------------------------------------- Fig. 4

/// Fig. 4's headline: both baselines sit far below the GPU-only oracle,
/// and the hybrid is *worse* than CPU-only on average (PCIe copies of
/// gathered embeddings dominate).
#[test]
fn fig04_baseline_gap_bands() {
    let m = SystemModel::paper_defaults();
    let batches = [1usize, 8, 64, 128]; // fig04 includes batch 1
    let g_cpu = geomean_normalized(&m, DesignPoint::CpuOnly, &batches);
    let g_hybrid = geomean_normalized(&m, DesignPoint::CpuGpu, &batches);
    // Snapshot: 0.235 / 0.149 (slowdowns 4.3x / 6.7x).
    assert!((0.20..0.27).contains(&g_cpu), "CPU-only geomean {g_cpu:.3}");
    assert!(
        (0.12..0.18).contains(&g_hybrid),
        "CPU-GPU geomean {g_hybrid:.3}"
    );
    assert!(
        g_hybrid < g_cpu,
        "hybrid ({g_hybrid:.3}) must average below CPU-only ({g_cpu:.3})"
    );
}

/// Fig. 4's low-batch crossover: at batch 1 NCF is better served by the
/// CPU alone than by paying the PCIe copy; by batch 128 the order flips.
#[test]
fn fig04_low_batch_crossover() {
    let m = SystemModel::paper_defaults();
    let w = Workload::ncf();
    assert!(
        m.normalized(&w, 1, DesignPoint::CpuOnly) > m.normalized(&w, 1, DesignPoint::CpuGpu),
        "batch-1 crossover lost"
    );
    assert!(
        m.normalized(&w, 128, DesignPoint::CpuOnly) < m.normalized(&w, 128, DesignPoint::CpuGpu),
        "large-batch order lost"
    );
}

// --------------------------------------------------------------- Fig. 12

/// Fig. 12 on a scaled-down experiment (the full sweep takes minutes):
/// TensorNode bandwidth scales with DIMM count while the CPU memory
/// system stays pinned at its fixed channel bandwidth.
#[test]
fn fig12_dimm_scaling_bands() {
    let exp = |scale: u64| {
        move |op| OpExperiment {
            op,
            count: 16 * 50,
            vec_blocks: 32 * scale,
            table_rows: 200_000,
            seed: 0xf1202,
            zipf_s: 0.0,
        }
    };
    // Snapshot at 32 DIMMs: GATHER 757, REDUCE 793, AVERAGE 797 GB/s.
    let gather32 = tensornode_gbps(&exp(1)(OpKind::Gather), 32);
    let reduce32 = tensornode_gbps(&exp(1)(OpKind::Reduce), 32);
    let avg32 = tensornode_gbps(&exp(1)(OpKind::Average { group: 50 }), 32);
    assert!(
        (680.0..819.2).contains(&gather32),
        "GATHER@32 {gather32:.0} GB/s"
    );
    assert!(
        (715.0..819.2).contains(&reduce32),
        "REDUCE@32 {reduce32:.0} GB/s"
    );
    assert!(
        (715.0..819.2).contains(&avg32),
        "AVERAGE@32 {avg32:.0} GB/s"
    );

    // Doubling DIMMs (with 2x embeddings, as the paper provisions) must
    // double node bandwidth to within 10%.
    let gather64 = tensornode_gbps(&exp(2)(OpKind::Gather), 64);
    let ratio = gather64 / gather32;
    assert!(
        (1.8..2.2).contains(&ratio),
        "64/32-DIMM scaling {ratio:.2}x"
    );

    // The CPU side saturates below its 204.8 GB/s physical peak no matter
    // how many ranks are installed. Snapshot: ~190 GB/s.
    let cpu32 = cpu_gbps(&exp(1)(OpKind::Gather), 8, 4);
    let cpu64 = cpu_gbps(&exp(2)(OpKind::Gather), 8, 8);
    for (label, bw) in [("4 ranks", cpu32), ("8 ranks", cpu64)] {
        assert!((150.0..204.8).contains(&bw), "CPU {label}: {bw:.0} GB/s");
    }
    assert!(
        gather32 > 3.0 * cpu32,
        "node@32 ({gather32:.0}) must dwarf CPU ({cpu32:.0})"
    );
}

// --------------------------------------------------------------- Fig. 14

/// Fig. 14's geomeans, as bands around the snapshot values
/// (CPU-only 0.141, CPU-GPU 0.096, PMEM 0.508, TDIMM 0.850).
#[test]
fn fig14_geomean_bands() {
    let m = SystemModel::paper_defaults();
    let bands = [
        (DesignPoint::CpuOnly, 0.12, 0.17),
        (DesignPoint::CpuGpu, 0.08, 0.12),
        (DesignPoint::Pmem, 0.45, 0.57),
        (DesignPoint::Tdimm, 0.80, 0.90),
    ];
    for (design, lo, hi) in bands {
        let g = geomean_normalized(&m, design, &BATCHES);
        assert!(
            (lo..hi).contains(&g),
            "{design} geomean {g:.3} outside [{lo}, {hi})"
        );
    }
}

/// The per-point orderings that carry the paper's conclusions: every
/// workload × batch keeps `baselines < PMEM ≲ TDIMM ≤ oracle`, and TDIMM
/// never drops below 75% of the oracle (paper: "never below 75%").
#[test]
fn fig14_orderings_hold_pointwise() {
    let m = SystemModel::paper_defaults();
    for w in Workload::all() {
        for &b in &BATCHES {
            let cpu = m.normalized(&w, b, DesignPoint::CpuOnly);
            let hybrid = m.normalized(&w, b, DesignPoint::CpuGpu);
            let pmem = m.normalized(&w, b, DesignPoint::Pmem);
            let tdimm = m.normalized(&w, b, DesignPoint::Tdimm);
            assert!(
                cpu.max(hybrid) < pmem,
                "{} b{b}: baselines beat PMEM",
                w.name
            );
            // NCF's reduction factor of 2 makes TDIMM/PMEM a near-tie, and
            // at batch 8 the TensorISA dispatch overhead even puts PMEM
            // ~10% ahead (snapshot: 0.902 vs 0.820) — hold that band, not
            // strict dominance.
            let tie_tolerance = if w.name == tensordimm::models::WorkloadName::Ncf {
                0.89
            } else {
                1.0
            };
            assert!(
                tdimm > pmem * tie_tolerance,
                "{} b{b}: PMEM beat TDIMM",
                w.name
            );
            assert!(tdimm <= 1.001, "{} b{b}: TDIMM beat the oracle", w.name);
            assert!(
                tdimm >= 0.75,
                "{} b{b}: TDIMM fell to {tdimm:.3} of oracle",
                w.name
            );
        }
    }
}

/// The Fig. 14 orderings must survive swapping the serving layer's batch
/// pricer from the analytic model to the cycle-calibrated backend (each
/// batch's Zipf gather trace replayed on the event-driven DRAM/NMP
/// co-simulator): per workload, `baselines < PMEM ≲ TDIMM` on solo batch
/// cost, and the two backends agree within the documented ±15% band
/// (EXPERIMENTS.md, "Analytic vs cycle-calibrated serving"; the full grid
/// is gated by `sweep_backend_compare`). Debug builds replay a shortened
/// trace — bandwidth reaches steady state well before the cap.
#[test]
fn fig14_orderings_hold_under_cycle_pricer() {
    let m = SystemModel::paper_defaults();
    let analytic = AnalyticPricer::new(&m);
    let mut cfg = CyclePricerConfig::paper_defaults();
    cfg.max_replayed_lookups = 384;
    let cycle = CyclePricer::with_config(&m, cfg).expect("valid replay config");
    let batch = 64;
    for w in Workload::all() {
        let cost = |pricer: &dyn BatchPricer, d: DesignPoint| {
            pricer
                .price(&w, batch, d, 1)
                .expect("valid point")
                .service_us
        };
        for pricer in [&analytic as &dyn BatchPricer, &cycle as &dyn BatchPricer] {
            let cpu = cost(pricer, DesignPoint::CpuOnly);
            let hybrid = cost(pricer, DesignPoint::CpuGpu);
            let pmem = cost(pricer, DesignPoint::Pmem);
            let tdimm = cost(pricer, DesignPoint::Tdimm);
            let oracle = cost(pricer, DesignPoint::GpuOnly);
            let tag = pricer.backend().label();
            assert!(
                pmem < cpu.min(hybrid),
                "{} [{tag}]: PMEM {pmem:.1} must beat baselines",
                w.name
            );
            // NCF's reduction factor of 2 keeps TDIMM/PMEM a near-tie.
            let tie = if w.name == tensordimm::models::WorkloadName::Ncf {
                1.13
            } else {
                1.0
            };
            assert!(
                tdimm <= pmem * tie,
                "{} [{tag}]: PMEM {pmem:.1} beat TDIMM {tdimm:.1}",
                w.name
            );
            assert!(
                oracle <= tdimm * 1.001,
                "{} [{tag}]: TDIMM beat the oracle",
                w.name
            );
        }
        for d in [DesignPoint::Pmem, DesignPoint::Tdimm] {
            let a = cost(&analytic, d);
            let c = cost(&cycle, d);
            let gap = (c - a).abs() / a;
            assert!(
                gap < 0.15,
                "{} {d}: cycle {c:.1} vs analytic {a:.1} diverged {gap:.3}",
                w.name
            );
        }
    }
}

/// The headline TDIMM-over-PMEM gap on the highest-reduction workload:
/// Facebook at batch 64 snapshots at 1.91x; hold it within ±15%.
#[test]
fn fig14_tdimm_speedup_over_pmem_band() {
    let m = SystemModel::paper_defaults();
    let w = Workload::facebook();
    let s = m.speedup(&w, 64, DesignPoint::Tdimm, DesignPoint::Pmem);
    assert!(
        (1.6..2.2).contains(&s),
        "TDIMM over PMEM on Facebook@64: {s:.2}x"
    );
}
