//! Measured interconnect fabric vs the closed-form crossbar oracle.
//!
//! The contended node → GPU transfer can be priced two ways: the analytic
//! `Switch` (max-min fluid allocation, closed form) or the cycle-level
//! message [`Fabric`](tensordimm_interconnect::Fabric), which forwards
//! every transfer hop by hop under finite per-link bandwidth. This harness
//!
//! * gates `FullyConnected`-fabric vs analytic agreement within
//!   ±10% across the Fig. 16 link grid (25 / 50 / 150 GB/s) × the
//!   paper workloads' transfer sizes at batch 64 — the two model the same
//!   non-blocking crossbar, so a larger gap means one of them regressed,
//! * re-checks the Fig. 16 ordering (25 GB/s slower than 50 slower than
//!   150) with the transfer *measured* on the fabric instead of assumed
//!   closed-form, for both node-backed designs, and
//! * prints what cheaper physical layouts would cost: the same 8-GPU
//!   broadcast on `Line` and `Ring` fabrics vs the full crossbar.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tensordimm_bench --bin sweep_fabric [-- --quick]
//! ```
//!
//! `--quick` shrinks the grid so CI can gate in seconds. The full tables
//! are reproduced in `EXPERIMENTS.md` ("Measured interconnect fabric").

use std::time::Instant;

use tensordimm_interconnect::{Link, Topology, TopologyKind};
use tensordimm_models::Workload;
use tensordimm_system::{AnalyticPricer, BatchPricer, DesignPoint, SystemModel, TransferBackend};

/// Maximum |fabric − analytic| / analytic allowed on any grid point.
const AGREEMENT_BAND: f64 = 0.10;

const BATCH: usize = 64;
const GPUS: usize = 8;

fn model_at(bw_gbps: f64, transfer: TransferBackend) -> SystemModel {
    let link = Link::nvlink_class(bw_gbps).expect("positive bandwidth");
    SystemModel::paper_defaults()
        .with_topology(Topology::dgx_like(8).with_gpu_link(link))
        .with_transfer(transfer)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let t0 = Instant::now();

    let links: &[f64] = &[25.0, 50.0, 150.0];
    let workloads = Workload::all();
    let workloads: &[Workload] = if quick {
        &workloads[..2]
    } else {
        &workloads[..]
    };
    let gpu_grid: &[usize] = if quick { &[GPUS] } else { &[2, 4, GPUS] };

    // ---- Gate 1: FullyConnected fabric vs analytic Switch ----------------
    println!("FullyConnected fabric vs analytic Switch (batch {BATCH}):");
    println!(
        "{:>7} {:>10} {:>5} {:>6} | {:>12} {:>12} {:>7}",
        "link", "workload", "kind", "gpus", "analytic µs", "fabric µs", "delta"
    );
    let mut worst: f64 = 0.0;
    for &bw in links {
        let analytic = model_at(bw, TransferBackend::Analytic);
        let fabric = model_at(bw, TransferBackend::Fabric(TopologyKind::FullyConnected));
        for w in workloads {
            // Both node designs' transfer sizes: pooled (TDIMM) and
            // gathered (PMEM) bytes.
            for (kind, bytes) in [
                ("pool", w.pooled_bytes(BATCH)),
                ("gath", w.gathered_bytes(BATCH)),
            ] {
                for &gpus in gpu_grid {
                    let a = analytic
                        .contended_node_transfer_us(bytes, gpus)
                        .expect("nonzero gpus");
                    let f = fabric
                        .contended_node_transfer_us(bytes, gpus)
                        .expect("nonzero gpus");
                    let delta = (f - a).abs() / a;
                    worst = worst.max(delta);
                    println!(
                        "{:>4.0}GB {:>10} {:>5} {:>6} | {:>12.2} {:>12.2} {:>6.2}%",
                        bw,
                        w.name,
                        kind,
                        gpus,
                        a,
                        f,
                        100.0 * delta
                    );
                }
            }
        }
    }
    println!("worst fabric-vs-analytic delta: {:.2}%", 100.0 * worst);
    assert!(
        worst < AGREEMENT_BAND,
        "fully-connected fabric diverged {:.1}% from the analytic switch \
         (band {:.0}%)",
        100.0 * worst,
        100.0 * AGREEMENT_BAND
    );

    // ---- Gate 2: Fig. 16 ordering under the measured fabric --------------
    println!();
    println!("Fig. 16 ordering, transfer measured on the fabric (batch {BATCH}, {GPUS} GPUs):");
    println!(
        "{:>6} {:>10} | {:>12} {:>12} {:>12}",
        "design", "workload", "25 GB/s µs", "50 GB/s µs", "150 GB/s µs"
    );
    for design in [DesignPoint::Pmem, DesignPoint::Tdimm] {
        for w in workloads {
            let service: Vec<f64> = links
                .iter()
                .map(|&bw| {
                    let m = model_at(bw, TransferBackend::Fabric(TopologyKind::FullyConnected));
                    AnalyticPricer::new(&m)
                        .price(w, BATCH, design, GPUS)
                        .expect("nonzero gpus")
                        .service_us
                })
                .collect();
            println!(
                "{:>6} {:>10} | {:>12.1} {:>12.1} {:>12.1}",
                design.to_string(),
                w.name,
                service[0],
                service[1],
                service[2]
            );
            assert!(
                service[0] >= service[1] && service[1] >= service[2],
                "{design} on {}: thinner links must not serve faster \
                 (25 GB/s {:.1} µs, 50 GB/s {:.1} µs, 150 GB/s {:.1} µs)",
                w.name,
                service[0],
                service[1],
                service[2]
            );
        }
    }

    // ---- Table 3: what cheaper physical layouts would cost ---------------
    println!();
    println!(
        "Topology comparison ({GPUS} GPUs pulling 16 MiB each from the node, 150 GB/s links):"
    );
    println!("{:>16} | {:>12} {:>9}", "layout", "slowest µs", "vs full");
    let mut layout_times = Vec::new();
    for kind in TopologyKind::all() {
        let t = model_at(150.0, TransferBackend::Fabric(kind))
            .contended_node_transfer_us(16 << 20, GPUS)
            .expect("nonzero gpus");
        layout_times.push((kind, t));
    }
    let full = layout_times
        .iter()
        .find(|(k, _)| *k == TopologyKind::FullyConnected)
        .expect("all() includes the full crossbar")
        .1;
    for (kind, t) in &layout_times {
        println!("{:>16} | {:>12.1} {:>8.2}x", kind.to_string(), t, t / full);
    }
    let line = layout_times
        .iter()
        .find(|(k, _)| *k == TopologyKind::Line)
        .expect("all() includes the line")
        .1;
    let ring = layout_times
        .iter()
        .find(|(k, _)| *k == TopologyKind::Ring)
        .expect("all() includes the ring")
        .1;
    assert!(
        line >= ring && ring >= full,
        "layout ordering regressed: line {line} ring {ring} full {full}"
    );

    println!();
    println!(
        "[sweep_fabric] all gates passed in {:.1}s{}",
        t0.elapsed().as_secs_f64(),
        if quick { " (quick grid)" } else { "" }
    );
}
