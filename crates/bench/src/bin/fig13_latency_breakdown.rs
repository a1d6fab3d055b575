//! Figure 13: latency breakdown of a batch-64 inference for every workload
//! and design point, normalized to the slowest design per workload.

use tensordimm_models::Workload;
use tensordimm_system::{DesignPoint, SystemModel};

const BATCH: usize = 64;

/// The designs that gather embeddings on the CPU.
const CPU_DESIGNS: [DesignPoint; 2] = [DesignPoint::CpuOnly, DesignPoint::CpuGpu];

/// Where a CPU design is lookup/copy dominated, given the workloads where
/// it is not: "on every workload", "on all but NCF", "on no workload".
fn dominated_on(exceptions: &[String], workloads: usize) -> String {
    match exceptions.len() {
        0 => "on every workload".to_string(),
        n if n == workloads => "on no workload".to_string(),
        _ => format!("on all but {}", exceptions.join(", ")),
    }
}

fn main() {
    let model = SystemModel::paper_defaults();
    println!("Figure 13: latency breakdown at batch {BATCH} (normalized to slowest)");
    println!();
    // Per CPU design, the workloads where lookup plus copy is at most half
    // of its latency.
    let mut not_dominated: [Vec<String>; CPU_DESIGNS.len()] = Default::default();
    for w in Workload::all() {
        let totals: Vec<f64> = DesignPoint::all()
            .iter()
            .map(|&d| model.evaluate(&w, BATCH, d).total_us())
            .collect();
        let slowest = totals.iter().cloned().fold(0.0, f64::max);
        println!("{} (slowest = {:.0} us):", w.name, slowest);
        println!(
            "  {:>9} | {:>8} {:>10} {:>12} {:>6} | {:>6} | {:>10}",
            "design", "lookup", "cudaMemcpy", "computation", "else", "total", "(abs us)"
        );
        for d in DesignPoint::all() {
            let b = model.evaluate(&w, BATCH, d);
            println!(
                "  {:>9} | {:>8.3} {:>10.3} {:>12.3} {:>6.3} | {:>6.3} | {:>10.1}",
                d.label(),
                b.lookup_us / slowest,
                b.transfer_us / slowest,
                b.dnn_us / slowest,
                b.other_us / slowest,
                b.total_us() / slowest,
                b.total_us()
            );
            let cpu = CPU_DESIGNS.iter().position(|&c| c == d);
            if let Some(i) = cpu.filter(|_| 2.0 * (b.lookup_us + b.transfer_us) <= b.total_us()) {
                not_dominated[i].push(w.name.to_string());
            }
        }
        println!();
    }
    let n = Workload::all().len();
    let [cpu_only, cpu_gpu] = &not_dominated;
    println!(
        "Shape checks: CPU-GPU is lookup/copy dominated {}, CPU-only {}; \
         TDIMM removes both bottlenecks and approaches GPU-only.",
        dominated_on(cpu_gpu, n),
        dominated_on(cpu_only, n)
    );
}
