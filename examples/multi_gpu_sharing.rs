//! Multiple GPUs sharing one TensorNode: when does the node's NVSwitch
//! port saturate?
//!
//! The paper attaches the TensorNode as one endpoint of the GPU-side
//! switch (Fig. 6c). With NMP reduction, each inference ships only the
//! pooled tensor, so one node port sustains many concurrent GPUs; without
//! it (PMEM), raw gathered embeddings saturate the port almost
//! immediately.
//!
//! Run with: `cargo run --release --example multi_gpu_sharing`

use tensordimm::models::Workload;
use tensordimm::system::SystemModel;

const BATCH: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // NVLINK2 x6 to every GPU through the switch; every GPU pulls one
    // inference's embedding payload from the node concurrently, and the
    // slowest transfer gates the round.
    let model = SystemModel::paper_defaults();
    let w = Workload::facebook();
    let pooled = w.pooled_bytes(BATCH); // TDIMM ships this
    let gathered = w.gathered_bytes(BATCH); // PMEM ships this

    println!(
        "Facebook workload, batch {BATCH}: pooled {} KiB vs gathered {} KiB per inference",
        pooled / 1024,
        gathered / 1024
    );
    println!();
    println!(
        "{:>5} | {:>16} {:>18} | {:>16} {:>18}",
        "GPUs", "TDIMM round (us)", "TDIMM inf/s/node", "PMEM round (us)", "PMEM inf/s/node"
    );
    // Up to a DGX-2's 16 GPUs.
    for gpus in [1usize, 2, 4, 8, 16] {
        let t_tdimm = model.contended_node_transfer_us(pooled, gpus)?;
        let t_pmem = model.contended_node_transfer_us(gathered, gpus)?;
        println!(
            "{:>5} | {:>16.1} {:>18.0} | {:>16.1} {:>18.0}",
            gpus,
            t_tdimm,
            gpus as f64 / (t_tdimm * 1e-6),
            t_pmem,
            gpus as f64 / (t_pmem * 1e-6)
        );
    }
    println!();
    println!(
        "The x{} communication compression of near-memory reduction is what \
         lets one TensorNode feed a whole DGX-2's worth of GPUs.",
        w.reduction_factor()
    );
    Ok(())
}
