//! Tour of the event-driven interconnect fabric: route a broadcast over
//! `Line`, `Ring` and `FullyConnected` layouts, watch per-link traffic,
//! and check the crossbar against the closed-form max-min allocation.
//!
//! Run with: `cargo run --release --example fabric_topologies`

use tensordimm::interconnect::fabric::{Fabric, DEFAULT_HANDOFF_US};
use tensordimm::interconnect::{Link, TopologyKind};

/// The slowest delivery of a broadcast from node 0 to every other node.
fn slowest_delivery_us(fabric: &mut Fabric) -> f64 {
    fabric
        .run_until_idle()
        .into_iter()
        .map(|d| d.delivered_us)
        .fold(0.0f64, f64::max)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let link = Link::nvlink2_x6();
    let nodes = 5; // node 0 is the TensorNode, 1..=4 are GPUs
    let bytes = 16u64 << 20;

    // The same broadcast — the TensorNode feeding every GPU 16 MiB — on
    // each physical layout.
    println!("TensorNode broadcast to {} GPUs, 16 MiB each:", nodes - 1);
    let mut crossbar_us = 0.0;
    for kind in TopologyKind::all() {
        let mut fabric = Fabric::new(kind.build(nodes, link.clone())?);
        for gpu in 1..nodes {
            // The sender stalls only for the local handoff; transit is
            // the fabric's business.
            let receipt = fabric.inject(0, gpu, bytes)?;
            assert_eq!(receipt.handoff_us, fabric.layout().local_handoff_us());
        }
        let slowest = slowest_delivery_us(&mut fabric);
        println!(
            "  {:>16}: slowest delivery {slowest:>7.1} µs",
            kind.to_string()
        );
        if kind == TopologyKind::FullyConnected {
            crossbar_us = slowest;
        }

        // Per-link traffic: on the line, everything funnels through the
        // 0→1 wire; the full crossbar spreads it over private links.
        let stats = fabric.stats();
        let busiest = stats
            .per_link
            .iter()
            .max_by_key(|(_, s)| (s.forwarded_bytes, s.peak_in_flight))
            .expect("every layout has links");
        println!(
            "  {:>16}  busiest link {}: {} msgs, {:.0} MiB, peak {} in flight",
            "",
            busiest.0,
            busiest.1.forwarded_messages,
            busiest.1.forwarded_bytes as f64 / (1 << 20) as f64,
            busiest.1.peak_in_flight
        );
    }

    // The crossbar without the handoff is the paper's NVSwitch: every GPU
    // streams at an equal share of the node's egress port, so the
    // closed form is setup + bytes / (capacity / GPUs).
    let mut bare = Fabric::new(
        TopologyKind::FullyConnected
            .build(nodes, link.clone())?
            .with_handoff_us(0.0),
    );
    for gpu in 1..nodes {
        bare.inject(0, gpu, bytes)?;
    }
    let bare_us = slowest_delivery_us(&mut bare);
    let closed_form =
        link.setup_us() + bytes as f64 / (link.effective_gbps() * 1e3 / (nodes - 1) as f64);
    let rel = |t: f64| (t - closed_form).abs() / closed_form;
    println!();
    println!(
        "closed form {closed_form:.3} µs; zero-handoff crossbar {bare_us:.3} µs; \
         crossbar {crossbar_us:.3} µs = closed form + {:.3} µs handoff",
        crossbar_us - closed_form
    );
    assert!(rel(bare_us) < 1e-12, "zero-handoff crossbar is exact");
    assert!(
        rel(crossbar_us - DEFAULT_HANDOFF_US) < 1e-12,
        "the crossbar sits exactly one handoff later"
    );
    Ok(())
}
