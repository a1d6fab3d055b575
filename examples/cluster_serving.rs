//! Sharded cluster serving: replication and failover under a node outage.
//!
//! The paper evaluates one TensorNode; this example shards the embedding
//! tables across four and walks the robustness ladder the cluster crate
//! models. Every request samples its Zipf rows, fans out one sub-request
//! to each shard owning them, and rejoins at **max-of-shards** latency —
//! then node 0 dies for the whole trace and the placement choices start
//! to matter:
//!
//! 1. unreplicated hash placement with static routing — every request
//!    touching the dead shard is shed at the router,
//! 2. replication 2 with rerouting — traffic survives, but the dead
//!    node's whole load funnels onto its ring successor,
//! 3. the hot-cold split — the replicated Zipf head spreads across all
//!    survivors, so the failover hotspot (and the p99 behind it)
//!    shrinks.
//!
//! The example asserts that ladder: the healthy cluster is fully
//! available, and under the outage static routing < hash rerouting ≤ the
//! hot-cold split on availability at the SLA.
//!
//! Run with: `cargo run --release --example cluster_serving`

use tensordimm::cluster::{simulate_cluster, ClusterConfig, FailoverPolicy, NodeSpec, ShardPlan};
use tensordimm::faults::{FaultPlan, NodeOutage};
use tensordimm::models::Workload;
use tensordimm::serving::{AdmissionPolicy, ArrivalProcess, BatchPolicy, RetryPolicy};
use tensordimm::system::{DesignPoint, SystemModel};

const NODES: usize = 4;
const GPUS: usize = 2;
const DIMMS: u64 = 8;
const REQUESTS: usize = 3_000;
const LOAD_QPS: f64 = 320_000.0;
const SLA_US: f64 = 3_000.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = SystemModel::paper_defaults();
    let workload = Workload::facebook();
    let arrivals = ArrivalProcess::Poisson { rate_qps: LOAD_QPS }.sample_arrivals_us(REQUESTS, 42);
    let outage_end = arrivals.last().copied().unwrap_or(0.0) + 1.0;

    // Four lean nodes (2 GPUs, an 8-DIMM bandwidth slice each); node 0 is
    // dead before the first request arrives.
    let nodes = |dead: bool| -> Vec<NodeSpec> {
        let mut lean = NodeSpec::paper(GPUS);
        lean.dimms = DIMMS;
        let mut specs = vec![lean; NODES];
        if dead {
            specs[0] = specs[0].with_faults(FaultPlan::none().with_node_outage(NodeOutage {
                start_us: 0.0,
                duration_us: outage_end,
            }));
        }
        specs
    };
    let cfg = |plan: ShardPlan, dead: bool, failover: FailoverPolicy| -> ClusterConfig {
        ClusterConfig::new(
            plan,
            nodes(dead),
            DesignPoint::Tdimm,
            BatchPolicy::new(32, 300.0),
        )
        .with_retry(RetryPolicy::none().with_deadline(SLA_US))
        .with_admission(AdmissionPolicy::bounded(256))
        .with_failover(failover)
        .with_lookups(2, 0.9, 0x7e50)
    };

    println!(
        "Cluster serving: {NODES}x({GPUS} GPU, {DIMMS}-DIMM) nodes, Facebook, \
         {REQUESTS} requests at {LOAD_QPS:.0} qps, SLA {SLA_US:.0} µs"
    );
    println!(
        "{:<34} {:>13} {:>9} {:>9} {:>8} {:>10}",
        "scenario", "availability", "shed%", "rerouted", "fanout", "p99 µs"
    );

    let scenarios: [(&str, ShardPlan, bool, FailoverPolicy); 4] = [
        (
            "healthy, hash r1",
            ShardPlan::hash(NODES, 1)?,
            false,
            FailoverPolicy::None,
        ),
        (
            "node 0 dead, hash r1, static",
            ShardPlan::hash(NODES, 1)?,
            true,
            FailoverPolicy::None,
        ),
        (
            "node 0 dead, hash r2, reroute",
            ShardPlan::hash(NODES, 2)?,
            true,
            FailoverPolicy::Reroute,
        ),
        (
            "node 0 dead, hot-cold r2, reroute",
            ShardPlan::hot_cold(NODES, 2, 500_000)?,
            true,
            FailoverPolicy::Reroute,
        ),
    ];
    let mut last = None;
    let mut ladder = Vec::new();
    for (label, plan, dead, failover) in scenarios {
        let report = simulate_cluster(&model, &workload, &cfg(plan, dead, failover), &arrivals)?;
        assert!(report.is_conserved(), "cluster accounting must balance");
        ladder.push(report.availability_at(SLA_US));
        println!(
            "{:<34} {:>13.4} {:>9.2} {:>9} {:>8.2} {:>10.1}",
            label,
            ladder[ladder.len() - 1],
            100.0 * report.shed_rate,
            report.routing.rerouted_requests,
            report.routing.mean_fanout,
            report.latency.p99_us
        );
        last = Some(report);
    }

    let [healthy, static_routing, reroute, hot_cold] = ladder[..] else {
        unreachable!("four scenarios ran");
    };
    assert_eq!(healthy, 1.0, "a healthy cluster meets the SLA");
    assert!(
        static_routing < reroute && reroute <= hot_cold,
        "outage ladder: static {static_routing} < reroute {reroute} <= hot-cold {hot_cold}"
    );

    // The hot-cold run is still live here: show where the failover load
    // actually went.
    let hotcold = last.expect("four scenarios ran");
    println!();
    println!("hot-cold failover load per shard (node 0 dead):");
    for shard in &hotcold.shards {
        println!(
            "  node {}: {:>5} sub-requests, p99 {:>7.1} µs",
            shard.node, shard.subrequests, shard.report.latency.p99_us
        );
    }
    Ok(())
}
