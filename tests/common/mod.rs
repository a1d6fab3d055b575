//! Configurations shared by the allocation and memory tests.

use tensordimm::cluster::{ClusterConfig, FailoverPolicy, NodeSpec, ShardPlan};
use tensordimm::faults::FaultPlan;
use tensordimm::serving::{AdmissionPolicy, BatchPolicy, RetryPolicy};
use tensordimm::system::DesignPoint;

/// Shaped like the `cluster_faults` benchmark: 4 nodes, a replicated
/// 64-row hot head, hedged failover, DIMM faults on every node.
pub fn cluster_faults_config() -> ClusterConfig {
    let mut faults = FaultPlan::dimm_faults(0x5eed, 1.0);
    faults.dimms = 4;
    faults.dimm_candidate_gap_us = 2_000.0;
    faults.dimm_repair_us = 2_500.0;
    let nodes = (0..4)
        .map(|i| NodeSpec::paper(8).with_faults(faults.for_node(i)))
        .collect();
    ClusterConfig::new(
        ShardPlan::hot_cold(4, 2, 64).expect("4 nodes hold 2 replicas"),
        nodes,
        DesignPoint::Tdimm,
        BatchPolicy::new(32, 300.0),
    )
    .with_retry(
        RetryPolicy::none()
            .with_deadline(3_000.0)
            .with_retries(2, 100.0, 1_000.0)
            .with_hedging(500.0),
    )
    .with_admission(AdmissionPolicy::bounded(256))
    .with_failover(FailoverPolicy::HedgeDegraded)
    .with_lookups(8, 0.9, 0x10c5)
}
