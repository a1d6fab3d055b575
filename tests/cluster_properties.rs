//! Property tests for the sharded cluster layer: placement owner sets are
//! valid for arbitrary plans, cluster runs replay bit-identically at any
//! worker count, the rejoined outcome accounting conserves requests under
//! arbitrary fault/failover/horizon combinations, an inert cluster
//! decomposes into independent single-node runs, availability is monotone
//! in the per-node fault rate, and an all-dead cluster produces finite
//! metrics (the all-shed contract at cluster scale). A cycle-priced,
//! mixed-DIMM cluster decomposes the same way, with one shared pricer
//! per node shape.
//!
//! Exercises the `tensordimm::cluster` facade path end to end.

use proptest::prelude::*;

use tensordimm::cluster::{
    shard_sim_config, shard_traces, simulate_cluster, ClusterConfig, FailoverPolicy, NodeSpec,
    ShardPlan,
};
use tensordimm::faults::{FaultPlan, NodeOutage};
use tensordimm::models::{Workload, WorkloadName};
use tensordimm::serving::{
    simulate, AdmissionPolicy, ArrivalProcess, BatchPolicy, RequestOutcome, RetryPolicy,
};
use tensordimm::system::{DesignPoint, PricingBackend, SystemModel};

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(WorkloadName::Ncf),
        Just(WorkloadName::YouTube),
        Just(WorkloadName::Facebook),
    ]
    .prop_map(Workload::by_name)
}

/// An arbitrary valid plan over 1–5 nodes: either placement family, any
/// legal replication factor (derived from a free draw so the pair always
/// validates).
fn arb_plan() -> impl Strategy<Value = ShardPlan> {
    (1usize..6, 0usize..32, 0u8..2, 1u64..200_000).prop_map(
        |(nodes, repl_draw, hot_cold, hot_rows)| {
            let replication = 1 + repl_draw % nodes;
            if hot_cold == 1 {
                ShardPlan::hot_cold(nodes, replication, hot_rows)
            } else {
                ShardPlan::hash(nodes, replication)
            }
            .expect("constructed within the validated ranges")
        },
    )
}

fn arb_failover() -> impl Strategy<Value = FailoverPolicy> {
    prop_oneof![
        Just(FailoverPolicy::None),
        Just(FailoverPolicy::Reroute),
        Just(FailoverPolicy::HedgeDegraded),
    ]
}

/// A per-node base fault plan: sometimes inert, sometimes harsh.
fn arb_base_faults() -> impl Strategy<Value = FaultPlan> {
    (0.0f64..1.0, 0u64..50, 0usize..2).prop_map(|(rate, seed, outage)| {
        let outage = outage == 1;
        let mut plan = FaultPlan::dimm_faults(seed, rate);
        plan.dimms = 2;
        plan.dimm_candidate_gap_us = 300.0;
        plan.dimm_repair_us = 2_000.0;
        if outage {
            plan.node_outage = Some(NodeOutage {
                start_us: 200.0,
                duration_us: 900.0,
            });
        }
        plan
    })
}

fn cluster_cfg(plan: ShardPlan, base: FaultPlan, failover: FailoverPolicy) -> ClusterConfig {
    let nodes = (0..plan.nodes())
        .map(|n| NodeSpec::paper(2).with_faults(base.for_node(n as u64)))
        .collect();
    ClusterConfig::new(plan, nodes, DesignPoint::Tdimm, BatchPolicy::new(16, 250.0))
        .with_retry(RetryPolicy::none().with_deadline(4_000.0))
        .with_admission(AdmissionPolicy::bounded(64))
        .with_failover(failover)
        .with_lookups(6, 0.9, 0x7e50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Owner sets are always `replication` distinct in-range nodes led by
    /// the primary, and are a pure function of the row.
    #[test]
    fn owner_sets_are_valid(plan in arb_plan(), rows in prop::collection::vec(0u64..5_000_000, 1..40)) {
        let (mut owners, mut again) = (Vec::new(), Vec::new());
        for row in rows {
            plan.owners_into(row, &mut owners);
            prop_assert_eq!(owners.len(), plan.replication());
            prop_assert!(owners.iter().all(|&o| o < plan.nodes()));
            prop_assert_eq!(owners[0], plan.primary(row));
            let mut sorted = owners.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), plan.replication(), "owners must be distinct");
            plan.owners_into(row, &mut again);
            prop_assert_eq!(&owners, &again);
        }
    }

    /// A cluster run is a pure function of its inputs — bit-identical on
    /// replay and at any worker count.
    #[test]
    fn cluster_replays_bit_identically(
        workload in arb_workload(),
        plan in arb_plan(),
        base in arb_base_faults(),
        failover in arb_failover(),
        seed in 0u64..200,
    ) {
        let model = SystemModel::paper_defaults();
        let cfg = cluster_cfg(plan, base, failover);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 120_000.0 }.sample_arrivals_us(120, seed);
        let a = simulate_cluster(&model, &workload, &cfg, &arrivals).expect("valid");
        let b = simulate_cluster(&model, &workload, &cfg, &arrivals).expect("valid");
        prop_assert_eq!(&a, &b);
        let par = simulate_cluster(&model, &workload, &cfg.clone().with_workers(3), &arrivals)
            .expect("valid");
        prop_assert_eq!(&a, &par, "worker count must not perturb results");
    }

    /// The rejoined accounting conserves requests under arbitrary plans,
    /// faults, failover policies and a mid-trace horizon cut.
    #[test]
    fn cluster_conserves_requests(
        workload in arb_workload(),
        plan in arb_plan(),
        base in arb_base_faults(),
        failover in arb_failover(),
        cut_draw in 0usize..2,
        seed in 0u64..200,
    ) {
        let cut = cut_draw == 1;
        let model = SystemModel::paper_defaults();
        let mut cfg = cluster_cfg(plan, base, failover);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 250_000.0 }.sample_arrivals_us(150, seed);
        if cut {
            cfg = cfg.with_horizon(arrivals[arrivals.len() / 2]);
        }
        let report = simulate_cluster(&model, &workload, &cfg, &arrivals).expect("valid");
        prop_assert!(report.is_conserved());
        prop_assert_eq!(report.outcomes.total(), report.arrived);
        prop_assert_eq!(report.arrived + report.not_arrived(), report.offered);
        prop_assert_eq!(report.outcomes.completed, report.latency.count);
        prop_assert_eq!(
            report.availability.to_bits(),
            report.availability_at(report.sla_us).to_bits()
        );
        if cut {
            prop_assert!(report.not_arrived() > 0, "the cut strands arrivals");
        }
        // Per-record outcomes agree with the counters.
        let by = |want: RequestOutcome| {
            report.records.iter().filter(|r| r.outcome == Some(want)).count()
        };
        prop_assert_eq!(by(RequestOutcome::Completed), report.outcomes.completed);
        prop_assert_eq!(by(RequestOutcome::Shed), report.outcomes.shed);
        prop_assert_eq!(by(RequestOutcome::TimedOut), report.outcomes.timed_out);
        prop_assert_eq!(
            by(RequestOutcome::InFlightAtHorizon),
            report.outcomes.in_flight_at_horizon
        );
    }
}

/// With replication 1, inert plans and static routing the cluster is
/// exactly N independent single-node simulators: every per-shard report
/// compares bit-identical to a standalone `simulate` on the derived
/// sub-trace.
#[test]
fn inert_cluster_decomposes_into_independent_runs() {
    let model = SystemModel::paper_defaults();
    let w = Workload::fox();
    let arrivals = ArrivalProcess::Poisson {
        rate_qps: 180_000.0,
    }
    .sample_arrivals_us(250, 9);
    for plan in [
        ShardPlan::hash(4, 1).expect("valid"),
        ShardPlan::hash(3, 1).expect("valid"),
        ShardPlan::hot_cold(4, 1, 10_000).expect("valid"),
    ] {
        let nodes = plan.nodes();
        let cfg = ClusterConfig::new(
            plan,
            vec![NodeSpec::paper(4); nodes],
            DesignPoint::Tdimm,
            BatchPolicy::new(16, 250.0),
        )
        .with_failover(FailoverPolicy::None);
        let report = simulate_cluster(&model, &w, &cfg, &arrivals).expect("valid");
        let traces = shard_traces(&cfg, &w, &arrivals).expect("valid");
        let shard_model = model.clone().with_node_dimms(SystemModel::PAPER_NODE_DIMMS);
        for (node, trace) in traces.iter().enumerate().take(nodes) {
            let independent =
                simulate(&shard_model, &w, &shard_sim_config(&cfg, node), trace).expect("valid");
            assert_eq!(
                report.shards[node].report, independent,
                "shard {node} diverged from its independent run"
            );
        }
    }
}

/// The cycle-priced shard path on a mixed-DIMM cluster: shards of one
/// DIMM count share one pricer and one sliced model, yet every per-shard
/// report is bit-identical to an independent `simulate` with its own
/// fresh pricer, and the whole report is bit-identical at 1 and 4
/// workers.
#[test]
fn cycle_priced_mixed_dimm_cluster_decomposes_into_independent_runs() {
    let model = SystemModel::paper_defaults();
    let w = Workload::ncf();
    let arrivals = ArrivalProcess::Poisson {
        rate_qps: 150_000.0,
    }
    .sample_arrivals_us(120, 21);
    let dimms = [32, 16, 32, 8];
    let nodes = dimms
        .iter()
        .map(|&d| NodeSpec {
            dimms: d,
            ..NodeSpec::paper(2)
        })
        .collect();
    let cfg = ClusterConfig::new(
        ShardPlan::hash(dimms.len(), 1).expect("valid"),
        nodes,
        DesignPoint::Tdimm,
        BatchPolicy::new(8, 250.0),
    )
    .with_pricing(PricingBackend::CycleCalibrated)
    .with_failover(FailoverPolicy::None);
    let report = simulate_cluster(&model, &w, &cfg, &arrivals).expect("valid");
    assert!(report.is_conserved());
    let traces = shard_traces(&cfg, &w, &arrivals).expect("valid");
    for (node, trace) in traces.iter().enumerate() {
        assert!(!trace.is_empty(), "shard {node} must see traffic");
        let shard_model = model.clone().with_node_dimms(dimms[node]);
        let independent =
            simulate(&shard_model, &w, &shard_sim_config(&cfg, node), trace).expect("valid");
        assert_eq!(
            report.shards[node].report, independent,
            "shard {node} ({} DIMMs) diverged from its independent run",
            dimms[node]
        );
    }
    let par = simulate_cluster(&model, &w, &cfg.clone().with_workers(4), &arrivals).expect("valid");
    assert_eq!(report, par, "worker count must not perturb results");
}

/// Availability at the SLA never rises with the per-node DIMM fault rate:
/// `for_node` preserves the thinning construction, so each node's failure
/// set nests across rates.
#[test]
fn availability_is_monotone_in_fault_rate() {
    let model = SystemModel::paper_defaults();
    let w = Workload::facebook();
    let arrivals = ArrivalProcess::Poisson {
        rate_qps: 250_000.0,
    }
    .sample_arrivals_us(400, 42);
    for failover in [FailoverPolicy::None, FailoverPolicy::Reroute] {
        let mut prev = f64::INFINITY;
        for rate in [0.0, 0.25, 0.5, 1.0] {
            let mut base = FaultPlan::dimm_faults(0xfa, rate);
            base.dimms = 2;
            base.dimm_candidate_gap_us = 250.0;
            base.dimm_repair_us = 2_500.0;
            let cfg = cluster_cfg(ShardPlan::hash(3, 2).expect("valid"), base, failover);
            let report = simulate_cluster(&model, &w, &cfg, &arrivals).expect("valid");
            assert!(report.is_conserved());
            let avail = report.availability_at(3_000.0);
            assert!(
                avail <= prev + 1e-9,
                "{failover:?}: availability rose from {prev:.4} to {avail:.4} at rate {rate}"
            );
            prev = avail;
        }
    }
}

/// Every node dead for the whole trace: with static routing and no
/// replicas everything is shed at the router, and the report still
/// carries finite metrics (availability 0, default latency summary) —
/// the all-shed contract at cluster scale.
#[test]
fn all_dead_cluster_sheds_everything_with_finite_metrics() {
    let model = SystemModel::paper_defaults();
    let w = Workload::ncf();
    let arrivals = ArrivalProcess::Poisson {
        rate_qps: 100_000.0,
    }
    .sample_arrivals_us(60, 4);
    let end = arrivals.last().copied().expect("nonempty") + 1.0;
    let dead = FaultPlan::none().with_node_outage(NodeOutage {
        start_us: 0.0,
        duration_us: end,
    });
    let nodes = (0..3)
        .map(|_| NodeSpec::paper(2).with_faults(dead))
        .collect();
    let cfg = ClusterConfig::new(
        ShardPlan::hash(3, 1).expect("valid"),
        nodes,
        DesignPoint::Tdimm,
        BatchPolicy::new(16, 250.0),
    )
    .with_failover(FailoverPolicy::None);
    let report = simulate_cluster(&model, &w, &cfg, &arrivals).expect("valid");
    assert!(report.is_conserved());
    assert_eq!(report.completed, 0);
    assert_eq!(report.outcomes.shed, report.arrived);
    assert_eq!(report.routing.router_shed, report.arrived);
    assert_eq!(report.availability, 0.0);
    assert_eq!(report.availability_at(1_000.0), 0.0);
    assert!(report.availability_at(f64::INFINITY).is_finite());
    assert_eq!(report.latency.count, 0);
    assert_eq!(
        report.latency.p99_us, 0.0,
        "empty summary stays at defaults"
    );
    assert_eq!(report.goodput_qps, 0.0);
    assert_eq!(report.shed_rate, 1.0);
    assert!(report.routing.mean_fanout == 0.0, "no routed requests");
}
