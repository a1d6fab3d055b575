//! Sharded cluster serving under replication, failover and faults.
//!
//! The cluster question behind the paper's single-node evaluation: *when
//! embedding tables shard across many TensorNodes and requests rejoin at
//! max-of-shards latency, how much traffic still meets the SLA as nodes
//! degrade and die?* This harness sweeps a nodes × replication ×
//! fault-rate grid over the cluster fan-out/rejoin simulator and reports,
//! per point, availability at a fixed SLA, goodput, mean fan-out and
//! rerouting volume — the table reproduced in `EXPERIMENTS.md` ("Cluster
//! availability under sharding and replication").
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tensordimm_bench --bin sweep_cluster [-- --quick]
//! ```
//!
//! `--quick` shrinks the grid so CI can gate on the invariants in
//! seconds. Gated invariants:
//!
//! * **Inert decomposition** — with replication 1, all-inert fault plans
//!   and static routing, every per-shard report of the cluster run is
//!   bit-identical to an independent single-node `simulate` call on the
//!   shard's derived sub-trace (`shard_traces` exposes exactly those
//!   traces, `shard_sim_config` the per-shard configs).
//!   The same gate runs once more on a small cycle-priced cluster with
//!   mixed DIMM counts, where shards of one DIMM count share one pricer
//!   and model: every shard must still match an independent run with its
//!   own fresh pricer, and the report must not move between 1 and 4
//!   workers.
//! * **Conservation** — at every grid point the rejoined outcome counts
//!   balance (`ClusterReport::is_conserved`, which also re-checks every
//!   per-shard report), including a horizon-cut point that strands
//!   arrivals and leaves sub-requests in flight.
//! * **Monotone availability** — at fixed cluster shape, availability at
//!   the SLA is non-increasing in the per-node DIMM fault rate. Per-node
//!   plans derive from one base via `FaultPlan::for_node`, which remixes
//!   the seed but preserves the thinning construction, so each node's
//!   failure set still nests across rates.
//!
//! The final section stages the placement duel the cluster crate exists
//! to answer: with one node dead for the whole trace, hash placement
//! funnels the dead shard's entire load onto its ring successor, while
//! the hot-cold split load-balances the replicated Zipf head across the
//! survivors and narrows fan-out via affinity — measurably higher
//! availability at the same SLA, asserted below and tabulated in
//! `EXPERIMENTS.md`.

use tensordimm_cluster::{
    shard_sim_config, shard_traces, simulate_cluster, ClusterConfig, ClusterReport, FailoverPolicy,
    NodeSpec, ShardPlan,
};
use tensordimm_models::Workload;
use tensordimm_serving::{
    simulate, AdmissionPolicy, ArrivalProcess, BatchPolicy, FaultPlan, NodeOutage, RetryPolicy,
};
use tensordimm_system::{DesignPoint, PricingBackend, SystemModel};

/// The fixed SLA availability is judged against, µs (also the deadline of
/// the per-shard retry policy, so "timed out" and "too late" agree).
/// Looser than the single-node sweep's 2 ms: a rejoined request pays the
/// *slowest* of several shards, so the healthy tail sits higher.
const SLA_US: f64 = 3_000.0;

/// Arrival-trace seed (shared across every grid point at a given load, so
/// rows differ only by cluster shape and faults, never by traffic).
const TRACE_SEED: u64 = 42;

/// GPUs per node across the whole sweep.
const GPUS: usize = 8;

/// Rows each request samples to decide its fan-out.
const LOOKUPS: usize = 8;

/// The same harsh per-node DIMM-fault plan the single-node availability
/// sweep uses: 2 fault domains, candidates every ~250 µs, 2.5 ms repairs.
/// Each node derives its own decorrelated stream via `for_node`.
fn fault_plan(rate: f64) -> FaultPlan {
    let mut plan = FaultPlan::dimm_faults(0xfa, rate);
    plan.dimms = 2;
    plan.dimm_candidate_gap_us = 250.0;
    plan.dimm_repair_us = 2_500.0;
    plan
}

/// `n` paper nodes, each carrying its own node-derived copy of the base
/// fault plan.
fn cluster_nodes(n: usize, rate: f64) -> Vec<NodeSpec> {
    (0..n)
        .map(|node| NodeSpec::paper(GPUS).with_faults(fault_plan(rate).for_node(node as u64)))
        .collect()
}

fn base_cfg(plan: ShardPlan, nodes: Vec<NodeSpec>) -> ClusterConfig {
    ClusterConfig::new(plan, nodes, DesignPoint::Tdimm, BatchPolicy::new(32, 300.0))
        .with_retry(RetryPolicy::none().with_deadline(SLA_US))
        .with_admission(AdmissionPolicy::bounded(256))
        .with_lookups(LOOKUPS, 0.9, 0x7e50)
}

fn run(model: &SystemModel, w: &Workload, cfg: &ClusterConfig, arrivals: &[f64]) -> ClusterReport {
    let report = simulate_cluster(model, w, cfg, arrivals).expect("valid config and trace");
    assert!(
        report.is_conserved(),
        "conservation violated: {} arrived vs outcomes {:?} (+{} not arrived) of {} offered",
        report.arrived,
        report.outcomes,
        report.not_arrived(),
        report.offered
    );
    report
}

/// Gate 1 on the cycle-priced shard path (shared pricer per DIMM count),
/// on a small inert cluster with mixed DIMM counts.
fn cycle_priced_decomposition(model: &SystemModel) {
    let w = Workload::ncf();
    let dimms = [32, 16, 32, 8];
    let arrivals = ArrivalProcess::Poisson {
        rate_qps: 150_000.0,
    }
    .sample_arrivals_us(200, TRACE_SEED);
    let nodes = dimms
        .iter()
        .map(|&d| NodeSpec {
            dimms: d,
            ..NodeSpec::paper(GPUS)
        })
        .collect();
    let cfg = base_cfg(ShardPlan::hash(dimms.len(), 1).expect("valid plan"), nodes)
        .with_pricing(PricingBackend::CycleCalibrated)
        .with_failover(FailoverPolicy::None);
    let report = run(model, &w, &cfg, &arrivals);
    let traces = shard_traces(&cfg, &w, &arrivals).expect("valid config");
    for (node, trace) in traces.iter().enumerate() {
        let shard_model = model.clone().with_node_dimms(dimms[node]);
        let independent = simulate(&shard_model, &w, &shard_sim_config(&cfg, node), trace)
            .expect("valid shard run");
        assert_eq!(
            report.shards[node].report, independent,
            "cycle-priced cluster: shard {node} ({} DIMMs) must be bit-identical to its \
             independent single-node run",
            dimms[node]
        );
    }
    let par = run(model, &w, &cfg.clone().with_workers(4), &arrivals);
    assert_eq!(
        report, par,
        "cycle-priced cluster must be bit-identical at 1 and 4 workers"
    );
    println!(
        "cycle-priced decomposition ({dimms:?} DIMMs, shared pricer per DIMM count): every \
         shard bit-identical to its independent run, at 1 and 4 workers"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let requests = if quick { 300 } else { 1500 };
    let load_qps = 250_000.0;
    let node_counts: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    let replications: &[usize] = &[1, 2];
    let rates: &[f64] = if quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 1.0]
    };

    let model = SystemModel::paper_defaults();
    let w = Workload::facebook();
    let arrivals =
        ArrivalProcess::Poisson { rate_qps: load_qps }.sample_arrivals_us(requests, TRACE_SEED);

    println!(
        "Cluster sweep: Facebook, {GPUS} GPUs/node, batch<=32, {requests} requests at \
         {load_qps:.0} qps, {LOOKUPS} routed rows/request, SLA {SLA_US:.0} µs, \
         2-domain fault plan per node (gap 250 µs, repair 2500 µs)"
    );

    // Gate 1: with replication 1, all-inert plans and static routing the
    // cluster is exactly N independent single-node simulators — every
    // per-shard report compares bit-identical, records included.
    for &nodes in node_counts {
        let cfg = base_cfg(
            ShardPlan::hash(nodes, 1).expect("valid plan"),
            vec![NodeSpec::paper(GPUS); nodes],
        )
        .with_failover(FailoverPolicy::None);
        let report = run(&model, &w, &cfg, &arrivals);
        let traces = shard_traces(&cfg, &w, &arrivals).expect("valid config");
        let shard_model = model.clone().with_node_dimms(SystemModel::PAPER_NODE_DIMMS);
        for (node, trace) in traces.iter().enumerate().take(nodes) {
            let independent = simulate(&shard_model, &w, &shard_sim_config(&cfg, node), trace)
                .expect("valid shard run");
            assert_eq!(
                report.shards[node].report, independent,
                "{nodes}-node inert cluster: shard {node} must be bit-identical to its \
                 independent single-node run"
            );
        }
    }
    println!("inert decomposition: every shard bit-identical to its independent run");
    cycle_priced_decomposition(&model);
    println!();

    println!(
        "{:>5} {:>4} {:>6} {:>13} {:>12} {:>7} {:>9} {:>8} {:>10}",
        "nodes",
        "repl",
        "rate",
        "availability",
        "goodput qps",
        "shed%",
        "rerouted",
        "fanout",
        "p99 µs"
    );
    for &nodes in node_counts {
        for &replication in replications {
            if replication > nodes {
                continue;
            }
            // Gate 3: availability never rises with the fault rate.
            let mut prev_avail = f64::INFINITY;
            for &rate in rates {
                let cfg = base_cfg(
                    ShardPlan::hash(nodes, replication).expect("valid plan"),
                    cluster_nodes(nodes, rate),
                );
                let report = run(&model, &w, &cfg, &arrivals);
                let avail = report.availability_at(SLA_US);
                assert!(
                    avail <= prev_avail + 1e-9,
                    "{nodes} nodes / replication {replication}: availability rose from \
                     {prev_avail:.4} to {avail:.4} at fault rate {rate}"
                );
                prev_avail = avail;
                println!(
                    "{:>5} {:>4} {:>6.2} {:>13.4} {:>12.0} {:>7.2} {:>9} {:>8.2} {:>10.1}",
                    nodes,
                    replication,
                    rate,
                    avail,
                    report.goodput_qps,
                    100.0 * report.shed_rate,
                    report.routing.rerouted_requests,
                    report.routing.mean_fanout,
                    report.latency.p99_us
                );
            }
        }
    }

    // Gate 2 (horizon leg): cut the worst-case grid point mid-trace so
    // requests are stranded at the router and sub-requests sit queued on
    // shards, and check the rejoined accounting still balances (`run`
    // asserts conservation).
    let nodes = *node_counts.last().expect("nonempty grid");
    let horizon = arrivals.last().copied().unwrap_or(0.0) * 0.5;
    let cut_cfg = base_cfg(
        ShardPlan::hash(nodes, 2).expect("valid plan"),
        cluster_nodes(nodes, 1.0),
    )
    .with_horizon(horizon);
    let cut = run(&model, &w, &cut_cfg, &arrivals);
    assert!(
        cut.not_arrived() > 0,
        "the horizon must cut some arrivals off"
    );
    println!();
    println!(
        "horizon cut at {horizon:.0} µs: {} completed, {} in flight, {} not arrived — conserved",
        cut.completed,
        cut.outcomes.in_flight_at_horizon,
        cut.not_arrived()
    );
    println!();

    // The placement duel: one node dead for the whole trace, replication
    // 2, rerouting failover. Hash placement funnels the dead shard's
    // entire load onto its ring successor; the hot-cold split spreads the
    // replicated Zipf head across the survivors and narrows fan-out via
    // affinity, so it clears the SLA where hash queues.
    // The duel runs lean nodes (2 GPUs, an 8-DIMM bandwidth slice, 3
    // routed rows per request) under a long trace: the successor hotspot
    // only shows once the rerouted load exceeds a node's service rate
    // and queues have time to build — full paper nodes absorb a doubled
    // load without queueing and both placements coast at 1.0.
    let duel_nodes = 4;
    let duel_gpus = 2;
    let duel_dimms = 8;
    let duel_lookups = 2;
    let duel_arrivals = ArrivalProcess::Poisson {
        rate_qps: 340_000.0,
    }
    .sample_arrivals_us(4_000, TRACE_SEED);
    let outage_end = duel_arrivals.last().copied().unwrap_or(0.0) + 1.0;
    let one_dead = || -> Vec<NodeSpec> {
        let mut lean = NodeSpec::paper(duel_gpus);
        lean.dimms = duel_dimms;
        let mut specs = vec![lean; duel_nodes];
        specs[0] = specs[0].with_faults(FaultPlan::none().with_node_outage(NodeOutage {
            start_us: 0.0,
            duration_us: outage_end,
        }));
        specs
    };
    println!(
        "placement duel: {duel_nodes} nodes x {duel_gpus} GPUs x {duel_dimms} DIMMs, \
         replication 2, {duel_lookups} routed rows/request, node 0 dead for the whole trace"
    );
    println!(
        "{:<10} {:>13} {:>12} {:>9} {:>8} {:>10}  per-shard subs (p99 µs)",
        "placement", "availability", "goodput qps", "rerouted", "fanout", "p99 µs"
    );
    let duel = |label: &str, plan: ShardPlan| -> f64 {
        let cfg = base_cfg(plan, one_dead())
            .with_failover(FailoverPolicy::Reroute)
            .with_lookups(duel_lookups, 0.9, 0x7e50);
        let report = run(&model, &w, &cfg, &duel_arrivals);
        let avail = report.availability_at(SLA_US);
        assert_eq!(
            report.shards[0].subrequests, 0,
            "{label}: the dead node must receive no traffic"
        );
        let shard_loads: Vec<String> = report
            .shards
            .iter()
            .map(|s| format!("{}({:.0})", s.subrequests, s.report.latency.p99_us))
            .collect();
        println!(
            "{:<10} {:>13.4} {:>12.0} {:>9} {:>8.2} {:>10.1}  {}",
            label,
            avail,
            report.goodput_qps,
            report.routing.rerouted_requests,
            report.routing.mean_fanout,
            report.latency.p99_us,
            shard_loads.join(" ")
        );
        avail
    };
    let hash_avail = duel("hash", ShardPlan::hash(duel_nodes, 2).expect("valid plan"));
    let hotcold_avail = duel(
        "hot-cold",
        ShardPlan::hot_cold(duel_nodes, 2, 500_000).expect("valid plan"),
    );
    assert!(
        hotcold_avail > hash_avail,
        "hot-cold split must beat hash on availability under a one-node outage \
         (hot-cold {hotcold_avail:.4} vs hash {hash_avail:.4})"
    );
    println!();
    println!(
        "hot-cold split beats hash under the outage: {hotcold_avail:.4} vs {hash_avail:.4} \
         availability at {SLA_US:.0} µs"
    );
    println!("all invariants held: inert decomposition, conservation, monotone availability");
}
