//! The traced repetition: the same work as the untraced one, decomposed
//! into spans around each layer's public entry points, plus the per-layer
//! metrics read from those spans and from the reports.
//!
//! The untraced run's modeled outputs are the reference: every traced
//! report must equal it bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use tensordimm_cluster::{shard_sim_config, shard_traces, ClusterConfig, ClusterReport};
use tensordimm_isa::AccessPlan;
use tensordimm_models::Workload;
use tensordimm_nmp::NmpCore;
use tensordimm_serving::{simulate_with_pricer, RequestRecord, SimReport};
use tensordimm_system::{CyclePricer, SystemModel};

use crate::trace::{maybe_span, with_pricer, Replay, Span, TracedPricer, Tracer};
use crate::workloads::{self, Kind};

/// Whether a per-layer metric is a host-time measurement (reported as the
/// median over traced repetitions) or a deterministic count or modeled
/// quantity (which must repeat exactly across repetitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nature {
    Host,
    Exact,
}

/// Every per-layer metric, with its unit.
pub const PER_LAYER: &[(&str, &str, Nature)] = &[
    ("serving.self_s", "s", Nature::Host),
    ("serving.ns_per_request", "ns", Nature::Host),
    ("serving.batches", "count", Nature::Exact),
    ("serving.record_bytes", "bytes", Nature::Exact),
    ("serving.pricer_calls", "count", Nature::Exact),
    ("serving.retries", "count", Nature::Exact),
    ("serving.hedge_dispatches", "count", Nature::Exact),
    ("serving.mean_queue_depth", "requests", Nature::Exact),
    ("system.pricer_calls", "count", Nature::Exact),
    ("system.degraded_calls", "count", Nature::Exact),
    ("system.pricer_self_s", "s", Nature::Host),
    ("system.replays", "count", Nature::Exact),
    ("system.replay_s", "s", Nature::Host),
    ("system.memo_lookups", "count", Nature::Exact),
    ("system.memo_hit_ratio", "ratio", Nature::Exact),
    ("nmp.run_plan_s", "s", Nature::Host),
    ("nmp.input_stall_cycles", "cycles", Nature::Exact),
    ("dram.reads", "count", Nature::Exact),
    ("dram.cycles", "cycles", Nature::Exact),
    ("dram.row_hit_ratio", "ratio", Nature::Exact),
    ("dram.host_ns_per_read", "ns", Nature::Host),
    ("interconnect.transfer_keys", "count", Nature::Exact),
    ("interconnect.transfer_s", "s", Nature::Host),
    ("interconnect.ms_per_key", "ms", Nature::Host),
    ("cluster.route_s", "s", Nature::Host),
    ("cluster.shards_s", "s", Nature::Host),
    ("cluster.rejoin_s", "s", Nature::Host),
    ("cluster.subrequests", "count", Nature::Exact),
    ("cluster.hedge_ratio", "ratio", Nature::Exact),
    ("cluster.rerouted_requests", "count", Nature::Exact),
    ("cluster.router_shed", "count", Nature::Exact),
    ("cluster.mean_fanout", "shards", Nature::Exact),
    ("cluster.shard_load_max_over_mean", "ratio", Nature::Exact),
    ("faults.transitions", "count", Nature::Exact),
    ("faults.schedule_s", "s", Nature::Host),
    ("trace.overhead_s", "s", Nature::Host),
];

/// One traced repetition's results.
#[derive(Debug)]
pub struct TracedRep {
    /// Per-layer metric values, keyed by the names in [`PER_LAYER`].
    pub layers: BTreeMap<&'static str, f64>,
    /// Host seconds of the untraced and traced runs the overhead is
    /// taken between.
    pub untraced_run_s: f64,
    pub traced_run_s: f64,
    /// The repetition's spans and per-name self times.
    pub spans: Vec<Span>,
    pub self_times_s: BTreeMap<&'static str, f64>,
}

/// Run one traced repetition (and the untraced repetition it is checked
/// against) from fresh state.
///
/// # Errors
///
/// Returns a description of the first failed simulation or check.
pub fn traced_rep(kind: Kind, seed: u64) -> Result<TracedRep, String> {
    match kind {
        Kind::NodeWarm => node_traced(seed),
        Kind::ClusterFaults | Kind::ClusterCold => cluster_traced(kind, seed),
    }
}

fn node_traced(seed: u64) -> Result<TracedRep, String> {
    let (untraced, reference) = workloads::node_rep(seed)?;

    let tracer = Tracer::new();
    let workload = workloads::workload();
    let cfg = workloads::node_config();
    let model = workloads::model(Kind::NodeWarm);
    let arrivals = workloads::arrivals(Kind::NodeWarm, seed);
    let pricer = CyclePricer::new(&model);
    // `CyclePricer::warm` on one worker, one shape at a time, so each
    // replay gets its own span.
    tracer.span("system.warm", || {
        for (w, batch) in workloads::warm_shapes(&workload) {
            tracer.measure(&pricer, model.config().zipf_s, &w, batch);
        }
    });
    let traced = TracedPricer::new(&pricer, Some(&pricer), &model, &tracer);
    let start = Instant::now();
    let report = tracer
        .span("serving.simulate", || {
            simulate_with_pricer(&workload, &cfg, &arrivals, &traced)
        })
        .map_err(|e| format!("traced node_warm simulation failed: {e:?}"))?;
    let traced_run_s = start.elapsed().as_secs_f64();
    workloads::node_modeled(&report)?;
    if report != reference {
        return Err("traced node_warm report differs from the untraced one".into());
    }

    let mut layers = serving_layers(&tracer, &[&report]);
    nmp_layers(&tracer, &mut layers)?;
    // No cluster and no faults run here.
    for &(name, _, _) in PER_LAYER {
        if name.starts_with("cluster.") || name.starts_with("faults.") {
            layers.insert(name, 0.0);
        }
    }
    layers.insert("trace.overhead_s", traced_run_s - untraced.run_s);
    Ok(TracedRep {
        layers,
        untraced_run_s: untraced.run_s,
        traced_run_s,
        spans: tracer.spans(),
        self_times_s: tracer.self_times_s(),
    })
}

/// The cluster run decomposed from outside: `shard_traces` routes, then
/// every shard runs `simulate_with_pricer` under its `shard_sim_config`
/// on the shard's capacity-sliced model with a fresh pricer — what
/// `simulate_cluster` does before its rejoin.
pub fn decompose(
    model: &SystemModel,
    workload: &Workload,
    cfg: &ClusterConfig,
    arrivals: &[f64],
    tracer: Option<&Tracer>,
) -> Result<Vec<SimReport>, String> {
    let traces = maybe_span(tracer, "cluster.route", || {
        shard_traces(cfg, workload, arrivals)
    })
    .map_err(|e| format!("shard_traces failed: {e:?}"))?;
    traces
        .iter()
        .enumerate()
        .map(|(node, sub)| {
            maybe_span(tracer, "cluster.shard", || {
                let m = model.clone().with_node_dimms(cfg.nodes[node].dimms);
                let sim_cfg = shard_sim_config(cfg, node);
                with_pricer(cfg.pricing, &m, |inner, cycle| match tracer {
                    Some(t) => {
                        let traced = TracedPricer::new(inner, cycle, &m, t);
                        t.span("serving.simulate", || {
                            simulate_with_pricer(workload, &sim_cfg, sub, &traced)
                        })
                    }
                    None => simulate_with_pricer(workload, &sim_cfg, sub, inner),
                })
            })
            .map_err(|e| format!("shard {node} simulation failed: {e:?}"))
        })
        .collect()
}

fn cluster_traced(kind: Kind, seed: u64) -> Result<TracedRep, String> {
    let (cluster_run, reference) = workloads::cluster_rep(kind, seed)?;
    let workload = workloads::workload();
    let cfg = workloads::cluster_config(kind, seed);
    let arrivals = workloads::arrivals(kind, seed);
    let same_shards = |reports: &[SimReport]| {
        reports.len() == reference.shards.len()
            && reports
                .iter()
                .zip(&reference.shards)
                .all(|(r, s)| *r == s.report)
    };

    let model = workloads::model(kind);
    let start = Instant::now();
    let bare = decompose(&model, &workload, &cfg, &arrivals, None)?;
    let untraced_run_s = start.elapsed().as_secs_f64();
    if !same_shards(&bare) {
        return Err("untraced decomposition differs from ClusterReport::shards".into());
    }
    drop(bare);

    let model = workloads::model(kind);
    let tracer = Tracer::new();
    let start = Instant::now();
    let traced = decompose(&model, &workload, &cfg, &arrivals, Some(&tracer))?;
    let traced_run_s = start.elapsed().as_secs_f64();
    if !same_shards(&traced) {
        return Err("traced decomposition differs from ClusterReport::shards".into());
    }
    for r in &traced {
        workloads::node_modeled(r)?;
    }

    // Each shard's engine expands its node's fault plan over the shard's
    // own trace; expand the same plans again, each in a span.
    let mut transitions = 0usize;
    for (node, r) in cfg.nodes.iter().zip(&traced) {
        if node.faults.is_inert() {
            continue;
        }
        let horizon = r.records.last().map_or(0.0, |rec| rec.arrival_us);
        let schedule = tracer
            .span("faults.schedule", || node.faults.schedule(horizon))
            .map_err(|e| format!("fault schedule failed: {e:?}"))?;
        transitions += schedule.transitions().len();
    }

    let shard_refs: Vec<&SimReport> = traced.iter().collect();
    let mut layers = serving_layers(&tracer, &shard_refs);
    nmp_layers(&tracer, &mut layers)?;
    // What `simulate_cluster` does beyond its decomposition: the rejoin
    // and the cluster-level fold. Estimated by difference, so it carries
    // the noise of both runs.
    cluster_layers(
        &reference,
        &tracer,
        cluster_run.run_s - untraced_run_s,
        &mut layers,
    );
    layers.insert("faults.transitions", transitions as f64);
    layers.insert("faults.schedule_s", tracer.total_s("faults.schedule"));
    layers.insert("trace.overhead_s", traced_run_s - untraced_run_s);
    Ok(TracedRep {
        layers,
        untraced_run_s,
        traced_run_s,
        spans: tracer.spans(),
        self_times_s: tracer.self_times_s(),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Serving, pricer and fabric metrics from the spans, the pricer
/// boundary counts and the per-node (per-shard) reports.
fn serving_layers(tracer: &Tracer, reports: &[&SimReport]) -> BTreeMap<&'static str, f64> {
    let self_s = tracer.self_times_s();
    let get = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let counts = tracer.counts();
    let requests: usize = reports.iter().map(|r| r.offered).sum();
    let records: usize = reports.iter().map(|r| r.records.len()).sum();
    let retries: u64 = reports
        .iter()
        .flat_map(|r| &r.records)
        .map(|rec| u64::from(rec.retries))
        .sum();
    let transfer_s = tracer.total_s("interconnect.transfer");
    let mut m = BTreeMap::new();
    m.insert("serving.self_s", get("serving.simulate"));
    m.insert(
        "serving.ns_per_request",
        ratio(get("serving.simulate") * 1e9, requests as f64),
    );
    m.insert(
        "serving.batches",
        reports.iter().map(|r| r.batches.batches).sum::<usize>() as f64,
    );
    m.insert(
        "serving.record_bytes",
        (records * std::mem::size_of::<RequestRecord>()) as f64,
    );
    m.insert("serving.pricer_calls", counts.price_calls as f64);
    m.insert("serving.retries", retries as f64);
    m.insert(
        "serving.hedge_dispatches",
        reports.iter().map(|r| r.hedge_dispatches).sum::<usize>() as f64,
    );
    m.insert(
        "serving.mean_queue_depth",
        ratio(
            reports.iter().map(|r| r.queue.mean_depth).sum(),
            reports.len() as f64,
        ),
    );
    m.insert("system.pricer_calls", counts.price_calls as f64);
    m.insert("system.degraded_calls", counts.degraded_calls as f64);
    m.insert("system.pricer_self_s", get("system.price"));
    m.insert("system.replays", counts.replays as f64);
    m.insert("system.replay_s", tracer.total_s("system.replay"));
    m.insert("system.memo_lookups", counts.memo_lookups as f64);
    m.insert(
        "system.memo_hit_ratio",
        if counts.memo_lookups > 0 {
            1.0 - counts.replays as f64 / counts.memo_lookups as f64
        } else {
            0.0
        },
    );
    m.insert("interconnect.transfer_keys", counts.transfer_keys as f64);
    m.insert("interconnect.transfer_s", transfer_s);
    m.insert(
        "interconnect.ms_per_key",
        ratio(transfer_s * 1e3, counts.transfer_keys as f64),
    );
    m
}

/// NMP and DRAM counters of every cold replay the pricers performed,
/// read by re-running `NmpCore::run_plan` on the same lowered gather.
/// Replays are deterministic, so each distinct shape is re-run once and
/// its counters and host time are counted once per replay of it; the
/// re-run must reproduce the bandwidth the pricer memoized.
fn nmp_layers(tracer: &Tracer, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut distinct: Vec<(Replay, u64)> = Vec::new();
    for r in tracer.replays() {
        let same = |d: &Replay| {
            d.config == r.config
                && d.zipf_s.to_bits() == r.zipf_s.to_bits()
                && d.workload == r.workload
                && d.batch == r.batch
        };
        match distinct.iter_mut().find(|(d, _)| same(d)) {
            Some((d, n)) => {
                if d.gbps.to_bits() != r.gbps.to_bits() {
                    return Err(format!("batch {} replayed to two bandwidths", r.batch));
                }
                *n += 1;
            }
            None => distinct.push((r, 1)),
        }
    }
    let (mut run_plan_s, mut stalls, mut reads, mut cycles) = (0.0, 0u64, 0u64, 0u64);
    let (mut row_hits, mut row_accesses) = (0u64, 0u64);
    for (r, n) in &distinct {
        let (instr, indices, ctx) = r.config.lowered_gather(r.zipf_s, &r.workload, r.batch);
        let plan = AccessPlan::for_dimm(&instr, ctx, Some(&indices))
            .map_err(|e| format!("lowered gather plan is invalid: {e:?}"))?;
        let mut core =
            NmpCore::new(r.config.nmp.clone()).map_err(|e| format!("NMP config: {e:?}"))?;
        let start = Instant::now();
        let stats = tracer
            .span("nmp.run_plan", || core.run_plan(&instr, &plan, ctx))
            .map_err(|e| format!("run_plan failed: {e:?}"))?;
        let secs = start.elapsed().as_secs_f64();
        let gbps = stats.delivered_gbps() * r.config.dimms.max(1) as f64;
        if gbps.to_bits() != r.gbps.to_bits() {
            return Err(format!(
                "run_plan re-run of batch {} gives {gbps} GB/s, the pricer memoized {}",
                r.batch, r.gbps
            ));
        }
        let t = &stats.memory.totals;
        run_plan_s += secs * *n as f64;
        stalls += stats.input_stall_cycles * n;
        reads += t.reads * n;
        cycles += t.cycles * n;
        row_hits += t.row_hits * n;
        row_accesses += (t.row_hits + t.row_misses + t.row_conflicts) * n;
    }
    m.insert("nmp.run_plan_s", run_plan_s);
    m.insert("nmp.input_stall_cycles", stalls as f64);
    m.insert("dram.reads", reads as f64);
    m.insert("dram.cycles", cycles as f64);
    m.insert(
        "dram.row_hit_ratio",
        ratio(row_hits as f64, row_accesses as f64),
    );
    m.insert(
        "dram.host_ns_per_read",
        ratio(run_plan_s * 1e9, reads as f64),
    );
    Ok(())
}

/// Router, route/shard span and rejoin metrics of a cluster run.
fn cluster_layers(
    report: &ClusterReport,
    tracer: &Tracer,
    rejoin_s: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let routing = &report.routing;
    let loads: Vec<f64> = report.shards.iter().map(|s| s.subrequests as f64).collect();
    let mean_load = ratio(loads.iter().sum(), loads.len() as f64);
    m.insert("cluster.route_s", tracer.total_s("cluster.route"));
    m.insert("cluster.shards_s", tracer.total_s("cluster.shard"));
    m.insert("cluster.rejoin_s", rejoin_s);
    m.insert("cluster.subrequests", routing.subrequests as f64);
    m.insert(
        "cluster.hedge_ratio",
        ratio(routing.hedge_subrequests as f64, routing.subrequests as f64),
    );
    m.insert(
        "cluster.rerouted_requests",
        routing.rerouted_requests as f64,
    );
    m.insert("cluster.router_shed", routing.router_shed as f64);
    m.insert("cluster.mean_fanout", routing.mean_fanout);
    m.insert(
        "cluster.shard_load_max_over_mean",
        ratio(loads.iter().copied().fold(0.0, f64::max), mean_load),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordimm_cluster::simulate_cluster;

    /// The outside-in decomposition — `shard_traces`, then one
    /// `simulate_with_pricer` per shard — reproduces `ClusterReport::shards`
    /// bit for bit, with and without the traced pricer, on both cluster
    /// workloads (faults and degraded pricing on one, cold replays and the
    /// fabric on the other).
    #[test]
    fn decomposition_reproduces_cluster_shards() {
        for kind in [Kind::ClusterFaults, Kind::ClusterCold] {
            let w = workloads::workload();
            let cfg = workloads::cluster_config(kind, 7);
            let arrivals = &workloads::arrivals(kind, 7)[..3_000];
            let report =
                simulate_cluster(&workloads::model(kind), &w, &cfg, arrivals).expect("valid run");
            let shards: Vec<&SimReport> = report.shards.iter().map(|s| &s.report).collect();

            let bare =
                decompose(&workloads::model(kind), &w, &cfg, arrivals, None).expect("valid run");
            assert_eq!(bare.iter().collect::<Vec<_>>(), shards, "{kind:?} untraced");

            let tracer = Tracer::new();
            let traced = decompose(&workloads::model(kind), &w, &cfg, arrivals, Some(&tracer))
                .expect("valid run");
            assert_eq!(traced.iter().collect::<Vec<_>>(), shards, "{kind:?} traced");

            let spans = tracer.spans();
            let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
            assert_eq!(named("cluster.route"), 1);
            assert_eq!(named("cluster.shard"), 4);
            assert_eq!(named("serving.simulate"), 4);
            let counts = tracer.counts();
            match kind {
                Kind::ClusterFaults => {
                    assert!(counts.degraded_calls > 0, "faults reach the pricer");
                    assert_eq!(counts.replays, 0);
                }
                _ => assert!(counts.replays > 0, "cold shards replay"),
            }
        }
    }
}
