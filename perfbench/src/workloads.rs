//! The three benchmark workloads: their inputs (all drawn from the run's
//! seed), their untraced timed repetition, and the correctness checks
//! every repetition must pass.
//!
//! Each repetition starts from a fresh `SystemModel` and fresh pricers,
//! so a cold workload stays cold and no memo survives between
//! repetitions. Modeled queues start empty and the hot-row cache is off.

use std::time::Instant;

use tensordimm_cluster::{
    simulate_cluster, ClusterConfig, ClusterReport, FailoverPolicy, NodeSpec, ShardPlan,
};
use tensordimm_faults::FaultPlan;
use tensordimm_models::Workload;
use tensordimm_serving::{
    simulate_with_pricer, AdmissionPolicy, ArrivalProcess, BatchPolicy, RequestOutcome,
    RequestRecord, RetryPolicy, SimConfig, SimReport,
};
use tensordimm_system::{
    CyclePricer, DesignPoint, PricingBackend, SystemModel, TopologyKind, TransferBackend,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One TensorNode serving a long Poisson stream with a pre-warmed
    /// cycle pricer: the serving event loop does almost all the work.
    NodeWarm,
    /// A 4-node cluster under DIMM faults with analytic pricing: routing,
    /// failover, fault schedules and degraded pricing do the work.
    ClusterFaults,
    /// A 4-node cluster with cold cycle-calibrated pricing and a ring
    /// fabric: cold NMP/DRAM replays do the work.
    ClusterCold,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::NodeWarm, Kind::ClusterFaults, Kind::ClusterCold];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NodeWarm => "node_warm",
            Kind::ClusterFaults => "cluster_faults",
            Kind::ClusterCold => "cluster_cold",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Requests in each workload's arrival trace.
const NODE_WARM_REQUESTS: usize = 1_000_000;
const CLUSTER_FAULTS_REQUESTS: usize = 300_000;
const CLUSTER_COLD_REQUESTS: usize = 100_000;

/// Set-up builds timed per cluster repetition.
const CLUSTER_SETUP_SAMPLES: usize = 9;

/// Rows each cluster request samples to decide its fan-out (as the
/// `sweep_cluster` figures do).
const ROUTED_ROWS: usize = 8;

/// The batch shapes `node_warm` warms its pricer over: every size the
/// `BatchPolicy` can seal.
pub const MAX_BATCH: usize = 32;

/// The three random streams a workload draws, each derived from the run's
/// seed so the same seed always gives the same inputs.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Arrivals = 1,
    Lookups = 2,
    Faults = 3,
}

fn stream_seed(seed: u64, stream: Stream) -> u64 {
    // The stream id sits in the top byte, so no two (seed, stream) pairs
    // below 2^56 collide; the SplitMix64 finalizer then decorrelates
    // nearby seeds.
    let mut z = (seed ^ ((stream as u64) << 56)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The embedding workload every benchmark workload serves.
pub fn workload() -> Workload {
    Workload::facebook()
}

/// The open-loop arrival trace, µs.
pub fn arrivals(kind: Kind, seed: u64) -> Vec<f64> {
    let s = stream_seed(seed, Stream::Arrivals);
    match kind {
        Kind::NodeWarm => ArrivalProcess::Poisson {
            rate_qps: 300_000.0,
        }
        .sample_arrivals_us(NODE_WARM_REQUESTS, s),
        Kind::ClusterFaults => ArrivalProcess::Bursty {
            rate_qps: 300_000.0,
            mean_burst: 4.0,
        }
        .sample_arrivals_us(CLUSTER_FAULTS_REQUESTS, s),
        Kind::ClusterCold => ArrivalProcess::Bursty {
            rate_qps: 200_000.0,
            mean_burst: 8.0,
        }
        .sample_arrivals_us(CLUSTER_COLD_REQUESTS, s),
    }
}

/// The model a workload prices against.
pub fn model(kind: Kind) -> SystemModel {
    let model = SystemModel::paper_defaults();
    match kind {
        Kind::ClusterCold => model.with_transfer(TransferBackend::Fabric(TopologyKind::Ring)),
        Kind::NodeWarm | Kind::ClusterFaults => model,
    }
}

/// `node_warm`'s serving configuration.
pub fn node_config() -> SimConfig {
    SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(MAX_BATCH, 300.0))
        .with_retry(RetryPolicy::none().with_deadline(2_000.0))
        .with_admission(AdmissionPolicy::bounded(256))
}

/// The shapes `node_warm` replays during set-up.
pub fn warm_shapes(workload: &Workload) -> Vec<(Workload, usize)> {
    (1..=MAX_BATCH).map(|b| (workload.clone(), b)).collect()
}

/// The cluster configuration of a cluster workload.
///
/// # Panics
///
/// Panics for [`Kind::NodeWarm`], which has no cluster.
pub fn cluster_config(kind: Kind, seed: u64) -> ClusterConfig {
    let plan = ShardPlan::hot_cold(4, 2, 64).expect("4 nodes hold 2 replicas");
    let lookups = stream_seed(seed, Stream::Lookups);
    match kind {
        Kind::ClusterFaults => {
            let mut faults = FaultPlan::dimm_faults(stream_seed(seed, Stream::Faults), 1.0);
            faults.dimms = 4;
            faults.dimm_candidate_gap_us = 2_000.0;
            faults.dimm_repair_us = 2_500.0;
            let nodes = (0..4)
                .map(|i| NodeSpec::paper(8).with_faults(faults.for_node(i)))
                .collect();
            ClusterConfig::new(
                plan,
                nodes,
                DesignPoint::Tdimm,
                BatchPolicy::new(MAX_BATCH, 300.0),
            )
            .with_retry(
                RetryPolicy::none()
                    .with_deadline(3_000.0)
                    .with_retries(2, 100.0, 1_000.0)
                    .with_hedging(500.0),
            )
            .with_admission(AdmissionPolicy::bounded(256))
            .with_failover(FailoverPolicy::HedgeDegraded)
            .with_lookups(ROUTED_ROWS, 0.9, lookups)
        }
        Kind::ClusterCold => ClusterConfig::new(
            plan,
            vec![NodeSpec::paper(8); 4],
            DesignPoint::Tdimm,
            BatchPolicy::new(MAX_BATCH, 300.0),
        )
        .with_pricing(PricingBackend::CycleCalibrated)
        .with_retry(RetryPolicy::none().with_deadline(3_000.0))
        .with_admission(AdmissionPolicy::bounded(256))
        .with_lookups(ROUTED_ROWS, 0.9, lookups),
        Kind::NodeWarm => panic!("node_warm has no cluster"),
    }
}

/// The modeled outputs of one repetition. They are deterministic for a
/// given seed: any difference between repetitions is a bug.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Median request latency, µs.
    pub p50_us: f64,
    /// p99 request latency, µs.
    pub p99_us: f64,
    /// Completed requests the percentiles are taken over.
    pub completed: usize,
    /// Requests that arrived.
    pub arrived: usize,
    /// Share of arrived requests completed within the SLA.
    pub availability: f64,
    /// Completions within the SLA per modeled second.
    pub goodput_qps: f64,
    /// FNV-1a digest of every per-request record (and, for a cluster,
    /// every shard's records), so bit-identity covers the whole output.
    pub digest: u64,
}

impl Modeled {
    fn fields(&self) -> [u64; 7] {
        [
            self.p50_us.to_bits(),
            self.p99_us.to_bits(),
            self.completed as u64,
            self.arrived as u64,
            self.availability.to_bits(),
            self.goodput_qps.to_bits(),
            self.digest,
        ]
    }

    /// Bit-for-bit equality (`==` on `f64` would equate `0.0` and `-0.0`).
    pub fn bit_identical(&self, other: &Modeled) -> bool {
        self.fields() == other.fields()
    }

    fn check_finite(&self) -> Result<(), String> {
        for (name, v) in [
            ("p50_us", self.p50_us),
            ("p99_us", self.p99_us),
            ("availability", self.availability),
            ("goodput_qps", self.goodput_qps),
        ] {
            if !v.is_finite() {
                return Err(format!("modeled {name} is not finite: {v}"));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn add_f64(&mut self, v: Option<f64>) {
        self.add(v.map_or(u64::MAX, f64::to_bits));
    }

    fn add_outcome(&mut self, o: Option<RequestOutcome>) {
        self.add(match o {
            None => 0,
            Some(RequestOutcome::Completed) => 1,
            Some(RequestOutcome::Shed) => 2,
            Some(RequestOutcome::TimedOut) => 3,
            Some(RequestOutcome::InFlightAtHorizon) => 4,
        });
    }

    fn add_records(&mut self, records: &[RequestRecord]) {
        for r in records {
            self.add_f64(Some(r.arrival_us));
            self.add_f64(r.completion.map(|c| c.dispatch_us));
            self.add_f64(r.completion.map(|c| c.finish_us));
            self.add_outcome(r.outcome);
            self.add(u64::from(r.retries));
        }
    }
}

/// Check a node report and summarise its modeled outputs.
pub fn node_modeled(report: &SimReport) -> Result<Modeled, String> {
    if !report.is_conserved() {
        return Err("node report is not conserved".into());
    }
    let mut digest = Digest::new();
    digest.add_records(&report.records);
    let modeled = Modeled {
        p50_us: report.latency.p50_us,
        p99_us: report.latency.p99_us,
        completed: report.completed,
        arrived: report.arrived,
        availability: report.availability,
        goodput_qps: report.goodput_qps,
        digest: digest.0,
    };
    modeled.check_finite()?;
    Ok(modeled)
}

/// Check a cluster report (and every shard report in it) and summarise
/// its modeled outputs.
pub fn cluster_modeled(report: &ClusterReport) -> Result<Modeled, String> {
    if !report.is_conserved() {
        return Err("cluster report is not conserved".into());
    }
    let mut digest = Digest::new();
    for r in &report.records {
        digest.add_f64(Some(r.arrival_us));
        digest.add_f64(r.finish_us);
        digest.add_outcome(r.outcome);
        digest.add(r.fanout as u64);
    }
    for shard in &report.shards {
        // `ClusterReport::is_conserved` covers the shards; say which one
        // failed if it did not.
        if !shard.report.is_conserved() {
            return Err(format!("shard {} report is not conserved", shard.node));
        }
        digest.add_records(&shard.report.records);
    }
    let modeled = Modeled {
        p50_us: report.latency.p50_us,
        p99_us: report.latency.p99_us,
        completed: report.completed,
        arrived: report.arrived,
        availability: report.availability,
        goodput_qps: report.goodput_qps,
        digest: digest.0,
    };
    modeled.check_finite()?;
    Ok(modeled)
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One untraced repetition's timings and modeled outputs.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Host seconds of set-up: model, arrival trace, fault plans, and
    /// for `node_warm` the pricer warm-up.
    pub setup_s: f64,
    /// Host seconds of the timed `simulate_with_pricer` /
    /// `simulate_cluster` call.
    pub run_s: f64,
    /// Modeled outputs (checked).
    pub modeled: Modeled,
}

/// Run one untraced repetition from fresh state.
///
/// # Errors
///
/// Returns a description of the first failed simulation or check.
pub fn run_rep(kind: Kind, seed: u64) -> Result<Rep, String> {
    match kind {
        Kind::NodeWarm => node_rep(seed).map(|(rep, _)| rep),
        Kind::ClusterFaults | Kind::ClusterCold => cluster_rep(kind, seed).map(|(rep, _)| rep),
    }
}

/// An untraced `node_warm` repetition, returning the full report too
/// (the traced run compares against it).
pub fn node_rep(seed: u64) -> Result<(Rep, SimReport), String> {
    let workload = workload();
    let cfg = node_config();
    let start = Instant::now();
    let model = model(Kind::NodeWarm);
    let arrivals = arrivals(Kind::NodeWarm, seed);
    let pricer = CyclePricer::new(&model);
    pricer.warm(&warm_shapes(&workload), 1);
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let report = simulate_with_pricer(&workload, &cfg, &arrivals, &pricer)
        .map_err(|e| format!("node_warm simulation failed: {e:?}"))?;
    let run_s = start.elapsed().as_secs_f64();
    let modeled = node_modeled(&report)?;
    Ok((
        Rep {
            setup_s,
            run_s,
            modeled,
        },
        report,
    ))
}

/// An untraced cluster repetition, returning the full report too (the
/// traced run compares its shards against it).
pub fn cluster_rep(kind: Kind, seed: u64) -> Result<(Rep, ClusterReport), String> {
    let workload = workload();
    // A cluster's set-up is a few milliseconds at most, so one sample would
    // be mostly timer and cache noise: build it several times and report
    // the median build.
    let mut setups = Vec::with_capacity(CLUSTER_SETUP_SAMPLES);
    let (model, cfg, arrivals) = loop {
        let start = Instant::now();
        let built = (
            model(kind),
            cluster_config(kind, seed),
            arrivals(kind, seed),
        );
        setups.push(start.elapsed().as_secs_f64());
        if setups.len() == CLUSTER_SETUP_SAMPLES {
            break built;
        }
    };
    let setup_s = median(&setups);

    let start = Instant::now();
    let report = simulate_cluster(&model, &workload, &cfg, &arrivals)
        .map_err(|e| format!("{} simulation failed: {e:?}", kind.name()))?;
    let run_s = start.elapsed().as_secs_f64();
    let modeled = cluster_modeled(&report)?;
    Ok((
        Rep {
            setup_s,
            run_s,
            modeled,
        },
        report,
    ))
}
