//! Offered-load sweeps and SLA analysis.
//!
//! The serving question the paper's Fig. 6c argument poses at request
//! granularity: *how much traffic can each design absorb before its tail
//! latency violates the SLA?* A sweep runs the simulator at increasing
//! offered loads and reports the latency/throughput curve; the sustainable
//! QPS is the highest offered load of the *passing prefix* — the rates a
//! capacity planner could actually admit before first violating the SLA.
//!
//! Sweep points are mutually independent (each rate gets its own arrival
//! trace and simulator run; only the memoized pricing tables are shared,
//! and those are deterministic pure functions of their keys), so
//! [`offered_load_sweep_par`] fans them across a scoped worker pool and
//! merges in input order — the result is bit-identical to the sequential
//! [`offered_load_sweep`] at any worker count.

use tensordimm_models::Workload;
use tensordimm_system::SystemModel;

use crate::arrivals::ArrivalProcess;
use crate::sim::{simulate_with_pricer, validate_zipf_s, SimConfig, SimError, SimReport};

/// One point of an offered-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load the arrival trace was drawn at, queries per second.
    pub offered_qps: f64,
    /// The simulation outcome.
    pub report: SimReport,
}

/// The arrival trace for one sweep rate: `requests` Poisson arrivals at
/// `rate_qps`, deterministic per `seed`. Every rate reuses the same seed,
/// so curves differ only by load — and because sampling is hoisted out of
/// the priced path, the per-rate trace is a pure function of
/// `(rate, requests, seed)`, identical whether the sweep runs
/// sequentially or in parallel (pinned by the trace-identity tests).
pub fn sweep_arrivals_us(rate_qps: f64, requests: usize, seed: u64) -> Vec<f64> {
    ArrivalProcess::Poisson { rate_qps }.sample_arrivals_us(requests, seed)
}

/// Simulate `cfg` under Poisson traffic at each rate in `rates_qps`,
/// `requests` per point, deterministic per `seed` (each rate reuses the
/// same seed so curves differ only by load).
///
/// One pricing backend instance (per `cfg.pricing`) is shared across all
/// rates, so a cycle-calibrated sweep replays each distinct batch shape
/// once and serves every later load point from the memoized latency table.
///
/// This is the sequential oracle; [`offered_load_sweep_par`] is the
/// bit-identical parallel path.
///
/// # Errors
///
/// Propagates [`SimError`] from any point.
pub fn offered_load_sweep(
    model: &SystemModel,
    workload: &Workload,
    cfg: &SimConfig,
    rates_qps: &[f64],
    requests: usize,
    seed: u64,
) -> Result<Vec<LoadPoint>, SimError> {
    offered_load_sweep_par(model, workload, cfg, rates_qps, requests, seed, 1)
}

/// [`offered_load_sweep`] with the independent load points fanned across
/// up to `workers` scoped threads (1 = the sequential oracle path).
///
/// Arrival sampling is hoisted out of the priced path: every rate's trace
/// is drawn up front (identical to the sequential order), then the
/// simulator runs are distributed over the pool and merged back **in
/// input order**. One pricing backend is shared by all workers — with the
/// cycle-calibrated backend, concurrent cold misses for distinct batch
/// shapes replay in parallel while same-shape misses share one replay —
/// so the returned curve is bit-identical at any worker count.
///
/// # Errors
///
/// Propagates [`SimError`]; when several points fail, the error of the
/// earliest-index rate is returned (matching the sequential path).
#[allow(clippy::too_many_arguments)]
pub fn offered_load_sweep_par(
    model: &SystemModel,
    workload: &Workload,
    cfg: &SimConfig,
    rates_qps: &[f64],
    requests: usize,
    seed: u64,
    workers: usize,
) -> Result<Vec<LoadPoint>, SimError> {
    validate_zipf_s(model.config().zipf_s)?;
    let pricer = cfg.pricing.build(model);
    let pricer = pricer.as_ref();
    // Sample every rate's arrivals before any pricing happens.
    let jobs: Vec<(f64, Vec<f64>)> = rates_qps
        .iter()
        .map(|&rate_qps| (rate_qps, sweep_arrivals_us(rate_qps, requests, seed)))
        .collect();
    tensordimm_exec::par_map(&jobs, workers, |_, (rate_qps, arrivals)| {
        Ok(LoadPoint {
            offered_qps: *rate_qps,
            report: simulate_with_pricer(workload, cfg, arrivals, pricer)?,
        })
    })
    .into_iter()
    .collect()
}

/// The sustainable QPS at the SLA: the highest offered load of the
/// *passing prefix* of `points` — every point up to and including it must
/// complete work and meet `sla_p99_us`. `None` when the very first point
/// already violates it (or `points` is empty).
///
/// Prefix (not global-filter) semantics matter for non-monotone curves:
/// overload points are noisy, and a lucky high-rate pass after an SLA
/// violation is not capacity a planner could admit — the frontier stops
/// at the first violating rate (see the regression test).
pub fn sustainable_qps(points: &[LoadPoint], sla_p99_us: f64) -> Option<f64> {
    points
        .iter()
        .take_while(|p| p.report.completed > 0 && p.report.latency.p99_us <= sla_p99_us)
        .map(|p| p.offered_qps)
        .fold(None, |best, q| Some(best.map_or(q, |b: f64| b.max(q))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::metrics::LatencySummary;
    use tensordimm_system::{DesignPoint, PricingBackend};

    #[test]
    fn overload_blows_up_tail_latency() {
        let model = SystemModel::paper_defaults();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(32, 300.0));
        // 4 GPUs saturate well under 1M qps on Facebook; 5M qps is deep
        // overload, so the backlog (not the batch window) sets the tail.
        let points =
            offered_load_sweep(&model, &w, &cfg, &[10_000.0, 5_000_000.0], 1200, 3).expect("valid");
        assert!(
            points[1].report.latency.p99_us > 3.0 * points[0].report.latency.p99_us,
            "p99 in overload {} vs light load {}",
            points[1].report.latency.p99_us,
            points[0].report.latency.p99_us
        );
        // Throughput saturates: delivered qps in overload is far below offered.
        assert!(points[1].report.throughput_qps < 0.5 * points[1].offered_qps);
    }

    #[test]
    fn sustainable_qps_picks_highest_passing_rate() {
        let model = SystemModel::paper_defaults();
        let w = Workload::youtube();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0));
        let rates = [10_000.0, 50_000.0, 20_000_000.0];
        let points = offered_load_sweep(&model, &w, &cfg, &rates, 2000, 9).expect("valid");
        // An SLA of twice the light-load tail admits the low rates, while
        // deep overload (20M qps against ~1.4M qps of capacity) blows it.
        let sla = 2.0 * points[0].report.latency.p99_us;
        let q = sustainable_qps(&points, sla).expect("low rates meet a generous SLA");
        assert!(
            (10_000.0..20_000_000.0).contains(&q),
            "sustainable {q:.0} qps"
        );
        assert!(
            points[2].report.latency.p99_us > sla,
            "20M qps p99 {:.0} µs should violate the {sla:.0} µs SLA",
            points[2].report.latency.p99_us
        );
        // An impossible SLA admits nothing.
        assert_eq!(sustainable_qps(&points, 0.0), None);
    }

    /// A synthetic load point with a pinned p99 (everything else benign).
    fn synthetic_point(offered_qps: f64, p99_us: f64) -> LoadPoint {
        LoadPoint {
            offered_qps,
            report: SimReport {
                design: DesignPoint::Tdimm,
                gpus: 1,
                policy: BatchPolicy::new(1, 0.0),
                offered: 10,
                arrived: 10,
                completed: 10,
                in_flight: 0,
                queued: 0,
                retry_pending: 0,
                end_us: 1e6,
                throughput_qps: offered_qps,
                goodput_qps: offered_qps,
                shed_rate: 0.0,
                availability: 1.0,
                sla_us: f64::INFINITY,
                outcomes: crate::metrics::OutcomeCounts {
                    completed: 10,
                    ..Default::default()
                },
                hedge_dispatches: 0,
                latency: LatencySummary::from_latencies(vec![p99_us; 10]),
                queue: Default::default(),
                batches: crate::metrics::BatchStats::new(1),
                records: Vec::new(),
            },
        }
    }

    /// Regression for the frontier semantics: a non-monotone curve whose
    /// middle rate violates the SLA must report the *prefix* frontier,
    /// not the lucky high-rate pass after the violation.
    #[test]
    fn sustainable_qps_stops_at_first_violation() {
        let sla = 500.0;
        let points = vec![
            synthetic_point(10_000.0, 100.0), // passes
            synthetic_point(20_000.0, 200.0), // passes
            synthetic_point(30_000.0, 900.0), // violates: frontier stops here
            synthetic_point(40_000.0, 400.0), // noisy overload pass — must NOT count
        ];
        assert_eq!(sustainable_qps(&points, sla), Some(20_000.0));
        // The old filter-everything semantics would have returned 40k.
        // First point violating => no sustainable rate at all.
        assert_eq!(sustainable_qps(&points[2..], sla), None);
        // A zero-completion point also terminates the prefix.
        let mut stalled = synthetic_point(25_000.0, 100.0);
        stalled.report.completed = 0;
        let points = vec![
            synthetic_point(10_000.0, 100.0),
            stalled,
            synthetic_point(40_000.0, 100.0),
        ];
        assert_eq!(sustainable_qps(&points, sla), Some(10_000.0));
        assert_eq!(sustainable_qps(&[], sla), None);
    }

    /// The parallel sweep is bit-identical to the sequential oracle, and
    /// the hoisted per-rate arrival traces match the direct sampling.
    #[test]
    fn parallel_sweep_matches_sequential_bit_for_bit() {
        let model = SystemModel::paper_defaults();
        let w = Workload::ncf();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(8, 200.0));
        let rates = [20_000.0, 60_000.0, 120_000.0, 240_000.0];
        let seq = offered_load_sweep(&model, &w, &cfg, &rates, 150, 7).expect("valid");
        for workers in [2usize, 8] {
            let par =
                offered_load_sweep_par(&model, &w, &cfg, &rates, 150, 7, workers).expect("valid");
            assert_eq!(seq, par, "workers={workers}");
        }
        // Per-rate traces are the pure function the docs promise.
        for (i, &rate) in rates.iter().enumerate() {
            let expect = sweep_arrivals_us(rate, 150, 7);
            let got: Vec<f64> = seq[i].report.records.iter().map(|r| r.arrival_us).collect();
            assert_eq!(got, expect, "rate {rate}");
        }
    }

    /// The cycle backend's shared memo table must not break parallel
    /// bit-identity (concurrent cold misses resolve to one deterministic
    /// replay per key).
    #[test]
    fn parallel_sweep_matches_sequential_under_cycle_pricing() {
        let model = SystemModel::paper_defaults();
        let w = Workload::youtube();
        let cfg = SimConfig::new(DesignPoint::Pmem, 2, BatchPolicy::new(4, 150.0))
            .with_pricing(PricingBackend::CycleCalibrated);
        let rates = [30_000.0, 90_000.0];
        let seq = offered_load_sweep(&model, &w, &cfg, &rates, 40, 13).expect("valid");
        let par = offered_load_sweep_par(&model, &w, &cfg, &rates, 40, 13, 4).expect("valid");
        assert_eq!(seq, par);
    }
}
