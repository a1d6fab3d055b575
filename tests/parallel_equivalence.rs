//! Thread-count invariance of the deterministic parallel execution layer:
//! the parallel sweep and the shared cycle-pricer memo table must be
//! bit-identical to their single-threaded oracles at any worker count,
//! and concurrent cold misses must never duplicate a replay.

use proptest::prelude::*;

use tensordimm::models::{Workload, WorkloadName};
use tensordimm::serving::{
    offered_load_sweep, offered_load_sweep_par, simulate_with_pricer, AdmissionPolicy, BatchPolicy,
    FaultPlan, RetryPolicy, SimConfig,
};
use tensordimm::system::{
    BatchPricer, CycleKey, CyclePricer, CyclePricerConfig, DesignPoint, PricingBackend, SystemModel,
};

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(WorkloadName::Ncf),
        Just(WorkloadName::YouTube),
        Just(WorkloadName::Fox),
        Just(WorkloadName::Facebook),
    ]
    .prop_map(Workload::by_name)
}

fn arb_backend() -> impl Strategy<Value = PricingBackend> {
    prop_oneof![
        Just(PricingBackend::Analytic),
        Just(PricingBackend::CycleCalibrated),
    ]
}

/// A quick cycle pricer for stress tests (short replays, same semantics).
fn quick_cycle_pricer(model: &SystemModel) -> CyclePricer<'_> {
    let mut cfg = CyclePricerConfig::paper_defaults();
    cfg.max_replayed_lookups = 128;
    CyclePricer::with_config(model, cfg).expect("valid replay config")
}

fn table_bits(p: &CyclePricer<'_>) -> Vec<(CycleKey, u64)> {
    p.cached_table()
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline invariance: p50/p95/p99, throughput — in fact the
    /// whole `LoadPoint` including per-request records — are bit-identical
    /// across 1, 2 and 8 workers, for both pricing backends, random
    /// workloads and random rate grids.
    #[test]
    fn sweep_reports_invariant_across_worker_counts(
        workload in arb_workload(),
        backend in arb_backend(),
        base_rate in 20_000.0f64..200_000.0,
        rate_step in 1.3f64..3.0,
        n_rates in 2usize..5,
        gpus in 1usize..5,
        seed in 0u64..500,
    ) {
        let model = SystemModel::paper_defaults();
        let cfg = SimConfig::new(DesignPoint::Tdimm, gpus, BatchPolicy::new(8, 200.0))
            .with_pricing(backend);
        let rates: Vec<f64> = (0..n_rates)
            .map(|i| base_rate * rate_step.powi(i as i32))
            .collect();
        // Cycle replays are expensive even shortened; keep request counts
        // modest (the invariance is about scheduling, not scale).
        let requests = if backend == PricingBackend::CycleCalibrated { 30 } else { 200 };
        let seq = offered_load_sweep(&model, &workload, &cfg, &rates, requests, seed)
            .expect("valid");
        for workers in [2usize, 8] {
            let par = offered_load_sweep_par(
                &model, &workload, &cfg, &rates, requests, seed, workers,
            )
            .expect("valid");
            prop_assert_eq!(&seq, &par, "workers={}", workers);
            for (s, p) in seq.iter().zip(par.iter()) {
                prop_assert_eq!(
                    s.report.latency.p50_us.to_bits(),
                    p.report.latency.p50_us.to_bits()
                );
                prop_assert_eq!(
                    s.report.latency.p95_us.to_bits(),
                    p.report.latency.p95_us.to_bits()
                );
                prop_assert_eq!(
                    s.report.latency.p99_us.to_bits(),
                    p.report.latency.p99_us.to_bits()
                );
                prop_assert_eq!(
                    s.report.throughput_qps.to_bits(),
                    p.report.throughput_qps.to_bits()
                );
            }
        }
    }

    /// The same invariance with the fault layer armed: DIMM faults, a
    /// deadline/retry/hedging policy and bounded admission all ride inside
    /// `SimConfig`, so fanning the load points across a worker pool must
    /// still be bit-identical to the sequential sweep — outcome counters,
    /// goodput and per-request records included.
    #[test]
    fn fault_enabled_sweep_invariant_across_worker_counts(
        workload in arb_workload(),
        fault_rate in 0.0f64..1.0,
        fault_seed in 0u64..1_000,
        base_rate in 50_000.0f64..300_000.0,
        n_rates in 2usize..4,
        seed in 0u64..500,
    ) {
        let model = SystemModel::paper_defaults();
        let mut plan = FaultPlan::dimm_faults(fault_seed, fault_rate);
        plan.dimms = 2;
        plan.dimm_candidate_gap_us = 250.0;
        plan.dimm_repair_us = 2_500.0;
        let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(16, 250.0))
            .with_faults(plan)
            .with_retry(
                RetryPolicy::none()
                    .with_deadline(2_000.0)
                    .with_retries(3, 100.0, 2_000.0)
                    .with_hedging(1_500.0),
            )
            .with_admission(AdmissionPolicy::bounded(64));
        let rates: Vec<f64> = (0..n_rates)
            .map(|i| base_rate * 2f64.powi(i as i32))
            .collect();
        let seq = offered_load_sweep(&model, &workload, &cfg, &rates, 150, seed)
            .expect("valid");
        for workers in [2usize, 8] {
            let par = offered_load_sweep_par(
                &model, &workload, &cfg, &rates, 150, seed, workers,
            )
            .expect("valid");
            prop_assert_eq!(&seq, &par, "workers={}", workers);
            for (s, p) in seq.iter().zip(par.iter()) {
                prop_assert_eq!(s.report.outcomes, p.report.outcomes);
                prop_assert_eq!(
                    s.report.goodput_qps.to_bits(),
                    p.report.goodput_qps.to_bits()
                );
                prop_assert_eq!(
                    s.report.latency.p99_us.to_bits(),
                    p.report.latency.p99_us.to_bits()
                );
            }
        }
    }

    /// Memo-table invariance: warming the same shape set on 1, 2 and 8
    /// workers leaves bit-identical table contents and one replay per
    /// distinct key.
    #[test]
    fn memo_table_invariant_across_worker_counts(
        workload in arb_workload(),
        batches in proptest::collection::vec(1usize..64, 2..6),
    ) {
        let model = SystemModel::paper_defaults();
        let shapes: Vec<(Workload, usize)> =
            batches.iter().map(|&b| (workload.clone(), b)).collect();
        let oracle = quick_cycle_pricer(&model);
        let fresh = oracle.warm(&shapes, 1);
        prop_assert_eq!(fresh, oracle.cached_entries() as u64);
        let oracle_table = table_bits(&oracle);
        for workers in [2usize, 8] {
            let p = quick_cycle_pricer(&model);
            prop_assert_eq!(p.warm(&shapes, workers), fresh, "workers={}", workers);
            prop_assert_eq!(
                p.replay_count(), fresh,
                "duplicate replays at workers={}", workers
            );
            prop_assert_eq!(&table_bits(&p), &oracle_table, "workers={}", workers);
        }
    }
}

/// Racing `price` calls from many threads for the *same* cold key must
/// collapse to exactly one replay (the per-key cell serializes them), and
/// every caller sees the bit-identical price.
#[test]
fn concurrent_same_key_misses_share_one_replay() {
    let model = SystemModel::paper_defaults();
    let pricer = quick_cycle_pricer(&model);
    let w = Workload::youtube();
    let prices: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    pricer
                        .price(&w, 16, DesignPoint::Tdimm, 4)
                        .expect("valid")
                        .service_us
                        .to_bits()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    assert!(prices.windows(2).all(|p| p[0] == p[1]));
    assert_eq!(
        pricer.replay_count(),
        1,
        "same key must replay exactly once"
    );
    assert_eq!(pricer.cached_entries(), 1);
}

/// A bigger concurrent-warm stress: many threads warm overlapping shape
/// lists at once; the table must end with one entry per distinct key and
/// exactly that many replays, priced identically to a fresh pricer.
#[test]
fn concurrent_warm_stress_no_duplicate_replays() {
    let model = SystemModel::paper_defaults();
    let pricer = quick_cycle_pricer(&model);
    let w = Workload::ncf();
    let batches = [1usize, 2, 4, 8, 16, 32];
    let shapes: Vec<(Workload, usize)> = batches.iter().map(|&b| (w.clone(), b)).collect();
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| {
                // Each thread warms the full list with its own inner pool.
                pricer.warm(&shapes, 2);
            });
        }
    });
    assert_eq!(pricer.cached_entries(), batches.len());
    assert_eq!(
        pricer.replay_count(),
        batches.len() as u64,
        "overlapping warms must not duplicate replays"
    );
    let fresh = quick_cycle_pricer(&model);
    fresh.warm(&shapes, 1);
    assert_eq!(table_bits(&pricer), table_bits(&fresh));
}

/// Sharing one pricer between a sequential simulate call and a parallel
/// sweep must keep results bit-identical (the memoized state is a pure
/// function of the keys, never of who filled it).
#[test]
fn shared_pricer_between_sequential_and_parallel_runs() {
    let model = SystemModel::paper_defaults();
    // Paper-default knobs: the sweep below builds its backend the same way.
    let pricer = CyclePricer::new(&model);
    let w = Workload::youtube();
    let cfg = SimConfig::new(DesignPoint::Pmem, 2, BatchPolicy::new(4, 150.0));
    let arrivals = tensordimm::serving::sweep_arrivals_us(40_000.0, 50, 21);
    let cold = simulate_with_pricer(&w, &cfg, &arrivals, &pricer).expect("valid");
    // Re-run through a parallel sweep at the same rate: the first point
    // must be bit-identical to the standalone run even though the table
    // is now warm and shared.
    let cfg_cycle = cfg.with_pricing(PricingBackend::CycleCalibrated);
    let points =
        offered_load_sweep_par(&model, &w, &cfg_cycle, &[40_000.0], 50, 21, 4).expect("valid");
    assert_eq!(points[0].report, cold);
}
