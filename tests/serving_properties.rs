//! Property-based tests over the request-level serving simulator:
//! virtual-time sanity, flow conservation, determinism, tail ordering and
//! throughput bounds, across randomized workloads, fleet sizes, batching
//! policies, arrival processes and offered loads.

use std::collections::BTreeSet;

use proptest::prelude::*;

use tensordimm::faults::{FaultPlan, GrayRank, NodeOutage, RowFaults};
use tensordimm::interconnect::InterconnectError;
use tensordimm::models::{Workload, WorkloadName};
use tensordimm::serving::{
    simulate, simulate_with_pricer, AdmissionPolicy, ArrivalProcess, BatchPolicy, RequestOutcome,
    RetryPolicy, SimConfig, SimReport,
};
use tensordimm::system::{BatchCost, BatchPricer, DesignPoint, PricingBackend, SystemModel};

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(WorkloadName::Ncf),
        Just(WorkloadName::YouTube),
        Just(WorkloadName::Fox),
        Just(WorkloadName::Facebook),
    ]
    .prop_map(Workload::by_name)
}

fn arb_design() -> impl Strategy<Value = DesignPoint> {
    prop_oneof![
        Just(DesignPoint::Tdimm),
        Just(DesignPoint::Pmem),
        Just(DesignPoint::GpuOnly),
    ]
}

fn arb_process() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (5_000.0f64..2_000_000.0).prop_map(|rate_qps| ArrivalProcess::Poisson { rate_qps }),
        ((5_000.0f64..2_000_000.0), (1.0f64..24.0)).prop_map(|(rate_qps, mean_burst)| {
            ArrivalProcess::Bursty {
                rate_qps,
                mean_burst,
            }
        }),
    ]
}

fn arb_policy() -> impl Strategy<Value = BatchPolicy> {
    ((1usize..64), (0.0f64..2_000.0)).prop_map(|(max_batch, max_wait_us)| BatchPolicy {
        max_batch,
        max_wait_us,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Virtual time only moves forward: every request is dispatched no
    /// earlier than it arrived and finishes strictly after dispatch, and
    /// per GPU the service intervals never overlap.
    #[test]
    fn virtual_time_is_monotone(
        workload in arb_workload(),
        design in arb_design(),
        process in arb_process(),
        policy in arb_policy(),
        gpus in 1usize..9,
        n in 50usize..300,
        seed in 0u64..1000,
    ) {
        let model = SystemModel::paper_defaults();
        let cfg = SimConfig::new(design, gpus, policy);
        let arrivals = process.sample_arrivals_us(n, seed);
        let report = simulate(&model, &workload, &cfg, &arrivals).expect("valid inputs");
        let mut per_gpu: Vec<Vec<(f64, f64)>> = vec![Vec::new(); gpus];
        for rec in &report.records {
            let c = rec.completion.expect("no horizon: everything completes");
            prop_assert!(c.dispatch_us >= rec.arrival_us - 1e-6);
            prop_assert!(c.finish_us > c.dispatch_us);
            prop_assert!(c.finish_us <= report.end_us + 1e-6);
            per_gpu[c.gpu as usize].push((c.dispatch_us, c.finish_us));
        }
        for intervals in &mut per_gpu {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            intervals.dedup();
            for w in intervals.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1 - 1e-6,
                    "GPU served two batches at once: {:?} then {:?}", w[0], w[1]
                );
            }
        }
    }

    /// Requests in = completed + queued + in flight + not yet arrived,
    /// with and without a horizon cutting the run short.
    #[test]
    fn requests_are_conserved(
        workload in arb_workload(),
        design in arb_design(),
        process in arb_process(),
        policy in arb_policy(),
        gpus in 1usize..9,
        n in 50usize..300,
        seed in 0u64..1000,
        horizon_frac in 0.0f64..1.5,
    ) {
        let model = SystemModel::paper_defaults();
        let arrivals = process.sample_arrivals_us(n, seed);
        let full = SimConfig::new(design, gpus, policy);
        let report = simulate(&model, &workload, &full, &arrivals).expect("valid inputs");
        prop_assert!(report.is_conserved());
        prop_assert_eq!(report.completed, n, "no horizon: everything drains");
        prop_assert_eq!(report.queued + report.in_flight, 0);

        // A horizon somewhere inside (or past) the run must still account
        // for every request exactly once.
        let horizon = report.end_us * horizon_frac;
        let cut = simulate(&model, &workload, &full.with_horizon(horizon), &arrivals)
            .expect("valid inputs");
        prop_assert!(
            cut.is_conserved(),
            "offered {} != completed {} + in_flight {} + queued {} + not_arrived {}",
            cut.offered, cut.completed, cut.in_flight, cut.queued, cut.not_arrived()
        );
        prop_assert!(cut.completed <= report.completed);
        prop_assert_eq!(cut.availability.to_bits(), cut.availability_at(cut.sla_us).to_bits());
    }

    /// Bit-identical replay under a fixed seed, and a different arrival
    /// seed genuinely changes the trace.
    #[test]
    fn fixed_seed_is_deterministic(
        workload in arb_workload(),
        design in arb_design(),
        process in arb_process(),
        policy in arb_policy(),
        gpus in 1usize..9,
        seed in 0u64..1000,
    ) {
        let model = SystemModel::paper_defaults();
        let cfg = SimConfig::new(design, gpus, policy);
        let arrivals = process.sample_arrivals_us(120, seed);
        let a = simulate(&model, &workload, &cfg, &arrivals).expect("valid inputs");
        let b = simulate(&model, &workload, &cfg, &arrivals).expect("valid inputs");
        prop_assert_eq!(a, b);
        prop_assert_ne!(
            process.sample_arrivals_us(120, seed),
            process.sample_arrivals_us(120, seed + 1)
        );
    }

    /// Tail ordering: p50 <= p95 <= p99 <= max, and every percentile is a
    /// latency some request actually saw.
    #[test]
    fn percentiles_are_ordered(
        workload in arb_workload(),
        design in arb_design(),
        process in arb_process(),
        policy in arb_policy(),
        gpus in 1usize..9,
        n in 50usize..300,
        seed in 0u64..1000,
    ) {
        let model = SystemModel::paper_defaults();
        let cfg = SimConfig::new(design, gpus, policy);
        let arrivals = process.sample_arrivals_us(n, seed);
        let r = simulate(&model, &workload, &cfg, &arrivals).expect("valid inputs");
        let l = &r.latency;
        prop_assert!(l.p50_us <= l.p95_us);
        prop_assert!(l.p95_us <= l.p99_us);
        prop_assert!(l.p99_us <= l.max_us);
        prop_assert!(l.p50_us > 0.0);
        let latencies: Vec<f64> = r
            .records
            .iter()
            .filter_map(|rec| rec.latency_us())
            .collect();
        for p in [l.p50_us, l.p95_us, l.p99_us, l.max_us] {
            prop_assert!(
                latencies.iter().any(|&x| (x - p).abs() < 1e-9),
                "percentile {p} is not an observed latency"
            );
        }
    }

    /// The system never completes work faster than it was offered: with at
    /// least two arrivals, delivered throughput cannot exceed the realized
    /// offered rate (completions can't outpace the open loop feeding them).
    #[test]
    fn throughput_bounded_by_offered_load(
        workload in arb_workload(),
        design in arb_design(),
        process in arb_process(),
        policy in arb_policy(),
        gpus in 1usize..9,
        n in 50usize..300,
        seed in 0u64..1000,
    ) {
        let model = SystemModel::paper_defaults();
        let cfg = SimConfig::new(design, gpus, policy);
        let arrivals = process.sample_arrivals_us(n, seed);
        let span_us = arrivals[arrivals.len() - 1] - arrivals[0];
        prop_assume!(span_us > 1.0);
        let r = simulate(&model, &workload, &cfg, &arrivals).expect("valid inputs");
        let offered_qps = n as f64 / (span_us * 1e-6);
        prop_assert!(
            r.throughput_qps <= offered_qps * (1.0 + 1e-9),
            "delivered {:.0} qps exceeds offered {:.0} qps",
            r.throughput_qps,
            offered_qps
        );
        // Batch occupancy never exceeds the policy.
        for rec in &r.records {
            let c = rec.completion.expect("drained");
            prop_assert!(c.batch_size.get() >= 1 && c.batch_size.get() as usize <= policy.max_batch);
        }
    }

    /// `OutcomeCounts::is_conserved` when every degraded-mode mechanism is
    /// armed at once: a tight bounded queue (sheds), retries with backoff
    /// (re-admissions) and hedged duplicates (extra dispatches), under
    /// overload. However the mechanisms interleave, every arrived request
    /// still lands in exactly one typed bucket.
    #[test]
    fn conservation_when_shed_retries_and_hedges_interact(
        workload in arb_workload(),
        design in arb_design(),
        depth in 4usize..24,
        deadline_us in 1_000.0f64..5_000.0,
        hedge_after_us in 200.0f64..800.0,
        rate_qps in 300_000.0f64..900_000.0,
        seed in 0u64..1000,
    ) {
        let model = SystemModel::paper_defaults();
        let retry = RetryPolicy::none()
            .with_deadline(deadline_us)
            .with_retries(3, 100.0, 1_500.0)
            .with_hedging(hedge_after_us);
        let cfg = SimConfig::new(design, 2, BatchPolicy::new(8, 150.0))
            .with_retry(retry)
            .with_admission(AdmissionPolicy::bounded(depth));
        let arrivals = ArrivalProcess::Poisson { rate_qps }.sample_arrivals_us(250, seed);
        let r = simulate(&model, &workload, &cfg, &arrivals).expect("valid inputs");
        prop_assert!(
            r.is_conserved(),
            "outcomes {:?} must sum to arrived {} (retries and hedges in play)",
            r.outcomes, r.arrived
        );
        prop_assert!(r.outcomes.is_conserved(r.arrived));
        prop_assert_eq!(r.outcomes.completed, r.completed);
        prop_assert_eq!(r.latency.count, r.completed);
        // Retried requests still resolve exactly once.
        let retried = r.records.iter().filter(|rec| rec.retries > 0).count();
        prop_assert!(retried <= r.arrived);
    }
}

/// Pinned overload point where shedding, retries and hedging demonstrably
/// all fire in one run — the conservation law holds with every mechanism
/// active simultaneously, not just in isolation.
#[test]
fn all_three_degraded_mechanisms_fire_and_conserve() {
    let model = SystemModel::paper_defaults();
    let w = Workload::facebook();
    let retry = RetryPolicy::none()
        .with_deadline(2_500.0)
        .with_retries(3, 100.0, 1_000.0)
        .with_hedging(400.0);
    // Bursty arrivals + a gray rank are what make all three fire at
    // once: a burst overflows the bounded queue (sheds) and strands
    // requests past their backoff deadline (retries), the gray window
    // multiplies service times past the hedge threshold, and the gap
    // after a burst leaves a GPU idle for the hedge to land on.
    let gray = {
        let mut plan = FaultPlan::none();
        plan.gray = Some(GrayRank {
            start_us: 0.0,
            duration_us: 1.0e7,
            latency_multiplier: 6.0,
        });
        plan
    };
    let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(8, 150.0))
        .with_retry(retry)
        .with_admission(AdmissionPolicy::bounded(8))
        .with_faults(gray);
    let arrivals = ArrivalProcess::Bursty {
        rate_qps: 450_000.0,
        mean_burst: 16.0,
    }
    .sample_arrivals_us(400, 7);
    let r = simulate(&model, &w, &cfg, &arrivals).expect("valid inputs");
    assert!(
        r.outcomes.shed > 0,
        "the bounded queue must shed: {:?}",
        r.outcomes
    );
    assert!(
        r.records.iter().any(|rec| rec.retries > 0),
        "backoff retries must fire"
    );
    assert!(r.hedge_dispatches > 0, "hedged duplicates must dispatch");
    assert!(r.is_conserved());
    assert!(r.outcomes.is_conserved(r.arrived));
    assert_eq!(r.outcomes.completed, r.completed);
    let by = |want: RequestOutcome| {
        r.records
            .iter()
            .filter(|rec| rec.outcome == Some(want))
            .count()
    };
    assert_eq!(by(RequestOutcome::Completed), r.outcomes.completed);
    assert_eq!(by(RequestOutcome::Shed), r.outcomes.shed);
    assert_eq!(by(RequestOutcome::TimedOut), r.outcomes.timed_out);
}

/// Prices every batch at an exact multiple of 25 µs (`25 × (batch +
/// active)`), so completions land on the same 25 µs grid as the pinned
/// arrivals, flushes, deadlines, backoffs and fault transitions below.
struct GridPricer;

impl BatchPricer for GridPricer {
    fn price(
        &self,
        _workload: &Workload,
        batch: usize,
        _design: DesignPoint,
        active_gpus: usize,
    ) -> Result<BatchCost, InterconnectError> {
        Ok(BatchCost {
            service_us: 25.0 * (batch + active_gpus) as f64,
            port_bound: false,
        })
    }

    fn backend(&self) -> PricingBackend {
        PricingBackend::Analytic
    }
}

/// FNV-1a over every record field and the report's run-level scalars:
/// equal digests mean bit-identical per-request outcomes.
fn report_digest(r: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for rec in &r.records {
        eat(rec.arrival_us.to_bits());
        eat(match rec.outcome {
            None => 0,
            Some(RequestOutcome::Completed) => 1,
            Some(RequestOutcome::Shed) => 2,
            Some(RequestOutcome::TimedOut) => 3,
            Some(RequestOutcome::InFlightAtHorizon) => 4,
        });
        match rec.completion {
            Some(c) => {
                eat(c.dispatch_us.to_bits());
                eat(c.finish_us.to_bits());
                eat(u64::from(c.batch_size.get()));
                eat(c.gpu as u64);
            }
            None => eat(u64::MAX),
        }
        eat(u64::from(rec.retries));
    }
    for x in [
        r.arrived,
        r.in_flight,
        r.queued,
        r.retry_pending,
        r.hedge_dispatches,
        r.queue.max_depth,
        r.batches.batches,
    ] {
        eat(x as u64);
    }
    for x in [r.end_us, r.queue.mean_depth, r.availability, r.goodput_qps] {
        eat(x.to_bits());
    }
    h
}

/// Arrivals on the 25 µs grid, gaps of 0, 0, 25 or 50 µs from a fixed LCG:
/// same-instant arrival pairs, and arrivals exactly at GPU completions,
/// batch-window flushes, deadlines, backoff re-admissions, hedge timers
/// and fault transitions.
fn grid_arrivals(n: usize) -> Vec<f64> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            t += 25.0 * (state >> 62).saturating_sub(1) as f64;
            t
        })
        .collect()
}

/// Every timer knob on the grid: 100 µs batch window, 250 µs deadline,
/// 50–200 µs unjittered backoff, 75 µs hedge, a queue bound of 8.
fn grid_config() -> SimConfig {
    let retry = RetryPolicy {
        jitter_frac: 0.0,
        ..RetryPolicy::none()
            .with_deadline(250.0)
            .with_retries(2, 50.0, 200.0)
            .with_hedging(75.0)
    };
    SimConfig::new(DesignPoint::Tdimm, 3, BatchPolicy::new(4, 100.0))
        .with_retry(retry)
        .with_admission(AdmissionPolicy::bounded(8))
}

/// Record-digest pins for the event loop's same-instant ordering: any
/// change to how arrivals and timers are merged must reproduce these
/// outcomes bit for bit.
#[test]
fn event_order_digests_are_pinned() {
    let w = Workload::facebook();
    let arrivals = grid_arrivals(4_000);
    let run =
        |cfg: &SimConfig| simulate_with_pricer(&w, cfg, &arrivals, &GridPricer).expect("valid");

    // Collisions of every kind, no faults.
    let plain = run(&grid_config());
    assert!(plain.outcomes.shed > 0 && plain.outcomes.timed_out > 0);
    assert!(plain.records.iter().any(|rec| rec.retries > 0));
    assert!(plain.hedge_dispatches > 0);
    let finishes: BTreeSet<u64> = plain
        .records
        .iter()
        .filter_map(|rec| rec.completion.map(|c| c.finish_us.to_bits()))
        .collect();
    let at_completion = arrivals
        .iter()
        .filter(|t| finishes.contains(&t.to_bits()))
        .count();
    assert!(
        at_completion > 100,
        "{at_completion} arrivals meet a completion"
    );

    // Fault transitions on the grid: a node outage, a gray window that
    // doubles service times, and row faults every 250 µs.
    let mut faults = FaultPlan::none().with_node_outage(NodeOutage {
        start_us: 10_000.0,
        duration_us: 2_500.0,
    });
    faults.gray = Some(GrayRank {
        start_us: 20_000.0,
        duration_us: 5_000.0,
        latency_multiplier: 2.0,
    });
    faults.row_faults = Some(RowFaults {
        every_us: 250.0,
        rows: 64,
    });
    let faulted = run(&grid_config().with_faults(faults));

    // A horizon on the grid cuts the faulted run mid-flight.
    let cut = run(&grid_config().with_faults(faults).with_horizon(30_000.0));
    assert!(cut.arrived < cut.offered && cut.outcomes.in_flight_at_horizon > 0);

    // The real analytic pricer under seeded DIMM faults and bursty load.
    let model = SystemModel::paper_defaults();
    let retry = RetryPolicy::none()
        .with_deadline(600.0)
        .with_retries(3, 100.0, 1_000.0)
        .with_hedging(100.0);
    let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(16, 150.0))
        .with_retry(retry)
        .with_admission(AdmissionPolicy::bounded(48))
        .with_faults(FaultPlan::dimm_faults(5, 0.5));
    let bursty = ArrivalProcess::Bursty {
        rate_qps: 250_000.0,
        mean_burst: 16.0,
    }
    .sample_arrivals_us(4_000, 9);
    let analytic = simulate(&model, &w, &cfg, &bursty).expect("valid");
    assert!(analytic.outcomes.timed_out > 0 && analytic.hedge_dispatches > 0);

    let runs = [plain, faulted, cut, analytic];
    assert!(runs.iter().all(SimReport::is_conserved));
    // The mean queue depth is an integral over the loop's event instants,
    // so a loop that handles fewer no-op events moves its last digits by
    // float re-association: each run stays within 1e-12 relative of the
    // every-timer loop's value.
    let every_timer_mean_depth = [
        3.152_422_611_036_339_4,
        3.634_253_028_263_795_5,
        3.939_166_666_666_666_5,
        18.876_664_778_389_983,
    ];
    for (r, want) in runs.iter().zip(every_timer_mean_depth) {
        let depth = r.queue.mean_depth;
        assert!(
            (depth - want).abs() <= 1e-12 * want,
            "mean depth {depth} vs {want}"
        );
    }
    assert_eq!(
        runs.map(|r| report_digest(&r)),
        [
            0x7a23_04b1_7320_aaf9,
            0x0936_c7d8_dad4_c1d0,
            0xdce6_efb7_eeee_9451,
            0xf655_29f7_f1f7_6a49,
        ]
    );
}
