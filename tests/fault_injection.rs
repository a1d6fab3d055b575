//! Property tests for the deterministic fault-injection layer: schedules
//! are pure functions of `(plan, horizon)`, thinning makes downtime nest
//! across fault rates, fault-enabled simulations replay bit-identically,
//! backoff never exceeds its cap, hedged duplicates complete exactly once,
//! and the typed outcome accounting conserves requests under arbitrary
//! plan/policy combinations.
//!
//! Exercises the `tensordimm::faults` facade path alongside the
//! `tensordimm::serving` re-exports used by the simulator.

use proptest::prelude::*;

use tensordimm::faults::{FaultPlan, FaultSchedule, GrayRank, NodeOutage, RowFaults};
use tensordimm::models::{Workload, WorkloadName};
use tensordimm::serving::{
    simulate, AdmissionPolicy, ArrivalProcess, BatchPolicy, RequestOutcome, RetryPolicy, SimConfig,
};
use tensordimm::system::{DesignPoint, SystemModel};

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
    prop_oneof![Just(DesignPoint::Tdimm), Just(DesignPoint::Pmem)]
}

fn arb_outage() -> impl Strategy<Value = Option<NodeOutage>> {
    prop_oneof![
        Just(None),
        (0.0f64..5_000.0, 100.0f64..3_000.0).prop_map(|(start_us, duration_us)| {
            Some(NodeOutage {
                start_us,
                duration_us,
            })
        }),
    ]
}

fn arb_gray() -> impl Strategy<Value = Option<GrayRank>> {
    prop_oneof![
        Just(None),
        (0.0f64..5_000.0, 100.0f64..3_000.0, 1.0f64..8.0).prop_map(
            |(start_us, duration_us, latency_multiplier)| {
                Some(GrayRank {
                    start_us,
                    duration_us,
                    latency_multiplier,
                })
            }
        ),
    ]
}

fn arb_row_faults() -> impl Strategy<Value = Option<RowFaults>> {
    prop_oneof![
        Just(None),
        (200.0f64..2_000.0, 1u64..512)
            .prop_map(|(every_us, rows)| Some(RowFaults { every_us, rows })),
    ]
}

/// A random but always-valid fault plan: seeded DIMM faults at any rate,
/// each optional failure mode flipped on independently.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..u64::MAX,
        0.0f64..1.0,
        1u64..8,
        100.0f64..2_000.0,
        500.0f64..8_000.0,
        arb_outage(),
        arb_gray(),
        arb_row_faults(),
    )
        .prop_map(|(seed, rate, dimms, gap, repair, outage, gray, rows)| {
            let mut plan = FaultPlan::dimm_faults(seed, rate);
            plan.dimms = dimms;
            plan.dimm_candidate_gap_us = gap;
            plan.dimm_repair_us = repair;
            plan.node_outage = outage;
            plan.gray = gray;
            plan.row_faults = rows;
            plan
        })
}

/// A random degraded-mode policy pair (possibly inert on either axis).
fn arb_policies() -> impl Strategy<Value = (RetryPolicy, AdmissionPolicy)> {
    (
        prop_oneof![Just(f64::INFINITY), 500.0f64..10_000.0],
        0u32..4,
        50.0f64..500.0,
        prop_oneof![Just(f64::INFINITY), 200.0f64..5_000.0],
        prop_oneof![Just(usize::MAX), 4usize..64],
    )
        .prop_map(
            |(deadline, max_retries, base, hedge, depth): (f64, u32, f64, f64, usize)| {
                let mut retry = RetryPolicy::none();
                if deadline.is_finite() {
                    retry = retry.with_deadline(deadline);
                }
                if max_retries > 0 {
                    retry = retry.with_retries(max_retries, base, base * 16.0);
                }
                if hedge.is_finite() {
                    retry = retry.with_hedging(hedge);
                }
                let admission = if depth == usize::MAX {
                    AdmissionPolicy::unbounded()
                } else {
                    AdmissionPolicy::bounded(depth)
                };
                (retry, admission)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `FaultPlan::schedule` is a pure function of `(plan, horizon)`:
    /// regenerating yields the identical transition list, timestamps compared
    /// bit-for-bit. A longer horizon `h2 ≥ h1` only adds transitions after
    /// `h1`: both schedules agree on every transition at `at_us ≤ h1`. The
    /// cluster router relies on this — it expands a node's plan over the
    /// cluster's last arrival, the node's shard over its own, and both must
    /// see the same fault state at each of the shard's arrivals.
    #[test]
    fn schedule_is_a_pure_function_of_plan_and_horizon(
        plan in arb_plan(),
        horizon_us in 0.0f64..50_000.0,
        extra_us in 0.0f64..50_000.0,
    ) {
        let a = plan.schedule(horizon_us).expect("valid plan");
        let b = plan.schedule(horizon_us).expect("valid plan");
        prop_assert_eq!(a.transitions().len(), b.transitions().len());
        prop_assert_eq!(&a, &b);
        for (ta, tb) in a.transitions().iter().zip(b.transitions()) {
            prop_assert_eq!(ta.at_us.to_bits(), tb.at_us.to_bits());
        }
        let longer = plan.schedule(horizon_us + extra_us).expect("valid plan");
        let prefix = |s: &FaultSchedule| -> Vec<_> {
            s.transitions()
                .iter()
                .filter(|t| t.at_us <= horizon_us)
                .map(|t| (t.at_us.to_bits(), t.change))
                .collect()
        };
        prop_assert_eq!(prefix(&a), prefix(&longer));
    }

    /// Thinning draws candidate failures from a rate-independent stream,
    /// so the accepted failure set *nests* across rates: DIMM downtime is
    /// monotone non-decreasing in the fault rate for any seed/geometry.
    #[test]
    fn dimm_downtime_is_monotone_in_fault_rate(
        seed in 0u64..u64::MAX,
        rate_a in 0.0f64..1.0,
        rate_b in 0.0f64..1.0,
        dimms in 1u64..8,
        gap in 100.0f64..1_000.0,
        horizon_us in 5_000.0f64..40_000.0,
    ) {
        let (lo, hi) = if rate_a <= rate_b { (rate_a, rate_b) } else { (rate_b, rate_a) };
        let mut base = FaultPlan::dimm_faults(seed, lo);
        base.dimms = dimms;
        base.dimm_candidate_gap_us = gap;
        let mut harsher = base;
        harsher.dimm_fault_rate = hi;
        let down_lo = base.schedule(horizon_us).expect("valid").dimm_downtime_us(horizon_us);
        let down_hi = harsher.schedule(horizon_us).expect("valid").dimm_downtime_us(horizon_us);
        prop_assert!(
            down_lo <= down_hi + 1e-9,
            "downtime fell from {} to {} as rate rose {} -> {}",
            down_lo, down_hi, lo, hi
        );
    }

    /// `RetryPolicy::backoff_us` never exceeds the cap — jitter included —
    /// stays strictly positive, and is a pure function of
    /// `(jitter_seed, id, attempt)`.
    #[test]
    fn backoff_is_capped_positive_and_pure(
        base_us in 1.0f64..2_000.0,
        cap_mult in 1.0f64..64.0,
        jitter_frac in 0.0f64..1.0,
        jitter_seed in 0u64..u64::MAX,
        id in 0usize..1_000_000,
        attempt in 0u32..100,
    ) {
        let cap_us = base_us * cap_mult;
        let mut policy = RetryPolicy::none().with_retries(8, base_us, cap_us);
        policy.jitter_frac = jitter_frac;
        policy.jitter_seed = jitter_seed;
        policy.validate().expect("valid knobs");
        let d = policy.backoff_us(id, attempt);
        prop_assert!(d > 0.0, "backoff must be positive, got {}", d);
        prop_assert!(
            d <= cap_us,
            "backoff {} exceeds cap {} (base {}, jitter {})",
            d, cap_us, base_us, jitter_frac
        );
        prop_assert_eq!(d.to_bits(), policy.backoff_us(id, attempt).to_bits());
    }
}

proptest! {
    // Full simulations per case: fewer cases, each driving ~200 requests
    // through random fault plans and policies.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same `(config, trace)` in, bit-identical `SimReport` out — records
    /// included — no matter how harsh the fault plan or policies.
    #[test]
    fn fault_enabled_simulation_replays_bit_identically(
        workload in arb_workload(),
        design in arb_design(),
        plan in arb_plan(),
        policies in arb_policies(),
        rate_qps in 50_000.0f64..500_000.0,
        seed in 0u64..500,
    ) {
        let (retry, admission) = policies;
        let model = SystemModel::paper_defaults();
        let cfg = SimConfig::new(design, 4, BatchPolicy::new(16, 250.0))
            .with_faults(plan)
            .with_retry(retry)
            .with_admission(admission);
        let arrivals = ArrivalProcess::Poisson { rate_qps }.sample_arrivals_us(200, seed);
        let a = simulate(&model, &workload, &cfg, &arrivals).expect("valid");
        let b = simulate(&model, &workload, &cfg, &arrivals).expect("valid");
        prop_assert_eq!(a.latency.p99_us.to_bits(), b.latency.p99_us.to_bits());
        prop_assert_eq!(a.goodput_qps.to_bits(), b.goodput_qps.to_bits());
        prop_assert_eq!(&a, &b);
    }

    /// Conservation and single-completion accounting under arbitrary fault
    /// plans and policies: every arrived request lands in exactly one typed
    /// outcome bucket, the per-record outcomes agree with the counters, and
    /// hedged duplicates never double-complete (`latency.count`, the
    /// `completed` counter and the `Completed` records all agree even when
    /// hedge dispatches fired).
    #[test]
    fn outcomes_conserve_requests_and_hedges_complete_once(
        workload in arb_workload(),
        design in arb_design(),
        plan in arb_plan(),
        policies in arb_policies(),
        rate_qps in 50_000.0f64..500_000.0,
        seed in 0u64..500,
    ) {
        let (retry, admission) = policies;
        let model = SystemModel::paper_defaults();
        // Force hedging on so duplicate dispatches actually happen.
        let retry = retry.with_hedging(retry.hedge_after_us.min(600.0));
        let cfg = SimConfig::new(design, 4, BatchPolicy::new(16, 250.0))
            .with_faults(plan)
            .with_retry(retry)
            .with_admission(admission);
        let arrivals = ArrivalProcess::Poisson { rate_qps }.sample_arrivals_us(200, seed);
        let report = simulate(&model, &workload, &cfg, &arrivals).expect("valid");

        prop_assert!(report.is_conserved());
        prop_assert_eq!(report.outcomes.total(), report.arrived);
        prop_assert!(report.completed <= report.arrived);
        prop_assert_eq!(report.outcomes.completed, report.completed);
        prop_assert_eq!(report.latency.count, report.completed);

        let by_outcome = |want: RequestOutcome| {
            report.records.iter().filter(|r| r.outcome == Some(want)).count()
        };
        prop_assert_eq!(by_outcome(RequestOutcome::Completed), report.outcomes.completed);
        prop_assert_eq!(by_outcome(RequestOutcome::Shed), report.outcomes.shed);
        prop_assert_eq!(by_outcome(RequestOutcome::TimedOut), report.outcomes.timed_out);
        prop_assert_eq!(
            by_outcome(RequestOutcome::InFlightAtHorizon),
            report.outcomes.in_flight_at_horizon
        );
        // A completion record exists iff the outcome says completed.
        for r in &report.records {
            prop_assert_eq!(
                r.completion.is_some(),
                r.outcome == Some(RequestOutcome::Completed)
            );
        }
    }
}

/// Pinned regressions for explicit rank-outage windows (the newest
/// failure mode): validation rejects the degenerate plans that used to
/// slip through — zero-length repair windows and overlapping outages on
/// the same rank — and a valid explicit outage degrades a run exactly as
/// its merged schedule says, deterministically.
#[test]
fn rank_outage_validation_and_injection_pins() {
    use tensordimm::faults::{FaultError, RankOutage};

    let reject = |plan: FaultPlan, parameter: &'static str| {
        assert_eq!(
            plan.validate(),
            Err(FaultError::InvalidPlan { parameter }),
            "{parameter}"
        );
    };
    // A plan whose outage slots hold `windows`, in order.
    let with = |windows: &[(u64, f64, f64)]| {
        let mut plan = FaultPlan::none();
        for (slot, &(rank, start_us, duration_us)) in windows.iter().enumerate() {
            plan.rank_outages[slot] = Some(RankOutage {
                rank,
                start_us,
                duration_us,
            });
        }
        plan
    };
    // Zero-length (and negative) repair windows are meaningless.
    reject(with(&[(0, 100.0, 0.0)]), "rank_outages.duration_us");
    // Overlapping windows on one rank would double-count the rank as a
    // bitmask; two Downs with one Restored is not a schedule.
    let overlapping = with(&[(1, 100.0, 500.0), (1, 300.0, 100.0)]);
    reject(overlapping, "rank_outages.overlap");
    // The same two windows on different ranks are fine.
    let disjoint_ranks = with(&[(1, 100.0, 500.0), (2, 300.0, 100.0)]);
    assert_eq!(disjoint_ranks.validate(), Ok(()));

    // Injection: a mid-trace rank outage on a 2-DIMM node halves gather
    // bandwidth inside the window, so the run is strictly slower than the
    // healthy one and bit-identical on replay.
    let mut plan = with(&[(0, 200.0, 1_500.0)]);
    plan.dimms = 2;
    let model = SystemModel::paper_defaults();
    let w = Workload::by_name(WorkloadName::Facebook);
    let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(16, 200.0));
    let arrivals = ArrivalProcess::Poisson {
        rate_qps: 400_000.0,
    }
    .sample_arrivals_us(300, 11);
    let healthy = simulate(&model, &w, &cfg, &arrivals).expect("valid");
    let degraded = simulate(&model, &w, &cfg.with_faults(plan), &arrivals).expect("valid");
    let replay = simulate(&model, &w, &cfg.with_faults(plan), &arrivals).expect("valid");
    assert_eq!(
        degraded, replay,
        "fault-enabled runs replay bit-identically"
    );
    assert!(degraded.is_conserved());
    assert!(
        degraded.latency.p99_us > healthy.latency.p99_us,
        "losing a rank mid-trace must show in the tail ({} vs {})",
        degraded.latency.p99_us,
        healthy.latency.p99_us
    );
}

/// A full-rate 2-DIMM fault plan plus a mid-trace node outage longer than
/// the deadline: some requests are structurally guaranteed to miss the
/// SLA whatever the trace draws, and every request is still accounted
/// for.
#[test]
fn harsh_plan_conserves_requests_and_costs_availability() {
    let model = SystemModel::paper_defaults();
    let w = Workload::by_name(WorkloadName::Facebook);
    let mut harsh = FaultPlan::dimm_faults(0xfa, 1.0);
    harsh.dimms = 2;
    harsh.dimm_candidate_gap_us = 250.0;
    harsh.dimm_repair_us = 2_500.0;
    let harsh = harsh.with_node_outage(NodeOutage {
        start_us: 100.0,
        duration_us: 2_500.0,
    });
    let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
        .with_faults(harsh)
        .with_retry(
            RetryPolicy::none()
                .with_deadline(2_000.0)
                .with_retries(3, 100.0, 2_000.0),
        )
        .with_admission(AdmissionPolicy::bounded(256));
    for requests in [400, 2_000] {
        let arrivals = ArrivalProcess::Poisson {
            rate_qps: 300_000.0,
        }
        .sample_arrivals_us(requests, 0xfa11);
        let faulted = simulate(&model, &w, &cfg, &arrivals).expect("valid");
        assert!(
            faulted.is_conserved(),
            "{requests} requests: conservation violated under faults"
        );
        assert!(
            faulted.availability < 1.0,
            "{requests} requests: a full-rate 2-DIMM plan must cost some availability"
        );
    }
}
