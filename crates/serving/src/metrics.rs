//! Serving metrics: the outcome fold both simulators build their reports
//! from, latency percentiles, queue-depth statistics and batch-occupancy
//! histograms.

use crate::request::RequestOutcome;

/// Nearest-rank percentile of an ascending-sorted sample, `pct` in
/// `[0, 100]`. Empty samples yield `0.0`; `pct = 0` yields the minimum
/// sample and `pct = 100` the maximum.
///
/// # Panics
///
/// Panics when `pct` is NaN or outside `[0, 100]`. (Before this guard, a
/// NaN rank silently cast to 0 and clamped to the *minimum* sample, and
/// `pct > 100` clamped to the maximum — both would quietly misreport a
/// tail instead of flagging the caller's bug.)
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} outside [0, 100]"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Tail-latency summary of completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Completed requests the summary covers.
    pub count: usize,
    /// Mean end-to-end latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Worst observed latency, µs.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarize a set of end-to-end latencies (µs, any order).
    ///
    /// An **empty** sample returns exactly [`LatencySummary::default()`]:
    /// `count == 0` and every statistic `0.0` (not NaN — a `0/0` mean
    /// would poison downstream comparisons and serialization). This is a
    /// contract: zero-completion simulations (empty traces, horizons that
    /// cut everything off, full-outage fault plans) lean on it, and it is
    /// pinned by `empty_sample_is_the_default_summary`.
    pub fn from_latencies(mut latencies: Vec<f64>) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        // In place, and the same order as a stable sort: `total_cmp`-equal
        // floats have identical bits.
        latencies.sort_unstable_by(f64::total_cmp);
        let count = latencies.len();
        let mean_us = latencies.iter().sum::<f64>() / count as f64;
        LatencySummary {
            count,
            mean_us,
            p50_us: percentile(&latencies, 50.0),
            p95_us: percentile(&latencies, 95.0),
            p99_us: percentile(&latencies, 99.0),
            max_us: latencies[count - 1],
        }
    }
}

/// Where every arrived request ended up, by [`RequestOutcome`], as
/// counted by [`OutcomeFold::fold`]. The conservation law
/// `completed + shed + timed_out + in_flight_at_horizon == arrived` holds
/// at every grid point (enforced by
/// [`SimReport::is_conserved`](crate::sim::SimReport::is_conserved) and the
/// `sweep_availability` gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Requests whose batch finished on a GPU.
    pub completed: usize,
    /// Requests rejected by admission control with no retries left.
    pub shed: usize,
    /// Requests whose deadline expired while still waiting.
    pub timed_out: usize,
    /// Requests queued, between retries, or on a GPU when the clock
    /// stopped.
    pub in_flight_at_horizon: usize,
}

impl OutcomeCounts {
    /// Total requests accounted for (should equal `arrived`).
    pub fn total(&self) -> usize {
        self.completed + self.shed + self.timed_out + self.in_flight_at_horizon
    }

    /// The conservation law itself: every request that arrived is
    /// accounted for exactly once. The single-node simulator, the sweep
    /// gates, and the cluster layer's fan-out/rejoin accounting all
    /// assert this form (the cluster additionally checks it at every
    /// sweep point including the horizon cut).
    pub fn is_conserved(&self, arrived: usize) -> bool {
        self.total() == arrived
    }
}

/// The outcome fields a node and a cluster report share, folded from
/// every arrived request's final fate. Both simulators build their
/// reports from [`OutcomeFold::fold`], and both `availability_at` methods
/// re-run it at another SLA, so the two layers cannot disagree on what
/// availability, goodput or a rate means.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeFold {
    /// Requests folded: those that arrived inside the simulated window.
    pub arrived: usize,
    /// Where every arrived request ended up.
    pub outcomes: OutcomeCounts,
    /// End-to-end latency summary over completed requests.
    pub latency: LatencySummary,
    /// Fraction of arrived requests completed within the SLA.
    pub availability: f64,
    /// Completed requests per second of virtual time.
    pub throughput_qps: f64,
    /// Requests completed within the SLA per second of virtual time.
    pub goodput_qps: f64,
    /// Fraction of arrived requests shed.
    pub shed_rate: f64,
}

impl OutcomeFold {
    /// Fold each arrived request's `(outcome, latency_us)` (the latency
    /// is read only for completed requests), judging completions against
    /// `sla_us` over a run of `end_us` µs. No arrivals ⇒ availability
    /// `1.0`; a zero-length run has zero rates; an all-shed run reports
    /// availability `0.0` and an all-zero latency summary, never NaN.
    ///
    /// # Panics
    ///
    /// Panics on a NaN `sla_us` (`f64::INFINITY` is the spelling for "no
    /// SLA") and on a completed request without a latency.
    pub fn fold(
        requests: impl IntoIterator<Item = (RequestOutcome, Option<f64>)>,
        sla_us: f64,
        end_us: f64,
    ) -> Self {
        assert!(!sla_us.is_nan(), "availability_at: NaN SLA");
        let mut arrived = 0usize;
        let mut outcomes = OutcomeCounts::default();
        let mut within = 0usize;
        let mut latencies = Vec::new();
        for (outcome, latency_us) in requests {
            arrived += 1;
            match outcome {
                RequestOutcome::Completed => {
                    let latency = latency_us.expect("a completed request has a latency");
                    outcomes.completed += 1;
                    within += usize::from(latency <= sla_us);
                    latencies.push(latency);
                }
                RequestOutcome::Shed => outcomes.shed += 1,
                RequestOutcome::TimedOut => outcomes.timed_out += 1,
                RequestOutcome::InFlightAtHorizon => outcomes.in_flight_at_horizon += 1,
            }
        }
        let per_arrival = |n: usize| n as f64 / arrived.max(1) as f64;
        let per_second = |n: usize| {
            if end_us > 0.0 {
                n as f64 / (end_us * 1e-6)
            } else {
                0.0
            }
        };
        OutcomeFold {
            arrived,
            outcomes,
            latency: LatencySummary::from_latencies(latencies),
            availability: if arrived == 0 {
                1.0
            } else {
                per_arrival(within)
            },
            throughput_qps: per_second(outcomes.completed),
            goodput_qps: per_second(within),
            shed_rate: per_arrival(outcomes.shed),
        }
    }
}

/// Waiting-queue depth over the simulated interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueStats {
    /// Time-weighted mean number of waiting (not yet dispatched) requests.
    pub mean_depth: f64,
    /// Peak waiting-queue depth.
    pub max_depth: usize,
}

/// Accumulates the queue-depth integral as the event loop advances time.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueueDepthTracker {
    integral: f64,
    last_time_us: f64,
    max_depth: usize,
}

impl QueueDepthTracker {
    /// Account `depth` having held from the previous event up to `now`.
    pub fn advance(&mut self, now_us: f64, depth: usize) {
        debug_assert!(
            now_us + 1e-9 >= self.last_time_us,
            "virtual time went backwards"
        );
        self.integral += depth as f64 * (now_us - self.last_time_us).max(0.0);
        self.last_time_us = now_us;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Finish the accumulation: integrate out to `advance_to_us`, then
    /// normalize the mean over `[0, denom_us]`. The two differ when the
    /// event loop processed trailing no-op timers past the reported end
    /// of the run (the queue is empty over that stretch, so the integral
    /// is unaffected — only the denominator matters).
    pub fn finish(mut self, advance_to_us: f64, denom_us: f64, depth: usize) -> QueueStats {
        self.advance(advance_to_us, depth);
        QueueStats {
            mean_depth: if denom_us > 0.0 {
                self.integral / denom_us
            } else {
                0.0
            },
            max_depth: self.max_depth,
        }
    }
}

/// How full dispatched batches were.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchStats {
    /// Batches dispatched.
    pub batches: usize,
    /// Mean requests per dispatched batch.
    pub mean_occupancy: f64,
    /// `occupancy_histogram[s]` = batches dispatched with exactly `s`
    /// requests (index 0 unused; length `max_batch + 1`).
    pub occupancy_histogram: Vec<u64>,
}

impl BatchStats {
    /// An empty histogram for batches up to `max_batch`.
    pub(crate) fn new(max_batch: usize) -> Self {
        BatchStats {
            batches: 0,
            mean_occupancy: 0.0,
            occupancy_histogram: vec![0; max_batch + 1],
        }
    }

    /// Account one dispatched batch of `size` requests.
    pub(crate) fn record(&mut self, size: usize) {
        self.batches += 1;
        if size < self.occupancy_histogram.len() {
            self.occupancy_histogram[size] += 1;
        }
    }

    /// Compute the mean once dispatching is done.
    pub(crate) fn finalize(&mut self) {
        let total: u64 = self
            .occupancy_histogram
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum();
        self.mean_occupancy = if self.batches > 0 {
            total as f64 / self.batches as f64
        } else {
            0.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_domain_endpoints() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0, "p0 is the minimum sample");
        assert_eq!(percentile(&v, 100.0), 100.0, "p100 is the maximum");
        // Fractional percentiles stay in range near the endpoints too.
        assert_eq!(percentile(&v, 0.5), 1.0);
        assert_eq!(percentile(&v, 99.5), 100.0);
    }

    #[test]
    fn percentile_single_element_sample() {
        for pct in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], pct), 7.5, "pct {pct}");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn percentile_rejects_above_100() {
        percentile(&[1.0, 2.0], 101.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn percentile_rejects_negative() {
        percentile(&[1.0, 2.0], -0.1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn percentile_rejects_nan() {
        // Pre-fix, a NaN rank cast to 0 and was silently clamped to the
        // minimum sample — reporting a p-NaN "tail" equal to the best case.
        percentile(&[1.0, 2.0], f64::NAN);
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let lat: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).rev().collect();
        let s = LatencySummary::from_latencies(lat);
        assert_eq!(s.count, 1000);
        assert!(s.p50_us <= s.p95_us);
        assert!(s.p95_us <= s.p99_us);
        assert!(s.p99_us <= s.max_us);
        assert!(s.mean_us > 0.0);
    }

    /// Pins the documented empty-sample contract: all-zero, never NaN.
    #[test]
    fn empty_sample_is_the_default_summary() {
        let s = LatencySummary::from_latencies(Vec::new());
        assert_eq!(s, LatencySummary::default());
        assert_eq!(s.count, 0);
        for stat in [s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.max_us] {
            assert_eq!(stat, 0.0, "empty summary must be all-zero, not NaN");
        }
    }

    #[test]
    fn outcome_counts_total() {
        let c = OutcomeCounts {
            completed: 5,
            shed: 2,
            timed_out: 1,
            in_flight_at_horizon: 3,
        };
        assert_eq!(c.total(), 11);
        assert_eq!(OutcomeCounts::default().total(), 0);
    }

    #[test]
    fn fold_counts_rates_and_the_empty_contract() {
        use RequestOutcome::*;
        let fates = [
            (Completed, Some(100.0)),
            (Completed, Some(300.0)),
            (Shed, None),
            (TimedOut, None),
            (InFlightAtHorizon, None),
        ];
        let f = OutcomeFold::fold(fates, 200.0, 1_000.0);
        assert_eq!(f.arrived, 5);
        assert!(f.outcomes.is_conserved(5));
        assert_eq!(f.latency.count, 2);
        assert_eq!(f.availability, 1.0 / 5.0);
        assert_eq!(f.shed_rate, 1.0 / 5.0);
        assert_eq!(f.throughput_qps, 2.0 / (1_000.0 * 1e-6));
        assert_eq!(f.goodput_qps, 1.0 / (1_000.0 * 1e-6));
        let empty = OutcomeFold::fold([], 200.0, 0.0);
        assert_eq!(
            empty.availability, 1.0,
            "no arrivals is vacuously available"
        );
        assert_eq!(empty.latency, LatencySummary::default());
        assert_eq!(
            [empty.throughput_qps, empty.goodput_qps, empty.shed_rate],
            [0.0; 3]
        );
        // The SLA bound is inclusive.
        let on_the_bound = [(Completed, Some(90.0))];
        assert_eq!(
            OutcomeFold::fold(on_the_bound, 90.0, 1_000.0).availability,
            1.0
        );
        assert_eq!(
            OutcomeFold::fold(on_the_bound, 90.0f64.next_down(), 1_000.0).availability,
            0.0
        );
        let just_over = [(Completed, Some(90.0f64.next_up()))];
        let f = OutcomeFold::fold(just_over, 90.0, 1_000.0);
        assert_eq!([f.availability, f.goodput_qps], [0.0; 2]);
        // Shed, timed-out and unfinished requests never count, even with
        // no SLA at all.
        for fate in [Shed, TimedOut, InFlightAtHorizon] {
            let f = OutcomeFold::fold([(fate, None)], f64::INFINITY, 1_000.0);
            assert_eq!([f.availability, f.goodput_qps], [0.0; 2], "{fate:?}");
            assert_eq!(f.arrived, 1);
        }
    }

    #[test]
    fn queue_tracker_time_weighting() {
        let mut t = QueueDepthTracker::default();
        t.advance(10.0, 0); // depth 0 over [0, 10)
        t.advance(20.0, 4); // depth 4 over [10, 20)
        let stats = t.finish(40.0, 40.0, 1); // depth 1 over [20, 40)
                                             // (0*10 + 4*10 + 1*20) / 40 = 1.5
        assert!((stats.mean_depth - 1.5).abs() < 1e-12);
        assert_eq!(stats.max_depth, 4);
    }

    /// Trailing no-op events integrate at depth 0 past the reported end:
    /// only the denominator is pinned to the run length.
    #[test]
    fn queue_tracker_trailing_no_op_region() {
        let mut t = QueueDepthTracker::default();
        t.advance(10.0, 2); // depth 2 over [0, 10)
        let stats = t.finish(50.0, 10.0, 0); // empty over the no-op tail
        assert!((stats.mean_depth - 2.0).abs() < 1e-12);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn batch_stats_histogram() {
        let mut b = BatchStats::new(8);
        for size in [8, 8, 3, 1] {
            b.record(size);
        }
        b.finalize();
        assert_eq!(b.batches, 4);
        assert_eq!(b.occupancy_histogram[8], 2);
        assert_eq!(b.occupancy_histogram[1], 1);
        assert!((b.mean_occupancy - 5.0).abs() < 1e-12);
    }
}
