//! Requests and request traces.
//!
//! A *request* is one user query: a single inference sample whose
//! embedding lookups hit Zipf-skewed rows. A [`RequestTrace`] is the
//! open-loop input to the simulator — arrival instants drawn from an
//! [`ArrivalProcess`] plus a summary of the lookup locality the trace
//! carries.

use std::num::NonZeroU32;

use tensordimm_models::Workload;

use crate::arrivals::{hot_row_share, zipf_lookup_rows, ArrivalProcess};

/// What happened to a dispatched request.
///
/// 24 bytes, and `Option<CompletionRecord>` too: `batch_size` is never
/// zero, so `None` lives in its niche. Every request of a run carries one
/// of these inside its [`RequestRecord`], which keeps that record at 40
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionRecord {
    /// When its batch left the queue for a GPU, µs.
    pub dispatch_us: f64,
    /// When its batch finished, µs.
    pub finish_us: f64,
    /// How many requests shared its batch, itself included (so at least
    /// one; at most [`BatchPolicy::max_batch`](crate::BatchPolicy::max_batch),
    /// which validation keeps within `u32`).
    pub batch_size: NonZeroU32,
    /// Which GPU served it, `0..SimConfig::gpus` (validation keeps the GPU
    /// count within `u32`).
    pub gpu: u32,
}

/// How a request that arrived inside the simulated window ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestOutcome {
    /// Its batch finished on a GPU (possibly after its deadline — SLO
    /// accounting judges lateness separately, see
    /// [`SimReport::availability_at`](crate::sim::SimReport::availability_at)).
    Completed,
    /// Rejected by admission control with its retry budget exhausted.
    Shed,
    /// Its deadline passed while it was still waiting (in the batcher's
    /// queue or between backoff retries).
    TimedOut,
    /// Still queued, awaiting a retry, or on a GPU when the clock stopped.
    InFlightAtHorizon,
}

/// Per-request outcome of a simulation: 40 bytes, one per offered
/// request, so a run's records dominate its memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// When the request arrived, µs.
    pub arrival_us: f64,
    /// Set once the request's batch completes; `None` when it was shed,
    /// timed out, or the simulation horizon cut it off.
    pub completion: Option<CompletionRecord>,
    /// What became of the request; `None` when its arrival fell outside
    /// the simulated window.
    pub outcome: Option<RequestOutcome>,
    /// Backoff re-admissions this request went through.
    pub retries: u32,
}

// One record per offered request: a size change moves every run's memory.
const _: () = assert!(std::mem::size_of::<Option<CompletionRecord>>() == 24);
const _: () = assert!(std::mem::size_of::<RequestRecord>() == 40);

impl RequestRecord {
    /// A fresh record for a request arriving at `arrival_us` whose fate is
    /// not yet known.
    pub fn pending(arrival_us: f64) -> Self {
        RequestRecord {
            arrival_us,
            completion: None,
            outcome: None,
            retries: 0,
        }
    }

    /// End-to-end latency (arrival to completion), µs.
    pub fn latency_us(&self) -> Option<f64> {
        self.completion.map(|c| c.finish_us - self.arrival_us)
    }

    /// Time spent waiting in the batcher's queue, µs.
    pub fn queue_wait_us(&self) -> Option<f64> {
        self.completion.map(|c| c.dispatch_us - self.arrival_us)
    }
}

/// How many lookups to sample when estimating a trace's row locality.
const LOCALITY_SAMPLE_LOOKUPS: usize = 100_000;

/// An open-loop serving trace: when requests arrive and how skewed their
/// table lookups are.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Sorted arrival instants, µs.
    pub arrivals_us: Vec<f64>,
    /// The process that generated the arrivals.
    pub process: ArrivalProcess,
    /// Zipf exponent of the per-request row popularity.
    pub zipf_s: f64,
    /// Measured share of this trace's lookups hitting the hottest 1% of
    /// table rows (sampled; 0.01 would be the uniform baseline, and a
    /// workload with empty tables reads 0.0).
    pub hot_lookup_share: f64,
}

impl RequestTrace {
    /// Generate `n` requests of `workload` under `process`, with lookup
    /// rows drawn Zipf(`zipf_s`) over the workload's tables. Deterministic
    /// per seed.
    pub fn generate(
        workload: &Workload,
        process: ArrivalProcess,
        n: usize,
        zipf_s: f64,
        seed: u64,
    ) -> Self {
        let arrivals_us = process.sample_arrivals_us(n, seed);
        // Locality summary: sample the rows the first requests would touch
        // (none when the tables have no rows to touch).
        let lookups = if workload.rows_per_table == 0 {
            0
        } else {
            (n * workload.lookups_per_sample() as usize).min(LOCALITY_SAMPLE_LOOKUPS)
        };
        let rows = zipf_lookup_rows(lookups, workload.rows_per_table, zipf_s, seed ^ 0x5e71);
        RequestTrace {
            arrivals_us,
            process,
            zipf_s,
            hot_lookup_share: hot_row_share(&rows, workload.rows_per_table, 0.01),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals_us.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals_us.is_empty()
    }

    /// The realized offered load: requests over the arrival span, queries
    /// per second (`0` for traces with fewer than two requests).
    pub fn offered_qps(&self) -> f64 {
        if self.arrivals_us.len() < 2 {
            return 0.0;
        }
        let span_s = (self.arrivals_us[self.arrivals_us.len() - 1] - self.arrivals_us[0]) * 1e-6;
        if span_s > 0.0 {
            self.arrivals_us.len() as f64 / span_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_is_sorted_and_skewed() {
        let w = Workload::facebook();
        let t = RequestTrace::generate(
            &w,
            ArrivalProcess::Poisson { rate_qps: 50_000.0 },
            500,
            0.9,
            17,
        );
        assert_eq!(t.len(), 500);
        assert!(t.arrivals_us.windows(2).all(|w| w[0] <= w[1]));
        // Zipf 0.9 concentrates far more than the 1% uniform baseline.
        assert!(
            t.hot_lookup_share > 0.05,
            "hot share {}",
            t.hot_lookup_share
        );
        let realized = t.offered_qps();
        assert!(
            (25_000.0..100_000.0).contains(&realized),
            "realized {realized:.0} qps"
        );
    }

    #[test]
    fn empty_tables_have_no_hot_share() {
        let w = Workload {
            rows_per_table: 0,
            ..Workload::facebook()
        };
        let t = RequestTrace::generate(&w, ArrivalProcess::Poisson { rate_qps: 1e4 }, 50, 0.9, 3);
        assert_eq!(t.len(), 50);
        assert_eq!(t.hot_lookup_share, 0.0);
    }

    #[test]
    fn trace_deterministic_per_seed() {
        let w = Workload::youtube();
        let p = ArrivalProcess::Bursty {
            rate_qps: 20_000.0,
            mean_burst: 8.0,
        };
        assert_eq!(
            RequestTrace::generate(&w, p, 300, 0.9, 5),
            RequestTrace::generate(&w, p, 300, 0.9, 5)
        );
        assert_ne!(
            RequestTrace::generate(&w, p, 300, 0.9, 5).arrivals_us,
            RequestTrace::generate(&w, p, 300, 0.9, 6).arrivals_us
        );
    }

    #[test]
    fn record_accessors() {
        let r = RequestRecord {
            completion: Some(CompletionRecord {
                dispatch_us: 25.0,
                finish_us: 100.0,
                batch_size: NonZeroU32::new(4).expect("nonzero"),
                gpu: 2,
            }),
            outcome: Some(RequestOutcome::Completed),
            ..RequestRecord::pending(10.0)
        };
        assert_eq!(r.latency_us(), Some(90.0));
        assert_eq!(r.queue_wait_us(), Some(15.0));
        let unfinished = RequestRecord::pending(10.0);
        assert_eq!(unfinished.latency_us(), None);
        assert_eq!(unfinished.outcome, None);
    }
}
