//! The cluster router allocates O(1) amortized per request.
//!
//! `shard_traces` routes a trace and returns the per-shard sub-traces.
//! Doubling the trace may only add the amortized doublings of the
//! run-wide buffers (routes, the flat leg table, the per-shard traces, the
//! fault schedules over a longer horizon): O(log N) allocations, never a
//! sampler, row vector, owner set or leg vector per request.
//!
//! A counting wrapper around the system allocator counts this thread's
//! allocations; the routing is single-threaded, so the count is exact.

mod common;

use common::cluster_faults_config;
use tensordimm::cluster::shard_traces;
use tensordimm::models::Workload;
use tensordimm::serving::ArrivalProcess;
use tensordimm_alloc_count::{measure_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Requests in the shorter trace.
const N: usize = 20_000;

#[test]
fn routing_allocates_o1_amortized_per_request() {
    let cfg = cluster_faults_config();
    let workload = Workload::facebook();
    let trace = ArrivalProcess::Bursty {
        rate_qps: 300_000.0,
        mean_burst: 4.0,
    }
    .sample_arrivals_us(2 * N, 3);
    let allocations = |requests: usize| {
        let (traces, stats) =
            measure_allocations(|| shard_traces(&cfg, &workload, &trace[..requests]));
        let subrequests: usize = traces.expect("valid").iter().map(Vec::len).sum();
        assert!(subrequests > requests, "requests fan out to several shards");
        stats.count
    };
    let (short, long) = (allocations(N), allocations(2 * N));
    // One allocation per request would add N; a per-row owner set would
    // add N x rows. Buffer doublings add a few per run-wide vector.
    assert!(
        long.saturating_sub(short) < 64,
        "{N} more requests made {} more allocations ({short} -> {long})",
        long.saturating_sub(short)
    );
    assert!(long < 1_000, "a whole routing run allocates {long} times");
}
