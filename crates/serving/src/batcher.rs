//! Dynamic batching: the queueing policy between request arrival and GPU
//! dispatch.
//!
//! Production recommender servers do not run one inference per query; they
//! coalesce concurrent queries into a batch so the embedding gather and the
//! MLP amortize their fixed costs. The policy modeled here is the standard
//! two-knob batcher (as in e.g. TensorFlow Serving and Triton): seal a
//! batch as soon as it reaches `max_batch` requests, or when the oldest
//! waiting request has waited `max_wait_us` — whichever comes first.

use std::collections::VecDeque;

use crate::sim::SimError;

/// The two-knob dynamic-batching policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Seal a batch once this many requests are waiting.
    pub max_batch: usize,
    /// Seal a (possibly partial) batch once the oldest waiting request has
    /// waited this long, µs. `0` dispatches every request immediately.
    pub max_wait_us: f64,
}

impl BatchPolicy {
    /// A policy that batches up to `max_batch` with a latency budget of
    /// `max_wait_us`.
    pub fn new(max_batch: usize, max_wait_us: f64) -> Self {
        BatchPolicy {
            max_batch,
            max_wait_us,
        }
    }

    /// Check the knobs are usable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `max_batch` is zero or
    /// above `u32::MAX` (completion records store batch sizes as `u32`),
    /// or `max_wait_us` is negative/non-finite.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.max_batch == 0 || u32::try_from(self.max_batch).is_err() {
            return Err(SimError::InvalidConfig {
                parameter: "max_batch",
            });
        }
        if !self.max_wait_us.is_finite() || self.max_wait_us < 0.0 {
            return Err(SimError::InvalidConfig {
                parameter: "max_wait_us",
            });
        }
        Ok(())
    }
}

/// A request sitting in the batcher's queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// Index into the arrival trace.
    pub id: usize,
    /// When it arrived, µs.
    pub arrival_us: f64,
}

/// FIFO wait queue plus the sealing policy.
///
/// The batcher itself is time-free: the simulator's event loop tells it the
/// current virtual time and asks whether a batch is ready.
#[derive(Debug, Clone)]
pub struct DynamicBatcher {
    policy: BatchPolicy,
    queue: VecDeque<QueuedRequest>,
}

impl DynamicBatcher {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        DynamicBatcher {
            policy,
            queue: VecDeque::new(),
        }
    }

    /// The sealing policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Requests currently waiting.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue an arrival.
    pub fn push(&mut self, request: QueuedRequest) {
        self.queue.push_back(request);
    }

    /// When the oldest waiting request hits its wait budget (its flush
    /// deadline), µs. `None` when the queue is empty.
    pub fn next_deadline_us(&self) -> Option<f64> {
        self.queue
            .front()
            .map(|r| r.arrival_us + self.policy.max_wait_us)
    }

    /// Whether a batch should be sealed at virtual time `now`: either a
    /// full `max_batch` is waiting, or the front request's wait budget is
    /// exhausted (`now` has reached [`next_deadline_us`](Self::next_deadline_us),
    /// the instant its flush timer fires at).
    pub fn ready(&self, now_us: f64) -> bool {
        self.queue.len() >= self.policy.max_batch
            || self
                .next_deadline_us()
                .is_some_and(|deadline| now_us >= deadline)
    }

    /// Remove a still-queued request by id (deadline-expired shedding).
    /// Returns the removed entry, or `None` when `id` is not waiting.
    pub fn remove(&mut self, id: usize) -> Option<QueuedRequest> {
        let pos = self.queue.iter().position(|r| r.id == id)?;
        self.queue.remove(pos)
    }

    /// Seal and return the next batch if one is ready at `now`, oldest
    /// requests first, at most `max_batch` of them.
    pub fn take_ready_batch(&mut self, now_us: f64) -> Option<Vec<QueuedRequest>> {
        if !self.ready(now_us) {
            return None;
        }
        let size = self.queue.len().min(self.policy.max_batch);
        Some(self.queue.drain(..size).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, arrival_us: f64) -> QueuedRequest {
        QueuedRequest { id, arrival_us }
    }

    #[test]
    fn seals_on_full_batch() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(4, 1000.0));
        assert_eq!(b.policy(), BatchPolicy::new(4, 1000.0));
        for i in 0..3 {
            b.push(req(i, 10.0 * i as f64));
            assert!(!b.ready(30.0), "not full, not expired");
        }
        b.push(req(3, 30.0));
        assert!(b.ready(30.0), "full batch seals immediately");
        let batch = b.take_ready_batch(30.0).expect("ready");
        assert_eq!(
            batch.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn seals_on_wait_budget() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(64, 200.0));
        b.push(req(0, 50.0));
        b.push(req(1, 120.0));
        assert!(!b.ready(240.0));
        assert_eq!(b.next_deadline_us(), Some(250.0));
        assert!(b.ready(250.0), "front request waited its budget");
        let batch = b.take_ready_batch(250.0).expect("ready");
        assert_eq!(batch.len(), 2, "partial batch sealed on timeout");
    }

    #[test]
    fn oversized_backlog_splits_into_max_batches() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(4, 100.0));
        for i in 0..10 {
            b.push(req(i, 0.0));
        }
        assert_eq!(b.take_ready_batch(0.0).expect("full").len(), 4);
        assert_eq!(b.take_ready_batch(0.0).expect("full").len(), 4);
        // Two left: not full, but their wait budget expired long ago.
        assert_eq!(b.take_ready_batch(500.0).expect("expired").len(), 2);
        assert!(b.take_ready_batch(500.0).is_none());
    }

    #[test]
    fn zero_wait_dispatches_immediately() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(8, 0.0));
        b.push(req(0, 42.0));
        assert!(b.ready(42.0));
        assert_eq!(b.take_ready_batch(42.0).expect("ready").len(), 1);
    }

    #[test]
    fn remove_drops_only_the_named_request() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(4, 100.0));
        for i in 0..3 {
            b.push(req(i, 10.0 * i as f64));
        }
        assert_eq!(b.remove(1), Some(req(1, 10.0)));
        assert_eq!(b.remove(1), None, "already gone");
        assert_eq!(b.remove(99), None, "never queued");
        assert_eq!(b.depth(), 2);
        // Removing the front request advances the flush deadline.
        assert_eq!(b.next_deadline_us(), Some(100.0));
        assert_eq!(b.remove(0), Some(req(0, 0.0)));
        assert_eq!(b.next_deadline_us(), Some(120.0));
    }

    #[test]
    fn policy_validation() {
        assert!(BatchPolicy::new(0, 10.0).validate().is_err());
        assert!(BatchPolicy::new(1, -1.0).validate().is_err());
        assert!(BatchPolicy::new(1, f64::NAN).validate().is_err());
        assert!(BatchPolicy::new(32, 500.0).validate().is_ok());
    }
}
