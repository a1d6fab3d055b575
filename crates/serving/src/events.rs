//! The serving loop's event queue: which timers are armed, where each one
//! waits, and the order the loop receives them in. Events come from six
//! sorted sources, merged by taking the least head under the (time, kind,
//! creation order) key of the `sim` module docs ("Event ordering"):
//!
//! - arrivals stream from the sorted trace through a cursor;
//! - four FIFO lanes hold the timers that fire a fixed offset after an
//!   instant that never goes backwards: batch-window flushes (a queue
//!   front's admission plus `max_wait_us`), deadlines (arrival plus
//!   `deadline_us`), hedge timers (dispatch plus `hedge_after_us`) and
//!   fault transitions (pushed once, in schedule order). Timers of one
//!   kind are therefore armed already in pop order, and a lane needs no
//!   heap;
//! - a heap holds the timers whose delays vary: GPU completions and
//!   backoff re-admissions, at most one completion per GPU plus the
//!   pending retries.
//!
//! A timer joins its lane only if it orders after the lane's tail;
//! otherwise it falls back to the heap. Every source thus yields its
//! events in order by construction, whatever the inputs, and the merge
//! pops events in exactly the order one heap holding them all would (the
//! lanes change where an event waits, never its key). The queue also
//! keeps the horizon rule (`sim` module docs, "Only timers that can act").

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// What a [`EventKind::RetryFire`] event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RetryKind {
    /// Re-admit request `id` after its backoff delay (no-op when a
    /// deadline already resolved it).
    Readmit(usize),
    /// Request `id`'s deadline: remove it from the queue or cancel its
    /// pending retry; an in-flight request is left to finish.
    Deadline(usize),
    /// Hedge logical batch `batch` if it is still running on `gpu`:
    /// dispatch a duplicate copy to a free GPU.
    Hedge { gpu: usize, batch: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// Request `id` arrives.
    Arrival(usize),
    /// A batch-window timer fires; seal a partial batch if one expired.
    Flush,
    /// The batch copy on `gpu` completes.
    GpuDone(usize),
    /// Fault state transition (index into the expanded transition list).
    FaultTransition(usize),
    /// A retry/deadline/hedge timer fires.
    RetryFire(RetryKind),
}

impl EventKind {
    /// Same-instant ordering (the `sim` module docs give the reasons).
    fn tie_rank(&self) -> u8 {
        match self {
            EventKind::GpuDone(_) => 0,
            EventKind::FaultTransition(_) => 1,
            EventKind::Arrival(_) => 2,
            EventKind::RetryFire(_) => 3,
            EventKind::Flush => 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) time_us: f64,
    seq: u64,
    pub(crate) kind: EventKind,
}

// Min-heap ordering on (time, kind rank, seq): BinaryHeap is a max-heap,
// so compare reversed. The kind rank makes timestamp collisions follow the
// documented semantics instead of heap/push-order accidents; `seq` breaks
// the remaining ties deterministically (FIFO within a kind).
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_us
            .total_cmp(&self.time_us)
            .then_with(|| other.kind.tie_rank().cmp(&self.kind.tie_rank()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

/// The timer kinds that fire a fixed offset after an instant that never
/// goes backwards (see the module docs), so each kind is armed already in
/// pop order and rides a FIFO instead of the heap.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Flush,
    Deadline,
    Hedge,
    Fault,
}

impl Lane {
    const COUNT: usize = 4;

    /// The lane a timer of `kind` rides, or `None` for the heap.
    fn of(kind: EventKind) -> Option<Lane> {
        match kind {
            EventKind::Flush => Some(Lane::Flush),
            EventKind::RetryFire(RetryKind::Deadline(_)) => Some(Lane::Deadline),
            EventKind::RetryFire(RetryKind::Hedge { .. }) => Some(Lane::Hedge),
            EventKind::FaultTransition(_) => Some(Lane::Fault),
            EventKind::Arrival(_)
            | EventKind::GpuDone(_)
            | EventKind::RetryFire(RetryKind::Readmit(_)) => None,
        }
    }
}

/// Which timers the queue arms, and where it queues them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerRouting {
    /// Only the timers that can act (see the `sim` module docs), with the
    /// constant-delay ones on their [`Lane`]s.
    Lanes,
    /// Every timer the straightforward loop arms (a flush per admission,
    /// every deadline popped), all on one heap: the oracle the lanes must
    /// reproduce bit for bit, `queue.mean_depth` aside.
    #[cfg(test)]
    HeapOnly,
}

/// Timer-queue occupancy and loop work over one run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TimerStats {
    /// Largest heap length.
    pub(crate) peak_heap: usize,
    /// Largest number of timers on the lanes together.
    pub(crate) peak_lanes: usize,
    /// Largest number of live timers, heap plus lanes.
    pub(crate) peak_live: usize,
    /// Lane timers that did not order after their lane's tail and went to
    /// the heap instead.
    pub(crate) fallbacks: usize,
    /// Events handed to the loop (settled deadlines dropped at the lane
    /// head and events past the horizon are not).
    pub(crate) popped: usize,
}

/// Where [`EventQueue::pop`] found the next event.
#[derive(Debug, Clone, Copy)]
enum Source {
    Arrival,
    Heap,
    Lane(usize),
}

/// The arrival cursor, the timer heap and lanes, and the horizon rule.
pub(crate) struct EventQueue<'a> {
    /// The validated, sorted trace; arrivals stream from it by cursor.
    arrivals_us: &'a [f64],
    /// Index of the next arrival not yet handed to the loop.
    next_arrival: usize,
    /// Timers whose delay varies (GPU completions, backoff re-admissions),
    /// plus any lane timer that would not order after its lane's tail.
    heap: BinaryHeap<Event>,
    /// One FIFO per constant-delay timer kind (see [`Lane`]), each in
    /// pop order by construction.
    lanes: [VecDeque<Event>; Lane::COUNT],
    /// Timers on the lanes together.
    lane_len: usize,
    routing: TimerRouting,
    /// Events after this instant are not handed to the loop; `cut` says
    /// whether one was found.
    horizon_us: Option<f64>,
    cut: bool,
    /// The flush instant of the front last seen by
    /// [`EventQueue::arm_front_flush`]: the front changed iff its flush
    /// instant differs (fronts with one instant share one flush).
    front_flush_us: f64,
    /// The latest flush or deadline instant the every-timer loop would
    /// arm, for the horizon rule.
    latest_timer_us: f64,
    stats: TimerStats,
    /// Next timer `seq`: arrivals own `0..n`, so timers start at `n`.
    seq: u64,
}

impl<'a> EventQueue<'a> {
    /// A queue over the sorted `arrivals_us`, with room on the heap for
    /// `heap_capacity` timers before it grows.
    pub(crate) fn new(
        arrivals_us: &'a [f64],
        horizon_us: Option<f64>,
        heap_capacity: usize,
        routing: TimerRouting,
    ) -> Self {
        EventQueue {
            arrivals_us,
            next_arrival: 0,
            heap: BinaryHeap::with_capacity(heap_capacity),
            lanes: Default::default(),
            lane_len: 0,
            routing,
            horizon_us,
            cut: false,
            front_flush_us: f64::NEG_INFINITY,
            latest_timer_us: f64::NEG_INFINITY,
            stats: TimerStats::default(),
            seq: arrivals_us.len() as u64,
        }
    }

    /// Arm a timer of `kind` at `time_us` on its lane, or on the heap.
    pub(crate) fn push(&mut self, time_us: f64, kind: EventKind) {
        let event = Event {
            time_us,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        let lane = Lane::of(kind);
        if matches!(lane, Some(Lane::Flush | Lane::Deadline)) {
            self.latest_timer_us = self.latest_timer_us.max(time_us);
        }
        match lane.filter(|_| self.routing == TimerRouting::Lanes) {
            Some(lane) => {
                let lane = &mut self.lanes[lane as usize];
                // `Ord` is reversed for the max-heap: a later event is less.
                if lane.back().is_none_or(|tail| event < *tail) {
                    lane.push_back(event);
                    self.lane_len += 1;
                } else {
                    self.stats.fallbacks += 1;
                    self.heap.push(event);
                }
            }
            None => self.heap.push(event),
        }
        let stats = &mut self.stats;
        stats.peak_heap = stats.peak_heap.max(self.heap.len());
        stats.peak_lanes = stats.peak_lanes.max(self.lane_len);
        stats.peak_live = stats.peak_live.max(self.heap.len() + self.lane_len);
    }

    /// The next event in (time, kind, seq) order, or `None` once none is
    /// left before the horizon: the least of the cursor's arrival (arrival
    /// `i` carries `seq = i`), the heap's top and the lane fronts. The
    /// deadlines of requests that are `settled` (have an outcome) are
    /// dropped from the lane head first.
    pub(crate) fn pop(&mut self, settled: impl Fn(usize) -> bool) -> Option<Event> {
        let deadlines = &mut self.lanes[Lane::Deadline as usize];
        while let Some(&Event {
            kind: EventKind::RetryFire(RetryKind::Deadline(id)),
            ..
        }) = deadlines.front()
        {
            if !settled(id) {
                break;
            }
            deadlines.pop_front();
            self.lane_len -= 1;
        }
        let i = self.next_arrival;
        let mut next = self.arrivals_us.get(i).map(|&time_us| {
            let arrival = Event {
                time_us,
                seq: i as u64,
                kind: EventKind::Arrival(i),
            };
            (arrival, Source::Arrival)
        });
        let fronts = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(l, lane)| lane.front().map(|&e| (e, Source::Lane(l))));
        let top = self.heap.peek().map(|&e| (e, Source::Heap));
        for (event, source) in top.into_iter().chain(fronts) {
            // `Ord` is reversed for the max-heap: greater orders first.
            if next.is_none_or(|(best, _)| event > best) {
                next = Some((event, source));
            }
        }
        let (event, source) = next?;
        if self.horizon_us.is_some_and(|h| event.time_us > h) {
            self.cut = true;
            return None;
        }
        match source {
            Source::Arrival => self.next_arrival += 1,
            Source::Heap => {
                self.heap.pop();
            }
            Source::Lane(l) => {
                self.lanes[l].pop_front();
                self.lane_len -= 1;
            }
        }
        self.stats.popped += 1;
        Some(event)
    }

    /// Record an admission whose batch window ends at `flush_us`. The
    /// every-timer oracle arms that flush; the lanes arm only the flush
    /// of each queue front ([`EventQueue::arm_front_flush`]) and keep the
    /// instant for the horizon rule.
    pub(crate) fn admitted(&mut self, flush_us: f64) {
        match self.routing {
            TimerRouting::Lanes => self.latest_timer_us = self.latest_timer_us.max(flush_us),
            #[cfg(test)]
            TimerRouting::HeapOnly => self.push(flush_us, EventKind::Flush),
        }
    }

    /// Arm the flush of the queue front whose window ends at `flush_us`
    /// (`None` for an empty queue) if the front changed since the last
    /// call, unless its window already ended (an expired front is sealed
    /// by the next event that frees a GPU or the node, each of which
    /// dispatches what is ready).
    pub(crate) fn arm_front_flush(&mut self, now_us: f64, flush_us: Option<f64>) {
        let front = flush_us.filter(|&f| f != self.front_flush_us);
        if let (Some(flush_us), TimerRouting::Lanes) = (front, self.routing) {
            self.front_flush_us = flush_us;
            if flush_us >= now_us {
                self.push(flush_us, EventKind::Flush);
            }
        }
    }

    /// Whether the horizon cut the run: an event lay past it, or a flush
    /// or deadline the every-timer loop would arm did.
    pub(crate) fn horizon_cut(&self) -> bool {
        self.cut || self.horizon_us.is_some_and(|h| self.latest_timer_us > h)
    }

    /// Occupancy and work so far.
    pub(crate) fn stats(&self) -> TimerStats {
        self.stats
    }
}
