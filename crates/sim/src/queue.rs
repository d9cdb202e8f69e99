//! Deterministic future-event list.
//!
//! [`TimedQueue`] is a clock-free binary heap ordered by `(time, insertion
//! order)`: items due at the same instant pop in the order they were
//! pushed, which makes every experiment reproducible bit-for-bit for a
//! given seed. [`EventQueue`] is that queue plus the simulation clock; the
//! netem qdisc's held packets and the dataplane's delivery queue use the
//! bare queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled for execution at a given virtual time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break sequence number (assigned by the queue).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Items keyed by a due time, popped earliest first and FIFO among equal
/// times. It keeps no clock: any time may be pushed.
#[derive(Debug)]
pub struct TimedQueue<T> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    next_seq: u64,
}

impl<T> Default for TimedQueue<T> {
    fn default() -> Self {
        TimedQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T> TimedQueue<T> {
    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `item` due at `at`, after every item already due then.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            time: at,
            seq,
            event: item,
        });
    }

    /// Due time of the earliest item, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest item with its due time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest item if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<T> {
        if self.peek_time()? > now {
            return None;
        }
        self.pop().map(|(_, item)| item)
    }

    /// Removes every queued item.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A future-event list holding events of type `E`: a [`TimedQueue`] plus
/// the simulation clock.
#[derive(Debug)]
pub struct EventQueue<E> {
    queue: TimedQueue<E>,
    now: SimTime,
    executed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            queue: TimedQueue::default(),
            now: SimTime::ZERO,
            executed: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total number of events executed (popped) over the queue's lifetime.
    pub fn total_executed(&self) -> u64 {
        self.executed
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time: scheduling
    /// into the past would silently reorder causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now);
        self.now = time;
        self.executed += 1;
        Some((time, event))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// When the next event is after `deadline`, the clock advances to
    /// `deadline` and `None` is returned.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Removes all pending events, leaving the clock untouched.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_millis(30));
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "first");
        let _ = q.pop();
        q.schedule_in(SimDuration::from_secs(2), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(7));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        let _ = q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "early");
        q.schedule(SimTime::from_secs(10), "late");
        assert!(q.pop_until(SimTime::from_secs(5)).is_some());
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        // The clock advanced to the deadline even though nothing fired.
        assert_eq!(q.now(), SimTime::from_secs(5));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn a_timed_queue_pops_due_items_in_time_then_push_order() {
        let mut q = TimedQueue::default();
        let t = SimTime::from_millis(10);
        q.push(SimTime::from_millis(20), "late");
        q.push(t, "first");
        q.push(t, "second");
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(q.pop_due(t), Some("first"));
        assert_eq!(q.pop_due(t), Some("second"));
        assert_eq!(q.pop_due(t), None);
        // No clock: an earlier time may still be pushed.
        q.push(SimTime::ZERO, "early");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "early")));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(SimTime::from_millis(i as u64), i);
        }
        for _ in 0..4 {
            q.pop();
        }
        assert_eq!(q.total_executed(), 4);
        assert_eq!(q.len(), 6);
        q.clear();
        assert!(q.is_empty());
    }
}
