//! Bounded ingest queues with explicit backpressure.
//!
//! Every queue interaction returns a typed outcome — an item is accepted,
//! rejected, or shed, never silently dropped. Deadline expiry is applied
//! at *pop* time: an item that waited longer than the queue deadline is
//! returned to the caller as expired instead of being handed to a worker,
//! so the shedding decision and its accounting happen in one place.
//!
//! Locking discipline: the internal mutex is held only for O(1) deque
//! operations, and every acquisition goes through
//! `unwrap_or_else(PoisonError::into_inner)` — a panicking shard thread
//! (the supervisor's whole job is absorbing those) must not turn into a
//! poisoned-lock panic on the ingest path.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What to do when a bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Evict the oldest queued item to make room for the new one — the
    /// freshest telemetry wins (stale readings are the least valuable).
    ShedOldest,
    /// Refuse the new item and keep the queue as is — callers see the
    /// rejection and may retry after backoff.
    RejectNewest,
}

struct Enqueued<T> {
    item: T,
    at: Instant,
}

struct Inner<T> {
    items: VecDeque<Enqueued<T>>,
    closed: bool,
    /// Set by [`BoundedQueue::stop_waiting`]: an empty queue times out at
    /// once instead of blocking.
    no_wait: bool,
}

/// A bounded MPMC queue (mutex + condvar; the workspace is std-only).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> std::fmt::Debug for Inner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("len", &self.items.len())
            .field("closed", &self.closed)
            .finish()
    }
}

/// Outcome of offering one item to a bounded queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Offer<T> {
    /// The item is queued.
    Accepted,
    /// The item is queued and the oldest queued item was evicted to make
    /// room ([`ShedPolicy::ShedOldest`]); the caller owns the eviction's
    /// accounting.
    AcceptedShedOldest(T),
    /// The queue is full and kept its contents
    /// ([`ShedPolicy::RejectNewest`]); the item comes back to the caller.
    Rejected(T),
    /// The queue is closed (shard unhealthy or daemon stopping); the item
    /// comes back to the caller.
    Closed(T),
}

/// What one [`BoundedQueue::pop_timeout`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum PopKind<T> {
    /// A live item within its deadline.
    Item(T),
    /// Nothing arrived within the wait window; poll flags and try again.
    TimedOut,
    /// The queue is closed and empty — no more work will ever arrive.
    Closed,
}

/// A pop result: any deadline-expired items skipped over, plus the
/// outcome. Expired items are never handed to workers; the caller accounts
/// for them (they are shed, not lost).
#[derive(Debug)]
pub struct Popped<T> {
    /// Items whose queue deadline elapsed before a worker got to them.
    pub expired: Vec<T>,
    /// The pop outcome after expiry filtering.
    pub kind: PopKind<T>,
    /// How long the returned item sat in the queue (zero unless `kind` is
    /// [`PopKind::Item`]).
    pub queue_wait: Duration,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false, no_wait: false }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offers one item under `policy`. Never blocks.
    pub fn offer(&self, item: T, policy: ShedPolicy) -> Offer<T> {
        let mut inner = self.lock();
        if inner.closed {
            return Offer::Closed(item);
        }
        if inner.items.len() < self.capacity {
            inner.items.push_back(Enqueued { item, at: Instant::now() });
            drop(inner);
            self.ready.notify_one();
            return Offer::Accepted;
        }
        match policy {
            ShedPolicy::RejectNewest => Offer::Rejected(item),
            ShedPolicy::ShedOldest => {
                let evicted = inner
                    .items
                    .pop_front()
                    .map(|e| e.item)
                    .expect("full queue has a front");
                inner.items.push_back(Enqueued { item, at: Instant::now() });
                drop(inner);
                self.ready.notify_one();
                Offer::AcceptedShedOldest(evicted)
            }
        }
    }

    /// Pops the next item, waiting up to `wait`. Items older than
    /// `deadline` are skipped into `expired` rather than returned.
    pub fn pop_timeout(&self, deadline: Option<Duration>, wait: Duration) -> Popped<T> {
        let mut expired = Vec::new();
        let start = Instant::now();
        let mut inner = self.lock();
        loop {
            while let Some(front) = inner.items.front() {
                let lived = front.at.elapsed();
                if deadline.is_some_and(|d| lived > d) {
                    let e = inner.items.pop_front().expect("front exists");
                    expired.push(e.item);
                    continue;
                }
                let e = inner.items.pop_front().expect("front exists");
                return Popped { expired, kind: PopKind::Item(e.item), queue_wait: lived };
            }
            if inner.closed {
                return Popped { expired, kind: PopKind::Closed, queue_wait: Duration::ZERO };
            }
            let waited = start.elapsed();
            if waited >= wait || inner.no_wait {
                return Popped { expired, kind: PopKind::TimedOut, queue_wait: Duration::ZERO };
            }
            let (guard, _timeout) = self
                .ready
                .wait_timeout(inner, wait - waited)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Closes the queue: further offers return [`Offer::Closed`], pops
    /// drain the remaining items and then report [`PopKind::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Ends blocking pops for good: a pop that finds (or is waiting on) an
    /// empty queue returns [`PopKind::TimedOut`] immediately, so a consumer
    /// told to drain or die re-reads its flags now instead of sitting out
    /// its wait. Queued items are still handed out and offers still land.
    pub fn stop_waiting(&self) {
        self.lock().no_wait = true;
        self.ready.notify_all();
    }

    /// Removes and returns everything queued (used to re-route the work of
    /// a shard taken out of rotation, and to account for residual work at
    /// an abrupt kill).
    pub fn drain_all(&self) -> Vec<T> {
        let mut inner = self.lock();
        inner.items.drain(..).map(|e| e.item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_up_to_capacity_then_applies_policy() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.offer(1, ShedPolicy::RejectNewest), Offer::Accepted);
        assert_eq!(q.offer(2, ShedPolicy::RejectNewest), Offer::Accepted);
        assert_eq!(q.offer(3, ShedPolicy::RejectNewest), Offer::Rejected(3));
        assert_eq!(q.offer(3, ShedPolicy::ShedOldest), Offer::AcceptedShedOldest(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_sees_fifo_order_and_timeout() {
        let q = BoundedQueue::new(4);
        q.offer(7, ShedPolicy::RejectNewest);
        q.offer(8, ShedPolicy::RejectNewest);
        let p = q.pop_timeout(None, Duration::from_millis(1));
        assert_eq!(p.kind, PopKind::Item(7));
        let p = q.pop_timeout(None, Duration::from_millis(1));
        assert_eq!(p.kind, PopKind::Item(8));
        let p = q.pop_timeout(None, Duration::from_millis(1));
        assert_eq!(p.kind, PopKind::TimedOut);
    }

    #[test]
    fn deadline_expiry_is_returned_not_dropped() {
        let q = BoundedQueue::new(4);
        q.offer(1, ShedPolicy::RejectNewest);
        q.offer(2, ShedPolicy::RejectNewest);
        std::thread::sleep(Duration::from_millis(5));
        q.offer(3, ShedPolicy::RejectNewest);
        let p = q.pop_timeout(Some(Duration::from_millis(2)), Duration::from_millis(1));
        assert_eq!(p.expired, vec![1, 2]);
        assert_eq!(p.kind, PopKind::Item(3));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.offer(5, ShedPolicy::RejectNewest);
        q.close();
        assert_eq!(q.offer(6, ShedPolicy::RejectNewest), Offer::Closed(6));
        let p = q.pop_timeout(None, Duration::from_millis(1));
        assert_eq!(p.kind, PopKind::Item(5));
        let p = q.pop_timeout(None, Duration::from_millis(1));
        assert_eq!(p.kind, PopKind::Closed);
    }

    #[test]
    fn pop_reports_how_long_the_item_was_queued() {
        let q = BoundedQueue::new(4);
        q.offer(1, ShedPolicy::RejectNewest);
        std::thread::sleep(Duration::from_millis(3));
        let p = q.pop_timeout(None, Duration::ZERO);
        assert_eq!(p.kind, PopKind::Item(1));
        assert!(p.queue_wait >= Duration::from_millis(3), "waited {:?}", p.queue_wait);
        assert_eq!(q.pop_timeout(None, Duration::ZERO).queue_wait, Duration::ZERO);
    }

    #[test]
    fn stop_waiting_releases_a_blocked_pop_and_keeps_items_flowing() {
        let q = BoundedQueue::new(4);
        let long = Duration::from_secs(30);
        let start = Instant::now();
        std::thread::scope(|scope| {
            // Whether the pop blocks before or after the call, it must come
            // back at once rather than after `long`.
            let popper = scope.spawn(|| q.pop_timeout(None, long));
            q.stop_waiting();
            assert_eq!(popper.join().unwrap().kind, PopKind::TimedOut);
        });
        assert!(start.elapsed() < long / 2, "pop sat out its wait");
        assert_eq!(q.offer(9, ShedPolicy::RejectNewest), Offer::Accepted);
        assert_eq!(q.pop_timeout(None, long).kind, PopKind::Item(9));
        assert_eq!(q.pop_timeout(None, long).kind, PopKind::TimedOut);
    }

    #[test]
    fn drain_all_empties_the_queue() {
        let q = BoundedQueue::new(4);
        for i in 0..3 {
            q.offer(i, ShedPolicy::RejectNewest);
        }
        assert_eq!(q.drain_all(), vec![0, 1, 2]);
        assert!(q.is_empty());
    }
}
