//! Bounded MPMC job queue with explicit backpressure and drain-aware
//! close.
//!
//! The admission path calls [`BoundedQueue::try_push_weighted`] — it
//! **never blocks**; a full queue is an immediate [`PushError::Full`] the
//! HTTP layer turns into `503 + Retry-After`. Worker threads block in
//! [`BoundedQueue::pop_weighted`]. Closing distinguishes the two shutdown modes:
//! [`BoundedQueue::close`] lets workers drain what was admitted (graceful
//! shutdown), [`BoundedQueue::close_now`] hands the pending items back so
//! the caller can fail them (abort).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why [`BoundedQueue::try_push_weighted`] rejected an item; the item is handed
/// back so the caller can respond about it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — the backpressure signal.
    Full(T),
    /// The queue was closed; the service is shutting down.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<(T, u64)>,
    /// Sum of the queued items' admission-time cost estimates (predicted
    /// routing steps). Admission control models queue drain time as
    /// `pending_cost × avg ns-per-step`.
    pending_cost: u64,
    closed: bool,
}

/// A fixed-capacity FIFO shared by admission (producers) and the worker
/// pool (consumers). All methods take `&self`; share via `Arc` or a
/// surrounding service struct.
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (admission could never succeed).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be ≥ 1");
        BoundedQueue {
            capacity,
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                pending_cost: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// The queue state. Each critical section moves items in or out and
    /// adjusts the cost and closed flags beside them; none runs code of
    /// `T` (items are never cloned or dropped under the lock), so a
    /// poisoned lock still guards consistent state. It is taken as it is:
    /// one panic elsewhere cannot stop admission or the worker pool.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking push with an admission-time cost estimate (predicted
    /// routing steps) that is added to [`pending_cost`](Self::pending_cost)
    /// until the item is popped. Returns the queue depth after insertion.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close)/[`close_now`](Self::close_now) — both return
    /// the rejected item.
    pub fn try_push_weighted(&self, item: T, cost: u64) -> Result<usize, PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back((item, cost));
        inner.pending_cost += cost;
        self.not_empty.notify_one();
        Ok(inner.items.len())
    }

    /// Blocking pop in FIFO order, with the cost the item was pushed
    /// with, already subtracted from [`pending_cost`](Self::pending_cost)
    /// (the popped item is *in flight*, no longer *pending*; the service
    /// tracks in-flight cost separately). Returns `None` once the queue is
    /// closed **and** drained — the worker-thread exit signal.
    pub fn pop_weighted(&self) -> Option<(T, u64)> {
        let mut inner = self.lock();
        loop {
            if let Some((item, cost)) = inner.items.pop_front() {
                inner.pending_cost -= cost;
                return Some((item, cost));
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Sum of the queued items' admission-time cost estimates.
    pub fn pending_cost(&self) -> u64 {
        self.lock().pending_cost
    }

    /// Closes for new pushes; already-admitted items stay poppable
    /// (graceful-shutdown drain). Wakes every blocked consumer.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Closes **and** empties the queue, returning the pending items so
    /// the caller can fail them (abort shutdown). Wakes every blocked
    /// consumer.
    pub fn close_now(&self) -> Vec<T> {
        let mut inner = self.lock();
        inner.closed = true;
        inner.pending_cost = 0;
        let pending = inner.items.drain(..).map(|(item, _)| item).collect();
        self.not_empty.notify_all();
        pending
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn rejects_when_full_and_accepts_after_pop() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push_weighted(1, 0).unwrap(), 1);
        assert_eq!(q.try_push_weighted(2, 0).unwrap(), 2);
        match q.try_push_weighted(3, 0) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.pop_weighted(), Some((1, 0)));
        assert_eq!(q.try_push_weighted(3, 0).unwrap(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn a_poisoned_lock_keeps_admitting_and_serving() {
        let q = BoundedQueue::new(4);
        q.try_push_weighted("before", 5).unwrap();
        let poisoner = thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = q.inner.lock().unwrap();
                    panic!("a panic while holding the queue lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(q.inner.is_poisoned());

        assert_eq!(q.try_push_weighted("after", 7).unwrap(), 2);
        assert_eq!(q.pending_cost(), 12);
        assert_eq!(q.pop_weighted(), Some(("before", 5)));
        assert_eq!(q.pop_weighted(), Some(("after", 7)));
        q.close();
        assert_eq!(q.pop_weighted(), None);
    }

    #[test]
    fn single_consumer_preserves_fifo_order() {
        let q = Arc::new(BoundedQueue::new(128));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some((item, _)) = q.pop_weighted() {
                    seen.push(item);
                }
                seen
            })
        };
        for i in 0..100 {
            // The single consumer may lag; retry rather than drop.
            let mut item = i;
            loop {
                match q.try_push_weighted(item, 0) {
                    Ok(_) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_pushes_track_pending_cost() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.pending_cost(), 0);
        q.try_push_weighted("light", 10).unwrap();
        q.try_push_weighted("heavy", 1000).unwrap();
        q.try_push_weighted("free", 0).unwrap();
        assert_eq!(q.pending_cost(), 1010);
        assert_eq!(q.pop_weighted(), Some(("light", 10)));
        assert_eq!(q.pending_cost(), 1000);
        assert_eq!(q.pop_weighted(), Some(("heavy", 1000)));
        assert_eq!(q.pending_cost(), 0);
        assert_eq!(q.pop_weighted(), Some(("free", 0)));
        // close_now resets the gauge along with the items.
        q.try_push_weighted("late", 77).unwrap();
        assert_eq!(q.close_now(), vec!["late"]);
        assert_eq!(q.pending_cost(), 0);
    }

    #[test]
    fn close_drains_admitted_items() {
        let q = Arc::new(BoundedQueue::new(8));
        for i in 0..5 {
            q.try_push_weighted(i, 0).unwrap();
        }
        q.close();
        // Pushes now fail closed...
        assert!(matches!(
            q.try_push_weighted(99, 0),
            Err(PushError::Closed(99))
        ));
        // ...but every admitted item is still delivered, then None.
        let drained: Vec<i32> =
            std::iter::from_fn(|| q.pop_weighted().map(|(item, _)| item)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop_weighted(), None);
    }

    #[test]
    fn close_now_hands_back_pending_items() {
        let q = BoundedQueue::new(8);
        for i in 0..3 {
            q.try_push_weighted(i, 0).unwrap();
        }
        assert_eq!(q.close_now(), vec![0, 1, 2]);
        assert_eq!(q.pop_weighted(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop_weighted())
            })
            .collect();
        // Give the consumers a moment to block, then close.
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for w in workers {
            assert_eq!(w.join().unwrap(), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_everything_once() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some((item, _)) = q.pop_weighted() {
                        seen.push(item);
                    }
                    seen
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..50 {
                        let mut item = p * 1000 + i;
                        loop {
                            match q.try_push_weighted(item, 0) {
                                Ok(_) => break,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => unreachable!(),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }
}
