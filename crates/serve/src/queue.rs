//! The bounded admission queue.
//!
//! Hand-rolled on `std::sync::{Mutex, Condvar}` because the service needs
//! three things no `std::sync::mpsc` channel gives: several workers pop
//! one queue, admitted items still drain after admission closes, and the
//! depth is readable for the `serve.queue_depth` gauge.
//! [`BoundedQueue::try_push`] never blocks — over capacity it returns
//! [`AdmitError::Full`] immediately, which the server turns into a typed
//! `Busy` reply. Nothing in the service can queue unboundedly.
//!
//! Workers block in [`BoundedQueue::pop`]. Closing the queue
//! ([`BoundedQueue::close`]) stops admission but lets workers drain what
//! was already admitted: every admitted job was promised a response, so
//! `pop` keeps returning items until the queue is empty *and* closed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why an item was not admitted.
#[derive(Debug)]
pub enum AdmitError<T> {
    /// The queue is at capacity; the item is handed back along with the
    /// depth observed at rejection.
    Full(T, usize),
    /// The queue is closed (server draining); the item is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue with non-blocking admission and blocking,
/// drain-aware removal.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// The queue's state is a plain `VecDeque` plus a flag — every
    /// critical section below leaves it consistent at every await point,
    /// so a panic while the lock is held (poisoning it) cannot tear the
    /// state. Recover the guard rather than propagate: one panicking
    /// worker must not wedge admission for every later request.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a queue admitting at most `capacity` items at a time.
    ///
    /// # Panics
    /// Panics if `capacity` is 0 — a zero-capacity service could never
    /// admit anything.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::with_capacity(capacity), closed: false }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (admitted, not yet popped).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue currently holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` without blocking. Returns the depth *after* the push
    /// on success; hands the item back on a full or closed queue.
    pub fn try_push(&self, item: T) -> Result<usize, AdmitError<T>> {
        let mut s = self.lock();
        if s.closed {
            return Err(AdmitError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            let depth = s.items.len();
            return Err(AdmitError::Full(item, depth));
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available and returns it, or returns `None`
    /// once the queue is closed *and* drained — the worker-shutdown
    /// signal. Admitted items are always delivered, even after `close`.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admission (subsequent `try_push` returns
    /// [`AdmitError::Closed`]) and wakes every blocked `pop`, which will
    /// drain remaining items then return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn admission_is_rejected_at_capacity_without_blocking() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        match q.try_push(3) {
            Err(AdmitError::Full(item, depth)) => {
                assert_eq!(item, 3);
                assert_eq!(depth, 2);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3).unwrap(), 2);
    }

    #[test]
    fn pop_drains_admitted_items_after_close_then_signals_shutdown() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert!(matches!(q.try_push("c"), Err(AdmitError::Closed("c"))));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed+empty stays terminal");
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        q.try_push(7).unwrap();
        q.close();
        let mut got: Vec<Option<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }

    #[test]
    fn a_panicking_holder_leaves_the_queue_serviceable() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();

        // Poison the state mutex: panic while holding the raw guard.
        let poisoner = q.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("worker died mid-critical-section");
        })
        .join()
        .unwrap_err();
        assert!(q.state.is_poisoned(), "the panic must actually poison the lock");

        // Every operation still works: admission, depth, pop, close.
        assert_eq!(q.len(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..8 {
            q.try_push(i).unwrap();
        }
        q.close();
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, (0..8).collect::<Vec<_>>());
    }
}
