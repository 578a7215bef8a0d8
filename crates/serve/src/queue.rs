//! A bounded MPMC job queue with non-blocking admission.
//!
//! Admission is `try_push`: when the queue is at capacity the caller
//! gets the item back immediately and answers 429 — backpressure is a
//! protocol response, never a blocked acceptor. Consumers block in
//! `pop` until an item arrives or the queue is closed *and* drained,
//! which is exactly the graceful-shutdown contract: close, then let the
//! workers finish what was already admitted.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// The bounded queue.
#[derive(Debug)]
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    cap: usize,
    closed: bool,
}

impl<T> Bounded<T> {
    /// An empty queue admitting at most `cap` items (clamped to ≥ 1).
    pub fn new(cap: usize) -> Bounded<T> {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                cap: cap.max(1),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits `item`, or returns it when the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("queue lock");
        if s.closed || s.items.len() >= s.cap {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("queue lock");
        }
    }

    /// Closes the queue: admission stops, consumers drain then see
    /// `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Whether [`Bounded::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "no admission after close");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.try_push(7).unwrap();
        q.try_push(8).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![7, 8]);
    }
}
