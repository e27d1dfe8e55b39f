//! Workspace-local stand-in for the `crossbeam` crate.
//!
//! Only [`deque`] is provided — the work-stealing executor's dependency.
//! The real crossbeam-deque is a lock-free Chase–Lev deque; this shim uses
//! short mutex-guarded critical sections instead. The API contract the
//! executor relies on (LIFO local pop, FIFO steal, batched injector drain,
//! `Steal::Retry` reporting) is preserved, so swapping the real crate back
//! in is a manifest-only change.

#![forbid(unsafe_code)]

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Initial queue capacity, as in crossbeam-deque, whose deques also
    /// start with a buffer: the first pushes allocate nothing, so a
    /// warm executor's allocation profile does not depend on which
    /// thread happens to push first.
    const MIN_CAP: usize = 64;

    /// Result of a steal attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was observed empty.
        Empty,
        /// One item was stolen.
        Success(T),
        /// A race was lost; retry.
        Retry,
    }

    /// A worker-owned deque: LIFO for the owner, FIFO for thieves.
    pub struct Worker<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
    }

    /// A handle for stealing from another worker's deque.
    pub struct Stealer<T> {
        inner: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Stealer<T> {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Worker<T> {
        /// Creates a deque whose owner pops its most recent push.
        pub fn new_lifo() -> Worker<T> {
            Worker {
                inner: Arc::new(Mutex::new(VecDeque::with_capacity(MIN_CAP))),
            }
        }

        /// Creates a stealer handle.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }

        /// Pushes onto the owner's end.
        pub fn push(&self, item: T) {
            self.inner.lock().unwrap().push_back(item);
        }

        /// Pops from the owner's end (LIFO).
        pub fn pop(&self) -> Option<T> {
            self.inner.lock().unwrap().pop_back()
        }

        /// True if the deque was observed empty.
        pub fn is_empty(&self) -> bool {
            self.inner.lock().unwrap().is_empty()
        }
    }

    impl<T> Stealer<T> {
        /// Steals one item from the victim's cold end (FIFO).
        pub fn steal(&self) -> Steal<T> {
            match self.inner.lock().unwrap().pop_front() {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            }
        }
    }

    /// A shared FIFO injector queue.
    pub struct Injector<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Injector<T> {
            Injector {
                inner: Mutex::new(VecDeque::with_capacity(MIN_CAP)),
            }
        }

        /// Enqueues an item.
        pub fn push(&self, item: T) {
            self.inner.lock().unwrap().push_back(item);
        }

        /// Steals one item.
        pub fn steal(&self) -> Steal<T> {
            match self.inner.lock().unwrap().pop_front() {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            }
        }

        /// Moves a batch into `dest` and returns one extra item, matching
        /// crossbeam's amortized injector drain.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut q = self.inner.lock().unwrap();
            let Some(first) = q.pop_front() else {
                return Steal::Empty;
            };
            // Move up to half the queue (capped) over to the worker.
            let batch = (q.len() / 2).min(32);
            if batch > 0 {
                let mut d = dest.inner.lock().unwrap();
                for _ in 0..batch {
                    match q.pop_front() {
                        Some(it) => d.push_back(it),
                        None => break,
                    }
                }
            }
            Steal::Success(first)
        }

        /// True if the injector was observed empty.
        pub fn is_empty(&self) -> bool {
            self.inner.lock().unwrap().is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::*;

    #[test]
    fn worker_is_lifo_stealer_is_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn injector_batch_drain() {
        let inj = Injector::new();
        let w = Worker::new_lifo();
        for i in 0..10 {
            inj.push(i);
        }
        let got = inj.steal_batch_and_pop(&w);
        assert_eq!(got, Steal::Success(0));
        // Some of the remainder moved to the worker, the rest stayed.
        let mut total = 1;
        while w.pop().is_some() {
            total += 1;
        }
        loop {
            match inj.steal() {
                Steal::Success(_) => total += 1,
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn cross_thread_stealing() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        for i in 0..1000 {
            w.push(i);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut n = 0;
                    while let Steal::Success(_) = s.steal() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let stolen: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let mut local = 0;
        while w.pop().is_some() {
            local += 1;
        }
        assert_eq!(stolen + local, 1000);
    }
}
