//! Workspace-local stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Provides the `parking_lot` lock API shape the workspace uses — guards
//! returned without `Result`, `Condvar::wait` taking `&mut MutexGuard` —
//! on top of the standard library's primitives. Poisoning is swallowed:
//! a panicking critical section already cancels the surrounding run, so
//! later lock holders may proceed (matching parking_lot semantics).

#![forbid(unsafe_code)]

use std::sync;

/// A mutex whose `lock` returns the guard directly.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`]. The inner `Option` is `Some` except
/// transiently inside [`Condvar::wait`].
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates a mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken during wait")
    }
}

/// A condition variable whose `wait` reborrows the guard in place.
#[derive(Default, Debug)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Atomically releases the guard's lock and blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard already waiting");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// [`Condvar::wait`], giving up once `timeout` has passed.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) {
        let inner = guard.0.take().expect("guard already waiting");
        let (inner, _) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }
}

/// A reader–writer lock whose guards are returned directly.
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a reader–writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut started = lock.lock();
            while !*started {
                cv.wait(&mut started);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn rwlock_shared_then_exclusive() {
        let l = RwLock::new(5);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 10);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }
}
