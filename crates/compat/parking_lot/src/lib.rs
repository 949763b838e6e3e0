//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this vendored
//! shim provides the subset of the `parking_lot` 0.12 API the workspace
//! uses — `Mutex` and `RwLock` with borrowed guards — as thin wrappers
//! over their `std::sync` counterparts. Like the real crate (and unlike
//! `std`), locks here do not poison: a panic while holding a guard
//! simply releases it.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Non-poisoning mutex with the `parking_lot::Mutex` calling convention
/// (`lock()` returns the guard directly, not a `Result`).
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex { inner: StdMutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard { inner: p.into_inner() }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: StdMutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Non-poisoning reader-writer lock with the `parking_lot::RwLock`
/// calling convention, over `std::sync::RwLock`. Like std's (and unlike
/// a reader-preferring lock) it may make a reader wait behind a queued
/// writer, so a thread must not read-lock a lock it already holds while
/// another thread can be waiting to write it.
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock { inner: StdRwLock::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard { inner: self.inner.read().unwrap_or_else(PoisonError::into_inner) }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { inner: self.inner.write().unwrap_or_else(PoisonError::into_inner) }
    }

    /// A shared guard if one is free right now: `None` while a writer
    /// holds the lock (or, with std's writer preference, waits for it).
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(RwLockReadGuard { inner: p.into_inner() })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: StdRwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: StdRwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_readers_then_writer() {
        let l = RwLock::new(0u32);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 0);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn try_read_fails_only_while_a_writer_holds_the_lock() {
        let l = RwLock::new(5u8);
        let r = l.read();
        assert_eq!(l.try_read().as_deref(), Some(&5), "readers share");
        drop(r);
        let w = l.write();
        assert!(l.try_read().is_none());
        drop(w);
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _g = l.write();
            panic!("under a write guard");
        }));
        assert!(poisoned.is_err());
        assert_eq!(l.try_read().as_deref(), Some(&5), "not poisoned");
    }

    #[test]
    fn a_panic_under_either_guard_leaves_the_lock_usable() {
        let l = RwLock::new(1i32);
        let read = catch_unwind(AssertUnwindSafe(|| {
            let _g = l.read();
            panic!("under a read guard");
        }));
        assert!(read.is_err());
        *l.write() += 1;
        let write = catch_unwind(AssertUnwindSafe(|| {
            let mut g = l.write();
            *g += 1;
            panic!("under a write guard");
        }));
        assert!(write.is_err());
        // Not poisoned: both guards still come back, and the write that
        // preceded the panic stands.
        assert_eq!(*l.read(), 3);
        *l.write() = 4;
        assert_eq!(l.into_inner(), 4);
    }

    #[test]
    fn a_writer_excludes_readers_across_threads() {
        // Writers keep the pair equal only at guard boundaries; a reader
        // that ever saw them differ would have overlapped a writer.
        let l = RwLock::new((0u64, 0u64));
        let torn = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let mut g = l.write();
                        g.0 += 1;
                        std::hint::black_box(&mut *g);
                        g.1 += 1;
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let g = l.read();
                        if g.0 != g.1 {
                            torn.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(!torn.load(Ordering::Relaxed), "a reader saw a half-done write");
        assert_eq!(*l.read(), (4_000, 4_000));
    }
}
