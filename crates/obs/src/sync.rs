//! Poison-recovering lock wrappers for state that outlives any single
//! query.
//!
//! A std `Mutex`/`RwLock` poisons itself when a holder panics, and every
//! later `.lock().expect(..)` then takes the whole process down — one
//! misbehaving query would permanently wedge the shared engine's page
//! store and memo tables. These wrappers recover instead:
//! a poisoned acquisition strips the `PoisonError`, bumps the global
//! [`poison_recoveries`] counter (surfaced as `lock_poison_recovered`
//! in engine stats), and hands back the guard.
//!
//! Recovery is sound here because every structure guarded by these
//! wrappers maintains its invariants *between* mutations: the page
//! store, memo tables, and admission ledger each update a
//! map entry or counter atomically under the guard, so a panic can at
//! worst lose the in-flight update — never leave a half-written entry.
//! Structures without that property must not use these wrappers.
//!
//! The guards returned are the std guards, so `Condvar::wait_timeout`
//! and friends keep working; [`SafeMutex::raw`] exposes the underlying
//! lock for them (recover the `LockResult` they return with
//! [`recover`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of poisoned-lock acquisitions that were recovered.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Strip a `PoisonError`, counting the recovery. Works on any
/// `LockResult` — including the pair `Condvar::wait_timeout` returns.
pub fn recover<T>(result: LockResult<T>) -> T {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => {
            POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// A `Mutex` whose `lock` never fails: poison is recovered and counted.
#[derive(Debug, Default)]
pub struct SafeMutex<T> {
    inner: Mutex<T>,
}

impl<T> SafeMutex<T> {
    pub fn new(value: T) -> SafeMutex<T> {
        SafeMutex { inner: Mutex::new(value) }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        recover(self.inner.lock())
    }

    /// The underlying lock, for `Condvar` waits (and poison tests).
    pub fn raw(&self) -> &Mutex<T> {
        &self.inner
    }
}

/// An `RwLock` whose `read`/`write` never fail: poison is recovered and
/// counted.
#[derive(Debug, Default)]
pub struct SafeRwLock<T> {
    inner: RwLock<T>,
}

impl<T> SafeRwLock<T> {
    pub fn new(value: T) -> SafeRwLock<T> {
        SafeRwLock { inner: RwLock::new(value) }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        recover(self.inner.read())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        recover(self.inner.write())
    }

    /// The underlying lock, for poison tests.
    pub fn raw(&self) -> &RwLock<T> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_recovers_from_a_panicked_holder() {
        let lock = SafeMutex::new(vec![1]);
        let before = poison_recoveries();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock.raw().lock().expect("clean lock");
            panic!("holder dies");
        }));
        assert!(lock.raw().is_poisoned(), "panicked holder poisons the raw lock");
        lock.lock().push(2);
        assert_eq!(*lock.lock(), vec![1, 2], "lock stays usable after recovery");
        assert!(poison_recoveries() > before, "recovery was counted");
    }

    #[test]
    fn rwlock_recovers_for_readers_and_writers() {
        let lock = SafeRwLock::new(7u64);
        let before = poison_recoveries();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock.raw().write().expect("clean write lock");
            panic!("writer dies");
        }));
        assert!(lock.raw().is_poisoned());
        assert_eq!(*lock.read(), 7);
        *lock.write() = 8;
        assert_eq!(*lock.read(), 8);
        assert!(poison_recoveries() >= before + 2, "both recoveries counted");
    }
}
