#![forbid(unsafe_code)]
//! # df-check — no lock is taken while another is held
//!
//! Every lock site of df-server and df-storage acquires through this
//! module: [`lock`], [`read`] and [`write()`] wrap the std methods,
//! [`read_all`] takes a set of `RwLock`s (the concurrent store's shards)
//! as one acquisition, and [`wait`] sleeps on a `Condvar`. The rule is the
//! strictest lock order there is: a thread holds at most one guard, so no
//! two locks nest and no AB/BA cycle can form.
//!
//! In debug builds each acquisition asserts, before it blocks, that the
//! calling thread holds no guard, and the [`Held`] it returns counts
//! against the thread until it drops; every test that reaches a lock
//! checks the rule on the real code. In release builds the count and the
//! assert compile away. Poisoning passes through: each function returns
//! the [`LockResult`] of the std method it wraps.

use std::borrow::Borrow;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

#[cfg(debug_assertions)]
thread_local! {
    /// Guards the thread holds: 0 or 1, since the rule allows no second.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The thread's count of one held guard, while it lives.
#[derive(Debug)]
struct Count;

impl Count {
    /// Count an acquisition about to block; panics if a guard is held.
    /// A thread already tearing down its thread-locals is not checked.
    fn acquire() -> Count {
        #[cfg(debug_assertions)]
        let nested = HELD.try_with(|held| held.replace(1));
        #[cfg(debug_assertions)]
        assert_ne!(
            nested,
            Ok(1),
            "df-check: a lock is taken while this thread holds another guard"
        );
        Count
    }
}

#[cfg(debug_assertions)]
impl Drop for Count {
    fn drop(&mut self) {
        // Never panics, not even after the thread-local is gone.
        let _ = HELD.try_with(|held| held.set(0));
    }
}

/// A lock guard, counted against its thread until it drops. Derefs to
/// what the guard derefs to.
#[derive(Debug)]
pub struct Held<G> {
    // Declared first: the lock is released before the count drops.
    guard: G,
    count: Count,
}

impl<G: Deref> Deref for Held<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Held<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// One read guard of a [`read_all`] set, which is counted as a whole.
#[derive(Debug)]
pub struct ReadGuard<'a, T>(RwLockReadGuard<'a, T>);

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> Borrow<T> for ReadGuard<'_, T> {
    fn borrow(&self) -> &T {
        &self.0
    }
}

/// `acquired`, taken after `count`, with its count, poisoned or not.
fn counted<G>(count: Count, acquired: LockResult<G>) -> LockResult<Held<G>> {
    match acquired {
        Ok(guard) => Ok(Held { guard, count }),
        Err(e) => Err(PoisonError::new(Held {
            guard: e.into_inner(),
            count,
        })),
    }
}

/// [`Mutex::lock`], counted.
pub fn lock<T>(mutex: &Mutex<T>) -> LockResult<Held<MutexGuard<'_, T>>> {
    counted(Count::acquire(), mutex.lock())
}

/// [`RwLock::read`], counted.
pub fn read<T>(lock: &RwLock<T>) -> LockResult<Held<RwLockReadGuard<'_, T>>> {
    counted(Count::acquire(), lock.read())
}

/// [`RwLock::write`], counted.
pub fn write<T>(lock: &RwLock<T>) -> LockResult<Held<RwLockWriteGuard<'_, T>>> {
    counted(Count::acquire(), lock.write())
}

/// Read-lock each of `locks` in order, as one acquisition: the set derefs
/// to its read guards and releases them all when it drops. Poisoned if
/// any lock was.
pub fn read_all<'a, T: 'a>(
    locks: impl IntoIterator<Item = &'a RwLock<T>>,
) -> LockResult<Held<Vec<ReadGuard<'a, T>>>> {
    let count = Count::acquire();
    let mut poisoned = false;
    let read = |lock: &'a RwLock<T>| {
        ReadGuard(lock.read().unwrap_or_else(|e| {
            poisoned = true;
            e.into_inner()
        }))
    };
    let guard = locks.into_iter().map(read).collect();
    let held = Held { guard, count };
    if poisoned {
        Err(PoisonError::new(held))
    } else {
        Ok(held)
    }
}

/// [`Condvar::wait`] on a counted guard. The count stays with the thread
/// through the wait: it sleeps without the mutex, but takes no other lock
/// before the wait hands the mutex back.
pub fn wait<'a, T>(
    condvar: &Condvar,
    held: Held<MutexGuard<'a, T>>,
) -> LockResult<Held<MutexGuard<'a, T>>> {
    let Held { guard, count } = held;
    counted(count, condvar.wait(guard))
}

/// How many guards the calling thread holds (debug builds only).
#[cfg(debug_assertions)]
pub fn held() -> usize {
    HELD.with(std::cell::Cell::get)
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn a_lock_under_a_held_guard_panics() {
        let (outer, inner) = (Mutex::new(1), RwLock::new(2));
        let held_outer = lock(&outer).unwrap();
        for nested in [
            catch_unwind(AssertUnwindSafe(|| *lock(&outer).unwrap())),
            catch_unwind(AssertUnwindSafe(|| *read(&inner).unwrap())),
            catch_unwind(AssertUnwindSafe(|| *write(&inner).unwrap())),
            catch_unwind(AssertUnwindSafe(|| read_all([&inner]).unwrap().len())),
        ] {
            let message = nested.expect_err("a nested acquisition panics");
            let text = message.downcast_ref::<String>().expect("assert message");
            assert!(
                text.contains("while this thread holds another guard"),
                "{text}"
            );
        }
        assert_eq!(held(), 1, "the refused acquisitions counted nothing");
        drop(held_outer);
        assert_eq!(
            *write(&inner).unwrap(),
            2,
            "released, the next lock is free"
        );
        assert_eq!(held(), 0);
    }

    #[test]
    fn read_all_over_n_shards_counts_as_one_acquisition() {
        let shards: Vec<RwLock<usize>> = (0..4).map(RwLock::new).collect();
        let all = read_all(&shards).unwrap();
        let sum: usize = all.iter().map(|g| *Borrow::<usize>::borrow(g)).sum();
        assert_eq!((all.len(), sum, held()), (4, 6, 1));
        drop(all);
        assert_eq!(held(), 0);
        assert!(shards.iter().all(|s| s.try_write().is_ok()), "all released");
    }

    #[test]
    fn a_condvar_wait_keeps_the_count() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let mut ready = lock(&pair.0).unwrap();
        let notifier = std::thread::spawn(move || {
            *lock(&waker.0).unwrap() = true;
            waker.1.notify_all();
            held()
        });
        while !*ready {
            ready = wait(&pair.1, ready).unwrap();
            assert_eq!(held(), 1, "the woken guard is the one counted");
        }
        drop(ready);
        assert_eq!(held(), 0);
        assert_eq!(notifier.join().unwrap(), 0, "each thread counts its own");
    }
}
