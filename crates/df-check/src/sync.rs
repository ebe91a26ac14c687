//! Instrumented drop-in stand-ins for `std::sync`.
//!
//! Retrofitted code swaps `use std::sync::X` for `use df_check::sync::X`
//! and changes nothing else: the module mirrors the `std::sync` paths it
//! replaces (`sync::{Mutex, RwLock, Condvar, Arc}`, `sync::atomic`,
//! `sync::mpsc::sync_channel`).
//!
//! * **Unchecked build (default):** everything here is a plain re-export
//!   of `std::sync` — zero cost, zero behaviour change.
//! * **Checked build (`checked` feature / `--cfg df_check`):** the types
//!   become thin wrappers holding the real `std` primitive plus an
//!   instance id. When the calling thread belongs to a
//!   [`crate::model`] execution, every acquire/release/send/recv first
//!   yields to the model scheduler (which decides who runs, maintains
//!   vector clocks and the lock-order graph) and only then performs the
//!   real operation — which at that point is guaranteed uncontended,
//!   because exactly one model thread runs between yield points. On any
//!   thread *outside* a model execution the wrappers pass straight
//!   through to `std`, so production code keeps exact `std` semantics
//!   even in checked builds (cargo feature unification is harmless).
//!
//! [`Racy`] is the one addition over `std::sync`: a deliberately
//! unsynchronized-looking cell for modelling shared state that the code
//! under test is *supposed* to protect by other means. The checker's
//! vector-clock detector reports a data race when two `Racy` accesses
//! (at least one a write) are not ordered by happens-before.

#[cfg(not(any(feature = "checked", df_check)))]
mod imp {
    pub use std::sync::mpsc::sync_channel;
    pub use std::sync::{
        Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
        RwLockWriteGuard, TryLockError, TryLockResult, WaitTimeoutResult,
    };

    /// Mirror of `std::sync::atomic`.
    pub mod atomic {
        pub use std::sync::atomic::*;
    }

    /// Mirror of `std::sync::mpsc`.
    pub mod mpsc {
        pub use std::sync::mpsc::*;
    }

    /// Unchecked [`Racy`](crate::sync::Racy): an ordinary mutex-protected
    /// cell (the race detector only exists in checked builds).
    pub struct Racy<T> {
        cell: std::sync::Mutex<T>,
    }

    impl<T: Copy> Racy<T> {
        pub fn new(value: T) -> Self {
            Racy {
                cell: std::sync::Mutex::new(value),
            }
        }

        fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
            let mut guard = match self.cell.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            f(&mut guard)
        }

        pub fn get(&self) -> T {
            self.with(|v| *v)
        }

        pub fn set(&self, value: T) {
            self.with(|v| *v = value)
        }

        pub fn update(&self, f: impl FnOnce(T) -> T) -> T {
            self.with(|v| {
                *v = f(*v);
                *v
            })
        }
    }
}

#[cfg(any(feature = "checked", df_check))]
mod imp {
    use crate::sched::{self, ObjKind, Op, OpKind};
    use std::panic::Location;

    pub use std::sync::{
        Arc, LockResult, PoisonError, TryLockError, TryLockResult, WaitTimeoutResult,
    };

    fn ctx() -> Option<sched::Ctx> {
        sched::current()
    }

    /// Deferred logical release carried by a lock guard: on drop, yield
    /// the matching unlock op to the scheduler (or update its state
    /// silently when the guard is dropped during a panic unwind, where a
    /// new yield point could double-panic).
    struct ModelRelease {
        sched: Arc<sched::Scheduler>,
        tid: sched::Tid,
        obj: sched::ObjId,
        op: OpKind,
        site: &'static Location<'static>,
    }

    impl ModelRelease {
        fn release(self) {
            if std::thread::panicking() {
                self.sched
                    .silent_release(self.tid, self.obj, self.op == OpKind::RwUnlockRead);
            } else {
                let _ = self
                    .sched
                    .yield_op(self.tid, Op::on(self.op, self.obj), self.site);
            }
        }
    }

    // -- Mutex --------------------------------------------------------

    pub struct Mutex<T> {
        instance: u64,
        created: &'static Location<'static>,
        inner: std::sync::Mutex<T>,
    }

    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        inner: Option<std::sync::MutexGuard<'a, T>>,
        model: Option<ModelRelease>,
    }

    impl<T> Mutex<T> {
        #[track_caller]
        pub fn new(value: T) -> Self {
            Mutex {
                instance: sched::next_instance(),
                created: Location::caller(),
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Exclusive access through `&mut self` needs no scheduling: the
        /// borrow checker already proves no other thread holds the lock.
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }

        #[track_caller]
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let site = Location::caller();
            let model = ctx().map(|c| {
                let obj = c.sched.obj(self.instance, ObjKind::Mutex, 0, self.created);
                let _ = c
                    .sched
                    .yield_op(c.tid, Op::on(OpKind::MutexLock, obj), site);
                ModelRelease {
                    sched: c.sched,
                    tid: c.tid,
                    obj,
                    op: OpKind::MutexUnlock,
                    site,
                }
            });
            // With a model grant in hand the inner lock is uncontended:
            // exactly one model thread runs between yield points, and the
            // previous holder released physically before its next yield.
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model,
                })),
            }
        }
    }

    impl<T: Default> Default for Mutex<T> {
        #[track_caller]
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("mutex guard is live")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("mutex guard is live")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Logical release first, physical second (the inner guard
            // drops after this body): nobody else can be granted the lock
            // until this thread's *next* yield, by which time the inner
            // mutex is free.
            if let Some(m) = self.model.take() {
                m.release();
            }
        }
    }

    // -- RwLock -------------------------------------------------------

    pub struct RwLock<T> {
        instance: u64,
        created: &'static Location<'static>,
        inner: std::sync::RwLock<T>,
    }

    pub struct RwLockReadGuard<'a, T> {
        inner: Option<std::sync::RwLockReadGuard<'a, T>>,
        model: Option<ModelRelease>,
    }

    pub struct RwLockWriteGuard<'a, T> {
        inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
        model: Option<ModelRelease>,
    }

    impl<T> RwLock<T> {
        #[track_caller]
        pub fn new(value: T) -> Self {
            RwLock {
                instance: sched::next_instance(),
                created: Location::caller(),
                inner: std::sync::RwLock::new(value),
            }
        }

        #[track_caller]
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            let site = Location::caller();
            let model = ctx().map(|c| {
                let obj = c.sched.obj(self.instance, ObjKind::RwLock, 0, self.created);
                let _ = c.sched.yield_op(c.tid, Op::on(OpKind::RwRead, obj), site);
                ModelRelease {
                    sched: c.sched,
                    tid: c.tid,
                    obj,
                    op: OpKind::RwUnlockRead,
                    site,
                }
            });
            match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard {
                    inner: Some(g),
                    model,
                }),
                Err(p) => Err(PoisonError::new(RwLockReadGuard {
                    inner: Some(p.into_inner()),
                    model,
                })),
            }
        }

        #[track_caller]
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            let site = Location::caller();
            let model = ctx().map(|c| {
                let obj = c.sched.obj(self.instance, ObjKind::RwLock, 0, self.created);
                let _ = c.sched.yield_op(c.tid, Op::on(OpKind::RwWrite, obj), site);
                ModelRelease {
                    sched: c.sched,
                    tid: c.tid,
                    obj,
                    op: OpKind::RwUnlockWrite,
                    site,
                }
            });
            match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard {
                    inner: Some(g),
                    model,
                }),
                Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                    inner: Some(p.into_inner()),
                    model,
                })),
            }
        }
    }

    impl<T> RwLock<T> {
        /// See [`Mutex::get_mut`]: `&mut self` access needs no scheduling.
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: Default> Default for RwLock<T> {
        #[track_caller]
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("read guard is live")
        }
    }

    impl<T> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            if let Some(m) = self.model.take() {
                m.release();
            }
        }
    }

    impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("write guard is live")
        }
    }

    impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("write guard is live")
        }
    }

    impl<T> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            if let Some(m) = self.model.take() {
                m.release();
            }
        }
    }

    // -- Condvar ------------------------------------------------------

    pub struct Condvar {
        instance: u64,
        created: &'static Location<'static>,
        inner: std::sync::Condvar,
    }

    impl Condvar {
        #[track_caller]
        pub fn new() -> Self {
            Condvar {
                instance: sched::next_instance(),
                created: Location::caller(),
                inner: std::sync::Condvar::new(),
            }
        }

        #[track_caller]
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let site = Location::caller();
            let lock = guard.lock;
            if let Some(m) = guard.model.take() {
                // Physical unlock now; the *logical* release happens
                // atomically with going to sleep, inside the CvWait
                // effect (no other thread can be granted the mutex in
                // between because nobody else is running).
                guard.inner = None;
                drop(guard);
                let cv = m
                    .sched
                    .obj(self.instance, ObjKind::Condvar, 0, self.created);
                let _ = m.sched.yield_op(m.tid, Op::cv_wait(cv, m.obj), site);
                // Granted again: the scheduler converted this thread's
                // wakeup into a MutexLock and we now hold the mutex
                // logically; reacquire it physically.
                let model = Some(ModelRelease {
                    sched: m.sched,
                    tid: m.tid,
                    obj: m.obj,
                    op: OpKind::MutexUnlock,
                    site,
                });
                return match lock.inner.lock() {
                    Ok(g) => Ok(MutexGuard {
                        lock,
                        inner: Some(g),
                        model,
                    }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        lock,
                        inner: Some(p.into_inner()),
                        model,
                    })),
                };
            }
            let inner = guard.inner.take().expect("mutex guard is live");
            drop(guard);
            match self.inner.wait(inner) {
                Ok(g) => Ok(MutexGuard {
                    lock,
                    inner: Some(g),
                    model: None,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            }
        }

        #[track_caller]
        pub fn notify_all(&self) {
            if let Some(c) = ctx() {
                let obj = c
                    .sched
                    .obj(self.instance, ObjKind::Condvar, 0, self.created);
                let _ =
                    c.sched
                        .yield_op(c.tid, Op::on(OpKind::CvNotifyAll, obj), Location::caller());
                return;
            }
            self.inner.notify_all();
        }
    }

    impl Default for Condvar {
        #[track_caller]
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    // -- atomics ------------------------------------------------------

    /// Mirror of `std::sync::atomic`, with [`AtomicUsize`] instrumented
    /// (the locally defined wrapper shadows the glob re-export; other
    /// atomic types pass through unmodelled).
    pub mod atomic {
        pub use std::sync::atomic::*;

        use super::ctx;
        use crate::sched::{self, ObjKind, Op, OpKind};
        use std::panic::Location;

        pub struct AtomicUsize {
            instance: u64,
            created: &'static Location<'static>,
            inner: std::sync::atomic::AtomicUsize,
        }

        impl AtomicUsize {
            #[track_caller]
            pub fn new(value: usize) -> Self {
                AtomicUsize {
                    instance: sched::next_instance(),
                    created: Location::caller(),
                    inner: std::sync::atomic::AtomicUsize::new(value),
                }
            }

            #[track_caller]
            fn hook(&self, kind: OpKind, site: &'static Location<'static>) {
                if let Some(c) = ctx() {
                    let obj = c.sched.obj(self.instance, ObjKind::Atomic, 0, self.created);
                    let _ = c.sched.yield_op(c.tid, Op::on(kind, obj), site);
                }
            }

            #[track_caller]
            pub fn load(&self, order: Ordering) -> usize {
                self.hook(OpKind::AtomicLoad, Location::caller());
                self.inner.load(order)
            }

            #[track_caller]
            pub fn store(&self, value: usize, order: Ordering) {
                self.hook(OpKind::AtomicStore, Location::caller());
                self.inner.store(value, order)
            }

            #[track_caller]
            pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
                self.hook(OpKind::AtomicRmw, Location::caller());
                self.inner.fetch_add(value, order)
            }

            #[track_caller]
            pub fn fetch_sub(&self, value: usize, order: Ordering) -> usize {
                self.hook(OpKind::AtomicRmw, Location::caller());
                self.inner.fetch_sub(value, order)
            }

            #[track_caller]
            pub fn swap(&self, value: usize, order: Ordering) -> usize {
                self.hook(OpKind::AtomicRmw, Location::caller());
                self.inner.swap(value, order)
            }
        }

        impl std::fmt::Debug for AtomicUsize {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    }

    // -- mpsc ---------------------------------------------------------

    /// Mirror of `std::sync::mpsc` for bounded channels. The model only
    /// supports `sync_channel` with capacity ≥ 1 (no rendezvous).
    pub mod mpsc {
        pub use std::sync::mpsc::{
            RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError,
        };

        use super::ctx;
        use crate::sched::{self, Grant, ObjKind, Op, OpKind};
        use std::panic::Location;

        #[derive(Clone, Copy)]
        struct ChanMeta {
            instance: u64,
            created: &'static Location<'static>,
            cap: usize,
        }

        impl ChanMeta {
            fn obj(&self, c: &sched::Ctx) -> sched::ObjId {
                c.sched
                    .obj(self.instance, ObjKind::Channel, self.cap, self.created)
            }
        }

        pub struct SyncSender<T> {
            meta: ChanMeta,
            inner: std::sync::mpsc::SyncSender<T>,
        }

        pub struct Receiver<T> {
            meta: ChanMeta,
            inner: std::sync::mpsc::Receiver<T>,
        }

        #[track_caller]
        pub fn sync_channel<T>(cap: usize) -> (SyncSender<T>, Receiver<T>) {
            let meta = ChanMeta {
                instance: sched::next_instance(),
                created: Location::caller(),
                cap,
            };
            let (tx, rx) = std::sync::mpsc::sync_channel(cap);
            (SyncSender { meta, inner: tx }, Receiver { meta, inner: rx })
        }

        impl<T> SyncSender<T> {
            #[track_caller]
            pub fn send(&self, value: T) -> Result<(), SendError<T>> {
                let site = Location::caller();
                if let Some(c) = ctx() {
                    assert!(
                        self.meta.cap > 0,
                        "df-check model does not support rendezvous channels (capacity 0)"
                    );
                    let obj = self.meta.obj(&c);
                    if c.sched.yield_op(c.tid, Op::on(OpKind::ChanSend, obj), site)
                        == Grant::SendDisconnected
                    {
                        return Err(SendError(value));
                    }
                    // Granted: the model guarantees a free slot and a
                    // live receiver, so this cannot block or fail.
                    return self.inner.send(value);
                }
                self.inner.send(value)
            }
        }

        impl<T> std::fmt::Debug for SyncSender<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }

        impl<T> std::fmt::Debug for Receiver<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }

        impl<T> Clone for SyncSender<T> {
            fn clone(&self) -> Self {
                if let Some(c) = ctx() {
                    let obj = self.meta.obj(&c);
                    c.sched.chan_sender_cloned(obj);
                }
                SyncSender {
                    meta: self.meta,
                    inner: self.inner.clone(),
                }
            }
        }

        impl<T> Drop for SyncSender<T> {
            fn drop(&mut self) {
                if let Some(c) = ctx() {
                    let obj = self.meta.obj(&c);
                    c.sched.chan_sender_dropped(obj);
                }
            }
        }

        impl<T> Receiver<T> {
            #[track_caller]
            pub fn recv(&self) -> Result<T, RecvError> {
                let site = Location::caller();
                if let Some(c) = ctx() {
                    let obj = self.meta.obj(&c);
                    if c.sched.yield_op(c.tid, Op::on(OpKind::ChanRecv, obj), site)
                        == Grant::RecvDisconnected
                    {
                        return Err(RecvError);
                    }
                    // Granted: the model guarantees a queued message.
                    return self.inner.try_recv().map_err(|_| RecvError);
                }
                self.inner.recv()
            }
        }

        impl<T> Drop for Receiver<T> {
            fn drop(&mut self) {
                if let Some(c) = ctx() {
                    let obj = self.meta.obj(&c);
                    c.sched.chan_rx_dropped(obj);
                }
            }
        }
    }

    pub use self::mpsc::sync_channel;

    // -- Racy ---------------------------------------------------------

    /// A cell for shared state the code under test must order by *other*
    /// means (locks, channel edges): every access is tracked by the
    /// vector-clock detector and two happens-before-unordered accesses
    /// (at least one a write) fail the check as a data race. Storage is a
    /// real mutex so the wrapper itself stays `unsafe`-free; the model's
    /// race check is on the happens-before relation, not on UB.
    pub struct Racy<T> {
        instance: u64,
        created: &'static Location<'static>,
        cell: std::sync::Mutex<T>,
    }

    impl<T: Copy> Racy<T> {
        #[track_caller]
        pub fn new(value: T) -> Self {
            Racy {
                instance: sched::next_instance(),
                created: Location::caller(),
                cell: std::sync::Mutex::new(value),
            }
        }

        fn hook(&self, kind: OpKind, site: &'static Location<'static>) {
            if let Some(c) = ctx() {
                let obj = c.sched.obj(self.instance, ObjKind::Racy, 0, self.created);
                let _ = c.sched.yield_op(c.tid, Op::on(kind, obj), site);
            }
        }

        fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
            let mut guard = match self.cell.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            f(&mut guard)
        }

        #[track_caller]
        pub fn get(&self) -> T {
            self.hook(OpKind::RacyRead, Location::caller());
            self.with(|v| *v)
        }

        #[track_caller]
        pub fn set(&self, value: T) {
            self.hook(OpKind::RacyWrite, Location::caller());
            self.with(|v| *v = value)
        }

        /// A non-atomic read-modify-write: a racy read, the closure, then
        /// a racy write — the scheduler can (and will) interleave other
        /// threads between the two halves.
        #[track_caller]
        pub fn update(&self, f: impl FnOnce(T) -> T) -> T {
            let site = Location::caller();
            self.hook(OpKind::RacyRead, site);
            let old = self.with(|v| *v);
            let new = f(old);
            self.hook(OpKind::RacyWrite, site);
            self.with(|v| *v = new);
            new
        }
    }
}

pub use imp::*;
