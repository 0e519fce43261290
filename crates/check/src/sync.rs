//! Shimmed synchronisation primitives mirroring the atomics, locks and
//! `std::sync::mpsc` APIs the core crate uses.
//!
//! Outside a model execution every shim forwards straight to the real std
//! primitive (the `Real` arm below), so the same model source can run as an
//! ordinary stress test.  Inside [`crate::sched::run`] the shims instead
//! hand every operation to the controlling scheduler, which owns the values
//! and explores all orderings the memory model allows.
//!
//! Production code never pays for any of this: `yewpar-core` re-exports
//! the atomics, `Mutex`, `MutexGuard`, `Condvar` and `UnsafeCell` only
//! under its `model-check` feature (see `crates/core/src/sync.rs`); the
//! default build uses the std primitives directly.  The channels are not
//! wired into core yet: core's channels are std's.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use crate::sched::{in_model, perform, Op, Reply, RmwKind};

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

enum AtomInner {
    Real(std::sync::atomic::AtomicU64),
    Model(usize),
}

fn new_atom(name: &str, init: u64) -> AtomInner {
    if in_model() {
        match perform(Op::NewAtom {
            name: name.to_string(),
            init,
        }) {
            Reply::Id(id) => AtomInner::Model(id),
            other => unreachable!("NewAtom reply {other:?}"),
        }
    } else {
        AtomInner::Real(std::sync::atomic::AtomicU64::new(init))
    }
}

impl AtomInner {
    fn load(&self, ord: Ordering) -> u64 {
        match self {
            AtomInner::Real(a) => a.load(ord),
            AtomInner::Model(id) => match perform(Op::Load { atom: *id, ord }) {
                Reply::Value(v) => v,
                other => unreachable!("Load reply {other:?}"),
            },
        }
    }

    fn store(&self, val: u64, ord: Ordering) {
        match self {
            AtomInner::Real(a) => a.store(val, ord),
            AtomInner::Model(id) => {
                perform(Op::Store {
                    atom: *id,
                    val,
                    ord,
                });
            }
        }
    }

    fn rmw(&self, kind: RmwKind, ord: Ordering) -> u64 {
        match self {
            AtomInner::Real(a) => match kind {
                RmwKind::Add(n) => a.fetch_add(n, ord),
                RmwKind::Sub(n) => a.fetch_sub(n, ord),
                RmwKind::Max(n) => a.fetch_max(n, ord),
                RmwKind::Swap(n) => a.swap(n, ord),
                RmwKind::And(n) => a.fetch_and(n, ord),
                RmwKind::Or(n) => a.fetch_or(n, ord),
                RmwKind::Cas { .. } => unreachable!("CAS goes through compare_exchange"),
            },
            AtomInner::Model(id) => match perform(Op::Rmw {
                atom: *id,
                kind,
                ord,
            }) {
                Reply::Value(v) => v,
                other => unreachable!("Rmw reply {other:?}"),
            },
        }
    }

    fn compare_exchange(
        &self,
        expect: u64,
        new: u64,
        success: Ordering,
        fail: Ordering,
    ) -> Result<u64, u64> {
        match self {
            AtomInner::Real(a) => a.compare_exchange(expect, new, success, fail),
            AtomInner::Model(id) => match perform(Op::Rmw {
                atom: *id,
                kind: RmwKind::Cas { expect, new, fail },
                ord: success,
            }) {
                Reply::Cas(r) => r,
                other => unreachable!("Cas reply {other:?}"),
            },
        }
    }
}

macro_rules! shim_atomic_uint {
    ($name:ident, $prim:ty) => {
        /// Shimmed atomic integer; API-compatible with the std atomic of
        /// the same name for the operations core uses.
        pub struct $name {
            inner: AtomInner,
        }

        impl $name {
            pub fn new(init: $prim) -> Self {
                Self::named(stringify!($name), init)
            }

            /// Like `new`, with a name that shows up in counterexample
            /// interleavings.
            pub fn named(name: &str, init: $prim) -> Self {
                $name {
                    inner: new_atom(name, init as u64),
                }
            }

            pub fn load(&self, ord: Ordering) -> $prim {
                self.inner.load(ord) as $prim
            }

            pub fn store(&self, val: $prim, ord: Ordering) {
                self.inner.store(val as u64, ord)
            }

            pub fn fetch_add(&self, val: $prim, ord: Ordering) -> $prim {
                self.inner.rmw(RmwKind::Add(val as u64), ord) as $prim
            }

            pub fn fetch_sub(&self, val: $prim, ord: Ordering) -> $prim {
                // Model arithmetic is u64; widen the subtrahend so u64
                // wrap-around round-trips through the narrower type.
                self.inner.rmw(RmwKind::Sub(val as u64), ord) as $prim
            }

            pub fn fetch_max(&self, val: $prim, ord: Ordering) -> $prim {
                self.inner.rmw(RmwKind::Max(val as u64), ord) as $prim
            }

            pub fn fetch_and(&self, val: $prim, ord: Ordering) -> $prim {
                self.inner.rmw(RmwKind::And(val as u64), ord) as $prim
            }

            pub fn fetch_or(&self, val: $prim, ord: Ordering) -> $prim {
                self.inner.rmw(RmwKind::Or(val as u64), ord) as $prim
            }

            pub fn swap(&self, val: $prim, ord: Ordering) -> $prim {
                self.inner.rmw(RmwKind::Swap(val as u64), ord) as $prim
            }

            pub fn compare_exchange(
                &self,
                expect: $prim,
                new: $prim,
                success: Ordering,
                fail: Ordering,
            ) -> Result<$prim, $prim> {
                self.inner
                    .compare_exchange(expect as u64, new as u64, success, fail)
                    .map(|v| v as $prim)
                    .map_err(|v| v as $prim)
            }

            pub fn compare_exchange_weak(
                &self,
                expect: $prim,
                new: $prim,
                success: Ordering,
                fail: Ordering,
            ) -> Result<$prim, $prim> {
                // The model has no spurious failures; weak behaves strong,
                // which only removes schedules real hardware could add to
                // retry loops (the loop body is still fully explored).
                self.compare_exchange(expect, new, success, fail)
            }
        }

        // `Debug`/`Default` keep the shims drop-in for core structs that
        // derive them.  Debug never performs a model operation (it may run
        // on a thread outside the schedule, e.g. a panic formatter).
        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                match &self.inner {
                    AtomInner::Real(a) => std::fmt::Debug::fmt(a, f),
                    AtomInner::Model(id) => write!(f, "<model atom #{id}>"),
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }
    };
}

shim_atomic_uint!(AtomicU64, u64);
shim_atomic_uint!(AtomicUsize, usize);
shim_atomic_uint!(AtomicU8, u8);
shim_atomic_uint!(AtomicU32, u32);

/// Shimmed `AtomicBool` (stored as 0/1 in the model).
pub struct AtomicBool {
    inner: AtomInner,
}

impl AtomicBool {
    pub fn new(init: bool) -> Self {
        Self::named("AtomicBool", init)
    }

    pub fn named(name: &str, init: bool) -> Self {
        AtomicBool {
            inner: new_atom(name, init as u64),
        }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        self.inner.load(ord) != 0
    }

    pub fn store(&self, val: bool, ord: Ordering) {
        self.inner.store(val as u64, ord)
    }

    pub fn swap(&self, val: bool, ord: Ordering) -> bool {
        self.inner.rmw(RmwKind::Swap(val as u64), ord) != 0
    }

    pub fn compare_exchange(
        &self,
        expect: bool,
        new: bool,
        success: Ordering,
        fail: Ordering,
    ) -> Result<bool, bool> {
        self.inner
            .compare_exchange(expect as u64, new as u64, success, fail)
            .map(|v| v != 0)
            .map_err(|v| v != 0)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            AtomInner::Real(a) => std::fmt::Debug::fmt(a, f),
            AtomInner::Model(id) => write!(f, "<model atom #{id}>"),
        }
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

enum MutexInner {
    /// The raw lock; data lives in the shared `UnsafeCell` either way.
    Real(std::sync::Mutex<()>),
    Model(usize),
}

/// Shimmed mutex, drop-in for yewpar-core's own: `lock()` returns the
/// guard and never poisons, in a model run or out of one.
pub struct Mutex<T> {
    inner: MutexInner,
    data: std::cell::UnsafeCell<T>,
}

// Safety: access to `data` is serialised by the real lock or by the model
// controller (which runs exactly one thread at a time and only grants the
// lock when free), matching std::sync::Mutex's contract.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    real: Option<std::sync::MutexGuard<'a, ()>>,
}

impl<T> Mutex<T> {
    pub fn new(data: T) -> Self {
        Self::named("Mutex", data)
    }

    pub fn named(name: &str, data: T) -> Self {
        let inner = if in_model() {
            match perform(Op::NewMutex {
                name: name.to_string(),
            }) {
                Reply::Id(id) => MutexInner::Model(id),
                other => unreachable!("NewMutex reply {other:?}"),
            }
        } else {
            MutexInner::Real(std::sync::Mutex::new(()))
        };
        Mutex {
            inner,
            data: std::cell::UnsafeCell::new(data),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let real = match &self.inner {
            MutexInner::Real(m) => Some(m.lock().unwrap_or_else(PoisonError::into_inner)),
            MutexInner::Model(id) => {
                perform(Op::MutexLock { mutex: *id });
                None
            }
        };
        MutexGuard { mutex: self, real }
    }

    /// Consume the mutex and return its data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

// `Debug` never performs a model operation (it may run on a thread outside
// the schedule, e.g. a panic formatter), so it does not show the data.
impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mutex { .. }")
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let MutexInner::Model(id) = &self.mutex.inner {
            // Dropping mid-unwind (teardown abort): the controller is no
            // longer listening; perform would re-panic through the abort
            // path, so skip the unlock — the execution is discarded.
            if !std::thread::panicking() {
                perform(Op::MutexUnlock { mutex: *id });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

enum CondvarInner {
    Real(std::sync::Condvar),
    Model(usize),
}

/// Shimmed condition variable paired with [`Mutex`].
pub struct Condvar {
    inner: CondvarInner,
}

impl Condvar {
    pub fn new() -> Self {
        Self::named("Condvar")
    }

    pub fn named(name: &str) -> Self {
        let inner = if in_model() {
            match perform(Op::NewCondvar {
                name: name.to_string(),
            }) {
                Reply::Id(id) => CondvarInner::Model(id),
                other => unreachable!("NewCondvar reply {other:?}"),
            }
        } else {
            CondvarInner::Real(std::sync::Condvar::new())
        };
        Condvar { inner }
    }

    /// Atomically release the guard's mutex and wait for a notification,
    /// re-acquiring before returning (spurious wakeups: the model has
    /// none, which only removes schedules — callers still loop on their
    /// predicate; the real arm inherits std's).
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match (&self.inner, &guard.mutex.inner) {
            (CondvarInner::Real(cv), MutexInner::Real(_)) => {
                let real = guard.real.take().expect("real guard missing");
                guard.real = Some(cv.wait(real).unwrap_or_else(PoisonError::into_inner));
                guard
            }
            (CondvarInner::Model(cv), MutexInner::Model(m)) => {
                let mutex = guard.mutex;
                // The wait op consumes the lock; forget the guard so its
                // Drop doesn't double-unlock.
                guard.real = None;
                std::mem::forget(guard);
                perform(Op::CondWait {
                    condvar: *cv,
                    mutex: *m,
                });
                MutexGuard { mutex, real: None }
            }
            _ => unreachable!("condvar and mutex from different modes"),
        }
    }

    pub fn notify_all(&self) {
        match &self.inner {
            CondvarInner::Real(cv) => cv.notify_all(),
            CondvarInner::Model(id) => {
                perform(Op::CondNotifyAll { condvar: *id });
            }
        }
    }

    pub fn notify_one(&self) {
        match &self.inner {
            CondvarInner::Real(cv) => cv.notify_one(),
            CondvarInner::Model(id) => {
                perform(Op::CondNotifyOne { condvar: *id });
            }
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

// ---------------------------------------------------------------------------
// UnsafeCell
// ---------------------------------------------------------------------------

/// Shimmed cell for data that a protocol hands from thread to thread (an
/// atomic flag publishes it, a queue transfers its ownership) instead of a
/// lock guarding it.
///
/// In a model run every access is checked to happen after the previous
/// one.  The check rides on the memory model itself: the cell keeps a
/// version atom that each access loads and then advances with `Relaxed`
/// operations, so the load returns the newest version only when the
/// previous access happens-before this one.  An access that does not — a
/// reader that saw a `Relaxed` publish, two owners at once — may load a
/// stale version, the exploration picks that value, and the execution
/// fails as a data race with its interleaving.  Every access counts as a
/// write: the API only lends the contents mutably.  Like std's cell it is
/// not `Sync`: the type embedding it states why sharing it is sound.
pub struct UnsafeCell<T> {
    data: std::cell::UnsafeCell<T>,
    /// Model only: the version atom each access loads and advances.
    version: AtomInner,
    /// How many accesses ran, in real memory: exact, because the model
    /// runs one thread at a time and hands control over through the
    /// controller's channels.
    accesses: std::sync::atomic::AtomicU64,
}

impl<T> UnsafeCell<T> {
    pub fn new(data: T) -> Self {
        Self::named("UnsafeCell", data)
    }

    pub fn named(name: &str, data: T) -> Self {
        UnsafeCell {
            data: std::cell::UnsafeCell::new(data),
            version: new_atom(name, 0),
            accesses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Lend the contents to `f`.  In a model run, fail the execution when
    /// this access does not happen after the previous one.
    ///
    /// # Safety
    ///
    /// No other access may run at the same time: the caller's protocol
    /// must own the cell, as for [`std::cell::UnsafeCell::get`].
    pub unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        if let AtomInner::Model(_) = self.version {
            // ordering: the real counter is only touched by the one model
            // thread the controller lets run.
            let accesses = self.accesses.load(Ordering::Relaxed);
            // ordering: Relaxed on purpose — the load may return the
            // newest version only if the previous access happens-before
            // this one; that is the whole check.
            let seen = self.version.load(Ordering::Relaxed);
            assert_eq!(
                seen, accesses,
                "data race on a cell: this access does not happen after the previous one"
            );
            // ordering: as above, the controller serialises model threads.
            self.accesses.store(accesses + 1, Ordering::Relaxed);
            // ordering: Relaxed like the load: the caller's protocol, not
            // the checker, must order the next access after this one.
            self.version.store(accesses + 1, Ordering::Relaxed);
        }
        // SAFETY: the caller owns the cell for this access (see above).
        f(unsafe { &mut *self.data.get() })
    }
}

impl<T> std::fmt::Debug for UnsafeCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("UnsafeCell { .. }")
    }
}

// ---------------------------------------------------------------------------
// Channels (unbounded / bounded, like std's `channel` / `sync_channel`)
// ---------------------------------------------------------------------------

struct ChanShared<T> {
    queue: std::sync::Mutex<VecDeque<T>>,
    model_id: Option<usize>,
    real_signal: std::sync::Condvar,
    cap: Option<usize>,
}

/// Shimmed multi-producer sender half.
pub struct Sender<T> {
    shared: Arc<ChanShared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Shimmed receiver half.
pub struct Receiver<T> {
    shared: Arc<ChanShared<T>>,
}

/// Unbounded channel; in a model run, send/recv order and visibility are
/// controlled by the scheduler.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    make_channel(None)
}

/// Bounded channel: `send` blocks when `cap` messages are in flight.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    make_channel(Some(cap))
}

fn make_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let model_id = if in_model() {
        match perform(Op::NewChannel {
            name: "channel".to_string(),
            cap,
        }) {
            Reply::Id(id) => Some(id),
            other => unreachable!("NewChannel reply {other:?}"),
        }
    } else {
        None
    };
    let shared = Arc::new(ChanShared {
        queue: std::sync::Mutex::new(VecDeque::new()),
        model_id,
        real_signal: std::sync::Condvar::new(),
        cap,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Blocking send (blocks only when bounded and full).
    pub fn send(&self, value: T) {
        match self.shared.model_id {
            Some(id) => {
                // The controller schedules the send only when capacity
                // allows; the payload lands before any other thread runs
                // (the controller immediately awaits this thread's next
                // operation), so ghost occupancy never exceeds the queue.
                perform(Op::ChanSend { chan: id });
                self.shared
                    .queue
                    .lock()
                    .expect("channel poisoned")
                    .push_back(value);
            }
            None => {
                let mut queue = self.shared.queue.lock().expect("channel poisoned");
                while self.shared.cap.is_some_and(|cap| queue.len() >= cap) {
                    queue = self
                        .shared
                        .real_signal
                        .wait(queue)
                        .expect("channel poisoned");
                }
                queue.push_back(value);
                self.shared.real_signal.notify_all();
            }
        }
    }

    /// Non-blocking send; false when a bounded channel is full.
    pub fn try_send(&self, value: T) -> bool {
        match self.shared.model_id {
            Some(id) => match perform(Op::ChanTrySend { chan: id }) {
                Reply::Bool(true) => {
                    self.shared
                        .queue
                        .lock()
                        .expect("channel poisoned")
                        .push_back(value);
                    true
                }
                Reply::Bool(false) => false,
                other => unreachable!("ChanTrySend reply {other:?}"),
            },
            None => {
                let mut queue = self.shared.queue.lock().expect("channel poisoned");
                if self.shared.cap.is_some_and(|cap| queue.len() >= cap) {
                    false
                } else {
                    queue.push_back(value);
                    self.shared.real_signal.notify_all();
                    true
                }
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive.
    pub fn recv(&self) -> T {
        match self.shared.model_id {
            Some(id) => {
                perform(Op::ChanRecv { chan: id });
                self.shared
                    .queue
                    .lock()
                    .expect("channel poisoned")
                    .pop_front()
                    .expect("model channel ghost/queue desync")
            }
            None => {
                let mut queue = self.shared.queue.lock().expect("channel poisoned");
                loop {
                    if let Some(value) = queue.pop_front() {
                        self.shared.real_signal.notify_all();
                        return value;
                    }
                    queue = self
                        .shared
                        .real_signal
                        .wait(queue)
                        .expect("channel poisoned");
                }
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        match self.shared.model_id {
            Some(id) => match perform(Op::ChanTryRecv { chan: id }) {
                Reply::Bool(true) => Some(
                    self.shared
                        .queue
                        .lock()
                        .expect("channel poisoned")
                        .pop_front()
                        .expect("model channel ghost/queue desync"),
                ),
                Reply::Bool(false) => None,
                other => unreachable!("ChanTryRecv reply {other:?}"),
            },
            None => {
                let got = self
                    .shared
                    .queue
                    .lock()
                    .expect("channel poisoned")
                    .pop_front();
                if got.is_some() {
                    self.shared.real_signal.notify_all();
                }
                got
            }
        }
    }
}
