//! The one place core takes its synchronisation primitives from.
//!
//! **Atomics.**  The runtime's concurrency protocols import their atomics
//! from this module instead of `std::sync::atomic` directly.  In the
//! default build these are plain re-exports — zero indirection, zero
//! overhead (the `components/check_shim` benchmark pins this).
//!
//! **Locks.**  [`Mutex`] and [`Condvar`] are thin wrappers over their
//! `std::sync` namesakes, with only the methods core calls.  They do not
//! poison: a guard taken after a thread panicked while holding the lock
//! still returns the data.  The engine relies on this — a search's panic
//! reaches its caller as a payload (through the runtime's handle or the
//! engine's join), not through a poisoned lock.  [`RwLock`] is the same
//! kind of wrapper; only the incumbent uses it.
//!
//! **Cells.**  [`UnsafeCell`] holds data that a protocol hands from thread
//! to thread instead of a lock guarding it (the Stack-Stealing reply
//! buffer, published by an atomic flag).  It lends its contents through an
//! `unsafe` [`UnsafeCell::with_mut`] whose caller states why it owns them.
//!
//! **Under `model-check`.**  The atomics, [`Mutex`], [`MutexGuard`],
//! [`Condvar`] and [`UnsafeCell`] resolve to the `yewpar-check` shims, with
//! the same non-poisoning contract; the cell shim fails an execution in
//! which one access does not happen after the previous one.  Inside
//! `yewpar_check::sched::run` their operations are handed to the
//! deterministic-interleaving scheduler;
//! outside one they fall back to the real std primitives, so every unit
//! test still runs.  This is how the protocol types themselves are model
//! checked: each has a `model_check` test module beside it that drives the
//! real type under the scheduler.  [`RwLock`] stays std-backed in both
//! builds: no checked protocol takes it.
//!
//! Channels are `std::sync::mpsc`, used directly under std's own names.

#[cfg(feature = "model-check")]
pub use yewpar_check::sync::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

#[cfg(not(feature = "model-check"))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

pub use std::sync::atomic::Ordering;

#[cfg(feature = "model-check")]
pub use yewpar_check::sync::{Condvar, Mutex, MutexGuard, UnsafeCell};

use std::sync::{PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// The guard of a locked [`Mutex`]: std's guard, so [`Condvar::wait`] can
/// hand it to std's condition variable.
#[cfg(not(feature = "model-check"))]
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A non-poisoning mutual-exclusion lock over [`std::sync::Mutex`].
#[cfg(not(feature = "model-check"))]
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

#[cfg(not(feature = "model-check"))]
impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex and return its data.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(not(feature = "model-check"))]
impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A non-poisoning reader-writer lock over [`std::sync::RwLock`].
#[derive(Debug)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked reader-writer lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until a shared read guard is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until the exclusive write guard is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable over [`std::sync::Condvar`] whose wait does not
/// poison.
#[cfg(not(feature = "model-check"))]
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

#[cfg(not(feature = "model-check"))]
impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Release `guard`'s lock, block until notified, and take the lock
    /// again.  Spurious wake-ups happen: wait in a loop over the condition.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A cell whose contents a protocol hands between threads: std's
/// [`UnsafeCell`](std::cell::UnsafeCell), lent out only through
/// [`with_mut`](UnsafeCell::with_mut).  Like std's it is not `Sync`; the
/// type that embeds it states why sharing it is sound.
#[cfg(not(feature = "model-check"))]
#[derive(Debug)]
pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(feature = "model-check"))]
impl<T> UnsafeCell<T> {
    /// A new cell holding `value`.
    pub const fn new(value: T) -> Self {
        UnsafeCell(std::cell::UnsafeCell::new(value))
    }

    /// Lend the contents to `f`.
    ///
    /// # Safety
    ///
    /// No other access may run at the same time: the caller's protocol
    /// must own the cell for the duration of the call.
    #[inline]
    pub unsafe fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // SAFETY: the caller owns the cell for this access.
        f(unsafe { &mut *self.0.get() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Run `f` on its own thread, which it ends by panicking: whatever
    /// guard `f` holds is dropped while unwinding, which poisons a std lock.
    fn panic_on_a_thread(f: impl FnOnce() + Send + 'static) {
        let joined = thread::spawn(f).join();
        assert!(joined.is_err(), "the thread must end by panicking");
    }

    #[test]
    fn mutex_survives_a_panic_while_locked() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        panic_on_a_thread(move || {
            let mut guard = held.lock();
            *guard = 2;
            panic!("panic while holding the mutex");
        });
        #[cfg(not(feature = "model-check"))]
        assert!(m.0.is_poisoned(), "std marks the lock poisoned");
        assert_eq!(*m.lock(), 2);
        *m.lock() += 1;
        let m = Arc::into_inner(m).expect("the thread has ended");
        assert_eq!(m.into_inner(), 3);
    }

    #[test]
    fn rwlock_survives_a_panic_while_write_locked() {
        let l = Arc::new(RwLock::new(10));
        let held = Arc::clone(&l);
        panic_on_a_thread(move || {
            let mut guard = held.write();
            *guard = 11;
            panic!("panic while holding the write guard");
        });
        assert!(l.0.is_poisoned(), "std marks the lock poisoned");
        assert_eq!(*l.read(), 11);
        *l.write() = 12;
        assert_eq!(*l.read(), 12);
    }

    #[test]
    fn condvar_wait_returns_after_notify_all() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let notifier = Arc::clone(&state);
        let t = thread::spawn(move || {
            let (flag, ready) = &*notifier;
            *flag.lock() = true;
            ready.notify_all();
        });
        let (flag, ready) = &*state;
        let mut set = flag.lock();
        while !*set {
            set = ready.wait(set);
        }
        drop(set);
        t.join().expect("the notifier does not panic");
    }
}
