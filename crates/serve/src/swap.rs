//! Hot swapping: an `Arc<T>` behind a read-write lock.
//!
//! A `DECIDE` handler [`load`](SwapCell::load)s the live value once per
//! batch and decides against its own `Arc` clone, so a `SWAP` can never
//! change the table under a batch already in flight. The lock is held only
//! for the refcount increment (read) or the pointer replacement (write),
//! never across a decision or an I/O call.
//!
//! A replaced value is dropped as soon as the last reader's clone goes
//! away: the cell keeps nothing but the live value, so its memory does not
//! grow with the number of swaps.

use std::sync::{Arc, RwLock};

/// An atomically swappable `Arc<T>`.
pub struct SwapCell<T> {
    live: RwLock<Arc<T>>,
}

impl<T> SwapCell<T> {
    /// A cell currently holding `value`.
    pub fn new(value: Arc<T>) -> SwapCell<T> {
        SwapCell {
            live: RwLock::new(value),
        }
    }

    /// The current value: one `Arc` clone under the read lock.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.live.read().expect("swap cell poisoned"))
    }

    /// Atomically replaces the value. Readers holding clones of the old
    /// value keep them; new loads see `value`. The old value is dropped
    /// outside the lock, once no reader holds it.
    pub fn store(&self, value: Arc<T>) {
        let old = std::mem::replace(&mut *self.live.write().expect("swap cell poisoned"), value);
        drop(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn load_sees_the_latest_store() {
        let cell = SwapCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn readers_keep_their_clone_across_a_store() {
        let cell = SwapCell::new(Arc::new(String::from("old")));
        let held = cell.load();
        cell.store(Arc::new(String::from("new")));
        assert_eq!(*held, "old");
        assert_eq!(*cell.load(), "new");
    }

    #[test]
    fn concurrent_loads_and_stores_never_tear() {
        // Each stored value is (n, n): a torn read would observe a
        // mismatched pair. Hammer from several reader threads while the
        // main thread swaps continuously.
        let cell = Arc::new(SwapCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let pair = cell.load();
                        assert_eq!(pair.0, pair.1, "torn read");
                    }
                });
            }
            for n in 1..=1000u64 {
                cell.store(Arc::new((n, n)));
            }
            stop.store(true, Ordering::Release);
        });
        let last = cell.load();
        assert_eq!(*last, (1000, 1000));
    }

    #[test]
    fn replaced_payload_frees_once_no_reader_holds_it() {
        let first = Arc::new(vec![0u8; 1024]);
        let weak = Arc::downgrade(&first);
        let cell = SwapCell::new(first);
        let reader = cell.load();
        cell.store(Arc::new(vec![1u8; 1024]));
        assert!(weak.upgrade().is_some(), "payload freed under a live reader");
        drop(reader);
        assert!(
            weak.upgrade().is_none(),
            "replaced payload outlived its last reader"
        );
        assert_eq!(cell.load()[0], 1, "the cell still serves the new value");
    }
}
