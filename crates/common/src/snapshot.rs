//! Epoch-stamped atomic snapshot publication.
//!
//! Generalizes the two snapshot-swap patterns already in the workspace —
//! the hybrid `DualStage` build-aside + atomic-swap merge and the LSM
//! manifest's atomic `CURRENT` swap — into one reusable cell: writers
//! build a new immutable snapshot off to the side and publish it with a
//! single pointer swap; readers `load` an `Arc` and keep reading their
//! snapshot for as long as they hold it, never blocking behind the
//! writer. An epoch counter advances on every publish so callers can
//! detect staleness (or assert monotonicity) without comparing contents.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A shared cell holding the current immutable snapshot of some state.
///
/// `load` is wait-free in practice (a read lock held only for an `Arc`
/// clone); `publish` holds the write lock only for the pointer swap, so
/// readers are never blocked behind snapshot *construction*, only behind
/// the O(1) swap itself.
pub struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// Creates a cell publishing `initial` as epoch 0.
    pub fn new(initial: T) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(0),
        }
    }

    /// Returns the current snapshot. The returned `Arc` stays valid (and
    /// immutable) even after later `publish` calls replace it.
    pub fn load(&self) -> Arc<T> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publishes a new snapshot, returning the new epoch. The replaced
    /// snapshot is dropped after the write lock is released.
    pub fn publish(&self, next: T) -> u64 {
        self.swap(Arc::new(next)).0
    }

    /// Publishes an already-`Arc`ed snapshot, returning the new epoch and
    /// the snapshot it replaced. The write lock is released before this
    /// returns, so dropping the replaced snapshot — which may free what
    /// only it held — never happens under it; a caller that holds locks
    /// of its own can drop it after releasing them.
    pub fn swap(&self, next: Arc<T>) -> (u64, Arc<T>) {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        let replaced = std::mem::replace(&mut *slot, next);
        // The epoch bump happens under the write lock, so epochs observed
        // through `load` + `epoch` are monotone per snapshot.
        let epoch = self.epoch.fetch_add(1, Ordering::Release) + 1;
        (epoch, replaced)
    }

    /// The number of `publish`/`swap` calls so far (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("epoch", &self.epoch())
            .field("current", &self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn load_sees_latest_publish_and_epoch_advances() {
        let cell = SnapshotCell::new(vec![1u64]);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.load(), vec![1]);
        let e = cell.publish(vec![1, 2]);
        assert_eq!(e, 1);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(*cell.load(), vec![1, 2]);
    }

    #[test]
    fn swap_hands_back_the_replaced_snapshot() {
        let cell = SnapshotCell::new(String::from("v0"));
        let first = cell.load();
        let (epoch, replaced) = cell.swap(Arc::new(String::from("v1")));
        assert_eq!(epoch, 1);
        assert!(Arc::ptr_eq(&replaced, &first), "the previous snapshot comes back");
        assert_eq!(*cell.load(), "v1", "the cell already serves the new one");
        drop((first, replaced));
        assert_eq!(cell.swap(Arc::new(String::from("v2"))).1.as_str(), "v1");
    }

    #[test]
    fn old_snapshot_stays_valid_after_publish() {
        let cell = SnapshotCell::new(String::from("v0"));
        let old = cell.load();
        cell.publish(String::from("v1"));
        assert_eq!(*old, "v0");
        assert_eq!(*cell.load(), "v1");
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        // Snapshots are (n, n) pairs; a torn read would observe a pair
        // whose halves disagree.
        let cell = Arc::new(SnapshotCell::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                thread::spawn(move || {
                    let mut last_epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.load();
                        assert_eq!(snap.0, snap.1, "torn snapshot");
                        let e = cell.epoch();
                        assert!(e >= last_epoch, "epoch went backwards");
                        last_epoch = e;
                    }
                })
            })
            .collect();
        for n in 1..500u64 {
            cell.publish((n, n));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.epoch(), 499);
    }
}
