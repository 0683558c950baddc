//! Observer hooks for the `obs` feature.
//!
//! The RTS never depends on the observability crate — the dependency
//! points the other way. Instead, the ORB layer installs a process-wide
//! [`RtsObserver`] here, and the collectives call the `notify_*`
//! helpers, which no-op (one relaxed atomic load via `OnceLock`) until
//! an observer is installed.
//!
//! Both callbacks fire on the rank's own thread, so an observer may
//! use thread-local state keyed by rank.

use std::sync::OnceLock;

/// Callbacks the RTS fires on observability-relevant events.
pub trait RtsObserver: Send + Sync {
    /// A collective completed on `rank` after `wait_ns` wall-clock
    /// nanoseconds (including any blocking on peers).
    fn collective_complete(&self, name: &'static str, rank: usize, wait_ns: u64) {
        let _ = (name, rank, wait_ns);
    }

    /// `rank` observed a membership-epoch transition to `epoch` (each
    /// live rank observes each transition exactly once, when it next
    /// completes a collective).
    fn epoch_changed(&self, rank: usize, epoch: u64) {
        let _ = (rank, epoch);
    }
}

static OBSERVER: OnceLock<Box<dyn RtsObserver>> = OnceLock::new();

/// Install the process-wide observer. The first installation wins;
/// later calls are ignored (observers are expected to be installed
/// once, before any domain runs).
pub fn set_observer(observer: Box<dyn RtsObserver>) {
    let _ = OBSERVER.set(observer);
}

/// Notify the observer (if any) that a collective completed.
pub fn notify_collective(name: &'static str, rank: usize, wait_ns: u64) {
    if let Some(o) = OBSERVER.get() {
        o.collective_complete(name, rank, wait_ns);
    }
}

/// Notify the observer (if any) of a membership-epoch transition.
pub fn notify_epoch(rank: usize, epoch: u64) {
    if let Some(o) = OBSERVER.get() {
        o.epoch_changed(rank, epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SEEN: AtomicU64 = AtomicU64::new(0);

    struct Counting;
    impl RtsObserver for Counting {
        fn collective_complete(&self, _name: &'static str, _rank: usize, _wait_ns: u64) {
            SEEN.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn notifications_reach_the_installed_observer() {
        notify_collective("barrier", 0, 1); // pre-install: no-op
        set_observer(Box::new(Counting));
        set_observer(Box::new(Counting)); // second install ignored
        let before = SEEN.load(Ordering::Relaxed);
        notify_collective("barrier", 0, 1);
        notify_epoch(0, 1); // default impl: no-op
        assert_eq!(SEEN.load(Ordering::Relaxed), before + 1);
    }
}
