//! One-sided (RMA) run-time system interface.
//!
//! The paper commits to this as future work in two places: "In the
//! future PARDIS will provide an alternative run-time system interface
//! capturing the functionality of the more flexible one-sided run-time
//! systems" (§2.3), motivated by the fact that the message-passing
//! mapping forces SPMD-style collective calls on sequence methods
//! because it "cannot handle asynchronous access to an arbitrary
//! context" (§2.2).
//!
//! This module supplies that interface: a [`Window`] is created
//! collectively over each rank's local buffer, after which **any** rank
//! may [`Window::get`]/[`Window::put`]/[`Window::accumulate`] against
//! any other rank's exposed memory *without the target participating* —
//! the global-pointer functionality of systems like Nexus or ABC++.
//! [`Window::fence`] provides the usual epoch-style synchronization.
//!
//! With a window exposed, a distributed sequence supports genuinely
//! one-sided element access — see
//! `DSequence::expose` in `pardis-core`, which builds on this.

use crate::error::{RtsError, RtsResult};
use crate::Endpoint;
use parking_lot::RwLock;
use std::sync::Arc;

/// A lock acquisition held in the lock-order graph (`analyze`
/// feature) for the guard's lifetime; zero-sized otherwise.
struct LockTrack {
    #[cfg(feature = "analyze")]
    _token: crate::lockgraph::LockToken,
}

/// Feed this acquisition to the lock-order graph. Bind the result so
/// the tracked window covers the guard's lifetime:
/// `let _t = track_lock("...");`.
fn track_lock(class: &'static str) -> LockTrack {
    let _ = class;
    LockTrack {
        #[cfg(feature = "analyze")]
        _token: crate::lockgraph::track(class),
    }
}

/// Shared state of one exposure epoch: every rank's buffer, reachable
/// from any rank.
#[derive(Debug)]
struct WindowInner {
    parts: Vec<RwLock<Vec<f64>>>,
}

/// Process-global segment registry used only during collective window
/// creation (published by rank 0, taken by peers, retired after the
/// install barrier).
fn registry() -> &'static parking_lot::Mutex<std::collections::HashMap<u64, Arc<WindowInner>>> {
    static REG: std::sync::OnceLock<
        parking_lot::Mutex<std::collections::HashMap<u64, Arc<WindowInner>>>,
    > = std::sync::OnceLock::new();
    REG.get_or_init(|| parking_lot::Mutex::new(std::collections::HashMap::new()))
}

fn registry_publish(inner: Arc<WindowInner>) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let _t = track_lock("rma::registry");
    registry().lock().insert(id, inner);
    id
}

fn registry_take(id: u64) -> RtsResult<Arc<WindowInner>> {
    let _t = track_lock("rma::registry");
    registry()
        .lock()
        .get(&id)
        .cloned()
        .ok_or_else(|| RtsError::Internal("window id not published before broadcast".into()))
}

fn registry_retire(inner: &Arc<WindowInner>) {
    let _t = track_lock("rma::registry");
    registry().lock().retain(|_, v| !Arc::ptr_eq(v, inner));
}

/// A collectively created one-sided access window over per-rank `f64`
/// buffers.
///
/// Cloning the handle is cheap; all clones address the same exposed
/// memory.
#[derive(Debug, Clone)]
pub struct Window {
    inner: Arc<WindowInner>,
    rank: usize,
    /// The registry id the window was published under at creation —
    /// identical on every rank, which makes it a collective identity
    /// for the exposure epoch (the race analyzer keys its access log
    /// on it).
    id: u64,
}

impl Window {
    /// Collectively create a window, each rank contributing (moving in)
    /// its local buffer. All ranks receive a handle onto the same
    /// exposed memory.
    pub fn create(rts: &Endpoint, local: Vec<f64>) -> RtsResult<Window> {
        // Rank 0 allocates the shared structure and publishes it in a
        // process-global segment registry under a fresh id — the way a
        // shared-memory one-sided runtime registers its segments. Peers
        // pick it up by id; after the install barrier rank 0 retires
        // the registry entry, so the window's lifetime is carried by
        // the handles alone.
        let (inner, id): (Arc<WindowInner>, u64) = if rts.rank() == 0 {
            let inner = Arc::new(WindowInner {
                parts: (0..rts.size()).map(|_| RwLock::new(Vec::new())).collect(),
            });
            let id = registry_publish(inner.clone());
            rts.broadcast(0, Some(bytes::Bytes::copy_from_slice(&id.to_le_bytes())))?;
            (inner, id)
        } else {
            let b = rts.broadcast(0, None)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(&b[..8]);
            let id = u64::from_le_bytes(a);
            (registry_take(id)?, id)
        };
        {
            let _t = track_lock("rma::window_part");
            *inner.parts[rts.rank()].write() = local;
        }
        // Everyone's buffer must be installed before any one-sided
        // access begins.
        rts.barrier();
        if rts.rank() == 0 {
            registry_retire(&inner);
        }
        Ok(Window {
            inner,
            rank: rts.rank(),
            id,
        })
    }

    /// The window's collective identity: identical on every rank of the
    /// exposure epoch.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of ranks exposing memory.
    pub fn nranks(&self) -> usize {
        self.inner.parts.len()
    }

    /// This handle's own rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of elements rank `target` exposes.
    pub fn len_of(&self, target: usize) -> RtsResult<usize> {
        self.check(target, 0, 0)?;
        let _t = track_lock("rma::window_part");
        Ok(self.inner.parts[target].read().len())
    }

    fn check(&self, target: usize, offset: usize, len: usize) -> RtsResult<()> {
        if target >= self.nranks() {
            return Err(RtsError::BadRank {
                rank: target,
                size: self.nranks(),
            });
        }
        let _t = track_lock("rma::window_part");
        let have = self.inner.parts[target].read().len();
        if offset + len > have {
            return Err(RtsError::LengthMismatch {
                expected: have,
                got: offset + len,
            });
        }
        Ok(())
    }

    /// One-sided read of `len` elements at `offset` in `target`'s
    /// exposed buffer. The target does not participate.
    pub fn get(&self, target: usize, offset: usize, len: usize) -> RtsResult<Vec<f64>> {
        self.check(target, offset, len)?;
        let _t = track_lock("rma::window_part");
        let part = self.inner.parts[target].read();
        Ok(part[offset..offset + len].to_vec())
    }

    /// One-sided read of a single element.
    pub fn get_one(&self, target: usize, offset: usize) -> RtsResult<f64> {
        Ok(self.get(target, offset, 1)?[0])
    }

    /// One-sided write of `data` at `offset` in `target`'s exposed
    /// buffer.
    pub fn put(&self, target: usize, offset: usize, data: &[f64]) -> RtsResult<()> {
        self.check(target, offset, data.len())?;
        let _t = track_lock("rma::window_part");
        let mut part = self.inner.parts[target].write();
        part[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// One-sided atomic-per-call accumulate (`+=`) of `data` into
    /// `target`'s buffer — MPI's `MPI_Accumulate` with `MPI_SUM`.
    pub fn accumulate(&self, target: usize, offset: usize, data: &[f64]) -> RtsResult<()> {
        self.check(target, offset, data.len())?;
        let _t = track_lock("rma::window_part");
        let mut part = self.inner.parts[target].write();
        for (dst, &x) in part[offset..offset + data.len()].iter_mut().zip(data) {
            *dst += x;
        }
        Ok(())
    }

    /// Epoch boundary: all ranks call; every one-sided operation issued
    /// before the fence is complete and visible after it.
    pub fn fence(&self, rts: &Endpoint) {
        rts.barrier();
    }

    /// Collectively tear the window down, each rank recovering its
    /// (possibly remotely mutated) local buffer.
    pub fn free(self, rts: &Endpoint) -> Vec<f64> {
        rts.barrier();
        let _t = track_lock("rma::window_part");
        std::mem::take(&mut *self.inner.parts[self.rank].write())
    }

    /// Snapshot this rank's exposed buffer.
    pub fn local(&self) -> Vec<f64> {
        let _t = track_lock("rma::window_part");
        self.inner.parts[self.rank].read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    #[test]
    fn one_sided_get_without_target_participation() {
        Domain::run(4, |ep| {
            let local = vec![ep.rank() as f64 * 10.0; 4];
            let win = Window::create(&ep, local).unwrap();
            // Every rank reads rank 2's memory; rank 2 does nothing
            // special.
            let v = win.get(2, 1, 2).unwrap();
            assert_eq!(v, vec![20.0, 20.0]);
            assert_eq!(win.get_one(3, 0).unwrap(), 30.0);
            win.fence(&ep);
        });
    }

    #[test]
    fn put_is_visible_after_fence() {
        Domain::run(3, |ep| {
            let win = Window::create(&ep, vec![0.0; 3]).unwrap();
            // Rank r writes r+1 into slot r of every peer.
            for target in 0..win.nranks() {
                win.put(target, ep.rank(), &[(ep.rank() + 1) as f64])
                    .unwrap();
            }
            win.fence(&ep);
            assert_eq!(win.local(), vec![1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn accumulate_sums_contributions() {
        Domain::run(4, |ep| {
            let win = Window::create(&ep, vec![0.0; 1]).unwrap();
            // Everyone accumulates 1.0 into rank 0.
            win.accumulate(0, 0, &[1.0]).unwrap();
            win.fence(&ep);
            if ep.rank() == 0 {
                assert_eq!(win.local(), vec![4.0]);
            }
        });
    }

    #[test]
    fn bounds_are_enforced() {
        Domain::run(2, |ep| {
            let win = Window::create(&ep, vec![0.0; 4]).unwrap();
            assert!(matches!(
                win.get(5, 0, 1),
                Err(RtsError::BadRank { rank: 5, .. })
            ));
            assert!(matches!(
                win.get(1, 3, 2),
                Err(RtsError::LengthMismatch { .. })
            ));
            assert!(win.put(1, 4, &[1.0]).is_err());
            win.fence(&ep);
        });
    }

    #[test]
    fn uneven_exposures() {
        Domain::run(3, |ep| {
            let win = Window::create(&ep, vec![1.0; ep.rank() + 1]).unwrap();
            assert_eq!(win.len_of(0).unwrap(), 1);
            assert_eq!(win.len_of(2).unwrap(), 3);
            win.fence(&ep);
        });
    }

    #[test]
    fn free_returns_mutated_buffer() {
        let results = Domain::run(2, |ep| {
            let win = Window::create(&ep, vec![0.0; 2]).unwrap();
            if ep.rank() == 1 {
                win.put(0, 0, &[7.0, 8.0]).unwrap();
            }
            win.fence(&ep);
            win.free(&ep)
        });
        assert_eq!(results[0], vec![7.0, 8.0]);
        assert_eq!(results[1], vec![0.0, 0.0]);
    }

    #[test]
    fn windows_are_reusable_handles() {
        Domain::run(2, |ep| {
            let win = Window::create(&ep, vec![ep.rank() as f64; 2]).unwrap();
            let win2 = win.clone();
            assert_eq!(win2.get_one(1, 0).unwrap(), 1.0);
            win.fence(&ep);
        });
    }
}
