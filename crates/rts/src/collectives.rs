//! Collective operations over a domain.
//!
//! All collectives must be called by **every** rank of the domain
//! (SPMD-style), mirroring both MPI semantics and the paper's assumption
//! that "most invocations of the methods on the sequence will be
//! SPMD-style, that is they will be called collectively by all the
//! computing threads" (§2.2).
//!
//! Every collective is one round of the domain's shared-memory
//! rendezvous (`crate::rendezvous`): each rank deposits its
//! contribution in its own slot, and once every live rank has arrived
//! each reads what it needs from the same outcome, `Bytes` by refcount.
//! No collective sends a message or is relayed through its root, so a
//! broadcast, gather or scatter is one round whatever the number of
//! ranks. The growth of the paper's Table 1 gather and scatter costs
//! with the thread count (its MPICH collectives were linear) is
//! therefore `pardis-sim`'s to reproduce, not this crate's.
//! [`Endpoint::broadcast_frame`] and [`Endpoint::gather_frames`] move
//! frames of segments the same way: the centralized method gathers
//! every rank's blocks as the storage the ranks lend, and relays the
//! frame it received, without copying either.

use crate::endpoint::Endpoint;
use crate::error::{RtsError, RtsResult};
use crate::reduce::ReduceOp;
use crate::rendezvous::{Rendezvous, Slot, Words};
use bytes::Bytes;
use pardis_cdr::Frame;
use std::sync::Arc;
// The byte-view reinterpretation and its inverse live in pardis-cdr
// (one documented unsafe block for the whole workspace); intra-machine
// transfers are native order, so no translation is applied here.
use pardis_cdr::byteswap::{bytes_to_f64, f64_slice_as_bytes as pardis_bytes_of};

/// Whether `rank` is alive under `dead` (the membership bitmask).
/// Ranks beyond the mask width are untracked and treated as alive.
#[inline]
pub(crate) fn live(dead: u64, rank: usize) -> bool {
    rank >= 64 || dead & (1u64 << rank) == 0
}

/// What a collective carries from [`Endpoint::collective_enter`] to
/// [`Endpoint::collective_done`]: the wait-for-graph token (`analyze`).
/// Zero-sized without it.
pub(crate) struct CollectiveScope {
    #[cfg(feature = "analyze")]
    _wait: crate::lockgraph::CollectiveToken,
}

/// Why the root's `slot` holds nothing to read: the root's own error,
/// an empty slot because the root was confirmed dead, or a deposit of
/// another collective's kind.
fn failure(slot: &Slot, root: usize) -> RtsError {
    match slot {
        Slot::Empty => RtsError::DeadRank { rank: root },
        Slot::Failed(e) => e.clone(),
        _ => RtsError::Internal(format!("root {root} deposited for another collective")),
    }
}

/// A rank's gathered chunk: empty for a rank confirmed dead.
fn chunk(slot: &Slot) -> Bytes {
    match slot {
        Slot::One(bytes) => bytes.clone(),
        _ => Bytes::new(),
    }
}

impl Endpoint {
    #[inline(always)]
    pub(crate) fn collective_enter(&self, name: &'static str) -> CollectiveScope {
        let _ = name;
        CollectiveScope {
            #[cfg(feature = "analyze")]
            _wait: crate::lockgraph::collective_enter(name),
        }
    }

    /// The per-collective epilogue, run once the collective succeeded:
    /// the rank's completed-collective count goes up and a live rank
    /// advances its causal stamp to the next generation. No messages;
    /// featureless, only the count.
    #[inline(always)]
    pub(crate) fn collective_done(&self, scope: CollectiveScope, dead: u64) {
        self.completed.set(self.completed.get() + 1);
        #[cfg(any(feature = "analyze", feature = "obs"))]
        if live(dead, self.rank()) {
            crate::clock::ClockWitness::complete_collective(self.membership().epoch());
        }
        let _ = (scope, dead);
    }

    /// One collective, `name`d for the wait-for graph and rooted at
    /// `root` (the caller, for collectives without a root): reject a
    /// root out of range and a confirmed-dead caller or root, `meet` in
    /// the domain's rendezvous, and count the collective if it
    /// succeeded.
    fn collective<T>(
        &self,
        name: &'static str,
        root: usize,
        meet: impl FnOnce(&Rendezvous) -> RtsResult<T>,
    ) -> RtsResult<T> {
        if root >= self.size() {
            return Err(RtsError::BadRank {
                rank: root,
                size: self.size(),
            });
        }
        let dead = self.dead_mask();
        self.check_participants(dead, root)?;
        let scope = self.collective_enter(name);
        let out = meet(self.membership().rendezvous());
        if out.is_ok() {
            self.collective_done(scope, dead);
        }
        out
    }

    /// A collective that deposits `slot` and `read`s every rank's slot.
    fn exchange<T>(
        &self,
        name: &'static str,
        root: usize,
        slot: Slot,
        read: impl FnOnce(&[Slot]) -> RtsResult<T>,
    ) -> RtsResult<T> {
        self.collective(name, root, |rv| {
            rv.round(self.rank(), slot, || self.dead_mask(), read)
        })
    }

    /// Broadcast `data` from `root` to every rank; returns the payload on
    /// every rank (on the root it is the input, refcounted).
    pub fn broadcast(&self, root: usize, data: Option<Bytes>) -> RtsResult<Bytes> {
        self.broadcast_slot(root, data.map(Slot::One), |slot| match slot {
            Slot::One(data) => Some(data.clone()),
            _ => None,
        })
    }

    /// [`Endpoint::broadcast`] for a frame of segments: every rank gets
    /// the root's segments, none of them copied.
    pub fn broadcast_frame(&self, root: usize, frame: Option<Frame>) -> RtsResult<Frame> {
        let shared = self.broadcast_slot(
            root,
            frame.map(|f| Slot::Frame(Arc::new(f))),
            |slot| match slot {
                Slot::Frame(frame) => Some(Arc::clone(frame)),
                _ => None,
            },
        )?;
        Ok(Arc::unwrap_or_clone(shared))
    }

    /// A broadcast of the root's `slot`, which every rank `read`s.
    fn broadcast_slot<T>(
        &self,
        root: usize,
        slot: Option<Slot>,
        read: impl FnOnce(&Slot) -> Option<T>,
    ) -> RtsResult<T> {
        let slot = match slot {
            _ if self.rank() != root => Slot::Empty,
            Some(slot) => slot,
            None => Slot::Failed(RtsError::Internal("root must supply broadcast data".into())),
        };
        self.exchange("broadcast", root, slot, |outcome| {
            read(&outcome[root]).ok_or_else(|| failure(&outcome[root], root))
        })
    }

    /// Gather each rank's `bytes` at `root`. Returns `Some(chunks)` in
    /// rank order at the root, `None` elsewhere. A rank confirmed dead
    /// contributes an empty chunk.
    pub fn gather_bytes(&self, root: usize, bytes: Bytes) -> RtsResult<Option<Vec<Bytes>>> {
        let rank = self.rank();
        self.exchange("gather", root, Slot::One(bytes), |outcome| {
            Ok((rank == root).then(|| outcome.iter().map(chunk).collect()))
        })
    }

    /// [`Endpoint::gather_bytes`] for frames of segments: the root gets
    /// every rank's `frame` as it was deposited, its segments shared,
    /// not copied. This is the centralized method's gather of the
    /// blocks every computing thread lends. A rank confirmed dead
    /// contributes an empty frame.
    pub fn gather_frames(&self, root: usize, frame: Frame) -> RtsResult<Option<Vec<Frame>>> {
        let rank = self.rank();
        let shared = self.exchange("gather", root, Slot::Frame(Arc::new(frame)), |outcome| {
            Ok((rank == root).then(|| {
                outcome
                    .iter()
                    .map(|slot| match slot {
                        Slot::Frame(frame) => Some(Arc::clone(frame)),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            }))
        })?;
        Ok(shared.map(|frames| {
            frames
                .into_iter()
                .map(|f| f.map(Arc::unwrap_or_clone).unwrap_or_default())
                .collect()
        }))
    }

    /// Gather a distributed `f64` buffer at `root`, concatenated in rank
    /// order. This is exactly the "gather … performed by PARDIS using the
    /// interface to the run-time system" of the centralized method
    /// (paper §3.2, figure 2).
    pub fn gather_f64(&self, root: usize, local: &[f64]) -> RtsResult<Option<Vec<f64>>> {
        let payload = Bytes::copy_from_slice(pardis_bytes_of(local));
        match self.gather_bytes(root, payload)? {
            None => Ok(None),
            Some(chunks) => {
                let total: usize = chunks.iter().map(|c| c.len() / 8).sum();
                let mut out = Vec::with_capacity(total);
                for c in &chunks {
                    bytes_to_f64(c, &mut out);
                }
                Ok(Some(out))
            }
        }
    }

    /// Scatter variable-size chunks from `root`: the root supplies one
    /// `Bytes` per rank (in rank order); every rank receives its chunk.
    /// A root without exactly one chunk per rank gives every rank the
    /// same error.
    pub fn scatterv_bytes(&self, root: usize, chunks: Option<Vec<Bytes>>) -> RtsResult<Bytes> {
        let (rank, size) = (self.rank(), self.size());
        let slot = match chunks {
            _ if rank != root => Slot::Empty,
            Some(chunks) if chunks.len() == size => Slot::Many(chunks),
            Some(chunks) => Slot::Failed(RtsError::BadCounts {
                expected: size,
                got: chunks.len(),
            }),
            None => Slot::Failed(RtsError::Internal("root must supply scatter chunks".into())),
        };
        self.exchange("scatter", root, slot, |outcome| match &outcome[root] {
            Slot::Many(chunks) if rank < chunks.len() => Ok(chunks[rank].clone()),
            other => Err(failure(other, root)),
        })
    }

    /// Scatter an `f64` buffer held at `root` according to per-rank
    /// `counts` (known to all ranks). Returns this rank's slice.
    pub fn scatterv_f64(
        &self,
        root: usize,
        full: Option<&[f64]>,
        counts: &[usize],
    ) -> RtsResult<Vec<f64>> {
        if counts.len() != self.size() {
            return Err(RtsError::BadCounts {
                expected: self.size(),
                got: counts.len(),
            });
        }
        let chunks = if self.rank() == root {
            let full =
                full.ok_or_else(|| RtsError::Internal("root must supply the full buffer".into()))?;
            let expected: usize = counts.iter().sum();
            if full.len() != expected {
                return Err(RtsError::LengthMismatch {
                    expected,
                    got: full.len(),
                });
            }
            let mut out = Vec::with_capacity(self.size());
            let mut off = 0;
            for &c in counts {
                out.push(Bytes::copy_from_slice(pardis_bytes_of(&full[off..off + c])));
                off += c;
            }
            Some(out)
        } else {
            None
        };
        let mine = self.scatterv_bytes(root, chunks)?;
        let mut out = Vec::with_capacity(mine.len() / 8);
        bytes_to_f64(&mine, &mut out);
        Ok(out)
    }

    /// All ranks receive every rank's `bytes`, in rank order; a rank
    /// confirmed dead contributes an empty chunk.
    pub fn allgather_bytes(&self, bytes: Bytes) -> RtsResult<Vec<Bytes>> {
        self.exchange("allgather", self.rank(), Slot::One(bytes), |outcome| {
            Ok(outcome.iter().map(chunk).collect())
        })
    }

    /// All-gather a small `u64` (lengths, ports, flags). Returns the
    /// per-rank values in rank order on every rank.
    pub fn allgather_u64(&self, value: u64) -> RtsResult<Vec<u64>> {
        let chunks = self.allgather_bytes(Bytes::copy_from_slice(&value.to_le_bytes()))?;
        Ok(chunks
            .iter()
            .map(|c| {
                // A confirmed-dead rank's slot is an empty chunk;
                // decode it as 0 rather than slicing past its end.
                let mut a = [0u8; 8];
                let n = c.len().min(8);
                a[..n].copy_from_slice(&c[..n]);
                u64::from_le_bytes(a)
            })
            .collect())
    }

    /// Element-wise reduction of `local` across all live ranks; every
    /// rank receives the result. The rank that completes the round
    /// folds the live contributions once, in rank order, so every rank
    /// gets the same bits whatever the arrival order; a contribution of
    /// up to four words needs no allocation. Contributions of different
    /// lengths give every rank [`RtsError::LengthMismatch`].
    pub fn allreduce_f64(&self, local: &[f64], op: ReduceOp) -> RtsResult<Vec<f64>> {
        self.allreduce(local, op, <[f64]>::to_vec)
    }

    /// Scalar allreduce convenience; allocates nothing.
    pub fn allreduce_scalar(&self, value: f64, op: ReduceOp) -> RtsResult<f64> {
        self.allreduce(&[value], op, |folded| folded.first().map_or(value, |&v| v))
    }

    /// Allreduce `local` and `read` the folded result.
    fn allreduce<T>(
        &self,
        local: &[f64],
        op: ReduceOp,
        read: impl FnOnce(&[f64]) -> T,
    ) -> RtsResult<T> {
        let slot = Slot::Words(Words::new(local), op);
        self.exchange("allreduce", self.rank(), slot, |outcome| {
            let folded = outcome.iter().find_map(|slot| match slot {
                Slot::Words(words, _) => Some(Ok(words.as_slice())),
                Slot::Failed(e) => Some(Err(e.clone())),
                _ => None,
            });
            folded.unwrap_or(Ok(&[])).map(read)
        })
    }

    /// Personalized all-to-all: `outgoing[j]` goes to rank `j`; returns
    /// the chunk received from each rank, in rank order, empty from a
    /// rank confirmed dead. The workhorse of distributed-sequence
    /// redistribution. A rank without exactly one chunk per rank gives
    /// every rank the same error.
    pub fn alltoallv_bytes(&self, outgoing: Vec<Bytes>) -> RtsResult<Vec<Bytes>> {
        let (rank, size) = (self.rank(), self.size());
        let slot = if outgoing.len() == size {
            Slot::Many(outgoing)
        } else {
            Slot::Failed(RtsError::BadCounts {
                expected: size,
                got: outgoing.len(),
            })
        };
        self.exchange("alltoall", rank, slot, |outcome| {
            outcome
                .iter()
                .map(|slot| match slot {
                    Slot::Many(row) => Ok(row.get(rank).cloned().unwrap_or_default()),
                    Slot::Failed(e) => Err(e.clone()),
                    _ => Ok(Bytes::new()),
                })
                .collect()
        })
    }

    /// Reject collectives that cannot make progress under `dead`: a
    /// confirmed-dead caller, or a confirmed-dead root (its slot would
    /// stay empty). With `dead == 0` this is one comparison — the
    /// zero-overhead healthy path.
    fn check_participants(&self, dead: u64, root: usize) -> RtsResult<()> {
        if dead == 0 {
            return Ok(());
        }
        if !live(dead, self.rank()) {
            return Err(RtsError::DeadRank { rank: self.rank() });
        }
        if !live(dead, root) {
            return Err(RtsError::DeadRank { rank: root });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    #[test]
    fn broadcast_reaches_all() {
        let results = Domain::run(4, |ep| {
            let data = if ep.rank() == 2 {
                Some(Bytes::from_static(b"hello"))
            } else {
                None
            };
            ep.broadcast(2, data).unwrap().to_vec()
        });
        for r in results {
            assert_eq!(r, b"hello");
        }
    }

    #[test]
    fn gather_f64_rank_order() {
        let results = Domain::run(3, |ep| {
            let local = vec![ep.rank() as f64; ep.rank() + 1];
            ep.gather_f64(0, &local).unwrap()
        });
        assert_eq!(
            results[0].as_ref().unwrap(),
            &vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
        assert!(results[1].is_none());
        assert!(results[2].is_none());
    }

    #[test]
    fn scatterv_f64_counts() {
        let results = Domain::run(3, |ep| {
            let counts = [1usize, 2, 3];
            let full: Vec<f64> = (0..6).map(|x| x as f64).collect();
            let root_buf = if ep.rank() == 0 {
                Some(&full[..])
            } else {
                None
            };
            ep.scatterv_f64(0, root_buf, &counts).unwrap()
        });
        assert_eq!(results[0], vec![0.0]);
        assert_eq!(results[1], vec![1.0, 2.0]);
        assert_eq!(results[2], vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn gather_then_scatter_roundtrips() {
        // The centralized-method pattern: gather at a communicating
        // thread, then scatter back out.
        let results = Domain::run(4, |ep| {
            let local: Vec<f64> = (0..5).map(|i| (ep.rank() * 5 + i) as f64).collect();
            let gathered = ep.gather_f64(0, &local).unwrap();
            let counts = [5usize; 4];
            ep.scatterv_f64(0, gathered.as_deref(), &counts).unwrap()
        });
        for (rank, got) in results.iter().enumerate() {
            let want: Vec<f64> = (0..5).map(|i| (rank * 5 + i) as f64).collect();
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn allgather_u64_everywhere() {
        let results = Domain::run(4, |ep| ep.allgather_u64(ep.rank() as u64 * 100).unwrap());
        for r in results {
            assert_eq!(r, vec![0, 100, 200, 300]);
        }
    }

    #[test]
    fn allreduce_sum_min_max() {
        let results = Domain::run(4, |ep| {
            let v = ep.rank() as f64;
            (
                ep.allreduce_scalar(v, ReduceOp::Sum).unwrap(),
                ep.allreduce_scalar(v, ReduceOp::Min).unwrap(),
                ep.allreduce_scalar(v, ReduceOp::Max).unwrap(),
            )
        });
        for (s, mn, mx) in results {
            assert_eq!(s, 6.0);
            assert_eq!(mn, 0.0);
            assert_eq!(mx, 3.0);
        }
    }

    #[test]
    fn allreduce_vector() {
        let results = Domain::run(3, |ep| {
            let v = vec![ep.rank() as f64, 1.0];
            ep.allreduce_f64(&v, ReduceOp::Sum).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn alltoallv_exchanges() {
        let results = Domain::run(3, |ep| {
            let outgoing: Vec<Bytes> = (0..3)
                .map(|to| Bytes::from(vec![(ep.rank() * 10 + to) as u8]))
                .collect();
            ep.alltoallv_bytes(outgoing)
                .unwrap()
                .iter()
                .map(|b| b[0])
                .collect::<Vec<u8>>()
        });
        // incoming[from] at rank r should be from*10 + r
        for (r, inc) in results.iter().enumerate() {
            let want: Vec<u8> = (0..3).map(|from| (from * 10 + r) as u8).collect();
            assert_eq!(inc, &want);
        }
    }

    #[test]
    fn scatter_count_mismatch_detected() {
        let results = Domain::run(2, |ep| {
            let counts = [1usize, 2, 3]; // wrong arity on purpose
            let full = [0.0f64; 6];
            let root = if ep.rank() == 0 {
                Some(&full[..])
            } else {
                None
            };
            ep.scatterv_f64(0, root, &counts)
        });
        for r in results {
            assert!(matches!(r, Err(RtsError::BadCounts { .. })));
        }
    }

    #[test]
    fn degraded_collectives_complete_over_survivors() {
        // Confirm rank 3 dead; the three survivors must complete every
        // collective kind without blocking on it.
        let results = Domain::run(4, |ep| {
            ep.barrier();
            ep.membership().mark_dead(3);
            if ep.rank() == 3 {
                return None;
            }
            let gathered = ep.gather_f64(0, &[ep.rank() as f64]).unwrap();
            if ep.rank() == 0 {
                // The dead rank's slot is present but empty.
                assert_eq!(gathered.unwrap(), vec![0.0, 1.0, 2.0]);
            }
            let live_sum = ep.allreduce_scalar(1.0, ReduceOp::Sum).unwrap();
            ep.barrier();
            let chunks = (ep.rank() == 0).then(|| {
                (0..4)
                    .map(|r| Bytes::from(vec![r as u8 * 10]))
                    .collect::<Vec<_>>()
            });
            let mine = ep.scatterv_bytes(0, chunks).unwrap();
            let everyone = ep.allgather_u64(ep.rank() as u64 + 100).unwrap();
            ep.barrier();
            Some((
                live_sum,
                mine[0],
                everyone,
                ep.membership().epoch(),
                ep.membership().survivors(),
            ))
        });
        assert!(results[3].is_none());
        for (rank, r) in results.iter().enumerate().take(3) {
            let (sum, scattered, all, epoch, survivors) = r.clone().unwrap();
            assert_eq!(sum, 3.0, "three live contributions");
            assert_eq!(scattered, rank as u8 * 10);
            // Dead rank's allgather slot decodes as 0 (empty chunk is
            // padded by the caller; here the raw u64 slot).
            assert_eq!(all[..3], [100, 101, 102]);
            assert_eq!(epoch, 1);
            assert_eq!(survivors, vec![0, 1, 2]);
        }
    }

    #[test]
    fn dead_rank_participation_is_rejected() {
        Domain::run(2, |ep| {
            ep.membership().mark_dead(1);
            if ep.rank() == 1 {
                assert!(matches!(
                    ep.allreduce_scalar(0.0, ReduceOp::Sum),
                    Err(RtsError::DeadRank { rank: 1 })
                ));
                assert!(matches!(
                    ep.broadcast(1, Some(Bytes::new())),
                    Err(RtsError::DeadRank { rank: 1 })
                ));
            } else {
                // A dead *root* is rejected too — its slot would stay
                // empty.
                assert!(matches!(
                    ep.broadcast(1, None),
                    Err(RtsError::DeadRank { rank: 1 })
                ));
                // Rank 0 alone is the whole survivor set.
                assert_eq!(ep.allreduce_scalar(7.0, ReduceOp::Sum).unwrap(), 7.0);
            }
        });
    }

    #[test]
    fn survivor_barrier_synchronizes_repeatedly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        Domain::run(4, move |ep| {
            ep.barrier();
            ep.membership().mark_dead(2);
            if ep.rank() == 2 {
                return;
            }
            for round in 1..=10usize {
                c2.fetch_add(1, Ordering::SeqCst);
                ep.barrier();
                // All three survivor increments of this round visible.
                assert_eq!(c2.load(Ordering::SeqCst), round * 3);
                ep.barrier();
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn single_rank_collectives_degenerate() {
        Domain::run(1, |ep| {
            assert_eq!(
                ep.broadcast(0, Some(Bytes::from_static(b"x"))).unwrap(),
                Bytes::from_static(b"x")
            );
            assert_eq!(ep.gather_f64(0, &[1.0]).unwrap().unwrap(), vec![1.0]);
            assert_eq!(ep.allreduce_scalar(5.0, ReduceOp::Sum).unwrap(), 5.0);
            let inc = ep.alltoallv_bytes(vec![Bytes::from_static(b"me")]).unwrap();
            assert_eq!(&inc[0][..], b"me");
        });
    }
}
