//! Per-rank communication endpoint.
//!
//! An [`Endpoint`] is one rank's handle on its [`crate::Domain`]: it can
//! send to any peer, receive with MPI-style `(source, tag)` matching, and
//! participate in collectives. Endpoints are `Send` (each computing
//! thread owns one) but not `Sync` — like an `MPI_Comm` rank, it belongs
//! to exactly one thread.

use crate::error::{RtsError, RtsResult};
use crate::membership::Membership;
use crate::Tag;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

/// An in-flight message: source rank, tag, payload.
#[derive(Debug, Clone)]
pub struct Message {
    /// Rank that sent the message.
    pub from: usize,
    /// User-assigned tag.
    pub tag: Tag,
    /// The payload. `Bytes` so intra-machine transfers are refcounted,
    /// not copied — shared-memory MPICH semantics.
    pub payload: Bytes,
}

/// What an inbox carries: a message, or `None`, which wakes a blocked
/// receiver after a death was confirmed ([`Membership::mark_dead`]).
pub(crate) type Letter = Option<Message>;

/// One rank's handle on a domain.
pub struct Endpoint {
    rank: usize,
    /// Senders to every rank's inbox (including our own, for self-sends).
    peers: Vec<Sender<Letter>>,
    /// Our inbox.
    inbox: Receiver<Letter>,
    /// Messages received but not yet matched by a `recv` call
    /// (out-of-order arrivals under (source, tag) matching).
    pending: RefCell<VecDeque<Message>>,
    /// Domain-shared membership record: which ranks are confirmed dead,
    /// versioned by epoch, plus the domain's rendezvous. Mask 0 — the
    /// healthy case — keeps every code path identical to the
    /// membership-free runtime.
    membership: Arc<Membership>,
    /// Collectives this rank has completed (see
    /// [`Endpoint::collectives_completed`]).
    pub(crate) completed: Cell<u64>,
    /// Collective sequence number for the consistency verifier: counts
    /// how many [`crate::verify`] agreements this rank has entered.
    #[cfg(feature = "analyze")]
    verify_seq: std::cell::Cell<u64>,
}

impl Endpoint {
    pub(crate) fn new(
        rank: usize,
        peers: Vec<Sender<Letter>>,
        inbox: Receiver<Letter>,
        membership: Arc<Membership>,
    ) -> Endpoint {
        Endpoint {
            rank,
            peers,
            inbox,
            pending: RefCell::new(VecDeque::new()),
            membership,
            completed: Cell::new(0),
            #[cfg(feature = "analyze")]
            verify_seq: std::cell::Cell::new(0),
        }
    }

    /// Advance and return this rank's collective sequence number.
    #[cfg(feature = "analyze")]
    pub(crate) fn next_verify_seq(&self) -> u64 {
        let seq = self.verify_seq.get();
        self.verify_seq.set(seq + 1);
        seq
    }

    /// This endpoint's rank in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the domain.
    #[inline]
    pub fn size(&self) -> usize {
        self.peers.len()
    }

    fn check_rank(&self, rank: usize) -> RtsResult<()> {
        if rank >= self.size() {
            Err(RtsError::BadRank {
                rank,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }

    /// Send `payload` to rank `to` with `tag`. Asynchronous and always
    /// buffered (channels are unbounded); completion semantics of large
    /// network sends are modeled at the `pardis-net` layer, not here —
    /// intra-machine shared-memory sends really are buffered copies.
    pub fn send(&self, to: usize, tag: Tag, payload: Bytes) -> RtsResult<()> {
        self.check_rank(to)?;
        self.peers[to]
            .send(Some(Message {
                from: self.rank,
                tag,
                payload,
            }))
            .map_err(|_| RtsError::Disconnected { peer: to })
    }

    /// Receive the next message matching `(from, tag)`, blocking until
    /// one arrives. Messages that do not match are buffered for later
    /// `recv` calls, preserving arrival order per (source, tag) pair —
    /// MPI's non-overtaking guarantee. Once `from` is confirmed dead,
    /// the messages it sent before are still delivered, in order, and
    /// then [`RtsError::DeadRank`] is returned instead of blocking.
    pub fn recv(&self, from: usize, tag: Tag) -> RtsResult<Bytes> {
        self.check_rank(from)?;
        self.recv_filtered(Some(from), |m| m.from == from && m.tag == tag)
            .map(|m| m.payload)
    }

    /// Receive the next message with `tag` from any source.
    pub fn recv_any(&self, tag: Tag) -> RtsResult<Message> {
        self.recv_filtered(None, |m| m.tag == tag)
    }

    /// Receive the next message regardless of source or tag.
    pub fn recv_any_message(&self) -> RtsResult<Message> {
        self.recv_filtered(None, |_| true)
    }

    /// Non-blocking probe: return a matching message if one is already
    /// available. Used by servers that interrupt their computation to
    /// look for outstanding requests (paper §2.1).
    pub fn try_recv(&self, from: usize, tag: Tag) -> RtsResult<Option<Bytes>> {
        self.check_rank(from)?;
        self.drain_inbox();
        let mut pending = self.pending.borrow_mut();
        if let Some(idx) = pending.iter().position(|m| m.from == from && m.tag == tag) {
            return match pending.remove(idx) {
                Some(m) => Ok(Some(m.payload)),
                None => Err(RtsError::Internal("pending index vanished".into())),
            };
        }
        Ok(None)
    }

    fn drain_inbox(&self) {
        let mut pending = self.pending.borrow_mut();
        while let Ok(letter) = self.inbox.try_recv() {
            pending.extend(letter);
        }
    }

    /// The next message that matches `pred`, buffering the others. A
    /// receive `from` one rank returns [`RtsError::DeadRank`] once that
    /// rank is confirmed dead and nothing it sent matches.
    fn recv_filtered(
        &self,
        from: Option<usize>,
        pred: impl Fn(&Message) -> bool,
    ) -> RtsResult<Message> {
        let take = |pending: &mut VecDeque<Message>| {
            let idx = pending.iter().position(&pred)?;
            pending.remove(idx)
        };
        // First look at buffered out-of-order messages.
        if let Some(m) = take(&mut self.pending.borrow_mut()) {
            return Ok(m);
        }
        // Then block on the inbox, buffering non-matches.
        loop {
            if let Some(rank) = from.filter(|&r| self.is_rank_dead(r)) {
                // The death was confirmed after everything the rank
                // sent before it was queued.
                self.drain_inbox();
                return take(&mut self.pending.borrow_mut()).ok_or(RtsError::DeadRank { rank });
            }
            let letter = self
                .inbox
                .recv()
                .map_err(|_| RtsError::Disconnected { peer: usize::MAX })?;
            match letter {
                Some(m) if pred(&m) => return Ok(m),
                Some(m) => self.pending.borrow_mut().push_back(m),
                // A death was confirmed: check `from` again.
                None => {}
            }
        }
    }

    /// The domain's membership record (dead mask + epoch).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Snapshot of the confirmed-dead bitmask; 0 on a healthy domain.
    #[inline]
    pub fn dead_mask(&self) -> u64 {
        self.membership.dead_mask()
    }

    /// Whether `rank` is confirmed dead in the domain membership.
    pub fn is_rank_dead(&self, rank: usize) -> bool {
        self.membership.is_dead(rank)
    }

    /// How many collectives this rank has completed: one count per
    /// successful call of any collective, bumped where the collective's
    /// epilogue runs. Always on; a [`Cell`] increment per collective.
    pub fn collectives_completed(&self) -> u64 {
        self.completed.get()
    }

    /// Block until every *live* rank in the domain reaches the barrier:
    /// a rendezvous round that deposits and reads nothing. A
    /// confirmed-dead caller returns at once — there is nobody it could
    /// wait for.
    pub fn barrier(&self) {
        let dead = self.membership.dead_mask();
        let scope = self.collective_enter("barrier");
        if crate::collectives::live(dead, self.rank) {
            self.membership
                .rendezvous()
                .barrier(self.rank, || self.membership.dead_mask());
        }
        self.collective_done(scope, dead);
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn run_on_all<F>(n: usize, f: F)
    where
        F: Fn(Endpoint) + Send + Sync + Clone + 'static,
    {
        let eps = Domain::new(n);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let f = f.clone();
                std::thread::spawn(move || f(ep))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn ping_pong() {
        run_on_all(2, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 7, Bytes::from_static(b"ping")).unwrap();
                let r = ep.recv(1, 8).unwrap();
                assert_eq!(&r[..], b"pong");
            } else {
                let r = ep.recv(0, 7).unwrap();
                assert_eq!(&r[..], b"ping");
                ep.send(0, 8, Bytes::from_static(b"pong")).unwrap();
            }
        });
    }

    #[test]
    fn tag_matching_reorders() {
        run_on_all(2, |ep| {
            if ep.rank() == 0 {
                // Send tag 2 first, then tag 1.
                ep.send(1, 2, Bytes::from_static(b"second")).unwrap();
                ep.send(1, 1, Bytes::from_static(b"first")).unwrap();
            } else {
                // Receive tag 1 first even though tag 2 arrived first.
                assert_eq!(&ep.recv(0, 1).unwrap()[..], b"first");
                assert_eq!(&ep.recv(0, 2).unwrap()[..], b"second");
            }
        });
    }

    #[test]
    fn non_overtaking_same_tag() {
        run_on_all(2, |ep| {
            if ep.rank() == 0 {
                for i in 0..50u8 {
                    ep.send(1, 3, Bytes::from(vec![i])).unwrap();
                }
            } else {
                for i in 0..50u8 {
                    assert_eq!(ep.recv(0, 3).unwrap()[0], i);
                }
            }
        });
    }

    #[test]
    fn self_send() {
        run_on_all(1, |ep| {
            ep.send(0, 9, Bytes::from_static(b"me")).unwrap();
            assert_eq!(&ep.recv(0, 9).unwrap()[..], b"me");
        });
    }

    #[test]
    fn try_recv_nonblocking() {
        run_on_all(2, |ep| {
            if ep.rank() == 0 {
                ep.barrier(); // ensure rank1 already checked empty
                ep.send(1, 5, Bytes::from_static(b"x")).unwrap();
                ep.barrier();
            } else {
                assert_eq!(ep.try_recv(0, 5).unwrap(), None);
                ep.barrier();
                ep.barrier();
                // Message is now definitely in flight or delivered; poll.
                loop {
                    if let Some(b) = ep.try_recv(0, 5).unwrap() {
                        assert_eq!(&b[..], b"x");
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn recv_any_collects_all_sources() {
        run_on_all(4, |ep| {
            if ep.rank() == 0 {
                let mut seen = vec![false; 4];
                for _ in 0..3 {
                    let m = ep.recv_any(11).unwrap();
                    seen[m.from] = true;
                }
                assert_eq!(seen, vec![false, true, true, true]);
            } else {
                ep.send(0, 11, Bytes::from(vec![ep.rank() as u8])).unwrap();
            }
        });
    }

    #[test]
    fn bad_rank_rejected() {
        run_on_all(2, |ep| {
            assert!(matches!(
                ep.send(5, 0, Bytes::new()),
                Err(RtsError::BadRank { rank: 5, size: 2 })
            ));
            assert!(ep.recv(9, 0).is_err());
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let eps = Domain::new(4);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    ep.barrier();
                    // After the barrier every increment must be visible.
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
