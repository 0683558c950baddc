//! Domain construction: wire up `n` ranks into a fully connected
//! in-process message-passing world.

use crate::endpoint::{Endpoint, Letter};
use crate::membership::Membership;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;

/// Factory for in-process message-passing domains.
///
/// A domain of size `n` is the RTS-level picture of one parallel machine
/// running an SPMD program with `n` computing threads: in the paper this
/// was MPICH (shared memory) on a 4-node SGI Onyx or a 10-node Power
/// Challenge.
pub struct Domain;

impl Domain {
    /// Create the endpoints of an `n`-rank domain. Endpoint `i` has rank
    /// `i`; hand each one to its own thread.
    ///
    /// (Named `new` for MPI familiarity even though it returns the
    /// endpoints rather than a `Domain` value.)
    #[allow(clippy::new_ret_no_self)]
    ///
    /// # Panics
    /// Panics if `n == 0` — an SPMD program has at least one thread.
    pub fn new(n: usize) -> Vec<Endpoint> {
        assert!(n > 0, "domain must have at least one rank");
        let mut senders: Vec<Sender<Letter>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Letter>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let mut membership = Membership::new(n);
        membership.inboxes = senders.clone();
        let membership = Arc::new(membership);
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Endpoint::new(rank, senders.clone(), inbox, membership.clone()))
            .collect()
    }

    /// Run closure `f` on every rank of a fresh `n`-rank domain, each on
    /// its own OS thread, and join them. Convenience harness used by
    /// tests, examples, and `pardis-core`'s machine bootstrap.
    ///
    /// Returns the per-rank results in rank order. Panics in any rank are
    /// propagated.
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Endpoint) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = Domain::new(n)
            .into_iter()
            .map(|ep| {
                let f = f.clone();
                std::thread::Builder::new()
                    .name(format!("rts-rank-{}", ep.rank()))
                    .spawn(move || f(ep))
                    .expect("spawn rts rank")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn ranks_are_ordered() {
        let eps = Domain::new(5);
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.rank(), i);
            assert_eq!(ep.size(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Domain::new(0);
    }

    #[test]
    fn run_returns_rank_ordered_results() {
        let results = Domain::run(6, |ep| ep.rank() * 2);
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn run_all_to_all() {
        // Every rank sends its rank to every other rank and validates.
        Domain::run(4, |ep| {
            for to in 0..ep.size() {
                ep.send(to, 1, Bytes::from(vec![ep.rank() as u8])).unwrap();
            }
            let mut got: Vec<u8> = (0..ep.size())
                .map(|from| ep.recv(from, 1).unwrap()[0])
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        });
    }
}
