//! The domain's shared-memory rendezvous: every collective in one
//! round.
//!
//! The ranks of a domain are threads of one process, so a collective
//! needs no messages. Each rank deposits its contribution into its own
//! [`Slot`] and marks itself arrived; the rank whose arrival or
//! re-check finds every live rank arrived completes the round: it
//! moves the slots into the round's outcome, folds an allreduce's
//! contributions there once, **in rank order** (the same bits on every
//! rank whatever the arrival order), bumps the generation counter and
//! wakes the rest. Every rank then reads what it needs from that one
//! outcome: the root's slot (broadcast), chunk `rank` of the root's
//! chunks (scatter), every slot (gather, allgather), entry `rank` of
//! every slot (all-to-all), or the fold (allreduce). `Bytes` move by refcount; no payload is copied. The
//! last reader clears the outcome, so no payload outlives its round. A
//! barrier deposits nothing and reads nothing.
//!
//! Waiters spin briefly on the generation, then yield, then park on a
//! condition variable (see [`SPINS`] and [`YIELDS`]).
//!
//! Membership: the dead mask is read whenever a rank arrives or
//! re-checks, and a round completes once every rank that is live *at
//! that moment* has arrived. Confirming a death wakes parked waiters
//! ([`Rendezvous::wake`]), so they re-check against the smaller live
//! set. A dead rank's slot is empty in the outcome, so a root confirmed
//! dead leaves its readers nothing but [`RtsError::DeadRank`].

use crate::collectives::live;
use crate::error::{RtsError, RtsResult};
use crate::reduce::ReduceOp;
use bytes::Bytes;
use pardis_cdr::Frame;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Polls of the generation (with `spin_loop`) before a waiter starts
/// yielding: about 4 µs on a 2-vCPU Xeon, long enough for a peer that
/// runs on another core to finish a small round. Fewer spins (64)
/// fell back to parking on `small_in`; DESIGN.md §14 has the sweep.
pub(crate) const SPINS: u32 = 256;

/// `yield_now` calls before a waiter parks. Yielding hands the core to
/// a runnable peer when the domain has more threads than cores, which
/// is when spinning alone (4096 spins, no yields) stretched the
/// `inout_mid` p90 by a third.
pub(crate) const YIELDS: u32 = 8;

/// What a rank deposits in a round, and what the outcome holds for it.
#[derive(Debug, Default)]
pub(crate) enum Slot {
    /// Nothing: a barrier, a broadcast or scatter off the root, or a
    /// rank that did not arrive or is dead.
    #[default]
    Empty,
    /// An allreduce contribution and its operator. In the outcome, the
    /// lowest-ranked one holds the fold of them all.
    Words(Words, ReduceOp),
    /// One buffer: a broadcast root's payload, or a gather or allgather
    /// contribution.
    One(Bytes),
    /// A frame of segments: a broadcast root's, or a gather
    /// contribution. Shared, so that a reader takes it under the lock
    /// with one reference count and copies its segment list outside.
    Frame(Arc<Frame>),
    /// One buffer per rank, in rank order: a scatter root's chunks, or
    /// a rank's all-to-all row.
    Many(Vec<Bytes>),
    /// A collective-verify fingerprint and its sequence number.
    #[cfg(feature = "analyze")]
    Print(crate::verify::Fingerprint, u64),
    /// An error every reader returns: a root's bad arguments.
    Failed(RtsError),
}

/// Words an allreduce contribution holds in place: the ORB's protocol
/// rounds carry one to three.
const INLINE_WORDS: usize = 4;

/// An allreduce contribution: up to [`INLINE_WORDS`] words without a
/// heap allocation, more in a `Vec`.
#[derive(Debug)]
pub(crate) enum Words {
    Inline([f64; INLINE_WORDS], usize),
    Heap(Vec<f64>),
}

impl Words {
    pub(crate) fn new(src: &[f64]) -> Words {
        if src.len() > INLINE_WORDS {
            return Words::Heap(src.to_vec());
        }
        let mut words = [0.0; INLINE_WORDS];
        words[..src.len()].copy_from_slice(src);
        Words::Inline(words, src.len())
    }

    pub(crate) fn as_slice(&self) -> &[f64] {
        match self {
            Words::Inline(words, len) => &words[..*len],
            Words::Heap(words) => words,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            Words::Inline(words, len) => &mut words[..*len],
            Words::Heap(words) => words,
        }
    }
}

/// Fold an allreduce round's contributions into the lowest-ranked one,
/// in rank order with its operator, once for every reader: the same
/// bits on every rank whatever the arrival order. Contributions of
/// different lengths leave the error there instead. A round without
/// contributions is left as it is.
fn fold(outcome: &mut [Slot]) {
    let mut slots = outcome.iter_mut();
    let Some(first) = slots.find(|s| matches!(s, Slot::Words(..))) else {
        return;
    };
    let Slot::Words(acc, op) = first else {
        return;
    };
    for slot in slots {
        if let Slot::Words(words, _) = slot {
            if let Err(e) = op.fold_into(acc.as_mut_slice(), words.as_slice()) {
                *first = Slot::Failed(e);
                return;
            }
        }
    }
}

/// One rendezvous per domain, shared by every rank.
#[derive(Debug)]
pub(crate) struct Rendezvous {
    state: Mutex<Round>,
    wakeup: Condvar,
    /// `Round::gen`, readable without the lock so waiters can spin. The
    /// completer stores it with `Release` under the lock every rank
    /// arrived through; a waiter's `Acquire` load that sees the new
    /// value therefore also sees every rank's writes from before its
    /// arrival.
    gen: AtomicU64,
}

#[derive(Debug)]
struct Round {
    /// Rounds completed so far.
    gen: u64,
    /// Which ranks have arrived in the open round.
    arrived: Vec<bool>,
    /// Each rank's deposit in the open round.
    slots: Vec<Slot>,
    /// Ranks in the open round that will read its outcome.
    readers: usize,
    /// The last completed round's slots: a live rank's deposit, empty
    /// for the others.
    outcome: Vec<Slot>,
    /// The last completed round's readers that have not read yet. The
    /// last to read clears the outcome, and the open round cannot
    /// complete before, so every rank that arrived gets the outcome,
    /// even one confirmed dead after it arrived.
    unread: usize,
    /// Waiters blocked on `wakeup`.
    parked: usize,
}

impl Round {
    /// Complete the open round if every live rank has arrived and the
    /// last round's outcome is read.
    fn try_complete(&mut self, dead: u64) -> bool {
        let size = self.arrived.len();
        if self.unread > 0 || !(0..size).all(|r| self.arrived[r] || !live(dead, r)) {
            return false;
        }
        for r in 0..size {
            let slot = std::mem::take(&mut self.slots[r]);
            self.outcome[r] = if live(dead, r) { slot } else { Slot::Empty };
        }
        fold(&mut self.outcome);
        self.arrived.iter_mut().for_each(|a| *a = false);
        self.unread = std::mem::take(&mut self.readers);
        self.gen += 1;
        true
    }
}

impl Rendezvous {
    /// A rendezvous for an `n`-rank domain.
    pub(crate) fn new(n: usize) -> Rendezvous {
        let empty = || (0..n).map(|_| Slot::Empty).collect();
        Rendezvous {
            state: Mutex::new(Round {
                gen: 0,
                arrived: vec![false; n],
                slots: empty(),
                readers: 0,
                outcome: empty(),
                unread: 0,
                parked: 0,
            }),
            wakeup: Condvar::new(),
            gen: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Round> {
        // Nothing panics while the lock is held, so a poisoned lock
        // still guards a consistent round.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish a completed round: mirror the generation and wake the
    /// parked waiters.
    fn publish(&self, round: &Round) {
        self.gen.store(round.gen, Ordering::Release);
        if round.parked > 0 {
            self.wakeup.notify_all();
        }
    }

    /// Block until every live rank has reached the barrier: a round
    /// that deposits and reads nothing. `dead` reads the membership's
    /// current dead mask.
    pub(crate) fn barrier(&self, rank: usize, dead: impl Fn() -> u64) {
        let round = self.lock();
        let gen = round.gen;
        self.arrive(round, gen, rank, Slot::Empty, &dead, false);
    }

    /// One round for `rank`: deposit `slot`, wait until every live rank
    /// has arrived, then `read` the outcome (every rank's slot, in rank
    /// order). `dead` reads the membership's current dead mask.
    pub(crate) fn round<T>(
        &self,
        rank: usize,
        slot: Slot,
        dead: impl Fn() -> u64,
        read: impl FnOnce(&[Slot]) -> RtsResult<T>,
    ) -> RtsResult<T> {
        let round = self.lock();
        let gen = round.gen;
        let round = self.arrive(round, gen, rank, slot, &dead, true);
        self.collect(round, read)
    }

    /// Deposit `slot` for `rank` in round `gen` (open under `round`),
    /// arrive, and wait for the round to complete. A rank that will
    /// `read` the outcome gets the lock back; one that will not may
    /// return without it.
    fn arrive<'a>(
        &'a self,
        mut round: MutexGuard<'a, Round>,
        gen: u64,
        rank: usize,
        slot: Slot,
        dead: &impl Fn() -> u64,
        read: bool,
    ) -> Option<MutexGuard<'a, Round>> {
        round.slots[rank] = slot;
        round.arrived[rank] = true;
        round.readers += usize::from(read);
        if round.try_complete(dead()) {
            self.publish(&round);
            return Some(round);
        }
        drop(round);
        let moved = self.spin_then_yield(|| self.gen.load(Ordering::Acquire) != gen);
        if moved && !read {
            return None;
        }
        round = self.lock();
        while round.gen == gen {
            if round.try_complete(dead()) {
                self.publish(&round);
                break;
            }
            round = self.park(round);
        }
        Some(round)
    }

    /// Read the last completed round's outcome with `read`. The last
    /// reader clears the outcome and wakes the ranks that may be
    /// waiting for it to complete the next round.
    fn collect<T>(
        &self,
        round: Option<MutexGuard<'_, Round>>,
        read: impl FnOnce(&[Slot]) -> RtsResult<T>,
    ) -> RtsResult<T> {
        let mut round = round.unwrap_or_else(|| self.lock());
        let out = read(&round.outcome);
        round.unread -= 1;
        if round.unread == 0 {
            round.outcome.iter_mut().for_each(|s| *s = Slot::Empty);
            if round.parked > 0 {
                self.wakeup.notify_all();
            }
        }
        out
    }

    /// Wait for `done` without the lock: spin, then yield. Returns
    /// whether it came true; the caller parks if it has not.
    fn spin_then_yield(&self, done: impl Fn() -> bool) -> bool {
        for _ in 0..SPINS {
            if done() {
                return true;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if done() {
                return true;
            }
            std::thread::yield_now();
        }
        done()
    }

    /// Park on `wakeup` until notified.
    fn park<'a>(&'a self, mut round: MutexGuard<'a, Round>) -> MutexGuard<'a, Round> {
        round.parked += 1;
        round = self.wakeup.wait(round).unwrap_or_else(|e| e.into_inner());
        round.parked -= 1;
        round
    }

    /// Wake every parked waiter so it re-checks the round against the
    /// current dead mask. Called after a death is confirmed.
    pub(crate) fn wake(&self) {
        let _round = self.lock();
        self.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Endpoint};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Run `f` on every rank of an `n`-rank domain and return the
    /// per-rank results, failing (instead of hanging) if the ranks do
    /// not all finish within `bound`.
    fn run_bounded<T, F>(n: usize, bound: Duration, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Endpoint) -> T + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(Domain::run(n, f));
        });
        match rx.recv_timeout(bound) {
            Ok(results) => {
                runner.join().expect("runner exits after sending");
                results
            }
            // A rank panicked: re-raise its panic here.
            Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the runner sends before it exits"),
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("{n} ranks did not finish within {bound:?}")
            }
        }
    }

    /// Rank `rank`'s contribution to round `round`: magnitudes from 1
    /// to 1e16, so that adding them in a different order rounds
    /// differently.
    fn contribution(round: u64, rank: usize) -> [f64; 3] {
        let mut x = (round << 8 | rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let sign = if x & 1 == 0 { 1.0 } else { -1.0 };
            sign * 10f64.powi((x >> 1) as i32 % 17) * (1.0 + (x >> 8) as f64 / 2f64.powi(56))
        };
        [next(), next(), next()]
    }

    #[test]
    fn rendezvous_folds_in_rank_order_on_every_rank() {
        const RANKS: usize = 4;
        const ROUNDS: u64 = 10_000;
        // The inputs really are order-sensitive: the reverse fold of
        // some round differs from the rank-order fold.
        let fold = |round: u64, order: &mut dyn Iterator<Item = usize>| {
            let mut acc = [0.0f64; 3];
            for r in order {
                for (a, c) in acc.iter_mut().zip(contribution(round, r)) {
                    *a += c;
                }
            }
            acc.map(f64::to_bits)
        };
        assert!((0..ROUNDS).any(|k| fold(k, &mut (0..RANKS)) != fold(k, &mut (0..RANKS).rev())));

        let results = run_bounded(RANKS, Duration::from_secs(120), move |ep| {
            (0..ROUNDS)
                .map(|k| {
                    let got = ep
                        .allreduce_f64(&contribution(k, ep.rank()), ReduceOp::Sum)
                        .unwrap();
                    [got[0].to_bits(), got[1].to_bits(), got[2].to_bits()]
                })
                .collect::<Vec<_>>()
        });
        for (rank, got) in results.iter().enumerate() {
            for (k, bits) in got.iter().enumerate() {
                assert_eq!(
                    *bits,
                    fold(k as u64, &mut (0..RANKS)),
                    "rank {rank}, round {k}: not the rank-order fold"
                );
            }
        }
    }

    #[test]
    fn rendezvous_stress_eight_ranks() {
        // More ranks than cores: waiters must yield and park, and no
        // wake-up may be lost.
        const ROUNDS: usize = 10_000;
        let started = Instant::now();
        let sums = run_bounded(8, Duration::from_secs(60), |ep| {
            let mut last = 0.0;
            for k in 0..ROUNDS {
                ep.barrier();
                last = ep
                    .allreduce_scalar((ep.rank() + k) as f64, ReduceOp::Sum)
                    .unwrap();
                assert_eq!(last, (28 + 8 * k) as f64);
            }
            last
        });
        assert!(sums.iter().all(|&s| s == (28 + 8 * (ROUNDS - 1)) as f64));
        eprintln!(
            "8 ranks x {ROUNDS} barrier+allreduce rounds: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn rendezvous_length_mismatch_is_typed_on_every_rank() {
        let results = run_bounded(3, Duration::from_secs(30), |ep| {
            let local = vec![1.0; if ep.rank() == 1 { 3 } else { 2 }];
            let first = ep.allreduce_f64(&local, ReduceOp::Sum);
            // The domain stays usable after the failed round.
            let after = ep.allreduce_scalar(1.0, ReduceOp::Sum).unwrap();
            (first, after)
        });
        for (first, after) in results {
            assert_eq!(
                first,
                Err(RtsError::LengthMismatch {
                    expected: 2,
                    got: 3
                })
            );
            assert_eq!(after, 3.0);
        }
    }

    /// Block until `n` ranks are parked in `ep`'s rendezvous.
    fn wait_until_parked(ep: &Endpoint, n: usize) {
        while ep.membership().rendezvous().lock().parked < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn rendezvous_mark_dead_releases_parked_survivors() {
        // Ranks 0–2 park waiting for rank 3, which never arrives:
        // confirming its death completes the round over the survivors.
        let results = run_bounded(4, Duration::from_secs(30), |ep| {
            if ep.rank() == 3 {
                wait_until_parked(&ep, 3);
                ep.membership().mark_dead(3);
                return None;
            }
            let sum = ep.allreduce_scalar(ep.rank() as f64 + 1.0, ReduceOp::Sum);
            ep.barrier();
            Some(sum.unwrap())
        });
        assert_eq!(results, vec![Some(6.0), Some(6.0), Some(6.0), None]);
    }

    #[test]
    fn rendezvous_ignores_a_dead_ranks_slot() {
        // Ranks 1–3 contribute and park; rank 0 then confirms rank 3
        // dead and arrives, so the round folds ranks 0–2 only.
        let results = run_bounded(4, Duration::from_secs(30), |ep| {
            if ep.rank() == 0 {
                wait_until_parked(&ep, 3);
                ep.membership().mark_dead(3);
            }
            let mine = if ep.rank() == 3 {
                1000.0
            } else {
                ep.rank() as f64 + 1.0
            };
            ep.allreduce_scalar(mine, ReduceOp::Sum)
        });
        assert_eq!(results, vec![Ok(6.0); 4]);
    }

    #[test]
    fn rendezvous_broadcast_dead_root_releases_survivors() {
        // Ranks 1 and 2 park waiting for root 0's payload, which never
        // comes: confirming the root dead releases both with the same
        // error, and the survivors can broadcast from another root.
        let results = run_bounded(3, Duration::from_secs(30), |ep| {
            if ep.rank() == 0 {
                wait_until_parked(&ep, 2);
                ep.membership().mark_dead(0);
                return None;
            }
            let lost = ep.broadcast(0, None);
            let data = (ep.rank() == 1).then(|| Bytes::from_static(b"again"));
            let again = ep.broadcast(1, data);
            Some((lost, again))
        });
        assert!(results[0].is_none());
        for (rank, r) in results.iter().enumerate().skip(1) {
            let (lost, again) = r.clone().unwrap();
            assert_eq!(lost, Err(RtsError::DeadRank { rank: 0 }), "rank {rank}");
            assert_eq!(again, Ok(Bytes::from_static(b"again")), "rank {rank}");
        }
    }

    #[test]
    fn rendezvous_gather_bytes_root_survives_a_dead_peer() {
        // Root 0 and rank 1 park waiting for rank 2's chunk, which never
        // comes: confirming rank 2 dead completes the gather over the
        // survivors, with an empty chunk for it, and they gather again.
        let results = run_bounded(3, Duration::from_secs(30), |ep| {
            if ep.rank() == 2 {
                wait_until_parked(&ep, 2);
                ep.membership().mark_dead(2);
                return None;
            }
            let mine = Bytes::from(vec![ep.rank() as u8; 4]);
            let first = ep.gather_bytes(0, mine.clone());
            let again = ep.gather_bytes(0, mine);
            Some((first, again))
        });
        let want = Some(vec![
            Bytes::from(vec![0u8; 4]),
            Bytes::from(vec![1u8; 4]),
            Bytes::new(),
        ]);
        assert_eq!(results[0], Some((Ok(want.clone()), Ok(want))));
        assert_eq!(results[1], Some((Ok(None), Ok(None))));
        assert!(results[2].is_none());
    }

    #[test]
    fn rendezvous_gather_frames_shares_segments_and_survives_a_dead_peer() {
        // Every rank lends two segments; the root gets them as they were
        // (the same storage) and relays the joined frame, by refcount.
        // Rank 2 then dies while the others wait for its frame: the
        // gather completes over the survivors with an empty frame for it.
        let results = run_bounded(3, Duration::from_secs(30), |ep| {
            let rank = ep.rank() as u8;
            let mine: Frame = [vec![rank; 4], vec![rank + 10; 2]]
                .into_iter()
                .map(Bytes::from)
                .collect();
            let ptrs: Vec<usize> = mine.segments().map(|s| s.as_ptr() as usize).collect();
            let gathered = ep.gather_frames(0, mine).unwrap();
            let joined = gathered.as_ref().map(|frames| {
                let mut all = Frame::new();
                frames.iter().for_each(|f| all.extend(f));
                all
            });
            let relayed = ep.broadcast_frame(0, joined).unwrap();
            let lent = relayed
                .segments()
                .skip(2 * ep.rank())
                .take(2)
                .map(|s| s.as_ptr() as usize)
                .collect::<Vec<_>>();
            assert_eq!(lent, ptrs, "rank {rank}'s segments were copied");
            if ep.rank() == 2 {
                wait_until_parked(&ep, 2);
                ep.membership().mark_dead(2);
                return None;
            }
            let after = ep.gather_frames(0, Frame::from(vec![rank; 3])).unwrap();
            Some((relayed.to_vec(), after))
        });
        let want: Vec<u8> = (0..3u8)
            .flat_map(|r| [vec![r; 4], vec![r + 10; 2]].concat())
            .collect();
        let after = vec![
            Frame::from(vec![0u8; 3]),
            Frame::from(vec![1u8; 3]),
            Frame::new(),
        ];
        assert_eq!(results[0], Some((want.clone(), Some(after))));
        assert_eq!(results[1], Some((want, None)));
        assert!(results[2].is_none());
    }

    #[test]
    fn rendezvous_alltoallv_peers_survive_a_dead_peer() {
        // Ranks 0 and 1 park waiting for rank 2's row, which never
        // comes: confirming rank 2 dead completes the exchange over the
        // survivors, with an empty chunk from it, and they exchange
        // again.
        let results = run_bounded(3, Duration::from_secs(30), |ep| {
            if ep.rank() == 2 {
                wait_until_parked(&ep, 2);
                ep.membership().mark_dead(2);
                return None;
            }
            let row = |k: u8| -> Vec<Bytes> {
                (0..3u8)
                    .map(|to| Bytes::from(vec![k, ep.rank() as u8, to]))
                    .collect()
            };
            let first = ep.alltoallv_bytes(row(1));
            let again = ep.alltoallv_bytes(row(2));
            Some((first, again))
        });
        for (rank, r) in results.iter().enumerate().take(2) {
            let (first, again) = r.clone().unwrap();
            for (k, got) in [(1u8, first), (2, again)] {
                let want: Vec<Bytes> = (0..2u8)
                    .map(|from| Bytes::from(vec![k, from, rank as u8]))
                    .chain([Bytes::new()])
                    .collect();
                assert_eq!(got, Ok(want), "rank {rank}, exchange {k}");
            }
        }
        assert!(results[2].is_none());
    }

    #[test]
    fn rendezvous_recv_from_a_dead_rank_returns_after_its_messages() {
        let sent = Arc::new(std::sync::Barrier::new(2));
        let results = run_bounded(2, Duration::from_secs(30), move |ep| {
            if ep.rank() == 1 {
                ep.send(0, 5, Bytes::from_static(b"first")).unwrap();
                ep.send(0, 5, Bytes::from_static(b"second")).unwrap();
                sent.wait();
                // Give rank 0 time to block in its third receive.
                std::thread::sleep(Duration::from_millis(50));
                ep.membership().mark_dead(1);
                return Vec::new();
            }
            let first = ep.recv(1, 5);
            sent.wait();
            // The second message was sent before the death, the third
            // receive blocks until the death wakes it, and the fourth
            // finds the rank dead at once.
            vec![first, ep.recv(1, 5), ep.recv(1, 5), ep.recv(1, 5)]
        });
        let dead = Err(RtsError::DeadRank { rank: 1 });
        let want = [
            Ok(Bytes::from_static(b"first")),
            Ok(Bytes::from_static(b"second")),
            dead.clone(),
            dead,
        ];
        assert_eq!(results[0], want);
    }
}
