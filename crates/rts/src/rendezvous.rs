//! The domain's shared-memory rendezvous: barrier and allreduce in one
//! round.
//!
//! The ranks of a domain are threads of one process, so a collective
//! that only has to combine a few words needs no messages. Each rank
//! writes its contribution into its own slot and marks itself arrived;
//! the last live rank to arrive folds the live slots **in rank order**
//! (so the result is bit-for-bit the same whatever the arrival order),
//! bumps the generation counter and wakes the rest. A barrier is a
//! rendezvous with an empty contribution.
//!
//! Waiters spin briefly on the generation, then yield, then park on a
//! condition variable (see [`SPINS`] and [`YIELDS`]).
//!
//! Membership: the dead mask is read whenever a rank arrives or
//! re-checks, and a round completes once every rank that is live *at
//! that moment* has arrived. Confirming a death wakes parked waiters
//! ([`Rendezvous::wake`]), so they re-check against the smaller live
//! set; a dead rank's slot is never folded.

use crate::collectives::live;
use crate::error::{RtsError, RtsResult};
use crate::reduce::ReduceOp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

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

/// One rendezvous per domain, shared by every rank.
#[derive(Debug)]
pub(crate) struct Rendezvous {
    state: Mutex<Round>,
    wakeup: Condvar,
    /// `Round::gen`, readable without the lock so waiters can spin. The
    /// folder stores it with `Release` after the fold, under the lock
    /// every rank arrived through; a waiter's `Acquire` load that sees
    /// the new value therefore also sees every rank's writes from
    /// before its arrival.
    gen: AtomicU64,
}

#[derive(Debug)]
struct Round {
    /// Rounds completed so far.
    gen: u64,
    /// Which ranks have contributed to the open round.
    arrived: Vec<bool>,
    /// Each rank's contribution to the open round, and its operator.
    slots: Vec<(Vec<f64>, ReduceOp)>,
    /// Outcome of the last completed round.
    result: RtsResult<Vec<f64>>,
    /// Waiters blocked on `wakeup`.
    parked: usize,
}

impl Round {
    /// Fold the open round if every live rank has arrived.
    fn try_complete(&mut self, dead: u64) -> bool {
        let size = self.arrived.len();
        if !(0..size).all(|r| self.arrived[r] || !live(dead, r)) {
            return false;
        }
        // Reuse the previous result's buffer.
        let mut acc = std::mem::replace(&mut self.result, Ok(Vec::new())).unwrap_or_default();
        acc.clear();
        let mut live_ranks = (0..size).filter(|&r| live(dead, r));
        let folded = match live_ranks.next() {
            None => Ok(()),
            Some(first) => {
                let (slot, op) = &self.slots[first];
                acc.extend_from_slice(slot);
                live_ranks.try_for_each(|r| op.fold_into(&mut acc, &self.slots[r].0))
            }
        };
        self.result = folded.map(|()| acc);
        self.arrived.iter_mut().for_each(|a| *a = false);
        self.gen += 1;
        true
    }
}

impl Rendezvous {
    /// A rendezvous for an `n`-rank domain.
    pub(crate) fn new(n: usize) -> Rendezvous {
        Rendezvous {
            state: Mutex::new(Round {
                gen: 0,
                arrived: vec![false; n],
                slots: vec![(Vec::new(), ReduceOp::Sum); n],
                result: Ok(Vec::new()),
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

    /// Contribute `local` (folded with `op`) for `rank` and wait until
    /// every live rank has contributed. `dead` reads the membership's
    /// current dead mask. With `out`, the rank-order fold of the live
    /// contributions is copied into it; every rank gets the same
    /// result, or the same [`RtsError::LengthMismatch`].
    ///
    /// Returns [`RtsError::DeadRank`] if the others completed further
    /// rounds without this rank, i.e. it was confirmed dead while it
    /// waited and the round's result is gone.
    pub(crate) fn round(
        &self,
        rank: usize,
        local: &[f64],
        op: ReduceOp,
        dead: impl Fn() -> u64,
        out: Option<&mut Vec<f64>>,
    ) -> RtsResult<()> {
        let mut round = self.lock();
        let gen = round.gen;
        let (slot, slot_op) = &mut round.slots[rank];
        slot.clear();
        slot.extend_from_slice(local);
        *slot_op = op;
        round.arrived[rank] = true;
        if round.try_complete(dead()) {
            self.publish(&round);
        } else {
            drop(round);
            if self.spin_then_yield(gen) && out.is_none() {
                return Ok(());
            }
            round = self.lock();
            while round.gen == gen {
                if round.try_complete(dead()) {
                    self.publish(&round);
                    break;
                }
                round.parked += 1;
                round = self.wakeup.wait(round).unwrap_or_else(|e| e.into_inner());
                round.parked -= 1;
            }
        }
        let Some(out) = out else {
            return Ok(());
        };
        if round.gen != gen + 1 {
            return Err(RtsError::DeadRank { rank });
        }
        let result = round.result.as_ref().map_err(Clone::clone)?;
        out.clear();
        out.extend_from_slice(result);
        Ok(())
    }

    /// Wait for the generation to move past `gen` without the lock:
    /// spin, then yield. Returns whether it moved; the caller parks if
    /// it has not.
    fn spin_then_yield(&self, gen: u64) -> bool {
        let moved = || self.gen.load(Ordering::Acquire) != gen;
        for _ in 0..SPINS {
            if moved() {
                return true;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if moved() {
                return true;
            }
            std::thread::yield_now();
        }
        moved()
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
}
