//! Per-rank causal stamps for happens-before analysis (the `analyze`
//! feature) and causal span ordering (the `obs` feature), and the last
//! membership epoch each rank has seen.
//!
//! Every live rank completes the same collectives in the same order
//! (paper §2.2), so the count of collectives completed — the
//! *generation* — agrees across ranks without any message. A rank's
//! [`Stamp`] is `(gen, tick)`: completing a collective bumps `gen` and
//! resets `tick`; an epoch crossing or a recorded access bumps `tick`.
//! This orders events exactly as a vector clock joined at every
//! collective would (DESIGN.md §11). The state is thread-local, one
//! rank per computing thread, and replays bit-for-bit.

use std::cell::Cell;

/// A rank's causal stamp. The derived order is the timeline order;
/// [`Stamp::leq`] is happens-before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stamp {
    /// Collectives this rank has completed.
    pub gen: u64,
    /// Local ordering events since the last completed collective.
    pub tick: u64,
}

impl Stamp {
    /// Whether `self`, taken on rank `origin`, happens-before-or-equals
    /// `other`, taken on rank `other_origin`. A tick-0 stamp is the
    /// generation's common start and precedes the whole generation.
    pub fn leq(self, origin: usize, other: Stamp, other_origin: usize) -> bool {
        self.gen < other.gen
            || (self.gen == other.gen
                && (self.tick == 0 || (origin == other_origin && self.tick <= other.tick)))
    }
}

thread_local! {
    /// The calling rank's stamp and the last membership epoch it saw.
    static WITNESS: Cell<(Stamp, u64)> = const { Cell::new((Stamp { gen: 0, tick: 0 }, 0)) };
}

/// The calling thread's stamp witness. Before the rank's first
/// collective, ticks and epochs are ignored and the snapshot is the
/// zero stamp, which orders before every other stamp.
pub struct ClockWitness;

impl ClockWitness {
    /// The calling thread's current stamp.
    pub fn snapshot() -> Stamp {
        WITNESS.get().0
    }

    /// Record one local ordering event.
    pub fn tick() {
        let (mut s, epoch) = WITNESS.get();
        s.tick += u64::from(s.gen > 0);
        WITNESS.set((s, epoch));
    }

    /// Observe the membership epoch; a change since the last
    /// observation ticks the stamp. Returns whether it crossed one.
    pub fn observe_epoch(epoch: u64) -> bool {
        let (mut s, last) = WITNESS.get();
        let crossed = s.gen > 0 && last != epoch;
        if crossed {
            s.tick += 1;
            WITNESS.set((s, epoch));
        }
        crossed
    }

    /// The last membership epoch the calling rank saw. Epochs start at
    /// 0 and each confirmed death bumps them by one, so this is also
    /// the number of membership changes the rank has moved through.
    pub fn epoch() -> u64 {
        WITNESS.get().1
    }

    /// Complete a collective under membership `epoch`: advance to the
    /// next generation.
    pub(crate) fn complete_collective(epoch: u64) {
        let (mut s, _) = WITNESS.get();
        s.gen += 1;
        s.tick = 0;
        WITNESS.set((s, epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, ReduceOp};
    use bytes::Bytes;
    use proptest::prelude::*;

    fn st(gen: u64, tick: u64) -> Stamp {
        Stamp { gen, tick }
    }

    #[test]
    fn completing_a_collective_is_the_join() {
        ClockWitness::complete_collective(0);
        ClockWitness::tick();
        ClockWitness::tick();
        assert_eq!(ClockWitness::snapshot(), st(1, 2));
        // An epoch crossing is remembered; the new generation absorbs it.
        ClockWitness::complete_collective(2);
        assert_eq!(ClockWitness::snapshot(), st(2, 0));
        assert_eq!(ClockWitness::epoch(), 2);
    }

    #[test]
    fn leq_orders_clocks() {
        // An earlier generation precedes everything later, on any rank.
        assert!(st(1, 5).leq(0, st(2, 0), 1));
        assert!(!st(2, 0).leq(1, st(1, 5), 0));
        // Same generation: the common start precedes every rank; own
        // ticks are ordered, other ranks' ticks are concurrent.
        assert!(st(2, 0).leq(0, st(2, 3), 1));
        assert!(st(2, 1).leq(1, st(2, 3), 1));
        assert!(!st(2, 3).leq(1, st(2, 1), 1));
        assert!(!st(2, 1).leq(0, st(2, 3), 1));
    }

    #[test]
    fn zero_stamp_orders_before_every_stamp() {
        ClockWitness::tick(); // ignored before the first collective
        assert!(!ClockWitness::observe_epoch(3));
        assert_eq!(ClockWitness::snapshot(), Stamp::default());
        for other in [st(0, 0), st(7, 0), st(7, 2)] {
            assert!(Stamp::default().leq(0, other, 3));
        }
    }

    #[test]
    fn collectives_advance_all_components() {
        let results = Domain::run(3, |ep| {
            ep.barrier();
            let _ = ep.allreduce_scalar(1.0, ReduceOp::Sum).unwrap();
            ep.barrier();
            ClockWitness::snapshot()
        });
        // barrier + (reduce→broadcast) + barrier: generation 3 on
        // every rank.
        assert_eq!(results, vec![st(3, 0); 3]);
    }

    #[test]
    fn clocks_replay_deterministically() {
        let run = || {
            Domain::run(2, |ep| {
                for _ in 0..5 {
                    ep.barrier();
                }
                let _ = ep
                    .broadcast(0, (ep.rank() == 0).then(|| Bytes::from_static(b"x")))
                    .unwrap();
                ClockWitness::snapshot()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epoch_change_ticks_clock() {
        let results = Domain::run(2, |ep| {
            ep.barrier();
            let before = ClockWitness::snapshot();
            // Observe a synthetic epoch bump without a collective.
            ClockWitness::observe_epoch(ep.membership().epoch() + 1);
            (before, ClockWitness::snapshot())
        });
        for (before, after) in results {
            assert_eq!(after, st(before.gen, before.tick + 1));
        }
    }

    /// One step of an SPMD schedule: every rank completes a collective
    /// (0), rank `r` records an access (1), or the epoch moves on and
    /// the ranks in `mask` observe it now, the rest at their next
    /// collective (2).
    type Op = (u8, usize, u8);

    /// The reference the stamps replace: a vector clock per rank
    /// (`None` before its first collective) and its last epoch, ticked
    /// and joined at every collective. Every rank's clock after every
    /// step.
    fn reference(n: usize, ops: &[Op]) -> Vec<Vec<Vec<u64>>> {
        let mut ranks: Vec<(Option<Vec<u64>>, u64)> = vec![(None, 0); n];
        let (mut epoch, mut out) = (0, vec![Vec::new(); n]);
        for &(kind, r, mask) in ops {
            if kind == 0 {
                let mut join = vec![0; n];
                for (me, (clock, last)) in ranks.iter_mut().enumerate() {
                    let c = clock.get_or_insert_with(|| vec![0; n]);
                    c[me] += 1 + u64::from(*last != epoch);
                    *last = epoch;
                    join.iter_mut()
                        .zip(c.iter())
                        .for_each(|(j, &v)| *j = v.max(*j));
                }
                ranks.iter_mut().for_each(|(c, _)| *c = Some(join.clone()));
            } else if kind == 1 {
                if let Some(c) = &mut ranks[r].0 {
                    c[r] += 1;
                }
            } else {
                epoch += 1;
                for (me, (clock, last)) in ranks.iter_mut().enumerate() {
                    if let (Some(c), true) = (clock, mask >> me & 1 == 1) {
                        c[me] += 1;
                        *last = epoch;
                    }
                }
            }
            for (me, (clock, _)) in ranks.iter().enumerate() {
                out[me].push(clock.clone().unwrap_or_default());
            }
        }
        out
    }

    /// Run `ops` with the real witness on rank `me`'s own thread, which
    /// sees no other rank's state: its stamp after every step.
    fn witnessed(me: usize, ops: Vec<Op>) -> Vec<Stamp> {
        let rank_step = move || {
            let mut epoch = 0;
            let step = |&(kind, r, mask): &Op| {
                match kind {
                    0 => ClockWitness::complete_collective(epoch),
                    1 if r == me => ClockWitness::tick(),
                    1 => {}
                    _ => {
                        epoch += 1;
                        if mask >> me & 1 == 1 {
                            ClockWitness::observe_epoch(epoch);
                        }
                    }
                }
                ClockWitness::snapshot()
            };
            ops.iter().map(step).collect()
        };
        std::thread::spawn(rank_step).join().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stamps_order_like_the_exchanged_vector_clock(
            n in 2usize..5,
            raw in prop::collection::vec((0u8..10, 0usize..4, any::<u8>()), 0..40),
        ) {
            let ops: Vec<Op> = raw
                .iter()
                .map(|&(k, r, mask)| (u8::from(k > 2) + u8::from(k > 7), r % n, mask))
                .collect();
            // Every (rank, stamp, reference clock) sample of the run.
            let samples: Vec<(usize, Stamp, Vec<u64>)> = reference(n, &ops)
                .into_iter()
                .enumerate()
                .flat_map(|(me, clocks)| {
                    let stamps = witnessed(me, ops.clone());
                    stamps.into_iter().zip(clocks).map(move |(s, c)| (me, s, c))
                })
                .collect();
            for (ra, sa, ca) in &samples {
                for (rb, sb, cb) in &samples {
                    // Missing components (an empty clock) count as 0.
                    let reference_leq =
                        ca.iter().enumerate().all(|(i, &c)| c <= cb.get(i).map_or(0, |&v| v));
                    prop_assert_eq!(sa.leq(*ra, *sb, *rb), reference_leq, "{:?} {:?}", ca, cb);
                }
            }
            let sum = |i: usize| samples[i].2.iter().sum::<u64>();
            let mut by_stamp: Vec<usize> = (0..samples.len()).collect();
            let mut by_sum = by_stamp.clone();
            by_stamp.sort_by_key(|&i| (samples[i].1, samples[i].0, i));
            by_sum.sort_by_key(|&i| (sum(i), samples[i].0, i));
            prop_assert_eq!(by_stamp, by_sum);
        }
    }
}
