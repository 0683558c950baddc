//! SPMD membership: who is alive, and since when.
//!
//! The paper's delivery contract — a request is satisfied only when
//! delivered to *all* computing threads (§3.2) — makes a permanently
//! dead rank fatal unless the domain can agree on a smaller set of
//! participants. [`Membership`] is that agreement: a domain-shared,
//! lock-free record of which ranks are confirmed dead, versioned by a
//! monotonically increasing **epoch**. Collectives consult the dead
//! mask once per call and complete over the survivor set; when the mask
//! is zero (the default, and the only state a healthy domain ever
//! sees), every code path is identical to the pre-membership runtime —
//! zero overhead on the hot path.
//!
//! Dead ranks are *promoted*, never resurrected: a rank that has been
//! confirmed dead stays dead for the life of the domain, and each
//! confirmation bumps the epoch. Rank 0 — the communicating thread in
//! the ORB layer above — is assumed to survive; its death is machine
//! death, not degraded operation (documented limitation).
//!
//! Confirmation comes from one of two sources:
//!
//! * a **scheduled death** (`pardis-net`'s `ThreadDeath` fault): every
//!   rank reads the same seeded plan and applies it at the same logical
//!   step, so replay is bit-for-bit;
//! * the [`PhiDetector`]: a seeded, deterministic, logical-step-driven
//!   accrual failure detector in the spirit of Hayashibara's φ
//!   detector, for silence that was not scheduled. It is driven by
//!   steps, not wall clock, so the same heartbeat trace always yields
//!   the same suspicion curve.

use crate::endpoint::Letter;
use crate::rendezvous::Rendezvous;
use crossbeam::channel::Sender;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest domain the membership bitmask can track.
pub const MAX_RANKS: usize = 64;

/// A point-in-time snapshot of the membership state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipView {
    /// Epoch at the time of the snapshot. Starts at 0; each confirmed
    /// death increments it.
    pub epoch: u64,
    /// Bitmask of confirmed-dead ranks (bit `r` = rank `r` dead).
    pub dead_mask: u64,
}

impl MembershipView {
    /// Whether `rank` is confirmed dead in this view.
    pub fn is_dead(&self, rank: usize) -> bool {
        rank < MAX_RANKS && self.dead_mask & (1u64 << rank) != 0
    }

    /// The ranks still alive, ascending, out of a domain of `size`.
    pub fn survivors(&self, size: usize) -> Vec<usize> {
        (0..size).filter(|&r| !self.is_dead(r)).collect()
    }

    /// The confirmed-dead ranks, ascending, out of a domain of `size`.
    pub fn dead(&self, size: usize) -> Vec<usize> {
        (0..size).filter(|&r| self.is_dead(r)).collect()
    }
}

/// Domain-shared membership record. One per [`crate::Domain`], shared
/// by every [`crate::Endpoint`] through an `Arc`. It also holds the
/// domain's rendezvous, where every collective meets, and a sender to
/// every rank's inbox, so that confirming a death can wake the ranks
/// parked in the rendezvous or blocked in a receive.
#[derive(Debug)]
pub struct Membership {
    size: usize,
    epoch: AtomicU64,
    dead: AtomicU64,
    rendezvous: Rendezvous,
    /// Every rank's inbox; empty for a membership outside a domain.
    pub(crate) inboxes: Vec<Sender<Letter>>,
}

impl Membership {
    /// Fresh membership for an `n`-rank domain: everyone alive, epoch 0.
    pub fn new(size: usize) -> Membership {
        Membership {
            size,
            epoch: AtomicU64::new(0),
            dead: AtomicU64::new(0),
            rendezvous: Rendezvous::new(size),
            inboxes: Vec::new(),
        }
    }

    /// The domain's rendezvous.
    pub(crate) fn rendezvous(&self) -> &Rendezvous {
        &self.rendezvous
    }

    /// Domain size this membership tracks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current epoch (0 until the first confirmed death).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Current dead mask; 0 means a fully healthy domain.
    #[inline]
    pub fn dead_mask(&self) -> u64 {
        self.dead.load(Ordering::Acquire)
    }

    /// Whether `rank` is confirmed dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.view().is_dead(rank)
    }

    /// Consistent snapshot of `(epoch, dead_mask)`.
    pub fn view(&self) -> MembershipView {
        // Read epoch after the mask: mark_dead stores the mask first,
        // so an epoch observed here is never newer than the mask.
        let dead_mask = self.dead.load(Ordering::Acquire);
        let epoch = self.epoch.load(Ordering::Acquire);
        MembershipView { epoch, dead_mask }
    }

    /// Confirm `rank` dead, bumping the epoch if it was alive until
    /// now, and wake the ranks parked in the rendezvous or blocked in a
    /// receive so they stop waiting for it. Returns the epoch in force
    /// after the call. Idempotent — every rank of the domain applies the
    /// same verdict, and only the first application bumps the epoch.
    ///
    /// Ranks outside the `u64` mask (>= [`MAX_RANKS`]) and out-of-range
    /// ranks are ignored.
    pub fn mark_dead(&self, rank: usize) -> u64 {
        if rank >= self.size || rank >= MAX_RANKS {
            return self.epoch();
        }
        let bit = 1u64 << rank;
        let prev = self.dead.fetch_or(bit, Ordering::AcqRel);
        if prev & bit == 0 {
            let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            self.rendezvous.wake();
            for inbox in &self.inboxes {
                // A send fails only once the rank's endpoint is gone,
                // and then nobody is blocked on its inbox.
                let _ = inbox.send(None);
            }
            epoch
        } else {
            self.epoch()
        }
    }

    /// The ranks still alive, ascending.
    pub fn survivors(&self) -> Vec<usize> {
        self.view().survivors(self.size)
    }

    /// Number of live ranks.
    pub fn live_count(&self) -> usize {
        self.size - (self.dead_mask().count_ones() as usize).min(self.size)
    }
}

/// Liveness verdict of the [`PhiDetector`] for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeats are arriving at the expected cadence.
    Alive,
    /// Suspiciously silent (φ past the suspicion threshold) but not yet
    /// condemned.
    Suspected,
    /// Silent past the confirmation threshold: promote to dead.
    ConfirmedDead,
}

#[derive(Debug, Clone, Copy)]
struct RankHealth {
    /// Step of the most recent heartbeat; `None` before the first.
    last: Option<u64>,
    /// Exponentially weighted mean inter-heartbeat interval, in steps.
    mean_interval: f64,
}

/// A seeded, deterministic, step-driven accrual failure detector.
///
/// φ for a rank is the elapsed logical time since its last heartbeat,
/// measured in units of its observed mean heartbeat interval. Crossing
/// [`PhiDetector::suspect_threshold`] makes the rank `Suspected`;
/// crossing twice that confirms it dead. Because the clock is a logical
/// step counter supplied by the caller — not wall time — the same
/// heartbeat trace always produces the same verdicts, which is what
/// lets chaos tests replay bit-for-bit from a seed.
///
/// The seed deterministically staggers each rank's *initial* interval
/// estimate (before any heartbeats arrive), so a freshly started domain
/// does not condemn every quiet rank on the same step — mirroring the
/// per-flow jitter of the `pardis-net` fault scheduler.
#[derive(Debug)]
pub struct PhiDetector {
    threshold: f64,
    ranks: Vec<RankHealth>,
}

/// SplitMix64 finalizer — same mixer as the `pardis-net` fault layer,
/// reimplemented here so `pardis-rts` keeps zero workspace
/// dependencies.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl PhiDetector {
    /// Default suspicion threshold, in mean-interval units.
    pub const DEFAULT_THRESHOLD: f64 = 8.0;

    /// Detector for `size` ranks. `seed` staggers the initial interval
    /// estimates deterministically.
    pub fn new(seed: u64, size: usize) -> PhiDetector {
        PhiDetector::with_threshold(seed, size, PhiDetector::DEFAULT_THRESHOLD)
    }

    /// Detector with an explicit suspicion threshold (confirmation is
    /// always at twice the suspicion threshold).
    pub fn with_threshold(seed: u64, size: usize, threshold: f64) -> PhiDetector {
        let ranks = (0..size)
            .map(|r| RankHealth {
                last: None,
                // 1.0 ± up to 1/8 of a step, as a pure function of
                // (seed, rank).
                mean_interval: 1.0 + (mix(seed ^ r as u64) % 256) as f64 / 2048.0,
            })
            .collect();
        PhiDetector { threshold, ranks }
    }

    /// The suspicion threshold in force.
    pub fn suspect_threshold(&self) -> f64 {
        self.threshold
    }

    /// Record a heartbeat from `rank` at logical `step`.
    pub fn heartbeat(&mut self, rank: usize, step: u64) {
        let Some(h) = self.ranks.get_mut(rank) else {
            return;
        };
        if let Some(last) = h.last {
            let interval = step.saturating_sub(last).max(1) as f64;
            // EWMA with alpha 1/4: stable cadence estimate, still
            // adapts if a rank legitimately slows down.
            h.mean_interval += (interval - h.mean_interval) / 4.0;
        }
        h.last = Some(h.last.map_or(step, |l| l.max(step)));
    }

    /// The accrual suspicion value for `rank` at logical `now`: elapsed
    /// steps since its last heartbeat, in mean-interval units.
    pub fn phi(&self, rank: usize, now: u64) -> f64 {
        let Some(h) = self.ranks.get(rank) else {
            return 0.0;
        };
        // Never heard from: measure from step 0 so a rank that was
        // dead on arrival is still condemned.
        let last = h.last.unwrap_or(0);
        now.saturating_sub(last) as f64 / h.mean_interval.max(1e-9)
    }

    /// Verdict for `rank` at logical `now`.
    pub fn status(&self, rank: usize, now: u64) -> Liveness {
        let phi = self.phi(rank, now);
        if phi >= self.threshold * 2.0 {
            Liveness::ConfirmedDead
        } else if phi >= self.threshold {
            Liveness::Suspected
        } else {
            Liveness::Alive
        }
    }

    /// Evaluate every rank at logical `now` and promote the confirmed
    /// dead into `membership`. Returns the ranks newly confirmed dead
    /// on this call, ascending.
    pub fn promote(&self, membership: &Membership, now: u64) -> Vec<usize> {
        let mut newly = Vec::new();
        for rank in 0..self.ranks.len() {
            if membership.is_dead(rank) {
                continue;
            }
            if self.status(rank, now) == Liveness::ConfirmedDead {
                membership.mark_dead(rank);
                newly.push(rank);
            }
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_membership_is_fully_live() {
        let m = Membership::new(4);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.dead_mask(), 0);
        assert_eq!(m.survivors(), vec![0, 1, 2, 3]);
        assert_eq!(m.live_count(), 4);
    }

    #[test]
    fn mark_dead_bumps_epoch_once() {
        let m = Membership::new(4);
        assert_eq!(m.mark_dead(2), 1);
        assert_eq!(m.mark_dead(2), 1); // idempotent
        assert_eq!(m.mark_dead(3), 2);
        assert!(m.is_dead(2));
        assert!(m.is_dead(3));
        assert!(!m.is_dead(0));
        assert_eq!(m.survivors(), vec![0, 1]);
        assert_eq!(m.view().dead(4), vec![2, 3]);
        assert_eq!(m.live_count(), 2);
    }

    #[test]
    fn out_of_range_ranks_ignored() {
        let m = Membership::new(2);
        assert_eq!(m.mark_dead(7), 0);
        assert_eq!(m.mark_dead(400), 0);
        assert_eq!(m.dead_mask(), 0);
    }

    #[test]
    fn view_is_consistent() {
        let m = Membership::new(3);
        m.mark_dead(1);
        let v = m.view();
        assert_eq!(v.epoch, 1);
        assert!(v.is_dead(1));
        assert_eq!(v.survivors(3), vec![0, 2]);
    }

    #[test]
    fn detector_keeps_heartbeating_rank_alive() {
        let mut d = PhiDetector::new(0xBEEF, 2);
        for step in 0..100 {
            d.heartbeat(0, step);
            d.heartbeat(1, step);
        }
        assert_eq!(d.status(0, 100), Liveness::Alive);
        assert_eq!(d.status(1, 100), Liveness::Alive);
        assert!(d.phi(0, 100) < d.suspect_threshold());
    }

    #[test]
    fn silence_escalates_to_suspected_then_confirmed() {
        let mut d = PhiDetector::new(0xBEEF, 2);
        for step in 0..20 {
            d.heartbeat(0, step);
            d.heartbeat(1, step);
        }
        // Rank 1 goes silent after step 19; rank 0 keeps beating.
        let mut suspected_at = None;
        let mut confirmed_at = None;
        for step in 20..120 {
            d.heartbeat(0, step);
            match d.status(1, step) {
                Liveness::Suspected if suspected_at.is_none() => suspected_at = Some(step),
                Liveness::ConfirmedDead if confirmed_at.is_none() => confirmed_at = Some(step),
                _ => {}
            }
        }
        let s = suspected_at.expect("silent rank suspected");
        let c = confirmed_at.expect("silent rank confirmed dead");
        assert!(s < c, "suspicion precedes confirmation: {s} vs {c}");
        assert_eq!(d.status(0, 119), Liveness::Alive);
    }

    #[test]
    fn detector_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut d = PhiDetector::new(seed, 3);
            let mut verdicts = Vec::new();
            for step in 0..60 {
                d.heartbeat(0, step);
                if step < 15 {
                    d.heartbeat(1, step);
                }
                // Rank 2 never beats.
                verdicts.push((
                    d.phi(1, step).to_bits(),
                    d.phi(2, step).to_bits(),
                    d.status(1, step),
                    d.status(2, step),
                ));
            }
            verdicts
        };
        assert_eq!(run(0x5EED), run(0x5EED), "same seed, same trace");
        // Different seeds stagger the initial estimates: the
        // never-heard-from rank's phi curve differs bit-for-bit.
        let a = run(1);
        let b = run(2);
        assert_ne!(
            a.iter().map(|v| v.1).collect::<Vec<_>>(),
            b.iter().map(|v| v.1).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn detector_over_endpoint_layer_degrades_domain() {
        // Full pipeline over the endpoint layer: every rank replicates
        // a seeded detector, heartbeat flags are disseminated with an
        // allgather each logical step, a rank that goes silent is
        // promoted to confirmed-dead on every rank at the same step,
        // its epoch is published, and the survivors' collectives and
        // barrier complete over the survivor set.
        use crate::{Domain, ReduceOp};
        use bytes::Bytes;
        const DYING: usize = 2;
        const SILENT_FROM: u64 = 10;
        let results = Domain::run(4, |ep| {
            let mut det = PhiDetector::with_threshold(0x0DD_BA11, ep.size(), 3.0);
            let mut confirmed_step = None;
            for step in 0..400u64 {
                let beat = !(ep.rank() == DYING && step >= SILENT_FROM);
                let flags = ep.allgather_u64(beat as u64).unwrap();
                for (r, &f) in flags.iter().enumerate() {
                    if f == 1 {
                        det.heartbeat(r, step);
                    }
                }
                // Every rank evaluates its own deterministic replica;
                // the shared membership is promoted idempotently (the
                // first caller bumps the epoch, the rest find the bit
                // already set — promote's `newly` is therefore racy
                // across ranks and must not drive control flow here).
                if det.status(DYING, step) == Liveness::ConfirmedDead {
                    det.promote(ep.membership(), step);
                    confirmed_step = Some(step);
                    break;
                }
            }
            let confirmed = confirmed_step.expect("silent rank confirmed in time");
            let epoch = ep.membership().epoch();
            if ep.rank() == DYING {
                // Condemned: leave the domain without touching the
                // survivors' collectives.
                return (epoch, confirmed, None);
            }
            let sum = ep
                .allreduce_scalar(ep.rank() as f64, ReduceOp::Sum)
                .unwrap();
            ep.barrier();
            let data = (ep.rank() == 0).then(|| Bytes::from_static(b"degraded"));
            let b = ep.broadcast(0, data).unwrap();
            (epoch, confirmed, Some((sum, b.to_vec())))
        });
        let confirmed0 = results[0].1;
        for (rank, (epoch, confirmed, survivor)) in results.into_iter().enumerate() {
            assert_eq!(epoch, 1, "one death, one epoch bump");
            assert_eq!(confirmed, confirmed0, "all ranks agree on the step");
            if rank == DYING {
                assert!(survivor.is_none());
            } else {
                let (sum, b) = survivor.unwrap();
                assert_eq!(sum, 0.0 + 1.0 + 3.0);
                assert_eq!(b, b"degraded");
            }
        }
    }

    #[test]
    fn promote_feeds_membership_epochs() {
        let m = Membership::new(3);
        let mut d = PhiDetector::with_threshold(7, 3, 4.0);
        for step in 0..10 {
            for r in 0..3 {
                d.heartbeat(r, step);
            }
        }
        // Rank 2 dies; the others keep beating until phi condemns it.
        let mut newly = Vec::new();
        for step in 10..200 {
            d.heartbeat(0, step);
            d.heartbeat(1, step);
            newly.extend(d.promote(&m, step));
        }
        assert_eq!(newly, vec![2]);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.survivors(), vec![0, 1]);
        // Re-promotion is a no-op (evaluated while 0 and 1 are still
        // fresh — at a far-future step they would be condemned too).
        assert!(d.promote(&m, 199).is_empty());
        assert_eq!(m.epoch(), 1);
    }
}
