//! Collective-consistency verification (the `analyze` feature).
//!
//! After `_spmd_bind`, every invocation on a distributed object must be
//! issued by **all** computing threads, in the same order, with the
//! same distribution templates (paper §2.2). A thread that diverges —
//! calls a different operation, skips one, or passes a differently
//! distributed argument — leaves the others blocked inside a gather or
//! barrier forever: a silent deadlock.
//!
//! This module turns that deadlock into a typed error. Before the
//! collective part of an invocation runs, every rank fingerprints its
//! call site (operation, transfer mode, argument shapes, sequence
//! number) and deposits the fingerprint in one round of the domain's
//! rendezvous. Every rank then compares the same slots and reaches the
//! same verdict: on divergence, every rank returns
//! [`RtsError::CollectiveMismatch`] naming the lowest-ranked divergent
//! thread and both call sites.
//!
//! The agreement is not counted as a collective
//! ([`Endpoint::collectives_completed`]): it guards the collectives, it
//! is not one of the program's.

use crate::endpoint::Endpoint;
use crate::error::{RtsError, RtsResult};
use crate::rendezvous::Slot;

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extend an FNV-1a hash with `bytes`.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a byte string from the offset basis.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// One rank's view of a collective call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hash over everything that must agree (op id, mode, template
    /// hashes, payload length class, ...).
    pub hash: u64,
    /// Human-readable call-site description for the mismatch report,
    /// e.g. ``op 3 `diffusion` mode=Distributed len_class=10``.
    pub site: String,
}

impl Endpoint {
    /// Agree with every other live rank that this rank's next
    /// collective has fingerprint `fp`. Returns `Ok(())` when all ranks
    /// issued the same collective; [`RtsError::CollectiveMismatch`] on
    /// every rank when any rank diverged, naming the lowest-ranked rank
    /// whose fingerprint differs from the lowest live rank's.
    ///
    /// Must be called by all ranks (it is itself a round of the
    /// rendezvous, outside the verified collectives).
    pub fn agree_collective(&self, fp: &Fingerprint) -> RtsResult<()> {
        let slot = Slot::Print(fp.clone(), self.next_verify_seq());
        let read = |outcome: &[Slot]| {
            let mut prints = outcome
                .iter()
                .enumerate()
                .filter_map(|(r, slot)| match slot {
                    Slot::Print(fp, seq) => Some((r, fp, *seq)),
                    _ => None,
                });
            let Some((_, reference, seq)) = prints.next() else {
                return Ok(());
            };
            match prints.find(|(_, fp, s)| (fp.hash, *s) != (reference.hash, seq)) {
                None => Ok(()),
                Some((thread, theirs, _)) => Err(RtsError::CollectiveMismatch {
                    thread,
                    mine: reference.site.clone(),
                    theirs: theirs.site.clone(),
                }),
            }
        };
        self.membership()
            .rendezvous()
            .round(self.rank(), slot, || self.dead_mask(), read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn fp(hash: u64, site: &str) -> Fingerprint {
        Fingerprint {
            hash,
            site: site.to_string(),
        }
    }

    #[test]
    fn rendezvous_verify_matching_fingerprints_agree() {
        let results = Domain::run(4, |ep| {
            for i in 0..3u64 {
                ep.agree_collective(&fp(0xAB00 + i, "op `step`")).unwrap();
            }
            true
        });
        assert_eq!(results, vec![true; 4]);
    }

    #[test]
    fn rendezvous_verify_names_the_divergent_rank_on_every_thread() {
        let results = Domain::run(3, |ep| {
            let f = if ep.rank() == 2 {
                fp(0xBAD, "op 9 `reset`")
            } else {
                fp(0x600D, "op 4 `step`")
            };
            ep.agree_collective(&f)
        });
        for r in &results {
            match r {
                Err(RtsError::CollectiveMismatch {
                    thread,
                    mine,
                    theirs,
                }) => {
                    assert_eq!(*thread, 2);
                    assert!(mine.contains("step"), "{mine}");
                    assert!(theirs.contains("reset"), "{theirs}");
                }
                other => panic!("expected CollectiveMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn rendezvous_verify_mismatch_does_not_poison_later_collectives() {
        // After a detected mismatch the domain stays usable.
        let results = Domain::run(2, |ep| {
            let f = if ep.rank() == 0 {
                fp(1, "a")
            } else {
                fp(2, "b")
            };
            assert!(ep.agree_collective(&f).is_err());
            ep.agree_collective(&fp(3, "c")).is_ok()
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn rendezvous_verify_names_the_lowest_divergent_rank() {
        // Ranks 3 and 1 both diverge from rank 0; whatever the arrival
        // order, every rank names rank 1.
        for _ in 0..50 {
            let results = Domain::run(4, |ep| {
                let f = match ep.rank() {
                    1 => fp(0xB1, "op 1 `one`"),
                    3 => fp(0xB3, "op 3 `three`"),
                    _ => fp(0x600D, "op 0 `step`"),
                };
                ep.agree_collective(&f)
            });
            for r in results {
                assert_eq!(
                    r,
                    Err(RtsError::CollectiveMismatch {
                        thread: 1,
                        mine: "op 0 `step`".into(),
                        theirs: "op 1 `one`".into(),
                    })
                );
            }
        }
    }

    #[test]
    fn rendezvous_verify_completes_over_survivors() {
        // Rank 2 is confirmed dead before the agreement: the survivors
        // agree without it.
        let results = Domain::run(3, |ep| {
            ep.barrier();
            ep.membership().mark_dead(2);
            if ep.rank() == 2 {
                return None;
            }
            Some(ep.agree_collective(&fp(7, "op 7 `seven`")))
        });
        assert_eq!(results, vec![Some(Ok(())), Some(Ok(())), None]);
    }

    #[test]
    fn fnv1a_is_stable_and_order_sensitive() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let h = fnv1a_extend(fnv1a(b"op"), b"mode");
        assert_eq!(h, fnv1a(b"opmode"));
    }
}
