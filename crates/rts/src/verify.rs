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
//! number) and the ranks agree on the fingerprint over a dedicated
//! reserved tag pair: rank 0 collects all fingerprints, compares them
//! against its own, and broadcasts a verdict. On divergence, every
//! rank returns [`RtsError::CollectiveMismatch`] naming the divergent
//! thread and both call sites.
//!
//! The agreement itself must not use the high-level collectives (they
//! would re-enter verification); it uses raw tagged sends on
//! [`tags::VERIFY`] / [`tags::VERDICT`].

use crate::endpoint::Endpoint;
use crate::error::{RtsError, RtsResult};
use crate::tags;
use bytes::Bytes;

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
    /// Agree with every other rank that this rank's next collective has
    /// fingerprint `fp`. Returns `Ok(())` when all ranks issued the
    /// same collective; [`RtsError::CollectiveMismatch`] on every rank
    /// when any rank diverged.
    ///
    /// Must be called by all ranks (it is itself a collective, built
    /// from raw sends so it cannot recurse into verification).
    pub fn agree_collective(&self, fp: &Fingerprint) -> RtsResult<()> {
        let seq = self.next_verify_seq();
        if self.rank() == 0 {
            // Collect every other rank's fingerprint and compare.
            let mut divergent: Option<(usize, String)> = None;
            for _ in 0..self.size() - 1 {
                let m = self.recv_filtered(|m| m.tag == tags::VERIFY)?;
                let (their_hash, their_seq, their_site) = decode_fingerprint(&m.payload)?;
                if (their_hash, their_seq) != (fp.hash, seq) && divergent.is_none() {
                    divergent = Some((m.from, their_site));
                }
            }
            // Broadcast the verdict.
            let verdict = match &divergent {
                None => encode_ok(),
                Some((rank, theirs)) => encode_mismatch(*rank, &fp.site, theirs),
            };
            for to in 1..self.size() {
                self.send_internal(to, tags::VERDICT, verdict.clone())?;
            }
            match divergent {
                None => Ok(()),
                Some((thread, theirs)) => Err(RtsError::CollectiveMismatch {
                    thread,
                    mine: fp.site.clone(),
                    theirs,
                }),
            }
        } else {
            self.send_internal(0, tags::VERIFY, encode_fingerprint(fp, seq))?;
            let m = self.recv_filtered(|m| m.from == 0 && m.tag == tags::VERDICT)?;
            decode_verdict(&m.payload)
        }
    }
}

fn encode_fingerprint(fp: &Fingerprint, seq: u64) -> Bytes {
    let mut out = Vec::with_capacity(16 + fp.site.len());
    out.extend_from_slice(&fp.hash.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(fp.site.as_bytes());
    Bytes::from(out)
}

fn decode_fingerprint(payload: &[u8]) -> RtsResult<(u64, u64, String)> {
    if payload.len() < 16 {
        return Err(RtsError::Internal(
            "short collective-verify fingerprint".into(),
        ));
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&payload[..8]);
    let hash = u64::from_le_bytes(a);
    a.copy_from_slice(&payload[8..16]);
    let seq = u64::from_le_bytes(a);
    let site = String::from_utf8_lossy(&payload[16..]).into_owned();
    Ok((hash, seq, site))
}

fn encode_ok() -> Bytes {
    Bytes::from_static(&[0])
}

fn encode_mismatch(rank: usize, reference: &str, divergent: &str) -> Bytes {
    let mut out = vec![1u8];
    out.extend_from_slice(&(rank as u64).to_le_bytes());
    out.extend_from_slice(&(reference.len() as u64).to_le_bytes());
    out.extend_from_slice(reference.as_bytes());
    out.extend_from_slice(divergent.as_bytes());
    Bytes::from(out)
}

fn decode_verdict(payload: &[u8]) -> RtsResult<()> {
    match payload.first() {
        Some(0) => Ok(()),
        Some(1) if payload.len() >= 17 => {
            let mut a = [0u8; 8];
            a.copy_from_slice(&payload[1..9]);
            let thread = u64::from_le_bytes(a) as usize;
            a.copy_from_slice(&payload[9..17]);
            let ref_len = u64::from_le_bytes(a) as usize;
            let rest = &payload[17..];
            let (reference, divergent) = if ref_len <= rest.len() {
                (
                    String::from_utf8_lossy(&rest[..ref_len]).into_owned(),
                    String::from_utf8_lossy(&rest[ref_len..]).into_owned(),
                )
            } else {
                (String::new(), String::new())
            };
            Err(RtsError::CollectiveMismatch {
                thread,
                mine: reference,
                theirs: divergent,
            })
        }
        _ => Err(RtsError::Internal(
            "malformed collective-verify verdict".into(),
        )),
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
    fn matching_fingerprints_agree() {
        let results = Domain::run(4, |ep| {
            for i in 0..3u64 {
                ep.agree_collective(&fp(0xAB00 + i, "op `step`")).unwrap();
            }
            true
        });
        assert_eq!(results, vec![true; 4]);
    }

    #[test]
    fn divergent_rank_is_named_on_every_thread() {
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
    fn mismatch_does_not_poison_later_collectives() {
        // After a detected mismatch every rank has consumed its verify
        // traffic; the domain stays usable.
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
    fn fnv1a_is_stable_and_order_sensitive() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let h = fnv1a_extend(fnv1a(b"op"), b"mode");
        assert_eq!(h, fnv1a(b"opmode"));
    }
}
