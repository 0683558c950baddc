//! # pardis-rts — the PARDIS generic run-time system interface
//!
//! PARDIS does not talk to a parallel application's computing threads
//! directly; it goes through a *generic run-time system interface* that
//! "encompasses the functionality of message-passing libraries" (§2.3 of
//! the paper — tested there against MPI and Tulip). This crate is that
//! interface plus an in-process implementation: a [`Domain`] of `n`
//! ranks, each an OS thread holding an [`Endpoint`], communicating over
//! lock-free channels — the moral equivalent of MPICH compiled for
//! shared memory, which is exactly how the paper ran its client and
//! server machines.
//!
//! The interface surface is deliberately MPI-shaped:
//!
//! * point-to-point [`Endpoint::send`] / [`Endpoint::recv`] with
//!   `(source, tag)` matching,
//! * collectives: barrier, broadcast, gather(v), scatter(v), allgather,
//!   allreduce, alltoallv,
//! * barrier and allreduce meet in one shared-memory rendezvous per
//!   domain: each rank fills its slot, the last live rank to arrive
//!   folds the slots in rank order and wakes the rest (one round, no
//!   messages),
//! * [`Endpoint::gather_into`] meets there too: the root posts a frame
//!   buffer (`pardis_cdr::SlottedBuf`) and every rank packs its own
//!   block into its own slot of it, in place and in parallel,
//! * the collectives that move data (broadcast, gather, scatter,
//!   allgather, alltoallv) use linear (root-relayed) algorithms,
//!   matching mid-90s MPICH behaviour on small SMPs. The ORB's
//!   centralized method packs through `gather_into` and uses only the
//!   broadcast among these, to relay the one received frame, from
//!   which every thread reads its own block. Table 1's shape
//!   (gather/scatter cost growing with thread count) is reproduced by
//!   `pardis-sim`.
//!
//! Two features add analysis without adding messages. `analyze`
//! compiles the collective-consistency verifier (`verify`), the
//! wait-for graph (`lockgraph`) and the causal stamps (`clock`);
//! `obs` compiles only the stamps, which `pardis-obs` reads. Without
//! either, a collective's epilogue only bumps the rank's completed
//! count ([`Endpoint::collectives_completed`]).
//!
//! ```
//! use pardis_rts::Domain;
//!
//! let eps = Domain::new(4);
//! let handles: Vec<_> = eps
//!     .into_iter()
//!     .map(|ep| {
//!         std::thread::spawn(move || {
//!             // Every rank contributes rank*10; rank 0 gathers.
//!             let mine = vec![(ep.rank() as f64) * 10.0];
//!             let all = ep.gather_f64(0, &mine).unwrap();
//!             if ep.rank() == 0 {
//!                 assert_eq!(all.unwrap(), vec![0.0, 10.0, 20.0, 30.0]);
//!             }
//!             ep.barrier();
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

#[cfg(any(feature = "analyze", feature = "obs"))]
pub mod clock;
pub mod collectives;
pub mod domain;
pub mod endpoint;
pub mod error;
#[cfg(feature = "analyze")]
pub mod lockgraph;
pub mod membership;
pub mod reduce;
mod rendezvous;
pub mod rma;
pub mod traits;
#[cfg(feature = "analyze")]
pub mod verify;

pub use domain::Domain;
pub use endpoint::{Endpoint, Message};
pub use error::{RtsError, RtsResult};
pub use membership::{Liveness, Membership, MembershipView, PhiDetector};
pub use reduce::ReduceOp;
pub use rma::Window;
pub use traits::RtsComm;

/// Message tag: distinguishes independent conversations between the same
/// pair of ranks, exactly as in MPI.
pub type Tag = u32;

/// Tags at or above this value are reserved for internal use by the
/// collective algorithms; user code must stay below it.
pub const RESERVED_TAG_BASE: Tag = 0xF000_0000;

macro_rules! reserved_tags {
    ($($(#[$doc:meta])* $name:ident = $offset:literal;)*) => {
        $($(#[$doc])* pub const $name: Tag = RESERVED_TAG_BASE + $offset;)*
        #[cfg(test)]
        pub(crate) const ALL: &[(&str, Tag)] = &[$((stringify!($name), $name)),*];
    };
}

/// Every reserved tag, in one table. Each internal protocol gets its
/// own tags, so a mis-nested program fails loudly instead of
/// cross-matching another protocol's messages.
pub mod tags {
    use super::{Tag, RESERVED_TAG_BASE};

    reserved_tags! {
        /// Broadcast payload (root → rank).
        BCAST = 1;
        /// Gather chunk (rank → root).
        GATHER = 2;
        /// Scatter chunk (root → rank).
        SCATTER = 3;
        /// All-gather re-broadcast (rank 0 → rank).
        ALLGATHER = 4;
        /// Personalized all-to-all chunk.
        ALLTOALL = 6;
        /// Collective-verify fingerprint (rank → 0).
        VERIFY = 9;
        /// Collective-verify verdict (0 → rank).
        VERDICT = 10;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_base_leaves_user_space() {
        const { assert!(RESERVED_TAG_BASE > 1_000_000) };
    }

    #[test]
    fn reserved_tags_are_distinct() {
        for (i, &(name, tag)) in tags::ALL.iter().enumerate() {
            assert!(tag >= RESERVED_TAG_BASE, "{name} is a user tag");
            for &(other, other_tag) in &tags::ALL[i + 1..] {
                assert_ne!(tag, other_tag, "{name} and {other} collide");
            }
        }
    }
}
