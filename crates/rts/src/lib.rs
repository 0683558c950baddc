//! # pardis-rts — the PARDIS generic run-time system interface
//!
//! PARDIS does not talk to a parallel application's computing threads
//! directly. The paper (§2.3): "A generic run-time system interface has
//! therefore been built into PARDIS libraries and may also be used by
//! the compiler-generated stubs. To date only one run-time system
//! interface has been specified; it encompasses the functionality of
//! message-passing libraries" — tested there against MPI and Tulip.
//! [`Endpoint`] is that interface, one per computing thread, and this
//! crate its in-process implementation: a [`Domain`] of `n` ranks, each
//! an OS thread holding an [`Endpoint`] — the moral equivalent of MPICH
//! compiled for shared memory, which is exactly how the paper ran its
//! client and server machines.
//!
//! The interface surface is deliberately MPI-shaped:
//!
//! * point-to-point [`Endpoint::send`] / [`Endpoint::recv`] with
//!   `(source, tag)` matching, through each rank's mailbox,
//! * collectives: barrier, broadcast, gather(v), scatter(v), allgather,
//!   allreduce, alltoallv,
//! * every collective is one round of the domain's shared-memory
//!   rendezvous: each rank deposits its contribution in its own slot,
//!   and once every live rank has arrived each reads what it needs
//!   from the same outcome (`Bytes` by refcount, allreduce folded in
//!   rank order). No collective sends a message, so none is linear in
//!   the number of ranks; Table 1's shape (gather/scatter cost growing
//!   with thread count) is reproduced by `pardis-sim`,
//! * [`Endpoint::gather_frames`] and [`Endpoint::broadcast_frame`]
//!   move frames of segments (`pardis_cdr::Frame`) the same way. The
//!   ORB's centralized method gathers the blocks every rank lends at
//!   the root, which links them into the one frame it sends, and
//!   relays the one received frame with a broadcast, from which every
//!   thread reads its own block.
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
#[cfg(feature = "analyze")]
pub mod verify;

pub use domain::Domain;
pub use endpoint::{Endpoint, Message};
pub use error::{RtsError, RtsResult};
pub use membership::{Liveness, Membership, MembershipView, PhiDetector};
pub use reduce::ReduceOp;
pub use rma::Window;

/// Message tag: distinguishes independent conversations between the same
/// pair of ranks, exactly as in MPI.
pub type Tag = u32;
