//! Error type for the PARDIS ORB.

use std::fmt;

/// Result alias used throughout the crate.
pub type PardisResult<T> = Result<T, PardisError>;

/// Errors surfaced by ORB operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PardisError {
    /// Underlying network failure.
    Net(String),
    /// Marshaling failure.
    Cdr(String),
    /// Run-time system failure.
    Rts(String),
    /// No object with this name (and host, if given) is registered.
    ObjectNotFound { name: String, host: Option<String> },
    /// The bound object's interface does not match the proxy's.
    InterfaceMismatch { expected: String, found: String },
    /// The servant raised an IDL-declared exception.
    UserException(String),
    /// The remote ORB or servant failed.
    SystemException(String),
    /// The target object does not implement the requested operation.
    BadOperation(String),
    /// A distributed argument's metadata was inconsistent (lengths,
    /// thread counts, template totals).
    BadDistArg(String),
    /// An operation that requires multi-port support was attempted on an
    /// object that does not advertise per-thread data ports.
    MultiportUnavailable,
    /// A blocking call timed out.
    Timeout,
    /// The transport failed mid-invocation (CORBA `COMM_FAILURE`): a
    /// connection reset, a dead port, or a vanished route.
    CommFailure(String),
    /// The collective-consistency verifier (`analyze` feature) caught
    /// one computing thread issuing a different SPMD invocation than
    /// the others — the divergence that would otherwise deadlock.
    /// Never retryable: the program itself diverged.
    CollectiveMismatch {
        /// First divergent computing thread (rank).
        thread: usize,
        /// The reference call site (rank 0's).
        mine: String,
        /// The divergent thread's call site.
        theirs: String,
    },
    /// The server machine's SPMD membership changed (a computing thread
    /// was confirmed dead) and its degradation policy refused to
    /// complete the invocation. Never retryable as-is: the same binding
    /// will keep failing; the client must rebind (the re-registered
    /// reference carries a newer epoch) or give up.
    MembershipChange {
        /// Membership epoch after the change.
        epoch: u64,
        /// Server ranks confirmed dead, ascending.
        dead: Vec<u32>,
        /// Server ranks still alive, ascending.
        survivors: Vec<u32>,
    },
    /// The per-binding circuit breaker opened: consecutive retryable
    /// failures crossed the threshold, so invocations fast-fail without
    /// touching the wire until the binding is replaced.
    CircuitOpen {
        /// Consecutive failures observed when the breaker opened.
        failures: u32,
    },
    /// An internal invariant failed (a bug surfaced as an error instead
    /// of a panic on library paths).
    Internal(String),
}

impl PardisError {
    /// Whether retrying the invocation could plausibly succeed: the
    /// failure is a transport fault (reset, dead port, timeout, a frame
    /// corrupted in flight) rather than a semantic error. Marshaling
    /// failures count — a corrupted message decodes badly, and a clean
    /// retransmission fixes it.
    pub fn is_retryable(&self) -> bool {
        match self {
            PardisError::CommFailure(_)
            | PardisError::Timeout
            | PardisError::Net(_)
            | PardisError::Cdr(_) => true,
            // The server reports its own transport faults (a fragment
            // wait that timed out, a reset) as system exceptions.
            PardisError::SystemException(m) => {
                m.contains("timed out")
                    || m.contains("TIMEOUT")
                    || m.contains("COMM_FAILURE")
                    || m.contains("communication failure")
                    || m.contains("connection reset")
                    || m.contains("closed")
                    || m.contains("network error")
                    || m.contains("marshaling error")
            }
            _ => false,
        }
    }
}

impl fmt::Display for PardisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PardisError::Net(m) => write!(f, "network error: {m}"),
            PardisError::Cdr(m) => write!(f, "marshaling error: {m}"),
            PardisError::Rts(m) => write!(f, "run-time system error: {m}"),
            PardisError::ObjectNotFound { name, host } => match host {
                Some(h) => write!(f, "object '{name}' not found on host '{h}'"),
                None => write!(f, "object '{name}' not found"),
            },
            PardisError::InterfaceMismatch { expected, found } => {
                write!(
                    f,
                    "interface mismatch: proxy expects {expected}, object is {found}"
                )
            }
            PardisError::UserException(name) => write!(f, "user exception: {name}"),
            PardisError::SystemException(m) => write!(f, "system exception: {m}"),
            PardisError::BadOperation(op) => write!(f, "no such operation: {op}"),
            PardisError::BadDistArg(m) => write!(f, "bad distributed argument: {m}"),
            PardisError::MultiportUnavailable => {
                write!(f, "object does not advertise per-thread data ports")
            }
            PardisError::Timeout => write!(f, "timed out"),
            PardisError::CommFailure(m) => write!(f, "communication failure: {m}"),
            PardisError::CollectiveMismatch {
                thread,
                mine,
                theirs,
            } => write!(
                f,
                "collective mismatch [PA101]: thread {thread} issued {theirs} while this \
                 thread issued {mine}; after _spmd_bind every invocation must be made by \
                 all computing threads in the same order"
            ),
            PardisError::MembershipChange {
                epoch,
                dead,
                survivors,
            } => write!(
                f,
                "membership change: epoch {epoch}, dead ranks {dead:?}, survivors {survivors:?}"
            ),
            PardisError::CircuitOpen { failures } => write!(
                f,
                "circuit breaker open after {failures} consecutive failures; rebind required"
            ),
            PardisError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for PardisError {}

impl From<pardis_net::NetError> for PardisError {
    fn from(e: pardis_net::NetError) -> Self {
        use pardis_net::NetError as NE;
        match e {
            // Transport-level losses of connectivity are COMM_FAILUREs.
            NE::ConnectionReset { .. }
            | NE::PortClosed { .. }
            | NE::NoRoute { .. }
            | NE::UnknownPort { .. }
            | NE::UnknownHost(_) => PardisError::CommFailure(e.to_string()),
            NE::Timeout { .. } => PardisError::Timeout,
            NE::BadMessage(_) => PardisError::Net(e.to_string()),
        }
    }
}

impl From<pardis_cdr::CdrError> for PardisError {
    fn from(e: pardis_cdr::CdrError) -> Self {
        PardisError::Cdr(e.to_string())
    }
}

impl From<pardis_rts::RtsError> for PardisError {
    fn from(e: pardis_rts::RtsError) -> Self {
        match e {
            pardis_rts::RtsError::CollectiveMismatch {
                thread,
                mine,
                theirs,
            } => PardisError::CollectiveMismatch {
                thread,
                mine,
                theirs,
            },
            pardis_rts::RtsError::Internal(m) => PardisError::Internal(m),
            other => PardisError::Rts(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e: PardisError = pardis_cdr::CdrError::BadUtf8.into();
        assert!(e.to_string().contains("UTF-8"));
        let e: PardisError = pardis_rts::RtsError::BadRank { rank: 3, size: 2 }.into();
        assert!(e.to_string().contains("rank 3"));
        let e: PardisError = pardis_net::NetError::UnknownHost(pardis_net::HostId(9)).into();
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn net_errors_map_to_corba_categories() {
        let e: PardisError = pardis_net::NetError::ConnectionReset {
            from: pardis_net::HostId(1),
            to: pardis_net::HostId(2),
        }
        .into();
        assert!(matches!(e, PardisError::CommFailure(_)));
        let e: PardisError = pardis_net::NetError::Timeout {
            host: pardis_net::HostId(1),
            port: 4,
        }
        .into();
        assert!(matches!(e, PardisError::Timeout));
        let e: PardisError = pardis_net::NetError::PortClosed {
            host: pardis_net::HostId(1),
            port: 4,
        }
        .into();
        assert!(matches!(e, PardisError::CommFailure(_)));
    }

    #[test]
    fn membership_change_is_not_retryable() {
        let e = PardisError::MembershipChange {
            epoch: 2,
            dead: vec![1],
            survivors: vec![0, 2, 3],
        };
        assert!(!e.is_retryable(), "retry cannot resurrect a dead rank");
        assert!(e.to_string().contains("epoch 2"));
        let e = PardisError::CircuitOpen { failures: 5 };
        assert!(!e.is_retryable(), "the breaker exists to stop retries");
    }

    #[test]
    fn retryability_classification() {
        assert!(PardisError::Timeout.is_retryable());
        assert!(PardisError::CommFailure("reset".into()).is_retryable());
        assert!(PardisError::Cdr("truncated".into()).is_retryable());
        assert!(PardisError::SystemException("TIMEOUT: reply".into()).is_retryable());
        assert!(!PardisError::UserException("overflow".into()).is_retryable());
        assert!(!PardisError::BadOperation("nope".into()).is_retryable());
        assert!(!PardisError::SystemException("division by zero".into()).is_retryable());
    }

    #[test]
    fn not_found_formats_host() {
        let e = PardisError::ObjectNotFound {
            name: "example".into(),
            host: Some("onyx".into()),
        };
        assert!(e.to_string().contains("onyx"));
    }
}
