//! Error type for the network layer.

use std::fmt;

/// Result alias used throughout the crate.
pub type NetResult<T> = Result<T, NetError>;

/// Errors raised by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination host does not exist in the fabric.
    UnknownHost(crate::HostId),
    /// The destination port is not open on the destination host.
    UnknownPort {
        host: crate::HostId,
        port: crate::PortId,
    },
    /// The port's receiver was dropped (the owning thread exited).
    PortClosed {
        host: crate::HostId,
        port: crate::PortId,
    },
    /// No link connects the two hosts.
    NoRoute {
        from: crate::HostId,
        to: crate::HostId,
    },
    /// A GIOP-level message failed to decode.
    BadMessage(String),
    /// The connection between two hosts was reset mid-stream (CORBA
    /// `COMM_FAILURE` territory; injected by a fault plan's per-flow
    /// frame budget).
    ConnectionReset {
        from: crate::HostId,
        to: crate::HostId,
    },
    /// A blocking receive exceeded its deadline (CORBA `TIMEOUT`
    /// territory).
    Timeout {
        host: crate::HostId,
        port: crate::PortId,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownHost(h) => write!(f, "unknown host {h:?}"),
            NetError::UnknownPort { host, port } => {
                write!(f, "port {port} not open on host {host:?}")
            }
            NetError::PortClosed { host, port } => {
                write!(f, "port {port} on host {host:?} is closed")
            }
            NetError::NoRoute { from, to } => {
                write!(f, "no link between hosts {from:?} and {to:?}")
            }
            NetError::BadMessage(msg) => write!(f, "malformed message: {msg}"),
            NetError::ConnectionReset { from, to } => {
                write!(f, "connection reset between hosts {from:?} and {to:?}")
            }
            NetError::Timeout { host, port } => {
                write!(
                    f,
                    "receive deadline exceeded on port {port} of host {host:?}"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<pardis_cdr::CdrError> for NetError {
    fn from(e: pardis_cdr::CdrError) -> NetError {
        NetError::BadMessage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_host_and_port() {
        let e = NetError::UnknownPort {
            host: crate::HostId(3),
            port: 17,
        };
        let s = e.to_string();
        assert!(s.contains("17"));
        assert!(s.contains('3'));
    }

    #[test]
    fn cdr_error_converts() {
        let e: NetError = pardis_cdr::CdrError::BadUtf8.into();
        assert!(matches!(e, NetError::BadMessage(_)));
    }
}
