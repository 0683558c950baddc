//! Span identity and its wire form.
//!
//! A **trace** is one collective invocation; its id is the request id
//! (already machine-unique and deterministic: `host << 48 | rank << 32
//! | counter`). Within a trace every rank records **spans** — bind,
//! marshal, transfer, dispatch, reply — linked into a tree:
//!
//! * the communicating thread's `invoke` span is the root, with
//!   `span_id == trace_id`;
//! * every other client rank's `invoke` span is a child of the root;
//! * transfer spans (marshal/transfer) are children of their rank's
//!   `invoke` span;
//! * the server's spans parent under the root via the
//!   [`SpanContext`] carried in the request's service-context slot
//!   [`SC_TRACING`].

use pardis_cdr::{CdrReader, CdrResult, CdrWriter, Decode, Encode};

/// GIOP service-context slot id carrying an encoded [`SpanContext`].
pub const SC_TRACING: u32 = 1;

/// The causal identity propagated from client to server: which trace
/// the request belongs to, which span to parent under, and the
/// sender's rank and membership epoch when the context was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The invocation's trace id (the request id).
    pub trace_id: u64,
    /// Span the receiver should parent its spans under (the client
    /// root's span id).
    pub parent_span: u64,
    /// Rank that cut the context (the client's communicating thread).
    pub rank: u32,
    /// Sender's membership epoch when the context was cut.
    pub epoch: u64,
}

impl Encode for SpanContext {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_u64(self.trace_id);
        w.put_u64(self.parent_span);
        w.put_u32(self.rank);
        w.put_u64(self.epoch);
        Ok(())
    }
}

impl Decode for SpanContext {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        Ok(SpanContext {
            trace_id: r.get_u64()?,
            parent_span: r.get_u64()?,
            rank: r.get_u32()?,
            epoch: r.get_u64()?,
        })
    }
}

/// What a span covers. The discriminants order the phases of one
/// invocation, which the timeline uses as a cross-machine tie-break
/// (causal stamps only order events within one machine's domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// `bind` / `spmd_bind` resolving an object reference.
    Bind,
    /// Marshaling a request or reply body.
    Marshal,
    /// Centralized argument transfer (gather/scatter at the
    /// communicating threads).
    XferCentralized,
    /// Multi-port argument transfer (per-thread fragment streams).
    XferMultiport,
    /// Servant dispatch on a server computing thread.
    Dispatch,
    /// Reply delivery (server send or client receive).
    Reply,
    /// One whole collective invocation as seen by one client rank.
    Invoke,
}

impl SpanKind {
    /// Stable lower-case name used in span logs.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Bind => "bind",
            SpanKind::Marshal => "marshal",
            SpanKind::XferCentralized => "xfer.centralized",
            SpanKind::XferMultiport => "xfer.multiport",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Reply => "reply",
            SpanKind::Invoke => "invoke",
        }
    }

    /// Inverse of [`SpanKind::as_str`].
    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "bind" => SpanKind::Bind,
            "marshal" => SpanKind::Marshal,
            "xfer.centralized" => SpanKind::XferCentralized,
            "xfer.multiport" => SpanKind::XferMultiport,
            "dispatch" => SpanKind::Dispatch,
            "reply" => SpanKind::Reply,
            "invoke" => SpanKind::Invoke,
            _ => return None,
        })
    }

    /// Phase order within one trace: bind < marshal < transfer <
    /// dispatch < reply < invoke (the enclosing span closes last).
    pub fn phase(self) -> u8 {
        match self {
            SpanKind::Bind => 0,
            SpanKind::Marshal => 1,
            SpanKind::XferCentralized => 2,
            SpanKind::XferMultiport => 2,
            SpanKind::Dispatch => 3,
            SpanKind::Reply => 4,
            SpanKind::Invoke => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardis_cdr::Endian;

    #[test]
    fn context_roundtrips_both_endians() {
        let ctx = SpanContext {
            trace_id: (7u64 << 48) | (2 << 32) | 9,
            parent_span: 0xDEAD_BEEF,
            rank: 3,
            epoch: 2,
        };
        for endian in [Endian::Big, Endian::Little] {
            let mut w = CdrWriter::new(endian);
            ctx.encode(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut r = CdrReader::new(&bytes, endian);
            assert_eq!(SpanContext::decode(&mut r).unwrap(), ctx);
        }
    }

    #[test]
    fn truncated_context_rejected() {
        let ctx = SpanContext {
            trace_id: 1,
            parent_span: 2,
            rank: 3,
            epoch: 4,
        };
        let mut w = CdrWriter::new(Endian::native());
        ctx.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = CdrReader::new(&bytes[..cut], Endian::native());
            assert!(SpanContext::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in [
            SpanKind::Bind,
            SpanKind::Marshal,
            SpanKind::XferCentralized,
            SpanKind::XferMultiport,
            SpanKind::Dispatch,
            SpanKind::Reply,
            SpanKind::Invoke,
        ] {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }
}
