//! Request/reply body formats and argument descriptions.
//!
//! A PARDIS invocation carries two kinds of arguments:
//!
//! * **non-distributed** arguments ("it is assumed that all threads will
//!   invoke the request with identical values of non-distributed
//!   arguments", §2.1) — marshaled once into an opaque body,
//! * **distributed** arguments — described by a [`DistArgMeta`] and
//!   carried either inline (centralized method) or as thread-to-thread
//!   DataTransfer fragments (multi-port method).
//!
//! The body formats here are shared by both transfer methods; whether an
//! argument's data travels in its inline section is recorded per
//! argument.

use crate::dist::DistTempl;
use crate::error::{PardisError, PardisResult};
use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrWriter, Endian, Frame};
use pardis_net::giop::{FrameHeader, FrameWriter};
use std::time::Duration;

/// IDL parameter passing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgDir {
    /// `in`: client → server only.
    In,
    /// `out`: server → client only.
    Out,
    /// `inout`: both directions.
    InOut,
}

impl ArgDir {
    /// Data travels client → server.
    pub fn sends(self) -> bool {
        matches!(self, ArgDir::In | ArgDir::InOut)
    }
    /// Data travels server → client.
    pub fn returns(self) -> bool {
        matches!(self, ArgDir::Out | ArgDir::InOut)
    }

    fn to_wire(self) -> u8 {
        match self {
            ArgDir::In => 0,
            ArgDir::Out => 1,
            ArgDir::InOut => 2,
        }
    }

    fn from_wire(b: u8) -> PardisResult<ArgDir> {
        match b {
            0 => Ok(ArgDir::In),
            1 => Ok(ArgDir::Out),
            2 => Ok(ArgDir::InOut),
            other => Err(PardisError::Cdr(format!("bad ArgDir {other}"))),
        }
    }
}

/// Wire metadata for one distributed argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistArgMeta {
    /// Passing mode.
    pub dir: ArgDir,
    /// Bytes per element.
    pub elem_size: usize,
    /// Global element count.
    pub total_len: usize,
    /// Client-side per-thread element counts (reply routing).
    pub client_counts: Vec<usize>,
    /// Server-side per-thread element counts (request routing).
    pub server_counts: Vec<usize>,
}

impl DistArgMeta {
    /// Client-side template.
    pub fn client_templ(&self) -> DistTempl {
        DistTempl::from_counts(self.client_counts.clone())
    }
    /// Server-side template.
    pub fn server_templ(&self) -> DistTempl {
        DistTempl::from_counts(self.server_counts.clone())
    }

    fn encode(&self, w: &mut CdrWriter) {
        w.put_u8(self.dir.to_wire());
        w.put_u32(self.elem_size as u32);
        w.put_u64(self.total_len as u64);
        encode_counts(w, &self.client_counts);
        encode_counts(w, &self.server_counts);
    }

    fn decode(r: &mut CdrReader<'_>) -> PardisResult<DistArgMeta> {
        let dir = ArgDir::from_wire(r.get_u8()?)?;
        let elem_size = r.get_u32()? as usize;
        let total_len = r.get_u64()? as usize;
        let client_counts = decode_counts(r)?;
        let server_counts = decode_counts(r)?;
        let meta = DistArgMeta {
            dir,
            elem_size,
            total_len,
            client_counts,
            server_counts,
        };
        meta.validate()?;
        Ok(meta)
    }

    /// Consistency checks applied on decode: both templates must name
    /// at least one thread and cover exactly `total_len` elements, and
    /// the sequence's byte size must be representable. Every length the
    /// transfer phases later derive from the metadata is then bounded
    /// by `total_len * elem_size`.
    pub fn validate(&self) -> PardisResult<()> {
        if self.client_counts.is_empty() || self.server_counts.is_empty() {
            return Err(PardisError::BadDistArg("template names no threads".into()));
        }
        let sum = |counts: &[usize]| {
            counts
                .iter()
                .try_fold(0usize, |acc, &c| acc.checked_add(c))
                .ok_or_else(|| PardisError::BadDistArg("template counts overflow".into()))
        };
        let (c, s) = (sum(&self.client_counts)?, sum(&self.server_counts)?);
        if c != self.total_len || s != self.total_len {
            return Err(PardisError::BadDistArg(format!(
                "templates cover {c}/{s} elements, sequence has {}",
                self.total_len
            )));
        }
        if self.elem_size == 0 {
            return Err(PardisError::BadDistArg("zero element size".into()));
        }
        byte_len(self.total_len, self.elem_size)?;
        Ok(())
    }

    /// An upper bound on the encoded size of this metadata.
    fn encoded_len_bound(&self) -> usize {
        48 + 8 * (self.client_counts.len() + self.server_counts.len())
    }
}

/// Bytes taken by `count` elements of `elem_size` bytes: a typed error,
/// never a wrapped value, when the product overflows or exceeds what
/// one buffer can hold.
pub(crate) fn byte_len(count: usize, elem_size: usize) -> PardisResult<usize> {
    count
        .checked_mul(elem_size)
        .filter(|&n| n <= isize::MAX as usize)
        .ok_or_else(|| {
            PardisError::BadDistArg(format!(
                "{count} elements of {elem_size} bytes overflow a buffer"
            ))
        })
}

/// Where a body is written: a bare CDR stream, into which inline data
/// is copied (a decoded body encoded again), or a frame, into which it
/// is lent as segments.
pub(crate) trait BodySink {
    /// The stream, positioned at the end of the body.
    fn cdr(&mut self) -> &mut CdrWriter;
    /// Put `data` at the end of the body.
    fn put_data(&mut self, data: &Frame);
}

impl BodySink for CdrWriter {
    fn cdr(&mut self) -> &mut CdrWriter {
        self
    }
    fn put_data(&mut self, data: &Frame) {
        for seg in data.segments() {
            self.put_bytes(seg);
        }
    }
}

impl BodySink for FrameWriter {
    fn cdr(&mut self) -> &mut CdrWriter {
        self.body()
    }
    fn put_data(&mut self, data: &Frame) {
        self.lend(data)
    }
}

/// Write an optional inline-data section: a flag, then the length and,
/// 8-aligned, the data.
fn put_inline(s: &mut impl BodySink, data: Option<&Frame>) {
    let w = s.cdr();
    match data {
        None => w.put_bool(false),
        Some(d) => {
            w.put_bool(true);
            w.put_u64(d.len() as u64);
            w.align(8);
            s.put_data(d);
        }
    }
}

/// A request or reply body about to be written.
pub(crate) trait BodyWriter {
    /// An upper bound on the bytes the body writes itself: all but its
    /// inline data.
    fn written_bound(&self) -> usize;
    /// Bytes of inline data.
    fn data_len(&self) -> usize;
    /// Write the body at the sink's (8-aligned) position.
    fn write(&self, s: &mut impl BodySink);
}

/// Write a frame: `header`, then `body`, whose inline data is lent to
/// the frame as segments, not copied. Returns the frame and the body
/// length.
pub(crate) fn frame<H: FrameHeader>(
    endian: Endian,
    header: &H,
    body: &impl BodyWriter,
) -> PardisResult<(Frame, usize)> {
    let mut f = FrameWriter::new(endian, header, body.written_bound())?;
    body.write(&mut f);
    let body_len = f.body_len();
    Ok((f.finish()?, body_len))
}

/// Bytes of the inline data among `data`.
fn inline_len<'a>(data: impl Iterator<Item = Option<&'a Frame>>) -> usize {
    data.flatten().map(Frame::len).sum()
}

/// The fields of a Request body, borrowing its inline data.
pub(crate) struct RequestParts<'a> {
    pub nondist: &'a [u8],
    pub dist: Vec<(&'a DistArgMeta, Option<&'a Frame>)>,
}

impl BodyWriter for RequestParts<'_> {
    fn written_bound(&self) -> usize {
        16 + self.nondist.len()
            + self
                .dist
                .iter()
                .map(|(m, _)| m.encoded_len_bound() + 16)
                .sum::<usize>()
    }

    fn data_len(&self) -> usize {
        inline_len(self.dist.iter().map(|(_, d)| *d))
    }

    fn write(&self, s: &mut impl BodySink) {
        let w = s.cdr();
        w.put_u32(self.dist.len() as u32);
        w.put_u32(self.nondist.len() as u32);
        w.align(8);
        w.put_bytes(self.nondist);
        for (meta, data) in &self.dist {
            meta.encode(s.cdr());
            put_inline(s, *data);
        }
    }
}

/// The fields of a Reply body, borrowing its inline data.
pub(crate) struct ReplyParts<'a> {
    pub nondist: &'a [u8],
    /// Per returning argument: request dist-arg index, global length,
    /// inline data (centralized mode).
    pub dist_out: Vec<(u32, usize, Option<&'a Frame>)>,
}

impl BodyWriter for ReplyParts<'_> {
    fn written_bound(&self) -> usize {
        16 + self.nondist.len() + 32 * self.dist_out.len()
    }

    fn data_len(&self) -> usize {
        inline_len(self.dist_out.iter().map(|(_, _, d)| *d))
    }

    fn write(&self, s: &mut impl BodySink) {
        let w = s.cdr();
        w.put_u32(self.dist_out.len() as u32);
        w.put_u32(self.nondist.len() as u32);
        w.align(8);
        w.put_bytes(self.nondist);
        for (idx, total_len, data) in &self.dist_out {
            let w = s.cdr();
            w.put_u32(*idx);
            w.put_u64(*total_len as u64);
            put_inline(s, *data);
        }
    }
}

/// Encode a body into a fresh, exactly sized buffer.
fn body_bytes(endian: Endian, body: &impl BodyWriter) -> Bytes {
    let mut w = CdrWriter::with_capacity(endian, body.written_bound() + body.data_len());
    body.write(&mut w);
    w.into_shared()
}

fn encode_counts(w: &mut CdrWriter, counts: &[usize]) {
    w.put_u32(counts.len() as u32);
    for &c in counts {
        w.put_u64(c as u64);
    }
}

fn decode_counts(r: &mut CdrReader<'_>) -> PardisResult<Vec<usize>> {
    let n = r.get_u32()? as usize;
    if n > r.remaining() / 8 {
        return Err(PardisError::Cdr("counts overflow".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_u64()? as usize);
    }
    Ok(out)
}

/// The next `len` bytes of `buf`, which `r` reads, 8-aligned: a view
/// of the segments that hold them.
fn section(r: &mut CdrReader<'_>, buf: &Frame, len: usize) -> PardisResult<Frame> {
    r.align(8)?;
    let start = r.position();
    r.skip(len)?;
    Ok(buf.slice(start..start + len))
}

/// A distributed argument's inline data: a flag, then its length and
/// its bytes (see [`section`]).
fn inline(r: &mut CdrReader<'_>, buf: &Frame) -> PardisResult<Option<Frame>> {
    if !r.get_bool()? {
        return Ok(None);
    }
    let len = r.get_u64()? as usize;
    section(r, buf, len).map(Some)
}

/// Decoded request body: the opaque non-distributed section plus, per
/// distributed argument, its metadata and (centralized mode only) its
/// full inline data.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBody {
    /// Marshaled non-distributed `in`/`inout` arguments.
    pub nondist: Bytes,
    /// One entry per distributed argument, in signature order: its
    /// inline data is a view of the segments of the frame it arrived in.
    pub dist: Vec<(DistArgMeta, Option<Frame>)>,
}

impl RequestBody {
    fn parts(&self) -> RequestParts<'_> {
        RequestParts {
            nondist: &self.nondist,
            dist: self.dist.iter().map(|(m, d)| (m, d.as_ref())).collect(),
        }
    }

    /// Encode into a CDR stream (body of a Request message).
    /// Infallible: every CDR write into memory succeeds.
    pub fn encode(&self, w: &mut CdrWriter) {
        self.parts().write(w);
    }

    /// Encode to bytes in the given byte order.
    pub fn to_bytes(&self, endian: Endian) -> Bytes {
        body_bytes(endian, &self.parts())
    }

    /// Decode from the body of a Request message, wherever its segment
    /// boundaries fall.
    pub fn decode(buf: &Frame, endian: Endian) -> PardisResult<RequestBody> {
        let mut r = CdrReader::from_frame(buf, endian);
        let ndist = r.get_u32()? as usize;
        // An argument is at least 38 bytes: its direction, element
        // size, length, two one-entry counts and inline flag.
        if ndist > r.remaining() / 38 {
            return Err(PardisError::Cdr("dist count overflow".into()));
        }
        let nondist_len = r.get_u32()? as usize;
        let nondist = section(&mut r, buf, nondist_len)?.into_bytes();
        let mut dist = Vec::with_capacity(ndist);
        for _ in 0..ndist {
            let meta = DistArgMeta::decode(&mut r)?;
            dist.push((meta, inline(&mut r, buf)?));
        }
        Ok(RequestBody { nondist, dist })
    }
}

/// Decoded reply body.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyBody {
    /// Marshaled non-distributed `out`/`inout`/return values.
    pub nondist: Bytes,
    /// Per returning distributed argument: its index in the request's
    /// dist-arg list, the global length, and (centralized mode) the full
    /// inline data, a view of the frame it arrived in.
    pub dist_out: Vec<(u32, usize, Option<Frame>)>,
}

impl ReplyBody {
    fn parts(&self) -> ReplyParts<'_> {
        ReplyParts {
            nondist: &self.nondist,
            dist_out: self
                .dist_out
                .iter()
                .map(|(i, l, d)| (*i, *l, d.as_ref()))
                .collect(),
        }
    }

    /// Encode into a CDR stream (body of a Reply message).
    /// Infallible: every CDR write into memory succeeds.
    pub fn encode(&self, w: &mut CdrWriter) {
        self.parts().write(w);
    }

    /// Encode to bytes in the given byte order.
    pub fn to_bytes(&self, endian: Endian) -> Bytes {
        body_bytes(endian, &self.parts())
    }

    /// Decode from the body of a Reply message, wherever its segment
    /// boundaries fall.
    pub fn decode(buf: &Frame, endian: Endian) -> PardisResult<ReplyBody> {
        let mut r = CdrReader::from_frame(buf, endian);
        let nout = r.get_u32()? as usize;
        // An entry is at least an index, a length and a flag (13 bytes).
        if nout > r.remaining() / 13 {
            return Err(PardisError::Cdr("dist_out count overflow".into()));
        }
        let nondist_len = r.get_u32()? as usize;
        let nondist = section(&mut r, buf, nondist_len)?.into_bytes();
        let mut dist_out = Vec::with_capacity(nout);
        for _ in 0..nout {
            let idx = r.get_u32()?;
            let total_len = r.get_u64()? as usize;
            dist_out.push((idx, total_len, inline(&mut r, buf)?));
        }
        Ok(ReplyBody { nondist, dist_out })
    }
}

/// One distributed argument as supplied by a client computing thread.
#[derive(Debug, Clone)]
pub struct DistArgSend {
    /// Passing mode.
    pub dir: ArgDir,
    /// Bytes per element.
    pub elem_size: usize,
    /// This thread's local part in native byte order; empty for `out`
    /// arguments.
    pub local: Bytes,
    /// Client-side layout.
    pub client_templ: DistTempl,
    /// Server-side layout (materialized from the object reference's
    /// registered template, defaulting to blockwise).
    pub server_templ: DistTempl,
    /// Race-analyzer identity of the client-side source buffer; 0 when
    /// the argument was not built from a tracked sequence.
    #[cfg(feature = "analyze")]
    pub buf_id: u64,
}

impl DistArgSend {
    /// Wire metadata for this argument.
    pub fn meta(&self) -> DistArgMeta {
        DistArgMeta {
            dir: self.dir,
            elem_size: self.elem_size,
            total_len: self.client_templ.len(),
            client_counts: self.client_templ.counts().to_vec(),
            server_counts: self.server_templ.counts().to_vec(),
        }
    }
}

/// A fully described outgoing invocation (one per computing thread; the
/// non-distributed body must be identical across threads).
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// Operation name.
    pub operation: String,
    /// Marshaled non-distributed `in`/`inout` arguments.
    pub nondist_body: Bytes,
    /// Distributed arguments in signature order.
    pub dist_args: Vec<DistArgSend>,
    /// False for `oneway` operations.
    pub response_expected: bool,
    /// Relative deadline for the whole invocation. `None` (the default)
    /// blocks indefinitely, as classic CORBA does; `Some` turns a lost
    /// reply into [`crate::PardisError::Timeout`] instead of a hang.
    pub deadline: Option<Duration>,
    /// Whether re-executing the operation is safe (read-only and
    /// `oneway` operations). Only idempotent invocations are eligible
    /// for automatic retry under a [`crate::client::RetryPolicy`].
    pub idempotent: bool,
}

impl RequestSpec {
    /// A request with no arguments.
    pub fn simple(operation: &str) -> RequestSpec {
        RequestSpec {
            operation: operation.to_string(),
            nondist_body: Bytes::new(),
            dist_args: Vec::new(),
            response_expected: true,
            deadline: None,
            idempotent: false,
        }
    }

    /// Set a relative deadline for the invocation.
    pub fn with_deadline(mut self, deadline: Duration) -> RequestSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Mark the operation safe to re-execute (eligible for retry).
    pub fn idempotent(mut self) -> RequestSpec {
        self.idempotent = true;
        self
    }
}

/// Phase timings of one invocation, measured on the calling thread.
/// Mirrors the columns of the paper's Tables 1 and 2.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InvokeTiming {
    /// Wall-clock of the whole invocation (T in the tables).
    pub total: Duration,
    /// Marshaling time (pack): this thread's share. A block in native
    /// byte order is lent to the frame, not copied, so what remains is
    /// the translation of its own blocks (data translation only) and,
    /// on the communicating thread, writing the frame's header and
    /// metadata.
    pub pack: Duration,
    /// Network send time (from first send to last send completion).
    pub send: Duration,
    /// Waiting in the centralized method's gather round (centralized
    /// method only): for every thread's blocks to be lent.
    pub gather: Duration,
    /// The centralized method's scatter (centralized method only): this
    /// thread checking each received argument's inline section and
    /// viewing its own block in the relayed frame.
    pub scatter: Duration,
    /// Receive + unmarshal time.
    pub recv_unpack: Duration,
    /// Time spent waiting in the post-invocation barrier.
    pub barrier: Duration,
}

impl InvokeTiming {
    /// Merge per-phase maxima (used to report "maximum over all threads
    /// involved" as Table 2 does).
    pub fn max_with(&mut self, other: &InvokeTiming) {
        self.total = self.total.max(other.total);
        self.pack = self.pack.max(other.pack);
        self.send = self.send.max(other.send);
        self.gather = self.gather.max(other.gather);
        self.scatter = self.scatter.max(other.scatter);
        self.recv_unpack = self.recv_unpack.max(other.recv_unpack);
        self.barrier = self.barrier.max(other.barrier);
    }
}

/// The client-visible result of an invocation.
#[derive(Debug, Clone)]
pub struct ReplyResult {
    /// Marshaled non-distributed results.
    pub nondist_body: Bytes,
    /// For each request dist-arg index that returns data: this thread's
    /// new local part (native order), keyed by position in the request's
    /// dist-arg list. Usually a view of the received frame.
    pub dist_out: Vec<(u32, Bytes)>,
    /// Phase timings on this thread.
    pub timing: InvokeTiming,
}

impl ReplyResult {
    /// Local bytes returned for request dist-arg `idx`, if any.
    pub fn dist_local(&self, idx: u32) -> Option<&[u8]> {
        self.dist_bytes(idx).map(|b| b.as_ref())
    }

    /// The same bytes as [`ReplyResult::dist_local`], shared: a
    /// sequence built over them with [`crate::DSequence::from_bytes`]
    /// views the reply frame instead of copying it.
    pub fn dist_bytes(&self, idx: u32) -> Option<&Bytes> {
        self.dist_out
            .iter()
            .find(|(i, _)| *i == idx)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardis_cdr::Endian;

    fn meta(dir: ArgDir) -> DistArgMeta {
        DistArgMeta {
            dir,
            elem_size: 8,
            total_len: 10,
            client_counts: vec![5, 5],
            server_counts: vec![4, 3, 3],
        }
    }

    #[test]
    fn request_body_roundtrip_inline() {
        let body = RequestBody {
            nondist: Bytes::from_static(b"nd-args"),
            dist: vec![
                (meta(ArgDir::InOut), Some(Frame::from(vec![7u8; 80]))),
                (meta(ArgDir::In), None),
            ],
        };
        for endian in [Endian::Big, Endian::Little] {
            let bytes = Frame::from(body.to_bytes(endian));
            let back = RequestBody::decode(&bytes, endian).unwrap();
            assert_eq!(back, body);
        }
    }

    #[test]
    fn reply_body_roundtrip() {
        let body = ReplyBody {
            nondist: Bytes::from_static(b"result"),
            dist_out: vec![(0, 10, Some(Frame::from(vec![1u8; 80]))), (2, 4, None)],
        };
        let bytes = Frame::from(body.to_bytes(Endian::native()));
        assert_eq!(ReplyBody::decode(&bytes, Endian::native()).unwrap(), body);
    }

    #[test]
    fn empty_bodies_roundtrip() {
        let body = RequestBody {
            nondist: Bytes::new(),
            dist: vec![],
        };
        let bytes = Frame::from(body.to_bytes(Endian::native()));
        assert_eq!(RequestBody::decode(&bytes, Endian::native()).unwrap(), body);

        let body = ReplyBody {
            nondist: Bytes::new(),
            dist_out: vec![],
        };
        let bytes = Frame::from(body.to_bytes(Endian::native()));
        assert_eq!(ReplyBody::decode(&bytes, Endian::native()).unwrap(), body);
    }

    #[test]
    fn meta_validation_catches_bad_totals() {
        let mut m = meta(ArgDir::In);
        assert!(m.validate().is_ok());
        m.server_counts = vec![1, 1, 1];
        assert!(m.validate().is_err());
        let mut m = meta(ArgDir::In);
        m.elem_size = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn decode_rejects_bad_meta() {
        let body = RequestBody {
            nondist: Bytes::new(),
            dist: vec![(
                DistArgMeta {
                    dir: ArgDir::In,
                    elem_size: 8,
                    total_len: 10,
                    client_counts: vec![1], // wrong total
                    server_counts: vec![10],
                },
                None,
            )],
        };
        let bytes = Frame::from(body.to_bytes(Endian::native()));
        assert!(RequestBody::decode(&bytes, Endian::native()).is_err());
    }

    #[test]
    fn argdir_properties() {
        assert!(ArgDir::In.sends() && !ArgDir::In.returns());
        assert!(!ArgDir::Out.sends() && ArgDir::Out.returns());
        assert!(ArgDir::InOut.sends() && ArgDir::InOut.returns());
    }

    #[test]
    fn timing_max_merge() {
        let mut a = InvokeTiming {
            total: Duration::from_millis(5),
            pack: Duration::from_millis(1),
            ..Default::default()
        };
        let b = InvokeTiming {
            total: Duration::from_millis(3),
            pack: Duration::from_millis(2),
            send: Duration::from_millis(9),
            ..Default::default()
        };
        a.max_with(&b);
        assert_eq!(a.total, Duration::from_millis(5));
        assert_eq!(a.pack, Duration::from_millis(2));
        assert_eq!(a.send, Duration::from_millis(9));
    }

    #[test]
    fn truncated_request_rejected() {
        let body = RequestBody {
            nondist: Bytes::from_static(b"abc"),
            dist: vec![(meta(ArgDir::In), Some(Frame::from(vec![0u8; 64])))],
        };
        let bytes = Frame::from(body.to_bytes(Endian::native()));
        let cut = bytes.slice(0..bytes.len() - 32);
        assert!(RequestBody::decode(&cut, Endian::native()).is_err());
    }

    #[test]
    fn dist_arg_send_meta() {
        let a = DistArgSend {
            dir: ArgDir::In,
            elem_size: 8,
            local: Bytes::from(vec![0u8; 40]),
            client_templ: DistTempl::block(10, 2),
            server_templ: DistTempl::block(10, 3),
            #[cfg(feature = "analyze")]
            buf_id: 0,
        };
        let m = a.meta();
        assert_eq!(m.total_len, 10);
        assert_eq!(m.client_counts, vec![5, 5]);
        assert_eq!(m.server_counts, vec![4, 3, 3]);
        assert!(m.validate().is_ok());
    }
}
