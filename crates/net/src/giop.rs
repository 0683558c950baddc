//! GIOP-like message layer.
//!
//! CORBA's General Inter-ORB Protocol frames every ORB-to-ORB exchange
//! as a typed message with a small magic+version header that also records
//! the sender's byte order. PARDIS messages follow the same scheme with
//! one addition: a **DataTransfer** message kind carrying a fragment of a
//! distributed argument from one computing thread to another — the unit
//! of the multi-port method, whose "transfer header" tells the receiver
//! where the fragment lands ("unmarshal them according to information
//! contained in the transfer header", §3.3).

use crate::fabric::{HostId, PortId};
use crate::{NetError, NetResult};
use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrResult, CdrWriter, Decode, Encode, Endian, Frame};

/// Protocol magic, "PARD".
pub const MAGIC: [u8; 4] = *b"PARD";
/// Protocol version understood by this implementation.
pub const VERSION: u8 = 1;

/// Argument transfer method requested by a client invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Arguments travel inside the request message via gather/scatter at
    /// the communicating threads (§3.2).
    Centralized,
    /// Argument data flows thread-to-thread on separate ports; the
    /// request message carries only the header and non-distributed
    /// arguments (§3.3).
    MultiPort,
}

impl Encode for TransferMode {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_u32(match self {
            TransferMode::Centralized => 0,
            TransferMode::MultiPort => 1,
        });
        Ok(())
    }
}

impl Decode for TransferMode {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        match r.get_u32()? {
            0 => Ok(TransferMode::Centralized),
            1 => Ok(TransferMode::MultiPort),
            other => Err(pardis_cdr::CdrError::BadDiscriminant {
                type_name: "TransferMode",
                value: other,
            }),
        }
    }
}

/// Header of a Request message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHeader {
    /// Client-assigned id, echoed in the reply.
    pub request_id: u64,
    /// Name of the target object in the naming domain.
    pub object_name: String,
    /// Operation to invoke.
    pub operation: String,
    /// False for `oneway` operations: no reply will be sent.
    pub response_expected: bool,
    /// Where to send the reply.
    pub reply_host: HostId,
    /// Port on `reply_host` awaiting the reply.
    pub reply_port: PortId,
    /// How distributed arguments travel.
    pub mode: TransferMode,
    /// Number of computing threads of the *client* (needed by the server
    /// in multi-port mode to know how many fragments to expect, and for
    /// reply routing of distributed out/inout arguments).
    pub client_threads: u32,
    /// Data ports of the client's computing threads (multi-port replies
    /// flow directly back to these); empty in centralized mode.
    pub client_data_ports: Vec<PortId>,
    /// CORBA-style service context: `(slot id, opaque blob)` pairs the
    /// ORB layers use to piggyback out-of-band state (e.g. the tracing
    /// span context) on a request. Unknown slots are preserved and
    /// ignored; empty for plain requests.
    pub service_context: Vec<(u32, Bytes)>,
}

impl Encode for RequestHeader {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_u64(self.request_id);
        w.put_string(&self.object_name);
        w.put_string(&self.operation);
        w.put_bool(self.response_expected);
        w.put_u32(self.reply_host.0);
        w.put_u32(self.reply_port);
        self.mode.encode(w)?;
        w.put_u32(self.client_threads);
        w.put_u32(self.client_data_ports.len() as u32);
        for &p in &self.client_data_ports {
            w.put_u32(p);
        }
        w.put_u32(self.service_context.len() as u32);
        for (id, blob) in &self.service_context {
            w.put_u32(*id);
            w.put_u32(blob.len() as u32);
            w.put_bytes(blob);
        }
        Ok(())
    }
}

impl Decode for RequestHeader {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        let request_id = r.get_u64()?;
        let object_name = r.get_string()?;
        let operation = r.get_string()?;
        let response_expected = r.get_bool()?;
        let reply_host = HostId(r.get_u32()?);
        let reply_port = r.get_u32()?;
        let mode = TransferMode::decode(r)?;
        let client_threads = r.get_u32()?;
        let n = r.get_u32()? as usize;
        if n > r.remaining() / 4 {
            return Err(pardis_cdr::CdrError::LengthOverflow(n as u64));
        }
        let mut client_data_ports = Vec::with_capacity(n);
        for _ in 0..n {
            client_data_ports.push(r.get_u32()?);
        }
        let nsc = r.get_u32()? as usize;
        // An entry takes at least its id and its length (8 bytes).
        if nsc > r.remaining() / 8 {
            return Err(pardis_cdr::CdrError::LengthOverflow(nsc as u64));
        }
        let mut service_context = Vec::with_capacity(nsc);
        for _ in 0..nsc {
            let id = r.get_u32()?;
            let len = r.get_u32()? as usize;
            // `take` bounds-checks against the remaining payload, so a
            // lying length becomes a typed error, not a panic.
            service_context.push((id, Bytes::copy_from_slice(&r.take(len)?)));
        }
        Ok(RequestHeader {
            request_id,
            object_name,
            operation,
            response_expected,
            reply_host,
            reply_port,
            mode,
            client_threads,
            client_data_ports,
            service_context,
        })
    }
}

/// Completion status carried in a Reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Operation completed; body holds out/inout/return values.
    NoException,
    /// The servant raised an IDL-declared exception named here.
    UserException(String),
    /// The ORB or servant failed; human-readable reason.
    SystemException(String),
    /// The server's SPMD membership changed while the request was in
    /// flight and its degradation policy refused to complete it. Carries
    /// the new membership epoch plus the dead and surviving server
    /// ranks so the client can rebind (or give up) with full knowledge.
    MembershipChange {
        /// Membership epoch after the change.
        epoch: u64,
        /// Server ranks confirmed dead, ascending.
        dead: Vec<u32>,
        /// Server ranks still alive, ascending.
        survivors: Vec<u32>,
    },
}

impl Encode for ReplyStatus {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        match self {
            ReplyStatus::NoException => w.put_u32(0),
            ReplyStatus::UserException(name) => {
                w.put_u32(1);
                w.put_string(name);
            }
            ReplyStatus::SystemException(msg) => {
                w.put_u32(2);
                w.put_string(msg);
            }
            ReplyStatus::MembershipChange {
                epoch,
                dead,
                survivors,
            } => {
                w.put_u32(3);
                w.put_u64(*epoch);
                w.put_u32(dead.len() as u32);
                for &r in dead {
                    w.put_u32(r);
                }
                w.put_u32(survivors.len() as u32);
                for &r in survivors {
                    w.put_u32(r);
                }
            }
        }
        Ok(())
    }
}

impl Decode for ReplyStatus {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        match r.get_u32()? {
            0 => Ok(ReplyStatus::NoException),
            1 => Ok(ReplyStatus::UserException(r.get_string()?)),
            2 => Ok(ReplyStatus::SystemException(r.get_string()?)),
            3 => {
                let epoch = r.get_u64()?;
                let take_ranks = |r: &mut CdrReader<'_>| -> CdrResult<Vec<u32>> {
                    let n = r.get_u32()? as usize;
                    if n > r.remaining() / 4 {
                        return Err(pardis_cdr::CdrError::LengthOverflow(n as u64));
                    }
                    (0..n).map(|_| r.get_u32()).collect()
                };
                let dead = take_ranks(r)?;
                let survivors = take_ranks(r)?;
                Ok(ReplyStatus::MembershipChange {
                    epoch,
                    dead,
                    survivors,
                })
            }
            other => Err(pardis_cdr::CdrError::BadDiscriminant {
                type_name: "ReplyStatus",
                value: other,
            }),
        }
    }
}

/// Header of a Reply message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Echo of the request id.
    pub request_id: u64,
    /// Completion status.
    pub status: ReplyStatus,
}

impl Encode for ReplyHeader {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_u64(self.request_id);
        self.status.encode(w)
    }
}

impl Decode for ReplyHeader {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        Ok(ReplyHeader {
            request_id: r.get_u64()?,
            status: ReplyStatus::decode(r)?,
        })
    }
}

/// Header of a DataTransfer message: one fragment of one distributed
/// argument, flowing from a source computing thread to a destination
/// computing thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferHeader {
    /// Request this fragment belongs to.
    pub request_id: u64,
    /// Which distributed argument of the operation (zero-based among the
    /// distributed arguments).
    pub arg_index: u32,
    /// Sending computing thread (client thread for requests, server
    /// thread for replies).
    pub src_thread: u32,
    /// Receiving computing thread.
    pub dst_thread: u32,
    /// Element offset of this fragment within the *global* sequence.
    pub offset: u64,
    /// Number of elements in this fragment.
    pub count: u64,
    /// Global length of the sequence (lets the receiver size its local
    /// part before all fragments arrive).
    pub total_len: u64,
    /// Sender's SPMD membership epoch when the fragment was cut. A
    /// receiver whose epoch has moved on knows the fragment was sliced
    /// against a stale distribution template; the race analyzer uses
    /// the same stamp to scope transfer intervals to an epoch.
    pub epoch: u64,
}

impl Encode for TransferHeader {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_u64(self.request_id);
        w.put_u32(self.arg_index);
        w.put_u32(self.src_thread);
        w.put_u32(self.dst_thread);
        w.put_u64(self.offset);
        w.put_u64(self.count);
        w.put_u64(self.total_len);
        w.put_u64(self.epoch);
        Ok(())
    }
}

impl Decode for TransferHeader {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        Ok(TransferHeader {
            request_id: r.get_u64()?,
            arg_index: r.get_u32()?,
            src_thread: r.get_u32()?,
            dst_thread: r.get_u32()?,
            offset: r.get_u64()?,
            count: r.get_u64()?,
            total_len: r.get_u64()?,
            epoch: r.get_u64()?,
        })
    }
}

/// A header that opens a frame with a body: the three message kinds
/// that carry data.
pub trait FrameHeader: Encode {
    /// The kind octet of the frame preamble.
    const KIND: u8;
}

impl FrameHeader for RequestHeader {
    const KIND: u8 = 0;
}

impl FrameHeader for ReplyHeader {
    const KIND: u8 = 1;
}

impl FrameHeader for TransferHeader {
    const KIND: u8 = 2;
}

/// The kind octet of a CloseConnection frame, which has no header.
const CLOSE_CONNECTION_KIND: u8 = 3;

fn put_preamble(w: &mut CdrWriter, kind: u8) {
    w.put_bytes(&MAGIC);
    w.put_u8(VERSION);
    w.put_u8(w.endian().flag());
    w.put_u8(kind);
    w.put_u8(0); // reserved
}

/// A frame written as segments: the preamble and header are written
/// first, the body is then written straight after them through
/// [`FrameWriter::body`], and [`FrameWriter::finish`] patches the body
/// length in. Bytes the body already holds elsewhere (a sequence's
/// storage, a decoded body) are linked in with [`FrameWriter::lend`]
/// as segments of their own, not copied: the writer continues in a new
/// segment after them, aligned as the one stream. [`GiopMessage::encode`]
/// goes through here too.
#[derive(Debug)]
pub struct FrameWriter {
    /// The first bytes written (preamble, header, body length), once a
    /// lent segment follows them; `w` holds them until then.
    head: Option<CdrWriter>,
    /// The segments after `head`: lent ones and the writes between
    /// them.
    segs: Frame,
    /// The bytes written since the last lent segment; its stream
    /// positions are frame offsets.
    w: CdrWriter,
    /// Frame offset of the body-length field.
    len_at: usize,
    /// Frame offset of the body's first byte (8-aligned).
    body_at: usize,
}

impl FrameWriter {
    /// Start a frame of `header`'s kind, with room for `body_capacity`
    /// bytes of body written after the header.
    pub fn new<H: FrameHeader>(
        endian: Endian,
        header: &H,
        body_capacity: usize,
    ) -> NetResult<FrameWriter> {
        let mut w = CdrWriter::with_capacity(endian, 128);
        put_preamble(&mut w, H::KIND);
        header.encode(&mut w)?;
        w.put_u32(0); // body length, patched by `finish`
        let len_at = w.len() - 4;
        w.align(8); // bodies start 8-aligned so f64 slices copy cleanly
        w.reserve(body_capacity);
        let body_at = w.len();
        Ok(FrameWriter {
            head: None,
            segs: Frame::new(),
            w,
            len_at,
            body_at,
        })
    }

    /// The writer positioned at the end of the body. The body starts
    /// at an 8-aligned frame offset, so CDR alignment within it is the
    /// same as in a stand-alone body stream.
    pub fn body(&mut self) -> &mut CdrWriter {
        &mut self.w
    }

    /// Link the segments of `data` into the body at its end, without
    /// copying them; the body continues after them.
    pub fn lend(&mut self, data: &Frame) {
        if data.is_empty() {
            return;
        }
        let after = CdrWriter::at_offset(self.w.endian(), self.w.position() + data.len());
        let before = std::mem::replace(&mut self.w, after);
        match self.head {
            None => self.head = Some(before),
            Some(_) if before.is_empty() => {}
            Some(_) => self.segs.push(before.into_shared()),
        }
        self.segs.extend(data);
    }

    /// Bytes of the body so far, lent ones included.
    pub fn body_len(&self) -> usize {
        self.w.position() - self.body_at
    }

    /// Patch the body length in and hand the frame out.
    pub fn finish(mut self) -> NetResult<Frame> {
        let len = self.body_len() as u32;
        let Some(mut head) = self.head else {
            self.w.patch_u32(self.len_at, len);
            return Ok(Frame::from(self.w.into_shared()));
        };
        head.patch_u32(self.len_at, len);
        let mut frame = Frame::from(head.into_shared());
        frame.extend(&self.segs);
        if !self.w.is_empty() {
            frame.push(self.w.into_shared());
        }
        Ok(frame)
    }
}

/// A complete PARDIS protocol message, with a body of `B`: [`Bytes`]
/// when a program builds one to send, a [`Frame`] (views of the
/// received segments) when [`GiopMessage::decode`] reads one.
#[derive(Debug, Clone, PartialEq)]
pub enum GiopMessage<B = Bytes> {
    /// Invocation: header plus marshaled argument body.
    Request(RequestHeader, B),
    /// Completion: header plus marshaled result body.
    Reply(ReplyHeader, B),
    /// A distributed-argument fragment plus its raw element bytes.
    DataTransfer(TransferHeader, B),
    /// Orderly connection shutdown.
    CloseConnection,
}

impl GiopMessage {
    /// Encode the message (header in `endian`, body linked in as it is —
    /// bodies are themselves CDR streams in the same byte order): a
    /// frame of the header's segment and the body's, which is not
    /// copied. Header encoding is infallible today; the `Result` keeps
    /// the library path panic-free if a fallible header field is ever
    /// added.
    pub fn encode(&self, endian: Endian) -> NetResult<Frame> {
        let (mut frame, body) = match self {
            GiopMessage::Request(h, body) => (FrameWriter::new(endian, h, 0)?, body),
            GiopMessage::Reply(h, body) => (FrameWriter::new(endian, h, 0)?, body),
            GiopMessage::DataTransfer(h, body) => (FrameWriter::new(endian, h, 0)?, body),
            GiopMessage::CloseConnection => {
                let mut w = CdrWriter::with_capacity(endian, 8);
                put_preamble(&mut w, CLOSE_CONNECTION_KIND);
                return Ok(Frame::from(w.into_shared()));
            }
        };
        frame.lend(&Frame::from(body.clone()));
        frame.finish()
    }
}

impl GiopMessage<Frame> {
    /// Decode a message from the wire. The body is a view of the
    /// segments that carry it; control fields decode the same wherever
    /// the segment boundaries fall.
    pub fn decode(frame: &Frame) -> NetResult<GiopMessage<Frame>> {
        let (mut r, kind) = preamble(frame)?;
        let take_body = |r: &mut CdrReader<'_>| -> NetResult<Frame> {
            let len = r.get_u32()? as usize;
            r.align(8)?;
            let start = r.position();
            if len > r.remaining() {
                return Err(NetError::BadMessage("body truncated".into()));
            }
            Ok(frame.slice(start..start + len))
        };
        match kind {
            RequestHeader::KIND => {
                let h = RequestHeader::decode(&mut r)?;
                Ok(GiopMessage::Request(h, take_body(&mut r)?))
            }
            ReplyHeader::KIND => {
                let h = ReplyHeader::decode(&mut r)?;
                Ok(GiopMessage::Reply(h, take_body(&mut r)?))
            }
            TransferHeader::KIND => {
                let h = TransferHeader::decode(&mut r)?;
                Ok(GiopMessage::DataTransfer(h, take_body(&mut r)?))
            }
            CLOSE_CONNECTION_KIND => Ok(GiopMessage::CloseConnection),
            other => Err(NetError::BadMessage(format!("unknown kind {other}"))),
        }
    }

    /// The byte order the message body was encoded in.
    pub fn body_endian(frame: &Frame) -> NetResult<Endian> {
        Ok(preamble(frame)?.0.endian())
    }

    /// The message with its body in one contiguous buffer (a copy only
    /// if the body spans segments).
    pub fn to_contiguous(&self) -> GiopMessage {
        match self {
            GiopMessage::Request(h, body) => {
                GiopMessage::Request(h.clone(), body.clone().into_bytes())
            }
            GiopMessage::Reply(h, body) => GiopMessage::Reply(h.clone(), body.clone().into_bytes()),
            GiopMessage::DataTransfer(h, body) => {
                GiopMessage::DataTransfer(h.clone(), body.clone().into_bytes())
            }
            GiopMessage::CloseConnection => GiopMessage::CloseConnection,
        }
    }
}

/// Check a frame's 8-byte preamble: a reader positioned after it, in
/// the byte order it names, and the message kind.
fn preamble(frame: &Frame) -> NetResult<(CdrReader<'_>, u8)> {
    let mut r = CdrReader::from_frame(frame, Endian::native());
    let Ok(pre) = r.take(8) else {
        return Err(NetError::BadMessage("short header".into()));
    };
    if pre[0..4] != MAGIC {
        return Err(NetError::BadMessage("bad magic".into()));
    }
    if pre[4] != VERSION {
        return Err(NetError::BadMessage(format!("bad version {}", pre[4])));
    }
    r.set_endian(Endian::from_flag(pre[5]).map_err(NetError::from)?);
    Ok((r, pre[6]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestHeader {
        RequestHeader {
            request_id: 42,
            object_name: "example".into(),
            operation: "diffusion".into(),
            response_expected: true,
            reply_host: HostId(0),
            reply_port: 11,
            mode: TransferMode::MultiPort,
            client_threads: 4,
            client_data_ports: vec![21, 22, 23, 24],
            service_context: vec![(1, Bytes::from_static(b"span-ctx")), (7, Bytes::new())],
        }
    }

    #[test]
    fn request_roundtrip_both_endians() {
        for endian in [Endian::Big, Endian::Little] {
            let msg = GiopMessage::Request(sample_request(), Bytes::from_static(b"body-bytes"));
            let wire = msg.encode(endian).unwrap();
            assert_eq!(&wire.to_vec()[0..4], b"PARD");
            let back = GiopMessage::decode(&wire).unwrap();
            assert_eq!(back.to_contiguous(), msg);
            assert_eq!(GiopMessage::body_endian(&wire).unwrap(), endian);
        }
    }

    #[test]
    fn reply_roundtrip() {
        for status in [
            ReplyStatus::NoException,
            ReplyStatus::UserException("overflow".into()),
            ReplyStatus::SystemException("object not found".into()),
            ReplyStatus::MembershipChange {
                epoch: 3,
                dead: vec![1, 4],
                survivors: vec![0, 2, 3],
            },
            ReplyStatus::MembershipChange {
                epoch: 1,
                dead: vec![],
                survivors: vec![],
            },
        ] {
            let msg = GiopMessage::Reply(
                ReplyHeader {
                    request_id: 7,
                    status,
                },
                Bytes::from_static(&[1, 2, 3]),
            );
            let wire = msg.encode(Endian::native()).unwrap();
            assert_eq!(GiopMessage::decode(&wire).unwrap().to_contiguous(), msg);
        }
    }

    #[test]
    fn data_transfer_roundtrip() {
        let msg = GiopMessage::DataTransfer(
            TransferHeader {
                request_id: 9,
                arg_index: 1,
                src_thread: 2,
                dst_thread: 5,
                offset: 1024,
                count: 512,
                total_len: 4096,
                epoch: 2,
            },
            Bytes::from(vec![0u8; 4096]),
        );
        let wire = msg.encode(Endian::native()).unwrap();
        let back = GiopMessage::decode(&wire).unwrap();
        assert_eq!(back.to_contiguous(), msg);
        // The body is linked into the frame, not copied.
        let (GiopMessage::DataTransfer(_, sent), GiopMessage::DataTransfer(_, got)) = (&msg, &back)
        else {
            panic!("not a data transfer");
        };
        assert_eq!(wire.segments().count(), 2);
        assert_eq!(got.clone().into_bytes().as_ptr(), sent.as_ptr());
    }

    #[test]
    fn close_connection_roundtrip() {
        let wire = GiopMessage::CloseConnection
            .encode(Endian::native())
            .unwrap();
        assert_eq!(
            GiopMessage::decode(&wire).unwrap(),
            GiopMessage::CloseConnection
        );
    }

    #[test]
    fn body_is_eight_aligned() {
        // The body slice must begin at an 8-aligned stream offset so that
        // f64 payloads decode without copying regardless of header size.
        let msg = GiopMessage::Request(sample_request(), Bytes::from_static(b"x"));
        let wire = msg.encode(Endian::native()).unwrap();
        // Find the body: it is the final 1 byte.
        let body_off = wire.len() - 1;
        assert_eq!(body_off % 8, 0);
    }

    #[test]
    fn frame_writer_matches_encoded_message() {
        let body = {
            let mut w = CdrWriter::new(Endian::Big);
            w.put_u32(3);
            w.put_f64_slice(&[1.5, -2.0]);
            w.into_bytes()
        };
        for endian in [Endian::Big, Endian::Little] {
            let mut frame = FrameWriter::new(endian, &sample_request(), 0).unwrap();
            frame.body().put_bytes(&body);
            assert_eq!(frame.body_len(), body.len());
            let built = frame.finish().unwrap();
            assert_eq!(built.segments().count(), 1);
            let msg = GiopMessage::Request(sample_request(), Bytes::from(body.clone()));
            assert_eq!(built, msg.encode(endian).unwrap());
            assert_eq!(GiopMessage::decode(&built).unwrap().to_contiguous(), msg);
        }
    }

    #[test]
    fn lent_segments_match_the_frame_written_whole() {
        for endian in [Endian::Big, Endian::Little] {
            let mut whole = FrameWriter::new(endian, &sample_request(), 0).unwrap();
            let mut lent = FrameWriter::new(endian, &sample_request(), 0).unwrap();
            for f in [&mut whole, &mut lent] {
                f.body().put_u32(7);
                f.body().align(8);
            }
            whole.body().put_bytes(b"abcdefghij");
            let parts: Frame = [&b"abcd"[..], b"", b"efghij"]
                .into_iter()
                .map(Bytes::copy_from_slice)
                .collect();
            lent.lend(&parts);
            for f in [&mut whole, &mut lent] {
                f.body().put_u8(1);
                f.body().put_u64(9);
            }
            whole.body().put_bytes(b"xyz");
            lent.lend(&Frame::from(Bytes::from_static(b"xyz")));
            assert_eq!(lent.body_len(), whole.body_len());
            let frame = lent.finish().unwrap();
            // Head, two lent parts, the writes between, the last part;
            // nothing was written after it.
            assert_eq!(frame.segments().count(), 5);
            let lent = frame.segments().nth(1).unwrap();
            assert_eq!(lent.as_ptr(), parts.segments().next().unwrap().as_ptr());
            let whole = whole.finish().unwrap();
            assert_eq!(frame.to_vec(), whole.to_vec());
        }
    }

    #[test]
    fn garbage_rejected() {
        let frame = |b: &'static [u8]| Frame::from(Bytes::from_static(b));
        assert!(GiopMessage::decode(&frame(b"????????")).is_err());
        assert!(GiopMessage::decode(&frame(b"PAR")).is_err());
        let mut wire = GiopMessage::CloseConnection
            .encode(Endian::native())
            .unwrap()
            .to_vec();
        wire[4] = 99; // bad version
        assert!(GiopMessage::decode(&Frame::from(wire)).is_err());
    }

    #[test]
    fn lying_service_context_length_rejected() {
        // A service-context entry claiming more bytes than the stream
        // holds must fail with a typed CDR error, not panic or over-read.
        let mut w = CdrWriter::new(Endian::native());
        let h = RequestHeader {
            service_context: vec![],
            ..sample_request()
        };
        h.encode(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        // Rewrite the trailing service-context count (0) to 1 and
        // append an entry whose length lies about the payload.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&1u32.to_ne_bytes());
        let mut w2 = CdrWriter::new(Endian::native());
        w2.put_u32(9); // slot id
        w2.put_u32(10_000); // claimed length
        w2.put_bytes(b"xy"); // actual payload
        bytes.extend_from_slice(&w2.into_bytes());
        let mut r = CdrReader::new(&bytes, Endian::native());
        assert!(RequestHeader::decode(&mut r).is_err());
    }

    #[test]
    fn truncated_body_rejected() {
        let msg = GiopMessage::Reply(
            ReplyHeader {
                request_id: 1,
                status: ReplyStatus::NoException,
            },
            Bytes::from(vec![7u8; 100]),
        );
        let wire = msg.encode(Endian::native()).unwrap();
        let cut = wire.slice(0..wire.len() - 10);
        assert!(GiopMessage::decode(&cut).is_err());
        assert!(GiopMessage::decode(&Frame::from(cut.to_vec())).is_err());
    }
}
