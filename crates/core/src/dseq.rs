//! Distributed sequences — the `dsequence` argument type.
//!
//! A [`DSequence<T>`] is the Rust mapping of the paper's
//! `dsequence<T, [length], [distribution]>`: a one-dimensional sequence
//! whose elements live in the address spaces of an SPMD program's
//! computing threads. Each computing thread holds one `DSequence` value
//! containing *its* local part plus the (replicated) distribution
//! template.
//!
//! Faithful to §2.2 of the paper:
//!
//! * collective methods ("it is assumed that most invocations of the
//!   methods on the sequence will be SPMD-style") take the thread's RTS
//!   endpoint; every thread must call them together,
//! * [`DSequence::set_len`]: "if a sequence is shrunk, the data above the
//!   length value will be discarded, if a sequence is lengthened, new
//!   elements will be added to the ownership of the computing thread
//!   which owned the last elements of the old sequence",
//! * [`DSequence::redistribute`] reshuffles elements to a new template,
//! * [`DSequence::get`] is `operator[]`: element access with location
//!   transparency (the owner broadcasts); out-of-range access is an
//!   error,
//! * [`DSequence::from_local`] is the conversion constructor: adopt
//!   locally-managed memory with no extra copy, deriving the template
//!   from the per-thread lengths,
//! * [`DSequence::local_data`] / [`DSequence::into_local`] convert back
//!   to the program's own memory management.

use crate::dist::DistTempl;
use crate::error::{PardisError, PardisResult};
use bytes::Bytes;
use pardis_cdr::byteswap::{as_byte_slice, try_cast_slice, Pod};
use pardis_cdr::{CdrReader, CdrResult, CdrWriter, Endian};
use pardis_rts::Endpoint;
use std::fmt;
use std::sync::Arc;

/// Element types a distributed sequence can carry.
///
/// The paper allows "any nondistributed type defined in IDL"; this trait
/// is implemented for the primitive types used by the evaluation
/// (`double` above all). Elements are plain old data ([`Pod`]), so a
/// sequence can lend its storage to a frame and view a received frame
/// in place.
pub trait Elem: Pod + Send + Sync + Default + 'static {
    /// CDR type code of the element.
    fn typecode() -> pardis_cdr::TypeCode;
    /// Size of one element on the wire (CDR, primitive types only).
    fn wire_size() -> usize;
    /// Marshal a slice of elements.
    fn write_slice(w: &mut CdrWriter, v: &[Self]);
    /// Unmarshal `n` elements.
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()>;

    /// Native-order byte image, copied into new storage.
    fn to_native_bytes(v: &[Self]) -> Bytes {
        Bytes::copy_from_slice(as_byte_slice(v))
    }

    /// Rebuild elements from a native-order byte image: one copy,
    /// wherever `b` starts. A trailing partial element is ignored.
    fn from_native_bytes(b: &[u8]) -> Vec<Self> {
        let mut out = Vec::with_capacity(b.len() / std::mem::size_of::<Self>());
        extend_from_native(&mut out, b);
        out
    }
}

/// Append the whole elements of a native-order byte image to `out`,
/// copying once: straight from the bytes when they cast to `[T]`, one
/// element at a time when they are misaligned.
fn extend_from_native<T: Elem>(out: &mut Vec<T>, b: &[u8]) {
    let n = b.len() / std::mem::size_of::<T>();
    let b = &b[..n * std::mem::size_of::<T>()];
    match try_cast_slice(b) {
        Some(v) => out.extend_from_slice(v),
        None => T::read_slice(&mut CdrReader::new(b, Endian::native()), n, out)
            .expect("the reader holds exactly `n` whole elements"),
    }
}

impl Elem for f64 {
    fn typecode() -> pardis_cdr::TypeCode {
        pardis_cdr::TypeCode::Double
    }
    fn wire_size() -> usize {
        8
    }
    fn write_slice(w: &mut CdrWriter, v: &[Self]) {
        w.put_f64_slice(v);
    }
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()> {
        r.get_f64_slice(n, out)
    }
}

impl Elem for i32 {
    fn typecode() -> pardis_cdr::TypeCode {
        pardis_cdr::TypeCode::Long
    }
    fn wire_size() -> usize {
        4
    }
    fn write_slice(w: &mut CdrWriter, v: &[Self]) {
        w.put_i32_slice(v);
    }
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()> {
        r.get_i32_slice(n, out)
    }
}

impl Elem for u8 {
    fn typecode() -> pardis_cdr::TypeCode {
        pardis_cdr::TypeCode::Octet
    }
    fn wire_size() -> usize {
        1
    }
    fn write_slice(w: &mut CdrWriter, v: &[Self]) {
        w.put_bytes(v);
    }
    fn read_slice(r: &mut CdrReader<'_>, n: usize, out: &mut Vec<Self>) -> CdrResult<()> {
        out.extend_from_slice(&r.take(n)?);
        Ok(())
    }
}

/// The storage of a sequence's local part: shared and copy-on-write.
#[derive(Clone)]
enum Local<T: Elem> {
    /// Program memory, reference-counted so that an outgoing frame can
    /// borrow it while the call is in flight.
    Owned(Arc<Vec<T>>),
    /// A read-only view of received bytes, checked at construction to
    /// cast to `[T]`. It keeps the whole frame it points into alive.
    View(Bytes),
}

/// Lends a sequence's storage to a [`Bytes`] without copying it.
struct PodOwner<T: Elem>(Arc<Vec<T>>);

impl<T: Elem> AsRef<[u8]> for PodOwner<T> {
    fn as_ref(&self) -> &[u8] {
        as_byte_slice(&self.0)
    }
}

impl<T: Elem> Local<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Local::Owned(v) => v,
            Local::View(b) => try_cast_slice(b).expect("a view is checked when it is built"),
        }
    }

    /// The storage as bytes, without copying.
    fn share(&self) -> Bytes {
        match self {
            Local::Owned(v) => Bytes::from_owner(PodOwner(Arc::clone(v))),
            Local::View(b) => b.clone(),
        }
    }

    /// The elements, owned by this sequence alone: taken over in place
    /// when nothing else shares them, copied once otherwise.
    fn make_mut(&mut self) -> &mut Vec<T> {
        if let Local::View(b) = self {
            *self = Local::Owned(Arc::new(T::from_native_bytes(b)));
        }
        match self {
            Local::Owned(v) => Arc::make_mut(v),
            Local::View(_) => unreachable!("a view was detached above"),
        }
    }

    fn into_vec(self) -> Vec<T> {
        match self {
            Local::Owned(v) => Arc::try_unwrap(v).unwrap_or_else(|v| v.to_vec()),
            Local::View(b) => T::from_native_bytes(&b),
        }
    }
}

impl<T: Elem + PartialEq> PartialEq for Local<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Elem + fmt::Debug> fmt::Debug for Local<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A distributed sequence as held by one computing thread.
///
/// The local part is shared copy-on-write: passing the sequence to an
/// invocation lends its storage to the outgoing frame, and a sequence
/// built from a received argument or result views the frame in place.
/// The first mutation of a shared or viewed local part copies it once.
#[cfg_attr(not(feature = "analyze"), derive(Clone, PartialEq))]
#[derive(Debug)]
pub struct DSequence<T: Elem> {
    local: Local<T>,
    templ: DistTempl,
    thread: usize,
    /// Optional IDL bound (`dsequence<double, 1024>`).
    bound: Option<usize>,
    /// Identity of this local buffer for the race analyzer: a
    /// per-thread creation counter, never an address, so seeded replays
    /// assign identical ids.
    #[cfg(feature = "analyze")]
    buf_id: u64,
}

#[cfg(feature = "analyze")]
impl<T: Elem> Clone for DSequence<T> {
    fn clone(&self) -> Self {
        DSequence {
            local: self.local.clone(),
            templ: self.templ.clone(),
            thread: self.thread,
            bound: self.bound,
            // The clone shares the storage copy-on-write, so its first
            // write detaches it: accesses to the clone cannot race with
            // transfers of the original.
            buf_id: crate::race::new_buf_id(),
        }
    }
}

#[cfg(feature = "analyze")]
impl<T: Elem + PartialEq> PartialEq for DSequence<T> {
    fn eq(&self, other: &Self) -> bool {
        // Buffer identity is analyzer metadata, not value.
        self.local == other.local
            && self.templ == other.templ
            && self.thread == other.thread
            && self.bound == other.bound
    }
}

impl<T: Elem> DSequence<T> {
    /// Collectively create a sequence of `len` default elements with the
    /// given template (or uniform blockwise when `None`).
    pub fn new(rts: &Endpoint, len: usize, templ: Option<DistTempl>) -> PardisResult<DSequence<T>> {
        let templ = templ.unwrap_or_else(|| DistTempl::block(len, rts.size()));
        Self::validate_templ(rts, len, &templ)?;
        let local = vec![T::default(); templ.count(rts.rank())];
        Ok(Self::with_local(
            Local::Owned(Arc::new(local)),
            templ,
            rts.rank(),
        ))
    }

    /// Conversion constructor: adopt this thread's locally managed data
    /// with no copy; the template is derived by all-gathering the local
    /// lengths. (The C++ mapping's `release` flag is subsumed by Rust
    /// ownership: the sequence owns `local` from here on.)
    pub fn from_local(rts: &Endpoint, local: Vec<T>) -> PardisResult<DSequence<T>> {
        let lens = rts.allgather_u64(local.len() as u64)?;
        let templ = DistTempl::from_counts(lens.into_iter().map(|l| l as usize).collect());
        Ok(Self::with_local(
            Local::Owned(Arc::new(local)),
            templ,
            rts.rank(),
        ))
    }

    /// Non-collective constructor used by the ORB when it has already
    /// materialized the local part and template (argument delivery).
    pub fn from_parts(
        local: Vec<T>,
        templ: DistTempl,
        thread: usize,
    ) -> PardisResult<DSequence<T>> {
        Self::check_count(local.len(), &templ, thread)?;
        Ok(Self::with_local(
            Local::Owned(Arc::new(local)),
            templ,
            thread,
        ))
    }

    /// Non-collective constructor over received native-order bytes (an
    /// argument or result the ORB delivered): the sequence views them in
    /// place when they cast to `[T]`, and copies them once when they
    /// are misaligned. A length that is not a whole number of elements
    /// is an error, never a truncated sequence.
    pub fn from_bytes(local: Bytes, templ: DistTempl, thread: usize) -> PardisResult<DSequence<T>> {
        let size = std::mem::size_of::<T>();
        if !local.len().is_multiple_of(size) {
            return Err(PardisError::BadDistArg(format!(
                "{} bytes are not a whole number of {size}-byte elements",
                local.len()
            )));
        }
        Self::check_count(local.len() / size, &templ, thread)?;
        let local = if try_cast_slice::<T>(&local).is_some() {
            Local::View(local)
        } else {
            Local::Owned(Arc::new(T::from_native_bytes(&local)))
        };
        Ok(Self::with_local(local, templ, thread))
    }

    fn with_local(local: Local<T>, templ: DistTempl, thread: usize) -> DSequence<T> {
        DSequence {
            local,
            templ,
            thread,
            bound: None,
            #[cfg(feature = "analyze")]
            buf_id: crate::race::new_buf_id(),
        }
    }

    fn check_count(count: usize, templ: &DistTempl, thread: usize) -> PardisResult<()> {
        if count != templ.count(thread) {
            return Err(PardisError::BadDistArg(format!(
                "local part has {count} elements, template assigns {} to thread {thread}",
                templ.count(thread),
            )));
        }
        Ok(())
    }

    fn validate_templ(rts: &Endpoint, len: usize, templ: &DistTempl) -> PardisResult<()> {
        if templ.nthreads() != rts.size() {
            return Err(PardisError::BadDistArg(format!(
                "template names {} threads, program has {}",
                templ.nthreads(),
                rts.size()
            )));
        }
        if templ.len() != len {
            return Err(PardisError::BadDistArg(format!(
                "template covers {} elements, sequence has {}",
                templ.len(),
                len
            )));
        }
        Ok(())
    }

    /// Attach an IDL bound; operations that would exceed it fail.
    pub fn with_bound(mut self, bound: usize) -> PardisResult<DSequence<T>> {
        if self.len() > bound {
            return Err(PardisError::BadDistArg(format!(
                "sequence length {} exceeds bound {bound}",
                self.len()
            )));
        }
        self.bound = Some(bound);
        Ok(self)
    }

    /// Global length of the sequence.
    pub fn len(&self) -> usize {
        self.templ.len()
    }

    /// Whether the sequence is globally empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distribution template.
    pub fn templ(&self) -> &DistTempl {
        &self.templ
    }

    /// The owning thread index of this local view.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Number of locally owned elements (`local_length()` in the C++
    /// mapping).
    pub fn local_len(&self) -> usize {
        self.local.as_slice().len()
    }

    /// Borrow the locally owned elements (`local_data()`), without
    /// copying.
    pub fn local_data(&self) -> &[T] {
        #[cfg(feature = "analyze")]
        crate::race::on_access(self.buf_id, crate::race::AccessKind::Read, "local_data");
        self.local.as_slice()
    }

    /// Mutably borrow the locally owned elements. Copies them once if
    /// they are shared (an invocation still holds them) or a view of a
    /// received frame; takes them over in place otherwise.
    pub fn local_data_mut(&mut self) -> &mut [T] {
        #[cfg(feature = "analyze")]
        crate::race::on_access(
            self.buf_id,
            crate::race::AccessKind::Write,
            "local_data_mut",
        );
        self.local.make_mut()
    }

    /// The local part as bytes for an outgoing frame, sharing the
    /// storage instead of copying it. The race analyzer sees a
    /// `local_data` read, which it pairs with the transfer.
    pub(crate) fn share(&self) -> Bytes {
        let _ = self.local_data();
        self.local.share()
    }

    /// The buffer identity the race analyzer keys intervals on.
    #[cfg(feature = "analyze")]
    pub(crate) fn buf_id(&self) -> u64 {
        self.buf_id
    }

    /// Give the local part back to the program's own memory management.
    pub fn into_local(self) -> Vec<T> {
        self.local.into_vec()
    }

    /// Global index range owned locally.
    pub fn local_range(&self) -> std::ops::Range<usize> {
        self.templ.range(self.thread)
    }

    /// Collective `operator[]`: every thread learns the value at global
    /// index `idx` (the owner broadcasts it).
    pub fn get(&self, rts: &Endpoint, idx: usize) -> PardisResult<T> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        let data = if rts.rank() == owner {
            Some(T::to_native_bytes(std::slice::from_ref(
                &self.local.as_slice()[local_idx],
            )))
        } else {
            None
        };
        let bytes = rts.broadcast(owner, data)?;
        T::from_native_bytes(&bytes).pop().ok_or_else(|| {
            PardisError::Internal("element broadcast returned an empty payload".into())
        })
    }

    /// Collective element store: all threads pass the same `(idx, v)`;
    /// the owner records it.
    pub fn set(&mut self, _rts: &Endpoint, idx: usize, v: T) -> PardisResult<()> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        if owner == self.thread {
            self.local.make_mut()[local_idx] = v;
        }
        Ok(())
    }

    /// Collective length change (`length(unsigned int)` in the mapping):
    /// shrink discards the tail, growth default-fills new elements owned
    /// by the previous last owner.
    pub fn set_len(&mut self, _rts: &Endpoint, new_len: usize) -> PardisResult<()> {
        if let Some(b) = self.bound {
            if new_len > b {
                return Err(PardisError::BadDistArg(format!(
                    "new length {new_len} exceeds bound {b}"
                )));
            }
        }
        let new_templ = self.templ.resized(new_len);
        self.local
            .make_mut()
            .resize(new_templ.count(self.thread), T::default());
        self.templ = new_templ;
        Ok(())
    }

    /// Collective redistribution to a new template (same total length).
    /// Elements move between threads with an all-to-all exchange.
    pub fn redistribute(&mut self, rts: &Endpoint, new_templ: DistTempl) -> PardisResult<()> {
        Self::validate_templ(rts, self.len(), &new_templ)?;
        if new_templ == self.templ {
            return Ok(());
        }
        #[cfg(feature = "analyze")]
        crate::race::on_access(self.buf_id, crate::race::AccessKind::Write, "redistribute");
        let my_off = self.templ.offset(self.thread);
        let size = std::mem::size_of::<T>();
        // One outgoing chunk per destination thread, each a slice of the
        // shared storage.
        let shared = self.local.share();
        let mut outgoing: Vec<Bytes> = vec![Bytes::new(); rts.size()];
        for (dst, range) in self.templ.transfers_to(self.thread, &new_templ) {
            let lo = range.start - my_off;
            let hi = range.end - my_off;
            outgoing[dst] = shared.slice(lo * size..hi * size);
        }
        let incoming = rts.alltoallv_bytes(outgoing)?;
        // Reassemble in source order: contiguous ownership means source
        // fragments arrive in ascending global order by source rank.
        let mut new_local = Vec::with_capacity(new_templ.count(self.thread));
        for chunk in &incoming {
            extend_from_native(&mut new_local, chunk);
        }
        if new_local.len() != new_templ.count(self.thread) {
            return Err(PardisError::BadDistArg(format!(
                "redistribute produced {} local elements, expected {}",
                new_local.len(),
                new_templ.count(self.thread)
            )));
        }
        self.local = Local::Owned(Arc::new(new_local));
        self.templ = new_templ;
        Ok(())
    }

    /// Collective evacuation onto a survivor set: the excluded threads
    /// give up every element, the survivors split the full length
    /// blockwise in rank order (see [`DistTempl::remap_onto`]). Values
    /// and total length are preserved.
    ///
    /// This is the graceful-degradation move for a rank the failure
    /// detector *suspects*: run it while the suspect can still
    /// participate in the exchange and its data survives the later
    /// confirmation. After a rank is confirmed dead its local part is
    /// unrecoverable — evacuation is proactive by design.
    pub fn redistribute_onto(&mut self, rts: &Endpoint, survivors: &[usize]) -> PardisResult<()> {
        let new_templ = self.templ.remap_onto(survivors)?;
        self.redistribute(rts, new_templ)
    }

    /// Collectively materialize the whole sequence on every thread
    /// (debug/verification helper, not a transfer path).
    pub fn to_global(&self, rts: &Endpoint) -> PardisResult<Vec<T>> {
        let chunks = rts.allgather_bytes(self.local.share())?;
        let mut out = Vec::with_capacity(self.len());
        for c in &chunks {
            extend_from_native(&mut out, c);
        }
        Ok(out)
    }
}

impl DSequence<f64> {
    /// Collectively expose the sequence through the **one-sided**
    /// run-time system interface, enabling non-collective element
    /// access from any thread.
    ///
    /// The paper's message-passing mapping forces SPMD-style collective
    /// calls on `operator[]` because it "cannot handle asynchronous
    /// access to an arbitrary context" (§2.2), and commits to a
    /// one-sided interface as future work (§2.3). [`ExposedSeq`] is that
    /// mapping: after `expose`, any single thread may read or write any
    /// element without the owner participating.
    ///
    /// The sequence moves into the window for the exposure epoch;
    /// [`ExposedSeq::into_seq`] (collective) recovers it.
    pub fn expose(self, rts: &Endpoint) -> PardisResult<ExposedSeq> {
        let DSequence {
            local,
            templ,
            thread,
            bound,
            ..
        } = self;
        let win = pardis_rts::Window::create(rts, local.into_vec())?;
        Ok(ExposedSeq {
            win,
            templ,
            thread,
            bound,
        })
    }
}

/// A distributed sequence exposed for one-sided access (see
/// [`DSequence::expose`]).
#[derive(Debug, Clone)]
pub struct ExposedSeq {
    win: pardis_rts::Window,
    templ: DistTempl,
    thread: usize,
    bound: Option<usize>,
}

impl ExposedSeq {
    /// Global length.
    pub fn len(&self) -> usize {
        self.templ.len()
    }

    /// Whether the sequence is globally empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distribution template.
    pub fn templ(&self) -> &DistTempl {
        &self.templ
    }

    /// **Non-collective** element read: location-transparent
    /// `operator[]` backed by a one-sided get.
    pub fn get(&self, idx: usize) -> PardisResult<f64> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        let v = self
            .win
            .get_one(owner, local_idx)
            .map_err(PardisError::from)?;
        #[cfg(feature = "analyze")]
        crate::race::on_window_access(self.win.id(), owner, local_idx, 1, false);
        Ok(v)
    }

    /// **Non-collective** element write.
    pub fn put(&self, idx: usize, v: f64) -> PardisResult<()> {
        let (owner, local_idx) = self.templ.owner_of(idx)?;
        self.win
            .put(owner, local_idx, &[v])
            .map_err(PardisError::from)?;
        #[cfg(feature = "analyze")]
        crate::race::on_window_access(self.win.id(), owner, local_idx, 1, true);
        Ok(())
    }

    /// **Non-collective** bulk read of `[start, start+len)`, spanning
    /// owners as needed.
    pub fn get_range(&self, start: usize, len: usize) -> PardisResult<Vec<f64>> {
        if start + len > self.len() {
            return Err(PardisError::BadDistArg(format!(
                "range [{start}, {}) beyond sequence length {}",
                start + len,
                self.len()
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut idx = start;
        while idx < start + len {
            let (owner, local_idx) = self.templ.owner_of(idx)?;
            let owner_end = self.templ.range(owner).end;
            let take = (start + len - idx).min(owner_end - idx);
            out.extend(
                self.win
                    .get(owner, local_idx, take)
                    .map_err(PardisError::from)?,
            );
            #[cfg(feature = "analyze")]
            crate::race::on_window_access(self.win.id(), owner, local_idx, take, false);
            idx += take;
        }
        Ok(out)
    }

    /// Epoch boundary (collective): all one-sided operations issued
    /// before the fence are visible after it.
    pub fn fence(&self, rts: &Endpoint) {
        self.win.fence(rts);
        #[cfg(feature = "analyze")]
        {
            // The fence barrier made every pre-fence access visible;
            // one rank drains the epoch's log before the second barrier
            // releases the others into the next epoch.
            if self.thread == 0 {
                crate::race::window_fence(self.win.id());
            }
            rts.barrier();
        }
    }

    /// Collectively end the exposure and recover the sequence.
    pub fn into_seq(self, rts: &Endpoint) -> PardisResult<DSequence<f64>> {
        #[cfg(feature = "analyze")]
        {
            // Close the final exposure epoch; `free` barriers again
            // before tearing the window down.
            rts.barrier();
            if self.thread == 0 {
                crate::race::window_fence(self.win.id());
            }
        }
        let local = self.win.free(rts);
        let mut seq = DSequence::from_parts(local, self.templ, self.thread)?;
        if let Some(b) = self.bound {
            seq = seq.with_bound(b)?;
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardis_rts::Domain;

    #[test]
    fn new_default_blockwise() {
        let r = Domain::run(4, |ep| {
            let s = DSequence::<f64>::new(&ep, 10, None).unwrap();
            (s.local_len(), s.len(), s.local_range())
        });
        assert_eq!(r[0], (3, 10, 0..3));
        assert_eq!(r[1], (3, 10, 3..6));
        assert_eq!(r[2], (2, 10, 6..8));
        assert_eq!(r[3], (2, 10, 8..10));
    }

    #[test]
    fn from_local_derives_template() {
        let r = Domain::run(3, |ep| {
            let mine: Vec<f64> = vec![ep.rank() as f64; ep.rank() + 1];
            let s = DSequence::from_local(&ep, mine).unwrap();
            (s.len(), s.templ().counts().to_vec())
        });
        for (len, counts) in r {
            assert_eq!(len, 6);
            assert_eq!(counts, vec![1, 2, 3]);
        }
    }

    #[test]
    fn get_broadcasts_from_owner() {
        let r = Domain::run(3, |ep| {
            let mine: Vec<f64> = (0..4).map(|i| (ep.rank() * 4 + i) as f64).collect();
            let s = DSequence::from_local(&ep, mine).unwrap();
            // Index 9 lives on thread 2, local index 1 -> value 9.0
            s.get(&ep, 9).unwrap()
        });
        assert_eq!(r, vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn get_out_of_range_errors() {
        Domain::run(2, |ep| {
            let s = DSequence::<f64>::new(&ep, 4, None).unwrap();
            assert!(s.get(&ep, 4).is_err());
        });
    }

    #[test]
    fn set_then_get() {
        Domain::run(2, |ep| {
            let mut s = DSequence::<f64>::new(&ep, 6, None).unwrap();
            s.set(&ep, 5, 42.0).unwrap();
            assert_eq!(s.get(&ep, 5).unwrap(), 42.0);
            // Non-owners were untouched locally.
            if ep.rank() == 0 {
                assert!(s.local_data().iter().all(|&x| x == 0.0));
            }
        });
    }

    #[test]
    fn shrink_discards_tail() {
        Domain::run(3, |ep| {
            let mine: Vec<f64> = (0..3).map(|i| (ep.rank() * 3 + i) as f64).collect();
            let mut s = DSequence::from_local(&ep, mine).unwrap();
            s.set_len(&ep, 4).unwrap();
            assert_eq!(s.len(), 4);
            assert_eq!(s.templ().counts(), &[3, 1, 0]);
            let g = s.to_global(&ep).unwrap();
            assert_eq!(g, vec![0.0, 1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn grow_extends_last_owner_with_defaults() {
        Domain::run(2, |ep| {
            let mine = vec![1.0f64; 2];
            let mut s = DSequence::from_local(&ep, mine).unwrap();
            s.set_len(&ep, 7).unwrap();
            assert_eq!(s.templ().counts(), &[2, 5]);
            if ep.rank() == 1 {
                assert_eq!(s.local_data(), &[1.0, 1.0, 0.0, 0.0, 0.0]);
            }
        });
    }

    #[test]
    fn redistribute_preserves_contents() {
        Domain::run(4, |ep| {
            let s0 = DSequence::<f64>::new(&ep, 20, None).unwrap();
            let mut s = s0;
            // Fill with global indices.
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            let want: Vec<f64> = (0..20).map(|i| i as f64).collect();
            assert_eq!(s.to_global(&ep).unwrap(), want);

            let new = DistTempl::proportional(20, &crate::dist::Proportions::new(vec![2, 4, 2, 4]));
            s.redistribute(&ep, new.clone()).unwrap();
            assert_eq!(s.templ(), &new);
            assert_eq!(s.local_len(), new.count(ep.rank()));
            assert_eq!(s.to_global(&ep).unwrap(), want);

            // And back to block.
            s.redistribute(&ep, DistTempl::block(20, 4)).unwrap();
            assert_eq!(s.to_global(&ep).unwrap(), want);
        });
    }

    #[test]
    fn redistribute_onto_evacuates_suspected_rank() {
        Domain::run(4, |ep| {
            let mut s = DSequence::<f64>::new(&ep, 10, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            s.redistribute_onto(&ep, &[0, 1, 3]).unwrap();
            assert_eq!(s.len(), 10, "total length preserved");
            assert_eq!(s.templ().count(2), 0, "suspect owns nothing");
            let want: Vec<f64> = (0..10).map(|i| i as f64).collect();
            assert_eq!(s.to_global(&ep).unwrap(), want, "values preserved");
        });
    }

    #[test]
    fn redistribute_noop_is_cheap() {
        Domain::run(2, |ep| {
            let mut s = DSequence::<i32>::new(&ep, 8, None).unwrap();
            let t = s.templ().clone();
            s.redistribute(&ep, t).unwrap();
            assert_eq!(s.len(), 8);
        });
    }

    #[test]
    fn bound_enforced() {
        Domain::run(2, |ep| {
            let s = DSequence::<f64>::new(&ep, 4, None)
                .unwrap()
                .with_bound(8)
                .unwrap();
            let mut s = s;
            assert!(s.set_len(&ep, 8).is_ok());
            assert!(s.set_len(&ep, 9).is_err());
            // Constructor-time violation:
            let t = DSequence::<f64>::new(&ep, 4, None).unwrap().with_bound(3);
            assert!(t.is_err());
        });
    }

    #[test]
    fn from_parts_checks_length() {
        let t = DistTempl::block(10, 2);
        assert!(DSequence::<f64>::from_parts(vec![0.0; 5], t.clone(), 0).is_ok());
        assert!(DSequence::<f64>::from_parts(vec![0.0; 4], t, 0).is_err());
    }

    #[test]
    fn exposed_sequence_one_sided_access() {
        Domain::run(4, |ep| {
            let mut s = DSequence::<f64>::new(&ep, 20, None).unwrap();
            let off = s.local_range().start;
            for (i, x) in s.local_data_mut().iter_mut().enumerate() {
                *x = (off + i) as f64;
            }
            let ex = s.expose(&ep).unwrap();
            // Non-collective: only rank 1 reads and writes.
            if ep.rank() == 1 {
                assert_eq!(ex.get(17).unwrap(), 17.0);
                assert_eq!(
                    ex.get_range(3, 10).unwrap(),
                    (3..13).map(|i| i as f64).collect::<Vec<_>>()
                );
                ex.put(0, -1.0).unwrap();
            }
            ex.fence(&ep);
            // Visible everywhere after the fence.
            assert_eq!(ex.get(0).unwrap(), -1.0);
            let s = ex.into_seq(&ep).unwrap();
            if ep.rank() == 0 {
                assert_eq!(s.local_data()[0], -1.0);
            }
            assert_eq!(s.len(), 20);
        });
    }

    #[test]
    fn exposed_range_errors() {
        Domain::run(2, |ep| {
            let s = DSequence::<f64>::new(&ep, 6, None).unwrap();
            let ex = s.expose(&ep).unwrap();
            assert!(ex.get(6).is_err());
            assert!(ex.get_range(4, 3).is_err());
            ex.fence(&ep);
            let _ = ex.into_seq(&ep).unwrap();
        });
    }

    #[test]
    fn shared_storage_copies_on_first_write_only() {
        let t = DistTempl::block(4, 1);
        let mut s = DSequence::from_parts(vec![1.0f64, 2.0, 3.0, 4.0], t, 0).unwrap();
        let p = s.local_data().as_ptr();
        let lent = s.share();
        assert_eq!(lent.as_ptr(), p as *const u8, "sharing does not copy");
        s.local_data_mut()[0] = 9.0;
        assert_ne!(s.local_data().as_ptr(), p, "a shared write copies");
        assert_eq!(try_cast_slice::<f64>(&lent).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        drop(lent);
        let q = s.local_data().as_ptr();
        s.local_data_mut()[1] = 8.0;
        s.set_len(&Domain::new(1)[0], 4).unwrap();
        assert_eq!(s.local_data().as_ptr(), q, "a sole owner writes in place");
        assert_eq!(s.local_data(), &[9.0, 8.0, 3.0, 4.0]);

        let c = s.clone();
        let v = s.into_local();
        assert_ne!(v.as_ptr(), q, "into_local of shared storage copies");
        let last = c.into_local();
        assert_eq!(last.as_ptr(), q, "the last owner takes it over");
        assert_eq!(v, vec![9.0, 8.0, 3.0, 4.0]);
    }

    #[test]
    fn from_bytes_views_aligned_bytes() {
        let vals: Vec<f64> = (0..16).map(|i| i as f64 * 1.5).collect();
        let frame = Bytes::from_owner(PodOwner(Arc::new(vals.clone())));
        let t = DistTempl::block(16, 1);
        let mut s = DSequence::<f64>::from_bytes(frame.clone(), t, 0).unwrap();
        assert_eq!(s.local_data().as_ptr() as *const u8, frame.as_ptr());
        assert_eq!(s.local_data(), &vals[..]);
        s.local_data_mut()[0] = -1.0;
        assert_ne!(s.local_data().as_ptr() as *const u8, frame.as_ptr());
        assert_eq!(try_cast_slice::<f64>(&frame).unwrap(), &vals[..]);
    }

    #[test]
    fn from_bytes_copies_misaligned_bytes_once() {
        let vals: Vec<f64> = (0..16).map(|i| i as f64 * 1.5).collect();
        let mut raw = vec![0u8; 2];
        let skew = if (raw.as_ptr() as usize + 1).is_multiple_of(8) {
            2
        } else {
            1
        };
        raw.truncate(skew);
        raw.extend_from_slice(as_byte_slice(&vals));
        let frame = Bytes::from(raw).slice(skew..);
        assert!(!(frame.as_ptr() as usize).is_multiple_of(8));
        let t = DistTempl::block(16, 1);
        let mut s = DSequence::<f64>::from_bytes(frame.clone(), t, 0).unwrap();
        let p = s.local_data().as_ptr();
        assert_ne!(
            p as *const u8,
            frame.as_ptr(),
            "misaligned bytes are copied"
        );
        assert_eq!(s.local_data(), &vals[..]);
        s.local_data_mut()[0] = -1.0;
        assert_eq!(s.local_data().as_ptr(), p, "and only once");
    }

    #[test]
    fn from_bytes_rejects_partial_and_miscounted_parts() {
        let frame = Bytes::from(vec![0u8; 20]);
        let t = DistTempl::block(2, 1);
        assert!(DSequence::<f64>::from_bytes(frame.slice(..12), t.clone(), 0).is_err());
        assert!(DSequence::<f64>::from_bytes(frame.slice(..8), t.clone(), 0).is_err());
        assert!(DSequence::<i32>::from_bytes(frame.slice(..8), t, 0).is_ok());
    }

    #[test]
    fn i32_and_u8_sequences() {
        Domain::run(2, |ep| {
            let mut si = DSequence::<i32>::new(&ep, 5, None).unwrap();
            si.set(&ep, 0, -7).unwrap();
            assert_eq!(si.get(&ep, 0).unwrap(), -7);
            let su = DSequence::<u8>::from_local(&ep, vec![ep.rank() as u8; 2]).unwrap();
            assert_eq!(su.to_global(&ep).unwrap(), vec![0, 0, 1, 1]);
        });
    }
}
