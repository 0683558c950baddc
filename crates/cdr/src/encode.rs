//! The CDR encoder.
//!
//! A [`CdrWriter`] owns a growable byte buffer and tracks the stream
//! position so that every primitive lands on its natural alignment
//! boundary, exactly as CORBA CDR requires. The writer always encodes in
//! a chosen byte order (normally [`Endian::native`]); the order is
//! recorded out of band (e.g. in a GIOP header flag) so receivers can
//! translate.

use crate::{align_up, CdrResult, Endian};
use bytes::Bytes;

/// Pad byte written into alignment gaps. CORBA leaves gap contents
/// unspecified; using a constant keeps encodings deterministic, which the
/// test suite and the simulator rely on.
pub const PAD_BYTE: u8 = 0;

/// An aligning, endian-aware binary encoder.
#[derive(Debug, Clone)]
pub struct CdrWriter {
    buf: Vec<u8>,
    endian: Endian,
    /// Stream offset of `buf[0]`. Non-zero when encoding a fragment that
    /// will be appended to an existing stream (multi-port chunks), so
    /// alignment stays consistent with the final assembled stream.
    base: usize,
}

impl CdrWriter {
    /// Create a writer encoding in byte order `endian`.
    pub fn new(endian: Endian) -> CdrWriter {
        CdrWriter {
            buf: Vec::new(),
            endian,
            base: 0,
        }
    }

    /// Create a writer with a pre-reserved capacity.
    pub fn with_capacity(endian: Endian, cap: usize) -> CdrWriter {
        CdrWriter {
            buf: Vec::with_capacity(cap),
            endian,
            base: 0,
        }
    }

    /// Create a writer whose stream position starts at `base` instead of
    /// zero. Used when a fragment is encoded independently (by another
    /// computing thread) but must align as if it were at offset `base` of
    /// one logical stream.
    pub fn at_offset(endian: Endian, base: usize) -> CdrWriter {
        CdrWriter {
            buf: Vec::new(),
            endian,
            base,
        }
    }

    /// Byte order this writer encodes in.
    #[inline]
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Current stream position (including any base offset).
    #[inline]
    pub fn position(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Number of bytes written into this writer's own buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Insert pad bytes so the next write lands on `align`.
    pub fn align(&mut self, align: usize) {
        let pos = self.position();
        let target = align_up(pos, align);
        for _ in pos..target {
            self.buf.push(PAD_BYTE);
        }
    }

    /// Make room for at least `additional` more bytes, so that writing
    /// a body of known size into the buffer does not reallocate it.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append raw bytes without alignment.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `bytes` with every `word`-byte element byte-reversed, in
    /// one pass (data translation while marshaling): the workspace's
    /// one translating copy. 4- and 8-byte words are swapped whole
    /// (`u32`/`u64::swap_bytes`); `word` must divide `bytes.len()`.
    pub fn put_swapped(&mut self, bytes: &[u8], word: usize) {
        debug_assert!(word > 0 && bytes.len().is_multiple_of(word));
        let start = self.buf.len();
        self.buf.resize(start + bytes.len(), 0);
        let dst = &mut self.buf[start..];
        match word {
            8 => swap_words(dst, bytes, |w: [u8; 8]| {
                u64::from_ne_bytes(w).swap_bytes().to_ne_bytes()
            }),
            4 => swap_words(dst, bytes, |w: [u8; 4]| {
                u32::from_ne_bytes(w).swap_bytes().to_ne_bytes()
            }),
            _ => {
                for (d, s) in dst.chunks_exact_mut(word).zip(bytes.chunks_exact(word)) {
                    d.iter_mut().zip(s.iter().rev()).for_each(|(d, s)| *d = *s);
                }
            }
        }
    }

    /// Overwrite the `u32` at buffer offset `at` (written earlier, e.g.
    /// as a length placeholder) in this writer's byte order.
    ///
    /// # Panics
    /// Panics if `at + 4` exceeds the bytes written so far.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        let b = match self.endian {
            Endian::Big => v.to_be_bytes(),
            Endian::Little => v.to_le_bytes(),
        };
        self.buf[at..at + 4].copy_from_slice(&b);
    }

    /// Append a single octet (1-byte aligned by definition).
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a boolean as an octet (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append an `i8`.
    #[inline]
    pub fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    /// Append a `u16` aligned to 2.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.align(2);
        let b = match self.endian {
            Endian::Big => v.to_be_bytes(),
            Endian::Little => v.to_le_bytes(),
        };
        self.put_bytes(&b);
    }

    /// Append an `i16` aligned to 2.
    #[inline]
    pub fn put_i16(&mut self, v: i16) {
        self.put_u16(v as u16);
    }

    /// Append a `u32` aligned to 4.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.align(4);
        let b = match self.endian {
            Endian::Big => v.to_be_bytes(),
            Endian::Little => v.to_le_bytes(),
        };
        self.put_bytes(&b);
    }

    /// Append an `i32` aligned to 4. (CORBA `long`.)
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Append a `u64` aligned to 8.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.align(8);
        let b = match self.endian {
            Endian::Big => v.to_be_bytes(),
            Endian::Little => v.to_le_bytes(),
        };
        self.put_bytes(&b);
    }

    /// Append an `i64` aligned to 8. (CORBA `long long`.)
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Append an `f32` aligned to 4. (CORBA `float`.)
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` aligned to 8. (CORBA `double`.)
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a CORBA string: `u32` length *including* the terminating
    /// NUL, then the bytes, then the NUL.
    pub fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32 + 1);
        self.put_bytes(s.as_bytes());
        self.put_u8(0);
    }

    /// Append a slice of `f64` in bulk.
    ///
    /// This is the hot path for distributed sequences of `double`: after
    /// a single 8-byte alignment the elements are copied as one block
    /// (with per-element byteswap only if the target order differs from
    /// native), matching how a production ORB would marshal an array of
    /// primitives.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.align(8);
        if self.endian == Endian::native() {
            // Same order: one bulk copy.
            let bytes = crate::byteswap::f64_slice_as_bytes(v);
            self.put_bytes(bytes);
        } else {
            self.buf.reserve(v.len() * 8);
            for &x in v {
                let b = match self.endian {
                    Endian::Big => x.to_bits().to_be_bytes(),
                    Endian::Little => x.to_bits().to_le_bytes(),
                };
                self.buf.extend_from_slice(&b);
            }
        }
    }

    /// Append a slice of `i32` in bulk (same strategy as
    /// [`CdrWriter::put_f64_slice`]).
    pub fn put_i32_slice(&mut self, v: &[i32]) {
        self.align(4);
        if self.endian == Endian::native() {
            let bytes = crate::byteswap::i32_slice_as_bytes(v);
            self.put_bytes(bytes);
        } else {
            self.buf.reserve(v.len() * 4);
            for &x in v {
                let b = match self.endian {
                    Endian::Big => x.to_be_bytes(),
                    Endian::Little => x.to_le_bytes(),
                };
                self.buf.extend_from_slice(&b);
            }
        }
    }

    /// Encode a value implementing [`crate::Encode`].
    pub fn put<T: crate::Encode + ?Sized>(&mut self, v: &T) -> CdrResult<()> {
        v.encode(self)
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consume the writer and return a cheaply cloneable [`Bytes`].
    pub fn into_shared(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Copy `src` into `dst` (the same length) one `N`-byte word at a
/// time through `swap`.
#[inline(always)]
fn swap_words<const N: usize>(dst: &mut [u8], src: &[u8], swap: impl Fn([u8; N]) -> [u8; N]) {
    for (d, s) in dst.chunks_exact_mut(N).zip(src.chunks_exact(N)) {
        let mut w = [0u8; N];
        w.copy_from_slice(s);
        d.copy_from_slice(&swap(w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_inserts_padding() {
        let mut w = CdrWriter::new(Endian::Big);
        w.put_u8(1);
        w.put_u32(2); // 3 pad bytes
        assert_eq!(w.len(), 8);
        assert_eq!(&w.as_slice()[..4], &[1, 0, 0, 0]);
        w.put_u8(3);
        w.put_f64(1.0); // 7 pad bytes to reach offset 16
        assert_eq!(w.len(), 24);
    }

    #[test]
    fn big_endian_layout_matches_corba() {
        let mut w = CdrWriter::new(Endian::Big);
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4]);
        let mut w = CdrWriter::new(Endian::Little);
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[4, 3, 2, 1]);
    }

    #[test]
    fn string_has_nul_and_length() {
        let mut w = CdrWriter::new(Endian::Big);
        w.put_string("ab");
        // length 3 (includes NUL) + 'a' 'b' '\0'
        assert_eq!(w.as_slice(), &[0, 0, 0, 3, b'a', b'b', 0]);
    }

    #[test]
    fn offset_writer_aligns_relative_to_base() {
        // At base 4, the first f64 must pad 4 bytes to reach offset 8.
        let mut w = CdrWriter::at_offset(Endian::native(), 4);
        w.put_f64(1.0);
        assert_eq!(w.len(), 12);
        assert_eq!(w.position(), 16);
    }

    #[test]
    fn bulk_f64_matches_elementwise() {
        let data = [1.5f64, -2.25, 1e300, 0.0];
        for endian in [Endian::Big, Endian::Little] {
            let mut bulk = CdrWriter::new(endian);
            bulk.put_f64_slice(&data);
            let mut one = CdrWriter::new(endian);
            for &x in &data {
                one.put_f64(x);
            }
            assert_eq!(bulk.as_slice(), one.as_slice(), "endian {endian:?}");
        }
    }

    #[test]
    fn swapped_append_reverses_each_word() {
        let mut w = CdrWriter::new(Endian::Big);
        w.put_u8(9);
        w.put_swapped(&[1, 2, 3, 4, 5, 6, 7, 8], 4);
        w.put_swapped(&[1, 2, 3, 4, 5, 6, 7, 8], 8);
        w.put_swapped(&[1, 2, 3, 4], 2);
        assert_eq!(
            w.as_slice(),
            &[9, 4, 3, 2, 1, 8, 7, 6, 5, 8, 7, 6, 5, 4, 3, 2, 1, 2, 1, 4, 3]
        );
    }

    #[test]
    fn patched_u32_lands_in_writer_order() {
        for endian in [Endian::Big, Endian::Little] {
            let mut w = CdrWriter::new(endian);
            w.put_u32(0);
            w.put_u32(7);
            w.patch_u32(0, 0x0102_0304);
            let mut want = CdrWriter::new(endian);
            want.put_u32(0x0102_0304);
            want.put_u32(7);
            assert_eq!(w.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn bulk_i32_matches_elementwise() {
        let data = [1i32, -7, i32::MAX, i32::MIN];
        for endian in [Endian::Big, Endian::Little] {
            let mut bulk = CdrWriter::new(endian);
            bulk.put_i32_slice(&data);
            let mut one = CdrWriter::new(endian);
            for &x in &data {
                one.put_i32(x);
            }
            assert_eq!(bulk.as_slice(), one.as_slice());
        }
    }
}
