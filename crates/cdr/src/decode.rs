//! The CDR decoder.
//!
//! A [`CdrReader`] walks a stream, skipping the same alignment gaps
//! the encoder inserted and swapping bytes when the stream's recorded
//! order differs from the machine's ("receiver makes right"). The
//! stream is one byte slice or a [`Frame`] of segments; every read
//! decodes the same wherever the segment boundaries fall.

use crate::{align_up, CdrError, CdrResult, Endian, Frame};
use bytes::Bytes;
use std::borrow::Cow;

/// An aligning, endian-aware binary decoder over a borrowed stream.
#[derive(Debug, Clone)]
pub struct CdrReader<'a> {
    /// The segment being read.
    buf: &'a [u8],
    /// Read position in `buf`.
    pos: usize,
    /// The segments after `buf`.
    rest: &'a [Bytes],
    /// Bytes in `rest`.
    rest_len: usize,
    /// Bytes of the stream before `buf[0]`, from where this reader
    /// started.
    done: usize,
    endian: Endian,
    /// Stream offset where this reader started — see
    /// [`crate::CdrWriter::at_offset`].
    base: usize,
}

impl<'a> CdrReader<'a> {
    /// Create a reader over `buf` whose contents were encoded in
    /// byte order `endian`.
    pub fn new(buf: &'a [u8], endian: Endian) -> CdrReader<'a> {
        CdrReader::at_offset(buf, endian, 0)
    }

    /// Create a reader whose stream position starts at `base`; alignment
    /// is computed relative to the logical stream, not the fragment.
    pub fn at_offset(buf: &'a [u8], endian: Endian, base: usize) -> CdrReader<'a> {
        CdrReader {
            buf,
            pos: 0,
            rest: &[],
            rest_len: 0,
            done: 0,
            endian,
            base,
        }
    }

    /// Create a reader over the segments of `frame`, encoded in byte
    /// order `endian`.
    pub fn from_frame(frame: &'a Frame, endian: Endian) -> CdrReader<'a> {
        CdrReader {
            buf: &frame.head,
            pos: 0,
            rest: &frame.tail,
            rest_len: frame.len() - frame.head.len(),
            done: 0,
            endian,
            base: 0,
        }
    }

    /// Byte order of the stream being decoded.
    #[inline]
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Decode the rest of the stream in byte order `endian`: a header
    /// read so far names it.
    pub fn set_endian(&mut self, endian: Endian) {
        self.endian = endian;
    }

    /// Bytes consumed since the reader started.
    #[inline]
    pub fn position(&self) -> usize {
        self.done + self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos + self.rest_len
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn eof(&self, needed: usize) -> CdrError {
        CdrError::UnexpectedEof {
            needed,
            remained: self.remaining(),
        }
    }

    /// Move to the next non-empty segment once `buf` is read.
    #[inline]
    fn next_segment(&mut self) {
        while self.pos == self.buf.len() {
            let Some((next, rest)) = self.rest.split_first() else {
                return;
            };
            self.done += self.buf.len();
            self.rest_len -= next.len();
            (self.buf, self.pos, self.rest) = (next, 0, rest);
        }
    }

    /// Consume `n` bytes, handing each run of them that lies in one
    /// segment to `run`.
    fn consume(&mut self, n: usize, mut run: impl FnMut(&'a [u8])) -> CdrResult<()> {
        if n > self.remaining() {
            return Err(self.eof(n));
        }
        let mut left = n;
        while left > 0 {
            self.next_segment();
            let k = left.min(self.buf.len() - self.pos);
            run(&self.buf[self.pos..self.pos + k]);
            self.pos += k;
            left -= k;
        }
        Ok(())
    }

    /// Skip pad bytes so the next read starts at alignment `align`.
    #[inline]
    pub fn align(&mut self, align: usize) -> CdrResult<()> {
        let stream_pos = self.base + self.position();
        let skip = align_up(stream_pos, align) - stream_pos;
        self.skip(skip)
    }

    /// Skip `n` bytes without reading them.
    #[inline]
    pub fn skip(&mut self, n: usize) -> CdrResult<()> {
        if n <= self.buf.len() - self.pos {
            self.pos += n;
            return Ok(());
        }
        self.consume(n, |_| {})
    }

    /// Take `n` raw bytes: borrowed from the stream when they lie in
    /// one segment, copied into a new buffer when they span several.
    #[inline]
    pub fn take(&mut self, n: usize) -> CdrResult<Cow<'a, [u8]>> {
        if n > 0 {
            self.next_segment();
        }
        if n <= self.buf.len() - self.pos {
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            return Ok(Cow::Borrowed(s));
        }
        if n > self.remaining() {
            return Err(self.eof(n));
        }
        let mut out = Vec::with_capacity(n);
        self.consume(n, |run| out.extend_from_slice(run))?;
        Ok(Cow::Owned(out))
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> CdrResult<[u8; N]> {
        let mut a = [0u8; N];
        if N <= self.buf.len() - self.pos {
            a.copy_from_slice(&self.buf[self.pos..self.pos + N]);
            self.pos += N;
            return Ok(a);
        }
        self.take_array_across(a)
    }

    /// [`CdrReader::take_array`] where the bytes span segments.
    #[cold]
    fn take_array_across<const N: usize>(&mut self, mut a: [u8; N]) -> CdrResult<[u8; N]> {
        let mut at = 0;
        self.consume(N, |run| {
            a[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        })?;
        Ok(a)
    }

    /// Read one octet.
    pub fn get_u8(&mut self) -> CdrResult<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Read a boolean octet, rejecting values other than 0/1.
    pub fn get_bool(&mut self) -> CdrResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CdrError::BadBool(b)),
        }
    }

    /// Read an `i8`.
    pub fn get_i8(&mut self) -> CdrResult<i8> {
        Ok(self.get_u8()? as i8)
    }

    /// Read a `u16` (2-aligned).
    pub fn get_u16(&mut self) -> CdrResult<u16> {
        self.align(2)?;
        let b = self.take_array::<2>()?;
        Ok(match self.endian {
            Endian::Big => u16::from_be_bytes(b),
            Endian::Little => u16::from_le_bytes(b),
        })
    }

    /// Read an `i16` (2-aligned).
    pub fn get_i16(&mut self) -> CdrResult<i16> {
        Ok(self.get_u16()? as i16)
    }

    /// Read a `u32` (4-aligned).
    pub fn get_u32(&mut self) -> CdrResult<u32> {
        self.align(4)?;
        let b = self.take_array::<4>()?;
        Ok(match self.endian {
            Endian::Big => u32::from_be_bytes(b),
            Endian::Little => u32::from_le_bytes(b),
        })
    }

    /// Read an `i32` (4-aligned).
    pub fn get_i32(&mut self) -> CdrResult<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Read a `u64` (8-aligned).
    pub fn get_u64(&mut self) -> CdrResult<u64> {
        self.align(8)?;
        let b = self.take_array::<8>()?;
        Ok(match self.endian {
            Endian::Big => u64::from_be_bytes(b),
            Endian::Little => u64::from_le_bytes(b),
        })
    }

    /// Read an `i64` (8-aligned).
    pub fn get_i64(&mut self) -> CdrResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an `f32` (4-aligned).
    pub fn get_f32(&mut self) -> CdrResult<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an `f64` (8-aligned).
    pub fn get_f64(&mut self) -> CdrResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a CORBA string (length includes the terminating NUL).
    pub fn get_string(&mut self) -> CdrResult<String> {
        let len = self.get_u32()? as usize;
        if len == 0 {
            // Strictly, CORBA strings always carry a NUL, but be lenient
            // with a zero length: treat it as the empty string.
            return Ok(String::new());
        }
        let mut bytes = self.take(len)?.into_owned();
        if bytes.pop() != Some(0) {
            return Err(CdrError::BadUtf8);
        }
        String::from_utf8(bytes).map_err(|_| CdrError::BadUtf8)
    }

    /// Read `n` `f64` values in bulk into `out`.
    ///
    /// The hot path for distributed sequences of `double`; same-endian
    /// streams decode with one bulk copy, other-endian streams swap
    /// per element — this is the "data translation" cost the paper
    /// discusses in §3.3.
    pub fn get_f64_slice(&mut self, n: usize, out: &mut Vec<f64>) -> CdrResult<()> {
        self.align(8)?;
        let bytes = self.take(n.saturating_mul(8))?;
        out.reserve(n);
        if self.endian == Endian::native() {
            crate::byteswap::bytes_to_f64(&bytes, out);
        } else {
            for chunk in bytes.chunks_exact(8) {
                let mut a = [0u8; 8];
                a.copy_from_slice(chunk);
                let bits = match self.endian {
                    Endian::Big => u64::from_be_bytes(a),
                    Endian::Little => u64::from_le_bytes(a),
                };
                out.push(f64::from_bits(bits));
            }
        }
        Ok(())
    }

    /// Read `n` `i32` values in bulk into `out`.
    pub fn get_i32_slice(&mut self, n: usize, out: &mut Vec<i32>) -> CdrResult<()> {
        self.align(4)?;
        let bytes = self.take(n.saturating_mul(4))?;
        out.reserve(n);
        if self.endian == Endian::native() {
            crate::byteswap::bytes_to_i32(&bytes, out);
        } else {
            for chunk in bytes.chunks_exact(4) {
                let mut a = [0u8; 4];
                a.copy_from_slice(chunk);
                let v = match self.endian {
                    Endian::Big => i32::from_be_bytes(a),
                    Endian::Little => i32::from_le_bytes(a),
                };
                out.push(v);
            }
        }
        Ok(())
    }

    /// Decode a value implementing [`crate::Decode`].
    pub fn get<T: crate::Decode>(&mut self) -> CdrResult<T> {
        T::decode(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CdrWriter;

    #[test]
    fn roundtrip_mixed_primitives() {
        for endian in [Endian::Big, Endian::Little] {
            let mut w = CdrWriter::new(endian);
            w.put_bool(true);
            w.put_u16(0xBEEF);
            w.put_i32(-7);
            w.put_f64(std::f64::consts::PI);
            w.put_string("pardis");
            w.put_i64(i64::MIN);
            let buf = w.into_bytes();

            let mut r = CdrReader::new(&buf, endian);
            assert!(r.get_bool().unwrap());
            assert_eq!(r.get_u16().unwrap(), 0xBEEF);
            assert_eq!(r.get_i32().unwrap(), -7);
            assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
            assert_eq!(r.get_string().unwrap(), "pardis");
            assert_eq!(r.get_i64().unwrap(), i64::MIN);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn eof_is_detected() {
        let buf = [0u8; 3];
        let mut r = CdrReader::new(&buf, Endian::Big);
        assert!(matches!(
            r.get_u32(),
            Err(CdrError::UnexpectedEof { needed: 4, .. })
        ));
    }

    #[test]
    fn bad_bool_rejected() {
        let buf = [2u8];
        let mut r = CdrReader::new(&buf, Endian::Big);
        assert_eq!(r.get_bool(), Err(CdrError::BadBool(2)));
    }

    #[test]
    fn cross_endian_swaps() {
        // Encode little, decode declaring little on any machine.
        let mut w = CdrWriter::new(Endian::Little);
        w.put_u32(0x0A0B0C0D);
        let buf = w.into_bytes();
        assert_eq!(buf, [0x0D, 0x0C, 0x0B, 0x0A]);
        let mut r = CdrReader::new(&buf, Endian::Little);
        assert_eq!(r.get_u32().unwrap(), 0x0A0B0C0D);
    }

    #[test]
    fn offset_fragment_roundtrip() {
        // Fragment logically at stream offset 12: one u32 then f64.
        let mut w = CdrWriter::at_offset(Endian::native(), 12);
        w.put_u32(5);
        w.put_f64(2.5);
        let buf = w.into_bytes();
        let mut r = CdrReader::at_offset(&buf, Endian::native(), 12);
        assert_eq!(r.get_u32().unwrap(), 5);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn bulk_f64_roundtrip_both_endians() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 1.25 - 3.0).collect();
        for endian in [Endian::Big, Endian::Little] {
            let mut w = CdrWriter::new(endian);
            w.put_f64_slice(&data);
            let buf = w.into_bytes();
            let mut r = CdrReader::new(&buf, endian);
            let mut out = Vec::new();
            r.get_f64_slice(100, &mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn every_cut_decodes_the_same() {
        for endian in [Endian::Big, Endian::Little] {
            let mut w = CdrWriter::new(endian);
            w.put_u8(7);
            w.put_u16(0xBEEF);
            w.put_string("segmented");
            w.put_f64_slice(&[1.5, -2.0]);
            w.put_i32_slice(&[3, -4, 5]);
            w.put_u64(u64::MAX - 1);
            let whole = w.into_bytes();
            let read = |r: &mut CdrReader<'_>| {
                let mut f = Vec::new();
                let mut i = Vec::new();
                let got = (
                    r.get_u8().unwrap(),
                    r.get_u16().unwrap(),
                    r.get_string().unwrap(),
                    r.get_f64_slice(2, &mut f).map(|()| f).unwrap(),
                    r.get_i32_slice(3, &mut i).map(|()| i).unwrap(),
                    r.get_u64().unwrap(),
                );
                assert!(r.is_exhausted());
                assert_eq!(
                    r.get_u8(),
                    Err(CdrError::UnexpectedEof {
                        needed: 1,
                        remained: 0
                    })
                );
                got
            };
            let want = read(&mut CdrReader::new(&whole, endian));
            for a in 0..=whole.len() {
                for b in a..=whole.len() {
                    let frame: Frame = [0..a, a..b, b..whole.len()]
                        .into_iter()
                        .map(|r| Bytes::copy_from_slice(&whole[r]))
                        .collect();
                    let mut r = CdrReader::from_frame(&frame, endian);
                    assert_eq!(read(&mut r), want, "cut at {a} and {b}");
                    assert_eq!(r.position(), whole.len());
                }
            }
        }
    }

    #[test]
    fn take_borrows_within_a_segment_and_copies_across() {
        let frame: Frame = [&b"abcd"[..], b"efgh"]
            .into_iter()
            .map(Bytes::copy_from_slice)
            .collect();
        let mut r = CdrReader::from_frame(&frame, Endian::Big);
        assert!(matches!(r.take(3).unwrap(), Cow::Borrowed(b"abc")));
        assert!(matches!(r.take(2).unwrap(), Cow::Owned(v) if v == b"de"));
        assert!(matches!(r.take(3).unwrap(), Cow::Borrowed(b"fgh")));
        assert!(r.take(1).is_err());
        let mut r = CdrReader::from_frame(&frame, Endian::Big);
        r.skip(4).unwrap();
        assert!(matches!(r.take(4).unwrap(), Cow::Borrowed(b"efgh")));
    }

    #[test]
    fn empty_string_lenient() {
        let mut w = CdrWriter::new(Endian::Big);
        w.put_u32(0);
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, Endian::Big);
        assert_eq!(r.get_string().unwrap(), "");
    }
}
