//! A stream held as an ordered list of byte segments.
//!
//! A PARDIS frame is sent the way a gather-write (`writev`) ORB sends
//! one: the bytes the ORB writes itself (preamble, headers, argument
//! metadata) are segments of their own, and each block of a distributed
//! argument is linked in as the storage its sequence lends, not copied.
//! The concatenation of the segments is the stream; where the segment
//! boundaries fall carries no meaning. A contiguous stream is a frame
//! of one segment.
//!
//! Segments are [`Bytes`], so cloning or slicing a frame copies no
//! payload, and a view of a frame keeps only the segments it covers
//! alive. [`crate::CdrReader::from_frame`] decodes across the
//! boundaries.

use bytes::Bytes;
use std::fmt;
use std::ops::Range;

/// An ordered list of byte segments whose concatenation is one stream.
/// No segment is empty. A frame of one segment holds it without a heap
/// allocation of its own.
#[derive(Clone, Default)]
pub struct Frame {
    /// The first segment; empty only if the frame is.
    pub(crate) head: Bytes,
    /// The segments after `head`.
    pub(crate) tail: Vec<Bytes>,
    len: usize,
}

impl Frame {
    /// An empty frame.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// Append `seg` at the end, without copying it.
    pub fn push(&mut self, seg: Bytes) {
        if seg.is_empty() {
            return;
        }
        self.len += seg.len();
        if self.head.is_empty() {
            self.head = seg;
        } else {
            self.tail.push(seg);
        }
    }

    /// Append every segment of `other`.
    pub fn extend(&mut self, other: &Frame) {
        for seg in other.segments() {
            self.push(seg.clone());
        }
    }

    /// Bytes in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segments, in stream order.
    pub fn segments(&self) -> impl Iterator<Item = &Bytes> + '_ {
        std::iter::once(&self.head)
            .filter(|h| !h.is_empty())
            .chain(&self.tail)
    }

    /// The bytes at `range` of the stream, as views of the segments
    /// that cover them: no byte is copied.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, like [`Bytes::slice`].
    pub fn slice(&self, range: Range<usize>) -> Frame {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "range out of bounds: {}..{} of {}",
            range.start,
            range.end,
            self.len
        );
        let mut out = Frame::new();
        let mut at = 0;
        for seg in self.segments() {
            let end = at + seg.len();
            if end > range.start && at < range.end {
                let from = range.start.max(at) - at;
                let to = range.end.min(end) - at;
                out.push(if from == 0 && to == seg.len() {
                    seg.clone()
                } else {
                    seg.slice(from..to)
                });
            }
            if end >= range.end {
                break;
            }
            at = end;
        }
        out
    }

    /// The stream as one contiguous buffer: the one segment as it is,
    /// or every segment copied, once, into a new buffer.
    pub fn into_bytes(self) -> Bytes {
        if self.tail.is_empty() {
            return self.head;
        }
        Bytes::from(self.to_vec())
    }

    /// The stream copied out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for seg in self.segments() {
            out.extend_from_slice(seg);
        }
        out
    }
}

impl From<Bytes> for Frame {
    fn from(seg: Bytes) -> Frame {
        let mut f = Frame::new();
        f.push(seg);
        f
    }
}

impl From<Vec<u8>> for Frame {
    fn from(v: Vec<u8>) -> Frame {
        Frame::from(Bytes::from(v))
    }
}

impl FromIterator<Bytes> for Frame {
    fn from_iter<I: IntoIterator<Item = Bytes>>(iter: I) -> Frame {
        let mut f = Frame::new();
        for seg in iter {
            f.push(seg);
        }
        f
    }
}

/// Frames are equal when their streams are, wherever their segment
/// boundaries fall.
impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut a = self.segments().map(|s| &s[..]);
        let mut b = other.segments().map(|s| &s[..]);
        let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if x.is_empty() {
                x = a.next().unwrap_or_default();
            }
            if y.is_empty() {
                y = b.next().unwrap_or_default();
            }
            if x.is_empty() || y.is_empty() {
                return x.is_empty() && y.is_empty();
            }
            let n = x.len().min(y.len());
            if x[..n] != y[..n] {
                return false;
            }
            (x, y) = (&x[n..], &y[n..]);
        }
    }
}

impl Eq for Frame {}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.segments()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> Frame {
        [b"head".as_slice(), b"", b"0123456789", b"tail"]
            .into_iter()
            .map(Bytes::copy_from_slice)
            .collect()
    }

    #[test]
    fn empty_segments_are_dropped() {
        let f = three();
        assert_eq!(f.segments().count(), 3);
        assert_eq!(f.len(), 18);
        assert_eq!(f.to_vec(), b"head0123456789tail");
    }

    #[test]
    fn slices_view_the_segments_that_cover_them() {
        let f = three();
        let whole = b"head0123456789tail";
        for start in 0..=whole.len() {
            for end in start..=whole.len() {
                let s = f.slice(start..end);
                assert_eq!(s.to_vec(), &whole[start..end], "{start}..{end}");
                assert!(s.segments().all(|seg| !seg.is_empty()));
            }
        }
        let mid = f.slice(4..14);
        let digits = f.segments().nth(1).unwrap();
        assert_eq!(mid.segments().count(), 1);
        assert_eq!(mid.into_bytes().as_ptr(), digits.as_ptr());
        assert_eq!(f.slice(6..9).into_bytes().as_ptr(), digits[2..].as_ptr());
    }

    #[test]
    fn equality_ignores_segment_boundaries() {
        let f = three();
        let whole = Frame::from(f.to_vec());
        assert_eq!(f, whole);
        assert_ne!(f, f.slice(0..17));
        assert_ne!(f.slice(1..18), f.slice(0..17));
        assert_eq!(Frame::new(), Frame::from(Bytes::new()));
    }

    #[test]
    #[should_panic(expected = "range out of bounds")]
    fn slice_out_of_bounds_panics() {
        three().slice(2..19);
    }
}
