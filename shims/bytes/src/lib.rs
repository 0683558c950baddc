//! Offline stand-in for the `bytes` crate.
//!
//! Provides the one type this workspace uses: [`Bytes`], an immutable,
//! reference-counted byte slice whose `clone` and `slice` are O(1).
//! Like the real crate, `Bytes::from(Vec<u8>)` takes the vector's
//! buffer over without copying it, and [`Bytes::from_owner`] lets any
//! byte container back a `Bytes` without a copy.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view into shared byte storage.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<dyn AsRef<[u8]> + Send + Sync>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Bytes {
    /// An empty byte slice. Like the real crate's, it allocates nothing:
    /// the empty `Bytes` a thread makes share one storage per thread, so
    /// threads do not contend on one reference count either.
    pub fn new() -> Bytes {
        thread_local! {
            static EMPTY: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(&[] as &'static [u8]);
        }
        Bytes {
            data: EMPTY.with(Arc::clone),
            start: 0,
            end: 0,
        }
    }

    /// Take `owner` over as the storage of a new `Bytes`, without
    /// copying: the view covers `owner.as_ref()` and keeps `owner` alive
    /// until the last clone or slice of it is dropped.
    ///
    /// Same name and meaning as in `bytes` 1.9. This shim also asks for
    /// `Sync`, because it calls `as_ref` on every access instead of
    /// caching the pointer, so `owner` must keep returning the same
    /// bytes for as long as it is shared.
    pub fn from_owner<T>(owner: T) -> Bytes
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes {
            data: Arc::new(owner),
            start: 0,
            end,
        }
    }

    /// Wrap a static slice (copied into shared storage; the real crate
    /// borrows it, but nothing here depends on that distinction).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copy a slice into new shared storage.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// An O(1) sub-view of this view.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, like the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "range out of bounds: {begin}..{end} of {len}"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Copy the view out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Take ownership of the vector's buffer; no bytes are copied.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &(*self.data).as_ref()[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_clone_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(..2), Bytes::copy_from_slice(&[2, 3]));
        assert_eq!(b.len(), 5);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn empty_bytes_share_their_storage() {
        let (a, b) = (Bytes::new(), Bytes::default());
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(a, Bytes::from(Vec::new()));
    }

    #[test]
    fn from_vec_takes_the_buffer_over() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(8..).as_ptr(), ptr.wrapping_add(8));
    }

    #[test]
    fn from_owner_borrows_the_owner() {
        struct Shared(Arc<Vec<u8>>);
        impl AsRef<[u8]> for Shared {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        let owner = Arc::new(vec![9u8; 64]);
        let ptr = owner.as_ptr();
        let b = Bytes::from_owner(Shared(owner.clone()));
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 64);
        assert_eq!(Arc::strong_count(&owner), 2);
        let s = b.slice(8..16);
        drop(b);
        assert_eq!(s.as_ptr(), ptr.wrapping_add(8));
        drop(s);
        assert_eq!(Arc::strong_count(&owner), 1);
    }

    #[test]
    #[should_panic(expected = "range out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8]).slice(0..2);
    }
}
