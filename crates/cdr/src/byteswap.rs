//! Data translation helpers.
//!
//! The PARDIS paper (§3.3) points out that the advantage of multi-port
//! transfer grows "in cases which require data translation (not present
//! in our experiments) or more sophisticated marshaling", because
//! translation work is divided among all computing threads. This module
//! supplies the translation primitives: bulk reinterpretation of
//! primitive slices as bytes (the zero-translation path) and in-place
//! byte swapping (the translation path), which the benchmark harness
//! ablates.
//!
//! The two views between plain-old-data slices and their bytes
//! ([`as_byte_slice`] and its checked inverse [`try_cast_slice`]) are
//! the documented `unsafe` reinterpretations in the workspace, both
//! resting on the one [`Pod`] contract. Every other decode goes through
//! safe byte-by-byte conversions.

/// Marker for primitive types whose in-memory representation is plain
/// bytes: inhabited, no padding, and every pattern of
/// `size_of::<T>()` bytes is a valid `T`.
///
/// # Safety
///
/// Implementors guarantee the above; [`as_byte_slice`] relies on it to
/// reinterpret `&[T]` as `&[u8]`, and [`try_cast_slice`] to reinterpret
/// `&[u8]` as `&[T]`.
pub unsafe trait Pod: Copy {}

// SAFETY: primitive numeric types are inhabited and padding-free, and
// any bit pattern is a valid value of each.
unsafe impl Pod for f64 {}
// SAFETY: as above.
unsafe impl Pod for i32 {}
// SAFETY: as above.
unsafe impl Pod for u8 {}
// SAFETY: as above.
unsafe impl Pod for u64 {}

/// View a slice of plain-old-data values as its native-order byte
/// representation. Allocation-free: the returned slice borrows `v`.
///
/// This is the *single* byte-view reinterpretation in the workspace
/// (bytemuck would provide it; one well-understood unsafe block beats
/// a dependency). Everything else goes through safe byte-by-byte
/// conversions — the copies model real marshaling work anyway.
#[inline]
pub fn as_byte_slice<T: Pod>(v: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` rules out padding and uninhabited types, `u8`'s
    // alignment of 1 is always satisfied, and the length is exactly
    // the slice's byte size — so the view covers only memory owned by
    // `v`, for the duration of the borrow the signature ties it to.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

/// View native-order bytes as a slice of `T` without copying: the
/// checked inverse of [`as_byte_slice`].
///
/// `None` unless `b` holds a whole number of elements and starts at an
/// address aligned for `T`. The address is checked at run time; nothing
/// is assumed about where the allocator or a frame layout put the
/// bytes. Empty input is an empty slice wherever it points.
#[inline]
pub fn try_cast_slice<T: Pod>(b: &[u8]) -> Option<&[T]> {
    let size = std::mem::size_of::<T>();
    if size == 0 || !b.len().is_multiple_of(size) {
        return None;
    }
    if b.is_empty() {
        return Some(&[]);
    }
    if !(b.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return None;
    }
    // SAFETY: the pointer is non-null, aligned for `T` (checked above)
    // and valid for reads of `b.len()` bytes, which are exactly
    // `b.len() / size` elements (checked above) and, being one slice,
    // span at most `isize::MAX` bytes. `T: Pod` makes every
    // byte pattern a valid `T`, and the returned slice borrows `b`, so
    // the bytes stay alive and unmodified for as long as it is used.
    Some(unsafe { std::slice::from_raw_parts(b.as_ptr() as *const T, b.len() / size) })
}

/// View a `f64` slice as its native-order byte representation.
#[inline]
pub fn f64_slice_as_bytes(v: &[f64]) -> &[u8] {
    as_byte_slice(v)
}

/// View an `i32` slice as its native-order byte representation.
#[inline]
pub fn i32_slice_as_bytes(v: &[i32]) -> &[u8] {
    as_byte_slice(v)
}

/// Append `bytes` (native order, length a multiple of 8) to `out` as
/// `f64` values.
#[inline]
pub fn bytes_to_f64(bytes: &[u8], out: &mut Vec<f64>) {
    debug_assert_eq!(bytes.len() % 8, 0);
    out.extend(bytes.chunks_exact(8).map(|c| {
        let mut a = [0u8; 8];
        a.copy_from_slice(c);
        f64::from_ne_bytes(a)
    }));
}

/// Append `bytes` (native order, length a multiple of 4) to `out` as
/// `i32` values.
#[inline]
pub fn bytes_to_i32(bytes: &[u8], out: &mut Vec<i32>) {
    debug_assert_eq!(bytes.len() % 4, 0);
    out.extend(bytes.chunks_exact(4).map(|c| {
        let mut a = [0u8; 4];
        a.copy_from_slice(c);
        i32::from_ne_bytes(a)
    }));
}

/// Swap the byte order of every 8-byte word in `buf` in place.
///
/// This is the "data translation" workload: a receiver whose byte order
/// differs from the sender's must touch every byte of the payload.
pub fn swap_f64_bytes_in_place(buf: &mut [u8]) {
    debug_assert_eq!(buf.len() % 8, 0);
    for chunk in buf.chunks_exact_mut(8) {
        chunk.reverse();
    }
}

/// Swap the byte order of every 4-byte word in `buf` in place.
pub fn swap_i32_bytes_in_place(buf: &mut [u8]) {
    debug_assert_eq!(buf.len() % 4, 0);
    for chunk in buf.chunks_exact_mut(4) {
        chunk.reverse();
    }
}

/// Swap every element of an `f64` slice in place (translation applied on
/// decoded values rather than on the wire buffer).
pub fn swap_f64_in_place(v: &mut [f64]) {
    for x in v {
        *x = f64::from_bits(x.to_bits().swap_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_bytes_roundtrip() {
        let data = [1.0f64, -2.5, 1e-300, f64::INFINITY];
        let bytes = f64_slice_as_bytes(&data);
        assert_eq!(bytes.len(), 32);
        let mut back = Vec::new();
        bytes_to_f64(bytes, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn i32_bytes_roundtrip() {
        let data = [0i32, -1, i32::MAX, 42];
        let bytes = i32_slice_as_bytes(&data);
        let mut back = Vec::new();
        bytes_to_i32(bytes, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn double_swap_is_identity() {
        let data = [3.25f64, -0.5, 9.75];
        let mut buf = f64_slice_as_bytes(&data).to_vec();
        swap_f64_bytes_in_place(&mut buf);
        swap_f64_bytes_in_place(&mut buf);
        let mut back = Vec::new();
        bytes_to_f64(&buf, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn swap_matches_value_swap() {
        let mut vals = [1.5f64, 2.5];
        let mut buf = f64_slice_as_bytes(&vals).to_vec();
        swap_f64_bytes_in_place(&mut buf);
        swap_f64_in_place(&mut vals);
        let mut back = Vec::new();
        bytes_to_f64(&buf, &mut back);
        assert_eq!(back, vals);
    }

    /// At least `n` bytes of 8-aligned storage (a `u64` vector).
    fn aligned(n: usize) -> Vec<u64> {
        vec![0x0102_0304_0506_0708; n.div_ceil(8)]
    }

    #[test]
    fn cast_views_aligned_whole_elements() {
        let data = [1.0f64, -2.5, 1e-300, f64::INFINITY];
        let view = try_cast_slice::<f64>(f64_slice_as_bytes(&data)).unwrap();
        assert_eq!(view, data);
        assert_eq!(view.as_ptr(), data.as_ptr());
        let ints = [7i32, -1, i32::MIN];
        assert_eq!(
            try_cast_slice::<i32>(i32_slice_as_bytes(&ints)),
            Some(&ints[..])
        );
    }

    #[test]
    fn cast_refuses_every_misalignment() {
        let words = aligned(64);
        let bytes = as_byte_slice(&words);
        assert!(try_cast_slice::<f64>(&bytes[..64]).is_some());
        for off in 1..8 {
            let b = &bytes[off..off + 32];
            assert_eq!(try_cast_slice::<f64>(b), None, "offset {off}");
            assert_eq!(try_cast_slice::<u64>(b), None, "offset {off}");
            let i32_ok = try_cast_slice::<i32>(b).is_some();
            assert_eq!(i32_ok, off % 4 == 0, "offset {off}");
            // Bytes need no alignment.
            assert_eq!(try_cast_slice::<u8>(b), Some(b));
        }
    }

    #[test]
    fn cast_refuses_partial_elements() {
        let words = aligned(64);
        let bytes = as_byte_slice(&words);
        for len in [1, 7, 9, 12, 63] {
            assert_eq!(try_cast_slice::<f64>(&bytes[..len]), None, "len {len}");
        }
        assert_eq!(try_cast_slice::<i32>(&bytes[..6]), None);
        assert_eq!(
            try_cast_slice::<i32>(&bytes[..12]).map(<[i32]>::len),
            Some(3)
        );
    }

    #[test]
    fn cast_of_empty_input_is_empty_anywhere() {
        let words = aligned(16);
        let bytes = as_byte_slice(&words);
        for off in 0..8 {
            assert_eq!(try_cast_slice::<f64>(&bytes[off..off]), Some(&[][..]));
        }
        assert_eq!(try_cast_slice::<i32>(&[]), Some(&[][..]));
    }

    #[test]
    fn cast_reads_translated_words() {
        let data = [1.5f64, -3.0, 6.25e10];
        let mut swapped = f64_slice_as_bytes(&data).to_vec();
        swap_f64_bytes_in_place(&mut swapped);
        // The translated bytes, moved into aligned storage, view as
        // the swapped values; swapping those back restores the data.
        let words: Vec<u64> = swapped
            .chunks_exact(8)
            .map(|c| u64::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        let view = try_cast_slice::<f64>(as_byte_slice(&words)).unwrap();
        assert_ne!(view, data);
        let mut back = view.to_vec();
        swap_f64_in_place(&mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn i32_swap_swaps() {
        let mut buf = vec![1u8, 2, 3, 4];
        swap_i32_bytes_in_place(&mut buf);
        assert_eq!(buf, [4, 3, 2, 1]);
    }
}
