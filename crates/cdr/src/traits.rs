//! `Encode`/`Decode` traits mapping Rust types onto CDR.
//!
//! The IDL compiler generates implementations of these traits for
//! user-defined structs and enums; the blanket implementations here cover
//! the IDL basic types, strings, sequences (`Vec`), bounded checks, and
//! optionals (used for nullable object references).

use crate::{CdrError, CdrReader, CdrResult, CdrWriter};

/// Types that can be marshaled into a CDR stream.
pub trait Encode {
    /// Append `self` to the writer.
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()>;
}

/// Types that can be unmarshaled from a CDR stream.
pub trait Decode: Sized {
    /// Read a value from the reader.
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self>;
}

macro_rules! impl_prim {
    ($t:ty, $put:ident, $get:ident) => {
        impl Encode for $t {
            #[inline]
            fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
                w.$put(*self);
                Ok(())
            }
        }
        impl Decode for $t {
            #[inline]
            fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
                r.$get()
            }
        }
    };
}

impl_prim!(bool, put_bool, get_bool);
impl_prim!(u8, put_u8, get_u8);
impl_prim!(i8, put_i8, get_i8);
impl_prim!(u16, put_u16, get_u16);
impl_prim!(i16, put_i16, get_i16);
impl_prim!(u32, put_u32, get_u32);
impl_prim!(i32, put_i32, get_i32);
impl_prim!(u64, put_u64, get_u64);
impl_prim!(i64, put_i64, get_i64);
impl_prim!(f32, put_f32, get_f32);
impl_prim!(f64, put_f64, get_f64);

impl Encode for str {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_string(self);
        Ok(())
    }
}

impl Encode for String {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_string(self);
        Ok(())
    }
}

impl Decode for String {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        r.get_string()
    }
}

/// CORBA sequence mapping: `u32` element count then the elements.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w)?;
        }
        Ok(())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        let n = r.get_u32()? as usize;
        // A length field cannot promise more elements than bytes remain;
        // this guards against corrupt or hostile streams allocating
        // gigabytes up front. Every element is at least one octet, but
        // may be many times larger in memory, so the reservation is
        // bounded by the remaining bytes too.
        if n > r.remaining() {
            return Err(CdrError::LengthOverflow(n as u64));
        }
        let mut out = Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w)?;
        }
        Ok(())
    }
}

/// Optional values encode as a boolean presence flag then the value; this
/// is the classic CORBA "union with a boolean discriminator" pattern used
/// for nullable references.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        match self {
            Some(v) => {
                w.put_bool(true);
                v.encode(w)
            }
            None => {
                w.put_bool(false);
                Ok(())
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        if r.get_bool()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        self.0.encode(w)?;
        self.1.encode(w)
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Encode a bounded sequence, enforcing the IDL bound at marshal time.
pub fn encode_bounded<T: Encode>(v: &[T], bound: usize, w: &mut CdrWriter) -> CdrResult<()> {
    if v.len() > bound {
        return Err(CdrError::BoundExceeded {
            bound,
            len: v.len(),
        });
    }
    v.encode(w)
}

/// Decode a bounded sequence, enforcing the IDL bound.
pub fn decode_bounded<T: Decode>(bound: usize, r: &mut CdrReader<'_>) -> CdrResult<Vec<T>> {
    let v = Vec::<T>::decode(r)?;
    if v.len() > bound {
        return Err(CdrError::BoundExceeded {
            bound,
            len: v.len(),
        });
    }
    Ok(v)
}

/// Convenience: marshal a single value to a fresh byte vector in native
/// byte order.
pub fn to_bytes<T: Encode + ?Sized>(v: &T) -> CdrResult<Vec<u8>> {
    let mut w = CdrWriter::new(crate::Endian::native());
    v.encode(&mut w)?;
    Ok(w.into_bytes())
}

/// Convenience: unmarshal a single value from native-order bytes.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> CdrResult<T> {
    let mut r = CdrReader::new(bytes, crate::Endian::native());
    T::decode(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endian;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        for endian in [Endian::Big, Endian::Little] {
            let mut w = CdrWriter::new(endian);
            v.encode(&mut w).unwrap();
            let buf = w.into_bytes();
            let mut r = CdrReader::new(&buf, endian);
            assert_eq!(T::decode(&mut r).unwrap(), v);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(true);
        roundtrip(0xABu8);
        roundtrip(-5i16);
        roundtrip(123456789u32);
        roundtrip(-9_876_543_210i64);
        roundtrip(2.5f32);
        roundtrip(-1.0e100f64);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip("hello pardis".to_string());
        roundtrip(vec![1i32, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((42u32, "pair".to_string()));
        roundtrip(vec!["a".to_string(), String::new(), "c".to_string()]);
    }

    #[test]
    fn nested_vec_roundtrip() {
        roundtrip(vec![vec![1u8, 2], vec![], vec![3]]);
    }

    #[test]
    fn bounds_enforced() {
        let mut w = CdrWriter::new(Endian::native());
        assert!(encode_bounded(&[1u8, 2, 3], 2, &mut w).is_err());
        assert!(encode_bounded(&[1u8, 2], 2, &mut w).is_ok());
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, Endian::native());
        assert!(decode_bounded::<u8>(1, &mut r).is_err());
    }

    #[test]
    fn hostile_length_rejected() {
        let mut w = CdrWriter::new(Endian::native());
        w.put_u32(u32::MAX);
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, Endian::native());
        assert!(matches!(
            Vec::<u8>::decode(&mut r),
            Err(CdrError::LengthOverflow(_))
        ));
    }

    #[test]
    fn helper_to_from_bytes() {
        let bytes = to_bytes(&vec![9i32, 8, 7]).unwrap();
        let v: Vec<i32> = from_bytes(&bytes).unwrap();
        assert_eq!(v, vec![9, 8, 7]);
    }
}
