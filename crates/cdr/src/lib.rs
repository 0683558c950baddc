//! # pardis-cdr — Common Data Representation for PARDIS
//!
//! CORBA transports arguments in *CDR* (Common Data Representation): a
//! binary encoding in which every primitive is aligned to its natural
//! boundary and the byte order of the *sender* is recorded in the message
//! header, so that a receiver on a same-endian machine can decode without
//! any data translation, and a receiver on an other-endian machine swaps
//! bytes on read ("receiver makes right").
//!
//! PARDIS (Keahey & Gannon, HPDC 1997) marshals both request headers and
//! distributed-sequence payloads through this layer. The paper notes in
//! §3.3 that the benefit of multi-port transfer is *amplified* "in cases
//! which require data translation … or more sophisticated marshaling";
//! the [`byteswap`] module implements that translation path and the
//! benchmark harness ablates it. The [`frame`] module holds the stream
//! an invocation travels as: an ordered list of byte segments, so that
//! each computing thread's block of a distributed argument is linked
//! into the frame as the storage its sequence lends, not copied, and
//! [`CdrReader::from_frame`] decodes it wherever the segments break.
//!
//! ## Quick example
//!
//! ```
//! use pardis_cdr::{CdrWriter, CdrReader, Encode, Decode, Endian};
//!
//! let mut w = CdrWriter::new(Endian::native());
//! 42u32.encode(&mut w).unwrap();
//! "diffusion".to_string().encode(&mut w).unwrap();
//! vec![1.0f64, 2.0, 3.0].encode(&mut w).unwrap();
//!
//! let buf = w.into_bytes();
//! let mut r = CdrReader::new(&buf, Endian::native());
//! assert_eq!(u32::decode(&mut r).unwrap(), 42);
//! assert_eq!(String::decode(&mut r).unwrap(), "diffusion");
//! assert_eq!(Vec::<f64>::decode(&mut r).unwrap(), vec![1.0, 2.0, 3.0]);
//! ```

pub mod byteswap;
pub mod decode;
pub mod encode;
pub mod error;
pub mod frame;
pub mod traits;
pub mod typecode;

pub use decode::CdrReader;
pub use encode::CdrWriter;
pub use error::{CdrError, CdrResult};
pub use frame::Frame;
pub use traits::{Decode, Encode};
pub use typecode::TypeCode;

/// Byte order of an encoded stream.
///
/// CDR streams are tagged with the sender's byte order; decoding on a
/// machine with the other order performs byte swapping ("receiver makes
/// right").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endian {
    /// Most significant byte first.
    Big,
    /// Least significant byte first.
    Little,
}

impl Endian {
    /// The byte order of the machine we are running on.
    #[inline]
    pub fn native() -> Endian {
        if cfg!(target_endian = "big") {
            Endian::Big
        } else {
            Endian::Little
        }
    }

    /// The opposite byte order — used by tests and the data-translation
    /// ablation to force the swap path.
    #[inline]
    pub fn swapped(self) -> Endian {
        match self {
            Endian::Big => Endian::Little,
            Endian::Little => Endian::Big,
        }
    }

    /// Whether decoding a stream of this order on the current machine
    /// requires byte swapping.
    #[inline]
    pub fn needs_swap(self) -> bool {
        self != Endian::native()
    }

    /// Flag byte used in GIOP-style headers (0 = big, 1 = little).
    #[inline]
    pub fn flag(self) -> u8 {
        match self {
            Endian::Big => 0,
            Endian::Little => 1,
        }
    }

    /// Parse the GIOP-style flag byte.
    pub fn from_flag(flag: u8) -> CdrResult<Endian> {
        match flag {
            0 => Ok(Endian::Big),
            1 => Ok(Endian::Little),
            other => Err(CdrError::BadEndianFlag(other)),
        }
    }
}

/// Round `pos` up to the next multiple of `align` (a power of two).
///
/// CDR aligns every primitive to its natural boundary relative to the
/// start of the stream.
#[inline]
pub fn align_up(pos: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (pos + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
        assert_eq!(align_up(13, 1), 13);
        assert_eq!(align_up(15, 2), 16);
    }

    #[test]
    fn endian_flag_roundtrip() {
        assert_eq!(Endian::from_flag(Endian::Big.flag()).unwrap(), Endian::Big);
        assert_eq!(
            Endian::from_flag(Endian::Little.flag()).unwrap(),
            Endian::Little
        );
        assert!(Endian::from_flag(7).is_err());
    }

    #[test]
    fn native_is_not_swapped() {
        assert!(!Endian::native().needs_swap());
        assert!(Endian::native().swapped().needs_swap());
    }
}
