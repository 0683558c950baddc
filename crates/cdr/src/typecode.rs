//! Runtime type descriptions (CORBA `TypeCode`, abridged).
//!
//! PARDIS request headers describe argument types so that a server can
//! sanity-check a request against the registered operation signature and
//! so the dynamic-invocation path in `pardis-core` can interpret
//! arguments without compiled stubs. This is a compact subset of the
//! CORBA TypeCode system sufficient for the IDL subset we compile.

use crate::{CdrError, CdrReader, CdrResult, CdrWriter, Decode, Encode};

/// A runtime description of an IDL type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeCode {
    /// `void` (operation return only).
    Void,
    Boolean,
    Octet,
    Char,
    Short,
    UShort,
    Long,
    ULong,
    LongLong,
    ULongLong,
    Float,
    Double,
    String,
    /// `sequence<T>` with optional bound.
    Sequence {
        elem: Box<TypeCode>,
        bound: Option<u32>,
    },
    /// PARDIS `dsequence<T>` with optional bound; distribution templates
    /// are carried separately (they are runtime state, not type).
    DSequence {
        elem: Box<TypeCode>,
        bound: Option<u32>,
    },
    /// A named struct with ordered members.
    Struct {
        name: String,
        members: Vec<(String, TypeCode)>,
    },
    /// A named enum with its variant labels.
    Enum {
        name: String,
        variants: Vec<String>,
    },
    /// An object reference to the named interface.
    ObjRef {
        interface: String,
    },
}

/// Discriminants used on the wire.
#[repr(u32)]
enum Tag {
    Void = 0,
    Boolean = 1,
    Octet = 2,
    Char = 3,
    Short = 4,
    UShort = 5,
    Long = 6,
    ULong = 7,
    LongLong = 8,
    ULongLong = 9,
    Float = 10,
    Double = 11,
    Str = 12,
    Sequence = 13,
    DSequence = 14,
    Struct = 15,
    Enum = 16,
    ObjRef = 17,
}

impl TypeCode {
    /// Fixed size in bytes of one element, if the type has one (i.e. it
    /// is a primitive). Variable-size types return `None`.
    pub fn primitive_size(&self) -> Option<usize> {
        Some(match self {
            TypeCode::Boolean | TypeCode::Octet | TypeCode::Char => 1,
            TypeCode::Short | TypeCode::UShort => 2,
            TypeCode::Long | TypeCode::ULong | TypeCode::Float => 4,
            TypeCode::LongLong | TypeCode::ULongLong | TypeCode::Double => 8,
            _ => return None,
        })
    }

    /// Natural CDR alignment of the type, if primitive.
    pub fn primitive_align(&self) -> Option<usize> {
        self.primitive_size()
    }

    /// Whether this is a `dsequence` (distributed argument).
    pub fn is_distributed(&self) -> bool {
        matches!(self, TypeCode::DSequence { .. })
    }

    /// Human-readable IDL-ish rendering, used in diagnostics.
    pub fn idl_name(&self) -> String {
        match self {
            TypeCode::Void => "void".into(),
            TypeCode::Boolean => "boolean".into(),
            TypeCode::Octet => "octet".into(),
            TypeCode::Char => "char".into(),
            TypeCode::Short => "short".into(),
            TypeCode::UShort => "unsigned short".into(),
            TypeCode::Long => "long".into(),
            TypeCode::ULong => "unsigned long".into(),
            TypeCode::LongLong => "long long".into(),
            TypeCode::ULongLong => "unsigned long long".into(),
            TypeCode::Float => "float".into(),
            TypeCode::Double => "double".into(),
            TypeCode::String => "string".into(),
            TypeCode::Sequence { elem, bound } => match bound {
                Some(b) => format!("sequence<{}, {}>", elem.idl_name(), b),
                None => format!("sequence<{}>", elem.idl_name()),
            },
            TypeCode::DSequence { elem, bound } => match bound {
                Some(b) => format!("dsequence<{}, {}>", elem.idl_name(), b),
                None => format!("dsequence<{}>", elem.idl_name()),
            },
            TypeCode::Struct { name, .. } => name.clone(),
            TypeCode::Enum { name, .. } => name.clone(),
            TypeCode::ObjRef { interface } => interface.clone(),
        }
    }
}

impl Encode for TypeCode {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        match self {
            TypeCode::Void => w.put_u32(Tag::Void as u32),
            TypeCode::Boolean => w.put_u32(Tag::Boolean as u32),
            TypeCode::Octet => w.put_u32(Tag::Octet as u32),
            TypeCode::Char => w.put_u32(Tag::Char as u32),
            TypeCode::Short => w.put_u32(Tag::Short as u32),
            TypeCode::UShort => w.put_u32(Tag::UShort as u32),
            TypeCode::Long => w.put_u32(Tag::Long as u32),
            TypeCode::ULong => w.put_u32(Tag::ULong as u32),
            TypeCode::LongLong => w.put_u32(Tag::LongLong as u32),
            TypeCode::ULongLong => w.put_u32(Tag::ULongLong as u32),
            TypeCode::Float => w.put_u32(Tag::Float as u32),
            TypeCode::Double => w.put_u32(Tag::Double as u32),
            TypeCode::String => w.put_u32(Tag::Str as u32),
            TypeCode::Sequence { elem, bound } => {
                w.put_u32(Tag::Sequence as u32);
                elem.encode(w)?;
                w.put_u32(bound.map_or(0, |b| b));
            }
            TypeCode::DSequence { elem, bound } => {
                w.put_u32(Tag::DSequence as u32);
                elem.encode(w)?;
                w.put_u32(bound.map_or(0, |b| b));
            }
            TypeCode::Struct { name, members } => {
                w.put_u32(Tag::Struct as u32);
                w.put_string(name);
                w.put_u32(members.len() as u32);
                for (mname, mtc) in members {
                    w.put_string(mname);
                    mtc.encode(w)?;
                }
            }
            TypeCode::Enum { name, variants } => {
                w.put_u32(Tag::Enum as u32);
                w.put_string(name);
                variants.encode(w)?;
            }
            TypeCode::ObjRef { interface } => {
                w.put_u32(Tag::ObjRef as u32);
                w.put_string(interface);
            }
        }
        Ok(())
    }
}

impl Decode for TypeCode {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        let tag = r.get_u32()?;
        Ok(match tag {
            x if x == Tag::Void as u32 => TypeCode::Void,
            x if x == Tag::Boolean as u32 => TypeCode::Boolean,
            x if x == Tag::Octet as u32 => TypeCode::Octet,
            x if x == Tag::Char as u32 => TypeCode::Char,
            x if x == Tag::Short as u32 => TypeCode::Short,
            x if x == Tag::UShort as u32 => TypeCode::UShort,
            x if x == Tag::Long as u32 => TypeCode::Long,
            x if x == Tag::ULong as u32 => TypeCode::ULong,
            x if x == Tag::LongLong as u32 => TypeCode::LongLong,
            x if x == Tag::ULongLong as u32 => TypeCode::ULongLong,
            x if x == Tag::Float as u32 => TypeCode::Float,
            x if x == Tag::Double as u32 => TypeCode::Double,
            x if x == Tag::Str as u32 => TypeCode::String,
            x if x == Tag::Sequence as u32 => {
                let elem = Box::new(TypeCode::decode(r)?);
                let b = r.get_u32()?;
                TypeCode::Sequence {
                    elem,
                    bound: if b == 0 { None } else { Some(b) },
                }
            }
            x if x == Tag::DSequence as u32 => {
                let elem = Box::new(TypeCode::decode(r)?);
                let b = r.get_u32()?;
                TypeCode::DSequence {
                    elem,
                    bound: if b == 0 { None } else { Some(b) },
                }
            }
            x if x == Tag::Struct as u32 => {
                let name = r.get_string()?;
                let n = r.get_u32()? as usize;
                // A member takes at least an empty name's length (4
                // bytes) and a type code's tag (4).
                if n > r.remaining() / 8 {
                    return Err(CdrError::LengthOverflow(n as u64));
                }
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    let mname = r.get_string()?;
                    let mtc = TypeCode::decode(r)?;
                    members.push((mname, mtc));
                }
                TypeCode::Struct { name, members }
            }
            x if x == Tag::Enum as u32 => TypeCode::Enum {
                name: r.get_string()?,
                variants: Vec::<String>::decode(r)?,
            },
            x if x == Tag::ObjRef as u32 => TypeCode::ObjRef {
                interface: r.get_string()?,
            },
            other => {
                return Err(CdrError::BadDiscriminant {
                    type_name: "TypeCode",
                    value: other,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endian;

    fn roundtrip(tc: TypeCode) {
        let mut w = CdrWriter::new(Endian::native());
        tc.encode(&mut w).unwrap();
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, Endian::native());
        assert_eq!(TypeCode::decode(&mut r).unwrap(), tc);
    }

    #[test]
    fn primitive_typecodes_roundtrip() {
        for tc in [
            TypeCode::Void,
            TypeCode::Boolean,
            TypeCode::Octet,
            TypeCode::Long,
            TypeCode::ULongLong,
            TypeCode::Double,
            TypeCode::String,
        ] {
            roundtrip(tc);
        }
    }

    #[test]
    fn composite_typecodes_roundtrip() {
        roundtrip(TypeCode::DSequence {
            elem: Box::new(TypeCode::Double),
            bound: Some(1024),
        });
        roundtrip(TypeCode::Sequence {
            elem: Box::new(TypeCode::Sequence {
                elem: Box::new(TypeCode::Octet),
                bound: None,
            }),
            bound: None,
        });
        roundtrip(TypeCode::Struct {
            name: "Point".into(),
            members: vec![
                ("x".into(), TypeCode::Double),
                ("y".into(), TypeCode::Double),
            ],
        });
        roundtrip(TypeCode::Enum {
            name: "Color".into(),
            variants: vec!["RED".into(), "GREEN".into()],
        });
        roundtrip(TypeCode::ObjRef {
            interface: "diff_object".into(),
        });
    }

    #[test]
    fn sizes_and_flags() {
        assert_eq!(TypeCode::Double.primitive_size(), Some(8));
        assert_eq!(TypeCode::Short.primitive_size(), Some(2));
        assert_eq!(TypeCode::String.primitive_size(), None);
        assert!(TypeCode::DSequence {
            elem: Box::new(TypeCode::Double),
            bound: None
        }
        .is_distributed());
        assert!(!TypeCode::Long.is_distributed());
    }

    #[test]
    fn idl_names() {
        assert_eq!(
            TypeCode::DSequence {
                elem: Box::new(TypeCode::Double),
                bound: Some(1024)
            }
            .idl_name(),
            "dsequence<double, 1024>"
        );
        assert_eq!(TypeCode::UShort.idl_name(), "unsigned short");
    }

    #[test]
    fn bad_tag_rejected() {
        let mut w = CdrWriter::new(Endian::native());
        w.put_u32(999);
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, Endian::native());
        assert!(matches!(
            TypeCode::decode(&mut r),
            Err(CdrError::BadDiscriminant { .. })
        ));
    }
}
