//! Object references.
//!
//! A PARDIS object reference plays the role of a CORBA IOR. Beyond the
//! classic contents (name, interface, host, request port) it carries the
//! two pieces of information that make SPMD interaction possible:
//!
//! * **the data port of every computing thread** — "these connections
//!   become a part of object reference for this particular object and
//!   are accessible to clients wanting to connect" (§3.3), and
//! * **registered distribution templates** for distributed `in`/`inout`
//!   arguments — "the server can set the distribution of a distributed
//!   sequence which is an 'in' parameter to any of its operations before
//!   registering" (§2.2); clients use this to compute, locally, which
//!   server thread owns which elements.

use crate::fabric::{HostId, PortId};
use pardis_cdr::{CdrError, CdrReader, CdrResult, CdrWriter, Decode, Encode};

/// A distribution template as carried in object references and request
/// headers. The full ownership-map machinery lives in `pardis-core`;
/// this is the wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistSpec {
    /// Uniform blockwise distribution (the default everywhere in the
    /// paper: unset templates "default to uniform blockwise").
    Block,
    /// Proportional distribution, e.g. `Proportions(2,4,2,4)` gives
    /// thread 1 and 3 twice the elements of threads 0 and 2.
    Proportions(Vec<u32>),
}

impl DistSpec {
    /// Whether this is the default blockwise distribution.
    pub fn is_block(&self) -> bool {
        matches!(self, DistSpec::Block)
    }
}

impl Encode for DistSpec {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        match self {
            DistSpec::Block => w.put_u32(0),
            DistSpec::Proportions(p) => {
                w.put_u32(1);
                w.put_u32(p.len() as u32);
                for &x in p {
                    w.put_u32(x);
                }
            }
        }
        Ok(())
    }
}

impl Decode for DistSpec {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        match r.get_u32()? {
            0 => Ok(DistSpec::Block),
            1 => {
                let n = r.get_u32()? as usize;
                if n > r.remaining() / 4 {
                    return Err(CdrError::LengthOverflow(n as u64));
                }
                let mut p = Vec::with_capacity(n);
                for _ in 0..n {
                    p.push(r.get_u32()?);
                }
                Ok(DistSpec::Proportions(p))
            }
            other => Err(CdrError::BadDiscriminant {
                type_name: "DistSpec",
                value: other,
            }),
        }
    }
}

/// Distribution registered for one distributed argument of one
/// operation, e.g. `_diff_object_sk::diffusion_myarray = new
/// DistTempl(Proportions(2,4,2,4))` in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpArgDist {
    /// Operation name.
    pub op: String,
    /// Zero-based index of the argument within the operation.
    pub arg_index: u32,
    /// The registered template.
    pub dist: DistSpec,
}

impl Encode for OpArgDist {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_string(&self.op);
        w.put_u32(self.arg_index);
        self.dist.encode(w)
    }
}

impl Decode for OpArgDist {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        Ok(OpArgDist {
            op: r.get_string()?,
            arg_index: r.get_u32()?,
            dist: DistSpec::decode(r)?,
        })
    }
}

/// A reference to a (possibly SPMD) PARDIS object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectRef {
    /// Name in the PARDIS naming domain (chosen at registration).
    pub name: String,
    /// Interface repository id, e.g. `IDL:diff_object:1.0`.
    pub type_id: String,
    /// Host the object lives on.
    pub host: HostId,
    /// Port of the communicating thread: invocation headers always go
    /// here (both methods deliver the *invocation* centrally, §3.3).
    pub request_port: PortId,
    /// One data port per computing thread, in thread order. Length 1 for
    /// sequential objects. Present only when the object enables
    /// multi-port transfer.
    pub data_ports: Vec<PortId>,
    /// Number of computing threads of the SPMD object.
    pub nthreads: u32,
    /// Distribution templates registered before the object was
    /// registered with the naming service.
    pub distributions: Vec<OpArgDist>,
    /// Membership epoch of the server domain when this reference was
    /// published. A reference re-registered after a rank death carries a
    /// higher epoch; clients rebind only to a strictly newer epoch
    /// (epoch fencing — a stale re-resolve can never roll a binding
    /// back onto dead data ports).
    pub epoch: u64,
}

impl ObjectRef {
    /// Distribution registered for `(op, arg_index)`, defaulting to
    /// blockwise as the paper specifies.
    pub fn dist_for(&self, op: &str, arg_index: u32) -> DistSpec {
        self.distributions
            .iter()
            .find(|d| d.op == op && d.arg_index == arg_index)
            .map(|d| d.dist.clone())
            .unwrap_or(DistSpec::Block)
    }

    /// Whether the object advertises per-thread data ports (multi-port
    /// transfer available).
    pub fn supports_multiport(&self) -> bool {
        self.data_ports.len() == self.nthreads as usize && self.nthreads > 0
    }
}

impl Encode for ObjectRef {
    fn encode(&self, w: &mut CdrWriter) -> CdrResult<()> {
        w.put_string(&self.name);
        w.put_string(&self.type_id);
        w.put_u32(self.host.0);
        w.put_u32(self.request_port);
        w.put_u32(self.data_ports.len() as u32);
        for &p in &self.data_ports {
            w.put_u32(p);
        }
        w.put_u32(self.nthreads);
        self.distributions.encode(w)?;
        w.put_u64(self.epoch);
        Ok(())
    }
}

impl Decode for ObjectRef {
    fn decode(r: &mut CdrReader<'_>) -> CdrResult<Self> {
        let name = r.get_string()?;
        let type_id = r.get_string()?;
        let host = HostId(r.get_u32()?);
        let request_port = r.get_u32()?;
        let nports = r.get_u32()? as usize;
        if nports > r.remaining() / 4 {
            return Err(CdrError::LengthOverflow(nports as u64));
        }
        let mut data_ports = Vec::with_capacity(nports);
        for _ in 0..nports {
            data_ports.push(r.get_u32()?);
        }
        let nthreads = r.get_u32()?;
        let distributions = Vec::<OpArgDist>::decode(r)?;
        let epoch = r.get_u64()?;
        Ok(ObjectRef {
            name,
            type_id,
            host,
            request_port,
            data_ports,
            nthreads,
            distributions,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardis_cdr::Endian;

    fn sample_ref() -> ObjectRef {
        ObjectRef {
            name: "example".into(),
            type_id: "IDL:diff_object:1.0".into(),
            host: HostId(1),
            request_port: 5,
            data_ports: vec![6, 7, 8, 9],
            nthreads: 4,
            distributions: vec![OpArgDist {
                op: "diffusion".into(),
                arg_index: 1,
                dist: DistSpec::Proportions(vec![2, 4, 2, 4]),
            }],
            epoch: 2,
        }
    }

    #[test]
    fn objectref_roundtrip() {
        let obj = sample_ref();
        for endian in [Endian::Big, Endian::Little] {
            let mut w = CdrWriter::new(endian);
            obj.encode(&mut w).unwrap();
            let buf = w.into_bytes();
            let mut r = CdrReader::new(&buf, endian);
            assert_eq!(ObjectRef::decode(&mut r).unwrap(), obj);
        }
    }

    #[test]
    fn dist_lookup_defaults_to_block() {
        let obj = sample_ref();
        assert_eq!(
            obj.dist_for("diffusion", 1),
            DistSpec::Proportions(vec![2, 4, 2, 4])
        );
        assert_eq!(obj.dist_for("diffusion", 0), DistSpec::Block);
        assert_eq!(obj.dist_for("other_op", 1), DistSpec::Block);
    }

    #[test]
    fn multiport_support_detection() {
        let mut obj = sample_ref();
        assert!(obj.supports_multiport());
        obj.data_ports.truncate(2);
        assert!(!obj.supports_multiport());
        obj.data_ports.clear();
        assert!(!obj.supports_multiport());
    }

    #[test]
    fn distspec_roundtrip() {
        for spec in [
            DistSpec::Block,
            DistSpec::Proportions(vec![1]),
            DistSpec::Proportions(vec![2, 4, 2, 4]),
        ] {
            let bytes = pardis_cdr::traits::to_bytes(&spec).unwrap();
            let back: DistSpec = pardis_cdr::traits::from_bytes(&bytes).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn distspec_bad_tag() {
        let mut w = CdrWriter::new(Endian::native());
        w.put_u32(42);
        let buf = w.into_bytes();
        let mut r = CdrReader::new(&buf, Endian::native());
        assert!(DistSpec::decode(&mut r).is_err());
    }
}
