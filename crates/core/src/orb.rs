//! The ORB context.
//!
//! An [`OrbCtx`] is one computing thread's handle on the PARDIS ORB. An
//! SPMD program of `n` threads holds `n` contexts created collectively by
//! [`OrbCtx::init`]; a sequential program holds one. The context owns:
//!
//! * the thread's RTS endpoint (intra-machine message passing),
//! * the thread's **data port** — the per-thread network connection that
//!   enables multi-port argument transfer (§3.3),
//! * on the communicating thread (thread 0), the machine's **request
//!   port**, where invocation headers arrive (§3.2/§3.3: the invocation
//!   itself is always delivered centrally),
//! * the naming domain, the servant registry, and buffered
//!   data-transfer fragments.

use crate::error::PardisResult;
use crate::naming::NameService;
use crate::request::InvokeTiming;
use crate::server::Servant;
use bytes::Bytes;
use pardis_cdr::Endian;
use pardis_net::giop::TransferHeader;
use pardis_net::{Host, ObjectRef, PortId, PortRecv};
use pardis_rts::Endpoint;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// What a server machine does with an in-flight or subsequent
/// invocation once one of its computing threads is confirmed dead.
///
/// The policy is evaluated as a pure function of the membership view,
/// so every surviving thread reaches the same verdict without extra
/// communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Refuse: reply with a typed membership-change exception so the
    /// client learns the epoch, the dead ranks, and the survivors, and
    /// can decide to rebind or give up. The default — degraded results
    /// are never returned silently.
    FailFast,
    /// Complete over the survivors while at least `k` threads live;
    /// below the quorum, behave like [`DegradePolicy::FailFast`].
    Quorum(u32),
    /// Always complete over the survivor set: distributed arguments are
    /// remapped onto the live threads blockwise.
    Survivors,
}

impl DegradePolicy {
    /// Whether an invocation may proceed with `live` of `total` threads.
    pub fn allows(&self, live: usize, total: usize) -> bool {
        match *self {
            DegradePolicy::FailFast => live == total,
            DegradePolicy::Quorum(k) => live == total || live >= k as usize,
            DegradePolicy::Survivors => live > 0,
        }
    }
}

/// ORB configuration knobs.
#[derive(Debug, Clone)]
pub struct OrbOptions {
    /// Byte order used on the wire (native by default; forcing the
    /// non-native order exercises the data-translation path end to end).
    pub endian: Endian,
    /// Apply data translation (per-word byte swap) when packing and
    /// unpacking distributed arguments, simulating a heterogeneous peer
    /// — the §3.3 ablation.
    pub translate: bool,
    /// How long `bind`/`spmd_bind` wait for the object to be activated.
    pub resolve_timeout: Duration,
    /// How long a server computing thread waits for the DataTransfer
    /// fragments of one argument (multi-port mode) before reporting a
    /// system exception. `None` (the default) blocks forever — correct
    /// on a lossless fabric; set it when frames can be dropped so a lost
    /// fragment degrades to an error reply instead of a hang.
    pub frag_timeout: Option<Duration>,
    /// Server-side graceful-degradation policy applied when a computing
    /// thread is confirmed dead mid-service.
    pub degrade: DegradePolicy,
}

impl Default for OrbOptions {
    fn default() -> OrbOptions {
        OrbOptions {
            endian: Endian::native(),
            translate: false,
            resolve_timeout: Duration::from_secs(30),
            frag_timeout: None,
            degrade: DegradePolicy::FailFast,
        }
    }
}

/// Buffered early-arriving DataTransfer fragments, keyed by
/// `(request_id, arg_index)`.
pub(crate) type FragBuffer = HashMap<(u64, u32), VecDeque<(TransferHeader, Bytes)>>;

/// One computing thread's handle on the ORB.
pub struct OrbCtx {
    pub(crate) rts: Endpoint,
    pub(crate) host: Host,
    pub(crate) naming: NameService,
    /// This thread's data port (fragment traffic).
    pub(crate) data_port: PortRecv,
    /// Data port ids of every thread on this machine, in thread order.
    pub(crate) data_port_ids: Vec<PortId>,
    /// The machine's request port; only the communicating thread holds
    /// the receiving half.
    pub(crate) request_port: Option<PortRecv>,
    pub(crate) request_port_id: PortId,
    /// This thread's servant instances, by object name.
    pub(crate) servants: RefCell<HashMap<String, Box<dyn Servant>>>,
    /// DataTransfer fragments received early, keyed by (request, arg).
    pub(crate) frags: RefCell<FragBuffer>,
    /// Per-thread request id counter.
    pub(crate) req_counter: Cell<u64>,
    pub(crate) endian: Endian,
    pub(crate) translate: bool,
    /// Resolve timeout for binds.
    pub(crate) resolve_timeout: Duration,
    /// Server-side fragment-wait timeout.
    pub(crate) frag_timeout: Option<Duration>,
    /// Timing of the most recent served request (server-side phases).
    pub(crate) last_serve_timing: Cell<InvokeTiming>,
    /// Datagrams skipped by the serve loop because they failed to
    /// decode (corrupted in flight).
    pub(crate) serve_decode_errors: Cell<u64>,
    /// Degradation policy applied after a confirmed thread death.
    pub(crate) degrade: DegradePolicy,
    /// Number of requests this thread's serve loop has begun serving —
    /// the logical clock that scheduled `ThreadDeath` faults key on.
    pub(crate) serve_step: Cell<u64>,
    /// Object references this machine has published, by name: the comm
    /// thread re-registers them under the new epoch after a membership
    /// change so clients can rebind.
    pub(crate) registered: RefCell<HashMap<String, ObjectRef>>,
    /// `Some(survivor ranks)` once this machine serves degraded. Derived
    /// from the *scheduled* death plan, never from the racy live
    /// membership mask, so every surviving thread remaps distribution
    /// templates identically without extra communication.
    pub(crate) degraded_survivors: RefCell<Option<Vec<usize>>>,
}

impl OrbCtx {
    /// Collectively initialize the ORB across a machine's computing
    /// threads: every thread of the RTS domain must call this once, with
    /// the same `host` and `naming`.
    pub fn init(
        rts: Endpoint,
        host: Host,
        naming: NameService,
        opts: OrbOptions,
    ) -> PardisResult<OrbCtx> {
        // Bind this thread's race-analyzer identity before any tracked
        // buffer can be created on it.
        #[cfg(feature = "analyze")]
        crate::race::set_actor(&host.name(), rts.rank());
        // Bind this thread's observability identity (span recorder +
        // metrics) before the first collective can record anything.
        #[cfg(feature = "obs")]
        crate::obs::init(&host.name(), host.id().0, rts.rank());
        // Each thread opens its own data port, in rank order so the
        // machine's port numbering is a pure function of thread count —
        // this is what lets a seeded fault plan replay identically
        // across runs. Then advertise the ports to the whole machine.
        let mut data_port = None;
        for r in 0..rts.size() {
            if rts.rank() == r {
                data_port = Some(host.open_port());
            }
            rts.barrier();
        }
        let data_port = data_port.ok_or_else(|| {
            crate::PardisError::Internal("rank-ordered data port was not opened".into())
        })?;
        let port_ids_u64 = rts.allgather_u64(data_port.port() as u64)?;
        let data_port_ids: Vec<PortId> = port_ids_u64.into_iter().map(|p| p as PortId).collect();

        // The communicating thread opens the request port.
        let (request_port, request_port_id) = if rts.rank() == 0 {
            let p = host.open_port();
            let id = p.port();
            rts.broadcast(0, Some(Bytes::copy_from_slice(&id.to_le_bytes())))?;
            (Some(p), id)
        } else {
            let b = rts.broadcast(0, None)?;
            let mut a = [0u8; 4];
            a.copy_from_slice(&b[..4]);
            (None, PortId::from_le_bytes(a))
        };

        Ok(OrbCtx {
            rts,
            host,
            naming,
            data_port,
            data_port_ids,
            request_port,
            request_port_id,
            servants: RefCell::new(HashMap::new()),
            frags: RefCell::new(HashMap::new()),
            req_counter: Cell::new(0),
            endian: opts.endian,
            translate: opts.translate,
            resolve_timeout: opts.resolve_timeout,
            frag_timeout: opts.frag_timeout,
            last_serve_timing: Cell::new(InvokeTiming::default()),
            serve_decode_errors: Cell::new(0),
            degrade: opts.degrade,
            serve_step: Cell::new(0),
            registered: RefCell::new(HashMap::new()),
            degraded_survivors: RefCell::new(None),
        })
    }

    /// This computing thread's index within the machine.
    pub fn rank(&self) -> usize {
        self.rts.rank()
    }

    /// Number of computing threads on this machine.
    pub fn nthreads(&self) -> usize {
        self.rts.size()
    }

    /// Whether this is the machine's communicating thread.
    pub fn is_comm_thread(&self) -> bool {
        self.rank() == 0
    }

    /// The thread's RTS endpoint — the paper's "interface to the
    /// run-time system underlying the object implementation"; user code
    /// (e.g. halo exchanges inside a servant) may use it directly.
    pub fn rts(&self) -> &Endpoint {
        &self.rts
    }

    /// Network identity of this machine.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The naming domain this ORB participates in.
    pub fn naming(&self) -> &NameService {
        &self.naming
    }

    /// Wire byte order in use.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Whether data translation is being applied to distributed
    /// arguments.
    pub fn translate(&self) -> bool {
        self.translate
    }

    /// Server-side phase timings of the most recently served request.
    pub fn last_serve_timing(&self) -> InvokeTiming {
        self.last_serve_timing.get()
    }

    /// How many datagrams the serve loop has skipped because they
    /// failed to decode (e.g. corrupted by an injected fault).
    pub fn serve_decode_errors(&self) -> u64 {
        self.serve_decode_errors.get()
    }

    /// A machine-unique request id: host, thread, then a counter.
    pub(crate) fn next_request_id(&self) -> u64 {
        let c = self.req_counter.get();
        self.req_counter.set(c + 1);
        ((self.host.id().0 as u64) << 48) | ((self.rank() as u64) << 32) | c
    }

    /// Register an SPMD object: every computing thread calls this with
    /// its own servant instance (each thread implements its part of the
    /// object, as in an SPMD program). The communicating thread publishes
    /// the object reference — including every thread's data port and the
    /// given distribution templates — in the naming domain.
    ///
    /// `distributions` mirrors the paper's pre-registration assignment
    /// `_diff_object_sk::diffusion_myarray = new DistTempl(...)`.
    pub fn register(
        &self,
        name: &str,
        servant: Box<dyn Servant>,
        distributions: Vec<pardis_net::ior::OpArgDist>,
    ) -> PardisResult<ObjectRef> {
        let type_id = servant.type_id().to_string();
        self.servants.borrow_mut().insert(name.to_string(), servant);
        let objref = ObjectRef {
            name: name.to_string(),
            type_id,
            host: self.host.id(),
            request_port: self.request_port_id,
            data_ports: self.data_port_ids.clone(),
            nthreads: self.nthreads() as u32,
            distributions,
            epoch: self.rts.membership().epoch(),
        };
        self.registered
            .borrow_mut()
            .insert(name.to_string(), objref.clone());
        if self.is_comm_thread() {
            self.naming.register(objref.clone());
        }
        // Make registration visible before any thread returns to
        // compute (a client may bind immediately).
        self.rts.barrier();
        Ok(objref)
    }

    /// Remove an object from this machine (collective).
    pub fn unregister(&self, name: &str) {
        self.servants.borrow_mut().remove(name);
        self.registered.borrow_mut().remove(name);
        if self.is_comm_thread() {
            self.naming.unregister(name, self.host.id());
        }
        self.rts.barrier();
    }

    /// The degradation policy this ORB serves under.
    pub fn degrade_policy(&self) -> DegradePolicy {
        self.degrade
    }

    /// Current membership view of this machine's computing threads.
    pub fn membership_view(&self) -> pardis_rts::MembershipView {
        self.rts.membership().view()
    }

    /// The server-side layout actually in force for a request: identical
    /// to the wire template on a healthy machine, remapped onto the
    /// survivor set once the machine serves degraded. Dead threads own
    /// zero elements, so the rank-ordered gather/scatter paths need no
    /// other changes.
    pub(crate) fn effective_server_templ(
        &self,
        templ: crate::dist::DistTempl,
    ) -> PardisResult<crate::dist::DistTempl> {
        let surv = self.degraded_survivors.borrow();
        match surv.as_deref() {
            None => Ok(templ),
            Some(survivors) => {
                #[cfg(feature = "analyze")]
                {
                    // PA104: a deliberately skewed (Proportions) layout
                    // cannot be honored by the blockwise remap — the
                    // degraded invocation silently loses the registered
                    // proportions.
                    let uniform = crate::dist::DistTempl::block(templ.len(), templ.nthreads());
                    if templ.counts() != uniform.counts() {
                        crate::analyze::record(
                            "PA104",
                            format!(
                                "degraded remap of a non-uniform template {:?} onto \
                                 survivors {survivors:?} discards the registered \
                                 proportions",
                                templ.counts()
                            ),
                        );
                    }
                }
                templ.remap_onto(survivors)
            }
        }
    }

    /// Re-publish every object this machine registered, stamped with
    /// the current membership epoch. Called by the comm thread after a
    /// confirmed death so clients that received a membership-change
    /// exception can rebind; epoch fencing on the client side makes a
    /// stale (pre-death) reference unusable for rebinding.
    pub(crate) fn republish_under_current_epoch(&self) {
        if !self.is_comm_thread() {
            return;
        }
        let epoch = self.rts.membership().epoch();
        let mut reg = self.registered.borrow_mut();
        for objref in reg.values_mut() {
            if objref.epoch < epoch {
                objref.epoch = epoch;
                self.naming.register(objref.clone());
            }
        }
    }

    /// Ask the SPMD object behind `objref` to leave its serve loop.
    /// Non-collective; call from one thread.
    pub fn send_shutdown(&self, objref: &ObjectRef) -> PardisResult<()> {
        let msg = pardis_net::giop::GiopMessage::CloseConnection;
        self.host
            .send_to(objref.host, objref.request_port, msg.encode(self.endian)?)?;
        Ok(())
    }
}

impl std::fmt::Debug for OrbCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrbCtx")
            .field("host", &self.host.name())
            .field("rank", &self.rank())
            .field("nthreads", &self.nthreads())
            .field("request_port", &self.request_port_id)
            .field("data_port", &self.data_port.port())
            .finish()
    }
}
