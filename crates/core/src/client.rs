//! Client-side binding and invocation.
//!
//! PARDIS offers two ways for a client to bind to an object (§2.1):
//!
//! * [`OrbCtx::spmd_bind`] — "a collective form of bind; it has to be
//!   called by all the computing threads of a client and should be used
//!   by clients wishing to act as one entity in interactions with
//!   objects. After `spmd_bind`, every invocation to the object must be
//!   called by all the threads that participated in the bind call, and
//!   will result \[in\] making one request on the object."
//! * [`OrbCtx::bind`] — "non-collective and always establishes one
//!   binding per thread … After this form of bind, proxy methods using
//!   non-distributed mapping of distributed arguments should be used;
//!   the invocations are non-collective."
//!
//! Either form yields a [`Proxy`] through which [`RequestSpec`]s are
//! invoked, blocking ([`Proxy::invoke`]) or returning a future
//! ([`Proxy::invoke_nb`]). The argument-transfer method is selected per
//! proxy ([`Proxy::set_mode`]) or per call.

use crate::dist::DistTempl;
use crate::dseq::{DSequence, Elem};
use crate::error::{PardisError, PardisResult};
use crate::future::PardisFuture;
use crate::orb::OrbCtx;
use crate::request::{byte_len, ArgDir, DistArgSend, InvokeTiming, ReplyResult, RequestSpec};
use crate::transfer;
use bytes::Bytes;
use pardis_net::conn::Connection;
use pardis_net::giop::{GiopMessage, TransferMode};
use pardis_net::{Frame, ObjectRef};
use pardis_rts::ReduceOp;
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Bounded-retry policy for idempotent invocations: on a retryable
/// transport fault ([`PardisError::is_retryable`]) the invocation is
/// re-sent, with exponential backoff between attempts. Collective
/// bindings agree on the retry decision machine-wide, so either every
/// computing thread retries or none does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, counting the first (so `1` means no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied per retry (exponential backoff).
    pub backoff_factor: u32,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            backoff_factor: 2,
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let mult = self.backoff_factor.max(1).saturating_pow(attempt.min(16));
        (self.base_backoff * mult).min(self.max_backoff)
    }
}

/// An attempt's verdict, as the exit round carries it (the max over the
/// threads): all succeeded, one met a retryable fault, one failed.
const OK: f64 = 0.0;
const RETRY: f64 = 1.0;
const FAIL: f64 = 2.0;

/// One attempt's outcome: this thread's result and the machine's verdict.
type Attempt = (PardisResult<ReplyResult>, f64);

/// A client-side handle on a (possibly remote, possibly SPMD) object.
pub struct Proxy {
    pub(crate) objref: ObjectRef,
    /// True when created by `spmd_bind`: invocations are collective.
    pub(crate) collective: bool,
    /// The request/reply connection. Present on the communicating thread
    /// of a collective binding, and always for a per-thread binding.
    pub(crate) conn: Option<Connection>,
    /// Transfer method used by `invoke`.
    pub(crate) mode: TransferMode,
    /// Reply frames that arrived out of order (outstanding futures),
    /// with their request ids.
    pub(crate) reply_buf: RefCell<Vec<(u64, Frame)>>,
    /// Retry policy applied by `invoke` to idempotent requests.
    pub(crate) retry: Option<RetryPolicy>,
    /// Default invocation deadline when the spec does not carry one.
    pub(crate) default_deadline: Option<Duration>,
    /// Invocation attempts that were retried on this thread.
    pub(crate) retries: Cell<u64>,
    /// Multi-port invocations demoted to centralized because a server
    /// data port was found dead.
    pub(crate) fallbacks: Cell<u64>,
    /// Circuit-breaker threshold: after this many consecutive failed
    /// invocations the binding fast-fails without touching the wire.
    /// `None` disables the breaker.
    pub(crate) breaker: Option<u32>,
    /// Consecutive failed invocations on this binding (machine-agreed
    /// for collective bindings, so every thread trips together).
    pub(crate) consecutive_failures: Cell<u32>,
}

/// The client half of an invocation between its send and receive phases
/// (what a future holds on to).
#[derive(Debug, Clone)]
pub struct PendingInvoke {
    pub(crate) req_id: u64,
    pub(crate) mode: TransferMode,
    pub(crate) dist: Vec<PendingDist>,
    pub(crate) response_expected: bool,
    pub(crate) timing: InvokeTiming,
    pub(crate) started: Instant,
    /// Absolute deadline for the receive phase, if any.
    pub(crate) deadline: Option<Instant>,
    /// A send-phase failure deferred until the receive phase, so the
    /// machine's threads stay in lockstep through the collectives.
    pub(crate) send_error: Option<PardisError>,
    /// Body bytes of the Request frame this rank marshaled; 0 when it
    /// built none (only the thread holding the connection does).
    pub(crate) body_len: usize,
    /// What the invocation's spans need beyond its timing.
    #[cfg(feature = "obs")]
    pub(crate) trace: crate::obs::InvokeTrace,
}

/// Routing info for one distributed argument of a pending invocation.
#[derive(Debug, Clone)]
pub(crate) struct PendingDist {
    pub dir: ArgDir,
    pub elem_size: usize,
    pub client_templ: DistTempl,
    pub server_templ: DistTempl,
}

impl OrbCtx {
    /// Collective bind: every computing thread calls this; the machine
    /// then acts as one entity toward the object. `expected_type` (if
    /// given) is checked against the object's interface id.
    pub fn spmd_bind(
        &self,
        name: &str,
        host: Option<&str>,
        expected_type: Option<&str>,
    ) -> PardisResult<Proxy> {
        let started = Instant::now();
        let objref = if self.is_comm_thread() {
            let objref = self.resolve(name, host)?;
            let bytes = pardis_cdr::traits::to_bytes(&objref).map_err(PardisError::from)?;
            self.rts.broadcast(0, Some(Bytes::from(bytes)))?;
            objref
        } else {
            let bytes = self.rts.broadcast(0, None)?;
            pardis_cdr::traits::from_bytes::<ObjectRef>(&bytes).map_err(PardisError::from)?
        };
        check_type(&objref, expected_type)?;
        let conn = if self.is_comm_thread() {
            Some(Connection::open(
                &self.host,
                objref.host,
                objref.request_port,
            ))
        } else {
            None
        };
        Ok(self.bound(name, started, objref, true, conn))
    }

    /// Per-thread bind: establishes one binding for the calling thread
    /// only; invocations through it are non-collective and use the
    /// non-distributed argument mapping (or a single-thread distributed
    /// mapping).
    pub fn bind(
        &self,
        name: &str,
        host: Option<&str>,
        expected_type: Option<&str>,
    ) -> PardisResult<Proxy> {
        let started = Instant::now();
        let objref = self.resolve(name, host)?;
        check_type(&objref, expected_type)?;
        let conn = Connection::open(&self.host, objref.host, objref.request_port);
        Ok(self.bound(name, started, objref, false, Some(conn)))
    }

    /// A fresh binding to `objref`, resolved as `name` by a bind that
    /// began at `started`.
    fn bound(
        &self,
        name: &str,
        started: Instant,
        objref: ObjectRef,
        collective: bool,
        conn: Option<Connection>,
    ) -> Proxy {
        #[cfg(feature = "obs")]
        crate::obs::bound(self, name, started);
        let _ = (name, started);
        Proxy {
            objref,
            collective,
            conn,
            mode: TransferMode::Centralized,
            reply_buf: RefCell::new(Vec::new()),
            retry: None,
            default_deadline: None,
            retries: Cell::new(0),
            fallbacks: Cell::new(0),
            breaker: None,
            consecutive_failures: Cell::new(0),
        }
    }

    fn resolve(&self, name: &str, host: Option<&str>) -> PardisResult<ObjectRef> {
        let host_id = match host {
            None => None,
            Some(h) => Some(self.host.fabric().host_by_name(h).ok_or_else(|| {
                PardisError::ObjectNotFound {
                    name: name.to_string(),
                    host: Some(h.to_string()),
                }
            })?),
        };
        self.naming.resolve(name, host_id, self.resolve_timeout)
    }
}

fn check_type(objref: &ObjectRef, expected: Option<&str>) -> PardisResult<()> {
    if let Some(e) = expected {
        if objref.type_id != e {
            return Err(PardisError::InterfaceMismatch {
                expected: e.to_string(),
                found: objref.type_id.clone(),
            });
        }
    }
    Ok(())
}

/// Check that every distributed argument of `spec` fits a binding of
/// `threads` client threads, on thread `rank`: its client template
/// names `threads` threads, its two templates agree on its length, and
/// a sending argument's block is exactly the thread's share. Neither
/// transfer method can send an argument that fails these.
fn check_args(spec: &RequestSpec, rank: usize, threads: usize) -> PardisResult<()> {
    for (i, a) in spec.dist_args.iter().enumerate() {
        let (client, server) = (&a.client_templ, &a.server_templ);
        if client.nthreads() != threads {
            return Err(PardisError::BadDistArg(format!(
                "argument {i} client template names {} threads, binding has {threads}",
                client.nthreads()
            )));
        }
        if server.len() != client.len() {
            return Err(PardisError::BadDistArg(format!(
                "argument {i}: server template covers {} elements, client template {}",
                server.len(),
                client.len()
            )));
        }
        let share = byte_len(client.count(rank), a.elem_size)?;
        if a.dir.sends() && a.local.len() != share {
            return Err(PardisError::BadDistArg(format!(
                "argument {i}: thread {rank}'s block is {} bytes, its share {share}",
                a.local.len()
            )));
        }
    }
    Ok(())
}

impl Proxy {
    /// The bound object's reference.
    pub fn objref(&self) -> &ObjectRef {
        &self.objref
    }

    /// Whether this binding is collective (`spmd_bind`).
    pub fn is_collective(&self) -> bool {
        self.collective
    }

    /// The transfer method `invoke` will use.
    pub fn mode(&self) -> TransferMode {
        self.mode
    }

    /// Select the transfer method for subsequent invocations. Multi-port
    /// requires the object to advertise per-thread data ports.
    pub fn set_mode(&mut self, mode: TransferMode) -> PardisResult<()> {
        if mode == TransferMode::MultiPort && !self.objref.supports_multiport() {
            return Err(PardisError::MultiportUnavailable);
        }
        self.mode = mode;
        Ok(())
    }

    /// Enable bounded retry with exponential backoff for idempotent
    /// invocations (`spec.idempotent` or `oneway`). On a collective
    /// binding every thread of the machine must set the same policy.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// Disable automatic retry.
    pub fn clear_retry(&mut self) {
        self.retry = None;
    }

    /// Default per-invocation deadline applied when a request spec does
    /// not carry its own. `None` restores indefinite blocking.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.default_deadline = deadline;
    }

    /// Arm the per-binding circuit breaker: after `threshold`
    /// consecutive failed invocations, further calls fast-fail with
    /// [`PardisError::CircuitOpen`] without touching the wire, until
    /// [`Proxy::rebind`] replaces the binding. On a collective binding
    /// every thread must arm the same threshold; the failure count then
    /// follows the verdict the exit round agrees on, so all threads
    /// trip — and fast-fail — together.
    pub fn set_circuit_breaker(&mut self, threshold: u32) {
        self.breaker = Some(threshold.max(1));
    }

    /// Disarm the circuit breaker (and close it).
    pub fn clear_circuit_breaker(&mut self) {
        self.breaker = None;
        self.consecutive_failures.set(0);
    }

    /// Consecutive failed invocations on this binding so far.
    pub fn consecutive_failure_count(&self) -> u32 {
        self.consecutive_failures.get()
    }

    /// Invocation attempts this thread has retried so far.
    pub fn retry_count(&self) -> u64 {
        self.retries.get()
    }

    /// Multi-port invocations this thread demoted to the centralized
    /// method because a server data port was dead.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Describe a distributed argument from a typed sequence, resolving
    /// the server-side layout from the object reference's registered
    /// distribution templates (`dist_index` counts distributed arguments
    /// of the operation, in order).
    pub fn dist_arg<T: Elem>(
        &self,
        op: &str,
        dist_index: u32,
        dir: ArgDir,
        seq: &DSequence<T>,
    ) -> PardisResult<DistArgSend> {
        let spec = self.objref.dist_for(op, dist_index);
        let server_templ = DistTempl::from_spec(&spec, seq.len(), self.objref.nthreads as usize)?;
        Ok(DistArgSend {
            dir,
            elem_size: T::wire_size(),
            local: seq.share(),
            client_templ: seq.templ().clone(),
            server_templ,
            #[cfg(feature = "analyze")]
            buf_id: seq.buf_id(),
        })
    }

    /// Describe a distributed argument from a plain (non-distributed)
    /// slice — the `_nd` mapping used with per-thread bindings: the whole
    /// sequence lives on the calling thread, the server still sees its
    /// registered distribution. The slice is borrowed program memory, so
    /// this mapping copies it once more than [`Proxy::dist_arg`] does.
    pub fn dist_arg_nd<T: Elem>(
        &self,
        op: &str,
        dist_index: u32,
        dir: ArgDir,
        data: &[T],
    ) -> PardisResult<DistArgSend> {
        let spec = self.objref.dist_for(op, dist_index);
        let server_templ = DistTempl::from_spec(&spec, data.len(), self.objref.nthreads as usize)?;
        Ok(DistArgSend {
            dir,
            elem_size: T::wire_size(),
            local: T::to_native_bytes(data),
            client_templ: DistTempl::from_counts(vec![data.len()]),
            server_templ,
            // A plain slice has no tracked buffer identity.
            #[cfg(feature = "analyze")]
            buf_id: 0,
        })
    }

    /// Invoke an operation, blocking until the reply (if any) has been
    /// delivered to every computing thread. Collective when the binding
    /// is collective. When a [`RetryPolicy`] is set and the request is
    /// idempotent (or `oneway`), retryable transport faults are retried
    /// with exponential backoff; on a collective binding the retry
    /// decision is agreed machine-wide, so all threads stay in lockstep.
    pub fn invoke(&self, ctx: &OrbCtx, spec: RequestSpec) -> PardisResult<ReplyResult> {
        self.invoke_with_mode(ctx, spec, self.mode)
    }

    /// Invoke with an explicit transfer method, overriding
    /// [`Proxy::mode`] for this call.
    pub fn invoke_with_mode(
        &self,
        ctx: &OrbCtx,
        spec: RequestSpec,
        mode: TransferMode,
    ) -> PardisResult<ReplyResult> {
        // Open breaker: fast-fail before any collective or wire
        // traffic. Counters follow the machine's verdict (below), so on
        // a collective binding every thread takes this exit together.
        if let Some(threshold) = self.breaker {
            let failures = self.consecutive_failures.get();
            if failures >= threshold {
                return Err(PardisError::CircuitOpen { failures });
            }
        }
        let (result, verdict) = self.invoke_attempts(ctx, spec, mode);
        if self.breaker.is_some() {
            let failures = self.consecutive_failures.get().saturating_add(1);
            self.consecutive_failures
                .set(if verdict == OK { 0 } else { failures });
        }
        result
    }

    /// The invocation loop proper: attempts under the retry policy,
    /// each ending in one exit round. Returns this thread's result and
    /// the machine's verdict on the last attempt.
    fn invoke_attempts(&self, ctx: &OrbCtx, spec: RequestSpec, mode: TransferMode) -> Attempt {
        let can_retry = self.retry.is_some() && (spec.idempotent || !spec.response_expected);
        // PA103: a retry policy on a non-idempotent two-way request is
        // legal but inert — the policy never fires. Surface the hazard
        // to the analyzer instead of silently ignoring it.
        #[cfg(feature = "analyze")]
        if self.retry.is_some() && !can_retry {
            crate::analyze::record(
                "PA103",
                format!(
                    "retry policy attached to non-idempotent operation `{}`; \
                     the policy will never retry it",
                    spec.operation
                ),
            );
        }
        let mut attempt: u32 = 0;
        loop {
            let (result, verdict) = match self.begin(ctx, &spec, mode) {
                Ok(pending) => self.complete(ctx, pending, can_retry),
                Err(e) => self.exit_round(ctx, Err(e), can_retry),
            };
            let Some(policy) = self.retry else {
                return (result, verdict);
            };
            if verdict != RETRY || attempt + 1 >= policy.max_attempts {
                let result = match result {
                    // This thread succeeded but the machine failed:
                    // surface a consistent error everywhere.
                    Ok(_) if verdict != OK => Err(PardisError::CommFailure(
                        "collective invocation failed on another computing thread".into(),
                    )),
                    result => result,
                };
                return (result, verdict);
            }
            self.retries.set(self.retries.get() + 1);
            #[cfg(feature = "obs")]
            crate::obs::count("orb.retries");
            std::thread::sleep(policy.backoff(attempt));
            attempt += 1;
        }
    }

    /// Non-blocking invocation: the send phase runs now, the returned
    /// future's `wait` runs the receive phase. For collective bindings
    /// every thread must eventually wait (futures are collective, like
    /// the invocations that create them).
    pub fn invoke_nb<'a>(
        &'a self,
        ctx: &'a OrbCtx,
        spec: RequestSpec,
    ) -> PardisResult<PardisFuture<'a, ReplyResult>> {
        let pending = self.begin(ctx, &spec, self.mode)?;
        let probe_ready = self.conn.is_some();
        let fut = PardisFuture::pending(move || self.complete(ctx, pending, false).0);
        Ok(if probe_ready {
            // On the thread holding the connection, readiness can be
            // probed by peeking the reply port.
            fut.with_probe(move || self.reply_arrived())
        } else {
            fut
        })
    }

    /// Begin an invocation: synchronize, agree on a request id, run the
    /// send phase of the transfer method (`mode`, or centralized if a
    /// data port is dead).
    fn begin(
        &self,
        ctx: &OrbCtx,
        spec: &RequestSpec,
        mode: TransferMode,
    ) -> PardisResult<PendingInvoke> {
        // Agree on the request id and the effective transfer method.
        // The communicating thread probes the server's data ports when
        // multi-port was requested; if any is dead the invocation is
        // demoted to the centralized method (graceful degradation), and
        // the decision rides along with the id so all threads use the
        // same method.
        let requested = mode;
        // Every distributed argument must fit the binding before a byte
        // is sent; on a collective binding the verdict rides the entry
        // round, so every thread fails together.
        let rank = if self.collective { ctx.rank() } else { 0 };
        let threads = if self.collective { ctx.nthreads() } else { 1 };
        let fits = check_args(spec, rank, threads);
        let (req_id, mode) = if self.collective {
            // PA101: before committing to the (deadlocking) collective
            // protocol, agree that every computing thread is issuing the
            // same invocation. Divergence becomes a typed error naming
            // both call sites instead of a hang.
            #[cfg(feature = "analyze")]
            ctx.rts
                .agree_collective(&crate::analyze::fingerprint(spec, mode))?;
            // "the computing threads of the client first synchronize"
            // (§3.2): one max allreduce is that barrier and also carries
            // the communicating thread's id (as two exact 32-bit halves)
            // and method to everyone, and whether any thread's arguments
            // do not fit; the other threads contribute 0 to the first
            // three words.
            let misfit = f64::from(u8::from(fits.is_err()));
            let mine = if ctx.is_comm_thread() {
                let id = ctx.next_request_id();
                let multiport = self.effective_mode(ctx, mode) == TransferMode::MultiPort;
                [
                    (id >> 32) as f64,
                    id as u32 as f64,
                    multiport as u8 as f64,
                    misfit,
                ]
            } else {
                [0.0, 0.0, 0.0, misfit]
            };
            let agreed = ctx.rts.allreduce_f64(&mine, ReduceOp::Max)?;
            if agreed[3] > 0.0 {
                fits?;
                return Err(PardisError::BadDistArg(
                    "a distributed argument does not fit its template on another computing thread"
                        .into(),
                ));
            }
            let mode = if agreed[2] > 0.0 {
                TransferMode::MultiPort
            } else {
                TransferMode::Centralized
            };
            ((agreed[0] as u64) << 32 | agreed[1] as u64, mode)
        } else {
            fits?;
            (ctx.next_request_id(), self.effective_mode(ctx, mode))
        };
        let started = Instant::now();
        let fell_back = requested == TransferMode::MultiPort && mode == TransferMode::Centralized;
        if fell_back {
            self.fallbacks.set(self.fallbacks.get() + 1);
        }

        let mut pending = PendingInvoke {
            req_id,
            mode,
            dist: spec
                .dist_args
                .iter()
                .map(|a| PendingDist {
                    dir: a.dir,
                    elem_size: a.elem_size,
                    client_templ: a.client_templ.clone(),
                    server_templ: a.server_templ.clone(),
                })
                .collect(),
            response_expected: spec.response_expected,
            timing: InvokeTiming::default(),
            started,
            deadline: spec.deadline.or(self.default_deadline).map(|d| started + d),
            send_error: None,
            body_len: 0,
            #[cfg(feature = "obs")]
            trace: crate::obs::begin(self, spec, req_id, fell_back),
        };

        // A send failure on a collective binding is deferred to the
        // receive phase: the machine's threads must pass through the
        // same collectives, so the error is surfaced after them.
        if let Err(e) = self.invoke_send(ctx, spec, &mut pending) {
            if self.collective {
                pending.send_error = Some(e);
            } else {
                return Err(e);
            }
        }
        Ok(pending)
    }

    /// The send phase: refuse multi-port transfer to an object without
    /// data ports, mark every distributed argument's client buffer in
    /// flight until the invocation completes, then run the send phase.
    fn invoke_send(
        &self,
        ctx: &OrbCtx,
        spec: &RequestSpec,
        pending: &mut PendingInvoke,
    ) -> PardisResult<()> {
        if pending.mode == TransferMode::MultiPort && !self.objref.supports_multiport() {
            return Err(PardisError::MultiportUnavailable);
        }
        #[cfg(feature = "analyze")]
        for arg in &spec.dist_args {
            crate::race::open_transfer(
                arg.buf_id,
                arg.dir,
                &spec.operation,
                pending.req_id,
                pending.mode,
                ctx.rts.membership().epoch(),
            );
        }
        transfer::client_send(ctx, self, spec, pending)
    }

    /// Probe the server's data ports when multi-port transfer is
    /// requested; demote to centralized if any is dead.
    fn effective_mode(&self, ctx: &OrbCtx, mode: TransferMode) -> TransferMode {
        if mode == TransferMode::MultiPort {
            let fabric = ctx.host.fabric();
            let alive = self
                .objref
                .data_ports
                .iter()
                .all(|&p| fabric.port_alive(self.objref.host, p));
            if !alive {
                return TransferMode::Centralized;
            }
        }
        mode
    }

    /// Replace this binding with a freshly resolved reference to the
    /// same object — the recovery move after a typed
    /// [`PardisError::MembershipChange`] or an open circuit breaker.
    ///
    /// **Epoch fencing**: only a reference with a *strictly newer*
    /// membership epoch is accepted. The naming service may still hold
    /// the pre-death registration when the client reacts, so this polls
    /// (bounded by the ORB's resolve timeout) until the server's
    /// re-registration lands; a stale re-resolve can therefore never
    /// roll the binding back onto dead data ports. Collective on
    /// collective bindings. Closes the circuit breaker and drops
    /// buffered replies of the old binding. Returns the new epoch.
    pub fn rebind(&mut self, ctx: &OrbCtx) -> PardisResult<u64> {
        let old_epoch = self.objref.epoch;
        let fresh = if !self.collective || ctx.is_comm_thread() {
            let deadline = Instant::now() + ctx.resolve_timeout;
            let fresh = loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                let r = ctx
                    .naming
                    .resolve(&self.objref.name, Some(self.objref.host), remaining)?;
                if r.epoch > old_epoch {
                    break r;
                }
                if Instant::now() >= deadline {
                    return Err(PardisError::Timeout);
                }
                std::thread::yield_now();
            };
            if self.collective {
                let bytes = pardis_cdr::traits::to_bytes(&fresh).map_err(PardisError::from)?;
                ctx.rts.broadcast(0, Some(Bytes::from(bytes)))?;
            }
            fresh
        } else {
            let bytes = ctx.rts.broadcast(0, None)?;
            pardis_cdr::traits::from_bytes::<ObjectRef>(&bytes).map_err(PardisError::from)?
        };
        if self.conn.is_some() {
            self.conn = Some(Connection::open(&ctx.host, fresh.host, fresh.request_port));
        }
        self.reply_buf.borrow_mut().clear();
        self.objref = fresh;
        self.consecutive_failures.set(0);
        Ok(self.objref.epoch)
    }

    /// Complete an invocation: run the receive phase, take the exit
    /// round, stamp the total time. Returns this thread's result and the
    /// machine's verdict (see [`Proxy::exit_round`]).
    fn complete(&self, ctx: &OrbCtx, pending: PendingInvoke, can_retry: bool) -> Attempt {
        let received = if pending.response_expected {
            transfer::client_recv(ctx, self, &pending)
        } else {
            Ok(ReplyResult {
                nondist_body: Bytes::new(),
                dist_out: Vec::new(),
                timing: pending.timing,
            })
        };
        let result = match (received, &pending.send_error) {
            (Ok(r), None) => Ok(r),
            // A deferred send failure outranks a nominal receive.
            (Ok(_), Some(e)) => Err(e.clone()),
            (Err(e), _) => Err(e),
        };
        // The transfer is over (either way): close this request's
        // access intervals so later buffer accesses are ordered.
        #[cfg(feature = "analyze")]
        crate::race::close_transfer(pending.req_id);
        let (mut result, verdict) = self.exit_round(ctx, result, can_retry);
        if let Ok(r) = &mut result {
            r.timing.total = pending.started.elapsed();
        }
        #[cfg(feature = "obs")]
        crate::obs::complete(ctx, self, &pending, &result);
        (result, verdict)
    }

    /// The exit round of an attempt (§3.3 reads the send interleaving
    /// off the time threads spend in it; `timing.barrier`). A collective
    /// binding takes it on the error path too, as one max allreduce of
    /// this thread's verdict: [`OK`], [`RETRY`] (a retryable fault of a
    /// request `can_retry`) or [`FAIL`]. Returns `result` and the
    /// verdict of the machine, which the retry policy and the breaker
    /// read.
    fn exit_round(
        &self,
        ctx: &OrbCtx,
        mut result: PardisResult<ReplyResult>,
        can_retry: bool,
    ) -> Attempt {
        let verdict = match &result {
            Ok(_) => OK,
            Err(e) if can_retry && e.is_retryable() => RETRY,
            Err(_) => FAIL,
        };
        if !self.collective {
            return (result, verdict);
        }
        let tb = Instant::now();
        match ctx.rts.allreduce_scalar(verdict, ReduceOp::Max) {
            Ok(agreed) => {
                if let Ok(r) = &mut result {
                    r.timing.barrier += tb.elapsed();
                }
                (result, agreed)
            }
            Err(e) => (result.and(Err(e.into())), FAIL),
        }
    }

    /// Receive the Reply frame for `req_id` on `conn`, buffering frames
    /// of replies to other outstanding requests on the same connection.
    /// `deadline` bounds the wait; `None` blocks indefinitely.
    pub(crate) fn recv_reply(
        &self,
        conn: &Connection,
        req_id: u64,
        deadline: Option<Instant>,
    ) -> PardisResult<Frame> {
        {
            let mut buf = self.reply_buf.borrow_mut();
            if let Some(i) = buf.iter().position(|(id, _)| *id == req_id) {
                return Ok(buf.remove(i).1);
            }
        }
        loop {
            let frame = conn.recv_frame(deadline)?;
            match GiopMessage::decode(&frame)? {
                GiopMessage::Reply(h, _) if h.request_id == req_id => return Ok(frame),
                GiopMessage::Reply(h, _) => self.reply_buf.borrow_mut().push((h.request_id, frame)),
                other => {
                    return Err(PardisError::Net(format!(
                        "unexpected message on reply port: {other:?}"
                    )))
                }
            }
        }
    }

    /// Whether a reply is waiting on the connection (readiness probe for
    /// futures; only meaningful on the thread holding the connection).
    fn reply_arrived(&self) -> bool {
        if !self.reply_buf.borrow().is_empty() {
            return true;
        }
        let Some(frame) = self.conn.as_ref().and_then(Connection::try_recv_frame) else {
            return false;
        };
        match GiopMessage::decode(&frame) {
            Ok(GiopMessage::Reply(h, _)) => {
                self.reply_buf.borrow_mut().push((h.request_id, frame));
                true
            }
            _ => false,
        }
    }
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("object", &self.objref.name)
            .field("type", &self.objref.type_id)
            .field("collective", &self.collective)
            .field("mode", &self.mode)
            .finish()
    }
}
