//! Server-side object model: servants, request dispatch, serve loops.
//!
//! An SPMD object is "an object associated with a set of one or more
//! computing threads visible to the request broker, … capable of
//! satisfying services if and only if a request for them is delivered to
//! all the computing threads" (§2). Concretely:
//!
//! * every computing thread registers its own [`Servant`] instance for
//!   the object (each thread implements its share of the computation),
//! * the communicating thread receives invocation headers on the
//!   machine's request port and relays them to all threads through the
//!   RTS,
//! * every thread materializes its local parts of the distributed
//!   arguments (read in place from the relayed frame, or assembled from
//!   multi-port fragments), dispatches into its servant, synchronizes,
//!   and the reply flows back by the same method the request used.
//!
//! Serve loops come in three flavors: [`OrbCtx::serve_forever`] (until a
//! shutdown message), [`OrbCtx::serve_n`], and [`OrbCtx::poll_requests`]
//! — the paper's "server to interrupt its computation in order to
//! process outstanding requests" (§2.1).

use crate::dist::DistTempl;
use crate::dseq::{DSequence, Elem};
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{ArgDir, InvokeTiming, RequestBody};
use crate::transfer::{self, error_reply};
use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrResult, CdrWriter, Endian, Frame};
use pardis_net::giop::{GiopMessage, ReplyStatus, RequestHeader, TransferMode};
use pardis_rts::ReduceOp;
use std::time::{Duration, Instant};

/// One computing thread's implementation of (its share of) an object.
pub trait Servant: Send {
    /// Interface repository id, e.g. `IDL:diff_object:1.0`. Must agree
    /// across all threads registering the same object.
    fn type_id(&self) -> &str;

    /// Handle one operation invocation. Called collectively: every
    /// computing thread of the object dispatches the same request with
    /// its own local argument parts. Returning
    /// [`PardisError::UserException`] reports an IDL-declared exception;
    /// other errors become system exceptions.
    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()>;
}

/// A received distributed argument, as seen by one computing thread.
#[derive(Debug, Clone)]
pub struct DistIn {
    /// Passing mode.
    pub dir: ArgDir,
    /// Bytes per element.
    pub elem_size: usize,
    /// Layout on the client.
    pub client_templ: DistTempl,
    /// Layout on this server (this thread owns
    /// `server_templ.range(rank)`).
    pub server_templ: DistTempl,
    /// This thread's local part, native byte order. Zero-filled for
    /// `out` arguments. Usually a view of the received frame: the one
    /// copy happens when a servant materializes it with
    /// [`ServerRequest::dist_seq`].
    pub local: Bytes,
}

/// One invocation as presented to a servant.
pub struct ServerRequest<'a> {
    ctx: &'a OrbCtx,
    operation: String,
    endian: Endian,
    nondist: Bytes,
    dist_in: Vec<DistIn>,
    reply_nondist: Bytes,
    reply_dist: Vec<Option<Bytes>>,
}

impl<'a> ServerRequest<'a> {
    /// The operation being invoked.
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// The ORB context of this computing thread (rank, RTS access for
    /// intra-object communication such as halo exchanges).
    pub fn ctx(&self) -> &OrbCtx {
        self.ctx
    }

    /// CDR reader over the non-distributed `in`/`inout` arguments.
    pub fn args(&self) -> CdrReader<'_> {
        CdrReader::new(&self.nondist, self.endian)
    }

    /// Number of distributed arguments.
    pub fn dist_count(&self) -> usize {
        self.dist_in.len()
    }

    /// Raw view of distributed argument `idx`.
    pub fn dist_raw(&self, idx: usize) -> PardisResult<&DistIn> {
        self.dist_in
            .get(idx)
            .ok_or_else(|| PardisError::BadDistArg(format!("no distributed argument {idx}")))
    }

    /// Distributed argument `idx` as a typed sequence (this thread's
    /// local part), viewing the received frame in place. The view keeps
    /// the whole frame alive until the sequence is dropped or its first
    /// mutation detaches it.
    pub fn dist_seq<T: Elem>(&self, idx: usize) -> PardisResult<DSequence<T>> {
        let d = self.dist_raw(idx)?;
        if d.elem_size != T::wire_size() {
            return Err(PardisError::BadDistArg(format!(
                "argument {idx} has {}-byte elements, requested type has {}",
                d.elem_size,
                T::wire_size()
            )));
        }
        DSequence::from_bytes(d.local.clone(), d.server_templ.clone(), self.ctx.rank())
    }

    /// Marshal the non-distributed results (out/inout/return values).
    /// All threads must write identical bytes; the communicating thread's
    /// copy travels back.
    pub fn set_result<F>(&mut self, f: F) -> PardisResult<()>
    where
        F: FnOnce(&mut CdrWriter) -> CdrResult<()>,
    {
        let mut w = CdrWriter::new(self.endian);
        f(&mut w)?;
        self.reply_nondist = w.into_shared();
        Ok(())
    }

    /// Return this thread's local part of distributed argument `idx`
    /// (which must be `out` or `inout`). The sequence must keep the
    /// layout the argument arrived with — PARDIS does not resize
    /// sequences across an invocation boundary.
    pub fn return_dist_seq<T: Elem>(&mut self, idx: usize, seq: &DSequence<T>) -> PardisResult<()> {
        let d = self
            .dist_in
            .get(idx)
            .ok_or_else(|| PardisError::BadDistArg(format!("no distributed argument {idx}")))?;
        if !d.dir.returns() {
            return Err(PardisError::BadDistArg(format!(
                "argument {idx} is `in`; it cannot be returned"
            )));
        }
        if seq.templ() != &d.server_templ {
            return Err(PardisError::BadDistArg(format!(
                "returned sequence layout differs from the argument's (len {} vs {})",
                seq.len(),
                d.server_templ.len()
            )));
        }
        self.reply_dist[idx] = Some(seq.share());
        Ok(())
    }

    /// Drop this thread's views of the request's distributed data that
    /// the reply does not send: each `in` argument's block, and each
    /// returning one's that the servant replaced. Called before the exit
    /// round, so that a storage a client lent to the request is no
    /// longer shared through this thread once the call completes.
    fn release_request(&mut self) {
        for (d, replaced) in self.dist_in.iter_mut().zip(&self.reply_dist) {
            if !d.dir.returns() || replaced.is_some() {
                d.local = Bytes::new();
            }
        }
    }

    /// The marshaled non-distributed results (for the reply phase).
    pub(crate) fn reply_nondist_bytes(&self) -> Bytes {
        self.reply_nondist.clone()
    }

    /// Final reply bytes for a returning argument: what the servant
    /// stored, falling back to the (unmodified) request data for `inout`
    /// and zeros for `out`.
    pub(crate) fn reply_local(&self, idx: usize) -> Bytes {
        match &self.reply_dist[idx] {
            Some(v) => v.clone(),
            None => self.dist_in[idx].local.clone(),
        }
    }
}

impl OrbCtx {
    /// Serve exactly one request (collective across the machine's
    /// threads; blocks until a request or shutdown arrives). Returns
    /// `false` if a shutdown message ended the loop.
    pub fn serve_one(&self) -> PardisResult<bool> {
        let payload = self.next_served_payload(None)?;
        match payload {
            Some(p) => self.serve_payload(p),
            None => Ok(true), // spurious wake with timeout; not used here
        }
    }

    /// Serve requests until shutdown.
    pub fn serve_forever(&self) -> PardisResult<()> {
        while self.serve_one()? {}
        Ok(())
    }

    /// Serve up to `n` requests or until shutdown; returns the number
    /// actually served.
    pub fn serve_n(&self, n: usize) -> PardisResult<usize> {
        let mut served = 0;
        while served < n {
            if !self.serve_one()? {
                break;
            }
            served += 1;
        }
        Ok(served)
    }

    /// Drain any requests that are already waiting, without blocking —
    /// the paper's "interrupt its computation in order to process
    /// outstanding requests". Collective. Returns the number served;
    /// shutdown messages found while draining are ignored (a polling
    /// server decides when to stop).
    pub fn poll_requests(&self) -> PardisResult<usize> {
        let mut served = 0;
        loop {
            match self.next_served_payload(Some(Duration::ZERO))? {
                None => return Ok(served),
                Some(p) => {
                    if self.serve_payload(p)? {
                        served += 1;
                    }
                }
            }
        }
    }

    /// Communicating thread pulls the next request (optionally
    /// non-blocking) and relays it to all threads in one broadcast: the
    /// received frame itself, or an empty payload when a non-blocking
    /// poll found nothing (then every thread returns `None`).
    ///
    /// Every thread decodes the same frame, inline sections included:
    /// in the centralized method each thread then takes its own block
    /// of every distributed argument from it in place, so no scatter
    /// follows the relay.
    fn next_served_payload(&self, poll: Option<Duration>) -> PardisResult<Option<ServedPayload>> {
        if self.is_comm_thread() {
            let request_port = self.request_port.as_ref().ok_or_else(|| {
                PardisError::Internal("communicating thread has no request port".into())
            })?;
            // Pull datagrams until one decodes. A datagram corrupted in
            // flight (injected frame faults) is counted and skipped so
            // the serve loop survives it; the client's deadline/retry
            // machinery recovers the lost request.
            let parsed: Option<(ServedPayload, Frame)> = loop {
                let dg = match poll {
                    None => Some(request_port.recv()?),
                    Some(_) => request_port.try_recv(),
                };
                let dg = match dg {
                    None => break None,
                    Some(dg) => dg,
                };
                let Ok(endian) = GiopMessage::body_endian(&dg.payload) else {
                    self.count_decode_error();
                    continue;
                };
                match GiopMessage::decode(&dg.payload) {
                    Ok(GiopMessage::Request(header, body)) => {
                        match RequestBody::decode(&body, endian) {
                            Ok(req) => {
                                break Some((
                                    ServedPayload::request(header, req, endian),
                                    dg.payload,
                                ))
                            }
                            Err(_) => {
                                self.count_decode_error();
                                continue;
                            }
                        }
                    }
                    Ok(GiopMessage::CloseConnection) => {
                        break Some((ServedPayload::shutdown(endian), dg.payload))
                    }
                    Ok(other) => {
                        return Err(PardisError::Net(format!(
                            "unexpected message on request port: {other:?}"
                        )))
                    }
                    Err(_) => {
                        self.count_decode_error();
                        continue;
                    }
                }
            };
            let (served, relay) = parsed.unzip();
            self.rts
                .broadcast_frame(0, Some(relay.unwrap_or_default()))?;
            Ok(served)
        } else {
            let wire = self.rts.broadcast_frame(0, None)?;
            if wire.is_empty() {
                return Ok(None);
            }
            let endian = GiopMessage::body_endian(&wire)?;
            match GiopMessage::decode(&wire)? {
                GiopMessage::Request(header, body) => {
                    let body = RequestBody::decode(&body, endian)?;
                    Ok(Some(ServedPayload::request(header, body, endian)))
                }
                GiopMessage::CloseConnection => Ok(Some(ServedPayload::shutdown(endian))),
                other => Err(PardisError::Net(format!(
                    "unexpected relayed message: {other:?}"
                ))),
            }
        }
    }

    /// A datagram on the request port failed to decode and was skipped.
    fn count_decode_error(&self) {
        self.serve_decode_errors
            .set(self.serve_decode_errors.get() + 1);
        #[cfg(feature = "obs")]
        crate::obs::count("orb.serve_decode_errors");
    }

    /// Every scheduled `ThreadDeath` whose step has arrived by serve
    /// step `step`, ascending and deduplicated. All ranks read the same
    /// shared fault plan, so the result — and everything keyed on it
    /// (the degradation verdict, the template remap) — is identical on
    /// every thread with no extra communication. The live membership
    /// mask is NOT used here: a rank racing ahead could have marked a
    /// later death already, and basing the verdict on it would diverge.
    ///
    /// Rank 0 is the communicating thread; its death is machine death,
    /// not degraded operation, so scheduled deaths of rank 0 are
    /// ignored. With no fault plan installed this is one `RwLock` read
    /// returning an empty schedule.
    fn scheduled_dead_at(&self, step: u64) -> Vec<usize> {
        let deaths = self.host.fabric().thread_deaths();
        if deaths.is_empty() {
            return Vec::new();
        }
        let mut dead: Vec<usize> = deaths
            .iter()
            .filter(|d| d.at_step <= step)
            .map(|d| d.rank as usize)
            .filter(|&r| r != 0 && r < self.nthreads())
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Process one relayed request. Returns `false` for shutdown.
    fn serve_payload(&self, p: ServedPayload) -> PardisResult<bool> {
        let ServedPayload {
            header,
            body,
            endian,
        } = p;
        let header = match header {
            Some(h) => h,
            None => return Ok(false), // shutdown
        };

        // Scheduled thread deaths fire immediately before serving the
        // `at_step`-th request. The request above was already relayed to
        // every thread, so all ranks reach this point for the same step
        // and apply the same plan — rank death replays bit-for-bit.
        let step = self.serve_step.get();
        self.serve_step.set(step + 1);
        let dead = self.scheduled_dead_at(step);
        if !dead.is_empty() {
            // Synchronize before the first mark: collectives reject a
            // confirmed-dead caller at entry, so a rank racing ahead
            // must not record the death while the dying rank is still
            // inside the relay broadcast above. After this barrier the
            // dying rank touches no further collective.
            self.rts.barrier();
            for &r in &dead {
                // Idempotent: only the first application bumps the epoch.
                self.rts.membership().mark_dead(r);
                // Close the dead thread's data port before any reply can
                // leave the machine, so a retrying client's port probe
                // deterministically demotes the binding to the
                // centralized method.
                self.host
                    .fabric()
                    .kill_port(self.host.id(), self.data_port_ids[r]);
            }
            // Republish under the bumped epoch so clients holding a
            // membership-change exception can rebind past the epoch
            // fence.
            self.republish_under_current_epoch();
            if dead.contains(&self.rank()) {
                // This thread is dead: leave the serve loop without
                // touching the survivors' collectives.
                return Ok(false);
            }
            let live = self.nthreads() - dead.len();
            let refuse = !self.degrade.allows(live, self.nthreads());
            // Multi-port fragments routed to a dead thread's port are
            // lost, so this invocation cannot complete in either policy;
            // the retry (port probe) arrives centralized.
            let frags_lost = header.mode == TransferMode::MultiPort;
            if refuse || frags_lost {
                if self.is_comm_thread() && header.response_expected {
                    let v = self.rts.membership().view();
                    let status = if refuse {
                        ReplyStatus::MembershipChange {
                            epoch: v.epoch,
                            dead: v
                                .dead(self.nthreads())
                                .into_iter()
                                .map(|r| r as u32)
                                .collect(),
                            survivors: v
                                .survivors(self.nthreads())
                                .into_iter()
                                .map(|r| r as u32)
                                .collect(),
                        }
                    } else {
                        ReplyStatus::SystemException(
                            "communication failure: data port closed by thread death; retry".into(),
                        )
                    };
                    let reply = error_reply(endian, header.request_id, status)?;
                    self.host
                        .send_to(header.reply_host, header.reply_port, reply)?;
                }
                return Ok(true);
            }
            // Survivors (or a met quorum): serve degraded from here on.
            self.degraded_survivors.replace(Some(
                (0..self.nthreads()).filter(|r| !dead.contains(r)).collect(),
            ));
        }

        let mut timing = InvokeTiming::default();
        let t0 = Instant::now();

        // Materialize this thread's local parts of the distributed
        // arguments. A failure here (e.g. a multi-port fragment wait
        // that hit `frag_timeout` because the client's frames were
        // dropped) must NOT abort the serve loop: it is recorded and
        // becomes the receive verdict below, so the client gets an
        // error Reply and the server stays up.
        let received = transfer::server_receive_args(self, &header, &body, &mut timing);
        let (dist_in, recv_err) = match received {
            Ok(v) => (v, None),
            Err(e) => (Vec::new(), Some(e)),
        };

        // Every thread must reach the same receive verdict BEFORE
        // dispatching: a thread that received everything must not enter
        // the servant (whose SPMD code runs collectives) while its peer
        // skips it — that mismatch deadlocks the machine. A centralized
        // verdict depends only on the relayed frame, the template and
        // the survivors, which every thread holds. Agree where it does
        // not: multi-port threads wait for different fragments under
        // `frag_timeout`, and each thread allocates its own `out` block.
        let mut any_recv_err = recv_err.is_some();
        if header.mode == TransferMode::MultiPort || body.dist.iter().any(|(m, _)| !m.dir.sends()) {
            let mine = f64::from(u8::from(any_recv_err));
            any_recv_err = self.rts.allreduce_scalar(mine, ReduceOp::Max)? > 0.0;
        }
        // This thread's blocks are taken: its view of the relayed frame
        // goes, and with it the storage any client lent to it.
        let RequestBody { nondist, dist } = body;
        drop(dist);

        // Dispatch into this thread's servant (skipped when the
        // arguments never materialized).
        let n_dist = dist_in.len();
        let mut sreq = ServerRequest {
            ctx: self,
            operation: header.operation.clone(),
            endian,
            nondist,
            dist_in,
            reply_nondist: Bytes::new(),
            reply_dist: vec![None; n_dist],
        };
        let result = if any_recv_err {
            Err(recv_err.unwrap_or_else(|| {
                PardisError::CommFailure(
                    "argument receive failed on another computing thread".into(),
                )
            }))
        } else {
            let servant = self.servants.borrow_mut().remove(&header.object_name);
            match servant {
                None => Err(PardisError::ObjectNotFound {
                    name: header.object_name.clone(),
                    host: Some(self.host.name()),
                }),
                Some(mut s) => {
                    let r = s.dispatch(&mut sreq);
                    self.servants
                        .borrow_mut()
                        .insert(header.object_name.clone(), s);
                    r
                }
            }
        };

        sreq.release_request();

        // Post-invocation synchronization (§3.2: "after the invocation
        // the server's computing threads synchronize"), which is also
        // the machine-wide agreement on success before any data is
        // sent: a thread that failed must not leave the client waiting
        // for fragments that will never come. An allreduce is a
        // barrier, so no thread leaves before all have finished.
        let tb = Instant::now();
        let mine = f64::from(u8::from(result.is_err()));
        let any_err = self.rts.allreduce_scalar(mine, ReduceOp::Max)? > 0.0;
        timing.barrier = tb.elapsed();

        if header.response_expected {
            if any_err {
                // Collect the error texts; the communicating thread
                // reports the first one.
                let msg = match &result {
                    Err(e) => e.to_string(),
                    Ok(()) => String::new(),
                };
                let gathered = self
                    .rts
                    .gather_bytes(0, Bytes::copy_from_slice(msg.as_bytes()))?;
                if let Some(chunks) = gathered {
                    let first = chunks
                        .iter()
                        .find(|c| !c.is_empty())
                        .map(|c| String::from_utf8_lossy(c).into_owned())
                        .unwrap_or_else(|| "unknown error".into());
                    let status = if first.starts_with("user exception") {
                        ReplyStatus::UserException(
                            first.trim_start_matches("user exception: ").to_string(),
                        )
                    } else {
                        ReplyStatus::SystemException(first)
                    };
                    let reply = error_reply(endian, header.request_id, status)?;
                    self.host
                        .send_to(header.reply_host, header.reply_port, reply)?;
                }
            } else {
                transfer::server_send_reply(self, &header, &sreq, endian, &mut timing)?;
            }
        }

        timing.total = t0.elapsed();
        self.last_serve_timing.set(timing);
        #[cfg(feature = "obs")]
        crate::obs::served(self, &header, sreq.nondist.len(), tb - t0, &timing);
        Ok(true)
    }
}

/// A request after relay to all threads.
struct ServedPayload {
    /// `None` signals shutdown.
    header: Option<RequestHeader>,
    body: RequestBody,
    endian: Endian,
}

impl ServedPayload {
    fn request(header: RequestHeader, body: RequestBody, endian: Endian) -> ServedPayload {
        ServedPayload {
            header: Some(header),
            body,
            endian,
        }
    }

    fn shutdown(endian: Endian) -> ServedPayload {
        ServedPayload {
            header: None,
            body: RequestBody {
                nondist: Bytes::new(),
                dist: vec![],
            },
            endian,
        }
    }
}
