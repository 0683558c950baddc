//! Hosts, ports and routing.
//!
//! A [`Fabric`] is the network picture of a PARDIS deployment: a set of
//! named [`Host`]s (machines) joined by [`crate::Link`]s. Each host hands
//! out numbered ports; a port is owned by exactly one thread (its
//! receiver half, [`PortRecv`]) — this is how "each computing thread of
//! the SPMD object opens a network connection on a separate port" (§3.3).

use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::link::{Link, LinkSpec};
use crate::{Datagram, NetError, NetResult};
use crossbeam::channel::{unbounded, Receiver, Sender};
use pardis_cdr::Frame;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies a host within its fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// A port number on a host.
pub type PortId = u32;

struct HostEntry {
    name: String,
    ports: HashMap<PortId, Sender<Datagram>>,
    /// Ports administratively killed (fault injection): distinguishes a
    /// deliberate kill from a port that was never opened.
    killed: HashSet<PortId>,
    next_port: PortId,
}

struct FabricInner {
    hosts: RwLock<Vec<HostEntry>>,
    /// Pairwise links; the paper's testbed has exactly one entry. A
    /// missing pair means no route (except loopback, which bypasses the
    /// wire entirely).
    links: RwLock<HashMap<(HostId, HostId), Arc<Link>>>,
    /// Link used for any host pair without an explicit entry, if set.
    default_link: RwLock<Option<Arc<Link>>>,
    /// Installed fault plan, if any. `None` is the fast path: one read
    /// lock and a pointer check per send.
    faults: RwLock<Option<Arc<FaultState>>>,
}

/// A simulated internetwork of hosts.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// A fabric where every pair of hosts shares one link of `spec` —
    /// the paper's configuration: one physical network link carrying all
    /// traffic between client and server machines.
    pub fn shared_link(spec: LinkSpec) -> Fabric {
        let f = Fabric::new();
        *f.inner.default_link.write() = Some(Arc::new(Link::new(spec)));
        f
    }

    /// An empty fabric with no routes; add links with
    /// [`Fabric::connect`].
    pub fn new() -> Fabric {
        Fabric {
            inner: Arc::new(FabricInner {
                hosts: RwLock::new(Vec::new()),
                links: RwLock::new(HashMap::new()),
                default_link: RwLock::new(None),
                faults: RwLock::new(None),
            }),
        }
    }

    /// Add a host and return a handle to it.
    pub fn add_host(&self, name: &str) -> Host {
        let mut hosts = self.inner.hosts.write();
        let id = HostId(hosts.len() as u32);
        hosts.push(HostEntry {
            name: name.to_string(),
            ports: HashMap::new(),
            killed: HashSet::new(),
            // Port 0 is reserved as "no reply expected".
            next_port: 1,
        });
        Host {
            fabric: self.clone(),
            id,
        }
    }

    /// Install a dedicated link between two hosts (both directions).
    pub fn connect(&self, a: HostId, b: HostId, spec: LinkSpec) -> Arc<Link> {
        let link = Arc::new(Link::new(spec));
        let mut links = self.inner.links.write();
        links.insert((a, b), link.clone());
        links.insert((b, a), link.clone());
        link
    }

    /// The shared default link, if this fabric was built with
    /// [`Fabric::shared_link`].
    pub fn default_link(&self) -> Option<Arc<Link>> {
        self.inner.default_link.read().clone()
    }

    /// Look up a host id by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.inner
            .hosts
            .read()
            .iter()
            .position(|h| h.name == name)
            .map(|i| HostId(i as u32))
    }

    /// Name of a host.
    pub fn host_name(&self, id: HostId) -> Option<String> {
        self.inner
            .hosts
            .read()
            .get(id.0 as usize)
            .map(|h| h.name.clone())
    }

    fn route(&self, from: HostId, to: HostId) -> NetResult<Option<Arc<Link>>> {
        if from == to {
            // Loopback: no wire.
            return Ok(None);
        }
        if let Some(l) = self.inner.links.read().get(&(from, to)) {
            return Ok(Some(l.clone()));
        }
        if let Some(l) = self.inner.default_link.read().clone() {
            return Ok(Some(l));
        }
        Err(NetError::NoRoute { from, to })
    }

    fn deliver(&self, to: HostId, port: PortId, dg: Datagram) -> NetResult<()> {
        let hosts = self.inner.hosts.read();
        let entry = hosts.get(to.0 as usize).ok_or(NetError::UnknownHost(to))?;
        if entry.killed.contains(&port) {
            if let Some(f) = self.inner.faults.read().as_ref() {
                f.count_dead_port_hit();
            }
            return Err(NetError::PortClosed { host: to, port });
        }
        let tx = entry
            .ports
            .get(&port)
            .ok_or(NetError::UnknownPort { host: to, port })?;
        tx.send(dg)
            .map_err(|_| NetError::PortClosed { host: to, port })
    }

    /// Send `payload` from `(src_host, src_port)` to `(dst_host,
    /// dst_port)`, blocking for the wire time of its full length on the
    /// route's link. Returns the time spent occupying the wire. The
    /// frame travels by refcount, its segments as they are.
    pub fn send(
        &self,
        src_host: HostId,
        src_port: PortId,
        dst_host: HostId,
        dst_port: PortId,
        payload: impl Into<Frame>,
    ) -> NetResult<Duration> {
        let payload = payload.into();
        let link = self.route(src_host, dst_host)?;
        let faults = self.inner.faults.read().clone();
        if let Some(faults) = faults {
            return self.send_faulted(
                &faults, src_host, src_port, dst_host, dst_port, payload, link,
            );
        }
        let (wire, latency) = match &link {
            Some(l) => (l.transmit(payload.len()), l.spec().latency),
            None => (Duration::ZERO, Duration::ZERO),
        };
        self.deliver(
            dst_host,
            dst_port,
            Datagram {
                src_host,
                src_port,
                payload,
                // Propagation: the receiver sees the message one latency
                // after it left the wire; the sender is not blocked.
                deliver_at: Instant::now() + latency,
            },
        )?;
        Ok(wire)
    }

    /// The faulted twin of [`Fabric::send`]: asks the plan for this
    /// message's fate, then transmits/corrupts/drops accordingly.
    #[allow(clippy::too_many_arguments)]
    fn send_faulted(
        &self,
        faults: &FaultState,
        src_host: HostId,
        src_port: PortId,
        dst_host: HostId,
        dst_port: PortId,
        payload: Frame,
        link: Option<Arc<Link>>,
    ) -> NetResult<Duration> {
        let mtu = link
            .as_ref()
            .map(|l| l.spec().mtu)
            .unwrap_or(LinkSpec::unlimited().mtu);
        let fate = faults.judge((src_host, src_port, dst_host, dst_port), payload.len(), mtu);
        if fate.reset {
            return Err(NetError::ConnectionReset {
                from: src_host,
                to: dst_host,
            });
        }
        // The wire is occupied whether or not the frames arrive.
        let (wire, latency) = match &link {
            Some(l) => (l.transmit(payload.len()), l.spec().latency),
            None => (Duration::ZERO, Duration::ZERO),
        };
        if fate.drop {
            // Silent loss: the sender believes the send succeeded.
            return Ok(wire);
        }
        let payload = if fate.corrupt_at.is_empty() {
            payload
        } else {
            let mut bytes = payload.to_vec();
            for off in fate.corrupt_at {
                bytes[off] ^= 0x80 | (1 << (off % 7));
            }
            Frame::from(bytes)
        };
        self.deliver(
            dst_host,
            dst_port,
            Datagram {
                src_host,
                src_port,
                payload,
                deliver_at: Instant::now() + latency + fate.extra_latency,
            },
        )?;
        Ok(wire)
    }

    /// Install a fault plan: kills the plan's dead ports immediately and
    /// applies its frame/message fates to every subsequent send.
    /// Replaces any previously installed plan (and its stats).
    pub fn install_faults(&self, plan: FaultPlan) {
        for &(host, port) in plan.dead_ports() {
            self.kill_port(host, port);
        }
        *self.inner.faults.write() = Some(Arc::new(FaultState::new(plan)));
    }

    /// Remove the installed fault plan. Killed ports stay dead: a real
    /// crashed peer does not come back because monitoring stopped.
    pub fn clear_faults(&self) {
        *self.inner.faults.write() = None;
    }

    /// Counters of injected faults, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.faults.read().as_ref().map(|f| f.stats())
    }

    /// Scheduled permanent thread deaths of the installed fault plan
    /// (empty when no plan is installed). Every rank of a machine reads
    /// the same schedule, which is what makes rank death replay
    /// deterministically: all ranks apply it at the same serve step.
    pub fn thread_deaths(&self) -> Vec<crate::fault::ThreadDeath> {
        self.inner
            .faults
            .read()
            .as_ref()
            .map(|f| f.plan().thread_deaths().to_vec())
            .unwrap_or_default()
    }

    /// Administratively kill a port: its receiver unblocks with
    /// `PortClosed`, queued datagrams are lost, and future senders get
    /// `PortClosed` instead of `UnknownPort`.
    pub fn kill_port(&self, host: HostId, port: PortId) {
        let mut hosts = self.inner.hosts.write();
        if let Some(entry) = hosts.get_mut(host.0 as usize) {
            entry.ports.remove(&port);
            entry.killed.insert(port);
        }
    }

    /// Whether `(host, port)` is open and not killed. Multi-port
    /// senders probe this before committing to a transfer plan.
    pub fn port_alive(&self, host: HostId, port: PortId) -> bool {
        let hosts = self.inner.hosts.read();
        hosts
            .get(host.0 as usize)
            .map(|e| e.ports.contains_key(&port) && !e.killed.contains(&port))
            .unwrap_or(false)
    }
}

impl Default for Fabric {
    fn default() -> Fabric {
        Fabric::new()
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hosts = self.inner.hosts.read();
        f.debug_struct("Fabric")
            .field("hosts", &hosts.iter().map(|h| &h.name).collect::<Vec<_>>())
            .finish()
    }
}

/// A handle on one host of a fabric. Cloneable; every computing thread of
/// a machine holds one.
#[derive(Clone, Debug)]
pub struct Host {
    fabric: Fabric,
    id: HostId,
}

impl Host {
    /// This host's id.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// This host's name. A `Host` can only be minted by
    /// [`Fabric::add_host`], so the entry always exists; the fallback is
    /// for defensive completeness rather than a reachable path.
    pub fn name(&self) -> String {
        self.fabric
            .host_name(self.id)
            .unwrap_or_else(|| format!("host-{}", self.id.0))
    }

    /// The fabric this host belongs to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Open a fresh port and return its receiving half.
    pub fn open_port(&self) -> PortRecv {
        let (tx, rx) = unbounded();
        let mut hosts = self.fabric.inner.hosts.write();
        let entry = &mut hosts[self.id.0 as usize];
        let port = entry.next_port;
        entry.next_port += 1;
        entry.ports.insert(port, tx);
        PortRecv {
            host: self.id,
            port,
            rx,
        }
    }

    /// Close a port (drops the sender side; queued datagrams are lost).
    pub fn close_port(&self, port: PortId) {
        let mut hosts = self.fabric.inner.hosts.write();
        if let Some(entry) = hosts.get_mut(self.id.0 as usize) {
            entry.ports.remove(&port);
        }
    }

    /// Send from an anonymous source port.
    pub fn send_to(
        &self,
        dst_host: HostId,
        dst_port: PortId,
        payload: impl Into<Frame>,
    ) -> NetResult<Duration> {
        self.fabric.send(self.id, 0, dst_host, dst_port, payload)
    }

    /// Send naming a source port so the peer can reply.
    pub fn send_from(
        &self,
        src_port: PortId,
        dst_host: HostId,
        dst_port: PortId,
        payload: impl Into<Frame>,
    ) -> NetResult<Duration> {
        self.fabric
            .send(self.id, src_port, dst_host, dst_port, payload)
    }
}

/// The receiving half of a port; owned by one thread.
#[derive(Debug)]
pub struct PortRecv {
    host: HostId,
    port: PortId,
    rx: Receiver<Datagram>,
}

impl PortRecv {
    /// The host this port lives on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The port number (advertise this in object references).
    pub fn port(&self) -> PortId {
        self.port
    }

    /// Block until a datagram arrives (and its propagation latency has
    /// elapsed).
    pub fn recv(&self) -> NetResult<Datagram> {
        let dg = self.rx.recv().map_err(|_| NetError::PortClosed {
            host: self.host,
            port: self.port,
        })?;
        Self::await_delivery(&dg);
        Ok(dg)
    }

    /// Non-blocking receive. A datagram still in flight (latency not yet
    /// elapsed) is waited for — it has arrived for queueing purposes.
    pub fn try_recv(&self) -> Option<Datagram> {
        let dg = self.rx.try_recv().ok()?;
        Self::await_delivery(&dg);
        Some(dg)
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Datagram> {
        let dg = self.rx.recv_timeout(timeout).ok()?;
        Self::await_delivery(&dg);
        Some(dg)
    }

    /// Receive with an optional absolute deadline. `None` blocks
    /// indefinitely (identical to [`PortRecv::recv`]); `Some` returns
    /// [`NetError::Timeout`] once the deadline passes.
    pub fn recv_deadline(&self, deadline: Option<Instant>) -> NetResult<Datagram> {
        let Some(deadline) = deadline else {
            return self.recv();
        };
        let timeout = deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(timeout) {
            Ok(dg) => {
                Self::await_delivery(&dg);
                Ok(dg)
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout {
                host: self.host,
                port: self.port,
            }),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::PortClosed {
                host: self.host,
                port: self.port,
            }),
        }
    }

    fn await_delivery(dg: &Datagram) {
        let now = Instant::now();
        if dg.deliver_at > now {
            crate::link::precise_sleep(dg.deliver_at - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn loopback_needs_no_link() {
        let fabric = Fabric::new(); // no links at all
        let h = fabric.add_host("solo");
        let p = h.open_port();
        h.send_to(h.id(), p.port(), Bytes::from_static(b"self"))
            .unwrap();
        assert_eq!(p.recv().unwrap().payload.to_vec(), b"self");
    }

    #[test]
    fn cross_host_requires_route() {
        let fabric = Fabric::new();
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let p = b.open_port();
        assert!(matches!(
            a.send_to(b.id(), p.port(), Bytes::new()),
            Err(NetError::NoRoute { .. })
        ));
        fabric.connect(a.id(), b.id(), LinkSpec::unlimited());
        a.send_to(b.id(), p.port(), Bytes::from_static(b"hi"))
            .unwrap();
        assert_eq!(p.recv().unwrap().payload.to_vec(), b"hi");
    }

    #[test]
    fn shared_link_routes_everywhere() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("onyx");
        let b = fabric.add_host("challenge");
        let p = b.open_port();
        a.send_to(b.id(), p.port(), Bytes::from_static(b"req"))
            .unwrap();
        let dg = p.recv().unwrap();
        assert_eq!(dg.src_host, a.id());
        assert_eq!(dg.src_port, 0);
    }

    #[test]
    fn source_port_travels_with_datagram() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let pa = a.open_port();
        let pb = b.open_port();
        a.send_from(pa.port(), b.id(), pb.port(), Bytes::from_static(b"q"))
            .unwrap();
        let dg = pb.recv().unwrap();
        assert_eq!(dg.src_port, pa.port());
        // Reply path using the advertised source.
        b.send_to(dg.src_host, dg.src_port, Bytes::from_static(b"r"))
            .unwrap();
        assert_eq!(pa.recv().unwrap().payload.to_vec(), b"r");
    }

    #[test]
    fn unknown_port_detected() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        assert!(matches!(
            a.send_to(b.id(), 999, Bytes::new()),
            Err(NetError::UnknownPort { .. })
        ));
    }

    #[test]
    fn ports_are_unique_and_nonzero() {
        let fabric = Fabric::new();
        let h = fabric.add_host("h");
        let p1 = h.open_port();
        let p2 = h.open_port();
        assert_ne!(p1.port(), p2.port());
        assert_ne!(p1.port(), 0);
    }

    #[test]
    fn host_lookup_by_name() {
        let fabric = Fabric::new();
        let a = fabric.add_host("onyx");
        assert_eq!(fabric.host_by_name("onyx"), Some(a.id()));
        assert_eq!(fabric.host_by_name("nope"), None);
        assert_eq!(fabric.host_name(a.id()).unwrap(), "onyx");
    }

    #[test]
    fn closed_port_reports() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let p = b.open_port();
        let port = p.port();
        drop(p);
        // Sender still finds the entry but the channel is closed.
        assert!(matches!(
            a.send_to(b.id(), port, Bytes::new()),
            Err(NetError::PortClosed { .. })
        ));
    }

    #[test]
    fn killed_port_unblocks_receiver_and_refuses_senders() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let p = b.open_port();
        let port = p.port();
        assert!(fabric.port_alive(b.id(), port));

        let waiter = std::thread::spawn(move || p.recv());
        std::thread::sleep(Duration::from_millis(10));
        fabric.kill_port(b.id(), port);
        assert!(matches!(
            waiter.join().unwrap(),
            Err(NetError::PortClosed { .. })
        ));
        assert!(!fabric.port_alive(b.id(), port));
        assert!(matches!(
            a.send_to(b.id(), port, Bytes::new()),
            Err(NetError::PortClosed { .. })
        ));
    }

    #[test]
    fn installed_plan_drops_deterministically() {
        let run = |seed: u64| {
            let fabric = Fabric::shared_link(LinkSpec::unlimited());
            let a = fabric.add_host("a");
            let b = fabric.add_host("b");
            let p = b.open_port();
            fabric.install_faults(crate::FaultPlan::new(seed).with_frame_drop(200_000));
            let mut delivered = Vec::new();
            for i in 0..200u32 {
                a.send_from(7, b.id(), p.port(), Bytes::from(vec![i as u8]))
                    .unwrap();
                if let Some(dg) = p.recv_timeout(Duration::from_millis(20)) {
                    delivered.push(dg.payload.to_vec()[0]);
                }
            }
            (delivered, fabric.fault_stats().unwrap())
        };
        let (d1, s1) = run(99);
        let (d2, s2) = run(99);
        assert_eq!(d1, d2, "same seed must replay the same losses");
        assert_eq!(s1, s2);
        assert!(s1.messages_dropped > 0, "20% drop over 200 sends");
        assert!(d1.len() as u64 + s1.messages_dropped == 200);
        let (d3, _) = run(100);
        assert_ne!(d1, d3, "different seed, different losses");
    }

    #[test]
    fn reset_budget_fails_later_sends() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let p = b.open_port();
        fabric.install_faults(crate::FaultPlan::new(5).with_reset_after(3));
        for _ in 0..3 {
            a.send_from(9, b.id(), p.port(), Bytes::from_static(b"x"))
                .unwrap();
        }
        assert!(matches!(
            a.send_from(9, b.id(), p.port(), Bytes::from_static(b"x")),
            Err(NetError::ConnectionReset { .. })
        ));
        // A different flow (other source port) still works.
        a.send_from(10, b.id(), p.port(), Bytes::from_static(b"y"))
            .unwrap();
        assert_eq!(fabric.fault_stats().unwrap().connection_resets, 1);
    }

    #[test]
    fn corruption_alters_payload_in_place() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let p = b.open_port();
        fabric.install_faults(
            crate::FaultPlan::new(11).with_frame_corruption(crate::fault::PER_MILLION),
        );
        let sent = vec![0u8; 64];
        a.send_from(3, b.id(), p.port(), Bytes::from(sent.clone()))
            .unwrap();
        let got = p.recv().unwrap().payload;
        assert_eq!(got.len(), sent.len());
        assert_ne!(got.to_vec(), sent, "a byte must have been flipped");
        assert_eq!(fabric.fault_stats().unwrap().messages_corrupted, 1);
    }

    #[test]
    fn clear_faults_restores_clean_path() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let p = b.open_port();
        fabric.install_faults(crate::FaultPlan::new(1).with_frame_drop(crate::fault::PER_MILLION));
        a.send_to(b.id(), p.port(), Bytes::from_static(b"gone"))
            .unwrap();
        assert!(p.recv_timeout(Duration::from_millis(10)).is_none());
        fabric.clear_faults();
        assert!(fabric.fault_stats().is_none());
        a.send_to(b.id(), p.port(), Bytes::from_static(b"kept"))
            .unwrap();
        assert_eq!(p.recv().unwrap().payload.to_vec(), b"kept");
    }

    #[test]
    fn try_and_timeout_receives() {
        let fabric = Fabric::new();
        let h = fabric.add_host("h");
        let p = h.open_port();
        assert!(p.try_recv().is_none());
        assert!(p.recv_timeout(Duration::from_millis(5)).is_none());
        h.send_to(h.id(), p.port(), Bytes::from_static(b"x"))
            .unwrap();
        assert!(p.recv_timeout(Duration::from_millis(100)).is_some());
    }
}
