//! Connections: a small request/reply convenience over ports.
//!
//! A [`Connection`] pairs a local port (for replies) with a remote
//! `(host, port)` destination and speaks [`crate::giop::GiopMessage`]s.
//! Clients open one connection per binding; in multi-port mode each
//! client computing thread additionally opens direct data connections to
//! the server threads' advertised ports.

use crate::fabric::{Host, HostId, PortId, PortRecv};
use crate::giop::GiopMessage;
use crate::{NetError, NetResult};
use pardis_cdr::{Endian, Frame};
use std::time::Duration;

/// A bidirectional message channel from a local port to a fixed peer.
#[derive(Debug)]
pub struct Connection {
    host: Host,
    local: PortRecv,
    peer_host: HostId,
    peer_port: PortId,
}

impl Connection {
    /// Open a connection from `host` to `(peer_host, peer_port)`. The
    /// peer learns our port from the datagrams we send.
    pub fn open(host: &Host, peer_host: HostId, peer_port: PortId) -> Connection {
        Connection {
            host: host.clone(),
            local: host.open_port(),
            peer_host,
            peer_port,
        }
    }

    /// Our local (reply) port.
    pub fn local_port(&self) -> PortId {
        self.local.port()
    }

    /// Local host id.
    pub fn local_host(&self) -> HostId {
        self.host.id()
    }

    /// Destination host id.
    pub fn peer_host(&self) -> HostId {
        self.peer_host
    }

    /// Destination port.
    pub fn peer_port(&self) -> PortId {
        self.peer_port
    }

    /// Send a message to the peer; returns wire occupancy time.
    pub fn send(&self, msg: &GiopMessage, endian: Endian) -> NetResult<Duration> {
        self.send_frame(msg.encode(endian)?)
    }

    /// Send an already encoded frame (e.g. one built with a
    /// [`crate::giop::FrameWriter`]) to the peer.
    pub fn send_frame(&self, frame: Frame) -> NetResult<Duration> {
        self.host
            .send_from(self.local.port(), self.peer_host, self.peer_port, frame)
    }

    /// Block for the next message on our local port.
    pub fn recv(&self) -> NetResult<GiopMessage<Frame>> {
        let dg = self.local.recv()?;
        GiopMessage::decode(&dg.payload)
    }

    /// The next frame on our local port, undecoded, with an optional
    /// absolute deadline: `None` blocks like [`Connection::recv`], `Some`
    /// fails with [`NetError::Timeout`] once the deadline passes.
    pub fn recv_frame(&self, deadline: Option<std::time::Instant>) -> NetResult<Frame> {
        Ok(self.local.recv_deadline(deadline)?.payload)
    }

    /// The next frame on our local port, undecoded, if one is waiting.
    pub fn try_recv_frame(&self) -> Option<Frame> {
        self.local.try_recv().map(|dg| dg.payload)
    }

    /// Receive with a timeout; `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> NetResult<Option<GiopMessage<Frame>>> {
        match self.local.recv_timeout(timeout) {
            None => Ok(None),
            Some(dg) => GiopMessage::decode(&dg.payload).map(Some),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> NetResult<Option<GiopMessage<Frame>>> {
        match self.local.try_recv() {
            None => Ok(None),
            Some(dg) => GiopMessage::decode(&dg.payload).map(Some),
        }
    }

    /// Tell the peer we are going away.
    pub fn close(&self, endian: Endian) -> NetResult<()> {
        self.send(&GiopMessage::CloseConnection, endian)?;
        Ok(())
    }
}

/// Reply to a datagram's source with a message. Servers use this to
/// answer a request at the address it came from.
pub fn reply_to(
    host: &Host,
    src_host: HostId,
    src_port: PortId,
    msg: &GiopMessage,
    endian: Endian,
) -> NetResult<Duration> {
    if src_port == 0 {
        return Err(NetError::BadMessage(
            "peer did not advertise a reply port".into(),
        ));
    }
    host.send_to(src_host, src_port, msg.encode(endian)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::giop::{ReplyHeader, ReplyStatus, RequestHeader, TransferMode};
    use crate::link::LinkSpec;
    use crate::Fabric;
    use bytes::Bytes;

    fn request(id: u64) -> GiopMessage {
        GiopMessage::Request(
            RequestHeader {
                request_id: id,
                object_name: "obj".into(),
                operation: "op".into(),
                response_expected: true,
                reply_host: HostId(0),
                reply_port: 0,
                mode: TransferMode::Centralized,
                client_threads: 1,
                client_data_ports: vec![],
                service_context: vec![],
            },
            Bytes::new(),
        )
    }

    #[test]
    fn request_reply_over_connection() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let client_host = fabric.add_host("client");
        let server_host = fabric.add_host("server");
        let server_port = server_host.open_port();

        let server = {
            let server_host = server_host.clone();
            std::thread::spawn(move || {
                let dg = server_port.recv().unwrap();
                let msg = GiopMessage::decode(&dg.payload).unwrap();
                let id = match msg {
                    GiopMessage::Request(h, _) => h.request_id,
                    other => panic!("unexpected {other:?}"),
                };
                reply_to(
                    &server_host,
                    dg.src_host,
                    dg.src_port,
                    &GiopMessage::Reply(
                        ReplyHeader {
                            request_id: id,
                            status: ReplyStatus::NoException,
                        },
                        Bytes::from_static(b"result"),
                    ),
                    Endian::native(),
                )
                .unwrap();
            })
        };

        let conn = Connection::open(&client_host, server_host.id(), 1);
        conn.send(&request(77), Endian::native()).unwrap();
        match conn.recv().unwrap() {
            GiopMessage::Reply(h, body) => {
                assert_eq!(h.request_id, 77);
                assert_eq!(body.to_vec(), b"result");
            }
            other => panic!("unexpected {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn reply_requires_source_port() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let h = fabric.add_host("h");
        assert!(matches!(
            reply_to(
                &h,
                h.id(),
                0,
                &GiopMessage::CloseConnection,
                Endian::native()
            ),
            Err(NetError::BadMessage(_))
        ));
    }

    #[test]
    fn try_and_timeout_paths() {
        let fabric = Fabric::shared_link(LinkSpec::unlimited());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let pb = b.open_port();
        let conn = Connection::open(&a, b.id(), pb.port());
        assert!(conn.try_recv().unwrap().is_none());
        assert!(conn
            .recv_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        conn.close(Endian::native()).unwrap();
        let dg = pb.recv().unwrap();
        assert_eq!(
            GiopMessage::decode(&dg.payload).unwrap(),
            GiopMessage::CloseConnection
        );
        assert_eq!(dg.src_port, conn.local_port());
    }
}
