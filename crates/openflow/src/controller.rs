//! The switch's end of the control channel.
//!
//! [`SwitchLink`] is the byte-stream counterpart of
//! [`crate::connection::Connection`]: it owns a [`crate::Transport`], cuts
//! the incoming stream into frames with a [`crate::Framer`] and decodes
//! them on demand. [`framed_link`] wires a connected controller/switch
//! pair over an in-process byte stream. (The pre-wire typed-channel
//! aliases `ControllerHandle`/`control_link` are gone; the framed path is
//! the only control channel.)

use crate::codec::{decode, try_encode};
use crate::connection::Connection;
use crate::event::Event;
use crate::framer::Framer;
use crate::messages::OfpMessage;
use crate::transport::{loopback, Transport};
use crate::{OfError, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// The switch's end of the control link: a framed byte stream.
pub struct SwitchLink {
    inner: Mutex<SwitchIo>,
}

struct SwitchIo {
    transport: Box<dyn Transport>,
    framer: Framer,
    /// Set once a framing error has desynced the stream; reported once,
    /// then the link behaves as disconnected.
    poisoned: Option<OfError>,
}

impl SwitchLink {
    /// Wraps a transport as the switch endpoint.
    pub fn new(transport: Box<dyn Transport>) -> SwitchLink {
        SwitchLink {
            inner: Mutex::new(SwitchIo {
                transport,
                framer: Framer::new(),
                poisoned: None,
            }),
        }
    }

    /// Has the transport notify `event` when controller bytes arrive or
    /// the controller goes away — what the switch's control loop parks on.
    pub fn subscribe(&self, event: &Arc<Event>) {
        self.inner.lock().transport.subscribe(event);
    }

    /// Bytes from the controller not yet consumed by the switch — the
    /// control-idle signal used by convergence waits. Counts both bytes
    /// still in the transport and partial frames in the framer.
    pub fn pending(&self) -> usize {
        let io = self.inner.lock();
        io.transport.pending_bytes() + io.framer.buffered()
    }

    /// Next message from the controller, if any.
    ///
    /// Decoding errors of a *complete* frame are recoverable (the caller
    /// typically answers with an OF error message and continues); framing
    /// errors poison the stream — reported once, then
    /// [`OfError::Disconnected`].
    pub fn try_recv(&self) -> Option<Result<(OfpMessage, u32)>> {
        let mut io = self.inner.lock();
        if let Some(e) = io.poisoned.take() {
            io.poisoned = Some(OfError::Disconnected);
            return Some(Err(e));
        }
        loop {
            match io.framer.poll_frame() {
                Ok(Some(frame)) => return Some(decode(&frame)),
                Ok(None) => {}
                Err(e) => {
                    io.poisoned = Some(OfError::Disconnected);
                    return Some(Err(e));
                }
            }
            let mut chunk = [0u8; 4096];
            match io.transport.recv(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => io.framer.push(&chunk[..n]),
                Err(e) => return Some(Err(e)),
            }
        }
    }

    /// Sends a message to the controller; [`OfError::Oversized`] (and
    /// nothing on the wire) when it cannot fit one frame.
    pub fn send(&self, msg: &OfpMessage, xid: u32) -> Result<()> {
        let bytes = try_encode(msg, xid)?;
        let io = self.inner.lock();
        let mut sent = 0;
        while sent < bytes.len() {
            match io.transport.send(&bytes[sent..]) {
                Ok(0) => std::thread::yield_now(), // saturated; retry
                Ok(n) => sent += n,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Creates a connected controller/switch pair over an in-process framed
/// byte stream. The connection starts its handshake immediately; the
/// switch end answers it on its normal poll loop.
pub fn framed_link() -> (Connection, SwitchLink) {
    let (c_end, s_end) = loopback();
    (
        Connection::new(Box::new(c_end)),
        SwitchLink::new(Box::new(s_end)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode;
    use crate::messages::*;
    use crate::types::PortNo;
    use crate::{Action, FlowMatch};
    use std::time::Duration;

    /// Consumes the handshake frames the connection emits at creation
    /// (`Hello` then `FeaturesRequest`), answering both.
    fn answer_handshake(sw: &SwitchLink) {
        let (msg, xid) = sw.try_recv().unwrap().unwrap();
        assert_eq!(msg, OfpMessage::Hello);
        sw.send(&OfpMessage::Hello, xid).unwrap();
        let (msg, xid) = sw.try_recv().unwrap().unwrap();
        assert_eq!(msg, OfpMessage::FeaturesRequest);
        sw.send(
            &OfpMessage::FeaturesReply {
                datapath_id: 1,
                ports: vec![],
            },
            xid,
        )
        .unwrap();
    }

    #[test]
    fn controller_and_switch_exchange_framed_bytes() {
        let (ctrl, sw) = framed_link();
        answer_handshake(&sw);
        let xid = ctrl
            .add_flow(
                FlowMatch::in_port(PortNo(1)),
                100,
                vec![Action::Output(PortNo(2))],
                7,
            )
            .unwrap();
        let (msg, got_xid) = sw.try_recv().unwrap().unwrap();
        assert_eq!(got_xid, xid);
        match msg {
            OfpMessage::FlowMod(fm) => {
                assert_eq!(fm.cookie, 7);
                assert_eq!(fm.fmatch.only_in_port(), Some(PortNo(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(sw.try_recv().is_none());
        assert_eq!(sw.pending(), 0);
    }

    #[test]
    fn wait_reply_skips_unrelated_messages() {
        let (ctrl, sw) = framed_link();
        answer_handshake(&sw);
        let xid = ctrl.send(&OfpMessage::BarrierRequest).unwrap();
        // Switch sends an async packet-in first, then the barrier reply.
        sw.send(
            &OfpMessage::PacketIn(PacketIn {
                in_port: PortNo(3),
                reason: PacketInReason::NoMatch,
                data: vec![1, 2, 3],
            }),
            999,
        )
        .unwrap();
        let (req, bxid) = sw.try_recv().unwrap().unwrap();
        assert_eq!(req, OfpMessage::BarrierRequest);
        assert_eq!(bxid, xid);
        sw.send(&OfpMessage::BarrierReply, xid).unwrap();
        let reply = ctrl.wait_reply(xid, Duration::from_secs(1)).unwrap();
        assert_eq!(reply, OfpMessage::BarrierReply);
        // The stashed packet-in is still deliverable.
        let (stashed, sxid) = ctrl.try_recv().unwrap().unwrap();
        assert_eq!(sxid, 999);
        assert!(matches!(stashed, OfpMessage::PacketIn(_)));
    }

    #[test]
    fn disconnect_surfaces() {
        let (ctrl, sw) = framed_link();
        drop(sw);
        assert!(matches!(
            ctrl.send(&OfpMessage::EchoRequest(vec![])),
            Err(OfError::Disconnected)
        ));
    }

    #[test]
    fn xids_are_unique_and_increasing() {
        let (ctrl, sw) = framed_link();
        answer_handshake(&sw);
        let a = ctrl.send(&OfpMessage::EchoRequest(vec![1])).unwrap();
        let b = ctrl.send(&OfpMessage::EchoRequest(vec![2])).unwrap();
        assert!(b > a);
        let (_m, xa) = sw.try_recv().unwrap().unwrap();
        let (_m, xb) = sw.try_recv().unwrap().unwrap();
        assert_eq!((xa, xb), (a, b));
    }

    #[test]
    fn switch_link_poisons_on_bad_version_then_disconnects() {
        use crate::transport::ScriptedTransport;
        let mut stream = encode(&OfpMessage::Hello, 1);
        stream.extend([0x09, 0, 0, 8, 0, 0, 0, 0]); // bad version byte
        let sw = SwitchLink::new(Box::new(ScriptedTransport::new(stream)));
        assert!(sw.try_recv().unwrap().is_ok());
        assert_eq!(sw.try_recv().unwrap().unwrap_err(), OfError::BadVersion(9));
        assert_eq!(
            sw.try_recv().unwrap().unwrap_err(),
            OfError::Disconnected,
            "poisoned stream must not spin the poll loop"
        );
    }
}
