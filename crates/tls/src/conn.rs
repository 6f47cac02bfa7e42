//! The sans-I/O connection core shared by [`crate::client::ClientConn`]
//! and [`crate::server::ServerConn`].
//!
//! The state machines never touch a socket. Callers move bytes with the
//! two explicit ports — [`ConnectionCommon::read_tls`] (transport →
//! connection) and [`ConnectionCommon::write_tls`] (connection →
//! transport) — then call `process_new_packets()` on the concrete
//! connection type to advance the handshake. [`ConnectionCommon::wants_read`]
//! / [`ConnectionCommon::wants_write`] tell an event loop what to poll
//! for, and [`IoState`] summarises what a processing step produced.
//!
//! This is the rustls-style inversion: one buffering core, two thin
//! protocol "sides" (a [`Side`] implementation per role) that only ever
//! see whole handshake messages. The outgoing buffer is persistent — a
//! drain cursor, not a fresh `Vec` per flight — so a load generator
//! driving millions of handshakes does not churn the allocator.

use crate::alert::{Alert, AlertDescription};
use crate::error::TlsError;
use crate::keys::{ConnectionKeys, Transcript};
use crate::suites::CipherSuite;
use crate::wire::handshake::{HandshakeMessage, HandshakeReassembler};
use crate::wire::record::{ContentType, DirectionKeys, RecordLayer};
use std::io;

/// What a `process_new_packets()` step left behind for the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoState {
    /// TLS bytes queued for the transport (drain with `write_tls`).
    pub tls_bytes_to_write: usize,
    /// Decrypted application bytes available (`recv_app_data`).
    pub plaintext_bytes_to_read: usize,
    /// The peer sent close_notify.
    pub peer_has_closed: bool,
    /// The handshake has not completed yet.
    pub handshaking: bool,
}

/// Connection lifecycle, tracked in the shared core so readiness
/// queries need no knowledge of either side's protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Handshaking,
    Established,
    Closed,
    Failed,
}

/// Traffic keys derived but not yet handed to the record layer, by this
/// end's direction. Each direction moves out when it is installed, so an
/// established connection holds none: the record layer's keyed ciphers
/// are the only copy.
#[derive(Default)]
pub(crate) struct PendingKeys {
    read: Option<DirectionKeys>,
    write: Option<DirectionKeys>,
}

/// State common to both connection roles: record layer, reassembly,
/// transcript, the persistent outgoing buffer, and the keying material
/// both sides derive.
///
/// Declared `lifetime(connection)`: everything secret in here (master
/// secret, pending key block, decrypted plaintext) dies with the
/// connection — this struct is the yardstick the longer-lived caches are
/// measured against.
// ctlint: lifetime(connection)
pub struct ConnectionCommon {
    pub(crate) records: RecordLayer,
    pub(crate) reasm: HandshakeReassembler,
    pub(crate) transcript: Transcript,
    // Outgoing wire bytes: anything here is already on the network.
    // Persistent across flights; `out_pos` is the drain cursor.
    // ctlint: public
    out: Vec<u8>,
    out_pos: usize,
    pub(crate) status: Status,
    pub(crate) suite: Option<CipherSuite>,
    // Randoms travel cleartext in the hellos.
    // ctlint: public
    pub(crate) client_random: [u8; 32],
    // ctlint: public
    pub(crate) server_random: [u8; 32],
    pub(crate) master: Option<[u8; 48]>,
    pub(crate) pending_keys: PendingKeys,
    pub(crate) app_in: Vec<u8>,
}

impl ConnectionCommon {
    pub(crate) fn new() -> Self {
        ConnectionCommon {
            records: RecordLayer::new(),
            reasm: HandshakeReassembler::new(),
            transcript: Transcript::new(),
            out: Vec::new(),
            out_pos: 0,
            status: Status::Handshaking,
            suite: None,
            client_random: [0; 32],
            server_random: [0; 32],
            master: None,
            pending_keys: PendingKeys::default(),
            app_in: Vec::new(),
        }
    }

    /// Read TLS bytes from the transport into the connection.
    ///
    /// Performs exactly one `read` on `rd`; returns the byte count (0 =
    /// EOF on the transport). Loop while [`Self::wants_read`] and the
    /// transport has data, then call `process_new_packets()`.
    pub fn read_tls(&mut self, rd: &mut dyn io::Read) -> io::Result<usize> {
        let mut buf = [0u8; 4096];
        let n = rd.read(&mut buf)?;
        self.records.feed(&buf[..n]);
        Ok(n)
    }

    /// Write queued TLS bytes to the transport.
    ///
    /// Performs exactly one `write` on `wr` and advances the drain
    /// cursor by the amount accepted. The underlying buffer is reused —
    /// once fully drained it is cleared in place, keeping its capacity.
    pub fn write_tls(&mut self, wr: &mut dyn io::Write) -> io::Result<usize> {
        let pending = &self.out[self.out_pos..];
        if pending.is_empty() {
            return Ok(0);
        }
        let n = wr.write(pending)?;
        self.out_pos += n;
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(n)
    }

    /// Would the connection make progress from more transport bytes?
    pub fn wants_read(&self) -> bool {
        !matches!(self.status, Status::Failed | Status::Closed)
    }

    /// Are TLS bytes queued for the transport?
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.status == Status::Established
    }

    /// True if the connection failed or the peer closed it.
    pub fn is_failed(&self) -> bool {
        matches!(self.status, Status::Failed | Status::Closed)
    }

    /// Queue application data (post-handshake).
    pub fn send_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if self.status != Status::Established {
            return Err(TlsError::NotReady);
        }
        self.queue_record(ContentType::ApplicationData, data);
        Ok(())
    }

    /// Take decrypted application data received so far.
    pub fn recv_app_data(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.app_in)
    }

    /// The running handshake-transcript hash (cleartext-derived; used by
    /// tests to prove chunked and single-shot delivery are equivalent).
    pub fn transcript_hash(&self) -> [u8; 32] {
        self.transcript.hash()
    }

    /// White-box access: the master secret (attacker/verification use).
    pub fn master_secret(&self) -> Option<[u8; 48]> {
        self.master
    }

    /// Stage a freshly derived key block, replacing anything staged
    /// before: this end reads what the peer writes.
    pub(crate) fn stage_keys(&mut self, keys: ConnectionKeys, is_client: bool) {
        let ConnectionKeys {
            client_write,
            server_write,
        } = keys;
        let (read, write) = if is_client {
            (server_write, client_write)
        } else {
            (client_write, server_write)
        };
        self.pending_keys = PendingKeys {
            read: Some(read),
            write: Some(write),
        };
    }

    /// Move the staged read direction into the record layer.
    pub(crate) fn install_read_keys(&mut self) {
        let keys = self.pending_keys.read.take().expect("read keys staged");
        self.records.set_read_keys(keys);
    }

    /// Move the staged write direction into the record layer.
    pub(crate) fn install_write_keys(&mut self) {
        let keys = self.pending_keys.write.take().expect("write keys staged");
        self.records.set_write_keys(keys);
    }

    /// Encode one record into the persistent outgoing buffer.
    pub(crate) fn queue_record(&mut self, content_type: ContentType, payload: &[u8]) {
        self.records
            .write_record(content_type, payload, &mut self.out);
    }

    /// Transcribe and queue a handshake message.
    pub(crate) fn send_handshake(&mut self, msg: &HandshakeMessage) {
        let encoded = msg.encode();
        self.transcript.add(&encoded);
        self.queue_record(ContentType::Handshake, &encoded);
    }

    pub(crate) fn io_state(&self) -> IoState {
        IoState {
            tls_bytes_to_write: self.out.len() - self.out_pos,
            plaintext_bytes_to_read: self.app_in.len(),
            peer_has_closed: self.status == Status::Closed,
            handshaking: self.status == Status::Handshaking,
        }
    }
}

/// The role-specific half of a connection: interprets whole handshake
/// messages and CCS records against its own protocol state.
pub(crate) trait Side {
    /// Handle one reassembled handshake message.
    fn handle_handshake(
        &mut self,
        common: &mut ConnectionCommon,
        msg: HandshakeMessage,
    ) -> Result<(), TlsError>;

    /// Handle a ChangeCipherSpec record (payload included so each side
    /// keeps its historical validation order).
    fn on_peer_ccs(
        &mut self,
        common: &mut ConnectionCommon,
        payload: &[u8],
    ) -> Result<(), TlsError>;

    /// Map an error to the alert we send before failing.
    fn alert_for(&self, err: &TlsError) -> AlertDescription;

    /// Mirror a failure into the side's own state machine.
    fn set_failed(&mut self);

    /// Hook for sides that meter sent alerts (the server's telemetry).
    fn note_alert_sent(&self, _desc: AlertDescription) {}
}

/// Fail the connection: queue a fatal alert and surface the error.
pub(crate) fn fail_conn<S: Side + ?Sized>(
    common: &mut ConnectionCommon,
    side: &mut S,
    err: TlsError,
    desc: AlertDescription,
) -> Result<IoState, TlsError> {
    side.set_failed();
    side.note_alert_sent(desc);
    common.status = Status::Failed;
    let alert = Alert::fatal(desc);
    common.queue_record(ContentType::Alert, &alert.encode());
    Err(err)
}

/// The shared record-demux loop behind `process_new_packets()` on both
/// connection types: drain complete records, reassemble handshake
/// messages, and dispatch to the side until input is exhausted.
pub(crate) fn process<S: Side + ?Sized>(
    common: &mut ConnectionCommon,
    side: &mut S,
) -> Result<IoState, TlsError> {
    match common.status {
        Status::Failed => return Err(TlsError::ConnectionClosed),
        Status::Closed => return Ok(common.io_state()),
        _ => {}
    }
    loop {
        let (content_type, payload) = match common.records.next_record_in_place() {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(common.io_state()),
            Err(e) => return fail_conn(common, side, e, AlertDescription::DecodeError),
        };
        match content_type {
            ContentType::Handshake => {
                common.reasm.feed(payload);
                loop {
                    let hint = common.suite;
                    match common.reasm.next(hint) {
                        Ok(Some(msg)) => {
                            if let Err(e) = side.handle_handshake(common, msg) {
                                let desc = side.alert_for(&e);
                                return fail_conn(common, side, e, desc);
                            }
                        }
                        Ok(None) => break,
                        Err(e) => return fail_conn(common, side, e, AlertDescription::DecodeError),
                    }
                }
            }
            ContentType::ChangeCipherSpec => {
                // The side needs the whole connection, so the payload
                // (one byte when well-formed) leaves the record buffer.
                let payload = payload.to_vec();
                if let Err(e) = side.on_peer_ccs(common, &payload) {
                    let desc = side.alert_for(&e);
                    return fail_conn(common, side, e, desc);
                }
            }
            ContentType::Alert => {
                side.set_failed();
                if let Some(alert) = Alert::decode(payload) {
                    if alert.description != AlertDescription::CloseNotify {
                        common.status = Status::Failed;
                        return Err(TlsError::PeerAlert(alert.description));
                    }
                }
                common.status = Status::Closed;
                return Ok(common.io_state());
            }
            ContentType::ApplicationData => {
                if common.status != Status::Established {
                    return fail_conn(
                        common,
                        side,
                        TlsError::UnexpectedMessage {
                            expected: "handshake completion",
                            got: "ApplicationData",
                        },
                        AlertDescription::UnexpectedMessage,
                    );
                }
                common.app_in.extend_from_slice(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ClientConfig, ResumptionOffer, ServerConfig, ServerIdentity};
    use crate::ephemeral::{EphemeralCache, EphemeralPolicy};
    use crate::pump::pump;
    use crate::server::ResumeKind;
    use crate::ticket::{RotationPolicy, SharedStekManager, StekManager, TicketFormat};
    use crate::{ClientConn, ServerConn};
    use std::sync::Arc;
    use ts_crypto::drbg::HmacDrbg;
    use ts_crypto::rsa::RsaPrivateKey;
    use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

    const HOST: &str = "keys.sim";

    fn self_signed() -> (Arc<RootStore>, ServerConfig) {
        let mut rng = HmacDrbg::new(b"pending-keys");
        let key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let name = DistinguishedName::cn(HOST);
        let cert = Certificate::issue(
            &CertificateParams {
                serial: 1,
                subject: name.clone(),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec![HOST.into()],
                is_ca: true,
            },
            &key.public,
            &name,
            &key,
        );
        let mut store = RootStore::new();
        store.add_root(cert.clone());
        let identity = Arc::new(ServerIdentity {
            chain: vec![cert],
            key,
        });
        let eph = EphemeralCache::new(
            EphemeralPolicy::FreshPerHandshake,
            ts_crypto::dh::DhGroup::Sim256,
            HmacDrbg::new(b"pending-keys-eph"),
        );
        let mut cfg = ServerConfig::new(identity, eph);
        cfg.tickets = Some(SharedStekManager::new(StekManager::new(
            RotationPolicy::Static,
            TicketFormat::Rfc5077,
            HmacDrbg::new(b"pending-keys-stek"),
            0,
        )));
        (Arc::new(store), cfg)
    }

    fn established(
        store: &Arc<RootStore>,
        cfg: &ServerConfig,
        resumption: ResumptionOffer,
        tag: &[u8],
    ) -> (ClientConn, ServerConn) {
        let mut ccfg = ClientConfig::new(store.clone(), HOST, 100);
        ccfg.resumption = resumption;
        let mut client = ClientConn::new(ccfg, HmacDrbg::new(&[tag, b"-c"].concat()));
        let mut server = ServerConn::new(cfg.clone(), HmacDrbg::new(&[tag, b"-s"].concat()), 100);
        pump(&mut client, &mut server).unwrap();
        assert!(client.is_established() && server.is_established());
        for (side, keys) in [
            ("client", &client.pending_keys),
            ("server", &server.pending_keys),
        ] {
            assert!(
                keys.read.is_none() && keys.write.is_none(),
                "established {side} still holds staged traffic keys"
            );
        }
        (client, server)
    }

    /// Full, session-ID and ticket handshakes install the directions in
    /// different orders on each side; every path must leave no staged copy.
    #[test]
    fn established_connections_hold_no_pending_keys() {
        let (store, cfg) = self_signed();
        let (client, _) = established(&store, &cfg, ResumptionOffer::default(), b"full");
        let summary = client.summary().unwrap();
        let sid = ResumptionOffer {
            session: Some((summary.server_session_id.clone(), summary.session.clone())),
            ticket: None,
        };
        let (_, server) = established(&store, &cfg, sid, b"sid");
        assert_eq!(server.resumed(), Some(ResumeKind::SessionId));
        let ticket = ResumptionOffer {
            session: None,
            ticket: Some((
                summary.new_ticket.clone().expect("ticket issued").ticket,
                summary.session.clone(),
            )),
        };
        let (_, server) = established(&store, &cfg, ticket, b"ticket");
        assert_eq!(server.resumed(), Some(ResumeKind::Ticket));
    }
}
