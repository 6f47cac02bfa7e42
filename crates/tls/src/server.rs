//! The server-side TLS 1.2 state machine.
//!
//! Sans-I/O: callers move transport bytes with [`ConnectionCommon::read_tls`]
//! / [`ConnectionCommon::write_tls`] (via deref) and advance the handshake
//! with [`ServerConn::process_new_packets`]. The connection is pinned to
//! the virtual time passed at construction (a TLS handshake is
//! instantaneous at simulation granularity).
//!
//! On the resumption hot path the connection pins the published STEK
//! snapshot ([`crate::ticket::PinnedStekSet`]) so ticket decryption runs
//! without taking the shared manager lock — the redesign that lets a
//! loadgen fleet scale past one core.

use crate::alert::AlertDescription;
use crate::config::ServerConfig;
use crate::conn::{self, ConnectionCommon, IoState, Side, Status};
use crate::error::TlsError;
use crate::keys::{key_block, master_secret, verify_data};
use crate::session::SessionState;
use crate::suites::{CipherSuite, KeyExchange};
use crate::ticket::PinnedStekSet;
use crate::wire::extensions::{find_server_name, find_session_ticket, Extension};
use crate::wire::handshake::{
    CertificateMsg, ClientHello, ClientKeyExchange, Finished, HandshakeMessage, NewSessionTicket,
    ServerHello, ServerKexParams, ServerKeyExchange,
};
use crate::wire::record::ContentType;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use ts_crypto::bignum::Ub;
use ts_crypto::dh::{validate_public, DhKeyPair};
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::x25519::X25519KeyPair;
use ts_telemetry::Counter;

static HANDSHAKE_FULL: Counter = Counter::new("tls.server.handshake.full");
static RESUME_TICKET_HIT: Counter = Counter::new("tls.server.resume.ticket.hit");
static RESUME_TICKET_MISS: Counter = Counter::new("tls.server.resume.ticket.miss");
static RESUME_SID_HIT: Counter = Counter::new("tls.server.resume.session_id.hit");
static RESUME_SID_MISS: Counter = Counter::new("tls.server.resume.session_id.miss");
static TICKET_ISSUED: Counter = Counter::new("tls.server.ticket.issued");
static TICKET_REISSUED: Counter = Counter::new("tls.server.ticket.reissued");
static ALERT_SENT: Counter = Counter::new("tls.server.alert.sent");

/// How the connection was (or wasn't) resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeKind {
    /// Abbreviated handshake via session-ID cache hit.
    SessionId,
    /// Abbreviated handshake via an accepted session ticket.
    Ticket,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    AwaitClientHello,
    AwaitClientKex,
    AwaitCcs,
    AwaitFinished,
    Established,
    Failed,
}

/// The server's protocol half: resumption decisions, flight assembly,
/// ticket issuance. Keying material lives in [`ConnectionCommon`].
struct ServerSide {
    config: ServerConfig,
    rng: HmacDrbg,
    now: u64,
    state: State,
    // ctlint: public
    session_id: Vec<u8>,
    resumed: Option<ResumeKind>,
    resumed_established_at: u64,
    dhe_kp: Option<Arc<DhKeyPair>>,
    ecdhe_kp: Option<Arc<X25519KeyPair>>,
    sni: String,
    client_offered_ticket_ext: bool,
    // Epoch-pinned STEK snapshot: ticket decryption without the shared
    // manager lock (see ticket.rs).
    stek_pin: Option<PinnedStekSet>,
}

/// A server-side TLS connection.
pub struct ServerConn {
    common: ConnectionCommon,
    side: ServerSide,
}

impl Deref for ServerConn {
    type Target = ConnectionCommon;
    fn deref(&self) -> &ConnectionCommon {
        &self.common
    }
}

impl DerefMut for ServerConn {
    fn deref_mut(&mut self) -> &mut ConnectionCommon {
        &mut self.common
    }
}

impl ServerConn {
    /// Create a connection bound to `config` at virtual time `now`.
    pub fn new(config: ServerConfig, rng: HmacDrbg, now: u64) -> Self {
        ServerConn {
            common: ConnectionCommon::new(),
            side: ServerSide {
                config,
                rng,
                now,
                state: State::AwaitClientHello,
                session_id: Vec::new(),
                resumed: None,
                resumed_established_at: 0,
                dhe_kp: None,
                ecdhe_kp: None,
                sni: String::new(),
                client_offered_ticket_ext: false,
                stek_pin: None,
            },
        }
    }

    /// Decrypt and dispatch every complete record received so far.
    pub fn process_new_packets(&mut self) -> Result<IoState, TlsError> {
        let ServerConn { common, side } = self;
        conn::process(common, side)
    }

    /// How the handshake resumed, if it did.
    pub fn resumed(&self) -> Option<ResumeKind> {
        self.side.resumed
    }

    /// The negotiated suite (after ServerHello).
    pub fn cipher_suite(&self) -> Option<CipherSuite> {
        self.common.suite
    }

    /// The SNI hostname the client sent.
    pub fn sni(&self) -> &str {
        &self.side.sni
    }

    /// For resumed connections, when the original session was established
    /// (the anchor of the ticket acceptance window).
    pub fn resumed_original_establishment(&self) -> Option<u64> {
        self.side.resumed.map(|_| self.side.resumed_established_at)
    }
}

impl ServerSide {
    fn on_client_hello(
        &mut self,
        common: &mut ConnectionCommon,
        ch: ClientHello,
    ) -> Result<(), TlsError> {
        common.client_random = ch.random;
        self.rng.fill_bytes(&mut common.server_random);
        self.sni = find_server_name(&ch.extensions).unwrap_or("").to_string();
        let offered_ticket = find_session_ticket(&ch.extensions);
        self.client_offered_ticket_ext = offered_ticket.is_some();

        // Suite selection: server preference order.
        let suite = self
            .config
            .suites
            .iter()
            .copied()
            .find(|s| ch.cipher_suites.contains(&s.id()))
            .ok_or(TlsError::NoCommonSuite)?;

        // --- Resumption decision (ticket first, then session ID). ---
        if let (Some(manager), Some(ticket)) = (&self.config.tickets, offered_ticket) {
            if !ticket.is_empty() {
                let mut accepted = None;
                if let Ok(state) = manager.accept_pinned(&mut self.stek_pin, ticket, self.now) {
                    let fresh_enough = self.now.saturating_sub(state.established_at)
                        <= self.config.ticket_accept_window;
                    let suite_ok = ch.cipher_suites.contains(&state.cipher_suite.id())
                        && self.config.suites.contains(&state.cipher_suite);
                    if fresh_enough && suite_ok {
                        accepted = Some(state);
                    }
                }
                match accepted {
                    Some(state) => {
                        RESUME_TICKET_HIT.inc();
                        return self.resume(common, state, ResumeKind::Ticket, Vec::new());
                    }
                    None => RESUME_TICKET_MISS.inc(),
                }
            }
        }
        if let Some(cache) = &self.config.session_cache {
            if !ch.session_id.is_empty() {
                let hit = cache
                    .lookup(&self.sni, &ch.session_id, self.now)
                    .filter(|state| {
                        ch.cipher_suites.contains(&state.cipher_suite.id())
                            && self.config.suites.contains(&state.cipher_suite)
                    });
                match hit {
                    Some(state) => {
                        RESUME_SID_HIT.inc();
                        let sid = ch.session_id.clone();
                        return self.resume(common, state, ResumeKind::SessionId, sid);
                    }
                    None => RESUME_SID_MISS.inc(),
                }
            }
        }

        // --- Full handshake. ---
        HANDSHAKE_FULL.inc();
        common.suite = Some(suite);
        self.session_id = if self.config.issue_session_ids {
            self.rng.bytes(32)
        } else {
            Vec::new()
        };
        let mut extensions = Vec::new();
        let will_ticket = self.config.tickets.is_some() && self.client_offered_ticket_ext;
        if will_ticket {
            extensions.push(Extension::SessionTicket(Vec::new()));
        }
        let sh = HandshakeMessage::ServerHello(ServerHello {
            random: common.server_random,
            session_id: self.session_id.clone(),
            cipher_suite: suite.id(),
            extensions,
        });
        common.send_handshake(&sh);

        let chain: Vec<Vec<u8>> = self
            .config
            .identity
            .chain
            .iter()
            .map(|c| c.der.clone())
            .collect();
        common.send_handshake(&HandshakeMessage::Certificate(CertificateMsg { chain }));

        match suite.key_exchange() {
            KeyExchange::Rsa => {}
            KeyExchange::Dhe => {
                let kp = self.config.ephemeral.dhe_keypair(self.now);
                let group = kp.group;
                let params = ServerKexParams::Dhe {
                    p: group.prime().to_bytes_be(),
                    g: group.generator().to_bytes_be(),
                    ys: kp.public_bytes(),
                };
                let ske = self.signed_kex(common, params)?;
                self.dhe_kp = Some(kp);
                common.send_handshake(&ske);
            }
            KeyExchange::Ecdhe => {
                let kp = self.config.ephemeral.ecdhe_keypair(self.now);
                let params = ServerKexParams::Ecdhe {
                    point: kp.public.to_vec(),
                };
                let ske = self.signed_kex(common, params)?;
                self.ecdhe_kp = Some(kp);
                common.send_handshake(&ske);
            }
        }
        common.send_handshake(&HandshakeMessage::ServerHelloDone);
        self.state = State::AwaitClientKex;
        Ok(())
    }

    /// Sign cr || sr || params and build the ServerKeyExchange message.
    fn signed_kex(
        &mut self,
        common: &ConnectionCommon,
        params: ServerKexParams,
    ) -> Result<HandshakeMessage, TlsError> {
        let signed_content =
            kex_signed_content(&common.client_random, &common.server_random, &params);
        let signature = self.config.identity.key.sign(&signed_content)?;
        Ok(HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
            params,
            signature,
        }))
    }

    fn resume(
        &mut self,
        common: &mut ConnectionCommon,
        state: SessionState,
        kind: ResumeKind,
        echo_session_id: Vec<u8>,
    ) -> Result<(), TlsError> {
        let suite = state.cipher_suite;
        common.suite = Some(suite);
        self.resumed = Some(kind);
        self.resumed_established_at = state.established_at;
        common.master = Some(state.master_secret);
        self.session_id = echo_session_id;

        let reissue = kind == ResumeKind::Ticket
            && self.config.reissue_ticket_on_resumption
            && self.config.tickets.is_some();
        let mut extensions = Vec::new();
        if reissue {
            extensions.push(Extension::SessionTicket(Vec::new()));
        }
        let sh = HandshakeMessage::ServerHello(ServerHello {
            random: common.server_random,
            session_id: self.session_id.clone(),
            cipher_suite: suite.id(),
            extensions,
        });
        common.send_handshake(&sh);

        if reissue {
            // Fresh ticket over the SAME session state (keys constant,
            // original establishment time preserved — §2.2).
            let manager = self.config.tickets.as_ref().expect("checked").clone();
            let ticket = manager.issue(&state, self.now);
            TICKET_REISSUED.inc();
            common.send_handshake(&HandshakeMessage::NewSessionTicket(NewSessionTicket {
                lifetime_hint: self.config.ticket_lifetime_hint,
                ticket,
            }));
        }

        let master = state.master_secret;
        let keys = key_block(&master, &common.client_random, &common.server_random, suite);
        common.stage_keys(keys, false);
        // Server speaks first in an abbreviated handshake.
        common.queue_record(ContentType::ChangeCipherSpec, &[1]);
        common.install_write_keys();
        let vd = verify_data(&master, &common.transcript.hash(), false);
        common.send_handshake(&HandshakeMessage::Finished(Finished { verify_data: vd }));
        self.state = State::AwaitCcs;
        Ok(())
    }

    fn on_client_kex(
        &mut self,
        common: &mut ConnectionCommon,
        cke: ClientKeyExchange,
    ) -> Result<(), TlsError> {
        let suite = common.suite.expect("suite chosen");
        let premaster: Vec<u8> = match (suite.key_exchange(), cke) {
            (
                KeyExchange::Rsa,
                ClientKeyExchange::Rsa {
                    encrypted_premaster,
                },
            ) => {
                let pm = self.config.identity.key.decrypt(&encrypted_premaster)?;
                if pm.len() != 48 || pm[0] != 3 || pm[1] != 3 {
                    return Err(TlsError::Decode("bad RSA premaster"));
                }
                pm
            }
            (KeyExchange::Dhe, ClientKeyExchange::Dhe { yc }) => {
                let kp = self.dhe_kp.as_ref().expect("DHE keypair generated");
                let y = Ub::from_bytes_be(&yc);
                validate_public(kp.group, &y)?;
                kp.shared_secret(&y)?
            }
            (KeyExchange::Ecdhe, ClientKeyExchange::Ecdhe { point }) => {
                let kp = self.ecdhe_kp.as_ref().expect("ECDHE keypair generated");
                let point: [u8; 32] = point
                    .as_slice()
                    .try_into()
                    .map_err(|_| TlsError::Decode("bad X25519 point length"))?;
                kp.shared_secret(&point).to_vec()
            }
            _ => return Err(TlsError::Decode("key exchange type mismatch")),
        };
        let master = master_secret(&premaster, &common.client_random, &common.server_random);
        common.master = Some(master);
        let keys = key_block(&master, &common.client_random, &common.server_random, suite);
        common.stage_keys(keys, false);
        self.state = State::AwaitCcs;
        Ok(())
    }

    fn on_client_finished(
        &mut self,
        common: &mut ConnectionCommon,
        f: Finished,
    ) -> Result<(), TlsError> {
        let master = common.master.expect("master derived");
        let expected = verify_data(&master, &common.transcript.hash(), true);
        if !ts_crypto::ct::ct_eq(&expected, &f.verify_data) {
            return Err(TlsError::BadFinished);
        }
        common
            .transcript
            .add(&HandshakeMessage::Finished(f).encode());

        if self.resumed.is_some() {
            // Abbreviated handshake: we already sent our Finished.
            self.state = State::Established;
            common.status = Status::Established;
            return Ok(());
        }

        // Full handshake tail: store session, maybe issue ticket, then
        // CCS + Finished.
        let suite = common.suite.expect("suite chosen");
        let state = SessionState {
            master_secret: master,
            cipher_suite: suite,
            established_at: self.now,
            server_name: self.sni.clone(),
        };
        if let Some(cache) = &self.config.session_cache {
            if !self.session_id.is_empty() {
                cache.insert(&self.sni, self.session_id.clone(), state.clone(), self.now);
            }
        }
        if self.config.tickets.is_some() && self.client_offered_ticket_ext {
            let manager = self.config.tickets.as_ref().expect("checked").clone();
            let ticket = manager.issue(&state, self.now);
            TICKET_ISSUED.inc();
            common.send_handshake(&HandshakeMessage::NewSessionTicket(NewSessionTicket {
                lifetime_hint: self.config.ticket_lifetime_hint,
                ticket,
            }));
        }
        common.queue_record(ContentType::ChangeCipherSpec, &[1]);
        common.install_write_keys();
        let vd = verify_data(&master, &common.transcript.hash(), false);
        common.send_handshake(&HandshakeMessage::Finished(Finished { verify_data: vd }));
        self.state = State::Established;
        common.status = Status::Established;
        Ok(())
    }
}

impl Side for ServerSide {
    fn handle_handshake(
        &mut self,
        common: &mut ConnectionCommon,
        msg: HandshakeMessage,
    ) -> Result<(), TlsError> {
        match (self.state, msg) {
            (State::AwaitClientHello, HandshakeMessage::ClientHello(ch)) => {
                common
                    .transcript
                    .add(&HandshakeMessage::ClientHello(ch.clone()).encode());
                self.on_client_hello(common, ch)
            }
            (State::AwaitClientKex, HandshakeMessage::ClientKeyExchange(cke)) => {
                common
                    .transcript
                    .add(&HandshakeMessage::ClientKeyExchange(cke.clone()).encode());
                self.on_client_kex(common, cke)
            }
            (State::AwaitFinished, HandshakeMessage::Finished(f)) => {
                self.on_client_finished(common, f)
            }
            (_, other) => Err(TlsError::UnexpectedMessage {
                expected: state_expectation(self.state),
                got: other.name(),
            }),
        }
    }

    fn on_peer_ccs(
        &mut self,
        common: &mut ConnectionCommon,
        payload: &[u8],
    ) -> Result<(), TlsError> {
        if self.state != State::AwaitCcs || payload != [1] {
            return Err(TlsError::UnexpectedMessage {
                expected: "orderly ChangeCipherSpec",
                got: "ChangeCipherSpec",
            });
        }
        common.install_read_keys();
        self.state = State::AwaitFinished;
        Ok(())
    }

    fn alert_for(&self, err: &TlsError) -> AlertDescription {
        match err {
            TlsError::NoCommonSuite => AlertDescription::HandshakeFailure,
            TlsError::BadFinished => AlertDescription::DecryptError,
            TlsError::Crypto(_) => AlertDescription::DecryptError,
            TlsError::Trust(_) => AlertDescription::BadCertificate,
            TlsError::UnexpectedMessage { .. } => AlertDescription::UnexpectedMessage,
            _ => AlertDescription::DecodeError,
        }
    }

    fn set_failed(&mut self) {
        self.state = State::Failed;
    }

    fn note_alert_sent(&self) {
        ALERT_SENT.inc();
    }
}

/// The bytes an RSA signature covers in ServerKeyExchange:
/// client_random || server_random || encoded params.
pub fn kex_signed_content(
    client_random: &[u8; 32],
    server_random: &[u8; 32],
    params: &ServerKexParams,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(client_random);
    out.extend_from_slice(server_random);
    match params {
        ServerKexParams::Dhe { p, g, ys } => {
            out.push(0);
            out.extend_from_slice(&(p.len() as u16).to_be_bytes());
            out.extend_from_slice(p);
            out.extend_from_slice(&(g.len() as u16).to_be_bytes());
            out.extend_from_slice(g);
            out.extend_from_slice(&(ys.len() as u16).to_be_bytes());
            out.extend_from_slice(ys);
        }
        ServerKexParams::Ecdhe { point } => {
            out.push(3);
            out.extend_from_slice(&29u16.to_be_bytes());
            out.push(point.len() as u8);
            out.extend_from_slice(point);
        }
    }
    out
}

fn state_expectation(state: State) -> &'static str {
    match state {
        State::AwaitClientHello => "ClientHello",
        State::AwaitClientKex => "ClientKeyExchange",
        State::AwaitCcs => "ChangeCipherSpec",
        State::AwaitFinished => "Finished",
        State::Established => "ApplicationData",
        State::Failed => "nothing (failed)",
    }
}
