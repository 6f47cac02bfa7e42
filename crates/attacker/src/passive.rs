//! Passive capture parsing — what an on-path observer sees without keys.

use ts_tls::pump::WireCapture;
use ts_tls::suites::CipherSuite;
use ts_tls::wire::extensions::find_session_ticket;
use ts_tls::wire::handshake::{ClientKeyExchange, HandshakeMessage, HandshakeReassembler};
use ts_tls::wire::record::{ContentType, RecordLayer};

/// Parsing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassiveParseError {
    /// Record framing broke.
    BadRecord(String),
    /// A plaintext handshake message failed to parse.
    BadHandshake(String),
    /// The capture is missing a required message.
    Missing(&'static str),
}

impl std::fmt::Display for PassiveParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassiveParseError::BadRecord(e) => write!(f, "bad record: {e}"),
            PassiveParseError::BadHandshake(e) => write!(f, "bad handshake: {e}"),
            PassiveParseError::Missing(what) => write!(f, "capture missing {what}"),
        }
    }
}

impl std::error::Error for PassiveParseError {}

/// One direction's encrypted records, in order (sequence = index).
#[derive(Debug, Clone, Default)]
pub struct EncryptedRecords {
    /// Raw protected bodies with their content types.
    pub records: Vec<(ContentType, Vec<u8>)>,
}

/// Everything extractable from a capture without keys.
#[derive(Debug, Clone)]
pub struct CapturedConnection {
    /// Client random.
    pub client_random: [u8; 32],
    /// Server random.
    pub server_random: [u8; 32],
    /// Negotiated suite (from ServerHello).
    pub cipher_suite: CipherSuite,
    /// Session ID the client offered.
    pub offered_session_id: Vec<u8>,
    /// Session ID the server answered with.
    pub server_session_id: Vec<u8>,
    /// Ticket the client offered in its ClientHello (resumption attempts).
    pub offered_ticket: Option<Vec<u8>>,
    /// Ticket the server issued in plaintext (NewSessionTicket).
    pub issued_ticket: Option<Vec<u8>>,
    /// The abbreviated-handshake signal: server CCS arrived before any
    /// Certificate.
    pub abbreviated: bool,
    /// Client key-exchange public value (full handshakes; plaintext).
    pub client_kex_public: Option<Vec<u8>>,
    /// Server key-exchange public value (from ServerKeyExchange).
    pub server_kex_public: Option<Vec<u8>>,
    /// Encrypted records the client sent (Finished first, then data).
    pub client_encrypted: EncryptedRecords,
    /// Encrypted records the server sent.
    pub server_encrypted: EncryptedRecords,
}

/// Parse one direction: plaintext handshake until CCS, then raw bodies.
struct DirectionParse {
    messages: Vec<HandshakeMessage>,
    encrypted: EncryptedRecords,
}

fn parse_direction(
    bytes: &[u8],
    suite_hint: impl Fn(&[HandshakeMessage]) -> Option<CipherSuite>,
) -> Result<DirectionParse, PassiveParseError> {
    let mut layer = RecordLayer::new();
    layer.feed(bytes);
    let mut reasm = HandshakeReassembler::new();
    let mut messages = Vec::new();
    let mut encrypted = EncryptedRecords::default();
    let mut after_ccs = false;
    loop {
        let record = match layer.next_record() {
            Ok(Some(r)) => r,
            Ok(None) => break,
            Err(e) => return Err(PassiveParseError::BadRecord(e.to_string())),
        };
        if after_ccs {
            encrypted
                .records
                .push((record.content_type, record.payload));
            continue;
        }
        match record.content_type {
            ContentType::ChangeCipherSpec => after_ccs = true,
            ContentType::Handshake => {
                reasm
                    .feed(&record.payload)
                    .map_err(|e| PassiveParseError::BadHandshake(e.to_string()))?;
                loop {
                    // The CKE decoder needs the negotiated suite, which
                    // the caller learned from the peer's ServerHello.
                    let hint = suite_hint(&messages);
                    match reasm.next(hint) {
                        Ok(Some(m)) => messages.push(m),
                        Ok(None) => break,
                        Err(e) => return Err(PassiveParseError::BadHandshake(e.to_string())),
                    }
                }
            }
            ContentType::Alert | ContentType::ApplicationData => {
                // Plaintext alerts (pre-CCS failures) are ignorable here.
            }
        }
    }
    Ok(DirectionParse {
        messages,
        encrypted,
    })
}

impl CapturedConnection {
    /// Parse a full capture.
    pub fn parse(capture: &WireCapture) -> Result<CapturedConnection, PassiveParseError> {
        // Server direction first: it reveals the suite.
        let server = parse_direction(&capture.server_to_client, |_own| None)?;
        let sh = server
            .messages
            .iter()
            .find_map(|m| match m {
                HandshakeMessage::ServerHello(sh) => Some(sh.clone()),
                _ => None,
            })
            .ok_or(PassiveParseError::Missing("ServerHello"))?;
        let cipher_suite = CipherSuite::from_id(sh.cipher_suite)
            .ok_or(PassiveParseError::Missing("known cipher suite"))?;
        let client = parse_direction(&capture.client_to_server, move |_own| Some(cipher_suite))?;
        let ch = client
            .messages
            .iter()
            .find_map(|m| match m {
                HandshakeMessage::ClientHello(ch) => Some(ch.clone()),
                _ => None,
            })
            .ok_or(PassiveParseError::Missing("ClientHello"))?;
        let offered_ticket = find_session_ticket(&ch.extensions)
            .filter(|t| !t.is_empty())
            .map(|t| t.to_vec());
        let issued_ticket = server.messages.iter().find_map(|m| match m {
            HandshakeMessage::NewSessionTicket(nst) => Some(nst.ticket.clone()),
            _ => None,
        });
        let abbreviated = !server
            .messages
            .iter()
            .any(|m| matches!(m, HandshakeMessage::Certificate(_)));
        let client_kex_public = client.messages.iter().find_map(|m| match m {
            HandshakeMessage::ClientKeyExchange(cke) => Some(match cke {
                ClientKeyExchange::Rsa {
                    encrypted_premaster,
                } => encrypted_premaster.clone(),
                ClientKeyExchange::Dhe { yc } => yc.clone(),
                ClientKeyExchange::Ecdhe { point } => point.clone(),
            }),
            _ => None,
        });
        let server_kex_public = server.messages.iter().find_map(|m| match m {
            HandshakeMessage::ServerKeyExchange(ske) => Some(ske.params.public_value().to_vec()),
            _ => None,
        });
        Ok(CapturedConnection {
            client_random: ch.random,
            server_random: sh.random,
            cipher_suite,
            offered_session_id: ch.session_id.clone(),
            server_session_id: sh.session_id.clone(),
            offered_ticket,
            issued_ticket,
            abbreviated,
            client_kex_public,
            server_kex_public,
            client_encrypted: client.encrypted,
            server_encrypted: server.encrypted,
        })
    }

    /// Decrypt both directions' application data with a recovered master
    /// secret. Returns (client→server bytes, server→client bytes).
    pub fn decrypt_with_master(
        &self,
        master: &[u8; 48],
    ) -> Result<(Vec<u8>, Vec<u8>), ts_tls::TlsError> {
        let keys = ts_tls::keys::key_block(
            master,
            &self.client_random,
            &self.server_random,
            self.cipher_suite,
        );
        let decrypt_dir = |dir_keys: &ts_tls::wire::record::DirectionKeys,
                           records: &EncryptedRecords|
         -> Result<Vec<u8>, ts_tls::TlsError> {
            let mut out = Vec::new();
            for (seq, (content_type, body)) in records.records.iter().enumerate() {
                let pt = ts_tls::wire::record::decrypt_captured(
                    dir_keys,
                    seq as u64,
                    *content_type,
                    body,
                )?;
                if *content_type == ContentType::ApplicationData {
                    out.extend_from_slice(&pt);
                }
            }
            Ok(out)
        };
        let c2s = decrypt_dir(&keys.client_write, &self.client_encrypted)?;
        let s2c = decrypt_dir(&keys.server_write, &self.server_encrypted)?;
        Ok((c2s, s2c))
    }
}

/// Shared fixtures for this crate's attack tests.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;
    use ts_crypto::drbg::HmacDrbg;
    use ts_crypto::rsa::RsaPrivateKey;
    use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
    use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
    use ts_tls::pump::{pump, pump_app_data};
    use ts_tls::ticket::{RotationPolicy, SharedStekManager, StekManager, TicketFormat};
    use ts_tls::{ClientConn, ServerConn};
    use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

    pub(crate) struct World {
        pub store: Arc<RootStore>,
        pub config: ServerConfig,
    }

    pub(crate) fn world(seed: &[u8]) -> World {
        let mut rng = HmacDrbg::new(seed);
        let ca_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let ca_name = DistinguishedName::cn("Attack CA");
        let ca = Certificate::issue(
            &CertificateParams {
                serial: 1,
                subject: ca_name.clone(),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec![],
                is_ca: true,
            },
            &ca_key.public,
            &ca_name,
            &ca_key,
        );
        let leaf_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let leaf = Certificate::issue(
            &CertificateParams {
                serial: 2,
                subject: DistinguishedName::cn("victim.sim"),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec!["victim.sim".into()],
                is_ca: false,
            },
            &leaf_key.public,
            &ca_name,
            &ca_key,
        );
        let mut store = RootStore::new();
        store.add_root(ca);
        let identity = Arc::new(ServerIdentity {
            chain: vec![leaf],
            key: leaf_key,
        });
        let eph = EphemeralCache::new(
            EphemeralPolicy::ReuseForever,
            ts_crypto::dh::DhGroup::Sim256,
            HmacDrbg::new(&[seed, b"-eph"].concat()),
        );
        let mut config = ServerConfig::new(identity, eph);
        config.tickets = Some(SharedStekManager::new(StekManager::new(
            RotationPolicy::Static,
            TicketFormat::Rfc5077,
            HmacDrbg::new(&[seed, b"-stek"].concat()),
            0,
        )));
        config.ticket_accept_window = 86_400;
        config.ticket_lifetime_hint = 86_400;
        World {
            store: Arc::new(store),
            config,
        }
    }

    pub(crate) fn run_connection(
        w: &World,
        seed: &[u8],
        now: u64,
        request: &[u8],
        response: &[u8],
        resume_ticket: Option<(Vec<u8>, ts_tls::session::SessionState)>,
    ) -> (ts_tls::pump::WireCapture, ClientConn, ServerConn) {
        let mut ccfg = ClientConfig::new(w.store.clone(), "victim.sim", now);
        ccfg.resumption.ticket = resume_ticket;
        let mut client = ClientConn::new(ccfg, HmacDrbg::new(&[seed, b"-c"].concat()));
        let mut server = ServerConn::new(
            w.config.clone(),
            HmacDrbg::new(&[seed, b"-s"].concat()),
            now,
        );
        let result = pump(&mut client, &mut server).expect("handshake");
        let mut capture = result.capture;
        client.send_app_data(request).unwrap();
        pump_app_data(&mut client, &mut server, &mut capture).unwrap();
        server.send_app_data(response).unwrap();
        pump_app_data(&mut client, &mut server, &mut capture).unwrap();
        (capture, client, server)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{run_connection, world};
    use super::*;

    #[test]
    fn parse_full_handshake_capture() {
        let w = world(b"parse-full");
        let (capture, client, _server) =
            run_connection(&w, b"c1", 100, b"GET /secret", b"200 OK", None);
        let parsed = CapturedConnection::parse(&capture).unwrap();
        assert!(!parsed.abbreviated);
        assert!(
            parsed.issued_ticket.is_some(),
            "NST is plaintext on the wire"
        );
        assert!(parsed.offered_ticket.is_none());
        assert!(parsed.client_kex_public.is_some());
        assert!(parsed.server_kex_public.is_some());
        assert_eq!(parsed.cipher_suite, client.summary().unwrap().cipher_suite);
        assert!(!parsed.client_encrypted.records.is_empty());
        assert!(!parsed.server_encrypted.records.is_empty());
    }

    #[test]
    fn parse_abbreviated_capture() {
        let w = world(b"parse-abbrev");
        let (cap1, client, _server) = run_connection(&w, b"c1", 100, b"req", b"resp", None);
        let s = client.summary().unwrap();
        let nst = s.new_ticket.clone().unwrap();
        let parsed1 = CapturedConnection::parse(&cap1).unwrap();
        assert!(!parsed1.abbreviated);
        let (cap2, _client2, _server2) = run_connection(
            &w,
            b"c2",
            200,
            b"req2",
            b"resp2",
            Some((nst.ticket.clone(), s.session.clone())),
        );
        let parsed2 = CapturedConnection::parse(&cap2).unwrap();
        assert!(parsed2.abbreviated, "no Certificate on resumption");
        assert_eq!(parsed2.offered_ticket, Some(nst.ticket));
    }

    #[test]
    fn decrypt_with_correct_master_recovers_plaintext() {
        let w = world(b"decrypt");
        let (capture, client, _server) =
            run_connection(&w, b"c1", 100, b"GET /account", b"balance: 42", None);
        let parsed = CapturedConnection::parse(&capture).unwrap();
        let master = client.master_secret().unwrap();
        let (c2s, s2c) = parsed.decrypt_with_master(&master).unwrap();
        assert_eq!(c2s, b"GET /account");
        assert_eq!(s2c, b"balance: 42");
    }

    #[test]
    fn decrypt_with_wrong_master_fails() {
        let w = world(b"decrypt-wrong");
        let (capture, _client, _server) = run_connection(&w, b"c1", 100, b"req", b"resp", None);
        let parsed = CapturedConnection::parse(&capture).unwrap();
        let wrong = [0u8; 48];
        assert!(parsed.decrypt_with_master(&wrong).is_err());
    }

    #[test]
    fn garbage_capture_rejected() {
        let cap = WireCapture {
            client_to_server: vec![0xff; 32],
            server_to_client: vec![1, 2, 3],
        };
        assert!(CapturedConnection::parse(&cap).is_err());
        let empty = WireCapture::default();
        assert_eq!(
            CapturedConnection::parse(&empty).unwrap_err(),
            PassiveParseError::Missing("ServerHello")
        );
    }
}
