//! Handshake messages (RFC 5246 §7.4, RFC 5077 §3.3).
//!
//! Each message knows how to encode itself into the 4-byte handshake
//! header format (`msg_type(1) || length(3) || body`) and decode strictly.
//! The scanner relies on byte-exact access to the fields the paper
//! measures: ServerHello session IDs, ServerKeyExchange public values, and
//! NewSessionTicket contents.

use crate::error::TlsError;
use crate::suites::CipherSuite;
use crate::wire::extensions::{decode_extensions, encode_extensions, Extension};

/// Length of hello random values.
pub const RANDOM_LEN: usize = 32;

/// Handshake message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeType {
    /// client_hello(1)
    ClientHello,
    /// server_hello(2)
    ServerHello,
    /// new_session_ticket(4)
    NewSessionTicket,
    /// certificate(11)
    Certificate,
    /// server_key_exchange(12)
    ServerKeyExchange,
    /// server_hello_done(14)
    ServerHelloDone,
    /// client_key_exchange(16)
    ClientKeyExchange,
    /// finished(20)
    Finished,
}

impl HandshakeType {
    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            HandshakeType::ClientHello => 1,
            HandshakeType::ServerHello => 2,
            HandshakeType::NewSessionTicket => 4,
            HandshakeType::Certificate => 11,
            HandshakeType::ServerKeyExchange => 12,
            HandshakeType::ServerHelloDone => 14,
            HandshakeType::ClientKeyExchange => 16,
            HandshakeType::Finished => 20,
        }
    }

    /// From wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(HandshakeType::ClientHello),
            2 => Some(HandshakeType::ServerHello),
            4 => Some(HandshakeType::NewSessionTicket),
            11 => Some(HandshakeType::Certificate),
            12 => Some(HandshakeType::ServerKeyExchange),
            14 => Some(HandshakeType::ServerHelloDone),
            16 => Some(HandshakeType::ClientKeyExchange),
            20 => Some(HandshakeType::Finished),
            _ => None,
        }
    }

    /// Human-readable name (for error reporting).
    pub fn name(self) -> &'static str {
        match self {
            HandshakeType::ClientHello => "ClientHello",
            HandshakeType::ServerHello => "ServerHello",
            HandshakeType::NewSessionTicket => "NewSessionTicket",
            HandshakeType::Certificate => "Certificate",
            HandshakeType::ServerKeyExchange => "ServerKeyExchange",
            HandshakeType::ServerHelloDone => "ServerHelloDone",
            HandshakeType::ClientKeyExchange => "ClientKeyExchange",
            HandshakeType::Finished => "Finished",
        }
    }
}

/// ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Client random (gmt_unix_time folded in; we use all-random).
    pub random: [u8; RANDOM_LEN],
    /// Session ID offered for resumption (empty = none).
    pub session_id: Vec<u8>,
    /// Offered suites, client preference order.
    pub cipher_suites: Vec<u16>,
    /// Extensions.
    pub extensions: Vec<Extension>,
}

/// ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// Server random.
    pub random: [u8; RANDOM_LEN],
    /// Session ID (echoed on resumption; fresh or empty otherwise).
    pub session_id: Vec<u8>,
    /// Selected suite.
    pub cipher_suite: u16,
    /// Extensions.
    pub extensions: Vec<Extension>,
}

/// Certificate: a chain of DER certificates, leaf first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateMsg {
    /// DER certificates.
    pub chain: Vec<Vec<u8>>,
}

/// Which key-exchange parameters a ServerKeyExchange carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerKexParams {
    /// Finite-field DH: p, g, and the server public Ys.
    Dhe {
        /// Prime modulus bytes.
        p: Vec<u8>,
        /// Generator bytes.
        g: Vec<u8>,
        /// Server public value.
        ys: Vec<u8>,
    },
    /// ECDHE on X25519 (named curve 29): the server public point.
    Ecdhe {
        /// Server public point bytes.
        point: Vec<u8>,
    },
}

impl ServerKexParams {
    /// The server's public key-exchange value — the datum the study's
    /// reuse measurement fingerprints.
    pub fn public_value(&self) -> &[u8] {
        match self {
            ServerKexParams::Dhe { ys, .. } => ys,
            ServerKexParams::Ecdhe { point } => point,
        }
    }
}

/// ServerKeyExchange: parameters plus an RSA signature over
/// client_random || server_random || params.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerKeyExchange {
    /// The Diffie-Hellman parameters.
    pub params: ServerKexParams,
    /// RSA PKCS#1 v1.5 SHA-256 signature.
    pub signature: Vec<u8>,
}

/// ClientKeyExchange payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientKeyExchange {
    /// RSA-encrypted premaster secret.
    Rsa {
        /// Ciphertext.
        encrypted_premaster: Vec<u8>,
    },
    /// Client DH public value.
    Dhe {
        /// Yc bytes.
        yc: Vec<u8>,
    },
    /// Client ECDH point.
    Ecdhe {
        /// Point bytes.
        point: Vec<u8>,
    },
}

/// NewSessionTicket (RFC 5077 §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewSessionTicket {
    /// Lifetime hint in seconds (0 = unspecified, client's policy).
    pub lifetime_hint: u32,
    /// The opaque ticket.
    pub ticket: Vec<u8>,
}

/// Finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finished {
    /// 12-byte verify_data.
    pub verify_data: Vec<u8>,
}

/// Any handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMessage {
    /// ClientHello
    ClientHello(ClientHello),
    /// ServerHello
    ServerHello(ServerHello),
    /// Certificate
    Certificate(CertificateMsg),
    /// ServerKeyExchange
    ServerKeyExchange(ServerKeyExchange),
    /// ServerHelloDone
    ServerHelloDone,
    /// ClientKeyExchange
    ClientKeyExchange(ClientKeyExchange),
    /// NewSessionTicket
    NewSessionTicket(NewSessionTicket),
    /// Finished
    Finished(Finished),
}

impl HandshakeMessage {
    /// The message's type.
    pub fn msg_type(&self) -> HandshakeType {
        match self {
            HandshakeMessage::ClientHello(_) => HandshakeType::ClientHello,
            HandshakeMessage::ServerHello(_) => HandshakeType::ServerHello,
            HandshakeMessage::Certificate(_) => HandshakeType::Certificate,
            HandshakeMessage::ServerKeyExchange(_) => HandshakeType::ServerKeyExchange,
            HandshakeMessage::ServerHelloDone => HandshakeType::ServerHelloDone,
            HandshakeMessage::ClientKeyExchange(_) => HandshakeType::ClientKeyExchange,
            HandshakeMessage::NewSessionTicket(_) => HandshakeType::NewSessionTicket,
            HandshakeMessage::Finished(_) => HandshakeType::Finished,
        }
    }

    /// Name for diagnostics.
    pub fn name(&self) -> &'static str {
        self.msg_type().name()
    }

    fn body_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            HandshakeMessage::ClientHello(ch) => {
                out.push(3);
                out.push(3); // client_version TLS 1.2
                out.extend_from_slice(&ch.random);
                out.push(ch.session_id.len() as u8);
                out.extend_from_slice(&ch.session_id);
                out.extend_from_slice(&(ch.cipher_suites.len() as u16 * 2).to_be_bytes());
                for s in &ch.cipher_suites {
                    out.extend_from_slice(&s.to_be_bytes());
                }
                out.push(1); // compression methods length
                out.push(0); // null compression
                encode_extensions(&ch.extensions, &mut out);
            }
            HandshakeMessage::ServerHello(sh) => {
                out.push(3);
                out.push(3);
                out.extend_from_slice(&sh.random);
                out.push(sh.session_id.len() as u8);
                out.extend_from_slice(&sh.session_id);
                out.extend_from_slice(&sh.cipher_suite.to_be_bytes());
                out.push(0); // null compression
                encode_extensions(&sh.extensions, &mut out);
            }
            HandshakeMessage::Certificate(c) => {
                let total: usize = c.chain.iter().map(|der| der.len() + 3).sum();
                put_u24(&mut out, total);
                for der in &c.chain {
                    put_u24(&mut out, der.len());
                    out.extend_from_slice(der);
                }
            }
            HandshakeMessage::ServerKeyExchange(ske) => {
                match &ske.params {
                    ServerKexParams::Dhe { p, g, ys } => {
                        out.push(0); // our tag: 0 = FFDHE params
                        out.extend_from_slice(&(p.len() as u16).to_be_bytes());
                        out.extend_from_slice(p);
                        out.extend_from_slice(&(g.len() as u16).to_be_bytes());
                        out.extend_from_slice(g);
                        out.extend_from_slice(&(ys.len() as u16).to_be_bytes());
                        out.extend_from_slice(ys);
                    }
                    ServerKexParams::Ecdhe { point } => {
                        out.push(3); // curve_type named_curve
                        out.extend_from_slice(&29u16.to_be_bytes()); // x25519
                        out.push(point.len() as u8);
                        out.extend_from_slice(point);
                    }
                }
                out.extend_from_slice(&(ske.signature.len() as u16).to_be_bytes());
                out.extend_from_slice(&ske.signature);
            }
            HandshakeMessage::ServerHelloDone => {}
            HandshakeMessage::ClientKeyExchange(cke) => match cke {
                ClientKeyExchange::Rsa {
                    encrypted_premaster,
                } => {
                    out.extend_from_slice(&(encrypted_premaster.len() as u16).to_be_bytes());
                    out.extend_from_slice(encrypted_premaster);
                }
                ClientKeyExchange::Dhe { yc } => {
                    out.extend_from_slice(&(yc.len() as u16).to_be_bytes());
                    out.extend_from_slice(yc);
                }
                ClientKeyExchange::Ecdhe { point } => {
                    out.push(point.len() as u8);
                    out.extend_from_slice(point);
                }
            },
            HandshakeMessage::NewSessionTicket(nst) => {
                out.extend_from_slice(&nst.lifetime_hint.to_be_bytes());
                out.extend_from_slice(&(nst.ticket.len() as u16).to_be_bytes());
                out.extend_from_slice(&nst.ticket);
            }
            HandshakeMessage::Finished(f) => {
                out.extend_from_slice(&f.verify_data);
            }
        }
        out
    }

    /// Encode with the 4-byte handshake header.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.body_bytes();
        let mut out = Vec::with_capacity(body.len() + 4);
        out.push(self.msg_type().to_byte());
        put_u24(&mut out, body.len());
        out.extend_from_slice(&body);
        out
    }

    /// Decode one handshake message from the front of `data`.
    /// Returns the message and the number of bytes consumed, or `Ok(None)`
    /// when more bytes are needed. The "suite hint" disambiguates
    /// ClientKeyExchange bodies, which are not self-describing in TLS.
    pub fn decode(
        data: &[u8],
        cke_suite_hint: Option<CipherSuite>,
    ) -> Result<Option<(HandshakeMessage, usize)>, TlsError> {
        if data.len() < 4 {
            return Ok(None);
        }
        let msg_type =
            HandshakeType::from_byte(data[0]).ok_or(TlsError::Decode("unknown handshake type"))?;
        let len = get_u24(&data[1..4]);
        if data.len() < 4 + len {
            return Ok(None);
        }
        let body = &data[4..4 + len];
        let msg = Self::decode_body(msg_type, body, cke_suite_hint)?;
        Ok(Some((msg, 4 + len)))
    }

    fn decode_body(
        msg_type: HandshakeType,
        body: &[u8],
        cke_suite_hint: Option<CipherSuite>,
    ) -> Result<HandshakeMessage, TlsError> {
        let mut r = Cursor::new(body);
        let msg = match msg_type {
            HandshakeType::ClientHello => {
                let ver = (r.u8()?, r.u8()?);
                if ver != (3, 3) {
                    return Err(TlsError::Decode("unsupported client_version"));
                }
                let random = r.array::<RANDOM_LEN>()?;
                let sid_len = r.u8()? as usize;
                if sid_len > 32 {
                    return Err(TlsError::Decode("session_id too long"));
                }
                let session_id = r.take(sid_len)?.to_vec();
                let suites_len = r.u16()? as usize;
                if suites_len % 2 != 0 {
                    return Err(TlsError::Decode("odd cipher_suites length"));
                }
                let suites_bytes = r.take(suites_len)?;
                let cipher_suites = suites_bytes
                    .chunks_exact(2)
                    .map(|c| u16::from_be_bytes([c[0], c[1]]))
                    .collect();
                let comp_len = r.u8()? as usize;
                let comps = r.take(comp_len)?;
                if !comps.contains(&0) {
                    return Err(TlsError::Decode("null compression not offered"));
                }
                let extensions = decode_extensions(r.rest())?;
                HandshakeMessage::ClientHello(ClientHello {
                    random,
                    session_id,
                    cipher_suites,
                    extensions,
                })
            }
            HandshakeType::ServerHello => {
                let ver = (r.u8()?, r.u8()?);
                if ver != (3, 3) {
                    return Err(TlsError::Decode("unsupported server_version"));
                }
                let random = r.array::<RANDOM_LEN>()?;
                let sid_len = r.u8()? as usize;
                if sid_len > 32 {
                    return Err(TlsError::Decode("session_id too long"));
                }
                let session_id = r.take(sid_len)?.to_vec();
                let cipher_suite = r.u16()?;
                let comp = r.u8()?;
                if comp != 0 {
                    return Err(TlsError::Decode("non-null compression selected"));
                }
                let extensions = decode_extensions(r.rest())?;
                HandshakeMessage::ServerHello(ServerHello {
                    random,
                    session_id,
                    cipher_suite,
                    extensions,
                })
            }
            HandshakeType::Certificate => {
                let total = r.u24()?;
                let mut list = Cursor::new(r.take(total)?);
                let mut chain = Vec::new();
                while !list.is_empty() {
                    let len = list.u24()?;
                    chain.push(list.take(len)?.to_vec());
                }
                r.expect_empty()?;
                HandshakeMessage::Certificate(CertificateMsg { chain })
            }
            HandshakeType::ServerKeyExchange => {
                let tag = r.u8()?;
                let params = match tag {
                    0 => {
                        let p_len = r.u16()? as usize;
                        let p = r.take(p_len)?.to_vec();
                        let g_len = r.u16()? as usize;
                        let g = r.take(g_len)?.to_vec();
                        let ys_len = r.u16()? as usize;
                        let ys = r.take(ys_len)?.to_vec();
                        ServerKexParams::Dhe { p, g, ys }
                    }
                    3 => {
                        let curve = r.u16()?;
                        if curve != 29 {
                            return Err(TlsError::Decode("unsupported named curve"));
                        }
                        let len = r.u8()? as usize;
                        ServerKexParams::Ecdhe {
                            point: r.take(len)?.to_vec(),
                        }
                    }
                    _ => return Err(TlsError::Decode("unknown curve_type")),
                };
                let sig_len = r.u16()? as usize;
                let signature = r.take(sig_len)?.to_vec();
                r.expect_empty()?;
                HandshakeMessage::ServerKeyExchange(ServerKeyExchange { params, signature })
            }
            HandshakeType::ServerHelloDone => {
                r.expect_empty()?;
                HandshakeMessage::ServerHelloDone
            }
            HandshakeType::ClientKeyExchange => {
                use crate::suites::KeyExchange;
                let suite = cke_suite_hint
                    .ok_or(TlsError::Decode("ClientKeyExchange without suite context"))?;
                let cke = match suite.key_exchange() {
                    KeyExchange::Rsa => {
                        let len = r.u16()? as usize;
                        ClientKeyExchange::Rsa {
                            encrypted_premaster: r.take(len)?.to_vec(),
                        }
                    }
                    KeyExchange::Dhe => {
                        let len = r.u16()? as usize;
                        ClientKeyExchange::Dhe {
                            yc: r.take(len)?.to_vec(),
                        }
                    }
                    KeyExchange::Ecdhe => {
                        let len = r.u8()? as usize;
                        ClientKeyExchange::Ecdhe {
                            point: r.take(len)?.to_vec(),
                        }
                    }
                };
                r.expect_empty()?;
                HandshakeMessage::ClientKeyExchange(cke)
            }
            HandshakeType::NewSessionTicket => {
                let lifetime_hint = r.u32()?;
                let len = r.u16()? as usize;
                let ticket = r.take(len)?.to_vec();
                r.expect_empty()?;
                HandshakeMessage::NewSessionTicket(NewSessionTicket {
                    lifetime_hint,
                    ticket,
                })
            }
            HandshakeType::Finished => {
                let verify_data = r.rest().to_vec();
                if verify_data.len() != 12 {
                    return Err(TlsError::Decode("Finished verify_data length"));
                }
                HandshakeMessage::Finished(Finished { verify_data })
            }
        };
        Ok(msg)
    }
}

fn put_u24(out: &mut Vec<u8>, v: usize) {
    assert!(v < 1 << 24, "u24 overflow");
    out.push((v >> 16) as u8);
    out.push((v >> 8) as u8);
    out.push(v as u8);
}

fn get_u24(b: &[u8]) -> usize {
    ((b[0] as usize) << 16) | ((b[1] as usize) << 8) | b[2] as usize
}

/// Minimal strict cursor.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TlsError> {
        if self.pos + n > self.data.len() {
            return Err(TlsError::Decode("truncated handshake body"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, TlsError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TlsError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u24(&mut self) -> Result<usize, TlsError> {
        let b = self.take(3)?;
        Ok(get_u24(b))
    }

    fn u32(&mut self) -> Result<u32, TlsError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], TlsError> {
        Ok(self.take(N)?.try_into().expect("length checked"))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.data[self.pos..];
        self.pos = self.data.len();
        out
    }

    fn expect_empty(&self) -> Result<(), TlsError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(TlsError::Decode("trailing bytes in handshake body"))
        }
    }
}

/// Largest handshake message body the reassembler accepts, in bytes.
///
/// The 24-bit length field would let a peer declare up to 16 MiB. The
/// largest message the simulated population sends is the Certificate
/// message of a two-certificate chain, about 700 bytes with 512-bit keys,
/// so 16 KiB leaves a wide margin; a test over a built population keeps
/// the margin at least fourfold.
pub const MAX_HANDSHAKE_LEN: usize = 16_384;

/// Incremental reassembler for handshake messages arriving via records.
#[derive(Default)]
pub struct HandshakeReassembler {
    buf: Vec<u8>,
}

impl HandshakeReassembler {
    /// New empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append record payload bytes.
    ///
    /// Every message header is checked as soon as its four bytes are
    /// buffered: a declared body above [`MAX_HANDSHAKE_LEN`] fails with
    /// [`TlsError::HandshakeTooLong`] before any of that body is kept, and
    /// the buffer is emptied.
    pub fn feed(&mut self, data: &[u8]) -> Result<(), TlsError> {
        self.buf.extend_from_slice(data);
        let mut at = 0;
        while let Some(header) = self.buf.get(at..at + 4) {
            let declared = get_u24(&header[1..]);
            if declared > MAX_HANDSHAKE_LEN {
                self.buf.clear();
                return Err(TlsError::HandshakeTooLong { declared });
            }
            at += 4 + declared;
        }
        Ok(())
    }

    /// Pop the next complete message, if any.
    pub fn next(
        &mut self,
        cke_suite_hint: Option<CipherSuite>,
    ) -> Result<Option<HandshakeMessage>, TlsError> {
        match HandshakeMessage::decode(&self.buf, cke_suite_hint)? {
            Some((msg, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    /// True when no partial message is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: HandshakeMessage, hint: Option<CipherSuite>) {
        let enc = msg.encode();
        let (decoded, consumed) = HandshakeMessage::decode(&enc, hint).unwrap().unwrap();
        assert_eq!(consumed, enc.len());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn client_hello_roundtrip() {
        roundtrip(
            HandshakeMessage::ClientHello(ClientHello {
                random: [7u8; 32],
                session_id: vec![1, 2, 3],
                cipher_suites: vec![0xc027, 0x003c],
                extensions: vec![
                    Extension::ServerName("x.sim".into()),
                    Extension::SessionTicket(vec![]),
                ],
            }),
            None,
        );
    }

    #[test]
    fn client_hello_empty_session_and_exts() {
        roundtrip(
            HandshakeMessage::ClientHello(ClientHello {
                random: [0u8; 32],
                session_id: vec![],
                cipher_suites: vec![0x003c],
                extensions: vec![],
            }),
            None,
        );
    }

    #[test]
    fn server_hello_roundtrip() {
        roundtrip(
            HandshakeMessage::ServerHello(ServerHello {
                random: [9u8; 32],
                session_id: vec![0xaa; 32],
                cipher_suite: 0xcca8,
                extensions: vec![Extension::SessionTicket(vec![])],
            }),
            None,
        );
    }

    #[test]
    fn certificate_roundtrip() {
        roundtrip(
            HandshakeMessage::Certificate(CertificateMsg {
                chain: vec![vec![1, 2, 3], vec![4, 5], vec![]],
            }),
            None,
        );
        roundtrip(
            HandshakeMessage::Certificate(CertificateMsg { chain: vec![] }),
            None,
        );
    }

    #[test]
    fn ske_dhe_roundtrip() {
        roundtrip(
            HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
                params: ServerKexParams::Dhe {
                    p: vec![0xff; 32],
                    g: vec![2],
                    ys: vec![0xab; 32],
                },
                signature: vec![0xcd; 64],
            }),
            None,
        );
    }

    #[test]
    fn ske_ecdhe_roundtrip() {
        roundtrip(
            HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
                params: ServerKexParams::Ecdhe {
                    point: vec![0x42; 32],
                },
                signature: vec![0xee; 64],
            }),
            None,
        );
    }

    #[test]
    fn cke_variants_roundtrip() {
        roundtrip(
            HandshakeMessage::ClientKeyExchange(ClientKeyExchange::Rsa {
                encrypted_premaster: vec![1; 64],
            }),
            Some(CipherSuite::RsaAes128CbcSha256),
        );
        roundtrip(
            HandshakeMessage::ClientKeyExchange(ClientKeyExchange::Dhe { yc: vec![2; 32] }),
            Some(CipherSuite::DheRsaAes128CbcSha256),
        );
        roundtrip(
            HandshakeMessage::ClientKeyExchange(ClientKeyExchange::Ecdhe { point: vec![3; 32] }),
            Some(CipherSuite::EcdheRsaChaCha20Poly1305),
        );
    }

    #[test]
    fn cke_without_hint_fails() {
        let msg = HandshakeMessage::ClientKeyExchange(ClientKeyExchange::Dhe { yc: vec![1] });
        let enc = msg.encode();
        assert!(HandshakeMessage::decode(&enc, None).is_err());
    }

    #[test]
    fn nst_roundtrip() {
        roundtrip(
            HandshakeMessage::NewSessionTicket(NewSessionTicket {
                lifetime_hint: 100_800, // Google's 28 hours
                ticket: vec![0x5a; 120],
            }),
            None,
        );
        roundtrip(
            HandshakeMessage::NewSessionTicket(NewSessionTicket {
                lifetime_hint: 0,
                ticket: vec![],
            }),
            None,
        );
    }

    #[test]
    fn finished_and_done_roundtrip() {
        roundtrip(
            HandshakeMessage::Finished(Finished {
                verify_data: vec![1; 12],
            }),
            None,
        );
        roundtrip(HandshakeMessage::ServerHelloDone, None);
    }

    #[test]
    fn finished_wrong_length_rejected() {
        let mut enc = HandshakeMessage::Finished(Finished {
            verify_data: vec![1; 12],
        })
        .encode();
        enc[3] = 11; // shrink declared body length
        enc.truncate(4 + 11);
        assert!(HandshakeMessage::decode(&enc, None).is_err());
    }

    #[test]
    fn partial_input_returns_none() {
        let enc = HandshakeMessage::ServerHelloDone.encode();
        assert!(HandshakeMessage::decode(&enc[..2], None).unwrap().is_none());
    }

    #[test]
    fn trailing_garbage_in_body_rejected() {
        // ServerHelloDone with a non-empty body.
        let bad = [14u8, 0, 0, 1, 0xff];
        assert!(HandshakeMessage::decode(&bad, None).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let bad = [99u8, 0, 0, 0];
        assert!(HandshakeMessage::decode(&bad, None).is_err());
    }

    #[test]
    fn reassembler_handles_split_messages() {
        let m1 = HandshakeMessage::ServerHelloDone.encode();
        let m2 = HandshakeMessage::Finished(Finished {
            verify_data: vec![2; 12],
        })
        .encode();
        let mut all = m1.clone();
        all.extend_from_slice(&m2);
        let mut r = HandshakeReassembler::new();
        // Feed in awkward chunks.
        for chunk in all.chunks(3) {
            r.feed(chunk).unwrap();
        }
        assert_eq!(
            r.next(None).unwrap().unwrap(),
            HandshakeMessage::ServerHelloDone
        );
        assert_eq!(
            r.next(None).unwrap().unwrap(),
            HandshakeMessage::Finished(Finished {
                verify_data: vec![2; 12]
            })
        );
        assert!(r.next(None).unwrap().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn reassembler_refuses_oversize_declared_length_at_the_header() {
        let mut r = HandshakeReassembler::new();
        // A ServerHelloDone with a body of exactly the cap is accepted
        // (its decode fails later, but the reassembler buffers it).
        let cap = MAX_HANDSHAKE_LEN as u32;
        let at_cap = [14, (cap >> 16) as u8, (cap >> 8) as u8, cap as u8];
        assert_eq!(r.feed(&at_cap), Ok(()));
        assert_eq!(r.feed(&vec![0; MAX_HANDSHAKE_LEN]), Ok(()));
        // A second message declaring one byte more fails on its header,
        // and nothing stays buffered.
        let over = cap + 1;
        let header = [14, (over >> 16) as u8, (over >> 8) as u8, over as u8];
        assert_eq!(r.feed(&header[..3]), Ok(()));
        assert_eq!(
            r.feed(&header[3..]),
            Err(TlsError::HandshakeTooLong {
                declared: MAX_HANDSHAKE_LEN + 1
            })
        );
        assert!(r.is_empty());
    }

    #[test]
    fn session_id_over_32_rejected() {
        let ch = HandshakeMessage::ClientHello(ClientHello {
            random: [0; 32],
            session_id: vec![1; 32],
            cipher_suites: vec![0x003c],
            extensions: vec![],
        });
        let mut enc = ch.encode();
        // Corrupt the session_id length byte to 33.
        enc[4 + 2 + 32] = 33;
        assert!(HandshakeMessage::decode(&enc, None).is_err());
    }
}
