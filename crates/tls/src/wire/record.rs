//! The TLS record layer (RFC 5246 §6.2).
//!
//! Records carry a content type, protocol version, and a length-prefixed
//! fragment of at most 2^14 bytes. [`RecordLayer`] handles framing in both
//! directions over plain byte buffers (the sans-io boundary) plus record
//! protection once keys are active. Each direction's cipher is keyed once
//! when its keys are installed; records are sealed straight into the
//! caller's output buffer and opened in place in the reassembly buffer.

use crate::error::TlsError;
use crate::suites::RecordProtection;
use ts_crypto::aead;
use ts_crypto::gcm::{Aes128Gcm, TAG_LEN};

/// Maximum plaintext fragment length (2^14).
pub const MAX_FRAGMENT_LEN: usize = 16_384;

/// The protocol version we speak (TLS 1.2 = 3.3).
pub const PROTOCOL_VERSION: (u8, u8) = (3, 3);

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// change_cipher_spec(20)
    ChangeCipherSpec,
    /// alert(21)
    Alert,
    /// handshake(22)
    Handshake,
    /// application_data(23)
    ApplicationData,
}

impl ContentType {
    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    /// From wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            20 => Some(ContentType::ChangeCipherSpec),
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

/// A plaintext record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub content_type: ContentType,
    /// Payload (decrypted if protection was active).
    pub payload: Vec<u8>,
}

/// Per-direction record protection keys.
///
/// Wipes itself on drop: connection teardown (and eviction of any
/// [`crate::keys::ConnectionKeys`] holding a pair of these) scrubs the
/// traffic keys rather than leaving them for a later memory compromise.
// ctlint: secret
pub struct DirectionKeys {
    /// Protection algorithm.
    pub protection: RecordProtection,
    /// MAC key (CBC-HMAC only; empty for AEAD).
    pub mac_key: Vec<u8>,
    /// Encryption key.
    pub enc_key: Vec<u8>,
    /// Fixed IV.
    pub fixed_iv: Vec<u8>,
}

impl ts_crypto::wipe::Wipe for DirectionKeys {
    fn wipe(&mut self) {
        ts_crypto::wipe::wipe_bytes(&mut self.mac_key);
        ts_crypto::wipe::wipe_bytes(&mut self.enc_key);
        ts_crypto::wipe::wipe_bytes(&mut self.fixed_iv);
    }
}

impl Drop for DirectionKeys {
    fn drop(&mut self) {
        use ts_crypto::wipe::Wipe;
        self.wipe();
    }
}

/// One direction's record protection, keyed once when the direction is
/// installed: every record after that pays only for the cipher itself.
// ctlint: secret
// Built once per direction and never moved on the record path, so the
// GCM variant's size costs nothing that boxing it would save.
#[allow(clippy::large_enum_variant)]
enum RecordCipher {
    Aes128Gcm {
        gcm: Aes128Gcm,
        fixed_iv: [u8; 12],
    },
    ChaCha20Poly1305 {
        key: [u8; 32],
        fixed_iv: [u8; 12],
    },
    CbcHmacSha256 {
        enc_key: [u8; 16],
        mac_key: [u8; 32],
        fixed_iv: [u8; 16],
    },
}

impl ts_crypto::wipe::Wipe for RecordCipher {
    fn wipe(&mut self) {
        use ts_crypto::wipe::wipe_bytes;
        match self {
            RecordCipher::Aes128Gcm { gcm, fixed_iv } => {
                gcm.wipe();
                wipe_bytes(fixed_iv);
            }
            RecordCipher::ChaCha20Poly1305 { key, fixed_iv } => {
                wipe_bytes(key);
                wipe_bytes(fixed_iv);
            }
            RecordCipher::CbcHmacSha256 {
                enc_key,
                mac_key,
                fixed_iv,
            } => {
                wipe_bytes(enc_key);
                wipe_bytes(mac_key);
                wipe_bytes(fixed_iv);
            }
        }
    }
}

impl Drop for RecordCipher {
    fn drop(&mut self) {
        use ts_crypto::wipe::Wipe;
        self.wipe();
    }
}

impl RecordCipher {
    fn new(keys: &DirectionKeys) -> Self {
        let iv12 = || -> [u8; 12] { keys.fixed_iv[..12].try_into().expect("iv len") };
        match keys.protection {
            RecordProtection::Aes128Gcm => RecordCipher::Aes128Gcm {
                gcm: Aes128Gcm::new(keys.enc_key[..16].try_into().expect("key len")),
                fixed_iv: iv12(),
            },
            RecordProtection::ChaCha20Poly1305 => RecordCipher::ChaCha20Poly1305 {
                key: keys.enc_key[..32].try_into().expect("key len"),
                fixed_iv: iv12(),
            },
            RecordProtection::CbcHmacSha256 => RecordCipher::CbcHmacSha256 {
                enc_key: keys.enc_key[..16].try_into().expect("key len"),
                mac_key: keys.mac_key[..32].try_into().expect("mac len"),
                fixed_iv: keys.fixed_iv[..16].try_into().expect("iv len"),
            },
        }
    }

    /// Protect one record, appending the body to `out`.
    fn seal_into(&self, seq: u64, content_type: ContentType, plaintext: &[u8], out: &mut Vec<u8>) {
        let aad = record_aad(seq, content_type);
        match self {
            RecordCipher::Aes128Gcm { gcm, fixed_iv } => {
                // Real TLS 1.2 GCM sends an explicit 8-byte nonce part; the
                // simulation derives the per-record nonce as fixed-IV XOR
                // sequence (the ChaCha20 construction), which is equivalent
                // for the measurement and keeps records deterministic.
                gcm.seal_into(&xor_nonce(fixed_iv, seq), &aad, plaintext, out);
            }
            RecordCipher::ChaCha20Poly1305 { key, fixed_iv } => {
                let nonce = xor_nonce(fixed_iv, seq);
                aead::chacha20poly1305_seal_into(key, &nonce, &aad, plaintext, out);
            }
            RecordCipher::CbcHmacSha256 {
                enc_key,
                mac_key,
                fixed_iv,
            } => {
                // Per-record IV derived from fixed IV + sequence (real TLS
                // sends an explicit random IV; a derived IV is equivalent
                // for the simulation and keeps records deterministic).
                let mut iv = *fixed_iv;
                for (i, b) in seq.to_be_bytes().iter().enumerate() {
                    iv[8 + i] ^= b;
                }
                out.extend_from_slice(&aead::cbc_hmac_seal(enc_key, mac_key, &iv, &aad, plaintext));
            }
        }
    }

    /// Verify and decrypt one record body in place, returning the
    /// plaintext as a prefix of `body`.
    fn open_in_place<'a>(
        &self,
        seq: u64,
        content_type: ContentType,
        body: &'a mut [u8],
    ) -> Result<&'a [u8], TlsError> {
        let aad = record_aad(seq, content_type);
        match self {
            RecordCipher::Aes128Gcm { gcm, fixed_iv } => {
                gcm.open_in_place(&xor_nonce(fixed_iv, seq), &aad, body)?;
            }
            RecordCipher::ChaCha20Poly1305 { key, fixed_iv } => {
                let nonce = xor_nonce(fixed_iv, seq);
                aead::chacha20poly1305_open_in_place(key, &nonce, &aad, body)?;
            }
            RecordCipher::CbcHmacSha256 {
                enc_key, mac_key, ..
            } => {
                // The plaintext is shorter than the body (IV, padding and
                // MAC are stripped), so it always fits back in place.
                let pt = aead::cbc_hmac_open(enc_key, mac_key, &aad, body)?;
                body[..pt.len()].copy_from_slice(&pt);
                return Ok(&body[..pt.len()]);
            }
        }
        // Both AEADs leave the plaintext in front of their 16-byte tag.
        Ok(&body[..body.len() - TAG_LEN])
    }
}

/// The AAD both directions use: seq(8) || type(1) || version(2). Real
/// TLS 1.2 AEAD also commits to the plaintext length here; this stack
/// leaves it out, so the AAD is computable before decryption, and binds
/// the length through the tag (GCM, ChaCha20-Poly1305) or the MAC over
/// the ciphertext (CBC-HMAC) instead.
fn record_aad(seq: u64, content_type: ContentType) -> [u8; 11] {
    let mut aad = [0u8; 11];
    aad[..8].copy_from_slice(&seq.to_be_bytes());
    aad[8] = content_type.to_byte();
    aad[9] = PROTOCOL_VERSION.0;
    aad[10] = PROTOCOL_VERSION.1;
    aad
}

fn xor_nonce(fixed_iv: &[u8; 12], seq: u64) -> [u8; 12] {
    let mut nonce = *fixed_iv;
    for (i, b) in seq.to_be_bytes().iter().enumerate() {
        nonce[4 + i] ^= b;
    }
    nonce
}

/// Decrypt a captured protected record body out-of-band — the attacker's
/// primitive: given recovered direction keys and the record's sequence
/// number within its direction, recover the plaintext (§6).
pub fn decrypt_captured(
    keys: &DirectionKeys,
    seq: u64,
    content_type: ContentType,
    body: &[u8],
) -> Result<Vec<u8>, TlsError> {
    let mut buf = body.to_vec();
    let n = RecordCipher::new(keys)
        .open_in_place(seq, content_type, &mut buf)?
        .len();
    buf.truncate(n);
    Ok(buf)
}

/// Length of a record header: type(1) || version(2) || length(2).
const HEADER_LEN: usize = 5;

/// Framing plus optional protection for one connection end.
pub struct RecordLayer {
    // Reassembly buffer of raw transport bytes — by definition what the
    // network already carried. Records are decrypted in place here.
    // ctlint: public
    incoming: Vec<u8>,
    /// Start of the first unconsumed byte of `incoming`.
    read_pos: usize,
    read_cipher: Option<RecordCipher>,
    write_cipher: Option<RecordCipher>,
    read_seq: u64,
    write_seq: u64,
}

impl Default for RecordLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordLayer {
    /// Fresh unprotected record layer.
    pub fn new() -> Self {
        RecordLayer {
            incoming: Vec::new(),
            read_pos: 0,
            read_cipher: None,
            write_cipher: None,
            read_seq: 0,
            write_seq: 0,
        }
    }

    /// Activate protection for the write direction (after sending CCS).
    /// The cipher is keyed here, once; `keys` is wiped when it drops.
    pub fn set_write_keys(&mut self, keys: DirectionKeys) {
        self.write_cipher = Some(RecordCipher::new(&keys));
        self.write_seq = 0;
    }

    /// Activate protection for the read direction (after receiving CCS).
    /// The cipher is keyed here, once; `keys` is wiped when it drops.
    pub fn set_read_keys(&mut self, keys: DirectionKeys) {
        self.read_cipher = Some(RecordCipher::new(&keys));
        self.read_seq = 0;
    }

    /// True once write protection is active.
    pub fn write_protected(&self) -> bool {
        self.write_cipher.is_some()
    }

    /// Frame (and protect, if active) a payload into `out`, fragmenting at
    /// [`MAX_FRAGMENT_LEN`]. Each body is sealed straight into `out`.
    pub fn write_record(&mut self, content_type: ContentType, payload: &[u8], out: &mut Vec<u8>) {
        let mut chunks = payload.chunks(MAX_FRAGMENT_LEN);
        let first = chunks.next().unwrap_or(&[]);
        for chunk in std::iter::once(first).chain(chunks) {
            let header = out.len();
            out.extend_from_slice(&[
                content_type.to_byte(),
                PROTOCOL_VERSION.0,
                PROTOCOL_VERSION.1,
                0,
                0,
            ]);
            match &self.write_cipher {
                Some(cipher) => {
                    cipher.seal_into(self.write_seq, content_type, chunk, out);
                    self.write_seq += 1;
                }
                None => out.extend_from_slice(chunk),
            }
            let body_len = (out.len() - header - HEADER_LEN) as u16;
            out[header + 3..header + HEADER_LEN].copy_from_slice(&body_len.to_be_bytes());
        }
    }

    /// Feed raw transport bytes into the reassembly buffer. Consumed
    /// records are dropped first, so the buffer holds at most one partial
    /// record ahead of `data`.
    pub fn feed(&mut self, data: &[u8]) {
        if self.read_pos > 0 {
            self.incoming.drain(..self.read_pos);
            self.read_pos = 0;
        }
        self.incoming.extend_from_slice(data);
    }

    /// Pop the next complete record, decrypting it in place if protection
    /// is active, and borrow its content type and payload. Returns
    /// `Ok(None)` when more bytes are needed.
    pub fn next_record_in_place(&mut self) -> Result<Option<(ContentType, &[u8])>, TlsError> {
        let pending = &self.incoming[self.read_pos..];
        if pending.len() < HEADER_LEN {
            return Ok(None);
        }
        let content_type =
            ContentType::from_byte(pending[0]).ok_or(TlsError::Decode("unknown content type"))?;
        if pending[1] != PROTOCOL_VERSION.0 || pending[2] != PROTOCOL_VERSION.1 {
            return Err(TlsError::Decode("unsupported record version"));
        }
        let len = u16::from_be_bytes([pending[3], pending[4]]) as usize;
        if len > MAX_FRAGMENT_LEN + 1024 {
            return Err(TlsError::Decode("record too long"));
        }
        if pending.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let start = self.read_pos + HEADER_LEN;
        self.read_pos = start + len;
        let body = &mut self.incoming[start..start + len];
        let payload = match &self.read_cipher {
            Some(cipher) => {
                let pt = cipher.open_in_place(self.read_seq, content_type, body)?;
                self.read_seq += 1;
                pt
            }
            None => body,
        };
        Ok(Some((content_type, payload)))
    }

    /// [`Self::next_record_in_place`] with the payload copied out.
    pub fn next_record(&mut self) -> Result<Option<Record>, TlsError> {
        Ok(self
            .next_record_in_place()?
            .map(|(content_type, payload)| Record {
                content_type,
                payload: payload.to_vec(),
            }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cbc_keys(tag: u8) -> DirectionKeys {
        DirectionKeys {
            protection: RecordProtection::CbcHmacSha256,
            mac_key: vec![tag; 32],
            enc_key: vec![tag; 16],
            fixed_iv: vec![tag; 16],
        }
    }

    fn chacha_keys(tag: u8) -> DirectionKeys {
        DirectionKeys {
            protection: RecordProtection::ChaCha20Poly1305,
            mac_key: vec![],
            enc_key: vec![tag; 32],
            fixed_iv: vec![tag; 12],
        }
    }

    fn gcm_keys(tag: u8) -> DirectionKeys {
        DirectionKeys {
            protection: RecordProtection::Aes128Gcm,
            mac_key: vec![],
            enc_key: vec![tag; 16],
            fixed_iv: vec![tag; 12],
        }
    }

    #[test]
    fn plaintext_roundtrip() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::Handshake, b"hello", &mut wire);
        b.feed(&wire);
        let rec = b.next_record().unwrap().unwrap();
        assert_eq!(rec.content_type, ContentType::Handshake);
        assert_eq!(rec.payload, b"hello");
        assert!(b.next_record().unwrap().is_none());
    }

    #[test]
    fn partial_feed_needs_more_bytes() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::Alert, &[1, 0], &mut wire);
        b.feed(&wire[..3]);
        assert!(b.next_record().unwrap().is_none());
        b.feed(&wire[3..]);
        assert!(b.next_record().unwrap().is_some());
    }

    #[test]
    fn protected_roundtrip_all_algorithms() {
        for (mk, desc) in [
            (cbc_keys as fn(u8) -> DirectionKeys, "cbc"),
            (gcm_keys as fn(u8) -> DirectionKeys, "gcm"),
            (chacha_keys as fn(u8) -> DirectionKeys, "chacha"),
        ] {
            let mut writer = RecordLayer::new();
            let mut reader = RecordLayer::new();
            writer.set_write_keys(mk(7));
            reader.set_read_keys(mk(7));
            let mut wire = Vec::new();
            writer.write_record(ContentType::ApplicationData, b"secret data", &mut wire);
            // Ciphertext must differ from plaintext.
            assert!(!wire.windows(11).any(|w| w == b"secret data"), "{desc}");
            reader.feed(&wire);
            let rec = reader.next_record().unwrap().unwrap();
            assert_eq!(rec.payload, b"secret data", "{desc}");
        }
    }

    #[test]
    fn sequence_numbers_prevent_replay() {
        let mut writer = RecordLayer::new();
        writer.set_write_keys(chacha_keys(1));
        let mut wire = Vec::new();
        writer.write_record(ContentType::ApplicationData, b"msg", &mut wire);
        // Feed the same record twice to the reader: the second decryption
        // uses seq=1 and must fail.
        let mut reader = RecordLayer::new();
        reader.set_read_keys(chacha_keys(1));
        reader.feed(&wire);
        reader.feed(&wire);
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().is_err(), "replayed record rejected");
    }

    #[test]
    fn wrong_keys_rejected() {
        let mut writer = RecordLayer::new();
        writer.set_write_keys(chacha_keys(1));
        let mut wire = Vec::new();
        writer.write_record(ContentType::ApplicationData, b"msg", &mut wire);
        let mut reader = RecordLayer::new();
        reader.set_read_keys(chacha_keys(2));
        reader.feed(&wire);
        assert!(reader.next_record().is_err());
    }

    #[test]
    fn fragmentation_at_max_len() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let big = vec![0x61u8; MAX_FRAGMENT_LEN * 2 + 100];
        let mut wire = Vec::new();
        a.write_record(ContentType::ApplicationData, &big, &mut wire);
        b.feed(&wire);
        let mut total = Vec::new();
        let mut count = 0;
        while let Some(rec) = b.next_record().unwrap() {
            total.extend_from_slice(&rec.payload);
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(total, big);
    }

    #[test]
    fn empty_payload_still_framed() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::ChangeCipherSpec, &[], &mut wire);
        assert_eq!(wire.len(), 5);
        b.feed(&wire);
        let rec = b.next_record().unwrap().unwrap();
        assert!(rec.payload.is_empty());
    }

    #[test]
    fn garbage_rejected() {
        let mut b = RecordLayer::new();
        b.feed(&[0xff, 3, 3, 0, 0]);
        assert!(matches!(b.next_record(), Err(TlsError::Decode(_))));
        let mut b = RecordLayer::new();
        b.feed(&[22, 9, 9, 0, 0]);
        assert!(matches!(b.next_record(), Err(TlsError::Decode(_))));
    }

    #[test]
    fn interleaved_records_keep_order() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::Handshake, b"one", &mut wire);
        a.write_record(ContentType::ApplicationData, b"two", &mut wire);
        b.feed(&wire);
        assert_eq!(b.next_record().unwrap().unwrap().payload, b"one");
        assert_eq!(b.next_record().unwrap().unwrap().payload, b"two");
    }
}
