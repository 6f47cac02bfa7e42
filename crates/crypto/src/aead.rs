//! ChaCha20-Poly1305 (RFC 7539 §2.8) and the CBC+HMAC encrypt-then-MAC
//! construction used for session tickets and CBC cipher suites; AES-128-GCM
//! lives in [`crate::gcm`]. The record layer in `ts-tls` uses the in-place
//! ChaCha20-Poly1305 entry points, the per-key [`crate::gcm::Aes128Gcm`]
//! context and the CBC+HMAC pair, so every suite picks up the SIMD fast
//! paths (and the forced-portable fallback) uniformly.

use crate::cbc;
use crate::chacha20::{self, KEY_LEN as CHACHA_KEY_LEN, NONCE_LEN};
use crate::error::CryptoError;
use crate::hmac::{hmac_sha256, verify_hmac_sha256};
use crate::poly1305::{Poly1305, TAG_LEN};

/// Build the Poly1305 one-time key from the ChaCha20 key/nonce (RFC 7539 §2.6).
fn poly_key(key: &[u8; CHACHA_KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
    let block = chacha20::block(key, 0, nonce);
    let mut pk = [0u8; 32];
    pk.copy_from_slice(&block[..32]);
    pk
}

/// The Poly1305 tag over `aad ‖ pad ‖ ct ‖ pad ‖ len(aad) ‖ len(ct)`,
/// absorbed piecewise so neither input is copied.
fn chacha_tag(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    const ZEROS: [u8; 16] = [0; 16];
    let mut mac = Poly1305::new(&poly_key(key, nonce));
    mac.update(aad);
    mac.update(&ZEROS[..(16 - aad.len() % 16) % 16]);
    mac.update(ciphertext);
    mac.update(&ZEROS[..(16 - ciphertext.len() % 16) % 16]);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finish()
}

/// ChaCha20-Poly1305 seal, appending `ciphertext ‖ tag` to `out`.
pub fn chacha20poly1305_seal_into(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
    out: &mut Vec<u8>,
) {
    out.reserve(plaintext.len() + TAG_LEN);
    let start = out.len();
    out.extend_from_slice(plaintext);
    chacha20::xor_stream(key, 1, nonce, &mut out[start..]);
    let tag = chacha_tag(key, nonce, aad, &out[start..]);
    out.extend_from_slice(&tag);
}

/// ChaCha20-Poly1305 open of `ciphertext ‖ tag` held in `buf`. The tag is
/// verified before anything is decrypted; on success the plaintext
/// replaces the ciphertext in `buf[..n]` and `n` is returned.
pub fn chacha20poly1305_open_in_place(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut [u8],
) -> Result<usize, CryptoError> {
    let Some(n) = buf.len().checked_sub(TAG_LEN) else {
        return Err(CryptoError::BadLength("AEAD input shorter than tag"));
    };
    let (ct, tag) = buf.split_at_mut(n);
    if !crate::ct::ct_eq(&chacha_tag(key, nonce, aad, ct), tag) {
        return Err(CryptoError::BadMac);
    }
    chacha20::xor_stream(key, 1, nonce, ct);
    Ok(n)
}

/// ChaCha20-Poly1305 seal: returns ciphertext || 16-byte tag.
pub fn chacha20poly1305_seal(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    chacha20poly1305_seal_into(key, nonce, aad, plaintext, &mut out);
    out
}

/// ChaCha20-Poly1305 open: verifies the tag, returns the plaintext.
pub fn chacha20poly1305_open(
    key: &[u8; CHACHA_KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut buf = sealed.to_vec();
    let n = chacha20poly1305_open_in_place(key, nonce, aad, &mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

/// Encrypt-then-MAC with AES-128-CBC and HMAC-SHA256.
///
/// Output layout: `IV(16) || CBC-ciphertext || HMAC-SHA256(aad || IV || ct)`.
/// This is the construction the TLS record layer and the RFC 5077 ticket
/// format in `ts-tls` both build on.
pub fn cbc_hmac_seal(
    enc_key: &[u8; 16],
    mac_key: &[u8; 32],
    iv: &[u8; 16],
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let ct = cbc::encrypt(enc_key, iv, plaintext);
    let mut out = Vec::with_capacity(16 + ct.len() + 32);
    out.extend_from_slice(iv);
    out.extend_from_slice(&ct);
    let mut mac_input = Vec::with_capacity(aad.len() + out.len());
    mac_input.extend_from_slice(aad);
    mac_input.extend_from_slice(&out);
    let tag = hmac_sha256(mac_key, &mac_input);
    out.extend_from_slice(&tag);
    out
}

/// Verify and decrypt a [`cbc_hmac_seal`] message.
pub fn cbc_hmac_open(
    enc_key: &[u8; 16],
    mac_key: &[u8; 32],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut out = sealed.to_vec();
    let plaintext = cbc_hmac_open_in_place(enc_key, mac_key, aad, &mut out)?;
    out.truncate(plaintext.end);
    out.drain(..plaintext.start);
    Ok(out)
}

/// [`cbc_hmac_open`] in place: verify the tag, decrypt inside `sealed`
/// and return the range of `sealed` that now holds the plaintext (after
/// the IV, before the padding and tag). No copy of the plaintext is made
/// outside `sealed`.
pub fn cbc_hmac_open_in_place(
    enc_key: &[u8; 16],
    mac_key: &[u8; 32],
    aad: &[u8],
    sealed: &mut [u8],
) -> Result<std::ops::Range<usize>, CryptoError> {
    if sealed.len() < 16 + 16 + 32 {
        return Err(CryptoError::BadLength("CBC+HMAC message too short"));
    }
    let body_end = sealed.len() - 32;
    let (body, tag) = sealed.split_at(body_end);
    let mut mac_input = Vec::with_capacity(aad.len() + body.len());
    mac_input.extend_from_slice(aad);
    mac_input.extend_from_slice(body);
    if !verify_hmac_sha256(mac_key, &mac_input, tag) {
        return Err(CryptoError::BadMac);
    }
    let iv: [u8; 16] = body[..16].try_into().expect("16 bytes");
    let len = cbc::decrypt_in_place(enc_key, &iv, &mut sealed[16..body_end])?;
    Ok(16..16 + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 7539 §2.8.2 AEAD test vector.
    #[test]
    fn rfc7539_aead_vector() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let pt = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let sealed = chacha20poly1305_seal(&key, &nonce, &aad, pt);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
        let opened = chacha20poly1305_open(&key, &nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, pt);
    }

    #[test]
    fn aead_rejects_tampering() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let sealed = chacha20poly1305_seal(&key, &nonce, b"aad", b"secret");
        // Flip a ciphertext bit.
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(
            chacha20poly1305_open(&key, &nonce, b"aad", &bad),
            Err(CryptoError::BadMac)
        );
        // Flip a tag bit.
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(chacha20poly1305_open(&key, &nonce, b"aad", &bad).is_err());
        // Wrong AAD.
        assert!(chacha20poly1305_open(&key, &nonce, b"aaX", &sealed).is_err());
        // Wrong nonce.
        assert!(chacha20poly1305_open(&key, &[3u8; 12], b"aad", &sealed).is_err());
        // Truncated below tag size.
        assert!(chacha20poly1305_open(&key, &nonce, b"aad", &sealed[..10]).is_err());
    }

    #[test]
    fn aead_empty_plaintext_and_aad() {
        let key = [9u8; 32];
        let nonce = [8u8; 12];
        let sealed = chacha20poly1305_seal(&key, &nonce, b"", b"");
        assert_eq!(sealed.len(), 16);
        assert_eq!(
            chacha20poly1305_open(&key, &nonce, b"", &sealed).unwrap(),
            b""
        );
    }

    #[test]
    fn cbc_hmac_roundtrip() {
        let ek = [4u8; 16];
        let mk = [5u8; 32];
        let iv = [6u8; 16];
        let sealed = cbc_hmac_seal(&ek, &mk, &iv, b"header", b"ticket state");
        let opened = cbc_hmac_open(&ek, &mk, b"header", &sealed).unwrap();
        assert_eq!(opened, b"ticket state");
    }

    #[test]
    fn cbc_hmac_rejects_wrong_keys_and_aad() {
        let ek = [4u8; 16];
        let mk = [5u8; 32];
        let iv = [6u8; 16];
        let sealed = cbc_hmac_seal(&ek, &mk, &iv, b"hdr", b"payload data here");
        assert_eq!(
            cbc_hmac_open(&ek, &[0u8; 32], b"hdr", &sealed),
            Err(CryptoError::BadMac),
            "wrong MAC key"
        );
        assert_eq!(
            cbc_hmac_open(&ek, &mk, b"HDR", &sealed),
            Err(CryptoError::BadMac),
            "wrong aad"
        );
        let mut bad = sealed.clone();
        bad[20] ^= 0xff;
        assert_eq!(
            cbc_hmac_open(&ek, &mk, b"hdr", &bad),
            Err(CryptoError::BadMac)
        );
        assert!(
            cbc_hmac_open(&ek, &mk, b"hdr", &sealed[..40]).is_err(),
            "too short"
        );
        // Note: the *encryption* key is not authenticated by the MAC — a
        // wrong enc key with a correct MAC key yields garbage or padding
        // failure, mirroring real CBC+HMAC deployments.
        let out = cbc_hmac_open(&[9u8; 16], &mk, b"hdr", &sealed);
        match out {
            Err(CryptoError::BadPadding) => {}
            Ok(garbled) => assert_ne!(garbled, b"payload data here"),
            Err(e) => panic!("unexpected: {e}"),
        }
    }
}
