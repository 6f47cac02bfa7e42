//! AES-128-CBC with PKCS#7 padding.
//!
//! This is the mode RFC 5077 §4 recommends for encrypting session-ticket
//! state under the STEK. Our ticket format (in `ts-tls`) is exactly the
//! RFC's recommended layout: `key_name(16) || IV(16) || AES-CBC(state) ||
//! HMAC-SHA256 tag`, built from this module plus [`crate::hmac`].

use crate::aes::{Aes128, BLOCK_LEN, KEY_LEN};
use crate::error::CryptoError;

/// Encrypt `plaintext` with AES-128-CBC under `key`/`iv`, applying PKCS#7
/// padding. Always produces at least one block.
pub fn encrypt(key: &[u8; KEY_LEN], iv: &[u8; BLOCK_LEN], plaintext: &[u8]) -> Vec<u8> {
    let cipher = Aes128::new(key);
    let pad = BLOCK_LEN - (plaintext.len() % BLOCK_LEN);
    let mut data = Vec::with_capacity(plaintext.len() + pad);
    data.extend_from_slice(plaintext);
    data.extend(std::iter::repeat(pad as u8).take(pad));
    let mut prev = *iv;
    for chunk in data.chunks_exact_mut(BLOCK_LEN) {
        let mut block = [0u8; BLOCK_LEN];
        block.copy_from_slice(chunk);
        for i in 0..BLOCK_LEN {
            block[i] ^= prev[i];
        }
        cipher.encrypt_block(&mut block);
        chunk.copy_from_slice(&block);
        prev = block;
    }
    data
}

/// Decrypt AES-128-CBC ciphertext and strip PKCS#7 padding.
pub fn decrypt(
    key: &[u8; KEY_LEN],
    iv: &[u8; BLOCK_LEN],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut out = ciphertext.to_vec();
    let len = decrypt_in_place(key, iv, &mut out)?;
    out.truncate(len);
    Ok(out)
}

/// [`decrypt`] in place: the plaintext overwrites the ciphertext and its
/// length (without padding) is returned, so no copy of the plaintext is
/// made outside `data`.
pub fn decrypt_in_place(
    key: &[u8; KEY_LEN],
    iv: &[u8; BLOCK_LEN],
    data: &mut [u8],
) -> Result<usize, CryptoError> {
    if data.is_empty() || !data.len().is_multiple_of(BLOCK_LEN) {
        return Err(CryptoError::BadLength("CBC ciphertext not block-aligned"));
    }
    let cipher = Aes128::new(key);
    let mut prev = *iv;
    for chunk in data.chunks_exact_mut(BLOCK_LEN) {
        let saved: [u8; BLOCK_LEN] = (*chunk).try_into().expect("one block");
        let mut block = saved;
        cipher.decrypt_block(&mut block);
        for i in 0..BLOCK_LEN {
            chunk[i] = block[i] ^ prev[i];
        }
        prev = saved;
    }
    let pad = *data.last().expect("non-empty") as usize;
    if pad == 0 || pad > BLOCK_LEN || pad > data.len() {
        return Err(CryptoError::BadPadding);
    }
    if data[data.len() - pad..].iter().any(|&b| b as usize != pad) {
        return Err(CryptoError::BadPadding);
    }
    Ok(data.len() - pad)
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

    // NIST SP 800-38A F.2.1 CBC-AES128.Encrypt (first two blocks; the NIST
    // vector has no padding, so we check our ciphertext prefix).
    #[test]
    fn sp800_38a_cbc_prefix() {
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let pt = unhex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        let ct = encrypt(&key, &iv, &pt);
        let want = unhex("7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2");
        assert_eq!(&ct[..32], &want[..]);
        // With full-block plaintext, PKCS#7 adds one extra block.
        assert_eq!(ct.len(), 48);
        assert_eq!(decrypt(&key, &iv, &ct).unwrap(), pt);
    }

    #[test]
    fn roundtrip_all_lengths() {
        let key = *b"ticket-enc-key!!";
        let iv = *b"initialization!!";
        for len in 0..70 {
            let pt: Vec<u8> = (0..len as u8).collect();
            let ct = encrypt(&key, &iv, &pt);
            assert_eq!(ct.len() % BLOCK_LEN, 0);
            assert!(ct.len() > pt.len(), "padding always expands");
            assert_eq!(decrypt(&key, &iv, &ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn wrong_key_fails_or_garbles() {
        let key = *b"ticket-enc-key!!";
        let bad = *b"ticket-enc-key!?";
        let iv = [0u8; 16];
        let pt = b"session state bytes".to_vec();
        let ct = encrypt(&key, &iv, &pt);
        match decrypt(&bad, &iv, &ct) {
            Err(CryptoError::BadPadding) => {}
            Ok(garbled) => assert_ne!(garbled, pt),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn tampered_ciphertext_rejected_or_garbled() {
        let key = *b"ticket-enc-key!!";
        let iv = [7u8; 16];
        let pt = vec![0x42u8; 40];
        let mut ct = encrypt(&key, &iv, &pt);
        ct[3] ^= 0xff;
        match decrypt(&key, &iv, &ct) {
            Err(CryptoError::BadPadding) => {}
            Ok(garbled) => assert_ne!(garbled, pt),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn misaligned_ciphertext_rejected() {
        let key = [0u8; 16];
        let iv = [0u8; 16];
        assert!(matches!(
            decrypt(&key, &iv, &[0u8; 15]),
            Err(CryptoError::BadLength(_))
        ));
        assert!(matches!(
            decrypt(&key, &iv, &[]),
            Err(CryptoError::BadLength(_))
        ));
    }

    #[test]
    fn iv_chains_blocks() {
        let key = [1u8; 16];
        let pt = vec![0u8; 32];
        let c1 = encrypt(&key, &[0u8; 16], &pt);
        let c2 = encrypt(&key, &[1u8; 16], &pt);
        assert_ne!(c1, c2, "different IVs must give different ciphertext");
        // Identical plaintext blocks must not produce identical ciphertext
        // blocks under CBC.
        assert_ne!(&c1[..16], &c1[16..32]);
    }
}
