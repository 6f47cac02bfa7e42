//! The AES-128 block cipher (FIPS 197).
//!
//! A plain, readable implementation: byte-oriented SubBytes/ShiftRows/
//! MixColumns with an expanded round-key schedule. RFC 5077 recommends
//! AES-CBC for session-ticket encryption, which is why the study's ticket
//! machinery (and our CBC mode in [`crate::cbc`]) sits on top of this.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, derived from `SBOX` at first use.
fn inv_sbox() -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply in GF(2^8) with the AES polynomial x^8 + x^4 + x^3 + x + 1.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// An AES-128 cipher with a pre-expanded key schedule.
///
/// The schedule is pure key material (the first round key *is* the key),
/// so the cipher wipes itself on drop.
// ctlint: secret
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl crate::wipe::Wipe for Aes128 {
    fn wipe(&mut self) {
        for rk in self.round_keys.iter_mut() {
            crate::wipe::wipe_bytes(rk);
        }
    }
}

impl Drop for Aes128 {
    fn drop(&mut self) {
        use crate::wipe::Wipe;
        self.wipe();
    }
}

impl Aes128 {
    /// Expand `key` into the 11 round keys.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// The expanded schedule repacked as 44 little-endian `u32` words
    /// (4 per round key, in memory order). This is the form the AES-NI
    /// kernels consume: an `_mm_loadu_si128` over four consecutive words
    /// reproduces the round key's byte layout exactly. Word-typed so the
    /// hardware path never handles the schedule as bytes.
    pub(crate) fn schedule_words(&self) -> [u32; 44] {
        let mut w = [0u32; 44];
        for r in 0..11 {
            for c in 0..4 {
                w[4 * r + c] = u32::from_le_bytes([
                    self.round_keys[r][4 * c],
                    self.round_keys[r][4 * c + 1],
                    self.round_keys[r][4 * c + 2],
                    self.round_keys[r][4 * c + 3],
                ]);
            }
        }
        w
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            let rk = self.schedule_words();
            let mut w = block_to_words(block);
            ni::encrypt_block(&rk, &mut w);
            words_to_block(&w, block);
            return;
        }
        self.encrypt_block_scalar(block);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            let rk = self.schedule_words();
            let mut w = block_to_words(block);
            ni::decrypt_block(&rk, &mut w);
            words_to_block(&w, block);
            return;
        }
        self.decrypt_block_scalar(block);
    }

    /// The portable byte-oriented encryption (FIPS 197 pseudocode).
    pub(crate) fn encrypt_block_scalar(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// The portable byte-oriented decryption.
    pub(crate) fn decrypt_block_scalar(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[10]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for r in (1..10).rev() {
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_keys[0]);
    }
}

/// Repack a block as 4 little-endian words (the `__m128i` lane order).
pub(crate) fn block_to_words(block: &[u8; BLOCK_LEN]) -> [u32; 4] {
    let mut w = [0u32; 4];
    for i in 0..4 {
        w[i] = u32::from_le_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    w
}

/// Inverse of [`block_to_words`].
pub(crate) fn words_to_block(w: &[u32; 4], block: &mut [u8; BLOCK_LEN]) {
    for i in 0..4 {
        block[4 * i..4 * i + 4].copy_from_slice(&w[i].to_le_bytes());
    }
}

// The state is stored column-major as in FIPS 197: byte s[r][c] lives at
// index r + 4*c.

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

// The cipher state is key-dependent from round 1 on. The S-box lookups
// below are data-dependent table reads — the classic AES cache side
// channel — kept deliberately (a bitsliced AES is out of scope for a
// simulation) and declared in ctlint.toml.
// ctlint: secret
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// ctlint: secret
fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for b in state.iter_mut() {
        *b = inv[*b as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
        for c in 0..4 {
            state[r + 4 * c] = row[(c + r) % 4];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
        for c in 0..4 {
            state[r + 4 * c] = row[(c + 4 - r) % 4];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[4 * c + 1] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[4 * c + 2] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[4 * c + 3] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
}

/// AES-NI hardware block path, used when CPUID reports support.
///
/// Every kernel here takes the key schedule as the `[u32; 44]` word form
/// from [`Aes128::schedule_words`] and the state as `u32`/`u64` words —
/// never as bytes — so the hardware boundary carries no byte-typed secret
/// channels. Output is bit-identical to the scalar path (the FIPS vectors
/// exercise whichever path the host selects, and
/// `hardware_and_scalar_block_paths_agree` pins them against each other).
#[cfg(target_arch = "x86_64")]
pub(crate) mod ni {
    // The sanctioned unsafe exception (see lib.rs): scoped, behind runtime
    // feature detection, with safety comments.
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    /// Does this CPU have AES-NI (plus the SSE2 baseline the loads/stores
    /// use), and is the build not forced portable? Detected once.
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            !crate::dispatch::force_portable()
                && std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("sse2")
        })
    }

    /// Load the 11 round keys out of the word-form schedule.
    #[target_feature(enable = "sse2")]
    unsafe fn load_schedule(rk: &[u32; 44]) -> [__m128i; 11] {
        let mut keys = [_mm_setzero_si128(); 11];
        // SAFETY: 4 * r + 4 <= 44 for r in 0..11, so every 16-byte load
        // stays inside the borrowed array; the sse2 `target_feature` is
        // vouched for by the dispatching caller's CPUID check via
        // `available()`.
        unsafe {
            for (r, k) in keys.iter_mut().enumerate() {
                *k = _mm_loadu_si128(rk.as_ptr().add(4 * r) as *const __m128i);
            }
        }
        keys
    }

    /// Encrypt a single block held as 4 LE words.
    pub fn encrypt_block(rk: &[u32; 44], block: &mut [u32; 4]) {
        // SAFETY: `available()` gates every call site on CPUID.
        unsafe { encrypt_block_impl(rk, block) }
    }

    #[target_feature(enable = "aes", enable = "sse2")]
    unsafe fn encrypt_block_impl(rk: &[u32; 44], block: &mut [u32; 4]) {
        // SAFETY: in-bounds unaligned loads/stores over the borrowed
        // arrays; `target_feature` is vouched for by the caller's CPUID
        // check.
        unsafe {
            let keys = load_schedule(rk);
            let mut b = _mm_loadu_si128(block.as_ptr() as *const __m128i);
            b = _mm_xor_si128(b, keys[0]);
            for k in &keys[1..10] {
                b = _mm_aesenc_si128(b, *k);
            }
            b = _mm_aesenclast_si128(b, keys[10]);
            _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, b);
        }
    }

    /// Decrypt a single block held as 4 LE words. The decryption round
    /// keys (Equivalent Inverse Cipher form) are derived on the fly with
    /// `aesimc` — one instruction per round, cheap next to the rounds.
    pub fn decrypt_block(rk: &[u32; 44], block: &mut [u32; 4]) {
        // SAFETY: `available()` gates every call site on CPUID.
        unsafe { decrypt_block_impl(rk, block) }
    }

    #[target_feature(enable = "aes", enable = "sse2")]
    unsafe fn decrypt_block_impl(rk: &[u32; 44], block: &mut [u32; 4]) {
        // SAFETY: in-bounds unaligned loads/stores over the borrowed
        // arrays; `target_feature` is vouched for by the caller's CPUID
        // check.
        unsafe {
            let keys = load_schedule(rk);
            let mut b = _mm_loadu_si128(block.as_ptr() as *const __m128i);
            b = _mm_xor_si128(b, keys[10]);
            for r in (1..10).rev() {
                b = _mm_aesdec_si128(b, _mm_aesimc_si128(keys[r]));
            }
            b = _mm_aesdeclast_si128(b, keys[0]);
            _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, b);
        }
    }

    /// XOR CTR keystream into `data` in place: 16-byte block `i` is
    /// XORed with `E(K, j0 ‖ be32(first_ctr + i))`, and a trailing partial
    /// block with the matching prefix of its keystream block. The first
    /// three nonce words come from `j0`; the big-endian counter word is
    /// rebuilt per block (GCM `inc32` semantics, wrapping at 2^32). Blocks
    /// run eight abreast to keep the `aesenc` pipeline full, and no
    /// keystream is ever written to memory.
    pub fn ctr_xor(rk: &[u32; 44], j0: &[u32; 3], first_ctr: u32, data: &mut [u8]) {
        // SAFETY: `available()` gates every call site on CPUID.
        unsafe { ctr_xor_impl(rk, j0, first_ctr, data) }
    }

    /// The counter block `j0 ‖ be32(ctr)`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn counter_block(j0: &[u32; 3], ctr: u32) -> __m128i {
        _mm_set_epi32(
            ctr.swap_bytes() as i32,
            j0[2] as i32,
            j0[1] as i32,
            j0[0] as i32,
        )
    }

    #[target_feature(enable = "aes", enable = "sse2")]
    unsafe fn ctr_xor_impl(rk: &[u32; 44], j0: &[u32; 3], first_ctr: u32, data: &mut [u8]) {
        // SAFETY: every load/store is a 16-byte access at offset `16 * j`
        // of a 128-byte chunk with `j < 8`, or of a 16-byte stack block;
        // `target_feature` is vouched for by the caller's CPUID check via
        // `available()`.
        unsafe {
            let keys = load_schedule(rk);
            let mut ctr = first_ctr;
            let mut wide = data.chunks_exact_mut(8 * 16);
            for chunk in &mut wide {
                let mut b = [_mm_setzero_si128(); 8];
                for (j, x) in b.iter_mut().enumerate() {
                    *x = _mm_xor_si128(counter_block(j0, ctr.wrapping_add(j as u32)), keys[0]);
                }
                for k in &keys[1..10] {
                    for x in b.iter_mut() {
                        *x = _mm_aesenc_si128(*x, *k);
                    }
                }
                let p = chunk.as_mut_ptr() as *mut __m128i;
                for (j, x) in b.iter().enumerate() {
                    let ks = _mm_aesenclast_si128(*x, keys[10]);
                    _mm_storeu_si128(p.add(j), _mm_xor_si128(_mm_loadu_si128(p.add(j)), ks));
                }
                ctr = ctr.wrapping_add(8);
            }
            // The last few blocks (the final one possibly partial) one at
            // a time, through a stack block.
            for rest in wide.into_remainder().chunks_mut(16) {
                let mut b = _mm_xor_si128(counter_block(j0, ctr), keys[0]);
                for k in &keys[1..10] {
                    b = _mm_aesenc_si128(b, *k);
                }
                let ks = _mm_aesenclast_si128(b, keys[10]);
                let mut block = [0u8; 16];
                block[..rest.len()].copy_from_slice(rest);
                let p = block.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), ks));
                rest.copy_from_slice(&block[..rest.len()]);
                ctr = ctr.wrapping_add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    // FIPS 197 Appendix C.1.
    #[test]
    fn fips197_appendix_c1() {
        let key = unhex16("000102030405060708090a0b0c0d0e0f");
        let cipher = Aes128::new(&key);
        let mut block = unhex16("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(block, unhex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block, unhex16("00112233445566778899aabbccddeeff"));
    }

    // FIPS 197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = unhex16("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        let mut block = unhex16("3243f6a8885a308d313198a2e0370734");
        cipher.encrypt_block(&mut block);
        assert_eq!(block, unhex16("3925841d02dc09fbdc118597196a0b32"));
    }

    // NIST SP 800-38A ECB-AES128 block 1.
    #[test]
    fn sp800_38a_ecb_block1() {
        let key = unhex16("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        let mut block = unhex16("6bc1bee22e409f96e93d7e117393172a");
        cipher.encrypt_block(&mut block);
        assert_eq!(block, unhex16("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let cipher = Aes128::new(b"0123456789abcdef");
        for i in 0..64u8 {
            let mut block = [i; 16];
            let orig = block;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, orig, "encryption must change the block");
            cipher.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn different_keys_differ() {
        let c1 = Aes128::new(b"0123456789abcdef");
        let c2 = Aes128::new(b"0123456789abcdeg");
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn hardware_and_scalar_block_paths_agree() {
        // `encrypt_block`/`decrypt_block` dispatch to AES-NI when the host
        // has it; pin them against the always-scalar path bit-for-bit.
        let cipher = Aes128::new(b"agreement-key-00");
        for i in 0..64u8 {
            let mut via_dispatch = [i.wrapping_mul(37); 16];
            let mut via_scalar = via_dispatch;
            cipher.encrypt_block(&mut via_dispatch);
            cipher.encrypt_block_scalar(&mut via_scalar);
            assert_eq!(via_dispatch, via_scalar, "encrypt block {i}");
            cipher.decrypt_block(&mut via_dispatch);
            cipher.decrypt_block_scalar(&mut via_scalar);
            assert_eq!(via_dispatch, via_scalar, "decrypt block {i}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ctr_xor_matches_single_block_encryptions() {
        if !ni::available() {
            return;
        }
        let cipher = Aes128::new(b"ctr-keystream-k!");
        let rk = cipher.schedule_words();
        let j0 = [
            0x01020304u32.to_be(),
            0x05060708u32.to_be(),
            0x090a0b0cu32.to_be(),
        ];
        // Lengths around the 8-block stride and the partial-block tail,
        // starting just below the 32-bit counter wrap.
        for len in [0usize, 1, 15, 16, 17, 48, 127, 128, 129, 200, 272] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let first = u32::MAX - 3;
            let mut got = data.clone();
            ni::ctr_xor(&rk, &j0, first, &mut got);
            for (b, chunk) in data.chunks(16).enumerate() {
                let mut block = [0u8; 16];
                block[..4].copy_from_slice(&j0[0].to_le_bytes());
                block[4..8].copy_from_slice(&j0[1].to_le_bytes());
                block[8..12].copy_from_slice(&j0[2].to_le_bytes());
                block[12..].copy_from_slice(&first.wrapping_add(b as u32).to_be_bytes());
                cipher.encrypt_block_scalar(&mut block);
                let want: Vec<u8> = chunk.iter().zip(&block).map(|(d, k)| d ^ k).collect();
                assert_eq!(
                    &got[16 * b..16 * b + chunk.len()],
                    &want[..],
                    "block {b} of {len}"
                );
            }
        }
    }

    #[test]
    fn gmul_basics() {
        // x * x = x^2; 0x53 * 0xCA = 0x01 is the classic inverse pair.
        assert_eq!(gmul(0x53, 0xca), 0x01);
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS 197 §4.2.1 example
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }
}
