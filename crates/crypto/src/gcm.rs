//! AES-128-GCM (NIST SP 800-38D).
//!
//! The record layer's fast AEAD: CTR-mode AES for confidentiality and
//! GHASH — polynomial evaluation over GF(2^128) — for integrity.
//!
//! [`Aes128Gcm`] is the per-key context. It expands the AES key schedule
//! and the hash-key powers H, H², H³, H⁴ once; after that a seal or open
//! costs only the cipher itself — no key schedule, no heap buffers. The
//! record layer in `ts-tls` builds one per direction when the direction's
//! keys are installed. The one-shot [`seal`] / [`open`] wrap a throwaway
//! context, so there is one code path.
//!
//! GHASH folds four blocks per reduction. By Horner's rule, absorbing
//! blocks X₁…X₄ into the accumulator Y is
//! `Y ← (Y ⊕ X₁)·H⁴ ⊕ X₂·H³ ⊕ X₃·H² ⊕ X₄·H`: the four unreduced
//! carry-less products are XORed together and reduced once, since the
//! reduction is linear. A trailing group of n < 4 blocks uses H^n … H¹
//! the same way. The powers are stored multiplied by x⁻¹, which absorbs
//! the one-bit shift GCM's reflected bit order would otherwise cost every
//! product.
//!
//! Two implementations sit behind one dispatch, chosen when the context
//! is built:
//!
//! * **Hardware**: an AES-NI CTR kernel running eight blocks abreast that
//!   XORs keystream into the caller's buffer in place, and a CLMUL
//!   (`pclmulqdq`) GHASH kernel that keeps the accumulator in a vector
//!   register across the whole message and reduces with two further
//!   carry-less multiplies.
//! * **Portable**: the byte-oriented AES from [`crate::aes`] and a
//!   constant-time scalar GHASH using masked integer multiplication (the
//!   classic `bmul64` trick: four masked multiplies emulate one carry-less
//!   multiply with no data-dependent table reads), aggregated the same
//!   way and reduced by the scalar `fold`.
//!
//! Both paths are pinned to the McGrew/Viega AES-GCM test vectors, to the
//! bit-by-bit reference multiplication, and to each other
//! (`clmul_and_scalar_ghash_agree`, and the record-sized agreement
//! proptests in `tests/proptests.rs`).
//!
//! Key material crosses the hardware boundary only as words — the round
//! keys as `u32`, the hash-key powers and accumulator as `u64` — never as
//! byte slices; the byte buffers the kernels touch are the message.

use crate::aes::{Aes128, BLOCK_LEN};
use crate::error::CryptoError;

/// GCM nonce length (the 12-byte fast path; other lengths unsupported).
pub const NONCE_LEN: usize = 12;
/// GCM authentication tag length.
pub const TAG_LEN: usize = 16;
/// AES-128 key length.
pub const KEY_LEN: usize = 16;

// --------------------------------------------------------------------------
// GF(2^128) multiplication
// --------------------------------------------------------------------------

/// A GF(2^128) element as big-endian 64-bit halves: `[0]` holds the first
/// eight bytes of the block, `[1]` the last eight.
type Elem = [u64; 2];

/// H, H², H³, H⁴, each stored twisted (see [`twist`]): block `i` of a
/// group of `n` is multiplied by H^(n−i), so `HPowers[k]` is H^(k+1).
type HPowers = [Elem; 4];

/// Bit-reverse a 64-bit word (swap within bytes, then swap bytes).
fn rev64(mut x: u64) -> u64 {
    x = ((x & 0x5555_5555_5555_5555) << 1) | ((x >> 1) & 0x5555_5555_5555_5555);
    x = ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333);
    x = ((x & 0x0f0f_0f0f_0f0f_0f0f) << 4) | ((x >> 4) & 0x0f0f_0f0f_0f0f_0f0f);
    x.swap_bytes()
}

/// Carry-less multiply, low 64 bits, without a carry-less multiplier:
/// split each operand into four strided bit groups so every partial
/// integer product keeps its carries out of the lanes we keep. Constant
/// time — no branches, no table reads.
fn bmul64(x: u64, y: u64) -> u64 {
    const M0: u64 = 0x1111_1111_1111_1111;
    const M1: u64 = 0x2222_2222_2222_2222;
    const M2: u64 = 0x4444_4444_4444_4444;
    const M3: u64 = 0x8888_8888_8888_8888;
    let (x0, x1, x2, x3) = (x & M0, x & M1, x & M2, x & M3);
    let (y0, y1, y2, y3) = (y & M0, y & M1, y & M2, y & M3);
    let z0 = x0.wrapping_mul(y0) ^ x1.wrapping_mul(y3) ^ x2.wrapping_mul(y2) ^ x3.wrapping_mul(y1);
    let z1 = x0.wrapping_mul(y1) ^ x1.wrapping_mul(y0) ^ x2.wrapping_mul(y3) ^ x3.wrapping_mul(y2);
    let z2 = x0.wrapping_mul(y2) ^ x1.wrapping_mul(y1) ^ x2.wrapping_mul(y0) ^ x3.wrapping_mul(y3);
    let z3 = x0.wrapping_mul(y3) ^ x1.wrapping_mul(y2) ^ x2.wrapping_mul(y1) ^ x3.wrapping_mul(y0);
    (z0 & M0) | (z1 & M1) | (z2 & M2) | (z3 & M3)
}

/// The portable Karatsuba: the 255-bit carry-less product `x ⊗ h` as four
/// limbs, low to high, from nine masked multiplies (three per 64-bit
/// part-product, the high halves recovered through bit reversal).
fn karatsuba_scalar(x: Elem, h: Elem) -> [u64; 4] {
    let [x1, x0] = x;
    let [h1, h0] = h;
    let (x0r, x1r, h0r, h1r) = (rev64(x0), rev64(x1), rev64(h0), rev64(h1));
    let z0 = bmul64(x0, h0);
    let z1 = bmul64(x1, h1);
    let mut z2 = bmul64(x0 ^ x1, h0 ^ h1);
    let z0h = bmul64(x0r, h0r);
    let z1h = bmul64(x1r, h1r);
    let mut z2h = bmul64(x0r ^ x1r, h0r ^ h1r);
    z2 ^= z0 ^ z1;
    z2h ^= z0h ^ z1h;
    let z0h = rev64(z0h) >> 1;
    let z1h = rev64(z1h) >> 1;
    let z2h = rev64(z2h) >> 1;
    [z0, z0h ^ z2, z1 ^ z2h, z1h]
}

/// Reduce a 255-bit carry-less product, given as four 64-bit limbs low to
/// high, modulo x^128 + x^7 + x^2 + x + 1: fold the low 128 bits (the
/// high-degree terms, in GCM's reflected bit order) into the high 128 in
/// two 64-bit steps. Linear in `v`, which is what lets a group of products
/// share one reduction.
///
/// In the reflected order a plain carry-less product comes out one bit
/// short (it is the field product times x), so one operand of every
/// multiplication is stored pre-multiplied by x⁻¹ ([`twist`]) instead of
/// shifting each product.
fn fold(v: [u64; 4]) -> Elem {
    let [v0, mut v1, mut v2, mut v3] = v;
    v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
    v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
    v3 ^= v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
    v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
    [v3, v2]
}

/// `h · x⁻¹`, the form hash-key powers are stored in. In the reflected
/// order multiplying by x⁻¹ is a left shift; the x⁰ coefficient shifted
/// out comes back as x⁻¹ = x^127 + x^6 + x + 1. Constant time.
fn twist(h: Elem) -> Elem {
    let carry = (h[0] >> 63).wrapping_neg();
    [
        (h[0] << 1 | h[1] >> 63) ^ (carry & 0xc200_0000_0000_0000),
        (h[1] << 1) ^ (carry & 1),
    ]
}

/// Field multiplication on the portable multiplier: `x · h` for a twisted
/// `h_twisted = twist(h)`. With a twisted `x` the product is twisted too,
/// which is how the hash-key powers are built.
fn gf_mul(x: Elem, h_twisted: Elem) -> Elem {
    fold(karatsuba_scalar(x, h_twisted))
}

fn load_elem(block: &[u8]) -> Elem {
    [
        u64::from_be_bytes(block[..8].try_into().expect("8 bytes")),
        u64::from_be_bytes(block[8..16].try_into().expect("8 bytes")),
    ]
}

/// Portable GHASH: absorb `data` into `y`, zero-padding a trailing
/// partial block, four blocks per reduction.
fn ghash_scalar(h: &HPowers, y: &mut Elem, data: &[u8]) {
    for group in data.chunks(4 * BLOCK_LEN) {
        let mut padded = [0u8; 4 * BLOCK_LEN];
        padded[..group.len()].copy_from_slice(group);
        let n = group.len().div_ceil(BLOCK_LEN);
        let mut acc = [0u64; 4];
        for (i, block) in padded.chunks_exact(BLOCK_LEN).take(n).enumerate() {
            let mut x = load_elem(block);
            if i == 0 {
                x = [x[0] ^ y[0], x[1] ^ y[1]];
            }
            let p = karatsuba_scalar(x, h[n - 1 - i]);
            for (a, b) in acc.iter_mut().zip(p) {
                *a ^= b;
            }
        }
        *y = fold(acc);
    }
}

/// Is the CLMUL GHASH kernel usable on this host (and not forced portable)?
fn clmul_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            !crate::dispatch::force_portable()
                && std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse2")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The CLMUL GHASH kernel. Same grouping and same result as
/// `ghash_scalar` (the agreement tests pin it); the products and the
/// reduction run in vector registers.
#[cfg(target_arch = "x86_64")]
mod ni {
    // The sanctioned unsafe exception (see lib.rs): scoped, behind runtime
    // feature detection, with safety comments.
    #![allow(unsafe_code)]

    use super::{Elem, HPowers};
    use core::arch::x86_64::*;

    /// Absorb `data` into the accumulator `y` (zero-padding a trailing
    /// partial block), four blocks per reduction.
    pub fn ghash(h: &HPowers, y: &mut Elem, data: &[u8]) {
        // SAFETY: `clmul_available()` gates every call site on CPUID.
        unsafe { ghash_impl(h, y, data) }
    }

    /// Field multiplication `a · b` for a twisted `b` (precomputing the
    /// hash-key powers).
    pub fn gf_mul(a: &Elem, b: &Elem) -> Elem {
        // SAFETY: `clmul_available()` gates every call site on CPUID.
        unsafe { gf_mul_impl(a, b) }
    }

    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn gf_mul_impl(a: &Elem, b: &Elem) -> Elem {
        // SAFETY: a 16-byte store into a 16-byte stack array;
        // `target_feature` is vouched for by the caller's CPUID check via
        // `clmul_available()`.
        unsafe {
            let mut out = [0u64; 2];
            let p = fold_parts(clmul_parts(to_vector(a), to_vector(b)));
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, p);
            [out[1], out[0]]
        }
    }

    /// `[e0, e1]` as one vector whose 128-bit value is `e0 << 64 | e1`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn to_vector(e: &Elem) -> __m128i {
        _mm_set_epi64x(e[0] as i64, e[1] as i64)
    }

    /// The unreduced product `x ⊗ h` as `[lo, mid, hi]` 128-bit parts:
    /// the 256-bit value is `lo ⊕ mid << 64 ⊕ hi << 128`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn clmul_parts(x: __m128i, h: __m128i) -> [__m128i; 3] {
        [
            _mm_clmulepi64_si128(x, h, 0x00),
            _mm_xor_si128(
                _mm_clmulepi64_si128(x, h, 0x01),
                _mm_clmulepi64_si128(x, h, 0x10),
            ),
            _mm_clmulepi64_si128(x, h, 0x11),
        ]
    }

    /// Sum of two unreduced products.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn xor_parts(a: [__m128i; 3], b: [__m128i; 3]) -> [__m128i; 3] {
        [
            _mm_xor_si128(a[0], b[0]),
            _mm_xor_si128(a[1], b[1]),
            _mm_xor_si128(a[2], b[2]),
        ]
    }

    /// `fold` on vectors: the same two 64-bit folding steps, each one
    /// carry-less multiply by x^63 + x^62 + x^57 (the shifts of `fold`)
    /// plus a lane swap.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold_parts(p: [__m128i; 3]) -> __m128i {
        let poly = _mm_set_epi64x(0, 0xc200_0000_0000_0000u64 as i64);
        // Limbs v0..v3, low to high: lo = [v0, v1], hi = [v2, v3].
        let lo = _mm_xor_si128(p[0], _mm_slli_si128(p[1], 8));
        let hi = _mm_xor_si128(p[2], _mm_srli_si128(p[1], 8));
        // [v1, v0] ^ v0·poly: lane 0 is v1 with v0 folded in, lane 1 is
        // v0's contribution to v2.
        let t = _mm_xor_si128(
            _mm_shuffle_epi32(lo, 0x4e),
            _mm_clmulepi64_si128(lo, poly, 0x00),
        );
        // The same step folds the updated v1 into [v2, v3].
        let t = _mm_xor_si128(
            _mm_shuffle_epi32(t, 0x4e),
            _mm_clmulepi64_si128(t, poly, 0x00),
        );
        _mm_xor_si128(hi, t)
    }

    #[target_feature(enable = "pclmulqdq", enable = "ssse3", enable = "sse2")]
    unsafe fn ghash_impl(h: &HPowers, y: &mut Elem, data: &[u8]) {
        // SAFETY: every load reads 16 bytes at block offset `i` of a group
        // holding at least `i + 1` blocks (the padded tail group is a
        // 64-byte stack array); `target_feature` is vouched for by the
        // caller's CPUID check via `clmul_available()`.
        unsafe {
            let bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            let load = |p: *const __m128i| _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
            let hp = [
                to_vector(&h[0]),
                to_vector(&h[1]),
                to_vector(&h[2]),
                to_vector(&h[3]),
            ];
            let mut acc = to_vector(y);
            let mut groups = data.chunks_exact(64);
            for group in &mut groups {
                let p = group.as_ptr() as *const __m128i;
                // Blocks 2..4 do not depend on the accumulator, so their
                // products overlap the previous group's reduction.
                let tail = xor_parts(
                    xor_parts(
                        clmul_parts(load(p.add(3)), hp[0]),
                        clmul_parts(load(p.add(2)), hp[1]),
                    ),
                    clmul_parts(load(p.add(1)), hp[2]),
                );
                let head = clmul_parts(_mm_xor_si128(load(p), acc), hp[3]);
                acc = fold_parts(xor_parts(tail, head));
            }
            let rest = groups.remainder();
            if !rest.is_empty() {
                let mut padded = [0u8; 64];
                padded[..rest.len()].copy_from_slice(rest);
                let p = padded.as_ptr() as *const __m128i;
                let n = rest.len().div_ceil(16);
                let mut sum = clmul_parts(_mm_xor_si128(load(p), acc), hp[n - 1]);
                for i in 1..n {
                    sum = xor_parts(sum, clmul_parts(load(p.add(i)), hp[n - 1 - i]));
                }
                acc = fold_parts(sum);
            }
            let mut out = [0u64; 2];
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, acc);
            *y = [out[1], out[0]];
        }
    }
}

// --------------------------------------------------------------------------
// The per-key context
// --------------------------------------------------------------------------

/// An AES-128-GCM key, expanded once: the AES round keys (byte form for
/// the portable path, word form for AES-NI), the hash-key powers H¹…H⁴,
/// and the dispatch decision. Key material, so it wipes itself on drop
/// and its `Debug` is redacting.
// ctlint: secret
pub struct Aes128Gcm {
    aes: Aes128,
    round_words: [u32; 44],
    h: HPowers,
    aes_ni: bool,
    clmul: bool,
}

impl crate::wipe::Wipe for Aes128Gcm {
    fn wipe(&mut self) {
        self.aes.wipe();
        crate::wipe::wipe_u32s(&mut self.round_words);
        crate::wipe::wipe_u64s(self.h.as_flattened_mut());
    }
}

impl Drop for Aes128Gcm {
    fn drop(&mut self) {
        use crate::wipe::Wipe;
        self.wipe();
    }
}

impl std::fmt::Debug for Aes128Gcm {
    /// Redacting: the schedule and hash key never reach a formatter.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aes128Gcm(<redacted>)")
    }
}

impl Aes128Gcm {
    /// Expand `key`, using the AES-NI and CLMUL kernels where the host
    /// has them.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        Self::with_dispatch(key, false)
    }

    /// Expand `key` on the portable paths regardless of CPU features.
    /// For agreement tests and scalar-baseline benchmarks only.
    #[doc(hidden)]
    pub fn new_portable(key: &[u8; KEY_LEN]) -> Self {
        Self::with_dispatch(key, true)
    }

    fn with_dispatch(key: &[u8; KEY_LEN], portable: bool) -> Self {
        let aes = Aes128::new(key);
        let mut ctx = Aes128Gcm {
            round_words: aes.schedule_words(),
            aes,
            h: [[0; 2]; 4],
            aes_ni: !portable && aes_ni_available(),
            clmul: !portable && clmul_available(),
        };
        // H = E(K, 0^128): the keystream block of the all-zero nonce and
        // counter, XORed into zeros.
        let mut h = [0u8; BLOCK_LEN];
        ctx.ctr_xor(&[0; NONCE_LEN], 0, &mut h);
        let h1 = twist(load_elem(&h));
        crate::wipe::wipe_bytes(&mut h);
        let mul = |a: Elem, b: Elem| {
            #[cfg(target_arch = "x86_64")]
            if ctx.clmul {
                return ni::gf_mul(&a, &b);
            }
            gf_mul(a, b)
        };
        let h2 = mul(h1, h1);
        let h3 = mul(h2, h1);
        let h4 = mul(h3, h1);
        ctx.h = [h1, h2, h3, h4];
        ctx
    }

    /// XOR the CTR keystream for `nonce`, starting at counter `first_ctr`,
    /// into `data` in place.
    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], first_ctr: u32, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if self.aes_ni {
            let j0 = [
                u32::from_le_bytes(nonce[..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(nonce[4..8].try_into().expect("4 bytes")),
                u32::from_le_bytes(nonce[8..].try_into().expect("4 bytes")),
            ];
            crate::aes::ni::ctr_xor(&self.round_words, &j0, first_ctr, data);
            return;
        }
        let mut ctr = first_ctr;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block[..NONCE_LEN].copy_from_slice(nonce);
            block[NONCE_LEN..].copy_from_slice(&ctr.to_be_bytes());
            self.aes.encrypt_block_scalar(&mut block);
            for (d, k) in chunk.iter_mut().zip(&block) {
                *d ^= k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }

    /// Absorb `data` into the GHASH accumulator, zero-padding a trailing
    /// partial block (GCM pads AAD and ciphertext independently).
    fn ghash(&self, y: &mut Elem, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if self.clmul {
            ni::ghash(&self.h, y, data);
            return;
        }
        ghash_scalar(&self.h, y, data);
    }

    /// The tag over `aad` and `ciphertext`: GHASH of both plus the lengths
    /// block, masked with the keystream of counter 1.
    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut y = [0u64; 2];
        self.ghash(&mut y, aad);
        self.ghash(&mut y, ciphertext);
        let mut lens = [0u8; BLOCK_LEN];
        lens[..8].copy_from_slice(&(8 * aad.len() as u64).to_be_bytes());
        lens[8..].copy_from_slice(&(8 * ciphertext.len() as u64).to_be_bytes());
        self.ghash(&mut y, &lens);
        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&y[0].to_be_bytes());
        tag[8..].copy_from_slice(&y[1].to_be_bytes());
        self.ctr_xor(nonce, 1, &mut tag);
        tag
    }

    /// Encrypt and authenticate, appending `ciphertext ‖ tag` to `out`.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        out.reserve(plaintext.len() + TAG_LEN);
        let start = out.len();
        out.extend_from_slice(plaintext);
        // Data blocks start at counter 2; counter 1 masks the tag.
        self.ctr_xor(nonce, 2, &mut out[start..]);
        let tag = self.tag(nonce, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Verify and decrypt `ciphertext ‖ tag` held in `buf`. The tag is
    /// checked, in constant time, before anything is decrypted: on
    /// success the plaintext replaces the ciphertext in `buf[..n]` and `n`
    /// is returned; on failure `buf` is left untouched.
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> Result<usize, CryptoError> {
        let Some(n) = buf.len().checked_sub(TAG_LEN) else {
            return Err(CryptoError::BadMac);
        };
        let (ct, tag) = buf.split_at_mut(n);
        let expect = self.tag(nonce, aad, ct);
        if !crate::ct::ct_eq(&expect, tag) {
            return Err(CryptoError::BadMac);
        }
        self.ctr_xor(nonce, 2, ct);
        Ok(n)
    }

    /// [`Self::open_in_place`] on a copy: returns the plaintext.
    fn open_to_vec(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut buf = ciphertext.to_vec();
        let n = self.open_in_place(nonce, aad, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    fn seal_to_vec(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }
}

/// Is the AES-NI CTR kernel usable on this host (and not forced portable)?
fn aes_ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::aes::ni::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Encrypt and authenticate: returns `ciphertext ‖ tag`.
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    Aes128Gcm::new(key).seal_to_vec(nonce, aad, plaintext)
}

/// Verify and decrypt `ciphertext ‖ tag`. The tag is checked (in constant
/// time) before any plaintext is released.
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    Aes128Gcm::new(key).open_to_vec(nonce, aad, ciphertext)
}

/// [`seal`] forced onto the scalar reference paths regardless of CPU
/// features. For agreement tests and scalar-baseline benchmarks only.
#[doc(hidden)]
pub fn seal_portable(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    Aes128Gcm::new_portable(key).seal_to_vec(nonce, aad, plaintext)
}

/// [`open`] forced onto the scalar reference paths regardless of CPU
/// features. For agreement tests and scalar-baseline benchmarks only.
#[doc(hidden)]
pub fn open_portable(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    Aes128Gcm::new_portable(key).open_to_vec(nonce, aad, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    fn kat(key: &str, nonce: &str, aad: &str, pt: &str, ct: &str, tag: &str) {
        let key: [u8; 16] = unhex(key).try_into().unwrap();
        let nonce: [u8; 12] = unhex(nonce).try_into().unwrap();
        let (aad, pt) = (unhex(aad), unhex(pt));
        let sealed = seal(&key, &nonce, &aad, &pt);
        let want: Vec<u8> = unhex(ct).into_iter().chain(unhex(tag)).collect();
        assert_eq!(sealed, want, "seal mismatch");
        let opened = open(&key, &nonce, &aad, &sealed).expect("tag verifies");
        assert_eq!(opened, pt, "open mismatch");
    }

    // McGrew/Viega "The Galois/Counter Mode of Operation" test cases 1-4
    // (the NIST CAVS AES-128-GCM anchor vectors).
    #[test]
    fn mcgrew_viega_case_1_empty() {
        kat(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        );
    }

    #[test]
    fn mcgrew_viega_case_2_one_block() {
        kat(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "00000000000000000000000000000000",
            "0388dace60b6a392f328c2b971b2fe78",
            "ab6e47d42cec13bdf53a67b21257bddf",
        );
    }

    #[test]
    fn mcgrew_viega_case_3_four_blocks() {
        kat(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        );
    }

    #[test]
    fn mcgrew_viega_case_4_aad_and_partial_block() {
        kat(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        );
    }

    #[test]
    fn tampered_tag_ciphertext_and_aad_all_fail() {
        let key = [7u8; 16];
        let nonce = [3u8; 12];
        let sealed = seal(&key, &nonce, b"aad", b"hello, record layer");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(open(&key, &nonce, b"aad", &bad).is_err(), "byte {i}");
        }
        assert!(open(&key, &nonce, b"aae", &sealed).is_err(), "bad aad");
        assert!(open(&key, &[4u8; 12], b"aad", &sealed).is_err(), "nonce");
    }

    /// The NIST SP 800-38D bit-by-bit reference multiplication, used to
    /// pin the Karatsuba/fold implementation independently of the KATs.
    fn gf_mul_reference(x: &[u8; 16], y: &[u8; 16]) -> [u8; 16] {
        let mut z = [0u8; 16];
        let mut v = *y;
        for i in 0..128 {
            if x[i / 8] >> (7 - i % 8) & 1 == 1 {
                for (zb, vb) in z.iter_mut().zip(&v) {
                    *zb ^= vb;
                }
            }
            let lsb = v[15] & 1;
            for j in (1..16).rev() {
                v[j] = v[j] >> 1 | v[j - 1] << 7;
            }
            v[0] >>= 1;
            if lsb == 1 {
                v[0] ^= 0xe1;
            }
        }
        z
    }

    fn elem_bytes(e: Elem) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&e[0].to_be_bytes());
        out[8..].copy_from_slice(&e[1].to_be_bytes());
        out
    }

    fn powers(h: Elem) -> HPowers {
        let h1 = twist(h);
        let h2 = gf_mul(h1, h1);
        let h3 = gf_mul(h2, h1);
        [h1, h2, h3, gf_mul(h3, h1)]
    }

    #[test]
    fn scalar_multiply_matches_bitwise_reference() {
        let mut rng = crate::drbg::HmacDrbg::new(b"ghash-ref");
        for _ in 0..50 {
            let mut h = [0u8; 16];
            let mut x = [0u8; 16];
            rng.fill_bytes(&mut h);
            rng.fill_bytes(&mut x);
            let got = elem_bytes(gf_mul(load_elem(&x), twist(load_elem(&h))));
            assert_eq!(got, gf_mul_reference(&x, &h));
        }
    }

    /// One reduction per four blocks must equal Horner's rule one block
    /// at a time, with the bit-by-bit reference multiplier.
    #[test]
    fn aggregated_ghash_matches_blockwise_horner() {
        let mut rng = crate::drbg::HmacDrbg::new(b"ghash-horner");
        for len in [0usize, 1, 15, 16, 17, 48, 63, 64, 65, 127, 128, 129, 200] {
            let mut h = [0u8; 16];
            rng.fill_bytes(&mut h);
            let data = rng.bytes(len);
            let mut want = [0u8; 16];
            for chunk in data.chunks(16) {
                for (w, d) in want.iter_mut().zip(chunk) {
                    *w ^= d;
                }
                want = gf_mul_reference(&want, &h);
            }
            let mut y = [0u64; 2];
            ghash_scalar(&powers(load_elem(&h)), &mut y, &data);
            assert_eq!(elem_bytes(y), want, "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_and_scalar_ghash_agree() {
        if !clmul_available() {
            return;
        }
        let mut rng = crate::drbg::HmacDrbg::new(b"ghash-clmul");
        for round in 0..200 {
            let mut h = [0u8; 16];
            let mut y0 = [0u8; 16];
            rng.fill_bytes(&mut h);
            rng.fill_bytes(&mut y0);
            let data = rng.bytes(round % 150);
            let hp = powers(load_elem(&h));
            let mut hw = load_elem(&y0);
            let mut sw = hw;
            ni::ghash(&hp, &mut hw, &data);
            ghash_scalar(&hp, &mut sw, &data);
            assert_eq!(hw, sw, "round {round}");
        }
    }

    #[test]
    fn context_debug_is_redacted() {
        let ctx = Aes128Gcm::new(&[0x5a; 16]);
        assert_eq!(format!("{ctx:?}"), "Aes128Gcm(<redacted>)");
    }

    #[test]
    fn open_in_place_releases_nothing_on_a_bad_tag() {
        let ctx = Aes128Gcm::new(&[0x11; 16]);
        let nonce = [0x22; 12];
        let mut sealed = Vec::new();
        ctx.seal_into(&nonce, b"hdr", &[0x33; 100], &mut sealed);
        for flip in [0, 50, 99, 100, 115] {
            let mut buf = sealed.clone();
            buf[flip] ^= 0x80;
            let tampered = buf.clone();
            assert_eq!(
                ctx.open_in_place(&nonce, b"hdr", &mut buf),
                Err(CryptoError::BadMac)
            );
            assert_eq!(buf, tampered, "byte {flip}: buffer must be untouched");
        }
        let mut buf = sealed.clone();
        assert_eq!(ctx.open_in_place(&nonce, b"hdr", &mut buf), Ok(100));
        assert_eq!(&buf[..100], &[0x33; 100][..]);
    }

    #[test]
    fn seal_into_appends_after_existing_bytes() {
        let key = [0x42u8; 16];
        let nonce = [0x24u8; 12];
        let mut out = b"header".to_vec();
        Aes128Gcm::new(&key).seal_into(&nonce, b"a", b"payload", &mut out);
        assert_eq!(&out[..6], b"header");
        assert_eq!(out[6..], seal(&key, &nonce, b"a", b"payload")[..]);
    }

    #[test]
    fn roundtrip_all_lengths_through_two_blocks() {
        let key = [0x42u8; 16];
        let nonce = [0x24u8; 12];
        for len in 0..=33 {
            let pt: Vec<u8> = (0..len as u8).collect();
            let sealed = seal(&key, &nonce, b"hdr", &pt);
            assert_eq!(sealed.len(), pt.len() + TAG_LEN);
            assert_eq!(open(&key, &nonce, b"hdr", &sealed).unwrap(), pt);
        }
    }
}
