//! The one CRC-32 in the tree: frames on the wire (`frame`), records in
//! the write-ahead log and the extent logs of the data servers all carry
//! it. `dufs-wal` compiles this same file (a `#[path]` module) rather than
//! depending on this crate, so a faster kernel has a single place to land.
//!
//! Two kernels compute the same function, and only the CPU and the input
//! length choose between them:
//!
//! * on x86_64 with PCLMULQDQ and SSE4.1, a part of at least 64 bytes goes
//!   through the carry-less-multiply kernel in `clmul` (fold by four over
//!   64-byte blocks, then a Barrett reduction), about ten times the speed
//!   of the portable loop on a 1 MiB stripe;
//! * shorter parts, the sub-16-byte tail the fold leaves, and every other
//!   target take the portable slice-by-16 (`portable`).
//!
//! Both take and return the running (not yet inverted) state, so a
//! checksum never depends on which kernel summed which part.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets sixteen
/// input bytes be folded with sixteen independent lookups (slice-by-16).
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut n = 0;
    while n < 16 * 256 {
        let (k, i) = (n / 256, n % 256);
        let mut c = if k == 0 { i as u32 } else { t[k - 1][i] };
        let mut shifts = 0;
        while shifts < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            shifts += 1;
        }
        t[k][i] = c;
        n += 1;
    }
    t
};

/// Feed `data` into the running (not yet inverted) CRC state `crc`.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN {
        if let Some(crc) = clmul::update(crc, data) {
            return crc;
        }
    }
    portable(crc, data)
}

/// Slice-by-16 over compile-time tables, in safe portable Rust.
fn portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let block: &[u8; 16] = block.try_into().expect("chunks_exact(16)");
        let head = crc.to_le_bytes();
        crc = 0;
        for (i, &b) in block.iter().enumerate() {
            let b = if i < 4 { b ^ head[i] } else { b };
            crc ^= TABLES[15 - i][b as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The PCLMULQDQ kernel: Intel's "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", with the bit-reflected
/// constants of Linux's `crc32-pclmul` (each `x^n mod P(x)`, reflected and
/// shifted left one bit). Four 128-bit accumulators fold 64 bytes a round,
/// are folded into one, which folds the remaining 16-byte blocks, and a
/// Barrett reduction brings the 128-bit remainder down to 32 bits.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The fold starts from four 16-byte blocks.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32)` and `x^(4·128-32)` mod P: fold one accumulator 512
    /// bits forward.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32)` and `x^(128-32)` mod P: fold 128 bits forward.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// `x^64` mod P: 96 bits down to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) and the Barrett constant `μ = x^64 / P(x)`, both reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// `crc` fed with `data` (at least [`MIN_LEN`] bytes), or `None` when
    /// this CPU lacks the instructions and the caller must use the
    /// portable loop.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `fold` is compiled for exactly PCLMULQDQ and SSE4.1,
        // and both were detected on this CPU just above.
        Some(unsafe { fold(crc, data) })
    }

    /// Load one 16-byte block, little-endian lane order.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and the unaligned load
        // reads exactly those 16 and asks no alignment of them.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Fold `acc` forward over 128 bits with `keys` (low key for the low
    /// half, high key for the high half) and add `next` in.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The kernel proper. Whole 16-byte blocks go through the multiplier;
    /// the tail (under 16 bytes) goes through the portable loop.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN, "the fold starts from four blocks");
        let mut blocks = data.chunks_exact(16);
        let mut next = || load(blocks.next().expect("length checked").try_into().expect("16"));
        let (mut x3, mut x2, mut x1, mut x0) = (next(), next(), next(), next());
        // The running state enters as if XORed onto the first four bytes.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let rest = data.len() / 16 - 4;
        let k1k2 = _mm_set_epi64x(K2, K1);
        for _ in 0..rest / 4 {
            x3 = fold_into(x3, next(), k1k2);
            x2 = fold_into(x2, next(), k1k2);
            x1 = fold_into(x1, next(), k1k2);
            x0 = fold_into(x0, next(), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        for _ in 0..rest % 4 {
            x = fold_into(x, next(), k3k4);
        }

        // 128 bits down to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the upper half of R ^ T2's low 64 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::portable(crc, blocks.remainder())
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data` — the checksum
/// ZooKeeper uses for its transaction log frames.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// [`crc32`] of the concatenation of `parts`, without joining them: a
/// record made of a header and a caller-owned payload is summed where the
/// two already are.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(0xFFFF_FFFF, |crc, part| update(crc, part))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as the reference.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn random_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Both kernels, against the reference: the portable loop is called
    /// directly so it stays covered on a CPU that dispatches past it, and
    /// the lengths cross the 16-, 64- and 128-byte edges of both.
    #[test]
    fn crc32_equals_the_reference_at_every_length_and_alignment() {
        let buf = random_bytes(16 + 1100, 1);
        for start in 0..16 {
            for len in 0..=1100 {
                let s = &buf[start..start + len];
                let want = reference(s);
                assert_eq!(!portable(!0, s), want, "portable: start {start} len {len}");
                assert_eq!(crc32(s), want, "crc32: start {start} len {len}");
            }
        }
        for (len, seed) in [(64 << 10, 2), (1 << 20, 3), ((1 << 20) + 7, 4)] {
            let big = random_bytes(len, seed);
            let want = reference(&big);
            assert_eq!(!portable(!0, &big), want, "portable: len {len}");
            assert_eq!(crc32(&big), want, "crc32: len {len}");
        }
    }

    #[test]
    fn parts_equal_one_shot_at_every_cut_point() {
        let data = random_bytes(1024, 5);
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            assert_eq!(crc32_parts(&[&data[..cut], &data[cut..]]), whole, "cut {cut}");
        }
        let bytewise: Vec<&[u8]> = data.iter().map(std::slice::from_ref).collect();
        assert_eq!(crc32_parts(&bytewise), whole);
        assert_eq!(crc32_parts(&[]), 0);
    }

    /// Three parts, each on either side of the 64-byte threshold, so the
    /// running state passes between the kernels in every order.
    #[test]
    fn parts_straddling_the_kernel_threshold_chain_the_state() {
        let data = random_bytes(400, 6);
        let lens = [0, 1, 15, 16, 63, 64, 65, 127, 128, 129];
        for a in lens {
            for b in lens {
                let (p, rest) = data.split_at(a);
                let (q, r) = rest.split_at(b);
                let r = &r[..r.len().min(a + b + 70)];
                let whole = reference(&data[..a + b + r.len()]);
                assert_eq!(crc32_parts(&[p, q, r]), whole, "parts {a}+{b}+{}", r.len());
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"hello, write-ahead log".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[i] ^= 1 << bit;
                assert_ne!(crc32(&d), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
