//! The one CRC-32 in the tree: frames on the wire (`frame`), records in
//! the write-ahead log and the extent logs of the data servers all carry
//! it. `dufs-wal` compiles this same file (a `#[path]` module) rather than
//! depending on this crate, so a faster kernel has a single place to land.

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
fn update(mut crc: u32, data: &[u8]) -> u32 {
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

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data` — the checksum
/// ZooKeeper uses for its transaction log frames. Slice-by-16 over
/// compile-time tables, in safe portable Rust; implemented here because
/// the environment vendors no `crc32fast`.
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

    #[test]
    fn crc32_equals_the_reference_at_every_length_and_alignment() {
        let buf = random_bytes(16 + 300, 1);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), reference(s), "start {start} len {len}");
            }
        }
        for (len, seed) in [(64 << 10, 2), (1 << 20, 3), ((1 << 20) + 7, 4)] {
            let big = random_bytes(len, seed);
            assert_eq!(crc32(&big), reference(&big), "len {len}");
        }
    }

    #[test]
    fn parts_equal_one_shot_at_every_cut_point() {
        let data = random_bytes(100, 5);
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            assert_eq!(crc32_parts(&[&data[..cut], &data[cut..]]), whole, "cut {cut}");
        }
        let bytewise: Vec<&[u8]> = data.iter().map(std::slice::from_ref).collect();
        assert_eq!(crc32_parts(&bytewise), whole);
        assert_eq!(crc32_parts(&[]), 0);
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
