//! The byte→bit core: 64 allele bytes in, one `u64` out.
//!
//! Every ingestion path that meets genotypes one byte at a time — `ms` and
//! `txt` rows of ASCII `0`/`1`, [`crate::BitMatrix::from_rows`]' `0u8`/`1u8`
//! slices — packs them here, parameterised by the byte that means "0"
//! (`b'0'` for text, `0x00` for raw alleles; "1" is that byte with its low
//! bit set). Validation is part of the same pass: a byte is an allele iff
//! `byte ^ zero <= 1`, checked over the whole slice in bulk. A slice that
//! holds anything else is reported as *not clean* — not as an error: the
//! caller knows what the bytes were (a text line, a user's row) and
//! re-scans that one slice to say what is wrong with it and where.
//!
//! Bodies, picked per call by runtime detection (no flag, no env var):
//! AVX-512BW (`cmpeq_epi8_mask` *is* the packed word), AVX2 and SSE2
//! (`cmpeq` + `movemask`), and a portable SWAR multiply-gather that also
//! finishes every body's sub-64-byte tail and is the only body off x86-64.
//! [`unpack_bits`] is the inverse, for the text writers.

use crate::words_for;

/// `0x01` in every byte.
const LOW: u64 = 0x0101_0101_0101_0101;

/// Packs allele bytes into bits: bit `i % 64` of `out[i / 64]` becomes
/// `bytes[i] ^ zero`, and the unused high bits of the last word are zero.
/// Returns whether the slice was *clean* — every byte either `zero` or
/// `zero ^ 1`. On `false` the contents of `out` are unspecified.
///
/// # Panics
/// If `out.len() != words_for(bytes.len())`.
pub fn pack_bits(bytes: &[u8], zero: u8, out: &mut [u64]) -> bool {
    assert_eq!(out.len(), words_for(bytes.len()), "one word per 64 bytes");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            // SAFETY: AVX-512BW (which implies AVX-512F) was detected above.
            return unsafe { pack_avx512(bytes, zero, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected above.
            return unsafe { pack_avx2(bytes, zero, out) };
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            // SAFETY: SSE2 was detected above.
            return unsafe { pack_sse2(bytes, zero, out) };
        }
    }
    pack_swar(bytes, zero, out)
}

/// Expands bits back into allele bytes: `out[i]` becomes `zero ^ bit`,
/// where `bit` is bit `i % 64` of `words[i / 64]` — the inverse of
/// [`pack_bits`].
///
/// # Panics
/// If `words.len() != words_for(out.len())`.
pub fn unpack_bits(words: &[u64], zero: u8, out: &mut [u8]) {
    assert_eq!(words.len(), words_for(out.len()), "one word per 64 bytes");
    let zeros = LOW * u64::from(zero);
    for (block, &word) in out.chunks_mut(64).zip(words) {
        for (i, eight) in block.chunks_mut(8).enumerate() {
            // Copy the byte into all eight lanes and keep bit k in lane k;
            // adding 0x7f carries any kept bit into its lane's bit 7.
            let lanes = (((word >> (8 * i)) & 0xff) * LOW) & 0x8040_2010_0804_0201;
            let bits = ((lanes + 0x7f * LOW) >> 7) & LOW;
            eight.copy_from_slice(&(bits ^ zeros).to_le_bytes()[..eight.len()]);
        }
    }
}

/// The portable body: eight bytes per step. XOR with `zero` leaves clean
/// bytes as `0x00` / `0x01`; multiplying by `GATHER` then lands byte `i`'s
/// low bit on bit `56 + i` — the partial products sit on pairwise distinct
/// bit positions, so no carry can disturb the top byte.
fn pack_swar(bytes: &[u8], zero: u8, out: &mut [u64]) -> bool {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let zeros = LOW * u64::from(zero);
    let mut dirty = 0u64;
    for (block, word) in bytes.chunks(64).zip(out.iter_mut()) {
        let (eights, rest) = block.as_chunks::<8>();
        let mut w = 0u64;
        for (i, eight) in eights.iter().enumerate() {
            let x = u64::from_le_bytes(*eight) ^ zeros;
            dirty |= x & !LOW;
            w |= (x.wrapping_mul(GATHER) >> 56) << (8 * i);
        }
        for (i, &b) in rest.iter().enumerate() {
            let x = u64::from(b ^ zero);
            dirty |= x & !1;
            w |= (x & 1) << (8 * eights.len() + i);
        }
        *word = w;
    }
    dirty == 0
}

/// AVX-512BW body: one compare-to-mask per 64 bytes is the packed word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn pack_avx512(bytes: &[u8], zero: u8, out: &mut [u64]) -> bool {
    use std::arch::x86_64::*;
    let zeros = _mm512_set1_epi8(zero as i8);
    let ones = _mm512_set1_epi8((zero ^ 1) as i8);
    let (blocks, rest) = bytes.as_chunks::<64>();
    let mut dirty = 0u64;
    for (block, word) in blocks.iter().zip(out.iter_mut()) {
        // SAFETY: `block` is 64 readable bytes and `loadu` accepts any
        // alignment.
        let v = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
        let one = _mm512_cmpeq_epi8_mask(v, ones);
        dirty |= !(one | _mm512_cmpeq_epi8_mask(v, zeros));
        *word = one;
    }
    dirty == 0 && pack_swar(rest, zero, &mut out[blocks.len()..])
}

/// AVX2 body: two 32-byte compare + `movemask` halves per word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pack_avx2(bytes: &[u8], zero: u8, out: &mut [u64]) -> bool {
    use std::arch::x86_64::*;
    let zeros = _mm256_set1_epi8(zero as i8);
    let ones = _mm256_set1_epi8((zero ^ 1) as i8);
    let (blocks, rest) = bytes.as_chunks::<64>();
    let mut dirty = 0u64;
    for (block, word) in blocks.iter().zip(out.iter_mut()) {
        let (mut one, mut clean) = (0u64, 0u64);
        for (i, half) in block.as_chunks::<32>().0.iter().enumerate() {
            // SAFETY: `half` is 32 readable bytes and `loadu` accepts any
            // alignment.
            let v = unsafe { _mm256_loadu_si256(half.as_ptr().cast()) };
            let is_one = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, ones)) as u32;
            let is_zero = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zeros)) as u32;
            one |= u64::from(is_one) << (32 * i);
            clean |= u64::from(is_one | is_zero) << (32 * i);
        }
        dirty |= !clean;
        *word = one;
    }
    dirty == 0 && pack_swar(rest, zero, &mut out[blocks.len()..])
}

/// SSE2 body: four 16-byte compare + `movemask` quarters per word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn pack_sse2(bytes: &[u8], zero: u8, out: &mut [u64]) -> bool {
    use std::arch::x86_64::*;
    let zeros = _mm_set1_epi8(zero as i8);
    let ones = _mm_set1_epi8((zero ^ 1) as i8);
    let (blocks, rest) = bytes.as_chunks::<64>();
    let mut dirty = 0u64;
    for (block, word) in blocks.iter().zip(out.iter_mut()) {
        let (mut one, mut clean) = (0u64, 0u64);
        for (i, quarter) in block.as_chunks::<16>().0.iter().enumerate() {
            // SAFETY: `quarter` is 16 readable bytes and `loadu` accepts
            // any alignment.
            let v = unsafe { _mm_loadu_si128(quarter.as_ptr().cast()) };
            // `movemask` sets only the low 16 bits
            let is_one = _mm_movemask_epi8(_mm_cmpeq_epi8(v, ones)) as u64;
            let is_zero = _mm_movemask_epi8(_mm_cmpeq_epi8(v, zeros)) as u64;
            one |= is_one << (16 * i);
            clean |= (is_one | is_zero) << (16 * i);
        }
        dirty |= !clean;
        *word = one;
    }
    dirty == 0 && pack_swar(rest, zero, &mut out[blocks.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    type Body = fn(&[u8], u8, &mut [u64]) -> bool;

    /// Every body this build compiled and this CPU can run, by name.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut v: Vec<(&'static str, Body)> = vec![("dispatch", pack_bits), ("swar", pack_swar)];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (all three): each wrapper is only listed when its
            // feature was detected.
            if std::arch::is_x86_feature_detected!("sse2") {
                v.push(("sse2", |b, z, o| unsafe { pack_sse2(b, z, o) }));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(("avx2", |b, z, o| unsafe { pack_avx2(b, z, o) }));
            }
            if std::arch::is_x86_feature_detected!("avx512bw") {
                v.push(("avx512bw", |b, z, o| unsafe { pack_avx512(b, z, o) }));
            }
        }
        v
    }

    /// One bit at a time; `None` when a byte is neither allele.
    fn reference(bytes: &[u8], zero: u8) -> Option<Vec<u64>> {
        let mut out = vec![0u64; words_for(bytes.len())];
        for (i, &b) in bytes.iter().enumerate() {
            match b ^ zero {
                0 => {}
                1 => out[i / 64] |= 1 << (i % 64),
                _ => return None,
            }
        }
        Some(out)
    }

    fn alleles(len: usize, zero: u8, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                zero ^ (s & 1) as u8
            })
            .collect()
    }

    #[test]
    fn every_body_matches_the_per_bit_reference_at_every_length() {
        for (name, body) in bodies() {
            for zero in [b'0', 0u8] {
                for len in 0..=200usize {
                    let bytes = alleles(len, zero, len as u64 * 31 + u64::from(zero));
                    // poisoned so a body that skips a word is caught
                    let mut out = vec![u64::MAX; words_for(len)];
                    assert!(body(&bytes, zero, &mut out), "{name} zero={zero} len={len}");
                    assert_eq!(
                        Some(out),
                        reference(&bytes, zero),
                        "{name} zero={zero} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_body_reports_a_dirty_byte_at_every_position() {
        for (name, body) in bodies() {
            for zero in [b'0', 0u8] {
                for len in 1..=200usize {
                    let clean = alleles(len, zero, len as u64 + 7);
                    let mut out = vec![0u64; words_for(len)];
                    for at in 0..len {
                        // the nearest non-alleles on either side, a high
                        // bit, and the other parameterisation's alleles
                        for dirt in [zero ^ 2, zero ^ 3, zero ^ 0x80, zero ^ 0x30, 0xff, b'\n'] {
                            let mut bytes = clean.clone();
                            bytes[at] = dirt;
                            assert_eq!(reference(&bytes, zero), None);
                            assert!(
                                !body(&bytes, zero, &mut out),
                                "{name} zero={zero} len={len}: {dirt:#x} at {at} passed as clean"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unpack_inverts_pack_at_every_length() {
        for zero in [b'0', 0u8] {
            for len in 0..=200usize {
                let bytes = alleles(len, zero, len as u64 * 17 + 3);
                let mut words = vec![0u64; words_for(len)];
                assert!(pack_bits(&bytes, zero, &mut words));
                let mut back = vec![0xaau8; len];
                unpack_bits(&words, zero, &mut back);
                assert_eq!(back, bytes, "zero={zero} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one word per 64 bytes")]
    fn wrong_output_length_is_a_caller_bug() {
        pack_bits(&[0u8; 65], 0, &mut [0u64; 1]);
    }
}
