//! Cache-line aligned `u64` storage.
//!
//! The BLIS-style packing routines copy micro-panels of the genomic matrix
//! into contiguous buffers that are streamed by the micro-kernel. Aligning
//! those buffers to 64 bytes keeps every `MR`/`NR`-wide group of words inside
//! as few cache lines as possible and enables aligned vector loads in the
//! AVX2/AVX-512 kernels.
//!
//! Implemented safely on top of `Vec<CacheLine>` where `CacheLine` is a
//! `#[repr(C, align(64))]` array of eight `u64`s: the vector's allocation is
//! 64-byte aligned by construction, and the element type guarantees the
//! words are contiguous.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// One 64-byte cache line worth of `u64` words.
#[repr(C, align(64))]
#[derive(Clone, Copy, Default)]
struct CacheLine([u64; 8]);

const WORDS_PER_LINE: usize = 8;

/// A growable, 64-byte-aligned buffer of `u64` words.
///
/// Dereferences to `&[u64]` / `&mut [u64]` of the *logical* length, which
/// need not be a multiple of 8; the trailing words of the last cache line
/// are kept allocated but outside the slice.
///
/// ```
/// use ld_bitmat::AlignedWords;
/// let mut w = AlignedWords::zeroed(10);
/// assert_eq!(w.len(), 10);
/// assert_eq!(w.as_ptr() as usize % 64, 0);
/// w[3] = 0xdead_beef;
/// assert_eq!(w.iter().copied().sum::<u64>(), 0xdead_beef);
/// ```
pub struct AlignedWords {
    lines: Vec<CacheLine>,
    len: usize,
}

impl AlignedWords {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self {
            lines: Vec::new(),
            len: 0,
        }
    }

    /// A buffer of `len` words, all zero.
    pub fn zeroed(len: usize) -> Self {
        let lines = vec![CacheLine::default(); len.div_ceil(WORDS_PER_LINE)];
        Self { lines, len }
    }

    /// A buffer with capacity for at least `cap` words and length zero.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            lines: Vec::with_capacity(cap.div_ceil(WORDS_PER_LINE)),
            len: 0,
        }
    }

    /// Copies the contents of `src` into a fresh aligned buffer.
    pub fn from_slice(src: &[u64]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.copy_from_slice(src);
        v
    }

    /// Logical number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the logical length is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resizes to `len` words; new words are zero. Shrinking does not
    /// release memory (the buffer is intended for reuse across GEMM calls).
    pub fn resize_zeroed(&mut self, len: usize) {
        let lines = len.div_ceil(WORDS_PER_LINE);
        self.lines.resize(lines, CacheLine::default());
        // Words that become visible again after a shrink+grow cycle must be
        // zero; clear anything past the new logical end inside the last line.
        if len > self.len {
            let start = self.len;
            self.len = len;
            let slice = &mut self[..];
            for w in &mut slice[start.min(len)..] {
                *w = 0;
            }
        } else {
            self.len = len;
        }
        // Zero the slack beyond `len` so that a later grow sees zeros:
        // `lines` is exactly `⌈len / 8⌉` long, so the slack is the tail of
        // the last line.
        let used = len % WORDS_PER_LINE;
        if used != 0 {
            if let Some(last) = self.lines.last_mut() {
                last.0[used..].fill(0);
            }
        }
    }

    /// Ensures the buffer holds at least `len` zeroed words, reusing the
    /// existing allocation when possible, and zeroes the visible prefix.
    pub fn reset_zeroed(&mut self, len: usize) {
        self.resize_zeroed(len);
        for w in self.iter_mut() {
            *w = 0;
        }
    }

    /// Appends a word.
    pub fn push(&mut self, word: u64) {
        let idx = self.len;
        if idx == self.lines.len() * WORDS_PER_LINE {
            self.lines.push(CacheLine::default());
        }
        self.len += 1;
        self[idx] = word;
    }

    /// Raw pointer to the first word (64-byte aligned when non-empty).
    #[inline]
    pub fn as_ptr(&self) -> *const u64 {
        self.lines.as_ptr() as *const u64
    }

    /// Mutable raw pointer to the first word.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut u64 {
        self.lines.as_mut_ptr() as *mut u64
    }
}

impl Default for AlignedWords {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for AlignedWords {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        // SAFETY: `lines` owns `lines.len() * 8 >= self.len` contiguous u64s.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr() as *const u64, self.len) }
    }
}

impl DerefMut for AlignedWords {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as above; unique access through &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr() as *mut u64, self.len) }
    }
}

impl Clone for AlignedWords {
    fn clone(&self) -> Self {
        Self {
            lines: self.lines.clone(),
            len: self.len,
        }
    }
}

impl fmt::Debug for AlignedWords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedWords")
            .field("len", &self.len)
            .finish()
    }
}

impl PartialEq for AlignedWords {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for AlignedWords {}

impl FromIterator<u64> for AlignedWords {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut v = Self::new();
        for w in iter {
            v.push(w);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_64_bytes() {
        for n in [1usize, 7, 8, 9, 64, 1000] {
            let v = AlignedWords::zeroed(n);
            assert_eq!(v.as_ptr() as usize % 64, 0, "len={n}");
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn zeroed_is_zero() {
        let v = AlignedWords::zeroed(100);
        assert!(v.iter().all(|&w| w == 0));
    }

    #[test]
    fn push_and_index() {
        let mut v = AlignedWords::new();
        for i in 0..100u64 {
            v.push(i * i);
        }
        assert_eq!(v.len(), 100);
        for i in 0..100u64 {
            assert_eq!(v[i as usize], i * i);
        }
    }

    #[test]
    fn resize_zeroed_grows_with_zeros() {
        let mut v = AlignedWords::zeroed(3);
        v[0] = 1;
        v[1] = 2;
        v[2] = 3;
        v.resize_zeroed(10);
        assert_eq!(&v[..3], &[1, 2, 3]);
        assert!(v[3..].iter().all(|&w| w == 0));
    }

    #[test]
    fn shrink_then_grow_sees_zeros() {
        let mut v = AlignedWords::zeroed(10);
        for w in v.iter_mut() {
            *w = u64::MAX;
        }
        v.resize_zeroed(2);
        v.resize_zeroed(10);
        assert_eq!(&v[..2], &[u64::MAX, u64::MAX]);
        assert!(v[2..].iter().all(|&w| w == 0), "slack must be re-zeroed");
    }

    #[test]
    fn from_slice_round_trips() {
        let data: Vec<u64> = (0..37).map(|i| i * 3 + 1).collect();
        let v = AlignedWords::from_slice(&data);
        assert_eq!(&v[..], &data[..]);
    }

    #[test]
    fn clone_eq() {
        let v: AlignedWords = (0..20u64).collect();
        let w = v.clone();
        assert_eq!(v, w);
    }
}
