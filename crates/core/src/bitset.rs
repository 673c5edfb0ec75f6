//! Fixed-width bitset rows and row-major bit matrices.
//!
//! The bit-parallel kernels of this workspace (the AC-3 type-elimination
//! kernel in `gomq-rewriting`, most prominently) represent sets of small
//! dense indices as `&[u64]` rows of a fixed word width. This module
//! holds the shared primitives: word-count arithmetic, single-bit
//! access, the row combinators (`or_assign`, `and_assign`, …), a
//! set-bit iterator, and [`BitMatrix`], a row-major matrix of such rows.
//!
//! All row operations require both operands to have the same word
//! width; rows are plain `u64` slices so callers can store many of them
//! contiguously and split-borrow freely.

/// Number of 64-bit words needed to hold `bits` bits.
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Sets bit `i` of the row.
#[inline]
pub fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1u64 << (i % 64);
}

/// Clears bit `i` of the row.
#[inline]
pub fn clear_bit(row: &mut [u64], i: usize) {
    row[i / 64] &= !(1u64 << (i % 64));
}

/// Whether bit `i` of the row is set.
#[inline]
pub fn test_bit(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1u64 << (i % 64)) != 0
}

/// `dst |= src`, word-parallel.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// `dst &= src`, word-parallel; returns how many bits of `dst` it
/// cleared (0 when `dst` did not change).
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) -> usize {
    debug_assert_eq!(dst.len(), src.len());
    let mut cleared = 0;
    for (d, s) in dst.iter_mut().zip(src) {
        cleared += (*d & !s).count_ones() as usize;
        *d &= s;
    }
    cleared
}

/// Whether no bit of the row is set.
#[inline]
pub fn is_zero(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// Whether the rows share a set bit.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Number of set bits in the row.
#[inline]
pub fn count_ones(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Iterates over the indices of the set bits, ascending.
pub fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors(if w == 0 { None } else { Some(w) }, |&rest| {
            let next = rest & (rest - 1);
            if next == 0 {
                None
            } else {
                Some(next)
            }
        })
        .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
    })
}

/// A fresh all-ones row over `bits` valid bits (trailing bits clear, so
/// `count_ones` and `ones` never see phantom members).
pub fn full_row(bits: usize) -> Vec<u64> {
    let mut row = vec![u64::MAX; words_for(bits)];
    let tail = bits % 64;
    if tail != 0 {
        if let Some(last) = row.last_mut() {
            *last = (1u64 << tail) - 1;
        }
    }
    row
}

/// A row-major matrix of equally wide bitset rows.
///
/// Row `r` is the word slice `[r·width, (r+1)·width)` of one contiguous
/// buffer; columns index bits within a row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    width: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix with `rows` rows of `cols` bits each.
    pub fn new(rows: usize, cols: usize) -> Self {
        let width = words_for(cols);
        BitMatrix {
            rows,
            cols,
            width,
            words: vec![0; rows * width],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit columns per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Word width of each row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sets bit `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        set_bit(self.row_mut(r), c);
    }

    /// Whether bit `(r, c)` is set.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        test_bit(self.row(r), c)
    }

    /// The row as a word slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// The row as a mutable word slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.width..(r + 1) * self.width]
    }

    /// Total number of set bits across all rows.
    pub fn count_ones(&self) -> usize {
        count_ones(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_full_rows() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(count_ones(&full_row(0)), 0);
        assert_eq!(count_ones(&full_row(64)), 64);
        assert_eq!(count_ones(&full_row(70)), 70);
        assert_eq!(ones(&full_row(3)).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn row_ops_roundtrip() {
        let mut a = vec![0u64; 2];
        set_bit(&mut a, 5);
        set_bit(&mut a, 64);
        set_bit(&mut a, 127);
        assert!(test_bit(&a, 5) && test_bit(&a, 64) && test_bit(&a, 127));
        assert_eq!(ones(&a).collect::<Vec<_>>(), vec![5, 64, 127]);
        clear_bit(&mut a, 64);
        assert_eq!(count_ones(&a), 2);
        let mut b = vec![0u64; 2];
        set_bit(&mut b, 5);
        assert!(intersects(&a, &b));
        // AND shrinks a to {5}, reporting the one bit it cleared; a
        // second AND is a fixpoint.
        assert_eq!(and_assign(&mut a, &b), 1);
        assert_eq!(and_assign(&mut a, &b), 0);
        assert_eq!(ones(&a).collect::<Vec<_>>(), vec![5]);
        or_assign(&mut b, &full_row(128));
        assert_eq!(count_ones(&b), 128);
        assert!(!is_zero(&b));
        assert!(is_zero(&[0, 0]));
    }

    #[test]
    fn matrix_rows_are_independent() {
        let mut m = BitMatrix::new(3, 70);
        m.set(0, 0);
        m.set(1, 69);
        m.set(2, 64);
        assert!(m.get(0, 0) && m.get(1, 69) && m.get(2, 64));
        assert!(!m.get(0, 69));
        assert_eq!(m.count_ones(), 3);
        assert_eq!(m.width(), 2);
        assert_eq!(ones(m.row(1)).collect::<Vec<_>>(), vec![69]);
    }
}
