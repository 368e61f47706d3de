//! Fixed-size bitsets backing the level matching graphs.
//!
//! The DMG/UMG over `n` gathered functions was previously a
//! `Vec<Vec<usize>>` adjacency list: membership tests were linear scans
//! and "connected to every clique member" walked the whole neighbour
//! list per member. These dense structures make membership O(1) and
//! subset tests word-parallel (`u64` blocks), which is what the greedy
//! clique cover spends its time on once the matching tests themselves
//! are filtered down.

/// A fixed-capacity set of `usize` indices below `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bitset {
    blocks: Vec<u64>,
}

impl Bitset {
    /// An empty set over the universe `0..n`.
    pub(crate) fn new(n: usize) -> Bitset {
        Bitset {
            blocks: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.blocks[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.blocks[i >> 6] >> (i & 63) & 1 == 1
    }

    /// True iff every element of `self` is an element of `other`
    /// (word-parallel subset test). Universes must match.
    #[inline]
    pub(crate) fn subset_of(&self, other: &[u64]) -> bool {
        debug_assert_eq!(self.blocks.len(), other.len());
        self.blocks
            .iter()
            .zip(other)
            .all(|(&mine, &theirs)| mine & !theirs == 0)
    }
}

/// A dense `n × n` boolean matrix of `u64` blocks — the adjacency matrix
/// of a matching graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BitMatrix {
    words_per_row: usize,
    blocks: Vec<u64>,
}

impl BitMatrix {
    pub(crate) fn new(n: usize) -> BitMatrix {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            words_per_row,
            blocks: vec![0; n * words_per_row],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize) {
        self.blocks[row * self.words_per_row + (col >> 6)] |= 1 << (col & 63);
    }

    #[cfg(test)]
    pub(crate) fn get(&self, row: usize, col: usize) -> bool {
        self.blocks[row * self.words_per_row + (col >> 6)] >> (col & 63) & 1 == 1
    }

    /// The row's blocks, for word-parallel tests against a [`Bitset`].
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[u64] {
        &self.blocks[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Number of set bits in the row (the vertex degree).
    #[inline]
    pub(crate) fn row_len(&self, row: usize) -> usize {
        self.row(row).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the row has no set bits.
    #[inline]
    pub(crate) fn row_is_empty(&self, row: usize) -> bool {
        self.row(row).iter().all(|&w| w == 0)
    }

    /// The set column indices of the row, in ascending order — the same
    /// order the old `Vec<Vec<usize>>` adjacency produced, which keeps
    /// every downstream (stable) sort byte-compatible.
    #[inline]
    pub(crate) fn row_indices(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(row).iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some((wi << 6) | bit)
            })
        })
    }

    /// The first set column of the row, if any.
    #[inline]
    pub(crate) fn row_first(&self, row: usize) -> Option<usize> {
        self.row(row)
            .iter()
            .position(|&w| w != 0)
            .map(|wi| (wi << 6) | self.row(row)[wi].trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_membership_and_subset() {
        let mut s = Bitset::new(130);
        for i in [0, 63, 64, 65, 129] {
            assert!(!s.contains(i));
            s.insert(i);
            assert!(s.contains(i));
        }
        let mut m = BitMatrix::new(130);
        for i in [0, 1, 63, 64, 65, 100, 129] {
            m.set(5, i);
        }
        assert!(s.subset_of(m.row(5)));
        let mut bigger = s.clone();
        bigger.insert(2);
        assert!(!bigger.subset_of(m.row(5)));
    }

    #[test]
    fn matrix_rows_iterate_ascending() {
        let mut m = BitMatrix::new(200);
        let cols = [199, 0, 64, 3, 127, 128];
        for &c in &cols {
            m.set(7, c);
        }
        let got: Vec<usize> = m.row_indices(7).collect();
        assert_eq!(got, vec![0, 3, 64, 127, 128, 199]);
        assert_eq!(m.row_len(7), cols.len());
        assert_eq!(m.row_first(7), Some(0));
        assert!(m.row_is_empty(8));
        assert_eq!(m.row_first(8), None);
        assert!(m.get(7, 64) && !m.get(7, 65));
    }

    #[test]
    fn empty_universe_is_fine() {
        let s = Bitset::new(0);
        let m = BitMatrix::new(0);
        assert!(m.blocks.is_empty());
        assert!(s.subset_of(&[]));
    }
}
