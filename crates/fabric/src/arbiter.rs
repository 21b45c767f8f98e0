//! Round-robin arbitration over candidate bitmasks.
//!
//! The switch shards (a mini switch of the segmented network, or the full
//! crossbar as one 32×32 switch) and the MAO in `hbm-mao` arbitrate
//! every output among up to `n` inputs once per cycle. Instead
//! of walking the inputs from each output's round-robin pointer and
//! re-examining every input's head per output, each ready head is routed
//! once, setting its input's bit in the destination output's row of a
//! [`RequestMasks`]; each output then grants with
//! [`RequestMasks::pick`]: the first set bit at or after the pointer,
//! wrapping. That is the winner the linear scan finds (see DESIGN.md
//! §3.11).
//!
//! The rows persist from cycle to cycle. A [`BitSet`] records which rows
//! hold a candidate, and another which inputs hold a head not routed
//! yet, so a cycle touches only the heads that arrive or leave and the
//! outputs with candidates.

/// One candidate bit set per arbiter ("row"), each over `width`
/// requesters, stored row-major as `width.div_ceil(64)` words per row,
/// so the masks put no limit on the number of masters or ports.
#[derive(Debug, Clone)]
pub struct RequestMasks {
    words_per_row: usize,
    words: Box<[u64]>,
}

impl RequestMasks {
    /// All-clear masks for `rows` arbiters over `width` requesters.
    pub fn new(rows: usize, width: usize) -> RequestMasks {
        let words_per_row = width.div_ceil(64).max(1);
        RequestMasks { words_per_row, words: vec![0; rows * words_per_row].into_boxed_slice() }
    }

    #[inline]
    fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.words_per_row..][..self.words_per_row]
    }

    /// Marks requester `bit` as a candidate at arbiter `row`.
    #[inline]
    pub fn set(&mut self, row: usize, bit: usize) {
        self.words[row * self.words_per_row + bit / 64] |= 1 << (bit % 64);
    }

    /// Withdraws requester `bit` from arbiter `row`.
    #[inline]
    pub fn clear(&mut self, row: usize, bit: usize) {
        self.words[row * self.words_per_row + bit / 64] &= !(1 << (bit % 64));
    }

    /// `true` when requester `bit` is a candidate at arbiter `row`.
    #[inline]
    pub fn contains(&self, row: usize, bit: usize) -> bool {
        self.row(row)[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Candidates over all rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when arbiter `row` has no candidate.
    #[inline]
    pub fn row_is_empty(&self, row: usize) -> bool {
        self.row(row).iter().all(|&w| w == 0)
    }

    /// Arbiter `row`'s round-robin grant: the first candidate at or after
    /// requester `start`, wrapping past the last requester to 0. `start`
    /// must be below the width.
    #[inline]
    pub fn pick(&self, row: usize, start: usize) -> Option<usize> {
        let words = self.row(row);
        let (sw, sb) = (start / 64, start % 64);
        let high = words[sw] & (!0u64 << sb);
        if high != 0 {
            return Some(sw * 64 + high.trailing_zeros() as usize);
        }
        // Later words, then the wrap: earlier words and finally the start
        // word's bits below `start` (its bits at or above were empty).
        (sw + 1..words.len())
            .chain(0..=sw)
            .find(|&w| words[w] != 0)
            .map(|w| w * 64 + words[w].trailing_zeros() as usize)
    }
}

/// A set of indices below a fixed width, one bit each, in
/// `width.div_ceil(64)` words.
#[derive(Debug, Clone)]
pub struct BitSet {
    words: Box<[u64]>,
}

impl BitSet {
    /// The empty set over `0..width`.
    pub fn new(width: usize) -> BitSet {
        BitSet { words: vec![0; width.div_ceil(64).max(1)].into_boxed_slice() }
    }

    /// Adds `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// `true` when `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of words; word `w` holds the indices `64 w .. 64 w + 64`.
    #[inline]
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// A copy of word `w`, which a caller can walk with [`ones`] while
    /// it changes the set.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| ones(word, 64 * w))
    }

    /// The smallest member at or after `i`, without wrapping.
    #[inline]
    pub fn first_from(&self, i: usize) -> Option<usize> {
        let w = i / 64;
        let first = *self.words.get(w)? & (!0u64 << (i % 64));
        if first != 0 {
            return Some(w * 64 + first.trailing_zeros() as usize);
        }
        (w + 1..self.words.len())
            .find(|&w| self.words[w] != 0)
            .map(|w| w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// The set bits of `word` in ascending order, offset by `base`.
#[inline]
pub fn ones(mut word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = base + word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear scan the masks replace.
    fn scan(bits: &[bool], start: usize) -> Option<usize> {
        let n = bits.len();
        (0..n).map(|j| (start + j) % n).find(|&i| bits[i])
    }

    #[test]
    fn pick_wraps_past_the_end() {
        let mut m = RequestMasks::new(1, 8);
        m.set(0, 2);
        m.set(0, 6);
        assert_eq!(m.pick(0, 0), Some(2));
        assert_eq!(m.pick(0, 3), Some(6));
        assert_eq!(m.pick(0, 7), Some(2));
        m.clear(0, 2);
        assert_eq!(m.pick(0, 7), Some(6));
        assert!(m.contains(0, 6) && !m.contains(0, 2));
        assert_eq!(m.count_ones(), 1);
        m.clear(0, 6);
        assert!(m.row_is_empty(0));
        assert_eq!(m.pick(0, 5), None);
    }

    #[test]
    fn rows_are_independent() {
        let mut m = RequestMasks::new(3, 130);
        m.set(1, 129);
        assert!(m.row_is_empty(0) && m.row_is_empty(2));
        assert_eq!(m.pick(1, 0), Some(129));
        assert_eq!(m.pick(1, 129), Some(129));
    }

    #[test]
    fn bitset_walks_members_in_order() {
        let mut s = BitSet::new(130);
        for i in [0, 63, 64, 129] {
            s.insert(i);
        }
        s.remove(63);
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 64, 129]);
        let walked: Vec<usize> = (0..s.words()).flat_map(|w| ones(s.word(w), 64 * w)).collect();
        assert_eq!(walked, [0, 64, 129]);
        assert!(s.contains(64) && !s.contains(63));
        assert_eq!(s.first_from(1), Some(64));
        assert_eq!(s.first_from(65), Some(129));
        assert_eq!(s.first_from(130), None);
        s.remove(129);
        assert_eq!(s.first_from(65), None);
    }

    proptest! {
        /// Multi-word picks match the linear round-robin scan for every
        /// pointer.
        #[test]
        fn pick_matches_linear_scan(
            bits in prop::collection::vec(any::<bool>(), 1..200),
            start_frac in 0u64..1000,
        ) {
            let n = bits.len();
            let mut m = RequestMasks::new(2, n);
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    m.set(1, i);
                }
            }
            let start = (start_frac as usize * n) / 1000;
            prop_assert_eq!(m.pick(1, start), scan(&bits, start));
            prop_assert!(m.row_is_empty(0));
        }
    }
}
