//! Round-robin arbitration over candidate bitmasks.
//!
//! The switch shards (a mini switch of the segmented network, or the full
//! crossbar as one 32×32 switch) and the MAO in `hbm-mao` arbitrate
//! every output among up to `n` inputs once per cycle. Instead
//! of walking the inputs from each output's round-robin pointer and
//! re-examining every input's head per output, a tick first routes each
//! ready head once, setting its input's bit in the destination output's
//! row of a [`RequestMasks`], then grants per output with
//! [`RequestMasks::pick`]: the first set bit at or after the pointer,
//! wrapping. That is the winner the linear scan finds (see DESIGN.md
//! §3.11).

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

    /// Clears every row.
    #[inline]
    pub fn clear_all(&mut self) {
        self.words.fill(0);
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
        m.clear_all();
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
