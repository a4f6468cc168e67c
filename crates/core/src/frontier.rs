//! The dense frontier bitmap for direction-optimizing traversal.
//!
//! The runner holds every frontier as a **sparse queue** (`Vec<NodeId>`,
//! the compacted node list the push pipeline of Figure 2 produces). A pull
//! or matrix iteration builds a **dense bitmap** from it (one bit per node,
//! the representation bottom-up iterations probe per in-edge) in O(|F|)
//! bit sets.

use sage_graph::NodeId;

/// Dense frontier: one bit per node plus the device address of the backing
/// word array, so engines can charge their membership probes.
#[derive(Debug, Clone, Default)]
pub struct BitFrontier {
    words: Vec<u64>,
    device_base: u64,
}

impl BitFrontier {
    /// An empty bitmap over `num_nodes` nodes backed by the device word
    /// array at `device_base`.
    #[must_use]
    pub fn new(num_nodes: usize, device_base: u64) -> Self {
        Self {
            words: vec![0u64; num_nodes.div_ceil(64).max(1)],
            device_base,
        }
    }

    /// Build from a node list (need not be sorted or unique — the bitmap
    /// dedups by construction).
    #[must_use]
    pub fn from_nodes(nodes: &[NodeId], num_nodes: usize, device_base: u64) -> Self {
        let mut b = Self::new(num_nodes, device_base);
        for &u in nodes {
            b.insert(u);
        }
        b
    }

    /// Set node `u`'s bit; returns true when it was newly set.
    pub fn insert(&mut self, u: NodeId) -> bool {
        let (w, bit) = (u as usize / 64, u as usize % 64);
        let mask = 1u64 << bit;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            true
        } else {
            false
        }
    }

    /// True when node `u`'s bit is set.
    #[must_use]
    pub fn contains(&self, u: NodeId) -> bool {
        self.words[u as usize / 64] & (1u64 << (u as usize % 64)) != 0
    }

    /// Number of backing 8-byte words.
    #[must_use]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Device address of the word holding node `u`'s bit (what a pull
    /// engine reads to test membership).
    #[inline]
    #[must_use]
    pub fn word_addr(&self, u: NodeId) -> u64 {
        self.device_base + (u as u64 / 64) * 8
    }

    /// Device address of the word array.
    #[must_use]
    pub fn device_base(&self) -> u64 {
        self.device_base
    }

    /// Device address of backing word `wi` (companion to [`Self::set_words`];
    /// [`Self::word_addr`] is the per-node form pull probes use).
    #[inline]
    #[must_use]
    pub fn word_addr_at(&self, wi: usize) -> u64 {
        self.device_base + wi as u64 * 8
    }

    /// Iterate the **nonzero** backing words as `(word_index, word)` pairs in
    /// ascending order — the shared walk for everything that scans the bitmap
    /// at word granularity (matrix-mode fragment reads, dense bit-set
    /// charging, sparse extraction), so callers stop re-deriving word
    /// addresses ad hoc.
    pub fn set_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .map(|(wi, &w)| (wi, w))
    }

    /// Extract the set nodes in ascending order (the contraction-compatible
    /// sparse queue: sorted and duplicate-free by construction).
    #[must_use]
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (wi, w) in self.set_words() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push((wi * 64) as NodeId + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_count() {
        let mut b = BitFrontier::new(200, 0);
        assert!(b.to_vec().is_empty());
        assert!(b.insert(3));
        assert!(b.insert(130));
        assert!(!b.insert(3), "re-insert is a no-op");
        assert_eq!(b.to_vec().len(), 2);
        assert!(b.contains(3));
        assert!(b.contains(130));
        assert!(!b.contains(4));
    }

    #[test]
    fn to_vec_is_sorted_and_deduped() {
        let b = BitFrontier::from_nodes(&[70, 3, 3, 199, 0, 70], 200, 0);
        assert_eq!(b.to_vec(), vec![0, 3, 70, 199]);
    }

    #[test]
    fn word_addr_steps_by_eight_bytes() {
        let b = BitFrontier::new(256, 1 << 20);
        assert_eq!(b.word_addr(0), 1 << 20);
        assert_eq!(b.word_addr(63), 1 << 20);
        assert_eq!(b.word_addr(64), (1 << 20) + 8);
        assert_eq!(b.num_words(), 4);
    }

    #[test]
    fn set_words_skips_zero_words_and_matches_popcount() {
        let b = BitFrontier::from_nodes(&[3, 70, 199], 256, 1 << 20);
        let words: Vec<(usize, u64)> = b.set_words().collect();
        assert_eq!(words.len(), 3, "word 2 (128..191) is empty and skipped");
        assert_eq!(words[0].0, 0);
        assert_eq!(words[1].0, 1);
        assert_eq!(words[2].0, 3);
        let pop: u32 = words.iter().map(|&(_, w)| w.count_ones()).sum();
        assert_eq!(pop, 3);
        assert_eq!(b.word_addr_at(1), (1 << 20) + 8);
        assert_eq!(b.word_addr_at(1), b.word_addr(70));
    }
}
