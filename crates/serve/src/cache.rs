//! Epoch-keyed result cache.
//!
//! Keyed by `(graph, app, source, epoch)`: the epoch is the graph's
//! reorder-round version, bumped whenever the graph's one adaptation
//! session commits (or rolls back) a reordering round, whichever worker
//! decided it. A reorder therefore
//! invalidates every cached result for that graph *implicitly* — lookups at
//! the new epoch miss, and the stale entries age out of the LRU. Values are
//! stored in **original** node-id space (workers map them back through the
//! composed permutation before inserting), so a hit needs no remapping.
//!
//! Each entry holds its values in the narrowest form that decodes to them
//! bit for bit; no other module sees that form. Integer results (BFS depths
//! as `u32` bit patterns, SSSP distances, CC labels) take the narrowest of
//! `u8`, `u16` and `u32` whose maximum exceeds every reached value, and
//! that maximum stands for the `u32::MAX` unreached marker (depth −1).
//! Scores are kept as sparse `(index, bits)` pairs when at most half of
//! them are non-zero by bit pattern, and dense otherwise.
//! [`ResultCache::insert`] packs before it takes the lock;
//! [`ResultCache::get`] clones the packed entry's `Arc` under the lock and
//! widens it after releasing the lock, so a hit costs one O(|V|) decode
//! that no other lookup waits for.

use crate::types::{AppKind, GraphId, ResultValues};
use sage_graph::NodeId;
use std::collections::HashMap;
use std::mem::size_of_val;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Full cache key of one result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registered graph.
    pub graph: GraphId,
    /// Application.
    pub app: AppKind,
    /// Source node in original id space (0 for source-independent apps).
    pub source: NodeId,
    /// Graph epoch the result was computed at.
    pub epoch: u64,
}

/// `u32` words at the narrowest width whose maximum exceeds every word
/// other than `u32::MAX`; that maximum encodes `u32::MAX`.
#[derive(Debug)]
enum PackedWords {
    U8(Box<[u8]>),
    U16(Box<[u16]>),
    U32(Box<[u32]>),
}

impl PackedWords {
    fn pack(words: impl Iterator<Item = u32> + Clone) -> Self {
        let reached = words.clone().filter(|&w| w != u32::MAX).max().unwrap_or(0);
        // `try_from` fails only on the marker, every reached word fits
        if reached < u32::from(u8::MAX) {
            Self::U8(words.map(|w| u8::try_from(w).unwrap_or(u8::MAX)).collect())
        } else if reached < u32::from(u16::MAX) {
            Self::U16(
                words
                    .map(|w| u16::try_from(w).unwrap_or(u16::MAX))
                    .collect(),
            )
        } else {
            Self::U32(words.collect())
        }
    }

    fn unpack<T>(&self, from_word: impl Fn(u32) -> T) -> Vec<T> {
        match self {
            Self::U8(v) => v
                .iter()
                .map(|&b| from_word(if b == u8::MAX { u32::MAX } else { b.into() }))
                .collect(),
            Self::U16(v) => v
                .iter()
                .map(|&h| from_word(if h == u16::MAX { u32::MAX } else { h.into() }))
                .collect(),
            Self::U32(v) => v.iter().map(|&w| from_word(w)).collect(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Self::U8(v) => size_of_val(&**v),
            Self::U16(v) => size_of_val(&**v),
            Self::U32(v) => size_of_val(&**v),
        }
    }
}

/// One cached result in its stored form.
#[derive(Debug)]
enum PackedValues {
    /// [`ResultValues::Depths`], each depth as its `u32` bit pattern.
    Depths(PackedWords),
    /// [`ResultValues::Dists`].
    Dists(PackedWords),
    /// [`ResultValues::Scores`] with more than half non-zero.
    DenseScores(Box<[f32]>),
    /// [`ResultValues::Scores`] with at most half non-zero: `(index, bits)`
    /// of every non-zero bit pattern, in index order.
    SparseScores {
        len: usize,
        nonzero: Box<[(u32, u32)]>,
    },
}

impl PackedValues {
    fn pack(values: &ResultValues) -> Self {
        match values {
            // the cast reinterprets the sign bit: −1 becomes `u32::MAX`
            ResultValues::Depths(v) => Self::Depths(PackedWords::pack(v.iter().map(|&d| d as u32))),
            ResultValues::Dists(v) => Self::Dists(PackedWords::pack(v.iter().copied())),
            ResultValues::Scores(v) => {
                let nonzero = v.iter().filter(|s| s.to_bits() != 0).count();
                if 2 * nonzero <= v.len() {
                    Self::SparseScores {
                        len: v.len(),
                        nonzero: (0u32..)
                            .zip(v)
                            .map(|(i, s)| (i, s.to_bits()))
                            .filter(|&(_, bits)| bits != 0)
                            .collect(),
                    }
                } else {
                    Self::DenseScores(v.as_slice().into())
                }
            }
        }
    }

    fn unpack(&self) -> ResultValues {
        match self {
            Self::Depths(w) => ResultValues::Depths(w.unpack(|w| w as i32)),
            Self::Dists(w) => ResultValues::Dists(w.unpack(|w| w)),
            Self::DenseScores(v) => ResultValues::Scores(v.to_vec()),
            Self::SparseScores { len, nonzero } => {
                let mut scores = vec![0.0f32; *len];
                for &(i, bits) in nonzero.iter() {
                    scores[i as usize] = f32::from_bits(bits);
                }
                ResultValues::Scores(scores)
            }
        }
    }

    /// Bytes of stored values.
    fn bytes(&self) -> usize {
        match self {
            Self::Depths(w) | Self::Dists(w) => w.bytes(),
            Self::DenseScores(v) => size_of_val(&**v),
            Self::SparseScores { nonzero, .. } => size_of_val(&**nonzero),
        }
    }
}

struct Entry {
    values: Arc<PackedValues>,
    /// LRU clock value of the last touch.
    touched: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// Bounded LRU cache of query results with hit/miss accounting.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a result, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<Arc<ResultValues>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let packed = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.clock += 1;
            let clock = inner.clock;
            inner.map.get_mut(key).map(|entry| {
                entry.touched = clock;
                Arc::clone(&entry.values)
            })
        };
        match packed {
            Some(packed) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(packed.unpack()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly computed result, evicting the least-recently used
    /// entry when at capacity.
    pub fn insert(&self, key: CacheKey, values: &ResultValues) {
        if self.capacity == 0 {
            return;
        }
        let values = Arc::new(PackedValues::pack(values));
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clock += 1;
        let clock = inner.clock;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(oldest) = inner
                .map
                // sage-lint: allow(hash-iter) — min_by_key over strictly increasing `touched` clocks picks a unique entry, so visit order cannot affect which key is evicted
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            Entry {
                values,
                touched: clock,
            },
        );
    }

    /// Drop every entry of `graph` older than `epoch` (housekeeping; epoch
    /// keying already makes them unreachable through [`ResultCache::get`]).
    pub fn sweep_stale(&self, graph: GraphId, epoch: u64) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .retain(|k, _| k.graph != graph || k.epoch >= epoch);
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of stored values across all entries, in their packed form.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            // sage-lint: allow(hash-iter) — an integer sum is the same in every visit order
            .values()
            .map(|e| e.values.bytes())
            .sum()
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Hit rate over all lookups so far (0.0 when none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed);
        let m = self.misses.load(Ordering::Relaxed);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(source: NodeId, epoch: u64) -> CacheKey {
        CacheKey {
            graph: 0,
            app: AppKind::Bfs,
            source,
            epoch,
        }
    }

    fn values(tag: i32) -> ResultValues {
        ResultValues::Depths(vec![tag; 4])
    }

    /// Pack `values`, check the stored form with `form`, and check that it
    /// decodes bit for bit.
    fn round_trip(values: &ResultValues, form: impl Fn(&PackedValues) -> bool) {
        let packed = PackedValues::pack(values);
        assert!(form(&packed), "{values:?} packed as {packed:?}");
        match (values, packed.unpack()) {
            (ResultValues::Scores(want), ResultValues::Scores(got)) => {
                let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(want), bits(&got));
            }
            (want, got) => assert_eq!(*want, got),
        }
    }

    fn dists_as(v: Vec<u32>, width: fn(&PackedWords) -> bool) {
        round_trip(
            &ResultValues::Dists(v),
            |p| matches!(p, PackedValues::Dists(w) if width(w)),
        );
    }

    #[test]
    fn integers_take_the_narrowest_width_above_every_reached_value() {
        let u8w = |w: &PackedWords| matches!(w, PackedWords::U8(_));
        let u16w = |w: &PackedWords| matches!(w, PackedWords::U16(_));
        let u32w = |w: &PackedWords| matches!(w, PackedWords::U32(_));
        dists_as(vec![0, 254, u32::MAX], u8w);
        dists_as(vec![0, 255, u32::MAX], u16w);
        dists_as(vec![65534, 3, u32::MAX], u16w);
        dists_as(vec![65535, 3, u32::MAX], u32w);
        dists_as(vec![u32::MAX - 1, u32::MAX, 0], u32w);
        dists_as(vec![u32::MAX; 3], u8w);
        dists_as(Vec::new(), u8w);
    }

    #[test]
    fn depths_keep_minus_one_and_other_negatives_exact() {
        round_trip(&ResultValues::Depths(vec![0, 1, -1, 254, -1]), |p| {
            matches!(p, PackedValues::Depths(PackedWords::U8(_)))
        });
        round_trip(&ResultValues::Depths(vec![0, 255, -1]), |p| {
            matches!(p, PackedValues::Depths(PackedWords::U16(_)))
        });
        // −2 is the bit pattern `u32::MAX - 1`: a reached value only 32 bits hold
        round_trip(&ResultValues::Depths(vec![0, -2, -1]), |p| {
            matches!(p, PackedValues::Depths(PackedWords::U32(_)))
        });
        round_trip(&ResultValues::Depths(Vec::new()), |p| {
            matches!(p, PackedValues::Depths(PackedWords::U8(_)))
        });
    }

    #[test]
    fn scores_go_sparse_up_to_half_nonzero_and_keep_every_bit() {
        let sparse = |p: &PackedValues| matches!(p, PackedValues::SparseScores { .. });
        let dense = |p: &PackedValues| matches!(p, PackedValues::DenseScores(_));
        let nan = f32::from_bits(0x7fc0_1234);
        let subnormal = f32::from_bits(1);
        round_trip(&ResultValues::Scores(vec![0.0; 6]), sparse);
        round_trip(&ResultValues::Scores(Vec::new()), sparse);
        round_trip(&ResultValues::Scores(vec![0.5, 0.0, 0.25, 0.0]), sparse);
        round_trip(&ResultValues::Scores(vec![0.5, 0.0, 0.25, 1.0]), dense);
        // −0.0 is non-zero by bit pattern, so it is stored and restored
        round_trip(&ResultValues::Scores(vec![-0.0, 0.0, nan, 0.0]), sparse);
        round_trip(
            &ResultValues::Scores(vec![-0.0, subnormal, nan, 0.0]),
            dense,
        );
        round_trip(&ResultValues::Scores(vec![subnormal, 0.0, 0.0]), sparse);
    }

    #[test]
    fn bytes_count_the_packed_form() {
        let c = ResultCache::new(8);
        c.insert(key(1, 0), &ResultValues::Depths(vec![3, -1, 0, 7]));
        assert_eq!(c.bytes(), 4, "one byte per depth");
        c.insert(key(2, 0), &ResultValues::Dists(vec![300, u32::MAX]));
        assert_eq!(c.bytes(), 4 + 2 * 2);
        c.insert(key(3, 0), &ResultValues::Scores(vec![0.0, 0.0, 0.0, 0.5]));
        assert_eq!(c.bytes(), 4 + 4 + 8, "one (index, bits) pair");
        c.sweep_stale(0, 1);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(8);
        assert!(c.get(&key(1, 0)).is_none());
        c.insert(key(1, 0), &values(7));
        assert_eq!(
            *c.get(&key(1, 0)).unwrap(),
            ResultValues::Depths(vec![7; 4])
        );
        assert_eq!(c.counters(), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_change_misses() {
        let c = ResultCache::new(8);
        c.insert(key(1, 0), &values(7));
        assert!(
            c.get(&key(1, 1)).is_none(),
            "new epoch must not see old results"
        );
        assert!(c.get(&key(1, 0)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.insert(key(1, 0), &values(1));
        c.insert(key(2, 0), &values(2));
        let _ = c.get(&key(1, 0)); // touch 1 so 2 is the LRU
        c.insert(key(3, 0), &values(3));
        assert!(c.get(&key(2, 0)).is_none(), "LRU entry should be evicted");
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(3, 0)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sweep_drops_only_stale_entries_of_graph() {
        let c = ResultCache::new(8);
        c.insert(key(1, 0), &values(1));
        c.insert(key(2, 3), &values(2));
        c.insert(
            CacheKey {
                graph: 9,
                app: AppKind::Bfs,
                source: 1,
                epoch: 0,
            },
            &values(3),
        );
        c.sweep_stale(0, 3);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2, 3)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.insert(key(1, 0), &values(1));
        assert!(c.get(&key(1, 0)).is_none());
        assert!(c.is_empty());
    }
}
