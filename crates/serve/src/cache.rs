//! Epoch-keyed result cache.
//!
//! Keyed by `(graph, app, source, epoch)`: the epoch is the graph's
//! reorder-round version, bumped whenever the graph's one adaptation
//! session commits (or rolls back) a reordering round, whichever worker
//! decided it. A reorder therefore
//! invalidates every cached result for that graph *implicitly* — lookups at
//! the new epoch miss, and the stale entries age out of the LRU. Values are
//! stored in **original** node-id space (workers map them back through the
//! composed permutation before inserting), so a hit is returned without any
//! remapping work.

use crate::types::{AppKind, GraphId, ResultValues};
use sage_graph::NodeId;
use std::collections::HashMap;
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

struct Entry {
    values: Arc<ResultValues>,
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
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.touched = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.values))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly computed result, evicting the least-recently used
    /// entry when at capacity.
    pub fn insert(&self, key: CacheKey, values: Arc<ResultValues>) {
        if self.capacity == 0 {
            return;
        }
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

    fn values(tag: i32) -> Arc<ResultValues> {
        Arc::new(ResultValues::Depths(vec![tag; 4]))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(8);
        assert!(c.get(&key(1, 0)).is_none());
        c.insert(key(1, 0), values(7));
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
        c.insert(key(1, 0), values(7));
        assert!(
            c.get(&key(1, 1)).is_none(),
            "new epoch must not see old results"
        );
        assert!(c.get(&key(1, 0)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.insert(key(1, 0), values(1));
        c.insert(key(2, 0), values(2));
        let _ = c.get(&key(1, 0)); // touch 1 so 2 is the LRU
        c.insert(key(3, 0), values(3));
        assert!(c.get(&key(2, 0)).is_none(), "LRU entry should be evicted");
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(3, 0)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sweep_drops_only_stale_entries_of_graph() {
        let c = ResultCache::new(8);
        c.insert(key(1, 0), values(1));
        c.insert(key(2, 3), values(2));
        c.insert(
            CacheKey {
                graph: 9,
                app: AppKind::Bfs,
                source: 1,
                epoch: 0,
            },
            values(3),
        );
        c.sweep_stale(0, 3);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2, 3)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.insert(key(1, 0), values(1));
        assert!(c.get(&key(1, 0)).is_none());
        assert!(c.is_empty());
    }
}
