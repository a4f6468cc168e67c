//! Host-memory access pool for out-of-core execution: a unified-memory
//! (UM \[25\]) style page cache kept in device memory.
//!
//! The alternative out-of-core strategy — on-demand zero-copy access — is
//! modelled directly by [`crate::kernel::SmShard::access`] on host-space
//! addresses; this module provides the cache-like pool with page-granular
//! migration and LRU eviction.

use std::collections::HashMap;

/// Outcome of touching an address through the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolAccess {
    /// Page already resident in device memory.
    Hit,
    /// Page fault: the page was migrated over PCIe (possibly evicting).
    Fault,
}

/// An LRU page pool of fixed capacity.
///
/// Uses an intrusive doubly-linked list over a slot vector so that both the
/// hit path and the eviction path are O(1) — no stamp scans.
#[derive(Debug)]
pub struct UmPool {
    page_bytes: u64,
    capacity_pages: usize,
    /// page id -> slot index
    index: HashMap<u64, usize>,
    /// slot -> (page_id, prev, next); `usize::MAX` terminates the list.
    slots: Vec<(u64, usize, usize)>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    faults: u64,
    evictions: u64,
}

const NIL: usize = usize::MAX;

impl UmPool {
    /// A pool holding `capacity_bytes` of `page_bytes`-sized pages.
    ///
    /// # Panics
    /// Panics if the capacity is smaller than one page.
    #[must_use]
    pub fn new(capacity_bytes: u64, page_bytes: u64) -> Self {
        let capacity_pages = (capacity_bytes / page_bytes) as usize;
        assert!(capacity_pages >= 1, "pool must hold at least one page");
        Self {
            page_bytes,
            capacity_pages,
            index: HashMap::with_capacity(capacity_pages * 2),
            slots: Vec::with_capacity(capacity_pages),
            head: NIL,
            tail: NIL,
            hits: 0,
            faults: 0,
            evictions: 0,
        }
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Touch the page containing `addr`. On a fault the caller must charge a
    /// PCIe transfer of [`Self::page_bytes`].
    pub fn access(&mut self, addr: u64) -> PoolAccess {
        let page = addr / self.page_bytes;
        if let Some(&slot) = self.index.get(&page) {
            self.hits += 1;
            self.move_to_front(slot);
            return PoolAccess::Hit;
        }
        self.faults += 1;
        if self.slots.len() < self.capacity_pages {
            let slot = self.slots.len();
            self.slots.push((page, NIL, self.head));
            self.link_front(slot);
            self.index.insert(page, slot);
        } else {
            // Evict LRU tail, reuse its slot.
            let slot = self.tail;
            let (old_page, _, _) = self.slots[slot];
            self.unlink(slot);
            self.index.remove(&old_page);
            self.evictions += 1;
            self.slots[slot] = (page, NIL, self.head);
            self.link_front(slot);
            self.index.insert(page, slot);
        }
        PoolAccess::Fault
    }

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].1 = NIL;
        self.slots[slot].2 = self.head;
        if self.head != NIL {
            self.slots[self.head].1 = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (_, prev, next) = self.slots[slot];
        if prev != NIL {
            self.slots[prev].2 = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].1 = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.link_front(slot);
    }

    /// `(hits, faults, evictions)` so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.faults, self.evictions)
    }

    /// Pages currently resident.
    // sage-lint: allow(dead-pub) — prop_sim::um_pool_never_exceeds_capacity bounds the pool's occupancy with it
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Drop every page (fresh run).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_faults_second_hits() {
        let mut p = UmPool::new(4096 * 4, 4096);
        assert_eq!(p.access(0), PoolAccess::Fault);
        assert_eq!(p.access(100), PoolAccess::Hit);
        assert_eq!(p.access(4096), PoolAccess::Fault);
        assert_eq!(p.stats(), (1, 2, 0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut p = UmPool::new(4096 * 2, 4096); // 2 pages
        p.access(0); // page 0
        p.access(4096); // page 1
        p.access(0); // touch page 0 -> page 1 is LRU
        p.access(8192); // page 2 evicts page 1
        assert_eq!(p.access(0), PoolAccess::Hit);
        assert_eq!(p.access(4096), PoolAccess::Fault);
        assert!(p.stats().2 >= 1);
    }

    #[test]
    fn capacity_respected() {
        let mut p = UmPool::new(4096 * 8, 4096);
        for i in 0..100u64 {
            p.access(i * 4096);
        }
        assert_eq!(p.resident_pages(), 8);
    }

    #[test]
    fn clear_empties_pool() {
        let mut p = UmPool::new(4096 * 2, 4096);
        p.access(0);
        p.clear();
        assert_eq!(p.resident_pages(), 0);
        assert_eq!(p.access(0), PoolAccess::Fault);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_rejected() {
        let _ = UmPool::new(100, 4096);
    }

    #[test]
    fn single_page_pool_thrashes() {
        let mut p = UmPool::new(4096, 4096);
        p.access(0);
        p.access(4096);
        p.access(0);
        let (h, f, e) = p.stats();
        assert_eq!(h, 0);
        assert_eq!(f, 3);
        assert_eq!(e, 2);
    }

    #[test]
    fn interleaved_workload_mix() {
        let mut p = UmPool::new(4096 * 4, 4096);
        // Working set of 3 pages inside a 4-page pool: after warmup, all hits.
        for _ in 0..10 {
            p.access(0);
            p.access(4096);
            p.access(8192);
        }
        let (h, f, _) = p.stats();
        assert_eq!(f, 3);
        assert_eq!(h, 27);
    }
}
