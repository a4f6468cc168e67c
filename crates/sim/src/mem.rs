//! Device memory: a bump allocator that assigns stable virtual addresses to
//! arrays, and [`DeviceArray<T>`], the typed array engines operate on.
//!
//! The simulator never copies user data through the cache model — a
//! `DeviceArray` holds its elements in an ordinary `Vec<T>` for functional
//! execution, and exposes per-element *addresses* that the engine feeds into
//! the memory model for cost accounting. This separation keeps the hot loops
//! branch-light (guide: flat data structures, no hashing on the hot path).

use std::ops::{Index, IndexMut};

/// Where an allocation lives, which decides what a miss costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSpace {
    /// GPU device memory (GDDR).
    Device,
    /// Host memory reached over PCIe (out-of-core scenario).
    Host,
}

use serde::{Deserialize, Serialize};

/// Bump allocator handing out 256-byte-aligned address ranges.
///
/// Alignment to 256 bytes keeps every allocation line- and sector-aligned,
/// mirroring `cudaMalloc` guarantees; tile alignment optimisations (§5.3)
/// rely on this.
#[derive(Debug, Clone)]
pub struct Allocator {
    cursor: u64,
}

/// Alignment (bytes) of every allocation.
pub const ALLOC_ALIGN: u64 = 256;

impl Allocator {
    /// A fresh allocator for the given address space. Device and host spaces
    /// are disjoint: host addresses start at 2^40.
    #[must_use]
    pub fn new(space: MemSpace) -> Self {
        let cursor = match space {
            MemSpace::Device => ALLOC_ALIGN,
            MemSpace::Host => 1 << 40,
        };
        Self { cursor }
    }

    /// Reserve `bytes` and return the base address.
    pub fn alloc(&mut self, bytes: usize) -> u64 {
        let base = self.cursor;
        let sz = (bytes as u64).max(1);
        self.cursor = (base + sz).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        base
    }
}

/// Returns true if `addr` belongs to the host address space.
#[must_use]
pub fn is_host_addr(addr: u64) -> bool {
    addr >= (1 << 40)
}

/// A typed array with a stable device (or host) address.
///
/// Functionally it is a `Vec<T>`; architecturally every element `i` lives at
/// `base + i * size_of::<T>()`, and engines report those addresses to the
/// memory model.
#[derive(Debug, Clone)]
pub struct DeviceArray<T> {
    base: u64,
    data: Vec<T>,
}

impl<T: Clone> DeviceArray<T> {
    /// Allocate an array of `len` copies of `fill`.
    pub fn new(alloc: &mut Allocator, len: usize, fill: T) -> Self {
        let base = alloc.alloc(len * std::mem::size_of::<T>());
        Self {
            base,
            data: vec![fill; len],
        }
    }

    /// Reset all elements to `fill` (functional only; charges nothing).
    pub fn fill(&mut self, fill: T) {
        self.data.fill(fill);
    }
}

impl<T> DeviceArray<T> {
    /// Address of element `i`.
    #[inline]
    #[must_use]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.data.len(), "address of out-of-bounds element");
        self.base + (i * std::mem::size_of::<T>()) as u64
    }

    /// Base address of the allocation.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// View of the underlying elements.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T> Index<usize> for DeviceArray<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T> IndexMut<usize> for DeviceArray<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocations_are_aligned_and_disjoint() {
        let mut a = Allocator::new(MemSpace::Device);
        let x = a.alloc(100);
        let y = a.alloc(1);
        let z = a.alloc(4096);
        assert_eq!(x % ALLOC_ALIGN, 0);
        assert_eq!(y % ALLOC_ALIGN, 0);
        assert_eq!(z % ALLOC_ALIGN, 0);
        assert!(y >= x + 100);
        assert!(z > y);
    }

    #[test]
    fn host_and_device_spaces_disjoint() {
        let mut d = Allocator::new(MemSpace::Device);
        let mut h = Allocator::new(MemSpace::Host);
        for _ in 0..1000 {
            d.alloc(1 << 20);
        }
        let da = d.alloc(8);
        let ha = h.alloc(8);
        assert!(!is_host_addr(da));
        assert!(is_host_addr(ha));
    }

    #[test]
    fn device_array_addresses_follow_layout() {
        let mut a = Allocator::new(MemSpace::Device);
        let arr = DeviceArray::<u32>::new(&mut a, 16, 0);
        assert_eq!(arr.addr(1) - arr.addr(0), 4);
        assert_eq!(arr.addr(15), arr.base() + 60);
        assert_eq!(arr.len(), 16);
    }

    #[test]
    fn device_array_indexing_and_fill() {
        let mut a = Allocator::new(MemSpace::Device);
        let mut arr = DeviceArray::<i64>::new(&mut a, 4, -1);
        arr[2] = 42;
        assert_eq!(arr[2], 42);
        assert_eq!(arr[0], -1);
        arr.fill(7);
        assert_eq!(arr.as_slice(), &[7, 7, 7, 7]);
    }

    #[test]
    fn allocations_round_up_to_256_bytes() {
        let mut a = Allocator::new(MemSpace::Device);
        let x = a.alloc(256);
        let y = a.alloc(1);
        let z = a.alloc(0);
        assert_eq!(x % ALLOC_ALIGN, 0);
        assert_eq!(y - x, 256);
        assert_eq!(z - y, 256, "a 1-byte allocation still takes 256 bytes");
    }

    #[test]
    fn zero_sized_alloc_still_advances() {
        let mut a = Allocator::new(MemSpace::Device);
        let x = a.alloc(0);
        let y = a.alloc(0);
        assert_ne!(x, y);
    }
}
