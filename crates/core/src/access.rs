//! Tile-batched access recording.
//!
//! Applications describe the per-edge state accesses their `filter` makes by
//! recording addresses here; the engine flushes one recorder per *tile* so
//! that the lanes' accesses coalesce together — the exact behaviour
//! Sampling-based Reordering optimises (§6: reads on graph data are
//! "concurrent memory access in tiles").
//!
//! All per-node state arrays use 4-byte elements (i32 / f32 / u32), matching
//! the paper's 4-byte-label analysis in §3.2.

use gpu_sim::{AccessKind, SmShard};

/// Width of every recorded element, bytes.
pub const STATE_ELEM_BYTES: usize = 4;

/// Addresses accumulated by `filter` calls within one tile batch.
#[derive(Debug, Default, Clone)]
pub struct AccessRecorder {
    reads: Vec<u64>,
    dirty: Vec<u64>,
    atomics: Vec<u64>,
}

impl AccessRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a 4-byte load from `addr`.
    #[inline]
    pub fn read(&mut self, addr: u64) {
        self.reads.push(addr);
    }

    /// Record a 4-byte *dirty write* to `addr`: a store the application
    /// asserts is a benign race by construction (same-value or monotone —
    /// the paper's §7.2 "dirty write" idiom). Costs exactly like a plain
    /// store but is exempt from the race sanitizer.
    #[inline]
    pub fn write_dirty(&mut self, addr: u64) {
        self.dirty.push(addr);
    }

    /// Record a 4-byte atomic read-modify-write at `addr`.
    #[inline]
    pub fn atomic(&mut self, addr: u64) {
        self.atomics.push(addr);
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reads.len() + self.dirty.len() + self.atomics.len()
    }

    /// True when nothing is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded events.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.dirty.clear();
        self.atomics.clear();
    }

    /// Charge everything recorded to the shard's SM, splitting into
    /// warp-width requests, then clear.
    pub fn flush(&mut self, sh: &mut SmShard<'_, '_>) {
        let warp = sh.cfg().warp_size;
        for chunk in self.reads.chunks(warp) {
            sh.access(AccessKind::Read, chunk, STATE_ELEM_BYTES);
        }
        for chunk in self.dirty.chunks(warp) {
            // dirty: pass-through flush — each address was individually justified at its write_dirty recording site
            sh.access_dirty(chunk, STATE_ELEM_BYTES);
        }
        for chunk in self.atomics.chunks(warp) {
            sh.atomic(chunk);
        }
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceConfig};

    #[test]
    fn records_and_clears() {
        let mut r = AccessRecorder::new();
        r.read(4);
        r.write_dirty(8);
        r.atomic(12);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn flush_charges_kernel_and_clears() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut r = AccessRecorder::new();
        for i in 0..20u64 {
            r.read(i * 4);
        }
        r.atomic(1024);
        let mut k = d.launch("flush");
        r.flush(&mut k.shard(0));
        let _ = k.finish();
        assert!(r.is_empty());
        assert!(d.profiler().mem_requests > 0);
        assert_eq!(d.profiler().atomics, 1);
    }

    #[test]
    fn coalesced_reads_cost_fewer_sectors_than_scattered() {
        let run = |addrs: Vec<u64>| {
            let mut d = Device::new(DeviceConfig::test_tiny());
            let mut r = AccessRecorder::new();
            for a in addrs {
                r.read(a);
            }
            let mut k = d.launch("x");
            r.flush(&mut k.shard(0));
            let _ = k.finish();
            d.profiler().total_sectors()
        };
        let coalesced = run((0..32).map(|i| i * 4).collect());
        let scattered = run((0..32).map(|i| i * 4096).collect());
        assert!(coalesced < scattered);
    }
}
