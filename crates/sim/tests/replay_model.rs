//! Exhaustive interleaving exploration (a loom-style model check, with no
//! external dependency) of the async-replay double-buffer handoff in
//! `crates/sim/src/device.rs` / `kernel.rs`.
//!
//! The protocol under test has exactly one concurrent actor besides the
//! host: the background replay thread, whose only externally visible event
//! is *finishing*. The model therefore replays the host's micro-op sequence
//! (take arena → record → take caches → spawn replay, per kernel, then a
//! final observable read) and, at every point, branches on whether the
//! in-flight replay finishes now or later — a depth-first walk of every
//! interleaving. Invariants checked on every path:
//!
//! - at most one replay in flight ([`Device::set_pending_replay`]'s assert);
//! - the two trace arenas never alias: pool ∪ recorder ∪ in-flight replay
//!   is always a partition of `{0, 1}`;
//! - the cache hierarchy is home on the device whenever a kernel takes it
//!   ([`Device::take_replay_caches`] joins first);
//! - replays fold in launch order, each exactly once (determinism);
//! - after the final join the device is quiescent: both arenas pooled,
//!   caches installed, every kernel folded.
//!
//! Two mutant protocols (drop the join on an empty pool / spawn without the
//! take-caches join) are checked to *fail*, proving the model has teeth.
//!
//! Run with: `cargo test -p gpu-sim --features model --test replay_model`
#![cfg(feature = "model")]

use gpu_sim::{AccessKind, Device, DeviceConfig};

/// Which joins the host performs — the correct protocol sets both; mutants
/// drop one barrier each.
#[derive(Clone, Copy)]
struct Protocol {
    /// `take_trace_arena` joins the in-flight replay when the pool is empty.
    join_on_empty_pool: bool,
    /// `take_replay_caches` joins before moving the hierarchy out.
    join_before_take_caches: bool,
}

const CORRECT: Protocol = Protocol {
    join_on_empty_pool: true,
    join_before_take_caches: true,
};

/// One in-flight background replay.
#[derive(Clone)]
struct Inflight {
    /// Arena the replay owns (returned to the pool at apply).
    arena: u8,
    /// Launch sequence number (fold order is checked against it).
    seq: usize,
    /// Whether the thread has finished (join blocks until this is set).
    done: bool,
}

/// The handoff-relevant slice of `Device` state.
#[derive(Clone)]
struct Model {
    pool: Vec<u8>,
    recorder: Option<u8>,
    inflight: Option<Inflight>,
    /// Cache hierarchy installed on the device (vs. out with a replay).
    caches_home: bool,
    /// Sequence numbers folded so far, in fold order.
    applied: Vec<usize>,
}

impl Model {
    fn new() -> Self {
        Self {
            pool: vec![0, 1],
            recorder: None,
            inflight: None,
            caches_home: true,
            applied: Vec::new(),
        }
    }

    /// Every arena is in exactly one place.
    fn check_arena_partition(&self) -> Result<(), String> {
        let mut seen = [false; 2];
        let mut place = |a: u8| -> Result<(), String> {
            let s = &mut seen[a as usize];
            if *s {
                return Err(format!("arena {a} held in two places"));
            }
            *s = true;
            Ok(())
        };
        for &a in &self.pool {
            place(a)?;
        }
        if let Some(a) = self.recorder {
            place(a)?;
        }
        if let Some(r) = &self.inflight {
            place(r.arena)?;
        }
        if !(seen[0] && seen[1]) {
            return Err("an arena leaked".into());
        }
        Ok(())
    }

    /// `sync_replay`: wait for the in-flight replay and fold it. Joining a
    /// not-yet-finished thread is fine (the host blocks); the model just
    /// marks it finished and applies.
    fn join(&mut self) -> Result<(), String> {
        if let Some(r) = self.inflight.take() {
            // ReplayDone::apply — install caches, return arena, charge.
            if self.caches_home {
                return Err("replay folded caches over an installed hierarchy".into());
            }
            self.caches_home = true;
            self.pool.push(r.arena);
            if self.applied.last().is_some_and(|&p| p >= r.seq) {
                return Err(format!("kernel {} folded out of launch order", r.seq));
            }
            self.applied.push(r.seq);
        }
        Ok(())
    }

    /// `take_trace_arena` for kernel `seq`.
    fn take_arena(&mut self, p: Protocol) -> Result<(), String> {
        if self.pool.is_empty() && p.join_on_empty_pool {
            self.join()?;
        }
        let Some(a) = self.pool.pop() else {
            return Err("arena pool underflow: both arenas out, no join".into());
        };
        self.recorder = Some(a);
        self.check_arena_partition()
    }

    /// Kernel finish: `take_replay_caches` then `set_pending_replay`.
    fn finish_kernel(&mut self, p: Protocol, seq: usize) -> Result<(), String> {
        if p.join_before_take_caches {
            self.join()?;
        }
        if !self.caches_home {
            return Err("took the cache hierarchy while a replay still owns it".into());
        }
        self.caches_home = false;
        if self.inflight.is_some() {
            return Err("set_pending_replay with a replay already in flight".into());
        }
        let arena = self
            .recorder
            .take()
            .ok_or("finish without a recorder arena")?;
        self.inflight = Some(Inflight {
            arena,
            seq,
            done: false,
        });
        self.check_arena_partition()
    }

    /// Final quiescence check after the last observable-read join.
    fn check_quiescent(&self, kernels: usize) -> Result<(), String> {
        if self.pool.len() != 2 {
            return Err(format!("{} arenas pooled at quiescence", self.pool.len()));
        }
        if !self.caches_home {
            return Err("caches not installed at quiescence".into());
        }
        let expect: Vec<usize> = (0..kernels).collect();
        if self.applied != expect {
            return Err(format!("fold order {:?} != launch order", self.applied));
        }
        Ok(())
    }
}

/// Host micro-ops, two per kernel plus a trailing observable read.
#[derive(Clone, Copy)]
enum HostOp {
    TakeArena,
    FinishKernel(usize),
    ObservableRead,
}

fn program(kernels: usize) -> Vec<HostOp> {
    let mut ops = Vec::new();
    for k in 0..kernels {
        ops.push(HostOp::TakeArena);
        ops.push(HostOp::FinishKernel(k));
    }
    ops.push(HostOp::ObservableRead);
    ops
}

/// DFS over every interleaving: at each point the scheduler either lets the
/// in-flight replay finish or advances the host. Returns the number of
/// complete interleavings explored, or the first invariant violation.
fn explore(m: Model, ops: &[HostOp], p: Protocol, kernels: usize) -> Result<u64, String> {
    // Branch: the replay thread finishes now.
    if let Some(r) = &m.inflight {
        if !r.done {
            let mut fork = m.clone();
            fork.inflight.as_mut().unwrap().done = true;
            let a = explore(fork, ops, p, kernels)?;
            // ...and the other branch: it stays running across the next
            // host op (fall through below).
            let b = explore_host(m, ops, p, kernels)?;
            return Ok(a + b);
        }
    }
    explore_host(m, ops, p, kernels)
}

/// Advance the host by one micro-op, then continue the walk.
fn explore_host(mut m: Model, ops: &[HostOp], p: Protocol, kernels: usize) -> Result<u64, String> {
    let Some(&op) = ops.first() else {
        m.check_quiescent(kernels)?;
        return Ok(1);
    };
    match op {
        HostOp::TakeArena => m.take_arena(p)?,
        HostOp::FinishKernel(seq) => m.finish_kernel(p, seq)?,
        HostOp::ObservableRead => m.join()?,
    }
    explore(m, &ops[1..], p, kernels)
}

#[test]
fn every_interleaving_upholds_the_handoff_invariants() {
    for kernels in 1..=5 {
        let ops = program(kernels);
        let paths = explore(Model::new(), &ops, CORRECT, kernels)
            .unwrap_or_else(|e| panic!("{kernels} kernels: {e}"));
        // Each of the `kernels` replays can finish at several distinct
        // points, so the schedule count must grow with the kernel count.
        assert!(
            paths as usize > kernels,
            "{kernels} kernels explored only {paths} interleavings"
        );
    }
}

#[test]
fn dropping_the_empty_pool_join_is_caught() {
    // The finish-side join would mask a missing take-side join (it drains
    // the in-flight replay first), so the mutant drops both barriers.
    let p = Protocol {
        join_on_empty_pool: false,
        join_before_take_caches: false,
    };
    let err = explore(Model::new(), &program(3), p, 3).unwrap_err();
    assert!(
        err.contains("underflow") || err.contains("in flight") || err.contains("owns it"),
        "unexpected violation: {err}"
    );
}

#[test]
fn dropping_the_take_caches_join_is_caught() {
    let p = Protocol {
        join_before_take_caches: false,
        ..CORRECT
    };
    let err = explore(Model::new(), &program(2), p, 2).unwrap_err();
    assert!(
        err.contains("owns it") || err.contains("in flight"),
        "unexpected violation: {err}"
    );
}

/// Tie the model to the implementation: the same workload through the real
/// `Device`, finished with `finish()` or `finish_async()` at 2 and 4 host
/// threads, must reproduce the 1-thread (untraced) reference bit for bit —
/// the end-to-end consequence of the invariants above.
#[test]
fn real_device_async_replay_is_invisible() {
    let run = |threads: usize, deferred: bool| {
        let mut dev = Device::new(DeviceConfig {
            num_sms: 8,
            ..DeviceConfig::test_tiny()
        });
        dev.set_host_threads(threads);
        dev.set_replay_gate(1); // every traced kernel goes sharded
        let stream = 1u64 << 20;
        // 4 KiB >= test_tiny's 2 KiB L2 way capacity -> registered
        dev.mark_streaming(stream, 4096);
        for round in 0..4u64 {
            let mut k = dev.launch("model-kernel");
            for sm in 0..8usize {
                let addrs: Vec<u64> = (0..64u64)
                    .map(|i| (round * 64 + i * 7 + sm as u64) * 32)
                    .collect();
                k.access(sm, AccessKind::Read, &addrs, 4);
                k.access_range(sm, AccessKind::Read, stream + sm as u64 * 256, 64, 4);
                k.exec(sm, 128, 32, 32);
            }
            if deferred {
                k.finish_async();
            } else {
                let _ = k.finish();
            }
        }
        let cycles = dev.elapsed_cycles().to_bits();
        let elided = dev.replay_stats().elided_probes;
        let p = dev.profiler();
        (
            (cycles, p.l1_hit_sectors, p.l2_hit_sectors, p.dram_sectors),
            elided,
        )
    };
    let (reference, _) = run(1, false);
    for threads in [2, 4] {
        for deferred in [false, true] {
            let (got, elided) = run(threads, deferred);
            assert_eq!(
                got, reference,
                "threads={threads} finish_async={deferred} perturbed the simulation"
            );
            assert!(elided > 0, "traced runs elide streaming reads");
        }
    }
}
