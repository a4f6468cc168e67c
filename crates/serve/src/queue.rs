//! Bounded, work-stealing admission queue.
//!
//! Each worker owns a deque; submissions are distributed round-robin. A
//! worker pops *batches* — runs of queries sharing one `(graph, app)` key —
//! from the front of its own deque, and when idle steals a batch from the
//! back of a victim's deque. A global counter enforces the admission
//! capacity: once in-flight queries reach it, `push` refuses the query and
//! the service surfaces [`crate::ServiceError::Overloaded`].

use crate::types::{AppKind, GraphId, QueryRequest, ServiceError, TicketState};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Queries with equal keys may share one execution batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    pub(crate) graph: GraphId,
    pub(crate) app: AppKind,
}

impl BatchKey {
    pub(crate) fn of(request: &QueryRequest) -> Self {
        Self {
            graph: request.graph,
            app: request.app,
        }
    }
}

/// An admitted query waiting for a worker.
///
/// Dropping it fulfills its ticket with [`ServiceError::WorkerFailed`], so
/// a query whose holder unwinds (a worker that panicked mid-batch) still
/// resolves. A ticket fulfills at most once, so dropping an answered query
/// changes nothing.
pub(crate) struct PendingQuery {
    pub(crate) request: QueryRequest,
    pub(crate) ticket: Arc<TicketState>,
    pub(crate) enqueued_at: Instant,
}

impl PendingQuery {
    fn key(&self) -> BatchKey {
        BatchKey::of(&self.request)
    }
}

impl Drop for PendingQuery {
    fn drop(&mut self) {
        self.ticket.fulfill(Err(ServiceError::WorkerFailed));
    }
}

/// Per-app batch-size caps: traversal batches stop at `default_cap`
/// queries, walk batches at `walk_cap` (walks fuse thousands of tiny
/// queries into one kernel launch, so their cap is far higher).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchLimits {
    pub(crate) default_cap: usize,
    pub(crate) walk_cap: usize,
}

impl BatchLimits {
    /// One cap for every app (tests, simple callers).
    #[cfg(test)]
    pub(crate) fn uniform(cap: usize) -> Self {
        Self {
            default_cap: cap,
            walk_cap: cap,
        }
    }

    fn cap(&self, app: AppKind) -> usize {
        let cap = match app {
            AppKind::Walk => self.walk_cap,
            _ => self.default_cap,
        };
        cap.max(1)
    }
}

/// The shared queue: per-worker deques + capacity gate + parking lot.
pub(crate) struct JobQueue {
    deques: Vec<Mutex<VecDeque<PendingQuery>>>,
    /// Queries admitted but not yet extracted into a batch.
    count: AtomicUsize,
    capacity: usize,
    /// Round-robin cursor for placement.
    cursor: AtomicUsize,
    shutdown: AtomicBool,
    parking: Mutex<()>,
    signal: Condvar,
}

impl JobQueue {
    pub(crate) fn new(workers: usize, capacity: usize) -> Self {
        assert!(workers > 0, "queue needs at least one worker deque");
        Self {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            count: AtomicUsize::new(0),
            capacity,
            cursor: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            parking: Mutex::new(()),
            signal: Condvar::new(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queries currently admitted and waiting.
    pub(crate) fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// True once [`JobQueue::close`] ran (or a poisoned lock forced the
    /// queue shut) — lets the service distinguish "shutting down" from
    /// "over capacity" when a push bounces.
    pub(crate) fn is_closed(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Admit a query, or hand it back when the queue is full or shut down.
    /// A poisoned deque lock (a worker panicked mid-queue-operation) closes
    /// the queue and refuses the query instead of propagating the panic
    /// into the submitting thread.
    pub(crate) fn push(&self, job: PendingQuery) -> Result<(), PendingQuery> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(job);
        }
        // optimistic reservation; undone when over capacity
        let prev = self.count.fetch_add(1, Ordering::AcqRel);
        if prev >= self.capacity {
            self.count.fetch_sub(1, Ordering::AcqRel);
            return Err(job);
        }
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.deques.len();
        match self.deques[slot].lock() {
            Ok(mut deque) => deque.push_back(job),
            Err(_) => {
                self.count.fetch_sub(1, Ordering::AcqRel);
                self.shutdown.store(true, Ordering::Release);
                self.signal.notify_all();
                return Err(job);
            }
        }
        self.signal.notify_all();
        Ok(())
    }

    /// Blocking pop of the next batch for `worker`: queries sharing one
    /// key — up to the key's app cap in `limits` — taken from the worker's
    /// own deque front or stolen from a victim's back. Returns `None` once
    /// the queue is shut down *and* empty.
    pub(crate) fn pop_batch(
        &self,
        worker: usize,
        limits: BatchLimits,
    ) -> Option<Vec<PendingQuery>> {
        loop {
            if let Some(batch) = self.try_pop_batch(worker, limits) {
                return Some(batch);
            }
            if self.shutdown.load(Ordering::Acquire) {
                // drain fully before exiting: another deque may still hold work
                if let Some(batch) = self.try_pop_batch(worker, limits) {
                    return Some(batch);
                }
                return None;
            }
            // a poisoned parking lot means a peer panicked while parked;
            // skip the park and spin through the shutdown/drain path
            let guard = self.parking.lock().unwrap_or_else(PoisonError::into_inner);
            // re-check under the lock so a push between try_pop and park is
            // not slept through; the timeout bounds any residual race
            if self.len() == 0 && !self.shutdown.load(Ordering::Acquire) {
                let _ = self.signal.wait_timeout(guard, Duration::from_millis(1));
            }
        }
    }

    fn try_pop_batch(&self, worker: usize, limits: BatchLimits) -> Option<Vec<PendingQuery>> {
        // own deque first: batch from the front (FIFO fairness)
        if let Some(batch) = self.extract(worker, limits, false) {
            return Some(batch);
        }
        // then steal: victims scanned in order, batch from the back
        let n = self.deques.len();
        for step in 1..n {
            let victim = (worker + step) % n;
            if let Some(batch) = self.extract(victim, limits, true) {
                return Some(batch);
            }
        }
        None
    }

    /// Remove queries matching the key of the deque's front (or back, for
    /// steals) entry, up to the key's app batch cap.
    fn extract(
        &self,
        slot: usize,
        limits: BatchLimits,
        from_back: bool,
    ) -> Option<Vec<PendingQuery>> {
        // Recover a poisoned deque: the panicking thread held the lock only
        // across complete push_back/pop_front calls, so the contents are
        // structurally intact and the remaining queries can still be served
        // (or failed at drain) instead of wedging every worker.
        let mut deque = self.deques[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let key = if from_back {
            deque.back()?.key()
        } else {
            deque.front()?.key()
        };
        let max_batch = limits.cap(key.app);
        let mut batch = Vec::new();
        let mut keep = VecDeque::with_capacity(deque.len());
        while let Some(job) = deque.pop_front() {
            if job.key() == key && batch.len() < max_batch {
                batch.push(job);
            } else {
                keep.push_back(job);
            }
        }
        *deque = keep;
        drop(deque);
        self.count.fetch_sub(batch.len(), Ordering::AcqRel);
        Some(batch)
    }

    /// Stop accepting work and wake every parked worker.
    pub(crate) fn close(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.signal.notify_all();
    }

    /// Remove every remaining query (used at shutdown to fail them).
    pub(crate) fn drain(&self) -> Vec<PendingQuery> {
        let mut all = Vec::new();
        for deque in &self.deques {
            let mut deque = deque.lock().unwrap_or_else(PoisonError::into_inner);
            all.extend(deque.drain(..));
        }
        self.count.fetch_sub(all.len(), Ordering::AcqRel);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(graph: GraphId, app: AppKind, source: u32) -> PendingQuery {
        PendingQuery {
            request: QueryRequest { app, graph, source },
            ticket: Arc::new(TicketState::default()),
            enqueued_at: Instant::now(),
        }
    }

    #[test]
    fn dropped_query_fails_its_ticket_and_keeps_a_delivered_answer() {
        use crate::types::Ticket;
        // dropped unanswered (a worker unwinding mid-batch): the ticket
        // resolves at once with a typed error instead of hanging
        let stranded = job(0, AppKind::Bfs, 1);
        let ticket = Ticket {
            state: Arc::clone(&stranded.ticket),
        };
        drop(stranded);
        assert_eq!(ticket.wait().err(), Some(ServiceError::WorkerFailed));
        // answered, then dropped: the guard must not overwrite the answer
        let answered = job(0, AppKind::Bfs, 2);
        let ticket = Ticket {
            state: Arc::clone(&answered.ticket),
        };
        answered.ticket.fulfill(Err(ServiceError::UnknownGraph(7)));
        drop(answered);
        assert_eq!(ticket.wait().err(), Some(ServiceError::UnknownGraph(7)));
    }

    #[test]
    fn push_then_pop_roundtrips() {
        let q = JobQueue::new(2, 8);
        q.push(job(0, AppKind::Bfs, 3)).map_err(|_| ()).unwrap();
        let batch = q.pop_batch(0, BatchLimits::uniform(4)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request.source, 3);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let q = JobQueue::new(1, 2);
        assert!(q.push(job(0, AppKind::Bfs, 0)).is_ok());
        assert!(q.push(job(0, AppKind::Bfs, 1)).is_ok());
        assert!(
            q.push(job(0, AppKind::Bfs, 2)).is_err(),
            "third push must bounce"
        );
        let _ = q.pop_batch(0, BatchLimits::uniform(1)).unwrap();
        assert!(q.push(job(0, AppKind::Bfs, 2)).is_ok(), "capacity frees up");
    }

    #[test]
    fn batch_groups_compatible_queries_and_preserves_others() {
        let q = JobQueue::new(1, 16);
        q.push(job(0, AppKind::Bfs, 1)).map_err(|_| ()).unwrap();
        q.push(job(0, AppKind::Pr, 0)).map_err(|_| ()).unwrap();
        q.push(job(0, AppKind::Bfs, 2)).map_err(|_| ()).unwrap();
        q.push(job(1, AppKind::Bfs, 3)).map_err(|_| ()).unwrap();
        let batch = q.pop_batch(0, BatchLimits::uniform(8)).unwrap();
        assert_eq!(batch.len(), 2, "both graph-0 bfs queries batch together");
        assert!(batch
            .iter()
            .all(|j| j.request.app == AppKind::Bfs && j.request.graph == 0));
        let batch = q.pop_batch(0, BatchLimits::uniform(8)).unwrap();
        assert_eq!(batch[0].request.app, AppKind::Pr);
        let batch = q.pop_batch(0, BatchLimits::uniform(8)).unwrap();
        assert_eq!(batch[0].request.graph, 1);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn max_batch_caps_extraction() {
        let q = JobQueue::new(1, 16);
        for s in 0..5 {
            q.push(job(0, AppKind::Bfs, s)).map_err(|_| ()).unwrap();
        }
        assert_eq!(q.pop_batch(0, BatchLimits::uniform(3)).unwrap().len(), 3);
        assert_eq!(q.pop_batch(0, BatchLimits::uniform(3)).unwrap().len(), 2);
    }

    #[test]
    fn walk_batches_use_their_own_cap() {
        let q = JobQueue::new(1, 64);
        for s in 0..20 {
            q.push(job(0, AppKind::Walk, s)).map_err(|_| ()).unwrap();
        }
        for s in 0..5 {
            q.push(job(0, AppKind::Bfs, s)).map_err(|_| ()).unwrap();
        }
        let limits = BatchLimits {
            default_cap: 2,
            walk_cap: 16,
        };
        // the walk run fuses up to walk_cap queries in one batch...
        assert_eq!(q.pop_batch(0, limits).unwrap().len(), 16);
        assert_eq!(q.pop_batch(0, limits).unwrap().len(), 4);
        // ...while traversal batches still stop at default_cap
        assert_eq!(q.pop_batch(0, limits).unwrap().len(), 2);
    }

    #[test]
    fn idle_worker_steals_from_victim() {
        let q = JobQueue::new(2, 8);
        // cursor placement: first push lands on deque 0
        q.push(job(0, AppKind::Bfs, 1)).map_err(|_| ()).unwrap();
        let batch = q.pop_batch(1, BatchLimits::uniform(4)).unwrap();
        assert_eq!(batch.len(), 1, "worker 1 must steal worker 0's query");
    }

    #[test]
    fn poisoned_deque_closes_queue_instead_of_panicking() {
        let q = Arc::new(JobQueue::new(1, 8));
        q.push(job(0, AppKind::Bfs, 1)).map_err(|_| ()).unwrap();
        // poison the deque lock by panicking while holding it
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = q2.deques[0].lock().unwrap();
            panic!("poison the deque");
        })
        .join();
        // pops recover the structurally-intact contents
        let batch = q
            .pop_batch(0, BatchLimits::uniform(4))
            .expect("queued work survives poisoning");
        assert_eq!(batch.len(), 1);
        // and a push refuses gracefully, closing the queue
        assert!(q.push(job(0, AppKind::Bfs, 2)).is_err());
        assert!(q.is_closed());
        assert!(q.drain().is_empty());
    }

    #[test]
    fn close_wakes_and_drains() {
        let q = Arc::new(JobQueue::new(1, 8));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop_batch(0, BatchLimits::uniform(4)));
        q.push(job(0, AppKind::Cc, 0)).map_err(|_| ()).unwrap();
        assert!(waiter.join().unwrap().is_some());
        q.push(job(0, AppKind::Cc, 0)).map_err(|_| ()).unwrap();
        q.close();
        assert!(
            q.push(job(0, AppKind::Cc, 1)).is_err(),
            "closed queue rejects"
        );
        // shutdown still hands out queued work before returning None
        assert!(q.pop_batch(0, BatchLimits::uniform(4)).is_some());
        assert!(q.pop_batch(0, BatchLimits::uniform(4)).is_none());
        assert_eq!(q.drain().len(), 0);
    }
}
