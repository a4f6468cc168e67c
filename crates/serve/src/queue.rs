//! Bounded FIFO admission queue shared by every worker.
//!
//! One mutex guards the waiting queries and the `closed` flag; one condvar
//! parks idle workers. A worker pops a *batch*: the front query plus the
//! later queries sharing its `(graph, app)` key, up to that app's cap,
//! while the other queries keep their order. Once `capacity` queries wait,
//! `push` refuses the next one and the service surfaces
//! [`crate::ServiceError::Overloaded`].

use crate::types::{AppKind, GraphId, QueryRequest, ServiceError, TicketState};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use std::time::Instant;

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
    /// Queries with equal keys may share one execution batch.
    fn key(&self) -> (GraphId, AppKind) {
        (self.request.graph, self.request.app)
    }
}

impl Drop for PendingQuery {
    fn drop(&mut self) {
        self.ticket.fulfill(Err(ServiceError::WorkerFailed));
    }
}

/// Why [`JobQueue::push`] handed a query back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// `capacity` queries are already waiting.
    Full,
    /// [`JobQueue::close`] ran, or a poisoned lock shut the queue.
    Closed,
}

#[derive(Default)]
struct State {
    jobs: VecDeque<PendingQuery>,
    closed: bool,
}

/// Walk queries fused into one walk-kernel launch at most. Walks have no
/// bitmask constraint (every fused query just adds walker lanes), so the
/// cap sits far above any traversal batch.
const WALK_BATCH: usize = 4096;

/// The admission queue: one FIFO, its capacity and the traversal batch cap.
pub(crate) struct JobQueue {
    state: Mutex<State>,
    /// Signalled when a query arrives or the queue closes.
    ready: Condvar,
    capacity: usize,
    /// Traversal batches stop at `max_batch` queries, walk batches at
    /// [`WALK_BATCH`].
    max_batch: usize,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize, max_batch: usize) -> Self {
        Self {
            state: Mutex::default(),
            ready: Condvar::new(),
            capacity,
            max_batch,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.recover(self.state.lock())
    }

    /// A poisoned lock (a thread panicked while holding it) closes the
    /// queue. The panicking thread held the lock only across whole
    /// `VecDeque` operations, so the waiting queries are intact and are
    /// still served or drained; nothing new is admitted.
    fn recover<'a>(&self, locked: LockResult<MutexGuard<'a, State>>) -> MutexGuard<'a, State> {
        locked.unwrap_or_else(|poisoned| {
            let mut state = poisoned.into_inner();
            state.closed = true;
            self.ready.notify_all();
            state
        })
    }

    /// Queries currently admitted and waiting.
    pub(crate) fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Admit a query, or hand it back with the reason it was refused.
    pub(crate) fn push(&self, job: PendingQuery) -> Result<(), (PendingQuery, Refusal)> {
        let mut state = self.lock();
        if state.closed {
            return Err((job, Refusal::Closed));
        }
        if state.jobs.len() >= self.capacity {
            return Err((job, Refusal::Full));
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop of the next batch: the front query's key run, up to
    /// that app's cap. Returns `None` once the queue is closed *and* empty.
    pub(crate) fn pop_batch(&self) -> Option<Vec<PendingQuery>> {
        let mut state = self.lock();
        loop {
            if let Some(key) = state.jobs.front().map(PendingQuery::key) {
                let cap = match key.1 {
                    AppKind::Walk => WALK_BATCH,
                    _ => self.max_batch,
                }
                .max(1);
                let mut batch = Vec::new();
                for job in std::mem::take(&mut state.jobs) {
                    if job.key() == key && batch.len() < cap {
                        batch.push(job);
                    } else {
                        state.jobs.push_back(job);
                    }
                }
                if !state.jobs.is_empty() {
                    self.ready.notify_one();
                }
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self.recover(self.ready.wait(state));
        }
    }

    /// Stop accepting work and wake every parked worker.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Remove every remaining query (used at shutdown to fail them).
    pub(crate) fn drain(&self) -> Vec<PendingQuery> {
        self.lock().jobs.drain(..).collect()
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

    fn push(q: &JobQueue, job: PendingQuery) {
        q.push(job).map_err(|(_, refusal)| refusal).unwrap();
    }

    fn refusal(q: &JobQueue, job: PendingQuery) -> Option<Refusal> {
        q.push(job).err().map(|(_, refusal)| refusal)
    }

    #[test]
    fn push_then_pop_roundtrips() {
        let q = JobQueue::new(8, 4);
        push(&q, job(0, AppKind::Bfs, 3));
        let batch = q.pop_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request.source, 3);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let q = JobQueue::new(2, 1);
        push(&q, job(0, AppKind::Bfs, 0));
        push(&q, job(0, AppKind::Bfs, 1));
        assert_eq!(
            refusal(&q, job(0, AppKind::Bfs, 2)),
            Some(Refusal::Full),
            "third push must bounce"
        );
        let _ = q.pop_batch().unwrap();
        assert_eq!(
            refusal(&q, job(0, AppKind::Bfs, 2)),
            None,
            "capacity frees up"
        );
    }

    #[test]
    fn batch_groups_compatible_queries_and_preserves_others() {
        let q = JobQueue::new(16, 8);
        push(&q, job(0, AppKind::Bfs, 1));
        push(&q, job(0, AppKind::Pr, 0));
        push(&q, job(0, AppKind::Bfs, 2));
        push(&q, job(1, AppKind::Bfs, 3));
        let batch = q.pop_batch().unwrap();
        assert_eq!(batch.len(), 2, "both graph-0 bfs queries batch together");
        assert!(batch
            .iter()
            .all(|j| j.request.app == AppKind::Bfs && j.request.graph == 0));
        let batch = q.pop_batch().unwrap();
        assert_eq!(batch[0].request.app, AppKind::Pr);
        let batch = q.pop_batch().unwrap();
        assert_eq!(batch[0].request.graph, 1);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn max_batch_caps_extraction() {
        let q = JobQueue::new(16, 3);
        for s in 0..5 {
            push(&q, job(0, AppKind::Bfs, s));
        }
        assert_eq!(q.pop_batch().unwrap().len(), 3);
        assert_eq!(q.pop_batch().unwrap().len(), 2);
    }

    #[test]
    fn walk_batches_use_their_own_cap() {
        let q = JobQueue::new(WALK_BATCH + 6, 2);
        for s in 0..=WALK_BATCH as u32 {
            push(&q, job(0, AppKind::Walk, s));
        }
        for s in 0..5 {
            push(&q, job(0, AppKind::Bfs, s));
        }
        // the walk run fuses up to WALK_BATCH queries in one batch...
        assert_eq!(q.pop_batch().unwrap().len(), WALK_BATCH);
        assert_eq!(q.pop_batch().unwrap().len(), 1);
        // ...while traversal batches still stop at max_batch
        assert_eq!(q.pop_batch().unwrap().len(), 2);
    }

    /// Pop one batch on a thread of its own, as a worker would.
    fn pop_on_worker(q: &JobQueue) -> Option<Vec<PendingQuery>> {
        std::thread::scope(|s| s.spawn(|| q.pop_batch()).join().unwrap())
    }

    #[test]
    fn batches_leave_in_admission_order_whoever_pops() {
        // whichever thread pops, the oldest query's run leaves first
        let q = JobQueue::new(8, 4);
        let apps = [AppKind::Bfs, AppKind::Pr, AppKind::Cc, AppKind::Sssp];
        for (source, app) in apps.into_iter().enumerate() {
            push(&q, job(0, app, source as u32));
        }
        let order: Vec<AppKind> = (0..apps.len())
            .map(|_| pop_on_worker(&q).unwrap()[0].request.app)
            .collect();
        assert_eq!(order, apps);
    }

    #[test]
    fn same_key_queries_fuse_across_workers() {
        // every worker sees every waiting query, so consecutive
        // admissions of one key fuse whoever pops them
        let q = JobQueue::new(8, 4);
        push(&q, job(0, AppKind::Bfs, 1));
        push(&q, job(0, AppKind::Bfs, 2));
        let batch = pop_on_worker(&q).unwrap();
        let sources: Vec<u32> = batch.iter().map(|j| j.request.source).collect();
        assert_eq!(sources, [1, 2]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn poisoned_deque_closes_queue_instead_of_panicking() {
        let q = Arc::new(JobQueue::new(8, 4));
        push(&q, job(0, AppKind::Bfs, 1));
        // poison the queue lock by panicking while holding it
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = q2.state.lock().unwrap();
            panic!("poison the queue");
        })
        .join();
        // pops recover the structurally-intact contents
        let batch = q.pop_batch().expect("queued work survives poisoning");
        assert_eq!(batch.len(), 1);
        // and a push is refused as closed instead of panicking
        assert_eq!(refusal(&q, job(0, AppKind::Bfs, 2)), Some(Refusal::Closed));
        assert!(q.pop_batch().is_none());
        assert!(q.drain().is_empty());
    }

    #[test]
    fn close_wakes_and_drains() {
        let q = Arc::new(JobQueue::new(8, 4));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop_batch());
        push(&q, job(0, AppKind::Cc, 0));
        assert!(waiter.join().unwrap().is_some());
        push(&q, job(0, AppKind::Cc, 0));
        let q2 = Arc::clone(&q);
        let parked = std::thread::spawn(move || {
            let first = q2.pop_batch();
            (first, q2.pop_batch())
        });
        q.close();
        assert_eq!(
            refusal(&q, job(0, AppKind::Cc, 1)),
            Some(Refusal::Closed),
            "closed queue rejects"
        );
        // shutdown still hands out queued work before returning None
        let (first, second) = parked.join().unwrap();
        assert!(first.is_some());
        assert!(second.is_none());
        assert_eq!(q.drain().len(), 0);
    }
}
