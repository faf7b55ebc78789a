//! The compute side of the service: the blocking FIFO the server's
//! threads hand work through, and a fixed-size worker pool that drains
//! the job queue. Each job answers exactly its own query, under its own
//! seed and budget, so a response is the same bytes however requests
//! interleave.

use crate::metrics::Metrics;
use crate::state::{AnyEngine, EngineKind, Snapshot};
use relmax_core::QueryAnswer;
use relmax_gen::workload::WireSpec;
use relmax_sampling::Budget;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What a job resolves to: the engine's answer, or a rendered error
/// message (out-of-range nodes are caught before enqueueing, so errors
/// here are unexpected and map to `500`).
pub type JobResult = Result<QueryAnswer, String>;

/// What a job's requester sees when the compute worker unwinds before
/// answering it (the `500` body).
pub const WORKER_PANICKED: &str = "compute worker panicked";

/// A one-shot result slot the submitting IO worker blocks on.
#[derive(Debug, Default)]
pub struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
enum SlotState {
    #[default]
    Empty,
    Ready(JobResult),
    Taken,
}

impl Slot {
    /// A fresh, empty slot.
    pub fn new() -> Arc<Self> {
        Arc::new(Slot::default())
    }

    /// Deliver the result (exactly once) and wake the waiter.
    pub fn fill(&self, r: JobResult) {
        let filled = self.fill_if_empty(r);
        debug_assert!(filled, "a slot is filled exactly once");
    }

    /// Deliver `r` unless a result was already delivered, and say whether
    /// `r` was delivered. Never panics, so a drop guard may call it while
    /// unwinding (every state change is one assignment, so a poisoned
    /// lock still guards a valid state).
    fn fill_if_empty(&self, r: JobResult) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !matches!(*state, SlotState::Empty) {
            return false;
        }
        *state = SlotState::Ready(r);
        self.cv.notify_all();
        true
    }

    /// Block until the result arrives.
    pub fn wait(&self) -> JobResult {
        let mut state = self.state.lock().expect("slot lock");
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(r) => return r,
                other => *state = other,
            }
            state = self.cv.wait(state).expect("slot lock");
        }
    }
}

/// One enqueued reliability query, pinned to a snapshot generation.
pub struct Job {
    /// The query to answer.
    pub spec: WireSpec,
    /// The pinned snapshot generation.
    pub snapshot: Arc<Snapshot>,
    /// Estimator family.
    pub kind: EngineKind,
    /// Per-request budget.
    pub budget: Budget,
    /// Per-request seed.
    pub seed: u64,
    /// The request's `% max-hops` bound, applied to hop-boundable specs
    /// by the engine dispatch.
    pub max_hops: Option<u32>,
    /// Where the answer goes. A job dropped unanswered — its worker
    /// panicked, or the queue was torn down — fills it with
    /// [`WORKER_PANICKED`], so the requester answers `500` instead of
    /// blocking forever.
    pub slot: Arc<Slot>,
}

impl Drop for Job {
    fn drop(&mut self) {
        self.slot.fill_if_empty(Err(WORKER_PANICKED.to_string()));
    }
}

/// A blocking FIFO shared between threads: the connection queue from
/// the acceptor to the IO workers (admitted through a capped `try_push`)
/// and the job queue from the IO workers to the compute workers (fed
/// through [`BlockingQueue::push`]).
pub struct BlockingQueue<T> {
    inner: Mutex<VecDeque<T>>,
    cv: Condvar,
}

impl<T> BlockingQueue<T> {
    /// An empty queue.
    pub fn new() -> Arc<Self> {
        Arc::new(BlockingQueue {
            inner: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        })
    }

    /// Enqueue an item and wake one consumer.
    pub fn push(&self, item: T) {
        self.inner.lock().expect("queue lock").push_back(item);
        self.cv.notify_one();
    }

    /// Enqueue an item unless `cap` items (at least one) are already
    /// queued, in which case it is handed back.
    pub(crate) fn try_push(&self, item: T, cap: usize) -> Result<(), T> {
        let mut q = self.inner.lock().expect("queue lock");
        if q.len() >= cap.max(1) {
            return Err(item);
        }
        q.push_back(item);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until an item is available and take the oldest.
    pub(crate) fn pop(&self) -> T {
        let mut q = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = q.pop_front() {
                return item;
            }
            q = self.cv.wait(q).expect("queue lock");
        }
    }

    /// How many items are queued.
    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").len()
    }
}

/// Spawn `threads` detached compute workers draining `queue`. `slow`
/// inserts a post-dequeue sleep (the `RELMAX_SERVE_TEST_SLOW_MS` test
/// hook) so tests can deterministically pile jobs behind an inflight
/// one.
///
/// A panic while answering a job is caught and counted in
/// `worker_panics_total`; the worker goes on to the next job. Unwinding
/// drops the job, whose drop guard answers its requester with
/// [`WORKER_PANICKED`].
pub fn spawn_compute_pool(
    threads: usize,
    queue: Arc<BlockingQueue<Job>>,
    metrics: Arc<Metrics>,
    slow: Option<Duration>,
) {
    for _ in 0..threads.max(1) {
        let queue = queue.clone();
        let metrics = metrics.clone();
        std::thread::spawn(move || loop {
            let job = queue.pop();
            if let Some(d) = slow {
                std::thread::sleep(d);
            }
            let answered = catch_unwind(AssertUnwindSafe(|| process(job, &metrics)));
            if answered.is_err() {
                Metrics::add(&metrics.worker_panics_total, 1);
            }
        });
    }
}

/// Answer one dequeued job: build its engine, answer its query, count
/// the worlds sampled, and fill its slot.
pub fn process(job: Job, metrics: &Metrics) {
    let engine = AnyEngine::build(&job.snapshot, job.kind, job.budget, job.seed);
    let result = engine.run_spec(&job.spec, job.budget, job.max_hops);
    if let Ok(answer) = &result {
        Metrics::add(&metrics.samples_total, answer_samples(answer));
    }
    job.slot.fill(result.map_err(|e| e.to_string()));
}

/// Worlds actually sampled to produce an answer (for the throughput
/// metric; a vector or matrix pass samples its worlds once, so the max —
/// not the sum — over entries is the work done).
pub fn answer_samples(answer: &QueryAnswer) -> u64 {
    match answer {
        QueryAnswer::Scalar(e) => e.samples_used as u64,
        QueryAnswer::Vector(v) => v.iter().map(|e| e.samples_used).max().unwrap_or(0) as u64,
        QueryAnswer::Matrix(m) => m
            .iter()
            .flatten()
            .map(|e| e.samples_used)
            .max()
            .unwrap_or(0) as u64,
        QueryAnswer::Ranking(pairs) => {
            pairs.iter().map(|(_, e)| e.samples_used).max().unwrap_or(0) as u64
        }
        QueryAnswer::Hops(h) => h.reliability.samples_used as u64,
        QueryAnswer::Batch(_) => unreachable!("the service never enqueues batch answers"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmax_gen::workload::QuerySpec;
    use relmax_ugraph::{DeltaOverlay, NodeId, RelIndex, UncertainGraph};

    fn chain_snapshot() -> Arc<Snapshot> {
        let mut g = UncertainGraph::new(5, true);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 4)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        let csr = g.freeze();
        let index = Some(Arc::new(RelIndex::build(&csr)));
        Arc::new(Snapshot {
            csr: Arc::new(csr),
            index,
            generation: 1,
            format_version: 2,
            path: "mem".to_string(),
            index_stored: false,
            delta: None,
        })
    }

    fn st_job(snap: &Arc<Snapshot>, s: u32, t: u32, seed: u64) -> (Job, Arc<Slot>) {
        let slot = Slot::new();
        let job = Job {
            spec: WireSpec::Query(QuerySpec::St(NodeId(s), NodeId(t))),
            snapshot: snap.clone(),
            kind: EngineKind::Mc,
            budget: Budget::fixed(512),
            seed,
            max_hops: None,
            slot: slot.clone(),
        };
        (job, slot)
    }

    #[test]
    fn dropping_an_unanswered_job_fails_its_requester() {
        let snap = chain_snapshot();
        let (job, slot) = st_job(&snap, 0, 2, 9);
        let waiter = {
            let slot = slot.clone();
            std::thread::spawn(move || slot.wait())
        };
        // What unwinding out of `process` does to the job it was answering.
        drop(job);
        assert_eq!(waiter.join().unwrap(), Err(WORKER_PANICKED.to_string()));

        // An answered job's guard leaves the delivered result alone.
        let (job, slot) = st_job(&snap, 0, 2, 9);
        process(job, &Metrics::new());
        assert!(slot.wait().is_ok());
    }

    #[test]
    fn a_panicking_worker_answers_500_and_keeps_serving() {
        let snap = chain_snapshot();
        let queue = BlockingQueue::new();
        // A snapshot whose overlay was built over a different graph `Arc`
        // than its own makes the engine build assert inside `process`, as
        // a bug in a worker would. The server only pairs an overlay with
        // the graph it was built over, so only a test reaches this.
        let other = Arc::new(UncertainGraph::new(5, true).freeze());
        let torn = Arc::new(Snapshot {
            csr: snap.csr.clone(),
            index: snap.index.clone(),
            generation: 2,
            format_version: 2,
            path: "mem".to_string(),
            index_stored: false,
            delta: Some(Arc::new(DeltaOverlay::new(other))),
        });
        let (first, first_slot) = st_job(&snap, 0, 2, 9);
        let (bad, bad_slot) = st_job(&torn, 0, 2, 9);
        queue.push(first);
        queue.push(bad);
        let metrics = Arc::new(Metrics::new());
        spawn_compute_pool(1, queue.clone(), metrics.clone(), None);
        assert!(first_slot.wait().is_ok());
        assert_eq!(bad_slot.wait(), Err(WORKER_PANICKED.to_string()));
        let (next, next_slot) = st_job(&snap, 0, 3, 9);
        queue.push(next);
        assert!(next_slot.wait().is_ok());
        assert_eq!(
            metrics
                .worker_panics_total
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn the_queue_is_fifo_and_try_push_honors_its_cap() {
        let queue = BlockingQueue::new();
        queue.push(1);
        assert_eq!(queue.try_push(2, 2), Ok(()));
        assert_eq!(queue.try_push(3, 2), Err(3));
        assert_eq!(queue.depth(), 2);
        assert_eq!((queue.pop(), queue.pop()), (1, 2));
        // A zero cap still admits one item.
        assert_eq!(queue.try_push(4, 0), Ok(()));
        assert_eq!(queue.try_push(5, 0), Err(5));
        assert_eq!(queue.pop(), 4);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn constrained_jobs_resolve_through_the_pool_path() {
        let snap = chain_snapshot();
        let metrics = Metrics::new();
        let specs = vec![
            WireSpec::Query(QuerySpec::Set(vec![NodeId(0)], vec![NodeId(3), NodeId(4)])),
            WireSpec::Query(QuerySpec::TopK(NodeId(0), 2)),
            WireSpec::Query(QuerySpec::Hops(NodeId(0), NodeId(3))),
        ];
        for spec in specs {
            let slot = Slot::new();
            let job = Job {
                spec,
                snapshot: snap.clone(),
                kind: EngineKind::Mc,
                budget: Budget::fixed(256),
                seed: 5,
                max_hops: Some(2),
                slot: slot.clone(),
            };
            process(job, &metrics);
            let answer = slot.wait().unwrap();
            assert!(answer_samples(&answer) > 0);
        }
    }
}
