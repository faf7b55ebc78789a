//! The compute side of the service: a shared job queue the IO workers
//! feed and a fixed-size worker pool that drains it, merging compatible
//! inflight st-queries into one shared `from` pass (request coalescing).
//!
//! ## Why coalescing is sound
//!
//! Under a fixed budget the estimators guarantee
//! `from_estimates(s)[t] == st_estimate(s, t)` **bit for bit** for every
//! pair the index does not short-circuit (see
//! `Estimator::coalescable_st`; short-circuited pairs are answered before
//! jobs are enqueued, so they never reach the queue). The worker that
//! dequeues an st job therefore steals every queued st job with the same
//! (generation, estimator, seed, budget, source) key, runs the vector
//! pass once, and splits the answer — byte-identical to running each
//! query alone, at a fraction of the sampling work. Accuracy budgets stop
//! adaptively per query and RSS stratifies per target, so neither is ever
//! coalesced.

use crate::metrics::Metrics;
use crate::state::{AnyEngine, EngineKind, Snapshot};
use relmax_core::QueryAnswer;
use relmax_gen::workload::{QuerySpec, WireSpec};
use relmax_sampling::Budget;
use relmax_ugraph::NodeId;
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

/// The identity two st jobs must share to be answered from one `from`
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceKey {
    generation: u64,
    kind: EngineKind,
    seed: u64,
    samples: usize,
    /// The shared source node.
    pub source: NodeId,
}

impl Job {
    /// The coalescing key, if this job is eligible: an *unbounded* st
    /// query under a fixed budget. A `% max-hops` bound disqualifies the
    /// job — hop-bounded answers cannot be split out of a `from` vector.
    /// (The estimator's own `coalescable_st` gate is checked by the
    /// worker, which has the engine in hand.)
    pub fn coalesce_key(&self) -> Option<CoalesceKey> {
        if self.max_hops.is_some() {
            return None;
        }
        let WireSpec::Query(QuerySpec::St(s, _)) = &self.spec else {
            return None;
        };
        let Budget::FixedSamples(samples) = self.budget else {
            return None;
        };
        Some(CoalesceKey {
            generation: self.snapshot.generation,
            kind: self.kind,
            seed: self.seed,
            samples,
            source: *s,
        })
    }

    /// The target node, when this is an st job.
    fn st_target(&self) -> Option<NodeId> {
        match &self.spec {
            WireSpec::Query(QuerySpec::St(_, t)) => Some(*t),
            _ => None,
        }
    }
}

/// The shared FIFO between IO and compute workers.
#[derive(Default)]
pub struct JobQueue {
    inner: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Arc<Self> {
        Arc::new(JobQueue::default())
    }

    /// Enqueue a job and wake one worker.
    pub fn push(&self, job: Job) {
        self.inner.lock().expect("job queue lock").push_back(job);
        self.cv.notify_one();
    }

    /// Block until a job is available.
    fn pop(&self) -> Job {
        let mut q = self.inner.lock().expect("job queue lock");
        loop {
            if let Some(job) = q.pop_front() {
                return job;
            }
            q = self.cv.wait(q).expect("job queue lock");
        }
    }

    /// Remove and return every queued job sharing `key` (the coalescing
    /// steal). FIFO order among the stolen jobs is preserved.
    fn steal_matching(&self, key: &CoalesceKey) -> Vec<Job> {
        let mut q = self.inner.lock().expect("job queue lock");
        let mut kept = VecDeque::with_capacity(q.len());
        let mut stolen = Vec::new();
        for job in q.drain(..) {
            if job.coalesce_key().as_ref() == Some(key) {
                stolen.push(job);
            } else {
                kept.push_back(job);
            }
        }
        *q = kept;
        stolen
    }
}

/// Spawn `threads` detached compute workers draining `queue`. `slow`
/// inserts a post-dequeue sleep (the `RELMAX_SERVE_TEST_SLOW_MS` test
/// hook) so tests can deterministically pile compatible jobs behind an
/// inflight one.
///
/// A panic while answering a job is caught and counted in
/// `worker_panics_total`; the worker goes on to the next job. Unwinding
/// drops the job (and any coalesced mates it stole), whose drop guards
/// answer their requesters with [`WORKER_PANICKED`].
pub fn spawn_compute_pool(
    threads: usize,
    queue: Arc<JobQueue>,
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
            let answered = catch_unwind(AssertUnwindSafe(|| process(job, &queue, &metrics)));
            if answered.is_err() {
                Metrics::add(&metrics.worker_panics_total, 1);
            }
        });
    }
}

/// Answer one dequeued job (plus any coalesced mates).
pub fn process(job: Job, queue: &JobQueue, metrics: &Metrics) {
    let engine = AnyEngine::build(&job.snapshot, job.kind, job.budget, job.seed);
    if engine.coalescable_st() {
        if let Some(key) = job.coalesce_key() {
            let mates = queue.steal_matching(&key);
            if !mates.is_empty() {
                let group = 1 + mates.len();
                match engine.from_vector(key.source, job.budget) {
                    Ok(vec) => {
                        Metrics::add(&metrics.coalesced_queries_total, group as u64);
                        let z = vec.iter().map(|e| e.samples_used).max().unwrap_or(0);
                        Metrics::add(&metrics.samples_total, z as u64);
                        for j in std::iter::once(job).chain(mates) {
                            let t = j.st_target().expect("coalesced jobs are st queries");
                            j.slot.fill(Ok(QueryAnswer::Scalar(vec[t.index()])));
                        }
                    }
                    Err(e) => {
                        let msg = e.to_string();
                        for j in std::iter::once(job).chain(mates) {
                            j.slot.fill(Err(msg.clone()));
                        }
                    }
                }
                return;
            }
        }
    }
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
    use relmax_ugraph::{RelIndex, UncertainGraph};

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
    fn coalesced_answers_are_bit_identical_to_solo_runs() {
        let snap = chain_snapshot();
        let metrics = Metrics::new();

        // Solo baseline: each query processed with an empty queue.
        let solo_queue = JobQueue::new();
        let mut solo = Vec::new();
        for t in [2u32, 3, 4] {
            let (job, slot) = st_job(&snap, 0, t, 9);
            process(job, &solo_queue, &metrics);
            solo.push(slot.wait().unwrap());
        }

        // Coalesced: queue two mates behind the job being processed.
        let queue = JobQueue::new();
        let (first, first_slot) = st_job(&snap, 0, 2, 9);
        let (mate_a, slot_a) = st_job(&snap, 0, 3, 9);
        let (mate_b, slot_b) = st_job(&snap, 0, 4, 9);
        queue.push(mate_a);
        queue.push(mate_b);
        let m = Metrics::new();
        process(first, &queue, &m);
        assert_eq!(
            m.coalesced_queries_total
                .load(std::sync::atomic::Ordering::Relaxed),
            3
        );
        assert_eq!(
            [
                first_slot.wait().unwrap(),
                slot_a.wait().unwrap(),
                slot_b.wait().unwrap()
            ],
            [solo[0].clone(), solo[1].clone(), solo[2].clone()],
        );
        assert!(queue.inner.lock().unwrap().is_empty());
    }

    #[test]
    fn mismatched_keys_are_not_stolen() {
        let snap = chain_snapshot();
        let queue = JobQueue::new();
        let (first, first_slot) = st_job(&snap, 0, 2, 9);
        let (other_seed, other_slot) = st_job(&snap, 0, 3, 10);
        let (other_source, src_slot) = st_job(&snap, 1, 2, 9);
        queue.push(other_seed);
        queue.push(other_source);
        let m = Metrics::new();
        process(first, &queue, &m);
        assert_eq!(
            m.coalesced_queries_total
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        // The mates are still queued, untouched.
        assert_eq!(queue.inner.lock().unwrap().len(), 2);
        first_slot.wait().unwrap();
        // Drain them solo so their slots resolve too.
        let j = queue.pop();
        process(j, &queue, &m);
        let j = queue.pop();
        process(j, &queue, &m);
        other_slot.wait().unwrap();
        src_slot.wait().unwrap();
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
        process(job, &JobQueue::new(), &Metrics::new());
        assert!(slot.wait().is_ok());
    }

    #[test]
    fn a_panicking_worker_answers_500_and_keeps_serving() {
        let snap = chain_snapshot();
        let queue = JobQueue::new();
        // A coalesced mate whose target is out of range makes the worker
        // index past the shared `from` vector, as a bug in a worker
        // would. Requests validate nodes before enqueueing, so only a
        // test reaches this. Both jobs are queued before the worker
        // starts, so the first one steals the second.
        let (first, first_slot) = st_job(&snap, 0, 2, 9);
        let (bad, bad_slot) = st_job(&snap, 0, 99, 9);
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
    fn accuracy_budgets_never_coalesce() {
        let snap = chain_snapshot();
        let slot = Slot::new();
        let job = Job {
            spec: WireSpec::Query(QuerySpec::St(NodeId(0), NodeId(2))),
            snapshot: snap,
            kind: EngineKind::Mc,
            budget: Budget::accuracy(0.05, 0.05),
            seed: 1,
            max_hops: None,
            slot,
        };
        assert!(job.coalesce_key().is_none());
    }

    #[test]
    fn hop_bounded_jobs_never_coalesce() {
        let snap = chain_snapshot();
        let (mut job, _slot) = st_job(&snap, 0, 2, 9);
        assert!(job.coalesce_key().is_some());
        job.max_hops = Some(3);
        assert!(
            job.coalesce_key().is_none(),
            "a from vector cannot answer hop-bounded st queries"
        );
    }

    #[test]
    fn constrained_jobs_resolve_through_the_pool_path() {
        let snap = chain_snapshot();
        let metrics = Metrics::new();
        let queue = JobQueue::new();
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
            process(job, &queue, &metrics);
            let answer = slot.wait().unwrap();
            assert!(answer_samples(&answer) > 0);
        }
    }
}
