//! Service counters, exported at `GET /metrics` in a flat `key value`
//! text format (one pair per line, integers or fixed-point decimals —
//! trivially greppable, no exposition format dependency).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic counters shared by every worker. All relaxed: the metrics
/// endpoint is observability, not synchronization.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// HTTP requests fully read and routed (all endpoints).
    pub http_requests_total: AtomicU64,
    /// Reliability queries answered (each line of a `/query` body).
    pub queries_total: AtomicU64,
    /// Monte-Carlo worlds actually sampled (a vector or matrix answer
    /// counts its worlds once).
    pub samples_total: AtomicU64,
    /// Queries answered by the reliability index (or the trivial `s == t`
    /// rule) without sampling a single world.
    pub index_short_circuits_total: AtomicU64,
    /// Connections refused with `503` by admission control.
    pub rejected_total: AtomicU64,
    /// Successful `/reload` swaps.
    pub reloads_total: AtomicU64,
    /// Rejected `/reload` attempts (corrupt or unreadable snapshots).
    pub reload_failures_total: AtomicU64,
    /// Individual updates applied through `/update` (each line of an
    /// accepted batch).
    pub updates_total: AtomicU64,
    /// Rejected `/update` batches (parse errors, generation mismatches,
    /// semantic apply failures).
    pub update_failures_total: AtomicU64,
    /// Completed compactions (overlay folded into a fresh snapshot and
    /// swapped in).
    pub compactions_total: AtomicU64,
    /// Abandoned compactions (lost the install race to a concurrent
    /// update or reload, or failed to persist the snapshot).
    pub compaction_failures_total: AtomicU64,
    /// Compute-worker panics caught while answering a job (the job
    /// answered `500`; the worker kept serving).
    pub worker_panics_total: AtomicU64,
}

impl Metrics {
    /// Fresh counters; the clock for `uptime_seconds`/`qps` starts now.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            http_requests_total: AtomicU64::new(0),
            queries_total: AtomicU64::new(0),
            samples_total: AtomicU64::new(0),
            index_short_circuits_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            reloads_total: AtomicU64::new(0),
            reload_failures_total: AtomicU64::new(0),
            updates_total: AtomicU64::new(0),
            update_failures_total: AtomicU64::new(0),
            compactions_total: AtomicU64::new(0),
            compaction_failures_total: AtomicU64::new(0),
            worker_panics_total: AtomicU64::new(0),
        }
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Render the `key value` text body. Gauges the metrics struct does
    /// not own (queue state, pool sizes, snapshot generation) are passed
    /// in by the router.
    pub fn render(
        &self,
        generation: u64,
        queue_depth: usize,
        queue_cap: usize,
        threads: usize,
        io_threads: usize,
    ) -> String {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let queries = self.queries_total.load(Ordering::Relaxed);
        let samples = self.samples_total.load(Ordering::Relaxed);
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        line("generation", generation.to_string());
        line("uptime_seconds", format!("{uptime:.3}"));
        line(
            "http_requests_total",
            self.http_requests_total.load(Ordering::Relaxed).to_string(),
        );
        line("queries_total", queries.to_string());
        line("samples_total", samples.to_string());
        line("qps", format!("{:.3}", queries as f64 / uptime));
        line("samples_per_sec", format!("{:.3}", samples as f64 / uptime));
        line(
            "index_short_circuits_total",
            self.index_short_circuits_total
                .load(Ordering::Relaxed)
                .to_string(),
        );
        line(
            "rejected_total",
            self.rejected_total.load(Ordering::Relaxed).to_string(),
        );
        line(
            "reloads_total",
            self.reloads_total.load(Ordering::Relaxed).to_string(),
        );
        line(
            "reload_failures_total",
            self.reload_failures_total
                .load(Ordering::Relaxed)
                .to_string(),
        );
        line(
            "updates_total",
            self.updates_total.load(Ordering::Relaxed).to_string(),
        );
        line(
            "update_failures_total",
            self.update_failures_total
                .load(Ordering::Relaxed)
                .to_string(),
        );
        line(
            "compactions_total",
            self.compactions_total.load(Ordering::Relaxed).to_string(),
        );
        line(
            "compaction_failures_total",
            self.compaction_failures_total
                .load(Ordering::Relaxed)
                .to_string(),
        );
        line(
            "worker_panics_total",
            self.worker_panics_total.load(Ordering::Relaxed).to_string(),
        );
        line("queue_depth", queue_depth.to_string());
        line("queue_cap", queue_cap.to_string());
        line("threads", threads.to_string());
        line("io_threads", io_threads.to_string());
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_contract_key() {
        let m = Metrics::new();
        Metrics::add(&m.queries_total, 7);
        let text = m.render(3, 1, 64, 2, 8);
        for key in [
            "generation ",
            "uptime_seconds ",
            "http_requests_total ",
            "queries_total 7",
            "samples_total ",
            "qps ",
            "samples_per_sec ",
            "index_short_circuits_total ",
            "rejected_total ",
            "reloads_total ",
            "reload_failures_total ",
            "updates_total ",
            "update_failures_total ",
            "compactions_total ",
            "compaction_failures_total ",
            "worker_panics_total 0",
            "queue_depth 1",
            "queue_cap 64",
            "threads 2",
            "io_threads 8",
        ] {
            assert!(
                text.lines().any(|l| l.starts_with(key)),
                "missing {key:?} in:\n{text}"
            );
        }
    }
}
