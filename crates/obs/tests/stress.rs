//! Concurrency stress for the metrics registry: rayon tasks on a 4-thread
//! pool hammering the same counters and spans must merge to exact totals.
//! Lives in its own integration-test binary so the process-global registry
//! isn't shared with unrelated tests.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use rayon::prelude::*;

const TASKS: u64 = 64;
const INNER: u64 = 500;
const THREADS: usize = 4;

#[test]
fn concurrent_spans_and_counters_merge_exactly() {
    obs::Obs::enable();
    obs::reset();

    let items = obs::counter("stress.items");
    let batches = obs::counter("stress.batches");
    let peak = obs::gauge("stress.peak");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("build pool");
    let span_threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());

    pool.install(|| {
        (0..TASKS).into_par_iter().for_each(|t| {
            let _outer = obs::span("stress");
            span_threads.lock().unwrap().insert(thread::current().id());
            // Hold the task (bounded) until a second thread records spans
            // too, so the merge is exercised across threads, not assumed.
            let start = Instant::now();
            while span_threads.lock().unwrap().len() < 2
                && start.elapsed() < Duration::from_secs(10)
            {
                thread::yield_now();
            }
            batches.inc();
            peak.set_max(t);
            for _ in 0..INNER {
                let _inner = obs::span("stress.inner");
                items.add(1);
            }
        })
    });
    let span_threads = span_threads.into_inner().unwrap().len();
    assert!(
        span_threads > 1,
        "spans recorded on {span_threads} thread(s) only"
    );

    // Every task's outermost span has closed, so every thread-local buffer
    // has flushed: totals are exact, not approximate.
    let snap = obs::snapshot();
    assert_eq!(snap.counter("stress.items"), Some(TASKS * INNER));
    assert_eq!(snap.counter("stress.batches"), Some(TASKS));
    assert_eq!(snap.gauge("stress.peak"), Some(TASKS - 1));

    let outer = snap.span("stress").expect("outer span recorded");
    assert_eq!(outer.count, TASKS);
    let inner = snap.span("stress.inner").expect("inner span recorded");
    assert_eq!(inner.count, TASKS * INNER);
    assert!(inner.max_ns <= inner.total_ns);
    assert!(outer.total_ns > 0);

    // A second hammering round keeps accumulating (no reset in between).
    pool.install(|| {
        (0..TASKS).into_par_iter().for_each(|_| {
            let _outer = obs::span("stress");
            items.add(1);
        })
    });
    let snap = obs::snapshot();
    assert_eq!(snap.counter("stress.items"), Some(TASKS * INNER + TASKS));
    assert_eq!(snap.span("stress").unwrap().count, 2 * TASKS);

    obs::Obs::disable();
    obs::reset();
}
