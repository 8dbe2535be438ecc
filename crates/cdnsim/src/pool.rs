//! The one worker pool every parallel path in the workspace runs on.
//!
//! Datasets, their index builds, /24 server blocks and experiments are all
//! independent units of work whose combined output must be byte-identical
//! for any worker count. [`par_map`] is that pattern written once: scoped
//! workers pull the next item off a shared cursor, and the results are
//! reassembled in input order, so the schedule never reaches the output.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count for a requested `jobs`: `0` means one worker per
/// available CPU, and no count goes above the CPU count — more threads
/// than cores would only wait.
pub fn resolve_jobs(jobs: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if jobs == 0 {
        cpus
    } else {
        jobs.min(cpus)
    }
}

/// Maps `f` over `items` on `resolve_jobs(jobs).min(items.len())` scoped
/// worker threads and returns the results in input order. With at most
/// one worker it is a plain `map` on the calling thread. A worker's panic
/// is re-raised on the caller with its original payload.
pub fn par_map<T: Sync, R: Send>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = resolve_jobs(jobs).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the cursor publishes no data; results
                        // reach the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    // Every index is taken exactly once, so the key is unique.
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_jobs_caps_at_the_cpu_count() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!((resolve_jobs(0), resolve_jobs(50_000)), (cpus, cpus));
        assert_eq!(resolve_jobs(1), 1);
    }

    #[test]
    fn par_map_keeps_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let squares: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0, 1, 2, 7] {
            assert_eq!(par_map(jobs, &items, |x| x * x), squares, "jobs {jobs}");
            assert!(par_map(jobs, &items[..0], |x| x * x).is_empty());
            assert_eq!(
                par_map(jobs, &items[..1], |x| x + 1),
                [1],
                "fewer items than workers"
            );
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..16).collect();
        let panic =
            std::panic::catch_unwind(|| par_map(2, &items, |&x| assert!(x != 11, "item {x}")))
                .expect_err("the panic propagates");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("item 11")
        );
    }
}
