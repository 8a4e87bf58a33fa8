//! The workspace's one host-parallel primitive.
//!
//! [`parallel_map`] runs an index-parallel map on scoped threads spawned
//! once per call, with the caller as one of the executors. The DSE prices
//! its partition probe and runs its partitions through it, and Blaze
//! serving executes its fallback requests and closed batches through it.
//! Results come back in index order whatever the claim order and the
//! thread schedule, so callers whose `f` is a pure function of the index
//! get the same output at every thread count.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over the indices `0..order.len()` on up to `threads`
/// executors and returns the results in index order.
///
/// `order` is a permutation of `0..order.len()`: executors claim its
/// entries off one shared counter, first-come-first-served, so it sets
/// which index starts first (serving hands the costliest batches out
/// first). The caller is one executor; at most
/// `min(threads, order.len()) − 1` helper threads named `s2fa-par-<k>`
/// are spawned for this call and joined before it returns. With one
/// executor nothing is spawned and every item runs on the caller, in
/// `order`. A panic in `f` on a helper thread is raised again on the
/// caller once every executor has stopped.
pub fn parallel_map<T, F>(threads: usize, order: &[usize], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, f(i)));
        }
        done
    };
    let helpers = threads.min(order.len()).saturating_sub(1);
    let mut indexed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|k| {
                std::thread::Builder::new()
                    .name(format!("s2fa-par-{k}"))
                    .spawn_scoped(scope, claim)
                    .expect("spawn a parallel_map helper thread")
            })
            .collect();
        let mut all = claim();
        for handle in handles {
            match handle.join() {
                Ok(done) => all.extend(done),
                Err(payload) => resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_come_back_in_index_order() {
        let reversed: Vec<usize> = (0..50).rev().collect();
        let strided: Vec<usize> = (0..50).map(|k| k * 7 % 50).collect();
        let want: Vec<usize> = (0..50).map(|i| i * i).collect();
        for order in [(0..50).collect(), reversed, strided] {
            for threads in [1, 2, 5] {
                assert_eq!(
                    parallel_map(threads, &order, |i| i * i),
                    want,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn an_empty_order_maps_to_nothing() {
        for threads in [0, 1, 5] {
            let out: Vec<u8> = parallel_map(threads, &[], |_| panic!("no item to map"));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn one_executor_runs_every_item_on_the_caller_in_order() {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let order = [2, 0, 1];
        parallel_map(1, &order, |i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), order);
    }

    #[test]
    fn helpers_are_named_and_never_outnumber_the_items() {
        let names = parallel_map(8, &[0, 1, 2], |_| {
            std::thread::current().name().map(str::to_string)
        });
        let caller = std::thread::current().name().map(str::to_string);
        for name in &names {
            let helper = name.as_deref().and_then(|n| n.strip_prefix("s2fa-par-"));
            assert!(
                *name == caller || helper.is_some_and(|k| k == "0" || k == "1"),
                "{name:?} ran an item"
            );
        }
    }

    #[test]
    fn a_panic_in_f_is_raised_on_the_caller() {
        for threads in [1, 2, 5] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(threads, &[0, 1, 2, 3, 4, 5, 6, 7], |i| {
                    if i % 2 == 1 {
                        panic!("item failed");
                    }
                    i
                })
            }))
            .expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item failed"));
        }
    }
}
