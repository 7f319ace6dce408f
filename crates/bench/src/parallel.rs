//! The experiment-arm driver: independent arms (srlg's two legs, the
//! ablation grid, multi-seed campaigns) run concurrently on a scoped pool.
//!
//! Work is distributed through a **shared atomic-counter queue** rather
//! than fixed striping: workers pull the next arm off the counter as they
//! finish, so one slow arm cannot idle the rest of the pool. Determinism is
//! preserved by separating *scheduling* from *merging*: whichever worker
//! runs arm `i`, its result lands in slot `i`, so the output depends only
//! on the arms, never on thread count or scheduling jitter.
//!
//! (The fleet sweep has the same shape but lives in `rwc-harness`, where
//! it also gets panic isolation and checkpoint/resume; experiments reach
//! it through `experiments::fleet_sweep`.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Runs independent experiment arms concurrently on a scoped pool and
/// returns their results **in input order** — the deterministic-merge
/// contract: output depends only on the arms, never on scheduling.
///
/// Arms are pulled from the same atomic-counter queue as the fleet sweep,
/// so a long arm (srlg's MBB leg, a slow ablation cell) doesn't serialise
/// behind a fixed assignment. Panics in an arm propagate to the caller.
/// Results come back over an mpsc channel instead of shared `Mutex`
/// slots, so a panicking arm can never poison a lock another worker (or
/// the collector) would have to unwrap.
pub fn parallel_arms<T: Send>(arms: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    /// A queued arm: taken exactly once by whichever worker claims its index.
    type QueuedArm<'a, T> = Mutex<Option<Box<dyn FnOnce() -> T + Send + 'a>>>;
    let n = arms.len();
    if n == 0 {
        return Vec::new();
    }
    let queue: Vec<QueuedArm<'_, T>> = arms.into_iter().map(|a| Mutex::new(Some(a))).collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for _ in 0..default_workers().min(n) {
            let tx = tx.clone();
            let queue = &queue;
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The lock is held only for the take — arm() runs outside
                // it, so even an arm that panics leaves no poisoned lock.
                let arm = queue[i].lock().expect("arm queue poisoned").take();
                let arm = arm.expect("arm taken twice");
                tx.send((i, arm())).ok();
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots.into_iter().map(|s| s.expect("arm not run")).collect()
}

/// Two-arm convenience for A/B experiments (MBB vs legacy, reactive vs
/// predictive): runs both concurrently, returns them as a pair.
pub fn parallel_pair<T: Send, A, B>(a: A, b: B) -> (T, T)
where
    A: FnOnce() -> T + Send,
    B: FnOnce() -> T + Send,
{
    let mut results = parallel_arms(vec![Box::new(a) as Box<_>, Box::new(b) as Box<_>]);
    let second = results.pop().expect("two arms in, two out");
    let first = results.pop().expect("two arms in, two out");
    (first, second)
}

/// Picks a sensible worker count for this machine.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_return_in_input_order() {
        // More arms than workers, deliberately uneven, values distinct:
        // results must come back exactly in input order.
        let arms: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..37)
            .map(|i| {
                Box::new(move || {
                    // Uneven busywork so completion order scrambles.
                    let spins = (37 - i) * 1000;
                    let mut acc = 0usize;
                    for k in 0..spins {
                        acc = acc.wrapping_add(k);
                    }
                    std::hint::black_box(acc); // keep the busywork alive
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = parallel_arms(arms);
        assert_eq!(results, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn pair_preserves_sides() {
        let (a, b) = parallel_pair(|| "left", || "right");
        assert_eq!((a, b), ("left", "right"));
    }

    #[test]
    fn empty_arms_are_fine() {
        let results: Vec<u8> = parallel_arms(Vec::new());
        assert!(results.is_empty());
    }

    #[test]
    fn default_workers_sane() {
        let w = default_workers();
        assert!((1..=16).contains(&w));
    }
}
