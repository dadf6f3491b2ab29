//! Scoped data parallelism for offline work.
//!
//! A request never fans out: a server already runs each request on the io
//! thread that owns it, so every request path is a plain loop on the
//! calling thread. What is left here is [`map`], which an offline build
//! ([`ShardedSummary::build`](crate::sharded::ShardedSummary::build)) uses
//! to fit its shards side by side on scoped threads.

use std::panic::resume_unwind;

/// The machine's available parallelism, which already respects CPU
/// affinity. Always at least 1.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Indexed map: `out[i] = f(i, &items[i])`, in input order. The items are
/// cut into at most [`max_threads`] contiguous chunks of at least
/// `min_chunk` items, one scoped thread per chunk (the first runs on the
/// caller). Every item is computed on its own, so the result is bitwise
/// the serial loop's; a panic in any chunk is re-raised on the caller.
pub fn map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_in(max_threads(), items, min_chunk, f)
}

/// [`map`] with an explicit thread budget.
fn map_in<T, R, F>(threads: usize, items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run = |base: usize, chunk: &[T]| -> Vec<R> {
        (base..).zip(chunk).map(|(i, item)| f(i, item)).collect()
    };
    let threads = threads.min(items.len() / min_chunk.max(1)).max(1);
    if threads == 1 {
        return run(0, items);
    }
    let size = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let run = &run;
        let rest: Vec<_> = (size..)
            .step_by(size)
            .zip(items[size..].chunks(size))
            .map(|(base, chunk)| scope.spawn(move || run(base, chunk)))
            .collect();
        let mut out = run(0, &items[..size]);
        for handle in rest {
            out.extend(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_budget() {
        let items: Vec<usize> = (0..517).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8] {
            let out = map_in(threads, &items, 4, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, expected, "{threads} threads");
        }
        assert!(map(&[] as &[u8], 1, |_, _| -> u8 { panic!("no items") }).is_empty());
    }

    #[test]
    fn small_inputs_stay_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = map_in(8, &[(); 10], 100, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_panicking_chunk_panics_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            map_in(4, &items, 1, |i, _| assert!(i != 50, "chunk panic"))
        });
        assert!(result.is_err());
    }
}
