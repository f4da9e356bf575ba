//! Minimal scoped-thread fan-out used by the engine's hot paths (and by the
//! `gpdt-shard` merge's gathering-detection stage).
//!
//! The discovery engine parallelises two embarrassingly parallel loops: the
//! δ-edges of each tick pair and per-crowd gathering detection.  Both need an
//! order-preserving parallel map over a slice; `std::thread::scope` keeps
//! this dependency-free, in the same style as
//! `ClusterDatabase::build_parallel`.

/// A stage of one ingest step stays on the calling thread when it has fewer
/// clusters than this to visit — the batch's, for the edge phase; those of
/// the crowds to detect gatherings in.  A cluster costs tens of nanoseconds
/// to some microseconds there, starting a worker thread some tens of
/// microseconds.
const FAN_OUT_MIN_CLUSTERS: usize = 4096;

/// The worker count for a stage that visits `clusters` clusters on a budget
/// of `threads`: the budget once there are 4 096 clusters to visit, the
/// calling thread alone below that.  The edge phase, the engine's gathering
/// detection and the sharded merge's all fan out by this one rule.
pub fn fan_out_threads(clusters: usize, threads: usize) -> usize {
    if clusters < FAN_OUT_MIN_CLUSTERS {
        1
    } else {
        threads
    }
}

/// The default worker count: the host's available parallelism, resolved
/// once per process (see [`gpdt_obs::host_threads`]), so building an engine
/// or a discovery sweep never asks the OS.
pub(crate) use gpdt_obs::host_threads as default_threads;

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Falls back to a plain sequential map when a single thread is requested or
/// there is at most one item, so callers never pay spawn overhead for tiny
/// inputs.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), item| f(item))
}

/// Order-preserving parallel map with per-worker state:
/// `out[i] = f(&mut state, &items[i])`, where each worker thread creates one
/// `state` with `init` and reuses it across all items of its chunk.
///
/// This is the scratch-arena hook of the engine's fan-out stages: a worker
/// building one search index per tick keeps a single reusable buffer set for
/// its whole chunk instead of allocating per tick.  The state must never
/// influence results (it is a cache/buffer), which keeps the output
/// independent of the thread count.
pub fn par_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(|| {
                let mut state = init();
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(&mut state, item));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(par_map(&items, threads, |&x| x * x), expected);
        }
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        assert_eq!(par_map::<u32, u32, _>(&[], 4, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn stateful_map_preserves_order_and_reuses_state() {
        let items: Vec<u64> = (0..57).collect();
        let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
        for threads in [1, 2, 5, 100] {
            // The per-worker state is a reused buffer; results must not
            // depend on how it is shared across items.
            let got = par_map_with(&items, threads, Vec::<u64>::new, |buf, &x| {
                buf.push(x);
                x + 1
            });
            assert_eq!(got, expected, "{threads} threads");
        }
    }
}
