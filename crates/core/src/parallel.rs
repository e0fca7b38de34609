//! A persistent worker pool for intra-press snapshot synthesis.
//!
//! The counter-addressed noise scheme (see `wiforce_dsp::rng::CounterRng`
//! and the pipeline's counter synthesis path) makes every snapshot an
//! independent pure function of its simulation coordinates, so a press
//! can be synthesized as a bag of chunks with no ordering constraints.
//! This module supplies the execution side: a process-wide pool of
//! detached threads that [`run_chunks`] hands an indexed job to, with the
//! calling thread participating as a worker. Work is claimed from one
//! atomic counter (dynamic stealing — chunk costs are uneven when groups
//! fuse their line extraction), and the call returns only after every
//! chunk has finished, so the job closure may borrow from the caller's
//! stack.
//!
//! Results never depend on how many workers ran or how chunks were
//! interleaved — workers write disjoint row ranges and draw from
//! counter-addressed streams — so one worker and eight produce
//! bit-identical matrices. The pool therefore needs no
//! determinism machinery of its own; it promises completion, panic
//! propagation, and — while the recorder is on — that each chunk's
//! telemetry folds back into the caller in chunk order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use wiforce_telemetry::Recording;

/// Hard ceiling on pool threads, matching the batch engine's cap.
const MAX_WORKERS: usize = 16;

/// The default synthesis worker count: the machine's available
/// parallelism, capped at 8. A `Simulation` sets its own through its
/// `synth_workers` field.
pub fn default_workers() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    })
}

/// One published job: an indexed closure plus claim/completion state.
struct Job {
    /// Type-erased `&(dyn Fn(usize) + Sync)` borrowed from the caller's
    /// stack. Valid until [`run_chunks`] returns, which happens only
    /// after every participant has finished (tracked by `active` under
    /// the pool lock).
    f: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    n_chunks: usize,
    panicked: AtomicBool,
    /// Pool workers currently inside [`Job::work`] for *this* job.
    /// Mutated only while holding the pool lock, so the publisher's
    /// drain wait can't race a worker joining.
    active: AtomicUsize,
}

// Safety: the raw closure pointer is only dereferenced while the
// publishing `run_chunks` call is blocked waiting for completion, and
// the closure itself is `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until the counter runs out. Returns `true`
    /// if the closure panicked (the payload is dropped; the publisher
    /// re-panics with a summary).
    fn work(&self) -> bool {
        // Safety: see the field invariant on `f`.
        let f = unsafe { &*self.f };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                break false;
            }
            let _chunk = wiforce_telemetry::trace::span_arg("synth.chunk", i as u64);
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.panicked.store(true, Ordering::Release);
                break true;
            }
        }
    }
}

#[derive(Default)]
struct PoolState {
    /// The published job, its generation, and the number of pool workers
    /// still invited to join (`tickets`).
    job: Option<(u64, Arc<Job>, usize)>,
    generation: u64,
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signals workers that a job was published.
    work_ready: Condvar,
    /// Signals the publisher that a worker left the job.
    work_done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState::default()),
        work_ready: Condvar::new(),
        work_done: Condvar::new(),
    })
}

fn worker_loop() {
    let pool = pool();
    let mut last_gen = 0u64;
    loop {
        let job = {
            let mut state = pool.state.lock().expect("synth pool poisoned");
            loop {
                if let Some((generation, job, tickets)) = &mut state.job {
                    if *generation != last_gen && *tickets > 0 {
                        *tickets -= 1;
                        last_gen = *generation;
                        let job = Arc::clone(job);
                        job.active.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                }
                state = pool.work_ready.wait(state).expect("synth pool poisoned");
            }
        };
        job.work();
        let state = pool.state.lock().expect("synth pool poisoned");
        if job.active.fetch_sub(1, Ordering::Relaxed) == 1 {
            pool.work_done.notify_all();
        }
        drop(state);
    }
}

/// Runs `f(0..n_chunks)` across `workers` threads (the caller plus up to
/// `workers − 1` pool threads), returning once every chunk completed.
/// Chunk assignment is dynamic; `f` must be safe to call concurrently
/// from multiple threads on distinct indices. Panics in `f` are
/// propagated to the caller after all workers have stopped.
///
/// While the recorder is on, each chunk runs in a
/// [`wiforce_telemetry::Scope::capture`] under the caller's open spans,
/// replayed on the caller in chunk order, so `f` records with plain
/// `span!`/`counter!` whichever thread runs it.
pub(crate) fn run_chunks(workers: usize, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    let scope = wiforce_telemetry::scope();
    if !scope.is_recording() {
        return dispatch(workers, n_chunks, f);
    }
    let recordings: Vec<OnceLock<Recording>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    dispatch(workers, n_chunks, &|i| {
        let ((), rec) = scope.capture(|| f(i));
        if let Some(rec) = rec {
            let _ = recordings[i].set(rec);
        }
    });
    for rec in recordings.iter().filter_map(OnceLock::get) {
        wiforce_telemetry::replay(rec);
    }
}

/// [`run_chunks`] without its per-chunk captures.
fn dispatch(workers: usize, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let _job = wiforce_telemetry::trace::span_arg("synth.job", n_chunks as u64);
    let extra = workers.min(MAX_WORKERS).saturating_sub(1).min(n_chunks - 1);
    if extra == 0 {
        // single worker: run inline, propagating panics directly
        for i in 0..n_chunks {
            let _chunk = wiforce_telemetry::trace::span_arg("synth.chunk", i as u64);
            f(i);
        }
        return;
    }

    let pool = pool();
    // Safety: erases the closure's borrow lifetime to store it in the
    // 'static Job. The pointer is dereferenced only by workers that
    // joined this job, and this call does not return until the last of
    // them has left (the drain wait below), so the borrow outlives every
    // use.
    let f: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync + '_)) };
    let job = Arc::new(Job {
        f,
        next: AtomicUsize::new(0),
        n_chunks,
        panicked: AtomicBool::new(false),
        active: AtomicUsize::new(0),
    });
    {
        let mut state = pool.state.lock().expect("synth pool poisoned");
        // wait for the job slot to free up (concurrent run_chunks calls
        // serialize here; workers still draining an older job will pick
        // this one up when they loop back)
        while state.job.is_some() {
            state = pool.work_done.wait(state).expect("synth pool poisoned");
        }
        while state.spawned < extra {
            std::thread::Builder::new()
                .name(format!("wiforce-synth-{}", state.spawned))
                .spawn(worker_loop)
                .expect("spawn synth worker");
            state.spawned += 1;
        }
        state.generation += 1;
        state.job = Some((state.generation, Arc::clone(&job), extra));
        pool.work_ready.notify_all();
    }

    // the caller is a full participant
    let main_panicked = catch_unwind(AssertUnwindSafe(|| job.work()));

    // retire the job: withdraw unclaimed tickets, then wait until every
    // pool worker that joined has left — only then may the borrowed
    // closure go out of scope
    let mut state = pool.state.lock().expect("synth pool poisoned");
    state.job = None;
    while job.active.load(Ordering::Relaxed) > 0 {
        state = pool.work_done.wait(state).expect("synth pool poisoned");
    }
    // wake any publisher queued on the job slot
    pool.work_done.notify_all();
    drop(state);

    match main_panicked {
        Err(payload) => resume_unwind(payload),
        Ok(_) => {
            if job.panicked.load(Ordering::Acquire) {
                panic!("synthesis worker panicked (see worker thread output)");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn default_workers_is_positive_and_capped() {
        let n = default_workers();
        assert!((1..=8).contains(&n));
    }

    #[test]
    fn runs_every_chunk_exactly_once() {
        for workers in [1, 2, 4, 8] {
            let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
            run_chunks(workers, hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i} workers {workers}");
            }
        }
    }

    #[test]
    fn chunked_sums_are_worker_count_invariant() {
        let total = |workers: usize| -> u64 {
            let acc = AtomicU64::new(0);
            run_chunks(workers, 64, &|i| {
                acc.fetch_add((i as u64 + 1) * (i as u64 + 1), Ordering::Relaxed);
            });
            acc.load(Ordering::Relaxed)
        };
        let want = (1..=64u64).map(|i| i * i).sum::<u64>();
        assert_eq!(total(1), want);
        assert_eq!(total(8), want);
    }

    #[test]
    fn scalar_hold_reaches_pool_threads() {
        // two chunks that wait for each other: while the caller sits in
        // one, a pool thread must run the other
        use std::sync::{Barrier, Mutex};
        use wiforce_dsp::kernels::{backend, hold_scalar, Backend};
        let barrier = Barrier::new(2);
        let seen = Mutex::new(Vec::new());
        let _one = crate::SCALAR_HOLDS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let _scalar = hold_scalar();
        run_chunks(2, 2, &|_| {
            barrier.wait();
            let on = (std::thread::current().id(), backend());
            seen.lock().expect("chunk log").push(on);
        });
        let seen = seen.into_inner().expect("chunk log");
        let caller = std::thread::current().id();
        assert!(
            seen.iter().any(|&(t, _)| t != caller),
            "no chunk on a pool thread"
        );
        assert!(seen.iter().all(|&(_, b)| b == Backend::Scalar), "{seen:?}");
    }

    #[test]
    fn chunk_recordings_fold_back_in_chunk_order() {
        let _gate = crate::TELEMETRY_GATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        wiforce_telemetry::set_enabled(true);
        for workers in [1, 4] {
            wiforce_telemetry::reset();
            {
                let _outer = wiforce_telemetry::span!("outer");
                run_chunks(workers, 16, &|i| {
                    let _s = wiforce_telemetry::span!("chunk");
                    wiforce_telemetry::counter!("chunks", 1);
                    wiforce_telemetry::gauge!("last", i as f64);
                });
            }
            let snap = wiforce_telemetry::take();
            assert_eq!(snap.spans["outer/chunk"].count, 16, "workers {workers}");
            assert_eq!(snap.counters["chunks"], 16);
            assert_eq!(snap.gauges["last"], 15.0, "workers {workers}");
        }
        wiforce_telemetry::set_enabled(false);
    }

    #[test]
    fn sequential_calls_reuse_the_pool() {
        for round in 0..20 {
            let acc = AtomicU64::new(0);
            run_chunks(4, 13, &|i| {
                acc.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(acc.load(Ordering::Relaxed), 78, "round {round}");
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(4, 32, &|i| {
                if i == 17 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // and the pool still works afterwards
        let acc = AtomicU64::new(0);
        run_chunks(4, 8, &|i| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn zero_and_single_chunk_jobs() {
        run_chunks(8, 0, &|_| panic!("must not run"));
        let acc = AtomicU64::new(0);
        run_chunks(8, 1, &|i| {
            acc.fetch_add(i as u64 + 5, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 5);
    }
}
