//! The workspace's one parallel fan-out: designs in a batch.
//!
//! [`map_ordered`] and its caught/streamed variants fan the items of a
//! batch (`sfqt1 flow --batch`, `sfqt1 verify --batch`, a daemon
//! request's designs, the corpus and Table I harnesses) over `std::thread::scope`
//! workers and hand results back in input order. Everything inside one
//! design — cut enumeration, T1 detection, phase assignment, DFF insertion,
//! margin trials — runs on the thread that claimed the design, so a batch
//! never runs more than [`workers`] flow threads and a design's result never
//! depends on the worker count.

use crate::sync;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override installed by [`force_workers`] (0 = none).
///
/// Deliberately a plain std atomic even under the `chk` feature: it is
/// process-wide *configuration* read before a fan-out starts, not part of
/// any protocol a model explores (model tests pin it with
/// [`force_workers`] before checking).
static FORCED: AtomicUsize = AtomicUsize::new(0);

/// Sanity cap on *explicit* worker overrides ([`force_workers`],
/// `SFQ_WORKERS`). The default worker count is the host's available
/// parallelism, so this bound only matters for deliberate oversubscription
/// (the determinism tests run 8 workers on 1-core CI hosts) — it exists so
/// a typo like `SFQ_WORKERS=10000` cannot spawn an absurd thread count,
/// not as a tuning knob.
pub const MAX_WORKERS: usize = 64;

/// Forces [`workers`] to return `n` for the rest of the process (`0`
/// clears the override).
///
/// This is the in-process testing hook: tests use it to exercise the
/// batch fan-out's merges even on single-core hosts. It exists so
/// tests never have to call `std::env::set_var` at runtime (a data race
/// against concurrent `getenv` on POSIX); the `SFQ_WORKERS` environment
/// variable serves the same purpose from *outside* the process, where it
/// is inherited before any thread starts and read exactly once.
pub fn force_workers(n: usize) {
    FORCED.store(n, Ordering::SeqCst);
}

/// Validates an `SFQ_WORKERS` value: a positive integer, capped at
/// [`MAX_WORKERS`]. `0` and non-numeric values are rejected with a reason —
/// silently falling back would let a typo like `SFQ_WORKERS=all` change
/// behavior with no signal, which a long-running daemon cannot afford.
///
/// # Errors
/// A human-readable rejection reason.
pub fn parse_workers(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("worker count must be at least 1".to_string()),
        Ok(n) => Ok(n.min(MAX_WORKERS)),
        Err(_) => Err(format!("`{value}` is not a number")),
    }
}

/// Number of scoped worker threads a batch fan-out may use: the host's
/// available parallelism (`std::thread::available_parallelism()`, which
/// respects container CPU quotas and affinity masks), overridable by
/// [`force_workers`] or the `SFQ_WORKERS` environment variable (read once,
/// at first use; explicit overrides may exceed the host's core count up to
/// [`MAX_WORKERS`], which is how single-core CI exercises the merges).
pub fn workers() -> usize {
    let forced = FORCED.load(Ordering::SeqCst);
    if forced != 0 {
        return forced.clamp(1, MAX_WORKERS);
    }
    static FROM_ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    if let Some(w) = *FROM_ENV.get_or_init(|| match std::env::var("SFQ_WORKERS") {
        Err(_) => None,
        Ok(v) => match parse_workers(&v) {
            Ok(w) => Some(w),
            Err(reason) => {
                // One-time by construction: the OnceLock initializer
                // runs exactly once per process.
                eprintln!(
                    "warning: ignoring SFQ_WORKERS={v:?}: {reason}; \
                     using the host's available parallelism"
                );
                None
            }
        },
    }) {
        return w;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A panic captured from one item of [`map_ordered_caught`]: the original
/// unwind payload, so nothing is lost between the worker and the caller.
pub struct ItemPanic {
    payload: Box<dyn std::any::Any + Send + 'static>,
}

impl ItemPanic {
    /// Best-effort human-readable panic message (the `&str` / `String`
    /// payload of an ordinary `panic!`, or a placeholder for exotic
    /// payloads).
    pub fn message(&self) -> String {
        panic_message(self.payload.as_ref())
    }

    /// Borrows the raw unwind payload (for `downcast_ref` classification —
    /// e.g. the supervision layer recognizing [`crate::BudgetExceeded`]).
    pub fn payload(&self) -> &(dyn std::any::Any + Send + 'static) {
        self.payload.as_ref()
    }

    /// Re-raises the captured panic on the current thread with its original
    /// payload.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ItemPanic({:?})", self.message())
    }
}

/// Renders a panic payload as text: the `&str` / `String` carried by an
/// ordinary `panic!`, or a placeholder for any other `panic_any` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `f` on one claimed item with per-item panic isolation, so one
/// poisoned item cannot take down the whole fan-out.
fn run_item<T, U>(k: usize, item: T, f: &(impl Fn(T) -> U + Sync)) -> Result<U, ItemPanic> {
    #[cfg(not(feature = "fault-injection"))]
    let _ = k;
    // AssertUnwindSafe: `f` is shared immutably across items, and a panicked
    // item's partial state is dropped with the closure scope — the caller
    // only ever observes completed results or the captured payload.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        crate::faultpt::hit("par.item", &k.to_string());
        f(item)
    }))
    .map_err(|payload| ItemPanic { payload })
}

/// Maps `f` over `items` on up to [`workers`] scoped threads, returning the
/// results **in input order** regardless of scheduling.
///
/// This is the shared fan-out primitive of the batch drivers (`sfqt1 flow
/// --batch`, the corpus table): items are claimed from an atomic cursor, so
/// uneven per-item cost balances automatically, and the order-preserving
/// merge keeps the observable output bit-identical for every worker count.
/// With one worker (single-core host or `SFQ_WORKERS=1`) it degenerates to
/// a plain in-order map with no thread spawns.
///
/// A panicking item no longer aborts its worker: every item runs to a
/// result either way (see [`map_ordered_caught`]), and the panic of the
/// **lowest input index** is then re-raised on the calling thread — so the
/// failure surface is deterministic and independent of worker count.
/// Callers that want to survive poisoned items use [`map_ordered_caught`]
/// directly.
pub fn map_ordered<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let mut first_panic: Option<ItemPanic> = None;
    let results: Vec<U> = map_ordered_caught(items, f)
        .into_iter()
        .filter_map(|r| match r {
            Ok(u) => Some(u),
            Err(p) => {
                first_panic.get_or_insert(p);
                None
            }
        })
        .collect();
    match first_panic {
        None => results,
        Some(p) => p.resume(),
    }
}

/// [`map_ordered`] with per-item panic containment: each item yields either
/// its result or the captured panic ([`ItemPanic`]), **in input order**.
///
/// A panicking worker closure poisons only its own item — the worker thread
/// survives and keeps claiming items, so the surviving results are
/// byte-identical to a run where the poisoned item was simply absent, for
/// any worker count. This is what lets `sfqt1 flow --batch` degrade
/// gracefully instead of dying with the first broken design.
pub fn map_ordered_caught<T, U, F>(items: Vec<T>, f: F) -> Vec<Result<U, ItemPanic>>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    // Emission is in input order, so collecting into a Vec preserves it.
    map_ordered_streamed(items, f, |_k, r| results.push(r));
    results
}

/// In-order state of one [`map_ordered_streamed`] run: completed results
/// that are still waiting for an earlier item to finish.
struct EmitState<U> {
    next: usize,
    pending: std::collections::BTreeMap<usize, Result<U, ItemPanic>>,
}

/// [`map_ordered_caught`] that **streams**: `emit(k, result)` is called for
/// every item, in input order, as soon as all items `0..=k` have finished —
/// instead of buffering the whole result vector until the slowest item is
/// done. The first item's result is observable while later items are still
/// running, which is what lets batch drivers and the `sfqt1d` daemon print
/// or transmit result rows before a batch completes.
///
/// `emit` runs under an internal lock (on whichever worker finished the
/// unblocking item), so it may be `FnMut`; long work inside `emit` delays
/// other workers' emissions but not their computations. Panic containment
/// and ordering semantics are exactly those of [`map_ordered_caught`].
pub fn map_ordered_streamed<T, U, F, E>(items: Vec<T>, f: F, emit: E)
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
    E: FnMut(usize, Result<U, ItemPanic>) + Send,
{
    let n = items.len();
    let threads = workers().min(n);
    let mut emit = emit;
    if threads <= 1 {
        for (k, item) in items.into_iter().enumerate() {
            emit(k, run_item(k, item, &f));
        }
        return;
    }
    let work: Vec<sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| sync::Mutex::new(Some(item)))
        .collect();
    let cursor = sync::AtomicUsize::new(0);
    let sink = sync::Mutex::new((
        EmitState {
            next: 0,
            pending: std::collections::BTreeMap::new(),
        },
        emit,
    ));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                sync::spawn_scoped(scope, || loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let item = work[k]
                        .lock()
                        .expect("work slot lock")
                        .take()
                        .expect("each work item is claimed once");
                    let result = run_item(k, item, &f);
                    let (state, emit) = &mut *sink.lock().expect("emit sink lock");
                    state.pending.insert(k, result);
                    // Drain the contiguous prefix: emit everything that is
                    // now unblocked, in input order.
                    while let Some(r) = state.pending.remove(&state.next) {
                        emit(state.next, r);
                        state.next += 1;
                    }
                })
            })
            .collect();
        for handle in handles {
            // Worker bodies catch per item, so a worker can only die on a
            // panic outside `f` (a poisoned slot lock); preserve that
            // payload instead of replacing it with a join message.
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    });
}
