//! A minimal scoped worker pool — the workspace's only parallelism
//! substrate.
//!
//! The build environment has no crates.io access, so this crate
//! provides the rayon-shaped subset the evaluation stack needs, on
//! `std` alone:
//!
//! - [`Pool::scope`] / [`Scope::spawn`]: structured fork-join over
//!   **borrowed** data. A scope does not return until every task it
//!   spawned has finished, so tasks may capture references to the
//!   caller's stack frame (the same guarantee as `std::thread::scope`,
//!   without spawning a thread per task).
//! - [`Pool::join`]: the two-way special case; runs one closure inline
//!   on the calling thread while the other is up for grabs.
//! - [`Pool::map_slice`] / [`Pool::map_chunks`] / [`Pool::reduce`]:
//!   order-preserving data-parallel helpers built on `scope`.
//! - [`Parallelism`]: the runtime knob every evaluation entry point
//!   takes. `Parallelism::sequential()` (the default everywhere) means
//!   the pool is never touched — single-threaded callers pay nothing.
//!
//! # Scheduling
//!
//! Each worker owns a deque behind its own mutex: the owner pushes and
//! pops at the back (LIFO keeps the working set warm), thieves and the
//! external injector are FIFO at the front — mutex-per-deque
//! work-stealing rather than a lock-free Chase–Lev deque, which keeps
//! the implementation small and obviously correct at the cost of an
//! uncontended lock per queue operation (µs-scale tasks; fine for the
//! chunk sizes the evaluators use).
//!
//! **Scope affinity.** Every scope gets a process-unique id and
//! carries its full ancestry path (root scope first); every spawned
//! task is tagged with the spawning scope's path. Worker threads in
//! their main loop run *anything* — that is the throughput path. But a
//! thread *waiting* on a scope (inside [`Pool::scope`] or
//! [`Pool::join`]) helps only with tasks whose path contains its own
//! scope id: its own tasks, or tasks of scopes transitively nested
//! inside it. It never executes a foreign request's work, so a cheap
//! request's critical path can no longer be captured by a stranger's
//! multi-millisecond task. Helping stays deadlock-free by induction:
//! every pending task of the waiter's subtree is either queued — and
//! therefore claimable by the waiter itself — or already running on
//! some thread, whose own nested waits only ever involve deeper
//! subtrees of the same scope.
//!
//! **Priority lanes.** The injector is not one global FIFO but a set
//! of per-root-scope FIFO lanes, each classified [`Lane::Cheap`],
//! [`Lane::Normal`] or [`Lane::Expensive`]. Unrestricted consumers
//! (worker main loops) drain cheap-class lanes first, then normal,
//! then expensive, round-robin *within* a class so concurrent requests
//! of the same class share fairly. An **aging tick** bounds starvation:
//! every eighth injector pop (`AGING_TICK`) ignores class priority and
//! serves the lane whose front task has waited longest, so an
//! expensive lane always makes progress under sustained cheap load.
//! Empty lanes are removed eagerly; an idle pool holds no lane state.
//!
//! **Steal order.** A waiting thread looks for affine work in this
//! order: its own deque (newest first), then its root scope's injector
//! lanes, then other workers' deques (oldest first). Checking the
//! injector *before* foreign deques is deliberate — a waiter whose own
//! scope has runnable work queued must take that work rather than
//! scanning other deques first.
//!
//! Lane classification is inherited: a nested scope adopts its parent
//! scope's lane; a scope opened outside any task adopts the thread's
//! [`with_lane`] hint, defaulting to [`Lane::Normal`].
//! [`Pool::scope_in`] overrides explicitly. [`Pool::stats`] snapshots
//! scheduling counters ([`PoolStats`]): queue depths per lane class,
//! owned vs helped vs stolen vs injected executions, and the maximum
//! queue residency ever observed.
//!
//! # Panics
//!
//! A panicking task does not poison the pool: the payload is captured,
//! every sibling task still runs, and the first payload is re-raised
//! on the scope-owning thread once the scope is drained (mirroring
//! `std::thread::scope`).
//!
//! # Safety
//!
//! The single `unsafe` block erases the scope lifetime of a spawned
//! closure (`Box<dyn FnOnce + 'scope>` → `'static`) so it can sit in
//! the shared queues. Soundness rests on the structured-concurrency
//! invariant, which `scope` enforces even when the scope body panics:
//! no closure outlives the `scope` call that spawned it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// A queued unit of work. Lifetime-erased; see the module docs.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle thread sleeps per condvar wait. Wakeups are
/// delivered by notification (pushes, completions and shutdown all
/// notify under the `idle` mutex), so this is a safety bound against
/// unforeseen missed-wakeup bugs — not a polling period; an idle pool
/// wakes each worker only ~10×/sec.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// Every `AGING_TICK`-th unrestricted injector pop ignores lane class
/// priority and serves the lane whose front task has waited longest —
/// the starvation bound for expensive lanes under sustained cheap
/// load (an expensive task is delayed by at most `AGING_TICK - 1`
/// higher-priority pops per consumer).
const AGING_TICK: u64 = 8;

/// Priority class of a scope's injector lane. Order matters: lower
/// classes are drained first by unrestricted consumers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// Latency-sensitive work: drained before everything else.
    Cheap,
    /// The default class for work with no hint.
    #[default]
    Normal,
    /// Long-running/throughput work: drained last (but never starved —
    /// see the aging tick in the module docs).
    Expensive,
}

impl Lane {
    /// Stable lower-case name (`"cheap"` / `"normal"` / `"expensive"`),
    /// used by stats surfaces.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Cheap => "cheap",
            Lane::Normal => "normal",
            Lane::Expensive => "expensive",
        }
    }
}

/// Process-wide scope id allocator (never 0; ids are unique across
/// pools so nested scopes compose even when they span pools).
static NEXT_SCOPE_ID: AtomicU64 = AtomicU64::new(1);

/// One queued task: the erased job plus its scheduling tag.
struct Task {
    job: Job,
    /// Root-first ancestry path of the spawning scope. A waiter with
    /// scope id `s` may run this task iff `path` contains `s`.
    path: Arc<[u64]>,
    /// Lane class inherited from the spawning scope.
    lane: Lane,
    /// When the task entered a queue — measures queue residency.
    enqueued: Instant,
}

impl Task {
    fn affine_to(&self, scope: u64) -> bool {
        self.path.contains(&scope)
    }
}

/// One FIFO lane of the injector: all external submissions of one root
/// scope in one lane class.
struct LaneQueue {
    root: u64,
    class: Lane,
    queue: VecDeque<Task>,
}

/// The external submission queue: per-root-scope lanes with class
/// priority, round-robin within a class, and an aging tick. All state
/// lives behind one mutex (uncontended in the common case — workers
/// mostly trade through their deques).
struct Injector {
    lanes: Vec<LaneQueue>,
    /// Round-robin cursor across lanes of the class being drained.
    rr: usize,
    /// Unrestricted pop counter driving the aging tick.
    pops: u64,
}

impl Injector {
    fn new() -> Self {
        Injector {
            lanes: Vec::new(),
            rr: 0,
            pops: 0,
        }
    }

    fn push(&mut self, task: Task) {
        let (root, class) = (task.path[0], task.lane);
        if let Some(l) = self
            .lanes
            .iter_mut()
            .find(|l| l.root == root && l.class == class)
        {
            l.queue.push_back(task);
        } else {
            let mut queue = VecDeque::new();
            queue.push_back(task);
            self.lanes.push(LaneQueue { root, class, queue });
        }
    }

    fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    fn has_affine(&self, root: u64, scope: u64) -> bool {
        self.lanes
            .iter()
            .any(|l| l.root == root && l.queue.iter().any(|t| t.affine_to(scope)))
    }

    fn take_front(&mut self, idx: usize) -> Option<Task> {
        let t = self.lanes[idx].queue.pop_front();
        if self.lanes[idx].queue.is_empty() {
            self.lanes.remove(idx);
        }
        t
    }

    /// Unrestricted pop: aging tick, then class priority with
    /// round-robin within the class.
    fn pop_any(&mut self) -> Option<Task> {
        if self.lanes.is_empty() {
            return None;
        }
        self.pops = self.pops.wrapping_add(1);
        if self.pops.is_multiple_of(AGING_TICK) {
            if let Some(idx) = self
                .lanes
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.queue.is_empty())
                .min_by_key(|(_, l)| l.queue.front().map(|t| t.enqueued))
                .map(|(i, _)| i)
            {
                return self.take_front(idx);
            }
            return None;
        }
        for class in [Lane::Cheap, Lane::Normal, Lane::Expensive] {
            let candidates: Vec<usize> = self
                .lanes
                .iter()
                .enumerate()
                .filter(|(_, l)| l.class == class && !l.queue.is_empty())
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let pick = candidates[self.rr % candidates.len()];
            self.rr = self.rr.wrapping_add(1);
            return self.take_front(pick);
        }
        None
    }

    /// Restricted pop for a waiter: oldest queued task of the waiter's
    /// own scope subtree, looking only at its root scope's lanes.
    fn pop_affine(&mut self, root: u64, scope: u64) -> Option<Task> {
        for idx in 0..self.lanes.len() {
            if self.lanes[idx].root != root {
                continue;
            }
            if let Some(pos) = self.lanes[idx]
                .queue
                .iter()
                .position(|t| t.affine_to(scope))
            {
                let t = self.lanes[idx].queue.remove(pos);
                if self.lanes[idx].queue.is_empty() {
                    self.lanes.remove(idx);
                }
                return t;
            }
        }
        None
    }
}

/// Execution counters (monotone since pool creation). Relaxed atomics:
/// these are observability, not synchronization.
#[derive(Default)]
struct Counters {
    owned: AtomicU64,
    helped: AtomicU64,
    stolen: AtomicU64,
    injected: AtomicU64,
    max_residency_ns: AtomicU64,
}

/// A point-in-time snapshot of a pool's scheduling state, from
/// [`Pool::stats`]. Queue depths are instantaneous; execution counters
/// are monotone since pool creation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Injector lanes currently live (empty lanes are removed eagerly).
    pub lanes: usize,
    /// Tasks queued in cheap-class injector lanes.
    pub queued_cheap: usize,
    /// Tasks queued in normal-class injector lanes.
    pub queued_normal: usize,
    /// Tasks queued in expensive-class injector lanes.
    pub queued_expensive: usize,
    /// Tasks queued across the workers' own deques.
    pub queued_deques: usize,
    /// Tasks a worker popped from its own deque.
    pub owned: u64,
    /// Tasks executed by a thread waiting on a scope (affine help).
    pub helped: u64,
    /// Tasks a worker stole from another worker's deque.
    pub stolen: u64,
    /// Tasks a worker took from the injector lanes.
    pub injected: u64,
    /// The longest any task has sat queued before being popped, in
    /// nanoseconds.
    pub max_queue_residency_ns: u64,
}

/// State shared between the pool handle, its workers, and in-flight
/// completion callbacks (which may outlive a `Scope` but never the
/// `Arc`).
struct Shared {
    /// Per-root-scope priority lanes for work submitted from
    /// non-worker threads.
    injector: Mutex<Injector>,
    /// One deque per worker: owner end is the back, steal end the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Sleep/wake rendezvous. Pushers and completions notify under the
    /// mutex so a sleeper can never miss a wakeup between its re-check
    /// and its wait.
    idle: Mutex<()>,
    wake: Condvar,
    /// Number of threads currently inside a condvar wait (or committed
    /// to entering one — incremented under `idle` before the final
    /// queue re-check). Lets the push/completion hot path skip the
    /// mutex + notify entirely when nobody is asleep: with `SeqCst` on
    /// both sides, a pusher that reads 0 is ordered before the
    /// sleeper's increment, whose subsequent re-check then sees the
    /// already-pushed job.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    counters: Counters,
}

/// The waiter's identity for restricted (affine) scheduling:
/// `(root scope id, own scope id)`.
type Affinity = (u64, u64);

impl Shared {
    fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return; // nobody to wake: skip the mutex on the hot path
        }
        let _g = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        self.wake.notify_all();
    }

    fn lock_idle(&self) -> MutexGuard<'_, ()> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn note_pop(&self, t: &Task) {
        let ns = t.enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.counters
            .max_residency_ns
            .fetch_max(ns, Ordering::Relaxed);
    }

    /// Is there anything this consumer could run? Affinity-aware so a
    /// restricted waiter sleeps instead of spinning on foreign work.
    fn any_queued(&self, aff: Option<Affinity>) -> bool {
        match aff {
            None => {
                !self
                    .injector
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .is_empty()
                    || self
                        .deques
                        .iter()
                        .any(|d| !d.lock().unwrap_or_else(|e| e.into_inner()).is_empty())
            }
            Some((root, scope)) => {
                self.injector
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .has_affine(root, scope)
                    || self.deques.iter().any(|d| {
                        d.lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .iter()
                            .any(|t| t.affine_to(scope))
                    })
            }
        }
    }

    /// Pop one task. `aff: None` (worker main loop) runs anything:
    /// own deque LIFO, then injector lanes by class priority, then
    /// steal FIFO from other deques. `aff: Some` (a waiter inside a
    /// scope) only ever takes tasks of its own scope subtree — own
    /// deque first, then its root's injector lanes, then (last) other
    /// workers' deques.
    fn find_job(&self, me: Option<usize>, aff: Option<Affinity>) -> Option<Task> {
        match aff {
            None => self.find_any(me),
            Some((root, scope)) => self.find_affine(me, root, scope),
        }
    }

    fn find_any(&self, me: Option<usize>) -> Option<Task> {
        if let Some(i) = me {
            if let Some(t) = self.deques[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back()
            {
                self.note_pop(&t);
                self.counters.owned.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        if let Some(t) = self
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_any()
        {
            self.note_pop(&t);
            self.counters.injected.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for off in 0..n {
            let i = (start + off) % n;
            if Some(i) == me {
                continue;
            }
            if let Some(t) = self.deques[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
            {
                self.note_pop(&t);
                self.counters.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    fn find_affine(&self, me: Option<usize>, root: u64, scope: u64) -> Option<Task> {
        if let Some(i) = me {
            let mut q = self.deques[i].lock().unwrap_or_else(|e| e.into_inner());
            if let Some(pos) = q.iter().rposition(|t| t.affine_to(scope)) {
                if let Some(t) = q.remove(pos) {
                    drop(q);
                    self.note_pop(&t);
                    self.counters.helped.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
        }
        // Own-scope injector lanes come BEFORE any foreign-deque scan:
        // a waiter whose scope has runnable work queued must take it
        // rather than go hunting in other workers' deques first.
        if let Some(t) = self
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_affine(root, scope)
        {
            self.note_pop(&t);
            self.counters.helped.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for off in 0..n {
            let i = (start + off) % n;
            if Some(i) == me {
                continue;
            }
            let mut q = self.deques[i].lock().unwrap_or_else(|e| e.into_inner());
            if let Some(pos) = q.iter().position(|t| t.affine_to(scope)) {
                if let Some(t) = q.remove(pos) {
                    drop(q);
                    self.note_pop(&t);
                    self.counters.helped.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
        }
        None
    }
}

thread_local! {
    /// `(pool identity, worker index)` of the pool this thread works
    /// for, if any — lets `spawn` from inside a task push to the
    /// worker's own deque instead of the injector.
    static CURRENT_WORKER: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
    /// The scope this thread is currently executing inside (the scope
    /// body, or a task's spawning scope while the task runs) — makes
    /// nested scopes children of the right parent and inherits lanes.
    static CURRENT_SCOPE: RefCell<Option<(Arc<[u64]>, Lane)>> = const { RefCell::new(None) };
    /// Thread-level lane hint for root scopes, set by [`with_lane`].
    static LANE_HINT: Cell<Option<Lane>> = const { Cell::new(None) };
}

/// Run `f` with `lane` as this thread's lane hint: every *root* scope
/// opened inside (directly or via the free [`scope`]/[`join`]) adopts
/// it, and nested scopes inherit it from their parents. This is how a
/// request handler classifies all pool work of one evaluation without
/// threading a lane through every call site. The previous hint is
/// restored on exit (also on panic).
pub fn with_lane<R>(lane: Lane, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Lane>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LANE_HINT.with(|c| c.set(self.0));
        }
    }
    let prev = LANE_HINT.with(|c| c.replace(Some(lane)));
    let _restore = Restore(prev);
    f()
}

/// Execute a task with `CURRENT_SCOPE` set to its spawning scope, so
/// scopes the task opens become children (affinity + lane inheritance).
fn run_task(task: Task) {
    struct Restore(Option<(Arc<[u64]>, Lane)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_SCOPE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT_SCOPE.with(|c| c.borrow_mut().replace((Arc::clone(&task.path), task.lane)));
    let _restore = Restore(prev);
    (task.job)();
}

/// A fixed-size worker pool. See the module docs for the scheduling
/// model. Dropping a pool shuts its workers down (after they drain any
/// queued work — scopes guarantee there is none left by then).
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl Pool {
    /// A pool with `workers` OS threads (at least one). Workers beyond
    /// the machine's core count are legal — they time-share, which is
    /// exactly what the oversubscription stress tests want.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("axml-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads (the thread driving a scope adds one
    /// more execution stream on top).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot the scheduling state: instantaneous queue depths per
    /// lane class plus monotone execution counters.
    pub fn stats(&self) -> PoolStats {
        let (lanes, queued_cheap, queued_normal, queued_expensive) = {
            let inj = self
                .shared
                .injector
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let mut by_class = [0usize; 3];
            for l in &inj.lanes {
                by_class[l.class as usize] += l.queue.len();
            }
            (inj.lanes.len(), by_class[0], by_class[1], by_class[2])
        };
        let queued_deques = self
            .shared
            .deques
            .iter()
            .map(|d| d.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum();
        let c = &self.shared.counters;
        PoolStats {
            workers: self.handles.len(),
            lanes,
            queued_cheap,
            queued_normal,
            queued_expensive,
            queued_deques,
            owned: c.owned.load(Ordering::Relaxed),
            helped: c.helped.load(Ordering::Relaxed),
            stolen: c.stolen.load(Ordering::Relaxed),
            injected: c.injected.load(Ordering::Relaxed),
            max_queue_residency_ns: c.max_residency_ns.load(Ordering::Relaxed),
        }
    }

    fn identity(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    fn push(&self, task: Task) {
        let (pool_id, idx) = CURRENT_WORKER.with(|c| c.get());
        if pool_id == self.identity() && idx < self.shared.deques.len() {
            self.shared.deques[idx]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(task);
        } else {
            self.shared
                .injector
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(task);
        }
        self.shared.notify();
    }

    /// Structured fork-join: run `f` with a [`Scope`] on which tasks
    /// borrowing from the enclosing frame can be spawned; returns only
    /// after every spawned task has finished. The calling thread
    /// executes queued work *of this scope's subtree only* while it
    /// waits (see the module docs). The first task panic (or a panic
    /// in `f` itself) is re-raised here once the scope is drained.
    ///
    /// The scope's lane is inherited: its parent scope's lane when
    /// opened inside one, otherwise the thread's [`with_lane`] hint,
    /// otherwise [`Lane::Normal`]. Use [`Pool::scope_in`] to override.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        self.scope_impl(None, f)
    }

    /// [`Pool::scope`] with an explicit lane class for this scope (and,
    /// by inheritance, every scope nested inside it).
    pub fn scope_in<'env, R>(&self, lane: Lane, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        self.scope_impl(Some(lane), f)
    }

    fn scope_impl<'env, R>(&self, lane: Option<Lane>, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let id = NEXT_SCOPE_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SCOPE.with(|c| c.borrow().clone());
        let lane = lane
            .or(parent.as_ref().map(|(_, l)| *l))
            .or(LANE_HINT.with(|c| c.get()))
            .unwrap_or_default();
        let path: Arc<[u64]> = match &parent {
            Some((p, _)) => {
                let mut v = Vec::with_capacity(p.len() + 1);
                v.extend_from_slice(p);
                v.push(id);
                Arc::from(v)
            }
            None => Arc::from(vec![id]),
        };
        let s = Scope {
            pool: self,
            core: Arc::new(ScopeCore {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            path: Arc::clone(&path),
            lane,
            _marker: PhantomData,
        };
        // Even if `f` panics we must drain the scope before unwinding
        // this frame: spawned jobs hold (erased) borrows into it. The
        // body runs with CURRENT_SCOPE set so nested scopes become
        // children of this one.
        let body = {
            struct Restore(Option<(Arc<[u64]>, Lane)>);
            impl Drop for Restore {
                fn drop(&mut self) {
                    CURRENT_SCOPE.with(|c| *c.borrow_mut() = self.0.take());
                }
            }
            let prev = CURRENT_SCOPE.with(|c| c.borrow_mut().replace((path, lane)));
            let _restore = Restore(prev);
            panic::catch_unwind(AssertUnwindSafe(|| f(&s)))
        };
        let me = {
            let (pool_id, idx) = CURRENT_WORKER.with(|c| c.get());
            (pool_id == self.identity()).then_some(idx)
        };
        // Affine help: only tasks whose path contains this scope's id
        // — our own tasks and those of scopes nested inside us.
        let aff = Some((s.path[0], id));
        while s.core.pending.load(Ordering::Acquire) != 0 {
            if let Some(task) = self.shared.find_job(me, aff) {
                run_task(task);
                continue;
            }
            let guard = self.shared.lock_idle();
            self.shared.sleepers.fetch_add(1, Ordering::SeqCst);
            // Re-check *after* registering as a sleeper (see the
            // `sleepers` field docs): pushes and completions that
            // raced ahead are visible here; later ones will see the
            // sleeper count and notify. The long timeout is a
            // belt-and-braces bound, not a polling interval.
            if s.core.pending.load(Ordering::Acquire) != 0 && !self.shared.any_queued(aff) {
                drop(self.shared.wake.wait_timeout(guard, IDLE_WAIT));
            }
            self.shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
        let task_panic = s
            .core
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        match body {
            Err(p) => panic::resume_unwind(p),
            Ok(r) => {
                if let Some(p) = task_panic {
                    panic::resume_unwind(p);
                }
                r
            }
        }
    }

    /// Run `a` and `b`, potentially in parallel: `b` is offered to the
    /// pool, `a` runs inline on the calling thread, and the call
    /// returns both results (helping with queued work of this scope's
    /// subtree while waiting for `b`).
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let mut rb = None;
        let ra = self.scope(|s| {
            s.spawn(|| rb = Some(b()));
            a()
        });
        (ra, rb.expect("join: spawned half completed"))
    }

    /// Apply `f` to every element, in parallel, preserving order.
    /// `f` receives the element index alongside the element.
    pub fn map_slice<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        self.scope(|s| {
            for (i, (item, slot)) in items.iter().zip(out.iter_mut()).enumerate() {
                let f = &f;
                s.spawn(move || *slot = Some(f(i, item)));
            }
        });
        out.into_iter()
            .map(|r| r.expect("map_slice: task completed"))
            .collect()
    }

    /// Split `items` into at most `chunks` contiguous runs and apply
    /// `f` to each run in parallel, preserving order.
    pub fn map_chunks<T: Sync, R: Send>(
        &self,
        items: &[T],
        chunks: usize,
        f: impl Fn(&[T]) -> R + Sync,
    ) -> Vec<R> {
        if items.is_empty() {
            return Vec::new();
        }
        let per = items.len().div_ceil(chunks.max(1));
        let runs: Vec<&[T]> = items.chunks(per.max(1)).collect();
        self.map_slice(&runs, |_, run| f(run))
    }

    /// Parallel tree-reduce: fold `items` down to one value with an
    /// associative `merge`, splitting the work across up to `degree`
    /// parallel folds. Returns `None` for an empty input.
    pub fn reduce<T: Send>(
        &self,
        items: Vec<T>,
        degree: usize,
        merge: impl Fn(T, T) -> T + Sync,
    ) -> Option<T> {
        fn fold<T>(items: Vec<T>, merge: &impl Fn(T, T) -> T) -> Option<T> {
            items.into_iter().reduce(merge)
        }
        if items.len() <= 2 || degree <= 1 {
            return fold(items, &merge);
        }
        let per = items.len().div_ceil(degree);
        let mut batches: Vec<Vec<T>> = Vec::new();
        let mut items = items.into_iter();
        loop {
            let batch: Vec<T> = items.by_ref().take(per).collect();
            if batch.is_empty() {
                break;
            }
            batches.push(batch);
        }
        let folded: Vec<Option<T>> = {
            let merge = &merge;
            let mut out: Vec<Option<T>> = (0..batches.len()).map(|_| None).collect();
            self.scope(|s| {
                for (batch, slot) in batches.into_iter().zip(out.iter_mut()) {
                    s.spawn(move || *slot = fold(batch, merge));
                }
            });
            out
        };
        fold(folded.into_iter().flatten().collect(), &merge)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unconditional notify: a worker between its sleeper re-check
        // and its wait must still be woken (store is SeqCst-ordered
        // before the sleeper's re-check or the notify reaches it).
        {
            let _g = self.shared.lock_idle();
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.with(|c| c.set((Arc::as_ptr(&shared) as usize, index)));
    loop {
        // The unrestricted throughput path: a worker outside any scope
        // runs whatever the lane priorities hand it.
        if let Some(task) = shared.find_job(Some(index), None) {
            run_task(task);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let guard = shared.lock_idle();
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        // Same handshake as the scope wait: register as a sleeper,
        // then re-check, then sleep; pushes and shutdown notify when
        // sleepers are present (the timeout only bounds unforeseen
        // bugs).
        if !shared.any_queued(None) && !shared.shutdown.load(Ordering::SeqCst) {
            drop(shared.wake.wait_timeout(guard, IDLE_WAIT));
        }
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Completion state of one scope, owned jointly by the scope owner
/// and every in-flight task (so a task never dereferences the owner's
/// stack frame to signal completion).
struct ScopeCore {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A fork-join scope handed to the closure of [`Pool::scope`]. Tasks
/// spawned here may borrow anything that outlives `'env` (mirroring
/// `std::thread::scope`'s two-lifetime shape).
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    core: Arc<ScopeCore>,
    /// Root-first ancestry path; the last element is this scope's id.
    path: Arc<[u64]>,
    lane: Lane,
    /// Invariant in `'env` (mirrors rayon/std): stops the borrow
    /// checker from shortening the environment lifetime out from under
    /// the spawned closures.
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// The lane class this scope's tasks are queued in.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Queue a task. It may run on any worker (or on the thread
    /// waiting for the scope) and is guaranteed to finish before the
    /// enclosing [`Pool::scope`] call returns. A panic inside the task
    /// is captured and re-raised by the scope owner.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        self.core.pending.fetch_add(1, Ordering::AcqRel);
        let core = Arc::clone(&self.core);
        let shared = Arc::clone(&self.pool.shared);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = core.panic.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            core.pending.fetch_sub(1, Ordering::AcqRel);
            let _g = shared.idle.lock().unwrap_or_else(|e| e.into_inner());
            shared.wake.notify_all();
        });
        // SAFETY: only the lifetime is erased; the fat-pointer layout
        // of `Box<dyn FnOnce() + Send>` does not depend on it. The
        // closure (and everything it borrows, all `'env`) is
        // guaranteed to run before `Pool::scope` returns — the owner
        // drains `pending` to zero before unwinding or returning, even
        // when the scope body panics — so the erased borrows never
        // outlive their referents. Completion signalling goes through
        // the `Arc`s the job owns, never through the owner's frame.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push(Task {
            job,
            path: Arc::clone(&self.path),
            lane: self.lane,
            enqueued: Instant::now(),
        });
    }
}

/// The process-wide default pool handle.
static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide default pool, created on first use with one worker
/// per available core (`AXML_POOL_THREADS` overrides the count).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let workers = std::env::var("AXML_POOL_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Pool::new(workers)
    })
}

/// The global pool if it has already been created — stats surfaces use
/// this so observing a process never spawns its worker threads.
pub fn try_global() -> Option<&'static Pool> {
    GLOBAL.get()
}

/// [`Pool::stats`] for the [`global`] pool, all-zero when it has never
/// been used (without spawning it).
pub fn global_stats() -> PoolStats {
    try_global().map(Pool::stats).unwrap_or_default()
}

/// [`Pool::scope`] on the [`global`] pool.
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
    global().scope(f)
}

/// [`Pool::join`] on the [`global`] pool.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    global().join(a, b)
}

/// How much parallelism an evaluation entry point may use.
///
/// This is a *fan-out bound*, not a thread count: work is split into
/// about this many independent units and offered to a [`Pool`]; the
/// pool's worker count (plus the calling thread) bounds how many
/// actually run at once. [`Parallelism::sequential`] — the default on
/// every API that takes one — never touches a pool at all, so
/// single-threaded callers keep exactly the pre-parallelism code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// 0 = auto (resolve against the global pool), n ≥ 1 = explicit.
    threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

impl Parallelism {
    /// No parallelism: the sequential code path, untouched (default).
    pub const fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// Size the fan-out to the global pool (one unit per worker plus
    /// the calling thread).
    pub const fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// Explicit fan-out bound. `0` means [`Parallelism::auto`]; `1` is
    /// [`Parallelism::sequential`].
    pub const fn threads(n: usize) -> Self {
        Parallelism { threads: n }
    }

    /// The resolved fan-out degree (≥ 1), sized against the global
    /// pool when auto. Prefer [`Parallelism::degree_on`] (or
    /// [`ExecCtx::degree`]) when the work runs on an explicit pool —
    /// this method spawns the global pool to size an auto request.
    pub fn degree(self) -> usize {
        match self.threads {
            0 => global().workers() + 1,
            n => n,
        }
    }

    /// The fan-out degree resolved against the pool the work will
    /// actually run on: auto sizes to that pool's workers (plus the
    /// driving thread) and never touches the global pool.
    pub fn degree_on(self, pool: &Pool) -> usize {
        match self.threads {
            0 => pool.workers() + 1,
            n => n,
        }
    }

    /// Does this request the pure sequential path?
    pub fn is_sequential(self) -> bool {
        self.threads == 1
    }
}

/// A pool plus a fan-out bound: the execution context parallel
/// evaluation entry points thread through their recursion. Evaluators
/// take it inside the per-call `axml_uxml::Exec` (beside the deadline
/// and the memory budget) by reference; a `None` context is the
/// untouched sequential path.
#[derive(Clone, Copy, Debug)]
pub struct ExecCtx<'p> {
    /// Where fanned-out work is scheduled.
    pub pool: &'p Pool,
    /// How far to fan out (see [`Parallelism`]).
    pub par: Parallelism,
}

impl<'p> ExecCtx<'p> {
    /// Context on an explicit pool.
    pub fn new(pool: &'p Pool, par: Parallelism) -> Self {
        ExecCtx { pool, par }
    }

    /// Does this context request the pure sequential path?
    pub fn is_sequential(&self) -> bool {
        self.par.is_sequential()
    }

    /// The fan-out degree, resolved against **this context's pool**
    /// (auto = its workers + 1; an explicit pool never borrows the
    /// global pool's sizing).
    pub fn degree(&self) -> usize {
        self.par.degree_on(self.pool)
    }
}

/// Context on the [`global`] pool.
impl ExecCtx<'static> {
    /// An [`ExecCtx`] scheduling onto the global pool.
    pub fn global(par: Parallelism) -> Self {
        ExecCtx {
            pool: global(),
            par,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn scope_borrows_stack_data() {
        let pool = Pool::new(4);
        let data: Vec<u64> = (1..=8).collect();
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn join_returns_both() {
        let pool = Pool::new(2);
        let (a, b) = pool.join(|| 2 + 2, || "b".to_owned());
        assert_eq!(a, 4);
        assert_eq!(b, "b");
    }

    #[test]
    fn map_slice_preserves_order() {
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map_slice(&items, |i, x| i * 1000 + x * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 1000 + i * 2);
        }
    }

    #[test]
    fn map_chunks_covers_everything() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (1..=1000).collect();
        let sums = pool.map_chunks(&items, 7, |run| run.iter().sum::<u64>());
        assert!(sums.len() <= 7);
        assert_eq!(sums.iter().sum::<u64>(), 500_500);
    }

    #[test]
    fn reduce_merges_all() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (1..=257).collect();
        assert_eq!(pool.reduce(items, 8, |a, b| a + b), Some(33_153));
        assert_eq!(pool.reduce(Vec::<u64>::new(), 8, |a, b| a + b), None);
        assert_eq!(pool.reduce([7u64].to_vec(), 8, |a, b| a + b), Some(7));
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Pool::new(2);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                let total = &total;
                let pool = &pool;
                s.spawn(move || {
                    // A task that itself forks: the worker must help,
                    // not block, while its inner scope drains.
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panic_propagates_after_siblings_finish() {
        let pool = Pool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let fin = Arc::clone(&finished);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    let fin = Arc::clone(&fin);
                    s.spawn(move || {
                        fin.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the scope owner");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            8,
            "siblings run to completion"
        );
        // The pool survives a panicking scope.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn many_small_tasks_stress() {
        let pool = Pool::new(8); // oversubscribed on small machines — intended
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scope(|s| {
                for _ in 0..100 {
                    let counter = &counter;
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn parallelism_resolution() {
        assert!(Parallelism::sequential().is_sequential());
        assert!(Parallelism::default().is_sequential());
        assert_eq!(Parallelism::threads(4).degree(), 4);
        assert!(!Parallelism::threads(4).is_sequential());
        assert!(Parallelism::auto().degree() >= 2);
        assert_eq!(Parallelism::threads(0), Parallelism::auto());
    }

    #[test]
    fn global_pool_is_usable() {
        let items: Vec<u32> = (0..64).collect();
        let out = global().map_slice(&items, |_, x| x + 1);
        assert_eq!(out.iter().sum::<u32>(), (1..=64).sum::<u32>());
    }

    // ---- scheduling (PR 10) ----

    fn dummy_task(root: u64, lane: Lane) -> Task {
        Task {
            job: Box::new(|| {}),
            path: Arc::from(vec![root]),
            lane,
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn injector_class_priority_with_round_robin_within_class() {
        let mut inj = Injector::new();
        inj.push(dummy_task(4, Lane::Expensive));
        inj.push(dummy_task(3, Lane::Normal));
        inj.push(dummy_task(1, Lane::Cheap));
        inj.push(dummy_task(1, Lane::Cheap));
        inj.push(dummy_task(2, Lane::Cheap));
        let order: Vec<(u64, Lane)> =
            std::iter::from_fn(|| inj.pop_any().map(|t| (t.path[0], t.lane))).collect();
        // All cheap before normal before expensive; the two cheap
        // roots alternate (round-robin), not drain-one-then-the-other.
        assert_eq!(
            order,
            vec![
                (1, Lane::Cheap),
                (2, Lane::Cheap),
                (1, Lane::Cheap),
                (3, Lane::Normal),
                (4, Lane::Expensive),
            ]
        );
        assert!(inj.is_empty(), "drained lanes are removed");
    }

    #[test]
    fn aging_tick_serves_the_oldest_lane_despite_priority() {
        let mut inj = Injector::new();
        inj.push(dummy_task(9, Lane::Expensive)); // enqueued first = oldest
        for _ in 0..16 {
            inj.push(dummy_task(1, Lane::Cheap));
        }
        let mut expensive_served_at = None;
        for i in 1..=17 {
            let t = inj.pop_any().expect("17 tasks queued");
            if t.lane == Lane::Expensive {
                expensive_served_at = Some(i);
                break;
            }
        }
        // Pops 1–7 serve the cheap lane; the 8th pop is the aging tick
        // and must serve the starving expensive lane.
        assert_eq!(expensive_served_at, Some(AGING_TICK as usize));
    }

    #[test]
    fn affine_pop_only_takes_own_subtree() {
        let mut inj = Injector::new();
        inj.push(dummy_task(7, Lane::Normal));
        // A nested task of root 5 (path [5, 6]) and a root task of 5.
        inj.push(Task {
            job: Box::new(|| {}),
            path: Arc::from(vec![5u64, 6]),
            lane: Lane::Normal,
            enqueued: Instant::now(),
        });
        inj.push(dummy_task(5, Lane::Normal));
        // Waiter of scope 6 (root 5): only the nested task matches.
        let t = inj.pop_affine(5, 6).expect("nested task is affine");
        assert_eq!(&t.path[..], &[5, 6]);
        assert!(
            inj.pop_affine(5, 6).is_none(),
            "root-only task is not in 6's subtree"
        );
        // Waiter of scope 5 (the root): the remaining root task matches.
        let t = inj
            .pop_affine(5, 5)
            .expect("root task is affine to the root waiter");
        assert_eq!(&t.path[..], &[5]);
        assert!(inj.pop_affine(7, 7).is_some());
        assert!(inj.is_empty());
    }

    #[test]
    fn scope_lane_inheritance_and_override() {
        let pool = Pool::new(1);
        pool.scope(|s| assert_eq!(s.lane(), Lane::Normal));
        pool.scope_in(Lane::Expensive, |s| {
            assert_eq!(s.lane(), Lane::Expensive);
            // A nested scope inherits its parent's lane.
            pool.scope(|inner| assert_eq!(inner.lane(), Lane::Expensive));
            // Unless overridden explicitly.
            pool.scope_in(Lane::Cheap, |inner| assert_eq!(inner.lane(), Lane::Cheap));
        });
        with_lane(Lane::Cheap, || {
            pool.scope(|s| assert_eq!(s.lane(), Lane::Cheap));
        });
        pool.scope(|s| assert_eq!(s.lane(), Lane::Normal));
    }

    /// The PR's fairness pin: a thread waiting on its own scope must
    /// (1) take its own scope's queued work from the injector before
    /// looking at foreign deques, and (2) never execute another
    /// scope's task at all.
    #[test]
    fn waiter_runs_own_scope_work_and_never_foreign() {
        let pool = Arc::new(Pool::new(1));
        let foreign_ran_early = Arc::new(AtomicBool::new(false));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (rel_a_tx, rel_a_rx) = mpsc::channel::<()>();
        let (rel_b_tx, rel_b_rx) = mpsc::channel::<()>();
        let (body_tx, body_rx) = mpsc::channel::<()>();

        let fpool = Arc::clone(&pool);
        let fran = Arc::clone(&foreign_ran_early);
        let foreign = std::thread::spawn(move || {
            let pool2 = Arc::clone(&fpool);
            fpool.scope(|s| {
                let pool2 = &pool2;
                let fran = &fran;
                let started_tx = started_tx.clone();
                s.spawn(move || {
                    // Runs on the only worker. The nested scope puts
                    // two tasks in the worker's own deque; the worker
                    // pops the newer one (LIFO) and blocks in it,
                    // leaving the older at the steal end of its deque.
                    pool2.scope(|inner| {
                        inner.spawn(move || {
                            fran.store(true, Ordering::SeqCst);
                            let _ = rel_a_rx.recv();
                        });
                        inner.spawn(move || {
                            started_tx.send(()).unwrap();
                            let _ = rel_b_rx.recv();
                        });
                    });
                });
                // Park the foreign scope's own waiter so it cannot
                // claim its stranded deque task during the probe.
                body_rx.recv().unwrap();
            });
        });

        // Worker is now blocked inside the foreign task, with another
        // foreign task stranded at the front of its deque.
        started_rx.recv().unwrap();

        // Our own scope: the task goes to the injector (we are not a
        // worker). The worker is blocked, so the only thread that can
        // run it is us — the waiter — and we must pick it over the
        // foreign deque task.
        let ran_on = Arc::new(Mutex::new(None::<std::thread::ThreadId>));
        let ran_on2 = Arc::clone(&ran_on);
        pool.scope(|s| {
            s.spawn(move || {
                *ran_on2.lock().unwrap() = Some(std::thread::current().id());
            });
        });
        assert_eq!(
            *ran_on.lock().unwrap(),
            Some(std::thread::current().id()),
            "the waiter itself must run its own scope's injector task"
        );
        assert!(
            !foreign_ran_early.load(Ordering::SeqCst),
            "the waiter must never execute a foreign scope's task"
        );

        // Unblock everything and drain.
        body_tx.send(()).unwrap();
        rel_b_tx.send(()).unwrap();
        rel_a_tx.send(()).unwrap();
        foreign.join().unwrap();
        assert!(
            foreign_ran_early.load(Ordering::SeqCst),
            "stranded task eventually ran"
        );
    }

    #[test]
    fn stats_count_executions_and_residency() {
        let pool = Pool::new(2);
        let n = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                let n = &n;
                s.spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(n.load(Ordering::Relaxed), 64);
        let st = pool.stats();
        assert_eq!(st.workers, 2);
        assert_eq!(
            st.owned + st.helped + st.stolen + st.injected,
            64,
            "every execution is classified exactly once: {st:?}"
        );
        assert!(st.max_queue_residency_ns > 0);
        // Idle pool: no queued work, no lanes.
        assert_eq!(st.lanes, 0);
        assert_eq!(
            st.queued_cheap + st.queued_normal + st.queued_expensive + st.queued_deques,
            0
        );
    }
}
