//! The work-stealing executor.
//!
//! A persistent pool of workers executes runs. A run is a set of run
//! nodes (join counters, successor pointers) plus one `RunCtx` carrying
//! the caller's `invoke(payload, chunk)` closure; workers pop jobs from
//! their local LIFO deque, then steal from the global injector and from
//! each other (crossbeam-deque), and park on a condition variable when
//! idle. Both entry points — [`Executor::run`]/[`Executor::try_run`] for
//! a [`Taskflow`] and [`Executor::run_dirty`] for a [`RetainedGraph`] —
//! materialize their graph into a `RunPool` and hand it to the single
//! `Executor::drain`, the only code that publishes jobs from caller
//! context and waits for the run.
//!
//! The calling thread takes part in its own run (work-first, like
//! Taskflow's `corun`): it keeps one ready job and publishes only the
//! surplus, and when it completes a node it keeps the first successor
//! that node released. Once its chain runs dry it takes jobs from the
//! injector — its own run's or another caller's — and sleeps until its
//! run ends only when the injector is empty. A run whose ready set is
//! never wider than one job therefore executes entirely on the caller:
//! it touches no queue, wakes no worker and never parks. A worker and a
//! caller run jobs through one `execute` body; they differ only in where
//! released successors go.
//!
//! # Safety model
//!
//! Jobs are raw pointers into the run's node storage. Four invariants
//! make this sound:
//!
//! 1. **Stability** — run nodes and the run context are individually
//!    boxed, so their addresses survive growth and moves of the pool
//!    that owns them.
//! 2. **The caller touches a run node only through a job it holds** —
//!    `drain` first collects every root of the fully wired run into
//!    `RunPool::roots`, the last time it looks at a join counter, and
//!    only then starts executing or publishing. From then on a node
//!    belongs to whichever thread holds a job for it: a worker that is
//!    already awake (it serves other runs of a shared pool) may
//!    complete a published root and release its successors at any
//!    moment, so a caller that looked at a join counter could see a
//!    released successor as a root and run or publish it a second time.
//!    Every job is created exactly once — as a collected root, or by the
//!    `join` decrement that releases it — and consumed exactly once.
//! 3. **Liveness** — the caller keeps the pool alive until `pending`
//!    reaches zero; every job is consumed exactly once before the final
//!    decrement, so no thread dereferences a node after the run is over.
//!    That decrement is the last access to the run: the wake-up after it
//!    goes through the executor, which outlives every run. The same
//!    holds for a job of *another* caller's run that a caller picks up
//!    from the injector: that run's caller is blocked in its own `drain`
//!    until the job completed.
//! 4. **Borrow validity** — the `invoke` closure may borrow the caller's
//!    environment; `drain` blocks the caller until every task
//!    completed, so those borrows outlive all uses (the same argument
//!    `std::thread::scope` and rayon's `scope` make).

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::graph::Taskflow;
use crate::retained::{DirtyRunStats, RetainedGraph};
use qtask_util::Key;

/// Structured description of a task panic, returned by
/// [`Executor::try_run`]. The graph is always drained before this is
/// produced — no task is left queued and the executor stays usable.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// Name of the first task that panicked.
    pub task: Arc<str>,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task '{}' panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// First panic observed in a run: the task's name plus its payload.
type FirstPanic = (Arc<str>, Box<dyn Any + Send + 'static>);

impl TaskPanic {
    fn new((task, payload): FirstPanic) -> TaskPanic {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        TaskPanic { task, message }
    }
}

/// The run-level task body: `invoke(payload, chunk)`.
type Invoke<'a> = dyn Fn(u64, u32) + Send + Sync + 'a;

/// A unit of scheduled work: a live run node and its run's context.
#[derive(Clone, Copy)]
struct Job(*const RunNode, *const RunCtx);

// SAFETY: the pointees are kept alive by the RunPool for the whole run
// and all mutation goes through atomics.
unsafe impl Send for Job {}

enum RunWork {
    /// A pure synchronization point: completes without invoking.
    Empty,
    /// Calls the run-level `invoke` closure (stored on the [`RunCtx`])
    /// with this node's payload — a task index, or a retained node's key
    /// bits — and chunk.
    Invoke { payload: u64, chunk: u32 },
}

struct RunNode {
    name: Arc<str>,
    work: RunWork,
    succs: Vec<*const RunNode>,
    join: AtomicUsize,
}

struct RunCtx {
    /// Run nodes not yet completed; the run is done at zero.
    pending: AtomicUsize,
    /// Set when a task panicked; remaining closures are skipped.
    cancelled: AtomicBool,
    panic: Mutex<Option<FirstPanic>>,
    /// The caller's closure; lifetime erased (see [`RunPool::begin`]).
    /// Dangles between runs and is never dereferenced there.
    invoke: *const Invoke<'static>,
}

/// Storage of one materialized run: the run nodes, the roots to publish
/// and the run context. A [`RetainedGraph`] keeps its pool between runs,
/// growing to the dirty set's high-water mark so warm re-executions
/// materialize without allocating; a [`Taskflow`] run uses a fresh one.
#[derive(Default)]
pub(crate) struct RunPool {
    // The boxes are load-bearing: `succs`, `roots` and jobs hold raw
    // pointers into the nodes, so their addresses must survive vector
    // growth.
    #[allow(clippy::vec_box)]
    nodes: Vec<Box<RunNode>>,
    /// Run nodes in use by the current run (a prefix of `nodes`).
    len: usize,
    /// Nodes of the current run without a predecessor in it.
    roots: Vec<*const RunNode>,
    ctx: Option<Box<RunCtx>>,
}

// SAFETY: the raw pointers point into the individually boxed run nodes
// and context owned by this pool (box contents do not move when the pool
// moves) or, for `RunCtx::invoke`, at a closure that is only dereferenced
// while its borrow is live. They are only dereferenced during a blocking
// run that holds `&mut` access. Shared references expose no field at all.
unsafe impl Send for RunPool {}
unsafe impl Sync for RunPool {}

impl RunPool {
    /// Starts materializing a run of `len` nodes executing `invoke`:
    /// grows the node storage, forgets the previous roots and re-arms
    /// the context.
    fn begin(&mut self, len: usize, invoke: &Invoke<'_>) {
        // SAFETY: erases the closure's lifetime. Only workers executing
        // this run's jobs dereference the pointer, and `drain` does not
        // return before the last of them completed, so the borrow
        // outlives every dereference.
        let invoke = unsafe { std::mem::transmute::<&Invoke<'_>, *const Invoke<'static>>(invoke) };
        while self.nodes.len() < len {
            self.nodes.push(Box::new(RunNode {
                name: Arc::from(""),
                work: RunWork::Empty,
                succs: Vec::new(),
                join: AtomicUsize::new(0),
            }));
        }
        self.len = len;
        self.roots.clear();
        let ctx = self.ctx.get_or_insert_with(|| {
            Box::new(RunCtx {
                pending: AtomicUsize::new(0),
                cancelled: AtomicBool::new(false),
                panic: Mutex::new(None),
                invoke,
            })
        });
        *ctx.pending.get_mut() = len;
        *ctx.cancelled.get_mut() = false;
        *ctx.panic.get_mut() = None;
        ctx.invoke = invoke;
    }

    /// Rewrites run node `i` for the current run, keeping its successor
    /// vector's capacity. The node has no predecessor until
    /// [`RunPool::add_edge`] gives it one.
    fn set_node(&mut self, i: usize, name: &Arc<str>, work: RunWork) {
        let node = &mut *self.nodes[i];
        node.name = Arc::clone(name);
        node.work = work;
        node.succs.clear();
        *node.join.get_mut() = 0;
    }

    /// Makes run node `to` wait for run node `from`.
    fn add_edge(&mut self, from: usize, to: usize) {
        let to = &mut *self.nodes[to];
        *to.join.get_mut() += 1;
        let to: *const RunNode = to;
        self.nodes[from].succs.push(to);
    }

    /// Records the nodes no edge leads to. Called once the run is fully
    /// wired and before any job is published — the last time the caller
    /// looks at a join counter.
    fn collect_roots(&mut self) {
        for node in &self.nodes[..self.len] {
            if node.join.load(Ordering::Relaxed) == 0 {
                self.roots.push(&**node);
            }
        }
    }

    /// Kahn's algorithm over the materialized run: a cycle would strand
    /// the pending counter and hang the run.
    #[cfg(debug_assertions)]
    fn is_acyclic(&self) -> bool {
        let nodes = &self.nodes[..self.len];
        let idx_of: std::collections::HashMap<*const RunNode, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (&**n as *const RunNode, i))
            .collect();
        let mut indeg: Vec<usize> = nodes
            .iter()
            .map(|n| n.join.load(Ordering::Relaxed))
            .collect();
        let mut stack: Vec<usize> = (0..nodes.len()).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = stack.pop() {
            seen += 1;
            for s in &nodes[i].succs {
                let j = idx_of[s];
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
        }
        seen == nodes.len()
    }
}

struct SleepCtl {
    /// Bumped on every job publication; prevents lost wakeups.
    epoch: AtomicU64,
    lock: Mutex<()>,
    /// Parked workers.
    cv: Condvar,
    /// Callers asleep until their run ends.
    done: Condvar,
    /// Workers parked on `cv`.
    sleepers: AtomicUsize,
}

struct Inner {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep: SleepCtl,
    shutdown: AtomicBool,
    /// Lifetime count of tasks executed (cancelled nodes included —
    /// they're still drained through `execute`).
    tasks_run: AtomicU64,
}

/// A persistent work-stealing thread pool executing [`Taskflow`] and
/// [`RetainedGraph`] runs.
pub struct Executor {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Creates an executor with `num_threads` workers (at least one).
    ///
    /// The thread that calls a run executes its jobs too, so a run on
    /// `Executor::new(1)` uses two threads: the caller and the worker.
    pub fn new(num_threads: usize) -> Executor {
        let num_threads = num_threads.max(1);
        let deques: Vec<WorkerDeque<Job>> =
            (0..num_threads).map(|_| WorkerDeque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            sleep: SleepCtl {
                epoch: AtomicU64::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
                done: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            shutdown: AtomicBool::new(false),
            tasks_run: AtomicU64::new(0),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(idx, deque)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qtask-worker-{idx}"))
                    .spawn(move || worker_loop(inner, deque))
                    .expect("spawn worker thread")
            })
            .collect();
        Executor { inner, handles }
    }

    /// Number of worker threads. A run also executes on the thread that
    /// called it, so it can use one thread more than this.
    pub fn num_threads(&self) -> usize {
        self.inner.stealers.len()
    }

    /// Lifetime count of tasks this pool has executed, across every
    /// graph and every caller sharing it. Service/bench observability:
    /// a shared pool multiplexing N sessions reports aggregate task
    /// throughput here without per-session bookkeeping.
    pub fn tasks_run(&self) -> u64 {
        self.inner.tasks_run.load(Ordering::Relaxed)
    }

    /// Executes `tf` to completion, blocking the caller.
    ///
    /// Re-raises the first panic that occurred in any task (remaining
    /// tasks are skipped but the graph is drained deterministically).
    ///
    /// # Panics
    /// Panics if the graph contains a dependency cycle, or to re-raise a
    /// task panic. Use [`Executor::try_run`] for a non-panicking report.
    pub fn run<'env>(&self, tf: &Taskflow<'env>) {
        if let Some((_, payload)) = self.run_taskflow(tf) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Executes `tf` to completion, blocking the caller, and reports the
    /// first task panic as a structured [`TaskPanic`] instead of
    /// unwinding. The graph is drained either way: downstream tasks of a
    /// panicking task are cancelled (their closures skipped), every node
    /// is consumed, and the executor remains usable.
    ///
    /// # Panics
    /// Panics if the graph contains a static dependency cycle (a
    /// caller-side construction bug, detected before execution starts).
    pub fn try_run<'env>(&self, tf: &Taskflow<'env>) -> Result<(), TaskPanic> {
        self.run_taskflow(tf)
            .map_or(Ok(()), |p| Err(TaskPanic::new(p)))
    }

    /// Shared body of [`run`](Executor::run)/[`try_run`](Executor::try_run):
    /// materializes one run node per task — task `i` invokes payload `i`
    /// — and drains the run.
    fn run_taskflow<'env>(&self, tf: &Taskflow<'env>) -> Option<FirstPanic> {
        let invoke = |i: u64, _chunk: u32| {
            if let Some(f) = &tf.nodes[i as usize].work {
                f()
            }
        };
        let mut pool = RunPool::default();
        pool.begin(tf.len(), &invoke);
        for (i, node) in tf.nodes.iter().enumerate() {
            let work = match node.work {
                None => RunWork::Empty,
                Some(_) => RunWork::Invoke {
                    payload: i as u64,
                    chunk: 0,
                },
            };
            pool.set_node(i, &node.name, work);
        }
        for (i, node) in tf.nodes.iter().enumerate() {
            for &s in &node.succs {
                pool.add_edge(i, s);
            }
        }
        self.drain(&mut pool)
    }

    /// Executes the dirty subset of a [`RetainedGraph`], blocking the
    /// caller, and clears the dirty flags.
    ///
    /// Only edges between two dirty nodes gate execution — a clean
    /// predecessor's output is already materialized, so it never blocks a
    /// dirty successor. Each dirty node runs according to its chunk
    /// shape: barriers complete immediately, single nodes call
    /// `invoke(&payload, 0)`, fans call `invoke(&payload, chunk)` for
    /// every chunk in parallel with successors gated on all of them. The
    /// run executes the dirty list as it stands: call
    /// [`RetainedGraph::close_dirty`] first to re-run everything
    /// downstream of it too.
    ///
    /// The materialization reuses the graph's internal run pool: after the
    /// dirty set's high-water mark is reached, warm runs build no new
    /// nodes and box no closures — the per-run cost is O(|dirty| +
    /// dirty-incident edges), independent of graph size.
    ///
    /// Panics in `invoke` are contained exactly like [`Executor::try_run`]
    /// task panics: the run is drained, downstream dirty nodes are
    /// cancelled, and the first panic is reported as a [`TaskPanic`].
    ///
    /// # Panics
    /// Panics if the dirty subset contains a dependency cycle (a
    /// caller-side graph-construction bug).
    pub fn run_dirty<P: Sync>(
        &self,
        graph: &mut RetainedGraph<P>,
        invoke: &(dyn Fn(&P, u32) + Send + Sync),
    ) -> Result<DirtyRunStats, TaskPanic> {
        // Split borrows: the dirty list and the pool leave the graph for
        // the duration of the run (their capacity is restored at the end).
        let dirty = std::mem::take(&mut graph.dirty);
        let mut pool = std::mem::take(&mut graph.pool);

        // Pass 1: assign each dirty node its run-node range. A fan of c
        // chunks expands to entry + c leaves + exit.
        let mut total = 0usize;
        let mut stats = DirtyRunStats {
            nodes_run: dirty.len(),
            ..DirtyRunStats::default()
        };
        for &d in &dirty {
            let node = &mut graph.nodes[d.key()];
            debug_assert!(node.dirty, "stale entry in dirty list");
            stats.tasks_run += node.chunks as usize;
            let size = if node.chunks > 1 {
                node.chunks as usize + 2
            } else {
                1
            };
            node.run_entry = total as u32;
            node.run_exit = (total + size - 1) as u32;
            total += size;
        }
        // Run nodes carry their graph node's key bits; the run-level
        // closure looks the payload up. Nothing mutates the arena until
        // `drain` has returned (the lifetime argument of `RunPool::begin`).
        let nodes = &graph.nodes;
        let invoke_node =
            |bits: u64, chunk: u32| invoke(&nodes[Key::from_bits(bits)].payload, chunk);
        pool.begin(total, &invoke_node);

        // Pass 2: rewrite the pooled run nodes.
        for &d in &dirty {
            let node = &nodes[d.key()];
            let (payload, chunks, name) = (d.key().to_bits(), node.chunks, &node.name);
            let (entry, exit) = (node.run_entry as usize, node.run_exit as usize);
            if chunks > 1 {
                pool.set_node(entry, name, RunWork::Empty);
                for chunk in 0..chunks {
                    let work = RunWork::Invoke { payload, chunk };
                    pool.set_node(entry + 1 + chunk as usize, name, work);
                }
                pool.set_node(exit, name, RunWork::Empty);
            } else {
                let work = match chunks {
                    0 => RunWork::Empty,
                    _ => RunWork::Invoke { payload, chunk: 0 },
                };
                pool.set_node(entry, name, work);
            }
        }

        // Pass 3: wire the edges — a fan's entry → leaves → exit, and
        // exit(pred) → entry(succ) between dirty nodes. Clean neighbours
        // are skipped entirely.
        for &d in &dirty {
            let node = &nodes[d.key()];
            let (entry, exit) = (node.run_entry as usize, node.run_exit as usize);
            for leaf in entry + 1..exit {
                pool.add_edge(entry, leaf);
                pool.add_edge(leaf, exit);
            }
            for s in &node.succs {
                let succ = &nodes[s.key()];
                if succ.dirty {
                    pool.add_edge(exit, succ.run_entry as usize);
                }
            }
        }

        let panic = self.drain(&mut pool);

        // The run is drained: clear the dirty window and return the pool.
        for &d in &dirty {
            graph.nodes[d.key()].dirty = false;
        }
        graph.dirty = dirty;
        graph.dirty.clear();
        graph.pool = pool;
        panic.map_or(Ok(stats), |p| Err(TaskPanic::new(p)))
    }

    /// The one run path: executes the run materialized in `pool` on the
    /// calling thread and the workers, returns once it is drained, and
    /// takes its first panic. The caller keeps one root and publishes
    /// the rest, follows its chain of released successors, then helps
    /// with injected work and sleeps only when there is none (module
    /// docs). Nothing else pushes jobs from caller context, and
    /// nothing here looks at a run node except through a job it holds
    /// (module safety model, rule 2).
    ///
    /// # Panics
    /// Panics, before anything is executed, if a non-empty run has no
    /// root (in debug builds: any dependency cycle).
    fn drain(&self, pool: &mut RunPool) -> Option<FirstPanic> {
        if pool.len == 0 {
            return None;
        }
        pool.collect_roots();
        let (&first, rest) = pool
            .roots
            .split_first()
            .expect("task graph has no root: dependency cycle");
        #[cfg(debug_assertions)]
        assert!(pool.is_acyclic(), "task graph has a dependency cycle");
        let inner = &*self.inner;
        let ctx = pool.ctx.as_ref().expect("RunPool::begin precedes drain");
        let own: *const RunCtx = &**ctx;
        for &root in rest {
            inner.injector.push(Job(root, own));
        }
        if !rest.is_empty() {
            wake_workers(inner);
        }
        let done = || ctx.pending.load(Ordering::SeqCst) == 0;
        let mut held = Some(Job(first, own));
        loop {
            while let Some(job) = held.take() {
                // SAFETY: a job of this run or, once taken from the
                // injector, of another caller's run that is still blocked
                // in its own `drain` (module safety model).
                unsafe { execute(job, inner, own, |next| keep_first(inner, &mut held, next)) };
            }
            if done() {
                return ctx.panic.lock().take();
            }
            // Out of jobs: a caller is a thread more than the pool has.
            // Letting it steal from the workers and wake for new work made
            // `full.qft` 58% slower, so it sleeps until its run ends.
            held = steal_injected(inner);
            if held.is_none() {
                let mut guard = inner.sleep.lock.lock();
                while !done() {
                    inner.sleep.done.wait(&mut guard);
                }
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        wake_workers(&self.inner);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Bumps the publication epoch and wakes sleeping workers.
fn wake_workers(inner: &Inner) {
    inner.sleep.epoch.fetch_add(1, Ordering::SeqCst);
    if inner.sleep.sleepers.load(Ordering::SeqCst) > 0 {
        let _g = inner.sleep.lock.lock();
        inner.sleep.cv.notify_all();
    }
}

fn find_work(inner: &Inner, local: &WorkerDeque<Job>) -> Option<Job> {
    if let Some(j) = local.pop() {
        return Some(j);
    }
    // Drain the injector (batched to amortize).
    loop {
        match inner.injector.steal_batch_and_pop(local) {
            Steal::Success(j) => return Some(j),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    // Steal from siblings (a worker's own deque is empty by now).
    for st in &inner.stealers {
        loop {
            match st.steal() {
                Steal::Success(j) => {
                    qtask_obs::counter!("taskflow.steals").inc();
                    return Some(j);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

/// Runs one job, if a worker can find any.
fn work_once(inner: &Inner, local: &WorkerDeque<Job>) -> bool {
    let Some(job) = find_work(inner, local) else {
        return false;
    };
    // SAFETY: job pointers stay valid until their run completes (module
    // safety model).
    unsafe {
        execute(job, inner, std::ptr::null(), |next| {
            enqueue_local(inner, local, next)
        })
    };
    true
}

fn worker_loop(inner: Arc<Inner>, local: WorkerDeque<Job>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        if work_once(&inner, &local) {
            continue;
        }
        // Slow path: re-scan once against the publication epoch, then park.
        let observed = inner.sleep.epoch.load(Ordering::SeqCst);
        if work_once(&inner, &local) {
            continue;
        }
        let mut guard = inner.sleep.lock.lock();
        inner.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        if inner.sleep.epoch.load(Ordering::SeqCst) == observed
            && !inner.shutdown.load(Ordering::Acquire)
        {
            qtask_obs::counter!("taskflow.parks").inc();
            inner.sleep.cv.wait(&mut guard);
        }
        inner.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A worker's release policy: every released successor goes onto its
/// local deque (LIFO for cache locality).
fn enqueue_local(inner: &Inner, local: &WorkerDeque<Job>, job: Job) {
    local.push(job);
    wake_workers(inner);
}

/// A caller's release policy: it keeps the first released successor in
/// `held` to run next and publishes the rest through the injector.
fn keep_first(inner: &Inner, held: &mut Option<Job>, job: Job) {
    if held.is_none() {
        *held = Some(job);
    } else {
        inner.injector.push(job);
        wake_workers(inner);
    }
}

/// Takes one job from the injector, if it holds any.
fn steal_injected(inner: &Inner) -> Option<Job> {
    loop {
        match inner.injector.steal() {
            Steal::Success(job) => return Some(job),
            Steal::Retry => continue,
            Steal::Empty => return None,
        }
    }
}

/// Runs one job and hands every successor it releases to `release` —
/// the one body a worker and a caller share. `own` is the run of the
/// calling `drain`, or null on a worker.
///
/// # Safety
/// `job` must have been created exactly once, as a collected root or by
/// the `join` decrement that released it, and not executed before; its
/// run's pool must still be alive, which holds while that run's caller
/// waits in `drain` (module safety model).
unsafe fn execute(job: Job, inner: &Inner, own: *const RunCtx, mut release: impl FnMut(Job)) {
    let node = unsafe { &*job.0 };
    let ctx = unsafe { &*job.1 };
    inner.tasks_run.fetch_add(1, Ordering::Relaxed);
    qtask_obs::counter!("taskflow.tasks_run").inc();
    let task_span = qtask_obs::span!(Arc::clone(&node.name));
    if let RunWork::Invoke { payload, chunk } = node.work {
        if !ctx.cancelled.load(Ordering::Relaxed) {
            // SAFETY: `drain` blocks until this run completes, so the
            // caller's closure outlives every dereference.
            let f = unsafe { &*ctx.invoke };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                // Inside the catch_unwind, so an injected panic is
                // contained exactly like a real task panic.
                qtask_faults::fault_point!("taskflow/task");
                f(payload, chunk)
            })) {
                ctx.cancelled.store(true, Ordering::Relaxed);
                let mut slot = ctx.panic.lock();
                if slot.is_none() {
                    *slot = Some((Arc::clone(&node.name), p));
                }
            }
        }
    }
    drop(task_span);
    // Complete the node: fire its successors, then perform the final
    // pending decrement (the last context access).
    for &s in &node.succs {
        let succ = unsafe { &*s };
        if succ.join.fetch_sub(1, Ordering::AcqRel) == 1 {
            release(Job(s, job.1));
        }
    }
    // Wake the run's caller unless this thread is that caller. Only the
    // pool is touched after the decrement: the run may be freed at once.
    if ctx.pending.fetch_sub(1, Ordering::SeqCst) == 1 && job.1 != own {
        let _g = inner.sleep.lock.lock();
        inner.sleep.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Taskflow;
    use std::sync::atomic::{AtomicUsize, Ordering as O};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn runs_all_tasks_once() {
        let ex = Executor::new(4);
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("t");
        for i in 0..100 {
            tf.emplace(format!("t{i}"), || {
                count.fetch_add(1, O::SeqCst);
            });
        }
        ex.run(&tf);
        assert_eq!(count.load(O::SeqCst), 100);
    }

    #[test]
    fn tasks_run_counts_across_graphs() {
        let ex = Executor::new(2);
        assert_eq!(ex.tasks_run(), 0);
        let mut tf = Taskflow::new("t");
        for i in 0..10 {
            tf.emplace(format!("t{i}"), || {});
        }
        ex.run(&tf);
        assert_eq!(ex.tasks_run(), 10);
        ex.run(&tf);
        assert_eq!(ex.tasks_run(), 20);
    }

    #[test]
    fn respects_dependencies() {
        let ex = Executor::new(8);
        let log = StdMutex::new(Vec::new());
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("a", || log.lock().unwrap().push('a'));
        let b = tf.emplace("b", || log.lock().unwrap().push('b'));
        let c = tf.emplace("c", || log.lock().unwrap().push('c'));
        let d = tf.emplace("d", || log.lock().unwrap().push('d'));
        tf.precede(a, b);
        tf.precede(a, c);
        tf.precede(b, d);
        tf.precede(c, d);
        ex.run(&tf);
        drop(tf);
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(log[0], 'a');
        assert_eq!(log[3], 'd');
    }

    #[test]
    fn diamond_chain_order_stress() {
        // A long chain of diamonds; every stage must observe the previous
        // stage's writes (tests join-counter + memory-ordering correctness).
        let ex = Executor::new(8);
        let stages = 200;
        let cells: Vec<AtomicUsize> = (0..stages).map(|_| AtomicUsize::new(0)).collect();
        let mut tf = Taskflow::new("chain");
        let mut prev: Option<crate::graph::TaskRef> = None;
        for (i, cell) in cells.iter().enumerate() {
            let cells_ref = &cells;
            let left = tf.emplace(format!("l{i}"), move || {
                if i > 0 {
                    assert_eq!(cells_ref[i - 1].load(O::SeqCst), 2);
                }
                cell.fetch_add(1, O::SeqCst);
            });
            let right = tf.emplace(format!("r{i}"), move || {
                if i > 0 {
                    assert_eq!(cells_ref[i - 1].load(O::SeqCst), 2);
                }
                cell.fetch_add(1, O::SeqCst);
            });
            let join = tf.emplace_empty(format!("j{i}"));
            if let Some(p) = prev {
                tf.precede(p, left);
                tf.precede(p, right);
            }
            tf.precede(left, join);
            tf.precede(right, join);
            prev = Some(join);
        }
        ex.run(&tf);
        assert!(cells.iter().all(|c| c.load(O::SeqCst) == 2));
    }

    #[test]
    fn borrows_environment() {
        // Closures borrow a local vector mutably disjointly via atomics.
        let ex = Executor::new(4);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let mut tf = Taskflow::new("t");
        for (i, cell) in data.iter().enumerate() {
            tf.emplace(format!("w{i}"), move || {
                cell.store(i + 1, O::SeqCst);
            });
        }
        ex.run(&tf);
        for (i, cell) in data.iter().enumerate() {
            assert_eq!(cell.load(O::SeqCst), i + 1);
        }
    }

    #[test]
    fn rerunnable_graph() {
        let ex = Executor::new(4);
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("a", || {
            count.fetch_add(1, O::SeqCst);
        });
        let b = tf.emplace("b", || {
            count.fetch_add(10, O::SeqCst);
        });
        tf.precede(a, b);
        for _ in 0..5 {
            ex.run(&tf);
        }
        assert_eq!(count.load(O::SeqCst), 55);
    }

    #[test]
    fn empty_graph_is_noop() {
        let ex = Executor::new(2);
        let tf = Taskflow::new("empty");
        ex.run(&tf); // must not hang
    }

    #[test]
    fn single_thread_executor_works() {
        // One worker and the caller drain a whole fan and its gated
        // successor.
        let ex = Executor::new(1);
        let chunks = AtomicUsize::new(0);
        let count = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        let fan = g.insert(0, 15, Arc::from("fan"));
        let post = g.insert(1, 1, Arc::from("count"));
        g.add_edge(fan, post);
        ex.run_dirty(&mut g, &|payload, _chunk| {
            if *payload == 0 {
                chunks.fetch_add(1, O::SeqCst);
            } else {
                assert_eq!(chunks.load(O::SeqCst), 15);
                count.fetch_add(1, O::SeqCst);
            }
        })
        .unwrap();
        assert_eq!(count.load(O::SeqCst), 1);
    }

    #[test]
    fn panic_propagates_and_executor_survives() {
        let ex = Executor::new(4);
        let mut tf = Taskflow::new("t");
        tf.emplace("boom", || panic!("task exploded"));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| ex.run(&tf)));
        assert!(result.is_err());
        // Executor still usable afterwards.
        let ok = AtomicUsize::new(0);
        let mut tf2 = Taskflow::new("t2");
        tf2.emplace("fine", || {
            ok.fetch_add(1, O::SeqCst);
        });
        ex.run(&tf2);
        assert_eq!(ok.load(O::SeqCst), 1);
    }

    #[test]
    fn panic_cancels_downstream() {
        let ex = Executor::new(2);
        let ran_after = Arc::new(AtomicUsize::new(0));
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("boom", || panic!("x"));
        let r = Arc::clone(&ran_after);
        let b = tf.emplace("after", move || {
            r.fetch_add(1, O::SeqCst);
        });
        tf.precede(a, b);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| ex.run(&tf)));
        assert_eq!(ran_after.load(O::SeqCst), 0);
    }

    #[test]
    fn many_tasks_stress() {
        let ex = Executor::new(8);
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("stress");
        let layers = 50;
        let width = 40;
        let mut prev_layer: Vec<crate::graph::TaskRef> = Vec::new();
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let t = tf.emplace(format!("t{l}_{w}"), || {
                    count.fetch_add(1, O::SeqCst);
                });
                // Sparse cross-layer edges.
                if let Some(&p) = prev_layer.get(w % prev_layer.len().max(1)) {
                    tf.precede(p, t);
                }
                layer.push(t);
            }
            prev_layer = layer;
        }
        ex.run(&tf);
        assert_eq!(count.load(O::SeqCst), layers * width);
    }

    #[test]
    fn concurrent_runs_from_two_threads() {
        let ex = Arc::new(Executor::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let ex = Arc::clone(&ex);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    let mut tf = Taskflow::new("t");
                    for i in 0..50 {
                        let total = Arc::clone(&total);
                        tf.emplace(format!("t{i}"), move || {
                            total.fetch_add(1, O::SeqCst);
                        });
                    }
                    ex.run(&tf);
                });
            }
        });
        assert_eq!(total.load(O::SeqCst), 100);
    }

    #[test]
    fn try_run_reports_structured_panic() {
        let ex = Executor::new(4);
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("ok", || {});
        let b = tf.emplace("kaboom", || panic!("division by zero qubits"));
        tf.precede(a, b);
        let err = ex.try_run(&tf).unwrap_err();
        assert_eq!(&*err.task, "kaboom");
        assert!(err.message.contains("division by zero qubits"), "{err}");
        assert!(err.to_string().contains("kaboom"));
        // A clean graph afterwards reports Ok.
        let mut tf2 = Taskflow::new("t2");
        tf2.emplace("fine", || {});
        assert!(ex.try_run(&tf2).is_ok());
    }
}
