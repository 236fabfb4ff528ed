//! True thread-parallel execution: a work-stealing, elastic worker pool.
//!
//! The [`Engine`](crate::Engine) drives the paper's farm in *virtual
//! time* on the caller's thread. [`WorkerPool`] is the wall-clock
//! counterpart: each [`Backend`] core gets an owning OS worker thread
//! with a local deque, submission goes through a shared `&self` handle,
//! and finished jobs come back over a completion channel (plus an
//! optional notifier callback, which the TCP service wires to a
//! self-pipe so its `poll(2)` loops wake without spinning).
//!
//! Both run the one job model of [`job`](crate::job): the same
//! [`PoolBuilder`] configuration, the same admission gate (job ids, the
//! bounded capacity behind [`SubmitError::Busy`], the ragged check and
//! their counters), the same granule shard planner and span executor,
//! and the same per-core telemetry pusher. What the pool adds is the
//! threading: parallel modes (ECB, CTR) are dealt across every eligible
//! worker's deque, while chained modes (CBC, CFB, OFB) are *pinned* to
//! the least-loaded capable worker — block `i+1` depends on block `i`,
//! so the stream must not migrate mid-job. An idle worker first drains
//! its own deque, then the shared injector, then **steals** from the
//! back of the longest sibling deque (never a pinned task, never a
//! direction its datapath lacks).
//!
//! The farm is *elastic* — the software analog of partial FPGA
//! reconfiguration: [`WorkerPool::add_core`] and
//! [`WorkerPool::remove_core`] grow and shrink the worker set while jobs
//! are in flight, and [`WorkerPool::swap_core`] hot-swaps one worker's
//! backend between tasks without draining the farm. A retired slot's
//! pinned streams re-pin to a surviving capable worker; its parallel
//! shards fall back to the injector, and injector work the narrowed
//! farm can no longer serve fails typed instead of stranding.
//! [`WorkerPool::autoscale_tick`] drives resizing from the pool's own
//! open-job count and the occupancy samples its own workers recorded
//! under a [`ResizePolicy`] — never from registry-wide instruments, which
//! every session of a service writes into — and every decision is
//! visible as `engine.resize.*` counters and the `engine.workers` gauge.
//!
//! Worker threads spawn (and key their backends) lazily on the first
//! submission, so a pool that never sees work (an idle service session
//! holding only a key) costs no threads and no key schedules.
//!
//! # Examples
//!
//! ```
//! use engine::{Mode, PoolBuilder, BackendSpec};
//!
//! let pool = PoolBuilder::new()
//!     .cores(&[BackendSpec::Software; 2])
//!     .capacity(8)
//!     .build(&[0x2B; 16]);
//! let id = pool.try_submit(Mode::EcbEncrypt, vec![0u8; 64]).unwrap();
//! let out = pool.collect_timeout(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(out.id, id);
//! assert!(out.data.is_ok());
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aes_ip::core::Direction;
use telemetry::{Counter, Gauge, Histogram, Registry};

use crate::backend::{Backend, BackendSpec};
use crate::job::{
    plan_shards, run_span, CoreTel, FarmBuilder, FarmSlot, Gate, JobError, JobId, JobOutput, Mode,
    SubmitError,
};

/// Bucket bounds for the `engine.pool.job_us` histogram: wall-clock
/// submit-to-complete latency in microseconds, geometric steps from 50 µs
/// to a quarter second.
const JOB_US_BOUNDS: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// What [`WorkerPool::autoscale_tick`] decided this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeAction {
    /// A worker was added at this slot index.
    Grew(usize),
    /// The worker at this slot index was retired.
    Shrank(usize),
}

/// Telemetry-driven resize policy for [`WorkerPool::autoscale_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizePolicy {
    /// Never shrink below this many live workers.
    pub min_workers: usize,
    /// Never grow past this many live workers.
    pub max_workers: usize,
    /// Grow when this pool has at least this many of its *own* jobs
    /// open (accepted, not yet delivered). The shared
    /// `engine.queue.depth` gauge is deliberately not consulted: every
    /// keyed session publishes into the same service registry, so a
    /// neighbor's backlog would over-grow unrelated pools.
    pub grow_depth: usize,
    /// Shrink only after this many *consecutive* idle ticks, so a burst
    /// gap does not flap the farm.
    pub shrink_after_ticks: u32,
    /// Treat the farm as saturated (and refuse to shrink) while the mean
    /// occupancy sample this pool's own workers recorded since the last
    /// tick is at or above this many basis points.
    pub busy_occupancy_bp: u64,
    /// The backend grown workers are built with.
    pub spec: BackendSpec,
}

impl Default for ResizePolicy {
    fn default() -> Self {
        ResizePolicy {
            min_workers: 1,
            max_workers: 4,
            grow_depth: 4,
            shrink_after_ticks: 8,
            busy_occupancy_bp: 8_000,
            spec: BackendSpec::Auto,
        }
    }
}

/// One unit of schedulable work: a shard (or the whole) of a job.
struct Task {
    job: Arc<JobState>,
    /// Index into the job's `parts` this task produces.
    part: usize,
    /// Pinned tasks (chained streams) never migrate by stealing.
    pinned: bool,
    mode: Mode,
    /// The span's SP 800-38A counter offset (0 for an unsharded job).
    first_block: u128,
    data: Vec<u8>,
}

/// Shared completion state of one job across its shards.
struct JobState {
    id: JobId,
    started: Instant,
    /// One slot per shard, reassembled in order at completion.
    parts: Mutex<Vec<Option<Vec<u8>>>>,
    /// Shards still outstanding; the worker that takes this to zero
    /// assembles and delivers the output.
    remaining: Mutex<usize>,
    /// First fault wins; the job reports it once every shard has landed.
    failed: Mutex<Option<JobError>>,
}

impl JobState {
    fn new(id: JobId, parts: usize) -> Arc<JobState> {
        Arc::new(JobState {
            id,
            started: Instant::now(),
            parts: Mutex::new(vec![None; parts]),
            remaining: Mutex::new(parts),
            failed: Mutex::new(None),
        })
    }
}

/// One farm slot's scheduler-visible state. The worker thread owns the
/// backend itself; the slot mirrors just what routing decisions need.
struct Slot {
    alive: bool,
    name: &'static str,
    enc: bool,
    dec: bool,
    queue: VecDeque<Task>,
    /// A pre-built replacement backend the worker installs before its
    /// next task (hot-swap without draining the farm).
    swap: Option<Box<dyn Backend>>,
    busy: bool,
}

impl Slot {
    fn supports(&self, dir: Direction) -> bool {
        match dir {
            Direction::Encrypt => self.enc,
            Direction::Decrypt => self.dec,
        }
    }

    fn load(&self) -> usize {
        self.queue.len() + usize::from(self.busy)
    }
}

struct State {
    slots: Vec<Slot>,
    injector: VecDeque<Task>,
    /// Farm slots waiting for the lazy first-submission spawn.
    pending: Vec<FarmSlot>,
    /// Jobs accepted and not yet delivered — the bounded-capacity count.
    open: usize,
    started: bool,
    shutdown: bool,
}

impl State {
    fn eligible(&self, dir: Direction) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].alive && self.slots[i].supports(dir))
            .collect()
    }

    fn least_loaded(&self, dir: Direction) -> Option<usize> {
        self.eligible(dir)
            .into_iter()
            .min_by_key(|&i| self.slots[i].load())
    }

    /// Removes and returns every injector task whose direction no live
    /// worker supports. Resizes that change the farm's capability set
    /// must call this: a lone parallel job lands in the injector, and a
    /// worker only ever takes injector work it can run — an unservable
    /// task would otherwise sit there forever, leaking its capacity
    /// slot and hanging `wait_idle`.
    fn drain_unservable_injector(&mut self) -> Vec<Task> {
        let can_enc = self.slots.iter().any(|s| s.alive && s.enc);
        let can_dec = self.slots.iter().any(|s| s.alive && s.dec);
        take_unservable(&mut self.injector, can_enc, can_dec)
    }
}

/// Removes and returns the tasks in `queue` whose direction a datapath
/// with the given capabilities cannot run, keeping the rest in order.
fn take_unservable(queue: &mut VecDeque<Task>, enc: bool, dec: bool) -> Vec<Task> {
    let (kept, gone): (VecDeque<Task>, VecDeque<Task>) =
        queue.drain(..).partition(|t| match t.mode.direction() {
            Direction::Encrypt => enc,
            Direction::Decrypt => dec,
        });
    *queue = kept;
    gone.into()
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers when tasks arrive, a swap lands, or shutdown starts.
    work_cv: Condvar,
    /// Wakes [`WorkerPool::wait_idle`] when `open` returns to zero.
    idle_cv: Condvar,
    gate: Gate,
    /// Key bytes for building grown / swapped backends; wiped on drop.
    key: Mutex<Vec<u8>>,
    tx: Mutex<Sender<JobOutput>>,
    notifier: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
    job_us: Histogram,
    steals: Counter,
    /// `(count, sum)` of the occupancy samples this pool's workers
    /// recorded since the last autoscale tick. The registry histogram
    /// they also record into is shared by every farm on the registry, so
    /// it cannot tell this pool's load from a neighbor's.
    occupancy: Mutex<(u64, u64)>,
}

impl Inner {
    /// Final delivery: publish counters, push the output down the
    /// channel, fire the notifier, and only then release the capacity
    /// slot — locks are never held across the callback.
    fn deliver(&self, out: JobOutput, started: Instant) {
        self.gate.retire(out.data.is_ok());
        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.job_us.record(us);
        let _ = self.tx.lock().expect("sender poisoned").send(out);
        let notify = self.notifier.lock().expect("notifier poisoned").clone();
        if let Some(f) = notify {
            f();
        }
        // The capacity slot is released only after the output is on the
        // channel and the notifier has fired, so `wait_idle` returning
        // means every delivery side effect is visible.
        let mut st = self.state.lock().expect("pool state poisoned");
        st.open -= 1;
        if st.open == 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Records one shard's result; the last shard in assembles the job
    /// and delivers it. Call *without* holding the state lock.
    fn finish_part(&self, job: &Arc<JobState>, part: usize, result: Result<Vec<u8>, JobError>) {
        match result {
            Ok(bytes) => job.parts.lock().expect("job parts poisoned")[part] = Some(bytes),
            Err(e) => {
                let mut failed = job.failed.lock().expect("job fault slot poisoned");
                if failed.is_none() {
                    *failed = Some(e);
                }
            }
        }
        let last = {
            let mut remaining = job.remaining.lock().expect("job remaining poisoned");
            *remaining -= 1;
            *remaining == 0
        };
        if !last {
            return;
        }
        let fault = job.failed.lock().expect("job fault slot poisoned").take();
        let data = match fault {
            Some(e) => Err(e),
            None => {
                let mut parts = job.parts.lock().expect("job parts poisoned");
                let total: usize = parts.iter().map(|p| p.as_ref().map_or(0, Vec::len)).sum();
                let mut buf = Vec::with_capacity(total);
                for p in parts.iter_mut() {
                    buf.extend_from_slice(&p.take().expect("every shard landed"));
                }
                Ok(buf)
            }
        };
        self.deliver(JobOutput { id: job.id, data }, job.started);
    }

    /// Fails every task in `tasks` (used when a remove/swap leaves a
    /// direction with no capable worker). Call without the state lock.
    fn fail_tasks(&self, tasks: Vec<Task>) {
        for t in tasks {
            let dir = t.mode.direction();
            self.finish_part(&t.job, t.part, Err(JobError::NoCapableCore { dir }));
        }
    }

    /// Pushes one worker's counter growth and adds its occupancy sample
    /// to this pool's own tally.
    fn sync_core(&self, tel: &CoreTel, backend: &dyn Backend) {
        if let Some(bp) = tel.sync(backend) {
            let mut own = self.occupancy.lock().expect("occupancy tally poisoned");
            own.0 += 1;
            own.1 += bp;
        }
    }
}

/// Configures and builds a [`WorkerPool`]; see [`FarmBuilder`].
pub type PoolBuilder = FarmBuilder<WorkerPool>;

impl FarmBuilder<WorkerPool> {
    /// Assembles the pool. The key is retained (and wiped on drop) so
    /// spec-built, grown and hot-swapped workers can be keyed at
    /// runtime; worker threads spawn lazily on the first submission.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm or a zero-capacity queue, like the
    /// engine's `build`.
    #[must_use]
    pub fn build(self, key: &[u8]) -> WorkerPool {
        let (pending, gate) = self.finish();
        let registry = gate.registry.clone();
        let workers_gauge = registry.gauge("engine.workers");
        workers_gauge.add(pending.len() as i64);
        let (tx, rx) = channel();
        WorkerPool {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    slots: Vec::new(),
                    injector: VecDeque::new(),
                    pending,
                    open: 0,
                    started: false,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                gate,
                key: Mutex::new(key.to_vec()),
                tx: Mutex::new(tx),
                notifier: Mutex::new(None),
                job_us: registry.histogram("engine.pool.job_us", &JOB_US_BOUNDS),
                steals: registry.counter("engine.pool.steals"),
                occupancy: Mutex::new((0, 0)),
            }),
            rx: Mutex::new(rx),
            handles: Mutex::new(Vec::new()),
            resize_grow: registry.counter("engine.resize.grow"),
            resize_shrink: registry.counter("engine.resize.shrink"),
            resize_swap: registry.counter("engine.resize.swap"),
            workers_gauge,
            idle_streak: AtomicU32::new(0),
        }
    }
}

/// The work-stealing elastic thread pool. See the [module docs](self).
pub struct WorkerPool {
    inner: Arc<Inner>,
    rx: Mutex<Receiver<JobOutput>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    resize_grow: Counter,
    resize_shrink: Counter,
    resize_swap: Counter,
    workers_gauge: Gauge,
    idle_streak: AtomicU32,
}

impl WorkerPool {
    /// Shorthand: a pool over `specs` with a private registry.
    #[must_use]
    pub fn with_farm(key: &[u8], specs: &[BackendSpec], capacity: usize) -> WorkerPool {
        PoolBuilder::new()
            .cores(specs)
            .capacity(capacity)
            .build(key)
    }

    /// The registry this pool publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.inner.gate.registry
    }

    /// The bounded open-job capacity (the `Busy` detail value).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.gate.capacity
    }

    /// Jobs accepted and not yet delivered.
    #[must_use]
    pub fn open_jobs(&self) -> usize {
        self.inner.state.lock().expect("pool state poisoned").open
    }

    /// Live workers (configured-but-unspawned count before the lazy
    /// start, alive slots after).
    #[must_use]
    pub fn workers(&self) -> usize {
        let st = self.inner.state.lock().expect("pool state poisoned");
        if st.started {
            st.slots.iter().filter(|s| s.alive).count()
        } else {
            st.pending.len()
        }
    }

    /// Installs (or replaces) the completion notifier: called once per
    /// delivered job, after the output is in the channel. The service
    /// points this at a shard's wake pipe so `poll(2)` loops re-arm
    /// without polling the pool.
    pub fn set_notifier(&self, notifier: Arc<dyn Fn() + Send + Sync>) {
        *self.inner.notifier.lock().expect("notifier poisoned") = Some(notifier);
    }

    /// Enqueues a mode operation over `data`, applying backpressure, and
    /// wakes a worker. The first accepted submission spawns the worker
    /// threads.
    ///
    /// Parallel modes (ECB, CTR) are dealt across every eligible worker
    /// in 8-block granules; chained modes pin to the least-loaded capable
    /// worker. The completion surfaces from [`WorkerPool::try_collect`] /
    /// [`WorkerPool::collect_timeout`] in completion order.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Busy`] when `capacity` jobs are already open (or
    ///   the pool is shutting down);
    /// * [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    ///   number of blocks.
    pub fn try_submit(&self, mode: Mode, data: Vec<u8>) -> Result<JobId, SubmitError> {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        // A pool shutting down is full for good.
        let open = if st.shutdown { usize::MAX } else { st.open };
        let id = self.inner.gate.admit(open, mode, data.len())?;
        self.ensure_started(&mut st);
        // Take the capacity slot first — deliver() releases it.
        st.open += 1;
        let dir = mode.direction();
        let eligible = st.eligible(dir);
        if eligible.is_empty() || data.is_empty() {
            // Degenerate jobs complete on the submitting thread:
            // accepted-then-failed when the farm has no datapath for the
            // direction (like the engine), trivially done when there are
            // no bytes.
            drop(st);
            let data = if eligible.is_empty() {
                Err(JobError::NoCapableCore { dir })
            } else {
                Ok(Vec::new())
            };
            self.inner.deliver(JobOutput { id, data }, Instant::now());
            return Ok(id);
        }
        if mode.is_parallel() && eligible.len() > 1 {
            deal_shards(&mut st, id, mode, data, &eligible);
        } else {
            let pinned = !mode.is_parallel();
            let task = Task {
                job: JobState::new(id, 1),
                part: 0,
                pinned,
                mode,
                first_block: 0,
                data,
            };
            if pinned {
                let target = st.least_loaded(dir).expect("eligible is non-empty");
                st.slots[target].queue.push_back(task);
            } else {
                // A lone parallel job: any capable worker may take it.
                st.injector.push_back(task);
            }
        }
        drop(st);
        self.inner.work_cv.notify_all();
        Ok(id)
    }

    /// Spawns the configured workers on the first submission.
    fn ensure_started(&self, st: &mut State) {
        if st.started {
            return;
        }
        st.started = true;
        let pending = std::mem::take(&mut st.pending);
        let key = self.inner.key.lock().expect("pool key poisoned").clone();
        for slot in pending {
            self.spawn_worker(st, slot.build(&key));
        }
    }

    /// Registers a slot for `backend` and spawns its owning thread.
    /// Returns the new slot index.
    fn spawn_worker(&self, st: &mut State, backend: Box<dyn Backend>) -> usize {
        let index = st.slots.len();
        st.slots.push(Slot {
            alive: true,
            name: backend.name(),
            enc: backend.supports(Direction::Encrypt),
            dec: backend.supports(Direction::Decrypt),
            queue: VecDeque::new(),
            swap: None,
            busy: false,
        });
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name(format!("engine-worker-{index}"))
            .spawn(move || worker_main(&inner, index, backend))
            .expect("spawn engine worker thread");
        self.handles
            .lock()
            .expect("pool handles poisoned")
            .push(handle);
        index
    }
    /// Adds one worker built from `spec` (with the pool's key) to the
    /// live farm, returning its slot index. Counted as
    /// `engine.resize.grow`.
    pub fn add_core(&self, spec: BackendSpec) -> usize {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        let index = if st.started {
            let key = self.inner.key.lock().expect("pool key poisoned").clone();
            self.spawn_worker(&mut st, spec.build(&key))
        } else {
            st.pending.push(FarmSlot::Spec(spec));
            st.pending.len() - 1
        };
        drop(st);
        self.workers_gauge.add(1);
        self.resize_grow.incr();
        self.inner.work_cv.notify_all();
        index
    }

    /// Retires the worker at `index`: its pinned streams re-pin to a
    /// surviving capable worker, its parallel shards fall back to the
    /// injector, and tasks no surviving worker can serve fail with
    /// [`JobError::NoCapableCore`]. Counted as `engine.resize.shrink`.
    /// Returns `false` for an unknown or already-retired slot.
    pub fn remove_core(&self, index: usize) -> bool {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        if !st.started {
            if index < st.pending.len() {
                st.pending.remove(index);
                drop(st);
                self.workers_gauge.sub(1);
                self.resize_shrink.incr();
                return true;
            }
            return false;
        }
        if index >= st.slots.len() || !st.slots[index].alive {
            return false;
        }
        st.slots[index].alive = false;
        let orphans: Vec<Task> = st.slots[index].queue.drain(..).collect();
        let mut unroutable = reroute(&mut st, orphans);
        unroutable.extend(st.drain_unservable_injector());
        drop(st);
        self.inner.fail_tasks(unroutable);
        self.workers_gauge.sub(1);
        self.resize_shrink.incr();
        self.inner.work_cv.notify_all();
        true
    }

    /// Hot-swaps the backend of the worker at `index` to one freshly
    /// built from `spec` with the pool's key, *without* draining the
    /// farm: the worker installs the replacement before its next task;
    /// the task it is executing right now finishes on the old backend.
    /// Queued tasks the new backend cannot serve are re-routed first.
    /// Counted as `engine.resize.swap`. Returns `false` for an unknown
    /// or retired slot.
    pub fn swap_core(&self, index: usize, spec: BackendSpec) -> bool {
        let key = self.inner.key.lock().expect("pool key poisoned").clone();
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        if !st.started {
            if index < st.pending.len() {
                st.pending[index] = FarmSlot::Spec(spec);
                drop(st);
                self.resize_swap.incr();
                return true;
            }
            return false;
        }
        if index >= st.slots.len() || !st.slots[index].alive {
            return false;
        }
        let backend = spec.build(&key);
        let (enc, dec) = (
            backend.supports(Direction::Encrypt),
            backend.supports(Direction::Decrypt),
        );
        st.slots[index].name = backend.name();
        st.slots[index].enc = enc;
        st.slots[index].dec = dec;
        st.slots[index].swap = Some(backend);
        // The slot's queue may hold directions the new backend lacks
        // (e.g. encdec -> encrypt-only): migrate them before the worker
        // blindly pops its own deque.
        let stale = take_unservable(&mut st.slots[index].queue, enc, dec);
        let mut unroutable = reroute(&mut st, stale);
        unroutable.extend(st.drain_unservable_injector());
        drop(st);
        self.inner.fail_tasks(unroutable);
        self.resize_swap.incr();
        self.inner.work_cv.notify_all();
        true
    }

    /// One supervisor tick of the elastic control plane: reads this
    /// pool's own open-job count and the occupancy samples its own
    /// workers recorded since the last tick, and grows or shrinks the
    /// farm under `policy`. The registry-wide `engine.queue.depth` gauge
    /// and `engine.core.occupancy_bp` histogram are deliberately not
    /// consulted: every farm on a shared registry writes into them, so a
    /// busy neighbor would grow this pool or keep it from shrinking.
    /// Growth requires this pool's own queue pressure; shrinking
    /// requires [`ResizePolicy::shrink_after_ticks`] consecutive idle
    /// ticks with the cores below the saturation bar.
    pub fn autoscale_tick(&self, policy: &ResizePolicy) -> Option<ResizeAction> {
        let (count, sum) = std::mem::take(
            &mut *self
                .inner
                .occupancy
                .lock()
                .expect("occupancy tally poisoned"),
        );
        let saturated = count > 0 && sum / count >= policy.busy_occupancy_bp;
        let (own_open, workers) = (self.open_jobs(), self.workers());
        if own_open >= policy.grow_depth && workers < policy.max_workers {
            self.idle_streak.store(0, Ordering::Relaxed);
            return Some(ResizeAction::Grew(self.add_core(policy.spec)));
        }
        if own_open == 0 && !saturated && workers > policy.min_workers {
            let streak = self.idle_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= policy.shrink_after_ticks {
                self.idle_streak.store(0, Ordering::Relaxed);
                let victim = {
                    let st = self.inner.state.lock().expect("pool state poisoned");
                    (0..st.slots.len()).rev().find(|&i| st.slots[i].alive)
                };
                if let Some(i) = victim {
                    if self.remove_core(i) {
                        return Some(ResizeAction::Shrank(i));
                    }
                }
            }
        } else {
            self.idle_streak.store(0, Ordering::Relaxed);
        }
        None
    }

    /// A finished job, if one is ready — non-blocking, completion order.
    #[must_use]
    pub fn try_collect(&self) -> Option<JobOutput> {
        self.rx
            .lock()
            .expect("pool receiver poisoned")
            .try_recv()
            .ok()
    }

    /// A finished job, waiting up to `timeout` for one to complete.
    #[must_use]
    pub fn collect_timeout(&self, timeout: Duration) -> Option<JobOutput> {
        self.rx
            .lock()
            .expect("pool receiver poisoned")
            .recv_timeout(timeout)
            .ok()
    }

    /// Blocks until no jobs are open (all accepted work delivered).
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        while st.open > 0 {
            st = self.inner.idle_cv.wait(st).expect("pool state poisoned");
        }
    }

    /// Like [`WorkerPool::wait_idle`], but gives up after `timeout`.
    /// Returns `true` when the pool went idle (every accepted job
    /// delivered), `false` on timeout — the graceful-shutdown bound for
    /// callers that must not hang on a wedged backend.
    #[must_use]
    pub fn wait_idle_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        while st.open > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .inner
                .idle_cv
                .wait_timeout(st, left)
                .expect("pool state poisoned");
            st = guard;
        }
        true
    }

    /// Graceful shutdown: refuses new submissions, lets the workers
    /// finish everything they can serve, fails anything left over
    /// (typed, so no job is silently lost), and joins the threads.
    /// Already-delivered outputs stay collectable. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            // Worker panics are contained by the catch_unwind in the
            // run loop (the held job already failed typed); joining
            // must not re-raise during teardown.
            let _ = h.join();
        }
        // Workers exit past injector tasks they cannot serve (e.g. a
        // decrypt stranded by an earlier capability-narrowing resize):
        // fail every leftover task so its job completes and `wait_idle`
        // callers — and the clients behind them — are released.
        let (live, leftovers) = {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            let live = st.slots.iter().filter(|s| s.alive).count() + st.pending.len();
            let mut leftovers: Vec<Task> = st.injector.drain(..).collect();
            for s in st.slots.iter_mut() {
                leftovers.extend(s.queue.drain(..));
                s.alive = false;
            }
            st.pending.clear();
            (live, leftovers)
        };
        if live > 0 {
            self.workers_gauge.sub(live as i64);
        }
        self.inner.fail_tasks(leftovers);
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("open_jobs", &self.open_jobs())
            .field("capacity", &self.inner.gate.capacity)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Ok(mut key) = self.key.lock() {
            rijndael::zeroize::wipe_bytes(&mut key);
        }
    }
}

/// Re-homes orphaned tasks: pinned streams to the least-loaded surviving
/// capable worker, parallel shards to the injector (when anyone can still
/// serve them). Returns the tasks nobody can run.
fn reroute(st: &mut State, tasks: Vec<Task>) -> Vec<Task> {
    let mut unroutable = Vec::new();
    for t in tasks {
        let dir = t.mode.direction();
        if t.pinned {
            match st.least_loaded(dir) {
                Some(target) => st.slots[target].queue.push_back(t),
                None => unroutable.push(t),
            }
        } else if st.eligible(dir).is_empty() {
            unroutable.push(t);
        } else {
            st.injector.push_back(t);
        }
    }
    unroutable
}

/// What the worker loop decided to do next (chosen under the state lock,
/// acted on outside it).
enum Action {
    Run(Task),
    Install(Box<dyn Backend>),
    Exit,
}

/// Finds runnable work for worker `me`: own deque front, then the first
/// capable injector task, then a steal from the back of the longest
/// sibling deque (unpinned, capable tasks only). Returns whether the
/// task was stolen.
fn find_task(st: &mut State, me: usize) -> Option<(Task, bool)> {
    if let Some(t) = st.slots[me].queue.pop_front() {
        return Some((t, false));
    }
    let (enc, dec) = (st.slots[me].enc, st.slots[me].dec);
    let can = |dir: Direction| match dir {
        Direction::Encrypt => enc,
        Direction::Decrypt => dec,
    };
    if let Some(pos) = st.injector.iter().position(|t| can(t.mode.direction())) {
        return st.injector.remove(pos).map(|t| (t, false));
    }
    let mut victims: Vec<usize> = (0..st.slots.len())
        .filter(|&i| i != me && st.slots[i].alive && !st.slots[i].queue.is_empty())
        .collect();
    victims.sort_by_key(|&i| std::cmp::Reverse(st.slots[i].queue.len()));
    for v in victims {
        let queue = &mut st.slots[v].queue;
        for pos in (0..queue.len()).rev() {
            if !queue[pos].pinned && can(queue[pos].mode.direction()) {
                return queue.remove(pos).map(|t| (t, true));
            }
        }
    }
    None
}

fn worker_main(inner: &Inner, me: usize, mut backend: Box<dyn Backend>) {
    let mut tel = CoreTel::register(&inner.gate.registry, me, backend.name());
    loop {
        let action = {
            let mut st = inner.state.lock().expect("pool state poisoned");
            loop {
                if let Some(next) = st.slots[me].swap.take() {
                    break Action::Install(next);
                }
                if !st.slots[me].alive {
                    break Action::Exit;
                }
                if let Some((task, stolen)) = find_task(&mut st, me) {
                    st.slots[me].busy = true;
                    if stolen {
                        inner.steals.incr();
                    }
                    break Action::Run(task);
                }
                if st.shutdown {
                    break Action::Exit;
                }
                st = inner.work_cv.wait(st).expect("pool state poisoned");
            }
        };
        match action {
            Action::Run(task) => {
                let Task {
                    job,
                    part,
                    mode,
                    first_block,
                    mut data,
                    ..
                } = task;
                // Contain backend panics: an unwind through the run
                // loop would strand the held job (wait_idle hangs) and
                // poison the state mutex for every other thread. The
                // panic becomes a typed fault and the worker carries
                // on with the same backend.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_span(backend.as_mut(), mode, first_block, &mut data)
                }))
                .unwrap_or(Err(JobError::WorkerPanicked));
                inner.sync_core(&tel, backend.as_ref());
                inner.state.lock().expect("pool state poisoned").slots[me].busy = false;
                inner.finish_part(&job, part, result.map(|()| data));
            }
            Action::Install(next) => {
                // Push the retiring backend's final deltas, drop it (IP
                // cores zero-reload their key schedule on drop), and
                // re-register counters under the new backend's name.
                inner.sync_core(&tel, backend.as_ref());
                backend = next;
                tel = CoreTel::register(&inner.gate.registry, me, backend.name());
            }
            Action::Exit => {
                inner.sync_core(&tel, backend.as_ref());
                return;
            }
        }
    }
}

/// Deals a parallel job's granule shards across the eligible workers'
/// deques. Idle workers rebalance by stealing from the back.
fn deal_shards(st: &mut State, id: JobId, mode: Mode, mut data: Vec<u8>, eligible: &[usize]) {
    let shards = plan_shards(data.len(), eligible.len());
    let job = JobState::new(id, shards.len());
    // Split from the tail so each shard is one allocation and the bytes
    // are copied exactly once.
    for (part, shard) in shards.into_iter().enumerate().rev() {
        let bytes = data.split_off(shard.bytes.start);
        st.slots[eligible[shard.pos]].queue.push_back(Task {
            job: Arc::clone(&job),
            part,
            pinned: false,
            mode,
            first_block: shard.first_block,
            data: bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rijndael::modes::{Cbc, Ctr, Ecb};
    use rijndael::Aes128;
    use std::collections::BTreeMap;

    const KEY: [u8; 16] = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F,
        0x3C,
    ];

    const WAIT: Duration = Duration::from_secs(10);

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    fn collect_n(pool: &WorkerPool, n: usize) -> BTreeMap<JobId, Result<Vec<u8>, JobError>> {
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let o = pool.collect_timeout(WAIT).expect("job completes in time");
            assert!(out.insert(o.id, o.data).is_none(), "duplicate completion");
        }
        out
    }

    #[test]
    fn parallel_and_chained_jobs_match_the_reference() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::EncDecCore; 3], 8);
        let reference = Aes128::new(&KEY);
        let ecb_data = sample(24 * 16);
        let ctr_data = sample(10 * 16 + 5);
        let cbc_data = sample(5 * 16);
        let a = pool.try_submit(Mode::EcbEncrypt, ecb_data.clone()).unwrap();
        let b = pool
            .try_submit(Mode::Ctr([0xF0; 16]), ctr_data.clone())
            .unwrap();
        let c = pool
            .try_submit(Mode::CbcEncrypt([0x11; 16]), cbc_data.clone())
            .unwrap();
        let got = collect_n(&pool, 3);

        let mut expect = ecb_data;
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(got[&a].as_ref().unwrap(), &expect);
        let mut expect = ctr_data;
        Ctr::apply(&reference, &[0xF0; 16], &mut expect);
        assert_eq!(got[&b].as_ref().unwrap(), &expect);
        let mut expect = cbc_data;
        Cbc::encrypt(&reference, &[0x11; 16], &mut expect).unwrap();
        assert_eq!(got[&c].as_ref().unwrap(), &expect);
    }

    #[test]
    fn busy_and_ragged_surface_at_the_submit_boundary() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software], 2);
        assert_eq!(
            pool.try_submit(Mode::EcbEncrypt, sample(17)),
            Err(SubmitError::RaggedLength { len: 17 })
        );
        pool.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
        pool.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
        // The third submission may race the workers draining the first
        // two; only assert Busy when the pool is genuinely full.
        if pool.open_jobs() >= 2 {
            assert_eq!(
                pool.try_submit(Mode::Ctr([0; 16]), sample(5)),
                Err(SubmitError::Busy { capacity: 2 })
            );
        }
        pool.wait_idle();
        assert!(pool.try_submit(Mode::Ctr([0; 16]), sample(5)).is_ok());
        assert_eq!(collect_n(&pool, 3).len(), 3);
    }

    #[test]
    fn decrypt_on_an_encrypt_only_farm_fails_without_losing_the_job() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::EncryptCore; 2], 4);
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        let out = pool.collect_timeout(WAIT).unwrap();
        assert_eq!(out.id, id);
        assert_eq!(
            out.data,
            Err(JobError::NoCapableCore {
                dir: Direction::Decrypt
            })
        );
        // Forward-datapath CTR still runs.
        pool.try_submit(Mode::Ctr([3; 16]), sample(32)).unwrap();
        assert!(pool.collect_timeout(WAIT).unwrap().data.is_ok());
    }

    #[test]
    fn empty_jobs_complete_immediately() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software], 2);
        let id = pool.try_submit(Mode::EcbEncrypt, Vec::new()).unwrap();
        let out = pool.collect_timeout(WAIT).unwrap();
        assert_eq!(out.id, id);
        assert_eq!(out.data.unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn grow_shrink_and_swap_under_load_lose_nothing() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        let reference = Aes128::new(&KEY);
        let mut expected = BTreeMap::new();
        let mut submit = |pool: &WorkerPool, i: usize| {
            let data = sample(64 + (i % 7) * 16);
            let id = pool.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
            let mut e = data;
            Ecb::encrypt(&reference, &mut e).unwrap();
            expected.insert(id, e);
        };
        for i in 0..8 {
            submit(&pool, i);
        }
        let grown = pool.add_core(BackendSpec::Software);
        assert_eq!(pool.workers(), 2);
        for i in 8..16 {
            submit(&pool, i);
        }
        assert!(pool.swap_core(grown, BackendSpec::Bitsliced));
        for i in 16..24 {
            submit(&pool, i);
        }
        assert!(pool.remove_core(grown));
        assert_eq!(pool.workers(), 1);
        for i in 24..32 {
            submit(&pool, i);
        }
        let got = collect_n(&pool, 32);
        for (id, e) in &expected {
            assert_eq!(got[id].as_ref().unwrap(), e, "{id}");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.resize.grow"), Some(1));
        assert_eq!(snap.counter("engine.resize.shrink"), Some(1));
        assert_eq!(snap.counter("engine.resize.swap"), Some(1));
        assert_eq!(snap.gauge("engine.workers"), Some(1));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(32));
        assert_eq!(snap.counter("engine.jobs.failed"), Some(0));
    }

    #[test]
    fn removing_the_last_capable_worker_fails_orphaned_work_typed() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::EncDecCore], 16);
        // Force the worker to start, then retire it with work queued.
        pool.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        pool.wait_idle();
        for _ in 0..4 {
            pool.try_submit(Mode::CbcEncrypt([0; 16]), sample(16 * 16))
                .unwrap();
        }
        pool.remove_core(0);
        let mut seen = 0;
        let mut failed = 0;
        while let Some(out) = pool.collect_timeout(WAIT) {
            seen += 1;
            if out.data.is_err() {
                failed += 1;
            }
            if seen == 5 {
                break;
            }
        }
        // Every job completes (none lost); the ones the retirement
        // orphaned report NoCapableCore.
        assert_eq!(seen, 5);
        assert!(failed <= 4);
        // New submissions on the empty farm fail typed, immediately.
        let id = pool.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        let out = pool.collect_timeout(WAIT).unwrap();
        assert_eq!(out.id, id);
        assert!(matches!(out.data, Err(JobError::NoCapableCore { .. })));
    }

    #[test]
    fn removing_the_last_decryptor_fails_stranded_injector_work() {
        // A decrypt job with exactly one eligible worker goes to the
        // injector as an unpinned Whole task. Retiring that worker must
        // not strand it there: either the worker ran it first, or the
        // removal fails it typed — never a hang.
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::EncryptCore, BackendSpec::EncDecCore],
            16,
        );
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        assert!(pool.remove_core(1));
        let out = pool
            .collect_timeout(WAIT)
            .expect("the injector job completes despite the removal");
        assert_eq!(out.id, id);
        if let Err(e) = out.data {
            assert_eq!(
                e,
                JobError::NoCapableCore {
                    dir: Direction::Decrypt
                }
            );
        }
        pool.wait_idle(); // the capacity slot was released either way
    }

    #[test]
    fn swapping_away_the_last_decryptor_fails_stranded_injector_work() {
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::EncryptCore, BackendSpec::EncDecCore],
            16,
        );
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        assert!(pool.swap_core(1, BackendSpec::EncryptCore));
        let out = pool
            .collect_timeout(WAIT)
            .expect("the injector job completes despite the swap");
        assert_eq!(out.id, id);
        pool.wait_idle();
        // And shutdown still drains cleanly afterwards.
        pool.shutdown();
    }

    #[test]
    fn autoscale_ignores_neighbor_pool_backlog() {
        // Two session pools share one service registry. A's backlog
        // drives the shared engine.queue.depth gauge high; B, nearly
        // idle, must not grow on its neighbor's pressure.
        let reg = Registry::new();
        let a = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        let b = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        for _ in 0..16 {
            a.try_submit(Mode::EcbEncrypt, sample(64 * 16)).unwrap();
        }
        b.try_submit(Mode::EcbEncrypt, sample(64 * 16)).unwrap();
        let policy = ResizePolicy {
            grow_depth: 4,
            spec: BackendSpec::Software,
            ..ResizePolicy::default()
        };
        assert_eq!(
            b.autoscale_tick(&policy),
            None,
            "one own open job is below grow_depth, whatever the shared gauge says"
        );
        a.wait_idle();
        b.wait_idle();
    }

    #[test]
    fn autoscale_shrinks_an_idle_pool_beside_a_busy_neighbor() {
        // Two session pools share one service registry. The busy one
        // runs a job every tick, so the shared occupancy histogram keeps
        // filling with saturated samples; the idle one must judge only
        // its own workers' samples and shrink anyway.
        let reg = Registry::new();
        let busy = PoolBuilder::new()
            .core(BackendSpec::Software)
            .registry(reg.clone())
            .build(&KEY);
        let idle = PoolBuilder::new()
            .cores(&[BackendSpec::Software; 2])
            .registry(reg.clone())
            .build(&KEY);
        // Start the idle pool's workers (only live slots can retire).
        idle.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        assert!(idle.collect_timeout(WAIT).unwrap().data.is_ok());
        let policy = ResizePolicy {
            min_workers: 1,
            max_workers: 2,
            grow_depth: 4,
            shrink_after_ticks: 2,
            busy_occupancy_bp: 8_000,
            spec: BackendSpec::Software,
        };
        let mut shrank = false;
        for _ in 0..8 {
            busy.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
            assert!(busy.collect_timeout(WAIT).unwrap().data.is_ok());
            if let Some(ResizeAction::Shrank(_)) = idle.autoscale_tick(&policy) {
                shrank = true;
                break;
            }
        }
        assert!(
            shrank,
            "the neighbor's load must not keep the idle pool grown"
        );
        assert_eq!(idle.workers(), 1);
    }

    #[test]
    fn swap_is_visible_in_farm_stats_under_both_names() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(8)
            .registry(reg.clone())
            .build(&KEY);
        pool.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        pool.wait_idle();
        pool.swap_core(0, BackendSpec::Software);
        pool.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        pool.wait_idle();
        pool.shutdown();
        let stats = crate::FarmStats::from_snapshot(&reg.snapshot());
        let lines: Vec<(usize, &str, u64)> = stats
            .per_core
            .iter()
            .map(|c| (c.index, c.name.as_str(), c.blocks))
            .collect();
        assert_eq!(
            lines,
            vec![(0, "soft-ref", 8), (0, "soft-ttable", 8)],
            "both backends that lived in slot 0 report their own blocks"
        );
    }

    #[test]
    fn autoscale_grows_under_pressure_and_shrinks_when_idle() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        let policy = ResizePolicy {
            min_workers: 1,
            max_workers: 3,
            grow_depth: 4,
            shrink_after_ticks: 2,
            busy_occupancy_bp: 10_001, // never block shrink in this test
            spec: BackendSpec::Software,
        };
        for _ in 0..16 {
            pool.try_submit(Mode::EcbEncrypt, sample(32 * 16)).unwrap();
        }
        // Depth is high: the tick must grow (possibly repeatedly).
        let grew = pool.autoscale_tick(&policy);
        assert!(matches!(grew, Some(ResizeAction::Grew(_))), "{grew:?}");
        pool.wait_idle();
        for _ in 0..16 {
            let _ = pool.try_collect();
        }
        // Idle: two consecutive ticks shrink back.
        assert_eq!(pool.autoscale_tick(&policy), None);
        assert!(matches!(
            pool.autoscale_tick(&policy),
            Some(ResizeAction::Shrank(_))
        ));
        assert_eq!(pool.workers(), 1);
        assert!(reg.snapshot().counter("engine.resize.grow") >= Some(1));
        assert_eq!(reg.snapshot().counter("engine.resize.shrink"), Some(1));
    }

    #[test]
    fn notifier_fires_once_per_completion() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software; 2], 8);
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        pool.set_notifier(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..5 {
            pool.try_submit(Mode::Ctr([0; 16]), sample(40)).unwrap();
        }
        assert_eq!(collect_n(&pool, 5).len(), 5);
        pool.wait_idle();
        assert_eq!(fired.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn shutdown_finishes_queued_work_and_refuses_new_jobs() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Ttable], 16);
        for _ in 0..6 {
            pool.try_submit(Mode::EcbEncrypt, sample(16 * 16)).unwrap();
        }
        pool.shutdown();
        assert_eq!(
            pool.try_submit(Mode::EcbEncrypt, sample(16)),
            Err(SubmitError::Busy { capacity: 16 })
        );
        assert_eq!(collect_n(&pool, 6).len(), 6);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<WorkerPool>();
        assert_both::<ResizePolicy>();
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn builder_panics_on_an_empty_farm() {
        let _ = PoolBuilder::new().build(&KEY);
    }
}
