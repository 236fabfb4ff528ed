//! True thread-parallel execution: a work-stealing, elastic worker pool
//! shared by any number of keyed lanes.
//!
//! The [`Engine`](crate::Engine) drives the paper's farm in *virtual
//! time* on the caller's thread. [`WorkerPool`] is the wall-clock
//! counterpart: each farm slot gets an owning OS worker thread with a
//! local deque, and finished jobs come back over a completion channel.
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
//! # Lanes: the key rides with the job
//!
//! The pool holds no key. Jobs arrive through a [`Lane`]: one client's
//! [`LaneKey`] (the shared software schedule plus the raw bytes, wiped
//! on drop), its own open-job count bounded by the pool's capacity, its
//! own completion queue and an optional [`Notifier`]. Every job carries
//! its lane, so one pool serves any number of keys — the paper's IP
//! loads a key through the same narrow bus as data (`wr_key`) and
//! builds its round keys on the fly, so one datapath serves any key. A
//! worker loads a key only when a job's lane differs from the one it
//! holds: [`BackendSpec::Auto`] slots run the lane's shared schedule
//! and expand none of their own, IP-core slots take the `wr_key` path,
//! and every switch counts in `engine.core.<i>.rekeys`. A worker drops
//! its key before it parks, so an idle pool holds no key material; one
//! with nothing queued drops it even before delivering its job. One
//! lane at its capacity gets `Busy` while the others keep submitting.
//!
//! [`PoolBuilder::build`] is a pool plus one lane under the given key,
//! and [`WorkerPool::try_submit`] submits through that lane;
//! [`PoolBuilder::build_shared`] is a pool with no lane of its own whose
//! clients open theirs with [`WorkerPool::open_lane`].
//!
//! The farm is *elastic* — the software analog of partial FPGA
//! reconfiguration: [`WorkerPool::add_core`] and
//! [`WorkerPool::remove_core`] grow and shrink the worker set while jobs
//! are in flight, and [`WorkerPool::swap_core`] hot-swaps one worker's
//! backend spec between tasks without draining the farm. A retired
//! slot's pinned streams re-pin to a surviving capable worker; its
//! parallel shards fall back to the injector, and injector work the
//! narrowed farm can no longer serve fails typed instead of stranding.
//! [`WorkerPool::autoscale_tick`] drives resizing from the pool's own
//! open-job count and the occupancy samples its own workers recorded
//! under a [`ResizePolicy`], and every decision is visible as
//! `engine.resize.*` counters and the `engine.workers` gauge, which
//! counts live worker threads.
//!
//! Worker threads spawn lazily on the first submission, so a pool that
//! never sees work costs no threads and no key loads.
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
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aes_ip::core::Direction;
use rijndael::dispatch::{AutoCipher, Kind};
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

/// A lane's completion callback, fired once per delivered job after the
/// output is in the lane's queue. The service points it at a shard's
/// wake pipe so `poll(2)` loops re-arm without polling the pool.
pub type Notifier = Arc<dyn Fn() + Send + Sync>;

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
    /// open (accepted, not yet delivered), over all its lanes. The
    /// registry-wide `engine.queue.depth` gauge is deliberately not
    /// consulted: another farm publishing into the same registry would
    /// over-grow this one.
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

/// One lane's key as the pool's workers load it: the dispatch-selected
/// software schedule, shared through an [`Arc`] with every other user of
/// the key (a service session's GCM, XTS, CMAC and key-wrap lanes), plus
/// the raw bytes that IP-core and other non-[`BackendSpec::Auto`] slots
/// key themselves from. The raw bytes are wiped on drop; the schedule
/// wipes itself when its last handle goes.
pub struct LaneKey {
    cipher: Arc<AutoCipher>,
    pub(crate) raw: Vec<u8>,
}

impl LaneKey {
    /// Expands the shared schedule from `key`. When the deployment is
    /// pinned to the batch-less `ip-core` the schedule is the T-table
    /// kind (GCM, XTS, CMAC and key wrap still need one), and `Auto`
    /// slots load the IP-core model from the raw bytes instead.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16, 24 or 32 bytes.
    #[must_use]
    pub fn new(key: &[u8]) -> LaneKey {
        let cipher = AutoCipher::new(key).unwrap_or_else(|| {
            AutoCipher::for_kind(Kind::Ttable, key).expect("the T-table kind is always available")
        });
        LaneKey {
            cipher: Arc::new(cipher),
            raw: key.to_vec(),
        }
    }

    /// The shared software schedule.
    #[must_use]
    pub fn cipher(&self) -> &Arc<AutoCipher> {
        &self.cipher
    }
}

impl Drop for LaneKey {
    fn drop(&mut self) {
        rijndael::zeroize::wipe_bytes(&mut self.raw);
    }
}

/// What every job of one lane carries: the key, the open-job count and
/// the completion sink.
struct LaneShared {
    /// Unique within the pool: what a worker compares to decide whether
    /// the key it holds is this lane's.
    id: u64,
    key: LaneKey,
    /// Jobs accepted and not yet delivered. Changed only under the pool
    /// state lock, which orders it, so `Relaxed` suffices; a read
    /// outside the lock is a statistic.
    open: AtomicUsize,
    tx: Sender<JobOutput>,
    notifier: Option<Notifier>,
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

/// Shared completion state of one job across its shards. Each shard's
/// task holds one handle; whoever drops the last one assembles and
/// delivers the output.
struct JobState {
    id: JobId,
    lane: Arc<LaneShared>,
    started: Instant,
    /// One slot per shard, reassembled in order at completion.
    parts: Mutex<Vec<Option<Vec<u8>>>>,
    /// First fault wins; the job reports it once every shard has landed.
    failed: Mutex<Option<JobError>>,
}

impl JobState {
    fn new(id: JobId, lane: &Arc<LaneShared>, parts: usize) -> Arc<JobState> {
        Arc::new(JobState {
            id,
            lane: Arc::clone(lane),
            started: Instant::now(),
            parts: Mutex::new(vec![None; parts]),
            failed: Mutex::new(None),
        })
    }
}

/// One farm slot's scheduler-visible state. The worker thread owns the
/// backend itself; the slot mirrors just what routing decisions need,
/// all of it decided by the slot's spec.
struct Slot {
    alive: bool,
    spec: BackendSpec,
    queue: VecDeque<Task>,
    /// A replacement spec the worker installs before its next task
    /// (hot-swap without draining the farm).
    swap: Option<BackendSpec>,
    busy: bool,
}

impl Slot {
    fn new(spec: BackendSpec) -> Slot {
        Slot {
            alive: true,
            spec,
            queue: VecDeque::new(),
            swap: None,
            busy: false,
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
    pending: Vec<BackendSpec>,
    /// Jobs accepted and not yet delivered, over every lane.
    open: usize,
    started: bool,
    shutdown: bool,
    handles: Vec<JoinHandle<()>>,
}

impl State {
    fn eligible(&self, dir: Direction) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].alive && self.slots[i].spec.supports(dir))
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
        let slots = &self.slots;
        take_unservable(&mut self.injector, |dir| {
            slots.iter().any(|s| s.alive && s.spec.supports(dir))
        })
    }
}

/// Removes and returns the tasks in `queue` whose direction `can` rules
/// out, keeping the rest in order.
fn take_unservable(queue: &mut VecDeque<Task>, can: impl Fn(Direction) -> bool) -> Vec<Task> {
    let (kept, gone): (VecDeque<Task>, VecDeque<Task>) =
        queue.drain(..).partition(|t| can(t.mode.direction()));
    *queue = kept;
    gone.into()
}

/// The scheduler core the owner, every lane and every worker thread
/// share.
struct Inner {
    state: Mutex<State>,
    /// Wakes workers when tasks arrive, a swap lands, or shutdown starts.
    work_cv: Condvar,
    /// Wakes idle waiters when a lane's open count returns to zero.
    idle_cv: Condvar,
    gate: Gate,
    /// `engine.workers`: live worker threads.
    workers: Gauge,
    next_lane: AtomicU64,
    job_us: Histogram,
    steals: Counter,
    /// `(count, sum)` of the occupancy samples this pool's workers
    /// recorded since the last autoscale tick. The registry histogram
    /// they also record into is shared by every farm on the registry, so
    /// it cannot tell this pool's load from a neighbor's.
    occupancy: Mutex<(u64, u64)>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pool state poisoned")
    }

    /// Final delivery: publish counters, push the output down the lane's
    /// channel, fire its notifier, and only then release the capacity
    /// slot — locks are never held across the callback. The lane handle
    /// drops under the state lock, so a waiter that sees the lane idle
    /// also sees no worker holding its key.
    fn deliver(&self, lane: Arc<LaneShared>, out: JobOutput, started: Instant) {
        self.gate.retire(out.data.is_ok());
        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.job_us.record(us);
        // A closed lane (its session re-keyed or hung up) discards the
        // output; the job still retires and frees its slot.
        let _ = lane.tx.send(out);
        if let Some(f) = &lane.notifier {
            f();
        }
        let mut st = self.lock();
        st.open -= 1;
        if lane.open.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.idle_cv.notify_all();
        }
        drop(lane);
    }

    /// Records one shard's result; the holder of the job's last handle
    /// assembles the job and delivers it. Call *without* holding the
    /// state lock.
    fn finish_part(&self, job: Arc<JobState>, part: usize, result: Result<Vec<u8>, JobError>) {
        match result {
            Ok(bytes) => job.parts.lock().expect("job parts poisoned")[part] = Some(bytes),
            Err(e) => {
                job.failed
                    .lock()
                    .expect("job fault slot poisoned")
                    .get_or_insert(e);
            }
        }
        let Some(job) = Arc::into_inner(job) else {
            return;
        };
        let data = match job.failed.into_inner().expect("job fault slot poisoned") {
            Some(e) => Err(e),
            None => {
                let parts = job.parts.into_inner().expect("job parts poisoned");
                Ok(parts.into_iter().flatten().collect::<Vec<_>>().concat())
            }
        };
        self.deliver(job.lane, JobOutput { id: job.id, data }, job.started);
    }

    /// Fails every task in `tasks` (used when a remove/swap leaves a
    /// direction with no capable worker). Call without the state lock.
    fn fail_tasks(&self, tasks: Vec<Task>) {
        for t in tasks {
            let dir = t.mode.direction();
            self.finish_part(t.job, t.part, Err(JobError::NoCapableCore { dir }));
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

/// Spawns the configured workers on the first submission.
fn ensure_started(inner: &Arc<Inner>, st: &mut State) {
    if !st.started {
        st.started = true;
        for spec in std::mem::take(&mut st.pending) {
            spawn_worker(inner, st, spec);
        }
    }
}

/// Registers a slot for `spec` and spawns its owning thread. Returns the
/// new slot index.
fn spawn_worker(inner: &Arc<Inner>, st: &mut State, spec: BackendSpec) -> usize {
    let index = st.slots.len();
    st.slots.push(Slot::new(spec));
    let shared = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("engine-worker-{index}"))
        .spawn(move || Worker::new(&shared, index, spec).run(&shared))
        .expect("spawn engine worker thread");
    st.handles.push(handle);
    inner.workers.add(1);
    index
}

/// Configures and builds a [`WorkerPool`]; see [`FarmBuilder`].
pub type PoolBuilder = FarmBuilder<WorkerPool>;

impl FarmBuilder<WorkerPool> {
    /// Assembles a pool with no lane of its own: clients open theirs
    /// with [`WorkerPool::open_lane`], each bounded by the configured
    /// capacity. No worker thread starts until the first submission.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm or a zero-capacity queue, like the
    /// engine's `build`.
    #[must_use]
    pub fn build_shared(self) -> WorkerPool {
        let (slots, gate) = self.finish();
        let pending = slots
            .into_iter()
            .map(|slot| match slot {
                FarmSlot::Spec(spec) => spec,
                FarmSlot::Keyed(_) => unreachable!("only an EngineBuilder takes keyed backends"),
            })
            .collect();
        let registry = gate.registry.clone();
        WorkerPool {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    slots: Vec::new(),
                    injector: VecDeque::new(),
                    pending,
                    open: 0,
                    started: false,
                    shutdown: false,
                    handles: Vec::new(),
                }),
                work_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                gate,
                workers: registry.gauge("engine.workers"),
                next_lane: AtomicU64::new(0),
                job_us: registry.histogram("engine.pool.job_us", &JOB_US_BOUNDS),
                steals: registry.counter("engine.pool.steals"),
                occupancy: Mutex::new((0, 0)),
            }),
            own: None,
            resize_grow: registry.counter("engine.resize.grow"),
            resize_shrink: registry.counter("engine.resize.shrink"),
            resize_swap: registry.counter("engine.resize.swap"),
            idle_streak: AtomicU32::new(0),
        }
    }

    /// Assembles a pool plus one lane keyed with `key`, which
    /// [`WorkerPool::try_submit`] and the collect calls use.
    ///
    /// # Panics
    ///
    /// As [`FarmBuilder::build_shared`], and if `key.len()` is not 16,
    /// 24 or 32 bytes.
    #[must_use]
    pub fn build(self, key: &[u8]) -> WorkerPool {
        let mut pool = self.build_shared();
        pool.own = Some(pool.open_lane(LaneKey::new(key), None));
        pool
    }
}

/// One keyed client of a [`WorkerPool`]: its key, its bounded open-job
/// count and its completion queue. Dropping a lane with jobs in flight
/// is safe: they finish under the lane's key and their outputs are
/// discarded. See the [module docs](self).
pub struct Lane {
    inner: Arc<Inner>,
    shared: Arc<LaneShared>,
    rx: Mutex<Receiver<JobOutput>>,
}

impl Lane {
    /// The lane's key.
    #[must_use]
    pub fn key(&self) -> &LaneKey {
        &self.shared.key
    }

    /// This lane's jobs accepted and not yet delivered.
    #[must_use]
    pub fn open_jobs(&self) -> usize {
        self.shared.open.load(Ordering::Relaxed)
    }

    /// Enqueues a mode operation over `data` under the lane's key,
    /// applying the lane's backpressure, and wakes a worker. The pool's
    /// first accepted submission spawns its worker threads.
    ///
    /// Parallel modes (ECB, CTR) are dealt across every eligible worker
    /// in 8-block granules; chained modes pin to the least-loaded capable
    /// worker. The completion surfaces from [`Lane::try_collect`] /
    /// [`Lane::collect_timeout`] in completion order.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Busy`] when the pool's capacity of this lane's
    ///   jobs are already open (or the pool is shutting down);
    /// * [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    ///   number of blocks.
    pub fn try_submit(&self, mode: Mode, data: Vec<u8>) -> Result<JobId, SubmitError> {
        let inner = &self.inner;
        let mut st = inner.lock();
        // A pool shutting down is full for good.
        let open = if st.shutdown {
            usize::MAX
        } else {
            self.open_jobs()
        };
        let id = inner.gate.admit(open, mode, data.len())?;
        ensure_started(inner, &mut st);
        // Take the capacity slot first — deliver() releases it.
        st.open += 1;
        self.shared.open.fetch_add(1, Ordering::Relaxed);
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
            let lane = Arc::clone(&self.shared);
            inner.deliver(lane, JobOutput { id, data }, Instant::now());
            return Ok(id);
        }
        if mode.is_parallel() && eligible.len() > 1 {
            deal_shards(&mut st, id, &self.shared, mode, data, &eligible);
        } else {
            let pinned = !mode.is_parallel();
            let task = Task {
                job: JobState::new(id, &self.shared, 1),
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
        inner.work_cv.notify_all();
        Ok(id)
    }

    /// A finished job, if one is ready — non-blocking, completion order.
    #[must_use]
    pub fn try_collect(&self) -> Option<JobOutput> {
        self.rx
            .lock()
            .expect("lane receiver poisoned")
            .try_recv()
            .ok()
    }

    /// A finished job, waiting up to `timeout` for one to complete.
    #[must_use]
    pub fn collect_timeout(&self, timeout: Duration) -> Option<JobOutput> {
        self.rx
            .lock()
            .expect("lane receiver poisoned")
            .recv_timeout(timeout)
            .ok()
    }

    /// Waits up to `timeout` for every job of this lane to be delivered
    /// (other lanes' work does not count). Returns `true` when the lane
    /// went idle, `false` on timeout — the graceful-shutdown bound for
    /// callers that must not hang on a wedged backend.
    #[must_use]
    pub fn wait_idle_timeout(&self, timeout: Duration) -> bool {
        let inner = &self.inner;
        let waited = inner
            .idle_cv
            .wait_timeout_while(inner.lock(), timeout, |_| self.open_jobs() > 0)
            .expect("pool state poisoned")
            .1;
        !waited.timed_out()
    }
}

/// The work-stealing elastic thread pool. See the [module docs](self).
pub struct WorkerPool {
    inner: Arc<Inner>,
    /// The lane [`PoolBuilder::build`] opens; `None` on a shared pool.
    own: Option<Lane>,
    resize_grow: Counter,
    resize_shrink: Counter,
    resize_swap: Counter,
    idle_streak: AtomicU32,
}

impl WorkerPool {
    /// Shorthand: a pool over `specs` with a private registry and one
    /// lane keyed with `key`.
    #[must_use]
    pub fn with_farm(key: &[u8], specs: &[BackendSpec], capacity: usize) -> WorkerPool {
        PoolBuilder::new()
            .cores(specs)
            .capacity(capacity)
            .build(key)
    }

    /// Opens a lane under `key`: its own open-job bound (the pool's
    /// capacity) and completion queue, and `notifier` fired once per
    /// delivered job.
    #[must_use]
    pub fn open_lane(&self, key: LaneKey, notifier: Option<Notifier>) -> Lane {
        let (tx, rx) = channel();
        Lane {
            inner: Arc::clone(&self.inner),
            shared: Arc::new(LaneShared {
                id: self.inner.next_lane.fetch_add(1, Ordering::Relaxed),
                key,
                open: AtomicUsize::new(0),
                tx,
                notifier,
            }),
            rx: Mutex::new(rx),
        }
    }

    fn own(&self) -> &Lane {
        self.own
            .as_ref()
            .expect("a shared pool takes jobs through the lanes opened on it")
    }

    /// The registry this pool publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.inner.gate.registry
    }

    /// The bounded open-job capacity of each lane (the `Busy` detail
    /// value).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.gate.capacity
    }

    /// Jobs accepted and not yet delivered, over every lane.
    #[must_use]
    pub fn open_jobs(&self) -> usize {
        self.inner.lock().open
    }

    /// Live workers (configured-but-unspawned count before the lazy
    /// start, alive slots after).
    #[must_use]
    pub fn workers(&self) -> usize {
        let st = self.inner.lock();
        if st.started {
            st.slots.iter().filter(|s| s.alive).count()
        } else {
            st.pending.len()
        }
    }

    /// Submits through the pool's own lane; see [`Lane::try_submit`].
    ///
    /// # Errors
    ///
    /// As [`Lane::try_submit`].
    ///
    /// # Panics
    ///
    /// Panics on a pool from [`PoolBuilder::build_shared`], which has no
    /// lane of its own.
    pub fn try_submit(&self, mode: Mode, data: Vec<u8>) -> Result<JobId, SubmitError> {
        self.own().try_submit(mode, data)
    }

    /// A finished job of the pool's own lane; see [`Lane::try_collect`].
    #[must_use]
    pub fn try_collect(&self) -> Option<JobOutput> {
        self.own().try_collect()
    }

    /// A finished job of the pool's own lane, waiting up to `timeout`;
    /// see [`Lane::collect_timeout`].
    #[must_use]
    pub fn collect_timeout(&self, timeout: Duration) -> Option<JobOutput> {
        self.own().collect_timeout(timeout)
    }

    /// Adds one worker built from `spec` to the live farm, returning its
    /// slot index. Counted as `engine.resize.grow`.
    pub fn add_core(&self, spec: BackendSpec) -> usize {
        let mut st = self.inner.lock();
        let index = if st.started {
            spawn_worker(&self.inner, &mut st, spec)
        } else {
            st.pending.push(spec);
            st.pending.len() - 1
        };
        drop(st);
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
        let mut st = self.inner.lock();
        if !st.started {
            if index < st.pending.len() {
                st.pending.remove(index);
                drop(st);
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
        self.inner.workers.sub(1);
        self.resize_shrink.incr();
        self.inner.work_cv.notify_all();
        true
    }

    /// Hot-swaps the worker at `index` to `spec` *without* draining the
    /// farm: the worker installs it before its next task; the task it is
    /// executing right now finishes on the old backend. Queued tasks the
    /// new spec cannot serve are re-routed first. Counted as
    /// `engine.resize.swap`. Returns `false` for an unknown or retired
    /// slot.
    pub fn swap_core(&self, index: usize, spec: BackendSpec) -> bool {
        let mut st = self.inner.lock();
        if !st.started {
            if index < st.pending.len() {
                st.pending[index] = spec;
                drop(st);
                self.resize_swap.incr();
                return true;
            }
            return false;
        }
        if index >= st.slots.len() || !st.slots[index].alive {
            return false;
        }
        let slot = &mut st.slots[index];
        (slot.spec, slot.swap) = (spec, Some(spec));
        // The slot's queue may hold directions the new spec lacks
        // (e.g. encdec -> encrypt-only): migrate them before the worker
        // blindly pops its own deque.
        let stale = take_unservable(&mut slot.queue, |dir| spec.supports(dir));
        let mut unroutable = reroute(&mut st, stale);
        unroutable.extend(st.drain_unservable_injector());
        drop(st);
        self.inner.fail_tasks(unroutable);
        self.resize_swap.incr();
        self.inner.work_cv.notify_all();
        true
    }

    /// One supervisor tick of the elastic control plane: reads this
    /// pool's own open-job count (over all its lanes) and the occupancy
    /// samples its own workers recorded since the last tick, and grows or
    /// shrinks the farm under `policy`. The registry-wide
    /// `engine.queue.depth` gauge and `engine.core.occupancy_bp`
    /// histogram are deliberately not consulted: every farm on a shared
    /// registry writes into them, so a busy neighbor would grow this pool
    /// or keep it from shrinking. Growth requires this pool's own queue
    /// pressure; shrinking requires [`ResizePolicy::shrink_after_ticks`]
    /// consecutive idle ticks with the cores below the saturation bar.
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
                    let st = self.inner.lock();
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

    /// Blocks until no jobs are open on any lane.
    pub fn wait_idle(&self) {
        let inner = &self.inner;
        drop(inner.idle_cv.wait_while(inner.lock(), |st| st.open > 0));
    }

    /// Graceful shutdown: refuses new submissions, lets the workers
    /// finish everything they can serve, fails anything left over
    /// (typed, so no job is silently lost), and joins the threads.
    /// Already-delivered outputs stay collectable. Idempotent.
    pub fn shutdown(&self) {
        let handles = {
            let mut st = self.inner.lock();
            st.shutdown = true;
            std::mem::take(&mut st.handles)
        };
        self.inner.work_cv.notify_all();
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
            let mut st = self.inner.lock();
            let live = st.slots.iter().filter(|s| s.alive).count();
            let mut leftovers: Vec<Task> = st.injector.drain(..).collect();
            for s in st.slots.iter_mut() {
                leftovers.extend(s.queue.drain(..));
                s.alive = false;
            }
            st.pending.clear();
            (live, leftovers)
        };
        self.inner.workers.sub(live as i64);
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

/// Where worker `me`'s next runnable task sits, as `(deque, index)`
/// with `None` naming the injector: its own deque front, then the first
/// capable injector task, then the back-most unpinned, capable task of
/// the longest sibling deque (a steal).
fn locate(st: &State, me: usize) -> Option<(Option<usize>, usize)> {
    if !st.slots[me].queue.is_empty() {
        return Some((Some(me), 0));
    }
    let can = |t: &Task| st.slots[me].spec.supports(t.mode.direction());
    if let Some(pos) = st.injector.iter().position(can) {
        return Some((None, pos));
    }
    let mut victims: Vec<usize> = (0..st.slots.len())
        .filter(|&i| i != me && st.slots[i].alive && !st.slots[i].queue.is_empty())
        .collect();
    victims.sort_by_key(|&i| std::cmp::Reverse(st.slots[i].queue.len()));
    victims.into_iter().find_map(|v| {
        let pos = st.slots[v]
            .queue
            .iter()
            .rposition(|t| !t.pinned && can(t))?;
        Some((Some(v), pos))
    })
}

/// Takes worker `me`'s next runnable task (see [`locate`]) and whether
/// it was stolen.
fn find_task(st: &mut State, me: usize) -> Option<(Task, bool)> {
    let (deque, pos) = locate(st, me)?;
    let task = match deque {
        Some(v) => st.slots[v].queue.remove(pos),
        None => st.injector.remove(pos),
    };
    task.map(|t| (t, deque.is_some_and(|v| v != me)))
}

/// What the worker loop decided to do next (chosen under the state lock,
/// acted on outside it).
enum Action {
    Run(Task),
    /// Nothing to run: drop the held key before parking.
    Release,
    Install(BackendSpec),
    Exit,
}

/// One worker thread's own state: its slot's spec and the backend keyed
/// for the lane it served last.
struct Worker {
    me: usize,
    spec: BackendSpec,
    /// The lane whose key `backend` holds, and the backend.
    loaded: Option<(u64, Box<dyn Backend>)>,
    /// Counters of the backend name in use; a load that keeps the name
    /// keeps them.
    tel: CoreTel,
    /// The lane whose key was loaded last. Kept after a release (it is an
    /// id, not key material) so reloading the same key is no switch.
    last_lane: Option<u64>,
    /// `engine.core.<me>.rekeys`: loads of a key other than the last.
    rekeys: Counter,
}

impl Worker {
    fn new(inner: &Inner, me: usize, spec: BackendSpec) -> Worker {
        let registry = &inner.gate.registry;
        Worker {
            me,
            spec,
            loaded: None,
            tel: CoreTel::register(registry, me, spec.name()),
            last_lane: None,
            rekeys: registry.counter(&format!("engine.core.{me}.rekeys")),
        }
    }

    /// Makes the backend hold `lane`'s key, building it from the slot's
    /// spec (the `wr_key` path on an IP core) unless it already does.
    fn load(&mut self, inner: &Inner, lane: &LaneShared) -> &mut dyn Backend {
        if self.loaded.as_ref().is_none_or(|(id, _)| *id != lane.id) {
            self.release(inner);
            if self.last_lane.is_some_and(|id| id != lane.id) {
                self.rekeys.incr();
            }
            self.last_lane = Some(lane.id);
            let backend = self.spec.load(&lane.key);
            self.publish_as(inner, backend.name());
            self.loaded = Some((lane.id, backend));
        }
        self.loaded.as_mut().expect("just loaded").1.as_mut()
    }

    /// Publishes the counters under `name` from now on.
    fn publish_as(&mut self, inner: &Inner, name: &'static str) {
        if self.tel.name() != name {
            self.tel = CoreTel::register(&inner.gate.registry, self.me, name);
        }
    }

    /// Pushes the held backend's final deltas and drops it, and with it
    /// the key (IP cores zero-reload their key register on drop).
    fn release(&mut self, inner: &Inner) {
        if let Some((_, backend)) = self.loaded.take() {
            inner.sync_core(&self.tel, backend.as_ref());
            self.tel.rebase();
        }
    }

    fn run(mut self, inner: &Inner) {
        loop {
            let action = {
                let mut st = inner.lock();
                loop {
                    if let Some(next) = st.slots[self.me].swap.take() {
                        break Action::Install(next);
                    }
                    if !st.slots[self.me].alive {
                        break Action::Exit;
                    }
                    if let Some((task, stolen)) = find_task(&mut st, self.me) {
                        st.slots[self.me].busy = true;
                        if stolen {
                            inner.steals.incr();
                        }
                        break Action::Run(task);
                    }
                    if st.shutdown {
                        break Action::Exit;
                    }
                    if self.loaded.is_some() {
                        break Action::Release;
                    }
                    st = inner.work_cv.wait(st).expect("pool state poisoned");
                }
            };
            match action {
                Action::Run(task) => self.execute(inner, task),
                Action::Release => self.release(inner),
                Action::Install(next) => {
                    self.release(inner);
                    self.spec = next;
                    self.publish_as(inner, next.name());
                }
                Action::Exit => {
                    self.release(inner);
                    return;
                }
            }
        }
    }

    fn execute(&mut self, inner: &Inner, task: Task) {
        let Task {
            job,
            part,
            mode,
            first_block,
            mut data,
            ..
        } = task;
        // Contain backend panics, a key load's included: an unwind
        // through the run loop would strand the held job (wait_idle
        // hangs) and poison the state mutex for every other thread. The
        // panic becomes a typed fault and the worker carries on.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_span(self.load(inner, &job.lane), mode, first_block, &mut data)
        }))
        .unwrap_or(Err(JobError::WorkerPanicked));
        let idle = {
            let mut st = inner.lock();
            st.slots[self.me].busy = false;
            st.slots[self.me].queue.is_empty() && st.injector.is_empty()
        };
        // A worker with nothing queued for it drops the key before the
        // job is delivered (any other drops it before parking), so a lane
        // whose jobs each ran as one shard per worker is seen idle only
        // once no worker holds its key.
        if idle {
            self.release(inner);
        } else if let Some((_, backend)) = &self.loaded {
            inner.sync_core(&self.tel, backend.as_ref());
        }
        inner.finish_part(job, part, result.map(|()| data));
    }
}

/// Deals a parallel job's granule shards across the eligible workers'
/// deques. Idle workers rebalance by stealing from the back.
fn deal_shards(
    st: &mut State,
    id: JobId,
    lane: &Arc<LaneShared>,
    mode: Mode,
    mut data: Vec<u8>,
    eligible: &[usize],
) {
    let shards = plan_shards(data.len(), eligible.len());
    let job = JobState::new(id, lane, shards.len());
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
    use std::sync::atomic::AtomicUsize;

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
        // Two pools share one registry. A's backlog drives the shared
        // engine.queue.depth gauge high; B, nearly idle, must not grow
        // on its neighbor's pressure.
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
        // Two pools share one registry. The busy one runs a job every
        // tick, so the shared occupancy histogram keeps filling with
        // saturated samples; the idle one must judge only its own
        // workers' samples and shrink anyway.
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
        let pool = PoolBuilder::new()
            .cores(&[BackendSpec::Software; 2])
            .build_shared();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let lane = pool.open_lane(
            LaneKey::new(&KEY),
            Some(Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })),
        );
        for _ in 0..5 {
            lane.try_submit(Mode::Ctr([0; 16]), sample(40)).unwrap();
        }
        for _ in 0..5 {
            assert!(lane.collect_timeout(WAIT).unwrap().data.is_ok());
        }
        pool.wait_idle();
        assert_eq!(fired.load(Ordering::SeqCst), 5);
    }

    /// The expected output of `mode` over `data` under `key`.
    fn reference(key: &[u8], mode: Mode, data: &[u8]) -> Vec<u8> {
        let cipher = rijndael::Rijndael::<4>::new(key).unwrap();
        let mut out = data.to_vec();
        match mode {
            Mode::EcbEncrypt => Ecb::encrypt(&cipher, &mut out).unwrap(),
            Mode::Ctr(nonce) => Ctr::apply(&cipher, &nonce, &mut out),
            Mode::CbcDecrypt(iv) => Cbc::decrypt(&cipher, &iv, &mut out).unwrap(),
            _ => unreachable!("the interleave uses three modes"),
        }
        out
    }

    #[test]
    fn interleaved_lanes_under_different_keys_match_the_reference() {
        let keys: [Vec<u8>; 3] = [KEY.to_vec(), vec![0x5A; 16], (0..32u8).collect()];
        let modes = [
            Mode::EcbEncrypt,
            Mode::Ctr([7; 16]),
            Mode::CbcDecrypt([9; 16]),
        ];
        for spec in [BackendSpec::EncDecCore, BackendSpec::Auto] {
            for workers in [1usize, 3] {
                let reg = Registry::new();
                let pool = PoolBuilder::new()
                    .cores(&vec![spec; workers])
                    .capacity(16)
                    .registry(reg.clone())
                    .build_shared();
                let lanes: Vec<Lane> = keys
                    .iter()
                    .map(|k| pool.open_lane(LaneKey::new(k), None))
                    .collect();
                // A lone worker serves parallel jobs in submission order
                // (a pinned stream would jump its own deque ahead).
                let modes = if workers == 1 {
                    &modes[..2]
                } else {
                    &modes[..]
                };
                let mut expected = Vec::new();
                for round in 0..4 {
                    for (l, lane) in lanes.iter().enumerate() {
                        let mode = modes[(round + l) % modes.len()];
                        let data = sample(16 * (9 + round + l));
                        let id = lane.try_submit(mode, data.clone()).unwrap();
                        expected.push((l, id, reference(&keys[l], mode, &data)));
                    }
                }
                let mut got = BTreeMap::new();
                for &(l, _, _) in &expected {
                    let out = lanes[l].collect_timeout(WAIT).expect("job completes");
                    got.insert((l, out.id), out.data);
                }
                for (l, id, want) in expected {
                    assert_eq!(got[&(l, id)], Ok(want), "{spec} x{workers} lane {l}");
                }
                pool.wait_idle();
                let rekeys = reg.snapshot().counter("engine.core.0.rekeys");
                if workers == 1 {
                    // Twelve jobs in submission order: a key switch on
                    // every job after the first.
                    assert_eq!(rekeys, Some(11), "{spec}");
                } else {
                    assert!(rekeys >= Some(1), "{spec}: {rekeys:?}");
                }
            }
        }
    }

    #[test]
    fn a_single_key_run_never_rekeys() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .cores(&[BackendSpec::EncDecCore; 2])
            .registry(reg.clone())
            .build(&KEY);
        for _ in 0..4 {
            pool.try_submit(Mode::EcbEncrypt, sample(32 * 16)).unwrap();
            assert!(pool.collect_timeout(WAIT).unwrap().data.is_ok());
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.core.0.rekeys"), Some(0));
        assert_eq!(snap.counter("engine.core.1.rekeys"), Some(0));
    }

    #[test]
    fn each_lane_has_its_own_capacity() {
        // Paced cores keep the first lane's two jobs open while the
        // second lane submits.
        let pool = PoolBuilder::new()
            .core(BackendSpec::Paced {
                block_ns: 1_000_000,
            })
            .capacity(2)
            .build_shared();
        let a = pool.open_lane(LaneKey::new(&KEY), None);
        let b = pool.open_lane(LaneKey::new(&[1; 16]), None);
        a.try_submit(Mode::EcbEncrypt, sample(64)).unwrap();
        a.try_submit(Mode::EcbEncrypt, sample(64)).unwrap();
        assert_eq!(
            a.try_submit(Mode::EcbEncrypt, sample(64)),
            Err(SubmitError::Busy { capacity: 2 })
        );
        assert!(b.try_submit(Mode::EcbEncrypt, sample(64)).is_ok());
        assert_eq!(pool.open_jobs(), 3);
        assert!(b.wait_idle_timeout(WAIT));
        assert_eq!(b.open_jobs(), 0);
        pool.wait_idle();
    }

    #[test]
    fn a_dropped_lane_still_retires_its_jobs() {
        let pool = PoolBuilder::new()
            .core(BackendSpec::Paced { block_ns: 100_000 })
            .build_shared();
        let lane = pool.open_lane(LaneKey::new(&KEY), None);
        for _ in 0..3 {
            lane.try_submit(Mode::Ctr([0; 16]), sample(8 * 16)).unwrap();
        }
        drop(lane);
        pool.wait_idle();
        assert_eq!(pool.open_jobs(), 0);
        let next = pool.open_lane(LaneKey::new(&[2; 16]), None);
        assert!(next.try_collect().is_none(), "nothing leaks across lanes");
    }

    #[test]
    fn workers_gauge_counts_live_threads() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .cores(&[BackendSpec::Software; 3])
            .registry(reg.clone())
            .build(&KEY);
        assert_eq!(reg.snapshot().gauge("engine.workers"), Some(0));
        assert_eq!(pool.workers(), 3, "configured, not yet spawned");
        pool.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        assert_eq!(reg.snapshot().gauge("engine.workers"), Some(3));
        assert!(pool.remove_core(2));
        assert_eq!(reg.snapshot().gauge("engine.workers"), Some(2));
        pool.shutdown();
        assert_eq!(reg.snapshot().gauge("engine.workers"), Some(0));
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
