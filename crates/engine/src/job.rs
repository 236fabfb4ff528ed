//! The one job model both schedulers share.
//!
//! The virtual-time [`Engine`](crate::Engine) and the thread
//! [`WorkerPool`](crate::WorkerPool) differ only in *how* a job's shards
//! reach the backends — drained on the caller's thread against per-core
//! cycle clocks, or dealt across worker deques. Everything else is
//! defined once here:
//!
//! * the job vocabulary: [`Mode`], [`JobId`], [`SubmitError`],
//!   [`JobError`] and [`JobOutput`];
//! * the builder configuration, [`FarmBuilder`] — farm slots (specs or
//!   pre-keyed backends), capacity and telemetry registry — which
//!   [`EngineBuilder`](crate::EngineBuilder) and
//!   [`PoolBuilder`](crate::PoolBuilder) name for their target;
//! * the admission gate: job ids, the bounded capacity behind
//!   [`SubmitError::Busy`], the ragged-length check, the
//!   `engine.submit.*` / `engine.jobs.*` counters and the
//!   `engine.queue.*` gauges;
//! * the granule shard planner that splits a parallel job into per-slot
//!   spans, and the span executor that runs one span of any mode on one
//!   backend;
//! * the per-core delta pusher for `engine.core.<i>.<name>.*` and
//!   `engine.core.occupancy_bp`.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use aes_ip::core::Direction;
use rijndael::modes::{Cbc, Cfb, Ctr, Iv, Ofb};
use rijndael::BlockCipher;
use telemetry::{Counter, Gauge, Histogram, Registry};

use crate::backend::{Backend, BackendError, BackendSpec};

/// AES block size in bytes.
pub(crate) const BLOCK: usize = 16;

/// Bucket bounds for the `engine.core.occupancy_bp` histogram: datapath
/// occupancy in basis points (10000 = fully saturated), deciles.
const OCCUPANCY_BOUNDS: [u64; 10] = [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000];

/// A complete cipher-mode operation over one byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ECB encryption (parallel; requires whole blocks).
    EcbEncrypt,
    /// ECB decryption (parallel; requires whole blocks).
    EcbDecrypt,
    /// CBC encryption (chained; requires whole blocks).
    CbcEncrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// CBC decryption (chained here; requires whole blocks).
    CbcDecrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// CTR keystream application — encryption and decryption are the same
    /// operation (parallel; any length).
    Ctr(
        /// Initial counter block (NIST SP 800-38A convention).
        [u8; 16],
    ),
    /// CFB encryption (chained; any length).
    CfbEncrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// CFB decryption (chained here; any length).
    CfbDecrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// OFB keystream application — self-inverse (chained; any length).
    Ofb(
        /// Initialisation vector.
        [u8; 16],
    ),
}

impl Mode {
    /// Which core datapath the mode exercises. Only CBC decryption and
    /// ECB decryption need the inverse cipher; CTR, CFB and OFB run the
    /// *forward* datapath in both directions, so they schedule onto
    /// encrypt-only cores.
    #[must_use]
    pub fn direction(self) -> Direction {
        match self {
            Mode::EcbDecrypt | Mode::CbcDecrypt(_) => Direction::Decrypt,
            _ => Direction::Encrypt,
        }
    }

    /// `true` when blocks are independent and the job can be sharded
    /// across several cores.
    #[must_use]
    pub fn is_parallel(self) -> bool {
        matches!(self, Mode::EcbEncrypt | Mode::EcbDecrypt | Mode::Ctr(_))
    }

    /// `true` when the buffer must be a whole number of blocks.
    #[must_use]
    pub fn requires_full_blocks(self) -> bool {
        matches!(
            self,
            Mode::EcbEncrypt | Mode::EcbDecrypt | Mode::CbcEncrypt(_) | Mode::CbcDecrypt(_)
        )
    }

    /// A chained mode as the object-safe [`rijndael::Mode`] it runs
    /// through, with its IV and whether it encrypts; `None` for the
    /// parallel modes (ECB, CTR), which run through batch paths instead.
    #[must_use]
    pub fn chained(self) -> Option<(&'static dyn rijndael::Mode, Iv, bool)> {
        let (mode, iv, encrypt): (&'static dyn rijndael::Mode, _, _) = match self {
            Mode::EcbEncrypt | Mode::EcbDecrypt | Mode::Ctr(_) => return None,
            Mode::CbcEncrypt(iv) => (&Cbc, iv, true),
            Mode::CbcDecrypt(iv) => (&Cbc, iv, false),
            Mode::CfbEncrypt(iv) => (&Cfb, iv, true),
            Mode::CfbDecrypt(iv) => (&Cfb, iv, false),
            Mode::Ofb(iv) => (&Ofb, iv, true),
        };
        Some((mode, Iv::from(iv), encrypt))
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mode::EcbEncrypt => "ecb-encrypt",
            Mode::EcbDecrypt => "ecb-decrypt",
            Mode::CbcEncrypt(_) => "cbc-encrypt",
            Mode::CbcDecrypt(_) => "cbc-decrypt",
            Mode::Ctr(_) => "ctr",
            Mode::CfbEncrypt(_) => "cfb-encrypt",
            Mode::CfbDecrypt(_) => "cfb-decrypt",
            Mode::Ofb(_) => "ofb",
        };
        f.write_str(s)
    }
}

/// Opaque handle identifying a submitted job in its [`JobOutput`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Rejection at the submission boundary (the job never enters the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — drain it (or collect) and retry.
    Busy {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The mode requires whole 16-byte blocks but the buffer is ragged.
    RaggedLength {
        /// The offending buffer length.
        len: usize,
    },
    /// The IV does not match the cipher's 16-byte block width. Engine
    /// [`Mode`] carries fixed-width IVs, so this arises only when lifting
    /// a [`rijndael::Error`] from the dynamic mode surface upstream.
    BadIv {
        /// The offending IV length.
        len: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy { capacity } => {
                write!(f, "engine queue full ({capacity} jobs); run() to drain")
            }
            SubmitError::RaggedLength { len } => {
                write!(f, "mode requires whole 16-byte blocks, got {len} bytes")
            }
            SubmitError::BadIv { len } => {
                write!(f, "IV must be 16 bytes, got {len}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Failure of one accepted job (other jobs in the batch still run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// No core in the farm has a datapath for the job's direction.
    NoCapableCore {
        /// The direction nobody supports.
        dir: Direction,
    },
    /// A backend faulted mid-job.
    Backend(BackendError),
    /// A pool worker panicked while executing the job; the panic was
    /// contained and the worker kept running, but the job's bytes are
    /// gone.
    WorkerPanicked,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::NoCapableCore { dir } => {
                let verb = match dir {
                    Direction::Encrypt => "encrypt",
                    Direction::Decrypt => "decrypt",
                };
                write!(f, "no core in the farm can {verb}")
            }
            JobError::Backend(e) => write!(f, "{e}"),
            JobError::WorkerPanicked => write!(f, "a pool worker panicked mid-job"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<BackendError> for JobError {
    fn from(e: BackendError) -> Self {
        JobError::Backend(e)
    }
}

/// One finished job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// The handle `try_submit` returned for this job.
    pub id: JobId,
    /// The processed buffer, or why the job failed.
    pub data: Result<Vec<u8>, JobError>,
}

/// One configured farm slot: a spec keyed when the farm starts, or a
/// backend the caller keyed already (an engine's only; a pool keys its
/// workers per job).
pub(crate) enum FarmSlot {
    Spec(BackendSpec),
    Keyed(Box<dyn Backend>),
}

impl FarmSlot {
    pub(crate) fn build(self, key: &[u8]) -> Box<dyn Backend> {
        match self {
            FarmSlot::Spec(spec) => spec.build(key),
            FarmSlot::Keyed(backend) => backend,
        }
    }
}

/// Configures a farm — its slots, queue capacity and telemetry
/// [`Registry`] — for either scheduler: [`EngineBuilder`] builds the
/// virtual-time [`Engine`], [`PoolBuilder`] the thread [`WorkerPool`].
///
/// [`Engine`]: crate::Engine
/// [`EngineBuilder`]: crate::EngineBuilder
/// [`PoolBuilder`]: crate::PoolBuilder
/// [`WorkerPool`]: crate::WorkerPool
///
/// # Examples
///
/// ```
/// use engine::{BackendSpec, EngineBuilder, Mode};
///
/// let reg = telemetry::Registry::new();
/// let mut engine = EngineBuilder::new()
///     .cores(&[BackendSpec::EncDecCore; 2])
///     .capacity(4)
///     .registry(reg.clone())
///     .build(&[0x2B; 16]);
/// engine.try_submit(Mode::EcbEncrypt, vec![0; 64]).unwrap();
/// engine.run();
/// assert_eq!(reg.snapshot().counter("engine.jobs.completed"), Some(1));
/// ```
pub struct FarmBuilder<T> {
    pub(crate) slots: Vec<FarmSlot>,
    capacity: Option<usize>,
    registry: Option<Registry>,
    target: PhantomData<fn() -> T>,
}

impl<T> Default for FarmBuilder<T> {
    fn default() -> Self {
        FarmBuilder {
            slots: Vec::new(),
            capacity: None,
            registry: None,
            target: PhantomData,
        }
    }
}

impl<T> FarmBuilder<T> {
    /// Starts an empty builder (no cores, default capacity 8, private
    /// registry).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one farm slot built from `spec`, keyed when the farm starts
    /// (IP cores pay their real key-setup cycles there).
    #[must_use]
    pub fn core(mut self, spec: BackendSpec) -> Self {
        self.slots.push(FarmSlot::Spec(spec));
        self
    }

    /// Adds one farm slot per spec, in order.
    #[must_use]
    pub fn cores(mut self, specs: &[BackendSpec]) -> Self {
        self.slots.extend(specs.iter().map(|&s| FarmSlot::Spec(s)));
        self
    }

    /// Sets the bounded capacity: queued jobs for an engine, open jobs
    /// for a pool (default 8).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Publishes the farm's instruments into `registry` instead of a
    /// fresh private one. Farms sharing a registry (and slot layout)
    /// share instruments; their delta-pushed counters aggregate.
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Validates the configuration and opens the admission gate — the
    /// half of `build` both schedulers share.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm or a zero-capacity queue: both would make
    /// every submission unroutable.
    pub(crate) fn finish(self) -> (Vec<FarmSlot>, Gate) {
        assert!(!self.slots.is_empty(), "a farm needs at least one backend");
        let capacity = self.capacity.unwrap_or(8);
        assert!(capacity > 0, "a zero-capacity queue rejects every job");
        (
            self.slots,
            Gate::new(self.registry.unwrap_or_default(), capacity),
        )
    }
}

impl<T> fmt::Debug for FarmBuilder<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FarmBuilder")
            .field("slots", &self.slots.len())
            .field("capacity", &self.capacity)
            .field("shared_registry", &self.registry.is_some())
            .finish()
    }
}

/// The admission gate: allocates job ids, enforces the bounded capacity
/// and the whole-blocks rule, and keeps the submit/completion counters
/// and queue gauges.
pub(crate) struct Gate {
    pub(crate) registry: Registry,
    pub(crate) capacity: usize,
    next_id: AtomicU64,
    accepted: Counter,
    busy: Counter,
    ragged: Counter,
    completed: Counter,
    failed: Counter,
    depth: Gauge,
}

impl Gate {
    fn new(registry: Registry, capacity: usize) -> Gate {
        registry.gauge("engine.queue.capacity").set(capacity as i64);
        Gate {
            capacity,
            next_id: AtomicU64::new(0),
            accepted: registry.counter("engine.submit.accepted"),
            busy: registry.counter("engine.submit.busy"),
            ragged: registry.counter("engine.submit.ragged"),
            completed: registry.counter("engine.jobs.completed"),
            failed: registry.counter("engine.jobs.failed"),
            depth: registry.gauge("engine.queue.depth"),
            registry,
        }
    }

    /// Admits a job of `len` bytes while `open` jobs hold capacity.
    /// A rejection burns no job id.
    pub(crate) fn admit(&self, open: usize, mode: Mode, len: usize) -> Result<JobId, SubmitError> {
        if open >= self.capacity {
            self.busy.incr();
            return Err(SubmitError::Busy {
                capacity: self.capacity,
            });
        }
        if mode.requires_full_blocks() && !len.is_multiple_of(BLOCK) {
            self.ragged.incr();
            return Err(SubmitError::RaggedLength { len });
        }
        self.accepted.incr();
        self.depth.add(1);
        Ok(JobId(self.next_id.fetch_add(1, Ordering::Relaxed)))
    }

    /// Retires one admitted job: frees its depth slot and counts how it
    /// ended.
    pub(crate) fn retire(&self, ok: bool) {
        self.depth.sub(1);
        if ok {
            self.completed.incr();
        } else {
            self.failed.incr();
        }
    }

    /// Returns `n` admitted jobs that will never run to the depth gauge.
    pub(crate) fn abandon(&self, n: usize) {
        self.depth.sub(n as i64);
    }
}

/// Evenly shards `n` items across `k` shares: the first `n % k` shares
/// get one extra item.
pub(crate) fn shares(n: usize, k: usize) -> Vec<usize> {
    let base = n / k;
    (0..k).map(|i| base + usize::from(i < n % k)).collect()
}

/// Shards `n` blocks across `k` shares in multiples of the bitsliced
/// 8-block granule: whole granules are distributed evenly, then the last
/// non-empty share gives back the padding so the total is exactly `n`.
/// Every share but possibly the last is a multiple of 8, which keeps the
/// bitsliced backend's passes full; only one core ever sees a ragged
/// (padded) granule.
pub(crate) fn shares_batched(n: usize, k: usize) -> Vec<usize> {
    const GRANULE: usize = 8;
    let mut out: Vec<usize> = shares(n.div_ceil(GRANULE), k)
        .into_iter()
        .map(|g| g * GRANULE)
        .collect();
    let mut excess = out.iter().sum::<usize>() - n;
    for share in out.iter_mut().rev() {
        if *share > 0 {
            *share -= excess;
            excess = 0;
            break;
        }
    }
    debug_assert_eq!(excess, 0);
    out
}

/// One shard of a parallel job.
pub(crate) struct Shard {
    /// Position in the eligible-slot list the plan was made for.
    pub(crate) pos: usize,
    /// The shard's first block: its SP 800-38A counter offset.
    pub(crate) first_block: u128,
    /// The shard's bytes within the job buffer.
    pub(crate) bytes: Range<usize>,
}

/// Plans a parallel job of `len` bytes across `k` eligible slots with
/// the [`shares_batched`] granule plan, skipping empty shares. Shards
/// are contiguous and in order; only the last may end in a partial
/// block (a ragged CTR tail).
pub(crate) fn plan_shards(len: usize, k: usize) -> Vec<Shard> {
    let mut first = 0;
    let mut plan = Vec::with_capacity(k);
    for (pos, share) in shares_batched(len.div_ceil(BLOCK), k)
        .into_iter()
        .enumerate()
    {
        if share > 0 {
            let bytes = first * BLOCK..len.min((first + share) * BLOCK);
            plan.push(Shard {
                pos,
                first_block: first as u128,
                bytes,
            });
            first += share;
        }
    }
    plan
}

/// Runs `mode` over one span on one backend, in place. ECB goes
/// through the backend's widest batch path; CTR generates the keystream
/// for the span's counter values (`first_block` is the span's offset
/// into the stream) into one scratch buffer; chained modes drive the
/// object-safe [`rijndael::Mode`] trait through a [`BackendCipher`]
/// adapter and always start at block 0.
pub(crate) fn run_span(
    backend: &mut dyn Backend,
    mode: Mode,
    first_block: u128,
    data: &mut [u8],
) -> Result<(), JobError> {
    let Some((chained, iv, encrypt)) = mode.chained() else {
        if let Mode::Ctr(nonce) = mode {
            let mut counters = vec![[0u8; 16]; data.len().div_ceil(BLOCK)];
            Ctr::fill_counter_blocks(&nonce, first_block, &mut counters);
            backend.process_batch(&mut counters, Direction::Encrypt)?;
            for (chunk, keystream) in data.chunks_mut(BLOCK).zip(counters.iter()) {
                for (byte, k) in chunk.iter_mut().zip(keystream) {
                    *byte ^= k;
                }
            }
        } else {
            let (blocks, rest) = data.as_chunks_mut::<BLOCK>();
            debug_assert!(rest.is_empty(), "length validated at submission");
            backend.process_batch(blocks, mode.direction())?;
        }
        return Ok(());
    };
    debug_assert_eq!(first_block, 0, "chained modes are never sharded");
    let adapter = BackendCipher::new(backend);
    let result = if encrypt {
        chained.encrypt_in_place(&adapter, &iv, data)
    } else {
        chained.decrypt_in_place(&adapter, &iv, data)
    };
    // A backend fault trumps the mode result: the mode layer saw stale
    // bytes after the latched fault, not an input problem.
    if let Some(e) = adapter.fault.get() {
        return Err(e.into());
    }
    result.expect("mode inputs validated at submission");
    Ok(())
}

/// Adapts one `&mut dyn Backend` to the shared-reference [`BlockCipher`]
/// trait the mode implementations expect. The modes never see errors, so
/// a backend fault is latched here: the first error is recorded, later
/// blocks are skipped, and the caller checks `fault` after the mode
/// pass.
struct BackendCipher<'a> {
    backend: RefCell<&'a mut dyn Backend>,
    fault: Cell<Option<BackendError>>,
}

impl<'a> BackendCipher<'a> {
    fn new(backend: &'a mut dyn Backend) -> Self {
        BackendCipher {
            backend: RefCell::new(backend),
            fault: Cell::new(None),
        }
    }

    fn process(&self, block: &mut [u8], dir: Direction) {
        if self.fault.get().is_some() {
            return;
        }
        let mut buf: [u8; 16] = block.try_into().expect("modes pass whole blocks");
        match self.backend.borrow_mut().process_block(&mut buf, dir) {
            Ok(()) => block.copy_from_slice(&buf),
            Err(e) => self.fault.set(Some(e)),
        }
    }
}

impl BlockCipher for BackendCipher<'_> {
    fn block_len(&self) -> usize {
        BLOCK
    }

    fn encrypt_in_place(&self, block: &mut [u8]) {
        self.process(block, Direction::Encrypt);
    }

    fn decrypt_in_place(&self, block: &mut [u8]) {
        self.process(block, Direction::Decrypt);
    }
}

/// Telemetry for one farm slot: the `engine.core.<i>.<name>.*` counters
/// plus the shared occupancy histogram, and the backend counter values
/// already pushed. The backends own the authoritative counters; their
/// growth is published as *deltas*, so farms sharing one registry (every
/// session of a service) sum coherently.
pub(crate) struct CoreTel {
    name: &'static str,
    blocks: Counter,
    cycles: Counter,
    setup_cycles: Counter,
    busy_cycles: Counter,
    occupancy: Histogram,
    pushed: Cell<[u64; 4]>,
}

impl CoreTel {
    pub(crate) fn register(registry: &Registry, index: usize, name: &'static str) -> CoreTel {
        let prefix = format!("engine.core.{index}.{name}");
        CoreTel {
            name,
            blocks: registry.counter(&format!("{prefix}.blocks")),
            cycles: registry.counter(&format!("{prefix}.cycles")),
            setup_cycles: registry.counter(&format!("{prefix}.setup_cycles")),
            busy_cycles: registry.counter(&format!("{prefix}.busy_cycles")),
            occupancy: registry.histogram("engine.core.occupancy_bp", &OCCUPANCY_BOUNDS),
            pushed: Cell::new([0; 4]),
        }
    }

    /// The backend name the counters are published under.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Forgets the pushed values, for a fresh backend whose own counters
    /// start at zero: its growth then adds onto the same instruments, so
    /// they stay monotone across backends.
    pub(crate) fn rebase(&self) {
        self.pushed.set([0; 4]);
    }

    /// Pushes `backend`'s counter growth since the last sync and samples
    /// its datapath occupancy over that growth. Returns the sample
    /// recorded, if the backend moved any operation cycles.
    pub(crate) fn sync(&self, backend: &dyn Backend) -> Option<u64> {
        let now = [
            backend.blocks(),
            backend.cycles(),
            backend.setup_cycles(),
            backend.busy_cycles(),
        ];
        let last = self.pushed.replace(now);
        let d: [u64; 4] = std::array::from_fn(|i| now[i].saturating_sub(last[i]));
        self.blocks.add(d[0]);
        self.cycles.add(d[1]);
        self.setup_cycles.add(d[2]);
        self.busy_cycles.add(d[3]);
        // Fully saturating: a racing snapshot can legitimately show a
        // setup-cycle delta larger than the total-cycle delta (a re-key
        // landing between the two reads), and an underflow here would
        // panic in debug or fabricate an absurd occupancy basis in
        // release.
        let bp = d[3]
            .saturating_mul(10_000)
            .checked_div(d[1].saturating_sub(d[2]))?;
        self.occupancy.record(bp);
        Some(bp)
    }
}
