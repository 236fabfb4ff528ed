//! The virtual-time farm: the paper's multi-core deployment, clocked in
//! modeled cycles.
//!
//! The paper sells the IP on *area*, not speed: one core occupies ~10% of
//! an EP20K300E, so a system integrator can stamp down several and scale
//! throughput linearly. The [`Engine`] models that deployment as a
//! deterministic executor on the caller's thread: jobs are whole mode
//! operations (ECB/CBC/CTR/CFB/OFB over a byte buffer) and
//! [`Engine::run`] drains them in submission order. Parallel modes are
//! split by the shared granule shard planner across every capable core
//! (each core pipelines its share through the decoupled bus at one block
//! per latency period); chained modes — where block `i+1` depends on
//! block `i` — go to the capable core whose cycle clock is furthest
//! behind. The backends own the cycle counters, so a farm's wall time is
//! the maximum over them and each job's is recorded in the
//! `engine.job.latency_cycles` histogram.
//!
//! Everything else — the [`EngineBuilder`] configuration, the bounded
//! admission gate behind [`SubmitError::Busy`], the shard planner, the
//! span executor and the per-core telemetry pusher — is the one job
//! model in [`job`](crate::job) that the thread
//! [`WorkerPool`](crate::WorkerPool) runs on too. Per-core counters live
//! under `engine.core.<index>.<backend>.<field>`;
//! [`FarmStats::from_snapshot`] turns any snapshot back into Table-2
//! figures.

use std::collections::VecDeque;
use std::fmt;

use telemetry::{Histogram, Registry, Snapshot};

use crate::backend::{Backend, BackendSpec};
use crate::job::{
    plan_shards, run_span, CoreTel, FarmBuilder, FarmSlot, Gate, JobError, JobId, JobOutput, Mode,
    SubmitError,
};
use crate::stats::FarmStats;

/// Bucket bounds for the `engine.job.latency_cycles` histogram:
/// geometric steps from about one block period up past 2500 blocks.
const LATENCY_BOUNDS: [u64; 12] = [
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
];

/// Configures and builds an [`Engine`]; see [`FarmBuilder`].
pub type EngineBuilder = FarmBuilder<Engine>;

impl FarmBuilder<Engine> {
    /// Adds an already-keyed backend as the next farm slot.
    #[must_use]
    pub fn backend(mut self, worker: Box<dyn Backend>) -> Self {
        self.slots.push(FarmSlot::Keyed(worker));
        self
    }

    /// Keys every spec-built slot with `key` and assembles the engine.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm or a zero-capacity queue — both would make
    /// every submission unroutable — and if `key.len()` is not 16, 24 or
    /// 32 bytes.
    #[must_use]
    pub fn build(self, key: &[u8]) -> Engine {
        let (slots, gate) = self.finish();
        let workers: Vec<Box<dyn Backend>> = slots.into_iter().map(|s| s.build(key)).collect();
        let tel = workers
            .iter()
            .enumerate()
            .map(|(i, w)| CoreTel::register(&gate.registry, i, w.name()))
            .collect();
        Engine {
            job_latency: gate
                .registry
                .histogram("engine.job.latency_cycles", &LATENCY_BOUNDS),
            workers,
            tel,
            queue: VecDeque::new(),
            gate,
        }
    }
}

/// Multi-core virtual-time engine: a farm of backends, a bounded job
/// queue, and the shard/route scheduler.
///
/// # Examples
///
/// ```
/// use engine::{BackendSpec, Engine, Mode};
///
/// let key = [0x2B; 16];
/// let mut engine = Engine::with_farm(&key, &[BackendSpec::EncDecCore; 2], 8);
/// let id = engine.try_submit(Mode::Ctr([0; 16]), b"attack at dawn".to_vec()).unwrap();
/// let out = engine.run();
/// assert_eq!(out[0].id, id);
/// let ciphertext = out[0].data.clone().unwrap();
///
/// // CTR is self-inverse: a second pass recovers the plaintext.
/// engine.try_submit(Mode::Ctr([0; 16]), ciphertext).unwrap();
/// assert_eq!(engine.run()[0].data.clone().unwrap(), b"attack at dawn");
/// ```
pub struct Engine {
    workers: Vec<Box<dyn Backend>>,
    tel: Vec<CoreTel>,
    queue: VecDeque<(JobId, Mode, Vec<u8>)>,
    gate: Gate,
    job_latency: Histogram,
}

impl Engine {
    /// Builds a farm from `specs` with a private registry, loading `key`
    /// into every member (IP cores pay their real key-setup cycles here;
    /// 24/32-byte keys divert IP-core specs to the software fallback).
    /// Shorthand for the common [`EngineBuilder`] case.
    #[must_use]
    pub fn with_farm(key: &[u8], specs: &[BackendSpec], capacity: usize) -> Self {
        EngineBuilder::new()
            .cores(specs)
            .capacity(capacity)
            .build(key)
    }

    /// Number of farm slots.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.workers.len()
    }

    /// Jobs waiting in the queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The queue bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.gate.capacity
    }

    /// The registry this engine publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.gate.registry
    }

    /// Enqueues a mode operation over `data`, applying backpressure.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Busy`] when the queue is at capacity;
    /// * [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    ///   number of blocks (caught here, before the job holds a slot).
    pub fn try_submit(&mut self, mode: Mode, data: Vec<u8>) -> Result<JobId, SubmitError> {
        let id = self.gate.admit(self.queue.len(), mode, data.len())?;
        self.queue.push_back((id, mode, data));
        Ok(id)
    }

    /// Drains the queue in submission order, returning one output per
    /// job. A job that faults reports its [`JobError`]; the rest of the
    /// batch still runs.
    pub fn run(&mut self) -> Vec<JobOutput> {
        // An empty queue means nothing moved since the last sync: skip
        // the per-core delta bookkeeping entirely.
        if self.queue.is_empty() {
            return Vec::new();
        }
        let mut outputs = Vec::with_capacity(self.queue.len());
        let mut before = vec![0u64; self.workers.len()];
        while let Some((id, mode, mut data)) = self.queue.pop_front() {
            for (b, w) in before.iter_mut().zip(&self.workers) {
                *b = w.cycles();
            }
            let result = self.dispatch(mode, &mut data);
            // Submit-to-complete latency in virtual time: the cores clock
            // concurrently, so the job takes as long as its slowest share.
            let latency = self
                .workers
                .iter()
                .zip(&before)
                .map(|(w, b)| w.cycles().saturating_sub(*b))
                .max()
                .unwrap_or(0);
            self.job_latency.record(latency);
            self.gate.retire(result.is_ok());
            outputs.push(JobOutput {
                id,
                data: result.map(|()| data),
            });
        }
        self.sync_telemetry();
        outputs
    }

    /// Pushes each backend's counter growth since the last sync into the
    /// registry, and samples per-core occupancy over that growth.
    fn sync_telemetry(&self) {
        for (w, t) in self.workers.iter().zip(&self.tel) {
            t.sync(w.as_ref());
        }
    }

    /// Captures the registry after syncing this engine's core counters.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.sync_telemetry();
        self.gate.registry.snapshot()
    }

    /// Table-2-style farm figures derived from [`Engine::snapshot`].
    #[must_use]
    pub fn stats(&self) -> FarmStats {
        FarmStats::from_snapshot(&self.snapshot())
    }

    /// Runs one job: parallel modes shard across every capable core in
    /// the granule plan; a chained stream runs whole on the capable core
    /// with the least cycles on its clock.
    fn dispatch(&mut self, mode: Mode, data: &mut [u8]) -> Result<(), JobError> {
        let dir = mode.direction();
        let eligible: Vec<usize> = (0..self.workers.len())
            .filter(|&i| self.workers[i].supports(dir))
            .collect();
        if eligible.is_empty() {
            return Err(JobError::NoCapableCore { dir });
        }
        if !mode.is_parallel() {
            let w = *eligible
                .iter()
                .min_by_key(|&&i| self.workers[i].cycles())
                .expect("eligible is non-empty");
            return run_span(self.workers[w].as_mut(), mode, 0, data);
        }
        for shard in plan_shards(data.len(), eligible.len()) {
            let backend = self.workers[eligible[shard.pos]].as_mut();
            run_span(backend, mode, shard.first_block, &mut data[shard.bytes])?;
        }
        Ok(())
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("cores", &self.cores())
            .field("queued", &self.queue.len())
            .field("capacity", &self.gate.capacity)
            .finish()
    }
}

impl Drop for Engine {
    /// Returns queued-but-never-run jobs to the depth gauge and pushes
    /// the final counter deltas, so a shared registry stays coherent
    /// after engines come and go.
    fn drop(&mut self) {
        self.gate.abandon(self.queue.len());
        self.sync_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendError;
    use crate::job::{shares, shares_batched};
    use aes_ip::core::{Direction, LATENCY_CYCLES};
    use rijndael::modes::{Cbc, Cfb, Ctr, Ecb, Ofb};
    use rijndael::Aes128;

    const KEY: [u8; 16] = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F,
        0x3C,
    ];

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn shares_split_evenly() {
        assert_eq!(shares(10, 3), vec![4, 3, 3]);
        assert_eq!(shares(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(shares(0, 2), vec![0, 0]);
        assert_eq!(shares(8, 1), vec![8]);
    }

    #[test]
    fn shares_batched_deals_whole_granules_and_trims_the_tail() {
        // Whole granules spread evenly, exact total preserved.
        assert_eq!(shares_batched(24, 3), vec![8, 8, 8]);
        assert_eq!(shares_batched(64, 3), vec![24, 24, 16]);
        // Padding comes back out of the last non-empty share.
        assert_eq!(shares_batched(7, 3), vec![7, 0, 0]);
        assert_eq!(shares_batched(11, 4), vec![8, 3, 0, 0]);
        assert_eq!(shares_batched(65, 2), vec![40, 25]);
        assert_eq!(shares_batched(0, 2), vec![0, 0]);
        // Every share except the trimmed one is a granule multiple.
        for (n, k) in [(123, 5), (8, 4), (100, 3)] {
            let shares = shares_batched(n, k);
            assert_eq!(shares.iter().sum::<usize>(), n, "shares_batched({n},{k})");
            let ragged = shares.iter().filter(|s| *s % 8 != 0).count();
            assert!(ragged <= 1, "shares_batched({n},{k}) = {shares:?}");
        }
    }

    #[test]
    fn ecb_sharded_across_cores_matches_reference() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncryptCore; 3], 4);
        let data = sample(24 * 16);
        let id = engine.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
        let out = engine.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, id);

        let mut expected = data;
        Ecb::encrypt(&Aes128::new(&KEY), &mut expected).unwrap();
        assert_eq!(out[0].data.as_ref().unwrap(), &expected);

        // All three cores took part: one full 8-block granule each.
        let s = engine.stats();
        let blocks: Vec<u64> = s.per_core.iter().map(|c| c.blocks).collect();
        assert_eq!(blocks, vec![8, 8, 8]);
    }

    #[test]
    fn ctr_sharded_across_cores_matches_reference_including_partial_tail() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 4], 4);
        let nonce = [0xF0u8; 16];
        let data = sample(10 * 16 + 5);
        engine.try_submit(Mode::Ctr(nonce), data.clone()).unwrap();
        let out = engine.run();

        let mut expected = data;
        Ctr::apply(&Aes128::new(&KEY), &nonce, &mut expected);
        assert_eq!(out[0].data.as_ref().unwrap(), &expected);
    }

    #[test]
    fn chained_modes_run_on_one_core_and_match_reference() {
        let reference = Aes128::new(&KEY);
        let iv = [0x11u8; 16];
        for (mode, apply) in [
            (
                Mode::CbcEncrypt(iv),
                Box::new(|d: &mut [u8]| Cbc::encrypt(&reference, &iv, d).unwrap())
                    as Box<dyn Fn(&mut [u8])>,
            ),
            (
                Mode::CbcDecrypt(iv),
                Box::new(|d: &mut [u8]| Cbc::decrypt(&reference, &iv, d).unwrap()),
            ),
            (
                Mode::CfbEncrypt(iv),
                Box::new(|d: &mut [u8]| Cfb::encrypt(&reference, &iv, d)),
            ),
            (
                Mode::CfbDecrypt(iv),
                Box::new(|d: &mut [u8]| Cfb::decrypt(&reference, &iv, d)),
            ),
            (
                Mode::Ofb(iv),
                Box::new(|d: &mut [u8]| Ofb::apply(&reference, &iv, d)),
            ),
        ] {
            let len = if mode.requires_full_blocks() {
                5 * 16
            } else {
                77
            };
            let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 3], 2);
            let data = sample(len);
            engine.try_submit(mode, data.clone()).unwrap();
            let out = engine.run();

            let mut expected = data;
            apply(&mut expected);
            assert_eq!(out[0].data.as_ref().unwrap(), &expected, "{mode}");

            // Exactly one core did all the work.
            let active = engine
                .stats()
                .per_core
                .iter()
                .filter(|c| c.blocks > 0)
                .count();
            assert_eq!(active, 1, "{mode} must stay on a single core");
        }
    }

    #[test]
    fn backpressure_rejects_submissions_past_capacity() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 2);
        engine.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        engine.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
        let err = engine
            .try_submit(Mode::Ctr([0; 16]), sample(5))
            .unwrap_err();
        assert_eq!(err, SubmitError::Busy { capacity: 2 });

        // Draining frees the queue.
        assert_eq!(engine.run().len(), 2);
        assert!(engine.try_submit(Mode::Ctr([0; 16]), sample(5)).is_ok());
    }

    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
        assert_send::<JobOutput>();
        assert_send::<SubmitError>();
    }

    #[test]
    fn backpressure_with_mixed_modes_drains_and_resubmits_in_order() {
        // Queue-full / drain / resubmit across a mix of parallel (ECB,
        // CTR) and chained (CBC, OFB) jobs: the submission boundary must
        // not care which scheduler path a queued job will take.
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 2], 3);
        let a = engine.try_submit(Mode::EcbEncrypt, sample(4 * 16)).unwrap();
        let b = engine
            .try_submit(Mode::CbcEncrypt([1; 16]), sample(2 * 16))
            .unwrap();
        let c = engine.try_submit(Mode::Ctr([2; 16]), sample(33)).unwrap();

        // Full: both a parallel and a chained submission bounce.
        assert_eq!(
            engine.try_submit(Mode::Ctr([3; 16]), sample(5)),
            Err(SubmitError::Busy { capacity: 3 })
        );
        assert_eq!(
            engine.try_submit(Mode::Ofb([4; 16]), sample(5)),
            Err(SubmitError::Busy { capacity: 3 })
        );
        // A rejected submission must not burn a job id.
        assert_eq!(engine.queued(), 3);

        // Drain: outputs come back in submission order, all successful.
        let out = engine.run();
        assert_eq!(out.iter().map(|o| o.id).collect::<Vec<_>>(), vec![a, b, c]);
        assert!(out.iter().all(|o| o.data.is_ok()));
        assert_eq!(engine.queued(), 0);

        // Resubmit: ids keep ascending past the drained batch and a full
        // second cycle (mixed modes again) drains in order too.
        let d = engine.try_submit(Mode::Ofb([5; 16]), sample(7)).unwrap();
        let e = engine.try_submit(Mode::EcbDecrypt, sample(16)).unwrap();
        assert!(c < d && d < e);
        let out = engine.run();
        assert_eq!(out.iter().map(|o| o.id).collect::<Vec<_>>(), vec![d, e]);
        assert!(out.iter().all(|o| o.data.is_ok()));
    }

    #[test]
    fn ragged_ecb_is_rejected_at_submission() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 2);
        let err = engine.try_submit(Mode::EcbEncrypt, sample(17)).unwrap_err();
        assert_eq!(err, SubmitError::RaggedLength { len: 17 });
        assert_eq!(engine.queued(), 0, "rejected jobs hold no queue slot");
        // CTR streams, so ragged lengths are fine.
        assert!(engine.try_submit(Mode::Ctr([0; 16]), sample(17)).is_ok());
    }

    #[test]
    fn decrypt_job_on_encrypt_only_farm_reports_instead_of_panicking() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncryptCore; 2], 2);
        engine.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        let out = engine.run();
        assert_eq!(
            out[0].data,
            Err(JobError::NoCapableCore {
                dir: Direction::Decrypt
            })
        );
        // But CTR decryption runs fine on the forward datapath.
        engine.try_submit(Mode::Ctr([3; 16]), sample(32)).unwrap();
        assert!(engine.run()[0].data.is_ok());
    }

    #[test]
    fn mixed_farm_routes_around_incapable_cores() {
        // Decrypt-only core must be skipped for encrypt work and vice
        // versa; output must still match the reference.
        let specs = [
            BackendSpec::EncryptCore,
            BackendSpec::DecryptCore,
            BackendSpec::Software,
        ];
        let mut engine = Engine::with_farm(&KEY, &specs, 4);
        let data = sample(6 * 16);
        engine.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
        engine.try_submit(Mode::EcbDecrypt, data.clone()).unwrap();
        let out = engine.run();

        let reference = Aes128::new(&KEY);
        let mut enc = data.clone();
        Ecb::encrypt(&reference, &mut enc).unwrap();
        let mut dec = data;
        Ecb::decrypt(&reference, &mut dec).unwrap();
        assert_eq!(out[0].data.as_ref().unwrap(), &enc);
        assert_eq!(out[1].data.as_ref().unwrap(), &dec);

        let s = engine.stats();
        // The encrypt job shards over {ip-encrypt, soft-ref}, the decrypt
        // job over {ip-decrypt, soft-ref}. Six blocks fit inside a single
        // 8-block granule, so the granule planner hands the whole job to
        // the first eligible core and the software core stays idle.
        let by_name: Vec<(&str, u64)> = s
            .per_core
            .iter()
            .map(|c| (c.name.as_str(), c.blocks))
            .collect();
        assert_eq!(
            by_name,
            vec![("ip-encrypt", 6), ("ip-decrypt", 6), ("soft-ref", 0)]
        );
    }

    #[test]
    fn ctr_wall_cycles_shrink_as_cores_are_added() {
        let blocks = 64usize;
        let mut last = u64::MAX;
        for cores in 1..=4 {
            let mut engine = Engine::with_farm(&KEY, &vec![BackendSpec::EncryptCore; cores], 2);
            engine
                .try_submit(Mode::Ctr([9; 16]), sample(blocks * 16))
                .unwrap();
            engine.run();
            let s = engine.stats();
            assert_eq!(s.total_blocks(), blocks as u64);
            // Each core's share costs 1 load edge + 50/block; shares are
            // dealt in 8-block granules (64 blocks = 8 granules).
            let biggest_share = (blocks.div_ceil(8).div_ceil(cores) * 8) as u64;
            assert_eq!(s.wall_cycles(), 1 + biggest_share * LATENCY_CYCLES);
            assert!(
                s.wall_cycles() < last,
                "{cores} cores must beat {}",
                cores - 1
            );
            assert!(
                s.min_occupancy_pct() >= 90.0,
                "cores must stay saturated, got {:.1}%",
                s.min_occupancy_pct()
            );
            last = s.wall_cycles();
        }
    }

    #[test]
    fn least_loaded_core_wins_chained_work() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 2], 4);
        // Load core 0 with a chained job, then submit another: it must
        // land on core 1 (cheaper virtual clock).
        engine
            .try_submit(Mode::CbcEncrypt([0; 16]), sample(4 * 16))
            .unwrap();
        engine
            .try_submit(Mode::CbcEncrypt([0; 16]), sample(4 * 16))
            .unwrap();
        engine.run();
        let s = engine.stats();
        assert_eq!(s.per_core[0].blocks, 4);
        assert_eq!(s.per_core[1].blocks, 4);
    }

    #[test]
    fn empty_buffer_jobs_complete_without_work() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore], 4);
        for mode in [
            Mode::EcbEncrypt,
            Mode::Ctr([0; 16]),
            Mode::CbcEncrypt([0; 16]),
        ] {
            engine.try_submit(mode, Vec::new()).unwrap();
        }
        for out in engine.run() {
            assert_eq!(out.data.unwrap(), Vec::<u8>::new());
        }
        assert_eq!(engine.stats().total_blocks(), 0);
    }

    #[test]
    fn job_ids_are_unique_and_ordered() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 8);
        let a = engine.try_submit(Mode::Ctr([0; 16]), sample(1)).unwrap();
        let b = engine.try_submit(Mode::Ctr([0; 16]), sample(1)).unwrap();
        assert!(a < b);
        let out = engine.run();
        assert_eq!(out[0].id, a);
        assert_eq!(out[1].id, b);
        assert_eq!(a.to_string(), "job#0");
    }

    #[test]
    fn submit_errors_format() {
        assert!(SubmitError::Busy { capacity: 2 }
            .to_string()
            .contains("full"));
        assert!(SubmitError::RaggedLength { len: 17 }
            .to_string()
            .contains("17"));
        assert!(SubmitError::BadIv { len: 4 }.to_string().contains("4"));
        let e = JobError::NoCapableCore {
            dir: Direction::Decrypt,
        };
        assert_eq!(e.to_string(), "no core in the farm can decrypt");
    }

    #[test]
    fn builder_publishes_every_instrument_into_a_shared_registry() {
        let reg = Registry::new();
        let mut engine = EngineBuilder::new()
            .cores(&[BackendSpec::EncryptCore; 2])
            .capacity(1)
            .registry(reg.clone())
            .build(&KEY);
        engine.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        // Queue full: the rejection is counted, and the accepted job is
        // visible on the depth gauge before run() drains it.
        assert_eq!(
            engine.try_submit(Mode::EcbEncrypt, sample(16)),
            Err(SubmitError::Busy { capacity: 1 })
        );
        assert_eq!(
            engine.try_submit(Mode::EcbEncrypt, sample(17)),
            Err(SubmitError::Busy { capacity: 1 })
        );
        assert_eq!(reg.snapshot().gauge("engine.queue.depth"), Some(1));
        engine.run();

        let snap = engine.snapshot();
        assert_eq!(snap.counter("engine.submit.accepted"), Some(1));
        assert_eq!(snap.counter("engine.submit.busy"), Some(2));
        assert_eq!(snap.counter("engine.submit.ragged"), Some(0));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(1));
        assert_eq!(snap.counter("engine.jobs.failed"), Some(0));
        assert_eq!(snap.gauge("engine.queue.depth"), Some(0));
        assert_eq!(snap.gauge("engine.queue.capacity"), Some(1));

        // Latency: 8 blocks on one core = 1 load edge + 8 × 50 cycles.
        let lat = snap.histogram("engine.job.latency_cycles").unwrap();
        assert_eq!((lat.count, lat.sum), (1, 1 + 8 * LATENCY_CYCLES));
        // One occupancy sample per core that moved cycles this sync.
        assert!(snap.histogram("engine.core.occupancy_bp").unwrap().count >= 1);

        // Per-core counters reassemble into the same farm stats, via the
        // engine accessor and via the shared registry alike.
        let stats = FarmStats::from_snapshot(&snap);
        assert_eq!(stats.total_blocks(), 8);
        assert_eq!(stats.per_core.len(), 2);
        assert_eq!(engine.registry().snapshot().counter_sum("engine.core."), {
            snap.counter_sum("engine.core.")
        });
    }

    #[test]
    fn ragged_submissions_are_counted() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 2);
        let _ = engine.try_submit(Mode::EcbEncrypt, sample(17));
        assert_eq!(engine.snapshot().counter("engine.submit.ragged"), Some(1));
    }

    #[test]
    fn failed_jobs_count_separately_from_completed_ones() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncryptCore], 4);
        engine.try_submit(Mode::EcbDecrypt, sample(16)).unwrap();
        engine.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        engine.run();
        let snap = engine.snapshot();
        assert_eq!(snap.counter("engine.jobs.failed"), Some(1));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(1));
    }

    #[test]
    fn engines_sharing_a_registry_aggregate_core_counters() {
        let reg = Registry::new();
        for _ in 0..2 {
            let mut e = EngineBuilder::new()
                .core(BackendSpec::Software)
                .capacity(2)
                .registry(reg.clone())
                .build(&KEY);
            e.try_submit(Mode::EcbEncrypt, sample(4 * 16)).unwrap();
            e.run();
        }
        // Same farm layout, same instrument names: the two engines'
        // delta-pushed counters sum instead of clobbering each other.
        let stats = FarmStats::from_snapshot(&reg.snapshot());
        assert_eq!(stats.total_blocks(), 8);
        assert_eq!(reg.snapshot().counter("engine.jobs.completed"), Some(2));
    }

    #[test]
    fn dropping_an_engine_with_queued_jobs_restores_the_depth_gauge() {
        let reg = Registry::new();
        {
            let mut engine = EngineBuilder::new()
                .core(BackendSpec::Software)
                .capacity(4)
                .registry(reg.clone())
                .build(&KEY);
            engine.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
            engine.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
            assert_eq!(reg.snapshot().gauge("engine.queue.depth"), Some(2));
        }
        assert_eq!(reg.snapshot().gauge("engine.queue.depth"), Some(0));
    }

    #[test]
    fn prekeyed_backends_join_after_spec_built_slots() {
        let soft = BackendSpec::Software.build(&KEY);
        let mut engine = EngineBuilder::new()
            .core(BackendSpec::EncryptCore)
            .backend(soft)
            .capacity(2)
            .build(&KEY);
        assert_eq!(engine.cores(), 2);
        engine
            .try_submit(Mode::EcbEncrypt, sample(16 * 16))
            .unwrap();
        assert!(engine.run()[0].data.is_ok());
        let names: Vec<String> = engine
            .stats()
            .per_core
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(
            names,
            vec!["ip-encrypt".to_string(), "soft-ref".to_string()]
        );
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn builder_panics_on_an_empty_farm() {
        let _ = EngineBuilder::new().build(&KEY);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn builder_panics_on_a_zero_capacity_queue() {
        let _ = EngineBuilder::new()
            .core(BackendSpec::Software)
            .capacity(0)
            .build(&KEY);
    }

    /// A mock whose setup-cycle counter outruns its total-cycle counter
    /// between telemetry syncs — the adversarial snapshot shape that used
    /// to underflow the occupancy basis in [`Engine::sync_telemetry`]
    /// (`setup_delta > cycle_delta` ⇒ `op_delta` wrapped).
    struct AdversarialCounters {
        blocks: u64,
        cycles: u64,
        setup: u64,
    }

    impl Backend for AdversarialCounters {
        fn name(&self) -> &'static str {
            "mock-adversarial"
        }

        fn supports(&self, _dir: Direction) -> bool {
            true
        }

        fn process_block(
            &mut self,
            _block: &mut [u8; 16],
            _dir: Direction,
        ) -> Result<(), BackendError> {
            // Each block grows setup cycles 10x faster than total cycles,
            // so every sync observes setup_delta > cycle_delta.
            self.blocks += 1;
            self.cycles += 2;
            self.setup += 20;
            Ok(())
        }

        fn blocks(&self) -> u64 {
            self.blocks
        }

        fn cycles(&self) -> u64 {
            self.cycles
        }

        fn setup_cycles(&self) -> u64 {
            self.setup
        }

        fn busy_cycles(&self) -> u64 {
            self.blocks
        }
    }

    #[test]
    fn occupancy_survives_setup_delta_exceeding_cycle_delta() {
        let reg = telemetry::Registry::new();
        let mut engine = EngineBuilder::new()
            .backend(Box::new(AdversarialCounters {
                blocks: 0,
                cycles: 0,
                setup: 0,
            }))
            .registry(reg.clone())
            .build(&KEY);
        // Two jobs, two syncs: each sync sees cycle_delta=2·n while
        // setup_delta=20·n. Before the fix this underflowed (debug panic,
        // or an absurd occupancy basis in release).
        for _ in 0..2 {
            engine.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
            let out = engine.run();
            assert!(out[0].data.is_ok());
        }
        let snap = engine.snapshot();
        assert_eq!(
            snap.counter("engine.core.0.mock-adversarial.setup_cycles"),
            Some(40)
        );
        // op_delta saturates to zero, so no occupancy sample is recorded
        // (rather than a wrapped-u64 basis-point figure).
        let occupancy = snap
            .histogram("engine.core.occupancy_bp")
            .expect("histogram registered");
        assert_eq!(occupancy.count, 0);
    }
}
