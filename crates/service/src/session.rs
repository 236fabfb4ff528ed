//! Per-connection sessions: key management over one shared schedule
//! and a lane on a worker pool.
//!
//! A `SET_KEY` request creates a [`Session`]: **one** software schedule
//! — the dispatch-selected [`AutoCipher`], shared through an [`Arc`] by
//! every caller-thread lane: the block modes, CMAC, key wrap, the [`Gcm`]
//! lane and both halves of the [`Xts`] lane — and a [`Lane`] on a
//! [`WorkerPool`] that holds the same schedule in its [`LaneKey`]. On a
//! server every session's lane sits on the one server-wide pool, so
//! worker threads do not scale with sessions; [`Session::new`] builds a
//! private pool for standalone use. The lane serves only v2 bulk jobs,
//! and every such job carries the lane's key to whichever worker runs
//! it. When the deployment is pinned to the batch-less `ip-core`, the
//! shared schedule is the T-table kind, so only pool jobs reach the
//! IP-core models. Keys may be 16, 24 or 32 bytes (AES-128/192/256); the
//! modeled IP cores are AES-128-only, so longer keys divert their farm
//! slots to the software fallback backend. The key is never echoed on
//! the wire and the only raw copy kept is the lane key's (IP-core slots
//! load it at runtime); when the session is dropped — connection
//! teardown, idle expiry, or a re-key replacing it — that copy and the
//! expanded schedule wipe themselves (`rijndael::zeroize`) once the
//! session's last pool job is done, and no worker keeps a key past its
//! jobs.
//!
//! Jobs take one of two paths. [`Session::execute`] runs every mode at
//! every size on the caller's thread, on the shared schedule.
//! [`Session::submit`] (protocol v2) tags a job with the request's
//! correlation id: a job under [`BULK_THRESHOLD`] bytes runs the same
//! caller-thread path and parks its result, a bulk job goes to the lane,
//! whose bounded capacity surfaces as [`SubmitError::Busy`].
//! [`Session::collect`] returns every finished job in **completion
//! order** — across the pool's threads that is not submission order,
//! which is the out-of-order property the v2 wire format exists to
//! carry.

use std::sync::Arc;

use engine::{
    BackendSpec, Error, JobId, Lane, LaneKey, Mode, Notifier, PoolBuilder, SubmitError, WorkerPool,
};
use rijndael::aead::{self, Aead, Gcm, Xts, NONCE_LEN};
use rijndael::modes::{Ctr, Ecb};
use rijndael::{cmac, AutoCipher};
use telemetry::Registry;

/// Payload size (eight 16-byte blocks) from which pipelined requests go
/// to the worker pool ([`Session::submit`]).
pub const BULK_THRESHOLD: usize = 8 * 16;

/// One keyed session: the one shared software schedule, a lane on a
/// worker pool and the bookkeeping for pipelined jobs.
pub struct Session {
    id: u32,
    /// The pipelined *bulk* lane: v2 requests of [`BULK_THRESHOLD`]
    /// bytes or more run on the pool's threads, off the event-loop
    /// thread, so one large job does not head-of-line-block every
    /// connection on the shard. Its key holds the session's one
    /// software schedule, which the block modes, CMAC and key wrap read;
    /// `aead` and `xts` hold clones of the same `Arc`.
    lane: Lane,
    /// The private pool [`Session::new`] builds; `None` for a session on
    /// a shared pool.
    own_pool: Option<WorkerPool>,
    /// GCM lane for the SEAL/OPEN ops.
    aead: Gcm<Arc<AutoCipher>>,
    /// XTS lane for the sector-addressed wire ops. Single-key
    /// convention: the data and tweak halves are both the session key
    /// (the wire carries exactly one key per session), so a client can
    /// reproduce the stream with `Xts::new(C::new(k), C::new(k))`.
    xts: Xts<Arc<AutoCipher>>,
    /// Finished pipelined jobs awaiting [`Session::collect`], in
    /// completion order: `(correlation id, result)`.
    done: Vec<(u32, Result<Vec<u8>, Error>)>,
    /// Pool jobs not yet finished: `(job, correlation id)`.
    pool_jobs: Vec<(JobId, u32)>,
}

impl Session {
    /// Keys a standalone session: builds a private worker pool over
    /// `farm` whose lanes hold up to `queue_capacity` open jobs, wiring
    /// its telemetry into `registry`, then opens the session's lane on
    /// it as [`Session::on_pool`] does. The caller owns (and should wipe)
    /// its copy of the key bytes.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16, 24 or 32 bytes — the server
    /// validates lengths at the protocol boundary
    /// (`ErrorCode::BadKeyLength`) before constructing a session.
    #[must_use]
    pub fn new(
        id: u32,
        key: &[u8],
        farm: &[BackendSpec],
        queue_capacity: usize,
        registry: &Registry,
    ) -> Session {
        let pool = PoolBuilder::new()
            .cores(farm)
            .capacity(queue_capacity)
            .registry(registry.clone())
            .build_shared();
        let mut session = Session::on_pool(id, key, &pool, None);
        session.own_pool = Some(pool);
        session
    }

    /// Keys a session on a shared `pool`: expands the one software
    /// schedule from `key` and opens the session's lane, whose
    /// completions fire `notifier` (the server passes its shard's wake
    /// pipe, so a parked `poll(2)` loop re-arms at once).
    ///
    /// # Panics
    ///
    /// As [`Session::new`].
    #[must_use]
    pub fn on_pool(id: u32, key: &[u8], pool: &WorkerPool, notifier: Option<Notifier>) -> Session {
        let lane = pool.open_lane(LaneKey::new(key), notifier);
        let cipher = lane.key().cipher();
        let (aead, xts) = (
            Gcm::new(Arc::clone(cipher)),
            Xts::new(Arc::clone(cipher), Arc::clone(cipher)),
        );
        Session {
            id,
            lane,
            own_pool: None,
            aead,
            xts,
            done: Vec::new(),
            pool_jobs: Vec::new(),
        }
    }

    /// The session key's one software schedule.
    fn cipher(&self) -> &AutoCipher {
        self.lane.key().cipher()
    }

    /// Waits (up to `timeout`) for every bulk job of this session still
    /// executing on the pool to finish, so a following
    /// [`Session::collect`] returns them; other sessions' jobs do not
    /// count. Returns `true` when the lane went quiet. The server's
    /// graceful-shutdown drain calls this before the goodbye frame — the
    /// pool lane of `collect` is non-blocking, and dropping the session
    /// mid-execution would silently discard an accepted request's reply.
    #[must_use]
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        self.lane.wait_idle_timeout(timeout)
    }

    /// The server-assigned session id carried in every frame.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Pipelined jobs not yet delivered (parked plus on the pool) — the
    /// per-session contribution to the server's in-flight gauge, and the
    /// server's cue to collect.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.done.len() + self.pool_jobs.len()
    }

    /// Runs one operation to completion on the caller's thread, on the
    /// shared schedule, and returns its output: ECB and CTR through the
    /// cipher's widest batch path, the chained modes through the
    /// object-safe [`rijndael::Mode`] trait.
    ///
    /// # Errors
    ///
    /// [`Error::Submit`] when the buffer is ragged or the IV is bad.
    pub fn execute(&self, mode: Mode, mut data: Vec<u8>) -> Result<Vec<u8>, Error> {
        let cipher = self.cipher();
        match (mode, mode.chained()) {
            (_, Some((chained, iv, true))) => chained.encrypt_in_place(cipher, &iv, &mut data)?,
            (_, Some((chained, iv, false))) => chained.decrypt_in_place(cipher, &iv, &mut data)?,
            (Mode::EcbEncrypt, None) => Ecb::encrypt_batched(cipher, &mut data)?,
            (Mode::EcbDecrypt, None) => Ecb::decrypt_batched(cipher, &mut data)?,
            (Mode::Ctr(nonce), None) => Ctr::apply_batched(cipher, &nonce, 0, &mut data),
            (_, None) => unreachable!("ECB and CTR are the only unchained modes"),
        }
        Ok(data)
    }

    /// Starts a pipelined job tagged with the request's correlation id;
    /// its result surfaces from a later [`Session::collect`].
    ///
    /// Payloads of [`BULK_THRESHOLD`] bytes or more go to the session's
    /// pool lane and execute on the pool's threads — the event loop returns
    /// to `poll(2)` immediately and small neighbours stop queueing behind
    /// bulk crypto. Smaller payloads run [`Session::execute`] right here
    /// (microseconds; handing them to another thread would cost more
    /// than computing them) and park the result, error included.
    ///
    /// # Errors
    ///
    /// The lane's [`SubmitError`] verbatim — `Busy` is the per-session
    /// backpressure signal the server forwards as a typed reply.
    pub fn submit(&mut self, corr: u32, mode: Mode, data: Vec<u8>) -> Result<(), SubmitError> {
        if data.len() < BULK_THRESHOLD {
            let result = self.execute(mode, data);
            self.done.push((corr, result));
        } else {
            let id = self.lane.try_submit(mode, data)?;
            self.pool_jobs.push((id, corr));
        }
        Ok(())
    }

    /// Returns every finished pipelined job in completion order, tagged
    /// with its correlation id. Never blocks: pool jobs still running
    /// stay in flight for a later call.
    pub fn collect(&mut self) -> Vec<(u32, Result<Vec<u8>, Error>)> {
        while let Some(out) = self.lane.try_collect() {
            if let Some(pos) = self.pool_jobs.iter().position(|&(id, _)| id == out.id) {
                let (_, corr) = self.pool_jobs.remove(pos);
                self.done.push((corr, out.data.map_err(Error::from)));
            }
        }
        std::mem::take(&mut self.done)
    }

    /// Computes the AES-CMAC tag of `message` under the session key.
    #[must_use]
    pub fn cmac_tag(&self, message: &[u8]) -> [u8; 16] {
        cmac::cmac(self.cipher(), message)
    }

    /// Constant-time verification of an AES-CMAC tag.
    #[must_use]
    pub fn cmac_verify(&self, message: &[u8], tag: &[u8; 16]) -> bool {
        cmac::verify(self.cipher(), message, tag)
    }

    /// AES-GCM seal under the session key: returns ciphertext ‖ tag.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        self.aead.seal(nonce, aad, plaintext)
    }

    /// AES-GCM open under the session key: verifies the tag in constant
    /// time before releasing any plaintext.
    ///
    /// # Errors
    ///
    /// [`aead::Error::TagMismatch`] on authentication failure;
    /// [`aead::Error::Truncated`] when `sealed` is shorter than a tag.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, aead::Error> {
        self.aead.open(nonce, aad, sealed)
    }

    /// Applies AES-XTS (IEEE 1619) over consecutive sectors: sector `i`
    /// of `data` (chunks of `sector_size` bytes) uses tweak
    /// `sector_base + i`, wrapping at `u64::MAX`. Ragged sector sizes
    /// use ciphertext stealing, so the output length equals the input
    /// length. The caller validates that `sector_size >= 16` and that
    /// `data` is a non-empty whole number of sectors (the protocol
    /// boundary answers `BadSectorSize` otherwise).
    ///
    /// # Errors
    ///
    /// [`aead::Error::SectorTooShort`] when a sector is under one block
    /// (unreachable after the boundary validation).
    pub fn xts_apply(
        &self,
        sector_base: u64,
        sector_size: usize,
        mut data: Vec<u8>,
        decrypt: bool,
    ) -> Result<Vec<u8>, aead::Error> {
        for (i, sector) in data.chunks_mut(sector_size).enumerate() {
            let number = sector_base.wrapping_add(i as u64);
            if decrypt {
                self.xts.decrypt_sector(number, sector)?;
            } else {
                self.xts.encrypt_sector(number, sector)?;
            }
        }
        Ok(data)
    }

    /// SP 800-38F / RFC 3394 key wrap with the session key as the KEK.
    ///
    /// # Errors
    ///
    /// [`aead::Error::BadWrapLength`] unless `key_data` is at least 16
    /// bytes and a multiple of 8.
    pub fn wrap_key(&self, key_data: &[u8]) -> Result<Vec<u8>, aead::Error> {
        aead::wrap(self.cipher(), key_data)
    }

    /// RFC 3394 key unwrap with the session key as the KEK.
    ///
    /// # Errors
    ///
    /// [`aead::Error::TagMismatch`] when the integrity check fails;
    /// [`aead::Error::BadWrapLength`] on an impossible blob length.
    pub fn unwrap_key(&self, wrapped: &[u8]) -> Result<Vec<u8>, aead::Error> {
        aead::unwrap(self.cipher(), wrapped)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// The one-session-per-connection slot: allocates session ids and
/// guarantees a re-key drops (and thereby wipes) the previous session
/// before the new one answers traffic.
#[derive(Debug, Default)]
pub struct SessionSlot {
    current: Option<Session>,
    next_id: u32,
}

impl SessionSlot {
    /// An empty slot; crypto ops fail with `NoSession` until a re-key.
    #[must_use]
    pub fn new() -> SessionSlot {
        SessionSlot {
            current: None,
            next_id: 1,
        }
    }

    /// Replaces the session with one keyed on `pool` (see
    /// [`Session::on_pool`]) and returns the new id (never 0, which the
    /// protocol reserves for "no session").
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16, 24 or 32 bytes (validated at the
    /// protocol boundary).
    pub fn rekey(&mut self, key: &[u8], pool: &WorkerPool, notifier: Option<Notifier>) -> u32 {
        let id = self.next_id.max(1);
        self.next_id = id.wrapping_add(1);
        // Assigning drops the previous session first-class: its lane's
        // jobs still in flight finish under the old key and are
        // discarded, and its key material wipes once they are done.
        self.current = Some(Session::on_pool(id, key, pool, notifier));
        id
    }

    /// The live session, if any.
    #[must_use]
    pub fn session_mut(&mut self) -> Option<&mut Session> {
        self.current.as_mut()
    }

    /// Drops the live session (wiping its key material).
    pub fn clear(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rijndael::modes::{Cbc, Ctr, Ecb};
    use rijndael::{Aes128, Aes256, BlockCipher};

    const KEY: [u8; 16] = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F,
        0x3C,
    ];

    fn farm() -> Vec<BackendSpec> {
        vec![BackendSpec::EncDecCore, BackendSpec::Software]
    }

    fn session(queue: usize) -> Session {
        Session::new(1, &KEY, &farm(), queue, &Registry::new())
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 13 + 1) as u8).collect()
    }

    /// Collects until `want` results arrived (pool jobs finish on other
    /// threads), failing after ten seconds.
    fn collect_n(s: &mut Session, want: usize) -> Vec<(u32, Result<Vec<u8>, Error>)> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < want && std::time::Instant::now() < deadline {
            got.extend(s.collect());
        }
        assert_eq!(got.len(), want, "every pipelined job delivers");
        got
    }

    #[test]
    fn execute_matches_the_software_reference() {
        let s = session(8);
        let reference = Aes128::new(&KEY);

        let data = sample(4 * 16);
        let ct = s.execute(Mode::EcbEncrypt, data.clone()).unwrap();
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, expect);

        let iv = [9u8; 16];
        let ct = s.execute(Mode::CbcEncrypt(iv), data.clone()).unwrap();
        let mut expect = data.clone();
        Cbc::encrypt(&reference, &iv, &mut expect).unwrap();
        assert_eq!(ct, expect);

        let ct = s.execute(Mode::Ctr(iv), sample(37)).unwrap();
        let mut expect = sample(37);
        Ctr::apply(&reference, &iv, &mut expect);
        assert_eq!(ct, expect);
    }

    #[test]
    fn bulk_lane_matches_the_software_reference() {
        let s = session(8);
        let reference = Aes128::new(&KEY);

        // 24 blocks: well past the threshold, with a ragged granule tail.
        let data = sample(24 * 16);
        let ct = s.execute(Mode::EcbEncrypt, data.clone()).unwrap();
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, expect);
        let pt = s.execute(Mode::EcbDecrypt, ct).unwrap();
        assert_eq!(pt, data);

        // CTR keeps its any-length contract on the bulk lane too.
        let nonce = [0xA5u8; 16];
        let data = sample(BULK_THRESHOLD + 5);
        let ct = s.execute(Mode::Ctr(nonce), data.clone()).unwrap();
        let mut expect = data;
        Ctr::apply(&reference, &nonce, &mut expect);
        assert_eq!(ct, expect);
    }

    #[test]
    fn bulk_lane_rejects_ragged_ecb() {
        let s = session(2);
        assert_eq!(
            s.execute(Mode::EcbEncrypt, sample(BULK_THRESHOLD + 1)),
            Err(Error::Submit(SubmitError::RaggedLength {
                len: BULK_THRESHOLD + 1
            }))
        );
    }

    #[test]
    fn every_software_lane_shares_one_schedule_and_drop_releases_it() {
        let s = session(8);
        let schedule = Arc::clone(s.lane.key().cipher());
        // The lane key's handle (which the block modes, CMAC and key wrap
        // read), the GCM lane and both XTS halves, plus this test's.
        assert_eq!(Arc::strong_count(&schedule), 5);
        drop(s);
        // Ours is the last handle: dropping it runs the schedule's wipe.
        assert_eq!(Arc::strong_count(&schedule), 1);
    }

    #[test]
    fn submit_then_collect_returns_results_tagged_by_corr() {
        let mut s = session(8);
        let reference = Aes128::new(&KEY);
        s.submit(0xA1, Mode::EcbEncrypt, sample(32)).unwrap();
        s.submit(0xB2, Mode::Ctr([1; 16]), sample(5)).unwrap();
        assert_eq!(s.in_flight(), 2);

        let results = s.collect();
        assert_eq!(s.in_flight(), 0);
        let tags: Vec<u32> = results.iter().map(|&(c, _)| c).collect();
        assert_eq!(tags, vec![0xA1, 0xB2], "small jobs finish in order");
        for (corr, data) in results {
            let data = data.unwrap();
            if corr == 0xA1 {
                let mut expect = sample(32);
                Ecb::encrypt(&reference, &mut expect).unwrap();
                assert_eq!(data, expect);
            } else {
                let mut expect = sample(5);
                Ctr::apply(&reference, &[1; 16], &mut expect);
                assert_eq!(data, expect);
            }
        }
        assert!(s.collect().is_empty(), "collect is idempotent once drained");
    }

    #[test]
    fn small_submit_failures_are_parked_for_collect() {
        let mut s = session(8);
        assert_eq!(s.submit(5, Mode::EcbEncrypt, sample(17)), Ok(()));
        let results = s.collect();
        assert_eq!(
            results,
            vec![(5, Err(Error::Submit(SubmitError::RaggedLength { len: 17 })))]
        );
    }

    #[test]
    fn bulk_pipelined_jobs_take_the_pool_lane_and_match_the_reference() {
        let mut s = session(8);
        let reference = Aes128::new(&KEY);
        let big = sample(64 * 16);
        let small = sample(2 * 16);
        s.submit(0xB16, Mode::EcbEncrypt, big.clone()).unwrap();
        s.submit(0x5A1, Mode::EcbEncrypt, small.clone()).unwrap();
        assert_eq!(s.in_flight(), 2);

        let got = collect_n(&mut s, 2);
        assert_eq!(s.in_flight(), 0);
        for (corr, data) in got {
            let mut expect = if corr == 0xB16 {
                big.clone()
            } else {
                small.clone()
            };
            Ecb::encrypt(&reference, &mut expect).unwrap();
            assert_eq!(data.unwrap(), expect, "corr {corr:#x}");
        }
    }

    #[test]
    fn pool_lane_notifier_fires_on_bulk_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = PoolBuilder::new().cores(&farm()).build_shared();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let notifier: Notifier = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let mut s = Session::on_pool(1, &KEY, &pool, Some(notifier));
        s.submit(1, Mode::Ctr([0; 16]), sample(BULK_THRESHOLD))
            .unwrap();
        collect_n(&mut s, 1);
        // The pool sends the output before it fires the notifier; the
        // lane is idle only after both.
        assert!(s.quiesce(std::time::Duration::from_secs(10)));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn quiesce_waits_out_pool_lane_jobs() {
        let mut s = session(8);
        s.submit(0xD1, Mode::EcbEncrypt, sample(64 * 16)).unwrap();
        assert!(
            s.quiesce(std::time::Duration::from_secs(10)),
            "the pool lane goes quiet"
        );
        // After a successful quiesce one collect is enough — no
        // retry loop, which is what the shutdown drain relies on.
        let got = s.collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0xD1);
        assert!(got[0].1.is_ok());
    }

    #[test]
    fn sessions_on_one_pool_share_its_workers_and_its_autoscale() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Software)
            .registry(reg.clone())
            .build_shared();
        // An idle, min-sized pool has nothing to do.
        assert_eq!(pool.autoscale_tick(&engine::ResizePolicy::default()), None);
        let mut a = Session::on_pool(1, &KEY, &pool, None);
        let mut b = Session::on_pool(2, &[6u8; 32], &pool, None);
        a.submit(1, Mode::EcbEncrypt, sample(16 * 16)).unwrap();
        b.submit(2, Mode::EcbEncrypt, sample(16 * 16)).unwrap();
        assert!(collect_n(&mut a, 1)[0].1.is_ok());
        assert!(collect_n(&mut b, 1)[0].1.is_ok());
        assert_eq!(pool.workers(), 1, "two sessions, one worker");
        assert_eq!(reg.snapshot().gauge("engine.workers"), Some(1));
    }

    #[test]
    fn bulk_jobs_leave_no_worker_holding_the_schedule() {
        let mut s = Session::new(1, &KEY, &[BackendSpec::Auto; 2], 8, &Registry::new());
        let schedule = Arc::clone(s.lane.key().cipher());
        // One job at a time: each of the two workers runs at most one
        // shard, so each has nothing queued when it finishes.
        for corr in 0..3 {
            s.submit(corr, Mode::Ctr([corr as u8; 16]), sample(64 * 16))
                .unwrap();
            assert!(s.quiesce(std::time::Duration::from_secs(10)));
            // The lane key, the GCM lane, both XTS halves and this
            // test: every worker released its handle before the job
            // came back.
            assert_eq!(Arc::strong_count(&schedule), 5);
        }
        assert_eq!(collect_n(&mut s, 3).len(), 3);
        assert_eq!(Arc::strong_count(&schedule), 5);
        drop(s);
        assert_eq!(Arc::strong_count(&schedule), 1);
    }

    #[test]
    fn busy_surfaces_at_the_pool_submit_boundary() {
        // Paced cores keep the first two bulk jobs open long enough for
        // the third to meet a full pool.
        let paced = [BackendSpec::Paced {
            block_ns: 1_000_000,
        }];
        let mut s = Session::new(1, &KEY, &paced, 2, &Registry::new());
        let bulk = sample(BULK_THRESHOLD);
        s.submit(1, Mode::EcbEncrypt, bulk.clone()).unwrap();
        s.submit(2, Mode::EcbEncrypt, bulk.clone()).unwrap();
        assert_eq!(
            s.submit(3, Mode::EcbEncrypt, bulk.clone()),
            Err(SubmitError::Busy { capacity: 2 })
        );
        // Small jobs run on the caller's thread and never meet the bound.
        assert_eq!(s.submit(4, Mode::EcbEncrypt, sample(16)), Ok(()));
        assert_eq!(collect_n(&mut s, 3).len(), 3);
        assert!(s.submit(3, Mode::EcbEncrypt, bulk).is_ok());
        collect_n(&mut s, 1);
    }

    #[test]
    fn ragged_blocks_are_rejected_without_holding_a_slot() {
        let s = session(2);
        assert_eq!(
            s.execute(Mode::EcbEncrypt, sample(17)),
            Err(Error::Submit(SubmitError::RaggedLength { len: 17 }))
        );
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn sessions_sharing_a_registry_aggregate_their_engine_counters() {
        let reg = Registry::new();
        let mut a = Session::new(1, &KEY, &farm(), 8, &reg);
        let mut b = Session::new(2, &KEY, &farm(), 8, &reg);
        a.submit(1, Mode::EcbEncrypt, sample(16 * 16)).unwrap();
        b.submit(2, Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        assert!(collect_n(&mut a, 1)[0].1.is_ok());
        assert!(collect_n(&mut b, 1)[0].1.is_ok());
        let snap = reg.snapshot();
        let stats = engine::FarmStats::from_snapshot(&snap);
        assert_eq!(stats.total_blocks(), 24);
        assert_eq!(snap.counter("engine.jobs.completed"), Some(2));
    }

    #[test]
    fn caller_thread_lanes_key_no_farm_backend() {
        let reg = Registry::new();
        let mut s = Session::new(1, &KEY, &farm(), 8, &reg);
        let iv = [3u8; 16];
        for len in [16, 1024] {
            for mode in [
                Mode::EcbEncrypt,
                Mode::EcbDecrypt,
                Mode::CbcEncrypt(iv),
                Mode::CbcDecrypt(iv),
                Mode::Ctr(iv),
                Mode::CfbEncrypt(iv),
                Mode::CfbDecrypt(iv),
                Mode::Ofb(iv),
            ] {
                assert_eq!(s.execute(mode, sample(len)).unwrap().len(), len, "{mode}");
            }
        }
        s.submit(7, Mode::Ctr(iv), sample(BULK_THRESHOLD - 1))
            .unwrap();
        assert!(s.collect()[0].1.is_ok());
        // The pool never admitted a job, so it never keyed a backend or
        // spawned a worker: no per-core instrument exists yet.
        let snap = reg.snapshot();
        let core_entries = |snap: &telemetry::Snapshot| {
            snap.entries()
                .iter()
                .filter(|e| e.name.starts_with("engine.core."))
                .count()
        };
        assert_eq!(core_entries(&snap), 0);
        assert_eq!(snap.counter("engine.submit.accepted"), Some(0));

        // One bulk job starts the pool: its workers key their backends
        // and register their per-core instruments.
        s.submit(8, Mode::Ctr(iv), sample(BULK_THRESHOLD)).unwrap();
        assert!(collect_n(&mut s, 1)[0].1.is_ok());
        let snap = reg.snapshot();
        assert!(core_entries(&snap) > 0);
        assert_eq!(snap.counter("engine.submit.accepted"), Some(1));
        assert_eq!(snap.gauge("engine.workers"), Some(farm().len() as i64));
    }

    #[test]
    fn cmac_tag_and_verify_use_the_session_key() {
        let s = session(2);
        // RFC 4493 example 1: empty message.
        let tag = s.cmac_tag(b"");
        assert_eq!(tag[..4], [0xBB, 0x1D, 0x69, 0x29]);
        assert!(s.cmac_verify(b"", &tag));
        let mut bad = tag;
        bad[15] ^= 1;
        assert!(!s.cmac_verify(b"", &bad));
    }

    #[test]
    fn seal_and_open_roundtrip_for_every_key_size() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let s = Session::new(1, &key, &farm(), 8, &Registry::new());
            let nonce = [7u8; NONCE_LEN];
            let sealed = s.seal(&nonce, b"header", b"the plaintext");
            assert_eq!(sealed.len(), 13 + 16);
            assert_eq!(
                s.open(&nonce, b"header", &sealed).unwrap(),
                b"the plaintext"
            );
            let mut tampered = sealed;
            tampered[0] ^= 1;
            assert_eq!(
                s.open(&nonce, b"header", &tampered),
                Err(aead::Error::TagMismatch)
            );
        }
    }

    #[test]
    fn seal_matches_the_direct_gcm_construction() {
        let key = [0x42u8; 32];
        let s = Session::new(1, &key, &farm(), 8, &Registry::new());
        let direct = Gcm::new(Aes256::new(&key));
        let nonce = [9u8; NONCE_LEN];
        assert_eq!(
            s.seal(&nonce, b"aad", b"payload"),
            direct.seal(&nonce, b"aad", b"payload")
        );
    }

    #[test]
    fn xts_lane_matches_the_direct_construction_and_roundtrips() {
        use rijndael::BatchCipher;
        // AutoCipher and the direct reference must agree; build the
        // reference over the same dispatched cipher type so a forced
        // backend cannot desynchronise the comparison.
        fn reference(key: &[u8]) -> Xts<impl BatchCipher> {
            let cipher = Arc::clone(LaneKey::new(key).cipher());
            Xts::new(Arc::clone(&cipher), cipher)
        }
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8)
                .map(|i| i.wrapping_mul(7) ^ 0x3A)
                .collect();
            let s = Session::new(1, &key, &farm(), 8, &Registry::new());
            // Three 20-byte sectors starting at sector 5: ciphertext
            // stealing on every sector, consecutive tweaks.
            let data = sample(3 * 20);
            let ct = s.xts_apply(5, 20, data.clone(), false).unwrap();
            assert_eq!(ct.len(), data.len());
            assert_ne!(ct, data);
            let mut expect = data.clone();
            let xts = reference(&key);
            for (i, sector) in expect.chunks_mut(20).enumerate() {
                xts.encrypt_sector(5 + i as u64, sector).unwrap();
            }
            assert_eq!(ct, expect, "key_len {key_len}");
            let pt = s.xts_apply(5, 20, ct, true).unwrap();
            assert_eq!(pt, data);
        }
    }

    #[test]
    fn xts_sector_numbering_wraps_instead_of_panicking() {
        let s = session(8);
        let data = sample(2 * 16);
        let ct = s.xts_apply(u64::MAX, 16, data.clone(), false).unwrap();
        let pt = s.xts_apply(u64::MAX, 16, ct, true).unwrap();
        assert_eq!(pt, data);
    }

    #[test]
    fn key_wrap_roundtrips_and_authenticates() {
        let s = session(2);
        let secret = [0x55u8; 24];
        let wrapped = s.wrap_key(&secret).unwrap();
        assert_eq!(wrapped.len(), secret.len() + 8);
        assert_eq!(s.unwrap_key(&wrapped).unwrap(), secret);
        let mut bad = wrapped;
        bad[3] ^= 0x80;
        assert_eq!(s.unwrap_key(&bad), Err(aead::Error::TagMismatch));
        assert_eq!(
            s.wrap_key(&[0u8; 7]),
            Err(aead::Error::BadWrapLength { len: 7 })
        );
    }

    #[test]
    fn long_keys_drive_the_engine_and_bulk_lanes() {
        let key: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(9) ^ 0x6C).collect();
        let mut s = Session::new(1, &key, &farm(), 8, &Registry::new());
        let reference = Aes256::new(key.as_slice().try_into().unwrap());

        // Small payload: the caller-thread lane.
        let data = sample(2 * 16);
        let ct = s.execute(Mode::EcbEncrypt, data.clone()).unwrap();
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, expect);

        // Bulk payload: the pool lane (ip-core slots divert to software).
        let data = sample(24 * 16);
        s.submit(1, Mode::EcbEncrypt, data.clone()).unwrap();
        let mut expect = data;
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(collect_n(&mut s, 1)[0].1, Ok(expect));
    }

    #[test]
    fn rekey_replaces_the_session_and_advances_the_id() {
        let pool = PoolBuilder::new().cores(&farm()).capacity(4).build_shared();
        let mut slot = SessionSlot::new();
        assert!(slot.session_mut().is_none());
        let a = slot.rekey(&KEY, &pool, None);
        slot.session_mut()
            .unwrap()
            .submit(1, Mode::EcbEncrypt, sample(16))
            .unwrap();
        let b = slot.rekey(&[5u8; 16], &pool, None);
        assert_ne!(a, b);
        assert_ne!(b, 0);
        // The uncollected job died with the old session.
        assert_eq!(slot.session_mut().unwrap().in_flight(), 0);
        // And the new session really uses the new key.
        let ct = slot
            .session_mut()
            .unwrap()
            .execute(Mode::EcbEncrypt, vec![0u8; 16])
            .unwrap();
        let mut expect = vec![0u8; 16];
        Aes128::new(&[5u8; 16]).encrypt_in_place(&mut expect);
        assert_eq!(ct, expect);
        slot.clear();
        assert!(slot.session_mut().is_none());
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<SessionSlot>();
    }
}
