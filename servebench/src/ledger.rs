//! The per-layer ledger: the same seeded CTR request set timed through
//! each layer's public functions, from the dispatch cipher up to the
//! cluster router, with every layer's overhead over the one it calls.
//!
//! Repetitions interleave across layers — one batch of every probe per
//! round — so clock drift and neighbour noise hit all layers alike, and
//! each probe reports the median of its batches. Every batch is one
//! span; the span's duration is the measurement.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cluster::ClusterClient;
use engine::{BackendSpec, Engine, EngineBuilder, Mode, PoolBuilder, WorkerPool};
use rijndael::modes::Ctr;
use rijndael::AutoCipher;
use service::{Client, Frame, Op, RecvBuffer, ServiceConfig, Session, Transport};
use telemetry::{Registry, Value};
use testkit::rng::Rng;

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{reference, Call};

/// Request sizes of the ledger: one below the bulk threshold, a page,
/// and the largest bulk request the workloads send.
const SIZES: [usize; 3] = [64, 4096, 65536];
const SMALL: usize = 0;
const PAGE: usize = 1;
const BULK: usize = 2;

/// One ledger measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Probe {
    Cipher(usize),
    KeySetup,
    Engine(usize),
    EngineBuild,
    Pool(usize),
    PoolBuild,
    SessionExecute(usize),
    SessionSubmitCollect,
    SessionNewDrop,
    Codec(usize),
    WireV1(usize),
    WireV2(usize),
    Cluster(usize),
    Ping,
    SetKey,
    ConnectFirstReply,
    OpenSession,
    TelemetryLookup,
}

impl Probe {
    const ALL: [Probe; 27] = [
        Probe::Cipher(SMALL),
        Probe::Cipher(BULK),
        Probe::KeySetup,
        Probe::Engine(SMALL),
        Probe::Engine(BULK),
        Probe::EngineBuild,
        Probe::Pool(SMALL),
        Probe::Pool(BULK),
        Probe::PoolBuild,
        Probe::SessionExecute(SMALL),
        Probe::SessionExecute(PAGE),
        Probe::SessionExecute(BULK),
        Probe::SessionSubmitCollect,
        Probe::SessionNewDrop,
        Probe::Codec(SMALL),
        Probe::Codec(BULK),
        Probe::WireV1(SMALL),
        Probe::WireV1(PAGE),
        Probe::WireV1(BULK),
        Probe::WireV2(SMALL),
        Probe::WireV2(PAGE),
        Probe::WireV2(BULK),
        Probe::Cluster(SMALL),
        Probe::Cluster(BULK),
        Probe::Ping,
        Probe::SetKey,
        Probe::TelemetryLookup,
    ];

    /// Probes that open a fresh connection and so pay the shard's poll
    /// interval (milliseconds): one call per round.
    const FRESH_CONNECTION: [Probe; 2] = [Probe::ConnectFirstReply, Probe::OpenSession];

    /// Span name of one batch.
    fn name(self) -> &'static str {
        match self {
            Probe::Cipher(_) => "ledger.rijndael.ctr",
            Probe::KeySetup => "ledger.rijndael.key_setup",
            Probe::Engine(_) => "ledger.engine.run",
            Probe::EngineBuild => "ledger.engine.build",
            Probe::Pool(_) => "ledger.pool.rtt",
            Probe::PoolBuild => "ledger.pool.build",
            Probe::SessionExecute(_) => "ledger.session.execute",
            Probe::SessionSubmitCollect => "ledger.session.submit_collect",
            Probe::SessionNewDrop => "ledger.session.new_drop",
            Probe::Codec(_) => "ledger.protocol.codec",
            Probe::WireV1(_) => "ledger.wire.v1_ctr",
            Probe::WireV2(_) => "ledger.wire.v2_ctr",
            Probe::Cluster(_) => "ledger.cluster.ctr",
            Probe::Ping => "ledger.wire.ping",
            Probe::SetKey => "ledger.wire.set_key",
            Probe::ConnectFirstReply => "ledger.wire.connect_first_reply",
            Probe::OpenSession => "ledger.cluster.open_session",
            Probe::TelemetryLookup => "ledger.telemetry.lookup",
        }
    }

    /// Calls per batch, sized so one batch takes well under a
    /// millisecond or two.
    fn iters(self) -> usize {
        match self {
            Probe::Cipher(s) | Probe::Codec(s) => [2000, 200, 20][s],
            Probe::KeySetup => 500,
            Probe::Engine(s) | Probe::SessionExecute(s) => [200, 50, 10][s],
            Probe::Pool(s) => [50, 20, 10][s],
            Probe::SessionSubmitCollect => 200,
            Probe::EngineBuild | Probe::PoolBuild | Probe::SessionNewDrop | Probe::SetKey => 20,
            Probe::WireV1(s) | Probe::WireV2(s) | Probe::Cluster(s) => [50, 30, 10][s],
            Probe::Ping => 50,
            Probe::ConnectFirstReply | Probe::OpenSession => 1,
            Probe::TelemetryLookup => 2000,
        }
    }
}

/// Everything the probes call into, built once before the rounds.
struct Fixture {
    addr: SocketAddr,
    key: Vec<u8>,
    kek: Vec<u8>,
    ctr: [u8; 16],
    data: [Vec<u8>; 3],
    expect: [Vec<u8>; 3],
    farm: Vec<BackendSpec>,
    capacity: usize,
    registry: Registry,
    cipher: AutoCipher,
    scratch: Vec<u8>,
    engine: Engine,
    pool: WorkerPool,
    session: Session,
    recv: RecvBuffer,
    frame_buf: Vec<u8>,
    v1: Client,
    v2: Client,
    cluster: ClusterClient,
    tel: Registry,
    frame_bounds: Vec<u64>,
    corr: u32,
}

impl Fixture {
    fn new(addr: SocketAddr, seed: u64, server_registry: &Registry) -> Fixture {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1ED6_E500);
        let key = rng.gen_array::<16>().to_vec();
        let kek = rng.gen_array::<16>().to_vec();
        let ctr: [u8; 16] = rng.gen_array();
        let data = SIZES.map(|n| {
            let mut v = vec![0u8; n];
            rng.fill_bytes(&mut v);
            v
        });
        let expect = [0, 1, 2].map(|s| reference(&key, &Call::Ctr(ctr, data[s].clone())));
        let config = ServiceConfig::default();
        let registry = Registry::new();
        let engine = EngineBuilder::new()
            .cores(&config.farm)
            .capacity(config.queue_capacity)
            .registry(registry.clone())
            .build(&key);
        let pool = PoolBuilder::new()
            .cores(&config.farm)
            .capacity(config.queue_capacity)
            .registry(registry.clone())
            .build(&key);
        let session = Session::new(1, &key, &config.farm, config.queue_capacity, &registry);
        let mut v1 = Client::connect_v1(addr).expect("ledger v1 connect");
        v1.set_key(&key).expect("ledger v1 key");
        let mut v2 = Client::connect(addr).expect("ledger v2 connect");
        v2.set_key(&key).expect("ledger v2 key");
        let mut cluster = ClusterClient::connect(&[addr], &kek).expect("ledger cluster connect");
        cluster.open_session(&key).expect("ledger cluster session");
        // A registry holding the server's own instrument set, so a
        // lookup walks a map of the size the server walks per request.
        let tel = Registry::new();
        let mut frame_bounds = vec![64, 4096, 65536];
        for e in server_registry.snapshot().entries() {
            match &e.value {
                Value::Counter(_) => drop(tel.counter(&e.name)),
                Value::Gauge(_) => drop(tel.gauge(&e.name)),
                Value::Histogram(h) => {
                    if e.name == "service.frame.request_bytes" {
                        frame_bounds.clone_from(&h.bounds);
                    }
                    drop(tel.histogram(&e.name, &h.bounds));
                }
            }
        }
        Fixture {
            addr,
            cipher: AutoCipher::new(&key).expect("the dispatch lane has a bulk cipher"),
            scratch: data[BULK].clone(),
            key,
            kek,
            ctr,
            data,
            expect,
            farm: config.farm,
            capacity: config.queue_capacity,
            registry,
            engine,
            pool,
            session,
            recv: RecvBuffer::new(),
            frame_buf: Vec::with_capacity(SIZES[BULK] + 64),
            v1,
            v2,
            cluster,
            tel,
            frame_bounds,
            corr: 0,
        }
    }

    fn check(&self, s: usize, out: &[u8]) {
        assert!(
            out == self.expect[s],
            "ledger reply differs from the reference"
        );
    }

    /// Runs one batch of `probe` (`n` calls) and checks the last
    /// output against the reference.
    fn batch(&mut self, probe: Probe, n: usize) {
        match probe {
            Probe::Cipher(s) => {
                let buf = &mut self.scratch[..SIZES[s]];
                buf.copy_from_slice(&self.data[s]);
                // An even number of CTR passes restores the input.
                for _ in 0..n {
                    Ctr::apply_batched(&self.cipher, &self.ctr, 0, black_box(&mut *buf));
                }
                if n % 2 == 1 {
                    let out = buf.to_vec();
                    self.check(s, &out);
                }
            }
            Probe::KeySetup => {
                for _ in 0..n {
                    black_box(AutoCipher::new(black_box(&self.key)));
                }
            }
            Probe::Engine(s) => {
                let mut out = Vec::new();
                for _ in 0..n {
                    self.engine
                        .try_submit(Mode::Ctr(self.ctr), self.data[s].clone())
                        .expect("an idle engine accepts a job");
                    let done = self.engine.run().pop().expect("run drains the job");
                    out = done.data.expect("engine job");
                }
                self.check(s, &out);
            }
            Probe::EngineBuild => {
                for _ in 0..n {
                    black_box(
                        EngineBuilder::new()
                            .cores(&self.farm)
                            .capacity(self.capacity)
                            .registry(self.registry.clone())
                            .build(&self.key),
                    );
                }
            }
            Probe::Pool(s) => {
                let mut out = Vec::new();
                for _ in 0..n {
                    self.pool
                        .try_submit(Mode::Ctr(self.ctr), self.data[s].clone())
                        .expect("an idle pool accepts a job");
                    let done = self
                        .pool
                        .collect_timeout(Duration::from_secs(5))
                        .expect("pool job completes");
                    out = done.data.expect("pool job");
                }
                self.check(s, &out);
            }
            Probe::PoolBuild => {
                for _ in 0..n {
                    black_box(
                        PoolBuilder::new()
                            .cores(&self.farm)
                            .capacity(self.capacity)
                            .registry(self.registry.clone())
                            .build(&self.key),
                    );
                }
            }
            Probe::SessionExecute(s) => {
                let mut out = Vec::new();
                for _ in 0..n {
                    out = self
                        .session
                        .execute(Mode::Ctr(self.ctr), self.data[s].clone())
                        .expect("session execute");
                }
                self.check(s, &out);
            }
            Probe::SessionSubmitCollect => {
                let mut out = Vec::new();
                for _ in 0..n {
                    self.corr = self.corr.wrapping_add(1);
                    self.session
                        .submit(self.corr, Mode::Ctr(self.ctr), self.data[SMALL].clone())
                        .expect("session submit");
                    let mut done = self.session.collect();
                    while done.is_empty() {
                        done = self.session.collect();
                    }
                    out = done.pop().expect("one job").1.expect("session job");
                }
                self.check(SMALL, &out);
            }
            Probe::SessionNewDrop => {
                for _ in 0..n {
                    black_box(Session::new(
                        2,
                        &self.key,
                        &self.farm,
                        self.capacity,
                        &self.registry,
                    ));
                }
            }
            Probe::Codec(s) => {
                let mut payload = self.ctr.to_vec();
                payload.extend_from_slice(&self.data[s]);
                for i in 0..n {
                    let frame = Frame::request(Op::CtrApply, 0, i as u32, 1, payload.clone());
                    self.frame_buf.clear();
                    frame.write_to(&mut self.frame_buf).expect("write to a Vec");
                    self.recv.extend_from_slice(&self.frame_buf);
                    let back = self.recv.next_frame().expect("well-formed").expect("whole");
                    black_box(back);
                }
            }
            Probe::WireV1(s) | Probe::WireV2(s) | Probe::Cluster(s) => {
                let t: &mut dyn Transport = match probe {
                    Probe::WireV1(_) => &mut self.v1,
                    Probe::WireV2(_) => &mut self.v2,
                    _ => &mut self.cluster,
                };
                let mut out = Vec::new();
                for _ in 0..n {
                    out = t.ctr_apply(&self.ctr, &self.data[s]).expect("ledger ctr");
                }
                self.check(s, &out);
            }
            Probe::Ping => {
                for _ in 0..n {
                    self.v1.ping(&[]).expect("ping");
                }
            }
            Probe::SetKey => {
                for _ in 0..n {
                    self.v2.set_key(&self.key).expect("set_key");
                }
            }
            Probe::ConnectFirstReply => {
                for _ in 0..n {
                    let mut c = Client::connect(self.addr).expect("connect");
                    c.ping(&[]).expect("first reply");
                }
            }
            Probe::OpenSession => unreachable!("timed around open_session alone"),
            Probe::TelemetryLookup => {
                let name = Op::CtrApply.name();
                for i in 0..n {
                    self.tel
                        .counter(&format!("service.op.{name}.requests"))
                        .incr();
                    self.tel
                        .histogram("service.frame.request_bytes", &self.frame_bounds)
                        .record(i as u64);
                }
            }
        }
    }
}

/// Runs ledger rounds for `budget` (at least three) against the server
/// at `addr`, recording one span per batch under a span per round.
/// Returns every per-layer metric with its unit.
pub fn run(
    addr: SocketAddr,
    seed: u64,
    budget: Duration,
    server_registry: &Registry,
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut fix = Fixture::new(addr, seed, server_registry);
    // Warm every probe once (lazy pool threads, first-touch pages).
    for p in Probe::ALL {
        fix.batch(p, 1);
    }
    let mut samples: BTreeMap<Probe, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut round = 0u64;
    while round < 3 || start.elapsed() < budget {
        let round_span = tracer.open("ledger.round", None, round);
        for p in Probe::ALL.into_iter().chain(Probe::FRESH_CONNECTION) {
            let n = p.iters();
            let ns = if p == Probe::OpenSession {
                let mut cluster =
                    ClusterClient::connect(&[addr], &fix.kek).expect("ledger cluster connect");
                let id = tracer.open(p.name(), Some(round_span), round);
                cluster.open_session(&fix.key).expect("open_session");
                tracer.close(id)
            } else {
                let id = tracer.open(p.name(), Some(round_span), round);
                fix.batch(p, n);
                tracer.close(id)
            };
            samples.entry(p).or_default().push(ns as f64 / n as f64);
        }
        tracer.close(round_span);
        round += 1;
    }
    let m = |p: Probe| median(&samples[&p]).expect("every probe ran");
    let per_byte = |p: Probe, s: usize| m(p) / SIZES[s] as f64;
    let us = |ns: f64| ns / 1000.0;

    let compacted = compacted_bytes_per_op(&fix);
    vec![
        ("rijndael.small.ns_per_op", m(Probe::Cipher(SMALL)), "ns"),
        (
            "rijndael.bulk.ns_per_byte",
            per_byte(Probe::Cipher(BULK), BULK),
            "ns/B",
        ),
        ("rijndael.key_setup.ns", m(Probe::KeySetup), "ns"),
        ("engine.run.ns_per_op", m(Probe::Engine(SMALL)), "ns"),
        (
            "engine.run.ns_per_byte",
            per_byte(Probe::Engine(BULK), BULK),
            "ns/B",
        ),
        (
            "engine.run.overhead_x",
            m(Probe::Engine(SMALL)) / m(Probe::Cipher(SMALL)),
            "x",
        ),
        (
            "engine.run.bulk_overhead_x",
            m(Probe::Engine(BULK)) / m(Probe::Cipher(BULK)),
            "x",
        ),
        ("engine.build.ns", m(Probe::EngineBuild), "ns"),
        ("pool.rtt_64.ns", m(Probe::Pool(SMALL)), "ns"),
        ("pool.rtt_65536.ns", m(Probe::Pool(BULK)), "ns"),
        (
            "pool.ns_per_byte",
            per_byte(Probe::Pool(BULK), BULK),
            "ns/B",
        ),
        (
            "pool.overhead_x",
            m(Probe::Pool(SMALL)) / m(Probe::Cipher(SMALL)),
            "x",
        ),
        (
            "pool.bulk_overhead_x",
            m(Probe::Pool(BULK)) / m(Probe::Cipher(BULK)),
            "x",
        ),
        ("pool.build.ns", m(Probe::PoolBuild), "ns"),
        ("session.new_drop.ns", m(Probe::SessionNewDrop), "ns"),
        (
            "session.execute.ns_per_op",
            m(Probe::SessionExecute(SMALL)),
            "ns",
        ),
        (
            "session.submit_collect.ns_per_op",
            m(Probe::SessionSubmitCollect),
            "ns",
        ),
        (
            "session.bulk.ns_per_byte",
            per_byte(Probe::SessionExecute(BULK), BULK),
            "ns/B",
        ),
        // Small requests run on the session's engine, bulk ones inline
        // on the dispatch cipher.
        (
            "session.overhead_x",
            m(Probe::SessionExecute(SMALL)) / m(Probe::Engine(SMALL)),
            "x",
        ),
        (
            "session.bulk_overhead_x",
            m(Probe::SessionExecute(BULK)) / m(Probe::Cipher(BULK)),
            "x",
        ),
        ("protocol.codec_64.ns", m(Probe::Codec(SMALL)), "ns"),
        ("protocol.codec_65536.ns", m(Probe::Codec(BULK)), "ns"),
        ("protocol.compacted_bytes_per_op", compacted, "B"),
        ("wire.ping_rtt.us", us(m(Probe::Ping)), "us"),
        ("wire.v1.us_per_op", us(m(Probe::WireV1(SMALL))), "us"),
        (
            "wire.v1.ns_per_byte",
            per_byte(Probe::WireV1(BULK), BULK),
            "ns/B",
        ),
        (
            "wire.v1.overhead_x",
            m(Probe::WireV1(SMALL)) / m(Probe::SessionExecute(SMALL)),
            "x",
        ),
        (
            "wire.v1.bulk_overhead_x",
            m(Probe::WireV1(BULK)) / m(Probe::SessionExecute(BULK)),
            "x",
        ),
        ("wire.v2.us_per_op", us(m(Probe::WireV2(SMALL))), "us"),
        (
            "wire.v2.ns_per_byte",
            per_byte(Probe::WireV2(BULK), BULK),
            "ns/B",
        ),
        // A v2 request is submitted, not executed: small ones ride the
        // session's engine lane, bulk ones the worker pool.
        (
            "wire.v2.overhead_x",
            m(Probe::WireV2(SMALL)) / m(Probe::SessionSubmitCollect),
            "x",
        ),
        (
            "wire.v2.bulk_overhead_x",
            m(Probe::WireV2(BULK)) / m(Probe::Pool(BULK)),
            "x",
        ),
        (
            "wire.v1_self_64.us",
            us(m(Probe::WireV1(SMALL)) - m(Probe::SessionExecute(SMALL))),
            "us",
        ),
        (
            "wire.v1_self_4096.us",
            us(m(Probe::WireV1(PAGE)) - m(Probe::SessionExecute(PAGE))),
            "us",
        ),
        (
            "wire.v1_self_65536.us",
            us(m(Probe::WireV1(BULK)) - m(Probe::SessionExecute(BULK))),
            "us",
        ),
        (
            "wire.v2_self_64.us",
            us(m(Probe::WireV2(SMALL)) - m(Probe::SessionExecute(SMALL))),
            "us",
        ),
        (
            "wire.v2_self_4096.us",
            us(m(Probe::WireV2(PAGE)) - m(Probe::SessionExecute(PAGE))),
            "us",
        ),
        (
            "wire.v2_self_65536.us",
            us(m(Probe::WireV2(BULK)) - m(Probe::SessionExecute(BULK))),
            "us",
        ),
        (
            "wire.set_key_self.us",
            us(m(Probe::SetKey) - m(Probe::SessionNewDrop)),
            "us",
        ),
        (
            "wire.connect_first_reply.us",
            us(m(Probe::ConnectFirstReply)),
            "us",
        ),
        ("cluster.us_per_op", us(m(Probe::Cluster(SMALL))), "us"),
        (
            "cluster.ns_per_byte",
            per_byte(Probe::Cluster(BULK), BULK),
            "ns/B",
        ),
        (
            "cluster.overhead_x",
            m(Probe::Cluster(SMALL)) / m(Probe::WireV2(SMALL)),
            "x",
        ),
        (
            "cluster.bulk_overhead_x",
            m(Probe::Cluster(BULK)) / m(Probe::WireV2(BULK)),
            "x",
        ),
        (
            "cluster.call_self.us",
            us(m(Probe::Cluster(SMALL)) - m(Probe::WireV2(SMALL))),
            "us",
        ),
        ("cluster.open_session.us", us(m(Probe::OpenSession)), "us"),
        ("telemetry.lookup.ns", m(Probe::TelemetryLookup), "ns"),
    ]
}

/// Bytes `RecvBuffer` moves while compacting, per frame, when a stream
/// of alternating 64 B and 64 KiB CTR requests arrives in 64 KiB reads
/// (the server's socket scratch size).
fn compacted_bytes_per_op(fix: &Fixture) -> f64 {
    let mut wire = Vec::new();
    let frames = 64;
    for i in 0..frames {
        let mut payload = fix.ctr.to_vec();
        payload.extend_from_slice(&fix.data[if i % 2 == 0 { SMALL } else { BULK }]);
        Frame::request(Op::CtrApply, 0, i as u32, 1, payload)
            .write_to(&mut wire)
            .expect("write to a Vec");
    }
    let mut recv = RecvBuffer::new();
    let mut parsed = 0;
    for chunk in wire.chunks(64 * 1024) {
        recv.extend_from_slice(chunk);
        while let Some(frame) = recv.next_frame().expect("well-formed") {
            black_box(frame);
            parsed += 1;
        }
    }
    assert_eq!(parsed, frames, "every frame parses back");
    recv.compacted_bytes() as f64 / f64::from(frames)
}
