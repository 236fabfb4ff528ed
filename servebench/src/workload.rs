//! The three closed-loop workloads: seeded request scripts with their
//! expected replies, and the client loops that drive them.
//!
//! Every expected reply is computed before timing starts with the
//! portable reference path — a `TtableAes` through the `modes`, `aead`
//! and `cmac` functions with the table-driven GHASH — never with the
//! dispatch lane the server runs, so a wrong backend cannot vouch for
//! itself.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cluster::ClusterClient;
use rijndael::aead::{Aead, Gcm, Xts};
use rijndael::ghash::GhashImpl;
use rijndael::modes::{Cbc, Ctr, Ecb};
use rijndael::{cmac, ttable::TtableAes};
use service::{Client, ClientError, Op, Transport};
use testkit::rng::Rng;

use crate::stats::percentile;
use crate::trace::Tracer;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two blocking clients (v1 `Client`, one-node v2 `ClusterClient`)
    /// sending a seeded mix of 16–256 B requests.
    SmallOps,
    /// A v2 window of eight 64 KiB CTR requests beside a client
    /// alternating 64 KiB GCM seal and 16 × 4 KiB XTS.
    BulkPipelined,
    /// Two v2 clients, each message SET_KEY + 256 B seal + 64 B CTR.
    RekeyChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SmallOps,
        Workload::BulkPipelined,
        Workload::RekeyChurn,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallOps => "small_ops",
            Workload::BulkPipelined => "bulk_pipelined",
            Workload::RekeyChurn => "rekey_churn",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a client reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// `Client::connect_v1`: in-order v1 frames, run inline on the shard.
    V1,
    /// `Client::connect`: protocol v2.
    V2,
    /// A one-node `ClusterClient` (v2), so the router is on the path.
    Cluster,
}

/// One wire request.
#[derive(Debug, Clone)]
pub enum Call {
    /// SET_KEY with this key.
    SetKey(Vec<u8>),
    /// ECB encrypt.
    Ecb(Vec<u8>),
    /// CBC encrypt.
    Cbc([u8; 16], Vec<u8>),
    /// CTR under this initial counter block.
    Ctr([u8; 16], Vec<u8>),
    /// CMAC tag.
    Cmac(Vec<u8>),
    /// GCM seal: nonce, AAD, plaintext.
    Seal([u8; 12], Vec<u8>, Vec<u8>),
    /// GCM open: nonce, AAD, ciphertext ‖ tag.
    Open([u8; 12], Vec<u8>, Vec<u8>),
    /// XTS encrypt: first sector number, sector size, body.
    Xts(u64, u32, Vec<u8>),
}

impl Call {
    /// The wire op, for the server accounting audit.
    pub fn op(&self) -> Op {
        match self {
            Call::SetKey(_) => Op::SetKey,
            Call::Ecb(_) => Op::EcbEncrypt,
            Call::Cbc(..) => Op::CbcEncrypt,
            Call::Ctr(..) => Op::CtrApply,
            Call::Cmac(_) => Op::CmacTag,
            Call::Seal(..) => Op::Seal,
            Call::Open(..) => Op::Open,
            Call::Xts(..) => Op::XtsEncrypt,
        }
    }

    /// Span name of the Transport call.
    pub fn span_name(&self) -> &'static str {
        match self {
            Call::SetKey(_) => "call.set_key",
            Call::Ecb(_) => "call.ecb_encrypt",
            Call::Cbc(..) => "call.cbc_encrypt",
            Call::Ctr(..) => "call.ctr_apply",
            Call::Cmac(_) => "call.cmac_tag",
            Call::Seal(..) => "call.seal",
            Call::Open(..) => "call.open",
            Call::Xts(..) => "call.xts_encrypt",
        }
    }

    /// Request payload bytes that count toward goodput: the data the
    /// crypto runs over, without IVs, nonces, headers, AAD or tags.
    pub fn goodput_bytes(&self) -> usize {
        match self {
            Call::SetKey(_) => 0,
            Call::Ecb(d) | Call::Cbc(_, d) | Call::Ctr(_, d) | Call::Cmac(d) => d.len(),
            Call::Seal(_, _, d) | Call::Xts(_, _, d) => d.len(),
            Call::Open(_, _, sealed) => sealed.len() - 16,
        }
    }

    /// Sends the request and waits for its reply; a tag-check failure on
    /// open comes back as an empty reply, which never matches.
    pub fn send(&self, t: &mut dyn Transport) -> Result<Vec<u8>, ClientError> {
        match self {
            Call::SetKey(k) => t.set_key(k).map(|_| Vec::new()),
            Call::Ecb(d) => t.ecb_encrypt(d),
            Call::Cbc(iv, d) => t.cbc_encrypt(iv, d),
            Call::Ctr(ctr, d) => t.ctr_apply(ctr, d),
            Call::Cmac(m) => t.cmac_tag(m).map(|tag| tag.to_vec()),
            Call::Seal(n, aad, d) => t.seal(n, aad, d),
            Call::Open(n, aad, s) => t.open(n, aad, s).map(Option::unwrap_or_default),
            Call::Xts(base, size, d) => t.xts_encrypt(*base, *size, d),
        }
    }
}

/// A request with its reference reply.
#[derive(Debug, Clone)]
pub struct Req {
    /// What to send.
    pub call: Call,
    /// The reply it must get, byte for byte.
    pub expect: Vec<u8>,
}

fn reference_cipher(key: &[u8]) -> TtableAes {
    TtableAes::new(key).expect("generated keys are 16, 24 or 32 bytes")
}

fn reference_gcm(key: &[u8]) -> Gcm<TtableAes> {
    Gcm::with_ghash_impl(reference_cipher(key), GhashImpl::Portable)
}

/// The reply `call` must get under session key `key`.
pub fn reference(key: &[u8], call: &Call) -> Vec<u8> {
    let c = reference_cipher(key);
    match call {
        Call::SetKey(_) => Vec::new(),
        Call::Ecb(d) => {
            let mut out = d.clone();
            Ecb::encrypt(&c, &mut out).expect("ECB requests are whole blocks");
            out
        }
        Call::Cbc(iv, d) => {
            let mut out = d.clone();
            Cbc::encrypt(&c, iv, &mut out).expect("CBC requests are whole blocks");
            out
        }
        Call::Ctr(ctr, d) => {
            let mut out = d.clone();
            Ctr::apply(&c, ctr, &mut out);
            out
        }
        Call::Cmac(m) => cmac::cmac(&c, m).to_vec(),
        Call::Seal(n, aad, d) => reference_gcm(key).seal(n, aad, d),
        Call::Open(n, aad, s) => reference_gcm(key)
            .open(n, aad, s)
            .expect("open requests carry a reference seal"),
        Call::Xts(base, size, d) => {
            // The service keys both XTS lanes with the session key.
            let xts = Xts::new(c, reference_cipher(key));
            let mut out = d.clone();
            for (i, sector) in out.chunks_mut(*size as usize).enumerate() {
                xts.encrypt_sector(base.wrapping_add(i as u64), sector)
                    .expect("XTS sectors are at least one block");
            }
            out
        }
    }
}

/// One client's part of a workload.
#[derive(Debug, Clone)]
pub struct Script {
    /// How it connects.
    pub kind: ClientKind,
    /// The session key loaded during set-up.
    pub key: Vec<u8>,
    /// The requests, cycled in order until the deadline.
    pub reqs: Vec<Req>,
    /// Requests per message; the deadline is checked between messages.
    pub msg_len: usize,
    /// Pipelined requests kept in flight (0 = blocking calls).
    pub window: usize,
}

/// The cluster key-encryption key every `ClusterClient` script uses.
pub fn cluster_kek(seed: u64) -> [u8; 16] {
    client_rng(seed, 99).gen_array()
}

fn client_rng(seed: u64, client: u64) -> Rng {
    Rng::seed_from_u64(seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn below(rng: &mut Rng, n: u64) -> usize {
    (rng.next_u64() % n) as usize
}

/// Builds `call` and its reference reply under `key`.
fn req(key: &[u8], call: Call) -> Req {
    let expect = reference(key, &call);
    Req { call, expect }
}

/// One request of the small-op mix: CTR, ECB, CBC-encrypt, CMAC tag,
/// GCM seal or GCM open over 16–256 B (straddling the 128 B bulk
/// threshold; whole blocks for ECB/CBC).
fn small_op(rng: &mut Rng, key: &[u8]) -> Req {
    let kind = below(rng, 6);
    let blocks = 16 * (1 + below(rng, 16));
    let any = 16 + below(rng, 241);
    let call = match kind {
        0 => Call::Ctr(rng.gen_array(), bytes(rng, any)),
        1 => Call::Ecb(bytes(rng, blocks)),
        2 => Call::Cbc(rng.gen_array(), bytes(rng, blocks)),
        3 => Call::Cmac(bytes(rng, any)),
        4 => {
            let aad_len = below(rng, 33);
            Call::Seal(rng.gen_array(), bytes(rng, aad_len), bytes(rng, any))
        }
        _ => {
            let nonce = rng.gen_array();
            let aad_len = below(rng, 33);
            let aad = bytes(rng, aad_len);
            let sealed = reference_gcm(key).seal(&nonce, &aad, &bytes(rng, any));
            Call::Open(nonce, aad, sealed)
        }
    };
    req(key, call)
}

/// Distinct requests per small-op client; cycled until the deadline.
const SMALL_POOL: usize = 2048;
/// Distinct 64 KiB requests per bulk client.
const BULK_POOL: usize = 16;
/// Distinct messages per re-keying client.
const REKEY_POOL: usize = 128;
/// Keys in the shared re-keying pool.
const KEY_POOL: usize = 64;
/// Pipelined 64 KiB CTR requests kept in flight by the bulk client.
const BULK_WINDOW: usize = 8;
const BULK_LEN: usize = 64 * 1024;
const XTS_SECTOR: u32 = 4096;

/// The client scripts of `workload` under `seed`, expected replies
/// included.
pub fn plan(workload: Workload, seed: u64) -> Vec<Script> {
    match workload {
        Workload::SmallOps => [ClientKind::V1, ClientKind::Cluster]
            .into_iter()
            .enumerate()
            .map(|(c, kind)| {
                let mut rng = client_rng(seed, c as u64);
                let key = bytes(&mut rng, [16, 32][c]);
                let reqs = (0..SMALL_POOL).map(|_| small_op(&mut rng, &key)).collect();
                Script {
                    kind,
                    key,
                    reqs,
                    msg_len: 1,
                    window: 0,
                }
            })
            .collect(),
        Workload::BulkPipelined => {
            let mut rng = client_rng(seed, 0);
            let key = bytes(&mut rng, 16);
            let reqs = (0..BULK_POOL)
                .map(|_| req(&key, Call::Ctr(rng.gen_array(), bytes(&mut rng, BULK_LEN))))
                .collect();
            let piped = Script {
                kind: ClientKind::V2,
                key,
                reqs,
                msg_len: 1,
                window: BULK_WINDOW,
            };
            let mut rng = client_rng(seed, 1);
            let key = bytes(&mut rng, 32);
            let reqs = (0..BULK_POOL)
                .map(|i| {
                    let call = if i % 2 == 0 {
                        Call::Seal(rng.gen_array(), Vec::new(), bytes(&mut rng, BULK_LEN))
                    } else {
                        Call::Xts(rng.next_u64() >> 1, XTS_SECTOR, bytes(&mut rng, BULK_LEN))
                    };
                    req(&key, call)
                })
                .collect();
            let sync = Script {
                kind: ClientKind::V2,
                key,
                reqs,
                msg_len: 1,
                window: 0,
            };
            vec![piped, sync]
        }
        Workload::RekeyChurn => {
            let mut pool_rng = client_rng(seed, 50);
            let keys: Vec<Vec<u8>> = (0..KEY_POOL)
                .map(|i| bytes(&mut pool_rng, [16, 32][i % 2]))
                .collect();
            (0..2u64)
                .map(|c| {
                    let mut rng = client_rng(seed, c);
                    let mut reqs = Vec::with_capacity(3 * REKEY_POOL);
                    for _ in 0..REKEY_POOL {
                        let key = &keys[below(&mut rng, KEY_POOL as u64)];
                        reqs.push(req(key, Call::SetKey(key.clone())));
                        reqs.push(req(
                            key,
                            Call::Seal(rng.gen_array(), Vec::new(), bytes(&mut rng, 256)),
                        ));
                        reqs.push(req(key, Call::Ctr(rng.gen_array(), bytes(&mut rng, 64))));
                    }
                    Script {
                        kind: ClientKind::V2,
                        key: keys[below(&mut rng, KEY_POOL as u64)].clone(),
                        reqs,
                        msg_len: 3,
                        window: 0,
                    }
                })
                .collect()
        }
    }
}

/// A connected, keyed client.
pub type Conn = Box<dyn Transport + Send>;

/// Connects and keys every client of a workload, in an order that keeps
/// set-up deterministic:
///
/// 1. each cluster router's `ClusterClient::connect` (it opens, pings
///    and drops a probe connection);
/// 2. every plain client's TCP connection, with no request yet;
/// 3. each router's `open_session` (its long-lived connection);
/// 4. every plain client's SET_KEY.
///
/// With the server's round-robin shard hand-off this puts the two
/// long-lived connections on different shards, and because the plain
/// clients are all handed off before any of them awaits a reply, their
/// first requests do not race a shard's poll tick. A router's session
/// connection still can (its probe closes just before), which is why
/// `small_ops` set-up time has two modes.
pub fn connect_all(
    scripts: &[Script],
    addr: SocketAddr,
    kek: &[u8],
) -> Result<Vec<Conn>, ClientError> {
    let mut routers = Vec::with_capacity(scripts.len());
    for s in scripts {
        routers.push(match s.kind {
            ClientKind::Cluster => Some(ClusterClient::connect(&[addr], kek)?),
            _ => None,
        });
    }
    let mut plain = Vec::with_capacity(scripts.len());
    for s in scripts {
        plain.push(match s.kind {
            ClientKind::V1 => Some(Client::connect_v1(addr)?),
            ClientKind::V2 => Some(Client::connect(addr)?),
            ClientKind::Cluster => None,
        });
    }
    for (s, router) in scripts.iter().zip(&mut routers) {
        if let Some(r) = router {
            r.open_session(&s.key)?;
        }
    }
    for (s, client) in scripts.iter().zip(&mut plain) {
        if let Some(c) = client {
            c.set_key(&s.key)?;
        }
    }
    Ok(routers
        .into_iter()
        .zip(plain)
        .map(|pair| -> Conn {
            match pair {
                (Some(router), _) => Box::new(router),
                (None, Some(client)) => Box::new(client),
                (None, None) => unreachable!("every script is a router or a plain client"),
            }
        })
        .collect())
}

/// Length of one measurement window: rates and percentiles are taken
/// per window and combined over the run's full windows by interquartile
/// mean, so a burst of neighbour noise moves one window, not the result.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Latency samples kept per client per window: the first replies of
/// each window, up to 100 000 a second. The buffer is allocated and
/// written before timing starts, so the process's peak memory does not
/// depend on how many requests completed.
const SAMPLES_PER_WINDOW: usize = 50_000;

/// One window of one client.
#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    /// Replies that matched the reference.
    pub ok: u64,
    /// Goodput bytes of those replies.
    pub goodput: u64,
    /// Latency samples recorded in this window.
    pub samples: usize,
}

/// What one client saw during a run.
#[derive(Debug)]
pub struct Tally {
    /// Wire requests sent.
    pub attempted: u64,
    /// Replies that matched the reference byte for byte.
    pub ok: u64,
    /// Replies that arrived but differed from the reference.
    pub mismatches: u64,
    /// Typed service errors, by error-code name.
    pub errors: BTreeMap<&'static str, u64>,
    /// Transport and framing failures (each ends the client's run).
    pub transport: u64,
    /// Requests sent, by wire op name.
    pub ops: BTreeMap<&'static str, u64>,
    /// Correct replies and goodput per [`WINDOW`] since the start.
    pub windows: Vec<Window>,
    /// Send-to-reply nanoseconds of answered requests: window `w` owns
    /// `samples[w * SAMPLES_PER_WINDOW..]`, filled up to its `samples`
    /// count. Replies in the overflow window are not sampled.
    samples: Vec<u32>,
    start: Instant,
}

impl Tally {
    fn new(start: Instant, seconds: f64) -> Tally {
        let windows = window_count(seconds);
        Tally {
            attempted: 0,
            ok: 0,
            mismatches: 0,
            errors: BTreeMap::new(),
            transport: 0,
            ops: BTreeMap::new(),
            windows: vec![Window::default(); windows + 1],
            samples: vec![u32::MAX; windows * SAMPLES_PER_WINDOW],
            start,
        }
    }

    /// Failed requests: typed errors, transport errors and mismatches.
    pub fn failed(&self) -> u64 {
        self.mismatches + self.transport + self.errors.values().sum::<u64>()
    }

    /// Latencies (ns) recorded in window `w`.
    pub fn window_samples(&self, w: usize) -> &[u32] {
        let from = w * SAMPLES_PER_WINDOW;
        &self.samples[from..from + self.windows[w].samples]
    }

    fn sent(&mut self, call: &Call) {
        self.attempted += 1;
        *self.ops.entry(call.op().name()).or_default() += 1;
    }

    /// Books one reply; `false` when the connection is unusable.
    fn answered(&mut self, req: &Req, reply: Result<Vec<u8>, ClientError>, sent: Instant) -> bool {
        let now = Instant::now();
        let ns = u32::try_from((now - sent).as_nanos()).unwrap_or(u32::MAX);
        let since = now - self.start;
        let w = ((since.as_nanos() / WINDOW.as_nanos()) as usize).min(self.windows.len() - 1);
        match reply {
            Ok(_) | Err(ClientError::Service { .. })
                if w + 1 < self.windows.len() && self.windows[w].samples < SAMPLES_PER_WINDOW =>
            {
                self.samples[w * SAMPLES_PER_WINDOW + self.windows[w].samples] = ns;
                self.windows[w].samples += 1;
            }
            _ => {}
        }
        match reply {
            Ok(bytes) => {
                if bytes == req.expect {
                    self.ok += 1;
                    self.windows[w].ok += 1;
                    self.windows[w].goodput += req.call.goodput_bytes() as u64;
                } else {
                    self.mismatches += 1;
                }
                true
            }
            Err(ClientError::Service { code, .. }) => {
                *self.errors.entry(code.name()).or_default() += 1;
                true
            }
            Err(_) => {
                self.transport += 1;
                false
            }
        }
    }
}

/// Full windows in a run of `seconds` (replies after the last full
/// window, such as a pipeline's drain, land in one overflow window).
pub fn window_count(seconds: f64) -> usize {
    (seconds / WINDOW.as_secs_f64()).floor().max(1.0) as usize
}

/// Drives one client until `deadline`: blocking calls message by
/// message, or a pipelined window. With a tracer, every Transport call
/// gets a span under its message's span.
pub fn run(
    conn: &mut dyn Transport,
    script: &Script,
    start: Instant,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Tally {
    let mut tally = Tally::new(start, seconds);
    let deadline = start + Duration::from_secs_f64(seconds);
    if script.window > 0 {
        run_pipelined(conn, script, deadline, &mut tally, tracer);
    } else {
        let mut i = 0usize;
        let mut msg = 0u64;
        'run: while Instant::now() < deadline {
            let msg_span = tracer.as_deref_mut().map(|t| t.open("msg", None, msg));
            for _ in 0..script.msg_len {
                let req = &script.reqs[i % script.reqs.len()];
                i += 1;
                let call_span = tracer
                    .as_deref_mut()
                    .map(|t| t.open(req.call.span_name(), msg_span, msg));
                tally.sent(&req.call);
                let sent = Instant::now();
                let reply = req.call.send(conn);
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), call_span) {
                    t.close(id);
                }
                if !tally.answered(req, reply, sent) {
                    break 'run;
                }
            }
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), msg_span) {
                t.close(id);
            }
            msg += 1;
        }
    }
    tally
}

fn run_pipelined(
    conn: &mut dyn Transport,
    script: &Script,
    deadline: Instant,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) {
    let root = tracer.as_deref_mut().map(|t| t.open("client", None, 0));
    // corr -> (request index, send time, span id)
    let mut pending: HashMap<u32, (usize, Instant, Option<usize>)> = HashMap::new();
    let mut next = 0usize;
    let mut sending = true;
    loop {
        while sending && pending.len() < script.window {
            if Instant::now() >= deadline {
                sending = false;
                break;
            }
            let idx = next % script.reqs.len();
            next += 1;
            let Call::Ctr(ctr, data) = &script.reqs[idx].call else {
                unreachable!("pipelined scripts hold CTR requests only")
            };
            tally.sent(&script.reqs[idx].call);
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open("call.ctr_apply.piped", root, next as u64));
            let sent = Instant::now();
            match conn.pipeline(Op::CtrApply, Some(ctr), data) {
                Ok(corr) => {
                    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                        t.set_req(id, u64::from(corr));
                    }
                    pending.insert(corr, (idx, sent, span));
                }
                Err(_) => {
                    tally.transport += 1;
                    return;
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        let job = match conn.collect_next() {
            Ok(job) => job,
            Err(_) => {
                tally.transport += 1;
                return;
            }
        };
        let Some((idx, sent, span)) = pending.remove(&job.corr) else {
            tally.transport += 1;
            return;
        };
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        let reply = job
            .result
            .map_err(|(code, detail)| ClientError::Service { code, detail });
        tally.answered(&script.reqs[idx], reply, sent);
    }
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
}

/// One pass of every client from a common start.
#[derive(Debug)]
pub struct Pass {
    /// Each client's tally.
    pub clients: Vec<Tally>,
    /// Each client thread's spans, when traced.
    pub tracers: Vec<Tracer>,
    /// Full windows in the pass.
    pub windows: usize,
}

impl Pass {
    /// Sum of `f` over the clients.
    pub fn total(&self, f: impl Fn(&Tally) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// `f` summed over the clients in each full window.
    pub fn per_window(&self, f: impl Fn(&Window) -> u64) -> Vec<u64> {
        (0..self.windows)
            .map(|w| self.clients.iter().map(|c| f(&c.windows[w])).sum())
            .collect()
    }

    /// The `p` latency percentile (µs) of each full window, over every
    /// client's samples in it; `None` when a window cannot report it.
    /// One window is sorted at a time, so the analysis adds little to
    /// the process's peak memory.
    pub fn window_percentiles(&self, p: f64) -> Option<Vec<f64>> {
        (0..self.windows)
            .map(|w| {
                let mut v: Vec<f64> = self
                    .clients
                    .iter()
                    .flat_map(|c| c.window_samples(w))
                    .map(|&ns| f64::from(ns) / 1000.0)
                    .collect();
                v.sort_by(f64::total_cmp);
                percentile(&v, p)
            })
            .collect()
    }

    /// Latency samples recorded over the full windows.
    pub fn sample_count(&self) -> usize {
        (0..self.windows)
            .map(|w| {
                self.clients
                    .iter()
                    .map(|c| c.window_samples(w).len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Merged per-op and per-error tallies, for the server audit.
    pub fn merged(&self) -> (BTreeMap<&'static str, u64>, BTreeMap<&'static str, u64>) {
        let mut ops = BTreeMap::new();
        let mut errors = BTreeMap::new();
        for c in &self.clients {
            for (k, v) in &c.ops {
                *ops.entry(*k).or_default() += v;
            }
            for (k, v) in &c.errors {
                *errors.entry(*k).or_default() += v;
            }
        }
        (ops, errors)
    }
}

/// Runs every client on its own thread from a common start for
/// `seconds`.
pub fn drive(conns: &mut [Conn], scripts: &[Script], seconds: f64, traced: bool) -> Pass {
    let start = Instant::now();
    let results: Vec<(Tally, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(scripts)
            .map(|(conn, script)| {
                s.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(start));
                    let tally = run(conn.as_mut(), script, start, seconds, tracer.as_mut());
                    (tally, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (clients, tracers): (Vec<Tally>, Vec<Option<Tracer>>) = results.into_iter().unzip();
    Pass {
        clients,
        tracers: tracers.into_iter().flatten().collect(),
        windows: window_count(seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic_and_seed_sensitive() {
        for w in Workload::ALL {
            let a = plan(w, 7);
            let b = plan(w, 7);
            let c = plan(w, 8);
            assert_eq!(a[1].reqs[4].expect, b[1].reqs[4].expect, "{}", w.name());
            assert_ne!(a[1].reqs[4].expect, c[1].reqs[4].expect, "{}", w.name());
        }
    }

    #[test]
    fn reference_matches_published_vectors() {
        // FIPS-197 C.1 through ECB, SP 800-38A F.5.1 through CTR.
        let key: Vec<u8> = (0u8..16).collect();
        let pt: Vec<u8> = (0u8..16).map(|i| i * 0x11).collect();
        let ct = reference(&key, &Call::Ecb(pt));
        assert_eq!(ct[..4], [0x69, 0xc4, 0xe0, 0xd8]);
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let ctr = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ];
        let pt = vec![
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let ct = reference(&key, &Call::Ctr(ctr, pt));
        assert_eq!(ct[..4], [0x87, 0x4d, 0x61, 0x91]);
    }

    #[test]
    fn small_ops_straddle_the_bulk_threshold() {
        let scripts = plan(Workload::SmallOps, 1);
        let sizes: Vec<usize> = scripts[0]
            .reqs
            .iter()
            .map(|r| r.call.goodput_bytes())
            .collect();
        assert!(sizes.iter().any(|&n| n < service::session::BULK_THRESHOLD));
        assert!(sizes.iter().any(|&n| n >= service::session::BULK_THRESHOLD));
        assert!(sizes.iter().all(|&n| (16..=256).contains(&n)));
    }
}
