//! End-to-end cluster tests: real `service` nodes (in-process handles
//! and real child processes), real sockets, one [`ClusterClient`].
//!
//! The load-bearing assertions:
//!
//! * the **same KAT conversation** passes through a plain [`Client`]
//!   and through a 3-node [`ClusterClient`], each over wire v1 and v2
//!   and each as `&mut dyn Transport`, with every op's output equal
//!   byte for byte to an in-process `rijndael` reference — the cluster
//!   is a drop-in transport, not a lookalike;
//! * draining a node under pipelined load **loses nothing** and the
//!   migrated session keeps producing the same CTR stream — the key
//!   really moved;
//! * a byte-sniffing proxy in front of every node proves the **raw
//!   session key crossed the wire to exactly one node**; the migration
//!   target saw only wrapped material;
//! * SIGKILL-ing a node makes only *that node's* sessions fail, with
//!   the typed [`ClientError::NodeUnreachable`] verdict;
//! * a connection lost under pipelined work surfaces its transport
//!   error from `collect_next` instead of a reconnect's confusion.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use rijndael::aead::{self, Gcm, Xts};
use rijndael::modes::{Cbc, Ctr};
use rijndael::ttable::TtableAes;
use rijndael::{cmac, Aead};
use rijndael_cluster::{ClusterClient, NodeProcess, NodeState};
use service::{Client, ClientError, Op, Server, ServiceConfig, ServiceHandle, Transport};

const KEK: [u8; 16] = *b"cluster-kek-0123";

fn spawn_nodes(n: usize) -> (Vec<ServiceHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let config = ServiceConfig::builder().build().expect("default config");
        let handle = Server::new(config)
            .spawn("127.0.0.1:0")
            .expect("bind node on loopback");
        addrs.push(handle.local_addr());
        handles.push(handle);
    }
    (handles, addrs)
}

/// The shared conversation every transport must pass verbatim: the
/// FIPS-197 ECB known answer, then CBC, CTR, CMAC, GCM, key wrap and XTS
/// outputs compared byte for byte with an in-process `rijndael`
/// reference under the same key (so a payload-layout slip such as
/// swapped AAD and body cannot hide behind a roundtrip), their inverses,
/// and ping.
fn kat_conversation(label: &str, t: &mut dyn Transport) {
    let key: [u8; 16] = (0..16).collect::<Vec<u8>>().try_into().unwrap();
    t.set_key(&key).expect("session opens");
    let aes = TtableAes::new(&key).expect("AES-128 key");

    // FIPS-197 appendix C.1.
    let pt = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let ct = t.ecb_encrypt(&pt).expect("ecb");
    assert_eq!(
        ct,
        [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a
        ],
        "{label}: ECB"
    );
    assert_eq!(t.ecb_decrypt(&ct).expect("ecb dec"), pt);

    let iv = [7u8; 16];
    let msg: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37)).collect();
    let cbc = t.cbc_encrypt(&iv, &msg).expect("cbc enc");
    let mut expect = msg.clone();
    Cbc::encrypt(&aes, &iv, &mut expect).expect("whole blocks");
    assert_eq!(cbc, expect, "{label}: CBC");
    assert_eq!(t.cbc_decrypt(&iv, &cbc).expect("cbc dec"), msg);

    let ctr0 = [1u8; 16];
    let stream = t.ctr_apply(&ctr0, b"ctr is an involution").expect("ctr");
    let mut expect = b"ctr is an involution".to_vec();
    Ctr::apply(&aes, &ctr0, &mut expect);
    assert_eq!(stream, expect, "{label}: CTR");
    assert_eq!(
        t.ctr_apply(&ctr0, &stream).expect("ctr back"),
        b"ctr is an involution"
    );

    let tag = t.cmac_tag(b"authenticate me").expect("cmac");
    assert_eq!(tag, cmac::cmac(&aes, b"authenticate me"), "{label}: CMAC");
    assert!(t.cmac_verify(b"authenticate me", &tag).expect("cmac ok"));
    assert!(!t.cmac_verify(b"authenticate ME", &tag).expect("cmac bad"));

    let nonce = [9u8; 12];
    let sealed = t.seal(&nonce, b"aad", b"secret payload").expect("seal");
    let gcm = Gcm::new(TtableAes::new(&key).expect("AES-128 key"));
    assert_eq!(
        sealed,
        gcm.seal(&nonce, b"aad", b"secret payload"),
        "{label}: GCM"
    );
    assert_eq!(
        t.open(&nonce, b"aad", &sealed).expect("open"),
        Some(b"secret payload".to_vec())
    );
    assert_eq!(
        t.open(&nonce, b"tampered", &sealed).expect("open bad"),
        None
    );

    let inner = [0x42u8; 16];
    let wrapped = t.wrap_key(&inner).expect("wrap");
    assert_eq!(
        wrapped,
        aead::wrap(&aes, &inner).expect("wrappable key data"),
        "{label}: key wrap"
    );
    assert_eq!(
        t.unwrap_key(&wrapped).expect("unwrap"),
        Some(inner.to_vec())
    );

    // The service keys both XTS halves with the session key.
    let sectors: Vec<u8> = (0..3 * 32).map(|i| i as u8).collect();
    let xts = t.xts_encrypt(10, 32, &sectors).expect("xts enc");
    let reference = Xts::new(aes.clone(), aes.clone());
    let mut expect = sectors.clone();
    for (i, sector) in expect.chunks_mut(32).enumerate() {
        reference
            .encrypt_sector(10 + i as u64, sector)
            .expect("whole sector");
    }
    assert_eq!(xts, expect, "{label}: XTS");
    assert_eq!(t.xts_decrypt(10, 32, &xts).expect("xts dec"), sectors);

    assert_eq!(t.ping(b"hello?").expect("ping"), b"hello?");
}

#[test]
fn the_same_kat_suite_passes_through_client_and_cluster() {
    let (handles, addrs) = spawn_nodes(3);

    let transports: Vec<(&str, Box<dyn Transport>)> = vec![
        (
            "v2 Client",
            Box::new(Client::connect(addrs[0]).expect("v2 connects")),
        ),
        (
            "v1 Client",
            Box::new(Client::connect_v1(addrs[0]).expect("v1 connects")),
        ),
        (
            "v2 ClusterClient",
            Box::new(ClusterClient::connect(&addrs, &KEK).expect("cluster connects")),
        ),
        (
            "v1 ClusterClient",
            Box::new(ClusterClient::connect_v1(&addrs, &KEK).expect("v1 cluster connects")),
        ),
    ];
    for (label, mut transport) in transports {
        kat_conversation(label, transport.as_mut());
    }

    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn a_cluster_without_a_session_types_its_ops_but_still_pings_and_reports() {
    let (mut handles, addrs) = spawn_nodes(2);
    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");
    // Node 0 stays `Up` in the router's view but no longer answers.
    handles.remove(0).shutdown();

    match fleet.ecb_encrypt(&[0u8; 16]) {
        Err(ClientError::Protocol(what)) => {
            assert!(what.starts_with("no cluster session"), "{what}")
        }
        other => panic!("expected the typed no-session error, got {other:?}"),
    }
    assert_eq!(
        fleet.ping(b"anyone?").expect("an Up node answers"),
        b"anyone?"
    );

    let merged = fleet.stats().expect("fleet stats");
    let scraped = rijndael_cluster::stats::scrape(&merged);
    let get = |name: &str| {
        scraped
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    assert_eq!(
        get("cluster.nodes.reachable"),
        rijndael_cluster::stats::Scraped::Gauge(1)
    );
    assert_eq!(fleet.current_session(), None);
    assert_eq!(fleet.in_flight(), 0);

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn sessions_spread_across_all_nodes() {
    let (handles, addrs) = spawn_nodes(3);
    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");

    let mut counts = [0usize; 3];
    for i in 0..24u8 {
        let key = [i; 16];
        let label = fleet.open_session(&key).expect("session opens");
        counts[fleet.session_node(label).expect("placed")] += 1;
    }
    assert_eq!(fleet.session_count(), 24);
    for (node, &share) in counts.iter().enumerate() {
        assert!(share > 0, "node {node} received no sessions: {counts:?}");
    }

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

/// A byte-sniffing TCP proxy: forwards loopback connections to
/// `backend` and records every client→backend byte. Once armed with
/// [`TapProxy::cut_next`], it drops the next client→backend chunk
/// instead and shuts that connection down on both sides, so the
/// backend never sees the request and the client never gets a reply.
struct TapProxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<Vec<u8>>>,
    cut: Arc<AtomicBool>,
}

impl TapProxy {
    fn spawn(backend: SocketAddr) -> TapProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        let addr = listener.local_addr().expect("proxy addr");
        let upstream = Arc::new(Mutex::new(Vec::new()));
        let cut = Arc::new(AtomicBool::new(false));
        let (tap, armed) = (Arc::clone(&upstream), Arc::clone(&cut));
        thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(client) = conn else { break };
                let Ok(server) = TcpStream::connect(backend) else {
                    continue;
                };
                let (tap, armed) = (Arc::clone(&tap), Arc::clone(&armed));
                let (mut c_read, mut s_write) = (
                    client.try_clone().expect("clone"),
                    server.try_clone().expect("clone"),
                );
                thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = c_read.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                        if armed.swap(false, Ordering::SeqCst) {
                            let _ = c_read.shutdown(std::net::Shutdown::Both);
                            let _ = s_write.shutdown(std::net::Shutdown::Both);
                            return;
                        }
                        tap.lock().expect("tap lock").extend_from_slice(&buf[..n]);
                        if s_write.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    let _ = s_write.shutdown(std::net::Shutdown::Write);
                });
                let (mut s_read, mut c_write) = (server, client);
                thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = s_read.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                        if c_write.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    let _ = c_write.shutdown(std::net::Shutdown::Write);
                });
            }
        });
        TapProxy {
            addr,
            upstream,
            cut,
        }
    }

    fn cut_next(&self) {
        self.cut.store(true, Ordering::SeqCst);
    }

    fn saw(&self, needle: &[u8]) -> bool {
        let bytes = self.upstream.lock().expect("tap lock");
        bytes.windows(needle.len()).any(|w| w == needle)
    }
}

/// SP 800-38A §B.1 standard incrementing function on a whole counter
/// block, advanced `blocks` times.
fn advance_counter(mut ctr: [u8; 16], blocks: u64) -> [u8; 16] {
    for _ in 0..blocks {
        for byte in ctr.iter_mut().rev() {
            let (next, carry) = byte.overflowing_add(1);
            *byte = next;
            if !carry {
                break;
            }
        }
    }
    ctr
}

#[test]
fn drain_migrates_sessions_without_losing_work_or_resending_raw_keys() {
    let (handles, node_addrs) = spawn_nodes(3);
    let proxies: Vec<TapProxy> = node_addrs.iter().map(|&a| TapProxy::spawn(a)).collect();
    let proxy_addrs: Vec<SocketAddr> = proxies.iter().map(|p| p.addr).collect();

    let mut fleet = ClusterClient::connect(&proxy_addrs, &KEK).expect("cluster connects");

    // A distinctive raw key the taps can search for.
    let raw_key: [u8; 16] = *b"\xDE\xAD\xBE\xEF raw key! \xCA\xFE";
    let label = fleet.open_session(&raw_key).expect("session opens");
    let home = fleet.session_node(label).expect("session placed");

    // First half of a CTR stream before the drain.
    let ctr0 = [0x10u8; 16];
    let chunk_a = [0x33u8; 64];
    let chunk_b = [0x44u8; 64];
    let ct_a = fleet.ctr_apply(&ctr0, &chunk_a).expect("pre-drain ctr");

    // Pipelined work in flight across the drain.
    let depth = 12u32;
    let mut corrs = Vec::new();
    for _ in 0..depth {
        corrs.push(
            fleet
                .pipeline(Op::EcbEncrypt, None, &[0u8; 16])
                .expect("pipeline submits"),
        );
    }
    assert_eq!(fleet.in_flight(), depth as usize);

    let moved = fleet.drain(home).expect("drain succeeds");
    assert_eq!(moved, 1, "the one session on the drained node migrates");
    assert_eq!(fleet.node_state(home), NodeState::Draining);
    let target = fleet.session_node(label).expect("still placed");
    assert_ne!(target, home, "session left the draining node");

    // Zero loss: every accepted pipelined job is delivered, once.
    let mut jobs = fleet.collect_all().expect("collect parked work");
    jobs.sort_by_key(|j| j.corr);
    let delivered: Vec<u32> = jobs.iter().map(|j| j.corr).collect();
    let mut expected = corrs.clone();
    expected.sort_unstable();
    assert_eq!(delivered, expected, "drain dropped or duplicated jobs");
    for job in &jobs {
        job.result.as_ref().expect("job completed ok");
    }
    assert_eq!(fleet.in_flight(), 0);

    // Key continuity: the second half of the CTR stream, produced by
    // the migrated session, matches an uninterrupted reference stream
    // under the same raw key on an untouched node.
    let ctr_b = advance_counter(ctr0, (chunk_a.len() / 16) as u64);
    let ct_b = fleet.ctr_apply(&ctr_b, &chunk_b).expect("post-drain ctr");
    let mut reference = Client::connect(node_addrs[target]).expect("reference client");
    reference.set_key(&raw_key).expect("reference key");
    let mut whole = chunk_a.to_vec();
    whole.extend_from_slice(&chunk_b);
    let ct_whole = reference.ctr_apply(&ctr0, &whole).expect("reference ctr");
    let mut spliced = ct_a.clone();
    spliced.extend_from_slice(&ct_b);
    assert_eq!(
        spliced, ct_whole,
        "migrated session does not continue the CTR stream"
    );

    // New sessions avoid the draining node...
    for i in 0..8u8 {
        let fresh = fleet.open_session(&[0x80 | i; 16]).expect("fresh session");
        assert_ne!(fleet.session_node(fresh), Some(home));
    }
    // ...until it is restored.
    fleet.restore(home);
    assert_eq!(fleet.node_state(home), NodeState::Up);

    // The raw session key crossed the wire to the home node only; the
    // migration target saw nothing but wrapped material. (The drained
    // session kept working there, so the target's tap is not empty.)
    assert!(
        proxies[home].saw(&raw_key),
        "home node never received the raw key it was meant to wrap"
    );
    for (i, proxy) in proxies.iter().enumerate() {
        if i != home {
            assert!(
                !proxy.saw(&raw_key),
                "raw session key leaked to node {i} (home was {home})"
            );
        }
    }
    assert!(
        !proxies[target].upstream.lock().expect("tap").is_empty(),
        "migration target saw no traffic at all"
    );

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn killing_a_node_fails_only_its_sessions_with_a_typed_verdict() {
    let exe = env!("CARGO_BIN_EXE_cluster_node");
    let mut nodes: Vec<NodeProcess> = (0..3)
        .map(|_| NodeProcess::spawn(Command::new(exe)).expect("node process starts"))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();

    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");

    // Open sessions until at least two nodes hold one.
    let mut labels = Vec::new();
    for i in 0..12u8 {
        labels.push(fleet.open_session(&[i + 1; 16]).expect("session opens"));
    }
    let victim = fleet.session_node(labels[0]).expect("placed");
    let survivor_label = *labels
        .iter()
        .find(|&&l| fleet.session_node(l) != Some(victim))
        .expect("12 sessions never all land on one of 3 nodes");

    nodes[victim].kill();

    // The victim's session fails with the typed verdict...
    fleet.use_session(labels[0]).expect("known label");
    let err = fleet
        .ecb_encrypt(&[0u8; 16])
        .expect_err("dead node cannot answer");
    match err {
        ClientError::NodeUnreachable { node } => assert_eq!(node, victim),
        other => panic!("expected NodeUnreachable, got {other:?}"),
    }
    assert_eq!(fleet.node_state(victim), NodeState::Down);

    // ...while sessions on surviving nodes keep working,
    fleet.use_session(survivor_label).expect("known label");
    let ct = fleet
        .ecb_encrypt(&[0u8; 16])
        .expect("survivor still serves");
    assert_eq!(ct.len(), 16);

    // and new sessions route around the corpse.
    let fresh = fleet
        .open_session(&[0x77; 16])
        .expect("placement avoids Down");
    assert_ne!(fleet.session_node(fresh), Some(victim));

    drop(fleet);
    for node in &mut nodes {
        node.kill();
    }
}

#[test]
fn cluster_stats_aggregate_every_nodes_counters() {
    let (handles, addrs) = spawn_nodes(3);
    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");

    // Put one session's worth of traffic on every node by opening
    // enough sessions to cover the ring.
    for i in 0..12u8 {
        fleet.open_session(&[i + 40; 16]).expect("session opens");
        fleet.ping(b"load").expect("ping");
    }

    let merged = fleet.stats().expect("aggregate stats");
    assert!(merged.starts_with("{\"schema\":\"telemetry/1\""));
    let scraped = rijndael_cluster::stats::scrape(&merged);
    let get = |name: &str| {
        scraped
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    assert_eq!(
        get("cluster.nodes.reachable"),
        rijndael_cluster::stats::Scraped::Gauge(3)
    );
    for node in 0..3 {
        assert_eq!(
            get(&format!("cluster.node.{node}.up")),
            rijndael_cluster::stats::Scraped::Gauge(1)
        );
    }
    // Every node served at least its health probe + session traffic:
    // the summed served counter must exceed what any single node could
    // have seen (each session is its own connection).
    match get("service.connections.served") {
        rijndael_cluster::stats::Scraped::Counter(served) => {
            assert!(served >= 12, "summed served counter too low: {served}")
        }
        other => panic!("served should be a counter, got {other:?}"),
    }
    match get("service.op.ping.requests") {
        rijndael_cluster::stats::Scraped::Counter(pings) => {
            assert!(pings >= 12, "summed ping counter too low: {pings}")
        }
        other => panic!("ping counter wrong shape: {other:?}"),
    }

    // The health supervisor sees the same picture: every node answers,
    // stays Up, and reports a live-connection gauge (each open session
    // holds a connection).
    let health = fleet.poll_health();
    assert_eq!(health.len(), 3);
    for sample in &health {
        assert!(sample.reachable, "node {} did not answer", sample.node);
        assert_eq!(sample.state, NodeState::Up);
        assert!(
            sample.active_connections.unwrap_or(0) >= 1,
            "node {} reports no active connections with sessions open",
            sample.node
        );
    }

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn a_sync_op_does_not_retry_through_a_reconnect_that_lost_jobs() {
    let (handles, addrs) = spawn_nodes(1);
    let proxy = TapProxy::spawn(addrs[0]);
    let mut fleet = ClusterClient::connect(&[proxy.addr], &KEK).expect("cluster connects");
    let key = [0x6Du8; 16];
    fleet.set_key(&key).expect("session opens");

    // The pipelined request is swallowed and the connection reset; the
    // sync op that follows meets the dead connection.
    proxy.cut_next();
    fleet
        .pipeline(Op::EcbEncrypt, None, &[0u8; 16])
        .expect("the send itself succeeds");
    assert_eq!(fleet.in_flight(), 1);
    match fleet.ecb_encrypt(&[0u8; 16]) {
        Err(ClientError::Io(_) | ClientError::Recv(_)) => {}
        other => panic!("a retry would hide the lost job, got {other:?}"),
    }
    assert_eq!(fleet.in_flight(), 0, "the lost job is gone, and said so");

    // The session was re-established, so the next call is served and a
    // transport error on an idle connection is still retried.
    let ct = fleet
        .ecb_encrypt(&[0u8; 16])
        .expect("re-established session serves");
    let mut expect = [0u8; 16];
    rijndael::BlockCipher::encrypt_in_place(&TtableAes::new(&key).expect("key"), &mut expect);
    assert_eq!(ct, expect);
    proxy.cut_next();
    assert_eq!(
        fleet
            .ecb_encrypt(&[0u8; 16])
            .expect("an idle connection retries"),
        expect
    );

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn collect_next_returns_the_transport_error_that_lost_its_jobs() {
    let (handles, addrs) = spawn_nodes(1);
    let proxy = TapProxy::spawn(addrs[0]);
    let mut fleet = ClusterClient::connect(&[proxy.addr], &KEK).expect("cluster connects");
    let key = [0x5Cu8; 16];
    fleet.set_key(&key).expect("session opens");

    // The pipelined request is written to the socket, then the proxy
    // drops it and resets the connection before any reply exists.
    proxy.cut_next();
    fleet
        .pipeline(Op::EcbEncrypt, None, &[0u8; 16])
        .expect("the send itself succeeds");
    assert_eq!(fleet.in_flight(), 1);
    match fleet.collect_next() {
        Err(ClientError::Io(_) | ClientError::Recv(_)) => {}
        other => panic!("expected the transport error that lost the job, got {other:?}"),
    }
    assert_eq!(
        fleet.in_flight(),
        0,
        "the lost job is gone with its connection"
    );

    // The session was re-established for the next call, under the same key.
    let ct = fleet
        .ecb_encrypt(&[0u8; 16])
        .expect("re-established session serves");
    let mut expect = [0u8; 16];
    rijndael::BlockCipher::encrypt_in_place(&TtableAes::new(&key).expect("key"), &mut expect);
    assert_eq!(ct, expect);

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}
