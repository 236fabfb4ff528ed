//! End-to-end exercise of the framed TCP service: concurrent clients
//! against published KATs, typed `Busy` backpressure on the pipelined
//! bulk lane, session lifecycle, and graceful shutdown answering a bulk
//! job still executing.

use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use rijndael_ip::engine::BackendSpec;
use rijndael_ip::service::client::{Client, ClientError};
use rijndael_ip::service::protocol::{ErrorCode, Frame, Op};
use rijndael_ip::service::server::{Server, ServiceConfig};
use rijndael_ip::service::session::BULK_THRESHOLD;
use rijndael_ip::service::Transport;

/// Pulls one counter's value out of a `telemetry/1` JSON document with
/// plain string surgery — the point is to audit the wire bytes without
/// trusting any of the service's own accessors.
fn json_counter(json: &str, name: &str) -> Option<u64> {
    let needle = format!("{{\"name\":\"{name}\",\"type\":\"counter\",\"value\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    rest[..rest.find('}')?].parse().ok()
}

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16 bytes")
}

// SP 800-38A, AES-128 (Appendix F): one key, four-block test stream.
const SP800_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const SP800_PT: &str = "6bc1bee22e409f96e93d7e117393172a\
                        ae2d8a571e03ac9c9eb76fac45af8e51\
                        30c81c46a35ce411e5fbc1191a0a52ef\
                        f69f2445df4f9b17ad2b417be66c3710";
const SP800_ECB_CT: &str = "3ad77bb40d7a3660a89ecaf32466ef97\
                            f5d3d58503b9699de785895a96fdbaaf\
                            43b1cd7f598ece23881b00e3ed030688\
                            7b0c785e27e8ad3f8223207104725dd4";
const SP800_CBC_IV: &str = "000102030405060708090a0b0c0d0e0f";
const SP800_CBC_CT: &str = "7649abac8119b246cee98e9b12e9197d\
                            5086cb9b507219ee95db113a917678b2\
                            73bed6b8e3c1743b7116e69e22229516\
                            3ff1caa1681fac09120eca307586e1a7";
const SP800_CTR_ICB: &str = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff";
const SP800_CTR_CT: &str = "874d6191b620e3261bef6864990db6ce\
                            9806f66b7970fdff8617187bb9fffdff\
                            5ae4df3edbd5d35e5b4f09020db03eab\
                            1e031dda2fbe03d1792170a0f3009cee";
// RFC 4493 example 2 (same key, first SP 800-38A block).
const CMAC_TAG_1BLOCK: &str = "070a16b46b4d4144f79bdd9dd04a287c";

// FIPS-197 Appendix C.1.
const FIPS_KEY: &str = "000102030405060708090a0b0c0d0e0f";
const FIPS_PT: &str = "00112233445566778899aabbccddeeff";
const FIPS_CT: &str = "69c4e0d86a7b0430d8cdb78070b4c55a";

fn spawn_server(farm: Vec<BackendSpec>, queue: usize) -> rijndael_ip::service::ServiceHandle {
    Server::new(
        ServiceConfig::builder()
            .farm(&farm)
            .queue_capacity(queue)
            .max_connections(16)
            .idle_timeout(Duration::from_secs(10))
            .event_threads(2)
            .build()
            .expect("valid test config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port")
}

/// One client's full KAT conversation (SP 800-38A + RFC 4493), written
/// against the unified `Transport` surface so a cluster router can run
/// the identical script.
fn sp800_conversation(client: &mut dyn Transport) {
    let session = client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
    assert_ne!(session, 0);

    let pt = hex(SP800_PT);
    let ct = client.ecb_encrypt(&pt).expect("ECB encrypt");
    assert_eq!(ct, hex(SP800_ECB_CT), "SP 800-38A F.1.1");
    assert_eq!(client.ecb_decrypt(&ct).expect("ECB decrypt"), pt);

    let iv = hex16(SP800_CBC_IV);
    let ct = client.cbc_encrypt(&iv, &pt).expect("CBC encrypt");
    assert_eq!(ct, hex(SP800_CBC_CT), "SP 800-38A F.2.1");
    assert_eq!(client.cbc_decrypt(&iv, &ct).expect("CBC decrypt"), pt);

    let icb = hex16(SP800_CTR_ICB);
    let ct = client.ctr_apply(&icb, &pt).expect("CTR apply");
    assert_eq!(ct, hex(SP800_CTR_CT), "SP 800-38A F.5.1");
    assert_eq!(client.ctr_apply(&icb, &ct).expect("CTR re-apply"), pt);

    let tag = client.cmac_tag(&pt[..16]).expect("CMAC tag");
    assert_eq!(tag.to_vec(), hex(CMAC_TAG_1BLOCK), "RFC 4493 example 2");
    assert!(client.cmac_verify(&pt[..16], &tag).expect("CMAC verify"));
    let mut bad = tag;
    bad[0] ^= 1;
    assert!(!client.cmac_verify(&pt[..16], &bad).expect("CMAC verify"));
}

#[test]
fn four_concurrent_clients_roundtrip_published_kats() {
    // A deliberately heterogeneous farm. The KAT conversations are all
    // small synchronous requests, so they run on each session's shared
    // schedule and never key the farm; the farm only backs bulk jobs.
    let server = spawn_server(
        vec![
            BackendSpec::EncDecCore,
            BackendSpec::Software,
            BackendSpec::Ttable,
            BackendSpec::EncDecCore,
        ],
        8,
    );
    let addr = server.local_addr();

    let mut clients = Vec::new();
    for i in 0..4 {
        clients.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            if i == 0 {
                // One client runs the FIPS-197 vector instead, proving
                // sessions are keyed independently.
                client.set_key(&hex16(FIPS_KEY)).expect("SET_KEY");
                let ct = client.ecb_encrypt(&hex(FIPS_PT)).expect("encrypt");
                assert_eq!(ct, hex(FIPS_CT), "FIPS-197 C.1");
                assert_eq!(client.ecb_decrypt(&ct).expect("decrypt"), hex(FIPS_PT));
            } else {
                sp800_conversation(&mut client);
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    assert_eq!(server.connections_served(), 4);
    server.shutdown();
}

/// A farm whose cores hold each bulk job open for about 80 ms (8
/// blocks at 10 ms), so pipelined requests find the pool lane busy.
fn paced_farm() -> Vec<BackendSpec> {
    vec![BackendSpec::Paced {
        block_ns: 10_000_000,
    }]
}

/// Eight SP 800-38A blocks (the four-block stream twice): exactly
/// `BULK_THRESHOLD`, so a pipelined ECB request takes the pool lane.
fn bulk_ecb_vector() -> (Vec<u8>, Vec<u8>) {
    let (pt, ct) = (hex(SP800_PT).repeat(2), hex(SP800_ECB_CT).repeat(2));
    assert!(pt.len() >= BULK_THRESHOLD);
    (pt, ct)
}

#[test]
fn busy_backpressure_surfaces_and_a_finished_job_frees_a_slot() {
    let server = spawn_server(paced_farm(), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");

    let (pt, ct) = bulk_ecb_vector();
    let corrs: Vec<u32> = (0..3)
        .map(|_| {
            client
                .pipeline(Op::EcbEncrypt, None, &pt)
                .expect("pipeline")
        })
        .collect();
    let mut jobs = client.collect_all().expect("collect");
    jobs.sort_by_key(|job| job.corr);
    assert_eq!(jobs.iter().map(|job| job.corr).collect::<Vec<_>>(), corrs);
    assert_eq!(jobs[0].result, Ok(ct.clone()));
    assert_eq!(jobs[1].result, Ok(ct.clone()));
    // Both slots (capacity 2) were taken by executing jobs: the third
    // reply is a typed Busy carrying the capacity, not a disconnect and
    // not an unbounded queue.
    assert_eq!(jobs[2].result, Err((ErrorCode::Busy, 2)));
    // And the connection is fully usable afterwards.
    assert_eq!(client.ping(b"still here").unwrap(), b"still here");

    // The finished jobs freed their slots: the bounced job now goes
    // through.
    let corr = client
        .pipeline(Op::EcbEncrypt, None, &pt)
        .expect("pipeline");
    let job = client.collect_next().expect("collect");
    assert_eq!(job.corr, corr);
    assert_eq!(job.result, Ok(ct));
    server.shutdown();
}

#[test]
fn a_job_the_farm_cannot_run_gets_a_typed_job_failed_reply() {
    // An encrypt-only farm has no datapath for ECB decryption. Only the
    // pool lane runs on the farm, so the bulk request fails typed while
    // a small request on the same connection still succeeds.
    let server = spawn_server(vec![BackendSpec::EncryptCore], 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");

    let (pt, ct) = bulk_ecb_vector();
    let corr = client
        .pipeline(Op::EcbDecrypt, None, &ct)
        .expect("pipeline");
    let job = client.collect_next().expect("collect");
    assert_eq!(job.corr, corr);
    assert_eq!(job.result, Err((ErrorCode::JobFailed, 0)));
    assert_eq!(client.ping(b"still here").unwrap(), b"still here");
    assert_eq!(
        server
            .registry()
            .snapshot()
            .counter("service.error.job_failed"),
        Some(1)
    );

    // The caller-thread lane does not depend on what the farm can do.
    assert_eq!(
        client.ecb_decrypt(&ct[..16]).expect("small decrypt"),
        pt[..16]
    );
    server.shutdown();
}

#[test]
fn get_stats_matches_an_independently_computed_tally() {
    let server = spawn_server(vec![BackendSpec::Software; 2], 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Generate a workload whose books we keep by hand. Only pipelined
    // bulk requests reach the farm (the session's worker pool), so the
    // farm traffic is five of those; the small requests below run on
    // the caller-thread lane and must not show up in the engine books.
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
    let pt = hex(SP800_PT);
    let (bulk_pt, bulk_ct) = (pt.repeat(8), hex(SP800_ECB_CT).repeat(8));
    assert!(bulk_pt.len() >= BULK_THRESHOLD);
    let mut blocks = 0u64;
    for _ in 0..5 {
        client
            .pipeline(Op::EcbEncrypt, None, &bulk_pt)
            .expect("pipeline");
        blocks += (bulk_pt.len() / 16) as u64;
    }
    for job in client.collect_all().expect("collect") {
        assert_eq!(job.result, Ok(bulk_ct.clone()));
    }
    client.ecb_encrypt(&pt).expect("small encrypt");
    for _ in 0..3 {
        client.ping(b"x").expect("ping");
    }
    assert!(matches!(
        client.ecb_encrypt(&pt[..15]),
        Err(ClientError::Service {
            code: ErrorCode::RaggedLength,
            detail: 15
        })
    ));

    let json = client.stats().expect("GET_STATS");

    // Per-opcode counts match the tally (the ragged attempt still counts
    // as an ecb_encrypt request, and lands in the error tallies too).
    assert_eq!(json_counter(&json, "service.op.set_key.requests"), Some(1));
    assert_eq!(
        json_counter(&json, "service.op.ecb_encrypt.requests"),
        Some(7)
    );
    assert_eq!(json_counter(&json, "service.op.ping.requests"), Some(3));
    assert_eq!(json_counter(&json, "service.error.ragged_length"), Some(1));

    // Engine counters: both cores are software models (one block per
    // cycle, no key-setup cycles), so the blocks they report must sum to
    // the tally and every core's datapath occupancy is exactly 100%.
    let mut total = 0u64;
    for i in 0..2 {
        let prefix = format!("engine.core.{i}.soft-ref");
        let b = json_counter(&json, &format!("{prefix}.blocks")).expect("blocks counter");
        let cycles = json_counter(&json, &format!("{prefix}.cycles")).expect("cycles counter");
        let setup = json_counter(&json, &format!("{prefix}.setup_cycles")).expect("setup counter");
        let busy = json_counter(&json, &format!("{prefix}.busy_cycles")).expect("busy counter");
        assert_eq!(setup, 0, "software backends pay no setup cycles");
        assert_eq!(busy, cycles, "software cores stay 100% occupied");
        assert_eq!(cycles, b, "software cores run one block per cycle");
        total += b;
    }
    assert_eq!(total, blocks, "engine books must match the client's");

    // The wire document and the in-process registry agree entry for
    // entry — there is exactly one counter path.
    let snap = server.registry().snapshot();
    assert_eq!(snap.counter("service.op.ecb_encrypt.requests"), Some(7));
    assert_eq!(
        json_counter(&json, "service.connections.served"),
        snap.counter("service.connections.served")
    );

    // GET_STATS with a payload is malformed — and survivable.
    client
        .send_raw(&Frame::request(Op::GetStats, 0, 777, 0, vec![1, 2]))
        .unwrap();
    let reply = client.recv_raw().unwrap();
    assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 2)));
    assert_eq!(client.ping(b"alive").unwrap(), b"alive");

    server.shutdown();
}

#[test]
fn stale_sessions_are_rejected_after_rekey() {
    let server = spawn_server(vec![BackendSpec::Software], 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
    let second = client.set_key(&hex16(FIPS_KEY)).expect("re-key");
    assert_ne!(first, second);

    // A pipelined request still naming the dead session gets the typed
    // StaleSession error with the live id as detail.
    client
        .send_raw(&Frame::request(Op::EcbEncrypt, 0, 99, first, vec![0; 16]))
        .unwrap();
    let reply = client.recv_raw().unwrap();
    assert_eq!(reply.error_body(), Some((ErrorCode::StaleSession, second)));

    // The live session answers with the new key.
    let ct = client.ecb_encrypt(&hex(FIPS_PT)).expect("encrypt");
    assert_eq!(ct, hex(FIPS_CT));
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_an_executing_bulk_job_before_the_goodbye() {
    let server = spawn_server(paced_farm(), 2);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");

    let (pt, ct) = bulk_ecb_vector();
    let corr = client
        .pipeline(Op::EcbEncrypt, None, &pt)
        .expect("pipeline");
    // The ping's reply proves the server dispatched the bulk request
    // before it; the gauge shows the job still executing on the pool.
    assert_eq!(client.ping(b"").unwrap(), b"");
    let inflight = server
        .registry()
        .snapshot()
        .gauge("service.pipeline.inflight");
    assert_eq!(inflight, Some(1));

    // Shutdown with the job still executing: the shard must wait it out
    // and deliver its reply before the goodbye. shutdown() returning
    // proves every server thread joined — no leaks, no panics.
    server.shutdown();

    let job = client.collect_next().expect("drained job reply");
    assert_eq!(job.corr, corr);
    assert_eq!(job.result, Ok(ct));

    let goodbye = client.recv_raw().expect("goodbye frame");
    assert_eq!(goodbye.error_body(), Some((ErrorCode::ShuttingDown, 0)));

    // The listener is gone with the threads: new connections fail.
    assert!(TcpStream::connect(addr).is_err());
}
