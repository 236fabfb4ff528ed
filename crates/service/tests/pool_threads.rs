//! Worker threads do not scale with sessions: every session's v2 bulk
//! jobs run on the server's one worker pool.
//!
//! This file holds a single test on purpose: it counts the threads of
//! the whole test process (`/proc/self/task`), so no sibling test may
//! run beside it.

#![cfg(target_os = "linux")]

use rijndael_service::{Client, Op, Server, ServiceConfig, Transport};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn bulk_sessions_share_one_pool_of_farm_len_threads() {
    let config = ServiceConfig::default();
    let farm = config.farm.len();
    let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
    let base = threads();
    let mut clients: Vec<Client> = Vec::new();
    for target in [1, 8, 32] {
        while clients.len() < target {
            let mut client = Client::connect(server.local_addr()).unwrap();
            client.set_key(&[clients.len() as u8; 16]).unwrap();
            client
                .pipeline(Op::CtrApply, Some(&[7; 16]), &[0u8; 4096])
                .unwrap();
            let job = client.collect_next().unwrap();
            assert_eq!(job.result.map(|ct| ct.len()), Ok(4096));
            clients.push(client);
        }
        assert_eq!(
            threads(),
            base + farm,
            "{target} bulk sessions: the pool's {farm} workers and nothing per session"
        );
    }
    drop(clients);
    assert_eq!(threads(), base + farm, "the pool outlives its sessions");
    server.shutdown();
    assert_eq!(
        threads(),
        base - 3,
        "shutdown joins the acceptor, both shards and the pool"
    );
}
