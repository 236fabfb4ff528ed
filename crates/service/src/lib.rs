//! Framed TCP crypto service in front of the multi-core engine.
//!
//! The paper's IP is a bus-mastered coprocessor; the natural system
//! around a farm of them is a keyed service: clients connect, load a
//! key, and stream mode operations at the engine. This crate is that
//! service, std-only and hermetic like the rest of the workspace:
//!
//! * [`protocol`] — the length-prefixed wire format, versions 1 and 2:
//!   request framing (ECB/CBC/CTR, CMAC, GCM, XTS, key wrap, key load,
//!   ping, stats),
//!   strict frame size limits, typed error replies instead of
//!   disconnects, and — in v2 — a correlation id that makes request
//!   pipelining with out-of-order replies well-defined;
//! * [`session`] — per-connection key management: `SET_KEY` expands one
//!   shared software key schedule and configures a worker pool that keys
//!   its farm on its first bulk job; key material is never echoed and
//!   wipes itself on teardown or re-key; a job either runs on the
//!   caller's thread on the shared schedule or, if pipelined and bulk,
//!   on the worker pool;
//! * [`net`] — the std-only readiness shim (`poll(2)` by direct FFI)
//!   that lets the server watch thousands of nonblocking sockets
//!   without external crates;
//! * [`server`] — the event-driven front end: an acceptor with a typed
//!   admission cap feeding per-connection state machines spread across
//!   a few shard event loops, with request pipelining, per-session
//!   backpressure on the pipelined bulk lane (typed `Busy` replies),
//!   write-backpressure, idle timeouts and a graceful shutdown that
//!   answers every in-flight pipelined job;
//! * [`client`] — [`Client`], one blocking TCP connection to one node:
//!   sequence numbers, correlation matching, the bounded reply stash and
//!   the pipelined submit/collect discipline. The `rijndael-cluster`
//!   router drives one per session;
//! * [`transport`] — the object-safe [`Transport`] trait, the one client
//!   op surface: a six-method wire core (`call`, `set_key`,
//!   `set_key_wrapped`, `pipeline`, `collect_next`, `in_flight`) that
//!   [`Client`] and the cluster router implement, and every typed op
//!   written once over it as a provided method, so callers swap between
//!   a node and a fleet without code changes.
//!
//! Every server owns a [`telemetry::Registry`] that its sessions' worker
//! pools publish into; `GET_STATS` ([`Transport::stats`]) returns one snapshot of
//! it as the stable `telemetry/1` JSON document, and engine failures map
//! onto wire [`ErrorCode`]s through a single `engine::Error` match in
//! the server.
//!
//! # Quick start
//!
//! ```
//! use rijndael_service::server::{Server, ServiceConfig};
//! use rijndael_service::{Client, Transport};
//!
//! let handle = Server::new(ServiceConfig::default())
//!     .spawn("127.0.0.1:0")
//!     .expect("bind");
//! let mut client = Client::connect(handle.local_addr()).expect("connect");
//! client.set_key(&[0u8; 16]).expect("key load");
//! let ct = client.ecb_encrypt(&[0u8; 16]).expect("encrypt");
//! assert_eq!(ct[0], 0x66); // AES-128 zero vector
//! handle.shutdown();
//! ```

// Unsafety is confined to the two audited FFI call sites in [`net`]
// (`poll(2)` and the rlimit pair); everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod net;
pub mod protocol;
pub mod server;
pub mod session;
pub mod transport;

pub use client::{Client, ClientError, PipelinedJob};
pub use protocol::{ErrorCode, Frame, Op, RecvBuffer, RecvError, Status};
pub use server::{ConfigError, Server, ServiceConfig, ServiceConfigBuilder, ServiceHandle};
pub use session::{Session, SessionSlot};
pub use transport::Transport;
