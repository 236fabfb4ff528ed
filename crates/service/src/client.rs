//! Blocking loopback client: one [`Client`] per TCP connection to one
//! service node, the wire core under every typed op.
//!
//! `Client` owns everything a correct conversation needs: the sequence
//! counter, the live session id, the v1/v2 framing choice, the set of
//! outstanding correlation ids and the bounded stash of out-of-order
//! replies. It implements the six-method core of [`Transport`]; the
//! typed ops ([`Transport::ecb_encrypt`], [`Transport::seal`], ...)
//! are the trait's provided methods, so bring `Transport` into scope to
//! call them. The cluster router drives one `Client` per session
//! through the same core, which is why the two never disagree about
//! framing or payload layout.
//!
//! The client maps [`Status::Error`] replies into
//! [`ClientError::Service`], and matches every reply to its request by
//! **correlation id** — never by arrival order. That makes it safe
//! against the v2 server's out-of-order completions: a reply for a
//! different outstanding request is stashed and delivered when its own
//! call asks for it, and only a reply that matches *nothing*
//! outstanding is an error ([`ClientError::StrayReply`] — the old
//! client failed hard on any sequence mismatch, with no way to
//! resynchronise). The stash is bounded at [`Client::STASH_CAP`]
//! frames: a caller that abandons correlation ids can no longer grow
//! it without limit — the oldest stashed reply is dropped instead and
//! counted in [`Client::stash_evictions`].
//!
//! Two request disciplines are exposed:
//!
//! * **blocking** — [`Transport::call`] and every typed op built on
//!   it: send one request, wait for its reply;
//! * **pipelined** — [`Transport::pipeline`] sends without waiting
//!   (depth-N in flight per connection), [`Transport::collect_next`] /
//!   [`Transport::collect_all`] receive completions in whatever order
//!   the server finished them; a full bulk lane answers a typed `Busy`.
//!
//! [`Client::connect`] speaks protocol v2; [`Client::connect_v1`]
//! pins the connection to the version-1 layout for compatibility
//! testing against the in-order v1 contract. The raw
//! [`Client::send_raw`] / [`Client::recv_raw`] pair is for protocol
//! tests that need to send deliberately malformed traffic.

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{ErrorCode, Frame, Op, RecvError, Status, PROTOCOL_V1, PROTOCOL_V2};
use crate::transport::Transport;

/// Failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Broken framing in a reply.
    Recv(RecvError),
    /// The server answered with a typed error.
    Service {
        /// The typed failure code.
        code: ErrorCode,
        /// The code-specific detail value.
        detail: u32,
    },
    /// A reply whose correlation id matches no outstanding request —
    /// a duplicate, or an answer to something this client never sent.
    StrayReply {
        /// The unmatched correlation id.
        corr: u32,
    },
    /// A cluster node stayed down through a reconnect attempt: the
    /// router could neither reach it nor re-establish the session. The
    /// raw transport failure was already consumed by the retry — this
    /// is the typed verdict that replaces it.
    NodeUnreachable {
        /// The cluster's index for the unreachable node.
        node: usize,
    },
    /// The reply did not have the shape the call expected.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Recv(e) => write!(f, "framing error: {e}"),
            ClientError::Service { code, detail } => {
                write!(f, "service error: {code} (detail {detail})")
            }
            ClientError::StrayReply { corr } => {
                write!(f, "stray reply: correlation id {corr} matches no request")
            }
            ClientError::NodeUnreachable { node } => {
                write!(f, "cluster node {node} unreachable after reconnect attempt")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(io) => ClientError::Io(io),
            other => ClientError::Recv(other),
        }
    }
}

/// One pipelined completion, delivered by [`Transport::collect_next`]
/// in engine completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedJob {
    /// The correlation id [`Transport::pipeline`] returned for the
    /// request.
    pub corr: u32,
    /// The processed bytes, or the typed per-job failure (`Busy`,
    /// `RaggedLength`, ...).
    pub result: Result<Vec<u8>, (ErrorCode, u32)>,
}

/// A blocking connection to one service node: the [`Transport`] wire
/// core over a single TCP stream.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    seq: u32,
    session: u32,
    version: u8,
    /// Correlation ids of pipelined requests still awaiting replies.
    pending: HashSet<u32>,
    /// Out-of-order pipelined replies received while waiting for
    /// something else, in arrival order; never longer than
    /// [`Client::STASH_CAP`].
    stash: Vec<Frame>,
    /// Stashed replies dropped at the cap (their correlation ids are
    /// forgotten with them).
    stash_evicted: u64,
}

impl Client {
    /// Most out-of-order replies held for later collection before the
    /// oldest is dropped. A caller that abandons correlation ids (sends
    /// pipelined work and never collects) previously grew the stash
    /// without bound; now it saturates here.
    pub const STASH_CAP: usize = 1024;

    /// Connects (with `TCP_NODELAY`) speaking protocol v2, sequence
    /// numbering starting at 1.
    ///
    /// # Errors
    ///
    /// Propagates connect/setsockopt failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_version(addr, PROTOCOL_V2)
    }

    /// Connects pinned to the version-1 wire format (11-byte header,
    /// strictly in-order replies) — the compatibility path for peers
    /// that predate pipelining.
    ///
    /// # Errors
    ///
    /// Propagates connect/setsockopt failures.
    pub fn connect_v1<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_version(addr, PROTOCOL_V1)
    }

    fn connect_version<A: ToSocketAddrs>(addr: A, version: u8) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            seq: 0,
            session: 0,
            version,
            pending: HashSet::new(),
            stash: Vec::new(),
            stash_evicted: 0,
        })
    }

    /// The live session id (0 before the first [`Transport::set_key`]).
    #[must_use]
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The wire-format version this connection speaks.
    #[must_use]
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Stashed replies dropped at [`Client::STASH_CAP`] over the
    /// connection's lifetime.
    #[must_use]
    pub fn stash_evictions(&self) -> u64 {
        self.stash_evicted
    }

    fn next_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    fn request(&self, op: Op, seq: u32, payload: Vec<u8>) -> Frame {
        if self.version >= PROTOCOL_V2 {
            Frame::request(op, 0, seq, self.session, payload)
        } else {
            Frame::request_v1(op, 0, seq, self.session, payload)
        }
    }

    /// Sends a frame verbatim (protocol-test escape hatch).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn send_raw(&mut self, frame: &Frame) -> io::Result<()> {
        frame.write_to(&mut self.stream)
    }

    /// Reads the next reply frame verbatim (protocol-test escape
    /// hatch). Bypasses correlation matching — mixing this with
    /// outstanding pipelined requests will misroute replies.
    ///
    /// # Errors
    ///
    /// Transport or framing errors.
    pub fn recv_raw(&mut self) -> Result<Frame, RecvError> {
        Frame::read_from(&mut self.stream)
    }

    /// Sends one request whose payload is `parts` concatenated (the
    /// one copy of the caller's bytes) and returns its correlation id.
    fn send(&mut self, op: Op, parts: &[&[u8]]) -> Result<u32, ClientError> {
        let seq = self.next_seq();
        let request = self.request(op, seq, parts.concat());
        self.send_raw(&request)?;
        Ok(seq)
    }

    /// Stashes an out-of-order reply, evicting the oldest stashed frame
    /// (and forgetting its correlation id) once the cap is reached.
    fn stash_reply(&mut self, reply: Frame) {
        if self.stash.len() >= Self::STASH_CAP {
            let evicted = self.stash.remove(0);
            self.pending.remove(&evicted.corr);
            self.stash_evicted += 1;
        }
        self.stash.push(reply);
    }

    /// Reads until the reply correlated `want` arrives; pipelined
    /// replies that arrive in between are stashed for their own
    /// collection calls.
    fn recv_matched(&mut self, want: u32) -> Result<Frame, ClientError> {
        loop {
            let reply = self.recv_raw()?;
            if reply.corr == want {
                return Ok(reply);
            }
            if self.pending.contains(&reply.corr) {
                self.stash_reply(reply);
                continue;
            }
            // An unsolicited goodbye (idle timeout, shutdown) carries
            // corr 0 and outranks whatever we were waiting for.
            if reply.corr == 0 {
                if let Some((code, detail)) = reply.error_body() {
                    return Err(ClientError::Service { code, detail });
                }
            }
            return Err(ClientError::StrayReply { corr: reply.corr });
        }
    }

    /// `SET_KEY` / `SET_KEY_WRAPPED`: the reply names the fresh session
    /// every later request carries.
    fn rekey(&mut self, op: Op, material: &[u8]) -> Result<u32, ClientError> {
        let reply = self.call(op, &[material])?;
        self.session = reply.session;
        Ok(reply.session)
    }
}

impl Transport for Client {
    fn call(&mut self, op: Op, parts: &[&[u8]]) -> Result<Frame, ClientError> {
        let seq = self.send(op, parts)?;
        let reply = self.recv_matched(seq)?;
        if let Some((code, detail)) = reply.error_body() {
            return Err(ClientError::Service { code, detail });
        }
        if reply.status() != Some(Status::Ok) {
            return Err(ClientError::Protocol(format!(
                "expected Ok, got kind {:#04x}",
                reply.kind
            )));
        }
        Ok(reply)
    }

    fn set_key(&mut self, key: &[u8]) -> Result<u32, ClientError> {
        self.rekey(Op::SetKey, key)
    }

    fn set_key_wrapped(&mut self, wrapped: &[u8]) -> Result<u32, ClientError> {
        self.rekey(Op::SetKeyWrapped, wrapped)
    }

    fn pipeline(&mut self, op: Op, iv: Option<&[u8; 16]>, data: &[u8]) -> Result<u32, ClientError> {
        let iv: &[u8] = iv.map_or(&[], |iv| iv);
        let corr = self.send(op, &[iv, data])?;
        self.pending.insert(corr);
        Ok(corr)
    }

    fn collect_next(&mut self) -> Result<PipelinedJob, ClientError> {
        if self.pending.is_empty() && self.stash.is_empty() {
            return Err(ClientError::Protocol(
                "collect_next with no pipelined request in flight".into(),
            ));
        }
        let reply = if self.stash.is_empty() {
            self.recv_raw()?
        } else {
            self.stash.remove(0)
        };
        if !self.pending.remove(&reply.corr) {
            if reply.corr == 0 {
                if let Some((code, detail)) = reply.error_body() {
                    return Err(ClientError::Service { code, detail });
                }
            }
            return Err(ClientError::StrayReply { corr: reply.corr });
        }
        let result = match reply.error_body() {
            Some((code, detail)) => Err((code, detail)),
            None => Ok(reply.payload),
        };
        Ok(PipelinedJob {
            corr: reply.corr,
            result,
        })
    }

    /// A stashed reply counts until its own collection call delivers
    /// it (the stash only ever holds replies whose correlation id is
    /// still outstanding, so the pending set alone is the honest tally).
    fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// A scripted peer: accepts one connection, reads `expect` frames,
    /// then plays back `replies` verbatim. Lets the tests hand the
    /// client deliberately reordered or duplicated replies.
    fn scripted_server(
        expect: usize,
        replies: Vec<Frame>,
    ) -> (std::net::SocketAddr, thread::JoinHandle<Vec<Frame>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::with_capacity(expect);
            for _ in 0..expect {
                seen.push(Frame::read_from(&mut stream).unwrap());
            }
            for reply in &replies {
                reply.write_to(&mut stream).unwrap();
            }
            seen
        });
        (addr, handle)
    }

    fn ok_reply(corr: u32, payload: Vec<u8>) -> Frame {
        Frame::reply(Status::Ok, corr, 1, payload).with_corr(corr)
    }

    #[test]
    fn reordered_replies_match_by_correlation_id() {
        // Replies come back in reverse submission order; every job must
        // still land on its own correlation id.
        let (addr, server) = scripted_server(
            3,
            vec![
                ok_reply(3, vec![0x33]),
                ok_reply(1, vec![0x11]),
                ok_reply(2, vec![0x22]),
            ],
        );
        let mut client = Client::connect(addr).unwrap();
        let a = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        let b = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        let c = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        assert_eq!((a, b, c), (1, 2, 3));
        assert_eq!(client.in_flight(), 3);

        let jobs = client.collect_all().unwrap();
        assert_eq!(client.in_flight(), 0);
        let by_corr: std::collections::HashMap<u32, Vec<u8>> = jobs
            .into_iter()
            .map(|j| (j.corr, j.result.unwrap()))
            .collect();
        assert_eq!(by_corr[&1], vec![0x11]);
        assert_eq!(by_corr[&2], vec![0x22]);
        assert_eq!(by_corr[&3], vec![0x33]);
        server.join().unwrap();
    }

    #[test]
    fn duplicate_replies_are_typed_stray_errors() {
        let (addr, server) =
            scripted_server(1, vec![ok_reply(1, vec![0xAA]), ok_reply(1, vec![0xAA])]);
        let mut client = Client::connect(addr).unwrap();
        client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        // Force a second receive after the pipeline drains by sending
        // another request; the duplicate arrives first and matches
        // nothing.
        let first = client.collect_next().unwrap();
        assert_eq!(first.corr, 1);
        let request = client.request(Op::Ping, 99, Vec::new());
        client.send_raw(&request).unwrap();
        match client.recv_matched(99) {
            Err(ClientError::StrayReply { corr: 1 }) => {}
            other => panic!("expected StrayReply {{ corr: 1 }}, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn blocking_calls_stash_interleaved_pipelined_replies() {
        // The server answers the pipelined job FIRST, then the ping.
        // The blocking ping must stash the pipelined completion and
        // deliver it at collect_next — zero socket reads by then.
        let (addr, server) = scripted_server(
            2,
            vec![ok_reply(1, vec![0xEE]), ok_reply(2, b"pong".to_vec())],
        );
        let mut client = Client::connect(addr).unwrap();
        let corr = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        let pong = client.ping(b"pong").unwrap();
        assert_eq!(pong, b"pong");
        let job = client.collect_next().unwrap();
        assert_eq!(job.corr, corr);
        assert_eq!(job.result.unwrap(), vec![0xEE]);
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].op(), Some(Op::EcbEncrypt));
        assert_eq!(seen[1].op(), Some(Op::Ping));
    }

    #[test]
    fn v1_client_emits_v1_frames() {
        let (addr, server) = scripted_server(
            1,
            vec![Frame::reply(Status::Ok, 1, 0, b"hi".to_vec()).with_version(PROTOCOL_V1)],
        );
        let mut client = Client::connect_v1(addr).unwrap();
        assert_eq!(client.version(), PROTOCOL_V1);
        let echoed = client.ping(b"hi").unwrap();
        assert_eq!(echoed, b"hi");
        let seen = server.join().unwrap();
        assert_eq!(seen[0].version, PROTOCOL_V1);
        assert_eq!(seen[0].corr, seen[0].seq, "v1 decode mirrors seq");
    }

    #[test]
    fn unsolicited_goodbyes_surface_as_service_errors() {
        let (addr, server) =
            scripted_server(1, vec![Frame::error(ErrorCode::ShuttingDown, 0, 0, 0)]);
        let mut client = Client::connect(addr).unwrap();
        client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        match client.collect_next() {
            Err(ClientError::Service {
                code: ErrorCode::ShuttingDown,
                ..
            }) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn abandoned_pipelined_replies_evict_at_the_stash_cap() {
        // One more pipelined job than the stash holds, all answered
        // before the blocking ping the client is actually waiting on.
        // The oldest stashed reply must be dropped (and its correlation
        // id forgotten) instead of growing the stash without bound.
        let depth = Client::STASH_CAP + 1;
        let mut replies: Vec<Frame> = (1..=depth as u32)
            .map(|corr| ok_reply(corr, vec![0xCC]))
            .collect();
        let ping_corr = depth as u32 + 1;
        replies.push(ok_reply(ping_corr, b"pong".to_vec()));
        let (addr, server) = scripted_server(depth + 1, replies);

        let mut client = Client::connect(addr).unwrap();
        for _ in 0..depth {
            client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        }
        assert_eq!(client.in_flight(), depth);
        let pong = client.ping(b"pong").unwrap();
        assert_eq!(pong, b"pong");

        // Exactly one eviction: the cap-sized stash plus the dropped
        // oldest account for every pipelined reply.
        assert_eq!(client.stash_evictions(), 1);
        assert_eq!(client.in_flight(), Client::STASH_CAP);
        let jobs = client.collect_all().unwrap();
        assert_eq!(jobs.len(), Client::STASH_CAP);
        // Correlation id 1 was the evicted one.
        assert!(jobs.iter().all(|j| j.corr != 1));
        assert_eq!(client.in_flight(), 0);
        server.join().unwrap();
    }

    #[test]
    fn node_unreachable_is_a_typed_displayable_error() {
        let err = ClientError::NodeUnreachable { node: 2 };
        assert_eq!(
            err.to_string(),
            "cluster node 2 unreachable after reconnect attempt"
        );
    }
}
