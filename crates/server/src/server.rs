//! The TCP server front door: configuration, the public `serve*` entry
//! points, the executor that turns decoded work into reply bytes, and the
//! blocking I/O driver.
//!
//! The line protocol has exactly one implementation: `session.rs` decodes
//! bytes into `Work` units and [`execute_work`] answers them. Compute lines
//! have one executor, `execute_run`: a single request and a client's
//! pipelined batch are both a run of lines. Two I/O drivers feed that
//! pair, chosen by target alone:
//!
//! * the **epoll driver** (`reactor.rs`, Linux): one pool of peer threads
//!   on one shared epoll instance multiplexing thousands of connections —
//!   the thread handed a session's readiness reads, executes and answers
//!   it — with pipelined sessions and flush-then-close load shedding;
//! * the **blocking driver** (this file, every other target): an accept
//!   thread plus one thread per connection looping `read → pump →
//!   execute_work → write_all`. Linux compiles it for tests only, so the
//!   suite drives both.
//!
//! Both honor the same [`ServerConfig`] semantics (idle-timeout reaping,
//! `max_sessions` busy shedding), the same decoder admission caps
//! (`DecodePolicy::SERVED`), and maintain the same [`ServerCounters`]
//! observability surface (`stats server` line, [`ServerHandle::stats`]).

use crate::protocol::{
    decode_append, encode_append_outcome, encode_cache_stats, encode_ingest_stats, encode_schema,
    encode_server_stats, MAX_BATCH, MAX_SAMPLE_ROWS,
};
use crate::session::{DecodePolicy, ReplyKind, Work};
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::error::{ModelError, RemoteDetail, Result};
use entropydb_core::metrics::{ServerCounters, ServerStatsSnapshot};
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
#[cfg(any(not(target_os = "linux"), test))]
use {
    crate::session::SessionState,
    std::collections::HashMap,
    std::io::{Read, Write},
    std::net::{Shutdown, TcpStream},
    std::sync::atomic::{AtomicBool, AtomicU64, Ordering},
    std::thread::JoinHandle,
    std::time::Instant,
};

/// Serving-policy knobs of one server instance.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Idle deadline on a session's request reads. A client that stays
    /// silent longer than this has its session closed cleanly (the thread
    /// exits and deregisters), so a silent or vanished client cannot pin a
    /// session thread for the life of the process. `None` (the default)
    /// keeps the historical block-forever behavior.
    pub idle_timeout: Option<Duration>,
    /// Session-capacity cap. A connection accepted while this many
    /// sessions are already live is answered with one typed `busy` line
    /// ([`ModelError::Busy`] client-side) and closed, instead of admitting
    /// unbounded concurrent sessions. `None` (the default) disables the
    /// cap.
    pub max_sessions: Option<usize>,
}

impl ServerConfig {
    /// Checks the invariants [`serve_with`] enforces: a configured cap of
    /// zero is a misconfiguration (it would reject every session / close
    /// every connection instantly) — disabling a knob is spelled `None`.
    pub fn validate(&self) -> entropydb_core::error::Result<()> {
        if self.max_sessions == Some(0) {
            return Err(ModelError::InvalidConfig(
                "server max_sessions must be at least 1 when set (None disables the cap)"
                    .to_string(),
            ));
        }
        if self.idle_timeout == Some(Duration::ZERO) {
            return Err(ModelError::InvalidConfig(
                "server idle_timeout must be positive when set (None disables the deadline)"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// Locks a mutex, recovering the inner value if a session thread panicked
/// while holding it. The shutdown path runs from `Drop` (possibly during a
/// panic unwind); propagating lock poison there would turn one panic into
/// a process abort and leak every still-registered session.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The typed rejection a connection over the session-capacity cap gets.
pub(crate) fn busy_at_capacity(cap: usize) -> ModelError {
    ModelError::Busy(format!("server at session capacity ({cap})"))
}

/// A running server (either driver). Dropping the handle shuts the server
/// down (prefer calling [`ServerHandle::shutdown`] explicitly).
pub struct ServerHandle {
    addr: SocketAddr,
    counters: Arc<ServerCounters>,
    driver: Driver,
}

/// The I/O driver behind a [`ServerHandle`]: the target picks it, nothing
/// else does.
#[cfg(target_os = "linux")]
type Driver = crate::reactor::ReactorHandle;
#[cfg(not(target_os = "linux"))]
type Driver = BlockingHandle;

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently connected sessions.
    pub fn active_sessions(&self) -> usize {
        self.counters.active_sessions() as usize
    }

    /// A point-in-time copy of the server's operational counters — the
    /// same numbers the `stats server` session command reports.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.counters.snapshot()
    }

    /// A shareable live handle to the counters behind [`ServerHandle::stats`],
    /// for observers (e.g. a control channel) that outlive borrows of the
    /// handle itself.
    pub fn counters(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Stops accepting, disconnects every session, and joins all server
    /// threads. Returns once every server thread has exited.
    pub fn shutdown(mut self) {
        self.driver.shutdown_inner();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.driver.shutdown_inner();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("active_sessions", &self.active_sessions())
            .finish()
    }
}

/// Starts serving `engine` on `addr` (use port 0 for an ephemeral port;
/// the bound address is available via [`ServerHandle::local_addr`]).
///
/// On Linux the epoll driver runs: O(cores) peer threads share one epoll
/// instance, the thread handed a session's readiness reads, executes and
/// answers its next request, pipelined requests coalesce into engine
/// batches, and responses flush via interest-driven writes so a slow
/// reader never parks a thread. Elsewhere the blocking driver runs one
/// thread per connection. Both feed the same decoder and executor, so the
/// wire protocol is one implementation.
pub fn serve<B>(engine: QueryEngine<B>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle>
where
    B: SummaryBackend + 'static,
{
    serve_with(engine, addr, ServerConfig::default())
}

/// [`serve`] with explicit serving policy (session idle deadline,
/// session-capacity cap). See [`ServerConfig`]; a config that fails
/// [`ServerConfig::validate`] is refused with
/// [`io::ErrorKind::InvalidInput`] before anything binds.
///
/// The epoll driver runs `max(2, cores)` threads — at least two, so one
/// slow request never stalls every other session. Both drivers admit
/// requests under the same fixed caps: 65 536 decoded-but-unanswered
/// requests across the server (past it new compute lines answer a typed
/// `busy` line) and 256 per connection (past it the connection is not read
/// until earlier work completes); the epoll driver also stops reading a
/// connection with 1 MiB of replies unflushed.
pub fn serve_with<B>(
    engine: QueryEngine<B>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle>
where
    B: SummaryBackend + 'static,
{
    let threads = entropydb_core::par::max_threads().max(2);
    start(engine, addr, config, threads, DecodePolicy::SERVED)
}

/// [`serve_with`] with the pool size and admission caps spelled out;
/// `threads` only sizes the epoll driver (the blocking driver runs one
/// thread per connection).
fn start<B>(
    engine: QueryEngine<B>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    threads: usize,
    policy: DecodePolicy,
) -> io::Result<ServerHandle>
where
    B: SummaryBackend + 'static,
{
    config
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let counters = Arc::new(ServerCounters::default());
    let engine = Arc::new(engine);
    #[cfg(target_os = "linux")]
    let driver = crate::reactor::spawn(
        engine,
        listener,
        &config,
        threads,
        policy,
        Arc::clone(&counters),
    )?;
    #[cfg(not(target_os = "linux"))]
    let driver = {
        let _ = threads;
        spawn_blocking(engine, listener, config, policy, Arc::clone(&counters))?
    };
    Ok(ServerHandle {
        addr,
        counters,
        driver,
    })
}

/// Starts the blocking driver on an already-bound listener: an accept
/// thread, plus one [`drive_session`] thread per admitted connection.
#[cfg(any(not(target_os = "linux"), test))]
fn spawn_blocking<B>(
    engine: Arc<QueryEngine<B>>,
    listener: TcpListener,
    config: ServerConfig,
    policy: DecodePolicy,
    counters: Arc<ServerCounters>,
) -> io::Result<BlockingHandle>
where
    B: SummaryBackend + 'static,
{
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        listener: listener.try_clone()?,
        next_conn: AtomicU64::new(0),
        conns: Mutex::new(HashMap::new()),
        sessions: Mutex::new(Vec::new()),
        counters,
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(listener, engine, shared, config, policy))
    };
    Ok(BlockingHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

/// Shared session bookkeeping of the blocking driver: live connection
/// handles (for shutdown) and thread handles (for joining). Both are
/// bounded by the number of *live* connections: a session deregisters its
/// connection on exit, and the accept loop reaps finished session threads.
#[cfg(any(not(target_os = "linux"), test))]
struct Shared {
    stop: AtomicBool,
    /// A clone of the listening socket, used by shutdown to switch the
    /// accept loop to non-blocking. The wake-up connection alone is not
    /// enough: if that connect fails (backlog full, transient network
    /// refusal), a purely blocking accept would never observe `stop` and
    /// `shutdown` would hang — and any connection accepted in that window
    /// would leak its session thread past the join. Non-blocking mode makes
    /// the accept loop re-check `stop` on its own.
    listener: TcpListener,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
    counters: Arc<ServerCounters>,
}

/// The blocking driver's running state.
#[cfg(any(not(target_os = "linux"), test))]
struct BlockingHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

#[cfg(any(not(target_os = "linux"), test))]
impl BlockingHandle {
    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Two independent wake-ups for the blocking accept: switch the
        // listener to non-blocking (so any *future* accept attempt returns
        // immediately and re-checks `stop`) and poke it with a throwaway
        // connection (to unblock an accept already in progress). Relying on
        // the connect alone races: if it fails, the accept loop could block
        // indefinitely, and a session it spawned meanwhile would never be
        // joined below.
        let _ = self.shared.listener.set_nonblocking(true);
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // The accept thread has exited, so every session that will ever
        // exist is registered in `conns`/`sessions` — a connection accepted
        // after shutdown began cannot slip past the joins below. Unblock
        // session readers, then join them.
        for conn in lock(&self.shared.conns).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let sessions: Vec<_> = lock(&self.shared.sessions).drain(..).collect();
        for session in sessions {
            let _ = session.join();
        }
        debug_assert!(lock(&self.shared.sessions).is_empty());
    }
}

#[cfg(any(not(target_os = "linux"), test))]
fn accept_loop<B>(
    listener: TcpListener,
    engine: Arc<QueryEngine<B>>,
    shared: Arc<Shared>,
    config: ServerConfig,
    policy: DecodePolicy,
) where
    B: SummaryBackend + 'static,
{
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Shutdown switched the listener to non-blocking; re-check
                // `stop` instead of blocking forever (the wake-up connect
                // may have failed). The sleep only ever runs during the
                // shutdown window or after a transient accept error.
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE under fd
                // exhaustion): back off briefly instead of spinning a core
                // while the condition persists.
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
        };
        // A connection accepted after shutdown began is closed here, on the
        // accept thread, instead of spawning a session that nothing would
        // join.
        if shared.stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        shared.counters.add_accepted();
        let _ = stream.set_nodelay(true);
        // Session-capacity load shedding: over the cap, the connection is
        // answered with one typed busy line and closed — the client backs
        // off (or a gatherer fails over) instead of queueing invisibly.
        if let Some(cap) = config.max_sessions {
            if shared.counters.active_sessions() >= cap as u64 {
                shared.counters.add_shed();
                let mut stream = stream;
                let busy = busy_at_capacity(cap);
                // The rejection runs on a short-lived detached thread: after
                // writing the busy line it drains the client's in-flight
                // request briefly before closing. Closing immediately would
                // race the client's write — the resulting reset can discard
                // the unread busy line, turning a typed rejection into an
                // opaque transport error. (The epoll driver does the same
                // flush-then-close on its write path, without the thread.)
                std::thread::spawn(move || {
                    let _ = stream.write_all(encode_outcome(&Err(busy)).as_bytes());
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                    let mut sink = [0u8; 512];
                    loop {
                        match io::Read::read(&mut stream, &mut sink) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => continue,
                        }
                    }
                    let _ = stream.shutdown(Shutdown::Both);
                });
                continue;
            }
        }
        // The idle deadline applies to every read of the session; a
        // timed-out read ends the session cleanly.
        let _ = stream.set_read_timeout(config.idle_timeout);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        // Reap finished session threads so the handle list stays bounded
        // by the number of live connections.
        {
            let mut sessions = lock(&shared.sessions);
            let mut i = 0;
            while i < sessions.len() {
                if sessions[i].is_finished() {
                    let _ = sessions.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        lock(&shared.conns).insert(conn_id, registered);
        shared.counters.session_started();
        let engine = Arc::clone(&engine);
        let shared_for_session = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            drive_session(&engine, stream, &shared_for_session.counters, &policy);
            // Deregister (closing the cloned fd) before going idle.
            lock(&shared_for_session.conns).remove(&conn_id);
            shared_for_session.counters.session_ended();
        });
        lock(&shared.sessions).push(handle);
    }
}

/// One connection of the blocking driver: read bytes, let the decoder
/// turn them into work, answer each unit in order, write the reply. Any
/// I/O error — including the idle deadline expiring on a read — ends the
/// session; the decoder ends it after `quit`, EOF or a protocol violation,
/// once everything decoded before that point is answered.
#[cfg(any(not(target_os = "linux"), test))]
fn drive_session<B: SummaryBackend>(
    engine: &QueryEngine<B>,
    mut stream: TcpStream,
    counters: &ServerCounters,
    policy: &DecodePolicy,
) {
    let mut st = SessionState::new(Instant::now());
    let mut chunk = [0u8; 16 * 1024];
    'session: loop {
        while let Some(work) = st.pending.pop_front() {
            let reply = execute_work(engine, counters, &work);
            st.work_done(work.weight(), counters);
            if stream.write_all(reply.as_bytes()).is_err() {
                break 'session;
            }
            counters.add_bytes_out(reply.len() as u64);
            // The in-flight cap may have paused decoding mid-buffer.
            st.pump(counters, policy);
        }
        if st.no_more_input {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => st.eof = true,
            Ok(n) => {
                counters.add_bytes_in(n as u64);
                st.read_buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        st.pump(counters, policy);
    }
    st.abandon_pending(counters);
    // FIN before the close: a session ended with request bytes still unread
    // (a violation, `quit` mid-pipeline) would otherwise only send a reset,
    // and the client would lose replies it has not read yet.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Server-side admission check on a decoded request: rejects the shapes
/// whose execution cost is decoupled from their wire length.
fn admit(req: QueryRequest) -> Result<QueryRequest> {
    if let QueryRequest::SampleRows { k, .. } = &req {
        if *k > MAX_SAMPLE_ROWS {
            return Err(ModelError::Remote(RemoteDetail::message(format!(
                "sample size {k} exceeds the served maximum {MAX_SAMPLE_ROWS}"
            ))));
        }
    }
    Ok(req)
}

/// Decodes and executes one request line, encoding the outcome (answer or
/// error) as one newline-terminated response line.
fn respond<B: SummaryBackend>(engine: &QueryEngine<B>, command: &str) -> String {
    let outcome = QueryRequest::decode(command)
        .and_then(admit)
        .and_then(|req| engine.execute(&req));
    encode_outcome(&outcome)
}

/// Decodes and executes one streaming-append line (`a1 ...`), answering
/// `ai1 ...` on success and the query error channel otherwise. The
/// decoder enforces the per-line admission cap
/// ([`crate::protocol::MAX_APPEND_ROWS`]); immutable backends answer the
/// typed [`ModelError::Immutable`] error.
fn respond_append<B: SummaryBackend>(engine: &QueryEngine<B>, command: &str) -> String {
    let outcome = decode_append(command)
        .and_then(|(token, rows)| engine.append_rows(&rows, token.as_deref()));
    match outcome {
        Ok(o) => encode_append_outcome(&o),
        Err(e) => {
            let mut line = QueryResponse::encode_error(&e);
            line.push('\n');
            line
        }
    }
}

/// Admission check for shard probes, mirroring [`admit`]: the shapes whose
/// execution cost is decoupled from their wire length are bounded by the
/// same serving caps.
fn admit_probe(req: ProbeRequest) -> Result<ProbeRequest> {
    match &req {
        ProbeRequest::SampleAt { k, indices, .. }
            if *k > MAX_SAMPLE_ROWS || indices.len() > MAX_SAMPLE_ROWS =>
        {
            Err(ModelError::Remote(RemoteDetail::message(format!(
                "sample probe size exceeds the served maximum {MAX_SAMPLE_ROWS}"
            ))))
        }
        ProbeRequest::ProbabilityMany { masks } | ProbeRequest::CountMany { masks }
            if masks.len() > MAX_BATCH =>
        {
            Err(ModelError::Remote(RemoteDetail::message(format!(
                "mask probe batch exceeds the served maximum {MAX_BATCH}"
            ))))
        }
        _ => Ok(req),
    }
}

/// Decodes and executes one shard-probe line (`b1 ...`), answering on the
/// probe wire (`c1 ...`, errors on the probe error channel).
fn respond_probe<B: SummaryBackend>(engine: &QueryEngine<B>, command: &str) -> String {
    let outcome = ProbeRequest::decode(command)
        .and_then(admit_probe)
        .and_then(|req| engine.probe(&req));
    let mut line = match outcome {
        Ok(resp) => resp.encode(),
        Err(e) => ProbeResponse::encode_error(&e),
    };
    line.push('\n');
    line
}

pub(crate) fn encode_outcome(outcome: &Result<QueryResponse>) -> String {
    let mut line = match outcome {
        Ok(resp) => resp.encode(),
        Err(e) => QueryResponse::encode_error(e),
    };
    line.push('\n');
    line
}

/// Executes a contiguous run of pipelined compute lines (`q1 ...`,
/// `b1 ...`, `a1 ...`, or garbage), concatenating the responses in
/// request order. The decodable query requests go through the engine as
/// **one** batch (`execute_batch` is bitwise-identical to per-request
/// `execute`), cut only at an append: the queries before an `a1` line are
/// answered before it lands, so no query sees rows sent after it. Probes,
/// appends and decode errors answer in place.
fn execute_run<B: SummaryBackend>(engine: &QueryEngine<B>, lines: &[String]) -> String {
    if let [line] = lines {
        // Single-request fast path: skip the slot machinery.
        return if line.starts_with("b1") {
            respond_probe(engine, line)
        } else if line.starts_with("a1") {
            respond_append(engine, line)
        } else {
            respond(engine, line)
        };
    }
    let mut slots: Vec<Option<String>> = Vec::with_capacity(lines.len());
    slots.resize_with(lines.len(), || None);
    let mut requests = Vec::new();
    let mut request_slots = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("b1") {
            slots[i] = Some(respond_probe(engine, line));
        } else if line.starts_with("a1") {
            answer_queries(engine, &mut requests, &mut request_slots, &mut slots);
            slots[i] = Some(respond_append(engine, line));
        } else {
            match QueryRequest::decode(line).and_then(admit) {
                Ok(req) => {
                    requests.push(req);
                    request_slots.push(i);
                }
                Err(e) => slots[i] = Some(encode_outcome(&Err(e))),
            }
        }
    }
    answer_queries(engine, &mut requests, &mut request_slots, &mut slots);
    let mut reply = String::new();
    for slot in slots {
        reply.push_str(&slot.expect("every run slot filled"));
    }
    reply
}

/// Answers the queued query `requests` as one engine batch into their
/// `request_slots` and empties both queues.
fn answer_queries<B: SummaryBackend>(
    engine: &QueryEngine<B>,
    requests: &mut Vec<QueryRequest>,
    request_slots: &mut Vec<usize>,
    slots: &mut [Option<String>],
) {
    let results = engine.execute_batch(requests);
    for (slot, result) in request_slots.drain(..).zip(results) {
        slots[slot] = Some(encode_outcome(&result));
    }
    requests.clear();
}

/// Executes one decoded work unit into its encoded reply — the single
/// `Work` → bytes step both I/O drivers share. Holds no locks.
pub(crate) fn execute_work<B: SummaryBackend>(
    engine: &QueryEngine<B>,
    counters: &ServerCounters,
    work: &Work,
) -> String {
    match work {
        Work::Run(lines) => execute_run(engine, lines),
        Work::Reply(ReplyKind::Ping) => "pong\n".to_string(),
        Work::Reply(ReplyKind::Schema) => encode_schema(engine.schema(), engine.n()),
        Work::Reply(ReplyKind::CacheStats) => encode_cache_stats(engine.cache_stats().as_ref()),
        Work::Reply(ReplyKind::ServerStats) => encode_server_stats(&counters.snapshot()),
        Work::Reply(ReplyKind::IngestStats) => encode_ingest_stats(engine.ingest_stats().as_ref()),
        Work::Reply(ReplyKind::Raw(reply)) => reply.clone(),
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::{concurrent_transcripts, requests, sharded};
    use super::*;

    /// Starts the blocking driver the way `start` does off Linux.
    fn spawn(config: ServerConfig, policy: DecodePolicy) -> BlockingHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = Arc::new(QueryEngine::new(sharded(3)));
        spawn_blocking(engine, listener, config, policy, Arc::default()).unwrap()
    }

    /// The reply stream `script()` must provoke, assembled from in-process
    /// execution through the public encoders — no server code involved.
    fn golden() -> String {
        let (engine, reqs) = (QueryEngine::new(sharded(3)), requests());
        let line = |outcome: Result<QueryResponse>| match outcome {
            Ok(resp) => resp.encode() + "\n",
            Err(e) => QueryResponse::encode_error(&e) + "\n",
        };
        let mut out = String::from("pong\n");
        out.push_str(&encode_schema(engine.schema(), engine.n()));
        out.extend(reqs.iter().map(|r| line(engine.execute(r))));
        out.extend(engine.execute_batch(&reqs).into_iter().map(line));
        let garbage = QueryRequest::decode("definitely not a command");
        out.push_str(&line(garbage.and_then(|r| engine.execute(&r))));
        // The empty line is skipped; `quit` closes without a reply.
        out + "pong\n"
    }

    /// Both I/O drivers answer the script with exactly the golden bytes on
    /// each of 8 concurrent connections, however the request bytes are
    /// chunked (every other connection dribbles) — the served driver at
    /// every pool size — also when a tight in-flight cap pauses decoding
    /// mid-buffer — and leave nothing in flight.
    #[test]
    fn golden_transcript_on_both_drivers() {
        let served_policy = DecodePolicy::SERVED;
        let capped_policy = DecodePolicy {
            max_in_flight: 2,
            ..DecodePolicy::SERVED
        };
        let served = [
            ("start(), 1 thread", 1, served_policy),
            ("start(), 2 threads", 2, served_policy),
            ("start(), 8 threads", 8, served_policy),
            ("start(), 2 threads, in-flight cap 2", 2, capped_policy),
        ]
        .map(|(driver, threads, policy)| {
            let engine = QueryEngine::new(sharded(3));
            let config = ServerConfig::default();
            let handle = start(engine, "127.0.0.1:0", config, threads, policy).unwrap();
            (driver, handle)
        });
        let mut blocking = spawn(ServerConfig::default(), served_policy);
        let mut capped = spawn(ServerConfig::default(), capped_policy);
        let expected = golden();
        let drivers = served
            .iter()
            .map(|(driver, handle)| (*driver, handle.local_addr()))
            .chain([
                ("blocking", blocking.addr),
                ("blocking, in-flight cap 2", capped.addr),
            ]);
        for (driver, addr) in drivers {
            for (conn, got) in concurrent_transcripts(addr, 8).into_iter().enumerate() {
                let got = String::from_utf8(got).unwrap();
                assert_eq!(got, expected, "{driver}, connection {conn}");
            }
        }
        for handle in [&blocking, &capped] {
            assert_eq!(handle.shared.counters.snapshot().dispatch_depth, 0);
        }
        for (driver, handle) in served {
            assert_eq!(handle.stats().dispatch_depth, 0, "{driver}");
            handle.shutdown();
        }
        blocking.shutdown_inner();
        capped.shutdown_inner();
    }

    /// The blocking driver honors `ServerConfig`: a connection over the
    /// session cap reads one typed `busy` line then EOF, and a silent
    /// session is closed at the idle deadline.
    #[test]
    fn blocking_driver_sheds_and_reaps() {
        let cap_one = ServerConfig {
            idle_timeout: None,
            max_sessions: Some(1),
        };
        let mut capped = spawn(cap_one, DecodePolicy::SERVED);
        let mut admitted = TcpStream::connect(capped.addr).unwrap();
        admitted.write_all(b"ping\n").unwrap();
        let mut pong = [0u8; 5];
        admitted.read_exact(&mut pong).unwrap();
        assert_eq!(&pong, b"pong\n");
        let mut shed = String::new();
        TcpStream::connect(capped.addr)
            .unwrap()
            .read_to_string(&mut shed)
            .unwrap();
        assert_eq!(shed, "r1 busy server at session capacity (1)\n");
        assert_eq!(capped.shared.counters.snapshot().shed_total, 1);
        capped.shutdown_inner();

        let idle_50ms = ServerConfig {
            idle_timeout: Some(Duration::from_millis(50)),
            max_sessions: None,
        };
        let mut reaping = spawn(idle_50ms, DecodePolicy::SERVED);
        let mut silent = TcpStream::connect(reaping.addr).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(silent.read(&mut [0u8; 8]).unwrap(), 0, "expected EOF");
        reaping.shutdown_inner();
    }
}
