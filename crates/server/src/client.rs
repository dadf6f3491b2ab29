//! A small synchronous client for the line protocol. A batch
//! ([`Client::execute_batch`]) travels as pipelined `q1` lines, written in
//! chunks no longer than the server's per-connection in-flight cap.

use crate::protocol::{
    decode_append_outcome, decode_cache_stats, decode_ingest_stats, decode_schema,
    decode_server_stats, encode_append, MAX_APPEND_ROWS, MAX_IN_FLIGHT,
};
use entropydb_core::engine::AppendOutcome;
use entropydb_core::error::{ModelError, RemoteDetail, Result as ModelResult};
use entropydb_core::metrics::{CacheStatsSnapshot, IngestStatsSnapshot, ServerStatsSnapshot};
use entropydb_core::plan::{parse_request, QueryRequest, QueryResponse};
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_storage::Schema;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket deadlines a [`Client`] places on its connection. `None` disables
/// the corresponding deadline (block forever — the pre-deadline behavior).
///
/// The defaults keep an interactive client responsive against a wedged
/// server: a hung socket surfaces as a timed-out [`ClientError::Io`]
/// instead of stalling the REPL (or a gatherer) forever. Scatter/gather
/// deployments tighten these via the remote backend's failover
/// configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect deadline (default 5 s).
    pub connect_timeout: Option<Duration>,
    /// Per-read deadline on response lines (default 30 s).
    pub read_timeout: Option<Duration>,
    /// Per-write deadline on request lines (default 30 s).
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Errors a client call can produce: transport failures or query/protocol
/// errors (including errors the server reported on the wire error channel,
/// surfaced as [`ModelError::Remote`]).
#[derive(Debug)]
pub enum ClientError {
    /// The TCP transport failed (connect, read, write, or unexpected EOF).
    Io(io::Error),
    /// A query, parse, or protocol error.
    Model(ModelError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Model(e) => Some(e),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ModelError> for ClientError {
    fn from(e: ModelError) -> Self {
        ClientError::Model(e)
    }
}

/// Convenience alias for client call results.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// A connected session against an EntropyDB query server.
///
/// The client speaks the query IR directly ([`Client::execute`] /
/// [`Client::execute_batch`]), textual statements ([`Client::query`],
/// parsed against the served schema — values of binned attributes are raw
/// numbers, values of categorical attributes are dense codes), or
/// mask-level shard probes ([`Client::probe`] /
/// [`Client::probe_pipelined`] and its two halves, the scatter/gather
/// fan-out primitive).
///
/// Queries are read-only, so [`Client::execute`] and [`Client::probe`]
/// transparently reconnect and retry **once** when the transport breaks
/// mid-call (server restart, idle-connection reset) — a broken pipe
/// surfaces to the caller only if the retry fails too. The retry never
/// fires for a server-reported error line or a deadline expiry (see
/// [`ClientConfig`] for the socket deadlines applied by default).
///
/// The client counts the replies the server still owes it: a call that
/// failed on a server-reported error line read to its end leaves the
/// connection [in step](Client::in_step) and reusable, one that failed
/// with replies unread (or mid-write, mid-read) does not.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    schema: Option<Schema>,
    served_n: Option<u64>,
    owed: usize,
}

/// Dials `addr` honoring the connect deadline and applies the read/write
/// deadlines to the accepted stream.
fn dial(addr: &SocketAddr, config: &ClientConfig) -> io::Result<TcpStream> {
    let stream = match config.connect_timeout {
        Some(t) => TcpStream::connect_timeout(addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    Ok(stream)
}

/// Frames one request line — `line` + `\n` — and hands it to the writer
/// whole: on a `TCP_NODELAY` socket every `write` is a segment and a
/// wake-up of the peer, so a request must be exactly one.
fn write_line(mut writer: impl Write, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)
}

/// Rows per `a1` wire line when [`Client::append`] splits a large batch.
/// Well under the server's [`MAX_APPEND_ROWS`] admission cap and the
/// [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES) line cap for any
/// realistic arity.
const APPEND_CHUNK_ROWS: usize = 4096;

/// A process-unique idempotency token for an append batch the caller did
/// not token themselves: wall-clock nanos + pid + a process-local
/// sequence number. Collisions across clients would need two processes
/// sharing a pid, nanosecond, and sequence number.
pub(crate) fn generate_append_token() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!("c{:x}-{nanos:x}-{seq:x}", std::process::id())
}

/// True when an I/O failure means the *transport* died (reset, broken
/// pipe, unexpected EOF) — the one class of failure where re-dialing and
/// re-sending a read-only request is safe and useful. Deadline expiries
/// (`TimedOut` / `WouldBlock` from socket timeouts) are deliberately *not*
/// retryable here: the server may still be executing the request, and
/// blind client-side re-sends would stack work onto a struggling node —
/// deadline handling belongs to the caller (a gatherer fails over to a
/// replica instead).
pub(crate) fn transport_is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

/// The error for a reply that is not the one a command expects: the query
/// error channel (`r1 err ...`, `r1 busy ...`) decodes to its typed error,
/// anything else is a protocol violation.
fn unexpected_reply(command: &str, reply: &str) -> ClientError {
    ClientError::Model(match QueryResponse::decode(reply) {
        Err(e) => e,
        Ok(_) => ModelError::Remote(RemoteDetail::message(format!(
            "unexpected {command} reply {reply:?}"
        ))),
    })
}

impl Client {
    /// Connects to a server with the default deadlines
    /// ([`ClientConfig::default`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a server with explicit socket deadlines.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match dial(&candidate, &config) {
                Ok(stream) => {
                    return Ok(Client {
                        addr: stream.peer_addr()?,
                        config,
                        reader: BufReader::new(stream.try_clone()?),
                        writer: stream,
                        schema: None,
                        served_n: None,
                        owed: 0,
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// The server address this client dials (and re-dials on reconnect).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The socket deadlines this client applies to its connection.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Drops the current connection and dials the server again (same
    /// deadlines). Cached schema/cardinality are kept: a reconnect targets
    /// the same serving address, which serves the same summary.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = dial(&self.addr, &self.config)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        self.owed = 0;
        Ok(())
    }

    /// True when every reply to what was sent has been read to its end:
    /// the next line read answers the next request sent, so the connection
    /// may be reused.
    pub fn in_step(&self) -> bool {
        self.owed == 0
    }

    /// Writes `frame`, which carries `requests` request lines. They are
    /// owed before the write: a write that fails part-way leaves the
    /// connection out of step.
    fn send(&mut self, frame: &[u8], requests: usize) -> ClientResult<()> {
        self.owed += requests;
        Ok(self.writer.write_all(frame)?)
    }

    fn send_line(&mut self, line: &str) -> ClientResult<()> {
        self.owed += 1;
        Ok(write_line(&mut self.writer, line)?)
    }

    /// Reads a one-line reply whole.
    fn read_reply(&mut self) -> ClientResult<String> {
        let line = self.read_line()?;
        self.owed = self.owed.saturating_sub(1);
        Ok(line)
    }

    fn read_line(&mut self) -> ClientResult<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(line.trim_end_matches(['\n', '\r']).to_string())
    }

    /// Health check. A server at its session cap answers the typed
    /// [`ModelError::Busy`] line instead of `pong`.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.send_line("ping")?;
        let reply = self.read_reply()?;
        if reply == "pong" {
            Ok(())
        } else {
            Err(unexpected_reply("ping", &reply))
        }
    }

    /// The served summary's schema (fetched once, then cached).
    pub fn schema(&mut self) -> ClientResult<&Schema> {
        if self.schema.is_none() {
            self.send_line("schema")?;
            let header = self.read_line()?;
            // The borrow checker cannot see through `FnMut` captures of
            // `self`, so read via a local reader handle.
            let reader = &mut self.reader;
            let (schema, n) = decode_schema(&header, || {
                let mut line = String::new();
                if reader
                    .read_line(&mut line)
                    .map_err(|e| ModelError::Remote(RemoteDetail::message(e.to_string())))?
                    == 0
                {
                    return Err(ModelError::Remote(RemoteDetail::message(
                        "connection closed mid-schema",
                    )));
                }
                Ok(line.trim_end_matches(['\n', '\r']).to_string())
            })?;
            self.owed = self.owed.saturating_sub(1);
            self.schema = Some(schema);
            self.served_n = n;
        }
        Ok(self.schema.as_ref().expect("schema cached"))
    }

    /// The served summary's cardinality `n` from the schema handshake, or
    /// `None` when the server predates the handshake extension.
    pub fn served_n(&mut self) -> ClientResult<Option<u64>> {
        self.schema()?;
        Ok(self.served_n)
    }

    fn round_trip(&mut self, line: &str) -> ClientResult<String> {
        self.send_line(line)?;
        self.read_reply()
    }

    /// One request line → one response line, reconnecting and retrying
    /// once on a *broken transport* (queries are read-only, so a retry
    /// never double-applies anything). The retry is restricted to genuine
    /// transport deaths ([`transport_is_retryable`]): a deterministic
    /// server error line (`r1 err ...`) is never re-sent, and a deadline
    /// expiry surfaces to the caller instead of re-queuing work on a node
    /// that may still be executing it.
    fn round_trip_with_retry(&mut self, line: &str) -> ClientResult<String> {
        match self.round_trip(line) {
            Err(ClientError::Io(e)) if transport_is_retryable(&e) => {
                self.reconnect()?;
                self.round_trip(line)
            }
            other => other,
        }
    }

    /// Fetches the server's answer-cache counters. `Ok(None)` means the
    /// server runs without a cache (a plain shard server does; a gateway
    /// caches by default).
    pub fn cache_stats(&mut self) -> ClientResult<Option<CacheStatsSnapshot>> {
        let reply = self.round_trip_with_retry("stats")?;
        decode_cache_stats(&reply).map_err(ClientError::Model)
    }

    /// Fetches the server's serving-side operational counters (live
    /// sessions, accepted/shed connections, wire bytes, requests in
    /// flight) via the `stats server` session command.
    pub fn server_stats(&mut self) -> ClientResult<ServerStatsSnapshot> {
        let reply = self.round_trip_with_retry("stats server")?;
        decode_server_stats(&reply).map_err(ClientError::Model)
    }

    /// Executes one IR request remotely (reconnect-and-retry on a broken
    /// transport).
    pub fn execute(&mut self, request: &QueryRequest) -> ClientResult<QueryResponse> {
        let line = self.round_trip_with_retry(&request.encode())?;
        Ok(QueryResponse::decode(&line)?)
    }

    /// Executes one mask-level shard probe remotely (reconnect-and-retry
    /// on a broken transport).
    pub fn probe(&mut self, probe: &ProbeRequest) -> ClientResult<ProbeResponse> {
        let line = self.round_trip_with_retry(&probe.encode())?;
        Ok(ProbeResponse::decode(&line)?)
    }

    /// Executes several shard probes as one pipelined write followed by
    /// in-order reads (one wire round trip for a whole fan-out step):
    /// [`Client::send_probes`] then [`Client::read_probe_replies`].
    pub fn probe_pipelined(&mut self, probes: &[ProbeRequest]) -> ClientResult<Vec<ProbeResponse>> {
        let lines: Vec<String> = probes.iter().map(ProbeRequest::encode).collect();
        self.send_probes(&lines)?;
        self.read_probe_replies(lines.len())
    }

    /// The send half of a pipelined probe round trip: writes the encoded
    /// `b1` lines as one write and returns without reading, so a gatherer
    /// can put a frame on every shard's wire before it waits for any reply.
    /// It **never reconnects** — the gatherer re-runs the shard handshake on
    /// every fresh dial, so it owns the retry (a bare re-dial could reach a
    /// node whose blob was replaced).
    pub fn send_probes(&mut self, lines: &[impl AsRef<str>]) -> ClientResult<()> {
        let mut frame = String::new();
        for line in lines {
            frame.push_str(line.as_ref());
            frame.push('\n');
        }
        self.send(frame.as_bytes(), lines.len())
    }

    /// The receive half: reads the replies to `count` lines sent with
    /// [`Client::send_probes`], in order. A probe the *server* failed (its
    /// error channel) fails the call at that reply; the replies behind it
    /// stay unread, so unless it was the last the connection is out of
    /// step ([`Client::in_step`]) and must be dropped, never reused.
    pub fn read_probe_replies(&mut self, count: usize) -> ClientResult<Vec<ProbeResponse>> {
        let mut responses = Vec::with_capacity(count);
        for _ in 0..count {
            let line = self.read_reply()?;
            responses.push(ProbeResponse::decode(&line)?);
        }
        Ok(responses)
    }

    /// Executes a batch of IR requests as pipelined `q1` lines, any batch
    /// size accepted. Each chunk of at most the server's per-connection
    /// in-flight cap goes out as one write, which the server answers as
    /// one engine batch, and its replies are read before the next chunk is
    /// written, so the server never stops reading a connection whose client
    /// is blocked writing. The outer result is transport-level; each
    /// element is that request's outcome (server-side failures decode to
    /// [`ModelError::Remote`]).
    pub fn execute_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> ClientResult<Vec<ModelResult<QueryResponse>>> {
        let mut responses = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(MAX_IN_FLIGHT) {
            let mut frame = String::new();
            for request in chunk {
                frame.push_str(&request.encode());
                frame.push('\n');
            }
            self.send(frame.as_bytes(), chunk.len())?;
            for _ in 0..chunk.len() {
                let line = self.read_reply()?;
                responses.push(QueryResponse::decode(&line));
            }
        }
        Ok(responses)
    }

    /// Appends coded rows to the served summary's live delta shard
    /// (`a1 ...` wire lines). Rows become *queryable* only once the
    /// server's background re-solve folds them into the published
    /// mixture — the returned [`AppendOutcome`] carries the staging gauge
    /// and current epoch so callers can watch the fold land (via
    /// [`Client::ingest_stats`]).
    ///
    /// `token` is the batch's idempotency token; when `None` the client
    /// generates one, so the built-in reconnect-and-retry after a broken
    /// transport can never double-ingest (an ambiguous first attempt and
    /// its retry carry the same token, and the server's token window
    /// absorbs the replay). Batches larger than one wire line allows are
    /// split into chunks tokened `<token>#<i>`, each idempotent on its
    /// own; chunk outcomes aggregate (accepted counts sum, `duplicate`
    /// means *every* chunk was a replay).
    ///
    /// Immutable backends (a server not started in live mode) answer the
    /// typed [`ModelError::Immutable`] error.
    pub fn append(
        &mut self,
        rows: &[Vec<u32>],
        token: Option<&str>,
    ) -> ClientResult<AppendOutcome> {
        let base = match token {
            Some(t) => t.to_string(),
            None => generate_append_token(),
        };
        const { assert!(APPEND_CHUNK_ROWS <= MAX_APPEND_ROWS) };
        let chunks: Vec<&[Vec<u32>]> = if rows.is_empty() {
            vec![&[][..]]
        } else {
            rows.chunks(APPEND_CHUNK_ROWS).collect()
        };
        let single = chunks.len() == 1;
        let mut total = AppendOutcome {
            accepted: 0,
            duplicate: true,
            staged: 0,
            epoch: 0,
        };
        for (i, chunk) in chunks.into_iter().enumerate() {
            let chunk_token = if single {
                base.clone()
            } else {
                format!("{base}#{i}")
            };
            let line = encode_append(Some(&chunk_token), chunk);
            let reply = self.round_trip_with_retry(line.trim_end())?;
            if !reply.starts_with("ai1") {
                return Err(unexpected_reply("append", &reply));
            }
            let outcome = decode_append_outcome(&reply)?;
            total.accepted += outcome.accepted;
            total.duplicate &= outcome.duplicate;
            total.staged = outcome.staged;
            total.epoch = outcome.epoch;
        }
        Ok(total)
    }

    /// Fetches the server's streaming-ingest counters (`stats ingest`).
    /// `Ok(None)` means the served summary has no live delta shard (an
    /// immutable backend).
    pub fn ingest_stats(&mut self) -> ClientResult<Option<IngestStatsSnapshot>> {
        let reply = self.round_trip_with_retry("stats ingest")?;
        decode_ingest_stats(&reply).map_err(ClientError::Model)
    }

    /// Parses a textual statement against the served schema and executes
    /// it: `COUNT WHERE origin = 2`, `TOP 5 dest`, `SAMPLE 100 SEED 7`, ...
    pub fn query(&mut self, statement: &str) -> ClientResult<QueryResponse> {
        self.schema()?;
        let schema = self.schema.as_ref().expect("schema cached");
        let request = parse_request(statement, schema)?;
        self.execute(&request)
    }

    /// Ends the session politely (the server also handles abrupt drops).
    pub fn quit(mut self) {
        let _ = self.send_line("quit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket stand-in that takes whatever it is given and keeps every
    /// `write` call apart.
    struct CountingWriter(Vec<Vec<u8>>);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A request of any length reaches the socket as one `write` ending in
    /// exactly one newline.
    #[test]
    fn a_request_line_is_one_write() {
        for len in [0usize, 1, 4, 4096, 1 << 20] {
            let line = "x".repeat(len);
            let mut writer = CountingWriter(Vec::new());
            write_line(&mut writer, &line).unwrap();
            assert_eq!(writer.0.len(), 1, "{len}-byte line");
            assert_eq!(writer.0[0], format!("{line}\n").into_bytes());
        }
    }
}
