//! # entropydb-server
//!
//! A TCP query service over any EntropyDB summary backend — the
//! "interactive data exploration" front-end of the paper, serving a
//! [`QueryEngine`](entropydb_core::engine::QueryEngine) to remote clients.
//!
//! The wire protocol has one implementation — an incremental decoder
//! (`session.rs`, bytes → work) and one executor (work → reply bytes) —
//! behind two I/O drivers chosen by target alone. On Linux, [`serve`]
//! runs the **epoll driver**: O(cores) peer threads share one epoll
//! instance multiplexing thousands of connections, and the thread handed
//! a session's readiness reads, executes and answers its next request
//! itself — one `read` and one `write` per round trip, no hand-off to a
//! second pool. Pipelined requests coalesce into engine batches, sessions
//! take turns one work unit at a time, and responses flush via
//! interest-driven writes — a slow reader or a slow request never parks
//! the other sessions. Elsewhere a **blocking driver** runs the same
//! decoder and executor on one thread per connection. The pool is sized
//! from the CPUs (`max(2, cores)`) and admission control (a global
//! in-flight cap answered with typed `busy` lines, a per-connection
//! in-flight limit) runs under fixed caps; the only serving knobs are the
//! two fields of [`ServerConfig`], passed to [`serve_with`].
//!
//! The protocol is line-oriented text over TCP, built directly on the query
//! IR's wire encoding (`entropydb_core::plan`): a client sends one encoded
//! [`QueryRequest`](entropydb_core::plan::QueryRequest) per line and reads
//! one encoded [`QueryResponse`](entropydb_core::plan::QueryResponse) line
//! back. A batch is pipelined `q1` lines: lines that arrive together run
//! through the engine's `execute_batch` as one batch, on the io thread
//! that owns the session, and are answered in order.
//!
//! ```text
//! client → server                 server → client
//! ---------------                 ---------------
//! ping                            pong
//! schema                          s1 ... / end   (the schema block)
//! stats                           stats cache ...
//! stats server                    stats server ...
//! stats ingest                    stats ingest ...
//! q1 <request>                    r1 <response>
//! a1 <append>                     ai1 <outcome>
//! quit                            (connection closed)
//! ```
//!
//! Each reply's fields are documented on its encoder ([`encode_append`],
//! [`encode_append_outcome`], [`encode_server_stats`],
//! [`encode_ingest_stats`]); all of them are read through the one line
//! codec, `entropydb_core::wire` (README "Line formats" lists every
//! format, its versions, producer and consumer).
//!
//! Malformed or failing requests answer on the error channel
//! (`r1 err <message>`), which clients surface as
//! [`ModelError::Remote`](entropydb_core::error::ModelError::Remote); the
//! connection stays usable. [`ServerHandle::shutdown`] stops accepting,
//! disconnects every session, and joins all threads.
//!
//! Beyond the query IR, sessions answer mask-level *shard probes*
//! (`b1 ...` / `c1 ...` lines, `entropydb_core::probe`) — the fan-out
//! primitive of [`RemoteShardedSummary`], the scatter/gather backend that
//! places each shard of a sharded summary on its own `entropydb-serve`
//! node and merges wire responses with the same merge layer the local
//! sharded backend uses (bitwise-identical answers). A gateway serves its
//! engine with an answer cache
//! ([`QueryEngine::with_answer_cache`](entropydb_core::engine::QueryEngine::with_answer_cache)):
//! a repeated `q1` or `b1` line is answered whole, before any mask is
//! built or any shard is asked, filed under the cluster's generation (the
//! sum of the shards' blob generations), so a swapped blob or an observed
//! fold orphans every filed answer. The `stats` session line and the
//! gateway control channel expose its [`CacheStatsSnapshot`] counters.
//!
//! The scatter/gather path is fault tolerant: a manifest shard may list
//! several replica endpoints, and the gatherer applies per-probe socket
//! deadlines, classifies failures (transport / protocol / busy /
//! deterministic), fails over between replicas with capped exponential
//! backoff, keeps per-node circuit breakers, and evicts replicas caught
//! serving a changed blob — see `remote` ([`FailoverConfig`]) for the
//! policy; the e2e suites drill it through a fault-injection proxy
//! (`tests/common/fault.rs`). The serving side shares the vocabulary:
//! overloaded or deliberately capped servers answer a typed `busy` line
//! ([`ServerConfig::max_sessions`]) and idle sessions are reaped
//! ([`ServerConfig::idle_timeout`]).
//!
//! See `crates/server/src/bin/entropydb-serve.rs` for a ready-made daemon
//! over a persisted summary (monolithic or sharded manifest),
//! `crates/server/src/bin/entropydb-cluster.rs` for the shard-per-node
//! cluster tooling (spawn shard servers, health-probe a manifest, run a
//! scatter/gather gateway), and `examples/repl.rs` for an interactive
//! client.

// The unit tests share `tests/common/mod.rs` with the integration suites,
// and that file names this crate from outside.
#[cfg(test)]
extern crate self as entropydb_server;

mod client;
pub mod demo;
mod protocol;
#[cfg(target_os = "linux")]
mod reactor;
mod remote;
mod server;
mod session;

pub use client::{Client, ClientConfig, ClientError, ClientResult};
pub use entropydb_core::metrics::{
    CacheStatsSnapshot, IngestStatsSnapshot, ServerCounters, ServerStatsSnapshot,
};
pub use protocol::{
    decode_append, decode_append_outcome, decode_ingest_stats, decode_server_stats, encode_append,
    encode_append_outcome, encode_ingest_stats, encode_server_stats, MAX_APPEND_ROWS, MAX_BATCH,
    MAX_SAMPLE_ROWS,
};
pub use remote::{FailoverConfig, RemoteShard, RemoteShardedSummary, Replica};
pub use server::{serve, serve_with, ServerConfig, ServerHandle};
