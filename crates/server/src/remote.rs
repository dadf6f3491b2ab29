//! Shard-per-node placement: [`RemoteShardedSummary`], a
//! [`SummaryBackend`] whose `probe` fans out over the wire.
//!
//! A [`ShardedSummary`](entropydb_core::sharded::ShardedSummary) fans
//! queries out across in-process shard models through the
//! shard-source-agnostic merge layer (`entropydb_core::scatter`).
//! [`RemoteShardedSummary`] keeps the *gather side of that layer unchanged*
//! (`scatter::gather`: prune by support, ask the shards that are left
//! together, then the one merge) and swaps what a shard is:
//! an `entropydb-serve` instance reached over TCP, addressed by a cluster
//! manifest ([`ClusterShard`]). A sharded answer costs **one round trip,
//! only to the shards that can answer**:
//!
//! * The shard handshake learns each static shard's
//!   [`Support`] — the codes its complete 1-D statistics leave non-zero —
//!   beside schema and cardinality, with the probes every backend answers
//!   (no verb of its own). The gather side does not send a shard a mask its
//!   support annihilates: that answer is an exact `0.0`. A dynamic (live)
//!   shard's support grows, so it declares none and is always asked.
//! * [`RemoteShard`]'s `probe_each` is the one site that writes probe
//!   frames: the query's single `ProbeRequest`, encoded once
//!   (`entropydb_core::probe::SharedEncoding`), goes to every asked shard's
//!   pooled connection before the first reply is read, on the calling
//!   thread — so the shards compute side by side — and each node answers
//!   through the very dispatch an in-process shard model runs.
//!
//! Because the merge arithmetic and the stratified sampling streams are
//! the code paths the local backend runs — and because the probe wire
//! encoding round-trips floats bit-exactly — remote answers are **bitwise
//! identical** to a local `ShardedSummary` over the same shard models, on
//! every `QueryRequest` variant (a top-k is the merged `group` answer
//! ranked once, here as there). The cluster's `n` and the mixture weights
//! are read from the shards' handshaken cardinalities at call time, so a
//! gateway over a live (growing) shard never mixes with connect-time
//! weights.
//!
//! # Fault tolerance
//!
//! A manifest entry may list **several replica endpoints** for one shard
//! (manifest v2). The gatherer fails over between them:
//!
//! * Every probe connection carries socket deadlines
//!   ([`FailoverConfig::connect_timeout`] /
//!   [`FailoverConfig::probe_timeout`]), so a black-holed node costs a
//!   bounded wait instead of hanging the fan-out.
//! * Failures are classified. **Transport** deaths (reset, refused, EOF,
//!   deadline expiry) and **protocol** garbage (an undecodable response
//!   frame) fail over to the next replica with capped exponential backoff.
//!   A **busy** line ([`ModelError::Busy`], the serving layer shedding
//!   load, on a query or on a fresh dial's handshake) backs off and
//!   retries without a breaker count. A **deterministic** server error line
//!   ([`ModelError::Remote`]) fails the call immediately — re-sending it
//!   anywhere would just re-compute the same error.
//! * Each replica keeps per-node health: a consecutive-failure circuit
//!   breaker opens after three straight failures and the replica is
//!   skipped for a (capped, exponentially growing) cooldown, after which
//!   one probation probe may re-close it.
//!   When *every* replica's breaker is open the gatherer still sends
//!   probation probes (the least-recently-failed replica first) so an
//!   outage heals without operator action.
//! * Every **fresh dial** re-runs the shard-manifest handshake (schema +
//!   cardinality; the support too at a replica's first handshake and at
//!   every background one) — including the re-dial after a *pooled*
//!   connection is found dead (idle-reaped, or its node replaced on the
//!   same address): probe traffic never rides a bare client reconnect. A
//!   replica serving a changed blob is **evicted** — it can never contribute an answer, so
//!   failover never changes results: whenever any live replica holds the
//!   shard, answers remain bitwise identical to a healthy cluster. A background re-handshake thread
//!   ([`RemoteShardedSummary::start_rehandshake`]) re-verifies idle
//!   replicas periodically and evicts changed blobs proactively.
//!
//! Connections are pooled per replica and reused across queries. A
//! connection goes back to the pool only while it is in step — after an
//! answer, or after a deterministic error line read to its end; one that
//! failed otherwise — written to and not read to the end included — is
//! dropped. If a
//! shard's whole replica set is exhausted the failure surfaces as
//! [`ModelError::Degraded`] naming the shard and its primary address,
//! carrying the per-attempt failure trail; the engine's batch path keeps
//! that per-request, so one dead shard cannot poison a pipelined batch.

use crate::client::{
    generate_append_token, transport_is_retryable, Client, ClientConfig, ClientError,
};
use entropydb_core::engine::{AppendOutcome, SummaryBackend};
use entropydb_core::error::{ModelError, RemoteDetail, Result};
use entropydb_core::metrics::IngestStatsSnapshot;
use entropydb_core::probe::{ProbeRequest, ProbeResponse, SharedEncoding};
use entropydb_core::scatter::{self, Ask, ShardProbe, Support};
use entropydb_core::serialize::ClusterShard;
use entropydb_storage::Schema;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failover policy of the remote scatter/gather backend: the two socket
/// deadlines. The rest of the policy is fixed: two attempts per replica,
/// a 10 ms backoff doubling to 500 ms, and a breaker that opens after
/// three straight failures for 1 s, doubling to 30 s.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// TCP connect deadline per dial attempt (default 2 s).
    pub connect_timeout: Option<Duration>,
    /// Read/write deadline on probe traffic (default 5 s): the longest a
    /// single wire read or write may block before the replica is treated
    /// as hung and the gatherer fails over.
    pub probe_timeout: Option<Duration>,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            probe_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Attempt budget per call, as a multiple of the replica count: a shard
/// with `r` replicas gets at most `ATTEMPTS_PER_REPLICA * r` attempts
/// before surfacing [`ModelError::Degraded`].
const ATTEMPTS_PER_REPLICA: usize = 2;
/// First backoff sleep once every replica has been tried; the first
/// failover to an untried replica is immediate.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling of the capped exponential backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(500);
/// Consecutive failures that open a replica's circuit breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// Cooldown of a freshly opened breaker; doubles with each further
/// consecutive failure.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(1);
/// Ceiling of the breaker cooldown.
const BREAKER_COOLDOWN_CAP: Duration = Duration::from_secs(30);

impl FailoverConfig {
    /// Checks the invariant [`RemoteShardedSummary::connect_with`]
    /// enforces: a set deadline is not zero (std refuses a zero socket
    /// timeout, so every dial would fail).
    pub fn validate(&self) -> Result<()> {
        for (name, deadline) in [
            ("connect_timeout", self.connect_timeout),
            ("probe_timeout", self.probe_timeout),
        ] {
            if deadline.is_some_and(|d| d.is_zero()) {
                return Err(ModelError::InvalidConfig(format!(
                    "failover {name} must be positive when set"
                )));
            }
        }
        Ok(())
    }

    fn client_config(&self) -> ClientConfig {
        ClientConfig {
            connect_timeout: self.connect_timeout,
            read_timeout: self.probe_timeout,
            write_timeout: self.probe_timeout,
        }
    }
}

/// Per-replica health: the consecutive-failure circuit breaker.
#[derive(Debug, Default)]
struct Health {
    consecutive_failures: u32,
    /// While set and in the future, the breaker is open and the replica is
    /// skipped (except for probation probes when no replica is closed).
    open_until: Option<Instant>,
    /// A replica caught serving the wrong blob (schema or cardinality
    /// mismatch on a re-handshake) is permanently removed from rotation.
    evicted: bool,
}

impl Health {
    fn record_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= BREAKER_THRESHOLD {
            let over = self.consecutive_failures - BREAKER_THRESHOLD;
            let cooldown = BREAKER_COOLDOWN
                .saturating_mul(1u32 << over.min(16))
                .min(BREAKER_COOLDOWN_CAP);
            self.open_until = Some(Instant::now() + cooldown);
        }
    }

    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.open_until = None;
    }
}

/// One replica endpoint of a remote shard: its address, a pool of reusable
/// verified probe connections, and its breaker state.
#[derive(Debug)]
pub struct Replica {
    addr: String,
    conns: Mutex<Vec<Client>>,
    health: Mutex<Health>,
    /// Set once a handshake found this replica serving the shard's
    /// [`Support`]; until then every dial asks for it.
    support_verified: AtomicBool,
}

impl Replica {
    fn new(addr: String) -> Replica {
        Replica {
            addr,
            conns: Mutex::new(Vec::new()),
            health: Mutex::new(Health::default()),
            support_verified: AtomicBool::new(false),
        }
    }

    /// The replica's serving address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// True once the replica was caught serving a changed blob and removed
    /// from rotation.
    pub fn is_evicted(&self) -> bool {
        self.health.lock().expect("replica health").evicted
    }

    /// Current consecutive-failure count (introspection for tests and the
    /// cluster probe tool).
    pub fn consecutive_failures(&self) -> u32 {
        self.health
            .lock()
            .expect("replica health")
            .consecutive_failures
    }

    /// True while the circuit breaker is open (the replica is skipped
    /// except for probation probes).
    pub fn breaker_open(&self) -> bool {
        self.health
            .lock()
            .expect("replica health")
            .open_until
            .is_some_and(|t| t > Instant::now())
    }

    /// Number of idle pooled connections (introspection for tests).
    pub fn idle_conns(&self) -> usize {
        self.conns.lock().expect("conn pool").len()
    }

    fn put_back(&self, client: Client) {
        self.conns.lock().expect("conn pool").push(client);
    }

    fn evict(&self) {
        let mut health = self.health.lock().expect("replica health");
        health.evicted = true;
    }
}

/// How a fresh dial-plus-handshake failed: a dead/hung/garbled node (fail
/// over, count toward the breaker), a live node shedding the session at
/// its cap (retry, no breaker count), or a live node serving the wrong
/// blob (evict permanently).
enum DialFailure {
    Transport(String),
    Busy(String),
    WrongBlob(String),
}

/// One remote shard: its replica set, failover policy, and the expected
/// handshake identity (cardinality from the manifest, schema once known).
#[derive(Debug)]
pub struct RemoteShard {
    index: usize,
    /// Shard cardinality `n_s`. Static placements verify it on every
    /// handshake; **dynamic** placements (manifest `n = 0`, a live-ingest
    /// node whose cardinality grows as deltas fold) adopt whatever the
    /// node reports instead, updating this cell.
    n: AtomicU64,
    /// Manifest entry declared `n = 0`: a live node with a delta shard.
    dynamic: bool,
    replicas: Vec<Replica>,
    /// Replica that last answered successfully; probes start there.
    preferred: AtomicUsize,
    config: FailoverConfig,
    /// The cluster-wide schema, set at connect time; every later fresh
    /// dial verifies the replica still serves it.
    expected_schema: OnceLock<Schema>,
    /// Blob generation: bumped whenever a replica is caught serving a
    /// changed blob (wrong-blob eviction), whenever a live shard's
    /// published **epoch** is observed to change (a delta fold), and
    /// whenever a dynamic shard's cardinality is seen to grow. The cluster's
    /// [generation](SummaryBackend::generation) sums these, so every answer
    /// an engine's cache filed becomes unreachable the instant a swap or a
    /// fold is detected.
    generation: AtomicU64,
    /// Last ingest epoch observed from this shard (append replies and
    /// `stats ingest` polls). See [`RemoteShard::note_epoch`].
    last_seen_epoch: AtomicU64,
    /// Set when a dynamic shard is seen at a new epoch, whose fold changed
    /// the node's `n`: until a handshake adopts that `n`, a checkout drops
    /// the idle connections instead, so the next probe dials.
    redial: AtomicBool,
    /// The blob's [`Support`], learned by the first handshake and verified
    /// by every later one. Never set for a dynamic placement, whose support
    /// grows with every fold: such a shard is always asked.
    support: OnceLock<Support>,
}

impl RemoteShard {
    fn new(entry: &ClusterShard, config: FailoverConfig) -> RemoteShard {
        RemoteShard {
            index: entry.index,
            n: AtomicU64::new(entry.n),
            dynamic: entry.n == 0,
            replicas: entry.addrs.iter().cloned().map(Replica::new).collect(),
            preferred: AtomicUsize::new(0),
            config,
            expected_schema: OnceLock::new(),
            generation: AtomicU64::new(0),
            last_seen_epoch: AtomicU64::new(0),
            redial: AtomicBool::new(false),
            support: OnceLock::new(),
        }
    }

    /// Evicts replica `idx` for serving the wrong blob and bumps the
    /// shard's blob generation (cache invalidation) — the single path
    /// every wrong-blob detection goes through.
    fn evict_replica(&self, idx: usize) {
        self.replicas[idx].evict();
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The shard's blob generation: how many swapped blobs, observed epoch
    /// changes and grown cardinalities it has seen (introspection for tests
    /// and drills).
    pub fn blob_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Shard index within the cluster.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's primary (first-listed) replica address.
    pub fn addr(&self) -> &str {
        self.replicas.first().map_or("", |r| r.addr.as_str())
    }

    /// The shard's replica set, in manifest order.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Shard cardinality `n_s` (verified during every handshake; adopted
    /// from the node for dynamic live-ingest placements).
    pub fn n(&self) -> u64 {
        self.n.load(Ordering::Acquire)
    }

    /// Whether this placement is dynamic (manifest `n = 0`: a live node
    /// whose cardinality grows as appended rows fold in).
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// Last ingest epoch observed from this shard, `0` before any append
    /// or `stats ingest` reply has been seen.
    pub fn last_seen_epoch(&self) -> u64 {
        self.last_seen_epoch.load(Ordering::Acquire)
    }

    /// Records an ingest epoch observed on an append reply or a
    /// `stats ingest` poll. A **change** bumps the shard's blob generation,
    /// which orphans every cached answer computed against the previous
    /// published mixture — the remote arm of the zero-stale-answers
    /// invariant (locally the epoch *is* the generation; over the wire the
    /// gateway invalidates the moment a new epoch becomes visible to it).
    /// On a dynamic shard the fold also grew the node's `n`, which only a
    /// handshake reads: the next probe drops the pooled connections, dials
    /// fresh and adopts it before the mixture is weighted again.
    pub fn note_epoch(&self, epoch: u64) {
        let prev = self.last_seen_epoch.swap(epoch, Ordering::SeqCst);
        if prev != epoch {
            self.generation.fetch_add(1, Ordering::Release);
            if self.dynamic {
                self.redial.store(true, Ordering::SeqCst);
            }
        }
    }

    /// An idle verified connection of replica `idx`, unless a redial is
    /// pending (see [`RemoteShard::note_epoch`]): then the replica's idle
    /// connections are dropped and the caller dials fresh.
    fn pooled(&self, idx: usize) -> Option<Client> {
        let mut conns = self.replicas[idx].conns.lock().expect("conn pool");
        if self.redial.load(Ordering::SeqCst) {
            conns.clear();
            return None;
        }
        conns.pop()
    }

    /// Number of idle pooled connections across all replicas
    /// (introspection for tests).
    pub fn idle_conns(&self) -> usize {
        self.replicas.iter().map(Replica::idle_conns).sum()
    }

    /// Decorates a deterministic failure with the shard's identity. The
    /// attribution is structured ([`RemoteDetail::shard`]); the rendered
    /// text (`shard {i} ({addr}): {what}`) is unchanged, so wire `err`
    /// lines stay byte-identical.
    fn named(&self, what: impl std::fmt::Display) -> ModelError {
        ModelError::Remote(RemoteDetail::shard(
            self.index,
            self.addr(),
            what.to_string(),
        ))
    }

    fn degraded(&self, attempts: &[String]) -> ModelError {
        ModelError::Degraded {
            shard: self.index,
            addr: self.addr().to_string(),
            detail: if attempts.is_empty() {
                "no usable replica".to_string()
            } else {
                attempts.join("; ")
            },
        }
    }

    /// Dials replica `idx` fresh and re-runs the shard-manifest handshake:
    /// the node must answer `ping`, report the manifest cardinality, and
    /// serve — once the cluster schema is known — that exact schema. A
    /// static placement must also answer the [`Support`] probes (one
    /// pipelined frame) the way the shard's first verified replica did:
    /// asked at the replica's first handshake and, with `reverify`, at every
    /// background one — a query-path re-dial of a replica already seen
    /// serving the shard's support costs what it did before supports
    /// existed. Returns the verified connection plus the served schema
    /// (for connect-time cross-shard comparison).
    fn dial_verified(
        &self,
        idx: usize,
        reverify: bool,
    ) -> std::result::Result<(Client, Schema), DialFailure> {
        let seen = self.last_seen_epoch.load(Ordering::SeqCst);
        let replica = &self.replicas[idx];
        let addr = replica.addr.as_str();
        let mut client = Client::connect_with(addr, self.config.client_config())
            .map_err(|e| DialFailure::Transport(format!("cannot connect: {e}")))?;
        client.ping().map_err(|e| match e {
            ClientError::Io(io) => DialFailure::Transport(format!("transport failure: {io}")),
            ClientError::Model(ModelError::Busy(msg)) => DialFailure::Busy(msg),
            ClientError::Model(m) => DialFailure::Transport(format!("handshake failure: {m}")),
        })?;
        let served_schema = client
            .schema()
            .map_err(|e| DialFailure::Transport(format!("schema handshake failure: {e}")))?
            .clone();
        let served_n = client
            .served_n()
            .map_err(|e| DialFailure::Transport(format!("schema handshake failure: {e}")))?
            .ok_or_else(|| {
                DialFailure::Transport(
                    "server did not report its cardinality (pre-handshake build?)".to_string(),
                )
            })?;
        if self.dynamic {
            // A live node's cardinality grows as deltas fold: adopt the
            // served value, and treat growth like a blob swap for cached
            // answers (answers merged under the old n are stale).
            let prev = self.n.swap(served_n, Ordering::AcqRel);
            if prev != 0 && prev != served_n {
                self.generation.fetch_add(1, Ordering::Release);
            }
            // Adopted — unless an epoch was observed since the handshake
            // began: its fold may be missing from `served_n`, or a racing
            // dial stored a newer `n` before this one. Cleared first, so a
            // mark `note_epoch` sets meanwhile is never lost.
            self.redial.store(false, Ordering::SeqCst);
            if self.last_seen_epoch.load(Ordering::SeqCst) != seen {
                self.redial.store(true, Ordering::SeqCst);
            }
        } else if served_n != self.n() {
            return Err(DialFailure::WrongBlob(format!(
                "serves n = {served_n} but the manifest declares n = {}",
                self.n()
            )));
        }
        if let Some(expected) = self.expected_schema.get() {
            if expected != &served_schema {
                return Err(DialFailure::WrongBlob(
                    "served schema differs from the cluster's (changed blob?)".to_string(),
                ));
            }
        }
        if !self.dynamic && (reverify || !replica.support_verified.load(Ordering::Acquire)) {
            let learned =
                Support::learn(served_schema.arity(), |asks| client.probe_pipelined(asks));
            let served = learned.map_err(|e: ClientError| {
                DialFailure::Transport(format!("support handshake failure: {e}"))
            })?;
            if self.support.get_or_init(|| served.clone()) != &served {
                return Err(DialFailure::WrongBlob(
                    "served support differs from the shard's (changed blob?)".to_string(),
                ));
            }
            replica.support_verified.store(true, Ordering::Release);
        }
        Ok((client, served_schema))
    }

    /// Picks the next replica to try: rotation from `start`, skipping
    /// evicted replicas and open breakers. When every live replica's
    /// breaker is open, returns the one whose cooldown expires soonest —
    /// the probation probe that lets a healed outage close breakers again.
    fn choose(&self, start: usize, now: Instant) -> Option<usize> {
        let len = self.replicas.len();
        let mut soonest_open: Option<(usize, Instant)> = None;
        for off in 0..len {
            let idx = (start + off) % len;
            let health = self.replicas[idx].health.lock().expect("replica health");
            if health.evicted {
                continue;
            }
            match health.open_until {
                Some(t) if t > now => {
                    if soonest_open.is_none_or(|(_, best)| t < best) {
                        soonest_open = Some((idx, t));
                    }
                }
                _ => return Some(idx),
            }
        }
        soonest_open.map(|(idx, _)| idx)
    }

    /// The failover loop: runs `f` against a verified connection of a live
    /// replica — pooled, or dialed (and handshaken) fresh when the pool is
    /// empty — failing over per the module-level classification. A
    /// connection goes back to the pool after a success, or after a
    /// deterministic error when it owes no reply ([`Client::in_step`]); any
    /// other failure drops it, so the pool never caches a broken or
    /// desynchronized transport. Success resets the replica's breaker and
    /// makes it the preferred replica for subsequent probes. `first` is an
    /// attempt the caller already made on a *pooled* connection of that
    /// replica — the two-pass probe path writes before it reads — and
    /// stands in for the loop's first.
    fn failover<R>(
        &self,
        mut first: Option<(usize, Attempt<R>)>,
        f: impl Fn(&mut Client) -> ClientResultAlias<R>,
    ) -> Result<R> {
        let len = self.replicas.len();
        if len == 0 {
            return Err(self.degraded(&["manifest lists no replica".to_string()]));
        }
        let run = |mut client: Client| {
            let outcome = f(&mut client);
            (client, outcome)
        };
        let mut attempts: Vec<String> = Vec::new();
        let mut tried = vec![false; len];
        let mut backoff = BACKOFF_BASE;
        let mut start = self.preferred.load(Ordering::Relaxed) % len;
        for _ in 0..ATTEMPTS_PER_REPLICA * len {
            let (idx, pooled) = match first.take() {
                Some((idx, outcome)) => (idx, Some(outcome)),
                None => {
                    let Some(idx) = self.choose(start, Instant::now()) else {
                        attempts.push("every replica evicted (changed blob)".to_string());
                        break;
                    };
                    // Failing over to an untried replica is immediate; once
                    // the rotation wraps, sleep the capped exponential
                    // backoff so a struggling cluster is not hammered.
                    if tried[idx] {
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2).min(BACKOFF_CAP);
                    }
                    (idx, self.pooled(idx).map(&run))
                }
            };
            tried[idx] = true;
            start = (idx + 1) % len;
            let replica = &self.replicas[idx];
            let record_failure = || {
                let mut health = replica.health.lock().expect("replica health");
                health.record_failure();
            };
            let outcome = match pooled {
                // A *pooled* transport found dead was idle-reaped, or its
                // node was replaced on the same address: not a node failure
                // (no breaker count, no backoff), but the next bytes must
                // not reach an unverified blob — go through the handshake.
                Some((_, Err(ClientError::Io(e)))) if transport_is_retryable(&e) => None,
                outcome => outcome,
            };
            let (client, outcome) = match outcome {
                Some(attempt) => attempt,
                None => match self.dial_verified(idx, false) {
                    Ok((client, _)) => run(client),
                    Err(DialFailure::WrongBlob(detail)) => {
                        self.evict_replica(idx);
                        attempts.push(format!("{}: evicted: {detail}", replica.addr));
                        continue;
                    }
                    Err(DialFailure::Transport(detail)) => {
                        record_failure();
                        attempts.push(format!("{}: {detail}", replica.addr));
                        continue;
                    }
                    Err(DialFailure::Busy(msg)) => {
                        attempts.push(format!("{}: busy: {msg}", replica.addr));
                        continue;
                    }
                },
            };
            match outcome {
                Ok(out) => {
                    replica
                        .health
                        .lock()
                        .expect("replica health")
                        .record_success();
                    self.preferred.store(idx, Ordering::Relaxed);
                    replica.put_back(client);
                    return Ok(out);
                }
                // Load shedding: the serving layer answered a typed busy
                // line (and closed the session) — transient, back off and
                // retry without opening the breaker: the node is alive.
                Err(ClientError::Model(ModelError::Busy(msg))) => {
                    attempts.push(format!("{}: busy: {msg}", replica.addr));
                }
                // Protocol failure: the response frame did not decode
                // (corrupted or truncated stream). The transport is
                // desynchronized — drop it and fail over.
                Err(ClientError::Model(ModelError::Parse { message, .. })) => {
                    record_failure();
                    attempts.push(format!("{}: protocol failure: {message}", replica.addr));
                }
                // Deterministic server error: every replica would compute
                // the same error, so fail the call immediately — a
                // server-reported error line is never re-sent. Read to its
                // end, it leaves the connection in step for the next call.
                Err(ClientError::Model(other)) => {
                    if client.in_step() {
                        replica.put_back(client);
                    }
                    return Err(self.named(other));
                }
                // Transport death or deadline expiry: fail over.
                Err(ClientError::Io(io)) => {
                    record_failure();
                    attempts.push(format!("{}: transport failure: {io}", replica.addr));
                }
            }
        }
        Err(self.degraded(&attempts))
    }

    /// The write half of a probe round trip: checks a pooled, verified
    /// connection of the replica the failover loop would try first out of
    /// its pool and writes `lines` to it. `None` when that replica has no
    /// idle connection — the loop will dial one.
    fn send(&self, lines: &[Cow<'_, str>]) -> Option<(usize, Attempt<()>)> {
        let start = self.preferred.load(Ordering::Relaxed) % self.replicas.len().max(1);
        let idx = self.choose(start, Instant::now())?;
        let mut client = self.pooled(idx)?;
        let written = client.send_probes(lines);
        Some((idx, (client, written)))
    }

    /// The read half: the replies to `lines` from the connection
    /// [`RemoteShard::send`] wrote them to — and, when there was none or
    /// either half failed, from the failover loop, which takes the failed
    /// attempt as its first and re-sends the lines itself.
    fn receive(
        &self,
        lines: &[Cow<'_, str>],
        sent: Option<(usize, Attempt<()>)>,
    ) -> Result<Vec<ProbeResponse>> {
        let first = sent.map(|(idx, (mut client, written))| {
            let read = written.and_then(|()| client.read_probe_replies(lines.len()));
            (idx, (client, read))
        });
        self.failover(first, |client| {
            client.send_probes(lines)?;
            client.read_probe_replies(lines.len())
        })
    }

    /// Background re-verification of replica `idx`: a fresh dial plus
    /// handshake. Success warms the pool and (probation) closes the
    /// breaker; a changed blob evicts; a dead node counts toward the
    /// breaker so query-path probes skip it sooner, a busy one does not.
    fn rehandshake_replica(&self, idx: usize) {
        if self.replicas[idx].is_evicted() {
            return;
        }
        match self.dial_verified(idx, true) {
            Ok((client, _)) => {
                let replica = &self.replicas[idx];
                replica
                    .health
                    .lock()
                    .expect("replica health")
                    .record_success();
                replica.put_back(client);
            }
            Err(DialFailure::WrongBlob(_)) => self.evict_replica(idx),
            Err(DialFailure::Busy(_)) => {}
            Err(DialFailure::Transport(_)) => self.replicas[idx]
                .health
                .lock()
                .expect("replica health")
                .record_failure(),
        }
    }

    fn shape_error(&self, got: &ProbeResponse) -> ModelError {
        let line = got.encode();
        let shape: Vec<&str> = line.splitn(3, ' ').take(2).collect();
        self.named(format!(
            "unexpected probe response shape: {}",
            shape.join(" ")
        ))
    }
}

type ClientResultAlias<T> = std::result::Result<T, ClientError>;

/// One try of a call on a connection: the connection, kept whatever the
/// outcome, and the outcome.
type Attempt<R> = (Client, ClientResultAlias<R>);

/// Sample indices per `SampleAt` frame: bounds the request line (≤ 21
/// bytes per index) against the serving layer's `MAX_LINE_BYTES` (1 MiB).
const PROBE_INDEX_CHUNK: usize = 8192;

/// Masks per `ProbabilityMany`/`CountMany` frame. A predicate mask travels
/// as its runs of ones (the `r` item), tens of bytes; the bound is set by
/// the `w` item, which spells out every bucket weight of every constrained
/// attribute and is the longest a mask is ever encoded: 32 such masks keep
/// a batch line under the serving layer's line cap (`MAX_LINE_BYTES`) even
/// for domains in the thousands of buckets per attribute, and so within
/// the weights the decoder lets one line's `r` items expand to.
const PROBE_MASK_CHUNK: usize = 32;

/// Concatenates the replies to the frames of a batch or draw `request`, in
/// order; a draw of no rows (no frame sent) has width `arity`. A reply of
/// the wrong variant is returned as it is — the caller's shape test
/// rejects it.
fn join(request: &ProbeRequest, replies: Vec<ProbeResponse>, arity: usize) -> ProbeResponse {
    let mut joined = match request {
        ProbeRequest::ProbabilityMany { .. } => ProbeResponse::Probabilities(Vec::new()),
        ProbeRequest::CountMany { .. } => ProbeResponse::Estimates(Vec::new()),
        _ => ProbeResponse::Rows {
            arity,
            rows: Vec::new(),
        },
    };
    for reply in replies {
        match (&mut joined, reply) {
            (ProbeResponse::Probabilities(all), ProbeResponse::Probabilities(ps)) => all.extend(ps),
            (ProbeResponse::Estimates(all), ProbeResponse::Estimates(list)) => all.extend(list),
            (
                ProbeResponse::Rows {
                    arity: all_arity,
                    rows: all,
                },
                ProbeResponse::Rows { arity, rows },
            ) => {
                *all_arity = arity;
                all.extend(rows);
            }
            (_, other) => return other,
        }
    }
    joined
}

impl ShardProbe for RemoteShard {
    /// Probe state lives in the per-replica connection pools, not in a
    /// per-call scratch.
    type Scratch = ();

    fn n(&self) -> u64 {
        RemoteShard::n(self)
    }

    fn make_scratch(&self) {}

    fn support(&self) -> Option<&Support> {
        self.support.get()
    }

    /// The one-shard case of [`RemoteShard::probe_each`].
    fn probe(&self, request: &ProbeRequest, s: &mut ()) -> Result<ProbeResponse> {
        let ask = Ask {
            shard: 0,
            slots: None,
        };
        let shard = std::slice::from_ref(self);
        let mut answers = Self::probe_each(shard, request, &[ask], std::slice::from_mut(s));
        answers.pop().expect("one answer per ask")
    }

    /// The one site that puts probe frames on the wire, in two passes on
    /// the calling thread: every asked shard's frames are written — each to
    /// a pooled, verified connection — before the first reply is read, so
    /// the shards compute side by side and a fan-out costs one round trip,
    /// not one per shard. The request is encoded once
    /// ([`SharedEncoding`]): every shard is sent the same scalar line, and
    /// a batch's frames — an ask's slots, cut against the line cap — share
    /// each mask's bytes. The shard answers each frame through the same
    /// dispatch an in-process shard runs, so the joined reply is
    /// bitwise-identical to probing the model directly. A shard without an
    /// idle connection, or whose write or read fails, is answered by the
    /// failover loop (`RemoteShard::failover`), which never re-dials
    /// without the handshake; a connection that was written to and not
    /// read to the end is dropped there, never pooled.
    fn probe_each(
        shards: &[RemoteShard],
        request: &ProbeRequest,
        asks: &[Ask],
        _scratches: &mut [()],
    ) -> Vec<Result<ProbeResponse>> {
        let encoding = SharedEncoding::new(request);
        let chunk = match request {
            ProbeRequest::SampleAt { .. } => PROBE_INDEX_CHUNK,
            _ => PROBE_MASK_CHUNK,
        };
        let every: Vec<usize> = (0..request.slots().unwrap_or(0)).collect();
        let frame = |slots: &[usize]| Cow::Owned(encoding.frame(slots));
        let written: Vec<_> = asks
            .iter()
            .map(|ask| {
                let lines: Vec<Cow<'_, str>> = match request.slots() {
                    None => vec![Cow::Borrowed(encoding.whole())],
                    Some(_) => {
                        let slots = ask.slots.as_deref().unwrap_or(&every);
                        slots.chunks(chunk).map(frame).collect()
                    }
                };
                // An empty batch is answered without touching the wire.
                let sent = if lines.is_empty() {
                    None
                } else {
                    shards[ask.shard].send(&lines)
                };
                (lines, sent)
            })
            .collect();
        let answer = |(ask, (lines, sent)): (&Ask, (Vec<Cow<'_, str>>, _))| {
            let shard = &shards[ask.shard];
            let mut replies = if lines.is_empty() {
                Vec::new()
            } else {
                shard.receive(&lines, sent)?
            };
            let reply = match request.slots() {
                // An empty draw is as wide as the cluster schema.
                Some(_) => {
                    let arity = shard.expected_schema.get().map_or(0, Schema::arity);
                    join(request, replies, arity)
                }
                None => replies.pop().expect("one reply per frame"),
            };
            if !ask.answered_by(request, &reply) {
                return Err(shard.shape_error(&reply));
            }
            // Drawn rows are placed into the answer as they come: their
            // arity must be the cluster schema's.
            if let (ProbeResponse::Rows { arity, rows }, Some(schema)) =
                (&reply, shard.expected_schema.get())
            {
                if !rows.is_empty() && *arity != schema.arity() {
                    return Err(shard.named(format!(
                        "answered a row of arity {arity} (schema arity {})",
                        schema.arity()
                    )));
                }
            }
            Ok(reply)
        };
        asks.iter().zip(written).map(answer).collect()
    }
}

/// The background re-handshake thread's handle; dropping it stops and
/// joins the thread.
#[derive(Debug)]
struct Rehandshake {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Rehandshake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A sharded summary whose shards live on other nodes: the remote
/// scatter/gather backend. See the module docs for the placement model,
/// the bitwise-parity guarantee, and the failover semantics.
#[derive(Debug)]
pub struct RemoteShardedSummary {
    schema: Schema,
    domain_sizes: Vec<usize>,
    shards: Arc<Vec<RemoteShard>>,
    rehandshake: Option<Rehandshake>,
}

impl RemoteShardedSummary {
    /// [`RemoteShardedSummary::connect_with`] under the default
    /// [`FailoverConfig`].
    pub fn connect(manifest: &[ClusterShard]) -> Result<Self> {
        Self::connect_with(manifest, FailoverConfig::default())
    }

    /// Connects to every shard of a cluster manifest and performs the
    /// shard-manifest handshake. Per shard, replicas are tried in manifest
    /// order until one passes: it must answer `ping`, serve a schema
    /// identical to the first connected shard's, and report the
    /// cardinality the manifest declares. A replica serving the wrong
    /// blob is evicted; an unreachable replica is merely marked failing —
    /// the cluster connects as long as **some** replica of every shard
    /// verifies. A shard whose whole replica set fails surfaces as
    /// [`ModelError::Degraded`]; a config that fails
    /// [`FailoverConfig::validate`] as [`ModelError::InvalidConfig`],
    /// before any dial.
    pub fn connect_with(manifest: &[ClusterShard], config: FailoverConfig) -> Result<Self> {
        config.validate()?;
        if manifest.is_empty() {
            return Err(ModelError::Remote(RemoteDetail::message(
                "cluster manifest has no shards",
            )));
        }
        let mut shards = Vec::with_capacity(manifest.len());
        let mut schema: Option<Schema> = None;
        for entry in manifest {
            let shard = RemoteShard::new(entry, config.clone());
            if let Some(first) = &schema {
                // Later shards verify against the cluster schema inside
                // the dial itself (wrong schema ⇒ WrongBlob ⇒ eviction).
                let _ = shard.expected_schema.set(first.clone());
            }
            let mut attempts: Vec<String> = Vec::new();
            let mut connected = false;
            for idx in 0..shard.replicas.len() {
                match shard.dial_verified(idx, false) {
                    Ok((client, served_schema)) => {
                        if schema.is_none() {
                            schema = Some(served_schema);
                        }
                        shard.preferred.store(idx, Ordering::Relaxed);
                        shard.replicas[idx]
                            .health
                            .lock()
                            .expect("replica health")
                            .record_success();
                        // The handshake connection seeds the pool.
                        shard.replicas[idx].put_back(client);
                        connected = true;
                        break;
                    }
                    Err(DialFailure::WrongBlob(detail)) => {
                        shard.evict_replica(idx);
                        attempts.push(format!("{}: evicted: {detail}", shard.replicas[idx].addr));
                    }
                    Err(DialFailure::Transport(detail)) => {
                        shard.replicas[idx]
                            .health
                            .lock()
                            .expect("replica health")
                            .record_failure();
                        attempts.push(format!("{}: {detail}", shard.replicas[idx].addr));
                    }
                    Err(DialFailure::Busy(msg)) => {
                        attempts.push(format!("{}: busy: {msg}", shard.replicas[idx].addr));
                    }
                }
            }
            if !connected {
                return Err(shard.degraded(&attempts));
            }
            shards.push(shard);
        }
        let schema = schema.expect("at least one shard connected");
        // Shard 0 (whichever connected first) seeded the cluster schema
        // after its own dial; arm its verifier too.
        for shard in &shards {
            let _ = shard.expected_schema.set(schema.clone());
        }
        if shards.iter().map(RemoteShard::n).sum::<u64>() == 0 {
            return Err(ModelError::Remote(RemoteDetail::message(
                "cluster serves an empty relation",
            )));
        }
        let domain_sizes = schema.domain_sizes();
        Ok(RemoteShardedSummary {
            schema,
            domain_sizes,
            shards: Arc::new(shards),
            rehandshake: None,
        })
    }

    /// Starts the background re-handshake thread: every `interval`, each
    /// non-evicted replica is re-dialed and re-verified. A replica caught
    /// serving a changed blob is evicted before the query path can reach
    /// it; a dead replica's breaker opens early; a healed replica's
    /// breaker closes (probation). Idempotent; the thread stops when the
    /// summary is dropped.
    pub fn start_rehandshake(&mut self, interval: Duration) {
        if self.rehandshake.is_some() {
            return;
        }
        let shards = Arc::clone(&self.shards);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(20).min(interval.max(Duration::from_millis(1)));
            let mut since_sweep = Duration::ZERO;
            loop {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(tick);
                since_sweep += tick;
                if since_sweep < interval {
                    continue;
                }
                since_sweep = Duration::ZERO;
                for shard in shards.iter() {
                    for idx in 0..shard.replicas.len() {
                        if thread_stop.load(Ordering::SeqCst) {
                            return;
                        }
                        shard.rehandshake_replica(idx);
                    }
                }
            }
        });
        self.rehandshake = Some(Rehandshake {
            stop,
            handle: Some(handle),
        });
    }

    /// Total relation cardinality `n`: the sum of the shard cardinalities
    /// as of each shard's last handshake (a live shard's grows).
    pub fn n(&self) -> u64 {
        self.shards.iter().map(RemoteShard::n).sum()
    }

    /// The served relation's schema (identical on every shard, verified
    /// during the handshake).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The remote shards, in shard order.
    pub fn shards(&self) -> &[RemoteShard] {
        &self.shards
    }

    /// A shareable handle to the shard set — the gateway's control loop
    /// keeps one to report per-replica health after [`crate::serve_with`]
    /// has consumed the summary.
    pub fn shard_set(&self) -> Arc<Vec<RemoteShard>> {
        Arc::clone(&self.shards)
    }

    /// Number of shards in the cluster.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns the cluster's live delta: shard 0 by
    /// convention (clusters with a live node place it first, typically as
    /// a dynamic `n = 0` manifest entry). Appends route here; the other
    /// shards stay immutable base segments.
    pub fn delta_owner(&self) -> &RemoteShard {
        self.shards
            .first()
            .expect("manifest has at least one shard")
    }
}

/// The cluster answers a probe the way the local mixture does: ask the
/// shards that can contribute the one borrowed request and merge — the
/// local backend's code path, so answers match it bit for bit. Only the
/// masks a shard supports cross the wire to it; a sample draw reaches only
/// the shards that owe rows. Either way it is one write pass and one read
/// pass.
impl ShardProbe for RemoteShardedSummary {
    /// One (empty) probe scratch per shard — remote probe state is the
    /// connection pool, but the scatter fan-out still wants a slot each.
    type Scratch = Vec<()>;

    fn n(&self) -> u64 {
        RemoteShardedSummary::n(self)
    }

    fn make_scratch(&self) -> Vec<()> {
        vec![(); self.shards.len()]
    }

    fn probe(&self, request: &ProbeRequest, scratch: &mut Vec<()>) -> Result<ProbeResponse> {
        scatter::gather(&self.shards, request, scratch)
    }
}

impl SummaryBackend for RemoteShardedSummary {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn domain_sizes(&self) -> &[usize] {
        &self.domain_sizes
    }

    /// The sum of the shards' blob generations: every counter only grows,
    /// so the sum moves exactly when one of them does.
    fn generation(&self) -> u64 {
        self.shards.iter().map(RemoteShard::blob_generation).sum()
    }

    /// The delta owner's last *observed* epoch. `0` until an append or
    /// [`SummaryBackend::ingest_stats`] reply has been seen — the gateway
    /// learns epochs from replies, it does not poll.
    fn epoch(&self) -> u64 {
        self.delta_owner().last_seen_epoch()
    }

    /// Routes the append to the cluster's delta owner (shard 0 by
    /// convention — the node started in live mode). The idempotency token
    /// is **pinned before** the failover loop runs: if the first attempt
    /// dies mid-flight and the gatherer retries on another replica (or a
    /// fresh connection), the retry carries the same token and the
    /// owner's token window absorbs the replay — ambiguous transport
    /// failures cannot double-ingest. The reply's epoch feeds
    /// [`RemoteShard::note_epoch`], invalidating cached answers the moment
    /// a fold becomes visible.
    fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        let owner = self.delta_owner();
        let pinned = match token {
            Some(t) => t.to_string(),
            None => generate_append_token(),
        };
        let outcome = owner.failover(None, |client| client.append(rows, Some(&pinned)))?;
        owner.note_epoch(outcome.epoch);
        Ok(outcome)
    }

    /// Fetches the delta owner's ingest counters over the wire (`None`
    /// when the owner is unreachable or serves an immutable summary).
    /// Observing the epoch doubles as cache invalidation — a poll after a
    /// background fold orphans stale cached answers.
    fn ingest_stats(&self) -> Option<IngestStatsSnapshot> {
        let owner = self.delta_owner();
        let stats = owner
            .failover(None, |client| client.ingest_stats())
            .ok()
            .flatten()?;
        owner.note_epoch(stats.epoch);
        Some(stats)
    }
}
