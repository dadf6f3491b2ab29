//! The measured phases: the closed-loop request stream, the 16-query
//! batches, and the append path, all over loopback TCP through the public
//! `Client`. One connection at depth 1 carries every latency sample; the
//! live workload's appender is the only second connection.

use crate::model::{Deployed, Oracle, LIVE_BATCH_ROWS};
use crate::stream::{Kind, Stream, COUNT_MIX, FULL_MIX, GROUP_MIX};
use entropydb_core::plan::QueryRequest;
use entropydb_server::{CacheStatsSnapshot, Client, ClientError, ServerStatsSnapshot};
use entropydb_storage::Predicate;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request in this many is compared with the in-process oracle.
pub const CHECK_EVERY: u64 = 16;
pub const BATCH: usize = 16;
/// A measured pass is a sequence of rounds this long, each split between
/// the kinds of work by fixed shares, so every metric samples the whole
/// pass: the host's speed drifts by a tenth over tens of seconds, and a
/// metric measured in one short stretch would inherit that stretch's luck.
const ROUND: Duration = Duration::from_millis(500);
/// Shares of a round on topologies without writes.
const STATIC_ROUND: [(Slice, f64); 3] = [
    (Slice::Stream(&FULL_MIX), 0.70),
    (Slice::Batches, 0.18),
    (Slice::Refusals, 0.12),
];
/// After the live workload's appends: group-bys, top-ks and batches for
/// this share of `--seconds`, split by these shares of a round.
const LIVE_AFTER_SHARE: f64 = 0.43;
const LIVE_AFTER_ROUND: [(Slice, f64); 2] =
    [(Slice::Stream(&GROUP_MIX), 0.58), (Slice::Batches, 0.42)];

/// One kind of work inside a round.
#[derive(Debug, Clone, Copy)]
enum Slice {
    /// Stream requests of the given mix.
    Stream(&'static [(Kind, f64)]),
    /// 16-query batches.
    Batches,
    /// Appends an immutable topology must refuse.
    Refusals,
}
/// Append batches per `--seconds` second on the live workload: a fold takes
/// ≈ 0.4 s beside the query stream, so the phase lasts about `--seconds`.
/// The count is fixed, not the duration, because the delta shard (and with
/// it query cost, fold cost and accuracy) grows with every batch.
const LIVE_BATCHES_PER_SECOND: f64 = 2.4;
/// The appended rows' distance buckets. A fixed narrow window keeps a fold
/// bounded: a rotating window grows folds from 42 ms to 5.7 s in ten
/// cycles, and a uniform delta costs 2.8–4.5 s per fold.
const LIVE_DISTANCE_WINDOW: std::ops::Range<u32> = 20..23;
const POLL: Duration = Duration::from_millis(2);
const MAX_RECORDED_FAILURES: usize = 8;
/// A phase that fails this often is broken, not slow: stop asking.
const GIVE_UP_AFTER: u64 = 1000;

#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < MAX_RECORDED_FAILURES {
            self.failures.push(what.into());
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < MAX_RECORDED_FAILURES {
                self.failures.push(f);
            }
        }
    }
}

/// Latency samples of one measured pass, in the order they were taken.
#[derive(Debug, Default)]
pub struct Samples {
    /// Fresh requests per kind (µs), indexed by `Kind::index`.
    pub fresh_us: [Vec<f64>; 4],
    /// How far the phase had progressed (0..1) at each fresh point sample.
    pub point_progress: Vec<f64>,
    /// Point counts whose identical line was sent earlier (µs).
    pub repeat_point_us: Vec<f64>,
    /// Repeats of any kind (µs), for the tail report.
    pub repeat_any_us: Vec<f64>,
    pub batch16_us: Vec<f64>,
    /// `a1` write → rows queryable (ms); → typed refusal where the
    /// topology is immutable.
    pub append_visible_ms: Vec<f64>,
    pub append_ack_us: Vec<f64>,
    /// Server-side wire bytes over the stream phase (`stats server` deltas)
    /// and the requests sent between the two readings.
    pub counted_requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub dispatch_depth_max: u64,
    /// Gather-cache counters over the whole pass (`stats` deltas; zero
    /// where the topology runs no cache).
    pub cache: CacheStatsSnapshot,
}

/// A wire answer to compare with the oracle once the phase is over. `None`
/// means the answer was taken while the model was still changing: the
/// request is asked again against the final state.
pub type Check = (QueryRequest, Option<String>);

pub struct Harness<'a> {
    pub deployed: &'a Deployed,
    pub client: Client,
    pub stream: Stream,
    pub ops: Ops,
    pub checks: Vec<Check>,
    sent: u64,
}

fn describe(e: &ClientError) -> String {
    match e {
        ClientError::Io(e) => format!("transport error: {e}"),
        ClientError::Model(e) => format!("server error: {e}"),
    }
}

impl<'a> Harness<'a> {
    pub fn new(deployed: &'a Deployed, seed: u64) -> Result<Harness<'a>, String> {
        Ok(Harness {
            deployed,
            client: deployed.connect()?,
            stream: Stream::new(seed, deployed.attrs()),
            ops: Ops::default(),
            checks: Vec::new(),
            sent: 0,
        })
    }

    /// Untimed requests, so scratch pools, marginal rows and the gather
    /// cache's hot entries exist before the first sample.
    pub fn warm_up(&mut self, requests: usize) {
        let mut scratch = Samples::default();
        let mut left = requests;
        self.run_stream(
            &mut scratch,
            &FULL_MIX,
            || 0.0,
            |_| {
                left = left.saturating_sub(1);
                left == 0
            },
        );
        for _ in 0..4 {
            self.one_batch(&mut scratch);
        }
    }

    fn server_counters(&mut self) -> ServerStatsSnapshot {
        self.client.server_stats().unwrap_or_else(|e| {
            self.ops.fail(format!("stats server: {}", describe(&e)));
            ServerStatsSnapshot::default()
        })
    }

    /// The gather cache's counters; zeros where the topology runs none.
    fn cache_counters(&mut self) -> CacheStatsSnapshot {
        match self.client.cache_stats() {
            Ok(stats) => stats.unwrap_or_default(),
            Err(e) => {
                self.ops.fail(format!("stats: {}", describe(&e)));
                CacheStatsSnapshot::default()
            }
        }
    }

    /// [`Self::run_stream`] between two `stats server` readings.
    fn counted_stream(
        &mut self,
        samples: &mut Samples,
        mix: &[(Kind, f64)],
        progress: impl Fn() -> f64,
        stop: impl FnMut(f64) -> bool,
    ) {
        let before = self.server_counters();
        samples.counted_requests += self.run_stream(samples, mix, progress, stop);
        let after = self.server_counters();
        samples.bytes_in += after.bytes_in.saturating_sub(before.bytes_in);
        samples.bytes_out += after.bytes_out.saturating_sub(before.bytes_out);
        samples.dispatch_depth_max = samples
            .dispatch_depth_max
            .max(before.dispatch_depth)
            .max(after.dispatch_depth);
    }

    fn cache_delta(&mut self, before: CacheStatsSnapshot) -> CacheStatsSnapshot {
        let after = self.cache_counters();
        CacheStatsSnapshot {
            hits: after.hits.saturating_sub(before.hits),
            misses: after.misses.saturating_sub(before.misses),
            coalesced: after.coalesced.saturating_sub(before.coalesced),
            evicted: after.evicted.saturating_sub(before.evicted),
        }
    }

    /// Sends stream requests until `stop` says so (asked after every
    /// request with the phase's progress); returns how many it sent.
    fn run_stream(
        &mut self,
        samples: &mut Samples,
        mix: &[(Kind, f64)],
        progress: impl Fn() -> f64,
        mut stop: impl FnMut(f64) -> bool,
    ) -> u64 {
        let keep_lines = !self.deployed.workload.is_live();
        let mut requests = 0;
        loop {
            let item = self.stream.next_item(mix);
            let at = progress();
            let start = Instant::now();
            let answer = self.client.execute(&item.request);
            let us = start.elapsed().as_secs_f64() * 1e6;
            requests += 1;
            match answer {
                Ok(response) => {
                    self.ops.ok();
                    if item.repeat {
                        samples.repeat_any_us.push(us);
                        if item.kind == Kind::Point {
                            samples.repeat_point_us.push(us);
                        }
                    } else {
                        samples.fresh_us[item.kind.index()].push(us);
                        if item.kind == Kind::Point {
                            samples.point_progress.push(at);
                        }
                    }
                    self.sent += 1;
                    if self.sent.is_multiple_of(CHECK_EVERY) {
                        self.checks
                            .push((item.request, keep_lines.then(|| response.encode())));
                    }
                }
                Err(e) => self.ops.fail(format!("{}: {}", item.line, describe(&e))),
            }
            if stop(progress()) || self.ops.failed >= GIVE_UP_AFTER {
                return requests;
            }
        }
    }

    /// One `execute_batch` of 16 fresh count queries (a dashboard refresh):
    /// point and range counts alternating.
    fn one_batch(&mut self, samples: &mut Samples) {
        let requests: Vec<QueryRequest> = (0..BATCH)
            .map(|i| {
                let kind = if i % 2 == 0 { Kind::Point } else { Kind::Range };
                self.stream.fresh(kind).request
            })
            .collect();
        let start = Instant::now();
        let answers = self.client.execute_batch(&requests);
        let us = start.elapsed().as_secs_f64() * 1e6;
        match answers {
            Ok(answers) if answers.iter().all(Result::is_ok) => {
                self.ops.ok();
                samples.batch16_us.push(us);
                self.sent += 1;
                if self.sent.is_multiple_of(CHECK_EVERY) {
                    let keep_lines = !self.deployed.workload.is_live();
                    for (request, answer) in requests.into_iter().zip(answers) {
                        let line = answer.expect("all answers are ok").encode();
                        self.checks.push((request, keep_lines.then_some(line)));
                    }
                }
            }
            Ok(answers) => {
                let first = answers.into_iter().find_map(Result::err);
                self.ops.fail(format!(
                    "batch element failed: {}",
                    first.expect("one failed")
                ));
            }
            Err(e) => self.ops.fail(format!("batch: {}", describe(&e))),
        }
    }

    fn run_batches(&mut self, samples: &mut Samples, mut stop: impl FnMut() -> bool) {
        loop {
            self.one_batch(samples);
            if stop() || self.ops.failed >= GIVE_UP_AFTER {
                break;
            }
        }
    }

    /// Appends to an immutable topology until `stop`: each must come back as
    /// the typed `immutable` refusal, and the time to it is what a writer
    /// sees there.
    fn run_refusals(&mut self, samples: &mut Samples, mut stop: impl FnMut() -> bool) {
        let row = [self.deployed.dataset.table.row(0).expect("table has rows")];
        loop {
            let sent = Instant::now();
            let refusal = self.client.append(&row, None);
            let elapsed = sent.elapsed().as_secs_f64();
            match refusal {
                Err(ClientError::Model(e)) if e.to_string().contains("immutable") => {
                    self.ops.ok();
                    samples.append_ack_us.push(elapsed * 1e6);
                    samples.append_visible_ms.push(elapsed * 1e3);
                }
                Ok(outcome) => self.ops.fail(format!(
                    "immutable topology accepted an append: {outcome:?}"
                )),
                Err(e) => self.ops.fail(format!("append: {}", describe(&e))),
            }
            if stop() || self.ops.failed >= GIVE_UP_AFTER {
                break;
            }
        }
    }

    /// Rounds of `round` (shares of [`ROUND`] per slice) for `seconds`.
    fn run_rounds(&mut self, samples: &mut Samples, seconds: f64, round: &[(Slice, f64)]) {
        let total = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        while start.elapsed() < total && self.ops.failed < GIVE_UP_AFTER {
            for &(slice, share) in round {
                let length = ROUND.mul_f64(share);
                let began = Instant::now();
                let over = || began.elapsed() >= length;
                match slice {
                    Slice::Stream(mix) => self.counted_stream(
                        samples,
                        mix,
                        || (start.elapsed().as_secs_f64() / seconds).min(1.0),
                        |_| over(),
                    ),
                    Slice::Batches => self.run_batches(samples, over),
                    Slice::Refusals => self.run_refusals(samples, over),
                }
            }
        }
    }

    /// One measured pass over an immutable topology.
    pub fn measure_static(&mut self, seconds: f64) -> Samples {
        let mut samples = Samples::default();
        let cache_before = self.cache_counters();
        self.run_rounds(&mut samples, seconds, &STATIC_ROUND);
        samples.cache = self.cache_delta(cache_before);
        samples
    }

    /// Verifies every deferred check against `oracle` (at its current
    /// state) and clears the list.
    pub fn verify(&mut self, oracle: &Oracle) {
        for (request, line) in std::mem::take(&mut self.checks) {
            let got = match line {
                Some(line) => Ok(line),
                None => self.client.execute(&request).map(|r| r.encode()),
            };
            let want = oracle.answer_line(&request);
            match got {
                Ok(got) if got == want => self.ops.ok(),
                Ok(got) => self.ops.fail(format!(
                    "answer differs from in-process execute: {}: wire {got:?}, oracle {want:?}",
                    request.encode()
                )),
                Err(e) => self.ops.fail(format!("re-ask: {}", describe(&e))),
            }
        }
    }
}

/// What the live workload's appender saw, and the rows it got accepted.
#[derive(Debug, Default)]
pub struct Appended {
    pub rows: Vec<Vec<u32>>,
    pub ops: Ops,
    pub ack_us: Vec<f64>,
    pub visible_ms: Vec<f64>,
}

/// The rows the live workload appends: real table rows inside the distance
/// window, in table order, cut into batches.
pub fn live_batches(deployed: &Deployed, batches: usize) -> Vec<Vec<Vec<u32>>> {
    let table = &deployed.dataset.table;
    let distance = deployed.dataset.distance.index();
    let rows: Vec<Vec<u32>> = (0..table.num_rows())
        .filter_map(|r| table.row(r))
        .filter(|row| LIVE_DISTANCE_WINDOW.contains(&row[distance]))
        .take(batches * LIVE_BATCH_ROWS)
        .collect();
    assert_eq!(
        rows.len(),
        batches * LIVE_BATCH_ROWS,
        "table has enough window rows"
    );
    rows.chunks(LIVE_BATCH_ROWS).map(<[_]>::to_vec).collect()
}

/// Connection A of the live workload: append a batch under a token, poll
/// `stats ingest` until the epoch advanced and nothing is staged, repeat.
fn appender(addr: &str, batches: &[Vec<Vec<u32>>], done: &AtomicUsize) -> Appended {
    let mut out = Appended::default();
    let mut run = || -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let mut epoch = client
            .ingest_stats()
            .map_err(|e| describe(&e))?
            .ok_or("live server reports no ingest pipeline")?
            .epoch;
        for (i, batch) in batches.iter().enumerate() {
            let token = format!("bench-{}-{i}", std::process::id());
            let sent = Instant::now();
            let outcome = client
                .append(batch, Some(&token))
                .map_err(|e| describe(&e))?;
            out.ack_us.push(sent.elapsed().as_secs_f64() * 1e6);
            if outcome.duplicate || outcome.accepted != batch.len() as u64 {
                return Err(format!("batch {i} not accepted whole: {outcome:?}"));
            }
            loop {
                std::thread::sleep(POLL);
                let stats = client
                    .ingest_stats()
                    .map_err(|e| describe(&e))?
                    .ok_or("ingest pipeline vanished")?;
                if stats.epoch > epoch && stats.staged_rows == 0 {
                    epoch = stats.epoch;
                    break;
                }
                if sent.elapsed() > Duration::from_secs(60) {
                    return Err(format!("batch {i} never became queryable"));
                }
            }
            out.visible_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            out.rows.extend(batch.iter().cloned());
            out.ops.ok();
            done.store(i + 1, Ordering::Release);
            if i + 1 == batches.len() {
                // The retry of an acknowledged append must be absorbed.
                let replay = client
                    .append(batch, Some(&token))
                    .map_err(|e| describe(&e))?;
                if replay.duplicate && replay.accepted == 0 {
                    out.ops.ok();
                } else {
                    out.ops
                        .fail(format!("replayed token was ingested again: {replay:?}"));
                }
            }
        }
        Ok(())
    };
    if let Err(e) = run() {
        out.ops.fail(format!("appender: {e}"));
        // Release the reader, which waits for the last batch.
        done.store(batches.len(), Ordering::Release);
    }
    out
}

impl Harness<'_> {
    /// The live workload's measured pass. While connection A appends, this
    /// connection sends the count queries of the stream (point and range);
    /// once the last batch is queryable it sends the group-bys, top-ks and
    /// 16-query batches against the grown mixture. A group-by or top-k that
    /// meets a running fold waits for the two-thread pool the fold occupies
    /// (top-k p50 170 ms, segment medians apart by a factor of 50), so
    /// beside the writes those kinds measure the fold, not the query.
    /// Returns the samples and what was appended.
    pub fn measure_live(&mut self, seconds: f64) -> (Samples, Appended) {
        let count = ((seconds * LIVE_BATCHES_PER_SECOND).ceil() as usize).max(2);
        let batches = live_batches(self.deployed, count);
        let done = AtomicUsize::new(0);
        let progress = || done.load(Ordering::Acquire) as f64 / count as f64;
        let mut samples = Samples::default();
        let cache_before = self.cache_counters();
        let addr = self.deployed.topology.addr.clone();
        let appended = std::thread::scope(|scope| {
            let writer = scope.spawn(|| appender(&addr, &batches, &done));
            self.counted_stream(&mut samples, &COUNT_MIX, progress, |at| at >= 1.0);
            writer.join().expect("appender does not panic")
        });
        self.run_rounds(&mut samples, seconds * LIVE_AFTER_SHARE, &LIVE_AFTER_ROUND);
        samples.append_ack_us = appended.ack_us.clone();
        samples.append_visible_ms = appended.visible_ms.clone();
        samples.cache = self.cache_delta(cache_before);
        (samples, appended)
    }

    /// After the appends: `COUNT(*)` over the wire must equal the base rows
    /// plus every accepted row.
    pub fn check_live_count(&mut self, accepted: usize) {
        let want = (self.deployed.dataset.table.num_rows() + accepted) as u64;
        match self.client.execute(&QueryRequest::count(Predicate::new())) {
            Ok(response) => match response.estimate() {
                Some(e) if e.rounded() == want => self.ops.ok(),
                other => self.ops.fail(format!(
                    "COUNT(*) after appends: want {want}, got {other:?}"
                )),
            },
            Err(e) => self.ops.fail(format!("COUNT(*): {}", describe(&e))),
        }
    }
}
