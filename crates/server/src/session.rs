//! The line-protocol state machine — the only one. [`SessionState`] turns
//! bytes into [`Work`] incrementally over partial reads; `execute_work`
//! (`server.rs`) turns `Work` into reply bytes. Both I/O drivers — epoll
//! (`reactor.rs`) and blocking (`server.rs`) — feed bytes to
//! [`SessionState::pump`] and answer what it queues, so every wire rule
//! lives here: the command classification, the final unterminated line at
//! EOF (it still counts), and the [`MAX_LINE_BYTES`] violation semantics
//! (the offending session ends, no reply for the oversized line).
//! Contiguous compute lines coalesce into one [`Work::Run`] so a pipelined
//! burst — a client's batch — is answered with one engine batch and one
//! socket write. The write buffer and the close / linger
//! bookkeeping serve the epoll driver only; the blocking driver writes
//! each reply synchronously.

// Off Linux only the decoder half runs; `Session`, the write buffer and
// the close bookkeeping have no user there.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use crate::protocol::{MAX_IN_FLIGHT, MAX_LINE_BYTES};
use entropydb_core::error::ModelError;
use entropydb_core::metrics::ServerCounters;
use entropydb_core::plan::QueryResponse;
use entropydb_core::probe::ProbeResponse;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Instant;

/// Cheap session-level replies answered without touching the backend's
/// query paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReplyKind {
    /// `ping` → `pong`.
    Ping,
    /// `schema` → the multi-line schema block.
    Schema,
    /// `stats` → one `stats cache ...` line.
    CacheStats,
    /// `stats server` → one `stats server ...` line.
    ServerStats,
    /// `stats ingest` → one `stats ingest ...` line.
    IngestStats,
    /// A pre-encoded response (overload shedding).
    Raw(String),
}

/// One unit of decoded work, executed in order, one at a time per session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Work {
    /// Contiguous compute lines (`q1 ...`, `b1 ...`, `a1 ...`, or garbage):
    /// decodable query requests execute as engine batches, probes, appends
    /// and decode errors answer in place, responses concatenate in request
    /// order.
    Run(Vec<String>),
    /// A session-level reply.
    Reply(ReplyKind),
}

impl Work {
    /// How many in-flight requests this work represents, for the
    /// per-connection cap and the global in-flight (`dispatch_depth`)
    /// gauge.
    pub(crate) fn weight(&self) -> usize {
        match self {
            Work::Run(lines) => lines.len(),
            Work::Reply(_) => 1,
        }
    }
}

/// Admission-control caps the decoder applies while turning bytes into
/// work. A served session runs under [`DecodePolicy::SERVED`]; the unit
/// tests tighten a cap to drive the paths that pause decoding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodePolicy {
    /// Global cap on decoded-but-unanswered requests; beyond it new
    /// compute lines are answered with typed `busy` lines instead of
    /// queueing without bound.
    pub max_queue_depth: u64,
    /// Per-connection cap on decoded-but-unanswered requests; beyond it
    /// the decoder stops consuming buffered bytes (and the epoll driver
    /// stops reading) until earlier work completes.
    pub max_in_flight: usize,
    /// Unflushed-response byte threshold past which reads pause: a slow
    /// reader stops generating new work instead of growing the write
    /// buffer without bound.
    pub max_write_buffer: usize,
}

impl DecodePolicy {
    /// The caps of every served session: 65 536 requests in flight across
    /// the server, [`MAX_IN_FLIGHT`] per connection, 1 MiB of unflushed
    /// replies.
    pub(crate) const SERVED: DecodePolicy = DecodePolicy {
        max_queue_depth: 1 << 16,
        max_in_flight: MAX_IN_FLIGHT,
        max_write_buffer: 1 << 20,
    };
}

/// The mutable half of a session, guarded by [`Session::state`].
#[derive(Debug)]
pub(crate) struct SessionState {
    /// Bytes read off the socket, not yet decoded into lines.
    pub read_buf: Vec<u8>,
    /// Offset into `read_buf` where the newline scan resumes (everything
    /// before it has already been scanned without finding a newline).
    pub scan_from: usize,
    /// Decoded work not yet executed. A driver takes the front unit, one
    /// at a time: strict response order within the session.
    pub pending: VecDeque<Work>,
    /// Total weight of decoded-but-unanswered work on this session: what
    /// is `pending` plus the unit executing right now.
    pub in_flight: usize,
    /// Encoded responses not yet written to the socket.
    pub write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    pub write_pos: usize,
    /// The socket hit EOF; once every buffered line is decoded the
    /// remaining bytes count as one final unterminated line.
    pub eof: bool,
    /// No further input will be decoded (EOF, `quit`, or a protocol
    /// violation); close once pending work is answered and flushed.
    pub no_more_input: bool,
    /// Close once the write buffer drains and no work is outstanding.
    pub close_after_flush: bool,
    /// The connection is gone (read/write error): close immediately,
    /// discarding anything unflushed.
    pub broken: bool,
    /// Finalized; all further activity is a no-op.
    pub closed: bool,
    /// Shed connection: sink and discard input until EOF or the linger
    /// deadline, never decode.
    pub sink_reads: bool,
    /// Hard close deadline for shed connections.
    pub linger_deadline: Option<Instant>,
    /// Last moment bytes arrived from the client (idle-timeout reaping).
    pub last_activity: Instant,
    /// Whether this session is counted in the active-sessions gauge
    /// (admitted sessions yes, shed connections no).
    pub counted_active: bool,
}

/// One connection of the epoll driver. The stream stays alive for as long
/// as any clone of the `Arc<Session>` does (a thread mid-turn or a sweep
/// may briefly outlive deregistration), so the fd cannot be reused while
/// a stale reference could still touch it.
#[derive(Debug)]
pub(crate) struct Session {
    /// The registry key and epoll token.
    pub id: u64,
    pub stream: TcpStream,
    pub state: Mutex<SessionState>,
}

impl SessionState {
    pub(crate) fn new(now: Instant) -> Self {
        SessionState {
            read_buf: Vec::new(),
            scan_from: 0,
            pending: VecDeque::new(),
            in_flight: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            eof: false,
            no_more_input: false,
            close_after_flush: false,
            broken: false,
            closed: false,
            sink_reads: false,
            linger_deadline: None,
            last_activity: now,
            counted_active: false,
        }
    }

    /// Whether the epoll driver should arm EPOLLIN.
    pub(crate) fn wants_read(&self, policy: &DecodePolicy) -> bool {
        if self.closed || self.broken {
            return false;
        }
        if self.sink_reads {
            return true;
        }
        if self.no_more_input {
            return false;
        }
        // Backpressure: over the per-connection in-flight cap, or the client
        // is reading responses too slowly to deserve more decoded work.
        if self.in_flight >= policy.max_in_flight {
            return false;
        }
        self.unflushed() < policy.max_write_buffer
    }

    /// Whether the epoll driver has reply bytes to arm EPOLLOUT for.
    pub(crate) fn wants_write(&self) -> bool {
        !self.closed && !self.broken && self.unflushed() > 0
    }

    /// Bytes queued for the client but not yet written.
    pub(crate) fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether the thread ending a turn should finalize this session
    /// instead of re-arming it (the linger deadline is the sweep's).
    pub(crate) fn ready_to_close(&self) -> bool {
        !self.closed
            && (self.broken
                || (self.close_after_flush && self.unflushed() == 0 && self.in_flight == 0))
    }

    /// Decodes every complete line in `read_buf` into pending work,
    /// stopping early at the per-connection in-flight cap. The consumed
    /// prefix is compacted once per call, not per line, so a pipelined
    /// burst decodes in linear time.
    pub(crate) fn drain_lines(&mut self, counters: &ServerCounters, policy: &DecodePolicy) {
        // Start of the current (not yet decoded) line, absolute.
        let mut consumed = 0usize;
        while !self.no_more_input {
            if self.in_flight >= policy.max_in_flight {
                break;
            }
            let Some(nl) = self.read_buf[self.scan_from..]
                .iter()
                .position(|&b| b == b'\n')
            else {
                self.scan_from = self.read_buf.len();
                // A newline-free prefix at the line cap can no longer
                // become a legal line: end the session.
                if self.scan_from - consumed >= MAX_LINE_BYTES as usize {
                    self.violation();
                }
                break;
            };
            let line_end = self.scan_from + nl;
            // The cap counts the newline: a line of `MAX_LINE_BYTES`
            // bytes including its `\n` is legal, one byte more is not.
            if (line_end + 1 - consumed) as u64 > MAX_LINE_BYTES {
                self.violation();
                break;
            }
            let line = match std::str::from_utf8(&self.read_buf[consumed..line_end]) {
                Ok(s) => s.trim().to_string(),
                Err(_) => {
                    // Invalid UTF-8 ends the session without answering
                    // the line.
                    self.violation();
                    break;
                }
            };
            consumed = line_end + 1;
            self.scan_from = consumed;
            self.accept_line(line, counters, policy);
        }
        if self.no_more_input {
            // quit / violation: pipelined bytes after the terminator are
            // never decoded.
            self.read_buf = Vec::new();
            self.scan_from = 0;
        } else if consumed > 0 {
            self.read_buf.drain(..consumed);
            self.scan_from -= consumed;
        }
    }

    /// Decodes whatever can make progress: buffered complete lines, and —
    /// once EOF has been seen and every complete line is consumed — the
    /// final unterminated line, which counts as a line. Call after every
    /// read and after every completed work unit (the in-flight cap may have
    /// paused decoding mid-buffer).
    pub(crate) fn pump(&mut self, counters: &ServerCounters, policy: &DecodePolicy) {
        self.drain_lines(counters, policy);
        if !self.eof || self.no_more_input {
            return;
        }
        // Complete lines may remain while the in-flight cap pauses
        // decoding; the tail only counts as the final line once the whole
        // buffer has been scanned without finding another newline.
        if self.scan_from < self.read_buf.len() {
            return;
        }
        if self.in_flight >= policy.max_in_flight && !self.read_buf.is_empty() {
            return;
        }
        if !self.read_buf.is_empty() {
            let tail = std::mem::take(&mut self.read_buf);
            self.scan_from = 0;
            // Invalid UTF-8 in the tail ends the session without a reply,
            // same as the violation path.
            if let Ok(s) = std::str::from_utf8(&tail) {
                self.accept_line(s.trim().to_string(), counters, policy);
            }
        }
        self.no_more_input = true;
        self.close_after_flush = true;
        self.read_buf = Vec::new();
        self.scan_from = 0;
    }

    /// A protocol violation (oversized or non-UTF-8 line): stop reading,
    /// answer what was already decoded, then close. The violating line
    /// itself gets no reply. Buffer cleanup happens in the caller.
    fn violation(&mut self) {
        self.no_more_input = true;
        self.close_after_flush = true;
    }

    /// Classifies one complete (trimmed) line: session commands are
    /// matched whole, and everything else is a compute line.
    fn accept_line(&mut self, line: String, counters: &ServerCounters, policy: &DecodePolicy) {
        if line.is_empty() {
            return;
        }
        if line == "quit" {
            // Bytes pipelined after `quit` are never decoded.
            self.no_more_input = true;
            self.close_after_flush = true;
            self.read_buf = Vec::new();
            self.scan_from = 0;
            return;
        }
        if line == "ping" {
            self.push_work(Work::Reply(ReplyKind::Ping), counters);
            return;
        }
        if line == "schema" {
            self.push_work(Work::Reply(ReplyKind::Schema), counters);
            return;
        }
        if line == "stats" {
            self.push_work(Work::Reply(ReplyKind::CacheStats), counters);
            return;
        }
        if line == "stats server" {
            self.push_work(Work::Reply(ReplyKind::ServerStats), counters);
            return;
        }
        if line == "stats ingest" {
            self.push_work(Work::Reply(ReplyKind::IngestStats), counters);
            return;
        }
        // A compute line: `b1 ...`, `q1 ...`, `a1 ...`, or garbage
        // (answered on the error channel by the executor). Over the global queue-depth cap
        // it is shed with a typed busy line on the matching channel.
        if counters.dispatch_depth() >= policy.max_queue_depth {
            let busy = overloaded(counters);
            let mut reply = if line.starts_with("b1") {
                ProbeResponse::encode_error(&busy)
            } else {
                QueryResponse::encode_error(&busy)
            };
            reply.push('\n');
            self.push_reply_raw(reply, counters);
            return;
        }
        // Coalesce with a trailing not-yet-executed run so one pipelined
        // burst becomes one engine batch and one socket write.
        if let Some(Work::Run(lines)) = self.pending.back_mut() {
            lines.push(line);
            self.in_flight += 1;
            counters.dispatch_enqueued(1);
            return;
        }
        self.push_work(Work::Run(vec![line]), counters);
    }

    fn push_work(&mut self, work: Work, counters: &ServerCounters) {
        let weight = work.weight();
        self.in_flight += weight;
        counters.dispatch_enqueued(weight as u64);
        self.pending.push_back(work);
    }

    /// Appends a pre-encoded reply, merging with a trailing raw reply so a
    /// burst of shed lines stays one work unit.
    fn push_reply_raw(&mut self, reply: String, counters: &ServerCounters) {
        if let Some(Work::Reply(ReplyKind::Raw(s))) = self.pending.back_mut() {
            s.push_str(&reply);
            return;
        }
        self.push_work(Work::Reply(ReplyKind::Raw(reply)), counters);
    }

    /// Books completed work out of the in-flight accounting.
    pub(crate) fn work_done(&mut self, weight: usize, counters: &ServerCounters) {
        self.in_flight -= weight.min(self.in_flight);
        counters.dispatch_completed(weight as u64);
    }

    /// Un-books decoded work that will never execute because the
    /// connection is closing.
    pub(crate) fn abandon_pending(&mut self, counters: &ServerCounters) {
        let abandoned: usize = self.pending.drain(..).map(|w| w.weight()).sum();
        if abandoned > 0 {
            counters.dispatch_completed(abandoned as u64);
        }
        self.in_flight = 0;
    }
}

/// The typed overload error for queue-depth shedding.
fn overloaded(counters: &ServerCounters) -> ModelError {
    ModelError::Busy(format!(
        "server overloaded ({} requests in flight)",
        counters.dispatch_depth()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DecodePolicy {
        DecodePolicy {
            max_queue_depth: u64::MAX,
            max_in_flight: usize::MAX,
            max_write_buffer: usize::MAX,
        }
    }

    fn state_with(bytes: &[u8]) -> (SessionState, ServerCounters) {
        let mut s = SessionState::new(Instant::now());
        s.read_buf.extend_from_slice(bytes);
        (s, ServerCounters::default())
    }

    #[test]
    fn pipelined_compute_lines_coalesce_into_one_run() {
        let (mut s, c) = state_with(b"q1 a\nq1 b\nb1 x\nq1 c\n");
        s.drain_lines(&c, &policy());
        assert_eq!(s.pending.len(), 1);
        assert_eq!(
            s.pending[0],
            Work::Run(vec![
                "q1 a".into(),
                "q1 b".into(),
                "b1 x".into(),
                "q1 c".into()
            ])
        );
        assert_eq!(s.in_flight, 4);
        assert_eq!(c.dispatch_depth(), 4);
    }

    #[test]
    fn partial_lines_wait_for_more_bytes() {
        let (mut s, c) = state_with(b"pi");
        s.drain_lines(&c, &policy());
        assert!(s.pending.is_empty());
        s.read_buf.extend_from_slice(b"ng\nq1");
        s.drain_lines(&c, &policy());
        assert_eq!(s.pending.len(), 1);
        assert_eq!(s.pending[0], Work::Reply(ReplyKind::Ping));
        assert_eq!(s.read_buf, b"q1");
    }

    #[test]
    fn session_commands_between_runs_keep_order() {
        let (mut s, c) = state_with(b"q1 a\nping\nq1 b\n");
        s.drain_lines(&c, &policy());
        let works: Vec<_> = s.pending.iter().cloned().collect();
        assert_eq!(
            works,
            vec![
                Work::Run(vec!["q1 a".into()]),
                Work::Reply(ReplyKind::Ping),
                Work::Run(vec!["q1 b".into()]),
            ]
        );
    }

    #[test]
    fn batch_lines_are_compute_lines() {
        // `batch <n>` is no command: it joins the run like any unknown
        // word (the executor answers it on the error channel), and the
        // empty line is skipped.
        let (mut s, c) = state_with(b"batch 3\nq1 a\n\nq1 b\nping\n");
        s.drain_lines(&c, &policy());
        let works: Vec<_> = s.pending.iter().cloned().collect();
        assert_eq!(
            works,
            vec![
                Work::Run(vec!["batch 3".into(), "q1 a".into(), "q1 b".into()]),
                Work::Reply(ReplyKind::Ping),
            ]
        );
    }

    #[test]
    fn quit_discards_pipelined_remainder() {
        let (mut s, c) = state_with(b"ping\nquit\nq1 never\n");
        s.drain_lines(&c, &policy());
        assert_eq!(s.pending.len(), 1);
        assert!(s.no_more_input);
        assert!(s.close_after_flush);
        assert!(s.read_buf.is_empty());
    }

    #[test]
    fn eof_processes_final_unterminated_line() {
        let (mut s, c) = state_with(b"q1 a\nping");
        s.eof = true;
        s.pump(&c, &policy());
        let works: Vec<_> = s.pending.iter().cloned().collect();
        assert_eq!(
            works,
            vec![Work::Run(vec!["q1 a".into()]), Work::Reply(ReplyKind::Ping),]
        );
        assert!(s.no_more_input && s.close_after_flush);
    }

    #[test]
    fn eof_final_line_can_complete_a_batch() {
        // The unterminated last line of a pipelined batch joins its run.
        let (mut s, c) = state_with(b"q1 a\nq1 b");
        s.eof = true;
        s.pump(&c, &policy());
        assert_eq!(s.pending.len(), 1);
        assert_eq!(s.pending[0], Work::Run(vec!["q1 a".into(), "q1 b".into()]));
    }

    #[test]
    fn oversized_newline_free_prefix_kills_the_session() {
        let (mut s, c) = state_with(&vec![b'x'; MAX_LINE_BYTES as usize]);
        s.drain_lines(&c, &policy());
        assert!(s.no_more_input);
        assert!(s.close_after_flush);
        assert!(s.pending.is_empty());
    }

    #[test]
    fn max_sized_terminated_line_is_still_accepted() {
        // A line of exactly MAX_LINE_BYTES bytes including the newline is
        // legal; one byte more is not.
        let mut ok = vec![b'x'; MAX_LINE_BYTES as usize - 1];
        ok.push(b'\n');
        let (mut s, c) = state_with(&ok);
        s.drain_lines(&c, &policy());
        assert!(!s.no_more_input);
        assert_eq!(s.pending.len(), 1);

        let mut too_long = vec![b'x'; MAX_LINE_BYTES as usize];
        too_long.push(b'\n');
        let (mut s, c) = state_with(&too_long);
        s.drain_lines(&c, &policy());
        assert!(s.no_more_input);
        assert!(s.pending.is_empty());
    }

    #[test]
    fn invalid_utf8_kills_the_session_without_a_reply() {
        let (mut s, c) = state_with(b"ping\n\xff\xfe\nping\n");
        s.drain_lines(&c, &policy());
        assert_eq!(s.pending.len(), 1);
        assert!(s.no_more_input);
    }

    #[test]
    fn in_flight_cap_pauses_decoding() {
        let (mut s, c) = state_with(b"q1 a\nq1 b\nq1 c\n");
        let tight = DecodePolicy {
            max_queue_depth: u64::MAX,
            max_in_flight: 2,
            max_write_buffer: usize::MAX,
        };
        s.drain_lines(&c, &tight);
        assert_eq!(s.in_flight, 2);
        assert_eq!(s.read_buf, b"q1 c\n");
        assert!(!s.wants_read(&tight));
        // Completing the queued work resumes decoding.
        let Some(work) = s.pending.pop_front() else {
            panic!("work queued");
        };
        s.work_done(work.weight(), &c);
        assert!(s.wants_read(&tight));
        s.drain_lines(&c, &tight);
        assert_eq!(s.read_buf, b"");

        // A client batch chunk of the whole cap decodes as one run.
        let chunk = "q1 x\n".repeat(MAX_IN_FLIGHT);
        let (mut s, c) = state_with(chunk.as_bytes());
        s.drain_lines(&c, &DecodePolicy::SERVED);
        assert_eq!(s.pending.len(), 1);
        assert_eq!(s.pending[0].weight(), MAX_IN_FLIGHT);
        assert!(s.read_buf.is_empty());
    }

    #[test]
    fn queue_depth_cap_sheds_typed_busy_on_both_channels() {
        let tight = DecodePolicy {
            max_queue_depth: 0,
            max_in_flight: usize::MAX,
            max_write_buffer: usize::MAX,
        };
        let (mut s, c) = state_with(b"q1 a\nb1 x\nping\n");
        s.drain_lines(&c, &tight);
        // Two shed lines merge into one raw reply; ping is never shed.
        assert_eq!(s.pending.len(), 2);
        match &s.pending[0] {
            Work::Reply(ReplyKind::Raw(reply)) => {
                let lines: Vec<_> = reply.lines().collect();
                assert_eq!(lines.len(), 2);
                assert!(lines[0].starts_with("r1 busy server overloaded"));
                assert!(lines[1].starts_with("c1 busy server overloaded"));
            }
            other => panic!("expected raw busy reply, got {other:?}"),
        }
        assert_eq!(s.pending[1], Work::Reply(ReplyKind::Ping));
    }
}
