//! The epoll I/O driver: one pool of peer threads on one shared epoll
//! instance. It moves bytes and takes turns; the protocol itself is
//! `session.rs` (bytes → `Work`) and `server.rs::execute_work` (`Work` →
//! reply bytes), shared with the blocking driver.
//!
//! Every fd is registered `EPOLLONESHOT`, and every thread asks
//! `epoll_wait` for **one** event: the thread that is handed a session's
//! readiness owns that session until it re-arms it, and nobody else is
//! told about it meanwhile. One turn, on that one thread: read what the
//! socket has (stopping at the first short read — the level-triggered
//! re-arm reports anything that arrives later), decode, execute the
//! session's **next work unit**, write the reply, re-arm. A depth-1 round
//! trip is therefore `epoll_wait` → `read` → `write` → `epoll_ctl` on the
//! serving side, with no hand-off to a second thread.
//!
//! A session with decoded work left re-arms with `EPOLLOUT`, which a
//! writable socket reports at once — at the *back* of the kernel's ready
//! list. That is the whole scheduler: one unit per turn, strict order
//! within a session, round-robin across sessions. While one thread
//! executes a slow request (a gateway waiting on a shard) the others keep
//! taking events, so there is no head-of-line blocking to classify or
//! route around. A session's state lock is dropped while its request
//! executes; the registry lock is only ever held for a map operation.
//!
//! There is no `libc` crate in the dependency-free workspace, so the
//! syscalls the driver needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, plus a raw `write` for the shutdown fd) are declared
//! directly; everything else goes through `std`'s nonblocking
//! `TcpStream`/`TcpListener`.

#![cfg(target_os = "linux")]

use crate::server::{busy_at_capacity, encode_outcome, execute_work, lock};
use crate::session::{DecodePolicy, Session, SessionState};
use crate::ServerConfig;
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::metrics::ServerCounters;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod ffi {
    /// Mirror of the kernel's `struct epoll_event`. x86-64 is the one
    /// architecture where the kernel ABI packs it.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLONESHOT: u32 = 1 << 30;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EFD_CLOEXEC: i32 = 0x80000;
    pub const EFD_NONBLOCK: i32 = 0x800;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
}

use ffi::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT};

/// `epoll_event.data` tokens for the two non-session fds.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// How long a shed connection may linger (sinking its in-flight request)
/// before being closed — same budget as the blocking driver's drain.
const SHED_LINGER: Duration = Duration::from_millis(500);

/// `epoll_wait` timeout: an idle thread re-checks the sweep deadline at
/// least this often, and the idle / linger sweep runs this often.
const TICK_MS: u64 = 25;

/// Per-thread read buffer, and how many of them one turn may fill: a
/// firehose connection yields to the others after `READS_PER_TURN` full
/// chunks.
const READ_CHUNK: usize = 16 * 1024;
const READS_PER_TURN: usize = 16;

fn epoll_create() -> io::Result<OwnedFd> {
    // SAFETY: a syscall that takes no pointers.
    let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh descriptor nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn eventfd_create() -> io::Result<OwnedFd> {
    // SAFETY: a syscall that takes no pointers.
    let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh descriptor nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn epoll_ctl(epfd: &OwnedFd, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
    let mut ev = ffi::EpollEvent {
        events: interest,
        data: token,
    };
    // SAFETY: `ev` outlives the call; the kernel copies it.
    let rc = unsafe { ffi::epoll_ctl(epfd.as_raw_fd(), op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// State shared by every thread of the pool.
struct Inner {
    stop: AtomicBool,
    epfd: OwnedFd,
    /// Written once, by shutdown, and never read: registered
    /// level-triggered, it ends every later `epoll_wait` of every thread.
    wake: OwnedFd,
    listener: TcpListener,
    counters: Arc<ServerCounters>,
    policy: DecodePolicy,
    idle_timeout: Option<Duration>,
    max_sessions: Option<usize>,
    /// Every live session by id (the epoll token). Held for one map
    /// operation at a time — never across a socket call or a request.
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    /// The sweep clock: `next_sweep_ms` is when the next idle / linger
    /// sweep is due, in milliseconds since `started`; the thread whose
    /// compare-exchange moves it forward runs that sweep.
    started: Instant,
    next_sweep_ms: AtomicU64,
}

/// The epoll driver's running state: joined (and sessions force-closed)
/// on shutdown.
pub(crate) struct ReactorHandle {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    pub(crate) fn shutdown_inner(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.inner.stop.store(true, Ordering::SeqCst);
        let one: u64 = 1;
        // SAFETY: writes 8 readable bytes to an fd this handle keeps open.
        // A full counter (EAGAIN) already means a pending wake-up.
        let _ = unsafe { ffi::write(self.inner.wake.as_raw_fd(), (&one as *const u64).cast(), 8) };
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // No thread is left to register or own a session: force-close what
        // remains (readers see EOF) before the listener and epoll fd drop.
        let sessions: Vec<_> = lock(&self.inner.sessions).drain().collect();
        for (_, session) in sessions {
            finalize_locked(&self.inner, &session, &mut lock(&session.state));
        }
    }
}

/// Starts the epoll driver on an already-bound listener: `threads` io
/// threads (at least one), admitting work under `policy`.
pub(crate) fn spawn<B>(
    engine: Arc<QueryEngine<B>>,
    listener: TcpListener,
    config: &ServerConfig,
    threads: usize,
    policy: DecodePolicy,
    counters: Arc<ServerCounters>,
) -> io::Result<ReactorHandle>
where
    B: SummaryBackend + 'static,
{
    listener.set_nonblocking(true)?;
    let epfd = epoll_create()?;
    let wake = eventfd_create()?;
    epoll_ctl(
        &epfd,
        ffi::EPOLL_CTL_ADD,
        wake.as_raw_fd(),
        EPOLLIN,
        TOKEN_WAKE,
    )?;
    epoll_ctl(
        &epfd,
        ffi::EPOLL_CTL_ADD,
        listener.as_raw_fd(),
        EPOLLIN | EPOLLONESHOT,
        TOKEN_LISTENER,
    )?;
    let inner = Arc::new(Inner {
        stop: AtomicBool::new(false),
        epfd,
        wake,
        listener,
        counters,
        policy,
        idle_timeout: config.idle_timeout,
        max_sessions: config.max_sessions,
        sessions: Mutex::new(HashMap::new()),
        next_session: AtomicU64::new(0),
        started: Instant::now(),
        next_sweep_ms: AtomicU64::new(TICK_MS),
    });
    let mut handle = ReactorHandle {
        inner,
        threads: Vec::new(),
    };
    for n in 0..threads.max(1) {
        let inner = Arc::clone(&handle.inner);
        let engine = Arc::clone(&engine);
        let spawned = std::thread::Builder::new()
            .name(format!("entropydb-io-{n}"))
            .spawn(move || io_loop(&inner, &engine));
        match spawned {
            Ok(t) => handle.threads.push(t),
            Err(e) => {
                handle.shutdown_inner();
                return Err(e);
            }
        }
    }
    Ok(handle)
}

/// One thread of the pool: take one event, serve it to the end, repeat.
fn io_loop<B: SummaryBackend>(inner: &Inner, engine: &QueryEngine<B>) {
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let mut event = ffi::EpollEvent { events: 0, data: 0 };
        // SAFETY: `event` is one writable `epoll_event`, and one is asked for.
        let n = unsafe { ffi::epoll_wait(inner.epfd.as_raw_fd(), &mut event, 1, TICK_MS as i32) };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        if n < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            // An unrecoverable epoll failure: leave rather than spin.
            return;
        }
        if n == 1 {
            let ffi::EpollEvent { events, data } = event;
            match data {
                // Only signalled with `stop` set, which was just checked.
                TOKEN_WAKE => {}
                TOKEN_LISTENER => accept_ready(inner),
                id => {
                    let session = lock(&inner.sessions).get(&id).cloned();
                    if let Some(session) = session {
                        take_turn(inner, engine, &session, events, &mut chunk);
                    }
                }
            }
        }
        let now = Instant::now();
        let now_ms = now.duration_since(inner.started).as_millis() as u64;
        let due = inner.next_sweep_ms.load(Ordering::SeqCst);
        if now_ms >= due
            && inner
                .next_sweep_ms
                .compare_exchange(due, now_ms + TICK_MS, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            sweep(inner, now);
        }
    }
}

/// The epoll interest a session should be armed with: readable while the
/// decoder wants bytes, writable while a reply is unflushed — or decoded
/// work is left, which sends a writable session to the back of the ready
/// list for its next turn.
fn interest(inner: &Inner, st: &SessionState) -> u32 {
    let mut want = EPOLLONESHOT;
    if st.wants_read(&inner.policy) {
        want |= EPOLLIN;
    }
    if st.wants_write() || !st.pending.is_empty() {
        want |= EPOLLOUT;
    }
    want
}

/// Accepts every pending connection, applying the `max_sessions` shed
/// policy, then re-arms the listener.
fn accept_ready(inner: &Inner) {
    loop {
        let stream = match inner.listener.accept() {
            Ok((stream, _)) => stream,
            // Drained — or a transient accept failure (ECONNABORTED,
            // EMFILE): the re-arm reports readiness again if connections
            // remain.
            Err(_) => break,
        };
        inner.counters.add_accepted();
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        register_session(inner, stream);
    }
    let _ = epoll_ctl(
        &inner.epfd,
        ffi::EPOLL_CTL_MOD,
        inner.listener.as_raw_fd(),
        EPOLLIN | EPOLLONESHOT,
        TOKEN_LISTENER,
    );
}

/// Admits (or sheds) one accepted connection: into the registry first, so
/// the thread handed its first event finds it, then onto the epoll set.
fn register_session(inner: &Inner, stream: TcpStream) {
    let now = Instant::now();
    let shed_cap = inner
        .max_sessions
        .filter(|&cap| inner.counters.active_sessions() >= cap as u64);
    let mut st = SessionState::new(now);
    if let Some(cap) = shed_cap {
        // Load shedding rides the ordinary write path: the busy line is
        // queued, the client's in-flight request is sunk (so a close
        // cannot reset the unread reply away), and the connection dies on
        // client EOF or the linger deadline — no thread per reject.
        inner.counters.add_shed();
        st.write_buf = encode_outcome(&Err(busy_at_capacity(cap))).into_bytes();
        st.sink_reads = true;
        st.linger_deadline = Some(now + SHED_LINGER);
    } else {
        inner.counters.session_started();
        st.counted_active = true;
    }
    let want = interest(inner, &st);
    let session = Arc::new(Session {
        id: inner.next_session.fetch_add(1, Ordering::SeqCst),
        stream,
        state: Mutex::new(st),
    });
    lock(&inner.sessions).insert(session.id, Arc::clone(&session));
    let fd = session.stream.as_raw_fd();
    if epoll_ctl(&inner.epfd, ffi::EPOLL_CTL_ADD, fd, want, session.id).is_err() {
        close_session(inner, &session, &mut lock(&session.state));
    }
}

/// One turn of the session this thread was handed: read, decode, answer
/// the next work unit, flush, re-arm. The state lock is released while the
/// unit executes — the session stays disarmed, so no other thread can be
/// handed it, and the sweeps only look.
fn take_turn<B: SummaryBackend>(
    inner: &Inner,
    engine: &QueryEngine<B>,
    session: &Arc<Session>,
    revents: u32,
    chunk: &mut [u8],
) {
    let mut st = lock(&session.state);
    if st.closed {
        return;
    }
    if revents & EPOLLERR != 0 {
        st.broken = true;
    }
    if revents & (EPOLLIN | EPOLLHUP) != 0 && !st.broken {
        read_ready(inner, session, &mut st, chunk);
    }
    try_flush(session, &mut st, &inner.counters);
    let work = if st.broken {
        None
    } else {
        st.pending.pop_front()
    };
    if let Some(work) = work {
        drop(st);
        let reply = execute_work(engine, &inner.counters, &work);
        st = lock(&session.state);
        st.work_done(work.weight(), &inner.counters);
        if st.closed {
            return;
        }
        st.write_buf.extend_from_slice(reply.as_bytes());
        try_flush(session, &mut st, &inner.counters);
        // The in-flight cap may have paused decoding mid-buffer; now that
        // this unit is answered there may be room for more work.
        st.pump(&inner.counters, &inner.policy);
    }
    if st.ready_to_close()
        || epoll_ctl(
            &inner.epfd,
            ffi::EPOLL_CTL_MOD,
            session.stream.as_raw_fd(),
            interest(inner, &st),
            session.id,
        )
        .is_err()
    {
        close_session(inner, session, &mut st);
    }
}

/// Reads what the socket has into the decoder (or, for a shed connection,
/// into nothing), stopping at the first short read: the socket is drained,
/// and the re-arm is level-triggered should more have arrived since.
fn read_ready(inner: &Inner, session: &Session, st: &mut SessionState, chunk: &mut [u8]) {
    for _ in 0..READS_PER_TURN {
        // Decoding as we go lets the in-flight cap pause reading before
        // the buffer grows past it.
        if !st.wants_read(&inner.policy) {
            break;
        }
        match (&session.stream).read(chunk) {
            Ok(0) => {
                st.eof = true;
                if st.sink_reads {
                    st.no_more_input = true;
                    st.close_after_flush = true;
                } else {
                    st.pump(&inner.counters, &inner.policy);
                }
                break;
            }
            Ok(n) => {
                inner.counters.add_bytes_in(n as u64);
                if !st.sink_reads {
                    st.last_activity = Instant::now();
                    st.read_buf.extend_from_slice(&chunk[..n]);
                    st.pump(&inner.counters, &inner.policy);
                }
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                st.broken = true;
                break;
            }
        }
    }
}

/// Writes as much buffered response as the socket accepts right now.
fn try_flush(session: &Session, st: &mut SessionState, counters: &ServerCounters) {
    while st.wants_write() {
        match (&session.stream).write(&st.write_buf[st.write_pos..]) {
            Ok(0) => {
                st.broken = true;
                break;
            }
            Ok(n) => {
                st.write_pos += n;
                counters.add_bytes_out(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                st.broken = true;
                break;
            }
        }
    }
    if st.unflushed() == 0 && !st.write_buf.is_empty() {
        st.write_buf.clear();
        st.write_pos = 0;
    }
}

/// Takes a session off the epoll set and out of the registry, and
/// finalizes it.
fn close_session(inner: &Inner, session: &Session, st: &mut SessionState) {
    let fd = session.stream.as_raw_fd();
    let _ = epoll_ctl(&inner.epfd, ffi::EPOLL_CTL_DEL, fd, 0, session.id);
    finalize_locked(inner, session, st);
    lock(&inner.sessions).remove(&session.id);
}

/// Marks the session closed and releases everything it holds. The fd
/// itself closes when the last `Arc<Session>` drops, so a thread still
/// holding a clone can never touch a recycled fd number.
fn finalize_locked(inner: &Inner, session: &Session, st: &mut SessionState) {
    if st.closed {
        return;
    }
    st.closed = true;
    let _ = session.stream.shutdown(Shutdown::Both);
    if st.counted_active {
        st.counted_active = false;
        inner.counters.session_ended();
    }
    // An executing unit's weight is returned by its thread (`work_done`).
    st.abandon_pending(&inner.counters);
    st.read_buf = Vec::new();
    st.write_buf = Vec::new();
    st.write_pos = 0;
}

/// Periodic maintenance, the only thing time alone makes due: shed-linger
/// expiry and idle-timeout reaping. It closes sessions and never re-arms
/// one — a session mid-turn belongs to its thread.
fn sweep(inner: &Inner, now: Instant) {
    let candidates: Vec<_> = lock(&inner.sessions).values().cloned().collect();
    for session in candidates {
        let mut st = lock(&session.state);
        if st.closed {
            continue;
        }
        let lingered_out = st.linger_deadline.is_some_and(|deadline| now >= deadline);
        // Only a session that is *waiting on the client* can idle out —
        // never one with queued or executing work, or an unflushed reply.
        let idled_out = inner.idle_timeout.is_some_and(|timeout| {
            !st.sink_reads
                && !st.close_after_flush
                && st.in_flight == 0
                && st.unflushed() == 0
                && now.duration_since(st.last_activity) >= timeout
        });
        if lingered_out || idled_out {
            close_session(inner, &session, &mut st);
        }
    }
}
