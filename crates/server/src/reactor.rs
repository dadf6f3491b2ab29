//! The epoll I/O driver: an in-tree reactor multiplexing thousands of
//! connections over O(cores) threads. It moves bytes and schedules work;
//! the protocol itself is `session.rs` (bytes → `Work`) and
//! `server.rs::execute_work` (`Work` → reply bytes), shared with the
//! blocking driver.
//!
//! Layout: `reactor_threads` event loops each own a set of sessions (the
//! first also owns the listening socket), reading into per-session
//! buffers, running the incremental decoder ([`crate::session`]), and
//! flushing responses with interest-driven writes — a slow reader never
//! parks a compute thread. Decoded work is executed by a separate pool of
//! `dispatch_threads` workers pulling from one global FIFO; each session
//! keeps **at most one** work unit on that queue, so responses stay in
//! request order and dispatch is round-robin fair across connections. A
//! worker that finishes a unit re-enqueues the session's next one at the
//! back of the queue and nudges the owning reactor (via an `eventfd`)
//! only when the epoll interest mask actually needs to change.
//!
//! There is no `libc` crate in the dependency-free workspace, so the five
//! syscalls the reactor needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, plus raw `read`/`write` for the wakeup fd)
//! are declared directly; everything else goes through `std`'s
//! nonblocking `TcpStream`/`TcpListener`.

#![cfg(target_os = "linux")]

use crate::server::{busy_at_capacity, encode_outcome, execute_work, lock};
use crate::session::{DecodePolicy, Session, SessionState, Work};
use crate::ServerConfig;
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::metrics::ServerCounters;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
}

use ffi::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

/// `epoll_event.data` tokens for the two non-session fds.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// How long a shed connection may linger (sinking its in-flight request)
/// before being closed — same budget as the blocking driver's drain.
const SHED_LINGER: Duration = Duration::from_millis(500);

/// Event-loop tick: idle/linger sweeps and the shutdown re-check run at
/// least this often.
const TICK_MS: i32 = 25;

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

fn epoll_create() -> io::Result<OwnedFd> {
    let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(last_os_error());
    }
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn eventfd_create() -> io::Result<OwnedFd> {
    let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
    if fd < 0 {
        return Err(last_os_error());
    }
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
    let mut ev = ffi::EpollEvent {
        events: interest,
        data: token,
    };
    let rc = unsafe { ffi::epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

fn eventfd_signal(fd: RawFd) {
    let one: u64 = 1;
    // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
    let _ = unsafe { ffi::write(fd, (&one as *const u64).cast(), 8) };
}

fn eventfd_drain(fd: RawFd) {
    let mut buf = [0u8; 8];
    let _ = unsafe { ffi::read(fd, buf.as_mut_ptr(), 8) };
}

/// One global FIFO of (session, work) pairs feeding the compute pool.
struct Dispatcher {
    queue: Mutex<VecDeque<(Arc<Session>, Work)>>,
    ready: Condvar,
}

impl Dispatcher {
    fn push(&self, session: Arc<Session>, work: Work) {
        lock(&self.queue).push_back((session, work));
        self.ready.notify_one();
    }
}

/// Per-reactor mailboxes: freshly accepted sessions to adopt, and owned
/// sessions whose epoll interest (or close-readiness) changed off-thread.
struct ReactorMailbox {
    wake: OwnedFd,
    inbox: Mutex<Vec<Arc<Session>>>,
    nudges: Mutex<Vec<Arc<Session>>>,
}

/// State shared by every reactor thread and compute worker.
struct Inner {
    stop: AtomicBool,
    counters: Arc<ServerCounters>,
    policy: DecodePolicy,
    idle_timeout: Option<Duration>,
    max_sessions: Option<usize>,
    dispatcher: Dispatcher,
    mailboxes: Vec<ReactorMailbox>,
    next_session: AtomicU64,
}

impl Inner {
    /// Asks reactor `idx` to re-examine `session` (flush, re-arm epoll,
    /// maybe finalize a close).
    fn nudge(&self, session: Arc<Session>) {
        let mailbox = &self.mailboxes[session.reactor];
        lock(&mailbox.nudges).push(session);
        eventfd_signal(mailbox.wake.as_raw_fd());
    }
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
        for mailbox in &self.inner.mailboxes {
            eventfd_signal(mailbox.wake.as_raw_fd());
        }
        // Take the queue lock once before notifying: a worker that saw
        // `stop == false` under the lock has parked by the time we get it,
        // so the wake-up cannot fall between its check and its wait.
        drop(lock(&self.inner.dispatcher.queue));
        self.inner.dispatcher.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Resolved thread counts and caps for the epoll driver (see
/// `ReactorConfig`).
pub(crate) struct ReactorTuning {
    pub reactor_threads: usize,
    pub dispatch_threads: usize,
    pub policy: DecodePolicy,
}

/// Starts the epoll driver on an already-bound listener.
pub(crate) fn spawn<B>(
    engine: Arc<QueryEngine<B>>,
    listener: TcpListener,
    config: &ServerConfig,
    tuning: ReactorTuning,
    counters: Arc<ServerCounters>,
) -> io::Result<ReactorHandle>
where
    B: SummaryBackend + 'static,
{
    listener.set_nonblocking(true)?;
    let n_reactors = tuning.reactor_threads.max(1);
    let mut mailboxes = Vec::with_capacity(n_reactors);
    let mut epolls = Vec::with_capacity(n_reactors);
    for _ in 0..n_reactors {
        let epfd = epoll_create()?;
        let wake = eventfd_create()?;
        epoll_ctl(
            epfd.as_raw_fd(),
            ffi::EPOLL_CTL_ADD,
            wake.as_raw_fd(),
            EPOLLIN,
            TOKEN_WAKE,
        )?;
        mailboxes.push(ReactorMailbox {
            wake,
            inbox: Mutex::new(Vec::new()),
            nudges: Mutex::new(Vec::new()),
        });
        epolls.push(epfd);
    }
    let inner = Arc::new(Inner {
        stop: AtomicBool::new(false),
        counters,
        policy: tuning.policy,
        idle_timeout: config.idle_timeout,
        max_sessions: config.max_sessions,
        dispatcher: Dispatcher {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        },
        mailboxes,
        next_session: AtomicU64::new(0),
    });
    let mut threads = Vec::new();
    let mut listener = Some(listener);
    for (idx, epfd) in epolls.into_iter().enumerate() {
        let inner = Arc::clone(&inner);
        // Reactor 0 owns the listening socket; the fd must move into that
        // thread (closing it here would silently deregister it from epoll).
        let listener = if idx == 0 {
            let l = listener.take().expect("listener moved once");
            epoll_ctl(
                epfd.as_raw_fd(),
                ffi::EPOLL_CTL_ADD,
                l.as_raw_fd(),
                EPOLLIN,
                TOKEN_LISTENER,
            )?;
            Some(l)
        } else {
            None
        };
        threads.push(std::thread::spawn(move || {
            reactor_loop(idx, inner, epfd, listener)
        }));
    }
    for _ in 0..tuning.dispatch_threads.max(1) {
        let inner = Arc::clone(&inner);
        let engine = Arc::clone(&engine);
        threads.push(std::thread::spawn(move || worker_loop(inner, engine)));
    }
    Ok(ReactorHandle { inner, threads })
}

fn worker_loop<B: SummaryBackend>(inner: Arc<Inner>, engine: Arc<QueryEngine<B>>) {
    loop {
        let job = {
            let mut queue = lock(&inner.dispatcher.queue);
            loop {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = inner
                    .dispatcher
                    .ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let (session, work) = job;
        let weight = work.weight();
        let reply = execute_work(engine.as_ref(), &inner.counters, &work);
        let mut st = lock(&session.state);
        st.work_done(weight, &inner.counters);
        if st.closed {
            continue;
        }
        if st.broken {
            drop(st);
            inner.nudge(session);
            continue;
        }
        st.write_buf.extend_from_slice(reply.as_bytes());
        // Opportunistic flush: most clients are readable, so the common
        // case completes here without bouncing through the reactor.
        try_flush(&session, &mut st, &inner.counters);
        // The in-flight cap may have paused decoding mid-buffer; now that
        // this unit is answered there may be room for more work.
        st.pump(&inner.counters, &inner.policy);
        // Chain the session's next unit at the *back* of the global queue:
        // round-robin across sessions, strict order within one.
        if !st.job_active {
            if let Some(next) = st.pending.pop_front() {
                st.job_active = true;
                inner.dispatcher.push(Arc::clone(&session), next);
            }
        }
        let now = Instant::now();
        let mut want = 0u32;
        if st.wants_read(&inner.policy) {
            want |= EPOLLIN;
        }
        if st.wants_write() {
            want |= EPOLLOUT;
        }
        let needs_reactor = want != st.interest || st.ready_to_close(now) || st.broken;
        drop(st);
        if needs_reactor {
            inner.nudge(session);
        }
    }
}

/// Writes as much buffered response as the socket accepts right now.
fn try_flush(session: &Session, st: &mut SessionState, counters: &ServerCounters) {
    while st.unflushed() > 0 {
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

/// One reactor thread: owns an epoll instance, its sessions, and (for
/// reactor 0) the listening socket.
fn reactor_loop(idx: usize, inner: Arc<Inner>, epfd: OwnedFd, listener: Option<TcpListener>) {
    let mut sessions: HashMap<u64, Arc<Session>> = HashMap::new();
    let mut events = [ffi::EpollEvent { events: 0, data: 0 }; 256];
    let mut last_sweep = Instant::now();
    let wake_fd = inner.mailboxes[idx].wake.as_raw_fd();
    loop {
        let n = unsafe {
            ffi::epoll_wait(
                epfd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                TICK_MS,
            )
        };
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        if n < 0 {
            let err = last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            // An unrecoverable epoll failure: drop every session rather
            // than spin. The accept loop dies with the reactor.
            break;
        }
        for ev in events.iter().take(n.max(0) as usize) {
            let token = ev.data;
            let revents = ev.events;
            match token {
                TOKEN_WAKE => {
                    eventfd_drain(wake_fd);
                    adopt_inbox(&inner, idx, &epfd, &mut sessions);
                    handle_nudges(&inner, idx, &epfd, &mut sessions);
                }
                TOKEN_LISTENER => {
                    if let Some(listener) = &listener {
                        accept_ready(&inner, listener, &epfd, &mut sessions);
                    }
                }
                id => {
                    let Some(session) = sessions.get(&id).cloned() else {
                        continue;
                    };
                    handle_io(&inner, &epfd, &mut sessions, &session, revents);
                }
            }
        }
        let now = Instant::now();
        if now.duration_since(last_sweep) >= Duration::from_millis(TICK_MS as u64) {
            last_sweep = now;
            sweep(&inner, &epfd, &mut sessions, now);
        }
    }
    // Shutdown: force-close every owned session (readers see EOF) before
    // the listener and epoll fd drop.
    for (_, session) in sessions.drain() {
        let mut st = lock(&session.state);
        finalize_locked(&inner, &session, &mut st);
    }
}

/// Adopts sessions other threads handed to this reactor.
fn adopt_inbox(
    inner: &Inner,
    idx: usize,
    epfd: &OwnedFd,
    sessions: &mut HashMap<u64, Arc<Session>>,
) {
    let adopted: Vec<_> = lock(&inner.mailboxes[idx].inbox).drain(..).collect();
    for session in adopted {
        register_session(inner, epfd, sessions, session);
    }
}

/// Re-examines sessions whose state changed off-thread (compute workers
/// finishing work): re-arm epoll interest and finalize ripe closes.
fn handle_nudges(
    inner: &Inner,
    idx: usize,
    epfd: &OwnedFd,
    sessions: &mut HashMap<u64, Arc<Session>>,
) {
    let nudged: Vec<_> = lock(&inner.mailboxes[idx].nudges).drain(..).collect();
    let now = Instant::now();
    for session in nudged {
        if !sessions.contains_key(&session.id) {
            continue;
        }
        let mut st = lock(&session.state);
        if st.closed {
            continue;
        }
        st.pump(&inner.counters, &inner.policy);
        maybe_dispatch(inner, &session, &mut st);
        sync_session(inner, epfd, sessions, &session, &mut st, now);
    }
}

/// Registers a session with this reactor's epoll instance.
fn register_session(
    inner: &Inner,
    epfd: &OwnedFd,
    sessions: &mut HashMap<u64, Arc<Session>>,
    session: Arc<Session>,
) {
    let mut st = lock(&session.state);
    let mut want = 0u32;
    if st.wants_read(&inner.policy) {
        want |= EPOLLIN;
    }
    if st.wants_write() {
        want |= EPOLLOUT;
    }
    if epoll_ctl(
        epfd.as_raw_fd(),
        ffi::EPOLL_CTL_ADD,
        session.stream.as_raw_fd(),
        want,
        session.id,
    )
    .is_err()
    {
        finalize_locked(inner, &session, &mut st);
        return;
    }
    st.interest = want;
    drop(st);
    sessions.insert(session.id, session);
}

/// Accepts every pending connection, applying the `max_sessions` shed
/// policy, and distributes admitted sessions round-robin over reactors.
fn accept_ready(
    inner: &Inner,
    listener: &TcpListener,
    epfd: &OwnedFd,
    sessions: &mut HashMap<u64, Arc<Session>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            // Transient accept failure (ECONNABORTED, EMFILE): epoll will
            // re-report readiness if connections remain.
            Err(_) => break,
        };
        inner.counters.add_accepted();
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let now = Instant::now();
        let id = inner.next_session.fetch_add(1, Ordering::SeqCst);
        let shed_cap = inner
            .max_sessions
            .filter(|&cap| inner.counters.active_sessions() >= cap as u64);
        let mut st = SessionState::new(now);
        if let Some(cap) = shed_cap {
            // Load shedding rides the reactor write path: the busy line is
            // queued, the client's in-flight request is sunk (so a close
            // cannot reset the unread reply away), and the connection dies
            // on client EOF or the linger deadline — no thread per reject.
            inner.counters.add_shed();
            st.write_buf = encode_outcome(&Err(busy_at_capacity(cap))).into_bytes();
            st.sink_reads = true;
            st.linger_deadline = Some(now + SHED_LINGER);
        } else {
            inner.counters.session_started();
            st.counted_active = true;
        }
        let reactor = (id as usize) % inner.mailboxes.len();
        let session = Arc::new(Session {
            id,
            reactor,
            stream,
            state: Mutex::new(st),
        });
        if reactor == 0 {
            register_session(inner, epfd, sessions, session);
        } else {
            lock(&inner.mailboxes[reactor].inbox).push(session);
            eventfd_signal(inner.mailboxes[reactor].wake.as_raw_fd());
        }
    }
}

/// Services one session's readiness events.
fn handle_io(
    inner: &Inner,
    epfd: &OwnedFd,
    sessions: &mut HashMap<u64, Arc<Session>>,
    session: &Arc<Session>,
    revents: u32,
) {
    let mut st = lock(&session.state);
    if st.closed {
        return;
    }
    if revents & EPOLLERR != 0 {
        st.broken = true;
    }
    if revents & (EPOLLIN | EPOLLHUP) != 0 && !st.broken {
        read_ready(inner, session, &mut st);
    }
    if revents & EPOLLOUT != 0 && !st.broken {
        try_flush(session, &mut st, &inner.counters);
    }
    if !st.sink_reads {
        st.pump(&inner.counters, &inner.policy);
        maybe_dispatch(inner, session, &mut st);
    }
    sync_session(inner, epfd, sessions, session, &mut st, Instant::now());
}

/// Reads whatever the socket has, bounded per event so one firehose
/// connection cannot starve the rest of the reactor.
fn read_ready(inner: &Inner, session: &Session, st: &mut SessionState) {
    let mut chunk = [0u8; 16 * 1024];
    for _ in 0..16 {
        if st.sink_reads {
            // Shed connection: discard the client's in-flight bytes.
            match (&session.stream).read(&mut chunk) {
                Ok(0) => {
                    st.eof = true;
                    st.no_more_input = true;
                    st.close_after_flush = true;
                    break;
                }
                Ok(n) => {
                    inner.counters.add_bytes_in(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    st.broken = true;
                    break;
                }
            }
            continue;
        }
        if !st.wants_read(&inner.policy) {
            break;
        }
        match (&session.stream).read(&mut chunk) {
            Ok(0) => {
                st.eof = true;
                break;
            }
            Ok(n) => {
                inner.counters.add_bytes_in(n as u64);
                st.last_activity = Instant::now();
                st.read_buf.extend_from_slice(&chunk[..n]);
                // Decode as we go so the in-flight cap can pause reading
                // before the buffer grows past it.
                st.pump(&inner.counters, &inner.policy);
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

/// Hands the session's next work unit to the dispatcher if none is
/// outstanding (the one-job-per-session invariant).
fn maybe_dispatch(inner: &Inner, session: &Arc<Session>, st: &mut SessionState) {
    if st.job_active || st.closed || st.broken {
        return;
    }
    if let Some(work) = st.pending.pop_front() {
        st.job_active = true;
        inner.dispatcher.push(Arc::clone(session), work);
    }
}

/// Re-arms the epoll interest mask to match what the session wants now,
/// and finalizes the close once the session is ripe.
fn sync_session(
    inner: &Inner,
    epfd: &OwnedFd,
    sessions: &mut HashMap<u64, Arc<Session>>,
    session: &Arc<Session>,
    st: &mut SessionState,
    now: Instant,
) {
    if st.closed {
        return;
    }
    if st.ready_to_close(now) {
        let _ = epoll_ctl(
            epfd.as_raw_fd(),
            ffi::EPOLL_CTL_DEL,
            session.stream.as_raw_fd(),
            0,
            session.id,
        );
        finalize_locked(inner, session, st);
        sessions.remove(&session.id);
        return;
    }
    let mut want = 0u32;
    if st.wants_read(&inner.policy) {
        want |= EPOLLIN;
    }
    if st.wants_write() {
        want |= EPOLLOUT;
    }
    if want != st.interest
        && epoll_ctl(
            epfd.as_raw_fd(),
            ffi::EPOLL_CTL_MOD,
            session.stream.as_raw_fd(),
            want,
            session.id,
        )
        .is_ok()
    {
        st.interest = want;
    }
}

/// Marks the session closed and releases everything it holds. The fd
/// itself closes when the last `Arc<Session>` drops, so a worker still
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
    // An in-flight job's weight is returned by the worker itself.
    st.abandon_pending(&inner.counters);
    st.read_buf = Vec::new();
    st.write_buf = Vec::new();
    st.write_pos = 0;
}

/// Periodic maintenance: idle-timeout reaping, shed-linger expiry, and a
/// safety net for any close-ready session that missed a nudge.
fn sweep(inner: &Inner, epfd: &OwnedFd, sessions: &mut HashMap<u64, Arc<Session>>, now: Instant) {
    let candidates: Vec<_> = sessions.values().cloned().collect();
    for session in candidates {
        let mut st = lock(&session.state);
        if st.closed {
            sessions.remove(&session.id);
            continue;
        }
        if let Some(timeout) = inner.idle_timeout {
            // Only a session that is *waiting on the client* can idle out —
            // never one with queued work, an executing job, or an unflushed
            // reply.
            if !st.sink_reads
                && !st.close_after_flush
                && st.pending.is_empty()
                && !st.job_active
                && st.unflushed() == 0
                && now.duration_since(st.last_activity) >= timeout
            {
                st.broken = true;
            }
        }
        sync_session(inner, epfd, sessions, &session, &mut st, now);
    }
}
