//! An in-tree fault-injection TCP proxy for the fault-tolerance e2e
//! suites: it sits between a gatherer and one shard server and, on
//! command, drops, delays, black-holes, or corrupts the traffic.
//!
//! The proxy listens on an ephemeral local port and forwards byte streams
//! to a fixed upstream address. Its [`FaultMode`] is runtime-switchable
//! ([`FaultProxy::set_mode`]) and applies to live connections on their
//! next chunk — a test can let a batch start healthy and then wedge the
//! node mid-flight:
//!
//! * [`FaultMode::Forward`] — transparent byte relay (the healthy
//!   baseline).
//! * [`FaultMode::Delay`] — relay, but sleep before forwarding each
//!   chunk: added tail latency without breaking any stream.
//! * [`FaultMode::BlackHole`] — accept and then swallow everything in
//!   both directions while keeping sockets open: the classic hung node.
//!   A client blocks until its socket deadline fires.
//! * [`FaultMode::Deny`] — close every connection (new and live)
//!   immediately: a crashed process whose port answers with resets.
//! * [`FaultMode::SeverOnRequest`] — keep idle connections open, but close
//!   a connection the moment request bytes arrive on it, forwarding none:
//!   the client's write succeeds and its read finds the transport dead —
//!   a node killed between the two halves of a round trip.
//! * [`FaultMode::CorruptResponses`] — forward requests untouched but
//!   replace every upstream response chunk with a grammar-breaking
//!   garbage line. The client's decoder fails (a *protocol* failure), so
//!   the gatherer classifies and fails over. Requests are deliberately
//!   left intact: corrupting a request would make the shard answer a
//!   deterministic error line, which must *not* trigger failover.
//!
//! This is test infrastructure, not a production component: it trades
//! throughput for determinism (small chunks, short poll deadlines).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to the traffic it carries. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Transparent relay.
    Forward,
    /// Relay with the given extra latency injected before every chunk.
    Delay(Duration),
    /// Swallow all traffic while keeping sockets open (a hung node).
    BlackHole,
    /// Close new and live connections immediately (a dead node).
    Deny,
    /// Close a connection when a request arrives on it, unanswered (a node
    /// dying between a client's write and its read).
    SeverOnRequest,
    /// Forward requests, replace responses with undecodable garbage.
    CorruptResponses,
}

/// Which way a relay half carries bytes; corruption applies only to the
/// response direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    ClientToUpstream,
    UpstreamToClient,
}

/// The garbage line [`FaultMode::CorruptResponses`] substitutes for real
/// response bytes: valid UTF-8 so it reaches the response *decoder* (and
/// fails there, as a protocol error) instead of dying in the reader.
const CORRUPT_LINE: &[u8] = b"zz corrupt frame\n";

/// Poll deadline on relay sockets: bounds how long a relay half can take
/// to notice a mode switch or proxy shutdown.
const RELAY_POLL: Duration = Duration::from_millis(25);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Shared {
    upstream: SocketAddr,
    mode: Mutex<FaultMode>,
    stop: AtomicBool,
    listener: TcpListener,
    connections_seen: AtomicUsize,
    /// Clones of every live relay socket, closed on shutdown to unblock
    /// relay threads.
    conns: Mutex<Vec<TcpStream>>,
    relays: Mutex<Vec<JoinHandle<()>>>,
}

/// A running fault-injection proxy. Dropping the handle shuts it down
/// (prefer calling [`FaultProxy::shutdown`] explicitly).
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral local port, forwarding to
    /// `upstream`, in [`FaultMode::Forward`].
    pub fn start(upstream: SocketAddr) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream,
            mode: Mutex::new(FaultMode::Forward),
            stop: AtomicBool::new(false),
            listener: listener.try_clone()?,
            connections_seen: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            relays: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(FaultProxy {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the upstream's.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the fault mode; live connections observe it on their next
    /// chunk.
    pub fn set_mode(&self, mode: FaultMode) {
        *lock(&self.shared.mode) = mode;
    }

    /// The current fault mode.
    pub fn mode(&self) -> FaultMode {
        *lock(&self.shared.mode)
    }

    /// Connections accepted so far (including ones later denied).
    pub fn connections_seen(&self) -> usize {
        self.shared.connections_seen.load(Ordering::SeqCst)
    }

    /// Stops accepting, severs every relayed connection, and joins all
    /// proxy threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.listener.set_nonblocking(true);
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        for conn in lock(&self.shared.conns).iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let relays: Vec<_> = lock(&self.shared.relays).drain(..).collect();
        for relay in relays {
            let _ = relay.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("addr", &self.addr)
            .field("upstream", &self.shared.upstream)
            .field("mode", &self.mode())
            .field("connections_seen", &self.connections_seen())
            .finish()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            let _ = client.shutdown(Shutdown::Both);
            break;
        }
        shared.connections_seen.fetch_add(1, Ordering::SeqCst);
        if *lock(&shared.mode) == FaultMode::Deny {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(upstream) = TcpStream::connect(shared.upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = upstream.set_nodelay(true);
        // Reap finished relay threads so the handle list stays bounded.
        {
            let mut relays = lock(&shared.relays);
            let mut i = 0;
            while i < relays.len() {
                if relays[i].is_finished() {
                    let _ = relays.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        let pair = [
            (
                client.try_clone(),
                upstream.try_clone(),
                Direction::ClientToUpstream,
            ),
            (
                upstream.try_clone(),
                client.try_clone(),
                Direction::UpstreamToClient,
            ),
        ];
        lock(&shared.conns).push(client);
        lock(&shared.conns).push(upstream);
        for (from, to, direction) in pair {
            let (Ok(from), Ok(to)) = (from, to) else {
                continue;
            };
            let relay_shared = Arc::clone(&shared);
            let handle = std::thread::spawn(move || relay(from, to, direction, &relay_shared));
            lock(&shared.relays).push(handle);
        }
    }
}

/// One relay half: reads chunks from `from` and forwards (or drops, or
/// mangles) them into `to`, per the proxy's current mode. Exits on EOF,
/// any hard socket error, proxy shutdown, or [`FaultMode::Deny`].
fn relay(from: TcpStream, mut to: TcpStream, direction: Direction, shared: &Shared) {
    let mut from = from;
    // Short poll deadlines so the relay re-checks mode/stop even while a
    // stream is silent; the write deadline prevents a wedged peer from
    // pinning the thread past shutdown.
    let _ = from.set_read_timeout(Some(RELAY_POLL));
    let _ = to.set_write_timeout(Some(Duration::from_secs(1)));
    let mut buf = [0u8; 8192];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Deny severs live connections too, even while they are silent.
        if *lock(&shared.mode) == FaultMode::Deny {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let mode = *lock(&shared.mode);
        let written = match mode {
            FaultMode::Forward => to.write_all(&buf[..n]),
            FaultMode::Delay(extra) => {
                std::thread::sleep(extra);
                to.write_all(&buf[..n])
            }
            FaultMode::BlackHole => continue,
            FaultMode::Deny | FaultMode::SeverOnRequest => break,
            FaultMode::CorruptResponses => match direction {
                Direction::ClientToUpstream => to.write_all(&buf[..n]),
                Direction::UpstreamToClient => to.write_all(CORRUPT_LINE),
            },
        };
        if written.is_err() || to.flush().is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
