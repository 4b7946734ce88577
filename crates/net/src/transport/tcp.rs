//! A real socket transport over `std::net`.
//!
//! ## Wire format
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [u32 frame_len][u32 from][u32 to][payload = M::encode_wire()]
//! ```
//!
//! `frame_len` counts the bytes *after* the prefix (8 + payload length).
//! All integers are big-endian.
//!
//! ## Threads
//!
//! No thread of the transport polls: each blocks on the thing it works on
//! and is woken by it.
//!
//! * One **acceptor** per transport blocks in `accept()` and starts a
//!   **reader** per inbound connection.  It starts at the first
//!   [`Transport::register`], not at [`TcpTransport::bind`]: until a
//!   receiver exists the bound listener queues peers' connections and the
//!   bytes they send, so nothing that arrives early reaches no sink.
//! * A **reader** blocks in `read()`, straight into its reassembly buffer,
//!   parses every complete frame, decodes the payload and calls the locally
//!   registered sink named by `to` with it — on this thread, so the frames
//!   of one connection are handled one at a time and in order, and a sink
//!   that waited would hold up every frame behind it.  A frame that does
//!   not decode, is addressed to an id with no sink here (the peer map may
//!   be ahead of local registration during elasticity) or is refused by its
//!   sink is counted in `frames_dropped`; an out-of-range length kills the
//!   connection.
//! * **No thread writes for a sender that can write itself.**  Each remote
//!   peer has one outbox under one mutex: its outbound connection, a
//!   backlog of whole frames (at most `send_queue` of them; one more is
//!   [`AeonError::SendQueueFull`], never a blocked sender), how much of the
//!   first one the kernel already took, and whether someone owns the
//!   connection.  [`TcpTransport::send`] builds the frame in the buffer it
//!   is sent from.  When the peer is connected and nothing is queued or
//!   being written, the sender takes the connection and writes the frame
//!   with one nonblocking `write`, outside the mutex; otherwise it appends
//!   the frame to the backlog and returns.  No connect and no blocking
//!   write ever happen on a sender's thread, and the mutex is held across
//!   no `write` at all.
//! * **Combining.**  A sender whose write the kernel took whole looks at
//!   the backlog before it lets the connection go: frames others appended
//!   meanwhile go out in its next `write`, all of them in one, until it has
//!   drained 64 KiB that way.  That is what is left of batching; a lone
//!   sender that floods one peer pays one `write` per frame.
//! * A **flusher** is started only to connect (a first send, or one after
//!   the connection was lost) and to drain what a sender could not write:
//!   a `WouldBlock`, a partial write, more than the combining bound.  It
//!   owns the connection in blocking mode, connects with bounded retry
//!   (absorbing process start-up races), writes the backlog in send order,
//!   all that is queued at a time in one `write`, and when the backlog is
//!   empty sets the connection nonblocking again, hands it back and exits.
//!   At rest a transport runs its acceptor and one reader per inbound
//!   connection, nothing per peer.  On connection loss the flusher
//!   reconnects once and resumes at the first frame the kernel had not
//!   taken whole, so no frame is sent twice; when that fails too every
//!   frame still queued is counted as dropped, and the next send starts a
//!   fresh flusher (reconnect-on-send).
//!
//! [`Transport::shutdown`] is the only thing that wakes them for anything
//! but work.  It flips `running` (no flusher starts after that) and
//! notifies the condition variable a flusher waits on between connection
//! attempts; drops the outboxes, which closes every idle connection;
//! wakes the acceptor with a throw-away connection to its own listener;
//! gives the live flushers `FLUSH_GRACE` to write out what `send` had
//! already accepted; closes every socket (readers return from `read`, and
//! a flusher stuck on a peer that stopped reading returns from `write`);
//! and joins all of them.  When it returns the listener is closed and no
//! thread of the transport is left.
//!
//! Self-sends (a server messaging an id registered in the same process)
//! short-circuit into the sink, on the sender's thread, but still pay for
//! encoding, so byte counters remain honest.

use super::{SendReceipt, Sink, Sinks, Transport, WireMessage};
use crate::stats::NetworkStats;
use aeon_types::{AeonError, Result, ServerId};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Upper bound on a single frame; anything larger indicates a corrupt or
/// hostile stream and kills the connection.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of a frame before its payload (`u32` length + `u32` from + `u32` to).
const HEADER: usize = 12;

/// A reader's reassembly buffer starts at this size (and stays there unless
/// a single frame is larger).
const READ_BUF: usize = 16 * 1024;

/// A sender stops draining what others appended behind its own frame once
/// it has written this much of it, and leaves the rest to a flusher.
const BURST_BYTES: usize = 64 * 1024;

/// How long `shutdown` lets flushers finish writing what is already queued
/// before it closes their sockets under them.
const FLUSH_GRACE: Duration = Duration::from_secs(1);

/// Bound on one connection attempt, so a peer that swallows SYNs holds a
/// flusher — and the `shutdown` that joins it — for seconds, not minutes.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Pause after a failed `accept` (descriptor exhaustion and the like), so a
/// persistent error does not spin the acceptor.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Tuning knobs for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpTransportConfig {
    /// Address to listen on; use port 0 to let the OS pick (loopback
    /// clusters discover each other via [`Transport::local_addr`]).
    pub listen: SocketAddr,
    /// Initial peer map (server id → address).  Peers can also be added
    /// later with [`Transport::add_peer`].
    pub peers: HashMap<ServerId, SocketAddr>,
    /// Connection attempts per flusher before it gives up (the *bounded*
    /// part of reconnect-on-send).
    pub connect_retries: u32,
    /// Delay between connection attempts.
    pub retry_delay: Duration,
    /// Outbound frames buffered per peer while it is being connected or a
    /// backlog is being written; a send that finds that many queued fails
    /// with [`AeonError::SendQueueFull`] and the frame is counted in
    /// `frames_dropped`.
    pub send_queue: usize,
}

impl TcpTransportConfig {
    /// A config listening on `listen` with no peers and default retry
    /// behaviour (40 attempts × 250 ms ≈ 10 s of patience per connection).
    pub fn new(listen: SocketAddr) -> Self {
        Self {
            listen,
            peers: HashMap::new(),
            connect_retries: 40,
            retry_delay: Duration::from_millis(250),
            send_queue: 1024,
        }
    }

    /// Adds an initial peer.
    pub fn peer(mut self, id: ServerId, addr: SocketAddr) -> Self {
        self.peers.insert(id, addr);
        self
    }
}

/// What `shutdown` has to find again: the sockets to close and the threads
/// to join.  `running` lives under the same lock, so nothing is added once
/// it is `false`.
struct Lifecycle {
    running: bool,
    /// A handle to every live socket, inbound and outbound: shutting one
    /// down fails the `read` or `write` its thread is blocked in.
    streams: HashMap<u64, TcpStream>,
    next_stream: u64,
    /// The bound listener, until the first `register` hands it to the
    /// acceptor.
    listener: Option<TcpListener>,
    /// Joined only once the wake-up connection reached it.
    acceptor: Option<JoinHandle<()>>,
    /// Readers and flushers; finished ones are reaped when the next starts.
    threads: Vec<JoinHandle<()>>,
    /// Flushers that have not exited yet, so `shutdown` can let them flush.
    live_flushers: usize,
}

struct TcpShared<M> {
    local_addr: SocketAddr,
    sinks: Sinks<M>,
    peers: RwLock<HashMap<ServerId, SocketAddr>>,
    /// One outbox per remote peer a frame was sent to: its connection and
    /// backlog.  No thread belongs to an entry; a flusher runs for one only
    /// while it connects or drains a backlog.
    outboxes: RwLock<HashMap<ServerId, SharedOutbox<M>>>,
    /// Set once, by [`Transport::bind_stats`].
    stats: OnceLock<Arc<NetworkStats>>,
    life: Mutex<Lifecycle>,
    /// Notified when `life.running` falls and when a flusher exits.
    life_changed: Condvar,
    connect_retries: u32,
    retry_delay: Duration,
    send_queue: usize,
}

impl<M> TcpShared<M> {
    fn record_frame_dropped(&self) {
        if let Some(stats) = self.stats.get() {
            stats.record_frame_dropped();
        }
    }

    /// Counts `frames` queued frames the transport gave up on, both as lost
    /// messages and as transport-level frame drops.
    fn record_lost(&self, frames: usize) {
        if let Some(stats) = self.stats.get() {
            for _ in 0..frames {
                stats.record_dropped();
                stats.record_frame_dropped();
            }
        }
    }

    fn running(&self) -> bool {
        self.life.lock().running
    }

    /// Blocks on `life_changed` while `waiting(life)` holds, for at most
    /// `timeout`.
    fn wait_while(
        &self,
        life: &mut MutexGuard<'_, Lifecycle>,
        timeout: Duration,
        waiting: impl Fn(&Lifecycle) -> bool,
    ) {
        let deadline = Instant::now() + timeout;
        while waiting(life) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            self.life_changed.wait_for(life, left);
        }
    }

    /// Waits out `delay` unless the transport shuts down first; `false`
    /// once it has.
    fn pause(&self, delay: Duration) -> bool {
        let mut life = self.life.lock();
        self.wait_while(&mut life, delay, |life| life.running);
        life.running
    }

    /// Starts a reader or flusher thread that `shutdown` will join, and
    /// says whether it did.  Once the transport is shut down (or when the OS
    /// refuses a thread) `body` is dropped unrun, which hangs up whatever it
    /// owned.
    fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) -> bool {
        let mut life = self.life.lock();
        if !life.running {
            return false;
        }
        life.threads.retain(|thread| !thread.is_finished());
        let Ok(thread) = thread::Builder::new().name(name).spawn(body) else {
            return false;
        };
        life.threads.push(thread);
        true
    }

    /// The outbox of `to`, made on the first send to it.
    fn outbox(&self, to: ServerId) -> SharedOutbox<M> {
        if let Some(outbox) = self.outboxes.read().get(&to) {
            return Arc::clone(outbox);
        }
        let mut outboxes = self.outboxes.write();
        Arc::clone(outboxes.entry(to).or_insert_with(|| {
            Arc::new(Mutex::new(Outbox {
                conn: None,
                backlog: Vec::new(),
                written: 0,
                queued: 0,
                busy: false,
            }))
        }))
    }
}

/// The outbound side of one remote peer, shared by the senders and the
/// peer's flusher.  Whoever sets `busy` owns the connection — a sender for
/// its direct write, or a flusher — and moves it out of here while it
/// writes; the owner looks at the backlog again under the mutex before it
/// lets go, so `!busy` implies an empty backlog and a frame appended while
/// the owner wrote is never stranded.
struct Outbox<M> {
    /// The connection while nobody owns it, once a flusher has made one.
    /// In blocking mode only while a flusher owns it.
    conn: Option<Tracked<M>>,
    /// Whole frames accepted and not yet written, back to back, in send
    /// order.
    backlog: Vec<u8>,
    /// Bytes of `backlog` the kernel already took on `conn`.
    written: usize,
    /// Frames in `backlog`; `send` refuses one beyond `send_queue`.
    queued: usize,
    busy: bool,
}

type SharedOutbox<M> = Arc<Mutex<Outbox<M>>>;

impl<M> Outbox<M> {
    fn push(&mut self, frame: &[u8]) {
        self.backlog.extend_from_slice(frame);
        self.queued += 1;
    }

    /// Moves the backlog into `burst` (whose old bytes are gone), leaving
    /// `burst`'s buffer behind for the next frames, and returns how much of
    /// it the kernel already took.
    fn take_backlog(&mut self, burst: &mut Vec<u8>) -> usize {
        burst.clear();
        std::mem::swap(burst, &mut self.backlog);
        self.queued = 0;
        std::mem::take(&mut self.written)
    }

    /// Puts what the kernel did not take of `burst` — it took the first
    /// `taken` bytes — back in front of the backlog, from the first frame
    /// it did not take whole.  `written` stays at the part of that frame
    /// that went out when the connection still stands, and is 0 when it is
    /// lost, so the next connection gets that frame whole.
    fn requeue(&mut self, burst: &[u8], taken: usize, conn_lost: bool) {
        let start = resume_at(burst, taken);
        let rest = &burst[start..];
        self.written = if conn_lost { 0 } else { taken - start };
        self.queued += frame_starts(rest).count();
        self.backlog.splice(0..0, rest.iter().copied());
    }

    /// Empties the backlog that nothing will write and lets the outbox go;
    /// returns the number of frames thrown away.  The connection goes too:
    /// it may end inside a frame.
    fn abandon(&mut self) -> usize {
        self.conn = None;
        self.backlog.clear();
        self.written = 0;
        self.busy = false;
        std::mem::take(&mut self.queued)
    }
}

/// A socket `shutdown` can close under the thread blocked on it; dropping
/// it removes the registration (and so closes the descriptor).
struct Tracked<M> {
    stream: TcpStream,
    id: u64,
    shared: Arc<TcpShared<M>>,
}

impl<M> Tracked<M> {
    /// `None` once the transport is shut down.
    fn new(shared: &Arc<TcpShared<M>>, stream: TcpStream) -> Option<Self> {
        let handle = stream.try_clone().ok()?;
        let mut life = shared.life.lock();
        if !life.running {
            return None;
        }
        let id = life.next_stream;
        life.next_stream += 1;
        life.streams.insert(id, handle);
        Some(Self {
            stream,
            id,
            shared: Arc::clone(shared),
        })
    }
}

impl<M> Drop for Tracked<M> {
    fn drop(&mut self) {
        self.shared.life.lock().streams.remove(&self.id);
    }
}

/// TCP implementation of [`Transport`]; see the module docs for the wire
/// format and threading model.
pub struct TcpTransport<M: WireMessage> {
    shared: Arc<TcpShared<M>>,
}

impl<M: WireMessage> fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local_addr", &self.shared.local_addr)
            .field("peers", &self.shared.peers.read().len())
            .finish()
    }
}

impl<M: WireMessage> TcpTransport<M> {
    /// Binds the listener; the first [`Transport::register`] starts
    /// accepting on it.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Config`] when the listen address cannot be
    /// bound.
    pub fn bind(config: TcpTransportConfig) -> Result<Self> {
        let listener = TcpListener::bind(config.listen)
            .map_err(|e| AeonError::Config(format!("bind {}: {e}", config.listen)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| AeonError::Config(format!("local_addr: {e}")))?;
        let shared = Arc::new(TcpShared {
            local_addr,
            sinks: Sinks::new(),
            peers: RwLock::new(config.peers),
            outboxes: RwLock::new(HashMap::new()),
            stats: OnceLock::new(),
            life: Mutex::new(Lifecycle {
                running: true,
                streams: HashMap::new(),
                next_stream: 0,
                listener: Some(listener),
                acceptor: None,
                threads: Vec::new(),
                live_flushers: 0,
            }),
            life_changed: Condvar::new(),
            connect_retries: config.connect_retries,
            retry_delay: config.retry_delay,
            send_queue: config.send_queue,
        });
        Ok(Self { shared })
    }

    /// Encodes one message into a full frame (prefix included), in the
    /// buffer it is sent from.
    fn frame(from: ServerId, to: ServerId, message: &M) -> Result<Vec<u8>> {
        // Room for the header and a typical `Exec`/`Done`, so the common
        // frame is one allocation.
        let mut frame = Vec::with_capacity(256);
        frame.extend_from_slice(&[0; 4]);
        frame.extend_from_slice(&from.raw().to_be_bytes());
        frame.extend_from_slice(&to.raw().to_be_bytes());
        message.encode_wire_into(&mut frame)?;
        let body_len = frame.len() - 4;
        if body_len > MAX_FRAME {
            // The receiver would kill the connection over it.
            return Err(AeonError::Codec(format!(
                "a {body_len}-byte frame exceeds the {MAX_FRAME}-byte limit"
            )));
        }
        frame[..4].copy_from_slice(&(body_len as u32).to_be_bytes());
        Ok(frame)
    }

    /// Writes a frame to the peer, or queues it for whoever writes to the
    /// peer now or for a flusher that connects it.
    ///
    /// A full backlog is *not* silent: the frame is counted in
    /// `frames_dropped` and the caller gets [`AeonError::SendQueueFull`],
    /// a transient error distinguishable from a dead peer
    /// ([`AeonError::ServerNotFound`]) so callers can retry or shed load
    /// instead of misdiagnosing backpressure as peer loss.
    fn enqueue(&self, to: ServerId, addr: SocketAddr, frame: Vec<u8>) -> Result<()> {
        let outbox = self.shared.outbox(to);
        let mut out = outbox.lock();
        if out.queued >= self.shared.send_queue {
            drop(out);
            self.shared.record_frame_dropped();
            return Err(AeonError::SendQueueFull { peer: to });
        }
        if out.busy {
            out.push(&frame);
            return Ok(());
        }
        out.busy = true;
        let Some(conn) = out.conn.take() else {
            out.push(&frame);
            drop(out);
            return start_flusher(&self.shared, outbox, to, addr);
        };
        drop(out);
        write_direct(&self.shared, outbox, to, addr, conn, frame)
    }
}

impl<M: WireMessage> Transport<M> for TcpTransport<M> {
    fn register(&self, id: ServerId, sink: Sink<M>) {
        self.shared.sinks.insert(id, sink);
        let mut life = self.shared.life.lock();
        let Some(listener) = life.listener.take().filter(|_| life.running) else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        let acceptor = thread::Builder::new()
            .name(format!("aeon-tcp-accept-{}", shared.local_addr))
            .spawn(move || accept_loop(shared, listener));
        life.acceptor = acceptor.ok();
    }

    fn deregister(&self, id: ServerId) {
        self.shared.sinks.remove(id);
    }

    fn send(&self, from: ServerId, to: ServerId, message: M) -> Result<SendReceipt> {
        let frame = Self::frame(from, to, &message)?;
        let bytes = frame.len() as u64;
        // Self-send (or loopback co-located id): deliver without a socket.
        if let Some(taken) = self.shared.sinks.deliver(to, message) {
            let receipt = SendReceipt {
                bytes,
                delivered_locally: true,
            };
            return taken
                .then_some(receipt)
                .ok_or(AeonError::ServerNotFound(to));
        }
        let addr = self
            .shared
            .peers
            .read()
            .get(&to)
            .copied()
            .ok_or(AeonError::ServerNotFound(to))?;
        self.enqueue(to, addr, frame)?;
        Ok(SendReceipt {
            bytes,
            delivered_locally: false,
        })
    }

    fn servers(&self) -> Vec<ServerId> {
        let mut ids = self.shared.sinks.ids();
        ids.extend(self.shared.peers.read().keys().copied());
        ids.sort();
        ids.dedup();
        ids
    }

    fn bind_stats(&self, stats: Arc<NetworkStats>) {
        let _ = self.shared.stats.set(stats);
    }

    fn add_peer(&self, id: ServerId, addr: SocketAddr) {
        self.shared.peers.write().insert(id, addr);
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        Some(self.shared.local_addr)
    }

    fn shutdown(&self) {
        let shared = &self.shared;
        {
            let mut life = shared.life.lock();
            if !life.running {
                return;
            }
            life.running = false;
        }
        shared.life_changed.notify_all();
        // An idle connection closes with its outbox; a flusher holds on to
        // its own until it has written what `send` accepted.
        let outboxes = std::mem::take(&mut *shared.outboxes.write());
        drop(outboxes);
        // The acceptor re-checks `running` after every `accept`; this
        // throw-away connection is what makes `accept` return.
        let woken = TcpStream::connect_timeout(&wake_addr(shared.local_addr), CONNECT_TIMEOUT);
        let (streams, acceptor, threads) = {
            let mut life = shared.life.lock();
            shared.wait_while(&mut life, FLUSH_GRACE, |life| life.live_flushers > 0);
            // Never handed to an acceptor: closing it is all there is.
            life.listener = None;
            (
                std::mem::take(&mut life.streams),
                life.acceptor.take().filter(|_| woken.is_ok()),
                std::mem::take(&mut life.threads),
            )
        };
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // A thread that panicked is as gone as one that returned.
        for thread in acceptor.into_iter().chain(threads) {
            let _ = thread.join();
        }
    }
}

/// Where a connection to the listener bound at `local` has to go: the
/// wildcard address is bindable but not connectable everywhere.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

fn accept_loop<M: WireMessage>(shared: Arc<TcpShared<M>>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if !shared.running() {
            // `shutdown` woke us; dropping the listener closes the port.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if let Some(conn) = Tracked::new(&shared, stream) {
                    shared.spawn("aeon-tcp-reader".into(), move || read_loop(conn));
                }
            }
            Err(_) => {
                shared.pause(ACCEPT_BACKOFF);
            }
        }
    }
}

/// Reassembly buffer of one inbound connection.  `read` fills
/// `buf[end..]`, frames are parsed from `start`, and what is left of a
/// partial frame moves to the front once per `read`.
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// A length prefix outside `8..=MAX_FRAME`: the stream is corrupt.
#[derive(Debug, PartialEq, Eq)]
struct BadLength;

impl FrameBuf {
    fn new() -> Self {
        Self {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Room for the next `read`.  Only a frame larger than the buffer can
    /// fill it; the buffer then doubles, so its size follows the bytes a
    /// peer really sent, not the length it announced.
    fn spare(&mut self) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Marks the first `n` bytes of the last [`FrameBuf::spare`] as read.
    fn filled(&mut self, n: usize) {
        self.end += n;
    }

    /// The destination and payload of the next complete frame, `None` when
    /// it has not all arrived yet.
    fn next_frame(&mut self) -> std::result::Result<Option<(ServerId, &[u8])>, BadLength> {
        let at = self.start;
        let Some(prefix) = self.buf[at..self.end].first_chunk::<4>() else {
            return Ok(None);
        };
        let body_len = u32::from_be_bytes(*prefix) as usize;
        if !(HEADER - 4..=MAX_FRAME).contains(&body_len) {
            return Err(BadLength);
        }
        if self.end - at < 4 + body_len {
            return Ok(None);
        }
        self.start = at + 4 + body_len;
        let frame = &self.buf[at..self.start];
        let to = u32::from_be_bytes(*frame[8..].first_chunk::<4>().expect("header is whole"));
        Ok(Some((ServerId::new(to), &frame[HEADER..])))
    }
}

/// Reassembles frames from one inbound connection and delivers them, until
/// the peer closes it, the stream turns out corrupt, or `shutdown` closes
/// the socket.
fn read_loop<M: WireMessage>(conn: Tracked<M>) {
    let mut stream = &conn.stream;
    let mut frames = FrameBuf::new();
    loop {
        match stream.read(frames.spare()) {
            Ok(0) => return,
            Ok(n) => frames.filled(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            match frames.next_frame() {
                Ok(Some((to, payload))) => deliver(&conn.shared, to, payload),
                Ok(None) => break,
                Err(BadLength) => return,
            }
        }
    }
}

/// Decodes one payload and hands it to the sink of `to`; a frame that
/// cannot be delivered is counted, never silently skipped.
fn deliver<M: WireMessage>(shared: &TcpShared<M>, to: ServerId, payload: &[u8]) {
    let Ok(message) = M::decode_wire(payload) else {
        shared.record_frame_dropped();
        return;
    };
    if let Some(stats) = shared.stats.get() {
        stats.record_received((HEADER + payload.len()) as u64);
    }
    if shared.sinks.deliver(to, message) != Some(true) {
        shared.record_frame_dropped();
    }
}

/// The sender's own write of `frame` on the connection it took from the
/// outbox, then of what others appended meanwhile (combining, up to
/// `BURST_BYTES`).  It never waits: what the kernel does not take at once is
/// left to a flusher, and so is a connection that failed.
fn write_direct<M: WireMessage>(
    shared: &Arc<TcpShared<M>>,
    outbox: SharedOutbox<M>,
    to: ServerId,
    addr: SocketAddr,
    conn: Tracked<M>,
    frame: Vec<u8>,
) -> Result<()> {
    let mut burst = frame;
    let mut combined = 0;
    loop {
        let (taken, conn_lost) = match write_some(&conn.stream, &burst) {
            Ok(taken) => (taken, false),
            Err(taken) => (taken, true),
        };
        let mut out = outbox.lock();
        if taken == burst.len() {
            if out.backlog.is_empty() {
                out.conn = Some(conn);
                out.busy = false;
                return Ok(());
            }
            if combined < BURST_BYTES {
                out.take_backlog(&mut burst);
                combined += burst.len();
                continue;
            }
        } else {
            out.requeue(&burst, taken, conn_lost);
        }
        if !conn_lost {
            out.conn = Some(conn);
        }
        drop(out);
        return start_flusher(shared, outbox, to, addr);
    }
}

/// Starts the flusher of an outbox its caller owns.  When none can start
/// (the transport is shut down) nothing would ever write the backlog: it is
/// counted lost, and the send that needed the flusher fails like one to an
/// unknown peer.
fn start_flusher<M: WireMessage>(
    shared: &Arc<TcpShared<M>>,
    outbox: SharedOutbox<M>,
    to: ServerId,
    addr: SocketAddr,
) -> Result<()> {
    let (flusher_shared, flusher_outbox) = (Arc::clone(shared), Arc::clone(&outbox));
    if shared.spawn(format!("aeon-tcp-flush-{to}"), move || {
        flush(flusher_shared, flusher_outbox, addr)
    }) {
        return Ok(());
    }
    let lost = outbox.lock().abandon();
    shared.record_lost(lost);
    Err(AeonError::ServerNotFound(to))
}

/// A flusher: takes the connection (connecting when there is none), writes
/// the backlog with blocking writes until it is empty, then hands the
/// connection back, nonblocking, and exits.  A burst it loses is counted,
/// with everything still queued behind it, and the outbox is left without
/// a connection for the next send to start over.
fn flush<M: WireMessage>(shared: Arc<TcpShared<M>>, outbox: SharedOutbox<M>, addr: SocketAddr) {
    shared.life.lock().live_flushers += 1;
    // Out of the outbox first: no connect happens under its mutex.
    let handed_over = outbox.lock().conn.take();
    let mut conn = match handed_over {
        Some(conn) => {
            let _ = conn.stream.set_nonblocking(false);
            Some(conn)
        }
        None => connect_with_retry(&shared, addr),
    };
    let mut burst = Vec::new();
    let mut lost = 0;
    loop {
        let mut out = outbox.lock();
        let Some(owned) = conn.take() else {
            lost += out.abandon();
            break;
        };
        if out.backlog.is_empty() {
            let _ = owned.stream.set_nonblocking(true);
            out.conn = Some(owned);
            out.busy = false;
            break;
        }
        let written = out.take_backlog(&mut burst);
        drop(out);
        conn = Some(owned);
        lost += write_burst(&shared, addr, &mut conn, &burst, written);
        if lost > 0 {
            conn = None;
        }
    }
    shared.record_lost(lost);
    shared.life.lock().live_flushers -= 1;
    shared.life_changed.notify_all();
}

/// Writes `burst`, of which the kernel already took the first `written`
/// bytes on `conn`, reconnecting once (with the bounded retry) when the
/// connection fails, and returns how many of its frames were lost.  After
/// a reconnect it resumes at the first frame the kernel had not taken
/// whole, so no frame is sent twice.
fn write_burst<M: WireMessage>(
    shared: &Arc<TcpShared<M>>,
    addr: SocketAddr,
    conn: &mut Option<Tracked<M>>,
    burst: &[u8],
    written: usize,
) -> usize {
    let (mut rest, mut written) = (burst, written);
    for attempt in 0..2 {
        if attempt == 1 {
            *conn = connect_with_retry(shared, addr);
        }
        let Some(conn) = conn else { break };
        match write_some(&conn.stream, &rest[written..]) {
            Ok(taken) if taken == rest.len() - written => return 0,
            Ok(taken) | Err(taken) => {
                rest = &rest[resume_at(rest, written + taken)..];
                written = 0;
            }
        }
    }
    frame_starts(rest).count()
}

/// Writes `bytes` until all are taken, the kernel would block (on a
/// nonblocking stream) or the connection fails: `Ok` with the bytes taken
/// while the connection stands, `Err` with those taken before it failed.
fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> std::result::Result<usize, usize> {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(written),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => return Err(written),
        }
    }
    Ok(written)
}

/// Where sending `burst` resumes after the kernel took its first `written`
/// bytes: the start of the first frame it did not take whole.
fn resume_at(burst: &[u8], written: usize) -> usize {
    frame_starts(burst)
        .take_while(|start| *start <= written)
        .last()
        .unwrap_or(0)
}

/// Offsets at which the frames packed into `burst` start.
fn frame_starts(burst: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut next = 0;
    std::iter::from_fn(move || {
        let prefix = burst.get(next..)?.first_chunk::<4>()?;
        let start = next;
        next += 4 + u32::from_be_bytes(*prefix) as usize;
        Some(start)
    })
}

/// Connects to `addr` with the configured bounded retry, registering the
/// socket so `shutdown` can close it; `None` when every attempt failed or
/// the transport shut down meanwhile (which ends the wait between attempts
/// at once).
fn connect_with_retry<M: WireMessage>(
    shared: &Arc<TcpShared<M>>,
    addr: SocketAddr,
) -> Option<Tracked<M>> {
    for attempt in 0..shared.connect_retries {
        if !shared.running() {
            return None;
        }
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Tracked::new(shared, stream);
            }
            Err(_) if attempt + 1 < shared.connect_retries => {
                if !shared.pause(shared.retry_delay) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Blob(Vec<u8>);

    impl WireMessage for Blob {
        fn encode_wire(&self) -> Result<Vec<u8>> {
            Ok(self.0.clone())
        }

        fn decode_wire(bytes: &[u8]) -> Result<Self> {
            Ok(Blob(bytes.to_vec()))
        }
    }

    type Parsed = Vec<(ServerId, Vec<u8>)>;

    /// Feeds `stream` to a fresh parser in pieces of the given lengths (the
    /// last length repeats) and returns every frame it yields.
    fn reassemble(
        stream: &[u8],
        pieces: impl IntoIterator<Item = usize>,
    ) -> std::result::Result<Parsed, BadLength> {
        let mut pieces = pieces.into_iter();
        let mut piece = 1;
        let mut frames = FrameBuf::new();
        let mut parsed = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            piece = pieces.next().unwrap_or(piece).max(1);
            // One `read`: never more than the parser has room for.
            let spare = frames.spare();
            let n = piece.min(rest.len()).min(spare.len());
            spare[..n].copy_from_slice(&rest[..n]);
            frames.filled(n);
            rest = &rest[n..];
            while let Some((to, payload)) = frames.next_frame()? {
                parsed.push((to, payload.to_vec()));
            }
        }
        Ok(parsed)
    }

    #[test]
    fn reassembly_does_not_depend_on_where_reads_end() {
        // 1 000 frames of mixed sizes, some larger than the read buffer.
        let sizes = [0, 1, 3, 11, 12, 13, 100, 999, 5_000, 40_000];
        let mut sent: Parsed = Vec::new();
        let mut stream = Vec::new();
        let mut offsets = Vec::new();
        for i in 0..1_000usize {
            let size = sizes[i % sizes.len()] + i % 7;
            let payload: Vec<u8> = (0..size).map(|b| (b + i) as u8).collect();
            let to = ServerId::new(i as u32 % 5);
            offsets.push(stream.len());
            stream
                .extend(TcpTransport::frame(ServerId::new(9), to, &Blob(payload.clone())).unwrap());
            sent.push((to, payload));
        }

        // Fixed piece sizes: byte by byte, inside the length prefix, inside
        // the header, inside payloads, several frames per read.
        for piece in [1, 2, 3, 5, 11, 13, 64, 4_096, 16 * 1024, usize::MAX] {
            assert_eq!(
                reassemble(&stream, [piece]).unwrap(),
                sent,
                "pieces of {piece}"
            );
        }
        // Reads that end a fixed distance past each frame's start: inside
        // its prefix (2), inside its header (6, 11), right after the header
        // (12), one byte into the payload (13).
        for past in [2usize, 6, 11, 12, 13] {
            let mut at = 0;
            let cuts: Vec<usize> = offsets
                .iter()
                .map(|start| start + past)
                .filter(|cut| *cut < stream.len())
                .map(|cut| {
                    let piece = cut.saturating_sub(at);
                    at = at.max(cut);
                    piece
                })
                .filter(|piece| *piece > 0)
                .collect();
            assert_eq!(
                reassemble(&stream, cuts).unwrap(),
                sent,
                "{past} bytes past each start"
            );
        }
    }

    #[test]
    fn an_out_of_range_length_is_refused_after_the_frames_before_it() {
        let good = TcpTransport::frame(ServerId::new(0), ServerId::new(1), &Blob(vec![7])).unwrap();
        for bad in [0u32, 7, MAX_FRAME as u32 + 1, u32::MAX] {
            let mut stream = good.clone();
            stream.extend_from_slice(&bad.to_be_bytes());
            stream.extend_from_slice(&[0; 64]);
            let mut frames = FrameBuf::new();
            frames.spare()[..stream.len()].copy_from_slice(&stream);
            frames.filled(stream.len());
            assert_eq!(
                frames.next_frame(),
                Ok(Some((ServerId::new(1), &[7u8][..])))
            );
            assert_eq!(frames.next_frame(), Err(BadLength), "length {bad}");
        }
    }

    #[test]
    fn a_failed_burst_resumes_at_the_first_frame_not_taken_whole() {
        let frame = |n: usize| {
            TcpTransport::frame(ServerId::new(0), ServerId::new(1), &Blob(vec![0; n])).unwrap()
        };
        let burst = [frame(0), frame(5), frame(1)].concat();
        assert_eq!(frame_starts(&burst).collect::<Vec<_>>(), [0, 12, 29]);
        for (written, resume) in [(0, 0), (11, 0), (12, 12), (28, 12), (29, 29), (41, 29)] {
            assert_eq!(resume_at(&burst, written), resume, "{written} bytes taken");
        }
        // What is lost when the reconnect fails too: the frames from there.
        assert_eq!(frame_starts(&burst[12..]).count(), 2);
        assert_eq!(frame_starts(&[]).count(), 0);
    }
}
