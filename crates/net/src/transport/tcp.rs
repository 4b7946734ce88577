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
//! * One **writer** per remote peer blocks on its bounded queue and owns
//!   the outbound connection.  [`TcpTransport::send`] builds the frame in
//!   the buffer it is sent from and enqueues it (a full queue is
//!   [`AeonError::SendQueueFull`], never a blocked sender).  The writer
//!   connects lazily with bounded retry (absorbing process start-up
//!   races); when more frames are already waiting it appends them, up to
//!   64 KiB, and hands the burst to the kernel in one `write`, in queue
//!   order.  On connection loss it reconnects once, resends from the first
//!   frame the kernel had not taken whole, and otherwise retires itself
//!   with every frame it still held counted as dropped; the next send
//!   spawns a fresh writer (reconnect-on-send).
//!
//! [`Transport::shutdown`] is the only thing that wakes them for anything
//! but work.  It flips `running` and notifies the condition variable a
//! writer waits on between connection attempts; disconnects the writers'
//! queues, so each writes out what `send` had already accepted and exits;
//! wakes the acceptor with a throw-away connection to its own listener;
//! closes every socket (readers return from `read`, and a writer stuck on
//! a peer that stopped reading — given `FLUSH_GRACE` to finish — returns
//! from `write`); and joins all of them.  When it returns the listener is
//! closed and no thread of the transport is left.
//!
//! Self-sends (a server messaging an id registered in the same process)
//! short-circuit into the sink, on the sender's thread, but still pay for
//! encoding, so byte counters remain honest.

use super::{SendReceipt, Sink, Sinks, Transport, WireMessage};
use crate::stats::NetworkStats;
use aeon_types::{AeonError, Result, ServerId};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
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

/// A writer stops appending queued frames to a burst once it is this big.
const BURST_BYTES: usize = 64 * 1024;

/// How long `shutdown` lets writers finish writing what is already queued
/// before it closes their sockets under them.
const FLUSH_GRACE: Duration = Duration::from_secs(1);

/// Bound on one connection attempt, so a peer that swallows SYNs holds a
/// writer — and the `shutdown` that joins it — for seconds, not minutes.
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
    /// Connection attempts per writer before it gives up (the *bounded*
    /// part of reconnect-on-send).
    pub connect_retries: u32,
    /// Delay between connection attempts.
    pub retry_delay: Duration,
    /// Outbound frames buffered per peer; a send that finds the queue full
    /// fails with [`AeonError::SendQueueFull`] and the frame is counted in
    /// `frames_dropped`.
    pub send_queue: usize,
}

impl TcpTransportConfig {
    /// A config listening on `listen` with no peers and default retry
    /// behaviour (40 attempts × 250 ms ≈ 10 s of patience per writer).
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
    /// Readers and writers; finished ones are reaped when the next starts.
    threads: Vec<JoinHandle<()>>,
    /// Writers that have not exited yet, so `shutdown` can let them flush.
    live_writers: usize,
}

struct TcpShared<M> {
    local_addr: SocketAddr,
    sinks: Sinks<M>,
    peers: RwLock<HashMap<ServerId, SocketAddr>>,
    /// Outbound frame queues, one writer thread per live entry.
    writers: Mutex<HashMap<ServerId, Sender<Vec<u8>>>>,
    stats: RwLock<Option<Arc<NetworkStats>>>,
    life: Mutex<Lifecycle>,
    /// Notified when `life.running` falls and when a writer exits.
    life_changed: Condvar,
    connect_retries: u32,
    retry_delay: Duration,
    send_queue: usize,
}

impl<M> TcpShared<M> {
    fn record_frame_dropped(&self) {
        if let Some(stats) = self.stats.read().as_ref() {
            stats.record_frame_dropped();
        }
    }

    /// Counts `frames` queued frames a writer gave up on, both as lost
    /// messages and as transport-level frame drops.
    fn record_lost(&self, frames: usize) {
        if let Some(stats) = self.stats.read().as_ref() {
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

    /// Starts a reader or writer thread that `shutdown` will join.  Once
    /// the transport is shut down (or when the OS refuses a thread) `body`
    /// is dropped unrun, which hangs up whatever it owned.
    fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) {
        let mut life = self.life.lock();
        if !life.running {
            return;
        }
        life.threads.retain(|thread| !thread.is_finished());
        if let Ok(thread) = thread::Builder::new().name(name).spawn(body) {
            life.threads.push(thread);
        }
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
            writers: Mutex::new(HashMap::new()),
            stats: RwLock::new(None),
            life: Mutex::new(Lifecycle {
                running: true,
                streams: HashMap::new(),
                next_stream: 0,
                listener: Some(listener),
                acceptor: None,
                threads: Vec::new(),
                live_writers: 0,
            }),
            life_changed: Condvar::new(),
            connect_retries: config.connect_retries,
            retry_delay: config.retry_delay,
            send_queue: config.send_queue,
        });
        Ok(Self { shared })
    }

    /// Encodes one message into a full frame (prefix included), in the
    /// buffer the writer will send it from.
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

    /// Hands a frame to the peer's writer, spawning one when missing or
    /// when the previous writer retired after losing its connection.
    ///
    /// A full send queue is *not* silent: the frame is counted in
    /// `frames_dropped` and the caller gets [`AeonError::SendQueueFull`],
    /// a transient error distinguishable from a dead peer
    /// ([`AeonError::ServerNotFound`]) so callers can retry or shed load
    /// instead of misdiagnosing backpressure as peer loss.
    fn enqueue(&self, to: ServerId, addr: SocketAddr, frame: Vec<u8>) -> Result<()> {
        let mut frame = frame;
        for _ in 0..2 {
            let tx = {
                let mut writers = self.shared.writers.lock();
                writers
                    .entry(to)
                    .or_insert_with(|| spawn_writer(&self.shared, to, addr))
                    .clone()
            };
            match tx.try_send(frame) {
                Ok(()) => return Ok(()),
                Err(channel::TrySendError::Full(_)) => {
                    self.shared.record_frame_dropped();
                    return Err(AeonError::SendQueueFull { peer: to });
                }
                Err(channel::TrySendError::Disconnected(f)) => {
                    // The writer retired (connection lost / gave up /
                    // transport shut down); drop the dead queue and retry
                    // with a fresh writer.
                    frame = f;
                    self.shared.writers.lock().remove(&to);
                }
            }
        }
        self.shared.record_frame_dropped();
        Err(AeonError::ServerNotFound(to))
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
        *self.shared.stats.write() = Some(stats);
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
        // A writer exits when its queue is disconnected *and* drained, so
        // what `send` accepted before this call still goes out.
        shared.writers.lock().clear();
        // The acceptor re-checks `running` after every `accept`; this
        // throw-away connection is what makes `accept` return.
        let woken = TcpStream::connect_timeout(&wake_addr(shared.local_addr), CONNECT_TIMEOUT);
        let (streams, acceptor, threads) = {
            let mut life = shared.life.lock();
            shared.wait_while(&mut life, FLUSH_GRACE, |life| life.live_writers > 0);
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
    if let Some(stats) = shared.stats.read().as_ref() {
        stats.record_received((HEADER + payload.len()) as u64);
    }
    if shared.sinks.deliver(to, message) != Some(true) {
        shared.record_frame_dropped();
    }
}

/// Spawns the writer thread for `to` and returns its frame queue (already
/// disconnected when the transport is shut down).
fn spawn_writer<M: WireMessage>(
    shared: &Arc<TcpShared<M>>,
    to: ServerId,
    addr: SocketAddr,
) -> Sender<Vec<u8>> {
    let (tx, rx) = channel::bounded::<Vec<u8>>(shared.send_queue);
    let writer_shared = Arc::clone(shared);
    shared.spawn(format!("aeon-tcp-writer-{to}"), move || {
        write_loop(writer_shared, to, addr, rx)
    });
    tx
}

fn write_loop<M: WireMessage>(
    shared: Arc<TcpShared<M>>,
    to: ServerId,
    addr: SocketAddr,
    rx: Receiver<Vec<u8>>,
) {
    shared.life.lock().live_writers += 1;
    let mut conn = connect_with_retry(&shared, addr);
    while conn.is_some() {
        let Ok(mut burst) = rx.recv() else { break };
        while burst.len() < BURST_BYTES {
            match rx.try_recv() {
                Ok(frame) => burst.extend_from_slice(&frame),
                Err(_) => break,
            }
        }
        let lost = write_burst(&shared, addr, &mut conn, &burst);
        if lost > 0 {
            shared.record_lost(lost);
            break;
        }
    }
    // Retire: the next send finds no queue and spawns a fresh writer;
    // whatever is still buffered here is lost, and counted.
    shared.writers.lock().remove(&to);
    while rx.try_recv().is_ok() {
        shared.record_lost(1);
    }
    drop(conn);
    shared.life.lock().live_writers -= 1;
    shared.life_changed.notify_all();
}

/// Writes `burst` to the peer, reconnecting once (with the bounded retry)
/// when the connection fails, and returns how many of its frames were
/// lost.  After a reconnect it resumes at the first frame the kernel had
/// not taken whole, so no frame is sent twice.
fn write_burst<M: WireMessage>(
    shared: &Arc<TcpShared<M>>,
    addr: SocketAddr,
    conn: &mut Option<Tracked<M>>,
    burst: &[u8],
) -> usize {
    let mut rest = burst;
    for attempt in 0..2 {
        if attempt == 1 {
            *conn = connect_with_retry(shared, addr);
        }
        let Some(conn) = conn else { break };
        match write_counted(&conn.stream, rest) {
            Ok(()) => return 0,
            Err(written) => rest = &rest[resume_at(rest, written)..],
        }
    }
    frame_starts(rest).count()
}

/// `write_all`, except that a failure reports how many bytes the kernel
/// had taken before it.  A blocking socket takes a whole burst in one
/// `write` unless the peer's window is full.
fn write_counted(mut stream: &TcpStream, bytes: &[u8]) -> std::result::Result<(), usize> {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(written),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(written),
        }
    }
    Ok(())
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
