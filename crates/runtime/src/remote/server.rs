//! The readiness-loop server: one thread, thousands of connections.
//!
//! One event-loop thread owns the listener and every accepted socket. It
//! polls them all for readiness, reads whatever bytes are available into
//! per-connection [`FrameBuffer`]s, and defers each decoded request to a
//! [`FrontEnd`] worker pool; workers append the encoded response to the
//! connection's output buffer and wake the loop through a self-pipe, and
//! the loop keeps write interest registered until the buffer drains.
//! Nothing blocks on any single peer: a connection whose peer stops
//! reading (bounded output buffer) or floods requests (bounded in-flight
//! count) is paused until it drains — backpressure by bounded buffers,
//! not unbounded queues or threads.

use super::codec::{
    decode_message, encode_frame, FrameBuffer, JsonLinesCodec, WireCodec, WireMode,
};
use super::endpoint::{is_timeout, Conn, Endpoint, Listener};
use super::{
    ClientHello, ServerHello, WireBody, WireFault, WireOp, WireRequest, WireResponse, MAGIC,
    REMOTE_PROTOCOL_MIN_VERSION, REMOTE_PROTOCOL_VERSION,
};
use crate::cache::lock;
use crate::frontend::{FrontEnd, FrontEndConfig};
use crate::journal::JournalPage;
use crate::service::{AdmissionService, LayerMetrics, ServiceError};
use crate::telemetry::{
    op_rate, ConnectionStats, EventLoopStats, HistogramRecorder, SpanScope, TraceEvent, TraceKind,
    TraceRecorder,
};
use platform::UseCase;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{Read, Write};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Producer of bounded journal pages served to [`WireOp::JournalPage`]
/// requests (`None` when the served stack records no journal, or the page
/// cannot be read). Called with the first entry sequence number wanted;
/// page 0 carries the header/checkpoint prologue. The closure bridges the
/// gap between the type-erased `Arc<dyn AdmissionService>` and the
/// concrete stack that owns the [`Journal`](crate::Journal) — capture the
/// stack and call `journal().render_page(from_seq, n).ok()`.
pub type JournalSource = Box<dyn Fn(u64) -> Option<JournalPage> + Send + Sync>;

/// Which [`WireMode`]s a server grants at handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WirePolicy {
    /// Grant each v4 client its requested mode — binary-capable clients
    /// get compact frames, v3 peers and explicit JSON requesters get
    /// JSON lines. The default.
    #[default]
    Auto,
    /// Force JSON lines for every connection — the debug/interop mode
    /// (`probcon serve --wire json`): every frame on every connection is
    /// greppable text, regardless of what clients ask for.
    JsonOnly,
}

/// Tuning knobs of a [`RemoteServer`].
#[derive(Debug, Clone)]
pub struct RemoteServerConfig {
    /// Maximum simultaneously served connections; further accepts are
    /// closed immediately.
    pub max_connections: usize,
    /// Poll granularity of the event loop — the latency with which
    /// timers (handshake deadlines, stalls, shutdown) are observed.
    /// Readiness itself is event-driven, not bounded by this.
    pub poll_interval: Duration,
    /// How long a peer may stall *inside* a frame before the connection
    /// is declared truncated and cut; also the budget for draining
    /// in-flight work at shutdown.
    pub stall_timeout: Duration,
    /// How long a fresh connection may take to complete the handshake.
    pub handshake_timeout: Duration,
    /// Shut the server down after its first connection closes — one-shot
    /// mode for scripted drivers (`probcon serve --once`) that should exit
    /// when their client is done.
    pub once: bool,
    /// Which wire modes the handshake grants.
    pub wire: WirePolicy,
    /// Worker threads deciding admissions (the [`FrontEnd`] pool behind
    /// the event loop).
    pub workers: usize,
    /// Maximum queued decisions across all connections; beyond it,
    /// requests are answered with a typed `QueueFull` fault immediately.
    pub queue_capacity: usize,
    /// Pause reading from a connection whose un-flushed output exceeds
    /// this many bytes — a peer that stops reading cannot grow server
    /// memory beyond its bounded buffers.
    pub max_buffered: usize,
    /// Pause reading from a connection with this many undecided requests
    /// in flight — one flooding pipeliner cannot monopolize the pool.
    pub max_in_flight: u64,
}

impl Default for RemoteServerConfig {
    fn default() -> Self {
        RemoteServerConfig {
            max_connections: 1024,
            poll_interval: Duration::from_millis(20),
            stall_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(5),
            once: false,
            wire: WirePolicy::Auto,
            workers: 4,
            queue_capacity: 4096,
            max_buffered: 4 * 1024 * 1024,
            max_in_flight: 1024,
        }
    }
}

/// Point-in-time counters of a [`RemoteServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Requests decided and answered.
    pub requests: u64,
    /// Connections cut for malformed/truncated frames.
    pub protocol_errors: u64,
    /// Handshakes refused (bad magic, unsupported version, timeout).
    pub handshake_rejects: u64,
    /// Handshakes that negotiated JSON-lines framing.
    pub json_connections: u64,
    /// Handshakes that negotiated binary framing.
    pub binary_connections: u64,
}

// ---------------------------------------------------------------------------
// Readiness: poll(2) + a self-pipe waker.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod poller {
    use std::io::{Read, Write};
    use std::os::raw::c_int;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "macos")]
    type Nfds = std::os::raw::c_uint;
    #[cfg(not(target_os = "macos"))]
    type Nfds = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until any fd is ready or the timeout lapses. Errors (EINTR
    /// and friends) are treated as "nothing ready"; the caller's timers
    /// and retries absorb them.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> bool {
        let millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
        // SAFETY: `fds` is a valid, exclusive slice of `#[repr(C)]`
        // pollfd-layout structs for the duration of the call, and the
        // kernel writes only within it.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
        n > 0
    }

    /// A self-pipe (socketpair) the worker pool writes one byte into to
    /// wake the event loop out of `poll`.
    pub struct Waker {
        tx: UnixStream,
        rx: UnixStream,
    }

    impl Waker {
        pub fn new() -> std::io::Result<Waker> {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker { tx, rx })
        }

        /// One byte is enough: coalesced wakes are fine, the loop drains
        /// the whole dirty list per tick. A full pipe means a wake is
        /// already pending — equally fine.
        pub fn wake(&self) {
            let _ = (&self.tx).write(&[1]);
        }

        /// Empties the pipe so the next `poll` blocks again.
        pub fn drain(&self) {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        pub fn fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }
    }
}

/// Wakes the event loop when workers finish responses (or shutdown is
/// requested), carrying the tokens whose output buffers gained bytes.
struct Notifier {
    dirty: Mutex<Vec<u64>>,
    #[cfg(unix)]
    waker: poller::Waker,
}

impl Notifier {
    fn push(&self, token: u64) {
        lock(&self.dirty).push(token);
        self.wake();
    }

    fn wake(&self) {
        #[cfg(unix)]
        self.waker.wake();
    }

    fn drain(&self) -> Vec<u64> {
        #[cfg(unix)]
        self.waker.drain();
        std::mem::take(&mut *lock(&self.dirty))
    }
}

// ---------------------------------------------------------------------------
// Shared server state.
// ---------------------------------------------------------------------------

struct ServerShared {
    service: Arc<dyn AdmissionService>,
    journal_source: Option<JournalSource>,
    config: RemoteServerConfig,
    started: Instant,
    /// Latency of each request frame, timed around dispatch (decode and
    /// write excluded) — the server-side contribution to remote latency.
    frame_latency: HistogramRecorder,
    /// The served stack's flight recorder, if any layer exposes one —
    /// the sink for the server-side span chain (frame decode → dispatch
    /// → admit). `None` when the stack is untraced: the transport then
    /// records nothing.
    trace: Option<Arc<TraceRecorder>>,
    /// Live per-connection counters, keyed by token; shared with each
    /// [`Connection`] so telemetry requests (decided on worker threads)
    /// can read them without touching event-loop state.
    conn_stats: Mutex<BTreeMap<u64, Arc<ConnTelemetry>>>,
    /// Event-loop iterations completed.
    poll_ticks: AtomicU64,
    /// Time spent *processing* per tick (readiness wait excluded).
    tick_hist: HistogramRecorder,
    /// Ready-set size per tick (a histogram of counts, not of times).
    ready_hist: HistogramRecorder,
    notifier: Notifier,
    stopping: AtomicBool,
    connections: AtomicU64,
    /// Connections that completed the handshake — only these arm `once`
    /// mode (liveness probes and the UDS stale-socket check connect and
    /// drop without handshaking; they must not shut a one-shot server
    /// down before its real client arrives).
    handshaken: AtomicU64,
    active: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    handshake_rejects: AtomicU64,
    json_connections: AtomicU64,
    binary_connections: AtomicU64,
}

impl ServerShared {
    fn handshake_domains(&self) -> u64 {
        let snapshot = self.service.snapshot();
        snapshot
            .counter("fleet", "groups")
            .or_else(|| snapshot.counter("manager", "shards"))
            .unwrap_or(1)
    }

    /// Decides one operation, converting a panicking service (an analysis
    /// edge case, a poisoned layer) into a typed error instead of a dead
    /// worker — remote clients always get an answer.
    fn dispatch(&self, op: WireOp) -> WireBody {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch_inner(op)))
            .unwrap_or_else(|panic| {
                let reason = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                WireBody::Error(WireFault::Analysis(format!(
                    "service panicked while deciding: {reason}"
                )))
            })
    }

    fn dispatch_inner(&self, op: WireOp) -> WireBody {
        match op {
            WireOp::Admit(request) => match self.service.admit(&request) {
                Ok(decision) => WireBody::Decision(decision),
                Err(e) => WireBody::Error(WireFault::from(&e)),
            },
            WireOp::Release(resident) => match self.service.release(resident) {
                Ok(()) => WireBody::Released,
                Err(e) => WireBody::Error(WireFault::from(&e)),
            },
            WireOp::Snapshot => WireBody::Snapshot(self.service.snapshot()),
            WireOp::Estimate { mask, method } => {
                match self.service.estimate(UseCase::from_mask(mask), method) {
                    Ok(estimate) => WireBody::Estimate((*estimate).clone()),
                    Err(e) => WireBody::Error(WireFault::from(&e)),
                }
            }
            WireOp::JournalPage { from_seq } => {
                match self
                    .journal_source
                    .as_ref()
                    .and_then(|source| source(from_seq))
                {
                    Some(page) => WireBody::JournalPage(page),
                    None => {
                        WireBody::Error(WireFault::Config("server records no journal".to_string()))
                    }
                }
            }
            WireOp::Telemetry => {
                let mut telemetry = self.service.telemetry();
                telemetry.service.layers.push(self.server_layer());
                telemetry.push_histogram("remote-server", "frame", self.frame_latency.snapshot());
                let connections = self.connection_stats();
                if !connections.is_empty() {
                    telemetry.connections = Some(connections);
                }
                telemetry.event_loop = Some(self.event_loop_stats());
                WireBody::Telemetry(Box::new(telemetry))
            }
            WireOp::Trace { tail } => {
                WireBody::Trace(self.service.trace_tail(tail.min(1_000_000) as usize))
            }
        }
    }

    /// Point-in-time view of every live connection's counters, in token
    /// (accept) order.
    fn connection_stats(&self) -> Vec<ConnectionStats> {
        lock(&self.conn_stats)
            .values()
            .map(|telem| ConnectionStats {
                token: telem.token,
                client: lock(&telem.client).clone(),
                wire: lock(&telem.wire).clone(),
                frames_in: telem.frames_in.load(Ordering::Relaxed),
                frames_out: telem.frames_out.load(Ordering::Relaxed),
                bytes_in: telem.bytes_in.load(Ordering::Relaxed),
                bytes_out: telem.bytes_out.load(Ordering::Relaxed),
                write_buffered: lock(&telem.out).pending() as u64,
                in_flight: telem.in_flight.load(Ordering::Acquire),
                backpressure_pauses: telem.pauses.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The event loop's own health: tick count, per-tick processing time
    /// and ready-set size distributions.
    fn event_loop_stats(&self) -> EventLoopStats {
        EventLoopStats {
            poll_ticks: self.poll_ticks.load(Ordering::Relaxed),
            tick: self.tick_hist.snapshot(),
            ready: self.ready_hist.snapshot(),
        }
    }

    /// This server's own telemetry layer: connection/request counters plus
    /// the frame-latency distribution.
    fn server_layer(&self) -> LayerMetrics {
        let frame = self.frame_latency.snapshot();
        let mut layer = LayerMetrics::new("remote-server")
            .counter("connections", self.connections.load(Ordering::Relaxed))
            .counter("active", self.active.load(Ordering::Relaxed))
            .counter("requests", self.requests.load(Ordering::Relaxed))
            .counter(
                "protocol_errors",
                self.protocol_errors.load(Ordering::Relaxed),
            )
            .counter(
                "handshake_rejects",
                self.handshake_rejects.load(Ordering::Relaxed),
            )
            .counter(
                "json_connections",
                self.json_connections.load(Ordering::Relaxed),
            )
            .counter(
                "binary_connections",
                self.binary_connections.load(Ordering::Relaxed),
            );
        if frame.count() > 0 {
            layer = layer.op_rate(op_rate("frame", &frame, self.started.elapsed()));
        }
        layer
    }
}

// ---------------------------------------------------------------------------
// Per-connection state.
// ---------------------------------------------------------------------------

/// Encoded-but-unflushed response bytes of one connection. Workers append
/// under the mutex; only the event loop drains.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    start: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// Live counters of one served connection, shared between the event
/// loop (which owns the [`Connection`]) and worker threads answering
/// telemetry requests — the source of
/// [`ConnectionStats`](crate::telemetry::ConnectionStats).
struct ConnTelemetry {
    token: u64,
    /// Identity the peer announced at handshake, if any.
    client: Mutex<Option<String>>,
    /// Negotiated framing name (`"json"` until the handshake grants).
    wire: Mutex<String>,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// False→true backpressure transitions (output or in-flight
    /// saturation paused reads).
    pauses: AtomicU64,
    /// Second handle on the connection's output buffer, for the
    /// `write_buffered` gauge.
    out: Arc<Mutex<OutBuf>>,
    /// Second handle on the connection's in-flight count.
    in_flight: Arc<AtomicU64>,
}

struct Connection {
    conn: Conn,
    inbuf: FrameBuffer,
    /// JSON until the handshake negotiates otherwise.
    codec: &'static dyn WireCodec,
    out: Arc<Mutex<OutBuf>>,
    /// Requests dispatched to the worker pool, not yet appended to `out`.
    in_flight: Arc<AtomicU64>,
    telemetry: Arc<ConnTelemetry>,
    /// Pause state at the last timer check — edge detection for the
    /// `pauses` counter.
    was_paused: bool,
    handshaken: bool,
    client: Option<String>,
    handshake_deadline: Instant,
    /// Advances on every byte read and every frame decoded — the
    /// reference point for the mid-frame stall timer.
    last_progress: Instant,
    /// Peer sent EOF; answer what is in flight, flush, then close.
    peer_closed: bool,
    /// Close once `out` is flushed and nothing is in flight.
    closing: bool,
    /// Handshake refusal — counted in `handshake_rejects` when reaped.
    refused: bool,
    /// Malformed/truncated frames — counted in `protocol_errors`.
    errored: bool,
    /// Socket failed; close immediately, no flush.
    dead: bool,
}

impl Connection {
    fn new(conn: Conn, token: u64, handshake_timeout: Duration) -> Connection {
        let now = Instant::now();
        let out = Arc::new(Mutex::new(OutBuf::default()));
        let in_flight = Arc::new(AtomicU64::new(0));
        let telemetry = Arc::new(ConnTelemetry {
            token,
            client: Mutex::new(None),
            wire: Mutex::new(WireMode::Json.name().to_string()),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            pauses: AtomicU64::new(0),
            out: Arc::clone(&out),
            in_flight: Arc::clone(&in_flight),
        });
        Connection {
            conn,
            inbuf: FrameBuffer::new(),
            codec: &JsonLinesCodec,
            out,
            in_flight,
            telemetry,
            was_paused: false,
            handshaken: false,
            client: None,
            handshake_deadline: now + handshake_timeout,
            last_progress: now,
            peer_closed: false,
            closing: false,
            refused: false,
            errored: false,
            dead: false,
        }
    }

    fn out_pending(&self) -> usize {
        lock(&self.out).pending()
    }

    /// Backpressure: stop consuming this peer's bytes while its output or
    /// in-flight work is saturated.
    fn paused(&self, config: &RemoteServerConfig) -> bool {
        self.out_pending() > config.max_buffered
            || self.in_flight.load(Ordering::Acquire) > config.max_in_flight
    }

    /// Appends a response frame directly (event-loop side).
    fn push_response(&self, response: &WireResponse) {
        if let Ok(frame) = encode_frame(self.codec, response) {
            lock(&self.out).buf.extend_from_slice(&frame);
            self.telemetry.frames_out.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

struct EventLoop {
    shared: Arc<ServerShared>,
    listener: Option<Listener>,
    front: FrontEnd,
    conns: HashMap<u64, Connection>,
    next_token: u64,
}

/// Readiness of one connection in one tick.
struct Ready {
    token: u64,
    readable: bool,
    writable: bool,
}

impl EventLoop {
    fn new(shared: Arc<ServerShared>, listener: Listener) -> EventLoop {
        let front = FrontEnd::new(
            Box::new(Arc::clone(&shared.service)),
            FrontEndConfig {
                workers: shared.config.workers.max(1),
                queue_capacity: shared.config.queue_capacity.max(1),
            },
        );
        EventLoop {
            shared,
            listener: Some(listener),
            front,
            conns: HashMap::new(),
            next_token: 1,
        }
    }

    fn run(mut self) {
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let stopping = self.shared.stopping.load(Ordering::Acquire);
            if stopping {
                // Accepts stop before the first connection is cut.
                self.listener = None;
                let deadline = *drain_deadline
                    .get_or_insert_with(|| Instant::now() + self.shared.config.stall_timeout);
                for conn in self.conns.values_mut() {
                    conn.closing = true;
                    if Instant::now() >= deadline {
                        conn.dead = true;
                    }
                }
                self.reap();
                if self.conns.is_empty() {
                    break;
                }
            } else if self.shared.config.once
                && self.shared.handshaken.load(Ordering::Acquire) > 0
                && self.conns.is_empty()
            {
                self.shared.stopping.store(true, Ordering::Release);
                continue;
            }

            let (accept_ready, ready) = self.wait_ready(stopping);
            let tick_started = Instant::now();
            self.shared.poll_ticks.fetch_add(1, Ordering::Relaxed);
            self.shared.ready_hist.record(ready.len() as u64);

            // Output first: responses finished since the last tick (the
            // dirty list) and sockets whose send buffers freed up.
            for token in self.shared.notifier.drain() {
                self.try_write(token);
            }
            for r in &ready {
                if r.writable {
                    self.try_write(r.token);
                }
            }
            if !stopping {
                for r in &ready {
                    if r.readable {
                        self.read_conn(r.token);
                    }
                }
                if accept_ready {
                    self.accept_all();
                }
            }
            self.check_timers();
            self.reap();
            self.shared
                .tick_hist
                .record_duration(tick_started.elapsed());
        }
        // Drain budget spent (or nothing left): cut whatever remains and
        // join the worker pool.
        for conn in self.conns.values() {
            conn.conn.shutdown();
        }
        self.conns.clear();
        self.front.shutdown();
    }

    /// One readiness wait: poll(2) over the waker, the listener, and every
    /// connection that currently wants bytes in or out.
    #[cfg(unix)]
    fn wait_ready(&mut self, stopping: bool) -> (bool, Vec<Ready>) {
        use poller::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

        let mut fds = vec![PollFd {
            fd: self.shared.notifier.waker.fd(),
            events: POLLIN,
            revents: 0,
        }];
        let accept_idx = match &self.listener {
            Some(listener)
                if !stopping && self.conns.len() < self.shared.config.max_connections =>
            {
                fds.push(PollFd {
                    fd: listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
                Some(fds.len() - 1)
            }
            _ => None,
        };
        let mut tokens = Vec::new();
        for (&token, conn) in &self.conns {
            let mut events = 0i16;
            if !stopping
                && !conn.dead
                && !conn.closing
                && !conn.peer_closed
                && !conn.paused(&self.shared.config)
            {
                events |= POLLIN;
            }
            if conn.out_pending() > 0 {
                events |= POLLOUT;
            }
            if events == 0 {
                continue; // woken by the notifier when work completes
            }
            fds.push(PollFd {
                fd: conn.conn.as_raw_fd(),
                events,
                revents: 0,
            });
            tokens.push(token);
        }
        poller::wait(&mut fds, self.shared.config.poll_interval);
        let accept_ready = accept_idx.is_some_and(|i| fds[i].revents != 0);
        let ready = tokens
            .iter()
            .enumerate()
            .filter_map(|(i, &token)| {
                let revents = fds[i + 2 - usize::from(accept_idx.is_none())].revents;
                (revents != 0).then_some(Ready {
                    token,
                    // HUP/ERR surface through read()/write() results.
                    readable: revents & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: revents & (POLLOUT | POLLHUP | POLLERR) != 0,
                })
            })
            .collect();
        (accept_ready, ready)
    }

    /// Portable fallback: sleep one poll interval and treat everything as
    /// ready — correctness over efficiency where poll(2) is unavailable.
    #[cfg(not(unix))]
    fn wait_ready(&mut self, stopping: bool) -> (bool, Vec<Ready>) {
        std::thread::sleep(self.shared.config.poll_interval);
        let ready = self
            .conns
            .iter()
            .map(|(&token, conn)| Ready {
                token,
                readable: !stopping
                    && !conn.dead
                    && !conn.closing
                    && !conn.peer_closed
                    && !conn.paused(&self.shared.config),
                writable: conn.out_pending() > 0,
            })
            .collect();
        (
            self.listener.is_some()
                && !stopping
                && self.conns.len() < self.shared.config.max_connections,
            ready,
        )
    }

    fn accept_all(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok(conn) => {
                    if self.conns.len() >= self.shared.config.max_connections {
                        conn.shutdown();
                        continue;
                    }
                    self.shared.connections.fetch_add(1, Ordering::Release);
                    self.shared.active.fetch_add(1, Ordering::Release);
                    let token = self.next_token;
                    self.next_token += 1;
                    let connection =
                        Connection::new(conn, token, self.shared.config.handshake_timeout);
                    lock(&self.shared.conn_stats).insert(token, Arc::clone(&connection.telemetry));
                    self.conns.insert(token, connection);
                }
                Err(e) if is_timeout(&e) => return,
                Err(_) => return,
            }
        }
    }

    /// Drains the socket's receive buffer into the frame buffer and
    /// processes every complete frame.
    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if conn.paused(&self.shared.config) {
                break;
            }
            match conn.conn.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend(&chunk[..n]);
                    conn.telemetry
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    conn.last_progress = Instant::now();
                }
                Err(e) if is_timeout(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        self.process_frames(token);
    }

    fn process_frames(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.dead || conn.closing || conn.paused(&self.shared.config) {
                return;
            }
            match conn.inbuf.take_frame(conn.codec) {
                Ok(Some(value)) => {
                    conn.last_progress = Instant::now();
                    conn.telemetry.frames_in.fetch_add(1, Ordering::Relaxed);
                    if conn.handshaken {
                        self.handle_request(token, &value);
                    } else {
                        self.handle_hello(token, &value);
                    }
                }
                Ok(None) => return,
                Err(msg) => {
                    // Best-effort uncorrelated error, then cut.
                    conn.push_response(&WireResponse {
                        id: 0,
                        body: WireBody::Error(WireFault::Transport(msg)),
                    });
                    conn.errored = true;
                    conn.closing = true;
                    return;
                }
            }
        }
    }

    fn handle_hello(&mut self, token: u64, value: &serde::Value) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let hello: Result<ClientHello, _> = decode_message(value);
        let refusal = |conn: &mut Connection, domains: u64| {
            conn.push_response_hello(&ServerHello {
                magic: MAGIC.to_string(),
                version: REMOTE_PROTOCOL_VERSION,
                workload: None,
                domains,
                wire: None,
            });
            conn.refused = true;
            conn.closing = true;
        };
        let domains = self.shared.handshake_domains();
        match hello {
            Ok(hello)
                if hello.magic == MAGIC
                    && (REMOTE_PROTOCOL_MIN_VERSION..=REMOTE_PROTOCOL_VERSION)
                        .contains(&hello.version) =>
            {
                let negotiated = hello.version.min(REMOTE_PROTOCOL_VERSION);
                let granted = if negotiated >= 4 {
                    match self.shared.config.wire {
                        WirePolicy::JsonOnly => WireMode::Json,
                        WirePolicy::Auto => hello
                            .wire
                            .as_deref()
                            .and_then(|w| w.parse().ok())
                            .unwrap_or(WireMode::Json),
                    }
                } else {
                    WireMode::Json
                };
                conn.push_response_hello(&ServerHello {
                    magic: MAGIC.to_string(),
                    version: negotiated,
                    workload: self.shared.service.workload().cloned(),
                    domains,
                    wire: (negotiated >= 4).then(|| granted.name().to_string()),
                });
                // The granted codec takes over from the next frame on.
                conn.codec = granted.codec();
                conn.handshaken = true;
                *lock(&conn.telemetry.client) = hello.client.clone();
                *lock(&conn.telemetry.wire) = granted.name().to_string();
                conn.client = hello.client;
                self.shared.handshaken.fetch_add(1, Ordering::Release);
                match granted {
                    WireMode::Json => &self.shared.json_connections,
                    WireMode::Binary => &self.shared.binary_connections,
                }
                .fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) | Err(_) => refusal(conn, domains),
        }
        self.shared.notifier.wake();
    }

    fn handle_request(&mut self, token: u64, value: &serde::Value) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let decode_started = Instant::now();
        let request: WireRequest = match decode_message(value) {
            Ok(request) => request,
            Err(e) => {
                conn.push_response(&WireResponse {
                    id: 0,
                    body: WireBody::Error(WireFault::Transport(format!("malformed request: {e}"))),
                });
                conn.errored = true;
                conn.closing = true;
                return;
            }
        };
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        conn.in_flight.fetch_add(1, Ordering::Release);

        // Server-side span chain, recorded only when the served stack
        // exposes a flight recorder AND the admission carries a
        // client-minted span — old peers and untraced requests pay
        // nothing. The decode span is a child of the client's request
        // span, pinned to this connection's track; the worker-side
        // dispatch span (recorded in the task below, its duration the
        // queue dwell) is the decode span's child.
        let dispatch_parent = match (&self.shared.trace, &request.op) {
            (Some(trace), WireOp::Admit(admission)) => admission.span.map(|context| {
                let decode = context.child();
                trace.record(
                    TraceEvent::new(TraceKind::FrameDecode)
                        .app(admission.app_index)
                        .duration(decode_started.elapsed())
                        .span(decode)
                        .track(format!("conn{token}")),
                );
                decode
            }),
            _ => None,
        };
        let dispatched = Instant::now();

        let shared = Arc::clone(&self.shared);
        let out = Arc::clone(&conn.out);
        let in_flight = Arc::clone(&conn.in_flight);
        let telemetry = Arc::clone(&conn.telemetry);
        let codec = conn.codec;
        let client = conn.client.clone();
        let id = request.id;
        let op = request.op;
        let submitted = self.front.submit_task(move |_service| {
            // Attribute every decision this connection drives to the
            // client id it announced — entered per task because the
            // scope is thread-local and tasks hop across the pool.
            let _scope = client.map(crate::journal::ClientScope::enter);
            // Enter the dispatch span so every event the layers below
            // record (admit, fleet-admit) parents under it.
            let _span_scope = dispatch_parent.map(|decode| {
                let worker = decode.child();
                if let Some(trace) = &shared.trace {
                    trace.record(
                        TraceEvent::new(TraceKind::Dispatch)
                            .duration(dispatched.elapsed())
                            .span(worker),
                    );
                }
                SpanScope::enter(worker)
            });
            let started = Instant::now();
            let body = shared.dispatch(op);
            shared.frame_latency.record_duration(started.elapsed());
            let response = WireResponse { id, body };
            let frame = encode_frame(codec, &response).unwrap_or_else(|e| {
                encode_frame(
                    codec,
                    &WireResponse {
                        id,
                        body: WireBody::Error(WireFault::Transport(format!(
                            "encode response: {e}"
                        ))),
                    },
                )
                .expect("error response encodes")
            });
            lock(&out).buf.extend_from_slice(&frame);
            telemetry.frames_out.fetch_add(1, Ordering::Relaxed);
            in_flight.fetch_sub(1, Ordering::Release);
            shared.notifier.push(token);
        });
        if let Err(e) = submitted {
            // Queue saturated or stopping: answer typed, immediately —
            // the client's completion resolves either way.
            conn.in_flight.fetch_sub(1, Ordering::Release);
            conn.push_response(&WireResponse {
                id,
                body: WireBody::Error(WireFault::from(&e)),
            });
            self.shared.notifier.wake();
        }
    }

    /// Flushes as much of the connection's output as the socket accepts.
    fn try_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        let mut out = lock(&conn.out);
        while out.pending() > 0 {
            let start = out.start;
            match conn.conn.write(&out.buf[start..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    out.start += n;
                    conn.telemetry
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if is_timeout(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if out.pending() == 0 {
            out.buf.clear();
            out.start = 0;
        } else if out.start > 64 * 1024 {
            let start = out.start;
            out.buf.drain(..start);
            out.start = 0;
        }
    }

    fn check_timers(&mut self) {
        let now = Instant::now();
        let stall = self.shared.config.stall_timeout;
        for conn in self.conns.values_mut() {
            if conn.dead || conn.closing {
                continue;
            }
            // Edge-detect backpressure pauses once per tick: a false→true
            // transition is one pause episode, however long it lasts.
            let paused = conn.paused(&self.shared.config);
            if paused && !conn.was_paused {
                conn.telemetry.pauses.fetch_add(1, Ordering::Relaxed);
            }
            conn.was_paused = paused;
            if !conn.handshaken {
                if now >= conn.handshake_deadline {
                    conn.refused = true;
                    conn.dead = true;
                }
                continue;
            }
            // A partial frame sitting un-grown past the stall budget is a
            // truncation — unless the connection is paused (backpressure,
            // not a peer fault).
            if conn.inbuf.buffered() > 0
                && !conn.paused(&self.shared.config)
                && now.duration_since(conn.last_progress) > stall
            {
                conn.push_response(&WireResponse {
                    id: 0,
                    body: WireBody::Error(WireFault::Transport(
                        "truncated frame: peer stalled mid-frame".to_string(),
                    )),
                });
                conn.errored = true;
                conn.closing = true;
            }
        }
    }

    /// Removes connections that are finished: dead ones immediately,
    /// closing/EOF ones once their in-flight work is answered and their
    /// output is flushed.
    fn reap(&mut self) {
        let finished: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                conn.dead
                    || ((conn.closing || conn.peer_closed)
                        && conn.in_flight.load(Ordering::Acquire) == 0
                        && conn.out_pending() == 0)
            })
            .map(|(&token, _)| token)
            .collect();
        for token in finished {
            let conn = self.conns.remove(&token).expect("token listed");
            lock(&self.shared.conn_stats).remove(&token);
            if conn.refused || !conn.handshaken {
                // EOF before any hello counts as a reject too (probes).
                self.shared
                    .handshake_rejects
                    .fetch_add(1, Ordering::Relaxed);
            } else if conn.errored {
                self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            conn.conn.shutdown();
            self.shared.active.fetch_sub(1, Ordering::Release);
        }
    }
}

impl Connection {
    /// Hello replies are always JSON-framed, whatever was (or will be)
    /// negotiated.
    fn push_response_hello(&self, hello: &ServerHello) {
        if let Ok(frame) = encode_frame(&JsonLinesCodec, hello) {
            lock(&self.out).buf.extend_from_slice(&frame);
        }
    }
}

// ---------------------------------------------------------------------------
// Public handle.
// ---------------------------------------------------------------------------

/// Serves any `Arc<dyn AdmissionService>` over TCP or UDS with a
/// readiness event loop (see the [module docs](super)).
pub struct RemoteServer {
    shared: Arc<ServerShared>,
    local_addr: Endpoint,
    loop_handle: Mutex<Option<JoinHandle<()>>>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl fmt::Debug for RemoteServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteServer")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl RemoteServer {
    /// Binds and starts serving `service` on `addr` with default tuning
    /// and no journal source.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] when the address cannot be bound.
    pub fn bind(
        addr: &Endpoint,
        service: Arc<dyn AdmissionService>,
    ) -> Result<RemoteServer, ServiceError> {
        RemoteServer::bind_with(addr, service, None, RemoteServerConfig::default())
    }

    /// Binds with an explicit [`JournalSource`] and [`RemoteServerConfig`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transport`] when the address cannot be bound.
    pub fn bind_with(
        addr: &Endpoint,
        service: Arc<dyn AdmissionService>,
        journal_source: Option<JournalSource>,
        config: RemoteServerConfig,
    ) -> Result<RemoteServer, ServiceError> {
        let (listener, local_addr) = Listener::bind(addr)
            .map_err(|e| ServiceError::Transport(format!("bind {addr}: {e}")))?;
        #[cfg(unix)]
        let unix_path = match &local_addr {
            Endpoint::Unix(path) => Some(path.clone()),
            Endpoint::Tcp(_) => None,
        };
        let notifier = Notifier {
            dirty: Mutex::new(Vec::new()),
            #[cfg(unix)]
            waker: poller::Waker::new()
                .map_err(|e| ServiceError::Transport(format!("waker pipe: {e}")))?,
        };
        let trace = service.trace_recorder();
        let shared = Arc::new(ServerShared {
            service,
            journal_source,
            config,
            started: Instant::now(),
            frame_latency: HistogramRecorder::new(),
            trace,
            conn_stats: Mutex::new(BTreeMap::new()),
            poll_ticks: AtomicU64::new(0),
            tick_hist: HistogramRecorder::new(),
            ready_hist: HistogramRecorder::new(),
            notifier,
            stopping: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            handshaken: AtomicU64::new(0),
            active: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            handshake_rejects: AtomicU64::new(0),
            json_connections: AtomicU64::new(0),
            binary_connections: AtomicU64::new(0),
        });
        let loop_shared = Arc::clone(&shared);
        let loop_handle = std::thread::spawn(move || EventLoop::new(loop_shared, listener).run());
        Ok(RemoteServer {
            shared,
            local_addr,
            loop_handle: Mutex::new(Some(loop_handle)),
            #[cfg(unix)]
            unix_path,
        })
    }

    /// The actually bound address — for `tcp:HOST:0`, the ephemeral port
    /// is resolved here.
    pub fn local_addr(&self) -> &Endpoint {
        &self.local_addr
    }

    /// The served stack.
    pub fn service(&self) -> &dyn AdmissionService {
        &*self.shared.service
    }

    /// Current server counters.
    pub fn stats(&self) -> RemoteServerStats {
        RemoteServerStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            active: self.shared.active.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            handshake_rejects: self.shared.handshake_rejects.load(Ordering::Relaxed),
            json_connections: self.shared.json_connections.load(Ordering::Relaxed),
            binary_connections: self.shared.binary_connections.load(Ordering::Relaxed),
        }
    }

    /// `true` once shutdown has begun (accepts stopped or stopping).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }

    /// Blocks until the server has fully stopped: the event loop has
    /// exited and every connection has drained. With
    /// [`once`](RemoteServerConfig::once) set, that is right after the
    /// first connection closes; otherwise it requires
    /// [`shutdown`](Self::shutdown) from another thread.
    pub fn wait(&self) {
        if let Some(handle) = lock(&self.loop_handle).take() {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown, ordered against accepts: stops accepting new
    /// connections first, then drains every live connection (in-flight
    /// frames are decided and answered) and joins the loop and its worker
    /// pool. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.notifier.wake();
        self.wait();
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for RemoteServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
