//! Remote admission transport: process-spanning fleets over the service
//! trait.
//!
//! PR 3 gave every online surface one vocabulary ([`AdmissionRequest`] /
//! [`AdmissionDecision`]) behind the object-safe
//! [`AdmissionService`](crate::AdmissionService) trait. This module is the
//! wire `impl`: a **protocol whose client and server are both just
//! `AdmissionService`**, so a fleet can span processes —
//!
//! * [`RemoteServer`] accepts connections over TCP or Unix domain sockets
//!   and drives any `Arc<dyn AdmissionService>`, so a stack like
//!   `Journaled<Cached<FleetManager>>` serves over the wire unchanged;
//! * [`RemoteClient`] *implements* the trait, so the
//!   [`FrontEnd`](crate::FrontEnd), [`run_stack`](crate::run_stack) and
//!   every existing bench/driver work against a remote fleet with zero
//!   changes.
//!
//! # Wire format (protocol v4)
//!
//! Frames are laid out by a negotiated [`WireCodec`]: either compact
//! length-prefixed **binary** frames ([`BinaryCodec`], the default between
//! v4 peers) or length-prefixed **JSON lines** ([`JsonLinesCodec`], the
//! debug/interop mode and everything a v3 peer speaks). See [`codec`] for
//! both layouts.
//!
//! A connection opens with a version handshake ([`ClientHello`] →
//! [`ServerHello`]), **always JSON-framed** so negotiation works before
//! any agreement exists. The client names the newest protocol version it
//! speaks and its preferred [`WireMode`]; the server answers with the
//! highest version both sides share (down to
//! [`REMOTE_PROTOCOL_MIN_VERSION`]) and the granted mode, and the
//! negotiated codec takes over from the next frame on. A v3 peer on
//! either side — an old client dialing a new server, or a new client
//! dialing an old server — converses in JSON transparently, with zero
//! protocol errors. The server hello also carries the served stack's
//! workload spec, so drivers can phrase spec-relative requests without
//! out-of-band configuration.
//!
//! After the handshake, requests carry a client-assigned correlation id
//! and may be **pipelined**: many admissions can be in flight on one
//! connection, and responses are matched back to their
//! [`Completion`](crate::Completion)s by id — responses may arrive in any
//! order.
//!
//! # One server, thousands of connections
//!
//! The server is a **non-blocking readiness loop**, not a thread per
//! connection: one event-loop thread polls every registered socket, reads
//! into per-connection frame buffers, and defers each decoded request to
//! a [`FrontEnd`](crate::FrontEnd) worker pool; workers append the
//! encoded response to the connection's output buffer and wake the loop,
//! which keeps write interest registered until the buffer drains. A
//! connection whose peer stops reading (or floods requests faster than
//! they are decided) is paused — bounded buffers, not unbounded queues,
//! are the backpressure — so thousands of in-flight connections cost one
//! loop thread plus the worker pool, at flat memory.
//!
//! Failures are typed, never panics: disconnects, malformed frames,
//! version mismatches and mid-flight shutdowns all surface as
//! [`ServiceError::Transport`] (every outstanding completion resolves).
//!
//! # Shutdown ordering
//!
//! [`RemoteServer::shutdown`] first stops accepting new connections, then
//! lets every live connection drain: frames already dispatched are
//! decided and answered before the connection closes. Accepts always stop
//! before the first connection is cut.
//!
//! # Example
//!
//! ```
//! use platform::{Application, Mapping, SystemSpec};
//! use runtime::{
//!     AdmissionRequest, AdmissionService, Endpoint, FleetConfig, FleetManager, RemoteClient,
//!     RemoteServer,
//! };
//! use sdf::figure2_graphs;
//! use std::sync::Arc;
//!
//! let (a, b) = figure2_graphs();
//! let spec = SystemSpec::builder()
//!     .application(Application::new("A", a)?)
//!     .application(Application::new("B", b)?)
//!     .mapping(Mapping::by_actor_index(3))
//!     .build()?;
//! let fleet = FleetManager::new(spec, FleetConfig::default())?;
//!
//! // Serve the fleet over a loopback TCP socket (port 0 = ephemeral).
//! let addr: Endpoint = "tcp:127.0.0.1:0".parse()?;
//! let server = RemoteServer::bind(&addr, Arc::new(fleet))?;
//! let client = RemoteClient::connect(server.local_addr())?;
//!
//! // The client is just another AdmissionService (binary frames by
//! // default; both ends negotiated that in the handshake).
//! let decision = client.admit(&AdmissionRequest::new(0))?;
//! client.release(decision.resident().expect("admitted"))?;
//! client.close();
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codec;

mod client;
mod endpoint;
mod server;

pub use client::{ClientConfig, RemoteClient, RemoteClientStats};
pub use codec::{BinaryCodec, JsonLinesCodec, WireCodec, WireMode, MAX_FRAME};
pub use endpoint::Endpoint;
pub use server::{JournalSource, RemoteServer, RemoteServerConfig, RemoteServerStats, WirePolicy};

use crate::journal::JournalPage;
use crate::service::{AdmissionDecision, AdmissionRequest, ServiceError, ServiceSnapshot};
use crate::telemetry::{TelemetrySnapshot, TraceEvent};
use contention::{Estimate, Method};
use platform::SystemSpec;
use serde::{Deserialize, Serialize};

/// Newest remote-protocol version this build speaks. Version 2 added the
/// `Telemetry` and `Trace` operations; version 3 the paged `JournalPage`
/// operation; version 4 negotiated wire codecs (compact binary frames)
/// and the readiness-loop server. Peers agree on the highest version both
/// sides share, down to [`REMOTE_PROTOCOL_MIN_VERSION`].
pub const REMOTE_PROTOCOL_VERSION: u64 = 4;

/// Oldest protocol version this build still interoperates with: v3 peers
/// (JSON-lines only, no `wire` hello fields) are served — and dialed —
/// transparently.
pub const REMOTE_PROTOCOL_MIN_VERSION: u64 = 3;

/// Handshake magic identifying this protocol on the wire.
pub(crate) const MAGIC: &str = "probcon-remote";

// ---------------------------------------------------------------------------
// Wire messages.
// ---------------------------------------------------------------------------

/// First frame on a connection, client → server — always JSON-framed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientHello {
    /// Protocol magic (`"probcon-remote"`).
    pub magic: String,
    /// Newest protocol version the client speaks.
    pub version: u64,
    /// Optional client identity
    /// ([`RemoteClient::connect_as`] / `fleet-bench --client`): the server
    /// enters a [`ClientScope`](crate::ClientScope) for the connection, so
    /// every journaled decision this connection drives carries the id —
    /// the provenance `probcon journal split` separates recordings by.
    /// Absent from hellos sent by older builds, which still parse
    /// (optional fields deserialize as `None` when missing).
    pub client: Option<String>,
    /// Requested [`WireMode`] (`"json"` / `"binary"`), protocol ≥ 4.
    /// Omitted by v3 peers — those connections are always JSON-lines.
    #[serde(skip_none)]
    pub wire: Option<String>,
}

/// Handshake reply, server → client — always JSON-framed. On a version
/// mismatch the server still answers (naming its own version, omitting
/// the workload) and then closes, so the client can produce a precise
/// typed error — or reconnect at the advertised version if it speaks it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerHello {
    /// Protocol magic (`"probcon-remote"`).
    pub magic: String,
    /// Negotiated protocol version: the highest both peers speak (a v3
    /// client is answered with 3), or the server's own version on refusal.
    pub version: u64,
    /// The served stack's workload spec, so clients can phrase
    /// spec-relative requests (and drivers can seed request streams)
    /// without out-of-band configuration. `None` on refusal.
    pub workload: Option<SystemSpec>,
    /// Admission domains of the served stack (fleet groups / manager
    /// shards), for drivers that spread requests across domains.
    pub domains: u64,
    /// Granted [`WireMode`] taking effect after this frame, protocol ≥ 4.
    /// Omitted when the negotiated version predates codecs (always JSON).
    #[serde(skip_none)]
    pub wire: Option<String>,
}

/// One request frame: a client-assigned correlation id plus the operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Correlation id echoed by the matching [`WireResponse`].
    pub id: u64,
    /// The requested operation.
    pub op: WireOp,
}

/// Operations a [`RemoteClient`] can request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireOp {
    /// Decide one admission.
    Admit(AdmissionRequest),
    /// Release a resident by id.
    Release(u64),
    /// Snapshot the served stack (with per-layer metrics).
    Snapshot,
    /// Estimate all periods of the use-case with the given mask.
    Estimate {
        /// Active-application mask
        /// ([`UseCase::mask`](platform::UseCase::mask)).
        mask: u64,
        /// Estimation method.
        method: Method,
    },
    /// Fetch one bounded page of the server-side decision journal,
    /// starting at the given entry sequence number (page 0 carries the
    /// header/checkpoint prologue). The response's
    /// [`next_seq`](crate::JournalPage::next_seq) chains to the next page.
    JournalPage {
        /// First entry sequence number of the requested page.
        from_seq: u64,
    },
    /// Collect the served stack's live telemetry (per-layer histograms,
    /// trace counters, server frame latency).
    Telemetry,
    /// Fetch the newest trace events from the served stack's flight
    /// recorder, oldest first.
    Trace {
        /// Maximum number of events to return.
        tail: u64,
    },
}

/// One response frame, correlated to its request by `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// Correlation id of the answered [`WireRequest`] (0 for protocol-level
    /// errors that could not be correlated, e.g. malformed frames).
    pub id: u64,
    /// The outcome.
    pub body: WireBody,
}

/// Response payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireBody {
    /// The admission was decided (admitted, rejected or saturated — all
    /// three are decisions, not errors).
    Decision(AdmissionDecision),
    /// The release succeeded.
    Released,
    /// The served stack's snapshot.
    Snapshot(ServiceSnapshot),
    /// The computed estimate.
    Estimate(Estimate),
    /// One bounded page of the server-side journal
    /// ([`Journal::render_page`](crate::Journal::render_page)).
    JournalPage(JournalPage),
    /// The served stack's live telemetry. Boxed: the snapshot (layer
    /// histograms, tenants, connections, event loop) dwarfs every other
    /// variant, and bodies are built once per frame anyway.
    Telemetry(Box<TelemetrySnapshot>),
    /// Trace events from the served stack's flight recorder.
    Trace(Vec<TraceEvent>),
    /// The operation failed.
    Error(WireFault),
}

/// A [`ServiceError`] flattened for the wire (the analysis error's
/// structure does not cross; its rendering does).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireFault {
    /// See [`ServiceError::NoWorkload`].
    NoWorkload,
    /// See [`ServiceError::UnknownResident`].
    UnknownResident(u64),
    /// See [`ServiceError::UnknownDomain`].
    UnknownDomain(u64),
    /// See [`ServiceError::Stopped`].
    Stopped,
    /// See [`ServiceError::QueueFull`].
    QueueFull,
    /// See [`ServiceError::Config`].
    Config(String),
    /// The far end's analysis failed; carries the rendered
    /// [`ServiceError::Analysis`] message.
    Analysis(String),
    /// A transport-layer failure (malformed frame, unsupported request).
    Transport(String),
}

impl From<&ServiceError> for WireFault {
    fn from(e: &ServiceError) -> WireFault {
        match e {
            ServiceError::NoWorkload => WireFault::NoWorkload,
            ServiceError::UnknownResident(r) => WireFault::UnknownResident(*r),
            ServiceError::UnknownDomain(d) => WireFault::UnknownDomain(*d as u64),
            ServiceError::Stopped => WireFault::Stopped,
            ServiceError::QueueFull => WireFault::QueueFull,
            ServiceError::Config(msg) => WireFault::Config(msg.clone()),
            ServiceError::Analysis(e) => WireFault::Analysis(e.to_string()),
            ServiceError::Transport(msg) => WireFault::Transport(msg.clone()),
        }
    }
}

impl WireFault {
    fn into_service_error(self) -> ServiceError {
        match self {
            WireFault::NoWorkload => ServiceError::NoWorkload,
            WireFault::UnknownResident(r) => ServiceError::UnknownResident(r),
            WireFault::UnknownDomain(d) => ServiceError::UnknownDomain(d as usize),
            WireFault::Stopped => ServiceError::Stopped,
            WireFault::QueueFull => ServiceError::QueueFull,
            WireFault::Config(msg) => ServiceError::Config(msg),
            WireFault::Analysis(msg) => {
                ServiceError::Config(format!("remote analysis failure: {msg}"))
            }
            WireFault::Transport(msg) => ServiceError::Transport(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::codec::{decode_message, write_frame, FrameEvent, FrameReader, JsonLinesCodec};
    use super::*;
    use crate::fleet::{FleetConfig, FleetManager, RoutingPolicy};
    use crate::service::{AdmissionService, Cached, Completion, Journaled};
    use platform::{Application, Mapping, UseCase};
    use sdf::figure2_graphs;
    use std::io::Read;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn spec() -> SystemSpec {
        let (a, b) = figure2_graphs();
        SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .application(Application::new("B", b).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap()
    }

    fn fleet(groups: usize, capacity: usize) -> FleetManager {
        FleetManager::new(
            spec(),
            FleetConfig::uniform(groups, 1, capacity, RoutingPolicy::LeastUtilised),
        )
        .unwrap()
    }

    static NEXT_SOCKET: AtomicUsize = AtomicUsize::new(0);

    #[cfg(unix)]
    fn uds_addr(tag: &str) -> Endpoint {
        let dir = std::env::temp_dir().join("probcon-remote-unit");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
        Endpoint::Unix(dir.join(format!("{tag}-{}-{n}.sock", std::process::id())))
    }

    #[test]
    fn frames_roundtrip_and_survive_chunked_reads() {
        struct OneByte<R: Read>(R);
        impl<R: Read> Read for OneByte<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let mut wire = Vec::new();
        let hello = ClientHello {
            magic: MAGIC.to_string(),
            version: 4,
            client: Some("alpha".to_string()),
            wire: Some("binary".to_string()),
        };
        write_frame(&mut wire, &JsonLinesCodec, &hello).unwrap();
        write_frame(&mut wire, &JsonLinesCodec, &hello).unwrap();
        let mut reader = FrameReader::new(OneByte(&wire[..]), &JsonLinesCodec, 4);
        for _ in 0..2 {
            let FrameEvent::Frame(value) = reader.read_frame().unwrap() else {
                panic!("expected frame");
            };
            let back: ClientHello = decode_message(&value).unwrap();
            assert_eq!(back, hello);
        }
        assert!(matches!(reader.read_frame().unwrap(), FrameEvent::Closed));
    }

    #[test]
    fn frame_reader_rejects_garbage_and_truncation() {
        // Bad prefix.
        let mut reader = FrameReader::new(&b"xx {}\n"[..], &JsonLinesCodec, 4);
        assert!(reader.read_frame().is_err());
        // Length lies beyond the payload and the stream ends: truncated.
        let mut reader = FrameReader::new(&b"10 {}\n"[..], &JsonLinesCodec, 4);
        assert!(reader.read_frame().unwrap_err().contains("truncated"));
        // Missing newline terminator.
        let mut reader = FrameReader::new(&b"2 {}x"[..], &JsonLinesCodec, 4);
        assert!(reader.read_frame().is_err());
        // Oversized declared length.
        let mut reader = FrameReader::new(&b"99999999 x"[..], &JsonLinesCodec, 4);
        assert!(reader.read_frame().is_err());
    }

    #[test]
    fn wire_messages_roundtrip_through_json() {
        let request = WireRequest {
            id: 42,
            op: WireOp::Admit(AdmissionRequest::new(1).with_affinity("uc0").on(2)),
        };
        let json = serde_json::to_string(&request).unwrap();
        assert_eq!(serde_json::from_str::<WireRequest>(&json).unwrap(), request);

        let response = WireResponse {
            id: 42,
            body: WireBody::Error(WireFault::UnknownResident(7)),
        };
        let json = serde_json::to_string(&response).unwrap();
        let back: WireResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, response);
        let WireBody::Error(fault) = back.body else {
            panic!("error body");
        };
        assert_eq!(fault.into_service_error(), ServiceError::UnknownResident(7));
    }

    #[test]
    fn hellos_without_wire_fields_still_parse() {
        // The exact frame a v3 peer sends: no `wire` key at all.
        let hello: ClientHello =
            serde_json::from_str(r#"{"magic":"probcon-remote","version":3,"client":null}"#)
                .unwrap();
        assert_eq!(hello.version, 3);
        assert_eq!(hello.wire, None);
        // ... and a v4 hello omits the key when the mode is unset, so v3
        // peers never even see it.
        let v4 = ClientHello {
            magic: MAGIC.to_string(),
            version: 4,
            client: None,
            wire: None,
        };
        assert!(!serde_json::to_string(&v4).unwrap().contains("wire"));
    }

    #[test]
    fn tcp_roundtrip_admit_release_estimate_snapshot() {
        let server = RemoteServer::bind(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(Cached::new(fleet(2, 2), 16)),
        )
        .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();

        // The handshake delivered the workload spec, domain count, and the
        // negotiated wire mode (binary is the v4 default).
        assert_eq!(client.workload().unwrap().application_count(), 2);
        assert_eq!(client.domains(), 2);
        assert_eq!(client.wire_mode(), WireMode::Binary);

        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        assert!(decision.is_admitted());
        let estimate = client
            .estimate(UseCase::full(2), Method::SECOND_ORDER)
            .unwrap();
        assert!(!estimate.periods().is_empty());
        let snapshot = AdmissionService::snapshot(&client);
        assert_eq!(snapshot.admitted, 1);
        assert_eq!(snapshot.counter("fleet", "groups"), Some(2));
        assert_eq!(snapshot.counter("remote", "transport_errors"), Some(0));
        client.release(decision.resident().unwrap()).unwrap();
        assert_eq!(
            client.release(decision.resident().unwrap()).unwrap_err(),
            ServiceError::UnknownResident(decision.resident().unwrap())
        );

        client.close();
        server.shutdown();
        assert_eq!(server.stats().active, 0);
        assert_eq!(server.stats().protocol_errors, 0);
    }

    #[cfg(unix)]
    #[test]
    fn uds_roundtrip_and_journal_fetch() {
        let addr = uds_addr("roundtrip");
        let stack = Arc::new(Journaled::new(Cached::new(fleet(1, 2), 8)));
        let served = Arc::clone(&stack);
        let journal_stack = Arc::clone(&stack);
        let server = RemoteServer::bind_with(
            &addr,
            stack,
            // Page size 1 forces the client's fetch loop through one
            // page per entry — the paged and one-shot renders must agree.
            Some(Box::new(move |from| {
                journal_stack.journal().render_page(from, 1).ok()
            })),
            RemoteServerConfig::default(),
        )
        .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        client.release(decision.resident().unwrap()).unwrap();

        // The journal fetched over the wire verifies and matches.
        let journal = client.fetch_journal().unwrap();
        assert_eq!(journal.len(), 2);
        journal.verify().unwrap();

        // Chained one-entry pages rebuild the server's journal byte for
        // byte.
        assert_eq!(journal.render(), served.journal().render());

        client.close();
        server.shutdown();
        // The socket file is removed on shutdown.
        let Endpoint::Unix(path) = &addr else {
            panic!("uds addr");
        };
        assert!(!path.exists());
    }

    #[test]
    fn telemetry_and_trace_roundtrip_over_tcp() {
        use crate::telemetry::{TraceKind, Traced};

        let stack = Traced::new(Cached::new(fleet(2, 4), 16), 256);
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(stack)).unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();

        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        client.release(decision.resident().unwrap()).unwrap();

        // Telemetry crosses the wire: per-layer histograms from the served
        // stack, the server's own frame latency, and this client's layer.
        let telemetry = client.remote_telemetry().unwrap();
        let admit = telemetry.histogram("traced", "admit").unwrap();
        assert_eq!(admit.count(), 1);
        let frame = telemetry.histogram("remote-server", "frame").unwrap();
        assert!(frame.count() >= 2, "admit + release frames timed");
        assert!(telemetry.trace.recorded >= 2, "admit + release traced");
        let trait_view = AdmissionService::telemetry(&client);
        assert!(trait_view
            .service
            .layers
            .iter()
            .any(|layer| layer.layer == "remote"));
        assert!(trait_view.histogram("remote-server", "frame").is_some());

        // Live transport visibility rides along: per-connection counters
        // and the event loop's own health.
        let connections = telemetry.connections.as_ref().expect("connection stats");
        assert!(connections.iter().any(|c| c.frames_in > 0));
        let event_loop = telemetry.event_loop.as_ref().expect("event loop stats");
        assert!(event_loop.poll_ticks > 0);

        // The flight recorder's tail crosses too, oldest first — and the
        // admission produced a parent-linked server-side span chain under
        // the client-minted trace id: frame decode → dispatch → admit.
        let events = client.remote_trace(16).unwrap();
        assert!(events.len() >= 3);
        let decode = events
            .iter()
            .find(|e| e.kind == TraceKind::FrameDecode)
            .expect("frame decode traced");
        let dispatch = events
            .iter()
            .find(|e| e.kind == TraceKind::Dispatch)
            .expect("dispatch traced");
        let admit = events
            .iter()
            .find(|e| e.kind == TraceKind::Admit)
            .expect("admit traced");
        assert!(decode.trace_id.is_some());
        assert_eq!(decode.trace_id, dispatch.trace_id);
        assert_eq!(decode.trace_id, admit.trace_id);
        assert_eq!(dispatch.parent_span_id, decode.span_id);
        assert_eq!(admit.parent_span_id, dispatch.span_id);
        assert!(
            decode.parent_span_id.is_some(),
            "decode links up to the client-side root span"
        );
        assert_eq!(decode.track.as_deref(), Some("conn1"));
        assert!(events.iter().any(|e| e.kind == TraceKind::Release));
        assert_eq!(AdmissionService::trace_tail(&client, 1).len(), 1);

        // The rendered exposition includes the remote layers.
        let text = telemetry.render_prometheus();
        assert!(text.contains("probcon_op_latency_microseconds"));

        client.close();
        server.shutdown();
    }

    #[test]
    fn pipelined_submissions_correlate_by_id() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(2, 16)))
                .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();

        // Queue a burst without waiting: all in flight on one connection.
        let completions: Vec<Completion> = (0..12)
            .map(|i| AdmissionService::submit(&client, AdmissionRequest::new(i)))
            .collect();
        let mut residents = Vec::new();
        for completion in &completions {
            residents.extend(completion.wait().unwrap().resident());
        }
        assert_eq!(residents.len(), 12);
        // Releases interleave with a snapshot request on the same pipe.
        let releases: Vec<Completion<()>> = residents
            .iter()
            .map(|&r| client.submit_release(r))
            .collect();
        let snapshot = client.remote_snapshot().unwrap();
        assert_eq!(snapshot.admitted, 12);
        for release in releases {
            release.wait().unwrap();
        }
        client.close();
        server.shutdown();
    }

    #[test]
    fn connect_as_stamps_client_provenance_into_served_journal() {
        let fleet = fleet(1, 4);
        let server = RemoteServer::bind(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(fleet.clone()) as Arc<dyn AdmissionService>,
        )
        .unwrap();

        // Two identified clients and one anonymous one, sequentially.
        for (client, app) in [(Some("alpha"), 0usize), (Some("beta"), 1), (None, 0)] {
            let remote = match client {
                Some(name) => RemoteClient::connect_as(server.local_addr(), name).unwrap(),
                None => RemoteClient::connect(server.local_addr()).unwrap(),
            };
            let decision = remote.admit(&AdmissionRequest::new(app)).unwrap();
            remote.release(decision.resident().expect("fits")).unwrap();
            remote.close();
        }
        server.shutdown();

        // Every decision a connection drove carries its hello's client id
        // — including the releases — and anonymous traffic stays None.
        let clients: Vec<Option<String>> = fleet
            .journal()
            .entries()
            .iter()
            .map(|e| e.client.clone())
            .collect();
        assert_eq!(
            clients,
            [
                Some("alpha".to_string()),
                Some("alpha".to_string()),
                Some("beta".to_string()),
                Some("beta".to_string()),
                None,
                None
            ]
        );
        fleet.journal().verify().expect("stamped journal verifies");
        // The journal splits into one valid journal per client.
        assert_eq!(
            fleet
                .journal()
                .split_by_client()
                .expect("no checkpoint")
                .len(),
            3
        );
    }

    #[test]
    fn server_refuses_future_versions_with_its_own_version() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(1, 1))).unwrap();
        let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
            panic!("tcp addr");
        };
        // A raw client speaking a future protocol version.
        let mut conn = TcpStream::connect(hostport.as_str()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(
            &mut conn,
            &JsonLinesCodec,
            &ClientHello {
                magic: MAGIC.to_string(),
                version: REMOTE_PROTOCOL_VERSION + 1,
                client: None,
                wire: None,
            },
        )
        .unwrap();
        let mut reader = FrameReader::new(conn.try_clone().unwrap(), &JsonLinesCodec, 100);
        let FrameEvent::Frame(value) = reader.read_frame().unwrap() else {
            panic!("server answers the hello");
        };
        let hello: ServerHello = decode_message(&value).unwrap();
        assert_eq!(hello.version, REMOTE_PROTOCOL_VERSION);
        assert!(hello.workload.is_none(), "no spec for refused clients");
        // ... and then closes the connection.
        assert!(matches!(
            reader.read_frame(),
            Ok(FrameEvent::Closed) | Err(_)
        ));
        loop {
            // The reject is counted when the loop reaps the connection,
            // which races this assertion by one poll tick.
            if server.stats().handshake_rejects == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn v3_json_client_interops_with_v4_server_without_protocol_errors() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(1, 2))).unwrap();
        let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
            panic!("tcp addr");
        };
        // A raw v3 peer: version 3, no `wire` field, JSON frames only.
        let mut conn = TcpStream::connect(hostport.as_str()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(
            &mut conn,
            &JsonLinesCodec,
            &ClientHello {
                magic: MAGIC.to_string(),
                version: 3,
                client: None,
                wire: None,
            },
        )
        .unwrap();
        let mut reader = FrameReader::new(conn.try_clone().unwrap(), &JsonLinesCodec, 100);
        let FrameEvent::Frame(value) = reader.read_frame().unwrap() else {
            panic!("server answers the hello");
        };
        let hello: ServerHello = decode_message(&value).unwrap();
        assert_eq!(hello.version, 3, "negotiated down to the v3 peer");
        assert!(
            hello.workload.is_some(),
            "v3 clients are served, not refused"
        );
        assert_eq!(hello.wire, None, "no codec talk with a v3 peer");

        // The whole request/response conversation stays JSON-lines.
        write_frame(
            &mut conn,
            &JsonLinesCodec,
            &WireRequest {
                id: 1,
                op: WireOp::Admit(AdmissionRequest::new(0)),
            },
        )
        .unwrap();
        let FrameEvent::Frame(value) = reader.read_frame().unwrap() else {
            panic!("server answers the admit");
        };
        let response: WireResponse = decode_message(&value).unwrap();
        assert_eq!(response.id, 1);
        let WireBody::Decision(decision) = response.body else {
            panic!("decision body, got {:?}", response.body);
        };
        assert!(decision.is_admitted());
        drop(conn);
        drop(reader);
        server.shutdown();
        assert_eq!(server.stats().protocol_errors, 0);
        assert_eq!(server.stats().handshake_rejects, 0);
        assert_eq!(server.stats().requests, 1);
    }

    #[test]
    fn mixed_wire_modes_share_one_server() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(2, 8))).unwrap();
        let binary = RemoteClient::connect(server.local_addr()).unwrap();
        let json = RemoteClient::connect_config(
            server.local_addr(),
            ClientConfig {
                wire: WireMode::Json,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(binary.wire_mode(), WireMode::Binary);
        assert_eq!(json.wire_mode(), WireMode::Json);

        // Interleave admissions from both codecs on the same server.
        let b = binary.admit(&AdmissionRequest::new(0)).unwrap();
        let j = json.admit(&AdmissionRequest::new(1)).unwrap();
        binary.release(b.resident().unwrap()).unwrap();
        json.release(j.resident().unwrap()).unwrap();

        binary.close();
        json.close();
        server.shutdown();
        assert_eq!(server.stats().protocol_errors, 0);
        assert_eq!(server.stats().requests, 4);
    }

    #[test]
    fn json_only_policy_downgrades_binary_clients() {
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(fleet(1, 2)),
            None,
            RemoteServerConfig {
                wire: WirePolicy::JsonOnly,
                ..RemoteServerConfig::default()
            },
        )
        .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        assert_eq!(
            client.wire_mode(),
            WireMode::Json,
            "policy overrode the request"
        );
        assert!(client
            .admit(&AdmissionRequest::new(0))
            .unwrap()
            .is_admitted());
        client.close();
        server.shutdown();
        assert_eq!(server.stats().protocol_errors, 0);
    }

    #[test]
    fn graceful_shutdown_stops_accepts_then_drains_in_flight() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(2, 8))).unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        let burst: Vec<Completion> = (0..8)
            .map(|i| AdmissionService::submit(&client, AdmissionRequest::new(i)))
            .collect();
        let addr = server.local_addr().clone();
        server.shutdown();
        assert!(server.is_stopping());
        // Accepts stopped: a fresh connect cannot handshake any more.
        assert!(RemoteClient::connect_with(&addr, Duration::from_millis(300), None).is_err());
        // ... but every in-flight submission resolved (decision or typed
        // transport error — drain answers what it read before closing).
        for completion in burst {
            match completion.wait() {
                Ok(decision) => assert!(decision.domain() < 2),
                Err(ServiceError::Transport(_)) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        client.close();
    }

    #[test]
    fn once_mode_ignores_probe_connections_without_handshake() {
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(fleet(1, 2)),
            None,
            RemoteServerConfig {
                once: true,
                handshake_timeout: Duration::from_millis(200),
                ..RemoteServerConfig::default()
            },
        )
        .unwrap();
        let Endpoint::Tcp(hostport) = server.local_addr().clone() else {
            panic!("tcp addr");
        };
        // A liveness probe: connect and drop without ever handshaking.
        // It must not arm once-mode and shut the server down before the
        // real client arrives.
        drop(TcpStream::connect(hostport.as_str()).unwrap());
        std::thread::sleep(Duration::from_millis(400)); // probe conn reaped
        assert!(!server.is_stopping(), "probe must not stop a once server");

        let client = RemoteClient::connect(server.local_addr()).unwrap();
        assert!(client
            .admit(&AdmissionRequest::new(0))
            .unwrap()
            .is_admitted());
        client.close();
        server.wait();
        assert!(server.is_stopping());
    }

    #[test]
    fn once_mode_stops_after_first_connection_closes() {
        let server = RemoteServer::bind_with(
            &"tcp:127.0.0.1:0".parse().unwrap(),
            Arc::new(fleet(1, 2)),
            None,
            RemoteServerConfig {
                once: true,
                ..RemoteServerConfig::default()
            },
        )
        .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        let decision = client.admit(&AdmissionRequest::new(0)).unwrap();
        assert!(decision.is_admitted());
        client.close();
        // The server notices the disconnect and stops by itself.
        server.wait();
        assert!(server.is_stopping());
    }

    #[test]
    fn broken_client_fails_fast_with_typed_errors() {
        let server =
            RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), Arc::new(fleet(1, 2))).unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        client.close();
        assert!(client.broken().is_some());
        assert!(matches!(
            client.admit(&AdmissionRequest::new(0)).unwrap_err(),
            ServiceError::Transport(_)
        ));
        // The infallible snapshot degrades to the zeroed form, flagged.
        let snapshot = AdmissionService::snapshot(&client);
        assert_eq!(snapshot.capacity, 0);
        assert_eq!(snapshot.counter("remote", "broken"), Some(1));
        server.shutdown();
    }
}
