//! The `wire-cheap` stream: the same stack behind an in-process
//! `RemoteServer` on a Unix socket, driven by one `RemoteClient` over the
//! binary codec. Traced `admit-local` runs end with a session of these
//! passes, which measures the wire layers and runs the wire checks.

use crate::admit_local::{check_replay, fleet_config, spec, stack, warm_up};
use crate::drive::drive;
use crate::spans::{SpanLog, Timed};
use crate::stream;
use crate::{check, fingerprint, Pass};
use contention::{Estimate, Method};
use platform::UseCase;
use runtime::{
    AdmissionRequest, AdmissionService, Endpoint, FleetManager, RemoteClient, RemoteServer,
    RemoteServerConfig, WireMode,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Requests per pass.
pub const PASS_REQUESTS: usize = 4000;
/// Residents admitted during set-up and held through the pass: admits and
/// releases alternate, so the count stays at this value or one above.
pub const RESIDENTS: usize = 8;

/// Where pass sockets live, relative to the directory the benchmark runs
/// from.
pub fn socket_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// One pass on fresh state: the spec and stream of `seed`, a new fleet,
/// stack, server, connection and handshake, warm-up, the timed closed
/// loop, then the checks. With `replay`, the journal fetched over the wire
/// must also replay. `index` names the pass's socket.
pub fn pass(
    seed: u64,
    log: Option<&Arc<SpanLog>>,
    replay: bool,
    index: usize,
) -> Result<Pass, String> {
    let stream_spec = spec();
    let masks = stream::wire_masks(&stream_spec, seed);
    let ops = stream::wire_cheap(&stream_spec, &masks, PASS_REQUESTS, seed);
    // In-process contention::estimate for every mask, to check the wire.
    let reference: BTreeMap<u64, Estimate> = masks
        .iter()
        .map(|&m| {
            contention::estimate(&stream_spec, UseCase::from_mask(m), Method::Composability)
                .map(|e| (m, e))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    std::fs::create_dir_all(socket_dir()).map_err(|e| format!("socket dir: {e}"))?;
    let path = socket_dir().join(format!("w{}-{index}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let setup = Instant::now();
    let spec = spec();
    let fleet = FleetManager::new(spec.clone(), fleet_config()).map_err(|e| e.to_string())?;
    let (served, cached) = stack(&fleet, log, Some("client"));
    let journal_fleet = fleet.clone();
    let server = RemoteServer::bind_with(
        &Endpoint::Unix(path),
        served,
        Some(Box::new(move |from| {
            journal_fleet.journal().render_page(from, 4096).ok()
        })),
        RemoteServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let client = Arc::new(RemoteClient::connect(server.local_addr()).map_err(|e| e.to_string())?);
    let caller: Arc<dyn AdmissionService> = match log {
        Some(log) => Arc::new(Timed::new("client", None, log, Arc::clone(&client))),
        None => Arc::clone(&client) as Arc<dyn AdmissionService>,
    };
    let mut held = VecDeque::new();
    for app in 0..RESIDENTS {
        let decision = client
            .admit(&AdmissionRequest::new(app))
            .map_err(|e| format!("set-up admit: {e}"))?;
        held.extend(decision.resident());
    }
    warm_up(&*client, &spec, &masks)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let (hits, misses) = (cached.cache().hits(), cached.cache().misses());
    let stats = drive(&*caller, None, &ops, &mut held, log.map(|l| &**l));
    let hits = cached.cache().hits() - hits;
    let misses = cached.cache().misses() - misses;

    let mut failures = Vec::new();
    check(
        &mut failures,
        client.wire_mode() == WireMode::Binary,
        || format!("negotiated the {} codec, not binary", client.wire_mode()),
    );
    check(&mut failures, fleet.resident_count() == 0, || {
        format!(
            "fleet holds {} residents after the drain",
            fleet.resident_count()
        )
    });
    check(&mut failures, misses == 0, || {
        format!("{misses} estimate cache misses after a full warm-up")
    });
    let wrong = stats
        .estimates
        .iter()
        .filter(|(mask, estimate)| reference.get(mask) != Some(&**estimate))
        .count();
    check(&mut failures, wrong == 0, || {
        format!("{wrong} estimates over the wire differ from in-process contention::estimate")
    });
    let fetched = client
        .fetch_journal()
        .map_err(|e| format!("fetch_journal: {e}"))?;
    let events = fleet.journal().events();
    check(&mut failures, fetched.events() == events, || {
        "the journal fetched over the wire differs from the server's".to_string()
    });
    if replay {
        check_replay(&mut failures, &spec, &fetched)?;
    }
    drop(caller);
    client.close();
    server.shutdown();
    Ok(Pass {
        setup_s,
        ops: stats.attempted(),
        fingerprint: fingerprint(&format!("{events:?}")),
        spec,
        events,
        cache_hits: hits,
        cache_lookups: hits + misses,
        stats,
        sweep_ns: Vec::new(),
        failures,
    })
}
