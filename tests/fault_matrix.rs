//! The fault matrix: end-to-end checks of every row in the degradation
//! contract (`docs/ROBUSTNESS.md`), driving the real HTTP server over
//! loopback with deterministic, seeded fault injection.
//!
//! | scenario | expected degradation |
//! |---|---|
//! | request older than its deadline | `503` + `Retry-After`, `shed.deadline_total` |
//! | arrivals past `max_inflight` | `503` + `Retry-After`, `shed.queue_total` |
//! | snapshot replaced by garbage | `200` + `X-SR-Stale: 1`, `stale.serves_total` |
//! | snapshot never loadable (injected read errors) | `503`, `/metrics` still up |
//! | injected handler panics | connection drops, pool survives |
//! | same fault seed, same plan | identical outcome sequence |
//! | one shard replica dead | rotation to the next replica, full answers |
//! | every replica of one shard dead | point `503`s only there; window/knn partial with `X-SR-Partial` |
//! | slow shard vs shard deadline | partial answer, then recovery once cached |
//! | manifest pointing at a corrupt snapshot | brownout of that shard, not blackout |
//!
//! Everything here is hermetic: fault decisions come from a seeded PRNG
//! (`sr-fault`), so the matrix passes bit-identically under `SR_THREADS=1`
//! and `SR_THREADS=4` (`ci.sh` runs both).

use spatial_repartition::prelude::*;
use spatial_repartition::serve::{load_snapshot_with, serve_backend, ReloadPolicy};
use spatial_repartition::shard::{shard_order, RouterConfig, ShardRouter, SplitOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One GET: returns (status, response head, body). The request is written
/// in full before reading, so only use this when the server will read the
/// request head (shed paths never do — see [`http_read_only`]).
fn http_get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    split_response(&response)
}

/// Connects and reads without sending a byte. Shed responses (admission
/// and queue-age deadlines) are written before the server reads anything,
/// and a client that never writes can never hit a TCP reset from the
/// server closing with unread request bytes — this keeps the shed tests
/// deterministic.
fn http_read_only(addr: SocketAddr) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    split_response(&response)
}

fn split_response(response: &str) -> (u16, String, String) {
    let status: u16 =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (status, head.to_string(), body.to_string())
}

fn make_snapshot() -> Snapshot {
    let vals: Vec<f64> =
        (0..144).map(|i| 50.0 + (i / 12) as f64 * 0.3 + (i % 12) as f64 * 0.1).collect();
    let grid = GridDataset::univariate(12, 12, vals).unwrap();
    let out = repartition(&grid, 0.05).unwrap();
    Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap()
}

fn temp_snapshot(name: &str) -> (Snapshot, PathBuf) {
    let snap = make_snapshot();
    let path =
        std::env::temp_dir().join(format!("sr_fault_matrix_{}_{name}.snap", std::process::id()));
    save_snapshot(&snap, &path).unwrap();
    (snap, path)
}

#[test]
fn expired_deadline_sheds_with_retry_after() {
    let engine = Arc::new(QueryEngine::new(make_snapshot()));
    let registry = Registry::new();
    let config = ServerConfig {
        threads: 2,
        // A zero deadline has always expired by the time a worker picks
        // the connection up: every request is shed at dequeue,
        // deterministically.
        deadline: Some(Duration::ZERO),
        retry_after: Duration::from_secs(7),
        registry: registry.clone(),
        ..ServerConfig::default()
    };
    let mut handle = serve(engine, "127.0.0.1:0", config).unwrap();
    for _ in 0..3 {
        let (status, head, body) = http_read_only(handle.addr());
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("Retry-After: 7"), "missing Retry-After: {head}");
        assert!(body.contains("deadline exceeded"), "{body}");
    }
    assert_eq!(registry.counter("shed.deadline_total").get(), 3);
    assert_eq!(registry.counter("shed.queue_total").get(), 0);
    assert_eq!(registry.counter("serve.errors_total").get(), 3);
    // Shed requests are never routed: no request line was read, so the
    // request counter must not move.
    assert_eq!(registry.counter("serve.requests_total").get(), 0);
    handle.shutdown();
}

#[test]
fn deadline_expiring_during_head_read_sheds_after_parse() {
    let engine = Arc::new(QueryEngine::new(make_snapshot()));
    let registry = Registry::new();
    let config = ServerConfig {
        threads: 2,
        deadline: Some(Duration::from_millis(20)),
        registry: registry.clone(),
        ..ServerConfig::default()
    };
    let mut handle = serve(engine, "127.0.0.1:0", config).unwrap();
    // Dribble the request: the head completes only after the deadline has
    // passed, so the second deadline check (post-parse) fires.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write!(stream, "GET /stats HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    write!(stream, "\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (status, head, _) = split_response(&response);
    assert_eq!(status, 503, "{response}");
    assert!(head.contains("Retry-After:"), "{head}");
    assert_eq!(registry.counter("shed.deadline_total").get(), 1);
    handle.shutdown();
}

#[test]
fn admission_bound_sheds_excess_arrivals() {
    let engine = Arc::new(QueryEngine::new(make_snapshot()));
    let registry = Registry::new();
    let config = ServerConfig {
        threads: 1,
        max_inflight: 1,
        read_timeout: Duration::from_secs(2),
        retry_after: Duration::from_secs(1),
        registry: registry.clone(),
        ..ServerConfig::default()
    };
    let mut handle = serve(engine, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // Occupy the only admission slot: a connection that sends nothing
    // parks the single worker in its read loop.
    let stall = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Every arrival while the slot is held is shed straight from the
    // acceptor.
    for _ in 0..2 {
        let (status, head, body) = http_read_only(addr);
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        assert!(body.contains("capacity"), "{body}");
    }
    assert_eq!(registry.counter("shed.queue_total").get(), 2);

    // Release the slot; the server must recover and serve normally.
    drop(stall);
    std::thread::sleep(Duration::from_millis(50));
    let (status, _, body) = http_get(addr, "/stats");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"shed\":{\"queue\":2,\"deadline\":0}"), "{body}");
    handle.shutdown();
}

#[test]
fn corrupt_snapshot_replacement_serves_stale_then_recovers() {
    let (snap, path) = temp_snapshot("stale");
    let registry = Registry::new();
    let cache = Arc::new(SnapshotCache::with_registry(2, &registry));
    let config = ServerConfig { threads: 2, registry: registry.clone(), ..ServerConfig::default() };
    let mut handle = serve_cached(Arc::clone(&cache), &path, 0.05, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // Healthy: engine answers, no staleness marker.
    let (status, head, body) = http_get(addr, "/point?lat=0.5&lon=0.5");
    assert_eq!(status, 200, "{body}");
    assert!(!head.contains("X-SR-Stale"), "fresh response marked stale: {head}");

    // Replace the snapshot with garbage, as a botched deploy would. The
    // torn write is detected (magic/CRC), the reload fails after retries,
    // and the last good snapshot keeps answering — flagged stale.
    std::fs::write(&path, b"definitely not an sr-snap file").unwrap();
    let (status, head, body) = http_get(addr, "/point?lat=0.5&lon=0.5");
    assert_eq!(status, 200, "degraded serving must still answer: {body}");
    assert!(head.contains("X-SR-Stale: 1"), "degraded response not marked: {head}");
    assert!(cache.stale_serves() >= 1);
    assert!(cache.reload_failures() >= 1);
    assert_eq!(registry.counter("stale.serves_total").get(), cache.stale_serves());

    // Telemetry stays up while degraded.
    let (status, _, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("stale.serves_total"), "{body}");

    // A good snapshot lands (atomically): the next request is fresh again.
    save_snapshot(&snap, &path).unwrap();
    let (status, head, _) = http_get(addr, "/point?lat=0.5&lon=0.5");
    assert_eq!(status, 200);
    assert!(!head.contains("X-SR-Stale"), "recovered response marked stale: {head}");
    assert!(cache.reloads() >= 1, "recovery must count as a reload");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn unloadable_snapshot_degrades_engine_endpoints_only() {
    let (_, path) = temp_snapshot("unloadable");
    let registry = Registry::new();
    // Every snapshot read fails: the cache can never load, so engine
    // endpoints answer 503 while /metrics stays up.
    let plan = FaultPlan::parse("seed = 7\nread.error_rate = 1.0\n", &registry).unwrap();
    let cache = Arc::new(SnapshotCache::with_registry(2, &registry).with_fault_plan(plan));
    let config = ServerConfig { threads: 2, registry: registry.clone(), ..ServerConfig::default() };
    let mut handle = serve_cached(Arc::clone(&cache), &path, 0.05, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    let (status, _, body) = http_get(addr, "/point?lat=0.5&lon=0.5");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("snapshot unavailable"), "{body}");
    let (status, _, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("serve.snapshot_unavailable_total 1"), "{body}");
    // Each failed resolve retried the load (3 attempts per policy), and
    // every attempt consumed one injected error.
    assert!(registry.counter("fault.injected_errors_total").get() >= 3, "{body}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_read_latency_slows_loads_but_serves_correctly() {
    let (snap, path) = temp_snapshot("latency");
    let registry = Registry::new();
    let plan = FaultPlan::parse("seed = 11\nread.latency_ms = 2\n", &registry).unwrap();
    let cache = SnapshotCache::with_registry(2, &registry).with_fault_plan(plan.clone());
    let served = cache.get_serve(&path, 0.05).expect("latency never corrupts data");
    assert!(!served.stale);
    assert_eq!(
        served.engine.to_snapshot().unwrap(),
        snap,
        "loaded through faults must be lossless"
    );
    assert!(plan.injected_latency() >= 1);
    assert_eq!(registry.counter("fault.injected_latency_total").get(), plan.injected_latency());
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_worker_panics_drop_connections_but_pool_survives() {
    let engine = Arc::new(QueryEngine::new(make_snapshot()));
    let registry = Registry::new();
    let plan = FaultPlan::parse("seed = 3\npanic.rate = 1.0\n", &registry).unwrap();
    let config = ServerConfig {
        threads: 2,
        fault_plan: Some(plan),
        registry: registry.clone(),
        ..ServerConfig::default()
    };
    let mut handle = serve(engine, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();
    // The panic hook fires after the request head is read, so the client
    // sees a clean close with no response — never a hang, never a torn
    // worker pool.
    for i in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.is_empty(), "request {i}: crashed handler must not respond: {response}");
    }
    // Counters are read in-process: with panic.rate = 1.0, a /metrics
    // request would crash too — that is the point of the drill. The
    // recovery count is incremented after the worker drops the stream
    // (which is what the client observes), so give it a moment to land.
    let recovered = registry.counter("serve.panics_recovered_total");
    for _ in 0..100 {
        if recovered.get() == 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(recovered.get(), 3);
    assert_eq!(registry.counter("fault.injected_panics_total").get(), 3);
    // Graceful shutdown still drains: the pool lost no workers.
    handle.shutdown();
    assert!(TcpStream::connect(addr).is_err(), "listener should be closed");
}

// ---------------------------------------------------------------------
// Shard-tier scenarios (docs/SHARDING.md): the same degradation contract,
// one level up — replicas rotate, shards brown out, the tier never
// blacks out while any shard still serves.
// ---------------------------------------------------------------------

/// A snapshot with enough surface variation to keep many groups —
/// [`make_snapshot`]'s smooth grid coarsens to a single group, which
/// cannot be cut into shards.
fn make_shardable_snapshot() -> Snapshot {
    let vals: Vec<f64> =
        (0..196).map(|i| 20.0 + (i / 14) as f64 * 0.5 + (i % 14) as f64 * 0.2).collect();
    let grid = GridDataset::univariate(14, 14, vals).unwrap();
    let out = repartition(&grid, 0.05).unwrap();
    Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap()
}

/// Splits [`make_shardable_snapshot`] into a shard deployment under a
/// fresh temp directory and returns `(full snapshot, shard dir)`.
fn temp_shards(name: &str, shards: usize, replicas: usize) -> (Snapshot, PathBuf) {
    let snap = make_shardable_snapshot();
    let dir = std::env::temp_dir().join(format!("sr_fault_shards_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    spatial_repartition::shard::write_shards(
        &snap,
        &dir,
        &SplitOptions { shards, replicas },
        Pool::global(),
    )
    .unwrap();
    (snap, dir)
}

/// Centroid of group `g` — a point guaranteed to route to `g`'s shard.
fn group_centroid(snap: &Snapshot, g: u32) -> (f64, f64) {
    let b = snap.bounds();
    let rect = snap.partition().rect(g);
    let lat_step = (b.lat_max - b.lat_min) / snap.rows() as f64;
    let lon_step = (b.lon_max - b.lon_min) / snap.cols() as f64;
    (
        b.lat_min + (rect.r0 + rect.r1 + 1) as f64 / 2.0 * lat_step,
        b.lon_min + (rect.c0 + rect.c1 + 1) as f64 / 2.0 * lon_step,
    )
}

#[test]
fn dead_replica_rotates_without_degrading() {
    let (_, dir) = temp_shards("rotate", 3, 2);
    // Replica 0 of shard 1 vanishes before the router ever loads it.
    std::fs::remove_file(dir.join("shard1_r0.snap")).unwrap();
    let registry = Registry::new();
    let router_config = RouterConfig {
        registry: registry.clone(),
        reload: ReloadPolicy { attempts: 1, ..ReloadPolicy::default() },
        ..RouterConfig::default()
    };
    let router = ShardRouter::open(dir.join("manifest.txt"), router_config).unwrap();
    let config = ServerConfig { threads: 2, registry: registry.clone(), ..ServerConfig::default() };
    let mut handle = serve_backend(Arc::new(router), "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // Full answers, no partial marker: replica 1 covers for replica 0.
    let (status, head, body) = http_get(addr, "/window?lat0=0&lat1=1&lon0=0&lon1=1");
    assert_eq!(status, 200, "{body}");
    assert!(!head.contains("X-SR-Partial"), "rotation must not look partial: {head}");
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(registry.counter("shard.replica_rotations_total").get() >= 1);
    assert_eq!(registry.counter("shard.brownouts_total").get(), 0);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn browned_out_shard_serves_partial_not_blackout() {
    let (snap, dir) = temp_shards("brownout", 3, 2);
    let manifest = spatial_repartition::shard::load_manifest(dir.join("manifest.txt")).unwrap();
    // Every replica of shard 0 dies: the shard browns out entirely.
    for path in manifest.replica_paths(&dir, 0) {
        std::fs::remove_file(path).unwrap();
    }
    let registry = Registry::new();
    let router_config = RouterConfig {
        registry: registry.clone(),
        reload: ReloadPolicy { attempts: 1, ..ReloadPolicy::default() },
        ..RouterConfig::default()
    };
    let router = ShardRouter::open(dir.join("manifest.txt"), router_config).unwrap();
    let config = ServerConfig { threads: 2, registry: registry.clone(), ..ServerConfig::default() };
    let mut handle = serve_backend(Arc::new(router), "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // Point queries: 503 only on the dead shard's territory.
    let order = shard_order(snap.partition());
    let (dead_lat, dead_lon) = group_centroid(&snap, order[manifest.shards[0].start]);
    let (status, _, body) = http_get(addr, &format!("/point?lat={dead_lat}&lon={dead_lon}"));
    assert_eq!(status, 503, "{body}");
    let (live_lat, live_lon) = group_centroid(&snap, order[manifest.shards[1].start]);
    let (status, _, body) = http_get(addr, &format!("/point?lat={live_lat}&lon={live_lon}"));
    assert_eq!(status, 200, "{body}");

    // Window and knn answer partially, naming the missing shard.
    let (status, head, body) = http_get(addr, "/window?lat0=0&lat1=1&lon0=0&lon1=1");
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("X-SR-Partial: 0"), "{head}");
    let k = manifest.groups; // forces expansion into every shard
    let (status, head, body) = http_get(addr, &format!("/knn?lat={live_lat}&lon={live_lon}&k={k}"));
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("X-SR-Partial: 0"), "{head}");
    assert!(registry.counter("shard.partial_responses_total").get() >= 2);
    assert!(registry.counter("shard.brownouts_total").get() >= 1);

    // Telemetry and health stay up, reporting the brownout.
    let (status, _, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("shard.brownouts_total"), "{body}");
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"id\":0,\"state\":\"browned_out\""), "{body}");
    let (status, _, body) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"shards\":{\"healthy\":2,\"browned_out\":1}"), "{body}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_shard_misses_deadline_then_recovers() {
    let (snap, dir) = temp_shards("slow", 2, 1);
    let registry = Registry::new();
    // Every snapshot *read* sleeps well past the shard deadline — but
    // reads only happen on (re)loads; cache hits stay fast.
    let plan = FaultPlan::parse("seed = 5\nread.latency_ms = 120\n", &registry).unwrap();
    let router_config = RouterConfig {
        registry: registry.clone(),
        shard_deadline: Some(Duration::from_millis(60)),
        fault_plan: Some(plan),
        reload: ReloadPolicy { attempts: 1, ..ReloadPolicy::default() },
        ..RouterConfig::default()
    };
    // open() warms every shard without a deadline (slowly, here).
    let router = ShardRouter::open(dir.join("manifest.txt"), router_config).unwrap();
    let config = ServerConfig { threads: 2, registry: registry.clone(), ..ServerConfig::default() };
    let mut handle = serve_backend(Arc::new(router), "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // Warm caches: full, fast answer.
    let (status, head, body) = http_get(addr, "/window?lat0=0&lat1=1&lon0=0&lon1=1");
    assert_eq!(status, 200, "{body}");
    assert!(!head.contains("X-SR-Partial"), "{head}");

    // Redeploy shard 0 (same content, new mtime): the next request must
    // reload it through the injected 120 ms read latency and blows the
    // 60 ms shard deadline — a partial answer, not a stall.
    std::thread::sleep(Duration::from_millis(30)); // separate mtimes
    let manifest = spatial_repartition::shard::load_manifest(dir.join("manifest.txt")).unwrap();
    let shard0 = &manifest.replica_paths(&dir, 0)[0];
    let bytes = std::fs::read(shard0).unwrap();
    std::fs::write(shard0, &bytes).unwrap();
    let (status, head, body) = http_get(addr, "/window?lat0=0&lat1=1&lon0=0&lon1=1");
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("X-SR-Partial: 0"), "slow reload must degrade to partial: {head}");
    assert!(registry.counter("shard.deadline_misses_total").get() >= 1);

    // The reload finished (and cached) even though the request moved on:
    // the shard is fast — and whole — again.
    let (status, head, body) = http_get(addr, "/window?lat0=0&lat1=1&lon0=0&lon1=1");
    assert_eq!(status, 200, "{body}");
    assert!(!head.contains("X-SR-Partial"), "recovered answer still partial: {head}");

    let _ = snap;
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_shard_snapshot_browns_out_not_blacks_out() {
    let (snap, dir) = temp_shards("corrupt", 3, 1);
    let manifest = spatial_repartition::shard::load_manifest(dir.join("manifest.txt")).unwrap();
    // Shard 1's only replica is garbage from the start (torn deploy): the
    // CRC check rejects it on every load attempt, so the shard can never
    // come up — but the other shards must.
    std::fs::write(&manifest.replica_paths(&dir, 1)[0], b"garbage, not an sr-snap file").unwrap();
    let registry = Registry::new();
    let router_config = RouterConfig {
        registry: registry.clone(),
        reload: ReloadPolicy { attempts: 1, ..ReloadPolicy::default() },
        ..RouterConfig::default()
    };
    let router = ShardRouter::open(dir.join("manifest.txt"), router_config).unwrap();
    let config = ServerConfig { threads: 2, registry: registry.clone(), ..ServerConfig::default() };
    let mut handle = serve_backend(Arc::new(router), "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    let order = shard_order(snap.partition());
    let (live_lat, live_lon) = group_centroid(&snap, order[manifest.shards[0].start]);
    let (status, _, body) = http_get(addr, &format!("/point?lat={live_lat}&lon={live_lon}"));
    assert_eq!(status, 200, "{body}");
    let (corrupt_lat, corrupt_lon) = group_centroid(&snap, order[manifest.shards[1].start]);
    let (status, _, body) = http_get(addr, &format!("/point?lat={corrupt_lat}&lon={corrupt_lon}"));
    assert_eq!(status, 503, "{body}");

    let (status, head, body) = http_get(addr, "/window?lat0=0&lat1=1&lon0=0&lon1=1");
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("X-SR-Partial: 1"), "{head}");
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"id\":1,\"state\":\"browned_out\""), "{body}");
    assert!(registry.counter("shard.brownouts_total").get() >= 1);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_outcomes_are_seed_deterministic() {
    let (_, path) = temp_snapshot("determinism");
    // The error decision is drawn once per read() call and a load issues
    // several, so a modest per-call rate still fails a healthy fraction of
    // whole loads. The exact pattern is a pure function of the seed.
    let plan_text = "seed = 99\nread.error_rate = 0.1\n";
    let pattern: Vec<Vec<bool>> = (0..2)
        .map(|_| {
            let plan = FaultPlan::parse(plan_text, &Registry::new()).unwrap();
            (0..32).map(|_| load_snapshot_with(&path, Some(&plan)).is_ok()).collect()
        })
        .collect();
    assert_eq!(pattern[0], pattern[1], "same seed must give the same fault sequence");
    assert!(pattern[0].iter().any(|ok| *ok), "some loads should get through");
    assert!(pattern[0].iter().any(|ok| !*ok), "some loads should fail");
    std::fs::remove_file(&path).ok();
}
