//! End-to-end checks of the instrumentation contract
//! (`docs/OBSERVABILITY.md`): the repartition driver must emit the
//! documented span tree, and the HTTP server's `/metrics` and `/stats`
//! endpoints must agree with the traffic a client actually sent.

use spatial_repartition::datasets::{Dataset, GridSize};
use spatial_repartition::obs;
use spatial_repartition::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

/// Tracing state (subscriber + enabled flag) is process-global; tests that
/// install a subscriber — or that would emit spans into someone else's
/// collector — take this lock.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Minimal HTTP/1.1 client: one GET, returns (status, body).
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn repartition_emits_documented_span_tree() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let collector = Arc::new(obs::MemoryCollector::new());
    obs::set_subscriber(collector.clone());

    let grid = Dataset::TaxiUnivariate.generate(GridSize::Custom(16, 16), 7);
    let outcome = repartition(&grid, 0.05).unwrap();
    obs::clear_subscriber();

    let run = collector.find("repartition.run").expect("driver span");
    assert!(run.parent.is_none(), "repartition.run is a root span");
    assert_eq!(run.depth, 0);
    assert_eq!(run.field("cells"), Some(&obs::Value::U64(256)));
    assert_eq!(run.field("threshold"), Some(&obs::Value::F64(0.05)));
    assert_eq!(
        run.field("groups"),
        Some(&obs::Value::U64(outcome.repartitioned.num_groups() as u64))
    );

    // Every documented phase appears exactly once, as a child of the run.
    for phase in ["repartition.normalize", "repartition.variation_scan", "repartition.merge_loop"] {
        let spans = collector.find_all(phase);
        assert_eq!(spans.len(), 1, "{phase} should run once");
        assert_eq!(spans[0].parent, Some(run.id), "{phase} nests under repartition.run");
        assert_eq!(spans[0].depth, 1);
    }
    let children = collector.children_of(run.id);
    assert_eq!(children.len(), 3, "run has exactly the documented children");

    let merge = collector.find("repartition.merge_loop").unwrap();
    assert_eq!(
        merge.field("iterations"),
        Some(&obs::Value::U64(outcome.iterations.len() as u64)),
        "span field must agree with the outcome's iteration log"
    );
}

#[test]
fn server_metrics_match_client_activity() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let grid = Dataset::VehiclesUnivariate.generate(GridSize::Custom(10, 10), 5);
    let outcome = repartition(&grid, 0.1).unwrap();
    let snap = Snapshot::build(&outcome.repartitioned, &grid, 0.1).unwrap();
    let engine = Arc::new(QueryEngine::new(snap));

    // An isolated registry keeps this test independent of everything else
    // in the process that talks to the global one.
    let registry = Registry::new();
    let config = ServerConfig { registry: registry.clone(), ..ServerConfig::default() };
    let mut handle = serve(engine, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    let (lat, lon) = grid.cell_centroid(0);
    for _ in 0..3 {
        let (status, _) = http_get(addr, &format!("/point?lat={lat}&lon={lon}"));
        assert_eq!(status, 200);
    }
    let (status, _) = http_get(addr, &format!("/knn?lat={lat}&lon={lon}&k=2"));
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/point?lat=bogus&lon=0");
    assert_eq!(status, 400);
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    // /stats folds the same counters in under "requests".
    let (status, stats) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(
        stats.contains(
            "\"requests\":{\"point\":4,\"window\":0,\"knn\":1,\"stats\":1,\"metrics\":0,\
             \"healthz\":0,\"total\":7,\"errors\":2}"
        ),
        "stats: {stats}"
    );

    // /metrics renders the registry; it counts itself before rendering.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for line in [
        "counter serve.requests_total 8",
        "counter serve.errors_total 2",
        "counter serve.point.requests_total 4",
        "counter serve.knn.requests_total 1",
        "counter serve.stats.requests_total 1",
        "counter serve.metrics.requests_total 1",
        "counter serve.window.requests_total 0",
        "histogram serve.point.latency_ns count 4",
        "gauge serve.snapshot.groups",
    ] {
        assert!(metrics.contains(line), "missing {line:?} in:\n{metrics}");
    }
    // The registry handle the test holds reads the same cells the server
    // writes.
    assert_eq!(registry.counter("serve.requests_total").get(), 8);

    handle.shutdown();
}

#[test]
fn cache_counters_flow_into_registry() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let grid = Dataset::TaxiUnivariate.generate(GridSize::Custom(8, 8), 2);
    let outcome = repartition(&grid, 0.1).unwrap();
    let snap = Snapshot::build(&outcome.repartitioned, &grid, 0.1).unwrap();
    let path = std::env::temp_dir().join(format!("sr_obs_cache_{}.snap", std::process::id()));
    save_snapshot(&snap, &path).unwrap();

    let registry = Registry::new();
    let cache = SnapshotCache::with_registry(1, &registry);
    cache.get_or_load(&path, 0.1).unwrap(); // miss
    cache.get_or_load(&path, 0.1).unwrap(); // hit
    cache.get_or_load(&path, 0.2).unwrap(); // miss + eviction
    std::fs::remove_file(&path).ok();

    let text = registry.render_text();
    assert!(text.contains("counter serve.cache.hits_total 1"), "{text}");
    assert!(text.contains("counter serve.cache.misses_total 2"), "{text}");
    assert!(text.contains("counter serve.cache.evictions_total 1"), "{text}");
    assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 2, 1));
}

#[test]
fn ingest_publish_emits_encode_and_write_children() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let schema = IngestSchema::parse("v:mean").unwrap();
    let mut engine = IngestEngine::new(IngestConfig::new(8, 8, schema, 0.1)).unwrap();
    let mut chunk = spatial_repartition::ingest::PointChunk::with_capacity(64, 1);
    for i in 0..64 {
        let (x, y) = ((i % 8) as f64 / 8.0 + 0.01, (i / 8) as f64 / 8.0 + 0.01);
        chunk.push(x, y, &[10.0 + (i / 8) as f64]);
    }
    engine.apply_batch(&chunk).unwrap();
    engine.repartition().unwrap();
    let path = std::env::temp_dir().join(format!("sr_obs_publish_{}.snap", std::process::id()));

    let collector = Arc::new(obs::MemoryCollector::new());
    obs::set_subscriber(collector.clone());
    engine.publish(&path).unwrap();
    obs::clear_subscriber();
    std::fs::remove_file(&path).ok();

    let publish = collector.find("ingest.publish").expect("publish span");
    assert!(publish.parent.is_none(), "ingest.publish is a root span");
    assert_eq!(publish.field("ok"), Some(&obs::Value::U64(1)));
    let children: Vec<&str> = collector.children_of(publish.id).iter().map(|s| s.name).collect();
    assert_eq!(
        children,
        ["ingest.publish.encode", "ingest.publish.write"],
        "publish has exactly the documented children, in order"
    );
    for phase in ["ingest.publish.encode", "ingest.publish.write"] {
        let span = collector.find(phase).unwrap();
        assert_eq!(span.depth, 1, "{phase} nests one level under ingest.publish");
        assert!(collector.children_of(span.id).is_empty(), "{phase} is a leaf");
    }
}
