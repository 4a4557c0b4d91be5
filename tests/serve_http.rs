//! End-to-end test of the serving subsystem: repartition → snapshot file →
//! reload → HTTP server on an ephemeral port → concurrent clients → every
//! served point value must be *exactly* the §III-C reconstruction value.

use spatial_repartition::core::reconstruct_grid;
use spatial_repartition::datasets::{Dataset, GridSize};
use spatial_repartition::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

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

/// Extracts `"values":[..]` from a /point response body; `None` when the
/// cell is null (`"values":null`).
fn parse_values(body: &str) -> Option<Vec<f64>> {
    let rest = body.split_once("\"values\":")?.1;
    if rest.starts_with("null") {
        return None;
    }
    let inner = rest.strip_prefix('[')?.split_once(']')?.0;
    Some(
        inner
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("numeric value"))
            .collect(),
    )
}

#[test]
fn serve_queries_match_reconstruction_under_concurrency() {
    // A realistic multivariate grid with null cells.
    let grid = Dataset::TaxiMultivariate.generate(GridSize::Custom(24, 24), 11);
    let outcome = repartition(&grid, 0.08).unwrap();
    let rep = &outcome.repartitioned;

    // Snapshot round trip through a file.
    let snap = Snapshot::build(rep, &grid, 0.08).unwrap();
    let path = std::env::temp_dir().join(format!("sr_serve_e2e_{}.snap", std::process::id()));
    save_snapshot(&snap, &path).unwrap();
    let reloaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded, snap, "snapshot file round trip must be lossless");

    let reference = reconstruct_grid(&grid, rep.partition(), rep.features()).unwrap();
    let engine = Arc::new(QueryEngine::new(reloaded));
    let mut handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // Four client threads, each covering a disjoint quarter of the cells.
    std::thread::scope(|scope| {
        for tid in 0..4usize {
            let grid = &grid;
            let reference = &reference;
            scope.spawn(move || {
                for cell in (0..grid.num_cells() as u32).filter(|c| *c as usize % 4 == tid) {
                    let (lat, lon) = grid.cell_centroid(cell);
                    let (status, body) = http_get(addr, &format!("/point?lat={lat}&lon={lon}"));
                    assert_eq!(status, 200, "cell {cell}: {body}");
                    assert!(body.contains("\"inside\":true"), "cell {cell}: {body}");
                    let served = parse_values(&body);
                    match reference.features(cell) {
                        None => assert!(served.is_none(), "cell {cell} should be null: {body}"),
                        Some(expected) => {
                            let served = served.unwrap_or_else(|| {
                                panic!("cell {cell} served null, expected {expected:?}")
                            });
                            assert_eq!(served.len(), expected.len());
                            // Bit-exact: the server prints shortest-round-trip
                            // f64s, so parsing must recover identical bits.
                            for (k, (&s, e)) in served.iter().zip(expected).enumerate() {
                                assert_eq!(
                                    s.to_bits(),
                                    e.to_bits(),
                                    "cell {cell} attr {k}: served {s} != reconstructed {e}"
                                );
                            }
                        }
                    }
                }
            });
        }
    });

    // Window aggregate over the whole grid agrees with a full scan of the
    // reconstruction.
    let b = grid.bounds();
    let (status, body) = http_get(
        addr,
        &format!(
            "/window?lat0={}&lat1={}&lon0={}&lon1={}",
            b.lat_min, b.lat_max, b.lon_min, b.lon_max
        ),
    );
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"cells\":{}", grid.num_cells())), "{body}");
    assert!(body.contains(&format!("\"valid_cells\":{}", grid.num_valid_cells())), "{body}");

    // knn returns k ordered neighbors.
    let (lat, lon) = grid.cell_centroid(0);
    let (status, body) = http_get(addr, &format!("/knn?lat={lat}&lon={lon}&k=3"));
    assert_eq!(status, 200);
    assert_eq!(body.matches("\"group\":").count(), 3, "{body}");

    // Stats reflect the snapshot.
    let (status, body) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"groups\":{}", rep.num_groups())), "{body}");

    // Malformed requests: 4xx with an error body, never a panic or hang.
    for target in ["/point", "/point?lat=x&lon=0", "/knn?lat=1&lon=1&k=0", "/bogus"] {
        let (status, body) = http_get(addr, target);
        assert!((400..500).contains(&status), "{target} -> {status}");
        assert!(body.contains("error"), "{target} -> {body}");
    }
    // A request that is not HTTP at all.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\x00\x01\x02 garbage\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }

    // Graceful shutdown: returns after draining, and the port stops
    // accepting.
    handle.shutdown();
    assert!(TcpStream::connect(addr).is_err(), "listener should be closed");
}

/// Writes `request` raw and returns whatever the server answered before
/// closing. A server that stops reading early closes with request bytes
/// unread, which the client may see as a reset after the response; the
/// bytes received up to then are the answer.
fn raw_exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(request.as_bytes());
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn request_head_over_the_cap_is_refused_with_431() {
    let grid = Dataset::VehiclesUnivariate.generate(GridSize::Custom(8, 8), 3);
    let outcome = repartition(&grid, 0.1).unwrap();
    let snap = Snapshot::build(&outcome.repartitioned, &grid, 0.1).unwrap();
    let registry = Registry::new();
    let config = ServerConfig { threads: 2, registry: registry.clone(), ..ServerConfig::default() };
    let pad = "x".repeat(config.max_request_bytes + 1024);
    let handle = serve(Arc::new(QueryEngine::new(snap)), "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // The cap covers the request line itself, not only the headers.
    let response = raw_exchange(addr, &format!("GET /stats?pad={pad} HTTP/1.1\r\n\r\n"));
    assert!(response.starts_with("HTTP/1.1 431"), "long request line: {response}");
    let response = raw_exchange(addr, &format!("GET /stats HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"));
    assert!(response.starts_with("HTTP/1.1 431"), "long header line: {response}");
    assert_eq!(registry.counter("serve.errors_total").get(), 2);

    // A head within the cap still answers.
    let (status, _) = http_get(addr, "/stats");
    assert_eq!(status, 200);
}

#[test]
fn server_survives_empty_connections() {
    let grid = Dataset::VehiclesUnivariate.generate(GridSize::Custom(8, 8), 3);
    let outcome = repartition(&grid, 0.1).unwrap();
    let snap = Snapshot::build(&outcome.repartitioned, &grid, 0.1).unwrap();
    let engine = Arc::new(QueryEngine::new(snap));
    let config = ServerConfig { threads: 2, ..ServerConfig::default() };
    let handle = serve(engine, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();
    // Connections that send nothing (and immediately close) must not wedge
    // the pool.
    for _ in 0..4 {
        drop(TcpStream::connect(addr).unwrap());
    }
    let (status, _) = http_get(addr, "/stats");
    assert_eq!(status, 200);
}
