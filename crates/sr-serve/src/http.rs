//! A dependency-free HTTP/1.1 front end for the query engine.
//!
//! Built entirely on `std::net`: a listener thread accepts connections and
//! hands them to a fixed pool of worker threads over a channel; workers
//! parse one `GET` request per connection, answer from the shared
//! [`QueryEngine`], and close (`Connection: close` keeps the protocol
//! state machine trivial). Shutdown is graceful: a flag flips, a wake-up
//! connection unblocks the accept loop, the channel closes, and every
//! worker drains before the handle's `shutdown` returns.
//!
//! Endpoints (all responses JSON):
//!
//! - `GET /point?lat=F&lon=F` — the cell under a location and its
//!   representative values.
//! - `GET /window?lat0=F&lat1=F&lon0=F&lon1=F` — per-attribute aggregates
//!   over the cells in a geographic rectangle.
//! - `GET /knn?lat=F&lon=F&k=N` — the `k` nearest featured cell-groups by
//!   rectangle centroid.
//! - `GET /stats` — snapshot summary plus request/shed counts.
//! - `GET /metrics` — the full metrics registry in the `sr-metrics v1`
//!   text format (see `docs/OBSERVABILITY.md`). Served even while the
//!   snapshot itself is unavailable.
//!
//! Malformed requests get `400` with an `error` body; unknown paths `404`;
//! non-`GET` methods `405`. The server never panics on bad input, and a
//! panic inside a handler (including one injected through
//! [`ServerConfig::fault_plan`]) is caught by the worker — the connection
//! drops, `serve.panics_recovered_total` increments, and the pool keeps
//! serving.
//!
//! ## Overload and degradation (`docs/ROBUSTNESS.md` is the contract)
//!
//! - **Admission control**: with [`ServerConfig::max_inflight`] set, a
//!   connection arriving while that many requests are queued or being
//!   handled is *shed* — answered `503` with a `Retry-After` header
//!   straight from the acceptor, never parsed, counted in
//!   `shed.queue_total`.
//! - **Deadlines**: with [`ServerConfig::deadline`] set, each request's
//!   deadline starts at accept time and is checked when a worker picks the
//!   connection up and again after the request head is parsed; on expiry
//!   the response is `503` + `Retry-After` and `shed.deadline_total`
//!   increments. A deadline that expires *during* a handler does not abort
//!   it (handlers are short; the next check is the client's).
//! - **Stale serving**: a server started with [`serve_cached`] resolves
//!   its engine through a [`SnapshotCache`] on every engine-backed
//!   request; when the snapshot file changes but the replacement fails to
//!   load, the last good snapshot answers with an `X-SR-Stale: 1` header
//!   (`stale.serves_total`). If no snapshot was ever loadable, engine
//!   endpoints answer `503` (`serve.snapshot_unavailable_total`) while
//!   `/metrics` keeps working.
//!
//! Every routed request increments `serve.requests_total` and its
//! endpoint's `serve.<endpoint>.requests_total` counter *before* the
//! handler runs (so `/stats` and `/metrics` responses count themselves),
//! records its latency into `serve.<endpoint>.latency_ns` *after* the
//! response body is built, and runs under a `serve.<endpoint>` tracing
//! span. Responses with status ≥ 400 also increment `serve.errors_total`;
//! shed responses (never routed) count in `shed.*` and
//! `serve.errors_total` only.

use crate::cache::{Served, SnapshotCache};
use crate::query::{NearestGroup, PointAnswer, WindowAnswer};
use crate::v2::QueryEngine;
use crate::Result;
use sr_fault::FaultPlan;
use sr_obs::{Counter, Histogram, Registry};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
///
/// The robustness fields compose: admission shedding is decided first
/// (a shed request is never queued, so its deadline is moot), then the
/// deadline, then the handler. `docs/ROBUSTNESS.md` documents the
/// precedence and every observable outcome.
///
/// ```
/// use sr_serve::ServerConfig;
/// use std::time::Duration;
///
/// let config = ServerConfig {
///     // Requests older than 250ms (accept → handling) answer 503.
///     deadline: Some(Duration::from_millis(250)),
///     // At most 64 requests queued + in flight; beyond that, shed.
///     max_inflight: 64,
///     ..ServerConfig::default()
/// };
/// assert_eq!(config.retry_after, Duration::from_secs(1));
/// assert!(config.fault_plan.is_none(), "fault injection is opt-in");
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub threads: usize,
    /// Cap on the request head (request line + headers) in bytes. A head
    /// that does not end within it is answered `431`, and nothing past
    /// the cap is read.
    pub max_request_bytes: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-request deadline, measured from the moment the connection is
    /// accepted. `None` (the default) disables deadline shedding.
    ///
    /// ```
    /// use sr_serve::ServerConfig;
    /// use std::time::Duration;
    /// let cfg = ServerConfig { deadline: Some(Duration::ZERO), ..ServerConfig::default() };
    /// // A zero deadline is legal and sheds every request — useful for
    /// // drills and the fault-matrix test.
    /// assert_eq!(cfg.deadline, Some(Duration::ZERO));
    /// ```
    pub deadline: Option<Duration>,
    /// Bound on requests queued + being handled; `0` (the default) means
    /// unbounded. Arrivals past the bound are shed with `503`.
    ///
    /// ```
    /// use sr_serve::ServerConfig;
    /// let cfg = ServerConfig { max_inflight: 2, threads: 2, ..ServerConfig::default() };
    /// assert!(cfg.max_inflight >= cfg.threads, "a bound below `threads` idles workers");
    /// ```
    pub max_inflight: usize,
    /// Value of the `Retry-After` header on shed (`503`) responses,
    /// rounded up to whole seconds (minimum 1).
    pub retry_after: Duration,
    /// Optional fault-injection plan: the worker panic hook
    /// (`panic.rate`) runs once per parsed request. Snapshot-I/O faults
    /// belong on the [`SnapshotCache`] instead (see
    /// [`SnapshotCache::with_fault_plan`]).
    pub fault_plan: Option<FaultPlan>,
    /// Metrics registry the server reports into and `/metrics` renders.
    /// Defaults to [`Registry::global`]; pass a fresh [`Registry::new`] for
    /// an isolated server (e.g. in tests hosting several servers).
    pub registry: Registry,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            max_request_bytes: 8 * 1024,
            read_timeout: Duration::from_secs(5),
            deadline: None,
            max_inflight: 0,
            retry_after: Duration::from_secs(1),
            fault_plan: None,
            registry: Registry::global(),
        }
    }
}

/// One endpoint's instruments: a request counter and a latency histogram.
#[derive(Debug, Clone)]
struct EndpointMetrics {
    requests: Counter,
    latency: Histogram,
}

impl EndpointMetrics {
    fn new(registry: &Registry, endpoint: &str) -> Self {
        EndpointMetrics {
            requests: registry.counter(&format!("serve.{endpoint}.requests_total")),
            latency: registry.histogram(&format!("serve.{endpoint}.latency_ns")),
        }
    }
}

/// All instruments one server records into, resolved once at startup so
/// the per-request path never touches the registry's locks.
#[derive(Debug)]
struct ServerMetrics {
    registry: Registry,
    requests_total: Counter,
    errors_total: Counter,
    shed_queue: Counter,
    shed_deadline: Counter,
    unavailable: Counter,
    panics_recovered: Counter,
    stale_serves: Counter,
    point: EndpointMetrics,
    window: EndpointMetrics,
    knn: EndpointMetrics,
    stats: EndpointMetrics,
    metrics: EndpointMetrics,
    healthz: EndpointMetrics,
}

impl ServerMetrics {
    fn new(registry: Registry) -> Self {
        ServerMetrics {
            requests_total: registry.counter("serve.requests_total"),
            errors_total: registry.counter("serve.errors_total"),
            shed_queue: registry.counter("shed.queue_total"),
            shed_deadline: registry.counter("shed.deadline_total"),
            unavailable: registry.counter("serve.snapshot_unavailable_total"),
            panics_recovered: registry.counter("serve.panics_recovered_total"),
            // The same cell a cache built over this registry increments,
            // so /stats can report stale serves without reaching into the
            // cache.
            stale_serves: registry.counter("stale.serves_total"),
            point: EndpointMetrics::new(&registry, "point"),
            window: EndpointMetrics::new(&registry, "window"),
            knn: EndpointMetrics::new(&registry, "knn"),
            stats: EndpointMetrics::new(&registry, "stats"),
            metrics: EndpointMetrics::new(&registry, "metrics"),
            healthz: EndpointMetrics::new(&registry, "healthz"),
            registry,
        }
    }
}

/// A successful backend answer, annotated with how degraded it is.
///
/// `stale` surfaces as the `X-SR-Stale: 1` response header; a non-empty
/// `missing_shards` surfaces as `X-SR-Partial: <comma-separated ids>` —
/// the response is correct for every shard that answered, and silent
/// about the ones that did not (`docs/SHARDING.md` is the contract).
#[derive(Debug, Clone)]
pub struct BackendAnswer<T> {
    /// The answer itself.
    pub value: T,
    /// `true` when any contributing snapshot was served stale.
    pub stale: bool,
    /// Shards whose contribution is missing (browned out or past their
    /// per-shard deadline). Empty for complete answers and for
    /// single-engine backends.
    pub missing_shards: Vec<u32>,
}

impl<T> BackendAnswer<T> {
    /// A complete, fresh answer.
    pub fn fresh(value: T) -> Self {
        BackendAnswer { value, stale: false, missing_shards: Vec::new() }
    }
}

/// The backend cannot answer at all — the HTTP layer turns this into a
/// `503` with the message in the `error` body and counts it in
/// `serve.snapshot_unavailable_total`.
#[derive(Debug, Clone)]
pub struct BackendUnavailable(pub String);

/// Result alias for [`QueryBackend`] calls.
pub type BackendResult<T> = std::result::Result<BackendAnswer<T>, BackendUnavailable>;

/// What the HTTP server serves from. [`EngineBackend`] answers from one
/// `QueryEngine` (static or cache-resolved); `sr-shard`'s router
/// implements the same trait to scatter each query over shards and
/// gather the merged answer, which is how the whole sharded tier plugs
/// into this server unchanged.
pub trait QueryBackend: Send + Sync + 'static {
    /// Point lookup; `None` when the location is outside the grid.
    fn point(&self, lat: f64, lon: f64) -> BackendResult<Option<PointAnswer>>;
    /// Window aggregate, plus the attribute names the answer refers to.
    fn window(
        &self,
        lat0: f64,
        lat1: f64,
        lon0: f64,
        lon1: f64,
    ) -> BackendResult<(Vec<String>, WindowAnswer)>;
    /// The `k` nearest featured groups.
    fn knn(&self, lat: f64, lon: f64, k: usize) -> BackendResult<Vec<NearestGroup>>;
    /// The backend-specific fields of the `/stats` body: a JSON fragment
    /// of `"key":value` pairs (no surrounding braces). The server appends
    /// its own request/shed counters after it.
    fn stats_fields(&self) -> BackendResult<String>;
    /// The `/healthz` body: per-shard/replica status JSON. Never fails —
    /// health reporting must survive snapshot loss (a fully degraded
    /// backend reports itself degraded with a `200`).
    fn health(&self) -> String;
    /// `(cells, groups)` for the startup gauges, when already known.
    fn snapshot_shape(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Where an [`EngineBackend`]'s engine comes from: fixed at startup, or
/// re-resolved per request through a cache (which is what enables reloads
/// and stale degradation).
enum Source {
    Static(Arc<QueryEngine>),
    Cached { cache: Arc<SnapshotCache>, path: PathBuf, theta: f64 },
}

impl Source {
    fn resolve(&self) -> Result<Served> {
        match self {
            Source::Static(engine) => Ok(Served { engine: Arc::clone(engine), stale: false }),
            Source::Cached { cache, path, theta } => cache.get_serve(path, *theta),
        }
    }
}

/// The single-engine backend: one `QueryEngine`, static or resolved
/// through a [`SnapshotCache`] per request. This is what [`serve`] and
/// [`serve_cached`] wrap.
pub struct EngineBackend {
    source: Source,
}

impl EngineBackend {
    /// A backend over a fixed engine.
    pub fn from_engine(engine: Arc<QueryEngine>) -> Self {
        EngineBackend { source: Source::Static(engine) }
    }

    /// A backend that resolves its engine through `cache` on every call,
    /// picking up file edits and degrading to stale serves on failed
    /// reloads.
    pub fn from_cache(cache: Arc<SnapshotCache>, path: impl AsRef<Path>, theta: f64) -> Self {
        EngineBackend { source: Source::Cached { cache, path: path.as_ref().to_path_buf(), theta } }
    }

    fn resolve(&self) -> std::result::Result<Served, BackendUnavailable> {
        self.source.resolve().map_err(|e| BackendUnavailable(format!("snapshot unavailable: {e}")))
    }
}

impl QueryBackend for EngineBackend {
    fn point(&self, lat: f64, lon: f64) -> BackendResult<Option<PointAnswer>> {
        let served = self.resolve()?;
        Ok(BackendAnswer {
            value: served.engine.point(lat, lon),
            stale: served.stale,
            missing_shards: Vec::new(),
        })
    }

    fn window(
        &self,
        lat0: f64,
        lat1: f64,
        lon0: f64,
        lon1: f64,
    ) -> BackendResult<(Vec<String>, WindowAnswer)> {
        let served = self.resolve()?;
        let names = served.engine.attr_names().to_vec();
        Ok(BackendAnswer {
            value: (names, served.engine.window(lat0, lat1, lon0, lon1)),
            stale: served.stale,
            missing_shards: Vec::new(),
        })
    }

    fn knn(&self, lat: f64, lon: f64, k: usize) -> BackendResult<Vec<NearestGroup>> {
        let served = self.resolve()?;
        Ok(BackendAnswer {
            value: served.engine.knn(lat, lon, k),
            stale: served.stale,
            missing_shards: Vec::new(),
        })
    }

    fn stats_fields(&self) -> BackendResult<String> {
        let served = self.resolve()?;
        let st = served.engine.stats();
        let names: Vec<String> =
            served.engine.attr_names().iter().map(|n| json_string(n)).collect();
        let fields = format!(
            "\"rows\":{},\"cols\":{},\"cells\":{},\"valid_cells\":{},\"groups\":{},\
             \"valid_groups\":{},\"attrs\":{},\"attr_names\":[{}],\"theta\":{},\"ifl\":{},\
             \"cell_reduction\":{},\"shards\":{{\"healthy\":1,\"browned_out\":0}}",
            st.rows,
            st.cols,
            st.cells,
            st.valid_cells,
            st.groups,
            st.valid_groups,
            st.attrs,
            names.join(","),
            json_f64(st.theta),
            json_f64(st.ifl),
            json_f64(st.cell_reduction),
        );
        Ok(BackendAnswer { value: fields, stale: served.stale, missing_shards: Vec::new() })
    }

    fn health(&self) -> String {
        // The single engine reports itself as one pseudo-shard with one
        // replica, in the same schema the sharded router uses.
        let (status, state) = match self.source.resolve() {
            Ok(served) if served.stale => ("stale", "stale"),
            Ok(_) => ("ok", "healthy"),
            Err(_) => ("degraded", "browned_out"),
        };
        format!(
            "{{\"status\":\"{status}\",\"shards\":[{{\"id\":0,\"state\":\"{state}\",\
             \"replicas\":1,\"active_replica\":0}}]}}"
        )
    }

    fn snapshot_shape(&self) -> Option<(usize, usize)> {
        let served = self.source.resolve().ok()?;
        let st = served.engine.stats();
        Some((st.cells, st.groups))
    }
}

/// Decrements the shared in-flight count when dropped — including when
/// the handler panicked, so a crashed request can never leak admission
/// slots.
struct InflightGuard(Arc<AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle to a running server. Dropping it shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port of `addr:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and blocks until the acceptor and every worker
    /// have exited. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in accept(); a throwaway connection wakes
        // it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts serving `engine` on `addr` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port). Returns once the listener is bound and the workers
/// are running.
pub fn serve(engine: Arc<QueryEngine>, addr: &str, config: ServerConfig) -> Result<ServerHandle> {
    serve_backend(Arc::new(EngineBackend::from_engine(engine)), addr, config)
}

/// Starts a server whose engine is resolved through `cache` on every
/// engine-backed request: the snapshot at `path` (cache-keyed together
/// with `theta`) is reloaded when the file changes, and serves **stale**
/// (with an `X-SR-Stale: 1` header) when a reload fails. The server
/// starts even if the snapshot is currently unloadable — engine endpoints
/// answer `503` until a load succeeds, `/metrics` works throughout.
pub fn serve_cached(
    cache: Arc<SnapshotCache>,
    path: impl AsRef<Path>,
    theta: f64,
    addr: &str,
    config: ServerConfig,
) -> Result<ServerHandle> {
    serve_backend(Arc::new(EngineBackend::from_cache(cache, path, theta)), addr, config)
}

/// Starts a server over any [`QueryBackend`] — the entry point the
/// sharded router uses. [`serve`] and [`serve_cached`] are thin wrappers
/// over this with an [`EngineBackend`].
pub fn serve_backend(
    backend: Arc<dyn QueryBackend>,
    addr: &str,
    config: ServerConfig,
) -> Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    // Snapshot-shape gauges let `/metrics` describe what is being served.
    // A cached source may not be loadable yet — the server still starts
    // (degraded), so a warm-up failure only skips the gauges.
    if let Some((cells, groups)) = backend.snapshot_shape() {
        config.registry.gauge("serve.snapshot.cells").set(cells as f64);
        config.registry.gauge("serve.snapshot.groups").set(groups as f64);
    }
    let metrics = Arc::new(ServerMetrics::new(config.registry.clone()));
    let source = backend;
    let inflight = Arc::new(AtomicUsize::new(0));

    let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..config.threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let source = Arc::clone(&source);
            let config = config.clone();
            let metrics = Arc::clone(&metrics);
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || loop {
                // Holding the lock only while receiving keeps the pool
                // work-stealing: whichever worker is free takes the next
                // connection.
                let (stream, accepted) = match rx.lock().expect("worker queue poisoned").recv() {
                    Ok(s) => s,
                    Err(_) => return, // channel closed: shutting down
                };
                let _guard = InflightGuard(Arc::clone(&inflight));
                // A panicking handler (bug, or an injected fault) must not
                // shrink the pool: catch it, count it, drop the
                // connection, move on.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, &source, &config, &metrics, accepted);
                }));
                if outcome.is_err() {
                    metrics.panics_recovered.inc();
                }
            })
        })
        .collect();

    let flag = Arc::clone(&shutdown);
    let acceptor_config = config.clone();
    let acceptor_metrics = Arc::clone(&metrics);
    let acceptor = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                // Admission control: past the in-flight bound, shed right
                // here — a tiny fixed write, so a full pool can never grow
                // an unbounded backlog of parked connections.
                if acceptor_config.max_inflight > 0
                    && inflight.load(Ordering::SeqCst) >= acceptor_config.max_inflight
                {
                    acceptor_metrics.shed_queue.inc();
                    acceptor_metrics.errors_total.inc();
                    respond(
                        &stream,
                        503,
                        CONTENT_TYPE_JSON,
                        &json_error("server at capacity, request shed"),
                        &retry_after(&acceptor_config),
                    );
                    continue;
                }
                inflight.fetch_add(1, Ordering::SeqCst);
                // A send only fails when every worker died; stop accepting
                // rather than spin.
                if tx.send((stream, Instant::now())).is_err() {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
        }
        drop(tx); // close the channel so idle workers exit
        for w in workers {
            let _ = w.join();
        }
    });

    Ok(ServerHandle { addr: local, shutdown, acceptor: Some(acceptor) })
}

/// The `Retry-After` header for shed responses, whole seconds ≥ 1.
fn retry_after(config: &ServerConfig) -> [(&'static str, String); 1] {
    let secs = config.retry_after.as_secs().max(1);
    [("Retry-After", secs.to_string())]
}

fn handle_connection(
    stream: TcpStream,
    source: &Arc<dyn QueryBackend>,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    accepted: Instant,
) {
    let deadline = config.deadline.map(|d| accepted + d);
    let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
    let shed_deadline = |stream: &TcpStream| {
        metrics.shed_deadline.inc();
        metrics.errors_total.inc();
        respond(
            stream,
            503,
            CONTENT_TYPE_JSON,
            &json_error("deadline exceeded, request shed"),
            &retry_after(config),
        );
    };
    // Deadline check 1: the request may have aged out while queued.
    if expired(deadline) {
        shed_deadline(&stream);
        return;
    }
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    // The head reader stops one byte past the cap, so neither a long
    // request line nor a long header line is ever buffered beyond it.
    let cap = config.max_request_bytes;
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s.take((cap as u64).saturating_add(1)),
        Err(_) => return,
    });
    let too_large = || {
        metrics.requests_total.inc();
        metrics.errors_total.inc();
        respond(&stream, 431, CONTENT_TYPE_JSON, &json_error("request head too large"), &[]);
    };
    let mut request_line = String::new();
    let mut total = match reader.read_line(&mut request_line) {
        Ok(n) => n,
        Err(_) => return, // timeout or reset before a full request line
    };
    if total > cap {
        too_large();
        return;
    }
    // Drain the headers (ignored — no endpoint needs them) up to the cap.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                if total > cap {
                    too_large();
                    return;
                }
                if line == "\r\n" || line == "\n" {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    // The panic-injection hook: models a handler crash after a complete
    // request was read. The worker's catch_unwind recovers the pool; the
    // client sees the connection close with no response.
    if let Some(plan) = &config.fault_plan {
        plan.maybe_panic("serve.worker");
    }
    // Deadline check 2: a slow client may have eaten the budget.
    if expired(deadline) {
        shed_deadline(&stream);
        return;
    }
    let (status, content_type, body, stale, partial) =
        route(request_line.trim_end(), source.as_ref(), metrics);
    let mut headers: Vec<(&'static str, String)> = Vec::new();
    if stale {
        headers.push(("X-SR-Stale", "1".to_string()));
    }
    if let Some(missing) = partial {
        headers.push(("X-SR-Partial", missing));
    }
    respond(&stream, status, content_type, &body, &headers);
}

const CONTENT_TYPE_JSON: &str = "application/json";
const CONTENT_TYPE_METRICS: &str = "text/plain; version=sr-metrics-v1";

/// Parses the request line and dispatches to the endpoint handlers, with
/// per-endpoint telemetry. Returns
/// `(status, content_type, body, stale, partial)` — `partial` is the
/// `X-SR-Partial` header value when shards are missing — and never panics
/// on malformed input.
fn route(
    request_line: &str,
    source: &dyn QueryBackend,
    m: &ServerMetrics,
) -> (u16, &'static str, String, bool, Option<String>) {
    // Any parsed-enough-to-answer request counts, even a malformed one.
    m.requests_total.inc();
    let bad = |status: u16, message: &str| {
        m.errors_total.inc();
        (status, CONTENT_TYPE_JSON, json_error(message), false, None)
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return bad(400, "malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return bad(400, "unsupported protocol version");
    }
    if method != "GET" {
        return bad(405, "only GET is supported");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params: HashMap<&str, &str> =
        query.split('&').filter(|kv| !kv.is_empty()).filter_map(|kv| kv.split_once('=')).collect();

    let (em, span_name): (&EndpointMetrics, &'static str) = match path {
        "/point" => (&m.point, "serve.point"),
        "/window" => (&m.window, "serve.window"),
        "/knn" => (&m.knn, "serve.knn"),
        "/stats" => (&m.stats, "serve.stats"),
        "/metrics" => (&m.metrics, "serve.metrics"),
        "/healthz" => (&m.healthz, "serve.healthz"),
        _ => return bad(404, "unknown path"),
    };
    // Count before the handler runs so /stats and /metrics include the
    // request being served; record latency after the body is built.
    em.requests.inc();
    let start = Instant::now();
    let mut span = sr_obs::span(span_name);
    // Engine-backed endpoints resolve their engine(s) per request (a
    // static source is free; a cached source reloads / degrades here).
    // /metrics and /healthz deliberately do not: telemetry and health
    // reporting must survive snapshot loss.
    type Routed = std::result::Result<(u16, String, bool, Vec<u32>), BackendUnavailable>;
    let routed: Routed = match path {
        "/point" => handle_point(source, &params),
        "/window" => handle_window(source, &params),
        "/knn" => handle_knn(source, &params),
        "/stats" => {
            source.stats_fields().map(|a| (200, stats_json(&a.value, m), a.stale, a.missing_shards))
        }
        "/healthz" => Ok((200, source.health(), false, Vec::new())),
        _ => Ok((200, m.registry.render_text(), false, Vec::new())),
    };
    let (status, content_type, body, stale, missing) = match routed {
        Ok((status, body, stale, missing)) => {
            let ct = if path == "/metrics" { CONTENT_TYPE_METRICS } else { CONTENT_TYPE_JSON };
            (status, ct, body, stale, missing)
        }
        Err(BackendUnavailable(message)) => {
            m.unavailable.inc();
            (503, CONTENT_TYPE_JSON, json_error(&message), false, Vec::new())
        }
    };
    em.latency.record(start.elapsed());
    span.record("status", u64::from(status));
    if stale {
        span.record("stale", true);
    }
    if !missing.is_empty() {
        span.record("missing_shards", missing.len() as u64);
    }
    if status >= 400 {
        m.errors_total.inc();
    }
    let partial = (!missing.is_empty())
        .then(|| missing.iter().map(u32::to_string).collect::<Vec<_>>().join(","));
    (status, content_type, body, stale, partial)
}

fn param_f64(params: &HashMap<&str, &str>, key: &str) -> std::result::Result<f64, String> {
    let raw = params.get(key).ok_or_else(|| format!("missing parameter '{key}'"))?;
    raw.parse::<f64>().map_err(|_| format!("parameter '{key}' is not a number"))
}

type Handled = std::result::Result<(u16, String, bool, Vec<u32>), BackendUnavailable>;

fn handle_point(backend: &dyn QueryBackend, params: &HashMap<&str, &str>) -> Handled {
    let (lat, lon) = match (param_f64(params, "lat"), param_f64(params, "lon")) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return Ok((400, json_error(&e), false, Vec::new())),
    };
    let answer = backend.point(lat, lon)?;
    let body = match &answer.value {
        None => "{\"inside\":false}".to_string(),
        Some(ans) => {
            let values = match &ans.values {
                Some(vals) => json_f64_array(vals),
                None => "null".to_string(),
            };
            format!(
                "{{\"inside\":true,\"row\":{},\"col\":{},\"cell\":{},\"group\":{},\"values\":{values}}}",
                ans.row, ans.col, ans.cell, ans.group
            )
        }
    };
    Ok((200, body, answer.stale, answer.missing_shards))
}

fn handle_window(backend: &dyn QueryBackend, params: &HashMap<&str, &str>) -> Handled {
    let mut coords = [0.0f64; 4];
    for (slot, key) in coords.iter_mut().zip(["lat0", "lat1", "lon0", "lon1"]) {
        match param_f64(params, key) {
            Ok(v) => *slot = v,
            Err(e) => return Ok((400, json_error(&e), false, Vec::new())),
        }
    }
    let answer = backend.window(coords[0], coords[1], coords[2], coords[3])?;
    let (names, ans) = &answer.value;
    let attrs: Vec<String> = ans
        .per_attr
        .iter()
        .enumerate()
        .map(|(k, a)| {
            format!(
                "{{\"name\":{},\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
                json_string(&names[k]),
                a.count,
                json_f64(a.sum),
                a.mean().map_or("null".to_string(), json_f64),
                a.min.map_or("null".to_string(), json_f64),
                a.max.map_or("null".to_string(), json_f64),
            )
        })
        .collect();
    let body = format!(
        "{{\"cells\":{},\"valid_cells\":{},\"groups\":{},\"attrs\":[{}]}}",
        ans.cells,
        ans.valid_cells,
        ans.groups,
        attrs.join(",")
    );
    Ok((200, body, answer.stale, answer.missing_shards))
}

fn handle_knn(backend: &dyn QueryBackend, params: &HashMap<&str, &str>) -> Handled {
    let (lat, lon) = match (param_f64(params, "lat"), param_f64(params, "lon")) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return Ok((400, json_error(&e), false, Vec::new())),
    };
    let k = match params.get("k").map_or(Ok(5), |raw| raw.parse::<usize>()) {
        Ok(k) if k > 0 && k <= 10_000 => k,
        _ => {
            return Ok((
                400,
                json_error("parameter 'k' must be an integer in 1..=10000"),
                false,
                Vec::new(),
            ))
        }
    };
    let answer = backend.knn(lat, lon, k)?;
    let neighbors: Vec<String> = answer
        .value
        .iter()
        .map(|nb| {
            format!(
                "{{\"group\":{},\"lat\":{},\"lon\":{},\"distance\":{},\"values\":{}}}",
                nb.group,
                json_f64(nb.lat),
                json_f64(nb.lon),
                json_f64(nb.distance),
                json_f64_array(&nb.values)
            )
        })
        .collect();
    let body = format!("{{\"neighbors\":[{}]}}", neighbors.join(","));
    Ok((200, body, answer.stale, answer.missing_shards))
}

/// Backend summary fields plus the same request/shed counters `/metrics`
/// reports — both read the very same [`Counter`]s, so the two endpoints
/// can never disagree.
fn stats_json(backend_fields: &str, m: &ServerMetrics) -> String {
    format!(
        "{{{backend_fields},\"requests\":{{\"point\":{},\"window\":{},\"knn\":{},\
         \"stats\":{},\"metrics\":{},\"healthz\":{},\"total\":{},\"errors\":{}}},\
         \"shed\":{{\"queue\":{},\"deadline\":{}}},\"stale_serves\":{}}}",
        m.point.requests.get(),
        m.window.requests.get(),
        m.knn.requests.get(),
        m.stats.requests.get(),
        m.metrics.requests.get(),
        m.healthz.requests.get(),
        m.requests_total.get(),
        m.errors_total.get(),
        m.shed_queue.get(),
        m.shed_deadline.get(),
        m.stale_serves.get(),
    )
}

fn respond(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&'static str, String)],
) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut headers = String::new();
    for (name, value) in extra_headers {
        headers.push_str(name);
        headers.push_str(": ");
        headers.push_str(value);
        headers.push_str("\r\n");
    }
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{headers}Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

fn json_error(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

/// JSON number for an `f64`. Rust's `Display` prints the shortest string
/// that parses back to the same bits, so finite values round-trip exactly;
/// non-finite values (unrepresentable in JSON) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(","))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_round_trips_and_handles_nonfinite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        let v = 1.0 / 3.0;
        assert_eq!(json_f64(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn route_rejects_malformed_without_panicking() {
        let source = test_source();
        let m = test_metrics();
        for bad in [
            "",
            "GARBAGE",
            "GET",
            "GET /point",
            "FOO /point?lat=1&lon=1 HTTP/1.1",
            "GET /point?lat=abc&lon=1 HTTP/1.1",
            "GET /point?lon=1 HTTP/1.1",
            "GET /knn?lat=1&lon=1&k=0 HTTP/1.1",
            "GET /knn?lat=1&lon=1&k=-3 HTTP/1.1",
            "GET /window?lat0=1 HTTP/1.1",
            "GET /point?lat=1&lon=1 SPDY/9",
        ] {
            let (status, _, body, _, _) = route(bad, &source, &m);
            assert!((400..=405).contains(&status), "'{bad}' gave status {status}");
            assert!(body.contains("error"), "'{bad}' body: {body}");
        }
        let (status, _, _, _, _) = route("GET /nope HTTP/1.1", &source, &m);
        assert_eq!(status, 404);
        assert_eq!(m.errors_total.get(), 12);
        assert_eq!(m.requests_total.get(), 12);
    }

    #[test]
    fn route_answers_wellformed() {
        let source = test_source();
        let m = test_metrics();
        let (status, ct, body, stale, partial) = route("GET /stats HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert_eq!(ct, CONTENT_TYPE_JSON);
        assert!(body.contains("\"groups\""));
        assert!(body.contains("\"shards\":{\"healthy\":1,\"browned_out\":0}"), "{body}");
        assert!(body.contains("\"shed\":{\"queue\":0,\"deadline\":0}"), "{body}");
        assert!(!stale, "a static source is never stale");
        assert!(partial.is_none(), "a static source is never partial");
        let (status, _, body, _, _) = route("GET /point?lat=0.5&lon=0.5 HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(body.contains("\"inside\":true"));
        let (status, _, body, _, _) = route("GET /point?lat=9&lon=9 HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(body.contains("\"inside\":false"));
        let (status, _, body, _, _) =
            route("GET /window?lat0=0&lat1=1&lon0=0&lon1=1 HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(body.contains("\"attrs\""));
        let (status, _, body, _, _) = route("GET /knn?lat=0.5&lon=0.5&k=2 HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(body.contains("\"neighbors\""));
        let (status, _, body, _, _) = route("GET /healthz HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"shards\":[{\"id\":0,\"state\":\"healthy\""), "{body}");
    }

    #[test]
    fn route_serves_metrics_and_counts_requests() {
        let source = test_source();
        let m = test_metrics();
        route("GET /point?lat=0.5&lon=0.5 HTTP/1.1", &source, &m);
        route("GET /point?lat=0.5&lon=0.5 HTTP/1.1", &source, &m);
        let (status, _, stats, _, _) = route("GET /stats HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(stats.contains("\"requests\":{\"point\":2,"), "stats: {stats}");
        let (status, ct, body, _, _) = route("GET /metrics HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert_eq!(ct, CONTENT_TYPE_METRICS);
        assert!(body.contains("counter serve.point.requests_total 2"), "metrics: {body}");
        assert!(body.contains("counter serve.requests_total 4"), "metrics: {body}");
        assert!(body.contains("histogram serve.point.latency_ns count 2"), "metrics: {body}");
        assert!(body.contains("counter shed.queue_total 0"), "metrics: {body}");
        // /stats and /metrics read the same counters: re-render agrees.
        assert_eq!(m.point.requests.get(), 2);
        assert_eq!(m.metrics.requests.get(), 1);
        assert_eq!(m.stats.requests.get(), 1);
    }

    #[test]
    fn missing_cached_snapshot_degrades_engine_endpoints_only() {
        let cache = Arc::new(SnapshotCache::new(1));
        let source = EngineBackend::from_cache(cache, "/nonexistent/missing.snap", 0.05);
        let m = test_metrics();
        let (status, _, body, stale, _) = route("GET /point?lat=0&lon=0 HTTP/1.1", &source, &m);
        assert_eq!(status, 503);
        assert!(body.contains("snapshot unavailable"), "{body}");
        assert!(!stale);
        assert_eq!(m.unavailable.get(), 1);
        // Telemetry and health reporting must survive snapshot loss.
        let (status, _, body, _, _) = route("GET /metrics HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(body.contains("counter serve.snapshot_unavailable_total 1"), "{body}");
        let (status, _, body, _, _) = route("GET /healthz HTTP/1.1", &source, &m);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("\"state\":\"browned_out\""), "{body}");
    }

    fn test_metrics() -> ServerMetrics {
        ServerMetrics::new(Registry::new())
    }

    fn test_source() -> EngineBackend {
        use crate::snapshot::Snapshot;
        let vals: Vec<f64> = (0..36).map(|i| 10.0 + (i / 6) as f64 * 0.2).collect();
        let grid = sr_grid::GridDataset::univariate(6, 6, vals).unwrap();
        let out = sr_core::repartition(&grid, 0.05).unwrap();
        EngineBackend::from_engine(Arc::new(QueryEngine::new(
            Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap(),
        )))
    }
}
