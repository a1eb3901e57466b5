//! # retroweb-service — a multi-threaded extraction server
//!
//! The paper's §3.5 repository exists so "external agents, for instance
//! the XML extractor" can apply recorded rules at scale. This crate is
//! that serving layer: a std-only HTTP/1.1 server (`std::net` sockets
//! multiplexed by one `poll(2)` loop per worker thread — no network
//! dependencies) exposing the rule repository and the compiled-rule
//! extraction pipeline:
//!
//! | Endpoint | Role |
//! |---|---|
//! | `POST /extract/{cluster}` | one HTML page → extracted XML |
//! | `POST /extract/{cluster}/batch` | JSON page array → parallel extraction **streamed** as chunked XML (or NDJSON via `Accept: application/x-ndjson`) |
//! | `GET`/`PUT`/`DELETE /clusters/{name}` | rule CRUD over `retroweb-json` persistence |
//! | `POST /check/{cluster}` | §7 failure detection (drift report) on submitted pages |
//! | `GET /healthz`, `GET /metrics` | liveness, counters, latency histograms |
//!
//! **Streaming batches:** the batch endpoint drives the extraction
//! sinks (`retrozilla::ExtractionSink`) straight into the connection's
//! socket, which its loop lends to a streamer thread for the length of
//! the reply — first bytes on the wire after the first page, server
//! memory O(threads) instead of O(batch), concatenated XML
//! byte-identical to the materialised document.
//!
//! **Sharded repository:** the in-memory store is a
//! `retrozilla::ShardedRepository` used exclusively through the
//! `retrozilla::ClusterStore` storage trait — each shard is one map
//! behind its own mutex, held by a read (extraction, `GET`s, metrics)
//! only to clone an `Arc` out of it, and by a `PUT` only to update the
//! one shard its cluster hashes to. With a repository path, the
//! state's one persistence handle is a `retrozilla::DurableRepository`
//! opened over that path: it owns the on-disk layout (a `<repo>.d/`
//! directory with one snapshot + WAL pair per shard, parallel replay,
//! per-shard compaction; see the README's durability section), and
//! handlers mutate through it directly.
//!
//! **Hot rule reload for free:** every extraction runs through the
//! store's compiled-cluster cache, and `PUT /clusters/{name}`
//! re-records the cluster, which invalidates that cache — so the next
//! request executes the new rules, with no restart and no dropped
//! in-flight requests.
//!
//! **One front end:** `threads` event loops ([`evented`]) each own a
//! share of the connections and run every complete request inline, so
//! an idle keep-alive connection costs a poller registration, never a
//! thread. Unix only: elsewhere [`Server::start`] returns
//! `Unsupported`.
//!
//! **Graceful shutdown:** [`ServerHandle::shutdown`] stops accepting,
//! lets every loop finish its in-flight requests, and joins all
//! threads; accepted requests are never dropped on the floor.
//!
//! Ship form: the `retrozilla-serve` binary (`--repo rules.json` to
//! persist, importing a saved `rules.json` on first start; `--lint` to
//! audit that repository offline). See the crate README for a curl
//! walkthrough.

#[cfg(unix)]
pub mod evented;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod testdata;

pub use http::{request_once, Client, ClientResponse, Reply, Request, Response, StreamingResponse};
pub use metrics::{Endpoint, Histogram, Metrics};

use retrozilla::{ClusterStore, DurableRepository, RepositorySnapshot, ShardedRepository};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Event-loop threads; each owns its share of the connections and
    /// runs their requests.
    pub threads: usize,
    /// When set, `PUT`/`DELETE /clusters` are durable: the repository
    /// at this path is opened with [`DurableRepository::open`], which
    /// decides the files it lives in (see [`retrozilla::layout_dir`]).
    pub repo_path: Option<PathBuf>,
    /// Mutations folded into a shard's snapshot per compaction.
    pub compact_every: u64,
    /// Repository shards. A read locks its shard's map only to clone
    /// an `Arc`; more shards spread writer contention and WAL fsyncs.
    /// Sizes a new repository layout; an existing layout's manifest
    /// fixes its own count.
    pub shards: usize,
    /// Admission cap on concurrently open connections, across all
    /// loops; beyond it new arrivals are shed with `503` +
    /// `Connection: close`.
    pub max_conns: usize,
    /// A connection that has sent part of a request head must complete
    /// it within this window (slowloris defence) or the loop answers
    /// `408` and closes.
    pub header_timeout: Duration,
    /// Idle keep-alive connections (no request in progress) are closed
    /// after this long.
    pub idle_timeout: Duration,
    /// A connection that stops draining a pending response for this
    /// long is dropped (write-stall defence).
    pub write_stall_timeout: Duration,
    /// Reject `PUT /clusters/{name}` bodies whose rules carry
    /// error-level lint findings (provably-empty XPaths, unsatisfiable
    /// predicates) with a `400` carrying the diagnostics. Warnings are
    /// reported in the response body either way.
    pub strict_lint: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            repo_path: None,
            compact_every: 1024,
            shards: 8,
            max_conns: 4096,
            header_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            write_stall_timeout: Duration::from_secs(30),
            strict_lint: false,
        }
    }
}

/// State shared by every loop: the durable rule repository (the
/// sharded store, one map lock per shard + per-entry compiled-rule
/// caches, behind per-shard WAL/snapshot persistence), the metrics, and
/// the shutdown flag.
pub struct ServiceState {
    durable: DurableRepository,
    metrics: Metrics,
    strict_lint: bool,
    shutting_down: AtomicBool,
    /// Event-loop count, for the `/metrics` worker gauges.
    threads: usize,
}

impl ServiceState {
    /// The rule store, through the [`ClusterStore`] storage API — the
    /// only repository surface handlers use.
    pub fn repo(&self) -> &dyn ClusterStore {
        self.durable.store().as_ref()
    }

    /// The persistence layer: mutations (durable before they are
    /// acknowledged) and WAL counters.
    pub fn durable(&self) -> &DurableRepository {
        &self.durable
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether `PUT /clusters/{name}` rejects rule sets with
    /// error-level lint findings.
    pub fn strict_lint(&self) -> bool {
        self.strict_lint
    }

    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Live event-loop gauges for `/metrics`.
    pub fn worker_snapshot(&self) -> metrics::WorkerSnapshot {
        self.metrics.worker_snapshot(self.threads)
    }
}

/// A bound-but-not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    config: ServerConfig,
}

impl Server {
    /// Bind the listener and wrap the repository in shared state.
    ///
    /// Without `repo_path`, the `seed` clusters are recorded into an
    /// in-memory store and mutations are not persisted. With it, the
    /// repository is [`DurableRepository::open`]ed (one snapshot + log
    /// per shard, replayed in parallel). The seed only initialises a
    /// brand-new layout, inside its crash-safe first-start commit; an
    /// existing layout's replayed history (including deletions) is
    /// authoritative and the seed is ignored.
    pub fn bind(seed: RepositorySnapshot, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let durable = match &config.repo_path {
            Some(repo) => {
                DurableRepository::open(repo, config.shards, config.compact_every, Some(&seed))
                    .map_err(io::Error::other)?
            }
            None => {
                let store = ShardedRepository::new(config.shards);
                for (_, rules) in seed.iter() {
                    store.record(rules.clone());
                }
                DurableRepository::ephemeral(Arc::new(store))
            }
        };
        let state = Arc::new(ServiceState {
            durable,
            metrics: Metrics::new(),
            strict_lint: config.strict_lint,
            shutting_down: AtomicBool::new(false),
            threads: config.threads.max(1),
        });
        Ok(Server { listener, state, config })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawn the event loops; returns the control handle. Needs
    /// `poll(2)`: elsewhere this returns `Unsupported`.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let Server { listener, state, config } = self;
        #[cfg(unix)]
        {
            let loops = evented::spawn_loops(listener, Arc::clone(&state), &config)?;
            Ok(ServerHandle { addr, state, loops: Some(loops) })
        }
        #[cfg(not(unix))]
        {
            let _ = (listener, state, config, addr);
            Err(io::Error::new(io::ErrorKind::Unsupported, "the front end needs poll(2)"))
        }
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    #[cfg(unix)]
    loops: Option<evented::Loops>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, let every loop finish its
    /// in-flight requests, join every thread. Idle keep-alive
    /// connections are closed at once.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Block until the server stops (i.e. until some other shutdown
    /// path, such as SIGKILL, takes the process down).
    pub fn join(mut self) {
        #[cfg(unix)]
        if let Some(loops) = self.loops.take() {
            loops.join();
        }
    }

    fn stop(&mut self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        if let Some(loops) = self.loops.take() {
            loops.wake_all();
            loops.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
