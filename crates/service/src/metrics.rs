//! Live service metrics: lock-free atomic counters plus fixed-bucket
//! latency histograms, rendered as JSON by `GET /metrics`.
//!
//! Everything here is written on the request hot path, so recording is a
//! handful of relaxed atomic increments — no locks, no allocation.
//! Quantiles are estimated from the histogram buckets (the reported
//! p50/p99 is the upper bound of the bucket holding that rank), which is
//! the usual precision/overhead trade for serving metrics.

use retroweb_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Endpoint families tracked separately (one histogram each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Healthz,
    Metrics,
    Clusters,
    Lint,
    Extract,
    ExtractBatch,
    Check,
    Other,
}

impl Endpoint {
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Clusters,
        Endpoint::Lint,
        Endpoint::Extract,
        Endpoint::ExtractBatch,
        Endpoint::Check,
        Endpoint::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Clusters => "clusters",
            Endpoint::Lint => "lint",
            Endpoint::Extract => "extract",
            Endpoint::ExtractBatch => "extract-batch",
            Endpoint::Check => "check",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL.iter().position(|e| *e == self).expect("endpoint in ALL")
    }
}

/// Log-linear buckets: values below `2^SUB_BITS` µs get a bucket each,
/// and every power-of-two range above is split into `2^SUB_BITS` equal
/// buckets, so a reported quantile is within 12.5% of the true value
/// from 1 µs up to [`TRACKED_US`] (~67 s). One overflow bucket follows.
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// First value past the tracked range: `2^26` µs.
const TRACKED_US: u64 = 1 << 26;
const BUCKETS: usize = (26 - SUB_BITS as usize + 1) * SUB_BUCKETS + 1;

/// Bucket index of a latency in microseconds.
fn bucket_of(us: u64) -> usize {
    if us >= TRACKED_US {
        return BUCKETS - 1;
    }
    if us < SUB_BUCKETS as u64 {
        return us as usize;
    }
    // `us` lies in [2^exp, 2^(exp+1)); its top SUB_BITS + 1 bits pick
    // the linear sub-bucket inside that range.
    let exp = 63 - us.leading_zeros();
    let top = (us >> (exp - SUB_BITS)) as usize;
    (exp - SUB_BITS) as usize * SUB_BUCKETS + top
}

/// Largest latency in microseconds that lands in tracked bucket `idx`.
fn bucket_upper_us(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let shift = (idx / SUB_BUCKETS - 1) as u32;
    let top = (idx % SUB_BUCKETS + SUB_BUCKETS) as u64;
    ((top + 1) << shift) - 1
}

/// Log-linear latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated quantile in milliseconds: the upper bound of the bucket
    /// containing the rank (the mean for overflow-bucket ranks).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                if i < BUCKETS - 1 {
                    return bucket_upper_us(i) as f64 / 1_000.0;
                }
                break;
            }
        }
        self.mean_ms().max(TRACKED_US as f64 / 1_000.0)
    }

    pub fn mean_ms(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / count as f64 / 1_000.0
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("count".into(), Json::from(self.count() as usize)),
            ("mean_ms".into(), Json::from(round3(self.mean_ms()))),
            ("p50_ms".into(), Json::from(self.quantile_ms(0.50))),
            ("p99_ms".into(), Json::from(self.quantile_ms(0.99))),
        ])
    }
}

#[derive(Debug, Default)]
struct PerEndpoint {
    requests: AtomicU64,
    latency: Histogram,
}

/// All service counters. One instance lives in the shared service state;
/// handlers and the connection loop update it with relaxed atomics.
#[derive(Debug, Default)]
pub struct Metrics {
    requests_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    pages_extracted: AtomicU64,
    failures_detected: AtomicU64,
    /// Response-body bytes produced by streamed (chunked) replies —
    /// pre-framing, i.e. what the client decodes.
    bytes_streamed: AtomicU64,
    rule_reloads: AtomicU64,
    connections: AtomicU64,
    /// Front-end gauges and totals: connections currently open /
    /// requests currently in flight, plus shed (503 at max-conns),
    /// deadline-closed, and pipelined-request totals. Accepted
    /// connections are the `connections` counter above.
    evented_open: AtomicU64,
    evented_active: AtomicU64,
    evented_shed: AtomicU64,
    evented_timed_out: AtomicU64,
    evented_pipelined: AtomicU64,
    /// Event loops currently inside a handler, and the peak of that.
    loops_busy: AtomicU64,
    loops_busy_high_water: AtomicU64,
    /// Lint findings observed at `PUT /clusters/{name}` time, one
    /// counter per analyzer code (parallel to `retrozilla::LINT_CODES`).
    /// These are *observed-at-the-door* totals; the current state of
    /// the repository lives in the `RepositoryStats` severity gauges.
    lint_observed: [AtomicU64; LINT_CODE_COUNT],
    /// `PUT`s rejected by strict-lint mode (error-level findings).
    lint_strict_rejections: AtomicU64,
    /// `PUT`s rejected because a rule's XPath failed to parse.
    lint_parse_rejections: AtomicU64,
    per_endpoint: [PerEndpoint; Endpoint::ALL.len()],
}

/// Length of the analyzer's stable code list — fixes the per-code
/// counter array at compile time.
const LINT_CODE_COUNT: usize = retrozilla::LINT_CODES.len();

/// Event-loop gauges for `/metrics`: loop count, loops inside a
/// handler right now, and the peak of that.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerSnapshot {
    pub threads: usize,
    pub busy: usize,
    pub busy_high_water: usize,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one completed request.
    pub fn observe(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let per = &self.per_endpoint[endpoint.index()];
        per.requests.fetch_add(1, Ordering::Relaxed);
        per.latency.record(elapsed);
    }

    pub fn add_pages_extracted(&self, n: usize) {
        self.pages_extracted.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub fn add_failures_detected(&self, n: usize) {
        self.failures_detected.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub fn add_bytes_streamed(&self, n: u64) {
        self.bytes_streamed.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_rule_reload(&self) {
        self.rule_reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold the lint findings of one `PUT` body into the per-code
    /// observation counters.
    pub fn observe_lint(&self, lint: &retrozilla::ClusterLint) {
        for finding in &lint.diagnostics {
            if let Some(i) =
                retrozilla::LINT_CODES.iter().position(|c| *c == finding.diagnostic.code)
            {
                self.lint_observed[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A `PUT` was rejected by strict-lint mode.
    pub fn add_strict_lint_rejection(&self) {
        self.lint_strict_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// A `PUT` was rejected because a rule's XPath failed to parse.
    pub fn add_lint_parse_rejection(&self) {
        self.lint_parse_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was admitted (counted from accept until its slot
    /// is released; the cross-loop `max_conns` check reads this).
    pub fn conn_opened(&self) {
        self.evented_open.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection's slot was released.
    pub fn conn_closed(&self) {
        self.evented_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// A parsed request is being handled.
    pub fn request_started(&self) {
        self.evented_active.fetch_add(1, Ordering::Relaxed);
    }

    /// That request's response is fully on the wire (or the connection
    /// died trying).
    pub fn request_finished(&self) {
        self.evented_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// A loop entered a handler.
    pub fn handler_entered(&self) {
        let busy = self.loops_busy.fetch_add(1, Ordering::Relaxed) + 1;
        self.loops_busy_high_water.fetch_max(busy, Ordering::Relaxed);
    }

    /// A loop left a handler.
    pub fn handler_left(&self) {
        self.loops_busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// The worker gauges of a server running `threads` loops.
    pub fn worker_snapshot(&self, threads: usize) -> WorkerSnapshot {
        WorkerSnapshot {
            threads,
            busy: self.loops_busy.load(Ordering::Relaxed) as usize,
            busy_high_water: self.loops_busy_high_water.load(Ordering::Relaxed) as usize,
        }
    }

    pub fn add_shed(&self) {
        self.evented_shed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_timed_out(&self) {
        self.evented_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_pipelined(&self) {
        self.evented_pipelined.fetch_add(1, Ordering::Relaxed);
    }

    pub fn open_connections(&self) -> u64 {
        self.evented_open.load(Ordering::Relaxed)
    }

    /// Full snapshot for `GET /metrics`, folding in the repository's
    /// per-shard compiled-cache counters (their sum, plus the per-shard
    /// gauges when the store has more than one shard), the event-loop
    /// gauges, and — when the server persists through write-ahead logs —
    /// the per-log append/compaction/replay counters (again their sum,
    /// plus the breakdown when there is more than one log).
    pub fn to_json(
        &self,
        repo_shards: &[retrozilla::RepositoryStats],
        wal_shards: Option<&[retrozilla::WalStats]>,
        workers: WorkerSnapshot,
    ) -> Json {
        let mut repo = retrozilla::RepositoryStats::default();
        for shard in repo_shards {
            repo.accumulate(shard);
        }
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed) as usize);
        let by_endpoint = Endpoint::ALL
            .iter()
            .map(|e| (e.name().to_string(), load(&self.per_endpoint[e.index()].requests)))
            .collect();
        let latency = Endpoint::ALL
            .iter()
            .filter(|e| self.per_endpoint[e.index()].latency.count() > 0)
            .map(|e| (e.name().to_string(), self.per_endpoint[e.index()].latency.to_json()))
            .collect();
        let mut root = Json::object(vec![
            (
                "requests".into(),
                Json::object(vec![
                    ("total".into(), load(&self.requests_total)),
                    ("by_endpoint".into(), Json::Object(by_endpoint)),
                ]),
            ),
            (
                "responses".into(),
                Json::object(vec![
                    ("2xx".into(), load(&self.responses_2xx)),
                    ("4xx".into(), load(&self.responses_4xx)),
                    ("5xx".into(), load(&self.responses_5xx)),
                ]),
            ),
            ("pages_extracted".into(), load(&self.pages_extracted)),
            ("failures_detected".into(), load(&self.failures_detected)),
            ("bytes_streamed".into(), load(&self.bytes_streamed)),
            ("rule_reloads".into(), load(&self.rule_reloads)),
            ("repository".into(), {
                let mut section = repo_stats_json(&repo);
                if repo_shards.len() > 1 {
                    section.set(
                        "shards",
                        Json::Array(repo_shards.iter().map(repo_stats_json).collect()),
                    );
                }
                section
            }),
            ("fusion".into(), fusion_json(&repo)),
            ("lint".into(), self.lint_json(&repo)),
            ("evented".into(), {
                let open = self.evented_open.load(Ordering::Relaxed);
                let active = self.evented_active.load(Ordering::Relaxed);
                Json::object(vec![
                    ("open".into(), Json::from(open as usize)),
                    ("idle".into(), Json::from(open.saturating_sub(active) as usize)),
                    ("active".into(), Json::from(active as usize)),
                    ("accepted".into(), load(&self.connections)),
                    ("shed".into(), load(&self.evented_shed)),
                    ("timed_out".into(), load(&self.evented_timed_out)),
                    ("pipelined".into(), load(&self.evented_pipelined)),
                ])
            }),
            ("latency_ms".into(), Json::Object(latency)),
            (
                "workers".into(),
                Json::object(vec![
                    ("threads".into(), Json::from(workers.threads)),
                    ("busy".into(), Json::from(workers.busy)),
                    ("busy_high_water".into(), Json::from(workers.busy_high_water)),
                ]),
            ),
        ]);
        if let Some(shards) = wal_shards {
            let mut wal = retrozilla::WalStats::default();
            for shard in shards {
                wal.accumulate(shard);
            }
            let mut section = wal_stats_json(&wal);
            if shards.len() > 1 {
                section.set("per_shard", Json::Array(shards.iter().map(wal_stats_json).collect()));
            }
            root.set("wal", section);
        }
        root
    }

    /// The `lint` section: current-state severity gauges (from the
    /// repository's cached clusters, same walk as the fusion gauges)
    /// plus the PUT-time observation counters by analyzer code and the
    /// strict/parse rejection totals.
    fn lint_json(&self, repo: &retrozilla::RepositoryStats) -> Json {
        let observed = retrozilla::LINT_CODES
            .iter()
            .enumerate()
            .map(|(i, code)| {
                (
                    code.to_string(),
                    Json::from(self.lint_observed[i].load(Ordering::Relaxed) as usize),
                )
            })
            .collect();
        Json::object(vec![
            ("errors".into(), Json::from(repo.lint_errors)),
            ("warnings".into(), Json::from(repo.lint_warnings)),
            ("infos".into(), Json::from(repo.lint_infos)),
            ("error_clusters".into(), Json::from(repo.lint_error_clusters)),
            ("observed_by_code".into(), Json::Object(observed)),
            (
                "strict_rejections".into(),
                Json::from(self.lint_strict_rejections.load(Ordering::Relaxed) as usize),
            ),
            (
                "parse_rejections".into(),
                Json::from(self.lint_parse_rejections.load(Ordering::Relaxed) as usize),
            ),
        ])
    }
}

/// One repository-gauge object — shared by the aggregate `repository`
/// section and each entry of its per-shard breakdown.
fn repo_stats_json(repo: &retrozilla::RepositoryStats) -> Json {
    Json::object(vec![
        ("clusters".into(), Json::from(repo.clusters)),
        ("compiled_cache_entries".into(), Json::from(repo.compiled_cache_entries)),
        ("compiled_cache_hits".into(), Json::from(repo.compiled_cache_hits as usize)),
        ("compiled_cache_builds".into(), Json::from(repo.compiled_cache_builds as usize)),
        (
            "compiled_cache_invalidations".into(),
            Json::from(repo.compiled_cache_invalidations as usize),
        ),
    ])
}

/// The `fusion` section: how well the cached clusters' rule sets fused
/// into one-pass plans. `paths_fallback`/`fallback_clusters` make a rule
/// set that defeats the planner visible in production.
fn fusion_json(repo: &retrozilla::RepositoryStats) -> Json {
    Json::object(vec![
        ("plans".into(), Json::from(repo.fused_plans)),
        ("paths_fused".into(), Json::from(repo.fused_paths)),
        ("paths_fallback".into(), Json::from(repo.fused_fallback_paths)),
        ("fallback_clusters".into(), Json::from(repo.fused_fallback_clusters)),
        ("steps_total".into(), Json::from(repo.fused_steps_total)),
        ("steps_shared".into(), Json::from(repo.fused_steps_shared)),
    ])
}

/// One WAL-counter object — aggregate `wal` section and each per-shard
/// entry.
fn wal_stats_json(wal: &retrozilla::WalStats) -> Json {
    Json::object(vec![
        ("appended_records".into(), Json::from(wal.appended_records as usize)),
        ("appended_bytes".into(), Json::from(wal.appended_bytes as usize)),
        ("compactions".into(), Json::from(wal.compactions as usize)),
        ("since_compaction".into(), Json::from(wal.since_compaction as usize)),
        ("wal_bytes".into(), Json::from(wal.wal_bytes as usize)),
        ("replayed_records".into(), Json::from(wal.replayed_records as usize)),
        ("replay_torn_bytes".into(), Json::from(wal.replay_torn_bytes as usize)),
    ])
}

fn round3(x: f64) -> f64 {
    (x * 1_000.0).round() / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        for _ in 0..98 {
            h.record(Duration::from_micros(80)); // [80, 87] µs bucket
        }
        h.record(Duration::from_millis(40)); // [36864, 40959] µs bucket
        h.record(Duration::from_secs(90)); // overflow
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ms(0.50), 0.087);
        assert_eq!(h.quantile_ms(0.99), 40.959);
        assert!(h.quantile_ms(1.0) >= 60_000.0);
        assert!(h.mean_ms() > 0.0);
    }

    #[test]
    fn histogram_resolves_microsecond_latencies() {
        let h = Histogram::default();
        for _ in 0..1_000 {
            h.record(Duration::from_micros(21));
        }
        assert!(h.quantile_ms(0.50) < 0.03, "p50 {}", h.quantile_ms(0.50));
        assert_eq!(h.mean_ms(), 0.021);
    }

    #[test]
    fn buckets_are_contiguous_and_tight() {
        // Every value lands in a bucket whose upper bound covers it and
        // whose predecessor's does not, with at most 12.5% slack.
        let mut us = 0u64;
        while us < TRACKED_US {
            let idx = bucket_of(us);
            assert!(bucket_upper_us(idx) >= us, "{us} µs above its bucket");
            assert!(idx == 0 || bucket_upper_us(idx - 1) < us, "{us} µs below its bucket");
            assert!(bucket_upper_us(idx) - us <= us / 8, "{us} µs bucket too wide");
            us = us * 9 / 8 + 1;
        }
        assert_eq!(bucket_of(TRACKED_US - 1), BUCKETS - 2);
        assert_eq!(bucket_of(TRACKED_US), BUCKETS - 1);
    }

    #[test]
    fn observe_classifies_statuses() {
        let m = Metrics::new();
        m.observe(Endpoint::Extract, 200, Duration::from_micros(500));
        m.observe(Endpoint::Extract, 404, Duration::from_micros(500));
        m.observe(Endpoint::Check, 500, Duration::from_micros(500));
        m.add_pages_extracted(7);
        m.add_failures_detected(2);
        let json = m.to_json(&[], None, m.worker_snapshot(1));
        assert!(json.get("wal").is_none(), "no wal section outside WAL mode");
        assert_eq!(json.get("requests").unwrap().get("total").unwrap().as_u64(), Some(3));
        assert_eq!(json.get("responses").unwrap().get("2xx").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("responses").unwrap().get("4xx").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("responses").unwrap().get("5xx").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("pages_extracted").unwrap().as_u64(), Some(7));
        let by = json.get("requests").unwrap().get("by_endpoint").unwrap();
        assert_eq!(by.get("extract").unwrap().as_u64(), Some(2));
        assert!(json.get("latency_ms").unwrap().get("extract").is_some());
        assert!(json.get("latency_ms").unwrap().get("healthz").is_none());
    }

    #[test]
    fn wal_section_rendered_when_present() {
        let m = Metrics::new();
        let wal = retrozilla::WalStats {
            appended_records: 5,
            appended_bytes: 1234,
            compactions: 1,
            replayed_records: 3,
            replay_torn_bytes: 7,
            wal_bytes: 200,
            since_compaction: 2,
        };
        let json = m.to_json(&[], Some(&[wal]), m.worker_snapshot(1));
        let w = json.get("wal").expect("wal section");
        assert_eq!(w.get("appended_records").unwrap().as_u64(), Some(5));
        assert_eq!(w.get("appended_bytes").unwrap().as_u64(), Some(1234));
        assert_eq!(w.get("compactions").unwrap().as_u64(), Some(1));
        assert_eq!(w.get("replayed_records").unwrap().as_u64(), Some(3));
        assert_eq!(w.get("replay_torn_bytes").unwrap().as_u64(), Some(7));
        assert_eq!(w.get("wal_bytes").unwrap().as_u64(), Some(200));
        assert_eq!(w.get("since_compaction").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn fusion_section_rendered() {
        let m = Metrics::new();
        let repo = retrozilla::RepositoryStats {
            fused_plans: 2,
            fused_paths: 9,
            fused_fallback_paths: 1,
            fused_fallback_clusters: 1,
            fused_steps_total: 40,
            fused_steps_shared: 25,
            ..Default::default()
        };
        let json = m.to_json(&[repo], None, m.worker_snapshot(1));
        let f = json.get("fusion").expect("fusion section");
        assert_eq!(f.get("plans").unwrap().as_u64(), Some(2));
        assert_eq!(f.get("paths_fused").unwrap().as_u64(), Some(9));
        assert_eq!(f.get("paths_fallback").unwrap().as_u64(), Some(1));
        assert_eq!(f.get("fallback_clusters").unwrap().as_u64(), Some(1));
        assert_eq!(f.get("steps_total").unwrap().as_u64(), Some(40));
        assert_eq!(f.get("steps_shared").unwrap().as_u64(), Some(25));
    }

    #[test]
    fn lint_section_rendered() {
        let m = Metrics::new();
        m.add_strict_lint_rejection();
        m.add_lint_parse_rejection();
        let repo = retrozilla::RepositoryStats {
            lint_errors: 2,
            lint_warnings: 3,
            lint_infos: 1,
            lint_error_clusters: 1,
            ..Default::default()
        };
        let json = m.to_json(&[repo], None, m.worker_snapshot(1));
        let l = json.get("lint").expect("lint section");
        assert_eq!(l.get("errors").unwrap().as_u64(), Some(2));
        assert_eq!(l.get("warnings").unwrap().as_u64(), Some(3));
        assert_eq!(l.get("infos").unwrap().as_u64(), Some(1));
        assert_eq!(l.get("error_clusters").unwrap().as_u64(), Some(1));
        assert_eq!(l.get("strict_rejections").unwrap().as_u64(), Some(1));
        assert_eq!(l.get("parse_rejections").unwrap().as_u64(), Some(1));
        // One counter per analyzer code, keyed by the code itself.
        let by_code = l.get("observed_by_code").unwrap();
        for code in retrozilla::LINT_CODES {
            assert_eq!(by_code.get(code).unwrap().as_u64(), Some(0), "{code}");
        }
    }

    #[test]
    fn per_shard_gauges_rendered_when_sharded() {
        let m = Metrics::new();
        let shard = |clusters: usize, hits: u64| retrozilla::RepositoryStats {
            clusters,
            compiled_cache_hits: hits,
            ..Default::default()
        };
        let per_shard = [shard(2, 4), shard(3, 5)];
        let wal_shard =
            |records: u64| retrozilla::WalStats { appended_records: records, ..Default::default() };
        let wal_per_shard = [wal_shard(3), wal_shard(4)];
        let workers = m.worker_snapshot(1);
        let json = m.to_json(&per_shard, Some(&wal_per_shard), workers);
        let repo = json.get("repository").unwrap();
        assert_eq!(repo.get("clusters").unwrap().as_u64(), Some(5));
        let shards = repo.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("clusters").unwrap().as_u64(), Some(2));
        assert_eq!(shards[1].get("compiled_cache_hits").unwrap().as_u64(), Some(5));
        let wal = json.get("wal").unwrap();
        assert_eq!(wal.get("appended_records").unwrap().as_u64(), Some(7));
        let wal_shards = wal.get("per_shard").unwrap().as_array().unwrap();
        assert_eq!(wal_shards.len(), 2);
        assert_eq!(wal_shards[1].get("appended_records").unwrap().as_u64(), Some(4));

        // A single-shard store keeps the flat sections: a breakdown of
        // one shard would only repeat the totals.
        let json = m.to_json(&per_shard[..1], Some(&wal_per_shard[..1]), workers);
        assert!(json.get("repository").unwrap().get("shards").is_none());
        assert!(json.get("wal").unwrap().get("per_shard").is_none());
    }
}
