//! Served-extraction benchmark.
//!
//! Drives a release `retrozilla-serve` process over loopback HTTP with a
//! closed loop of clients, checks every reply against the body the same
//! rules produce in-process, and reports end-to-end metrics (`--trace 0`)
//! or a per-layer split from an in-process traced replay (`--trace 1`).
//! Build and run it through `run.sh`; see README.md.
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod client;
mod inputs;
mod load;
mod quality;
mod server;
mod stats;
mod trace;

use inputs::{Inputs, Kind, OpStream};
use load::{closed_loop, run_client, ClientRun, Until};
use retroweb_json::Json;
use server::ServerProc;
use stats::{median, summarize, Latency, Ledger, LedgerLine, Tally};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layer, LayerTimes, Replay, Tracer, LAYERS};

const USAGE: &str = "usage: servebench --workload detail|catalog-batch|rule-churn --seed N \
                     --seconds S --trace 0|1 --server-bin PATH [--work-dir DIR]";

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Rounds the end-to-end window is split into; each metric is the best of
/// its per-round values (see [`best_of`]).
const ROUNDS: usize = 15;
/// `PUT` + reload pairs in the rule-maintenance probe that follows each
/// round on workloads whose stream has no `PUT`s.
const PROBE_PAIRS: u64 = 50;
/// Served/replayed round pairs of the traced run's ledger.
const LEDGER_ROUNDS: usize = 4;
/// Seed offsets of the warm-up and ledger streams, so they differ from
/// the measured streams but repeat with the seed.
const WARM_SEED: u64 = 0x3A7E;
const LEDGER_SEED: u64 = 0x1ED6;

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    let mut work_dir = PathBuf::from("target/servebench");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("bad --seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        kind,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_dir,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Closed-loop clients of a workload. On a small host, requests that
/// overlap slow each other down (on 2 vCPUs, two concurrent `detail`
/// requests each take about 1.65x as long as one alone), so with several
/// clients the median flips between the lone and the overlapped mode from
/// run to run. The extraction workloads therefore run one client;
/// `rule-churn` runs `nproc`, because concurrent writers and readers of
/// the store are what it measures.
fn clients(kind: Kind) -> usize {
    match kind {
        Kind::RuleChurn => nproc(),
        Kind::Detail | Kind::CatalogBatch => 1,
    }
}

/// A server with the workload's clusters loaded and warmed.
struct Ready {
    server: ServerProc,
    inputs: Inputs,
    versions: Vec<u8>,
    setup_s: f64,
}

/// Spawn the server, generate inputs, build rules, `PUT` every cluster
/// and warm up. Any failed reply here is an error: set-up must be clean.
fn set_up(args: &Args, dir: &Path) -> Result<Ready, String> {
    let started = Instant::now();
    let server = ServerProc::spawn(&args.server_bin, nproc(), dir)
        .map_err(|e| format!("cannot start {}: {e}", args.server_bin.display()))?;
    let inputs = Inputs::generate(args.kind, args.seed);
    let mut conn = client::Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut request = Vec::new();
    for (i, c) in inputs.clusters.iter().enumerate() {
        inputs::encode_op(&mut request, &inputs, inputs::Op::Put { cluster: i as u32 }, 0);
        match conn.exchange(&request) {
            Ok(201) => {}
            other => return Err(format!("loading cluster {}: {other:?}", c.name)),
        }
    }
    drop(conn);
    let warm_ops = match args.kind {
        Kind::Detail => 64,
        Kind::CatalogBatch => 48,
        Kind::RuleChurn => 256,
    };
    let mut versions = vec![0u8; inputs.clusters.len()];
    let clients = clients(args.kind);
    for client in 0..clients {
        let mut stream = OpStream::new(args.kind, args.seed ^ WARM_SEED, client, clients);
        let warm = run_client(server.addr, &inputs, &mut stream, versions, Until::Ops(warm_ops));
        if warm.tally.failed() > 0 {
            return Err(format!("warm-up replies failed: {:?}", warm.tally));
        }
        versions = warm.versions;
    }
    Ok(Ready { server, inputs, versions, setup_s: started.elapsed().as_secs_f64() })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::object(vec![("value".into(), Json::from(value)), ("unit".into(), Json::from(unit))])
}

fn result_line(correct: bool, tally: &Tally, metrics: Vec<(String, Json)>) -> String {
    Json::object(vec![
        ("correct".into(), Json::from(correct)),
        ("attempted".into(), Json::from(tally.attempted as usize)),
        ("failed".into(), Json::from(tally.failed() as usize)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .to_string_compact()
}

fn latency_json(l: &Latency) -> Json {
    Json::object(vec![
        ("count".into(), Json::from(l.count)),
        ("p50_ms".into(), Json::from(l.p50_ms)),
        ("tail_quantile".into(), Json::from(l.tail_q)),
        ("tail_ms".into(), Json::from(l.tail_ms)),
        ("mean_ms".into(), Json::from(l.mean_ms)),
    ])
}

/// The run's context: what the numbers depend on besides the code.
fn context(args: &Args, inputs: &Inputs, extra: Vec<(String, Json)>) -> Json {
    let mut page_bytes = Vec::new();
    for f in &inputs.families {
        let mut sizes: Vec<f64> = f.page_bytes().map(|b| b as f64).collect();
        sizes.sort_by(f64::total_cmp);
        page_bytes.push((
            f.name.to_string(),
            Json::object(vec![
                ("pages".into(), Json::from(sizes.len())),
                ("min".into(), Json::from(sizes[0])),
                ("median".into(), Json::from(median(&sizes))),
                ("max".into(), Json::from(sizes[sizes.len() - 1])),
            ]),
        ));
    }
    let rules = inputs.rules_per_cluster().into_iter().map(|(f, n)| (f.to_string(), Json::from(n)));
    let mut fields = vec![
        ("workload".into(), Json::from(args.workload.as_str())),
        ("seed".into(), Json::from(args.seed as usize)),
        ("nproc".into(), Json::from(nproc())),
        ("server_threads".into(), Json::from(nproc())),
        ("clients".into(), Json::from(clients(args.kind))),
        ("clusters".into(), Json::from(inputs.clusters.len())),
        ("page_bytes".into(), Json::Object(page_bytes)),
        ("rules_per_cluster".into(), Json::Object(rules.collect())),
        ("walk.shared_step_ratio".into(), Json::from(inputs.shared_step_ratio())),
    ];
    fields.extend(extra);
    Json::Object(fields)
}

/// One round of the end-to-end window.
struct Round {
    pages_per_s: f64,
    request: Latency,
    put: Latency,
    reload: Latency,
}

/// The best per-round value: the lowest time, or the highest rate.
/// Contention from other tenants of a shared host only ever adds time, and
/// it comes in spells of a few seconds; the best of many short rounds is
/// the program's own speed and repeats from run to run, where a mean or a
/// median carries each run's share of slow spells.
fn best_of(rounds: &[Round], value: impl Fn(&Round) -> f64, higher_is_better: bool) -> f64 {
    let values = rounds.iter().map(value);
    if higher_is_better {
        values.fold(f64::MIN, f64::max)
    } else {
        values.fold(f64::MAX, f64::min)
    }
}

fn values_json(rounds: &[Round], value: impl Fn(&Round) -> f64) -> Json {
    Json::Array(rounds.iter().map(|r| Json::from(value(r))).collect())
}

/// The untraced run: end-to-end metrics.
fn served(args: &Args, dir: &Path) -> Result<String, String> {
    let Ready { server, inputs, mut versions, setup_s } = set_up(args, &dir.join("setup-0"))?;
    let mut setup_times = vec![setup_s];
    let clients = clients(args.kind);
    let mut streams: Vec<OpStream> =
        (0..clients).map(|c| OpStream::new(args.kind, args.seed, c, clients)).collect();
    // The stream itself carries PUTs only on rule-churn; elsewhere a
    // probe after each round measures rule maintenance on the workload's
    // clusters.
    let churn = args.kind == Kind::RuleChurn;
    let mut probe_stream = OpStream::probe(args.kind, args.seed);
    let window = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let mut total = ClientRun::default();
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let (mut run, elapsed) = closed_loop(server.addr, &inputs, &mut streams, &versions, window);
        versions = run.versions.clone();
        let mut probe = (!churn).then(|| {
            let until = Until::Ops(2 * PROBE_PAIRS);
            run_client(server.addr, &inputs, &mut probe_stream, versions.clone(), until)
        });
        let source = probe.as_mut().unwrap_or(&mut run);
        let (put, reload) =
            (summarize(&mut source.put_ns, 0.99), summarize(&mut source.reload_ns, 0.99));
        if let Some(p) = &probe {
            versions = p.versions.clone();
        }
        rounds.push(Round {
            pages_per_s: run.pages as f64 / elapsed.as_secs_f64(),
            request: summarize(&mut run.extract_ns, 0.99).ok_or("no extract completed")?,
            put: put.ok_or("no PUT completed")?,
            reload: reload.ok_or("no reload completed")?,
        });
        total.merge(run);
        if let Some(p) = probe {
            total.merge(p);
        }
        // The other set-ups are spread over the run, so their median
        // samples the host across the run, not one moment of it.
        if rounds.len().is_multiple_of(ROUNDS / SETUPS) && setup_times.len() < SETUPS {
            let extra = set_up(args, &dir.join(format!("setup-{}", setup_times.len())))?;
            setup_times.push(extra.setup_s);
        }
    }
    let peak_rss_mb = server.peak_rss_mb().map_err(|e| format!("server RSS: {e}"))?;
    drop(server);

    let quality = quality::score(&inputs, &total.served);
    let tally = total.tally;
    let correct = tally.failed() == 0
        && quality.unreadable == 0
        && quality.pages > 0
        && quality.served == quality.in_process;
    let setup_s = median(&setup_times);
    let pages_per_s = best_of(&rounds, |r| r.pages_per_s, true);
    let request_p50 = best_of(&rounds, |r| r.request.p50_ms, false);
    let request_tail = best_of(&rounds, |r| r.request.tail_ms, false);
    let put_p50 = best_of(&rounds, |r| r.put.p50_ms, false);
    let put_tail = best_of(&rounds, |r| r.put.tail_ms, false);
    let reload_p50 = best_of(&rounds, |r| r.reload.p50_ms, false);

    let ctx = context(
        args,
        &inputs,
        vec![
            ("rounds".into(), Json::from(ROUNDS)),
            ("round_s".into(), Json::from(window.as_secs_f64())),
            (
                "setup_s_runs".into(),
                Json::Array(setup_times.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("pages_per_s_rounds".into(), values_json(&rounds, |r| r.pages_per_s)),
            ("request_p50_ms_rounds".into(), values_json(&rounds, |r| r.request.p50_ms)),
            ("request_tail_ms_rounds".into(), values_json(&rounds, |r| r.request.tail_ms)),
            ("request_tail_quantile_rounds".into(), values_json(&rounds, |r| r.request.tail_q)),
            ("request_count_rounds".into(), values_json(&rounds, |r| r.request.count as f64)),
            ("put_p50_ms_rounds".into(), values_json(&rounds, |r| r.put.p50_ms)),
            ("put_tail_ms_rounds".into(), values_json(&rounds, |r| r.put.tail_ms)),
            ("put_tail_quantile_rounds".into(), values_json(&rounds, |r| r.put.tail_q)),
            ("put_count_rounds".into(), values_json(&rounds, |r| r.put.count as f64)),
            ("reload_p50_ms_rounds".into(), values_json(&rounds, |r| r.reload.p50_ms)),
            ("put_source".into(), Json::from(if churn { "stream" } else { "probe" })),
            ("error_rate".into(), Json::from(tally.error_rate())),
            (
                "failures".into(),
                Json::object(vec![
                    ("status".into(), Json::from(tally.status as usize)),
                    ("transport".into(), Json::from(tally.transport as usize)),
                    ("mismatch".into(), Json::from(tally.mismatch as usize)),
                ]),
            ),
            ("f1_pages".into(), Json::from(quality.pages)),
            ("f1_served".into(), Json::from(quality.f1())),
            ("f1_in_process".into(), Json::from(quality.in_process_f1())),
        ],
    );
    println!("context {}", ctx.to_string_compact());
    println!(
        "{}: {pages_per_s:.0} pages/s, request p50 {request_p50:.3} ms tail {request_tail:.3} ms, \
         put p50 {put_p50:.3} ms tail {put_tail:.3} ms, reload p50 {reload_p50:.3} ms, \
         error rate {}, f1 {:.4}, setup {setup_s:.3} s, peak RSS {peak_rss_mb:.1} MiB",
        args.workload,
        tally.error_rate(),
        quality.f1(),
    );
    let metrics = vec![
        ("pages_per_s".into(), metric(pages_per_s, "1/s")),
        ("request_p50_ms".into(), metric(request_p50, "ms")),
        ("request_p99_ms".into(), metric(request_tail, "ms")),
        ("success_rate".into(), metric(1.0 - tally.error_rate(), "ratio")),
        ("f1".into(), metric(quality.f1(), "ratio")),
        ("put_p50_ms".into(), metric(put_p50, "ms")),
        ("reload_p50_ms".into(), metric(reload_p50, "ms")),
        ("peak_rss_mb".into(), metric(peak_rss_mb, "MiB")),
        ("setup_s".into(), metric(setup_s, "s")),
    ];
    Ok(result_line(correct, &tally, metrics))
}

/// Read `/metrics` over a fresh connection.
fn fetch_metrics(addr: std::net::SocketAddr) -> Result<Json, String> {
    let mut conn = client::Conn::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    let mut request = Vec::new();
    inputs::request_bytes(&mut request, "GET", "/metrics", &[("connection", "close")], b"");
    conn.exchange(&request).map_err(|e| format!("metrics: {e}"))?;
    let body = std::str::from_utf8(&conn.body).map_err(|_| "metrics body not UTF-8")?;
    retroweb_json::parse(body).map_err(|e| format!("metrics JSON: {e}"))
}

fn gauge(metrics: &Json, section: &str, key: &str) -> f64 {
    metrics.get(section).and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Requests and summed handler time (ms) the server's own latency
/// histograms hold, over every endpoint but `/metrics`.
fn handler_time(metrics: &Json) -> (f64, f64) {
    let mut total = (0.0, 0.0);
    for (endpoint, h) in metrics.get("latency_ms").and_then(Json::as_object).unwrap_or(&[]) {
        if endpoint != "metrics" {
            let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            total.0 += count;
            total.1 += count * h.get("mean_ms").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    total
}

/// The traced run: per-layer metrics and the ledger.
fn traced(args: &Args, dir: &Path) -> Result<String, String> {
    let Ready { server, inputs, mut versions, .. } = set_up(args, &dir.join("setup"))?;
    let phase = |share: f64| Duration::from_secs_f64(args.seconds * share);

    // The workload as served, for the pool gauges.
    let clients = clients(args.kind);
    let mut streams: Vec<OpStream> =
        (0..clients).map(|c| OpStream::new(args.kind, args.seed, c, clients)).collect();
    let (mut run, _) = closed_loop(server.addr, &inputs, &mut streams, &versions, phase(0.2));
    versions = run.versions.clone();
    let pool = fetch_metrics(server.addr)?;
    // Served PUT latency: the stream's own on rule-churn, a probe elsewhere.
    if args.kind != Kind::RuleChurn {
        let mut probe = OpStream::probe(args.kind, args.seed);
        let until = Until::Ops(2 * PROBE_PAIRS * ROUNDS as u64 / 4);
        let p = run_client(server.addr, &inputs, &mut probe, versions, until);
        versions = p.versions.clone();
        run.merge(p);
    }
    let put = summarize(&mut run.put_ns, 0.99).ok_or("no PUT completed")?;
    let mut tally = run.tally;

    // Ledger rounds: one client on the ledger stream against the server,
    // then the same stream replayed in-process with spans, alternating so
    // both sides see the same spells of the host. The replay waits before
    // each request as long as the served side spent outside the handler,
    // so its layers run from the same idle state as the server's.
    let mut replay =
        Replay::new(&inputs, &dir.join("replay")).map_err(|e| format!("replay store: {e}"))?;
    let tracer = RefCell::new(Tracer::new(true));
    let ledger_stream = || OpStream::new(args.kind, args.seed ^ LEDGER_SEED, 0, 1);
    let (mut served_stream, mut replay_stream) = (ledger_stream(), ledger_stream());
    let (mut e2e_ns, mut handler) = (Vec::new(), (0.0, 0.0));
    let mut ops = Vec::new();
    let mut before = handler_time(&fetch_metrics(server.addr)?);
    for _ in 0..LEDGER_ROUNDS {
        let until = Until::Deadline(Instant::now() + phase(0.1));
        let r = run_client(server.addr, &inputs, &mut served_stream, versions.clone(), until);
        let after = handler_time(&fetch_metrics(server.addr)?);
        let (count, ms) = (after.0 - before.0, after.1 - before.1);
        before = after;
        let mean_ns = r.all_ns.iter().sum::<u64>() as f64 / r.all_ns.len().max(1) as f64;
        let gap = Duration::from_nanos((mean_ns - ms * 1e6 / count.max(1.0)).max(0.0) as u64);
        handler = (handler.0 + count, handler.1 + ms);
        versions = r.versions;
        tally.merge(&r.tally);
        e2e_ns.extend(r.all_ns);
        let deadline = Instant::now() + phase(0.1);
        while Instant::now() < deadline {
            std::thread::sleep(gap);
            let (op, _) = replay_stream.next(&inputs);
            replay.run(&tracer, op);
            ops.push(op);
        }
    }
    drop(server);
    let e2e = summarize(&mut e2e_ns, 0.99).ok_or("no served request completed")?;
    let handler_mean_us = handler.1 * 1e3 / handler.0.max(1.0);
    let work = replay.work;
    let tracer = tracer.into_inner();
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let spans_path = args.work_dir.join(format!("spans-{}.tsv", args.workload));
    tracer.write(&spans_path).map_err(|e| format!("writing spans: {e}"))?;
    let times = LayerTimes::from_spans(&tracer.spans);
    drop(tracer);

    // Overhead: the same requests with spans off and on, alternating.
    let round = ops.len().div_ceil(8);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for traced in [false, true] {
            let tracer = RefCell::new(Tracer::new(traced));
            let started = Instant::now();
            for &op in &ops[..round] {
                replay.run(&tracer, op);
            }
            let secs = started.elapsed().as_secs_f64();
            if traced {
                on.push(secs)
            } else {
                off.push(secs)
            }
        }
    }
    let overhead_share = median(&on) / median(&off) - 1.0;
    let mismatches = replay.work.mismatches;
    drop(replay);

    let per_request = |ns: f64| ns / work.requests.max(1) as f64 / 1e3;
    let us = |layer: Layer| per_request(times.self_of(layer));
    let lines: Vec<LedgerLine> = LAYERS[1..]
        .iter()
        .map(|&l| LedgerLine {
            layer: l.name(),
            self_us: us(l),
            top_us: per_request(times.top_of(l)),
        })
        .collect();
    let ledger = Ledger { e2e_mean_us: e2e.mean_ms * 1e3, lines };
    print_ledger(args, &ledger, work.requests, handler_mean_us, overhead_share);

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let builds = gauge(&pool, "repository", "compiled_cache_builds");
    let hits = gauge(&pool, "repository", "compiled_cache_hits");
    let m = |name: &str, value: f64, unit: &str| (name.to_string(), metric(value, unit));
    let metrics = vec![
        m("http.parse_us", us(Layer::HttpParse), "us"),
        m("http.encode_us", us(Layer::HttpEncode), "us"),
        m("decode.json_us", us(Layer::DecodeJson), "us"),
        m(
            "decode.json_ns_per_byte",
            ratio(times.self_of(Layer::DecodeJson), work.json_bytes as f64),
            "ns/B",
        ),
        m("html.parse_us", us(Layer::HtmlParse), "us"),
        m(
            "html.parse_ns_per_byte",
            ratio(times.self_of(Layer::HtmlParse), work.html_bytes as f64),
            "ns/B",
        ),
        m("walk.fused_us", us(Layer::WalkFused), "us"),
        m("walk.shared_step_ratio", inputs.shared_step_ratio(), "ratio"),
        m("extract.values_us", us(Layer::ExtractPage) - us(Layer::WalkFused), "us"),
        m("extract.failures_per_page", ratio(work.failures as f64, work.pages as f64), "count"),
        m("sink.xml_us", us(Layer::SinkXml), "us"),
        m("sink.ndjson_us", us(Layer::SinkNdjson), "us"),
        m("sink.bytes_per_page", ratio(work.output_bytes as f64, work.pages as f64), "B"),
        m("driver.batch_us", us(Layer::DriverBatch), "us"),
        m("store.lookup_us", us(Layer::StoreLookup), "us"),
        m("store.compile_us", us(Layer::StoreCompile), "us"),
        m("store.cache_build_ratio", ratio(builds, builds + hits), "ratio"),
        m("wal.record_us", us(Layer::WalRecord), "us"),
        m("wal.put_p99_ms", put.tail_ms, "ms"),
        m(
            "wal.bytes_per_put",
            ratio(gauge(&pool, "wal", "appended_bytes"), gauge(&pool, "wal", "appended_records")),
            "B",
        ),
        m("pool.busy_high_water", gauge(&pool, "workers", "busy_high_water"), "count"),
        m("pool.queued", gauge(&pool, "workers", "queued"), "count"),
        m("ledger.e2e_mean_us", ledger.e2e_mean_us, "us"),
        m("ledger.handler_mean_us", handler_mean_us, "us"),
        m("ledger.sum_us", ledger.sum_us(), "us"),
        m("ledger.unattributed_us", ledger.unattributed_us(), "us"),
        m("ledger.unattributed_share", ledger.unattributed_share(), "ratio"),
        m("trace.overhead_share", overhead_share, "ratio"),
    ];
    let ctx = context(
        args,
        &inputs,
        vec![
            ("replayed_requests".into(), Json::from(work.requests as usize)),
            ("replayed_pages".into(), Json::from(work.pages as usize)),
            ("replay_mismatches".into(), Json::from(mismatches as usize)),
            ("ledger_reference".into(), latency_json(&e2e)),
            ("put".into(), latency_json(&put)),
            ("spans".into(), Json::from(spans_path.display().to_string())),
        ],
    );
    println!("context {}", ctx.to_string_compact());
    Ok(result_line(tally.failed() == 0 && mismatches == 0, &tally, metrics))
}

fn print_ledger(args: &Args, ledger: &Ledger, requests: u64, handler_us: f64, overhead_share: f64) {
    println!("ledger {} ({requests} replayed requests; us per request)", args.workload);
    println!("  {:<14} {:>10} {:>10}", "layer", "self", "top-level");
    for line in ledger.lines.iter().filter(|l| l.self_us > 0.0 || l.top_us > 0.0) {
        println!("  {:<14} {:>10.2} {:>10.2}", line.layer, line.self_us, line.top_us);
    }
    println!("  {:<14} {:>10} {:>10.2}", "sum", "", ledger.sum_us());
    println!("  {:<14} {:>10} {:>10.2}", "server handler", "", handler_us);
    println!("  {:<14} {:>10} {:>10.2}", "e2e mean", "", ledger.e2e_mean_us);
    println!(
        "  unattributed {:.2} us ({:.1}%), trace overhead {:.1}%",
        ledger.unattributed_us(),
        ledger.unattributed_share() * 100.0,
        overhead_share * 100.0
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.server_bin.is_file() {
        eprintln!("no server binary at {}", args.server_bin.display());
        return ExitCode::from(2);
    }
    let dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let outcome = if args.trace { traced(&args, &dir) } else { served(&args, &dir) };
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("servebench failed: {why}");
            ExitCode::FAILURE
        }
    }
}
