//! `retrozilla-serve` — serve a rule repository over HTTP.
//!
//! ```text
//! retrozilla-serve [--addr 127.0.0.1:7878] [--threads N]
//!                  [--repo PATH] [--compact-every N] [--shards N]
//!                  [--max-conns N] [--header-timeout-ms N]
//!                  [--idle-timeout-ms N] [--write-stall-timeout-ms N]
//!                  [--strict-lint] [--lint] [--wal-info]
//! ```
//!
//! The server runs `--threads` `poll(2)` event loops. Each owns a share
//! of the connections and runs their requests inline, so ten thousand
//! idle keep-alive connections cost registrations, not threads. The
//! loops shed arrivals past `--max-conns` (counted across all loops)
//! with `503`, answer `408` to request heads slower than
//! `--header-timeout-ms`, close keep-alive connections idle past
//! `--idle-timeout-ms`, and drop clients that stop draining a response
//! for `--write-stall-timeout-ms`. A streamed batch reply is written
//! straight to its socket by a thread of its own, so a slow reader
//! holds that thread, never a loop.
//!
//! With `--repo rules.json`, the server opens that repository with
//! `retrozilla::DurableRepository::open`, which keeps it in the
//! directory `rules.json.d/`: one snapshot + write-ahead log pair per
//! shard of the in-memory store, **replayed in parallel** at startup —
//! recovering mutations acknowledged after the last compaction — and
//! every `PUT`/`DELETE /clusters` becomes one fsynced O(change) append
//! to its shard's log. A shard's log folds into its snapshot every
//! `--compact-every` mutations (default 1024). `--shards N` (default 8)
//! sizes a new directory; an existing directory's `manifest.json` fixes
//! the shard count. When `rules.json` is a saved repository file and
//! `rules.json.d/` has no manifest yet, the first start imports the
//! file as the new directory's seed. The file is never written, so a
//! crash before the manifest simply redoes the import; a
//! `rules.json.wal` beside it is not read.
//!
//! `--strict-lint` makes `PUT /clusters/{name}` reject rule sets whose
//! XPaths carry error-level linter findings (provably-empty paths,
//! unsatisfiable predicates) with a `400` carrying the structured
//! diagnostics; without it the findings ride along in the success body
//! and on `GET /metrics`.
//!
//! `--lint` is the offline audit mode: read, without writing anything,
//! the clusters a server started with that `--repo` would serve — the
//! `rules.json.d/` directory through `retrozilla::read_layout`, or the
//! saved `rules.json` a first start would import — (or the built-in
//! demo repository without `--repo`), print every linter finding, and
//! exit non-zero iff any error-level finding exists or there is no
//! repository at that path. No server is started, so CI can gate rule
//! repositories on it directly.
//!
//! `--wal-info` prints what `retrozilla::replay` reads from every shard
//! log of the `--repo` directory (records, torn bytes, last intact
//! offset) **without starting the server and without mutating any
//! file**: the first step toward point-in-time recovery tooling.

use retroweb_service::testdata;
use retroweb_service::{Server, ServerConfig};
use retrozilla::{layout_dir, read_layout, replay, RepositorySnapshot, ShardManifest, WalOp};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: retrozilla-serve [--addr HOST:PORT] [--threads N] \
                     [--repo PATH] [--compact-every N] [--shards N] [--max-conns N] \
                     [--header-timeout-ms N] [--idle-timeout-ms N] [--write-stall-timeout-ms N] \
                     [--strict-lint] [--lint] [--wal-info]";

struct Args {
    config: ServerConfig,
    inspect_logs: bool,
    lint: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServerConfig { addr: "127.0.0.1:7878".to_string(), ..Default::default() };
    let mut inspect_logs = false;
    let mut lint = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value =
            |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.threads =
                    value("--threads")?.parse().map_err(|e| format!("bad --threads: {e}"))?
            }
            "--repo" => config.repo_path = Some(PathBuf::from(value("--repo")?)),
            "--compact-every" => {
                config.compact_every = value("--compact-every")?
                    .parse()
                    .map_err(|e| format!("bad --compact-every: {e}"))?
            }
            "--shards" => {
                config.shards = value("--shards")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("bad --shards: expected a positive integer")?;
            }
            "--max-conns" => {
                config.max_conns =
                    value("--max-conns")?.parse().map_err(|e| format!("bad --max-conns: {e}"))?
            }
            "--header-timeout-ms" => {
                config.header_timeout = std::time::Duration::from_millis(
                    value("--header-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --header-timeout-ms: {e}"))?,
                )
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(
                    value("--idle-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --idle-timeout-ms: {e}"))?,
                )
            }
            "--write-stall-timeout-ms" => {
                config.write_stall_timeout = std::time::Duration::from_millis(
                    value("--write-stall-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --write-stall-timeout-ms: {e}"))?,
                )
            }
            "--strict-lint" => config.strict_lint = true,
            "--lint" => lint = true,
            "--wal-info" => inspect_logs = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(Args { config, inspect_logs, lint })
}

/// The saved repository a first start over `repo` imports: the file
/// `repo` itself, while [`layout_dir`]`(repo)` has no manifest. `None`
/// when there is nothing to import.
fn import_source(repo: &Path) -> Result<Option<RepositorySnapshot>, String> {
    if !repo.is_file() || ShardManifest::path(&layout_dir(repo)).exists() {
        return Ok(None);
    }
    RepositorySnapshot::load(repo)
        .map(Some)
        .map_err(|e| format!("cannot import the saved repository: {e}"))
}

/// `--lint`: audit the addressed repository offline. Prints every
/// linter finding and returns whether any error-level finding exists —
/// the CI gate's exit code. Lints what a server started with `--repo`
/// would serve, read without writing; without `--repo` the built-in
/// demo repository is audited.
fn lint_repository(config: &ServerConfig) -> Result<bool, String> {
    let repo = match &config.repo_path {
        Some(path) => match import_source(path)? {
            Some(saved) => saved,
            None => {
                read_layout(path).map_err(|e| format!("cannot read repository for linting: {e}"))?
            }
        },
        None => testdata::demo_repository(),
    };
    let (mut errors, mut warnings, mut infos) = (0usize, 0usize, 0usize);
    for (name, rules) in repo.iter() {
        let lint = rules.lint();
        for finding in &lint.diagnostics {
            println!("{name}: {finding}");
        }
        errors += lint.errors();
        warnings += lint.warnings();
        infos += lint.infos();
    }
    println!(
        "linted {} cluster(s): {errors} error(s), {warnings} warning(s), {infos} info(s)",
        repo.len()
    );
    Ok(errors > 0)
}

/// `--wal-info`: print replay statistics for every shard log of the
/// `--repo` directory, read-only.
fn print_shard_logs(config: &ServerConfig) -> Result<(), String> {
    let repo = config.repo_path.as_deref().ok_or("--wal-info needs --repo to locate the logs")?;
    let dir = layout_dir(repo);
    let manifest = ShardManifest::load(&dir)
        .map_err(|e| format!("bad repository directory: {e}"))?
        .ok_or_else(|| format!("no repository directory at {}", dir.display()))?;
    println!("WAL layout at {} ({} shard(s)):", dir.display(), manifest.shards);
    let (mut total_records, mut total_torn) = (0u64, 0u64);
    for shard in 0..manifest.shards {
        let path = ShardManifest::wal_path(&dir, shard);
        let inspect_err = |e: std::io::Error| format!("cannot inspect {}: {e}", path.display());
        let replayed = replay(&path).map_err(inspect_err)?;
        let file_bytes = match std::fs::metadata(&path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(inspect_err(e)),
        };
        let records = replayed.ops.len() as u64;
        let upserts = replayed.ops.iter().filter(|op| matches!(op, WalOp::Record(_))).count();
        println!(
            "  shard-{shard:03}.wal: {records} record(s) ({upserts} upsert / {} remove), \
             last offset {}, torn {} byte(s), file {file_bytes} byte(s)",
            replayed.ops.len() - upserts,
            replayed.valid_len,
            replayed.torn_bytes,
        );
        if replayed.torn_bytes > 0 {
            println!(
                "    ! torn/corrupt tail: a recovery would truncate to offset {}",
                replayed.valid_len
            );
        }
        total_records += records;
        total_torn += replayed.torn_bytes;
    }
    println!("  total: {total_records} record(s), {total_torn} torn byte(s)");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.lint {
        return match lint_repository(&args.config) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
        };
    }
    if args.inspect_logs {
        return match print_shard_logs(&args.config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
        };
    }

    // The server opens the repository directory itself; a saved file at
    // --repo seeds it only on first start.
    let seed = match args.config.repo_path.as_deref().map(import_source).transpose() {
        Ok(seed) => seed.flatten(),
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::FAILURE;
        }
    };
    let imported = seed.as_ref().map(RepositorySnapshot::len);
    let server = match Server::bind(seed.unwrap_or_default(), args.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    let handle = match server.start() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(repo) = &args.config.repo_path {
        let shards = handle.state().repo().shard_count();
        println!(
            "repository at {} — {shards} shard(s), {} cluster(s) live",
            layout_dir(repo).display(),
            handle.state().repo().len(),
        );
        if let Some(imported) = imported {
            println!(
                "  imported {imported} cluster(s) from {} (the file is left as it is)",
                repo.display()
            );
        }
        if shards != args.config.shards {
            println!(
                "  note: the directory's manifest fixes the shard count at {shards}; \
                 the requested --shards value was ignored"
            );
        }
    }
    if let Some(wal) = handle.state().durable().wal_stats() {
        println!(
            "  replayed {} WAL record(s) over the shard snapshots{}",
            wal.replayed_records,
            if wal.replay_torn_bytes > 0 {
                format!(" (recovered a torn tail: {} byte(s) discarded)", wal.replay_torn_bytes)
            } else {
                String::new()
            },
        );
    }
    println!(
        "retrozilla-serve listening on http://{addr} ({} event loops)",
        args.config.threads.max(1)
    );
    handle.join();
    ExitCode::SUCCESS
}
