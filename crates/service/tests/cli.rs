//! The `retrozilla-serve` binary run as a subprocess: its offline modes
//! (`--lint` and `--wal-info` read a repository without starting a
//! server and without writing any file), and the first-start import of
//! a saved repository file.

use retroweb_service::testdata;
use retrozilla::{
    layout_dir, read_layout, replay, shard_for, ClusterRules, DurableRepository,
    RepositorySnapshot, ShardManifest, Wal, WalOp,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const SHARDS: usize = 4;

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_retrozilla-serve"))
        .args(args)
        .output()
        .expect("run retrozilla-serve")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("retroweb-service-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir`, by name, with its bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Start a server over `repo`, wait for its `listening` line, then kill
/// it. Returns the startup banner.
fn serve_until_listening(repo: &Path) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_retrozilla-serve"))
        .args(["--addr", "127.0.0.1:0", "--threads", "1", "--shards", "2", "--repo"])
        .arg(repo)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn retrozilla-serve");
    let mut banner = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.expect("read stdout");
        banner.push_str(&line);
        banner.push('\n');
        if line.contains("listening") {
            break;
        }
    }
    let _ = child.kill();
    let out = child.wait_with_output().expect("wait for retrozilla-serve");
    assert!(
        banner.contains("listening"),
        "server did not start:\n{banner}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    banner
}

/// A repository's clusters by name, comparable across reads.
fn clusters(repo: &RepositorySnapshot) -> BTreeMap<String, ClusterRules> {
    repo.iter().map(|(name, rules)| (name.to_string(), rules.clone())).collect()
}

/// The demo cluster renamed to `name`.
fn demo_named(name: &str) -> ClusterRules {
    testdata::cluster_from(&testdata::demo_cluster_json().replace(testdata::DEMO_CLUSTER, name))
}

/// The line `--wal-info` prints for shard `shard`'s log.
fn shard_line(stdout: &str, shard: usize) -> &str {
    let prefix = format!("shard-{shard:03}.wal:");
    stdout
        .lines()
        .find(|line| line.trim_start().starts_with(&prefix))
        .unwrap_or_else(|| panic!("no line for shard {shard}:\n{stdout}"))
}

#[test]
fn lint_of_a_missing_repository_fails_and_names_it() {
    let dir = temp_dir("missing");
    let repo = dir.join("absent.json");
    let out = serve(&["--lint", "--repo", repo.to_str().unwrap()]);
    assert!(!out.status.success(), "linting a missing repository must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(repo.to_str().unwrap()), "message must name the path: {stderr}");
    assert!(!dir.join("absent.json.d").exists(), "--lint must not create the directory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn offline_modes_read_a_torn_layout_without_writing() {
    let dir = temp_dir("layout");
    let repo = dir.join("rules.json");
    let layout = layout_dir(&repo);
    let names: Vec<String> = (0..16).map(|i| format!("movies-{i:02}")).collect();
    for shard in 0..SHARDS {
        assert!(names.iter().any(|n| shard_for(n, SHARDS) == shard), "shard {shard} unused");
    }
    {
        let durable = DurableRepository::open(&repo, SHARDS, 1_000, None).unwrap();
        for name in &names {
            durable.record(demo_named(name)).unwrap();
        }
    }
    // Tear 3 bytes off the last record of shard 1's log.
    let victim = 1;
    let victim_wal = ShardManifest::wal_path(&layout, victim);
    let bytes = std::fs::read(&victim_wal).unwrap();
    std::fs::write(&victim_wal, &bytes[..bytes.len() - 3]).unwrap();
    let replayed = replay(&victim_wal).unwrap();
    assert!(replayed.torn_bytes > 0);
    let before = dir_bytes(&layout);

    let out = serve(&["--wal-info", "--repo", repo.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--wal-info failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for shard in 0..SHARDS {
        let line = shard_line(&stdout, shard);
        let torn = if shard == victim { replayed.torn_bytes } else { 0 };
        assert!(line.contains(&format!("torn {torn} byte(s)")), "shard {shard}: {line}");
    }
    assert!(
        stdout.contains(&format!("truncate to offset {}", replayed.valid_len)),
        "truncation offset missing:\n{stdout}"
    );
    assert_eq!(dir_bytes(&layout), before, "--wal-info must not write");

    let live = read_layout(&repo).unwrap().len();
    assert_eq!(live, names.len() - 1, "the torn record is lost");
    let out = serve(&["--lint", "--repo", repo.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--lint failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(&format!("linted {live} cluster(s)")), "{stdout}");
    assert_eq!(dir_bytes(&layout), before, "--lint must not write");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_saved_repository_seeds_the_first_start_only_and_is_never_written() {
    let dir = temp_dir("import");
    let repo = dir.join("rules.json");
    let saved: RepositorySnapshot =
        [demo_named("saved-a"), demo_named("saved-b")].into_iter().collect();
    saved.save(&repo).unwrap();
    // A log beside the saved file is not part of it.
    let beside = dir.join("rules.json.wal");
    let (mut wal, _) = Wal::open(&beside).unwrap();
    wal.append(&WalOp::Record(demo_named("logged-only"))).unwrap();
    drop(wal);
    let before = (std::fs::read(&repo).unwrap(), std::fs::read(&beside).unwrap());

    let banner = serve_until_listening(&repo);
    assert!(banner.contains("imported 2 cluster(s)"), "{banner}");
    let layout = clusters(&read_layout(&repo).unwrap());
    assert_eq!(layout, clusters(&saved), "the layout holds exactly the saved clusters");
    let after = (std::fs::read(&repo).unwrap(), std::fs::read(&beside).unwrap());
    assert!(after == before, "the saved file and the log beside it must stay byte-identical");

    // Once the layout has a manifest, a different saved file is ignored.
    RepositorySnapshot::from_iter([demo_named("replacement")]).save(&repo).unwrap();
    let banner = serve_until_listening(&repo);
    assert!(!banner.contains("imported"), "{banner}");
    assert_eq!(clusters(&read_layout(&repo).unwrap()), layout, "the layout must not change");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_of_a_saved_file_reads_it_without_creating_a_layout() {
    let dir = temp_dir("lint-saved");
    let repo = dir.join("bad-rules.json");
    let mut bad = demo_named("bad");
    bad.rules[0].locations = vec![retroweb_xpath::parse("//TABLE[1]/TR[0]/TD[2]/text()").unwrap()];
    RepositorySnapshot::from_iter([bad]).save(&repo).unwrap();
    let out = serve(&["--repo", repo.to_str().unwrap(), "--lint"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "an error-level finding must fail --lint: {stdout}");
    assert!(stdout.contains("linted 1 cluster(s): 1 error(s)"), "{stdout}");
    assert!(!layout_dir(&repo).exists(), "--lint must not create the directory");
    std::fs::remove_dir_all(&dir).ok();
}
