//! The `retrozilla-serve` binary's offline modes, run as a subprocess:
//! `--lint` and `--wal-info` read a repository without starting a
//! server and without writing any file.

use retroweb_service::testdata;
use retrozilla::{layout_dir, read_layout, replay, shard_for, DurableRepository, ShardManifest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
        let (durable, _) = DurableRepository::open(&repo, SHARDS, 1_000, None).unwrap();
        for name in &names {
            let json = testdata::demo_cluster_json().replace(testdata::DEMO_CLUSTER, name);
            durable.record(testdata::cluster_from(&json)).unwrap();
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
