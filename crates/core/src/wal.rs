//! Durable rule mutations: a write-ahead log with compaction.
//!
//! The paper's §7 maintenance loop treats mapping rules as long-lived
//! assets under constant *incremental* churn — a repaired rule here, a
//! retired cluster there — yet persisting the repository by rewriting
//! its whole JSON document makes every mutation O(repo). This module
//! makes rule mutations O(change) and crash-durable:
//!
//! - [`Wal`] appends one length-prefixed, CRC-32-checksummed record per
//!   mutation and fsyncs **before the mutation is acknowledged**;
//! - [`replay`] reads a WAL back, tolerating a torn tail: the first
//!   record that fails its length or checksum ends the replay and the
//!   file is truncated to the last durable record (a crashed append can
//!   only ever tear the tail, because every acknowledged record was
//!   fsynced behind it);
//! - [`DurableRepository`] glues a [`ClusterStore`] to one WAL **per
//!   store shard** plus a base JSON *snapshot* per shard: a mutation
//!   appends to the WAL its cluster's shard routes to (so writes to one
//!   shard never contend with writes — or compactions — of another),
//!   and every `compact_every` mutations per shard that shard's log is
//!   folded into its snapshot (crash-safe atomic rename + directory
//!   fsync) and truncated. A repository at path `repo` lives in the
//!   directory [`layout_dir`]`(repo)` = `<repo>.d` (see
//!   [`ShardManifest`]) and is replayed **in parallel** by
//!   [`DurableRepository::open`]. A new layout starts from the `seed`
//!   clusters its caller passes, and from nothing else;
//! - [`read_layout`] reads what such an open would serve without
//!   writing any file (the offline lint audit).
//!
//! This module is the only place that maps a repository path to file
//! names: callers hand it `repo` and nothing else, and every file it
//! opens for `repo` lies under [`layout_dir`]`(repo)`.
//!
//! ## Durability contract
//!
//! When [`DurableRepository::record`] or [`DurableRepository::remove`]
//! returns `Ok`, the mutation has been fsynced to its shard's WAL and
//! applied in memory; on `Err` it was neither. Re-opening the files
//! after a crash at *any* point reproduces every acknowledged mutation:
//! replay is idempotent (`record` is insert-or-replace, `remove` of an
//! absent cluster is a no-op), so a crash between snapshot write and
//! log truncation merely replays operations the snapshot already holds.
//! Shards are independent: tearing one shard's log tail loses at most
//! that shard's unacknowledged suffix, never another shard's records.
//!
//! ## On-disk format
//!
//! ```text
//! wal   := magic record*
//! magic := "RZWAL001" (8 bytes)
//! record:= len:u32le crc:u32le payload[len]
//! ```
//!
//! `crc` is CRC-32 (IEEE, the zlib polynomial) over the payload bytes.
//! The payload is compact JSON: `{"op":"record","cluster":{…}}` with
//! the cluster in repository JSON shape, or `{"op":"remove","name":…}`.
//! JSON keeps the log greppable and forward-compatible; the binary
//! envelope is what makes torn tails detectable.

use crate::repository::{ClusterRules, RepositoryError};
use crate::store::{shard_for, ClusterStore, RepositorySnapshot, ShardedRepository};
use retroweb_json::Json;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// File magic: 8 bytes, versioned so a future format bump is detectable.
pub const WAL_MAGIC: &[u8; 8] = b"RZWAL001";

/// Per-record envelope overhead (`len` + `crc`).
const RECORD_HEADER_BYTES: u64 = 8;

/// Upper bound on one record's payload (a single cluster's rules JSON;
/// 64 MiB is far beyond any real rule set). A length field above this is
/// treated as tail corruption, not an allocation request.
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

// ---- CRC-32 ----------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes` — the
/// checksum guarding every WAL record payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Table built on first use; 1 KiB, shared process-wide.
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---- filesystem steps (the fsync seam) -------------------------------------

/// One step of a crash-safe file replacement, reported through the
/// observer seam so tests can assert the durability *sequence* — the
/// ordering is the guarantee, and it is invisible in the end state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsStep {
    /// The new content was written to the temp file.
    WriteTemp,
    /// The temp file's data and metadata were fsynced.
    SyncFile,
    /// The temp file was renamed over the destination.
    Rename,
    /// The destination's parent directory was fsynced, making the
    /// rename itself durable.
    SyncDir,
}

/// Fsync the parent directory of `path`, making a just-performed rename
/// or creation in it durable. An atomic rename updates the *directory*,
/// and POSIX only guarantees directory updates reach disk once the
/// directory itself is synced — fsyncing the file alone leaves the new
/// name loseable on power failure.
pub fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        // A bare file name lives in the CWD.
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Crash-safe whole-file replacement: write `bytes` to a uniquely named
/// temp file in `path`'s directory, fsync it, atomically rename it over
/// `path`, then fsync the directory so the rename survives power loss.
/// Each step is reported to `observe` (the test seam asserting order).
/// On error the temp file is removed; `path` is either the old or the
/// new complete content, never torn.
pub fn atomic_replace(
    path: &Path,
    bytes: &[u8],
    observe: &mut dyn FnMut(FsStep),
) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TICKET: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "target path has no file name")
    })?;
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TICKET.fetch_add(1, Ordering::Relaxed) // only uniqueness matters, not order
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        observe(FsStep::WriteTemp);
        f.sync_all()?;
        observe(FsStep::SyncFile);
        drop(f);
        std::fs::rename(&tmp, path)?;
        observe(FsStep::Rename);
        fsync_parent_dir(path)?;
        observe(FsStep::SyncDir);
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---- WAL operations --------------------------------------------------------

/// One logged rule mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// Insert-or-replace a cluster's rules.
    Record(ClusterRules),
    /// Drop a cluster by name.
    Remove(String),
}

impl WalOp {
    /// The compact-JSON payload this op serialises to.
    fn to_payload(&self) -> Vec<u8> {
        let json = match self {
            WalOp::Record(rules) => Json::object(vec![
                ("op".into(), Json::from("record")),
                ("cluster".into(), rules.to_json()),
            ]),
            WalOp::Remove(name) => Json::object(vec![
                ("op".into(), Json::from("remove")),
                ("name".into(), Json::from(name.as_str())),
            ]),
        };
        json.to_string_compact().into_bytes()
    }

    /// Parse a payload back; `None` for anything malformed (replay
    /// treats that the same as a checksum failure: tail corruption).
    fn from_payload(payload: &[u8]) -> Option<WalOp> {
        let text = std::str::from_utf8(payload).ok()?;
        let json = retroweb_json::parse(text).ok()?;
        match json.get("op")?.as_str()? {
            "record" => {
                let cluster = ClusterRules::from_json(json.get("cluster")?).ok()?;
                Some(WalOp::Record(cluster))
            }
            "remove" => Some(WalOp::Remove(json.get("name")?.as_str()?.to_string())),
            _ => None,
        }
    }

    /// Apply this op to an in-memory store (replay and the live
    /// mutation path share this, so they cannot diverge). Returns
    /// whether the cluster existed before: replaced by a record, or
    /// removed.
    pub fn apply(&self, store: &dyn ClusterStore) -> bool {
        match self {
            WalOp::Record(rules) => store.record(rules.clone()),
            WalOp::Remove(name) => store.remove(name),
        }
    }

    /// The cluster name this op addresses — what shard routing keys on.
    pub fn cluster(&self) -> &str {
        match self {
            WalOp::Record(rules) => &rules.cluster,
            WalOp::Remove(name) => name,
        }
    }
}

/// Outcome of replaying a WAL file.
#[derive(Debug)]
pub struct Replay {
    /// Every intact operation, in append order.
    pub ops: Vec<WalOp>,
    /// Offset of the first byte past the last intact record — where
    /// appending resumes after recovery.
    pub valid_len: u64,
    /// Bytes discarded past `valid_len` (0 for a clean log). A non-zero
    /// value after a crash is the torn tail of an unacknowledged append.
    pub torn_bytes: u64,
}

/// Read `path` and decode every intact record, **without writing**:
/// unlike [`Wal::open`], no torn tail is truncated and no magic is
/// (re)initialised, so this is safe against a live server's log or a
/// post-crash artefact being triaged (`retrozilla-serve --wal-info`).
/// A missing file replays as empty. A torn or corrupt tail — short header, absurd length,
/// checksum mismatch, undecodable payload — ends the replay at the last
/// intact record; nothing here panics on arbitrary bytes. A file too
/// short or wrong-magic'd is treated as fully torn (`valid_len` covers
/// just the magic to be rewritten).
pub fn replay(path: &Path) -> std::io::Result<Replay> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Empty, torn-before-magic, or foreign content: recover as an
        // empty log. The snapshot remains the durable base; `torn_bytes`
        // surfaces how much was discarded so operators can alert on it.
        return Ok(Replay { ops: Vec::new(), valid_len: 0, torn_bytes: bytes.len() as u64 });
    }
    let mut ops = Vec::new();
    let mut offset = WAL_MAGIC.len();
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            break; // clean end
        }
        if rest.len() < RECORD_HEADER_BYTES as usize {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            break; // corrupt length field
        }
        let body_end = RECORD_HEADER_BYTES as usize + len as usize;
        if rest.len() < body_end {
            break; // torn payload
        }
        let payload = &rest[RECORD_HEADER_BYTES as usize..body_end];
        if crc32(payload) != crc {
            break; // checksum mismatch
        }
        let Some(op) = WalOp::from_payload(payload) else {
            break; // checksum ok but undecodable: treat as corruption
        };
        ops.push(op);
        offset += body_end;
    }
    Ok(Replay { ops, valid_len: offset as u64, torn_bytes: (bytes.len() - offset) as u64 })
}

/// An open write-ahead log, positioned at its end. Created by
/// [`Wal::open`], which replays and recovers first.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Current file length (all-durable; appends move it).
    len: u64,
    /// Set when a failed append could not be rolled back: the tail may
    /// hold partial bytes, so further appends would risk burying a
    /// corrupt record in the *middle* of the log — exactly what replay
    /// recovery cannot distinguish from data loss. Poisoned logs refuse
    /// to append; reopening re-runs recovery.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if absent) the WAL at `path`, replay its intact
    /// records, truncate any torn tail, and leave the file positioned
    /// for appending. Returns the recovered operations alongside the
    /// writer.
    pub fn open(path: &Path) -> std::io::Result<(Wal, Replay)> {
        let replayed = replay(path)?;
        // Deliberately no `truncate(true)`: the log's existing records
        // are the durable history — only a *torn tail* is cut, below.
        #[allow(clippy::suspicious_open_options)]
        let mut file = OpenOptions::new().read(true).write(true).create(true).open(path)?;
        let disk_len = file.metadata()?.len();
        let mut len = replayed.valid_len;
        if len == 0 {
            // Fresh, fully-torn, or foreign file: (re)initialise the magic.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            // A *new* log's directory entry must be durable before the
            // first acknowledged append can claim to be.
            fsync_parent_dir(path)?;
            len = WAL_MAGIC.len() as u64;
        } else if disk_len > len {
            // Torn tail: cut back to the last intact record.
            file.set_len(len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(len))?;
        Ok((Wal { file, path: path.to_path_buf(), len, poisoned: false }, replayed))
    }

    /// Append one operation and fsync. When this returns `Ok`, the
    /// record is durable; the byte count returned is the framed record
    /// size on disk.
    ///
    /// On `Err`, the log is rolled back to its pre-append length, so
    /// the "corruption only ever at the tail" invariant that replay
    /// recovery depends on survives a failed append (ENOSPC, a failed
    /// fsync): the *next* append continues a clean log rather than
    /// burying garbage mid-file, and a record whose fsync failed (and
    /// whose mutation was therefore rejected) cannot resurface on
    /// replay. If even the rollback fails, the log is poisoned and
    /// refuses further appends until reopened (which re-runs recovery).
    pub fn append(&mut self, op: &WalOp) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "WAL poisoned by an earlier unrecoverable append failure; reopen to recover",
            ));
        }
        let payload = op.to_payload();
        if payload.len() as u64 > MAX_RECORD_BYTES as u64 {
            // Refused up front: an over-bound record would be dropped as
            // corruption on replay, silently breaking durability for it
            // and everything appended after it.
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "WAL record payload is {} bytes; the maximum is {MAX_RECORD_BYTES}",
                    payload.len()
                ),
            ));
        }
        if WalOp::from_payload(&payload).is_none() {
            // Refused for the same reason: a rule built in-process can
            // print to text its own parser rejects (a union nested past
            // the XPath depth limit). Replay would stop at that record
            // and truncate every later one with it.
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("WAL record for '{}' would not decode on replay", op.cluster()),
            ));
        }
        let mut framed = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        // sync_data would do; sync_all also covers the length metadata,
        // which a replayer depends on to see the record at all.
        let result = self.file.write_all(&framed).and_then(|()| self.file.sync_all());
        match result {
            Ok(()) => {
                self.len += framed.len() as u64;
                Ok(framed.len() as u64)
            }
            Err(e) => {
                // Cut any partial bytes back off and re-park the cursor;
                // the truncation is itself synced so a crash right after
                // can't resurrect the failed record.
                let rollback = self
                    .file
                    .set_len(self.len)
                    .and_then(|()| self.file.sync_all())
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.len)))
                    .map(|_| ());
                if rollback.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Truncate back to an empty (magic-only) log — the tail end of a
    /// compaction, once the snapshot holding these records is durable.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.sync_all()?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.len = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// Current on-disk length in bytes (magic + records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records (just the magic).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---- sharded directory layout ----------------------------------------------

/// The on-disk identity of a sharded repository directory: shard count
/// and hash scheme, committed as `manifest.json`. The manifest is the
/// first-start commit point: an open over a directory without one
/// (re)initialises it from the seed, so a crash before the manifest is
/// written simply redoes that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    pub shards: usize,
}

impl ShardManifest {
    pub const FILE_NAME: &'static str = "manifest.json";
    /// The only routing hash ever written; see
    /// [`shard_for`] for why it must stay stable.
    pub const HASH_NAME: &'static str = "fnv1a-64";

    pub fn path(dir: &Path) -> PathBuf {
        dir.join(Self::FILE_NAME)
    }

    /// Shard `i`'s base snapshot file (repository JSON array).
    pub fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard:03}.json"))
    }

    /// Shard `i`'s write-ahead log.
    pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard:03}.wal"))
    }

    /// Load the manifest; `Ok(None)` when the directory has none yet.
    pub fn load(dir: &Path) -> Result<Option<ShardManifest>, RepositoryError> {
        let path = Self::path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(RepositoryError::io(&format!("cannot read manifest: {e}"), &path))
            }
        };
        let bad = |msg: &str| RepositoryError::io(msg, &path);
        let json = retroweb_json::parse(&text)
            .map_err(|e| bad(&format!("manifest is not valid JSON: {e}")))?;
        let version = json.get("version").and_then(Json::as_u64);
        if version != Some(1) {
            return Err(bad(&format!("unsupported manifest version {version:?}")));
        }
        let hash = json.get("hash").and_then(Json::as_str);
        if hash != Some(Self::HASH_NAME) {
            return Err(bad(&format!("unsupported shard hash {hash:?}")));
        }
        let shards = json
            .get("shards")
            .and_then(Json::as_u64)
            .filter(|&n| n >= 1)
            .ok_or_else(|| bad("manifest missing a positive 'shards' count"))?;
        Ok(Some(ShardManifest { shards: shards as usize }))
    }

    /// Durably write the manifest (atomic replace + directory fsync).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let json = Json::object(vec![
            ("version".into(), Json::from(1usize)),
            ("shards".into(), Json::from(self.shards)),
            ("hash".into(), Json::from(Self::HASH_NAME)),
        ]);
        atomic_replace(&Self::path(dir), json.to_string_pretty().as_bytes(), &mut |_| {})
    }
}

// ---- repository paths ------------------------------------------------------

/// The directory a repository at `repo` lives in: `<repo>.d`, holding
/// the manifest and one snapshot + log pair per shard.
pub fn layout_dir(repo: &Path) -> PathBuf {
    let mut name = repo.file_name().unwrap_or_default().to_os_string();
    name.push(".d");
    repo.with_file_name(name)
}

// ---- reading a layout without opening it -----------------------------------

/// The clusters [`DurableRepository::open`] over `repo` (and no seed)
/// would serve, read **without writing any file**: every shard snapshot
/// of [`layout_dir`]`(repo)`, overlaid by its log. Torn log tails end
/// the replay, as on open, but are left on disk. An error naming the
/// directory when it holds no manifest: there is no layout to read.
/// This is what `retrozilla-serve --lint` audits.
pub fn read_layout(repo: &Path) -> Result<RepositorySnapshot, RepositoryError> {
    let dir = layout_dir(repo);
    let manifest = ShardManifest::load(&dir)?.ok_or_else(|| {
        RepositoryError::io("no repository layout: the directory has no manifest.json", &dir)
    })?;
    let state = ShardedRepository::new(1);
    for shard in 0..manifest.shards {
        for (_, rules) in load_shard_snapshot(&dir, shard, manifest.shards)?.iter() {
            state.record(rules.clone());
        }
        let wal_path = ShardManifest::wal_path(&dir, shard);
        let replayed = replay(&wal_path)
            .map_err(|e| RepositoryError::io(&format!("cannot replay WAL: {e}"), &wal_path))?;
        for op in replayed.ops {
            check_route(op.cluster(), shard, manifest.shards, &wal_path)?;
            op.apply(&state);
        }
    }
    Ok(state.snapshot())
}

/// Shard `shard`'s snapshot clusters (none when the file is absent).
fn load_shard_snapshot(
    dir: &Path,
    shard: usize,
    shards: usize,
) -> Result<RepositorySnapshot, RepositoryError> {
    let path = ShardManifest::snapshot_path(dir, shard);
    if !path.exists() {
        return Ok(RepositorySnapshot::default());
    }
    let snapshot = RepositorySnapshot::load(&path)?;
    for (name, _) in snapshot.iter() {
        check_route(name, shard, shards, &path)?;
    }
    Ok(snapshot)
}

/// A cluster found in shard `shard`'s `file` must route there. One that
/// does not means the routing hash changed or the file was hand-edited:
/// loaded anyway, it would sit where no mutation can reach it, or (from
/// a log) race into a foreign shard during parallel replay.
fn check_route(
    cluster: &str,
    shard: usize,
    shards: usize,
    file: &Path,
) -> Result<(), RepositoryError> {
    if shard_for(cluster, shards) == shard {
        return Ok(());
    }
    Err(RepositoryError::io(
        &format!(
            "cluster '{cluster}' does not route to shard {shard}; the shard layout is corrupt"
        ),
        file,
    ))
}

// ---- durable repository ----------------------------------------------------

/// Point-in-time WAL counters for `/metrics` and capacity planning.
/// In sharded mode these exist per shard; [`DurableRepository::wal_stats`]
/// returns the sum and [`DurableRepository::shard_wal_stats`] the
/// breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appended_records: u64,
    /// Framed bytes appended since open.
    pub appended_bytes: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Intact records replayed at open.
    pub replayed_records: u64,
    /// Torn-tail bytes discarded at open (0 for a clean log).
    pub replay_torn_bytes: u64,
    /// Current WAL file size.
    pub wal_bytes: u64,
    /// Mutations logged since the last compaction.
    pub since_compaction: u64,
}

impl WalStats {
    /// Fold another counter snapshot into this one — how per-shard WAL
    /// counters are summed into a store-wide aggregate.
    pub fn accumulate(&mut self, other: &WalStats) {
        self.appended_records += other.appended_records;
        self.appended_bytes += other.appended_bytes;
        self.compactions += other.compactions;
        self.replayed_records += other.replayed_records;
        self.replay_torn_bytes += other.replay_torn_bytes;
        self.wal_bytes += other.wal_bytes;
        self.since_compaction += other.since_compaction;
    }
}

/// What a log's compaction snapshots: the whole store (one log for
/// every shard, [`DurableRepository::attach_wal`]) or just the clusters
/// routed to one shard (the directory layout).
#[derive(Clone, Copy, Debug)]
enum SnapshotScope {
    Whole,
    Shard(usize),
}

/// One write-ahead log plus its base snapshot and counters. Guarded by
/// its own mutex, so appends (and compactions) for different shards
/// never serialise on each other.
struct WalShard {
    snapshot: PathBuf,
    wal: Wal,
    scope: SnapshotScope,
    compact_every: u64,
    stats: WalStats,
}

impl WalShard {
    /// Open (recovering a torn tail) the log at `wal_path` and replay it
    /// into `store`, which must already hold the state loaded from
    /// `snapshot`. With a shard scope, a record for a cluster that
    /// routes to another shard is rejected as layout corruption: it
    /// would be absorbed into a foreign shard racily during parallel
    /// replay and then diverge across compactions.
    fn open(
        store: &dyn ClusterStore,
        snapshot: PathBuf,
        wal_path: &Path,
        scope: SnapshotScope,
        compact_every: u64,
    ) -> Result<WalShard, RepositoryError> {
        let (wal, replayed) = Wal::open(wal_path)
            .map_err(|e| RepositoryError::io(&format!("cannot open WAL: {e}"), wal_path))?;
        for op in &replayed.ops {
            if let SnapshotScope::Shard(shard) = scope {
                check_route(op.cluster(), shard, store.shard_count(), wal_path)?;
            }
            op.apply(store);
        }
        let stats = WalStats {
            replayed_records: replayed.ops.len() as u64,
            replay_torn_bytes: replayed.torn_bytes,
            wal_bytes: wal.len(),
            since_compaction: replayed.ops.len() as u64,
            ..WalStats::default()
        };
        Ok(WalShard { snapshot, wal, scope, compact_every: compact_every.max(1), stats })
    }
}

/// A [`ClusterStore`] whose mutations are durable before they are
/// acknowledged. Readers go straight to [`store`](Self::store) — the
/// durability layer is never on the read path; writers take only the
/// mutex of the one WAL shard their cluster routes to, so the WAL order
/// per shard always equals the in-memory apply order per cluster.
pub struct DurableRepository {
    store: Arc<dyn ClusterStore>,
    /// One entry per log: a WAL append per mutation, folded into its
    /// snapshot every `compact_every` mutations. Empty when nothing is
    /// persisted ([`ephemeral`](Self::ephemeral)).
    logs: Vec<Mutex<WalShard>>,
}

impl std::fmt::Debug for DurableRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableRepository").field("store", &self.store).finish_non_exhaustive()
    }
}

impl DurableRepository {
    /// No persistence: mutations live only in memory.
    pub fn ephemeral(store: Arc<dyn ClusterStore>) -> DurableRepository {
        DurableRepository { store, logs: Vec::new() }
    }

    /// One log for the whole store, over an already-loaded base state:
    /// replay any existing log at `wal_path` on top of `store`
    /// (recovering a torn tail), and log every future mutation there,
    /// compacting the whole store into `snapshot` every `compact_every`
    /// mutations.
    ///
    /// `store` must hold the state loaded from `snapshot` (or be empty
    /// when the snapshot doesn't exist yet) — replay assumes the log
    /// extends exactly that base. The store may be sharded in memory;
    /// with one WAL all mutations still serialise on its mutex.
    pub fn attach_wal(
        store: Arc<dyn ClusterStore>,
        snapshot: PathBuf,
        wal_path: &Path,
        compact_every: u64,
    ) -> std::io::Result<DurableRepository> {
        let shard =
            WalShard::open(store.as_ref(), snapshot, wal_path, SnapshotScope::Whole, compact_every)
                .map_err(std::io::Error::other)?;
        Ok(DurableRepository { store, logs: vec![Mutex::new(shard)] })
    }

    /// Open (creating it if needed) the repository at `repo`: the
    /// directory [`layout_dir`]`(repo)`, one snapshot + WAL pair per
    /// shard, all replayed in parallel, per-shard compaction from then
    /// on.
    ///
    /// - An existing `manifest.json` fixes the shard count: the
    ///   requested count is ignored, and callers compare it with
    ///   `store().shard_count()` to tell (resharding an existing layout
    ///   is a ROADMAP follow-up);
    /// - without a manifest, the optional `seed` clusters are
    ///   partitioned into per-shard snapshot files, then the manifest is
    ///   written as the commit point. A crash at *any* point before the
    ///   manifest leaves no manifest, so the next open redoes the whole
    ///   initialisation from the seed it is given; once a manifest
    ///   exists, the layout's own history is authoritative and the seed
    ///   is ignored.
    pub fn open(
        repo: &Path,
        requested_shards: usize,
        compact_every: u64,
        seed: Option<&RepositorySnapshot>,
    ) -> Result<DurableRepository, RepositoryError> {
        let dir = &layout_dir(repo);
        let io_err = |msg: String| RepositoryError::io(&msg, dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| io_err(format!("cannot create shard directory: {e}")))?;
        let shards = match ShardManifest::load(dir)? {
            Some(manifest) => manifest.shards,
            None => {
                let shards = requested_shards.max(1);
                Self::init_layout(dir, shards, seed)?;
                // The directory's own entry must be durable before the
                // manifest commits a layout inside it.
                fsync_parent_dir(dir)
                    .map_err(|e| io_err(format!("cannot sync shard directory: {e}")))?;
                ShardManifest { shards }
                    .save(dir)
                    .map_err(|e| io_err(format!("cannot write manifest: {e}")))?;
                shards
            }
        };

        let store = Arc::new(ShardedRepository::new(shards));
        // Load + replay every shard in parallel: shards are disjoint by
        // construction, and the store's writers are per-shard, so the
        // only coordination needed is joining the threads.
        let logs = std::thread::scope(|scope| -> Result<Vec<Mutex<WalShard>>, RepositoryError> {
            let mut handles = Vec::with_capacity(shards);
            for i in 0..shards {
                let store = Arc::clone(&store);
                handles.push(scope.spawn(move || Self::open_shard(dir, i, &store, compact_every)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard open thread panicked").map(Mutex::new))
                .collect()
        })?;
        Ok(DurableRepository { store, logs })
    }

    /// Partition the `seed` clusters into per-shard snapshot files in
    /// `dir`, next to an empty log per shard. Shard files lying around
    /// from an aborted earlier initialisation are replaced — without a
    /// manifest they are not history.
    ///
    /// The empty logs are written without an fsync each: the manifest's
    /// directory fsync makes their entries durable, a log whose magic
    /// did not reach the disk replays as empty and is re-initialised,
    /// and every append syncs its whole file. That keeps a fresh layout
    /// at a fixed handful of fsyncs, however many shards it has.
    fn init_layout(
        dir: &Path,
        shards: usize,
        seed: Option<&RepositorySnapshot>,
    ) -> Result<(), RepositoryError> {
        for i in 0..shards {
            let wal_path = ShardManifest::wal_path(dir, i);
            std::fs::write(&wal_path, WAL_MAGIC).map_err(|e| {
                RepositoryError::io(&format!("cannot create shard WAL: {e}"), &wal_path)
            })?;
            let _ = std::fs::remove_file(ShardManifest::snapshot_path(dir, i));
        }
        let state = ShardedRepository::new(shards);
        for (_, rules) in seed.iter().flat_map(|seed| seed.iter()) {
            state.record(rules.clone());
        }
        for i in 0..shards {
            let snapshot = state.shard_snapshot(i);
            if snapshot.is_empty() {
                continue; // an absent shard snapshot loads as empty
            }
            let path = ShardManifest::snapshot_path(dir, i);
            snapshot.save(&path).map_err(|e| {
                RepositoryError::io(&format!("cannot write shard snapshot: {e}"), &path)
            })?;
        }
        Ok(())
    }

    /// Load one shard's snapshot into the store and replay its WAL.
    fn open_shard(
        dir: &Path,
        shard: usize,
        store: &ShardedRepository,
        compact_every: u64,
    ) -> Result<WalShard, RepositoryError> {
        for (_, rules) in load_shard_snapshot(dir, shard, store.shard_count())?.iter() {
            store.record(rules.clone());
        }
        WalShard::open(
            store,
            ShardManifest::snapshot_path(dir, shard),
            &ShardManifest::wal_path(dir, shard),
            SnapshotScope::Shard(shard),
            compact_every,
        )
    }

    /// The in-memory store — all reads (and extraction) go here.
    pub fn store(&self) -> &Arc<dyn ClusterStore> {
        &self.store
    }

    /// Insert-or-replace a cluster durably. On `Ok`, the mutation is
    /// fsynced to its WAL *and* applied in memory, and the value says
    /// whether a cluster of that name was replaced (decided by the
    /// store under its lock, so racing records of a new name cannot
    /// both report `false`).
    pub fn record(&self, rules: ClusterRules) -> std::io::Result<bool> {
        self.mutate(WalOp::Record(rules))
    }

    /// Remove a cluster durably. Returns whether it existed. An absent
    /// cluster is not logged (nothing changed, nothing to make durable).
    pub fn remove(&self, cluster: &str) -> std::io::Result<bool> {
        let Some(mut shard) = self.wal_shard(cluster) else {
            return Ok(self.store.remove(cluster));
        };
        // Check-and-log under the shard lock, so two racing removes of
        // the same cluster log exactly once.
        if self.store.get(cluster).is_none() {
            return Ok(false);
        }
        Self::wal_mutate_locked(self.store.as_ref(), &mut shard, WalOp::Remove(cluster.to_string()))
    }

    /// Which WAL shard a cluster's mutations are logged in, locked;
    /// `None` when nothing is persisted. The store's routing decides —
    /// persistence and memory must agree, or a shard's snapshot would
    /// miss clusters its log mutated.
    fn wal_shard(&self, cluster: &str) -> Option<MutexGuard<'_, WalShard>> {
        let index = if self.logs.len() == 1 { 0 } else { self.store.shard_of(cluster) };
        Some(self.logs.get(index)?.lock().expect("wal shard lock poisoned"))
    }

    /// Log-then-apply under the target shard's lock: per-shard WAL
    /// order == apply order, and a failed fsync means the mutation is
    /// *not* applied (the caller's 500 is honest — nothing
    /// half-happened). Returns what [`WalOp::apply`] returns.
    fn mutate(&self, op: WalOp) -> std::io::Result<bool> {
        match self.wal_shard(op.cluster()) {
            Some(mut shard) => Self::wal_mutate_locked(self.store.as_ref(), &mut shard, op),
            None => Ok(op.apply(self.store.as_ref())),
        }
    }

    fn wal_mutate_locked(
        store: &dyn ClusterStore,
        shard: &mut WalShard,
        op: WalOp,
    ) -> std::io::Result<bool> {
        let appended = shard.wal.append(&op)?;
        let existed = op.apply(store);
        shard.stats.appended_records += 1;
        shard.stats.appended_bytes += appended;
        shard.stats.since_compaction += 1;
        shard.stats.wal_bytes = shard.wal.len();
        if shard.stats.since_compaction >= shard.compact_every {
            Self::compact_locked(store, shard)?;
        }
        Ok(existed)
    }

    /// Fold every dirty shard's log into its snapshot and truncate it.
    /// No-op outside WAL mode or for clean shards.
    pub fn compact(&self) -> std::io::Result<()> {
        for shard in &self.logs {
            let mut shard = shard.lock().expect("wal shard lock poisoned");
            if shard.stats.since_compaction > 0 || !shard.wal.is_empty() {
                Self::compact_locked(self.store.as_ref(), &mut shard)?;
            }
        }
        Ok(())
    }

    /// Snapshot-then-truncate, in that order: the snapshot (and its
    /// directory entry) must be durable before the records it absorbs
    /// are dropped from the log. A crash in between replays ops the
    /// snapshot already holds — harmless, because replay is idempotent.
    /// Sharded scope snapshots only this shard's clusters, so one
    /// shard's compaction never reads (let alone rewrites) the others.
    fn compact_locked(store: &dyn ClusterStore, shard: &mut WalShard) -> std::io::Result<()> {
        let snapshot = match shard.scope {
            SnapshotScope::Whole => store.snapshot(),
            SnapshotScope::Shard(i) => store.shard_snapshot(i),
        };
        snapshot.save(&shard.snapshot)?; // atomic rename + directory fsync
        shard.wal.truncate()?;
        shard.stats.compactions += 1;
        shard.stats.since_compaction = 0;
        shard.stats.wal_bytes = shard.wal.len();
        Ok(())
    }

    /// Aggregate WAL counters (summed over shards), `None` outside WAL
    /// mode.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.shard_wal_stats().map(|per_shard| {
            let mut total = WalStats::default();
            for stats in &per_shard {
                total.accumulate(stats);
            }
            total
        })
    }

    /// Per-log WAL counters in shard order, `None` outside WAL mode.
    /// [`attach_wal`](Self::attach_wal) reports one entry.
    pub fn shard_wal_stats(&self) -> Option<Vec<WalStats>> {
        if self.logs.is_empty() {
            return None;
        }
        Some(self.logs.iter().map(|s| s.lock().expect("wal shard lock poisoned").stats).collect())
    }
}

impl RepositoryError {
    /// An I/O-flavoured repository error carrying the file path.
    fn io(message: &str, path: &Path) -> RepositoryError {
        RepositoryError {
            message: message.to_string(),
            path: Some(path.to_path_buf()),
            cluster: None,
            key: None,
            xpath: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ComponentName, Format, Multiplicity, Optionality};
    use crate::MappingRule;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("retrozilla-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cluster(name: &str, n_rules: usize) -> ClusterRules {
        let mut c = ClusterRules::new(name, "page");
        for i in 0..n_rules {
            c.rules.push(MappingRule {
                name: ComponentName::new(&format!("c{i}")).unwrap(),
                optionality: Optionality::Mandatory,
                multiplicity: Multiplicity::SingleValued,
                format: Format::Text,
                locations: vec![retroweb_xpath::parse("/HTML[1]/BODY[1]/H1[1]/text()").unwrap()],
                post: vec![],
            });
        }
        c
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("rules.wal");
        let ops = vec![
            WalOp::Record(cluster("a", 2)),
            WalOp::Record(cluster("b", 1)),
            WalOp::Remove("a".to_string()),
            WalOp::Record(cluster("a", 3)),
        ];
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.ops.is_empty());
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.ops, ops);
        assert_eq!(replayed.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        let path = dir.join("rules.wal");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&WalOp::Record(cluster("a", 1))).unwrap();
            wal.append(&WalOp::Record(cluster("b", 1))).unwrap();
        }
        // Tear the tail mid-record: keep the first record plus 5 bytes.
        let bytes = std::fs::read(&path).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops.len(), 2);
        let first_end = {
            // magic + header + payload of record 0
            let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
            8 + 8 + len
        };
        std::fs::write(&path, &bytes[..first_end + 5]).unwrap();
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.ops.len(), 1, "only the intact record survives");
        assert_eq!(replayed.torn_bytes, 5);
        assert_eq!(wal.len(), first_end as u64, "file truncated to last intact record");
        // And the recovered log keeps working.
        drop(wal);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalOp::Record(cluster("c", 1))).unwrap();
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.ops.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_record_is_refused_up_front() {
        let dir = temp_dir("oversize");
        let path = dir.join("rules.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        // A payload past MAX_RECORD_BYTES would be dropped as corruption
        // on replay — appending it would silently break durability, so
        // it must be an error *before* anything reaches the file.
        let mut huge = ClusterRules::new("c", "p");
        huge.page_element = "x".repeat(MAX_RECORD_BYTES as usize + 1);
        let err = wal.append(&WalOp::Record(huge)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(wal.is_empty(), "nothing may reach the log");
        // The log is not poisoned: normal appends still work.
        wal.append(&WalOp::Record(cluster("a", 1))).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.ops.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_magic_recovers_empty() {
        let dir = temp_dir("magic");
        let path = dir.join("rules.wal");
        std::fs::write(&path, b"GARBAGE!junk records here").unwrap();
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert!(replayed.ops.is_empty());
        assert_eq!(replayed.torn_bytes, 25);
        assert!(wal.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One log over a one-shard store, reopened from its snapshot the
    /// way a restart would: the [`DurableRepository::attach_wal`] path.
    fn attach_single(snapshot: &Path, wal: &Path, compact_every: u64) -> DurableRepository {
        let store = ShardedRepository::new(1);
        if snapshot.exists() {
            for (_, rules) in RepositorySnapshot::load(snapshot).unwrap().iter() {
                store.record(rules.clone());
            }
        }
        DurableRepository::attach_wal(Arc::new(store), snapshot.to_path_buf(), wal, compact_every)
            .unwrap()
    }

    /// The directory layout of `repo` at one shard.
    fn open_one_shard(repo: &Path, compact_every: u64) -> DurableRepository {
        DurableRepository::open(repo, 1, compact_every, None).unwrap()
    }

    #[test]
    fn durable_repository_replays_after_reopen() {
        let dir = temp_dir("durable");
        let snapshot = dir.join("rules.json");
        let wal = dir.join("rules.wal");
        {
            let repo = attach_single(&snapshot, &wal, 1_000);
            repo.record(cluster("a", 2)).unwrap();
            repo.record(cluster("b", 1)).unwrap();
            assert!(repo.remove("a").unwrap());
            assert!(!repo.remove("nope").unwrap());
            let stats = repo.wal_stats().unwrap();
            assert_eq!(stats.appended_records, 3);
            assert_eq!(stats.compactions, 0);
            // No compaction yet: the snapshot file does not even exist.
            assert!(!snapshot.exists());
        } // dropped without compaction — simulated crash
        let repo = attach_single(&snapshot, &wal, 1_000);
        assert_eq!(repo.store().cluster_names(), vec!["b"]);
        assert_eq!(repo.wal_stats().unwrap().replayed_records, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_refuses_a_rule_its_log_cannot_replay() {
        let dir = temp_dir("unreplayable");
        let snapshot = dir.join("rules.json");
        let wal = dir.join("rules.wal");
        // 71 union arms print as one flat expression that re-parses
        // past the XPath nesting limit.
        let arm = retroweb_xpath::parse("/HTML[1]/BODY[1]/H1[1]/text()").unwrap();
        let mut deep = cluster("deep", 1);
        deep.rules[0].locations = vec![retroweb_xpath::Expr::union_of(vec![arm; 71])];
        {
            let repo = attach_single(&snapshot, &wal, 1_000);
            repo.record(cluster("before", 1)).unwrap();
            let wal_len = std::fs::metadata(&wal).unwrap().len();
            let err = repo.record(deep).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len, "log touched");
            assert_eq!(repo.store().cluster_names(), vec!["before"], "store touched");
            repo.record(cluster("after", 1)).unwrap();
        }
        // Every acknowledged record replays, including the later one.
        let repo = attach_single(&snapshot, &wal, 1_000);
        assert_eq!(repo.store().cluster_names(), vec!["after", "before"]);
        assert_eq!(repo.wal_stats().unwrap().replayed_records, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_log_into_snapshot() {
        let dir = temp_dir("compact");
        let path = dir.join("rules");
        let layout = layout_dir(&path);
        {
            let repo = open_one_shard(&path, 2);
            repo.record(cluster("a", 1)).unwrap();
            assert!(repo.wal_stats().unwrap().compactions == 0);
            repo.record(cluster("b", 1)).unwrap(); // second mutation triggers compaction
            let stats = repo.wal_stats().unwrap();
            assert_eq!(stats.compactions, 1);
            assert_eq!(stats.since_compaction, 0);
            assert_eq!(stats.wal_bytes, WAL_MAGIC.len() as u64);
        }
        // Snapshot alone reproduces the state; the log is empty.
        let on_disk = RepositorySnapshot::load(&ShardManifest::snapshot_path(&layout, 0)).unwrap();
        assert_eq!(on_disk.cluster_names(), vec!["a", "b"]);
        assert_eq!(std::fs::read(ShardManifest::wal_path(&layout, 0)).unwrap(), WAL_MAGIC);
        // Reopen: replay is a no-op over the compacted snapshot.
        let repo = open_one_shard(&path, 2);
        assert_eq!(repo.store().cluster_names(), vec!["a", "b"]);
        assert_eq!(repo.wal_stats().unwrap().replayed_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_snapshot_and_truncate_is_idempotent() {
        let dir = temp_dir("idem");
        let path = dir.join("rules");
        {
            let repo = open_one_shard(&path, 1_000);
            repo.record(cluster("a", 1)).unwrap();
            repo.record(cluster("b", 2)).unwrap();
            // Simulate the crash window: snapshot written, log NOT yet
            // truncated.
            let snapshot = ShardManifest::snapshot_path(&layout_dir(&path), 0);
            repo.store().snapshot().save(&snapshot).unwrap();
        }
        // Replay re-applies ops the snapshot already holds — same state.
        let repo = open_one_shard(&path, 1_000);
        assert_eq!(repo.store().cluster_names(), vec!["a", "b"]);
        assert_eq!(repo.store().get("b"), Some(cluster("b", 2)));
        assert_eq!(repo.wal_stats().unwrap().replayed_records, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ephemeral_mode_touches_no_disk() {
        let repo = DurableRepository::ephemeral(Arc::new(ShardedRepository::new(1)));
        repo.record(cluster("a", 1)).unwrap();
        assert!(repo.remove("a").unwrap());
        assert!(repo.wal_stats().is_none());
    }

    #[test]
    fn replay_is_read_only() {
        let dir = temp_dir("info");
        let path = dir.join("rules.wal");
        // Missing file: nothing replays, nothing is torn, nothing is
        // created.
        let replayed = replay(&path).unwrap();
        assert_eq!((replayed.ops.len(), replayed.valid_len, replayed.torn_bytes), (0, 0, 0));
        assert!(!path.exists(), "replay must not create the log");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&WalOp::Record(cluster("a", 1))).unwrap();
            wal.append(&WalOp::Record(cluster("b", 1))).unwrap();
            wal.append(&WalOp::Remove("a".to_string())).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops.len(), 3);
        let upserts = replayed.ops.iter().filter(|op| matches!(op, WalOp::Record(_))).count();
        assert_eq!(upserts, 2);
        assert_eq!(replayed.valid_len, clean.len() as u64);
        assert_eq!(replayed.torn_bytes, 0);
        // Tear the tail: replay reports it but must not truncate.
        let mut torn = clean.clone();
        torn.extend_from_slice(&[1, 2, 3, 4, 5]);
        std::fs::write(&path, &torn).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.ops.len(), 3);
        assert_eq!(replayed.torn_bytes, 5);
        assert_eq!(replayed.valid_len, clean.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), torn, "replay must never mutate the log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trip_and_rejections() {
        let dir = temp_dir("manifest");
        assert_eq!(ShardManifest::load(&dir).unwrap(), None);
        ShardManifest { shards: 8 }.save(&dir).unwrap();
        assert_eq!(ShardManifest::load(&dir).unwrap(), Some(ShardManifest { shards: 8 }));
        for bad in [
            "{}",
            "{\"version\":2,\"shards\":8,\"hash\":\"fnv1a-64\"}",
            "{\"version\":1,\"shards\":8,\"hash\":\"sha256\"}",
            "{\"version\":1,\"shards\":0,\"hash\":\"fnv1a-64\"}",
            "not json",
        ] {
            std::fs::write(ShardManifest::path(&dir), bad).unwrap();
            assert!(ShardManifest::load(&dir).is_err(), "{bad}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_open_mutate_crash_replay_round_trip() {
        let dir = temp_dir("sharded");
        let repo = dir.join("rules");
        let shard_dir = layout_dir(&repo);
        {
            let durable = DurableRepository::open(&repo, 4, 1_000, None).unwrap();
            let store = durable.store();
            assert_eq!(store.shard_count(), 4);
            for i in 0..12 {
                durable.record(cluster(&format!("c{i}"), 1 + i % 2)).unwrap();
            }
            assert!(durable.remove("c3").unwrap());
            assert!(!durable.remove("c3").unwrap());
            // Mutations land in the WAL of the shard the cluster
            // routes to, and nowhere else.
            let per_shard = durable.shard_wal_stats().unwrap();
            assert_eq!(per_shard.len(), 4);
            assert_eq!(per_shard.iter().map(|s| s.appended_records).sum::<u64>(), 13);
            for (i, stats) in per_shard.iter().enumerate() {
                let expected = (0..12).filter(|&c| shard_for(&format!("c{c}"), 4) == i).count()
                    as u64
                    + u64::from(shard_for("c3", 4) == i);
                assert_eq!(stats.appended_records, expected, "shard {i}");
            }
        } // crash: nothing compacted
        let durable = DurableRepository::open(&repo, 4, 1_000, None).unwrap();
        let store = durable.store();
        assert_eq!(store.len(), 11);
        assert!(store.get("c3").is_none());
        assert_eq!(store.get("c5"), Some(cluster("c5", 2)));
        assert_eq!(durable.wal_stats().unwrap().replayed_records, 13);
        // Compact every shard, reopen: state now lives in the per-shard
        // snapshots, logs are empty.
        durable.compact().unwrap();
        drop(durable);
        for i in 0..4 {
            let wal = ShardManifest::wal_path(&shard_dir, i);
            assert_eq!(std::fs::read(&wal).unwrap(), WAL_MAGIC, "shard {i} log truncated");
        }
        let durable = DurableRepository::open(&repo, 4, 1_000, None).unwrap();
        assert_eq!(durable.store().len(), 11);
        assert_eq!(durable.wal_stats().unwrap().replayed_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_open_adopts_manifest_shard_count() {
        let dir = temp_dir("adopt");
        let repo = dir.join("rules");
        {
            let durable = DurableRepository::open(&repo, 2, 1_000, None).unwrap();
            durable.record(cluster("a", 1)).unwrap();
        }
        // Requesting 8 shards over a 2-shard layout: the manifest wins
        // (resharding is a follow-up), and the store's count says so.
        let durable = DurableRepository::open(&repo, 8, 1_000, None).unwrap();
        let store = durable.store();
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_torn_shard_tail_only_loses_that_shard() {
        let dir = temp_dir("shardtorn");
        let repo = dir.join("rules");
        let shard_dir = layout_dir(&repo);
        let names: Vec<String> = (0..16).map(|i| format!("c{i}")).collect();
        {
            let durable = DurableRepository::open(&repo, 4, 1_000, None).unwrap();
            for name in &names {
                durable.record(cluster(name, 1)).unwrap();
            }
        }
        // Tear the tail off shard 0's log mid-record.
        let victim = ShardManifest::wal_path(&shard_dir, 0);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
        let victims: Vec<&String> = names.iter().filter(|n| shard_for(n, 4) == 0).collect();
        assert!(!victims.is_empty());
        let durable = DurableRepository::open(&repo, 4, 1_000, None).unwrap();
        let store = durable.store();
        // Exactly the victim shard's last record is gone; every other
        // shard replays in full.
        assert_eq!(store.len(), names.len() - 1);
        let lost: Vec<&String> = names.iter().filter(|n| store.get(n).is_none()).collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(shard_for(lost[0], 4), 0, "only shard 0 may lose records");
        let per_shard = durable.shard_wal_stats().unwrap();
        assert!(per_shard[0].replay_torn_bytes > 0);
        assert_eq!(per_shard[0].replayed_records as usize, victims.len() - 1);
        for (i, stats) in per_shard.iter().enumerate().skip(1) {
            assert_eq!(stats.replay_torn_bytes, 0, "shard {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_compaction_is_per_shard() {
        let dir = temp_dir("shardcompact");
        let repo = dir.join("rules");
        let shard_dir = layout_dir(&repo);
        let durable = DurableRepository::open(&repo, 4, 3, None).unwrap();
        // Drive one shard over its compaction threshold while the
        // others stay below it.
        let busy: Vec<String> =
            (0..100).map(|i| format!("x{i}")).filter(|n| shard_for(n, 4) == 2).take(3).collect();
        assert_eq!(busy.len(), 3);
        let quiet: String =
            (0..100).map(|i| format!("q{i}")).find(|n| shard_for(n, 4) == 1).unwrap();
        durable.record(cluster(&quiet, 1)).unwrap();
        for name in &busy {
            durable.record(cluster(name, 1)).unwrap();
        }
        let per_shard = durable.shard_wal_stats().unwrap();
        assert_eq!(per_shard[2].compactions, 1, "busy shard compacted");
        assert_eq!(per_shard[2].since_compaction, 0);
        assert_eq!(per_shard[1].compactions, 0, "quiet shard untouched");
        assert_eq!(per_shard[1].since_compaction, 1);
        // The busy shard's snapshot holds exactly its clusters.
        let snap_2 = ShardManifest::snapshot_path(&shard_dir, 2);
        let loaded = RepositorySnapshot::load(&snap_2).unwrap();
        let mut want = busy.clone();
        want.sort();
        assert_eq!(loaded.cluster_names(), want);
        // Quiet shard: no snapshot yet (nothing compacted).
        assert!(!ShardManifest::snapshot_path(&shard_dir, 1).exists());
        drop(durable);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file under `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn read_layout_of_a_directory_is_the_live_state_and_writes_nothing() {
        let dir = temp_dir("readlayout");
        let repo = dir.join("rules.json");
        let shard_dir = layout_dir(&repo);
        // No manifest, no layout: the error names the directory, even
        // with a saved repository file at `repo` itself.
        RepositorySnapshot::from_iter([cluster("saved-only", 1)]).save(&repo).unwrap();
        let err = read_layout(&repo).unwrap_err().to_string();
        assert!(err.contains(&shard_dir.display().to_string()), "{err}");
        assert!(!shard_dir.exists(), "reading must not create the directory");
        // Seeded clusters start in the shard snapshots; the mutations
        // after them live only in the logs (nothing compacts).
        let seed: RepositorySnapshot = (0..8).map(|i| cluster(&format!("s{i}"), 1)).collect();
        let live = {
            let durable = DurableRepository::open(&repo, 4, 1_000, Some(&seed)).unwrap();
            durable.record(cluster("s1", 3)).unwrap();
            assert!(durable.remove("s2").unwrap());
            durable.record(cluster("fresh", 2)).unwrap();
            assert_eq!(durable.wal_stats().unwrap().compactions, 0);
            durable.store().snapshot()
        };
        let before = dir_bytes(&shard_dir);

        let read = read_layout(&repo).unwrap();
        assert_eq!(read.cluster_names(), live.cluster_names());
        for (name, rules) in live.iter() {
            assert_eq!(read.get(name), Some(rules), "{name}");
        }
        assert_eq!(read.get("s1"), Some(&cluster("s1", 3)), "log replaces snapshot");
        assert!(read.get("s2").is_none(), "log removal applied");
        assert_eq!(dir_bytes(&shard_dir), before, "reading must not write");
        std::fs::remove_dir_all(&dir).ok();
    }
}
