//! Closed-loop load: each client sends its next request only after the
//! previous reply has arrived and been checked.

use crate::client::Conn;
use crate::inputs::{encode_op, expected, pages_of, Inputs, Op, OpStream};
use crate::stats::{Failure, Tally};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Identity of a distinct extraction reply: (single page: family and
/// page) or (batch: batch and format). F1 is computed over the first
/// served body of each.
pub type ServedKey = (bool, u32, u32);

fn served_key(inputs: &Inputs, op: Op) -> Option<ServedKey> {
    match op {
        Op::Extract { cluster, page } => {
            Some((false, inputs.clusters[cluster as usize].family as u32, page))
        }
        Op::Batch { batch, ndjson, .. } => Some((true, batch, ndjson as u32)),
        Op::Put { .. } => None,
    }
}

fn cluster_of(op: Op) -> usize {
    match op {
        Op::Extract { cluster, .. } | Op::Batch { cluster, .. } | Op::Put { cluster } => {
            cluster as usize
        }
    }
}

/// What one client saw.
#[derive(Default)]
pub struct ClientRun {
    /// Extract requests (single page or batch), nanoseconds.
    pub extract_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    /// The extract right after each `PUT`.
    pub reload_ns: Vec<u64>,
    /// Every request, in order sent.
    pub all_ns: Vec<u64>,
    pub pages: u64,
    pub tally: Tally,
    pub served: HashMap<ServedKey, Vec<u8>>,
    /// Rule version per cluster when the client stopped.
    pub versions: Vec<u8>,
}

impl ClientRun {
    pub fn merge(&mut self, other: ClientRun) {
        self.extract_ns.extend(other.extract_ns);
        self.put_ns.extend(other.put_ns);
        self.reload_ns.extend(other.reload_ns);
        self.all_ns.extend(other.all_ns);
        self.pages += other.pages;
        self.tally.merge(&other.tally);
        for (key, body) in other.served {
            self.served.entry(key).or_insert(body);
        }
    }
}

/// When a client stops.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Ops(u64),
}

/// Drive one keep-alive connection through `stream` until `until`.
pub fn run_client(
    addr: SocketAddr,
    inputs: &Inputs,
    stream: &mut OpStream,
    mut versions: Vec<u8>,
    until: Until,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = Conn::connect(addr).ok();
    let mut request = Vec::with_capacity(128 * 1024);
    let mut sent = 0u64;
    loop {
        match until {
            Until::Deadline(at) if Instant::now() >= at => break,
            Until::Ops(n) if sent >= n => break,
            _ => {}
        }
        sent += 1;
        let (op, reload) = stream.next(inputs);
        let cluster = cluster_of(op);
        let version = match op {
            Op::Put { .. } => versions[cluster] ^ 1,
            _ => versions[cluster],
        };
        encode_op(&mut request, inputs, op, version);
        let Some(c) = conn.as_mut() else {
            run.tally.record(Err(Failure::Transport));
            std::thread::sleep(Duration::from_millis(10));
            conn = Conn::connect(addr).ok();
            continue;
        };
        let started = Instant::now();
        let reply = c.exchange(&request);
        let ns = started.elapsed().as_nanos() as u64;
        let outcome = match reply {
            Err(_) => {
                conn = Conn::connect(addr).ok();
                Err(Failure::Transport)
            }
            Ok(status) if !(200..300).contains(&status) => Err(Failure::Status(status)),
            Ok(_) => check_reply(inputs, op, version, &c.body),
        };
        run.all_ns.push(ns);
        match op {
            Op::Put { .. } => run.put_ns.push(ns),
            _ => run.extract_ns.push(ns),
        }
        if reload {
            run.reload_ns.push(ns);
        }
        if outcome.is_ok() {
            match op {
                Op::Put { .. } => versions[cluster] = version,
                _ => {
                    run.pages += pages_of(op);
                    if let Some(key) = served_key(inputs, op) {
                        if let Some(c) = conn.as_ref() {
                            run.served.entry(key).or_insert_with(|| c.body.clone());
                        }
                    }
                }
            }
        }
        run.tally.record(outcome);
    }
    run.versions = versions;
    run
}

/// Compare a 2xx reply with what the request must produce.
fn check_reply(inputs: &Inputs, op: Op, version: u8, body: &[u8]) -> Result<(), Failure> {
    let name = &inputs.clusters[cluster_of(op)].name;
    let ok = match expected(inputs, op, version) {
        Some(template) => template.matches(body, name),
        // A PUT acknowledges the cluster it recorded.
        None => std::str::from_utf8(body)
            .ok()
            .and_then(|s| retroweb_json::parse(s).ok())
            .is_some_and(|json| json.get("cluster").and_then(|c| c.as_str()) == Some(name)),
    };
    if ok {
        Ok(())
    } else {
        Err(Failure::Mismatch)
    }
}

/// Run one closed-loop client per stream for `window`; returns the
/// merged run and the wall time from the common start to the last reply.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    streams: &mut [OpStream],
    versions: &[u8],
    window: Duration,
) -> (ClientRun, Duration) {
    let barrier = Barrier::new(streams.len() + 1);
    let (runs, started) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let (barrier, versions) = (&barrier, versions.to_vec());
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + window;
                    run_client(addr, inputs, stream, versions, Until::Deadline(deadline))
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let runs: Vec<ClientRun> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (runs, started)
    });
    let elapsed = started.elapsed();
    // Client `k` owns the clusters `i` with `i % clients == k` and is the
    // only one that changes their versions.
    let clients = runs.len();
    let mut merged = ClientRun {
        versions: (0..versions.len()).map(|i| runs[i % clients].versions[i]).collect(),
        ..ClientRun::default()
    };
    for run in runs {
        merged.merge(run);
    }
    (merged, elapsed)
}
