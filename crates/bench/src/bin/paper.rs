//! Runs the paper's experiments and rewrites their records in the
//! committed `BENCH_paper.json`.
//!
//! ```text
//! cargo run --release -p retroweb-bench --bin paper [name…]
//! ```
//!
//! With no name every experiment runs; otherwise only the named ones do
//! and the other entries keep their committed records. Each experiment
//! prints its rows and panics when its shape check against the paper
//! fails.

use retroweb_bench::paper::{committed, EXPERIMENTS, RECORD_PATH};
use retroweb_json::Json;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| !EXPERIMENTS.iter().any(|(e, _)| e == n)) {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(e, _)| *e).collect();
        eprintln!("unknown experiment `{unknown}`; known: {}", known.join(", "));
        std::process::exit(2);
    }
    let old = committed();
    let mut records = Vec::new();
    for &(name, run) in EXPERIMENTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            println!("==== {name}\n");
            records.push((name.to_string(), run()));
            println!();
        } else if let Some(record) = old.get(name) {
            records.push((name.to_string(), record.clone()));
        }
    }
    std::fs::write(RECORD_PATH, Json::object(records).to_string_pretty())
        .expect("write BENCH_paper.json");
    println!("[records written to {RECORD_PATH}]");
}
