//! Tree building is linear in nesting depth. Every test here is a timing
//! test, and each holds [`ONE_AT_A_TIME`], so none measures while
//! another loads the host.

use retroweb_html::parse;
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Guards no data, so a panicked holder leaves nothing to repair.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Best of three parses, so one descheduling does not decide the ratio.
fn parse_time(html: &str) -> Duration {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            black_box(parse(black_box(html)));
            started.elapsed()
        })
        .min()
        .expect("three runs")
}

/// Parsing `hostile`, which holds `n` `<div>`s, may take at most 4× the
/// time of `n` flat `<div></div>`s.
fn assert_within_4x_of_flat(label: &str, n: usize, hostile: &str) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let flat = "<div></div>".repeat(n);
    assert_eq!(parse(hostile).elements_by_tag("div").len(), n, "{label}");
    let (hostile_time, flat_time) = (parse_time(hostile), parse_time(&flat));
    let ratio = hostile_time.as_secs_f64() / flat_time.as_secs_f64().max(1e-9);
    println!("{label}: {hostile_time:?}, {n} flat divs {flat_time:?} -> {ratio:.2}x");
    assert!(ratio <= 4.0, "{label} took {ratio:.1}x the time of {n} flat divs");
}

#[test]
fn deep_nesting_parses_within_4x_of_flat() {
    const N: usize = 80_000;
    let nested = "<div>".repeat(N) + &"</div>".repeat(N);
    assert_within_4x_of_flat("80k nested divs", N, &nested);
}

/// Past the nesting cap every `<div>` still looks for the open `<p>`, and
/// the `<td>` between them stops it; finding both costs no stack scan.
#[test]
fn deep_nesting_behind_a_scope_boundary_parses_within_4x_of_flat() {
    const N: usize = 40_000;
    let hostile = format!("<p><td>{}", "<div>".repeat(N));
    assert_within_4x_of_flat("<p><td> + 40k nested divs", N, &hostile);
}

/// `shape(n)` holds `n` `<div>`s. Parsing `shape(4n)` may take at most
/// 8× the time of `shape(n)`: linear growth is 4×, quadratic 16×.
fn assert_linear_growth(label: &str, shape: impl Fn(usize) -> String) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    const N: usize = 10_000;
    let (small, large) = (shape(N), shape(4 * N));
    assert_eq!(parse(&small).elements_by_tag("div").len(), N, "{label}");
    assert_eq!(parse(&large).elements_by_tag("div").len(), 4 * N, "{label}");
    let (small_time, large_time) = (parse_time(&small), parse_time(&large));
    let growth = large_time.as_secs_f64() / small_time.as_secs_f64().max(1e-9);
    println!("{label}: {N} {small_time:?}, {} {large_time:?} -> {growth:.2}x", 4 * N);
    assert!(growth <= 8.0, "{label}: 4x the input took {growth:.1}x the time");
}

/// Each `<div>` closes an open `<p>`, so the builder scans for it; the
/// `<td>` is a scope boundary at the bottom of the stack, which ends the
/// scan only after every open `<div>` above it.
#[test]
fn deep_nesting_behind_a_scope_boundary_grows_linearly() {
    assert_linear_growth("<p><td> + nested divs", |n| format!("<p><td>{}", "<div>".repeat(n)));
}

/// An end tag with no open element of its name scans the whole stack.
#[test]
fn unmatched_end_tags_under_deep_nesting_grow_linearly() {
    assert_linear_growth("nested divs + </span>s", |n| "<div>".repeat(n) + &"</span>".repeat(n));
}
