//! Tree building is linear in nesting depth. This file holds one timing
//! test, so no other test in the binary runs beside it.

use retroweb_html::parse;
use std::hint::black_box;
use std::time::{Duration, Instant};

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

#[test]
fn deep_nesting_parses_within_4x_of_flat() {
    const N: usize = 80_000;
    let nested = "<div>".repeat(N) + &"</div>".repeat(N);
    let flat = "<div></div>".repeat(N);
    let doc = parse(&nested);
    assert_eq!(doc.elements_by_tag("div").len(), N);
    let (nested_time, flat_time) = (parse_time(&nested), parse_time(&flat));
    let ratio = nested_time.as_secs_f64() / flat_time.as_secs_f64().max(1e-9);
    println!("{N} divs: nested {nested_time:?}, flat {flat_time:?} -> {ratio:.2}x");
    assert!(ratio <= 4.0, "{N} nested divs took {ratio:.1}x the time of {N} flat ones");
}
