//! The benchmark's own arithmetic: percentile selection, failure
//! accounting and the layer ledger. Kept free of I/O so it is unit-tested
//! on its own.

/// Fewest samples a reported tail percentile must have beyond it.
pub const TAIL_MARGIN: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank position (1-based) of the tail reported for a requested
/// quantile `want` over `n` sorted samples: `want`'s own rank when at
/// least [`TAIL_MARGIN`] samples lie beyond it, otherwise the highest rank
/// that still has that many beyond it, never below the median's.
pub fn tail_rank(n: usize, want: f64) -> usize {
    assert!(n > 0, "no samples");
    let allowed = n.saturating_sub(TAIL_MARGIN).max(rank(n, 0.5));
    rank(n, want).min(allowed)
}

/// Latency distribution of one request kind.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    pub count: usize,
    pub p50_ms: f64,
    /// The tail quantile reported (see [`tail_rank`]).
    pub tail_q: f64,
    pub tail_ms: f64,
    pub mean_ms: f64,
}

/// Summarise latencies given in nanoseconds; `None` when there are none.
pub fn summarize(samples_ns: &mut [u64], want_tail: f64) -> Option<Latency> {
    if samples_ns.is_empty() {
        return None;
    }
    samples_ns.sort_unstable();
    let n = samples_ns.len();
    let at = |r: usize| samples_ns[r - 1] as f64 / 1e6;
    let tail = tail_rank(n, want_tail);
    let mean_ms = samples_ns.iter().map(|&s| s as f64).sum::<f64>() / n as f64 / 1e6;
    Some(Latency {
        count: n,
        p50_ms: at(rank(n, 0.5)),
        tail_q: tail as f64 / n as f64,
        tail_ms: at(tail),
        mean_ms,
    })
}

/// Why one request counted as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A reply outside 2xx.
    Status(u16),
    /// Connect, write or read error, or an unparseable reply.
    Transport,
    /// A 2xx reply whose body differs from the expected one.
    Mismatch,
}

/// Requests attempted and failed, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub status: u64,
    pub transport: u64,
    pub mismatch: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {}
            Err(Failure::Status(_)) => self.status += 1,
            Err(Failure::Transport) => self.transport += 1,
            Err(Failure::Mismatch) => self.mismatch += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.status + self.transport + self.mismatch
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.status += other.status;
        self.transport += other.transport;
        self.mismatch += other.mismatch;
    }
}

/// One line of the layer ledger, in microseconds per request: the
/// layer's self time (its spans minus their child spans), and the part of
/// the request it accounts for at top level. A layer nested in another
/// (a sink inside the batch driver) or measured by repeating work outside
/// the served call has no top-level part; it is shown, not added again.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerLine {
    pub layer: &'static str,
    pub self_us: f64,
    pub top_us: f64,
}

/// The ledger of one workload: end-to-end mean beside the layer means.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    pub e2e_mean_us: f64,
    pub lines: Vec<LedgerLine>,
}

impl Ledger {
    /// Sum of the layers' top-level parts.
    pub fn sum_us(&self) -> f64 {
        self.lines.iter().map(|l| l.top_us).sum()
    }

    /// End-to-end mean minus the layer sum: socket, syscalls, handler
    /// glue, and any layer the trace misses.
    pub fn unattributed_us(&self) -> f64 {
        self.e2e_mean_us - self.sum_us()
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.e2e_mean_us > 0.0 {
            self.unattributed_us() / self.e2e_mean_us
        } else {
            0.0
        }
    }
}

/// Median of a non-empty list of values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_p99_with_enough_samples() {
        // 2000 samples: rank 1980, 20 beyond.
        assert_eq!(tail_rank(2000, 0.99), 1980);
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(tail_rank(1000, 0.99), 990);
    }

    #[test]
    fn tail_falls_back_to_keep_ten_beyond() {
        // 200 samples: p99 would leave 2 beyond; rank 190 (p95) leaves 10.
        assert_eq!(tail_rank(200, 0.99), 190);
        // 999 samples: p99's rank 990 leaves 9, so one rank lower.
        assert_eq!(999 - tail_rank(999, 0.99), TAIL_MARGIN);
        for n in [20, 57, 400, 1009, 5000] {
            assert!(n - tail_rank(n, 0.99) >= TAIL_MARGIN, "n={n}");
        }
    }

    #[test]
    fn tail_never_drops_below_median() {
        assert_eq!(tail_rank(12, 0.99), 6);
        assert_eq!(tail_rank(5, 0.99), 3);
        assert_eq!(tail_rank(1, 0.99), 1);
    }

    #[test]
    fn summary_reads_nearest_rank() {
        let mut ns: Vec<u64> = (1..=1000).rev().map(|i| i * 1_000_000).collect();
        let s = summarize(&mut ns, 0.99).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_ms, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail_ms, 990.0);
        assert_eq!(s.mean_ms, 500.5);
        assert!(summarize(&mut [], 0.99).is_none());
    }

    #[test]
    fn error_rate_counts_every_failure_kind() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.record(Ok(()));
        }
        t.record(Err(Failure::Status(503)));
        t.record(Err(Failure::Transport));
        t.record(Err(Failure::Mismatch));
        t.record(Ok(()));
        assert_eq!(t.attempted, 10);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.error_rate(), 0.3);
        let mut total = Tally::default();
        total.merge(&t);
        total.merge(&t);
        assert_eq!((total.attempted, total.failed()), (20, 6));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn ledger_sums_top_level_layers_only() {
        let ledger = Ledger {
            e2e_mean_us: 1000.0,
            lines: vec![
                LedgerLine { layer: "http.parse", self_us: 10.0, top_us: 10.0 },
                LedgerLine { layer: "html.parse", self_us: 500.0, top_us: 500.0 },
                LedgerLine { layer: "driver.batch", self_us: 180.0, top_us: 300.0 },
                // Part of driver.batch: shown, not added twice.
                LedgerLine { layer: "sink.xml", self_us: 120.0, top_us: 0.0 },
            ],
        };
        assert_eq!(ledger.sum_us(), 810.0);
        assert_eq!(ledger.unattributed_us(), 190.0);
        assert!((ledger.unattributed_share() - 0.19).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
