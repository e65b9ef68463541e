//! Every count a run reports is seed-exact: two traced runs of each
//! workload with the same seed and action count do identical work.

use perfbench::run::{run, Config};
use perfbench::workload::Workload;

fn counts(workload: Workload, round_len: usize) -> std::collections::BTreeMap<String, f64> {
    let mut cfg = Config::new(workload, 7);
    cfg.trace = true;
    cfg.rounds = Some(1);
    cfg.round_len = Some(round_len);
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
    assert_eq!(report.failed, 0);
    assert_eq!(report.attempted as usize, round_len);
    report.counts
}

fn assert_seed_exact(workload: Workload, round_len: usize, expect: &[&str]) {
    let first = counts(workload, round_len);
    let second = counts(workload, round_len);
    assert_eq!(first, second, "{} counts drifted", workload.name());
    for key in expect {
        let v = first.get(*key).copied().unwrap_or(0.0);
        assert!(
            v > 0.0,
            "{}: {key} should be counted, got {v}",
            workload.name()
        );
    }
}

#[test]
fn browse_counts_are_seed_exact() {
    assert_seed_exact(
        Workload::Browse,
        128,
        &["cache.hits", "net.round_trips", "net.modeled_bytes"],
    );
}

#[test]
fn navigate_counts_are_seed_exact() {
    assert_seed_exact(
        Workload::Navigate,
        10,
        &[
            "cache.hits",
            "cache.misses",
            "engine.rows_scanned",
            "net.round_trips",
            "net.modeled_bytes",
        ],
    );
}

#[test]
fn checkout_counts_are_seed_exact() {
    // 72 actions = 18 cycles = 72 commits: one checkpoint is cut.
    assert_seed_exact(
        Workload::Checkout,
        72,
        &[
            "cache.misses",
            "engine.rows_scanned",
            "wal.appends",
            "wal.bytes",
            "wal.checkpoints",
            "net.round_trips",
            "net.modeled_bytes",
        ],
    );
}
