//! One benchmark run: set-up, warm-up, whole rounds of the seeded action
//! sequence until the time budget is spent, every outcome checked, and the
//! end-to-end metrics (or, traced, the per-layer metrics) computed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdm_core::durability::{recover_server, DurabilityConfig};
use pdm_core::ProductTree;
use pdm_obs::MetricsRegistry;
use pdm_sql::persist::database_fingerprint;

use crate::actions::{check, perform};
use crate::oracle::replay_fingerprint;
use crate::trace::{replay, ReplayCounts, Tracer, Twin};
use crate::workload::{build_rig, plan, warm, Op, Rig, SetupTimes, Workload};

/// Registry counters a run reports as seed-exact counts.
pub const COUNTERS: [&str; 9] = [
    "cache.hits",
    "cache.misses",
    "cache.invalidations",
    "engine.rows_scanned",
    "engine.index_probes",
    "server.queries",
    "server.dml_commits",
    "wal.appends",
    "locks.grants",
];

/// Set-ups per run for workloads that keep one server for the whole run;
/// `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Spans of this many traced actions go to the span file.
const KEEP_SPANS: u64 = 64;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run exactly this many rounds instead of filling `seconds`.
    pub rounds: Option<usize>,
    /// Actions per round (default: the workload's own round length).
    pub round_len: Option<usize>,
    pub spans_out: Option<PathBuf>,
}

impl Config {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Config {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            rounds: None,
            round_len: None,
            spans_out: None,
        }
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

#[derive(Debug, Clone, Default)]
pub struct Report {
    pub rounds: usize,
    pub round_len: usize,
    pub attempted: u64,
    pub failed: u64,
    /// First few correctness violations; empty when every output matched.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Seed-exact work counts over the timed rounds.
    pub counts: BTreeMap<String, f64>,
    /// Per action class: actions and the 10th, 50th and 90th percentile
    /// latency in µs.
    pub classes: BTreeMap<String, (usize, [f64; 3])>,
    /// Traced runs: self µs per action by span name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn error(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

fn counter_values(registry: &MetricsRegistry) -> Vec<u64> {
    COUNTERS.iter().map(|n| registry.counter(n).get()).collect()
}

fn add_deltas(acc: &mut [u64], before: &[u64], after: &[u64]) {
    for ((a, b), c) in acc.iter_mut().zip(before).zip(after) {
        *a += c - b;
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Server A runs the session; server B (traced runs only) the replay.
struct Servers {
    a: Rig,
    b: Option<(Rig, Twin)>,
}

fn set_up(cfg: &Config, ops: Option<&[Op]>) -> Result<(Servers, SetupTimes, Vec<Op>), String> {
    let (mut a, build) = build_rig(cfg.workload)?;
    let round_len = cfg.round_len.unwrap_or(cfg.workload.round_len());
    let ops = match ops {
        Some(ops) => ops.to_vec(),
        None => plan(cfg.workload, &a.product, cfg.seed, round_len),
    };
    let warm_a = warm(&mut a, cfg.workload, &ops)?;
    let b = if cfg.trace {
        let (mut b, _) = build_rig(cfg.workload)?;
        warm(&mut b, cfg.workload, &ops)?;
        let twin = Twin::new(b.server.clone(), cfg.workload)?;
        Some((b, twin))
    } else {
        None
    };
    let times = SetupTimes {
        build,
        warm: warm_a,
    };
    Ok((Servers { a, b }, times, ops))
}

/// End of a round on a durable server: the state equals a serial replay
/// of the round's DML journal on a fresh copy of the product, crash
/// recovery of the durable image reproduces it, and (traced) the replay
/// server reached it too. The servers are released before the state is
/// rebuilt, so the checks do not set the run's peak resident set.
fn check_durable_state(cfg: &Config, servers: Servers) -> Result<(), String> {
    let server = &servers.a.server;
    let journal = server.shared().take_dml_log();
    let state = database_fingerprint(server.database());
    let image = server
        .shared()
        .durability()
        .ok_or_else(|| "durable workload without durability".to_string())?
        .image();
    let twin_agrees = servers
        .b
        .as_ref()
        .map(|(b, _)| database_fingerprint(b.server.database()) == state);
    drop(servers);
    if twin_agrees == Some(false) {
        return Err("replay server state differs from the session's".into());
    }
    if replay_fingerprint(&cfg.workload.spec(), &journal)? != state {
        return Err("final state differs from a serial replay of the DML journal".into());
    }
    let (recovered, _) = recover_server(image, &DurabilityConfig::default())
        .map_err(|e| format!("recovery: {e}"))?;
    if database_fingerprint(recovered.database()) != state {
        return Err("recovered state differs from the served state".into());
    }
    Ok(())
}

/// Run the benchmark.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let w = cfg.workload;
    let mut report = Report::default();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut untraced_ns: u64 = 0;
    let mut round_rates: Vec<f64> = Vec::new();
    let mut round_p50s: Vec<f64> = Vec::new();
    let mut by_class: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut counts = vec![0u64; COUNTERS.len()];
    let mut counts_b = vec![0u64; COUNTERS.len()];
    let (mut round_trips, mut modeled_bytes, mut wan_s) = (0u64, 0.0f64, 0.0f64);
    let (mut checkouts, mut tokens_retained, mut checkpoint_bytes) = (0u64, 0u64, 0u64);
    let mut tracer = Tracer::new(KEEP_SPANS);
    let mut replay_counts = ReplayCounts::default();

    let mut ops: Option<Vec<Op>> = None;
    let mut servers: Option<Servers> = None;
    if !w.fresh_server_per_round() {
        for _ in 0..SETUP_REPEATS {
            drop(servers.take());
            let (s, t, o) = set_up(cfg, ops.as_deref())?;
            setups.push(t);
            servers = Some(s);
            ops = Some(o);
        }
    }

    let started = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    while report.rounds < cfg.rounds.unwrap_or(usize::MAX) {
        if w.fresh_server_per_round() {
            drop(servers.take());
            let (s, t, o) = set_up(cfg, ops.as_deref())?;
            setups.push(t);
            servers = Some(s);
            ops = Some(o);
        }
        let (Some(srv), Some(plan)) = (servers.as_mut(), ops.as_ref()) else {
            return Err("no server".into());
        };
        report.round_len = plan.len();
        let registry_a = Arc::clone(srv.a.server.metrics());
        let before_a = counter_values(&registry_a);
        let registry_b = srv.b.as_ref().map(|(b, _)| Arc::clone(b.server.metrics()));
        let before_b = registry_b.as_deref().map(counter_values);
        let mut held_a: Option<ProductTree> = None;
        let mut held_b: Option<ProductTree> = None;
        let mut round_ns = 0u64;
        let round_start = latencies.len();
        let mut round_checkouts = 0;
        for (i, &op) in plan.iter().enumerate() {
            report.attempted += 1;
            // Whichever of the session action and its replay runs second
            // finds caches warm from the first, so they alternate: the
            // order effect cancels in the tracing overhead.
            let mut replayed = None;
            if i % 2 == 1 {
                if let Some((_, twin)) = srv.b.as_mut() {
                    replayed = Some(replay(twin, &mut tracer, op, held_b.as_ref())?);
                    tracer.finish()?;
                }
            }
            let t0 = Instant::now();
            let outcome = perform(&mut srv.a.session, op, held_a.as_ref());
            let ns = t0.elapsed().as_nanos() as u64;
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    report.failed += 1;
                    eprintln!("perfbench: failed: {e}");
                    if cfg.trace {
                        return Err(format!("traced run cannot continue after: {e}"));
                    }
                    continue;
                }
            };
            latencies.push(ns);
            round_ns += ns;
            untraced_ns += ns;
            by_class.entry(op.class()).or_default().push(ns);
            let stats = outcome.stats();
            round_trips += (stats.communications / 2) as u64;
            modeled_bytes += stats.volume_bytes;
            wan_s += stats.response_time();
            if matches!(op, Op::CheckOut { .. }) {
                round_checkouts += 1;
            }
            if let Err(e) = check(&srv.a, w.strategy(), op, &outcome, held_a.as_ref()) {
                report.error(e);
            }
            if let Some((_, twin)) = srv.b.as_mut() {
                let replayed = match replayed {
                    Some(r) => r,
                    None => {
                        let r = replay(twin, &mut tracer, op, held_b.as_ref())?;
                        tracer.finish()?;
                        r
                    }
                };
                if !replayed.same_as(&outcome) {
                    report.error(format!("{op:?}: replay differs from the session's outcome"));
                }
                if let Some(tree) = replayed.checked_out(op) {
                    held_b = Some(tree);
                }
            }
            if let Some(tree) = outcome.checked_out(op) {
                held_a = Some(tree);
            }
        }
        add_deltas(&mut counts, &before_a, &counter_values(&registry_a));
        if let (Some(reg), Some(before)) = (registry_b.as_deref(), before_b.as_deref()) {
            let mut round_a = vec![0u64; COUNTERS.len()];
            let mut round_b = vec![0u64; COUNTERS.len()];
            add_deltas(&mut round_a, &before_a, &counter_values(&registry_a));
            add_deltas(&mut round_b, before, &counter_values(reg));
            if round_a != round_b {
                report.error(format!(
                    "replay server counters {round_b:?} differ from the session's {round_a:?}"
                ));
            }
            add_deltas(&mut counts_b, before, &counter_values(reg));
        }
        checkouts += round_checkouts;
        if let Some((_, twin)) = srv.b.as_mut() {
            replay_counts.add(std::mem::take(&mut twin.counts));
        }
        if w.durable() {
            let server = &srv.a.server;
            tokens_retained = (1..=round_checkouts + 1)
                .filter(|&t| server.checkout_recorded(t))
                .count() as u64;
            checkpoint_bytes = server
                .shared()
                .durability()
                .map(|d| d.checkpoint_len() as u64)
                .unwrap_or(0);
            if let Some(done) = servers.take() {
                if let Err(e) = check_durable_state(cfg, done) {
                    report.error(e);
                }
            }
        }
        if round_ns > 0 {
            let completed = latencies.len() - round_start;
            round_rates.push(completed as f64 / (round_ns as f64 / 1e9));
            let mut this_round = latencies[round_start..].to_vec();
            this_round.sort_unstable();
            round_p50s.push(percentile(&this_round, 0.5));
        }
        report.rounds += 1;
        if cfg.rounds.is_none() && started.elapsed() >= budget {
            break;
        }
    }

    let actions = latencies.len().max(1) as f64;
    latencies.sort_unstable();
    for (class, mut v) in by_class {
        v.sort_unstable();
        let n = v.len();
        let q = [0.1, 0.5, 0.9].map(|p| percentile(&v, p) / 1000.0);
        report.classes.insert(class, (n, q));
    }
    for (name, v) in COUNTERS.iter().zip(&counts) {
        report.counts.insert(name.to_string(), *v as f64);
    }
    report
        .counts
        .insert("actions".into(), latencies.len() as f64);
    report
        .counts
        .insert("net.round_trips".into(), round_trips as f64);
    report
        .counts
        .insert("net.modeled_bytes".into(), modeled_bytes);

    let mut setup_total: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
    if !cfg.trace {
        report.metrics = vec![
            ("actions_per_s", median(&mut round_rates), "1/s"),
            ("p50_us", median(&mut round_p50s) / 1000.0, "us"),
            ("p99_us", percentile(&latencies, 0.99) / 1000.0, "us"),
            ("wan_s_per_action", wan_s / actions, "s"),
            ("setup_s", median(&mut setup_total), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        return Ok(report);
    }

    let rc = replay_counts;
    report
        .counts
        .insert("wal.bytes".into(), rc.wal_bytes as f64);
    report
        .counts
        .insert("wal.checkpoints".into(), rc.checkpoints as f64);
    let c = |name: &str| {
        COUNTERS
            .iter()
            .position(|n| *n == name)
            .map(|i| counts_b[i] as f64)
            .unwrap_or(0.0)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us = |span: &str| tracer.self_ns.get(span).copied().unwrap_or(0) as f64 / 1000.0;
    let per_action = |span: &str| us(span) / actions;
    let commits = c("server.dml_commits");
    let traced_us = tracer.action_ns as f64 / 1000.0 / actions;
    let untraced_us = untraced_ns as f64 / 1000.0 / actions;
    let mut build: Vec<f64> = setups.iter().map(|s| s.build.as_secs_f64()).collect();
    let mut warm_s: Vec<f64> = setups.iter().map(|s| s.warm.as_secs_f64()).collect();
    report.layers = tracer
        .self_ns
        .iter()
        .map(|(k, v)| (*k, *v as f64 / 1000.0 / actions))
        .collect();
    report.metrics = vec![
        ("setup.build_s", median(&mut build), "s"),
        ("setup.warm_s", median(&mut warm_s), "s"),
        (
            "session.root_fetch_us",
            per_action("session.root_fetch"),
            "us/action",
        ),
        (
            "session.unattributed_us",
            per_action("session.action"),
            "us/action",
        ),
        (
            "session.metrics_us",
            per_action("session.metrics"),
            "us/action",
        ),
        ("query.build_us", per_action("query.build"), "us/action"),
        ("query.modify_us", per_action("query.modify"), "us/action"),
        ("query.render_us", per_action("query.render"), "us/action"),
        ("sql.parse_us", per_action("sql.parse"), "us/action"),
        (
            "sql.requests_per_action",
            rc.server_requests as f64 / actions,
            "count",
        ),
        ("cache.lookup_us", per_action("server.query"), "us/action"),
        (
            "cache.hit_ratio",
            ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
            "1",
        ),
        (
            "cache.dropped_per_action",
            c("cache.invalidations") / actions,
            "count",
        ),
        ("engine.exec_us", per_action("engine.exec"), "us/action"),
        (
            "engine.rows_scanned_per_row",
            ratio(c("engine.rows_scanned"), rc.engine_rows as f64),
            "1",
        ),
        (
            "engine.index_probes_per_action",
            c("engine.index_probes") / actions,
            "count",
        ),
        ("client.decode_us", per_action("client.decode"), "us/action"),
        (
            "client.late_filter_us",
            per_action("client.late_filter"),
            "us/action",
        ),
        (
            "checkout.procedure_us",
            ratio(us("server.checkout"), checkouts as f64),
            "us/checkout",
        ),
        (
            "storage.commit_us",
            ratio(us("storage.commit"), commits),
            "us/commit",
        ),
        ("storage.commits_per_action", commits / actions, "count"),
        ("wal.sync_us", ratio(us("wal.sync"), commits), "us/commit"),
        ("wal.bytes_per_action", rc.wal_bytes as f64 / actions, "B"),
        (
            "wal.checkpoint_us",
            ratio(us("wal.checkpoint"), rc.checkpoints as f64),
            "us/checkpoint",
        ),
        ("wal.checkpoint_bytes", checkpoint_bytes as f64, "B"),
        ("checkout.tokens_retained", tokens_retained as f64, "count"),
        (
            "net.round_trips_per_action",
            round_trips as f64 / actions,
            "count",
        ),
        ("net.bytes_per_action", modeled_bytes / actions, "B"),
        ("trace.action_us", traced_us, "us/action"),
        ("trace.untraced_action_us", untraced_us, "us/action"),
        (
            "trace.overhead_pct",
            100.0 * ratio(traced_us - untraced_us, untraced_us),
            "%",
        ),
    ];
    if let Some(path) = &cfg.spans_out {
        tracer
            .write(path)
            .map_err(|e| format!("span file {}: {e}", path.display()))?;
    }
    Ok(report)
}
