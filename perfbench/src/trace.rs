//! The traced replay. Each action is replayed on a twin server as the
//! sequence of public calls the session makes, and every call is timed
//! from here. Work that happens inside one server call is split in two
//! ways, neither of which touches the program:
//!
//! - the same public function timed beside the call on the same input:
//!   `parse_query` / `parse_statement` on the request text, and
//!   `Snapshot::query_ast` on the pre-call snapshot when the cache missed;
//!   DML commits and checkpoint cuts on a shadow store (`SharedDatabase` +
//!   `Durability`) that is kept in step with the server's journal;
//! - counters the program already keeps: `cache.misses`, `wal.fsync_ns`,
//!   `Durability::log_len` / `checkpoint_len` / `device_stats`.
//!
//! A beside estimate becomes a child span of the call, clamped to the
//! part of the call its earlier children do not already cover, so a
//! layer's self time (span minus children) is never negative and the self
//! times of an action always sum to its traced duration.

use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pdm_core::client::{permission_groups, permitted, row_attrs};
use pdm_core::durability::{Durability, DurabilityConfig};
use pdm_core::functions::client_registry;
use pdm_core::query::{modificator::Modificator, navigational, recursive, T_ASSY, T_COMP, T_LINK};
use pdm_core::server::CheckoutProcedureResult;
use pdm_core::{
    ActionKind, PdmServer, ProductNode, ProductTree, RuleTable, Session, SessionConfig,
};
use pdm_net::MeteredChannel;
use pdm_obs::{Counter, Histogram, MetricsRegistry};
use pdm_sql::functions::FunctionRegistry;
use pdm_sql::{ResultSet, SharedDatabase, Snapshot, Value};
use pdm_workload::build_database;

use crate::actions::Outcome;
use crate::workload::{link, rules, Op, Workload, USER};

/// One timed interval. Beside-measured children are placed inside their
/// parent after its earlier children.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    child_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.dur() - self.child_ns
    }
}

/// Span recorder: the current action's spans, per-layer self-time totals,
/// and the spans of the first `keep` actions for the span file.
pub struct Tracer {
    epoch: Instant,
    cur: Vec<Span>,
    open: Vec<usize>,
    action: u64,
    keep: u64,
    kept: Vec<(u64, Span)>,
    /// Time spent measuring beside calls, taken off the span clock.
    excluded_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub action_ns: u64,
}

impl Tracer {
    pub fn new(keep: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            cur: Vec::new(),
            open: Vec::new(),
            action: 0,
            keep,
            kept: Vec::new(),
            excluded_ns: 0,
            self_ns: BTreeMap::new(),
            action_ns: 0,
        }
    }

    /// The span clock: wall time minus the time spent on beside
    /// measurements, so an action's traced duration covers only the calls
    /// the session itself would make.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 - self.excluded_ns
    }

    /// Run measurement work that must not count toward any span.
    pub fn aside<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.excluded_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now();
        self.cur.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            child_ns: 0,
        });
        let id = self.cur.len() - 1;
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now();
        self.cur[id].end_ns = end;
        self.open.pop();
        if let Some(p) = self.cur[id].parent {
            self.cur[p].child_ns += self.cur[id].dur();
        }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record a beside-measured child of the closed span `parent`.
    pub fn inner(&mut self, parent: usize, name: &'static str, est_ns: u64) {
        let p = self.cur[parent];
        let d = est_ns.min(p.dur() - p.child_ns);
        let start_ns = p.start_ns + p.child_ns;
        self.cur.push(Span {
            name,
            start_ns,
            end_ns: start_ns + d,
            parent: Some(parent),
            child_ns: 0,
        });
        self.cur[parent].child_ns += d;
    }

    /// Close the books on one action: fold self times into the totals and
    /// return the action's traced duration. The self times of its spans
    /// sum to that duration exactly.
    pub fn finish(&mut self) -> Result<u64, String> {
        let total = self.cur.first().map(Span::dur).unwrap_or(0);
        let mut sum = 0;
        for s in &self.cur {
            *self.self_ns.entry(s.name).or_default() += s.self_ns();
            sum += s.self_ns();
        }
        if sum != total || !self.open.is_empty() {
            return Err(format!(
                "span self times sum to {sum} ns, action took {total} ns"
            ));
        }
        self.action_ns += total;
        if self.action < self.keep {
            let a = self.action;
            self.kept.extend(self.cur.iter().map(|s| (a, *s)));
        }
        self.action += 1;
        self.cur.clear();
        Ok(total)
    }

    /// Write the kept spans as tab-separated lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "action\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        let mut base = 0;
        let mut last_action = None;
        for (i, (a, s)) in self.kept.iter().enumerate() {
            if last_action != Some(*a) {
                base = i;
                last_action = Some(*a);
            }
            let parent = s
                .parent
                .map(|p| (base + p).to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                f,
                "{a}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        f.flush()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// A store kept in step with the twin's writes, for beside-timing commits
/// and checkpoint cuts, and for exact WAL byte counts.
struct Shadow {
    db: SharedDatabase,
    dur: Durability,
    since_checkpoint: u64,
    interval: u64,
}

/// What the replay counted beyond the program's own registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    pub server_requests: u64,
    pub engine_rows: u64,
    pub checkpoints: u64,
    pub wal_bytes: u64,
}

impl ReplayCounts {
    pub fn add(&mut self, other: ReplayCounts) {
        self.server_requests += other.server_requests;
        self.engine_rows += other.engine_rows;
        self.checkpoints += other.checkpoints;
        self.wal_bytes += other.wal_bytes;
    }
}

/// The twin server the replay runs on, with its own metering channel.
pub struct Twin {
    pub server: PdmServer,
    session: Session,
    channel: MeteredChannel,
    rules: RuleTable,
    views: HashSet<String>,
    funcs: FunctionRegistry,
    early: bool,
    registry: Arc<MetricsRegistry>,
    misses: Counter,
    fsync: Histogram,
    shadow: Option<Shadow>,
    pub counts: ReplayCounts,
}

struct Probe {
    misses: u64,
    fsync_ns: u64,
    log_len: usize,
    wal_bytes: u64,
    version: u64,
}

impl Twin {
    pub fn new(server: PdmServer, workload: Workload) -> Result<Twin, String> {
        let shadow = if workload.durable() {
            server.shared().enable_journal();
            let cfg = DurabilityConfig::default();
            let dur = Durability::new(&cfg);
            let (db, _) = build_database(&workload.spec()).map_err(|e| e.to_string())?;
            let db = SharedDatabase::new(db);
            dur.checkpoint(&db.snapshot()).map_err(|e| e.to_string())?;
            Some(Shadow {
                db,
                dur,
                since_checkpoint: 0,
                interval: cfg.checkpoint_interval,
            })
        } else {
            None
        };
        let registry = Arc::clone(server.metrics());
        let session = Session::attach(
            server.clone(),
            SessionConfig::new(USER, workload.strategy(), link()),
            rules(),
        );
        Ok(Twin {
            views: server.view_names(),
            session,
            channel: MeteredChannel::new(link()),
            rules: rules(),
            funcs: client_registry(),
            early: workload.strategy().early_rules(),
            misses: registry.counter("cache.misses"),
            fsync: registry.histogram("wal.fsync_ns"),
            registry,
            shadow,
            server,
            counts: ReplayCounts::default(),
        })
    }

    fn probe(&self) -> Probe {
        let d = self.server.shared().durability();
        Probe {
            misses: self.misses.get(),
            fsync_ns: self.fsync.snapshot().sum,
            log_len: d.map(|d| d.log_len()).unwrap_or(0),
            wal_bytes: d.map(|d| d.device_stats().bytes_written).unwrap_or(0),
            version: self.server.shared().version(),
        }
    }

    /// Parse `sql` beside the call that just ran in span `s`, and on a
    /// cache miss run the engine beside it on the pre-call snapshot.
    fn beside_query(
        &mut self,
        tr: &mut Tracer,
        s: usize,
        sql: &str,
        snapshot: &Snapshot,
        missed: bool,
    ) -> Result<(), String> {
        let (parsed, parse_ns) = timed(|| pdm_sql::parser::parse_query(sql));
        tr.inner(s, "sql.parse", parse_ns);
        if missed {
            let parsed = parsed.map_err(|e| e.to_string())?;
            let (rows, exec_ns) = timed(|| snapshot.query_ast(&parsed));
            self.counts.engine_rows += rows.map_err(|e| e.to_string())?.len() as u64;
            tr.inner(s, "engine.exec", exec_ns);
        }
        Ok(())
    }

    /// `SharedServer::query_cached` plus the session's result copy, with
    /// parse and (on a miss) engine time measured beside it.
    fn query(&mut self, tr: &mut Tracer, sql: &str) -> Result<ResultSet, String> {
        let (before, snapshot) =
            tr.aside(|_| (self.misses.get(), self.server.database().snapshot()));
        let s = tr.open("server.query");
        let rs = self.server.shared().query_cached(sql).map(|r| (*r).clone());
        tr.close(s);
        let rs = rs.map_err(|e| format!("query: {e}"))?;
        // The pre-call snapshot is released aside too: dropping the last
        // reference to a replaced snapshot is work the session never does.
        tr.aside(|tr| {
            self.counts.server_requests += 1;
            let missed = self.misses.get() > before;
            let out = self.beside_query(tr, s, sql, &snapshot, missed);
            drop(snapshot);
            out
        })?;
        Ok(rs)
    }

    fn fetch_root(&mut self, tr: &mut Tracer, root: i64) -> Result<ProductNode, String> {
        self.counts.server_requests += 1;
        tr.span("session.root_fetch", || {
            self.session.fetch_root_cached(root)
        })
        .map_err(|e| format!("root fetch: {e}"))
    }

    /// After a write call in span `span`: mirror what it made durable onto
    /// the shadow store in the server's order (a check-out's grant, the
    /// journaled DML commits with any checkpoint due after each, a
    /// check-out's token), and split the call's time. Commits are timed on
    /// the shadow when `time_commits`; WAL sync time is the call's
    /// `wal.fsync_ns` delta.
    fn mirror_writes(
        &mut self,
        tr: &mut Tracer,
        span: usize,
        before: &Probe,
        checkout: Option<(u64, &ResultSet, &[i64], &[i64])>,
        time_commits: bool,
    ) -> Result<(), String> {
        let after = self.probe();
        let stmts = self.server.shared().take_dml_log();
        let shadow = self
            .shadow
            .as_mut()
            .ok_or_else(|| "write on a server without a shadow store".to_string())?;
        let mut wal_bytes = 0;
        let mut log = |shadow: &Shadow, f: &dyn Fn(&Durability) -> pdm_sql::Result<()>| {
            let b0 = shadow.dur.device_stats().bytes_written;
            f(&shadow.dur).map_err(|e| e.to_string())?;
            wal_bytes += shadow.dur.device_stats().bytes_written - b0;
            Ok::<(), String>(())
        };
        if let Some((token, _, assy, comp)) = checkout {
            log(shadow, &|d| d.log_grant(token, assy, comp))?;
        }
        let mut cuts = 0;
        for (k, sql) in stmts.iter().enumerate() {
            let (stmt, parse_ns) = timed(|| pdm_sql::parser::parse_statement(sql));
            let stmt = stmt.map_err(|e| e.to_string())?;
            tr.inner(span, "sql.parse", parse_ns);
            let (done, commit_ns) = timed(|| shadow.db.execute_ast(&stmt));
            done.map_err(|e| format!("shadow commit: {e}"))?;
            if time_commits {
                tr.inner(span, "storage.commit", commit_ns);
            }
            let version = before.version + k as u64 + 1;
            log(shadow, &|d| d.log_commit(version, sql))?;
            shadow.since_checkpoint += 1;
            if shadow.since_checkpoint >= shadow.interval {
                let snap = shadow.db.snapshot();
                let (cut, cut_ns) = timed(|| shadow.dur.checkpoint(&snap));
                cut.map_err(|e| e.to_string())?;
                tr.inner(span, "wal.checkpoint", cut_ns);
                shadow.since_checkpoint = 0;
                cuts += 1;
            }
        }
        if let Some((token, rows, _, _)) = checkout {
            log(shadow, &|d| d.log_token(token, Some(rows)))?;
        }
        tr.inner(span, "wal.sync", after.fsync_ns - before.fsync_ns);
        self.counts.checkpoints += cuts;
        let real_cut = after.log_len < before.log_len;
        let d = self
            .server
            .shared()
            .durability()
            .ok_or_else(|| "durable workload without durability".to_string())?;
        if real_cut != (cuts > 0) {
            return Err(format!(
                "shadow store out of step: server cut {real_cut}, shadow cut {cuts}"
            ));
        }
        if real_cut && d.checkpoint_len() != shadow.dur.checkpoint_len() {
            return Err(format!(
                "shadow checkpoint {} B, server checkpoint {} B",
                shadow.dur.checkpoint_len(),
                d.checkpoint_len()
            ));
        }
        // Only a call without a cut can be checked byte for byte: a cut
        // resets the device counters.
        if !real_cut && after.wal_bytes - before.wal_bytes != wal_bytes {
            return Err(format!(
                "shadow WAL wrote {wal_bytes} B, server {} B",
                after.wal_bytes - before.wal_bytes
            ));
        }
        self.counts.wal_bytes += wal_bytes;
        Ok(())
    }

    /// The server-side check-out procedure, with its retrieval's parse and
    /// engine time, its commits and its WAL work split out as children.
    fn checkout(
        &mut self,
        tr: &mut Tracer,
        root: i64,
        sql: &str,
        token: u64,
    ) -> Result<CheckoutProcedureResult, String> {
        let (before, snapshot) = tr.aside(|_| (self.probe(), self.server.database().snapshot()));
        let s = tr.open("server.checkout");
        let result = self
            .server
            .checkout_procedure_with_deadline(root, sql, token, None);
        tr.close(s);
        let result = result.map_err(|e| format!("check-out procedure: {e}"))?;
        tr.aside(|tr| {
            self.counts.server_requests += 1;
            let missed = self.misses.get() > before.misses;
            self.beside_query(tr, s, sql, &snapshot, missed)?;
            drop(snapshot);
            let rows = result
                .rows
                .as_ref()
                .ok_or_else(|| format!("check-out of {root} refused"))?;
            let (mut assy, comp) = split_ids(rows);
            assy.push(root);
            self.mirror_writes(tr, s, &before, Some((token, rows, &assy, &comp)), true)
        })?;
        Ok(result)
    }

    /// One DML statement through the server's write path. The call's self
    /// time is the commit (copy-on-write apply and publish); parse, WAL
    /// sync and any checkpoint cut are children.
    fn execute(&mut self, tr: &mut Tracer, sql: &str) -> Result<usize, String> {
        let before = tr.aside(|_| self.probe());
        let s = tr.open("storage.commit");
        let out = self.server.execute(sql);
        tr.close(s);
        let out = out.map_err(|e| format!("execute: {e}"))?;
        tr.aside(|tr| {
            self.counts.server_requests += 1;
            self.mirror_writes(tr, s, &before, None, false)
        })?;
        Ok(match out {
            pdm_sql::ExecOutcome::Dml(pdm_sql::DmlOutcome::Updated(n)) => n,
            _ => 0,
        })
    }
}

fn as_id(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

/// The node a client builds from one result row.
fn node_from(attrs: std::collections::HashMap<String, Value>, parent: Option<i64>) -> ProductNode {
    let text = |k: &str| match attrs.get(k) {
        Some(Value::Text(t)) => t.clone(),
        _ => String::new(),
    };
    ProductNode {
        obid: attrs.get("obid").and_then(as_id).unwrap_or_default(),
        parent: parent.or_else(|| attrs.get("parent").and_then(as_id)),
        type_name: text("type"),
        name: text("name"),
        attrs,
    }
}

/// Assembly and component ids of a homogenized result, in row order.
fn split_ids(rows: &ResultSet) -> (Vec<i64>, Vec<i64>) {
    let (mut assy, mut comp) = (Vec::new(), Vec::new());
    let (Some(t), Some(o)) = (rows.schema.index_of("type"), rows.schema.index_of("obid")) else {
        return (assy, comp);
    };
    for row in &rows.rows {
        if let (Value::Text(kind), Some(id)) = (row.get(t), as_id(row.get(o))) {
            match kind.as_str() {
                "assy" => assy.push(id),
                "comp" => comp.push(id),
                _ => {}
            }
        }
    }
    (assy, comp)
}

fn id_list(ids: &[i64]) -> String {
    ids.iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Replay `op` on the twin. Returns what the session would have returned.
pub fn replay(
    tw: &mut Twin,
    tr: &mut Tracer,
    op: Op,
    held: Option<&ProductTree>,
) -> Result<Outcome, String> {
    tw.channel.reset();
    let action = tr.open("session.action");
    let out = match op {
        Op::MultiLevel { root, .. } if tw.early => replay_recursive(tw, tr, root),
        Op::MultiLevel { root, .. } => replay_navigational(tw, tr, root),
        Op::SingleLevel { root, .. } => {
            let mut tree = ProductTree::new();
            tree.insert(tw.fetch_root(tr, root)?);
            expand_level(tw, tr, root, &mut tree, ActionKind::Expand)?;
            Ok(Outcome::Tree(tree, tw.channel.stats().clone()))
        }
        Op::Query => replay_query(tw, tr),
        Op::CheckOut { root, .. } => replay_checkout(tw, tr, root),
        Op::CheckIn => replay_checkin(tw, tr, held),
    }?;
    // The session folds each action's traffic into the server registry.
    tr.span("session.metrics", || {
        pdm_net::record_traffic(&tw.registry, tw.channel.stats())
    });
    tr.close(action);
    Ok(out)
}

fn replay_recursive(tw: &mut Twin, tr: &mut Tracer, root: i64) -> Result<Outcome, String> {
    let mut tree = ProductTree::new();
    tree.insert(tw.fetch_root(tr, root)?);
    let mut q = tr.span("query.build", || {
        recursive::mle_query_in(root, T_LINK, false)
    });
    tr.span("query.modify", || {
        Modificator::new(&tw.rules, USER, ActionKind::MultiLevelExpand, &tw.views)
            .modify_recursive(&mut q)
    })
    .map_err(|e| e.to_string())?;
    let sql = tr.span("query.render", || q.to_string());
    let rs = tw.query(tr, &sql)?;
    tw.channel.round_trip(sql.len(), rs.wire_size());
    tr.span("client.decode", || {
        for row in &rs.rows {
            tree.insert(node_from(row_attrs(&rs, row), None));
        }
    });
    Ok(Outcome::Tree(tree, tw.channel.stats().clone()))
}

fn replay_navigational(tw: &mut Twin, tr: &mut Tracer, root: i64) -> Result<Outcome, String> {
    let mut tree = ProductTree::new();
    tree.insert(tw.fetch_root(tr, root)?);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(parent) = queue.pop_front() {
        let children = expand_level(tw, tr, parent, &mut tree, ActionKind::MultiLevelExpand)?;
        queue.extend(children);
    }
    Ok(Outcome::Tree(tree, tw.channel.stats().clone()))
}

/// One expand request for `parent`, its permitted children inserted into
/// `tree`, their ids returned.
fn expand_level(
    tw: &mut Twin,
    tr: &mut Tracer,
    parent: i64,
    tree: &mut ProductTree,
    action: ActionKind,
) -> Result<Vec<i64>, String> {
    let mut q = tr.span("query.build", || {
        navigational::expand_query_in(parent, T_LINK)
    });
    if tw.early {
        tr.span("query.modify", || {
            Modificator::new(&tw.rules, USER, action, &tw.views).modify_navigational(&mut q)
        })
        .map_err(|e| e.to_string())?;
    }
    let sql = tr.span("query.render", || q.to_string());
    let rs = tw.query(tr, &sql)?;
    tw.channel.round_trip(sql.len(), rs.wire_size());
    let groups = tr.span("client.late_filter", || {
        permission_groups(&tw.rules, USER, action, &[T_LINK, T_ASSY, T_COMP])
    });
    let decode = tr.open("client.decode");
    let mut filter_ns = 0;
    let mut children = Vec::with_capacity(rs.len());
    for row in &rs.rows {
        let attrs = row_attrs(&rs, row);
        if !tw.early {
            let (ok, ns) = timed(|| permitted(&attrs, &groups, &tw.funcs));
            filter_ns += ns;
            if !ok {
                continue;
            }
        }
        let node = node_from(attrs, Some(parent));
        children.push(node.obid);
        tree.insert(node);
    }
    tr.close(decode);
    if !tw.early {
        tr.inner(decode, "client.late_filter", filter_ns);
        late_filter_counters(tw, tr, rs.len(), children.len());
    }
    Ok(children)
}

/// The late-evaluating session counts kept and discarded rows in the
/// server registry after every filtered result.
fn late_filter_counters(tw: &Twin, tr: &mut Tracer, transferred: usize, kept: usize) {
    tr.span("session.metrics", || {
        tw.registry.counter("session.rows_kept").add(kept as u64);
        tw.registry
            .counter("session.rows_filtered_late")
            .add((transferred - kept) as u64);
    });
}

fn replay_query(tw: &mut Twin, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut q = tr.span("query.build", || navigational::query_all_query(1));
    if tw.early {
        tr.span("query.modify", || {
            Modificator::new(&tw.rules, USER, ActionKind::Query, &tw.views)
                .modify_navigational(&mut q)
        })
        .map_err(|e| e.to_string())?;
    }
    let sql = tr.span("query.render", || q.to_string());
    let rs = tw.query(tr, &sql)?;
    tw.channel.round_trip(sql.len(), rs.wire_size());
    let groups = tr.span("client.late_filter", || {
        permission_groups(&tw.rules, USER, ActionKind::Query, &[T_ASSY, T_COMP])
    });
    let decode = tr.open("client.decode");
    let mut filter_ns = 0;
    let mut nodes = Vec::with_capacity(rs.len());
    for row in &rs.rows {
        let attrs = row_attrs(&rs, row);
        if !tw.early {
            let (ok, ns) = timed(|| permitted(&attrs, &groups, &tw.funcs));
            filter_ns += ns;
            if !ok {
                continue;
            }
        }
        nodes.push(node_from(attrs, None));
    }
    tr.close(decode);
    if !tw.early {
        tr.inner(decode, "client.late_filter", filter_ns);
        late_filter_counters(tw, tr, rs.len(), nodes.len());
    }
    Ok(Outcome::Nodes(nodes, tw.channel.stats().clone()))
}

fn replay_checkout(tw: &mut Twin, tr: &mut Tracer, root: i64) -> Result<Outcome, String> {
    let mut q = tr.span("query.build", || recursive::mle_query(root));
    tr.span("query.modify", || {
        let rules = tw.rules.clone();
        let views = tw.server.view_names();
        Modificator::new(&rules, USER, ActionKind::CheckOut, &views).modify_recursive(&mut q)
    })
    .map_err(|e| e.to_string())?;
    let sql = tr.span("query.render", || q.to_string());
    let token = tw.server.shared().next_token();
    let result = tw.checkout(tr, root, &sql, token)?;
    let rows = result
        .rows
        .ok_or_else(|| format!("check-out of {root} refused"))?;
    tw.channel.round_trip(sql.len() + 32, rows.wire_size());
    let mut tree = ProductTree::new();
    tree.insert(tw.fetch_root(tr, root)?);
    tr.span("client.decode", || {
        for row in &rows.rows {
            tree.insert(node_from(row_attrs(&rows, row), None));
        }
    });
    Ok(Outcome::Tree(tree, tw.channel.stats().clone()))
}

fn replay_checkin(
    tw: &mut Twin,
    tr: &mut Tracer,
    held: Option<&ProductTree>,
) -> Result<Outcome, String> {
    let tree = held.ok_or_else(|| "check-in without a check-out".to_string())?;
    let mut ids = BTreeMap::<&str, Vec<i64>>::new();
    for node in tree.nodes() {
        ids.entry(node.type_name.as_str())
            .or_default()
            .push(node.obid);
    }
    let mut n = 0;
    let mut all = Vec::with_capacity(tree.len());
    for table in ["assy", "comp"] {
        let Some(list) = ids.get(table) else { continue };
        let sql = tr.span("query.build", || {
            format!(
                "UPDATE {table} SET checkedout = FALSE WHERE obid IN ({})",
                id_list(list)
            )
        });
        n += tw.execute(tr, &sql)?;
        tw.channel.round_trip(sql.len(), 16);
        all.extend_from_slice(list);
    }
    tw.server.shared().lock_table().release(&all);
    Ok(Outcome::CheckedIn(n, tw.channel.stats().clone()))
}
