//! The three workloads: which product, which client strategy, which
//! actions in which proportions, and how a server and session are set up
//! for them. The action sequence of a round is a pure function of the
//! seed, so every round of a run, and every run with the same seed, issues
//! the same requests.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pdm_core::durability::DurabilityConfig;
use pdm_core::query::{modificator::Modificator, recursive, T_LINK};
use pdm_core::rules::condition::{CmpOp, Condition, RowPredicate};
use pdm_core::{
    ActionKind, PdmServer, Rule, RuleTable, Session, SessionConfig, SharedServer, Strategy,
};
use pdm_net::LinkProfile;
use pdm_prng::Prng;
use pdm_workload::{build_database, TreeSpec};

use crate::oracle::Product;

/// The acting user of every session (visibility rules apply to all users).
pub const USER: &str = "bench";

/// Product P: the Figure-5 shape one level shallower (19,531 objects,
/// 5,461 visible). Deterministic visibility with γβ = 4 exactly.
pub fn product_p() -> TreeSpec {
    TreeSpec::new(6, 5, 0.8).with_node_size(512)
}

/// Product Q: P one level shallower again (3,906 objects, 1,365 visible).
pub fn product_q() -> TreeSpec {
    TreeSpec::new(5, 5, 0.8).with_node_size(512)
}

/// The paper's first WAN setting (256 kbit/s, 150 ms).
pub fn link() -> LinkProfile {
    LinkProfile::wan_256()
}

/// The user sees only objects on `OPTA` branches; a check-out requires
/// that nothing in the subtree is already checked out (§3.1 example 2).
pub fn rules() -> RuleTable {
    let mut t = RuleTable::new();
    for table in ["link", "assy", "comp"] {
        t.add(Rule::for_all_users(
            ActionKind::Access,
            table,
            Condition::Row(RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA")),
        ));
    }
    t.add(Rule::for_all_users(
        ActionKind::CheckOut,
        "assy",
        Condition::ForAllRows {
            object_type: None,
            predicate: RowPredicate::compare("checkedout", CmpOp::Eq, false),
        },
    ));
    t
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Browse,
    Navigate,
    Checkout,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Browse, Workload::Navigate, Workload::Checkout];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Navigate => "navigate",
            Workload::Checkout => "checkout",
        }
    }

    pub fn spec(&self) -> TreeSpec {
        match self {
            Workload::Browse | Workload::Navigate => product_p(),
            Workload::Checkout => product_q(),
        }
    }

    /// `browse` and `checkout` use the tuned client (early rules, one
    /// recursive query per multi-level expand); `navigate` the paper's
    /// untuned baseline (one query per node, rules filtered at the client).
    pub fn strategy(&self) -> Strategy {
        match self {
            Workload::Navigate => Strategy::LateEval,
            _ => Strategy::Recursive,
        }
    }

    pub fn durable(&self) -> bool {
        matches!(self, Workload::Checkout)
    }

    /// Actions in one round.
    pub fn round_len(&self) -> usize {
        match self {
            Workload::Browse => BROWSE_BLOCK * BROWSE_BLOCKS,
            Workload::Navigate => NAVIGATE_BLOCK * NAVIGATE_BLOCKS,
            Workload::Checkout => 3 * CHECKOUT_BLOCK * CHECKOUT_BLOCKS,
        }
    }

    /// Whether every round runs on a freshly built server, so that every
    /// round does the same work from the same start: the write workload's
    /// server state grows, and the cache of the workload larger than the
    /// cache empties itself at points that would drift from round to round.
    pub fn fresh_server_per_round(&self) -> bool {
        !matches!(self, Workload::Browse)
    }
}

/// Every workload draws its actions in blocks whose class counts are
/// fixed but for one free draw per block (or, in `browse`, a free
/// multi-/single-level choice per slot): the median of every run sits in
/// the same latency mode, and the mix, hence `wan_s_per_action`, varies
/// with the seed only slightly.
///
/// `browse`: blocks of 64, one Query at a seeded position, the other 63
/// multi-level (p = 3/4) or single-level expands.
const BROWSE_BLOCK: usize = 64;
const BROWSE_BLOCKS: usize = 16;
/// Roots of browse expands: visible level-4 assemblies (256 roots, 20
/// visible objects below each).
pub const BROWSE_LEVEL: u32 = 4;
/// `navigate`: blocks of 10 actions, 2 multi-level expands from level-2
/// roots (341 queries each) and 7 from level-3 roots (85 queries each) at
/// fixed positions, and one free action: a level-3 multi-level expand
/// (p = 4/5) or a single-level expand of the same root (p = 1/5, one query
/// that the multi-level expand would also issue). Which positions hold
/// which popularity rank is a fixed sequence; the seed relabels roots and
/// draws the free actions.
const NAVIGATE_BLOCK: usize = 10;
const NAVIGATE_BLOCKS: usize = 10;
pub const NAVIGATE_LEVELS: [u32; 2] = [3, 2];
/// Stream of the fixed rank sequence shared by every seed.
const NAVIGATE_RANK_STREAM: u64 = 0x0AB5_7AC7;
/// Check-out roots: visible level-3 assemblies of Q (20 visible objects
/// below each); reads between them use the same level.
pub const CHECKOUT_LEVEL: u32 = 3;
/// `checkout`: blocks of 5 cycles of check-out, read, check-in. One read
/// per block is a Query at a seeded cycle; the others are multi-level
/// (p = 3/4) or single-level expands. Each cycle commits four times, so a
/// checkpoint is cut every 16 cycles (2% of actions, the top of the
/// latency distribution).
const CHECKOUT_BLOCK: usize = 5;
const CHECKOUT_BLOCKS: usize = 40;

/// One user action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    MultiLevel {
        root: i64,
        level: u32,
    },
    SingleLevel {
        root: i64,
        level: u32,
    },
    Query,
    CheckOut {
        root: i64,
        level: u32,
    },
    /// Check in the subtree of the most recent check-out.
    CheckIn,
}

impl Op {
    /// Class label for per-class reporting.
    pub fn class(&self) -> String {
        match self {
            Op::MultiLevel { level, .. } => format!("mle_l{level}"),
            Op::SingleLevel { level, .. } => format!("sle_l{level}"),
            Op::Query => "query".into(),
            Op::CheckOut { level, .. } => format!("checkout_l{level}"),
            Op::CheckIn => "checkin".into(),
        }
    }
}

/// Zipf-like popularity (weight 1/rank) over roots listed in rank order.
struct Zipf {
    cumulative: Vec<f64>,
    roots: Vec<i64>,
}

impl Zipf {
    fn new(roots: Vec<i64>) -> Self {
        let mut acc = 0.0;
        let cumulative = (1..=roots.len())
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        Zipf { cumulative, roots }
    }

    fn draw(&self, rng: &mut Prng) -> i64 {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x = rng.f64() * total;
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.roots[idx.min(self.roots.len() - 1)]
    }
}

/// Popularity ranks for `navigate`'s two root levels. The seed shuffles
/// the shallow roots and, under each, its deep children; deep ranks follow
/// their parents' ranks. Every seed thus gets a relabelling of the same
/// popularity structure (the hottest deep roots always sit under the
/// hottest shallow root), so how much work the cache saves does not hinge
/// on where the seed happens to put the hot roots.
fn ranked_roots(product: &Product, shallow: u32, rng: &mut Prng) -> (Vec<i64>, Vec<i64>) {
    let mut parents = product.visible_assemblies_at(shallow);
    rng.shuffle(&mut parents);
    let mut children = Vec::new();
    for &p in &parents {
        let mut under = product.visible_children(p);
        rng.shuffle(&mut under);
        children.extend(under);
    }
    (parents, children)
}

fn uniform(roots: &[i64], rng: &mut Prng) -> i64 {
    roots[rng.index(roots.len())]
}

/// A multi-level (p = 3/4) or single-level expand of a uniform root.
fn expand(roots: &[i64], level: u32, rng: &mut Prng) -> Op {
    let root = uniform(roots, rng);
    if rng.f64() < 0.75 {
        Op::MultiLevel { root, level }
    } else {
        Op::SingleLevel { root, level }
    }
}

/// The action sequence of one round of `workload`, drawn from `seed`.
pub fn plan(workload: Workload, product: &Product, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5EED_BE7C);
    let mut ops = Vec::with_capacity(len);
    match workload {
        Workload::Browse => {
            let roots = product.visible_assemblies_at(BROWSE_LEVEL);
            while ops.len() < len {
                let query_at = rng.index(BROWSE_BLOCK);
                for slot in 0..BROWSE_BLOCK {
                    ops.push(if slot == query_at {
                        Op::Query
                    } else {
                        expand(&roots, BROWSE_LEVEL, &mut rng)
                    });
                }
            }
        }
        Workload::Navigate => {
            let [deep, shallow] = NAVIGATE_LEVELS;
            let (parents, children) = ranked_roots(product, shallow, &mut rng);
            let (zipf_shallow, zipf_deep) = (Zipf::new(parents), Zipf::new(children));
            // Positions and ranks come from a seed-independent stream, so
            // every seed sends the same number of requests to each rank;
            // the seed decides which root holds each rank.
            let mut fixed = Prng::seed_from_u64(NAVIGATE_RANK_STREAM);
            while ops.len() < len {
                let mut levels = [
                    shallow, shallow, deep, deep, deep, deep, deep, deep, deep, deep,
                ];
                fixed.shuffle(&mut levels);
                let deep_slots: Vec<usize> =
                    (0..NAVIGATE_BLOCK).filter(|&i| levels[i] == deep).collect();
                let free_at = deep_slots[fixed.index(deep_slots.len())];
                for (slot, level) in levels.into_iter().enumerate() {
                    let zipf = if level == deep {
                        &zipf_deep
                    } else {
                        &zipf_shallow
                    };
                    let root = zipf.draw(&mut fixed);
                    ops.push(if slot == free_at && rng.f64() < 0.2 {
                        Op::SingleLevel { root, level }
                    } else {
                        Op::MultiLevel { root, level }
                    });
                }
            }
        }
        Workload::Checkout => {
            let roots = product.visible_assemblies_at(CHECKOUT_LEVEL);
            let level = CHECKOUT_LEVEL;
            // Whole cycles only: every check-out is checked back in.
            let len = len.div_ceil(3) * 3;
            while ops.len() < len {
                let query_at = rng.index(CHECKOUT_BLOCK);
                for cycle in 0..CHECKOUT_BLOCK {
                    ops.push(Op::CheckOut {
                        root: uniform(&roots, &mut rng),
                        level,
                    });
                    ops.push(if cycle == query_at {
                        Op::Query
                    } else {
                        expand(&roots, level, &mut rng)
                    });
                    ops.push(Op::CheckIn);
                }
            }
        }
    }
    ops.truncate(len);
    ops
}

/// A server and one client session on it, plus what the oracle needs.
pub struct Rig {
    pub server: PdmServer,
    pub session: Session,
    pub product: Product,
    /// Rendered length of each recursive request by root (the closed form
    /// needs the request size for its packet count `q_r`).
    /// Keyed by (root, whether the request is a check-out).
    pub request_bytes: HashMap<(i64, bool), usize>,
}

/// Time spent building a rig.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build: Duration,
    pub warm: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.build + self.warm
    }
}

/// Generate and populate the workload's product, assemble its server
/// (cutting the initial checkpoint on the durable one) and open a session.
pub fn build_rig(workload: Workload) -> Result<(Rig, Duration), String> {
    let t0 = Instant::now();
    let spec = workload.spec();
    let (db, data) = build_database(&spec).map_err(|e| format!("populate: {e}"))?;
    let server = if workload.durable() {
        let shared = SharedServer::with_durability(db, &DurabilityConfig::default())
            .map_err(|e| format!("durable server: {e}"))?;
        PdmServer::from_shared(std::sync::Arc::new(shared))
    } else {
        PdmServer::new(db)
    };
    if workload.durable() {
        server.shared().enable_journal();
    }
    let session = Session::attach(
        server.clone(),
        SessionConfig::new(USER, workload.strategy(), link()),
        rules(),
    );
    let build = t0.elapsed();
    let product = Product::new(&data);
    let request_bytes = recursive_request_bytes(&server, &product, workload);
    Ok((
        Rig {
            server,
            session,
            product,
            request_bytes,
        },
        build,
    ))
}

/// Request sizes of the recursive queries the tuned client will send, by
/// root: the session's own builders, rendered once at set-up.
fn recursive_request_bytes(
    server: &PdmServer,
    product: &Product,
    workload: Workload,
) -> HashMap<(i64, bool), usize> {
    let views = server.view_names();
    let rules = rules();
    let mut out = HashMap::new();
    if workload.strategy() != Strategy::Recursive {
        return out;
    }
    let level = match workload {
        Workload::Checkout => CHECKOUT_LEVEL,
        _ => BROWSE_LEVEL,
    };
    for root in product.visible_assemblies_at(level) {
        for (action, mut q) in [
            (
                ActionKind::MultiLevelExpand,
                recursive::mle_query_in(root, T_LINK, false),
            ),
            (ActionKind::CheckOut, recursive::mle_query(root)),
        ] {
            if Modificator::new(&rules, USER, action, &views)
                .modify_recursive(&mut q)
                .is_ok()
            {
                let checkout = action == ActionKind::CheckOut;
                out.insert((root, checkout), q.to_string().len());
            }
        }
    }
    out
}

/// Warm-up pass: `browse` touches every distinct request once, so every
/// timed request is a cache hit; `navigate` runs the first eighth of its
/// round; `checkout` runs one read of each kind (no writes, so the timed
/// round starts from the freshly built state).
pub fn warm(rig: &mut Rig, workload: Workload, plan: &[Op]) -> Result<Duration, String> {
    let t0 = Instant::now();
    let s = &mut rig.session;
    let err = |e: pdm_core::SessionError| format!("warm-up: {e}");
    match workload {
        Workload::Browse => {
            for root in rig.product.visible_assemblies_at(BROWSE_LEVEL) {
                s.multi_level_expand(root).map_err(err)?;
                s.single_level_expand(root).map_err(err)?;
            }
            s.query_all(1).map_err(err)?;
        }
        Workload::Navigate => {
            for op in &plan[..plan.len() / 8] {
                if let Op::MultiLevel { root, .. } = op {
                    s.multi_level_expand(*root).map_err(err)?;
                }
            }
        }
        Workload::Checkout => {
            let root = rig.product.visible_assemblies_at(CHECKOUT_LEVEL)[0];
            s.multi_level_expand(root).map_err(err)?;
            s.query_all(1).map_err(err)?;
        }
    }
    Ok(t0.elapsed())
}
