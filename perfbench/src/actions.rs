//! Running one action through the public `Session` API, and checking what
//! it returned against the oracle.

use pdm_core::{ProductNode, ProductTree, Session, Strategy};
use pdm_model::{Action, Strategy as ModelStrategy};
use pdm_net::TrafficStats;

use crate::oracle::{self, EXPAND_TOLERANCE, QUERY_TOLERANCE};
use crate::workload::{link, Op, Rig};

/// What an action returned: the tree or node list the user sees, and the
/// action's metered WAN traffic.
#[derive(Debug, Clone)]
pub enum Outcome {
    Tree(ProductTree, TrafficStats),
    Nodes(Vec<ProductNode>, TrafficStats),
    CheckedIn(usize, TrafficStats),
}

impl Outcome {
    /// The tree a check-out returned, which its check-in gives back.
    pub fn checked_out(&self, op: Op) -> Option<ProductTree> {
        match (op, self) {
            (Op::CheckOut { .. }, Outcome::Tree(tree, _)) => Some(tree.clone()),
            _ => None,
        }
    }

    pub fn stats(&self) -> &TrafficStats {
        match self {
            Outcome::Tree(_, s) | Outcome::Nodes(_, s) | Outcome::CheckedIn(_, s) => s,
        }
    }

    /// Same objects with the same attributes, and the same traffic, bit
    /// for bit.
    pub fn same_as(&self, other: &Outcome) -> bool {
        match (self, other) {
            (Outcome::Tree(a, sa), Outcome::Tree(b, sb)) => {
                a.root() == b.root() && a.nodes().eq(b.nodes()) && sa == sb
            }
            (Outcome::Nodes(a, sa), Outcome::Nodes(b, sb)) => a == b && sa == sb,
            (Outcome::CheckedIn(a, sa), Outcome::CheckedIn(b, sb)) => a == b && sa == sb,
            _ => false,
        }
    }
}

/// Run `op` on `session`. `held` is the tree of the most recent
/// check-out, which a check-in returns.
pub fn perform(
    session: &mut Session,
    op: Op,
    held: Option<&ProductTree>,
) -> Result<Outcome, String> {
    let err = |e: pdm_core::SessionError| format!("{op:?}: {e}");
    Ok(match op {
        Op::MultiLevel { root, .. } => {
            let out = session.multi_level_expand(root).map_err(err)?;
            Outcome::Tree(out.tree, out.stats)
        }
        Op::SingleLevel { root, .. } => {
            let out = session.single_level_expand(root).map_err(err)?;
            Outcome::Tree(out.tree, out.stats)
        }
        Op::Query => {
            let out = session.query_all(1).map_err(err)?;
            Outcome::Nodes(out.nodes, out.stats)
        }
        Op::CheckOut { root, .. } => {
            let out = session.check_out_function_shipping(root).map_err(err)?;
            let tree = out
                .tree
                .ok_or_else(|| format!("{op:?}: check-out refused"))?;
            Outcome::Tree(tree, out.stats)
        }
        Op::CheckIn => {
            let tree = held.ok_or_else(|| "check-in without a check-out".to_string())?;
            let n = session.check_in(tree).map_err(err)?;
            Outcome::CheckedIn(n, session.stats().clone())
        }
    })
}

/// Check one outcome against the oracle. `checked_in` is the tree a
/// check-in returned to the server.
pub fn check(
    rig: &Rig,
    strategy: Strategy,
    op: Op,
    outcome: &Outcome,
    checked_in: Option<&ProductTree>,
) -> Result<(), String> {
    let p = &rig.product;
    let link = link();
    let node_size = p.spec.node_size;
    let model_strategy = match strategy {
        Strategy::LateEval => ModelStrategy::LateEval,
        Strategy::EarlyEval => ModelStrategy::EarlyEval,
        Strategy::Recursive => ModelStrategy::Recursive,
    };
    let recursive_bytes = |root: i64, checkout: bool| {
        rig.request_bytes
            .get(&(root, checkout))
            .copied()
            .ok_or_else(|| format!("no request size for root {root}"))
    };
    let ctx = |e: String| format!("{op:?}: {e}");
    match (op, outcome) {
        (Op::MultiLevel { root, level }, Outcome::Tree(tree, stats)) => {
            oracle::check_tree(&p.visible_subtree(root), tree).map_err(ctx)?;
            let recursive = strategy == Strategy::Recursive;
            let bytes = if recursive {
                recursive_bytes(root, false)?
            } else {
                0
            };
            let model = p.closed_form(
                p.depth_below(level),
                Action::MultiLevelExpand,
                model_strategy,
                &link,
                bytes,
            );
            oracle::check_traffic(stats, &model, recursive, node_size, EXPAND_TOLERANCE)
                .map_err(ctx)
        }
        (Op::SingleLevel { root, level }, Outcome::Tree(tree, stats)) => {
            oracle::check_tree(&p.visible_level(root), tree).map_err(ctx)?;
            let model = p.closed_form(
                p.depth_below(level),
                Action::Expand,
                model_strategy,
                &link,
                0,
            );
            oracle::check_traffic(stats, &model, false, node_size, EXPAND_TOLERANCE).map_err(ctx)
        }
        (Op::Query, Outcome::Nodes(nodes, stats)) => {
            oracle::check_nodes(&p.visible_all(), nodes).map_err(ctx)?;
            let model = p.closed_form(p.spec.depth, Action::Query, model_strategy, &link, 0);
            oracle::check_traffic(stats, &model, false, node_size, QUERY_TOLERANCE).map_err(ctx)
        }
        (Op::CheckOut { root, level }, Outcome::Tree(tree, stats)) => {
            oracle::check_tree(&p.visible_subtree(root), tree).map_err(ctx)?;
            // Function shipping: one procedure call carrying the recursive
            // query plus 32 bytes of call framing, answered by the rows a
            // recursive multi-level expand would ship.
            let model = p.closed_form(
                p.depth_below(level),
                Action::MultiLevelExpand,
                ModelStrategy::Recursive,
                &link,
                recursive_bytes(root, true)? + 32,
            );
            oracle::check_traffic(stats, &model, true, node_size, EXPAND_TOLERANCE).map_err(ctx)
        }
        (Op::CheckIn, Outcome::CheckedIn(n, stats)) => {
            let tree = checked_in.ok_or_else(|| ctx("nothing was checked out".into()))?;
            if *n != tree.len() {
                return Err(ctx(format!(
                    "check-in cleared {n} flags for a {}-object tree",
                    tree.len()
                )));
            }
            let tables = ["assy", "comp"]
                .iter()
                .filter(|t| tree.count_of_type(t) > 0)
                .count();
            oracle::check_checkin_traffic(stats, tables, &link).map_err(ctx)?;
            check_flags_clear(rig, tree).map_err(ctx)
        }
        _ => Err(ctx("outcome of the wrong kind".into())),
    }
}

/// After a check-in, every `checkedout` flag of the subtree reads false on
/// the current snapshot (read past the result cache and its counters).
fn check_flags_clear(rig: &Rig, tree: &ProductTree) -> Result<(), String> {
    for table in ["assy", "comp"] {
        let ids: Vec<String> = tree
            .nodes()
            .filter(|n| n.type_name == table)
            .map(|n| n.obid.to_string())
            .collect();
        if ids.is_empty() {
            continue;
        }
        let rs = rig
            .server
            .shared()
            .query_uncached(&format!(
                "SELECT obid FROM {table} WHERE checkedout = TRUE AND obid IN ({})",
                ids.join(", ")
            ))
            .map_err(|e| format!("flag read: {e}"))?;
        if !rs.rows.is_empty() {
            return Err(format!(
                "{} {table} objects still checked out after check-in",
                rs.rows.len()
            ));
        }
    }
    Ok(())
}
