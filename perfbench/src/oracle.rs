//! The benchmark's own oracle. What each action must return is computed
//! from the generator's `ProductData` by walking its links, without SQL;
//! what each action must cost on the modeled WAN comes from the paper's
//! closed form (`pdm_model`, eqs. (1)–(6)). Neither goes through the
//! session, the query builders or the engine under test.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pdm_core::{ProductNode, ProductTree};
use pdm_model::response::response;
use pdm_model::{Action, Breakdown, KaryTree, Strategy as ModelStrategy};
use pdm_net::{LinkProfile, TrafficStats};
use pdm_sql::{Database, Snapshot};
use pdm_workload::{build_database, NodeKind, ProductData, TreeSpec};

/// Relative tolerance for quantities the model predicts exactly (counts,
/// latency); only floating-point summation order separates the two sides.
const EXACT: f64 = 1e-9;
/// Volume and response-time tolerance `tests/model_vs_simulation.rs` uses
/// for expands and check-outs: rows are padded to the 512-byte average.
pub const EXPAND_TOLERANCE: f64 = 0.01;
/// Tolerance the same test uses for the Query action, whose bare
/// projection rows are ~7% lighter than the 512-byte average.
pub const QUERY_TOLERANCE: f64 = 0.08;

/// Expected visible structure: object id → parent (`None` for the root).
pub type Expected = BTreeMap<i64, Option<i64>>;

/// The generated product as the oracle sees it: links by parent, levels
/// and kinds by object id.
#[derive(Debug, Clone)]
pub struct Product {
    pub spec: TreeSpec,
    children: HashMap<i64, Vec<(i64, bool)>>,
    level: HashMap<i64, u32>,
    assemblies: BTreeSet<i64>,
}

impl Product {
    pub fn new(data: &ProductData) -> Self {
        let mut children: HashMap<i64, Vec<(i64, bool)>> = HashMap::new();
        for link in &data.links {
            children
                .entry(link.left)
                .or_default()
                .push((link.right, link.visible));
        }
        Product {
            spec: data.spec.clone(),
            children,
            level: data.nodes.iter().map(|n| (n.obid, n.level)).collect(),
            assemblies: data
                .nodes
                .iter()
                .filter(|n| n.kind == NodeKind::Assembly)
                .map(|n| n.obid)
                .collect(),
        }
    }

    /// Children reachable over visible links, in link order.
    pub fn visible_children(&self, parent: i64) -> Vec<i64> {
        self.children
            .get(&parent)
            .map(|c| c.iter().filter(|(_, v)| *v).map(|(id, _)| *id).collect())
            .unwrap_or_default()
    }

    /// The subtree a user sees below `root`: every node reachable from it
    /// over visible links, with its parent.
    pub fn visible_subtree(&self, root: i64) -> Expected {
        let mut out = Expected::new();
        out.insert(root, None);
        let mut frontier = vec![root];
        while let Some(parent) = frontier.pop() {
            for child in self.visible_children(parent) {
                out.insert(child, Some(parent));
                frontier.push(child);
            }
        }
        out
    }

    /// Root plus its visible direct children (a single-level expand).
    pub fn visible_level(&self, root: i64) -> Expected {
        let mut out = Expected::new();
        out.insert(root, None);
        for child in self.visible_children(root) {
            out.insert(child, Some(root));
        }
        out
    }

    /// Every visible object of the product except the root (the Query
    /// action's result).
    pub fn visible_all(&self) -> BTreeSet<i64> {
        let mut ids: BTreeSet<i64> = self.visible_subtree(1).into_keys().collect();
        ids.remove(&1);
        ids
    }

    /// Visible assemblies at `level` (0 = root), ascending.
    pub fn visible_assemblies_at(&self, level: u32) -> Vec<i64> {
        self.visible_subtree(1)
            .into_keys()
            .filter(|id| self.assemblies.contains(id) && self.level.get(id) == Some(&level))
            .collect()
    }

    /// Depth of the complete subtree below a node at `level`.
    pub fn depth_below(&self, level: u32) -> u32 {
        self.spec.depth - level
    }

    /// The closed-form cost of `action` over the complete subtree of
    /// `depth` levels under this product's β and γ.
    pub fn closed_form(
        &self,
        depth: u32,
        action: Action,
        strategy: ModelStrategy,
        link: &LinkProfile,
        request_bytes: usize,
    ) -> Breakdown {
        let tree = KaryTree::new(depth, self.spec.branching, self.spec.gamma);
        response(
            &tree,
            action,
            strategy,
            link,
            self.spec.node_size,
            request_bytes,
        )
    }
}

/// A returned tree must hold exactly the expected objects, each under its
/// expected parent.
pub fn check_tree(expected: &Expected, tree: &ProductTree) -> Result<(), String> {
    let got: BTreeSet<i64> = tree.node_ids().collect();
    let want: BTreeSet<i64> = expected.keys().copied().collect();
    if got != want {
        let missing: Vec<_> = want.difference(&got).take(5).collect();
        let extra: Vec<_> = got.difference(&want).take(5).collect();
        return Err(format!(
            "tree has {} nodes, expected {} (missing {missing:?}, unexpected {extra:?})",
            got.len(),
            want.len()
        ));
    }
    for node in tree.nodes() {
        if expected[&node.obid] != node.parent {
            return Err(format!(
                "node {} under {:?}, expected {:?}",
                node.obid, node.parent, expected[&node.obid]
            ));
        }
    }
    Ok(())
}

/// A Query result must hold exactly the expected objects.
pub fn check_nodes(expected: &BTreeSet<i64>, nodes: &[ProductNode]) -> Result<(), String> {
    let got: BTreeSet<i64> = nodes.iter().map(|n| n.obid).collect();
    if got.len() != nodes.len() {
        return Err(format!(
            "{} rows but {} distinct objects",
            nodes.len(),
            got.len()
        ));
    }
    if &got != expected {
        let missing: Vec<_> = expected.difference(&got).take(5).collect();
        let extra: Vec<_> = got.difference(expected).take(5).collect();
        return Err(format!(
            "query returned {} objects, expected {} (missing {missing:?}, unexpected {extra:?})",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

fn rel_close(what: &str, measured: f64, predicted: f64, tol: f64) -> Result<(), String> {
    let rel = (measured - predicted).abs() / predicted.abs().max(1e-9);
    if rel < tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: measured {measured} vs closed form {predicted} (rel err {rel:.4})"
        ))
    }
}

/// Metered traffic against the closed form: request count, communication
/// count and latency time exactly; shipped rows exactly for expands
/// (within `tolerance` for the Query action); volume and response time
/// within `tolerance`. For the recursive strategy the model's `q` is the
/// request packet count `q_r` of the single recursive query.
pub fn check_traffic(
    stats: &TrafficStats,
    model: &Breakdown,
    single_request: bool,
    node_size: usize,
    tolerance: f64,
) -> Result<(), String> {
    let requests = if single_request {
        if stats.queries != 1 {
            return Err(format!("{} requests, expected 1", stats.queries));
        }
        stats.request_packets
    } else {
        stats.queries
    };
    if requests as f64 != model.queries {
        return Err(format!(
            "{requests} requests (or request packets), closed form {}",
            model.queries
        ));
    }
    if stats.communications as f64 != model.communications {
        return Err(format!(
            "{} communications, closed form {}",
            stats.communications, model.communications
        ));
    }
    rel_close("latency", stats.latency_time, model.latency_time, EXACT)?;
    let shipped = stats.response_payload_bytes as f64 / node_size as f64;
    let row_tol = if tolerance > EXPAND_TOLERANCE {
        tolerance
    } else {
        EXACT
    };
    rel_close("shipped rows", shipped, model.transmitted_nodes, row_tol)?;
    rel_close("volume", stats.volume_bytes, model.volume_bytes, tolerance)?;
    rel_close(
        "response time",
        stats.response_time(),
        model.total(),
        tolerance,
    )
}

/// The check-in's traffic: one UPDATE round trip per non-empty object
/// table, each confirmed by a 16-byte reply.
pub fn check_checkin_traffic(
    stats: &TrafficStats,
    tables: usize,
    link: &LinkProfile,
) -> Result<(), String> {
    if stats.queries != tables || stats.communications != 2 * tables {
        return Err(format!(
            "check-in used {} requests / {} communications, expected {tables} / {}",
            stats.queries,
            stats.communications,
            2 * tables
        ));
    }
    if stats.response_payload_bytes != 16 * tables {
        return Err(format!(
            "check-in replies carried {} bytes, expected {}",
            stats.response_payload_bytes,
            16 * tables
        ));
    }
    rel_close(
        "check-in latency",
        stats.latency_time,
        2.0 * tables as f64 * link.latency,
        EXACT,
    )
}

/// Data fingerprint of a database that replays `journal` serially on a
/// freshly generated copy of the product.
pub fn replay_fingerprint(spec: &TreeSpec, journal: &[String]) -> Result<Vec<u8>, String> {
    let (mut db, _) = build_database(spec).map_err(|e| format!("fresh copy: {e}"))?;
    for stmt in journal {
        db.execute(stmt)
            .map_err(|e| format!("serial replay of `{stmt}`: {e}"))?;
    }
    Ok(fingerprint_of(db))
}

fn fingerprint_of(db: Database) -> Vec<u8> {
    pdm_sql::persist::state_fingerprint(&Snapshot {
        catalog: db.catalog,
        config: db.config,
        version: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_walk_follows_only_visible_links() {
        let data = pdm_workload::generate(&TreeSpec::new(3, 5, 0.8));
        let p = Product::new(&data);
        // γβ = 4: every visible parent keeps four of its five children.
        assert_eq!(p.visible_children(1).len(), 4);
        assert_eq!(p.visible_subtree(1).len(), 1 + 4 + 16 + 64);
        assert_eq!(p.visible_assemblies_at(2).len(), 16);
    }
}
