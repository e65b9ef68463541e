//! The benchmark's oracle against hand-computed small cases: a product of
//! depth δ = 2 with β = 5 and γ = 0.8, so every visible node keeps exactly
//! four of its five children.

use std::collections::HashMap;

use pdm_core::{ProductNode, ProductTree};
use pdm_model::{Action, Strategy};
use pdm_net::{LinkProfile, TrafficStats};
use pdm_workload::{generate, TreeSpec};
use perfbench::oracle::{check_nodes, check_traffic, check_tree, Product, EXPAND_TOLERANCE};

fn product() -> Product {
    Product::new(&generate(&TreeSpec::new(2, 5, 0.8)))
}

fn node(obid: i64, parent: Option<i64>) -> ProductNode {
    ProductNode {
        obid,
        parent,
        type_name: String::new(),
        name: String::new(),
        attrs: HashMap::new(),
    }
}

/// The tree a correct expand of the whole product returns.
fn full_tree(p: &Product) -> ProductTree {
    let mut tree = ProductTree::new();
    for (id, parent) in p.visible_subtree(1) {
        tree.insert(node(id, parent));
    }
    tree
}

/// Object ids of the δ=2, β=5 product: root 1, assemblies 2..=6 at level
/// 1, components 7..=31 at level 2 (five per assembly, in order). The
/// first child of every parent is on an invisible branch.
#[test]
fn expected_subtree_matches_hand_count() {
    let p = product();
    assert_eq!(p.visible_children(1), vec![3, 4, 5, 6]);
    assert_eq!(p.visible_children(3), vec![13, 14, 15, 16]);
    // Assembly 2 is invisible; its children are never reached.
    let all = p.visible_subtree(1);
    assert_eq!(all.len(), 1 + 4 + 16);
    assert!(!all.contains_key(&2));
    assert!(!all.contains_key(&7));
    assert_eq!(all[&13], Some(3));
    assert_eq!(p.visible_subtree(4).len(), 1 + 4);
    assert_eq!(p.visible_level(1).len(), 1 + 4);
    assert_eq!(p.visible_all().len(), 20);
    assert_eq!(p.visible_assemblies_at(1), vec![3, 4, 5, 6]);
}

#[test]
fn closed_form_matches_hand_computation() {
    let p = product();
    let link = LinkProfile::wan_256();
    // Navigational late-evaluated MLE from the root: one query for the
    // root and one per visible node (21), shipping all five children of
    // the root and of each of the four visible assemblies (25 rows).
    let late = p.closed_form(2, Action::MultiLevelExpand, Strategy::LateEval, &link, 0);
    assert_eq!(late.queries, 21.0);
    assert_eq!(late.communications, 42.0);
    assert_eq!(late.transmitted_nodes, 25.0);
    assert!((late.latency_time - 42.0 * 0.15).abs() < 1e-12);
    // eq. (3): 21 request packets of 4096 B, 25 rows of 512 B, plus the
    // half-packet correction per request.
    assert_eq!(
        late.volume_bytes,
        21.0 * 4096.0 + 25.0 * 512.0 + 21.0 * 2048.0
    );
    // Recursive MLE: one single-packet query, two communications, the 20
    // visible nodes.
    let rec = p.closed_form(
        2,
        Action::MultiLevelExpand,
        Strategy::Recursive,
        &link,
        1000,
    );
    assert_eq!((rec.queries, rec.communications), (1.0, 2.0));
    assert_eq!(rec.transmitted_nodes, 20.0);
    assert_eq!(rec.volume_bytes, 4096.0 + 20.0 * 512.0 + 2048.0);
    let transfer = rec.volume_bytes * 8.0 / (256.0 * 1024.0);
    assert!((rec.total() - (0.3 + transfer)).abs() < 1e-12);
    // A recursive request of 5000 B needs two packets (q_r = 2).
    let big = p.closed_form(
        2,
        Action::MultiLevelExpand,
        Strategy::Recursive,
        &link,
        5000,
    );
    assert_eq!(big.queries, 2.0);
    // Single-level expand: early ships the 4 visible children, late all 5.
    let sle = p.closed_form(2, Action::Expand, Strategy::EarlyEval, &link, 0);
    assert_eq!(sle.transmitted_nodes, 4.0);
    let sle_late = p.closed_form(2, Action::Expand, Strategy::LateEval, &link, 0);
    assert_eq!(sle_late.transmitted_nodes, 5.0);
    // Query: early ships the 20 visible objects, late all 30.
    let q = p.closed_form(2, Action::Query, Strategy::EarlyEval, &link, 0);
    assert_eq!((q.queries, q.transmitted_nodes), (1.0, 20.0));
    let q_late = p.closed_form(2, Action::Query, Strategy::LateEval, &link, 0);
    assert_eq!(q_late.transmitted_nodes, 30.0);
}

#[test]
fn correct_tree_is_accepted() {
    let p = product();
    check_tree(&p.visible_subtree(1), &full_tree(&p)).unwrap();
}

#[test]
fn tree_with_a_node_removed_is_rejected() {
    let p = product();
    let mut tree = ProductTree::new();
    for (id, parent) in p.visible_subtree(1) {
        if id != 16 {
            tree.insert(node(id, parent));
        }
    }
    assert!(check_tree(&p.visible_subtree(1), &tree).is_err());
}

#[test]
fn tree_with_a_node_added_is_rejected() {
    let p = product();
    let mut tree = full_tree(&p);
    tree.insert(node(999, Some(3)));
    assert!(check_tree(&p.visible_subtree(1), &tree).is_err());
}

#[test]
fn tree_with_an_invisible_node_leaked_is_rejected() {
    let p = product();
    let mut tree = full_tree(&p);
    // Component 12 is the invisible first child of assembly 3.
    assert!(!p.visible_children(3).contains(&12));
    tree.insert(node(12, Some(3)));
    assert!(check_tree(&p.visible_subtree(1), &tree).is_err());
}

#[test]
fn tree_with_a_node_under_the_wrong_parent_is_rejected() {
    let p = product();
    let mut tree = ProductTree::new();
    for (id, parent) in p.visible_subtree(1) {
        let parent = if id == 13 { Some(4) } else { parent };
        tree.insert(node(id, parent));
    }
    assert!(check_tree(&p.visible_subtree(1), &tree).is_err());
}

#[test]
fn query_results_are_checked_as_sets() {
    let p = product();
    let expected = p.visible_all();
    let mut nodes: Vec<ProductNode> = expected.iter().map(|&id| node(id, None)).collect();
    check_nodes(&expected, &nodes).unwrap();
    nodes.push(node(12, None));
    assert!(check_nodes(&expected, &nodes).is_err(), "leaked node");
    nodes.pop();
    nodes.pop();
    assert!(check_nodes(&expected, &nodes).is_err(), "removed node");
    nodes.push(node(999, None));
    assert!(check_nodes(&expected, &nodes).is_err(), "added node");
}

#[test]
fn traffic_off_by_one_request_is_rejected() {
    let p = product();
    let link = LinkProfile::wan_256();
    let model = p.closed_form(2, Action::MultiLevelExpand, Strategy::LateEval, &link, 0);
    let mut channel = pdm_net::MeteredChannel::new(link);
    // 21 single-packet requests, 25 rows of 512 B spread over them.
    for i in 0..21 {
        let rows = if i < 5 { 5 } else { 0 };
        channel.round_trip(100, rows * 512);
    }
    let stats: TrafficStats = channel.stats().clone();
    check_traffic(&stats, &model, false, 512, EXPAND_TOLERANCE).unwrap();
    let mut extra = pdm_net::MeteredChannel::new(link);
    for _ in 0..22 {
        extra.round_trip(100, 0);
    }
    assert!(check_traffic(extra.stats(), &model, false, 512, EXPAND_TOLERANCE).is_err());
}
