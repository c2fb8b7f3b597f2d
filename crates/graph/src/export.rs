//! Graph export for external tools.
//!
//! Topology snapshots are most useful when they can leave the
//! process: [`to_edge_list`] writes the whitespace format every graph
//! toolkit ingests (networkx, igraph, SNAP), and [`to_dot`] writes
//! Graphviz DOT with optional node grouping (e.g. color by ISP). Both
//! print node keys, so they take the keyed [`DiGraph`].

use crate::{DiGraph, NodeId};
use std::fmt::Display;
use std::hash::Hash;

/// Serializes the graph as `source target weight` lines, one edge per
/// line, using the `Display` form of the node keys.
pub fn to_edge_list<N: Eq + Hash + Clone + Display>(g: &DiGraph<N>) -> String {
    let mut out = String::new();
    for e in g.edges() {
        out.push_str(&format!("{} {} {}\n", g.key(e.from), g.key(e.to), e.weight));
    }
    out
}

/// Serializes the graph as Graphviz DOT. `group_of` assigns each node
/// a group label rendered as a fill color class (pass `|_, _| None`
/// for no grouping); groups map to a fixed palette cycling by first
/// appearance.
pub fn to_dot<N, F>(g: &DiGraph<N>, name: &str, mut group_of: F) -> String
where
    N: Eq + Hash + Clone + Display,
    F: FnMut(NodeId, &N) -> Option<String>,
{
    const PALETTE: [&str; 8] = [
        "lightblue",
        "lightcoral",
        "lightgreen",
        "plum",
        "orange",
        "khaki",
        "lightgray",
        "cyan",
    ];
    let mut groups: Vec<String> = Vec::new();
    let mut out = format!("digraph \"{}\" {{\n", name.replace('"', "'"));
    out.push_str("  node [shape=circle, style=filled, fillcolor=white];\n");
    for (id, key) in g.nodes() {
        match group_of(id, key) {
            Some(grp) => {
                let gi = match groups.iter().position(|x| *x == grp) {
                    Some(i) => i,
                    None => {
                        groups.push(grp.clone());
                        groups.len() - 1
                    }
                };
                out.push_str(&format!(
                    "  \"{key}\" [fillcolor={}, comment=\"{grp}\"];\n",
                    PALETTE[gi % PALETTE.len()]
                ));
            }
            None => out.push_str(&format!("  \"{key}\";\n")),
        }
    }
    for e in g.edges() {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [weight={}];\n",
            g.key(e.from),
            g.key(e.to),
            e.weight
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiGraph<u32> {
        let mut g = DiGraph::new();
        let a = g.intern(1);
        let b = g.intern(2);
        let c = g.intern(3);
        g.add_edge(a, b, 5);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 7);
        g
    }

    #[test]
    fn edge_list_prints_keys_and_weights() {
        assert_eq!(to_edge_list(&sample()), "1 2 5\n2 3 1\n3 1 7\n");
    }

    #[test]
    fn dot_structure() {
        let g = sample();
        let dot = to_dot(&g, "test", |_, &k| {
            Some(if k % 2 == 0 { "even" } else { "odd" }.to_owned())
        });
        assert!(dot.starts_with("digraph \"test\" {"));
        assert!(dot.trim_end().ends_with('}'));
        assert_eq!(dot.matches("->").count(), 3);
        // Two groups → two distinct fill colors.
        assert!(dot.contains("lightblue"));
        assert!(dot.contains("lightcoral"));
    }

    #[test]
    fn dot_without_groups() {
        let g = sample();
        let dot = to_dot(&g, "plain", |_, _| None);
        assert!(!dot.contains("lightcoral"));
        assert_eq!(dot.matches("->").count(), 3);
    }

    #[test]
    fn empty_graph_exports() {
        let g: DiGraph<u32> = DiGraph::new();
        assert_eq!(to_edge_list(&g), "");
        let dot = to_dot(&g, "empty", |_, _| None);
        assert!(dot.contains("digraph"));
    }
}
