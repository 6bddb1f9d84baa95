//! Additional graph builders for the topology experiments: preferential
//! attachment (scale-free), complete binary trees, and the lollipop graph
//! (the classical slow-mixing worst case).

use rand::Rng;

use crate::graph::Graph;

impl Graph {
    /// Barabási–Albert preferential attachment: starts from a clique on
    /// `m + 1` nodes; each new node attaches to `m` distinct existing
    /// nodes chosen with probability proportional to degree.
    ///
    /// # Panics
    /// Panics if `n ≤ m` or `m == 0`.
    pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Self {
        assert!(m >= 1, "attachment count must be positive");
        assert!(n > m, "need more nodes than the attachment count");
        let mut edges: Vec<(u32, u32)> = Vec::new();
        // Seed clique on m+1 nodes.
        for u in 0..=m as u32 {
            for v in (u + 1)..=m as u32 {
                edges.push((u, v));
            }
        }
        // Degree-proportional sampling via the edge-endpoint trick: a
        // uniform endpoint of a uniform existing edge is degree-biased.
        // Targets keep the order they were first drawn in, so one seed
        // builds one graph.
        let mut targets = Vec::with_capacity(m);
        for new in (m + 1)..n {
            targets.clear();
            while targets.len() < m {
                let &(a, b) = &edges[rng.gen_range(0..edges.len())];
                let pick = if rng.gen::<bool>() { a } else { b };
                if !targets.contains(&pick) {
                    targets.push(pick);
                }
            }
            edges.extend(targets.iter().map(|&t| (t, new as u32)));
        }
        Self::from_edges(n, &edges)
    }

    /// The complete binary tree with `n` nodes (node 0 the root; node `i`
    /// has children `2i+1`, `2i+2`).
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn binary_tree(n: usize) -> Self {
        assert!(n >= 2, "a tree needs at least two nodes");
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| ((v - 1) / 2, v)).collect();
        Self::from_edges(n, &edges)
    }

    /// The lollipop graph: a clique on `clique` nodes with a path of
    /// `tail` extra nodes hanging off node 0 — the classic slow-mixing
    /// example.
    ///
    /// # Panics
    /// Panics if `clique < 3` or `tail < 1`.
    pub fn lollipop(clique: usize, tail: usize) -> Self {
        assert!(clique >= 3, "need a clique of at least 3");
        assert!(tail >= 1, "need a tail");
        let n = clique + tail;
        let mut edges = Vec::new();
        for u in 0..clique as u32 {
            for v in (u + 1)..clique as u32 {
                edges.push((u, v));
            }
        }
        // Path: 0 - clique - clique+1 - ... - n-1.
        let mut prev = 0u32;
        for v in clique as u32..n as u32 {
            edges.push((prev, v));
            prev = v;
        }
        Self::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use symbreak_sim::rng::Pcg64;

    #[test]
    fn preferential_attachment_shape() {
        let mut rng = Pcg64::seed_from_u64(1);
        let g = Graph::preferential_attachment(100, 3, &mut rng);
        assert_eq!(g.num_nodes(), 100);
        assert!(g.is_connected());
        // Seed clique C(4,2) = 6 edges; every later node attaches 3 more.
        assert_eq!(g.num_edges(), 6 + (100 - 4) * 3);
        // Min degree is m; hubs are much larger.
        let degrees: Vec<usize> = (0..100).map(|u| g.degree(u)).collect();
        assert!(degrees.iter().all(|&d| d >= 3));
        assert!(*degrees.iter().max().expect("nodes") >= 10, "a scale-free hub should emerge");
    }

    #[test]
    fn preferential_attachment_is_seed_deterministic() {
        let build = || Graph::preferential_attachment(64, 3, &mut Pcg64::seed_from_u64(7));
        assert_eq!(build(), build());
    }

    #[test]
    fn binary_tree_structure() {
        let g = Graph::binary_tree(7);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_connected());
        assert_eq!(g.degree(0), 2); // root
        assert_eq!(g.degree(3), 1); // leaf
        assert_eq!(g.neighbors(1), &[0, 3, 4]);
    }

    #[test]
    fn lollipop_structure() {
        let g = Graph::lollipop(5, 3);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 10 + 3);
        assert!(g.is_connected());
        assert_eq!(g.degree(7), 1, "tail end is a leaf");
        assert_eq!(g.degree(0), 5, "clique node 0 carries the tail");
    }

    #[test]
    fn lollipop_mixes_slower_than_clique() {
        use crate::props::spectral_gap_estimate;
        let lolli = Graph::lollipop(16, 16);
        let clique = Graph::complete(32);
        let g_l = spectral_gap_estimate(&lolli, 600);
        let g_c = spectral_gap_estimate(&clique, 600);
        assert!(g_l < g_c / 4.0, "lollipop ({g_l}) should mix far slower than K_32 ({g_c})");
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn tiny_pa_panics() {
        let mut rng = Pcg64::seed_from_u64(2);
        Graph::preferential_attachment(3, 3, &mut rng);
    }
}
