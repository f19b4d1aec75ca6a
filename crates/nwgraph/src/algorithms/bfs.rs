//! Parallel breadth-first search: top-down, bottom-up, and
//! direction-optimizing (Beamer, Asanović, Patterson — the algorithm behind
//! NWHy's AdjoinBFS).
//!
//! All three variants produce identical level arrays; parents may differ
//! (any parent on a shortest path is valid), which the tests check by
//! validating the parent forest rather than comparing it exactly.

use crate::csr::Csr;
use crate::{Vertex, INVALID_VERTEX};
use nwhy_util::bitmap::AtomicBitmap;
use nwhy_util::sync::{AtomicU32, AtomicUsize, Ordering};
use rayon::prelude::*;

/// The output of a BFS traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// `parents[v]` is the BFS-tree parent of `v`; the source is its own
    /// parent; unreachable vertices hold [`INVALID_VERTEX`].
    pub parents: Vec<Vertex>,
    /// `levels[v]` is the hop distance from the source;
    /// [`INVALID_VERTEX`] for unreachable vertices.
    pub levels: Vec<Vertex>,
}

impl BfsResult {
    /// Number of vertices reached (including the source).
    pub fn num_reached(&self) -> usize {
        self.levels.iter().filter(|&&l| l != INVALID_VERTEX).count()
    }

    /// Largest finite level (0 if only the source was reached).
    pub fn max_level(&self) -> u32 {
        self.levels
            .iter()
            .copied()
            .filter(|&l| l != INVALID_VERTEX)
            .max()
            .unwrap_or(0)
    }
}

fn empty_result(n: usize) -> (Vec<AtomicU32>, Vec<AtomicU32>) {
    let parents: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INVALID_VERTEX)).collect();
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INVALID_VERTEX)).collect();
    (parents, levels)
}

fn finish(parents: Vec<AtomicU32>, levels: Vec<AtomicU32>) -> BfsResult {
    BfsResult {
        parents: parents.into_iter().map(AtomicU32::into_inner).collect(),
        levels: levels.into_iter().map(AtomicU32::into_inner).collect(),
    }
}

/// Top-down parallel BFS: each level expands the sparse frontier, claiming
/// unvisited neighbors with a CAS on the parent slot.
///
/// # Examples
///
/// ```
/// use nwgraph::algorithms::bfs::bfs_top_down;
/// use nwgraph::{Csr, EdgeList};
///
/// let mut el = EdgeList::from_edges(4, vec![(0, 1), (1, 2)]);
/// el.symmetrize();
/// let g = Csr::from_edge_list(&el);
/// let r = bfs_top_down(&g, 0);
/// assert_eq!(r.levels, vec![0, 1, 2, u32::MAX]); // vertex 3 unreachable
/// assert_eq!(r.num_reached(), 3);
/// ```
pub fn bfs_top_down(g: &Csr, source: Vertex) -> BfsResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source {source} out of range {n}");
    let (parents, levels) = empty_result(n);
    parents[source as usize].store(source, Ordering::Relaxed);
    levels[source as usize].store(0, Ordering::Relaxed);

    let mut frontier = vec![source];
    let mut depth: u32 = 0;
    while !frontier.is_empty() {
        depth += 1;
        frontier = top_down_step(g, &frontier, &parents, &levels, depth);
    }
    finish(parents, levels)
}

/// One top-down expansion step; returns the next frontier.
fn top_down_step(
    g: &Csr,
    frontier: &[Vertex],
    parents: &[AtomicU32],
    levels: &[AtomicU32],
    depth: u32,
) -> Vec<Vertex> {
    frontier
        .par_iter()
        .fold(Vec::new, |mut next, &u| {
            for &v in g.neighbors(u) {
                if parents[v as usize].load(Ordering::Relaxed) == INVALID_VERTEX
                    && parents[v as usize]
                        .compare_exchange(INVALID_VERTEX, u, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    levels[v as usize].store(depth, Ordering::Relaxed);
                    next.push(v);
                }
            }
            next
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        })
}

/// Bottom-up parallel BFS: each level, every *unvisited* vertex scans its
/// own neighbors looking for a frontier member. Efficient when the
/// frontier is a large fraction of the graph.
///
/// Requires a symmetric (undirected) graph to be equivalent to top-down.
pub fn bfs_bottom_up(g: &Csr, source: Vertex) -> BfsResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source {source} out of range {n}");
    let (parents, levels) = empty_result(n);
    parents[source as usize].store(source, Ordering::Relaxed);
    levels[source as usize].store(0, Ordering::Relaxed);

    let mut current = AtomicBitmap::new(n);
    current.set(source as usize);
    let mut depth: u32 = 0;
    loop {
        depth += 1;
        let (next, advanced) = bottom_up_step(g, &current, &parents, &levels, depth);
        if advanced == 0 {
            break;
        }
        current = next;
    }
    finish(parents, levels)
}

/// One bottom-up sweep; returns the next dense frontier and how many
/// vertices joined it.
fn bottom_up_step(
    g: &Csr,
    current: &AtomicBitmap,
    parents: &[AtomicU32],
    levels: &[AtomicU32],
    depth: u32,
) -> (AtomicBitmap, usize) {
    let n = g.num_vertices();
    let next = AtomicBitmap::new(n);
    let advanced = AtomicUsize::new(0);
    (0..n).into_par_iter().for_each(|v| {
        if parents[v].load(Ordering::Relaxed) != INVALID_VERTEX {
            return;
        }
        for &u in g.neighbors(v as Vertex) {
            if current.get(u as usize) {
                parents[v].store(u, Ordering::Relaxed);
                levels[v].store(depth, Ordering::Relaxed);
                next.set(v);
                advanced.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    });
    (next, advanced.load(Ordering::Relaxed))
}

/// Beamer's α parameter: switch to bottom-up when the frontier's out-edge
/// count exceeds `remaining_edges / ALPHA`.
const ALPHA: usize = 15;
/// Beamer's β parameter: switch back to top-down when the frontier shrinks
/// below `n / BETA`.
const BETA: usize = 18;

/// Direction-optimizing BFS (Beamer et al. 2013): starts top-down, hops to
/// bottom-up when the frontier gets edge-heavy, and returns to top-down as
/// it thins out. This is the algorithm NWHy's AdjoinBFS uses.
///
/// Correct for symmetric (undirected) graphs, which all NWHy projections
/// (adjoin, s-line, clique expansion) are.
pub fn bfs_direction_optimizing(g: &Csr, source: Vertex) -> BfsResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source {source} out of range {n}");
    let (parents, levels) = empty_result(n);
    parents[source as usize].store(source, Ordering::Relaxed);
    levels[source as usize].store(0, Ordering::Relaxed);

    let total_edges = g.num_edges();
    let mut scanned_edges = g.degree(source);
    let mut frontier = vec![source];
    let mut depth: u32 = 0;

    while !frontier.is_empty() {
        // Edges incident to the sparse frontier.
        let frontier_edges: usize = frontier.par_iter().map(|&u| g.degree(u)).sum();
        let remaining = total_edges.saturating_sub(scanned_edges);
        if frontier_edges > remaining / ALPHA && !frontier.is_empty() {
            // Dense phase: convert to bitmap and run bottom-up sweeps until
            // the frontier thins below n/BETA.
            let mut current = AtomicBitmap::new(n);
            for &u in &frontier {
                current.set(u as usize);
            }
            loop {
                depth += 1;
                let (next, advanced) = bottom_up_step(g, &current, &parents, &levels, depth);
                if advanced == 0 {
                    return finish(parents, levels);
                }
                scanned_edges += advanced; // approximation of work done
                let frontier_size = advanced;
                current = next;
                if frontier_size < n / BETA.max(1) {
                    break;
                }
            }
            // Convert dense frontier back to a sparse list.
            frontier = current.iter_ones().map(|v| v as Vertex).collect();
        } else {
            depth += 1;
            scanned_edges += frontier_edges;
            frontier = top_down_step(g, &frontier, &parents, &levels, depth);
        }
    }
    finish(parents, levels)
}

/// Reconstructs one shortest path `source → dest` from a BFS parent
/// array; `None` if `dest` is unreachable or not a vertex of the array.
pub fn path_from_parents(parents: &[Vertex], source: Vertex, dest: Vertex) -> Option<Vec<Vertex>> {
    if parents
        .get(dest as usize)
        .is_none_or(|&p| p == INVALID_VERTEX)
    {
        return None;
    }
    let mut path = vec![dest];
    let mut cur = dest;
    while cur != source {
        cur = parents[cur as usize];
        path.push(cur);
        if path.len() > parents.len() {
            return None; // defensive: malformed parent array
        }
    }
    path.reverse();
    Some(path)
}

/// Validates that `r` is a legal BFS forest for `g` from `source`:
/// level(source)=0, level(child)=level(parent)+1, every edge spans ≤ 1
/// level, and reachability matches. Shared by the test suites of the BFS
/// variants (including HyperBFS and AdjoinBFS in `nwhy-core`).
pub fn validate_bfs(g: &Csr, source: Vertex, r: &BfsResult) -> Result<(), String> {
    let n = g.num_vertices();
    if r.parents.len() != n || r.levels.len() != n {
        return Err("result length mismatch".into());
    }
    if r.levels[source as usize] != 0 || r.parents[source as usize] != source {
        return Err("source not its own root".into());
    }
    for v in 0..n as Vertex {
        let lvl = r.levels[v as usize];
        let par = r.parents[v as usize];
        if (lvl == INVALID_VERTEX) != (par == INVALID_VERTEX) {
            return Err(format!("vertex {v}: level/parent visited-state disagree"));
        }
        if lvl != INVALID_VERTEX && v != source {
            let plvl = r.levels[par as usize];
            if plvl == INVALID_VERTEX || plvl + 1 != lvl {
                return Err(format!("vertex {v}: level {lvl} but parent level {plvl}"));
            }
            if !g.neighbors(par).contains(&v) {
                return Err(format!("vertex {v}: parent {par} is not a neighbor"));
            }
        }
    }
    // Every edge from a visited vertex must reach a visited vertex within
    // one level (undirected BFS property).
    for (u, nbrs) in g.iter() {
        let lu = r.levels[u as usize];
        if lu == INVALID_VERTEX {
            continue;
        }
        for &v in nbrs {
            let lv = r.levels[v as usize];
            if lv == INVALID_VERTEX {
                return Err(format!("edge ({u},{v}) leaves the visited set"));
            }
            if lv + 1 < lu || lu + 1 < lv {
                return Err(format!("edge ({u},{v}) spans levels {lu}→{lv}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;
    use crate::random::connected_undirected;
    use proptest::prelude::*;

    fn path_graph(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for v in 1..n as Vertex {
            el.push(v - 1, v);
        }
        el.symmetrize();
        Csr::from_edge_list(&el)
    }

    #[test]
    fn top_down_on_path() {
        let g = path_graph(5);
        let r = bfs_top_down(&g, 0);
        assert_eq!(r.levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.parents, vec![0, 0, 1, 2, 3]);
        validate_bfs(&g, 0, &r).unwrap();
    }

    #[test]
    fn bottom_up_on_path() {
        let g = path_graph(5);
        let r = bfs_bottom_up(&g, 0);
        assert_eq!(r.levels, vec![0, 1, 2, 3, 4]);
        validate_bfs(&g, 0, &r).unwrap();
    }

    #[test]
    fn direction_optimizing_on_path() {
        let g = path_graph(5);
        let r = bfs_direction_optimizing(&g, 0);
        assert_eq!(r.levels, vec![0, 1, 2, 3, 4]);
        validate_bfs(&g, 0, &r).unwrap();
    }

    #[test]
    fn disconnected_vertices_unreached() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.symmetrize();
        let g = Csr::from_edge_list(&el);
        let r = bfs_top_down(&g, 0);
        assert_eq!(r.levels[2], INVALID_VERTEX);
        assert_eq!(r.parents[3], INVALID_VERTEX);
        assert_eq!(r.num_reached(), 2);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(1));
        for f in [bfs_top_down, bfs_bottom_up, bfs_direction_optimizing] {
            let r = f(&g, 0);
            assert_eq!(r.levels, vec![0]);
            assert_eq!(r.max_level(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn source_out_of_range_panics() {
        let g = Csr::from_edge_list(&EdgeList::new(2));
        bfs_top_down(&g, 5);
    }

    #[test]
    fn star_graph_levels() {
        // hub 0 with 50 leaves — a frontier explosion that triggers the
        // bottom-up switch in the direction-optimizing variant.
        let mut el = EdgeList::new(51);
        for v in 1..=50 {
            el.push(0, v);
        }
        el.symmetrize();
        let g = Csr::from_edge_list(&el);
        for f in [bfs_top_down, bfs_bottom_up, bfs_direction_optimizing] {
            let r = f(&g, 0);
            assert_eq!(r.levels[0], 0);
            assert!((1..=50).all(|v| r.levels[v] == 1));
            assert_eq!(r.max_level(), 1);
        }
    }

    #[test]
    fn variants_agree_on_random_graphs() {
        for seed in 0..5 {
            let g = connected_undirected(300, 400, seed);
            let td = bfs_top_down(&g, 0);
            let bu = bfs_bottom_up(&g, 0);
            let d_o = bfs_direction_optimizing(&g, 0);
            assert_eq!(td.levels, bu.levels, "seed {seed}");
            assert_eq!(td.levels, d_o.levels, "seed {seed}");
            for r in [&td, &bu, &d_o] {
                validate_bfs(&g, 0, r).unwrap();
            }
        }
    }

    #[test]
    fn path_reconstruction() {
        let g = path_graph(4);
        let r = bfs_direction_optimizing(&g, 0);
        let p = path_from_parents(&r.parents, 0, 3).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3]);
        assert_eq!(path_from_parents(&r.parents, 0, 0).unwrap(), vec![0]);
    }

    #[test]
    fn path_unreachable_is_none() {
        let g = Csr::from_edge_list(&EdgeList::new(3));
        let r = bfs_direction_optimizing(&g, 0);
        assert!(path_from_parents(&r.parents, 0, 2).is_none());
        assert!(path_from_parents(&r.parents, 0, 3).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_bfs_variants_equal_levels(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 0..150),
            source in 0u32..30,
        ) {
            let mut el = EdgeList::from_edges(30, edges);
            el.remove_self_loops();
            el.symmetrize();
            el.sort_dedup();
            let g = Csr::from_edge_list(&el);
            let td = bfs_top_down(&g, source);
            let bu = bfs_bottom_up(&g, source);
            let d_o = bfs_direction_optimizing(&g, source);
            prop_assert_eq!(&td.levels, &bu.levels);
            prop_assert_eq!(&td.levels, &d_o.levels);
            validate_bfs(&g, source, &td).map_err(TestCaseError::fail)?;
            validate_bfs(&g, source, &bu).map_err(TestCaseError::fail)?;
            validate_bfs(&g, source, &d_o).map_err(TestCaseError::fail)?;
        }
    }
}
