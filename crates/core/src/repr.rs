//! Representation abstraction for s-line construction: the
//! [`HyperAdjacency`] trait and its zero-copy adapter views.
//!
//! Every s-line algorithm needs exactly one structural capability — the
//! bipartite indirection *hyperedge → incident hypernodes → incident
//! hyperedges*. This module captures that capability as a trait so one
//! generic implementation of each algorithm runs unchanged on:
//!
//! - the bi-adjacency [`Hypergraph`] (two mutually indexed index sets,
//!   §III-B.1);
//! - the [`AdjoinGraph`] (one shared index set with hypernodes shifted by
//!   `n_e`, §III-B.2);
//! - [`DualView`] — the dual hypergraph `H*` without materializing it
//!   (hyperedges and hypernodes swap roles by swapping the two CSR
//!   accessors);
//! - [`RelabeledView`] — a degree-permuted hyperedge ID space layered
//!   over any other representation, without rebuilding a single CSR.
//!
//! Two ID spaces are in play and the trait keeps them straight:
//!
//! - the **working hyperedge space** `[0, n_e)` — what callers iterate
//!   and what results are expressed in;
//! - the **raw ID space** — whatever the underlying storage happens to
//!   put in `node_neighbors` slices (shifted for adjoin graphs is *not*
//!   an example — adjoin hyperedges already live in `[0, n_e)`; permuted
//!   IDs under [`RelabeledView`] are). [`HyperAdjacency::edge_id`]
//!   translates raw → working and is the identity for every direct
//!   representation, so the translation costs nothing unless a view
//!   actually needs it.

use crate::adjoin::AdjoinGraph;
use crate::hypergraph::Hypergraph;
use crate::ids::{self, AdjoinId, HyperedgeId, HypernodeId};
use crate::Id;

/// The bipartite indirection every s-line construction needs: hyperedge →
/// incident hypernodes → incident hyperedges. Implemented by both the
/// bi-adjacency [`Hypergraph`] (two index sets) and the [`AdjoinGraph`]
/// (one shared index set) — exactly the versatility the paper's
/// queue-based algorithms are designed for — plus the zero-copy
/// [`DualView`] and [`RelabeledView`] adapters.
pub trait HyperAdjacency: Sync {
    /// The neighbor-list handle: anything that derefs to a sorted
    /// `[Id]` slice. In-memory representations use `&'a [Id]` (zero
    /// cost — the borrow points straight into the CSR); the compressed
    /// backend (`nwhy-store`) returns a `Cow<'a, [Id]>`: borrowed from a
    /// side it has decoded into memory once, else an owned buffer
    /// holding the one row just decoded. That is what lets a gap-coded
    /// on-disk row satisfy the same bound without materializing the
    /// whole structure.
    ///
    /// Generic code treats the handle as a slice: bind it (`let nbrs =
    /// h.edge_neighbors(e);`), then index/iterate through deref
    /// (`nbrs.len()`, `nbrs.iter()`, `&nbrs[1..]`, `&*nbrs`).
    /// `Send` so a parallel kernel can keep a decoded row cached inside
    /// its per-worker fold state (queue-intersection phase 2 reuses the
    /// row across consecutive pairs sharing `e_i`).
    type Neighbors<'a>: std::ops::Deref<Target = [Id]> + Send
    where
        Self: 'a;

    /// Number of hyperedges. Working hyperedge IDs are `[0, n_e)`.
    fn num_hyperedges(&self) -> usize;

    /// Number of hypernodes. Hypernode *indices* are `[0, n_v)`; the
    /// representation-defined hypernode ID for index `i` is
    /// [`HyperAdjacency::node_id`]`(i)`.
    fn num_hypernodes(&self) -> usize;

    /// Hypernodes incident to hyperedge `e` (working ID), sorted. The
    /// hypernode ID space is representation-defined (shifted for adjoin
    /// graphs) but consistent with [`HyperAdjacency::node_neighbors`].
    fn edge_neighbors(&self, e: Id) -> Self::Neighbors<'_>;

    /// Hyperedges incident to hypernode `v` (in the same hypernode ID
    /// space as [`HyperAdjacency::edge_neighbors`]), sorted. Entries are
    /// *raw* hyperedge IDs — pass each through
    /// [`HyperAdjacency::edge_id`] before comparing with working IDs.
    fn node_neighbors(&self, v: Id) -> Self::Neighbors<'_>;

    /// Size of hyperedge `e` (working ID).
    #[inline]
    fn edge_degree(&self, e: Id) -> usize {
        self.edge_neighbors(e).len()
    }

    /// Number of hyperedges containing hypernode `v` (hypernode ID
    /// space).
    #[inline]
    fn node_degree(&self, v: Id) -> usize {
        self.node_neighbors(v).len()
    }

    /// Translates a raw hyperedge ID (as stored in
    /// [`HyperAdjacency::node_neighbors`] slices) into the working
    /// hyperedge ID space. Identity for direct representations;
    /// [`RelabeledView`] maps old → new here.
    #[inline]
    fn edge_id(&self, raw: Id) -> Id {
        raw
    }

    /// The hypernode ID for hypernode index `idx ∈ [0, n_v)` — what to
    /// feed [`HyperAdjacency::node_neighbors`] when iterating all
    /// hypernodes. Identity for bi-adjacencies; adjoin graphs shift by
    /// `n_e`.
    #[inline]
    fn node_id(&self, idx: usize) -> Id {
        ids::from_usize(idx)
    }

    /// Inverse of [`HyperAdjacency::node_id`]: the dense hypernode index
    /// `[0, n_v)` of a representation-defined hypernode handle (an entry
    /// of an [`HyperAdjacency::edge_neighbors`] slice). Identity for
    /// bi-adjacencies; adjoin graphs subtract `n_e`. What the generic
    /// traversal algorithms use to index per-hypernode state.
    #[inline]
    fn node_index(&self, handle: Id) -> usize {
        ids::to_usize(handle)
    }

    // ---- domain-typed methods -------------------------------------
    //
    // The methods above are the *raw storage layer*: they speak the
    // representation's working ID space in bare `Id` words, which is
    // what the kernels iterate. The methods below speak the typed
    // global domains of `crate::ids` and do any working↔global
    // translation internally, so callers above the kernel layer never
    // touch a raw word. (For `DualView` the "hyperedge" domain is the
    // view's own — i.e. the primal's hypernodes.)

    /// Lifts a raw stored hyperedge word (from a
    /// [`HyperAdjacency::node_neighbors`] slice) into the global
    /// hyperedge domain.
    #[inline]
    fn global_edge(&self, raw: Id) -> HyperedgeId {
        HyperedgeId::new(self.edge_id(raw))
    }

    /// Lowers a global hyperedge into this representation's working ID
    /// space (what [`HyperAdjacency::edge_neighbors`] expects).
    #[inline]
    fn working_edge(&self, e: HyperedgeId) -> Id {
        e.raw()
    }

    /// Degree of a global-domain hyperedge.
    #[inline]
    fn degree_of(&self, e: HyperedgeId) -> usize {
        let w = self.working_edge(e);
        self.edge_degree(w)
    }

    /// The representation-defined handle of a global-domain hypernode
    /// (what [`HyperAdjacency::node_neighbors`] expects); adjoin graphs
    /// embed into the shared index set here.
    #[inline]
    fn node_handle(&self, v: HypernodeId) -> Id {
        v.raw()
    }

    /// Degree (number of incident hyperedges) of a global-domain
    /// hypernode.
    #[inline]
    fn node_degree_of(&self, v: HypernodeId) -> usize {
        let h = self.node_handle(v);
        self.node_degree(h)
    }
}

impl HyperAdjacency for Hypergraph {
    type Neighbors<'a>
        = &'a [Id]
    where
        Self: 'a;

    #[inline]
    fn num_hyperedges(&self) -> usize {
        Hypergraph::num_hyperedges(self)
    }
    #[inline]
    fn num_hypernodes(&self) -> usize {
        Hypergraph::num_hypernodes(self)
    }
    #[inline]
    fn edge_neighbors(&self, e: Id) -> &[Id] {
        self.edge_members(e)
    }
    #[inline]
    fn node_neighbors(&self, v: Id) -> &[Id] {
        self.node_memberships(v)
    }
    #[inline]
    fn edge_degree(&self, e: Id) -> usize {
        Hypergraph::edge_degree(self, e)
    }
    #[inline]
    fn node_degree(&self, v: Id) -> usize {
        Hypergraph::node_degree(self, v)
    }
}

impl HyperAdjacency for AdjoinGraph {
    type Neighbors<'a>
        = &'a [Id]
    where
        Self: 'a;

    #[inline]
    fn num_hyperedges(&self) -> usize {
        AdjoinGraph::num_hyperedges(self)
    }
    #[inline]
    fn num_hypernodes(&self) -> usize {
        AdjoinGraph::num_hypernodes(self)
    }
    #[inline]
    fn edge_neighbors(&self, e: Id) -> &[Id] {
        self.graph().neighbors(e)
    }
    #[inline]
    fn node_neighbors(&self, v: Id) -> &[Id] {
        self.graph().neighbors(v)
    }
    /// Hypernodes share the index set with hyperedges: the embedding is
    /// owned by [`AdjoinId::from_node`].
    #[inline]
    fn node_id(&self, idx: usize) -> Id {
        AdjoinId::from_node(
            HypernodeId::from_index(idx),
            AdjoinGraph::num_hyperedges(self),
        )
        .raw()
    }

    /// Un-embeds a shared-index-set handle back to a dense hypernode
    /// index.
    #[inline]
    fn node_index(&self, handle: Id) -> usize {
        ids::to_usize(handle) - AdjoinGraph::num_hyperedges(self)
    }

    #[inline]
    fn node_handle(&self, v: HypernodeId) -> Id {
        self.hypernode_id(v).raw()
    }
}

/// The dual hypergraph `H*` as a zero-copy view: hyperedges and
/// hypernodes swap roles by swapping the two bi-adjacency accessors
/// (§II-C). Unlike [`Hypergraph::dual`], nothing is cloned.
///
/// # Examples
///
/// ```
/// use nwhy_core::repr::{DualView, HyperAdjacency};
/// use nwhy_core::Hypergraph;
///
/// let h = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2]]);
/// let d = DualView::new(&h);
/// assert_eq!(d.num_hyperedges(), 3); // hypernodes of h
/// assert_eq!(d.edge_neighbors(1), &[0, 1]); // node 1 ∈ e0, e1
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DualView<'a> {
    inner: &'a Hypergraph,
}

impl<'a> DualView<'a> {
    /// Wraps `h` as its dual.
    pub fn new(inner: &'a Hypergraph) -> Self {
        Self { inner }
    }

    /// The underlying (primal) hypergraph.
    pub fn inner(&self) -> &'a Hypergraph {
        self.inner
    }
}

impl HyperAdjacency for DualView<'_> {
    type Neighbors<'b>
        = &'b [Id]
    where
        Self: 'b;

    #[inline]
    fn num_hyperedges(&self) -> usize {
        self.inner.num_hypernodes()
    }
    #[inline]
    fn num_hypernodes(&self) -> usize {
        self.inner.num_hyperedges()
    }
    #[inline]
    fn edge_neighbors(&self, e: Id) -> &[Id] {
        self.inner.node_memberships(e)
    }
    #[inline]
    fn node_neighbors(&self, v: Id) -> &[Id] {
        self.inner.edge_members(v)
    }
    #[inline]
    fn edge_degree(&self, e: Id) -> usize {
        self.inner.node_degree(e)
    }
    #[inline]
    fn node_degree(&self, v: Id) -> usize {
        self.inner.edge_degree(v)
    }
}

/// A degree-relabeled hyperedge ID space layered over any representation
/// — zero-copy: no CSR is rebuilt, no membership list is cloned.
///
/// `perm[new] = old` maps working (relabeled) IDs to the inner
/// representation's IDs; `inv[old] = new` is its inverse. Edge
/// neighborhoods are fetched through `perm`; raw hyperedge IDs coming
/// back out of `node_neighbors` slices are translated through `inv` by
/// [`HyperAdjacency::edge_id`]. Hypernode IDs are untouched.
///
/// This is what makes degree relabeling (§III-B.2 / the Fig. 9
/// "relabel asc/desc" sweep) a view rather than a reconstruction: the
/// old path rebuilt the whole bi-adjacency through a `BiEdgeList`.
///
/// # Examples
///
/// ```
/// use nwhy_core::repr::{HyperAdjacency, RelabeledView};
/// use nwhy_core::Hypergraph;
///
/// let h = Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![0, 1, 2]]);
/// // descending by degree: new 0 = old 2, new 1 = old 1, new 2 = old 0
/// let perm = vec![2, 1, 0];
/// let inv = vec![2, 1, 0];
/// let v = RelabeledView::new(&h, &perm, &inv);
/// assert_eq!(v.edge_neighbors(0), &[0, 1, 2]); // old hyperedge 2
/// assert_eq!(v.edge_id(2), 0); // raw (old) 2 is working (new) 0
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RelabeledView<'a, A: ?Sized> {
    inner: &'a A,
    /// `perm[new] = old`.
    perm: &'a [Id],
    /// `inv[old] = new`.
    inv: &'a [Id],
}

impl<'a, A: HyperAdjacency + ?Sized> RelabeledView<'a, A> {
    /// Wraps `inner` with the hyperedge permutation `perm` (new → old)
    /// and its inverse `inv` (old → new).
    ///
    /// # Panics
    /// Panics if either slice's length differs from
    /// `inner.num_hyperedges()`.
    pub fn new(inner: &'a A, perm: &'a [Id], inv: &'a [Id]) -> Self {
        assert_eq!(perm.len(), inner.num_hyperedges(), "perm size mismatch");
        assert_eq!(inv.len(), perm.len(), "inv size mismatch");
        Self { inner, perm, inv }
    }

    /// Wraps `inner` with an owned, pre-validated
    /// [`Relabeling`](crate::ids::Relabeling)
    /// (zero-copy: the view borrows the relabeling's slices).
    ///
    /// # Panics
    /// Panics if the relabeling's length differs from
    /// `inner.num_hyperedges()`.
    pub fn from_relabeling(inner: &'a A, relabeling: &'a crate::ids::Relabeling) -> Self {
        Self::new(inner, relabeling.perm(), relabeling.inv())
    }

    /// The permutation `perm[new] = old`.
    pub fn perm(&self) -> &'a [Id] {
        self.perm
    }

    /// The inverse permutation `inv[old] = new`.
    pub fn inv(&self) -> &'a [Id] {
        self.inv
    }
}

impl<A: HyperAdjacency + ?Sized> HyperAdjacency for RelabeledView<'_, A> {
    /// Forwards the inner representation's handle type: relabeling is a
    /// pure ID permutation, so whatever the inner backend hands out
    /// (borrowed slice or decode buffer) passes through untouched.
    type Neighbors<'b>
        = A::Neighbors<'b>
    where
        Self: 'b;

    #[inline]
    fn num_hyperedges(&self) -> usize {
        self.inner.num_hyperedges()
    }
    #[inline]
    fn num_hypernodes(&self) -> usize {
        self.inner.num_hypernodes()
    }
    #[inline]
    fn edge_neighbors(&self, e: Id) -> A::Neighbors<'_> {
        self.inner.edge_neighbors(self.perm[ids::to_usize(e)])
    }
    #[inline]
    fn node_neighbors(&self, v: Id) -> A::Neighbors<'_> {
        self.inner.node_neighbors(v)
    }
    #[inline]
    fn edge_degree(&self, e: Id) -> usize {
        self.inner.edge_degree(self.perm[ids::to_usize(e)])
    }
    #[inline]
    fn node_degree(&self, v: Id) -> usize {
        self.inner.node_degree(v)
    }
    #[inline]
    fn edge_id(&self, raw: Id) -> Id {
        self.inv[ids::to_usize(self.inner.edge_id(raw))]
    }
    #[inline]
    fn node_id(&self, idx: usize) -> Id {
        self.inner.node_id(idx)
    }
    #[inline]
    fn node_index(&self, handle: Id) -> usize {
        self.inner.node_index(handle)
    }
    /// Raw words name *inner* hyperedges; the global domain is the
    /// inner representation's, unaffected by this view's permutation.
    #[inline]
    fn global_edge(&self, raw: Id) -> HyperedgeId {
        self.inner.global_edge(raw)
    }
    /// Global → inner working → this view's permuted working space.
    #[inline]
    fn working_edge(&self, e: HyperedgeId) -> Id {
        self.inv[ids::to_usize(self.inner.working_edge(e))]
    }
    #[inline]
    fn node_handle(&self, v: HypernodeId) -> Id {
        self.inner.node_handle(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_hypergraph;

    /// Every representation must expose the same logical incidence
    /// structure; compare through the trait only.
    fn incidence_set<A: HyperAdjacency + ?Sized>(a: &A) -> Vec<(Id, Id)> {
        let mut out = Vec::new();
        for e in 0..ids::from_usize(a.num_hyperedges()) {
            for &v in a.edge_neighbors(e).iter() {
                out.push((e, v));
            }
        }
        out
    }

    #[test]
    fn hypergraph_and_adjoin_expose_consistent_indirection() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        assert_eq!(
            HyperAdjacency::num_hyperedges(&h),
            HyperAdjacency::num_hyperedges(&a)
        );
        assert_eq!(
            HyperAdjacency::num_hypernodes(&h),
            HyperAdjacency::num_hypernodes(&a)
        );
        // adjoin hypernode IDs are shifted, but the round trip through
        // node_id + node_neighbors + edge_id reaches the same hyperedges
        for idx in 0..HyperAdjacency::num_hypernodes(&h) {
            let via_h: Vec<Id> = h
                .node_neighbors(HyperAdjacency::node_id(&h, idx))
                .iter()
                .map(|&raw| HyperAdjacency::edge_id(&h, raw))
                .collect();
            let via_a: Vec<Id> = a
                .node_neighbors(HyperAdjacency::node_id(&a, idx))
                .iter()
                .map(|&raw| HyperAdjacency::edge_id(&a, raw))
                .collect();
            assert_eq!(via_h, via_a, "hypernode index {idx}");
        }
    }

    #[test]
    fn adjoin_node_id_shifts_by_ne() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        assert_eq!(HyperAdjacency::node_id(&a, 0), 4);
        assert_eq!(HyperAdjacency::node_id(&a, 8), 12);
        assert_eq!(HyperAdjacency::node_id(&h, 8), 8);
    }

    #[test]
    fn dual_view_matches_materialized_dual() {
        let h = paper_hypergraph();
        let d = h.dual();
        let v = DualView::new(&h);
        assert_eq!(
            incidence_set(&v),
            incidence_set(&d),
            "zero-copy dual view must equal Hypergraph::dual()"
        );
        assert_eq!(v.num_hyperedges(), d.num_hyperedges());
        assert_eq!(v.num_hypernodes(), d.num_hypernodes());
        for e in 0..ids::from_usize(v.num_hyperedges()) {
            assert_eq!(v.edge_degree(e), HyperAdjacency::edge_degree(&d, e));
        }
        for n in 0..ids::from_usize(v.num_hypernodes()) {
            assert_eq!(v.node_degree(n), HyperAdjacency::node_degree(&d, n));
        }
    }

    #[test]
    fn relabeled_view_permutes_edges_only() {
        let h = paper_hypergraph();
        // reverse the hyperedge IDs: new e = 3 - old e
        let perm: Vec<Id> = vec![3, 2, 1, 0];
        let inv: Vec<Id> = vec![3, 2, 1, 0];
        let v = RelabeledView::new(&h, &perm, &inv);
        for e in 0..4u32 {
            assert_eq!(v.edge_neighbors(e), h.edge_members(3 - e));
            assert_eq!(v.edge_degree(e), Hypergraph::edge_degree(&h, 3 - e));
        }
        // hypernode side untouched; raw hyperedge IDs translate via inv
        for n in 0..9u32 {
            let raw = v.node_neighbors(n);
            assert_eq!(raw, h.node_memberships(n));
            for &r in raw {
                assert_eq!(v.edge_id(r), 3 - r);
            }
        }
    }

    #[test]
    fn relabeled_view_stacks_on_adjoin() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        let perm: Vec<Id> = vec![1, 0, 3, 2];
        let inv: Vec<Id> = vec![1, 0, 3, 2];
        let v = RelabeledView::new(&a, &perm, &inv);
        // working edge 0 is adjoin edge 1; its neighbors are shifted nodes
        assert_eq!(v.edge_neighbors(0), a.graph().neighbors(1));
        // raw IDs from the (shifted) node side still translate correctly
        let node = HyperAdjacency::node_id(&v, 3); // hypernode 3 → adjoin 7
        assert_eq!(node, 7);
        let translated: Vec<Id> = v
            .node_neighbors(node)
            .iter()
            .map(|&r| v.edge_id(r))
            .collect();
        // hypernode 3 ∈ e0, e1, e3 (old) → {1, 0, 2} (new)
        assert_eq!(translated, vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "perm size mismatch")]
    fn relabeled_view_rejects_wrong_perm_len() {
        let h = paper_hypergraph();
        let perm: Vec<Id> = vec![0, 1];
        let inv: Vec<Id> = vec![0, 1];
        RelabeledView::new(&h, &perm, &inv);
    }
}
