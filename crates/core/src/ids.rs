//! Typed index domains: compile-time ID-space safety for every
//! representation.
//!
//! NWHy's representations deliberately juggle several ID spaces. The
//! bi-adjacency keeps hyperedges and hypernodes in two index sets
//! (§III-B.1); the adjoin graph concatenates them into one shared set —
//! hyperedges keep `[0, n_e)`, hypernodes shift to `[n_e, n_e + n_v)`
//! (§III-B.2); degree relabeling permutes the hyperedge space into a
//! *local* working space (§III-D). Modeling all of them as one
//! `pub type Id = u32` lets a hypernode ID flow silently into a slot
//! that expects an adjoin ID. This module makes that confusion
//! unrepresentable:
//!
//! ```text
//!   HyperedgeId  ──[AdjoinId::from_edge]──────────►  AdjoinId
//!   HypernodeId  ──[AdjoinId::from_node(v, ne)]───►  AdjoinId  (shift +ne)
//!   AdjoinId     ──[adjoin_to_node(a, ne)]────────►  HypernodeId (shift −ne)
//!   AdjoinId     ──[adjoin_to_edge(a, ne)]────────►  HyperedgeId (identity)
//!   HyperedgeId  ──[Relabeling::to_local]─────────►  LocalId
//!   LocalId      ──[Relabeling::to_global]────────►  HyperedgeId
//! ```
//!
//! Each domain is a `#[repr(transparent)]` wrapper over the storage word
//! [`Id`]; crossing domains *must* go through the conversion functions
//! above — they are the only place in the workspace where the `± n_e`
//! offset arithmetic may appear (`cargo xtask lint` denies it anywhere
//! else). Bulk storage (CSR offset/index arrays, neighbor slices) stays
//! `&[Id]`: the workspace forbids `unsafe`, so there is no transmuting a
//! `&[Id]` into a `&[HyperedgeId]` — instead the raw word is lifted into
//! a domain exactly at the point where code starts treating it as an ID,
//! via `XxxId::new` /
//! [`HyperAdjacency::global_edge`](crate::repr::HyperAdjacency::global_edge).
//!
//! The deliberately-boring casts `Id ↔ usize` (loop counters, slice
//! indexing) are funneled through [`from_usize`]/[`to_usize`] and the
//! per-domain `idx()` accessors so every remaining `as` cast in the ID
//! modules is audited here.

use crate::Id;

/// The overlap weight carried by weighted s-line edges: `|e ∩ f|`. An
/// ordinary count, *not* an ID — kept distinct so weighted triples
/// `(Id, Id, Overlap)` don't read as three IDs.
pub type Overlap = u32;

/// Lifts a `usize` index into the `Id` storage word.
///
/// # Panics
/// Panics (in debug builds) if `n` does not fit in the 32-bit ID space.
#[inline]
#[must_use]
// lint: this IS the audited Id↔usize funnel — the one sanctioned narrowing
#[allow(clippy::cast_possible_truncation)]
pub fn from_usize(n: usize) -> Id {
    debug_assert!(n <= u32::MAX as usize, "index {n} overflows the Id space"); // lint: audited Id↔usize funnel
    n as Id // lint: audited Id↔usize funnel
}

/// Widens an `Id` storage word into a `usize` index.
#[inline]
#[must_use]
pub const fn to_usize(i: Id) -> usize {
    i as usize // lint: audited Id↔usize funnel
}

macro_rules! id_domain {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(transparent)]
        pub struct $name(Id);

        impl $name {
            /// Wraps a raw storage word as an ID of this domain. The
            /// caller asserts the word really belongs to the domain —
            /// this is the typed analogue of reading an `Id` out of a
            /// CSR slice.
            #[inline]
            #[must_use]
            pub const fn new(raw: Id) -> Self {
                Self(raw)
            }

            /// Lifts a `usize` loop index into this domain.
            ///
            /// # Panics
            /// Panics (in debug builds) on 32-bit overflow.
            #[inline]
            #[must_use]
            pub fn from_index(i: usize) -> Self {
                Self(from_usize(i))
            }

            /// The raw storage word (for writing into `Id` storage).
            #[inline]
            #[must_use]
            pub const fn raw(self) -> Id {
                self.0
            }

            /// The whitelisted slice-index accessor.
            #[inline]
            #[must_use]
            pub const fn idx(self) -> usize {
                to_usize(self.0)
            }
        }

        impl From<Id> for $name {
            #[inline]
            fn from(raw: Id) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for Id {
            #[inline]
            fn from(id: $name) -> Id {
                id.0
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_domain! {
    /// A hyperedge in the global (original) hyperedge space `[0, n_e)`.
    HyperedgeId
}

id_domain! {
    /// A hypernode in the global hypernode space `[0, n_v)`.
    HypernodeId
}

id_domain! {
    /// A vertex of the adjoin graph's single shared index set
    /// `[0, n_e + n_v)`: hyperedges first, hypernodes shifted by `n_e`.
    AdjoinId
}

id_domain! {
    /// A hyperedge in a *relabeled* (permuted) working space — what the
    /// kernels iterate under a `RelabeledView`. Meaningless outside the
    /// [`Relabeling`] that created it.
    LocalId
}

impl AdjoinId {
    /// Embeds a hyperedge into the shared index set (identity on the
    /// raw word: hyperedges keep `[0, n_e)`).
    #[inline]
    #[must_use]
    pub const fn from_edge(e: HyperedgeId) -> Self {
        Self(e.raw())
    }

    /// Embeds a hypernode into the shared index set: the single owner
    /// of the `+ n_e` offset.
    ///
    /// # Panics
    /// Panics (in debug builds) if the shifted ID overflows `u32`.
    #[inline]
    #[must_use]
    pub fn from_node(v: HypernodeId, num_hyperedges: usize) -> Self {
        Self::from_index(v.idx() + num_hyperedges)
    }

    /// `true` if this adjoin ID denotes a hyperedge (`< n_e`).
    #[inline]
    #[must_use]
    pub fn is_edge(self, num_hyperedges: usize) -> bool {
        self.idx() < num_hyperedges
    }
}

/// Recovers the hypernode from an adjoin ID in the node partition: the
/// single owner of the `- n_e` offset.
///
/// # Panics
/// Panics (in debug builds) if `a` lies in the hyperedge partition.
#[inline]
#[must_use]
pub fn adjoin_to_node(a: AdjoinId, num_hyperedges: usize) -> HypernodeId {
    debug_assert!(
        !a.is_edge(num_hyperedges),
        "adjoin ID {a} is a hyperedge, not a hypernode"
    );
    HypernodeId::from_index(a.idx() - num_hyperedges)
}

/// Recovers the hyperedge from an adjoin ID in the edge partition
/// (identity on the raw word).
///
/// # Panics
/// Panics (in debug builds) if `a` lies in the hypernode partition.
#[inline]
#[must_use]
pub fn adjoin_to_edge(a: AdjoinId, num_hyperedges: usize) -> HyperedgeId {
    debug_assert!(
        a.is_edge(num_hyperedges),
        "adjoin ID {a} is a hypernode, not a hyperedge"
    );
    HyperedgeId::new(a.raw())
}

/// A bijection between the global hyperedge space and a permuted local
/// working space: `perm[local] = global`, `inv[global] = local`. This is
/// the owned, validated form of the slice pair a
/// [`RelabeledView`](crate::repr::RelabeledView) borrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    /// `perm[local] = global`.
    perm: Vec<Id>,
    /// `inv[global] = local`.
    inv: Vec<Id>,
}

impl Relabeling {
    /// Builds a relabeling from `perm[local] = global`, computing the
    /// inverse.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    #[must_use]
    pub fn from_permutation(perm: Vec<Id>) -> Self {
        let inv = nwgraph::invert_permutation(&perm);
        Self::from_parts(perm, inv)
    }

    /// Builds a relabeling from a permutation and its precomputed
    /// inverse.
    ///
    /// # Panics
    /// Panics if the two are not inverse bijections of each other.
    #[must_use]
    pub fn from_parts(perm: Vec<Id>, inv: Vec<Id>) -> Self {
        assert_eq!(perm.len(), inv.len(), "perm/inv size mismatch");
        for (local, &global) in perm.iter().enumerate() {
            assert_eq!(
                to_usize(inv[to_usize(global)]),
                local,
                "inv is not the inverse of perm at local {local}"
            );
        }
        Self { perm, inv }
    }

    /// Number of hyperedges in the relabeled space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` for the empty relabeling.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Global → local.
    #[inline]
    #[must_use]
    pub fn to_local(&self, e: HyperedgeId) -> LocalId {
        LocalId::new(self.inv[e.idx()])
    }

    /// Local → global.
    #[inline]
    #[must_use]
    pub fn to_global(&self, l: LocalId) -> HyperedgeId {
        HyperedgeId::new(self.perm[l.idx()])
    }

    /// The raw `perm[local] = global` slice (for zero-copy views).
    #[must_use]
    pub fn perm(&self) -> &[Id] {
        &self.perm
    }

    /// The raw `inv[global] = local` slice (for zero-copy views).
    #[must_use]
    pub fn inv(&self) -> &[Id] {
        &self.inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjoin_embeddings_partition_the_shared_set() {
        let ne = 4;
        let e = HyperedgeId::new(3);
        let v = HypernodeId::new(0);
        let ae = AdjoinId::from_edge(e);
        let av = AdjoinId::from_node(v, ne);
        assert_eq!(ae.raw(), 3);
        assert_eq!(av.raw(), 4);
        assert!(ae.is_edge(ne));
        assert!(!av.is_edge(ne));
        assert_eq!(adjoin_to_edge(ae, ne), e);
        assert_eq!(adjoin_to_node(av, ne), v);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is a hyperedge")]
    fn adjoin_to_node_rejects_edge_partition() {
        let _ = adjoin_to_node(AdjoinId::new(1), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is a hypernode")]
    fn adjoin_to_edge_rejects_node_partition() {
        let _ = adjoin_to_edge(AdjoinId::new(7), 4);
    }

    #[test]
    fn relabeling_round_trips() {
        let r = Relabeling::from_permutation(vec![2, 0, 1]);
        for g in 0..3u32 {
            let e = HyperedgeId::new(g);
            assert_eq!(r.to_global(r.to_local(e)), e);
        }
        assert_eq!(r.to_local(HyperedgeId::new(2)), LocalId::new(0));
        assert_eq!(r.to_global(LocalId::new(0)), HyperedgeId::new(2));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "not the inverse")]
    fn relabeling_rejects_mismatched_inverse() {
        let _ = Relabeling::from_parts(vec![2, 0, 1], vec![0, 1, 2]);
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(HyperedgeId::new(1) < HyperedgeId::new(2));
        assert_eq!(LocalId::from_index(5).to_string(), "5");
        assert_eq!(Id::from(HypernodeId::new(9)), 9);
        assert_eq!(HyperedgeId::from(4u32).idx(), 4);
    }
}
