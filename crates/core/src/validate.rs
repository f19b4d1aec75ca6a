//! Structural invariant validation for every representation.
//!
//! Each representation in this workspace carries invariants that the
//! kernels silently rely on: CSR offsets are monotone, neighbor slices
//! are sorted (the set-intersection s-line algorithms binary-search
//! them), the two bi-adjacency CSRs of a [`Hypergraph`] are exact
//! transposes, an [`AdjoinGraph`] is bipartite across the ID-offset
//! boundary `n_e`, relabeling permutations are bijections, and s-line
//! CSRs are symmetric, self-loop-free, and weight-consistent with the
//! overlaps that produced them.
//!
//! The [`Validate`] trait makes those invariants checkable, and
//! [`InvariantViolation`] names the *first* violated one precisely
//! enough to debug a corrupted structure (which index, which IDs, what
//! was expected). Checks are wired into the builders behind
//! `debug_assertions` / the `validate` cargo feature (see
//! `debug_validate`), and exposed to users as the `nwhy check` CLI
//! subcommand.
//!
//! Validation is read-only and single-threaded by design: it runs on
//! frozen structures, so it needs no atomics and reports deterministic,
//! reproducible first-violation errors.

use crate::adjoin::AdjoinGraph;
use crate::hypergraph::Hypergraph;
use crate::ids;
use crate::repr::{DualView, HyperAdjacency, RelabeledView};
use crate::Id;
use nwgraph::algorithms::intersection::sorted_intersection_count;
use nwgraph::Csr;
use std::fmt;

/// A named, located violation of a structural invariant — the payload
/// says exactly which entry broke which rule.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// `offsets[0]` must be 0.
    OffsetsStartNonZero {
        /// The actual first offset.
        first: usize,
    },
    /// `offsets` must be nondecreasing.
    OffsetsNotMonotone {
        /// Index `i` such that `offsets[i] > offsets[i + 1]`.
        index: usize,
        /// `offsets[index]`.
        prev: usize,
        /// `offsets[index + 1]`.
        next: usize,
    },
    /// The final offset must equal the number of stored targets.
    OffsetsEndMismatch {
        /// The last offset.
        last: usize,
        /// `targets.len()`.
        num_stored: usize,
    },
    /// A weighted CSR must carry one weight per target.
    WeightsLengthMismatch {
        /// `weights.len()`.
        weights: usize,
        /// `targets.len()`.
        targets: usize,
    },
    /// Every stored target must be inside the target ID space.
    TargetOutOfBounds {
        /// Source vertex owning the bad slice entry.
        source: Id,
        /// Position within the source's neighbor slice.
        position: usize,
        /// The out-of-range target.
        target: Id,
        /// Size of the target ID space.
        num_targets: usize,
    },
    /// Neighbor slices must be sorted (nondecreasing; duplicates are a
    /// multigraph feature, not a violation).
    NeighborsUnsorted {
        /// Source vertex with the unsorted slice.
        source: Id,
        /// Position `p` with `slice[p] > slice[p + 1]`.
        position: usize,
    },
    /// Two sizes that must agree (described by `what`) do not.
    ShapeMismatch {
        /// Which pair of sizes disagrees.
        what: &'static str,
        /// First size.
        left: usize,
        /// Second size.
        right: usize,
    },
    /// An incidence present in one bi-adjacency direction is missing
    /// from the other (the CSRs are not mutual transposes).
    MutualIndexMissing {
        /// Hyperedge of the incidence.
        hyperedge: Id,
        /// Hypernode of the incidence.
        hypernode: Id,
        /// Which CSR lacks the incidence (`"nodes"` or `"edges"`).
        missing_in: &'static str,
    },
    /// An adjoin-graph edge stays within one partition (both endpoints
    /// hyperedges, or both hypernodes).
    PartitionViolated {
        /// Edge source (adjoin ID).
        vertex: Id,
        /// Edge target (adjoin ID).
        neighbor: Id,
        /// The hyperedge/hypernode boundary `n_e`.
        boundary: usize,
    },
    /// Edge `(source, target)` has no reverse `(target, source)` in a
    /// structure that must be symmetric.
    NotSymmetric {
        /// Edge source.
        source: Id,
        /// Edge target whose reverse edge is missing.
        target: Id,
    },
    /// A permutation entry falls outside `[0, len)`.
    PermutationOutOfRange {
        /// Index into the permutation array.
        index: usize,
        /// The out-of-range entry.
        value: Id,
        /// Permutation length (= ID-space size).
        len: usize,
    },
    /// `inv` is not the inverse of `perm`: `inv[perm[new]] != new`.
    /// Covers duplicates too — a non-injective `perm` always breaks the
    /// round trip for at least one `new`.
    PermutationNotInverse {
        /// The working (new) ID whose round trip failed.
        new_id: Id,
        /// `perm[new_id]`.
        old_id: Id,
        /// `inv[old_id]`, which should equal `new_id`.
        round_trip: Id,
    },
    /// An s-line graph may not contain self-loops (`|e ∩ e| ≥ s` is
    /// never an edge).
    SelfLoop {
        /// The vertex with a self-edge.
        vertex: Id,
    },
    /// An s-line edge whose actual overlap in the source hypergraph is
    /// below the threshold `s`.
    OverlapBelowThreshold {
        /// First hyperedge of the pair.
        e: Id,
        /// Second hyperedge of the pair.
        f: Id,
        /// Actual `|e ∩ f|`.
        overlap: usize,
        /// The threshold the edge claims to satisfy.
        s: usize,
    },
    /// A weighted s-line edge whose stored weight disagrees with
    /// `1 / |e ∩ f|`.
    WeightMismatch {
        /// First hyperedge of the pair.
        e: Id,
        /// Second hyperedge of the pair.
        f: Id,
        /// The stored weight.
        weight: f64,
        /// `1 / |e ∩ f|` recomputed from the hypergraph.
        expected: f64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use InvariantViolation::*;
        match self {
            OffsetsStartNonZero { first } => {
                write!(f, "offsets[0] is {first}, expected 0")
            }
            OffsetsNotMonotone { index, prev, next } => {
                write!(f, "offsets not monotone at {index}: {prev} > {next}")
            }
            OffsetsEndMismatch { last, num_stored } => write!(
                f,
                "last offset {last} != number of stored targets {num_stored}"
            ),
            WeightsLengthMismatch { weights, targets } => {
                write!(f, "weights length {weights} != targets length {targets}")
            }
            TargetOutOfBounds {
                source,
                position,
                target,
                num_targets,
            } => write!(
                f,
                "target {target} at position {position} of source {source} \
                 out of range (num_targets = {num_targets})"
            ),
            NeighborsUnsorted { source, position } => write!(
                f,
                "neighbor slice of source {source} unsorted at position {position}"
            ),
            ShapeMismatch { what, left, right } => {
                write!(f, "shape mismatch ({what}): {left} != {right}")
            }
            MutualIndexMissing {
                hyperedge,
                hypernode,
                missing_in,
            } => write!(
                f,
                "incidence ({hyperedge}, {hypernode}) missing from the \
                 {missing_in} bi-adjacency"
            ),
            PartitionViolated {
                vertex,
                neighbor,
                boundary,
            } => write!(
                f,
                "adjoin edge ({vertex}, {neighbor}) does not cross the \
                 partition boundary {boundary}"
            ),
            NotSymmetric { source, target } => write!(
                f,
                "edge ({source}, {target}) has no reverse ({target}, {source})"
            ),
            PermutationOutOfRange { index, value, len } => write!(
                f,
                "permutation entry {value} at index {index} out of range {len}"
            ),
            PermutationNotInverse {
                new_id,
                old_id,
                round_trip,
            } => write!(
                f,
                "inv[perm[{new_id}]] = inv[{old_id}] = {round_trip}, \
                 expected {new_id}: perm/inv are not inverse bijections"
            ),
            SelfLoop { vertex } => write!(f, "s-line self-loop at vertex {vertex}"),
            OverlapBelowThreshold {
                e,
                f: ff,
                overlap,
                s,
            } => write!(f, "s-line edge ({e}, {ff}) has overlap {overlap} < s = {s}"),
            WeightMismatch {
                e,
                f: ff,
                weight,
                expected,
            } => write!(
                f,
                "s-line edge ({e}, {ff}) weight {weight} != 1/overlap = {expected}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Structural self-check: `Ok(())` when every invariant of the
/// implementing representation holds, or the *first* violation found.
pub trait Validate {
    /// Checks all structural invariants, returning the first violation.
    fn validate(&self) -> Result<(), InvariantViolation>;
}

/// Runs `validate` and panics with `context` on violation — but only
/// under `debug_assertions` or the `validate` cargo feature. This is
/// the builders' wiring point: constructors establish invariants, this
/// proves it in debug/CI builds, and release builds pay nothing.
#[cfg_attr(
    not(any(debug_assertions, feature = "validate")),
    allow(unused_variables)
)]
pub(crate) fn debug_validate<T: Validate + ?Sized>(value: &T, context: &str) {
    #[cfg(any(debug_assertions, feature = "validate"))]
    if let Err(e) = value.validate() {
        panic!("{context}: invariant violation: {e}");
    }
}

impl Validate for Csr {
    /// CSR invariants: `offsets[0] == 0`, offsets nondecreasing, last
    /// offset equals `targets.len()`, weights (if any) parallel the
    /// targets, every target in `[0, num_targets)`, and every neighbor
    /// slice sorted. Duplicate targets are allowed (multigraph edges
    /// are a feature of this CSR).
    fn validate(&self) -> Result<(), InvariantViolation> {
        let offsets = self.offsets();
        let targets = self.targets();
        if offsets[0] != 0 {
            return Err(InvariantViolation::OffsetsStartNonZero { first: offsets[0] });
        }
        for (i, w) in offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err(InvariantViolation::OffsetsNotMonotone {
                    index: i,
                    prev: w[0],
                    next: w[1],
                });
            }
        }
        let last = offsets[offsets.len() - 1];
        if last != targets.len() {
            return Err(InvariantViolation::OffsetsEndMismatch {
                last,
                num_stored: targets.len(),
            });
        }
        if let Some(ws) = self.weights() {
            if ws.len() != targets.len() {
                return Err(InvariantViolation::WeightsLengthMismatch {
                    weights: ws.len(),
                    targets: targets.len(),
                });
            }
        }
        let num_targets = self.num_targets();
        for u in 0..self.num_vertices() {
            let slice = &targets[offsets[u]..offsets[u + 1]];
            for (p, &t) in slice.iter().enumerate() {
                if (t as usize) >= num_targets {
                    return Err(InvariantViolation::TargetOutOfBounds {
                        source: ids::from_usize(u),
                        position: p,
                        target: t,
                        num_targets,
                    });
                }
                if p > 0 && slice[p - 1] > t {
                    return Err(InvariantViolation::NeighborsUnsorted {
                        source: ids::from_usize(u),
                        position: p - 1,
                    });
                }
            }
        }
        Ok(())
    }
}

impl Validate for Hypergraph {
    /// Bi-adjacency invariants: both CSRs valid, their shapes mutually
    /// transposed (`edges` is `n_e × n_v`, `nodes` is `n_v × n_e`), and
    /// every incidence present in *both* directions — `v ∈ edges[e] ⇔
    /// e ∈ nodes[v]`. With matching totals, checking one direction's
    /// membership in the other suffices for set equality, but both
    /// directions are walked so the error names the missing side.
    fn validate(&self) -> Result<(), InvariantViolation> {
        self.edges().validate()?;
        self.nodes().validate()?;
        if self.edges().num_targets() != self.nodes().num_vertices() {
            return Err(InvariantViolation::ShapeMismatch {
                what: "edge CSR target space vs node CSR rows",
                left: self.edges().num_targets(),
                right: self.nodes().num_vertices(),
            });
        }
        if self.nodes().num_targets() != self.edges().num_vertices() {
            return Err(InvariantViolation::ShapeMismatch {
                what: "node CSR target space vs edge CSR rows",
                left: self.nodes().num_targets(),
                right: self.edges().num_vertices(),
            });
        }
        if self.edges().num_edges() != self.nodes().num_edges() {
            return Err(InvariantViolation::ShapeMismatch {
                what: "incidence counts of the two bi-adjacencies",
                left: self.edges().num_edges(),
                right: self.nodes().num_edges(),
            });
        }
        for e in 0..ids::from_usize(self.num_hyperedges()) {
            for &v in self.edge_members(e) {
                if self.node_memberships(v).binary_search(&e).is_err() {
                    return Err(InvariantViolation::MutualIndexMissing {
                        hyperedge: e,
                        hypernode: v,
                        missing_in: "nodes",
                    });
                }
            }
        }
        for v in 0..ids::from_usize(self.num_hypernodes()) {
            for &e in self.node_memberships(v) {
                if self.edge_members(e).binary_search(&v).is_err() {
                    return Err(InvariantViolation::MutualIndexMissing {
                        hyperedge: e,
                        hypernode: v,
                        missing_in: "edges",
                    });
                }
            }
        }
        Ok(())
    }
}

impl Validate for AdjoinGraph {
    /// Adjoin invariants: the backing CSR is valid, square over exactly
    /// `n_e + n_v` vertices, symmetric, and bipartite across the
    /// ID-offset boundary — every edge joins a hyperedge (`< n_e`) to a
    /// hypernode (`≥ n_e`).
    fn validate(&self) -> Result<(), InvariantViolation> {
        self.graph().validate()?;
        if self.graph().num_vertices() != self.num_vertices() {
            return Err(InvariantViolation::ShapeMismatch {
                what: "adjoin CSR rows vs n_e + n_v",
                left: self.graph().num_vertices(),
                right: self.num_vertices(),
            });
        }
        if self.graph().num_targets() != self.num_vertices() {
            return Err(InvariantViolation::ShapeMismatch {
                what: "adjoin CSR target space vs n_e + n_v",
                left: self.graph().num_targets(),
                right: self.num_vertices(),
            });
        }
        let boundary = self.num_hyperedges();
        for (u, nbrs) in self.graph().iter() {
            for &v in nbrs {
                if ((u as usize) < boundary) == ((v as usize) < boundary) {
                    return Err(InvariantViolation::PartitionViolated {
                        vertex: u,
                        neighbor: v,
                        boundary,
                    });
                }
                if self.graph().neighbors(v).binary_search(&u).is_err() {
                    return Err(InvariantViolation::NotSymmetric {
                        source: u,
                        target: v,
                    });
                }
            }
        }
        Ok(())
    }
}

impl Validate for DualView<'_> {
    /// The dual view adds no storage of its own — its invariants are
    /// exactly the primal hypergraph's, with the two (already mutually
    /// transposed) CSRs read in swapped roles.
    fn validate(&self) -> Result<(), InvariantViolation> {
        self.inner().validate()
    }
}

impl<A: HyperAdjacency + ?Sized> Validate for RelabeledView<'_, A> {
    /// Relabeling invariants: `perm` and `inv` are inverse bijections
    /// on `[0, n_e)`. In-range entries plus `inv[perm[new]] == new` for
    /// every `new` forces `perm` injective on equal-length arrays,
    /// hence bijective; `perm[inv[old]] == old` is checked too so a
    /// broken `inv` is reported even where `perm` round-trips.
    fn validate(&self) -> Result<(), InvariantViolation> {
        let n = self.num_hyperedges();
        let (perm, inv) = (self.perm(), self.inv());
        if perm.len() != n {
            return Err(InvariantViolation::ShapeMismatch {
                what: "perm length vs num_hyperedges",
                left: perm.len(),
                right: n,
            });
        }
        if inv.len() != n {
            return Err(InvariantViolation::ShapeMismatch {
                what: "inv length vs num_hyperedges",
                left: inv.len(),
                right: n,
            });
        }
        for (i, &old) in perm.iter().enumerate() {
            if (old as usize) >= n {
                return Err(InvariantViolation::PermutationOutOfRange {
                    index: i,
                    value: old,
                    len: n,
                });
            }
            let round_trip = inv[old as usize];
            if round_trip as usize != i {
                return Err(InvariantViolation::PermutationNotInverse {
                    new_id: ids::from_usize(i),
                    old_id: old,
                    round_trip,
                });
            }
        }
        for (i, &new) in inv.iter().enumerate() {
            if (new as usize) >= n {
                return Err(InvariantViolation::PermutationOutOfRange {
                    index: i,
                    value: new,
                    len: n,
                });
            }
        }
        Ok(())
    }
}

/// An s-line CSR paired with the representation and threshold that
/// produced it, so the output can be validated *against its source*:
/// symmetry, no self-loops, every edge's overlap at least `s`, and (for
/// weighted CSRs) stored weights equal to `1 / |e ∩ f|`.
pub struct SLineOutput<'a, A: HyperAdjacency + ?Sized> {
    /// The s-line graph over hyperedge IDs.
    pub csr: &'a Csr,
    /// The hypergraph representation the s-line graph was built from.
    pub repr: &'a A,
    /// The overlap threshold the build used.
    pub s: usize,
}

impl<A: HyperAdjacency + ?Sized> Validate for SLineOutput<'_, A> {
    fn validate(&self) -> Result<(), InvariantViolation> {
        self.csr.validate()?;
        let n_e = self.repr.num_hyperedges();
        if self.csr.num_vertices() != n_e {
            return Err(InvariantViolation::ShapeMismatch {
                what: "s-line CSR rows vs num_hyperedges",
                left: self.csr.num_vertices(),
                right: n_e,
            });
        }
        if self.csr.num_targets() != n_e {
            return Err(InvariantViolation::ShapeMismatch {
                what: "s-line CSR target space vs num_hyperedges",
                left: self.csr.num_targets(),
                right: n_e,
            });
        }
        for (e, nbrs) in self.csr.iter() {
            for &f in nbrs {
                if e == f {
                    return Err(InvariantViolation::SelfLoop { vertex: e });
                }
                if self.csr.neighbors(f).binary_search(&e).is_err() {
                    return Err(InvariantViolation::NotSymmetric {
                        source: e,
                        target: f,
                    });
                }
            }
            if self.csr.is_weighted() {
                for (f, w) in self.csr.weighted_neighbors(e) {
                    let overlap = sorted_intersection_count(
                        &self.repr.edge_neighbors(e),
                        &self.repr.edge_neighbors(f),
                    );
                    if overlap < self.s {
                        return Err(InvariantViolation::OverlapBelowThreshold {
                            e,
                            f,
                            overlap,
                            s: self.s,
                        });
                    }
                    let expected = 1.0 / overlap as f64;
                    if (w - expected).abs() > 1e-9 {
                        return Err(InvariantViolation::WeightMismatch {
                            e,
                            f,
                            weight: w,
                            expected,
                        });
                    }
                }
            } else {
                for &f in nbrs {
                    let overlap = sorted_intersection_count(
                        &self.repr.edge_neighbors(e),
                        &self.repr.edge_neighbors(f),
                    );
                    if overlap < self.s {
                        return Err(InvariantViolation::OverlapBelowThreshold {
                            e,
                            f,
                            overlap,
                            s: self.s,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_hypergraph;
    use crate::SLineBuilder;
    use nwgraph::EdgeList;

    // ---- Csr ----

    #[test]
    fn well_formed_csr_validates() {
        let el = EdgeList::from_edges(4, vec![(0, 2), (0, 1), (1, 2), (3, 0)]);
        assert_eq!(Csr::from_edge_list(&el).validate(), Ok(()));
    }

    #[test]
    fn csr_detects_nonzero_first_offset() {
        let c = Csr::from_raw_parts(2, vec![1, 1, 2], vec![0, 1], None);
        assert_eq!(
            c.validate(),
            Err(InvariantViolation::OffsetsStartNonZero { first: 1 })
        );
    }

    #[test]
    fn csr_detects_nonmonotone_offsets() {
        let c = Csr::from_raw_parts(2, vec![0, 2, 1], vec![0, 1], None);
        assert_eq!(
            c.validate(),
            Err(InvariantViolation::OffsetsNotMonotone {
                index: 1,
                prev: 2,
                next: 1,
            })
        );
    }

    #[test]
    fn csr_detects_end_mismatch() {
        let c = Csr::from_raw_parts(2, vec![0, 1, 3], vec![0, 1], None);
        assert_eq!(
            c.validate(),
            Err(InvariantViolation::OffsetsEndMismatch {
                last: 3,
                num_stored: 2,
            })
        );
    }

    #[test]
    fn csr_detects_out_of_bounds_target() {
        let c = Csr::from_raw_parts(3, vec![0, 2], vec![1, 7], None);
        assert_eq!(
            c.validate(),
            Err(InvariantViolation::TargetOutOfBounds {
                source: 0,
                position: 1,
                target: 7,
                num_targets: 3,
            })
        );
    }

    #[test]
    fn csr_detects_unsorted_neighbors() {
        let c = Csr::from_raw_parts(3, vec![0, 3], vec![0, 2, 1], None);
        assert_eq!(
            c.validate(),
            Err(InvariantViolation::NeighborsUnsorted {
                source: 0,
                position: 1,
            })
        );
    }

    #[test]
    fn csr_detects_weight_length_mismatch() {
        let c = Csr::from_raw_parts(3, vec![0, 2], vec![0, 1], Some(vec![1.0]));
        assert_eq!(
            c.validate(),
            Err(InvariantViolation::WeightsLengthMismatch {
                weights: 1,
                targets: 2,
            })
        );
    }

    #[test]
    fn csr_duplicate_targets_are_not_a_violation() {
        let c = Csr::from_raw_parts(2, vec![0, 2], vec![1, 1], None);
        assert_eq!(c.validate(), Ok(()));
    }

    // ---- Hypergraph ----

    #[test]
    fn well_formed_hypergraph_validates() {
        assert_eq!(paper_hypergraph().validate(), Ok(()));
    }

    #[test]
    fn hypergraph_detects_broken_mutual_index() {
        let h = paper_hypergraph();
        // Drop one incidence from the node side only: edges says 1 ∈ e0,
        // nodes no longer lists e0 for hypernode 1.
        let nodes = h.nodes();
        let mut offsets = nodes.offsets().to_vec();
        let mut targets = nodes.targets().to_vec();
        // hypernode 1's slice is [0]; remove it
        let lo = offsets[1];
        targets.remove(lo);
        for o in offsets.iter_mut().skip(2) {
            *o -= 1;
        }
        let corrupt_nodes = Csr::from_raw_parts(nodes.num_targets(), offsets, targets, None);
        let corrupt = Hypergraph::from_raw_parts(h.edges().clone(), corrupt_nodes);
        assert_eq!(
            corrupt.validate(),
            Err(InvariantViolation::ShapeMismatch {
                what: "incidence counts of the two bi-adjacencies",
                left: 18,
                right: 17,
            })
        );
    }

    #[test]
    fn hypergraph_detects_swapped_incidence() {
        let h = paper_hypergraph();
        // Same incidence count, wrong membership: rebuild the node CSR
        // from perturbed pairs (hypernode 1 claims e1 instead of e0).
        let mut pairs: Vec<(Id, Id)> = Vec::new();
        for v in 0..ids::from_usize(h.num_hypernodes()) {
            for &e in h.node_memberships(v) {
                pairs.push((v, if v == 1 { 1 } else { e }));
            }
        }
        let corrupt_nodes = Csr::from_pairs(h.num_hypernodes(), h.num_hyperedges(), &pairs, None);
        let corrupt = Hypergraph::from_raw_parts(h.edges().clone(), corrupt_nodes);
        assert_eq!(
            corrupt.validate(),
            Err(InvariantViolation::MutualIndexMissing {
                hyperedge: 0,
                hypernode: 1,
                missing_in: "nodes",
            })
        );
    }

    #[test]
    fn hypergraph_detects_shape_mismatch() {
        let h = paper_hypergraph();
        // node CSR claims a 5-hyperedge target space; edges has 4 rows
        let nodes = Csr::from_raw_parts(
            5,
            h.nodes().offsets().to_vec(),
            h.nodes().targets().to_vec(),
            None,
        );
        let corrupt = Hypergraph::from_raw_parts(h.edges().clone(), nodes);
        assert_eq!(
            corrupt.validate(),
            Err(InvariantViolation::ShapeMismatch {
                what: "node CSR target space vs edge CSR rows",
                left: 5,
                right: 4,
            })
        );
    }

    // ---- AdjoinGraph ----

    #[test]
    fn well_formed_adjoin_validates() {
        let a = AdjoinGraph::from_hypergraph(&paper_hypergraph());
        assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn adjoin_detects_partition_violation() {
        // edge (0, 1) joins two hyperedges — illegal in an adjoin graph
        let mut el = EdgeList::from_edges(4, vec![(0, 1), (0, 2), (1, 3)]);
        el.symmetrize();
        let graph = Csr::from_edge_list(&el);
        let a = AdjoinGraph::from_raw_parts(graph, 2, 2);
        assert_eq!(
            a.validate(),
            Err(InvariantViolation::PartitionViolated {
                vertex: 0,
                neighbor: 1,
                boundary: 2,
            })
        );
    }

    #[test]
    fn adjoin_detects_asymmetry() {
        // (0, 2) present, (2, 0) missing
        let el = EdgeList::from_edges(4, vec![(0, 2), (1, 3), (3, 1)]);
        let graph = Csr::from_edge_list(&el);
        let a = AdjoinGraph::from_raw_parts(graph, 2, 2);
        assert_eq!(
            a.validate(),
            Err(InvariantViolation::NotSymmetric {
                source: 0,
                target: 2,
            })
        );
    }

    #[test]
    fn adjoin_detects_wrong_vertex_count() {
        let a = AdjoinGraph::from_hypergraph(&paper_hypergraph());
        let corrupt = AdjoinGraph::from_raw_parts(
            a.graph().clone(),
            a.num_hyperedges(),
            a.num_hypernodes() + 1,
        );
        assert_eq!(
            corrupt.validate(),
            Err(InvariantViolation::ShapeMismatch {
                what: "adjoin CSR rows vs n_e + n_v",
                left: 13,
                right: 14,
            })
        );
    }

    // ---- DualView ----

    #[test]
    fn dual_view_delegates_to_inner() {
        let h = paper_hypergraph();
        assert_eq!(DualView::new(&h).validate(), Ok(()));

        let corrupt = Hypergraph::from_raw_parts(
            h.edges().clone(),
            Csr::from_raw_parts(
                5,
                h.nodes().offsets().to_vec(),
                h.nodes().targets().to_vec(),
                None,
            ),
        );
        assert!(matches!(
            DualView::new(&corrupt).validate(),
            Err(InvariantViolation::ShapeMismatch { .. })
        ));
    }

    // ---- RelabeledView ----

    #[test]
    fn relabeled_view_accepts_valid_permutation() {
        let h = paper_hypergraph();
        let perm: Vec<Id> = vec![3, 2, 1, 0];
        let inv: Vec<Id> = vec![3, 2, 1, 0];
        assert_eq!(RelabeledView::new(&h, &perm, &inv).validate(), Ok(()));
    }

    #[test]
    fn relabeled_view_detects_duplicate_perm_entry() {
        let h = paper_hypergraph();
        // perm maps both new 0 and new 1 to old 2 — not injective
        let perm: Vec<Id> = vec![2, 2, 1, 0];
        let inv: Vec<Id> = vec![3, 2, 0, 0];
        assert_eq!(
            RelabeledView::new(&h, &perm, &inv).validate(),
            Err(InvariantViolation::PermutationNotInverse {
                new_id: 1,
                old_id: 2,
                round_trip: 0,
            })
        );
    }

    #[test]
    fn relabeled_view_detects_out_of_range_perm() {
        let h = paper_hypergraph();
        let perm: Vec<Id> = vec![0, 1, 2, 9];
        let inv: Vec<Id> = vec![0, 1, 2, 3];
        assert_eq!(
            RelabeledView::new(&h, &perm, &inv).validate(),
            Err(InvariantViolation::PermutationOutOfRange {
                index: 3,
                value: 9,
                len: 4,
            })
        );
    }

    #[test]
    fn relabeled_view_detects_broken_inverse() {
        let h = paper_hypergraph();
        let perm: Vec<Id> = vec![0, 1, 2, 3];
        let inv: Vec<Id> = vec![0, 1, 3, 2]; // disagrees with identity perm
        assert_eq!(
            RelabeledView::new(&h, &perm, &inv).validate(),
            Err(InvariantViolation::PermutationNotInverse {
                new_id: 2,
                old_id: 2,
                round_trip: 3,
            })
        );
    }

    // ---- SLineOutput ----

    #[test]
    fn built_slinegraphs_validate() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            let plain = SLineBuilder::new(&h).s(s).csr();
            assert_eq!(
                SLineOutput {
                    csr: &plain,
                    repr: &h,
                    s
                }
                .validate(),
                Ok(()),
                "plain s={s}"
            );
            let weighted = SLineBuilder::new(&h).s(s).weighted_csr();
            assert_eq!(
                SLineOutput {
                    csr: &weighted,
                    repr: &h,
                    s
                }
                .validate(),
                Ok(()),
                "weighted s={s}"
            );
        }
    }

    #[test]
    fn sline_detects_self_loop() {
        let h = paper_hypergraph();
        let csr = Csr::from_raw_parts(4, vec![0, 1, 1, 1, 1], vec![0], None);
        assert_eq!(
            SLineOutput {
                csr: &csr,
                repr: &h,
                s: 1
            }
            .validate(),
            Err(InvariantViolation::SelfLoop { vertex: 0 })
        );
    }

    #[test]
    fn sline_detects_asymmetry() {
        let h = paper_hypergraph();
        // (0, 1) without (1, 0)
        let csr = Csr::from_raw_parts(4, vec![0, 1, 1, 1, 1], vec![1], None);
        assert_eq!(
            SLineOutput {
                csr: &csr,
                repr: &h,
                s: 1
            }
            .validate(),
            Err(InvariantViolation::NotSymmetric {
                source: 0,
                target: 1,
            })
        );
    }

    #[test]
    fn sline_detects_overlap_below_threshold() {
        let h = paper_hypergraph();
        // e0 ∩ e1 = {3}: a 1-overlap pair claimed at s = 2
        let csr = Csr::from_raw_parts(4, vec![0, 1, 2, 2, 2], vec![1, 0], None);
        assert_eq!(
            SLineOutput {
                csr: &csr,
                repr: &h,
                s: 2
            }
            .validate(),
            Err(InvariantViolation::OverlapBelowThreshold {
                e: 0,
                f: 1,
                overlap: 1,
                s: 2,
            })
        );
    }

    #[test]
    fn sline_detects_wrong_weight() {
        let h = paper_hypergraph();
        // e0 ∩ e1 = {3}, so the weight must be 1.0, not 0.5
        let csr = Csr::from_raw_parts(4, vec![0, 1, 2, 2, 2], vec![1, 0], Some(vec![0.5, 0.5]));
        let got = SLineOutput {
            csr: &csr,
            repr: &h,
            s: 1,
        }
        .validate();
        assert_eq!(
            got,
            Err(InvariantViolation::WeightMismatch {
                e: 0,
                f: 1,
                weight: 0.5,
                expected: 1.0,
            })
        );
    }

    #[test]
    fn violations_display_their_location() {
        let v = InvariantViolation::TargetOutOfBounds {
            source: 3,
            position: 1,
            target: 9,
            num_targets: 5,
        };
        let msg = v.to_string();
        assert!(
            msg.contains('3') && msg.contains('9') && msg.contains('5'),
            "{msg}"
        );
    }

    #[test]
    fn sorted_intersection_size_counts_matches() {
        assert_eq!(sorted_intersection_count(&[0, 2, 4], &[1, 2, 4, 5]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1]), 0);
    }
}
