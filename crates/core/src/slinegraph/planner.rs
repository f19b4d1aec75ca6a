//! The kernel planner — picks a whole s-line construction algorithm per
//! input from cheap structural features, using a cost model calibrated
//! against the `nwhy-obs` kernel counters (ROADMAP item 4b).
//!
//! # Features
//!
//! One `O(n_e + n_v)` pass over the row lengths yields:
//!
//! - `W = Σ_v C(d_v, 2)` — the candidate traversal work every
//!   indirection-based kernel performs. This is *exactly* the
//!   `sline.hashmap_insertions` counter a hashmap build reports at
//!   `s = 1` (each co-incidence of a node of degree `d` is one
//!   `overlap_count[j] += 1`), which is how the model stays calibrated:
//!   the obs-counter fixture tests pin the identity.
//! - `P̂ = min(W, C(n_e, 2))` — an upper bound on the *distinct*
//!   candidate pairs that survive stamp dedup (the
//!   `sline.pairs_examined` counter of the dedup'ing kernels).
//! - mean/max edge size and the edge-size skew `max/mean`.
//!
//! # Cost model (units ≈ one element comparison / hash op)
//!
//! ```text
//! naive         C(n_e,2) · (1 + min(2·d̄, 2s+2))     every pair, merge scan
//! hashmap       W·κ_hash + P̂                         κ_hash ≈ 4 per insertion
//! intersection  W·κ_stamp + P̂·ĉ                      κ_stamp = 1 stamp probe
//!               ĉ = min(2·d̄, 2s + d̄/8 + 4)          adaptive overlap engine
//! ```
//!
//! `ĉ` reflects the overlap engine: merge scans cost up to `2·d̄`, but
//! dense rows probe `~d̄/8` word groups and every path short-circuits
//! around `2s` — the planner credits the intersection kernel with the
//! cheaper of the two. When the edge-size skew exceeds
//! [`QUEUE_SKEW_THRESHOLD`] on a non-tiny input, the winning kernel is
//! promoted to its queue-based variant (paper Algorithms 1–2), whose
//! flat work lists rebalance the skewed rows across workers.
//!
//! The model only needs to *rank* kernels, not predict wall-clock; ties
//! are broken toward the counting kernel (the paper's all-round
//! default). [`plan`] bumps the `planner.kernel_chosen` counter so
//! `--kernel auto` runs are visible in `BENCH_*.json`.

use super::{Algorithm, HyperAdjacency};
use crate::ids;
use nwhy_obs::Counter;

/// Cost per counting insertion, in comparison units. It was calibrated
/// against a hash-probe accumulator; the counting kernels now bump a
/// dense array, which is cheaper. The constant is kept as it was so
/// that no kernel choice moves; recalibrating it against the dense
/// accumulator is left open.
const HASH_COST: f64 = 4.0;

/// Inputs with at most this many hyperedges may pick the naive kernel
/// (its all-pairs loop is cache-friendly and allocation-free, but only
/// competitive when `C(n_e, 2)` is trivial).
pub const NAIVE_MAX_EDGES: usize = 256;

/// Edge-size skew (`max/mean`) beyond which the winner is promoted to
/// its queue-based variant for load balance, when the input is larger
/// than [`QUEUE_MIN_EDGES`].
pub const QUEUE_SKEW_THRESHOLD: f64 = 8.0;

/// Queue promotion floor: below this many hyperedges the flat pair
/// queue's extra materialization cannot pay for itself.
pub const QUEUE_MIN_EDGES: usize = 2048;

/// Structural features of one (hypergraph, s) planning instance.
#[derive(Debug, Clone, Copy)]
pub struct InputFeatures {
    /// Hyperedge count `n_e`.
    pub num_hyperedges: usize,
    /// Hypernode count `n_v`.
    pub num_hypernodes: usize,
    /// Mean hyperedge size `d̄` (0 for an empty input).
    pub mean_edge_size: f64,
    /// Largest hyperedge size.
    pub max_edge_size: usize,
    /// `W = Σ_v C(d_v, 2)` — candidate traversal work (the hashmap
    /// kernel's insertion count at `s = 1`).
    pub candidate_work: f64,
    /// `P̂ = min(W, C(n_e, 2))` — distinct-candidate-pair bound.
    pub distinct_pairs: f64,
    /// The overlap threshold being planned for.
    pub s: usize,
}

impl InputFeatures {
    /// Edge-size skew `max/mean` (1 for uniform inputs, 0 for empty).
    pub fn edge_skew(&self) -> f64 {
        if self.mean_edge_size > 0.0 {
            self.max_edge_size as f64 / self.mean_edge_size // lint: max_edge_size is a count
        } else {
            0.0
        }
    }
}

/// One planning decision: the chosen kernel, its predicted cost, and the
/// features it was derived from.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The kernel [`plan`] selected.
    pub algorithm: Algorithm,
    /// Model cost of the selected kernel (comparison units).
    pub predicted_cost: f64,
    /// The measured features behind the decision.
    pub features: InputFeatures,
}

/// Measures the planner features in one pass over the row lengths.
pub fn measure<A: HyperAdjacency + ?Sized>(h: &A, s: usize) -> InputFeatures {
    let _span = nwhy_obs::span("sline.planner.measure");
    let ne = h.num_hyperedges();
    let nv = h.num_hypernodes();
    let mut total_size = 0usize;
    let mut max_edge_size = 0usize;
    for e in 0..ne {
        let d = h.edge_degree(ids::from_usize(e));
        total_size += d;
        max_edge_size = max_edge_size.max(d);
    }
    let mut candidate_work = 0.0f64;
    for i in 0..nv {
        let d = h.node_degree(h.node_id(i)) as f64;
        candidate_work += d * (d - 1.0) / 2.0;
    }
    let ne_f = ne as f64;
    let all_pairs = ne_f * (ne_f - 1.0) / 2.0;
    InputFeatures {
        num_hyperedges: ne,
        num_hypernodes: nv,
        mean_edge_size: if ne == 0 {
            0.0
        } else {
            total_size as f64 / ne_f // lint: count, not an ID
        },
        max_edge_size,
        candidate_work,
        distinct_pairs: candidate_work.min(all_pairs),
        s,
    }
}

/// The pure decision function: ranks the candidate kernels under the
/// cost model and applies the queue promotion. Deterministic in the
/// features alone, so it is directly unit-testable.
pub fn choose(f: &InputFeatures) -> (Algorithm, f64) {
    let ne = f.num_hyperedges as f64;
    let all_pairs = ne * (ne - 1.0) / 2.0;
    let d_mean = f.mean_edge_size;
    let s = f.s as f64;
    let merge_cost = 2.0 * d_mean;
    let adaptive_cost = merge_cost.min(2.0 * s + d_mean / 8.0 + 4.0);

    let naive = all_pairs * (1.0 + merge_cost.min(2.0 * s + 2.0));
    let hashmap = f.candidate_work * HASH_COST + f.distinct_pairs;
    let intersection = f.candidate_work + f.distinct_pairs * adaptive_cost;

    // ties break toward the counting kernel (the paper's default); the
    // naive kernel is only admissible on tiny inputs
    let mut best = (Algorithm::Hashmap, hashmap);
    if intersection < best.1 {
        best = (Algorithm::Intersection, intersection);
    }
    if f.num_hyperedges <= NAIVE_MAX_EDGES && naive < best.1 {
        best = (Algorithm::Naive, naive);
    }

    // skewed, non-tiny inputs: promote to the flat-work-list variant
    if f.num_hyperedges >= QUEUE_MIN_EDGES && f.edge_skew() >= QUEUE_SKEW_THRESHOLD {
        best.0 = match best.0 {
            Algorithm::Hashmap => Algorithm::QueueHashmap,
            Algorithm::Intersection => Algorithm::QueueIntersection,
            other => other,
        };
    }
    best
}

/// Measures `h`, picks a kernel, and records the decision on the
/// `planner.kernel_chosen` counter. This is what
/// [`SLineBuilder::auto`](super::SLineBuilder::auto) and the CLI's
/// `--kernel auto` call.
pub fn plan<A: HyperAdjacency + ?Sized>(h: &A, s: usize) -> Plan {
    let features = measure(h, s);
    let (algorithm, predicted_cost) = choose(&features);
    nwhy_obs::incr(Counter::PlannerKernelChosen);
    Plan {
        algorithm,
        predicted_cost,
        features,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use crate::Id;

    #[test]
    fn features_on_paper_fixture() {
        // paper fixture (Fig. 1 stand-in): 4 hyperedges, 9 hypernodes,
        // sizes [4,4,5,5] ⇒ d̄ = 4.5; node degrees [2,1,2,3,2,3,2,1,2]
        // ⇒ W = Σ C(d,2) = 1+0+1+3+1+3+1+0+1 = 11
        let h = paper_hypergraph();
        let f = measure(&h, 1);
        assert_eq!(f.num_hyperedges, 4);
        assert_eq!(f.num_hypernodes, 9);
        assert_eq!(f.candidate_work, 11.0);
        assert_eq!(f.distinct_pairs, 6.0, "min(W=11, C(4,2)=6)");
        assert_eq!(f.mean_edge_size, 4.5);
        assert_eq!(f.max_edge_size, 5);
    }

    #[test]
    fn tiny_input_picks_naive_or_counting_only() {
        let h = paper_hypergraph();
        let (algo, cost) = choose(&measure(&h, 2));
        assert!(cost.is_finite() && cost >= 0.0);
        assert!(
            matches!(
                algo,
                Algorithm::Naive | Algorithm::Hashmap | Algorithm::Intersection
            ),
            "tiny inputs never take a queue variant, got {algo:?}"
        );
    }

    #[test]
    fn empty_input_is_well_defined() {
        let h = Hypergraph::from_memberships(&[]);
        let p = plan(&h, 1);
        assert!(p.predicted_cost >= 0.0);
        assert_eq!(p.features.num_hyperedges, 0);
    }

    #[test]
    fn skewed_large_input_promotes_to_queue_variant() {
        let mut f = InputFeatures {
            num_hyperedges: 10_000,
            num_hypernodes: 10_000,
            mean_edge_size: 4.0,
            max_edge_size: 400,
            candidate_work: 1.0e6,
            distinct_pairs: 5.0e5,
            s: 2,
        };
        let (algo, _) = choose(&f);
        assert!(
            matches!(algo, Algorithm::QueueHashmap | Algorithm::QueueIntersection),
            "skew {} must promote, got {algo:?}",
            f.edge_skew()
        );
        // same shape without the skew stays non-queued
        f.max_edge_size = 8;
        let (algo, _) = choose(&f);
        assert!(
            matches!(algo, Algorithm::Hashmap | Algorithm::Intersection),
            "uniform input must not promote, got {algo:?}"
        );
    }

    #[test]
    fn high_dedup_inputs_prefer_intersection_over_hashmap() {
        // W ≫ P̂: every candidate pair is re-encountered many times, so
        // paying κ_hash per encounter loses to stamp-dedup + one overlap
        let f = InputFeatures {
            num_hyperedges: 5_000,
            num_hypernodes: 500,
            mean_edge_size: 30.0,
            max_edge_size: 40,
            candidate_work: 5.0e7,
            distinct_pairs: 1.0e6,
            s: 2,
        };
        let (algo, _) = choose(&f);
        assert_eq!(algo, Algorithm::Intersection);
    }

    #[test]
    fn planner_choice_never_changes_results() {
        // the contract the proptests pin at scale: spot-check here
        let h = Hypergraph::from_memberships(&[
            (0..40).collect::<Vec<Id>>(),
            (0..8).collect(),
            vec![0, 50],
            vec![1, 2, 3],
        ]);
        for s in 1..=3 {
            let auto = super::super::builder::SLineBuilder::new(&h)
                .s(s)
                .auto()
                .edges();
            let naive = super::super::naive::naive(&h, s, nwhy_util::partition::Strategy::AUTO);
            assert_eq!(auto, naive, "s={s}");
        }
    }
}
