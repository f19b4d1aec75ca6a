//! Counter fixture tests: the s-line kernels must report *exact* work
//! counts on the paper's Fig. 1 fixture, pinning the counter semantics
//! (`pairs_examined` = pairs reaching per-pair work, `pairs_skipped` =
//! pairs eliminated by the degree filter) against hand-counted values.
#![cfg(feature = "obs")]

use nwhy_core::fixtures::{paper_hypergraph, skewed_overlap_hypergraph};
use nwhy_core::{Algorithm, Hypergraph, Id, SLineBuilder};
use nwhy_obs::Counter;
use std::sync::Mutex;

/// The obs registry is process-global; serialize tests that reset it.
static GATE: Mutex<()> = Mutex::new(());

fn isolated<R>(f: impl FnOnce() -> R) -> R {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    nwhy_obs::reset();
    f()
}

/// Naive compares every hyperedge pair: on the Fig. 1 fixture (4
/// hyperedges, all with degree ≥ 1) it must examine exactly
/// C(4, 2) = 6 pairs at s = 1 and skip none.
#[test]
fn naive_examines_exactly_all_pairs_at_s1() {
    isolated(|| {
        let h = paper_hypergraph();
        let ne = h.num_hyperedges() as u64;
        let edges = SLineBuilder::new(&h)
            .s(1)
            .algorithm(Algorithm::Naive)
            .edges();
        assert_eq!(
            nwhy_obs::counter_value(Counter::SlinePairsExamined),
            ne * (ne - 1) / 2
        );
        assert_eq!(nwhy_obs::counter_value(Counter::SlinePairsSkippedDegree), 0);
        assert_eq!(
            nwhy_obs::counter_value(Counter::SlineEdgesEmitted),
            edges.len() as u64
        );
    });
}

/// For naive, every unordered pair lands in exactly one of
/// examined/skipped, at every s: their sum is always C(n_e, 2).
#[test]
fn naive_examined_plus_skipped_is_all_pairs_at_every_s() {
    let h = paper_hypergraph();
    let ne = h.num_hyperedges() as u64;
    for s in 1..=5 {
        isolated(|| {
            let _ = SLineBuilder::new(&h)
                .s(s)
                .algorithm(Algorithm::Naive)
                .edges();
            let examined = nwhy_obs::counter_value(Counter::SlinePairsExamined);
            let skipped = nwhy_obs::counter_value(Counter::SlinePairsSkippedDegree);
            assert_eq!(examined + skipped, ne * (ne - 1) / 2, "s={s}");
        });
    }
}

/// Hashmap only examines pairs that actually share a hypernode: the
/// Fig. 1 fixture has exactly 5 overlapping pairs (its 1-line graph),
/// and one hashmap insertion per (shared node, pair) incidence.
#[test]
fn hashmap_examines_only_overlapping_pairs() {
    isolated(|| {
        let h = paper_hypergraph();
        let edges = SLineBuilder::new(&h)
            .s(1)
            .algorithm(Algorithm::Hashmap)
            .edges();
        assert_eq!(edges.len(), 5);
        assert_eq!(nwhy_obs::counter_value(Counter::SlinePairsExamined), 5);
        // Σ over pairs of |e ∩ f| — the fixture's overlaps are
        // 1+3+3+2+2 = 11 (see weighted.rs's overlap table).
        assert_eq!(nwhy_obs::counter_value(Counter::SlineHashmapInsertions), 11);
    });
}

/// The counting entry points share one counting core, so each must
/// report the hashmap kernel's tallies on the fixture: at s = 1, the 5
/// overlapping pairs examined, 11 insertions, 5 edges emitted. At s = 5
/// only `e2` and `e3` (5 members each) pass the degree filter: row `e2`
/// examines the one pair `(e2, e3)` with 2 insertions (`{5, 8}`) and
/// emits nothing. The range-driven kernels count the 3 + 2 pairs of rows
/// `e0` and `e1` as skipped; the queue-driven ones count no skips.
#[test]
fn counting_entry_points_share_counter_semantics() {
    use nwhy_core::slinegraph::{ensemble, hashmap, queue_single, weighted};
    use nwhy_util::partition::Strategy;
    let h = paper_hypergraph();
    let queue: Vec<Id> = (0..4).collect();
    let auto = Strategy::AUTO;
    // (name, counts degree skips, run at s → edge count)
    type Kernel<'a> = (&'a str, bool, &'a dyn Fn(usize) -> usize);
    let kernels: [Kernel; 4] = [
        ("hashmap", true, &|s| hashmap::hashmap(&h, s, auto).len()),
        ("queue", false, &|s| {
            queue_single::queue_hashmap(&h, &queue, s, auto).len()
        }),
        ("ensemble", true, &|s| {
            ensemble::ensemble(&h, &[s], auto)[0].len()
        }),
        ("weighted", true, &|s| {
            weighted::slinegraph_weighted_edges(&h, s, auto).len()
        }),
    ];
    for (name, counts_skips, run) in kernels {
        isolated(|| {
            assert_eq!(run(1), 5, "{name}");
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlinePairsExamined),
                5,
                "{name}"
            );
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlineHashmapInsertions),
                11,
                "{name}"
            );
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlineEdgesEmitted),
                5,
                "{name}"
            );
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlinePairsSkippedDegree),
                0,
                "{name}"
            );
        });
        isolated(|| {
            assert_eq!(run(5), 0, "{name}");
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlinePairsExamined),
                1,
                "{name}"
            );
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlineHashmapInsertions),
                2,
                "{name}"
            );
            let skipped = if counts_skips { 5 } else { 0 };
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlinePairsSkippedDegree),
                skipped,
                "{name}"
            );
        });
    }
}

/// Intersection and Algorithm 2 walk the same candidates but keep their
/// own counters. At s = 1 each of the 5 distinct candidate pairs of the
/// Fig. 1 fixture is verified and becomes an edge. At s = 5 rows `e0`
/// and `e1` (4 members) fail the degree filter, which neither kernel
/// counts; row `e2` verifies its one candidate `e3` (overlap 2) and
/// emits nothing. No candidate falls below `s`, so nothing is skipped.
/// Algorithm 2 also pushes its 4 rows plus every queued pair, and both
/// kernels do the same comparison work.
#[test]
fn candidate_entry_points_share_counter_semantics() {
    use nwhy_core::slinegraph::{intersection, queue_two_phase};
    use nwhy_util::partition::Strategy;
    let h = paper_hypergraph();
    let queue: Vec<Id> = (0..4).collect();
    let auto = Strategy::AUTO;
    // (s, edges, pairs examined, intersection comparisons)
    for (s, edges, examined, comparisons) in [(1, 5, 5, 15), (5, 0, 1, 8)] {
        for alg2 in [false, true] {
            isolated(|| {
                let got = if alg2 {
                    queue_two_phase::queue_intersection(&h, &queue, s, auto)
                } else {
                    intersection::intersection(&h, s, auto)
                };
                assert_eq!(got.len() as u64, edges, "alg2={alg2} s={s}");
                let pushes = if alg2 { 4 + examined } else { 0 };
                for (counter, want) in [
                    (Counter::SlinePairsExamined, examined),
                    (Counter::SlinePairsSkippedDegree, 0),
                    (Counter::SlineQueuePushes, pushes),
                    (Counter::SlineEdgesEmitted, edges),
                    (Counter::SlineIntersectionComparisons, comparisons),
                ] {
                    let got = nwhy_obs::counter_value(counter);
                    assert_eq!(got, want, "{counter:?} alg2={alg2} s={s}");
                }
            });
        }
    }
}

/// The kernel's canonicalize step reports its own span under the
/// kernel's, so `--metrics` separates sorting from counting.
#[test]
fn canonicalize_reports_its_own_span() {
    isolated(|| {
        let h = paper_hypergraph();
        let _ = SLineBuilder::new(&h)
            .s(1)
            .algorithm(Algorithm::Hashmap)
            .edges();
        let snap = nwhy_obs::snapshot();
        assert!(
            snap.span("sline.hashmap/sline.canonicalize").is_some(),
            "{:?}",
            snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
        );
    });
}

/// The intersection kernel reports comparison work; on the fixture it
/// must examine the same 5 overlapping pairs as hashmap and burn at
/// least one comparison per examined pair.
#[test]
fn intersection_reports_comparisons() {
    isolated(|| {
        let h = paper_hypergraph();
        let _ = SLineBuilder::new(&h)
            .s(1)
            .algorithm(Algorithm::Intersection)
            .edges();
        assert_eq!(nwhy_obs::counter_value(Counter::SlinePairsExamined), 5);
        assert!(nwhy_obs::counter_value(Counter::SlineIntersectionComparisons) >= 5);
    });
}

/// Every overlap path fires a known number of times on the skewed
/// fixture (see [`skewed_overlap_hypergraph`]), pinning the
/// `overlap.path_*` counter semantics.
#[test]
fn adaptive_paths_hit_exact_counts_on_skewed_fixture() {
    isolated(|| {
        let h = skewed_overlap_hypergraph();
        let edges = SLineBuilder::new(&h)
            .s(1)
            .algorithm(Algorithm::Intersection)
            .edges();
        assert_eq!(edges.len(), 8, "every examined pair overlaps at s=1");
        assert_eq!(nwhy_obs::counter_value(Counter::SlinePairsExamined), 8);
        assert_eq!(nwhy_obs::counter_value(Counter::OverlapPathBitset), 4);
        assert_eq!(nwhy_obs::counter_value(Counter::OverlapPathGallop), 2);
        assert_eq!(nwhy_obs::counter_value(Counter::OverlapPathMerge), 2);
    });
}

/// `auto()` records exactly one planner decision per build, and the
/// planner's candidate-work feature `W = Σ_v C(d_v, 2)` equals the
/// hashmap kernel's insertion counter at s = 1 — the calibration
/// identity the cost model's doc claims.
#[test]
fn planner_counter_and_calibration_identity() {
    isolated(|| {
        let h = paper_hypergraph();
        let auto_edges = SLineBuilder::new(&h).s(1).auto().edges();
        assert_eq!(nwhy_obs::counter_value(Counter::PlannerKernelChosen), 1);
        let fixed = SLineBuilder::new(&h)
            .s(1)
            .algorithm(Algorithm::Naive)
            .edges();
        assert_eq!(auto_edges, fixed, "planner choice must not change results");
    });
    isolated(|| {
        let h = paper_hypergraph();
        let f = nwhy_core::slinegraph::planner::measure(&h, 1);
        let _ = SLineBuilder::new(&h)
            .s(1)
            .algorithm(Algorithm::Hashmap)
            .edges();
        assert_eq!(
            nwhy_obs::counter_value(Counter::SlineHashmapInsertions) as f64,
            f.candidate_work,
            "W feature must equal measured hashmap insertions at s=1"
        );
    });
}

/// The two-phase queue kernels push work items; their queue counters
/// must be live and their emitted-edge counts exact.
#[test]
fn queue_kernels_report_pushes() {
    let h = paper_hypergraph();
    for algo in [Algorithm::QueueHashmap, Algorithm::QueueIntersection] {
        isolated(|| {
            let edges = SLineBuilder::new(&h).s(1).algorithm(algo).edges();
            assert_eq!(edges.len(), 5, "{algo:?}");
            assert!(
                nwhy_obs::counter_value(Counter::SlineQueuePushes) > 0,
                "{algo:?}"
            );
            assert_eq!(
                nwhy_obs::counter_value(Counter::SlineEdgesEmitted),
                5,
                "{algo:?}"
            );
        });
    }
}

/// Every `sline.*` counter of a streamed build equals the collected
/// build's, for the two streamed configurations.
#[test]
fn streamed_builds_report_the_collected_counters() {
    let h = Hypergraph::from_memberships(&[
        vec![0, 1, 2, 3],
        vec![1, 2, 3],
        vec![0, 3],
        vec![2],
        vec![0, 1, 2, 3, 4],
        vec![4, 5],
    ]);
    let counters = [
        Counter::SlinePairsExamined,
        Counter::SlinePairsSkippedDegree,
        Counter::SlineHashmapInsertions,
        Counter::SlineQueuePushes,
        Counter::SlineEdgesEmitted,
    ];
    for algo in [Algorithm::Hashmap, Algorithm::QueueHashmap] {
        let build = SLineBuilder::new(&h).s(2).algorithm(algo);
        let (collected, want) = isolated(|| (build.edges(), counters.map(nwhy_obs::counter_value)));
        let (streamed, got) = isolated(|| {
            let mut pairs = Vec::new();
            let n = build
                .stream_edges(
                    Vec::new,
                    |run: &mut Vec<(Id, Id)>, e, f| run.push((e, f)),
                    |run| {
                        pairs.extend(run);
                        Ok::<(), ()>(())
                    },
                )
                .unwrap();
            assert_eq!(n, pairs.len());
            (pairs, counters.map(nwhy_obs::counter_value))
        });
        assert_eq!(streamed, collected, "{}", algo.name());
        assert_eq!(got, want, "{}", algo.name());
    }
}

/// The overlap queries that keep no edge list run the hashmap kernel's
/// counting walk: online s-components at `s`, and toplexes at `s = 1`,
/// report its insertions and examined pairs, and count each pair meeting
/// `s` as emitted.
#[test]
fn overlap_sinks_report_the_hashmap_counters() {
    use nwhy_core::algorithms::{s_connected_components_online, toplexes};
    use nwhy_core::slinegraph::hashmap::hashmap;
    use nwhy_util::partition::Strategy;
    let h = paper_hypergraph();
    let counters = [
        Counter::SlinePairsExamined,
        Counter::SlineHashmapInsertions,
        Counter::SlineEdgesEmitted,
    ];
    for s in 1..=5 {
        let want = isolated(|| {
            let _ = hashmap(&h, s, Strategy::AUTO);
            counters.map(nwhy_obs::counter_value)
        });
        let got = isolated(|| {
            let _ = s_connected_components_online(&h, s);
            counters.map(nwhy_obs::counter_value)
        });
        assert_eq!(got, want, "s-components s={s}");
        if s == 1 {
            let got = isolated(|| {
                let _ = toplexes(&h);
                counters.map(nwhy_obs::counter_value)
            });
            assert_eq!(got, want, "toplexes");
        }
    }
}
