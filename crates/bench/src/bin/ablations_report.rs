//! Text report for the ablation studies DESIGN.md calls out — a quick,
//! single-binary complement to the criterion `ablations` bench:
//!
//! A. relabel-by-degree × partitioning for s-line construction;
//! B. queue algorithms on the adjoin ID space vs non-queue + rebuild;
//! C. blocked vs cyclic work-queue scheduling (Algorithm 1);
//! D. direction-optimizing vs pure top-down/bottom-up BFS (adjoin);
//! E. Hygra engine modes (sparse / dense / auto);
//! F. the §III-D per-bin imbalance measurements.
//!
//! Run: `cargo run --release -p nwhy-bench --bin ablations_report`
//! Knobs: `NWHY_SCALE` (default 2000), `NWHY_TRIALS`, `NWHY_SEED`.

use nwgraph::algorithms::bfs::{bfs_bottom_up, bfs_top_down};
use nwhy_bench::{best_of, HarnessConfig};
use nwhy_core::algorithms::adjoin_bfs;
use nwhy_core::slinegraph::queue_single::queue_hashmap;
use nwhy_core::{AdjoinGraph, Algorithm, HyperedgeId, Relabel, SLineBuilder};
use nwhy_gen::profiles::profile_by_name;
use nwhy_util::partition::{imbalance_report, Strategy};

fn main() {
    let cfg = HarnessConfig::from_env();
    let h = profile_by_name("Orkut-group")
        .expect("profile")
        .generate(cfg.scale, cfg.seed);
    let adjoin = AdjoinGraph::from_hypergraph(&h);
    println!(
        "Ablation report on the Orkut-group twin (scale 1/{}, best of {} trials)\n\
         {} hyperedges, {} incidences, max edge size {}",
        cfg.scale,
        cfg.trials,
        h.num_hyperedges(),
        h.num_incidences(),
        h.stats().max_edge_degree
    );

    // ---- A. relabel × partitioning ------------------------------------
    println!("\nA. hashmap s-line (s=2) under relabel × partitioning:");
    for (sname, strategy) in [
        ("blocked", Strategy::Blocked { num_bins: 0 }),
        ("cyclic", Strategy::Cyclic { num_bins: 0 }),
    ] {
        for (rname, relabel) in [
            ("none", Relabel::None),
            ("asc", Relabel::Ascending),
            ("desc", Relabel::Descending),
        ] {
            let secs = best_of(cfg.trials, || {
                SLineBuilder::new(&h)
                    .s(2)
                    .algorithm(Algorithm::Hashmap)
                    .strategy(strategy)
                    .relabel(relabel)
                    .edges()
            });
            println!("   {sname:>8}/{rname:<5} {secs:>10.4}s");
        }
    }

    // ---- B. queue vs rebuild on the adjoin ID space --------------------
    println!("\nB. s-line (s=2) from the adjoin representation:");
    let queue: Vec<u32> = (0..nwhy_core::ids::from_usize(adjoin.num_hyperedges())).collect();
    let t_q1 = best_of(cfg.trials, || {
        queue_hashmap(&adjoin, &queue, 2, Strategy::AUTO)
    });
    println!("   Alg 1 directly on adjoin:      {t_q1:>10.4}s");
    let t_rebuild = best_of(cfg.trials, || {
        let rebuilt = adjoin.to_hypergraph();
        SLineBuilder::new(&rebuilt).s(2).edges()
    });
    println!(
        "   non-queue (rebuild + hashmap): {t_rebuild:>10.4}s  ({:.2}x)",
        t_rebuild / t_q1
    );

    // ---- C. scheduling --------------------------------------------------
    println!("\nC. Algorithm 1 work-queue scheduling (s=2):");
    let t_static = best_of(cfg.trials, || {
        queue_hashmap(&h, &queue, 2, Strategy::Blocked { num_bins: 0 })
    });
    let t_cyc = best_of(cfg.trials, || {
        queue_hashmap(&h, &queue, 2, Strategy::Cyclic { num_bins: 0 })
    });
    println!("   blocked: {t_static:>10.4}s");
    println!("   cyclic:  {t_cyc:>10.4}s");

    // ---- D. BFS directions on the adjoin graph -------------------------
    println!("\nD. BFS direction on the adjoin graph:");
    let src = 0u32;
    let t_td = best_of(cfg.trials, || bfs_top_down(adjoin.graph(), src));
    let t_bu = best_of(cfg.trials, || bfs_bottom_up(adjoin.graph(), src));
    let t_do = best_of(cfg.trials, || adjoin_bfs(&adjoin, HyperedgeId::new(src)));
    println!("   top-down:             {t_td:>10.5}s");
    println!("   bottom-up:            {t_bu:>10.5}s");
    println!("   direction-optimizing: {t_do:>10.5}s");

    // ---- E. Hygra engine modes ------------------------------------------
    println!("\nE. HygraBFS engine modes:");
    for (name, mode) in [
        ("force-sparse", hygra::engine::Mode::ForceSparse),
        ("force-dense", hygra::engine::Mode::ForceDense),
        ("auto", hygra::engine::Mode::Auto),
    ] {
        let secs = best_of(cfg.trials, || {
            hygra::bfs::hygra_bfs_with_mode(&h, src, mode)
        });
        println!("   {name:<13} {secs:>10.5}s");
    }

    // ---- F. imbalance ----------------------------------------------------
    println!("\nF. per-bin work imbalance (16 bins, max/mean; 1.0 = perfect):");
    let mut costs: Vec<usize> = (0..nwhy_core::ids::from_usize(h.num_hyperedges()))
        .map(|e| h.edge_degree(e))
        .collect();
    println!(
        "   original IDs:  blocked {:.2}  cyclic {:.2}",
        imbalance_report(&costs, Strategy::Blocked { num_bins: 16 }).2,
        imbalance_report(&costs, Strategy::Cyclic { num_bins: 16 }).2
    );
    costs.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "   degree-sorted: blocked {:.2}  cyclic {:.2}",
        imbalance_report(&costs, Strategy::Blocked { num_bins: 16 }).2,
        imbalance_report(&costs, Strategy::Cyclic { num_bins: 16 }).2
    );
}
