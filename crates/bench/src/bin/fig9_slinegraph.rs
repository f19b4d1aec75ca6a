//! Regenerates **Figure 9** — runtime of the s-line-graph construction
//! algorithms relative to the Hashmap algorithm.
//!
//! As in §IV-D, every algorithm is run under blocked and cyclic
//! partitioning with relabel-by-degree off/ascending/descending, and only
//! the *fastest* configuration per algorithm is reported. Output is the
//! runtime normalized to Hashmap (Fig. 9's y-axis): bars near 1.0 for the
//! queue variants reproduce the paper's "queue-based algorithms perform
//! similarly to their non-queue versions" result.
//!
//! Run: `cargo run --release -p nwhy-bench --bin fig9_slinegraph`
//! Knobs: `NWHY_SCALE`, `NWHY_TRIALS`, `NWHY_SEED`,
//!        `NWHY_SVALUES` (comma list, default "1,2,4,8").
//! Output: a table per dataset + `fig9_results.json`.

use nwhy_bench::{all_twins, best_of, write_json, HarnessConfig, SLineCell};
use nwhy_core::{Algorithm, Relabel, SLineBuilder};
use nwhy_util::partition::Strategy;

fn s_values() -> Vec<usize> {
    std::env::var("NWHY_SVALUES")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&s| s >= 1)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

fn configs() -> Vec<(&'static str, Strategy, Relabel)> {
    let mut out = Vec::new();
    for (sname, strategy) in [
        ("blocked", Strategy::Blocked { num_bins: 0 }),
        ("cyclic", Strategy::Cyclic { num_bins: 0 }),
    ] {
        for (rname, relabel) in [
            ("none", Relabel::None),
            ("asc", Relabel::Ascending),
            ("desc", Relabel::Descending),
        ] {
            out.push((
                Box::leak(format!("{sname}/{rname}").into_boxed_str()) as &'static str,
                strategy,
                relabel,
            ));
        }
    }
    out
}

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Hashmap,
    Algorithm::Intersection,
    Algorithm::QueueHashmap,
    Algorithm::QueueIntersection,
];

fn main() {
    let cfg = HarnessConfig::from_env();
    let svals = s_values();
    let configs = configs();
    println!(
        "Figure 9: s-line graph construction, best configuration per algorithm,\n\
         normalized to Hashmap (scale 1/{}, best of {} trials, s ∈ {svals:?})",
        cfg.scale, cfg.trials
    );
    let mut rows: Vec<SLineCell> = Vec::new();

    for (p, h) in all_twins(&cfg) {
        println!(
            "\n{} ({} hyperedges, {} incidences)",
            p.name,
            h.num_hyperedges(),
            h.num_incidences()
        );
        println!(
            "{:>4} {:>24} {:>24} {:>24} {:>24}",
            "s", "Hashmap", "Intersection", "Alg1 queue-hashmap", "Alg2 queue-intersect"
        );
        for &s in &svals {
            // correctness first: all four must produce the same edge set
            let reference = SLineBuilder::new(&h).s(s).edges();
            let mut best: Vec<(f64, &'static str)> = Vec::new();
            for algo in ALGORITHMS {
                let mut fastest = (f64::INFINITY, "");
                for &(cname, strategy, relabel) in &configs {
                    let secs = best_of(cfg.trials, || {
                        SLineBuilder::new(&h)
                            .s(s)
                            .algorithm(algo)
                            .strategy(strategy)
                            .relabel(relabel)
                            .edges()
                    });
                    if secs < fastest.0 {
                        fastest = (secs, cname);
                    }
                }
                let got = SLineBuilder::new(&h).s(s).algorithm(algo).edges();
                assert_eq!(
                    got,
                    reference,
                    "{}: {} disagrees at s={s}",
                    p.name,
                    algo.name()
                );
                best.push(fastest);
            }
            let hashmap_time = best[0].0;
            print!("{s:>4}");
            for (i, algo) in ALGORITHMS.iter().enumerate() {
                let (secs, config) = best[i];
                let rel = secs / hashmap_time;
                print!("{:>24}", format!("{rel:.2}x ({config})"));
                rows.push(SLineCell {
                    dataset: p.name.to_string(),
                    algorithm: algo.name().to_string(),
                    s,
                    best_config: config.to_string(),
                    seconds: secs,
                    relative_to_hashmap: rel,
                });
            }
            println!(
                "   [hashmap: {hashmap_time:.4}s, {} line edges]",
                reference.len()
            );
        }
    }

    write_json("fig9_results.json", &rows);
}
