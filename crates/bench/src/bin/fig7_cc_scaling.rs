//! Regenerates **Figure 7** — strong scaling of hypergraph connected
//! component decomposition: AdjoinCC and HyperCC (NWHy) vs HygraCC
//! (baseline), runtime vs thread count on every Table I twin. HyperCC is
//! the paper's label propagation; the `UnionFind*` column is an extension
//! (not in the paper): the union-find HyperCC that `nwhy-cli cc` runs.
//!
//! Run: `cargo run --release -p nwhy-bench --bin fig7_cc_scaling`
//! Knobs: `NWHY_SCALE`, `NWHY_TRIALS`, `NWHY_MAX_THREADS`, `NWHY_SEED`.
//! Output: a runtime table per dataset + `fig7_results.json`.

use nwhy_bench::{all_twins, best_of, write_json, HarnessConfig, ScalingCell};
use nwhy_core::algorithms::{adjoin_cc_afforest, hyper_cc, hyper_cc_label_propagation};
use nwhy_core::AdjoinGraph;
use nwhy_util::pool::with_threads;

fn main() {
    let cfg = HarnessConfig::from_env();
    let threads = cfg.thread_counts();
    println!(
        "Figure 7: hypergraph CC strong scaling (scale 1/{}, best of {} trials)",
        cfg.scale, cfg.trials
    );
    let mut rows: Vec<ScalingCell> = Vec::new();

    for (p, h) in all_twins(&cfg) {
        let adjoin = AdjoinGraph::from_hypergraph(&h);
        println!(
            "\n{} ({} hyperedges, {} hypernodes, {} incidences)",
            p.name,
            h.num_hyperedges(),
            h.num_hypernodes(),
            h.num_incidences()
        );
        println!(
            "{:>8} {:>14} {:>14} {:>14} {:>15}",
            "threads", "AdjoinCC [s]", "HyperCC [s]", "HygraCC [s]", "UnionFind* [s]"
        );
        for &t in &threads {
            let t_adjoin = with_threads(t, || best_of(cfg.trials, || adjoin_cc_afforest(&adjoin)));
            let t_hyper =
                with_threads(t, || best_of(cfg.trials, || hyper_cc_label_propagation(&h)));
            let t_hygra = with_threads(t, || best_of(cfg.trials, || hygra::hygra_cc(&h)));
            let t_uf = with_threads(t, || best_of(cfg.trials, || hyper_cc(&h)));
            println!("{t:>8} {t_adjoin:>14.5} {t_hyper:>14.5} {t_hygra:>14.5} {t_uf:>15.5}");
            for (alg, secs) in [
                ("AdjoinCC", t_adjoin),
                ("HyperCC", t_hyper),
                ("HygraCC", t_hygra),
                ("UnionFindCC*", t_uf),
            ] {
                rows.push(ScalingCell {
                    dataset: p.name.to_string(),
                    algorithm: alg.to_string(),
                    threads: t,
                    seconds: secs,
                });
            }
        }
        // correctness cross-check once per dataset
        let a = adjoin_cc_afforest(&adjoin).num_components();
        let lp = hyper_cc_label_propagation(&h);
        let b = lp.num_components();
        let c = hygra::hygra_cc(&h).num_components();
        assert_eq!(a, b, "{}: AdjoinCC vs HyperCC component count", p.name);
        assert_eq!(a, c, "{}: AdjoinCC vs HygraCC component count", p.name);
        assert_eq!(hyper_cc(&h), lp, "{}: union-find vs HyperCC labels", p.name);
        println!("{:>8} components: {a} (all algorithms agree)", "");
    }

    write_json("fig7_results.json", &rows);
}
