//! Schema check for the emitted `BENCH_*.json` perf-trajectory files.
//!
//! CI's bench-smoke job runs the `slinegraph`/`traversal`/`storage`
//! benches on tiny inputs first, so the files exist in the package root
//! (the bench binaries' working directory); locally, the test skips
//! files that have not been generated yet.

use nwhy_bench::validate_bench_json;

const FILES: [&str; 3] = [
    "BENCH_slinegraph.json",
    "BENCH_traversal.json",
    "BENCH_storage.json",
];

#[test]
fn emitted_bench_json_files_validate() {
    let mut found = 0;
    for name in FILES {
        match std::fs::read_to_string(name) {
            Ok(text) => {
                validate_bench_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                found += 1;
            }
            Err(_) => eprintln!("(skipping {name}: run `cargo bench -p nwhy-bench` first)"),
        }
    }
    // Only enforce presence when the smoke job asked for it.
    if std::env::var_os("NWHY_REQUIRE_BENCH_JSON").is_some() {
        assert_eq!(
            found,
            FILES.len(),
            "bench-smoke requires every BENCH_*.json"
        );
    }
}

/// Pulls `(algorithm, s) -> counter value` out of the slinegraph bench
/// rows for one dataset.
fn slinegraph_counter(
    doc: &nwhy_obs::json::Value,
    dataset: &str,
    algorithm: &str,
    s: u64,
    counter: &str,
) -> Option<u64> {
    for row in doc.as_array()? {
        if row.get("dataset").and_then(|v| v.as_str()) == Some(dataset)
            && row.get("algorithm").and_then(|v| v.as_str()) == Some(algorithm)
            && row.get("s").and_then(|v| v.as_u64()) == Some(s)
        {
            return row.get("counters")?.get(counter)?.as_u64();
        }
    }
    None
}

/// The adaptive engine's acceptance claims, checked against the emitted
/// numbers whenever the file exists:
///
/// - on the skewed power-law input, the planner's `auto` rows examine
///   no more pairs and burn no more comparison work than the best fixed
///   kernel (within 5%);
/// - on the dense input, the adaptive `intersection` row takes the
///   packed-word bitset path and needs strictly fewer element
///   comparisons than the `naive` row's merge scan of the same pairs.
#[test]
fn adaptive_engine_meets_acceptance_on_emitted_bench() {
    let Ok(text) = std::fs::read_to_string("BENCH_slinegraph.json") else {
        eprintln!("(skipping: run `cargo bench -p nwhy-bench --bench slinegraph` first)");
        return;
    };
    validate_bench_json(&text).unwrap();
    let doc = nwhy_obs::json::parse(&text).unwrap();
    const FIXED: [&str; 5] = [
        "naive",
        "hashmap",
        "intersection",
        "queue-hashmap(alg1)",
        "queue-intersection(alg2)",
    ];
    // zero-valued counters are omitted from the snapshot, so "missing"
    // means 0 once the row's presence is pinned by pairs_examined
    let work = |algorithm: &str, s: u64| -> u64 {
        let get = |c| slinegraph_counter(&doc, "PowerLawSkew", algorithm, s, c).unwrap_or(0);
        get("sline.intersection_comparisons") + get("sline.hashmap_insertions")
    };
    for s in [1u64, 2, 4] {
        let auto_pairs =
            slinegraph_counter(&doc, "PowerLawSkew", "auto", s, "sline.pairs_examined")
                .expect("auto row must exist for PowerLawSkew");
        // the queue kernels only report *phase-2* pairs (phase 1 prunes
        // candidates below s before any pair is "examined"), so the
        // pairs axis is only comparable across the single-phase kernels
        let best_pairs = FIXED
            .iter()
            .filter(|a| !a.starts_with("queue-"))
            .filter_map(|a| slinegraph_counter(&doc, "PowerLawSkew", a, s, "sline.pairs_examined"))
            .min()
            .expect("fixed-kernel rows must exist");
        assert!(
            auto_pairs as f64 <= best_pairs as f64 * 1.05,
            "s={s}: auto examined {auto_pairs} pairs, best fixed kernel {best_pairs}"
        );
        let auto_work = work("auto", s);
        let best_work = FIXED.iter().map(|a| work(a, s)).min().unwrap();
        assert!(
            auto_work as f64 <= best_work as f64 * 1.05,
            "s={s}: auto work {auto_work}, best fixed kernel {best_work}"
        );
    }
    for s in [1u64, 2, 4] {
        let get = |algorithm: &str, counter: &str| {
            slinegraph_counter(&doc, "DenseOverlap", algorithm, s, counter)
                .unwrap_or_else(|| panic!("DenseOverlap {algorithm} s={s} must report {counter}"))
        };
        let comparisons = "sline.intersection_comparisons";
        let (merge, adaptive) = (get("naive", comparisons), get("intersection", comparisons));
        assert!(
            adaptive < merge,
            "s={s}: adaptive intersection must beat the merge scan on dense pairs \
             ({adaptive} vs {merge})"
        );
        assert!(
            get("intersection", "overlap.path_bitset") > 0,
            "s={s}: no bitset probes"
        );
    }
}

/// The storage bench's acceptance claims, checked against the emitted
/// numbers whenever the file exists: packed bytes-per-incidence must
/// beat the 8-byte NWHYBIN1 yardstick on every dataset.
#[test]
fn storage_bench_beats_nwhybin1_density() {
    let Ok(text) = std::fs::read_to_string("BENCH_storage.json") else {
        eprintln!("(skipping: run `cargo bench -p nwhy-bench --bench storage` first)");
        return;
    };
    validate_bench_json(&text).unwrap();
    let doc = nwhy_obs::json::parse(&text).unwrap();
    let mut pack_rows = 0;
    for row in doc.as_array().unwrap() {
        let algo = row.get("algorithm").and_then(|v| v.as_str()).unwrap();
        if algo != "pack" {
            continue;
        }
        pack_rows += 1;
        let counters = row.get("counters").unwrap();
        let packed = counters
            .get("storage.packed_bytes")
            .unwrap()
            .as_u64()
            .unwrap();
        let yardstick = counters
            .get("storage.nwhybin1_bytes")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(
            packed < yardstick,
            "packed image ({packed} B) must be smaller than NWHYBIN1 ({yardstick} B)"
        );
        let bpi_milli = counters
            .get("storage.bytes_per_incidence_milli")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(
            bpi_milli < 8000,
            "bytes/incidence {:.3} must beat NWHYBIN1's 8.0",
            bpi_milli as f64 / 1000.0
        );
    }
    assert!(pack_rows > 0, "storage bench must emit pack records");
}
