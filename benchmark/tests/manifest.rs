//! `BENCHMARK.json` at the repository root is generated from the
//! registry in `src/metrics.rs`; this holds the committed file to it.

#[test]
fn committed_manifest_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark::metrics::manifest_json(),
        "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
    );
}
