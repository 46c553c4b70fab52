//! Run the whole pipeline rank-sharded through the YGM-style substrate — the
//! communication structure the paper ran on LLNL clusters, here over
//! in-process ranks. Verifies the distributed engine reproduces the resident
//! one exactly and reports the shuffle traffic per label.
//!
//! ```text
//! cargo run --release --example distributed_run [n_ranks]
//! ```

use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::Window;
use coordination::redditgen::ScenarioConfig;

fn main() {
    let nranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let scenario = ScenarioConfig::oct2016(0.2).build();
    let dataset = scenario.dataset();
    println!("{} comments, {nranks} ranks\n", scenario.len());

    let config = PipelineConfig {
        window: Window::zero_to_60s(),
        edge_threshold: 2,
        min_triangle_weight: 10,
        ..Default::default()
    };
    // steps 1+2+3 on the resident engine (reference)
    let resident = Pipeline::new(config.clone()).run_dataset(&dataset);

    // the same three steps rank-sharded, with the shuffle counters on
    obs::Obs::enable();
    let distributed = DistPipeline::new(config, nranks).run_dataset(&dataset);
    obs::Obs::disable();

    println!("engine           ci edges   examined   triplets");
    for (name, out) in [("resident", &resident), ("distributed", &distributed)] {
        println!(
            "{name:<12} {:>12} {:>10} {:>10}",
            out.stats.ci_edges,
            out.stats.triangles_examined,
            out.triplets.len()
        );
    }
    assert!(
        resident.ci.edges().eq(distributed.ci.edges()),
        "CI graphs differ"
    );
    assert_eq!(resident.ci.page_counts(), distributed.ci.page_counts());
    assert_eq!(resident.survey.triangles, distributed.survey.triangles);
    assert_eq!(resident.triplets, distributed.triplets);
    println!("distributed output == resident output\n");

    println!("shuffle traffic (ygm.* counters):");
    for (name, value) in obs::snapshot().counters {
        if name.starts_with("ygm.") {
            println!("  {name:<44} {value:>12}");
        }
    }
}
