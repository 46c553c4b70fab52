//! The distributed survey's wedge-check shuffle is counted exactly: every
//! apex ships its out-list once per distinct owner of its out-neighbours, so
//! `ygm.wedge_checks.items_sent` is a closed-form function of the oriented
//! graph and the partition, and bytes, items and batches are fixed by the
//! input. This file holds one test on purpose: `obs` counters are
//! process-global, and no other test may run a pipeline while it reads them.

use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::pipeline::{Pipeline, PipelineConfig};
use coordination::core::records::Dataset;
use coordination::redditgen::ScenarioConfig;
use coordination::tripoll::OrientedGraph;
use coordination::ygm::owner_of;

fn wedge_counters() -> [u64; 3] {
    ["bytes_sent", "items_sent", "batches_sent"]
        .map(|k| obs::counter(&format!("ygm.wedge_checks.{k}")).get())
}

/// `wedge_counters` delta over one distributed run.
fn counted_run(pipeline: &DistPipeline, ds: &Dataset) -> [u64; 3] {
    let before = wedge_counters();
    obs::Obs::enable();
    pipeline.run_dataset(ds);
    obs::Obs::disable();
    let after = wedge_counters();
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn wedge_checks_are_counted_and_seed_fixed() {
    let ds = Dataset::from_records(ScenarioConfig::jan2020(0.03).build().records);
    let config = PipelineConfig {
        edge_threshold: 2,
        min_triangle_weight: 25,
        ..Default::default()
    };
    let resident = Pipeline::new(config.clone()).run_dataset(&ds);
    let oriented = OrientedGraph::from_ref(&resident.ci.threshold_view(config.edge_threshold));
    for nranks in [2, 4] {
        // Σᵤ |out(u)| · |{owner(v) : v ∈ out(u)}|
        let expected: u64 = (0..oriented.n())
            .map(|u| {
                let (out, _) = oriented.out(u);
                let mut owners: Vec<usize> = out.iter().map(|v| owner_of(v, nranks)).collect();
                owners.sort_unstable();
                owners.dedup();
                (out.len() * owners.len()) as u64
            })
            .sum();
        assert!(expected > 0, "fixture has no wedges");

        let pipeline = DistPipeline::new(config.clone(), nranks);
        let first = counted_run(&pipeline, &ds);
        let second = counted_run(&pipeline, &ds);
        let [bytes, items, batches] = first;
        assert_eq!(items, expected, "{nranks} ranks");
        assert_eq!(bytes, 16 * items, "(u32, u32, u64) items are 16 bytes");
        assert!(batches > 0);
        assert_eq!(first, second, "{nranks} ranks: counters moved between runs");
    }
}
