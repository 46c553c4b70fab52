//! Cross-crate integration: the distributed engine must agree with the
//! resident one at realistic scenario scale, the packed shuffle must batch,
//! and the future-work features must compose with the pipeline.

use coordination::core::dist_pipeline::DistPipeline;
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput};
use coordination::core::Window;
use coordination::graph::LocalCsr;
use coordination::redditgen::ScenarioConfig;
use coordination::tripoll::{survey_stage, OrientedGraph, Triangle};
use coordination::ygm::{owner_of, DistRuns, World};

#[test]
fn distributed_projection_agrees_at_scenario_scale() {
    let dataset = ScenarioConfig::oct2016(0.12).build().dataset();
    let config = PipelineConfig {
        window: Window::zero_to_60s(),
        edge_threshold: 5,
        min_triangle_weight: 20,
        ..Default::default()
    };
    let resident = Pipeline::new(config.clone()).run_dataset(&dataset);
    let dist = DistPipeline::new(config, 5).run_dataset(&dataset);
    assert!(!resident.triplets.is_empty(), "scenario found no triplets");
    // Everything but the wall-clock timings.
    let scalars = |o: &PipelineOutput| {
        (
            format!("{:?}", o.stats),
            o.survey.total_examined,
            o.survey.max_min_weight,
            o.survey.min_weight_log_hist.clone(),
        )
    };
    assert_eq!(scalars(&resident), scalars(&dist));
    assert!(resident.ci.edges().eq(dist.ci.edges()), "CI graphs differ");
    assert_eq!(resident.ci.page_counts(), dist.ci.page_counts());
    assert_eq!(resident.survey.triangles, dist.survey.triangles);
    assert_eq!(resident.triplets, dist.triplets);
}

#[test]
fn distributed_survey_agrees_on_a_projected_graph() {
    // The rank-sharded survey stage over a real projected CI graph: each of
    // 4 ranks owns the oriented out-lists of its vertices, and the union of
    // the triangles they keep must equal the shared-memory survey's.
    let dataset = ScenarioConfig::jan2020(0.12).build().dataset();
    let ci = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 20,
        ..Default::default()
    })
    .run_dataset(&dataset)
    .ci;
    let oriented = OrientedGraph::from_ref(&ci.threshold_view(5));
    let mut shared = coordination::tripoll::survey::triangles_above(&oriented, 20);
    shared.sort_unstable_by_key(|t| t.vertices());
    assert!(!shared.is_empty(), "scenario graph has no heavy triangles");

    const NRANKS: usize = 4;
    let wedges: DistRuns<u128> = DistRuns::new(NRANKS, "wedge_checks", None);
    let per_rank = World::run(NRANKS, |ctx| {
        let csr = LocalCsr::from_sorted_edges(
            (0..oriented.n())
                .filter(|u| owner_of(u, ctx.nranks()) == ctx.rank())
                .flat_map(|u| {
                    let (nbrs, ws) = oriented.out(u);
                    nbrs.iter().zip(ws).map(move |(&v, &w)| (u, v, w))
                }),
        );
        let partial = survey_stage(ctx, &csr, 20, &wedges, 64 << 10);
        ctx.barrier();
        (partial.kept, ctx.messages_sent())
    });
    assert!(per_rank[0].1 > 0, "the push algorithm must communicate");
    let mut dist: Vec<Triangle> = per_rank.into_iter().flat_map(|(k, _)| k).collect();
    dist.sort_unstable_by_key(|t| t.vertices());
    assert_eq!(dist, shared);
}

#[test]
fn groups_and_windowed_validation_compose_with_the_pipeline() {
    let scenario = ScenarioConfig::jan2020(0.12).build();
    let dataset = scenario.dataset();
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let btm = dataset.btm().without_authors(&excl.resolve(&dataset));
    let out = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 20,
        ..Default::default()
    })
    .run_btm(&btm);
    assert!(!out.triplets.is_empty());

    // groups: every member of every merged group is a ground-truth bot
    let groups = coordination::core::groups::merge_triplets(&btm, &out.triplets, 2);
    assert!(!groups.is_empty());
    for g in &groups {
        for a in &g.members {
            let name = dataset.authors.name(a.0);
            assert!(
                scenario.truth.is_bot(name),
                "organic account {name} in a group"
            );
        }
    }

    // windowed validation: the bound holds and scores stay in range
    let triangles: Vec<coordination::tripoll::Triangle> =
        out.survey.triangles.iter().map(|s| s.triangle).collect();
    for w in coordination::core::windowed_hyperedge::validate_windowed(&btm, &triangles, 60) {
        assert!(w.windowed_weight <= w.min_ci_weight);
        assert!(w.windowed_weight <= w.hyper_weight);
        assert!((0.0..=1.0).contains(&w.windowed_c));
    }
}

#[test]
fn aggregated_messaging_is_dramatically_cheaper() {
    // The packed shuffle at pipeline scale: every item pushed through a
    // `PackedAggregator` rides a shipped byte buffer, so the active messages
    // sent are a tiny fraction of the items delivered.
    use coordination::ygm::{PackedAggregator, PackedBatch};
    const ITEMS: u64 = 20_000;
    const NRANKS: usize = 4;

    let runs: DistRuns<u64> = DistRuns::new(NRANKS, "substrate_test", None);
    let per_rank = World::run(NRANKS, |ctx| {
        let sink = runs.clone();
        let mut agg = PackedAggregator::new(
            ctx,
            "substrate_test",
            move |inner, batch: PackedBatch<u64>| sink.local_absorb(inner, batch.iter()),
        );
        for i in 0..ITEMS {
            agg.push_keyed(ctx, &(i % 512), i % 512);
        }
        agg.flush_all(ctx);
        ctx.barrier();
        (
            ctx.messages_sent(),
            runs.local_take(ctx).into_sorted_vec().len() as u64,
        )
    });
    let pushed = ITEMS * NRANKS as u64;
    let delivered: u64 = per_rank.iter().map(|&(_, n)| n).sum();
    assert_eq!(delivered, pushed, "every pushed item is delivered once");
    let messages = per_rank[0].0;
    assert!(
        messages * 100 < pushed,
        "{messages} messages for {pushed} items"
    );
}

#[test]
fn refinement_with_groups_reconstructs_families_round_by_round() {
    let scenario = ScenarioConfig::jan2020(0.12).build();
    let dataset = scenario.dataset();
    let excl = coordination::core::filter::ExclusionList::reddit_defaults();
    let btm = dataset.btm().without_authors(&excl.resolve(&dataset));
    let pipeline = Pipeline::new(PipelineConfig {
        window: Window::zero_to_60s(),
        min_triangle_weight: 20,
        ..Default::default()
    });
    let rounds = pipeline.run_refinement(&btm, 4);
    assert!(
        rounds.len() >= 2,
        "at least one productive round plus the empty one"
    );
    // flagged sets across rounds are disjoint (each round removes its flags)
    let mut seen = std::collections::HashSet::new();
    for round in &rounds {
        for a in &round.flagged {
            assert!(seen.insert(*a), "author {a:?} flagged twice across rounds");
        }
    }
    // the union of flagged authors is pure bot
    for a in &seen {
        assert!(scenario.truth.is_bot(dataset.authors.name(a.0)));
    }
    assert!(
        rounds.last().expect("nonempty").flagged.is_empty(),
        "terminates quiet"
    );
}
