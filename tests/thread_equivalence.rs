//! Thread-count equivalence: ingest, projection, survey and the full
//! resident pipeline produce bit-identical output inside rayon pools of 1,
//! 2, 3 and 4 threads. The executor cuts each parallel operation into
//! contiguous chunks and combines them in chunk order; a chunk-order bug
//! would move interned ids, CI edge order, kept-triangle order or a float
//! score here, while every other equivalence suite runs outside any pool.
//!
//! CI runs this file by name next to the distributed-equivalence step.

use proptest::prelude::*;

use coordination::core::btm::Btm;
use coordination::core::ids::{AuthorId, Event, PageId};
use coordination::core::ingest::{ingest_str, Ingest, IngestConfig, IngestStats};
use coordination::core::pipeline::{Pipeline, PipelineConfig, PipelineOutput, RunStats};
use coordination::core::project::{project, project_with_heavy_split};
use coordination::core::records::{write_ndjson, Dataset};
use coordination::core::{CiGraph, TripletMetrics, Window};
use coordination::redditgen::ScenarioConfig;
use coordination::tripoll::survey::{survey, SurveyConfig, SurveyReport};
use coordination::tripoll::{OrientedGraph, Triangle};

const POOLS: [usize; 4] = [1, 2, 3, 4];

/// Run `f` inside a pool of each size in [`POOLS`] and assert every result
/// equals the 1-thread one.
fn same_in_every_pool<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let mut reference = None;
    for n in POOLS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("build pool");
        let got = pool.install(&f);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert!(got == *want, "{what}: {n}-thread output differs"),
        }
    }
}

type IngestKey = (Vec<String>, Vec<String>, Vec<Event>, IngestStats);

fn ingest_key(ingest: Ingest) -> IngestKey {
    let names = |i: &coordination::core::ids::Interner| -> Vec<String> {
        i.iter().map(|(_, name)| name.to_owned()).collect()
    };
    let Ingest { dataset, stats } = ingest;
    (
        names(&dataset.authors),
        names(&dataset.pages),
        dataset.events,
        stats,
    )
}

type CiKey = (Vec<(u32, u32, u64)>, Vec<u64>);

fn ci_key(ci: &CiGraph) -> CiKey {
    (ci.edges().collect(), ci.page_counts().to_vec())
}

type SurveyKey = (Vec<(Triangle, u64, u64)>, u64, u64, Vec<u64>);

fn survey_key(report: &SurveyReport) -> SurveyKey {
    let SurveyReport {
        triangles,
        total_examined,
        max_min_weight,
        min_weight_log_hist,
    } = report;
    (
        triangles
            .iter()
            .map(|s| (s.triangle, s.min_weight, s.t_score.to_bits()))
            .collect(),
        *total_examined,
        *max_min_weight,
        min_weight_log_hist.clone(),
    )
}

type TripletKey = ([AuthorId; 3], [u64; 3], u64, u64, u64, u64, [u64; 3]);

/// The whole output except wall-clock timings, floats by bit pattern. The
/// destructuring is exhaustive, so a new output field must be added here.
fn output_key(out: &PipelineOutput) -> (CiKey, SurveyKey, Vec<TripletKey>, [u64; 8]) {
    let PipelineOutput {
        ci,
        survey,
        triplets,
        stats,
        timings: _,
    } = out;
    let RunStats {
        comments_reviewed,
        total_authors,
        projected_authors,
        ci_edges,
        ci_edges_after_threshold,
        triangles_examined,
        triangles_kept,
        triplets_validated,
    } = *stats;
    let triplets = triplets
        .iter()
        .map(|m| {
            let TripletMetrics {
                authors,
                ci_weights,
                min_ci_weight,
                t,
                hyper_weight,
                c,
                page_counts,
            } = *m;
            (
                authors,
                ci_weights,
                min_ci_weight,
                t.to_bits(),
                hyper_weight,
                c.to_bits(),
                page_counts,
            )
        })
        .collect();
    let stats = [
        comments_reviewed,
        u64::from(total_authors),
        u64::from(projected_authors),
        ci_edges,
        ci_edges_after_threshold,
        triangles_examined,
        triangles_kept,
        triplets_validated,
    ];
    (ci_key(ci), survey_key(survey), triplets, stats)
}

fn survey_config(min_edge_weight: u64) -> SurveyConfig {
    SurveyConfig {
        min_edge_weight,
        min_t_score: 0.0,
        top_k: None,
    }
}

/// Every stage and the whole pipeline on one generated month.
fn check_preset(name: &str, scenario: ScenarioConfig, config: PipelineConfig) {
    let records = scenario.build().records;
    let mut ndjson = Vec::new();
    write_ndjson(&mut ndjson, &records).expect("serialize");
    let text = String::from_utf8(ndjson).expect("utf8");
    let ds = Dataset::from_records(records);
    let btm = ds.btm();

    for chunks in [7, 16] {
        let cfg = IngestConfig {
            chunks,
            skip_bad_lines: false,
        };
        same_in_every_pool(&format!("{name} ingest_str, {chunks} chunks"), || {
            ingest_key(ingest_str(&text, &cfg).expect("ingest"))
        });
    }

    let ci = project(&btm, config.window);
    same_in_every_pool(&format!("{name} project"), || {
        ci_key(&project(&btm, config.window))
    });
    same_in_every_pool(&format!("{name} project, heavy split"), || {
        ci_key(&project_with_heavy_split(&btm, config.window, 16))
    });

    let oriented = OrientedGraph::from_ref(ci.as_csr());
    same_in_every_pool(&format!("{name} survey"), || {
        survey_key(&survey(
            &oriented,
            &survey_config(config.min_triangle_weight),
            Some(ci.page_counts()),
        ))
    });

    let pipeline = Pipeline::new(config);
    let out = pipeline.run_dataset(&ds);
    assert!(!out.triplets.is_empty(), "{name}: no triplets to compare");
    same_in_every_pool(&format!("{name} Pipeline::run_dataset"), || {
        output_key(&pipeline.run_dataset(&ds))
    });
}

#[test]
fn jan2020_is_identical_at_every_thread_count() {
    check_preset(
        "jan2020",
        ScenarioConfig::jan2020(0.03),
        PipelineConfig {
            min_triangle_weight: 25,
            ..Default::default()
        },
    );
}

#[test]
fn oct2016_is_identical_at_every_thread_count() {
    check_preset(
        "oct2016",
        ScenarioConfig::oct2016(0.05),
        PipelineConfig {
            window: Window::new(0, 3600),
            edge_threshold: 5,
            min_triangle_weight: 10,
            ..Default::default()
        },
    );
}

fn arb_events(
    max_authors: u32,
    max_pages: u32,
    max_events: usize,
) -> impl Strategy<Value = (u32, u32, Vec<Event>)> {
    (2..max_authors, 1..max_pages).prop_flat_map(move |(na, np)| {
        let ev =
            (0..na, 0..np, 0i64..2_000).prop_map(|(a, p, t)| Event::new(AuthorId(a), PageId(p), t));
        (Just(na), Just(np), prop::collection::vec(ev, 0..max_events))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Projection (flat and heavy-split), survey and the BTM pipeline are
    /// bit-identical across pool sizes on random bipartite temporal graphs.
    #[test]
    fn random_btms_are_identical_at_every_thread_count(
        (na, np, events) in arb_events(40, 25, 600),
        d2 in 1i64..400,
        split_len in 2usize..64,
        edge_threshold in 1u64..3,
        min_triangle_weight in 1u64..3,
    ) {
        let btm = Btm::from_events(na, np, &events);
        let window = Window::new(0, d2);
        same_in_every_pool("project", || ci_key(&project(&btm, window)));
        same_in_every_pool("project, heavy split", || {
            ci_key(&project_with_heavy_split(&btm, window, split_len))
        });
        let ci = project(&btm, window);
        let oriented = OrientedGraph::from_ref(ci.as_csr());
        same_in_every_pool("survey", || {
            survey_key(&survey(&oriented, &survey_config(1), Some(ci.page_counts())))
        });
        let pipeline = Pipeline::new(PipelineConfig {
            window,
            edge_threshold,
            min_triangle_weight,
            ..Default::default()
        });
        same_in_every_pool("Pipeline::run_btm", || output_key(&pipeline.run_btm(&btm)));
    }
}
