//! Surveying directly over the snapshot layer's block-compressed CSR
//! ([`coordination_store::CsrView`]) must agree with surveying the resident
//! [`WeightedGraph`] — the view implements [`GraphRef`], so
//! [`OrientedGraph::from_ref`] consumes either without a decode step — on the
//! resident survey and on the rank-local [`survey_stage`] alike.

use coordination_graph::LocalCsr;
use coordination_store::csr::encode_graph;
use coordination_store::CsrView;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tripoll::survey::survey;
use tripoll::{survey_stage, GraphRef, OrientedGraph, SurveyConfig, Triangle, WeightedGraph};
use ygm::{owner_of, DistRuns, World};

fn random_graph(seed: u64, n: u32, m: usize) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    let mut seen = std::collections::HashSet::new();
    while edges.len() < m {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x == y {
            continue;
        }
        let (a, b) = (x.min(y), x.max(y));
        if seen.insert((a, b)) {
            edges.push((a, b, rng.gen_range(1..40u64)));
        }
    }
    WeightedGraph::from_edges(n, edges)
}

fn assert_same_survey(g: &WeightedGraph, cfg: &SurveyConfig) {
    let mut blob = Vec::new();
    encode_graph(g, &mut blob);
    let view = CsrView::parse(&blob).expect("fresh encoding parses");
    view.validate(g.n_vertices())
        .expect("fresh encoding validates");
    assert_eq!(view.n(), g.n_vertices());
    assert_eq!(view.count_edges(), g.count_edges());

    let resident = survey(&OrientedGraph::from_graph(g), cfg, None);
    let mapped = survey(&OrientedGraph::from_ref(&view), cfg, None);

    assert_eq!(resident.total_examined, mapped.total_examined);
    assert_eq!(resident.len(), mapped.len());
    let key = |t: &tripoll::SurveyedTriangle| (t.triangle.vertices(), t.min_weight);
    let mut a: Vec<_> = resident.triangles.iter().map(key).collect();
    let mut b: Vec<_> = mapped.triangles.iter().map(key).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn survey_over_compressed_csr_matches_resident() {
    for (seed, n, m) in [(1u64, 40u32, 220usize), (2, 150, 1600), (3, 9, 30)] {
        let g = random_graph(seed, n, m);
        for min_w in [0u64, 5, 20] {
            assert_same_survey(&g, &SurveyConfig::with_min_weight(min_w));
        }
    }
}

/// [`survey_stage`] on `nranks` ranks, each over the oriented out-lists of
/// the vertices it owns, shipping wedge checks at `batch_bytes`: the kept
/// triangles sorted by vertex triple, and the reduced `(examined,
/// max_min_weight, log_hist)`, which every rank must agree on.
fn survey_ranks(
    oriented: &OrientedGraph,
    cutoff: u64,
    nranks: usize,
    batch_bytes: usize,
) -> (Vec<Triangle>, (u64, u64, Vec<u64>)) {
    let wedges: DistRuns<u128> = DistRuns::new(nranks, "wedge_checks", None);
    let per_rank = World::run(nranks, |ctx| {
        let csr = LocalCsr::from_sorted_edges(
            (0..oriented.n())
                .filter(|u| owner_of(u, ctx.nranks()) == ctx.rank())
                .flat_map(|u| {
                    let (nbrs, ws) = oriented.out(u);
                    nbrs.iter().zip(ws).map(move |(&v, &w)| (u, v, w))
                }),
        );
        let partial = survey_stage(ctx, &csr, cutoff, &wedges, batch_bytes);
        (partial.all_reduce(ctx), partial.kept)
    });
    let stats = per_rank[0].0.clone();
    assert!(
        per_rank.iter().all(|(s, _)| *s == stats),
        "ranks disagree on the reduced survey statistics"
    );
    let mut kept: Vec<Triangle> = per_rank.into_iter().flat_map(|(_, k)| k).collect();
    kept.sort_unstable_by_key(|t| t.vertices());
    (kept, stats)
}

#[test]
fn survey_stage_over_compressed_csr_matches_resident() {
    // The survey stage must accept an orientation built straight off the
    // mmap-format CSR view, at any rank count, and agree with the resident
    // shared-memory enumeration.
    for (seed, n, m) in [(11u64, 40u32, 220usize), (12, 120, 1200)] {
        let g = random_graph(seed, n, m);
        let mut blob = Vec::new();
        encode_graph(&g, &mut blob);
        let view = CsrView::parse(&blob).expect("fresh encoding parses");

        let resident = OrientedGraph::from_graph(&g);
        let mut expected = Vec::new();
        tripoll::enumerate::for_each_triangle(&resident, |t| expected.push(t));
        expected.sort_unstable_by_key(|t| t.vertices());

        let mapped = OrientedGraph::from_ref(&view);
        for nranks in [1usize, 2, 4] {
            for cutoff in [1u64, 10] {
                let (kept, (examined, _, _)) = survey_ranks(&mapped, cutoff, nranks, 64 << 10);
                let want: Vec<_> = expected
                    .iter()
                    .copied()
                    .filter(|t| t.min_weight() >= cutoff)
                    .collect();
                assert_eq!(kept, want, "seed {seed} ranks {nranks}");
                assert_eq!(examined, expected.len() as u64);
            }
        }
    }
}

#[test]
fn composable_survey_stage_runs_over_compressed_csr() {
    // Each rank surveys its own LocalCsr partition of an orientation built
    // from the compressed view: the kept triangles tile the resident set
    // above the cutoff, and the reduced statistics equal the resident
    // survey's. A one-byte flush threshold ships every wedge check on its
    // own.
    let g = random_graph(13, 80, 700);
    let mut blob = Vec::new();
    encode_graph(&g, &mut blob);
    let view = CsrView::parse(&blob).unwrap();
    let cutoff = 12;
    let (got, (examined, max_min, hist)) =
        survey_ranks(&OrientedGraph::from_ref(&view), cutoff, 3, 1);

    let resident = survey(
        &OrientedGraph::from_graph(&g),
        &SurveyConfig::with_min_weight(cutoff),
        None,
    );
    let expected: Vec<Triangle> = resident.triangles.iter().map(|s| s.triangle).collect();
    assert_eq!(got, expected);
    assert_eq!(examined, resident.total_examined);
    assert_eq!(max_min, resident.max_min_weight);
    assert_eq!(hist, resident.min_weight_log_hist);
}

#[test]
fn neighbor_blocks_roundtrip_against_resident_adjacency() {
    // Degrees beyond one compressed block (128 entries) must decode exactly.
    let g = random_graph(7, 600, 24_000);
    let mut blob = Vec::new();
    encode_graph(&g, &mut blob);
    let view = CsrView::parse(&blob).unwrap();
    for u in 0..g.n_vertices() {
        let mut want: Vec<(u32, u64)> = g.neighbors_iter(u).collect();
        let mut got: Vec<(u32, u64)> = view.neighbors_iter(u).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got, "vertex {u}");
    }
}
