//! Distributed triangle surveying over the [`ygm`] runtime.
//!
//! This driver reproduces the *communication structure* of real TriPoll's
//! push-based algorithm: the oriented adjacency is partitioned across ranks by
//! vertex hash (one [`LocalCsr`] per rank); the rank owning wedge apex `u`
//! ships `out(u)` once to every rank that owns some `v ∈ out(u)`, and each of
//! those ranks closes the wedges `(u, v)` it owns by intersecting against its
//! local `out(v)`. A single barrier separates the push superstep from the
//! closing pass.
//!
//! Wedge checks ride the packed shuffle like every other hand-off: each
//! out-list entry is one fixed-width `(u, x, w_ux)` item through a
//! [`PackedAggregator`] labelled `wedge_checks` (so `ygm.wedge_checks.*`
//! counts its bytes, items and batches) into a [`DistRuns`] run stack (so the
//! shuffle budget bounds it and it spills like the rest). The closing rank
//! reads the arrived lists back grouped by apex from the run stack's merge
//! cursor and intersects them straight over its [`LocalCsr`] rows with the
//! shared adaptive kernel — no adjacency copy, no per-triangle message.
//!
//! The survey statistics (examined count, max min-weight, log histogram) are
//! folded *as triangles close*, and only triangles passing the cutoff are
//! kept — below-cutoff triangles never outlive their wedge check
//! ([`SurveyPartial`]).

use coordination_graph::{intersect_indices, LocalCsr};
use ygm::partition::owner_of;
use ygm::{DistRuns, PackedAggregator, PackedBatch, RankCtx};

use crate::enumerate::Triangle;

/// `log2`-bucket histograms pad to the full `u64` range so every rank's
/// partial has the same length for the all-reduce; trailing zeros are trimmed
/// afterwards, reproducing the resident survey's resize-on-write length (its
/// last bucket is always nonzero).
pub const HIST_BUCKETS: usize = 64;

/// Pack a wedge-check item `(u, x, w_ux)` into an order-preserving `u128` run
/// key: numeric order is `(u, x)` order, so the closing rank's merge cursor
/// yields each apex's out-list contiguous and sorted by target.
#[inline]
fn wedge_key(u: u32, x: u32, w: u64) -> u128 {
    ((u as u128) << 96) | ((x as u128) << 64) | w as u128
}

/// Inverse of [`wedge_key`].
#[inline]
fn wedge_from_key(k: u128) -> (u32, u32, u64) {
    ((k >> 96) as u32, (k >> 64) as u32, k as u64)
}

/// One rank's share of a survey: statistics folded over every triangle this
/// rank closed, plus the closed triangles that passed the cutoff (in closing
/// order). [`SurveyPartial::all_reduce`] combines the statistics across
/// ranks; the kept triangles stay where they closed.
#[derive(Clone, Debug)]
pub struct SurveyPartial {
    /// Triangles closed on this rank (before the cutoff).
    pub examined: u64,
    /// Largest minimum edge weight among them (0 if none).
    pub max_min_weight: u64,
    /// `hist[i]` counts closed triangles with `min_weight in [2^i, 2^(i+1))`.
    pub min_weight_log_hist: [u64; HIST_BUCKETS],
    /// Closed triangles with `min_weight() >= cutoff`.
    pub kept: Vec<Triangle>,
}

impl Default for SurveyPartial {
    fn default() -> Self {
        SurveyPartial {
            examined: 0,
            max_min_weight: 0,
            min_weight_log_hist: [0; HIST_BUCKETS],
            kept: Vec::new(),
        }
    }
}

impl SurveyPartial {
    /// Fold one closed triangle with minimum edge weight `mw` into the
    /// statistics; only if it passes `cutoff` is it built (`make`) and kept.
    #[inline]
    fn fold(&mut self, mw: u64, cutoff: u64, make: impl FnOnce() -> Triangle) {
        self.examined += 1;
        self.max_min_weight = self.max_min_weight.max(mw);
        self.min_weight_log_hist[63 - mw.max(1).leading_zeros() as usize] += 1;
        if mw >= cutoff {
            self.kept.push(make());
        }
    }

    /// Collective: the global `(examined, max_min_weight, log_hist)` over all
    /// ranks, the histogram trimmed of trailing empty buckets exactly like
    /// the resident [`crate::survey::survey`]'s. Every rank must call it, in
    /// the same order relative to its other collectives.
    pub fn all_reduce(&self, ctx: &RankCtx) -> (u64, u64, Vec<u64>) {
        let stats = (self.examined, self.max_min_weight, self.min_weight_log_hist);
        let mut examined = 0;
        let mut max_min = 0;
        let mut hist = [0u64; HIST_BUCKETS];
        for (e, m, h) in ctx.all_gather(stats) {
            examined += e;
            max_min = max_min.max(m);
            for (acc, x) in hist.iter_mut().zip(h) {
                *acc += x;
            }
        }
        let used = hist.iter().rposition(|&x| x > 0).map_or(0, |i| i + 1);
        (examined, max_min, hist[..used].to_vec())
    }
}

/// The TriPoll push superstep and closing pass as one composable SPMD stage.
/// Call it from every rank with the rank's oriented partition `csr` (rows of
/// exactly the sources this rank owns under [`ygm::owner_of`], each row
/// sorted by target), a shared `wedges` run stack and the exchange flush
/// threshold; it returns this rank's [`SurveyPartial`].
///
/// * **Push:** for every local apex `u`, `out(u)` is shipped once to each
///   distinct owner of a `v ∈ out(u)`, as `|out(u)|` packed `(u, x, w_ux)`
///   items under the `wedge_checks` label.
/// * **Close** (after the stage's own barrier): the arrived out-lists come
///   back from this rank's run stack grouped by apex; for each `v ∈ out(u)`
///   that is a local row — exactly the `v` this rank owns with out-edges —
///   `out(u) ∩ out(v)` runs through the shared adaptive kernel, and each
///   closed triangle is folded into the partial at once.
///
/// Every triangle closes exactly once, on the owner of its wedge's middle
/// vertex, so the partials tile the triangle set.
pub fn survey_stage(
    ctx: &RankCtx,
    csr: &LocalCsr,
    cutoff: u64,
    wedges: &DistRuns<u128>,
    batch_bytes: usize,
) -> SurveyPartial {
    {
        let runs = wedges.clone();
        let mut checks = PackedAggregator::<(u32, u32, u64), _>::with_batch_bytes(
            ctx,
            "wedge_checks",
            batch_bytes,
            move |inner: &RankCtx, batch: PackedBatch<(u32, u32, u64)>| {
                runs.local_absorb(inner, batch.iter().map(|(u, x, w)| wedge_key(u, x, w)));
            },
        );
        let mut wanted = vec![false; ctx.nranks()];
        for (u, targets, weights) in csr.rows() {
            for &v in targets {
                wanted[owner_of(&v, ctx.nranks())] = true;
            }
            for (dest, want) in wanted.iter_mut().enumerate() {
                if std::mem::take(want) {
                    for (&x, &w) in targets.iter().zip(weights) {
                        checks.push(ctx, dest, (u, x, w));
                    }
                }
            }
        }
        checks.flush_all(ctx);
    }
    ctx.barrier();

    let mut partial = SurveyPartial::default();
    let arrived = wedges.local_take(ctx);
    let mut items = arrived.cursor().map(wedge_from_key).peekable();
    let (mut xs, mut ws): (Vec<u32>, Vec<u64>) = (Vec::new(), Vec::new());
    while let Some(&(u, _, _)) = items.peek() {
        xs.clear();
        ws.clear();
        while let Some((_, x, w)) = items.next_if(|&(apex, _, _)| apex == u) {
            xs.push(x);
            ws.push(w);
        }
        for (&v, &w_uv) in xs.iter().zip(&ws) {
            let Some((v_nbrs, v_ws)) = csr.out(v) else {
                continue;
            };
            intersect_indices(&xs, v_nbrs, &mut |ai, bi| {
                // triangle u–v–x with x = xs[ai]: w_uv, w_ux, w_vx
                let (w_ux, w_vx) = (ws[ai], v_ws[bi]);
                partial.fold(w_uv.min(w_ux).min(w_vx), cutoff, || {
                    Triangle::new(u, v, xs[ai], w_uv, w_ux, w_vx)
                });
            });
        }
    }
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WeightedGraph;
    use crate::orient::OrientedGraph;
    use ygm::World;

    fn random_graph(n: u32, p: f64, seed: u64) -> WeightedGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((a, b, rng.gen_range(1..20u64)));
                }
            }
        }
        WeightedGraph::from_edges(n, edges)
    }

    /// [`survey_stage`] on `nranks` ranks, each over the out-lists of the
    /// vertices it owns: the kept triangles sorted by vertex triple, and the
    /// reduced examined count.
    fn survey_ranks(oriented: &OrientedGraph, cutoff: u64, nranks: usize) -> (Vec<Triangle>, u64) {
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
            let partial = survey_stage(ctx, &csr, cutoff, &wedges, 64 << 10);
            (partial.all_reduce(ctx).0, partial.kept)
        });
        let examined = per_rank[0].0;
        let mut kept: Vec<Triangle> = per_rank.into_iter().flat_map(|(_, k)| k).collect();
        kept.sort_unstable_by_key(|t| t.vertices());
        (kept, examined)
    }

    #[test]
    fn distributed_matches_shared_memory_enumeration() {
        for seed in 0..5 {
            let g = random_graph(40, 0.2, seed);
            let o = OrientedGraph::from_graph(&g);
            let mut expected = Vec::new();
            crate::enumerate::for_each_triangle(&o, |t| expected.push(t));
            expected.sort_unstable_by_key(|t| t.vertices());

            let (kept, examined) = survey_ranks(&o, 1, 4);
            assert_eq!(kept, expected, "seed {seed}");
            assert_eq!(examined, expected.len() as u64);
        }
    }

    #[test]
    fn cutoff_is_applied() {
        let g = WeightedGraph::from_edges(
            5,
            [
                (0, 1, 10),
                (0, 2, 12),
                (1, 2, 15),
                (2, 3, 2),
                (2, 4, 3),
                (3, 4, 5),
            ],
        );
        let o = OrientedGraph::from_graph(&g);
        let (kept, examined) = survey_ranks(&o, 5, 3);
        assert_eq!(examined, 2);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].vertices(), [0, 1, 2]);
    }

    #[test]
    fn works_with_one_rank_and_empty_graph() {
        let g = WeightedGraph::from_edges(4, std::iter::empty());
        let o = OrientedGraph::from_graph(&g);
        let (kept, examined) = survey_ranks(&o, 1, 1);
        assert!(kept.is_empty());
        assert_eq!(examined, 0);
    }

    #[test]
    fn rank_count_does_not_change_results() {
        let g = random_graph(30, 0.3, 99);
        let o = OrientedGraph::from_graph(&g);
        let r1 = survey_ranks(&o, 3, 1);
        let r4 = survey_ranks(&o, 3, 4);
        let r7 = survey_ranks(&o, 3, 7);
        assert_eq!(r1, r4);
        assert_eq!(r4, r7);
    }
}
