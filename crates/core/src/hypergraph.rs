//! Step 3: hypergraph validation of candidate triplets.
//!
//! Once steps 1–2 have pruned the `O(|U|³)` triplet space to a short list of
//! high-weight triangles, the pipeline returns to the original bipartite data
//! and computes the *true* multiway interaction counts: `w_xyz` (Eq. 2) is the
//! size of the three-way intersection of the authors' page lists, and the
//! normalized score `C(x,y,z)` (Eq. 4) divides by their total page counts.
//! Note there is deliberately no time bound here — the paper validates spatial
//! coordination only (its §4.2 names time-windowed hyperedges as future work).

use std::ops::Range;

use rayon::prelude::*;

use crate::btm::Btm;
use crate::ids::{AuthorId, PageId};
use crate::metrics::{c_score, TripletMetrics};
use tripoll::survey::t_score;
use tripoll::Triangle;

/// Size of the intersection of three sorted, deduplicated page lists —
/// `w_xyz`, the number of pages where all three authors commented.
///
/// Built on the shared adaptive kernel ([`coordination_graph::intersect`]):
/// the two shortest lists are intersected first (linear merge or galloping,
/// chosen by their length ratio), and each survivor is located in the longest
/// list with a monotone gallop. Page lists are heavily skewed in practice —
/// a hyperactive author's list can be orders of magnitude longer than a
/// bot's — which is exactly the shape where the old three-cursor linear scan
/// paid `O(|longest|)` for nothing. Same result as
/// [`triple_intersection_count_linear`], pinned by property test.
pub fn triple_intersection_count(a: &[PageId], b: &[PageId], c: &[PageId]) -> u64 {
    use coordination_graph::intersect::{gallop_search, intersect_indices};
    let mut lists = [a, b, c];
    lists.sort_unstable_by_key(|l| l.len());
    let [s, m, l] = lists;
    if s.is_empty() {
        return 0;
    }
    let mut n = 0u64;
    // Matches of s ∩ m arrive ascending, so the cursor into the longest list
    // only moves forward: total gallop work is O(|s∩m| · log gap), bounded by
    // O(|l|).
    let mut from = 0usize;
    intersect_indices(s, m, &mut |si, _| {
        if from < l.len() {
            match gallop_search(l, from, &s[si]) {
                Ok(i) => {
                    n += 1;
                    from = i + 1;
                }
                Err(i) => from = i,
            }
        }
    });
    n
}

/// The original three-cursor linear merge — reference implementation the
/// adaptive kernel is pinned to (and the kernel-ablation bench baseline).
pub fn triple_intersection_count_linear(a: &[PageId], b: &[PageId], c: &[PageId]) -> u64 {
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    let mut n = 0u64;
    while i < a.len() && j < b.len() && k < c.len() {
        let (x, y, z) = (a[i], b[j], c[k]);
        let m = x.min(y).min(z);
        if x == y && y == z {
            n += 1;
            i += 1;
            j += 1;
            k += 1;
        } else {
            if x == m {
                i += 1;
            }
            if y == m {
                j += 1;
            }
            if z == m {
                k += 1;
            }
        }
    }
    n
}

/// `w_xyz` for three authors straight from the BTM.
pub fn hyperedge_weight(btm: &Btm, x: AuthorId, y: AuthorId, z: AuthorId) -> u64 {
    triple_intersection_count(
        btm.author_pages(x),
        btm.author_pages(y),
        btm.author_pages(z),
    )
}

/// Validate one surveyed triangle: combine its CI metadata (weights and `P'`)
/// with the hypergraph measures computed from `btm` — [`validate_triangles`]
/// on a one-element list.
pub fn validate_triangle(btm: &Btm, ci_page_counts: &[u64], t: &Triangle) -> TripletMetrics {
    validate_triangles(std::slice::from_ref(t), ci_page_counts, |a| {
        btm.author_pages(AuthorId(a))
    })
    .pop()
    .expect("one triangle in, one triplet out")
}

/// The validation kernel both engines run: compute [`TripletMetrics`] for
/// each triangle from the authors' sorted, deduplicated page lists
/// (`pages(x)` borrows author `x`'s list) and the global `P'` vector, aligned
/// with `triangles`.
///
/// Triangles are taken in runs of consecutive entries sharing their two
/// lowest vertices `(a, b)`. A run computes `P_a ∩ P_b` once, and each of
/// its triangles counts `w_xyz = |(P_a ∩ P_b) ∩ P_c|`: by a branch-free scan
/// of `P_c` against a bitset of `P_a ∩ P_b`, or — when `P_c` is more than
/// 64× longer — by galloping through the adaptive kernel. A run of one
/// falls back to [`triple_intersection_count`]. Any order is correct — the
/// counts are the same integers either way — and a vertex-sorted list (the
/// survey's order) makes every shared prefix a single run. Both the resident
/// [`validate_all`] (pages borrowed from a [`Btm`]) and the distributed
/// pipeline (pages borrowed from the harvested owner shards) call this, so
/// the floating-point expressions are the same by construction.
pub fn validate_triangles<'p>(
    triangles: &[Triangle],
    ci_page_counts: &[u64],
    pages: impl Fn(u32) -> &'p [PageId],
) -> Vec<TripletMetrics> {
    use coordination_graph::intersect::{intersect_count, intersect_indices};
    let mut out = Vec::with_capacity(triangles.len());
    let mut ab: Vec<PageId> = Vec::new();
    let mut ab_bits = PageBits::default();
    for run in triangles.chunk_by(|x, y| (x.a, x.b) == (y.a, y.b)) {
        let (pa, pb) = (pages(run[0].a), pages(run[0].b));
        if let [t] = run {
            let pc = pages(t.c);
            let w_xyz = triple_intersection_count(pa, pb, pc);
            out.push(triplet_metrics(t, w_xyz, [pa, pb, pc], ci_page_counts));
            continue;
        }
        ab.clear();
        intersect_indices(pa, pb, &mut |i, _| ab.push(pa[i]));
        ab_bits.insert(&ab);
        for t in run {
            let pc = pages(t.c);
            let w_xyz = if pc.len() > BITSET_SCAN_RATIO * ab.len() {
                intersect_count(&ab, pc)
            } else {
                ab_bits.count(pc)
            };
            out.push(triplet_metrics(t, w_xyz, [pa, pb, pc], ci_page_counts));
        }
        ab_bits.remove(&ab);
    }
    out
}

/// Length ratio `|P_c| / |P_a ∩ P_b|` above which [`validate_triangles`]
/// gallops from the short side instead of scanning `P_c` against the bitset.
/// A bit test costs about a nanosecond and a gallop step several (it
/// mispredicts), so the crossover sits far above the merge-vs-gallop
/// [`coordination_graph::intersect::GALLOP_RATIO`]: on `oct2016_window1h`
/// (2-rank `DistPipeline`) raising it from 8 to 64 cut rank 0's kernel time
/// by about a fifth.
const BITSET_SCAN_RATIO: usize = 64;

/// A bitset over page ids holding one run's `P_a ∩ P_b`. Counting a third
/// list against it costs one bit test per page with no data-dependent
/// branch, where a merge of two comparable lists mispredicts on most steps.
#[derive(Default)]
struct PageBits {
    words: Vec<u64>,
    /// One past the largest page id inserted; ids at or above it are absent.
    end: u64,
}

impl PageBits {
    /// Insert a sorted page list (the set must be empty).
    fn insert(&mut self, pages: &[PageId]) {
        self.end = pages.last().map_or(0, |p| u64::from(p.0) + 1);
        let need = (self.end as usize).div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        for p in pages {
            self.words[(p.0 / 64) as usize] |= 1 << (p.0 % 64);
        }
    }

    /// Remove the list last inserted, leaving the set empty.
    fn remove(&mut self, pages: &[PageId]) {
        for p in pages {
            self.words[(p.0 / 64) as usize] = 0;
        }
        self.end = 0;
    }

    /// `|set ∩ pages|` for a sorted page list.
    fn count(&self, pages: &[PageId]) -> u64 {
        let below = pages.partition_point(|p| u64::from(p.0) < self.end);
        pages[..below]
            .iter()
            .map(|p| (self.words[(p.0 / 64) as usize] >> (p.0 % 64)) & 1)
            .sum()
    }
}

/// Assemble one triangle's metrics from its three-way page intersection
/// `w_xyz` and the authors' page lists (`pages[i]` belongs to
/// `t.vertices()[i]`).
fn triplet_metrics(
    t: &Triangle,
    w_xyz: u64,
    pages: [&[PageId]; 3],
    ci_page_counts: &[u64],
) -> TripletMetrics {
    let [a, b, c] = t.vertices();
    let [pa, pb, pc] = pages.map(|p| p.len() as u64);
    let min_w = t.min_weight();
    TripletMetrics {
        authors: [AuthorId(a), AuthorId(b), AuthorId(c)],
        ci_weights: t.edge_weights(),
        min_ci_weight: min_w,
        t: t_score(
            min_w,
            ci_page_counts[a as usize],
            ci_page_counts[b as usize],
            ci_page_counts[c as usize],
        ),
        hyper_weight: w_xyz,
        c: c_score(w_xyz, pa, pb, pc),
        page_counts: [pa, pb, pc],
    }
}

/// Validate a batch of triangles in parallel, returning metrics in the same
/// order. The list is cut into chunks that never split a run of shared
/// `(a, b)` prefixes, and each chunk runs [`validate_triangles`].
pub fn validate_all(
    btm: &Btm,
    ci_page_counts: &[u64],
    triangles: &[Triangle],
) -> Vec<TripletMetrics> {
    let _stage = obs::span("validate");
    let chunks = prefix_aligned_chunks(triangles, 4 * rayon::current_num_threads());
    let metrics: Vec<TripletMetrics> = chunks
        .par_iter()
        .map(|r| {
            validate_triangles(&triangles[r.clone()], ci_page_counts, |a| {
                btm.author_pages(AuthorId(a))
            })
        })
        .collect::<Vec<Vec<TripletMetrics>>>()
        .concat();
    obs::counter("validate.triplets").add(metrics.len() as u64);
    obs::record_stage_rss("validate");
    metrics
}

/// Cut `0..triangles.len()` into about `pieces` contiguous ranges, moving
/// each cut forward past any run of triangles sharing their `(a, b)` prefix.
fn prefix_aligned_chunks(triangles: &[Triangle], pieces: usize) -> Vec<Range<usize>> {
    let n = triangles.len();
    let target = n.div_ceil(pieces.max(1)).max(1);
    let prefix = |i: usize| (triangles[i].a, triangles[i].b);
    let mut chunks = Vec::new();
    let mut lo = 0;
    while lo < n {
        let mut hi = (lo + target).min(n);
        while hi < n && prefix(hi) == prefix(hi - 1) {
            hi += 1;
        }
        chunks.push(lo..hi);
        lo = hi;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Event;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    fn pages(ids: &[u32]) -> Vec<PageId> {
        ids.iter().map(|&i| p(i)).collect()
    }

    #[test]
    fn triple_intersection_basics() {
        assert_eq!(
            triple_intersection_count(&pages(&[1, 2, 3]), &pages(&[2, 3, 4]), &pages(&[3, 4, 5])),
            1
        );
        assert_eq!(
            triple_intersection_count(&pages(&[1, 2]), &pages(&[1, 2]), &pages(&[1, 2])),
            2
        );
        assert_eq!(
            triple_intersection_count(&pages(&[1]), &pages(&[2]), &pages(&[3])),
            0
        );
        assert_eq!(
            triple_intersection_count(&[], &pages(&[1]), &pages(&[1])),
            0
        );
    }

    #[test]
    fn triple_intersection_matches_hashset_reference() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let mk = |rng: &mut rand_chacha::ChaCha8Rng| {
                let mut v: Vec<u32> = (0..rng.gen_range(0..40))
                    .map(|_| rng.gen_range(0..60))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
            let sa: HashSet<u32> = a.iter().copied().collect();
            let sb: HashSet<u32> = b.iter().copied().collect();
            let expect = c
                .iter()
                .filter(|x| sa.contains(x) && sb.contains(x))
                .count() as u64;
            assert_eq!(
                triple_intersection_count(&pages(&a), &pages(&b), &pages(&c)),
                expect
            );
        }
    }

    fn coordinated_btm() -> Btm {
        // authors 0,1,2 comment together on pages 0..4; author 0 also roams
        // pages 4..10 alone.
        let mut events = Vec::new();
        for page in 0..4u32 {
            for a in 0..3u32 {
                events.push(Event::new(
                    AuthorId(a),
                    PageId(page),
                    (page * 100 + a) as i64,
                ));
            }
        }
        for page in 4..10u32 {
            events.push(Event::new(AuthorId(0), PageId(page), page as i64 * 1000));
        }
        Btm::from_events(3, 10, &events)
    }

    #[test]
    fn hyperedge_weight_counts_shared_pages() {
        let btm = coordinated_btm();
        assert_eq!(
            hyperedge_weight(&btm, AuthorId(0), AuthorId(1), AuthorId(2)),
            4
        );
    }

    #[test]
    fn validate_combines_both_layers() {
        let btm = coordinated_btm();
        let tri = Triangle::new(0, 1, 2, 4, 4, 4);
        let ci_pages = vec![4u64, 4, 4];
        let m = validate_triangle(&btm, &ci_pages, &tri);
        assert_eq!(m.hyper_weight, 4);
        assert_eq!(m.min_ci_weight, 4);
        // T = 3*4/(4+4+4) = 1
        assert!((m.t - 1.0).abs() < 1e-12);
        // p_0 = 10, p_1 = p_2 = 4 → C = 3*4/18
        assert_eq!(m.page_counts, [10, 4, 4]);
        assert!((m.c - 12.0 / 18.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&m.c));
        assert!((0.0..=1.0).contains(&m.t));
    }

    #[test]
    fn validate_all_preserves_order() {
        let btm = coordinated_btm();
        let t1 = Triangle::new(0, 1, 2, 4, 4, 4);
        let t2 = Triangle::new(0, 1, 2, 1, 2, 3);
        let ci_pages = vec![4u64, 4, 4];
        let ms = validate_all(&btm, &ci_pages, &[t1, t2]);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].min_ci_weight, 4);
        assert_eq!(ms[1].min_ci_weight, 1);
    }

    /// Page lists from `seed`: a few hyperactive authors with long lists and
    /// many short ones, all over one small page space so they overlap.
    fn skewed_page_lists(seed: u64, n_authors: u32) -> Vec<Vec<PageId>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n_authors)
            .map(|_| {
                let len = if rng.gen_bool(0.25) {
                    rng.gen_range(200..1500)
                } else {
                    rng.gen_range(0..25)
                };
                let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..2000)).collect();
                v.sort_unstable();
                v.dedup();
                pages(&v)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The shared-prefix kernel gives every triangle exactly the
        /// per-triangle linear reference's `w_xyz` and bit-identical `C` and
        /// `T`, on unsorted lists whose `(a, b)` prefixes repeat (in runs and
        /// scattered) over skewed page lists.
        #[test]
        fn shared_prefix_validator_matches_per_triangle_linear(
            seed in 0u64..u64::MAX,
            n_authors in 3u32..12,
            picks in proptest::collection::vec((0u32..64, 0u32..64, 1u64..40), 1..120),
        ) {
            let lists = skewed_page_lists(seed, n_authors);
            let ci_pages: Vec<u64> = lists.iter().map(|l| l.len() as u64 + 1).collect();
            // Few prefixes, many third vertices: prefix `i % 4` repeats in
            // both adjacent runs (consecutive picks) and scattered entries.
            let triangles: Vec<Triangle> = picks
                .iter()
                .filter_map(|&(prefix, c, w)| {
                    let a = prefix % 4 % n_authors;
                    let b = (a + 1 + prefix / 4 % 2) % n_authors;
                    let c = c % n_authors;
                    (a != b && b != c && a != c).then(|| Triangle::new(a, b, c, w, w + 1, w + 2))
                })
                .collect();
            let got = validate_triangles(&triangles, &ci_pages, |a| &lists[a as usize]);
            proptest::prop_assert_eq!(got.len(), triangles.len());
            for (t, m) in triangles.iter().zip(&got) {
                let [a, b, c] = t.vertices().map(|x| &lists[x as usize]);
                let w = triple_intersection_count_linear(a, b, c);
                let [pa, pb, pc] = [a, b, c].map(|l| l.len() as u64);
                let [ca, cb, cc] = t.vertices().map(|x| ci_pages[x as usize]);
                proptest::prop_assert_eq!(m.hyper_weight, w);
                proptest::prop_assert_eq!(m.page_counts, [pa, pb, pc]);
                proptest::prop_assert_eq!(m.c.to_bits(), c_score(w, pa, pb, pc).to_bits());
                proptest::prop_assert_eq!(
                    m.t.to_bits(),
                    t_score(t.min_weight(), ca, cb, cc).to_bits()
                );
            }
        }
    }

    #[test]
    fn prefix_aligned_chunks_never_split_a_prefix() {
        let mut triangles = Vec::new();
        for a in 0..5u32 {
            for c in 0..(a * 3 + 1) {
                triangles.push(Triangle::new(a, 10, 20 + c, 1, 1, 1));
            }
        }
        for pieces in 1..12 {
            let chunks = prefix_aligned_chunks(&triangles, pieces);
            assert_eq!(chunks.first().map(|r| r.start), Some(0));
            assert_eq!(chunks.last().map(|r| r.end), Some(triangles.len()));
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                let (x, y) = (triangles[pair[0].end - 1], triangles[pair[1].start]);
                assert_ne!((x.a, x.b), (y.a, y.b), "{pieces} pieces split a prefix");
            }
        }
        assert!(prefix_aligned_chunks(&[], 4).is_empty());
    }

    #[test]
    fn hyper_weight_bounded_by_min_page_count() {
        let btm = coordinated_btm();
        let w = hyperedge_weight(&btm, AuthorId(0), AuthorId(1), AuthorId(2));
        let min_p = btm
            .page_count(AuthorId(0))
            .min(btm.page_count(AuthorId(1)))
            .min(btm.page_count(AuthorId(2)));
        assert!(w <= min_p);
    }
}
