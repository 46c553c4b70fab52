//! Output digest: one 64-bit FNV-1a fingerprint over everything a
//! `PipelineOutput` reports — run stats, the CI graph (edges and `P'`), the
//! survey (examined count, max min-weight, log histogram, kept triangles) and
//! the validated triplets with their float scores bit for bit. Two engines
//! agree on an input exactly when their digests agree.

use coordination_core::PipelineOutput;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn words(&mut self, vs: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for v in vs {
            self.word(v);
            n += 1;
        }
        // length-delimit each section so shifted content cannot collide
        self.word(n);
    }
}

/// Fingerprint of a pipeline output; timings are not part of it.
pub fn digest(out: &PipelineOutput) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    let s = &out.stats;
    h.words([
        s.comments_reviewed,
        u64::from(s.total_authors),
        u64::from(s.projected_authors),
        s.ci_edges,
        s.ci_edges_after_threshold,
        s.triangles_examined,
        s.triangles_kept,
        s.triplets_validated,
    ]);
    h.words(
        out.ci
            .edges()
            .flat_map(|(u, v, w)| [u64::from(u) << 32 | u64::from(v), w]),
    );
    h.words(out.ci.page_counts().iter().copied());
    h.words([out.survey.total_examined, out.survey.max_min_weight]);
    h.words(out.survey.min_weight_log_hist.iter().copied());
    h.words(out.survey.triangles.iter().flat_map(|t| {
        let tri = t.triangle;
        [
            u64::from(tri.a) << 32 | u64::from(tri.b),
            u64::from(tri.c),
            tri.w_ab,
            tri.w_ac,
            tri.w_bc,
            t.min_weight,
            t.t_score.to_bits(),
        ]
    }));
    h.words(out.triplets.iter().flat_map(|m| {
        let [a, b, c] = m.authors;
        [
            u64::from(a.0) << 32 | u64::from(b.0),
            u64::from(c.0),
            m.ci_weights[0],
            m.ci_weights[1],
            m.ci_weights[2],
            m.min_ci_weight,
            m.t.to_bits(),
            m.hyper_weight,
            m.c.to_bits(),
            m.page_counts[0],
            m.page_counts[1],
            m.page_counts[2],
        ]
    }));
    h.0
}
