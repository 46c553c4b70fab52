//! The metric tables (names, units and how far each value can be trusted to
//! repeat) and the per-layer values one traced run yields.

use std::collections::BTreeMap;

use obs::Snapshot;

use crate::workloads::{Input, Outcome};

/// How a metric behaves across identical runs of the same seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A wall time, or a rate or ratio derived from one.
    Time,
    /// A count (or a ratio of counts) that repeats exactly across identical
    /// runs — observed, not assumed: see the `exact_counts_repeat` test.
    Exact,
    /// A count that depends on thread timing (when a rank's receive buffer
    /// crossed the budget, which pooled buffer was free).
    TimingDependent,
}

impl Class {
    pub fn describe(self) -> &'static str {
        match self {
            Class::Time => "time",
            Class::Exact => "exact",
            Class::TimingDependent => "timing-dependent",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub class: Class,
}

const fn m(name: &'static str, unit: &'static str, class: Class) -> Metric {
    Metric { name, unit, class }
}

/// Reported with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("comments_per_s", "comments/s", Class::Time),
    m("run_s", "s", Class::Time),
    m("peak_rss_mb", "MiB", Class::Time),
    m("setup_s", "s", Class::Time),
    m("planted_recall", "ratio", Class::Exact),
];

/// Reported with `--trace 1`. A layer that does not run on a workload
/// reports 0 there. The `ygm.<label>.*` rows name the shuffle labels of
/// `DistPipeline`; labels the program adds later are read by prefix and
/// printed in the text report, marked as not listed here.
pub const PER_LAYER: &[Metric] = &[
    // core::ingest
    m("ingest.s", "s", Class::Time),
    m("ingest.mb_per_s", "MB/s", Class::Time),
    m("ingest.fallback_ratio", "ratio", Class::Exact),
    // core::pipeline
    m("btm.s", "s", Class::Time),
    // core::project
    m("project.s", "s", Class::Time),
    m("project.pair_occurrences", "count", Class::Exact),
    m("project.dedup_ratio", "ratio", Class::Exact),
    // tripoll
    m("survey.orient_s", "s", Class::Time),
    m("survey.s", "s", Class::Time),
    m("survey.triangles_examined", "count", Class::Exact),
    m("survey.keep_ratio", "ratio", Class::Exact),
    // core::hypergraph
    m("validate.s", "s", Class::Time),
    m("validate.triplets", "count", Class::Exact),
    // store
    m("store.open_s", "s", Class::Time),
    m("shuffle.spill_segments", "count", Class::TimingDependent),
    m("shuffle.spilled_mb", "MB", Class::TimingDependent),
    // ygm
    m("shuffle.merge_passes", "count", Class::TimingDependent),
    m("ygm.pool_hit_ratio", "ratio", Class::TimingDependent),
    m("ygm.bytes_sent", "count", Class::Exact),
    m("ygm.items_sent", "count", Class::Exact),
    m("ygm.batches_sent", "count", Class::Exact),
    m(
        "ygm.author_pages_on_demand.bytes_sent",
        "count",
        Class::Exact,
    ),
    m(
        "ygm.author_pages_on_demand.items_sent",
        "count",
        Class::Exact,
    ),
    m(
        "ygm.author_pages_on_demand.batches_sent",
        "count",
        Class::Exact,
    ),
    m("ygm.events_to_pages.bytes_sent", "count", Class::Exact),
    m("ygm.events_to_pages.items_sent", "count", Class::Exact),
    m("ygm.events_to_pages.batches_sent", "count", Class::Exact),
    m("ygm.oriented_edges.bytes_sent", "count", Class::Exact),
    m("ygm.oriented_edges.items_sent", "count", Class::Exact),
    m("ygm.oriented_edges.batches_sent", "count", Class::Exact),
    m("ygm.pair_occurrences.bytes_sent", "count", Class::Exact),
    m("ygm.pair_occurrences.items_sent", "count", Class::Exact),
    m("ygm.pair_occurrences.batches_sent", "count", Class::Exact),
    // core::dist_pipeline (slowest rank)
    m("dist.ingest_s", "s", Class::Time),
    m("dist.exchange_s", "s", Class::Time),
    m("dist.project_s", "s", Class::Time),
    m("dist.survey_s", "s", Class::Time),
    m("dist.validate_s", "s", Class::Time),
    m("dist.ghost_vertices", "count", Class::Exact),
    // the trace itself
    m("trace.run_s", "s", Class::Time),
    m("trace.overhead_ratio", "ratio", Class::Time),
];

/// Per-layer values of one traced run: the layer times the benchmark took
/// around its own calls (`times`), the output's exact counts, and the
/// program's spans and counters from `snap`. Shuffle counters are read by
/// prefix, so every label the program registers shows up.
pub fn layer_values(
    input: &Input,
    outcome: &Outcome,
    times: &[(&'static str, f64)],
    snap: &Snapshot,
) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = times.iter().map(|&(k, x)| (k.to_string(), x)).collect();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let stats = &outcome.out.stats;

    if let Some(&secs) = v.get("ingest.s") {
        v.insert("ingest.mb_per_s".into(), input.bytes as f64 / 1e6 / secs);
    }
    let occurrences = counter("project.pair_occurrences");
    if v.contains_key("project.s") {
        v.insert("project.pair_occurrences".into(), occurrences);
        v.insert(
            "project.dedup_ratio".into(),
            stats.ci_edges as f64 / occurrences.max(1.0),
        );
    }
    let examined = stats.triangles_examined as f64;
    v.insert("survey.triangles_examined".into(), examined);
    v.insert(
        "survey.keep_ratio".into(),
        stats.triangles_kept as f64 / examined.max(1.0),
    );
    v.insert("validate.triplets".into(), stats.triplets_validated as f64);

    v.insert(
        "shuffle.spill_segments".into(),
        counter("shuffle.spill_segments"),
    );
    v.insert(
        "shuffle.spilled_mb".into(),
        counter("shuffle.spilled_bytes") / 1e6,
    );
    v.insert(
        "shuffle.merge_passes".into(),
        counter("shuffle.merge_passes"),
    );
    let (hits, misses) = (counter("ygm.pool_hits"), counter("ygm.pool_misses"));
    if hits + misses > 0.0 {
        v.insert("ygm.pool_hit_ratio".into(), hits / (hits + misses));
    }
    for (name, value) in &snap.counters {
        let sent = ["bytes_sent", "items_sent", "batches_sent"]
            .iter()
            .any(|s| name.strip_prefix("ygm.").is_some_and(|r| r.ends_with(s)));
        if sent {
            v.insert(name.clone(), *value as f64);
        }
    }
    for stage in ["ingest", "exchange", "project", "survey", "validate"] {
        let label = format!("dist.{stage}");
        if let Some(span) = snap.span(&label) {
            // one entry per rank, so the longest entry is the slowest rank
            v.insert(format!("{label}_s"), span.max_seconds());
        }
    }
    if snap.span("dist.exchange").is_some() {
        v.insert("dist.ghost_vertices".into(), counter("dist.ghost_vertices"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these tables.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        // (name, unit) pairs of one section, in order
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            let field = |entry: &str, f: &str| {
                let at = entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                entry[at..]
                    .split('"')
                    .next()
                    .expect("quoted value")
                    .to_string()
            };
            text[start..end]
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect::<Vec<_>>()
        };
        let pairs = |t: &[Metric]| {
            t.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), pairs(END_TO_END));
        assert_eq!(section("per_layer"), pairs(PER_LAYER));
    }
}
