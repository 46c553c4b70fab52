//! The three workloads: how each one's input is generated from a seed (the
//! set-up), the one timed call it makes into the pipeline, the traced twin of
//! that call, and the check its output must pass.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use coordination_core::filter::ExclusionList;
use coordination_core::hypergraph::validate_all;
use coordination_core::ingest::{self, IngestConfig};
use coordination_core::pipeline::{RunStats, StageTimings};
use coordination_core::records::{write_ndjson, Dataset};
use coordination_core::snapshot::write_snapshot;
use coordination_core::store::Snapshot;
use coordination_core::{
    project, AuthorId, DistPipeline, GraphRef, Interner, Pipeline, PipelineConfig, PipelineOutput,
    Window,
};
use redditgen::dist::{DistMonth, DistMonthConfig};
use redditgen::{GroundTruth, ScenarioConfig};
use tripoll::survey::{survey, SurveyConfig};
use tripoll::OrientedGraph;

use crate::digest::digest;

/// Ranks of every `DistPipeline` call (clamped to the core count).
pub const RANKS: usize = 2;

/// Per-label, per-rank resident receive budget of the spill workload.
pub const SPILL_BUDGET: usize = 4 << 20;

/// Scale of the `jan2020` preset (≈276K comments).
const JAN2020_SCALE: f64 = 4.0;

/// Scale of the `oct2016` preset (≈111K comments).
const OCT2016_SCALE: f64 = 3.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `jan2020` NDJSON → `ingest_slice` → resident `Pipeline::run_dataset`.
    Jan2020Ndjson,
    /// `jan2020_large` month snapshot → `Snapshot::open` → budgeted
    /// 2-rank `DistPipeline::run_snapshot`.
    Jan2020LargeSpill,
    /// `oct2016` dataset → 2-rank `DistPipeline::run_dataset`, 1-hour window.
    Oct2016Window1h,
}

const ALL: [Workload; 3] = [
    Workload::Jan2020Ndjson,
    Workload::Jan2020LargeSpill,
    Workload::Oct2016Window1h,
];

/// Map a benchmark seed onto a generator seed: seed 0 is the generator's
/// own default, other seeds step by the golden-ratio increment (so nearby
/// seeds give unrelated streams, including the month's per-block seeds,
/// which XOR the block index into the master seed).
fn mix_seed(default: u64, seed: u64) -> u64 {
    default.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// SplitMix64 step: the benchmark's own small generator for shuffling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle of `xs` driven by `seed`.
fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..xs.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

/// The month generator config of the spill workload at `n_blocks` blocks
/// (256 is the paper-scale month; tests use fewer).
pub fn month_config(seed: u64, n_blocks: usize) -> DistMonthConfig {
    let base = DistMonthConfig::jan2020_large();
    DistMonthConfig {
        seed: mix_seed(base.seed, seed),
        n_blocks,
        ..base
    }
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Jan2020Ndjson => "jan2020_ndjson",
            Workload::Jan2020LargeSpill => "jan2020_large_spill",
            Workload::Oct2016Window1h => "oct2016_window1h",
        }
    }

    pub fn config(self) -> PipelineConfig {
        match self {
            // the CLI `validate` defaults: (0, 60 s), edge threshold 1, cutoff 10
            Workload::Jan2020Ndjson => PipelineConfig::default(),
            Workload::Jan2020LargeSpill => PipelineConfig {
                edge_threshold: 10,
                min_triangle_weight: 10,
                ..PipelineConfig::default()
            },
            // the paper's 1-hour setting
            Workload::Oct2016Window1h => PipelineConfig {
                window: Window::zero_to_1h(),
                edge_threshold: 5,
                min_triangle_weight: 10,
                ..PipelineConfig::default()
            },
        }
    }

    fn dist(self, input: &Input, nranks: usize) -> DistPipeline {
        let dist = DistPipeline::new(self.config(), nranks);
        match input.shuffle_budget {
            Some(bytes) => dist.with_shuffle_budget(bytes),
            None => dist,
        }
    }

    /// Generate the input for `seed` into `dir`. This is the benchmark's
    /// set-up: nothing here is timed as part of a run.
    pub fn prepare(self, seed: u64, dir: &Path) -> Input {
        match self {
            Workload::Jan2020Ndjson | Workload::Oct2016Window1h => {
                // The month itself is the preset's own (its default
                // generator seed); the benchmark seed shuffles the record
                // order, which moves every dense id, CSR layout and rank
                // ownership but not the coordination structure. The
                // presets are heavy-tailed: across generator seeds the
                // jan2020 survey examines 1.0M–4.3M triangles, too wide
                // for any bound to hold (see README).
                let cfg = if self == Workload::Jan2020Ndjson {
                    ScenarioConfig::jan2020(JAN2020_SCALE)
                } else {
                    ScenarioConfig::oct2016(OCT2016_SCALE)
                };
                let mut scenario = cfg.build();
                shuffle(&mut scenario.records, mix_seed(cfg.seed, seed));
                let mut ndjson = Vec::new();
                write_ndjson(&mut ndjson, &scenario.records).expect("serialize NDJSON");
                // the RSS probe child re-reads the input from here
                let path = dir.join(format!("{}.ndjson", self.name()));
                std::fs::write(&path, &ndjson).expect("write NDJSON input");
                let data = if self == Workload::Jan2020Ndjson {
                    Data::Ndjson(ndjson)
                } else {
                    Data::Dataset(scenario.dataset())
                };
                Input {
                    comments: scenario.records.len() as u64,
                    bytes: std::fs::metadata(&path).expect("stat input").len(),
                    path,
                    data,
                    truth: Some(scenario.truth),
                    month: None,
                    shuffle_budget: None,
                }
            }
            Workload::Jan2020LargeSpill => {
                let cfg = month_config(seed, DistMonthConfig::jan2020_large().n_blocks);
                Self::prepare_month(cfg, SPILL_BUDGET, dir)
            }
        }
    }

    /// The month as a COORSNAP snapshot with synthetic names (`u<id>`,
    /// `p<id>`), so snapshot ids equal the generator's dense ids; the timed
    /// call runs it under a `shuffle_budget`-byte receive budget.
    pub fn prepare_month(cfg: DistMonthConfig, shuffle_budget: usize, dir: &Path) -> Input {
        let month = DistMonth::new(cfg.clone());
        let names = |prefix: &str, n: u32| {
            let mut interner = Interner::new();
            for i in 0..n {
                interner.intern(&format!("{prefix}{i}"));
            }
            Arc::new(interner)
        };
        let ds = Dataset {
            authors: names("u", month.total_authors()),
            pages: names("p", month.total_pages()),
            events: month.all_events().collect(),
        };
        let path = dir.join("jan2020_large.snap");
        let summary = write_snapshot(&ds, None, &path).expect("write month snapshot");
        Input {
            comments: month.n_comments(),
            bytes: summary.bytes,
            path,
            data: Data::Snapshot,
            truth: None,
            month: Some(cfg),
            shuffle_budget: Some(shuffle_budget),
        }
    }

    /// The reference output, from the *other* engine on the same input:
    /// a 1-rank `DistPipeline` for the resident workload, the resident
    /// `Pipeline` for the two distributed ones.
    pub fn reference(self, input: &Input) -> PipelineOutput {
        match &input.data {
            Data::Ndjson(bytes) => {
                let text = std::str::from_utf8(bytes).expect("NDJSON is UTF-8");
                self.dist(input, 1).run_text(text).expect("reference parse")
            }
            Data::Snapshot => {
                let snap = Snapshot::open(&input.path).expect("open month snapshot");
                Pipeline::new(self.config()).run_snapshot(&snap)
            }
            Data::Dataset(ds) => Pipeline::new(self.config()).run_dataset(ds),
        }
    }

    /// The one timed operation.
    pub fn run(self, input: &Input, nranks: usize) -> Outcome {
        match &input.data {
            Data::Ndjson(bytes) => {
                let ing = ingest::ingest_slice(bytes, &IngestConfig::default()).expect("ingest");
                let out = Pipeline::new(self.config()).run_dataset(&ing.dataset);
                Outcome {
                    out,
                    authors: Some(Arc::clone(&ing.dataset.authors)),
                }
            }
            Data::Snapshot => {
                let snap = Snapshot::open(&input.path).expect("open month snapshot");
                Outcome {
                    out: self.dist(input, nranks).run_snapshot(&snap),
                    authors: None,
                }
            }
            Data::Dataset(ds) => Outcome {
                out: self.dist(input, nranks).run_dataset(ds),
                authors: Some(Arc::clone(&ds.authors)),
            },
        }
    }

    /// The traced twin of [`Workload::run`], called with `obs` enabled. The
    /// resident path calls each layer in turn, in `Pipeline::run_btm`'s
    /// order, and times it here; the distributed layers sit behind one call,
    /// so their numbers come from the program's own spans and counters.
    /// Returns the outcome and the layer times measured here.
    pub fn run_traced(self, input: &Input, nranks: usize) -> (Outcome, Vec<(&'static str, f64)>) {
        let mut times = Vec::new();
        let mut lap =
            |name: &'static str, t: Instant| times.push((name, t.elapsed().as_secs_f64()));
        match &input.data {
            Data::Ndjson(bytes) => {
                let cfg = self.config();
                let t = Instant::now();
                let ing = ingest::ingest_slice(bytes, &IngestConfig::default()).expect("ingest");
                lap("ingest.s", t);
                let ds = &ing.dataset;

                let t = Instant::now();
                let btm = ds.btm();
                let excluded = ExclusionList::resolve(&cfg.exclusions, ds);
                let btm = if excluded.is_empty() {
                    btm
                } else {
                    btm.without_authors(&excluded)
                };
                lap("btm.s", t);

                let t = Instant::now();
                let ci = project::project(&btm, cfg.window);
                lap("project.s", t);

                let t = Instant::now();
                let (oriented, ci_edges_after_threshold) = if cfg.edge_threshold > 1 {
                    let view = ci.threshold_view(cfg.edge_threshold);
                    (OrientedGraph::from_ref(&view), view.count_edges())
                } else {
                    (OrientedGraph::from_ref(ci.as_csr()), ci.n_edges())
                };
                lap("survey.orient_s", t);

                let t = Instant::now();
                let report = survey(
                    &oriented,
                    &SurveyConfig {
                        min_edge_weight: cfg.min_triangle_weight,
                        min_t_score: cfg.min_t_score,
                        top_k: None,
                    },
                    Some(ci.page_counts()),
                );
                lap("survey.s", t);

                let t = Instant::now();
                let triangles: Vec<tripoll::Triangle> =
                    report.triangles.iter().map(|s| s.triangle).collect();
                let triplets = validate_all(&btm, ci.page_counts(), &triangles);
                lap("validate.s", t);

                let stats = RunStats {
                    comments_reviewed: btm.n_comments(),
                    total_authors: btm.n_authors(),
                    projected_authors: ci.active_authors(),
                    ci_edges: ci.n_edges(),
                    ci_edges_after_threshold,
                    triangles_examined: report.total_examined,
                    triangles_kept: report.len() as u64,
                    triplets_validated: triplets.len() as u64,
                };
                times.push((
                    "ingest.fallback_ratio",
                    ing.stats.scanner_fallbacks as f64 / ing.stats.lines.max(1) as f64,
                ));
                let out = PipelineOutput {
                    ci,
                    survey: report,
                    triplets,
                    stats,
                    timings: StageTimings::default(),
                };
                let authors = Some(Arc::clone(&ing.dataset.authors));
                (Outcome { out, authors }, times)
            }
            Data::Snapshot => {
                let t = Instant::now();
                let snap = Snapshot::open(&input.path).expect("open month snapshot");
                lap("store.open_s", t);
                let out = self.dist(input, nranks).run_snapshot(&snap);
                (Outcome { out, authors: None }, times)
            }
            Data::Dataset(_) => (self.run(input, nranks), times),
        }
    }

    /// Check one run's output: its digest must equal the reference, and on
    /// the month every planted clique triple must be kept with `w_xyz`
    /// equal to the clique's burst count.
    pub fn check(self, input: &Input, outcome: &Outcome, reference: u64) -> Result<(), String> {
        let got = digest(&outcome.out);
        if got != reference {
            return Err(format!(
                "output digest {got:016x} differs from the reference {reference:016x}"
            ));
        }
        if let Some(cfg) = &input.month {
            let kept = clique_triples(cfg, &outcome.out);
            let want = planted_triples(cfg);
            if let Some(t) = want
                .iter()
                .find(|t| kept.get(*t) != Some(&u64::from(cfg.bursts_per_clique)))
            {
                return Err(format!(
                    "planted triple {t:?} kept with w_xyz {:?}, expected {}",
                    kept.get(t),
                    cfg.bursts_per_clique
                ));
            }
        }
        Ok(())
    }

    /// Share of planted accounts that appear in a kept triplet whose three
    /// members are all planted in the same family.
    pub fn planted_recall(self, input: &Input, outcome: &Outcome) -> f64 {
        if let Some(cfg) = &input.month {
            let members: std::collections::HashSet<u32> = clique_triples(cfg, &outcome.out)
                .keys()
                .flatten()
                .copied()
                .collect();
            return members.len() as f64 / f64::from(cfg.n_cliques * cfg.clique_size);
        }
        let truth = input.truth.as_ref().expect("presets carry ground truth");
        let authors = outcome
            .authors
            .as_ref()
            .expect("presets carry author names");
        truth
            .evaluate(
                outcome
                    .out
                    .triplets
                    .iter()
                    .map(|m| m.authors.map(|a: AuthorId| authors.name(a.0))),
            )
            .member_recall
    }
}

/// One workload's generated input.
pub struct Input {
    /// Comments in the input.
    pub comments: u64,
    /// Size of the serialized input (NDJSON or snapshot) in bytes.
    pub bytes: u64,
    /// Where the serialized input was written.
    pub path: PathBuf,
    data: Data,
    truth: Option<GroundTruth>,
    month: Option<DistMonthConfig>,
    shuffle_budget: Option<usize>,
}

enum Data {
    /// NDJSON bytes held in memory.
    Ndjson(Vec<u8>),
    /// The snapshot at `Input::path`, opened by the timed call.
    Snapshot,
    /// An interned dataset held in memory.
    Dataset(Dataset),
}

/// What one call produced: the output, plus the author names it refers to.
pub struct Outcome {
    pub out: PipelineOutput,
    authors: Option<Arc<Interner>>,
}

/// Every 3-subset of every planted clique, as ascending author ids.
fn planted_triples(cfg: &DistMonthConfig) -> Vec<[u32; 3]> {
    let mut out = Vec::new();
    for k in 0..cfg.n_cliques {
        let base = cfg.organic_authors + k * cfg.clique_size;
        for a in 0..cfg.clique_size {
            for b in a + 1..cfg.clique_size {
                for c in b + 1..cfg.clique_size {
                    out.push([base + a, base + b, base + c]);
                }
            }
        }
    }
    out
}

/// Kept triplets whose three authors belong to one planted clique, with
/// their `w_xyz`.
fn clique_triples(cfg: &DistMonthConfig, out: &PipelineOutput) -> HashMap<[u32; 3], u64> {
    let clique_of = |a: u32| {
        a.checked_sub(cfg.organic_authors)
            .map(|off| off / cfg.clique_size)
            .filter(|&k| k < cfg.n_cliques)
    };
    out.triplets
        .iter()
        .filter_map(|m| {
            let ids = m.authors.map(|a| a.0);
            let k = clique_of(ids[0])?;
            (clique_of(ids[1]) == Some(k) && clique_of(ids[2]) == Some(k))
                .then_some((ids, m.hyper_weight))
        })
        .collect()
}

/// Read an input file back for the RSS probe child (only NDJSON and the
/// snapshot path are needed; the child regenerates nothing).
pub fn child_input(workload: Workload, path: &Path) -> Input {
    match workload {
        Workload::Jan2020LargeSpill => Input {
            comments: 0,
            bytes: 0,
            path: path.to_path_buf(),
            data: Data::Snapshot,
            truth: None,
            month: None,
            shuffle_budget: Some(SPILL_BUDGET),
        },
        Workload::Jan2020Ndjson | Workload::Oct2016Window1h => {
            let bytes = std::fs::read(path).expect("read NDJSON input");
            let data = if workload == Workload::Jan2020Ndjson {
                Data::Ndjson(bytes)
            } else {
                // parallel ingest reproduces the serial reader's dense ids,
                // so this is the dataset the parent generated
                let ing = ingest::ingest_slice(&bytes, &IngestConfig::default()).expect("ingest");
                Data::Dataset(ing.dataset)
            };
            Input {
                comments: 0,
                bytes: 0,
                path: path.to_path_buf(),
                data,
                truth: None,
                month: None,
                shuffle_budget: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{layer_values, Class, PER_LAYER};

    /// Every count the metric table calls exact repeats across two
    /// identical traced runs of a spilling month (a 250K-comment month of
    /// the same shape, under a budget small enough to spill).
    #[test]
    fn exact_counts_repeat() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        let input = Workload::prepare_month(month_config(7, 32), 256 << 10, &dir);
        let w = Workload::Jan2020LargeSpill;
        let run = || {
            obs::reset();
            obs::Obs::enable();
            let (outcome, times) = w.run_traced(&input, 2);
            obs::Obs::disable();
            layer_values(&input, &outcome, &times, &obs::snapshot())
        };
        let (a, b) = (run(), run());
        std::fs::remove_dir_all(&dir).ok();
        assert!(a["shuffle.spill_segments"] > 0.0, "the month never spilled");
        for m in PER_LAYER.iter().filter(|m| m.class == Class::Exact) {
            assert_eq!(
                a.get(m.name),
                b.get(m.name),
                "{} differs across runs",
                m.name
            );
        }
    }
}
