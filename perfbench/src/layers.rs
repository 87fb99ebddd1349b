//! Timed calls into each planning layer's public functions for one query:
//! the parser, the analyzer passes, Algorithm 1's share optimizer, the §5
//! variable-order search, the advisor, and fragment planning + encoding.

use crate::stats;
use parjoin_analyze::PlanSpec;
use parjoin_common::Database;
use parjoin_core::{best_order, OrderCostModel, ShareProblem};
use parjoin_engine::{advise, plan_fragments, Cluster, JoinAlg, PlanOptions, ShuffleAlg};
use parjoin_query::{parser, resolve_atoms, ConjunctiveQuery};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per call; the median is kept.
const REPS: usize = 5;

/// Median microseconds per layer call for one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `query::parser::parse` of the query's Datalog text.
    pub parse_us: f64,
    /// `analyze::analyze` (the pre-flight passes).
    pub preflight_us: f64,
    /// `analyze::certify_spec`.
    pub certify_us: f64,
    /// `ShareProblem::optimize` (Algorithm 1).
    pub hc_shares_us: f64,
    /// `OrderCostModel::from_atoms` + `best_order` (§5).
    pub tj_order_us: f64,
    /// `engine::advise`.
    pub advise_us: f64,
    /// `engine::plan_fragments` + `Fragment::encode` for every rank.
    pub plan_us: f64,
    /// Encoded fragment bytes over all ranks.
    pub fragment_bytes: f64,
}

fn median_us(mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        xs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&xs).unwrap_or(0.0)
}

/// Times every layer call for `query` planned as `shuffle`/`join` over
/// `cluster`. Fails when a call the engine would make fails.
pub fn time_layers(
    query: &ConjunctiveQuery,
    db: &Database,
    cluster: &Cluster,
    shuffle: ShuffleAlg,
    join: JoinAlg,
) -> Result<LayerTimes, String> {
    let name = query.name.clone();
    let text = query.to_string();
    let reparsed = parser::parse(&text).map_err(|e| format!("{name}: reparse failed: {e}"))?;
    if reparsed.atoms.len() != query.atoms.len() {
        return Err(format!("{name}: Datalog text does not round-trip"));
    }
    let parse_us = median_us(|| {
        black_box(parser::parse(black_box(&text)).is_ok());
    });

    let (atoms, _) = resolve_atoms(query, db).map_err(|e| format!("{name}: {e}"))?;
    let cards: Vec<u64> = atoms.iter().map(|a| a.rel.len() as u64).collect();
    let spec = PlanSpec::new(query, cluster.workers, shuffle.into(), join.into())
        .with_cards(cards.clone())
        .with_seed(cluster.seed);
    let preflight_us = median_us(|| {
        black_box(parjoin_analyze::analyze(black_box(&spec)));
    });
    let certify_us = median_us(|| {
        black_box(parjoin_analyze::certify_spec(black_box(&spec)));
    });

    let problem = ShareProblem::from_query(query, &cards);
    let hc_shares_us = median_us(|| {
        black_box(problem.optimize(black_box(cluster.workers)));
    });
    let model_atoms: Vec<_> = atoms
        .iter()
        .map(|a| (a.rel.as_ref(), a.vars.clone()))
        .collect();
    let vars = query.all_vars();
    let tj_order_us = median_us(|| {
        let model = OrderCostModel::from_atoms(black_box(&model_atoms));
        black_box(best_order(&model, &vars));
    });

    let advise_us = median_us(|| {
        black_box(advise(black_box(query), db, cluster));
    });

    // Placeholder data-plane addresses: planning names them but never
    // dials them.
    let addrs: Vec<String> = (0..cluster.workers)
        .map(|r| format!("127.0.0.1:{}", 40_000 + r))
        .collect();
    let opts = PlanOptions {
        collect_output: true,
        ..PlanOptions::default()
    };
    let mut fragment_bytes = 0usize;
    let mut plan_err = None;
    let plan_us =
        median_us(
            || match plan_fragments(query, db, cluster, shuffle, join, &opts, &addrs) {
                Ok(frags) => {
                    fragment_bytes = frags.iter().map(|f| black_box(f.encode()).len()).sum()
                }
                Err(e) => plan_err = Some(e.to_string()),
            },
        );
    if let Some(e) = plan_err {
        return Err(format!("{name}: plan_fragments failed: {e}"));
    }

    Ok(LayerTimes {
        parse_us,
        preflight_us,
        certify_us,
        hc_shares_us,
        tj_order_us,
        advise_us,
        plan_us,
        fragment_bytes: fragment_bytes as f64,
    })
}

/// Records the mean over queries of each layer's median time.
pub fn record(report: &mut crate::report::Report, all: &[LayerTimes]) {
    let n = all.len();
    let mean = |f: fn(&LayerTimes) -> f64| {
        stats::mean(&all.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.set("query.parse_us", mean(|l| l.parse_us), n);
    report.set("analyze.preflight_us", mean(|l| l.preflight_us), n);
    report.set("analyze.certify_us", mean(|l| l.certify_us), n);
    report.set("core.hc_shares_us", mean(|l| l.hc_shares_us), n);
    report.set("core.tj_order_us", mean(|l| l.tj_order_us), n);
    report.set("engine.advise_us", mean(|l| l.advise_us), n);
    report.set("dist.plan_us", mean(|l| l.plan_us), n);
    report.set("dist.fragment_bytes", mean(|l| l.fragment_bytes), n);
}
