//! The planner's statistics and order search against naive references.
//!
//! * `AtomStats::compute` (the chain-sort kernel) equals one
//!   `project().distinct()` per column subset.
//! * `best_order` (the pruned depth-first search) equals evaluating every
//!   permutation with `OrderCostModel::cost`: the same order, the same
//!   cost bits.
//! * `plan_fragments` — the planner the local executor shares — makes the
//!   decisions a reference planner makes from naive statistics, and
//!   statistics shared between a self-join's atoms never describe a
//!   different atom's relation.
//! * Plans over more than ten variables fall back to sampled orders
//!   instead of panicking.

use parjoin::core::hypercube::AtomShape;
use parjoin::core::order::{AtomStats, EXHAUSTIVE_ORDER_LIMIT};
use parjoin::engine::plan_fragments;
use parjoin::engine::plans::greedy_join_order;
use parjoin::prelude::*;
use parjoin::query::resolve_atoms;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// SplitMix64: a seeded generator small enough to inline.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_relation(rng: &mut Rng, arity: usize, rows: usize, domain: u64) -> Relation {
    let mut rel = Relation::new(arity);
    if arity == 0 {
        rel.push_nullary_rows(rows);
        return rel;
    }
    for _ in 0..rows {
        let row: Vec<u64> = (0..arity).map(|_| rng.below(domain)).collect();
        rel.push_row(&row);
    }
    rel
}

/// One `project().distinct()` per column subset, and a frequency map per
/// column for the hottest value.
fn naive_stats(rel: &Relation) -> AtomStats {
    let arity = rel.arity();
    let counts = (0..1usize << arity)
        .map(|mask| {
            if mask == 0 {
                return 1; // the empty projection
            }
            let cols: Vec<usize> = (0..arity).filter(|c| mask & (1 << c) != 0).collect();
            rel.project(&cols).distinct().len() as u64
        })
        .collect();
    let top = (0..arity)
        .map(|c| {
            let mut freq: BTreeMap<u64, u64> = BTreeMap::new();
            for row in rel.rows() {
                *freq.entry(row[c]).or_default() += 1;
            }
            freq.values().max().copied().unwrap_or(0)
        })
        .collect();
    AtomStats::from_counts(counts, top)
}

#[test]
fn chain_sort_stats_equal_naive_distinct_counts() {
    let mut rng = Rng(0x5eed);
    let mut cases: Vec<Relation> = vec![
        Relation::new(0),
        random_relation(&mut rng, 0, 5, 1),
        Relation::new(3),
    ];
    for arity in 1..=4 {
        for &(rows, domain) in &[(1, 10), (17, 3), (300, 1 << 20), (3000, 5), (3000, 400)] {
            cases.push(random_relation(&mut rng, arity, rows, domain));
        }
        // Heavy duplicates: every row repeated, one value dominating.
        let mut dup = random_relation(&mut rng, arity, 50, 4);
        let copy = dup.clone();
        for _ in 0..20 {
            dup.extend_from(&copy);
        }
        cases.push(dup);
        // Full-width values: the packed key overflows one word.
        cases.push(random_relation(&mut rng, arity, 200, u64::MAX));
    }
    for rel in &cases {
        let got = AtomStats::compute(rel);
        assert_eq!(
            got,
            naive_stats(rel),
            "arity {} rows {}",
            rel.arity(),
            rel.len()
        );
    }
}

/// Heap-style recursive swap permutations — the enumeration order whose
/// first minimum `best_order` returns.
fn permute(v: &mut Vec<VarId>, i: usize, f: &mut dyn FnMut(&[VarId])) {
    if i == v.len() {
        f(v);
        return;
    }
    for j in i..v.len() {
        v.swap(i, j);
        permute(v, i + 1, f);
        v.swap(i, j);
    }
}

/// Costs every order and keeps the first strict minimum.
fn exhaustive(model: &OrderCostModel, vars: &[VarId]) -> (Vec<VarId>, f64) {
    let mut best: Option<(Vec<VarId>, f64)> = None;
    permute(&mut vars.to_vec(), 0, &mut |o| {
        let c = model.cost(o);
        if best.as_ref().is_none_or(|(_, b)| c < *b) {
            best = Some((o.to_vec(), c));
        }
    });
    best.expect("at least one order")
}

#[test]
fn pruned_order_search_equals_exhaustive_enumeration() {
    let mut rng = Rng(0x04de5);
    for case in 0..300 {
        let k = 1 + rng.below(7) as u32;
        let vars: Vec<VarId> = (0..k).map(VarId).collect();
        let n_atoms = 1 + rng.below(5) as usize;
        let mut atoms: Vec<(Vec<VarId>, AtomStats)> = Vec::new();
        for _ in 0..n_atoms {
            let arity = 1 + rng.below(u64::from(k.min(3))) as usize;
            let mut atom_vars: Vec<VarId> = Vec::new();
            while atom_vars.len() < arity {
                let v = VarId(rng.below(u64::from(k)) as u32);
                if !atom_vars.contains(&v) {
                    atom_vars.push(v);
                }
            }
            let stats = if case % 2 == 0 {
                // Real statistics: small domains give ties and empty
                // intersections (zero steps).
                let rows = rng.below(30) as usize;
                let domain = 1 + rng.below(5);
                AtomStats::compute(&random_relation(&mut rng, arity, rows, domain))
            } else {
                // Arbitrary non-negative counts stress the pruning.
                let counts = (0..1usize << arity).map(|_| rng.below(40)).collect();
                AtomStats::from_counts(counts, vec![0; arity])
            };
            atoms.push((atom_vars, stats));
        }
        let model = OrderCostModel::from_stats(atoms);
        let (order, cost) = best_order(&model, &vars);
        let (want, want_cost) = exhaustive(&model, &vars);
        assert_eq!(order, want, "case {case}");
        assert_eq!(cost.to_bits(), want_cost.to_bits(), "case {case}");
    }
}

/// The global decisions a plan should carry, from naive statistics.
struct Reference {
    join_order: Vec<usize>,
    tj_order: Option<Vec<VarId>>,
    hc_config: Option<HcConfig>,
}

fn reference_plan(
    q: &ConjunctiveQuery,
    db: &Database,
    workers: usize,
    s: ShuffleAlg,
    j: JoinAlg,
) -> Reference {
    let (resolved, _) = resolve_atoms(q, db).expect("resolves");
    let atom_vars: Vec<Vec<VarId>> = resolved.iter().map(|a| a.vars.clone()).collect();
    let cards: Vec<u64> = resolved.iter().map(|a| a.len() as u64).collect();
    let stats: Vec<AtomStats> = resolved.iter().map(|a| naive_stats(&a.rel)).collect();
    let join_order = greedy_join_order(&atom_vars, &cards, &stats);
    let tj_order = (s != ShuffleAlg::Regular && j == JoinAlg::Tributary).then(|| {
        let model = OrderCostModel::from_stats(atom_vars.iter().cloned().zip(stats).collect());
        exhaustive(&model, &q.all_vars()).0
    });
    let hc_config = (s == ShuffleAlg::HyperCube).then(|| {
        ShareProblem {
            vars: q.all_vars(),
            atoms: atom_vars
                .iter()
                .zip(&cards)
                .map(|(vars, &cardinality)| AtomShape {
                    vars: vars.clone(),
                    cardinality,
                })
                .collect(),
        }
        .optimize(workers)
    });
    Reference {
        join_order,
        tj_order,
        hc_config,
    }
}

const CONFIGS: [(ShuffleAlg, JoinAlg); 6] = [
    (ShuffleAlg::Regular, JoinAlg::Hash),
    (ShuffleAlg::Regular, JoinAlg::Tributary),
    (ShuffleAlg::Broadcast, JoinAlg::Hash),
    (ShuffleAlg::Broadcast, JoinAlg::Tributary),
    (ShuffleAlg::HyperCube, JoinAlg::Hash),
    (ShuffleAlg::HyperCube, JoinAlg::Tributary),
];

fn assert_plans_match_reference(name: &str, q: &ConjunctiveQuery, db: &Database) {
    let workers = 4;
    let cluster = Cluster::new(workers).with_seed(3);
    let addrs: Vec<String> = (0..workers)
        .map(|r| format!("127.0.0.1:{}", 9000 + r))
        .collect();
    for (s, j) in CONFIGS {
        let frags = plan_fragments(q, db, &cluster, s, j, &PlanOptions::default(), &addrs)
            .unwrap_or_else(|e| panic!("{name} {s:?}/{j:?}: {e}"));
        let want = reference_plan(q, db, workers, s, j);
        for f in &frags {
            assert_eq!(
                f.join_order, want.join_order,
                "{name} {s:?}/{j:?} join order"
            );
            assert_eq!(f.tj_order, want.tj_order, "{name} {s:?}/{j:?} TJ order");
            assert_eq!(f.hc_config, want.hc_config, "{name} {s:?}/{j:?} shares");
        }
    }
}

#[test]
fn plan_fragments_decisions_equal_naive_reference_q1_to_q8() {
    for spec in all_queries() {
        let db = Scale::tiny().db_for(spec.dataset, 5);
        assert_plans_match_reference(spec.name, &spec.query, &db);
    }
}

/// Statistics the planner shares must be each atom's own: compare every
/// atom's entry from `compute_shared` (what the planner calls) with naive
/// counts of that atom's resolved relation.
fn assert_shared_stats_are_per_atom(q: &ConjunctiveQuery, db: &Database) {
    let (resolved, _) = resolve_atoms(q, db).expect("resolves");
    let rels: Vec<&Relation> = resolved.iter().map(|a| a.rel.as_ref()).collect();
    for (i, (stats, rel)) in AtomStats::compute_shared(&rels)
        .iter()
        .zip(&rels)
        .enumerate()
    {
        assert_eq!(*stats, naive_stats(rel), "{} atom {i}", q.name);
    }
}

#[test]
fn pointer_dedup_never_merges_different_relations() {
    // Q3: two `ObjectName` atoms with different constants resolve to two
    // different owned relations.
    let q3 = all_queries()
        .into_iter()
        .find(|s| s.name == "Q3")
        .expect("Q3");
    let db = Scale::tiny().db_for(q3.dataset, 5);
    let (resolved, _) = resolve_atoms(&q3.query, &db).expect("resolves");
    let object_names: Vec<&Relation> = resolved
        .iter()
        .filter(|a| a.base == "ObjectName")
        .map(|a| {
            assert!(matches!(a.rel, Cow::Owned(_)), "a constant makes a copy");
            a.rel.as_ref()
        })
        .collect();
    assert_eq!(object_names.len(), 2);
    assert!(!std::ptr::eq(object_names[0], object_names[1]));
    assert_shared_stats_are_per_atom(&q3.query, &db);

    // A repeated-variable atom next to plain ones over the same base:
    // `Twitter(x, x)` is a filtered copy; the other two borrow the base.
    let mut rng = Rng(42);
    let mut edges = random_relation(&mut rng, 2, 400, 60);
    for v in 0..10u64 {
        edges.push_row(&[v, v]);
    }
    let mut db = Database::new();
    db.insert("Twitter", edges);
    let q =
        parjoin::query::parser::parse("P(x, y, z) :- Twitter(x, x), Twitter(x, y), Twitter(y, z)")
            .expect("parses");
    let (resolved, _) = resolve_atoms(&q, &db).expect("resolves");
    assert!(std::ptr::eq(
        resolved[1].rel.as_ref(),
        resolved[2].rel.as_ref()
    ));
    assert!(!std::ptr::eq(
        resolved[0].rel.as_ref(),
        resolved[1].rel.as_ref()
    ));
    assert_shared_stats_are_per_atom(&q, &db);
    assert_plans_match_reference("Twitter(x, x) self-join", &q, &db);
}

/// A directed ring `0 → 1 → … → n-1 → 0`: a path of any length starts at
/// exactly one node per answer, so it has exactly `n` answers.
fn ring_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_rows(
            2,
            (0..n).map(|i| [i, (i + 1) % n]).collect::<Vec<_>>().iter(),
        ),
    );
    db
}

fn sorted_rows(r: &RunResult) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = r
        .output
        .as_ref()
        .expect("collected")
        .rows()
        .map(<[u64]>::to_vec)
        .collect();
    rows.sort();
    rows
}

#[test]
fn eleven_variable_tributary_plans_fall_back_to_sampled_orders() {
    let k = EXHAUSTIVE_ORDER_LIMIT + 1;
    let head: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
    let body: Vec<String> = (0..k - 1).map(|i| format!("E(x{i}, x{})", i + 1)).collect();
    let q =
        parjoin::query::parser::parse(&format!("P({}) :- {}", head.join(", "), body.join(", ")))
            .expect("parses");
    assert_eq!(q.all_vars().len(), k);
    let n = 37;
    let db = ring_db(n);
    let cluster = Cluster::new(4).with_seed(8);
    let opts = PlanOptions {
        collect_output: true,
        ..Default::default()
    };
    let reference = run_config(
        &q,
        &db,
        &cluster,
        ShuffleAlg::HyperCube,
        JoinAlg::Hash,
        &opts,
    )
    .expect("HC_HJ runs");
    assert_eq!(reference.output_tuples, n);
    let addrs: Vec<String> = (0..4).map(|r| format!("127.0.0.1:{}", 9100 + r)).collect();
    for s in [ShuffleAlg::HyperCube, ShuffleAlg::Broadcast] {
        let got = run_config(&q, &db, &cluster, s, JoinAlg::Tributary, &opts)
            .unwrap_or_else(|e| panic!("{s:?}/TJ: {e}"));
        assert_eq!(sorted_rows(&got), sorted_rows(&reference), "{s:?}/TJ");
        let frags = plan_fragments(&q, &db, &cluster, s, JoinAlg::Tributary, &opts, &addrs)
            .unwrap_or_else(|e| panic!("{s:?}/TJ fragments: {e}"));
        let order = frags[0].tj_order.as_ref().expect("TJ order planned");
        assert_eq!(order.len(), k);
    }
}
