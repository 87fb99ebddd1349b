//! The Tributary-join cost model (paper §5.1, Eq. 3–4).

use super::stats::AtomStats;
use parjoin_common::Relation;
use parjoin_query::VarId;

/// A cost model instance: per-atom variable lists plus cached
/// distinct-projection statistics.
///
/// ```
/// use parjoin_common::Relation;
/// use parjoin_core::order::{best_order, OrderCostModel};
/// use parjoin_query::VarId;
///
/// let r = Relation::from_rows(2, (0..100u64).map(|i| [i % 5, i]).collect::<Vec<_>>());
/// let s = Relation::from_rows(2, (0..100u64).map(|i| [i, i % 7]).collect::<Vec<_>>());
/// let (x, y, z) = (VarId(0), VarId(1), VarId(2));
/// let model = OrderCostModel::from_atoms(&[(&r, vec![x, y]), (&s, vec![y, z])]);
/// let (order, cost) = best_order(&model, &[x, y, z]);
/// assert_eq!(order.len(), 3);
/// assert!(cost.is_finite() && cost > 0.0);
/// ```
pub struct OrderCostModel {
    atoms: Vec<(Vec<VarId>, AtomStats)>,
}

impl OrderCostModel {
    /// Builds the model from variables-only atoms (e.g. the output of
    /// selection pushdown). Statistics are computed eagerly, once per
    /// distinct relation (see [`AtomStats::compute_shared`]).
    pub fn from_atoms(atoms: &[(&Relation, Vec<VarId>)]) -> Self {
        let rels: Vec<&Relation> = atoms.iter().map(|(rel, _)| *rel).collect();
        let stats = AtomStats::compute_shared(&rels);
        OrderCostModel::from_stats(
            atoms
                .iter()
                .map(|(_, vars)| vars.clone())
                .zip(stats)
                .collect(),
        )
    }

    /// Builds the model from per-atom variables and precomputed
    /// statistics (the engine's planner computes them once per query and
    /// shares them with its join-order heuristic).
    ///
    /// # Panics
    /// Panics if an atom's variable count differs from its arity.
    pub fn from_stats(atoms: Vec<(Vec<VarId>, AtomStats)>) -> Self {
        for (vars, stats) in &atoms {
            assert_eq!(stats.arity(), vars.len(), "one variable per column");
        }
        OrderCostModel { atoms }
    }

    /// Estimates TJ's cost (number of binary-search-driven steps) for a
    /// global variable order.
    ///
    /// Step sizes follow Eq. 3:
    /// `S₁ = min_j V(Rⱼ, {φ(1)})` and, for `i > 1`,
    /// `Sᵢ = min_{φ(i) ∈ Rⱼ} V(Rⱼ, pᵢⱼ) / V(Rⱼ, pᵢ₋₁ⱼ)`
    /// where `pᵢⱼ` is the prefix of `Rⱼ`'s attributes among the first `i`
    /// order variables. The total cost unrolls Eq. 4's recursion
    /// `Cost_{≥i} = Sᵢ + Sᵢ·Cost_{≥i+1}` into `Σᵢ Πⱼ≤ᵢ Sⱼ`.
    ///
    /// Variables absent from every atom contribute nothing; the order must
    /// cover every variable some atom mentions, or prefixes go stale —
    /// callers pass complete orders.
    pub fn cost(&self, order: &[VarId]) -> f64 {
        // Per-atom running prefix mask.
        let mut masks: Vec<u32> = vec![0; self.atoms.len()];
        let mut partial = Partial::START;
        for &var in order {
            partial = partial.extend(self.step(var, &mut masks));
            if partial.closed {
                break; // empty intersection: nothing below contributes
            }
        }
        partial.total
    }

    /// Eq. 3's step size `Sᵢ` for appending `var` to the prefix whose
    /// per-atom column masks are `masks`, which it advances; `None` when
    /// no atom mentions `var` (no step).
    pub(super) fn step(&self, var: VarId, masks: &mut [u32]) -> Option<f64> {
        let mut step: Option<f64> = None;
        for ((vars, stats), mask) in self.atoms.iter().zip(masks) {
            let Some(col) = vars.iter().position(|&v| v == var) else {
                continue;
            };
            let new_mask = *mask | (1u32 << col);
            let denom = stats.distinct(*mask).max(1) as f64;
            let numer = stats.distinct(new_mask) as f64;
            let s = numer / denom;
            step = Some(step.map_or(s, |t| t.min(s)));
            *mask = new_mask;
        }
        step
    }

    /// Number of atoms in the model.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Evaluates several orders and returns the best `(order, cost)` —
    /// used when `k!` is too large to enumerate (see
    /// [`sample_orders`](super::sample_orders)).
    ///
    /// # Panics
    /// Panics when `orders` is empty — there is no best of nothing.
    pub fn best_sampled(&self, orders: &[Vec<VarId>]) -> (Vec<VarId>, f64) {
        orders
            .iter()
            .map(|o| (o.clone(), self.cost(o)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            // Documented API contract above. xtask: allow(expect)
            .expect("at least one order")
    }
}

/// The Eq. 4 cost of an order prefix: the running sum `Σᵢ Πⱼ≤ᵢ Sⱼ` and
/// product `Πⱼ≤ᵢ Sⱼ`. [`OrderCostModel::cost`] and the pruned search of
/// [`best_order`](super::best_order) both extend prefixes through
/// [`Partial::extend`], so they perform the same floating-point
/// operations in the same order and agree bit for bit.
#[derive(Debug, Clone, Copy)]
pub(super) struct Partial {
    /// Cost of the prefix.
    pub total: f64,
    /// Product of the prefix's step sizes.
    pub product: f64,
    /// A zero step was taken: the intersection is empty, and no later
    /// variable contributes.
    pub closed: bool,
}

impl Partial {
    /// The empty prefix.
    pub const START: Partial = Partial {
        total: 0.0,
        product: 1.0,
        closed: false,
    };

    /// The prefix extended by one variable's step (`None`: the variable
    /// is in no atom and adds nothing).
    pub fn extend(self, step: Option<f64>) -> Partial {
        match step {
            None => self,
            Some(s) => {
                let product = self.product * s;
                Partial {
                    total: self.total + product,
                    product,
                    closed: s == 0.0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// R1(x1,x2), R2(x2,x3) — the §5.1 running example (Eq. 2 without R3).
    fn two_path() -> (Relation, Relation) {
        // R1: x2 has 2 distinct values; R2: x2 has 4, x3 fans out.
        let r1 = Relation::from_rows(2, [[1u64, 10], [2, 10], [3, 20]].iter());
        let r2 = Relation::from_rows(
            2,
            [[10u64, 100], [10, 101], [20, 100], [30, 102], [40, 103]].iter(),
        );
        (r1, r2)
    }

    #[test]
    fn step1_is_min_distinct_of_first_var() {
        let (r1, r2) = two_path();
        let m = OrderCostModel::from_atoms(&[(&r1, vec![v(0), v(1)]), (&r2, vec![v(1), v(2)])]);
        // Order x2 ≺ x1 ≺ x3: S1 = min(V(R1,{x2})=2, V(R2,{x2})=4) = 2.
        // S2 (x1, only in R1): V(R1,{x1,x2})/V(R1,{x2}) = 3/2.
        // S3 (x3, only in R2): V(R2,{x2,x3})/V(R2,{x2}) = 5/4.
        // Cost = 2 + 2·1.5 + 2·1.5·1.25 = 2 + 3 + 3.75 = 8.75.
        let c = m.cost(&[v(1), v(0), v(2)]);
        assert!((c - 8.75).abs() < 1e-9, "{c}");
    }

    #[test]
    fn cost_prefers_selective_first_variable() {
        // A relation with a highly selective join var vs a fanned one:
        // starting from the small active domain should cost less.
        let small = Relation::from_rows(2, [[1u64, 1], [1, 2], [1, 3]].iter());
        let big = Relation::from_rows(
            2,
            (0..30u64)
                .map(|i| [i % 3 + 1, i])
                .collect::<Vec<_>>()
                .iter(),
        );
        let m = OrderCostModel::from_atoms(&[(&small, vec![v(0), v(1)]), (&big, vec![v(0), v(2)])]);
        let c_good = m.cost(&[v(0), v(1), v(2)]);
        let c_bad = m.cost(&[v(1), v(2), v(0)]);
        assert!(c_good < c_bad, "good {c_good} bad {c_bad}");
    }

    #[test]
    fn empty_relation_zeroes_subtree() {
        let e = Relation::new(2);
        let m = OrderCostModel::from_atoms(&[(&e, vec![v(0), v(1)])]);
        assert_eq!(m.cost(&[v(0), v(1)]), 0.0);
    }

    #[test]
    fn best_order_finds_minimum() {
        let (r1, r2) = two_path();
        let m = OrderCostModel::from_atoms(&[(&r1, vec![v(0), v(1)]), (&r2, vec![v(1), v(2)])]);
        let vars = vec![v(0), v(1), v(2)];
        let (order, best_cost) = super::super::best_order(&m, &vars);
        // Verify optimality over the full enumeration by hand.
        let mut all = vec![];
        for o in super::super::sample_orders(&vars, 50, 3) {
            all.push(m.cost(&o));
        }
        for c in all {
            assert!(best_cost <= c + 1e-9);
        }
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn costs_monotone_in_cardinality() {
        // Scaling every relation up scales costs up.
        let small =
            Relation::from_rows(2, (0..10u64).map(|i| [i, i + 1]).collect::<Vec<_>>().iter());
        let large = Relation::from_rows(
            2,
            (0..100u64).map(|i| [i, i + 1]).collect::<Vec<_>>().iter(),
        );
        let ms = OrderCostModel::from_atoms(&[(&small, vec![v(0), v(1)])]);
        let ml = OrderCostModel::from_atoms(&[(&large, vec![v(0), v(1)])]);
        assert!(ml.cost(&[v(0), v(1)]) > ms.cost(&[v(0), v(1)]));
    }

    #[test]
    fn best_sampled_agrees_with_enumeration_on_small() {
        let (r1, r2) = two_path();
        let m = OrderCostModel::from_atoms(&[(&r1, vec![v(0), v(1)]), (&r2, vec![v(1), v(2)])]);
        let vars = vec![v(0), v(1), v(2)];
        let orders: Vec<Vec<VarId>> = super::super::sample_orders(&vars, 200, 1);
        let (_, sampled) = m.best_sampled(&orders);
        let (_, exact) = super::super::best_order(&m, &vars);
        // 200 samples of 6 orders will surely hit the optimum.
        assert!((sampled - exact).abs() < 1e-9);
    }
}
