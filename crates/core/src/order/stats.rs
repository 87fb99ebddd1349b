//! Distinct-projection statistics.
//!
//! The cost model needs `V(Rⱼ, prefix)` — the number of distinct values of
//! the prefix of `Rⱼ`'s join attributes under a candidate global order
//! (§5.1). A distinct count is invariant under column permutation, so it
//! depends only on the column *subset*; we therefore precompute the count
//! for every nonempty subset once and answer any order's query by bitmask
//! lookup.
//!
//! The counts come from a *chain-sort* kernel. Sorting the rows by a
//! column sequence `c₁, c₂, …, cₖ` answers all `k` prefix subsets
//! `{c₁}, {c₁,c₂}, …` in one scan: the number of distinct prefixes of
//! length `L` is one plus the number of adjacent sorted rows whose first
//! differing column comes before `L`. The subset lattice is covered by
//! greedy chains (every singleton heads one), so a binary relation takes
//! 2 sorts where one sort-and-dedup per subset took 3, and no projected
//! copy of the relation is ever built: each chain packs its columns'
//! varying bits into one `u64` key and radix-sorts the keys alone.
//!
//! Self-joins hand every atom the same base relation, and the statistics
//! depend only on the relation, so [`AtomStats::compute_shared`] computes
//! them once per distinct relation of a query.

use parjoin_common::{sort, Relation};

/// All-subsets distinct counts for one relation, plus the hottest value's
/// multiplicity per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomStats {
    /// `counts[mask]` = distinct tuples of the projection onto the columns
    /// in `mask`; `counts[0] = 1` (the empty projection).
    counts: Vec<u64>,
    /// `top[c]` = rows sharing the most frequent value of column `c`.
    top: Vec<u64>,
    arity: usize,
}

impl AtomStats {
    /// Computes the statistics with one chain sort per chain of column
    /// prefixes (`C(arity, ⌊arity/2⌋)` sorts for arity ≤ 4, e.g. 2 for a
    /// binary relation), reading the relation in place.
    ///
    /// # Panics
    /// Panics if `rel.arity() > 12` (4096 subsets is the sanity bound).
    pub fn compute(rel: &Relation) -> Self {
        let arity = rel.arity();
        assert!(arity <= 12, "AtomStats limited to arity 12");
        let mut counts = vec![0u64; 1 << arity];
        counts[0] = 1;
        let mut top = vec![0u64; arity];
        if rel.is_empty() {
            return AtomStats { counts, top, arity };
        }
        for chain in subset_chains(arity) {
            let scan = scan_chain(rel, &chain);
            let mut mask = 0usize;
            for (&c, &d) in chain.iter().zip(&scan.distinct) {
                mask |= 1 << c;
                counts[mask] = d;
            }
            top[chain[0]] = scan.top_run;
        }
        AtomStats { counts, top, arity }
    }

    /// Statistics for every relation of `rels`, computed once per
    /// *distinct* relation: entries that are the same object (by address
    /// — a self-join's atoms all borrow one base relation) share one
    /// computation. Relations that are equal but separate objects are
    /// computed separately, so an entry never describes another atom's
    /// data.
    pub fn compute_shared(rels: &[&Relation]) -> Vec<AtomStats> {
        let mut out: Vec<AtomStats> = Vec::with_capacity(rels.len());
        for (i, &rel) in rels.iter().enumerate() {
            let stats = match rels[..i].iter().position(|&r| std::ptr::eq(r, rel)) {
                Some(j) => out[j].clone(),
                None => AtomStats::compute(rel),
            };
            out.push(stats);
        }
        out
    }

    /// Builds statistics from precomputed numbers: `counts[mask]` for
    /// every column subset (`counts[0]` is the empty projection, 1) and
    /// the hottest value's multiplicity per column. For callers with
    /// statistics from elsewhere, e.g. a catalog or a reference counter.
    ///
    /// # Panics
    /// Panics unless `counts.len() == 2^top.len()` with `top.len() ≤ 12`.
    pub fn from_counts(counts: Vec<u64>, top: Vec<u64>) -> Self {
        let arity = top.len();
        assert!(arity <= 12, "AtomStats limited to arity 12");
        assert_eq!(counts.len(), 1 << arity, "one count per column subset");
        AtomStats { counts, top, arity }
    }

    /// Distinct count for the column subset `mask`.
    ///
    /// # Panics
    /// Panics if `mask` has bits beyond the arity.
    #[inline]
    pub fn distinct(&self, mask: u32) -> u64 {
        assert!(mask < (1u32 << self.arity), "mask out of range");
        self.counts[mask as usize]
    }

    /// Number of rows carrying the most frequent value of column `col`
    /// (0 for an empty relation).
    ///
    /// # Panics
    /// Panics if `col` is not below the arity.
    pub fn top_frequency(&self, col: usize) -> u64 {
        self.top[col]
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total row count, i.e. the distinct count over all columns (inputs
    /// are set-semantics).
    pub fn cardinality(&self) -> u64 {
        self.counts[self.counts.len() - 1]
    }
}

/// Greedy chain cover of the nonempty column subsets of `0..arity`.
///
/// Subsets are visited by size, then by mask; each one not yet covered
/// starts a chain that grows by the lowest column whose addition reaches
/// an uncovered subset. Singletons come first, so each heads its own
/// chain (which is where its top frequency is read). For arity ≤ 4 the
/// cover is a minimum one (`C(arity, ⌊arity/2⌋)` chains).
fn subset_chains(arity: usize) -> Vec<Vec<usize>> {
    let n = 1usize << arity;
    let mut covered = vec![false; n];
    covered[0] = true;
    let mut masks: Vec<usize> = (1..n).collect();
    masks.sort_by_key(|m| (m.count_ones(), *m));
    let mut chains = Vec::new();
    for start in masks {
        if covered[start] {
            continue;
        }
        let mut chain: Vec<usize> = (0..arity).filter(|&c| start & (1 << c) != 0).collect();
        let mut mask = 0usize;
        for &c in &chain {
            mask |= 1 << c;
            covered[mask] = true;
        }
        while let Some(c) = (0..arity).find(|&c| mask & (1 << c) == 0 && !covered[mask | 1 << c]) {
            mask |= 1 << c;
            covered[mask] = true;
            chain.push(c);
        }
        chains.push(chain);
    }
    chains
}

/// What one chain sort yields.
struct ChainScan {
    /// `distinct[L - 1]` = distinct values of the chain's first `L`
    /// columns.
    distinct: Vec<u64>,
    /// Longest run of equal values in the chain's first column.
    top_run: u64,
}

/// Sorts the (non-empty) relation's rows by the column sequence `chain`
/// and counts distinct prefixes in one scan over adjacent rows.
fn scan_chain(rel: &Relation, chain: &[usize]) -> ChainScan {
    let arity = rel.arity();
    let data = rel.raw();
    let n = rel.len();
    // Bits of a column above its highest varying bit are constant, so
    // the low `width` bits order the column (as in the radix kernel).
    let first = &data[..arity];
    let mut vary = vec![0u64; chain.len()];
    for row in data.chunks_exact(arity) {
        for (m, &c) in vary.iter_mut().zip(chain) {
            *m |= row[c] ^ first[c];
        }
    }
    let widths: Vec<u32> = vary.iter().map(|m| 64 - m.leading_zeros()).collect();
    // `diffs[j]` = adjacent sorted pairs whose first differing chain
    // column is `j`.
    let mut diffs = vec![0u64; chain.len()];
    let mut top_run = 1u64;
    let mut run = 1u64;
    let mut pair = |first_diff: Option<usize>| {
        if let Some(j) = first_diff {
            diffs[j] += 1;
            if j == 0 {
                run = 0; // a new first-column value starts its run
            }
        }
        run += 1;
        top_run = top_run.max(run);
    };

    if widths.iter().sum::<u32>() <= 64 {
        // Pack the chain into one key, first column most significant;
        // `owner[b]` is the chain position that holds key bit `b`.
        let mut owner = [0usize; 64];
        let mut shift = 0u32;
        let mut shifts = vec![0u32; chain.len()];
        for j in (0..chain.len()).rev() {
            shifts[j] = shift;
            for b in shift..shift + widths[j] {
                owner[b as usize] = j;
            }
            shift += widths[j];
        }
        let masks: Vec<u64> = widths
            .iter()
            .map(|&w| if w == 64 { u64::MAX } else { (1u64 << w) - 1 })
            .collect();
        let mut keys: Vec<u64> = data
            .chunks_exact(arity)
            .map(|row| {
                chain.iter().enumerate().fold(0u64, |k, (j, &c)| {
                    k | (row[c] & masks[j]).checked_shl(shifts[j]).unwrap_or(0)
                })
            })
            .collect();
        sort::sort_keys(&mut keys);
        for w in keys.windows(2) {
            let x = w[0] ^ w[1];
            pair((x != 0).then(|| owner[63 - x.leading_zeros() as usize]));
        }
    } else {
        // Too wide to pack: sort row indices by the chain's columns.
        let key = |r: u32| chain.iter().map(move |&c| data[r as usize * arity + c]);
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        for w in idx.windows(2) {
            pair(key(w[0]).zip(key(w[1])).position(|(a, b)| a != b));
        }
    }

    let mut distinct = Vec::with_capacity(chain.len());
    let mut acc = 1u64;
    for d in diffs {
        acc += d;
        distinct.push(acc);
    }
    ChainScan { distinct, top_run }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_all_subsets() {
        let r = Relation::from_rows(2, [[1u64, 10], [1, 20], [2, 10]].iter());
        let s = AtomStats::compute(&r);
        assert_eq!(s.distinct(0b00), 1);
        assert_eq!(s.distinct(0b01), 2); // x ∈ {1, 2}
        assert_eq!(s.distinct(0b10), 2); // y ∈ {10, 20}
        assert_eq!(s.distinct(0b11), 3);
        assert_eq!(s.cardinality(), 3);
        assert_eq!(s.top_frequency(0), 2); // x = 1 twice
        assert_eq!(s.top_frequency(1), 2); // y = 10 twice
    }

    #[test]
    fn duplicates_collapse() {
        let r = Relation::from_rows(1, [[5u64], [5], [5]].iter());
        let s = AtomStats::compute(&r);
        assert_eq!(s.distinct(0b1), 1);
        assert_eq!(s.top_frequency(0), 3);
    }

    #[test]
    fn empty_relation() {
        let s = AtomStats::compute(&Relation::new(2));
        assert_eq!(s.distinct(0b11), 0);
        assert_eq!(s.distinct(0), 1);
        assert_eq!(s.top_frequency(1), 0);
    }

    #[test]
    #[should_panic(expected = "mask out of range")]
    fn mask_bounds_checked() {
        let s = AtomStats::compute(&Relation::new(2));
        let _ = s.distinct(0b100);
    }

    #[test]
    fn chains_cover_every_subset_minimally() {
        for (arity, want) in [(1usize, 1usize), (2, 2), (3, 3), (4, 6)] {
            let chains = subset_chains(arity);
            assert_eq!(chains.len(), want, "arity {arity}");
            let mut seen = vec![false; 1 << arity];
            for chain in &chains {
                let mut mask = 0;
                for &c in chain {
                    mask |= 1 << c;
                    seen[mask] = true;
                }
            }
            assert!(seen[1..].iter().all(|&s| s), "arity {arity}");
        }
        assert!(subset_chains(0).is_empty());
    }

    #[test]
    fn wide_values_take_the_index_path() {
        // Three full-width columns cannot pack into one u64 key.
        let r = Relation::from_rows(
            3,
            [
                [u64::MAX, 0, 1],
                [0, u64::MAX, 1],
                [u64::MAX, 0, 2],
                [0, 0, 0],
            ]
            .iter(),
        );
        let s = AtomStats::compute(&r);
        assert_eq!(s.distinct(0b001), 2);
        assert_eq!(s.distinct(0b011), 3);
        assert_eq!(s.distinct(0b111), 4);
        assert_eq!(s.distinct(0b101), 4);
        assert_eq!(s.top_frequency(2), 2);
    }

    #[test]
    fn shared_stats_follow_identity_not_equality() {
        let a = Relation::from_rows(2, [[1u64, 2], [3, 4]].iter());
        let b = a.clone();
        let shared = AtomStats::compute_shared(&[&a, &a, &b]);
        assert_eq!(shared.len(), 3);
        assert!(shared.iter().all(|s| *s == AtomStats::compute(&a)));
    }
}
