//! Morsel-driven parallel kernels: partitioned hash join, partitioned
//! group-by, parallel sort, parallel filter masks and gathers.
//!
//! Every kernel here is a drop-in replacement for its single-threaded
//! sibling in [`super`] (the `exec` module) with one invariant: **thread
//! count never changes output bytes**. The algorithms get that for free
//! by deriving all structure from the data alone —
//!
//! * morsel boundaries come from [`pool::morsels`] (fixed row ranges);
//! * join and group-by inputs split into [`PARTITIONS`] partitions by the
//!   *top* bits of the folded key hash (tables bucket by the *low* bits,
//!   so partitioning preserves bucket entropy);
//! * per-partition tables size themselves from exact partition row
//!   counts, so they never rehash ([`GroupTable::rehashes`] proves it);
//! * merges are deterministic: join morsel outputs concatenate in morsel
//!   order (reproducing serial probe order), group partitions merge by
//!   sorting `(rendered key, representative row)` (reproducing the serial
//!   stable sort with first-appearance ties), and sorted runs merge under
//!   a total order (key, then row index).
//!
//! Since every true join match shares the full key hash, matches land in
//! the probe row's own partition and per-partition chains ascend in
//! global row order — the concatenated morsel outputs are exactly the
//! serial pair sequence. Likewise every group lives wholly inside one
//! partition, so per-group fold order equals global row order and float
//! accumulations stay bit-identical.

use std::sync::Arc;

use skadi_arrow::array::{Array, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compute::{self, CmpOp, SortOrder};
use skadi_arrow::datatype::DataType;
use skadi_arrow::error::ArrowError;
use skadi_arrow::schema::{Field, Schema};

use super::pool::{self, morsels, PARALLEL_MIN_ROWS};
use super::{
    fold_hash, group_key_eq, join_key_eq, resolve_agg, wrap, AggKind, Aggregated, KernelStats,
    EMPTY_SLOT,
};
use crate::sql::ast::Comparison;
use crate::sql::SqlError;

/// Hash partitions for the partitioned join and group-by. Fixed (never
/// derived from thread count); selected by the top `log2(PARTITIONS)`
/// bits of the folded hash.
pub const PARTITIONS: usize = 8;

#[inline]
fn partition_of(h: u64) -> usize {
    (fold_hash(h) >> 61) as usize
}

/// A linear-probing hash table assigning dense group ids, preallocated
/// from a row-count hint (capacity `next_pow2(rows * 2)`, load factor
/// under 0.5). If the hint was too small it doubles and reinserts,
/// counting each growth in [`GroupTable::rehashes`] — with exact hints,
/// as every kernel here supplies, that counter stays 0.
pub(crate) struct GroupTable {
    slots: Vec<u32>,
    group_hashes: Vec<u64>,
    /// Capacity-growth events (0 when the capacity hint was sufficient).
    pub(crate) rehashes: u64,
}

impl GroupTable {
    pub(crate) fn with_capacity_hint(rows: usize) -> GroupTable {
        let cap = (rows * 2).next_power_of_two().max(16);
        GroupTable {
            slots: vec![EMPTY_SLOT; cap],
            group_hashes: Vec::new(),
            rehashes: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Looks up the group for hash `h`, inserting a fresh id when no
    /// existing group matches. `eq(g)` answers whether group `g`'s key
    /// equals the probed row's; every visit to an occupied non-matching
    /// slot increments `collisions` (hash compared before `eq`, exactly
    /// like the serial kernel). Returns `(group_id, inserted)`.
    pub(crate) fn find_or_insert(
        &mut self,
        h: u64,
        eq: impl Fn(u32) -> bool,
        collisions: &mut u64,
    ) -> (u32, bool) {
        if (self.group_hashes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() as u64 - 1;
        let mut b = (fold_hash(h) & mask) as usize;
        loop {
            match self.slots[b] {
                EMPTY_SLOT => {
                    let g = self.group_hashes.len() as u32;
                    self.slots[b] = g;
                    self.group_hashes.push(h);
                    return (g, true);
                }
                g if self.group_hashes[g as usize] == h && eq(g) => return (g, false),
                _ => {
                    *collisions += 1;
                    b = (b + 1) & mask as usize;
                }
            }
        }
    }

    fn grow(&mut self) {
        self.rehashes += 1;
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        let mut slots = vec![EMPTY_SLOT; cap];
        for (g, &h) in self.group_hashes.iter().enumerate() {
            let mut b = (fold_hash(h) as usize) & mask;
            while slots[b] != EMPTY_SLOT {
                b = (b + 1) & mask;
            }
            slots[b] = g as u32;
        }
        self.slots = slots;
    }
}

/// Parallel [`super::conjunct_mask`]: each conjunct's comparison mask is
/// an independent column scan, so they evaluate concurrently; the `AND`
/// combine runs serially in conjunct order (as do column/operator
/// resolution errors, preserving serial error precedence).
pub(crate) fn conjunct_mask(
    batch: &RecordBatch,
    conjuncts: &[&Comparison],
) -> Result<Option<Array>, SqlError> {
    let mut jobs: Vec<(Array, CmpOp, Value)> = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        jobs.push((
            batch.column_by_name(&c.column).map_err(wrap)?.clone(),
            super::cmp_op(&c.op)?,
            super::literal_value(&c.value),
        ));
    }
    let jobs = Arc::new(jobs);
    let jobs2 = Arc::clone(&jobs);
    let masks = pool::global().run_indexed(jobs.len(), move |i| {
        let (col, op, v) = &jobs2[i];
        compute::cmp_scalar(col, *op, v)
    });
    let mut mask: Option<Array> = None;
    for m in masks {
        let m = m.map_err(wrap)?;
        mask = Some(match mask {
            Some(prev) => compute::and(&prev, &m).map_err(wrap)?,
            None => m,
        });
    }
    Ok(mask)
}

/// [`compute::take_indices`] with the per-column gathers spread across
/// the pool. Small gathers (or single-column batches) stay inline.
pub(crate) fn take_batch(
    batch: &RecordBatch,
    indices: &[usize],
) -> Result<RecordBatch, ArrowError> {
    let pool = pool::global();
    if pool.threads() == 1 || indices.len() < PARALLEL_MIN_ROWS || batch.num_columns() < 2 {
        return compute::take_indices(batch, indices);
    }
    for &i in indices {
        if i >= batch.num_rows() {
            return Err(ArrowError::IndexOutOfBounds {
                index: i,
                len: batch.num_rows(),
            });
        }
    }
    let cols: Arc<Vec<Array>> = Arc::new(batch.columns().to_vec());
    let idx: Arc<Vec<usize>> = Arc::new(indices.to_vec());
    let ncols = cols.len();
    let gathered = pool.run_indexed(ncols, move |c| cols[c].take_rows(&idx));
    RecordBatch::try_new(batch.schema().clone(), gathered)
}

/// Gathers join output columns (all left columns by `left_rows`, the
/// selected right columns by `right_rows`), one pool job per column when
/// the match set is large.
pub(crate) fn gather_join_columns(
    left: &RecordBatch,
    right: &RecordBatch,
    right_cols: &[usize],
    left_rows: &[usize],
    right_rows: &[usize],
) -> Vec<Array> {
    let pool = pool::global();
    let ncols = left.num_columns() + right_cols.len();
    if pool.threads() == 1 || left_rows.len() < PARALLEL_MIN_ROWS || ncols < 2 {
        let mut columns = Vec::with_capacity(ncols);
        for c in 0..left.num_columns() {
            columns.push(left.column(c).take_rows(left_rows));
        }
        for &c in right_cols {
            columns.push(right.column(c).take_rows(right_rows));
        }
        return columns;
    }
    let jobs: Arc<Vec<(Array, bool)>> = Arc::new(
        (0..left.num_columns())
            .map(|c| (left.column(c).clone(), true))
            .chain(right_cols.iter().map(|&c| (right.column(c).clone(), false)))
            .collect(),
    );
    let lr: Arc<Vec<usize>> = Arc::new(left_rows.to_vec());
    let rr: Arc<Vec<usize>> = Arc::new(right_rows.to_vec());
    let jobs2 = Arc::clone(&jobs);
    pool.run_indexed(jobs.len(), move |i| {
        let (col, is_left) = &jobs2[i];
        col.take_rows(if *is_left { &lr } else { &rr })
    })
}

/// One partition's build side: a chained bucket table over the partition's
/// right rows (`rows` maps chain-local index back to the global row).
struct BuildPart {
    head: Vec<u32>,
    next: Vec<u32>,
    rows: Vec<u32>,
    cap: usize,
}

/// Partitioned hash join core: same `(left_row, right_row)` pair sequence
/// as [`super::join_rows`], produced by a parallel partition/build/probe.
///
/// Build rows partition morsel-parallel by hash prefix (concatenating
/// morsel outputs keeps each partition's row list ascending); each
/// partition builds its own chained table sized from its exact row count,
/// inserting in reverse so chains ascend; probe morsels walk the chains
/// and their outputs concatenate in morsel order — the serial probe order.
pub(crate) fn join_rows_partitioned(
    lcol: &Array,
    rcol: &Array,
    mixed: bool,
    stats: &mut KernelStats,
) -> (Vec<usize>, Vec<usize>) {
    let pool = pool::global();
    let rh: Arc<Vec<u64>> = Arc::new(compute::hash_key_column(rcol, mixed));
    let lh: Arc<Vec<u64>> = Arc::new(compute::hash_key_column(lcol, mixed));

    // Partition the build rows by hash prefix.
    let ranges = morsels(rh.len());
    let ranges2 = ranges.clone();
    let rcol2 = rcol.clone();
    let rh2 = Arc::clone(&rh);
    let chunks = pool.run_indexed(ranges.len(), move |m| {
        let (lo, hi) = ranges2[m];
        let mut out: [Vec<u32>; PARTITIONS] = Default::default();
        let validity = rcol2.validity();
        for r in lo..hi {
            if validity.is_some_and(|v| !v.get(r)) {
                continue;
            }
            out[partition_of(rh2[r])].push(r as u32);
        }
        out
    });
    let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); PARTITIONS];
    for chunk in chunks {
        for (p, rows) in chunk.into_iter().enumerate() {
            part_rows[p].extend(rows);
        }
    }

    // Build each partition's chained table.
    let part_rows = Arc::new(part_rows);
    let pr2 = Arc::clone(&part_rows);
    let rh3 = Arc::clone(&rh);
    let tables: Arc<Vec<BuildPart>> = Arc::new(pool.run_indexed(PARTITIONS, move |p| {
        let rows = &pr2[p];
        let cap = (rows.len() * 2).next_power_of_two().max(16);
        let mask = cap as u64 - 1;
        let mut head = vec![EMPTY_SLOT; cap];
        let mut next = vec![EMPTY_SLOT; rows.len()];
        for (li, &r) in rows.iter().enumerate().rev() {
            let b = (fold_hash(rh3[r as usize]) & mask) as usize;
            next[li] = head[b];
            head[b] = li as u32;
        }
        BuildPart {
            head,
            next,
            rows: rows.clone(),
            cap,
        }
    }));
    stats.hash_slots += tables.iter().map(|t| t.cap as u64).sum::<u64>();

    // Probe, morsel-parallel over the probe sequence.
    let ranges = morsels(lh.len());
    let ranges2 = ranges.clone();
    let lcol2 = lcol.clone();
    let rcol2 = rcol.clone();
    let lh2 = Arc::clone(&lh);
    let rh4 = Arc::clone(&rh);
    let tables2 = Arc::clone(&tables);
    let chunks = pool.run_indexed(ranges.len(), move |m| {
        let (lo, hi) = ranges2[m];
        let mut lrows: Vec<usize> = Vec::new();
        let mut rrows: Vec<usize> = Vec::new();
        let mut collisions = 0u64;
        let l_validity = lcol2.validity();
        for l in lo..hi {
            if l_validity.is_some_and(|v| !v.get(l)) {
                continue;
            }
            let h = lh2[l];
            let t = &tables2[partition_of(h)];
            let mask = t.cap as u64 - 1;
            let mut slot = t.head[(fold_hash(h) & mask) as usize];
            while slot != EMPTY_SLOT {
                let li = slot as usize;
                let ri = t.rows[li] as usize;
                if rh4[ri] == h && join_key_eq(&lcol2, l, &rcol2, ri) {
                    lrows.push(l);
                    rrows.push(ri);
                } else {
                    collisions += 1;
                }
                slot = t.next[li];
            }
        }
        (lrows, rrows, collisions)
    });
    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<usize> = Vec::new();
    for (lr, rr, c) in chunks {
        left_rows.extend(lr);
        right_rows.extend(rr);
        stats.hash_collisions += c;
    }
    (left_rows, right_rows)
}

/// One partition's aggregation result, pre-merge.
struct PartAgg {
    /// First row seen per group (global row ids, ascending in group id).
    rep_rows: Vec<usize>,
    /// Rendered group key per group (the serial engine's ordering key).
    keys: Vec<String>,
    /// One accumulated column per aggregate, `groups` rows each.
    agg_cols: Vec<Array>,
    cap: usize,
    collisions: u64,
    rehashes: u64,
}

/// Partitioned group-by: byte-identical to the serial
/// [`super::aggregate_spec`] on the same input. Rows partition by hash
/// prefix; each partition groups and accumulates independently (fold
/// order inside a partition is global row order, so float sums match
/// bit-for-bit); the merge sorts all groups by `(rendered key,
/// representative row)` — the serial output order.
pub(crate) fn aggregate_partitioned(
    group_cols: &[usize],
    aggs: &[(String, String, String)],
    input: &RecordBatch,
    stats: &mut KernelStats,
) -> Result<Aggregated, SqlError> {
    let pool = pool::global();
    let nrows = input.num_rows();
    let hashes: Arc<Vec<u64>> = Arc::new(compute::hash_rows(input, group_cols));

    // Output schema: group columns then one column per aggregate.
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| input.schema().field(c).clone())
        .collect();
    let mut kinds: Vec<AggKind> = Vec::new();
    for (func, column, name) in aggs {
        let kind = resolve_agg(func, column, input)?;
        fields.push(Field::new(name.clone(), kind.data_type(), true));
        kinds.push(kind);
    }
    let kinds = Arc::new(kinds);

    // Partition rows by hash prefix (null keys group like any other key).
    let ranges = morsels(nrows);
    let ranges2 = ranges.clone();
    let h2 = Arc::clone(&hashes);
    let chunks = pool.run_indexed(ranges.len(), move |m| {
        let (lo, hi) = ranges2[m];
        let mut out: [Vec<u32>; PARTITIONS] = Default::default();
        for r in lo..hi {
            out[partition_of(h2[r])].push(r as u32);
        }
        out
    });
    let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); PARTITIONS];
    for chunk in chunks {
        for (p, rows) in chunk.into_iter().enumerate() {
            part_rows[p].extend(rows);
        }
    }

    // Group and accumulate each partition independently.
    let part_rows = Arc::new(part_rows);
    let pr2 = Arc::clone(&part_rows);
    let h3 = Arc::clone(&hashes);
    let k2 = Arc::clone(&kinds);
    let gcols: Arc<Vec<usize>> = Arc::new(group_cols.to_vec());
    let input2 = input.clone();
    let mut parts = pool.run_indexed(PARTITIONS, move |p| {
        let rows = &pr2[p];
        let mut table = GroupTable::with_capacity_hint(rows.len());
        let cap = table.capacity();
        let mut collisions = 0u64;
        let mut rep_rows: Vec<usize> = Vec::new();
        let mut group_sizes: Vec<i64> = Vec::new();
        let mut row_group: Vec<u32> = Vec::with_capacity(rows.len());
        for &r in rows.iter() {
            let r = r as usize;
            let (g, inserted) = table.find_or_insert(
                h3[r],
                |g| group_key_eq(&input2, &gcols, rep_rows[g as usize], r),
                &mut collisions,
            );
            if inserted {
                rep_rows.push(r);
                group_sizes.push(1);
            } else {
                group_sizes[g as usize] += 1;
            }
            row_group.push(g);
        }
        let keys: Vec<String> = rep_rows
            .iter()
            .map(|&r| {
                gcols
                    .iter()
                    .map(|&c| input2.column(c).value_at(r).to_string())
                    .collect::<Vec<_>>()
                    .join("\u{1}")
            })
            .collect();
        let agg_cols: Vec<Array> = k2
            .iter()
            .map(|kind| accumulate_rows(kind, &input2, rows, &row_group, &group_sizes))
            .collect();
        PartAgg {
            rep_rows,
            keys,
            agg_cols,
            cap,
            collisions,
            rehashes: table.rehashes,
        }
    });

    for p in &parts {
        stats.hash_slots += p.cap as u64;
        stats.hash_collisions += p.collisions;
        stats.rehashes += p.rehashes;
        stats.groups += p.rep_rows.len() as u64;
    }

    // Deterministic merge: the serial engine stable-sorts groups by
    // rendered key with first-appearance tie order; first appearance is
    // ascending representative row, so (key, rep_row) reproduces it.
    let mut entries: Vec<(usize, usize)> = (0..PARTITIONS)
        .flat_map(|p| (0..parts[p].rep_rows.len()).map(move |g| (p, g)))
        .collect();
    entries.sort_by(|&(pa, ga), &(pb, gb)| {
        parts[pa].keys[ga]
            .cmp(&parts[pb].keys[gb])
            .then(parts[pa].rep_rows[ga].cmp(&parts[pb].rep_rows[gb]))
    });
    let ordered_reps: Vec<usize> = entries.iter().map(|&(p, g)| parts[p].rep_rows[g]).collect();

    let mut columns: Vec<Array> = group_cols
        .iter()
        .map(|&c| input.column(c).take_rows(&ordered_reps))
        .collect();
    for (k, kind) in kinds.iter().enumerate() {
        columns.push(gather_agg(&parts, k, &entries, kind.data_type()));
    }
    Ok(Aggregated {
        batch: RecordBatch::try_new(Schema::new(fields), columns).map_err(wrap)?,
        keys: entries
            .iter()
            .map(|&(p, g)| std::mem::take(&mut parts[p].keys[g]))
            .collect(),
        first_rows: ordered_reps,
    })
}

/// Gathers one aggregate's output column across partitions in merged
/// group order. Aggregates only produce `Int64` / `Float64` columns.
fn gather_agg(parts: &[PartAgg], k: usize, entries: &[(usize, usize)], dt: DataType) -> Array {
    match dt {
        DataType::Int64 => Array::from_opt_i64(
            entries
                .iter()
                .map(|&(p, g)| {
                    parts[p].agg_cols[k]
                        .as_i64()
                        .expect("integer aggregate")
                        .get(g)
                })
                .collect(),
        ),
        _ => Array::from_opt_f64(
            entries
                .iter()
                .map(|&(p, g)| {
                    parts[p].agg_cols[k]
                        .as_f64()
                        .expect("float aggregate")
                        .get(g)
                })
                .collect(),
        ),
    }
}

/// [`super::accumulate`] restricted to one partition's row list:
/// `row_group[k]` is the local group of row `rows[k]`. Iterating `rows`
/// (ascending global rows) folds each group in global row order.
fn accumulate_rows(
    kind: &AggKind,
    input: &RecordBatch,
    rows: &[u32],
    row_group: &[u32],
    group_sizes: &[i64],
) -> Array {
    let ng = group_sizes.len();
    match *kind {
        AggKind::CountStar => Array::from_i64(group_sizes.to_vec()),
        AggKind::Count(c) => {
            let validity = input.column(c).validity();
            let mut counts = vec![0i64; ng];
            for (k, &r) in rows.iter().enumerate() {
                if validity.is_none_or(|v| v.get(r as usize)) {
                    counts[row_group[k] as usize] += 1;
                }
            }
            Array::from_i64(counts)
        }
        AggKind::SumI64(c) => {
            fold_rows_i64(input.column(c), rows, row_group, ng, 0, i64::wrapping_add)
        }
        AggKind::MinI64(c) => {
            fold_rows_i64(input.column(c), rows, row_group, ng, i64::MAX, i64::min)
        }
        AggKind::MaxI64(c) => {
            fold_rows_i64(input.column(c), rows, row_group, ng, i64::MIN, i64::max)
        }
        AggKind::SumF64(c) => {
            fold_rows_f64(input.column(c), rows, row_group, ng, 0.0, |a, b| a + b)
        }
        AggKind::MinF64(c) => fold_rows_f64(
            input.column(c),
            rows,
            row_group,
            ng,
            f64::INFINITY,
            f64::min,
        ),
        AggKind::MaxF64(c) => fold_rows_f64(
            input.column(c),
            rows,
            row_group,
            ng,
            f64::NEG_INFINITY,
            f64::max,
        ),
        AggKind::Avg(c) => {
            let mut sums = vec![0f64; ng];
            let mut counts = vec![0i64; ng];
            match input.column(c) {
                Array::Int64(a) => {
                    for (k, &r) in rows.iter().enumerate() {
                        if let Some(v) = a.get(r as usize) {
                            sums[row_group[k] as usize] += v as f64;
                            counts[row_group[k] as usize] += 1;
                        }
                    }
                }
                Array::Float64(a) => {
                    for (k, &r) in rows.iter().enumerate() {
                        if let Some(v) = a.get(r as usize) {
                            sums[row_group[k] as usize] += v;
                            counts[row_group[k] as usize] += 1;
                        }
                    }
                }
                _ => unreachable!("avg resolved only for numeric columns"),
            }
            Array::from_opt_f64(
                (0..ng)
                    .map(|g| (counts[g] > 0).then(|| sums[g] / counts[g] as f64))
                    .collect(),
            )
        }
        AggKind::NonNumeric => Array::from_opt_f64(vec![None; ng]),
    }
}

fn fold_rows_i64(
    col: &Array,
    rows: &[u32],
    row_group: &[u32],
    ng: usize,
    identity: i64,
    op: fn(i64, i64) -> i64,
) -> Array {
    let a = col.as_i64().expect("resolved as Int64");
    let mut acc: Vec<Option<i64>> = vec![None; ng];
    for (k, &r) in rows.iter().enumerate() {
        if let Some(v) = a.get(r as usize) {
            let g = row_group[k] as usize;
            acc[g] = Some(op(acc[g].unwrap_or(identity), v));
        }
    }
    Array::from_opt_i64(acc)
}

fn fold_rows_f64(
    col: &Array,
    rows: &[u32],
    row_group: &[u32],
    ng: usize,
    identity: f64,
    op: fn(f64, f64) -> f64,
) -> Array {
    let a = col.as_f64().expect("resolved as Float64");
    let mut acc: Vec<Option<f64>> = vec![None; ng];
    for (k, &r) in rows.iter().enumerate() {
        if let Some(v) = a.get(r as usize) {
            let g = row_group[k] as usize;
            acc[g] = Some(op(acc[g].unwrap_or(identity), v));
        }
    }
    Array::from_opt_f64(acc)
}

/// Parallel sort: per-morsel stable [`compute::SortKeys::sort_range`]
/// runs, then pairwise [`compute::SortKeys::merge`] rounds on the pool.
/// The merge tie-breaks equal keys by row index, a total order — so any
/// merge shape yields the unique permutation of the full stable sort,
/// identical to [`compute::sort_to_indices`].
pub(crate) fn sort_permutation(keys: compute::SortKeys, order: SortOrder) -> Vec<usize> {
    let pool = pool::global();
    let ranges = morsels(keys.len());
    let keys = Arc::new(keys);
    let ranges2 = ranges.clone();
    let k2 = Arc::clone(&keys);
    let mut runs: Vec<Vec<u32>> = pool.run_indexed(ranges.len(), move |m| {
        let (lo, hi) = ranges2[m];
        k2.sort_range(order, lo as u32, hi as u32)
    });
    while runs.len() > 1 {
        let pairs = runs.len() / 2;
        let prev = Arc::new(runs);
        let prev2 = Arc::clone(&prev);
        let k2 = Arc::clone(&keys);
        let mut merged = pool.run_indexed(pairs, move |i| {
            k2.merge(order, &prev2[2 * i], &prev2[2 * i + 1])
        });
        if prev.len() % 2 == 1 {
            merged.push(prev[prev.len() - 1].clone());
        }
        runs = merged;
    }
    runs.pop()
        .map_or_else(Vec::new, |r| r.into_iter().map(|i| i as usize).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random i64s (splitmix-style), no rand dep.
    fn pseudo(n: usize, seed: u64, modulus: i64) -> Vec<i64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as i64).rem_euclid(modulus)
            })
            .collect()
    }

    #[test]
    fn group_table_grows_and_counts_rehashes() {
        let mut t = GroupTable::with_capacity_hint(0);
        assert_eq!(t.capacity(), 16);
        let mut collisions = 0u64;
        for h in 0..100u64 {
            // All keys distinct: eq by hash identity.
            let (_, inserted) = t.find_or_insert(
                h.wrapping_mul(0x9E3779B97F4A7C15),
                |_| false,
                &mut collisions,
            );
            assert!(inserted);
        }
        assert!(
            t.rehashes >= 4,
            "expected growth events, got {}",
            t.rehashes
        );
        assert!(t.capacity() >= 200);

        // An exact hint never rehashes.
        let mut t = GroupTable::with_capacity_hint(100);
        let mut collisions = 0u64;
        for h in 0..100u64 {
            t.find_or_insert(
                h.wrapping_mul(0x9E3779B97F4A7C15),
                |_| false,
                &mut collisions,
            );
        }
        assert_eq!(t.rehashes, 0);
    }

    #[test]
    fn partitioned_join_matches_bruteforce_and_is_thread_invariant() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS + 1234;
        let lkeys = pseudo(n, 7, 97);
        let rkeys: Vec<i64> = (0..97).map(|i| (i * 31) % 97).collect();
        let lcol = Array::from_i64(lkeys.clone());
        let rcol = Array::from_i64(rkeys.clone());

        let mut expected: (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for (l, lk) in lkeys.iter().enumerate() {
            for (r, rk) in rkeys.iter().enumerate() {
                if lk == rk {
                    expected.0.push(l);
                    expected.1.push(r);
                }
            }
        }

        let mut baseline = None;
        for threads in [1, 2, 4] {
            pool::set_global_threads(threads);
            let mut stats = KernelStats::default();
            let got = join_rows_partitioned(&lcol, &rcol, false, &mut stats);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(stats.rehashes, 0);
            let sig = (stats.hash_slots, stats.hash_collisions);
            if let Some(prev) = baseline {
                assert_eq!(sig, prev, "stats must not depend on threads");
            }
            baseline = Some(sig);
        }
    }

    #[test]
    fn partitioned_aggregate_matches_direct_computation() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS + 777;
        let keys = pseudo(n, 3, 37);
        let vals = pseudo(n, 5, 1000);
        let input = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Int64, false),
            ]),
            vec![Array::from_i64(keys.clone()), Array::from_i64(vals.clone())],
        )
        .unwrap();
        let aggs = vec![
            ("sum".to_string(), "v".to_string(), "s".to_string()),
            ("count".to_string(), "*".to_string(), "n".to_string()),
        ];

        let mut by_key: std::collections::BTreeMap<String, (i64, i64, i64)> =
            std::collections::BTreeMap::new();
        for (k, v) in keys.iter().zip(&vals) {
            let e = by_key.entry(k.to_string()).or_insert((*k, 0, 0));
            e.1 += v;
            e.2 += 1;
        }

        for threads in [1, 4] {
            pool::set_global_threads(threads);
            let mut stats = KernelStats::default();
            let out = aggregate_partitioned(&[0], &aggs, &input, &mut stats)
                .unwrap()
                .batch;
            assert_eq!(out.num_rows(), by_key.len());
            assert_eq!(stats.groups, by_key.len() as u64);
            assert_eq!(stats.rehashes, 0);
            for (i, (_, &(k, s, c))) in by_key.iter().enumerate() {
                assert_eq!(out.column(0).value_at(i), Value::I64(k), "row {i} key");
                assert_eq!(out.column(1).value_at(i), Value::I64(s), "row {i} sum");
                assert_eq!(out.column(2).value_at(i), Value::I64(c), "row {i} count");
            }
        }
    }

    #[test]
    fn sort_permutation_matches_serial_kernel() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS * 2 + 321;
        let vals = pseudo(n, 13, 500);
        let col = Array::from_i64(vals);
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let serial: Vec<usize> = {
                let idx = compute::sort_to_indices(&col, order);
                let a = idx.as_i64().unwrap();
                (0..a.len()).map(|i| a.get(i).unwrap() as usize).collect()
            };
            for threads in [1, 4] {
                pool::set_global_threads(threads);
                assert_eq!(
                    sort_permutation(compute::SortKeys::new(&col), order),
                    serial
                );
            }
        }
    }

    #[test]
    fn take_batch_matches_take_indices() {
        let _guard = pool::test_guard();
        let n = PARALLEL_MIN_ROWS + 50;
        let a = pseudo(n, 17, 1_000_000);
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("a", DataType::Int64, false),
                Field::new("b", DataType::Int64, false),
            ]),
            vec![Array::from_i64(a.clone()), Array::from_i64(a)],
        )
        .unwrap();
        let idx: Vec<usize> = (0..n).rev().collect();
        pool::set_global_threads(4);
        let par = take_batch(&batch, &idx).unwrap();
        let ser = compute::take_indices(&batch, &idx).unwrap();
        assert_eq!(par, ser);
        assert!(take_batch(&batch, &[n]).is_err(), "bounds still checked");
    }
}
