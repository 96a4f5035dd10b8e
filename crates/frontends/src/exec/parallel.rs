//! The kernels: hash join, group-by, sort, filter masks and gathers —
//! morsel-driven and hash-partitioned, one implementation per operator.
//!
//! Every kernel derives all of its structure from the data alone, so
//! **thread count never changes output bytes**:
//!
//! * morsel boundaries come from [`pool::morsels`] (fixed row ranges);
//! * joins and group-bys split into [`pool::partitions`] hash partitions
//!   by the *top* bits of the folded key hash (tables bucket by the *low*
//!   bits, so partitioning preserves bucket entropy);
//! * per-partition tables size themselves from exact partition row
//!   counts, so they never rehash ([`GroupTable::rehashes`] proves it);
//! * merges are deterministic: join morsel outputs concatenate in morsel
//!   order (the probe order), group partitions merge by sorting
//!   `(rendered key, representative row)` (rendered-key order with
//!   first-appearance ties), and sorted runs merge under a total order
//!   (key, then row index).
//!
//! Below the pool's size threshold a kernel runs as one partition and
//! one morsel, which is the plain serial algorithm, inline on the caller
//! ([`pool::ExecPool::run_indexed`] runs a single item inline). Above it
//! the output is the same: every true join match shares the full key
//! hash, so matches land in the probe row's own partition and
//! per-partition chains ascend in global row order — the concatenated
//! morsel outputs are exactly one partition's pair sequence. Likewise
//! every group lives wholly inside one partition, so per-group fold
//! order equals global row order and float accumulations are
//! bit-identical at every partition count.

use std::sync::Arc;

use skadi_arrow::array::Array;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::buffer::Bitmap;
use skadi_arrow::compute::{self, SortOrder};
use skadi_arrow::datatype::DataType;
use skadi_arrow::error::ArrowError;
use skadi_arrow::schema::{Field, Schema};
use skadi_flowgraph::profile::ShardStats;
use skadi_flowgraph::{ExecAgg, ExecCompare};

use super::pool::{self, morsels};
use super::{
    fold_hash, group_key_eq, join_key_eq, resolve_agg, wrap, AggKind, Aggregated, EMPTY_SLOT,
};
use crate::sql::SqlError;

/// The partition of hash `h` among `parts` (a power of two): the top
/// `log2(parts)` bits of the folded hash, so always 0 for one partition.
#[inline]
fn partition_of(h: u64, parts: usize) -> usize {
    fold_hash(h)
        .checked_shr(64 - parts.trailing_zeros())
        .unwrap_or(0) as usize
}

/// Splits rows `0..hashes.len()` into `parts` partitions by
/// [`partition_of`], morsel by morsel; concatenating the morsel outputs
/// keeps each partition's rows ascending. Rows `nulls` marks invalid are
/// left out.
fn partition_rows(hashes: &Arc<Vec<u64>>, nulls: Option<Bitmap>, parts: usize) -> Vec<Vec<u32>> {
    let ranges = morsels(hashes.len());
    let h = Arc::clone(hashes);
    let mut chunks = pool::global()
        .run_indexed(ranges.len(), move |m| {
            let (lo, hi) = ranges[m];
            let mut out = vec![Vec::with_capacity((hi - lo) / parts); parts];
            for r in lo..hi {
                if nulls.as_ref().is_some_and(|v| !v.get(r)) {
                    continue;
                }
                out[partition_of(h[r], parts)].push(r as u32);
            }
            out
        })
        .into_iter();
    let mut part_rows = chunks.next().expect("at least one morsel");
    for chunk in chunks {
        for (p, rows) in chunk.into_iter().enumerate() {
            part_rows[p].extend(rows);
        }
    }
    part_rows
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
    /// slot increments `collisions` (the hash is compared before `eq`
    /// runs). Returns `(group_id, inserted)`.
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

/// Fuses a conjunction into one boolean mask (`None` for an empty
/// conjunction, meaning "keep everything"). Each conjunct's comparison
/// mask ([`compute::cmp_scalar`]) is an independent column scan, so on
/// large batches they evaluate concurrently; the masks then combine with
/// [`compute::and`] (SQL three-valued logic) in conjunct order.
pub(crate) fn conjunct_mask(
    batch: &RecordBatch,
    conjuncts: &[ExecCompare],
) -> Result<Option<Array>, SqlError> {
    let mut jobs = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        jobs.push((
            batch.column_by_name(&c.column).map_err(wrap)?.clone(),
            super::cmp_op(&c.op)?,
            super::literal_value(&c.value),
        ));
    }
    let n = jobs.len();
    let jobs = Arc::new(jobs);
    let masks = pool::run_sized(batch.num_rows(), n, move |i| {
        let (col, op, v) = &jobs[i];
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

/// [`compute::take_indices`], one gather job per column; large gathers
/// spread the columns across the pool.
pub(crate) fn take_batch(
    batch: &RecordBatch,
    indices: Vec<usize>,
) -> Result<RecordBatch, ArrowError> {
    if let Some(&i) = indices.iter().find(|&&i| i >= batch.num_rows()) {
        return Err(ArrowError::IndexOutOfBounds {
            index: i,
            len: batch.num_rows(),
        });
    }
    let cols: Arc<Vec<Array>> = Arc::new(batch.columns().to_vec());
    let (rows, ncols) = (indices.len(), cols.len());
    let idx = Arc::new(indices);
    let gathered = pool::run_sized(rows, ncols, move |c| cols[c].take_rows(&idx));
    RecordBatch::try_new(batch.schema().clone(), gathered)
}

/// Gathers join output columns: all left columns by `left_rows`, then
/// the selected right columns by `right_rows`, one job per column.
pub(crate) fn gather_join_columns(
    left: &RecordBatch,
    right: &RecordBatch,
    right_cols: &[usize],
    left_rows: Vec<usize>,
    right_rows: Vec<usize>,
) -> Vec<Array> {
    let jobs: Vec<(Array, bool)> = left
        .columns()
        .iter()
        .map(|c| (c.clone(), true))
        .chain(right_cols.iter().map(|&c| (right.column(c).clone(), false)))
        .collect();
    let (rows, ncols) = (left_rows.len(), jobs.len());
    let (lr, rr) = (Arc::new(left_rows), Arc::new(right_rows));
    pool::run_sized(rows, ncols, move |i| {
        let (col, is_left) = &jobs[i];
        col.take_rows(if *is_left { &lr } else { &rr })
    })
}

/// One partition's build side: a chained bucket table whose links index
/// the partition's row list.
struct BuildPart {
    head: Vec<u32>,
    next: Vec<u32>,
    cap: usize,
}

/// The hash equi-join core: the matching `(left_row, right_row)` pairs in
/// probe order, each probe row's matches in ascending build row order.
/// Null keys match nothing. Build-table capacity and failed chain visits
/// accumulate into `stats`.
///
/// Keys bucket by their raw-byte FNV-1a hash
/// ([`compute::hash_key_column`]) with a typed equality check on each
/// candidate ([`join_key_eq`]) — no per-row key rendering. Build rows
/// partition by hash prefix; each partition builds a chained table
/// (`head` + `next` arrays, zero allocations per bucket) sized from its
/// exact row count, inserting in reverse so chains ascend; probe morsels
/// walk the chains and their outputs concatenate in morsel order.
pub(crate) fn join_rows(
    left: &RecordBatch,
    right: &RecordBatch,
    left_key: &str,
    right_key: &str,
    stats: &mut ShardStats,
) -> Result<(Vec<usize>, Vec<usize>), SqlError> {
    let lcol = left
        .column(left.schema().index_of(left_key).map_err(wrap)?)
        .clone();
    let rcol = right
        .column(right.schema().index_of(right_key).map_err(wrap)?)
        .clone();
    // A mixed Int64/Float64 key pair hashes the integer side through its
    // f64 bit pattern so numerically-equal keys share a bucket.
    let mixed = matches!(
        (lcol.data_type(), rcol.data_type()),
        (DataType::Int64, DataType::Float64) | (DataType::Float64, DataType::Int64)
    );
    let parts = pool::partitions(left.num_rows().max(right.num_rows()));
    let rh: Arc<Vec<u64>> = Arc::new(compute::hash_key_column(&rcol, mixed));
    let lh: Arc<Vec<u64>> = Arc::new(compute::hash_key_column(&lcol, mixed));
    let part_rows = Arc::new(partition_rows(&rh, rcol.validity().cloned(), parts));

    // A single table is sized from every build row, null keys included,
    // so a small join's `hash_slots` and `hash_collisions` in profiles
    // follow the whole build side.
    let all_rows = (parts == 1).then_some(rh.len());
    let (pr, rh2) = (Arc::clone(&part_rows), Arc::clone(&rh));
    let tables: Arc<Vec<BuildPart>> = Arc::new(pool::global().run_indexed(parts, move |p| {
        let rows = &pr[p];
        let cap = (all_rows.unwrap_or(rows.len()) * 2)
            .next_power_of_two()
            .max(16);
        let mask = cap as u64 - 1;
        let mut head = vec![EMPTY_SLOT; cap];
        let mut next = vec![EMPTY_SLOT; rows.len()];
        for (li, &r) in rows.iter().enumerate().rev() {
            let b = (fold_hash(rh2[r as usize]) & mask) as usize;
            next[li] = head[b];
            head[b] = li as u32;
        }
        BuildPart { head, next, cap }
    }));
    stats.hash_slots += tables.iter().map(|t| t.cap as u64).sum::<u64>();

    // Probe, morsel by morsel over the probe sequence.
    let ranges = morsels(lh.len());
    let chunks = pool::global().run_indexed(ranges.len(), move |m| {
        let (lo, hi) = ranges[m];
        let mut lrows: Vec<usize> = Vec::new();
        let mut rrows: Vec<usize> = Vec::new();
        let mut collisions = 0u64;
        let l_validity = lcol.validity();
        for l in lo..hi {
            if l_validity.is_some_and(|v| !v.get(l)) {
                continue;
            }
            let h = lh[l];
            let p = partition_of(h, parts);
            let (t, rows) = (&tables[p], &part_rows[p]);
            let mut slot = t.head[(fold_hash(h) & (t.cap as u64 - 1)) as usize];
            while slot != EMPTY_SLOT {
                let li = slot as usize;
                let ri = rows[li] as usize;
                if rh[ri] == h && join_key_eq(&lcol, l, &rcol, ri) {
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
    let mut chunks = chunks.into_iter();
    let (mut left_rows, mut right_rows, c) = chunks.next().expect("at least one morsel");
    stats.hash_collisions += c;
    for (lr, rr, c) in chunks {
        left_rows.extend(lr);
        right_rows.extend(rr);
        stats.hash_collisions += c;
    }
    Ok((left_rows, right_rows))
}

/// One partition's aggregation result, pre-merge.
struct PartAgg {
    /// First row seen per group (global row ids, ascending in group id).
    rep_rows: Vec<usize>,
    /// Rendered group key per group (the output ordering key).
    keys: Vec<String>,
    /// One accumulated column per aggregate, `groups` rows each.
    agg_cols: Vec<Array>,
    cap: usize,
    collisions: u64,
    rehashes: u64,
}

/// Grouped or global aggregation over `input`, with `aggs` as the
/// plan's own descriptors. Group-table capacity, linear-probe steps,
/// growth events and the group count accumulate into `stats`.
///
/// Rows get dense group ids from a `u64`-hash table
/// ([`compute::hash_rows`]) with typed collision-checked key equality;
/// aggregates then run as single-pass streaming accumulators. Rows
/// partition by hash prefix and each partition groups and accumulates
/// independently; the merge sorts all groups by `(rendered key,
/// representative row)`. Output order is therefore the rendered-key
/// order (one key string per *group*, not per row), ties in order of
/// first appearance.
///
/// A global aggregate (no GROUP BY) is one group — even over an empty
/// input, so `count(*)` of nothing is one row holding `0` — and needs no
/// hashing and no table.
pub(crate) fn aggregate(
    group_by: &[String],
    aggs: &[ExecAgg],
    input: &RecordBatch,
    stats: &mut ShardStats,
) -> Result<Aggregated, SqlError> {
    let group_cols: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema().index_of(g).map_err(wrap))
        .collect::<Result<_, _>>()?;
    let nrows = input.num_rows();

    // Output schema: group columns then one column per aggregate.
    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| input.schema().field(c).clone())
        .collect();
    let mut kinds: Vec<AggKind> = Vec::new();
    for agg in aggs {
        let kind = resolve_agg(agg, input)?;
        fields.push(Field::new(agg.name.clone(), kind.data_type(), true));
        kinds.push(kind);
    }

    let (hashes, part_rows) = if group_cols.is_empty() {
        (Arc::default(), vec![(0..nrows as u32).collect()])
    } else {
        let hashes = Arc::new(compute::hash_rows(input, &group_cols));
        let part_rows = partition_rows(&hashes, None, pool::partitions(nrows));
        (hashes, part_rows)
    };
    let nparts = part_rows.len();
    let part_rows = Arc::new(part_rows);
    let kinds = Arc::new(kinds);
    let (k2, gcols, input2) = (Arc::clone(&kinds), group_cols.clone(), input.clone());
    let mut parts = pool::global().run_indexed(nparts, move |p| {
        group_partition(&input2, &gcols, &hashes, &part_rows[p], &k2)
    });

    for p in &parts {
        stats.hash_slots += p.cap as u64;
        stats.hash_collisions += p.collisions;
        stats.rehashes += p.rehashes;
        stats.groups += p.rep_rows.len() as u64;
    }

    // Deterministic merge: rendered-key order, first appearance (the
    // ascending representative row) breaking ties. Representative rows
    // are distinct, so `(key, row)` is a total order.
    let mut order: Vec<(&str, usize, usize, usize)> = parts
        .iter()
        .enumerate()
        .flat_map(|(p, part)| {
            (part.keys.iter().zip(&part.rep_rows).enumerate())
                .map(move |(g, (key, &rep))| (key.as_str(), rep, p, g))
        })
        .collect();
    order.sort_unstable();
    let entries: Vec<(usize, usize)> = order.into_iter().map(|(_, _, p, g)| (p, g)).collect();
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

/// Groups one partition's rows (ascending global rows) and runs every
/// aggregate over them. Without group columns the rows form one group
/// whose first row is row 0, and no table is built.
fn group_partition(
    input: &RecordBatch,
    gcols: &[usize],
    hashes: &[u64],
    rows: &[u32],
    kinds: &[AggKind],
) -> PartAgg {
    let mut rep_rows: Vec<usize> = Vec::new();
    let mut group_sizes: Vec<i64> = Vec::new();
    let mut row_group: Vec<u32> = Vec::with_capacity(rows.len());
    let (mut cap, mut collisions, mut rehashes) = (0, 0, 0);
    if gcols.is_empty() {
        rep_rows.push(0);
        group_sizes.push(rows.len() as i64);
        row_group.resize(rows.len(), 0);
    } else {
        // Preallocated from the exact row count, so it never rehashes.
        let mut table = GroupTable::with_capacity_hint(rows.len());
        cap = table.capacity();
        for &r in rows {
            let r = r as usize;
            let (g, inserted) = table.find_or_insert(
                hashes[r],
                |g| group_key_eq(input, gcols, rep_rows[g as usize], r),
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
        rehashes = table.rehashes;
    }
    let keys: Vec<String> = rep_rows
        .iter()
        .map(|&r| {
            gcols
                .iter()
                .map(|&c| input.column(c).value_at(r).to_string())
                .collect::<Vec<_>>()
                .join("\u{1}")
        })
        .collect();
    let agg_cols: Vec<Array> = kinds
        .iter()
        .map(|kind| accumulate_rows(kind, input, rows, &row_group, &group_sizes))
        .collect();
    PartAgg {
        rep_rows,
        keys,
        agg_cols,
        cap,
        collisions,
        rehashes,
    }
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

/// Runs one aggregate over one partition's rows in a single
/// column-at-a-time pass: `row_group[k]` is the local group of row
/// `rows[k]`. Iterating `rows` (ascending global rows) folds each group
/// in global row order. Integer sums, mins and maxes fold from their
/// identity in `Option<i64>` per group (groups with no non-null value
/// stay null); float folds from `0.0` / `±INFINITY`.
fn accumulate_rows(
    kind: &AggKind,
    input: &RecordBatch,
    rows: &[u32],
    row_group: &[u32],
    group_sizes: &[i64],
) -> Array {
    let ng = group_sizes.len();
    let i64s = |c: usize| valid_values(input.column(c), rows, i64::from_le_bytes);
    let f64s = |c: usize| valid_values(input.column(c), rows, f64::from_le_bytes);
    let fold_i64 =
        |c, identity, op| Array::from_opt_i64(fold(i64s(c), row_group, ng, identity, op));
    let fold_f64 =
        |c, identity, op| Array::from_opt_f64(fold(f64s(c), row_group, ng, identity, op));
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
        AggKind::SumI64(c) => fold_i64(c, 0, i64::wrapping_add),
        AggKind::MinI64(c) => fold_i64(c, i64::MAX, i64::min),
        AggKind::MaxI64(c) => fold_i64(c, i64::MIN, i64::max),
        AggKind::SumF64(c) => fold_f64(c, 0.0, |a, b| a + b),
        AggKind::MinF64(c) => fold_f64(c, f64::INFINITY, f64::min),
        AggKind::MaxF64(c) => fold_f64(c, f64::NEG_INFINITY, f64::max),
        AggKind::Avg(c) => {
            let mut sums = vec![0f64; ng];
            let mut counts = vec![0i64; ng];
            let mut add = |k: usize, v: f64| {
                let g = row_group[k] as usize;
                sums[g] += v;
                counts[g] += 1;
            };
            match input.column(c) {
                Array::Int64(_) => i64s(c).for_each(|(k, v)| add(k, v as f64)),
                _ => f64s(c).for_each(|(k, v)| add(k, v)),
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

/// `(k, value)` for each non-null row `rows[k]` of an `Int64` or
/// `Float64` column, decoded from the column's raw little-endian bytes.
fn valid_values<'a, T>(
    col: &'a Array,
    rows: &'a [u32],
    decode: impl Fn([u8; 8]) -> T + 'a,
) -> impl Iterator<Item = (usize, T)> + 'a {
    let (raw, validity) = match col {
        Array::Int64(a) => (a.values().as_slice(), a.validity()),
        Array::Float64(a) => (a.values().as_slice(), a.validity()),
        _ => unreachable!("numeric aggregates resolve only over Int64 and Float64"),
    };
    rows.iter().enumerate().filter_map(move |(k, &r)| {
        let r = r as usize;
        validity.is_none_or(|v| v.get(r)).then(|| {
            (
                k,
                decode(raw[r * 8..r * 8 + 8].try_into().expect("8 bytes")),
            )
        })
    })
}

/// Folds `(k, value)` pairs into one `Option<T>` per group, starting each
/// group from `identity`.
fn fold<T: Copy>(
    values: impl Iterator<Item = (usize, T)>,
    row_group: &[u32],
    ng: usize,
    identity: T,
    op: fn(T, T) -> T,
) -> Vec<Option<T>> {
    let mut acc: Vec<Option<T>> = vec![None; ng];
    for (k, v) in values {
        let g = row_group[k] as usize;
        acc[g] = Some(op(acc[g].unwrap_or(identity), v));
    }
    acc
}

/// The sort permutation: per-morsel stable [`compute::SortKeys::sort_range`]
/// runs, then pairwise [`compute::SortKeys::merge`] rounds on the pool.
/// The merge tie-breaks equal keys by row index, a total order — so any
/// merge shape yields the unique permutation of the full stable sort,
/// identical to [`compute::sort_to_indices`]. Below one morsel of rows
/// that is one plain stable sort.
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
    use crate::exec::pool::PARALLEL_MIN_ROWS;
    use skadi_arrow::array::Value;

    fn int_batch(name: &str, keys: Vec<Option<i64>>) -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![Field::new(name, DataType::Int64, true)]),
            vec![Array::from_opt_i64(keys)],
        )
        .unwrap()
    }

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
    fn join_matches_bruteforce_and_is_thread_invariant() {
        let _guard = pool::test_guard();
        // One partition just below the size choice, eight just above.
        for n in [PARALLEL_MIN_ROWS - 1, PARALLEL_MIN_ROWS + 1234] {
            let lkeys = pseudo(n, 7, 97);
            let rkeys: Vec<i64> = (0..97).map(|i| (i * 31) % 97).collect();
            let left = int_batch("k", lkeys.iter().map(|&k| Some(k)).collect());
            let right = int_batch("k", rkeys.iter().map(|&k| Some(k)).collect());

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
                let mut stats = ShardStats::default();
                let got = join_rows(&left, &right, "k", "k", &mut stats).unwrap();
                assert_eq!(got, expected, "n={n} threads={threads}");
                assert_eq!(stats.rehashes, 0);
                let sig = (stats.hash_slots, stats.hash_collisions);
                if let Some(prev) = baseline {
                    assert_eq!(sig, prev, "stats must not depend on threads");
                }
                baseline = Some(sig);
            }
        }
    }

    #[test]
    fn one_partition_join_sizes_its_table_from_all_build_rows() {
        // 9 build rows, one null key: the table has next_pow2(2 * 9) = 32
        // slots, not the 16 that sizing from the 8 non-null rows would
        // give, and the chain walks see that table's collisions.
        let build = int_batch(
            "k",
            [1, 2, -1, 3, 2, 5, 8, 13, 21]
                .map(|k| (k >= 0).then_some(k))
                .to_vec(),
        );
        let probe = int_batch("k", (0..40).map(|i| (i != 7).then_some(i)).collect());
        let mut stats = ShardStats::default();
        let (l, r) = join_rows(&probe, &build, "k", "k", &mut stats).unwrap();
        assert_eq!(l, vec![1, 2, 2, 3, 5, 8, 13, 21]);
        assert_eq!(r, vec![0, 1, 4, 3, 5, 6, 7, 8]);
        assert_eq!((stats.hash_slots, stats.hash_collisions), (32, 29));
    }

    #[test]
    fn aggregate_matches_direct_computation() {
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
        let agg = |func: &str, column: &str, name: &str| ExecAgg {
            func: func.into(),
            column: column.into(),
            name: name.into(),
        };
        let aggs = vec![agg("sum", "v", "s"), agg("count", "*", "n")];

        let mut by_key: std::collections::BTreeMap<String, (i64, i64, i64)> =
            std::collections::BTreeMap::new();
        for (k, v) in keys.iter().zip(&vals) {
            let e = by_key.entry(k.to_string()).or_insert((*k, 0, 0));
            e.1 += v;
            e.2 += 1;
        }

        for threads in [1, 4] {
            pool::set_global_threads(threads);
            let mut stats = ShardStats::default();
            let out = aggregate(&["k".to_string()], &aggs, &input, &mut stats)
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
    fn sort_permutation_matches_sort_to_indices() {
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
        let par = take_batch(&batch, idx.clone()).unwrap();
        let ser = compute::take_indices(&batch, &idx).unwrap();
        assert_eq!(par, ser);
        assert!(take_batch(&batch, vec![n]).is_err(), "bounds still checked");
    }
}
