//! Property tier for the flat Hive table: on random widths, duplicate keys
//! and empty sides, `filter` / `join` / `group_sum` must equal a
//! straightforward loop over the rows. Then the shuffle traffic and output
//! of the tiny dataset's triple join, semijoin and group-sum are pinned, so a
//! change to how jobs read their rows can move no simulated byte.

use genbase_datagen::generate::FUNCTION_FILTER;
use genbase_datagen::{generate, GeneratorConfig, SizeSpec};
use genbase_mapreduce::record::encode;
use genbase_mapreduce::{Cell, HiveTable, JobConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Mostly small ints (keys collide often), some floats.
fn arb_cell() -> impl Strategy<Value = Cell> {
    (0usize..4, 0i64..5, -50.0f64..50.0).prop_map(|(tag, i, f)| match tag {
        0 => Cell::F(f),
        _ => Cell::I(i),
    })
}

/// A table of width 1..5 with no rows a quarter of the time.
fn arb_table() -> impl Strategy<Value = HiveTable> {
    (1usize..5, 0usize..4, 1usize..24).prop_flat_map(|(width, empty, rows)| {
        let rows = if empty == 0 { 0 } else { rows };
        collection::vec(arb_cell(), width * rows)
            .prop_map(move |cells| HiveTable::from_cells(width, cells).unwrap())
    })
}

/// Rows as owned vectors, sorted by their encoding (a multiset view).
fn sorted_rows<'a>(rows: impl Iterator<Item = &'a [Cell]>) -> Vec<Vec<Cell>> {
    let mut rows: Vec<Vec<Cell>> = rows.map(<[Cell]>::to_vec).collect();
    rows.sort_by_key(encode);
    rows
}

fn cfg(tasks: usize) -> JobConfig {
    JobConfig::local(tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_rows_match_the_boxed_rows(t in arb_table()) {
        let boxed: Vec<Vec<Cell>> = t.rows().map(<[Cell]>::to_vec).collect();
        prop_assert_eq!(boxed.len(), t.len());
        if !boxed.is_empty() {
            prop_assert_eq!(&HiveTable::new(boxed), &t);
        }
    }

    #[test]
    fn filter_is_a_row_loop(t in arb_table(), tasks in 1usize..5, m in 1i64..4) {
        let keep = |r: &[Cell]| matches!(r[0], Cell::I(k) if k % m == 0);
        let got = t.filter(keep, &cfg(tasks)).unwrap();
        prop_assert_eq!(got.width(), t.width());
        // A map-only job keeps input order.
        let expect: Vec<&[Cell]> = t.rows().filter(|r| keep(r)).collect();
        prop_assert!(got.rows().eq(expect));
    }

    #[test]
    fn join_is_a_nested_loop(
        left in arb_table(),
        right in arb_table(),
        keys in (0usize..4, 0usize..4),
        tasks in 1usize..5,
    ) {
        let (lk, rk) = (keys.0 % left.width(), keys.1 % right.width());
        let got = left.join(lk, &right, rk, &cfg(tasks)).unwrap();
        prop_assert_eq!(got.width(), left.width() + right.width());
        let mut expect = Vec::new();
        for l in left.rows() {
            for r in right.rows() {
                if matches!((l[lk], r[rk]), (Cell::I(a), Cell::I(b)) if a == b) {
                    expect.push([l, r].concat());
                }
            }
        }
        prop_assert_eq!(
            sorted_rows(got.rows()),
            sorted_rows(expect.iter().map(Vec::as_slice))
        );
    }

    #[test]
    fn group_sum_is_a_fold(t in arb_table(), cols in (0usize..4, 0usize..4), tasks in 1usize..5) {
        let (kc, vc) = (cols.0 % t.width(), cols.1 % t.width());
        let got = t.group_sum(kc, vc, &cfg(tasks)).unwrap();
        let mut expect: BTreeMap<i64, (f64, u64)> = BTreeMap::new();
        for r in t.rows() {
            if let (Cell::I(k), Cell::F(v)) = (r[kc], r[vc]) {
                let e = expect.entry(k).or_default();
                e.0 += v;
                e.1 += 1;
            }
        }
        prop_assert_eq!(got.len(), expect.len());
        for ((k, s, c), (ek, (es, ec))) in got.into_iter().zip(expect) {
            prop_assert_eq!((k, c), (ek, ec));
            prop_assert!((s - es).abs() < 1e-9, "key {k}: {s} vs {es}");
        }
    }

    #[test]
    fn a_column_past_the_width_is_refused_by_every_op(t in arb_table(), past in 0usize..3) {
        let c = t.width() + past;
        let cfg = cfg(2);
        prop_assert!(t.join(c, &t, 0, &cfg).is_err());
        prop_assert!(t.join(0, &t, c, &cfg).is_err());
        prop_assert!(t.group_sum(c, 0, &cfg).is_err());
        prop_assert!(t.group_sum(0, c, &cfg).is_err());
    }
}

/// FNV-1a over encoded records, in order.
fn digest(records: impl IntoIterator<Item = Vec<u8>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in records.into_iter().flatten() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[test]
fn tiny_triple_jobs_shuffle_the_pinned_bytes() {
    let data = generate(&GeneratorConfig::new(SizeSpec::tiny())).unwrap();
    let mut triples = Vec::new();
    for p in 0..data.n_patients() {
        for (g, &v) in data.expression.row(p).iter().enumerate() {
            triples.push(vec![Cell::I(g as i64), Cell::I(p as i64), Cell::F(v)]);
        }
    }
    let triples = HiveTable::new(triples);
    let genes = HiveTable::new(
        data.genes
            .iter()
            .map(|g| vec![Cell::I(g.id as i64), Cell::I(g.function)])
            .collect(),
    );
    // Four map and reduce slots with a modelled network, as the Hadoop
    // engine configures a multi-node run.
    let cfg = || JobConfig {
        shuffle_net: Some((1e-4, 1e8)),
        ..JobConfig::local(4)
    };

    let join = cfg();
    let filtered = genes
        .filter(|r| matches!(r[1], Cell::I(f) if f < FUNCTION_FILTER), &join)
        .unwrap();
    let joined = triples.join(0, &filtered, 0, &join).unwrap();

    let semi = cfg();
    let sampled = triples
        .filter(|r| matches!(r[1], Cell::I(p) if p % 3 == 0), &semi)
        .unwrap();

    let group = cfg();
    let sums = sampled.group_sum(0, 2, &group).unwrap();

    let got = [
        (
            joined.len(),
            join.sim.bytes(),
            digest(joined.rows().map(encode)),
        ),
        (
            sampled.len(),
            semi.sim.bytes(),
            digest(sampled.rows().map(encode)),
        ),
        (
            sums.len(),
            group.sim.bytes(),
            digest(sums.iter().map(|&(k, s, c)| encode(&(k, (s, c))))),
        ),
    ];
    assert_eq!(got, PINNED);
}

/// `(rows out, shuffled bytes, output digest)` of the join, the semijoin
/// (map-only: nothing shuffles) and the group-sum, as the boxed-row tables
/// (`Vec<Vec<Cell>>`, every row cloned into each job's input) produced them.
const PINNED: [(usize, u64, u64); 3] = [
    (800, 132_560, 12_002_112_159_098_781_699),
    (1020, 0, 8_716_712_966_256_873_697),
    (60, 5_760, 7_014_801_411_400_457_459),
];
