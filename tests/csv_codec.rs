//! Property tests for the export bridge's text codec (`genbase_util::csv`):
//! hostile text must come back as an error or a rectangular matrix, never a
//! panic, and exactly as the old line-by-line parser returned it; whatever
//! the writers print must parse back bit for bit — every finite double
//! including `-0.0`, every `i64` as its nearest double — and both stores'
//! exports, whole or streamed in chunks, must print what the old per-row
//! field buffer printed.

use genbase_relational::{export_csv, ColumnTable, DataType, RowTable, Schema, Value};
use genbase_storage::{carve_view, csv_selected, ColumnarTable, MemTracker, SelVec};
use genbase_util::csv::{self, CsvField};
use genbase_util::{Budget, Error, Pcg64};
use proptest::prelude::*;

/// Bytes biased towards what CSV is made of, so that a good share of cases
/// get past the first field, with raw bytes (NUL, `\r`, invalid UTF-8) mixed
/// in; decoded lossily because the codec's input type is `&str`.
fn arb_text(max_len: usize) -> impl Strategy<Value = String> {
    const SHAPED: &[u8] = b"0123456789,,,\n\n\r.-+e \t";
    proptest::collection::vec(0usize..512, 0..max_len).prop_map(|codes| {
        let bytes: Vec<u8> = codes
            .into_iter()
            .map(|c| match c.checked_sub(256) {
                Some(shaped) => SHAPED[shaped % SHAPED.len()],
                None => c as u8,
            })
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Any finite double, uniform over bit patterns (the 1 in 2048 that are not
/// finite become `-0.0`).
fn arb_finite() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            -0.0
        }
    })
}

/// Fields the scanner converts itself or must leave to `str::parse`.
const EDGE_FIELDS: &[&str] = &[
    "0",
    "-0",
    "-00",
    "+5",
    "007",
    "-42",
    " 12 ",
    "\t7",
    "999999999999999",
    "-999999999999999",
    "9007199254740993",
    "1e3",
    ".5",
    "5.",
    "nan",
    "-inf",
    "",
    "-",
    "x",
    "\0",
    "١٢",
];

/// Text built from whole fields — the edge cases, integers of every width
/// and printed doubles — joined by commas and every kind of line end (`\n`,
/// `\r\n`, a bare `\r`), so that most cases reach later fields and lines.
fn arb_fields_text() -> impl Strategy<Value = String> {
    let part = (0..EDGE_FIELDS.len() + 2, arb_finite(), 0usize..7);
    proptest::collection::vec(part, 0..24).prop_map(|parts| {
        let mut text = String::new();
        for (pick, v, end) in parts {
            let bits = v.to_bits();
            match pick.checked_sub(EDGE_FIELDS.len()) {
                None => text.push_str(EDGE_FIELDS[pick]),
                Some(0) => text.push_str(&((bits as i64) >> (bits % 64)).to_string()),
                Some(_) => text.push_str(&format!("{v:?}")),
            }
            text.push_str([",", ",", ",", "\n", "\n", "\r\n", "\r"][end]);
        }
        text
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The parser before the integer fast path and the single byte pass —
/// `str::lines`, `split(',')`, `trim`, `str::parse` — as
/// `csv::tests::reference_parse` keeps it: the bit-for-bit oracle.
fn reference_parse(text: &str) -> Result<(Vec<f64>, usize, usize), Error> {
    let mut data = Vec::new();
    let mut cols = None;
    let mut rows = 0;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let start = data.len();
        for field in line.split(',') {
            let v: f64 = field
                .trim()
                .parse()
                .map_err(|_| Error::invalid(format!("bad numeric field {field:?}")))?;
            data.push(v);
        }
        let width = data.len() - start;
        match cols {
            None => cols = Some(width),
            Some(c) if c != width => {
                return Err(Error::invalid(format!(
                    "ragged CSV: row {rows} has {width} fields, expected {c}"
                )))
            }
            _ => {}
        }
        rows += 1;
    }
    Ok((data, rows, cols.unwrap_or(0)))
}

/// `parse_matrix` and `for_each_row` on `text`: no panic, the reference's
/// shape and bits or its error word for word, and the row-at-a-time scan
/// sees exactly the matrix's rows.
fn assert_total(text: &str) {
    let mut seen = Vec::new();
    let mut widths = Vec::new();
    let scanned = csv::for_each_row(text, |row| {
        widths.push(row.len());
        seen.extend_from_slice(row);
    });
    match (csv::parse_matrix(text), scanned, reference_parse(text)) {
        (Ok((data, rows, cols)), Ok(shape), Ok((want, wr, wc))) => {
            assert_eq!(data.len(), rows * cols, "rectangular");
            assert_eq!((rows, cols), (wr, wc), "shape of {text:?}");
            assert_eq!(shape, (rows, cols));
            assert_eq!(widths, vec![cols; rows]);
            assert_eq!(bits(&data), bits(&want), "values of {text:?}");
            assert_eq!(bits(&seen), bits(&data));
        }
        (Err(a), Err(b), Err(want)) => {
            assert_eq!(a.to_string(), want.to_string(), "error on {text:?}");
            assert_eq!(b.to_string(), want.to_string(), "error on {text:?}");
        }
        (a, b, want) => {
            panic!("{text:?}: parse_matrix {a:?}, for_each_row {b:?}, reference {want:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_is_an_error_or_a_rectangle(text in arb_text(200)) {
        assert_total(&text);
    }

    #[test]
    fn arbitrary_lines_scan_as_the_reference_parses(text in arb_fields_text()) {
        assert_total(&text);
    }

    #[test]
    fn matrices_of_any_finite_doubles_round_trip_bit_exactly(
        values in proptest::collection::vec(arb_finite(), 1..40),
        cols in 1usize..8,
    ) {
        let rows = values.len() / cols;
        prop_assume!(rows > 0);
        let mut values = values;
        values.truncate(rows * cols);
        // The one finite value an integer shortcut in the writer can corrupt.
        values[0] = -0.0;
        let text = csv::write_matrix(&values, rows, cols);
        let (back, r, c) = csv::parse_matrix(&text).unwrap();
        prop_assert_eq!((r, c), (rows, cols));
        prop_assert_eq!(bits(&back), bits(&values), "{}", text);
    }

    #[test]
    fn rows_of_any_ints_and_finite_doubles_round_trip_bit_exactly(
        ints in proptest::collection::vec(i64::MIN..i64::MAX, 1..5),
        floats in proptest::collection::vec(arb_finite(), 1..5),
    ) {
        let fields: Vec<CsvField> = (ints.iter().map(|&i| CsvField::Int(i)))
            .chain(floats.iter().map(|&v| CsvField::Float(v)))
            .chain([CsvField::Int(i64::MIN), CsvField::Int(i64::MAX), CsvField::Float(-0.0)])
            .collect();
        let mut text = String::new();
        csv::write_row(&mut text, fields.iter().copied());
        // Integers print in full, as `i64`'s `Display` does; the scanner
        // reads every field as a double, an integer as its nearest one.
        let printed: Vec<&str> = text.trim_end_matches('\n').split(',').collect();
        prop_assert_eq!(printed.len(), fields.len());
        for (field, kind) in printed.iter().zip(&fields) {
            if let CsvField::Int(i) = kind {
                prop_assert_eq!(*field, i.to_string().as_str());
            }
        }
        let want: Vec<f64> = (fields.iter())
            .map(|f| match *f {
                CsvField::Int(i) => i as f64,
                CsvField::Float(v) => v,
            })
            .collect();
        let (back, rows, cols) = csv::parse_matrix(&text).unwrap();
        prop_assert_eq!((rows, cols), (1, fields.len()));
        prop_assert_eq!(bits(&back), bits(&want), "{}", text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ten_kilobyte_fields_are_parsed_or_rejected(
        fill in 0usize..256,
        len in 9_000usize..11_000,
        tail in arb_text(40),
    ) {
        let field = String::from_utf8_lossy(&vec![fill as u8; len]).into_owned();
        assert_total(&format!("1,{field},2\n{tail}"));
        assert_total(&format!("{field}\n{field}\n"));
    }
}

/// The export as it was before the row writer took each row's fields from
/// its caller: one `Vec<CsvField>` buffer per row, each field printed as
/// `std` prints it — integers, and integral floats below 1e15 other than
/// `-0.0`, by the `i64`'s `Display`; every other float by `{:?}`, which the
/// in-tree printer reproduces byte for byte.
fn reference_export<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> String {
    let mut out = String::new();
    let mut fields: Vec<CsvField> = Vec::new();
    for row in rows {
        fields.clear();
        fields.extend(row.iter().map(|v| match *v {
            Value::Int(x) => CsvField::Int(x),
            Value::Float(x) => CsvField::Float(x),
        }));
        let printed: Vec<String> = (fields.iter())
            .map(|f| match *f {
                CsvField::Int(x) => x.to_string(),
                CsvField::Float(x)
                    if x == x.trunc() && x.abs() < 1e15 && x.to_bits() != (-0.0f64).to_bits() =>
                {
                    (x as i64).to_string()
                }
                CsvField::Float(x) => format!("{x:?}"),
            })
            .collect();
        out.push_str(&printed.join(","));
        out.push('\n');
    }
    out
}

/// Rows with every field kind the writer prints differently: the `i64`
/// extremes, signed zeros, NaN, infinities, subnormals, integral floats on
/// both sides of 1e15, and random bits.
fn awkward_rows() -> (Schema, Vec<Vec<Value>>) {
    let schema = Schema::new(&[
        ("id", DataType::Int),
        ("x", DataType::Float),
        ("other_id", DataType::Int),
        ("y", DataType::Float),
    ])
    .unwrap();
    let ints = [
        0,
        1,
        -1,
        42,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        1 << 53,
        (1 << 53) + 1,
        -999_999_999_999_999,
    ];
    let floats = [
        0.0,
        -0.0,
        1.5,
        -2.0,
        0.1,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1e15 + 1.0,
        9_007_199_254_740_992.0,
        1e16,
        -1e22,
        f64::MAX,
        f64::MIN,
    ];
    let mut rng = Pcg64::new(33);
    let mut rows = Vec::new();
    for (i, &x) in floats.iter().enumerate() {
        for (j, &id) in ints.iter().enumerate() {
            let other = ints[(i + j) % ints.len()];
            let y = f64::from_bits(rng.next_u64());
            rows.push(vec![
                Value::Int(id),
                Value::Float(x),
                Value::Int(other),
                Value::Float(y),
            ]);
        }
    }
    (schema, rows)
}

/// Both stores' `export_csv`, and the streaming export's `csv_selected`
/// chunks concatenated, print exactly what the per-row field buffer
/// printed: every field, in schema order, at every batch size and
/// selection.
#[test]
fn both_stores_and_streamed_chunks_export_what_the_row_buffer_printed() {
    let (schema, rows) = awkward_rows();
    let want = reference_export(&rows);
    let budget = Budget::unlimited();
    let row_store = RowTable::from_rows(schema.clone(), rows.clone()).unwrap();
    let column_store = ColumnTable::from_rows(schema.clone(), rows.clone()).unwrap();
    assert_eq!(export_csv(&row_store, &budget).unwrap(), want, "row store");
    assert_eq!(
        export_csv(&column_store, &budget).unwrap(),
        want,
        "column store"
    );

    let tracker = MemTracker::unlimited();
    let columns = column_store.columns().to_vec();
    let table = ColumnarTable::from_columns(&tracker, schema, columns).unwrap();
    for batch_rows in [1, 7, 64, rows.len()] {
        let (mut all, mut odd) = (String::new(), String::new());
        for m in carve_view(&tracker, &table.view(), batch_rows).unwrap() {
            csv_selected(&m, &SelVec::all(m.n_rows()), &mut all);
            let sel = SelVec::from_predicate(m.n_rows(), |i| i % 2 == 1);
            csv_selected(&m, &sel, &mut odd);
        }
        assert_eq!(all, want, "every row, batches of {batch_rows}");
        let kept = (rows.iter().enumerate())
            .filter(|(i, _)| i % batch_rows % 2 == 1)
            .map(|(_, row)| row);
        assert_eq!(
            odd,
            reference_export(kept),
            "odd rows, batches of {batch_rows}"
        );
    }
}

/// The exact population the bridge prints — a generated Small dataset's
/// expression values — comes out as `{:?}` would print it, integral values
/// below 1e15 as plain integers.
#[test]
fn small_dataset_expression_values_print_as_debug_does() {
    use genbase_datagen::{generate, GeneratorConfig, SizeClass, SizeSpec};
    let data = generate(&GeneratorConfig::new(SizeSpec::bench_scale(
        SizeClass::Small,
    )))
    .unwrap();
    let m = &data.expression;
    let text = csv::write_matrix(m.data(), m.rows(), m.cols());
    let mut fields = text.lines().flat_map(|line| line.split(','));
    for &v in m.data() {
        let want = if v == v.trunc() && v.abs() < 1e15 && v.to_bits() != (-0.0f64).to_bits() {
            format!("{}", v as i64)
        } else {
            format!("{v:?}")
        };
        assert_eq!(fields.next(), Some(want.as_str()));
    }
    assert_eq!(fields.next(), None);
}
