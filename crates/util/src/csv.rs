//! Minimal CSV codec.
//!
//! This is not a general-purpose CSV library; it exists to make the paper's
//! "export data from the DBMS, reformat, and load it into R" path a *real*
//! cost. Engines that bridge a store and an external analytics runtime
//! serialize matrices/tables to text through these routines and parse them
//! back, paying the same O(N)-with-a-large-constant conversion the paper
//! measures.

use crate::dtoa;
use crate::error::{Error, Result};

/// Serialize a dense row-major matrix to CSV text (no header).
pub fn write_matrix(data: &[f64], rows: usize, cols: usize) -> String {
    assert_eq!(data.len(), rows * cols, "shape mismatch");
    // ~18 bytes per numeric field is typical for full-precision floats.
    let mut out = String::with_capacity(rows * cols * 18 + rows);
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        for (c, v) in row.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        out.push('\n');
    }
    out
}

/// Parse CSV text produced by [`write_matrix`] back into a row-major buffer.
/// Returns `(data, rows, cols)`.
pub fn parse_matrix(text: &str) -> Result<(Vec<f64>, usize, usize)> {
    scan_rows(text, |_| {})
}

/// Scan CSV text once, handing each non-empty line's fields to `f` as
/// doubles, for a reader that consumes rows as they parse instead of
/// staging the whole matrix. Returns `(rows, cols)`; a bad field or a row
/// whose width differs from the first row's is an error (rows before it
/// have already been handed over).
pub fn for_each_row(text: &str, mut f: impl FnMut(&[f64])) -> Result<(usize, usize)> {
    let (_, rows, cols) = scan_rows(text, |row| {
        f(row);
        row.clear();
    })?;
    Ok((rows, cols))
}

/// The one scanner: a single pass over the bytes that appends each
/// non-empty line's fields to a buffer, checks the line's width against the
/// first line's, then lets `end_row` keep the fields (a matrix) or consume
/// them (a row at a time). Lines end where `str::lines` ends them: at `\n`,
/// dropping one `\r` before it; a last line without `\n` keeps its `\r`.
/// Returns `(buffer, rows, cols)`.
fn scan_rows(
    text: &str,
    mut end_row: impl FnMut(&mut Vec<f64>),
) -> Result<(Vec<f64>, usize, usize)> {
    let bytes = text.as_bytes();
    let mut data = Vec::new();
    let mut cols = None;
    let mut rows = 0;
    let mut at = 0;
    while at < bytes.len() {
        match bytes[at..] {
            [b'\n', ..] => at += 1,
            [b'\r', b'\n', ..] => at += 2,
            _ => {
                let start = data.len();
                loop {
                    let (v, end) = scan_field(text, at)?;
                    data.push(v);
                    at = end + 1;
                    if bytes.get(end) != Some(&b',') {
                        break;
                    }
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
                end_row(&mut data);
                rows += 1;
            }
        }
    }
    Ok((data, rows, cols.unwrap_or(0)))
}

/// The field that starts at byte `at`, as a double, and the offset of the
/// `,` or `\n` that ends it (the text's length for the last field of an
/// unterminated line). The id columns of exported triples, and the integral
/// values [`write_matrix`] prints compactly, are an optional `-` and 1–15
/// ASCII digits: the digit loop converts those itself, exactly as
/// `str::parse` would (below 2^53 every integer is exact), except `-0`,
/// whose sign an integer cannot carry. Any other field goes to
/// [`parse_field`].
#[inline]
fn scan_field(text: &str, at: usize) -> Result<(f64, usize)> {
    let bytes = text.as_bytes();
    let negative = bytes.get(at) == Some(&b'-');
    let digits = at + usize::from(negative);
    let mut end = digits;
    let mut n: u64 = 0;
    while let Some(d) = bytes
        .get(end)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d < 10)
    {
        n = n.wrapping_mul(10).wrapping_add(u64::from(d));
        end += 1;
    }
    let terminated = matches!(bytes.get(end), None | Some(b',' | b'\n'));
    if terminated && (1..=15).contains(&(end - digits)) && !(negative && n == 0) {
        let v = n as f64;
        return Ok((if negative { -v } else { v }, end));
    }
    // `,`, `\n` and `\r` are ASCII, so every offset here is a char boundary.
    let end = (bytes[end..].iter().position(|&b| b == b',' || b == b'\n'))
        .map_or(bytes.len(), |p| end + p);
    let field = &text[at..end];
    let field = match bytes.get(end) {
        Some(b'\n') => field.strip_suffix('\r').unwrap_or(field),
        _ => field,
    };
    Ok((parse_field(field)?, end))
}

/// A field that is not a bare integer, parsed as `str::parse` parses it
/// after trimming whitespace.
#[inline]
fn parse_field(field: &str) -> Result<f64> {
    field
        .trim()
        .parse()
        .map_err(|_| Error::invalid(format!("bad numeric field {field:?}")))
}

/// One field of a row [`write_row`] prints: a relation's `Int` or `Float`
/// value, or a columnar batch's cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CsvField {
    /// 64-bit signed integer field.
    Int(i64),
    /// 64-bit float field.
    Float(f64),
}

/// Append one row to `out` in CSV form: integers in full, floats as
/// [`write_matrix`] prints them. Callers hand over each row's fields as
/// they read them, so no row is staged in a buffer first.
pub fn write_row<F: Into<CsvField>>(out: &mut String, fields: impl IntoIterator<Item = F>) {
    for (i, f) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match f.into() {
            CsvField::Int(v) => dtoa::push_i64(out, v),
            CsvField::Float(v) => push_f64(out, v),
        }
    }
    out.push('\n');
}

fn push_f64(out: &mut String, v: f64) {
    // Full round-trip precision, like R's write.csv defaults with digits=17
    // when needed; integers print compactly — except -0.0, whose sign an
    // integer cannot carry (`scan_field` leaves `-0` to `str::parse` for the
    // same reason).
    if v == v.trunc() && v.abs() < 1e15 && !(v == 0.0 && v.is_sign_negative()) {
        dtoa::push_i64(out, v as i64);
    } else {
        dtoa::push_f64(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_round_trip() {
        let data = vec![1.0, 2.5, -3.125, 0.1, 1e-9, 123456.0];
        let text = write_matrix(&data, 2, 3);
        let (parsed, rows, cols) = parse_matrix(&text).unwrap();
        assert_eq!(rows, 2);
        assert_eq!(cols, 3);
        assert_eq!(parsed, data);
    }

    #[test]
    fn matrix_full_precision_round_trip() {
        let mut rng = crate::Pcg64::new(11);
        let data: Vec<f64> = (0..100).map(|_| rng.normal() * 1e3).collect();
        let text = write_matrix(&data, 10, 10);
        let (parsed, _, _) = parse_matrix(&text).unwrap();
        for (a, b) in data.iter().zip(&parsed) {
            assert_eq!(a, b, "bit-exact round trip expected");
        }
    }

    /// The parser as it was before the integer fast path and the byte
    /// scan: the bit-for-bit reference for [`parse_matrix`].
    fn reference_parse(text: &str) -> Result<(Vec<f64>, usize, usize)> {
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Same shape and same bits on success, same message on error — for the
    /// whole matrix and for the rows `for_each_row` hands over.
    fn assert_matches_reference(text: &str) {
        let mut seen = Vec::new();
        let scanned = for_each_row(text, |row| seen.extend_from_slice(row));
        match (parse_matrix(text), reference_parse(text)) {
            (Ok((got, gr, gc)), Ok((want, wr, wc))) => {
                assert_eq!((gr, gc), (wr, wc), "shape of {text:?}");
                assert_eq!(bits(&got), bits(&want), "values of {text:?}");
                assert_eq!(scanned.unwrap(), (wr, wc), "rows of {text:?}");
                assert_eq!(bits(&seen), bits(&want), "rows of {text:?}");
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string(), "error on {text:?}");
                let scanned = scanned.unwrap_err().to_string();
                assert_eq!(scanned, want.to_string(), "error on {text:?}");
            }
            (got, want) => panic!("{text:?}: parsed {got:?}, reference {want:?}"),
        }
    }

    #[test]
    fn fast_path_matches_reference_on_edge_fields() {
        let fields = [
            "0",
            "-0",
            "-00",
            "+5",
            "007",
            "-42",
            "100000000000000",
            "999999999999999", // 15 digits: the last fast-path length
            "-999999999999999",
            "9007199254740993", // 16 digits, above 2^53: general parser
            "-9007199254740993",
            "1000000000000000",
            "1234567890123456",
            "123456789012345678901234567890",
            "18446744073709551617", // wraps a u64 accumulator
            " 12 ",
            "12 ",
            " -3",
            "\t7",
            "7\r",
            "\r7",
            "\r",
            "\0",
            "1\0",
            "\x001",
            "1e3",
            "1.5",
            "-1.5e-300",
            ".5",
            "5.",
            "nan",
            "NaN",
            "inf",
            "-inf",
            "-",
            "+",
            "--1",
            "1-",
            "1_0",
            "0x10",
            "١٢", // non-ASCII digits
            "",
        ];
        for f in fields {
            assert_matches_reference(f);
            assert_matches_reference(&format!("{f}\n"));
            assert_matches_reference(&format!("1,{f}"));
            assert_matches_reference(&format!("{f},1"));
            assert_matches_reference(&format!("1,{f},2.5\n3,{f},4\n"));
            assert_matches_reference(&format!("{f},{f}\r\n{f},{f}\r\n"));
            assert_matches_reference(&format!("{f},{f}\r\n{f},{f}\r"));
            assert_matches_reference(&format!("1,{f}\r,2\n"));
            assert_matches_reference(&format!("\n\r\n{f}\n\n"));
        }
        // Ragged rows, blank lines, trailing and leading commas, bare `\r`
        // lines, `\r` inside fields, a last line without `\n`.
        for text in [
            "1,2\n3\n",
            "1\n2,3\n",
            "1,2\n\n3,4\n",
            "1,2,\n",
            ",\n",
            "\n,",
            "1,\n2,\n",
            "1\n,2\n",
            "1,2\r",
            "\r",
            "\r\n",
            "\r\r\n",
            "1\n\r\n2\n",
            "1\n\r\r\n2\n",
            "1\n\r",
            "1\r\n\r",
            "1\r,2\n",
            "1,\r2\n",
            "1,2\r\r\n",
            "1,2\n3,4",
            "1,2\n3,4\r",
            "\n\n\n",
            "",
        ] {
            assert_matches_reference(text);
        }
    }

    #[test]
    fn fast_path_matches_reference_on_exported_triples() {
        // The export bridge's text: two dense integer ids and a full-precision
        // value per row (plus the integral values `push_f64` prints compactly).
        let mut rng = crate::Pcg64::new(7);
        let mut text = String::new();
        for p in 0..60i64 {
            for g in 0..40i64 {
                let v = if (p + g) % 17 == 0 {
                    (p - g) as f64
                } else {
                    rng.normal() * 3.0
                };
                write_row(
                    &mut text,
                    [CsvField::Int(g), CsvField::Int(p), CsvField::Float(v)],
                );
            }
        }
        assert_matches_reference(&text);
        let (_, rows, cols) = parse_matrix(&text).unwrap();
        assert_eq!((rows, cols), (2400, 3));
    }

    #[test]
    fn ragged_rejected() {
        assert!(parse_matrix("1,2\n3\n").is_err());
    }

    #[test]
    fn bad_field_rejected() {
        assert!(parse_matrix("1,zap\n").is_err());
    }

    #[test]
    fn empty_matrix() {
        let (d, r, c) = parse_matrix("").unwrap();
        assert!(d.is_empty());
        assert_eq!((r, c), (0, 0));
    }

    #[test]
    fn row_round_trip() {
        let mut text = String::new();
        write_row(
            &mut text,
            [CsvField::Int(-42), CsvField::Float(2.75), CsvField::Int(7)],
        );
        assert_eq!(text, "-42,2.75,7\n");
        let (parsed, rows, cols) = parse_matrix(&text).unwrap();
        assert_eq!((parsed, rows, cols), (vec![-42.0, 2.75, 7.0], 1, 3));
    }

    #[test]
    fn an_empty_row_is_a_bare_newline() {
        let mut text = String::new();
        write_row(&mut text, std::iter::empty::<CsvField>());
        assert_eq!(text, "\n");
    }

    #[test]
    fn i64_formatting_edge_cases() {
        let mut text = String::new();
        write_row(
            &mut text,
            [
                CsvField::Int(0),
                CsvField::Int(i64::MIN),
                CsvField::Int(i64::MIN + 1),
                CsvField::Int(i64::MAX),
            ],
        );
        assert_eq!(
            text.trim_end(),
            format!("0,{},{},{}", i64::MIN, i64::MIN + 1, i64::MAX)
        );
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = write_matrix(&[-0.0, 0.0, -1.0], 1, 3);
        assert_eq!(text, "-0.0,0,-1\n");
        let (parsed, _, _) = parse_matrix(&text).unwrap();
        assert_eq!(parsed[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(parsed[1].to_bits(), 0.0f64.to_bits());
    }

    /// The export bridge's round trip over random bits: `(id, id, value)`
    /// rows of arbitrary `i64` ids and finite doubles go through the row
    /// writer and come back from the scanner as exactly `id as f64` and the
    /// value's own bits.
    #[test]
    #[ignore = "release sweep: cargo test --release -p genbase-util -- --include-ignored"]
    fn writer_to_scanner_round_trip_on_a_million_random_rows() {
        let mut rng = crate::Pcg64::new(0x5ca9_f1e1_d5ee_d001);
        let mut text = String::new();
        let mut want = Vec::new();
        for _ in 0..1u32 << 20 {
            // One id as short as the bridge's, one of any width.
            let short = (rng.next_u64() % 200_001) as i64 - 100_000;
            let wide = rng.next_u64() as i64;
            let v = f64::from_bits(rng.next_u64());
            let v = if v.is_finite() { v } else { -0.0 };
            write_row(
                &mut text,
                [
                    CsvField::Int(short),
                    CsvField::Int(wide),
                    CsvField::Float(v),
                ],
            );
            want.extend([short as f64, wide as f64, v]);
        }
        let (got, rows, cols) = parse_matrix(&text).unwrap();
        assert_eq!((rows, cols), (1 << 20, 3));
        let mismatch = (bits(&got).iter().zip(bits(&want))).position(|(g, w)| *g != w);
        assert_eq!(mismatch, None, "a field came back with other bits");
    }
}
