//! Property tests for the two text codecs the server's sockets feed
//! (`genbase_util::http` and `genbase_util::json`): arbitrary bytes come back
//! as a value or an error, never a panic or a stack overflow; every declared
//! cap (line length, header count, body size, nesting depth) turns input
//! past it into an error before the bytes are read or allocated; and what the
//! writers print parses back to the same value and the same bytes.

use genbase_util::http::{self, MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES};
use genbase_util::Json;
use proptest::prelude::*;
use std::io::{BufReader, Cursor, Read};

/// Text biased towards `shaped` (so a good share of cases get past the
/// first token) with raw bytes mixed in, decoded lossily where the codec's
/// input type is `&str`.
fn arb_bytes(shaped: &'static [u8], max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..512, 0..max_len).prop_map(move |codes| {
        (codes.into_iter())
            .map(|c| match c.checked_sub(256) {
                Some(i) => shaped[i % shaped.len()],
                None => c as u8,
            })
            .collect()
    })
}

const JSON_SHAPED: &[u8] = b"[[]]{{}}\"\"\\::,,0123456789.-+eEtrufalsn u";
const HTTP_SHAPED: &[u8] = b"GET POST /query /status HTTP/1.1 \r\n\r\n::Content-Length: 0123456789";

/// One token of a document recipe: a shape tag, a number, a string.
type Token = (usize, u64, String);

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x500, 0..10)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

/// Any finite double, uniform over bit patterns (the 1 in 2048 that are not
/// finite become `-0.0`, the value a careless writer would print as `0`).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        -0.0
    }
}

/// Build one document from `tokens`, nesting at most `depth` more levels.
fn build(tokens: &mut impl Iterator<Item = Token>, depth: usize) -> Json {
    let Some((tag, bits, text)) = tokens.next() else {
        return Json::Null;
    };
    let width = (bits % 5) as usize;
    match tag {
        0 => Json::Null,
        1 => Json::Bool(bits % 2 == 0),
        2 => Json::Num(finite(bits)),
        3 => Json::from(bits >> 11),
        4 | 5 => Json::Str(text),
        6 if depth > 0 => Json::Arr((0..width).map(|_| build(tokens, depth - 1)).collect()),
        _ if depth > 0 => Json::Obj(
            (0..width)
                .map(|i| (format!("{text}{i}"), build(tokens, depth - 1)))
                .collect(),
        ),
        _ => Json::Str(text),
    }
}

fn arb_json() -> impl Strategy<Value = Json> {
    let token = (0usize..8, 0u64..u64::MAX, arb_string());
    proptest::collection::vec(token, 1..60).prop_map(|tokens| build(&mut tokens.into_iter(), 10))
}

/// Header names and values the parser hands back unchanged (names already
/// lowercase, values with no surrounding whitespace).
fn arb_token(alphabet: &'static [u8], max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..alphabet.len(), 1..max_len)
        .prop_map(move |idx| idx.into_iter().map(|i| alphabet[i] as char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_a_document_or_an_error(bytes in arb_bytes(JSON_SHAPED, 200)) {
        if let Ok(doc) = Json::parse(&String::from_utf8_lossy(&bytes)) {
            // Whatever parses renders to bytes that parse back to themselves.
            let text = doc.render();
            prop_assert_eq!(Json::parse(&text).unwrap().render(), text);
        }
    }

    #[test]
    fn arbitrary_bytes_are_a_request_or_an_error(bytes in arb_bytes(HTTP_SHAPED, 300)) {
        if let Ok(Some(request)) = http::read_request(&mut Cursor::new(&bytes)) {
            prop_assert!(request.headers.len() <= MAX_HEADERS);
            prop_assert!(request.body.len() <= MAX_BODY_BYTES);
            prop_assert!(!request.method.is_empty() && !request.path.is_empty());
        }
    }

    #[test]
    fn generated_documents_round_trip_byte_stably(doc in arb_json()) {
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(back.render(), text);
    }

    #[test]
    fn well_formed_requests_round_trip(
        method in arb_token(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 8),
        path in arb_token(b"abcxyz0189/?=&%-_.", 40),
        headers in proptest::collection::vec(
            (arb_token(b"abcdefghijklmnopqrstuvwxyz-", 16), arb_token(b"ab cd;=/,*01\"", 24)),
            0..6,
        ),
        body in arb_bytes(b"{}\":,", 64),
    ) {
        let path = format!("/{path}");
        let mut headers: Vec<(String, String)> = headers
            .into_iter()
            .filter(|(name, value)| name != "content-length" && value.trim() == value)
            .collect();
        headers.push(("content-length".to_string(), body.len().to_string()));
        let mut raw = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
        for (name, value) in &headers {
            raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw.extend_from_slice(&body);
        let request = http::read_request(&mut Cursor::new(&raw)).unwrap().unwrap();
        prop_assert_eq!(request, http::HttpRequest { method, path, headers, body });
    }
}

/// A reader that serves `head`, then `tail` over and over forever, and
/// counts what it served.
struct Endless {
    head: Cursor<Vec<u8>>,
    tail: &'static [u8],
    at: usize,
    served: usize,
}

impl Endless {
    /// The request's own parser over an endless stream, one byte per
    /// `read`, so `served` is exactly what the parser consumed.
    fn parse(head: &str, tail: &'static [u8]) -> (std::io::Result<()>, usize) {
        let mut reader = BufReader::with_capacity(
            1,
            Endless {
                head: Cursor::new(head.as_bytes().to_vec()),
                tail,
                at: 0,
                served: 0,
            },
        );
        let parsed = http::read_request(&mut reader).map(|_| ());
        (parsed, reader.get_ref().served)
    }
}

impl Read for Endless {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut n = self.head.read(buf)?;
        while n < buf.len() {
            buf[n] = self.tail[self.at % self.tail.len()];
            (self.at, n) = (self.at + 1, n + 1);
        }
        self.served += n;
        Ok(n)
    }
}

#[test]
fn a_line_past_the_cap_is_an_error_not_an_allocation() {
    let (parsed, served) = Endless::parse("", b"a");
    let err = parsed.unwrap_err();
    assert!(err.to_string().contains("exceeds limit"), "{err}");
    assert!(
        served <= MAX_LINE_BYTES + 1,
        "read {served} bytes of one line"
    );

    // A header line that fits the cap, its CR included, is still a line.
    let header = format!("X-Long: {}", "v".repeat(MAX_LINE_BYTES - 9));
    let request = format!("GET / HTTP/1.1\r\n{header}\r\n\r\n");
    let parsed = http::read_request(&mut Cursor::new(request))
        .unwrap()
        .unwrap();
    assert_eq!(parsed.headers[0].1.len(), MAX_LINE_BYTES - 9);
}

#[test]
fn headers_past_the_cap_are_an_error_not_an_allocation() {
    let head = "GET /status HTTP/1.1\r\n";
    let (parsed, served) = Endless::parse(head, b"X: y\r\n");
    let err = parsed.unwrap_err();
    assert!(err.to_string().contains("too many headers"), "{err}");
    assert!(served <= head.len() + (MAX_HEADERS + 1) * 6);

    let full = format!("{head}{}\r\n", "X: y\r\n".repeat(MAX_HEADERS));
    let parsed = http::read_request(&mut Cursor::new(full)).unwrap().unwrap();
    assert_eq!(parsed.headers.len(), MAX_HEADERS);
}

#[test]
fn a_body_past_the_cap_is_refused_before_a_byte_of_it_is_read() {
    for length in [
        (MAX_BODY_BYTES + 1).to_string(),
        usize::MAX.to_string(),
        "1".repeat(40),
    ] {
        let head = format!("POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        let (parsed, served) = Endless::parse(&head, b"[");
        assert!(parsed.is_err(), "Content-Length {length}");
        assert_eq!(
            served,
            head.len(),
            "Content-Length {length}: read into the body"
        );
    }
}

/// A socket peer controls the nesting of what it sends: a few hundred
/// kilobytes of brackets must be an error on an ordinary thread's stack.
#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    let parsed = std::thread::spawn(|| {
        [
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
            "[{\"a\":".repeat(50_000),
        ]
        .map(|text| Json::parse(&text).map(|_| ()))
    })
    .join()
    .expect("the parser thread survived");
    for result in parsed {
        let err = result.unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
}
