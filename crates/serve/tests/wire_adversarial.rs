//! Adversarial input for the request decoders and the HTTP parser:
//! arbitrary bytes, random token soups and byte mutations of canonical
//! bodies go into every public `wire::decode_*` and `http::parse_request`.
//! None may panic, and the same input must always give the same output.
//! (The exact outcomes of hand-picked edges are pinned by `wire_golden.rs`.)

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_serve::http::{parse_request, Request};
use estima_serve::wire;
use proptest::prelude::*;

/// Every request decoder's outcome for `text`, as comparable text.
fn decode_all(text: &str) -> [String; 5] {
    [
        format!("{:?}", wire::decode_predict_request(text)),
        format!("{:?}", wire::decode_batch_request(text)),
        format!("{:?}", wire::decode_ingest_request(text)),
        format!("{:?}", wire::decode_series_predict_request(text)),
        format!("{:?}", wire::decode_plan_request(text)),
    ]
}

fn check_decoders(text: &str) {
    assert_eq!(
        decode_all(text),
        decode_all(text),
        "decode of {text:?} varies"
    );
}

/// The HTTP parser's outcome for `buf` parsed into `request`.
fn parse_into(buf: &[u8], request: &mut Request) -> String {
    match parse_request(buf, request) {
        Ok(status) => format!(
            "{status:?} {} {} {:?} {:?} {}",
            request.method,
            request.path,
            request.headers(),
            request.body,
            request.close
        ),
        Err(e) => format!("{e:?}"),
    }
}

fn check_http(buf: &[u8]) {
    let fresh = parse_into(buf, &mut Request::new());
    // A request reused after a larger one must not leak its old contents.
    let mut reused = Request::new();
    parse_into(
        b"POST /v1/batch?x=1 HTTP/1.1\r\nHost: a\r\nX-One: 1\r\nX-Two: 2\r\nConnection: close\r\nContent-Length: 3\r\n\r\nabc",
        &mut reused,
    );
    assert_eq!(
        fresh,
        parse_into(buf, &mut reused),
        "parse of {buf:?} varies"
    );
}

fn small_set(app: &str) -> MeasurementSet {
    let mut set = MeasurementSet::new(app, 2.1);
    for cores in 1..=3u32 {
        let n = f64::from(cores);
        set.push(
            Measurement::new(cores, 10.0 / n)
                .with_stall(StallCategory::backend("rob"), 1e9 * n)
                .with_stall(StallCategory::software("lock"), 1e7 * n)
                .with_memory_footprint(4096),
        );
    }
    set
}

/// One canonical body of every request type.
fn canonical_bodies() -> Vec<String> {
    let set = small_set("adv");
    let target = TargetSpec::cores(16).with_frequency_ghz(2.8);
    let predict = wire::predict_request_to_json(&set, &target);
    let series = SeriesId::new("adv-1").unwrap();
    vec![
        predict.render(),
        Json::Object(vec![(
            "jobs".to_string(),
            Json::Array(vec![predict.clone(), predict]),
        )])
        .render(),
        wire::ingest_request_to_json(&series, Some(2.1), set.measurements()).render(),
        r#"{"cores":32,"frequency_ghz":2.8,"confidence":true,"diagnosis":false}"#.to_string(),
        r#"{"cores":32,"dataset_scale":2,"suggestions":3}"#.to_string(),
    ]
}

/// Apply byte edits to `bytes`: each edit's low bits pick the operation
/// (overwrite, delete, insert, duplicate a run), the rest position and
/// byte.
fn mutate(mut bytes: Vec<u8>, edits: &[u64]) -> Vec<u8> {
    for &edit in edits {
        let at = ((edit >> 8) as usize) % (bytes.len() + 1);
        let byte = (edit >> 40) as u8;
        match edit % 4 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => drop(bytes.remove(at)),
            2 => bytes.insert(at, byte),
            _ => {
                let end = (at + usize::from(byte % 16)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
        }
    }
    bytes
}

/// Fragments that make random sequences look like request bodies.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\"",
    "\\",
    "\"cores\"",
    "\"measurements\"",
    "\"target\"",
    "\"points\"",
    "\"stalls\"",
    "\"source\"",
    "\"name\"",
    "\"cycles\"",
    "\"exec_time\"",
    "\"app_name\"",
    "\"frequency_ghz\"",
    "\"dataset_scale\"",
    "\"memory_footprint\"",
    "\"jobs\"",
    "\"series\"",
    "\"confidence\"",
    "\"diagnosis\"",
    "\"suggestions\"",
    "\"hw_backend\"",
    "\"software\"",
    "\"gpu\"",
    "\"a b\"",
    "0",
    "-0",
    "1",
    "8",
    "2.5",
    "-1",
    "1e400",
    "4294967296",
    "9007199254740993",
    "true",
    "false",
    "null",
    "tru",
    "\"\\ud800\"",
    "\"\\u00e9\"",
    "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in collection::vec(0u16..256, 0..200)) {
        let bytes: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
        check_decoders(&String::from_utf8_lossy(&bytes));
        check_http(&bytes);
    }

    #[test]
    fn token_soups_never_panic_a_decoder(tokens in collection::vec(0usize..TOKENS.len(), 0..64)) {
        let text: String = tokens.iter().map(|t| TOKENS[*t]).collect();
        check_decoders(&text);
    }

    #[test]
    fn mutated_bodies_never_panic_a_decoder(
        which in 0usize..5,
        edits in collection::vec(0u64..u64::MAX, 1..6),
    ) {
        let body = mutate(canonical_bodies()[which].clone().into_bytes(), &edits);
        check_decoders(&String::from_utf8_lossy(&body));
    }

    #[test]
    fn mutated_requests_never_panic_the_http_parser(
        which in 0usize..5,
        edits in collection::vec(0u64..u64::MAX, 1..6),
    ) {
        let body = &canonical_bodies()[which];
        let request = format!(
            "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        check_http(&mutate(request.into_bytes(), &edits));
    }
}

#[test]
fn every_truncation_of_every_canonical_body_decodes_deterministically() {
    for body in canonical_bodies() {
        for end in 0..=body.len() {
            check_decoders(&body[..end]);
        }
    }
}
