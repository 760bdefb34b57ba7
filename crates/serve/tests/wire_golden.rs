//! Golden pins of the wire codec.
//!
//! Every request body in the corpus must decode to the exact outcome (the
//! decoded value, or the exact error message) pinned in
//! `tests/data/wire_decode.jsonl`, and every response writer must emit the
//! exact bytes pinned in `tests/data/wire_writers.jsonl`.
//!
//! The corpus is built by [`corpus`]: each canonical body type truncated at
//! every byte offset, every field of every body type removed, mistyped and
//! duplicated, every object reordered, hand-written multi-error bodies, and
//! the numeric edges of core counts, times and footprints. A decode outcome
//! is `ok <canonical re-encoding>` or `err <message>`; outcomes longer than
//! [`INLINE_LIMIT`] bytes are pinned by length and FNV-1a digest, and the
//! one body that long ([`many_stalls_body`]) by its generator's name.
//!
//! `bless_golden_data` (ignored) rewrites both files from the current code.
//! Run it only for an intended wire change, and review the diff:
//! `cargo test -p estima-serve --test wire_golden -- --ignored bless_golden_data`.

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_core::wal::fnv1a64;
use estima_core::{CategoryExtrapolation, ConfidenceInterval, PlanSuggestion};
use estima_serve::wire;
use estima_serve::{Server, ServerConfig};

const DECODE_DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/wire_decode.jsonl");
const WRITER_DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/wire_writers.jsonl");

/// Longest body or outcome stored verbatim; longer ones are digested.
const INLINE_LIMIT: usize = 4096;

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode `body` with the named decoder and render the outcome: the decoded
/// value through the client encoders (which carry every decoded field), or
/// the error message.
fn decode(decoder: &str, body: &str) -> String {
    fn show<T>(
        result: std::result::Result<T, wire::WireError>,
        render: impl FnOnce(T) -> String,
    ) -> String {
        match result {
            Ok(value) => format!("ok {}", render(value)),
            Err(e) => format!("err {e}"),
        }
    }
    let target = |spec: &TargetSpec| wire::target_spec_to_json(spec).render();
    match decoder {
        "predict" => show(wire::decode_predict_request(body), |(set, spec)| {
            wire::predict_request_to_json(&set, &spec).render()
        }),
        "ingest" => show(wire::decode_ingest_request(body), |r| {
            wire::ingest_request_to_json(&r.series, r.frequency_ghz, &r.points).render()
        }),
        "series_predict" => show(wire::decode_series_predict_request(body), |(spec, x)| {
            format!("{} {x:?}", target(&spec))
        }),
        "plan" => show(wire::decode_plan_request(body), |(spec, n)| {
            format!("{} suggestions={n}", target(&spec))
        }),
        "batch" => show(wire::decode_batch_request(body), |jobs| {
            let jobs = jobs
                .iter()
                .map(|(set, spec)| wire::predict_request_to_json(set, spec))
                .collect();
            Json::Array(jobs).render()
        }),
        other => panic!("unknown decoder {other}"),
    }
}

/// One step of a path into a JSON tree.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Paths to every object field in `value` (array elements by index).
fn field_paths(value: &Json, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        Json::Object(fields) => {
            for (key, child) in fields {
                prefix.push(Step::Key(key.clone()));
                out.push(prefix.clone());
                field_paths(child, prefix, out);
                prefix.pop();
            }
        }
        Json::Array(items) => {
            for (index, child) in items.iter().enumerate() {
                prefix.push(Step::Index(index));
                field_paths(child, prefix, out);
                prefix.pop();
            }
        }
        _ => {}
    }
}

/// Paths to every object (including the root) in `value`.
fn object_paths(value: &Json, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        Json::Object(fields) => {
            out.push(prefix.clone());
            for (key, child) in fields {
                prefix.push(Step::Key(key.clone()));
                object_paths(child, prefix, out);
                prefix.pop();
            }
        }
        Json::Array(items) => {
            for (index, child) in items.iter().enumerate() {
                prefix.push(Step::Index(index));
                object_paths(child, prefix, out);
                prefix.pop();
            }
        }
        _ => {}
    }
}

/// The node at `path`.
fn node_mut<'a>(mut value: &'a mut Json, path: &[Step]) -> &'a mut Json {
    for step in path {
        value = match (value, step) {
            (Json::Object(fields), Step::Key(key)) => {
                &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            (Json::Array(items), Step::Index(index)) => &mut items[*index],
            _ => unreachable!("path leaves the tree"),
        };
    }
    value
}

/// Apply `edit` to the fields of the object holding the field at `path`,
/// passing the field's position.
fn edit_field(
    root: &Json,
    path: &[Step],
    edit: impl FnOnce(&mut Vec<(String, Json)>, usize),
) -> String {
    let mut copy = root.clone();
    let (last, parent) = path.split_last().unwrap();
    let Step::Key(key) = last else {
        unreachable!("field paths end in a key")
    };
    let Json::Object(fields) = node_mut(&mut copy, parent) else {
        unreachable!("a field's parent is an object")
    };
    let at = fields.iter().position(|(k, _)| k == key).unwrap();
    edit(fields, at);
    copy.render()
}

/// Values of every JSON type, one of which is wrong for any field.
fn wrong_values() -> Vec<Json> {
    vec![
        Json::Null,
        Json::Bool(true),
        Json::Number(-1.0),
        Json::Number(1.5),
        Json::Number(0.0),
        Json::String("x".into()),
        Json::Array(vec![]),
        Json::Object(vec![]),
    ]
}

const PREDICT: &str = r#"{"measurements":{"app_name":"g","frequency_ghz":2.1,"points":[{"cores":1,"exec_time":2.5,"memory_footprint":1024,"stalls":[{"source":"hw_backend","name":"rob","cycles":1e9}]}]},"target":{"cores":48,"frequency_ghz":2.8,"dataset_scale":1.5}}"#;
const INGEST: &str = r#"{"series":"s-1","frequency_ghz":2.1,"points":[{"cores":2,"exec_time":1.5,"memory_footprint":7,"stalls":[{"source":"software","name":"lock","cycles":5}]}]}"#;
const SERIES_PREDICT: &str =
    r#"{"cores":32,"frequency_ghz":2.8,"dataset_scale":2,"confidence":true,"diagnosis":false}"#;
const PLAN: &str = r#"{"cores":32,"frequency_ghz":2.8,"dataset_scale":2,"suggestions":3}"#;
const BATCH: &str = r#"{"jobs":[{"measurements":{"app_name":"a","frequency_ghz":2,"points":[]},"target":{"cores":8}},{"measurements":{"app_name":"b","frequency_ghz":2,"points":[{"cores":1,"exec_time":1,"stalls":[{"source":"hw_frontend","name":"f","cycles":3}]}]},"target":{"cores":4}}]}"#;

/// An ingest body whose one point carries 5,000 stall categories.
fn many_stalls_body() -> String {
    let stalls: Vec<String> = (0..5000)
        .map(|i| format!(r#"{{"source":"software","name":"c{i}","cycles":{i}}}"#))
        .collect();
    format!(
        r#"{{"series":"wide","frequency_ghz":2,"points":[{{"cores":1,"exec_time":1,"stalls":[{}]}}]}}"#,
        stalls.join(",")
    )
}

/// Hand-written bodies: several errors at once (the fixed field order
/// decides), syntax errors behind semantic ones (syntax wins), numeric
/// edges, and shapes the generated mutations do not reach.
fn handwritten() -> Vec<(&'static str, String)> {
    let mut cases: Vec<(&'static str, String)> = [
        // Several errors: resolved in the tree decoder's field order.
        ("predict", r#"{"measurements":{"points":[{"cores":-1}],"frequency_ghz":"x"},"target":5}"#),
        ("predict", r#"{"measurements":{"app_name":"m","frequency_ghz":2,"points":[{"cores":1,"exec_time":1},{"cores":2,"exec_time":"s","stalls":[{"source":"gpu"}]}]},"target":{"cores":8}}"#),
        ("predict", r#"{"measurements":{"app_name":"m","frequency_ghz":2,"points":[{"cores":1,"exec_time":1,"stalls":[{"source":"gpu"}]},{"cores":"x"}]},"target":{}}"#),
        ("predict", r#"{"measurements":{"app_name":"m","frequency_ghz":2,"points":[{"cores":1,"exec_time":1,"stalls":[{"name":3,"source":"gpu","cycles":"c"}]}]},"target":{"cores":8}}"#),
        ("predict", r#"{"measurements":{"app_name":"m","frequency_ghz":2,"points":[{"cores":1,"exec_time":1,"stalls":[{"name":3,"cycles":"c"}]}]},"target":{"cores":8}}"#),
        ("predict", r#"{"measurements":{"app_name":"m","frequency_ghz":2,"points":[{"cores":1,"exec_time":1,"stalls":{}}]},"target":{"cores":8}}"#),
        ("predict", r#"{"target":{"cores":"x"},"measurements":{"app_name":"m","frequency_ghz":2,"points":[]}}"#),
        ("predict", r#"{"target":{"cores":8,"frequency_ghz":"f","dataset_scale":"s"},"measurements":{"app_name":"m","frequency_ghz":2,"points":[]}}"#),
        ("predict", r#"{"target":{"cores":8},"measurements":{"app_name":"m","frequency_ghz":2,"points":[{"cores":1.5,"exec_time":1}]}}"#),
        ("series_predict", r#"{"cores":32,"confidence":1,"diagnosis":"x"}"#),
        ("plan", r#"{"cores":32,"confidence":1,"diagnosis":"x"}"#),
        ("series_predict", r#"{"cores":32,"suggestions":0}"#),
        ("series_predict", r#"{"confidence":1}"#),
        ("series_predict", r#"{"cores":1,"diagnosis":"x","confidence":true}"#),
        ("series_predict", r#"{"cores":1,"confidence":null}"#),
        ("series_predict", r#"{"cores":1,"confidence":false,"diagnosis":true}"#),
        ("series_predict", r#"{"cores":1,"confidence":true,"confidence":7}"#),
        ("series_predict", r#"{"cores":1,"confidence":tru}"#),
        ("plan", r#"{"suggestions":0}"#),
        ("plan", r#"{"cores":1,"suggestions":1}"#),
        ("plan", r#"{"cores":1,"suggestions":8}"#),
        ("plan", r#"{"cores":1,"suggestions":9}"#),
        ("plan", r#"{"cores":1,"suggestions":-0}"#),
        ("plan", r#"{"cores":1,"suggestions":2.0}"#),
        ("plan", r#"{"cores":1,"suggestions":9007199254740993}"#),
        ("plan", r#"{"cores":1,"suggestions":1e400}"#),
        ("plan", r#"{"cores":1,"suggestions":true}"#),
        ("plan", r#"{"cores":1,"suggestions":null}"#),
        ("plan", r#"{"cores":1,"suggestions":2,"suggestions":0}"#),
        ("ingest", r#"{"series":"a b","frequency_ghz":-1,"points":5}"#),
        ("ingest", r#"{"series":"","points":[]}"#),
        ("ingest", r#"{"series":5,"frequency_ghz":-1}"#),
        ("ingest", r#"{"series":"ok","frequency_ghz":0,"points":[]}"#),
        ("ingest", r#"{"series":"ok","frequency_ghz":-0,"points":[]}"#),
        ("ingest", r#"{"series":"ok","frequency_ghz":"fast","points":[]}"#),
        ("ingest", r#"{"series":"ok","points":[{"cores":1,"exec_time":1},{"cores":2}]}"#),
        ("ingest", r#"{"series":"ok","points":[{"cores":1,"exec_time":1},{"cores":1,"exec_time":2}]}"#),
        ("ingest", r#"{"points":[],"series":"ok","frequency_ghz":3,"series":"a b"}"#),
        // Syntax errors anywhere outrank every semantic error.
        ("predict", r#"{"measurements":5,"target":{"cores":1}} x"#),
        ("predict", r#"{"measurements":{"app_name":1},"target":[}"#),
        ("predict", r#"{"measurements":{"app_name":1},"target":{"cores":1},"junk":[1,2,}"#),
        ("predict", r#"{"measurements":{"app_name":"m","frequency_ghz":2,"points":[{"cores":-1},{"cores":1e400}]},"target":{"cores":1}}"#),
        ("ingest", r#"{"series":"a b","points":[{"cores":1,"exec_time":1,"stalls":[{"source":"gpu","name":"\ud800"}]}]}"#),
        ("batch", r#"{"jobs":[{"target":1},{"measurements":"#),
        ("series_predict", r#"{"cores":-1,"confidence":1} {"#),
        // Batch: the first failing job wins, with its index.
        ("batch", r#"{"jobs":[]}"#),
        ("batch", r#"{"jobs":{}}"#),
        ("batch", r#"{"jobs":[1,2]}"#),
        ("batch", r#"{"jobs":[{"bogus":1}]}"#),
        ("batch", r#"{"jobs":[{"measurements":{"app_name":"a","frequency_ghz":2,"points":[]},"target":{"cores":8}},{"measurements":{"app_name":"b"},"target":{"cores":8}},{"measurements":5}]}"#),
        ("batch", r#"{"jobs":[{"measurements":{"app_name":"a","frequency_ghz":2,"points":[{"cores":1,"exec_time":1,"stalls":[{"source":"gpu","name":"n","cycles":1}]}]},"target":{"cores":8}}]}"#),
        ("batch", r#"{"jobs":"x","jobs":[]}"#),
        // The bodies of the differential test these pins replace.
        ("predict", ""),
        ("predict", "not json"),
        ("predict", r#"{"measurements": 5}"#),
        ("predict", r#"{"target": {"cores": 48}}"#),
        ("predict", r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0}}"#),
        ("predict", r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [
                {"cores": 1.5, "exec_time": 1.0}]}, "target": {"cores": 48}}"#),
        ("predict", r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [
                {"cores": 1, "exec_time": 1.0,
                 "stalls": [{"source": "gpu", "name": "x", "cycles": 1}]}]},
                "target": {"cores": 48}}"#),
        ("predict", r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": []},
                "target": {"cores": 48}} trailing"#),
        ("predict", r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [}"#),
        ("ingest", r#"{"series": "a b", "points": []}"#),
        ("ingest", r#"{"series": "ok"}"#),
        ("ingest", r#"{"series": "ok", "frequency_ghz": -1, "points": []}"#),
        ("ingest", r#"{"series": "ok", "frequency_ghz": "fast", "points": []}"#),
        ("series_predict", r#"{"cores": -1}"#),
        // Bodies that are not objects at all.
        ("predict", "[]"),
        ("predict", "5"),
        ("predict", "\"s\""),
        ("predict", "null"),
        ("predict", ""),
        ("predict", " \n\t "),
        ("ingest", "[]"),
        ("ingest", "true"),
        ("series_predict", "[]"),
        ("series_predict", "0"),
        ("plan", "\"x\""),
        ("plan", "{}"),
        ("batch", "[]"),
        ("batch", "{}"),
        // Escapes, unicode and whitespace.
        ("series_predict", r#"{"cores":4}"#),
        ("plan", r#"{"cores":4,"suggestions":2}"#),
        ("predict", " {\r\n \"measurements\" :\t{ \"app_name\" : \"app\\u00e9\\ud83d\\ude00\\n\" , \"frequency_ghz\" : 2e0 , \"points\" : [ ] } , \"target\" : { \"cores\" : 8 } } \n"),
        ("predict", r#"{"measurements":{"app_name":"\ud83d","frequency_ghz":2,"points":[]},"target":{"cores":8}}"#),
        ("predict", r#"{"measurements":{"app_name":"\q","frequency_ghz":2,"points":[]},"target":{"cores":8}}"#),
        ("predict", "{\"measurements\":{\"app_name\":\"é☃\",\"frequency_ghz\":2,\"points\":[]},\"target\":{\"cores\":8}}"),
        // Unknown fields must still be well-formed, to any depth.
        ("series_predict", r#"{"cores":4,"x":{"y":[1,{"z":null}],"w":"v"}}"#),
        ("series_predict", r#"{"cores":4,"x":{"y":[1,{"z":nul}]}}"#),
        // Numbers the tree parser accepts or rejects at the edges.
        ("series_predict", r#"{"cores":+1}"#),
        ("series_predict", r#"{"cores":.5e1}"#),
        ("series_predict", r#"{"cores":01}"#),
        ("series_predict", r#"{"cores":1.}"#),
        ("series_predict", r#"{"cores":1e}"#),
        ("series_predict", r#"{"cores":NaN}"#),
        ("series_predict", r#"{"cores":-}"#),
        ("series_predict", r#"{"cores":8,"frequency_ghz":-0,"dataset_scale":1e-320}"#),
        ("series_predict", r#"{"cores":8,"dataset_scale":1e400}"#),
    ]
    .into_iter()
    .map(|(decoder, body)| (decoder, body.to_string()))
    .collect();

    // Numeric edges of core counts (target and point), exec times and
    // footprints.
    for n in [
        "0",
        "-0",
        "1",
        "4294967295",
        "4294967296",
        "9007199254740992",
        "9007199254740993",
        "1e400",
        "-1",
        "0.5",
        "1E2",
    ] {
        cases.push(("series_predict", format!(r#"{{"cores":{n}}}"#)));
        cases.push((
            "ingest",
            format!(r#"{{"series":"e","points":[{{"cores":{n},"exec_time":1}}]}}"#),
        ));
        cases.push((
            "ingest",
            format!(
                r#"{{"series":"e","points":[{{"cores":1,"exec_time":1,"memory_footprint":{n}}}]}}"#
            ),
        ));
    }
    for t in ["-1", "-0", "0", "-1e308", "1e-320", "1e400"] {
        cases.push((
            "ingest",
            format!(r#"{{"series":"e","points":[{{"cores":1,"exec_time":{t}}}]}}"#),
        ));
    }
    // Duplicate core counts: a set keeps the last, an ingest keeps both.
    let dup = r#""points":[{"cores":2,"exec_time":1},{"cores":1,"exec_time":3},{"cores":2,"exec_time":2}]"#;
    cases.push((
        "predict",
        format!(r#"{{"measurements":{{"app_name":"d","frequency_ghz":2,{dup}}},"target":{{"cores":4}}}}"#),
    ));
    cases.push(("ingest", format!(r#"{{"series":"d",{dup}}}"#)));
    // Nesting past the depth cap, inside an unknown and a known field.
    let deep = "[".repeat(200);
    cases.push(("series_predict", format!(r#"{{"cores":1,"x":{deep}"#)));
    cases.push(("predict", format!(r#"{{"measurements":{deep}"#)));
    cases
}

/// The whole decode corpus, in file order: `(decoder, body, generator)`,
/// where `generator` names the function that builds a body too long to
/// store verbatim.
fn corpus() -> Vec<(&'static str, String, Option<&'static str>)> {
    let mut out = Vec::new();
    for (decoder, canonical) in [
        ("predict", PREDICT),
        ("ingest", INGEST),
        ("series_predict", SERIES_PREDICT),
        ("plan", PLAN),
        ("batch", BATCH),
    ] {
        out.push((decoder, canonical.to_string(), None));
        // Truncated at every byte offset (the bodies are ASCII).
        for end in 0..canonical.len() {
            out.push((decoder, canonical[..end].to_string(), None));
        }
        let tree = Json::parse(canonical).unwrap();
        let mut fields = Vec::new();
        field_paths(&tree, &mut Vec::new(), &mut fields);
        for path in &fields {
            out.push((
                decoder,
                edit_field(&tree, path, |f, at| drop(f.remove(at))),
                None,
            ));
            for wrong in wrong_values() {
                out.push((
                    decoder,
                    edit_field(&tree, path, |f, at| f[at].1 = wrong),
                    None,
                ));
            }
            // Duplicates: the first occurrence wins either way round.
            let dup = |f: &mut Vec<(String, Json)>, at: usize, before: bool| {
                let key = f[at].0.clone();
                f.insert(at + usize::from(!before), (key, Json::String("x".into())));
            };
            out.push((
                decoder,
                edit_field(&tree, path, |f, at| dup(f, at, true)),
                None,
            ));
            out.push((
                decoder,
                edit_field(&tree, path, |f, at| dup(f, at, false)),
                None,
            ));
        }
        let mut objects = Vec::new();
        object_paths(&tree, &mut Vec::new(), &mut objects);
        for path in &objects {
            let mut copy = tree.clone();
            if let Json::Object(fields) = node_mut(&mut copy, path) {
                fields.reverse();
            }
            out.push((decoder, copy.render(), None));
        }
    }
    for (decoder, body) in handwritten() {
        out.push((decoder, body, None));
    }
    out.push(("ingest", many_stalls_body(), Some("many_stalls_body")));
    out
}

/// Pin `text` verbatim when short, else by length and digest.
fn pin(text: &str) -> Json {
    if text.len() <= INLINE_LIMIT {
        Json::String(text.to_string())
    } else {
        Json::String(format!(
            "len {} fnv1a64 {:016x}",
            text.len(),
            fnv1a64(text.as_bytes())
        ))
    }
}

#[test]
fn decode_outcomes_match_the_golden_corpus() {
    let data = std::fs::read_to_string(DECODE_DATA).expect("golden decode data");
    let corpus = corpus();
    let lines: Vec<&str> = data.lines().collect();
    assert_eq!(lines.len(), corpus.len(), "golden file and corpus disagree");
    let mut failures = Vec::new();
    for (line, (decoder, body, generator)) in lines.iter().zip(&corpus) {
        let entry = Json::parse(line).unwrap();
        let field = |key: &str| entry.get(key).and_then(Json::as_str).unwrap();
        assert_eq!(field("decoder"), *decoder);
        match generator {
            Some(name) => assert_eq!(field("body_generator"), *name),
            None => assert_eq!(field("body"), body.as_str()),
        }
        let got = pin(&decode(decoder, body));
        if got.as_str() != Some(field("outcome")) {
            failures.push(format!(
                "{decoder} {body:.200}\n  want {}\n  got  {}",
                field("outcome"),
                got.as_str().unwrap()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} golden decode outcomes changed:\n{}",
        failures.len(),
        corpus.len(),
        failures.join("\n")
    );
}

#[test]
fn corpus_reaches_every_error_kind() {
    // The corpus is only as good as its coverage: pin that it exercises
    // each class of outcome, so a generator edit cannot hollow it out.
    let outcomes: Vec<String> = corpus().iter().map(|(d, b, _)| decode(d, b)).collect();
    for needle in [
        "ok ",
        "JSON parse error at byte",
        "missing field",
        "must be a number",
        "must be a non-negative integer",
        "must be a string",
        "must be an array",
        "must be a boolean",
        "must be an integer between 1 and 8",
        "must be positive and finite",
        "unknown stall source",
        "invalid series id",
        "jobs[1]: ",
        "measurements.points[1]",
        ".stalls[0]",
        "nesting deeper than 128 levels",
        "trailing characters after document",
    ] {
        assert!(
            outcomes.iter().any(|o| o.contains(needle)),
            "no corpus outcome contains {needle:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A string that needs every kind of escape plus multi-byte UTF-8.
const AWKWARD: &str = "quo\"te back\\slash\nnl\ttab\r\u{1}\u{1f} é☃😀 </end>";

/// Numbers whose rendering is easy to get wrong.
fn awkward_numbers() -> Vec<f64> {
    vec![
        f64::NAN,
        -0.0,
        0.0,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        -9_007_199_254_740_991.0,
        1e300,
        -1e-300,
        5e-324,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1,
        1.0 / 3.0,
        4_294_967_295.0,
        123_456_789.5,
    ]
}

fn awkward_prediction() -> Prediction {
    let numbers = awkward_numbers();
    let series = |offset: usize| -> Vec<(u32, f64)> {
        (0..numbers.len())
            .map(|i| (i as u32 + 1, numbers[(i + offset) % numbers.len()]))
            .collect()
    };
    let curve = |params: Vec<f64>| FittedCurve {
        kernel: KernelKind::Rat23,
        params,
        checkpoint_rmse: f64::NAN,
        training_rmse: -0.0,
        training_points: 3,
    };
    Prediction {
        app_name: AWKWARD.to_string(),
        measured_cores: 8,
        target_cores: 4,
        categories: vec![
            CategoryExtrapolation {
                category: StallCategory::backend(AWKWARD),
                curve: curve(numbers.clone()),
                measured: series(1),
                extrapolated: series(2),
            },
            CategoryExtrapolation {
                // Extrapolated short of the target: renders `null`.
                category: StallCategory::frontend("short"),
                curve: curve(vec![]),
                measured: vec![],
                extrapolated: vec![(1, 2.0)],
            },
            CategoryExtrapolation {
                category: StallCategory::software("sw"),
                curve: FittedCurve {
                    kernel: KernelKind::ExpRat,
                    ..curve(vec![-0.0, 1e300])
                },
                measured: series(3),
                extrapolated: series(4),
            },
        ],
        stalls_per_core: series(5),
        scaling_factor: FittedCurve {
            kernel: KernelKind::Poly25,
            ..curve(vec![1.0])
        },
        factor_correlation: f64::NAN,
        predicted_time: series(0),
        measured_time: series(6),
        confidence: None,
    }
}

fn awkward_report(entries: usize) -> BottleneckReport {
    let numbers = awkward_numbers();
    BottleneckReport {
        app_name: AWKWARD.to_string(),
        at_cores: u32::MAX,
        entries: (0..entries)
            .map(|i| estima_core::BottleneckEntry {
                category: if i % 2 == 0 {
                    StallCategory::software(AWKWARD)
                } else {
                    StallCategory::backend(format!("b{i}"))
                },
                predicted_cycles: numbers[i % numbers.len()],
                share: numbers[(i + 1) % numbers.len()],
                growth_factor: numbers[(i + 2) % numbers.len()],
            })
            .collect(),
    }
}

fn awkward_plan(suggestions: usize) -> MeasurementPlan {
    let numbers = awkward_numbers();
    MeasurementPlan {
        app_name: AWKWARD.to_string(),
        measured_cores: 0,
        target_cores: u32::MAX,
        confidence: ConfidenceInterval {
            lo: -0.0,
            hi: f64::NAN,
            spread: 9_007_199_254_740_993.0,
        },
        bottleneck: awkward_report(3),
        suggestions: (0..suggestions)
            .map(|i| PlanSuggestion {
                cores: i as u32 * 1000,
                expected_spread: numbers[i % numbers.len()],
                expected_reduction: numbers[(i + 7) % numbers.len()],
                rationale: format!("{AWKWARD} #{i}"),
            })
            .collect(),
    }
}

/// The demo measurement set of the wire unit tests: 8 core counts, a
/// backend and a software category.
fn demo_set() -> MeasurementSet {
    let mut set = MeasurementSet::new("wire-demo", 2.1);
    for cores in 1..=8u32 {
        let n = f64::from(cores);
        set.push(
            Measurement::new(cores, 20.0 / n + 0.5)
                .with_stall(
                    StallCategory::backend("rob_full"),
                    1.0e9 * (1.0 + 0.1 * n * n),
                )
                .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n)
                .with_memory_footprint(1 << 20),
        );
    }
    set
}

/// `/v1/batch` response bytes of a real server for a batch with a good
/// job, a job the engine rejects and another good job.
fn batch_response() -> String {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server reactors");
    let mut client = estima_serve::Client::connect(handle.addr()).expect("connect");
    let mut starved = MeasurementSet::new(AWKWARD, 2.1);
    starved.push(Measurement::new(1, 10.0));
    let jobs = vec![
        wire::predict_request_to_json(&demo_set(), &TargetSpec::cores(16)),
        wire::predict_request_to_json(&starved, &TargetSpec::cores(32)),
        wire::predict_request_to_json(&demo_set(), &TargetSpec::cores(24)),
    ];
    let body = Json::Object(vec![("jobs".to_string(), Json::Array(jobs))]).render();
    let response = client.request("POST", "/v1/batch", &body).expect("batch");
    assert_eq!(response.status, 200, "{}", response.body);
    handle.shutdown();
    response.body
}

/// Every writer output to pin, by name.
fn writer_outputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut emit = |name: &str, write: &dyn Fn(&mut String)| {
        let mut body = String::new();
        write(&mut body);
        out.push((name.to_string(), body));
    };
    let prediction = awkward_prediction();
    emit("prediction", &|o| wire::write_prediction(&prediction, o));
    let mut with_interval = awkward_prediction();
    with_interval.confidence = Some(ConfidenceInterval {
        lo: -0.0,
        hi: 1e300,
        spread: f64::NAN,
    });
    emit("prediction+confidence", &|o| {
        wire::write_prediction(&with_interval, o)
    });
    for entries in [0, 1, 4] {
        let report = awkward_report(entries);
        emit(&format!("prediction+diagnosis[{entries}]"), &|o| {
            wire::write_prediction_response(&prediction, Some(&report), o)
        });
        emit(
            &format!("prediction+confidence+diagnosis[{entries}]"),
            &|o| wire::write_prediction_response(&with_interval, Some(&report), o),
        );
    }
    emit("prediction+none", &|o| {
        wire::write_prediction_response(&prediction, None, o)
    });
    for suggestions in [0, 1, 3] {
        let plan = awkward_plan(suggestions);
        emit(&format!("plan[{suggestions}]"), &|o| {
            wire::write_plan(&plan, o)
        });
    }
    emit("error", &|o| wire::write_error("bad_request", AWKWARD, o));
    emit("error+empty", &|o| wire::write_error("", "", o));
    emit("retry_error", &|o| {
        wire::write_retry_error("shard_unavailable", AWKWARD, 1_000, o)
    });
    emit(HUGE_RETRY, &|o| {
        wire::write_retry_error("shard_unavailable", AWKWARD, u64::MAX, o)
    });
    emit("quota_error", &|o| {
        wire::write_retry_error("quota_exceeded", AWKWARD, 1500, o)
    });

    let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
    let demo = estima.predict(&demo_set(), &TargetSpec::cores(48)).unwrap();
    emit("demo.prediction", &|o| wire::write_prediction(&demo, o));
    let (confident, _) = Planner::new(&estima)
        .confidence(&demo_set(), &TargetSpec::cores(48))
        .unwrap();
    let report = BottleneckReport::from_prediction(&confident, 48);
    emit("demo.prediction+confidence+diagnosis", &|o| {
        wire::write_prediction_response(&confident, Some(&report), o)
    });
    let plan = Planner::new(&estima)
        .plan(&demo_set(), &TargetSpec::cores(48), 3)
        .unwrap();
    emit("demo.plan", &|o| wire::write_plan(&plan, o));
    emit("demo.batch_response", &|o| o.push_str(&batch_response()));
    out
}

#[test]
fn writer_outputs_match_the_golden_bytes() {
    let data = std::fs::read_to_string(WRITER_DATA).expect("golden writer data");
    let outputs = writer_outputs();
    let lines: Vec<&str> = data.lines().collect();
    assert_eq!(
        lines.len(),
        outputs.len(),
        "golden file and writers disagree"
    );
    for (line, (name, body)) in lines.iter().zip(&outputs) {
        let entry = Json::parse(line).unwrap();
        assert_eq!(
            entry.get("name").and_then(Json::as_str),
            Some(name.as_str())
        );
        assert_eq!(
            entry.get("body").and_then(Json::as_str),
            Some(body.as_str()),
            "writer output `{name}` changed"
        );
    }
}

/// A retry hint above 2^53: written exactly by the integer formatter, so
/// an `f64` tree cannot hold it. No merge re-renders an error body.
const HUGE_RETRY: &str = "retry_error[u64::MAX]";

#[test]
fn writer_outputs_survive_a_tree_round_trip() {
    // The router merges batch responses by parsing shard bodies and
    // re-rendering them, so every writer's bytes must be a fixed point of
    // `Json::parse` + `Json::render`.
    for (name, body) in writer_outputs() {
        if name == HUGE_RETRY {
            continue;
        }
        let tree = Json::parse(&body).unwrap_or_else(|e| panic!("`{name}` is not JSON: {e}"));
        assert_eq!(tree.render(), body, "`{name}` changes under parse + render");
    }
}

/// Rewrite both golden files from the current code.
#[test]
#[ignore = "rewrites the golden data; run only for an intended wire change"]
fn bless_golden_data() {
    let mut decode_lines = String::new();
    for (decoder, body, generator) in corpus() {
        let mut entry = vec![("decoder".to_string(), Json::String(decoder.to_string()))];
        entry.push(match generator {
            Some(name) => ("body_generator".to_string(), Json::String(name.to_string())),
            None => ("body".to_string(), Json::String(body.clone())),
        });
        entry.push(("outcome".to_string(), pin(&decode(decoder, &body))));
        decode_lines.push_str(&Json::Object(entry).render());
        decode_lines.push('\n');
    }
    std::fs::write(DECODE_DATA, decode_lines).unwrap();
    let mut writer_lines = String::new();
    for (name, body) in writer_outputs() {
        let entry = Json::Object(vec![
            ("name".to_string(), Json::String(name)),
            ("body".to_string(), Json::String(body)),
        ]);
        writer_lines.push_str(&entry.render());
        writer_lines.push('\n');
    }
    std::fs::write(WRITER_DATA, writer_lines).unwrap();
}
