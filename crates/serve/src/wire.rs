//! The JSON wire format of the prediction service.
//!
//! This module is the single authority for encoding and decoding the
//! request/response bodies of every endpoint, built on
//! [`estima_core::json`]. The full field-by-field specification — with
//! tables, examples and error-code semantics — lives in DESIGN.md
//! § *Serving layer*; the code here is the normative implementation.
//!
//! Each request body has one decoder (`decode_*`), a single streaming pass
//! over the body text with a [`JsonReader`]. Each response type has one
//! writer (`write_*`), which appends straight into the connection's
//! reusable body buffer. Neither builds a [`Json`] tree; the tree
//! encoders left here are the client-side request builders and the
//! series list/detail bodies.
//!
//! # Fidelity
//!
//! Numbers are written with shortest-round-trip formatting
//! ([`write_json_number`]), so every `f64` in a response parses back to the
//! exact bit pattern the predictor produced: predictions served over HTTP
//! are byte-identical to in-process [`estima_core::BatchPredictor`] results
//! (pinned by `tests/server_roundtrip.rs` and the `loadgen` harness). Every
//! writer's output is also a fixed point of `Json::parse` + `Json::render`,
//! which the router's batch merge relies on (pinned by
//! `tests/wire_golden.rs`).

use std::fmt;

use estima_core::json::{f64_as_u64, write_json_number, write_json_string, Json, JsonReader};
use estima_core::store::{SeriesInfo, SeriesSnapshot};
use estima_core::{
    BottleneckReport, ConfidenceInterval, EstimaError, Measurement, MeasurementPlan,
    MeasurementSet, Prediction, SeriesId, StallCategory, StallSource, TargetSpec,
};

/// A wire-level decoding failure: the body is not JSON, or not a valid
/// request. Maps to `400 bad_request`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn err(message: impl Into<String>) -> WireError {
    WireError(message.into())
}

// ---------------------------------------------------------------------------
// Client-side request encoders.
// ---------------------------------------------------------------------------

/// Encode a `MeasurementSet` as its wire object (see DESIGN.md for the
/// field table); used by clients (`loadgen`, tests) to build request
/// bodies, and by the series detail body.
pub fn measurement_set_to_json(set: &MeasurementSet) -> Json {
    Json::Object(vec![
        ("app_name".to_string(), Json::String(set.app_name.clone())),
        ("frequency_ghz".to_string(), Json::Number(set.frequency_ghz)),
        (
            "points".to_string(),
            Json::Array(
                set.measurements()
                    .iter()
                    .map(Measurement::to_json)
                    .collect(),
            ),
        ),
    ])
}

/// Encode a `TargetSpec` as its wire object.
pub fn target_spec_to_json(spec: &TargetSpec) -> Json {
    let mut fields = vec![("cores".to_string(), Json::Number(f64::from(spec.cores)))];
    if let Some(ghz) = spec.frequency_ghz {
        fields.push(("frequency_ghz".to_string(), Json::Number(ghz)));
    }
    fields.push((
        "dataset_scale".to_string(),
        Json::Number(spec.dataset_scale),
    ));
    Json::Object(fields)
}

/// Encode a `/v1/predict` request body. Inverse of
/// [`decode_predict_request`].
pub fn predict_request_to_json(set: &MeasurementSet, target: &TargetSpec) -> Json {
    Json::Object(vec![
        ("measurements".to_string(), measurement_set_to_json(set)),
        ("target".to_string(), target_spec_to_json(target)),
    ])
}

/// Encode a `POST /v1/measurements` body. Inverse of
/// [`decode_ingest_request`]; used by clients (`loadgen`, tests).
pub fn ingest_request_to_json(
    series: &SeriesId,
    frequency_ghz: Option<f64>,
    points: &[Measurement],
) -> Json {
    let mut fields = vec![(
        "series".to_string(),
        Json::String(series.as_str().to_string()),
    )];
    if let Some(ghz) = frequency_ghz {
        fields.push(("frequency_ghz".to_string(), Json::Number(ghz)));
    }
    fields.push((
        "points".to_string(),
        Json::Array(points.iter().map(Measurement::to_json).collect()),
    ));
    Json::Object(fields)
}

// ---------------------------------------------------------------------------
// Response writers.
// ---------------------------------------------------------------------------

/// Write a `Prediction` as its wire object (the `/v1/predict` response
/// body; also the per-job payload of `/v1/batch` responses) into `out`.
/// This is the serve hot path: a response carrying hundreds of numbers
/// appends straight into the connection's reusable body buffer.
pub fn write_prediction(prediction: &Prediction, out: &mut String) {
    write_prediction_response(prediction, None, out);
}

/// [`write_prediction`] with an optional bottleneck diagnosis appended —
/// the response body of `POST /v1/series/{id}/predict`.
pub fn write_prediction_response(
    prediction: &Prediction,
    diagnosis: Option<&BottleneckReport>,
    out: &mut String,
) {
    out.push_str("{\"app_name\":");
    write_json_string(&prediction.app_name, out);
    out.push_str(",\"measured_cores\":");
    write_json_number(f64::from(prediction.measured_cores), out);
    out.push_str(",\"target_cores\":");
    write_json_number(f64::from(prediction.target_cores), out);
    out.push_str(",\"predicted_scaling_limit\":");
    write_json_number(f64::from(prediction.predicted_scaling_limit()), out);
    out.push_str(",\"factor_correlation\":");
    write_json_number(prediction.factor_correlation, out);
    out.push_str(",\"scaling_factor_kernel\":");
    write_json_string(prediction.scaling_factor.kernel.name(), out);
    out.push_str(",\"predicted_time\":");
    write_series(&prediction.predicted_time, out);
    out.push_str(",\"stalls_per_core\":");
    write_series(&prediction.stalls_per_core, out);
    out.push_str(",\"measured_time\":");
    write_series(&prediction.measured_time, out);
    out.push_str(",\"categories\":[");
    for (index, extrapolation) in prediction.categories.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("{\"source\":");
        write_json_string(extrapolation.category.source.json_name(), out);
        out.push_str(",\"name\":");
        write_json_string(&extrapolation.category.name, out);
        out.push_str(",\"kernel\":");
        write_json_string(extrapolation.curve.kernel.name(), out);
        out.push_str(",\"params\":[");
        for (pindex, param) in extrapolation.curve.params.iter().enumerate() {
            if pindex > 0 {
                out.push(',');
            }
            write_json_number(*param, out);
        }
        out.push_str("],\"extrapolated_at_target\":");
        write_json_number(
            extrapolation
                .at(prediction.target_cores)
                .unwrap_or(f64::NAN),
            out,
        );
        out.push('}');
    }
    out.push(']');
    if let Some(interval) = &prediction.confidence {
        out.push_str(",\"confidence\":");
        write_confidence(interval, out);
    }
    if let Some(report) = diagnosis {
        out.push_str(",\"bottleneck\":");
        write_bottleneck_report(report, out);
    }
    out.push('}');
}

/// Write a jackknife confidence interval as its wire object.
fn write_confidence(interval: &ConfidenceInterval, out: &mut String) {
    out.push_str("{\"lo\":");
    write_json_number(interval.lo, out);
    out.push_str(",\"hi\":");
    write_json_number(interval.hi, out);
    out.push_str(",\"spread\":");
    write_json_number(interval.spread, out);
    out.push('}');
}

/// Write a bottleneck report as its wire object: the core count it was
/// analysed at, the dominant category (or `null` when the report is empty),
/// and every entry sorted by descending share.
fn write_bottleneck_report(report: &BottleneckReport, out: &mut String) {
    out.push_str("{\"at_cores\":");
    write_json_number(f64::from(report.at_cores), out);
    out.push_str(",\"dominant\":");
    match report.dominant() {
        Some(entry) => write_json_string(&entry.category.to_string(), out),
        None => out.push_str("null"),
    }
    out.push_str(",\"entries\":[");
    for (index, entry) in report.entries.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("{\"category\":");
        write_json_string(&entry.category.to_string(), out);
        out.push_str(",\"predicted_cycles\":");
        write_json_number(entry.predicted_cycles, out);
        out.push_str(",\"share\":");
        write_json_number(entry.share, out);
        out.push_str(",\"growth_factor\":");
        write_json_number(entry.growth_factor, out);
        out.push('}');
    }
    out.push_str("]}");
}

/// Write a measurement plan as the `POST /v1/series/{id}/plan` response
/// body.
pub fn write_plan(plan: &MeasurementPlan, out: &mut String) {
    out.push_str("{\"app_name\":");
    write_json_string(&plan.app_name, out);
    out.push_str(",\"measured_cores\":");
    write_json_number(f64::from(plan.measured_cores), out);
    out.push_str(",\"target_cores\":");
    write_json_number(f64::from(plan.target_cores), out);
    out.push_str(",\"confidence\":");
    write_confidence(&plan.confidence, out);
    out.push_str(",\"bottleneck\":");
    write_bottleneck_report(&plan.bottleneck, out);
    out.push_str(",\"suggestions\":[");
    for (index, suggestion) in plan.suggestions.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("{\"cores\":");
        write_json_number(f64::from(suggestion.cores), out);
        out.push_str(",\"expected_spread\":");
        write_json_number(suggestion.expected_spread, out);
        out.push_str(",\"expected_reduction\":");
        write_json_number(suggestion.expected_reduction, out);
        out.push_str(",\"rationale\":");
        write_json_string(&suggestion.rationale, out);
        out.push('}');
    }
    out.push_str("]}");
}

/// Write a `(cores, value)` series as `[[cores, value], ...]` (the encoding
/// of `predicted_time`, `stalls_per_core` and `measured_time`).
fn write_series(series: &[(u32, f64)], out: &mut String) {
    out.push('[');
    for (index, (cores, value)) in series.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push('[');
        write_json_number(f64::from(*cores), out);
        out.push(',');
        write_json_number(*value, out);
        out.push(']');
    }
    out.push(']');
}

/// Write a wire error body: `{"error": {"code": ..., "message": ...}}`.
pub fn write_error(code: &str, message: &str, out: &mut String) {
    out.push_str("{\"error\":{\"code\":");
    write_json_string(code, out);
    out.push_str(",\"message\":");
    write_json_string(message, out);
    out.push_str("}}");
}

/// Write a retryable error body: the standard error object plus a
/// machine-readable `retry_after_ms` hint, mirroring the response's
/// `Retry-After` header at millisecond precision. Shared by the
/// `429 quota_exceeded` degradation path and the router's
/// `503 shard_unavailable` response.
pub fn write_retry_error(code: &str, message: &str, retry_after_ms: u64, out: &mut String) {
    out.push_str("{\"error\":{\"code\":");
    write_json_string(code, out);
    out.push_str(",\"message\":");
    write_json_string(message, out);
    out.push_str(",\"retry_after_ms\":");
    let _ = fmt::Write::write_fmt(out, format_args!("{retry_after_ms}"));
    out.push_str("}}");
}

/// HTTP status and wire error code for a store/pipeline error on the series
/// endpoints: missing series are `404 series_not_found`, contradictory
/// ingests are `409 series_conflict`, invalid ids are `400 bad_request`, and
/// everything else keeps the prediction-pipeline semantics
/// (`422 prediction_failed`).
pub fn estima_error_status(error: &EstimaError) -> (u16, &'static str) {
    match error {
        EstimaError::SeriesNotFound { .. } => (404, "series_not_found"),
        EstimaError::SeriesConflict { .. } => (409, "series_conflict"),
        EstimaError::InvalidSeriesId { .. } => (400, "bad_request"),
        EstimaError::QuotaExceeded { .. } => (429, "quota_exceeded"),
        EstimaError::StorageFailure { .. } => (500, "storage_failure"),
        _ => (422, "prediction_failed"),
    }
}

/// Encode one series summary (an entry of the `GET /v1/series` response and
/// the header fields of `GET /v1/series/{id}`).
pub fn series_info_to_json(info: &SeriesInfo) -> Json {
    Json::Object(vec![
        (
            "series".to_string(),
            Json::String(info.id.as_str().to_string()),
        ),
        ("version".to_string(), Json::Number(info.version as f64)),
        ("points".to_string(), Json::Number(info.points as f64)),
        (
            "max_cores".to_string(),
            Json::Number(f64::from(info.max_cores)),
        ),
        (
            "frequency_ghz".to_string(),
            Json::Number(info.frequency_ghz),
        ),
    ])
}

/// Encode the `GET /v1/series` response body.
pub fn series_list_to_json(infos: &[SeriesInfo]) -> Json {
    Json::Object(vec![
        (
            "series".to_string(),
            Json::Array(infos.iter().map(series_info_to_json).collect()),
        ),
        ("count".to_string(), Json::Number(infos.len() as f64)),
    ])
}

/// Encode the `GET /v1/series/{id}` response body: the summary fields plus
/// the full measurement set at the snapshot's version.
pub fn series_detail_to_json(snapshot: &SeriesSnapshot) -> Json {
    Json::Object(vec![
        (
            "series".to_string(),
            Json::String(snapshot.id.as_str().to_string()),
        ),
        ("version".to_string(), Json::Number(snapshot.version as f64)),
        (
            "measurements".to_string(),
            measurement_set_to_json(&snapshot.set),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Request decoders.
//
// One pass over the body text, no intermediate tree. The reader always
// reads to the end of the document, so a syntax error anywhere is the
// answer, at the byte offset `Json::parse` reports (the reader shares its
// parser). Otherwise each object keeps the outcome of the first occurrence
// of each field it knows — the value, or the message for a wrong-typed
// one — and resolves them at its closing `}` in a fixed field order: the
// first error in that order wins. Unknown and duplicate fields are only
// syntax-checked; a value that is not an object where an object belongs
// reads as an empty object; an array stops decoding at its first failing
// element and only syntax-checks the rest. Pinned byte for byte by
// `tests/wire_golden.rs`.
// ---------------------------------------------------------------------------

/// A decoded `POST /v1/measurements` request: which series to append to,
/// the measurement-machine frequency (required to create a series, verified
/// against the stored one otherwise), and the points to append.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Target series id.
    pub series: SeriesId,
    /// Clock frequency of the measurements machine in GHz, when supplied.
    pub frequency_ghz: Option<f64>,
    /// Measurements to append, in arrival order.
    pub points: Vec<Measurement>,
}

/// Opt-in extras on a `POST /v1/series/{id}/predict` body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictExtras {
    /// Attach a jackknife confidence interval (`"confidence": true`).
    pub confidence: bool,
    /// Attach a bottleneck diagnosis (`"diagnosis": true`).
    pub diagnosis: bool,
}

/// Most suggestions a plan request may ask for.
pub const MAX_PLAN_SUGGESTIONS: usize = 8;

/// Decode one `/v1/predict` request body: a `measurements` object and a
/// `target` object.
pub fn decode_predict_request(text: &str) -> Result<(MeasurementSet, TargetSpec), WireError> {
    decode(text, read_predict)
}

/// Decode a `/v1/batch` request body: a `jobs` array of predict requests.
/// A failing job's message is prefixed with `jobs[index]: `.
pub fn decode_batch_request(text: &str) -> Result<Vec<(MeasurementSet, TargetSpec)>, WireError> {
    decode(text, |r, keys| {
        let mut jobs = None;
        object(r, keys, |r, key, keys| {
            match key {
                "jobs" if jobs.is_none() => {
                    let mut decoded = Vec::new();
                    let outcome = array(r, REQUEST, key, |r, index| {
                        Ok(read_predict(r, keys)?
                            .map(|job| decoded.push(job))
                            .map_err(|e| err(format!("jobs[{index}]: {e}"))))
                    })?;
                    jobs = Some(outcome.map(|()| decoded));
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        Ok(required(jobs, REQUEST, "jobs"))
    })
}

/// Decode a `POST /v1/measurements` body.
pub fn decode_ingest_request(text: &str) -> Result<IngestRequest, WireError> {
    decode(text, |r, keys| {
        let (mut series, mut frequency_ghz, mut points) = (None, None, None);
        object(r, keys, |r, key, keys| {
            match key {
                "series" if series.is_none() => {
                    series = Some(string(r)?.map_or_else(
                        || Err(mistyped(REQUEST, key, "a string")),
                        |name| SeriesId::new(name).map_err(|e| err(format!("{REQUEST}: {e}"))),
                    ));
                }
                "frequency_ghz" if frequency_ghz.is_none() => {
                    // Rejected here (400 bad_request) rather than by the
                    // store (which would read as a pipeline failure): a
                    // non-positive clock is malformed input, not an
                    // unpredictable series.
                    frequency_ghz = Some(match number(r)? {
                        Some(ghz) if ghz.is_finite() && ghz > 0.0 => Ok(ghz),
                        Some(_) => Err(err(
                            "request: field `frequency_ghz` must be positive and finite",
                        )),
                        None => Err(mistyped(REQUEST, key, "a number")),
                    });
                }
                "points" if points.is_none() => {
                    points = Some(read_points(r, REQUEST, "points", keys)?);
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        resolved(|| {
            Ok(IngestRequest {
                series: required(series, REQUEST, "series")?,
                frequency_ghz: frequency_ghz.transpose()?,
                points: required(points, REQUEST, "points")?,
            })
        })
    })
}

/// Decode a `POST /v1/series/{id}/predict` body: a `TargetSpec` plus the
/// opt-in [`PredictExtras`] boolean flags.
pub fn decode_series_predict_request(text: &str) -> Result<(TargetSpec, PredictExtras), WireError> {
    decode(text, |r, keys| {
        let mut target = TargetFields::default();
        let (mut confidence, mut diagnosis) = (None, None);
        object(r, keys, |r, key, _| {
            if !target.read(r, key)? {
                match key {
                    "confidence" if confidence.is_none() => confidence = Some(flag(r, key)?),
                    "diagnosis" if diagnosis.is_none() => diagnosis = Some(flag(r, key)?),
                    _ => r.skip_value()?,
                }
            }
            Ok(())
        })?;
        resolved(|| {
            let spec = target.resolve()?;
            let extras = PredictExtras {
                confidence: confidence.transpose()?.unwrap_or(false),
                diagnosis: diagnosis.transpose()?.unwrap_or(false),
            };
            Ok((spec, extras))
        })
    })
}

/// Decode a `POST /v1/series/{id}/plan` body: a `TargetSpec` plus an
/// optional `suggestions` count (`1..=8`, default
/// [`estima_core::plan::DEFAULT_SUGGESTIONS`]).
pub fn decode_plan_request(text: &str) -> Result<(TargetSpec, usize), WireError> {
    decode(text, |r, keys| {
        let mut target = TargetFields::default();
        let mut suggestions = None;
        object(r, keys, |r, key, _| {
            if !target.read(r, key)? {
                match key {
                    "suggestions" if suggestions.is_none() => {
                        let n = number(r)?
                            .and_then(f64_as_u64)
                            .and_then(|n| usize::try_from(n).ok())
                            .filter(|n| (1..=MAX_PLAN_SUGGESTIONS).contains(n));
                        suggestions = Some(n.ok_or_else(|| {
                            let what = format!("an integer between 1 and {MAX_PLAN_SUGGESTIONS}");
                            mistyped(REQUEST, key, &what)
                        }));
                    }
                    _ => r.skip_value()?,
                }
            }
            Ok(())
        })?;
        resolved(|| {
            let spec = target.resolve()?;
            let suggestions = suggestions.transpose()?;
            Ok((
                spec,
                suggestions.unwrap_or(estima_core::plan::DEFAULT_SUGGESTIONS),
            ))
        })
    })
}

/// A syntax error, as `Json::parse` words it. It ends the read at once and
/// outranks every field error.
type Syntax = String;

/// The outcome of reading one value: a syntax error, or else the value or
/// the message it resolves to.
type Read<T> = Result<Result<T, WireError>, Syntax>;

/// The outcome of a field's first occurrence; `None` until it is seen.
type Field<T> = Option<Result<T, WireError>>;

/// Where a field sits, as its error messages name it: `name`, then the
/// point's `[index]`, then the stall's `.stalls[index]`, as present.
#[derive(Clone, Copy)]
struct At {
    name: &'static str,
    point: Option<usize>,
    stall: Option<usize>,
}

impl At {
    const fn named(name: &'static str) -> At {
        At {
            name,
            point: None,
            stall: None,
        }
    }
}

const REQUEST: At = At::named("request");
const MEASUREMENTS: At = At::named("measurements");
const TARGET: At = At::named("target");

impl fmt::Display for At {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        if let Some(index) = self.point {
            write!(f, "[{index}]")?;
        }
        if let Some(index) = self.stall {
            write!(f, ".stalls[{index}]")?;
        }
        Ok(())
    }
}

fn required<T>(field: Field<T>, at: At, key: &str) -> Result<T, WireError> {
    field.unwrap_or_else(|| Err(err(format!("{at}: missing field `{key}`"))))
}

fn mistyped(at: At, key: &str, what: &str) -> WireError {
    err(format!("{at}: field `{key}` must be {what}"))
}

/// Resolve the field outcomes of a syntactically complete object.
fn resolved<T>(resolve: impl FnOnce() -> Result<T, WireError>) -> Read<T> {
    Ok(resolve())
}

/// Decode a whole document with `read`, which gets the reader and one
/// reusable key buffer per object nesting level. Trailing input is a
/// syntax error, which outranks the outcome.
fn decode<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut JsonReader<'a>, &mut [String]) -> Read<T>,
) -> Result<T, WireError> {
    let mut reader = JsonReader::new(text);
    // The deepest body nests five objects: batch, job, measurements,
    // point, stall.
    let mut keys: [String; 5] = Default::default();
    let outcome = read(&mut reader, &mut keys).map_err(WireError)?;
    reader.finish().map_err(WireError)?;
    outcome
}

/// Read the object the reader is at, handing each key to `field`, which
/// must read or skip the value. Any other value is skipped and reads as an
/// object without fields. `keys[0]` holds the keys of this object; the rest
/// is passed on for nested objects.
fn object<'a>(
    r: &mut JsonReader<'a>,
    keys: &mut [String],
    mut field: impl FnMut(&mut JsonReader<'a>, &str, &mut [String]) -> Result<(), Syntax>,
) -> Result<(), Syntax> {
    if r.peek() != Some(b'{') {
        return r.skip_value();
    }
    let (key, nested) = keys
        .split_first_mut()
        .expect("a key buffer per nesting level");
    r.begin_object()?;
    let mut first = true;
    while r.next_key(&mut first, key)? {
        field(r, key, nested)?;
    }
    Ok(())
}

/// Read the array value of field `key`, handing each element's index to
/// `element` until one resolves to an error; the rest are only
/// syntax-checked. Any other value is skipped and resolves to
/// "must be an array".
fn array<'a>(
    r: &mut JsonReader<'a>,
    at: At,
    key: &str,
    mut element: impl FnMut(&mut JsonReader<'a>, usize) -> Read<()>,
) -> Read<()> {
    if r.peek() != Some(b'[') {
        r.skip_value()?;
        return Ok(Err(mistyped(at, key, "an array")));
    }
    r.begin_array()?;
    let mut outcome = Ok(());
    let mut first = true;
    let mut index = 0;
    while r.next_element(&mut first)? {
        if outcome.is_ok() {
            outcome = element(r, index)?;
        } else {
            r.skip_value()?;
        }
        index += 1;
    }
    Ok(outcome)
}

/// Read a number; any other value is skipped and reads as `None`.
fn number(r: &mut JsonReader<'_>) -> Result<Option<f64>, Syntax> {
    match r.peek() {
        // Every other first byte is the tree parser's number branch, which
        // `f64_value` is.
        Some(b'{' | b'[' | b'"' | b't' | b'f' | b'n') | None => r.skip_value().map(|()| None),
        Some(_) => r.f64_value().map(Some),
    }
}

/// Read the number value of field `key`; any other value is skipped and
/// resolves to "must be a number".
fn number_field(r: &mut JsonReader<'_>, at: At, key: &str) -> Read<f64> {
    Ok(number(r)?.ok_or_else(|| mistyped(at, key, "a number")))
}

/// Read a string; any other value is skipped and reads as `None`.
fn string(r: &mut JsonReader<'_>) -> Result<Option<String>, Syntax> {
    if r.peek() != Some(b'"') {
        return r.skip_value().map(|()| None);
    }
    let mut out = String::new();
    r.string_value(&mut out).map(|()| Some(out))
}

/// Read a number as a `u32` core count; anything else (a non-number, a
/// fraction, a negative, or more than `u32::MAX`) resolves to
/// "must be a non-negative integer".
fn core_count(r: &mut JsonReader<'_>, at: At, key: &str) -> Read<u32> {
    Ok(number(r)?
        .and_then(f64_as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| mistyped(at, key, "a non-negative integer")))
}

/// Read an optional boolean flag of a request object.
fn flag(r: &mut JsonReader<'_>, key: &str) -> Read<bool> {
    let value = match r.peek() {
        Some(b't') => Some(true),
        Some(b'f') => Some(false),
        _ => None,
    };
    // Skipping checks the literal's spelling exactly as the parser would.
    r.skip_value()?;
    Ok(value.ok_or_else(|| mistyped(REQUEST, key, "a boolean")))
}

/// The fields of a `TargetSpec` object, as first seen.
#[derive(Default)]
struct TargetFields {
    cores: Field<u32>,
    frequency_ghz: Field<f64>,
    dataset_scale: Field<f64>,
}

impl TargetFields {
    /// Read the value of `key` when it is a target field not seen yet;
    /// `false` leaves the value to the caller.
    fn read(&mut self, r: &mut JsonReader<'_>, key: &str) -> Result<bool, Syntax> {
        match key {
            "cores" if self.cores.is_none() => self.cores = Some(core_count(r, TARGET, key)?),
            "frequency_ghz" if self.frequency_ghz.is_none() => {
                self.frequency_ghz = Some(number_field(r, TARGET, key)?);
            }
            "dataset_scale" if self.dataset_scale.is_none() => {
                self.dataset_scale = Some(number_field(r, TARGET, key)?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn resolve(self) -> Result<TargetSpec, WireError> {
        let mut spec = TargetSpec::cores(required(self.cores, TARGET, "cores")?);
        if let Some(ghz) = self.frequency_ghz.transpose()? {
            spec = spec.with_frequency_ghz(ghz);
        }
        if let Some(scale) = self.dataset_scale.transpose()? {
            spec = spec.with_dataset_scale(scale);
        }
        Ok(spec)
    }
}

/// Read a predict request object: a `measurements` set and a `target`.
fn read_predict(r: &mut JsonReader<'_>, keys: &mut [String]) -> Read<(MeasurementSet, TargetSpec)> {
    let (mut set, mut target) = (None, None);
    object(r, keys, |r, key, keys| {
        match key {
            "measurements" if set.is_none() => set = Some(read_set(r, keys)?),
            "target" if target.is_none() => {
                let mut fields = TargetFields::default();
                object(r, keys, |r, key, _| {
                    if !fields.read(r, key)? {
                        r.skip_value()?;
                    }
                    Ok(())
                })?;
                target = Some(fields.resolve());
            }
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    resolved(|| {
        let set = required(set, REQUEST, "measurements")?;
        Ok((set, required(target, REQUEST, "target")?))
    })
}

/// Read a `measurements` object. Its points may precede `app_name`, so
/// they are collected first and pushed into the set once it exists.
fn read_set(r: &mut JsonReader<'_>, keys: &mut [String]) -> Read<MeasurementSet> {
    let (mut app_name, mut frequency_ghz, mut points) = (None, None, None);
    object(r, keys, |r, key, keys| {
        match key {
            "app_name" if app_name.is_none() => {
                app_name = Some(string(r)?.ok_or_else(|| mistyped(MEASUREMENTS, key, "a string")));
            }
            "frequency_ghz" if frequency_ghz.is_none() => {
                frequency_ghz = Some(number_field(r, MEASUREMENTS, key)?);
            }
            "points" if points.is_none() => {
                points = Some(read_points(r, MEASUREMENTS, "measurements.points", keys)?);
            }
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    resolved(|| {
        let app_name = required(app_name, MEASUREMENTS, "app_name")?;
        let frequency_ghz = required(frequency_ghz, MEASUREMENTS, "frequency_ghz")?;
        let mut set = MeasurementSet::new(app_name, frequency_ghz);
        for point in required(points, MEASUREMENTS, "points")? {
            set.push(point);
        }
        Ok(set)
    })
}

/// Read the `points` array of an `owner` object; its entries are named
/// `{entries}[index]`.
fn read_points(
    r: &mut JsonReader<'_>,
    owner: At,
    entries: &'static str,
    keys: &mut [String],
) -> Read<Vec<Measurement>> {
    let mut points = Vec::new();
    let outcome = array(r, owner, "points", |r, index| {
        let at = At {
            point: Some(index),
            ..At::named(entries)
        };
        Ok(read_point(r, at, keys)?.map(|point| points.push(point)))
    })?;
    Ok(outcome.map(|()| points))
}

/// Read one measurement object, named `at` in its errors.
fn read_point(r: &mut JsonReader<'_>, at: At, keys: &mut [String]) -> Read<Measurement> {
    let (mut cores, mut exec_time, mut footprint, mut stalls) = (None, None, None, None);
    let mut measurement = Measurement::new(0, 0.0);
    object(r, keys, |r, key, keys| {
        match key {
            "cores" if cores.is_none() => cores = Some(core_count(r, at, key)?),
            "exec_time" if exec_time.is_none() => exec_time = Some(number_field(r, at, key)?),
            "memory_footprint" if footprint.is_none() => {
                footprint = Some(
                    number(r)?
                        .and_then(f64_as_u64)
                        .ok_or_else(|| mistyped(at, key, "a non-negative integer")),
                );
            }
            "stalls" if stalls.is_none() => {
                stalls = Some(array(r, at, key, |r, index| {
                    let at = At {
                        stall: Some(index),
                        ..at
                    };
                    Ok(read_stall(r, at, keys)?.map(|(category, cycles)| {
                        measurement.stalls.insert(category, cycles);
                    }))
                })?);
            }
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    resolved(|| {
        measurement.cores = required(cores, at, "cores")?;
        measurement.exec_time = required(exec_time, at, "exec_time")?;
        measurement.memory_footprint = footprint.transpose()?;
        stalls.transpose()?;
        Ok(measurement)
    })
}

/// Read one stall object, named `at` in its errors.
fn read_stall(r: &mut JsonReader<'_>, at: At, keys: &mut [String]) -> Read<(StallCategory, f64)> {
    let (mut source, mut name, mut cycles) = (None, None, None);
    object(r, keys, |r, key, _| {
        match key {
            "source" if source.is_none() => {
                source = Some(match string(r)? {
                    Some(name) => StallSource::from_json_name(&name).ok_or_else(|| {
                        err(format!(
                            "unknown stall source `{name}` (expected hw_backend, hw_frontend or software)"
                        ))
                    }),
                    None => Err(mistyped(at, key, "a string")),
                });
            }
            "name" if name.is_none() => {
                name = Some(string(r)?.ok_or_else(|| mistyped(at, key, "a string")));
            }
            "cycles" if cycles.is_none() => cycles = Some(number_field(r, at, key)?),
            _ => r.skip_value()?,
        }
        Ok(())
    })?;
    resolved(|| {
        let source = required(source, at, "source")?;
        let name = required(name, at, "name")?;
        Ok((
            StallCategory { name, source },
            required(cycles, at, "cycles")?,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use estima_core::{Estima, EstimaConfig};

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

    #[test]
    fn quota_error_body_carries_the_retry_hint() {
        let mut out = String::new();
        write_retry_error(
            "quota_exceeded",
            "tenant `acme` quota exceeded",
            1500,
            &mut out,
        );
        let parsed = Json::parse(&out).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("quota_exceeded")
        );
        assert_eq!(
            error.get("retry_after_ms").and_then(Json::as_u64),
            Some(1500)
        );
        assert_eq!(
            estima_error_status(&EstimaError::QuotaExceeded {
                tenant: "acme".into(),
                detail: "series quota".into(),
                retry_after_ms: 1500,
            }),
            (429, "quota_exceeded")
        );
        assert_eq!(
            estima_error_status(&EstimaError::StorageFailure {
                detail: "disk".into(),
            }),
            (500, "storage_failure")
        );
    }

    #[test]
    fn measurement_set_round_trips_exactly() {
        let set = demo_set();
        let body = predict_request_to_json(&set, &TargetSpec::cores(8)).render();
        let (decoded, _) = decode_predict_request(&body).unwrap();
        assert_eq!(decoded, set);
    }

    #[test]
    fn target_spec_round_trips_with_and_without_options() {
        for spec in [
            TargetSpec::cores(48),
            TargetSpec::cores(32)
                .with_frequency_ghz(2.8)
                .with_dataset_scale(2.0),
        ] {
            let encoded = target_spec_to_json(&spec).render();
            for decoded in [
                decode_series_predict_request(&encoded).unwrap().0,
                decode_plan_request(&encoded).unwrap().0,
            ] {
                assert_eq!(decoded, spec);
            }
        }
    }

    #[test]
    fn predict_request_round_trips() {
        let set = demo_set();
        let target = TargetSpec::cores(48)
            .with_frequency_ghz(2.8)
            .with_dataset_scale(1.5);
        let body = predict_request_to_json(&set, &target).render();
        let (set2, target2) = decode_predict_request(&body).unwrap();
        assert_eq!(set2, set);
        assert_eq!(target2, target);
    }

    #[test]
    fn prediction_series_survive_encoding_bit_for_bit() {
        let prediction = Estima::new(EstimaConfig::default().with_parallelism(1))
            .predict(&demo_set(), &TargetSpec::cores(48))
            .unwrap();
        let mut encoded = String::new();
        write_prediction(&prediction, &mut encoded);
        assert!(
            !encoded.contains("\"confidence\""),
            "default predictions must not emit the opt-in confidence field"
        );
        let decoded = Json::parse(&encoded).unwrap();
        let times = decoded
            .get("predicted_time")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(times.len(), prediction.predicted_time.len());
        for ((c1, t1), pair) in prediction.predicted_time.iter().zip(times) {
            let pair = pair.as_array().unwrap();
            assert_eq!(pair.len(), 2);
            assert_eq!(pair[0].as_u64(), Some(u64::from(*c1)));
            let t2 = pair[1].as_f64().unwrap();
            assert_eq!(t1.to_bits(), t2.to_bits(), "exact f64 round trip");
        }
    }

    #[test]
    fn series_predict_body_decodes_optional_flags() {
        let (spec, extras) = decode_series_predict_request("{\"cores\":32}").unwrap();
        assert_eq!(spec.cores, 32);
        assert_eq!(extras, PredictExtras::default());
        let (spec, extras) =
            decode_series_predict_request("{\"cores\":32,\"confidence\":true,\"diagnosis\":true}")
                .unwrap();
        assert_eq!(spec.cores, 32);
        assert!(extras.confidence && extras.diagnosis);
        let (_, extras) =
            decode_series_predict_request("{\"cores\":32,\"confidence\":false}").unwrap();
        assert!(!extras.confidence && !extras.diagnosis);
        assert!(decode_series_predict_request("{\"cores\":32,\"confidence\":1}").is_err());
        // A key spelled with a JSON escape is the same key.
        let escaped = r#"{"cores":32,"confid\u0065nce":true}"#;
        assert!(decode_series_predict_request(escaped).unwrap().1.confidence);
        let escaped = r#"{"cores":32,"sugg\u0065stions":9}"#;
        assert!(decode_plan_request(escaped).is_err());
    }

    #[test]
    fn plan_request_decodes_and_bounds_suggestions() {
        let (spec, suggestions) = decode_plan_request("{\"cores\":32}").unwrap();
        assert_eq!(spec.cores, 32);
        assert_eq!(suggestions, estima_core::plan::DEFAULT_SUGGESTIONS);
        let (_, suggestions) = decode_plan_request("{\"cores\":32,\"suggestions\":5}").unwrap();
        assert_eq!(suggestions, 5);
        for bad in [
            "{\"cores\":32,\"suggestions\":0}",
            "{\"cores\":32,\"suggestions\":9}",
            "{\"cores\":32,\"suggestions\":\"many\"}",
        ] {
            assert!(decode_plan_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn ingest_request_round_trips() {
        let series = SeriesId::new("demo-1").unwrap();
        let points: Vec<Measurement> = demo_set().measurements().to_vec();
        for frequency in [Some(2.1), None] {
            let encoded = ingest_request_to_json(&series, frequency, &points).render();
            let decoded = decode_ingest_request(&encoded).unwrap();
            assert_eq!(decoded.series, series);
            assert_eq!(decoded.frequency_ghz, frequency);
            assert_eq!(decoded.points, points);
        }
    }

    #[test]
    fn ingest_request_rejects_bad_series_ids() {
        let error = decode_ingest_request(r#"{"series":"a b","points":[]}"#).unwrap_err();
        assert!(error.0.contains("invalid series id"), "{error}");
        assert!(decode_ingest_request(r#"{"series":"ok"}"#).is_err());
        let error =
            decode_ingest_request(r#"{"series":"ok","frequency_ghz":-1,"points":[]}"#).unwrap_err();
        assert!(error.0.contains("positive and finite"), "{error}");
    }

    #[test]
    fn decoders_tolerate_field_order_unknowns_and_duplicates() {
        // Fields out of canonical order (points before app_name, target
        // first), unknown fields at every level, and duplicate keys where
        // the first occurrence must win.
        let body = r#"{
            "target": {"ignored": [1, {"x": "y"}], "cores": 48, "cores": 7},
            "measurements": {
                "points": [
                    {"exec_time": 2.5, "cores": 1, "extra": null,
                     "stalls": [{"cycles": 1e9, "name": "rob_full", "source": "hw_backend",
                                 "source": "software"}]},
                    {"cores": 2, "exec_time": 1.5, "memory_footprint": 1048576, "stalls": []}
                ],
                "frequency_ghz": 2.1, "frequency_ghz": 9.9,
                "app_name": "ooo-demo"
            },
            "trailing_unknown": {"a": [true, false]}
        }"#;
        let (set, target) = decode_predict_request(body).unwrap();
        let mut expected = MeasurementSet::new("ooo-demo", 2.1);
        expected.push(Measurement::new(1, 2.5).with_stall(StallCategory::backend("rob_full"), 1e9));
        expected.push(Measurement::new(2, 1.5).with_memory_footprint(1_048_576));
        assert_eq!(set, expected, "first duplicates win at every level");
        assert_eq!(target, TargetSpec::cores(48), "first duplicate must win");
    }

    #[test]
    fn series_wire_objects_carry_version_and_points() {
        use estima_core::store::MeasurementStore;
        let store = MeasurementStore::new();
        let id = SeriesId::new("app").unwrap();
        store.ingest_set(&id, &demo_set()).unwrap();
        let listed = series_list_to_json(&store.list());
        assert_eq!(listed.get("count").and_then(Json::as_u64), Some(1));
        let entry = &listed.get("series").unwrap().as_array().unwrap()[0];
        assert_eq!(entry.get("series").and_then(Json::as_str), Some("app"));
        assert_eq!(entry.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(entry.get("points").and_then(Json::as_u64), Some(8));

        let detail = series_detail_to_json(&store.snapshot(&id).unwrap());
        let measurements = detail.get("measurements").unwrap();
        assert_eq!(
            measurements.get("app_name").and_then(Json::as_str),
            Some("app")
        );
        let points = measurements.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 8);
        assert_eq!(points[0], demo_set().measurements()[0].to_json());
    }

    #[test]
    fn error_statuses_follow_the_documented_mapping() {
        let not_found = EstimaError::SeriesNotFound { series: "x".into() };
        assert_eq!(estima_error_status(&not_found), (404, "series_not_found"));
        let conflict = EstimaError::SeriesConflict {
            series: "x".into(),
            detail: "freq".into(),
        };
        assert_eq!(estima_error_status(&conflict), (409, "series_conflict"));
        let invalid = EstimaError::InvalidSeriesId { detail: "x".into() };
        assert_eq!(estima_error_status(&invalid), (400, "bad_request"));
        assert_eq!(
            estima_error_status(&EstimaError::NoStallCategories),
            (422, "prediction_failed")
        );
    }

    #[test]
    fn decode_errors_name_the_offending_field() {
        let missing =
            r#"{"measurements":{"app_name":"x","frequency_ghz":2.0},"target":{"cores":4}}"#;
        let error = decode_predict_request(missing).unwrap_err();
        assert!(error.0.contains("points"), "{error}");

        let bad_source = r#"{"measurements":{"app_name":"x","frequency_ghz":2.0,"points":[
            {"cores":1,"exec_time":1.0,"stalls":[{"source":"gpu","name":"x","cycles":1}]}]},
            "target":{"cores":4}}"#;
        let error = decode_predict_request(bad_source).unwrap_err();
        assert!(error.0.contains("unknown stall source"), "{error}");

        assert!(decode_batch_request(r#"{"jobs":{}}"#).is_err());
    }

    #[test]
    fn error_bodies_have_code_and_message() {
        let mut body = String::new();
        write_error(
            "prediction_failed",
            &EstimaError::NoStallCategories.to_string(),
            &mut body,
        );
        let decoded = Json::parse(&body).unwrap();
        let error = decoded.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("prediction_failed")
        );
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("stall categories"));
    }
}
