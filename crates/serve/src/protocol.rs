//! The wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! Every message is one frame: a 4-byte big-endian length followed by that
//! many bytes of UTF-8 JSON ([`serde::json`]).  Frames above
//! [`MAX_FRAME_LEN`] are rejected *before* any allocation, truncated frames
//! are I/O errors, and malformed JSON is reported with the parser's byte
//! offset — the server never panics on untrusted input.
//!
//! Floating-point payloads (model weights, eval inputs/outputs) use the
//! JSON writer's shortest-round-trip formatting, so a value crossing the
//! wire arrives bit-identical — the end-to-end tests assert served results
//! equal direct library calls exactly.

use prdnn_core::{OutputPolytope, PointSpec, RepairConfig};
use prdnn_linalg::Matrix;
use serde::json::Value;
use std::io::{self, Read, Write};
use std::time::Instant;

/// Upper bound on a frame's payload length (16 MiB): far above any
/// legitimate request, far below an allocation-of-death.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Errors surfaced while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a frame started.
    Closed,
    /// The 4-byte header announced more than [`MAX_FRAME_LEN`] bytes.
    Oversized(usize),
    /// The header announced an empty frame.
    Empty,
    /// A socket read/write timeout expired (the peer stalled mid-frame);
    /// distinct from [`FrameError::Io`] so both ends can classify a
    /// slowloris-style stall separately from a broken stream.
    TimedOut,
    /// The stream ended or failed mid-frame.
    Io(io::Error),
    /// The payload was not valid UTF-8 JSON.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte cap"
                )
            }
            FrameError::Empty => write!(f, "empty frame"),
            FrameError::TimedOut => write!(f, "socket timeout mid-frame"),
            FrameError::Io(e) => write!(f, "i/o error mid-frame: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an I/O error is a socket read/write timeout.  Unix reports an
/// expired `set_read_timeout` as `WouldBlock`; Windows as `TimedOut`.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn io_frame_error(e: io::Error) -> FrameError {
    if is_timeout(&e) {
        FrameError::TimedOut
    } else {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed JSON frame.
///
/// # Errors
///
/// I/O errors from the underlying writer; `InvalidData` if the encoded
/// document exceeds [`MAX_FRAME_LEN`] (nothing is written in that case).
pub fn write_frame(w: &mut impl Write, value: &Value) -> io::Result<()> {
    let body = value.to_json();
    if body.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the cap", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed JSON frame.
///
/// # Errors
///
/// See [`FrameError`]; a clean close before the header is
/// [`FrameError::Closed`], a close mid-header or mid-body is an I/O error
/// (truncated frame).
pub fn read_frame(r: &mut impl Read) -> Result<Value, FrameError> {
    read_frame_timed(r).map(|(v, _)| v)
}

/// Like [`read_frame`], but also reports when the frame's first bytes
/// arrived.  The instant is captured after the first successful header
/// read, so idle time between requests is excluded while a peer that
/// trickles a frame in (or a proxy that delays mid-frame) *is* charged —
/// this is the request arrival time the server's telemetry measures from.
///
/// # Errors
///
/// See [`read_frame`].
pub fn read_frame_timed(r: &mut impl Read) -> Result<(Value, Instant), FrameError> {
    let mut header = [0u8; 4];
    // Distinguish "no frame at all" (clean close) from a truncated header.
    let arrival = match r.read(&mut header) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) => {
            let arrival = Instant::now();
            r.read_exact(&mut header[n..]).map_err(io_frame_error)?;
            arrival
        }
        Err(e) => return Err(io_frame_error(e)),
    };
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(io_frame_error)?;
    let text = std::str::from_utf8(&body)
        .map_err(|e| FrameError::Malformed(format!("invalid UTF-8: {e}")))?;
    let value = Value::parse(text).map_err(|e| FrameError::Malformed(e.to_string()))?;
    Ok((value, arrival))
}

/// The optional `request_id` correlation field of a request document.
/// Clients may set it themselves (values should stay below 2^53 so JSON
/// numbers round-trip exactly); the server assigns one otherwise and
/// echoes it in every response.  Ids ride next to the typed payload so
/// the [`Request`]/[`Response`] codecs stay id-agnostic.
pub fn request_id_of(v: &Value) -> Option<u64> {
    match v.get("request_id") {
        Some(Value::Num(n)) if *n >= 1.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
        _ => None,
    }
}

/// Stamps `request_id` onto an encoded request or response document.
pub fn embed_request_id(v: &mut Value, request_id: u64) {
    if let Value::Obj(fields) = v {
        fields.retain(|(k, _)| k != "request_id");
        fields.push(("request_id".to_owned(), Value::Num(request_id as f64)));
    }
}

/// A reference to a stored model: a name plus an optional pinned version
/// (`None` = latest).
///
/// The textual forms are `"name"`, `"name@latest"`, and `"name@vN"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRef {
    /// The model's name in the store.
    pub name: String,
    /// Pinned version, or `None` for latest.
    pub version: Option<u32>,
}

impl ModelRef {
    /// A reference to the latest version of `name`.
    pub fn latest(name: impl Into<String>) -> Self {
        ModelRef {
            name: name.into(),
            version: None,
        }
    }

    /// A reference to a specific version of `name`.
    pub fn version(name: impl Into<String>, version: u32) -> Self {
        ModelRef {
            name: name.into(),
            version: Some(version),
        }
    }

    /// Parses `"name"`, `"name@latest"`, or `"name@vN"`.
    ///
    /// # Errors
    ///
    /// Returns a message for empty names and malformed version suffixes.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, suffix) = match s.split_once('@') {
            None => (s, None),
            Some((name, suffix)) => (name, Some(suffix)),
        };
        if name.is_empty() {
            return Err(format!("model reference {s:?}: empty model name"));
        }
        let version = match suffix {
            None | Some("latest") => None,
            Some(v) => match v.strip_prefix('v').and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Some(n),
                _ => {
                    return Err(format!(
                        "model reference {s:?}: expected \"@latest\" or \"@vN\""
                    ))
                }
            },
        };
        Ok(ModelRef {
            name: name.to_owned(),
            version,
        })
    }
}

impl std::fmt::Display for ModelRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.version {
            None => write!(f, "{}@latest", self.name),
            Some(v) => write!(f, "{}@v{}", self.name, v),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Load a model built by a `prdnn-datasets` generator spec and publish
    /// it as version 1 of `name`.
    LoadGenerator {
        /// Store name for the new model.
        name: String,
        /// Generator spec (see `prdnn_datasets::registry`).
        generator: String,
    },
    /// Load a model from its serialised JSON form (see `prdnn_nn::io`).
    LoadNetwork {
        /// Store name for the new model.
        name: String,
        /// The network document.
        network: Value,
    },
    /// Evaluate a model version on a batch of inputs.
    Eval {
        /// Which model version.
        model: ModelRef,
        /// The input points.
        inputs: Vec<Vec<f64>>,
        /// Per-request deadline override in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Compute the linear regions of a model version restricted to input
    /// polytopes (segments or planar polygons given by vertices).
    LinRegions {
        /// Which model version.
        model: ModelRef,
        /// One vertex list per polytope.
        polytopes: Vec<Vec<Vec<f64>>>,
        /// Per-request deadline override in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Enqueue a provable point repair; the reply carries a job id to poll.
    Repair {
        /// Which model version to repair (the new version's parent).
        model: ModelRef,
        /// The layer to repair.
        layer: usize,
        /// The pointwise specification to enforce.
        spec: PointSpec,
        /// Repair configuration (thread count is server-controlled).
        config: RepairConfig,
    },
    /// Poll a repair job.
    JobStatus {
        /// The id returned by [`Response::JobQueued`].
        job: u64,
    },
    /// Fetch a model version's full serialised form (both DDNN channels
    /// plus provenance) — the durability e2e uses this to check recovered
    /// weights bit-for-bit against what was acknowledged.
    GetNetwork {
        /// Which model version.
        model: ModelRef,
    },
    /// List stored models and their latest versions.
    ListModels,
    /// List every version of one model with provenance.
    ListVersions {
        /// The model name.
        name: String,
    },
    /// Read every counter, gauge and latency histogram as Prometheus text
    /// exposition format (parse it with [`crate::scrape::Scrape::parse`]).
    Metrics,
    /// Read the retained slow-request span chains (see the `telemetry`
    /// module): requests whose server residence crossed `--slow-ms`.
    Trace,
    /// Begin graceful shutdown: stop accepting, drain queues, exit.
    Shutdown,
}

impl Request {
    /// The request's wire tag, used as its telemetry kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::LoadGenerator { .. } => "load_generator",
            Request::LoadNetwork { .. } => "load_network",
            Request::Eval { .. } => "eval",
            Request::LinRegions { .. } => "lin_regions",
            Request::Repair { .. } => "repair",
            Request::JobStatus { .. } => "job_status",
            Request::GetNetwork { .. } => "get_network",
            Request::ListModels => "list_models",
            Request::ListVersions { .. } => "list_versions",
            Request::Metrics => "metrics",
            Request::Trace => "trace",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One linear region on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionWire {
    /// The region's vertices in input space.
    pub vertices: Vec<Vec<f64>>,
    /// A point in the region's relative interior.
    pub interior: Vec<f64>,
}

/// One model version's provenance on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionInfo {
    /// The version number (1 = originally loaded model).
    pub version: u32,
    /// Where the version came from (generator spec, file, or parent repair).
    pub source: String,
    /// Content hash of the repair spec, as `0x`-prefixed hex (repairs only).
    pub spec_hash: Option<String>,
    /// ℓ1 norm of the repair delta (repairs only).
    pub delta_l1: Option<f64>,
    /// ℓ∞ norm of the repair delta (repairs only).
    pub delta_linf: Option<f64>,
    /// The repaired layer (repairs only).
    pub layer: Option<usize>,
}

/// A repair job's state on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the FIFO.
    Queued,
    /// A worker is running the repair.
    Running,
    /// The repair succeeded and published `version`.
    Done {
        /// The model the new version belongs to.
        model: String,
        /// The published version number.
        version: u32,
        /// ℓ1 norm of the applied delta.
        delta_l1: f64,
        /// ℓ∞ norm of the applied delta.
        delta_linf: f64,
        /// Simplex pivots the repair's LP solve performed.
        lp_pivots: u64,
        /// Basis refactorisations the repair's LP solve performed.
        lp_refactorizations: u64,
    },
    /// The repair failed (infeasible spec, iteration limit, bad layer, ...).
    Failed {
        /// Human-readable failure reason.
        message: String,
    },
}

/// Machine-readable error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The named model is not in the store.
    UnknownModel,
    /// The model exists but the pinned version does not.
    UnknownVersion,
    /// The named job id was never issued.
    UnknownJob,
    /// The request was malformed or semantically invalid.
    BadRequest,
    /// A bounded queue was full; retry later.
    Overloaded,
    /// The per-request deadline expired before the batch ran.
    DeadlineExceeded,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The durable backend refused the operation (failed fsync, disk
    /// full); nothing was published — safe to retry once storage heals.
    Unavailable,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::UnknownModel => "unknown_model",
            ErrorKind::UnknownVersion => "unknown_version",
            ErrorKind::UnknownJob => "unknown_job",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "unknown_model" => ErrorKind::UnknownModel,
            "unknown_version" => ErrorKind::UnknownVersion,
            "unknown_job" => ErrorKind::UnknownJob,
            "bad_request" => ErrorKind::BadRequest,
            "overloaded" => ErrorKind::Overloaded,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "shutting_down" => ErrorKind::ShuttingDown,
            "unavailable" => ErrorKind::Unavailable,
            "internal" => ErrorKind::Internal,
            other => return Err(format!("unknown error kind {other:?}")),
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A model was loaded and published.
    Loaded {
        /// The store name.
        name: String,
        /// The published version (always 1 for loads).
        version: u32,
    },
    /// Batched evaluation results, in request order.
    Outputs(Vec<Vec<f64>>),
    /// Linear regions, one list per requested polytope.
    Regions(Vec<Vec<RegionWire>>),
    /// A repair job was accepted.
    JobQueued {
        /// Id to poll with [`Request::JobStatus`].
        job: u64,
    },
    /// Reply to [`Request::JobStatus`].
    Job(JobState),
    /// Reply to [`Request::GetNetwork`].
    Network {
        /// The model name.
        name: String,
        /// The resolved version number.
        version: u32,
        /// Where the version came from.
        source: String,
        /// The activation channel (`prdnn_nn::io` document).
        activation: Value,
        /// The value channel (`prdnn_nn::io` document).
        value: Value,
        /// The repair provenance document (`None` for loaded versions).
        provenance: Option<Value>,
    },
    /// Reply to [`Request::ListModels`]: `(name, latest_version)` pairs.
    Models(Vec<(String, u32)>),
    /// Reply to [`Request::ListVersions`].
    Versions(Vec<VersionInfo>),
    /// Reply to [`Request::Metrics`]: Prometheus text exposition.
    Metrics {
        /// The rendered metrics document (see
        /// [`crate::telemetry::Telemetry::render_prometheus`]).
        text: String,
    },
    /// Reply to [`Request::Trace`]: recent slow-request span chains.
    Trace {
        /// An array of slow-request traces, oldest first.  Each entry is
        /// an object `{request_id, kind, total_ms, spans}` where `spans`
        /// is an array of `{stage, start_ms, duration_ms, outcome}`
        /// objects ordered by start time (`start_ms` is measured from
        /// server start).
        slow: Value,
    },
    /// Reply to [`Request::Shutdown`].
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// For shed requests (`overloaded`): how long the server suggests
        /// waiting before a retry.  Advisory, not a promise.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// An error response with no retry hint.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// An error response carrying a retry-after hint (shed requests).
    pub fn error_retry_after(
        kind: ErrorKind,
        message: impl Into<String>,
        retry_after_ms: u64,
    ) -> Response {
        Response::Error {
            kind,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn tagged(tag: &'static str, mut fields: Vec<(&'static str, Value)>) -> Value {
    let mut pairs = vec![("type", Value::Str(tag.to_owned()))];
    pairs.append(&mut fields);
    Value::obj(pairs)
}

fn points_to_value(points: &[Vec<f64>]) -> Value {
    Value::Arr(points.iter().map(|p| Value::num_array(p)).collect())
}

fn points_from_value(v: &Value, what: &str) -> Result<Vec<Vec<f64>>, String> {
    v.as_arr()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(|p| {
            p.as_f64_vec()
                .ok_or_else(|| format!("{what}: expected arrays of numbers"))
        })
        .collect()
}

fn spec_to_value(spec: &PointSpec) -> Value {
    Value::obj([
        ("points", points_to_value(&spec.points)),
        (
            "constraints",
            Value::Arr(
                spec.constraints
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("rows", Value::Num(c.a.rows() as f64)),
                            ("cols", Value::Num(c.a.cols() as f64)),
                            ("a", Value::num_array(c.a.as_slice())),
                            ("b", Value::num_array(&c.b)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn spec_from_value(v: &Value) -> Result<PointSpec, String> {
    let points = points_from_value(v.get("points").ok_or("spec: missing \"points\"")?, "points")?;
    let constraints = v
        .get("constraints")
        .and_then(Value::as_arr)
        .ok_or("spec: missing \"constraints\" array")?
        .iter()
        .map(|c| {
            let rows = c
                .get("rows")
                .and_then(Value::as_usize)
                .ok_or("constraint: missing \"rows\"")?;
            let cols = c
                .get("cols")
                .and_then(Value::as_usize)
                .ok_or("constraint: missing \"cols\"")?;
            let a = c
                .get("a")
                .and_then(Value::as_f64_vec)
                .ok_or("constraint: missing \"a\"")?;
            let b = c
                .get("b")
                .and_then(Value::as_f64_vec)
                .ok_or("constraint: missing \"b\"")?;
            // Checked: crafted documents with huge dims must be rejected,
            // not wrapped past the size check in release builds.
            if Some(a.len()) != rows.checked_mul(cols) {
                return Err(format!(
                    "constraint: {} entries in \"a\" do not match rows {rows} × cols {cols}",
                    a.len()
                ));
            }
            if b.len() != rows {
                return Err(format!(
                    "constraint: {} entries in \"b\" but rows = {rows}",
                    b.len()
                ));
            }
            Ok(OutputPolytope::new(Matrix::from_flat(rows, cols, a), b))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if points.len() != constraints.len() {
        return Err(format!(
            "spec: {} points but {} constraints",
            points.len(),
            constraints.len()
        ));
    }
    Ok(PointSpec {
        points,
        constraints,
    })
}

// The repair-config document format is owned by `prdnn_core` (it is shared
// with the durable version log's on-disk records); the wire simply embeds
// it.
fn config_to_value(config: &RepairConfig) -> Value {
    config.to_json()
}

fn config_from_value(v: &Value) -> Result<RepairConfig, String> {
    RepairConfig::from_json(v)
}

fn deadline_to_value(deadline_ms: Option<u64>) -> Value {
    deadline_ms.map_or(Value::Null, |ms| Value::Num(ms as f64))
}

fn deadline_from_value(v: &Value) -> Result<Option<u64>, String> {
    match v.get("deadline_ms") {
        None | Some(Value::Null) => Ok(None),
        Some(ms) => ms
            .as_usize()
            .map(|ms| Some(ms as u64))
            .ok_or_else(|| "deadline_ms must be a non-negative integer".to_owned()),
    }
}

impl Request {
    /// Encodes the request as a JSON document.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Ping => tagged("ping", vec![]),
            Request::LoadGenerator { name, generator } => tagged(
                "load_generator",
                vec![
                    ("name", Value::Str(name.clone())),
                    ("generator", Value::Str(generator.clone())),
                ],
            ),
            Request::LoadNetwork { name, network } => tagged(
                "load_network",
                vec![
                    ("name", Value::Str(name.clone())),
                    ("network", network.clone()),
                ],
            ),
            Request::Eval {
                model,
                inputs,
                deadline_ms,
            } => tagged(
                "eval",
                vec![
                    ("model", Value::Str(model.to_string())),
                    ("inputs", points_to_value(inputs)),
                    ("deadline_ms", deadline_to_value(*deadline_ms)),
                ],
            ),
            Request::LinRegions {
                model,
                polytopes,
                deadline_ms,
            } => tagged(
                "lin_regions",
                vec![
                    ("model", Value::Str(model.to_string())),
                    (
                        "polytopes",
                        Value::Arr(polytopes.iter().map(|p| points_to_value(p)).collect()),
                    ),
                    ("deadline_ms", deadline_to_value(*deadline_ms)),
                ],
            ),
            Request::Repair {
                model,
                layer,
                spec,
                config,
            } => tagged(
                "repair",
                vec![
                    ("model", Value::Str(model.to_string())),
                    ("layer", Value::Num(*layer as f64)),
                    ("spec", spec_to_value(spec)),
                    ("config", config_to_value(config)),
                ],
            ),
            Request::JobStatus { job } => {
                tagged("job_status", vec![("job", Value::Num(*job as f64))])
            }
            Request::GetNetwork { model } => tagged(
                "get_network",
                vec![("model", Value::Str(model.to_string()))],
            ),
            Request::ListModels => tagged("list_models", vec![]),
            Request::ListVersions { name } => {
                tagged("list_versions", vec![("name", Value::Str(name.clone()))])
            }
            Request::Metrics => tagged("metrics", vec![]),
            Request::Trace => tagged("trace", vec![]),
            Request::Shutdown => tagged("shutdown", vec![]),
        }
    }

    /// Decodes a request from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let tag = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("request: missing \"type\"")?;
        let model_ref = || -> Result<ModelRef, String> {
            ModelRef::parse(
                v.get("model")
                    .and_then(Value::as_str)
                    .ok_or("request: missing \"model\"")?,
            )
        };
        let name = || -> Result<String, String> {
            Ok(v.get("name")
                .and_then(Value::as_str)
                .ok_or("request: missing \"name\"")?
                .to_owned())
        };
        match tag {
            "ping" => Ok(Request::Ping),
            "load_generator" => Ok(Request::LoadGenerator {
                name: name()?,
                generator: v
                    .get("generator")
                    .and_then(Value::as_str)
                    .ok_or("load_generator: missing \"generator\"")?
                    .to_owned(),
            }),
            "load_network" => Ok(Request::LoadNetwork {
                name: name()?,
                network: v
                    .get("network")
                    .ok_or("load_network: missing \"network\"")?
                    .clone(),
            }),
            "eval" => Ok(Request::Eval {
                model: model_ref()?,
                inputs: points_from_value(
                    v.get("inputs").ok_or("eval: missing \"inputs\"")?,
                    "inputs",
                )?,
                deadline_ms: deadline_from_value(v)?,
            }),
            "lin_regions" => Ok(Request::LinRegions {
                model: model_ref()?,
                polytopes: v
                    .get("polytopes")
                    .and_then(Value::as_arr)
                    .ok_or("lin_regions: missing \"polytopes\"")?
                    .iter()
                    .map(|p| points_from_value(p, "polytope"))
                    .collect::<Result<_, _>>()?,
                deadline_ms: deadline_from_value(v)?,
            }),
            "repair" => Ok(Request::Repair {
                model: model_ref()?,
                layer: v
                    .get("layer")
                    .and_then(Value::as_usize)
                    .ok_or("repair: missing \"layer\"")?,
                spec: spec_from_value(v.get("spec").ok_or("repair: missing \"spec\"")?)?,
                config: config_from_value(v.get("config").ok_or("repair: missing \"config\"")?)?,
            }),
            "job_status" => Ok(Request::JobStatus {
                job: v
                    .get("job")
                    .and_then(Value::as_usize)
                    .ok_or("job_status: missing \"job\"")? as u64,
            }),
            "get_network" => Ok(Request::GetNetwork {
                model: model_ref()?,
            }),
            "list_models" => Ok(Request::ListModels),
            "list_versions" => Ok(Request::ListVersions { name: name()? }),
            "metrics" => Ok(Request::Metrics),
            "trace" => Ok(Request::Trace),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

fn opt_num(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Num)
}

impl Response {
    /// Encodes the response as a JSON document.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Pong => tagged("pong", vec![]),
            Response::Loaded { name, version } => tagged(
                "loaded",
                vec![
                    ("name", Value::Str(name.clone())),
                    ("version", Value::Num(*version as f64)),
                ],
            ),
            Response::Outputs(outputs) => {
                tagged("outputs", vec![("outputs", points_to_value(outputs))])
            }
            Response::Regions(per_polytope) => tagged(
                "regions",
                vec![(
                    "regions",
                    Value::Arr(
                        per_polytope
                            .iter()
                            .map(|regions| {
                                Value::Arr(
                                    regions
                                        .iter()
                                        .map(|r| {
                                            Value::obj([
                                                ("vertices", points_to_value(&r.vertices)),
                                                ("interior", Value::num_array(&r.interior)),
                                            ])
                                        })
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                )],
            ),
            Response::JobQueued { job } => {
                tagged("job_queued", vec![("job", Value::Num(*job as f64))])
            }
            Response::Job(state) => {
                let (state_tag, mut fields) = match state {
                    JobState::Queued => ("queued", vec![]),
                    JobState::Running => ("running", vec![]),
                    JobState::Done {
                        model,
                        version,
                        delta_l1,
                        delta_linf,
                        lp_pivots,
                        lp_refactorizations,
                    } => (
                        "done",
                        vec![
                            ("model", Value::Str(model.clone())),
                            ("version", Value::Num(*version as f64)),
                            ("delta_l1", Value::Num(*delta_l1)),
                            ("delta_linf", Value::Num(*delta_linf)),
                            ("lp_pivots", Value::Num(*lp_pivots as f64)),
                            (
                                "lp_refactorizations",
                                Value::Num(*lp_refactorizations as f64),
                            ),
                        ],
                    ),
                    JobState::Failed { message } => {
                        ("failed", vec![("message", Value::Str(message.clone()))])
                    }
                };
                let mut all = vec![("state", Value::Str(state_tag.to_owned()))];
                all.append(&mut fields);
                tagged("job", all)
            }
            Response::Network {
                name,
                version,
                source,
                activation,
                value,
                provenance,
            } => tagged(
                "network",
                vec![
                    ("name", Value::Str(name.clone())),
                    ("version", Value::Num(*version as f64)),
                    ("source", Value::Str(source.clone())),
                    ("activation", activation.clone()),
                    ("value", value.clone()),
                    ("provenance", provenance.clone().unwrap_or(Value::Null)),
                ],
            ),
            Response::Models(models) => tagged(
                "models",
                vec![(
                    "models",
                    Value::Arr(
                        models
                            .iter()
                            .map(|(name, latest)| {
                                Value::obj([
                                    ("name", Value::Str(name.clone())),
                                    ("latest", Value::Num(*latest as f64)),
                                ])
                            })
                            .collect(),
                    ),
                )],
            ),
            Response::Versions(versions) => tagged(
                "versions",
                vec![(
                    "versions",
                    Value::Arr(
                        versions
                            .iter()
                            .map(|info| {
                                Value::obj([
                                    ("version", Value::Num(info.version as f64)),
                                    ("source", Value::Str(info.source.clone())),
                                    (
                                        "spec_hash",
                                        info.spec_hash.clone().map_or(Value::Null, Value::Str),
                                    ),
                                    ("delta_l1", opt_num(info.delta_l1)),
                                    ("delta_linf", opt_num(info.delta_linf)),
                                    (
                                        "layer",
                                        info.layer.map_or(Value::Null, |l| Value::Num(l as f64)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                )],
            ),
            Response::Metrics { text } => {
                tagged("metrics", vec![("text", Value::Str(text.clone()))])
            }
            Response::Trace { slow } => tagged("trace", vec![("slow", slow.clone())]),
            Response::ShuttingDown => tagged("shutting_down", vec![]),
            Response::Error {
                kind,
                message,
                retry_after_ms,
            } => tagged(
                "error",
                vec![
                    ("kind", Value::Str(kind.as_str().to_owned())),
                    ("message", Value::Str(message.clone())),
                    (
                        "retry_after_ms",
                        retry_after_ms.map_or(Value::Null, |ms| Value::Num(ms as f64)),
                    ),
                ],
            ),
        }
    }

    /// Decodes a response from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_value(v: &Value) -> Result<Response, String> {
        let tag = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("response: missing \"type\"")?;
        match tag {
            "pong" => Ok(Response::Pong),
            "loaded" => Ok(Response::Loaded {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("loaded: missing \"name\"")?
                    .to_owned(),
                version: v
                    .get("version")
                    .and_then(Value::as_usize)
                    .ok_or("loaded: missing \"version\"")? as u32,
            }),
            "outputs" => Ok(Response::Outputs(points_from_value(
                v.get("outputs").ok_or("outputs: missing \"outputs\"")?,
                "outputs",
            )?)),
            "regions" => Ok(Response::Regions(
                v.get("regions")
                    .and_then(Value::as_arr)
                    .ok_or("regions: missing \"regions\"")?
                    .iter()
                    .map(|regions| {
                        regions
                            .as_arr()
                            .ok_or("regions: expected arrays of regions")?
                            .iter()
                            .map(|r| {
                                Ok(RegionWire {
                                    vertices: points_from_value(
                                        r.get("vertices").ok_or("region: missing \"vertices\"")?,
                                        "vertices",
                                    )?,
                                    interior: r
                                        .get("interior")
                                        .and_then(Value::as_f64_vec)
                                        .ok_or("region: missing \"interior\"")?,
                                })
                            })
                            .collect::<Result<Vec<_>, String>>()
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )),
            "job_queued" => Ok(Response::JobQueued {
                job: v
                    .get("job")
                    .and_then(Value::as_usize)
                    .ok_or("job_queued: missing \"job\"")? as u64,
            }),
            "job" => {
                let state = v
                    .get("state")
                    .and_then(Value::as_str)
                    .ok_or("job: missing \"state\"")?;
                Ok(Response::Job(match state {
                    "queued" => JobState::Queued,
                    "running" => JobState::Running,
                    "done" => JobState::Done {
                        model: v
                            .get("model")
                            .and_then(Value::as_str)
                            .ok_or("job: missing \"model\"")?
                            .to_owned(),
                        version: v
                            .get("version")
                            .and_then(Value::as_usize)
                            .ok_or("job: missing \"version\"")?
                            as u32,
                        delta_l1: v
                            .get("delta_l1")
                            .and_then(Value::as_f64)
                            .ok_or("job: missing \"delta_l1\"")?,
                        delta_linf: v
                            .get("delta_linf")
                            .and_then(Value::as_f64)
                            .ok_or("job: missing \"delta_linf\"")?,
                        lp_pivots: v
                            .get("lp_pivots")
                            .and_then(Value::as_usize)
                            .ok_or("job: missing \"lp_pivots\"")?
                            as u64,
                        lp_refactorizations: v
                            .get("lp_refactorizations")
                            .and_then(Value::as_usize)
                            .ok_or("job: missing \"lp_refactorizations\"")?
                            as u64,
                    },
                    "failed" => JobState::Failed {
                        message: v
                            .get("message")
                            .and_then(Value::as_str)
                            .ok_or("job: missing \"message\"")?
                            .to_owned(),
                    },
                    other => return Err(format!("job: unknown state {other:?}")),
                }))
            }
            "network" => Ok(Response::Network {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("network: missing \"name\"")?
                    .to_owned(),
                version: v
                    .get("version")
                    .and_then(Value::as_usize)
                    .ok_or("network: missing \"version\"")? as u32,
                source: v
                    .get("source")
                    .and_then(Value::as_str)
                    .ok_or("network: missing \"source\"")?
                    .to_owned(),
                activation: v
                    .get("activation")
                    .ok_or("network: missing \"activation\"")?
                    .clone(),
                value: v.get("value").ok_or("network: missing \"value\"")?.clone(),
                provenance: match v.get("provenance") {
                    None | Some(Value::Null) => None,
                    Some(p) => Some(p.clone()),
                },
            }),
            "models" => Ok(Response::Models(
                v.get("models")
                    .and_then(Value::as_arr)
                    .ok_or("models: missing \"models\"")?
                    .iter()
                    .map(|m| {
                        Ok((
                            m.get("name")
                                .and_then(Value::as_str)
                                .ok_or("models: missing \"name\"")?
                                .to_owned(),
                            m.get("latest")
                                .and_then(Value::as_usize)
                                .ok_or("models: missing \"latest\"")?
                                as u32,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )),
            "versions" => Ok(Response::Versions(
                v.get("versions")
                    .and_then(Value::as_arr)
                    .ok_or("versions: missing \"versions\"")?
                    .iter()
                    .map(|info| {
                        Ok(VersionInfo {
                            version: info
                                .get("version")
                                .and_then(Value::as_usize)
                                .ok_or("versions: missing \"version\"")?
                                as u32,
                            source: info
                                .get("source")
                                .and_then(Value::as_str)
                                .ok_or("versions: missing \"source\"")?
                                .to_owned(),
                            spec_hash: match info.get("spec_hash") {
                                None | Some(Value::Null) => None,
                                Some(h) => Some(
                                    h.as_str()
                                        .ok_or("versions: spec_hash must be a string")?
                                        .to_owned(),
                                ),
                            },
                            delta_l1: info.get("delta_l1").and_then(Value::as_f64),
                            delta_linf: info.get("delta_linf").and_then(Value::as_f64),
                            layer: info.get("layer").and_then(Value::as_usize),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )),
            "metrics" => Ok(Response::Metrics {
                text: v
                    .get("text")
                    .and_then(Value::as_str)
                    .ok_or("metrics: missing \"text\"")?
                    .to_owned(),
            }),
            "trace" => Ok(Response::Trace {
                slow: v.get("slow").ok_or("trace: missing \"slow\"")?.clone(),
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                kind: ErrorKind::from_str(
                    v.get("kind")
                        .and_then(Value::as_str)
                        .ok_or("error: missing \"kind\"")?,
                )?,
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .ok_or("error: missing \"message\"")?
                    .to_owned(),
                retry_after_ms: match v.get("retry_after_ms") {
                    None | Some(Value::Null) => None,
                    Some(ms) => Some(
                        ms.as_usize()
                            .ok_or("error: retry_after_ms must be a non-negative integer")?
                            as u64,
                    ),
                },
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn model_refs_parse_and_print() {
        assert_eq!(ModelRef::parse("m").unwrap(), ModelRef::latest("m"));
        assert_eq!(ModelRef::parse("m@latest").unwrap(), ModelRef::latest("m"));
        assert_eq!(ModelRef::parse("m@v3").unwrap(), ModelRef::version("m", 3));
        assert_eq!(ModelRef::version("m", 3).to_string(), "m@v3");
        assert_eq!(ModelRef::latest("m").to_string(), "m@latest");
        for bad in ["", "@v1", "m@", "m@v0", "m@3", "m@vx"] {
            assert!(ModelRef::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let value = Request::Eval {
            model: ModelRef::latest("n1"),
            inputs: vec![vec![0.5], vec![1.5]],
            deadline_ms: Some(250),
        }
        .to_value();
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let back = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, value);
        // A second read on the exhausted stream reports a clean close.
        let mut cursor = Cursor::new(&buf);
        read_frame(&mut cursor).unwrap();
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn metrics_request_response_and_done_state_round_trip() {
        let req = Request::Metrics;
        assert_eq!(Request::from_value(&req.to_value()).unwrap(), req);

        let resp = Response::Metrics {
            text: "# HELP prdnn_x y\n# TYPE prdnn_x counter\nprdnn_x 1\n".to_owned(),
        };
        assert_eq!(Response::from_value(&resp.to_value()).unwrap(), resp);

        let done = Response::Job(JobState::Done {
            model: "m".to_owned(),
            version: 3,
            delta_l1: 1.5,
            delta_linf: 0.5,
            lp_pivots: 42,
            lp_refactorizations: 2,
        });
        assert_eq!(Response::from_value(&done.to_value()).unwrap(), done);
    }

    #[test]
    fn trace_request_and_response_round_trip() {
        let req = Request::Trace;
        assert_eq!(Request::from_value(&req.to_value()).unwrap(), req);
        assert_eq!(req.kind(), "trace");

        let resp = Response::Trace {
            slow: Value::Arr(vec![Value::obj([
                ("request_id", Value::Num(7.0)),
                ("kind", Value::Str("eval".to_owned())),
                ("total_ms", Value::Num(120.5)),
                ("spans", Value::Arr(vec![])),
            ])]),
        };
        assert_eq!(Response::from_value(&resp.to_value()).unwrap(), resp);
    }

    #[test]
    fn request_ids_embed_echo_and_survive_the_codec() {
        let mut doc = Request::Ping.to_value();
        assert_eq!(request_id_of(&doc), None);
        embed_request_id(&mut doc, 42);
        assert_eq!(request_id_of(&doc), Some(42));
        // Embedding twice replaces rather than duplicates.
        embed_request_id(&mut doc, 43);
        assert_eq!(request_id_of(&doc), Some(43));
        // The typed codec ignores the correlation field entirely.
        assert_eq!(Request::from_value(&doc).unwrap(), Request::Ping);
        // Junk ids are ignored, not misread.
        let junk = Value::obj([("request_id", Value::Num(-1.0))]);
        assert_eq!(request_id_of(&junk), None);
        let frac = Value::obj([("request_id", Value::Num(1.5))]);
        assert_eq!(request_id_of(&frac), None);
    }

    #[test]
    fn oversized_and_empty_headers_are_rejected() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        oversized.extend_from_slice(b"xxxx");
        assert!(matches!(
            read_frame(&mut Cursor::new(&oversized)),
            Err(FrameError::Oversized(_))
        ));
        let empty = 0u32.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(&empty)),
            Err(FrameError::Empty)
        ));
    }
}
