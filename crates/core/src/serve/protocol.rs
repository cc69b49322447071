//! The wire protocol: length-prefixed JSON frames and request decoding.
//!
//! A frame is a 4-byte **big-endian** `u32` payload length followed by
//! that many bytes of UTF-8 JSON (the dependency-free [`crate::json`]
//! dialect — no NaN/Infinity, objects with string keys). Length-prefixing
//! over a byte stream avoids any in-band delimiter scanning and makes torn
//! frames (a peer dying mid-write) a *detected error* rather than a parse
//! ambiguity: a clean EOF is only clean on a frame boundary.
//!
//! Every request is one JSON object with an `"op"` field; every response
//! is `{"ok": true, "result": …}` or `{"ok": false, "error": {"kind": …,
//! "message": …}}`. The full grammar is documented in
//! `docs/serve-protocol.md`.

use std::io::{self, Read, Write};
use std::str::FromStr;

use cmp_platform::{CoreId, Platform, RoutePolicy, Topology, TopologyKind};
use spg::generate::families::{FamilyKind, FamilyParams, WorkloadSpec};
use spg::{Spg, STREAMIT_SPECS};

use crate::common::Failure;
use crate::json::{obj, Json};
use crate::sweep::SweepAxis;

/// Hard cap on a frame payload; anything larger is a protocol error, not a
/// memory commitment.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Most cores a request's platform may have (`p·q`): 7× the paper's
/// largest grid (6×6). Route tables hold `n_cores²` entries, so the wire
/// bounds the platform before anything is built.
pub const MAX_CORES: u64 = 256;

/// Largest stage count of a `"family"` workload, and of an inline
/// `"chain"`. Generators allocate in proportion to `n` before any solver
/// budget applies, and `DPA1D`'s ideal lattice stores each ideal as an
/// `n`-bit stage set: a chain of `n` stages has `n + 1` ideals, about
/// `n²/8` bytes (2 MiB at the cap, ~450 MB at 59 999 stages).
pub const MAX_FAMILY_N: u64 = 4096;

/// Most grid values a `sweep` may carry. The whole grid runs as one
/// portfolio wave, so every point's instance and solver runs are held at
/// once; a frame-sized grid would be millions of them.
pub const MAX_SWEEP_POINTS: usize = 1024;

/// Writes one frame (length prefix + serialized JSON) and flushes.
pub fn write_frame<W: Write>(w: &mut W, msg: &Json) -> io::Result<()> {
    let body = msg.to_string();
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                body.len()
            ),
        ));
    }
    // One buffer, one write: a short prefix write followed by a short
    // body write is the classic Nagle + delayed-ACK stall on TCP
    // transports — coalescing keeps each frame to a single segment.
    let mut wire = Vec::with_capacity(4 + body.len());
    wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
    wire.extend_from_slice(body.as_bytes());
    w.write_all(&wire)?;
    w.flush()
}

/// Reads one frame from a **blocking** stream. `Ok(None)` means the peer
/// closed the stream cleanly *on a frame boundary*; EOF anywhere else is
/// a torn frame and surfaces as [`io::ErrorKind::UnexpectedEof`].
/// Oversized lengths and invalid JSON surface as
/// [`io::ErrorKind::InvalidData`].
///
/// On a stream with a read timeout this restarts from scratch each call,
/// so a `WouldBlock`/`TimedOut` mid-frame would *discard* already-consumed
/// bytes and desynchronise the framing. Timeout-polling loops must hold a
/// persistent [`FrameReader`] instead.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Json>> {
    FrameReader::new().poll(r)
}

/// Incremental frame reader that survives read timeouts.
///
/// Partial progress — however much of the length prefix and body has
/// arrived — is held in the reader across calls, so a
/// `WouldBlock`/`TimedOut` simply propagates while the next
/// [`FrameReader::poll`] resumes exactly where the stream paused. This is
/// what lets a connection loop poll a shutdown flag between frames
/// without corrupting a frame whose peer pauses mid-write (normal for
/// large frames over TCP).
#[derive(Debug, Default)]
pub struct FrameReader {
    len_buf: [u8; 4],
    len_got: usize,
    body: Vec<u8>,
    body_got: usize,
}

impl FrameReader {
    /// A reader with no frame in progress.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether part of an unfinished frame has been consumed. While true,
    /// a read timeout means "the peer paused mid-frame", not "the
    /// connection is idle".
    pub fn mid_frame(&self) -> bool {
        self.len_got > 0
    }

    /// Drives the current frame forward, returning it once complete. Same
    /// result semantics as [`read_frame`]; additionally,
    /// `WouldBlock`/`TimedOut` errors pass through with all progress
    /// intact for the next call.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Json>> {
        while self.len_got < 4 {
            // First byte decides clean-EOF vs torn frame.
            match r.read(&mut self.len_buf[self.len_got..]) {
                Ok(0) if self.len_got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame (torn length prefix)",
                    ))
                }
                Ok(n) => self.len_got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            if self.len_got == 4 {
                let len = u32::from_be_bytes(self.len_buf) as usize;
                if len > MAX_FRAME_BYTES {
                    *self = FrameReader::new();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
                    ));
                }
                self.body = vec![0u8; len];
                self.body_got = 0;
            }
        }
        while self.body_got < self.body.len() {
            match r.read(&mut self.body[self.body_got..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame (torn body)",
                    ))
                }
                Ok(n) => self.body_got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let body = std::mem::take(&mut self.body);
        *self = FrameReader::new();
        let text = std::str::from_utf8(&body).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame is not UTF-8: {e}"),
            )
        })?;
        Json::parse(text).map(Some).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame is not valid JSON: {e}"),
            )
        })
    }
}

/// How a request names its workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadReq {
    /// One of the 12 Table-1 StreamIt workflows, by name
    /// (case-insensitive), instantiated at a seed.
    Streamit {
        /// Workflow name as printed in Table 1 (e.g. `"Beamformer"`).
        name: String,
        /// Instantiation seed (the suite default is 2011).
        seed: u64,
    },
    /// A synthetic family member (`spg::generate`).
    Family {
        /// Which family.
        family: FamilyKind,
        /// Exact stage count.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// An inline pipeline: `weights.len()` stages, `weights.len() - 1`
    /// edges.
    Chain {
        /// Stage weights in cycles per data set.
        weights: Vec<f64>,
        /// Edge volumes in bytes per data set.
        volumes: Vec<f64>,
    },
}

impl WorkloadReq {
    /// Decodes the `"workload"` member of a request.
    pub fn from_json(v: &Json) -> Result<WorkloadReq, String> {
        if let Some(name) = v.get("streamit").and_then(Json::as_str) {
            let seed = opt_u64(v, "seed")?.unwrap_or(2011);
            return Ok(WorkloadReq::Streamit {
                name: name.to_string(),
                seed,
            });
        }
        if let Some(fam) = v.get("family").and_then(Json::as_str) {
            let family = FamilyKind::from_str(fam)?;
            let n = req_u64(v, "n")?;
            let seed = opt_u64(v, "seed")?.unwrap_or(0);
            if !(2..=MAX_FAMILY_N).contains(&n) {
                return Err(format!(
                    "family workloads need 2 <= n <= {MAX_FAMILY_N}, got {n}"
                ));
            }
            let n = n as usize;
            return Ok(WorkloadReq::Family { family, n, seed });
        }
        if let Some(c) = v.get("chain") {
            let weights = f64_array(c, "weights")?;
            let volumes = f64_array(c, "volumes")?;
            if weights.len() as u64 > MAX_FAMILY_N {
                return Err(format!(
                    "chain workloads need at most {MAX_FAMILY_N} stages, got {}",
                    weights.len()
                ));
            }
            if weights.is_empty() || volumes.len() + 1 != weights.len() {
                return Err(format!(
                    "a chain of {} stages needs exactly {} volumes, got {}",
                    weights.len(),
                    weights.len().saturating_sub(1),
                    volumes.len()
                ));
            }
            return Ok(WorkloadReq::Chain { weights, volumes });
        }
        Err("workload must name one of \"streamit\", \"family\", or \"chain\"".to_string())
    }

    /// Builds the SPG. Deterministic: the same request always produces the
    /// same graph (and therefore the same fingerprint).
    pub fn instantiate(&self) -> Result<Spg, String> {
        match self {
            WorkloadReq::Streamit { name, seed } => {
                let spec = STREAMIT_SPECS
                    .iter()
                    .find(|s| s.name.eq_ignore_ascii_case(name))
                    .ok_or_else(|| format!("unknown StreamIt workflow '{name}'"))?;
                Ok(spg::streamit::streamit_workflow(spec, *seed))
            }
            WorkloadReq::Family { family, n, seed } => {
                Ok(WorkloadSpec::new(*family, FamilyParams::sized(*n), *seed).instantiate())
            }
            WorkloadReq::Chain { weights, volumes } => Ok(spg::chain(weights, volumes)),
        }
    }

    /// Short human-readable tag (logs, responses).
    pub fn describe(&self) -> String {
        match self {
            WorkloadReq::Streamit { name, .. } => format!("streamit:{name}"),
            WorkloadReq::Family { family, n, seed } => {
                format!("{}:n{n}:s{seed}", family.name())
            }
            WorkloadReq::Chain { weights, .. } => format!("chain:n{}", weights.len()),
        }
    }
}

/// The `"platform"` member of a request. Absent fields default to the
/// paper's 4×4 mesh with XY routing. The optional `"faults"` member
/// injects dead cores (`"cores": [[u,v], …]`) and dead links
/// (`"links": [[u1,v1,u2,v2], …]`, endpoints topology-adjacent); see
/// `docs/fault-model.md` for the semantics. At most [`MAX_CORES`] cores.
pub fn platform_from_json(v: Option<&Json>) -> Result<Platform, String> {
    let Some(v) = v else {
        return Ok(Platform::paper(4, 4));
    };
    let p = opt_u64(v, "p")?.unwrap_or(4);
    let q = opt_u64(v, "q")?.unwrap_or(4);
    if p == 0 || q == 0 {
        return Err("platform dimensions must be positive".to_string());
    }
    if !matches!(p.checked_mul(q), Some(n) if n <= MAX_CORES) {
        return Err(format!(
            "a {p}x{q} platform exceeds the {MAX_CORES}-core limit"
        ));
    }
    // Both factors are at most MAX_CORES now, so they fit in u32.
    let (p, q) = (p as u32, q as u32);
    let topology = match v.get("topology").and_then(Json::as_str) {
        Some(s) => TopologyKind::from_str(s)?,
        None => TopologyKind::Mesh,
    };
    let mut pf = Platform::paper_topology(topology, p, q);
    if let Some(s) = v.get("routing").and_then(Json::as_str) {
        pf = pf.with_policy(RoutePolicy::from_str(s)?);
    }
    if let Some(f) = v.get("faults") {
        pf = apply_faults(pf, f)?;
    }
    Ok(pf)
}

/// Decodes one core coordinate out of a faults array entry.
fn core_at(pf: &Platform, coords: &[Json], at: usize, what: &str) -> Result<CoreId, String> {
    let grab = |i: usize| -> Result<u32, String> {
        coords
            .get(i)
            .and_then(Json::as_f64)
            .filter(|x| *x >= 0.0 && x.fract() == 0.0 && *x <= u32::MAX as f64)
            .map(|x| x as u32)
            .ok_or_else(|| format!("{what} coordinates must be non-negative integers"))
    };
    let c = CoreId {
        u: grab(at)?,
        v: grab(at + 1)?,
    };
    if !pf.contains(c) {
        return Err(format!(
            "{what} core ({}, {}) is off the {}x{} grid",
            c.u, c.v, pf.p, pf.q
        ));
    }
    Ok(c)
}

/// Applies a request's `"faults"` member to a platform, validating every
/// coordinate (the library fault constructors panic on bad input; the
/// wire layer must reject it as a `bad_request` instead).
fn apply_faults(mut pf: Platform, f: &Json) -> Result<Platform, String> {
    if let Some(cores) = f.get("cores") {
        let cores = cores
            .as_arr()
            .ok_or("\"faults.cores\" must be an array of [u, v] pairs")?;
        for entry in cores {
            let pair = entry
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or("each dead core must be a [u, v] pair")?;
            let c = core_at(&pf, pair, 0, "dead")?;
            pf = pf.with_core_fault(c);
        }
    }
    if let Some(links) = f.get("links") {
        let links = links
            .as_arr()
            .ok_or("\"faults.links\" must be an array of [u1, v1, u2, v2] quads")?;
        for entry in links {
            let quad = entry
                .as_arr()
                .filter(|a| a.len() == 4)
                .ok_or("each dead link must be a [u1, v1, u2, v2] quad")?;
            let a = core_at(&pf, quad, 0, "dead-link")?;
            let b = core_at(&pf, quad, 2, "dead-link")?;
            let topo = pf.topo();
            let adjacent = (0..4).any(|dir| topo.step(a, dir) == Some(b));
            if !adjacent {
                return Err(format!(
                    "dead link ({}, {})-({}, {}) does not join topology-adjacent cores",
                    a.u, a.v, b.u, b.v
                ));
            }
            pf = pf.with_link_fault(a, b);
        }
    }
    if pf.n_alive_cores() == 0 {
        return Err("faults leave no alive core".to_string());
    }
    Ok(pf)
}

/// The period bound: explicit seconds, or a platform utilisation in
/// `(0, 1]` resolved to `T = W / (u · p·q · f_max)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeriodReq {
    /// Explicit period bound in seconds.
    Period(f64),
    /// Platform utilisation in `(0, 1]`.
    Utilisation(f64),
}

impl PeriodReq {
    /// Decodes the `"period"` / `"utilisation"` members (exactly one must
    /// be present and positive).
    pub fn from_json(v: &Json) -> Result<PeriodReq, String> {
        match (
            v.get("period").and_then(Json::as_f64),
            v.get("utilisation").and_then(Json::as_f64),
        ) {
            (Some(t), None) if t > 0.0 => Ok(PeriodReq::Period(t)),
            (None, Some(u)) if u > 0.0 && u <= 1.0 => Ok(PeriodReq::Utilisation(u)),
            (Some(_), Some(_)) => Err("give either \"period\" or \"utilisation\", not both".into()),
            (Some(_), None) => Err("\"period\" must be positive".into()),
            (None, Some(_)) => Err("\"utilisation\" must be in (0, 1]".into()),
            (None, None) => Err("a solve needs a \"period\" or a \"utilisation\"".into()),
        }
    }
}

/// A decoded `solve` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReq {
    /// The workload.
    pub workload: WorkloadReq,
    /// The platform.
    pub platform: Platform,
    /// The period bound.
    pub period: PeriodReq,
    /// Solver list as a registry CSV (`None` = the paper's five
    /// heuristics).
    pub solvers: Option<String>,
    /// Portfolio base seed.
    pub seed: Option<u64>,
    /// Per-request wall-clock budget override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Anytime mode: a deadline-starved portfolio returns its rescue
    /// mapping with a certified bound gap instead of `too_expensive`
    /// (see [`crate::Portfolio::anytime`]).
    pub anytime: bool,
}

/// A decoded `sweep` request: a `solve` at every grid value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReq {
    /// The workload.
    pub workload: WorkloadReq,
    /// The platform.
    pub platform: Platform,
    /// What `values` enumerates (wire key `"axis"`: `"period"` or
    /// `"utilisation"`, the default).
    pub axis: SweepAxis,
    /// The grid values (at most [`MAX_SWEEP_POINTS`]).
    pub values: Vec<f64>,
    /// Solver CSV (`None` = heuristics).
    pub solvers: Option<String>,
    /// Sweep base seed.
    pub seed: Option<u64>,
    /// Per-request wall-clock budget override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Anytime mode, as on [`SolveReq::anytime`].
    pub anytime: bool,
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Counter/histogram snapshot.
    Stats,
    /// Stop accepting, drain in-flight work, exit.
    Shutdown,
    /// One portfolio solve.
    Solve(SolveReq),
    /// A period/utilisation sweep.
    Sweep(SweepReq),
}

/// Decodes a request frame. All errors are `bad_request` material: the
/// message is safe (and meant) to echo back to the client.
pub fn parse_request(v: &Json) -> Result<Request, String> {
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request must carry a string \"op\"")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "solve" => {
            let workload =
                WorkloadReq::from_json(v.get("workload").ok_or("solve needs a \"workload\"")?)?;
            Ok(Request::Solve(SolveReq {
                workload,
                platform: platform_from_json(v.get("platform"))?,
                period: PeriodReq::from_json(v)?,
                solvers: v.get("solvers").and_then(Json::as_str).map(String::from),
                seed: opt_u64(v, "seed")?,
                deadline_ms: opt_u64(v, "deadline_ms")?,
                anytime: opt_bool(v, "anytime")?.unwrap_or(false),
            }))
        }
        "sweep" => {
            let workload =
                WorkloadReq::from_json(v.get("workload").ok_or("sweep needs a \"workload\"")?)?;
            let axis = match v.get("axis").and_then(Json::as_str) {
                Some("utilisation") | None => SweepAxis::Utilisation,
                Some("period") => SweepAxis::Period,
                Some(other) => {
                    return Err(format!(
                        "unknown axis '{other}' (expected \"period\" or \"utilisation\")"
                    ))
                }
            };
            let values = f64_array(v, "values")?;
            if values.is_empty() || values.len() > MAX_SWEEP_POINTS {
                return Err(format!(
                    "sweep needs 1 to {MAX_SWEEP_POINTS} grid values, got {}",
                    values.len()
                ));
            }
            if values
                .iter()
                .any(|&x| x <= 0.0 || (axis == SweepAxis::Utilisation && x > 1.0))
            {
                return Err("sweep values must be positive (and <= 1 for utilisation)".to_string());
            }
            Ok(Request::Sweep(SweepReq {
                workload,
                platform: platform_from_json(v.get("platform"))?,
                axis,
                values,
                solvers: v.get("solvers").and_then(Json::as_str).map(String::from),
                seed: opt_u64(v, "seed")?,
                deadline_ms: opt_u64(v, "deadline_ms")?,
                anytime: opt_bool(v, "anytime")?.unwrap_or(false),
            }))
        }
        other => Err(format!(
            "unknown op '{other}' (expected ping, stats, shutdown, solve, or sweep)"
        )),
    }
}

/// Wraps a result payload as a success frame.
pub fn ok_response(result: Json) -> Json {
    obj([("ok", Json::from(true)), ("result", result)])
}

/// Builds an error frame with a stable `kind` tag.
pub fn error_response(kind: &str, message: &str) -> Json {
    obj([
        ("ok", Json::from(false)),
        (
            "error",
            obj([("kind", Json::from(kind)), ("message", Json::from(message))]),
        ),
    ])
}

/// Builds the `overloaded` error frame admission control sheds with: the
/// predicted queue wait that triggered the shed, the depth of the queue at
/// decision time, and a `retry_after_ms` hint (the predicted wait, rounded
/// up to at least one millisecond) telling the client when capacity is
/// likely to exist again.
pub fn overloaded_response(predicted_wait_ns: u64, queue_depth: u64) -> Json {
    let retry_after_ms = predicted_wait_ns.div_ceil(1_000_000).max(1);
    let message = format!(
        "shed by admission control: predicted queue wait {:.3} ms exceeds the request deadline or the queue is full",
        predicted_wait_ns as f64 / 1e6
    );
    obj([
        ("ok", Json::from(false)),
        (
            "error",
            obj([
                ("kind", Json::from("overloaded")),
                ("message", Json::from(message.as_str())),
                ("retry_after_ms", Json::from(retry_after_ms)),
                (
                    "predicted_wait_ms",
                    Json::from(predicted_wait_ns as f64 / 1e6),
                ),
                ("queue_depth", Json::from(queue_depth)),
            ]),
        ),
    ])
}

/// Maps a solver [`Failure`] to its structured error frame. Budget
/// exhaustion keeps its phase/cap/count telemetry so clients can
/// distinguish a deadline miss from a complexity cap.
pub fn failure_response(f: &Failure) -> Json {
    match f {
        Failure::TooExpensive(b) => obj([
            ("ok", Json::from(false)),
            (
                "error",
                obj([
                    ("kind", Json::from("too_expensive")),
                    ("message", Json::from(f.to_string())),
                    ("phase", Json::from(b.phase.name())),
                    ("cap", Json::from(b.cap)),
                    ("count", Json::from(b.count)),
                ]),
            ),
        ]),
        other => obj([
            ("ok", Json::from(false)),
            (
                "error",
                obj([
                    ("kind", Json::from("no_valid_mapping")),
                    ("message", Json::from(other.to_string())),
                ]),
            ),
        ]),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(j) => match j.as_f64() {
            Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Ok(Some(x as u64)),
            _ => Err(format!("\"{key}\" must be a non-negative integer")),
        },
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(j) => j
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    opt_u64(v, key)?.ok_or_else(|| format!("missing required field \"{key}\""))
}

fn f64_array(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("\"{key}\" must be an array of numbers"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("\"{key}\" must contain only numbers"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Request, String> {
        parse_request(&Json::parse(text).unwrap())
    }

    #[test]
    fn frames_roundtrip() {
        let msg = obj([("op", Json::from("ping")), ("x", Json::from(1.5))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &Json::from("second")).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Some(msg));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Json::from("second")));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF on boundary");
    }

    #[test]
    fn torn_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::from("payload")).unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "truncation at byte {cut} must be a torn frame"
            );
        }
    }

    /// Yields at most one byte per read and a `WouldBlock` before every
    /// byte — the worst-case slow peer over a stream with a read timeout.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        ready: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            self.ready = false;
            let n = 1.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_preserves_progress_across_timeouts() {
        let first = obj([("op", Json::from("ping"))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &first).unwrap();
        write_frame(&mut buf, &Json::from("second")).unwrap();
        let mut stream = Dribble {
            data: &buf,
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut stalls = 0usize;
        loop {
            match reader.poll(&mut stream) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    stalls += 1;
                    assert!(
                        stalls <= 2 * buf.len() + 2,
                        "reader must make progress between stalls"
                    );
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames, vec![first, Json::from("second")]);
        assert!(stalls > 8, "the dribble stream must actually have stalled");
        assert!(!reader.mid_frame(), "clean EOF leaves no frame in progress");
    }

    #[test]
    fn oversized_and_garbage_frames_are_invalid_data() {
        let mut buf = Vec::from((MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        buf.extend_from_slice(b"xxxx");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(b"{{{{");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parses_solve_request() {
        let req = parse(
            r#"{"op":"solve","workload":{"streamit":"Beamformer"},
                "platform":{"p":4,"q":4,"topology":"mesh","routing":"xy"},
                "utilisation":0.5,"solvers":"greedy,dpa1d","seed":7,"deadline_ms":200}"#,
        )
        .unwrap();
        let Request::Solve(s) = req else {
            panic!("expected solve")
        };
        assert_eq!(s.workload.describe(), "streamit:Beamformer");
        assert_eq!(s.period, PeriodReq::Utilisation(0.5));
        assert_eq!(s.solvers.as_deref(), Some("greedy,dpa1d"));
        assert_eq!(s.deadline_ms, Some(200));
        assert_eq!((s.platform.p, s.platform.q), (4, 4));
        let g = s.workload.instantiate().unwrap();
        assert_eq!(g.n(), 57, "Beamformer has 57 stages (Table 1)");
    }

    #[test]
    fn parses_faults_and_anytime() {
        let req = parse(
            r#"{"op":"solve","workload":{"streamit":"FFT"},
                "platform":{"p":3,"q":3,"faults":{"cores":[[1,1]],"links":[[0,0,0,1]]}},
                "utilisation":0.5,"anytime":true}"#,
        )
        .unwrap();
        let Request::Solve(s) = req else {
            panic!("expected solve")
        };
        assert!(s.anytime);
        assert!(s.platform.is_faulted());
        assert!(s.platform.has_link_faults());
        assert_eq!(s.platform.n_alive_cores(), 8);
        // Torus wrap links are adjacent there but not on a mesh.
        assert!(parse(
            r#"{"op":"solve","workload":{"streamit":"FFT"},
                "platform":{"p":3,"q":3,"faults":{"links":[[0,0,0,2]]}},"period":1}"#
        )
        .is_err());
        assert!(parse(
            r#"{"op":"solve","workload":{"streamit":"FFT"},
                "platform":{"p":3,"q":3,"topology":"torus","faults":{"links":[[0,0,0,2]]}},"period":1}"#
        )
        .is_ok());
        assert!(parse(
            r#"{"op":"solve","workload":{"streamit":"FFT"},"period":1,"anytime":"yes"}"#
        )
        .is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse(r#"{"op":"solve"}"#).is_err());
        assert!(parse(r#"{"op":"nope"}"#).is_err());
        assert!(parse(r#"{"nop":"ping"}"#).is_err());
        assert!(
            parse(r#"{"op":"solve","workload":{"streamit":"Beamformer"}}"#)
                .unwrap_err()
                .contains("period")
        );
        assert!(parse(
            r#"{"op":"solve","workload":{"streamit":"Beamformer"},"period":1.0,"utilisation":0.5}"#
        )
        .is_err());
        assert!(parse(
            r#"{"op":"solve","workload":{"chain":{"weights":[1.0,2.0],"volumes":[1.0,2.0]}},"period":1}"#
        )
        .unwrap_err()
        .contains("volumes"));
        assert!(parse(
            r#"{"op":"solve","workload":{"streamit":"Beamformer"},"period":1,"deadline_ms":-5}"#
        )
        .is_err());
        assert!(parse(r#"{"op":"sweep","workload":{"streamit":"FFT"},"values":[]}"#).is_err());
        assert!(
            parse(r#"{"op":"sweep","workload":{"streamit":"FFT"},"values":[0.2,1.5]}"#).is_err(),
            "utilisation grid values above 1 are rejected"
        );
    }

    #[test]
    fn platform_and_family_sizes_are_bounded() {
        let solve = |workload: &str, platform: &str| {
            parse(&format!(
                r#"{{"op":"solve","workload":{workload},"platform":{platform},"period":1}}"#
            ))
        };
        let fft = r#"{"streamit":"FFT"}"#;
        assert!(solve(fft, r#"{"p":16,"q":16}"#).is_ok());
        assert!(solve(fft, r#"{"p":1,"q":256,"topology":"ring"}"#).is_ok());
        for platform in [
            r#"{"p":16,"q":17}"#,
            r#"{"p":4294967297,"q":1}"#,
            r#"{"p":65536,"q":65536,"topology":"ring"}"#,
            r#"{"p":4294967296,"q":4294967296}"#,
        ] {
            let err = solve(fft, platform).unwrap_err();
            assert!(err.contains("256-core limit"), "{platform}: {err}");
        }
        let chain = |n: u64| format!(r#"{{"family":"deep-chain","n":{n}}}"#);
        assert!(solve(&chain(MAX_FAMILY_N), "{}").is_ok());
        for n in [1, MAX_FAMILY_N + 1, 1 << 40] {
            let err = solve(&chain(n), "{}").unwrap_err();
            assert!(err.contains("n <= 4096"), "n = {n}: {err}");
        }
    }

    #[test]
    fn inline_chains_are_bounded() {
        let chain = |n: usize| {
            let weights = vec!["1e6"; n].join(",");
            let volumes = vec!["1e3"; n - 1].join(",");
            parse(&format!(
                r#"{{"op":"solve","workload":{{"chain":{{"weights":[{weights}],"volumes":[{volumes}]}}}},"period":1}}"#
            ))
        };
        let Ok(Request::Solve(req)) = chain(MAX_FAMILY_N as usize) else {
            panic!("a {MAX_FAMILY_N}-stage chain is accepted");
        };
        assert_eq!(req.workload.describe(), "chain:n4096");
        let err = chain(MAX_FAMILY_N as usize + 1).unwrap_err();
        assert!(err.contains("at most 4096 stages, got 4097"), "{err}");
    }

    #[test]
    fn sweep_grids_are_bounded() {
        let sweep = |points: usize| {
            let values = vec!["0.5"; points].join(",");
            parse(&format!(
                r#"{{"op":"sweep","workload":{{"streamit":"FFT"}},"values":[{values}]}}"#
            ))
        };
        let Ok(Request::Sweep(req)) = sweep(MAX_SWEEP_POINTS) else {
            panic!("a {MAX_SWEEP_POINTS}-point grid is accepted");
        };
        assert_eq!(req.values.len(), MAX_SWEEP_POINTS);
        assert_eq!(req.axis, SweepAxis::Utilisation);
        let err = sweep(MAX_SWEEP_POINTS + 1).unwrap_err();
        assert!(err.contains("1 to 1024 grid values"), "{err}");
    }

    #[test]
    fn workload_instantiation_is_deterministic() {
        let w = WorkloadReq::Family {
            family: FamilyKind::WideForkJoin,
            n: 24,
            seed: 3,
        };
        let a = w.instantiate().unwrap();
        let b = w.instantiate().unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.n(), 24);
        let unknown = WorkloadReq::Streamit {
            name: "NotAFlow".into(),
            seed: 0,
        };
        assert!(unknown.instantiate().is_err());
    }

    #[test]
    fn failure_responses_carry_budget_telemetry() {
        use crate::common::{BudgetExceeded, BudgetPhase};
        let f = Failure::TooExpensive(BudgetExceeded {
            phase: BudgetPhase::Deadline,
            cap: 0,
            count: 0,
        });
        let r = failure_response(&f);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let e = r.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("too_expensive"));
        assert_eq!(e.get("phase").and_then(Json::as_str), Some("deadline"));
        let f = Failure::NoValidMapping("tight".into());
        let e2 = failure_response(&f);
        assert_eq!(
            e2.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("no_valid_mapping")
        );
    }
}
