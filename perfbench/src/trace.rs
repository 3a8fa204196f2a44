//! The traced run's in-process replay and counter snapshots.
//!
//! The replay drives a workload's request stream, from the same seed,
//! through `Request::encode` → `Request::decode` →
//! `ReputationServer::handle` → `Response::encode` → `Response::decode`,
//! recording one span per call under a per-request root span. Spans are
//! kept in memory and written out when the run ends. Spans inside the
//! program are out of scope: this file only times calls into each
//! layer's public functions.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use softrep_core::aggregate_engine::AggregationStats;
use softrep_obs::metrics::HistogramSnapshot;
use softrep_proto::{Request, Response};
use softrep_server::ReputationServer;

use crate::counting;
use crate::drive::{self, Class, Gen};
use crate::stats::{self, Samples, Span};

pub const STAGES: [&str; 5] = [
    "proto.request_encode",
    "proto.request_decode",
    "server.handle",
    "proto.response_encode",
    "proto.response_decode",
];

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    /// Request kind and class per request id.
    pub requests: Vec<(&'static str, Class)>,
    /// Encoded response size per request id.
    pub response_bytes: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub allocs: u64,
}

impl Replay {
    /// Self time (µs) of every span named `stage`, optionally restricted
    /// to requests of `class` or of request kind `kind`.
    pub fn stage_us(&self, stage: &str, class: Option<Class>, kind: Option<&str>) -> Samples {
        self.stage_us_where(stage, |_, k, c| {
            class.is_none_or(|want| want == c) && kind.is_none_or(|want| want == k)
        })
    }

    /// Self time (µs) of every span named `stage` whose request satisfies
    /// `keep(request id, kind, class)`.
    pub fn stage_us_where(
        &self,
        stage: &str,
        keep: impl Fn(usize, &str, Class) -> bool,
    ) -> Samples {
        let selfs = stats::self_times(&self.spans);
        let mut out = Samples::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let request = span.request as usize;
            let (k, c) = self.requests[request];
            if span.name == stage && keep(request, k, c) {
                out.push(self_ns as f64 / 1e3);
            }
        }
        out
    }

    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<_> = self.requests.iter().map(|(k, _)| *k).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }
}

/// Replay `gen` in-process against `server` for `dur`, at least
/// `min_requests` requests.
pub fn replay<G: Gen>(
    server: &ReputationServer,
    gen: &mut G,
    dur: Duration,
    min_requests: usize,
) -> Replay {
    let mut out = Replay::default();
    let origin = stats::now();
    let ns = |t: Instant| (t - origin).as_nanos() as u64;
    let mut next_id = 0u32;
    let allocs_before = counting::allocations();
    counting::ALLOC_COUNTING.store(true, std::sync::atomic::Ordering::Relaxed);
    while stats::now() - origin < dur || out.requests.len() < min_requests {
        let op = gen.next();
        let request_no = out.requests.len() as u32;
        out.requests.push((op.kind, op.class));
        let root = next_id;
        next_id += 1;
        let mut marks = [origin; 6];
        marks[0] = stats::now();
        let doc = op.request.encode();
        marks[1] = stats::now();
        let decoded = Request::decode(&doc);
        marks[2] = stats::now();
        let response = match decoded {
            Ok(request) => server.handle(&request, "perfbench-replay"),
            Err(e) => Response::error("bad-request", e.to_string()),
        };
        marks[3] = stats::now();
        let response_doc = response.encode();
        marks[4] = stats::now();
        let back = Response::decode(&response_doc);
        marks[5] = stats::now();
        out.attempted += 1;
        match back {
            Ok(resp) if drive::check(&resp, &op.expect) => gen.acked(&op),
            _ => out.failed += 1,
        }
        out.response_bytes.push(response_doc.len());
        out.spans.push(Span {
            id: root,
            parent: None,
            request: request_no,
            name: "request",
            start_ns: ns(marks[0]),
            end_ns: ns(marks[5]),
        });
        for (i, stage) in STAGES.iter().enumerate() {
            out.spans.push(Span {
                id: next_id,
                parent: Some(root),
                request: request_no,
                name: stage,
                start_ns: ns(marks[i]),
                end_ns: ns(marks[i + 1]),
            });
            next_id += 1;
        }
    }
    counting::ALLOC_COUNTING.store(false, std::sync::atomic::Ordering::Relaxed);
    out.allocs = counting::allocations() - allocs_before;
    out
}

/// Registry, cache and flood counters around a traced window.
#[derive(Clone)]
pub struct Snapshot {
    agg: AggregationStats,
    dispatch: HistogramSnapshot,
    wakeups: u64,
}

impl Snapshot {
    pub fn take(server: &ReputationServer) -> Self {
        let registry = softrep_obs::registry();
        Snapshot {
            agg: server.db().aggregation_stats(),
            dispatch: registry.histogram("softrep_reactor_dispatch_us").snapshot(),
            wakeups: registry.counter("softrep_reactor_wakeups_total").get(),
        }
    }
}

/// Differences between two snapshots.
pub struct Delta {
    pub report_hits: u64,
    pub report_lookups: u64,
    pub vendor_hits: u64,
    pub vendor_lookups: u64,
    /// Mean reactor dispatch time, µs (exact: histogram sum / count).
    pub dispatch_mean_us: f64,
    pub wakeups: u64,
}

impl Delta {
    pub fn between(a: &Snapshot, b: &Snapshot) -> Self {
        let dispatches = b.dispatch.count() - a.dispatch.count();
        let dispatch_sum = b.dispatch.sum() - a.dispatch.sum();
        let report_hits = b.agg.report_cache_hits - a.agg.report_cache_hits;
        let vendor_hits = b.agg.vendor_cache_hits - a.agg.vendor_cache_hits;
        Delta {
            report_hits,
            report_lookups: report_hits + b.agg.report_cache_misses - a.agg.report_cache_misses,
            vendor_hits,
            vendor_lookups: vendor_hits + b.agg.vendor_cache_misses - a.agg.vendor_cache_misses,
            dispatch_mean_us: dispatch_sum as f64 / dispatches.max(1) as f64,
            wakeups: b.wakeups - a.wakeups,
        }
    }
}

/// `hits / lookups`, or 0 when nothing was looked up.
pub fn ratio(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// Requests whose spans the trace file keeps.
const SPAN_FILE_REQUESTS: usize = 10_000;

/// Write the named metrics and the spans as one JSON document.
pub fn write_trace_file(
    path: &Path,
    metrics: &BTreeMap<String, (f64, String)>,
    replay: &Replay,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"metrics\": {{")?;
    let mut first = true;
    for (name, (value, unit)) in metrics {
        let sep = if first { "" } else { ",\n" };
        first = false;
        write!(
            out,
            "{sep}  \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        )?;
    }
    // The metrics above cover every request; the file keeps the spans of
    // the first requests only, so that it stays a few megabytes.
    let spans: Vec<&Span> =
        replay.spans.iter().filter(|s| (s.request as usize) < SPAN_FILE_REQUESTS).collect();
    writeln!(out, "\n}},\n\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let (kind, _) = replay.requests[s.request as usize];
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"kind\":\"{kind}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// A JSON number with all its digits; non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    crate::stack::out_root().join(format!("trace-{workload}-seed{seed}.json"))
}
