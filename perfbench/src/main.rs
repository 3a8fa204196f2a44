//! The `softrep-serverd` benchmark: assembles the server stack
//! in-process, drives it over loopback with one of three workloads, checks
//! every answer, and prints each metric by name and unit. The last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! softrep-perfbench --workload lookup|vote_ingest|replica_catchup
//!                   --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics. See README.md.

mod counting;
mod drive;
mod framed;
mod replica;
mod stack;
mod stats;
mod trace;

use std::collections::BTreeMap;

#[global_allocator]
static GLOBAL: counting::CountingAlloc = counting::CountingAlloc;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("latency_p50_us", "us"), ("throughput_per_s", "1/s")];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("proto.request_encode_us", "us"),
    ("proto.request_decode_us", "us"),
    ("proto.response_encode_us", "us"),
    ("proto.response_decode_us", "us"),
    ("proto.response_bytes_p50", "bytes"),
    ("proto.response_bytes_p99", "bytes"),
    ("proto.allocs_per_request", "count"),
    ("server.handle_us", "us"),
    ("server.stage_sum_us", "us"),
    ("server.frontend_residual_us", "us"),
    ("server.reactor_dispatch_us", "us"),
    ("server.reactor_wakeups_per_request", "count"),
    ("server.flood_rejected", "count"),
    ("server.metrics_text_us", "us"),
    ("server.web_render_us", "us"),
    ("server.web_get_p50_us", "us"),
    ("server.web_accept_wait_us", "us"),
    ("server.repl_pages", "count"),
    ("core.report_cache_hit_ratio", "ratio"),
    ("core.report_cache_lookups", "count"),
    ("core.vendor_cache_hit_ratio", "ratio"),
    ("core.vendor_cache_lookups", "count"),
    ("core.agg_pass_ms", "ms"),
    ("core.agg_pass_titles", "count"),
    ("core.agg_us_per_title", "us"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_bytes_per_write", "bytes"),
    ("storage.fsync_us", "us"),
    ("storage.fsyncs_per_commit", "count"),
    ("storage.group_depth_max", "count"),
    ("storage.open_replay_s", "s"),
    ("storage.repl_read_ms", "ms"),
    ("storage.repl_read_bytes_per_entry", "bytes"),
    ("loopback.p50_us", "us"),
    ("loopback.p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports. `metrics` must hold every name of the list the
/// run's mode reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match cfg.workload.as_str() {
        "lookup" => framed::run::<framed::Lookup>(&cfg),
        "vote_ingest" => framed::run::<framed::VoteIngest>(&cfg),
        "replica_catchup" => replica::run(&cfg),
        other => {
            eprintln!("error: unknown workload {other} (lookup, vote_ingest, replica_catchup)");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir(stack::out_root().join("data"));
    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in wanted {
        let value = *outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload {} did not measure {name}", cfg.workload));
        println!("metric {name} = {value} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            trace::json_num(value)
        ));
    }
    let correct = outcome.correct && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
