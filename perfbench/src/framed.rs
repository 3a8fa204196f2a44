//! The two framed-protocol workloads, `lookup` and `vote_ingest`, and the
//! harness they share: set-up, the open-loop and closed-loop phases, the
//! answer checks, and the traced run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use softrep_core::db::ReputationDb;
use softrep_proto::Request;
use softrep_server::ReputationServer;
use softrep_storage::vfs::Vfs;
use softrep_storage::{DurabilityMode, Store};

use crate::counting::{self, CountingVfs, VfsCounters};
use crate::drive::{self, Class, Expect, Gen, Op, PagePicker, Tally};
use crate::stack::{self, Catalog, DataDir, Listeners};
use crate::stats::{self, median_of, Samples, SplitMix, Zipf};
use crate::trace::{self, Delta, Snapshot};
use crate::{Config, Outcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Framed connections in the closed-loop phase (the generator's thread
/// budget: two cores on the reference machine).
pub const CLOSED_CONNECTIONS: usize = 2;
/// Streams a workload's users are partitioned over: the open-loop
/// stream plus the closed-loop ones.
const STREAMS: u64 = 1 + CLOSED_CONNECTIONS as u64;
/// Open-loop/closed-loop round pairs a run alternates through.
const ROUNDS: usize = 5;

/// A framed workload: its data, its request stream and its checks.
pub trait Framed {
    type G: Gen + 'static;
    const NAME: &'static str;
    /// Framed requests per second offered on the open-loop connection.
    const OPEN_RATE: f64;
    /// Web page GETs per second (Poisson) beside the open loop; `/metrics`
    /// is scraped once a second regardless.
    const PAGE_RATE: f64;
    /// Durability the store is reopened with after seeding.
    const DURABILITY: DurabilityMode;
    /// Run an incremental aggregation pass once a second.
    const AGGREGATE_EVERY_SECOND: bool;
    /// Log every member in during set-up.
    const LOGIN: bool;
    /// The class the end-to-end latency and throughput report.
    const PRIMARY: Class;

    fn seed_data(db: &ReputationDb, catalog: &mut Catalog, rng: &mut SplitMix);
    fn stream(env: &Env, seed: u64, stream: u64) -> Self::G;
    fn page(_env: &Env, _rng: &mut SplitMix) -> (String, &'static str) {
        ("/".to_string(), "get_front")
    }
    /// Checks after the load; returns (checked, failed).
    fn post_check(_env: &Env, _streams: &[Self::G], _seed: u64) -> (u64, u64) {
        (0, 0)
    }
}

/// A running stack plus what set-up wrote into it.
pub struct Env {
    pub server: Arc<ReputationServer>,
    pub listeners: Listeners,
    pub catalog: Catalog,
    pub sessions: Vec<String>,
    pub open_replay_s: f64,
    /// The set-up aggregation pass: (ms, titles).
    pub setup_agg: (f64, usize),
    /// Holds the store's directory until the stack is dropped.
    _dir: DataDir,
}

impl Env {
    pub fn store(&self) -> &Arc<Store> {
        self.server.db().store()
    }

    pub fn shutdown(self) {
        self.listeners.shutdown();
    }
}

/// Open a fresh file-backed store under `os`, seed it through the
/// `ReputationDb` API, aggregate, sync, then reopen it (replaying the
/// WAL) with the workload's durability, start the listeners and wait for
/// the first answer.
pub fn build_env(
    label: &str,
    seed: u64,
    vfs: Option<Arc<dyn Vfs>>,
    durability: DurabilityMode,
    seed_data: impl FnOnce(&ReputationDb, &mut Catalog, &mut SplitMix),
) -> Env {
    let dir = DataDir::new(label).expect("create the data directory");
    let mut rng = SplitMix::new(seed ^ 0x5EED);
    let mut catalog = Catalog::default();
    let setup_agg = {
        let store = stack::open_store(dir.path(), DurabilityMode::Os, vfs.clone());
        let db = stack::db(store);
        seed_data(&db, &mut catalog, &mut rng);
        let t0 = stats::now();
        let titles = db.force_aggregation_incremental(stack::now()).expect("set-up aggregation");
        let ms = (stats::now() - t0).as_secs_f64() * 1e3;
        db.store().sync().expect("sync the seeded store");
        (ms, titles)
    };
    let t0 = stats::now();
    let store = stack::open_store(dir.path(), durability, vfs);
    let open_replay_s = (stats::now() - t0).as_secs_f64();
    let server = stack::assemble(store, seed);
    let listeners = Listeners::spawn(&server);
    stack::first_answer(listeners.addr(), &catalog.ids[0]);
    Env { server, listeners, catalog, sessions: Vec::new(), open_replay_s, setup_agg, _dir: dir }
}

fn build<W: Framed>(seed: u64, vfs: Option<Arc<dyn Vfs>>) -> Env {
    let mut env = build_env(W::NAME, seed, vfs, W::DURABILITY, W::seed_data);
    if W::LOGIN {
        for user in &env.catalog.users {
            let reply = env
                .server
                .handle(&Request::Login { username: user.clone(), password: "pw".into() }, "setup");
            let softrep_proto::Response::Session { token } = reply else {
                panic!("set-up login failed: {reply:?}")
            };
            env.sessions.push(token);
        }
    }
    env
}

/// Repeat set-up [`SETUPS`] times, keep the last stack, return it with
/// the median set-up time.
fn timed_setups<W: Framed>(seed: u64) -> (Env, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let t0 = stats::now();
        let env = build::<W>(seed, None);
        times.push((stats::now() - t0).as_secs_f64());
        if times.len() == SETUPS {
            return (env, times);
        }
        env.shutdown();
    }
}

/// The server's maintenance thread as the benchmark runs it: one
/// incremental aggregation pass a second, each timed.
pub struct Maintenance {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, usize)>>,
}

impl Maintenance {
    pub fn start(server: &Arc<ReputationServer>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, server) = (Arc::clone(&stop), Arc::clone(server));
        let handle = std::thread::spawn(move || {
            let mut passes = Vec::new();
            let mut next = stats::now() + Duration::from_secs(1);
            while !flag.load(Ordering::Relaxed) {
                if stats::now() < next {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                next += Duration::from_secs(1);
                let t0 = stats::now();
                let titles = server
                    .db()
                    .force_aggregation_incremental(stack::now())
                    .expect("incremental aggregation pass");
                passes.push(((stats::now() - t0).as_secs_f64() * 1e3, titles));
            }
            passes
        });
        Maintenance { stop, handle }
    }

    pub fn finish(self) -> Vec<(f64, usize)> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("maintenance thread panicked")
    }
}

/// One open-loop phase: the framed stream on one connection and the
/// browser/scraper on a second thread, concurrently.
fn open_phase<W: Framed>(env: &Env, gen: &mut W::G, dur: Duration, seed: u64) -> (Tally, Tally) {
    let (addr, web) = (env.listeners.addr(), env.listeners.web_addr());
    std::thread::scope(|s| {
        let web_thread = s.spawn(move || {
            let mut rng = SplitMix::new(seed ^ 0x3EB);
            let mut pages = |rng: &mut SplitMix| W::page(env, rng);
            drive::web_loop(web, &mut pages as &mut PagePicker<'_>, W::PAGE_RATE, dur, &mut rng)
        });
        let framed = drive::open_loop(addr, gen, W::OPEN_RATE, dur);
        (framed, web_thread.join().expect("web thread panicked"))
    })
}

fn warm_up<W: Framed>(env: &Env, gen: W::G) -> W::G {
    let (_, mut gens) =
        drive::closed_loop(env.listeners.addr(), vec![gen], Duration::from_millis(500));
    gens.pop().expect("warm-up returns its stream")
}

fn print_latency(name: &str, s: &mut Samples) {
    if let (Some(p50), Some(p99)) = (s.median(), s.percentile(99.0)) {
        println!("{name}_p50_us = {p50:.2} us (n={}); {name}_p99_us = {p99:.2} us", s.len());
    }
}

pub fn run<W: Framed>(cfg: &Config) -> Outcome {
    if cfg.trace {
        return run_traced::<W>(cfg);
    }
    let (env, setups) = timed_setups::<W>(cfg.seed);
    println!("set-up times (s): {setups:?}");
    // The open and closed loops alternate in short rounds, so that the
    // host's slow spells, seconds long, fall on both and on many windows.
    let chunk = Duration::from_secs_f64(cfg.seconds / (2 * ROUNDS) as f64);
    let mut open_gen = warm_up::<W>(&env, W::stream(&env, cfg.seed, 0));
    let mut closed_gens: Vec<W::G> = (1..STREAMS).map(|k| W::stream(&env, cfg.seed, k)).collect();
    let maintenance = W::AGGREGATE_EVERY_SECOND.then(|| Maintenance::start(&env.server));
    let (mut open, mut web, mut closed) = (Tally::default(), Tally::default(), Tally::default());
    for round in 0..ROUNDS as u64 {
        let (o, w) = open_phase::<W>(&env, &mut open_gen, chunk, cfg.seed ^ round << 48);
        open.then(o);
        web.then(w);
        let (c, gens) = drive::closed_loop(env.listeners.addr(), closed_gens, chunk);
        closed_gens = gens;
        closed.then(c);
    }
    let passes = maintenance.map(Maintenance::finish).unwrap_or_default();
    open.print_phase("open-loop framed");
    web.print_phase("open-loop web");
    closed.print_phase("closed-loop framed");

    let mut streams = vec![open_gen];
    streams.extend(closed_gens);
    let (checked, check_failed) = W::post_check(&env, &streams, cfg.seed);
    let attempted = open.attempted + web.attempted + closed.attempted + checked;
    let failed = open.failed + web.failed + closed.failed + check_failed;
    println!("error_rate = {} ratio ({failed} of {attempted})", failed as f64 / attempted as f64);

    print_latency("query", open.lat(Class::Query));
    print_latency("vote", open.lat(Class::Write));
    let mut web_all = Samples::new();
    web_all.extend(web.lat(Class::Web));
    web_all.extend(web.lat(Class::Scrape));
    print_latency("web", &mut web_all);
    println!("query_rps = {:.1} 1/s", closed.windowed_rate(Class::Query));
    println!("vote_rps = {:.1} 1/s", closed.windowed_rate(Class::Write));
    if !passes.is_empty() {
        let ms: Vec<f64> = passes.iter().map(|p| p.0).collect();
        println!("agg_pass_ms = {:.3} ms (n={})", median_of(&ms).unwrap_or(0.0), ms.len());
    }

    let primary = open.lat(W::PRIMARY);
    let metrics = BTreeMap::from([
        ("setup_s", median_of(&setups).unwrap_or(0.0)),
        ("latency_p50_us", primary.median().unwrap_or(0.0)),
        ("throughput_per_s", closed.windowed_rate(W::PRIMARY)),
    ]);
    env.shutdown();
    Outcome { correct: check_failed == 0, attempted, failed, metrics }
}

/// Storage counters of one window, from the counting VFS.
pub struct StorageWindow {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_us: Samples,
    pub syncs: u64,
    pub sync_us: Samples,
}

impl StorageWindow {
    /// Take what the counters hold and reset them.
    pub fn drain(c: &VfsCounters) -> Self {
        let to_us = |v: Vec<u64>| {
            let mut s = Samples::new();
            for ns in v {
                s.push(ns as f64 / 1e3);
            }
            s
        };
        let take = |m: &std::sync::Mutex<Vec<u64>>| {
            std::mem::take(&mut *m.lock().expect("counter lock poisoned by a panicking thread"))
        };
        StorageWindow {
            appends: c.appends.swap(0, Ordering::Relaxed),
            append_bytes: c.append_bytes.swap(0, Ordering::Relaxed),
            append_us: to_us(take(&c.append_ns)),
            syncs: c.syncs.swap(0, Ordering::Relaxed),
            sync_us: to_us(take(&c.sync_ns)),
        }
    }
}

/// The two loopback windows of a traced run: counters off, then on.
pub struct Windows {
    pub plain: Tally,
    pub plain_web: Tally,
    pub traced: Tally,
    pub traced_web: Tally,
    /// Registry and cache counters across the traced window.
    pub delta: Delta,
    pub traced_io: StorageWindow,
}

impl Windows {
    /// Requests attempted and failed in both windows.
    pub fn counts(&self) -> (u64, u64) {
        let all = [&self.plain, &self.plain_web, &self.traced, &self.traced_web];
        (all.iter().map(|t| t.attempted).sum(), all.iter().map(|t| t.failed).sum())
    }
}

/// Run `phase` (framed and web tallies for a seed) with every counter off,
/// then again with the counting `Vfs`, the counting allocator and the
/// registry snapshots on; the difference is the tracing overhead.
pub fn counted_windows(
    server: &ReputationServer,
    counters: &VfsCounters,
    seed: u64,
    mut phase: impl FnMut(u64) -> (Tally, Tally),
) -> Windows {
    let (mut plain, plain_web) = phase(seed);
    plain.print_phase("open loop, counters off");
    let before = Snapshot::take(server);
    counters.set_on(true);
    counting::ALLOC_COUNTING.store(true, Ordering::Relaxed);
    let (mut traced, traced_web) = phase(seed ^ 1);
    counting::ALLOC_COUNTING.store(false, Ordering::Relaxed);
    counters.set_on(false);
    let delta = Delta::between(&before, &Snapshot::take(server));
    traced.print_phase("open loop, counters on");
    Windows {
        plain,
        plain_web,
        traced,
        traced_web,
        delta,
        traced_io: StorageWindow::drain(counters),
    }
}

/// The per-layer metrics every traced run reports from the same kinds of
/// windows; the workload-specific parts are filled in by the caller.
pub struct TraceParts<'a> {
    pub server: &'a ReputationServer,
    pub store: &'a Store,
    pub counters: &'a VfsCounters,
    pub replay: &'a trace::Replay,
    pub primary: Class,
    pub windows: Windows,
    /// Set-up storage counters.
    pub setup_io: StorageWindow,
    /// Process-wide allocations per framed request on a warm connection.
    pub allocs_per_request: f64,
    pub web_paths: Vec<String>,
    pub web_get_p50: f64,
    pub agg: (f64, f64),
    pub open_replay_s: f64,
    pub repl_pages: u64,
}

/// Fill `m` with the per-layer metrics common to all workloads, print the
/// reconciliation, and return the extra named metrics for the trace file.
pub fn layer_metrics(
    p: TraceParts<'_>,
    m: &mut BTreeMap<&'static str, f64>,
) -> BTreeMap<String, (f64, String)> {
    let mut extra: BTreeMap<String, (f64, String)> = BTreeMap::new();
    let Windows { mut plain, mut traced, delta, traced_io, .. } = p.windows;
    let loop_p50 = plain.lat(p.primary).median().unwrap_or(0.0);
    let loop_p99 = plain.lat(p.primary).percentile(99.0).unwrap_or(0.0);
    let traced_p50 = traced.lat(p.primary).median().unwrap_or(0.0);
    let stage = |name: &str, class: Option<Class>| {
        p.replay.stage_us(name, class, None).median().unwrap_or(0.0)
    };
    m.insert("proto.request_encode_us", stage("proto.request_encode", None));
    m.insert("proto.request_decode_us", stage("proto.request_decode", None));
    m.insert("proto.response_encode_us", stage("proto.response_encode", None));
    m.insert("proto.response_decode_us", stage("proto.response_decode", None));
    let mut bytes = Samples::new();
    for &n in &p.replay.response_bytes {
        bytes.push(n as f64);
    }
    let p99_bytes = bytes.percentile(99.0).unwrap_or(0.0);
    m.insert("proto.response_bytes_p50", bytes.median().unwrap_or(0.0));
    m.insert("proto.response_bytes_p99", p99_bytes);
    // The largest responses (full reports on lookup), decoded on their own.
    let mut largest = p.replay.stage_us_where("proto.response_decode", |request, _, _| {
        p.replay.response_bytes[request] as f64 >= p99_bytes
    });
    let largest_decode = largest.median().unwrap_or(0.0);
    println!(
        "largest responses (>= {p99_bytes} bytes): response decode p50 {largest_decode:.2} us (n={})",
        largest.len()
    );
    extra.insert("proto.response_decode_us.largest".into(), (largest_decode, "us".into()));
    m.insert("proto.allocs_per_request", p.allocs_per_request);
    m.insert("server.handle_us", stage("server.handle", None));
    for kind in p.replay.kinds() {
        for st in trace::STAGES {
            let v = p.replay.stage_us(st, None, Some(kind)).median().unwrap_or(0.0);
            extra.insert(format!("{st}_us.{kind}"), (v, "us".into()));
        }
    }

    // Reconciliation of the primary class: stage medians against the
    // loopback median.
    let stage_sum: f64 = trace::STAGES.iter().map(|s| stage(s, Some(p.primary))).sum();
    m.insert("server.stage_sum_us", stage_sum);
    m.insert("server.frontend_residual_us", loop_p50 - stage_sum);
    println!(
        "reconciliation ({} requests): loopback p50 {:.2} us = stage sum {stage_sum:.2} us + frontend residual {:.2} us",
        p.primary.name(),
        loop_p50,
        loop_p50 - stage_sum
    );
    for st in trace::STAGES {
        let v = stage(st, Some(p.primary));
        println!("  {st}: {v:.3} us = {:.1} % of loopback p50", 100.0 * v / loop_p50.max(1e-9));
    }
    println!(
        "tracing overhead: loopback p50 {:.2} us with counters on vs {:.2} us off (ratio {:.3})",
        traced_p50,
        loop_p50,
        traced_p50 / loop_p50.max(1e-9)
    );

    m.insert("server.reactor_dispatch_us", delta.dispatch_mean_us);
    m.insert(
        "server.reactor_wakeups_per_request",
        delta.wakeups as f64 / traced.attempted.max(1) as f64,
    );
    m.insert("server.flood_rejected", p.server.flood_guard().stats().rejected as f64);

    let mut metrics_us = Samples::new();
    for _ in 0..20 {
        let t0 = stats::now();
        std::hint::black_box(p.server.metrics_text());
        metrics_us.push(stats::us(stats::now() - t0));
    }
    m.insert("server.metrics_text_us", metrics_us.median().unwrap_or(0.0));
    let mut render_us = Samples::new();
    for path in &p.web_paths {
        let t0 = stats::now();
        std::hint::black_box(softrep_server::web::render(p.server, path));
        render_us.push(stats::us(stats::now() - t0));
    }
    let render = render_us.median().unwrap_or(0.0);
    m.insert("server.web_render_us", render);
    m.insert("server.web_get_p50_us", p.web_get_p50);
    m.insert("server.web_accept_wait_us", p.web_get_p50 - render);
    m.insert("server.repl_pages", p.repl_pages as f64);

    m.insert("core.report_cache_hit_ratio", trace::ratio(delta.report_hits, delta.report_lookups));
    m.insert("core.report_cache_lookups", delta.report_lookups as f64);
    m.insert("core.vendor_cache_hit_ratio", trace::ratio(delta.vendor_hits, delta.vendor_lookups));
    m.insert("core.vendor_cache_lookups", delta.vendor_lookups as f64);
    println!(
        "caches: report {} hits of {} lookups, vendor {} hits of {} lookups",
        delta.report_hits, delta.report_lookups, delta.vendor_hits, delta.vendor_lookups
    );
    m.insert("core.agg_pass_ms", p.agg.0);
    m.insert("core.agg_pass_titles", p.agg.1);
    m.insert("core.agg_us_per_title", p.agg.0 * 1e3 / p.agg.1.max(1.0));

    // Storage: the traced window when it wrote, else set-up.
    let (mut io, window) =
        if traced_io.appends > 0 { (traced_io, "traced window") } else { (p.setup_io, "set-up") };
    // Every commit is one WAL append.
    println!(
        "storage ({window}): {} commits, {} bytes appended, {} fsyncs",
        io.appends, io.append_bytes, io.syncs
    );
    m.insert("storage.wal_append_us", io.append_us.median().unwrap_or(0.0));
    m.insert("storage.wal_bytes_per_write", io.append_bytes as f64 / io.appends.max(1) as f64);
    m.insert("storage.fsync_us", io.sync_us.median().unwrap_or(0.0));
    m.insert("storage.fsyncs_per_commit", io.syncs as f64 / io.appends.max(1) as f64);
    m.insert("storage.group_depth_max", p.store.stats().max_group_depth as f64);
    m.insert("storage.open_replay_s", p.open_replay_s);

    // Replication reads at the start, middle and end of this store's log.
    let committed = p.store.committed_seq();
    let mut read_ms = Vec::new();
    let (bytes0, mut entries) = (p.counters.read_bytes(), 0usize);
    p.counters.set_on(true);
    for (label, from) in
        [("start", 0), ("middle", committed / 2), ("end", committed.saturating_sub(256))]
    {
        let t0 = stats::now();
        let read = p.store.replication_read(from, 256, 128 * 1024).expect("replication read");
        let ms = (stats::now() - t0).as_secs_f64() * 1e3;
        let n = match read {
            softrep_storage::ReplRead::Entries { entries, .. } => entries.len(),
            softrep_storage::ReplRead::SnapshotNeeded { .. } => 0,
        };
        entries += n;
        println!(
            "replication_read at {label} (from seq {from} of {committed}): {ms:.3} ms, {n} entries"
        );
        extra.insert(format!("storage.repl_read_ms.{label}"), (ms, "ms".into()));
        read_ms.push(ms);
    }
    p.counters.set_on(false);
    m.insert("storage.repl_read_ms", median_of(&read_ms).unwrap_or(0.0));
    m.insert(
        "storage.repl_read_bytes_per_entry",
        (p.counters.read_bytes() - bytes0) as f64 / entries.max(1) as f64,
    );

    m.insert("loopback.p50_us", loop_p50);
    m.insert("loopback.p99_us", loop_p99);
    m.insert("trace.overhead_ratio", traced_p50 / loop_p50.max(1e-9));
    extra
}

/// Write the trace file: every per-layer metric plus the extra named
/// ones, and the spans.
pub fn finish_trace(
    cfg: &Config,
    m: &BTreeMap<&'static str, f64>,
    mut extra: BTreeMap<String, (f64, String)>,
    replay: &trace::Replay,
) {
    for (name, unit) in crate::PER_LAYER {
        if let Some(v) = m.get(name) {
            extra.insert(name.to_string(), (*v, unit.to_string()));
        }
    }
    let path = trace::trace_path(&cfg.workload, cfg.seed);
    match trace::write_trace_file(&path, &extra, replay) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write the trace file {}: {e}", path.display()),
    }
}

fn run_traced<W: Framed>(cfg: &Config) -> Outcome {
    let vfs = Arc::new(CountingVfs::new());
    let counters = Arc::clone(&vfs.counters);
    counters.set_on(true);
    let t0 = stats::now();
    let env = build::<W>(cfg.seed, Some(vfs as Arc<dyn Vfs>));
    println!("set-up {:.3} s (counters on)", (stats::now() - t0).as_secs_f64());
    counters.set_on(false);
    let setup_io = StorageWindow::drain(&counters);
    let quarter = Duration::from_secs_f64(cfg.seconds / 4.0);

    let mut gen = warm_up::<W>(&env, W::stream(&env, cfg.seed, 0));
    let maintenance = W::AGGREGATE_EVERY_SECOND.then(|| Maintenance::start(&env.server));
    let mut w = counted_windows(&env.server, &counters, cfg.seed, |seed| {
        open_phase::<W>(&env, &mut gen, quarter, seed)
    });
    let passes = maintenance.map(Maintenance::finish).unwrap_or_default();

    let mut probe = Tally::default();
    let mut replay_gen = W::stream(&env, cfg.seed, 0);
    let replay = trace::replay(&env.server, &mut replay_gen, quarter, 200);
    println!(
        "in-process replay: {} requests, {} failed, {:.1} allocations per request",
        replay.attempted,
        replay.failed,
        replay.allocs as f64 / replay.attempted.max(1) as f64
    );

    let mut web_all = Samples::new();
    web_all.extend(w.plain_web.lat(Class::Web));
    web_all.extend(w.plain_web.lat(Class::Scrape));
    let mut rng = SplitMix::new(cfg.seed ^ 0x3EB);
    let mut web_paths: Vec<String> = Vec::new();
    if W::PAGE_RATE > 0.0 {
        web_paths.extend((0..200).map(|_| W::page(&env, &mut rng).0));
    }
    web_paths.extend((0..20).map(|_| "/metrics".to_string()));

    let agg = if passes.is_empty() {
        (env.setup_agg.0, env.setup_agg.1 as f64)
    } else {
        let ms: Vec<f64> = passes.iter().map(|p| p.0).collect();
        let titles: Vec<f64> = passes.iter().map(|p| p.1 as f64).collect();
        (median_of(&ms).unwrap_or(0.0), median_of(&titles).unwrap_or(0.0))
    };
    let allocs_per_request = drive::alloc_probe(env.listeners.addr(), &mut gen, 2_000, &mut probe);
    let (attempted, failed) = w.counts();
    let attempted = attempted + probe.attempted + replay.attempted;
    let failed = failed + probe.failed + replay.failed;
    let mut m = BTreeMap::new();
    let parts = TraceParts {
        server: &env.server,
        store: env.store(),
        counters: &counters,
        replay: &replay,
        primary: W::PRIMARY,
        windows: w,
        setup_io,
        allocs_per_request,
        web_paths,
        web_get_p50: web_all.median().unwrap_or(0.0),
        agg,
        open_replay_s: env.open_replay_s,
        repl_pages: 0,
    };
    let extra = layer_metrics(parts, &mut m);
    finish_trace(cfg, &m, extra, &replay);
    env.shutdown();
    Outcome { correct: true, attempted, failed, metrics: m }
}

// ---------------------------------------------------------------------
// lookup
// ---------------------------------------------------------------------

/// `lookup`: the execution-time query path.
pub struct Lookup;

const LOOKUP_TITLES: usize = 45_000;
const LOOKUP_VENDORS: usize = 300;
const LOOKUP_USERS: usize = 200;
const LOOKUP_VOTES: usize = 30_000;
const LOOKUP_COMMENTS: usize = 3_000;
const CATALOG_SALT: u64 = 0xC47A_1060;
const UNKNOWN_SALT: u64 = 0x0DD_1D5;

/// The lookup request stream.
pub struct LookupGen {
    rng: SplitMix,
    ids: Vec<String>,
    /// Vendor name and seeded title count.
    vendors: Vec<(String, u64)>,
    titles: Zipf,
    vendor_zipf: Zipf,
}

impl Gen for LookupGen {
    fn next(&mut self) -> Op {
        let roll = self.rng.below(100);
        if roll < 90 {
            let id = self.ids[self.titles.sample(&mut self.rng)].clone();
            Op {
                class: Class::Query,
                kind: "query_software",
                request: Request::QuerySoftware { software_id: id.clone() },
                expect: Expect::Software(id),
            }
        } else if roll < 95 {
            let id = stack::sw_id(UNKNOWN_SALT, self.rng.next_u64());
            Op {
                class: Class::Query,
                kind: "query_unknown",
                request: Request::QuerySoftware { software_id: id.clone() },
                expect: Expect::Unknown(id),
            }
        } else {
            let (vendor, titles) = self.vendors[self.vendor_zipf.sample(&mut self.rng)].clone();
            Op {
                class: Class::Query,
                kind: "query_vendor",
                request: Request::QueryVendor { vendor: vendor.clone() },
                expect: Expect::Vendor(vendor, titles),
            }
        }
    }
}

impl Framed for Lookup {
    type G = LookupGen;
    const NAME: &'static str = "lookup";
    const OPEN_RATE: f64 = 4_000.0;
    const PAGE_RATE: f64 = 5.0;
    const DURABILITY: DurabilityMode = DurabilityMode::Os;
    const AGGREGATE_EVERY_SECOND: bool = false;
    const LOGIN: bool = false;
    const PRIMARY: Class = Class::Query;

    fn seed_data(db: &ReputationDb, catalog: &mut Catalog, rng: &mut SplitMix) {
        stack::seed_users(db, catalog, LOOKUP_USERS, rng);
        stack::seed_titles(db, catalog, CATALOG_SALT, LOOKUP_TITLES, LOOKUP_VENDORS, rng);
        let popularity = Zipf::new(LOOKUP_TITLES, 0.8);
        let t = stack::now();
        for _ in 0..LOOKUP_VOTES {
            let user = &catalog.users[rng.below(LOOKUP_USERS as u64) as usize];
            let id = &catalog.ids[popularity.sample(rng)];
            let behaviours = stack::behaviours(rng);
            db.submit_vote(user, id, 1 + rng.below(10) as u8, behaviours, t).expect("seed a vote");
        }
        for _ in 0..LOOKUP_COMMENTS {
            let user = &catalog.users[rng.below(LOOKUP_USERS as u64) as usize];
            let id = &catalog.ids[popularity.sample(rng)];
            db.submit_comment(user, id, stack::COMMENT, t).expect("seed a comment");
        }
    }

    fn stream(env: &Env, seed: u64, stream: u64) -> LookupGen {
        let cat = &env.catalog;
        LookupGen {
            rng: SplitMix::new(seed ^ (stream << 32) ^ 0x100C),
            ids: cat.ids.clone(),
            vendors: (cat.vendor_titles.iter().enumerate())
                .map(|(v, &n)| (stack::vendor_name(v), n))
                .collect(),
            titles: Zipf::new(cat.ids.len(), 1.0),
            vendor_zipf: Zipf::new(cat.vendors(), 1.0),
        }
    }

    fn page(env: &Env, rng: &mut SplitMix) -> (String, &'static str) {
        let cat = &env.catalog;
        match rng.below(10) {
            0..=3 => {
                let i = (rng.below(4096)) as usize % cat.ids.len();
                (format!("/software/{}", cat.ids[i]), "get_software")
            }
            4 | 5 => (format!("/search?q=app{}", 100 + rng.below(900)), "get_search"),
            6 | 7 => (
                format!("/vendor/{}", stack::vendor_name(rng.below(cat.vendors() as u64) as usize)),
                "get_vendor",
            ),
            _ => ("/".to_string(), "get_front"),
        }
    }
}

// ---------------------------------------------------------------------
// vote_ingest
// ---------------------------------------------------------------------

/// `vote_ingest`: durable writes beside reads.
pub struct VoteIngest;

const VOTE_TITLES: usize = 2_000;
const VOTE_VENDORS: usize = 50;
const VOTE_USERS: usize = 600;
const VOTE_SEED_VOTES: usize = 20_000;
const VOTE_SEED_COMMENTS: usize = 1_000;
const NEW_TITLE_SALT: u64 = 0x4E_3717;
/// Recent votes a read-back query picks from.
const RECENT: usize = 64;

/// The vote_ingest request stream. Stream `k` owns the members whose
/// index is `k` modulo the stream count, so the last acknowledged vote
/// of every (member, title) pair is well defined.
pub struct VoteGen {
    rng: SplitMix,
    stream: u64,
    users: Vec<(usize, String)>,
    ids: Vec<String>,
    titles: Zipf,
    recent: std::collections::VecDeque<String>,
    new_titles: u64,
    /// Last acknowledged score per (member index, title index).
    pub last_votes: BTreeMap<(usize, usize), u8>,
    pending: Option<(usize, usize, u8)>,
}

impl Gen for VoteGen {
    fn next(&mut self) -> Op {
        self.pending = None;
        let roll = self.rng.below(100);
        if roll < 15 && !self.recent.is_empty() {
            let id = self.recent[self.rng.below(self.recent.len() as u64) as usize].clone();
            return Op {
                class: Class::Query,
                kind: "query_software",
                request: Request::QuerySoftware { software_id: id.clone() },
                expect: Expect::Software(id),
            };
        }
        let (u, session) = self.users[self.rng.below(self.users.len() as u64) as usize].clone();
        if roll < 20 {
            self.new_titles += 1;
            let id = stack::sw_id(NEW_TITLE_SALT ^ self.stream << 40, self.new_titles);
            return Op {
                class: Class::Write,
                kind: "register_software",
                request: Request::RegisterSoftware {
                    software_id: id,
                    file_name: format!("new{}.exe", self.new_titles),
                    file_size: 4096,
                    company: Some(stack::vendor_name(self.rng.below(VOTE_VENDORS as u64) as usize)),
                    version: Some("1.0".into()),
                },
                expect: Expect::Ok,
            };
        }
        let t = self.titles.sample(&mut self.rng);
        let id = self.ids[t].clone();
        if roll < 30 {
            return Op {
                class: Class::Write,
                kind: "submit_comment",
                request: Request::SubmitComment {
                    session,
                    software_id: id,
                    text: stack::COMMENT.to_string(),
                },
                expect: Expect::Ok,
            };
        }
        let score = 1 + self.rng.below(10) as u8;
        self.pending = Some((u, t, score));
        Op {
            class: Class::Write,
            kind: "submit_vote",
            request: Request::SubmitVote {
                session,
                software_id: id,
                score,
                behaviours: stack::behaviours(&mut self.rng),
            },
            expect: Expect::Ok,
        }
    }

    fn acked(&mut self, op: &Op) {
        if let (Some((u, t, score)), Request::SubmitVote { software_id, .. }) =
            (self.pending.take(), &op.request)
        {
            self.last_votes.insert((u, t), score);
            if self.recent.len() == RECENT {
                self.recent.pop_front();
            }
            self.recent.push_back(software_id.clone());
        }
    }
}

impl Framed for VoteIngest {
    type G = VoteGen;
    const NAME: &'static str = "vote_ingest";
    // Far below one connection's capacity (about 3 000 writes/s): a slow
    // spell of the disk's fsync must not tip the open loop into a growing
    // queue.
    const OPEN_RATE: f64 = 500.0;
    const PAGE_RATE: f64 = 0.0;
    const DURABILITY: DurabilityMode = DurabilityMode::Always;
    const AGGREGATE_EVERY_SECOND: bool = true;
    const LOGIN: bool = true;
    const PRIMARY: Class = Class::Write;

    fn seed_data(db: &ReputationDb, catalog: &mut Catalog, rng: &mut SplitMix) {
        stack::seed_users(db, catalog, VOTE_USERS, rng);
        stack::seed_titles(db, catalog, CATALOG_SALT, VOTE_TITLES, VOTE_VENDORS, rng);
        let popularity = Zipf::new(VOTE_TITLES, 0.8);
        let t = stack::now();
        for _ in 0..VOTE_SEED_VOTES {
            let user = &catalog.users[rng.below(VOTE_USERS as u64) as usize];
            let id = &catalog.ids[popularity.sample(rng)];
            db.submit_vote(user, id, 1 + rng.below(10) as u8, stack::behaviours(rng), t)
                .expect("seed a vote");
        }
        for _ in 0..VOTE_SEED_COMMENTS {
            let user = &catalog.users[rng.below(VOTE_USERS as u64) as usize];
            let id = &catalog.ids[popularity.sample(rng)];
            db.submit_comment(user, id, stack::COMMENT, t).expect("seed a comment");
        }
    }

    fn stream(env: &Env, seed: u64, stream: u64) -> VoteGen {
        let users = (0..env.catalog.users.len())
            .filter(|u| *u as u64 % STREAMS == stream)
            .map(|u| (u, env.sessions[u].clone()))
            .collect();
        VoteGen {
            rng: SplitMix::new(seed ^ (stream << 32) ^ 0x707E),
            stream,
            users,
            ids: env.catalog.ids.clone(),
            titles: Zipf::new(env.catalog.ids.len(), 0.8),
            recent: std::collections::VecDeque::new(),
            new_titles: 0,
            last_votes: BTreeMap::new(),
            pending: None,
        }
    }

    fn post_check(env: &Env, streams: &[VoteGen], seed: u64) -> (u64, u64) {
        let all: Vec<((usize, usize), u8)> =
            streams.iter().flat_map(|g| g.last_votes.iter().map(|(k, v)| (*k, *v))).collect();
        let mut rng = SplitMix::new(seed ^ 0xC4EC);
        let (mut checked, mut failed) = (0, 0);
        for _ in 0..all.len().min(500) {
            let ((u, t), score) = all[rng.below(all.len() as u64) as usize];
            checked += 1;
            let got = env.server.db().vote_of(&env.catalog.users[u], &env.catalog.ids[t]);
            if !matches!(got, Ok(Some(ref v)) if v.score == score) {
                failed += 1;
                eprintln!(
                    "vote read-back mismatch for member {u} title {t}: want {score}, got {got:?}"
                );
            }
        }
        println!("vote read-back: {checked} acknowledged votes checked, {failed} wrong");
        (checked, failed)
    }
}
