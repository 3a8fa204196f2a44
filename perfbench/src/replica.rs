//! `replica_catchup`: a file-backed primary seeded to a long WAL, read
//! by replication page requests and tailed by fresh replicas.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use softrep_core::db::ReputationDb;
use softrep_proto::Request;
use softrep_server::repl::{ReplicaTail, ReplicaTailConfig};
use softrep_storage::vfs::Vfs;
use softrep_storage::{replication, DurabilityMode};

use crate::counting::{CountingVfs, VfsCounters};
use crate::drive::{self, Class, Expect, Gen, Op, PagePicker, Tally};
use crate::framed::{self, Env, StorageWindow, TraceParts, SETUPS};
use crate::stack::{self, Catalog, DataDir};
use crate::stats::{self, median_of, SplitMix, Zipf};
use crate::trace;
use crate::{Config, Outcome};

/// Committed WAL entries the primary's seeding reaches before its
/// aggregation pass.
const ENTRIES: u64 = 50_000;
const USERS: usize = 100;
const TITLES: usize = 2_000;
const VENDORS: usize = 50;
const CATALOG_SALT: u64 = 0x4E_91CA;
/// Replication page reads per second offered in the open-loop phase.
const PAGE_RATE: f64 = 8.0;
/// Share of `--seconds` spent on open-loop page reads; the rest on
/// catch-up rounds.
const OPEN_SHARE: f64 = 0.4;
/// A catch-up that has not finished after this long fails.
const CATCHUP_LIMIT: Duration = Duration::from_secs(120);

/// Seed through real `ReputationDb` writes until the log holds
/// [`ENTRIES`] committed entries. With `growth`, read one replication
/// page from the start of the log at each quarter of the way, counting
/// the bytes read per entry served.
fn seed_primary(
    db: &ReputationDb,
    catalog: &mut Catalog,
    rng: &mut SplitMix,
    growth: Option<&VfsCounters>,
) -> Vec<(u64, f64)> {
    stack::seed_users(db, catalog, USERS, rng);
    stack::seed_titles(db, catalog, CATALOG_SALT, TITLES, VENDORS, rng);
    let popularity = Zipf::new(TITLES, 0.8);
    let t = stack::now();
    let mut probes = Vec::new();
    let mut next_probe = ENTRIES / 4;
    let mut i = 0u64;
    while db.store().committed_seq() < ENTRIES {
        i += 1;
        let user = &catalog.users[rng.below(USERS as u64) as usize];
        let id = &catalog.ids[popularity.sample(rng)];
        if i.is_multiple_of(25) {
            db.submit_comment(user, id, stack::COMMENT, t).expect("seed a comment");
        } else {
            db.submit_vote(user, id, 1 + rng.below(10) as u8, Vec::new(), t).expect("seed a vote");
        }
        let committed = db.store().committed_seq();
        if let Some(counters) = growth.filter(|_| committed >= next_probe) {
            next_probe += ENTRIES / 4;
            // The traced set-up runs with the counters on.
            let before = counters.read_bytes();
            let read = db.store().replication_read(0, 256, 128 * 1024).expect("replication read");
            let n = match read {
                softrep_storage::ReplRead::Entries { entries, .. } => entries.len(),
                softrep_storage::ReplRead::SnapshotNeeded { .. } => 0,
            };
            probes.push((committed, (counters.read_bytes() - before) as f64 / n.max(1) as f64));
        }
    }
    probes
}

fn build(seed: u64, vfs: Option<Arc<CountingVfs>>) -> (Env, Vec<(u64, f64)>) {
    let mut probes = Vec::new();
    let counters = vfs.as_ref().map(|v| Arc::clone(&v.counters));
    let env = framed::build_env(
        "replica_primary",
        seed,
        vfs.map(|v| v as Arc<dyn Vfs>),
        DurabilityMode::Os,
        |db, catalog, rng| probes = seed_primary(db, catalog, rng, counters.as_deref()),
    );
    (env, probes)
}

/// Replication page reads at uniformly drawn watermarks, with the
/// tail's default page caps.
struct PageGen {
    rng: SplitMix,
    committed: u64,
    page_entries: u32,
    page_bytes: u32,
}

impl PageGen {
    fn new(env: &Env, seed: u64) -> Self {
        let tail = ReplicaTailConfig::default();
        PageGen {
            rng: SplitMix::new(seed ^ 0x9A6E),
            committed: env.store().committed_seq(),
            page_entries: tail.page_entries,
            page_bytes: tail.page_bytes,
        }
    }
}

impl Gen for PageGen {
    fn next(&mut self) -> Op {
        let from = self.rng.below(self.committed);
        Op {
            class: Class::Page,
            kind: "repl_subscribe",
            request: Request::ReplSubscribe {
                from_seq: from,
                max_entries: self.page_entries,
                max_bytes: self.page_bytes,
            },
            expect: Expect::Page(from),
        }
    }
}

fn page_phase(env: &Env, gen: &mut PageGen, dur: Duration, seed: u64) -> (Tally, Tally) {
    let (addr, web) = (env.listeners.addr(), env.listeners.web_addr());
    std::thread::scope(|s| {
        let scraper = s.spawn(move || {
            let mut rng = SplitMix::new(seed ^ 0x3EB);
            let mut none = |_: &mut SplitMix| ("/".to_string(), "get_front");
            drive::web_loop(web, &mut none as &mut PagePicker<'_>, 0.0, dur, &mut rng)
        });
        let pages = drive::open_loop(addr, gen, PAGE_RATE, dur);
        (pages, scraper.join().expect("scrape thread panicked"))
    })
}

/// What one catch-up round measured and checked.
struct Round {
    entries: u64,
    secs: f64,
    checked: u64,
    failed: u64,
    /// The replica's report-cache (hits, lookups) and vendor-cache
    /// (hits, lookups) during the read checks.
    caches: (u64, u64, u64, u64),
}

/// A fresh file-backed replica tails the primary from `ReplicaTail::spawn`
/// until its applied watermark reaches the primary's committed sequence;
/// then its store must equal the primary's and it must answer reads as
/// the primary does.
fn catch_up(primary: &Env, seed: u64, round: u64) -> Round {
    let dir = DataDir::new("replica").expect("create the replica directory");
    let replica =
        stack::assemble(stack::open_store(dir.path(), DurabilityMode::Os, None), seed ^ round);
    let replica_store = Arc::clone(replica.db().store());
    let target = primary.store().committed_seq();
    let t0 = stats::now();
    let tail = ReplicaTail::spawn(Arc::clone(&replica), primary.listeners.addr().to_string())
        .expect("spawn the replica tail");
    let mut done = true;
    while replication::applied_watermark(&replica_store) < target {
        if stats::now() - t0 > CATCHUP_LIMIT {
            done = false;
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let secs = (stats::now() - t0).as_secs_f64();
    tail.shutdown();

    let (mut checked, mut failed) = (1, 0);
    if !done || replica_store.content_dump() != primary.store().content_dump() {
        eprintln!("replica content differs from the primary after catch-up (done: {done})");
        failed += 1;
    }
    let before = replica.db().aggregation_stats();
    let mut rng = SplitMix::new(seed ^ round ^ 0xEAD);
    for i in 0..60 {
        let request = if i % 6 == 5 {
            Request::QueryVendor { vendor: stack::vendor_name(rng.below(VENDORS as u64) as usize) }
        } else {
            let t = rng.below(primary.catalog.ids.len() as u64) as usize;
            Request::QuerySoftware { software_id: primary.catalog.ids[t].clone() }
        };
        checked += 1;
        if replica.handle(&request, "check") != primary.server.handle(&request, "check") {
            eprintln!("replica answered {request:?} differently from the primary");
            failed += 1;
        }
    }
    let after = replica.db().aggregation_stats();
    let report_hits = after.report_cache_hits - before.report_cache_hits;
    let vendor_hits = after.vendor_cache_hits - before.vendor_cache_hits;
    let caches = (
        report_hits,
        report_hits + after.report_cache_misses - before.report_cache_misses,
        vendor_hits,
        vendor_hits + after.vendor_cache_misses - before.vendor_cache_misses,
    );
    println!(
        "catch-up round {round}: {target} entries in {secs:.3} s = {:.1} entries/s; \
         {checked} checks, {failed} failed",
        target as f64 / secs
    );
    Round { entries: target, secs, checked, failed, caches }
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut setups = Vec::new();
    let env = loop {
        let t0 = stats::now();
        let (env, _) = build(cfg.seed, None);
        setups.push((stats::now() - t0).as_secs_f64());
        if setups.len() == SETUPS {
            break env;
        }
        env.shutdown();
    };
    println!("set-up times (s): {setups:?}; primary committed_seq {}", env.store().committed_seq());

    let open = Duration::from_secs_f64(cfg.seconds * OPEN_SHARE);
    let mut gen = PageGen::new(&env, cfg.seed);
    let (mut pages, mut web) = page_phase(&env, &mut gen, open, cfg.seed);
    pages.print_phase("open-loop replication pages");
    web.print_phase("open-loop scrapes");

    let budget = cfg.seconds * (1.0 - OPEN_SHARE);
    let start = stats::now();
    let mut rounds = Vec::new();
    loop {
        let round = catch_up(&env, cfg.seed, rounds.len() as u64);
        let last = round.secs;
        rounds.push(round);
        if (stats::now() - start).as_secs_f64() + last > budget {
            break;
        }
    }
    let rates: Vec<f64> = rounds.iter().map(|r| r.entries as f64 / r.secs).collect();
    let checked: u64 = rounds.iter().map(|r| r.checked).sum();
    let check_failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let catchup = median_of(&rates).unwrap_or(0.0);
    println!("catchup_entries_per_s = {catchup:.1} entries/s (median of {} rounds)", rates.len());
    let attempted = pages.attempted + web.attempted + checked;
    let failed = pages.failed + web.failed + check_failed;
    println!("error_rate = {} ratio ({failed} of {attempted})", failed as f64 / attempted as f64);

    let lat = pages.lat(Class::Page);
    let metrics = BTreeMap::from([
        ("setup_s", median_of(&setups).unwrap_or(0.0)),
        ("latency_p50_us", lat.median().unwrap_or(0.0)),
        ("throughput_per_s", catchup),
    ]);
    env.shutdown();
    Outcome { correct: check_failed == 0, attempted, failed, metrics }
}

fn run_traced(cfg: &Config) -> Outcome {
    let vfs = Arc::new(CountingVfs::new());
    let counters = Arc::clone(&vfs.counters);
    let t0 = stats::now();
    counters.set_on(true);
    let (env, growth) = build(cfg.seed, Some(vfs));
    counters.set_on(false);
    println!("set-up {:.3} s (counters on)", (stats::now() - t0).as_secs_f64());
    for (backlog, per_entry) in &growth {
        println!(
            "repl_read_bytes_per_entry with {backlog} entries in the log: {per_entry:.1} bytes"
        );
    }
    let setup_io = StorageWindow::drain(&counters);
    let quarter = Duration::from_secs_f64(cfg.seconds / 4.0);

    let mut gen = PageGen::new(&env, cfg.seed);
    let mut w = framed::counted_windows(&env.server, &counters, cfg.seed, |seed| {
        page_phase(&env, &mut gen, quarter, seed)
    });

    let (reads0, bytes0) = (counters.reads(), counters.read_bytes());
    counters.set_on(true);
    let round = catch_up(&env, cfg.seed, 0);
    counters.set_on(false);
    let repl_pages = counters.reads() - reads0;
    println!(
        "catch-up: {repl_pages} pages served, {:.1} bytes read per entry shipped",
        (counters.read_bytes() - bytes0) as f64 / round.entries.max(1) as f64
    );

    let mut replay_gen = PageGen::new(&env, cfg.seed);
    let replay = trace::replay(&env.server, &mut replay_gen, quarter, 20);
    println!("in-process replay: {} requests, {} failed", replay.attempted, replay.failed);

    let mut probe = Tally::default();
    let allocs_per_request = drive::alloc_probe(env.listeners.addr(), &mut gen, 20, &mut probe);
    let (attempted, failed) = w.counts();
    let attempted = attempted + probe.attempted + replay.attempted + round.checked;
    let failed = failed + probe.failed + replay.failed + round.failed;
    let web_get_p50 = w.plain_web.lat(Class::Scrape).median().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    let parts = TraceParts {
        server: &env.server,
        store: env.store(),
        counters: &counters,
        replay: &replay,
        primary: Class::Page,
        windows: w,
        setup_io,
        allocs_per_request,
        web_paths: vec!["/metrics".to_string(); 20],
        web_get_p50,
        agg: (env.setup_agg.0, env.setup_agg.1 as f64),
        open_replay_s: env.open_replay_s,
        repl_pages,
    };
    let mut extra = framed::layer_metrics(parts, &mut m);
    let (rh, rl, vh, vl) = round.caches;
    m.insert("core.report_cache_hit_ratio", trace::ratio(rh, rl));
    m.insert("core.report_cache_lookups", rl as f64);
    m.insert("core.vendor_cache_hit_ratio", trace::ratio(vh, vl));
    m.insert("core.vendor_cache_lookups", vl as f64);
    println!("replica caches during read checks: report {rh} of {rl}, vendor {vh} of {vl}");
    for (backlog, per_entry) in growth {
        extra.insert(
            format!("storage.repl_read_bytes_per_entry.at_{backlog}"),
            (per_entry, "bytes".into()),
        );
    }
    extra.insert(
        "catchup_entries_per_s".into(),
        (round.entries as f64 / round.secs, "entries/s".into()),
    );
    framed::finish_trace(cfg, &m, extra, &replay);
    env.shutdown();
    Outcome { correct: round.failed == 0, attempted, failed, metrics: m }
}
