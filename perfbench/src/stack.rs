//! Assembling the `softrep-serverd` stack in-process, seeding it, and the
//! plain-socket HTTP client the web traffic uses.
//!
//! The stack is the binary's: a file-backed `Store`, `ReputationDb`,
//! `ReputationServer`, the default `FrontendServer` (epoll on Linux,
//! default `TcpServerConfig`) and the `WebServer`. Two settings differ,
//! see README.md: the flood budget is opened and registration puzzles
//! are off, and no pseudonym key is generated.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use softrep_core::clock::{Clock, SystemClock, Timestamp};
use softrep_core::db::ReputationDb;
use softrep_crypto::salted::SecretPepper;
use softrep_proto::{Request, Response};
use softrep_server::tcp::{FrontendServer, TcpClient, TcpServerConfig};
use softrep_server::web::WebServer;
use softrep_server::{ReputationServer, ServerConfig};
use softrep_storage::vfs::Vfs;
use softrep_storage::{DurabilityMode, Store, StoreOptions};

use crate::stats::SplitMix;

/// Socket deadlines for every benchmark client: a stuck request fails
/// and is counted instead of hanging the run.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// A scratch directory under the build's target directory (the benchmark
/// reads and writes only inside its checkout), removed on drop.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let path = out_root().join("data").join(format!("{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `perfbench/` beside the running executable: under `cargo run` that is
/// `<target dir>/release/perfbench`, which follows `CARGO_TARGET_DIR`.
pub fn out_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("perfbench")
}

pub fn open_store(dir: &Path, durability: DurabilityMode, vfs: Option<Arc<dyn Vfs>>) -> Arc<Store> {
    let options = StoreOptions { durability, ..StoreOptions::default() };
    let store = match vfs {
        Some(vfs) => Store::open_with_vfs(dir, options, vfs),
        None => Store::open_with(dir, options),
    };
    Arc::new(store.expect("open the benchmark store"))
}

/// The database layer over `store`, with the benchmark's pepper.
pub fn db(store: Arc<Store>) -> ReputationDb {
    ReputationDb::new(store, SecretPepper::new(b"perfbench-pepper".to_vec()))
}

/// The binary's handler configuration, with the flood budget opened and
/// puzzles off (README.md, "Deviations from the release binary").
pub fn assemble(store: Arc<Store>, rng_seed: u64) -> Arc<ReputationServer> {
    Arc::new(ReputationServer::new(
        db(store),
        Arc::new(SystemClock),
        ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        },
        rng_seed,
    ))
}

pub fn now() -> Timestamp {
    SystemClock.now()
}

/// The two listeners of `softrep-serverd`, bound to ephemeral loopback
/// ports.
pub struct Listeners {
    pub frontend: FrontendServer,
    pub web: WebServer,
}

impl Listeners {
    pub fn spawn(server: &Arc<ReputationServer>) -> Self {
        let frontend = FrontendServer::spawn_with(
            Arc::clone(server),
            "127.0.0.1:0",
            TcpServerConfig::default(),
        )
        .expect("bind the protocol listener");
        let web =
            WebServer::spawn(Arc::clone(server), "127.0.0.1:0").expect("bind the web listener");
        Listeners { frontend, web }
    }

    pub fn addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    pub fn web_addr(&self) -> SocketAddr {
        self.web.local_addr()
    }

    pub fn shutdown(self) {
        self.frontend.shutdown();
        self.web.shutdown();
    }
}

/// A framed client with the benchmark's deadlines.
pub fn client(addr: SocketAddr) -> std::io::Result<TcpClient> {
    let client = TcpClient::connect(addr)?;
    client.set_timeouts(Some(CLIENT_TIMEOUT), Some(CLIENT_TIMEOUT))?;
    Ok(client)
}

/// Block until the front end answers a probe: the end of set-up.
pub fn first_answer(addr: SocketAddr, probe_id: &str) {
    let mut c = client(addr).expect("connect to the protocol listener");
    let reply = c
        .call(&Request::QuerySoftware { software_id: probe_id.to_string() })
        .expect("first request answered");
    assert!(
        matches!(reply, Response::Software(_) | Response::UnknownSoftware { .. }),
        "unexpected first answer {reply:?}"
    );
}

/// One HTTP/1.1 GET over a fresh connection, as a browser or scraper
/// sends it. Returns the status code and body.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 reply"))?;
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

/// A 40-hex software id, a pure function of `(salt, i)`.
pub fn sw_id(salt: u64, i: u64) -> String {
    let mut rng = SplitMix::new(salt ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D));
    format!("{:016x}{:016x}{:08x}", rng.next_u64(), rng.next_u64(), rng.next_u64() as u32)
}

pub fn vendor_name(v: usize) -> String {
    format!("Vendor{v:04}")
}

pub fn user_name(u: usize) -> String {
    format!("member{u:05}")
}

pub const BEHAVIOURS: [&str; 4] = ["popup_ads", "tracking", "incomplete_uninstall", "keylogging"];

pub const COMMENT: &str = "Bundles a tracker & shows \"ads\"; the uninstaller leaves it behind.";

/// What set-up wrote, so requests and checks can refer to it.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    pub ids: Vec<String>,
    pub vendor_titles: Vec<u64>,
    pub users: Vec<String>,
}

impl Catalog {
    pub fn vendors(&self) -> usize {
        self.vendor_titles.len()
    }
}

/// Register and activate `users` members.
pub fn seed_users(db: &ReputationDb, catalog: &mut Catalog, users: usize, rng: &mut SplitMix) {
    let t = now();
    for u in 0..users {
        let name = user_name(u);
        let token = db
            .register_user(&name, "pw", &format!("{name}@bench.example"), t, rng)
            .expect("seed a member");
        db.activate_user(&name, &token).expect("activate a member");
        catalog.users.push(name);
    }
}

/// Register `titles` software titles spread over `vendors` vendors
/// (one in eight unsigned).
pub fn seed_titles(
    db: &ReputationDb,
    catalog: &mut Catalog,
    salt: u64,
    titles: usize,
    vendors: usize,
    rng: &mut SplitMix,
) {
    let t = now();
    catalog.vendor_titles.resize(vendors, 0);
    for i in 0..titles {
        let id = sw_id(salt, i as u64);
        let vendor = (rng.below(8) != 0).then(|| rng.below(vendors as u64) as usize);
        if let Some(v) = vendor {
            catalog.vendor_titles[v] += 1;
        }
        db.register_software(
            &id,
            &format!("app{i}.exe"),
            1_000 + rng.below(1 << 20),
            vendor.map(vendor_name),
            Some(format!("{}.{}", 1 + rng.below(9), rng.below(20))),
            t,
        )
        .expect("seed a title");
        catalog.ids.push(id);
    }
}

/// The behaviours one ballot reports: none in two votes of three.
pub fn behaviours(rng: &mut SplitMix) -> Vec<String> {
    if rng.below(3) == 0 {
        vec![BEHAVIOURS[rng.below(BEHAVIOURS.len() as u64) as usize].to_string()]
    } else {
        Vec::new()
    }
}
