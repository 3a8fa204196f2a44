//! Counters measured from outside the program: a counting global
//! allocator and a counting [`Vfs`] wrapped around the real filesystem.
//! Both keep every real effect and every check; they only count, and
//! only while switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use softrep_storage::vfs::{self, Vfs, VfsFile};
use softrep_storage::StorageResult;

use crate::stats;

/// Counts heap allocations process-wide while [`ALLOC_COUNTING`] is on.
/// Off, it costs one relaxed load per allocation.
pub struct CountingAlloc;

pub static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// wrapper only bumps a counter and never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// What the counting VFS saw while on. Durations are in nanoseconds.
#[derive(Debug, Default)]
pub struct VfsCounters {
    pub on: AtomicBool,
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    pub append_ns: Mutex<Vec<u64>>,
    pub sync_ns: Mutex<Vec<u64>>,
}

impl VfsCounters {
    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }

    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    fn record(into: &Mutex<Vec<u64>>, start: std::time::Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        into.lock().expect("counter lock poisoned by a panicking thread").push(ns);
    }
}

/// The real filesystem, counted: appends (bytes and time), `sync_data`
/// (time) and whole-file reads (bytes).
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    pub counters: Arc<VfsCounters>,
}

impl CountingVfs {
    pub fn new() -> Self {
        CountingVfs { inner: vfs::real(), counters: Arc::new(VfsCounters::default()) }
    }

    fn wrap(&self, file: Arc<dyn VfsFile>) -> Arc<dyn VfsFile> {
        Arc::new(CountingFile { inner: file, counters: Arc::clone(&self.counters) })
    }
}

struct CountingFile {
    inner: Arc<dyn VfsFile>,
    counters: Arc<VfsCounters>,
}

impl VfsFile for CountingFile {
    fn append(&self, data: &[u8]) -> StorageResult<()> {
        if !self.counters.on() {
            return self.inner.append(data);
        }
        let start = stats::now();
        let out = self.inner.append(data);
        VfsCounters::record(&self.counters.append_ns, start);
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters.append_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        out
    }

    fn sync_data(&self) -> StorageResult<()> {
        if !self.counters.on() {
            return self.inner.sync_data();
        }
        let start = stats::now();
        let out = self.inner.sync_data();
        VfsCounters::record(&self.counters.sync_ns, start);
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn set_len(&self, len: u64) -> StorageResult<()> {
        self.inner.set_len(len)
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        self.inner.read_all()
    }
}

impl Vfs for CountingVfs {
    fn open_append(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        Ok(self.wrap(self.inner.open_append(path)?))
    }

    fn create(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        Ok(self.wrap(self.inner.create(path)?))
    }

    fn try_read(&self, path: &Path) -> StorageResult<Option<Vec<u8>>> {
        let out = self.inner.try_read(path)?;
        if let (true, Some(data)) = (self.counters.on(), out.as_ref()) {
            self.counters.reads.fetch_add(1, Ordering::Relaxed);
            self.counters.read_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Ok(out)
    }

    fn write(&self, path: &Path, data: &[u8]) -> StorageResult<()> {
        self.inner.write(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> StorageResult<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> StorageResult<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_dir_all(&self, path: &Path) -> StorageResult<()> {
        self.inner.create_dir_all(path)
    }
}
