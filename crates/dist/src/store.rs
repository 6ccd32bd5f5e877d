//! The on-disk execution-space store: a persistent, crash-tolerant
//! implementation of [`SpaceStore`].
//!
//! # Layout
//!
//! A cache directory holds one file per program fingerprint plus one
//! C11 verdict file:
//!
//! ```text
//! <cache-dir>/
//!   spaces/<fingerprint as 16 hex digits>.space
//!   c11.verdicts
//! ```
//!
//! Every file is little-endian, begins with an 8-byte magic and a
//! `u32` format version, and ends with a 64-bit FNV-1a checksum of
//! everything between the magic and the checksum. Writers build the
//! whole file in memory, write it to a `*.tmp.<pid>` sibling and
//! `rename` it into place, so readers only ever observe complete files
//! (rename is atomic within a directory). See `crates/dist/README.md`
//! for the full byte-level specification and versioning rules.
//!
//! # Corruption and version handling
//!
//! Every load validates magic, version, annotation tag and checksum
//! before decoding, and the decoder itself bounds-checks every frame.
//! Any failure **evicts** the offending file (it is deleted and counted
//! in [`StoreStats::evictions`]) and the load reports a miss — the
//! engine recomputes. A mismatched *program* under a colliding
//! fingerprint is not corruption: entries are keyed by the full encoded
//! program, so a collision is a clean miss. The store can therefore
//! degrade to recomputing everything, but can never serve a wrong row.
//!
//! # Concurrency
//!
//! Multiple processes (the shard workers of [`crate::run_sharded`])
//! may share one cache directory. Space files are read-merge-written:
//! concurrent writers of the same fingerprint race benignly — one
//! writer's entry survives, the loser's work is recomputed on the next
//! cold lookup. The verdict file is one file every shard extends, so
//! [`DiskStore::flush`] holds an exclusive `c11.verdicts.lock` file
//! across its whole read-merge-write-rename: concurrent flushes
//! serialize and the file ends up holding the union of their entries.
//! A flush that has waited five seconds for the lock treats it as stale
//! (its holder crashed), removes it and takes it.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tricheck_core::{C11Cached, OutcomeMode, SpaceStore, StoreStats};
use tricheck_isa::HwAnnot;
use tricheck_litmus::codec::{self, AnnCodec, ByteReader};
use tricheck_litmus::{ExecutionSpace, Fingerprint, LitmusTest, Program};

/// Bumped whenever any byte of the file layout — including the codec
/// payloads from `tricheck_litmus::codec` — changes shape. Files
/// written by any other version are evicted and recomputed.
///
/// v2: the hardware-annotation codec gained the x86 `mfence` variant
/// (tag 5), so v1 caches — which could never contain it but whose
/// decoder set differs — are evicted wholesale rather than risking a
/// skewed mixed-version directory.
///
/// v3: [`ExecutionSpace::snapshot`] switched to the columnar arena
/// layout (one framed skeleton execution plus flat `rf`/`co`/`loc`/`val`
/// columns; matching views as `u32` index lists over the full arena) —
/// v2 per-execution framed snapshots no longer decode.
pub const FORMAT_VERSION: u32 = 3;

/// Magic prefix of space files ("TriChecK SPaCe").
const SPACE_MAGIC: &[u8; 8] = b"TCKSPC\x00\x01";
/// Magic prefix of the C11 verdict file.
const C11_MAGIC: &[u8; 8] = b"TCKC11\x00\x01";

/// How long [`DiskStore::flush`] waits for another flush's lock file
/// before it treats the lock as stale.
const LOCK_WAIT: Duration = Duration::from_secs(5);

/// An exclusive lock file, removed on drop.
struct LockFile(PathBuf);

impl LockFile {
    /// Creates `path` exclusively, polling in short sleeps while another
    /// holder has it. After [`LOCK_WAIT`] the lock is stale: it is
    /// removed and taken.
    fn acquire(path: PathBuf) -> LockFile {
        let create = || {
            fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
        };
        let deadline = Instant::now() + LOCK_WAIT;
        loop {
            match create() {
                Err(e) if e.kind() == ErrorKind::AlreadyExists && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let _ = fs::remove_file(&path);
                    let _ = create();
                    return LockFile(path);
                }
                // Taken, or the directory is unwritable (and so is the
                // verdict file the lock guards).
                _ => return LockFile(path),
            }
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// Failure to open a cache directory.
#[derive(Debug)]
pub enum StoreError {
    /// The path exists but is not a directory.
    NotADirectory(PathBuf),
    /// The directory (or its `spaces/` subdirectory) could not be
    /// created or read.
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotADirectory(p) => {
                write!(f, "cache path '{}' is not a directory", p.display())
            }
            StoreError::Io(p, e) => write!(f, "cache directory '{}': {e}", p.display()),
        }
    }
}

impl std::error::Error for StoreError {}

/// The key of one C11 verdict entry: test name, a content hash of the
/// test (its C11 program fingerprint mixed with its encoded target
/// outcome), and the outcome mode. The content hash is what makes a
/// renamed-but-changed or regenerated test a miss instead of a wrong
/// verdict.
type C11Key = (String, u64, u8);

/// An on-disk [`SpaceStore`] rooted at a cache directory.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use tricheck_core::{riscv_stacks, SpaceStore, Sweep, SweepOptions};
/// use tricheck_dist::DiskStore;
///
/// let store = Arc::new(DiskStore::open("./tricheck-cache")?);
/// let opts = SweepOptions { store: Some(store.clone()), ..SweepOptions::default() };
/// let tests = tricheck_litmus::suite::full_suite();
/// let results = Sweep::with_options(opts).run_matrix(&tests, &riscv_stacks());
/// println!("store: {}", store.stats());
/// # Ok::<(), tricheck_dist::StoreError>(())
/// ```
pub struct DiskStore {
    dir: PathBuf,
    /// In-memory image of `c11.verdicts`, loaded at open.
    c11: Mutex<HashMap<C11Key, C11Cached>>,
    /// Whether the image has entries the file does not. Atomic (not a
    /// second `Mutex`) so `save_c11` can flag it while holding the map
    /// lock without creating a lock-order cycle against `flush`.
    c11_dirty: AtomicBool,
    space_hits: AtomicUsize,
    space_misses: AtomicUsize,
    c11_hits: AtomicUsize,
    c11_misses: AtomicUsize,
    evictions: AtomicUsize,
    writes: AtomicUsize,
}

impl fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DiskStore {
    /// Opens (creating if needed) a cache directory and loads the C11
    /// verdict index. A corrupt or version-mismatched verdict file is
    /// evicted and the store starts cold.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the path exists but is not a directory, or
    /// creation fails.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        if dir.exists() && !dir.is_dir() {
            return Err(StoreError::NotADirectory(dir));
        }
        let spaces = dir.join("spaces");
        fs::create_dir_all(&spaces).map_err(|e| StoreError::Io(spaces.clone(), e))?;
        let store = DiskStore {
            dir,
            c11: Mutex::new(HashMap::new()),
            c11_dirty: AtomicBool::new(false),
            space_hits: AtomicUsize::new(0),
            space_misses: AtomicUsize::new(0),
            c11_hits: AtomicUsize::new(0),
            c11_misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
        };
        let loaded = store.read_c11_file();
        *store.c11.lock().expect("c11 lock") = loaded;
        Ok(store)
    }

    /// The cache directory this store is rooted at.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn space_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir
            .join("spaces")
            .join(format!("{:016x}.space", fp.as_u64()))
    }

    fn c11_path(&self) -> PathBuf {
        self.dir.join("c11.verdicts")
    }

    /// Deletes a file that failed validation and counts the eviction.
    fn evict(&self, path: &Path) {
        let _ = fs::remove_file(path);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Validates magic, version and checksum, returning the payload
    /// between the version field and the checksum.
    fn validate_file<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Option<&'a [u8]> {
        if bytes.len() < 8 + 4 + 8 || &bytes[..8] != magic {
            return None;
        }
        let body = &bytes[8..bytes.len() - 8];
        let mut trailer = [0u8; 8];
        trailer.copy_from_slice(&bytes[bytes.len() - 8..]);
        if codec::fnv1a(body) != u64::from_le_bytes(trailer) {
            return None;
        }
        let mut r = ByteReader::new(body);
        if r.u32().ok()? != FORMAT_VERSION {
            return None;
        }
        Some(&body[4..])
    }

    /// Frames a payload with magic, version and trailing checksum.
    fn frame_file(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::with_capacity(payload.len() + 4);
        codec::put_u32(&mut body, FORMAT_VERSION);
        body.extend_from_slice(payload);
        let checksum = codec::fnv1a(&body);
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(magic);
        out.extend_from_slice(&body);
        codec::put_u64(&mut out, checksum);
        out
    }

    /// Atomically replaces `path` with `bytes` via a tmp-file sibling.
    ///
    /// Deliberately does NOT fsync: this is a cache, and every reader
    /// validates the checksum before trusting a file, so a torn write
    /// after a crash degrades to one eviction-and-recompute. Skipping
    /// the sync keeps cold runs from paying one disk flush per distinct
    /// program (~thousands per full-suite sweep).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) {
        let _t = tricheck_trace::span(tricheck_trace::Phase::StoreWrite);
        tricheck_trace::count(
            tricheck_trace::Counter::StoreBytesWritten,
            bytes.len() as u64,
        );
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let ok = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            drop(f);
            fs::rename(&tmp, path)
        })();
        if ok.is_ok() {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Reads and validates a space file into its raw
    /// (encoded program, snapshot) entries. `None` means "no usable
    /// file" — missing, or evicted as corrupt/mismatched.
    fn read_space_file(&self, path: &Path) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        let _t = tricheck_trace::span(tricheck_trace::Phase::StoreRead);
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(_) => return None,
        };
        tricheck_trace::count(tricheck_trace::Counter::StoreBytesRead, bytes.len() as u64);
        let parsed = (|| -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
            let payload = Self::validate_file(SPACE_MAGIC, &bytes)?;
            let mut r = ByteReader::new(payload);
            if r.u8().ok()? != HwAnnot::TAG {
                return None;
            }
            let n = r.u32().ok()? as usize;
            // Each entry takes at least 8 bytes (two length prefixes).
            let mut entries = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
            for _ in 0..n {
                let program = r.bytes().ok()?.to_vec();
                let snapshot = r.bytes().ok()?.to_vec();
                entries.push((program, snapshot));
            }
            if r.remaining() != 0 {
                return None;
            }
            Some(entries)
        })();
        if parsed.is_none() {
            self.evict(path);
        }
        parsed
    }

    fn write_space_file(&self, path: &Path, entries: &[(Vec<u8>, Vec<u8>)]) {
        let mut payload = Vec::new();
        payload.push(HwAnnot::TAG);
        codec::put_u32(&mut payload, entries.len() as u32);
        for (program, snapshot) in entries {
            codec::put_bytes(&mut payload, program);
            codec::put_bytes(&mut payload, snapshot);
        }
        self.write_atomic(path, &Self::frame_file(SPACE_MAGIC, &payload));
    }

    /// Reads and validates the verdict file; a bad file is evicted and
    /// yields an empty index.
    fn read_c11_file(&self) -> HashMap<C11Key, C11Cached> {
        let _t = tricheck_trace::span(tricheck_trace::Phase::StoreRead);
        let path = self.c11_path();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return HashMap::new(),
        };
        tricheck_trace::count(tricheck_trace::Counter::StoreBytesRead, bytes.len() as u64);
        let parsed = (|| -> Option<HashMap<C11Key, C11Cached>> {
            let payload = Self::validate_file(C11_MAGIC, &bytes)?;
            let mut r = ByteReader::new(payload);
            let n = r.u32().ok()? as usize;
            // Each entry takes at least 14 bytes: name prefix, hash, mode
            // and a one-byte verdict.
            let mut map = HashMap::with_capacity(n.min(r.remaining() / 14 + 1));
            for _ in 0..n {
                let name = r.string().ok()?;
                let test_hash = r.u64().ok()?;
                let mode = r.u8().ok()?;
                let value = match mode {
                    0 => C11Cached::Target(match r.u8().ok()? {
                        0 => false,
                        1 => true,
                        _ => return None,
                    }),
                    1 => {
                        let k = r.u32().ok()? as usize;
                        let mut outcomes = std::collections::BTreeSet::new();
                        for _ in 0..k {
                            let frame = r.bytes().ok()?;
                            let mut or = ByteReader::new(frame);
                            let outcome = codec::decode_outcome(&mut or).ok()?;
                            if or.remaining() != 0 {
                                return None;
                            }
                            outcomes.insert(outcome);
                        }
                        C11Cached::Full(outcomes)
                    }
                    _ => return None,
                };
                map.insert((name, test_hash, mode), value);
            }
            if r.remaining() != 0 {
                return None;
            }
            Some(map)
        })();
        match parsed {
            Some(map) => map,
            None => {
                self.evict(&path);
                HashMap::new()
            }
        }
    }

    fn write_c11_file(&self, map: &HashMap<C11Key, C11Cached>) {
        let mut payload = Vec::new();
        codec::put_u32(&mut payload, map.len() as u32);
        // Deterministic entry order, so equal indexes produce equal
        // files (useful for tests and rsync-style syncing).
        let mut keys: Vec<&C11Key> = map.keys().collect();
        keys.sort();
        for key in keys {
            let (name, test_hash, mode) = key;
            codec::put_str(&mut payload, name);
            codec::put_u64(&mut payload, *test_hash);
            payload.push(*mode);
            match &map[key] {
                C11Cached::Target(permitted) => payload.push(u8::from(*permitted)),
                C11Cached::Full(outcomes) => {
                    codec::put_u32(&mut payload, outcomes.len() as u32);
                    for outcome in outcomes {
                        codec::put_bytes(&mut payload, &codec::encode_outcome(outcome));
                    }
                }
            }
        }
        self.write_atomic(&self.c11_path(), &Self::frame_file(C11_MAGIC, &payload));
    }
}

/// The content hash of a test for verdict keying: its C11 program
/// fingerprint mixed with its encoded target outcome.
fn test_hash(test: &LitmusTest) -> u64 {
    let mut bytes = Vec::new();
    codec::put_u64(&mut bytes, Fingerprint::of(test.program()).as_u64());
    bytes.extend_from_slice(&codec::encode_outcome(test.target()));
    codec::fnv1a(&bytes)
}

fn mode_tag(mode: OutcomeMode) -> u8 {
    match mode {
        OutcomeMode::Target => 0,
        OutcomeMode::FullOutcomes => 1,
    }
}

impl SpaceStore for DiskStore {
    fn load_space(&self, program: &Program<HwAnnot>) -> Option<ExecutionSpace<HwAnnot>> {
        let path = self.space_path(Fingerprint::of(program));
        let result = self.read_space_file(&path).and_then(|entries| {
            let probe = codec::encode_program(program);
            let snapshot = entries
                .iter()
                .find(|(encoded, _)| *encoded == probe)
                .map(|(_, snapshot)| snapshot)?;
            match ExecutionSpace::from_snapshot(program.clone(), snapshot) {
                Ok(space) => Some(space),
                Err(_) => {
                    // The frame validated but the snapshot payload did
                    // not decode: evict the file, keep the miss.
                    self.evict(&path);
                    None
                }
            }
        });
        match &result {
            Some(_) => self.space_hits.fetch_add(1, Ordering::Relaxed),
            None => self.space_misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn save_space(&self, space: &ExecutionSpace<HwAnnot>) {
        let path = self.space_path(space.fingerprint());
        let mut entries = self.read_space_file(&path).unwrap_or_default();
        let probe = codec::encode_program(space.program());
        let snapshot = space.snapshot();
        match entries.iter_mut().find(|(encoded, _)| *encoded == probe) {
            Some((_, existing)) => {
                if *existing == snapshot {
                    return; // nothing new to persist
                }
                *existing = snapshot;
            }
            None => entries.push((probe, snapshot)),
        }
        self.write_space_file(&path, &entries);
    }

    fn load_c11(&self, test: &LitmusTest, mode: OutcomeMode) -> Option<C11Cached> {
        let key = (test.name().to_string(), test_hash(test), mode_tag(mode));
        let result = self.c11.lock().expect("c11 lock").get(&key).cloned();
        match &result {
            Some(_) => self.c11_hits.fetch_add(1, Ordering::Relaxed),
            None => self.c11_misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn save_c11(&self, test: &LitmusTest, value: &C11Cached) {
        let key = (
            test.name().to_string(),
            test_hash(test),
            mode_tag(value.mode()),
        );
        let mut map = self.c11.lock().expect("c11 lock");
        if map.get(&key) == Some(value) {
            return;
        }
        map.insert(key, value.clone());
        self.c11_dirty.store(true, Ordering::Release);
    }

    fn flush(&self) {
        // Claim the dirty flag before taking the map lock (a save
        // racing with this flush re-raises the flag for the next one).
        if !self.c11_dirty.swap(false, Ordering::AcqRel) {
            return;
        }
        let mut map = self.c11.lock().expect("c11 lock");
        let _lock = LockFile::acquire(self.dir.join("c11.verdicts.lock"));
        // Merge with whatever a sibling flushed since we loaded; our
        // entries win on conflict (they are newer observations of the
        // same deterministic computation, so any difference means a
        // content change and our key already differs).
        let mut merged = self.read_c11_file();
        for (k, v) in map.drain() {
            merged.insert(k, v);
        }
        self.write_c11_file(&merged);
        *map = merged;
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            space_hits: self.space_hits.load(Ordering::Relaxed),
            space_misses: self.space_misses.load(Ordering::Relaxed),
            c11_hits: self.c11_hits.load(Ordering::Relaxed),
            c11_misses: self.c11_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}
