//! Content-addressed result cache for sweep points.
//!
//! The paper's figures are grids over a shared point space: many
//! `(SystemConfig, Workload, Fidelity)` points recur across figures,
//! across repeated `repro` invocations, and across concurrent serve
//! jobs. Every simulation is deterministic, so a result computed once is
//! correct forever — *for the same simulator semantics*. This module
//! memoises measurements under a canonical [`Fingerprint`] of the full
//! input (including [`SIM_KERNEL_VERSION`], bumped whenever the kernel's
//! observable behaviour changes, so stale entries can never resurface).
//! Only cycle-tier rows are cached: an analytical row costs less to
//! predict than to fingerprint, so
//! [`measure_cached`](ResultCache::measure_cached) answers it from the
//! model without touching the cache.
//!
//! ## Tiers
//!
//! * **Memory** — a sharded, bounded LRU map of `Fingerprint →
//!   Arc<Measurement>`; eviction is per shard by least-recent access.
//! * **Disk (optional)** — append-only JSONL segments under a cache
//!   directory (`--cache-dir` / `HBM_CACHE_DIR`). Writers buffer
//!   insertions and [`flush`](ResultCache::flush) them as a *new*
//!   segment via write-to-temp-then-rename, so a crash can never leave a
//!   half-written segment behind. Segments are loaded lazily on first
//!   lookup; a segment that fails to parse (corruption, truncation by an
//!   older crash, foreign files) is skipped **loudly** on stderr and the
//!   run proceeds without it.
//!
//! ## Single-flight
//!
//! Concurrent requests for the same fingerprint coalesce: one caller
//! becomes the *leader* and computes, the rest park as *followers* and
//! receive the leader's result. A panicking leader wakes its followers,
//! who retry (one of them becoming the new leader) — a poisoned point
//! never wedges the cache. This is the only single-flight in the
//! workspace: batch grids and serve workers both reach it through
//! [`measure_cached`](ResultCache::measure_cached), and its counters
//! are the only hit/miss/coalesced counters.
//!
//! ## The invariant
//!
//! A cache hit is **byte-identical** to a fresh run. Measurements
//! round-trip exactly through the vendored serde (integers verbatim,
//! `f64` via shortest-round-trip formatting), so the disk tier preserves
//! this too. The `cache_equivalence` proptests enforce it across all
//! four fabrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use hbm_traffic::Workload;
use serde::value::{from_value, Value};
use serde::{Deserialize, Serialize};

use crate::experiment::Fidelity;
use crate::measure::{measure, Measurement};
use crate::system::SystemConfig;

/// Version of the simulator semantics a cached measurement was produced
/// under. Bump this whenever *any* change can alter a measurement —
/// kernel scheduling, fabric timing, statistics accounting, a row's
/// encoding — and every previously cached entry silently stops
/// matching. Removing a field no reader uses moves no counter and needs
/// no bump: deserialisation ignores the extra key in older entries
/// (DESIGN.md §3.5).
pub const SIM_KERNEL_VERSION: u32 = 3;

/// Memory-tier shard count (fingerprints spread by their high bits).
const SHARDS: usize = 16;

/// Default bound on memory-tier entries across all shards.
pub const DEFAULT_CAPACITY: usize = 4_096;

/// How many buffered insertions trigger an automatic disk flush.
const AUTO_FLUSH_PENDING: usize = 256;

// ------------------------------------------------------------ fingerprint

/// A 128-bit content address of one sweep point at one kernel version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the hex form produced by `Display`.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

/// FNV-1a over `bytes`, from an arbitrary 64-bit seed.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical fingerprint of a sweep point under the *current*
/// kernel version: a structural hash over the serde-canonical JSON of
/// `(SystemConfig, Workload, Fidelity)` plus [`SIM_KERNEL_VERSION`].
/// The vendored serde serialises struct fields in declaration order, so
/// the canonical form is deterministic across runs and platforms.
pub fn fingerprint(cfg: &SystemConfig, wl: &Workload, fid: Fidelity) -> Fingerprint {
    fingerprint_versioned(cfg, wl, fid, SIM_KERNEL_VERSION)
}

/// [`fingerprint`] pinned to an explicit kernel version — the hook the
/// invalidation tests use to prove a version bump re-keys every point.
pub fn fingerprint_versioned(
    cfg: &SystemConfig,
    wl: &Workload,
    fid: Fidelity,
    version: u32,
) -> Fingerprint {
    let canon = format!(
        "v{version}|{}|{}|{}",
        serde_json::to_string(cfg).expect("SystemConfig serialises"),
        serde_json::to_string(wl).expect("Workload serialises"),
        serde_json::to_string(&fid).expect("Fidelity serialises"),
    );
    let hi = fnv1a(0xcbf2_9ce4_8422_2325, canon.as_bytes());
    let lo = fnv1a(0xaf63_bd4c_8601_b7df, canon.as_bytes());
    Fingerprint((u128::from(hi) << 64) | u128::from(lo))
}

// ------------------------------------------------------------ observability

/// Point-in-time cache gauges and counters, exported by `repro`'s stderr
/// summary and the serve `cache` verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Whether lookups/insertions are active at all.
    pub enabled: bool,
    /// Live memory-tier entries.
    pub entries: usize,
    /// Memory-tier entry bound.
    pub capacity: usize,
    /// Lookups answered from the memory tier.
    pub hits: u64,
    /// Lookups that led a computation.
    pub misses: u64,
    /// Lookups that attached to another caller's in-flight computation.
    pub coalesced: u64,
    /// Entries written into the memory tier.
    pub inserts: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Cache directory of the disk tier, when one is configured.
    pub disk_dir: Option<String>,
    /// Entries loaded from disk segments.
    pub disk_entries_loaded: u64,
    /// Segments loaded cleanly.
    pub disk_segments_loaded: u64,
    /// Segments skipped as corrupted/truncated (reported on stderr).
    pub disk_segments_skipped: u64,
    /// Disk entries skipped for a stale [`SIM_KERNEL_VERSION`].
    pub stale_skipped: u64,
    /// Insertions buffered but not yet flushed to a segment.
    pub pending_disk_writes: usize,
}

// ------------------------------------------------------------ internals

/// One memory-tier shard: fingerprint → (measurement, last-access tick).
#[derive(Default)]
struct Shard {
    map: HashMap<u128, (Arc<Measurement>, u64)>,
}

/// One in-flight computation; followers park on the condvar.
struct Flight {
    /// `None` = pending; `Some(None)` = leader aborted;
    /// `Some(Some(m))` = complete.
    state: Mutex<Option<Option<Arc<Measurement>>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { state: Mutex::new(None), cv: Condvar::new() }
    }

    fn finish(&self, result: Option<Arc<Measurement>>) {
        *self.state.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<Arc<Measurement>> {
        let mut st = self.state.lock().unwrap();
        while st.is_none() {
            st = self.cv.wait(st).unwrap();
        }
        st.clone().expect("loop exits only once finished")
    }
}

/// On-disk segment line: kernel version, fingerprint, measurement.
#[derive(Serialize, Deserialize)]
struct DiskRecord {
    v: u32,
    fp: String,
    m: Measurement,
}

struct DiskTier {
    dir: PathBuf,
    /// Insertions awaiting a flush into a fresh segment.
    pending: Vec<(u128, Arc<Measurement>)>,
    loaded: bool,
    seg_counter: u64,
}

struct CacheShared {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    tick: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
    disk: Mutex<Option<DiskTier>>,
    /// Fast-path mirror of `disk.is_some() && !loaded`.
    disk_needs_load: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    disk_entries_loaded: AtomicU64,
    disk_segments_loaded: AtomicU64,
    disk_segments_skipped: AtomicU64,
    stale_skipped: AtomicU64,
}

// ------------------------------------------------------------ the cache

/// A content-addressed measurement cache; cheap to clone (all clones
/// share the same tiers). See the module docs for semantics.
#[derive(Clone)]
pub struct ResultCache {
    inner: Arc<CacheShared>,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new()
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("enabled", &self.is_enabled())
            .field("entries", &self.entries())
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    fn with_enabled(enabled: bool) -> ResultCache {
        ResultCache {
            inner: Arc::new(CacheShared {
                enabled: AtomicBool::new(enabled),
                capacity: AtomicUsize::new(DEFAULT_CAPACITY),
                tick: AtomicU64::new(0),
                shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
                flights: Mutex::new(HashMap::new()),
                disk: Mutex::new(None),
                disk_needs_load: AtomicBool::new(false),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                disk_entries_loaded: AtomicU64::new(0),
                disk_segments_loaded: AtomicU64::new(0),
                disk_segments_skipped: AtomicU64::new(0),
                stale_skipped: AtomicU64::new(0),
            }),
        }
    }

    /// An enabled, memory-only cache.
    pub fn new() -> ResultCache {
        ResultCache::with_enabled(true)
    }

    /// A cache that ignores every lookup and insertion.
    pub fn disabled() -> ResultCache {
        ResultCache::with_enabled(false)
    }

    /// An enabled cache persisting to `dir` (created on first flush).
    pub fn with_dir(dir: impl Into<PathBuf>) -> ResultCache {
        let cache = ResultCache::new();
        cache.set_dir(dir);
        cache
    }

    /// The process-wide cache [`crate::batch::run_grid`] consults.
    /// Starts *disabled* unless `HBM_CACHE_DIR` names a directory, so
    /// existing callers see no behaviour change; `repro` flags flip it
    /// via [`enable`](ResultCache::enable) / [`set_dir`] /
    /// [`disable`](ResultCache::disable).
    ///
    /// [`set_dir`]: ResultCache::set_dir
    pub fn global() -> &'static ResultCache {
        static GLOBAL: OnceLock<ResultCache> = OnceLock::new();
        GLOBAL.get_or_init(|| match std::env::var("HBM_CACHE_DIR") {
            Ok(dir) if !dir.trim().is_empty() => ResultCache::with_dir(dir.trim()),
            _ => ResultCache::disabled(),
        })
    }

    /// Whether lookups/insertions do anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns the cache on (memory tier at least).
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns every lookup and insertion into a no-op.
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Attaches (and enables) the disk tier under `dir`. Existing
    /// segments are loaded lazily, on the first lookup.
    pub fn set_dir(&self, dir: impl Into<PathBuf>) {
        let mut disk = self.inner.disk.lock().unwrap();
        *disk =
            Some(DiskTier { dir: dir.into(), pending: Vec::new(), loaded: false, seg_counter: 0 });
        self.inner.disk_needs_load.store(true, Ordering::Release);
        self.enable();
    }

    /// Re-keys `fp` onto its memory shard.
    fn shard(&self, fp: u128) -> &Mutex<Shard> {
        &self.inner.shards[((fp >> 64) as usize) % SHARDS]
    }

    fn per_shard_cap(&self) -> usize {
        (self.inner.capacity.load(Ordering::Relaxed) / SHARDS).max(1)
    }

    /// Bounds the memory tier to `entries` across all shards (tests use
    /// tiny bounds to exercise eviction).
    pub fn set_capacity(&self, entries: usize) {
        self.inner.capacity.store(entries.max(SHARDS), Ordering::Relaxed);
    }

    /// Counting lookup: a hit bumps the LRU tick and the hit counter.
    /// Misses are *not* counted here — the caller decides whether the
    /// miss leads a computation ([`get_or_compute`]) or attaches to an
    /// in-flight one, and counts accordingly.
    ///
    /// [`get_or_compute`]: ResultCache::get_or_compute
    pub fn get(&self, fp: Fingerprint) -> Option<Arc<Measurement>> {
        self.lookup(fp, true)
    }

    /// Non-counting lookup (inspection only).
    pub fn peek(&self, fp: Fingerprint) -> Option<Arc<Measurement>> {
        self.lookup(fp, false)
    }

    fn lookup(&self, fp: Fingerprint, count: bool) -> Option<Arc<Measurement>> {
        if !self.is_enabled() {
            return None;
        }
        self.ensure_loaded();
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(fp.0).lock().unwrap();
        match shard.map.get_mut(&fp.0) {
            Some((m, last)) => {
                *last = tick;
                let m = m.clone();
                drop(shard);
                if count {
                    self.inner.hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(m)
            }
            None => None,
        }
    }

    /// Inserts `m` under `fp` into the memory tier (evicting LRU entries
    /// past the bound) and buffers it for the disk tier when one is
    /// attached. No-op when disabled.
    pub fn insert(&self, fp: Fingerprint, m: Arc<Measurement>) {
        if !self.is_enabled() {
            return;
        }
        let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
        let cap = self.per_shard_cap();
        let fresh = {
            let mut shard = self.shard(fp.0).lock().unwrap();
            let fresh = shard.map.insert(fp.0, (m.clone(), tick)).is_none();
            while shard.map.len() > cap {
                // O(n) scan per eviction: shards are small (≤ cap) and
                // eviction is rare next to a multi-ms simulation.
                let oldest = shard.map.iter().min_by_key(|(_, (_, t))| *t).map(|(&k, _)| k);
                match oldest {
                    Some(k) => {
                        shard.map.remove(&k);
                        self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
            fresh
        };
        if fresh {
            self.inner.inserts.fetch_add(1, Ordering::Relaxed);
            let mut flush_now = false;
            {
                let mut disk = self.inner.disk.lock().unwrap();
                if let Some(d) = disk.as_mut() {
                    d.pending.push((fp.0, m));
                    flush_now = d.pending.len() >= AUTO_FLUSH_PENDING;
                }
            }
            if flush_now {
                if let Err(e) = self.flush() {
                    eprintln!("hbm-cache: flush failed: {e}");
                }
            }
        }
    }

    /// The single-flight memoised compute: a hit returns immediately;
    /// otherwise one caller per fingerprint computes while identical
    /// concurrent callers wait for its result. Counts hits, misses, and
    /// coalesced waits.
    pub fn get_or_compute(
        &self,
        fp: Fingerprint,
        compute: impl Fn() -> Measurement,
    ) -> Arc<Measurement> {
        if !self.is_enabled() {
            return Arc::new(compute());
        }
        loop {
            if let Some(m) = self.lookup(fp, true) {
                return m;
            }
            let (flight, leader) = {
                let mut fl = self.inner.flights.lock().unwrap();
                match fl.get(&fp.0) {
                    Some(f) => (f.clone(), false),
                    None => {
                        // A leader inserts its row before it removes its
                        // flight, so a row that landed since the lookup
                        // above is visible here: look again before
                        // leading, or that point is simulated twice.
                        if let Some(m) = self.lookup(fp, true) {
                            return m;
                        }
                        let f = Arc::new(Flight::new());
                        fl.insert(fp.0, f.clone());
                        (f, true)
                    }
                }
            };
            if leader {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                // Abort the flight if `compute` unwinds, so followers
                // retry instead of parking forever.
                let guard = FlightGuard { cache: self, fp: fp.0, flight: &flight };
                let m = Arc::new(compute());
                self.insert(fp, m.clone());
                guard.complete(m.clone());
                return m;
            }
            self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
            match flight.wait() {
                Some(m) => return m,
                // Leader aborted: go round again (retrying as leader).
                None => continue,
            }
        }
    }

    /// Memoised [`measure`]: the one way a sweep point is evaluated, by
    /// `batch`, `experiment` and the serve workers alike. Analytical
    /// fidelities answer from [`crate::analytic::predict`] before any
    /// fingerprint is taken: the model computes a row in about a
    /// microsecond, a tenth of what the fingerprint alone costs, so
    /// those rows are neither looked up, counted nor stored.
    pub fn measure_cached(&self, cfg: &SystemConfig, wl: &Workload, fid: Fidelity) -> Measurement {
        if fid.is_analytical() {
            return crate::analytic::predict(cfg, wl, fid, crate::analytic::Calibration::active());
        }
        let compute = || measure(cfg, *wl, fid.warmup, fid.cycles);
        if !self.is_enabled() {
            return compute();
        }
        (*self.get_or_compute(fingerprint(cfg, wl, fid), compute)).clone()
    }

    /// The counted lookup [`measure_cached`] starts with, on its own:
    /// the cached row of a point, if any. `None` for a disabled cache
    /// and for an analytical fidelity, which is never cached. Serve
    /// admission deposits such a hit when its job is admitted, with no
    /// worker.
    ///
    /// [`measure_cached`]: ResultCache::measure_cached
    pub fn cached(
        &self,
        cfg: &SystemConfig,
        wl: &Workload,
        fid: Fidelity,
    ) -> Option<Arc<Measurement>> {
        if !self.is_enabled() || fid.is_analytical() {
            return None;
        }
        self.get(fingerprint(cfg, wl, fid))
    }

    /// Drops every memory-tier entry (counters and the disk tier are
    /// untouched). The serve `cache` verb's `clear` action.
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            shard.lock().unwrap().map.clear();
        }
    }

    /// Writes the buffered insertions as one fresh disk segment (via
    /// temp-file-then-rename, so readers and crashes never see a partial
    /// segment). Returns the number of entries written; 0 when the disk
    /// tier is absent or nothing is pending.
    pub fn flush(&self) -> std::io::Result<usize> {
        let (dir, batch, seg) = {
            let mut disk = self.inner.disk.lock().unwrap();
            let Some(d) = disk.as_mut() else { return Ok(0) };
            if d.pending.is_empty() {
                return Ok(0);
            }
            d.seg_counter += 1;
            (d.dir.clone(), std::mem::take(&mut d.pending), d.seg_counter)
        };
        std::fs::create_dir_all(&dir)?;
        let mut body = String::new();
        for (fp, m) in &batch {
            let record = DiskRecord {
                v: SIM_KERNEL_VERSION,
                fp: Fingerprint(*fp).to_string(),
                m: (**m).clone(),
            };
            body.push_str(&serde_json::to_string(&record).expect("measurement serialises"));
            body.push('\n');
        }
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let name = format!("seg-{}-{stamp}-{seg}.jsonl", std::process::id());
        let tmp = dir.join(format!(".{name}.tmp"));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, dir.join(name))?;
        Ok(batch.len())
    }

    /// Loads disk segments into the memory tier, once, on first lookup.
    /// The disk lock is held until the memory tier is filled and the
    /// flag is cleared last, so a concurrent first lookup waits here
    /// instead of missing a point the disk holds. Lock order is flights
    /// → disk → shard; nothing takes two of them the other way round.
    fn ensure_loaded(&self) {
        if !self.inner.disk_needs_load.load(Ordering::Acquire) {
            return;
        }
        let mut disk = self.inner.disk.lock().unwrap();
        if let Some(d) = disk.as_mut().filter(|d| !d.loaded) {
            d.loaded = true;
            for (fp, m) in self.read_segments(&d.dir) {
                let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
                let cap = self.per_shard_cap();
                let mut shard = self.shard(fp).lock().unwrap();
                shard.map.entry(fp).or_insert((m, tick));
                while shard.map.len() > cap {
                    let oldest = shard.map.iter().min_by_key(|(_, (_, t))| *t).map(|(&k, _)| k);
                    match oldest {
                        Some(k) => {
                            shard.map.remove(&k);
                            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                }
            }
        }
        self.inner.disk_needs_load.store(false, Ordering::Release);
    }

    /// Parses every `*.jsonl` segment under `dir`. Each line's version
    /// is read before its row is decoded, so a line of another
    /// [`SIM_KERNEL_VERSION`] counts in `stale_skipped` whatever its
    /// row's shape. A segment is all-or-nothing: any other unparsable
    /// line (corruption, truncation) skips the whole segment with a loud
    /// stderr note, and the run proceeds without its entries.
    fn read_segments(&self, dir: &Path) -> Vec<(u128, Arc<Measurement>)> {
        let mut out = Vec::new();
        let Ok(names) = std::fs::read_dir(dir) else { return out };
        let mut paths: Vec<PathBuf> = names
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        paths.sort();
        let current = Value::U64(SIM_KERNEL_VERSION.into());
        for path in paths {
            let Ok(body) = std::fs::read_to_string(&path) else {
                eprintln!("hbm-cache: skipping unreadable segment {}", path.display());
                self.inner.disk_segments_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let mut entries = Vec::new();
            let mut bad = None;
            let mut stale = 0u64;
            for (lineno, line) in body.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let rec = match serde_json::from_str::<Value>(line) {
                    Ok(rec) if rec.get("v").is_some_and(|v| *v != current) => {
                        stale += 1;
                        continue;
                    }
                    Ok(rec) => from_value::<DiskRecord>(rec).map_err(|e| e.to_string()),
                    Err(e) => Err(e.to_string()),
                };
                match rec.map(|rec| (Fingerprint::parse(&rec.fp), rec.m)) {
                    Ok((Some(fp), m)) => entries.push((fp.0, Arc::new(m))),
                    Ok((None, _)) => {
                        bad = Some(format!("line {}: bad fingerprint", lineno + 1));
                        break;
                    }
                    Err(e) => {
                        bad = Some(format!("line {}: {e}", lineno + 1));
                        break;
                    }
                }
            }
            match bad {
                Some(why) => {
                    eprintln!(
                        "hbm-cache: skipping corrupted segment {} ({why}); \
                         delete it to silence this",
                        path.display()
                    );
                    self.inner.disk_segments_skipped.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    self.inner.stale_skipped.fetch_add(stale, Ordering::Relaxed);
                    self.inner
                        .disk_entries_loaded
                        .fetch_add(entries.len() as u64, Ordering::Relaxed);
                    self.inner.disk_segments_loaded.fetch_add(1, Ordering::Relaxed);
                    out.extend(entries);
                }
            }
        }
        out
    }

    /// Live memory-tier entry count.
    pub fn entries(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// The observability snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        let (disk_dir, pending) = {
            let disk = self.inner.disk.lock().unwrap();
            match disk.as_ref() {
                Some(d) => (Some(d.dir.display().to_string()), d.pending.len()),
                None => (None, 0),
            }
        };
        CacheSnapshot {
            enabled: self.is_enabled(),
            entries: self.entries(),
            capacity: self.inner.capacity.load(Ordering::Relaxed),
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            inserts: self.inner.inserts.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            disk_dir,
            disk_entries_loaded: self.inner.disk_entries_loaded.load(Ordering::Relaxed),
            disk_segments_loaded: self.inner.disk_segments_loaded.load(Ordering::Relaxed),
            disk_segments_skipped: self.inner.disk_segments_skipped.load(Ordering::Relaxed),
            stale_skipped: self.inner.stale_skipped.load(Ordering::Relaxed),
            pending_disk_writes: pending,
        }
    }
}

/// Aborts a leader's flight when the computation unwinds, so followers
/// wake and retry instead of deadlocking behind a poisoned point.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    fp: u128,
    flight: &'a Arc<Flight>,
}

impl FlightGuard<'_> {
    fn complete(self, m: Arc<Measurement>) {
        self.cache.inner.flights.lock().unwrap().remove(&self.fp);
        self.flight.finish(Some(m));
        std::mem::forget(self);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.cache.inner.flights.lock().unwrap().remove(&self.fp);
        self.flight.finish(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn fid() -> Fidelity {
        Fidelity::cycle(100, 300)
    }

    fn point(rotation: usize) -> (SystemConfig, Workload) {
        (SystemConfig::xilinx(), Workload { rotation, ..Workload::scs() })
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hbm-cache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let (cfg, wl) = point(1);
        let a = fingerprint(&cfg, &wl, fid());
        let b = fingerprint(&cfg, &wl, fid());
        assert_eq!(a, b, "same input, same fingerprint");
        let c = fingerprint(&cfg, &Workload { rotation: 2, ..wl }, fid());
        assert_ne!(a, c, "workload change re-keys");
        let d = fingerprint(&cfg, &wl, Fidelity::cycle(101, 300));
        assert_ne!(a, d, "fidelity change re-keys");
        let e = fingerprint_versioned(&cfg, &wl, fid(), SIM_KERNEL_VERSION + 1);
        assert_ne!(a, e, "kernel version bump re-keys");
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        let (cfg, wl) = point(3);
        let fp = fingerprint(&cfg, &wl, fid());
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse(""), None);
    }

    #[test]
    fn hit_returns_the_inserted_measurement_and_counts() {
        let cache = ResultCache::new();
        let (cfg, wl) = point(0);
        let fp = fingerprint(&cfg, &wl, fid());
        assert!(cache.get(fp).is_none());
        let m = Arc::new(measure(&cfg, wl, 100, 300));
        cache.insert(fp, m.clone());
        let got = cache.get(fp).expect("hit after insert");
        assert_eq!(serde_json::to_string(&*got).unwrap(), serde_json::to_string(&*m).unwrap());
        let snap = cache.snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.entries, 1);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ResultCache::disabled();
        let (cfg, wl) = point(0);
        let fp = fingerprint(&cfg, &wl, fid());
        cache.insert(fp, Arc::new(measure(&cfg, wl, 100, 300)));
        assert!(cache.get(fp).is_none());
        assert_eq!(cache.entries(), 0);
        // measure_cached still measures.
        let m = cache.measure_cached(&cfg, &wl, fid());
        assert!(m.cycles > 0);
    }

    #[test]
    fn lru_eviction_respects_the_bound_and_recency() {
        let cache = ResultCache::new();
        cache.set_capacity(SHARDS); // one entry per shard
        let (cfg0, wl0) = point(0);
        // Eviction only looks at keys and ticks, so one shared
        // measurement serves every key.
        let m = Arc::new(measure(&cfg0, wl0, 50, 100));
        for (cfg, wl) in (0..40).map(point) {
            cache.insert(fingerprint(&cfg, &wl, fid()), m.clone());
        }
        assert!(cache.entries() <= SHARDS, "bound holds: {}", cache.entries());
        assert!(cache.snapshot().evictions > 0, "evictions happened");
    }

    #[test]
    fn get_or_compute_runs_once_across_threads() {
        let cache = ResultCache::new();
        let (cfg, wl) = point(2);
        let fp = fingerprint(&cfg, &wl, fid());
        let runs = AtomicUsize::new(0);
        let results: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = cache.clone();
                    let runs = &runs;
                    let (cfg, wl) = (cfg.clone(), wl);
                    scope.spawn(move || {
                        let m = cache.get_or_compute(fp, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            measure(&cfg, wl, 100, 300)
                        });
                        serde_json::to_string(&*m).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "single flight computes once");
        assert!(results.windows(2).all(|w| w[0] == w[1]), "all callers agree");
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits + snap.coalesced, 7);
    }

    /// Four callers per point released together, with a compute that
    /// returns at once: a caller whose lookup missed just before the
    /// leader finished must find the row, not lead a second run.
    #[test]
    fn a_row_that_lands_after_a_missed_lookup_is_not_recomputed() {
        const THREADS: usize = 4;
        const ROUNDS: u128 = 2_000;
        let (cfg, wl) = point(3);
        let row = measure(&cfg, wl, 50, 100);
        let cache = ResultCache::new();
        let runs = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        for round in 0..ROUNDS {
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.get_or_compute(Fingerprint(round), || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            row.clone()
                        });
                    });
                }
            });
        }
        let snap = cache.snapshot();
        assert_eq!(runs.load(Ordering::Relaxed) as u128, ROUNDS, "{snap:?}");
    }

    #[test]
    fn aborted_leader_wakes_followers_who_retry() {
        let cache = ResultCache::new();
        let (cfg, wl) = point(4);
        let fp = fingerprint(&cfg, &wl, fid());
        let attempts = AtomicUsize::new(0);
        let ok: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = cache.clone();
                    let attempts = &attempts;
                    let (cfg, wl) = (cfg.clone(), wl);
                    scope.spawn(move || {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            cache.get_or_compute(fp, || {
                                // First attempt explodes; retries
                                // succeed.
                                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                                    std::thread::sleep(std::time::Duration::from_millis(20));
                                    panic!("poisoned leader");
                                }
                                measure(&cfg, wl, 100, 300)
                            })
                        }));
                        r.is_ok()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one caller re-raised the leader's panic; everyone else
        // eventually got a measurement (directly or via retry).
        assert_eq!(ok.iter().filter(|&&b| !b).count(), 1);
        assert!(cache.peek(fp).is_some(), "a retry completed the point");
    }

    #[test]
    fn disk_tier_round_trips_byte_identically() {
        let dir = tmp_dir("roundtrip");
        let (cfg, wl) = point(1);
        let fp = fingerprint(&cfg, &wl, fid());
        let fresh = measure(&cfg, wl, 100, 300);
        {
            let cache = ResultCache::with_dir(&dir);
            cache.insert(fp, Arc::new(fresh.clone()));
            assert!(cache.flush().unwrap() >= 1);
        }
        let cache = ResultCache::with_dir(&dir);
        let loaded = cache.get(fp).expect("loaded from disk");
        assert_eq!(
            serde_json::to_string(&*loaded).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "disk round trip must be byte-identical"
        );
        let snap = cache.snapshot();
        assert_eq!(snap.disk_segments_loaded, 1);
        assert_eq!(snap.disk_entries_loaded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_first_lookups_on_a_warm_directory_all_hit() {
        const THREADS: usize = 8;
        const KEYS: usize = 200;
        let dir = tmp_dir("warm-race");
        let (cfg, wl) = point(0);
        let keys: Vec<Fingerprint> = (0..KEYS as u64)
            .map(|seed| fingerprint(&cfg, &Workload { seed, ..wl }, fid()))
            .collect();
        {
            // One row under many keys: a segment that takes a while to
            // load, so the threads below meet inside the load.
            let m = Arc::new(measure(&cfg, wl, 50, 100));
            let cache = ResultCache::with_dir(&dir);
            for &k in &keys {
                cache.insert(k, m.clone());
            }
            cache.flush().unwrap();
        }
        let cache = ResultCache::with_dir(&dir);
        let barrier = std::sync::Barrier::new(THREADS);
        let hit: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, barrier, key) = (&cache, &barrier, keys[t * KEYS / THREADS]);
                    scope.spawn(move || {
                        barrier.wait();
                        cache.get(key).is_some()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let snap = cache.snapshot();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(hit.iter().all(|&h| h), "every first lookup must hit: {hit:?}");
        assert_eq!((snap.hits, snap.disk_entries_loaded), (THREADS as u64, KEYS as u64));
    }

    #[test]
    fn corrupted_segment_is_skipped_and_run_proceeds() {
        let dir = tmp_dir("corrupt");
        let (cfg, wl) = point(1);
        let fp = fingerprint(&cfg, &wl, fid());
        {
            let cache = ResultCache::with_dir(&dir);
            cache.insert(fp, Arc::new(measure(&cfg, wl, 100, 300)));
            cache.flush().unwrap();
        }
        // Truncate the good segment mid-line: now corrupt.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .expect("one segment exists");
        let body = std::fs::read_to_string(&seg).unwrap();
        std::fs::write(&seg, &body[..body.len() / 2]).unwrap();

        let cache = ResultCache::with_dir(&dir);
        assert!(cache.get(fp).is_none(), "corrupt segment contributes nothing");
        let snap = cache.snapshot();
        assert_eq!(snap.disk_segments_skipped, 1);
        assert_eq!(snap.disk_segments_loaded, 0);
        // The cache still works for fresh work.
        let m = cache.measure_cached(&cfg, &wl, fid());
        assert!(m.cycles > 0);
        assert!(cache.peek(fp).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_kernel_version_entries_never_resurface() {
        let dir = tmp_dir("stale");
        let (cfg, wl) = point(2);
        let fp = fingerprint(&cfg, &wl, fid());
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-write a segment from a previous kernel version.
        let m = measure(&cfg, wl, 100, 300);
        let rec = DiskRecord { v: SIM_KERNEL_VERSION.wrapping_sub(1), fp: fp.to_string(), m };
        let line = serde_json::to_string(&rec).unwrap();
        std::fs::write(dir.join("seg-old.jsonl"), format!("{line}\n")).unwrap();

        let cache = ResultCache::with_dir(&dir);
        assert!(cache.get(fp).is_none(), "stale entry must not hit");
        let snap = cache.snapshot();
        assert_eq!(snap.stale_skipped, 1);
        assert_eq!(snap.disk_segments_loaded, 1, "segment itself is healthy");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A current-version line whose row holds a count too wide for its
    /// field (a bucket of 2^32 + 1, which a truncating decode reads as 1)
    /// is corrupt: it never serves, and its segment is skipped.
    #[test]
    fn an_out_of_range_count_corrupts_its_segment() {
        let dir = tmp_dir("wide");
        let (cfg, wl) = point(3);
        let fp = fingerprint(&cfg, &wl, fid());
        std::fs::create_dir_all(&dir).unwrap();
        let m = measure(&cfg, wl, 100, 300);
        let rec = DiskRecord { v: SIM_KERNEL_VERSION, fp: fp.to_string(), m };
        let line = serde_json::to_string(&rec).unwrap();
        let wide = line.replacen("\"buckets\":[0,", "\"buckets\":[4294967297,", 1);
        assert_ne!(wide, line, "the row has a bucket to widen");
        std::fs::write(dir.join("seg-wide.jsonl"), format!("{wide}\n")).unwrap();

        let cache = ResultCache::with_dir(&dir);
        assert!(cache.get(fp).is_none(), "a row with an out-of-range count must not hit");
        let snap = cache.snapshot();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((snap.disk_segments_skipped, snap.disk_segments_loaded), (1, 0));
    }

    /// A line written under version 2, in that version's row encoding
    /// (`f64` latency sums, 24 buckets), counts as stale, not corrupt,
    /// and so does a version-2 line whose row does not decode at all.
    #[test]
    fn old_version_lines_are_stale_whatever_their_row_shape() {
        const V2_LINE: &str = concat!(
            r#"{"v":2,"fp":"bd8bf73143646535c916e3e5cc339953","m":{"cycles":4000,"#,
            r#""clock":{"freq_mhz":300},"gen":{"issued":7584,"completed":7520,"#,
            r#""bytes_read":0,"bytes_written":3850240,"read_lat":{"n":0,"sum":0.0,"#,
            r#""sum_sq":0.0,"min":0,"max":0,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
            r#"0,0,0,0,0,0,0,0]},"write_lat":{"n":7520,"sum":1254688.0,"#,
            r#""sum_sq":209874528.0,"min":132,"max":170,"buckets":[0,0,0,0,0,0,0,7520,"#,
            r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}},"mem":{"bytes_read":0,"#,
            r#""bytes_written":3865088,"page_hits":3699,"page_closed":1744,"#,
            r#""page_misses":2106,"turnarounds":0,"refreshes":110,"#,
            r#""busy_ns":268408.88888888934,"stall_ns":116057.55555555642},"#,
            r#""fabric":{"ingress":{"flits":7584,"beats":121344,"grant_switches":0},"#,
            r#""egress":{"flits":7520,"beats":7520,"grant_switches":7520},"#,
            r#""mc_links":{"flits":15040,"beats":127840,"grant_switches":7520},"#,
            r#""lateral_right":[],"lateral_left":[],"id_stall_cycles":0},"#,
            r#""device_gbps":460.79999999999995}}"#,
        );
        let loaded = |dir: &Path| {
            let cache = ResultCache::with_dir(dir);
            assert!(cache.peek(Fingerprint(0)).is_none());
            cache.snapshot()
        };
        let dir = tmp_dir("v2");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-v2.jsonl"), format!("{V2_LINE}\n")).unwrap();
        let snap = loaded(&dir);
        assert_eq!((snap.stale_skipped, snap.disk_segments_skipped), (1, 0));

        let shapeless = r#"{"v":2,"fp":"bd8bf73143646535c916e3e5cc339953","m":{}}"#;
        std::fs::write(dir.join("seg-v2-shapeless.jsonl"), format!("{shapeless}\n")).unwrap();
        let snap = loaded(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((snap.stale_skipped, snap.disk_segments_skipped), (2, 0));
        assert_eq!(snap.disk_segments_loaded, 2);
    }

    #[test]
    fn clear_empties_the_memory_tier() {
        let cache = ResultCache::new();
        let (cfg, wl) = point(0);
        let fp = fingerprint(&cfg, &wl, fid());
        cache.insert(fp, Arc::new(measure(&cfg, wl, 50, 100)));
        assert_eq!(cache.entries(), 1);
        cache.clear();
        assert_eq!(cache.entries(), 0);
        assert!(cache.get(fp).is_none());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let cache = ResultCache::with_dir(tmp_dir("snap"));
        let snap = cache.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: CacheSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
