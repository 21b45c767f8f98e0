//! The result cache must be invisible in the results: a cache hit —
//! memory tier, disk tier, or a coalesced in-flight computation — is
//! byte-identical (as serialised JSON) to running the simulation fresh,
//! for every fabric and fidelity. Damaged or stale disk state may only
//! ever cause *recomputation*, never a wrong answer. See DESIGN.md §3.5
//! for the fingerprint and invalidation contract these tests enforce.

use std::path::PathBuf;

use hbm_fpga::core::analytic::{predict, Calibration};
use hbm_fpga::core::batch::{run_grid_with_cache, GridPoint};
use hbm_fpga::core::cache::{fingerprint, fingerprint_versioned, SIM_KERNEL_VERSION};
use hbm_fpga::core::experiment::Fidelity;
use hbm_fpga::core::measure::{measure, measured_system, snapshot, Measurement};
use hbm_fpga::core::prelude::*;
use hbm_fpga::core::ResultCache;
use serde::value::{to_value, Value};

/// Serialises a measurement the same way the wire and the disk tier do;
/// "byte-identical" throughout this suite means equality of these
/// strings.
fn bytes(m: &Measurement) -> String {
    serde_json::to_string(m).expect("measurement serialises")
}

fn config_for(fabric_sel: usize) -> SystemConfig {
    match fabric_sel {
        0 => SystemConfig::xilinx(),
        1 => SystemConfig::mao(),
        2 => SystemConfig { fabric: FabricKind::FullCrossbar, ..SystemConfig::xilinx() },
        _ => SystemConfig::direct(),
    }
}

fn workload_for(fabric_sel: usize, pattern_sel: usize, seed: u64) -> Workload {
    // The direct fabric only routes master i -> port i; keep it on local
    // patterns, as the fast-path equivalence suite does.
    let pattern = if fabric_sel == 3 {
        if pattern_sel.is_multiple_of(2) {
            Pattern::Scs
        } else {
            Pattern::Scra
        }
    } else {
        match pattern_sel {
            0 => Pattern::Scs,
            1 => Pattern::Ccs,
            2 => Pattern::Scra,
            _ => Pattern::Ccra,
        }
    };
    Workload { pattern, seed, ..Workload::scs() }
}

/// A fresh per-test scratch directory under the system temp dir; `tag`
/// must be unique per concurrent use.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hbm-cache-equiv-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Memory-tier hits are byte-identical to a fresh run for every
        /// fabric × pattern × fidelity, and the counters prove the
        /// second read really was a hit.
        #[test]
        fn memory_hits_are_byte_identical_to_fresh_runs(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            (warmup, cycles) in proptest::sample::select(
                vec![(100u64, 300u64), (250, 750), (500, 1_500)],
            ),
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, seed);
            let fid = Fidelity::cycle(warmup, cycles);

            let fresh = measure(&cfg, wl, warmup, cycles);

            let cache = ResultCache::new();
            let first = cache.measure_cached(&cfg, &wl, fid);
            let second = cache.measure_cached(&cfg, &wl, fid);

            prop_assert_eq!(bytes(&first), bytes(&fresh), "miss path diverged");
            prop_assert_eq!(bytes(&second), bytes(&fresh), "hit diverged from fresh run");
            let snap = cache.snapshot();
            prop_assert_eq!(snap.hits, 1, "second read must be a memory hit");
            prop_assert_eq!(snap.misses, 1);
        }

        /// Disk-tier hits — a flush, then a brand-new cache instance
        /// lazily loading the same directory — are byte-identical too,
        /// across every fabric. This is the cross-*process* reuse path,
        /// so it exercises the full serialise → segment → parse round
        /// trip of the `f64`-bearing measurement.
        #[test]
        fn disk_hits_are_byte_identical_across_cache_instances(
            fabric_sel in 0usize..4,
            pattern_sel in 0usize..4,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = config_for(fabric_sel);
            let wl = workload_for(fabric_sel, pattern_sel, seed);
            let fid = Fidelity::cycle(100, 300);
            // Unique per proptest case: many cases share one thread.
            let dir = tmp_dir(&format!("disk-{}", fingerprint(&cfg, &wl, fid)));

            let writer = ResultCache::with_dir(&dir);
            let cold = writer.measure_cached(&cfg, &wl, fid);
            writer.flush().expect("flush segment");

            let reader = ResultCache::with_dir(&dir);
            let warm = reader.measure_cached(&cfg, &wl, fid);
            let snap = reader.snapshot();
            let _ = std::fs::remove_dir_all(&dir);

            prop_assert_eq!(bytes(&warm), bytes(&cold), "disk round trip diverged");
            prop_assert_eq!(snap.hits, 1, "reader must hit the loaded segment");
            prop_assert_eq!(snap.disk_entries_loaded, 1);
        }
    }
}

/// Bumping `SIM_KERNEL_VERSION` must orphan every existing entry: the
/// version participates in the fingerprint, and segments written under a
/// different version are skipped (counted, not trusted) at load.
#[test]
fn kernel_version_bump_invalidates_disk_entries() {
    let cfg = SystemConfig::xilinx();
    let wl = Workload { rotation: 2, ..Workload::scs() };
    let fid = Fidelity::cycle(100, 300);

    let fp = fingerprint(&cfg, &wl, fid);
    assert_ne!(
        fp,
        fingerprint_versioned(&cfg, &wl, fid, SIM_KERNEL_VERSION + 1),
        "version must participate in the fingerprint"
    );

    // A segment written by a hypothetical *future* kernel: same key
    // text, different version field. It must not be served.
    let fresh = measure(&cfg, wl, fid.warmup, fid.cycles);
    let dir = tmp_dir("verbump");
    std::fs::create_dir_all(&dir).unwrap();
    let line = serde_json::json!({
        "v": SIM_KERNEL_VERSION + 1,
        "fp": fp.to_string(),
        "m": fresh.clone(),
    });
    std::fs::write(dir.join("seg-future.jsonl"), format!("{line}\n")).unwrap();

    let cache = ResultCache::with_dir(&dir);
    let got = cache.measure_cached(&cfg, &wl, fid);
    let snap = cache.snapshot();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(bytes(&got), bytes(&fresh), "recomputation must match");
    assert_eq!(snap.hits, 0, "stale-version entry must not be served");
    assert_eq!(snap.misses, 1);
    assert_eq!(snap.stale_skipped, 1, "stale entry is counted, not loaded");
}

/// Rows cached before a `Measurement` stopped carrying per-master stats
/// stay valid: a segment line in that layout (the same fields plus a
/// `per_master` array after `gen`) at the current kernel version loads
/// as a hit, and the row it yields is byte-identical to a fresh run.
/// Dropping a field no reader uses moves no counter, so it bumps no
/// version (DESIGN.md §3.5).
#[test]
fn rows_cached_with_per_master_stats_still_hit() {
    let cfg = SystemConfig::xilinx();
    let wl = Workload::ccra();
    let fid = Fidelity::cycle(100, 300);
    let sys = measured_system(&cfg, wl, fid.warmup, fid.cycles);
    let Value::Map(mut fields) = to_value(&snapshot(&sys, fid.cycles)) else {
        panic!("a measurement serialises to a map")
    };
    let gen = fields.iter().position(|(k, _)| k == "gen").expect("rows carry `gen`");
    fields.insert(gen + 1, ("per_master".to_string(), to_value(&sys.gen_stats())));
    let line = serde_json::json!({
        "v": SIM_KERNEL_VERSION,
        "fp": fingerprint(&cfg, &wl, fid).to_string(),
        "m": Value::Map(fields),
    })
    .to_string();
    let dir = tmp_dir("per-master");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-per-master.jsonl"), format!("{line}\n")).unwrap();

    let cache = ResultCache::with_dir(&dir);
    let got = cache.measure_cached(&cfg, &wl, fid);
    let snap = cache.snapshot();
    let _ = std::fs::remove_dir_all(&dir);

    let fresh = bytes(&measure(&cfg, wl, fid.warmup, fid.cycles));
    let old: Value = serde_json::from_str(&line).unwrap();
    assert!(
        matches!(old.get("m").and_then(|m| m.get("per_master")), Some(Value::Seq(s)) if s.len() == 32),
        "the old line carries 32 masters' stats"
    );
    assert_eq!((snap.hits, snap.misses, snap.disk_segments_skipped), (1, 0, 0));
    assert_eq!(bytes(&got), fresh, "a row read from the old layout must match a fresh run");
}

/// Analytical points never touch the cache: an enabled cache returns
/// the model's row byte for byte, and counts, stores and flushes
/// nothing — neither through `measure_cached` nor through the admission
/// lookup `cached`. The row therefore always reflects the active
/// calibration, whatever was cached before.
#[test]
fn analytical_points_bypass_the_cache() {
    let dir = tmp_dir("analytical");
    let cache = ResultCache::with_dir(&dir);
    let fid = Fidelity::ANALYTICAL;
    for fabric_sel in 0..4 {
        let cfg = config_for(fabric_sel);
        let wl = workload_for(fabric_sel, fabric_sel, 7);
        let want = bytes(&predict(&cfg, &wl, fid, Calibration::active()));
        assert_eq!(bytes(&cache.measure_cached(&cfg, &wl, fid)), want);
        assert_eq!(bytes(&cache.measure_cached(&cfg, &wl, fid)), want, "no hit, no drift");
        assert!(cache.cached(&cfg, &wl, fid).is_none(), "analytical rows are never cached");
    }
    let flushed = cache.flush().expect("flush");
    let snap = cache.snapshot();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(flushed, 0, "nothing was buffered for the disk tier");
    assert_eq!(
        (snap.hits, snap.misses, snap.coalesced, snap.inserts, snap.entries),
        (0, 0, 0, 0, 0),
        "{snap:?}"
    );
}

/// A segment truncated mid-write (the crash the write-then-rename
/// protocol defends against, simulated by force) must only cost
/// recomputation: the damaged segment is skipped whole and the grid
/// still comes back byte-identical to an uncached run.
#[test]
fn truncated_segment_causes_recomputation_not_corruption() {
    let grid: Vec<GridPoint> = [0usize, 1, 2, 4]
        .iter()
        .map(|&rotation| (SystemConfig::xilinx(), Workload { rotation, ..Workload::scs() }))
        .collect();
    let (warmup, cycles) = (100, 300);

    let dir = tmp_dir("truncate");
    let writer = ResultCache::with_dir(&dir);
    run_grid_with_cache(&grid, warmup, cycles, 2, &writer);
    writer.flush().expect("flush segment");

    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .expect("one segment exists");
    let body = std::fs::read_to_string(&seg).unwrap();
    std::fs::write(&seg, &body[..body.len() / 2]).unwrap();

    let fresh = run_grid_with_cache(&grid, warmup, cycles, 2, &ResultCache::disabled());
    let reader = ResultCache::with_dir(&dir);
    let reread = run_grid_with_cache(&grid, warmup, cycles, 2, &reader);
    let snap = reader.snapshot();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(reread.len(), fresh.len());
    for (got, want) in reread.iter().zip(&fresh) {
        assert_eq!(bytes(got), bytes(want), "recovery run diverged");
    }
    assert_eq!(snap.disk_segments_skipped, 1, "damaged segment skipped whole");
    assert_eq!(snap.hits, 0, "nothing from the damaged segment is trusted");
    assert_eq!(snap.misses, grid.len() as u64);
}

/// Two rival serve jobs over the same grid share one flight per point:
/// the cache's misses show each point simulated exactly once (the
/// second taker's worker hits or waits on the first one's flight),
/// both jobs get every row, and the rows are byte-identical to a direct
/// uncached run.
#[test]
fn rival_serve_jobs_never_double_simulate_a_point() {
    use hbm_fpga::serve::{Event, JobSpec, RowStatus, ServeConfig, Server};

    let fid = Fidelity::cycle(100, 400);
    let grid: Vec<GridPoint> = [0usize, 1, 2, 3, 4, 6]
        .iter()
        .map(|&rotation| (SystemConfig::xilinx(), Workload { rotation, ..Workload::scs() }))
        .collect();
    let fresh = run_grid_with_cache(&grid, fid.warmup, fid.cycles, 2, &ResultCache::disabled());

    // Paused start: both jobs are queued before any worker claims, so
    // every point genuinely has two takers.
    let server = Server::spawn(ServeConfig {
        workers: 2,
        cache: Some(ResultCache::new()),
        ..ServeConfig::default()
    });
    let handle = server.handle();
    handle.pause();
    let a = handle.submit(JobSpec::new("rival-a", fid, grid.clone())).expect("admit a");
    let b = handle.submit(JobSpec::new("rival-b", fid, grid.clone())).expect("admit b");
    let (rx_a, rx_b) = (handle.subscribe(a).unwrap(), handle.subscribe(b).unwrap());
    handle.resume();

    for rx in [rx_a, rx_b] {
        let mut slots: Vec<Option<Measurement>> = vec![None; grid.len()];
        for ev in rx {
            match ev {
                Event::Row(row) => {
                    assert_eq!(row.status, RowStatus::Done, "point {} must succeed", row.index);
                    slots[row.index] = row.measurement;
                }
                Event::End { .. } => break,
            }
        }
        for (i, slot) in slots.iter().enumerate() {
            let got = slot.as_ref().expect("every index streamed");
            assert_eq!(bytes(got), bytes(&fresh[i]), "served row {i} diverged");
        }
    }

    let stats = handle.stats();
    assert_eq!(stats.rows_done, 2 * grid.len() as u64, "both jobs got every row");
    assert_eq!(stats.cache_misses, grid.len() as u64, "each point simulated exactly once");
    assert_eq!(
        stats.cache_hits + stats.cache_coalesced,
        grid.len() as u64,
        "the second taker of each point must hit or coalesce, never simulate"
    );
    server.shutdown();
}
