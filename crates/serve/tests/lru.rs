//! Unit-level tests for the model registry's lazy-loading LRU: eviction
//! order, pin protection, capacity-1 thrash, tracing of reloaded models,
//! and id stability for foreign snapshot names.

use std::path::PathBuf;

use kamino_core::{fit_kamino, FittedKamino, KaminoConfig};
use kamino_dp::Budget;
use kamino_obs::ObsHandle;
use kamino_serve::pool::Format;
use kamino_serve::registry::{Registry, SlotStatus};
use kamino_serve::PoolConfig;

fn tiny_fitted(seed: u64) -> FittedKamino {
    let d = kamino_datasets::adult_like(80, 3);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.train_scale = 0.02;
    cfg.embed_dim = 8;
    cfg.seed = seed;
    fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kamino-lru-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn status_name(registry: &Registry, id: u64) -> &'static str {
    registry.get(id).unwrap().status.lock().unwrap().name()
}

#[test]
fn eviction_follows_least_recently_touched_order() {
    let dir = temp_dir("order");
    let obs = ObsHandle::enabled();
    let registry = Registry::new(2, PoolConfig::disabled(), Some(dir.clone()), &obs);
    for seed in [31, 32, 33] {
        let slot = registry.create_fitting();
        assert!(registry.finish_fit(&slot, Ok(tiny_fitted(seed)), true));
    }
    // the third install pushed the registry over capacity: the oldest
    // touch (model 1) must be the one evicted
    assert_eq!(status_name(&registry, 1), "unloaded");
    assert_eq!(status_name(&registry, 2), "ready");
    assert_eq!(status_name(&registry, 3), "ready");
    registry.publish_gauges();
    let metrics = obs.render_prometheus();
    assert!(
        metrics.contains("\nkamino_resident_models 2\n"),
        "{metrics}"
    );
    assert!(metrics.contains("\nkamino_open_models 3\n"), "{metrics}");
    assert_eq!(registry.evictions.get(), 1);
    assert!(dir.join("model-1.kamino").is_file());

    // touch 2 so 3 becomes the LRU, then reload 1: 3 must be evicted
    let slot2 = registry.get(2).unwrap();
    registry.touch(&slot2);
    let slot1 = registry.get(1).unwrap();
    registry.ensure_resident(&slot1).unwrap();
    assert_eq!(status_name(&registry, 1), "ready");
    assert_eq!(status_name(&registry, 2), "ready");
    assert_eq!(status_name(&registry, 3), "unloaded");
    assert_eq!(registry.loads.get(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reloaded_models_sample_under_the_registry_handle() {
    let dir = temp_dir("reload-obs");
    let obs = ObsHandle::enabled();
    let registry = Registry::new(1, PoolConfig::disabled(), Some(dir.clone()), &obs);
    let slot_a = registry.create_fitting();
    assert!(registry.finish_fit(&slot_a, Ok(tiny_fitted(71)), true));
    let slot_b = registry.create_fitting();
    assert!(registry.finish_fit(&slot_b, Ok(tiny_fitted(72)), true));
    // B's install evicted A; serving A reloads it from its snapshot
    assert_eq!(status_name(&registry, slot_a.id), "unloaded");
    let sample_spans = || obs.spans().iter().filter(|s| s.name == "sample").count();
    let before = sample_spans();
    serve_rows(&registry, slot_a.id, 4);
    assert_eq!(registry.loads.get(), 1);
    assert!(
        sample_spans() > before,
        "a draw from a reloaded model must record a `sample` span"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pinned_models_are_never_evicted() {
    let dir = temp_dir("pins");
    let registry = Registry::new(
        1,
        PoolConfig::disabled(),
        Some(dir.clone()),
        &ObsHandle::disabled(),
    );
    let slot_a = registry.create_fitting();
    assert!(registry.finish_fit(&slot_a, Ok(tiny_fitted(41)), true));
    let slot_b = registry.create_fitting();
    assert!(registry.finish_fit(&slot_b, Ok(tiny_fitted(42)), true));
    // B's install evicted A (capacity 1)
    assert_eq!(status_name(&registry, slot_a.id), "unloaded");

    // pin A while it streams: reloading it must evict B, and no amount
    // of pressure may push A out while the pin lives
    let pin = registry.pin(&slot_a);
    registry.ensure_resident(&slot_a).unwrap();
    assert_eq!(status_name(&registry, slot_a.id), "ready");
    registry.ensure_resident(&slot_b).unwrap();
    registry.evict_over_capacity();
    assert_eq!(
        status_name(&registry, slot_a.id),
        "ready",
        "a pinned model must survive eviction pressure"
    );
    // over capacity with one unpinned candidate: B went back to disk
    assert_eq!(status_name(&registry, slot_b.id), "unloaded");

    // dropping the pin makes A evictable again
    drop(pin);
    registry.ensure_resident(&slot_b).unwrap();
    assert_eq!(status_name(&registry, slot_a.id), "unloaded");
    assert_eq!(status_name(&registry, slot_b.id), "ready");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Serves `rows` from a slot's pool/model under the registry, the way a
/// worker batch job does.
fn serve_rows(registry: &Registry, id: u64, rows: usize) -> String {
    let slot = registry.get(id).unwrap();
    registry.ensure_resident(&slot).unwrap();
    let mut guard = slot.resident.lock().unwrap();
    let r = guard.as_mut().unwrap();
    let (text, n, _hit) = r.pool.take_batch(&mut r.fitted, rows, Format::Csv).unwrap();
    assert_eq!(n as usize, rows);
    text.to_string()
}

#[test]
fn capacity_one_thrash_keeps_both_streams_byte_exact() {
    let dir = temp_dir("thrash");
    let pool_cfg = PoolConfig {
        batches: 2,
        rows: 5,
    };
    let registry = Registry::new(1, pool_cfg, Some(dir.clone()), &ObsHandle::enabled());
    let slot_a = registry.create_fitting();
    assert!(registry.finish_fit(&slot_a, Ok(tiny_fitted(51)), true));
    let slot_b = registry.create_fitting();
    assert!(registry.finish_fit(&slot_b, Ok(tiny_fitted(52)), true));
    let (a, b) = (slot_a.id, slot_b.id);

    // speculate ahead on whichever model is resident so evictions have
    // real speculation to rewind
    let refill = |id: u64| {
        let slot = registry.get(id).unwrap();
        let mut guard = slot.resident.lock().unwrap();
        if let Some(r) = guard.as_mut() {
            r.pool.refill_one(&mut r.fitted);
        }
    };

    // reference streams: the same snapshots decoded once, never evicted
    let mut ref_a = kamino_serve::load_fitted(&dir.join(format!("model-{a}.kamino"))).unwrap();
    let mut ref_b = kamino_serve::load_fitted(&dir.join(format!("model-{b}.kamino"))).unwrap();
    let expect = |f: &mut FittedKamino, rows: usize| {
        let inst = f.sample(rows);
        kamino_data::csv::rows_text(f.schema(), &inst).unwrap()
    };

    // interleave the two models through a single residency slot; every
    // serve evicts the other model mid-stream
    for round in 0..3 {
        refill(a);
        let got = serve_rows(&registry, a, 5);
        assert_eq!(got, expect(&mut ref_a, 5), "model A round {round}");
        // misaligned size on B forces the rewind path under thrash too
        let rows_b = if round == 1 { 3 } else { 5 };
        let got = serve_rows(&registry, b, rows_b);
        assert_eq!(got, expect(&mut ref_b, rows_b), "model B round {round}");
    }
    let evictions = registry.evictions.get();
    assert!(
        evictions >= 5,
        "capacity-1 interleave must thrash (got {evictions} evictions)"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn boot_scan_keeps_server_ids_and_numbers_foreign_snapshots_after() {
    let dir = temp_dir("foreign");
    // a server-written snapshot with an embedded id, plus two foreign
    // files an operator dropped in
    kamino_serve::save_fitted(&tiny_fitted(61), &dir.join("model-3.kamino")).unwrap();
    kamino_serve::save_fitted(&tiny_fitted(62), &dir.join("alpha.kamino")).unwrap();
    kamino_serve::save_fitted(&tiny_fitted(63), &dir.join("beta.kamino")).unwrap();
    // and one file that is not a snapshot at all: skipped, not fatal
    std::fs::write(dir.join("junk.kamino"), b"not a snapshot").unwrap();

    let registry = Registry::new(
        0,
        PoolConfig::disabled(),
        Some(dir.clone()),
        &ObsHandle::disabled(),
    );
    registry.boot_scan().unwrap();
    assert_eq!(registry.len(), 3);
    // model-3 keeps its id; foreign names get the next free ids in
    // sorted-path order
    let ids: Vec<u64> = registry.list().iter().map(|s| s.id).collect();
    assert_eq!(ids, vec![3, 4, 5]);
    assert_eq!(
        registry.get(3).unwrap().snapshot_path().unwrap(),
        dir.join("model-3.kamino")
    );
    assert_eq!(
        registry.get(4).unwrap().snapshot_path().unwrap(),
        dir.join("alpha.kamino")
    );
    // nothing was decoded at boot
    for slot in registry.list() {
        assert!(matches!(
            &*slot.status.lock().unwrap(),
            SlotStatus::Unloaded(None)
        ));
    }
    // a fresh fit takes the next free id after the scan
    let slot = registry.create_fitting();
    assert_eq!(slot.id, 6);

    let _ = std::fs::remove_dir_all(&dir);
}
