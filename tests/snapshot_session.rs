//! Session durability through the facade: fit → save → load → sample
//! must produce a byte-identical row stream to an uninterrupted session,
//! and hard-DC guarantees must survive the round trip.

use kamino::constraints::violation_percentage;
use kamino::datasets::Corpus;
use kamino::prelude::*;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kamino-session-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn saved_session_resumes_byte_identical_stream() {
    let d = Corpus::Adult.generate(200, 21);
    let mut cfg = KaminoConfig::new(Budget::new(1.0, 1e-6));
    cfg.seed = 23;
    cfg.train_scale = 0.05;
    let mut live = fit_kamino(&d.schema, &d.instance, &d.dcs, &cfg);

    // advance the stream: two batches consumed before the snapshot
    live.sample(60);
    live.sample(60);

    let path = tmp_path("resume.kamino");
    save_fitted(&live, &path).unwrap();
    let mut loaded = load_fitted(&path).unwrap();

    assert_eq!(loaded.achieved_epsilon(), live.achieved_epsilon());
    assert_eq!(loaded.sequence, live.sequence);
    assert_eq!(loaded.weights, live.weights);

    // the continuation streams are byte-identical, batch boundaries and all
    let sizes = [40, 40, 40, 30];
    let a: Vec<_> = sizes.iter().map(|&n| live.sample(n)).collect();
    let b: Vec<_> = sizes.iter().map(|&n| loaded.sample(n)).collect();
    assert_eq!(a, b);

    // hard DCs hold in post-restore batches exactly as in live ones
    for batch in &b {
        for dc in &d.dcs {
            assert_eq!(
                violation_percentage(dc, batch),
                0.0,
                "hard DC {} violated after restore",
                dc.name
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn loading_garbage_fails_cleanly() {
    let path = tmp_path("garbage.kamino");
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    match load_fitted(&path) {
        Err(SnapshotError::BadMagic) => {}
        Err(other) => panic!("expected BadMagic, got {other}"),
        Ok(_) => panic!("garbage file loaded"),
    }
    std::fs::remove_file(&path).unwrap();
    match load_fitted(&tmp_path("does-not-exist.kamino")) {
        Err(SnapshotError::Io(_)) => {}
        Err(other) => panic!("expected Io, got {other}"),
        Ok(_) => panic!("missing file loaded"),
    }
}
