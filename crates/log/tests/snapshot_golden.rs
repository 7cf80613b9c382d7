//! The snapshot encoder's output is pinned byte for byte: the genesis
//! anchor of every existing log is the digest of its seed snapshot body,
//! so any change to the encoding would orphan those logs. The digests
//! below were computed by the original per-line encoder.

use tg_gen::{generate, CampaignKind, Family, GenConfig};
use tg_graph::parse_graph;
use tg_hierarchy::policy::parse_policy;
use tg_hierarchy::{CombinedRestriction, MonitorStats};
use tg_log::{fnv1a, seed_digest, CommitLog, LogConfig, MemStore, Snapshot, Store};

/// `(fixture stem, seed digest)` for the committed corpus.
const CORPUS: &[(&str, u64)] = &[
    ("antichain-small", 0x1deae6c68b328438),
    ("chain-small", 0xa9e727a7e201f570),
    ("conspiracy-military", 0x63e037ebab4b139e),
    ("dag-small", 0x409d46111d18145a),
    ("military-small", 0x03dc8eb025f60061),
    ("trojan-chain", 0x8905fb605dc2a65d),
];

#[test]
fn corpus_seed_digests_are_unchanged() {
    let dir =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/graphs/corpus");
    for &(stem, digest) in CORPUS {
        let read = |ext: &str| std::fs::read_to_string(dir.join(format!("{stem}.{ext}"))).unwrap();
        let graph = parse_graph(&read("tg")).unwrap();
        let levels = parse_policy(&read("pol"), &graph).unwrap();
        assert_eq!(seed_digest(&graph, &levels), digest, "{stem}");
    }
}

#[test]
fn military_scale_8000_seed_digest_is_unchanged() {
    let scenario = generate(
        &GenConfig::new(Family::Military, 8000, 1).with_campaign(CampaignKind::Conspiracy),
    );
    assert_eq!(scenario.graph.vertex_count(), 8068);
    assert_eq!(
        seed_digest(&scenario.graph, &scenario.levels),
        0x57b88ce7b31a8328
    );
}

#[test]
fn the_seed_snapshot_is_the_encoded_seed_state() {
    // `create` encodes the seed body once for both the genesis anchor
    // and the epoch-0 snapshot; the file must equal the ordinary
    // encoding of that state and hash to the anchor.
    let scenario = generate(&GenConfig::new(Family::Dag, 40, 3));
    let store = MemStore::new();
    let (log, _) = CommitLog::create(
        Box::new(store.clone()),
        scenario.graph.clone(),
        scenario.levels.clone(),
        Box::new(CombinedRestriction),
        LogConfig::default(),
    )
    .unwrap();
    let genesis = seed_digest(&scenario.graph, &scenario.levels);
    assert_eq!(log.genesis(), genesis);
    let file = store
        .read(&tg_log::snapshot::file_name(0))
        .unwrap()
        .unwrap();
    let expected = Snapshot {
        epoch: 0,
        chain_hash: genesis,
        graph: scenario.graph,
        levels: scenario.levels,
        stats: MonitorStats::default(),
    }
    .encode();
    assert_eq!(String::from_utf8(file).unwrap(), expected);
    let (_, body) = expected.split_once('\n').unwrap();
    assert_eq!(fnv1a(body.as_bytes()), genesis);
}
