//! `TGS1` epoch snapshots: the full monitor state at one chain epoch.
//!
//! A snapshot is plain text. The first line is the header:
//!
//! ```text
//! TGS1 <epoch> <chain-hash-hex16> <body-digest-hex16>
//! ```
//!
//! `chain-hash` is the chain hash at `epoch` (the genesis digest for
//! epoch 0), tying the snapshot to one exact point of one exact history;
//! `body-digest` is the FNV-1a digest of everything after the header
//! line, so a truncated or edited snapshot is rejected rather than
//! silently loaded. The body:
//!
//! ```text
//! g <vertex-count>
//! v <subject|object> <name>          one per vertex, in id order
//! e <src> <dst> <explicit> <implicit>  one per live edge, in (src,dst) order
//! L <level-count>
//! l <name>                           one per level, in index order
//! d <h> <l>                          every strict dominance pair
//! a <vertex> <level>                 one per assigned vertex, in id order
//! s <permitted> <denied> <malformed> <refused> <quarantined> <recoveries>
//! ```
//!
//! This codec is index-based on purpose: rule-created vertices may share
//! a display name, which the name-keyed text format
//! ([`tg_graph::parse_graph`]) rejects, and recovery must reproduce the
//! live graph *structurally* (dense ids and all), not just up to
//! renaming. Decoding rebuilds through the ordinary graph and level
//! constructors, so a decoded snapshot compares equal (`==`) to the
//! state it was taken from.

use core::fmt;
use core::fmt::Write as _;

use tg_graph::{ProtectionGraph, Rights, VertexId, VertexKind};
use tg_hierarchy::{LevelAssignment, MonitorStats};

use crate::digest::{fnv1a, hex16, parse_hex16};

/// Magic first token of every snapshot file.
pub const MAGIC: &str = "TGS1";

/// Why a snapshot was rejected. Recovery treats a rejected snapshot as
/// absent and falls back to an older one; only when *no* snapshot
/// survives does it fail closed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotError {
    /// Human-readable description.
    pub detail: String,
}

impl SnapshotError {
    fn new(detail: impl Into<String>) -> SnapshotError {
        SnapshotError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid snapshot: {}", self.detail)
    }
}

impl std::error::Error for SnapshotError {}

/// A decoded (or to-be-encoded) snapshot.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// The chain epoch this state corresponds to.
    pub epoch: u64,
    /// The chain hash at that epoch.
    pub chain_hash: u64,
    /// The protection graph.
    pub graph: ProtectionGraph,
    /// The classification.
    pub levels: LevelAssignment,
    /// The monitor's counters at that epoch.
    pub stats: MonitorStats,
}

/// The canonical file name of the snapshot at `epoch`, zero-padded so
/// lexicographic order is epoch order.
pub fn file_name(epoch: u64) -> String {
    format!("snap-{epoch:020}.tgs")
}

/// The epoch encoded in a snapshot file name, if it is one.
pub fn parse_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".tgs")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Writes a rights set as one whitespace-free token (`-` when empty).
/// [`Rights`]' display separates custom rights with spaces; writing the
/// rights one by one yields the same text minus those spaces, which
/// [`Rights::parse`] accepts back.
fn write_rights_token(out: &mut String, rights: Rights) {
    if rights.is_empty() {
        out.push('-');
    }
    for right in rights.iter() {
        let _ = write!(out, "{right}");
    }
}

/// Parses a [`write_rights_token`] token.
fn parse_rights_token(token: &str) -> Result<Rights, SnapshotError> {
    if token == "-" {
        Ok(Rights::EMPTY)
    } else {
        Rights::parse(token).map_err(|e| SnapshotError::new(format!("bad rights {token:?}: {e}")))
    }
}

/// Encodes the snapshot body (everything after the header line) for a
/// given state into one pre-sized buffer, borrowing the state rather
/// than cloning it.
fn encode_body(graph: &ProtectionGraph, levels: &LevelAssignment, stats: &MonitorStats) -> String {
    // Roughly 24 bytes per vertex line and 16 per edge line.
    let mut out = String::with_capacity(24 * graph.vertex_count() + 16 * graph.edge_count() + 64);
    let _ = writeln!(out, "g {}", graph.vertex_count());
    for (_, vertex) in graph.vertices() {
        let _ = writeln!(out, "v {} {}", vertex.kind, vertex.name);
    }
    for edge in graph.edges() {
        let _ = write!(out, "e {} {} ", edge.src.index(), edge.dst.index());
        write_rights_token(&mut out, edge.rights.explicit());
        out.push(' ');
        write_rights_token(&mut out, edge.rights.implicit());
        out.push('\n');
    }
    let _ = writeln!(out, "L {}", levels.len());
    for idx in 0..levels.len() {
        let _ = writeln!(out, "l {}", levels.name(idx));
    }
    for h in 0..levels.len() {
        for l in 0..levels.len() {
            if levels.higher(h, l) {
                let _ = writeln!(out, "d {h} {l}");
            }
        }
    }
    for (vertex, level) in levels.assignments() {
        let _ = writeln!(out, "a {} {level}", vertex.index());
    }
    let _ = writeln!(
        out,
        "s {} {} {} {} {} {}",
        stats.permitted,
        stats.denied,
        stats.malformed,
        stats.refused,
        stats.quarantined,
        stats.recoveries,
    );
    out
}

/// A whole snapshot file for `body` (from [`encode_body`]): the header
/// line, then the body its digest covers.
fn encode_file(epoch: u64, chain_hash: u64, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 64);
    let _ = writeln!(
        out,
        "{MAGIC} {epoch} {} {}",
        hex16(chain_hash),
        hex16(fnv1a(body.as_bytes()))
    );
    out.push_str(body);
    out
}

/// Encodes the snapshot file for a live state without copying it (the
/// commit log's snapshot path). Byte-identical to [`Snapshot::encode`]
/// on the same state.
pub(crate) fn encode_state(
    epoch: u64,
    chain_hash: u64,
    graph: &ProtectionGraph,
    levels: &LevelAssignment,
    stats: &MonitorStats,
) -> String {
    encode_file(epoch, chain_hash, &encode_body(graph, levels, stats))
}

/// The epoch-0 snapshot file of a seed state and its digest — the
/// genesis anchor — from one encoding of the seed body.
pub(crate) fn encode_seed(graph: &ProtectionGraph, levels: &LevelAssignment) -> (String, u64) {
    let body = encode_body(graph, levels, &MonitorStats::default());
    let genesis = fnv1a(body.as_bytes());
    (encode_file(0, genesis, &body), genesis)
}

/// The digest anchoring a chain to its seed: the body digest of the seed
/// state with zeroed counters (exactly what the epoch-0 snapshot's body
/// hashes to).
pub fn seed_digest(graph: &ProtectionGraph, levels: &LevelAssignment) -> u64 {
    fnv1a(encode_body(graph, levels, &MonitorStats::default()).as_bytes())
}

impl Snapshot {
    /// Encodes the whole snapshot file: header plus digested body.
    pub fn encode(&self) -> String {
        encode_state(
            self.epoch,
            self.chain_hash,
            &self.graph,
            &self.levels,
            &self.stats,
        )
    }

    /// Decodes and validates a snapshot file. The body digest is checked
    /// first, so truncation or editing anywhere in the body is caught
    /// even when the damaged part would still parse.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on any malformation; the caller treats the
    /// snapshot as absent.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let text =
            core::str::from_utf8(bytes).map_err(|_| SnapshotError::new("not valid UTF-8"))?;
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotError::new("missing header line"))?;
        let mut words = header.split(' ');
        if words.next() != Some(MAGIC) {
            return Err(SnapshotError::new(format!("missing {MAGIC} magic")));
        }
        let epoch = words
            .next()
            .and_then(|w| w.parse::<u64>().ok())
            .ok_or_else(|| SnapshotError::new("bad epoch"))?;
        let chain_hash = words
            .next()
            .and_then(parse_hex16)
            .ok_or_else(|| SnapshotError::new("bad chain hash"))?;
        let digest = words
            .next()
            .and_then(parse_hex16)
            .ok_or_else(|| SnapshotError::new("bad body digest"))?;
        if words.next().is_some() {
            return Err(SnapshotError::new("trailing words in header"));
        }
        if fnv1a(body.as_bytes()) != digest {
            return Err(SnapshotError::new(
                "body digest mismatch (truncated or edited)",
            ));
        }

        fn expect<'a>(
            lines: &mut core::iter::Peekable<core::str::Lines<'a>>,
            tag: &str,
        ) -> Result<&'a str, SnapshotError> {
            let line = lines
                .next()
                .ok_or_else(|| SnapshotError::new(format!("missing {tag:?} line")))?;
            line.strip_prefix(tag)
                .and_then(|rest| {
                    rest.strip_prefix(' ')
                        .or(Some(rest).filter(|r| r.is_empty()))
                })
                .ok_or_else(|| SnapshotError::new(format!("expected {tag:?} line, got {line:?}")))
        }
        let mut lines = body.lines().peekable();

        // Graph: vertex count, vertices, then edges until the `L` line.
        let vertex_count: usize = expect(&mut lines, "g")?
            .parse()
            .map_err(|_| SnapshotError::new("bad vertex count"))?;
        let mut graph = ProtectionGraph::with_capacity(vertex_count);
        for _ in 0..vertex_count {
            let rest = expect(&mut lines, "v")?;
            let (kind, name) = rest
                .split_once(' ')
                .ok_or_else(|| SnapshotError::new(format!("bad vertex line {rest:?}")))?;
            let kind = match kind {
                "subject" => VertexKind::Subject,
                "object" => VertexKind::Object,
                _ => return Err(SnapshotError::new(format!("bad vertex kind {kind:?}"))),
            };
            graph.add_vertex(kind, name);
        }
        while lines.peek().is_some_and(|l| l.starts_with("e ")) {
            let rest = expect(&mut lines, "e")?;
            let fields: Vec<&str> = rest.split(' ').collect();
            let [src, dst, explicit, implicit] = fields.as_slice() else {
                return Err(SnapshotError::new(format!("bad edge line {rest:?}")));
            };
            let src: usize = src
                .parse()
                .map_err(|_| SnapshotError::new("bad edge source"))?;
            let dst: usize = dst
                .parse()
                .map_err(|_| SnapshotError::new("bad edge destination"))?;
            if src >= vertex_count || dst >= vertex_count {
                return Err(SnapshotError::new("edge endpoint out of range"));
            }
            let explicit = parse_rights_token(explicit)?;
            let implicit = parse_rights_token(implicit)?;
            if explicit.is_empty() && implicit.is_empty() {
                return Err(SnapshotError::new("edge with no rights"));
            }
            let (src, dst) = (VertexId::from_index(src), VertexId::from_index(dst));
            if !explicit.is_empty() {
                graph
                    .add_edge(src, dst, explicit)
                    .map_err(|e| SnapshotError::new(format!("bad edge: {e}")))?;
            }
            if !implicit.is_empty() {
                graph
                    .add_implicit_edge(src, dst, implicit)
                    .map_err(|e| SnapshotError::new(format!("bad implicit edge: {e}")))?;
            }
        }

        // Levels: count, names, dominance pairs, assignments.
        let level_count: usize = expect(&mut lines, "L")?
            .parse()
            .map_err(|_| SnapshotError::new("bad level count"))?;
        let mut names = Vec::with_capacity(level_count);
        for _ in 0..level_count {
            names.push(expect(&mut lines, "l")?.to_string());
        }
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut covers = Vec::new();
        while lines.peek().is_some_and(|l| l.starts_with("d ")) {
            let rest = expect(&mut lines, "d")?;
            let (h, l) = rest
                .split_once(' ')
                .ok_or_else(|| SnapshotError::new(format!("bad dominance line {rest:?}")))?;
            let h: usize = h
                .parse()
                .map_err(|_| SnapshotError::new("bad dominance level"))?;
            let l: usize = l
                .parse()
                .map_err(|_| SnapshotError::new("bad dominance level"))?;
            covers.push((h, l));
        }
        let mut levels = LevelAssignment::new(&name_refs, &covers)
            .map_err(|e| SnapshotError::new(format!("bad level order: {e}")))?;
        while lines.peek().is_some_and(|l| l.starts_with("a ")) {
            let rest = expect(&mut lines, "a")?;
            let (vertex, level) = rest
                .split_once(' ')
                .ok_or_else(|| SnapshotError::new(format!("bad assignment line {rest:?}")))?;
            let vertex: usize = vertex
                .parse()
                .map_err(|_| SnapshotError::new("bad assignment vertex"))?;
            let level: usize = level
                .parse()
                .map_err(|_| SnapshotError::new("bad assignment level"))?;
            if vertex >= vertex_count {
                return Err(SnapshotError::new("assignment vertex out of range"));
            }
            levels
                .assign(VertexId::from_index(vertex), level)
                .map_err(|e| SnapshotError::new(format!("bad assignment: {e}")))?;
        }

        // Counters.
        let rest = expect(&mut lines, "s")?;
        let numbers: Vec<usize> = rest
            .split(' ')
            .map(|w| w.parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| SnapshotError::new("bad stats line"))?;
        let [permitted, denied, malformed, refused, quarantined, recoveries] = numbers.as_slice()
        else {
            return Err(SnapshotError::new("stats line needs six counters"));
        };
        let stats = MonitorStats {
            permitted: *permitted,
            denied: *denied,
            malformed: *malformed,
            refused: *refused,
            quarantined: *quarantined,
            recoveries: *recoveries,
        };
        if lines.next().is_some() {
            return Err(SnapshotError::new("trailing lines after stats"));
        }

        Ok(Snapshot {
            epoch,
            chain_hash,
            graph,
            levels,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_sim::workload::hierarchy;

    fn sample() -> Snapshot {
        let built = hierarchy(3, 2);
        Snapshot {
            epoch: 10,
            chain_hash: 0xfeed_beef,
            graph: built.graph,
            levels: built.assignment,
            stats: MonitorStats {
                permitted: 7,
                denied: 3,
                ..MonitorStats::default()
            },
        }
    }

    #[test]
    fn snapshots_round_trip_to_equality() {
        let snap = sample();
        let decoded = Snapshot::decode(snap.encode().as_bytes()).unwrap();
        assert_eq!(decoded.graph, snap.graph);
        assert_eq!(decoded.levels, snap.levels);
        assert_eq!(decoded.stats, snap.stats);
        assert_eq!(decoded.epoch, 10);
        assert_eq!(decoded.chain_hash, 0xfeed_beef);
    }

    #[test]
    fn duplicate_vertex_names_survive_the_codec() {
        // The name-keyed text format rejects this graph; the snapshot
        // codec must not (rule-created vertices share a name).
        let mut g = ProtectionGraph::new();
        let a = g.add_subject("created");
        let b = g.add_object("created");
        g.add_edge(a, b, Rights::RW).unwrap();
        let snap = Snapshot {
            epoch: 0,
            chain_hash: 0,
            graph: g.clone(),
            levels: LevelAssignment::linear(&["only"]),
            stats: MonitorStats::default(),
        };
        let decoded = Snapshot::decode(snap.encode().as_bytes()).unwrap();
        assert_eq!(decoded.graph, g);
    }

    #[test]
    fn truncated_snapshots_are_rejected() {
        let text = sample().encode();
        for cut in [text.len() - 1, text.len() / 2, text.len() / 4] {
            let err = Snapshot::decode(&text.as_bytes()[..cut]).unwrap_err();
            assert!(
                err.detail.contains("digest") || err.detail.contains("header"),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn edited_bodies_are_rejected() {
        let mut bytes = sample().encode().into_bytes();
        let pos = bytes.len() - 3; // inside the stats line
        bytes[pos] = b'9';
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(err.detail.contains("digest"), "{err}");
    }

    #[test]
    fn seed_digest_matches_the_zero_stats_body() {
        let built = hierarchy(2, 2);
        let snap = Snapshot {
            epoch: 0,
            chain_hash: 0,
            graph: built.graph.clone(),
            levels: built.assignment.clone(),
            stats: MonitorStats::default(),
        };
        let body = snap.encode();
        let (_, body) = body.split_once('\n').unwrap();
        assert_eq!(
            seed_digest(&built.graph, &built.assignment),
            fnv1a(body.as_bytes())
        );
    }

    #[test]
    fn file_names_round_trip_and_sort_by_epoch() {
        for epoch in [0u64, 1, 64, 10_000, u64::MAX] {
            assert_eq!(parse_file_name(&file_name(epoch)), Some(epoch));
        }
        assert!(file_name(9) < file_name(10));
        assert_eq!(parse_file_name("chain.tgl"), None);
        assert_eq!(parse_file_name("snap-12.tgs"), None);
        assert_eq!(parse_file_name(&format!("{}.tmp", file_name(3))), None);
    }
}
