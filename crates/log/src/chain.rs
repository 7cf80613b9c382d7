//! The `TGL1` hash-chained record format.
//!
//! A chain file is plain text. The first line is the header:
//!
//! ```text
//! TGL1 <genesis-hex16> <base-epoch> <base-hash-hex16>
//! ```
//!
//! `genesis` is the digest of the seed snapshot body — the anchor tying
//! this chain to one particular initial protection state, so a chain
//! spliced in from a system with a different seed fails at the header.
//! `base-epoch`/`base-hash` name the point history has been compacted to
//! (`0`/`genesis` for an uncompacted chain). Every following line is one
//! record:
//!
//! ```text
//! <hash-hex16> <prev-hex16> <seq> <payload>
//! ```
//!
//! where `payload` is a `TGJ1` journal payload (same codec, see
//! [`tg_hierarchy::journal`]) and `hash = chain_hash(prev, seq,
//! payload)`. A record is **self-valid** when its own hash equation
//! holds, and **linked** when its `prev` equals its predecessor's hash
//! and its `seq` is the successor of the predecessor's. The distinction
//! drives the failure semantics:
//!
//! * trailing bytes that are not self-valid, with no self-valid line
//!   after them — a torn tail from a crash mid-append; truncated.
//! * a non-self-valid line *followed by* a self-valid one — impossible
//!   from a crash; fails closed as mid-chain corruption.
//! * a self-valid line that does not link — a forged, reordered, or
//!   spliced record; fails closed.

use core::fmt;

use tg_hierarchy::journal::JournalEvent;

use crate::digest::{chain_hash, hex16, parse_hex16};

/// Magic first token of every chain file.
pub const MAGIC: &str = "TGL1";

/// One parsed chain record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChainRecord {
    /// Epoch position: this record is commit number `seq` (0-based from
    /// the genesis state, *not* from the compaction base).
    pub seq: u64,
    /// This record's chain hash.
    pub hash: u64,
    /// The predecessor's chain hash (the base hash for the first record).
    pub prev: u64,
    /// The journaled event.
    pub event: JournalEvent,
}

/// Report of a torn (crash-truncated) chain tail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChainTear {
    /// Records that survived before the tear.
    pub valid_records: usize,
    /// Bytes dropped from the tear to end of input.
    pub dropped_bytes: usize,
}

/// Why a chain failed verification. Every variant fails closed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChainError {
    /// The header line is missing or malformed.
    BadHeader,
    /// The header's genesis digest does not match the expected seed —
    /// this chain records a different system's history.
    GenesisMismatch {
        /// The digest the caller expected.
        expected: u64,
        /// The digest in the header.
        found: u64,
    },
    /// A self-valid record does not link to its predecessor: forged,
    /// reordered, or spliced.
    BrokenLink {
        /// 1-based line number of the offending record.
        line: usize,
        /// The epoch expected at this position.
        expected_seq: u64,
    },
    /// An invalid line has a self-valid record after it — impossible
    /// from a crash, so the chain is treated as tampered.
    MidChainCorruption {
        /// 1-based line number of the offending line.
        line: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BadHeader => write!(f, "chain does not start with a valid {MAGIC} header"),
            ChainError::GenesisMismatch { expected, found } => write!(
                f,
                "chain genesis {} does not match seed {} (spliced from another system?)",
                hex16(*found),
                hex16(*expected)
            ),
            ChainError::BrokenLink { line, expected_seq } => write!(
                f,
                "hash chain broken at line {line} (epoch {expected_seq}): \
                 forged, reordered or spliced record"
            ),
            ChainError::MidChainCorruption { line } => {
                write!(
                    f,
                    "mid-chain corruption at line {line}: refusing to recover"
                )
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// An in-memory, verified hash chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Chain {
    genesis: u64,
    base_epoch: u64,
    base_hash: u64,
    records: Vec<ChainRecord>,
}

impl Chain {
    /// An empty chain anchored at `genesis` (epoch 0).
    pub fn new(genesis: u64) -> Chain {
        Chain {
            genesis,
            base_epoch: 0,
            base_hash: genesis,
            records: Vec::new(),
        }
    }

    /// An empty chain whose history below `base_epoch` has been folded
    /// into a snapshot; `base_hash` is the chain hash at that epoch.
    pub fn with_base(genesis: u64, base_epoch: u64, base_hash: u64) -> Chain {
        Chain {
            genesis,
            base_epoch,
            base_hash,
            records: Vec::new(),
        }
    }

    /// The genesis anchor.
    pub fn genesis(&self) -> u64 {
        self.genesis
    }

    /// The epoch this chain starts at (0 unless compacted).
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The chain hash at the base epoch.
    pub fn base_hash(&self) -> u64 {
        self.base_hash
    }

    /// The records above the base, in epoch order.
    pub fn records(&self) -> &[ChainRecord] {
        &self.records
    }

    /// The epoch after the last record: the number of commits the full
    /// history (including folded records) contains.
    pub fn end_epoch(&self) -> u64 {
        self.base_epoch + self.records.len() as u64
    }

    /// The hash of the newest record (the base hash when empty).
    pub fn head_hash(&self) -> u64 {
        self.records.last().map_or(self.base_hash, |r| r.hash)
    }

    /// The chain hash at `epoch` — what a snapshot taken there records.
    /// `None` if `epoch` is outside `[base_epoch, end_epoch]`.
    pub fn hash_at(&self, epoch: u64) -> Option<u64> {
        if epoch == self.base_epoch {
            Some(self.base_hash)
        } else {
            let idx = epoch.checked_sub(self.base_epoch + 1)?;
            self.records.get(idx as usize).map(|r| r.hash)
        }
    }

    /// Appends an event, linking it to the current head. Returns the
    /// encoded record line (with trailing newline), ready to persist.
    pub fn append(&mut self, event: JournalEvent) -> String {
        let mut line = String::new();
        self.append_into(event, &mut line);
        line
    }

    /// [`append`](Chain::append), writing the record line into `out`
    /// instead of allocating — the commit hot path.
    pub fn append_into(&mut self, event: JournalEvent, out: &mut String) {
        use std::fmt::Write as _;
        let seq = self.end_epoch();
        let prev = self.head_hash();
        let payload = event.encode_payload();
        let hash = chain_hash(prev, seq, &payload);
        let _ = writeln!(out, "{hash:016x} {prev:016x} {seq} {payload}");
        self.records.push(ChainRecord {
            seq,
            hash,
            prev,
            event,
        });
    }

    /// The header line (with trailing newline).
    pub fn header(&self) -> String {
        format!(
            "{MAGIC} {} {} {}\n",
            hex16(self.genesis),
            self.base_epoch,
            hex16(self.base_hash)
        )
    }

    /// The whole chain file: header plus every record line.
    pub fn encode(&self) -> String {
        let mut out = self.header();
        for r in &self.records {
            out.push_str(&format!(
                "{} {} {} {}\n",
                hex16(r.hash),
                hex16(r.prev),
                r.seq,
                r.event.encode_payload()
            ));
        }
        out
    }

    /// Reads only the genesis anchor out of a chain file's header,
    /// without verifying any records. Used by recovery to learn which
    /// seed the chain claims before the full [`Chain::parse`] pass (the
    /// claim is then validated against the epoch-0 snapshot or an
    /// externally supplied seed digest).
    ///
    /// # Errors
    ///
    /// [`ChainError::BadHeader`] when the first line is not a valid
    /// `TGL1` header.
    pub fn peek_genesis(bytes: &[u8]) -> Result<u64, ChainError> {
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or(b"");
        let header = core::str::from_utf8(first).map_err(|_| ChainError::BadHeader)?;
        let mut words = header.split(' ');
        if words.next() != Some(MAGIC) {
            return Err(ChainError::BadHeader);
        }
        words
            .next()
            .and_then(parse_hex16)
            .ok_or(ChainError::BadHeader)
    }

    /// Parses and verifies a chain file against the expected seed
    /// digest, truncating a torn tail and failing closed on everything
    /// else (see the module docs for the taxonomy).
    ///
    /// # Errors
    ///
    /// [`ChainError`] on a bad header, genesis mismatch, broken link, or
    /// mid-chain corruption.
    pub fn parse(
        bytes: &[u8],
        expected_genesis: u64,
    ) -> Result<(Chain, Option<ChainTear>), ChainError> {
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if let Some(last) = lines.last() {
            if last.is_empty() {
                lines.pop(); // trailing newline
            }
        }
        let Some(&first) = lines.first() else {
            return Err(ChainError::BadHeader);
        };
        let header = core::str::from_utf8(first).map_err(|_| ChainError::BadHeader)?;
        let mut words = header.split(' ');
        if words.next() != Some(MAGIC) {
            return Err(ChainError::BadHeader);
        }
        let genesis = words
            .next()
            .and_then(parse_hex16)
            .ok_or(ChainError::BadHeader)?;
        let base_epoch = words
            .next()
            .and_then(|w| w.parse::<u64>().ok())
            .ok_or(ChainError::BadHeader)?;
        let base_hash = words
            .next()
            .and_then(parse_hex16)
            .ok_or(ChainError::BadHeader)?;
        if words.next().is_some() {
            return Err(ChainError::BadHeader);
        }
        if genesis != expected_genesis {
            return Err(ChainError::GenesisMismatch {
                expected: expected_genesis,
                found: genesis,
            });
        }

        // A line is self-valid when its own hash equation holds over its
        // own prev/seq fields — checkable without the predecessor.
        let self_parse = |line: &[u8]| -> Option<ChainRecord> {
            let line = core::str::from_utf8(line).ok()?;
            let (hash_hex, rest) = line.split_once(' ')?;
            let (prev_hex, rest) = rest.split_once(' ')?;
            let (seq_text, payload) = rest.split_once(' ')?;
            let hash = parse_hex16(hash_hex)?;
            let prev = parse_hex16(prev_hex)?;
            let seq = seq_text.parse::<u64>().ok()?;
            if hash != chain_hash(prev, seq, payload) {
                return None;
            }
            let event = JournalEvent::decode_payload(payload).ok()?;
            Some(ChainRecord {
                seq,
                hash,
                prev,
                event,
            })
        };

        let mut chain = Chain::with_base(genesis, base_epoch, base_hash);
        for (idx, line) in lines.iter().enumerate().skip(1) {
            match self_parse(line) {
                Some(record) => {
                    let expected_seq = chain.end_epoch();
                    if record.seq != expected_seq || record.prev != chain.head_hash() {
                        return Err(ChainError::BrokenLink {
                            line: idx + 1,
                            expected_seq,
                        });
                    }
                    chain.records.push(record);
                }
                None => {
                    // Not self-valid: torn tail if nothing self-valid
                    // follows, otherwise mid-chain corruption.
                    let later_valid = lines[idx + 1..].iter().any(|l| self_parse(l).is_some());
                    if later_valid {
                        return Err(ChainError::MidChainCorruption { line: idx + 1 });
                    }
                    // Dropped bytes = everything from the first torn
                    // line to end of input, computed from the torn
                    // line's byte offset (each earlier line was followed
                    // by the newline `split` consumed) — re-summing the
                    // torn lines would miscount a trailing newline.
                    let offset: usize = lines[..idx].iter().map(|l| l.len() + 1).sum();
                    let valid_records = chain.records.len();
                    return Ok((
                        chain,
                        Some(ChainTear {
                            valid_records,
                            dropped_bytes: bytes.len() - offset,
                        }),
                    ));
                }
            }
        }
        Ok((chain, None))
    }

    /// Keeps only the first `keep` records above the base (used when
    /// recovery discards a trailing uncommitted batch, so the persisted
    /// chain can be rewritten to match the recovered state).
    pub fn truncate_records(&mut self, keep: usize) {
        self.records.truncate(keep);
    }

    /// Drops the records at or below `epoch` from memory, moving the base
    /// up to `epoch` (the commit log keeps only the records above its
    /// newest snapshot resident). The header this chain would now
    /// [`encode`](Chain::encode) names the new base, so a chain trimmed
    /// this way must not be written back as the chain file.
    ///
    /// # Panics
    ///
    /// If `epoch` is outside `[base_epoch, end_epoch]`.
    pub fn forget_below(&mut self, epoch: u64) {
        let hash = self.hash_at(epoch).expect("epoch is within the chain");
        let drop = (epoch - self.base_epoch) as usize;
        self.records.drain(..drop);
        self.base_epoch = epoch;
        self.base_hash = hash;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{Rights, VertexId};
    use tg_hierarchy::journal::Outcome;
    use tg_rules::{DeJureRule, Rule};

    fn take_event(i: usize) -> JournalEvent {
        JournalEvent::Attempt {
            outcome: Outcome::Permitted,
            rule: Rule::DeJure(DeJureRule::Take {
                actor: VertexId::from_index(i),
                via: VertexId::from_index(i + 1),
                target: VertexId::from_index(i + 2),
                rights: Rights::R,
            }),
        }
    }

    fn sample_chain(n: usize) -> Chain {
        let mut chain = Chain::new(0xabcd);
        for i in 0..n {
            chain.append(take_event(i));
        }
        chain
    }

    #[test]
    fn encode_parse_round_trips() {
        let chain = sample_chain(5);
        let (parsed, tear) = Chain::parse(chain.encode().as_bytes(), 0xabcd).unwrap();
        assert_eq!(parsed, chain);
        assert!(tear.is_none());
        assert_eq!(parsed.end_epoch(), 5);
    }

    #[test]
    fn genesis_mismatch_fails_closed() {
        let chain = sample_chain(2);
        let err = Chain::parse(chain.encode().as_bytes(), 0x1234).unwrap_err();
        assert!(matches!(err, ChainError::GenesisMismatch { .. }));
    }

    #[test]
    fn torn_tails_truncate() {
        let chain = sample_chain(3);
        let text = chain.encode();
        let bytes = &text.as_bytes()[..text.len() - 9]; // tear mid-record
        let (parsed, tear) = Chain::parse(bytes, 0xabcd).unwrap();
        assert_eq!(parsed.records().len(), 2);
        let tear = tear.unwrap();
        assert_eq!(tear.valid_records, 2);
        assert!(tear.dropped_bytes > 0);
    }

    #[test]
    fn torn_tail_byte_accounting_is_exact() {
        let chain = sample_chain(3);
        let text = chain.encode();

        // Tear that ends *with* a newline: zero the last record's hash
        // in place (no longer self-valid) and keep the trailing newline.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[3] = format!("0000000000000000{}", &lines[3][16..]);
        let forged = lines.join("\n") + "\n";
        let (parsed, tear) = Chain::parse(forged.as_bytes(), 0xabcd).unwrap();
        assert_eq!(parsed.records().len(), 2);
        assert_eq!(
            tear.unwrap().dropped_bytes,
            lines[3].len() + 1,
            "the trailing newline is part of the torn region"
        );

        // Tear mid-record with no trailing newline: exactly the partial
        // line's bytes.
        let cut = text.len() - 9;
        let partial = cut - (text[..cut].rfind('\n').unwrap() + 1);
        let (_, tear) = Chain::parse(&text.as_bytes()[..cut], 0xabcd).unwrap();
        assert_eq!(tear.unwrap().dropped_bytes, partial);
    }

    #[test]
    fn reordered_records_fail_closed() {
        let chain = sample_chain(4);
        let mut lines: Vec<String> = chain.encode().lines().map(str::to_string).collect();
        lines.swap(2, 3); // swap two self-valid records
        let text = lines.join("\n") + "\n";
        let err = Chain::parse(text.as_bytes(), 0xabcd).unwrap_err();
        assert!(matches!(err, ChainError::BrokenLink { line: 3, .. }));
    }

    #[test]
    fn spliced_suffix_from_sibling_history_fails_closed() {
        // Two chains over the same genesis that diverge at record 1:
        // grafting the sibling's suffix cannot link.
        let mut a = Chain::new(0xabcd);
        a.append(take_event(0));
        a.append(take_event(1));
        let mut b = Chain::new(0xabcd);
        b.append(take_event(5));
        b.append(take_event(6));
        let a_text = a.encode();
        let b_text = b.encode();
        let spliced = format!(
            "{}{}",
            a_text.lines().take(2).collect::<Vec<_>>().join("\n") + "\n",
            b_text.lines().skip(2).collect::<Vec<_>>().join("\n") + "\n",
        );
        let err = Chain::parse(spliced.as_bytes(), 0xabcd).unwrap_err();
        assert!(matches!(err, ChainError::BrokenLink { .. }));
    }

    #[test]
    fn forged_record_with_valid_self_hash_breaks_downstream_link() {
        // An attacker replaces record 1 with a different event and
        // recomputes that record's own hash correctly: the record is
        // self-valid and even links to record 0, but record 2's `prev`
        // no longer matches, so the forgery fails closed downstream.
        let mut a = Chain::new(0xabcd);
        a.append(take_event(0));
        a.append(take_event(1));
        a.append(take_event(2));
        let mut b = Chain::new(0xabcd);
        b.append(take_event(0));
        b.append(take_event(9)); // the forged record 1
        let mut lines: Vec<String> = a.encode().lines().map(str::to_string).collect();
        lines[2] = b.encode().lines().nth(2).unwrap().to_string();
        let text = lines.join("\n") + "\n";
        let err = Chain::parse(text.as_bytes(), 0xabcd).unwrap_err();
        assert_eq!(
            err,
            ChainError::BrokenLink {
                line: 4,
                expected_seq: 2
            }
        );
    }

    #[test]
    fn mid_chain_garbage_fails_closed() {
        let chain = sample_chain(3);
        let mut lines: Vec<String> = chain.encode().lines().map(str::to_string).collect();
        lines[2] = "garbage".to_string();
        let text = lines.join("\n") + "\n";
        let err = Chain::parse(text.as_bytes(), 0xabcd).unwrap_err();
        assert!(matches!(err, ChainError::MidChainCorruption { line: 3 }));
    }

    #[test]
    fn compacted_chains_round_trip_with_base() {
        let full = sample_chain(6);
        let base_hash = full.hash_at(4).unwrap();
        let mut compacted = Chain::with_base(0xabcd, 4, base_hash);
        for r in &full.records()[4..] {
            compacted.append(r.event.clone());
        }
        // Re-appending above the same base reproduces identical hashes.
        assert_eq!(compacted.records(), &full.records()[4..]);
        let (parsed, tear) = Chain::parse(compacted.encode().as_bytes(), 0xabcd).unwrap();
        assert_eq!(parsed, compacted);
        assert!(tear.is_none());
        assert_eq!(parsed.hash_at(6), Some(full.head_hash()));
        assert_eq!(parsed.hash_at(3), None, "folded history is gone");
    }

    #[test]
    fn forgetting_history_keeps_hashes_and_appends_identical() {
        let full = sample_chain(6);
        let mut window = full.clone();
        window.forget_below(4);
        assert_eq!(window.base_epoch(), 4);
        assert_eq!(window.records(), &full.records()[4..]);
        assert_eq!(window.head_hash(), full.head_hash());
        assert_eq!(window.hash_at(4), full.hash_at(4));
        assert_eq!(window.hash_at(3), None);
        let mut extended = full.clone();
        extended.append(take_event(6));
        window.append(take_event(6));
        assert_eq!(window.head_hash(), extended.head_hash());
        window.forget_below(7);
        assert!(window.records().is_empty());
        assert_eq!(window.end_epoch(), 7);
    }

    #[test]
    fn bad_headers_fail_closed() {
        for text in [
            "",
            "TGJ1\n",
            "TGL1\n",
            "TGL1 zzzz 0 0000000000000000\n",
            "TGL1 000000000000abcd x 0000000000000000\n",
            "TGL1 000000000000abcd 0 0000000000000000 extra\n",
        ] {
            assert_eq!(
                Chain::parse(text.as_bytes(), 0xabcd).unwrap_err(),
                ChainError::BadHeader,
                "{text:?}"
            );
        }
    }
}
