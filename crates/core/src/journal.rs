//! Write-ahead audit journal and crash recovery.
//!
//! The journal is an append-only text log of every rule the monitor was
//! *asked* to apply — permitted, denied, malformed, or refused — written
//! **before** the corresponding graph mutation (write-ahead discipline).
//! Together with the seed graph it is a complete, tamper-evident record
//! of the monitor's history: [`recover`] replays it onto the seed and
//! reproduces the live monitor's graph, level assignment and statistics
//! exactly.
//!
//! # Format (`TGJ1`)
//!
//! The first line is the magic string `TGJ1`. Every following line is one
//! record:
//!
//! ```text
//! <crc32-hex8> <seq> <payload>
//! ```
//!
//! where `crc32-hex8` is the IEEE CRC-32 of `"<seq> <payload>"` in
//! lower-case hex, `seq` is the dense 0-based record number, and the
//! payload is one of:
//!
//! ```text
//! R <outcome> <rule>      single attempt; outcome ∈ permitted|denied|malformed|refused
//! B                       begin a transactional batch
//! A <rule>                rule applied inside the open batch
//! C                       batch committed
//! X <idx> <outcome> <rule> batch aborted at rule idx; prefix rolled back
//! ```
//!
//! Rules use the canonical text codec from
//! [`tg_rules::codec`].
//!
//! # Failure semantics
//!
//! * **Torn tail** — invalid trailing data with *no* valid record after
//!   it (the classic crash-mid-write shape). The tail is truncated and
//!   recovery proceeds, reporting the drop in [`Recovery::torn`].
//! * **Mid-log corruption** — an invalid or out-of-sequence record with a
//!   later valid record after it. That cannot be produced by a crash, so
//!   recovery **fails closed** with [`JournalError::MidLogCorruption`].
//! * **Open batch at end of log** — a crash mid-batch. The batch never
//!   committed (no `C`), so its records are discarded, matching the live
//!   monitor's rollback-on-abort semantics.
//! * **Divergent replay** — a `permitted`/`A` record whose rule the
//!   restriction no longer permits (wrong seed graph, tampered journal
//!   body with a forged CRC). Recovery fails closed with
//!   [`JournalError::Diverged`] rather than admit an unauthorized effect.
//!
//! Quarantine repairs ([`Monitor::quarantine`]) are *not* journaled:
//! the journal records rule traffic, and out-of-band tampering — the only
//! thing quarantine removes — never entered the graph through a rule, so
//! replaying onto the untampered seed never re-creates it.

use core::fmt;

use tg_graph::ProtectionGraph;
use tg_rules::codec::{decode_rule, encode_rule, CodecError};
use tg_rules::Rule;

use crate::levels::LevelAssignment;
use crate::monitor::{Monitor, MonitorError};
use crate::restrict::Restriction;

/// Magic first line of every journal.
pub const MAGIC: &str = "TGJ1";

/// Outcome tag recorded for an attempted rule application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The rule was applied.
    Permitted,
    /// The restriction denied it.
    Denied,
    /// Its own preconditions failed.
    Malformed,
    /// The monitor was degraded and refused it.
    Refused,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Permitted => "permitted",
            Outcome::Denied => "denied",
            Outcome::Malformed => "malformed",
            Outcome::Refused => "refused",
        }
    }

    fn parse(word: &str) -> Option<Outcome> {
        Some(match word {
            "permitted" => Outcome::Permitted,
            "denied" => Outcome::Denied,
            "malformed" => Outcome::Malformed,
            "refused" => Outcome::Refused,
            _ => return None,
        })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal record payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalEvent {
    /// A single (non-batch) attempt and its outcome.
    Attempt {
        /// How the monitor ruled.
        outcome: Outcome,
        /// The attempted rule.
        rule: Rule,
    },
    /// A transactional batch begins.
    BatchBegin,
    /// A rule applied inside the open batch.
    BatchApply {
        /// The applied rule.
        rule: Rule,
    },
    /// The open batch committed.
    BatchCommit,
    /// The open batch aborted at rule `index`; its prefix was rolled
    /// back.
    BatchAbort {
        /// Index of the refused rule within the batch.
        index: usize,
        /// Why it was refused.
        outcome: Outcome,
        /// The refused rule.
        rule: Rule,
    },
}

impl JournalEvent {
    /// Encodes this event as a `TGJ1` record payload (the part after the
    /// CRC and sequence number). Public so other log formats — the
    /// hash-chained commit log in `tg-log` — can carry the exact same
    /// payloads and share one codec.
    pub fn encode_payload(&self) -> String {
        match self {
            JournalEvent::Attempt { outcome, rule } => {
                format!("R {outcome} {}", encode_rule(rule))
            }
            JournalEvent::BatchBegin => "B".to_string(),
            JournalEvent::BatchApply { rule } => format!("A {}", encode_rule(rule)),
            JournalEvent::BatchCommit => "C".to_string(),
            JournalEvent::BatchAbort {
                index,
                outcome,
                rule,
            } => format!("X {index} {outcome} {}", encode_rule(rule)),
        }
    }

    /// Decodes a `TGJ1` record payload (inverse of
    /// [`encode_payload`](JournalEvent::encode_payload)).
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the payload tag, outcome word, batch index, or
    /// embedded rule fails to parse.
    pub fn decode_payload(payload: &str) -> Result<JournalEvent, CodecError> {
        let (tag, rest) = match payload.split_once(' ') {
            Some((tag, rest)) => (tag, rest),
            None => (payload, ""),
        };
        match tag {
            "R" => {
                let (word, rule) = rest.split_once(' ').ok_or(CodecError::Empty)?;
                let outcome = Outcome::parse(word).ok_or(CodecError::Empty)?;
                Ok(JournalEvent::Attempt {
                    outcome,
                    rule: decode_rule(rule)?,
                })
            }
            "B" if rest.is_empty() => Ok(JournalEvent::BatchBegin),
            "A" => Ok(JournalEvent::BatchApply {
                rule: decode_rule(rest)?,
            }),
            "C" if rest.is_empty() => Ok(JournalEvent::BatchCommit),
            "X" => {
                let (idx, rest) = rest.split_once(' ').ok_or(CodecError::Empty)?;
                let index = idx.parse::<usize>().map_err(|_| CodecError::Empty)?;
                let (word, rule) = rest.split_once(' ').ok_or(CodecError::Empty)?;
                let outcome = Outcome::parse(word).ok_or(CodecError::Empty)?;
                Ok(JournalEvent::BatchAbort {
                    index,
                    outcome,
                    rule: decode_rule(rule)?,
                })
            }
            _ => Err(CodecError::Empty),
        }
    }
}

/// IEEE CRC-32 (the polynomial used by zlib/PNG), table-driven.
fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// An append-only, checksummed write-ahead journal.
///
/// Owned by a [`Monitor`] once [`Monitor::enable_journal`] is called; the
/// monitor appends a record for every attempted rule *before* mutating
/// its graph. The journal is plain text — persist it with
/// [`Journal::as_str`] and recover with [`recover`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Journal {
    text: String,
    seq: u64,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

impl Journal {
    /// An empty journal: just the `TGJ1` magic line.
    pub fn new() -> Journal {
        Journal {
            text: format!("{MAGIC}\n"),
            seq: 0,
        }
    }

    /// Appends one record.
    pub(crate) fn append(&mut self, event: &JournalEvent) {
        let body = format!("{} {}", self.seq, event.encode_payload());
        let crc = crc32(body.as_bytes());
        self.text.push_str(&format!("{crc:08x} {body}\n"));
        self.seq += 1;
    }

    /// The journal text, ready to persist.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The journal bytes, ready to persist.
    pub fn as_bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    /// Number of records (excluding the magic line).
    pub fn records(&self) -> u64 {
        self.seq
    }
}

/// Report of a torn (crash-truncated) journal tail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TornTail {
    /// Records that survived before the tear.
    pub valid_records: usize,
    /// Bytes dropped from the tear to end of input.
    pub dropped_bytes: usize,
}

/// Why a journal could not be recovered. Every variant fails closed: no
/// partially-trusted state is returned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalError {
    /// The input does not start with the `TGJ1` magic line.
    BadMagic,
    /// An invalid or out-of-sequence record has valid records after it —
    /// impossible from a crash, so the log is treated as tampered.
    MidLogCorruption {
        /// 1-based line number of the offending record.
        line: usize,
    },
    /// A structurally valid record arrived in an impossible position
    /// (e.g. `A` outside a batch, `R` inside one).
    UnexpectedEvent {
        /// 0-based sequence number of the offending record.
        record: usize,
    },
    /// Replay verification failed: a journaled `permitted` rule is not
    /// permitted against the seed — wrong seed graph or a forged record.
    Diverged {
        /// 0-based sequence number of the offending record.
        record: usize,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "journal does not start with {MAGIC}"),
            JournalError::MidLogCorruption { line } => {
                write!(f, "mid-log corruption at line {line}: refusing to recover")
            }
            JournalError::UnexpectedEvent { record } => {
                write!(f, "record {record} is invalid in its position")
            }
            JournalError::Diverged { record, detail } => {
                write!(f, "replay diverged at record {record}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// A parsed journal: the surviving events plus tear information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsedJournal {
    /// Events in order, one per surviving record.
    pub events: Vec<JournalEvent>,
    /// Present when a torn tail was truncated.
    pub torn: Option<TornTail>,
}

/// Parses journal bytes, truncating a torn tail and failing closed on
/// mid-log corruption.
///
/// # Errors
///
/// [`JournalError::BadMagic`] if the magic line is missing,
/// [`JournalError::MidLogCorruption`] if an invalid record is followed by
/// a valid one.
pub fn parse_journal(bytes: &[u8]) -> Result<ParsedJournal, JournalError> {
    // Split into lines manually so non-UTF-8 corruption is confined to
    // the lines it touches.
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if let Some(last) = lines.last() {
        if last.is_empty() {
            lines.pop(); // trailing newline
        }
    }
    let Some(first) = lines.first() else {
        return Err(JournalError::BadMagic);
    };
    if *first != MAGIC.as_bytes() {
        return Err(JournalError::BadMagic);
    }

    // A line is a valid record if it is UTF-8, shaped `<crc8> <seq>
    // <payload>`, its CRC matches, and its payload decodes.
    let parse_line = |line: &[u8], expected_seq: u64| -> Option<JournalEvent> {
        let line = core::str::from_utf8(line).ok()?;
        let (crc_hex, body) = line.split_once(' ')?;
        if crc_hex.len() != 8 {
            return None;
        }
        let crc = u32::from_str_radix(crc_hex, 16).ok()?;
        if crc != crc32(body.as_bytes()) {
            return None;
        }
        let (seq, payload) = body.split_once(' ')?;
        if seq.parse::<u64>().ok()? != expected_seq {
            return None;
        }
        JournalEvent::decode_payload(payload).ok()
    };

    let mut events = Vec::new();
    for (idx, line) in lines.iter().enumerate().skip(1) {
        match parse_line(line, events.len() as u64) {
            Some(event) => events.push(event),
            None => {
                // Invalid record: torn tail if nothing valid follows,
                // otherwise mid-log corruption. A later line counts as
                // valid if its CRC holds for *any* sequence number — a
                // splice with consistent numbering is still a splice.
                let later_valid = lines[idx + 1..].iter().any(|l| {
                    core::str::from_utf8(l).ok().is_some_and(|l| {
                        l.split_once(' ').is_some_and(|(crc_hex, body)| {
                            crc_hex.len() == 8
                                && u32::from_str_radix(crc_hex, 16)
                                    .is_ok_and(|crc| crc == crc32(body.as_bytes()))
                        })
                    })
                });
                if later_valid {
                    return Err(JournalError::MidLogCorruption { line: idx + 1 });
                }
                let dropped: usize = lines[idx..].iter().map(|l| l.len() + 1).sum::<usize>() - 1;
                return Ok(ParsedJournal {
                    events,
                    torn: Some(TornTail {
                        valid_records: idx - 1,
                        dropped_bytes: dropped.min(bytes.len()),
                    }),
                });
            }
        }
    }
    Ok(ParsedJournal { events, torn: None })
}

/// Report of a completed recovery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Recovery {
    /// Journal records replayed (after truncation and batch discard).
    pub replayed: usize,
    /// Present when a torn tail was truncated.
    pub torn: Option<TornTail>,
    /// Whether an uncommitted batch at the end of the log was discarded
    /// (crash mid-batch).
    pub discarded_open_batch: bool,
}

/// Rebuilds a monitor from its seed and a journal.
///
/// Every `permitted` and batch record is **re-verified** against the
/// restriction during replay: the journal is evidence, not authority. The
/// returned monitor has journaling enabled, its journal holding a clean
/// re-encoding of the surviving records (same events, renumbered), so
/// service can continue appending where the crash left off.
///
/// # Errors
///
/// Fails closed on a missing magic line, mid-log corruption,
/// structurally impossible event order, or replay divergence.
pub fn recover(
    graph: ProtectionGraph,
    levels: LevelAssignment,
    restriction: Box<dyn Restriction>,
    journal_bytes: &[u8],
) -> Result<(Monitor, Recovery), JournalError> {
    let _span = tg_obs::span(tg_obs::SpanKind::JournalRecover);
    let parsed = parse_journal(journal_bytes)?;
    let mut monitor = Monitor::new(graph, levels, restriction);
    monitor.enable_journal();

    // Split a trailing uncommitted batch off before replaying: its rules
    // never took effect (no commit marker — the live monitor either
    // crashed mid-batch or rolled back without writing `X`, and rollback
    // always writes `X`, so this is the crash case).
    let mut effective = parsed.events.as_slice();
    let mut discarded_open_batch = false;
    if let Some(open_at) = open_batch_start(effective) {
        effective = &effective[..open_at];
        discarded_open_batch = true;
    }

    replay_events(&mut monitor, effective)?;

    Ok((
        monitor,
        Recovery {
            replayed: effective.len(),
            torn: parsed.torn,
            discarded_open_batch,
        },
    ))
}

/// Replays already-parsed events onto a live monitor, **re-verifying**
/// every record against the monitor's restriction (the journal is
/// evidence, not authority). Callers must strip a trailing open batch
/// first (see [`open_batch_start`]); [`recover`] does this, and the
/// commit log's snapshot-based recovery does the same for its chain
/// suffix.
///
/// # Errors
///
/// [`JournalError::UnexpectedEvent`] on a structurally impossible event
/// order, [`JournalError::Diverged`] when a journaled outcome does not
/// reproduce. Record numbers in errors are 0-based indexes into `events`.
pub fn replay_events(monitor: &mut Monitor, events: &[JournalEvent]) -> Result<(), JournalError> {
    let mut batch: Option<Vec<Rule>> = None;
    for (record, event) in events.iter().enumerate() {
        match (event, batch.as_mut()) {
            (JournalEvent::Attempt { outcome, rule }, None) => {
                replay_attempt(monitor, *outcome, rule, record)?;
            }
            (JournalEvent::BatchBegin, None) => {
                batch = Some(Vec::new());
            }
            (JournalEvent::BatchApply { rule }, Some(rules)) => {
                rules.push(rule.clone());
            }
            (JournalEvent::BatchCommit, Some(_)) => {
                let rules = batch.take().expect("batch is open");
                if let Err(e) = monitor.try_apply_all(&rules) {
                    return Err(JournalError::Diverged {
                        record,
                        detail: format!("committed batch no longer applies: {e}"),
                    });
                }
            }
            (
                JournalEvent::BatchAbort {
                    index,
                    outcome,
                    rule,
                },
                Some(_),
            ) => {
                let mut rules = batch.take().expect("batch is open");
                if rules.len() != *index {
                    return Err(JournalError::UnexpectedEvent { record });
                }
                rules.push(rule.clone());
                match monitor.try_apply_all(&rules) {
                    Err(e) if e.index == *index && outcome_of(&e.error) == *outcome => {}
                    Err(e) => {
                        return Err(JournalError::Diverged {
                            record,
                            detail: format!(
                                "batch aborted at {} ({}) live, at {} on replay",
                                index, outcome, e.index
                            ),
                        });
                    }
                    Ok(_) => {
                        return Err(JournalError::Diverged {
                            record,
                            detail: format!("batch aborted live at rule {index} but replays clean"),
                        });
                    }
                }
            }
            _ => return Err(JournalError::UnexpectedEvent { record }),
        }
    }
    Ok(())
}

/// Index of the `BatchBegin` of a batch still open at end of log, if any.
/// Recovery discards everything from here on — the batch never committed,
/// matching the live monitor's rollback-on-abort semantics.
pub fn open_batch_start(events: &[JournalEvent]) -> Option<usize> {
    let mut open: Option<usize> = None;
    for (i, event) in events.iter().enumerate() {
        match event {
            JournalEvent::BatchBegin => open = Some(i),
            JournalEvent::BatchCommit | JournalEvent::BatchAbort { .. } => open = None,
            _ => {}
        }
    }
    open
}

fn outcome_of(error: &MonitorError) -> Outcome {
    match error {
        MonitorError::Rule(_) => Outcome::Malformed,
        MonitorError::Denied(_) => Outcome::Denied,
        MonitorError::Degraded => Outcome::Refused,
    }
}

fn replay_attempt(
    monitor: &mut Monitor,
    outcome: Outcome,
    rule: &Rule,
    record: usize,
) -> Result<(), JournalError> {
    match outcome {
        Outcome::Permitted => match monitor.try_apply(rule) {
            Ok(_) => Ok(()),
            Err(e) => Err(JournalError::Diverged {
                record,
                detail: format!("journaled as permitted but refused on replay: {e}"),
            }),
        },
        Outcome::Denied | Outcome::Malformed => match monitor.try_apply(rule) {
            Err(ref e) if outcome_of(e) == outcome => Ok(()),
            Err(e) => Err(JournalError::Diverged {
                record,
                detail: format!("journaled as {outcome} but refused as {e} on replay"),
            }),
            Ok(_) => Err(JournalError::Diverged {
                record,
                detail: format!("journaled as {outcome} but permitted on replay"),
            }),
        },
        // Degradation depends on audit history, which the journal does
        // not carry (quarantine is out-of-band); trust the counter.
        Outcome::Refused => {
            monitor.stats_mut().refused += 1;
            if let Some(journal) = monitor_journal_mut(monitor) {
                journal.append(&JournalEvent::Attempt {
                    outcome: Outcome::Refused,
                    rule: rule.clone(),
                });
            }
            Ok(())
        }
    }
}

/// Mutable access to the monitor's journal for replaying `refused`
/// records, which bypass `try_apply` (the recovered monitor is not
/// degraded during replay).
fn monitor_journal_mut(monitor: &mut Monitor) -> Option<&mut Journal> {
    monitor.journal_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restrict::CombinedRestriction;
    use tg_graph::Rights;
    use tg_rules::DeJureRule;

    fn seed() -> (ProtectionGraph, LevelAssignment) {
        let mut g = ProtectionGraph::new();
        let hi = g.add_subject("hi"); // v0
        let lo = g.add_subject("lo"); // v1
        let q = g.add_object("q"); // v2
        g.add_edge(lo, q, Rights::T).unwrap();
        g.add_edge(q, hi, Rights::RW | Rights::E).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        levels.assign(hi, 1).unwrap();
        levels.assign(lo, 0).unwrap();
        levels.assign(q, 1).unwrap();
        (g, levels)
    }

    fn take(actor: usize, via: usize, target: usize, rights: Rights) -> Rule {
        use tg_graph::VertexId;
        Rule::DeJure(DeJureRule::Take {
            actor: VertexId::from_index(actor),
            via: VertexId::from_index(via),
            target: VertexId::from_index(target),
            rights,
        })
    }

    fn monitor() -> Monitor {
        let (g, levels) = seed();
        let mut m = Monitor::new(g, levels, Box::new(CombinedRestriction));
        m.enable_journal();
        m
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn journal_records_every_outcome() {
        let mut m = monitor();
        m.try_apply(&take(1, 2, 0, Rights::E)).unwrap(); // permitted
        m.try_apply(&take(1, 2, 0, Rights::R)).unwrap_err(); // denied
        m.try_apply(&take(1, 1, 0, Rights::R)).unwrap_err(); // malformed
        let journal = m.journal().unwrap();
        assert_eq!(journal.records(), 3);
        let parsed = parse_journal(journal.as_bytes()).unwrap();
        assert!(parsed.torn.is_none());
        let outcomes: Vec<Outcome> = parsed
            .events
            .iter()
            .map(|e| match e {
                JournalEvent::Attempt { outcome, .. } => *outcome,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            outcomes,
            [Outcome::Permitted, Outcome::Denied, Outcome::Malformed]
        );
    }

    #[test]
    fn recover_reproduces_the_live_monitor() {
        let mut m = monitor();
        m.try_apply(&take(1, 2, 0, Rights::E)).unwrap();
        m.try_apply(&take(1, 2, 0, Rights::R)).unwrap_err();
        m.try_apply_all(&[take(0, 2, 1, Rights::RW)]).unwrap_err(); // write-down aborts
        let (g, levels) = seed();
        let (rec, report) = recover(
            g,
            levels,
            Box::new(CombinedRestriction),
            m.journal().unwrap().as_bytes(),
        )
        .unwrap();
        assert_eq!(rec.graph(), m.graph());
        assert_eq!(rec.levels(), m.levels());
        assert_eq!(rec.stats(), m.stats());
        assert_eq!(
            rec.journal().unwrap().as_str(),
            m.journal().unwrap().as_str()
        );
        assert!(report.torn.is_none());
        assert!(!report.discarded_open_batch);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let mut m = monitor();
        m.try_apply(&take(1, 2, 0, Rights::E)).unwrap();
        m.try_apply(&take(1, 2, 0, Rights::R)).unwrap_err();
        let mut bytes = m.journal().unwrap().as_bytes().to_vec();
        bytes.truncate(bytes.len() - 7); // tear mid-record
        let (g, levels) = seed();
        let (rec, report) = recover(g, levels, Box::new(CombinedRestriction), &bytes).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(report.torn.is_some());
        assert_eq!(rec.stats().permitted, 1);
        assert_eq!(rec.stats().denied, 0);
    }

    #[test]
    fn mid_log_corruption_fails_closed() {
        let mut m = monitor();
        m.try_apply(&take(1, 2, 0, Rights::E)).unwrap();
        m.try_apply(&take(1, 2, 0, Rights::R)).unwrap_err();
        let mut bytes = m.journal().unwrap().as_bytes().to_vec();
        // Flip one byte inside the first record's payload.
        let first_record_at = bytes.iter().position(|&b| b == b'\n').unwrap() + 12;
        bytes[first_record_at] ^= 0x20;
        let (g, levels) = seed();
        let err = recover(g, levels, Box::new(CombinedRestriction), &bytes).unwrap_err();
        assert!(matches!(err, JournalError::MidLogCorruption { line: 2 }));
    }

    #[test]
    fn forged_permit_fails_closed_as_divergence() {
        // Hand-craft a journal whose CRC is valid but whose rule the
        // restriction denies: replay must not admit it.
        let mut journal = Journal::new();
        journal.append(&JournalEvent::Attempt {
            outcome: Outcome::Permitted,
            rule: take(1, 2, 0, Rights::R), // read-up
        });
        let (g, levels) = seed();
        let err =
            recover(g, levels, Box::new(CombinedRestriction), journal.as_bytes()).unwrap_err();
        assert!(matches!(err, JournalError::Diverged { record: 0, .. }));
    }

    #[test]
    fn open_batch_at_eof_is_discarded() {
        let mut m = monitor();
        m.try_apply(&take(1, 2, 0, Rights::E)).unwrap();
        // Simulate a crash mid-batch: append B and A records by hand.
        let mut journal = m.journal().unwrap().clone();
        journal.append(&JournalEvent::BatchBegin);
        journal.append(&JournalEvent::BatchApply {
            rule: take(1, 2, 0, Rights::W),
        });
        let (g, levels) = seed();
        let (rec, report) =
            recover(g, levels, Box::new(CombinedRestriction), journal.as_bytes()).unwrap();
        assert!(report.discarded_open_batch);
        assert_eq!(report.replayed, 1);
        assert_eq!(rec.stats().permitted, 1);
    }

    #[test]
    fn bad_magic_and_event_order_fail_closed() {
        let (g, levels) = seed();
        let err = recover(
            g.clone(),
            levels.clone(),
            Box::new(CombinedRestriction),
            b"not a journal",
        )
        .unwrap_err();
        assert_eq!(err, JournalError::BadMagic);

        // `C` with no open batch, followed by a valid record so it is not
        // torn-tail-truncated.
        let mut journal = Journal::new();
        journal.append(&JournalEvent::BatchCommit);
        journal.append(&JournalEvent::Attempt {
            outcome: Outcome::Permitted,
            rule: take(1, 2, 0, Rights::E),
        });
        let err =
            recover(g, levels, Box::new(CombinedRestriction), journal.as_bytes()).unwrap_err();
        assert!(matches!(err, JournalError::UnexpectedEvent { record: 0 }));
    }

    #[test]
    fn recovered_monitor_keeps_journaling() {
        let mut m = monitor();
        m.try_apply(&take(1, 2, 0, Rights::E)).unwrap();
        let (g, levels) = seed();
        let (mut rec, _) = recover(
            g,
            levels,
            Box::new(CombinedRestriction),
            m.journal().unwrap().as_bytes(),
        )
        .unwrap();
        assert_eq!(
            rec.journal().unwrap().as_str(),
            m.journal().unwrap().as_str()
        );
        rec.try_apply(&take(1, 2, 0, Rights::R)).unwrap_err();
        assert_eq!(rec.journal().unwrap().records(), 2);
    }
}
