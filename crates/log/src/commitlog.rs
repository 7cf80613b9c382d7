//! The commit log proper: hash chain + snapshots + recovery, compaction
//! and time travel, glued to the reference monitor through
//! [`EventSink`].
//!
//! The verified invariant is `reduce(genesis, commits) -> state`: the
//! state at epoch `e` is *defined* as the seed state folded through the
//! first `e` chain records (with a trailing uncommitted batch discarded,
//! matching the live monitor's rollback semantics), and every path that
//! reconstructs a state — recovery, `state_at`, the compaction proof —
//! computes exactly that fold, re-verifying each record against the
//! restriction as it goes. Snapshots are *accelerators*, never
//! authority: a snapshot is only trusted after its body digest checks
//! out **and** its recorded chain hash matches the chain at its epoch,
//! and compaction refuses to fold history until it has proved, by
//! replay, that the snapshot it folds into reproduces the fold's result.
//!
//! Trust model: tamper *evidence*, not tamper *proofness*. An adversary
//! who can consistently rewrite the chain suffix and every later
//! snapshot can forge recent history, but (a) any forged `permitted`
//! effect the restriction would not grant still fails replay, and (b)
//! below the compaction base the seed anchor pins epoch 0 exactly.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use tg_hierarchy::journal::{open_batch_start, replay_events, JournalError, JournalEvent};
use tg_hierarchy::restrict::Restriction;
use tg_hierarchy::{EventSink, LevelAssignment, Monitor, MonitorStats};

use tg_graph::ProtectionGraph;

use crate::chain::{Chain, ChainError, ChainTear};
use crate::digest::hex16;
use crate::snapshot::{self, seed_digest, Snapshot};
use crate::store::{Store, StoreError};

/// Name of the chain file inside a log directory.
pub const CHAIN_FILE: &str = "chain.tgl";

/// Commit-log tuning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogConfig {
    /// Write a snapshot every this many commits (`0` = never). Recovery
    /// replays at most this many records plus one trailing batch.
    pub snapshot_interval: u64,
    /// Flush every record to the store as it is committed. Turn off to
    /// buffer in memory and flush on [`CommitLog::persist`] /
    /// [`CommitLog::maybe_snapshot`] — faster, but a crash loses the
    /// unflushed tail (never consistency: recovery sees a clean prefix).
    pub write_through: bool,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            snapshot_interval: 64,
            write_through: true,
        }
    }
}

/// Why a commit-log operation failed. Every variant fails closed.
#[derive(Debug)]
pub enum LogError {
    /// The backing store failed; the log is poisoned.
    Store(StoreError),
    /// The chain failed verification.
    Chain(ChainError),
    /// Replay of verified records diverged from their recorded outcomes.
    Replay(JournalError),
    /// No snapshot at or below the requested point survived validation.
    NoUsableSnapshot {
        /// Snapshot files that were present but rejected.
        rejected: usize,
    },
    /// The directory holds no chain file.
    MissingChain,
    /// [`CommitLog::create`] refuses to overwrite an existing chain.
    AlreadyExists,
    /// A previous storage failure poisoned this log; it accepts no
    /// further writes.
    Poisoned {
        /// The original failure.
        detail: String,
    },
    /// The requested epoch is beyond the end of history.
    FutureEpoch {
        /// The requested epoch.
        epoch: u64,
        /// The end of history.
        end: u64,
    },
    /// The requested epoch is below the compaction base.
    CompactedAway {
        /// The requested epoch.
        epoch: u64,
        /// The compaction base.
        base: u64,
    },
    /// The compaction differential proof failed: the candidate snapshot
    /// does not reduce to the replayed state. Nothing was modified.
    CompactionProof {
        /// The candidate snapshot's epoch.
        epoch: u64,
        /// What diverged.
        detail: String,
    },
    /// The log was opened with [`CommitLog::open_read_only`]; it accepts
    /// no writes (no commits, snapshots, compaction, or chain healing).
    ReadOnly,
    /// The persisted chain, read back for history older than the records
    /// held in memory, no longer agrees with them: it was truncated or
    /// rewritten behind the log's back.
    StoreDiverged {
        /// The epoch at which the store and memory disagree.
        epoch: u64,
    },
}

impl core::fmt::Display for LogError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LogError::Store(e) => write!(f, "{e}"),
            LogError::Chain(e) => write!(f, "{e}"),
            LogError::Replay(e) => write!(f, "chain replay failed: {e}"),
            LogError::NoUsableSnapshot { rejected } => write!(
                f,
                "no usable snapshot ({rejected} present but rejected): refusing to guess state"
            ),
            LogError::MissingChain => write!(f, "no {CHAIN_FILE} in log directory"),
            LogError::AlreadyExists => {
                write!(
                    f,
                    "{CHAIN_FILE} already exists: refusing to overwrite history"
                )
            }
            LogError::Poisoned { detail } => {
                write!(
                    f,
                    "commit log poisoned by earlier storage failure: {detail}"
                )
            }
            LogError::FutureEpoch { epoch, end } => {
                write!(f, "epoch {epoch} is in the future (history ends at {end})")
            }
            LogError::CompactedAway { epoch, base } => write!(
                f,
                "epoch {epoch} was compacted away (history now starts at {base})"
            ),
            LogError::CompactionProof { epoch, detail } => write!(
                f,
                "compaction proof failed at epoch {epoch}: {detail}; nothing was modified"
            ),
            LogError::ReadOnly => {
                write!(f, "commit log opened read-only: refusing to write")
            }
            LogError::StoreDiverged { epoch } => write!(
                f,
                "persisted chain no longer matches the log at epoch {epoch}: refusing to read history"
            ),
        }
    }
}

impl std::error::Error for LogError {}

impl From<StoreError> for LogError {
    fn from(e: StoreError) -> LogError {
        LogError::Store(e)
    }
}

impl From<ChainError> for LogError {
    fn from(e: ChainError) -> LogError {
        LogError::Chain(e)
    }
}

/// What recovery found and did (the `tgq replay` recovery report).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// The seed anchor of the chain.
    pub genesis: u64,
    /// The compaction base epoch.
    pub base_epoch: u64,
    /// The end of committed history after recovery.
    pub end_epoch: u64,
    /// The epoch of the snapshot recovery restarted from.
    pub snapshot_epoch: u64,
    /// Chain records replayed on top of the snapshot.
    pub replayed: usize,
    /// Present when a torn chain tail was truncated.
    pub torn: Option<ChainTear>,
    /// Whether a trailing uncommitted batch was discarded.
    pub discarded_open_batch: bool,
    /// Snapshot files present but rejected during validation.
    pub snapshots_rejected: usize,
}

/// What a time-travel reconstruction did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TravelInfo {
    /// The epoch of the snapshot the reconstruction restarted from.
    pub snapshot_epoch: u64,
    /// Chain records replayed on top of it.
    pub replayed: usize,
    /// Whether a batch open at the probe epoch was discarded (the
    /// committed-state semantics of an epoch cut).
    pub discarded_open_batch: bool,
}

/// What a compaction did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompactionReport {
    /// The new base epoch (unchanged if nothing could be folded).
    pub base_epoch: u64,
    /// Records folded below the new base.
    pub folded: u64,
    /// Snapshot files pruned.
    pub snapshots_removed: usize,
}

struct LogInner {
    store: Box<dyn Store>,
    /// The resident window of the chain: only the records above the
    /// newest snapshot (its base is that snapshot's epoch, not the
    /// compaction base). Older history is read back from the store on
    /// demand ([`LogInner::full_chain`]), so memory stays bounded by the
    /// snapshot interval however long the log runs.
    chain: Chain,
    /// The compaction base: the epoch the persisted chain starts at.
    base_epoch: u64,
    /// Encoded records not yet flushed to the store.
    pending: String,
    /// Epochs of snapshot files present (unvalidated; consumers
    /// re-validate on use).
    snapshots: Vec<u64>,
    /// Epoch of the newest snapshot written or adopted.
    last_snapshot: u64,
    interval: u64,
    write_through: bool,
    /// Whether the live monitor currently has a batch open (snapshots
    /// must not cut a batch in half).
    batch_open: bool,
    /// Opened via [`CommitLog::open_read_only`]: every write path
    /// refuses, and recovery healing stays in memory.
    read_only: bool,
    poisoned: Option<String>,
}

impl LogInner {
    fn check_poison(&self) -> Result<(), LogError> {
        match &self.poisoned {
            Some(detail) => Err(LogError::Poisoned {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    fn check_writable(&self) -> Result<(), LogError> {
        if self.read_only {
            return Err(LogError::ReadOnly);
        }
        self.check_poison()
    }

    fn flush_pending(&mut self) -> Result<(), LogError> {
        self.check_writable()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let text = core::mem::take(&mut self.pending);
        match self.store.append(CHAIN_FILE, text.as_bytes()) {
            Ok(()) => Ok(()),
            Err(e) => {
                // An unknown prefix may have landed; recovery will
                // truncate the torn tail. No further writes.
                self.poisoned = Some(e.to_string());
                Err(LogError::Store(e))
            }
        }
    }

    fn append_event(&mut self, event: &JournalEvent) {
        if self.poisoned.is_some() || self.read_only {
            // Fail-stop: the store is gone (or the log is read-only);
            // the next persist/snapshot call surfaces it to the caller.
            return;
        }
        let _span = tg_obs::span(tg_obs::SpanKind::LogCommit);
        match event {
            JournalEvent::BatchBegin => self.batch_open = true,
            JournalEvent::BatchCommit | JournalEvent::BatchAbort { .. } => {
                self.batch_open = false;
            }
            _ => {}
        }
        self.chain.append_into(event.clone(), &mut self.pending);
        tg_obs::add(tg_obs::Counter::LogCommits, 1);
        if self.write_through {
            let _ = self.flush_pending();
        }
    }

    /// Decodes and fully validates the snapshot at `epoch` against the
    /// chain: body digest (inside `decode`), position hash, and — for
    /// epoch 0 — the seed anchor.
    fn load_snapshot(&self, chain: &Chain, epoch: u64) -> Result<Snapshot, String> {
        let bytes = self
            .store
            .read(&snapshot::file_name(epoch))
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("snapshot {epoch} missing"))?;
        let snap = Snapshot::decode(&bytes).map_err(|e| e.to_string())?;
        if snap.epoch != epoch {
            return Err(format!(
                "snapshot file for epoch {epoch} claims epoch {}",
                snap.epoch
            ));
        }
        let expected = chain
            .hash_at(epoch)
            .ok_or_else(|| format!("epoch {epoch} outside the chain"))?;
        if snap.chain_hash != expected {
            return Err(format!(
                "snapshot chain hash {} does not match chain {} at epoch {epoch}",
                hex16(snap.chain_hash),
                hex16(expected)
            ));
        }
        if epoch == 0 {
            if snap.stats != MonitorStats::default() {
                return Err("seed snapshot carries nonzero counters".to_string());
            }
            if seed_digest(&snap.graph, &snap.levels) != chain.genesis() {
                return Err("seed snapshot does not match the genesis anchor".to_string());
            }
        }
        Ok(snap)
    }

    /// The newest snapshot with epoch in `[chain base, at]` that
    /// validates against `chain`, plus how many candidates were rejected
    /// on the way down.
    fn best_snapshot(&self, chain: &Chain, at: u64) -> Result<(Snapshot, usize), LogError> {
        let mut rejected = 0;
        for &epoch in self.snapshots.iter().rev() {
            if epoch > at || epoch < chain.base_epoch() {
                continue;
            }
            match self.load_snapshot(chain, epoch) {
                Ok(snap) => return Ok((snap, rejected)),
                Err(_) => rejected += 1,
            }
        }
        Err(LogError::NoUsableSnapshot { rejected })
    }

    /// The fold: restore `snap`, replay `chain`'s records `(snap.epoch,
    /// at]`, discarding a batch left open at the cut. Returns the
    /// monitor and what was done.
    fn fold_from(
        chain: &Chain,
        snap: Snapshot,
        at: u64,
        restriction: Box<dyn Restriction>,
    ) -> Result<(Monitor, TravelInfo), LogError> {
        let snapshot_epoch = snap.epoch;
        let mut monitor = Monitor::restore(snap.graph, snap.levels, restriction, snap.stats);
        let lo = (snapshot_epoch - chain.base_epoch()) as usize;
        let hi = (at - chain.base_epoch()) as usize;
        let mut events: Vec<JournalEvent> = chain.records()[lo..hi]
            .iter()
            .map(|r| r.event.clone())
            .collect();
        let mut discarded_open_batch = false;
        if let Some(open_at) = open_batch_start(&events) {
            events.truncate(open_at);
            discarded_open_batch = true;
        }
        replay_events(&mut monitor, &events).map_err(LogError::Replay)?;
        tg_obs::add(tg_obs::Counter::LogReplayed, events.len() as u64);
        Ok((
            monitor,
            TravelInfo {
                snapshot_epoch,
                replayed: events.len(),
                discarded_open_batch,
            },
        ))
    }

    /// The whole chain from the compaction base: the persisted records
    /// below the resident window, re-read and re-verified from the store,
    /// joined to the resident records. The store must agree with memory
    /// at the window's base, or the read fails closed.
    fn full_chain(&self) -> Result<Cow<'_, Chain>, LogError> {
        let window = self.chain.base_epoch();
        if window == self.base_epoch {
            return Ok(Cow::Borrowed(&self.chain));
        }
        let bytes = self.store.read(CHAIN_FILE)?.ok_or(LogError::MissingChain)?;
        let (mut full, _) = Chain::parse(&bytes, self.chain.genesis())?;
        if full.base_epoch() != self.base_epoch
            || full.hash_at(window) != Some(self.chain.base_hash())
        {
            return Err(LogError::StoreDiverged { epoch: window });
        }
        full.truncate_records((window - self.base_epoch) as usize);
        for record in self.chain.records() {
            full.append(record.event.clone());
        }
        Ok(Cow::Owned(full))
    }

    /// The committed state at `at` (`base_epoch <= at <= end`): folded
    /// from the resident window when a snapshot inside it validates,
    /// otherwise from the full chain, so the result is always the fold
    /// from the newest validating snapshot at or below `at`.
    fn reconstruct(
        &self,
        at: u64,
        restriction: Box<dyn Restriction>,
    ) -> Result<(Monitor, TravelInfo), LogError> {
        if at >= self.chain.base_epoch() {
            if let Ok((snap, _)) = self.best_snapshot(&self.chain, at) {
                return LogInner::fold_from(&self.chain, snap, at, restriction);
            }
        }
        let full = self.full_chain()?;
        let (snap, _) = self.best_snapshot(&full, at)?;
        LogInner::fold_from(&full, snap, at, restriction)
    }
}

/// A sink handle cloned into the monitor; every recorded event lands in
/// the shared chain.
struct LogSink {
    inner: Arc<Mutex<LogInner>>,
}

impl EventSink for LogSink {
    fn append(&mut self, event: &JournalEvent) {
        self.inner.lock().expect("log lock").append_event(event);
    }
}

/// A durable, hash-chained, snapshot-accelerated commit log over a
/// [`Store`].
///
/// Obtain one with [`CommitLog::create`] (fresh directory) or
/// [`CommitLog::open`] (recovery); both return a [`Monitor`] already
/// wired to journal through the log. See the module docs for the
/// invariant and trust model.
pub struct CommitLog {
    inner: Arc<Mutex<LogInner>>,
}

impl CommitLog {
    /// Initializes a fresh log: writes the epoch-0 seed snapshot (the
    /// genesis anchor) and the chain header, and returns a monitor whose
    /// every rule attempt commits through the chain.
    ///
    /// # Errors
    ///
    /// [`LogError::AlreadyExists`] if the store already holds a chain;
    /// [`LogError::Store`] on storage failure.
    pub fn create(
        mut store: Box<dyn Store>,
        graph: ProtectionGraph,
        levels: LevelAssignment,
        restriction: Box<dyn Restriction>,
        config: LogConfig,
    ) -> Result<(CommitLog, Monitor), LogError> {
        if store.read(CHAIN_FILE)?.is_some() {
            return Err(LogError::AlreadyExists);
        }
        let (seed, genesis) = snapshot::encode_seed(&graph, &levels);
        store.write_atomic(&snapshot::file_name(0), seed.as_bytes())?;
        let chain = Chain::new(genesis);
        store.append(CHAIN_FILE, chain.header().as_bytes())?;
        let inner = Arc::new(Mutex::new(LogInner {
            store,
            chain,
            base_epoch: 0,
            pending: String::new(),
            snapshots: vec![0],
            last_snapshot: 0,
            interval: config.snapshot_interval,
            write_through: config.write_through,
            batch_open: false,
            read_only: false,
            poisoned: None,
        }));
        let mut monitor = Monitor::new(graph, levels, restriction);
        monitor.attach_event_sink(Box::new(LogSink {
            inner: Arc::clone(&inner),
        }));
        Ok((CommitLog { inner }, monitor))
    }

    /// Opens an existing log, recovering to exactly the committed
    /// pre-crash state or failing closed: verify the chain, pick the
    /// newest validating snapshot, replay the suffix (re-verifying every
    /// record), truncate any torn tail or uncommitted trailing batch,
    /// and heal the persisted chain to match. The returned monitor is
    /// wired to the log *after* replay, so history is not re-logged.
    ///
    /// Replay length is bounded by the snapshot interval the log was
    /// written with (plus one unbounded trailing batch).
    ///
    /// # Errors
    ///
    /// Fails closed on a missing/unverifiable chain, a seed mismatch
    /// (`expected_genesis`), no usable snapshot, or replay divergence.
    pub fn open(
        store: Box<dyn Store>,
        restriction: Box<dyn Restriction>,
        config: LogConfig,
        expected_genesis: Option<u64>,
    ) -> Result<(CommitLog, Monitor, RecoveryReport), LogError> {
        let (inner, mut monitor, report) =
            CommitLog::open_impl(store, restriction, config, expected_genesis, false)?;
        let inner = Arc::new(Mutex::new(inner));
        monitor.attach_event_sink(Box::new(LogSink {
            inner: Arc::clone(&inner),
        }));
        Ok((CommitLog { inner }, monitor, report))
    }

    /// Opens an existing log for queries only: the same verification and
    /// recovery semantics as [`CommitLog::open`], but the persisted
    /// chain is never rewritten — a torn tail or trailing open batch is
    /// truncated *in memory* while the on-disk bytes stay byte-for-byte
    /// intact for forensics. Every write path on the returned log
    /// ([`persist`](CommitLog::persist), snapshots, compaction, wired
    /// sinks) fails with [`LogError::ReadOnly`].
    ///
    /// # Errors
    ///
    /// Exactly as [`CommitLog::open`].
    pub fn open_read_only(
        store: Box<dyn Store>,
        restriction: Box<dyn Restriction>,
        config: LogConfig,
        expected_genesis: Option<u64>,
    ) -> Result<(CommitLog, RecoveryReport), LogError> {
        let (inner, _, report) =
            CommitLog::open_impl(store, restriction, config, expected_genesis, true)?;
        Ok((
            CommitLog {
                inner: Arc::new(Mutex::new(inner)),
            },
            report,
        ))
    }

    fn open_impl(
        store: Box<dyn Store>,
        restriction: Box<dyn Restriction>,
        config: LogConfig,
        expected_genesis: Option<u64>,
        read_only: bool,
    ) -> Result<(LogInner, Monitor, RecoveryReport), LogError> {
        let _span = tg_obs::span(tg_obs::SpanKind::LogRecover);
        let bytes = store.read(CHAIN_FILE)?.ok_or(LogError::MissingChain)?;
        let genesis = Chain::peek_genesis(&bytes)?;
        if let Some(expected) = expected_genesis {
            if expected != genesis {
                return Err(LogError::Chain(ChainError::GenesisMismatch {
                    expected,
                    found: genesis,
                }));
            }
        }
        let (chain, torn) = Chain::parse(&bytes, genesis)?;

        let mut snapshots: Vec<u64> = store
            .list()?
            .iter()
            .filter_map(|name| snapshot::parse_file_name(name))
            .collect();
        snapshots.sort_unstable();

        let mut inner = LogInner {
            store,
            base_epoch: chain.base_epoch(),
            chain,
            pending: String::new(),
            snapshots,
            last_snapshot: 0,
            interval: config.snapshot_interval,
            write_through: config.write_through,
            batch_open: false,
            read_only,
            poisoned: None,
        };

        let end = inner.chain.end_epoch();
        let (snap, rejected) = inner.best_snapshot(&inner.chain, end)?;
        let snapshot_epoch = snap.epoch;
        let (monitor, info) = LogInner::fold_from(&inner.chain, snap, end, restriction)?;

        // Heal: drop the discarded trailing batch from the in-memory
        // chain and, if anything was dropped (tear or batch), rewrite
        // the persisted chain so store and memory agree again (a
        // read-only open keeps the healing in memory).
        let committed = (snapshot_epoch - inner.chain.base_epoch()) as usize + info.replayed;
        if info.discarded_open_batch {
            inner.chain.truncate_records(committed);
        }
        if !read_only && (info.discarded_open_batch || torn.is_some()) {
            let healed = inner.chain.encode();
            inner.store.write_atomic(CHAIN_FILE, healed.as_bytes())?;
        }
        // A heal can shrink history below snapshot files that were
        // already listed (a tear below a snapshot); drop those epochs so
        // the list stays sorted and best_snapshot's newest-first reverse
        // scan stays correct.
        let healed_end = inner.chain.end_epoch();
        inner.snapshots.retain(|&e| e <= healed_end);
        inner.last_snapshot = snapshot_epoch;
        inner.chain.forget_below(snapshot_epoch);

        let report = RecoveryReport {
            genesis,
            base_epoch: inner.base_epoch,
            end_epoch: healed_end,
            snapshot_epoch,
            replayed: info.replayed,
            torn,
            discarded_open_batch: info.discarded_open_batch,
            snapshots_rejected: rejected,
        };
        Ok((inner, monitor, report))
    }

    /// A fresh sink handle for wiring an externally built monitor to
    /// this log (the normal constructors already attach one).
    pub fn sink(&self) -> Box<dyn EventSink> {
        Box::new(LogSink {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Flushes buffered records to the store.
    ///
    /// # Errors
    ///
    /// [`LogError::Store`]/[`LogError::Poisoned`] on storage failure —
    /// the log then refuses all further writes.
    pub fn persist(&self) -> Result<(), LogError> {
        self.lock().flush_pending()
    }

    /// Writes a snapshot of `monitor`'s current state if the configured
    /// interval has elapsed since the last one (and no batch is open).
    /// `monitor` must be the monitor wired to this log. Returns the
    /// snapshot epoch if one was written.
    ///
    /// # Errors
    ///
    /// [`LogError::Store`]/[`LogError::Poisoned`] on storage failure.
    pub fn maybe_snapshot(&self, monitor: &Monitor) -> Result<Option<u64>, LogError> {
        let mut inner = self.lock();
        inner.check_writable()?;
        if inner.interval == 0 || inner.batch_open {
            return Ok(None);
        }
        let end = inner.chain.end_epoch();
        if end - inner.last_snapshot < inner.interval {
            return Ok(None);
        }
        self.snapshot_now_locked(&mut inner, monitor, end)?;
        Ok(Some(end))
    }

    /// Writes a snapshot of `monitor`'s current state unconditionally
    /// (still refusing mid-batch). Returns the snapshot epoch.
    ///
    /// # Errors
    ///
    /// [`LogError::Store`]/[`LogError::Poisoned`] on storage failure.
    pub fn snapshot_now(&self, monitor: &Monitor) -> Result<u64, LogError> {
        let mut inner = self.lock();
        inner.check_writable()?;
        let end = inner.chain.end_epoch();
        self.snapshot_now_locked(&mut inner, monitor, end)?;
        Ok(end)
    }

    fn snapshot_now_locked(
        &self,
        inner: &mut LogInner,
        monitor: &Monitor,
        end: u64,
    ) -> Result<(), LogError> {
        let _span = tg_obs::span(tg_obs::SpanKind::LogSnapshot);
        inner.flush_pending()?;
        let encoded = snapshot::encode_state(
            end,
            inner.chain.head_hash(),
            monitor.graph(),
            monitor.levels(),
            &monitor.stats(),
        );
        let name = snapshot::file_name(end);
        if let Err(e) = inner.store.write_atomic(&name, encoded.as_bytes()) {
            inner.poisoned = Some(e.to_string());
            return Err(LogError::Store(e));
        }
        // Sorted insert: after a torn-chain recovery new snapshot epochs
        // can land below ones already listed, and a bare push would
        // break best_snapshot's newest-last ordering.
        if let Err(pos) = inner.snapshots.binary_search(&end) {
            inner.snapshots.insert(pos, end);
        }
        inner.last_snapshot = end;
        // Everything at or below the snapshot is durable and now
        // reconstructible from it: only newer records stay resident.
        inner.chain.forget_below(end);
        tg_obs::add(tg_obs::Counter::LogSnapshots, 1);
        Ok(())
    }

    /// Reconstructs the committed protection state at `epoch`: the
    /// newest validating snapshot at or below it, plus a re-verified
    /// replay of the records in between (a batch spanning the cut is
    /// discarded, exactly as a crash at that epoch would have).
    ///
    /// # Errors
    ///
    /// [`LogError::FutureEpoch`]/[`LogError::CompactedAway`] for an
    /// unreachable epoch; otherwise fails closed like recovery.
    pub fn state_at(
        &self,
        epoch: u64,
        restriction: Box<dyn Restriction>,
    ) -> Result<(Monitor, TravelInfo), LogError> {
        let inner = self.lock();
        let end = inner.chain.end_epoch();
        if epoch > end {
            return Err(LogError::FutureEpoch { epoch, end });
        }
        let base = inner.base_epoch;
        if epoch < base {
            return Err(LogError::CompactedAway { epoch, base });
        }
        inner.reconstruct(epoch, restriction)
    }

    /// Folds history below the newest validating snapshot into that
    /// snapshot, after **proving** the fold is lossless: the old chain
    /// replayed from the old base must reduce to exactly the snapshot's
    /// state. On success the chain is atomically rewritten to start at
    /// the new base and older snapshot files are pruned. On proof
    /// failure nothing is modified.
    ///
    /// # Errors
    ///
    /// [`LogError::CompactionProof`] when the snapshot and the fold
    /// disagree; storage errors poison the log.
    pub fn compact(&self, restriction: Box<dyn Restriction>) -> Result<CompactionReport, LogError> {
        let mut inner = self.lock();
        inner.check_writable()?;
        let _span = tg_obs::span(tg_obs::SpanKind::LogCompact);
        inner.flush_pending()?;
        let old_base = inner.base_epoch;
        let end = inner.chain.end_epoch();
        let full = inner.full_chain()?;
        let (candidate, _) = inner.best_snapshot(&full, end)?;
        let target = candidate.epoch;
        if target <= old_base {
            return Ok(CompactionReport {
                base_epoch: old_base,
                folded: 0,
                snapshots_removed: 0,
            });
        }

        // Differential proof: reduce(old base, records up to target) must
        // equal the snapshot being promoted to base. The fold starts at
        // the *base* snapshot — seed-anchored at epoch 0, itself proven
        // by any earlier compaction — never at the candidate, so the
        // proof replays the exact records about to be folded away. A
        // wrong-state snapshot whose digest and chain hash still check
        // out (it was taken against some other state) is caught here
        // instead of being promoted into permanent history.
        let base_snap = match inner.load_snapshot(&full, old_base) {
            Ok(snap) => snap,
            Err(_) => return Err(LogError::NoUsableSnapshot { rejected: 1 }),
        };
        let (proof_monitor, _) = LogInner::fold_from(&full, base_snap, target, restriction)?;
        if *proof_monitor.graph() != candidate.graph {
            return Err(LogError::CompactionProof {
                epoch: target,
                detail: "replayed graph differs from snapshot graph".to_string(),
            });
        }
        if *proof_monitor.levels() != candidate.levels {
            return Err(LogError::CompactionProof {
                epoch: target,
                detail: "replayed levels differ from snapshot levels".to_string(),
            });
        }
        if proof_monitor.stats() != candidate.stats {
            return Err(LogError::CompactionProof {
                epoch: target,
                detail: "replayed counters differ from snapshot counters".to_string(),
            });
        }

        // Rebuild the chain above the new base; re-appending reproduces
        // the exact same hashes, which we assert against the old head.
        let base_hash = full.hash_at(target).expect("target is within the chain");
        let mut new_chain = Chain::with_base(full.genesis(), target, base_hash);
        let lo = (target - old_base) as usize;
        for record in &full.records()[lo..] {
            new_chain.append(record.event.clone());
        }
        drop(full);
        assert_eq!(
            new_chain.head_hash(),
            inner.chain.head_hash(),
            "rebasing must preserve the chain head"
        );
        if let Err(e) = inner
            .store
            .write_atomic(CHAIN_FILE, new_chain.encode().as_bytes())
        {
            inner.poisoned = Some(e.to_string());
            return Err(LogError::Store(e));
        }
        // The resident window never starts below the new base, and never
        // moves down from the newest snapshot.
        new_chain.forget_below(target.max(inner.chain.base_epoch()));
        inner.chain = new_chain;
        inner.base_epoch = target;

        // Prune snapshots below the new base. A crash here leaves stale
        // snapshot files; recovery ignores them.
        let doomed: Vec<u64> = inner
            .snapshots
            .iter()
            .copied()
            .filter(|&e| e < target)
            .collect();
        let mut removed = 0;
        for epoch in &doomed {
            if let Err(e) = inner.store.remove(&snapshot::file_name(*epoch)) {
                inner.poisoned = Some(e.to_string());
                return Err(LogError::Store(e));
            }
            removed += 1;
        }
        inner.snapshots.retain(|&e| e >= target);
        tg_obs::add(tg_obs::Counter::LogCompactions, 1);
        Ok(CompactionReport {
            base_epoch: target,
            folded: target - old_base,
            snapshots_removed: removed,
        })
    }

    /// The epoch after the newest committed record.
    pub fn end_epoch(&self) -> u64 {
        self.lock().chain.end_epoch()
    }

    /// The compaction base (0 if never compacted).
    pub fn base_epoch(&self) -> u64 {
        self.lock().base_epoch
    }

    /// Chain records held in memory: those above the newest snapshot.
    /// Bounded by the snapshot interval plus the records committed since
    /// the last snapshot opportunity, however long the log has run.
    pub fn resident_records(&self) -> usize {
        self.lock().chain.records().len()
    }

    /// The seed anchor digest.
    pub fn genesis(&self) -> u64 {
        self.lock().chain.genesis()
    }

    /// The chain hash of the newest record.
    pub fn head_hash(&self) -> u64 {
        self.lock().chain.head_hash()
    }

    /// Epochs of snapshot files currently present (validated lazily on
    /// use).
    pub fn snapshot_epochs(&self) -> Vec<u64> {
        self.lock().snapshots.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().expect("log lock")
    }
}
