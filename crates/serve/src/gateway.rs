//! The gateway: the daemon's single choke point.
//!
//! Every mutation and query a session sends enters here, in the order
//! the gateway consumes it — that consumption order **is** the canonical
//! serial order of the daemon (see `DESIGN.md` §15). Mutations are
//! *group committed*: consecutive rules (at most `batch_window`) form one
//! admission batch. Each rule is checked and applied on its own through
//! [`Monitor::try_apply`], in arrival order, so the state is exactly the
//! sequential application of the arrival order and every request gets
//! the verdict *its own rule* earned. The group then shares one snapshot
//! opportunity, one commit-log persist (one fdatasync) and one
//! incremental re-audit, and no verdict of the group is released before
//! that persist succeeds.

use std::mem;

use tg_graph::{Right, VertexId};
use tg_hierarchy::{CombinedRestriction, Monitor};
use tg_inc::SharedIndex;
use tg_log::CommitLog;
use tg_par::{par_queries, Pool, Query};
use tg_rules::Rule;

use crate::proto::{Frame, Opcode};

/// A decoded request body, one per request opcode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Apply one rule through the monitor.
    Apply(Box<Rule>),
    /// `can_share(right, x, y)` by vertex name (Theorem 2.3).
    CanShare(Right, String, String),
    /// `can_know(x, y)` by vertex name (Theorem 3.2).
    CanKnow(String, String),
    /// Do `x` and `y` share an island (paper §2)?
    SameIsland(String, String),
    /// The audit verdict (Corollary 5.6, maintained incrementally).
    Audit,
    /// Monitor counters and commit-log epoch.
    Stats,
    /// Graceful stop.
    Shutdown,
}

impl Request {
    /// Whether this request mutates monitor state (and therefore joins
    /// the admission batch instead of a query wave).
    pub fn is_mutation(&self) -> bool {
        matches!(self, Request::Apply(_))
    }
}

/// Decodes a request frame's payload. Errors are `bad-payload` texts
/// destined for an [`Opcode::Error`] response; they never reach the
/// monitor.
pub fn parse_request(frame: &Frame) -> Result<Request, String> {
    let text = core::str::from_utf8(&frame.payload)
        .map_err(|_| "bad-payload: payload is not UTF-8".to_string())?;
    let text = text.trim();
    let two = |text: &str| -> Result<(String, String), String> {
        let parts: Vec<&str> = text.split_whitespace().collect();
        match parts.as_slice() {
            [x, y] => Ok((x.to_string(), y.to_string())),
            _ => Err(format!("bad-payload: expected `<x> <y>`, got {text:?}")),
        }
    };
    let empty = |text: &str, req: Request| -> Result<Request, String> {
        if text.is_empty() {
            Ok(req)
        } else {
            Err(format!("bad-payload: expected empty payload, got {text:?}"))
        }
    };
    match frame.opcode {
        Opcode::Ping => empty(text, Request::Ping),
        Opcode::Apply => {
            let rule =
                tg_rules::codec::decode_rule(text).map_err(|e| format!("bad-payload: {e}"))?;
            Ok(Request::Apply(Box::new(rule)))
        }
        Opcode::CanShare => {
            let parts: Vec<&str> = text.split_whitespace().collect();
            let [right, x, y] = parts.as_slice() else {
                return Err(format!(
                    "bad-payload: expected `<right> <x> <y>`, got {text:?}"
                ));
            };
            let right = Right::parse(right)
                .ok_or_else(|| format!("bad-payload: unknown right {right:?}"))?;
            Ok(Request::CanShare(right, x.to_string(), y.to_string()))
        }
        Opcode::CanKnow => two(text).map(|(x, y)| Request::CanKnow(x, y)),
        Opcode::SameIsland => two(text).map(|(x, y)| Request::SameIsland(x, y)),
        Opcode::Audit => empty(text, Request::Audit),
        Opcode::Stats => empty(text, Request::Stats),
        Opcode::Shutdown => empty(text, Request::Shutdown),
        other => Err(format!("bad-opcode: {:#04x} is not a request", other as u8)),
    }
}

/// The gateway's answer to one request, ready to become a response
/// frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The request was served; the payload is the answer.
    Ok(String),
    /// The monitor refused the mutation (denial, malformed rule,
    /// degraded mode). The payload is the reason.
    Refused(String),
    /// The request itself was unusable (`<code>: <detail>`).
    Error(String),
}

impl Verdict {
    /// The response frame for this verdict, echoing `request_id`.
    pub fn into_frame(self, request_id: u64) -> Frame {
        match self {
            Verdict::Ok(text) => Frame::text(request_id, Opcode::Ok, &text),
            Verdict::Refused(text) => Frame::text(request_id, Opcode::Refused, &text),
            Verdict::Error(text) => Frame::text(request_id, Opcode::Error, &text),
        }
    }
}

/// The daemon's reference-monitor front end. `T` tags each request with
/// whatever the caller needs to route the verdict back (the server uses
/// a session handle plus the wire request id).
pub struct Gateway<T> {
    monitor: Monitor,
    log: Option<CommitLog>,
    index: SharedIndex,
    batch_window: usize,
    pending: Vec<(T, Box<Rule>)>,
    /// Set on the first commit-log persistence failure; from then on
    /// every mutation fails closed with this message (the in-memory
    /// state may be ahead of the durable log, so no further admission
    /// may claim success).
    degraded: Option<String>,
    batches: u64,
    refusals: u64,
}

impl<T> Gateway<T> {
    /// Builds a gateway over `monitor`, wiring a fresh incremental index
    /// to it. `log` is the commit log the monitor is already sinking
    /// into (from [`CommitLog::create`]/[`CommitLog::open`]), if any.
    pub fn new(mut monitor: Monitor, log: Option<CommitLog>, batch_window: usize) -> Gateway<T> {
        let index = SharedIndex::new(monitor.graph(), monitor.levels(), &CombinedRestriction);
        monitor.attach_observer(index.observer());
        Gateway {
            monitor,
            log,
            index,
            batch_window: batch_window.max(1),
            pending: Vec::new(),
            degraded: None,
            batches: 0,
            refusals: 0,
        }
    }

    /// Whether mutations are waiting for admission.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Admission batches flushed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Mutations refused so far.
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// The commit log admissions are persisted to, if any.
    pub fn log(&self) -> Option<&CommitLog> {
        self.log.as_ref()
    }

    /// Queues one mutation. When the batch window fills, the batch is
    /// flushed and every queued request's verdict is returned; otherwise
    /// the verdict is deferred to the next flush.
    pub fn submit_mutation(&mut self, tag: T, rule: Box<Rule>) -> Vec<(T, Verdict)> {
        self.pending.push((tag, rule));
        if self.pending.len() >= self.batch_window {
            self.flush()
        } else {
            Vec::new()
        }
    }

    /// Flushes the pending admission batch as one group commit: each
    /// rule through [`Monitor::try_apply`] in submission order, then one
    /// snapshot opportunity, one persist and one incremental re-audit.
    /// The returned verdicts are in submission order. If the group cannot
    /// be made durable, every request in it is answered `log-failure` —
    /// an admission that cannot be made durable is not an admission —
    /// and the gateway stops admitting.
    pub fn flush(&mut self) -> Vec<(T, Verdict)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let _flush_span = tg_obs::span(tg_obs::SpanKind::ServeFlush);
        let pending = mem::take(&mut self.pending);
        self.batches += 1;
        tg_obs::add(tg_obs::Counter::ServeBatches, 1);
        if let Some(reason) = self.degraded.clone() {
            // Fail closed: a gateway that cannot make admissions durable
            // stops admitting (the answer a crashed daemon would give).
            return self.fail_group(pending, &reason);
        }
        let verdicts: Vec<Verdict> = {
            let _batch_span = tg_obs::span(tg_obs::SpanKind::ServeBatch);
            pending
                .iter()
                .map(|(_, rule)| match self.monitor.try_apply(rule) {
                    Ok(_) => Verdict::Ok("applied".into()),
                    Err(e) => Verdict::Refused(e.to_string()),
                })
                .collect()
        };
        if let Some(log) = &self.log {
            let persisted = log
                .maybe_snapshot(&self.monitor)
                .and_then(|_| log.persist());
            if let Err(e) = persisted {
                let reason = e.to_string();
                self.degraded = Some(reason.clone());
                return self.fail_group(pending, &reason);
            }
        }
        let refused = verdicts
            .iter()
            .filter(|v| matches!(v, Verdict::Refused(_)))
            .count() as u64;
        self.refusals += refused;
        tg_obs::add(tg_obs::Counter::ServeRefusals, refused);
        // The one incremental re-audit per admission batch: a read of
        // the maintained violation set, not a Corollary 5.6 rescan.
        let _ = self.index.audit_clean();
        pending
            .into_iter()
            .map(|(tag, _)| tag)
            .zip(verdicts)
            .collect()
    }

    /// Answers every request of a group that was not made durable with
    /// `log-failure`.
    fn fail_group(&mut self, group: Vec<(T, Box<Rule>)>, reason: &str) -> Vec<(T, Verdict)> {
        self.refusals += group.len() as u64;
        group
            .into_iter()
            .map(|(tag, _)| (tag, Verdict::Error(format!("log-failure: {reason}"))))
            .collect()
    }

    /// Processes one drain of requests in arrival order, handing every
    /// verdict to `emit` as soon as it is final. Consecutive mutations
    /// join the pending group (flushed whenever it reaches the batch
    /// window); consecutive queries form a wave, answered — after the
    /// group they follow is flushed — when a mutation or the end of the
    /// drain arrives. The drain ends with a flush, so no verdict waits
    /// for a later drain. Returns whether the drain held a `Shutdown`.
    pub fn drain(
        &mut self,
        requests: impl IntoIterator<Item = (T, Request)>,
        pool: &Pool,
        mut emit: impl FnMut(T, Verdict),
    ) -> bool {
        let mut wave: Vec<(T, Request)> = Vec::new();
        let mut shutdown = false;
        for (tag, request) in requests {
            match request {
                Request::Apply(rule) => {
                    // The queued queries must not observe this mutation.
                    if !wave.is_empty() {
                        for (tag, verdict) in self.query_wave(mem::take(&mut wave), pool) {
                            emit(tag, verdict);
                        }
                    }
                    for (tag, verdict) in self.submit_mutation(tag, rule) {
                        emit(tag, verdict);
                    }
                }
                Request::Shutdown => {
                    for (tag, verdict) in self.query_wave(mem::take(&mut wave), pool) {
                        emit(tag, verdict);
                    }
                    emit(tag, Verdict::Ok("bye".into()));
                    shutdown = true;
                }
                other => wave.push((tag, other)),
            }
        }
        for (tag, verdict) in self.query_wave(wave, pool) {
            emit(tag, verdict);
        }
        shutdown
    }

    /// Answers a wave of read-only requests, flushing the pending batch
    /// first so every query observes all mutations that arrived before
    /// it. `can_share`/`can_know` queries in the wave are evaluated
    /// together on the pool (Theorem 2.3/3.2 queries are independent);
    /// the rest are answered from the maintained index. Returned
    /// verdicts: flush verdicts first, then the wave in order.
    pub fn query_wave(&mut self, wave: Vec<(T, Request)>, pool: &Pool) -> Vec<(T, Verdict)> {
        let mut out = self.flush();
        // First pass: resolve names and collect the parallelizable
        // queries; `None` marks slots answered inline.
        let mut parallel: Vec<Query> = Vec::new();
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(wave.len());
        let mut inline: Vec<Option<Verdict>> = Vec::with_capacity(wave.len());
        for (_, request) in &wave {
            match request {
                Request::CanShare(right, x, y) => match self.resolve_pair(x, y) {
                    Ok((vx, vy)) => {
                        slots.push(Some(parallel.len()));
                        parallel.push(Query::CanShare(*right, vx, vy));
                        inline.push(None);
                    }
                    Err(e) => {
                        slots.push(None);
                        inline.push(Some(Verdict::Error(e)));
                    }
                },
                Request::CanKnow(x, y) => match self.resolve_pair(x, y) {
                    Ok((vx, vy)) => {
                        slots.push(Some(parallel.len()));
                        parallel.push(Query::CanKnow(vx, vy));
                        inline.push(None);
                    }
                    Err(e) => {
                        slots.push(None);
                        inline.push(Some(Verdict::Error(e)));
                    }
                },
                other => {
                    slots.push(None);
                    inline.push(Some(self.answer_inline(other)));
                }
            }
        }
        let answers = if parallel.is_empty() {
            Vec::new()
        } else {
            par_queries(self.monitor.graph(), &parallel, pool)
        };
        for ((tag, _), (slot, inline)) in wave.into_iter().zip(slots.into_iter().zip(inline)) {
            let verdict = match slot {
                Some(i) => Verdict::Ok(answers[i].to_string()),
                None => inline.expect("inline slots carry a verdict"),
            };
            out.push((tag, verdict));
        }
        out
    }

    /// Answers the requests that need no pool: audit, stats, ping,
    /// same-island, shutdown acknowledgement.
    fn answer_inline(&self, request: &Request) -> Verdict {
        match request {
            Request::Ping => Verdict::Ok("pong".into()),
            Request::Audit => {
                let violations = self.index.violations();
                if violations.is_empty() {
                    Verdict::Ok("clean".into())
                } else {
                    Verdict::Ok(format!("violating {}", violations.len()))
                }
            }
            Request::Stats => {
                let s = self.monitor.stats();
                let epoch = self.log.as_ref().map(|l| l.end_epoch()).unwrap_or(0);
                Verdict::Ok(format!(
                    "permitted {} denied {} malformed {} refused {} epoch {}",
                    s.permitted, s.denied, s.malformed, s.refused, epoch
                ))
            }
            Request::SameIsland(x, y) => match self.resolve_pair(x, y) {
                Ok((vx, vy)) => Verdict::Ok(
                    self.index
                        .same_island(self.monitor.graph(), vx, vy)
                        .to_string(),
                ),
                Err(e) => Verdict::Error(e),
            },
            Request::Shutdown => Verdict::Ok("bye".into()),
            Request::Apply(_) | Request::CanShare(..) | Request::CanKnow(..) => {
                unreachable!("mutations and pool queries are routed elsewhere")
            }
        }
    }

    fn resolve_pair(&self, x: &str, y: &str) -> Result<(VertexId, VertexId), String> {
        let graph = self.monitor.graph();
        let resolve = |name: &str| {
            graph
                .find_by_name(name)
                .ok_or_else(|| format!("unknown-vertex: no vertex named {name:?}"))
        };
        Ok((resolve(x)?, resolve(y)?))
    }

    /// Flushes any remaining batch, persists the log, and surrenders the
    /// monitor (and log) for post-shutdown inspection — the soak test
    /// compares this state byte-for-byte against an offline replay of
    /// the commit log.
    pub fn finish(mut self) -> Result<(Monitor, Option<CommitLog>), String> {
        let _ = self.flush();
        if let Some(reason) = &self.degraded {
            return Err(format!("log-failure: {reason}"));
        }
        if let Some(log) = &self.log {
            log.maybe_snapshot(&self.monitor)
                .map_err(|e| e.to_string())?;
            log.persist().map_err(|e| e.to_string())?;
        }
        Ok((self.monitor, self.log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{ProtectionGraph, Rights};
    use tg_hierarchy::LevelAssignment;
    use tg_rules::DeJureRule;

    /// Two subjects at `high`, `s1 -t-> s2`; `s2` reads two high
    /// documents and writes one low document. Taking a read at the same
    /// level is admissible; taking the write to the low document is a
    /// write-down the combined restriction denies.
    fn system() -> (ProtectionGraph, LevelAssignment) {
        let mut g = ProtectionGraph::new();
        let s1 = g.add_subject("s1");
        let s2 = g.add_subject("s2");
        let doc_a = g.add_object("doc_a");
        let doc_b = g.add_object("doc_b");
        let low = g.add_object("low");
        g.add_edge(s1, s2, Rights::T).unwrap();
        g.add_edge(s2, doc_a, Rights::R).unwrap();
        g.add_edge(s2, doc_b, Rights::R).unwrap();
        g.add_edge(s2, low, Rights::W).unwrap();
        let mut levels = LevelAssignment::linear(&["low", "high"]);
        for v in [s1, s2, doc_a, doc_b] {
            levels.assign(v, 1).unwrap();
        }
        levels.assign(low, 0).unwrap();
        (g, levels)
    }

    fn monitor_of(g: &ProtectionGraph, levels: &LevelAssignment) -> Monitor {
        Monitor::new(g.clone(), levels.clone(), Box::new(CombinedRestriction))
    }

    fn take(g: &ProtectionGraph, target: &str, rights: Rights) -> Box<Rule> {
        let v = |n: &str| g.find_by_name(n).expect("vertex");
        Box::new(Rule::DeJure(DeJureRule::Take {
            actor: v("s1"),
            via: v("s2"),
            target: v(target),
            rights,
        }))
    }

    #[test]
    fn window_defers_until_full() {
        let (g, levels) = system();
        let mut gw: Gateway<u64> = Gateway::new(monitor_of(&g, &levels), None, 2);
        assert!(gw
            .submit_mutation(1, take(&g, "doc_a", Rights::R))
            .is_empty());
        assert!(gw.has_pending());
        let verdicts = gw.submit_mutation(2, take(&g, "doc_b", Rights::R));
        assert_eq!(verdicts.len(), 2);
        assert!(!gw.has_pending());
        assert_eq!(gw.batches(), 1);
        for (_, v) in &verdicts {
            assert_eq!(v, &Verdict::Ok("applied".into()));
        }
    }

    /// A take `s2` cannot perform: `s2` holds no take right over `s1`.
    fn malformed(g: &ProtectionGraph) -> Box<Rule> {
        let v = |n: &str| g.find_by_name(n).expect("vertex");
        Box::new(Rule::DeJure(DeJureRule::Take {
            actor: v("s2"),
            via: v("s1"),
            target: v("doc_a"),
            rights: Rights::R,
        }))
    }

    fn sequential_verdicts(monitor: &mut Monitor, rules: &[Box<Rule>]) -> Vec<Verdict> {
        rules
            .iter()
            .map(|rule| match monitor.try_apply(rule) {
                Ok(_) => Verdict::Ok("applied".into()),
                Err(e) => Verdict::Refused(e.to_string()),
            })
            .collect()
    }

    #[test]
    fn refusals_mid_group_attribute_verdicts_exactly() {
        let (g, levels) = system();
        // One group of four with a denial and a malformed rule in the
        // middle: rules 1 and 4 are admitted, only 2 and 3 refused —
        // identical to a monitor fed the four rules one at a time, and
        // each refusal is counted once.
        let mut gw: Gateway<u64> = Gateway::new(monitor_of(&g, &levels), None, 4);
        let mut seq = monitor_of(&g, &levels);
        let rules = [
            take(&g, "doc_a", Rights::R),
            take(&g, "low", Rights::W), // write-down: denied
            malformed(&g),
            take(&g, "doc_b", Rights::R),
        ];
        let mut batched = Vec::new();
        for (i, rule) in rules.iter().enumerate() {
            batched.extend(gw.submit_mutation(i as u64, rule.clone()));
        }
        let sequential = sequential_verdicts(&mut seq, &rules);
        assert_eq!(batched.len(), 4);
        assert_eq!(gw.batches(), 1);
        for ((tag, got), want) in batched.iter().zip(&sequential) {
            assert_eq!(got, want, "verdict for request {tag}");
        }
        assert!(matches!(batched[0].1, Verdict::Ok(_)));
        assert!(matches!(batched[1].1, Verdict::Refused(_)));
        assert!(matches!(batched[2].1, Verdict::Refused(_)));
        assert!(matches!(batched[3].1, Verdict::Ok(_)));
        assert_eq!(gw.refusals(), 2);
        // The state and every counter are the sequential ones.
        let (monitor, _) = gw.finish().unwrap();
        assert_eq!(monitor.stats(), seq.stats());
        assert_eq!((seq.stats().denied, seq.stats().malformed), (1, 1));
        assert_eq!(
            tg_graph::render_graph(monitor.graph()),
            tg_graph::render_graph(seq.graph())
        );
    }

    #[test]
    fn a_drain_of_consecutive_applies_is_one_group() {
        let (g, levels) = system();
        let pool = Pool::sequential();
        let mut gw: Gateway<u64> = Gateway::new(monitor_of(&g, &levels), None, 16);
        let applies = |from: u64, n: u64| -> Vec<(u64, Request)> {
            (from..from + n)
                .map(|i| {
                    let doc = if i % 2 == 0 { "doc_a" } else { "doc_b" };
                    (i, Request::Apply(take(&g, doc, Rights::R)))
                })
                .collect()
        };
        let mut out = Vec::new();
        assert!(!gw.drain(applies(0, 5), &pool, |t, v| out.push((t, v))));
        assert_eq!(gw.batches(), 1, "five consecutive applies share one group");
        assert!(!gw.has_pending(), "the drain ends with a flush");
        assert_eq!(
            out.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert!(out.iter().all(|(_, v)| *v == Verdict::Ok("applied".into())));

        // The batch window caps a group: 40 applies make 16 + 16 + 8.
        out.clear();
        let _ = gw.drain(applies(5, 40), &pool, |t, v| out.push((t, v)));
        assert_eq!(gw.batches(), 4);
        assert_eq!(out.len(), 40);

        // A query splits the run: the applies before it are flushed so
        // it observes them, the ones after it form the next group, and
        // verdicts leave in arrival order.
        out.clear();
        let mut mixed = applies(45, 2);
        mixed.push((47, Request::Stats));
        mixed.extend(applies(48, 2));
        mixed.push((50, Request::Shutdown));
        assert!(gw.drain(mixed, &pool, |t, v| out.push((t, v))));
        assert_eq!(gw.batches(), 6);
        assert_eq!(
            out.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            [45, 46, 47, 48, 49, 50]
        );
        assert!(matches!(&out[2].1, Verdict::Ok(s) if s.starts_with("permitted 47 ")));
        assert_eq!(out[5].1, Verdict::Ok("bye".into()));
    }

    #[test]
    fn a_group_that_cannot_persist_fails_closed() {
        use tg_log::{LogConfig, MemStore};
        use tg_sim::faults::CrashPlan;
        let (g, levels) = system();
        let store = MemStore::new();
        let config = LogConfig {
            snapshot_interval: 0,
            write_through: false,
        };
        let (log, monitor) = CommitLog::create(
            Box::new(store.clone()),
            g.clone(),
            levels,
            Box::new(CombinedRestriction),
            config,
        )
        .unwrap();
        let pool = Pool::sequential();
        let mut gw: Gateway<u64> = Gateway::new(monitor, Some(log), 16);
        // The disk dies before the group's persist: no request of the
        // group, admitted or refused, may be answered as if durable.
        store.set_plan(CrashPlan::kill_after_bytes(0));
        let group = vec![
            (1, Request::Apply(take(&g, "doc_a", Rights::R))),
            (2, Request::Apply(take(&g, "low", Rights::W))),
            (3, Request::Apply(take(&g, "doc_b", Rights::R))),
        ];
        let mut out = Vec::new();
        let _ = gw.drain(group, &pool, |t, v| out.push((t, v)));
        assert_eq!(out.len(), 3);
        for (tag, verdict) in &out {
            assert!(
                matches!(verdict, Verdict::Error(e) if e.starts_with("log-failure: ")),
                "request {tag}: {verdict:?}"
            );
        }
        // And the gateway stays closed for later groups.
        out.clear();
        let later = vec![(4, Request::Apply(take(&g, "doc_a", Rights::R)))];
        let _ = gw.drain(later, &pool, |t, v| out.push((t, v)));
        assert!(matches!(&out[0].1, Verdict::Error(e) if e.starts_with("log-failure: ")));
        assert!(gw.finish().is_err());
    }

    #[test]
    fn resident_chain_stays_bounded_by_the_snapshot_interval() {
        use tg_log::{LogConfig, MemStore};
        let (g, levels) = system();
        let config = LogConfig {
            snapshot_interval: 64,
            write_through: false,
        };
        let (log, monitor) = CommitLog::create(
            Box::new(MemStore::new()),
            g.clone(),
            levels,
            Box::new(CombinedRestriction),
            config,
        )
        .unwrap();
        let pool = Pool::sequential();
        let window = 16;
        let mut gw: Gateway<u64> = Gateway::new(monitor, Some(log), window);
        let rules = [
            take(&g, "doc_a", Rights::R),
            take(&g, "low", Rights::W),
            malformed(&g),
            take(&g, "doc_b", Rights::R),
        ];
        let mut next = 0u64;
        let mut answered = 0;
        for drain in 0..300u64 {
            // Drains of 1 to 23 requests, so groups cut the snapshot
            // interval at every phase.
            let len = 1 + (drain * 7) % 23;
            let requests: Vec<(u64, Request)> = (next..next + len)
                .map(|i| (i, Request::Apply(rules[i as usize % rules.len()].clone())))
                .collect();
            next += len;
            let _ = gw.drain(requests, &pool, |_, _| answered += 1);
            let resident = gw.log().unwrap().resident_records();
            assert!(
                resident <= 64 + window,
                "{resident} records resident after {next} requests"
            );
        }
        assert!(next > 3000);
        assert_eq!(answered, next);
        assert_eq!(gw.log().unwrap().end_epoch(), next);
    }

    #[test]
    fn queries_observe_prior_mutations() {
        let (g, levels) = system();
        let mut gw: Gateway<u64> = Gateway::new(monitor_of(&g, &levels), None, 64);
        let pool = Pool::sequential();
        // Queue a mutation, then query: the wave must flush it first,
        // so `stats` reports the admission and the flush verdict leads.
        let _ = gw.submit_mutation(2, take(&g, "doc_a", Rights::R));
        assert!(gw.has_pending());
        let out = gw.query_wave(
            vec![
                (
                    3,
                    Request::CanShare(Right::Read, "s1".into(), "doc_a".into()),
                ),
                (4, Request::Audit),
                (5, Request::Stats),
                (6, Request::SameIsland("s1".into(), "s2".into())),
                (7, Request::Ping),
            ],
            &pool,
        );
        assert_eq!(out[0], (2, Verdict::Ok("applied".into())));
        assert_eq!(out[1], (3, Verdict::Ok("true".into())));
        // The seed edge `s2 -w-> low` is a standing write-down, and the
        // maintained index reports exactly that one violation.
        assert_eq!(out[2], (4, Verdict::Ok("violating 1".into())));
        assert!(matches!(&out[3].1, Verdict::Ok(s) if s.starts_with("permitted 1 ")));
        assert_eq!(out[4], (6, Verdict::Ok("true".into())));
        assert_eq!(out[5], (7, Verdict::Ok("pong".into())));
    }

    #[test]
    fn unknown_vertices_error_without_touching_the_monitor() {
        let (g, levels) = system();
        let mut gw: Gateway<u64> = Gateway::new(monitor_of(&g, &levels), None, 4);
        let pool = Pool::sequential();
        let out = gw.query_wave(
            vec![(1, Request::CanKnow("nope".into(), "doc_a".into()))],
            &pool,
        );
        assert!(matches!(&out[0].1, Verdict::Error(e) if e.starts_with("unknown-vertex")));
        let (monitor, _) = gw.finish().unwrap();
        let s = monitor.stats();
        assert_eq!((s.permitted, s.denied, s.malformed), (0, 0, 0));
    }

    #[test]
    fn request_parsing_fails_closed() {
        let ok = parse_request(&Frame::text(1, Opcode::Apply, "take 0 1 2 x1"));
        assert!(matches!(ok, Ok(Request::Apply(_))));
        for (opcode, payload) in [
            (Opcode::Apply, "frobnicate 1 2"),
            (Opcode::CanShare, "r onlyone"),
            (Opcode::CanShare, "zz a b"),
            (Opcode::CanKnow, "three part payload"),
            (Opcode::Ping, "unexpected"),
            (Opcode::Audit, "unexpected"),
        ] {
            let err = parse_request(&Frame::text(1, opcode, payload)).unwrap_err();
            assert!(err.starts_with("bad-payload"), "{opcode:?}: {err}");
        }
        // A response opcode is not a request.
        let err = parse_request(&Frame::text(1, Opcode::Ok, "")).unwrap_err();
        assert!(err.starts_with("bad-opcode"));
    }
}
