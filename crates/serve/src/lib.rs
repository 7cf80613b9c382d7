//! `tg-serve`: a resident Take-Grant policy-decision daemon.
//!
//! The workspace's other crates answer policy questions in one process,
//! one invocation at a time. This crate keeps a [`Monitor`] resident
//! and lets many clients share it over a socket, without weakening any
//! guarantee the monitor gives:
//!
//! - **One choke point.** Every request — mutation or query — funnels
//!   through the [`gateway::Gateway`], in a single canonical serial
//!   order. There is no second path to the monitor.
//! - **A hand-rolled wire protocol.** [`proto`] implements TGP1, a
//!   length-prefixed binary framing over TCP or Unix sockets whose
//!   payloads are the workspace's existing text codecs. The normative
//!   spec lives in `docs/PROTOCOL.md`; `tests/conformance.rs` pins this
//!   implementation to that document byte for byte.
//! - **Group commit.** Consecutive queued mutations form one admission
//!   batch: each rule goes through [`Monitor::try_apply`] on its own,
//!   and the group shares one commit-log persist (one fdatasync) and one
//!   incremental re-audit ([`gateway`]).
//! - **Fail-closed durability.** With a commit log attached, a verdict
//!   is released only after its group's persist succeeded; a group that
//!   cannot be made durable is answered `log-failure`, and the gateway
//!   then refuses all further mutations.
//! - **Proof under load.** [`soak`] boots a real daemon, drives it from
//!   dozens of concurrent sessions, and cross-checks the final state
//!   against an offline replay of the commit log.
//!
//! `tgq serve` and `tgq client` (in the CLI crate) are thin wrappers
//! over [`server::Server`] and [`client::Client`].
//!
//! [`Monitor`]: tg_hierarchy::Monitor
//! [`Monitor::try_apply`]: tg_hierarchy::Monitor::try_apply

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod gateway;
pub mod proto;
pub mod server;
pub mod soak;

pub use client::{parse_script, run_script, Client, ScriptLine, ScriptOutcome};
pub use gateway::{parse_request, Gateway, Request, Verdict};
pub use proto::{Frame, Opcode, ProtoError};
pub use server::{Bind, ServeConfig, Server, ServerReport};
pub use soak::{run_soak, SoakConfig, SoakReport};
