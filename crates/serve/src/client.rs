//! A blocking TGP1 client and the line-oriented script runner behind
//! `tgq client`.
//!
//! The client owns request-id assignment (monotonically increasing
//! from 1) and supports both lock-step use ([`Client::request`]) and
//! pipelining: [`Client::send`] a burst, then [`Client::recv`] the
//! responses — the daemon answers each session in request order, so no
//! reordering buffer is needed.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;

use crate::proto::{read_frame, write_frame, write_magic, Frame, Opcode, ProtoError};

/// A connected TGP1 session.
pub struct Client {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
    /// Ids of sent-but-unanswered requests, oldest first.
    in_flight: VecDeque<u64>,
}

impl Client {
    /// Connects over TCP and sends the `TGP1` preamble.
    ///
    /// # Errors
    ///
    /// Connection refusal, resolution failure, or a failed preamble
    /// write, as text.
    pub fn connect_tcp(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // Requests are small frames; without this a pipelined burst can
        // stall on the daemon's delayed ACK.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Client::handshake(Box::new(stream), Box::new(writer))
    }

    /// Connects over a Unix domain socket and sends the preamble.
    ///
    /// # Errors
    ///
    /// Connection or preamble failure, as text.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> Result<Client, String> {
        let stream = std::os::unix::net::UnixStream::connect(path)
            .map_err(|e| format!("cannot connect to {}: {e}", path.display()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Client::handshake(Box::new(stream), Box::new(writer))
    }

    fn handshake(
        reader: Box<dyn Read + Send>,
        mut writer: Box<dyn Write + Send>,
    ) -> Result<Client, String> {
        write_magic(&mut writer).map_err(|e| format!("cannot send preamble: {e}"))?;
        writer.flush().map_err(|e| format!("cannot flush: {e}"))?;
        Ok(Client {
            reader,
            writer,
            next_id: 1,
            in_flight: VecDeque::new(),
        })
    }

    /// Sends one request frame without waiting; returns its request id.
    ///
    /// # Errors
    ///
    /// Transport failure, as text.
    pub fn send(&mut self, opcode: Opcode, payload: &str) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = Frame::text(id, opcode, payload);
        write_frame(&mut self.writer, &frame).map_err(|e| format!("send failed: {e}"))?;
        self.writer
            .flush()
            .map_err(|e| format!("flush failed: {e}"))?;
        self.in_flight.push_back(id);
        Ok(id)
    }

    /// Receives the next response frame, which must answer the oldest
    /// in-flight request (the daemon preserves per-session order).
    ///
    /// # Errors
    ///
    /// Transport failure, an unexpectedly closed connection, a non-
    /// response opcode, or a response id that is not the oldest
    /// in-flight id.
    pub fn recv(&mut self) -> Result<Frame, String> {
        let expected = self
            .in_flight
            .pop_front()
            .ok_or_else(|| "no request in flight".to_string())?;
        let frame = match read_frame(&mut self.reader) {
            Ok(frame) => frame,
            Err(ProtoError::Closed) => return Err("connection closed before response".to_string()),
            Err(e) => return Err(format!("receive failed: {e}")),
        };
        if !frame.opcode.is_response() {
            return Err(format!(
                "protocol violation: request opcode {:#04x} in response",
                frame.opcode as u8
            ));
        }
        if frame.request_id != expected {
            return Err(format!(
                "protocol violation: response id {} while {} is oldest in flight",
                frame.request_id, expected
            ));
        }
        Ok(frame)
    }

    /// Lock-step round trip: [`Client::send`] then [`Client::recv`].
    ///
    /// # Errors
    ///
    /// As for the two halves.
    pub fn request(&mut self, opcode: Opcode, payload: &str) -> Result<Frame, String> {
        self.send(opcode, payload)?;
        self.recv()
    }
}

/// One parsed script line: the request to send.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScriptLine {
    /// Request opcode.
    pub opcode: Opcode,
    /// Request payload text.
    pub payload: String,
}

/// Parses the `tgq client` script dialect: one request per line, blank
/// lines and `#` comments skipped. Verbs: `ping`, `audit`, `stats`,
/// `shutdown` (bare); `apply <rule-line>`; `can-share <right> <x> <y>`;
/// `can-know <x> <y>`; `same-island <x> <y>`.
///
/// # Errors
///
/// An unknown verb or an arity the server would reject anyway, with the
/// 1-based line number.
pub fn parse_script(text: &str) -> Result<Vec<ScriptLine>, String> {
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (line, ""),
        };
        let arity = |n: usize, shape: &str| -> Result<(), String> {
            if rest.split_whitespace().count() == n {
                Ok(())
            } else {
                Err(format!("line {}: {verb} takes {shape}", i + 1))
            }
        };
        let parsed = match verb {
            "ping" => {
                arity(0, "no arguments")?;
                ScriptLine {
                    opcode: Opcode::Ping,
                    payload: String::new(),
                }
            }
            "audit" => {
                arity(0, "no arguments")?;
                ScriptLine {
                    opcode: Opcode::Audit,
                    payload: String::new(),
                }
            }
            "stats" => {
                arity(0, "no arguments")?;
                ScriptLine {
                    opcode: Opcode::Stats,
                    payload: String::new(),
                }
            }
            "shutdown" => {
                arity(0, "no arguments")?;
                ScriptLine {
                    opcode: Opcode::Shutdown,
                    payload: String::new(),
                }
            }
            "apply" => {
                if rest.is_empty() {
                    return Err(format!("line {}: apply takes `<rule-line>`", i + 1));
                }
                ScriptLine {
                    opcode: Opcode::Apply,
                    payload: rest.to_string(),
                }
            }
            "can-share" => {
                arity(3, "`<right> <x> <y>`")?;
                ScriptLine {
                    opcode: Opcode::CanShare,
                    payload: rest.to_string(),
                }
            }
            "can-know" => {
                arity(2, "`<x> <y>`")?;
                ScriptLine {
                    opcode: Opcode::CanKnow,
                    payload: rest.to_string(),
                }
            }
            "same-island" => {
                arity(2, "`<x> <y>`")?;
                ScriptLine {
                    opcode: Opcode::SameIsland,
                    payload: rest.to_string(),
                }
            }
            other => return Err(format!("line {}: unknown verb {other:?}", i + 1)),
        };
        lines.push(parsed);
    }
    Ok(lines)
}

/// Outcome of a script run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScriptOutcome {
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered `refused` (a policy decision, not a failure).
    pub refused: u64,
    /// Requests answered `error` (the exit-1 condition).
    pub errors: u64,
}

/// Runs a parsed script over `client`, appending one line per response
/// to `out` in the form `<id> <ok|refused|error>: <payload>`. Requests
/// are pipelined in bursts of up to 32. Stops early if the daemon
/// acknowledged a `shutdown` (later lines would meet a dead socket).
///
/// # Errors
///
/// Transport or protocol failure, as text; policy refusals and error
/// verdicts are *not* run errors — they are tallied in the outcome.
pub fn run_script(
    client: &mut Client,
    lines: &[ScriptLine],
    out: &mut String,
) -> Result<ScriptOutcome, String> {
    let mut outcome = ScriptOutcome::default();
    let mut stop = false;
    for burst in lines.chunks(32) {
        if stop {
            break;
        }
        for line in burst {
            client.send(line.opcode, &line.payload)?;
        }
        for line in burst {
            let frame = client.recv()?;
            let kind = match frame.opcode {
                Opcode::Ok => {
                    outcome.ok += 1;
                    "ok"
                }
                Opcode::Refused => {
                    outcome.refused += 1;
                    "refused"
                }
                _ => {
                    outcome.errors += 1;
                    "error"
                }
            };
            out.push_str(&format!(
                "{} {kind}: {}\n",
                frame.request_id,
                frame.payload_text()
            ));
            if line.opcode == Opcode::Shutdown && frame.opcode == Opcode::Ok {
                stop = true;
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_parse_to_requests() {
        let script = "\
# liveness first
ping
apply take 0 1 2 rw
can-share r alice report
can-know alice report
same-island alice bob
audit
stats
shutdown
";
        let lines = parse_script(script).unwrap();
        let opcodes: Vec<Opcode> = lines.iter().map(|l| l.opcode).collect();
        assert_eq!(
            opcodes,
            vec![
                Opcode::Ping,
                Opcode::Apply,
                Opcode::CanShare,
                Opcode::CanKnow,
                Opcode::SameIsland,
                Opcode::Audit,
                Opcode::Stats,
                Opcode::Shutdown,
            ]
        );
        assert_eq!(lines[1].payload, "take 0 1 2 rw");
        assert_eq!(lines[2].payload, "r alice report");
    }

    #[test]
    fn script_errors_carry_line_numbers() {
        for (script, needle) in [
            ("frobnicate", "line 1: unknown verb"),
            ("ping\ncan-know onlyone", "line 2: can-know takes"),
            ("\n\napply", "line 3: apply takes"),
            ("ping extra", "line 1: ping takes no arguments"),
        ] {
            let err = parse_script(script).unwrap_err();
            assert!(err.contains(needle), "{script:?}: {err}");
        }
    }
}
