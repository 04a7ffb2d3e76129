//! Length-prefixed message framing (format v2) over loopback TCP.
//!
//! ```text
//! <8 hex digits: payload length><head JSON>\n<raw little-endian sections>
//! ```
//!
//! The ASCII-hex length prefix is human-greppable in a packet capture,
//! has no endianness, and makes truncation detectable: a reader that
//! times out mid-frame knows the stream is torn and the peer condemned —
//! frames are never resynchronized, because a worker whose stream
//! desynced is indistinguishable from a dead one and is migrated the
//! same way.
//!
//! The payload is a one-line JSON *head* — the message tag, sweep and
//! group, the spec digest, and the element count of every section —
//! then `\n`, then the bulk data as raw sections in the order the head
//! declares them: a `(site, label)` update list is two fixed-width
//! columns (`u32` sites, then `u8` labels; no varints, no compression),
//! planes and fault text are raw bytes, `(group, chunk)` cells are `u32`
//! pairs, and a replay log is one update list per completed group. A
//! site index fits `u32` because a plane has to fit one frame. Encoding
//! is the head plus `extend_from_slice`; decoding is the workspace's one
//! envelope reader, `mogs_ckpt::split_head` and `mogs_ckpt::Sections`,
//! which checkpoints read through too. Inside the head the workspace
//! envelope discipline holds (see [`crate::spec`]): `u64` as 16-digit
//! hex, plain numbers only for provably-small integers.
//!
//! A reader verifies in trust order: the **length** prefix against
//! [`FRAME_LIMIT`] before the payload buffer exists; the **head** line,
//! which must end within [`HEAD_LIMIT`] bytes (so parsing it costs time
//! and memory bounded by the cap, not by the frame) and be UTF-8; every
//! declared **count** against the bytes actually present —
//! overflow-checked, before anything is allocated, with trailing bytes
//! refused — and only then the **values**, whose range checks (site
//! inside the plane, label inside the space) belong to whoever applies
//! them. A frame-level violation is [`FleetError::Frame`], everything
//! inside the payload [`FleetError::Protocol`].
//!
//! There is one format and one reader. The v1 hex/JSON frames are
//! refused like any other garbage rather than dual-read: both ends of a
//! stream are always the same build (workers are spawned by their
//! coordinator), so a second decoder would be a second trust boundary
//! to fuzz for a peer that cannot exist.
//!
//! Every function on the wire path returns [`FleetResult`], and the
//! types keep it so: a [`Conn`]'s socket is private to this module, and
//! only [`send_frame`] and [`recv_frame`] touch it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mogs_ckpt::{parse_hex_u64, parse_object, split_head, Sections};
use serde::de::Parser;
use serde::{Deserialize, Serialize};

use crate::error::{FleetError, FleetResult};
use crate::spec::protocol;

/// Upper bound on one frame's payload, far above any plane this
/// workspace samples; anything larger is a corrupt prefix.
pub const FRAME_LIMIT: usize = 64 << 20;

/// Upper bound on a payload's JSON head line, its newline included.
/// Heads carry a tag, a digest, and a handful of counts — a few hundred
/// bytes; the bound keeps the time and memory a head's parse can take
/// independent of the frame size. (Nesting depth is bounded apart from
/// it, by `serde::de::MAX_DEPTH`, and skipping an unknown value does
/// not recurse.)
pub const HEAD_LIMIT: usize = 4096;

/// Frames and bytes one stream has moved, length prefixes included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Frames sent plus frames received.
    pub frames: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Bytes read from the socket.
    pub bytes_in: u64,
}

impl Traffic {
    /// Adds another stream's totals to this one.
    pub fn absorb(&mut self, other: Traffic) {
        self.frames += other.frames;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
    }
}

/// One established coordinator↔worker stream.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// The read timeout the socket currently has, once one was applied.
    read_timeout: Option<Option<Duration>>,
    traffic: Traffic,
}

impl Conn {
    /// Wraps a loopback TCP stream. Frames are written whole and
    /// answered immediately, so Nagle's algorithm is switched off on
    /// both ends.
    #[must_use]
    pub fn tcp(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        Conn {
            stream,
            read_timeout: None,
            traffic: Traffic::default(),
        }
    }

    /// What this stream has moved so far.
    #[must_use]
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Applies a read timeout (`None` blocks forever); a no-op when the
    /// socket already has it.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> FleetResult<()> {
        if self.read_timeout != Some(timeout) {
            self.stream
                .set_read_timeout(timeout)
                .map_err(|e| FleetError::io("setting read timeout", e))?;
            self.read_timeout = Some(timeout);
        }
        Ok(())
    }
}

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// (Re)pins the runner the worker admitted at launch: pin the cells,
    /// seat the plane, replay the completed phases of the resume sweep.
    Assign {
        /// The launch spec's digest; any other is refused.
        digest: u64,
        /// Owned `(group, chunk)` cells.
        cells: Vec<(usize, usize)>,
        /// Sweep-boundary plane to seat; `None` keeps the runner's plane
        /// (a fresh start, on the admission plane).
        plane: Option<Vec<u8>>,
        /// First sweep the shard runs after the (re)pin.
        resume_sweep: usize,
        /// Per-group update logs of the resume sweep's completed phases:
        /// the shard runs its own chunks of group `i`, then applies
        /// `replay[i]`, for each `i` in order.
        replay: Vec<Vec<(usize, u8)>>,
    },
    /// Run one color phase of one sweep.
    Phase {
        /// Sweep index.
        sweep: usize,
        /// Color group index.
        group: usize,
    },
    /// Labels of the shard's halo sites sampled by other shards this
    /// phase; no acknowledgement (stream ordering sequences it before
    /// the next `Phase`).
    Halo {
        /// `(site, label)` updates.
        updates: Vec<(usize, u8)>,
    },
    /// Orderly shutdown; the worker replies `Bye` and exits.
    Finish,
}

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoordinator {
    /// The `Assign` was admitted and caught up.
    AssignOk {
        /// Sites the shard owns (sanity echo).
        owned: usize,
    },
    /// One phase completed; `updates` covers every owned site of the
    /// group.
    PhaseDone {
        /// Sweep index, echoed.
        sweep: usize,
        /// Group index, echoed.
        group: usize,
        /// `(site, label)` for each owned site of the group.
        updates: Vec<(usize, u8)>,
    },
    /// The worker hit a fatal error and is about to exit (best-effort
    /// courtesy; the coordinator treats the death itself as truth).
    Fault {
        /// The worker-side failure, verbatim.
        reason: String,
    },
    /// Orderly shutdown acknowledgement.
    Bye,
}

/// Writes one frame: 8-hex-digit length prefix plus payload, in a single
/// write.
///
/// # Errors
///
/// [`FleetError::Frame`] when the payload exceeds [`FRAME_LIMIT`],
/// [`FleetError::Io`] on a socket failure.
pub fn send_frame(conn: &mut Conn, payload: &[u8]) -> FleetResult<()> {
    if payload.len() > FRAME_LIMIT {
        return Err(FleetError::Frame {
            reason: format!("payload of {} bytes exceeds the frame limit", payload.len()),
        });
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(format!("{:08x}", payload.len()).as_bytes());
    frame.extend_from_slice(payload);
    conn.stream
        .write_all(&frame)
        .and_then(|()| conn.stream.flush())
        .map_err(|e| FleetError::io("sending frame", e))?;
    conn.traffic.frames += 1;
    conn.traffic.bytes_out += frame.len() as u64;
    Ok(())
}

/// Reads one frame's payload, honouring an optional deadline. A timeout
/// — even mid-frame — returns [`FleetError::Deadline`]; the stream must
/// then be condemned, never reused.
///
/// # Errors
///
/// [`FleetError::Deadline`] past the deadline, [`FleetError::Frame`]
/// for a torn, malformed or oversized frame, [`FleetError::Io`]
/// otherwise.
pub fn recv_frame(
    conn: &mut Conn,
    deadline: Option<Duration>,
    rpc: &'static str,
) -> FleetResult<Vec<u8>> {
    conn.set_read_timeout(deadline)?;
    let after_ms = deadline.map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let classify = move |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            FleetError::Deadline { rpc, after_ms }
        }
        std::io::ErrorKind::UnexpectedEof => FleetError::Frame {
            reason: format!("stream closed mid-frame during {rpc}"),
        },
        _ => FleetError::io("receiving frame", e),
    };
    let mut prefix = [0u8; 8];
    conn.stream.read_exact(&mut prefix).map_err(classify)?;
    let len = std::str::from_utf8(&prefix)
        .ok()
        .filter(|text| text.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|text| usize::from_str_radix(text, 16).ok())
        .ok_or_else(|| FleetError::Frame {
            reason: format!("length prefix {prefix:02x?} is not 8 hex digits"),
        })?;
    if len > FRAME_LIMIT {
        return Err(FleetError::Frame {
            reason: format!("declared payload of {len} bytes exceeds the frame limit"),
        });
    }
    let mut payload = vec![0u8; len];
    conn.stream.read_exact(&mut payload).map_err(classify)?;
    conn.traffic.frames += 1;
    conn.traffic.bytes_in += (len + 8) as u64;
    Ok(payload)
}

/// Starts a payload: `{"t":"<tag>"`, ready for [`field`]s.
fn head(tag: &str) -> String {
    format!("{{\"t\":\"{tag}\"")
}

/// Appends `,"<key>":<value>` to a head under construction.
fn field(head: &mut String, key: &str, value: &impl Serialize) {
    head.push_str(",\"");
    head.push_str(key);
    head.push_str("\":");
    value.serialize_json(head);
}

/// Closes the head line; the sections follow it.
fn seal(mut head: String) -> Vec<u8> {
    head.push_str("}\n");
    head.into_bytes()
}

fn push_u32(out: &mut Vec<u8>, value: usize) {
    // A plane has to fit one frame, so a real index always fits; one
    // that does not is sent as `u32::MAX`, which every receiver's range
    // check refuses.
    out.extend_from_slice(&u32::try_from(value).unwrap_or(u32::MAX).to_le_bytes());
}

/// Appends an update list as its two columns: sites, then labels.
fn push_updates(out: &mut Vec<u8>, updates: &[(usize, u8)]) {
    out.reserve(updates.len() * 5);
    for &(site, _) in updates {
        push_u32(out, site);
    }
    out.extend(updates.iter().map(|&(_, label)| label));
}

/// Serializes a coordinator → worker message into a frame payload.
#[must_use]
pub fn encode_to_worker(msg: &ToWorker) -> Vec<u8> {
    match msg {
        ToWorker::Assign {
            digest,
            cells,
            plane,
            resume_sweep,
            replay,
        } => {
            let mut h = head("assign");
            field(&mut h, "digest", &format!("{digest:016x}"));
            field(&mut h, "resume_sweep", resume_sweep);
            field(&mut h, "cells", &cells.len());
            field(&mut h, "plane", &plane.as_ref().map(Vec::len));
            let counts: Vec<usize> = replay.iter().map(Vec::len).collect();
            field(&mut h, "replay", &counts);
            let mut out = seal(h);
            out.reserve(
                cells.len() * 8
                    + plane.as_ref().map_or(0, Vec::len)
                    + counts.iter().sum::<usize>() * 5,
            );
            for &(group, chunk) in cells {
                push_u32(&mut out, group);
                push_u32(&mut out, chunk);
            }
            out.extend_from_slice(plane.as_deref().unwrap_or(&[]));
            for updates in replay {
                push_updates(&mut out, updates);
            }
            out
        }
        ToWorker::Phase { sweep, group } => {
            let mut h = head("phase");
            field(&mut h, "sweep", sweep);
            field(&mut h, "group", group);
            seal(h)
        }
        ToWorker::Halo { updates } => {
            let mut h = head("halo");
            field(&mut h, "updates", &updates.len());
            let mut out = seal(h);
            push_updates(&mut out, updates);
            out
        }
        ToWorker::Finish => seal(head("finish")),
    }
}

/// Serializes a worker → coordinator message into a frame payload.
#[must_use]
pub fn encode_to_coordinator(msg: &ToCoordinator) -> Vec<u8> {
    match msg {
        ToCoordinator::AssignOk { owned } => {
            let mut h = head("assign_ok");
            field(&mut h, "owned", owned);
            seal(h)
        }
        ToCoordinator::PhaseDone {
            sweep,
            group,
            updates,
        } => {
            let mut h = head("phase_done");
            field(&mut h, "sweep", sweep);
            field(&mut h, "group", group);
            field(&mut h, "updates", &updates.len());
            let mut out = seal(h);
            push_updates(&mut out, updates);
            out
        }
        ToCoordinator::Fault { reason } => {
            let mut h = head("fault");
            field(&mut h, "reason", &reason.len());
            let mut out = seal(h);
            out.extend_from_slice(reason.as_bytes());
            out
        }
        ToCoordinator::Bye => seal(head("bye")),
    }
}

/// Every field any head carries; each message takes the ones it needs.
#[derive(Default)]
struct Head {
    tag: Option<String>,
    sweep: Option<usize>,
    group: Option<usize>,
    updates: Option<usize>,
    owned: Option<usize>,
    reason: Option<usize>,
    digest: Option<u64>,
    resume_sweep: Option<usize>,
    cells: Option<usize>,
    plane: Option<Option<usize>>,
    replay: Option<Vec<usize>>,
}

fn need<T>(value: Option<T>, what: &str) -> FleetResult<T> {
    value.ok_or_else(|| FleetError::Protocol {
        reason: format!("message is missing '{what}'"),
    })
}

/// Takes an update list — `count` `u32` sites, then `count` labels —
/// off the front of the sections.
fn updates(sections: &mut Sections<'_>, count: usize) -> FleetResult<Vec<(usize, u8)>> {
    let sites = sections.take(count, 4)?;
    let labels = sections.take(count, 1)?;
    Ok(sites
        .as_chunks::<4>()
        .0
        .iter()
        .zip(labels)
        .map(|(site, &label)| (u32::from_le_bytes(*site) as usize, label))
        .collect())
}

/// Splits a payload into its parsed head and its raw sections.
fn open_payload(payload: &[u8]) -> FleetResult<(Head, Sections<'_>)> {
    if payload.len() > FRAME_LIMIT {
        return Err(FleetError::Frame {
            reason: format!("payload of {} bytes exceeds the frame limit", payload.len()),
        });
    }
    let (text, sections) = split_head(payload, HEAD_LIMIT)?;
    let mut parser = Parser::new(text);
    let mut head = Head::default();
    parse_object(&mut parser, |key, parser| {
        match key {
            "t" => head.tag = Some(parser.parse_string()?),
            "sweep" => head.sweep = Some(usize::deserialize_json(parser)?),
            "group" => head.group = Some(usize::deserialize_json(parser)?),
            "updates" => head.updates = Some(usize::deserialize_json(parser)?),
            "owned" => head.owned = Some(usize::deserialize_json(parser)?),
            "reason" => head.reason = Some(usize::deserialize_json(parser)?),
            "digest" => head.digest = Some(parse_hex_u64(parser)?),
            "resume_sweep" => head.resume_sweep = Some(usize::deserialize_json(parser)?),
            "cells" => head.cells = Some(usize::deserialize_json(parser)?),
            "plane" => head.plane = Some(Option::deserialize_json(parser)?),
            "replay" => head.replay = Some(Vec::deserialize_json(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .and_then(|()| parser.expect_end())
    .map_err(protocol)?;
    Ok((head, sections))
}

/// Parses a coordinator → worker frame payload.
///
/// # Errors
///
/// [`FleetError::Protocol`] on malformed or unknown messages and on
/// section counts that disagree with the bytes present;
/// [`FleetError::Frame`] on a payload beyond [`FRAME_LIMIT`].
pub fn parse_to_worker(payload: &[u8]) -> FleetResult<ToWorker> {
    let (head, mut sections) = open_payload(payload)?;
    let msg = match need(head.tag, "t")?.as_str() {
        "assign" => {
            let cells = sections
                .take(need(head.cells, "cells")?, 8)?
                .as_chunks::<4>()
                .0
                .chunks_exact(2)
                .map(|pair| {
                    let [group, chunk] = [pair[0], pair[1]].map(u32::from_le_bytes);
                    (group as usize, chunk as usize)
                })
                .collect();
            let plane = match need(head.plane, "plane")? {
                Some(sites) => Some(sections.take(sites, 1)?.to_vec()),
                None => None,
            };
            let replay = need(head.replay, "replay")?
                .into_iter()
                .map(|count| updates(&mut sections, count))
                .collect::<FleetResult<_>>()?;
            ToWorker::Assign {
                digest: need(head.digest, "digest")?,
                cells,
                plane,
                resume_sweep: need(head.resume_sweep, "resume_sweep")?,
                replay,
            }
        }
        "phase" => ToWorker::Phase {
            sweep: need(head.sweep, "sweep")?,
            group: need(head.group, "group")?,
        },
        "halo" => ToWorker::Halo {
            updates: updates(&mut sections, need(head.updates, "updates")?)?,
        },
        "finish" => ToWorker::Finish,
        other => {
            return Err(FleetError::Protocol {
                reason: format!("unknown coordinator message {other:?}"),
            })
        }
    };
    sections.finish()?;
    Ok(msg)
}

/// Parses a worker → coordinator frame payload.
///
/// # Errors
///
/// As [`parse_to_worker`].
pub fn parse_to_coordinator(payload: &[u8]) -> FleetResult<ToCoordinator> {
    let (head, mut sections) = open_payload(payload)?;
    let msg = match need(head.tag, "t")?.as_str() {
        "assign_ok" => ToCoordinator::AssignOk {
            owned: need(head.owned, "owned")?,
        },
        "phase_done" => ToCoordinator::PhaseDone {
            sweep: need(head.sweep, "sweep")?,
            group: need(head.group, "group")?,
            updates: updates(&mut sections, need(head.updates, "updates")?)?,
        },
        "fault" => {
            let text = sections.take(need(head.reason, "reason")?, 1)?;
            ToCoordinator::Fault {
                reason: String::from_utf8_lossy(text).into_owned(),
            }
        }
        "bye" => ToCoordinator::Bye,
        other => {
            return Err(FleetError::Protocol {
                reason: format!("unknown worker message {other:?}"),
            })
        }
    };
    sections.finish()?;
    Ok(msg)
}

/// Sends a coordinator → worker message.
///
/// # Errors
///
/// See [`send_frame`].
pub fn send_to_worker(conn: &mut Conn, msg: &ToWorker) -> FleetResult<()> {
    send_frame(conn, &encode_to_worker(msg))
}

/// Receives a coordinator → worker message.
///
/// # Errors
///
/// See [`recv_frame`] and [`parse_to_worker`].
pub fn recv_to_worker(conn: &mut Conn, deadline: Option<Duration>) -> FleetResult<ToWorker> {
    parse_to_worker(&recv_frame(conn, deadline, "worker-recv")?)
}

/// Sends a worker → coordinator message.
///
/// # Errors
///
/// See [`send_frame`].
pub fn send_to_coordinator(conn: &mut Conn, msg: &ToCoordinator) -> FleetResult<()> {
    send_frame(conn, &encode_to_coordinator(msg))
}

/// Receives a worker → coordinator message.
///
/// # Errors
///
/// See [`recv_frame`] and [`parse_to_coordinator`].
pub fn recv_to_coordinator(
    conn: &mut Conn,
    deadline: Option<Duration>,
    rpc: &'static str,
) -> FleetResult<ToCoordinator> {
    parse_to_coordinator(&recv_frame(conn, deadline, rpc)?)
}
