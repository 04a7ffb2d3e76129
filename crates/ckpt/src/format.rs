//! The on-disk checkpoint format (v4): header line, checksum, a JSON
//! head of scalars, raw sections.
//!
//! A checkpoint file is a one-line canonical *header* followed by exactly
//! `length` payload bytes:
//!
//! ```text
//! {"version":4,"length":<decimal>,"checksum":"<16 hex digits>"}\n
//! <head JSON>\n<labels><energy trace><histograms><meta>
//! <sink words><sink samples><sink counts>
//! ```
//!
//! The checksum is [`checksum`] over the payload bytes as they sit in
//! the file — nothing is escaped, so sealing and opening are one hash
//! pass each. The payload is the workspace's one envelope (see
//! [`crate::envelope`]): a small one-line JSON *head* of scalars
//! ([`StateBinding`], sweep cursor, kernel faults, fault-runtime record,
//! and the element count of every section), then the bulk state as raw
//! little-endian sections in fixed order: the label plane at one byte
//! per site, the energy trace as 8-byte IEEE-754 bit patterns, the mode
//! histograms as 4-byte counts, the caller's meta as UTF-8 bytes, and
//! the diagnostics sink's [`SinkState`] as its `u64` words, its `f64`
//! samples as bit patterns and its `u32` counts. The head's `sections`
//! object declares the first three, as in v3, so those bytes are v3's;
//! its `meta` and `sink_state` keys declare the rest. Encoding writes
//! the header, head and sections into one buffer and patches the
//! checksum into the header's fixed-width field; decoding is
//! [`Sections::take`](crate::Sections::take) front to back.
//!
//! Reads verify in trust order. The version comes first (any other
//! format — including the retired v1 envelope, which also opens with
//! `{"version":`, the v2 file, whose checksum was byte-serial FNV-1a,
//! and the v3 file, whose head carried meta and sink state as JSON
//! strings — is [`CkptError::VersionMismatch`], never misparsed), then
//! the declared length against the bytes present (a short file is
//! [`CkptError::Truncated`]), then the checksum (bit rot is
//! [`CkptError::ChecksumMismatch`], never a confusing shape error), then
//! the head's length against [`HEAD_LIMIT`], and only then the state.
//! Section counts are checked against the binding (`sites` labels,
//! `sites × labels` counts) and against the bytes actually present
//! *before* anything is allocated, so no declared length can size an
//! allocation beyond the file itself; a disagreement, like a meta
//! section that is not UTF-8, is [`CkptError::State`]. Any other
//! deviation from the canonical header is [`CkptError::Malformed`] with
//! the byte offset.
//!
//! Every state is whole-plane. A shard-granular fleet state left by an
//! earlier build (a `shard` object in its binding, only the shard's
//! owned sites in its label section) has its unknown key skipped and,
//! unless that shard owned every site, fails the `sites` count as
//! [`CkptError::State`].
//!
//! There is one format and one reader: a v1, v2 or v3 file is refused
//! rather than dual-read, because a checkpoint only ever serves the
//! restart of the build that wrote it, and a second decoder would be a
//! second trust boundary to fuzz for a file nobody can still need.
//!
//! Inside the head, `u64` seeds and fingerprints (and the one `f64`
//! fault rate) travel as 16-digit hex strings: the vendored serde routes
//! every JSON number through `f64` (see `third_party/serde/src/lib.rs`),
//! which corrupts integers above 2⁵³. Energies and sink samples never
//! touch JSON at all — their raw bit patterns round-trip negative zero,
//! infinities, and NaN payloads exactly, which bit-identical resume
//! requires.

use mogs_engine::{FaultState, JobState, SinkState, StateBinding, MAX_REPLICAS};
use mogs_gibbs::kernel::UnitFault;
use mogs_mrf::Label;
use serde::de::{self, Parser};
use serde::{Deserialize, Serialize};

use crate::envelope::{parse_hex_u64, parse_object, split_head};
use crate::error::CkptError;

/// The one format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 4;

/// The FNV-1a-64 offset basis every checksum lane starts from.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Bytes after the checksum's 16 hex digits: `"}` and the newline.
const HEADER_TAIL: usize = 3;

/// Upper bound on a payload's head line, its newline included; a head
/// that runs past it is [`CkptError::State`] before it is UTF-8-checked
/// or parsed. A v4 head carries scalars only, and what grows is the
/// fault record: per RSU unit, at most [`MAX_REPLICAS`] (1,024) of them,
/// a kernel-fault entry — at its widest a dark-count fault,
/// `{"kind":"dark","rate":"<16 hex>"},`, 42 bytes — and a quarantine
/// flag, `false,`, 6 bytes. The binding, cursor, degraded record and
/// section counts take under 1 KiB with every number at 20 digits, and
/// get 4 KiB: 1,024 × 48 + 4,096 = 53,248 bytes.
pub const HEAD_LIMIT: usize = MAX_REPLICAS * 48 + (4 << 10);

/// The payload checksum (unchanged since v3): FNV-1a-style steps over
/// little-endian `u64` words in four interleaved lanes (word `i` of
/// every 32-byte chunk feeds lane `i`), each step
/// `lane = rotl((lane ^ word) * prime, 29)`,
/// the lanes folded as `hash = rotl(hash, 17) ^ lane`, then the tail
/// bytes folded in one FNV-1a step each. Every step and fold is a
/// bijection, so inputs of one length that differ in one flipped bit
/// always hash apart (DESIGN §15); the four independent multiply chains
/// make it ~24× faster than the byte-serial `fnv1a` on 100 KB.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let (chunks, tail) = bytes.as_chunks::<32>();
    let mut lanes = [FNV_OFFSET; 4];
    for chunk in chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.as_chunks::<8>().0) {
            *lane = (*lane ^ u64::from_le_bytes(*word))
                .wrapping_mul(FNV_PRIME)
                .rotate_left(29);
        }
    }
    let folded = lanes
        .iter()
        .fold(0, |hash: u64, lane| hash.rotate_left(17) ^ lane);
    tail.iter().fold(folded, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// One durable checkpoint: the engine's captured [`JobState`] plus an
/// opaque caller blob (`mogs-serve` stores the original request JSON so
/// a recovery scan can rebuild the spec without a database).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Caller-owned context, stored and returned verbatim.
    pub meta: String,
    /// The engine's resumable state.
    pub state: JobState,
}

/// Encodes a checkpoint into its complete file bytes.
#[must_use]
pub fn encode(checkpoint: &Checkpoint) -> Vec<u8> {
    encode_parts(&checkpoint.meta, &checkpoint.state)
}

/// [`encode`] over borrowed parts, so the store's engine-facing writer
/// never clones a [`JobState`] just to frame it. The header, head and
/// sections go into one buffer, and the checksum is patched into the
/// header last.
pub(crate) fn encode_parts(meta: &str, state: &JobState) -> Vec<u8> {
    let histograms = state.histograms.as_deref().unwrap_or(&[]);
    let no_sink = SinkState::default();
    let sink = state.sink_state.as_ref().unwrap_or(&no_sink);
    let mut head = String::with_capacity(512);
    write_head(meta.len(), state, &mut head);
    let length = head.len()
        + 1
        + state.labels.len()
        + meta.len()
        + 8 * (state.energy_trace.len() + sink.words.len() + sink.samples.len())
        + 4 * (histograms.len() + sink.counts.len());
    let mut out = header(length);
    let payload_start = out.len();
    out.reserve_exact(length);
    out.extend_from_slice(head.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(&state.labels);
    push_le(&mut out, &state.energy_trace, |e| e.to_bits().to_le_bytes());
    push_le(&mut out, histograms, u32::to_le_bytes);
    out.extend_from_slice(meta.as_bytes());
    push_le(&mut out, &sink.words, u64::to_le_bytes);
    push_le(&mut out, &sink.samples, |s| s.to_bits().to_le_bytes());
    push_le(&mut out, &sink.counts, u32::to_le_bytes);
    patch_checksum(&mut out, payload_start);
    out
}

/// Appends each value as its `N` little-endian bytes.
fn push_le<T: Copy, const N: usize>(out: &mut Vec<u8>, values: &[T], bytes: impl Fn(T) -> [u8; N]) {
    for &value in values {
        out.extend_from_slice(&bytes(value));
    }
}

/// Reads a section back into values of `N` little-endian bytes each.
fn read_le<T, const N: usize>(section: &[u8], value: impl Fn([u8; N]) -> T) -> Vec<T> {
    let words = section.as_chunks::<N>().0;
    words.iter().map(|&bytes| value(bytes)).collect()
}

/// Prefixes arbitrary payload bytes with the versioned, checksummed
/// header.
///
/// This is the header half of [`encode`], exposed so tests (and tools)
/// can seal payloads that are *not* valid checkpoints and prove the
/// decoder rejects them as [`CkptError::State`] rather than blaming the
/// header.
#[must_use]
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = header(payload.len());
    let payload_start = out.len();
    out.extend_from_slice(payload);
    patch_checksum(&mut out, payload_start);
    out
}

/// The header line for a `length`-byte payload, its checksum field
/// still zero.
fn header(length: usize) -> Vec<u8> {
    format!(
        "{{\"version\":{FORMAT_VERSION},\"length\":{length},\"checksum\":\"0000000000000000\"}}\n"
    )
    .into_bytes()
}

/// Writes the checksum of `file[payload_start..]` into the 16 hex
/// digits that end the header line.
fn patch_checksum(file: &mut [u8], payload_start: usize) {
    let digits = format!("{:016x}", checksum(&file[payload_start..]));
    let field = payload_start - HEADER_TAIL - digits.len();
    file[field..field + digits.len()].copy_from_slice(digits.as_bytes());
}

/// Decodes complete file bytes back into a checkpoint.
///
/// # Errors
///
/// [`CkptError::Truncated`], [`CkptError::Malformed`],
/// [`CkptError::VersionMismatch`], [`CkptError::ChecksumMismatch`], or
/// [`CkptError::State`] — see the module docs for the verification
/// order.
pub fn decode(input: &[u8]) -> Result<Checkpoint, CkptError> {
    parse_payload(open_envelope(input)?)
}

/// Verifies the header (version, length, checksum) and returns the
/// payload bytes, borrowed from `input`, without decoding them.
///
/// # Errors
///
/// [`CkptError::Truncated`], [`CkptError::Malformed`],
/// [`CkptError::VersionMismatch`], or [`CkptError::ChecksumMismatch`].
pub fn open_envelope(input: &[u8]) -> Result<&[u8], CkptError> {
    let mut scan = Scan {
        bytes: input,
        pos: 0,
    };
    scan.lit(b"{\"version\":")?;
    let found = scan.digits()?;
    if found != u64::from(FORMAT_VERSION) {
        return Err(CkptError::VersionMismatch {
            found: u32::try_from(found).unwrap_or(u32::MAX),
            supported: FORMAT_VERSION,
        });
    }
    scan.lit(b",\"length\":")?;
    let length = scan.digits()?;
    scan.lit(b",\"checksum\":\"")?;
    let stored = scan.hex16()?;
    scan.lit(b"\"}\n")?;
    let payload = &input[scan.pos..];
    // The declared length is only ever compared, never allocated.
    let Some(extra) = usize::try_from(length)
        .ok()
        .and_then(|length| payload.len().checked_sub(length))
    else {
        return Err(CkptError::Truncated);
    };
    if extra > 0 {
        let offset = input.len() - extra;
        return Err(CkptError::Malformed { offset });
    }
    let computed = checksum(payload);
    if computed != stored {
        return Err(CkptError::ChecksumMismatch {
            stored: format!("{stored:016x}"),
            computed: format!("{computed:016x}"),
        });
    }
    Ok(payload)
}

/// Checks that a decoded state belongs under `expected`'s spec facts.
///
/// The engine re-validates at [`Engine::resume`](mogs_engine::Engine),
/// but callers that want to *select* among checkpoints (the serve
/// recovery scan) use this to get the typed
/// [`CkptError::BindingMismatch`] without constructing a job.
///
/// # Errors
///
/// [`CkptError::BindingMismatch`] naming the first differing field.
pub fn verify_binding(state: &JobState, expected: &StateBinding) -> Result<(), CkptError> {
    state
        .binding
        .matches(expected)
        .map_err(|reason| CkptError::BindingMismatch { reason })
}

// ---------------------------------------------------------------------
// Header scanner: strict canonical layout, byte-accurate errors.
// ---------------------------------------------------------------------

struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    /// `Truncated` at end of input, `Malformed` at the current byte.
    fn unexpected(&self) -> CkptError {
        if self.pos >= self.bytes.len() {
            CkptError::Truncated
        } else {
            CkptError::Malformed { offset: self.pos }
        }
    }

    /// Consumes `lit` exactly. A proper prefix at end-of-input is
    /// `Truncated`; any diverging byte is `Malformed` at its offset.
    fn lit(&mut self, lit: &[u8]) -> Result<(), CkptError> {
        for &want in lit {
            if self.bytes.get(self.pos) != Some(&want) {
                return Err(self.unexpected());
            }
            self.pos += 1;
        }
        Ok(())
    }

    /// A non-empty run of ASCII digits that fits a `u64`.
    fn digits(&mut self) -> Result<u64, CkptError> {
        let start = self.pos;
        let mut value = 0u64;
        while let Some(digit) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit - b'0')))
                .ok_or(CkptError::Malformed { offset: start })?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.unexpected());
        }
        Ok(value)
    }

    /// Exactly 16 lowercase hex digits, as [`seal`] writes them: with
    /// no second spelling of a value, no flipped header bit can leave
    /// the file decoding.
    fn hex16(&mut self) -> Result<u64, CkptError> {
        let mut value = 0u64;
        for _ in 0..16 {
            let digit = self
                .bytes
                .get(self.pos)
                .filter(|b| !b.is_ascii_uppercase())
                .and_then(|&b| char::from(b).to_digit(16))
                .ok_or_else(|| self.unexpected())?;
            value = (value << 4) | u64::from(digit);
            self.pos += 1;
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------
// Payload codec: JSON head (vendored-serde Parser) + raw sections.
// ---------------------------------------------------------------------

fn state_error(reason: impl ToString) -> CkptError {
    CkptError::State {
        reason: reason.to_string(),
    }
}

fn parse_payload(payload: &[u8]) -> Result<Checkpoint, CkptError> {
    let (text, mut sections) = split_head(payload, HEAD_LIMIT)?;
    let mut parser = Parser::new(text);
    let head = parse_head(&mut parser).map_err(state_error)?;
    parser.expect_end().map_err(state_error)?;
    let binding = &head.binding;
    // The plane-shaped counts answer to the binding before any section
    // is taken.
    if head.labels != binding.sites {
        return Err(state_error(format!(
            "label section holds {} sites, the binding covers {}",
            head.labels, binding.sites
        )));
    }
    if let Some(histograms) = head.histograms {
        if Some(histograms) != binding.sites.checked_mul(binding.labels) {
            return Err(state_error(format!(
                "histogram section holds {histograms} counts, the binding has {} sites x {} labels",
                binding.sites, binding.labels
            )));
        }
    }
    let labels = sections.take(head.labels, 1)?;
    let energies = sections.take(head.energy_trace, 8)?;
    let histograms = head.histograms.map(|n| sections.take(n, 4)).transpose()?;
    let meta = sections.take(head.meta, 1)?;
    let sink = match head.sink_state {
        Some([words, samples, counts]) => Some([
            sections.take(words, 8)?,
            sections.take(samples, 8)?,
            sections.take(counts, 4)?,
        ]),
        None => None,
    };
    sections.finish()?;
    let meta =
        std::str::from_utf8(meta).map_err(|_| state_error("the meta section is not UTF-8"))?;
    let f64_bits = |bytes: [u8; 8]| f64::from_bits(u64::from_le_bytes(bytes));
    Ok(Checkpoint {
        meta: meta.to_string(),
        state: JobState {
            binding: head.binding,
            next_sweep: head.next_sweep,
            labels: labels.to_vec(),
            energy_trace: read_le(energies, f64_bits),
            histograms: histograms.map(|section| read_le(section, u32::from_le_bytes)),
            kernel_faults: head.kernel_faults,
            fault: head.fault,
            sink_state: sink.map(|[words, samples, counts]| SinkState {
                words: read_le(words, u64::from_le_bytes),
                samples: read_le(samples, f64_bits),
                counts: read_le(counts, u32::from_le_bytes),
            }),
        },
    })
}

/// Everything a head declares: the state's scalar fields and the
/// element count of every section.
struct Head {
    binding: StateBinding,
    next_sweep: usize,
    kernel_faults: Vec<Option<UnitFault>>,
    fault: Option<FaultState>,
    labels: usize,
    energy_trace: usize,
    histograms: Option<usize>,
    meta: usize,
    /// `[words, samples, counts]` of the sink state, when there is one.
    sink_state: Option<[usize; 3]>,
}

fn push_hex_u64(out: &mut String, value: u64) {
    out.push('"');
    out.push_str(&format!("{value:016x}"));
    out.push('"');
}

fn parse_array<T>(
    parser: &mut Parser<'_>,
    mut parse: impl FnMut(&mut Parser<'_>) -> Result<T, de::Error>,
) -> Result<Vec<T>, de::Error> {
    parser.expect_char('[')?;
    let mut out = Vec::new();
    if parser.consume_char(']') {
        return Ok(out);
    }
    loop {
        out.push(parse(parser)?);
        if !parser.consume_char(',') {
            parser.expect_char(']')?;
            return Ok(out);
        }
    }
}

fn write_head(meta_bytes: usize, state: &JobState, out: &mut String) {
    out.push_str("{\"binding\":");
    write_binding(&state.binding, out);
    out.push_str(",\"next_sweep\":");
    state.next_sweep.serialize_json(out);
    out.push_str(",\"kernel_faults\":[");
    for (i, fault) in state.kernel_faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_fault(out, fault.as_ref());
    }
    out.push_str("],\"fault\":");
    state.fault.serialize_json(out);
    out.push_str(",\"sections\":{\"labels\":");
    state.labels.len().serialize_json(out);
    out.push_str(",\"energy_trace\":");
    state.energy_trace.len().serialize_json(out);
    out.push_str(",\"histograms\":");
    state.histograms.as_ref().map(Vec::len).serialize_json(out);
    out.push_str("},\"meta\":");
    meta_bytes.serialize_json(out);
    out.push_str(",\"sink_state\":");
    let sink = state.sink_state.as_ref();
    sink.map(|s| vec![s.words.len(), s.samples.len(), s.counts.len()])
        .serialize_json(out);
    out.push('}');
}

/// Parses the head: the state's scalar fields and every section count.
fn parse_head(parser: &mut Parser<'_>) -> Result<Head, de::Error> {
    let mut binding: Option<StateBinding> = None;
    let mut next_sweep: Option<usize> = None;
    let mut kernel_faults: Option<Vec<Option<UnitFault>>> = None;
    let mut fault: Option<Option<FaultState>> = None;
    let mut labels: Option<usize> = None;
    let mut energy_trace: Option<usize> = None;
    let mut histograms: Option<Option<usize>> = None;
    let mut meta: Option<usize> = None;
    let mut sink_state: Option<Option<Vec<usize>>> = None;
    parse_object(parser, |key, parser| {
        match key {
            "binding" => binding = Some(parse_binding(parser)?),
            "next_sweep" => next_sweep = Some(usize::deserialize_json(parser)?),
            "kernel_faults" => kernel_faults = Some(parse_array(parser, parse_fault)?),
            "fault" => fault = Some(Option::deserialize_json(parser)?),
            "sections" => parse_object(parser, |key, parser| {
                match key {
                    "labels" => labels = Some(usize::deserialize_json(parser)?),
                    "energy_trace" => energy_trace = Some(usize::deserialize_json(parser)?),
                    "histograms" => histograms = Some(Option::deserialize_json(parser)?),
                    _ => return Ok(false),
                }
                Ok(true)
            })?,
            "meta" => meta = Some(usize::deserialize_json(parser)?),
            "sink_state" => sink_state = Some(Option::deserialize_json(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let binding = binding.ok_or_else(|| parser.error("head: binding"))?;
    let sink_state = sink_state.ok_or_else(|| parser.error("head: sink_state"))?;
    Ok(Head {
        binding,
        next_sweep: next_sweep.ok_or_else(|| parser.error("head: next_sweep"))?,
        kernel_faults: kernel_faults.ok_or_else(|| parser.error("head: kernel_faults"))?,
        fault: fault.ok_or_else(|| parser.error("head: fault"))?,
        labels: labels.ok_or_else(|| parser.error("sections: labels"))?,
        energy_trace: energy_trace.ok_or_else(|| parser.error("sections: energy_trace"))?,
        histograms: histograms.ok_or_else(|| parser.error("sections: histograms"))?,
        meta: meta.ok_or_else(|| parser.error("head: meta"))?,
        sink_state: sink_state
            .map(<[usize; 3]>::try_from)
            .transpose()
            .map_err(|_| parser.error("sink_state: three section counts"))?,
    })
}

fn write_binding(binding: &StateBinding, out: &mut String) {
    out.push_str("{\"sites\":");
    binding.sites.serialize_json(out);
    out.push_str(",\"width\":");
    binding.width.serialize_json(out);
    out.push_str(",\"height\":");
    binding.height.serialize_json(out);
    out.push_str(",\"labels\":");
    binding.labels.serialize_json(out);
    out.push_str(",\"iterations\":");
    binding.iterations.serialize_json(out);
    out.push_str(",\"burn_in\":");
    binding.burn_in.serialize_json(out);
    out.push_str(",\"threads\":");
    binding.threads.serialize_json(out);
    out.push_str(",\"seed\":");
    push_hex_u64(out, binding.seed);
    out.push_str(",\"fingerprint\":");
    push_hex_u64(out, binding.fingerprint);
    out.push_str(",\"kernel\":");
    binding.kernel.serialize_json(out);
    out.push_str(",\"track_modes\":");
    binding.track_modes.serialize_json(out);
    out.push_str(",\"record_energy\":");
    binding.record_energy.serialize_json(out);
    out.push('}');
}

fn parse_binding(parser: &mut Parser<'_>) -> Result<StateBinding, de::Error> {
    let mut sites: Option<usize> = None;
    let mut width: Option<usize> = None;
    let mut height: Option<usize> = None;
    let mut labels: Option<usize> = None;
    let mut iterations: Option<usize> = None;
    let mut burn_in: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut fingerprint: Option<u64> = None;
    let mut kernel: Option<String> = None;
    let mut track_modes: Option<bool> = None;
    let mut record_energy: Option<bool> = None;
    parse_object(parser, |key, parser| {
        match key {
            "sites" => sites = Some(usize::deserialize_json(parser)?),
            "width" => width = Some(usize::deserialize_json(parser)?),
            "height" => height = Some(usize::deserialize_json(parser)?),
            "labels" => labels = Some(usize::deserialize_json(parser)?),
            "iterations" => iterations = Some(usize::deserialize_json(parser)?),
            "burn_in" => burn_in = Some(usize::deserialize_json(parser)?),
            "threads" => threads = Some(usize::deserialize_json(parser)?),
            "seed" => seed = Some(parse_hex_u64(parser)?),
            "fingerprint" => fingerprint = Some(parse_hex_u64(parser)?),
            "kernel" => kernel = Some(String::deserialize_json(parser)?),
            "track_modes" => track_modes = Some(bool::deserialize_json(parser)?),
            "record_energy" => record_energy = Some(bool::deserialize_json(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(StateBinding {
        sites: sites.ok_or_else(|| parser.error("binding: sites"))?,
        width: width.ok_or_else(|| parser.error("binding: width"))?,
        height: height.ok_or_else(|| parser.error("binding: height"))?,
        labels: labels.ok_or_else(|| parser.error("binding: labels"))?,
        iterations: iterations.ok_or_else(|| parser.error("binding: iterations"))?,
        burn_in: burn_in.ok_or_else(|| parser.error("binding: burn_in"))?,
        threads: threads.ok_or_else(|| parser.error("binding: threads"))?,
        seed: seed.ok_or_else(|| parser.error("binding: seed"))?,
        fingerprint: fingerprint.ok_or_else(|| parser.error("binding: fingerprint"))?,
        kernel: kernel.ok_or_else(|| parser.error("binding: kernel"))?,
        track_modes: track_modes.ok_or_else(|| parser.error("binding: track_modes"))?,
        record_energy: record_energy.ok_or_else(|| parser.error("binding: record_energy"))?,
    })
}

fn write_fault(out: &mut String, fault: Option<&UnitFault>) {
    match fault {
        None => out.push_str("null"),
        Some(UnitFault::Dead) => out.push_str("{\"kind\":\"dead\"}"),
        Some(UnitFault::Stuck(label)) => {
            out.push_str("{\"kind\":\"stuck\",\"label\":");
            label.value().serialize_json(out);
            out.push('}');
        }
        Some(UnitFault::DarkCount { rate_per_ns }) => {
            out.push_str("{\"kind\":\"dark\",\"rate\":");
            push_hex_u64(out, rate_per_ns.to_bits());
            out.push('}');
        }
    }
}

fn parse_fault(parser: &mut Parser<'_>) -> Result<Option<UnitFault>, de::Error> {
    if parser.consume_literal("null") {
        return Ok(None);
    }
    let mut kind: Option<String> = None;
    let mut label: Option<u8> = None;
    let mut rate: Option<f64> = None;
    parse_object(parser, |key, parser| {
        match key {
            "kind" => kind = Some(String::deserialize_json(parser)?),
            "label" => label = Some(u8::deserialize_json(parser)?),
            "rate" => rate = Some(f64::from_bits(parse_hex_u64(parser)?)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match kind.as_deref() {
        Some("dead") => Ok(Some(UnitFault::Dead)),
        Some("stuck") => {
            let value = label.ok_or_else(|| parser.error("stuck fault: label"))?;
            let label = Label::try_new(value)
                .map_err(|_| parser.error("stuck fault: label does not fit in 6 bits"))?;
            Ok(Some(UnitFault::Stuck(label)))
        }
        Some("dark") => {
            let rate_per_ns = rate.ok_or_else(|| parser.error("dark fault: rate"))?;
            Ok(Some(UnitFault::DarkCount { rate_per_ns }))
        }
        _ => Err(parser.error("fault kind must be 'dead', 'stuck', or 'dark'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A whole-plane state with every optional record present.
    fn demo_state() -> JobState {
        JobState {
            binding: StateBinding {
                sites: 12,
                width: 4,
                height: 3,
                labels: 3,
                iterations: 10,
                burn_in: 2,
                threads: 2,
                seed: 0xDEAD_BEEF_CAFE_F00D,
                fingerprint: u64::MAX - 5,
                kernel: "rsu-pool\"escaped\"".to_string(),
                track_modes: true,
                record_energy: true,
            },
            next_sweep: 4,
            labels: vec![0, 1, 2, 1, 0, 2, 2, 1, 0, 0, 1, 2],
            energy_trace: vec![-14.25, 3.5e-300, 0.0, 7.0],
            histograms: Some((0..36).map(|i| i * 0x0101_0101).collect()),
            kernel_faults: vec![
                None,
                Some(UnitFault::Dead),
                Some(UnitFault::Stuck(Label::new(2))),
                Some(UnitFault::DarkCount { rate_per_ns: 0.125 }),
            ],
            fault: Some(FaultState {
                cursor: 3,
                quarantined: vec![false, true, false, false],
                degraded: Some(mogs_engine::Degraded {
                    failed_over_at: 3,
                    units_lost: 2,
                }),
                poisoned: false,
            }),
            sink_state: Some(SinkState {
                words: vec![2, 0x0a0a_0a0a_0a0a_0a0a, u64::MAX],
                samples: vec![f64::MIN_POSITIVE, -1.5],
                counts: vec![0, 10, u32::MAX],
            }),
        }
    }

    fn demo_bytes() -> Vec<u8> {
        encode(&Checkpoint {
            meta: "m\n\"eta\"".to_string(),
            state: demo_state(),
        })
    }

    #[test]
    fn round_trips_a_fully_populated_checkpoint() {
        let original = Checkpoint {
            meta: "{\"tenant\":\"acme\"}".to_string(),
            state: demo_state(),
        };
        let encoded = encode(&original);
        let decoded = decode(&encoded).expect("canonical file decodes");
        assert_eq!(decoded, original);
        // Header line, head line, then exactly the raw sections.
        let payload = open_envelope(&encoded).expect("opens");
        let head_len = payload.iter().position(|&b| b == b'\n').expect("head") + 1;
        let meta = original.meta.len();
        assert_eq!(
            payload.len() - head_len,
            12 + 4 * 8 + 36 * 4 + meta + 3 * 8 + 2 * 8 + 3 * 4
        );
    }

    #[test]
    fn non_finite_energies_round_trip_bitwise() {
        let mut state = demo_state();
        state.energy_trace = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let encoded = encode(&Checkpoint {
            meta: String::new(),
            state,
        });
        let decoded = decode(&encoded).expect("decodes");
        let bits: Vec<u64> = decoded
            .state
            .energy_trace
            .iter()
            .map(|e| e.to_bits())
            .collect();
        assert_eq!(
            bits,
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0].map(f64::to_bits),
            "raw bit patterns preserve every f64 payload"
        );
        // NaN defeats `PartialEq`; byte-identical re-encoding does not.
        assert_eq!(encode(&decoded), encoded);
    }

    #[test]
    fn version_is_checked_before_anything_else() {
        // Bump the version digit and tear the payload; the length and
        // checksum are now both wrong, but the reader must report the
        // version, not either of them.
        let mut bumped = demo_bytes();
        assert_eq!(bumped[11], b'4');
        bumped[11] = b'5';
        bumped.truncate(bumped.len() / 2);
        assert_eq!(
            decode(&bumped).expect_err("future version is rejected"),
            CkptError::VersionMismatch {
                found: 5,
                supported: 4
            }
        );
    }

    #[test]
    fn every_proper_prefix_is_truncated() {
        let encoded = demo_bytes();
        for end in 0..encoded.len() {
            let err = decode(&encoded[..end]).expect_err("prefix cannot decode");
            assert_eq!(
                err,
                CkptError::Truncated,
                "prefix of {end} bytes misdiagnosed"
            );
        }
    }

    #[test]
    fn garbage_is_malformed_at_the_right_offset() {
        let err = decode(b"not a checkpoint").expect_err("garbage rejected");
        assert_eq!(err, CkptError::Malformed { offset: 0 });
        let err = decode(b"{\"version\":x}").expect_err("non-digit version");
        assert_eq!(err, CkptError::Malformed { offset: 11 });
        // Bytes past the declared length are not silently ignored.
        let mut trailing = demo_bytes();
        let end = trailing.len();
        trailing.push(b'\n');
        let err = decode(&trailing).expect_err("trailing byte rejected");
        assert_eq!(err, CkptError::Malformed { offset: end });
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let mut corrupted = demo_bytes();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x40;
        let err = decode(&corrupted).expect_err("corrupted payload rejected");
        assert_eq!(err.variant(), "checksum-mismatch");
    }

    #[test]
    fn sealed_garbage_payload_is_a_state_error() {
        // A valid header around a payload that is not a checkpoint: the
        // header layer must pass and the payload layer must name the
        // problem.
        let err = decode(&seal(b"{\"meta\":0}\n")).expect_err("incomplete head");
        let CkptError::State { reason } = err else {
            panic!("expected a state error, got {err}");
        };
        assert!(
            reason.contains("binding"),
            "reason names the field: {reason}"
        );
        for payload in [&b"no head line"[..], b"\xff\xfe\n", b"\n", b""] {
            assert_eq!(
                decode(&seal(payload)).expect_err("garbage").variant(),
                "state"
            );
        }
    }

    #[test]
    fn a_head_past_the_limit_is_refused_before_it_is_read() {
        let (head, mut sections) = split_head(b"{\"a\":1}\nrest", 8).expect("a 7-byte head fits");
        assert_eq!(head, "{\"a\":1}");
        assert_eq!(sections.take(4, 1), Ok(&b"rest"[..]));
        for payload in [
            &b"{\"ab\":1}\nrest"[..],
            b"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\n",
        ] {
            let err = CkptError::from(split_head(payload, 8).expect_err("an 8-byte head"));
            let CkptError::State { reason } = err else {
                panic!("expected a state error, got {err}");
            };
            assert!(reason.contains("runs past 8 bytes"), "{reason}");
        }
    }

    #[test]
    fn binding_verification_names_the_field() {
        let state = demo_state();
        let mut expected = state.binding.clone();
        expected.fingerprint ^= 1;
        let err = verify_binding(&state, &expected).expect_err("fingerprints differ");
        assert_eq!(err.variant(), "binding-mismatch");
        assert!(err.to_string().contains("fingerprint"), "err: {err}");
        assert!(verify_binding(&state, &state.binding).is_ok());
    }
}
