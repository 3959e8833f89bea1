//! Crash-consistent engine state: versioned, checksummed snapshots and a
//! WME write-ahead log with torn-tail detection.
//!
//! A SPAM/PSM task process owns a complete engine; when its worker thread
//! dies mid-scene, PR 1's supervision can only retry the task *from
//! scratch*, repeating every match cycle already paid for. This module is
//! the state-capture substrate that makes recovery cheaper than a rerun:
//!
//! * [`EngineImage`] — the full serialized engine state (working-memory
//!   slots with time tags, conflict-set entry keys, work counters, output,
//!   recency/gensym counters) in a versioned binary format with a trailing
//!   FNV-1a checksum. [`crate::Engine::snapshot`] produces the bytes;
//!   [`crate::Engine::restore`] rebuilds a live engine — its Rete
//!   memories re-derived from the restored WM — that is *byte-identical*
//!   under re-snapshot and continues exactly like the uninterrupted run.
//! * [`Wal`] — a write-ahead log of external WME deltas (assert / retract /
//!   modify records with cycle stamps). Each record is length-framed and
//!   individually checksummed, so a crash mid-write leaves a detectable
//!   torn tail: [`Wal::replay`] returns the valid prefix and reports the
//!   dropped bytes instead of failing the whole log.
//!
//! Symbols are interned per process, so every symbol crossing the
//! serialization boundary travels by *name* and is re-interned on decode —
//! snapshots are valid across processes, not just across restarts.
//!
//! The interpretation of a snapshot is only defined against the program it
//! was taken from; a program fingerprint (productions, classes, strategy)
//! is embedded and checked on restore.

use crate::conflict::Strategy;
use crate::engine::Engine;
use crate::instrument::WorkCounters;
use crate::program::Program;
use crate::symbol::{sym, Symbol};
use crate::value::Value;
use crate::wme::{TimeTag, Wme, WmeId};
use std::fmt;

/// Snapshot file magic: "O5SN".
pub const SNAPSHOT_MAGIC: u32 = 0x4F35_534E;
/// WAL file magic: "O5WL".
pub const WAL_MAGIC: u32 = 0x4F35_574C;
/// Current format version (snapshot and WAL evolve together).
/// v2 added the named external-counter section to the snapshot body.
pub const FORMAT_VERSION: u16 = 2;

/// Errors from decoding a snapshot or replaying a WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The leading magic bytes are not a snapshot / WAL header.
    BadMagic,
    /// A format version this build does not understand.
    BadVersion(u16),
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// The snapshot was taken from a different program.
    ProgramMismatch {
        /// Fingerprint of the program offered for restore.
        expected: u64,
        /// Fingerprint embedded in the snapshot.
        found: u64,
    },
    /// Structurally invalid content (bad tag byte, impossible count, ...).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::ProgramMismatch { expected, found } => write!(
                f,
                "snapshot is from a different program \
                 (fingerprint {found:#018x}, this program is {expected:#018x})"
            ),
            SnapshotError::Corrupt(m) => write!(f, "snapshot corrupt: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for crate::Error {
    fn from(e: SnapshotError) -> crate::Error {
        crate::Error::Runtime(e.to_string())
    }
}

/// FNV-1a 64-bit over `bytes` — the integrity check for snapshots and WAL
/// records. Not cryptographic; it detects torn writes and bit rot, which is
/// the failure model here.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------- codec --

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_sym(buf: &mut Vec<u8>, s: Symbol) {
    put_str(buf, &s.name());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Nil => buf.push(0),
        Value::Sym(s) => {
            buf.push(1);
            put_sym(buf, *s);
        }
        Value::Int(i) => {
            buf.push(2);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            buf.push(3);
            put_u64(buf, x.to_bits());
        }
    }
}

fn put_counters(buf: &mut Vec<u8>, w: &WorkCounters) {
    put_u64(buf, w.match_units);
    put_u64(buf, w.resolve_units);
    put_u64(buf, w.act_units);
    put_u64(buf, w.external_units);
    put_u64(buf, w.firings);
    put_u64(buf, w.rhs_actions);
    put_u64(buf, w.wme_adds);
    put_u64(buf, w.wme_removes);
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-utf8 string".into()))
    }

    fn sym(&mut self) -> Result<Symbol, SnapshotError> {
        Ok(sym(&self.str()?))
    }

    fn value(&mut self) -> Result<Value, SnapshotError> {
        match self.u8()? {
            0 => Ok(Value::Nil),
            1 => Ok(Value::Sym(self.sym()?)),
            2 => Ok(Value::Int(self.u64()? as i64)),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            t => Err(SnapshotError::Corrupt(format!("bad value tag {t}"))),
        }
    }

    fn counters(&mut self) -> Result<WorkCounters, SnapshotError> {
        Ok(WorkCounters {
            match_units: self.u64()?,
            resolve_units: self.u64()?,
            act_units: self.u64()?,
            external_units: self.u64()?,
            firings: self.u64()?,
            rhs_actions: self.u64()?,
            wme_adds: self.u64()?,
            wme_removes: self.u64()?,
        })
    }
}

// ---------------------------------------------------------- fingerprint --

/// Fingerprint of a program's observable shape: strategy, classes (names +
/// attribute lists), and productions (names, specificity, positive-CE and
/// action counts). A snapshot embeds this and [`crate::Engine::restore`]
/// refuses a mismatch — restoring WMEs and conflict keys into a different
/// rule set would silently compute garbage.
pub fn program_fingerprint(p: &Program) -> u64 {
    let mut buf = Vec::new();
    put_u8_strategy(&mut buf, p.strategy);
    // `classes()` iterates a HashMap; sort for a stable fingerprint.
    let mut classes: Vec<_> = p.classes().collect();
    classes.sort_by_key(|c| c.name.name());
    put_u32(&mut buf, classes.len() as u32);
    for c in classes {
        put_sym(&mut buf, c.name);
        put_u32(&mut buf, c.attrs.len() as u32);
        for &a in &c.attrs {
            put_sym(&mut buf, a);
        }
    }
    put_u32(&mut buf, p.productions.len() as u32);
    for prod in &p.productions {
        put_sym(&mut buf, prod.name);
        put_u32(&mut buf, prod.specificity);
        put_u32(&mut buf, prod.n_positive() as u32);
        put_u32(&mut buf, prod.actions.len() as u32);
    }
    fnv1a(&buf)
}

fn put_u8_strategy(buf: &mut Vec<u8>, s: Strategy) {
    buf.push(match s {
        Strategy::Lex => 0,
        Strategy::Mea => 1,
    });
}

fn get_strategy(d: &mut Dec<'_>) -> Result<Strategy, SnapshotError> {
    match d.u8()? {
        0 => Ok(Strategy::Lex),
        1 => Ok(Strategy::Mea),
        t => Err(SnapshotError::Corrupt(format!("bad strategy tag {t}"))),
    }
}

// ----------------------------------------------------------- EngineImage --

/// The decoded form of an engine snapshot: everything needed to rebuild a
/// byte-identical engine against the same compiled program.
///
/// Produced by [`EngineImage::decode`] / consumed by [`EngineImage::encode`];
/// [`crate::Engine::snapshot`] and [`crate::Engine::restore`] are the
/// engine-facing entry points.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineImage {
    /// [`program_fingerprint`] of the program the snapshot was taken from.
    pub fingerprint: u64,
    /// Conflict-resolution strategy in force.
    pub strategy: Strategy,
    /// Whether a `(halt)` had executed.
    pub halted: bool,
    /// The recency counter (next WME gets `time + 1`).
    pub time: TimeTag,
    /// The `genatom` counter.
    pub gensym: u64,
    /// Accumulated `write` output.
    pub output: String,
    /// Interpreter-side work counters.
    pub base_work: WorkCounters,
    /// Match-backend work counters.
    pub match_work: WorkCounters,
    /// The *exact* WM slot layout, dead slots included: `WmeId`s are slot
    /// indices and ids are never reused, so conflict keys and WAL retract
    /// records stay valid only if the layout survives verbatim.
    pub slots: Vec<Option<Wme>>,
    /// Conflict-set entry keys `(production, wmes)`. Tags and specificity
    /// regenerate from the restored WM; the *key set* is what refraction
    /// needs — a rebuilt entry absent from this set has already fired and
    /// must be pruned after the Rete rebuild.
    pub conflict: Vec<(u32, Box<[WmeId]>)>,
    /// Named external counters ([`crate::Engine::external_counter`]) at
    /// snapshot time. External functions that allocate ids from a shared
    /// counter are engine-adjacent state: without this section a restored
    /// run would re-allocate ids from the initial base and diverge from the
    /// never-crashed run in intermediate WM contents (and hence match work),
    /// even though final results converge.
    pub counters: Vec<(String, i64)>,
}

impl EngineImage {
    /// Serializes the image: versioned header, body, trailing FNV-1a
    /// checksum. Conflict keys are sorted first, so encoding is canonical —
    /// re-encoding a decoded image reproduces the bytes exactly.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        put_u32(&mut buf, SNAPSHOT_MAGIC);
        put_u16(&mut buf, FORMAT_VERSION);
        put_u8_strategy(&mut buf, self.strategy);
        buf.push(self.halted as u8);
        put_u64(&mut buf, self.fingerprint);
        put_u64(&mut buf, self.time);
        put_u64(&mut buf, self.gensym);
        put_str(&mut buf, &self.output);
        put_counters(&mut buf, &self.base_work);
        put_counters(&mut buf, &self.match_work);
        put_u32(&mut buf, self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                None => buf.push(0),
                Some(w) => {
                    buf.push(1);
                    put_sym(&mut buf, w.class);
                    put_u64(&mut buf, w.time_tag);
                    put_u16(&mut buf, w.fields.len() as u16);
                    for v in w.fields.iter() {
                        put_value(&mut buf, v);
                    }
                }
            }
        }
        let mut keys = self.conflict.clone();
        keys.sort();
        put_u32(&mut buf, keys.len() as u32);
        for (production, wmes) in &keys {
            put_u32(&mut buf, *production);
            put_u16(&mut buf, wmes.len() as u16);
            for w in wmes.iter() {
                put_u32(&mut buf, w.0);
            }
        }
        let mut counters = self.counters.clone();
        counters.sort();
        put_u32(&mut buf, counters.len() as u32);
        for (name, v) in &counters {
            put_str(&mut buf, name);
            put_u64(&mut buf, *v as u64);
        }
        let checksum = fnv1a(&buf);
        put_u64(&mut buf, checksum);
        buf
    }

    /// Decodes and verifies a snapshot (magic, version, checksum).
    pub fn decode(bytes: &[u8]) -> Result<EngineImage, SnapshotError> {
        if bytes.len() < 8 + 6 {
            return Err(SnapshotError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let mut d = Dec::new(body);
        if d.u32()? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u16()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        if fnv1a(body) != stored {
            return Err(SnapshotError::BadChecksum);
        }
        let strategy = get_strategy(&mut d)?;
        let halted = d.u8()? != 0;
        let fingerprint = d.u64()?;
        let time = d.u64()?;
        let gensym = d.u64()?;
        let output = d.str()?;
        let base_work = d.counters()?;
        let match_work = d.counters()?;
        let n_slots = d.u32()? as usize;
        let mut slots = Vec::with_capacity(n_slots.min(1 << 20));
        for _ in 0..n_slots {
            match d.u8()? {
                0 => slots.push(None),
                1 => {
                    let class = d.sym()?;
                    let time_tag = d.u64()?;
                    let n = d.u16()? as usize;
                    let mut fields = Vec::with_capacity(n);
                    for _ in 0..n {
                        fields.push(d.value()?);
                    }
                    slots.push(Some(Wme {
                        class,
                        fields: fields.into_boxed_slice(),
                        time_tag,
                    }));
                }
                t => return Err(SnapshotError::Corrupt(format!("bad slot tag {t}"))),
            }
        }
        let n_conflict = d.u32()? as usize;
        let mut conflict = Vec::with_capacity(n_conflict.min(1 << 20));
        for _ in 0..n_conflict {
            let production = d.u32()?;
            let n = d.u16()? as usize;
            let mut wmes = Vec::with_capacity(n);
            for _ in 0..n {
                wmes.push(WmeId(d.u32()?));
            }
            conflict.push((production, wmes.into_boxed_slice()));
        }
        let n_counters = d.u32()? as usize;
        let mut counters = Vec::with_capacity(n_counters.min(1 << 20));
        for _ in 0..n_counters {
            let name = d.str()?;
            let v = d.u64()? as i64;
            counters.push((name, v));
        }
        if d.pos != body.len() {
            return Err(SnapshotError::Corrupt("trailing bytes after image".into()));
        }
        Ok(EngineImage {
            fingerprint,
            strategy,
            halted,
            time,
            gensym,
            output,
            base_work,
            match_work,
            slots,
            conflict,
            counters,
        })
    }
}

// ------------------------------------------------------------------ WAL --

/// One logged working-memory delta.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// A WME assertion: class plus raw slot values. Replay via
    /// [`apply_record`] reproduces the id and time tag exactly, because
    /// both are allocated deterministically in insertion order.
    Assert {
        /// WME class.
        class: Symbol,
        /// Raw slot values in declaration order.
        fields: Vec<Value>,
    },
    /// A WME retraction by id.
    Retract(WmeId),
    /// An OPS5 `modify`: retract `id`, re-assert `class` with `fields`.
    Modify {
        /// The WME being modified (retracted).
        id: WmeId,
        /// WME class of the replacement.
        class: Symbol,
        /// Replacement slot values.
        fields: Vec<Value>,
    },
}

/// One WAL record: a delta stamped with the recognize–act cycle count at
/// which it was applied (0 for the initial working-memory load). Recovery
/// from a snapshot taken at cycle `c` replays only records with
/// `cycle > c` — everything earlier is subsumed by the snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Cycle stamp (firings completed when the delta was applied).
    pub cycle: u64,
    /// The delta.
    pub op: WalOp,
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        put_u64(&mut buf, self.cycle);
        match &self.op {
            WalOp::Assert { class, fields } => {
                buf.push(0);
                put_sym(&mut buf, *class);
                put_u16(&mut buf, fields.len() as u16);
                for v in fields {
                    put_value(&mut buf, v);
                }
            }
            WalOp::Retract(id) => {
                buf.push(1);
                put_u32(&mut buf, id.0);
            }
            WalOp::Modify { id, class, fields } => {
                buf.push(2);
                put_u32(&mut buf, id.0);
                put_sym(&mut buf, *class);
                put_u16(&mut buf, fields.len() as u16);
                for v in fields {
                    put_value(&mut buf, v);
                }
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> Result<WalRecord, SnapshotError> {
        let mut d = Dec::new(payload);
        let cycle = d.u64()?;
        let op = match d.u8()? {
            0 => {
                let class = d.sym()?;
                let n = d.u16()? as usize;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    fields.push(d.value()?);
                }
                WalOp::Assert { class, fields }
            }
            1 => WalOp::Retract(WmeId(d.u32()?)),
            2 => {
                let id = WmeId(d.u32()?);
                let class = d.sym()?;
                let n = d.u16()? as usize;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    fields.push(d.value()?);
                }
                WalOp::Modify { id, class, fields }
            }
            t => return Err(SnapshotError::Corrupt(format!("bad wal op tag {t}"))),
        };
        if d.pos != payload.len() {
            return Err(SnapshotError::Corrupt("trailing bytes in record".into()));
        }
        Ok(WalRecord { cycle, op })
    }
}

/// A write-ahead log of WME deltas.
///
/// Byte layout: a header (magic + version), then records, each framed as
/// `len:u32` + payload + `fnv1a(payload):u64`. The per-record frame is what
/// gives torn-tail *detection*: a crash mid-append leaves either a short
/// frame or a checksum mismatch, and [`Wal::replay`] stops there, returning
/// the intact prefix and the count of dropped bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Wal {
    buf: Vec<u8>,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// A fresh, empty log (header only).
    pub fn new() -> Wal {
        let mut buf = Vec::with_capacity(64);
        put_u32(&mut buf, WAL_MAGIC);
        put_u16(&mut buf, FORMAT_VERSION);
        Wal { buf }
    }

    /// Re-opens existing log bytes for appending. The bytes are not
    /// validated here; [`Wal::replay`] is the validating read path.
    pub fn from_bytes(buf: Vec<u8>) -> Wal {
        Wal { buf }
    }

    /// Appends one record (length frame + payload + checksum).
    pub fn append(&mut self, rec: &WalRecord) {
        let payload = rec.encode();
        put_u32(&mut self.buf, payload.len() as u32);
        self.buf.extend_from_slice(&payload);
        put_u64(&mut self.buf, fnv1a(&payload));
    }

    /// The log bytes (header + framed records).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the log, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Decodes a log, tolerating a torn tail. A bad *header* is a hard
    /// error; a short or checksum-failing record ends the read — everything
    /// from there on is reported as dropped, and `valid_len` is the byte
    /// length of the intact prefix (truncate the log to it before
    /// appending further records).
    pub fn replay(bytes: &[u8]) -> Result<WalReplay, SnapshotError> {
        let mut d = Dec::new(bytes);
        if d.u32().map_err(|_| SnapshotError::Truncated)? != WAL_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u16()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let mut records = Vec::new();
        let mut valid_len = d.pos;
        while d.pos < bytes.len() {
            let intact = (|d: &mut Dec<'_>| -> Result<WalRecord, SnapshotError> {
                let len = d.u32()? as usize;
                let payload = d.take(len)?;
                let stored = d.u64()?;
                if fnv1a(payload) != stored {
                    return Err(SnapshotError::BadChecksum);
                }
                WalRecord::decode(payload)
            })(&mut d);
            match intact {
                Ok(rec) => {
                    records.push(rec);
                    valid_len = d.pos;
                }
                // Torn tail: stop at the first bad frame. Nothing after it
                // can be trusted (framing is self-delimiting only forward).
                Err(_) => break,
            }
        }
        Ok(WalReplay {
            records,
            valid_len,
            dropped_bytes: bytes.len() - valid_len,
        })
    }
}

/// Result of [`Wal::replay`]: the intact record prefix plus torn-tail
/// accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct WalReplay {
    /// Records decoded from the intact prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the intact prefix (header + whole records).
    pub valid_len: usize,
    /// Bytes past the intact prefix (0 for a clean log).
    pub dropped_bytes: usize,
}

impl WalReplay {
    /// True when the log ended in a torn (partial or corrupt) record.
    pub fn torn(&self) -> bool {
        self.dropped_bytes > 0
    }
}

/// Applies one WAL record to an engine. Assert allocates the next id and
/// time tag — deterministic, so replaying a log into an engine in the state
/// it was captured from reproduces ids and tags exactly. Returns the id a
/// (re-)assertion produced.
pub fn apply_record(e: &mut Engine, rec: &WalRecord) -> Option<WmeId> {
    match &rec.op {
        WalOp::Assert { class, fields } => Some(e.insert_fields(*class, fields.clone())),
        WalOp::Retract(id) => {
            e.remove_wme_id(*id);
            None
        }
        WalOp::Modify { id, class, fields } => {
            e.remove_wme_id(*id);
            Some(e.insert_fields(*class, fields.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn image() -> EngineImage {
        EngineImage {
            fingerprint: 0xfeed_beef,
            strategy: Strategy::Mea,
            halted: false,
            time: 17,
            gensym: 3,
            output: "hello\n".into(),
            base_work: WorkCounters {
                match_units: 1,
                resolve_units: 2,
                act_units: 3,
                external_units: 4,
                firings: 5,
                rhs_actions: 6,
                wme_adds: 7,
                wme_removes: 8,
            },
            match_work: WorkCounters::default(),
            slots: vec![
                Some(Wme {
                    class: sym("region"),
                    fields: vec![Value::Int(-3), Value::Float(2.5), Value::Nil].into(),
                    time_tag: 4,
                }),
                None,
                Some(Wme {
                    class: sym("fragment"),
                    fields: vec![Value::symbol("runway")].into(),
                    time_tag: 9,
                }),
            ],
            conflict: vec![
                (2, vec![WmeId(0), WmeId(2)].into()),
                (0, vec![WmeId(2)].into()),
            ],
            counters: vec![("frag-id".into(), 42), ("check-id".into(), -7)],
        }
    }

    #[test]
    fn image_round_trips_and_is_canonical() {
        let img = image();
        let bytes = img.encode();
        let back = EngineImage::decode(&bytes).unwrap();
        // Decoded conflict keys and counters come back sorted; everything
        // else verbatim.
        let mut want = img.clone();
        want.conflict.sort();
        want.counters.sort();
        assert_eq!(back, want);
        // Canonical: re-encoding reproduces the bytes.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = image().encode();
        for pos in [6, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = EngineImage::decode(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::BadChecksum | SnapshotError::BadVersion(_)
                ),
                "flip at {pos}: {err:?}"
            );
        }
        assert_eq!(
            EngineImage::decode(&bytes[..10]).unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            EngineImage::decode(b"not a snapshot at all...").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn fingerprint_distinguishes_programs() {
        let a = Program::parse("(literalize a x)\n(p one (a ^x 1) --> (halt))").unwrap();
        let b = Program::parse("(literalize a x)\n(p one (a ^x 2) --> (halt))").unwrap();
        // Same shape (names, counts) fingerprints equal…
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        // …different structure does not.
        let c = Program::parse("(literalize a x y)\n(p one (a ^x 1) --> (halt))").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&c));
        let d = Program::parse("(literalize a x)\n(p two (a ^x 1) (a ^x 1) --> (halt))").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&d));
        // Stable across parses.
        let a2 = Program::parse("(literalize a x)\n(p one (a ^x 1) --> (halt))").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a2));
    }

    fn records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                cycle: 0,
                op: WalOp::Assert {
                    class: sym("region"),
                    fields: vec![Value::Int(1), Value::symbol("flat")],
                },
            },
            WalRecord {
                cycle: 3,
                op: WalOp::Retract(WmeId(0)),
            },
            WalRecord {
                cycle: 5,
                op: WalOp::Modify {
                    id: WmeId(1),
                    class: sym("region"),
                    fields: vec![Value::Float(0.5)],
                },
            },
        ]
    }

    #[test]
    fn wal_round_trips() {
        let mut wal = Wal::new();
        for r in records() {
            wal.append(&r);
        }
        let replay = Wal::replay(wal.as_bytes()).unwrap();
        assert_eq!(replay.records, records());
        assert!(!replay.torn());
        assert_eq!(replay.valid_len, wal.as_bytes().len());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut wal = Wal::new();
        for r in records() {
            wal.append(&r);
        }
        let full = wal.as_bytes().to_vec();
        // Chop mid-way through the last record: the first two survive.
        let torn = &full[..full.len() - 5];
        let replay = Wal::replay(torn).unwrap();
        assert_eq!(replay.records, records()[..2]);
        assert!(replay.torn());
        assert_eq!(replay.dropped_bytes, torn.len() - replay.valid_len);
        // Truncating to valid_len and appending again yields a clean log.
        let mut repaired = Wal::from_bytes(torn[..replay.valid_len].to_vec());
        repaired.append(&records()[2]);
        let replay2 = Wal::replay(repaired.as_bytes()).unwrap();
        assert_eq!(replay2.records, records());
        assert!(!replay2.torn());
    }

    #[test]
    fn corrupt_mid_record_drops_the_tail() {
        let mut wal = Wal::new();
        for r in records() {
            wal.append(&r);
        }
        let mut bytes = wal.as_bytes().to_vec();
        // Flip a byte inside the last record's payload (its frame ends with
        // an 8-byte checksum, so len-13 is payload): the first two records
        // survive, everything from the tear on is dropped.
        let pos = bytes.len() - 13;
        bytes[pos] ^= 0xff;
        let replay = Wal::replay(&bytes).unwrap();
        assert_eq!(replay.records, records()[..2]);
        assert!(replay.torn());
    }

    #[test]
    fn wal_header_errors_are_fatal() {
        assert_eq!(Wal::replay(b"xx").unwrap_err(), SnapshotError::Truncated);
        assert_eq!(
            Wal::replay(b"garbage!").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn replay_into_engine_reproduces_ids_and_tags() {
        let program = Arc::new(
            Program::parse(
                "(literalize a x)
                 (p noop (a ^x 999) --> (halt))",
            )
            .unwrap(),
        );
        let mut live = Engine::new(Arc::clone(&program));
        let mut wal = Wal::new();
        // Log-then-apply three asserts and a retract, as a caller would.
        for i in 0..3i64 {
            let rec = WalRecord {
                cycle: 0,
                op: WalOp::Assert {
                    class: sym("a"),
                    fields: vec![Value::Int(i)],
                },
            };
            wal.append(&rec);
            apply_record(&mut live, &rec);
        }
        let rec = WalRecord {
            cycle: 0,
            op: WalOp::Retract(WmeId(1)),
        };
        wal.append(&rec);
        apply_record(&mut live, &rec);

        let mut replayed = Engine::new(program);
        for r in &Wal::replay(wal.as_bytes()).unwrap().records {
            apply_record(&mut replayed, r);
        }
        let a: Vec<_> = live.wm().iter().map(|(id, w)| (id, w.clone())).collect();
        let b: Vec<_> = replayed
            .wm()
            .iter()
            .map(|(id, w)| (id, w.clone()))
            .collect();
        assert_eq!(a, b);
        assert_eq!(live.work(), replayed.work());
    }
}
