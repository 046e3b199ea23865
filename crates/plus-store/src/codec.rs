//! Binary codecs for the store: the full-state **snapshot** format and
//! the per-record **write-ahead-log frame** format.
//!
//! # Snapshot format
//!
//! Little-endian, length-prefixed, versioned, and checksummed:
//!
//! ```text
//! magic "PLUS" | version u16 | clock u64
//! v2 only:  u32 shard_count | u32 shard_index
//! lattice:  u16 n  { str name }×n   u32 m  { u16 higher, u16 lower }×m
//! nodes:    u32 n  { str label, u8 kind, u16 lowest, u64 created_at, features }×n
//! edges:    u32 n  { u32 from, u32 to, u8 kind }×n
//! policy:   u32 n  { u8 tag, payload }×n
//! fnv1a-64 checksum over everything above
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes. Features are `u16` count of
//! `(str key, u8 value-tag, value)` entries, so a node or surrogate
//! carries at most [`MAX_FEATURES`]. The checksum catches torn writes and
//! bit rot before a corrupt snapshot reaches the graph layer.
//!
//! Version 2 exists solely for **partitioned** (sharded) stores: an
//! unpartitioned snapshot always encodes as version 1, byte-identical to
//! what earlier releases wrote, so old snapshots decode and new
//! unpartitioned snapshots stay readable by old binaries. In a
//! partitioned snapshot the node list holds only this shard's residue
//! class (local position `p` is global id `p * shard_count +
//! shard_index`), while edge and policy records keep **global** ids —
//! foreign endpoints are accepted unvalidated, since the owning shard is
//! the authority on their existence.
//!
//! # WAL frame format
//!
//! A WAL segment file is a fixed header followed by a run of
//! independently checksummed frames, one per store mutation:
//!
//! ```text
//! header: magic "PLUSWAL\0" | version u16 | start_clock u64
//! frame:  len u32 | crc32 u32 (IEEE, over payload) | payload (len bytes)
//! payload: tag u8 — 0 AppendNode  { str label, u8 kind, u16 lowest,
//!                                   u64 created_at, features }
//!                   1 AppendEdge  { u32 from, u32 to, u8 kind }
//!                   2 ApplyPolicy { policy statement, as in snapshots }
//! ```
//!
//! The frame with index `i` in a segment records the mutation that
//! moved the store's logical clock from `start_clock + i` one tick
//! forward. Frames are written (and, when fsync is on, synced) *before*
//! the in-memory mutation is applied, so every acknowledged mutation is
//! recoverable; [`decode_frame`] distinguishes a **torn** tail (bytes
//! end mid-frame — the normal crash signature) from a **corrupt** frame
//! (checksum or structure failure), and recovery truncates at the first
//! of either instead of failing.

use bytes::{BufMut, BytesMut};
use surrogate_core::feature::{FeatureValue, Features};
use surrogate_core::marking::Marking;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::shard::Partition;

use crate::error::CodecError;
use crate::record::{EdgeKind, EdgeRecord, NodeKind, NodeRecord, PolicyStatement, RecordId};

/// Snapshot magic bytes.
pub const MAGIC: &[u8; 4] = b"PLUS";
/// Current snapshot version.
pub const VERSION: u16 = 1;
/// Snapshot version for partitioned (sharded) stores, which carry a
/// `shard_count`/`shard_index` pair after the clock. Unpartitioned
/// snapshots keep encoding as [`VERSION`].
pub const VERSION_PARTITIONED: u16 = 2;

/// WAL segment magic bytes.
pub const WAL_MAGIC: &[u8; 8] = b"PLUSWAL\0";
/// Current WAL segment version.
pub const WAL_VERSION: u16 = 1;
/// Bytes of a WAL segment header: magic, version, start clock.
pub const WAL_HEADER_LEN: usize = 8 + 2 + 8;
/// Bytes of a frame header: `len u32 | crc32 u32`.
pub const FRAME_HEADER_LEN: usize = 4 + 4;
/// Sanity bound on a single frame's payload; anything larger is treated
/// as corruption rather than allocated.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// The plain data a snapshot carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Predicate nicknames, index = `PrivilegeId`.
    pub lattice_names: Vec<String>,
    /// Declared dominance edges `(higher, lower)`.
    pub dominance: Vec<(PrivilegeId, PrivilegeId)>,
    /// Node records in append order.
    pub nodes: Vec<NodeRecord>,
    /// Edge records in append order.
    pub edges: Vec<EdgeRecord>,
    /// Policy statements in application order.
    pub policy: Vec<PolicyStatement>,
    /// The store's logical clock.
    pub clock: u64,
    /// The keyspace slice this store owns, when it is one shard of a
    /// partitioned deployment. `None` for ordinary single-primary
    /// stores; `Some` switches the snapshot to [`VERSION_PARTITIONED`]
    /// and relaxes reference validation for foreign (remote-shard) ids.
    pub partition: Option<Partition>,
}

/// FNV-1a 64-bit, the snapshot integrity hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
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

/// Slicing-by-8 extension of [`CRC32_TABLE`]: `TABLES[t][b]` is the CRC
/// contribution of byte `b` seen `t` positions before the end of an
/// 8-byte block. Mathematically identical to the byte-at-a-time loop —
/// only the evaluation order changes — but the eight table lookups of a
/// block are independent, so the update is no longer one long serial
/// dependency chain per byte.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = CRC32_TABLE;
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut t = 1;
        while t < 8 {
            crc = (crc >> 8) ^ tables[0][(crc & 0xff) as usize];
            tables[t][i] = crc;
            t += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE), the per-frame integrity check of the WAL and the wire
/// protocol. Processes 8 bytes per step (slicing-by-8); the checksum is
/// bit-identical to the classic byte-wise definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("len 4")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("len 4"));
        crc = CRC32_TABLES[7][(lo & 0xff) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xff) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// The most features one node or surrogate carries: its features'
/// count is a `u16` in every format. `Store` refuses a write with more
/// before logging it.
pub const MAX_FEATURES: usize = u16::MAX as usize;

/// Refuses a count its wire field cannot carry. Encoding is where this
/// must fail: a bare `as` cast here would truncate the count silently
/// and desynchronize the peer's decoder mid-payload.
pub(crate) fn check_count(what: &'static str, count: usize, max: u64) -> Result<(), CodecError> {
    if count as u64 > max {
        return Err(CodecError::CountOverflow { what, count, max });
    }
    Ok(())
}

pub(crate) fn put_features(buf: &mut BytesMut, features: &Features) -> Result<(), CodecError> {
    check_count("features", features.len(), MAX_FEATURES as u64)?;
    buf.put_u16_le(features.len() as u16);
    for (key, value) in features.iter() {
        put_str(buf, key);
        match value {
            FeatureValue::Str(s) => {
                buf.put_u8(0);
                put_str(buf, s);
            }
            FeatureValue::Int(i) => {
                buf.put_u8(1);
                buf.put_i64_le(*i);
            }
            FeatureValue::Float(x) => {
                buf.put_u8(2);
                buf.put_f64_le(*x);
            }
            FeatureValue::Bool(b) => {
                buf.put_u8(3);
                buf.put_u8(*b as u8);
            }
            FeatureValue::Timestamp(t) => {
                buf.put_u8(4);
                buf.put_i64_le(*t);
            }
        }
    }
    Ok(())
}

fn marking_tag(m: Marking) -> u8 {
    match m {
        Marking::Visible => 0,
        Marking::Hide => 1,
        Marking::Surrogate => 2,
    }
}

fn marking_from_tag(tag: u8) -> Result<Marking, CodecError> {
    match tag {
        0 => Ok(Marking::Visible),
        1 => Ok(Marking::Hide),
        2 => Ok(Marking::Surrogate),
        _ => Err(CodecError::InvalidTag {
            what: "marking",
            tag,
        }),
    }
}

/// An optional field: tag `0` when absent, `1` then `put`'s bytes.
pub(crate) fn put_opt<T>(buf: &mut BytesMut, value: Option<T>, put: impl FnOnce(&mut BytesMut, T)) {
    match value {
        Some(value) => {
            buf.put_u8(1);
            put(buf, value);
        }
        None => buf.put_u8(0),
    }
}

pub(crate) fn put_opt_predicate(buf: &mut BytesMut, p: Option<PrivilegeId>) {
    put_opt(buf, p, |buf, p| buf.put_u16_le(p.0));
}

fn put_node(buf: &mut BytesMut, node: &NodeRecord) -> Result<(), CodecError> {
    put_str(buf, &node.label);
    buf.put_u8(node.kind.tag());
    buf.put_u16_le(node.lowest.0);
    buf.put_u64_le(node.created_at);
    put_features(buf, &node.features)
}

fn put_edge(buf: &mut BytesMut, edge: &EdgeRecord) {
    buf.put_u32_le(edge.from.0);
    buf.put_u32_le(edge.to.0);
    buf.put_u8(edge.kind.tag());
}

pub(crate) fn put_policy(
    buf: &mut BytesMut,
    statement: &PolicyStatement,
) -> Result<(), CodecError> {
    match statement {
        PolicyStatement::MarkIncidence {
            node,
            from,
            to,
            predicate,
            marking,
        } => {
            buf.put_u8(0);
            buf.put_u32_le(node.0);
            buf.put_u32_le(from.0);
            buf.put_u32_le(to.0);
            put_opt_predicate(buf, *predicate);
            buf.put_u8(marking_tag(*marking));
        }
        PolicyStatement::MarkNode {
            node,
            predicate,
            marking,
        } => {
            buf.put_u8(1);
            buf.put_u32_le(node.0);
            put_opt_predicate(buf, *predicate);
            buf.put_u8(marking_tag(*marking));
        }
        PolicyStatement::AddSurrogate {
            node,
            label,
            features,
            lowest,
            info_score,
        } => {
            buf.put_u8(2);
            buf.put_u32_le(node.0);
            put_str(buf, label);
            put_features(buf, features)?;
            buf.put_u16_le(lowest.0);
            buf.put_f64_le(*info_score);
        }
    }
    Ok(())
}

/// A record the store holds always encodes: it refused any with more
/// than [`MAX_FEATURES`] features before logging it.
const STAGED: &str = "a record with more features than a frame carries was never staged";

/// Encodes a snapshot.
///
/// # Panics
/// Panics if a node or surrogate carries more than [`MAX_FEATURES`]
/// features, which no store holds.
pub fn encode(data: &SnapshotData) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(
        64 + data.nodes.len() * 48 + data.edges.len() * 9 + data.policy.len() * 24,
    );
    buf.put_slice(MAGIC);
    buf.put_u16_le(match data.partition {
        Some(_) => VERSION_PARTITIONED,
        None => VERSION,
    });
    buf.put_u64_le(data.clock);
    if let Some(p) = data.partition {
        buf.put_u32_le(p.count());
        buf.put_u32_le(p.index());
    }

    buf.put_u16_le(data.lattice_names.len() as u16);
    for name in &data.lattice_names {
        put_str(&mut buf, name);
    }
    buf.put_u32_le(data.dominance.len() as u32);
    for &(hi, lo) in &data.dominance {
        buf.put_u16_le(hi.0);
        buf.put_u16_le(lo.0);
    }

    buf.put_u32_le(data.nodes.len() as u32);
    for node in &data.nodes {
        put_node(&mut buf, node).expect(STAGED);
    }

    buf.put_u32_le(data.edges.len() as u32);
    for edge in &data.edges {
        put_edge(&mut buf, edge);
    }

    buf.put_u32_le(data.policy.len() as u32);
    for statement in &data.policy {
        put_policy(&mut buf, statement).expect(STAGED);
    }

    let checksum = fnv1a(&buf);
    buf.put_u64_le(checksum);
    buf.to_vec()
}

/// Bounds-checked little-endian reader, shared by the snapshot, WAL, and
/// wire-protocol decoders.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn string(&mut self) -> Result<String, CodecError> {
        Ok(self.str_ref()?.to_owned())
    }

    /// A string borrowed from the underlying payload — the allocation-free
    /// form of [`string`](Self::string), for decoders that copy into
    /// caller-owned buffers.
    pub(crate) fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)
    }

    /// A feature list, in whatever key order it was written: the entries
    /// are collected, then sorted once ([`Features`]' `FromIterator`).
    pub(crate) fn features(&mut self) -> Result<Features, CodecError> {
        let count = self.u16()?;
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let key = self.string()?;
            let tag = self.u8()?;
            let value = match tag {
                0 => FeatureValue::Str(self.string()?),
                1 => FeatureValue::Int(self.i64()?),
                2 => FeatureValue::Float(self.f64()?),
                3 => FeatureValue::Bool(self.u8()? != 0),
                4 => FeatureValue::Timestamp(self.i64()?),
                _ => {
                    return Err(CodecError::InvalidTag {
                        what: "feature value",
                        tag,
                    })
                }
            };
            entries.push((key, value));
        }
        Ok(entries.into_iter().collect())
    }

    pub(crate) fn opt_predicate(&mut self) -> Result<Option<PrivilegeId>, CodecError> {
        self.opt("optional predicate", |r| Ok(PrivilegeId(r.u16()?)))
    }

    /// An optional field written by [`put_opt`]; `what` names it in the
    /// error for a tag other than `0` or `1`.
    pub(crate) fn opt<T>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            tag => Err(CodecError::InvalidTag { what, tag }),
        }
    }

    /// A `0 | 1` boolean byte.
    pub(crate) fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what, tag }),
        }
    }

    /// A `u32`-counted list of `read`'s items. A count beyond `max` is
    /// refused before anything is allocated.
    pub(crate) fn list<T>(
        &mut self,
        max: u32,
        mut read: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.u32()?;
        if count > max {
            return Err(CodecError::FrameTooLarge(count));
        }
        let mut items = Vec::with_capacity(count as usize);
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    pub(crate) fn node_record(&mut self) -> Result<NodeRecord, CodecError> {
        let label = self.string()?;
        let kind_tag = self.u8()?;
        let kind = NodeKind::from_tag(kind_tag).ok_or(CodecError::InvalidTag {
            what: "node kind",
            tag: kind_tag,
        })?;
        let lowest = PrivilegeId(self.u16()?);
        let created_at = self.u64()?;
        let features = self.features()?;
        Ok(NodeRecord {
            label,
            kind,
            features,
            lowest,
            created_at,
        })
    }

    pub(crate) fn edge_record(&mut self) -> Result<EdgeRecord, CodecError> {
        let from = RecordId(self.u32()?);
        let to = RecordId(self.u32()?);
        let kind_tag = self.u8()?;
        let kind = EdgeKind::from_tag(kind_tag).ok_or(CodecError::InvalidTag {
            what: "edge kind",
            tag: kind_tag,
        })?;
        Ok(EdgeRecord { from, to, kind })
    }

    pub(crate) fn policy_statement(&mut self) -> Result<PolicyStatement, CodecError> {
        let tag = self.u8()?;
        match tag {
            0 => Ok(PolicyStatement::MarkIncidence {
                node: RecordId(self.u32()?),
                from: RecordId(self.u32()?),
                to: RecordId(self.u32()?),
                predicate: self.opt_predicate()?,
                marking: marking_from_tag(self.u8()?)?,
            }),
            1 => Ok(PolicyStatement::MarkNode {
                node: RecordId(self.u32()?),
                predicate: self.opt_predicate()?,
                marking: marking_from_tag(self.u8()?)?,
            }),
            2 => Ok(PolicyStatement::AddSurrogate {
                node: RecordId(self.u32()?),
                label: self.string()?,
                features: self.features()?,
                lowest: PrivilegeId(self.u16()?),
                info_score: self.f64()?,
            }),
            _ => Err(CodecError::InvalidTag {
                what: "policy statement",
                tag,
            }),
        }
    }
}

/// References a [`PolicyStatement`] makes, for bounds validation.
pub(crate) fn policy_refs(statement: &PolicyStatement) -> (Vec<RecordId>, Option<PrivilegeId>) {
    match statement {
        PolicyStatement::MarkIncidence {
            node,
            from,
            to,
            predicate,
            ..
        } => (vec![*node, *from, *to], *predicate),
        PolicyStatement::MarkNode {
            node, predicate, ..
        } => (vec![*node], *predicate),
        PolicyStatement::AddSurrogate { node, lowest, .. } => (vec![*node], Some(*lowest)),
    }
}

/// Decodes and verifies a snapshot.
pub fn decode(bytes: &[u8]) -> Result<SnapshotData, CodecError> {
    if bytes.len() < MAGIC.len() + 2 + 8 + 8 {
        return Err(CodecError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("len 8"));
    if fnv1a(body) != stored {
        return Err(CodecError::ChecksumMismatch);
    }

    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION && version != VERSION_PARTITIONED {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let clock = r.u64()?;
    let partition = if version == VERSION_PARTITIONED {
        let count = r.u32()?;
        let index = r.u32()?;
        Some(Partition::new(index, count).ok_or(CodecError::DanglingReference)?)
    } else {
        None
    };

    let name_count = r.u16()? as usize;
    let mut lattice_names = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        lattice_names.push(r.string()?);
    }
    let dom_count = r.u32()? as usize;
    let mut dominance = Vec::with_capacity(dom_count);
    for _ in 0..dom_count {
        let hi = PrivilegeId(r.u16()?);
        let lo = PrivilegeId(r.u16()?);
        if hi.0 as usize >= name_count || lo.0 as usize >= name_count {
            return Err(CodecError::DanglingReference);
        }
        dominance.push((hi, lo));
    }

    let check_pred = |p: PrivilegeId| {
        if p.0 as usize >= name_count {
            Err(CodecError::DanglingReference)
        } else {
            Ok(p)
        }
    };

    let node_count = r.u32()? as usize;
    let mut nodes = Vec::with_capacity(node_count.min(1 << 20));
    for _ in 0..node_count {
        let node = r.node_record()?;
        check_pred(node.lowest)?;
        nodes.push(node);
    }

    // Partitioned stores hold only their own residue class: an owned id
    // must land inside the local node list, while a foreign id's
    // existence is the owning shard's business and passes unvalidated.
    let check_node = |id: RecordId| match partition {
        Some(p) if !p.owns(id.0) => Ok(id),
        Some(p) if (p.local(id.0) as usize) < node_count => Ok(id),
        Some(_) => Err(CodecError::DanglingReference),
        None if id.index() < node_count => Ok(id),
        None => Err(CodecError::DanglingReference),
    };

    let edge_count = r.u32()? as usize;
    let mut edges = Vec::with_capacity(edge_count.min(1 << 20));
    for _ in 0..edge_count {
        let edge = r.edge_record()?;
        check_node(edge.from)?;
        check_node(edge.to)?;
        edges.push(edge);
    }

    let policy_count = r.u32()? as usize;
    let mut policy = Vec::with_capacity(policy_count.min(1 << 20));
    for _ in 0..policy_count {
        let statement = r.policy_statement()?;
        let (records, predicate) = policy_refs(&statement);
        for id in records {
            check_node(id)?;
        }
        if let Some(p) = predicate {
            check_pred(p)?;
        }
        policy.push(statement);
    }

    if r.pos != body.len() {
        return Err(CodecError::Truncated); // trailing garbage
    }

    Ok(SnapshotData {
        lattice_names,
        dominance,
        nodes,
        edges,
        policy,
        clock,
        partition,
    })
}

// ---------------------------------------------------------------------------
// WAL frames
// ---------------------------------------------------------------------------

/// One logged store mutation — the unit of durability. See the module
/// docs for the frame layout.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `Store::append_node`, with the clock-assigned `created_at`.
    AppendNode(NodeRecord),
    /// `Store::append_edge`.
    AppendEdge(EdgeRecord),
    /// `Store::apply_policy`.
    ApplyPolicy(PolicyStatement),
}

/// Encodes a WAL segment header.
pub fn encode_wal_header(start_clock: u64) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(WAL_HEADER_LEN);
    buf.put_slice(WAL_MAGIC);
    buf.put_u16_le(WAL_VERSION);
    buf.put_u64_le(start_clock);
    buf.to_vec()
}

/// Decodes a WAL segment header, returning the segment's start clock.
pub fn decode_wal_header(bytes: &[u8]) -> Result<u64, CodecError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().expect("len 2"));
    if version != WAL_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(u64::from_le_bytes(bytes[10..18].try_into().expect("len 8")))
}

/// Encodes one record as a self-checking frame.
///
/// # Panics
/// Panics if the record carries more than [`MAX_FEATURES`] features,
/// which `Store` refuses before logging.
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(64);
    match record {
        WalRecord::AppendNode(node) => {
            payload.put_u8(0);
            put_node(&mut payload, node).expect(STAGED);
        }
        WalRecord::AppendEdge(edge) => {
            payload.put_u8(1);
            put_edge(&mut payload, edge);
        }
        WalRecord::ApplyPolicy(statement) => {
            payload.put_u8(2);
            put_policy(&mut payload, statement).expect(STAGED);
        }
    }
    seal_frame(&payload)
}

/// Outcome of decoding the frame at the head of `bytes`.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameDecode {
    /// A whole, checksum-valid frame.
    Complete {
        /// The decoded record.
        record: WalRecord,
        /// Total frame bytes consumed (header + payload).
        consumed: usize,
    },
    /// The bytes end mid-frame — the signature of a crash during an
    /// append. Everything before this frame is intact.
    Torn,
    /// The frame is structurally invalid or fails its checksum:
    /// corruption rather than a torn tail.
    Corrupt(CodecError),
}

/// Outcome of opening the raw frame at the head of a byte slice, before
/// any payload interpretation. The WAL record decoder and the wire
/// protocol share this layer (`len u32 | crc32 u32 | payload`).
#[derive(Debug, Clone, PartialEq)]
pub enum RawFrame<'a> {
    /// A whole, checksum-valid frame; `payload` is its body.
    Complete {
        /// The checksum-verified payload bytes.
        payload: &'a [u8],
        /// Total frame bytes consumed (header + payload).
        consumed: usize,
    },
    /// The bytes end mid-frame — a torn tail or a short read.
    Torn,
    /// The frame is structurally invalid or fails its checksum.
    Corrupt(CodecError),
}

/// Wraps a payload in the shared frame convention:
/// `len u32 | crc32 u32 (IEEE, over payload) | payload`.
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
    let mut frame = BytesMut::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.put_u32_le(payload.len() as u32);
    frame.put_u32_le(crc32(payload));
    frame.put_slice(payload);
    frame.to_vec()
}

/// Opens the frame at the head of `bytes`: checks the length bound and
/// the CRC, but does not interpret the payload. Never panics.
pub fn open_frame(bytes: &[u8]) -> RawFrame<'_> {
    if bytes.len() < FRAME_HEADER_LEN {
        return RawFrame::Torn;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("len 4"));
    if len > MAX_FRAME_LEN {
        return RawFrame::Corrupt(CodecError::FrameTooLarge(len));
    }
    let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().expect("len 4"));
    let end = FRAME_HEADER_LEN + len as usize;
    if bytes.len() < end {
        return RawFrame::Torn;
    }
    let payload = &bytes[FRAME_HEADER_LEN..end];
    if crc32(payload) != stored_crc {
        return RawFrame::Corrupt(CodecError::ChecksumMismatch);
    }
    RawFrame::Complete {
        payload,
        consumed: end,
    }
}

/// Decodes the frame at the head of `bytes`. Never panics: arbitrary
/// bytes produce [`FrameDecode::Torn`] or [`FrameDecode::Corrupt`].
///
/// An empty slice is a *clean* end of log, which the caller should test
/// for before calling; here it reports `Torn` like any other short read.
pub fn decode_frame(bytes: &[u8]) -> FrameDecode {
    let (payload, end) = match open_frame(bytes) {
        RawFrame::Complete { payload, consumed } => (payload, consumed),
        RawFrame::Torn => return FrameDecode::Torn,
        RawFrame::Corrupt(e) => return FrameDecode::Corrupt(e),
    };
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let record = match r.u8() {
        Ok(0) => r.node_record().map(WalRecord::AppendNode),
        Ok(1) => r.edge_record().map(WalRecord::AppendEdge),
        Ok(2) => r.policy_statement().map(WalRecord::ApplyPolicy),
        Ok(tag) => Err(CodecError::InvalidTag {
            what: "wal record",
            tag,
        }),
        Err(e) => Err(e),
    };
    match record {
        Ok(record) if r.pos == payload.len() => FrameDecode::Complete {
            record,
            consumed: end,
        },
        // Payload bytes left over after a clean read: the frame does not
        // describe one record, so it cannot be trusted.
        Ok(_) => FrameDecode::Corrupt(CodecError::Truncated),
        Err(e) => FrameDecode::Corrupt(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sliced CRC must be bit-identical to the textbook byte-wise
    /// definition at every length, especially around the 8-byte block
    /// boundary and the known check value `crc32(b"123456789")`.
    #[test]
    fn crc32_matches_bytewise_reference() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xff) as usize];
            }
            !crc
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut data = Vec::new();
        let mut x = 0x12u8;
        for len in 0..256 {
            data.clear();
            for _ in 0..len {
                x = x.wrapping_mul(31).wrapping_add(7);
                data.push(x);
            }
            assert_eq!(crc32(&data), reference(&data), "length {len}");
        }
    }

    fn sample() -> SnapshotData {
        SnapshotData {
            lattice_names: vec!["Public".into(), "High".into()],
            dominance: vec![(PrivilegeId(1), PrivilegeId(0))],
            nodes: vec![
                NodeRecord {
                    label: "report".into(),
                    kind: NodeKind::Data,
                    features: Features::new().with("score", 0.5).with("n", 3i64),
                    lowest: PrivilegeId(0),
                    created_at: 10,
                },
                NodeRecord {
                    label: "analysis".into(),
                    kind: NodeKind::Process,
                    features: Features::new()
                        .with("ok", true)
                        .with("at", FeatureValue::Timestamp(99))
                        .with("who", "alice"),
                    lowest: PrivilegeId(1),
                    created_at: 11,
                },
            ],
            edges: vec![EdgeRecord {
                from: RecordId(0),
                to: RecordId(1),
                kind: EdgeKind::InputTo,
            }],
            policy: vec![
                PolicyStatement::MarkNode {
                    node: RecordId(1),
                    predicate: Some(PrivilegeId(0)),
                    marking: Marking::Surrogate,
                },
                PolicyStatement::MarkIncidence {
                    node: RecordId(0),
                    from: RecordId(0),
                    to: RecordId(1),
                    predicate: None,
                    marking: Marking::Visible,
                },
                PolicyStatement::AddSurrogate {
                    node: RecordId(1),
                    label: "a process".into(),
                    features: Features::new(),
                    lowest: PrivilegeId(0),
                    info_score: 0.25,
                },
            ],
            clock: 12,
            partition: None,
        }
    }

    #[test]
    fn roundtrip() {
        let data = sample();
        let bytes = encode(&data);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_roundtrip() {
        let data = SnapshotData {
            lattice_names: vec!["Public".into()],
            dominance: vec![],
            nodes: vec![],
            edges: vec![],
            policy: vec![],
            clock: 0,
            partition: None,
        };
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn unpartitioned_snapshots_stay_version_1() {
        let bytes = encode(&sample());
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        assert_eq!(version, VERSION);
    }

    #[test]
    fn partitioned_roundtrip() {
        // Shard 1 of 2 owns the odd ids; its two local nodes are global
        // ids 1 and 3. Edges and policy reference the foreign (even)
        // ids freely.
        let mut data = sample();
        data.partition = Partition::new(1, 2);
        data.edges = vec![EdgeRecord {
            from: RecordId(1),
            to: RecordId(2), // foreign: owned by shard 0
            kind: EdgeKind::InputTo,
        }];
        data.policy = vec![PolicyStatement::MarkNode {
            node: RecordId(3),
            predicate: None,
            marking: Marking::Hide,
        }];
        let bytes = encode(&data);
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        assert_eq!(version, VERSION_PARTITIONED);
        assert_eq!(decode(&bytes).unwrap(), data);
    }

    #[test]
    fn partitioned_rejects_out_of_range_local_id() {
        // Shard 1 of 2 with two nodes owns global ids 1 and 3; global
        // id 5 is owned but beyond the node list.
        let mut data = sample();
        data.partition = Partition::new(1, 2);
        data.edges = vec![EdgeRecord {
            from: RecordId(5),
            to: RecordId(1),
            kind: EdgeKind::InputTo,
        }];
        data.policy.clear();
        assert_eq!(
            decode(&encode(&data)).unwrap_err(),
            CodecError::DanglingReference
        );
    }

    #[test]
    fn partitioned_rejects_invalid_partition_pair() {
        // Hand-corrupt a v2 snapshot so index >= count, re-seal the
        // checksum, and confirm the decoder refuses it.
        let mut data = sample();
        data.partition = Partition::new(0, 2);
        data.edges.clear();
        data.policy.clear();
        let mut bytes = encode(&data);
        // Layout: magic(4) version(2) clock(8) count(4) index(4).
        bytes[18..22].copy_from_slice(&7u32.to_le_bytes());
        let body_len = bytes.len() - 8;
        let checksum = super::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::DanglingReference);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::ChecksumMismatch);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample());
        assert_eq!(
            decode(&bytes[..bytes.len() - 9]).unwrap_err(),
            CodecError::ChecksumMismatch
        );
        assert_eq!(decode(&bytes[..4]).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        // Checksum covers the magic too, so recompute it to isolate the
        // magic check.
        let body_len = bytes.len() - 8;
        let checksum = super::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn dangling_edge_reference_is_detected() {
        let mut data = sample();
        data.edges[0].to = RecordId(99);
        let bytes = encode(&data);
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::DanglingReference);
    }

    #[test]
    fn dangling_predicate_reference_is_detected() {
        let mut data = sample();
        data.nodes[0].lowest = PrivilegeId(40);
        let bytes = encode(&data);
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::DanglingReference);
    }
}
