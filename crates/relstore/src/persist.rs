//! Checksummed snapshots and the durable database wrapper.
//!
//! Persistence uses a small hand-rolled little-endian binary codec for
//! [`Value`], [`TableSchema`], [`Table`], [`Constraint`] and [`Database`].
//! A snapshot file is
//!
//! ```text
//! magic("ALDSNAP1")  seq:u64  len:u64  payload[len]  crc:u32
//! ```
//!
//! written atomically via temp-file + rename, with the CRC covering
//! `seq || len || payload`, so a half-written or bit-flipped snapshot is
//! detected and skipped in favour of an older one.
//!
//! [`DurableDatabase`] combines a snapshot with the write-ahead log of
//! [`crate::wal`]: every committed [`Mutation`] batch is validated, appended
//! to the WAL (fsync'd), and only then applied in memory. Cold-start
//! recovery ([`DurableDatabase::open`], also reachable as
//! [`Database::open`]) loads the newest *valid* snapshot in the directory,
//! replays the WAL tail, and truncates at the first torn or corrupt record
//! instead of refusing to start — losing at most the uncommitted tail.
//! [`DurableDatabase::checkpoint`] writes a fresh snapshot and compacts the
//! WAL down to the records newer than the previous retained snapshot, so a
//! corrupt newest snapshot can still fall back to the older one and replay
//! forward.

use crate::catalog::Database;
use crate::constraint::{Constraint, ForeignKey};
use crate::error::{RelError, RelResult};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::{Row, Table};
use crate::types::DataType;
use crate::value::Value;
use crate::wal::{self, Wal};
use std::path::{Path, PathBuf};

/// First 8 bytes of every snapshot file.
const SNAPSHOT_MAGIC: [u8; 8] = *b"ALDSNAP1";

/// First 8 bytes of a small checksummed blob ([`write_blob`]), used for
/// generation markers and other tiny metadata files.
const BLOB_MAGIC: [u8; 8] = *b"ALDBLOB1";

fn dur(msg: impl Into<String>) -> RelError {
    RelError::Durability(msg.into())
}

fn io_err(context: &str, e: std::io::Error) -> RelError {
    dur(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Append a `u32` (little-endian) to a buffer.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian) to a buffer.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string to a buffer.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over an encoded byte slice. Every decoding error
/// is a [`RelError::Durability`] — corruption, never a panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> RelResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(dur(format!(
                "truncated encoding: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> RelResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> RelResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> RelResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> RelResult<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> RelResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> RelResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| dur("invalid UTF-8 in encoded string"))
    }
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            buf.push(3);
            put_u64(buf, x.to_bits());
        }
        Value::Text(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

fn decode_value(cur: &mut Cursor<'_>) -> RelResult<Value> {
    match cur.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(cur.u8()? != 0)),
        2 => Ok(Value::Int(cur.i64()?)),
        3 => Ok(Value::float(cur.f64()?)),
        4 => Ok(Value::Text(cur.str()?)),
        tag => Err(dur(format!("unknown value tag {tag}"))),
    }
}

fn encode_data_type(buf: &mut Vec<u8>, t: DataType) {
    buf.push(match t {
        DataType::Integer => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Boolean => 3,
    });
}

fn decode_data_type(cur: &mut Cursor<'_>) -> RelResult<DataType> {
    match cur.u8()? {
        0 => Ok(DataType::Integer),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Text),
        3 => Ok(DataType::Boolean),
        tag => Err(dur(format!("unknown data-type tag {tag}"))),
    }
}

fn encode_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_u32(buf, schema.columns().len() as u32);
    for col in schema.columns() {
        put_str(buf, &col.name);
        encode_data_type(buf, col.data_type);
        buf.push(u8::from(col.nullable));
    }
}

fn decode_schema(cur: &mut Cursor<'_>) -> RelResult<TableSchema> {
    let n = cur.u32()? as usize;
    let mut columns = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let name = cur.str()?;
        let data_type = decode_data_type(cur)?;
        let nullable = cur.u8()? != 0;
        columns.push(ColumnDef {
            name,
            data_type,
            nullable,
        });
    }
    TableSchema::new(columns)
}

fn encode_table(buf: &mut Vec<u8>, table: &Table) {
    put_str(buf, table.name());
    encode_schema(buf, table.schema());
    put_u64(buf, table.row_count() as u64);
    for row in table.rows() {
        for v in row {
            encode_value(buf, v);
        }
    }
}

fn decode_table(cur: &mut Cursor<'_>) -> RelResult<Table> {
    let name = cur.str()?;
    let schema = decode_schema(cur)?;
    let arity = schema.arity();
    let rows = cur.u64()? as usize;
    let mut table = Table::with_capacity(name, schema, rows.min(1 << 24));
    for _ in 0..rows {
        let mut row: Row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(decode_value(cur)?);
        }
        table.insert(row)?;
    }
    Ok(table)
}

fn encode_constraint(buf: &mut Vec<u8>, c: &Constraint) {
    match c {
        Constraint::Unique { table, column } => {
            buf.push(0);
            put_str(buf, table);
            put_str(buf, column);
        }
        Constraint::PrimaryKey { table, column } => {
            buf.push(1);
            put_str(buf, table);
            put_str(buf, column);
        }
        Constraint::NotNull { table, column } => {
            buf.push(2);
            put_str(buf, table);
            put_str(buf, column);
        }
        Constraint::ForeignKey(fk) => {
            buf.push(3);
            put_str(buf, &fk.table);
            put_str(buf, &fk.column);
            put_str(buf, &fk.ref_table);
            put_str(buf, &fk.ref_column);
        }
    }
}

fn decode_constraint(cur: &mut Cursor<'_>) -> RelResult<Constraint> {
    let tag = cur.u8()?;
    match tag {
        0..=2 => {
            let table = cur.str()?;
            let column = cur.str()?;
            Ok(match tag {
                0 => Constraint::Unique { table, column },
                1 => Constraint::PrimaryKey { table, column },
                _ => Constraint::NotNull { table, column },
            })
        }
        3 => Ok(Constraint::ForeignKey(ForeignKey {
            table: cur.str()?,
            column: cur.str()?,
            ref_table: cur.str()?,
            ref_column: cur.str()?,
        })),
        tag => Err(dur(format!("unknown constraint tag {tag}"))),
    }
}

/// Encode a whole [`Database`] (name, tables, constraints) to bytes.
fn encode_database(db: &Database) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, db.name());
    put_u32(&mut buf, db.table_count() as u32);
    for table in db.tables() {
        encode_table(&mut buf, table);
    }
    put_u32(&mut buf, db.constraints().len() as u32);
    for c in db.constraints() {
        encode_constraint(&mut buf, c);
    }
    buf
}

/// Decode a [`Database`] encoded by [`encode_database`]. Rows and
/// constraints are re-validated through the normal catalog paths, so a
/// corrupt-but-checksum-valid payload cannot produce an inconsistent
/// catalog.
fn decode_database(bytes: &[u8]) -> RelResult<Database> {
    let mut cur = Cursor::new(bytes);
    let name = cur.str()?;
    let mut db = Database::new(name);
    let tables = cur.u32()?;
    for _ in 0..tables {
        db.add_table(decode_table(&mut cur)?)?;
    }
    let constraints = cur.u32()?;
    for _ in 0..constraints {
        db.add_constraint(decode_constraint(&mut cur)?)?;
    }
    if cur.remaining() != 0 {
        return Err(dur(format!(
            "{} trailing bytes after database encoding",
            cur.remaining()
        )));
    }
    Ok(db)
}

/// First difference between two databases (`None` = row-for-row identical):
/// name, table set, schemas, every row, and the declared constraints. The
/// workhorse of the recovery-equivalence tests and the crash-check harness.
pub fn diff_databases(a: &Database, b: &Database) -> Option<String> {
    if a.name() != b.name() {
        return Some(format!("name: '{}' vs '{}'", a.name(), b.name()));
    }
    if a.table_names() != b.table_names() {
        return Some(format!(
            "tables: {:?} vs {:?}",
            a.table_names(),
            b.table_names()
        ));
    }
    for ta in a.tables() {
        let tb = match b.table(ta.name()) {
            Ok(t) => t,
            Err(_) => return Some(format!("table '{}' missing", ta.name())),
        };
        if ta.schema().columns() != tb.schema().columns() {
            return Some(format!("schema of '{}' differs", ta.name()));
        }
        if ta.row_count() != tb.row_count() {
            return Some(format!(
                "row count of '{}': {} vs {}",
                ta.name(),
                ta.row_count(),
                tb.row_count()
            ));
        }
        for (i, (ra, rb)) in ta.rows().iter().zip(tb.rows()).enumerate() {
            if ra != rb {
                return Some(format!("row {i} of '{}': {ra:?} vs {rb:?}", ta.name()));
            }
        }
    }
    if a.constraints() != b.constraints() {
        return Some("constraints differ".to_string());
    }
    None
}

// ---------------------------------------------------------------------------
// Atomic checksummed files
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, then best-effort fsync of the directory.
/// A crash leaves either the old file or the new one, never a mix.
fn write_atomic(path: &Path, bytes: &[u8]) -> RelResult<()> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| dur(format!("invalid target path {}", path.display())))?;
    let tmp = dir.join(format!(".tmp-{file_name}"));
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("creating temp file", e))?;
        std::io::Write::write_all(&mut f, bytes).map_err(|e| io_err("writing temp file", e))?;
        f.sync_data().map_err(|e| io_err("syncing temp file", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("renaming into place", e))?;
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Write a database snapshot for WAL sequence number `seq` to an explicit
/// path, atomically and checksummed.
pub fn write_snapshot_at(path: &Path, db: &Database, seq: u64) -> RelResult<()> {
    let payload = encode_database(db);
    let mut buf = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 20 + payload.len());
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u64(&mut buf, seq);
    put_u64(&mut buf, payload.len() as u64);
    buf.extend_from_slice(&payload);
    let crc = wal::crc32(&buf[SNAPSHOT_MAGIC.len()..]);
    put_u32(&mut buf, crc);
    write_atomic(path, &buf)
}

/// Read and verify a snapshot file: `(database, wal sequence it covers)`.
/// Any damage — bad magic, wrong length, checksum mismatch, undecodable
/// payload — is a [`RelError::Durability`].
pub fn read_snapshot(path: &Path) -> RelResult<(Database, u64)> {
    let bytes = std::fs::read(path).map_err(|e| io_err("reading snapshot", e))?;
    let head = SNAPSHOT_MAGIC.len();
    if bytes.len() < head + 20 || bytes[..head] != SNAPSHOT_MAGIC {
        return Err(dur("missing or damaged snapshot header"));
    }
    let crc_stored = u32::from_le_bytes(
        bytes[bytes.len() - 4..]
            .try_into()
            .unwrap_or_else(|_| unreachable!("slice is 4 bytes")),
    );
    let body = &bytes[head..bytes.len() - 4];
    if wal::crc32(body) != crc_stored {
        return Err(dur("snapshot checksum mismatch"));
    }
    let mut cur = Cursor::new(body);
    let seq = cur.u64()?;
    let len = cur.u64()? as usize;
    if cur.remaining() != len {
        return Err(dur(format!(
            "snapshot length mismatch: header says {len}, {} present",
            cur.remaining()
        )));
    }
    let db = decode_database(&body[16..])?;
    Ok((db, seq))
}

/// Write a small checksummed blob (magic + length + payload + CRC32)
/// atomically — generation markers and other tiny metadata files.
pub fn write_blob(path: &Path, payload: &[u8]) -> RelResult<()> {
    let mut buf = Vec::with_capacity(BLOB_MAGIC.len() + 12 + payload.len());
    buf.extend_from_slice(&BLOB_MAGIC);
    put_u64(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    let crc = wal::crc32(&buf[BLOB_MAGIC.len()..]);
    put_u32(&mut buf, crc);
    write_atomic(path, &buf)
}

/// Read and verify a blob written by [`write_blob`].
pub fn read_blob(path: &Path) -> RelResult<Vec<u8>> {
    let bytes = std::fs::read(path).map_err(|e| io_err("reading blob", e))?;
    let head = BLOB_MAGIC.len();
    if bytes.len() < head + 12 || bytes[..head] != BLOB_MAGIC {
        return Err(dur("missing or damaged blob header"));
    }
    let crc_stored = u32::from_le_bytes(
        bytes[bytes.len() - 4..]
            .try_into()
            .unwrap_or_else(|_| unreachable!("slice is 4 bytes")),
    );
    let body = &bytes[head..bytes.len() - 4];
    if wal::crc32(body) != crc_stored {
        return Err(dur("blob checksum mismatch"));
    }
    let mut cur = Cursor::new(body);
    let len = cur.u64()? as usize;
    if cur.remaining() != len {
        return Err(dur("blob length mismatch"));
    }
    Ok(body[8..].to_vec())
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// One logged catalog mutation. A committed WAL record is an encoded batch
/// of these; replaying a batch through the normal catalog paths reproduces
/// the in-memory state exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Create an empty table.
    CreateTable {
        /// Table name.
        name: String,
        /// Column layout.
        schema: TableSchema,
    },
    /// Drop a table (and its rows).
    DropTable {
        /// Table name.
        name: String,
    },
    /// Append rows to a table.
    Insert {
        /// Table name.
        table: String,
        /// Rows to append, in order.
        rows: Vec<Row>,
    },
    /// Declare a constraint in the data dictionary.
    AddConstraint(Constraint),
}

/// Encode a mutation batch into one WAL record payload.
fn encode_batch(batch: &[Mutation]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, batch.len() as u32);
    for m in batch {
        match m {
            Mutation::CreateTable { name, schema } => {
                buf.push(0);
                put_str(&mut buf, name);
                encode_schema(&mut buf, schema);
            }
            Mutation::DropTable { name } => {
                buf.push(1);
                put_str(&mut buf, name);
            }
            Mutation::Insert { table, rows } => {
                buf.push(2);
                put_str(&mut buf, table);
                put_u32(&mut buf, rows.len() as u32);
                for row in rows {
                    put_u32(&mut buf, row.len() as u32);
                    for v in row {
                        encode_value(&mut buf, v);
                    }
                }
            }
            Mutation::AddConstraint(c) => {
                buf.push(3);
                encode_constraint(&mut buf, c);
            }
        }
    }
    buf
}

/// Decode a WAL record payload back into a mutation batch.
fn decode_batch(bytes: &[u8]) -> RelResult<Vec<Mutation>> {
    let mut cur = Cursor::new(bytes);
    let n = cur.u32()? as usize;
    let mut batch = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let m = match cur.u8()? {
            0 => Mutation::CreateTable {
                name: cur.str()?,
                schema: decode_schema(&mut cur)?,
            },
            1 => Mutation::DropTable { name: cur.str()? },
            2 => {
                let table = cur.str()?;
                let rows = cur.u32()? as usize;
                let mut decoded = Vec::with_capacity(rows.min(1 << 20));
                for _ in 0..rows {
                    let arity = cur.u32()? as usize;
                    let mut row: Row = Vec::with_capacity(arity.min(1 << 16));
                    for _ in 0..arity {
                        row.push(decode_value(&mut cur)?);
                    }
                    decoded.push(row);
                }
                Mutation::Insert {
                    table,
                    rows: decoded,
                }
            }
            3 => Mutation::AddConstraint(decode_constraint(&mut cur)?),
            tag => return Err(dur(format!("unknown mutation tag {tag}"))),
        };
        batch.push(m);
    }
    if cur.remaining() != 0 {
        return Err(dur("trailing bytes after mutation batch"));
    }
    Ok(batch)
}

/// Validate a batch against the current catalog *without* mutating it,
/// mirroring every check [`apply_batch`] would hit — table existence, row
/// arity/types/NOT NULL, constraint references — so that once a batch is in
/// the WAL, applying it cannot fail.
fn validate_batch(db: &Database, batch: &[Mutation]) -> RelResult<()> {
    use std::collections::BTreeMap;
    // Overlay of in-batch effects: Some(schema) = exists, None = dropped.
    let mut overlay: BTreeMap<String, Option<TableSchema>> = BTreeMap::new();
    let lookup =
        |overlay: &BTreeMap<String, Option<TableSchema>>, name: &str| -> Option<TableSchema> {
            let key = name.to_ascii_lowercase();
            match overlay.get(&key) {
                Some(Some(schema)) => Some(schema.clone()),
                Some(None) => None,
                None => db.table(name).ok().map(|t| t.schema().clone()),
            }
        };
    for m in batch {
        match m {
            Mutation::CreateTable { name, schema } => {
                if lookup(&overlay, name).is_some() {
                    return Err(RelError::AlreadyExists(format!("table '{name}'")));
                }
                overlay.insert(name.to_ascii_lowercase(), Some(schema.clone()));
            }
            Mutation::DropTable { name } => {
                if lookup(&overlay, name).is_none() {
                    return Err(RelError::UnknownTable(name.clone()));
                }
                overlay.insert(name.to_ascii_lowercase(), None);
            }
            Mutation::Insert { table, rows } => {
                let schema =
                    lookup(&overlay, table).ok_or_else(|| RelError::UnknownTable(table.clone()))?;
                for row in rows {
                    if row.len() != schema.arity() {
                        return Err(RelError::SchemaMismatch(format!(
                            "table '{table}' expects {} values, got {}",
                            schema.arity(),
                            row.len()
                        )));
                    }
                    for (idx, value) in row.iter().enumerate() {
                        let col = schema
                            .column_at(idx)
                            .ok_or_else(|| dur("column index out of range"))?;
                        if let Some(vt) = value.data_type() {
                            if !col.data_type.accepts(vt) {
                                return Err(RelError::SchemaMismatch(format!(
                                    "column '{table}.{}' of type {} cannot store type {vt}",
                                    col.name, col.data_type
                                )));
                            }
                        } else if !col.nullable {
                            return Err(RelError::ConstraintViolation(format!(
                                "column '{table}.{}' is NOT NULL",
                                col.name
                            )));
                        }
                    }
                }
            }
            Mutation::AddConstraint(c) => {
                let check = |table: &str, column: &str| -> RelResult<()> {
                    let schema = lookup(&overlay, table)
                        .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
                    schema.require(column).map(|_| ())
                };
                match c {
                    Constraint::Unique { table, column }
                    | Constraint::PrimaryKey { table, column }
                    | Constraint::NotNull { table, column } => check(table, column)?,
                    Constraint::ForeignKey(fk) => {
                        check(&fk.table, &fk.column)?;
                        check(&fk.ref_table, &fk.ref_column)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Apply a (validated or replayed) batch to a database through the normal
/// catalog paths.
fn apply_batch(db: &mut Database, batch: &[Mutation]) -> RelResult<()> {
    for m in batch {
        match m {
            Mutation::CreateTable { name, schema } => db.create_table(name, schema.clone())?,
            Mutation::DropTable { name } => {
                db.drop_table(name)?;
            }
            Mutation::Insert { table, rows } => {
                db.insert_all(table, rows.iter().cloned())?;
            }
            Mutation::AddConstraint(c) => db.add_constraint(c.clone())?,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The durable database
// ---------------------------------------------------------------------------

/// What cold-start recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL sequence the loaded snapshot covered (0 = recovered from empty).
    pub snapshot_seq: u64,
    /// Snapshot files skipped because they failed verification.
    pub snapshots_skipped: usize,
    /// Committed batches replayed from the WAL tail.
    pub records_replayed: usize,
    /// Duplicated WAL frames skipped during replay.
    pub duplicates_skipped: usize,
    /// Why (and that) the WAL tail was truncated, if it was.
    pub truncated: Option<String>,
}

impl RecoveryReport {
    /// True when recovery found any damage (skipped snapshot, cut tail).
    pub fn found_damage(&self) -> bool {
        self.snapshots_skipped > 0 || self.truncated.is_some()
    }
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:016x}.snap"))
}

/// Snapshot files in `dir`, newest (highest sequence) first.
fn list_snapshots(dir: &Path) -> RelResult<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(io_err("listing snapshot directory", e)),
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(hex) = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".snap"))
        {
            if let Ok(seq) = u64::from_str_radix(hex, 16) {
                found.push((seq, entry.path()));
            }
        }
    }
    found.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    Ok(found)
}

/// A [`Database`] with a write-ahead log and checksummed snapshots behind
/// it: mutations go through [`DurableDatabase::commit`] (validate → WAL
/// append + fsync → apply in memory), reads through
/// [`DurableDatabase::db`]. See the [module docs](self) for the on-disk
/// layout and recovery semantics.
#[derive(Debug)]
pub struct DurableDatabase {
    db: Database,
    dir: PathBuf,
    wal: Wal,
    /// Sequence covered by the newest on-disk snapshot.
    snapshot_seq: u64,
    /// Commits since the last checkpoint.
    commits_since_checkpoint: usize,
    /// Auto-checkpoint after this many commits (0 = manual only).
    checkpoint_every: usize,
    recovery: RecoveryReport,
}

impl DurableDatabase {
    /// Open (or initialize) a durable database in `dir`, naming a fresh
    /// database `name` when the directory holds no data yet. Performs full
    /// cold-start recovery: newest valid snapshot, WAL tail replay,
    /// truncation at the first torn/corrupt record.
    pub fn open_named(dir: impl AsRef<Path>, name: &str) -> RelResult<DurableDatabase> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("creating data directory", e))?;
        // Clear stale temp files from interrupted atomic writes.
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                if entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with(".tmp-"))
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        // The name is persisted in a tiny checksummed blob so that a store
        // recovered from WAL alone (no snapshot yet) keeps its identity.
        let name_path = dir.join("NAME");
        let persisted_name = read_blob(&name_path)
            .ok()
            .and_then(|b| String::from_utf8(b).ok());
        let mut report = RecoveryReport::default();
        let mut db = None;
        for (seq, path) in list_snapshots(&dir)? {
            match read_snapshot(&path) {
                Ok((loaded, snap_seq)) => {
                    // Trust the (checksummed) header over the file name.
                    report.snapshot_seq = snap_seq.min(seq);
                    db = Some(loaded);
                    break;
                }
                Err(_) => report.snapshots_skipped += 1,
            }
        }
        let mut db = db.unwrap_or_else(|| {
            Database::new(persisted_name.clone().unwrap_or_else(|| name.to_string()))
        });
        if persisted_name.is_none() {
            write_blob(&name_path, db.name().as_bytes())?;
        }
        let (replay, mut wal) = Wal::recover(&dir.join("wal.log"), report.snapshot_seq)?;
        report.truncated = replay.truncated;
        report.duplicates_skipped = replay.duplicates_skipped;
        for record in &replay.records {
            let outcome = decode_batch(&record.payload).and_then(|batch| {
                apply_batch(&mut db, &batch)?;
                Ok(())
            });
            match outcome {
                Ok(()) => report.records_replayed += 1,
                Err(e) => {
                    // A checksum-valid record that does not decode or apply
                    // consistently: cut the tail here, like a torn record.
                    wal.rewind(record.offset, record.seq - 1)?;
                    report.truncated = Some(format!(
                        "record seq {} not applicable ({e}); tail dropped",
                        record.seq
                    ));
                    break;
                }
            }
        }
        Ok(DurableDatabase {
            db,
            dir,
            wal,
            snapshot_seq: report.snapshot_seq,
            commits_since_checkpoint: 0,
            checkpoint_every: 0,
            recovery: report,
        })
    }

    /// [`DurableDatabase::open_named`] with the directory's file stem as the
    /// database name.
    pub fn open(dir: impl AsRef<Path>) -> RelResult<DurableDatabase> {
        let dir = dir.as_ref();
        let name = dir
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("database")
            .to_string();
        DurableDatabase::open_named(dir, &name)
    }

    /// The recovered/served database (read-only: mutations must go through
    /// [`DurableDatabase::commit`] to be durable).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// What cold-start recovery found and did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the last committed batch.
    pub fn last_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// Current WAL length in bytes.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Auto-checkpoint after every `n` commits (0 disables; default).
    pub fn set_checkpoint_every(&mut self, n: usize) {
        self.checkpoint_every = n;
    }

    /// Disable/enable fsync-on-commit (benchmarks only; see
    /// [`Wal::set_sync`]).
    pub fn set_sync(&mut self, sync: bool) {
        self.wal.set_sync(sync);
    }

    /// Make the next `n` commits fail at the fsync step (disk-fault
    /// injection; the commit is rolled back, memory and disk both stay
    /// without the batch).
    pub fn inject_fsync_failures(&mut self, n: u32) {
        self.wal.inject_sync_failures(n);
    }

    /// Commit one mutation batch: validate against the catalog, append to
    /// the WAL (fsync'd), then apply in memory. Returns the batch's sequence
    /// number. On any error nothing is applied and nothing is acknowledged.
    pub fn commit(&mut self, batch: Vec<Mutation>) -> RelResult<u64> {
        validate_batch(&self.db, &batch)?;
        let payload = encode_batch(&batch);
        let seq = self.wal.append(&payload)?;
        // Validation mirrors every check the catalog paths make, so this
        // cannot fail; if it ever does, surface it as corruption instead of
        // panicking.
        apply_batch(&mut self.db, &batch)
            .map_err(|e| dur(format!("validated batch failed to apply: {e}")))?;
        self.commits_since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.commits_since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(seq)
    }

    /// Convenience commit of a single insert batch.
    pub fn commit_insert(&mut self, table: &str, rows: Vec<Row>) -> RelResult<u64> {
        self.commit(vec![Mutation::Insert {
            table: table.to_string(),
            rows,
        }])
    }

    /// Write a fresh snapshot at the current sequence, keep the previous
    /// snapshot as a fallback (pruning older ones), and compact the WAL down
    /// to the records newer than that fallback — so recovery can still
    /// replay forward if the newest snapshot is damaged.
    pub fn checkpoint(&mut self) -> RelResult<u64> {
        let seq = self.wal.last_seq();
        write_snapshot_at(&snapshot_path(&self.dir, seq), &self.db, seq)?;
        // Keep the two newest snapshots, prune the rest.
        let snapshots = list_snapshots(&self.dir)?;
        let fallback_seq = snapshots.get(1).map(|(s, _)| *s).unwrap_or(seq);
        for (_, path) in snapshots.iter().skip(2) {
            let _ = std::fs::remove_file(path);
        }
        // Compact: rewrite the WAL with only the records the fallback
        // snapshot still needs.
        let kept = wal::replay(self.wal.path(), fallback_seq)?;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&wal::WAL_MAGIC);
        for record in &kept.records {
            bytes.extend_from_slice(&wal::encode_frame(record.seq, &record.payload));
        }
        let path = self.wal.path().to_path_buf();
        write_atomic(&path, &bytes)?;
        let (_, wal) = Wal::recover(&path, fallback_seq)?;
        let sync = {
            // Preserve the sync setting across the handle swap.
            let mut w = wal;
            w.set_sync(true);
            w
        };
        self.wal = sync;
        self.snapshot_seq = seq;
        self.commits_since_checkpoint = 0;
        Ok(seq)
    }
}

impl Database {
    /// Open a durable database directory with cold-start recovery: load the
    /// newest valid snapshot, replay the WAL tail, truncate at the first
    /// torn or corrupt record. See [`DurableDatabase`].
    pub fn open(dir: impl AsRef<Path>) -> RelResult<DurableDatabase> {
        DurableDatabase::open(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("aladin-persist-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_db() -> Database {
        let mut db = Database::new("protkb");
        db.create_table(
            "entry",
            TableSchema::of(vec![
                ColumnDef::int("id"),
                ColumnDef::text("ac"),
                ColumnDef::float("score"),
            ]),
        )
        .unwrap();
        db.insert(
            "entry",
            vec![Value::Int(1), Value::text("P10001"), Value::float(0.5)],
        )
        .unwrap();
        db.insert("entry", vec![Value::Int(2), Value::Null, Value::Null])
            .unwrap();
        db.add_constraint(Constraint::Unique {
            table: "entry".into(),
            column: "id".into(),
        })
        .unwrap();
        db
    }

    #[test]
    fn database_codec_round_trips() {
        let db = sample_db();
        let bytes = encode_database(&db);
        let decoded = decode_database(&bytes).unwrap();
        assert_eq!(diff_databases(&db, &decoded), None);
    }

    #[test]
    fn snapshot_write_read_and_corruption_detection() {
        let dir = temp_dir("snap");
        let db = sample_db();
        let path = snapshot_path(&dir, 42);
        write_snapshot_at(&path, &db, 42).unwrap();
        let (loaded, seq) = read_snapshot(&path).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(diff_databases(&db, &loaded), None);
        // Flip one payload byte: the checksum catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&path), Err(RelError::Durability(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blob_round_trip_and_corruption() {
        let dir = temp_dir("blob");
        let path = dir.join("GENERATION");
        write_blob(&path, b"generation 17").unwrap();
        assert_eq!(read_blob(&path).unwrap(), b"generation 17");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 6;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_blob(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_recover_equivalence() {
        let dir = temp_dir("commit");
        let mut store = DurableDatabase::open_named(&dir, "protkb").unwrap();
        store
            .commit(vec![Mutation::CreateTable {
                name: "entry".into(),
                schema: TableSchema::of(vec![ColumnDef::int("id"), ColumnDef::text("ac")]),
            }])
            .unwrap();
        store
            .commit_insert(
                "entry",
                vec![
                    vec![Value::Int(1), Value::text("P1")],
                    vec![Value::Int(2), Value::text("P2")],
                ],
            )
            .unwrap();
        let in_memory = store.db().clone();
        drop(store);
        let reopened = Database::open(&dir).unwrap();
        assert_eq!(diff_databases(&in_memory, reopened.db()), None);
        assert_eq!(reopened.recovery().records_replayed, 2);
        assert!(!reopened.recovery().found_damage());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_batches_are_rejected_before_the_wal() {
        let dir = temp_dir("invalid");
        let mut store = DurableDatabase::open_named(&dir, "x").unwrap();
        let before = store.wal_len_bytes();
        // Insert into a missing table.
        assert!(store
            .commit_insert("nope", vec![vec![Value::Int(1)]])
            .is_err());
        // Wrong arity within a batch that creates the table first.
        let err = store.commit(vec![
            Mutation::CreateTable {
                name: "t".into(),
                schema: TableSchema::of(vec![ColumnDef::int("a")]),
            },
            Mutation::Insert {
                table: "t".into(),
                rows: vec![vec![Value::Int(1), Value::Int(2)]],
            },
        ]);
        assert!(err.is_err());
        assert_eq!(store.wal_len_bytes(), before);
        assert_eq!(store.db().table_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_and_falls_back_on_corrupt_newest_snapshot() {
        let dir = temp_dir("ckpt");
        let mut store = DurableDatabase::open_named(&dir, "x").unwrap();
        store
            .commit(vec![Mutation::CreateTable {
                name: "t".into(),
                schema: TableSchema::of(vec![ColumnDef::int("a")]),
            }])
            .unwrap();
        for i in 0..5 {
            store.commit_insert("t", vec![vec![Value::Int(i)]]).unwrap();
        }
        store.checkpoint().unwrap();
        for i in 5..8 {
            store.commit_insert("t", vec![vec![Value::Int(i)]]).unwrap();
        }
        store.checkpoint().unwrap();
        store
            .commit_insert("t", vec![vec![Value::Int(99)]])
            .unwrap();
        let expect = store.db().clone();
        drop(store);

        // Healthy reopen: snapshot + 1 replayed record.
        let reopened = Database::open(&dir).unwrap();
        assert_eq!(diff_databases(&expect, reopened.db()), None);
        assert_eq!(reopened.recovery().records_replayed, 1);
        drop(reopened);

        // Corrupt the newest snapshot: recovery falls back to the previous
        // one and replays the WAL forward to the same state.
        let snaps = list_snapshots(&dir).unwrap();
        assert!(snaps.len() >= 2);
        let mut bytes = std::fs::read(&snaps[0].1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&snaps[0].1, &bytes).unwrap();
        let reopened = Database::open(&dir).unwrap();
        assert_eq!(reopened.recovery().snapshots_skipped, 1);
        assert_eq!(diff_databases(&expect, reopened.db()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_checkpoint_triggers_on_interval() {
        let dir = temp_dir("auto");
        let mut store = DurableDatabase::open_named(&dir, "x").unwrap();
        store.set_checkpoint_every(3);
        store
            .commit(vec![Mutation::CreateTable {
                name: "t".into(),
                schema: TableSchema::of(vec![ColumnDef::int("a")]),
            }])
            .unwrap();
        store.commit_insert("t", vec![vec![Value::Int(1)]]).unwrap();
        store.commit_insert("t", vec![vec![Value::Int(2)]]).unwrap();
        assert!(!list_snapshots(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
