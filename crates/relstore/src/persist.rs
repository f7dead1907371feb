//! Checksummed snapshots and small checksummed blobs.
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
//! detected and reported as a [`RelError::Durability`], never loaded.
//! `seq` stamps the snapshot with the sequence number of the [`crate::wal`]
//! record that commits it, so a reader can tell a committed snapshot from
//! a staged one: the integration pipeline keeps one snapshot per source
//! beside a log of commit events, and on restart rolls a staged snapshot
//! forward only when its stamp matches its source's last replayed event.
//! [`write_blob`] stores other checksummed files the same way, such as the
//! serving layer's published-generation marker and the pipeline's
//! per-source stored links.

use crate::catalog::Database;
use crate::constraint::{Constraint, ForeignKey};
use crate::error::{RelError, RelResult};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::{Row, Table};
use crate::types::DataType;
use crate::value::Value;
use crate::wal;
use std::path::{Path, PathBuf};

/// First 8 bytes of every snapshot file.
const SNAPSHOT_MAGIC: [u8; 8] = *b"ALDSNAP1";

/// First 8 bytes of a checksummed blob ([`write_blob`]), used for
/// generation markers and the pipeline's stored links.
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

/// Write a checksummed blob (magic + length + payload + CRC32) atomically —
/// generation markers and the pipeline's stored links.
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
        let path = dir.join("protkb.snap");
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
}
