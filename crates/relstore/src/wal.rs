//! Append-only write-ahead log with checksummed, length-prefixed records.
//!
//! A record is an opaque payload, fsync'd before [`Wal::append`]
//! acknowledges it, so a crash can only ever lose an *unacknowledged* tail.
//! The integration pipeline appends one commit event per batch of sources
//! (`pipeline.wal`). The format is built for recovery under damage, not for
//! refusing to start:
//!
//! ```text
//! file   := magic("ALADWAL1") record*
//! record := len:u32  crc:u32  seq:u64  payload[len]      (little-endian)
//! ```
//!
//! `crc` is CRC32 (IEEE) over `seq || payload`, so a bit flip anywhere in a
//! record is detected; `seq` is a strictly increasing commit sequence number,
//! so duplicated records are skipped and reordered/missing records stop the
//! replay at the last provably consistent prefix. [`replay`] never panics and
//! never errors on damage: it reports the valid prefix (records + byte
//! length) plus the reason the tail was cut, and recovery physically
//! truncates the file there ([`Wal::recover`]).
//!
//! The [`Wal`] write handle fsyncs every append and supports injected fsync
//! failures ([`Wal::inject_sync_failures`]), so the fail-fsync path — the
//! append not acknowledged, the record absent after reopening — is testable
//! without a real disk fault.

use crate::error::{RelError, RelResult};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// First 8 bytes of every WAL file.
const WAL_MAGIC: [u8; 8] = *b"ALADWAL1";

/// Bytes of the per-record header (`len + crc + seq`).
const FRAME_HEADER_LEN: usize = 16;

/// Upper bound on a single record payload; anything larger in a length
/// prefix is treated as corruption rather than attempted as an allocation.
const MAX_PAYLOAD_LEN: u32 = 1 << 30;

// CRC32 (IEEE 802.3) by slicing-by-8, tables computed at compile time so
// the crate needs no checksum dependency. `CRC_TABLES[0]` is the classic
// byte table; `CRC_TABLES[k]` gives a byte's contribution `k` bytes before
// the end of an eight-byte block, so the loop folds eight bytes per step
// instead of one: every snapshot, blob and log record is checksummed on
// write and again on every restart.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFF_u32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn io_err(context: &str, e: std::io::Error) -> RelError {
    RelError::Durability(format!("{context}: {e}"))
}

fn record_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut bytes = Vec::with_capacity(8 + payload.len());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(payload);
    crc32(&bytes)
}

/// Encode one record frame (header + payload) for sequence number `seq`.
fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&record_crc(seq, payload).to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// One committed record recovered from a WAL file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Commit sequence number.
    pub seq: u64,
    /// The record payload, as passed to [`Wal::append`].
    pub payload: Vec<u8>,
}

/// Outcome of replaying a WAL file: the valid prefix and how it ended.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Records of the valid prefix with `seq > start_seq`, in commit order.
    pub records: Vec<WalRecord>,
    /// Highest applied sequence number (`start_seq` if nothing applied).
    pub last_seq: u64,
    /// Byte length of the valid prefix; recovery truncates the file here.
    pub valid_len: u64,
    /// Why replay stopped before the end of the file, if it did: a torn
    /// frame, a checksum mismatch, or a sequence gap.
    pub truncated: Option<String>,
    /// Well-formed records skipped because their sequence number was already
    /// applied (duplicated frames).
    pub duplicates_skipped: usize,
}

/// Replay a WAL file, returning the longest consistent prefix of records
/// with `seq > start_seq`. Damage (torn tail, checksum mismatch, sequence
/// gap) stops the replay and is reported in [`WalReplay::truncated`] — it is
/// never an error, and a missing file is simply an empty replay.
pub fn replay(path: &Path, start_seq: u64) -> RelResult<WalReplay> {
    let mut out = WalReplay {
        last_seq: start_seq,
        ..WalReplay::default()
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("reading WAL", e)),
    };
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        out.truncated = Some("missing or damaged WAL header".to_string());
        return Ok(out);
    }
    let mut pos = WAL_MAGIC.len();
    out.valid_len = pos as u64;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER_LEN {
            out.truncated = Some(format!("torn frame header ({remaining} trailing bytes)"));
            break;
        }
        let word = |at: usize| -> u32 {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let len = word(pos);
        let crc = word(pos + 4);
        let seq = u64::from_le_bytes(
            bytes[pos + 8..pos + 16]
                .try_into()
                .unwrap_or_else(|_| unreachable!("slice is 8 bytes")),
        );
        if len > MAX_PAYLOAD_LEN {
            out.truncated = Some(format!("implausible record length {len}"));
            break;
        }
        let len = len as usize;
        if remaining < FRAME_HEADER_LEN + len {
            out.truncated = Some(format!(
                "torn record payload (need {len} bytes, {} remain)",
                remaining - FRAME_HEADER_LEN
            ));
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
        if record_crc(seq, payload) != crc {
            out.truncated = Some(format!("checksum mismatch on record seq {seq}"));
            break;
        }
        if seq <= out.last_seq {
            // A duplicated frame: already applied, skip but keep the prefix.
            out.duplicates_skipped += 1;
        } else if seq == out.last_seq + 1 {
            out.records.push(WalRecord {
                seq,
                payload: payload.to_vec(),
            });
            out.last_seq = seq;
        } else {
            // A gap: records were lost or reordered; nothing after this
            // point is provably consistent.
            out.truncated = Some(format!(
                "sequence gap (expected {}, found {seq})",
                out.last_seq + 1
            ));
            break;
        }
        pos += FRAME_HEADER_LEN + len;
        out.valid_len = pos as u64;
    }
    Ok(out)
}

/// Byte spans `(offset, length)` of the well-formed frames of a WAL file, in
/// file order and ignoring sequence semantics — the handle fault injectors
/// use to cut, flip, duplicate and reorder records (the recovery tests and
/// `aladin-datagen`'s disk-fault injectors).
pub fn frame_spans(path: &Path) -> RelResult<Vec<(u64, u64)>> {
    let bytes = std::fs::read(path).map_err(|e| io_err("reading WAL", e))?;
    let mut spans = Vec::new();
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Ok(spans);
    }
    let mut pos = WAL_MAGIC.len();
    while pos + FRAME_HEADER_LEN <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        if len > MAX_PAYLOAD_LEN {
            break;
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if pos + total > bytes.len() {
            break;
        }
        spans.push((pos as u64, total as u64));
        pos += total;
    }
    Ok(spans)
}

/// The write handle of a WAL file, positioned to append the next record.
#[derive(Debug)]
pub struct Wal {
    file: File,
    next_seq: u64,
    len: u64,
    fail_syncs: u32,
}

impl Wal {
    /// Create a fresh WAL at `path` (truncating anything there), whose first
    /// record will carry sequence number `start_seq + 1`.
    pub fn create(path: &Path, start_seq: u64) -> RelResult<Wal> {
        let mut file = File::create(path).map_err(|e| io_err("creating WAL", e))?;
        file.write_all(&WAL_MAGIC)
            .map_err(|e| io_err("writing WAL header", e))?;
        file.sync_data().map_err(|e| io_err("syncing WAL", e))?;
        Ok(Wal {
            file,
            next_seq: start_seq + 1,
            len: WAL_MAGIC.len() as u64,
            fail_syncs: 0,
        })
    }

    /// Cold-start recovery of a WAL file: replay the longest consistent
    /// prefix of records with `seq > start_seq`, physically truncate the file
    /// at the first torn/corrupt record (instead of refusing to start), and
    /// return the replay together with a write handle positioned to append
    /// the next commit. A missing or headerless file is (re)initialized
    /// empty.
    pub fn recover(path: &Path, start_seq: u64) -> RelResult<(WalReplay, Wal)> {
        let replay = replay(path, start_seq)?;
        if replay.valid_len < WAL_MAGIC.len() as u64 {
            // Missing file or damaged header: start over.
            let wal = Wal::create(path, start_seq)?;
            return Ok((replay, wal));
        }
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("opening WAL", e))?;
        file.set_len(replay.valid_len)
            .map_err(|e| io_err("truncating WAL tail", e))?;
        if replay.truncated.is_some() {
            file.sync_data().map_err(|e| io_err("syncing WAL", e))?;
        }
        let mut wal = Wal {
            file,
            next_seq: replay.last_seq + 1,
            len: replay.valid_len,
            fail_syncs: 0,
        };
        wal.file
            .seek(SeekFrom::Start(wal.len))
            .map_err(|e| io_err("seeking WAL", e))?;
        Ok((replay, wal))
    }

    /// Append one record payload, fsync it, and return its sequence number.
    /// On any failure — including an injected fsync failure — the partial
    /// write is rolled back best-effort and the record is NOT acknowledged:
    /// after reopening, it is absent.
    pub fn append(&mut self, payload: &[u8]) -> RelResult<u64> {
        let seq = self.next_seq;
        let frame = encode_frame(seq, payload);
        let rollback = |file: &mut File, len: u64| {
            let _ = file.set_len(len);
            let _ = file.seek(SeekFrom::Start(len));
        };
        if let Err(e) = self
            .file
            .seek(SeekFrom::Start(self.len))
            .and_then(|_| self.file.write_all(&frame))
        {
            rollback(&mut self.file, self.len);
            return Err(io_err("appending WAL record", e));
        }
        if self.fail_syncs > 0 {
            self.fail_syncs -= 1;
            rollback(&mut self.file, self.len);
            return Err(RelError::Durability(
                "injected fsync failure: commit not acknowledged".to_string(),
            ));
        }
        if let Err(e) = self.file.sync_data() {
            rollback(&mut self.file, self.len);
            return Err(io_err("fsyncing WAL record", e));
        }
        self.len += frame.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Sequence number of the last acknowledged record.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Make the next `n` appends fail at the fsync step (the record is rolled
    /// back and not acknowledged) — the fail-fsync disk-fault injector.
    pub fn inject_sync_failures(&mut self, n: u32) {
        self.fail_syncs = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("aladin-wal-{tag}-{}-{n}.log", std::process::id()))
    }

    #[test]
    fn crc32_matches_the_standard_and_the_byte_at_a_time_loop() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // The classic one-table loop, one byte per step.
        let reference = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFF_u32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let bytes: Vec<u8> = (0u32..300)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                reference(&bytes[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_wal("roundtrip");
        let mut wal = Wal::create(&path, 0).unwrap();
        assert_eq!(wal.append(b"alpha").unwrap(), 1);
        assert_eq!(wal.append(b"beta").unwrap(), 2);
        let replayed = replay(&path, 0).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[0].payload, b"alpha");
        assert_eq!(replayed.last_seq, 2);
        assert!(replayed.truncated.is_none());
        // Replay from a later start skips the already-applied prefix.
        let tail = replay(&path, 1).unwrap();
        assert_eq!(tail.records.len(), 1);
        assert_eq!(tail.records[0].payload, b"beta");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_wal("torn");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append(b"kept").unwrap();
        let keep = std::fs::metadata(&path).unwrap().len();
        wal.append(b"torn-away").unwrap();
        drop(wal);
        // Cut the last record mid-payload.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep + 5).unwrap();
        drop(f);
        let (replayed, wal) = Wal::recover(&path, 0).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert!(replayed.truncated.is_some());
        assert_eq!(replayed.valid_len, keep);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep);
        assert_eq!(wal.last_seq(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_fsync_failure_rolls_back_the_commit() {
        let path = temp_wal("fsync");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append(b"ok").unwrap();
        wal.inject_sync_failures(1);
        let err = wal.append(b"lost").unwrap_err();
        assert!(matches!(err, RelError::Durability(_)));
        // The failed commit is gone both in the handle and on disk.
        assert_eq!(wal.last_seq(), 1);
        assert_eq!(wal.append(b"next").unwrap(), 2);
        let replayed = replay(&path, 0).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[1].payload, b"next");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_and_bad_header_recover_to_empty() {
        let path = temp_wal("fresh");
        let replayed = replay(&path, 7).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.last_seq, 7);
        std::fs::write(&path, b"not a wal at all").unwrap();
        let (replayed, mut wal) = Wal::recover(&path, 0).unwrap();
        assert!(replayed.truncated.is_some());
        assert_eq!(wal.append(b"first").unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_spans_report_offsets() {
        let path = temp_wal("spans");
        let mut wal = Wal::create(&path, 0).unwrap();
        wal.append(b"aa").unwrap();
        wal.append(b"bbbb").unwrap();
        let spans = frame_spans(&path).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], (8, (FRAME_HEADER_LEN + 2) as u64));
        assert_eq!(spans[1].0, 8 + spans[0].1);
        std::fs::remove_file(&path).ok();
    }
}
