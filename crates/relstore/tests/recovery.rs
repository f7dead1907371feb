//! Crash-recovery suite for what the integration pipeline commits through:
//! the write-ahead log of `wal` and the checksummed snapshots of `persist`.
//! Injected log damage (torn tails, bit flips, failed fsyncs) must lose at
//! most the unacknowledged tail — never panic, never refuse to start — and
//! a snapshot must read back row-for-row identical to the database it was
//! written from, for arbitrary catalog mutation sequences.

use aladin_relstore::persist::{diff_databases, read_snapshot, write_snapshot_at};
use aladin_relstore::wal::{self, Wal};
use aladin_relstore::{ColumnDef, Constraint, Database, TableSchema, Value};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("aladin-recovery-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A log of `count` acknowledged appends in `dir`, returning its path and
/// the `(seq, payload)` of every record in commit order.
fn log_with_records(dir: &Path, count: usize) -> (PathBuf, Vec<(u64, Vec<u8>)>) {
    let path = dir.join("events.wal");
    let mut log = Wal::create(&path, 0).unwrap();
    let mut records = Vec::new();
    for i in 0..count {
        let payload = format!("event {i};").repeat(i + 1).into_bytes();
        let seq = log.append(&payload).unwrap();
        records.push((seq, payload));
    }
    (path, records)
}

/// The `(seq, payload)` pairs of a replay, for comparison with what was
/// appended.
fn records_of(replay: &wal::WalReplay) -> Vec<(u64, Vec<u8>)> {
    replay
        .records
        .iter()
        .map(|r| (r.seq, r.payload.clone()))
        .collect()
}

/// `(offset, length)` of the log's final frame.
fn last_frame(path: &Path) -> (u64, u64) {
    let spans = wal::frame_spans(path).unwrap();
    *spans.last().unwrap()
}

#[test]
fn torn_tail_at_every_byte_offset_loses_only_the_final_batch() {
    let dir = temp_dir("torn");
    let (log, records) = log_with_records(&dir, 3);
    let (last_offset, last_len) = last_frame(&log);
    let full = last_offset + last_len;
    let prefix = &records[..records.len() - 1];
    let scratch = dir.join("cut.wal");
    for cut in last_offset..full {
        std::fs::copy(&log, &scratch).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&scratch)
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let (replay, mut handle) = Wal::recover(&scratch, 0)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        assert_eq!(
            records_of(&replay),
            prefix,
            "cut at byte {cut} lost an acknowledged-before-the-tail record"
        );
        // A cut exactly at the record boundary leaves a well-formed
        // (shorter) log; any cut inside the record must be reported.
        if cut > last_offset {
            assert!(
                replay.truncated.is_some(),
                "cut at byte {cut} was not reported as truncation"
            );
        }
        // The recovered handle continues the log where the prefix ends, and
        // what it appends replays cleanly after the prefix.
        let next = prefix.len() as u64 + 1;
        assert_eq!(handle.append(b"after the cut").unwrap(), next);
        drop(handle);
        let replay = wal::replay(&scratch, 0).unwrap();
        assert!(replay.truncated.is_none(), "cut at byte {cut}");
        let mut expected = prefix.to_vec();
        expected.push((next, b"after the cut".to_vec()));
        assert_eq!(records_of(&replay), expected, "cut at byte {cut}");
    }
    // The untruncated log recovers everything.
    let (replay, _) = Wal::recover(&log, 0).unwrap();
    assert_eq!(records_of(&replay), records);
    assert!(replay.truncated.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_every_byte_of_the_final_record_never_panics() {
    let dir = temp_dir("flip");
    let (log, records) = log_with_records(&dir, 3);
    let (last_offset, last_len) = last_frame(&log);
    let prefix = &records[..records.len() - 1];
    let scratch = dir.join("flipped.wal");
    for at in last_offset..last_offset + last_len {
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[at as usize] ^= 0xFF;
        std::fs::write(&scratch, &bytes).unwrap();
        let (replay, _) = Wal::recover(&scratch, 0)
            .unwrap_or_else(|e| panic!("recovery failed with flip at {at}: {e}"));
        // The damaged record is dropped (checksum/framing catches the flip)
        // or — only if the flip somehow still framed and checksummed — every
        // record survives. Records acknowledged before the tail never go.
        let recovered = records_of(&replay);
        assert!(
            recovered == prefix || recovered == records,
            "flip at byte {at} lost an acknowledged-before-the-tail record"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_fsync_is_not_acknowledged_and_not_recovered() {
    let dir = temp_dir("fsync");
    let (log, acknowledged) = log_with_records(&dir, 2);
    let (_, mut handle) = Wal::recover(&log, 0).unwrap();
    handle.inject_sync_failures(1);
    assert!(
        handle.append(b"lost").is_err(),
        "a failed fsync must fail the append"
    );
    // Not acknowledged by the handle...
    assert_eq!(handle.last_seq(), acknowledged.len() as u64);
    drop(handle);
    // ...and not on disk either: reopening sees exactly the acknowledged
    // records and reports no damage.
    let (replay, _) = Wal::recover(&log, 0).unwrap();
    assert_eq!(records_of(&replay), acknowledged);
    assert!(replay.truncated.is_none());
    assert_eq!(replay.duplicates_skipped, 0);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Property: a snapshot reads back as the database it was written from
// ---------------------------------------------------------------------------

fn schema() -> TableSchema {
    TableSchema::of(vec![ColumnDef::int("a"), ColumnDef::text("b")])
}

/// One abstract operation of the generated workload; invalid combinations
/// (inserting into a missing table, re-creating an existing one) are skipped
/// during interpretation, so every mutation applied is valid by construction.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Drop(u8),
    Insert(u8, Vec<i64>),
    Constrain(u8),
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Create),
        (0u8..4).prop_map(Op::Drop),
        (0u8..4, prop::collection::vec(any::<i64>(), 1..6)).prop_map(|(t, r)| Op::Insert(t, r)),
        (0u8..4).prop_map(Op::Constrain),
        Just(Op::Checkpoint),
    ]
}

/// Write `db` as a snapshot stamped `seq` and read it back.
fn snapshot_round_trip(path: &Path, db: &Database, seq: u64) -> (Database, u64) {
    write_snapshot_at(path, db, seq).unwrap();
    read_snapshot(path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reopen_is_row_for_row_identical_to_the_in_memory_database(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let dir = temp_dir("prop");
        let path = dir.join("prop.snap");
        let mut db = Database::new("prop");
        for (seq, op) in ops.into_iter().enumerate() {
            let seq = seq as u64;
            match op {
                Op::Create(t) => {
                    let name = format!("t{t}");
                    if db.table(&name).is_err() {
                        db.create_table(name, schema()).unwrap();
                    }
                }
                Op::Drop(t) => {
                    let name = format!("t{t}");
                    if db.table(&name).is_ok() {
                        db.drop_table(&name).unwrap();
                    }
                }
                Op::Insert(t, values) => {
                    let name = format!("t{t}");
                    if db.table(&name).is_ok() {
                        let rows = values
                            .into_iter()
                            .map(|v| vec![Value::Int(v), Value::text(format!("v{v}"))]);
                        db.insert_all(&name, rows).unwrap();
                    }
                }
                Op::Constrain(t) => {
                    let name = format!("t{t}");
                    if db.table(&name).is_ok() {
                        db.add_constraint(Constraint::NotNull {
                            table: name,
                            column: "a".into(),
                        })
                        .unwrap();
                    }
                }
                Op::Checkpoint => {
                    let (reopened, stamp) = snapshot_round_trip(&path, &db, seq);
                    prop_assert_eq!(stamp, seq);
                    prop_assert_eq!(diff_databases(&db, &reopened), None);
                }
            }
        }
        let (reopened, stamp) = snapshot_round_trip(&path, &db, u64::MAX);
        prop_assert_eq!(stamp, u64::MAX);
        prop_assert_eq!(diff_databases(&db, &reopened), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
