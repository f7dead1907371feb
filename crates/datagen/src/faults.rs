//! Fault injection for rendered source dumps.
//!
//! Real dumps arrive broken: truncated downloads, provider-side format
//! drift, stray bytes from the wrong encoding, accidental double exports.
//! This module corrupts the clean dumps of [`crate::corpus::Corpus`] in
//! exactly those ways, deterministically per seed, so the fault-tolerance
//! machinery of the pipeline (import quarantine, transactional add/rollback,
//! retry-with-backoff) can be exercised against realistic damage:
//!
//! * **Truncated records** — a line is cut mid-way (for XML, the document
//!   loses its tail, leaving tags unclosed).
//! * **Garbage lines** — structure-free noise inserted between records.
//! * **Duplicated records** — a record line emitted twice, producing
//!   duplicate accessions.
//! * **Renamed columns** — tabular header drift (`col` → `col_v2`).
//! * **Invalid UTF-8** — stray `0xFF` bytes, only representable at the byte
//!   level via [`corrupt_bytes`].
//!
//! [`FlakyFetcher`] adds the reader-level faults: scripted transient
//! failures (to exercise retry) and permanently broken files.

use crate::corpus::SourceDump;
use aladin_import::{FetchError, MemoryFetcher, SourceFetcher, SourceFormat};
use aladin_relstore::error::{RelError, RelResult};
use aladin_relstore::wal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;

/// Rates of the text-level corruptions applied by [`corrupt_dump`]. All
/// rates are per eligible line and clamped to `[0, 1]`; a config with every
/// rate zero is the identity.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; corruption is deterministic per (seed, source name).
    pub seed: u64,
    /// Probability an eligible record line is truncated mid-line. For XML
    /// files this instead cuts the document's tail once, unclosing tags.
    pub truncate_rate: f64,
    /// Probability a structure-free garbage line is inserted after a line.
    pub garbage_rate: f64,
    /// Probability a record line is duplicated (duplicate accessions).
    pub duplicate_rate: f64,
    /// Rename every tabular header column by appending `_v2` (format drift).
    pub rename_columns: bool,
    /// Insert one invalid `0xFF` byte per file — only representable in the
    /// byte-level output of [`corrupt_bytes`]; [`corrupt_dump`] ignores it.
    pub invalid_utf8: bool,
}

impl FaultConfig {
    /// The identity configuration: no corruption.
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            truncate_rate: 0.0,
            garbage_rate: 0.0,
            duplicate_rate: 0.0,
            rename_columns: false,
            invalid_utf8: false,
        }
    }

    /// Severe damage: most records touched, headers renamed, stray bytes.
    pub fn severe(seed: u64) -> FaultConfig {
        FaultConfig {
            truncate_rate: 0.4,
            garbage_rate: 0.3,
            duplicate_rate: 0.2,
            rename_columns: true,
            invalid_utf8: true,
            ..FaultConfig::none(seed)
        }
    }

    fn is_inert_text(&self) -> bool {
        self.truncate_rate <= 0.0
            && self.garbage_rate <= 0.0
            && self.duplicate_rate <= 0.0
            && !self.rename_columns
    }
}

/// Stable per-source RNG stream: the same seed corrupts the same dump
/// identically no matter which other dumps are corrupted around it.
fn rng_for(seed: u64, name: &str) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ seed;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// The structure-free noise inserted as garbage: no line code, no tabs, no
/// delimiter, so every parser treats it as malformed.
const GARBAGE: &str = "@@corrupted segment with no recognisable structure@@";

/// Lines that carry a record (and are therefore eligible for truncation and
/// duplication), per format. Header/structure lines are left alone so the
/// damage is data damage, not total file loss.
fn is_record_line(format: SourceFormat, line_no: usize, line: &str) -> bool {
    match format {
        SourceFormat::Tabular => line_no > 0 && !line.trim().is_empty(),
        SourceFormat::Fasta => line.starts_with('>'),
        SourceFormat::FlatFile => {
            let code = line.split_whitespace().next().unwrap_or("");
            !line.trim().is_empty() && code != "//" && code.len() == 2
        }
        SourceFormat::Xml => false, // XML is corrupted document-wise
    }
}

fn corrupt_text(
    format: SourceFormat,
    content: &str,
    config: &FaultConfig,
    rng: &mut StdRng,
) -> String {
    if config.is_inert_text() {
        return content.to_string();
    }
    if format == SourceFormat::Xml {
        // Cut the tail of the document once, leaving tags unclosed.
        if config.truncate_rate > 0.0 && rng.gen_bool(config.truncate_rate.clamp(0.0, 1.0)) {
            let keep = content.len() * 3 / 5;
            let mut cut = keep.min(content.len());
            while !content.is_char_boundary(cut) {
                cut -= 1;
            }
            return content[..cut].to_string();
        }
        return content.to_string();
    }
    let mut out: Vec<String> = Vec::new();
    for (line_no, line) in content.lines().enumerate() {
        let record = is_record_line(format, line_no, line);
        if format == SourceFormat::Tabular && line_no == 0 && config.rename_columns {
            let renamed: Vec<String> = line.split('\t').map(|c| format!("{c}_v2")).collect();
            out.push(renamed.join("\t"));
            continue;
        }
        if record
            && config.truncate_rate > 0.0
            && rng.gen_bool(config.truncate_rate.clamp(0.0, 1.0))
        {
            let mut cut = line.len() / 2;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            out.push(line[..cut].to_string());
            continue;
        }
        out.push(line.to_string());
        if record
            && config.duplicate_rate > 0.0
            && rng.gen_bool(config.duplicate_rate.clamp(0.0, 1.0))
        {
            out.push(line.to_string());
        }
        if config.garbage_rate > 0.0 && rng.gen_bool(config.garbage_rate.clamp(0.0, 1.0)) {
            out.push(GARBAGE.to_string());
        }
    }
    let mut text = out.join("\n");
    if content.ends_with('\n') {
        text.push('\n');
    }
    text
}

/// Corrupt one rendered dump (text-level faults only; `invalid_utf8` needs
/// [`corrupt_bytes`]). Deterministic per `(config.seed, dump.name)`.
pub fn corrupt_dump(dump: &SourceDump, config: &FaultConfig) -> SourceDump {
    let mut rng = rng_for(config.seed, &dump.name);
    SourceDump {
        name: dump.name.clone(),
        format: dump.format,
        files: dump
            .files
            .iter()
            .map(|(n, c)| (n.clone(), corrupt_text(dump.format, c, config, &mut rng)))
            .collect(),
    }
}

/// Corrupt the named sources of a dump list, leaving the rest untouched.
pub fn corrupt_sources(
    dumps: &[SourceDump],
    targets: &[&str],
    config: &FaultConfig,
) -> Vec<SourceDump> {
    dumps
        .iter()
        .map(|d| {
            if targets.contains(&d.name.as_str()) {
                corrupt_dump(d, config)
            } else {
                d.clone()
            }
        })
        .collect()
}

/// Corrupt one dump down to raw bytes, additionally injecting an invalid
/// `0xFF` byte near the middle of every file when `config.invalid_utf8` is
/// set. The result feeds a [`MemoryFetcher`] for byte-level import paths.
pub fn corrupt_bytes(dump: &SourceDump, config: &FaultConfig) -> Vec<(String, Vec<u8>)> {
    corrupt_dump(dump, config)
        .files
        .into_iter()
        .map(|(n, c)| {
            let mut bytes = c.into_bytes();
            if config.invalid_utf8 && !bytes.is_empty() {
                bytes.insert(bytes.len() / 2, 0xFF);
            }
            (n, bytes)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Disk faults: write-ahead-log corruption
// ---------------------------------------------------------------------------
//
// The text-level injectors above damage *dumps before import*; these damage
// the *durable store after commit* — an on-disk write-ahead log of
// `aladin_relstore::wal`, such as the warehouse's `pipeline.wal` — in the
// ways real disks and crashes do: torn final records (power loss
// mid-append), flipped bits (media rot), duplicated and reordered records
// (misdirected writes, replayed journals), and fsyncs that report failure
// (dying devices; injected via
// `aladin_relstore::wal::Wal::inject_sync_failures`).
// Recovery must survive every one of them losing at most the corrupted
// tail; `tests/durability.rs` drives them against `Aladin::open`.

fn disk_fault_err(context: &str, e: std::io::Error) -> RelError {
    RelError::Durability(format!("{context}: {e}"))
}

/// The frame spans of a WAL file, failing if the log has no records to
/// damage (an injector on an empty log would silently test nothing).
fn spans_of(path: &Path) -> RelResult<Vec<(u64, u64)>> {
    let spans = wal::frame_spans(path)?;
    if spans.is_empty() {
        return Err(RelError::Durability(format!(
            "no WAL records to corrupt in {}",
            path.display()
        )));
    }
    Ok(spans)
}

/// Truncate the WAL mid-way through its final record (a torn append),
/// keeping the record's header but cutting its payload roughly in half.
/// Returns the new file length.
pub fn truncate_wal_mid_record(path: &Path) -> RelResult<u64> {
    let spans = spans_of(path)?;
    let (offset, len) = spans[spans.len() - 1];
    let cut = offset + len / 2;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| disk_fault_err("opening WAL for truncation", e))?;
    file.set_len(cut)
        .map_err(|e| disk_fault_err("truncating WAL", e))?;
    Ok(cut)
}

/// Flip every bit of one byte at `offset` (media corruption). The offset is
/// absolute within the file; pair with [`aladin_relstore::wal::frame_spans`]
/// to target specific records.
pub fn flip_wal_byte(path: &Path, offset: u64) -> RelResult<()> {
    let mut bytes = std::fs::read(path).map_err(|e| disk_fault_err("reading WAL", e))?;
    let idx = usize::try_from(offset)
        .ok()
        .filter(|&i| i < bytes.len())
        .ok_or_else(|| {
            RelError::Durability(format!(
                "offset {offset} beyond WAL of {} bytes",
                bytes.len()
            ))
        })?;
    bytes[idx] ^= 0xFF;
    std::fs::write(path, &bytes).map_err(|e| disk_fault_err("rewriting WAL", e))
}

/// Append a byte-exact copy of the final WAL record (a replayed journal
/// write). Replay must skip the duplicate, not apply the batch twice.
pub fn duplicate_last_wal_record(path: &Path) -> RelResult<()> {
    let spans = spans_of(path)?;
    let (offset, len) = spans[spans.len() - 1];
    let bytes = std::fs::read(path).map_err(|e| disk_fault_err("reading WAL", e))?;
    let (start, end) = (offset as usize, (offset + len) as usize);
    let mut out = bytes.clone();
    out.extend_from_slice(&bytes[start..end]);
    std::fs::write(path, &out).map_err(|e| disk_fault_err("rewriting WAL", e))
}

/// Swap the last two WAL records on disk (misdirected / reordered writes).
/// Replay must stop at the out-of-order record instead of applying batches
/// out of commit order; the log needs at least two records.
pub fn swap_last_two_wal_records(path: &Path) -> RelResult<()> {
    let spans = spans_of(path)?;
    if spans.len() < 2 {
        return Err(RelError::Durability(
            "need at least two WAL records to reorder".into(),
        ));
    }
    let (off_a, len_a) = spans[spans.len() - 2];
    let (off_b, len_b) = spans[spans.len() - 1];
    let bytes = std::fs::read(path).map_err(|e| disk_fault_err("reading WAL", e))?;
    let mut out = bytes[..off_a as usize].to_vec();
    out.extend_from_slice(&bytes[off_b as usize..(off_b + len_b) as usize]);
    out.extend_from_slice(&bytes[off_a as usize..(off_a + len_a) as usize]);
    std::fs::write(path, &out).map_err(|e| disk_fault_err("rewriting WAL", e))
}

/// A scripted [`SourceFetcher`] for reader-level faults: each file fails
/// transiently a configured number of times before succeeding, and files
/// listed as broken always fail permanently — the raw material for retry and
/// rollback tests.
#[derive(Debug, Clone, Default)]
pub struct FlakyFetcher {
    inner: MemoryFetcher,
    /// Transient failures served before each file's first success.
    pub transient_failures: usize,
    /// Files that always fail permanently.
    pub broken_files: Vec<String>,
    attempts: HashMap<String, usize>,
}

impl FlakyFetcher {
    /// Wrap the text files of a dump.
    pub fn over(dump: &SourceDump) -> FlakyFetcher {
        FlakyFetcher {
            inner: MemoryFetcher::from_text(&dump.files),
            ..FlakyFetcher::default()
        }
    }

    /// Fail every file transiently `n` times before serving it.
    pub fn with_transient_failures(mut self, n: usize) -> FlakyFetcher {
        self.transient_failures = n;
        self
    }

    /// Mark a file as permanently broken.
    pub fn with_broken_file(mut self, file: &str) -> FlakyFetcher {
        self.broken_files.push(file.to_string());
        self
    }

    /// Total fetch attempts observed (all files).
    pub fn attempts(&self) -> usize {
        self.attempts.values().sum()
    }
}

impl SourceFetcher for FlakyFetcher {
    fn file_names(&self) -> Vec<String> {
        self.inner.file_names()
    }

    fn fetch(&mut self, file: &str) -> Result<Vec<u8>, FetchError> {
        let attempt = self.attempts.entry(file.to_string()).or_insert(0);
        *attempt += 1;
        if self.broken_files.iter().any(|f| f == file) {
            return Err(FetchError::Permanent(format!("injected: {file} is gone")));
        }
        if *attempt <= self.transient_failures {
            return Err(FetchError::Transient(format!(
                "injected transient failure {attempt} for {file}"
            )));
        }
        self.inner.fetch(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};

    fn dump() -> SourceDump {
        SourceDump {
            name: "t".to_string(),
            format: SourceFormat::Tabular,
            files: vec![(
                "rows.tsv".to_string(),
                "id\tname\nA1\talpha\nA2\tbeta\nA3\tgamma\n".to_string(),
            )],
        }
    }

    #[test]
    fn corruption_is_deterministic_and_identity_at_zero_rates() {
        let d = dump();
        let none = corrupt_dump(&d, &FaultConfig::none(1));
        assert_eq!(none.files, d.files);
        let a = corrupt_dump(&d, &FaultConfig::severe(7));
        let b = corrupt_dump(&d, &FaultConfig::severe(7));
        assert_eq!(a.files, b.files);
        let c = corrupt_dump(&d, &FaultConfig::severe(8));
        assert_ne!(a.files, c.files, "different seeds should differ");
    }

    #[test]
    fn rename_columns_rewrites_the_tabular_header_only() {
        let config = FaultConfig {
            rename_columns: true,
            ..FaultConfig::none(1)
        };
        let out = corrupt_dump(&dump(), &config);
        let content = &out.files[0].1;
        assert!(content.starts_with("id_v2\tname_v2\n"));
        assert!(content.contains("A1\talpha"));
    }

    #[test]
    fn garbage_and_duplicates_appear_at_full_rate() {
        let config = FaultConfig {
            garbage_rate: 1.0,
            duplicate_rate: 1.0,
            ..FaultConfig::none(1)
        };
        let out = corrupt_dump(&dump(), &config);
        let content = &out.files[0].1;
        assert!(content.contains(GARBAGE));
        assert_eq!(content.matches("A1\talpha").count(), 2);
    }

    #[test]
    fn xml_truncation_leaves_tags_unclosed() {
        let corpus = Corpus::generate(&CorpusConfig::small(3));
        let xml = corpus
            .sources
            .iter()
            .find(|s| s.format == SourceFormat::Xml)
            .expect("corpus has an XML source");
        let config = FaultConfig {
            truncate_rate: 1.0,
            ..FaultConfig::none(1)
        };
        let out = corrupt_dump(xml, &config);
        for ((_, before), (_, after)) in xml.files.iter().zip(&out.files) {
            assert!(after.len() < before.len());
        }
    }

    #[test]
    fn corrupt_bytes_injects_invalid_utf8() {
        let config = FaultConfig {
            invalid_utf8: true,
            ..FaultConfig::none(1)
        };
        let files = corrupt_bytes(&dump(), &config);
        assert!(String::from_utf8(files[0].1.clone()).is_err());
    }

    #[test]
    fn corrupt_sources_touches_only_targets() {
        let corpus = Corpus::generate(&CorpusConfig::small(4));
        let out = corrupt_sources(&corpus.sources, &["protkb"], &FaultConfig::severe(2));
        for (orig, got) in corpus.sources.iter().zip(&out) {
            if orig.name == "protkb" {
                assert_ne!(orig.files, got.files);
            } else {
                assert_eq!(orig.files, got.files);
            }
        }
    }

    #[test]
    fn flaky_fetcher_scripts_transient_permanent_and_counts() {
        let mut f = FlakyFetcher::over(&dump()).with_transient_failures(2);
        assert!(matches!(f.fetch("rows.tsv"), Err(FetchError::Transient(_))));
        assert!(matches!(f.fetch("rows.tsv"), Err(FetchError::Transient(_))));
        assert!(f.fetch("rows.tsv").is_ok());
        assert_eq!(f.attempts(), 3);

        let mut f = FlakyFetcher::over(&dump()).with_broken_file("rows.tsv");
        assert!(matches!(f.fetch("rows.tsv"), Err(FetchError::Permanent(_))));
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "aladin-datagen-faults-{tag}-{}-{n}.wal",
            std::process::id()
        ))
    }

    fn sample_wal(tag: &str, records: usize) -> std::path::PathBuf {
        let path = temp_wal(tag);
        let mut w = wal::Wal::create(&path, 0).unwrap();
        for i in 0..records {
            w.append(format!("batch-{i}").as_bytes()).unwrap();
        }
        path
    }

    #[test]
    fn wal_injectors_damage_the_log_in_recognizable_ways() {
        // Torn tail: the final record's payload is cut; replay keeps the
        // earlier records and reports the truncation.
        let path = sample_wal("torn", 3);
        truncate_wal_mid_record(&path).unwrap();
        let replay = wal::replay(&path, 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.truncated.is_some());

        // Bit flip inside the last record: CRC catches it.
        let path = sample_wal("flip", 3);
        let spans = wal::frame_spans(&path).unwrap();
        let (off, len) = spans[2];
        flip_wal_byte(&path, off + len - 1).unwrap();
        let replay = wal::replay(&path, 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.truncated.is_some());

        // Duplicate: skipped silently, nothing applied twice.
        let path = sample_wal("dup", 3);
        duplicate_last_wal_record(&path).unwrap();
        let replay = wal::replay(&path, 0).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.duplicates_skipped, 1);
        assert!(replay.truncated.is_none());

        // Reorder: replay stops at the first out-of-order record (seq 3
        // where 2 was expected), so only the intact prefix survives.
        let path = sample_wal("swap", 3);
        swap_last_two_wal_records(&path).unwrap();
        let replay = wal::replay(&path, 0).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.truncated.is_some());
    }

    #[test]
    fn wal_injectors_refuse_logs_with_nothing_to_damage() {
        let path = temp_wal("empty");
        let _ = wal::Wal::create(&path, 0).unwrap();
        assert!(truncate_wal_mid_record(&path).is_err());
        assert!(duplicate_last_wal_record(&path).is_err());
        assert!(swap_last_two_wal_records(&path).is_err());

        let path = sample_wal("one", 1);
        assert!(swap_last_two_wal_records(&path).is_err());
    }
}
