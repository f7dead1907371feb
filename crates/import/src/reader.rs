//! The source-reading layer: byte-level file fetching with bounded
//! retry-with-backoff, in front of the format parsers.
//!
//! The paper's sources are downloaded dumps; in this reproduction they are
//! provided by a [`SourceFetcher`] — in-memory for tests and the synthetic
//! corpus, but the trait is the seam where FTP/HTTP readers would plug in.
//! Fetching is where *transient* faults live (connection resets, short
//! reads), so [`fetch_with_retry`] retries a bounded number of times — by
//! default with exponential backoff capped at a max delay, or linear via
//! [`RetryPolicy::linear`] — before giving up with [`ImportError::Io`].
//! Permanent failures (file missing, access denied) are never retried.
//!
//! Fetched bytes are decoded to UTF-8 here as well: in strict mode a stray
//! byte fails the file, in tolerant mode the offending sequences are replaced
//! and recorded in the [`Quarantine`] report.

use crate::importer::{ImportError, ImportResult};
use crate::quarantine::Quarantine;
use std::fmt;
use std::time::Duration;

/// A fetch failure, classified by whether retrying can help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// A transient fault (reset connection, short read, busy mirror):
    /// retrying may succeed.
    Transient(String),
    /// A permanent fault (missing file, access denied): retrying is useless.
    Permanent(String),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Transient(m) => write!(f, "transient fetch error: {m}"),
            FetchError::Permanent(m) => write!(f, "permanent fetch error: {m}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Something that can produce the raw bytes of a source's files.
pub trait SourceFetcher {
    /// The file names this fetcher can serve, in import order.
    fn file_names(&self) -> Vec<String>;

    /// Fetch the raw bytes of one file. May fail transiently.
    fn fetch(&mut self, file: &str) -> Result<Vec<u8>, FetchError>;
}

/// An in-memory fetcher over `(file name, bytes)` pairs — the degenerate
/// always-succeeding reader used for pre-rendered dumps.
#[derive(Debug, Clone, Default)]
pub struct MemoryFetcher {
    files: Vec<(String, Vec<u8>)>,
}

impl MemoryFetcher {
    /// Build from raw byte files.
    pub fn new(files: Vec<(String, Vec<u8>)>) -> MemoryFetcher {
        MemoryFetcher { files }
    }

    /// Build from text files.
    pub fn from_text(files: &[(String, String)]) -> MemoryFetcher {
        MemoryFetcher {
            files: files
                .iter()
                .map(|(n, c)| (n.clone(), c.as_bytes().to_vec()))
                .collect(),
        }
    }
}

impl SourceFetcher for MemoryFetcher {
    fn file_names(&self) -> Vec<String> {
        self.files.iter().map(|(n, _)| n.clone()).collect()
    }

    fn fetch(&mut self, file: &str) -> Result<Vec<u8>, FetchError> {
        self.files
            .iter()
            .find(|(n, _)| n == file)
            .map(|(_, b)| b.clone())
            .ok_or_else(|| FetchError::Permanent(format!("no such file: {file}")))
    }
}

/// Backoff growth curve of a [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backoff {
    /// Delay before retry `n` is `base_backoff * n`.
    Linear,
    /// Delay before retry `n` is `base_backoff * 2^(n-1)`, capped at the
    /// policy's `max_backoff`. No jitter: fetches are single-threaded per
    /// source, so deterministic delays keep tests and benches reproducible.
    Exponential,
}

/// Bounded retry policy for transient fetch failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per file (1 = no retries).
    pub max_attempts: usize,
    /// Base delay the growth curve scales from.
    pub base_backoff: Duration,
    /// Upper bound on any single delay (relevant for [`Backoff::Exponential`]).
    pub max_backoff: Duration,
    /// Growth curve.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::exponential(3, Duration::from_millis(10), Duration::from_secs(1))
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            backoff: Backoff::Linear,
        }
    }

    /// Linear backoff: `base * n` before retry `n` (the original policy).
    pub fn linear(max_attempts: usize, base_backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff,
            max_backoff: Duration::MAX,
            backoff: Backoff::Linear,
        }
    }

    /// Exponential backoff: `base * 2^(n-1)` before retry `n`, never more
    /// than `max_backoff`.
    pub fn exponential(
        max_attempts: usize,
        base_backoff: Duration,
        max_backoff: Duration,
    ) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff,
            max_backoff,
            backoff: Backoff::Exponential,
        }
    }

    /// The delay slept before retry attempt `n` (1-based: `delay_before(1)`
    /// precedes the first *retry*, i.e. the second attempt). Overflow
    /// saturates into the cap instead of wrapping.
    fn delay_before(&self, attempt: usize) -> Duration {
        let attempt = attempt.max(1) as u32;
        match self.backoff {
            Backoff::Linear => self
                .base_backoff
                .checked_mul(attempt)
                .unwrap_or(Duration::MAX)
                .min(self.max_backoff),
            Backoff::Exponential => {
                let factor = if attempt >= 64 {
                    u32::MAX
                } else {
                    1u64.checked_shl(attempt - 1)
                        .map(|f| u32::try_from(f).unwrap_or(u32::MAX))
                        .unwrap_or(u32::MAX)
                };
                self.base_backoff
                    .checked_mul(factor)
                    .unwrap_or(Duration::MAX)
                    .min(self.max_backoff)
            }
        }
    }
}

/// Fetch one file, retrying transient failures up to the policy's bound with
/// linear backoff. Permanent failures and exhausted budgets become
/// [`ImportError::Io`].
pub fn fetch_with_retry(
    fetcher: &mut dyn SourceFetcher,
    file: &str,
    policy: &RetryPolicy,
) -> ImportResult<Vec<u8>> {
    let attempts = policy.max_attempts.max(1);
    let mut last_error = String::new();
    for attempt in 1..=attempts {
        match fetcher.fetch(file) {
            Ok(bytes) => return Ok(bytes),
            Err(FetchError::Permanent(m)) => {
                return Err(ImportError::Io {
                    file: file.to_string(),
                    attempts: attempt,
                    reason: m,
                })
            }
            Err(FetchError::Transient(m)) => {
                last_error = m;
                if attempt < attempts && !policy.base_backoff.is_zero() {
                    std::thread::sleep(policy.delay_before(attempt));
                }
            }
        }
    }
    Err(ImportError::Io {
        file: file.to_string(),
        attempts,
        reason: last_error,
    })
}

/// Decode fetched bytes to text. Invalid UTF-8 fails the file in strict mode
/// (budget zero); in tolerant mode the offending sequences are replaced with
/// U+FFFD and one quarantine record per file notes how many bytes were lost.
pub fn decode_text(
    file: &str,
    bytes: Vec<u8>,
    quarantine: &mut Quarantine,
) -> ImportResult<String> {
    match String::from_utf8(bytes) {
        Ok(text) => Ok(text),
        Err(err) => {
            let bytes = err.into_bytes();
            let decoded = String::from_utf8_lossy(&bytes);
            let replaced = decoded.matches(char::REPLACEMENT_CHARACTER).count();
            quarantine.record(
                file,
                0,
                format!("invalid UTF-8: {replaced} byte sequence(s) replaced"),
                &decoded,
            )?;
            Ok(decoded.into_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fetcher scripted to fail a given number of times per file before
    /// succeeding (or to fail permanently).
    struct Scripted {
        inner: MemoryFetcher,
        transient_failures: usize,
        attempts: usize,
        permanent: bool,
    }

    impl SourceFetcher for Scripted {
        fn file_names(&self) -> Vec<String> {
            self.inner.file_names()
        }

        fn fetch(&mut self, file: &str) -> Result<Vec<u8>, FetchError> {
            self.attempts += 1;
            if self.permanent {
                return Err(FetchError::Permanent("gone".into()));
            }
            if self.attempts <= self.transient_failures {
                return Err(FetchError::Transient("connection reset".into()));
            }
            self.inner.fetch(file)
        }
    }

    fn scripted(failures: usize, permanent: bool) -> Scripted {
        Scripted {
            inner: MemoryFetcher::from_text(&[("f.csv".to_string(), "a,b\n1,2\n".to_string())]),
            transient_failures: failures,
            attempts: 0,
            permanent,
        }
    }

    fn quick() -> RetryPolicy {
        RetryPolicy::linear(3, Duration::ZERO)
    }

    #[test]
    fn transient_failures_within_budget_are_retried() {
        let mut f = scripted(2, false);
        let bytes = fetch_with_retry(&mut f, "f.csv", &quick()).unwrap();
        assert_eq!(f.attempts, 3);
        assert_eq!(bytes, b"a,b\n1,2\n");
    }

    #[test]
    fn transient_failures_beyond_budget_become_io_errors() {
        let mut f = scripted(5, false);
        let err = fetch_with_retry(&mut f, "f.csv", &quick()).unwrap_err();
        match err {
            ImportError::Io {
                file,
                attempts,
                reason,
            } => {
                assert_eq!(file, "f.csv");
                assert_eq!(attempts, 3);
                assert!(reason.contains("connection reset"));
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let mut f = scripted(0, true);
        let err = fetch_with_retry(&mut f, "f.csv", &quick()).unwrap_err();
        assert_eq!(f.attempts, 1);
        assert!(matches!(err, ImportError::Io { attempts: 1, .. }));
    }

    #[test]
    fn exponential_backoff_doubles_then_caps() {
        let p = RetryPolicy::exponential(8, Duration::from_millis(10), Duration::from_millis(50));
        assert_eq!(p.delay_before(1), Duration::from_millis(10));
        assert_eq!(p.delay_before(2), Duration::from_millis(20));
        assert_eq!(p.delay_before(3), Duration::from_millis(40));
        // The cap flattens the curve from here on, even at absurd depths.
        assert_eq!(p.delay_before(4), Duration::from_millis(50));
        assert_eq!(p.delay_before(100), Duration::from_millis(50));
    }

    #[test]
    fn linear_backoff_grows_by_base_each_attempt() {
        let p = RetryPolicy::linear(5, Duration::from_millis(10));
        assert_eq!(p.delay_before(1), Duration::from_millis(10));
        assert_eq!(p.delay_before(3), Duration::from_millis(30));
    }

    #[test]
    fn default_policy_is_capped_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff, Backoff::Exponential);
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.max_backoff, Duration::from_secs(1));
    }

    #[test]
    fn memory_fetcher_serves_and_rejects() {
        let mut f = MemoryFetcher::from_text(&[("x".to_string(), "hi".to_string())]);
        assert_eq!(f.file_names(), vec!["x"]);
        assert_eq!(f.fetch("x").unwrap(), b"hi");
        assert!(matches!(f.fetch("y"), Err(FetchError::Permanent(_))));
    }

    #[test]
    fn decode_text_strict_rejects_invalid_utf8() {
        let mut q = Quarantine::strict();
        let err = decode_text("f", vec![b'a', 0xFF, b'b'], &mut q).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"));
    }

    #[test]
    fn decode_text_tolerant_replaces_and_quarantines() {
        let mut q = Quarantine::with_budget(4);
        let text = decode_text("f", vec![b'a', 0xFF, b'b'], &mut q).unwrap();
        assert_eq!(text, format!("a{}b", char::REPLACEMENT_CHARACTER));
        assert_eq!(q.len(), 1);
        assert!(q.records()[0].reason.contains("invalid UTF-8"));
    }

    #[test]
    fn clean_bytes_decode_without_quarantine() {
        let mut q = Quarantine::strict();
        assert_eq!(decode_text("f", b"ok".to_vec(), &mut q).unwrap(), "ok");
        assert!(q.is_empty());
    }
}
