//! The memo table of finished cells and its `cells.json` snapshot.

use super::lock_recovering;
use crate::error::CacheIoError;
use crate::experiments::common::Cell;
use rampage_json::{obj, Json, ToJson};
use rampage_trace::corpus::fnv1a;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version stamp for the persisted cache format; bump when [`Cell`],
/// the fingerprint scheme, or the on-disk envelope changes shape.
/// Version 2 added the per-cell `sum` checksum.
pub const CACHE_FORMAT_VERSION: u64 = 2;

/// What [`CellCache::load_file`] found in a `cells.json` snapshot.
///
/// Reading never fails the caller and never touches the file: a missing
/// file is an empty load, and a damaged one yields as many good cells as
/// it holds plus one typed error per problem.
#[derive(Debug, Default)]
pub struct CacheLoad {
    /// Cells loaded into the cache.
    pub loaded: usize,
    /// One typed error per entry skipped: [`CacheIoError::BadChecksum`]
    /// for bit rot, [`CacheIoError::BadHeader`] for a malformed entry,
    /// [`CacheIoError::Parse`] for an undecodable cell body.
    pub entry_errors: Vec<CacheIoError>,
    /// The whole-file error, when the file or its envelope was unusable.
    pub error: Option<CacheIoError>,
}

impl CacheLoad {
    /// Whether the load was entirely clean (including a missing file).
    pub fn is_clean(&self) -> bool {
        self.entry_errors.is_empty() && self.error.is_none()
    }

    /// Entries skipped for a bad checksum or undecodable body.
    pub fn skipped(&self) -> usize {
        self.entry_errors.len()
    }

    /// One-line human summary of the load.
    pub fn describe(&self) -> String {
        let mut s = format!("loaded {} cached cell(s)", self.loaded);
        if let Some(first) = self.entry_errors.first() {
            s.push_str(&format!(
                ", skipped {} corrupt (first: {first})",
                self.entry_errors.len()
            ));
        }
        if let Some(e) = &self.error {
            s.push_str(&format!("; snapshot unusable ({e})"));
        }
        s
    }
}

/// A memo table of finished cells, keyed by [`Job::fingerprint`].
///
/// Thread-safe: workers insert concurrently while batch assembly reads.
/// `hits` counts every lookup served without simulation (including
/// duplicates deduplicated within one batch); `computed` counts cells
/// actually simulated.
///
/// Keyed by a `BTreeMap` so every walk over the cache (serialization,
/// reporting) is fingerprint-ordered by construction — the hash
/// iteration that the root `clippy.toml` denies in library code is
/// exactly this class of ordering leak.
///
/// [`Job::fingerprint`]: super::Job::fingerprint
#[derive(Debug, Default)]
pub struct CellCache {
    map: Mutex<BTreeMap<u64, Cell>>,
    pub(super) hits: AtomicU64,
    computed: AtomicU64,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> Self {
        CellCache::default()
    }

    /// Look up a fingerprint, counting a hit when found.
    pub fn get(&self, fp: u64) -> Option<Cell> {
        let found = lock_recovering(&self.map).get(&fp).copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Record a freshly computed cell.
    pub fn insert(&self, fp: u64, cell: Cell) {
        self.computed.fetch_add(1, Ordering::Relaxed);
        lock_recovering(&self.map).insert(fp, cell);
    }

    /// Seed a cell without counting it as computed (journal resume or a
    /// snapshot read).
    pub(super) fn seed(&self, fp: u64, cell: Cell) {
        lock_recovering(&self.map).insert(fp, cell);
    }

    /// Lookups served from memory instead of simulation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells actually simulated through this cache.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Distinct cells held.
    pub fn len(&self) -> usize {
        lock_recovering(&self.map).len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize every entry (fingerprint-ordered — the map itself is
    /// ordered, so serialization is deterministic by construction).
    /// Each entry carries an FNV-1a checksum of its compact cell body,
    /// so single-entry bit rot is detected at load time.
    pub fn to_json(&self) -> Json {
        let map = lock_recovering(&self.map);
        let entries: Vec<(u64, Cell)> = map.iter().map(|(&fp, &c)| (fp, c)).collect();
        drop(map);
        obj! {
            "version" => CACHE_FORMAT_VERSION,
            "cells" => entries
                .iter()
                .map(|(fp, cell)| {
                    let body = cell.to_json();
                    let sum = fnv1a(body.compact().as_bytes());
                    obj! { "fp" => *fp, "sum" => sum, "cell" => body }
                })
                .collect::<Vec<Json>>(),
        }
    }

    /// Load entries from a serialized cache document.
    ///
    /// Returns `(loaded, entry_errors)`: entries whose checksum or shape
    /// is wrong are skipped individually — each with a typed
    /// [`CacheIoError`] saying why — so one rotten entry does not
    /// discard its neighbours.
    ///
    /// # Errors
    ///
    /// [`CacheIoError::BadHeader`] when the envelope is not this format;
    /// [`CacheIoError::VersionMismatch`] for any other version (stale
    /// fingerprints must not serve wrong cells).
    pub fn load_json(&self, doc: &Json) -> Result<(usize, Vec<CacheIoError>), CacheIoError> {
        let Some(version) = doc.get("version").and_then(Json::as_u64) else {
            return Err(CacheIoError::BadHeader("missing or non-integer version"));
        };
        if version != CACHE_FORMAT_VERSION {
            return Err(CacheIoError::VersionMismatch {
                found: version,
                expected: CACHE_FORMAT_VERSION,
            });
        }
        let Some(cells) = doc.get("cells").and_then(Json::as_array) else {
            return Err(CacheIoError::BadHeader("missing cells array"));
        };
        let mut loaded = 0;
        let mut entry_errors = Vec::new();
        for entry in cells {
            let (Some(fp), Some(sum), Some(body)) = (
                entry.get("fp").and_then(Json::as_u64),
                entry.get("sum").and_then(Json::as_u64),
                entry.get("cell"),
            ) else {
                entry_errors.push(CacheIoError::BadHeader("entry missing fp/sum/cell"));
                continue;
            };
            if fnv1a(body.compact().as_bytes()) != sum {
                entry_errors.push(CacheIoError::BadChecksum { fp });
                continue;
            }
            let Some(cell) = Cell::from_json(body) else {
                entry_errors.push(CacheIoError::Parse(format!(
                    "cell {fp:#018x} body undecodable"
                )));
                continue;
            };
            self.seed(fp, cell);
            loaded += 1;
        }
        Ok((loaded, entry_errors))
    }

    /// Write the cache to `path` as a JSON snapshot through
    /// [`Json::write_atomic`], so a crash or a concurrent saver sharing
    /// one `--out` leaves either the old snapshot or a whole new one.
    ///
    /// # Errors
    ///
    /// Any underlying file I/O failure, as [`CacheIoError::Io`].
    pub fn save_file(&self, path: &Path) -> Result<(), CacheIoError> {
        self.to_json().write_atomic(path).map_err(CacheIoError::Io)
    }

    /// Read a snapshot written by [`save_file`](Self::save_file) into
    /// this cache. Never fails the caller and never modifies the file: a
    /// missing file loads nothing; an unreadable, unparsable, or
    /// version-mismatched file is a whole-file error; rotten entries are
    /// skipped one by one while their neighbours load. The
    /// [`CacheLoad`] report says exactly what happened.
    pub fn load_file(&self, path: &Path) -> CacheLoad {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLoad::default(),
            Err(e) => {
                return CacheLoad {
                    error: Some(CacheIoError::Io(e)),
                    ..CacheLoad::default()
                }
            }
        };
        let parsed = Json::parse(&text).map_err(|e| CacheIoError::Parse(e.to_string()));
        match parsed.and_then(|doc| self.load_json(&doc)) {
            Ok((loaded, entry_errors)) => CacheLoad {
                loaded,
                entry_errors,
                error: None,
            },
            Err(e) => CacheLoad {
                error: Some(e),
                ..CacheLoad::default()
            },
        }
    }
}
