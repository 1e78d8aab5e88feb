//! `manifest.json`: the corpus directory's table of contents.

use super::{CorpusError, CORPUS_FORMAT_VERSION, MANIFEST_NAME};
use rampage_json::{obj, Json, ToJson};
use std::path::Path;

/// Reference-mix counters for one shard — the Table-2-style profile
/// statistics the manifest carries so replay fidelity can be checked
/// without re-reading the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Instruction fetches recorded.
    pub ifetches: u64,
    /// Data loads recorded.
    pub reads: u64,
    /// Data stores recorded.
    pub writes: u64,
    /// Distinct 4 KiB pages touched.
    pub unique_pages: u64,
}

impl ShardStats {
    /// Total records.
    pub fn total(&self) -> u64 {
        self.ifetches + self.reads + self.writes
    }

    /// Instruction fetches as a fraction of all records.
    pub fn ifetch_frac(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.ifetches as f64 / self.total() as f64
    }

    /// Stores as a fraction of data references.
    pub fn write_frac(&self) -> f64 {
        let data = self.reads + self.writes;
        if data == 0 {
            return 0.0;
        }
        self.writes as f64 / data as f64
    }

    fn from_json(doc: &Json) -> Option<ShardStats> {
        Some(ShardStats {
            ifetches: doc.get("ifetches")?.as_u64()?,
            reads: doc.get("reads")?.as_u64()?,
            writes: doc.get("writes")?.as_u64()?,
            unique_pages: doc.get("unique_pages")?.as_u64()?,
        })
    }
}

impl ToJson for ShardStats {
    fn to_json(&self) -> Json {
        obj! {
            "ifetches" => self.ifetches,
            "reads" => self.reads,
            "writes" => self.writes,
            "unique_pages" => self.unique_pages,
        }
    }
}

/// The Table 2 profile parameters a shard was generated from, kept so
/// the verifier can measure drift between what the generator was asked
/// for and what landed on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileExpect {
    /// Profile name (a Table 2 program).
    pub name: String,
    /// Expected instruction-fetch fraction.
    pub ifetch_frac: f64,
    /// Expected store fraction of data references.
    pub write_frac: f64,
}

impl ProfileExpect {
    /// The largest absolute drift between these expectations and the
    /// observed `stats`.
    pub fn drift(&self, stats: &ShardStats) -> f64 {
        let di = (stats.ifetch_frac() - self.ifetch_frac).abs();
        let dw = (stats.write_frac() - self.write_frac).abs();
        di.max(dw)
    }

    fn from_json(doc: &Json) -> Option<ProfileExpect> {
        Some(ProfileExpect {
            name: doc.get("name")?.as_str()?.to_string(),
            ifetch_frac: doc.get("ifetch_frac")?.as_f64()?,
            write_frac: doc.get("write_frac")?.as_f64()?,
        })
    }
}

impl ToJson for ProfileExpect {
    fn to_json(&self) -> Json {
        obj! {
            "name" => self.name.as_str(),
            "ifetch_frac" => self.ifetch_frac,
            "write_frac" => self.write_frac,
        }
    }
}

/// One shard's manifest entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMeta {
    /// Trace name (usually the Table 2 program).
    pub name: String,
    /// Shard file name, relative to the corpus directory.
    pub file: String,
    /// Records in the shard.
    pub records: u64,
    /// Blocks in the shard.
    pub blocks: u64,
    /// Total shard file size in bytes.
    pub bytes: u64,
    /// FNV-1a checksum over the entire shard file.
    pub checksum: u64,
    /// Generator seed, when recorded from a synthetic profile.
    pub seed: Option<u64>,
    /// Trace-volume divisor, when recorded from a synthetic profile.
    pub scale: Option<u64>,
    /// Observed reference mix and footprint.
    pub stats: ShardStats,
    /// Generating profile parameters, when known.
    pub profile: Option<ProfileExpect>,
}

impl ShardMeta {
    fn from_json(doc: &Json) -> Option<ShardMeta> {
        Some(ShardMeta {
            name: doc.get("name")?.as_str()?.to_string(),
            file: doc.get("file")?.as_str()?.to_string(),
            records: doc.get("records")?.as_u64()?,
            blocks: doc.get("blocks")?.as_u64()?,
            bytes: doc.get("bytes")?.as_u64()?,
            checksum: doc.get("checksum")?.as_u64()?,
            seed: doc.get("seed").and_then(Json::as_u64),
            scale: doc.get("scale").and_then(Json::as_u64),
            stats: ShardStats::from_json(doc.get("stats")?)?,
            profile: match doc.get("profile") {
                Some(Json::Null) | None => None,
                Some(p) => Some(ProfileExpect::from_json(p)?),
            },
        })
    }
}

impl ToJson for ShardMeta {
    fn to_json(&self) -> Json {
        obj! {
            "name" => self.name.as_str(),
            "file" => self.file.as_str(),
            "records" => self.records,
            "blocks" => self.blocks,
            "bytes" => self.bytes,
            "checksum" => self.checksum,
            "seed" => self.seed,
            "scale" => self.scale,
            "stats" => self.stats,
            "profile" => match &self.profile {
                Some(p) => p.to_json(),
                None => Json::Null,
            },
        }
    }
}

/// The corpus directory's table of contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Shards, in recording order.
    pub shards: Vec<ShardMeta>,
}

impl Manifest {
    /// Find a shard by trace name.
    pub fn find(&self, name: &str) -> Option<&ShardMeta> {
        self.shards.iter().find(|s| s.name == name)
    }

    /// Find a shard recorded from the given synthetic identity (name,
    /// seed, and scale all match) — the lookup `--trace-dir` replay
    /// uses, so a corpus recorded at one scale can never silently serve
    /// a workload asking for another.
    pub fn find_recorded(&self, name: &str, seed: u64, scale: u64) -> Option<&ShardMeta> {
        self.shards
            .iter()
            .find(|s| s.name == name && s.seed == Some(seed) && s.scale == Some(scale))
    }

    /// Total records across every shard.
    pub fn total_records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Total shard bytes across the corpus.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// Serialize with the version envelope.
    pub fn to_json(&self) -> Json {
        obj! {
            "version" => CORPUS_FORMAT_VERSION,
            "shards" => self.shards.clone(),
        }
    }

    /// Rebuild from a serialized document.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Manifest`] on a missing/mismatched version or any
    /// malformed shard entry.
    pub fn from_json(doc: &Json) -> Result<Manifest, CorpusError> {
        let Some(version) = doc.get("version").and_then(Json::as_u64) else {
            return Err(CorpusError::Manifest("missing version".into()));
        };
        if version != CORPUS_FORMAT_VERSION {
            return Err(CorpusError::Manifest(format!(
                "version {version} (this build reads {CORPUS_FORMAT_VERSION})"
            )));
        }
        let Some(entries) = doc.get("shards").and_then(Json::as_array) else {
            return Err(CorpusError::Manifest("missing shards array".into()));
        };
        let mut shards = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            match ShardMeta::from_json(e) {
                Some(s) => shards.push(s),
                None => return Err(CorpusError::Manifest(format!("malformed shard entry {i}"))),
            }
        }
        Ok(Manifest { shards })
    }

    /// Load `manifest.json` from a corpus directory.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] when the file cannot be read,
    /// [`CorpusError::Manifest`] when it does not parse.
    pub fn load(dir: &Path) -> Result<Manifest, CorpusError> {
        let path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&path)?;
        let doc = Json::parse(&text)
            .map_err(|e| CorpusError::Manifest(format!("{}: {e}", path.display())))?;
        Manifest::from_json(&doc)
    }

    /// Write `manifest.json` into `dir`, atomically, through
    /// [`Json::write_atomic`], so concurrent saves never fail or tear.
    ///
    /// # Errors
    ///
    /// Any underlying file I/O failure.
    pub fn save(&self, dir: &Path) -> Result<(), CorpusError> {
        Ok(self.to_json().write_atomic(&dir.join(MANIFEST_NAME))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            shards: vec![
                ShardMeta {
                    name: "alvinn".into(),
                    file: "alvinn.rct".into(),
                    records: 7280,
                    blocks: 2,
                    bytes: 16000,
                    checksum: 0xdead_beef,
                    seed: Some(0x7a9e),
                    scale: Some(10_000),
                    stats: ShardStats {
                        ifetches: 5900,
                        reads: 966,
                        writes: 414,
                        unique_pages: 37,
                    },
                    profile: Some(ProfileExpect {
                        name: "alvinn".into(),
                        ifetch_frac: 0.81,
                        write_frac: 0.30,
                    }),
                },
                ShardMeta {
                    name: "imported".into(),
                    file: "imported.rct".into(),
                    records: 10,
                    blocks: 1,
                    bytes: 80,
                    checksum: 1,
                    seed: None,
                    scale: None,
                    stats: ShardStats::default(),
                    profile: None,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips_through_json_text() {
        let m = sample();
        let text = m.to_json().pretty();
        let back = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn lookups_discriminate_identity() {
        let m = sample();
        assert!(m.find("alvinn").is_some());
        assert!(m.find("gcc").is_none());
        assert!(m.find_recorded("alvinn", 0x7a9e, 10_000).is_some());
        assert!(m.find_recorded("alvinn", 0x7a9e, 20_000).is_none());
        assert!(m.find_recorded("alvinn", 1, 10_000).is_none());
        assert!(m.find_recorded("imported", 0, 0).is_none(), "no identity");
        assert_eq!(m.total_records(), 7290);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let doc = obj! { "version" => 99u64, "shards" => Vec::<Json>::new() };
        assert!(matches!(
            Manifest::from_json(&doc),
            Err(CorpusError::Manifest(_))
        ));
    }

    #[test]
    fn stats_fractions() {
        let s = ShardStats {
            ifetches: 60,
            reads: 28,
            writes: 12,
            unique_pages: 5,
        };
        assert!((s.ifetch_frac() - 0.6).abs() < 1e-12);
        assert!((s.write_frac() - 0.3).abs() < 1e-12);
        let p = ProfileExpect {
            name: "x".into(),
            ifetch_frac: 0.65,
            write_frac: 0.25,
        };
        assert!((p.drift(&s) - 0.05).abs() < 1e-12);
        assert_eq!(ShardStats::default().ifetch_frac(), 0.0);
        assert_eq!(ShardStats::default().write_frac(), 0.0);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rampage-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `repro trace record` and `import-din` both save the manifest; two
    /// saves into one directory at once must neither fail nor tear.
    #[test]
    fn concurrent_saves_never_fail_or_tear() {
        let dir = std::env::temp_dir().join(format!(
            "rampage-manifest-concurrent-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let a = sample();
        let mut b = sample();
        b.shards.truncate(1);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for m in [&a, &b] {
                let (dir, start) = (&dir, &start);
                let (a, b) = (&a, &b);
                s.spawn(move || {
                    start.wait();
                    for round in 0..25 {
                        m.save(dir)
                            .unwrap_or_else(|e| panic!("save {round} failed: {e}"));
                        let back = Manifest::load(dir)
                            .unwrap_or_else(|e| panic!("load {round} failed: {e}"));
                        assert!(back == *a || back == *b, "load {round} tore");
                    }
                });
            }
        });
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != MANIFEST_NAME)
            .collect();
        assert!(left.is_empty(), "temp files left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
