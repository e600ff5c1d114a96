//! The persistent trace store: a directory of DBPT columnar files,
//! keyed by 64-bit workload hash.
//!
//! The replay service's in-memory `TraceCache` holds traces for the
//! lifetime of one process; the store is what makes them survive
//! restarts. Each entry is one `<key:016x>.dbpt` file written
//! atomically (temp file + rename), carrying the trace plus an opaque
//! meta blob the server uses for provenance (workload identity, base
//! run cost). Loads read the whole file into an arena with one `read`
//! and decode columns out of it.
//!
//! Telemetry: `trace.store.saves`, `trace.store.loads`,
//! `trace.store.bytes_written`, `trace.store.bytes_read`.

use crate::codec::TraceCodecError;
use crate::columnar::{read_columnar, write_columnar};
use crate::event::Trace;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A directory of persisted traces, one DBPT file per 64-bit key.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<TraceStore, TraceCodecError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(TraceStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.dbpt"))
    }

    /// Persists `trace` (plus the caller's opaque `meta` blob) under
    /// `key`, replacing any previous entry atomically. Returns the
    /// serialized size in bytes.
    ///
    /// # Errors
    ///
    /// I/O errors writing or renaming the file.
    pub fn save(&self, key: u64, trace: &Trace, meta: &[u8]) -> Result<u64, TraceCodecError> {
        let mut buf = Vec::new();
        write_columnar(trace, meta, &mut buf)?;
        self.save_encoded(key, &buf)
    }

    /// Persists an already encoded DBPT file under `key`, replacing any
    /// previous entry atomically. Returns its size in bytes.
    ///
    /// # Errors
    ///
    /// I/O errors writing or renaming the file.
    pub fn save_encoded(&self, key: u64, bytes: &[u8]) -> Result<u64, TraceCodecError> {
        let tmp = self.dir.join(format!(".{key:016x}.dbpt.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path_for(key))?;
        databp_telemetry::count!("trace.store.saves");
        databp_telemetry::count!("trace.store.bytes_written", bytes.len() as u64);
        Ok(bytes.len() as u64)
    }

    /// Loads the entry under `key`, or `None` if the store has no such
    /// file.
    ///
    /// # Errors
    ///
    /// I/O errors reading, or [`TraceCodecError::Malformed`] if the file
    /// exists but does not decode (a truncated or corrupted store entry
    /// is reported, never trusted).
    pub fn load(&self, key: u64) -> Result<Option<(Trace, Vec<u8>)>, TraceCodecError> {
        match self.load_encoded(key)? {
            Some(bytes) => Ok(Some(read_columnar(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Reads the raw file under `key` without decoding it, or `None` if
    /// the store has no such file. The bytes are untrusted: decode them
    /// with [`read_columnar`] before use.
    ///
    /// # Errors
    ///
    /// I/O errors reading.
    pub fn load_encoded(&self, key: u64) -> Result<Option<Vec<u8>>, TraceCodecError> {
        let bytes = match fs::read(self.path_for(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        databp_telemetry::count!("trace.store.loads");
        databp_telemetry::count!("trace.store.bytes_read", bytes.len() as u64);
        Ok(Some(bytes))
    }

    /// Keys of every entry currently on disk (unordered).
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory.
    pub fn keys(&self) -> Result<Vec<u64>, TraceCodecError> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(hex) = name.strip_suffix(".dbpt") {
                if let Ok(key) = u64::from_str_radix(hex, 16) {
                    keys.push(key);
                }
            }
        }
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, ObjectDesc};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("databp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_trace() -> Trace {
        Trace::from_events(vec![
            Event::Install {
                obj: ObjectDesc::Global { id: 1 },
                ba: 0x1000,
                ea: 0x1010,
            },
            Event::Write {
                pc: 0x40,
                ba: 0x1000,
                ea: 0x1004,
                value: 9,
                old: 3,
            },
            Event::Remove {
                obj: ObjectDesc::Global { id: 1 },
                ba: 0x1000,
                ea: 0x1010,
            },
        ])
    }

    #[test]
    fn save_load_roundtrip_and_keys() {
        let dir = tmpdir("roundtrip");
        let store = TraceStore::open(&dir).unwrap();
        let t = small_trace();
        let bytes = store.save(0xabcd, &t, b"meta!").unwrap();
        assert!(bytes > 0);
        let (back, meta) = store.load(0xabcd).unwrap().expect("entry exists");
        assert_eq!(back, t);
        assert_eq!(meta, b"meta!");
        assert_eq!(store.keys().unwrap(), vec![0xabcd]);
        assert!(store.load(0x1234).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_replaces_existing_entry() {
        let dir = tmpdir("replace");
        let store = TraceStore::open(&dir).unwrap();
        store.save(7, &small_trace(), b"old").unwrap();
        store.save(7, &Trace::new(), b"new").unwrap();
        let (back, meta) = store.load(7).unwrap().expect("entry exists");
        assert!(back.is_empty());
        assert_eq!(meta, b"new");
        assert_eq!(store.keys().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_entry_is_an_error_not_a_panic() {
        let dir = tmpdir("corrupt");
        let store = TraceStore::open(&dir).unwrap();
        store.save(9, &small_trace(), &[]).unwrap();
        let path = store.dir().join(format!("{:016x}.dbpt", 9));
        let mut bytes = fs::read(&path).unwrap();
        // Every proper prefix of a DBPT file is an error; cut inside
        // the header.
        bytes.truncate(20);
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(9).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
