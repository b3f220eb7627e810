//! Write-ahead journal for [`super::DiskBackend`] mutations.
//!
//! Fixed 17-byte records: `op(u8) · s,p,o (u32 LE each) · crc32(u32 LE)`
//! where the checksum covers the first 13 bytes. Appends go straight to the
//! file (group commit defers only the fsync: [`Wal::flush`] is the
//! durability barrier). Replay on open stops at the first invalid record
//! and truncates there — because the dictionary is always fsynced *before*
//! the journal, an acknowledged record can never follow a torn one.

use crate::store::Key;
use crate::{RdfError, Result};
use qurator_telemetry::Histogram;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use super::codec::crc32;
use super::segment::io_err;

fn append_latency() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("store.wal.append_ns"))
}

fn fsync_latency() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("store.wal.fsync_ns"))
}

fn batch_records() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("store.wal.batch_records"))
}

pub(crate) const OP_ADD: u8 = 1;
pub(crate) const OP_DEL: u8 = 2;
pub(crate) const OP_CLEAR: u8 = 3;

const RECORD_LEN: usize = 17;

#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    dirty: bool,
    /// Records currently in the journal (drives compaction thresholds).
    pub records: usize,
    /// Records appended since the last durability barrier — the group-commit
    /// batch size reported to `store.wal.batch_records` on each fsync.
    pending: usize,
}

impl Wal {
    /// Opens (creating if absent) the journal and replays every valid
    /// record through `apply`. Records whose term ids fall outside the
    /// dictionary (`dict_len`) are torn tails from a crash between the two
    /// fsyncs and truncate the journal exactly like a bad checksum.
    pub fn open(path: &Path, dict_len: usize, mut apply: impl FnMut(u8, Key)) -> Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("opening journal", path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err("reading journal", path, e))?;
        let mut good = 0usize;
        let mut records = 0usize;
        for chunk in bytes.chunks(RECORD_LEN) {
            let Some(record) = decode_record(chunk) else { break };
            let (op, key) = record;
            if op != OP_CLEAR {
                let (s, p, o) = key;
                if s as usize >= dict_len || p as usize >= dict_len || o as usize >= dict_len {
                    break;
                }
            }
            apply(op, key);
            good += RECORD_LEN;
            records += 1;
        }
        if good < bytes.len() {
            file.set_len(good as u64).map_err(|e| io_err("truncating journal", path, e))?;
        }
        file.seek(SeekFrom::Start(good as u64)).map_err(|e| io_err("seeking journal", path, e))?;
        Ok(Wal { file, path: path.to_path_buf(), dirty: false, records, pending: 0 })
    }

    /// Appends one record per key with a single write (not yet durable —
    /// see [`Self::flush`]).
    pub fn append(&mut self, op: u8, keys: &[Key]) -> Result<()> {
        let started = Instant::now();
        let mut buf = Vec::with_capacity(keys.len() * RECORD_LEN);
        for &key in keys {
            buf.extend_from_slice(&encode_record(op, key));
        }
        self.file.write_all(&buf).map_err(|e| io_err("appending to journal", &self.path, e))?;
        append_latency().record(started.elapsed().as_nanos() as u64);
        self.dirty = true;
        self.records += keys.len();
        self.pending += keys.len();
        Ok(())
    }

    /// Durability barrier: fsyncs pending appends.
    pub fn flush(&mut self) -> Result<()> {
        if self.dirty {
            let started = Instant::now();
            self.file.sync_data().map_err(|e| io_err("syncing journal", &self.path, e))?;
            fsync_latency().record(started.elapsed().as_nanos() as u64);
            batch_records().record(self.pending as u64);
            self.dirty = false;
            self.pending = 0;
        }
        Ok(())
    }

    /// Empties the journal after a successful compaction made it redundant.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0).map_err(|e| io_err("truncating journal", &self.path, e))?;
        self.file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seeking journal", &self.path, e))?;
        self.file.sync_data().map_err(|e| io_err("syncing journal", &self.path, e))?;
        self.dirty = false;
        self.records = 0;
        self.pending = 0;
        Ok(())
    }
}

fn encode_record(op: u8, (s, p, o): Key) -> [u8; RECORD_LEN] {
    let mut buf = [0u8; RECORD_LEN];
    buf[0] = op;
    buf[1..5].copy_from_slice(&s.to_le_bytes());
    buf[5..9].copy_from_slice(&p.to_le_bytes());
    buf[9..13].copy_from_slice(&o.to_le_bytes());
    let crc = crc32(&buf[..13]);
    buf[13..17].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_record(chunk: &[u8]) -> Option<(u8, Key)> {
    if chunk.len() != RECORD_LEN {
        return None;
    }
    let crc = u32::from_le_bytes(chunk[13..17].try_into().unwrap());
    if crc32(&chunk[..13]) != crc {
        return None;
    }
    let op = chunk[0];
    if !matches!(op, OP_ADD | OP_DEL | OP_CLEAR) {
        return None;
    }
    let key = (
        u32::from_le_bytes(chunk[1..5].try_into().unwrap()),
        u32::from_le_bytes(chunk[5..9].try_into().unwrap()),
        u32::from_le_bytes(chunk[9..13].try_into().unwrap()),
    );
    Some((op, key))
}

/// Exposed to the crash-recovery tests: `RdfError::Io` if the journal at
/// `path` cannot be truncated to simulate a torn tail.
#[doc(hidden)]
pub fn truncate_mid_record(path: &Path) -> std::result::Result<(), RdfError> {
    let len = std::fs::metadata(path).map_err(|e| io_err("reading metadata of", path, e))?.len();
    if len < RECORD_LEN as u64 {
        return Ok(());
    }
    let torn = len - (RECORD_LEN as u64 / 2);
    let file = OpenOptions::new().write(true).open(path).map_err(|e| io_err("opening", path, e))?;
    file.set_len(torn).map_err(|e| io_err("truncating", path, e))?;
    Ok(())
}
