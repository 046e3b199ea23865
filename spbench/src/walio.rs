//! A `WalIo` that times every append and flush of the production
//! `DiskIo` underneath it: the write-ahead log's device, seen from
//! outside through the store's own I/O seam.

use std::path::Path;
use std::sync::{Arc, Mutex};

use plus_store::wal::{DiskIo, WalFile, WalIo};

use crate::stats::now_ns;

/// One append or flush the WAL performed, on the `now_ns` clock.
#[derive(Debug, Clone, Copy)]
pub struct IoEvent {
    pub sync: bool,
    pub start: u64,
    pub end: u64,
    /// Bytes appended; 0 for a flush.
    pub len: usize,
}

/// The events of every segment a `RecordingIo` opened, in order. All
/// calls happen under the store's write lock, so the mutex is never
/// contended by the store; the bench drains it between writes or after
/// a window.
pub type IoLog = Arc<Mutex<Vec<IoEvent>>>;

#[derive(Debug, Default)]
pub struct RecordingIo {
    pub log: IoLog,
}

impl WalIo for RecordingIo {
    fn open_segment(&mut self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        Ok(Box::new(RecordingFile {
            inner: DiskIo.open_segment(path)?,
            log: self.log.clone(),
        }))
    }
}

#[derive(Debug)]
struct RecordingFile {
    inner: Box<dyn WalFile>,
    log: IoLog,
}

impl RecordingFile {
    fn note(&self, sync: bool, start: u64, len: usize) {
        if let Ok(mut log) = self.log.lock() {
            log.push(IoEvent {
                sync,
                start,
                end: now_ns(),
                len,
            });
        }
    }
}

impl WalFile for RecordingFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let start = now_ns();
        let result = self.inner.append(bytes);
        self.note(false, start, bytes.len());
        result
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let start = now_ns();
        let result = self.inner.sync();
        self.note(true, start, 0);
        result
    }
}
