//! File-system abstraction for the append path.
//!
//! The log appends through the [`WalFile`] trait instead of
//! `std::fs::File` directly so recovery tests can inject the failures a
//! real disk produces: short writes (a crash mid-`write`), torn records
//! (a write that lands partially but is reported as complete) and fsync
//! errors. Production uses [`StdWalStorage`]; the fault-injecting
//! implementations live in the crate's tests.
//!
//! Only the *write* side is abstracted. Replay reads whole segment files
//! through `std::fs::read` — the interesting failure modes are the bytes
//! a faulty writer left behind, which the trait impls produce for real
//! on a real file system.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// One open segment file on the append path. Both methods take
/// `&self`: the log's sync thread syncs a shared handle while appenders
/// keep writing to it under the log mutex.
pub trait WalFile: Send + Sync {
    /// Appends `buf` in full (or errors).
    fn write_all(&self, buf: &[u8]) -> io::Result<()>;
    /// Forces everything written so far to stable storage.
    fn sync_all(&self) -> io::Result<()>;
}

/// Creates and reopens segment files.
pub trait WalStorage: Send + Sync {
    /// Creates a fresh segment file (truncating any leftover).
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
    /// Reopens an existing segment for appending at its end.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
}

/// The production storage: plain `std::fs` files.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdWalStorage;

struct StdWalFile(File);

impl WalFile for StdWalFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut &self.0, buf)
    }

    fn sync_all(&self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl WalStorage for StdWalStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(StdWalFile(File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(StdWalFile(
            OpenOptions::new().append(true).open(path)?,
        )))
    }
}
