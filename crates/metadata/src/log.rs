//! Append-only persistence log.
//!
//! Every mutation of the repository is appended as one JSON line; a
//! repository is recovered by replaying the log in order. JSON-lines
//! keeps the on-disk format inspectable with standard tools, which
//! suits a research repository better than a binary format. Each
//! append is written as one line and flushed, so a crash loses at most
//! the entry being written.

use crate::record::{MetaRecord, RecordId};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogEntry {
    /// A record was inserted (with its assigned id).
    Insert(MetaRecord),
    /// A record was deleted.
    Delete(RecordId),
}

/// An append-only JSON-lines log file.
#[derive(Debug)]
pub struct MetadataLog {
    path: PathBuf,
    file: File,
}

impl MetadataLog {
    /// Opens (creating if necessary) the log at `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_owned();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(MetadataLog { path, file })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry and flushes it.
    pub fn append(&mut self, entry: &LogEntry) -> io::Result<()> {
        let mut line =
            serde_json::to_vec(entry).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        line.push(b'\n');
        self.file.write_all(&line)?;
        self.file.flush()
    }

    /// Atomically replaces the log at `path` with exactly `entries`
    /// (write to a temporary sibling, fsync, rename). Used by store
    /// compaction to drop superseded insert/delete pairs.
    pub fn rewrite(path: impl AsRef<Path>, entries: &[LogEntry]) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("compact-tmp");
        {
            let mut f = File::create(&tmp)?;
            let mut buf = Vec::with_capacity(64 * 1024);
            for e in entries {
                let json = serde_json::to_vec(e)
                    .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
                buf.extend_from_slice(&json);
                buf.push(b'\n');
                if buf.len() >= 60 * 1024 {
                    f.write_all(&buf)?;
                    buf.clear();
                }
            }
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Replays every entry of the log at `path` in order. Returns an
    /// empty list when the file does not exist. A trailing partial line
    /// (torn write) is ignored; a corrupt line in the middle is an
    /// error.
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Vec<LogEntry>> {
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let reader = BufReader::new(file);
        let mut entries = Vec::new();
        let mut lines = reader.lines().peekable();
        while let Some(line) = lines.next() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<LogEntry>(&line) {
                Ok(e) => entries.push(e),
                Err(err) => {
                    if lines.peek().is_none() {
                        // Torn final write: tolerate and stop.
                        break;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt log entry: {err}"),
                    ));
                }
            }
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dievent-metadata-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn record(kind: RecordKind, id: u64) -> MetaRecord {
        let mut r = MetaRecord::new(kind).with_attr("n", id as i64);
        r.id = RecordId(id);
        r
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("round-trip");
        let mut log = MetadataLog::open(&path).unwrap();
        let entries = vec![
            LogEntry::Insert(record(RecordKind::Event, 1)),
            LogEntry::Insert(record(RecordKind::Shot, 2)),
            LogEntry::Delete(RecordId(1)),
        ];
        for e in &entries {
            log.append(e).unwrap();
        }
        drop(log);
        let replayed = MetadataLog::replay(&path).unwrap();
        assert_eq!(replayed, entries);
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = tmp("missing");
        std::fs::remove_file(&path).ok();
        assert!(MetadataLog::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn reopening_appends_not_truncates() {
        let path = tmp("reopen");
        {
            let mut log = MetadataLog::open(&path).unwrap();
            log.append(&LogEntry::Insert(record(RecordKind::Event, 1)))
                .unwrap();
        }
        {
            let mut log = MetadataLog::open(&path).unwrap();
            log.append(&LogEntry::Delete(RecordId(1))).unwrap();
        }
        let replayed = MetadataLog::replay(&path).unwrap();
        assert_eq!(replayed.len(), 2);
    }

    #[test]
    fn torn_final_line_tolerated() {
        let path = tmp("torn");
        {
            let mut log = MetadataLog::open(&path).unwrap();
            log.append(&LogEntry::Insert(record(RecordKind::Scene, 7)))
                .unwrap();
        }
        // Simulate a crash mid-write.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"Insert\":{\"id\":9,\"ki").unwrap();
        drop(f);
        let replayed = MetadataLog::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1, "torn tail dropped, good prefix kept");
    }

    #[test]
    fn corrupt_middle_line_is_an_error() {
        let path = tmp("corrupt");
        {
            let mut log = MetadataLog::open(&path).unwrap();
            log.append(&LogEntry::Insert(record(RecordKind::Scene, 1)))
                .unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"garbage\n").unwrap();
        }
        {
            let mut log = MetadataLog::open(&path).unwrap();
            log.append(&LogEntry::Delete(RecordId(1))).unwrap();
        }
        assert!(MetadataLog::replay(&path).is_err());
    }
}
