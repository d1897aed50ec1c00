//! Spill-to-disk subsystem: graceful degradation under the governor.
//!
//! When the memory pool refuses a governed buffering operator's charge,
//! the operator no longer has to fail the query: it can hand the
//! overflowing state to a [`SpillManager`] and keep running in bounded
//! memory. Three consumers degrade this way — the grace hash join
//! (`pipeline/join.rs`: partition both sides, join partition pairs),
//! the external merge sort (`sort.rs`: sorted runs, k-way merge), and
//! spillable hash aggregation (`pipeline/hash_aggregate.rs`:
//! partitioned group state merged per partition). This module provides
//! the shared substrate:
//!
//! * [`SpillManager`] — a per-execution temp-dir scope. Created fresh by
//!   `Pipeline::execute_each` for every execution and dropped when the
//!   execution ends, so partition files cannot outlive the query — on
//!   the success path, the error path, cooperative cancellation, and
//!   worker panics alike (unwinding drops the `ExecCtx`, which drops the
//!   manager, which removes the directory). [`SpillFile`] removes its
//!   own file on drop as a second layer, so a partition is reclaimed the
//!   moment its consumer finishes with it.
//! * [`SpillFile`] / [`SpillReader`] — an append-then-scan block file
//!   using a compact column serialization of `common/column.rs` batches:
//!   per block a row count and width, then per column a type tag, a
//!   validity bitmap, and the payload of *valid* lanes only. Values
//!   round-trip exactly (floats via raw bits), so a spilled execution
//!   returns the same bags as the in-memory one.
//! * [`SpillPartitions`] — fan-out helper: route rows to one of
//!   [`FANOUT`] partition files by a key hash, with small buffered
//!   blocks so partition files receive batched writes.
//!
//! Fault injection: file creation, block writes, and block reads cross
//! the `spill.open` / `spill.write` / `spill.read` failpoints, and every
//! I/O error surfaces as a structured [`Error::Exec`] naming the path —
//! never a panic.
//!
//! Determinism: partition routing uses the workspace's fixed-key
//! [`hash_lanes`](orthopt_common::hash::hash_lanes) hash and a fixed fan-out,
//! so which rows land in which partition — and therefore the engine's
//! behaviour under a given budget — is identical across runs.

use orthopt_common::column::{Bitmap, ColData, Column, ColumnData};
use orthopt_common::row::Row;
use orthopt_common::{Error, Result, Value};
use orthopt_synccheck::sync::atomic::{AtomicU64, Ordering};
use orthopt_synccheck::sync::Mutex;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Partition fan-out per spill level. Eight partitions per level keeps
/// the file count small while shrinking each partition ~8× per
/// recursion step.
pub const FANOUT: usize = 8;

/// Maximum grace-join repartition depth. With [`FANOUT`] = 8 this gives
/// 8³ = 512-way effective partitioning before the join falls back to a
/// clean hinted [`Error::ResourceExhausted`].
pub const MAX_SPILL_DEPTH: usize = 3;

/// Buffered bytes per partition before [`SpillPartitions`] flushes a
/// block to the partition file. Bounds transient memory at
/// `FANOUT * SPILL_BLOCK_BYTES` per partition set.
pub const SPILL_BLOCK_BYTES: u64 = 64 * 1024;

// Process-wide telemetry. Hygiene tests assert `live_dirs() == 0` after
// executions end (including cancelled/panicked ones); the byte totals
// let tests prove data actually crossed the disk.
static LIVE_DIRS: AtomicU64 = AtomicU64::new(0);
static TOTAL_SPILLED: AtomicU64 = AtomicU64::new(0);
static TOTAL_RESTORED: AtomicU64 = AtomicU64::new(0);
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(0);

/// Number of spill scope directories currently on disk, process-wide.
/// Zero whenever no query is mid-spill — the temp-file hygiene
/// invariant.
pub fn live_dirs() -> u64 {
    // relaxed-ok: monitoring read of a counter.
    LIVE_DIRS.load(Ordering::Relaxed)
}

/// Total bytes ever written to spill files by this process.
pub fn total_spilled_bytes() -> u64 {
    // relaxed-ok: monitoring read of a counter.
    TOTAL_SPILLED.load(Ordering::Relaxed)
}

/// Total bytes ever read back from spill files by this process.
pub fn total_restored_bytes() -> u64 {
    // relaxed-ok: monitoring read of a counter.
    TOTAL_RESTORED.load(Ordering::Relaxed)
}

/// The partition a key hash routes to at a given recursion level.
///
/// Each level consumes three fresh bits of the 64-bit fixed-key hash,
/// so repartitioning a partition at `level + 1` actually subdivides it
/// (same top bits, different next bits) instead of reproducing it.
pub fn partition_of(hash: u64, level: usize) -> usize {
    ((hash >> (level * 3)) & (FANOUT as u64 - 1)) as usize
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> Error {
    Error::Exec(format!("spill {what} {}: {e}", path.display()))
}

/// Shared byte counters between a [`SpillManager`] and the
/// [`SpillFile`]s it created (files may outlive the manager's lock
/// scope, so the counters are a separate shared cell).
#[derive(Debug)]
struct Counters {
    spilled: AtomicU64,
    restored: AtomicU64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            spilled: AtomicU64::new(0),
            restored: AtomicU64::new(0),
        }
    }
}

#[derive(Debug, Default)]
struct ManagerState {
    /// Scope directory, created lazily on the first spill file.
    dir: Option<PathBuf>,
    /// Monotonic file id within the scope.
    next_file: u64,
    /// Partition files ever created in this scope.
    files_created: u64,
}

/// A per-execution spill scope: owns one temp directory, hands out
/// numbered [`SpillFile`]s inside it, and removes the whole directory on
/// drop. `Pipeline::execute_each` creates one per execution and shares
/// it with every operator through `ExecCtx`, so the directory's lifetime
/// is exactly the execution's — error, cancellation, and panic paths
/// included.
#[derive(Debug)]
pub struct SpillManager {
    base: PathBuf,
    state: Mutex<ManagerState>,
    counters: Arc<Counters>,
}

impl Default for SpillManager {
    fn default() -> Self {
        SpillManager::new()
    }
}

impl SpillManager {
    /// A new scope rooted at `ORTHOPT_SPILL_DIR` (falling back to the
    /// system temp dir). No directory is created until the first spill
    /// file is requested, so unspilled executions never touch the
    /// filesystem.
    pub fn new() -> SpillManager {
        let base = match std::env::var("ORTHOPT_SPILL_DIR") {
            Ok(d) if !d.trim().is_empty() => PathBuf::from(d),
            _ => std::env::temp_dir(),
        };
        SpillManager {
            base,
            state: Mutex::new(ManagerState::default()),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Creates a fresh spill file in this scope (crossing the
    /// `spill.open` failpoint), lazily creating the scope directory.
    pub fn create(&self, label: &str) -> Result<SpillFile> {
        crate::faults::hit("spill.open")?;
        let path = {
            let mut st = self.state.lock();
            if st.dir.is_none() {
                // relaxed-ok: a unique-id counter; nothing is published
                // through it.
                let scope = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
                let dir = self
                    .base
                    .join(format!("orthopt-spill-{}-{scope}", std::process::id()));
                fs::create_dir_all(&dir).map_err(|e| io_err("mkdir", &dir, &e))?;
                // relaxed-ok: hygiene telemetry counter.
                LIVE_DIRS.fetch_add(1, Ordering::Relaxed);
                st.dir = Some(dir);
            }
            let id = st.next_file;
            st.next_file += 1;
            st.files_created += 1;
            st.dir
                .as_ref()
                .expect("scope dir just ensured")
                .join(format!("{label}-{id}.spill"))
        };
        let file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
        Ok(SpillFile {
            path,
            writer: Some(BufWriter::new(file)),
            rows: 0,
            bytes: 0,
            counters: Arc::clone(&self.counters),
        })
    }

    /// Bytes written to spill files in this scope.
    pub fn spilled_bytes(&self) -> u64 {
        // relaxed-ok: monitoring read of a counter.
        self.counters.spilled.load(Ordering::Relaxed)
    }

    /// Bytes read back from spill files in this scope.
    pub fn restored_bytes(&self) -> u64 {
        // relaxed-ok: monitoring read of a counter.
        self.counters.restored.load(Ordering::Relaxed)
    }

    /// Partition files created in this scope so far.
    pub fn files_created(&self) -> u64 {
        self.state.lock().files_created
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let dir = self.state.get_mut().dir.take();
        if let Some(dir) = dir {
            // Best effort: files inside may already have been removed by
            // their own SpillFile drops; a vanished dir is not an error.
            let _ = fs::remove_dir_all(&dir);
            // relaxed-ok: hygiene telemetry counter.
            LIVE_DIRS.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One append-then-scan spill file (a partition or a sort run). Blocks
/// of lanes are appended while the operator drains its input, then read
/// back in order through [`SpillFile::reader`]. The file is removed
/// when the handle drops.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    rows: u64,
    bytes: u64,
    counters: Arc<Counters>,
}

impl SpillFile {
    /// Appends one block of `len` lanes straight from columns (crossing
    /// the `spill.write` failpoint). The bytes are a function of the
    /// lane values alone, whatever the columns' representation. Returns
    /// the encoded block size in bytes. Empty blocks are skipped.
    pub fn append_columns(&mut self, columns: &[Column], len: usize) -> Result<u64> {
        if len == 0 {
            return Ok(0);
        }
        crate::faults::hit("spill.write")?;
        let mut buf = Vec::new();
        encode_block(columns, len, &mut buf);
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| Error::internal("spill append after reader opened"))?;
        w.write_all(&buf)
            .map_err(|e| io_err("write", &self.path, &e))?;
        self.rows += len as u64;
        self.bytes += buf.len() as u64;
        self.counters
            .spilled
            // relaxed-ok: byte-total telemetry counters.
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        // relaxed-ok: see above.
        TOTAL_SPILLED.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len() as u64)
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Encoded bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True when nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Opens a scan over the file from the start (crossing the
    /// `spill.open` failpoint), flushing any pending writes first. The
    /// same file can be scanned multiple times — the grace join re-reads
    /// a partition when it has to repartition it at the next level.
    pub fn reader(&mut self) -> Result<SpillReader> {
        crate::faults::hit("spill.open")?;
        if let Some(mut w) = self.writer.take() {
            w.flush().map_err(|e| io_err("flush", &self.path, &e))?;
        }
        let f = File::open(&self.path).map_err(|e| io_err("open", &self.path, &e))?;
        Ok(SpillReader {
            path: self.path.clone(),
            inner: BufReader::new(f),
            counters: Arc::clone(&self.counters),
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.writer.take();
        // Best effort: the manager's directory removal is the backstop.
        let _ = fs::remove_file(&self.path);
    }
}

/// A sequential scan over a [`SpillFile`]'s blocks.
#[derive(Debug)]
pub struct SpillReader {
    path: PathBuf,
    inner: BufReader<File>,
    counters: Arc<Counters>,
}

impl SpillReader {
    /// The next block as `(columns, lane count)`, or `None` at end of
    /// file (crossing the `spill.read` failpoint). Truncated files
    /// surface as [`Error::Exec`], never a panic.
    pub fn next_block_columns(&mut self) -> Result<Option<(Vec<Column>, usize)>> {
        crate::faults::hit("spill.read")?;
        let mut head = [0u8; 4];
        match read_exact_or_eof(&mut self.inner, &mut head) {
            Ok(false) => return Ok(None),
            Ok(true) => {}
            Err(e) => return Err(io_err("read", &self.path, &e)),
        }
        let nrows = u32::from_le_bytes(head) as usize;
        let mut dec = Decoder {
            r: &mut self.inner,
            path: &self.path,
            bytes: head.len() as u64,
        };
        let columns = dec.block_body(nrows)?;
        self.counters
            .restored
            // relaxed-ok: byte-total telemetry counters.
            .fetch_add(dec.bytes, Ordering::Relaxed);
        // relaxed-ok: see above.
        TOTAL_RESTORED.fetch_add(dec.bytes, Ordering::Relaxed);
        Ok(Some((columns, nrows)))
    }
}

/// Routes rows into [`FANOUT`] spill files by a precomputed partition
/// index, buffering ~[`SPILL_BLOCK_BYTES`] per partition between
/// writes so partition files receive batched blocks. The caller checks
/// cancellation between pushes/flushes — every flush is an independent
/// partition write.
#[derive(Debug)]
pub struct SpillPartitions {
    files: Vec<SpillFile>,
    /// Pending values per partition, column-major: a lane pushed off a
    /// column batch never becomes a row on its way to the block.
    bufs: Vec<Vec<Vec<Value>>>,
    buf_rows: Vec<usize>,
    buf_bytes: Vec<u64>,
}

impl SpillPartitions {
    /// Creates the [`FANOUT`] partition files up front (so `spill.open`
    /// faults fire before any data moves).
    pub fn create(mgr: &SpillManager, label: &str, width: usize) -> Result<SpillPartitions> {
        let mut files = Vec::with_capacity(FANOUT);
        for _ in 0..FANOUT {
            files.push(mgr.create(label)?);
        }
        Ok(SpillPartitions {
            files,
            bufs: vec![vec![Vec::new(); width]; FANOUT],
            buf_rows: vec![0; FANOUT],
            buf_bytes: vec![0; FANOUT],
        })
    }

    /// Buffers lane `lane` of a column batch for partition `part`,
    /// flushing the partition's block once its buffered lanes cost
    /// [`SPILL_BLOCK_BYTES`] as rows ([`row_bytes`]). Returns the bytes
    /// written to disk by this call (usually 0).
    ///
    /// [`row_bytes`]: orthopt_common::row::row_bytes
    pub fn push_lane(&mut self, part: usize, columns: &[Column], lane: usize) -> Result<u64> {
        let mut bytes = std::mem::size_of::<Row>() + columns.len() * std::mem::size_of::<Value>();
        for (buf, c) in self.bufs[part].iter_mut().zip(columns) {
            let v = c.value(lane);
            if let Value::Str(s) = &v {
                bytes += s.len();
            }
            buf.push(v);
        }
        self.buf_rows[part] += 1;
        self.buf_bytes[part] += bytes as u64;
        if self.buf_bytes[part] >= SPILL_BLOCK_BYTES {
            self.flush_part(part)
        } else {
            Ok(0)
        }
    }

    fn flush_part(&mut self, part: usize) -> Result<u64> {
        let rows = std::mem::take(&mut self.buf_rows[part]);
        self.buf_bytes[part] = 0;
        let columns: Vec<Column> = self.bufs[part]
            .iter_mut()
            .map(|buf| Column::from_values(std::mem::take(buf)))
            .collect();
        self.files[part].append_columns(&columns, rows)
    }

    /// Flushes every partition's pending block and returns the files,
    /// in partition order. Total disk bytes written by the set are on
    /// the files' own counters.
    pub fn finish(mut self) -> Result<Vec<SpillFile>> {
        for p in 0..FANOUT {
            self.flush_part(p)?;
        }
        Ok(self.files)
    }
}

// ---------------------------------------------------------------------
// Block format.
//
//   u32  row count (n)
//   u16  width (column count)
//   per column:
//     u8   type tag: 0=Int 1=Float 2=Bool 3=Str 4=Date 5=Val
//     ceil(n/8) bytes  validity bitmap, LSB-first
//     payload of the *valid* lanes only:
//       Int   i64 LE        Float f64 bits LE    Bool u8
//       Date  i32 LE        Str   u32 len + UTF-8 bytes
//       Val   u8 value tag (0=Null 1=Bool 2=Int 3=Float 4=Str 5=Date)
//             + that value's payload
//
// A block's bytes depend only on its values, not on the representation
// they arrived in: a `Val` window is re-typed by `Column::from_values`
// (the code that types a row block) and a typed window with no valid
// lane is tagged `Val`, as an all-NULL row block always was. Decoding
// rebuilds `Column`s; values round-trip bit-exactly (floats via
// to_bits/from_bits).
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_u32(buf, s.len() as u32);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn encode_block(columns: &[Column], n: usize, buf: &mut Vec<u8>) {
    put_u32(buf, n as u32);
    put_u16(buf, columns.len() as u16);
    for col in columns {
        let retyped;
        let col = if matches!(col.parts().0, ColData::Val(_)) {
            retyped = Column::from_values((0..n).map(|i| col.value(i)).collect());
            &retyped
        } else {
            col
        };
        let (data, validity, off) = col.parts();
        let valid = |i: usize| validity.get(off + i);
        let mut flags = vec![0u8; n.div_ceil(8)];
        let mut any_valid = false;
        for i in 0..n {
            if valid(i) {
                flags[i / 8] |= 1 << (i % 8);
                any_valid = true;
            }
        }
        let tag: u8 = match data {
            _ if !any_valid => 5,
            ColData::Int(_) => 0,
            ColData::Float(_) => 1,
            ColData::Bool(_) => 2,
            ColData::Str(_) => 3,
            ColData::Date(_) => 4,
            ColData::Val(_) => 5,
        };
        buf.push(tag);
        buf.extend_from_slice(&flags);
        match data {
            ColData::Int(v) => {
                for (i, x) in v[off..off + n].iter().enumerate() {
                    if valid(i) {
                        buf.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
            ColData::Float(v) => {
                for (i, x) in v[off..off + n].iter().enumerate() {
                    if valid(i) {
                        buf.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            }
            ColData::Bool(v) => {
                for (i, x) in v[off..off + n].iter().enumerate() {
                    if valid(i) {
                        buf.push(u8::from(*x));
                    }
                }
            }
            ColData::Str(v) => {
                for (i, s) in v[off..off + n].iter().enumerate() {
                    if valid(i) {
                        put_u32(buf, s.len() as u32);
                        buf.extend_from_slice(s.as_bytes());
                    }
                }
            }
            ColData::Date(v) => {
                for (i, d) in v[off..off + n].iter().enumerate() {
                    if valid(i) {
                        buf.extend_from_slice(&d.to_le_bytes());
                    }
                }
            }
            ColData::Val(v) => {
                for (i, x) in v[off..off + n].iter().enumerate() {
                    if valid(i) {
                        encode_value(buf, x);
                    }
                }
            }
        }
    }
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` on clean EOF before the
/// first byte, `Err` on a truncated read.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "truncated spill block",
            ));
        }
        filled += n;
    }
    Ok(true)
}

struct Decoder<'a, R: Read> {
    r: &'a mut R,
    path: &'a Path,
    bytes: u64,
}

impl<R: Read> Decoder<'_, R> {
    fn fill(&mut self, buf: &mut [u8]) -> Result<()> {
        self.r
            .read_exact(buf)
            .map_err(|e| io_err("read", self.path, &e))?;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    fn u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.fill(&mut b)?;
        Ok(b[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let mut b = [0u8; 2];
        self.fill(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn i32(&mut self) -> Result<i32> {
        let mut b = [0u8; 4];
        self.fill(&mut b)?;
        Ok(i32::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64> {
        let mut b = [0u8; 8];
        self.fill(&mut b)?;
        Ok(i64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64> {
        let mut b = [0u8; 8];
        self.fill(&mut b)?;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    fn str(&mut self) -> Result<Arc<str>> {
        let len = self.u32()? as usize;
        let mut b = vec![0u8; len];
        self.fill(&mut b)?;
        String::from_utf8(b)
            .map(Arc::from)
            .map_err(|e| Error::Exec(format!("spill read {}: {e}", self.path.display())))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(self.f64()?),
            4 => Value::Str(self.str()?),
            5 => Value::Date(self.i32()?),
            t => {
                return Err(Error::Exec(format!(
                    "spill read {}: bad value tag {t}",
                    self.path.display()
                )))
            }
        })
    }

    fn block_body(&mut self, nrows: usize) -> Result<Vec<Column>> {
        let width = self.u16()? as usize;
        let mut cols = Vec::with_capacity(width);
        for _ in 0..width {
            let tag = self.u8()?;
            let mut flags = vec![0u8; nrows.div_ceil(8)];
            self.fill(&mut flags)?;
            let valid: Vec<bool> = (0..nrows)
                .map(|i| flags[i / 8] & (1 << (i % 8)) != 0)
                .collect();
            let data = match tag {
                0 => {
                    let mut v = Vec::with_capacity(nrows);
                    for &ok in &valid {
                        v.push(if ok { self.i64()? } else { 0 });
                    }
                    ColData::Int(v)
                }
                1 => {
                    let mut v = Vec::with_capacity(nrows);
                    for &ok in &valid {
                        v.push(if ok { self.f64()? } else { 0.0 });
                    }
                    ColData::Float(v)
                }
                2 => {
                    let mut v = Vec::with_capacity(nrows);
                    for &ok in &valid {
                        v.push(if ok { self.u8()? != 0 } else { false });
                    }
                    ColData::Bool(v)
                }
                3 => {
                    let mut v = Vec::with_capacity(nrows);
                    for &ok in &valid {
                        v.push(if ok { self.str()? } else { Arc::from("") });
                    }
                    ColData::Str(v)
                }
                4 => {
                    let mut v = Vec::with_capacity(nrows);
                    for &ok in &valid {
                        v.push(if ok { self.i32()? } else { 0 });
                    }
                    ColData::Date(v)
                }
                5 => {
                    let mut v = Vec::with_capacity(nrows);
                    for &ok in &valid {
                        v.push(if ok { self.value()? } else { Value::Null });
                    }
                    ColData::Val(v)
                }
                t => {
                    return Err(Error::Exec(format!(
                        "spill read {}: bad column tag {t}",
                        self.path.display()
                    )))
                }
            };
            cols.push(Column::from_data(ColumnData {
                data,
                validity: Bitmap::from_flags(valid),
            }));
        }
        Ok(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::column::{columns_to_rows, rows_to_columns};

    fn mixed_rows() -> Vec<Row> {
        vec![
            vec![
                Value::Int(1),
                Value::Float(f64::NAN),
                Value::str("alpha"),
                Value::Bool(true),
                Value::Date(19_000),
                Value::Int(7),
            ],
            vec![
                Value::Null,
                Value::Float(-0.0),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::str("mixed"),
            ],
            vec![
                Value::Int(-5),
                Value::Float(2.5),
                Value::str(""),
                Value::Bool(false),
                Value::Date(-1),
                Value::Null,
            ],
        ]
    }

    /// Serializes the tests that open a spill scope: one of them asserts
    /// the process-wide `live_dirs()` count around its own scope.
    fn scope_lock() -> orthopt_synccheck::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    /// Appends `rows` as one block of `width` columns.
    fn append_rows(f: &mut SpillFile, rows: &[Row], width: usize) -> u64 {
        f.append_columns(&rows_to_columns(rows, width), rows.len())
            .expect("append")
    }

    /// The next block, transposed to rows.
    fn next_rows(r: &mut SpillReader) -> Option<Vec<Row>> {
        r.next_block_columns()
            .expect("read")
            .map(|(columns, len)| columns_to_rows(&columns, len))
    }

    fn assert_rows_eq(a: &[Row], b: &[Row]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.len(), y.len());
            for (u, v) in x.iter().zip(y) {
                match (u, v) {
                    // NaN != NaN under PartialEq; compare bits.
                    (Value::Float(p), Value::Float(q)) => {
                        assert_eq!(p.to_bits(), q.to_bits());
                    }
                    _ => assert_eq!(u, v),
                }
            }
        }
    }

    #[test]
    fn blocks_round_trip_bit_exactly() {
        let _g = scope_lock();
        let mgr = SpillManager::new();
        let rows = mixed_rows();
        let mut f = mgr.create("t").expect("create");
        append_rows(&mut f, &rows[..2], 6);
        append_rows(&mut f, &rows[2..], 6);
        assert_eq!(f.rows(), 3);
        assert!(f.bytes() > 0);
        let mut r = f.reader().expect("reader");
        let b1 = next_rows(&mut r).expect("block 1");
        let b2 = next_rows(&mut r).expect("block 2");
        assert!(next_rows(&mut r).is_none());
        assert_rows_eq(&b1, &rows[..2]);
        assert_rows_eq(&b2, &rows[2..]);
        assert_eq!(mgr.spilled_bytes(), f.bytes());
        assert_eq!(mgr.restored_bytes(), f.bytes());
    }

    /// The block bytes are a function of the values alone: windows of
    /// typed columns, an all-NULL typed window and a `Val` column encode
    /// to what the equivalent rows encode to.
    #[test]
    fn column_blocks_encode_like_row_blocks() {
        let mut rows = mixed_rows();
        rows.push(vec![
            Value::Null,
            Value::Float(1.0),
            Value::str("z"),
            Value::Null,
            Value::Date(3),
            Value::Float(0.5),
        ]);
        let cols = rows_to_columns(&rows, 6);
        for (start, len) in [(0, 4), (1, 2), (1, 1), (3, 1)] {
            let window: Vec<Column> = cols.iter().map(|c| c.slice(start, len)).collect();
            let (mut from_cols, mut from_rows) = (Vec::new(), Vec::new());
            encode_block(&window, len, &mut from_cols);
            encode_block(
                &rows_to_columns(&rows[start..start + len], 6),
                len,
                &mut from_rows,
            );
            assert_eq!(from_cols, from_rows, "window {start}+{len}");
        }
    }

    #[test]
    fn reader_can_rescan_from_start() {
        let _g = scope_lock();
        let mgr = SpillManager::new();
        let rows = mixed_rows();
        let mut f = mgr.create("t").expect("create");
        append_rows(&mut f, &rows, 6);
        let one = next_rows(&mut f.reader().expect("r1")).expect("rows");
        let two = next_rows(&mut f.reader().expect("r2")).expect("rows");
        assert_rows_eq(&one, &two);
    }

    #[test]
    fn empty_and_zero_width_blocks() {
        let _g = scope_lock();
        let mgr = SpillManager::new();
        let mut f = mgr.create("t").expect("create");
        assert_eq!(append_rows(&mut f, &[], 4), 0, "empty append is a no-op");
        // Zero-width lanes (legal in the engine for constant sources).
        append_rows(&mut f, &[vec![], vec![]], 0);
        let mut r = f.reader().expect("reader");
        let b = next_rows(&mut r).expect("block");
        assert_eq!(b, vec![Vec::<Value>::new(), Vec::<Value>::new()]);
        assert!(next_rows(&mut r).is_none());
    }

    #[test]
    fn drop_removes_files_and_scope_dir() {
        let _g = scope_lock();
        let before = live_dirs();
        let mgr = SpillManager::new();
        let mut f = mgr.create("t").expect("create");
        append_rows(&mut f, &mixed_rows(), 6);
        let dir = mgr.state.lock().dir.clone().expect("dir created");
        assert!(dir.exists());
        assert_eq!(live_dirs(), before + 1);
        drop(f);
        drop(mgr);
        assert!(!dir.exists(), "scope dir removed on drop");
        assert_eq!(live_dirs(), before);
    }

    #[test]
    fn partitions_route_by_level_shifted_hash() {
        let h = 0b101_011_110u64;
        assert_eq!(partition_of(h, 0), 0b110);
        assert_eq!(partition_of(h, 1), 0b011);
        assert_eq!(partition_of(h, 2), 0b101);
        assert_eq!(partition_of(h, MAX_SPILL_DEPTH), 0);
    }

    /// Routing at every level a spill reaches reads only the hash's
    /// low `ROUTE_BITS`, the bits a group table does not home keys on.
    #[test]
    fn partitions_read_only_the_route_bits() {
        use orthopt_common::hash::ROUTE_BITS;
        assert_eq!(3 * (MAX_SPILL_DEPTH + 1), ROUTE_BITS as usize);
        let above = u64::MAX << ROUTE_BITS;
        for h in [0u64, 0b101_011_110, 0xFFF, 0x0123_4567_89AB_CDEF] {
            for level in 0..=MAX_SPILL_DEPTH {
                assert_eq!(
                    partition_of(h | above, level),
                    partition_of(h & !above, level)
                );
            }
        }
    }

    #[test]
    fn partition_set_routes_and_flushes() {
        let _g = scope_lock();
        let mgr = SpillManager::new();
        let mut parts = SpillPartitions::create(&mgr, "p", 1).expect("create");
        let rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i)]).collect();
        let columns = rows_to_columns(&rows, 1);
        for i in 0..rows.len() {
            parts.push_lane(i % FANOUT, &columns, i).expect("push");
        }
        let mut files = parts.finish().expect("finish");
        assert_eq!(files.len(), FANOUT);
        let mut seen = 0u64;
        for (p, f) in files.iter_mut().enumerate() {
            let mut r = f.reader().expect("reader");
            while let Some(block) = next_rows(&mut r) {
                for row in block {
                    let Value::Int(i) = row[0] else {
                        panic!("expected Int, got {row:?}")
                    };
                    assert_eq!(i as usize % FANOUT, p, "row {i} routed to partition {p}");
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 100, "every routed row restored exactly once");
        let on_disk: u64 = files.iter().map(SpillFile::bytes).sum();
        assert!(on_disk > 0, "blocks hit disk");
        assert_eq!(
            mgr.spilled_bytes(),
            on_disk,
            "manager counter tracks file bytes"
        );
        assert_eq!(
            mgr.restored_bytes(),
            on_disk,
            "every written byte was read back"
        );
    }

    /// Lanes pushed off a column batch land in their partition's
    /// blocks in push order, each block flushed once its lanes cost
    /// [`SPILL_BLOCK_BYTES`] as rows and encoded as the equivalent row
    /// block — flush points included (the strings cross the block
    /// threshold mid-stream).
    #[test]
    fn pushed_lanes_write_what_pushed_rows_write() {
        let _g = scope_lock();
        let mgr = SpillManager::new();
        let rows: Vec<Row> = (0..3000)
            .map(|i| {
                let s = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::str("x".repeat((i % 90) as usize))
                };
                vec![Value::Int(i), s]
            })
            .collect();
        let columns = rows_to_columns(&rows, 2);
        let mut parts = SpillPartitions::create(&mgr, "l", 2).expect("create");
        for i in 0..rows.len() {
            parts.push_lane(i % 3, &columns, i).expect("push");
        }
        let mut blocks = 0;
        for (p, f) in parts.finish().expect("finish").iter_mut().enumerate() {
            let routed: Vec<&Row> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == p)
                .map(|(_, r)| r)
                .collect();
            let mut restored = Vec::new();
            let mut as_rows = mgr.create("r").expect("create");
            let mut r = f.reader().expect("reader");
            while let Some(block) = next_rows(&mut r) {
                let cost = orthopt_common::row::rows_bytes(&block);
                let last = orthopt_common::row::row_bytes(block.last().expect("non-empty"));
                assert!(cost - last < SPILL_BLOCK_BYTES, "flushed late");
                append_rows(&mut as_rows, &block, 2);
                restored.extend(block);
                blocks += 1;
            }
            assert!(restored.iter().eq(routed), "partition {p} keeps push order");
            assert_eq!(f.bytes(), as_rows.bytes(), "row-block encoding");
        }
        assert!(blocks > 3, "a partition flushed mid-stream");
    }
}
