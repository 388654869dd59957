// Package wal implements a write-ahead log with snapshot-based recovery
// for the federation plane's durable state. Records are length-prefixed,
// CRC32-checksummed, and carry a monotonically increasing sequence number;
// a snapshot captures the full state at a sequence point and rotates the
// log so disk usage and recovery time stay bounded.
//
// Durability model: every Append issues one write(2) for the whole frame,
// so an acknowledged record survives the death of the process (kill -9)
// as soon as Append returns. Whether it also survives the death of the
// *machine* depends on the fsync policy: FsyncAlways syncs before Append
// returns, FsyncInterval syncs on a timer and bounds the power-loss window
// to one interval. Recovery loads the newest valid snapshot and replays
// the log suffix, stopping at the first torn, corrupt, or out-of-sequence
// record — any durable prefix of the log is a consistent state, so a torn
// tail simply rolls the store back to the last record that fully reached
// the disk.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fedshare/internal/obs"
)

const (
	// headerSize prefixes every frame: 4-byte big-endian payload length and
	// 4-byte CRC32 (IEEE) of the payload.
	headerSize = 8
	// seqSize leads every payload: the record's 8-byte sequence number.
	seqSize = 8
	// MaxRecordSize bounds one record so a corrupt length header cannot
	// force an unbounded allocation during recovery.
	MaxRecordSize = 16 << 20
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval writes each record to the OS immediately but calls
	// fsync on a timer: process crashes lose nothing, power loss can lose
	// at most one interval of records. This is the default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: an acknowledged record
	// survives power loss, at the cost of one fsync per record.
	FsyncAlways
)

func (p FsyncPolicy) String() string {
	if p == FsyncAlways {
		return "always"
	}
	return "interval"
}

// ParseFsyncPolicy parses "always" or "interval".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or interval)", s)
}

// Options configures a Log. The zero value of every field but Dir selects
// a sensible default. Recovery and maintenance diagnostics go to slog's
// default logger: Warn for data dropped or skipped, Error for a failed
// background fsync.
type Options struct {
	// Dir is the data directory (created if absent). Required.
	Dir string
	// Policy selects the fsync discipline (default FsyncInterval).
	Policy FsyncPolicy
	// Interval paces background fsyncs under FsyncInterval (default 100ms).
	Interval time.Duration
	// Registry receives the WAL's instrumentation (default obs.Default).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	return o
}

// Record is one recovered log entry. Data is a sub-slice of the buffer its
// segment was read into.
type Record struct {
	Seq  uint64
	Data []byte
}

// Recovered reports what Open reconstructed from the data directory.
type Recovered struct {
	// Snapshot is the newest valid snapshot payload (nil if none).
	Snapshot []byte
	// SnapshotSeq is the sequence point the snapshot captured.
	SnapshotSeq uint64
	// Records is the valid log suffix after SnapshotSeq, in order.
	Records []Record
	// LastSeq is the highest durable sequence number; appends resume at
	// LastSeq+1.
	LastSeq uint64
	// DroppedBytes counts torn/corrupt tail bytes discarded at recovery.
	DroppedBytes int64
}

// Log is an append-only write-ahead log plus snapshot store. It is safe
// for concurrent use.
type Log struct {
	opts Options
	m    *walMetrics

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // first sequence number of the live segment
	seq      uint64 // last assigned sequence number
	dirty    bool   // bytes written since the last fsync
	closed   bool

	stopFlush chan struct{}
	flushDone chan struct{}
}

// Open opens (or creates) the log in opts.Dir, recovers the durable state,
// heals any torn tail, and returns the log positioned for appending.
func Open(opts Options) (*Log, *Recovered, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{opts: opts, m: newWALMetrics(opts.Registry)}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := l.openSegmentForAppend(rec); err != nil {
		return nil, nil, err
	}
	l.m.recoveries.Inc()
	l.m.replayed.Add(int64(len(rec.Records)))
	if rec.DroppedBytes > 0 {
		l.m.tornBytes.Add(rec.DroppedBytes)
		slog.Warn("wal: dropped torn tail", "bytes", rec.DroppedBytes, "last_seq", rec.LastSeq)
	}
	if l.opts.Policy == FsyncInterval {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, rec, nil
}

// --- File naming ---

func segmentName(start uint64) string { return fmt.Sprintf("wal-%020d.log", start) }
func snapshotName(seq uint64) string  { return fmt.Sprintf("snap-%020d.snap", seq) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var n uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// listFiles returns the sequence numbers of matching files, ascending.
func (l *Log) listFiles(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// --- Frame encoding ---

// appendFrame encodes one record (seq, data) as a frame in one buffer.
func appendFrame(seq uint64, data []byte) []byte {
	frame := make([]byte, headerSize+seqSize+len(data))
	body := frame[headerSize:]
	binary.BigEndian.PutUint64(body, seq)
	copy(body[seqSize:], data)
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	return frame
}

// parseFrame parses the frame at the start of b. data is a sub-slice of b,
// and n the frame's length in bytes. A torn or corrupt frame is an error.
func parseFrame(b []byte) (seq uint64, data []byte, n int, err error) {
	if len(b) < headerSize {
		return 0, nil, 0, fmt.Errorf("torn header: %d of %d bytes", len(b), headerSize)
	}
	length := binary.BigEndian.Uint32(b[0:4])
	want := binary.BigEndian.Uint32(b[4:8])
	if length < seqSize || length > MaxRecordSize {
		return 0, nil, 0, fmt.Errorf("implausible record length %d", length)
	}
	n = headerSize + int(length)
	if len(b) < n {
		return 0, nil, 0, fmt.Errorf("torn body: %d of %d bytes", len(b)-headerSize, length)
	}
	body := b[headerSize:n:n]
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, nil, 0, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	return binary.BigEndian.Uint64(body), body[seqSize:], n, nil
}

// --- Recovery ---

// recover loads the newest valid snapshot and the valid log suffix. It
// heals the directory: a torn tail is truncated away and segments past a
// corrupt record are removed, so the on-disk state matches what was
// recovered and future appends extend a clean log.
func (l *Log) recover() (*Recovered, error) {
	rec := &Recovered{}

	snaps, err := l.listFiles("snap-", ".snap")
	if err != nil {
		return nil, err
	}
	// Try newest first; fall back past corrupt snapshots.
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(l.opts.Dir, snapshotName(snaps[i]))
		seq, data, rerr := readSnapshotFile(path)
		if rerr != nil {
			slog.Warn("wal: skipping snapshot", "path", path, "err", rerr)
			continue
		}
		rec.Snapshot = data
		rec.SnapshotSeq = seq
		break
	}
	rec.LastSeq = rec.SnapshotSeq

	segs, err := l.listFiles("wal-", ".log")
	if err != nil {
		return nil, err
	}
	stopped := false // first bad record seen: everything after is discarded
	for i, start := range segs {
		path := filepath.Join(l.opts.Dir, segmentName(start))
		if stopped {
			slog.Warn("wal: removing segment past a corrupt record", "path", path)
			_ = os.Remove(path)
			continue
		}
		goodLen, bad := l.scanSegment(path, rec)
		if bad {
			stopped = true
			// Heal: drop everything from the first bad byte so appends
			// never follow garbage.
			if info, err := os.Stat(path); err == nil {
				rec.DroppedBytes += info.Size() - goodLen
			}
			if goodLen == 0 && i > 0 {
				_ = os.Remove(path)
			} else if err := os.Truncate(path, goodLen); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
		}
	}
	return rec, nil
}

// scanSegment reads one segment into one buffer and appends its valid
// records to rec; each record's Data is a sub-slice of that buffer. It
// returns the byte offset of the first invalid record (== file size when
// the whole segment is valid) and whether an invalid record was found.
func (l *Log) scanSegment(path string, rec *Recovered) (goodLen int64, bad bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		slog.Warn("wal: unreadable segment", "path", path, "err", err)
		return 0, true
	}
	for off := 0; off < len(buf); {
		seq, data, n, err := parseFrame(buf[off:])
		if err != nil {
			slog.Warn("wal: stopping at bad record", "path", path, "after_seq", rec.LastSeq, "err", err)
			return int64(off), true
		}
		switch {
		case seq <= rec.SnapshotSeq:
			// Already captured by the snapshot (rotation raced a crash).
		case seq == rec.LastSeq+1:
			rec.Records = append(rec.Records, Record{Seq: seq, Data: data})
			rec.LastSeq = seq
		default:
			// A sequence gap is corruption: stop at the first bad record.
			slog.Warn("wal: stopping at sequence gap", "path", path, "seq", seq, "after_seq", rec.LastSeq)
			return int64(off), true
		}
		off += n
	}
	return int64(len(buf)), false
}

// readSnapshotFile validates and returns one snapshot file's payload, a
// sub-slice of the file's bytes.
func readSnapshotFile(path string) (seq uint64, data []byte, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	seq, data, _, err = parseFrame(buf)
	return seq, data, err
}

// openSegmentForAppend positions l.f at the end of the newest segment,
// creating a fresh one when none exists.
func (l *Log) openSegmentForAppend(rec *Recovered) error {
	l.seq = rec.LastSeq
	segs, err := l.listFiles("wal-", ".log")
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return l.newSegmentLocked(l.seq + 1)
	}
	start := segs[len(segs)-1]
	path := filepath.Join(l.opts.Dir, segmentName(start))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment for append: %w", err)
	}
	l.f = f
	l.segStart = start
	return nil
}

// newSegmentLocked creates and switches to segment starting at start.
// Caller holds l.mu (or is in single-threaded Open).
func (l *Log) newSegmentLocked(start uint64) error {
	path := filepath.Join(l.opts.Dir, segmentName(start))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		_ = f.Close()
		return err
	}
	if l.f != nil {
		_ = l.f.Sync()
		_ = l.f.Close()
	}
	l.f = f
	l.segStart = start
	l.dirty = false
	return nil
}

// Append durably logs one record and returns its sequence number. Under
// FsyncAlways the record has been fsynced when Append returns; under
// FsyncInterval it has reached the OS (surviving process death) and will
// be fsynced within one interval.
func (l *Log) Append(data []byte) (uint64, error) {
	if len(data) > MaxRecordSize-seqSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(data))
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed log")
	}
	seq := l.seq + 1
	frame := appendFrame(seq, data)
	if _, err := l.f.Write(frame); err != nil {
		// A short write leaves a torn tail; recovery heals it, but this
		// log can no longer guarantee ordering. Do not advance seq.
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = seq
	l.dirty = true
	l.m.appends.Inc()
	l.m.appendSeconds.Observe(time.Since(start).Seconds())
	if l.opts.Policy == FsyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// syncLocked fsyncs the live segment. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.m.fsyncs.Inc()
	l.m.fsyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// flushLoop paces background fsyncs under FsyncInterval.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			if err := l.Sync(); err != nil {
				slog.Error("wal: background fsync failed", "err", err)
			}
		}
	}
}

// Snapshot atomically persists the full state captured at the current
// sequence point, then rotates the log: a fresh segment begins at seq+1,
// and segments and snapshots made obsolete are pruned. state must describe
// every record up to and including LastSeq().
func (l *Log) Snapshot(state []byte) error {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: snapshot of closed log")
	}
	// The snapshot supersedes the live segment's records: make sure they
	// are on disk first so a crash mid-snapshot still recovers cleanly.
	if err := l.syncLocked(); err != nil {
		return err
	}
	seq := l.seq
	final := filepath.Join(l.opts.Dir, snapshotName(seq))
	tmp := final + ".tmp"
	frame := appendFrame(seq, state)
	if err := writeFileSync(tmp, frame); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		return err
	}
	// Rotate — unless the live segment is already empty (a snapshot with
	// no appends since the last rotation, e.g. back-to-back Snapshot calls
	// or a clean Close of an idle log), in which case segment seq+1 is the
	// one we are writing to and there is nothing to rotate away from.
	if l.segStart != seq+1 {
		if err := l.newSegmentLocked(seq + 1); err != nil {
			return err
		}
	}
	l.pruneLocked(seq)
	l.m.snapshots.Inc()
	l.m.snapshotSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// keepSnapshots is how many of the newest snapshot files pruning keeps, so
// recovery can fall back past a corrupt one.
const keepSnapshots = 2

// pruneLocked removes segments fully covered by the snapshot at seq and
// all but the newest keepSnapshots snapshots. Best effort: pruning
// failures only cost disk, never correctness.
func (l *Log) pruneLocked(seq uint64) {
	if segs, err := l.listFiles("wal-", ".log"); err == nil {
		for _, start := range segs {
			if start <= seq && start != l.segStart {
				_ = os.Remove(filepath.Join(l.opts.Dir, segmentName(start)))
			}
		}
	}
	if snaps, err := l.listFiles("snap-", ".snap"); err == nil {
		for i := 0; i+keepSnapshots < len(snaps); i++ {
			_ = os.Remove(filepath.Join(l.opts.Dir, snapshotName(snaps[i])))
		}
	}
}

// Close syncs and closes the log. The log cannot be reused; reopen with
// Open.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stopFlush
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.flushDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.f != nil {
		if l.dirty {
			err = l.f.Sync()
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
