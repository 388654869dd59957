package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fedshare/internal/obs"
)

func openTestLog(t *testing.T, dir string, opts Options) (*Log, *Recovered) {
	t.Helper()
	opts.Dir = dir
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, rec
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, want)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTestLog(t, dir, Options{})
	if rec.LastSeq != 0 || rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2 := openTestLog(t, dir, Options{})
	if rec2.LastSeq != 10 || len(rec2.Records) != 10 {
		t.Fatalf("recovered LastSeq=%d records=%d, want 10/10", rec2.LastSeq, len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq = %d", i, r.Seq)
		}
		if want := fmt.Sprintf("record-%04d", i); string(r.Data) != want {
			t.Errorf("record %d: data = %q, want %q", i, r.Data, want)
		}
	}
}

func TestSnapshotAndSuffixRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 5)
	if err := l.Snapshot([]byte("state-at-5")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openTestLog(t, dir, Options{})
	if string(rec.Snapshot) != "state-at-5" || rec.SnapshotSeq != 5 {
		t.Fatalf("snapshot = %q at %d, want state-at-5 at 5", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 3 || rec.LastSeq != 8 {
		t.Fatalf("suffix = %d records LastSeq=%d, want 3/8", len(rec.Records), rec.LastSeq)
	}
	if rec.Records[0].Seq != 6 {
		t.Fatalf("suffix starts at %d, want 6", rec.Records[0].Seq)
	}
}

func TestSnapshotRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	for round := 0; round < 4; round++ {
		appendN(t, l, round*4, 4)
		if err := l.Snapshot([]byte(fmt.Sprintf("state-%d", round))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := l.listFiles("wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("segments after pruning = %v, want exactly the live one", segs)
	}
	snaps, err := l.listFiles("snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != keepSnapshots || snaps[0] != 12 || snaps[1] != 16 {
		t.Errorf("snapshots after pruning = %v, want [12 16]", snaps)
	}
}

func TestSnapshotOfIdleLog(t *testing.T) {
	// A snapshot when the live segment has no records — a fresh log, or
	// back-to-back snapshots with no appends in between — must not try to
	// rotate into the segment file that already exists.
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	if err := l.Snapshot([]byte("empty-state")); err != nil {
		t.Fatalf("snapshot of fresh log: %v", err)
	}
	if err := l.Snapshot([]byte("empty-state-2")); err != nil {
		t.Fatalf("second idle snapshot: %v", err)
	}
	appendN(t, l, 0, 3)
	if err := l.Snapshot([]byte("state-at-3")); err != nil {
		t.Fatal(err)
	}
	// Immediately snapshot again: the rotation above left an empty live
	// segment, the exact shape of a graceful Close after a periodic cut.
	if err := l.Snapshot([]byte("state-at-3-again")); err != nil {
		t.Fatalf("snapshot right after rotation: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openTestLog(t, dir, Options{})
	if string(rec.Snapshot) != "state-at-3-again" || rec.SnapshotSeq != 3 {
		t.Fatalf("recovered snapshot %q at %d, want state-at-3-again at 3", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 0 || rec.LastSeq != 3 {
		t.Fatalf("suffix = %d records LastSeq=%d, want 0/3", len(rec.Records), rec.LastSeq)
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	if err := l.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 3)
	if err := l.Snapshot([]byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot's checksum region.
	path := filepath.Join(dir, snapshotName(6))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openTestLog(t, dir, Options{})
	if string(rec.Snapshot) != "good" || rec.SnapshotSeq != 3 {
		t.Fatalf("fell back to %q at %d, want good at 3", rec.Snapshot, rec.SnapshotSeq)
	}
	// Records 4..6 were pruned at the second snapshot, so recovery resumes
	// from 3; that is the documented cost of a corrupt snapshot, not data
	// loss the caller acknowledged.
	if rec.LastSeq < 3 {
		t.Fatalf("LastSeq = %d, want >= 3", rec.LastSeq)
	}
}

// TestTornTailEveryByteBoundary is the randomized-crash-point suite pinned
// down to determinism: the final record is truncated at every possible
// byte boundary, and recovery must always come back to exactly the
// records before it, then keep working as a live log.
func TestTornTailEveryByteBoundary(t *testing.T) {
	const keep = 4 // records that must survive
	base := t.TempDir()
	l, _ := openTestLog(t, base, Options{})
	appendN(t, l, 0, keep)
	goodSize := segmentSize(t, base)
	appendN(t, l, keep, 1) // the record to tear
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fullSize := segmentSize(t, base)
	seg := findSegment(t, base)
	full, err := os.ReadFile(filepath.Join(base, seg))
	if err != nil {
		t.Fatal(err)
	}

	for cut := goodSize; cut < fullSize; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seg), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := openTestLog(t, dir, Options{})
		if rec.LastSeq != keep || len(rec.Records) != keep {
			t.Fatalf("cut at %d: recovered LastSeq=%d records=%d, want %d/%d",
				cut, rec.LastSeq, len(rec.Records), keep, keep)
		}
		// Recovery counts the bytes that reached disk but do not form a
		// whole valid record — the torn fragment, not the unwritten rest.
		if rec.DroppedBytes != cut-goodSize {
			t.Errorf("cut at %d: DroppedBytes = %d, want %d", cut, rec.DroppedBytes, cut-goodSize)
		}
		// The healed log must append cleanly on top of the truncation.
		seq, err := l2.Append([]byte("after-crash"))
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if seq != keep+1 {
			t.Fatalf("cut at %d: resumed at seq %d, want %d", cut, seq, keep+1)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2 := openTestLog(t, dir, Options{})
		if rec2.LastSeq != keep+1 || string(rec2.Records[keep].Data) != "after-crash" {
			t.Fatalf("cut at %d: second recovery LastSeq=%d, want %d with after-crash tail",
				cut, rec2.LastSeq, keep+1)
		}
	}
}

// TestCorruptTailEveryByte flips each byte of the final record in turn;
// recovery must stop before the corrupt record every time.
func TestCorruptTailEveryByte(t *testing.T) {
	const keep = 3
	base := t.TempDir()
	l, _ := openTestLog(t, base, Options{})
	appendN(t, l, 0, keep)
	goodSize := segmentSize(t, base)
	appendN(t, l, keep, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := findSegment(t, base)
	full, err := os.ReadFile(filepath.Join(base, seg))
	if err != nil {
		t.Fatal(err)
	}

	for off := goodSize; off < int64(len(full)); off++ {
		dir := t.TempDir()
		mutated := append([]byte(nil), full...)
		mutated[off] ^= 0x5a
		if err := os.WriteFile(filepath.Join(dir, seg), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := openTestLog(t, dir, Options{})
		if rec.LastSeq != keep || len(rec.Records) != keep {
			t.Fatalf("flip at %d: recovered LastSeq=%d records=%d, want %d intact",
				off, rec.LastSeq, len(rec.Records), keep)
		}
		for i, r := range rec.Records {
			if want := fmt.Sprintf("record-%04d", i); string(r.Data) != want {
				t.Fatalf("flip at %d: surviving record %d corrupted: %q", off, i, r.Data)
			}
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSequenceGapStopsRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a record with a gapped sequence number and append it raw.
	seg := findSegment(t, dir)
	frame := appendFrame(7, []byte("from-the-future"))
	f, err := os.OpenFile(filepath.Join(dir, seg), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	_, rec := openTestLog(t, dir, Options{})
	if rec.LastSeq != 2 || len(rec.Records) != 2 {
		t.Fatalf("recovered past a sequence gap: LastSeq=%d records=%d", rec.LastSeq, len(rec.Records))
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncInterval, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			l, _ := openTestLog(t, dir, Options{Policy: policy, Interval: 5 * time.Millisecond, Registry: reg})
			appendN(t, l, 0, 5)
			fsyncs := reg.Counter("fedshare_wal_fsyncs_total", "")
			if policy == FsyncAlways {
				if got := fsyncs.Value(); got != 5 {
					t.Errorf("fsyncs = %d, want 5 (one per append)", got)
				}
			} else {
				deadline := time.Now().Add(2 * time.Second)
				for fsyncs.Value() == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if fsyncs.Value() == 0 {
					t.Error("interval policy never fsynced in the background")
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openTestLog(t, dir, Options{Policy: policy})
			if rec.LastSeq != 5 {
				t.Errorf("recovered LastSeq = %d, want 5", rec.LastSeq)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	if p, err := ParseFsyncPolicy("always"); err != nil || p != FsyncAlways {
		t.Errorf("always -> %v, %v", p, err)
	}
	if p, err := ParseFsyncPolicy("interval"); err != nil || p != FsyncInterval {
		t.Errorf("interval -> %v, %v", p, err)
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	l, _ := openTestLog(t, t.TempDir(), Options{})
	if _, err := l.Append(make([]byte, MaxRecordSize)); err == nil {
		t.Fatal("oversized append accepted")
	}
	if seq, err := l.Append([]byte("ok")); err != nil || seq != 1 {
		t.Fatalf("append after rejection: seq=%d err=%v", seq, err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openTestLog(t, dir, Options{})
	if rec.LastSeq != workers*per || len(rec.Records) != workers*per {
		t.Fatalf("recovered %d records LastSeq=%d, want %d", len(rec.Records), rec.LastSeq, workers*per)
	}
	seen := map[string]bool{}
	for _, r := range rec.Records {
		seen[string(r.Data)] = true
	}
	if len(seen) != workers*per {
		t.Errorf("distinct payloads = %d, want %d", len(seen), workers*per)
	}
}

func TestSnapshotSurvivesTornTmpFile(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	appendN(t, l, 0, 3)
	if err := l.Snapshot([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-snapshot leaves only a .tmp file, which recovery ignores.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(9)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openTestLog(t, dir, Options{})
	if string(rec.Snapshot) != "committed" || rec.SnapshotSeq != 3 {
		t.Fatalf("recovered %q at %d, want committed at 3", rec.Snapshot, rec.SnapshotSeq)
	}
}

func TestEmptyRecordRoundTrips(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openTestLog(t, dir, Options{})
	if len(rec.Records) != 1 || len(rec.Records[0].Data) != 0 {
		t.Fatalf("recovered %+v, want one empty record", rec.Records)
	}
}

// --- helpers ---

func findSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}
	return segs[0]
}

func segmentSize(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, findSegment(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestFrameEncodingIsStable(t *testing.T) {
	frame := appendFrame(1, []byte("x"))
	// 8-byte header + 8-byte seq + 1 data byte.
	if len(frame) != headerSize+seqSize+1 {
		t.Fatalf("frame length = %d", len(frame))
	}
	seq, data, n, err := readFrame(bytes.NewReader(frame))
	if err != nil || seq != 1 || string(data) != "x" || n != int64(len(frame)) {
		t.Fatalf("readFrame = %d %q %d %v", seq, data, n, err)
	}
}

// FuzzRecoverSegment opens a data directory that holds a snapshot at seq 2
// and one log segment of arbitrary bytes. Open never panics; it recovers
// exactly the records of the segment's longest valid prefix, as the
// per-frame reader in frame_oracle_test.go reads it, and counts the rest
// as dropped; it truncates the segment to that prefix; and a second Open
// recovers the same records with nothing dropped. The seed corpus lives in
// testdata/fuzz.
func FuzzRecoverSegment(f *testing.F) {
	const snapSeq = 2
	f.Fuzz(func(t *testing.T, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(snapSeq)), appendFrame(snapSeq, []byte("snapshot")), 0o644); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, segmentName(snapSeq+1))
		if err := os.WriteFile(seg, segment, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantLast, goodLen := oracleScan(segment, snapSeq)
		dropped := int64(len(segment)) - goodLen
		for open := 1; open <= 2; open++ {
			l, rec, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatalf("open %d: %v", open, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if rec.SnapshotSeq != snapSeq || string(rec.Snapshot) != "snapshot" {
				t.Fatalf("open %d: snapshot %q at %d, want the one at %d", open, rec.Snapshot, rec.SnapshotSeq, snapSeq)
			}
			if rec.LastSeq != wantLast || len(rec.Records) != len(want) || rec.DroppedBytes != dropped {
				t.Fatalf("open %d: LastSeq %d, %d records, %d bytes dropped; want %d, %d, %d",
					open, rec.LastSeq, len(rec.Records), rec.DroppedBytes, wantLast, len(want), dropped)
			}
			for i, r := range rec.Records {
				if r.Seq != want[i].Seq || !bytes.Equal(r.Data, want[i].Data) {
					t.Fatalf("open %d: record %d is seq %d %q, want seq %d %q", open, i, r.Seq, r.Data, want[i].Seq, want[i].Data)
				}
			}
			got, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, segment[:goodLen]) {
				t.Fatalf("open %d: segment holds %d bytes, want the %d-byte valid prefix", open, len(got), goodLen)
			}
			dropped = 0
		}
	})
}
