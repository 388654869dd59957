package sfa

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"fedshare/internal/obs"
	"fedshare/internal/wal"
)

// DurableOptions configures the WAL-backed store. Zero fields take
// defaults, so DurableOptions{Dir: d} is a working configuration. The
// store and its WAL log diagnostics through slog's default logger.
type DurableOptions struct {
	// Dir is the data directory (required).
	Dir string
	// Fsync selects the WAL durability discipline (default
	// wal.FsyncInterval: process crashes lose nothing, power loss loses
	// at most FsyncInterval of acknowledged work).
	Fsync wal.FsyncPolicy
	// FsyncInterval paces background fsyncs (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery cuts a snapshot and rotates the log after this many
	// appends (default 4096; negative disables automatic snapshots).
	SnapshotEvery int
	// Registry receives the WAL instrumentation (default obs.Default).
	Registry *obs.Registry
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	return o
}

// DurableStore persists server mutations in a write-ahead log and cuts
// periodic state snapshots so recovery replays a bounded suffix. It
// implements Store.
type DurableStore struct {
	log   *wal.Log
	every int

	mu     sync.Mutex
	since  int // appends since the last snapshot
	source func() State
}

// OpenDurableStore opens (or creates) the store in opts.Dir and returns
// what it recovered: the newest valid snapshot and the log suffix after
// it, tolerating a torn tail. The server must Restore the returned State
// before Start; it is nil only for a fresh directory.
func OpenDurableStore(opts DurableOptions) (*DurableStore, *State, error) {
	opts = opts.withDefaults()
	l, rec, err := wal.Open(wal.Options{
		Dir:      opts.Dir,
		Policy:   opts.Fsync,
		Interval: opts.FsyncInterval,
		Registry: opts.Registry,
	})
	if err != nil {
		return nil, nil, err
	}
	st, err := decodeRecovered(rec)
	if err != nil {
		_ = l.Close()
		return nil, nil, err
	}
	return &DurableStore{log: l, every: opts.SnapshotEvery}, st, nil
}

// decodeRecovered decodes the recovered snapshot and the record suffix
// after it.
func decodeRecovered(rec *wal.Recovered) (*State, error) {
	if rec.Snapshot == nil && len(rec.Records) == 0 {
		return nil, nil
	}
	st := &State{}
	if rec.Snapshot != nil {
		if err := decodeSnapshot(rec.Snapshot, st); err != nil {
			return nil, fmt.Errorf("sfa: decode snapshot at seq %d: %w", rec.SnapshotSeq, err)
		}
	}
	st.log = make([]Record, len(rec.Records))
	for i, r := range rec.Records {
		if err := decodeRecord(r.Data, &st.log[i]); err != nil {
			return nil, fmt.Errorf("sfa: decode wal record %d: %w", r.Seq, err)
		}
	}
	return st, nil
}

// decodeJSONSnapshot decodes a JSON snapshot, as builds before binary
// snapshots wrote them, refusing a version this build cannot read before
// decoding the state. It is the upgrade path: a clean shutdown of such a
// build leaves one and an empty log.
func decodeJSONSnapshot(p []byte, st *State) error {
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(p, &v); err != nil {
		return err
	}
	if v.Version != 0 && v.Version != jsonSnapshotVersion {
		return fmt.Errorf("snapshot is JSON of format version %d; %s", v.Version, snapshotFormats)
	}
	return json.Unmarshal(p, st)
}

// Append durably logs one mutation record. Snapshot pacing is only
// counted here; the cut itself happens in MaybeSnapshot, which the server
// calls once the record is applied.
func (d *DurableStore) Append(rec Record) error {
	if _, err := d.log.Append(encodeRecord(rec)); err != nil {
		return err
	}
	d.mu.Lock()
	d.since++
	d.mu.Unlock()
	return nil
}

// MaybeSnapshot cuts a snapshot and rotates the log when SnapshotEvery
// appends have accumulated. A failed snapshot does not lose data — the
// log keeps growing until the next successful cut.
func (d *DurableStore) MaybeSnapshot() error {
	d.mu.Lock()
	due := d.every > 0 && d.since >= d.every && d.source != nil
	if due {
		d.since = 0
	}
	source := d.source
	d.mu.Unlock()
	if !due {
		return nil
	}
	if err := d.snapshot(source); err != nil {
		slog.Error("sfa: periodic snapshot failed; the log keeps growing", "err", err)
		return err
	}
	return nil
}

// SetSnapshotSource registers the state serializer. The server calls this
// once at construction.
func (d *DurableStore) SetSnapshotSource(fn func() State) {
	d.mu.Lock()
	d.source = fn
	d.mu.Unlock()
}

func (d *DurableStore) snapshot(source func() State) error {
	st := source()
	return d.log.Snapshot(encodeSnapshot(&st))
}

// Close cuts a final snapshot when possible (making the next recovery a
// pure snapshot load) and closes the log. Call it after Server.Close.
func (d *DurableStore) Close() error {
	d.mu.Lock()
	source := d.source
	d.mu.Unlock()
	if source != nil {
		if err := d.snapshot(source); err != nil {
			slog.Error("sfa: final snapshot failed", "err", err)
		}
	}
	return d.log.Close()
}
