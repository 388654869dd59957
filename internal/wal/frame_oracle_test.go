package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The frame reader recovery used before it parsed each file from one
// buffer, kept as the oracle FuzzRecoverSegment checks recovery against:
// readFrame reads one frame from an io.Reader with two reads, and
// oracleScan walks a segment with it.

// readFrame reads one frame from r. It returns io.EOF at a clean end and
// an error for torn or corrupt data.
func readFrame(r io.Reader) (seq uint64, data []byte, n int64, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("torn header: %w", err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if length < seqSize || length > MaxRecordSize {
		return 0, nil, 0, fmt.Errorf("implausible record length %d", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, 0, fmt.Errorf("torn body: %w", err)
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, nil, 0, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	return binary.BigEndian.Uint64(body), body[seqSize:], int64(headerSize) + int64(length), nil
}

// oracleScan returns the records of segment's longest valid prefix after
// a snapshot at snapSeq, the last sequence number recovered, and the
// prefix's length: frames are read until the first torn or corrupt one or
// the first sequence gap, and frames the snapshot covers are skipped.
func oracleScan(segment []byte, snapSeq uint64) (records []Record, lastSeq uint64, goodLen int64) {
	r := bytes.NewReader(segment)
	lastSeq = snapSeq
	for {
		seq, data, n, err := readFrame(r)
		if err != nil {
			return records, lastSeq, goodLen
		}
		switch {
		case seq <= snapSeq:
		case seq == lastSeq+1:
			records = append(records, Record{Seq: seq, Data: data})
			lastSeq = seq
		default:
			return records, lastSeq, goodLen
		}
		goodLen += n
	}
}
