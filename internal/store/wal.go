package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout inside the data directory:
//
//	wal-00000000000000000003.log    append-only record segments
//	snapshot-00000000000000000003.snap   full-state snapshots
//
// Snapshot N contains every mutation from segments < N plus a commit
// trailer naming N; recovery loads the newest committed snapshot and
// replays only segments >= N. A crash between snapshot rename and
// old-segment deletion leaves stale files that the next Open garbage-
// collects.
const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".snap"
)

func segmentPath(dir string, i uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", segmentPrefix, i, segmentSuffix))
}

func snapshotPath(dir string, i uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapshotPrefix, i, snapshotSuffix))
}

// parseIndexed extracts the numeric index from a segment or snapshot
// file name.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	i, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return i, true
}

// listIndexed returns the sorted indices of files matching
// prefix<n>suffix in dir.
func listIndexed(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if i, ok := parseIndexed(e.Name(), prefix, suffix); ok {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// replaySegment streams a segment's records into apply, stopping at a
// torn tail. It returns the byte offset of the end of the last intact
// record and whether the segment was cut short there.
func replaySegment(path string, apply func(record)) (int64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var good int64
	for {
		rec, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			return good, false, nil
		}
		if errors.Is(err, errTornRecord) {
			return good, true, nil
		}
		if err != nil {
			return good, true, nil
		}
		good += int64(8 + rec.encodedLen())
		apply(rec)
	}
}

// loadSnapshot reads a snapshot file into a fresh state map. It
// returns the state and the minimum WAL segment index the snapshot
// does not cover. Snapshots without an intact commit trailer (a crash
// during snapshot write) report an error so Open can fall back to an
// older one.
func loadSnapshot(path string) (map[string]map[string][]byte, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	state := make(map[string]map[string][]byte)
	for {
		rec, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			return nil, 0, fmt.Errorf("store: snapshot %s lacks commit trailer", path)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: snapshot %s: %w", path, err)
		}
		switch rec.op {
		case opPut:
			applyRecord(state, rec)
		case opCommit:
			minSeg, n := binary.Uvarint(rec.value)
			if n <= 0 {
				return nil, 0, fmt.Errorf("store: snapshot %s: bad commit trailer", path)
			}
			return state, minSeg, nil
		default:
			return nil, 0, fmt.Errorf("store: snapshot %s: unexpected op %d", path, rec.op)
		}
	}
}

// writeSnapshotFile writes the full state plus a commit trailer to a
// temp file, fsyncs it, and atomically renames it into place.
func writeSnapshotFile(dir string, minSeg uint64, state map[string]map[string][]byte) error {
	final := snapshotPath(dir, minSeg)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var buf []byte

	spaces := make([]string, 0, len(state))
	for sp := range state {
		spaces = append(spaces, sp)
	}
	sort.Strings(spaces)
	for _, sp := range spaces {
		keys := make([]string, 0, len(state[sp]))
		for k := range state[sp] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = appendRecord(buf[:0], record{op: opPut, space: sp, key: k, value: state[sp][k]})
			if _, err := bw.Write(buf); err != nil {
				f.Close()
				return err
			}
		}
	}
	trailer := binary.AppendUvarint(nil, minSeg)
	buf = appendRecord(buf[:0], record{op: opCommit, value: trailer})
	if _, err := bw.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and removals are durable.
// Some platforms refuse fsync on directories; the rename itself is
// still atomic there, so sync failures are swallowed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

func applyRecord(state map[string]map[string][]byte, rec record) {
	switch rec.op {
	case opPut:
		sp := state[rec.space]
		if sp == nil {
			sp = make(map[string][]byte)
			state[rec.space] = sp
		}
		// Cap at the length: a Put value is the caller's buffer, and the
		// first append to it must reallocate rather than write past its
		// length into bytes the caller owns.
		n := len(rec.value)
		sp[rec.key] = rec.value[:n:n]
	case opAppend:
		sp := state[rec.space]
		if sp == nil {
			sp = make(map[string][]byte)
			state[rec.space] = sp
		}
		// Grow the chain in place, amortized: nothing outside the store
		// sees its spare capacity, because Get and List copy and the
		// snapshot writer reads under the store mutex.
		sp[rec.key] = append(sp[rec.key], rec.value...)
	case opDelete:
		if sp := state[rec.space]; sp != nil {
			delete(sp, rec.key)
			if len(sp) == 0 {
				delete(state, rec.space)
			}
		}
	}
}
