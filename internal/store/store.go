package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/telemetry"
)

// SyncMode selects the WAL durability/throughput trade-off — the knob
// measured in EXPERIMENTS.md E10.
type SyncMode int

const (
	// SyncBatched (the default) groups concurrent commits into one
	// fsync: a mutation returns only after an fsync covering its
	// record, but writers arriving during an fsync form the next
	// batch, amortizing the disk flush across them.
	SyncBatched SyncMode = iota
	// SyncAlways fsyncs after every record before the mutation
	// returns.
	SyncAlways
	// SyncNever writes records to the OS without fsync; durability is
	// deferred to snapshots, rotation, and Close. A kernel crash or
	// power loss may lose the tail (a mere process crash does not).
	SyncNever
)

// String renders the mode in flag vocabulary.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "off"
	default:
		return "batched"
	}
}

// ParseSyncMode parses the -sync flag vocabulary.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batched", "":
		return SyncBatched, nil
	case "off", "never":
		return SyncNever, nil
	default:
		return SyncBatched, fmt.Errorf("store: unknown sync mode %q (want always, batched, or off)", s)
	}
}

// Errors reported by the store.
var (
	// ErrClosed reports a mutation on a closed store.
	ErrClosed = errors.New("store: closed")
)

// Options configures Open.
type Options struct {
	// Sync selects the fsync policy (default SyncBatched).
	Sync SyncMode
	// SyncInterval is the batched-mode gather window: after the first
	// record of a batch the syncer waits this long for more writers
	// before flushing (default 0 — flush as soon as the syncer runs).
	SyncInterval time.Duration
	// SegmentBytes rotates the active WAL segment past this size
	// (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery writes a snapshot and compacts old segments after
	// this many records (default 4096; negative disables automatic
	// snapshots).
	SnapshotEvery int
	// Clock is the time source (defaults to the real clock).
	Clock clock.Clock
	// Metrics optionally records WAL size, fsyncs, and snapshot age.
	Metrics *telemetry.Registry
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.Clock == nil {
		o.Clock = clock.New()
	}
}

// Stats is a point-in-time summary of the store's on-disk state.
type Stats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// SyncMode is the configured fsync policy.
	SyncMode string `json:"sync_mode"`
	// WALBytes is the total size of live WAL segments.
	WALBytes int64 `json:"wal_bytes"`
	// Segments is the number of live WAL segments.
	Segments int `json:"segments"`
	// Records counts records appended since Open.
	Records uint64 `json:"records"`
	// Fsyncs counts fsync calls since Open.
	Fsyncs uint64 `json:"fsyncs"`
	// Keys is the number of live keys across all spaces.
	Keys int `json:"keys"`
	// SnapshotIndex is the index of the newest snapshot (0 if none).
	SnapshotIndex uint64 `json:"snapshot_index"`
	// SnapshotAge is the time since the newest snapshot was written
	// (0 if none was written or loaded).
	SnapshotAge time.Duration `json:"snapshot_age_ns"`
	// RecoveredRecords counts records replayed from disk by Open.
	RecoveredRecords uint64 `json:"recovered_records"`
	// TruncatedTail reports whether Open cut a torn record off the
	// WAL tail.
	TruncatedTail bool `json:"truncated_tail"`
}

// Store is a durable keyed byte-value journal: every mutation is
// appended to a CRC-checked write-ahead log before it is applied to
// the in-memory state, periodic snapshots bound replay time, and Open
// recovers the state from disk. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options
	clk  clock.Clock

	mu        sync.Mutex
	syncCond  *sync.Cond
	mem       map[string]map[string][]byte
	seg       *os.File
	segIndex  uint64
	segBytes  int64
	walBytes  int64
	segCount  int
	sinceSnap int
	snapIndex uint64
	snapTime  time.Time
	buf       []byte
	closed    bool

	writeSeq  uint64
	syncedSeq uint64
	syncErr   error
	// flushing is true while the group-commit fsync runs outside the
	// mutex; rotation, snapshot, and close wait it out before touching
	// the active segment file.
	flushing bool
	// firstPending is when the oldest unsynced record was appended —
	// the start of the batched-mode gather window.
	firstPending time.Time

	records   uint64
	fsyncs    uint64
	recovered uint64
	truncated bool

	syncReq    chan struct{}
	syncerStop chan struct{}
	syncerDone chan struct{}

	met storeMetrics
}

// storeMetrics are the telemetry handles (nil-safe when unwired).
type storeMetrics struct {
	walBytes     *telemetry.Gauge
	fsyncsTotal  *telemetry.Counter
	records      *telemetry.CounterVec
	snapshots    *telemetry.Counter
	snapshotAge  *telemetry.Gauge
	segments     *telemetry.Gauge
	fsyncSeconds *telemetry.Histogram
	commitBatch  *telemetry.Histogram
	recordBytes  *telemetry.Histogram
	rotations    *telemetry.Counter
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	return storeMetrics{
		walBytes: reg.Gauge("masc_store_wal_bytes",
			"Total size in bytes of live write-ahead-log segments.").With(),
		fsyncsTotal: reg.Counter("masc_store_fsyncs_total",
			"WAL and snapshot fsync calls.").With(),
		records: reg.Counter("masc_store_records_total",
			"Records appended to the write-ahead log.", "op"),
		snapshots: reg.Counter("masc_store_snapshots_total",
			"Snapshots written (each compacts the covered WAL segments).").With(),
		snapshotAge: reg.Gauge("masc_store_snapshot_age_seconds",
			"Seconds since the newest snapshot was written (updated on store activity).").With(),
		segments: reg.Gauge("masc_store_segments",
			"Live WAL segment files.").With(),
		fsyncSeconds: reg.Histogram("masc_store_fsync_seconds",
			"Latency of WAL segment fsync calls.", telemetry.DefSyncBuckets).With(),
		commitBatch: reg.Histogram("masc_store_commit_batch_records",
			"Records covered by one durability point (group-commit batch size).", telemetry.DefCountBuckets).With(),
		recordBytes: reg.Histogram("masc_store_record_bytes",
			"Encoded size of records appended to the write-ahead log.", telemetry.DefByteBuckets).With(),
		rotations: reg.Counter("masc_store_segment_rotations_total",
			"WAL segment rotations (size-triggered seals of the active segment).").With(),
	}
}

// Open loads (or creates) a store in dir: the newest committed
// snapshot is loaded, WAL segments past it are replayed in order, and
// a torn record at the tail — the signature of a crash mid-append —
// is truncated away. Stale segments and snapshots left by an earlier
// crash are garbage-collected.
func Open(dir string, opts Options) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		clk:        opts.Clock,
		mem:        make(map[string]map[string][]byte),
		syncReq:    make(chan struct{}, 1),
		syncerStop: make(chan struct{}),
		syncerDone: make(chan struct{}),
		met:        newStoreMetrics(opts.Metrics),
	}
	s.syncCond = sync.NewCond(&s.mu)

	if err := s.recover(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncBatched {
		go s.syncer()
	} else {
		close(s.syncerDone)
	}
	s.publishGauges()
	return s, nil
}

// recover loads snapshot + WAL into memory and positions the active
// segment for appending.
func (s *Store) recover() error {
	snaps, err := listIndexed(s.dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		return err
	}
	var minSeg uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		state, min, err := loadSnapshot(snapshotPath(s.dir, snaps[i]))
		if err != nil {
			// Incomplete snapshot (crash mid-write): ignore it and fall
			// back to the previous one. It is deleted below.
			continue
		}
		s.mem = state
		minSeg = min
		s.snapIndex = snaps[i]
		s.snapTime = s.clk.Now()
		break
	}

	segs, err := listIndexed(s.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return err
	}
	live := segs[:0]
	for _, i := range segs {
		if i >= minSeg {
			live = append(live, i)
		} else {
			_ = os.Remove(segmentPath(s.dir, i))
		}
	}
	for _, i := range snaps {
		if i != s.snapIndex {
			_ = os.Remove(snapshotPath(s.dir, i))
		}
	}
	// Remove stale snapshot temp files from a crash mid-snapshot.
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
				_ = os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}

	for n, i := range live {
		kept, torn, err := replaySegment(segmentPath(s.dir, i), func(rec record) {
			applyRecord(s.mem, rec)
			s.recovered++
		})
		if err != nil {
			return err
		}
		s.walBytes += kept
		if torn {
			s.truncated = true
			if err := os.Truncate(segmentPath(s.dir, i), kept); err != nil {
				return err
			}
			// Anything after a torn record never committed; later
			// segments cannot exist in a sane history — drop them.
			for _, later := range live[n+1:] {
				_ = os.Remove(segmentPath(s.dir, later))
			}
			live = live[:n+1]
			break
		}
	}

	s.segIndex = minSeg
	if len(live) > 0 {
		s.segIndex = live[len(live)-1]
	}
	s.segCount = len(live)
	if s.segCount == 0 {
		s.segCount = 1
	}
	f, err := os.OpenFile(segmentPath(s.dir, s.segIndex), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(info.Size(), 0); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segBytes = info.Size()
	return nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Mode returns the configured fsync policy.
func (s *Store) Mode() SyncMode { return s.opts.Sync }

// Put durably sets a key. It returns after the record is durable per
// the configured SyncMode.
func (s *Store) Put(space, key string, value []byte) error {
	return s.mutate(record{op: opPut, space: space, key: key, value: value})
}

// Append appends value to the existing value at (space, key), creating
// the key if absent — the delta-record primitive of the checkpoint
// fast path: one small WAL record extends a large value without
// rewriting it. Like Put it returns after the record is durable per
// the configured SyncMode.
func (s *Store) Append(space, key string, value []byte) error {
	return s.mutate(record{op: opAppend, space: space, key: key, value: value})
}

// Delete durably removes a key.
func (s *Store) Delete(space, key string) error {
	return s.mutate(record{op: opDelete, space: space, key: key})
}

// PutAsync is Put without the durability wait: the record is appended
// to the WAL, applied to memory, and — in batched mode — the
// group-commit syncer is nudged, but the call does not block until the
// fsync lands. Durability follows within the gather window;
// WaitDurable blocks until it has. In SyncAlways mode PutAsync falls
// back to the synchronous Put so that mode's per-record guarantee is
// never weakened.
func (s *Store) PutAsync(space, key string, value []byte) error {
	return s.mutateAsync(record{op: opPut, space: space, key: key, value: value})
}

// AppendAsync is Append without the durability wait (see PutAsync).
func (s *Store) AppendAsync(space, key string, value []byte) error {
	return s.mutateAsync(record{op: opAppend, space: space, key: key, value: value})
}

// DeleteAsync is Delete without the durability wait (see PutAsync).
func (s *Store) DeleteAsync(space, key string) error {
	return s.mutateAsync(record{op: opDelete, space: space, key: key})
}

// WaitDurable blocks until every record written before the call is
// covered by an fsync. In batched mode it nudges the syncer and waits;
// in SyncAlways mode every mutation was already durable on return; in
// SyncNever mode durability is deferred by policy, so it returns
// immediately.
func (s *Store) WaitDurable() error {
	if s.opts.Sync != SyncBatched {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	seq := s.writeSeq
	s.mu.Unlock()
	select {
	case s.syncReq <- struct{}{}:
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncedSeq < seq && s.syncErr == nil && !s.closed {
		s.syncCond.Wait()
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	if s.syncedSeq < seq {
		return ErrClosed
	}
	return nil
}

// Get returns a copy of the value at (space, key).
func (s *Store) Get(space, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.mem[space]
	if sp == nil {
		return nil, false
	}
	v, ok := sp[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// List returns a copy of every key/value in a space.
func (s *Store) List(space string) map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.mem[space]))
	for k, v := range s.mem[space] {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

func (s *Store) mutate(rec record) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.appendLocked(rec); err != nil {
		s.mu.Unlock()
		return err
	}
	applyRecord(s.mem, rec)
	seq := s.writeSeq
	s.met.records.With(opName(rec.op)).Inc()
	s.maybeSnapshotLocked()

	switch s.opts.Sync {
	case SyncAlways:
		err := s.fsyncLocked()
		s.markSyncedLocked()
		s.mu.Unlock()
		return err
	case SyncNever:
		s.mu.Unlock()
		return nil
	default: // SyncBatched: group commit.
		select {
		case s.syncReq <- struct{}{}:
		default:
		}
		for s.syncedSeq < seq && s.syncErr == nil && !s.closed {
			s.syncCond.Wait()
		}
		err := s.syncErr
		if err == nil && s.syncedSeq < seq {
			err = ErrClosed
		}
		s.mu.Unlock()
		return err
	}
}

// mutateAsync appends and applies a record without waiting for its
// durability point. SyncAlways falls back to the synchronous path so
// the strict mode keeps its per-record guarantee.
func (s *Store) mutateAsync(rec record) error {
	if s.opts.Sync == SyncAlways {
		return s.mutate(rec)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.appendLocked(rec); err != nil {
		s.mu.Unlock()
		return err
	}
	applyRecord(s.mem, rec)
	s.met.records.With(opName(rec.op)).Inc()
	s.maybeSnapshotLocked()
	s.mu.Unlock()
	if s.opts.Sync == SyncBatched {
		select {
		case s.syncReq <- struct{}{}:
		default:
		}
	}
	return nil
}

// appendLocked encodes and writes one record to the active segment,
// rotating it when full. Callers hold s.mu.
func (s *Store) appendLocked(rec record) error {
	s.buf = appendRecord(s.buf[:0], rec)
	s.met.recordBytes.Observe(float64(len(s.buf)))
	n, err := s.seg.Write(s.buf)
	s.segBytes += int64(n)
	s.walBytes += int64(n)
	if err != nil {
		return err
	}
	s.writeSeq++
	if s.writeSeq == s.syncedSeq+1 {
		// First record of a new batch: the gather window starts here,
		// not at the syncer's wakeup.
		s.firstPending = s.clk.Now()
	}
	s.records++
	s.sinceSnap++
	s.publishGauges()
	if s.segBytes >= s.opts.SegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// awaitFlushLocked waits out an in-flight group-commit fsync so the
// active segment can be fsynced under the mutex, closed, or swapped
// safely. Callers hold s.mu.
func (s *Store) awaitFlushLocked() {
	for s.flushing {
		s.syncCond.Wait()
	}
}

// rotateLocked fsyncs and closes the active segment and opens the
// next one. Callers hold s.mu.
func (s *Store) rotateLocked() error {
	s.awaitFlushLocked()
	if err := s.fsyncLocked(); err != nil {
		return err
	}
	s.markSyncedLocked()
	if err := s.seg.Close(); err != nil {
		return err
	}
	s.met.rotations.Inc()
	s.segIndex++
	f, err := os.OpenFile(segmentPath(s.dir, s.segIndex), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.seg = f
	s.segBytes = 0
	s.segCount++
	s.publishGauges()
	return nil
}

// fsyncLocked flushes the active segment to stable storage.
func (s *Store) fsyncLocked() error {
	start := time.Now()
	err := s.seg.Sync()
	s.met.fsyncSeconds.Observe(time.Since(start).Seconds())
	s.fsyncs++
	s.met.fsyncsTotal.Inc()
	return err
}

// markSyncedLocked advances the durability point to the last written
// record, recording how many records the flush covered (the
// group-commit batch size) and waking every waiter it covered.
// Callers hold s.mu.
func (s *Store) markSyncedLocked() {
	if batch := s.writeSeq - s.syncedSeq; batch > 0 {
		s.met.commitBatch.Observe(float64(batch))
	}
	s.syncedSeq = s.writeSeq
	s.syncCond.Broadcast()
}

// syncer is the batched-mode group-commit goroutine: it coalesces all
// records written since the last flush into one fsync and wakes every
// waiter the fsync covered. The gather window (SyncInterval) is
// measured from the FIRST unsynced record, and the fsync itself runs
// outside the store mutex, so writers arriving during the disk flush
// append immediately and form the next batch — without this, each
// flush blocked the writers it was meant to batch and the window
// degenerated to roughly one fsync per concurrent writer.
func (s *Store) syncer() {
	defer close(s.syncerDone)
	for {
		select {
		case <-s.syncerStop:
			return
		case <-s.syncReq:
		}
		if s.opts.SyncInterval > 0 {
			s.mu.Lock()
			var wait time.Duration
			if !s.closed && s.syncedSeq < s.writeSeq {
				wait = s.opts.SyncInterval - s.clk.Since(s.firstPending)
			}
			s.mu.Unlock()
			if wait > 0 {
				s.clk.Sleep(wait)
			}
		}
		s.flushBatch()
	}
}

// flushBatch is the group-commit flush: it captures the current write
// position, fsyncs the active segment WITHOUT holding the store mutex,
// then advances the durability point and wakes the waiters the flush
// covered. Rotation, snapshot, and close coordinate through s.flushing.
func (s *Store) flushBatch() {
	s.mu.Lock()
	if s.closed || s.syncErr != nil || s.syncedSeq >= s.writeSeq {
		s.mu.Unlock()
		return
	}
	seq := s.writeSeq
	f := s.seg
	s.flushing = true
	s.mu.Unlock()

	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)

	s.mu.Lock()
	s.flushing = false
	s.met.fsyncSeconds.Observe(elapsed.Seconds())
	s.fsyncs++
	s.met.fsyncsTotal.Inc()
	if err != nil && s.syncErr == nil {
		s.syncErr = err
	}
	if err == nil && seq > s.syncedSeq {
		// Rotation or snapshot may have advanced syncedSeq past our
		// capture while we were off-lock; never move it backwards.
		s.met.commitBatch.Observe(float64(seq - s.syncedSeq))
		s.syncedSeq = seq
	}
	s.syncCond.Broadcast()
	s.mu.Unlock()
}

// maybeSnapshotLocked triggers an automatic snapshot when enough
// records accumulated since the last one.
func (s *Store) maybeSnapshotLocked() {
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		_ = s.snapshotLocked()
	}
}

func (s *Store) snapshotLocked() error {
	s.awaitFlushLocked()
	// Seal the active segment: everything up to here lands in the
	// snapshot; the WAL restarts in a fresh segment after it.
	if err := s.fsyncLocked(); err != nil {
		return err
	}
	s.markSyncedLocked()
	newMin := s.segIndex + 1
	if err := writeSnapshotFile(s.dir, newMin, s.mem); err != nil {
		return err
	}
	s.fsyncs++ // the snapshot file's own fsync
	s.met.fsyncsTotal.Inc()
	if err := s.seg.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(segmentPath(s.dir, newMin), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Garbage-collect covered segments and the previous snapshot.
	for i := s.snapIndex; i < newMin; i++ {
		_ = os.Remove(segmentPath(s.dir, i))
	}
	if s.snapIndex != newMin {
		_ = os.Remove(snapshotPath(s.dir, s.snapIndex))
	}
	s.seg = f
	s.segIndex = newMin
	s.segBytes = 0
	s.segCount = 1
	s.walBytes = 0
	s.sinceSnap = 0
	s.snapIndex = newMin
	s.snapTime = s.clk.Now()
	s.met.snapshots.Inc()
	s.publishGauges()
	return nil
}

// Close flushes, fsyncs, and closes the store. Further mutations
// return ErrClosed.
func (s *Store) Close() error {
	return s.close(true)
}

// Abandon closes the store WITHOUT a final fsync — the crash hook for
// recovery tests: records not yet fsynced by the configured SyncMode
// have whatever durability the OS page cache gave them, exactly as if
// the process had died. Combine with manual truncation of the newest
// segment to simulate a torn tail.
func (s *Store) Abandon() {
	_ = s.close(false)
}

func (s *Store) close(flush bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.awaitFlushLocked()
	var err error
	if flush {
		err = s.fsyncLocked()
		s.markSyncedLocked()
	}
	cerr := s.seg.Close()
	if err == nil {
		err = cerr
	}
	s.syncCond.Broadcast()
	s.mu.Unlock()

	close(s.syncerStop)
	<-s.syncerDone
	return err
}

// WALPosition reports the current write position — the active segment
// index and its frame-aligned byte size. Cluster heartbeats advertise
// it so peers can report replication lag against this node.
func (s *Store) WALPosition() (segment uint64, offset int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segIndex, s.segBytes
}

// Stats summarizes the store's current on-disk shape.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := 0
	for _, sp := range s.mem {
		keys += len(sp)
	}
	var age time.Duration
	if !s.snapTime.IsZero() {
		age = s.clk.Since(s.snapTime)
	}
	return Stats{
		Dir:              s.dir,
		SyncMode:         s.opts.Sync.String(),
		WALBytes:         s.walBytes,
		Segments:         s.segCount,
		Records:          s.records,
		Fsyncs:           s.fsyncs,
		Keys:             keys,
		SnapshotIndex:    s.snapIndex,
		SnapshotAge:      age,
		RecoveredRecords: s.recovered,
		TruncatedTail:    s.truncated,
	}
}

// publishGauges refreshes the WAL-size, segment-count, and
// snapshot-age gauges. Callers hold s.mu.
func (s *Store) publishGauges() {
	s.met.walBytes.Set(float64(s.walBytes))
	s.met.segments.Set(float64(s.segCount))
	if !s.snapTime.IsZero() {
		s.met.snapshotAge.Set(s.clk.Since(s.snapTime).Seconds())
	}
}
