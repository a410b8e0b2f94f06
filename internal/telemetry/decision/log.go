package decision

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/masc-project/masc/internal/telemetry"
)

// Log is a durable NDJSON sink for decision records: one JSON object
// per line, written by a single background worker into size-capped
// segment files under a directory (decisions-000001.ndjson, ...).
// Appends never block the caller — a bounded channel feeds the worker
// and overflow is dropped and counted, mirroring the flight recorder's
// drop-on-full discipline. On open the Log adopts existing segments
// (continuing the numbering after a restart) and truncates a torn tail
// left by a crash mid-write, the same discipline the store applies to
// its WAL.
type Log struct {
	dir  string
	opts LogOptions

	ch     chan Record
	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// worker-owned state
	f    *os.File
	size int64
	seg  int

	records *telemetry.CounterVec
	bytes   *telemetry.Counter
}

// LogOptions tunes a Log. Zero values select the defaults.
type LogOptions struct {
	// SegmentBytes caps one segment file; the worker rotates to a new
	// segment once the current one exceeds it. Default 4 MiB.
	SegmentBytes int64
	// MaxSegments bounds how many segment files are kept; the oldest
	// are deleted on rotation. Default 8.
	MaxSegments int
	// QueueDepth bounds the append channel; overflow is dropped and
	// counted. Default 1024.
	QueueDepth int
	// Metrics registers masc_decision_log_* families when non-nil.
	Metrics *telemetry.Registry
}

func (o *LogOptions) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
}

const segPattern = "decisions-%06d.ndjson"

// OpenLog opens (creating if needed) a decision log under dir. It
// adopts existing segments — numbering continues from the highest
// index found — and truncates a torn trailing line in the newest
// segment before appending.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("decision log: %w", err)
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		ch:   make(chan Record, opts.QueueDepth),
		done: make(chan struct{}),
	}
	l.records = opts.Metrics.Counter("masc_decision_log_records_total",
		"Decision records offered to the durable NDJSON log, by outcome.", "outcome")
	l.bytes = opts.Metrics.Counter("masc_decision_log_bytes_total",
		"Bytes appended to the durable decision log.").With()

	segs := listSegments(dir)
	l.seg = 1
	if len(segs) > 0 {
		l.seg = segs[len(segs)-1]
	}
	path := filepath.Join(dir, fmt.Sprintf(segPattern, l.seg))
	if err := truncateTornTail(path); err != nil {
		return nil, fmt.Errorf("decision log: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("decision log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("decision log: %w", err)
	}
	l.f, l.size = f, st.Size()

	l.wg.Add(1)
	go l.run()
	return l, nil
}

// Append offers one record to the log without blocking; when the
// queue is full (or the log is closed) the record is dropped and
// counted. Implements Sink. Safe on a nil Log.
func (l *Log) Append(rec Record) {
	if l == nil || l.closed.Load() {
		return
	}
	select {
	case l.ch <- rec:
	default:
		l.records.With("dropped").Inc()
	}
}

// Close drains buffered records to disk, syncs, and closes the
// current segment. Further Appends are dropped.
func (l *Log) Close() error {
	if l == nil || l.closed.Swap(true) {
		return nil
	}
	close(l.done)
	l.wg.Wait()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

func (l *Log) run() {
	defer l.wg.Done()
	for {
		select {
		case rec := <-l.ch:
			l.write(rec)
		case <-l.done:
			for {
				select {
				case rec := <-l.ch:
					l.write(rec)
				default:
					return
				}
			}
		}
	}
}

func (l *Log) write(rec Record) {
	line, err := json.Marshal(rec)
	if err != nil {
		l.records.With("error").Inc()
		return
	}
	line = append(line, '\n')
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		l.records.With("error").Inc()
		return
	}
	l.records.With("written").Inc()
	l.bytes.Add(uint64(n))
	if l.size >= l.opts.SegmentBytes {
		l.rotate()
	}
}

func (l *Log) rotate() {
	l.f.Sync()
	l.f.Close()
	l.seg++
	path := filepath.Join(l.dir, fmt.Sprintf(segPattern, l.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// Keep counting errors; subsequent writes fail fast on a nil
		// file would panic, so reopen the old segment instead.
		l.records.With("error").Inc()
		l.f, _ = os.OpenFile(filepath.Join(l.dir, fmt.Sprintf(segPattern, l.seg-1)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		l.seg--
		return
	}
	l.f, l.size = f, 0
	l.prune()
}

func (l *Log) prune() {
	segs := listSegments(l.dir)
	for len(segs) > l.opts.MaxSegments {
		os.Remove(filepath.Join(l.dir, fmt.Sprintf(segPattern, segs[0])))
		segs = segs[1:]
	}
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var segs []int
	for _, e := range ents {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), segPattern, &idx); err == nil && idx > 0 {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	return segs
}

// truncateTornTail cuts an incomplete trailing line (no final newline)
// from the file at path, if it exists — the crash-recovery discipline
// for an NDJSON append log.
func truncateTornTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	cut := bytes.LastIndexByte(data, '\n') + 1
	return os.Truncate(path, int64(cut))
}
