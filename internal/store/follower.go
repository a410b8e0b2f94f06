package store

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/telemetry"
)

// FollowerOptions configures a WAL replication follower.
type FollowerOptions struct {
	// NodeID identifies this follower in its acks to the leader (and in
	// the leader's lag gauges).
	NodeID string
	// Client fetches chunks (default: 30s timeout, comfortably above
	// the long-poll window).
	Client *http.Client
	// ChunkBytes caps one fetch (default 256 KiB).
	ChunkBytes int64
	// PollWait is the long-poll window the follower asks the leader to
	// hold an empty fetch open for (default 1s).
	PollWait time.Duration
	// Fsync fsyncs each chunk before acknowledging it (default true via
	// NoFsync=false). Acks are the leader's replication-level
	// guarantee, so they must mean "on stable storage here".
	NoFsync bool
	// Headers are sent on every fetch — mascd passes the cluster secret
	// here (the store package stays protocol-agnostic; the header name
	// belongs to the cluster package).
	Headers map[string]string
	// Registry receives follower metrics.
	Registry *telemetry.Registry
	// Logger (optional) records fetch errors and segment advances.
	Logger *telemetry.Logger
}

func (o *FollowerOptions) fill() {
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 256 << 10
	}
	if o.PollWait <= 0 {
		o.PollWait = time.Second
	}
}

// Follower is the receiving side of WAL replication: it streams framed
// record bytes from a leader's Feed into a local replica directory,
// mirroring the leader's segment files byte for byte. Because the
// replica uses the same layout and framing as a live store, promotion
// after the leader dies is simply Open(replicaDir): recovery replays
// the replicated WAL, and its torn-tail handling absorbs a chunk cut
// short by the follower's own crash.
type Follower struct {
	dir    string
	leader string
	opts   FollowerOptions

	mu      sync.Mutex
	pos     walPos
	file    *os.File
	lastErr error
	fetched uint64
	resyncs uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	bytesIn   *telemetry.Counter
	errs      *telemetry.Counter
	resyncCtr *telemetry.Counter
}

// StartFollower begins replicating leaderURL's WAL feed into dir. It
// resumes from whatever the replica already holds: the tail segment is
// scanned for a torn final chunk (truncated away) and fetching
// continues from the end of the last intact record.
func StartFollower(dir, leaderURL string, opts FollowerOptions) (*Follower, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &Follower{
		dir:    dir,
		leader: leaderURL,
		opts:   opts,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		bytesIn: opts.Registry.Counter("masc_cluster_wal_replicated_bytes_total",
			"WAL bytes replicated from the leader into the local replica.").With(),
		errs: opts.Registry.Counter("masc_cluster_wal_fetch_errors_total",
			"Failed WAL fetches from the leader (each is retried after a backoff).").With(),
		resyncCtr: opts.Registry.Counter("masc_cluster_wal_resyncs_total",
			"Replica resyncs from a leader snapshot after the follower's cursor fell below a compacted segment.").With(),
	}
	if err := f.resume(); err != nil {
		return nil, err
	}
	go f.loop()
	return f, nil
}

// resume positions the cursor after the last intact replicated record.
func (f *Follower) resume() error {
	segs, err := listIndexed(f.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		f.pos = walPos{}
		// A replica holding only a snapshot (a resync interrupted right
		// after installing it) resumes at the first segment the
		// snapshot does not cover, not at zero.
		if snaps, err := listIndexed(f.dir, snapshotPrefix, snapshotSuffix); err == nil && len(snaps) > 0 {
			f.pos = walPos{Segment: snaps[len(snaps)-1]}
		}
		return f.openSegment()
	}
	last := segs[len(segs)-1]
	kept, torn, err := replaySegment(segmentPath(f.dir, last), func(record) {})
	if err != nil {
		return err
	}
	if torn {
		if err := os.Truncate(segmentPath(f.dir, last), kept); err != nil {
			return err
		}
	}
	f.pos = walPos{Segment: last, Offset: kept}
	return f.openSegment()
}

// openSegment (re)opens the file the cursor points into, creating it
// when absent. Callers either hold f.mu or have exclusive access.
func (f *Follower) openSegment() error {
	if f.file != nil {
		_ = f.file.Close()
	}
	file, err := os.OpenFile(segmentPath(f.dir, f.pos.Segment), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := file.Seek(f.pos.Offset, 0); err != nil {
		file.Close()
		return err
	}
	f.file = file
	return nil
}

func (f *Follower) loop() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.fetchOnce()
		if err == errLeaderCompacted {
			// The cursor points below the leader's oldest retained
			// segment — linear shipping can never catch up. Restart the
			// replica from the leader's snapshot instead of retrying
			// forever (review fix: a data dir that ran snapshots before
			// cluster mode silently never replicated).
			err = f.resyncFromSnapshot()
			if err == nil {
				continue
			}
		}
		if err != nil {
			f.errs.Inc()
			f.mu.Lock()
			f.lastErr = err
			f.mu.Unlock()
			if f.opts.Logger != nil {
				f.opts.Logger.Warn("wal fetch failed", "leader", f.leader, "error", err.Error())
			}
			select {
			case <-f.stop:
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
}

// fetchOnce performs one long-poll fetch and applies its bytes.
func (f *Follower) fetchOnce() error {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()

	q := url.Values{}
	q.Set("segment", strconv.FormatUint(pos.Segment, 10))
	q.Set("offset", strconv.FormatInt(pos.Offset, 10))
	q.Set("max", strconv.FormatInt(f.opts.ChunkBytes, 10))
	q.Set("wait", strconv.FormatInt(f.opts.PollWait.Milliseconds(), 10))
	q.Set("node", f.opts.NodeID)
	q.Set("ackseg", strconv.FormatUint(pos.Segment, 10))
	q.Set("ackoff", strconv.FormatInt(pos.Offset, 10))
	resp, err := f.get(f.leader + "?" + q.Encode())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return errLeaderCompacted
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("leader answered %s: %s", resp.Status, body)
	}
	nextSeg, _ := strconv.ParseUint(resp.Header.Get(walHdrNextSegment), 10, 64)
	nextOff, _ := strconv.ParseInt(resp.Header.Get(walHdrNextOffset), 10, 64)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if len(data) > 0 {
		if int64(len(data)) != nextOff-pos.Offset || nextSeg != pos.Segment {
			return fmt.Errorf("leader cursor mismatch: %d bytes for %d:%d -> %d:%d",
				len(data), pos.Segment, pos.Offset, nextSeg, nextOff)
		}
		if _, err := f.file.Write(data); err != nil {
			return err
		}
		if !f.opts.NoFsync {
			if err := f.file.Sync(); err != nil {
				return err
			}
		}
		f.fetched += uint64(len(data))
		f.bytesIn.Add(uint64(len(data)))
		f.pos = walPos{Segment: nextSeg, Offset: nextOff}
		return nil
	}
	// Empty body: either nothing new (cursor unchanged) or the leader
	// sealed the segment and moved us to the next one.
	if nextSeg != pos.Segment {
		f.pos = walPos{Segment: nextSeg, Offset: nextOff}
		if f.opts.Logger != nil {
			f.opts.Logger.Info("replica advanced to next segment",
				"segment", strconv.FormatUint(nextSeg, 10))
		}
		return f.openSegment()
	}
	return nil
}

// errLeaderCompacted reports that the leader answered 410 Gone: the
// replica cursor fell below the leader's oldest retained segment and
// linear shipping can never catch up.
var errLeaderCompacted = fmt.Errorf("store: leader compacted past the replica cursor")

// get issues one GET against the leader with the configured headers.
func (f *Follower) get(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range f.opts.Headers {
		req.Header.Set(k, v)
	}
	return f.opts.Client.Do(req)
}

// resyncFromSnapshot rebuilds the replica from the leader's newest
// snapshot: download it, install it as the replica's only file, and
// restart shipping at the first segment it does not cover. Promotion
// then Opens snapshot+segments exactly as it would a locally-compacted
// store. A crash mid-resync converges — the replica either resumes at
// the installed snapshot or hits 410 again and rebuilds.
func (f *Follower) resyncFromSnapshot() error {
	resp, err := f.get(f.leader + "?snapshot=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("snapshot fetch: leader answered %s: %s", resp.Status, body)
	}
	idx, err := strconv.ParseUint(resp.Header.Get(walHdrSegment), 10, 64)
	if err != nil || idx == 0 {
		return fmt.Errorf("snapshot fetch: bad %s header %q",
			walHdrSegment, resp.Header.Get(walHdrSegment))
	}
	tmp, err := os.CreateTemp(f.dir, snapshotPrefix+"*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, resp.Body); err != nil {
		tmp.Close()
		return err
	}
	if !f.opts.NoFsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.file != nil {
		_ = f.file.Close()
		f.file = nil
	}
	// Drop everything the snapshot supersedes before installing it: a
	// crash in between leaves an empty replica, which re-resyncs.
	if segs, err := listIndexed(f.dir, segmentPrefix, segmentSuffix); err == nil {
		for _, s := range segs {
			_ = os.Remove(segmentPath(f.dir, s))
		}
	}
	if snaps, err := listIndexed(f.dir, snapshotPrefix, snapshotSuffix); err == nil {
		for _, s := range snaps {
			_ = os.Remove(snapshotPath(f.dir, s))
		}
	}
	if err := os.Rename(tmp.Name(), snapshotPath(f.dir, idx)); err != nil {
		return err
	}
	f.pos = walPos{Segment: idx, Offset: 0}
	f.lastErr = nil
	f.resyncs++
	f.resyncCtr.Inc()
	if f.opts.Logger != nil {
		f.opts.Logger.Warn("replica resynced from leader snapshot",
			"leader", f.leader, "segment", strconv.FormatUint(idx, 10))
	}
	return f.openSegment()
}

// Stop halts replication and closes the replica files. The replica
// directory stays valid for promotion via Open.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	f.mu.Lock()
	if f.file != nil {
		_ = f.file.Close()
		f.file = nil
	}
	f.mu.Unlock()
}

// FollowerStatus is the follower's half of the replication report.
type FollowerStatus struct {
	Leader       string `json:"leader"`
	Segment      uint64 `json:"segment"`
	Offset       int64  `json:"offset"`
	FetchedBytes uint64 `json:"fetched_bytes"`
	Resyncs      uint64 `json:"resyncs,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

// Status snapshots the follower.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{
		Leader:       f.leader,
		Segment:      f.pos.Segment,
		Offset:       f.pos.Offset,
		FetchedBytes: f.fetched,
		Resyncs:      f.resyncs,
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}
