package workflow

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/ringbuf"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/xmltree"
)

// SpaceInstances is the store space holding one checkpoint value per
// process instance, keyed by instance ID. A value is a v2 delta chain
// (anchor + appended deltas); see docs/persistence.md and
// DecodeCheckpoint.
const SpaceInstances = "instance"

// PersistenceOptions tunes the checkpoint pipeline.
type PersistenceOptions struct {
	// AnchorEvery caps a delta chain's length: after this many delta
	// records a full-snapshot anchor is written, bounding both replay
	// work and the torn-tail blast radius (default 32).
	AnchorEvery int
	// QueueDepth bounds the async pipeline's not-yet-applied
	// checkpoint queue; the hot path blocks (backpressure) when the
	// pipeline is this far behind (default 256). Unused when the store
	// runs SyncAlways — that mode stays fully synchronous so every
	// checkpoint is durable before the activity proceeds.
	QueueDepth int
	// DurableFinish upgrades the instance-finish barrier from
	// "applied to the store" to "applied and fsynced", so completion
	// is never acknowledged ahead of a durable terminal record.
	DurableFinish bool
}

func (o *PersistenceOptions) fill() {
	if o.AnchorEvery <= 0 {
		o.AnchorEvery = 32
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
}

// PersistenceService is the durable realization of the WF built-in
// Persistence runtime service (§2.1): it journals every instance's
// lifecycle through the store — creation, each activity-boundary
// checkpoint, applied dynamic customizations, and the terminal state.
// Checkpoints are dirty-tracked deltas appended to a per-instance
// chain anchored by periodic full snapshots; serialization and WAL
// writes run on an async committer off the activity hot path (except
// against a SyncAlways store, which keeps the synchronous per-record
// guarantee). Instance finish is a barrier: the terminal checkpoint
// is applied (and with DurableFinish, fsynced) before waiters see the
// instance done.
type PersistenceService struct {
	NopRuntimeService
	st   *store.Store
	log  *telemetry.Logger
	opts PersistenceOptions

	// committer drains checkpoints in order; nil in SyncAlways mode.
	committer *store.AsyncCommitter

	// replBarrier, when set, extends the instance-finish barrier across
	// the cluster: it blocks until the terminal checkpoint reached the
	// configured number of replication followers (mascd wires it to
	// Feed.WaitReplicated). Guarded by replMu because the cluster
	// runtime is built after the persistence service.
	replMu      sync.Mutex
	replBarrier func() error

	// chains serializes capture+enqueue per instance and tracks chain
	// length for anchor cadence.
	chainsMu sync.Mutex
	chains   map[string]*instChain

	// events is a bounded ring of recent checkpoint activity feeding
	// the instance timeline API.
	eventsMu sync.Mutex
	events   *ringbuf.Buffer[CheckpointEvent]

	recovered   *telemetry.Gauge
	saves       *telemetry.CounterVec
	ckptBytes   *telemetry.Histogram
	ckptRecords *telemetry.CounterVec
}

// instChain is per-instance pipeline state: its mutex makes the
// capture-then-enqueue step atomic (so deltas enter the queue in
// capture order), deltas counts records since the last anchor.
type instChain struct {
	mu       sync.Mutex
	anchored bool
	deltas   int
}

// CheckpointEvent is one entry in the bounded checkpoint history: a
// timestamped note that an instance captured a full anchor or a delta,
// and what state it was in. The history is what the instance timeline
// API joins against — the persistence layer's own view of when the
// instance moved.
type CheckpointEvent struct {
	Time     time.Time `json:"time"`
	Instance string    `json:"instance"`
	// Kind is "full" (snapshot anchor) or "delta" (dirty-set record).
	Kind  string `json:"kind"`
	State string `json:"state"`
	// AdaptState is the adaptation-state label at capture, when set —
	// it lets the timeline show checkpoints bracketing an adaptation.
	AdaptState string `json:"adapt_state,omitempty"`
}

// ckptEventCap bounds the shared checkpoint-event ring. Events are
// evicted oldest-first across all instances, so a busy instance cannot
// be starved of history by an idle one for long — the ring simply holds
// the most recent persistence activity.
const ckptEventCap = 1024

// noteEvent appends one checkpoint event to the bounded ring.
func (p *PersistenceService) noteEvent(inst *Instance, kind string) {
	ev := CheckpointEvent{
		Time:       time.Now(),
		Instance:   inst.ID(),
		Kind:       kind,
		State:      inst.State().String(),
		AdaptState: inst.AdaptationState(),
	}
	p.eventsMu.Lock()
	p.events.Push(ev)
	p.eventsMu.Unlock()
}

// CheckpointEvents returns the retained checkpoint history for one
// instance, oldest first. It is bounded by the shared ring, so for a
// long-running instance it is the recent tail, not the full life.
func (p *PersistenceService) CheckpointEvents(id string) []CheckpointEvent {
	p.eventsMu.Lock()
	defer p.eventsMu.Unlock()
	return p.events.Select(func(ev *CheckpointEvent) bool { return ev.Instance == id }, 0)
}

var _ RuntimeService = (*PersistenceService)(nil)
var _ InstanceUpdateObserver = (*PersistenceService)(nil)

// NewPersistenceServiceWith builds a persistence service journaling
// into st with the given pipeline options. Telemetry (optional) records
// checkpoint outcomes and the recovered-instance gauge.
func NewPersistenceServiceWith(st *store.Store, tel *telemetry.Telemetry, opts PersistenceOptions) *PersistenceService {
	opts.fill()
	reg := tel.Registry()
	p := &PersistenceService{
		st:     st,
		log:    tel.Logger("persistence"),
		opts:   opts,
		chains: make(map[string]*instChain),
		events: ringbuf.New[CheckpointEvent](ckptEventCap),
		recovered: reg.Gauge("masc_store_recovered_instances",
			"Process instances rebuilt from the store at the last recovery.").With(),
		saves: reg.Counter("masc_store_instance_checkpoints_total",
			"Instance checkpoints journaled to the store.", "outcome"),
		ckptBytes: reg.Histogram("masc_store_checkpoint_bytes",
			"Serialized size of instance checkpoint records.", telemetry.DefByteBuckets).With(),
		ckptRecords: reg.Counter("masc_store_checkpoint_records_total",
			"Checkpoint records written, by kind (full anchor vs delta).", "kind"),
	}
	if st.Mode() != store.SyncAlways {
		p.committer = store.NewAsyncCommitter(st, store.AsyncOptions{
			MaxLag:  opts.QueueDepth,
			Metrics: reg,
			OnError: func(m store.Mutation, err error) {
				p.saves.With("error").Inc()
				p.log.Conversation(m.Key).Warn("instance checkpoint failed",
					"instance", m.Key, "error", err.Error())
			},
		})
	}
	return p
}

// Attach registers the service with an engine so every subsequent
// instance is journaled.
func (p *PersistenceService) Attach(e *Engine) { e.AddRuntimeService(p) }

// Close drains the async pipeline (no-op in SyncAlways mode). Call it
// after the engine stops handing out work.
func (p *PersistenceService) Close() {
	if p.committer != nil {
		p.committer.Close()
	}
}

// InstanceCreated journals the initial checkpoint (after static
// customization) — always a full-snapshot anchor.
func (p *PersistenceService) InstanceCreated(inst *Instance) { p.save(inst) }

// ActivityCompleted journals a checkpoint at every activity boundary
// — the finest-grained resumable position. On the delta path this
// costs one dirty-set drain and a queue handoff; serialization happens
// on the committer goroutine.
func (p *PersistenceService) ActivityCompleted(inst *Instance, _ Activity, _ error) { p.save(inst) }

// InstanceUpdated journals applied dynamic customizations so a
// recovered instance resumes with its adapted tree, not the deployed
// definition. Structural edits invalidate delta tracking, so this
// checkpoint is a fresh full anchor.
func (p *PersistenceService) InstanceUpdated(inst *Instance) { p.save(inst) }

// InstanceFinished journals the terminal state and acts as the
// pipeline barrier: it returns only after every queued checkpoint for
// the instance is applied (and durable, with DurableFinish), so the
// completion an observer sees is backed by the journal. The record is
// kept (not deleted) so operators can audit completed instances
// across restarts; compaction folds it into the next snapshot.
func (p *PersistenceService) InstanceFinished(inst *Instance, _ State, _ error) {
	p.save(inst)
	if p.committer != nil {
		if p.opts.DurableFinish {
			if err := p.committer.BarrierDurable(); err != nil {
				p.log.Conversation(inst.ID()).Warn("durable finish barrier failed",
					"instance", inst.ID(), "error", err.Error())
			}
		} else {
			p.committer.Barrier()
		}
	}
	p.replMu.Lock()
	barrier := p.replBarrier
	p.replMu.Unlock()
	if barrier != nil {
		// -replication-level: the terminal checkpoint must reach the
		// configured follower count before completion is acknowledged.
		// Failure (not enough live followers before the deadline) is
		// logged, not fatal — availability over strict durability, and
		// the record is already applied locally.
		if err := barrier(); err != nil {
			p.log.Conversation(inst.ID()).Warn("replication barrier failed at instance finish",
				"instance", inst.ID(), "error", err.Error())
		}
	}
	p.dropChain(inst.ID())
}

// SetReplicationBarrier installs (or clears, with nil) the
// cluster-replication half of the instance-finish barrier. It is a
// post-construction setter because mascd builds the persistence
// service before the cluster runtime exists.
func (p *PersistenceService) SetReplicationBarrier(barrier func() error) {
	p.replMu.Lock()
	p.replBarrier = barrier
	p.replMu.Unlock()
}

// save captures the instance's dirty set and hands the checkpoint to
// the pipeline. Capture and enqueue are atomic per instance, so the
// chain on disk replays captures in order.
func (p *PersistenceService) save(inst *Instance) {
	id := inst.ID()
	c := p.chain(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	force := !c.anchored || c.deltas+1 >= p.opts.AnchorEvery
	d := inst.captureCheckpoint(force)
	kind := "delta"
	if d.full != nil {
		c.anchored = true
		c.deltas = 0
		kind = "full"
	} else {
		c.deltas++
	}
	p.noteEvent(inst, kind)

	if p.committer == nil {
		p.writeSync(id, d)
		return
	}
	op := store.MutAppend
	if d.full != nil {
		op = store.MutPut
	}
	err := p.committer.Enqueue(store.Mutation{
		Op:    op,
		Space: SpaceInstances,
		Key:   id,
		// Serialization runs on the committer goroutine, off the
		// activity hot path.
		Encode: func() ([]byte, error) { return p.encode(d) },
	})
	if err != nil {
		p.saves.With("error").Inc()
		p.log.Conversation(id).Warn("instance checkpoint failed",
			"instance", id, "error", err.Error())
		return
	}
	p.saves.With("ok").Inc()
}

// writeSync is the SyncAlways path: encode and write inline so the
// checkpoint is durable before the activity boundary proceeds.
func (p *PersistenceService) writeSync(id string, d ckptDelta) {
	buf, err := p.encode(d)
	if err == nil {
		if d.full != nil {
			err = p.st.Put(SpaceInstances, id, buf)
		} else {
			err = p.st.Append(SpaceInstances, id, buf)
		}
	}
	if err != nil {
		p.saves.With("error").Inc()
		p.log.Conversation(id).Warn("instance checkpoint failed",
			"instance", id, "error", err.Error())
		return
	}
	p.saves.With("ok").Inc()
}

// encode renders a captured checkpoint and observes its size and kind.
func (p *PersistenceService) encode(d ckptDelta) ([]byte, error) {
	buf, err := encodeCheckpoint(d)
	if err != nil {
		return nil, err
	}
	p.ckptBytes.Observe(float64(len(buf)))
	if d.full != nil {
		p.ckptRecords.With("full").Inc()
	} else {
		p.ckptRecords.With("delta").Inc()
	}
	return buf, nil
}

// chain returns (creating if needed) the per-instance pipeline state.
func (p *PersistenceService) chain(id string) *instChain {
	p.chainsMu.Lock()
	defer p.chainsMu.Unlock()
	c := p.chains[id]
	if c == nil {
		c = &instChain{}
		p.chains[id] = c
	}
	return c
}

func (p *PersistenceService) dropChain(id string) {
	p.chainsMu.Lock()
	delete(p.chains, id)
	p.chainsMu.Unlock()
}

// ExportXML renders an instance's stored checkpoint chain as the
// equivalent instanceSnapshot XML document — the export/debug view of
// the binary chain.
func (p *PersistenceService) ExportXML(id string) (string, error) {
	raw, ok := p.st.Get(SpaceInstances, id)
	if !ok {
		return "", fmt.Errorf("workflow: no checkpoint for instance %q", id)
	}
	doc, err := DecodeCheckpoint(raw)
	if err != nil {
		return "", err
	}
	return xmltree.MarshalString(doc)
}

// RecoveryReport summarizes what Recover rebuilt.
type RecoveryReport struct {
	// Recovered lists non-terminal instances restored into the engine
	// (suspended; Resume + Run continues them), sorted by ID.
	Recovered []string `json:"recovered"`
	// Terminal counts records of already-finished instances.
	Terminal int `json:"terminal"`
	// Failed counts undecodable records that were skipped.
	Failed int `json:"failed"`
}

// Recover rebuilds every non-terminal journaled instance into the
// engine. Records decode through DecodeCheckpoint, so delta chains
// with a torn trailing delta recover like intact ones. Restored instances come back suspended at their
// last checkpoint; the caller (or the mascd resume API) releases them.
func (p *PersistenceService) Recover(e *Engine) (RecoveryReport, error) {
	var rep RecoveryReport
	for id, raw := range p.st.List(SpaceInstances) {
		doc, err := DecodeCheckpoint(raw)
		if err != nil {
			rep.Failed++
			p.log.Warn("skipping undecodable instance record",
				"instance", id, "error", err.Error())
			continue
		}
		if stateTerminal(doc.AttrValue("", "state")) {
			// Kept as the audit trail, not restored — but still claim
			// the ID so a post-recovery instance cannot reuse it and
			// overwrite the terminal record.
			e.reserveInstanceID(id)
			rep.Terminal++
			continue
		}
		inst, err := e.Restore(doc)
		if err != nil {
			rep.Failed++
			p.log.Warn("instance restore failed",
				"instance", id, "error", err.Error())
			continue
		}
		rep.Recovered = append(rep.Recovered, inst.ID())
	}
	sort.Strings(rep.Recovered)
	p.recovered.Set(float64(len(rep.Recovered)))
	if len(rep.Recovered) > 0 || rep.Terminal > 0 || rep.Failed > 0 {
		p.log.Info(fmt.Sprintf("recovered %d instance(s) from %s", len(rep.Recovered), p.st.Dir()),
			"recovered", fmt.Sprint(len(rep.Recovered)),
			"terminal", fmt.Sprint(rep.Terminal),
			"failed", fmt.Sprint(rep.Failed))
	}
	return rep, nil
}

// stateTerminal maps a persisted state label onto State.Terminal
// without requiring a parse round-trip.
func stateTerminal(s string) bool {
	return s == StateCompleted.String() || s == StateFaulted.String() || s == StateTerminated.String()
}
