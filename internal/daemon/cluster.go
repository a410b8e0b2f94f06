package daemon

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/workflow"
)

// clusterRuntime is the daemon's multi-node state: the cluster node
// (membership + ring + forwarding), the WAL replication feed (leader
// side), and the replica manager following the takeover predecessor.
type clusterRuntime struct {
	d        *Daemon
	node     *cluster.Node
	feed     *store.Feed
	settings ClusterConfig
	dataDir  string

	mu       sync.Mutex
	follower *store.Follower
	peer     string // ID of the member currently followed

	stopOnce sync.Once
	stop     chan struct{}
	loop     sync.WaitGroup // the replica loop, once start launched it
}

// setupCluster wires the cluster runtime into the daemon. Requires the
// store and policy repository to be open already.
func setupCluster(d *Daemon, settings ClusterConfig, dataDir string) (*clusterRuntime, error) {
	cr := &clusterRuntime{
		d:        d,
		settings: settings,
		dataDir:  dataDir,
		stop:     make(chan struct{}),
	}
	if d.st != nil {
		cr.feed = store.NewFeed(d.st, d.tel.Registry())
	}
	node, err := cluster.NewNode(cluster.Config{
		NodeID:            settings.NodeID,
		Advertise:         settings.Advertise,
		Seeds:             settings.Seeds,
		HeartbeatInterval: settings.Heartbeat,
		Secret:            settings.Secret,
		Self:              cr.selfInfo,
		Telemetry:         d.tel,
		OnPromote:         cr.promote,
		ReplicationStatus: cr.replicationStatus,
	})
	if err != nil {
		return nil, err
	}
	cr.node = node

	// Stamp provenance: journal entries, decision records, and flight
	// recorder bundles carry the node that produced them.
	d.tel.Logs().SetNode(settings.NodeID)
	d.decisions.SetNode(settings.NodeID)

	// -replication-level N: instance completion waits until the
	// terminal checkpoint is acknowledged by N followers (bounded, so a
	// follower outage degrades to a logged warning, not a hang).
	if d.persist != nil && cr.feed != nil && settings.ReplicationLevel > 0 {
		level := settings.ReplicationLevel
		feed := cr.feed
		d.persist.SetReplicationBarrier(func() error {
			ctx, cancel := context.WithTimeout(context.Background(), replicationBarrierTimeout)
			defer cancel()
			return feed.WaitReplicated(ctx, level)
		})
	}
	return cr, nil
}

// replicationBarrierTimeout bounds how long an instance finish waits
// for follower acknowledgements at the configured replication level.
const replicationBarrierTimeout = 10 * time.Second

// start launches heartbeating and (with a store) the replica manager.
func (cr *clusterRuntime) start() {
	cr.node.Start()
	if cr.d.st != nil && cr.dataDir != "" {
		cr.loop.Add(1)
		go cr.replicaLoop()
	}
}

func (cr *clusterRuntime) Stop() {
	cr.stopOnce.Do(func() { close(cr.stop) })
	cr.loop.Wait()
	cr.node.Stop()
	cr.mu.Lock()
	if cr.follower != nil {
		cr.follower.Stop()
		cr.follower = nil
	}
	cr.mu.Unlock()
}

// selfInfo advertises the policy revision and WAL write position in
// every heartbeat.
func (cr *clusterRuntime) selfInfo() cluster.NodeInfo {
	info := cluster.NodeInfo{PolicyRevision: compile.Lookup(cr.d.repo).Manifest.Revision}
	if cr.d.st != nil {
		info.WALSegment, info.WALOffset = cr.d.st.WALPosition()
	}
	return info
}

// replicaDir is where a peer's replicated WAL lands.
func (cr *clusterRuntime) replicaDir(peerID string) string {
	return filepath.Join(cr.dataDir, "replica", peerID)
}

// predecessor returns the live member this node must follow: the
// previous live node in sorted-ID order (the node whose takeover heir
// this node is). Empty when no live peer exists.
func (cr *clusterRuntime) predecessor() (cluster.Member, bool) {
	members := cr.node.Membership().Members()
	ids := []string{cr.node.ID()}
	byID := map[string]cluster.Member{}
	for _, m := range members {
		if m.State != cluster.StateDead {
			ids = append(ids, m.ID)
			byID[m.ID] = m
		}
	}
	if len(ids) < 2 {
		return cluster.Member{}, false
	}
	sort.Strings(ids)
	for i, id := range ids {
		if id == cr.node.ID() {
			pred := ids[(i+len(ids)-1)%len(ids)]
			m := byID[pred]
			return m, m.Addr != ""
		}
	}
	return cluster.Member{}, false
}

// replicaLoop keeps a follower attached to the current takeover
// predecessor, switching targets as membership changes.
func (cr *clusterRuntime) replicaLoop() {
	defer cr.loop.Done()
	log := cr.d.tel.Logger("cluster")
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		pred, ok := cr.predecessor()
		cr.mu.Lock()
		switch {
		case !ok && cr.follower != nil:
			cr.follower.Stop()
			cr.follower, cr.peer = nil, ""
		case ok && pred.ID != cr.peer:
			if cr.follower != nil {
				cr.follower.Stop()
				cr.follower = nil
			}
			var hdrs map[string]string
			if cr.settings.Secret != "" {
				hdrs = map[string]string{cluster.SecretHeader: cr.settings.Secret}
			}
			fol, err := store.StartFollower(cr.replicaDir(pred.ID),
				pred.Addr+apiPrefix+"/cluster/wal", store.FollowerOptions{
					NodeID:   cr.node.ID(),
					Headers:  hdrs,
					Registry: cr.d.tel.Registry(),
					Logger:   log,
				})
			if err != nil {
				log.Warn("replica follower failed to start",
					"peer", pred.ID, "error", err.Error())
			} else {
				cr.follower, cr.peer = fol, pred.ID
				log.Info("replicating predecessor WAL",
					"peer", pred.ID, "addr", pred.Addr)
			}
		}
		cr.mu.Unlock()
		select {
		case <-cr.stop:
			return
		case <-t.C:
		}
	}
}

// promote is the failover hook: this node's takeover rule elected it
// as the dead member's heir, so it recovers the dead node's process
// instances from the replicated WAL into the local engine. Recovered
// instances come back suspended and re-anchor into this node's own
// store on their next checkpoint.
func (cr *clusterRuntime) promote(dead cluster.Member) {
	log := cr.d.tel.Logger("cluster")
	cr.mu.Lock()
	if cr.peer == dead.ID && cr.follower != nil {
		cr.follower.Stop()
		cr.follower, cr.peer = nil, ""
	}
	cr.mu.Unlock()

	dir := cr.replicaDir(dead.ID)
	replica, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		log.Error("promotion failed: cannot open replica",
			"dead", dead.ID, "dir", dir, "error", err.Error())
		return
	}
	defer replica.Close()
	// A throwaway persistence service bound to the replica reads the
	// dead node's checkpoints; the engine's own attached service (on
	// this node's store) takes over checkpointing from here.
	p := workflow.NewPersistenceServiceWith(replica, cr.d.tel, cr.d.ckptOpts)
	rep, err := p.Recover(cr.d.stack.Engine)
	p.Close()
	if err != nil {
		log.Error("promotion recovery failed", "dead", dead.ID, "error", err.Error())
		return
	}
	cr.d.mergeRecovery(rep)
	log.Warn("promoted: recovered dead member's instances",
		"dead", dead.ID,
		"recovered", fmt.Sprintf("%d", len(rep.Recovered)),
		"terminal", fmt.Sprintf("%d", rep.Terminal),
		"failed", fmt.Sprintf("%d", rep.Failed))
}

// replicationStatus is embedded in /api/v1/cluster.
func (cr *clusterRuntime) replicationStatus() interface{} {
	out := struct {
		Level    int                   `json:"level"`
		Feed     *store.FeedStatus     `json:"feed,omitempty"`
		Follower *store.FollowerStatus `json:"follower,omitempty"`
		Peer     string                `json:"peer,omitempty"`
	}{Level: cr.settings.ReplicationLevel}
	if cr.feed != nil {
		fs := cr.feed.Status()
		out.Feed = &fs
	}
	cr.mu.Lock()
	if cr.follower != nil {
		st := cr.follower.Status()
		out.Follower = &st
		out.Peer = cr.peer
	}
	cr.mu.Unlock()
	return out
}

// clusterKey extracts the sharding key from a gateway request: the
// X-Masc-Conversation header when the client supplies one, else the
// ConversationID (or process-instance correlation) inside the SOAP
// envelope.
func clusterKey(r *http.Request, body []byte) string {
	if v := r.Header.Get(cluster.ConversationHTTPHeader); v != "" {
		return v
	}
	if len(body) == 0 {
		return ""
	}
	env, err := soap.Decode(string(body))
	if err != nil {
		return ""
	}
	return soap.ConversationID(env)
}

// mount adds the cluster endpoints to the API mux. The status handler
// belongs to the cluster package and answers a wrong method in plain
// text, so the method is checked here, in the envelope; heartbeat and
// wal are the intra-cluster protocol, not management resources.
func (cr *clusterRuntime) mount(mux *http.ServeMux) {
	status := cr.node.StatusHandler()
	mux.HandleFunc(apiPrefix+"/cluster", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		status.ServeHTTP(w, r)
	})
	mux.Handle(apiPrefix+"/cluster/heartbeat",
		http.HandlerFunc(cr.node.Membership().HandleHeartbeat))
	if cr.feed != nil {
		mux.Handle(apiPrefix+"/cluster/wal",
			cr.requireClusterSecret(cr.feed.Handler()))
	}
}

// requireClusterSecret guards the WAL feed — it serves full
// conversation state, so it demands the same shared token as
// heartbeats (no-op when no -cluster-secret is configured).
func (cr *clusterRuntime) requireClusterSecret(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !cluster.CheckSecret(cr.settings.Secret, r) {
			http.Error(w, "cluster secret missing or wrong", http.StatusForbidden)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clusterHealth is the cluster section of /api/v1/healthz.
type clusterHealth struct {
	Node               string `json:"node"`
	MembersAlive       int    `json:"members_alive"`
	MembersSuspect     int    `json:"members_suspect"`
	MembersDead        int    `json:"members_dead"`
	PolicyRevisionSkew int    `json:"policy_revision_skew"`
	Takeovers          int    `json:"takeovers"`
}

func (d *Daemon) clusterHealth() *clusterHealth {
	if d.cluster == nil {
		return nil
	}
	n := d.cluster.node
	h := &clusterHealth{
		Node:               n.ID(),
		MembersAlive:       1, // self
		PolicyRevisionSkew: n.Membership().RevisionSkew(),
		Takeovers:          len(n.Takeovers()),
	}
	for _, m := range n.Membership().Members() {
		switch m.State {
		case cluster.StateAlive:
			h.MembersAlive++
		case cluster.StateSuspect:
			h.MembersSuspect++
		default:
			h.MembersDead++
		}
	}
	return h
}

// mergeRecovery folds a promotion-time recovery report into the
// daemon's (healthz and instance listings read it concurrently).
func (d *Daemon) mergeRecovery(rep workflow.RecoveryReport) {
	d.recMu.Lock()
	d.recovery.Recovered = append(d.recovery.Recovered, rep.Recovered...)
	sort.Strings(d.recovery.Recovered)
	d.recovery.Terminal += rep.Terminal
	d.recovery.Failed += rep.Failed
	d.recMu.Unlock()
}

// recoveredCount and isRecovered are the lock-guarded readers.
func (d *Daemon) recoveredCount() int {
	d.recMu.Lock()
	defer d.recMu.Unlock()
	return len(d.recovery.Recovered)
}

func (d *Daemon) isRecovered(id string) bool {
	d.recMu.Lock()
	defer d.recMu.Unlock()
	for _, r := range d.recovery.Recovered {
		if r == id {
			return true
		}
	}
	return false
}
