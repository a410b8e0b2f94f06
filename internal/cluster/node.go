package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/telemetry"
)

// Config configures a cluster Node.
type Config struct {
	// NodeID is the stable local identity (-node-id). Required.
	NodeID string
	// Advertise is the local HTTP base URL peers reach this node at
	// (-advertise). Required for multi-node operation.
	Advertise string
	// Seeds are the statically-configured members, typically including
	// the local node (it is filtered by ID).
	Seeds []NodeInfo
	// VirtualNodes is the ring's per-member vnode count (default 128).
	VirtualNodes int
	// HeartbeatInterval drives the failure detector (default 1s; zero
	// switches to static mode — every seed permanently alive — for
	// single-process harnesses). SuspectAfter/DeadAfter default to 3x
	// and 8x the interval.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	DeadAfter         time.Duration
	// Self supplies the dynamic parts of the local NodeInfo (policy
	// revision, WAL position); identity and address are filled from
	// NodeID/Advertise. Optional. It must be fast and must not call
	// back into the Node.
	Self func() NodeInfo
	// Telemetry supplies metrics and the journal (optional).
	Telemetry *telemetry.Telemetry
	// Client is used for forwarding and heartbeats (default: sensible
	// timeouts).
	Client *http.Client
	// Secret, when non-empty, authenticates intra-cluster requests:
	// heartbeats (and, in mascd, WAL fetches) carry it in SecretHeader
	// and unauthenticated ones are rejected. Empty means the cluster
	// endpoints trust the network (see docs/cluster.md, "Trust model").
	Secret string
	// OnPromote fires on the single node that the takeover rule elects
	// when a member dies — the host recovers the dead member's
	// instances from its replicated WAL there. Runs on the sweep
	// goroutine.
	OnPromote func(dead Member)
	// ReplicationStatus (optional) is embedded verbatim in Status() so
	// the host can surface WAL-replication positions and lag.
	ReplicationStatus func() interface{}
}

// Node is one mascd's cluster runtime: the ring, the failure
// detector, the forwarding client, and the takeover table.
type Node struct {
	cfg  Config
	ring *Ring
	mem  *Membership
	log  *telemetry.Logger

	// redirect maps a dead member to the heir that took over its
	// shard. Resolution chains (A->B, B->C) so cascading failures
	// converge on a live owner. promoted records the dead members this
	// node has already run the promotion hook for, so the table can be
	// recomputed idempotently on every sweep without recovering the
	// same WAL twice.
	mu       sync.Mutex
	redirect map[string]string
	promoted map[string]bool

	forwarded  *telemetry.CounterVec
	forwardErr *telemetry.Counter
	forwardSec *telemetry.Histogram
	takeovers  *telemetry.Counter
}

// NewNode builds the cluster runtime. Call Start to begin
// heartbeating and Stop on shutdown.
func NewNode(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	reg := cfg.Telemetry.Registry()
	n := &Node{
		cfg:      cfg,
		redirect: make(map[string]string),
		promoted: make(map[string]bool),
		log:      cfg.Telemetry.Logger("cluster"),
		forwarded: reg.Counter("masc_cluster_forwarded_total",
			"Exchanges forwarded between cluster nodes, by direction (out = sent to the owner, in = received from a peer).", "direction"),
		forwardErr: reg.Counter("masc_cluster_forward_errors_total",
			"Forwarding attempts that failed and fell back to local handling.").With(),
		forwardSec: reg.Histogram("masc_cluster_forward_seconds",
			"Latency of forwarded exchanges, as seen by the forwarding node.", telemetry.DefLatencyBuckets).With(),
		takeovers: reg.Counter("masc_cluster_takeovers_total",
			"Shard takeovers performed by this node after a member death.").With(),
	}

	members := []string{cfg.NodeID}
	for _, s := range cfg.Seeds {
		if s.ID != "" && s.ID != cfg.NodeID {
			members = append(members, s.ID)
		}
	}
	n.ring = NewRing(cfg.VirtualNodes, members...)

	hb := cfg.HeartbeatInterval
	if hb == 0 && len(members) > 1 {
		hb = time.Second
	}
	if hb < 0 {
		hb = 0
	}
	n.mem = NewMembership(MembershipOptions{
		Self:              n.selfInfo,
		Seeds:             cfg.Seeds,
		HeartbeatInterval: hb,
		SuspectAfter:      cfg.SuspectAfter,
		DeadAfter:         cfg.DeadAfter,
		Client:            cfg.Client,
		Secret:            cfg.Secret,
		Registry:          reg,
		Logger:            n.log,
		OnDead:            n.memberDead,
		OnAlive:           n.memberAlive,
		OnSweep:           n.reassess,
	})
	return n, nil
}

// selfInfo assembles the local NodeInfo advertised in heartbeats.
func (n *Node) selfInfo() NodeInfo {
	info := NodeInfo{}
	if n.cfg.Self != nil {
		info = n.cfg.Self()
	}
	info.ID = n.cfg.NodeID
	info.Addr = n.cfg.Advertise
	return info
}

// ID returns the local node identity.
func (n *Node) ID() string { return n.cfg.NodeID }

// Membership exposes the failure detector (for mounting the
// heartbeat handler and for status).
func (n *Node) Membership() *Membership { return n.mem }

// Start launches the heartbeat loop. Stop shuts it down.
func (n *Node) Start() { n.mem.Start() }
func (n *Node) Stop()  { n.mem.Stop() }

// memberDead and memberAlive are the failure-detector edges; both
// defer to reassess, which derives the takeover table from the
// current member states rather than from the transition that fired.
func (n *Node) memberDead(Member) { n.reassess() }

// memberAlive runs when a member rejoins: its shard routes back to it
// and it becomes promotable again if it dies later. (State recovered
// by an heir in the interim stays on the heir; a rejoining node must
// come back empty — see docs/cluster.md, "Rejoin".)
func (n *Node) memberAlive(m Member) {
	n.mu.Lock()
	delete(n.promoted, m.ID)
	n.mu.Unlock()
	n.reassess()
}

// reassess is the failover controller: it recomputes the whole
// takeover table from the current member table. The heir of every
// dead member is Successor over the same skip set (all currently-dead
// members), so survivors converge as soon as their failure detectors
// agree — unlike an edge-triggered rule, which freezes whatever skip
// set each survivor happened to hold when the dead transition fired.
// It runs on every sweep (not just on transitions): a heave that
// elects this node late — e.g. the originally computed heir died
// before promoting — still promotes here, exactly once per death,
// tracked by the promoted set.
func (n *Node) reassess() {
	members := n.mem.Members()
	dead := make(map[string]bool)
	all := append([]string{n.cfg.NodeID}, memberIDs(members)...)
	for _, m := range members {
		if m.State == StateDead {
			dead[m.ID] = true
		}
	}
	var promote []Member
	type reassignment struct{ dead, heir string }
	var changed []reassignment
	n.mu.Lock()
	redirect := make(map[string]string, len(dead))
	for _, m := range members {
		if m.State != StateDead {
			continue
		}
		heir := Successor(all, m.ID, dead)
		redirect[m.ID] = heir
		if n.redirect[m.ID] != heir {
			changed = append(changed, reassignment{dead: m.ID, heir: heir})
		}
		if heir == n.cfg.NodeID && !n.promoted[m.ID] {
			n.promoted[m.ID] = true
			promote = append(promote, m)
		}
	}
	n.redirect = redirect
	n.mu.Unlock()
	for _, c := range changed {
		n.log.Warn("cluster shard reassigned", "dead", c.dead, "heir", c.heir)
	}
	for _, m := range promote {
		n.takeovers.Inc()
		if n.cfg.OnPromote != nil {
			n.cfg.OnPromote(m)
		}
	}
}

func memberIDs(members []Member) []string {
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.ID
	}
	return out
}

// Owner resolves the live owner of a conversation key: the ring
// owner, then through the takeover table until it reaches a member
// not known to be dead.
func (n *Node) Owner(key string) string {
	owner := n.ring.Owner(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < len(n.redirect)+1; i++ {
		heir, ok := n.redirect[owner]
		if !ok || heir == "" || heir == owner {
			break
		}
		owner = heir
	}
	return owner
}

// Route decides where a conversation key is handled: locally (ok &&
// local) or at a peer (ok && !local, with the peer returned). Keys
// owned by an unreachable or unknown member fall back to local
// handling — availability over strict placement.
func (n *Node) Route(key string) (peer Member, local bool) {
	if key == "" {
		return Member{}, true
	}
	owner := n.Owner(key)
	if owner == "" || owner == n.cfg.NodeID {
		return Member{}, true
	}
	m, ok := n.mem.Member(owner)
	if !ok || m.State == StateDead || m.Addr == "" {
		return Member{}, true
	}
	return m, false
}

// Takeovers snapshots the dead-member takeover table.
func (n *Node) Takeovers() map[string]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]string, len(n.redirect))
	for k, v := range n.redirect {
		out[k] = v
	}
	return out
}

// Status is the /api/v1/cluster report.
type Status struct {
	Self NodeInfo `json:"self"`
	// Members lists every known peer with liveness state; the local
	// node is Self, not repeated here.
	Members []Member `json:"members"`
	// Ring summarizes the hash ring.
	Ring struct {
		Members      []string `json:"members"`
		VirtualNodes int      `json:"virtual_nodes"`
	} `json:"ring"`
	// Takeovers maps dead members to the heirs serving their shard.
	Takeovers map[string]string `json:"takeovers,omitempty"`
	// PolicyRevisionSkew counts live members (including this node)
	// whose policy revision differs from the local one.
	PolicyRevisionSkew int `json:"policy_revision_skew"`
	// Replication is the host-supplied WAL replication report.
	Replication interface{} `json:"replication,omitempty"`
}

// Status assembles the cluster status report.
func (n *Node) Status() Status {
	s := Status{
		Self:               n.selfInfo(),
		Members:            n.mem.Members(),
		Takeovers:          n.Takeovers(),
		PolicyRevisionSkew: n.mem.RevisionSkew(),
	}
	s.Ring.Members = n.ring.Members()
	s.Ring.VirtualNodes = n.ring.vnodes
	if n.cfg.ReplicationStatus != nil {
		s.Replication = n.cfg.ReplicationStatus()
	}
	return s
}

// StatusHandler serves GET /api/v1/cluster.
func (n *Node) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.Status())
	})
}
