package cluster

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/telemetry"
)

// SecretHeader carries the shared cluster secret on intra-cluster
// requests — heartbeats and WAL fetches — when one is configured
// (mascd -cluster-secret). Without a secret the cluster endpoints
// trust the network; see docs/cluster.md, "Trust model".
const SecretHeader = "X-Masc-Cluster-Secret"

// CheckSecret reports whether a request carries the shared cluster
// secret. An empty configured secret accepts everything (the
// trusted-network mode).
func CheckSecret(secret string, r *http.Request) bool {
	if secret == "" {
		return true
	}
	got := r.Header.Get(SecretHeader)
	return subtle.ConstantTimeCompare([]byte(got), []byte(secret)) == 1
}

// NodeInfo is what a node advertises about itself in every heartbeat:
// identity, reachability, the policy manifest revision it serves
// (feeding the cluster-wide revision-skew check), and its WAL write
// position (feeding replication-lag reporting).
type NodeInfo struct {
	// ID is the stable node identity (-node-id).
	ID string `json:"id"`
	// Addr is the advertised HTTP base URL, e.g. "http://10.0.0.1:8080".
	Addr string `json:"addr"`
	// PolicyRevision is the manifest revision of the policy bundle the
	// node currently serves.
	PolicyRevision string `json:"policy_revision,omitempty"`
	// WALSegment/WALOffset are the node's WAL write position, so peers
	// can report replication lag against it.
	WALSegment uint64 `json:"wal_segment,omitempty"`
	WALOffset  int64  `json:"wal_offset,omitempty"`
}

// MemberState is a member's liveness classification.
type MemberState int

const (
	// StateAlive means a heartbeat was exchanged recently.
	StateAlive MemberState = iota
	// StateSuspect means heartbeats have been missing longer than
	// SuspectAfter but the member is not yet declared dead.
	StateSuspect
	// StateDead means heartbeats have been missing longer than
	// DeadAfter; the failover controller reassigns the member's shard.
	StateDead
)

// String renders the state for JSON and logs.
func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// MarshalJSON renders the state name.
func (s MemberState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Member is one peer as the local failure detector sees it.
type Member struct {
	NodeInfo
	State MemberState `json:"state"`
	// LastSeen is when a heartbeat was last exchanged with the member.
	LastSeen time.Time `json:"last_seen"`
}

// MembershipOptions configures the failure detector.
type MembershipOptions struct {
	// Self supplies the local node's current info (policy revision and
	// WAL position change over time, so this is a callback). Required.
	Self func() NodeInfo
	// Seeds are the statically-configured peers (the local node is
	// filtered out by ID). Peers learned from heartbeat gossip extend
	// this set at runtime.
	Seeds []NodeInfo
	// HeartbeatInterval is how often the loop heartbeats every peer
	// (default 1s). Zero disables the loop entirely — static mode: all
	// seeds are permanently alive, for single-process test harnesses.
	HeartbeatInterval time.Duration
	// SuspectAfter and DeadAfter are the failure-detection horizons
	// (defaults 3x and 8x the heartbeat interval).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Client is the heartbeat HTTP client (default: 2s timeout).
	Client *http.Client
	// Secret, when non-empty, is the shared cluster secret: outgoing
	// heartbeats carry it in SecretHeader and incoming ones without it
	// are rejected — a forged heartbeat can otherwise hijack a member's
	// advertised address and receive its forwarded conversations.
	Secret string
	// Registry receives the masc_cluster_* membership metrics.
	Registry *telemetry.Registry
	// Logger (optional) records membership transitions.
	Logger *telemetry.Logger
	// OnDead fires exactly once per transition to dead, from the sweep
	// goroutine. OnAlive fires when a dead or suspect member heartbeats
	// again.
	OnDead  func(Member)
	OnAlive func(Member)
	// OnSweep fires after every sweep (following any OnDead calls),
	// from the sweep goroutine — the hook for controllers that derive
	// state from the member table and must re-evaluate it continuously
	// rather than only on transitions.
	OnSweep func()
	// Clock is the time source (defaults to the real clock).
	Clock clock.Clock
}

func (o *MembershipOptions) fill() {
	if o.HeartbeatInterval < 0 {
		o.HeartbeatInterval = 0
	}
	if o.HeartbeatInterval > 0 {
		if o.SuspectAfter <= 0 {
			o.SuspectAfter = 3 * o.HeartbeatInterval
		}
		if o.DeadAfter <= 0 {
			o.DeadAfter = 8 * o.HeartbeatInterval
		}
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Second}
	}
	if o.Clock == nil {
		o.Clock = clock.New()
	}
}

// Membership is the static-seed membership layer: it heartbeats every
// known peer over HTTP, classifies peers alive/suspect/dead by how
// recently a heartbeat was exchanged, and surfaces the member table
// for routing and status. All methods are safe for concurrent use.
type Membership struct {
	opts MembershipOptions
	clk  clock.Clock

	mu      sync.Mutex
	members map[string]*Member
	started bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	membersGauge *telemetry.GaugeVec
	heartbeats   *telemetry.CounterVec
	revSkew      *telemetry.Gauge
}

// NewMembership builds the failure detector over the seed set. Call
// Start to begin heartbeating (static mode needs no Start).
func NewMembership(opts MembershipOptions) *Membership {
	opts.fill()
	m := &Membership{
		opts:    opts,
		clk:     opts.Clock,
		members: make(map[string]*Member),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		membersGauge: opts.Registry.Gauge("masc_cluster_members",
			"Cluster members known to this node, by liveness state.", "state"),
		heartbeats: opts.Registry.Counter("masc_cluster_heartbeats_total",
			"Outgoing cluster heartbeats, by outcome (ok, error).", "outcome"),
		revSkew: opts.Registry.Gauge("masc_cluster_policy_revision_skew",
			"Live members (including this node) serving a policy manifest revision different from the local one.").With(),
	}
	self := opts.Self().ID
	now := m.clk.Now()
	for _, seed := range opts.Seeds {
		if seed.ID == "" || seed.ID == self {
			continue
		}
		m.members[seed.ID] = &Member{NodeInfo: seed, State: StateAlive, LastSeen: now}
	}
	m.publishLocked()
	return m
}

// Start launches the heartbeat/sweep loop. A no-op in static mode or
// when already started.
func (m *Membership) Start() {
	m.mu.Lock()
	if m.started || m.opts.HeartbeatInterval <= 0 {
		// Static mode never starts a loop; Stop won't wait on done.
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.loop()
}

// Stop terminates the loop. Safe to call multiple times.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.mu.Lock()
	started := m.started
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

func (m *Membership) loop() {
	defer close(m.done)
	t := time.NewTicker(m.opts.HeartbeatInterval)
	defer t.Stop()
	m.round() // heartbeat immediately so clusters converge fast at boot
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.round()
		}
	}
}

// round heartbeats every known peer and then sweeps states.
func (m *Membership) round() {
	m.mu.Lock()
	peers := make([]NodeInfo, 0, len(m.members))
	for _, mem := range m.members {
		peers = append(peers, mem.NodeInfo)
	}
	m.mu.Unlock()
	for _, p := range peers {
		m.heartbeatPeer(p)
	}
	m.sweep()
}

// heartbeatMsg is the heartbeat wire shape, both directions: the
// sender's info plus the members it knows (gossip, so late joiners
// and dynamically-learned peers converge on the full set).
type heartbeatMsg struct {
	From    NodeInfo   `json:"from"`
	Members []NodeInfo `json:"members,omitempty"`
}

// heartbeatPeer POSTs one heartbeat and merges the response.
func (m *Membership) heartbeatPeer(peer NodeInfo) {
	body, err := json.Marshal(heartbeatMsg{From: m.opts.Self(), Members: m.knownInfos()})
	if err != nil {
		return
	}
	req, err := http.NewRequest(http.MethodPost,
		peer.Addr+"/api/v1/cluster/heartbeat", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if m.opts.Secret != "" {
		req.Header.Set(SecretHeader, m.opts.Secret)
	}
	resp, err := m.opts.Client.Do(req)
	if err != nil {
		m.heartbeats.With("error").Inc()
		return
	}
	defer resp.Body.Close()
	var reply heartbeatMsg
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&reply) != nil {
		m.heartbeats.With("error").Inc()
		return
	}
	m.heartbeats.With("ok").Inc()
	m.observe(reply.From, true)
	for _, info := range reply.Members {
		m.observe(info, false)
	}
}

// HandleHeartbeat is the receiving side: it marks the sender alive,
// merges its gossip, and answers with the local view. Mount it at
// POST /api/v1/cluster/heartbeat.
func (m *Membership) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	if !CheckSecret(m.opts.Secret, r) {
		http.Error(w, "cluster secret missing or wrong", http.StatusForbidden)
		return
	}
	var msg heartbeatMsg
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil || msg.From.ID == "" {
		http.Error(w, "malformed heartbeat", http.StatusBadRequest)
		return
	}
	m.observe(msg.From, true)
	for _, info := range msg.Members {
		m.observe(info, false)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(heartbeatMsg{From: m.opts.Self(), Members: m.knownInfos()})
}

// observe folds one piece of member intelligence into the table.
// direct=true means we exchanged a heartbeat with the member itself
// (refreshing liveness); direct=false is gossip — it can introduce a
// new member (with a fresh grace window) but never refreshes an
// existing member's liveness, so a dead node cannot be kept "alive"
// by a peer's stale gossip.
func (m *Membership) observe(info NodeInfo, direct bool) {
	if info.ID == "" || info.ID == m.opts.Self().ID {
		return
	}
	m.mu.Lock()
	mem, ok := m.members[info.ID]
	if !ok {
		mem = &Member{NodeInfo: info, State: StateAlive, LastSeen: m.clk.Now()}
		m.members[info.ID] = mem
		m.publishLocked()
		m.mu.Unlock()
		if m.opts.Logger != nil {
			m.opts.Logger.Info("cluster member learned", "member", info.ID, "addr", info.Addr)
		}
		return
	}
	if !direct {
		m.mu.Unlock()
		return
	}
	was := mem.State
	mem.NodeInfo = info
	mem.LastSeen = m.clk.Now()
	mem.State = StateAlive
	revived := was != StateAlive
	snapshot := *mem
	m.publishLocked()
	m.mu.Unlock()
	if revived {
		if m.opts.Logger != nil {
			m.opts.Logger.Info("cluster member alive again",
				"member", info.ID, "was", was.String())
		}
		if m.opts.OnAlive != nil {
			m.opts.OnAlive(snapshot)
		}
	}
}

// sweep reclassifies members by heartbeat age and fires OnDead on
// alive/suspect -> dead transitions.
func (m *Membership) sweep() {
	if m.opts.HeartbeatInterval <= 0 {
		return
	}
	now := m.clk.Now()
	var died []Member
	m.mu.Lock()
	for _, mem := range m.members {
		age := now.Sub(mem.LastSeen)
		var next MemberState
		switch {
		case age > m.opts.DeadAfter:
			next = StateDead
		case age > m.opts.SuspectAfter:
			next = StateSuspect
		default:
			next = StateAlive
		}
		if next == StateDead && mem.State != StateDead {
			died = append(died, *mem)
		}
		mem.State = next
	}
	m.publishLocked()
	m.mu.Unlock()
	for _, mem := range died {
		mem.State = StateDead
		if m.opts.Logger != nil {
			m.opts.Logger.Warn("cluster member dead",
				"member", mem.ID, "addr", mem.Addr,
				"last_seen", mem.LastSeen.Format(time.RFC3339Nano))
		}
		if m.opts.OnDead != nil {
			m.opts.OnDead(mem)
		}
	}
	if m.opts.OnSweep != nil {
		m.opts.OnSweep()
	}
}

// knownInfos snapshots every known member's NodeInfo for gossip.
func (m *Membership) knownInfos() []NodeInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeInfo, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, mem.NodeInfo)
	}
	return out
}

// Members returns a snapshot of every known peer, sorted by ID (the
// local node is not listed; callers add it from Self).
func (m *Membership) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, *mem)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Member returns one peer's snapshot.
func (m *Membership) Member(id string) (Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[id]
	if !ok {
		return Member{}, false
	}
	return *mem, true
}

// RevisionSkew counts live members (including the local node) whose
// policy revision differs from the local one — 0 means the whole
// live cluster serves one bundle revision.
func (m *Membership) RevisionSkew() int {
	local := m.opts.Self().PolicyRevision
	skew := 0
	m.mu.Lock()
	for _, mem := range m.members {
		if mem.State != StateDead && mem.PolicyRevision != local {
			skew++
		}
	}
	m.mu.Unlock()
	return skew
}

// publishLocked refreshes the membership gauges. Callers hold m.mu.
func (m *Membership) publishLocked() {
	counts := map[MemberState]int{StateAlive: 0, StateSuspect: 0, StateDead: 0}
	local := m.opts.Self().PolicyRevision
	skew := 0
	for _, mem := range m.members {
		counts[mem.State]++
		if mem.State != StateDead && mem.PolicyRevision != local {
			skew++
		}
	}
	counts[StateAlive]++ // the local node counts itself alive
	for state, n := range counts {
		m.membersGauge.With(state.String()).Set(float64(n))
	}
	m.revSkew.Set(float64(skew))
}
