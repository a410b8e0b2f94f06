package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/workflow"
)

const catalogSOAP = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><getCatalog xmlns="urn:wsi:scm"><category>tv</category></getCatalog></e:Body></e:Envelope>`

// clusterTestNode is one mascd of a multi-node test cluster.
type clusterTestNode struct {
	id  string
	d   *daemon.Daemon
	srv *httptest.Server
}

// bootCluster starts n full daemons (store + engine + cluster runtime)
// on loopback httptest servers, seeded with each other, heartbeating
// at the given interval. Returned nodes are sorted by ID, matching the
// takeover successor order.
func bootCluster(t *testing.T, n int, heartbeat time.Duration) []*clusterTestNode {
	t.Helper()
	nodes := make([]*clusterTestNode, n)
	// The advertise URL must exist before the daemon boots, and booted
	// peers heartbeat a node's server before its daemon is ready, so
	// each server routes through an atomically published daemon.
	daemons := make([]atomic.Pointer[daemon.Daemon], n)
	seeds := make([]cluster.NodeInfo, n)
	for i := 0; i < n; i++ {
		i := i
		nodes[i] = &clusterTestNode{id: fmt.Sprintf("node-%d", i)}
		nodes[i].srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d := daemons[i].Load()
			if d == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			d.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(nodes[i].srv.Close)
		seeds[i] = cluster.NodeInfo{ID: nodes[i].id, Addr: nodes[i].srv.URL}
	}
	for i, tn := range nodes {
		d, err := daemon.New(daemon.Config{
			DataDir:      t.TempDir(),
			Sync:         "always",
			DecisionRing: 64,
			Cluster: daemon.ClusterConfig{
				NodeID:           tn.id,
				Advertise:        tn.srv.URL,
				Seeds:            seeds,
				ReplicationLevel: 1,
				Secret:           "soak-secret", // heartbeats and WAL fetches must authenticate
				Heartbeat:        heartbeat,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := d.Close(); err != nil {
				t.Errorf("%s close: %v", tn.id, err)
			}
		})
		tn.d = d
		d.Start()
		daemons[i].Store(d)
	}
	return nodes
}

// clusterStatusDoc decodes the fields of /api/v1/cluster the tests
// assert on.
type clusterStatusDoc struct {
	Self    struct{ ID string }
	Members []struct {
		ID    string
		State string
	}
	Ring struct {
		Members      []string `json:"members"`
		VirtualNodes int      `json:"virtual_nodes"`
	}
	Takeovers   map[string]string
	Replication struct {
		Level int
		Peer  string
		Feed  *struct {
			Followers map[string]struct {
				LagBytes int64 `json:"lag_bytes"`
			}
		}
	}
}

// status fetches the node's /api/v1/cluster report.
func (tn *clusterTestNode) status(t *testing.T) clusterStatusDoc {
	t.Helper()
	resp, err := http.Get(tn.srv.URL + "/api/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status clusterStatusDoc
	decodeJSON(t, resp.Body, &status)
	return status
}

// ring rebuilds the hash ring the node reports — the ring every member
// computes from the same IDs.
func (tn *clusterTestNode) ring(t *testing.T) *cluster.Ring {
	t.Helper()
	ring := tn.status(t).Ring
	return cluster.NewRing(ring.VirtualNodes, ring.Members...)
}

// allAlive reports whether every node sees every other node alive.
func allAlive(t *testing.T, nodes []*clusterTestNode) bool {
	for _, tn := range nodes {
		alive := 0
		for _, m := range tn.status(t).Members {
			if m.State == "alive" {
				alive++
			}
		}
		if alive != len(nodes)-1 {
			return false
		}
	}
	return true
}

func postVEP(t *testing.T, url, conversation string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/vep/Retailer", strings.NewReader(catalogSOAP))
	if err != nil {
		t.Fatal(err)
	}
	if conversation != "" {
		req.Header.Set(cluster.ConversationHTTPHeader, conversation)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestClusterStatusAndForwarding boots two nodes and checks the
// management surface: /api/v1/cluster reports membership + replication,
// healthz grows a cluster section, and a gateway exchange keyed to the
// peer's shard still answers (forwarded to the owner).
func TestClusterStatusAndForwarding(t *testing.T) {
	nodes := bootCluster(t, 2, 25*time.Millisecond)
	waitUntil(t, 5*time.Second, "both nodes alive", func() bool { return allAlive(t, nodes) })

	// A key owned by node-1, posted to node-0, must be forwarded and
	// still answer with the catalog.
	var remoteKey string
	ring := nodes[0].ring(t)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("conv-%d", i)
		if ring.Owner(k) == "node-1" {
			remoteKey = k
			break
		}
	}
	code, body := postVEP(t, nodes[0].srv.URL, remoteKey)
	if code != http.StatusOK || !strings.Contains(body, "getCatalogResponse") {
		t.Fatalf("forwarded exchange: status=%d body=%q", code, body)
	}
	if got := nodes[1].status(t); got.Self.ID != "node-1" {
		t.Fatalf("status self = %+v", got.Self)
	}

	// /api/v1/cluster on node-0: one alive member, a replication block
	// with the local feed, and (eventually) a lag-free follower ack.
	var status clusterStatusDoc
	waitUntil(t, 10*time.Second, "node-1 follower acked on node-0", func() bool {
		status = nodes[0].status(t)
		if status.Replication.Feed == nil {
			return false
		}
		f, ok := status.Replication.Feed.Followers["node-1"]
		return ok && f.LagBytes == 0
	})
	if status.Self.ID != "node-0" || len(status.Members) != 1 || status.Members[0].State != "alive" {
		t.Fatalf("cluster status = %+v", status)
	}
	if len(status.Ring.Members) != 2 || status.Ring.VirtualNodes != cluster.DefaultVirtualNodes {
		t.Fatalf("ring = %+v", status.Ring)
	}
	if status.Replication.Level != 1 {
		t.Fatalf("replication level = %d", status.Replication.Level)
	}

	// healthz cluster section.
	health := getHealth(t, nodes[0].srv)
	if health.Cluster == nil || health.Cluster.Node != "node-0" || health.Cluster.MembersAlive != 2 {
		t.Fatalf("healthz cluster = %+v", health.Cluster)
	}

	// A wrong method on the status resource is the envelope, like the
	// rest of /api/v1.
	resp2, err := http.Post(nodes[0].srv.URL+"/api/v1/cluster", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var envl errorEnvelope
	decodeJSON(t, resp2.Body, &envl)
	if resp2.StatusCode != http.StatusMethodNotAllowed || envl.Error.Code != "method_not_allowed" {
		t.Fatalf("POST /api/v1/cluster: status = %d envelope = %+v", resp2.StatusCode, envl)
	}
}

// TestClusterFailoverSoak is the kill/failover soak: boot three nodes,
// drive gateway load, checkpoint instances on a victim, wait for
// replication, crash the victim, and assert its takeover heir promotes
// and recovers every non-terminal instance — zero conversations lost —
// while the survivors keep serving.
func TestClusterFailoverSoak(t *testing.T) {
	nodes := bootCluster(t, 3, 40*time.Millisecond)
	waitUntil(t, 10*time.Second, "all three nodes alive", func() bool { return allAlive(t, nodes) })

	// node-1 is the victim; its takeover successor (and WAL follower)
	// is node-2, the next ID in sorted order.
	victim, heir, other := nodes[1], nodes[2], nodes[0]
	waitUntil(t, 10*time.Second, "heir following victim WAL", func() bool {
		return heir.status(t).Replication.Peer == victim.id
	})

	// Background load against the survivors for the whole soak; every
	// exchange must answer 200 (forward failures degrade to local
	// handling, never to an error).
	var loadErrs atomic.Int64
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	for _, tn := range []*clusterTestNode{heir, other} {
		tn := tn
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				code, _ := postVEP(t, tn.srv.URL, fmt.Sprintf("soak-%s-%d", tn.id, i))
				if code != http.StatusOK {
					loadErrs.Add(1)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	// Checkpoint instances on the victim without running them: created,
	// non-terminal, durable — exactly what failover must not lose.
	const instances = 8
	created := map[string]bool{}
	for i := 0; i < instances; i++ {
		inst, err := victim.d.Engine().CreateInstance("OrderingProcess", orderingInputs())
		if err != nil {
			t.Fatal(err)
		}
		created[inst.ID()] = true
	}
	// The replication gate: every checkpoint on stable storage at one
	// follower before the crash.
	waitUntil(t, 10*time.Second, "heir acknowledged the victim's WAL", func() bool {
		feed := victim.status(t).Replication.Feed
		if feed == nil {
			return false
		}
		f, ok := feed.Followers[heir.id]
		return ok && f.LagBytes == 0
	})

	// Crash: no clean shutdown — the store is abandoned mid-flight and
	// the listener vanishes.
	victim.d.Store().Abandon()
	victim.srv.Close()
	victim.d.Close()

	// The heir (and only the heir) promotes and rebuilds the victim's
	// instances from the replicated WAL.
	waitUntil(t, 15*time.Second, "heir recovered victim instances", func() bool {
		return getHealth(t, heir.srv).Store.RecoveredInstances == instances
	})
	if n := getHealth(t, other.srv).Store.RecoveredInstances; n != 0 {
		t.Fatalf("non-heir recovered %d instances", n)
	}
	recovered := map[string]bool{}
	for _, inst := range getInstances(t, heir.srv) {
		if inst.Recovered {
			recovered[inst.ID] = true
		}
	}
	for id := range created {
		if !recovered[id] {
			t.Fatalf("conversation lost: instance %s not recovered (got %v)", id, keys(recovered))
		}
	}
	// The heir's engine actually holds them, suspended and resumable.
	for id := range created {
		inst, err := heir.d.Engine().Instance(id)
		if err != nil {
			t.Fatalf("recovered instance %s not in heir engine: %v", id, err)
		}
		if inst.State() != workflow.StateSuspended {
			t.Fatalf("instance %s state = %s, want suspended", id, inst.State())
		}
	}
	// Ring reassignment: the survivors route the victim's shard to the
	// heir.
	if tk := heir.status(t).Takeovers; tk[victim.id] != heir.id {
		t.Fatalf("heir takeover table = %v", tk)
	}
	// The other survivor derives the table from its own failure
	// detector, which may declare the victim dead a beat later.
	waitUntil(t, 15*time.Second, "survivor takeover table names the heir", func() bool {
		return other.status(t).Takeovers[victim.id] == heir.id
	})
	// A key that hashed to the victim still answers on a survivor.
	var victimKey string
	ring := other.ring(t)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("vkey-%d", i)
		if ring.Owner(k) == victim.id {
			victimKey = k
			break
		}
	}
	code, body := postVEP(t, other.srv.URL, victimKey)
	if code != http.StatusOK || !strings.Contains(body, "getCatalogResponse") {
		t.Fatalf("post-failover exchange: status=%d body=%q", code, body)
	}

	close(stopLoad)
	loadWG.Wait()
	if n := loadErrs.Load(); n != 0 {
		t.Fatalf("%d load exchanges failed on surviving nodes during failover", n)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
