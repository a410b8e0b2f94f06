package main

import (
	"context"
	"encoding/json"
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

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
)

const catalogSOAP = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><getCatalog xmlns="urn:wsi:scm"><category>tv</category></getCatalog></e:Body></e:Envelope>`

// clusterTestNode is one mascd of a multi-node test cluster.
type clusterTestNode struct {
	id  string
	d   *daemon
	cr  *clusterRuntime
	srv *httptest.Server
	dir string
}

// bootCluster starts n full daemons (store + engine + cluster runtime)
// on loopback httptest servers, seeded with each other, heartbeating
// at the given interval. Returned nodes are sorted by ID, matching the
// takeover successor order.
func bootCluster(t *testing.T, n int, heartbeat time.Duration) []*clusterTestNode {
	t.Helper()
	nodes := make([]*clusterTestNode, n)
	// Booted peers heartbeat a node's server before its handler is
	// ready, so the slot is published atomically.
	handlers := make([]atomic.Pointer[http.ServeMux], n)
	seeds := make([]cluster.NodeInfo, n)
	for i := 0; i < n; i++ {
		i := i
		nodes[i] = &clusterTestNode{
			id:  fmt.Sprintf("node-%d", i),
			dir: t.TempDir(),
		}
		// The advertise URL must exist before the daemon boots, so the
		// server routes through a late-bound handler.
		nodes[i].srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := handlers[i].Load()
			if h == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		seeds[i] = cluster.NodeInfo{ID: nodes[i].id, Addr: nodes[i].srv.URL}
	}
	for i, tn := range nodes {
		network := transport.NewNetwork()
		deployment, err := scm.Deploy(network, nil, scm.DeployConfig{Retailers: 2})
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New(0)
		repo := testRepository(t, tel, defaultPolicies)
		d := &daemon{
			network:   network,
			repo:      repo,
			tel:       tel,
			start:     time.Now(),
			decisions: decision.NewRecorder(64, tel.Registry()),
		}
		st, err := openDataDir(tn.dir, "always", d, true)
		if err != nil {
			t.Fatal(err)
		}
		d.st = st
		gateway := bus.New(network,
			bus.WithPolicyRepository(repo),
			bus.WithTelemetry(tel),
			bus.WithStore(st))
		if _, err := gateway.CreateVEP(bus.VEPConfig{
			Name:     "Retailer",
			Services: deployment.RetailerAddrs,
			Contract: scm.RetailerContract(),
		}); err != nil {
			t.Fatal(err)
		}
		d.gateway = gateway
		d.engine = workflow.NewEngine(gateway, workflow.WithTelemetry(tel))
		if err := d.setupWorkflow(); err != nil {
			t.Fatal(err)
		}
		cr, err := setupCluster(d, clusterSettings{
			nodeID:           tn.id,
			advertise:        tn.srv.URL,
			seeds:            seeds,
			replicationLevel: 1,
			secret:           "soak-secret", // heartbeats and WAL fetches must authenticate
			heartbeat:        heartbeat,
		}, tn.dir)
		if err != nil {
			t.Fatal(err)
		}
		d.cluster = cr
		tn.d, tn.cr = d, cr
		cr.start()
		handlers[i].Store(d.routes(false))
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.cr.Stop()
			if tn.d.persist != nil {
				tn.d.persist.Close()
			}
			_ = tn.d.st.Close()
			tn.srv.Close()
		}
	})
	return nodes
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// allAlive reports whether every node sees every other node alive.
func allAlive(nodes []*clusterTestNode) bool {
	for _, tn := range nodes {
		alive := 0
		for _, m := range tn.cr.node.Membership().Members() {
			if m.State == cluster.StateAlive {
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
	Replication struct {
		Level int
		Feed  *struct {
			Followers map[string]struct {
				LagBytes int64 `json:"lag_bytes"`
			}
		}
	}
}

// TestClusterStatusAndForwarding boots two nodes and checks the
// management surface: /api/v1/cluster reports membership + replication,
// healthz grows a cluster section, and a gateway exchange keyed to the
// peer's shard still answers (forwarded to the owner).
func TestClusterStatusAndForwarding(t *testing.T) {
	nodes := bootCluster(t, 2, 25*time.Millisecond)
	waitUntil(t, 5*time.Second, "both nodes alive", func() bool { return allAlive(nodes) })

	// A key owned by node-1, posted to node-0, must be forwarded and
	// still answer with the catalog.
	var remoteKey string
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("conv-%d", i)
		if nodes[0].cr.node.Owner(k) == "node-1" {
			remoteKey = k
			break
		}
	}
	code, body := postVEP(t, nodes[0].srv.URL, remoteKey)
	if code != http.StatusOK || !strings.Contains(body, "getCatalogResponse") {
		t.Fatalf("forwarded exchange: status=%d body=%q", code, body)
	}
	if got := nodes[1].cr.node.Status(); got.Self.ID != "node-1" {
		t.Fatalf("status self = %+v", got.Self)
	}

	// /api/v1/cluster on node-0: one alive member, a replication block
	// with the local feed, and (eventually) a lag-free follower ack.
	var status clusterStatusDoc
	waitUntil(t, 10*time.Second, "node-1 follower acked on node-0", func() bool {
		resp, err := http.Get(nodes[0].srv.URL + "/api/v1/cluster")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		status = clusterStatusDoc{}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			return false
		}
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
	resp, err := http.Get(nodes[0].srv.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Cluster *clusterHealth `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
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
	waitUntil(t, 10*time.Second, "all three nodes alive", func() bool { return allAlive(nodes) })

	// node-1 is the victim; its takeover successor (and WAL follower)
	// is node-2, the next ID in sorted order.
	victim, heir, other := nodes[1], nodes[2], nodes[0]
	waitUntil(t, 10*time.Second, "heir following victim WAL", func() bool {
		victim.cr.mu.Lock()
		peer := victim.cr.peer
		victim.cr.mu.Unlock()
		_ = peer // victim follows node-0; what matters is the heir:
		heir.cr.mu.Lock()
		defer heir.cr.mu.Unlock()
		return heir.cr.peer == victim.id
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
		inst, err := victim.d.engine.CreateInstance("OrderingProcess", defaultProcessInputs())
		if err != nil {
			t.Fatal(err)
		}
		created[inst.ID()] = true
	}
	// The replication gate: every checkpoint on stable storage at one
	// follower before the crash.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := victim.cr.feed.WaitReplicated(ctx, 1); err != nil {
		t.Fatalf("WaitReplicated: %v", err)
	}

	// Crash: no clean shutdown — the store is abandoned mid-flight and
	// the listener vanishes.
	victim.cr.Stop()
	victim.d.st.Abandon()
	victim.srv.Close()

	// The heir (and only the heir) promotes and rebuilds the victim's
	// instances from the replicated WAL.
	waitUntil(t, 15*time.Second, "heir recovered victim instances", func() bool {
		return heir.d.recoveredCount() == instances
	})
	if n := other.d.recoveredCount(); n != 0 {
		t.Fatalf("non-heir recovered %d instances", n)
	}
	recovered := map[string]bool{}
	heir.d.recMu.Lock()
	for _, id := range heir.d.recovery.Recovered {
		recovered[id] = true
	}
	heir.d.recMu.Unlock()
	for id := range created {
		if !recovered[id] {
			t.Fatalf("conversation lost: instance %s not recovered (got %v)", id, keys(recovered))
		}
	}
	// The heir's engine actually holds them, suspended and resumable.
	for id := range created {
		inst, err := heir.d.engine.Instance(id)
		if err != nil {
			t.Fatalf("recovered instance %s not in heir engine: %v", id, err)
		}
		if inst.State() != workflow.StateSuspended {
			t.Fatalf("instance %s state = %s, want suspended", id, inst.State())
		}
	}
	// Ring reassignment: the survivors route the victim's shard to the
	// heir.
	if tk := heir.cr.node.Takeovers(); tk[victim.id] != heir.id {
		t.Fatalf("heir takeover table = %v", tk)
	}
	// The other survivor derives the table from its own failure
	// detector, which may declare the victim dead a beat later.
	waitUntil(t, 15*time.Second, "survivor takeover table names the heir", func() bool {
		return other.cr.node.Takeovers()[victim.id] == heir.id
	})
	// A key that hashed to the victim still answers on a survivor.
	var victimKey string
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("vkey-%d", i)
		if other.cr.node.Ring().Owner(k) == victim.id {
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
