//go:build linux

package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/monitor"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// layer is one public function of one module, timed alone in this
// process on the bytes the workloads send. n is frozen per layer so a
// round is a fixed amount of work; the metric is the median of
// layerRounds rounds.
type layer struct {
	name string // metric prefix, e.g. "xmltree.parse_small"
	unit string // "ns", "us" or "ms": the suffix of the time metric
	n    int    // calls per round
	call func()
}

const layerRounds = 3

// timeRounds reports the median round's time per call, in the layer's
// unit, and mallocs per call.
func (l *layer) timeRounds(n int) (perCall, allocs float64) {
	var times, mallocs []float64
	var before, after runtime.MemStats
	for r := 0; r < layerRounds; r++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			l.call()
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		times = append(times, float64(elapsed)/float64(n))
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[l.unit]
	return median(times) / div, median(mallocs)
}

// runLayers times every layer and returns <name>_<unit> and
// <name>_allocs for each.
func (h *harness) runLayers(g *gen) (_ map[string]float64, err error) {
	layers, done, err := h.layers(g)
	if err != nil {
		return nil, err
	}
	defer done()
	// A layer call panics when the layer rejects a generated message:
	// that is a broken benchmark, reported as this run's error.
	var current string
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer %s: %v", current, r)
		}
	}()
	out := map[string]float64{}
	for _, l := range layers {
		current = l.name
		l.call() // lazy initialisation stays outside the timing
		n := l.n / h.layerDiv
		if n < 1 {
			n = 1
		}
		out[l.name+"_"+l.unit], out[l.name+"_allocs"] = l.timeRounds(n)
	}
	return out, nil
}

// benchRepo is a repository holding the compiled bench bundle.
func (h *harness) benchRepo(tel *telemetry.Telemetry) (*policy.Repository, error) {
	repo := policy.NewRepository()
	if err := compile.Enable(repo, compile.Options{Registry: tel.Registry(), Journal: tel.Logs()}); err != nil {
		return nil, err
	}
	bundle, err := compile.LoadDir(filepath.Join(h.root, "benchmark", "policies"))
	if err != nil {
		return nil, err
	}
	return repo, repo.ReplaceAll(bundle.Docs)
}

// cannedBus is a bus over an in-process network whose Retailers answer
// from a canned reply; with deadFirst the VEP tries an unreachable
// address first on every call, so each call runs the recovery path.
func (h *harness) cannedBus(reply *soap.Envelope, deadFirst bool) (*bus.Bus, error) {
	network := transport.NewNetwork()
	canned := transport.HandlerFunc(func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return reply.Clone(), nil
	})
	services := []string{scm.RetailerAddr(0), scm.RetailerAddr(1)}
	for _, addr := range services {
		network.Register(addr, canned)
	}
	selection := policy.SelectRoundRobin
	if deadFirst {
		services = append([]string{deadBackend}, services...)
		selection = policy.SelectFirst
	}
	tel := telemetry.New(0)
	repo, err := h.benchRepo(tel)
	if err != nil {
		return nil, err
	}
	b := bus.New(network, bus.WithPolicyRepository(repo), bus.WithTelemetry(tel),
		bus.WithDecisions(decision.NewRecorder(0, tel.Registry())))
	_, err = b.CreateVEP(bus.VEPConfig{Name: "Retailer", Services: services,
		Contract: scm.RetailerContract(), Selection: selection})
	return b, err
}

// message is one SOAP message in the three forms the layers take.
type message struct {
	text string
	env  *soap.Envelope
	tree *xmltree.Element
}

// layers builds every layer's subject once, up front; done releases
// what they hold on disk.
func (h *harness) layers(g *gen) (_ []*layer, done func(), err error) {
	// The requests are the workloads' own bytes; the replies are what
	// the SCM Retailer answers to them.
	network := transport.NewNetwork()
	if _, err := scm.Deploy(network, nil, scm.DeployConfig{Retailers: 1}); err != nil {
		return nil, nil, err
	}
	load := func(text string) (req, reply *message, err error) {
		env, err := soap.Decode(text)
		if err != nil {
			return nil, nil, err
		}
		replyEnv, err := network.Invoke(h.ctx, scm.RetailerAddr(0), env.Clone())
		if err != nil {
			return nil, nil, err
		}
		replyText, err := replyEnv.Encode()
		if err != nil {
			return nil, nil, err
		}
		return &message{text, env, env.ToXML()}, &message{replyText, replyEnv, replyEnv.ToXML()}, nil
	}
	small, smallReply, err := load(g.catalogSmall(0))
	if err != nil {
		return nil, nil, err
	}
	large, largeReply, err := load(g.orderLarge(0))
	if err != nil {
		return nil, nil, err
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	parse := func(m *message) func() { return func() { _, err := xmltree.ParseString(m.text); must(err) } }
	decode := func(m *message) func() { return func() { _, err := soap.Decode(m.text); must(err) } }
	encode := func(m *message) func() { return func() { _, err := m.env.Encode(); must(err) } }
	eval := func(expr string, m *message) func() {
		prog := xpath.MustCompile(expr).Program()
		return func() {
			ok, err := prog.EvalBool(m.tree, xpath.Context{})
			must(err)
			if !ok {
				panic("assertion " + expr + " is false on a generated message")
			}
		}
	}
	tel := telemetry.New(0)
	repo, err := h.benchRepo(tel)
	if err != nil {
		return nil, nil, err
	}
	contract := scm.RetailerContract()
	check := func(op string, req, reply *message) func() {
		mon := monitor.New(repo, monitor.WithStore(monitor.NewStore(0)), monitor.WithJournal(tel.Logs()),
			monitor.WithQoSTracker(qos.NewTracker(0)), monitor.WithDecisions(decision.NewRecorder(0, tel.Registry())))
		return func() {
			if v := mon.CheckRequest("vep:Retailer", op, req.env, contract); v != nil {
				panic(v)
			}
			if v := mon.CheckResponse("vep:Retailer", op, reply.env, contract); v != nil {
				panic(v)
			}
		}
	}
	serve := func(req, reply *message) func() {
		handler := &transport.HTTPHandler{Service: transport.HandlerFunc(
			func(context.Context, *soap.Envelope) (*soap.Envelope, error) { return reply.env, nil })}
		return func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/vep/Retailer", strings.NewReader(req.text)))
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("HTTP %d", rec.Code))
			}
		}
	}
	healthyBus, err := h.cannedBus(smallReply.env, false)
	if err != nil {
		return nil, nil, err
	}
	faultyBus, err := h.cannedBus(smallReply.env, true)
	if err != nil {
		return nil, nil, err
	}
	invoke := func(b *bus.Bus) func() {
		return func() {
			resp, err := b.Invoke(h.ctx, "vep:Retailer", small.env.Clone())
			must(err)
			if resp.IsFault() {
				panic(resp.Fault)
			}
		}
	}
	snapshot := func(samples int) func() {
		tr := qos.NewTracker(0) // retain forever, as bus.New builds it
		for i := 0; i < samples; i++ {
			tr.Record("t", time.Duration(100+i%900)*time.Microsecond, i%50 != 0)
		}
		return func() {
			if tr.Snapshot("t").Invocations != samples {
				panic("snapshot lost samples")
			}
		}
	}

	// workflow.instance: the hosted composition over canned replies, no store.
	replies := map[string]*soap.Envelope{"getCatalog": smallReply.env, "submitOrder": largeReply.env,
		"getEvents": soap.NewRequest(xmltree.New(scm.Namespace, "getEventsResponse"))}
	engine := workflow.NewEngine(transport.InvokerFunc(
		func(_ context.Context, _ string, req *soap.Envelope) (*soap.Envelope, error) {
			return replies[req.PayloadName().Local].Clone(), nil
		}))
	def, err := workflow.ParseDefinitionString(orderingProcessXML)
	if err != nil {
		return nil, nil, err
	}
	engine.Deploy(def)

	// store.put_batched: one call is a pair of concurrent 1 KB puts —
	// two writers is the benchmark's client count, and what group
	// commit batches.
	storeDir, err := os.MkdirTemp(h.work, "store-")
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(storeDir, store.Options{Sync: store.SyncBatched})
	if err != nil {
		return nil, nil, err
	}
	done = func() {
		st.Close()
		os.RemoveAll(storeDir)
	}
	value := []byte(strings.Repeat("v", 1024))

	// cluster.forward_local: a one-member ring owns every key, so the
	// Forward middleware buffers the body, routes, and hands on locally.
	node, err := cluster.NewNode(cluster.Config{NodeID: "a", Advertise: "http://127.0.0.1:0", Telemetry: tel})
	if err != nil {
		done()
		return nil, nil, err
	}
	forward := node.Forward(func(r *http.Request, _ []byte) string { return r.Header.Get(convHeader) },
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }))
	ring := cluster.NewRing(0, "a", "b")
	journal := telemetry.NewJournal(0)
	recorder := decision.NewRecorder(0, tel.Registry())

	return []*layer{
		{"xmltree.parse_small", "us", 2000, parse(small)},
		{"xmltree.parse_large", "us", 40, parse(large)},
		{"soap.decode_small", "us", 2000, decode(small)},
		{"soap.decode_large", "us", 40, decode(large)},
		{"soap.encode_small", "us", 4000, encode(smallReply)},
		{"soap.encode_large", "us", 60, encode(large)},
		{"soap.toxml_large", "us", 400, func() { large.env.ToXML() }},
		{"soap.clone_large", "us", 400, func() { large.env.Clone() }},
		{"xpath.eval_hdr", "us", 20000, eval("/Envelope/Header/ConversationID != ''", small)},
		{"xpath.eval_body", "us", 200, eval("count(//item[qty > 0]) = count(//item)", large)},
		{"policy.compile", "ms", 100, func() { _, err := h.benchRepo(tel); must(err) }},
		{"policy.lookup", "ns", 200000, func() {
			if len(compile.MonitoringsFor(repo, "vep:Retailer", "getCatalog")) != 1 {
				panic("bench bundle has no getCatalog monitoring policy")
			}
		}},
		{"monitor.check_small", "us", 1000, check("getCatalog", small, smallReply)},
		{"monitor.check_large", "us", 40, check("submitOrder", large, largeReply)},
		{"transport.serve_small", "us", 1000, serve(small, smallReply)},
		{"transport.serve_large", "us", 30, serve(large, largeReply)},
		{"bus.invoke", "us", 1000, invoke(healthyBus)},
		{"bus.recover", "us", 500, invoke(faultyBus)},
		{"qos.snapshot_1k", "us", 500, snapshot(1000)},
		{"qos.snapshot_100k", "us", 5, snapshot(100000)},
		{"workflow.instance", "us", 300, func() {
			inst, err := engine.Start("OrderingProcess", map[string]*xmltree.Element{
				"catalogReq": scm.NewGetCatalogRequest("tv", 0),
				"orderReq":   scm.NewSubmitOrderRequest("cust-api", []scm.OrderItem{{SKU: "605002", Qty: 1}}, 0),
			})
			must(err)
			<-inst.Done()
			if inst.State() != workflow.StateCompleted {
				panic(fmt.Sprintf("instance ended %v: %v", inst.State(), inst.Err()))
			}
		}},
		{"store.put_batched", "us", 100, func() {
			var wg sync.WaitGroup
			for _, key := range []string{"a", "b"} {
				wg.Add(1)
				go func(key string) {
					defer wg.Done()
					must(st.Put("bench", key, value))
				}(key)
			}
			wg.Wait()
		}},
		{"cluster.ring_owner", "ns", 200000, func() {
			if ring.Owner("conv-1-0000042") == "" {
				panic("ring has no owner")
			}
		}},
		{"cluster.forward_local", "us", 5000, func() {
			req := httptest.NewRequest(http.MethodPost, "/vep/Retailer", strings.NewReader(small.text))
			req.Header.Set(convHeader, "conv-1-0000042")
			rec := httptest.NewRecorder()
			forward.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("HTTP %d", rec.Code))
			}
		}},
		{"telemetry.journal_append", "ns", 100000, func() {
			journal.Record(telemetry.Entry{Level: telemetry.LevelInfo, Kind: telemetry.KindMessage, Component: "bus",
				Message: "request getCatalog", Conversation: "conv-1-0000042",
				Fields: map[string]string{"vep": "Retailer", "operation": "getCatalog"}})
		}},
		{"telemetry.decision_record", "ns", 100000, func() {
			recorder.Record(decision.Record{Site: decision.SiteMonitor, PolicyType: "monitoring", Policy: "catalog-header",
				Subject: "vep:Retailer", Operation: "getCatalog", Conversation: "conv-1-0000042",
				Trigger: "message.request", Verdict: decision.VerdictPassed,
				Assertions: []decision.Assertion{{Name: "contract"}, {Name: "correlated"}}, Latency: 5 * time.Microsecond})
		}},
	}, done, nil
}
