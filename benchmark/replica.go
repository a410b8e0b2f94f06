//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/telemetry/flightrec"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that was open when this one began.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the client span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory from wrappers this package puts
// around the seams between layers; nothing inside the product is
// touched. The traced run has one request in flight at a time, so the
// open spans form a stack and the parent of a new span is its top —
// also across the goroutine hop the workflow engine makes.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	req   int
	open  []int
	spans []span
}

func (t *tracer) begin(name string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) setRequest(i int) {
	t.mu.Lock()
	t.req = i
	t.mu.Unlock()
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// selfTimes is, per layer, the mean per request of span time not
// covered by child spans, in microseconds.
func (t *tracer) selfTimes(requests int) map[string]float64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-children[s.ID]) / 1e3 / float64(requests)
	}
	return self
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func (t *tracer) wrapHTTP(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(name)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

func (t *tracer) wrapHandler(name string, next transport.Handler) transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		id := t.begin(name)
		defer t.end(id)
		return next.Serve(ctx, req)
	})
}

func (t *tracer) wrapInvoker(name string, next transport.Invoker) transport.Invoker {
	return transport.InvokerFunc(func(ctx context.Context, addr string, req *soap.Envelope) (*soap.Envelope, error) {
		id := t.begin(name)
		defer t.end(id)
		return next.Invoke(ctx, addr, req)
	})
}

// orderingProcessXML is the composition cmd/mascd hosts at
// /process/OrderingProcess (cmd/mascd/process.go); package main cannot
// be imported, so the replica carries its own copy.
const orderingProcessXML = `
<process xmlns="urn:masc:workflow" name="OrderingProcess">
  <variables>
    <variable name="catalogReq"/>
    <variable name="catalog"/>
    <variable name="orderReq"/>
    <variable name="confirmation"/>
    <variable name="events"/>
  </variables>
  <sequence name="main">
    <invoke name="BrowseCatalog" endpoint="vep:Retailer" operation="getCatalog"
            input="catalogReq" output="catalog" timeout="10s"/>
    <if name="HasStock" test="count(//catalog/getCatalogResponse/Product) > 0">
      <then>
        <invoke name="PlaceOrder" endpoint="vep:Retailer" operation="submitOrder"
                input="orderReq" output="confirmation" timeout="10s"/>
        <invoke name="TrackOrder" endpoint="inproc://scm/logging" operation="getEvents"
                output="events" timeout="10s"/>
      </then>
      <else>
        <terminate name="NoStock"/>
      </else>
    </if>
  </sequence>
</process>`

// replica is mascd assembled in this process from the public
// constructors cmd/mascd/main.go uses, in the same order, with the
// tracer's wrappers at the seams: transport (HTTPHandler.ServeHTTP),
// workflow (ProcessHost.Serve), bus (Bus.Invoke, as the handler's
// service and as the engine's invoker) and backend (the in-process
// network). It exists because spans inside the product are a later
// change; every end-to-end number comes from the real daemon.
type replica struct {
	closers []func()
}

func (r *replica) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// newReplica builds one node behind bind. A nodeID makes it a static
// member of the ring of seeds (heartbeats off: every seed stays alive);
// dead registers the unreachable third Retailer of vep_faulty.
func (h *harness) newReplica(t *tracer, dataDir, nodeID string, bind *lateHandler, seeds []cluster.NodeInfo, dead bool) (_ *replica, err error) {
	r := &replica{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	network := transport.NewNetwork()
	deployment, err := scm.Deploy(network, nil, scm.DeployConfig{Retailers: 2})
	if err != nil {
		return nil, err
	}
	tel := telemetry.New(0)
	events := event.NewBus()
	repo, err := h.benchRepo(tel)
	if err != nil {
		return nil, err
	}
	dec := decision.NewRecorder(0, tel.Registry())
	st, err := store.Open(dataDir, store.Options{Sync: store.SyncBatched, Metrics: tel.Registry()})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { st.Close() })

	gateway := bus.New(t.wrapInvoker("backend", network),
		bus.WithPolicyRepository(repo), bus.WithEventBus(events), bus.WithTelemetry(tel),
		bus.WithDecisions(dec), bus.WithStore(st))
	r.closers = append(r.closers, tel.Tracer.TapEventBus(events))
	vepRetailer, err := gateway.CreateVEP(bus.VEPConfig{Name: "Retailer", Services: deployment.RetailerAddrs,
		Contract: scm.RetailerContract(), Selection: policy.SelectRoundRobin})
	if err != nil {
		return nil, err
	}
	if dead {
		vepRetailer.RegisterService(deadBackend)
	}
	sloEngine := slo.NewEngine(
		slo.DeriveObjectives(repo, []string{bus.SubjectPrefix + "Retailer"}, slo.Objective{Availability: 0.99}),
		slo.Options{Registry: tel.Registry(), Journal: tel.Logs(), Decisions: dec})
	gateway.SetInvocationObserver(sloEngine)
	rec, err := flightrec.New(flightrec.Options{Dir: filepath.Join(dataDir, "flightrec"), Telemetry: tel,
		SLOState: func() interface{} { return sloEngine.Status() }, Decisions: dec})
	if err != nil {
		return nil, err
	}
	rec.Attach(events)
	r.closers = append(r.closers, func() { rec.Close() })
	dlog, err := decision.OpenLog(filepath.Join(dataDir, "decisions"), decision.LogOptions{Metrics: tel.Registry()})
	if err != nil {
		return nil, err
	}
	dec.SetSink(dlog)
	r.closers = append(r.closers, func() { dlog.Close() })

	tracedBus := t.wrapInvoker("bus", gateway)
	engine := workflow.NewEngine(tracedBus, workflow.WithEventBus(events), workflow.WithTelemetry(tel))
	def, err := workflow.ParseDefinitionString(orderingProcessXML)
	if err != nil {
		return nil, err
	}
	engine.Deploy(def)
	persist := workflow.NewPersistenceServiceWith(st, tel, workflow.PersistenceOptions{})
	persist.Attach(engine)
	r.closers = append(r.closers, persist.Close)

	vep := &transport.HTTPHandler{Service: transport.HandlerFunc(
		func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
			name := soap.ReadAddressing(req).To
			if name == "" {
				name = "vep:Retailer"
			}
			traceID, _ := soap.TraceContext(req)
			ctx, sp := tel.Traces().StartTraceID(ctx, "gateway "+name, traceID)
			sp.SetAttr("route", name)
			resp, err := tracedBus.Invoke(ctx, name, req)
			sp.EndErr(err)
			return resp, err
		})}
	proc := &transport.HTTPHandler{Service: t.wrapHandler("workflow", &workflow.ProcessHost{
		Engine: engine, Definition: "OrderingProcess", InputVar: "catalogReq", OutputVar: "confirmation",
		Defaults: map[string]*xmltree.Element{
			"catalogReq": scm.NewGetCatalogRequest("tv", 0),
			"orderReq":   scm.NewSubmitOrderRequest("cust-api", []scm.OrderItem{{SKU: "605002", Qty: 1}}, 0),
		}})}
	mux := http.NewServeMux()
	mux.Handle("/vep/", t.wrapHTTP("transport", vep))
	mux.Handle("/process/", t.wrapHTTP("transport", proc))
	handler := http.Handler(mux)
	if nodeID != "" {
		node, err := cluster.NewNode(cluster.Config{NodeID: nodeID, Advertise: bind.srv.URL, Seeds: seeds, Telemetry: tel})
		if err != nil {
			return nil, err
		}
		handler = t.wrapHTTP("cluster", node.Forward(func(r *http.Request, _ []byte) string {
			return r.Header.Get(cluster.ConversationHTTPHeader)
		}, mux))
	}
	bind.set(handler)
	return r, nil
}

// lateHandler is an HTTP server whose handler is set after its URL is
// known: a cluster node needs its peers' addresses before it is built.
type lateHandler struct {
	srv *httptest.Server
	h   atomic.Pointer[http.Handler]
}

func newLateHandler() *lateHandler {
	l := &lateHandler{}
	l.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*l.h.Load()).ServeHTTP(w, r)
	}))
	return l
}

func (l *lateHandler) set(h http.Handler) { l.h.Store(&h) }

// runReplica drives the in-process replica of w with one sequential
// client. Blocks of requests alternate spans on and off, so both means
// see the same drift and their difference is the tracing overhead. It
// returns the trace.* metrics and writes trace-<workload>.json.
func (h *harness) runReplica(w *workload, g *gen) (_ map[string]float64, failed int, err error) {
	t := &tracer{t0: time.Now()}
	requests := w.traced
	binds := []*lateHandler{newLateHandler()}
	ids := []string{""}
	var seeds []cluster.NodeInfo
	if w.cluster {
		binds = append(binds, newLateHandler())
		ids = []string{"a", "b"}
		seeds = []cluster.NodeInfo{{ID: "a", Addr: binds[0].srv.URL}, {ID: "b", Addr: binds[1].srv.URL}}
	}
	var bases []string
	for i, b := range binds {
		defer b.srv.Close()
		dir, err := os.MkdirTemp(h.work, "replica-")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		n, err := h.newReplica(t, dir, ids[i], b, seeds, w.dead)
		if err != nil {
			return nil, 0, err
		}
		defer n.close()
		bases = append(bases, b.srv.URL)
	}
	l := newLoader(h, bases, w.path, w.reply, func(i int) string { return w.build(g, i) })
	if w.cluster {
		l.key = g.conversation
	}
	defer l.close()

	block := 100 // requests between switching the spans on and off
	if requests < block {
		block = requests
	}
	for i := 0; i < requests/10; i++ {
		if err := l.send(h.ctx, i%clients, 2*requests+i, true); err != nil {
			return nil, 0, fmt.Errorf("replica warm-up: %w", err)
		}
	}
	var onNs, offNs []float64 // per-request round trips
	for b := 0; b < 2*requests/block; b++ {
		on := b%2 == 0
		t.on.Store(on)
		for k := 0; k < block; k++ {
			i := b/2*block + k
			if !on {
				i += requests
			}
			t.setRequest(i)
			t0 := time.Now()
			id := t.begin("client")
			err := l.send(h.ctx, i%clients, i, false)
			t.end(id)
			if on {
				onNs = append(onNs, float64(time.Since(t0)))
			} else {
				offNs = append(offNs, float64(time.Since(t0)))
			}
			if err != nil {
				if failed++; failed == 1 {
					fmt.Fprintf(os.Stderr, "%s replica: %v\n", w.name, err)
				}
			}
		}
	}
	t.on.Store(false)
	if err := t.write(filepath.Join(h.out, "trace-"+w.name+".json")); err != nil {
		return nil, failed, err
	}
	self := t.selfTimes(requests)
	m := map[string]float64{"trace.overhead_pct": ratio((median(onNs)-median(offNs))*100, median(offNs))}
	for _, layer := range []string{"client", "cluster", "transport", "workflow", "bus", "backend"} {
		m["trace."+layer+"_self_us"] = self[layer]
	}
	return m, failed, nil
}
