// Package daemon assembles the MASC middleware as one deployable node:
// the SCM services on an in-process network, the core.NewStack
// middleware (a wsBus gateway mediating them through a Retailer VEP
// under WS-Policy4MASC policies compiled to an immutable decision IR,
// and the engine with its adaptation service and decision maker), the
// hosted OrderingProcess composition, the self-observation plane, and
// — when configured — a durable store and a cluster runtime. New is the
// only place these are wired; cmd/mascd parses flags into a Config and
// owns the listener, tests serve Handler from httptest. DESIGN.md
// "Daemon assembly" gives the construction and teardown order.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/core"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/telemetry/flightrec"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/version"
	"github.com/masc-project/masc/internal/workflow"
)

const defaultPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gateway-recovery">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="3" delay="2s"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

// Config configures one daemon. Every field is filled by the mascd
// flag(s) its comment names (DESIGN.md "Daemon assembly" has the
// table); the zero value is mascd started with no flags.
type Config struct {
	Policies     string                      // -policies: file replacing the built-in document
	PolicyDir    string                      // -policy-dir: bundle directory; wins over Policies
	DataDir      string                      // -data-dir: store, decision log, flight recorder; empty = in memory
	Sync         string                      // -sync: always, batched, or off
	Checkpoint   workflow.PersistenceOptions // -ckpt-anchor-every, -ckpt-queue, -ckpt-durable-finish
	DecisionRing int                         // -decision-ring
	DecisionLog  decision.LogOptions         // -decision-log-segment, -decision-log-keep
	Cluster      ClusterConfig               // cluster mode is on when its NodeID is set
	Debug        bool                        // -debug: mount /debug/pprof
}

// ClusterConfig is the cluster half of Config.
type ClusterConfig struct {
	NodeID           string             // -node-id
	Advertise        string             // -advertise: base URL peers reach this node at
	Seeds            []cluster.NodeInfo // -cluster-seed, repeatable
	ReplicationLevel int                // -replication-level: follower acks a finished instance waits for
	// Secret (-cluster-secret), when non-empty, is the shared token
	// every intra-cluster request (heartbeats, WAL fetches) must carry;
	// without it the cluster endpoints trust the network
	// (docs/cluster.md, "Trust model").
	Secret    string
	Heartbeat time.Duration // -cluster-heartbeat: failure-detector interval; zero keeps the 1s default
}

func (c *ClusterConfig) enabled() bool { return c.NodeID != "" }

// Daemon is one assembled node: the running gateway's shared state
// for the HTTP handlers, plus what Close tears down.
type Daemon struct {
	stack     *core.Stack
	network   *transport.Network
	repo      *policy.Repository
	policyDir string
	tel       *telemetry.Telemetry
	start     time.Time
	st        *store.Store
	host      *workflow.ProcessHost // serves /process/OrderingProcess
	persist   *workflow.PersistenceService
	ckptOpts  workflow.PersistenceOptions
	recovery  workflow.RecoveryReport
	slo       *slo.Engine
	flight    *flightrec.Recorder
	decisions *decision.Recorder
	dlog      *decision.Log
	cluster   *clusterRuntime
	mux       *http.ServeMux

	// recMu guards recovery: promotion-time failover merges reports
	// into it while healthz and instance listings read it.
	recMu sync.Mutex

	inflight  sync.WaitGroup
	inflightN atomic.Int64

	stop      chan struct{} // closed by Close; ends the SLO ticker
	ticker    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New wires one daemon from cfg: policy repository → compile →
// decision recorder → store → middleware stack (core.NewStack) and
// Retailer VEP → SLO engine → flight recorder → decision log →
// OrderingProcess, persistence and boot-time recovery → cluster
// runtime → mux. Nothing runs in the background until Start; on error
// everything already opened is closed again.
func New(cfg Config) (_ *Daemon, err error) {
	// Backend SCM services on an in-process network but also exposed
	// over HTTP so external tools can hit them directly.
	network := transport.NewNetwork()
	deployment, err := scm.Deploy(network, nil, scm.DeployConfig{Retailers: 2})
	if err != nil {
		return nil, err
	}

	tel := telemetry.New(0)

	// Every document set loaded into the repository is compiled to the
	// immutable decision IR and swapped in atomically, so compile.Lookup
	// on it is never nil.
	repo := policy.NewRepository()
	if err := compile.Enable(repo, compile.Options{Registry: tel.Registry(), Journal: tel.Logs()}); err != nil {
		return nil, err
	}
	if cfg.PolicyDir != "" {
		bundle, err := compile.LoadDir(cfg.PolicyDir)
		if err != nil {
			return nil, err
		}
		if err := repo.ReplaceAll(bundle.Docs); err != nil {
			return nil, err
		}
	} else {
		policyXML := defaultPolicies
		if cfg.Policies != "" {
			raw, err := os.ReadFile(cfg.Policies)
			if err != nil {
				return nil, err
			}
			policyXML = string(raw)
		}
		if _, err := repo.LoadXML(policyXML); err != nil {
			return nil, err
		}
	}

	// Decision provenance: every policy-evaluation site records into
	// this ring; with a data dir the records additionally stream to a
	// durable NDJSON log under <data-dir>/decisions.
	dec := decision.NewRecorder(cfg.DecisionRing, tel.Registry())

	d := &Daemon{
		network:   network,
		repo:      repo,
		policyDir: cfg.PolicyDir,
		tel:       tel,
		start:     time.Now(),
		ckptOpts:  cfg.Checkpoint,
		decisions: dec,
		stop:      make(chan struct{}),
	}
	defer func() {
		if err != nil {
			_ = d.Close()
		}
	}()
	if cfg.DataDir != "" {
		// Cluster mode keeps every WAL segment (no snapshot compaction):
		// followers replicate the raw log, and a compacted segment would
		// break their cursors mid-stream.
		d.st, err = openDataDir(cfg.DataDir, cfg.Sync, tel, cfg.Cluster.enabled())
		if err != nil {
			return nil, err
		}
	}

	// The middleware proper: events → bus → engine → adaptation service
	// → decision maker → ledger → trace tap. The adaptation service is
	// the engine's first runtime service, so persistence (attached in
	// setupWorkflow) checkpoints instances after static customization.
	d.stack = core.NewStack(network,
		core.WithPolicyRepository(repo),
		core.WithTelemetry(tel),
		core.WithDecisionRecorder(dec),
		core.WithStore(d.st))
	if _, err := d.stack.Bus.CreateVEP(bus.VEPConfig{
		Name:      "Retailer",
		Services:  deployment.RetailerAddrs,
		Contract:  scm.RetailerContract(),
		Selection: policy.SelectRoundRobin,
	}); err != nil {
		return nil, err
	}

	// Self-observation plane: SLO targets derived from the monitoring
	// policies (falling back to 99% availability per VEP), runtime
	// metrics for allocation pressure, and — with a data dir — the
	// fault flight recorder.
	telemetry.NewRuntimeCollector(tel.Registry())
	var subjects []string
	for _, name := range d.stack.Bus.VEPs() {
		subjects = append(subjects, bus.SubjectPrefix+name)
	}
	d.slo = slo.NewEngine(
		slo.DeriveObjectives(repo, subjects, slo.Objective{Availability: 0.99}),
		slo.Options{Registry: tel.Registry(), Journal: tel.Logs(), Decisions: dec})
	d.stack.Bus.SetInvocationObserver(d.slo)

	if cfg.DataDir != "" {
		d.flight, err = flightrec.New(flightrec.Options{
			Dir:       filepath.Join(cfg.DataDir, "flightrec"),
			Telemetry: tel,
			SLOState:  func() interface{} { return d.slo.Status() },
			Decisions: dec,
			Node:      cfg.Cluster.NodeID,
		})
		if err != nil {
			return nil, err
		}
		d.flight.Attach(d.stack.Events)

		cfg.DecisionLog.Metrics = tel.Registry()
		d.dlog, err = decision.OpenLog(filepath.Join(cfg.DataDir, "decisions"), cfg.DecisionLog)
		if err != nil {
			return nil, err
		}
		dec.SetSink(d.dlog)
	}

	// Process layer: the OrderingProcess composition runs over the
	// gateway; with a data dir its instances (and the retry queue / DLQ)
	// survive restarts, and interrupted instances are rebuilt here.
	if err := d.setupWorkflow(); err != nil {
		return nil, err
	}
	if cfg.Cluster.enabled() {
		d.cluster, err = setupCluster(d, cfg.Cluster, cfg.DataDir)
		if err != nil {
			return nil, err
		}
	}
	d.mux = d.routes(cfg.Debug)

	// The startup entry lands in the journal (first /api/v1/logs line)
	// and on stderr as a JSON log line.
	tel.Logger("mascd").Output(os.Stderr).Info("mascd starting",
		"version", version.Version,
		"veps", strings.Join(d.stack.Bus.VEPs(), ","))
	return d, nil
}

// Handler returns the daemon's HTTP surface: the gateway endpoints
// /vep/, /process/ and /svc/, the management API under /api/v1 and,
// with Config.Debug, /debug/pprof. The caller owns the listener.
func (d *Daemon) Handler() http.Handler { return d.mux }

// Gateway returns the wsBus gateway, the runtime surface for
// reconfiguring VEPs (CreateVEP, VEP(..).RegisterService/SetSelection).
func (d *Daemon) Gateway() *bus.Bus { return d.stack.Bus }

// Engine returns the process engine hosting OrderingProcess.
func (d *Daemon) Engine() *workflow.Engine { return d.stack.Engine }

// Store returns the durable store, nil without Config.DataDir.
func (d *Daemon) Store() *store.Store { return d.st }

// Start launches the background work New only prepared: the SLO
// evaluation ticker and, in cluster mode, heartbeating and the WAL
// replica loop. Call it once, before serving Handler.
func (d *Daemon) Start() {
	d.ticker.Add(1)
	go func() {
		defer d.ticker.Done()
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.slo.Tick()
			}
		}
	}()
	if d.cluster != nil {
		d.cluster.start()
	}
}

// Drain waits for in-flight gateway requests to finish or ctx to
// expire.
func (d *Daemon) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		d.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shutdown: %d gateway request(s) still in flight", d.inflightN.Load())
	}
}

// Close tears the daemon down in reverse construction order: cluster
// runtime, middleware stack (subscribers detached, pending delayed
// resumes abandoned), checkpoint queue (drained before the store
// closes), decision log, flight recorder, SLO ticker, store. It is safe
// on a partly built daemon and idempotent; the error joins what the
// decision log and the store reported on their final flush.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		if d.cluster != nil {
			d.cluster.Stop()
		}
		if d.stack != nil {
			d.stack.Close()
		}
		if d.persist != nil {
			d.persist.Close()
		}
		logErr := d.dlog.Close()
		d.flight.Close()
		close(d.stop)
		d.ticker.Wait()
		var storeErr error
		if d.st != nil {
			storeErr = d.st.Close()
		}
		d.closeErr = errors.Join(logErr, storeErr)
	})
	return d.closeErr
}
