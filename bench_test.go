// Package masc_test holds the top-level benchmark harness: one
// benchmark family per paper artifact (see EXPERIMENTS.md for the
// mapping). The experiment binaries (cmd/scmbench) produce the
// paper-formatted tables; these benches expose the same machinery to
// `go test -bench` for profiling and regression tracking.
package masc_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/core"
	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/stocktrade"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

const benchRecoveryPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="bench-recovery">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="3" delay="100us"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

// benchSCM deploys four retailers; faulty==true gives retailer 0 random
// outages: up for a mean of 200 of its requests, then down for 20.
func benchSCM(b *testing.B, faulty bool) *scm.Deployment {
	b.Helper()
	net := transport.NewNetwork()
	cfg := scm.DeployConfig{Retailers: 4}
	if faulty {
		inj := faultinject.NewRandomOutages(200, 20, 42)
		inj.SetFailureLatency(100 * time.Microsecond)
		cfg.RetailerInjectors = map[int]faultinject.Injector{0: inj}
	}
	d, err := scm.Deploy(net, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchBus(b *testing.B, d *scm.Deployment, policyXML string) *bus.Bus {
	b.Helper()
	repo := policy.NewRepository()
	if policyXML != "" {
		if _, err := repo.LoadXML(policyXML); err != nil {
			b.Fatal(err)
		}
	}
	gw := bus.New(d.Net, bus.WithPolicyRepository(repo), bus.WithSeed(42))
	if _, err := gw.CreateVEP(bus.VEPConfig{
		Name:      "Retailer",
		Services:  d.RetailerAddrs,
		Contract:  scm.RetailerContract(),
		Selection: policy.SelectRoundRobin,
	}); err != nil {
		b.Fatal(err)
	}
	return gw
}

func getCatalog(b *testing.B, invoker transport.Invoker, target string, padding int) {
	b.Helper()
	env := soap.NewRequest(scm.NewGetCatalogRequest("tv", padding))
	soap.Addressing{To: target, Action: "getCatalog"}.Apply(env)
	resp, err := invoker.Invoke(context.Background(), target, env)
	if err == nil && resp.IsFault() {
		err = resp.Fault
	}
	// Failures are expected under fault injection; the bench measures
	// the latency distribution including failed attempts, like the
	// paper's load generator.
	_ = err
}

// --- Table 1 (E1): direct vs mediated under faults ---

func BenchmarkTable1DirectFaultyRetailer(b *testing.B) {
	d := benchSCM(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getCatalog(b, d.Net, scm.RetailerAddr(0), 0)
	}
}

func BenchmarkTable1DirectHealthyRetailer(b *testing.B) {
	d := benchSCM(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getCatalog(b, d.Net, scm.RetailerAddr(2), 0)
	}
}

func BenchmarkTable1VEPWithRecovery(b *testing.B) {
	d := benchSCM(b, true)
	gw := benchBus(b, d, benchRecoveryPolicies)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getCatalog(b, gw, "vep:Retailer", 0)
	}
}

// --- Figure 5 (E2): RTT vs request size, direct vs bus ---

func BenchmarkFigure5(b *testing.B) {
	for _, sizeKB := range []int{1, 16, 64} {
		for _, mode := range []string{"direct", "bus"} {
			b.Run(fmt.Sprintf("%s-%dKB", mode, sizeKB), func(b *testing.B) {
				d := benchSCM(b, false)
				var invoker transport.Invoker = d.Net
				target := scm.RetailerAddr(0)
				if mode == "bus" {
					gw := benchBus(b, d, "")
					v, err := gw.VEP("Retailer")
					if err != nil {
						b.Fatal(err)
					}
					v.Pipeline().Append(bus.NewMessageLogger(time.Now, 1<<16))
					invoker, target = gw, "vep:Retailer"
				}
				b.SetBytes(int64(sizeKB) * 1024)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					getCatalog(b, invoker, target, sizeKB*1024)
				}
			})
		}
	}
}

// --- Throughput (E3): parallel load through the bus ---

func BenchmarkThroughput(b *testing.B) {
	for _, mode := range []string{"direct", "bus"} {
		b.Run(mode, func(b *testing.B) {
			d := benchSCM(b, false)
			var invoker transport.Invoker = d.Net
			target := scm.RetailerAddr(0)
			if mode == "bus" {
				invoker, target = benchBus(b, d, ""), "vep:Retailer"
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					getCatalog(b, invoker, target, 0)
				}
			})
		})
	}
}

// --- Customization (E4): static customization cost per instance ---

func BenchmarkCustomizationStatic(b *testing.B) {
	net := transport.NewNetwork()
	if _, err := stocktrade.Deploy(net, nil, 1); err != nil {
		b.Fatal(err)
	}
	stack := core.NewStack(net)
	defer stack.Close()
	if err := stack.LoadPolicies(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="bench">
  <AdaptationPolicy name="add-cc" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="process.started"/>
    <Condition>//order/placeOrder/Market != 'domestic'</Condition>
    <Actions>
      <AddActivity anchor="Analyze" position="after">
        <Activity><invoke name="CC" endpoint="inproc://trade/currency-1" operation="convert" input="order"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`); err != nil {
		b.Fatal(err)
	}
	def, err := workflow.ParseDefinitionString(stocktrade.BaseProcessXML)
	if err != nil {
		b.Fatal(err)
	}
	stack.Engine.Deploy(def)
	order, err := xmltree.ParseString(stocktrade.NewOrderPayload("international", "Japan", "corporate", 50000, "buy"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := stack.Engine.Start("TradingProcess", map[string]*xmltree.Element{"order": order})
		if err != nil {
			b.Fatal(err)
		}
		if st, err := inst.Wait(10 * time.Second); err != nil || st != workflow.StateCompleted {
			b.Fatalf("state=%s err=%v", st, err)
		}
	}
}

// --- Ablations (E8) ---

// BenchmarkAblationPolicyLookup compares the object policy repository
// against re-parsing policies per adaptation decision (§3.2's planned
// optimization), measured on the decision path alone.
func BenchmarkAblationPolicyLookup(b *testing.B) {
	d := benchSCM(b, true)

	b.Run("object-repository", func(b *testing.B) {
		gw := benchBus(b, d, benchRecoveryPolicies)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			getCatalog(b, gw, "vep:Retailer", 0)
		}
	})
	b.Run("reparse-per-decision", func(b *testing.B) {
		repo := policy.NewRepository()
		gw := bus.New(d.Net,
			bus.WithPolicyRepository(repo),
			bus.WithPolicySource(func() *policy.Repository {
				r := policy.NewRepository()
				_, _ = r.LoadXML(benchRecoveryPolicies)
				return r
			}))
		if _, err := gw.CreateVEP(bus.VEPConfig{
			Name: "Retailer", Services: d.RetailerAddrs,
			Contract: scm.RetailerContract(), Selection: policy.SelectRoundRobin,
		}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			getCatalog(b, gw, "vep:Retailer", 0)
		}
	})
}

// BenchmarkAblationListener compares goroutine-per-request dispatch
// against a fixed worker pool (§3.2's listener critique).
func BenchmarkAblationListener(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"spawn-per-request", 0}, {"worker-pool-8", 8}} {
		b.Run(mode.name, func(b *testing.B) {
			d := benchSCM(b, false)
			l := bus.NewListener(benchBus(b, d, ""), mode.workers)
			defer l.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					getCatalog(b, l, "vep:Retailer", 0)
				}
			})
		})
	}
}

// --- Micro-benchmarks of the hot substrate paths ---

func BenchmarkPolicyParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := policy.ParseString(benchRecoveryPolicies); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSOAPRoundTrip(b *testing.B) {
	env := soap.NewRequest(scm.NewGetCatalogRequest("tv", 1024))
	soap.Addressing{MessageID: "m1", To: "x", Action: "getCatalog"}.Apply(env)
	text, err := env.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := env.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := soap.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXPathEvaluate(b *testing.B) {
	doc := soap.NewRequest(scm.NewSubmitOrderRequest("C1", []scm.OrderItem{
		{SKU: "605001", Qty: 2}, {SKU: "605002", Qty: 1},
	}, 0)).ToXML()
	expr := xpath.MustCompile("count(//item[number(qty) > 1]) = 1 and //customerID = 'C1'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := expr.EvalBool(doc, xpath.Context{})
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkWorkflowInstance(b *testing.B) {
	ri := transport.InvokerFunc(func(_ context.Context, _ string, req *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewRequest(xmltree.New("urn:b", "ok")), nil
	})
	engine := workflow.NewEngine(ri)
	def, err := workflow.NewDefinition("bench",
		workflow.NewSequence("main",
			workflow.NewInvoke("i1", workflow.InvokeSpec{Endpoint: "a", Operation: "op1"}),
			workflow.NewInvoke("i2", workflow.InvokeSpec{Endpoint: "b", Operation: "op2"}),
			workflow.NewInvoke("i3", workflow.InvokeSpec{Endpoint: "c", Operation: "op3"}),
		))
	if err != nil {
		b.Fatal(err)
	}
	engine.Deploy(def)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := engine.Start("bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		if st, err := inst.Wait(10 * time.Second); err != nil || st != workflow.StateCompleted {
			b.Fatalf("state=%s err=%v", st, err)
		}
	}
}
