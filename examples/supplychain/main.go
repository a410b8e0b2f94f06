// Supplychain runs the paper's §3.2 reliability scenario interactively:
// the WS-I SCM application with random retailer outages, invoked first
// directly and then through a wsBus VEP with the retry+failover and
// skip-logging policies. It prints the before/after reliability the
// way Table 1 does.
//
//	go run ./examples/supplychain
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/loadgen"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

const recoveryPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="scm-recovery">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="3" delay="500us"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="skip-logging" subject="vep:Logging" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Four retailers; A and D crash-loop at random: up for a mean of 40
	// (A) or 50 (D) of their requests, then down for a mean of 6.
	network := transport.NewNetwork()
	deployment, err := scm.Deploy(network, nil, scm.DeployConfig{
		Retailers: 4,
		RetailerInjectors: map[int]faultinject.Injector{
			0: faultinject.NewRandomOutages(40, 6, 1),
			3: faultinject.NewRandomOutages(50, 6, 2),
		},
	})
	if err != nil {
		return err
	}

	order := func(invoker transport.Invoker, target string) loadgen.Op {
		return func(ctx context.Context, client, seq int) error {
			env := soap.NewRequest(scm.NewSubmitOrderRequest(
				fmt.Sprintf("cust-%d-%d", client, seq),
				[]scm.OrderItem{{SKU: "605005", Qty: 1}}, 0))
			soap.Addressing{To: target, Action: "submitOrder"}.Apply(env)
			resp, err := invoker.Invoke(ctx, target, env)
			if err != nil {
				return err
			}
			if resp.IsFault() {
				return resp.Fault
			}
			return nil
		}
	}
	cfg := loadgen.Config{Clients: 4, RequestsPerClient: 100}

	fmt.Println("submitOrder against retailer A directly (A has random outages):")
	direct := loadgen.Run(context.Background(), cfg, order(network, scm.RetailerAddr(0)))
	report(direct)

	repo := policy.NewRepository()
	if _, err := repo.LoadXML(recoveryPolicies); err != nil {
		return err
	}
	gateway := bus.New(network, bus.WithPolicyRepository(repo))
	if _, err := gateway.CreateVEP(bus.VEPConfig{
		Name:      "Retailer",
		Services:  deployment.RetailerAddrs,
		Contract:  scm.RetailerContract(),
		Selection: policy.SelectRoundRobin,
	}); err != nil {
		return err
	}

	fmt.Println("\nsubmitOrder through the wsBus VEP (same faults, recovery policies active):")
	mediated := loadgen.Run(context.Background(), cfg, order(gateway, "vep:Retailer"))
	report(mediated)

	fmt.Printf("\nlogging facility captured %d events\n", len(deployment.Logging.Events()))

	// One-way messages go through the Invocation Retry Handler: the
	// retry queue redelivers failed logEvent notifications and
	// dead-letters them after the budget is exhausted (§3.1).
	fmt.Println("\none-way logEvent notifications via the retry queue:")
	queue := gateway.NewRetryQueueFor(policy.RetryAction{MaxAttempts: 2, Delay: time.Millisecond}, time.Millisecond)
	defer queue.Stop()

	deliverable := scm.LoggingAddr
	undeliverable := "inproc://scm/logging-decommissioned"
	notify := func(target, text string) <-chan error {
		p := soap.NewRequest(logEventPayload(text))
		soap.Addressing{To: target, Action: "logEvent"}.Apply(p)
		return queue.Enqueue(target, p)
	}
	okDone := notify(deliverable, "nightly reconciliation complete")
	badDone := notify(undeliverable, "this service no longer exists")
	if err := <-okDone; err == nil {
		fmt.Println("  delivered: notification to the logging facility")
	}
	if err := <-badDone; err != nil {
		fmt.Printf("  dead-lettered after retries: %d message(s) in DLQ (last error: %v)\n",
			queue.DLQ().Len(), queue.DLQ().Letters()[0].LastErr)
	}
	return nil
}

func logEventPayload(text string) *xmltree.Element {
	p := xmltree.New("urn:wsi:scm", "logEvent")
	p.Append(xmltree.NewText("urn:wsi:scm", "eventText", text))
	return p
}

func report(s loadgen.Summary) {
	_, _, avail := loadgen.Availability(s.Outcomes)
	fmt.Printf("  %d requests, %d failures (%.1f per 1000), availability %.3f, mean RTT %v\n",
		s.Requests, s.Failures, s.FailuresPer1000, avail, s.Mean.Round(10*time.Microsecond))
}
