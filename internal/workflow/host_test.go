package workflow

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

func hostFixture(t *testing.T) (*Engine, *recordingInvoker) {
	t.Helper()
	ri := newRecordingInvoker()
	ri.respond["verify"] = func(req *soapEnvAlias) (*soapEnvAlias, error) {
		resp := xmltree.New("urn:t", "verifyResponse")
		resp.Append(xmltree.NewText("urn:t", "approved",
			req.Payload.ChildText("", "Amount")))
		return soap.NewRequest(resp), nil
	}
	e := NewEngine(ri)
	def, err := NewDefinition("HostedOrder",
		NewSequence("main",
			NewInvoke("Verify", InvokeSpec{
				Endpoint: "inproc://verifier", Operation: "verify",
				InputVar: "order", OutputVar: "result",
			}),
		), "order", "result")
	if err != nil {
		t.Fatal(err)
	}
	e.Deploy(def)
	return e, ri
}

func TestProcessHostServesComposition(t *testing.T) {
	e, _ := hostFixture(t)
	host := &ProcessHost{
		Engine: e, Definition: "HostedOrder",
		InputVar: "order", OutputVar: "result",
	}
	req := soap.NewRequest(xmltree.MustParseString(
		`<placeOrder xmlns="urn:t"><Amount>500</Amount></placeOrder>`))
	resp, err := host.Serve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsFault() {
		t.Fatalf("fault: %v", resp.Fault)
	}
	if got := resp.Payload.ChildText("", "approved"); got != "500" {
		t.Fatalf("approved = %q", got)
	}
	// The response correlates to the instance that served it.
	if soap.ProcessInstanceID(resp) == "" {
		t.Fatal("response lacks instance correlation")
	}
}

// TestProcessHostSharesDefaults: concurrent requests read one Defaults
// map; every instance gets its own copy, and the shared trees are never
// modified.
func TestProcessHostSharesDefaults(t *testing.T) {
	e, _ := hostFixture(t)
	order := xmltree.MustParseString(`<placeOrder xmlns="urn:t"><Amount>7</Amount></placeOrder>`)
	before, err := xmltree.MarshalString(order)
	if err != nil {
		t.Fatal(err)
	}
	host := &ProcessHost{
		Engine: e, Definition: "HostedOrder", OutputVar: "result",
		Defaults: map[string]*xmltree.Element{"order": order},
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				req := soap.NewRequest(xmltree.New("urn:t", "start"))
				resp, err := host.Serve(context.Background(), req)
				if err != nil || resp.IsFault() || resp.Payload.ChildText("", "approved") != "7" {
					t.Errorf("serve: resp = %+v err = %v", resp, err)
					return
				}
				inst, err := e.Instance(soap.ProcessInstanceID(resp))
				if err != nil {
					t.Error(err)
					return
				}
				inst.mu.Lock()
				shared := inst.vars["order"] == order
				inst.mu.Unlock()
				if shared {
					t.Errorf("instance %s holds the shared default tree", inst.ID())
				}
			}
		}()
	}
	wg.Wait()
	if after, _ := xmltree.MarshalString(order); after != before {
		t.Fatalf("default input changed from %s to %s", before, after)
	}
}

func TestProcessHostAckWithoutOutputVar(t *testing.T) {
	e, _ := hostFixture(t)
	host := &ProcessHost{Engine: e, Definition: "HostedOrder", InputVar: "order"}
	req := soap.NewRequest(xmltree.MustParseString(`<placeOrder xmlns="urn:t"><Amount>1</Amount></placeOrder>`))
	resp, err := host.Serve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Payload.Name.Local != "processCompleted" {
		t.Fatalf("ack = %v", resp.Payload)
	}
}

func TestProcessHostFaultedInstance(t *testing.T) {
	ri := newRecordingInvoker()
	ri.respond["verify"] = func(*soapEnvAlias) (*soapEnvAlias, error) {
		return soap.NewFaultEnvelope(soap.FaultServer, "verifier down"), nil
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewInvoke("Verify", InvokeSpec{Endpoint: "x", Operation: "verify", InputVar: "order"}),
		"order")
	e.Deploy(def)
	host := &ProcessHost{Engine: e, Definition: "P", InputVar: "order"}
	resp, err := host.Serve(context.Background(),
		soap.NewRequest(xmltree.MustParseString(`<o xmlns="urn:t"/>`)))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() || !strings.Contains(resp.Fault.String, "ProcessFault") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestProcessHostTerminatedInstance(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewTerminate("stop"))
	e.Deploy(def)
	host := &ProcessHost{Engine: e, Definition: "P"}
	resp, err := host.Serve(context.Background(),
		soap.NewRequest(xmltree.MustParseString(`<o xmlns="urn:t"/>`)))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() || !strings.Contains(resp.Fault.String, "ProcessTerminatedFault") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestProcessHostTimeout(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewDelay("zzz", time.Hour))
	e.Deploy(def)
	host := &ProcessHost{Engine: e, Definition: "P", Timeout: 30 * time.Millisecond}
	resp, err := host.Serve(context.Background(),
		soap.NewRequest(xmltree.MustParseString(`<o xmlns="urn:t"/>`)))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() || !strings.Contains(resp.Fault.String, "ProcessTimeoutFault") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestProcessHostEmptyRequest(t *testing.T) {
	e, _ := hostFixture(t)
	host := &ProcessHost{Engine: e, Definition: "HostedOrder", InputVar: "order"}
	resp, err := host.Serve(context.Background(), &soap.Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() {
		t.Fatal("empty request accepted")
	}
}

func TestProcessHostUnknownDefinition(t *testing.T) {
	e, _ := hostFixture(t)
	host := &ProcessHost{Engine: e, Definition: "Ghost"}
	if _, err := host.Serve(context.Background(),
		soap.NewRequest(xmltree.MustParseString(`<o xmlns="urn:t"/>`))); err == nil {
		t.Fatal("unknown definition served")
	}
}

// TestProcessHostOnNetwork hosts the composition behind a network
// address so a second process can invoke the first — composition of
// compositions.
func TestProcessHostOnNetwork(t *testing.T) {
	e, _ := hostFixture(t)
	host := &ProcessHost{Engine: e, Definition: "HostedOrder", InputVar: "order", OutputVar: "result"}
	net := transport.NewNetwork()
	net.Register("inproc://trading-process", host)

	outer := NewEngine(net)
	def, err := NewDefinition("Outer",
		NewSequence("main",
			NewAssign("prep", Assignment{To: "order",
				Literal: xmltree.MustParseString(`<placeOrder xmlns="urn:t"><Amount>42</Amount></placeOrder>`)}),
			NewInvoke("CallInner", InvokeSpec{
				Endpoint: "inproc://trading-process", Operation: "placeOrder",
				InputVar: "order", OutputVar: "resp",
			}),
		), "order", "resp")
	if err != nil {
		t.Fatal(err)
	}
	outer.Deploy(def)
	inst, err := outer.Start("Outer", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := inst.Wait(5 * time.Second)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	resp, _ := inst.GetVar("resp")
	ok, err := xpath.MustCompile("//approved = '42'").EvalBool(resp, xpath.Context{})
	if err != nil || !ok {
		t.Fatalf("nested composition result = %v", resp)
	}
}
