package scm

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"github.com/masc-project/masc/internal/ringbuf"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

// LoggingFacility is the SCM logging Web service: "each use case
// includes a logging call to a Logging Service to monitor activities
// of the services. A customer can track orders by using the getEvents
// operation" (§3.2). The log is bounded (logCapacity, oldest dropped
// first), and getEvents answers a process instance with only the
// events logged under its ProcessInstanceID, so neither the log nor a
// tracking answer grows with the number of orders served.
type LoggingFacility struct {
	mu     sync.Mutex
	events *ringbuf.Buffer[loggedEvent] // created on first logEvent
}

// logCapacity is how many events the facility retains.
const logCapacity = 4096

// loggedEvent is one logEvent call: its text and the process instance
// that caused it ("" when the request carried none).
type loggedEvent struct {
	instance, text string
}

var _ transport.Handler = (*LoggingFacility)(nil)

// Serve implements transport.Handler.
func (l *LoggingFacility) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	switch req.PayloadName().Local {
	case "logEvent":
		ev := loggedEvent{instance: soap.ProcessInstanceID(req), text: req.Payload.ChildText("", "eventText")}
		l.mu.Lock()
		if l.events == nil {
			l.events = ringbuf.New[loggedEvent](logCapacity)
		}
		l.events.Push(ev)
		l.mu.Unlock()
		return soap.NewRequest(xmltree.New(Namespace, "logEventResponse")), nil
	case "getEvents":
		// A caller without an instance ID tracks everything retained.
		instance := soap.ProcessInstanceID(req)
		resp := xmltree.New(Namespace, "getEventsResponse")
		l.mu.Lock()
		if l.events != nil {
			l.events.Do(func(e *loggedEvent) bool {
				if instance == "" || e.instance == instance {
					resp.Append(xmltree.NewText(Namespace, "event", e.text))
				}
				return true
			})
		}
		l.mu.Unlock()
		return soap.NewRequest(resp), nil
	default:
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown logging operation"), nil
	}
}

// Events returns the retained event texts, oldest first.
func (l *LoggingFacility) Events() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []string{}
	if l.events != nil {
		l.events.Do(func(e *loggedEvent) bool {
			out = append(out, e.text)
			return true
		})
	}
	return out
}

// Manufacturer replenishes warehouse stock on purchase orders.
type Manufacturer struct {
	// Name labels the manufacturer (MA, MB, MC).
	Name string

	mu       sync.Mutex
	received map[string]int // sku -> total quantity ordered
}

var _ transport.Handler = (*Manufacturer)(nil)

// NewManufacturer builds a manufacturer.
func NewManufacturer(name string) *Manufacturer {
	return &Manufacturer{Name: name, received: make(map[string]int)}
}

// Serve implements transport.Handler.
func (m *Manufacturer) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if req.PayloadName().Local != "submitPO" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown manufacturer operation"), nil
	}
	sku := req.Payload.ChildText("", "sku")
	qty, err := strconv.Atoi(req.Payload.ChildText("", "qty"))
	if err != nil || qty <= 0 || sku == "" {
		return soap.NewFaultEnvelope(soap.FaultClient, "invalid purchase order"), nil
	}
	m.mu.Lock()
	m.received[sku] += qty
	m.mu.Unlock()
	resp := xmltree.New(Namespace, "submitPOResponse")
	resp.Append(xmltree.NewText(Namespace, "ack", "accepted"))
	return soap.NewRequest(resp), nil
}

// Warehouse manages stock for the catalog: "when an item in a
// Warehouse stock falls below a certain threshold, the Warehouse must
// restock the item from the Manufacturer's inventory" (§3.2).
type Warehouse struct {
	// Name labels the warehouse (WA, WB, WC).
	Name string
	// Manufacturer is the address of the restocking manufacturer.
	Manufacturer string
	// Threshold triggers restocking when stock falls below it.
	Threshold int
	// RestockQty is the purchase-order size.
	RestockQty int
	// Invoker reaches the manufacturer (may route through the bus).
	Invoker transport.Invoker

	mu    sync.Mutex
	stock map[string]int
}

var _ transport.Handler = (*Warehouse)(nil)

// NewWarehouse builds a warehouse with initial stock per SKU.
func NewWarehouse(name string, initialStock int, manufacturer string, invoker transport.Invoker) *Warehouse {
	w := &Warehouse{
		Name:         name,
		Manufacturer: manufacturer,
		Threshold:    5,
		RestockQty:   25,
		Invoker:      invoker,
		stock:        make(map[string]int),
	}
	for _, p := range DefaultCatalog() {
		w.stock[p.SKU] = initialStock
	}
	return w
}

// Stock reports current stock of a SKU.
func (w *Warehouse) Stock(sku string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stock[sku]
}

// Serve implements transport.Handler.
func (w *Warehouse) Serve(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	switch req.PayloadName().Local {
	case "shipGoods":
		return w.shipGoods(ctx, req)
	case "getStock":
		sku := req.Payload.ChildText("", "sku")
		resp := xmltree.New(Namespace, "getStockResponse")
		resp.Append(xmltree.NewText(Namespace, "qty", strconv.Itoa(w.Stock(sku))))
		return soap.NewRequest(resp), nil
	default:
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown warehouse operation"), nil
	}
}

func (w *Warehouse) shipGoods(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	sku := req.Payload.ChildText("", "sku")
	qty, err := strconv.Atoi(req.Payload.ChildText("", "qty"))
	if err != nil || qty <= 0 {
		return soap.NewFaultEnvelope(soap.FaultClient, "invalid shipGoods request"), nil
	}

	w.mu.Lock()
	have, known := w.stock[sku]
	shipped := known && have >= qty
	if shipped {
		w.stock[sku] = have - qty
	}
	needRestock := known && w.stock[sku] < w.Threshold
	w.mu.Unlock()

	if needRestock && w.Invoker != nil && w.Manufacturer != "" {
		w.restock(ctx, sku)
	}

	resp := xmltree.New(Namespace, "shipGoodsResponse")
	resp.Append(xmltree.NewText(Namespace, "shipped", strconv.FormatBool(shipped)))
	resp.Append(xmltree.NewText(Namespace, "sku", sku))
	return soap.NewRequest(resp), nil
}

func (w *Warehouse) restock(ctx context.Context, sku string) {
	po := xmltree.New(Namespace, "submitPO")
	po.Append(xmltree.NewText(Namespace, "sku", sku))
	po.Append(xmltree.NewText(Namespace, "qty", strconv.Itoa(w.RestockQty)))
	env := soap.NewRequest(po)
	soap.Addressing{To: w.Manufacturer, Action: "submitPO"}.Apply(env)
	resp, err := w.Invoker.Invoke(ctx, w.Manufacturer, env)
	if err != nil || resp.IsFault() {
		// Restocking failure degrades gracefully: the warehouse will
		// retry on the next shipment below threshold.
		return
	}
	w.mu.Lock()
	w.stock[sku] += w.RestockQty
	w.mu.Unlock()
}

// Retailer fulfills catalog queries and orders: "to fulfill orders,
// the Retailer Web service manages stock levels in three warehouses
// ... If Warehouse A cannot fulfill an order, the Retailer checks
// Warehouse B; if Warehouse B cannot, the Retailer checks Warehouse C"
// (§3.2).
type Retailer struct {
	// Name labels the retailer implementation (A, B, C, D).
	Name string
	// Warehouses are consulted in order for each order item.
	Warehouses []string
	// Logging is the Logging Facility address ("" disables logging).
	Logging string
	// Invoker reaches warehouses and logging (may route through wsBus).
	Invoker transport.Invoker
	// Catalog is the product catalog served.
	Catalog []Product
}

var _ transport.Handler = (*Retailer)(nil)

// NewRetailer builds a retailer over the default catalog.
func NewRetailer(name string, warehouses []string, logging string, invoker transport.Invoker) *Retailer {
	return &Retailer{
		Name:       name,
		Warehouses: warehouses,
		Logging:    logging,
		Invoker:    invoker,
		Catalog:    DefaultCatalog(),
	}
}

// Serve implements transport.Handler.
func (r *Retailer) Serve(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	switch req.PayloadName().Local {
	case "getCatalog":
		return r.getCatalog(ctx, req)
	case "submitOrder":
		return r.submitOrder(ctx, req)
	default:
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown retailer operation"), nil
	}
}

func (r *Retailer) getCatalog(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	category := req.Payload.ChildText("", "category")
	resp := xmltree.New(Namespace, "getCatalogResponse")
	for _, p := range r.Catalog {
		if category != "" && p.Category != category {
			continue
		}
		item := xmltree.New(Namespace, "Product")
		item.Append(xmltree.NewText(Namespace, "sku", p.SKU))
		item.Append(xmltree.NewText(Namespace, "name", p.Name))
		item.Append(xmltree.NewText(Namespace, "price", strconv.FormatFloat(p.Price, 'f', 2, 64)))
		resp.Append(item)
	}
	// Echo padding so response size tracks request size (Figure 5).
	if pad := req.Payload.ChildText("", "padding"); pad != "" {
		resp.Append(xmltree.NewText(Namespace, "padding", pad))
	}
	r.logEvent(ctx, req, "getCatalog served by "+r.Name)
	return soap.NewRequest(resp), nil
}

func (r *Retailer) submitOrder(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	customer := req.Payload.ChildText("", "customerID")
	if customer == "" {
		return soap.NewFaultEnvelope(soap.FaultClient, "InvalidOrderFault: missing customerID"), nil
	}
	items, err := ParseOrderItems(req.Payload)
	if err != nil {
		return soap.NewFaultEnvelope(soap.FaultClient, "InvalidOrderFault: "+err.Error()), nil
	}

	resp := xmltree.New(Namespace, "submitOrderResponse")
	resp.Append(xmltree.NewText(Namespace, "orderID", "ord-"+r.Name+"-"+customer))
	for _, it := range items {
		line := xmltree.New(Namespace, "lineResult")
		line.Append(xmltree.NewText(Namespace, "sku", it.SKU))
		source := ""
		for _, wh := range r.Warehouses {
			shipped, err := r.askWarehouse(ctx, wh, it)
			if err != nil {
				continue // warehouse unreachable: try the next
			}
			if shipped {
				source = wh
				break
			}
		}
		if source != "" {
			line.Append(xmltree.NewText(Namespace, "status", "shipped"))
			line.Append(xmltree.NewText(Namespace, "warehouse", source))
		} else {
			line.Append(xmltree.NewText(Namespace, "status", "backordered"))
		}
		resp.Append(line)
	}
	if pad := req.Payload.ChildText("", "padding"); pad != "" {
		resp.Append(xmltree.NewText(Namespace, "padding", pad))
	}
	r.logEvent(ctx, req, fmt.Sprintf("submitOrder %s: %d items", customer, len(items)))
	return soap.NewRequest(resp), nil
}

func (r *Retailer) askWarehouse(ctx context.Context, warehouse string, it OrderItem) (bool, error) {
	p := xmltree.New(Namespace, "shipGoods")
	p.Append(xmltree.NewText(Namespace, "sku", it.SKU))
	p.Append(xmltree.NewText(Namespace, "qty", strconv.Itoa(it.Qty)))
	env := soap.NewRequest(p)
	soap.Addressing{To: warehouse, Action: "shipGoods"}.Apply(env)
	resp, err := r.Invoker.Invoke(ctx, warehouse, env)
	if err != nil {
		return false, err
	}
	if resp.IsFault() {
		return false, resp.Fault
	}
	return resp.Payload.ChildText("", "shipped") == "true", nil
}

func (r *Retailer) logEvent(ctx context.Context, req *soap.Envelope, text string) {
	if r.Logging == "" || r.Invoker == nil {
		return
	}
	p := xmltree.New(Namespace, "logEvent")
	p.Append(xmltree.NewText(Namespace, "eventText", text))
	env := soap.NewRequest(p)
	soap.Addressing{To: r.Logging, Action: "logEvent"}.Apply(env)
	if id := soap.ProcessInstanceID(req); id != "" {
		soap.SetProcessInstanceID(env, id)
	}
	// Logging is not business critical (§3.2 configures a skip policy
	// for it); failures are ignored here and handled by bus policies
	// when routed through a VEP.
	_, _ = r.Invoker.Invoke(ctx, r.Logging, env)
}

// ConfigurationService lists registered implementations per service
// type, backed by the registry (the optional UDDI-backed Configuration
// Web service of §3.2).
type ConfigurationService struct {
	// Lookup returns addresses for a service type.
	Lookup func(serviceType string) ([]string, error)
}

var _ transport.Handler = (*ConfigurationService)(nil)

// Serve implements transport.Handler.
func (c *ConfigurationService) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if req.PayloadName().Local != "getImplementations" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown configuration operation"), nil
	}
	st := req.Payload.ChildText("", "serviceType")
	addrs, err := c.Lookup(st)
	if err != nil {
		return soap.NewFaultEnvelope(soap.FaultServer, err.Error()), nil
	}
	resp := xmltree.New(Namespace, "getImplementationsResponse")
	for _, a := range addrs {
		resp.Append(xmltree.NewText(Namespace, "implementation", a))
	}
	return soap.NewRequest(resp), nil
}
