package scm

import (
	"fmt"

	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/registry"
	"github.com/masc-project/masc/internal/simnet"
	"github.com/masc-project/masc/internal/transport"
)

// Addresses of the deployed SCM services.
const (
	LoggingAddr = "inproc://scm/logging"
	ConfigAddr  = "inproc://scm/configuration"
)

// RetailerAddr returns the address of retailer i (0-based: A, B, …).
func RetailerAddr(i int) string {
	return fmt.Sprintf("inproc://scm/retailer-%c", 'a'+i)
}

// WarehouseAddr returns the address of warehouse i (0-based: A, B, C).
func WarehouseAddr(i int) string {
	return fmt.Sprintf("inproc://scm/warehouse-%c", 'a'+i)
}

// ManufacturerAddr returns the address of manufacturer i (0-based).
func ManufacturerAddr(i int) string {
	return fmt.Sprintf("inproc://scm/manufacturer-%c", 'a'+i)
}

// DeployConfig shapes a Deploy call.
type DeployConfig struct {
	// Retailers is how many equivalent retailer implementations to
	// deploy (the Table 1 experiment uses 4).
	Retailers int
	// InitialStock seeds every warehouse SKU (default 100).
	InitialStock int
	// Link simulates the network between client and services; nil
	// means zero latency.
	Link *simnet.LinkProfile
	// Service simulates provider-side processing cost.
	Service simnet.ServiceProfile
	// RetailerInjectors attaches a fault injector per retailer index
	// (nil entries and missing indices mean no faults).
	RetailerInjectors map[int]faultinject.Injector
	// LoggingInjector perturbs the logging facility.
	LoggingInjector faultinject.Injector
}

// hook builds the transport hook of an endpoint with fault injector
// inj (nil for none): the injector decides by the endpoint's request
// ordinal, the link and service profiles charge for the request's size.
// With no link, no service cost and no injector it returns nil, and the
// endpoint is invoked directly.
func (cfg DeployConfig) hook(inj faultinject.Injector) *transport.Hook {
	if cfg.Link == nil && cfg.Service == (simnet.ServiceProfile{}) && inj == nil {
		return nil
	}
	h := &transport.Hook{Request: func(k uint64, size int) transport.Effect {
		var o faultinject.Outcome
		if inj != nil {
			o = inj.Decide(k)
		}
		d := o.ExtraDelay
		if cfg.Link != nil {
			d += cfg.Link.Delay(size)
		}
		if o.Unavailable {
			// The caller pays the request link plus the outage's
			// detection latency before it sees the failure.
			return transport.Effect{Delay: d, Unavailable: o.Reason}
		}
		return transport.Effect{Delay: d + cfg.Service.ProcessingTime(size), Tag: o.Tag}
	}}
	if cfg.Link != nil {
		h.Reply = cfg.Link.Delay
	}
	return h
}

// Deployment is a running SCM topology.
type Deployment struct {
	// Net is the network the services are registered on.
	Net *transport.Network
	// Retailers are the deployed retailer services by address.
	Retailers map[string]*Retailer
	// Warehouses are the deployed warehouses by address.
	Warehouses map[string]*Warehouse
	// Manufacturers are the deployed manufacturers by address.
	Manufacturers map[string]*Manufacturer
	// Logging is the logging facility.
	Logging *LoggingFacility
	// Registry indexes every deployed service by type.
	Registry *registry.Registry
	// RetailerAddrs lists retailer addresses in order (A, B, …).
	RetailerAddrs []string
}

// Deploy builds the Fig. 4 topology on net: retailers (each consulting
// warehouses A→B→C), warehouses restocking from their manufacturers,
// the logging facility, and the configuration service. Retailers call
// warehouses and logging through `backhaul`, which is typically the
// plain network but can be a wsBus for mediated internal traffic.
func Deploy(net *transport.Network, backhaul transport.Invoker, cfg DeployConfig) (*Deployment, error) {
	if cfg.Retailers <= 0 {
		cfg.Retailers = 1
	}
	if cfg.InitialStock <= 0 {
		cfg.InitialStock = 100
	}
	if backhaul == nil {
		backhaul = net
	}
	reg := registry.New()
	d := &Deployment{
		Net:           net,
		Retailers:     make(map[string]*Retailer),
		Warehouses:    make(map[string]*Warehouse),
		Manufacturers: make(map[string]*Manufacturer),
		Logging:       &LoggingFacility{},
		Registry:      reg,
	}

	// Manufacturers and warehouses (A, B, C pairs).
	var warehouseAddrs []string
	for i := 0; i < 3; i++ {
		mAddr := ManufacturerAddr(i)
		m := NewManufacturer(fmt.Sprintf("M%c", 'A'+i))
		net.Register(mAddr, m, transport.WithHook(cfg.hook(nil)))
		d.Manufacturers[mAddr] = m
		if err := reg.Register(registry.Entry{
			Address: mAddr, ServiceType: TypeManufacturer, Contract: ManufacturerContract(),
		}); err != nil {
			return nil, err
		}

		wAddr := WarehouseAddr(i)
		w := NewWarehouse(fmt.Sprintf("W%c", 'A'+i), cfg.InitialStock, mAddr, backhaul)
		net.Register(wAddr, w, transport.WithHook(cfg.hook(nil)))
		d.Warehouses[wAddr] = w
		warehouseAddrs = append(warehouseAddrs, wAddr)
		if err := reg.Register(registry.Entry{
			Address: wAddr, ServiceType: TypeWarehouse, Contract: WarehouseContract(),
		}); err != nil {
			return nil, err
		}
	}

	// Logging facility.
	net.Register(LoggingAddr, d.Logging, transport.WithHook(cfg.hook(cfg.LoggingInjector)))
	if err := reg.Register(registry.Entry{
		Address: LoggingAddr, ServiceType: TypeLogging, Contract: LoggingContract(),
	}); err != nil {
		return nil, err
	}

	// Retailers.
	for i := 0; i < cfg.Retailers; i++ {
		addr := RetailerAddr(i)
		r := NewRetailer(fmt.Sprintf("%c", 'A'+i), warehouseAddrs, LoggingAddr, backhaul)
		net.Register(addr, r, transport.WithHook(cfg.hook(cfg.RetailerInjectors[i])))
		d.Retailers[addr] = r
		d.RetailerAddrs = append(d.RetailerAddrs, addr)
		if err := reg.Register(registry.Entry{
			Address: addr, ServiceType: TypeRetailer, Contract: RetailerContract(),
		}); err != nil {
			return nil, err
		}
	}

	// Configuration service over the registry.
	net.Register(ConfigAddr, &ConfigurationService{Lookup: reg.Addresses}, transport.WithHook(cfg.hook(nil)))
	if err := reg.Register(registry.Entry{
		Address: ConfigAddr, ServiceType: TypeConfiguration, Contract: ConfigurationContract(),
	}); err != nil {
		return nil, err
	}
	return d, nil
}
