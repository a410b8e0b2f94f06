// Package registry is the UDDI-style service directory of the case
// studies: the WS-I SCM "Configuration Web service that lists all
// implementations registered in the UDDI registry for each of the Web
// Services in the sample application" (paper §3.2), and the directory
// from which customization policies "dynamically select the best Web
// service" (§2).
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/masc-project/masc/internal/wsdl"
)

// ErrNotFound reports a lookup that matched no entries.
var ErrNotFound = errors.New("registry: no services registered for type")

// Entry describes one registered service implementation.
type Entry struct {
	// Address is the invokable endpoint address.
	Address string
	// ServiceType groups functionally equivalent implementations
	// (e.g. "Retailer", "CurrencyConversion").
	ServiceType string
	// Contract is the service's interface description, shared by all
	// implementations of the type.
	Contract *wsdl.Contract
	// Properties carries provider metadata selection policies can
	// filter on (e.g. "vendor", "region", "costPerCall").
	Properties map[string]string
}

// Registry is an in-memory service directory, safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry // keyed by address
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]Entry)}
}

// Register adds or replaces an entry (keyed by address).
func (r *Registry) Register(e Entry) error {
	if e.Address == "" {
		return errors.New("registry: entry has empty address")
	}
	if e.ServiceType == "" {
		return errors.New("registry: entry has empty service type")
	}
	cp := e
	if e.Properties != nil {
		cp.Properties = make(map[string]string, len(e.Properties))
		for k, v := range e.Properties {
			cp.Properties[k] = v
		}
	}
	r.mu.Lock()
	r.entries[e.Address] = cp
	r.mu.Unlock()
	return nil
}

// Lookup returns the entries of a service type, sorted by address.
func (r *Registry) Lookup(serviceType string) ([]Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	for _, e := range r.entries {
		if e.ServiceType == serviceType {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, serviceType)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address < out[j].Address })
	return out, nil
}

// Addresses returns just the addresses for a service type, sorted.
func (r *Registry) Addresses(serviceType string) ([]string, error) {
	entries, err := r.Lookup(serviceType)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Address)
	}
	return out, nil
}
