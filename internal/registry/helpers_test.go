package registry

import (
	"sort"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Deregister removes the entry at the address and reports whether it
// existed.
func (r *Registry) Deregister(address string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[address]; !ok {
		return false
	}
	delete(r.entries, address)
	return true
}

// Types returns all registered service types, sorted.
func (r *Registry) Types() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[string]bool)
	for _, e := range r.entries {
		seen[e.ServiceType] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// All returns every entry, sorted by address.
func (r *Registry) All() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address < out[j].Address })
	return out
}
