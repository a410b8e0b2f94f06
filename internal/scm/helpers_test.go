package scm

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Received reports the total quantity ordered for a SKU.
func (m *Manufacturer) Received(sku string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.received[sku]
}
