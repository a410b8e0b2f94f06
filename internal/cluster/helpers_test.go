package cluster

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Remove deletes a member's vnodes. Removing an absent member is a
// no-op. Note that failover does NOT remove dead members — their
// shard is reassigned wholesale via the takeover rule so the heir
// (which replicated the dead node's WAL) owns exactly the dead node's
// keys; Remove is for planned topology changes, where the minimal-
// movement property matters instead.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}
