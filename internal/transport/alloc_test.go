//go:build !race

// The race detector allocates for its own bookkeeping, so allocation
// counts are only held without it.

package transport

import (
	"context"
	"testing"

	"github.com/masc-project/masc/internal/soap"
)

// TestNetworkUnhookedInvokeAllocatesNothing: an endpoint registered
// without a hook, as mascd registers its services, is invoked directly:
// no ordinal, no encoding, no waiting, so the network itself allocates
// nothing around the handler.
func TestNetworkUnhookedInvokeAllocatesNothing(t *testing.T) {
	reply := soap.NewRequest(nil)
	n := NewNetwork()
	n.Register("inproc://direct", HandlerFunc(func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return reply, nil
	}))
	req, ctx := testRequest(t), context.Background()
	if got := testing.AllocsPerRun(100, func() {
		if _, err := n.Invoke(ctx, "inproc://direct", req); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Invoke on an unhooked endpoint: %.0f allocations, want 0", got)
	}
}
