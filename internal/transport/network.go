package transport

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/xmltree"
)

// Network is an in-process SOAP network: services register under
// addresses (by convention "inproc://name"), and invocations reach the
// handler directly or, on an endpoint registered with a Hook, pay the
// hook's simulated delays and faults. It substitutes for the paper's
// Tomcat/Axis testbed in experiments (see DESIGN.md §2) and is safe for
// concurrent use.
type Network struct {
	clk clock.Clock

	mu        sync.RWMutex
	endpoints map[string]*endpoint
}

type endpoint struct {
	handler Handler
	hook    *Hook
	// requests numbers the hooked endpoint's requests for its hook.
	requests atomic.Uint64
}

// Hook simulates what lies between callers and one endpoint: link and
// host delays and injected faults. The experiments build it from their
// network model and fault schedule (scm.Deploy); an endpoint without a
// hook is invoked directly, with no encoding and no waiting.
type Hook struct {
	// Request decides the endpoint's k-th request (k counts from 0) of
	// size encoded bytes.
	Request func(k uint64, size int) Effect
	// Reply, when set, is the delay to deliver a reply of size encoded
	// bytes.
	Reply func(size int) time.Duration
}

// Effect is a hook's decision for one request.
type Effect struct {
	// Delay is waited before the handler runs or, on an unavailable
	// request, before the caller sees the failure (its detection
	// latency).
	Delay time.Duration
	// Unavailable, when set, fails the request with an
	// UnavailableError carrying it as the reason.
	Unavailable string
	// Tag, when set, is stamped on the reply as an InjectedHeader
	// block, so a client can count the replies a hook perturbed.
	Tag string
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// NewNetwork builds an empty in-process network.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{
		clk:       clock.New(),
		endpoints: make(map[string]*endpoint),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// EndpointOption configures a registered endpoint.
type EndpointOption func(*endpoint)

// WithHook puts h in front of the endpoint. A nil h means none.
func WithHook(h *Hook) EndpointOption {
	return func(e *endpoint) { e.hook = h }
}

// Register binds a handler to an address. Registering an address twice
// replaces the previous endpoint (services can be redeployed live).
func (n *Network) Register(addr string, h Handler, opts ...EndpointOption) {
	ep := &endpoint{handler: h}
	for _, opt := range opts {
		opt(ep)
	}
	n.mu.Lock()
	n.endpoints[addr] = ep
	n.mu.Unlock()
}

// Unregister removes an address; subsequent invocations fail with
// ErrEndpointNotFound.
func (n *Network) Unregister(addr string) {
	n.mu.Lock()
	delete(n.endpoints, addr)
	n.mu.Unlock()
}

var _ Invoker = (*Network)(nil)

// InjectedHeader is the MASC header block local name carrying a hook's
// Effect.Tag on a perturbed reply.
const InjectedHeader = "Injected"

// Invoke implements Invoker. On a hooked endpoint it numbers the
// request, waits the hook's request-side delay (or fails the request as
// the hook says), serves it, and waits the reply-side delay, honoring
// ctx cancellation between stages.
func (n *Network) Invoke(ctx context.Context, addr string, req *soap.Envelope) (*soap.Envelope, error) {
	n.mu.RLock()
	ep, ok := n.endpoints[addr]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrEndpointNotFound, addr)
	}

	var eff Effect
	if ep.hook != nil {
		// The request is serialized only to learn the size the hook
		// charges for.
		reqText, err := req.Encode()
		if err != nil {
			return nil, fmt.Errorf("transport: encode request: %w", err)
		}
		eff = ep.hook.Request(ep.requests.Add(1)-1, len(reqText))
	}
	if err := n.sleep(ctx, eff.Delay); err != nil {
		return nil, err
	}
	if eff.Unavailable != "" {
		return nil, &UnavailableError{Endpoint: addr, Reason: eff.Unavailable}
	}

	resp, err := ep.handler.Serve(ctx, req)
	if err != nil {
		return nil, err
	}
	// A handler that ignores cancellation must not smuggle a response
	// past an expired deadline — the caller has already given up.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	if resp != nil && eff.Tag != "" {
		resp.SetHeader(xmltree.NewText(soap.NamespaceMASC, InjectedHeader, eff.Tag))
	}

	if resp != nil && ep.hook != nil && ep.hook.Reply != nil {
		respText, err := resp.Encode()
		if err != nil {
			return nil, fmt.Errorf("transport: encode response: %w", err)
		}
		if err := n.sleep(ctx, ep.hook.Reply(len(respText))); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// sleep waits for d on the network clock, aborting early on ctx
// cancellation. Zero and negative durations return immediately.
//
// On the real clock, sub-millisecond simulated delays matter (the
// Figure 5 sweep distinguishes per-KB costs of tens of microseconds)
// but OS timer granularity is about a millisecond and — worse — varies
// with how many timers the process has armed, which would bias the
// direct-vs-bus comparison. So real-clock waits sleep coarsely to
// within a millisecond of the deadline and then spin, yielding the
// processor, until it passes.
func (n *Network) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrTimeout, err)
		}
		return nil
	}
	if _, isReal := n.clk.(clock.Real); isReal {
		deadline := time.Now().Add(d)
		if d > 2*time.Millisecond {
			select {
			case <-time.After(d - time.Millisecond):
			case <-ctx.Done():
				return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
			}
		}
		for i := 0; time.Now().Before(deadline); i++ {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w: %v", ErrTimeout, err)
				}
			}
			runtime.Gosched()
		}
		return nil
	}
	select {
	case <-n.clk.After(d):
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
}
