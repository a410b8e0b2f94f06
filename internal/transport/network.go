package transport

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/simnet"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/xmltree"
)

// Network is an in-process SOAP network: services register under
// addresses (by convention "inproc://name"), and invocations pay the
// configured link and processing delays and pass through the endpoint's
// fault injector. It substitutes for the paper's Tomcat/Axis testbed in
// experiments (see DESIGN.md §2) and is safe for concurrent use.
type Network struct {
	clk clock.Clock

	mu        sync.RWMutex
	endpoints map[string]*endpoint
}

type endpoint struct {
	handler  Handler
	link     *simnet.LinkProfile
	service  simnet.ServiceProfile
	injector faultinject.Injector
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

// WithLink sets the network link profile for the endpoint. A nil or
// absent link means zero network delay.
func WithLink(link *simnet.LinkProfile) EndpointOption {
	return func(e *endpoint) { e.link = link }
}

// WithServiceProfile sets the simulated host processing cost.
func WithServiceProfile(p simnet.ServiceProfile) EndpointOption {
	return func(e *endpoint) { e.service = p }
}

// WithInjector attaches a fault injector to the endpoint.
func WithInjector(inj faultinject.Injector) EndpointOption {
	return func(e *endpoint) { e.injector = inj }
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

// InjectedHeader is the MASC header block local name carrying the
// fault injector's tag (faultinject.Outcome.Tag) on a perturbed reply.
const InjectedHeader = "Injected"

// Invoke implements Invoker: it simulates the request transfer, the
// provider-side processing (including injected degradation), and the
// response transfer, honoring ctx cancellation between stages.
func (n *Network) Invoke(ctx context.Context, addr string, req *soap.Envelope) (*soap.Envelope, error) {
	n.mu.RLock()
	ep, ok := n.endpoints[addr]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrEndpointNotFound, addr)
	}

	// The request is serialized only to learn the size the delay
	// profiles charge for; an endpoint with neither pays nothing.
	reqSize := 0
	if ep.link != nil || ep.service.PerKB != 0 {
		reqText, err := req.Encode()
		if err != nil {
			return nil, fmt.Errorf("transport: encode request: %w", err)
		}
		reqSize = len(reqText)
	}

	var injected faultinject.Outcome
	if ep.injector != nil {
		injected = ep.injector.Decide(n.clk.Now())
	}

	// An unavailable service pays the request link plus the injected
	// failure-detection latency (e.g. a connection timeout) before the
	// caller sees the error.
	if injected.Unavailable {
		var d time.Duration
		if ep.link != nil {
			d += ep.link.Delay(reqSize)
		}
		if err := n.sleep(ctx, d+injected.ExtraDelay); err != nil {
			return nil, err
		}
		return nil, &UnavailableError{Endpoint: addr, Reason: injected.Reason}
	}

	// Request link transfer plus provider-side processing (one sleep to
	// keep timer-granularity overhead off the simulated path), plus
	// injected QoS degradation.
	reqDelay := ep.service.ProcessingTime(reqSize) + injected.ExtraDelay
	if ep.link != nil {
		reqDelay += ep.link.Delay(reqSize)
	}
	if err := n.sleep(ctx, reqDelay); err != nil {
		return nil, err
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
	if resp != nil && injected.Tag != "" {
		resp.SetHeader(xmltree.NewText(soap.NamespaceMASC, InjectedHeader, injected.Tag))
	}

	if resp != nil && ep.link != nil {
		respText, err := resp.Encode()
		if err != nil {
			return nil, fmt.Errorf("transport: encode response: %w", err)
		}
		if err := n.sleep(ctx, ep.link.Delay(len(respText))); err != nil {
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
