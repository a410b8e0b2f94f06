package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/xmltree"
)

func echoHandler() Handler {
	return HandlerFunc(func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		resp := xmltree.New("urn:test", "echoResponse")
		resp.Append(xmltree.NewText("urn:test", "got", req.PayloadName().Local))
		return soap.NewRequest(resp), nil
	})
}

func testRequest(t *testing.T) *soap.Envelope {
	t.Helper()
	p, err := xmltree.ParseString(`<ping xmlns="urn:test"><v>1</v></ping>`)
	if err != nil {
		t.Fatal(err)
	}
	return soap.NewRequest(p)
}

func TestNetworkInvoke(t *testing.T) {
	n := NewNetwork()
	n.Register("inproc://echo", echoHandler())
	resp, err := n.Invoke(context.Background(), "inproc://echo", testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Payload.ChildText("", "got"); got != "ping" {
		t.Fatalf("echo = %q", got)
	}
}

func TestNetworkEndpointNotFound(t *testing.T) {
	n := NewNetwork()
	_, err := n.Invoke(context.Background(), "inproc://nope", testRequest(t))
	if !errors.Is(err, ErrEndpointNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkUnregister(t *testing.T) {
	n := NewNetwork()
	n.Register("inproc://echo", echoHandler())
	n.Unregister("inproc://echo")
	if _, err := n.Invoke(context.Background(), "inproc://echo", testRequest(t)); !errors.Is(err, ErrEndpointNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkAddresses(t *testing.T) {
	n := NewNetwork()
	n.Register("inproc://b", echoHandler())
	n.Register("inproc://a", echoHandler())
	got := n.Addresses()
	if len(got) != 2 || got[0] != "inproc://a" || got[1] != "inproc://b" {
		t.Fatalf("Addresses = %v", got)
	}
}

func TestNetworkReRegisterReplaces(t *testing.T) {
	n := NewNetwork()
	n.Register("inproc://svc", echoHandler())
	n.Register("inproc://svc", HandlerFunc(func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewFaultEnvelope(soap.FaultServer, "v2"), nil
	}))
	resp, err := n.Invoke(context.Background(), "inproc://svc", testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() || resp.Fault.String != "v2" {
		t.Fatal("re-registration did not replace handler")
	}
}

// delayHook charges every request a fixed delay.
func delayHook(d time.Duration) *Hook {
	return &Hook{Request: func(uint64, int) Effect { return Effect{Delay: d} }}
}

// TestNetworkInjectedUnavailability: the hook sees the endpoint's
// request ordinals in order and the encoded request size, and the
// requests it marks unavailable fail with its reason without reaching
// the handler.
func TestNetworkInjectedUnavailability(t *testing.T) {
	n := NewNetwork()
	var served int
	n.Register("inproc://down", HandlerFunc(func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		served++
		return echoHandler().Serve(ctx, req)
	}), WithHook(&Hook{Request: func(k uint64, size int) Effect {
		if size == 0 {
			t.Errorf("request %d: size 0", k)
		}
		if k%2 == 1 {
			return Effect{Unavailable: "odd request"}
		}
		return Effect{}
	}}))
	for k := 0; k < 4; k++ {
		_, err := n.Invoke(context.Background(), "inproc://down", testRequest(t))
		if k%2 == 0 {
			if err != nil {
				t.Fatalf("request %d: %v", k, err)
			}
			continue
		}
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("request %d: err = %v, want ErrUnavailable", k, err)
		}
		var ue *UnavailableError
		if !errors.As(err, &ue) {
			t.Fatalf("err %T not *UnavailableError", err)
		}
		if ue.Endpoint != "inproc://down" || ue.Reason != "odd request" {
			t.Fatalf("UnavailableError = %+v", ue)
		}
	}
	if served != 2 {
		t.Fatalf("handler served %d requests, want 2", served)
	}
}

func TestNetworkDelaysOnFakeClock(t *testing.T) {
	fc := clock.NewFakeAtZero()
	n := NewNetwork(WithClock(fc))
	n.Register("inproc://slow", echoHandler(), WithHook(&Hook{
		Request: func(uint64, int) Effect { return Effect{Delay: 4 * time.Second} },
		Reply:   func(int) time.Duration { return time.Second },
	}))

	type result struct {
		resp *soap.Envelope
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := n.Invoke(context.Background(), "inproc://slow", testRequest(t))
		done <- result{resp, err}
	}()

	// Request side (4s) + reply side (1s) = 5s.
	for i := 0; i < 3; i++ {
		if !fc.BlockUntilWaiters(1, time.Second) {
			t.Fatalf("stage %d: invocation never slept", i)
		}
		select {
		case <-done:
			t.Fatalf("invocation completed after only %d stages", i)
		default:
		}
		fc.Advance(3 * time.Second)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("invocation did not complete")
	}
	if got := fc.Since(time.Date(2006, 11, 27, 0, 0, 0, 0, time.UTC)); got < 5*time.Second {
		t.Fatalf("virtual elapsed = %v, want >= 5s", got)
	}
}

func TestNetworkContextCancellation(t *testing.T) {
	n := NewNetwork()
	n.Register("inproc://slow", echoHandler(), WithHook(delayHook(time.Hour)))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := n.Invoke(ctx, "inproc://slow", testRequest(t))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestNetworkHandlerError(t *testing.T) {
	n := NewNetwork()
	boom := errors.New("boom")
	n.Register("inproc://bad", HandlerFunc(func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return nil, boom
	}))
	_, err := n.Invoke(context.Background(), "inproc://bad", testRequest(t))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkDegradationAddsDelay(t *testing.T) {
	fc := clock.NewFakeAtZero()
	n := NewNetwork(WithClock(fc))
	n.Register("inproc://degraded", echoHandler(), WithHook(&Hook{Request: func(uint64, int) Effect {
		return Effect{Delay: 2 * time.Second, Tag: "degraded"}
	}}))

	type result struct {
		resp *soap.Envelope
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := n.Invoke(context.Background(), "inproc://degraded", testRequest(t))
		done <- result{resp, err}
	}()
	if !fc.BlockUntilWaiters(1, time.Second) {
		t.Fatal("degraded invocation never slept")
	}
	fc.Advance(2 * time.Second)
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		tag := r.resp.Header(soap.NamespaceMASC, InjectedHeader)
		if tag == nil || tag.Text != "degraded" {
			t.Fatalf("reply tag = %v, want degraded", tag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("invocation did not finish after degradation delay")
	}
}

// --- HTTP binding ---

func TestHTTPRoundTrip(t *testing.T) {
	srv := httptest.NewServer(&HTTPHandler{Service: echoHandler()})
	defer srv.Close()

	inv := &HTTPInvoker{}
	req := testRequest(t)
	soap.Addressing{Action: "urn:test/ping"}.Apply(req)
	resp, err := inv.Invoke(context.Background(), srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Payload.ChildText("", "got"); got != "ping" {
		t.Fatalf("echo over HTTP = %q", got)
	}
}

func TestHTTPFaultMapsTo500AndBack(t *testing.T) {
	faulty := HandlerFunc(func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewFaultEnvelope(soap.FaultServer, "out of stock"), nil
	})
	srv := httptest.NewServer(&HTTPHandler{Service: faulty})
	defer srv.Close()

	// Raw HTTP status check.
	httpResp, err := http.Post(srv.URL, contentTypeXML, strings.NewReader(testRequest(t).MustEncode()))
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("fault status = %d, want 500", httpResp.StatusCode)
	}

	// Invoker surfaces the fault as an envelope, not an error.
	inv := &HTTPInvoker{}
	resp, err := inv.Invoke(context.Background(), srv.URL, testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() || resp.Fault.String != "out of stock" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHTTPHandlerErrorBecomesServerFault(t *testing.T) {
	bad := HandlerFunc(func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return nil, errors.New("database on fire")
	})
	srv := httptest.NewServer(&HTTPHandler{Service: bad})
	defer srv.Close()

	inv := &HTTPInvoker{}
	resp, err := inv.Invoke(context.Background(), srv.URL, testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() || resp.Fault.Code != soap.FaultServer {
		t.Fatalf("resp = %+v", resp)
	}
	if !strings.Contains(resp.Fault.String, "database on fire") {
		t.Fatalf("fault string = %q", resp.Fault.String)
	}
}

func TestHTTPRejectsNonPost(t *testing.T) {
	srv := httptest.NewServer(&HTTPHandler{Service: echoHandler()})
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestHTTPBadRequestBody(t *testing.T) {
	srv := httptest.NewServer(&HTTPHandler{Service: echoHandler()})
	defer srv.Close()
	resp, err := http.Post(srv.URL, contentTypeXML, strings.NewReader("not xml"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bad body status = %d", resp.StatusCode)
	}
}

func TestHTTPInvokerConnectionRefused(t *testing.T) {
	inv := &HTTPInvoker{}
	_, err := inv.Invoke(context.Background(), "http://127.0.0.1:1", testRequest(t))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestHTTPInvokerTimeout(t *testing.T) {
	slow := HandlerFunc(func(ctx context.Context, _ *soap.Envelope) (*soap.Envelope, error) {
		select {
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
		return soap.NewFaultEnvelope(soap.FaultServer, "late"), nil
	})
	srv := httptest.NewServer(&HTTPHandler{Service: slow})
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	inv := &HTTPInvoker{}
	_, err := inv.Invoke(ctx, srv.URL, testRequest(t))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestHTTPNonSOAPErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer srv.Close()
	inv := &HTTPInvoker{}
	_, err := inv.Invoke(context.Background(), srv.URL, testRequest(t))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if !strings.Contains(err.Error(), "418") {
		t.Fatalf("error should carry status: %v", err)
	}
}

func TestInvokerFuncAdapter(t *testing.T) {
	called := false
	inv := InvokerFunc(func(_ context.Context, addr string, _ *soap.Envelope) (*soap.Envelope, error) {
		called = true
		if addr != "inproc://x" {
			t.Fatalf("addr = %q", addr)
		}
		return nil, nil
	})
	if _, err := inv.Invoke(context.Background(), "inproc://x", testRequest(t)); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("adapter did not delegate")
	}
}

func TestHTTPAcceptedResponse(t *testing.T) {
	// A nil response (one-way accepted) maps to HTTP 202 and back to a
	// nil envelope.
	oneWay := HandlerFunc(func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return nil, nil
	})
	srv := httptest.NewServer(&HTTPHandler{Service: oneWay})
	defer srv.Close()

	inv := &HTTPInvoker{}
	resp, err := inv.Invoke(context.Background(), srv.URL, testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatalf("one-way resp = %+v, want nil", resp)
	}
}

func TestNetworkSleepPrecision(t *testing.T) {
	// Real-clock delays must be accurate to well under a millisecond
	// despite OS timer granularity (the spin-to-deadline path).
	n := NewNetwork()
	n.Register("inproc://precise", echoHandler(), WithHook(delayHook(300*time.Microsecond)))
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := n.Invoke(context.Background(), "inproc://precise", testRequest(t)); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if elapsed < 300*time.Microsecond {
			t.Fatalf("delay undershot: %v", elapsed)
		}
		if elapsed > 5*time.Millisecond {
			t.Fatalf("delay overshot badly: %v", elapsed)
		}
	}
}

func TestNetworkSleepCancelledDuringSpin(t *testing.T) {
	n := NewNetwork()
	n.Register("inproc://slowish", echoHandler(), WithHook(delayHook(50*time.Millisecond)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := n.Invoke(ctx, "inproc://slowish", testRequest(t))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnavailableErrorFormatting(t *testing.T) {
	err := &UnavailableError{Endpoint: "inproc://x", Reason: "nope"}
	if !strings.Contains(err.Error(), "inproc://x") || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Error() = %q", err.Error())
	}
}
