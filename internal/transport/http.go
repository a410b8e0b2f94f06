package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/masc-project/masc/internal/soap"
)

// contentTypeXML is the SOAP 1.1 media type.
const contentTypeXML = "text/xml; charset=utf-8"

// HTTPHandler adapts a transport.Handler to net/http, implementing the
// SOAP 1.1 HTTP binding: POST requests carry an envelope; fault
// responses use status 500; handler errors become Server faults.
type HTTPHandler struct {
	// Service is the wrapped SOAP handler.
	Service Handler
}

var _ http.Handler = (*HTTPHandler)(nil)

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint accepts POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		writeFault(w, soap.FaultClient, fmt.Sprintf("read request: %v", err))
		return
	}
	env, err := soap.Decode(body)
	if err != nil {
		writeFault(w, soap.FaultClient, fmt.Sprintf("decode request: %v", err))
		return
	}
	resp, err := h.Service.Serve(r.Context(), env)
	if err != nil {
		writeFault(w, soap.FaultServer, err.Error())
		return
	}
	if resp == nil {
		w.WriteHeader(http.StatusAccepted)
		return
	}
	status := http.StatusOK
	if resp.IsFault() {
		status = http.StatusInternalServerError
	}
	text, err := resp.Encode()
	if err != nil {
		writeFault(w, soap.FaultServer, fmt.Sprintf("encode response: %v", err))
		return
	}
	w.Header().Set("Content-Type", contentTypeXML)
	w.WriteHeader(status)
	io.WriteString(w, text) //nolint:errcheck // nothing to do about a failed write
}

// presizeLimit is the largest declared Content-Length readBody takes
// at its word. It is not a limit on message size.
const presizeLimit = 4 << 20

// readBody reads a message body to its end. A declared length sizes
// the buffer once, where io.ReadAll would double its way up to it
// (some 80 KB of buffers for a 30 KB message); an undeclared or
// implausible one falls back to growing.
func readBody(body io.Reader, length int64) (string, error) {
	var buf bytes.Buffer
	if 0 < length && length <= presizeLimit {
		// ReadFrom asks for MinRead spare bytes before each read, the
		// one that finds EOF included.
		buf.Grow(int(length) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(body)
	return buf.String(), err
}

func writeFault(w http.ResponseWriter, code soap.FaultCode, msg string) {
	env := soap.NewFaultEnvelope(code, msg)
	text, err := env.Encode()
	if err != nil {
		http.Error(w, msg, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentTypeXML)
	w.WriteHeader(http.StatusInternalServerError)
	io.WriteString(w, text) //nolint:errcheck // nothing to do about a failed write
}

// HTTPInvoker invokes SOAP endpoints over HTTP. The zero value uses
// http.DefaultClient.
type HTTPInvoker struct {
	// Client is the HTTP client to use; nil means http.DefaultClient.
	Client *http.Client
}

var _ Invoker = (*HTTPInvoker)(nil)

// Invoke implements Invoker: POST the envelope to the endpoint URL and
// decode the response. HTTP 500 responses carrying a SOAP fault are
// returned as fault envelopes (not errors); connection failures map to
// ErrUnavailable and deadline expiry to ErrTimeout.
func (h *HTTPInvoker) Invoke(ctx context.Context, endpoint string, req *soap.Envelope) (*soap.Envelope, error) {
	text, err := req.Encode()
	if err != nil {
		return nil, fmt.Errorf("transport: encode request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("transport: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", contentTypeXML)
	if a := soap.ReadAddressing(req); a.Action != "" {
		httpReq.Header.Set("SOAPAction", `"`+a.Action+`"`)
	}

	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %s", ErrTimeout, endpoint)
		}
		return nil, &UnavailableError{Endpoint: endpoint, Reason: err.Error()}
	}
	defer resp.Body.Close()

	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, &UnavailableError{Endpoint: endpoint, Reason: "truncated response: " + err.Error()}
	}
	env, decodeErr := soap.Decode(body)
	switch {
	case resp.StatusCode == http.StatusOK:
		if decodeErr != nil {
			return nil, fmt.Errorf("transport: decode response: %w", decodeErr)
		}
		return env, nil
	case resp.StatusCode == http.StatusAccepted:
		return nil, nil
	case decodeErr == nil && env.IsFault():
		return env, nil
	default:
		return nil, &UnavailableError{
			Endpoint: endpoint,
			Reason:   fmt.Sprintf("HTTP %d", resp.StatusCode),
		}
	}
}
