package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
)

// routes assembles the daemon's HTTP mux. With debug, the pprof
// handlers are mounted under /debug/pprof/.
func (d *Daemon) routes(debug bool) *http.ServeMux {
	mux := http.NewServeMux()
	// Gateway endpoints: /vep/<name> mediates through the named VEP.
	// In cluster mode the forwarding middleware wraps them outermost
	// (before StripPrefix, so a proxied request keeps its full URL):
	// exchanges whose conversation is owned by a peer are forwarded
	// there transparently.
	vep := http.Handler(http.StripPrefix("/vep/", d.track(vepHandler(d.stack.Bus, d.tel))))
	// Hosted compositions: /process/<definition> starts one instance
	// per SOAP request and answers with its output.
	proc := http.Handler(http.StripPrefix("/process/", d.track(processHandler(d.host))))
	if d.cluster != nil {
		vep = d.cluster.node.Forward(clusterKey, vep)
		proc = d.cluster.node.Forward(clusterKey, proc)
	}
	mux.Handle("/vep/", vep)
	mux.Handle("/process/", proc)
	// Direct endpoints: /svc/<address suffix>, e.g. /svc/scm/retailer-a.
	mux.Handle("/svc/", directHandler(d.network))
	d.apiRoutes(mux)
	if d.cluster != nil {
		d.cluster.mount(mux)
	}
	if debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// track counts in-flight gateway requests for graceful draining.
func (d *Daemon) track(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.inflight.Add(1)
		d.inflightN.Add(1)
		defer func() {
			d.inflightN.Add(-1)
			d.inflight.Done()
		}()
		h.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// vepHandler serves SOAP posts addressed to /vep/<name> through the
// bus, and publishes each VEP's abstract contract on GET ?wsdl ("a VEP
// ... exposes an abstract WSDL for accessing the configured services").
// Every mediated request starts a trace, so /api/v1/traces shows the
// gateway → VEP → attempt span tree with recovery annotations.
func vepHandler(gateway *bus.Bus, tel *telemetry.Telemetry) http.Handler {
	soapHandler := &transport.HTTPHandler{Service: transport.HandlerFunc(
		func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
			name := soap.ReadAddressing(req).To
			if name == "" {
				name = "vep:Retailer"
			}
			// Adopt a caller-propagated trace ID (the MASC TraceID SOAP
			// header) so multi-hop exchanges join one trace.
			traceID, _ := soap.TraceContext(req)
			ctx, span := tel.Traces().StartTraceID(ctx, "gateway "+name, traceID)
			span.SetAttr("route", name)
			resp, err := gateway.Invoke(ctx, name, req)
			span.EndErr(err)
			return resp, err
		})}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Query().Has("wsdl") {
			vep, err := gateway.VEP(strings.Trim(r.URL.Path, "/"))
			if err != nil || vep.Contract() == nil {
				http.NotFound(w, r)
				return
			}
			text, err := vep.Contract().Encode()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			fmt.Fprintln(w, text)
			return
		}
		soapHandler.ServeHTTP(w, r)
	})
}

// directHandler forwards to in-process service addresses
// (inproc://scm/retailer-a etc., named by path suffix, e.g.
// /svc/scm/retailer-a).
func directHandler(network *transport.Network) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		addr := "inproc://" + strings.TrimPrefix(r.URL.Path, "/svc/")
		h := &transport.HTTPHandler{Service: transport.HandlerFunc(
			func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
				return network.Invoke(ctx, addr, req)
			})}
		h.ServeHTTP(w, r)
	})
}
