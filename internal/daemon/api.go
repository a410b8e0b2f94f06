package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/telemetry/flightrec"
)

// apiPrefix is the management API root: every observability and
// management endpoint is mounted under it, and nowhere else.
const apiPrefix = "/api/v1"

// apiRoutes mounts the management API: the observability endpoints
// plus the VEP, policy, and instance resources. Every handler reports
// errors as the envelope {"error": {"code": ..., "message": ...}}
// (telemetry.WriteError); readyz's 503 is not an error but a
// structured readiness report ({status, reasons, veps}) probes parse.
func (d *Daemon) apiRoutes(mux *http.ServeMux) {
	handle := func(path string, h http.Handler) {
		mux.Handle(apiPrefix+path, h)
	}
	handle("/metrics", telemetry.MetricsHandler(d.tel.Registry()))
	traces := telemetry.TracesHandler(d.tel.Traces(), d.tel.Logs())
	handle("/traces", traces)
	handle("/traces/", traces)
	handle("/logs", telemetry.JournalHandler(d.tel.Logs(), telemetry.KindLog, telemetry.KindAudit))
	handle("/messages", telemetry.JournalHandler(d.tel.Logs(), telemetry.KindMessage))
	handle("/healthz", http.HandlerFunc(d.healthz))
	handle("/readyz", http.HandlerFunc(d.readyz))
	handle("/veps", http.HandlerFunc(d.vepsIndex))
	handle("/veps/", http.HandlerFunc(d.vepManage))
	handle("/policies", http.HandlerFunc(d.policiesIndex))
	handle("/policies/", http.HandlerFunc(d.policyManage))
	handle("/instances", http.HandlerFunc(d.instancesIndex))
	handle("/instances/", http.HandlerFunc(d.instanceManage))
	handle("/slo", http.HandlerFunc(d.sloReport))
	handle("/flightrec", http.HandlerFunc(d.flightrecIndex))
	handle("/flightrec/", http.HandlerFunc(d.flightrecGet))
	handle("/decisions", decision.Handler(d.decisions))
}

// sloReport serves GET /api/v1/slo: derived objectives, per-window
// burn rates, and remaining error budget for every tracked VEP.
func (d *Daemon) sloReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, d.slo.Status())
}

// flightrecIndex serves GET /api/v1/flightrec: stored fault bundles,
// newest first (empty when no flight recorder is attached, i.e. the
// daemon runs without -data-dir).
func (d *Daemon) flightrecIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	summaries := d.flight.List()
	if summaries == nil {
		summaries = []flightrec.Summary{}
	}
	writeJSON(w, http.StatusOK, struct {
		Bundles []flightrec.Summary `json:"bundles"`
	}{summaries})
}

// flightrecGet serves GET /api/v1/flightrec/{id}: one full bundle.
func (d *Daemon) flightrecGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, apiPrefix+"/flightrec/")
	if id == "" {
		d.flightrecIndex(w, r)
		return
	}
	bundle, ok := d.flight.Get(id)
	if !ok {
		writeAPIError(w, http.StatusNotFound, "no such bundle: "+id)
		return
	}
	writeJSON(w, http.StatusOK, bundle)
}

// writeAPIError emits the uniform error envelope.
func writeAPIError(w http.ResponseWriter, status int, msg string) {
	telemetry.WriteError(w, status, msg)
}

// errorEnvelope is the envelope as mascd writes it for a rejected
// policy document or bundle (422): code and message as everywhere
// else, plus the compiler front-end's structured findings.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code        string               `json:"code"`
	Message     string               `json:"message"`
	Diagnostics []compile.Diagnostic `json:"diagnostics,omitempty"`
}

// protectionStatus summarizes a VEP's overload protection in listings.
type protectionStatus struct {
	Policy    string `json:"policy"`
	Admission bool   `json:"admission"`
	InFlight  int    `json:"in_flight"`
	Queued    int    `json:"queued"`
	Breaker   bool   `json:"breaker"`
	Hedge     bool   `json:"hedge"`
}

// vepSummary is one VEP in the management listing.
type vepSummary struct {
	Name       string            `json:"name"`
	Address    string            `json:"address"`
	Services   []string          `json:"services"`
	Protection *protectionStatus `json:"protection,omitempty"`
	Breakers   map[string]string `json:"breakers,omitempty"`
}

func summarizeVEP(v *bus.VEP) vepSummary {
	s := vepSummary{
		Name:     v.Name(),
		Address:  v.Address(),
		Services: v.Services(),
		Breakers: v.BreakerStates(),
	}
	if pp := v.Protection(); pp != nil {
		ps := &protectionStatus{
			Policy:    pp.Name,
			Admission: pp.Admission != nil,
			Breaker:   pp.Breaker != nil,
			Hedge:     pp.Hedge != nil,
		}
		if inFlight, queued, ok := v.AdmissionDepths(); ok {
			ps.InFlight, ps.Queued = inFlight, queued
		}
		s.Protection = ps
	}
	return s
}

// vepsIndex serves GET /api/v1/veps: every VEP with its registered
// services, protection status, and per-backend breaker states.
func (d *Daemon) vepsIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	out := []vepSummary{}
	for _, name := range d.stack.Bus.VEPs() {
		v, err := d.stack.Bus.VEP(name)
		if err != nil {
			continue
		}
		out = append(out, summarizeVEP(v))
	}
	writeJSON(w, http.StatusOK, struct {
		VEPs []vepSummary `json:"veps"`
	}{out})
}

// vepManage routes /api/v1/veps/{name} and
// /api/v1/veps/{name}/services.
func (d *Daemon) vepManage(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, apiPrefix+"/veps/")
	name, sub, _ := strings.Cut(rest, "/")
	v, err := d.stack.Bus.VEP(name)
	if err != nil {
		writeAPIError(w, http.StatusNotFound, err.Error())
		return
	}
	switch {
	case sub == "":
		if r.Method != http.MethodGet {
			writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, summarizeVEP(v))
	case sub == "services":
		d.manageServices(w, r, v)
	default:
		writeAPIError(w, http.StatusNotFound, "unknown resource "+r.URL.Path)
	}
}

// manageServices implements runtime (de)registration of equivalent
// services — the dynamic reconfiguration counterpart of
// VEP.RegisterService/DeregisterService:
//
//	GET    /api/v1/veps/{name}/services            list
//	POST   /api/v1/veps/{name}/services            {"address": "..."}
//	DELETE /api/v1/veps/{name}/services?address=…  remove
//
// Addresses travel in a JSON body (POST) or query parameter (DELETE)
// because they contain slashes.
func (d *Daemon) manageServices(w http.ResponseWriter, r *http.Request, v *bus.VEP) {
	respond := func() {
		writeJSON(w, http.StatusOK, struct {
			VEP      string   `json:"vep"`
			Services []string `json:"services"`
		}{v.Name(), v.Services()})
	}
	switch r.Method {
	case http.MethodGet:
		respond()
	case http.MethodPost:
		var body struct {
			Address string `json:"address"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || strings.TrimSpace(body.Address) == "" {
			writeAPIError(w, http.StatusBadRequest, `body must be {"address": "<endpoint>"}`)
			return
		}
		v.RegisterService(body.Address)
		d.tel.Logger("api").Info("service registered",
			"vep", v.Name(), "address", body.Address)
		respond()
	case http.MethodDelete:
		addr := r.URL.Query().Get("address")
		if addr == "" {
			writeAPIError(w, http.StatusBadRequest, "address query parameter required")
			return
		}
		if !v.DeregisterService(addr) {
			writeAPIError(w, http.StatusNotFound,
				fmt.Sprintf("%s is not registered with VEP %s", addr, v.Name()))
			return
		}
		d.tel.Logger("api").Info("service deregistered",
			"vep", v.Name(), "address", addr)
		respond()
	default:
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET, POST, or DELETE")
	}
}
