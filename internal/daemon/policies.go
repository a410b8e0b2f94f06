package daemon

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/telemetry"
)

// policyDocInfo is one policy document in the management listing: its
// content hash, per-type policy counts, and any compiler diagnostics.
type policyDocInfo struct {
	Name        string               `json:"name"`
	SHA256      string               `json:"sha256,omitempty"`
	Monitoring  int                  `json:"monitoring"`
	Adaptation  int                  `json:"adaptation"`
	Protection  int                  `json:"protection"`
	Diagnostics []compile.Diagnostic `json:"diagnostics,omitempty"`
}

// policiesPage is the GET /api/v1/policies response: the published
// bundle (revision, compile time) and every loaded document.
type policiesPage struct {
	// Mode is always "compiled": the decision IR serves evaluations.
	Mode       string          `json:"mode"`
	Revision   string          `json:"revision,omitempty"`
	CompiledAt *time.Time      `json:"compiled_at,omitempty"`
	Documents  []policyDocInfo `json:"documents"`
}

// docInfoFromStatus converts a compiled per-document status.
func docInfoFromStatus(ds *compile.DocStatus) policyDocInfo {
	return policyDocInfo{
		Name:        ds.Name,
		SHA256:      ds.SHA256,
		Monitoring:  ds.Monitoring,
		Adaptation:  ds.Adaptation,
		Protection:  ds.Protection,
		Diagnostics: ds.Diagnostics,
	}
}

// docInfoFromDocument summarizes one raw document (a GET or PUT on it):
// hash and lint run on demand.
func docInfoFromDocument(doc *policy.Document) policyDocInfo {
	info := policyDocInfo{
		Name:        doc.Name,
		Monitoring:  len(doc.Monitoring),
		Adaptation:  len(doc.Adaptation),
		Protection:  len(doc.Protection),
		Diagnostics: compile.CheckDocument(doc),
	}
	if hash, err := compile.HashDocument(doc); err == nil {
		info.SHA256 = hash
	}
	return info
}

// policiesStatus builds the current listing from the live compiled set.
func (d *Daemon) policiesStatus() policiesPage {
	cs := compile.Lookup(d.repo)
	page := policiesPage{
		Mode:       "compiled",
		Revision:   cs.Manifest.Revision,
		CompiledAt: &cs.Manifest.CompiledAt,
		Documents:  []policyDocInfo{},
	}
	for _, ds := range cs.Docs() {
		page.Documents = append(page.Documents, docInfoFromStatus(ds))
	}
	return page
}

// auditPolicyChange leaves one audit-journal entry per management-API
// policy mutation: who (remote address), what (action and document),
// when (the entry's timestamp).
func (d *Daemon) auditPolicyChange(r *http.Request, action, document, outcome string) {
	d.tel.Logs().Record(telemetry.Entry{
		Level:     telemetry.LevelInfo,
		Kind:      telemetry.KindAudit,
		Component: "api",
		Message: fmt.Sprintf("policy %s %q by %s: %s",
			action, document, r.RemoteAddr, outcome),
		Fields: map[string]string{
			"action":   action,
			"document": document,
			"actor":    r.RemoteAddr,
			"outcome":  outcome,
		},
	})
}

// policiesIndex serves GET /api/v1/policies: the published bundle
// revision and every document's hash, counts, and diagnostics.
func (d *Daemon) policiesIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, d.policiesStatus())
}

// policyManage routes /api/v1/policies/{name} (GET, PUT, DELETE) and
// POST /api/v1/policies/reload.
func (d *Daemon) policyManage(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, apiPrefix+"/policies/")
	if name == "" {
		d.policiesIndex(w, r)
		return
	}
	if name == "reload" {
		d.policyReload(w, r)
		return
	}
	if strings.Contains(name, "/") {
		writeAPIError(w, http.StatusNotFound, "unknown resource "+r.URL.Path)
		return
	}
	switch r.Method {
	case http.MethodGet:
		d.policyGet(w, r, name)
	case http.MethodPut:
		d.policyPut(w, r, name)
	case http.MethodDelete:
		d.policyDelete(w, r, name)
	default:
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET, PUT, or DELETE")
	}
}

// policyGet serves one document: the raw WS-Policy4MASC XML when the
// client asks for XML (Accept: */xml or ?format=xml), JSON metadata
// otherwise.
func (d *Daemon) policyGet(w http.ResponseWriter, r *http.Request, name string) {
	doc := d.repo.Document(name)
	if doc == nil {
		writeAPIError(w, http.StatusNotFound, "no such policy document: "+name)
		return
	}
	accept := r.Header.Get("Accept")
	wantXML := strings.Contains(accept, "application/xml") ||
		strings.Contains(accept, "text/xml") ||
		r.URL.Query().Get("format") == "xml"
	if wantXML {
		text, err := doc.Encode()
		if err != nil {
			writeAPIError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		fmt.Fprintln(w, text)
		return
	}
	writeJSON(w, http.StatusOK, docInfoFromDocument(doc))
}

// policyPut validates, compiles, and atomically publishes one document:
// the body is the WS-Policy4MASC XML, the path names the document it
// must declare. A document that fails validation or compilation is
// rejected with 422 and the compiler's structured diagnostics — the
// previously published set keeps serving, untouched.
func (d *Daemon) policyPut(w http.ResponseWriter, r *http.Request, name string) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	doc, err := policy.ParseString(string(body))
	if err != nil {
		d.auditPolicyChange(r, "put", name, "rejected: "+err.Error())
		writeJSON(w, http.StatusUnprocessableEntity, errorEnvelope{Error: errorBody{
			Code:        telemetry.ErrorCode(http.StatusUnprocessableEntity),
			Message:     "document does not parse",
			Diagnostics: []compile.Diagnostic{compile.ErrorDiagnostic(err)},
		}})
		return
	}
	if doc.Name != name {
		writeAPIError(w, http.StatusBadRequest,
			fmt.Sprintf("body declares document %q, path names %q", doc.Name, name))
		return
	}
	diags := compile.CheckDocument(doc)
	if compile.HasErrors(diags) {
		d.auditPolicyChange(r, "put", name, "rejected: validation failed")
		writeJSON(w, http.StatusUnprocessableEntity, errorEnvelope{Error: errorBody{
			Code:        telemetry.ErrorCode(http.StatusUnprocessableEntity),
			Message:     "document failed validation; previous policy set keeps serving",
			Diagnostics: diags,
		}})
		return
	}
	if err := d.repo.Load(doc); err != nil {
		d.auditPolicyChange(r, "put", name, "rejected: "+err.Error())
		writeJSON(w, http.StatusUnprocessableEntity, errorEnvelope{Error: errorBody{
			Code:        telemetry.ErrorCode(http.StatusUnprocessableEntity),
			Message:     "document failed to compile; previous policy set keeps serving",
			Diagnostics: []compile.Diagnostic{compile.ErrorDiagnostic(err)},
		}})
		return
	}
	page := d.policiesStatus()
	d.auditPolicyChange(r, "put", name, "published revision "+page.Revision)
	writeJSON(w, http.StatusOK, struct {
		Document policyDocInfo `json:"document"`
		Bundle   policiesPage  `json:"bundle"`
	}{docInfoFromDocument(doc), page})
}

// policyDelete unloads one document; the remaining set is recompiled
// and swapped atomically.
func (d *Daemon) policyDelete(w http.ResponseWriter, r *http.Request, name string) {
	if d.repo.Document(name) == nil {
		writeAPIError(w, http.StatusNotFound, "no such policy document: "+name)
		return
	}
	if !d.repo.Unload(name) {
		writeAPIError(w, http.StatusInternalServerError, "unload failed; previous policy set keeps serving")
		return
	}
	page := d.policiesStatus()
	d.auditPolicyChange(r, "delete", name, "published revision "+page.Revision)
	writeJSON(w, http.StatusOK, page)
}

// policyReload serves POST /api/v1/policies/reload: re-read the boot
// -policy-dir as one transaction and replace the whole document set —
// all of the bundle loads, or none of it does.
func (d *Daemon) policyReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if d.policyDir == "" {
		writeAPIError(w, http.StatusBadRequest, "no -policy-dir configured; reload has nothing to read")
		return
	}
	bundle, err := compile.LoadDir(d.policyDir)
	if err != nil {
		d.auditPolicyChange(r, "reload", d.policyDir, "rejected: "+err.Error())
		writeJSON(w, http.StatusUnprocessableEntity, errorEnvelope{Error: errorBody{
			Code:        telemetry.ErrorCode(http.StatusUnprocessableEntity),
			Message:     "bundle failed to load; previous policy set keeps serving",
			Diagnostics: []compile.Diagnostic{compile.ErrorDiagnostic(err)},
		}})
		return
	}
	var diags []compile.Diagnostic
	for _, doc := range bundle.Docs {
		for _, diag := range compile.CheckDocument(doc) {
			if diag.Severity == compile.SeverityError {
				diag.Message = fmt.Sprintf("document %q: %s", doc.Name, diag.Message)
				diags = append(diags, diag)
			}
		}
	}
	if len(diags) > 0 {
		d.auditPolicyChange(r, "reload", d.policyDir, "rejected: validation failed")
		writeJSON(w, http.StatusUnprocessableEntity, errorEnvelope{Error: errorBody{
			Code:        telemetry.ErrorCode(http.StatusUnprocessableEntity),
			Message:     "bundle failed validation; previous policy set keeps serving",
			Diagnostics: diags,
		}})
		return
	}
	if err := d.repo.ReplaceAll(bundle.Docs); err != nil {
		d.auditPolicyChange(r, "reload", d.policyDir, "rejected: "+err.Error())
		writeJSON(w, http.StatusUnprocessableEntity, errorEnvelope{Error: errorBody{
			Code:        telemetry.ErrorCode(http.StatusUnprocessableEntity),
			Message:     "bundle failed to compile; previous policy set keeps serving",
			Diagnostics: []compile.Diagnostic{compile.ErrorDiagnostic(err)},
		}})
		return
	}
	page := d.policiesStatus()
	d.auditPolicyChange(r, "reload", d.policyDir,
		fmt.Sprintf("published revision %s (%d documents)", page.Revision, len(page.Documents)))
	writeJSON(w, http.StatusOK, page)
}
