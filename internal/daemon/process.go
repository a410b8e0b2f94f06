package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strings"

	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
)

// orderingProcessXML is the Fig. 4 SCM composition hosted by mascd:
// browse the catalog through the Retailer VEP, place a fixed demo
// order when stock exists, then fetch the tracking events. PrepareOrder
// builds the order from a literal so the process is runnable from a
// bare catalog request.
const orderingProcessXML = `
<process xmlns="urn:masc:workflow" name="OrderingProcess">
  <variables>
    <variable name="catalogReq"/>
    <variable name="catalog"/>
    <variable name="orderReq"/>
    <variable name="confirmation"/>
    <variable name="events"/>
  </variables>
  <sequence name="main">
    <invoke name="BrowseCatalog" endpoint="vep:Retailer" operation="getCatalog"
            input="catalogReq" output="catalog" timeout="10s"/>
    <if name="HasStock" test="count(//catalog/getCatalogResponse/Product) > 0">
      <then>
        <invoke name="PlaceOrder" endpoint="vep:Retailer" operation="submitOrder"
                input="orderReq" output="confirmation" timeout="10s"/>
        <invoke name="TrackOrder" endpoint="inproc://scm/logging" operation="getEvents"
                output="events" timeout="10s"/>
      </then>
      <else>
        <terminate name="NoStock"/>
      </else>
    </if>
  </sequence>
</process>`

// defaultProcessInputs seeds runnable inputs for the built-in process
// when an API caller supplies none.
func defaultProcessInputs() map[string]*xmltree.Element {
	return map[string]*xmltree.Element{
		"catalogReq": scm.NewGetCatalogRequest("tv", 0),
		"orderReq": scm.NewSubmitOrderRequest("cust-api", []scm.OrderItem{
			{SKU: "605002", Qty: 1},
		}, 0),
	}
}

// setupWorkflow builds the process layer: an engine invoking through
// the gateway, the OrderingProcess deployment, and — when a store is
// open — the durable persistence service plus boot-time recovery.
func (d *Daemon) setupWorkflow() error {
	def, err := workflow.ParseDefinitionString(orderingProcessXML)
	if err != nil {
		return err
	}
	d.stack.Engine.Deploy(def)
	d.host = &workflow.ProcessHost{
		Engine:     d.stack.Engine,
		Definition: def.Name(),
		InputVar:   "catalogReq",
		Defaults:   defaultProcessInputs(),
		OutputVar:  "confirmation",
	}
	if d.st == nil {
		return nil
	}
	d.persist = workflow.NewPersistenceServiceWith(d.st, d.tel, d.ckptOpts)
	d.persist.Attach(d.stack.Engine)
	rep, err := d.persist.Recover(d.stack.Engine)
	if err != nil {
		return err
	}
	d.recMu.Lock()
	d.recovery = rep
	d.recMu.Unlock()
	return nil
}

// processHandler serves SOAP posts at /process/<definition> through the
// daemon's one ProcessHost: the composition is the service
// implementation.
func processHandler(host *workflow.ProcessHost) http.Handler {
	soapHandler := &transport.HTTPHandler{Service: host}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Trim(r.URL.Path, "/") != host.Definition {
			http.NotFound(w, r)
			return
		}
		soapHandler.ServeHTTP(w, r)
	})
}

// instanceSummary is one process instance in API listings.
type instanceSummary struct {
	ID              string `json:"id"`
	Definition      string `json:"definition"`
	State           string `json:"state"`
	AdaptationState string `json:"adaptation_state,omitempty"`
	Recovered       bool   `json:"recovered,omitempty"`
	Error           string `json:"error,omitempty"`
}

func (d *Daemon) summarizeInstance(inst *workflow.Instance) instanceSummary {
	s := instanceSummary{
		ID:              inst.ID(),
		Definition:      inst.Definition(),
		State:           inst.State().String(),
		AdaptationState: inst.AdaptationState(),
	}
	s.Recovered = d.isRecovered(s.ID)
	if err := inst.Err(); err != nil {
		s.Error = err.Error()
	}
	return s
}

// instancesIndex serves /api/v1/instances:
//
//	GET   list every instance (live and recovered) with its state
//	POST  {"definition": "...", "inputs": {"var": "<xml/>"}} starts one
//	      (definition defaults to OrderingProcess, inputs to a demo
//	      order)
func (d *Daemon) instancesIndex(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		out := []instanceSummary{}
		for _, id := range d.stack.Engine.Instances() {
			inst, err := d.stack.Engine.Instance(id)
			if err != nil {
				continue
			}
			out = append(out, d.summarizeInstance(inst))
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		writeJSON(w, http.StatusOK, struct {
			Instances []instanceSummary `json:"instances"`
		}{out})
	case http.MethodPost:
		var body struct {
			Definition string            `json:"definition"`
			Inputs     map[string]string `json:"inputs"`
		}
		// An empty body means "all defaults"; malformed JSON does not.
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
			writeAPIError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
			return
		}
		if body.Definition == "" {
			body.Definition = "OrderingProcess"
		}
		inputs := maps.Clone(d.host.Defaults)
		for name, text := range body.Inputs {
			el, err := xmltree.ParseString(text)
			if err != nil {
				writeAPIError(w, http.StatusBadRequest,
					fmt.Sprintf("input %q is not well-formed XML: %v", name, err))
				return
			}
			inputs[name] = el
		}
		inst, err := d.stack.Engine.Start(body.Definition, inputs)
		if err != nil {
			writeAPIError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, d.summarizeInstance(inst))
	default:
		writeAPIError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// instanceManage routes /api/v1/instances/{id}, the lifecycle verbs
// /api/v1/instances/{id}/suspend and /api/v1/instances/{id}/resume,
// /api/v1/instances/{id}/checkpoint, which decodes the instance's
// stored delta chain to instanceSnapshot XML for export and debugging,
// and /api/v1/instances/{id}/timeline, the merged adaptation timeline.
// Resume releases a suspended instance — including one rebuilt from
// the store at boot, which continues from its last durable checkpoint.
func (d *Daemon) instanceManage(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, apiPrefix+"/instances/")
	id, verb, _ := strings.Cut(rest, "/")
	inst, err := d.stack.Engine.Instance(id)
	if err != nil {
		writeAPIError(w, http.StatusNotFound, err.Error())
		return
	}
	switch verb {
	case "":
		if r.Method != http.MethodGet {
			writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, d.summarizeInstance(inst))
	case "suspend":
		if r.Method != http.MethodPost {
			writeAPIError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		if err := inst.Suspend(); err != nil {
			writeAPIError(w, http.StatusConflict, err.Error())
			return
		}
		d.tel.Logger("api").Conversation(id).Info("instance suspended", "instance", id)
		writeJSON(w, http.StatusOK, d.summarizeInstance(inst))
	case "resume":
		if r.Method != http.MethodPost {
			writeAPIError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		if err := inst.Resume(); err != nil {
			writeAPIError(w, http.StatusConflict, err.Error())
			return
		}
		// Recovered instances have not started their run loop yet; a
		// second Run on a live instance is a harmless bad-state error.
		if err := inst.Run(); err != nil && !errors.Is(err, workflow.ErrBadState) {
			writeAPIError(w, http.StatusInternalServerError, err.Error())
			return
		}
		d.tel.Logger("api").Conversation(id).Info("instance resumed", "instance", id)
		writeJSON(w, http.StatusOK, d.summarizeInstance(inst))
	case "checkpoint":
		if r.Method != http.MethodGet {
			writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		if d.persist == nil {
			writeAPIError(w, http.StatusNotFound, "no durable store (-data-dir) is configured")
			return
		}
		text, err := d.persist.ExportXML(id)
		if err != nil {
			writeAPIError(w, http.StatusNotFound, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		fmt.Fprintln(w, text)
	case "timeline":
		if r.Method != http.MethodGet {
			writeAPIError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, d.instanceTimeline(id))
	default:
		writeAPIError(w, http.StatusNotFound, "unknown resource "+r.URL.Path)
	}
}

// storeStatus is the durable-store section of /api/v1/healthz.
type storeStatus struct {
	Dir                string  `json:"dir"`
	SyncMode           string  `json:"sync_mode"`
	WALBytes           int64   `json:"wal_bytes"`
	Segments           int     `json:"segments"`
	Records            uint64  `json:"records"`
	Fsyncs             uint64  `json:"fsyncs"`
	Keys               int     `json:"keys"`
	SnapshotIndex      uint64  `json:"snapshot_index"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	RecoveredRecords   uint64  `json:"recovered_records"`
	TruncatedTail      bool    `json:"truncated_tail"`
	RecoveredInstances int     `json:"recovered_instances"`
}

func (d *Daemon) storeStatus() *storeStatus {
	if d.st == nil {
		return nil
	}
	st := d.st.Stats()
	return &storeStatus{
		Dir:                st.Dir,
		SyncMode:           st.SyncMode,
		WALBytes:           st.WALBytes,
		Segments:           st.Segments,
		Records:            st.Records,
		Fsyncs:             st.Fsyncs,
		Keys:               st.Keys,
		SnapshotIndex:      st.SnapshotIndex,
		SnapshotAgeSeconds: st.SnapshotAge.Seconds(),
		RecoveredRecords:   st.RecoveredRecords,
		TruncatedTail:      st.TruncatedTail,
		RecoveredInstances: d.recoveredCount(),
	}
}

// openDataDir opens the durable store for Config.DataDir with the
// Config.Sync mode. Cluster mode disables snapshot compaction so followers
// can replicate the raw WAL segments.
func openDataDir(dir, syncMode string, tel *telemetry.Telemetry, clustered bool) (*store.Store, error) {
	mode, err := store.ParseSyncMode(syncMode)
	if err != nil {
		return nil, err
	}
	opts := store.Options{
		Sync:    mode,
		Metrics: tel.Registry(),
	}
	if clustered {
		opts.SnapshotEvery = -1
	}
	return store.Open(dir, opts)
}
