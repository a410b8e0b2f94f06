package decision

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"github.com/masc-project/masc/internal/telemetry"
)

// DefaultPageLimit bounds how many records Handler returns when the
// request does not say otherwise.
const DefaultPageLimit = 200

// Page is the JSON shape served by Handler.
type Page struct {
	// Count is len(Records).
	Count int `json:"count"`
	// Records are the matching decisions, oldest first.
	Records []Record `json:"records"`
}

// Handler serves the recorder's ring as JSON with query-parameter
// filters: policy, subject, conversation, instance, trace, site,
// verdict, since (RFC3339), and limit (newest N, default
// DefaultPageLimit).
func Handler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			telemetry.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		q := Query{
			Policy:       req.URL.Query().Get("policy"),
			Subject:      req.URL.Query().Get("subject"),
			Conversation: req.URL.Query().Get("conversation"),
			Instance:     req.URL.Query().Get("instance"),
			Trace:        req.URL.Query().Get("trace"),
			Site:         req.URL.Query().Get("site"),
			Verdict:      Verdict(req.URL.Query().Get("verdict")),
			Limit:        DefaultPageLimit,
		}
		if s := req.URL.Query().Get("since"); s != "" {
			t, err := time.Parse(time.RFC3339, s)
			if err != nil {
				telemetry.WriteError(w, http.StatusBadRequest, "bad since: "+err.Error())
				return
			}
			q.Since = t
		}
		if s := req.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				telemetry.WriteError(w, http.StatusBadRequest, "bad limit")
				return
			}
			q.Limit = n
		}
		recs := r.Records(q)
		if recs == nil {
			recs = []Record{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(Page{Count: len(recs), Records: recs})
	})
}
