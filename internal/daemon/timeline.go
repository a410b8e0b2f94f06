package daemon

import (
	"sort"
	"time"

	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/workflow"
)

// Timeline sources, in merge order for same-instant events: a decision
// explains the journal entries and spans it caused, and a checkpoint
// seals what the instance looked like afterwards.
const (
	sourceDecision   = "decision"
	sourceJournal    = "journal"
	sourceTrace      = "trace"
	sourceCheckpoint = "checkpoint"
)

// timelineEvent is one entry in an instance's merged adaptation
// timeline. Exactly one of the detail pointers is set, matching Source.
type timelineEvent struct {
	Time    time.Time `json:"time"`
	Source  string    `json:"source"`
	Summary string    `json:"summary"`
	// Correlation keys shared across sources.
	Trace        string `json:"trace,omitempty"`
	Span         string `json:"span,omitempty"`
	Conversation string `json:"conversation,omitempty"`
	// Per-source detail.
	Decision   *decision.Record          `json:"decision,omitempty"`
	Journal    *telemetry.Entry          `json:"journal,omitempty"`
	SpanDetail *timelineSpan             `json:"span_detail,omitempty"`
	Checkpoint *workflow.CheckpointEvent `json:"checkpoint,omitempty"`
}

// timelineSpan is the flattened (non-recursive) trace-span rendering
// used inside timeline events.
type timelineSpan struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationMS float64           `json:"durationMs"`
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// timelineReport is the /api/v1/instances/{id}/timeline response.
type timelineReport struct {
	Instance string `json:"instance"`
	// Sources lists which source kinds contributed at least one event.
	Sources []string        `json:"sources"`
	Count   int             `json:"count"`
	Events  []timelineEvent `json:"events"`
}

// instanceTimeline joins four observability planes into one
// time-ordered view of an instance's life: the decision records that
// explain why the middleware acted, the journal entries and trace
// spans that show what it did, and the checkpoint events that show
// when the instance's durable state moved. The join keys are the
// instance ID itself (decisions, checkpoints), the conversation ID
// (journal — the engine falls back to the instance ID there), and the
// trace IDs recovered from both.
func (d *Daemon) instanceTimeline(id string) timelineReport {
	var events []timelineEvent
	traceIDs := map[string]bool{}

	// Decision records referencing the instance directly or through the
	// conversation ID (bus-side records of mediated invokes), deduped
	// by decision ID.
	seen := map[string]bool{}
	for _, q := range []decision.Query{{Instance: id}, {Conversation: id}} {
		for _, rec := range d.decisions.Records(q) {
			if seen[rec.ID] {
				continue
			}
			seen[rec.ID] = true
			if rec.Trace != "" {
				traceIDs[rec.Trace] = true
			}
			rec := rec
			events = append(events, timelineEvent{
				Time:         rec.Time,
				Source:       sourceDecision,
				Summary:      decisionSummary(&rec),
				Trace:        rec.Trace,
				Span:         rec.Span,
				Conversation: rec.Conversation,
				Decision:     &rec,
			})
		}
	}

	// Journal entries correlated by conversation (the engine stamps the
	// instance ID as the conversation for process-layer entries).
	for _, e := range d.tel.Logs().Entries(telemetry.Query{Conversation: id}) {
		if e.Trace != "" {
			traceIDs[e.Trace] = true
		}
		e := e
		events = append(events, timelineEvent{
			Time:         e.Time,
			Source:       sourceJournal,
			Summary:      string(e.Kind) + ": " + e.Message,
			Trace:        e.Trace,
			Span:         e.Span,
			Conversation: e.Conversation,
			Journal:      &e,
		})
	}

	// Trace spans from every trace the decisions and journal touched,
	// flattened so each span is one timeline event.
	for traceID := range traceIDs {
		view, ok := d.tel.Traces().Trace(traceID)
		if !ok {
			continue
		}
		events = appendSpanEvents(events, traceID, view.Root)
	}

	// Checkpoint events from the persistence layer (empty without
	// -data-dir).
	if d.persist != nil {
		for _, ev := range d.persist.CheckpointEvents(id) {
			ev := ev
			summary := "checkpoint " + ev.Kind + " (" + ev.State + ")"
			events = append(events, timelineEvent{
				Time:       ev.Time,
				Source:     sourceCheckpoint,
				Summary:    summary,
				Checkpoint: &ev,
			})
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		return events[i].Time.Before(events[j].Time)
	})
	if events == nil {
		events = []timelineEvent{}
	}

	present := map[string]bool{}
	for i := range events {
		present[events[i].Source] = true
	}
	sources := []string{}
	for _, s := range []string{sourceDecision, sourceJournal, sourceTrace, sourceCheckpoint} {
		if present[s] {
			sources = append(sources, s)
		}
	}
	return timelineReport{Instance: id, Sources: sources, Count: len(events), Events: events}
}

// appendSpanEvents flattens a span tree into timeline events, one per
// span, stamped with the owning trace ID.
func appendSpanEvents(events []timelineEvent, traceID string, sv telemetry.SpanView) []timelineEvent {
	summary := "span " + sv.Name
	if sv.Error != "" {
		summary += " (error: " + sv.Error + ")"
	}
	events = append(events, timelineEvent{
		Time:    sv.Start,
		Source:  sourceTrace,
		Summary: summary,
		Trace:   traceID,
		SpanDetail: &timelineSpan{
			Name:       sv.Name,
			Start:      sv.Start,
			End:        sv.End,
			DurationMS: sv.DurationMS,
			Error:      sv.Error,
			Attrs:      sv.Attrs,
		},
	})
	for _, c := range sv.Children {
		events = appendSpanEvents(events, traceID, c)
	}
	return events
}

// decisionSummary renders a one-line human summary of a decision
// record for the timeline listing.
func decisionSummary(rec *decision.Record) string {
	s := rec.Site + ": " + rec.Policy + " " + string(rec.Verdict)
	if rec.Action != "" {
		s += " → " + rec.Action
	}
	if rec.Reason != "" {
		s += " (" + rec.Reason + ")"
	}
	return s
}
