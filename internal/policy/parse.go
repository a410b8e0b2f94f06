package policy

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// ErrParse wraps all document parsing failures.
var ErrParse = errors.New("policy: parse error")

// Parse reads a WS-Policy4MASC XML document.
//
// Durations use Go syntax ("2s", "150ms") rather than XML Schema
// ISO-8601 durations — a documented simplification (DESIGN.md §2).
func Parse(r io.Reader) (*Document, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	return FromXML(root)
}

// ParseString parses a document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// FromXML converts a parsed XML tree into a Document.
func FromXML(root *xmltree.Element) (*Document, error) {
	if root.Name.Local != "PolicyDocument" || (root.Name.Space != Namespace && root.Name.Space != "") {
		return nil, fmt.Errorf("%w: root element is %s, want {%s}PolicyDocument", ErrParse, root.Name, Namespace)
	}
	doc := &Document{Name: root.AttrValue("", "name")}
	if doc.Name == "" {
		return nil, fmt.Errorf("%w: PolicyDocument lacks name attribute", ErrParse)
	}
	for _, child := range root.Children {
		switch child.Name.Local {
		case "MonitoringPolicy":
			mp, err := parseMonitoring(child)
			if err != nil {
				return nil, fmt.Errorf("%w: document %q: %v", ErrParse, doc.Name, err)
			}
			doc.Monitoring = append(doc.Monitoring, mp)
		case "AdaptationPolicy":
			ap, err := parseAdaptation(child)
			if err != nil {
				return nil, fmt.Errorf("%w: document %q: %v", ErrParse, doc.Name, err)
			}
			doc.Adaptation = append(doc.Adaptation, ap)
		case "ProtectionPolicy":
			pp, err := parseProtection(child)
			if err != nil {
				return nil, fmt.Errorf("%w: document %q: %v", ErrParse, doc.Name, err)
			}
			doc.Protection = append(doc.Protection, pp)
		default:
			return nil, fmt.Errorf("%w: document %q: unknown element %q", ErrParse, doc.Name, child.Name.Local)
		}
	}
	return doc, nil
}

func parseScope(e *xmltree.Element) Scope {
	return Scope{
		Subject:   e.AttrValue("", "subject"),
		Operation: e.AttrValue("", "operation"),
	}
}

func parseMonitoring(e *xmltree.Element) (*MonitoringPolicy, error) {
	mp := &MonitoringPolicy{
		Name:  e.AttrValue("", "name"),
		Scope: parseScope(e),
	}
	if mp.Name == "" {
		return nil, errors.New("MonitoringPolicy lacks name attribute")
	}
	var err error
	if mp.ValidateContract, err = parseBoolAttr(e, "validateContract", false); err != nil {
		return nil, fmt.Errorf("policy %q: %v", mp.Name, err)
	}
	for _, child := range e.Children {
		switch child.Name.Local {
		case "PreCondition", "PostCondition":
			a, err := parseAssertion(child)
			if err != nil {
				return nil, fmt.Errorf("policy %q: %v", mp.Name, err)
			}
			if child.Name.Local == "PreCondition" {
				mp.PreConditions = append(mp.PreConditions, a)
			} else {
				mp.PostConditions = append(mp.PostConditions, a)
			}
		case "QoSThreshold":
			th, err := parseThreshold(child)
			if err != nil {
				return nil, fmt.Errorf("policy %q: %v", mp.Name, err)
			}
			mp.Thresholds = append(mp.Thresholds, th)
		default:
			return nil, fmt.Errorf("policy %q: unknown element %q", mp.Name, child.Name.Local)
		}
	}
	return mp, nil
}

func parseAssertion(e *xmltree.Element) (*Assertion, error) {
	src := strings.TrimSpace(e.Text)
	if src == "" {
		return nil, fmt.Errorf("%s %q has empty expression", e.Name.Local, e.AttrValue("", "name"))
	}
	expr, err := xpath.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("%s %q: %v", e.Name.Local, e.AttrValue("", "name"), err)
	}
	ft := e.AttrValue("", "faultType")
	if ft == "" {
		ft = "ServiceFailureFault"
	}
	return &Assertion{
		Name:      e.AttrValue("", "name"),
		Expr:      expr,
		FaultType: ft,
	}, nil
}

func parseThreshold(e *xmltree.Element) (*QoSThreshold, error) {
	th := &QoSThreshold{
		Name:   e.AttrValue("", "name"),
		Metric: Metric(e.AttrValue("", "metric")),
	}
	switch th.Metric {
	case MetricResponseTime:
		raw := e.AttrValue("", "maxResponse")
		if raw == "" {
			return nil, fmt.Errorf("QoSThreshold %q: responseTime threshold needs maxResponse", th.Name)
		}
		d, err := time.ParseDuration(raw)
		if err != nil {
			return nil, fmt.Errorf("QoSThreshold %q: maxResponse: %v", th.Name, err)
		}
		th.MaxResponse = d
	case MetricReliability, MetricAvailability:
		raw := e.AttrValue("", "min")
		if raw == "" {
			return nil, fmt.Errorf("QoSThreshold %q: %s threshold needs min", th.Name, th.Metric)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("QoSThreshold %q: min must be in [0,1], got %q", th.Name, raw)
		}
		th.MinValue = v
	default:
		return nil, fmt.Errorf("QoSThreshold %q: unknown metric %q", th.Name, th.Metric)
	}
	if raw := e.AttrValue("", "minSamples"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("QoSThreshold %q: bad minSamples %q", th.Name, raw)
		}
		th.MinSamples = n
	}
	th.FaultType = e.AttrValue("", "faultType")
	if th.FaultType == "" {
		th.FaultType = "SLAViolationFault"
	}
	return th, nil
}

func parseAdaptation(e *xmltree.Element) (*AdaptationPolicy, error) {
	ap := &AdaptationPolicy{
		Name:  e.AttrValue("", "name"),
		Scope: parseScope(e),
		Kind:  AdaptationKind(e.AttrValue("", "kind")),
		Layer: Layer(e.AttrValue("", "layer")),
	}
	if ap.Name == "" {
		return nil, errors.New("AdaptationPolicy lacks name attribute")
	}
	if ap.Kind == "" {
		ap.Kind = KindCorrection
	}
	switch ap.Kind {
	case KindCustomization, KindCorrection, KindOptimization, KindPrevention:
	default:
		return nil, fmt.Errorf("policy %q: unknown kind %q", ap.Name, ap.Kind)
	}
	if raw := e.AttrValue("", "priority"); raw != "" {
		p, err := strconv.Atoi(raw)
		if err != nil {
			return nil, fmt.Errorf("policy %q: bad priority %q", ap.Name, raw)
		}
		ap.Priority = p
	}
	for _, child := range e.Children {
		switch child.Name.Local {
		case "OnEvent":
			ap.Trigger = Trigger{
				EventType: event.Type(child.AttrValue("", "type")),
				FaultType: child.AttrValue("", "faultType"),
			}
			if ap.Trigger.EventType == "" {
				return nil, fmt.Errorf("policy %q: OnEvent lacks type", ap.Name)
			}
		case "Condition":
			src := strings.TrimSpace(child.Text)
			if src == "" {
				return nil, fmt.Errorf("policy %q: empty Condition", ap.Name)
			}
			expr, err := xpath.Compile(src)
			if err != nil {
				return nil, fmt.Errorf("policy %q: Condition: %v", ap.Name, err)
			}
			ap.Condition = expr
		case "StateBefore":
			ap.StateBefore = strings.TrimSpace(child.Text)
		case "StateAfter":
			ap.StateAfter = strings.TrimSpace(child.Text)
		case "Actions":
			for _, a := range child.Children {
				act, err := parseAction(a)
				if err != nil {
					return nil, fmt.Errorf("policy %q: %v", ap.Name, err)
				}
				ap.Actions = append(ap.Actions, act)
			}
		case "BusinessValue":
			bv, err := parseBusinessValue(child)
			if err != nil {
				return nil, fmt.Errorf("policy %q: %v", ap.Name, err)
			}
			ap.BusinessValue = bv
		default:
			return nil, fmt.Errorf("policy %q: unknown element %q", ap.Name, child.Name.Local)
		}
	}
	if ap.Trigger.EventType == "" {
		return nil, fmt.Errorf("policy %q: missing OnEvent trigger", ap.Name)
	}
	if len(ap.Actions) == 0 {
		return nil, fmt.Errorf("policy %q: no actions", ap.Name)
	}
	if ap.Layer == "" {
		ap.Layer = inferLayer(ap.Actions)
	}
	switch ap.Layer {
	case LayerMessaging, LayerProcess, LayerBoth:
	default:
		return nil, fmt.Errorf("policy %q: unknown layer %q", ap.Name, ap.Layer)
	}
	return ap, nil
}

// inferLayer derives the policy layer from its actions when the
// document omits it.
func inferLayer(actions []Action) Layer {
	sawMsg, sawProc := false, false
	for _, a := range actions {
		switch a.ActionLayer() {
		case LayerMessaging:
			sawMsg = true
		case LayerProcess:
			sawProc = true
		}
	}
	switch {
	case sawMsg && sawProc:
		return LayerBoth
	case sawProc:
		return LayerProcess
	default:
		return LayerMessaging
	}
}

func parseProtection(e *xmltree.Element) (*ProtectionPolicy, error) {
	pp := &ProtectionPolicy{
		Name:  e.AttrValue("", "name"),
		Scope: parseScope(e),
	}
	if pp.Name == "" {
		return nil, errors.New("ProtectionPolicy lacks name attribute")
	}
	for _, child := range e.Children {
		switch child.Name.Local {
		case "Admission":
			a := &AdmissionSpec{}
			var err error
			if a.MaxInFlight, err = parseIntAttr(child, "maxInFlight", 0); err != nil {
				return nil, fmt.Errorf("policy %q: Admission: %v", pp.Name, err)
			}
			if a.MaxInFlight <= 0 {
				return nil, fmt.Errorf("policy %q: Admission needs maxInFlight > 0", pp.Name)
			}
			if a.MaxQueue, err = parseIntAttr(child, "maxQueue", 0); err != nil {
				return nil, fmt.Errorf("policy %q: Admission: %v", pp.Name, err)
			}
			if a.QueueTimeout, err = parseDurationAttr(child, "queueTimeout", 0); err != nil {
				return nil, fmt.Errorf("policy %q: Admission: %v", pp.Name, err)
			}
			pp.Admission = a
		case "CircuitBreaker":
			b := &BreakerSpec{}
			var err error
			if b.FailureThreshold, err = parseIntAttr(child, "failureThreshold", 0); err != nil {
				return nil, fmt.Errorf("policy %q: CircuitBreaker: %v", pp.Name, err)
			}
			if b.FailureThreshold <= 0 {
				return nil, fmt.Errorf("policy %q: CircuitBreaker needs failureThreshold > 0", pp.Name)
			}
			if b.Cooldown, err = parseDurationAttr(child, "cooldown", 0); err != nil {
				return nil, fmt.Errorf("policy %q: CircuitBreaker: %v", pp.Name, err)
			}
			if b.Cooldown <= 0 {
				return nil, fmt.Errorf("policy %q: CircuitBreaker needs cooldown > 0", pp.Name)
			}
			pp.Breaker = b
		case "Hedge":
			h := &HedgeSpec{AfterFactor: 1, MinSamples: 10, MaxHedges: 1}
			if raw := child.AttrValue("", "afterFactor"); raw != "" {
				f, err := strconv.ParseFloat(raw, 64)
				if err != nil || f <= 0 {
					return nil, fmt.Errorf("policy %q: Hedge: afterFactor must be > 0, got %q", pp.Name, raw)
				}
				h.AfterFactor = f
			}
			var err error
			if h.MinSamples, err = parseIntAttr(child, "minSamples", h.MinSamples); err != nil {
				return nil, fmt.Errorf("policy %q: Hedge: %v", pp.Name, err)
			}
			if h.MinDelay, err = parseDurationAttr(child, "minDelay", 0); err != nil {
				return nil, fmt.Errorf("policy %q: Hedge: %v", pp.Name, err)
			}
			if h.MaxHedges, err = parseIntAttr(child, "maxHedges", h.MaxHedges); err != nil {
				return nil, fmt.Errorf("policy %q: Hedge: %v", pp.Name, err)
			}
			if h.MaxHedges <= 0 {
				return nil, fmt.Errorf("policy %q: Hedge needs maxHedges > 0", pp.Name)
			}
			pp.Hedge = h
		default:
			return nil, fmt.Errorf("policy %q: unknown element %q", pp.Name, child.Name.Local)
		}
	}
	if pp.Admission == nil && pp.Breaker == nil && pp.Hedge == nil {
		return nil, fmt.Errorf("policy %q: protection policy protects nothing", pp.Name)
	}
	return pp, nil
}

// parseIntAttr reads a non-negative integer attribute with a default.
func parseIntAttr(e *xmltree.Element, name string, def int) (int, error) {
	raw := e.AttrValue("", name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s attribute %q", name, raw)
	}
	return n, nil
}

// parseDurationAttr reads a non-negative duration attribute with a
// default.
func parseDurationAttr(e *xmltree.Element, name string, def time.Duration) (time.Duration, error) {
	raw := e.AttrValue("", name)
	if raw == "" {
		return def, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad %s attribute %q", name, raw)
	}
	return d, nil
}

func parseBusinessValue(e *xmltree.Element) (*BusinessValue, error) {
	raw := e.AttrValue("", "amount")
	amount, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return nil, fmt.Errorf("BusinessValue: bad amount %q", raw)
	}
	return &BusinessValue{
		Amount:   amount,
		Currency: e.AttrValue("", "currency"),
		Reason:   e.AttrValue("", "reason"),
	}, nil
}

func parseAction(e *xmltree.Element) (Action, error) {
	switch e.Name.Local {
	case "Retry":
		a := RetryAction{MaxAttempts: 3, Backoff: BackoffFixed}
		if raw := e.AttrValue("", "maxAttempts"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("Retry: bad maxAttempts %q", raw)
			}
			a.MaxAttempts = n
		}
		if raw := e.AttrValue("", "delay"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil {
				return nil, fmt.Errorf("Retry: bad delay %q", raw)
			}
			a.Delay = d
		}
		if raw := e.AttrValue("", "backoff"); raw != "" {
			a.Backoff = BackoffKind(raw)
			if a.Backoff != BackoffFixed && a.Backoff != BackoffExponential {
				return nil, fmt.Errorf("Retry: unknown backoff %q", raw)
			}
		}
		return a, nil
	case "Substitute":
		a := SubstituteAction{Selection: SelectBestResponseTime}
		if raw := e.AttrValue("", "selection"); raw != "" {
			a.Selection = SelectionKind(raw)
			switch a.Selection {
			case SelectRoundRobin, SelectBestResponseTime, SelectRandom, SelectFirst:
			default:
				return nil, fmt.Errorf("Substitute: unknown selection %q", raw)
			}
		}
		if raw := e.AttrValue("", "maxAlternatives"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("Substitute: bad maxAlternatives %q", raw)
			}
			a.MaxAlternatives = n
		}
		return a, nil
	case "ConcurrentInvoke":
		a := ConcurrentAction{}
		if raw := e.AttrValue("", "maxTargets"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("ConcurrentInvoke: bad maxTargets %q", raw)
			}
			a.MaxTargets = n
		}
		return a, nil
	case "Skip":
		return SkipAction{}, nil
	case "AddActivity":
		a := AddActivityAction{
			Anchor:       e.AttrValue("", "anchor"),
			Position:     Position(e.AttrValue("", "position")),
			VariationRef: e.AttrValue("", "variationRef"),
		}
		if a.Position == "" {
			a.Position = PositionAfter
		}
		switch a.Position {
		case PositionBefore, PositionAfter, PositionAtStart, PositionAtEnd:
		default:
			return nil, fmt.Errorf("AddActivity: unknown position %q", a.Position)
		}
		if (a.Position == PositionBefore || a.Position == PositionAfter) && a.Anchor == "" {
			return nil, fmt.Errorf("AddActivity: position %q needs anchor", a.Position)
		}
		var err error
		if a.ActivitySpec, a.Bindings, err = parseSpecAndBindings(e); err != nil {
			return nil, fmt.Errorf("AddActivity: %v", err)
		}
		if a.ActivitySpec == nil && a.VariationRef == "" {
			return nil, errors.New("AddActivity: needs an inline Activity or a variationRef")
		}
		return a, nil
	case "RemoveActivity":
		a := RemoveActivityAction{
			Activity: e.AttrValue("", "activity"),
			BlockEnd: e.AttrValue("", "blockEnd"),
		}
		if a.Activity == "" {
			return nil, errors.New("RemoveActivity: needs activity")
		}
		return a, nil
	case "ReplaceActivity":
		a := ReplaceActivityAction{
			Activity:     e.AttrValue("", "activity"),
			VariationRef: e.AttrValue("", "variationRef"),
		}
		if a.Activity == "" {
			return nil, errors.New("ReplaceActivity: needs activity")
		}
		var err error
		if a.ActivitySpec, a.Bindings, err = parseSpecAndBindings(e); err != nil {
			return nil, fmt.Errorf("ReplaceActivity: %v", err)
		}
		if a.ActivitySpec == nil && a.VariationRef == "" {
			return nil, errors.New("ReplaceActivity: needs an inline Activity or a variationRef")
		}
		return a, nil
	case "SuspendProcess":
		return SuspendProcessAction{}, nil
	case "ResumeProcess":
		return ResumeProcessAction{}, nil
	case "TerminateProcess":
		return TerminateProcessAction{}, nil
	case "DelayProcess":
		raw := e.AttrValue("", "duration")
		d, err := time.ParseDuration(raw)
		if err != nil {
			return nil, fmt.Errorf("DelayProcess: bad duration %q", raw)
		}
		return DelayProcessAction{Duration: d}, nil
	case "AdjustTimeout":
		raw := e.AttrValue("", "newTimeout")
		d, err := time.ParseDuration(raw)
		if err != nil {
			return nil, fmt.Errorf("AdjustTimeout: bad newTimeout %q", raw)
		}
		return AdjustTimeoutAction{
			Activity:   e.AttrValue("", "activity"),
			NewTimeout: d,
		}, nil
	default:
		return nil, fmt.Errorf("unknown action %q", e.Name.Local)
	}
}

// parseSpecAndBindings extracts the inline <Activity> child (the first
// grandchild is the actual workflow spec) and any <Bind> children.
func parseSpecAndBindings(e *xmltree.Element) (*xmltree.Element, []DataBinding, error) {
	var spec *xmltree.Element
	var bindings []DataBinding
	for _, c := range e.Children {
		switch c.Name.Local {
		case "Activity":
			if len(c.Children) != 1 {
				return nil, nil, fmt.Errorf("Activity wrapper must contain exactly one element, has %d", len(c.Children))
			}
			spec = c.Children[0].Copy()
		case "Bind":
			b := DataBinding{
				FromVariable: c.AttrValue("", "from"),
				ToVariable:   c.AttrValue("", "to"),
				Direction:    c.AttrValue("", "direction"),
			}
			if b.Direction == "" {
				b.Direction = "in"
			}
			if b.Direction != "in" && b.Direction != "out" {
				return nil, nil, fmt.Errorf("Bind: unknown direction %q", b.Direction)
			}
			if b.FromVariable == "" || b.ToVariable == "" {
				return nil, nil, errors.New("Bind: needs from and to")
			}
			bindings = append(bindings, b)
		default:
			return nil, nil, fmt.Errorf("unknown element %q", c.Name.Local)
		}
	}
	return spec, bindings, nil
}

func parseBoolAttr(e *xmltree.Element, name string, def bool) (bool, error) {
	raw := e.AttrValue("", name)
	if raw == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("bad %s attribute %q", name, raw)
	}
	return b, nil
}
