package policy

import (
	"errors"
	"testing"

	"github.com/masc-project/masc/internal/event"
)

func validPolicy(name string) *AdaptationPolicy {
	return &AdaptationPolicy{
		Name:    name,
		Kind:    KindCorrection,
		Layer:   LayerMessaging,
		Trigger: Trigger{EventType: event.TypeFaultDetected},
		Actions: []Action{RetryAction{MaxAttempts: 1}},
	}
}

func TestValidateAcceptsGoodDocument(t *testing.T) {
	d := &Document{Name: "ok", Adaptation: []*AdaptationPolicy{validPolicy("a"), validPolicy("b")}}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnnamedDocument(t *testing.T) {
	if err := Validate(&Document{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDuplicateNames(t *testing.T) {
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{validPolicy("p"), validPolicy("p")}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
	// Duplicate across monitoring and adaptation too.
	d2 := &Document{
		Name:       "d",
		Monitoring: []*MonitoringPolicy{{Name: "p", ValidateContract: true}},
		Adaptation: []*AdaptationPolicy{validPolicy("p")},
	}
	if err := Validate(d2); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateEmptyMonitor(t *testing.T) {
	d := &Document{Name: "d", Monitoring: []*MonitoringPolicy{{Name: "m"}}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateLayerMismatch(t *testing.T) {
	p := validPolicy("p")
	p.Layer = LayerProcess // but action is messaging-layer Retry
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
	p.Layer = LayerBoth // both covers everything
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestValidateActionAfterTerminal(t *testing.T) {
	p := validPolicy("p")
	p.Actions = []Action{SkipAction{}, RetryAction{MaxAttempts: 1}}
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDoubleRetry(t *testing.T) {
	p := validPolicy("p")
	p.Actions = []Action{RetryAction{MaxAttempts: 1}, RetryAction{MaxAttempts: 2}}
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateResumeWithoutSuspend(t *testing.T) {
	p := validPolicy("p")
	p.Layer = LayerProcess
	p.Actions = []Action{ResumeProcessAction{}}
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateDoubleSuspend(t *testing.T) {
	p := validPolicy("p")
	p.Layer = LayerProcess
	p.Actions = []Action{SuspendProcessAction{}, SuspendProcessAction{}}
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateSuspendResumePairOK(t *testing.T) {
	p := validPolicy("p")
	p.Layer = LayerBoth
	p.Actions = []Action{SuspendProcessAction{}, RetryAction{MaxAttempts: 1}, ResumeProcessAction{}}
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCustomizationTrigger(t *testing.T) {
	p := validPolicy("p")
	p.Kind = KindCustomization
	p.Layer = LayerProcess
	p.Actions = []Action{RemoveActivityAction{Activity: "x"}}
	p.Trigger = Trigger{EventType: event.TypeFaultDetected} // wrong for customization
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
	p.Trigger = Trigger{EventType: event.TypeProcessStarted}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFaultTypeNeedsFaultEvent(t *testing.T) {
	p := validPolicy("p")
	p.Trigger = Trigger{EventType: event.TypeProcessStarted, FaultType: "TimeoutFault"}
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{p}}
	if err := Validate(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepositoryLoadRejectsInvalid(t *testing.T) {
	r := NewRepository()
	d := &Document{Name: "d", Adaptation: []*AdaptationPolicy{validPolicy("p"), validPolicy("p")}}
	if err := r.Load(d); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("invalid document was stored")
	}
}
