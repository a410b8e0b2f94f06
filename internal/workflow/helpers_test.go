package workflow

import (
	"fmt"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// soapEnvAlias keeps handler signatures in tests short.
type soapEnvAlias = soap.Envelope

func okResp(op string) *soap.Envelope {
	return soap.NewRequest(xmltree.New("urn:t", op+"Response"))
}

func mustXPath(src string) *xpath.Compiled { return xpath.MustCompile(src) }

// waitForCalls polls until the invoker has recorded at least n calls.
func waitForCalls(t *testing.T, ri *recordingInvoker, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(ri.callList()) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("invoker saw %d calls, want >= %d", len(ri.callList()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Children returns the child activities (read-only view).
func (s *Sequence) Children() []Activity {
	out := make([]Activity, len(s.children))
	copy(out, s.children)
	return out
}

// Operation returns the invoked operation name.
func (i *Invoke) Operation() string { return i.operation }

// Endpoint returns the static endpoint address ("" if dynamic).
func (i *Invoke) Endpoint() string { return i.endpoint }

// DefinitionToXML serializes a definition, the inverse of
// ParseDefinition.
func DefinitionToXML(d *Definition) *xmltree.Element {
	root := xmltree.New(Namespace, "process")
	root.SetAttr("", "name", d.Name())
	if vars := d.Variables(); len(vars) > 0 {
		vs := xmltree.New(Namespace, "variables")
		for _, v := range vars {
			ve := xmltree.New(Namespace, "variable")
			ve.SetAttr("", "name", v)
			vs.Append(ve)
		}
		root.Append(vs)
	}
	root.Append(ActivityToXML(d.Root()))
	return root
}

// Snapshot captures a quiescent instance's full state — its (possibly
// customized) activity tree, variables, completion marks, and
// adaptation state — as an XML document, realizing the WF built-in
// Persistence runtime service (§2.1). The instance must be suspended,
// created, or finished; a free-running instance cannot be snapshotted
// consistently.
func (in *Instance) Snapshot() (*xmltree.Element, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	quiescent := in.state == StateCreated || in.state == StateSuspended || in.state.Terminal()
	if !quiescent {
		return nil, fmt.Errorf("%w: instance %s is %s; suspend before snapshotting", ErrBadState, in.id, in.state)
	}
	return in.snapshotLocked(), nil
}

// CheckpointXML captures the instance's state without requiring
// quiescence. Unlike Snapshot it may run while the instance executes;
// the result is consistent as of the moment the instance lock is held
// — the persistence runtime service calls it from activity-boundary
// hooks, where the captured completion marks always describe a
// resumable position.
func (in *Instance) CheckpointXML() *xmltree.Element {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.snapshotLocked()
}

// NewPersistenceService builds a persistence service journaling into
// st with default options. Telemetry (optional) records checkpoint
// outcomes and the recovered-instance gauge.
func NewPersistenceService(st *store.Store, tel *telemetry.Telemetry) *PersistenceService {
	return NewPersistenceServiceWith(st, tel, PersistenceOptions{})
}

// Forget removes an instance's durable record (e.g. after an operator
// acknowledges a completed instance). On the async path the delete is
// ordered behind any queued checkpoints for the instance.
func (p *PersistenceService) Forget(id string) error {
	p.dropChain(id)
	if p.committer != nil {
		if err := p.committer.Enqueue(store.Mutation{
			Op: store.MutDelete, Space: SpaceInstances, Key: id,
		}); err != nil {
			return err
		}
		p.committer.Barrier()
		return nil
	}
	return p.st.Delete(SpaceInstances, id)
}
