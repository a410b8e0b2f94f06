package policy

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// CompilerFunc lowers a full document set (sorted by document name)
// into an opaque compiled artifact. Registered by internal/policy/compile
// via SetCompiler; the indirection keeps this package free of a
// dependency on its own compiler. The returned artifact must be
// immutable: it is published to readers via a single atomic pointer.
type CompilerFunc func(docs []*Document) (artifact any, err error)

// Repository is the policy store queried by decision makers: "policy
// assertions are stored in a policy repository, which is a collection
// of instances of policy classes" (§2.1). Documents can be replaced at
// runtime — "when a WS-Policy4MASC document changes, these changes are
// automatically enforced the next time adaptation is needed with no
// need to restart any software component" (§2.2). Repository is safe
// for concurrent use.
//
// When a compiler is registered (SetCompiler), every mutation is
// transactional: the incoming document set is validated and compiled in
// full before the result is published with one atomic store, and on
// compile failure the mutation is rolled back — the previous documents
// and compiled artifact keep serving. Readers on the evaluation hot
// path call Compiled() and never take the repository lock. Dispatch —
// which policies apply to a subject, operation or event — is answered
// only by the compiled artifact: compile.Lookup registers the compiler
// on a repository's first lookup if nobody did before.
type Repository struct {
	mu       sync.RWMutex
	docs     map[string]*Document
	compiler CompilerFunc
	compiled atomic.Value // compiledBox; nil artifact until SetCompiler
}

// compiledBox wraps the compiler artifact so atomic.Value always stores
// one concrete type (atomic.Value forbids storing differing types or
// untyped nil).
type compiledBox struct{ artifact any }

// NewRepository builds an empty repository.
func NewRepository() *Repository {
	return &Repository{docs: make(map[string]*Document)}
}

// SetCompiler registers the compiler and immediately compiles the
// current document set so readers see a consistent artifact from the
// moment of registration. Mutations recompile before publishing.
func (r *Repository) SetCompiler(fn CompilerFunc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.compiler = fn
	return r.recompileLocked()
}

// Compiled returns the artifact produced by the registered compiler for
// the current document set, or nil when no compiler is registered. It
// is a single atomic load — safe on the evaluation hot path, never
// blocked by concurrent mutations.
func (r *Repository) Compiled() any {
	if box, ok := r.compiled.Load().(compiledBox); ok {
		return box.artifact
	}
	return nil
}

// recompileLocked runs the registered compiler over the current
// (sorted) document set and publishes the artifact. Callers hold r.mu
// and roll the document map back if this fails.
func (r *Repository) recompileLocked() error {
	if r.compiler == nil {
		return nil
	}
	docs := make([]*Document, 0, len(r.docs))
	for _, name := range r.docNamesLocked() {
		docs = append(docs, r.docs[name])
	}
	artifact, err := r.compiler(docs)
	if err != nil {
		return err
	}
	r.compiled.Store(compiledBox{artifact: artifact})
	return nil
}

// Load validates the document and adds or replaces it (keyed by
// document name). With a compiler registered the swap is atomic: on
// compile failure the previous document (if any) is restored and keeps
// serving.
func (r *Repository) Load(d *Document) error {
	if err := Validate(d); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, existed := r.docs[d.Name]
	r.docs[d.Name] = d
	if err := r.recompileLocked(); err != nil {
		if existed {
			r.docs[d.Name] = prev
		} else {
			delete(r.docs, d.Name)
		}
		return err
	}
	return nil
}

// ReplaceAll atomically replaces the entire document set (a bundle
// transaction): every document is validated, then the whole set is
// compiled, and only then published. On any failure the previous set —
// documents and compiled artifact — keeps serving unchanged.
func (r *Repository) ReplaceAll(docs []*Document) error {
	next := make(map[string]*Document, len(docs))
	for _, d := range docs {
		if err := Validate(d); err != nil {
			return fmt.Errorf("document %q: %w", d.Name, err)
		}
		if _, dup := next[d.Name]; dup {
			return fmt.Errorf("%w: duplicate document name %q", ErrInvalid, d.Name)
		}
		next[d.Name] = d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.docs
	r.docs = next
	if err := r.recompileLocked(); err != nil {
		r.docs = prev
		return err
	}
	return nil
}

// LoadXML parses and loads a document from XML text.
func (r *Repository) LoadXML(text string) (*Document, error) {
	d, err := ParseString(text)
	if err != nil {
		return nil, err
	}
	if err := r.Load(d); err != nil {
		return nil, err
	}
	return d, nil
}

// Unload removes the named document and reports whether it existed.
// Removal never fails compilation of the remaining set in practice, but
// if it does the document is restored.
func (r *Repository) Unload(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.docs[name]
	if !ok {
		return false
	}
	delete(r.docs, name)
	if err := r.recompileLocked(); err != nil {
		r.docs[name] = prev
		return false
	}
	return true
}

// Document returns the named loaded document, or nil.
func (r *Repository) Document(name string) *Document {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.docs[name]
}

// Snapshot returns the loaded documents sorted by name. The slice is
// fresh but the documents are shared — treat them as read-only.
func (r *Repository) Snapshot() []*Document {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Document, 0, len(r.docs))
	for _, name := range r.docNamesLocked() {
		out = append(out, r.docs[name])
	}
	return out
}

func (r *Repository) docNamesLocked() []string {
	names := make([]string, 0, len(r.docs))
	for n := range r.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
