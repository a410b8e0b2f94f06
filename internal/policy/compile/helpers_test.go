package compile

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Doc returns the named document's status, or nil.
func (s *CompiledSet) Doc(name string) *DocStatus { return s.docs[name] }
