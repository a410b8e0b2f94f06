package policy

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// MustParseString parses or panics; for embedded static policies.
func MustParseString(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}
