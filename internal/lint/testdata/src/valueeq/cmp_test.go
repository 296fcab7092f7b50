package valueeq

import "github.com/audb/audb/internal/types"

// Test files are held to the rule: a test that means bit-identity says
// Same.
func checkInTest(got types.Value) bool {
	return got == types.Int(3) // want `== on types.Value compares floats by bits`
}
