package core

// Test-only access for the external test package, which can import the
// strategies (they import core).
var (
	OracleCompactSetPasses = oracleCompactSetPasses
	GatesOf                = gatesOf
)
