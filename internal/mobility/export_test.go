package mobility

// ReferenceMove is referenceMove for the engine-level oracle in package
// mobility_test, which imports internal/sim (as this package may not).
var ReferenceMove = referenceMove
