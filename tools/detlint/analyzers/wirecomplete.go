package analyzers

import (
	"go/types"

	"vinfra/tools/detlint/internal/analysis"
)

// WireComplete keeps the canonical wire-codec surface closed: any type
// that declares the encoder half (AppendTo) must declare the exact-size
// half (WireSize) and have a matching package-level Decode<Type> function
// whose results include the type. The internal/wire plane's guarantees —
// exact wire accounting, fuzzable decode paths, snapshot round-trips —
// only hold for types where all three exist; a type with AppendTo alone is
// a one-way encoder whose bytes nothing can check or replay. An encoding
// that is one-way by design (a configuration fingerprint) is not named
// AppendTo: the fault fingerprints are sim.Fingerprinter's
// AppendFingerprint.
var WireComplete = &analysis.Analyzer{
	Name: "wirecomplete",
	Doc:  "types declaring AppendTo must declare WireSize and have a package-level Decode<Type> returning the type",
	Run:  runWireComplete,
}

func runWireComplete(pass *analysis.Pass) (any, error) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if !declaresMethod(named, "AppendTo") {
			continue
		}
		if !declaresMethod(named, "WireSize") {
			pass.Reportf(tn.Pos(), "%s declares AppendTo but not WireSize; the wire codec surface requires exact sizing for every encoder", name)
		}
		decodeName := "Decode" + name
		if !decoderReturns(scope.Lookup(decodeName), named) {
			pass.Reportf(tn.Pos(), "%s declares AppendTo but the package has no func %s returning %s; every canonical encoding needs its decoder", name, decodeName, name)
		}
	}
	return nil, nil
}

// declaresMethod reports whether named itself declares a method (explicit
// declaration, value or pointer receiver; promoted methods from embedded
// types do not count — the embedded type owns its own codec obligations).
func declaresMethod(named *types.Named, name string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// decoderReturns reports whether obj is a function whose results include
// the named type (by value or pointer).
func decoderReturns(obj types.Object, named *types.Named) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if types.Identical(t, named) {
			return true
		}
	}
	return false
}
