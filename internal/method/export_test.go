package method

import "redotheory/internal/model"

// Fixtures shared with the external method_test package, which exists
// because its tests also drive serve and supervise, and both import
// method.

// CrashedDB is crashedDB.
var CrashedDB = crashedDB

// EachFactory calls f with every Section 6 method's name and constructor.
func EachFactory(f func(name string, mk func(*model.State) DB)) {
	for _, pf := range parallelFactories {
		f(pf.name, pf.mk)
	}
}
