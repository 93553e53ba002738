package sim

import (
	"redotheory/internal/method"
	"redotheory/internal/model"
)

// NamedFactory pairs a method name with its factory.
type NamedFactory struct {
	Name string
	New  Factory
}

// DefaultMethods returns the full factory table of the seven Section 6
// recovery method variants, in canonical order. Campaign drivers
// (redosim, redofuzz, the examples) share it so "all methods" means the
// same thing everywhere.
func DefaultMethods() []NamedFactory {
	return []NamedFactory{
		{Name: "logical", New: func(s *model.State) method.DB { return method.NewLogical(s) }},
		{Name: "physical", New: func(s *model.State) method.DB { return method.NewPhysical(s) }},
		{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
		{Name: "physiological+dpt", New: func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }},
		{Name: "genlsn", New: func(s *model.State) method.DB { return method.NewGenLSN(s) }},
		{Name: "genlsn+mv", New: func(s *model.State) method.DB { return method.NewGenLSNMV(s) }},
		{Name: "grouplsn", New: func(s *model.State) method.DB { return method.NewGroupLSN(s) }},
	}
}
