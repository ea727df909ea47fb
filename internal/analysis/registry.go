// Package analysis registers the simlint analyzer bank: the static checks
// that mechanically enforce the simulator's byte-identity contract (see
// README "Determinism invariants"). cmd/simlint runs every registered
// analyzer; adding a new invariant means adding it here and nowhere else.
package analysis

import (
	"github.com/daiet/daiet/internal/analysis/arenaescape"
	"github.com/daiet/daiet/internal/analysis/framecopy"
	"github.com/daiet/daiet/internal/analysis/framework"
	"github.com/daiet/daiet/internal/analysis/globalrand"
	"github.com/daiet/daiet/internal/analysis/maporder"
	"github.com/daiet/daiet/internal/analysis/wallclock"
)

// Analyzers returns every registered analyzer, in stable order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		arenaescape.Analyzer,
		framecopy.Analyzer,
		globalrand.Analyzer,
		maporder.Analyzer,
		wallclock.Analyzer,
	}
}

// Names returns the registered analyzer names (the valid //simlint:<name>
// suppression targets), in the same stable order.
func Names() []string {
	as := Analyzers()
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}
