package experiments

import (
	"testing"

	"github.com/daiet/daiet/internal/netsim"
)

// renderMegaIncast runs the megaincast workload at seed 11, scale 0.08 and
// renders every counter of the trial result — not just the registry
// metrics — with arena occupancy blanked (the figure reports it as
// peak_arena_kb).
func renderMegaIncast(t *testing.T) string {
	t.Helper()
	res, err := BigIncast(megaIncastConfig(11, 0.08))
	if err != nil {
		t.Fatal(err)
	}
	res.ArenaStats = netsim.ArenaStats{}
	return fieldLines(*res)
}
