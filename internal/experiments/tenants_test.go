package experiments

import (
	"testing"
)

// TestTenantsVictimProtected is the acceptance property of the hard-carve
// model at fabric scale: with any reasonable carved floor, the paced
// streaming victim rides out a maximum-alpha incast aggressor with ZERO
// pool drops — the floor is physical, so no aggressor setting can consume
// it. The aggressor, by contrast, overflows and pays in drops.
func TestTenantsVictimProtected(t *testing.T) {
	res, err := Tenants(TenantsConfig{Seed: 5, VictimReserve: 2 << 10, AggAlpha: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimDropped != 0 || res.VictimPoolDrops != 0 {
		t.Fatalf("victim inside its carved floor dropped %d frames (%d pool): %+v",
			res.VictimDropped, res.VictimPoolDrops, res)
	}
	if res.AggPoolDrops == 0 {
		t.Fatalf("aggressor incast produced no pool pressure — workload too gentle: %+v", res)
	}
	// The victim's completion budget: paced streams finish near their
	// uncontended time when the slice holds.
	ref, err := tenantsReference(res.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inflation := float64(res.VictimCompletion) / float64(ref.VictimCompletion); inflation > 1.5 {
		t.Fatalf("victim completion inflated %.2fx despite holding floor", inflation)
	}
}

// TestTenantsNoFloorStarves pins the contrast: with no carve (the
// pre-hard-carve regime, where a reserve was only a threshold exemption
// and the memory was first-come-first-served), the same aggressor starves
// the victim — nonzero victim pool drops and visibly degraded fairness.
func TestTenantsNoFloorStarves(t *testing.T) {
	res, err := Tenants(TenantsConfig{Seed: 5, VictimReserve: -1, AggAlpha: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimPoolDrops == 0 {
		t.Fatalf("floorless victim took no drops — the sweep's c0 point shows nothing: %+v", res)
	}
}

// TestJainIndex pins the fairness metric, including the degenerate inputs
// the tenants figure can feed it: an empty slice and an all-zero slice are
// defined as perfectly fair (index 1), not NaN — a starved-to-zero tenant
// set must not poison the figure's aggregates.
func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"all-zero", []float64{0, 0, 0}, 1},
		{"equal", []float64{5, 5, 5, 5}, 1},
		{"one-starved", []float64{1, 0}, 0.5},
		{"skewed", []float64{4, 1, 1}, 2.0 / 3.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := jainIndex(tc.xs)
			if diff := got - tc.want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("jainIndex(%v) = %v, want %v", tc.xs, got, tc.want)
			}
			if got != got {
				t.Errorf("jainIndex(%v) is NaN", tc.xs)
			}
		})
	}
}

// renderTenants renders every counter of a contended two-tenant round —
// per-tenant drops, per-class pool attribution, completions.
func renderTenants(t *testing.T) string {
	t.Helper()
	fo := newFrameOrder()
	res, err := tenants(TenantsConfig{
		Seed: 9, VictimSenders: 3, VictimPairs: 120,
		AggSenders: 8, AggPairs: 300,
		VictimReserve: 1 << 10, AggAlpha: 32,
	}, fo)
	if err != nil {
		t.Fatal(err)
	}
	return fieldLines(*res) + fo.line()
}
