package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// wantSpecs is the closed list of figures the registry must serve: the
// paper's evaluation, the ablations, and the extensions. A new figure file
// extends this list.
var wantSpecs = []string{
	"ablation-combiner",
	"ablation-key-width",
	"ablation-pairs-per-packet",
	"ablation-table-size",
	"bigincast",
	"faults",
	"fig1-workers",
	"fig1a",
	"fig1b",
	"fig1c",
	"fig3",
	"incast",
	"incast-jitter",
	"megaincast",
	"multirack",
	"tenants",
}

func TestRegistryEnumeratesEveryFigure(t *testing.T) {
	specs := Specs()
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, wantSpecs) {
		t.Fatalf("registry = %v\nwant      %v", names, wantSpecs)
	}
	for _, name := range wantSpecs {
		if Lookup(name) == nil {
			t.Fatalf("Lookup(%q) = nil", name)
		}
	}
	if Lookup("no-such-figure") != nil {
		t.Fatal("Lookup of unknown figure must be nil")
	}
}

func TestExecuteRejectsMissingMetric(t *testing.T) {
	s := &Spec{
		Name:    "broken",
		Points:  []Point{{Label: "p"}},
		Metrics: []string{"present", "absent"},
		Run: func(Point, Trial) (map[string]float64, error) {
			return map[string]float64{"present": 1}, nil
		},
	}
	if _, err := s.Execute(RunConfig{Seeds: 1}); err == nil ||
		!strings.Contains(err.Error(), "absent") {
		t.Fatalf("missing metric not reported: %v", err)
	}
}

func TestRegisterValidates(t *testing.T) {
	run := func(Point, Trial) (map[string]float64, error) { return nil, nil }
	cases := map[string]*Spec{
		"empty name": {Points: []Point{{}}, Metrics: []string{"m"}, Run: run},
		"no run":     {Name: "x1", Points: []Point{{}}, Metrics: []string{"m"}},
		"no points":  {Name: "x2", Metrics: []string{"m"}, Run: run},
		"no metrics": {Name: "x3", Points: []Point{{}}, Run: run},
		"duplicate":  {Name: "fig3", Points: []Point{{}}, Metrics: []string{"m"}, Run: run},
		"volatile not declared": {Name: "x4", Points: []Point{{}}, Metrics: []string{"m"},
			Volatile: []string{"other"}, Run: run},
	}
	for name, s := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Register did not panic", name)
				}
			}()
			Register(s)
		}()
	}
}
