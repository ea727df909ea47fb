package main

import (
	"fmt"
	"math"
)

// The oracles are the benchmark's own: plain map[string]uint32 sums over the
// pre-generated inputs, none of the repo's aggregation code. They run after
// each trial, outside the timed region.

// compareAggregate checks a job's aggregate against the reference.
func compareAggregate(got, want map[string]uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("aggregate has %d keys, oracle %d", len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("aggregate lacks key %q", k)
		}
		if g != v {
			return fmt.Errorf("key %q = %d, oracle %d", k, g, v)
		}
	}
	return nil
}

// countWords is the word-count reference over the corpus stream.
func countWords(stream []string) map[string]uint32 {
	want := make(map[string]uint32)
	for _, w := range stream {
		want[w]++
	}
	return want
}

// graphReference holds the benchmark's own results for the three Pregel
// algorithms after a fixed number of supersteps, computed with plain loops
// over the adjacency lists.
type graphReference struct {
	pagerank, sssp, wcc []float64
}

func newGraphReference(out [][]int32, src, supersteps int) *graphReference {
	n := len(out)
	ref := &graphReference{
		pagerank: make([]float64, n),
		sssp:     make([]float64, n),
		wcc:      make([]float64, n),
	}

	// PageRank: superstep 0 sends from the uniform start; every later
	// superstep applies the damping rule to what arrived.
	rank, in := ref.pagerank, make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for step := 1; step < supersteps; step++ {
		for v := range in {
			in[v] = 0
		}
		for v, adj := range out {
			if len(adj) == 0 {
				continue
			}
			share := rank[v] / float64(len(adj))
			for _, u := range adj {
				in[u] += share
			}
		}
		for v := range rank {
			rank[v] = 0.15/float64(n) + 0.85*in[v]
		}
	}

	// SSSP, unit weights: a vertex at distance k learns it in superstep k,
	// so the run reaches distance supersteps-1.
	for v := range ref.sssp {
		ref.sssp[v] = math.Inf(1)
	}
	ref.sssp[src] = 0
	frontier := []int32{int32(src)}
	for dist := 1; dist < supersteps && len(frontier) > 0; dist++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range out[v] {
				if math.IsInf(ref.sssp[u], 1) {
					ref.sssp[u] = float64(dist)
					next = append(next, u)
				}
			}
		}
		frontier = next
	}

	// WCC: min-label propagation over the undirected view, one hop per
	// superstep after the first.
	label, next := ref.wcc, make([]float64, n)
	for v := range label {
		label[v] = float64(v)
	}
	for step := 1; step < supersteps; step++ {
		copy(next, label)
		for v, adj := range out {
			for _, u := range adj {
				next[u] = math.Min(next[u], label[v])
				next[v] = math.Min(next[v], label[u])
			}
		}
		label, next = next, label
	}
	ref.wcc = label
	return ref
}

// compareValues checks per-vertex results against the reference within a
// relative tolerance (0: exact).
func compareValues(got, want []float64, relTol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, reference %d", len(got), len(want))
	}
	for v, w := range want {
		if g := got[v]; g != w && !(math.Abs(g-w) <= relTol*math.Abs(w)) {
			return fmt.Errorf("vertex %d = %v, reference %v", v, g, w)
		}
	}
	return nil
}
