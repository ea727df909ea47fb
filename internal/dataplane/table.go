package dataplane

import (
	"fmt"
	"sync/atomic"
)

// MatchKind selects a table's matching semantics.
type MatchKind int

// Supported match kinds. Exact covers DAIET's tree-ID tables; LPM covers
// IP forwarding; Ternary covers priority ACL-style rules.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
)

// ActionFunc is the body of a table action. It receives the metered
// execution context and the entry's action data. ActionFuncs must confine
// their effects to Ctx primitives; that is what keeps the "limited set of
// actions" constraint honest.
type ActionFunc func(ctx *Ctx, params []uint64)

// Entry is one table entry: an action plus its parameters.
type Entry struct {
	Action ActionFunc
	Params []uint64
}

// ternaryEntry is a masked match with priority (higher wins).
type ternaryEntry struct {
	key, mask []byte
	priority  int
	entry     Entry
}

// Table is a match-action table. Tables are installed into pipeline stages
// and populated by the controller at run time (the SDN flow-rule path,
// paper §5: "the controller can configure a P4 data plane by pushing flow
// rules to a set of tables").
//
// A Table may be applied at most once per packet per pipeline pass,
// mirroring the P4 constraint the paper calls out (§5 constraint (i)).
type Table struct {
	Name    string
	Kind    MatchKind
	Default *Entry

	exact   map[string]Entry
	ternary []ternaryEntry

	// Hits/Misses are atomic so control-plane goroutines may read them
	// while the (single-threaded) dataplane updates them.
	Hits   atomic.Uint64
	Misses atomic.Uint64
}

// NewTable creates an empty table.
func NewTable(name string, kind MatchKind) *Table {
	return &Table{Name: name, Kind: kind, exact: make(map[string]Entry)}
}

// Clear removes every entry (crash recovery: a rebooted switch comes back
// with empty tables until the controller reinstalls state). Hit/miss
// counters survive — they are observability, not dataplane state.
func (t *Table) Clear() {
	t.exact = make(map[string]Entry)
	t.ternary = nil
}

// AddExact installs an exact-match entry. The key bytes are copied.
func (t *Table) AddExact(key []byte, e Entry) error {
	if t.Kind != MatchExact {
		return fmt.Errorf("dataplane: table %q is not exact-match", t.Name)
	}
	t.exact[string(key)] = e
	return nil
}

// Reserve presizes an empty exact-match table for n entries; a table that
// already holds entries keeps its storage.
func (t *Table) Reserve(n int) {
	if len(t.exact) == 0 && n > 0 {
		t.exact = make(map[string]Entry, n)
	}
}

// DeleteExact removes an exact-match entry if present.
func (t *Table) DeleteExact(key []byte) {
	delete(t.exact, string(key))
}

// AddTernary installs a masked entry with a priority.
func (t *Table) AddTernary(key, mask []byte, priority int, e Entry) error {
	if t.Kind != MatchTernary {
		return fmt.Errorf("dataplane: table %q is not ternary", t.Name)
	}
	if len(key) != len(mask) {
		return fmt.Errorf("dataplane: table %q key/mask length mismatch", t.Name)
	}
	t.ternary = append(t.ternary, ternaryEntry{
		key:      append([]byte(nil), key...),
		mask:     append([]byte(nil), mask...),
		priority: priority,
		entry:    e,
	})
	return nil
}

// Size returns the number of installed entries.
func (t *Table) Size() int { return len(t.exact) + len(t.ternary) }

// lookup finds the entry for key, falling back to the default.
func (t *Table) lookup(key []byte) (Entry, bool) {
	switch t.Kind {
	case MatchExact:
		if e, ok := t.exact[string(key)]; ok {
			return e, true
		}
	case MatchTernary:
		best := -1
		var bestEntry Entry
		for _, te := range t.ternary {
			if len(te.key) != len(key) {
				continue
			}
			match := true
			for i := range key {
				if key[i]&te.mask[i] != te.key[i]&te.mask[i] {
					match = false
					break
				}
			}
			if match && te.priority > best {
				best = te.priority
				bestEntry = te.entry
			}
		}
		if best >= 0 {
			return bestEntry, true
		}
	case MatchLPM:
		// LPM over byte-aligned prefixes: try longest prefix first.
		for l := len(key); l >= 0; l-- {
			if e, ok := t.exact[string(key[:l])]; ok {
				return e, true
			}
		}
	}
	if t.Default != nil {
		return *t.Default, true
	}
	return Entry{}, false
}

// AddLPM installs a prefix entry (byte-granular) into an LPM table.
func (t *Table) AddLPM(prefix []byte, e Entry) error {
	if t.Kind != MatchLPM {
		return fmt.Errorf("dataplane: table %q is not LPM", t.Name)
	}
	t.exact[string(prefix)] = e
	return nil
}
