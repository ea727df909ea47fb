// Package faults is the deterministic fault-injection subsystem: scripted
// or randomly-drawn fault schedules — link down/up, switch crash/restart
// (losing all in-flight dataplane aggregation state), host stragglers with
// pause/resume — applied to a netsim fabric at quiescent control points.
//
// The paper's prototype assumes the network behaves ("we do not address
// the issue of packet losses"); this package makes the opposite assumption
// concrete so every experiment can become a family of failure-mode
// scenarios. Two properties are load-bearing:
//
//   - Determinism: a Schedule is pure data, Generate is a pure function of
//     its seed, and events are applied in a canonical order at virtual
//     times — so a fault run is as reproducible as a fault-free one.
//   - Quiescent application: the Injector mutates link, switch, and host
//     state only between Network.RunUntil windows, never from inside an
//     event. That is exactly how an out-of-band control plane behaves.
//
// The control loop a driver runs (see mapreduce.RunJobFT):
//
//	for {
//	    t := next control time (earliest pending fault, liveness poll, ...)
//	    nw.RunUntil(t)      // fabric quiescent at virtual time t
//	    inj.ApplyDue(t)     // inject faults due at t
//	    monitor.Poll(t)     // control plane reacts (failover, reinstall)
//	}
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
)

// Kind enumerates fault event types.
type Kind int

// Fault kinds. Down/crash/pause events are paired with a later up/restart/
// resume event by Generate; hand-written schedules may leave a component
// failed forever.
const (
	LinkDown Kind = iota
	LinkUp
	SwitchCrash
	SwitchRestart
	HostPause
	HostResume
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchCrash:
		return "switch-crash"
	case SwitchRestart:
		return "switch-restart"
	case HostPause:
		return "host-pause"
	case HostResume:
		return "host-resume"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Link events use A and B (endpoint order
// irrelevant); switch and host events use Node.
type Event struct {
	At   netsim.Time
	Kind Kind
	Node netsim.NodeID
	A, B netsim.NodeID
}

// String renders the event for logs and failure messages.
func (e Event) String() string {
	if e.Kind == LinkDown || e.Kind == LinkUp {
		return fmt.Sprintf("%v %s %d<->%d", e.At, e.Kind, e.A, e.B)
	}
	return fmt.Sprintf("%v %s %d", e.At, e.Kind, e.Node)
}

// Schedule is a fault script. Apply order is canonical: (At, Kind, Node,
// A, B) — independent of construction order, so two schedules with the
// same events behave identically.
type Schedule []Event

// Sort orders the schedule canonically in place and returns it.
func (s Schedule) Sort() Schedule {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return s
}

// GenConfig parameterizes a randomly-drawn schedule. The zero Horizon is
// invalid; counts of zero draw no events of that kind.
type GenConfig struct {
	Seed    uint64
	Horizon netsim.Time // fault onsets land in [Horizon/20, Horizon]

	SwitchCrashes  int // crash+restart pairs, uniform over switches
	LinkFlaps      int // down+up pairs, uniform over links
	HostStragglers int // pause+resume pairs, uniform over hosts

	// Downtime bounds for the failed interval of every pair. Defaults:
	// [Horizon/8, Horizon/2].
	MinDowntime netsim.Time
	MaxDowntime netsim.Time
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MinDowntime == 0 {
		c.MinDowntime = c.Horizon / 8
	}
	if c.MaxDowntime == 0 {
		c.MaxDowntime = c.Horizon / 2
	}
	if c.MinDowntime < 1 {
		c.MinDowntime = 1
	}
	if c.MaxDowntime < c.MinDowntime {
		c.MaxDowntime = c.MinDowntime
	}
	return c
}

// Generate draws a random schedule over the given component sets: each
// fault picks a uniform target, a uniform onset within the horizon, and a
// bounded downtime, always pairing the failure with its recovery event.
// The result is a pure function of cfg and the component lists.
func Generate(cfg GenConfig, switches, hosts []netsim.NodeID, links [][2]netsim.NodeID) (Schedule, error) {
	cfg = cfg.withDefaults()
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: non-positive horizon %v", cfg.Horizon)
	}
	if cfg.SwitchCrashes > 0 && len(switches) == 0 {
		return nil, fmt.Errorf("faults: %d switch crashes requested, no switches", cfg.SwitchCrashes)
	}
	if cfg.LinkFlaps > 0 && len(links) == 0 {
		return nil, fmt.Errorf("faults: %d link flaps requested, no links", cfg.LinkFlaps)
	}
	if cfg.HostStragglers > 0 && len(hosts) == 0 {
		return nil, fmt.Errorf("faults: %d stragglers requested, no hosts", cfg.HostStragglers)
	}
	rng := rand.New(rand.NewSource(int64(hashing.Mix64(cfg.Seed ^ 0xfa0175))))
	onset := func() netsim.Time {
		lo := cfg.Horizon / 20
		if lo < 1 {
			lo = 1
		}
		return lo + netsim.Time(rng.Int63n(int64(cfg.Horizon-lo)+1))
	}
	downtime := func() netsim.Time {
		return cfg.MinDowntime + netsim.Time(rng.Int63n(int64(cfg.MaxDowntime-cfg.MinDowntime)+1))
	}
	// Per-target failed intervals: two overlapping pairs on one component
	// would let the earlier pair's recovery cut the later pair's downtime
	// short, so the schedule would under-deliver the configured fault
	// load. Draws that overlap are redrawn (deterministically).
	type target struct {
		kind Kind
		id   [2]netsim.NodeID
	}
	type interval struct{ from, to netsim.Time }
	busy := make(map[target][]interval)
	place := func(tg target) (netsim.Time, netsim.Time, error) {
		for attempt := 0; attempt < 64; attempt++ {
			from := onset()
			to := from + downtime()
			overlaps := false
			for _, iv := range busy[tg] {
				if from <= iv.to && iv.from <= to {
					overlaps = true
					break
				}
			}
			if overlaps {
				continue
			}
			busy[tg] = append(busy[tg], interval{from, to})
			return from, to, nil
		}
		return 0, 0, fmt.Errorf("faults: cannot place %d %v faults without overlap within horizon %v",
			len(busy[tg])+1, tg.kind, cfg.Horizon)
	}
	var s Schedule
	for i := 0; i < cfg.SwitchCrashes; i++ {
		sw := switches[rng.Intn(len(switches))]
		at, end, err := place(target{kind: SwitchCrash, id: [2]netsim.NodeID{sw}})
		if err != nil {
			return nil, err
		}
		s = append(s,
			Event{At: at, Kind: SwitchCrash, Node: sw},
			Event{At: end, Kind: SwitchRestart, Node: sw})
	}
	for i := 0; i < cfg.LinkFlaps; i++ {
		l := links[rng.Intn(len(links))]
		at, end, err := place(target{kind: LinkDown, id: l})
		if err != nil {
			return nil, err
		}
		s = append(s,
			Event{At: at, Kind: LinkDown, A: l[0], B: l[1]},
			Event{At: end, Kind: LinkUp, A: l[0], B: l[1]})
	}
	for i := 0; i < cfg.HostStragglers; i++ {
		h := hosts[rng.Intn(len(hosts))]
		at, end, err := place(target{kind: HostPause, id: [2]netsim.NodeID{h}})
		if err != nil {
			return nil, err
		}
		s = append(s,
			Event{At: at, Kind: HostPause, Node: h},
			Event{At: end, Kind: HostResume, Node: h})
	}
	return s.Sort(), nil
}

// SwitchTarget is what the injector needs from a crashable switch;
// core.Program implements it. Crash returns the number of aggregated
// pairs resident in switch memory at the moment of failure — the partial
// aggregates a recovery protocol must re-drive.
type SwitchTarget interface {
	Crash() (lostPairs int)
	Restart()
}

// HostTarget is what the injector needs from a straggler-capable host;
// transport.Host implements it.
type HostTarget interface {
	Pause()
	Resume()
}

// Stats counts applied fault events.
type Stats struct {
	Applied   int
	LostPairs int // aggregates resident in crashed switches, summed
}

// Injector applies a schedule to a fabric. All mutation happens in
// ApplyDue, which the driver calls only while the network is quiescent
// (between RunUntil windows) — see the package comment for the contract.
type Injector struct {
	nw       *netsim.Network
	sched    Schedule
	next     int
	switches map[netsim.NodeID]SwitchTarget
	hosts    map[netsim.NodeID]HostTarget

	// OnCrash, when set, observes each switch crash and its lost-pair
	// count (the job driver records which trees lost state).
	OnCrash func(sw netsim.NodeID, lostPairs int)

	Stats Stats
}

// NewInjector builds an injector over a canonical copy of the schedule.
func NewInjector(nw *netsim.Network, sched Schedule,
	switches map[netsim.NodeID]SwitchTarget, hosts map[netsim.NodeID]HostTarget) *Injector {

	return &Injector{
		nw:       nw,
		sched:    append(Schedule(nil), sched...).Sort(),
		switches: switches,
		hosts:    hosts,
	}
}

// NextAt returns the virtual time of the earliest unapplied event.
func (inj *Injector) NextAt() (netsim.Time, bool) {
	if inj.next >= len(inj.sched) {
		return 0, false
	}
	return inj.sched[inj.next].At, true
}

// Done reports whether every event has been applied.
func (inj *Injector) Done() bool { return inj.next >= len(inj.sched) }

// ApplyDue applies every event with At <= now, in canonical order. The
// network must be quiescent (its clocks at now). Unknown targets are
// configuration errors.
func (inj *Injector) ApplyDue(now netsim.Time) error {
	for inj.next < len(inj.sched) && inj.sched[inj.next].At <= now {
		ev := inj.sched[inj.next]
		inj.next++
		if err := inj.apply(ev); err != nil {
			return err
		}
		inj.Stats.Applied++
	}
	return nil
}

func (inj *Injector) apply(ev Event) error {
	switch ev.Kind {
	case LinkDown:
		return inj.nw.SetLinkState(ev.A, ev.B, false)
	case LinkUp:
		return inj.nw.SetLinkState(ev.A, ev.B, true)
	case SwitchCrash:
		t, ok := inj.switches[ev.Node]
		if !ok {
			return fmt.Errorf("faults: %s: unknown switch", ev)
		}
		lost := t.Crash()
		inj.Stats.LostPairs += lost
		if inj.OnCrash != nil {
			inj.OnCrash(ev.Node, lost)
		}
	case SwitchRestart:
		t, ok := inj.switches[ev.Node]
		if !ok {
			return fmt.Errorf("faults: %s: unknown switch", ev)
		}
		t.Restart()
	case HostPause:
		t, ok := inj.hosts[ev.Node]
		if !ok {
			return fmt.Errorf("faults: %s: unknown host", ev)
		}
		t.Pause()
	case HostResume:
		t, ok := inj.hosts[ev.Node]
		if !ok {
			return fmt.Errorf("faults: %s: unknown host", ev)
		}
		t.Resume()
	default:
		return fmt.Errorf("faults: %s: unknown kind", ev)
	}
	return nil
}
