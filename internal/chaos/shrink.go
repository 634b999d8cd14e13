package chaos

import (
	"time"
)

// Shrinker reduces a failing spec to a minimal reproducer. Minimality is
// greedy, not global: each accepted step keeps the spec failing, and the
// process stops when no single step helps or the episode budget runs out.
// Three reductions run in rounds until a fixpoint:
//
//  1. drop fault events (ddmin-style: halves, then quarters, ... then
//     single events);
//  2. tighten the timeline (scale every event time down, pull the horizon
//     in to just past the last event);
//  3. shrink the configuration (drop connections, then swap the topology
//     for smaller instances of the same generator).
//
// "Failing" means RunEpisode reports at least one violation — any
// violation: a reproducer that morphs one symptom into another as it
// shrinks is still a reproducer of the underlying bug.
type Shrinker struct {
	// Opts are applied to every probe run (sabotage must stay on while
	// shrinking a sabotage-caught failure).
	Opts RunOptions

	runs int
}

// shrinkBudget caps the probe episodes of one Shrink.
const shrinkBudget = 400

// fails probes a candidate spec, consuming budget.
func (sh *Shrinker) fails(s Spec) bool {
	if sh.runs >= shrinkBudget {
		return false // out of budget: treat as "does not fail", keep current
	}
	sh.runs++
	res, err := RunEpisode(s, sh.Opts)
	return err == nil && len(res.Violations) > 0
}

// Runs reports how many probe episodes the last Shrink consumed.
func (sh *Shrinker) Runs() int { return sh.runs }

// Shrink minimizes spec. The input must fail (the caller just watched it
// fail); the result is the smallest failing spec found.
func (sh *Shrinker) Shrink(spec Spec) Spec {
	sh.runs = 0
	cur := spec
	for changed := true; changed; {
		changed = false
		if next, ok := sh.dropEvents(cur); ok {
			cur, changed = next, true
		}
		if next, ok := sh.tightenTimes(cur); ok {
			cur, changed = next, true
		}
		if next, ok := sh.shrinkConfig(cur); ok {
			cur, changed = next, true
		}
	}
	return cur
}

// withEvents returns spec with a new event list, a re-fitted horizon, and a
// re-derived benign flag: deleting a repair event can turn a benign schedule
// into overlapping failures, and demanding liveness of those would let the
// shrinker latch onto a false positive instead of the original bug. The
// flag only ever weakens (benign -> non-benign), never strengthens.
func withEvents(spec Spec, evs []FaultEvent) Spec {
	spec.Events = evs
	last := int64(0)
	for _, ev := range evs {
		if ev.AtNS > last {
			last = ev.AtNS
		}
	}
	spec.HorizonNS = last + int64(500*time.Millisecond)
	spec.Benign = spec.Benign && benignEvents(evs)
	return spec
}

// dropEvents removes fault events ddmin-style: try deleting chunks of
// decreasing size, restarting from big chunks after any success.
func (sh *Shrinker) dropEvents(spec Spec) (Spec, bool) {
	improved := false
	for {
		n := len(spec.Events)
		if n <= 1 {
			return spec, improved
		}
		droppedAny := false
		for size := n / 2; size >= 1; size /= 2 {
			for start := 0; start+size <= len(spec.Events); start += size {
				evs := make([]FaultEvent, 0, len(spec.Events)-size)
				evs = append(evs, spec.Events[:start]...)
				evs = append(evs, spec.Events[start+size:]...)
				cand := withEvents(spec, evs)
				if sh.fails(cand) {
					spec = cand
					droppedAny, improved = true, true
					break
				}
			}
			if droppedAny {
				break // restart with large chunks on the smaller list
			}
		}
		if !droppedAny {
			return spec, improved
		}
	}
}

// tightenTimes compresses the timeline toward zero while preserving event
// order: smaller windows mean faster replays and tighter reproducers.
func (sh *Shrinker) tightenTimes(spec Spec) (Spec, bool) {
	improved := false
	for _, div := range []int64{4, 2} {
		evs := make([]FaultEvent, len(spec.Events))
		shrunk := false
		for i, ev := range spec.Events {
			evs[i] = ev
			evs[i].AtNS = ev.AtNS / div
			if evs[i].AtNS != ev.AtNS {
				shrunk = true
			}
		}
		if !shrunk {
			continue
		}
		cand := withEvents(spec, evs)
		if sh.fails(cand) {
			spec = cand
			improved = true
		}
	}
	return spec, improved
}

// smallerTopos proposes smaller instances of the spec's topology family.
func smallerTopos(t TopoSpec) []TopoSpec {
	switch t.Kind {
	case "torus", "mesh":
		var out []TopoSpec
		if t.A > 3 {
			out = append(out, TopoSpec{Kind: t.Kind, A: t.A - 1, B: t.B, Seed: t.Seed})
		}
		if t.B > 3 {
			out = append(out, TopoSpec{Kind: t.Kind, A: t.A, B: t.B - 1, Seed: t.Seed})
		}
		return out
	case "ring":
		if t.A > 4 {
			return []TopoSpec{{Kind: "ring", A: t.A - 2}}
		}
	case "hypercube":
		if t.A > 2 {
			return []TopoSpec{{Kind: "hypercube", A: t.A - 1}}
		}
	case "random":
		if t.A > 6 {
			return []TopoSpec{{Kind: "random", A: t.A - 2, B: t.B, Seed: t.Seed}}
		}
	}
	return nil
}

// specValidOn reports whether every event target exists on the topology.
func specValidOn(spec Spec) bool {
	g, err := spec.Topo.Build()
	if err != nil {
		return false
	}
	for _, cs := range spec.Conns {
		if cs.Src >= g.NumNodes() || cs.Dst >= g.NumNodes() {
			return false
		}
	}
	for _, ev := range spec.Events {
		switch ev.Kind {
		case EvFailNode, EvRepairNode:
			if ev.Target >= g.NumNodes() {
				return false
			}
		default:
			if ev.Target >= g.NumLinks() {
				return false
			}
		}
	}
	return true
}

// shrinkConfig drops connections and tries smaller topologies. Topology
// substitution re-maps nothing — the same link IDs land on different
// physical links — so it only stands when the failure reproduces anyway.
func (sh *Shrinker) shrinkConfig(spec Spec) (Spec, bool) {
	improved := false
	for i := 0; i < len(spec.Conns) && len(spec.Conns) > 1; {
		cand := spec
		cand.Conns = append(append([]ConnSpec{}, spec.Conns[:i]...), spec.Conns[i+1:]...)
		if sh.fails(cand) {
			spec = cand
			improved = true
			continue // same index now names the next conn
		}
		i++
	}
	for {
		shrunk := false
		for _, t := range smallerTopos(spec.Topo) {
			cand := spec
			cand.Topo = t
			if !specValidOn(cand) {
				continue
			}
			if sh.fails(cand) {
				spec = cand
				improved, shrunk = true, true
				break
			}
		}
		if !shrunk {
			return spec, improved
		}
	}
}
