package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// prunedReference is the retention rule stated as a full pass: walk every
// record oldest first and drop terminal ones while the count is above the
// bound; queued and running records always stay.
func prunedReference(order []string, states map[string]JobState, max int) []string {
	live := len(order)
	var kept []string
	for _, id := range order {
		if live > max && states[id].Terminal() {
			live--
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// pruneLocked keeps exactly the records the full-pass rule keeps, in the
// same order, over seeded schedules of submits and finishes in any order,
// with records stuck running at the oldest end and bounds from 1 to 8.
func TestPruneKeepsWhatAFullPassKeeps(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bound := 1 + rng.Intn(8)
		m := &manager{jobs: map[string]*job{}}
		states := map[string]JobState{}
		var want []string
		for step := 0; step < 200; step++ {
			id := fmt.Sprintf("job-%06d", step)
			m.jobs[id] = &job{id: id, state: StateQueued}
			m.order = append(m.order, id)
			states[id] = StateQueued
			want = append(want, id)
			m.pruneLocked(bound)
			want = prunedReference(want, states, bound)
			if !slices.Equal(m.order, want) || len(m.jobs) != len(want) {
				t.Fatalf("seed %d step %d: kept %v (%d records), full pass keeps %v", seed, step, m.order, len(m.jobs), want)
			}
			for _, k := range want {
				if m.jobs[k] == nil {
					t.Fatalf("seed %d step %d: %s in the order but not the records", seed, step, k)
				}
			}
			// Finish a few records anywhere, running ones more slowly.
			for n := rng.Intn(3); n > 0 && len(want) > 0; n-- {
				j := m.jobs[want[rng.Intn(len(want))]]
				switch {
				case j.state == StateQueued:
					j.state = StateRunning
				case j.state == StateRunning && rng.Intn(4) == 0:
					j.state = []JobState{StateDone, StateFailed, StateCancelled}[rng.Intn(3)]
				}
				states[j.id] = j.state
			}
		}
	}
}
