package serve

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"credo/internal/bp"
	"credo/internal/telemetry"
)

// TestDiffEvidenceMatchesDense is the differential lock on the sparse
// warm-start diff: merging two node-sorted evidence lists must report
// exactly the nodes a brute-force comparison of their dense per-node
// views finds changed, with the same before and after states, over
// random pairs that add, retract, re-state, repeat or empty the evidence.
func TestDiffEvidenceMatchesDense(t *testing.T) {
	const n, states = 40, 3
	rng := rand.New(rand.NewSource(1))
	random := func() []evPair {
		var l []evPair
		p := rng.Float64()
		for v := int32(0); v < n; v++ {
			if rng.Float64() < p {
				l = append(l, evPair{node: v, state: int32(rng.Intn(states))})
			}
		}
		return l
	}
	// perturb keeps, retracts or re-states each clamp of old and adds
	// clamps on nodes old leaves free.
	perturb := func(old []evPair) []evPair {
		var l []evPair
		i := 0
		for v := int32(0); v < n; v++ {
			if i < len(old) && old[i].node == v {
				switch rng.Intn(3) {
				case 0:
					l = append(l, old[i])
				case 1:
					l = append(l, evPair{node: v, state: (old[i].state + 1) % states})
				}
				i++
			} else if rng.Intn(8) == 0 {
				l = append(l, evPair{node: v, state: int32(rng.Intn(states))})
			}
		}
		return l
	}
	dense := func(l []evPair) []int32 {
		d := make([]int32, n)
		for i := range d {
			d[i] = -1
		}
		for _, ev := range l {
			d[ev.node] = ev.state
		}
		return d
	}

	type pair struct{ old, cur []evPair }
	pairs := []pair{{nil, nil}, {nil, random()}, {random(), nil}}
	for i := 0; i < 200; i++ {
		a := random()
		pairs = append(pairs, pair{a, a}, pair{a, random()}, pair{a, perturb(a)})
	}
	for i, p := range pairs {
		var got [][3]int32
		diffEvidence(p.old, p.cur, func(v, was, now int32) {
			got = append(got, [3]int32{v, was, now})
		})
		var want [][3]int32
		do, dc := dense(p.old), dense(p.cur)
		for v := int32(0); v < n; v++ {
			if do[v] != dc[v] {
				want = append(want, [3]int32{v, do[v], dc[v]})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pair %d: merge diff %v, dense diff %v\nold %v\ncur %v",
				i, got, want, p.old, p.cur)
		}
	}
}

// TestOverlappingPublicationsLastWriterWins: a warm query whose snapshot
// another query patched between its lease and its publication replaces
// the snapshot whole, so the snapshot is its fixpoint, not its rows over
// the other's. The probe runs the second query to completion from
// inside the first one's run.
func TestOverlappingPublicationsLastWriterWins(t *testing.T) {
	var armed atomic.Bool
	var s *Server
	var r *Resident
	var other *ResolvedQuery
	var otherErr error
	probe := probeFunc(func(e telemetry.Event) {
		if e.Kind == telemetry.KindRunStart && armed.CompareAndSwap(true, false) {
			_, otherErr = s.QueryResident(r, EngineResidual, other)
		}
	})
	s, r = newGridServer(t, Config{Options: bp.Options{Probe: probe}})
	other = decode(t, r, `{"evidence":[{"node":"136","state":0}]}`)
	if _, err := s.QueryResident(r, EngineResidual, decode(t, r, `{"evidence":[{"node":"136","state":1}]}`)); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	rq := decode(t, r, `{"evidence":[{"node":"40","state":0},{"node":"136","state":1}]}`)
	resp, err := s.QueryResident(r, EngineResidual, rq)
	if err != nil || otherErr != nil {
		t.Fatal(err, otherErr)
	}
	if armed.Load() || !resp.Warm || !resp.Converged {
		t.Fatalf("probe fired=%v, warm=%v, converged=%v: the overlap was not set up", !armed.Load(), resp.Warm, resp.Converged)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !slices.Equal(r.snap.evidence, rq.evidence) || !sameBits(r.snap.beliefs, resp.Beliefs.values) {
		t.Fatal("the later publication did not replace the snapshot whole")
	}
}
