package serve

import (
	"testing"

	"credo/internal/gen"
)

// FuzzQueryDecode throws arbitrary bytes at the strict query decoder.
// The invariant is total: DecodeQuery never panics, and anything it
// accepts is internally consistent — evidence nodes in range and strictly
// ascending (sorted, no duplicates), states within the graph's belief
// width, response nodes resolvable and strictly ascending.
// Malformed states, unknown nodes and duplicate evidence must error
// (the deterministic cases are locked by TestDecodeQueryErrors; the
// fuzzer explores the space between them).
func FuzzQueryDecode(f *testing.F) {
	g, err := gen.Grid(4, 4, gen.Config{Seed: 9, States: 3, Shared: true, Keep: 0.6})
	if err != nil {
		f.Fatal(err)
	}
	r := NewResident("fuzz", g)

	seeds := []string{
		`{}`,
		`{"evidence":[],"nodes":[]}`,
		`{"evidence":[{"node":"0","state":1}]}`,
		`{"evidence":[{"node":"3","state":2}],"nodes":["1","2"]}`,
		`{"evidence":[{"node":"0","state":0},{"node":"0","state":1}]}`,
		`{"evidence":[{"node":"bogus","state":0}]}`,
		`{"evidence":[{"node":"0"}]}`,
		`{"evidence":[{"node":"0","state":99}]}`,
		`{"evidence":[{"node":"-7","state":0}]}`,
		`{"nodes":["15"]} trailing`,
		`{"unknown":true}`,
		`[1,2,3]`,
		`"a string"`,
		"\x00\xff\xfe",
		`{"evidence":[{"node":"0","state":null}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := r.DecodeQuery(data)
		if err != nil {
			return
		}
		for i, ev := range rq.evidence {
			if ev.node < 0 || int(ev.node) >= g.NumNodes {
				t.Fatalf("accepted out-of-range evidence node %d", ev.node)
			}
			if ev.state < 0 || int(ev.state) >= g.States {
				t.Fatalf("accepted out-of-range state %d for node %d", ev.state, ev.node)
			}
			// Strictly ascending: sorted for the warm-start merge, and no
			// node clamped twice.
			if i > 0 && ev.node <= rq.evidence[i-1].node {
				t.Fatalf("evidence list not strictly ascending at %d: node %d after %d",
					i, ev.node, rq.evidence[i-1].node)
			}
		}
		for i, v := range rq.nodes {
			if v < 0 || int(v) >= g.NumNodes {
				t.Fatalf("accepted out-of-range response node %d", v)
			}
			// Strictly ascending: answers list each node once, in id order.
			if i > 0 && v <= rq.nodes[i-1] {
				t.Fatalf("response nodes not strictly ascending at %d: node %d after %d", i, v, rq.nodes[i-1])
			}
		}
	})
}
