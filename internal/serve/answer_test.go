package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"credo/internal/gen"
)

// feedResident loads the shape of servebench's feed graph at n nodes
// (four directed links per node, three states, doubled into an MRF) and
// returns it with a warm export query: the first answer publishes the
// snapshot, so every later one takes the warm path.
func feedResident(tb testing.TB, n int) (*Server, *Resident, *ResolvedQuery) {
	tb.Helper()
	g, err := gen.Synthetic(n, 4*n, gen.Config{Seed: 1, States: 3, Shared: true})
	if err != nil {
		tb.Fatal(err)
	}
	if g, err = g.Undirected(); err != nil {
		tb.Fatal(err)
	}
	s := New(Config{})
	r, err := s.Load("feed", g)
	if err != nil {
		tb.Fatal(err)
	}
	rq, err := r.DecodeQuery([]byte(`{"evidence":[{"node":"7","state":1},{"node":"40","state":2}]}`))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := s.QueryResident(r, EngineAuto, rq)
	if err != nil {
		tb.Fatal(err)
	}
	if !resp.Converged || resp.Beliefs.Len() != n {
		tb.Fatalf("first export: converged=%v, %d of %d nodes", resp.Converged, resp.Beliefs.Len(), n)
	}
	return s, r, rq
}

// BenchmarkQueryExport times one warm export query on feed's graph
// shape plus the encoding of its answer, the unit of work behind each
// of feed's full-table exports.
func BenchmarkQueryExport(b *testing.B) {
	s, r, rq := feedResident(b, 5000)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.QueryResident(r, EngineAuto, rq)
		if err != nil {
			b.Fatal(err)
		}
		buf = resp.AppendJSON(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}

// TestExportAllocsFlat: a warm export and its encoding allocate the same
// small number of times whatever the graph's size — no allocation per
// node, as a name-keyed map of fresh slices would make.
func TestExportAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops leased overlays at random; the count is asserted in the non-race build")
	}
	const maxAllocs = 8
	var counts [2]float64
	for i, n := range []int{500, 5000} {
		s, r, rq := feedResident(t, n)
		var buf []byte
		counts[i] = testing.AllocsPerRun(20, func() {
			resp, err := s.QueryResident(r, EngineAuto, rq)
			if err != nil {
				t.Fatal(err)
			}
			buf = resp.AppendJSON(buf[:0])
		})
	}
	t.Logf("allocations per export: %v at 500 nodes, %v at 5000", counts[0], counts[1])
	if counts[0] != counts[1] || counts[1] > maxAllocs {
		t.Fatalf("allocations per export: %v at 500 nodes, %v at 5000; want equal and at most %d",
			counts[0], counts[1], maxAllocs)
	}
}

// TestQueryNodesAnsweredOnceInOrder: an explicit empty node list answers
// no node (only an omitted or null list exports), and a node named
// twice, or once by name and once by id, is answered once, in id order.
func TestQueryNodesAnsweredOnceInOrder(t *testing.T) {
	s := New(Config{MRF: true})
	r, err := s.LoadFiles("sprinkler", LoadSpec{BIF: sprinklerPath()})
	if err != nil {
		t.Fatal(err)
	}
	rain := r.names["rain"]
	for _, tc := range []struct {
		doc  string
		want []int32
	}{
		{`{"evidence":[],"nodes":[]}`, []int32{}},
		{`{"nodes":[]}`, []int32{}},
		{`{"nodes":null}`, []int32{0, 1, 2, 3}},
		{`{}`, []int32{0, 1, 2, 3}},
		{`{"nodes":["rain","rain","` + strconv.Itoa(int(rain)) + `"]}`, []int32{rain}},
		{`{"nodes":["3","1","3","0"]}`, []int32{0, 1, 3}},
	} {
		resp, err := s.QueryResident(r, EngineAuto, decode(t, r, tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		var got []int32
		for i := 0; i < resp.Beliefs.Len(); i++ {
			got = append(got, resp.Beliefs.Node(i))
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s answered nodes %v, want %v", tc.doc, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s answered nodes %v, want %v", tc.doc, got, tc.want)
			}
		}
		var wire wireAnswer
		if err := json.Unmarshal(resp.AppendJSON(nil), &wire); err != nil {
			t.Fatal(err)
		}
		if len(wire.Beliefs) != len(tc.want) {
			t.Fatalf("%s encodes %d beliefs, want %d", tc.doc, len(wire.Beliefs), len(tc.want))
		}
	}
}

// FuzzAnswerEncoding checks the answer encoder against encoding/json,
// the encoder it replaced: for any node name and any finite values,
// AppendJSON's output is valid JSON that json.Marshal returns unchanged,
// every value's bytes are encoding/json's, and the answer decodes to the
// labels and bit-identical float32s of the name-keyed map encoding/json
// used to write. Even nodes carry names built from the input, odd nodes
// none, so names can also collide with each other and with ids.
func FuzzAnswerEncoding(f *testing.F) {
	float32s := func(xs ...float32) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return b
	}
	subnormal := math.Float32frombits(1)
	negZero := float32(math.Copysign(0, -1))
	f.Add("rain", float32s(0.25, 0.75, 1, 0), 0.001, false)
	f.Add(`a"b\c`, float32s(negZero, subnormal, 1e-7, 1e21), 1e-7, true)
	f.Add("<&>", float32s(9.99e20, 3.4e38, 1e-6, 0.999999), 1e21, false)
	f.Add("\x00\x1f\x7f\b\f\n\r\t", float32s(1.0/3, 2.0/3, 5e-45, 1e-10), 0.0, true)
	f.Add("\xff\xfe\xc3", float32s(0.5, 0.5), math.Copysign(0, -1), false)
	f.Add("\u2028\u2029\u00e9", float32s(1e-8, 1), 123456789.0, true)
	f.Add("1", float32s(0.1, 0.9, 0.2, 0.8, 0.3, 0.7), 2.5e-9, false)
	f.Add("", float32s(0.4, 0.6), 1e300, true)

	f.Fuzz(func(t *testing.T, name string, raw []byte, delta float64, subset bool) {
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return
		}
		const states = 2
		var vals []float32
		for ; len(raw) >= 4 && len(vals) < 64; raw = raw[4:] {
			x := math.Float32frombits(binary.LittleEndian.Uint32(raw))
			if !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) {
				vals = append(vals, x)
			}
		}
		n := len(vals) / states
		names := make([]string, n)
		for v := 0; v < n; v += 2 {
			names[v] = name + strconv.Itoa(v)
		}
		tbl := BeliefTable{states: states, values: vals[:n*states], names: names}
		if subset {
			// Every third node, rows copied out as a subset answer has them.
			tbl.nodes = []int32{}
			var rows []float32
			for v := 0; v < n; v += 3 {
				tbl.nodes = append(tbl.nodes, int32(v))
				rows = append(rows, vals[v*states:(v+1)*states]...)
			}
			tbl.values = rows
		}
		resp := &Response{Graph: name, Engine: EngineResidual, Warm: subset, Iterations: n,
			Updates: int64(len(vals)), Edges: -1, FinalDelta: delta, WallNs: 12345, Beliefs: tbl}

		out := resp.AppendJSON(nil)
		if !json.Valid(out) {
			t.Fatalf("invalid JSON: %q", out)
		}
		viaMarshal, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaMarshal, out) {
			t.Fatalf("json.Marshal differs from AppendJSON:\n%s\n%s", viaMarshal, out)
		}
		for _, x := range vals {
			want, _ := json.Marshal(x)
			if got := appendFloat(nil, float64(x), 32); !bytes.Equal(got, want) {
				t.Fatalf("float32 %g (bits %#x): wrote %s, encoding/json %s", x, math.Float32bits(x), got, want)
			}
		}
		want, _ := json.Marshal(delta)
		if got := appendFloat(nil, delta, 64); !bytes.Equal(got, want) {
			t.Fatalf("float64 %g: wrote %s, encoding/json %s", delta, got, want)
		}

		// The map the encoder replaced, keyed by the old label rule and
		// filled in node order, through encoding/json.
		type scalars struct {
			Graph      string  `json:"graph"`
			Engine     string  `json:"engine"`
			Warm       bool    `json:"warm"`
			Converged  bool    `json:"converged"`
			Iterations int     `json:"iterations"`
			Updates    int64   `json:"updates"`
			Edges      int64   `json:"edges"`
			FinalDelta float64 `json:"final_delta"`
			WallNs     int64   `json:"wall_ns"`
		}
		type mapAnswer struct {
			scalars
			Beliefs map[string][]float32 `json:"beliefs"`
		}
		old := mapAnswer{scalars: scalars{Graph: resp.Graph, Engine: resp.Engine, Warm: resp.Warm,
			Iterations: resp.Iterations, Updates: resp.Updates, Edges: resp.Edges,
			FinalDelta: resp.FinalDelta, WallNs: resp.WallNs},
			Beliefs: make(map[string][]float32)}
		for i := 0; i < tbl.Len(); i++ {
			v := tbl.Node(i)
			label := names[v]
			if label == "" {
				label = strconv.Itoa(int(v))
			}
			old.Beliefs[label] = tbl.Row(i)
		}
		oldBytes, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		var got, ref mapAnswer
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(oldBytes, &ref); err != nil {
			t.Fatal(err)
		}
		if got.scalars != ref.scalars || math.Float64bits(got.FinalDelta) != math.Float64bits(ref.FinalDelta) {
			t.Fatalf("scalar fields decode to %+v, encoding/json's to %+v", got.scalars, ref.scalars)
		}
		gotBeliefs, refBeliefs := got.Beliefs, ref.Beliefs
		if len(gotBeliefs) != len(refBeliefs) {
			t.Fatalf("%d labels decoded, encoding/json's map has %d", len(gotBeliefs), len(refBeliefs))
		}
		for label, rb := range refBeliefs {
			gb, ok := gotBeliefs[label]
			if !ok || len(gb) != len(rb) {
				t.Fatalf("label %q: decoded %v, encoding/json's %v", label, gb, rb)
			}
			for j := range rb {
				if math.Float32bits(gb[j]) != math.Float32bits(rb[j]) {
					t.Fatalf("label %q: decoded %v, encoding/json's %v", label, gb, rb)
				}
			}
		}
	})
}
