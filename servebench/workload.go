package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/mtxbp"
)

// workload is one seeded traffic mix against one generated graph. The
// doc (README.md) records why each was chosen and which layers it
// exercises or bypasses.
type workload struct {
	Name string
	// Kind is the gen family: "powerlaw" (gen.PowerLaw) or "synthetic"
	// (gen.Synthetic, the paper's NxM family). Links are generated as
	// directed links and doubled by Graph.Undirected into the MRF the
	// daemon serves, so the directed edge count is 2*Links.
	Kind   string
	Nodes  int
	Links  int
	States int

	// QueryRate and UpdateRate are the Poisson arrival rates, per second,
	// of the two open-loop streams.
	QueryRate  float64
	UpdateRate float64
	// Engine is every query's ?engine= ("" = auto, which routes through
	// the cross-query batcher).
	Engine string
	// Export makes queries omit "nodes", so each answer is the full
	// belief table.
	Export bool
	// EdgeEvery makes every EdgeEvery-th update also add an undirected
	// edge (a structural delta); 0 never does.
	EdgeEvery int
	// RetractLag makes each update also retract the evidence arrival of
	// the update RetractLag places earlier; 0 never retracts.
	RetractLag int
	// Serial sends updates and probes on the query connection instead of
	// a second one, so no query overlaps an update. README.md
	// ("Steadiness findings") records the defect that forces this on the
	// GO-scale graph.
	Serial bool

	// Launches is how many daemon launches one run times for setup_s.
	Launches int
	// BatchCap caps the sweeps of the traced mode's batched probes on a
	// graph the batcher never serves (0 keeps the daemon's cap).
	BatchCap int
}

var workloads = []workload{
	{
		Name: "watch", Kind: "powerlaw", Nodes: 5000, Links: 20000, States: 2,
		QueryRate: 10, UpdateRate: 4,
		Launches: 25,
	},
	{
		Name: "frontier", Kind: "powerlaw", Nodes: 196591, Links: 950327, States: 2,
		QueryRate: 12, UpdateRate: 1.5, Engine: "residual", Serial: true,
		Launches: 9, BatchCap: 2,
	},
	{
		Name: "feed", Kind: "synthetic", Nodes: 5000, Links: 20000, States: 3,
		QueryRate: 3, UpdateRate: 4, Export: true, EdgeEvery: 15, RetractLag: 6,
		Launches: 25,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Open-loop timing shared by every workload.
const (
	// leadIn is open-loop traffic sent before the measured window, so
	// the window starts from the steady state the traffic itself keeps.
	leadIn = time.Second
	// baseClamps, togglePool, watchPool and askNodes shape a watchlist
	// query: the base clamps plus or minus one toggled node, asking for
	// askNodes beliefs.
	baseClamps = 20
	togglePool = 40
	watchPool  = 64
	askNodes   = 16
)

// graphFiles is one generated mtxbp pair.
type graphFiles struct {
	Nodes, Edges         string
	NodeBytes, EdgeBytes int64
}

// graphSeed seeds every workload's graph. The graph is part of the
// workload's definition; --seed draws the traffic on it (node pools,
// arrivals, update contents). Varying the graph with --seed would add
// power-law hub placement to the run-to-run spread the bounds must
// cover.
const graphSeed = 1

// ensureGraph generates the workload's graph into dir, unless a previous
// run already cached it there. Files are keyed by spec and graph seed;
// other cached graphs of the same workload are removed so the cache
// stays one graph per workload.
func ensureGraph(w workload, dir string) (graphFiles, error) {
	seed := int64(graphSeed)
	key := fmt.Sprintf("%s-%s-%dx%d-s%d-seed%d", w.Name, w.Kind, w.Nodes, w.Links, w.States, seed)
	f := graphFiles{
		Nodes: filepath.Join(dir, key+".nodes.mtx"),
		Edges: filepath.Join(dir, key+".edges.mtx"),
	}
	if err := f.stat(); err == nil {
		return f, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return f, err
	}
	old, _ := filepath.Glob(filepath.Join(dir, w.Name+"-*"))
	for _, p := range old {
		os.Remove(p)
	}
	g, err := generate(w, seed)
	if err != nil {
		return f, err
	}
	// Write under temporary names and rename, so an interrupted run never
	// leaves a truncated pair that a later run would take as cached.
	if err := mtxbp.WriteFiles(f.Nodes+".tmp", f.Edges+".tmp", g); err != nil {
		return f, err
	}
	if err := os.Rename(f.Edges+".tmp", f.Edges); err != nil {
		return f, err
	}
	if err := os.Rename(f.Nodes+".tmp", f.Nodes); err != nil {
		return f, err
	}
	return f, f.stat()
}

func (f *graphFiles) stat() error {
	ni, err := os.Stat(f.Nodes)
	if err != nil {
		return err
	}
	ei, err := os.Stat(f.Edges)
	if err != nil {
		return err
	}
	f.NodeBytes, f.EdgeBytes = ni.Size(), ei.Size()
	return nil
}

// generate builds the workload's MRF: a directed gen graph with one
// shared joint matrix, doubled by Graph.Undirected.
func generate(w workload, seed int64) (*graph.Graph, error) {
	cfg := gen.Config{Seed: seed, States: w.States, Shared: true}
	var g *graph.Graph
	var err error
	switch w.Kind {
	case "powerlaw":
		g, err = gen.PowerLaw(w.Nodes, w.Links, cfg)
	case "synthetic":
		g, err = gen.Synthetic(w.Nodes, w.Links, cfg)
	default:
		err = fmt.Errorf("unknown graph kind %q", w.Kind)
	}
	if err != nil {
		return nil, err
	}
	return g.Undirected()
}

// clamp is one (node, state) evidence pair.
type clamp struct {
	Node  int32
	State int
}

// request is one scheduled request. A query carries its document and
// what the checks need; an update carries its document, its mutations
// (replayed on the oracle once acknowledged) and its read-your-write
// probe, a watchlist query asking for the arrival node.
type request struct {
	Due    time.Duration // offset from the open-loop start
	Update bool
	Body   []byte

	Evidence []clamp // query evidence
	Nodes    []int32 // requested nodes (nil = every node)

	Muts    []gen.Mutation
	Arrival clamp  // the update's evidence arrival
	Probe   []byte // the probe's query document
}

// schedule is a workload's whole seeded traffic: the base watchlist and
// every request of the lead-in and the measured window, in due order.
type schedule struct {
	Base     []clamp
	Requests []request
}

// makeSchedule derives the request streams from the seed: the node pools
// first, then the query and update streams from independent sources, so
// each stream's arrivals depend only on its own rate.
func makeSchedule(w workload, seed int64, window time.Duration) *schedule {
	pools := rand.New(rand.NewSource(seed*3 + 1))
	n := w.Nodes
	used := make(map[int32]bool)
	pick := func() int32 {
		for {
			v := int32(pools.Intn(n))
			if !used[v] {
				used[v] = true
				return v
			}
		}
	}
	sc := &schedule{}
	for i := 0; i < baseClamps; i++ {
		sc.Base = append(sc.Base, clamp{pick(), pools.Intn(w.States)})
	}
	toggles := make([]clamp, togglePool)
	for i := range toggles {
		toggles[i] = clamp{pick(), pools.Intn(w.States)}
	}
	watch := make([]int32, watchPool)
	for i := range watch {
		watch[i] = pick()
	}

	end := leadIn + window
	qrng := rand.New(rand.NewSource(seed*3 + 2))
	// watchlist draws one query's evidence: the base clamps with one
	// toggle, dropping a base clamp or adding a pool clamp.
	watchlist := func(rng *rand.Rand) []clamp {
		ev := append([]clamp(nil), sc.Base...)
		t := rng.Intn(baseClamps + togglePool)
		if t < baseClamps {
			return append(ev[:t], ev[t+1:]...)
		}
		return append(ev, toggles[t-baseClamps])
	}
	for _, due := range arrivals(qrng, w.QueryRate, end) {
		ev := watchlist(qrng)
		var nodes []int32
		if !w.Export {
			for _, c := range ev[:askNodes/4] {
				nodes = append(nodes, c.Node)
			}
			for _, i := range qrng.Perm(watchPool)[:askNodes-len(nodes)] {
				nodes = append(nodes, watch[i])
			}
		}
		sc.Requests = append(sc.Requests, request{Due: due, Body: queryDoc(ev, nodes), Evidence: ev, Nodes: nodes})
	}

	urng := rand.New(rand.NewSource(seed*3 + 3))
	var arrived []int32
	for i, due := range arrivals(urng, w.UpdateRate, end) {
		a := clamp{pick(), urng.Intn(w.States)}
		muts := []gen.Mutation{{Kind: gen.MutEvidence, Node: a.Node, State: a.State}}
		if w.RetractLag > 0 && i >= w.RetractLag {
			muts = append(muts, gen.Mutation{Kind: gen.MutRetract, Node: arrived[i-w.RetractLag]})
		}
		arrived = append(arrived, a.Node)
		p := make([]float32, w.States)
		gen.RandomDistribution(urng, p)
		muts = append(muts, gen.Mutation{Kind: gen.MutPrior, Node: pick(), Prior: p})
		if w.EdgeEvery > 0 && i%w.EdgeEvery == w.EdgeEvery-1 {
			src := int32(urng.Intn(n))
			dst := int32(urng.Intn(n - 1))
			if dst >= src {
				dst++
			}
			muts = append(muts,
				gen.Mutation{Kind: gen.MutAddEdge, Src: src, Dst: dst},
				gen.Mutation{Kind: gen.MutAddEdge, Src: dst, Dst: src})
		}
		sc.Requests = append(sc.Requests, request{
			Due: due, Update: true, Body: updateDoc(muts), Muts: muts, Arrival: a,
			Probe: queryDoc(watchlist(urng), []int32{a.Node}),
		})
	}
	sort.SliceStable(sc.Requests, func(i, j int) bool { return sc.Requests[i].Due < sc.Requests[j].Due })
	return sc
}

// arrivals returns Poisson arrival offsets in [0, end) at rate per second.
func arrivals(rng *rand.Rand, rate float64, end time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= end {
			return out
		}
		out = append(out, d)
	}
}

func nodeRef(v int32) string { return strconv.Itoa(int(v)) }

// queryDoc encodes a posterior-query document; nil nodes omits the list
// (every node is returned).
func queryDoc(ev []clamp, nodes []int32) []byte {
	type evidence struct {
		Node  string `json:"node"`
		State int    `json:"state"`
	}
	doc := struct {
		Evidence []evidence `json:"evidence"`
		Nodes    []string   `json:"nodes,omitempty"`
	}{Evidence: []evidence{}}
	for _, c := range ev {
		doc.Evidence = append(doc.Evidence, evidence{nodeRef(c.Node), c.State})
	}
	for _, v := range nodes {
		doc.Nodes = append(doc.Nodes, nodeRef(v))
	}
	return mustJSON(doc)
}

// updateDoc encodes a POST /v1/update document.
func updateDoc(muts []gen.Mutation) []byte {
	type op struct {
		Op    string    `json:"op"`
		Node  string    `json:"node,omitempty"`
		State *int      `json:"state,omitempty"`
		Prior []float32 `json:"prior,omitempty"`
		Src   string    `json:"src,omitempty"`
		Dst   string    `json:"dst,omitempty"`
	}
	var ops []op
	for _, m := range muts {
		switch m.Kind {
		case gen.MutEvidence:
			s := m.State
			ops = append(ops, op{Op: "evidence", Node: nodeRef(m.Node), State: &s})
		case gen.MutRetract:
			ops = append(ops, op{Op: "retract", Node: nodeRef(m.Node)})
		case gen.MutPrior:
			ops = append(ops, op{Op: "prior", Node: nodeRef(m.Node), Prior: m.Prior})
		case gen.MutAddEdge:
			ops = append(ops, op{Op: "edge", Src: nodeRef(m.Src), Dst: nodeRef(m.Dst)})
		}
	}
	return mustJSON(struct {
		Updates []op `json:"updates"`
	}{ops})
}

func mustJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return bytes.TrimSpace(buf.Bytes())
}
