// Package graph provides the belief-graph substrate used by every Credo
// implementation: nodes carrying discrete probability distributions
// ("beliefs"), directed edges carrying joint probability matrices, and
// compressed adjacency indices for traversal by node or by edge.
//
// An undirected Markov Random Field edge is stored as two directed edges so
// that observed (clamped) nodes can keep emitting updates without ever being
// overwritten (paper §3.3).
package graph

import (
	"errors"
	"fmt"
	"math"
)

// MaxStates is the largest supported belief width. The paper's three use
// cases need 2 (binary), 3 (virus: susceptible/infected/recovered) and 32
// (one belief per bit of a 32-bit pixel).
const MaxStates = 32

// Graph is a belief network prepared for belief propagation. Beliefs,
// priors and per-edge messages are stored in flat, parallel float32 arrays
// with stride States; adjacency is stored as CSR-style offset/index arrays
// so that the hot loops touch only indices and the flat numeric arrays
// (paper §3.4).
type Graph struct {
	// NumNodes and NumEdges count nodes and *directed* edges.
	NumNodes int
	NumEdges int

	// States is the uniform belief width of every node.
	States int

	// Names holds optional node names; nil when nodes are anonymous.
	Names []string

	// Beliefs is the current belief of each node, flattened with stride
	// States: node i owns Beliefs[i*States : (i+1)*States].
	Beliefs []float32

	// Priors is the original (prior) distribution of each node, with the
	// same layout as Beliefs. Observed nodes have a clamped prior.
	Priors []float32

	// Observed marks nodes whose state is known with certainty; their
	// beliefs never change during propagation (paper §2.1).
	Observed []bool

	// EdgeSrc and EdgeDst give the endpoints of each directed edge.
	EdgeSrc []int32
	EdgeDst []int32

	// InOffsets/InEdges index the edges arriving at each node:
	// InEdges[InOffsets[v]:InOffsets[v+1]] are the edge ids with dst v.
	InOffsets []int32
	InEdges   []int32

	// OutOffsets/OutEdges index the edges leaving each node.
	OutOffsets []int32
	OutEdges   []int32

	// Messages holds the current message along each directed edge,
	// flattened with stride States.
	Messages []float32

	// Shared is the single joint probability matrix used by every edge
	// when the large-graph refinement of paper §2.2 is active.
	Shared *JointMatrix

	// EdgeMats holds one joint probability matrix per directed edge when
	// the original per-edge mode is active. Exactly one of Shared and
	// EdgeMats is set.
	EdgeMats []JointMatrix

	// gen and structGen are the mutation generation counters maintained
	// by the delta layer (see delta.go); read them through Generation and
	// StructuralGeneration. dyn holds the pending structural overlay, the
	// saved pre-clamp priors and the changed-node frontier; nil until the
	// first delta mutation.
	gen       uint64
	structGen uint64
	dyn       *graphDelta
}

// SharedMatrix reports whether the graph uses the single shared joint
// probability matrix refinement.
func (g *Graph) SharedMatrix() bool { return g.Shared != nil }

// EnsureTransposed builds the column-major copy of every joint matrix in
// the graph (see JointMatrix.EnsureTransposed). Builder.Build calls it so
// that built graphs always carry transposes; engines call it defensively
// for graphs assembled by hand. Idempotent; not safe to race with itself
// on a graph whose matrices lack transposes.
func (g *Graph) EnsureTransposed() {
	if g.Shared != nil {
		g.Shared.EnsureTransposed()
		return
	}
	for i := range g.EdgeMats {
		g.EdgeMats[i].EnsureTransposed()
	}
}

// Matrix returns the joint probability matrix governing edge e.
func (g *Graph) Matrix(e int32) *JointMatrix {
	if g.Shared != nil {
		return g.Shared
	}
	return &g.EdgeMats[e]
}

// Belief returns the belief vector of node v (a view, not a copy).
func (g *Graph) Belief(v int32) []float32 {
	return g.Beliefs[int(v)*g.States : int(v)*g.States+g.States]
}

// Prior returns the prior vector of node v (a view, not a copy).
func (g *Graph) Prior(v int32) []float32 {
	return g.Priors[int(v)*g.States : int(v)*g.States+g.States]
}

// Message returns the message vector along directed edge e (a view).
func (g *Graph) Message(e int32) []float32 {
	return g.Messages[int(e)*g.States : int(e)*g.States+g.States]
}

// InDegree returns the number of edges arriving at node v.
func (g *Graph) InDegree(v int32) int {
	return int(g.InOffsets[v+1] - g.InOffsets[v])
}

// OutDegree returns the number of edges leaving node v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.OutOffsets[v+1] - g.OutOffsets[v])
}

// Observe clamps node v to state s: its belief and prior become the
// indicator distribution of s and propagation will never change them.
func (g *Graph) Observe(v int32, s int) error {
	if s < 0 || s >= g.States {
		return fmt.Errorf("graph: observe node %d: state %d out of range [0,%d)", v, s, g.States)
	}
	b := g.Belief(v)
	p := g.Prior(v)
	for i := range b {
		b[i] = 0
		p[i] = 0
	}
	b[s] = 1
	p[s] = 1
	g.Observed[v] = true
	return nil
}

// ResetBeliefs restores every node's belief to its prior and every message
// to the uniform distribution, undoing any propagation.
func (g *Graph) ResetBeliefs() {
	copy(g.Beliefs, g.Priors)
	g.ResetMessages()
}

// ResetMessages sets every message to the uniform distribution, the
// state Builder.Build and MergeDelta give them, without touching node
// state.
func (g *Graph) ResetMessages() {
	u := float32(1) / float32(g.States)
	for i := range g.Messages {
		g.Messages[i] = u
	}
}

// Clone returns a deep copy of the graph. The adjacency index arrays are
// shared (they are only ever replaced wholesale, never patched in place —
// see MergeDelta); numeric state is copied. The clone carries its source's
// mutation generations and a deep copy of any delta-layer state, so
// mutating either graph afterwards never leaks into the other.
func (g *Graph) Clone() *Graph {
	c := *g
	c.Beliefs = append([]float32(nil), g.Beliefs...)
	c.Priors = append([]float32(nil), g.Priors...)
	c.Observed = append([]bool(nil), g.Observed...)
	c.Messages = append([]float32(nil), g.Messages...)
	if g.Shared != nil {
		s := *g.Shared
		c.Shared = &s
	}
	c.dyn = g.dyn.clone()
	return &c
}

// MemoryFootprint returns the approximate number of bytes of numeric and
// index data held by the graph. It is used by the VRAM admission check of
// the simulated GPU (paper §4.2 excludes TW and OR for exceeding 8 GB).
func (g *Graph) MemoryFootprint() int64 {
	var b int64
	b += int64(len(g.Beliefs)+len(g.Priors)+len(g.Messages)) * 4
	b += int64(len(g.EdgeSrc)+len(g.EdgeDst)+len(g.InOffsets)+len(g.InEdges)+len(g.OutOffsets)+len(g.OutEdges)) * 4
	b += int64(len(g.Observed))
	if g.Shared != nil {
		b += int64(g.States*g.States) * 4
	}
	b += int64(len(g.EdgeMats)) * int64(g.States*g.States) * 4
	return b
}

// Validate checks the structural invariants of the graph: well-formed CSR
// offsets, edge endpoints in range, normalized finite beliefs, and matrix
// dimensions matching the belief width. It is used by tests and by the
// input parsers after loading.
func (g *Graph) Validate() error {
	if g.States <= 0 || g.States > MaxStates {
		return fmt.Errorf("graph: states %d out of range [1,%d]", g.States, MaxStates)
	}
	if len(g.Beliefs) != g.NumNodes*g.States {
		return fmt.Errorf("graph: beliefs length %d, want %d", len(g.Beliefs), g.NumNodes*g.States)
	}
	if len(g.Priors) != g.NumNodes*g.States {
		return fmt.Errorf("graph: priors length %d, want %d", len(g.Priors), g.NumNodes*g.States)
	}
	if len(g.Observed) != g.NumNodes {
		return fmt.Errorf("graph: observed length %d, want %d", len(g.Observed), g.NumNodes)
	}
	if len(g.EdgeSrc) != g.NumEdges || len(g.EdgeDst) != g.NumEdges {
		return fmt.Errorf("graph: edge endpoint arrays %d/%d, want %d", len(g.EdgeSrc), len(g.EdgeDst), g.NumEdges)
	}
	if len(g.Messages) != g.NumEdges*g.States {
		return fmt.Errorf("graph: messages length %d, want %d", len(g.Messages), g.NumEdges*g.States)
	}
	if g.Shared == nil && len(g.EdgeMats) != g.NumEdges {
		return fmt.Errorf("graph: no shared matrix and %d edge matrices for %d edges", len(g.EdgeMats), g.NumEdges)
	}
	if g.Shared != nil && len(g.EdgeMats) != 0 {
		return errors.New("graph: both shared and per-edge matrices set")
	}
	for e := 0; e < g.NumEdges; e++ {
		if s := g.EdgeSrc[e]; s < 0 || int(s) >= g.NumNodes {
			return fmt.Errorf("graph: edge %d src %d out of range", e, s)
		}
		if d := g.EdgeDst[e]; d < 0 || int(d) >= g.NumNodes {
			return fmt.Errorf("graph: edge %d dst %d out of range", e, d)
		}
		m := g.Matrix(int32(e))
		if int(m.Rows) != g.States || int(m.Cols) != g.States {
			return fmt.Errorf("graph: edge %d matrix %dx%d, want %dx%d", e, m.Rows, m.Cols, g.States, g.States)
		}
	}
	if err := validateCSR(g.InOffsets, g.InEdges, g.EdgeDst, g.NumNodes, g.NumEdges, "in"); err != nil {
		return err
	}
	if err := validateCSR(g.OutOffsets, g.OutEdges, g.EdgeSrc, g.NumNodes, g.NumEdges, "out"); err != nil {
		return err
	}
	for v := 0; v < g.NumNodes; v++ {
		if err := checkDistribution(g.Belief(int32(v))); err != nil {
			return fmt.Errorf("graph: node %d belief: %w", v, err)
		}
		if err := checkDistribution(g.Prior(int32(v))); err != nil {
			return fmt.Errorf("graph: node %d prior: %w", v, err)
		}
	}
	return nil
}

func validateCSR(offsets, edges, endpoint []int32, numNodes, numEdges int, kind string) error {
	if len(offsets) != numNodes+1 {
		return fmt.Errorf("graph: %s-offsets length %d, want %d", kind, len(offsets), numNodes+1)
	}
	if len(edges) != numEdges {
		return fmt.Errorf("graph: %s-edges length %d, want %d", kind, len(edges), numEdges)
	}
	if offsets[0] != 0 || int(offsets[numNodes]) != numEdges {
		return fmt.Errorf("graph: %s-offsets ends %d..%d, want 0..%d", kind, offsets[0], offsets[numNodes], numEdges)
	}
	for v := 0; v < numNodes; v++ {
		if offsets[v] > offsets[v+1] {
			return fmt.Errorf("graph: %s-offsets not monotone at node %d", kind, v)
		}
		for _, e := range edges[offsets[v]:offsets[v+1]] {
			if e < 0 || int(e) >= numEdges {
				return fmt.Errorf("graph: %s-edge id %d out of range at node %d", kind, e, v)
			}
			if endpoint[e] != int32(v) {
				return fmt.Errorf("graph: %s-edge %d endpoint %d listed under node %d", kind, e, endpoint[e], v)
			}
		}
	}
	return nil
}

// checkDistribution verifies that p is a finite, non-negative distribution
// summing to 1 within tolerance.
func checkDistribution(p []float32) error {
	var sum float64
	for i, v := range p {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("entry %d is not finite: %v", i, v)
		}
		if f < 0 {
			return fmt.Errorf("entry %d is negative: %v", i, v)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-3 {
		return fmt.Errorf("sums to %v, want 1", sum)
	}
	return nil
}

// ObserveSoft applies virtual (likelihood) evidence to node v: its prior
// is multiplied entrywise by the likelihood and renormalized, without
// clamping the node. This is Pearl's soft-evidence mechanism — the node
// keeps updating during propagation, but its prior now carries the
// observation's weight.
func (g *Graph) ObserveSoft(v int32, likelihood []float32) error {
	if len(likelihood) != g.States {
		return fmt.Errorf("graph: soft evidence on node %d has %d states, want %d", v, len(likelihood), g.States)
	}
	if v < 0 || int(v) >= g.NumNodes {
		return fmt.Errorf("graph: soft evidence node %d out of range", v)
	}
	p := g.Prior(v)
	var sum float32
	for i, l := range likelihood {
		if l < 0 || math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) {
			return fmt.Errorf("graph: soft evidence entry %d is not a valid likelihood: %v", i, l)
		}
		p[i] *= l
		sum += p[i]
	}
	if sum <= 0 {
		return fmt.Errorf("graph: soft evidence on node %d zeroes the prior", v)
	}
	Normalize(p)
	copy(g.Belief(v), p)
	return nil
}
