package graph

import (
	"fmt"
	"slices"
)

// Dynamic-graph delta layer. Every engine in this repository was built
// against a frozen Graph; the workloads the paper motivates (rumor and
// malware propagation) are streams — edges appear, priors drift,
// evidence arrives and retracts. This file adds post-build mutation to a
// built *Graph without giving up the flat CSR layout the hot loops
// depend on:
//
//   - Structural mutations (AddEdgeDelta) land in an overlay segment —
//     parallel pending-edge arrays outside the CSR index — and are
//     merged into fresh adjacency arrays on a cadence
//     (DeltaMergeCadence pending edges) or on demand (MergeDelta). A
//     merge is an O(N+E) incremental patch: old edge ids keep their
//     positions, per-node runs are copied once and the overlay ids are
//     appended to their endpoints' runs, so a burst of AddEdgeDelta
//     calls costs one reindex instead of one per edge. Merged arrays
//     are always freshly allocated — clones sharing the old index keep
//     a consistent (pre-mutation) view, which is what lets a serving
//     layer mutate a resident while leased overlays finish in flight.
//
//   - Numeric mutations (UpdatePrior, SetEvidence, RetractEvidence)
//     apply immediately; SetEvidence saves the pre-clamp prior so a
//     later retraction can restore it (Observe alone destroys it).
//
//   - Every mutation bumps a monotonic generation counter
//     (Generation), and structural mutations additionally bump
//     StructuralGeneration. A fixpoint computed on a copy of the graph
//     describes the graph only while the generation it was copied at
//     still holds: the serving layer publishes a query's warm-start
//     snapshot only if the base's generation is unchanged since the
//     query leased its state.
//
//   - Mutations accumulate a changed-node set. TakeDeltaSeeds drains
//     it as a delta-BP seed frontier — the changed nodes plus their
//     out-neighbours, exactly the warm-start frontier shape of
//     bp.RunResidualFrom / relaxbp.RunFrom — after forcing a merge so
//     the frontier sees the new topology. Seeding only that frontier
//     re-converges an already-converged graph with a fraction of a
//     cold run's updates; the equivalence against a cold run on an
//     equivalently-mutated rebuilt graph is pinned by the enginetest
//     delta harness and FuzzDeltaApply.
//
// Mutation calls are not safe to race with each other or with a running
// engine; callers serialize them (the serving layer holds the
// resident's write lock). Delta-BP re-convergence is defined for the
// node-paradigm engines (sequential residual, pool sweeps, relaxed
// residual), which read beliefs, not per-edge messages; merged overlay
// edges start with uniform messages, so edge-paradigm runs remain
// cold-start only.

// DeltaMergeCadence is the pending-overlay size that triggers an
// automatic CSR merge inside AddEdgeDelta. Merges are O(N+E); batching
// a few hundred structural mutations per reindex keeps sustained
// mutation streams from going quadratic while bounding the overlay a
// run-preparation merge has to fold in.
const DeltaMergeCadence = 256

// graphDelta is the mutable companion state of a built Graph: the
// pending structural overlay, the saved pre-clamp priors, and the
// changed-node frontier accumulator.
type graphDelta struct {
	// Pending overlay segment: directed edges accepted by AddEdgeDelta
	// but not yet merged into the CSR index.
	src, dst []int32
	mats     []JointMatrix

	// savedPriors holds the pre-clamp prior of every node clamped
	// through SetEvidence, so RetractEvidence can restore it.
	savedPriors map[int32][]float32

	// changed is the mutation frontier since the last TakeDeltaSeeds.
	changed map[int32]struct{}
}

// clone deep-copies the delta state for Graph.Clone; nil in, nil out.
func (d *graphDelta) clone() *graphDelta {
	if d == nil {
		return nil
	}
	c := &graphDelta{
		src:         append([]int32(nil), d.src...),
		dst:         append([]int32(nil), d.dst...),
		mats:        append([]JointMatrix(nil), d.mats...),
		savedPriors: make(map[int32][]float32, len(d.savedPriors)),
		changed:     make(map[int32]struct{}, len(d.changed)),
	}
	for v, p := range d.savedPriors {
		c.savedPriors[v] = append([]float32(nil), p...)
	}
	for v := range d.changed {
		c.changed[v] = struct{}{}
	}
	return c
}

func (g *Graph) delta() *graphDelta {
	if g.dyn == nil {
		g.dyn = &graphDelta{
			savedPriors: make(map[int32][]float32),
			changed:     make(map[int32]struct{}),
		}
	}
	return g.dyn
}

// Generation returns the graph's mutation generation: it starts at zero
// for a freshly built graph and increases monotonically with every
// applied delta (structural or numeric). Clones carry their source's
// generation. Anything derived from the graph's numeric fixpoint should
// be keyed by this value and treated as stale on mismatch.
func (g *Graph) Generation() uint64 { return g.gen }

// StructuralGeneration returns the structural mutation generation: it
// increases only when the edge set changes (AddEdgeDelta), so a caller
// comparing it across a mutation batch tells a structural delta from a
// numeric one.
func (g *Graph) StructuralGeneration() uint64 { return g.structGen }

// PendingDeltaEdges reports how many accepted structural deltas await a
// CSR merge.
func (g *Graph) PendingDeltaEdges() int {
	if g.dyn == nil {
		return 0
	}
	return len(g.dyn.src)
}

// validateDeltaEdge applies exactly the Builder.AddEdge acceptance
// rules (see builder.go: range, shared-vs-per-edge matrix mode, matrix
// shape and backing length) so the post-build mutation path cannot
// accept an edge the construction path would reject, or vice versa.
func (g *Graph) validateDeltaEdge(src, dst int32, mat *JointMatrix) error {
	n := int32(g.NumNodes)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", src, dst, n)
	}
	if g.Shared != nil {
		if mat != nil {
			return fmt.Errorf("graph: edge (%d,%d) carries a matrix but a shared matrix is installed", src, dst)
		}
		return nil
	}
	if mat == nil {
		return fmt.Errorf("graph: edge (%d,%d) needs a matrix (no shared matrix installed)", src, dst)
	}
	if int(mat.Rows) != g.States || int(mat.Cols) != g.States {
		return fmt.Errorf("graph: edge (%d,%d) matrix %dx%d, want %dx%d", src, dst, mat.Rows, mat.Cols, g.States, g.States)
	}
	if len(mat.Data) != int(mat.Rows)*int(mat.Cols) {
		return fmt.Errorf("graph: edge (%d,%d) matrix %dx%d backed by %d values", src, dst, mat.Rows, mat.Cols, len(mat.Data))
	}
	return nil
}

// AddEdgeDelta appends a directed edge src→dst to a built graph. The
// edge lands in the pending overlay segment and becomes visible to
// traversal after the next merge (automatic at DeltaMergeCadence
// pending edges, forced by MergeDelta or TakeDeltaSeeds). Acceptance
// rules match Builder.AddEdge exactly. The destination node joins the
// delta frontier: its belief is the one the new parent can move before
// any update is applied.
func (g *Graph) AddEdgeDelta(src, dst int32, mat *JointMatrix) error {
	if err := g.validateDeltaEdge(src, dst, mat); err != nil {
		return err
	}
	d := g.delta()
	d.src = append(d.src, src)
	d.dst = append(d.dst, dst)
	if g.Shared == nil {
		d.mats = append(d.mats, *mat)
	}
	d.changed[dst] = struct{}{}
	g.gen++
	g.structGen++
	if len(d.src) >= DeltaMergeCadence {
		g.MergeDelta()
	}
	return nil
}

// AddUndirectedDelta appends both directions of an undirected MRF link,
// mirroring Builder.AddUndirected: the reverse direction carries the
// normalized transpose so the coupling stays symmetric.
func (g *Graph) AddUndirectedDelta(u, v int32, mat *JointMatrix) error {
	if err := g.AddEdgeDelta(u, v, mat); err != nil {
		return err
	}
	var rev *JointMatrix
	if mat != nil {
		t := transpose(mat)
		rev = &t
	}
	return g.AddEdgeDelta(v, u, rev)
}

// MergeDelta folds the pending overlay segment into the graph: edge
// endpoint arrays, per-edge matrices (transposed copies included),
// uniform-initialized messages, and freshly built In/Out CSR indices.
// Old edge ids are stable across a merge. All index and edge arrays are
// newly allocated, never patched in place, so clones sharing the
// pre-merge arrays keep a consistent view. A no-op when nothing is
// pending.
func (g *Graph) MergeDelta() {
	if g.dyn == nil || len(g.dyn.src) == 0 {
		return
	}
	d := g.dyn
	oldEdges := g.NumEdges
	add := len(d.src)

	src := make([]int32, oldEdges+add)
	copy(src, g.EdgeSrc)
	copy(src[oldEdges:], d.src)
	dst := make([]int32, oldEdges+add)
	copy(dst, g.EdgeDst)
	copy(dst[oldEdges:], d.dst)

	if g.Shared == nil {
		mats := make([]JointMatrix, oldEdges+add)
		copy(mats, g.EdgeMats)
		copy(mats[oldEdges:], d.mats)
		for i := oldEdges; i < len(mats); i++ {
			mats[i].EnsureTransposed()
		}
		g.EdgeMats = mats
	}

	msgs := make([]float32, (oldEdges+add)*g.States)
	copy(msgs, g.Messages)
	u := float32(1) / float32(g.States)
	for i := oldEdges * g.States; i < len(msgs); i++ {
		msgs[i] = u
	}

	g.InOffsets, g.InEdges = patchCSR(g.InOffsets, g.InEdges, d.dst, oldEdges, g.NumNodes)
	g.OutOffsets, g.OutEdges = patchCSR(g.OutOffsets, g.OutEdges, d.src, oldEdges, g.NumNodes)

	g.EdgeSrc = src
	g.EdgeDst = dst
	g.Messages = msgs
	g.NumEdges = oldEdges + add
	d.src, d.dst, d.mats = nil, nil, nil
}

// patchCSR extends one CSR index with an overlay segment: per-node runs
// of the old index are copied once, and the overlay's edge ids
// (oldEdges, oldEdges+1, ...) are appended to their endpoints' runs.
// One counting pass plus one copy — the incremental analogue of
// buildCSR that never regroups the existing edges.
func patchCSR(oldOffsets, oldEdges []int32, newEndpoint []int32, firstID, numNodes int) (offsets, edges []int32) {
	extra := make([]int32, numNodes)
	for _, v := range newEndpoint {
		extra[v]++
	}
	offsets = make([]int32, numNodes+1)
	for v := 0; v < numNodes; v++ {
		offsets[v+1] = offsets[v] + (oldOffsets[v+1] - oldOffsets[v]) + extra[v]
	}
	edges = make([]int32, len(oldEdges)+len(newEndpoint))
	cursor := make([]int32, numNodes)
	for v := 0; v < numNodes; v++ {
		run := oldEdges[oldOffsets[v]:oldOffsets[v+1]]
		copy(edges[offsets[v]:], run)
		cursor[v] = offsets[v] + int32(len(run))
	}
	for i, v := range newEndpoint {
		edges[cursor[v]] = int32(firstID + i)
		cursor[v]++
	}
	return offsets, edges
}

// UpdatePrior replaces node v's prior distribution (copied and
// normalized, exactly as Builder.AddNode would have). For an unclamped
// node the belief is left for re-convergence to move — except an
// input-free node, whose fixpoint IS its prior, so its belief follows
// immediately (the residual engines never enqueue input-free nodes).
// For a clamped node the new prior is parked in the retraction save
// slot: the clamp keeps winning until it is retracted, matching a
// rebuilt graph with the new prior plus the same clamp.
func (g *Graph) UpdatePrior(v int32, prior []float32) error {
	if v < 0 || int(v) >= g.NumNodes {
		return fmt.Errorf("graph: update prior: node %d out of range [0,%d)", v, g.NumNodes)
	}
	if len(prior) != g.States {
		return fmt.Errorf("graph: update prior: node %d has %d states, want %d", v, len(prior), g.States)
	}
	d := g.delta()
	p := make([]float32, g.States)
	copy(p, prior)
	Normalize(p)
	if g.Observed[v] {
		d.savedPriors[v] = p
		g.gen++
		return nil
	}
	copy(g.Prior(v), p)
	if g.InDegree(v) == 0 {
		copy(g.Belief(v), p)
	}
	d.changed[v] = struct{}{}
	g.gen++
	return nil
}

// SetEvidence clamps node v to state s as a delta: the pre-clamp prior
// is saved for retraction, the clamp applies immediately (belief and
// prior become the indicator, exactly like Observe), and v joins the
// delta frontier so re-convergence propagates the new certainty.
// Re-clamping an already-clamped node keeps its original saved prior.
func (g *Graph) SetEvidence(v int32, s int) error {
	if v < 0 || int(v) >= g.NumNodes {
		return fmt.Errorf("graph: set evidence: node %d out of range [0,%d)", v, g.NumNodes)
	}
	d := g.delta()
	if _, ok := d.savedPriors[v]; !ok && !g.Observed[v] {
		d.savedPriors[v] = append([]float32(nil), g.Prior(v)...)
	}
	if err := g.Observe(v, s); err != nil {
		return err
	}
	d.changed[v] = struct{}{}
	g.gen++
	return nil
}

// RetractEvidence removes the clamp on node v, restoring the prior
// saved by SetEvidence (including any UpdatePrior applied while the
// clamp was active) and returning the node's belief to that prior so
// re-convergence restarts it from the same state a rebuilt unclamped
// graph would. Retracting a node clamped outside the delta layer (at
// build time, or through Observe directly) errors: its pre-clamp prior
// no longer exists.
func (g *Graph) RetractEvidence(v int32) error {
	if v < 0 || int(v) >= g.NumNodes {
		return fmt.Errorf("graph: retract evidence: node %d out of range [0,%d)", v, g.NumNodes)
	}
	if !g.Observed[v] {
		return fmt.Errorf("graph: retract evidence: node %d is not observed", v)
	}
	d := g.delta()
	p, ok := d.savedPriors[v]
	if !ok {
		return fmt.Errorf("graph: retract evidence: node %d was not clamped through SetEvidence", v)
	}
	copy(g.Prior(v), p)
	copy(g.Belief(v), p)
	g.Observed[v] = false
	delete(d.savedPriors, v)
	d.changed[v] = struct{}{}
	g.gen++
	return nil
}

// TakeDeltaSeeds drains the accumulated mutation frontier as a
// delta-BP seed set: every changed node plus each one's out-neighbours
// — the same frontier shape the serving layer's warm-start path feeds
// bp.RunResidualFrom / relaxbp.RunFrom. Pending structural deltas are
// merged first so the frontier reflects the new topology. The returned
// slice is sorted and duplicate-free; nil when nothing changed. After
// the call the frontier is empty — seeds belong to exactly one
// re-convergence.
func (g *Graph) TakeDeltaSeeds() []int32 {
	if g.dyn == nil || len(g.dyn.changed) == 0 {
		g.MergeDelta()
		return nil
	}
	g.MergeDelta()
	d := g.dyn
	seen := make(map[int32]struct{}, 2*len(d.changed))
	for v := range d.changed {
		seen[v] = struct{}{}
		for _, e := range g.OutEdges[g.OutOffsets[v]:g.OutOffsets[v+1]] {
			seen[g.EdgeDst[e]] = struct{}{}
		}
	}
	seeds := make([]int32, 0, len(seen))
	for v := range seen {
		seeds = append(seeds, v)
	}
	sortInt32(seeds)
	d.changed = make(map[int32]struct{})
	return seeds
}

// sortInt32 sorts ascending. Small frontiers (the common delta case)
// take a branch-cheap insertion sort; anything larger goes through
// slices.Sort — TakeDeltaSeeds runs under the serving layer's base
// write lock, and RecommendDelta admits frontiers up to 75% of the
// node count, so a quadratic sort there would stall every query on
// the server for a large mutation batch.
func sortInt32(a []int32) {
	if len(a) > 32 {
		slices.Sort(a)
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
