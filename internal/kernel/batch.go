package kernel

import (
	"math"

	"credo/internal/graph"
)

// This file is the K-way batched form of the kernel: one combine carries K
// belief vectors per node in struct-of-arrays layout — entry (state j,
// lane k) of a node block lives at j*K+k, so the K lanes of one state are
// contiguous. A single pass over the adjacency and the shared transposed
// joint matrices then services K concurrent queries with different
// evidence but identical structure: every matrix coefficient is loaded
// once and fused into K multiply-accumulates over unit-stride lane
// vectors, which is where the batched throughput comes from (the node
// paradigm is memory-bound; K-way batching multiplies arithmetic
// intensity without touching the traffic).
//
// The numerical policy is applied per lane so that every lane is
// bit-for-bit the combine the solo kernel would have produced for that
// lane's evidence: per-lane LogEps clamps, per-lane max-rescales with
// per-lane rescale budgets, and a per-lane conversion to log space when a
// lane's running magnitude keeps collapsing. Lanes never read each
// other's state — the differential and fuzz tests pin every lane of a
// batch against its standalone K=1 run.

// BatchScratch is the per-worker state of an in-progress K-way node
// combine. Buffers grow to States*K on first use and are reused; steady
// state allocates nothing. The zero value is ready to use.
type BatchScratch struct {
	// Counters accumulates policy statistics across combines run through
	// this scratch. FastPath counts edge folds (each servicing K lanes),
	// matching the solo kernel's per-fold accounting.
	Counters Counters

	prod []float32 // linear running products, [state*K + lane]
	acc  []float32 // log-space accumulators, same layout
	racc []float32 // per-lane dot-product accumulators (generic width)
	m    []float32 // per-lane running maxima (generic width)
	logl []bool    // per-lane log-space flags
	resc []int32   // per-lane rescale counts
	wr   []bool    // per-lane write mask of the current node update

	lane [graph.MaxStates]float32 // contiguous gather of one lane's parent
	lmsg [graph.MaxStates]float32 // materialized per-lane message (log + circular)
	lacc [graph.MaxStates]float32 // contiguous gather of one lane's accumulator
	lpri [graph.MaxStates]float32 // contiguous gather of one lane's prior
	ldst [graph.MaxStates]float32 // contiguous combine result before scatter
	corr [graph.MaxStates]float32 // circular-corrected parent belief
	rmsg [graph.MaxStates]float32 // circular reverse-message snapshot

	prior  []float32 // node's per-lane prior block, set by beginBatch
	anyLog bool      // at least one lane is in log space
}

// ensure sizes the per-lane buffers for a States×K combine.
func (sc *BatchScratch) ensure(s, k int) {
	n := s * k
	if cap(sc.prod) < n {
		sc.prod = make([]float32, n)
		sc.acc = make([]float32, n)
	}
	sc.prod = sc.prod[:n]
	sc.acc = sc.acc[:n]
	if cap(sc.racc) < k {
		sc.racc = make([]float32, k)
		sc.m = make([]float32, k)
		sc.logl = make([]bool, k)
		sc.resc = make([]int32, k)
		sc.wr = make([]bool, k)
	}
	sc.racc = sc.racc[:k]
	sc.m = sc.m[:k]
	sc.logl = sc.logl[:k]
	sc.resc = sc.resc[:k]
	sc.wr = sc.wr[:k]
}

// BatchKernel is the K-lane view of a graph's matrices: the solo kernel's
// dispatch plus the lane count. Like Kernel it is immutable and shareable
// across workers; mutable state lives in BatchScratch (and, for the
// circular variant, in the per-edge-per-lane correction state, which
// follows the solo kernel's sweep discipline: every batched engine runs
// synchronous sweeps and calls EndSweep at each barrier).
type BatchKernel struct {
	Kernel
	lanes int
	bst   *batchEdgeState
}

// NewBatch selects the K-lane kernel for one run over g. cfg.Alpha > 0
// allocates per-edge-per-lane Circular-BP correction state
// (O(NumEdges·States·K), double-buffered per sweep like NewSweep's — the
// one batched configuration that is not allocation-free after warmup).
func NewBatch(g *graph.Graph, cfg Config, k int) BatchKernel {
	alpha := cfg.Alpha
	cfg.Alpha = 0 // the solo edge state is never used by the batched paths
	b := BatchKernel{Kernel: New(g, cfg), lanes: k}
	if alpha > 0 {
		b.bst = newBatchEdgeState(g, g.States, k, alpha)
	}
	return b
}

// Lanes returns the lane count the kernel was built for.
func (b *BatchKernel) Lanes() int { return b.lanes }

// EndSweep commits the correction messages the finished sweep wrote, in
// every lane (see Kernel.EndSweep). For the vanilla and damped variants it
// does nothing.
func (b *BatchKernel) EndSweep() {
	if b.bst != nil {
		copy(b.bst.msg, b.bst.next)
	}
}

// beginBatch starts a K-way combine: prior is the node's per-lane prior
// block (States*K, SoA) and inDegree its in-edge count. The degree half
// of the underflow guard applies to every lane alike — it depends only on
// structure. NodeUpdateBatch sets the scratch's write mask first; the
// circular fold and finishBatch honour it.
func (b *BatchKernel) beginBatch(sc *BatchScratch, prior []float32, inDegree int) {
	s, k := b.s, b.lanes
	sc.ensure(s, k)
	sc.prior = prior
	for l := 0; l < k; l++ {
		sc.resc[l] = 0
	}
	if b.mode == LogSpace || inDegree >= b.logFallbackDegree {
		if b.mode != LogSpace {
			sc.Counters.LogFallbacks += int64(k)
		}
		sc.anyLog = true
		for l := 0; l < k; l++ {
			sc.logl[l] = true
		}
		acc := sc.acc
		for i := range acc {
			acc[i] = 0
		}
		return
	}
	sc.anyLog = false
	for l := 0; l < k; l++ {
		sc.logl[l] = false
	}
	prod := sc.prod
	for i := range prod {
		prod[i] = 1
	}
}

// accumulateBatch folds in-edge e into all K lanes: parent is the source
// node's per-lane belief block (States*K, SoA). The fast path loads each
// transposed-matrix coefficient once and fuses it into K lane MACs; the
// per-lane clamp, multiply and rescale check reproduce the solo kernel's
// fold for each lane exactly.
func (b *BatchKernel) accumulateBatch(sc *BatchScratch, e int32, parent []float32) {
	if b.bst != nil {
		b.accumulateCircularBatch(sc, e, parent)
		return
	}
	if sc.anyLog {
		// At least one lane is in log space: fold lane by lane, each
		// through the same code shape the solo kernel would use.
		for l := 0; l < b.lanes; l++ {
			b.accumulateLane(sc, e, parent, l)
		}
		sc.Counters.FastPath++
		return
	}
	sc.Counters.FastPath++
	k := b.lanes
	switch b.w {
	case 2:
		t := b.matT(e)
		t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
		p0, p1 := parent[:k], parent[k:2*k]
		q0, q1 := sc.prod[:k], sc.prod[k:2*k]
		for l := 0; l < k; l++ {
			r0 := p0[l]*t0 + p1[l]*t1
			r1 := p0[l]*t2 + p1[l]*t3
			if r0 < LogEps {
				r0 = LogEps
			}
			if r1 < LogEps {
				r1 = LogEps
			}
			r0 *= q0[l]
			r1 *= q1[l]
			q0[l], q1[l] = r0, r1
			m := r0
			if r1 > m {
				m = r1
			}
			if !(m >= rescaleFloor) {
				b.rescaleLane(sc, l, m)
			}
		}
	case 3:
		t := b.matT(e)
		p0, p1, p2 := parent[:k], parent[k:2*k], parent[2*k:3*k]
		q0, q1, q2 := sc.prod[:k], sc.prod[k:2*k], sc.prod[2*k:3*k]
		for l := 0; l < k; l++ {
			r0 := p0[l]*t[0] + p1[l]*t[1] + p2[l]*t[2]
			r1 := p0[l]*t[3] + p1[l]*t[4] + p2[l]*t[5]
			r2 := p0[l]*t[6] + p1[l]*t[7] + p2[l]*t[8]
			if r0 < LogEps {
				r0 = LogEps
			}
			if r1 < LogEps {
				r1 = LogEps
			}
			if r2 < LogEps {
				r2 = LogEps
			}
			r0 *= q0[l]
			r1 *= q1[l]
			r2 *= q2[l]
			q0[l], q1[l], q2[l] = r0, r1, r2
			m := r0
			if r1 > m {
				m = r1
			}
			if r2 > m {
				m = r2
			}
			if !(m >= rescaleFloor) {
				b.rescaleLane(sc, l, m)
			}
		}
	case 4:
		t := b.matT(e)
		p0, p1, p2, p3 := parent[:k], parent[k:2*k], parent[2*k:3*k], parent[3*k:4*k]
		q0, q1, q2, q3 := sc.prod[:k], sc.prod[k:2*k], sc.prod[2*k:3*k], sc.prod[3*k:4*k]
		for l := 0; l < k; l++ {
			r0 := p0[l]*t[0] + p1[l]*t[1] + p2[l]*t[2] + p3[l]*t[3]
			r1 := p0[l]*t[4] + p1[l]*t[5] + p2[l]*t[6] + p3[l]*t[7]
			r2 := p0[l]*t[8] + p1[l]*t[9] + p2[l]*t[10] + p3[l]*t[11]
			r3 := p0[l]*t[12] + p1[l]*t[13] + p2[l]*t[14] + p3[l]*t[15]
			if r0 < LogEps {
				r0 = LogEps
			}
			if r1 < LogEps {
				r1 = LogEps
			}
			if r2 < LogEps {
				r2 = LogEps
			}
			if r3 < LogEps {
				r3 = LogEps
			}
			r0 *= q0[l]
			r1 *= q1[l]
			r2 *= q2[l]
			r3 *= q3[l]
			q0[l], q1[l], q2[l], q3[l] = r0, r1, r2, r3
			m := r0
			if r1 > m {
				m = r1
			}
			if r2 > m {
				m = r2
			}
			if r3 > m {
				m = r3
			}
			if !(m >= rescaleFloor) {
				b.rescaleLane(sc, l, m)
			}
		}
	default:
		b.accumulateBlockedBatch(sc, b.matT(e), parent)
	}
}

// accumulateBlockedBatch is the generic-width K-lane fold: for each
// output state, the blocked (4-wide) dot product of the solo kernel is
// evaluated for all K lanes with each matrix coefficient loaded once.
// Per-lane partial sums accumulate in the same block order as the solo
// routine, so each lane's result is bitwise the solo result.
func (b *BatchKernel) accumulateBlockedBatch(sc *BatchScratch, t, parent []float32) {
	s, k := b.s, b.lanes
	mm := sc.m[:k]
	neg := float32(math.Inf(-1))
	for l := 0; l < k; l++ {
		mm[l] = neg
	}
	racc := sc.racc[:k]
	for j := 0; j < s; j++ {
		col := t[j*s : j*s+s]
		for l := range racc {
			racc[l] = 0
		}
		i := 0
		for ; i+4 <= s; i += 4 {
			c0, c1, c2, c3 := col[i], col[i+1], col[i+2], col[i+3]
			p0 := parent[i*k : i*k+k]
			p1 := parent[(i+1)*k : (i+1)*k+k]
			p2 := parent[(i+2)*k : (i+2)*k+k]
			p3 := parent[(i+3)*k : (i+3)*k+k]
			for l := 0; l < k; l++ {
				racc[l] += p0[l]*c0 + p1[l]*c1 + p2[l]*c2 + p3[l]*c3
			}
		}
		for ; i < s; i++ {
			c := col[i]
			p := parent[i*k : i*k+k]
			for l := 0; l < k; l++ {
				racc[l] += p[l] * c
			}
		}
		q := sc.prod[j*k : j*k+k]
		for l := 0; l < k; l++ {
			r := racc[l]
			if r < LogEps {
				r = LogEps
			}
			r *= q[l]
			q[l] = r
			if r > mm[l] {
				mm[l] = r
			}
		}
	}
	for l := 0; l < k; l++ {
		if !(mm[l] >= rescaleFloor) {
			b.rescaleLane(sc, l, mm[l])
		}
	}
}

// accumulateLane folds edge e into lane l alone — the mixed-mode path
// once any lane has converted to log space. The lane's strided parent is
// gathered contiguous and sent through the solo kernel's own raw gather,
// so the lane keeps tracking its standalone run bit-for-bit.
func (b *BatchKernel) accumulateLane(sc *BatchScratch, e int32, parent []float32, l int) {
	s, k := b.s, b.lanes
	lp := sc.lane[:s]
	for j := 0; j < s; j++ {
		lp[j] = parent[j*k+l]
	}
	if sc.logl[l] {
		msg := sc.lmsg[:s]
		b.rawInto(msg, b.matT(e), lp)
		graph.Normalize(msg)
		for j := 0; j < s; j++ {
			sc.acc[j*k+l] += Logf(msg[j])
		}
		return
	}
	raw := sc.lmsg[:s]
	b.rawInto(raw, b.matT(e), lp)
	m := float32(math.Inf(-1))
	for j := 0; j < s; j++ {
		r := raw[j]
		if r < LogEps {
			r = LogEps
		}
		r *= sc.prod[j*k+l]
		sc.prod[j*k+l] = r
		if r > m {
			m = r
		}
	}
	if !(m >= rescaleFloor) {
		b.rescaleLane(sc, l, m)
	}
}

// rescaleLane divides lane l's running product by its maximum and
// converts the lane to log space once its rescale budget is exhausted —
// the solo kernel's magnitude guard, confined to one lane.
func (b *BatchKernel) rescaleLane(sc *BatchScratch, l int, m float32) {
	s, k := b.s, b.lanes
	for j := 0; j < s; j++ {
		sc.prod[j*k+l] /= m
	}
	sc.Counters.Rescales++
	sc.resc[l]++
	if int(sc.resc[l]) > b.maxRescales {
		sc.logl[l] = true
		sc.anyLog = true
		sc.Counters.LogFallbacks++
		for j := 0; j < s; j++ {
			sc.acc[j*k+l] = Logf(sc.prod[j*k+l])
		}
	}
}

// finishBatch completes the combine into the node's per-lane destination
// block (States*K, SoA), writing only lanes whose write mask is set —
// finished or clamped lanes keep their beliefs without breaking the SoA
// stride. Each written lane is the solo Finish of that lane's state:
// prior-multiply, normalize, degrade to uniform on a zero or non-finite
// sum.
func (b *BatchKernel) finishBatch(sc *BatchScratch, dst []float32) {
	s, k := b.s, b.lanes
	for l := 0; l < k; l++ {
		if !sc.wr[l] {
			continue
		}
		if sc.logl[l] {
			la, lp, ld := sc.lacc[:s], sc.lpri[:s], sc.ldst[:s]
			for j := 0; j < s; j++ {
				la[j] = sc.acc[j*k+l]
				lp[j] = sc.prior[j*k+l]
			}
			ExpNormalize(ld, lp, la)
			for j := 0; j < s; j++ {
				dst[j*k+l] = ld[j]
			}
			continue
		}
		var sum float32
		for j := 0; j < s; j++ {
			v := sc.prior[j*k+l] * sc.prod[j*k+l]
			dst[j*k+l] = v
			sum += v
		}
		if !(sum > 0) || math.IsInf(float64(sum), 0) {
			u := 1 / float32(s)
			for j := 0; j < s; j++ {
				dst[j*k+l] = u
			}
			continue
		}
		inv := 1 / sum
		for j := 0; j < s; j++ {
			dst[j*k+l] *= inv
		}
	}
}

// NodeUpdateBatch runs the whole K-way combine for node v. from and
// priors are the full SoA arrays ((v*States+j)*K+k layout — pass the
// engine's previous-iteration buffer and the batch's per-lane priors),
// observed the per-node-per-lane clamp flags (v*K+k) and active the
// per-lane liveness mask (false = the lane converged and is frozen). It
// returns the in-degree processed and the number of lanes written; a
// zero lane count means every lane was clamped or frozen and the node
// was skipped entirely. Damping, when configured, blends each written
// lane with its previous belief, exactly as the solo kernel does.
func (b *BatchKernel) NodeUpdateBatch(sc *BatchScratch, dst []float32, v int32, from, priors []float32, observed, active []bool) (int, int) {
	g := b.g
	s, k := b.s, b.lanes
	sc.ensure(s, k)
	wr := sc.wr[:k]
	wrote := 0
	for l := 0; l < k; l++ {
		w := active[l] && !observed[int(v)*k+l]
		wr[l] = w
		if w {
			wrote++
		}
	}
	if wrote == 0 {
		return 0, 0
	}
	lo, hi := g.InOffsets[v], g.InOffsets[v+1]
	base := int(v) * s * k
	b.beginBatch(sc, priors[base:base+s*k], int(hi-lo))
	for _, e := range g.InEdges[lo:hi] {
		src := int(g.EdgeSrc[e])
		b.accumulateBatch(sc, e, from[src*s*k:src*s*k+s*k])
	}
	nb := dst[base : base+s*k]
	b.finishBatch(sc, nb)
	if b.damping > 0 {
		old := from[base : base+s*k]
		d := b.damping
		w := 1 - d
		for l := 0; l < k; l++ {
			if !wr[l] {
				continue
			}
			for j := 0; j < s; j++ {
				nb[j*k+l] = w*nb[j*k+l] + d*old[j*k+l]
			}
		}
	}
	return int(hi - lo), wrote
}

// batchEdgeState is the Circular-BP correction state of a batched run:
// the last message sent along every directed edge, per lane, at index
// (e*States+j)*K+k. It always follows the sweep discipline of the solo
// kernel's NewSweep: folds read msg and write next, and EndSweep commits
// next over msg at the sweep barrier. Within a sweep no worker reads an
// entry another worker writes, so the entries are plain floats. Lanes are
// fully independent — one lane's correction never reads another lane's
// message.
type batchEdgeState struct {
	alpha float32
	lanes int
	rev   []int32
	msg   []float32 // committed messages, read by every fold
	next  []float32 // this sweep's messages, committed by EndSweep
}

func newBatchEdgeState(g *graph.Graph, states, lanes int, alpha float32) *batchEdgeState {
	st := &batchEdgeState{
		alpha: alpha,
		lanes: lanes,
		rev:   buildReverseIndex(g),
		msg:   make([]float32, g.NumEdges*states*lanes),
	}
	u := 1 / float32(states)
	for i := range st.msg {
		st.msg[i] = u
	}
	st.next = append([]float32(nil), st.msg...)
	return st
}

// loadLane reads edge e's committed lane-l message into dst.
func (st *batchEdgeState) loadLane(dst []float32, e int32, s, l int) {
	base := int(e) * s * st.lanes
	for j := 0; j < s; j++ {
		dst[j] = st.msg[base+j*st.lanes+l]
	}
}

// storeLane writes edge e's new lane-l message for the next sweep.
func (st *batchEdgeState) storeLane(src []float32, e int32, s, l int) {
	base := int(e) * s * st.lanes
	for j := 0; j < s; j++ {
		st.next[base+j*st.lanes+l] = src[j]
	}
}

// accumulateCircularBatch is the Circular-BP fold of in-edge e for the
// lanes the node update writes: per lane, materialize the α-corrected
// normalized message from that lane's parent and that lane's reverse
// message, publish it to the lane's correction state, and fold it into the
// lane's accumulator. The per-lane math mirrors the solo
// accumulateCircular exactly; only the correction state is lane-indexed,
// which is what keeps lanes from cross-contaminating through the loop
// correction. A lane outside the write mask (frozen, or clamped at this
// node) neither folds nor publishes, so its messages carry forward just as
// they do in a solo run that skips the node.
func (b *BatchKernel) accumulateCircularBatch(sc *BatchScratch, e int32, parent []float32) {
	s, k := b.s, b.lanes
	sc.Counters.FastPath++
	for l := 0; l < k; l++ {
		if !sc.wr[l] {
			continue
		}
		lp := sc.lane[:s]
		for j := 0; j < s; j++ {
			lp[j] = parent[j*k+l]
		}
		cp := lp
		if r := b.bst.rev[e]; r >= 0 {
			rm := sc.rmsg[:s]
			b.bst.loadLane(rm, r, s, l)
			cc := sc.corr[:s]
			alpha := float64(b.bst.alpha)
			maxl := math.Inf(-1)
			for i := 0; i < s; i++ {
				lg := float64(Logf(lp[i])) - alpha*float64(Logf(rm[i]))
				cc[i] = float32(lg)
				if lg > maxl {
					maxl = lg
				}
			}
			for i := 0; i < s; i++ {
				cc[i] = float32(math.Exp(float64(cc[i]) - maxl))
			}
			cp = cc
		}
		msg := sc.lmsg[:s]
		b.rawInto(msg, b.matT(e), cp)
		graph.Normalize(msg)
		b.bst.storeLane(msg, e, s, l)
		if sc.logl[l] {
			for j := 0; j < s; j++ {
				sc.acc[j*k+l] += Logf(msg[j])
			}
			continue
		}
		m := float32(math.Inf(-1))
		for j := 0; j < s; j++ {
			v := msg[j]
			if v < LogEps {
				v = LogEps
			}
			v *= sc.prod[j*k+l]
			sc.prod[j*k+l] = v
			if v > m {
				m = v
			}
		}
		if !(m >= rescaleFloor) {
			b.rescaleLane(sc, l, m)
		}
	}
}
