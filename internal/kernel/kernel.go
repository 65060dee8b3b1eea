// Package kernel is the message-kernel layer shared by every Credo engine.
// It carries the paper's §3.4 data-layout and inner-loop optimizations to
// their conclusion: a kernel is selected once per run from a Config and a
// built graph, and every engine's hot loop drives it through one small API
// instead of re-implementing message math.
//
// A node combine is expressed as
//
//	k := kernel.New(g, cfg)
//	k.Begin(&sc, g.Prior(v), inDeg)     // start the combine
//	k.Accumulate(&sc, e, parentBelief)  // fold one in-edge, fused
//	k.Finish(&sc, g.Belief(v))          // prior-multiply + normalize
//
// (or the NodeUpdate convenience wrapping the three), and an edge-paradigm
// message as k.Message(dst, e, parentBelief).
//
// Three mechanisms produce the speedups measured by BenchmarkKernels:
//
//   - Transposed matrices. The gather direction computes
//     raw[j] = Σ_i parent[i]·M[i,j], a column walk of the row-major joint
//     matrix. The kernel reads the column-major copy JointMatrix.T built at
//     graph construction, making every inner product contiguous.
//
//   - Width specialization. States is 2, 3 or 4 in all of the paper's use
//     cases except image correction; for those widths the kernel dispatches
//     to fully unrolled fused multiply-accumulate routines with no inner
//     loops. Wider graphs (up to graph.MaxStates) take a blocked generic
//     routine. Mode selects between the two for differential testing.
//
//   - Linear-space accumulation. The engines historically combined messages
//     in log space — acc[j] += log(msg[j]) per edge, exp-normalize at the
//     end — spending two float64 transcendentals per belief entry per edge.
//     The kernel instead keeps a running product in linear space, clamping
//     each raw message entry at LogEps (mirroring Logf's clamp) and
//     rescaling the product by its maximum whenever it decays below
//     rescaleFloor. Because every factor is applied to all entries and the
//     final normalization divides it out, skipping the per-message
//     normalization and the rescales are both exact in real arithmetic; in
//     float32 the result tracks the log-space oracle to ~1e-6. Log space
//     remains as a guarded fallback: nodes whose in-degree reaches
//     Config.LogFallbackDegree start there, and a node whose running
//     magnitude keeps collapsing (more than Config.MaxRescales rescales)
//     converts its product to logs mid-combine. Mode LogSpace forces the
//     historical path everywhere and reproduces it bit-for-bit — it is the
//     oracle the policy tests compare against.
//
// Scratch is plain old data (fixed graph.MaxStates arrays, no pointers into
// the kernel) so engines can embed it per worker and hot paths allocate
// nothing.
package kernel

import (
	"math"

	"credo/internal/graph"
)

// Mode selects the kernel implementation for a run.
type Mode uint8

const (
	// Specialized dispatches States=2, 3 and 4 to fully unrolled fused
	// kernels and everything else to the blocked generic routine. It is the
	// default.
	Specialized Mode = iota

	// Generic always uses the blocked generic routine, with the same
	// linear-space numerical policy as Specialized. The differential
	// harness runs every engine under both and compares.
	Generic

	// LogSpace reproduces the pre-kernel scalar path bit-for-bit:
	// PropagateInto-ordered message sums, per-message normalization, and
	// log-space accumulation on every node. It is the numerical oracle and
	// the baseline BenchmarkKernels measures speedups against.
	LogSpace
)

// String names the mode for benchmarks and test output.
func (m Mode) String() string {
	switch m {
	case Specialized:
		return "specialized"
	case Generic:
		return "generic"
	case LogSpace:
		return "logspace"
	default:
		return "unknown"
	}
}

// Defaults for the linear-vs-log numerical policy.
const (
	// DefaultLogFallbackDegree is the in-degree at which a node's combine
	// starts directly in log space. At LogEps clamping, a linear product
	// survives roughly MaxRescales×30 orders of magnitude of decay between
	// conversions, so only extreme hubs ever need to start in log space;
	// the default keeps even the 10k-degree power-law hubs of the social
	// benchmarks on the fast path.
	DefaultLogFallbackDegree = 1 << 16

	// DefaultMaxRescales bounds how many times one node's running product
	// may be rescaled before the combine converts to log space — the
	// running-magnitude half of the underflow guard.
	DefaultMaxRescales = 32
)

// LogEps keeps log() finite and bounds how far a clamped linear factor can
// drag the running product: probabilities are clamped to at least LogEps
// before entering either accumulator. It equals the historical bp clamp so
// the two domains agree.
const LogEps = 1e-30

// rescaleFloor triggers a max-rescale of the linear running product. With
// factors clamped at LogEps, the post-multiply maximum is at least
// rescaleFloor·LogEps = 1e-42, comfortably above the float32 denormal
// floor, so the maximum used as the rescale divisor can never be zero.
const rescaleFloor = 1e-12

// Config selects the kernel for a run. The zero value means Specialized
// with default underflow guards.
type Config struct {
	// Mode selects the implementation; see the Mode constants.
	Mode Mode

	// LogFallbackDegree is the in-degree at which a node starts its
	// combine in log space. Zero means DefaultLogFallbackDegree.
	LogFallbackDegree int

	// MaxRescales is the number of linear-product rescales after which a
	// combine converts to log space. Zero means DefaultMaxRescales.
	MaxRescales int

	// Damping, when positive, blends every NodeUpdate/NodeUpdateMax result
	// with the node's previous belief: b ← (1−d)·b_new + d·b_old (the
	// VariantDamped rule). Zero keeps the vanilla path bit-identical —
	// the only cost is one compare per node update. Engines whose combine
	// stage bypasses NodeUpdate (the edge paradigms, relaxbp, cudabp)
	// apply the same blend themselves via bp.Blend.
	Damping float32

	// Alpha, when positive, enables Circular-BP loop correction
	// (VariantCircular): each message along e=(u→v) is computed from the
	// corrected source belief b_u · m_{v→u}^(−α), requiring per-edge
	// correction state allocated by New (O(NumEdges·States), twice that
	// from NewSweep — the one configuration that is not allocation-free).
	// Zero keeps the vanilla path: one nil check per fold.
	Alpha float32
}

// Counters reports what the numerical policy did during a run. Engines
// fold them into OpCounts (KernelFastPath, RescaleOps); they are
// diagnostic and deliberately not priced by perfmodel, whose OpCounts
// semantics model the abstract algorithm.
type Counters struct {
	// FastPath counts in-edge folds taken through the linear fused path.
	FastPath int64
	// Rescales counts max-rescales of linear running products.
	Rescales int64
	// LogFallbacks counts combines that entered log space by policy
	// (degree guard) or conversion (magnitude guard).
	LogFallbacks int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.FastPath += other.FastPath
	c.Rescales += other.Rescales
	c.LogFallbacks += other.LogFallbacks
}

// Scratch is the per-worker state of an in-progress node combine. It is
// plain old data: embed one per worker (or on the stack) and pass its
// address to Begin/Accumulate/Finish. The zero value is ready to use.
type Scratch struct {
	// Counters accumulates policy statistics across every combine run
	// through this scratch.
	Counters Counters

	prod     [graph.MaxStates]float32 // linear running product
	acc      [graph.MaxStates]float32 // log-space accumulator
	msg      [graph.MaxStates]float32 // materialized message (log + circular paths)
	corr     [graph.MaxStates]float32 // circular-corrected parent belief
	rmsg     [graph.MaxStates]float32 // circular reverse-message snapshot
	prior    []float32                // node prior, set by Begin
	log      bool                     // combine is in log space
	rescales int                      // rescales of the current combine
}

// Kernel is an immutable per-run view of a graph's matrices plus the
// selected implementation. It is a small value: copy it freely, share one
// across workers (all methods are read-only on the kernel itself; mutable
// state lives in Scratch).
type Kernel struct {
	g    *graph.Graph
	s    int
	mode Mode

	// w is the dispatch class: 2, 3, 4 for the unrolled kernels, 0 for the
	// blocked generic routine, -1 for the strict sequential reference
	// (LogSpace mode).
	w int

	logFallbackDegree int
	maxRescales       int

	// damping is the VariantDamped blend weight applied by
	// NodeUpdate/NodeUpdateMax; zero means vanilla (no blend, no cost).
	damping float32

	// st carries the Circular-BP per-edge correction state; nil means
	// vanilla (every fold pays one nil check). It is shared by all copies
	// of the kernel value, so every worker of a run reads and publishes
	// the same messages.
	st *edgeState

	// sharedT/shared cache the shared-matrix case so per-edge dispatch is
	// a nil check, not a branch through the graph.
	sharedT []float32
	shared  *graph.JointMatrix
}

// New selects the kernel for one run over g. It ensures the graph carries
// transposed matrix copies (a no-op for graphs from Builder.Build). Under
// VariantCircular a fold reads the reverse messages live, as the last fold
// of each edge left them: the kernel for engines with no sweep barrier.
func New(g *graph.Graph, cfg Config) Kernel {
	g.EnsureTransposed()
	k := Kernel{
		g:                 g,
		s:                 g.States,
		mode:              cfg.Mode,
		logFallbackDegree: cfg.LogFallbackDegree,
		maxRescales:       cfg.MaxRescales,
		damping:           cfg.Damping,
	}
	if cfg.Alpha > 0 {
		k.st = newEdgeState(g, g.States, cfg.Alpha)
	}
	if k.logFallbackDegree <= 0 {
		k.logFallbackDegree = DefaultLogFallbackDegree
	}
	if k.maxRescales <= 0 {
		k.maxRescales = DefaultMaxRescales
	}
	switch cfg.Mode {
	case Specialized:
		switch g.States {
		case 2, 3, 4:
			k.w = g.States
		default:
			k.w = 0
		}
	case Generic:
		k.w = 0
	case LogSpace:
		k.w = -1
	}
	if g.Shared != nil {
		k.shared = g.Shared
		k.sharedT = g.Shared.T
	}
	return k
}

// NewSweep is New for engines that run synchronous (Jacobi) sweeps. Under
// VariantCircular every fold of a sweep reads the reverse messages as they
// stood at the end of the previous sweep, the snapshot its parent beliefs
// come from, and the engine commits each sweep's messages by calling
// EndSweep at the sweep barrier. For the vanilla and damped variants it is
// New.
func NewSweep(g *graph.Graph, cfg Config) Kernel {
	k := New(g, cfg)
	if k.st != nil {
		k.st.next = append([]uint32(nil), k.st.msg...)
	}
	return k
}

// EndSweep commits the correction messages the finished sweep wrote, so
// that the next sweep reads them. Call it once per sweep, after the
// sweep's last node update and before the next sweep's first. Without
// sweep correction state (vanilla, damped, or a kernel from New) it does
// nothing.
func (k *Kernel) EndSweep() {
	if k.st != nil && k.st.next != nil {
		copy(k.st.msg, k.st.next)
	}
}

// States returns the belief width the kernel was built for.
func (k *Kernel) States() int { return k.s }

// Mode returns the mode the kernel was built with.
func (k *Kernel) Mode() Mode { return k.mode }

// matT returns the transposed matrix data of edge e.
func (k *Kernel) matT(e int32) []float32 {
	if k.sharedT != nil {
		return k.sharedT
	}
	return k.g.EdgeMats[e].T
}

// mat returns the row-major matrix of edge e.
func (k *Kernel) mat(e int32) *graph.JointMatrix {
	if k.shared != nil {
		return k.shared
	}
	return &k.g.EdgeMats[e]
}

// Begin starts a node combine: prior is the node's prior distribution and
// inDegree its in-edge count (the degree half of the underflow guard).
func (k *Kernel) Begin(sc *Scratch, prior []float32, inDegree int) {
	sc.prior = prior
	sc.rescales = 0
	if k.mode == LogSpace || inDegree >= k.logFallbackDegree {
		if k.mode != LogSpace {
			sc.Counters.LogFallbacks++
		}
		sc.log = true
		acc := sc.acc[:k.s]
		for j := range acc {
			acc[j] = 0
		}
		return
	}
	sc.log = false
	prod := sc.prod[:k.s]
	for j := range prod {
		prod[j] = 1
	}
}

// Accumulate folds in-edge e (with the given parent belief) into the
// combine — the fused gather: message and accumulation in one pass, with
// no materialized msg on the linear path.
func (k *Kernel) Accumulate(sc *Scratch, e int32, parent []float32) {
	if k.st != nil {
		k.accumulateCircular(sc, e, parent, false)
		return
	}
	if sc.log {
		s := k.s
		msg := sc.msg[:s]
		k.rawInto(msg, k.matT(e), parent)
		graph.Normalize(msg)
		acc := sc.acc[:s]
		for j := range acc {
			acc[j] += Logf(msg[j])
		}
		return
	}
	sc.Counters.FastPath++
	var m float32
	switch k.w {
	case 2:
		t := k.matT(e)
		p0, p1 := parent[0], parent[1]
		r0 := p0*t[0] + p1*t[1]
		r1 := p0*t[2] + p1*t[3]
		if r0 < LogEps {
			r0 = LogEps
		}
		if r1 < LogEps {
			r1 = LogEps
		}
		r0 *= sc.prod[0]
		r1 *= sc.prod[1]
		sc.prod[0], sc.prod[1] = r0, r1
		m = r0
		if r1 > m {
			m = r1
		}
	case 3:
		t := k.matT(e)
		p0, p1, p2 := parent[0], parent[1], parent[2]
		r0 := p0*t[0] + p1*t[1] + p2*t[2]
		r1 := p0*t[3] + p1*t[4] + p2*t[5]
		r2 := p0*t[6] + p1*t[7] + p2*t[8]
		if r0 < LogEps {
			r0 = LogEps
		}
		if r1 < LogEps {
			r1 = LogEps
		}
		if r2 < LogEps {
			r2 = LogEps
		}
		r0 *= sc.prod[0]
		r1 *= sc.prod[1]
		r2 *= sc.prod[2]
		sc.prod[0], sc.prod[1], sc.prod[2] = r0, r1, r2
		m = r0
		if r1 > m {
			m = r1
		}
		if r2 > m {
			m = r2
		}
	case 4:
		t := k.matT(e)
		p0, p1, p2, p3 := parent[0], parent[1], parent[2], parent[3]
		r0 := p0*t[0] + p1*t[1] + p2*t[2] + p3*t[3]
		r1 := p0*t[4] + p1*t[5] + p2*t[6] + p3*t[7]
		r2 := p0*t[8] + p1*t[9] + p2*t[10] + p3*t[11]
		r3 := p0*t[12] + p1*t[13] + p2*t[14] + p3*t[15]
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
		r0 *= sc.prod[0]
		r1 *= sc.prod[1]
		r2 *= sc.prod[2]
		r3 *= sc.prod[3]
		sc.prod[0], sc.prod[1], sc.prod[2], sc.prod[3] = r0, r1, r2, r3
		m = r0
		if r1 > m {
			m = r1
		}
		if r2 > m {
			m = r2
		}
		if r3 > m {
			m = r3
		}
	default:
		m = k.accumulateBlocked(sc, k.matT(e), parent)
	}
	// !(m >= floor) also routes NaN through the rescale path, where it
	// poisons the product and Finish degrades to uniform, matching
	// ExpNormalize's behavior on non-finite input.
	if !(m >= rescaleFloor) {
		k.rescale(sc, m)
	}
}

// accumulateBlocked is the generic-width linear fold: a blocked (4-wide)
// contiguous dot product per output entry over the transposed matrix,
// fused with the clamp, multiply and max scan.
func (k *Kernel) accumulateBlocked(sc *Scratch, t, parent []float32) float32 {
	s := k.s
	m := float32(math.Inf(-1))
	for j := 0; j < s; j++ {
		col := t[j*s : j*s+s]
		var r float32
		i := 0
		for ; i+4 <= s; i += 4 {
			r += parent[i]*col[i] + parent[i+1]*col[i+1] + parent[i+2]*col[i+2] + parent[i+3]*col[i+3]
		}
		for ; i < s; i++ {
			r += parent[i] * col[i]
		}
		if r < LogEps {
			r = LogEps
		}
		r *= sc.prod[j]
		sc.prod[j] = r
		if r > m {
			m = r
		}
	}
	return m
}

// rescale divides the running product by its maximum and converts the
// combine to log space once the magnitude guard trips.
func (k *Kernel) rescale(sc *Scratch, m float32) {
	s := k.s
	prod := sc.prod[:s]
	for j := range prod {
		prod[j] /= m
	}
	sc.Counters.Rescales++
	sc.rescales++
	if sc.rescales > k.maxRescales {
		// The node's products keep collapsing — the running-magnitude
		// guard sends the rest of this combine to log space. The scale
		// already divided out is a uniform shift in log space, which
		// ExpNormalize's max-subtraction cancels.
		sc.log = true
		sc.Counters.LogFallbacks++
		acc := sc.acc[:s]
		for j := range acc {
			acc[j] = Logf(prod[j])
		}
	}
}

// AccumulateMax folds in-edge e with max-product semantics:
// raw[j] = max_i parent[i]·M[i,j] instead of the sum.
func (k *Kernel) AccumulateMax(sc *Scratch, e int32, parent []float32) {
	if k.st != nil {
		k.accumulateCircular(sc, e, parent, true)
		return
	}
	s := k.s
	if sc.log {
		msg := sc.msg[:s]
		k.rawMaxInto(msg, k.matT(e), parent)
		graph.Normalize(msg)
		acc := sc.acc[:s]
		for j := range acc {
			acc[j] += Logf(msg[j])
		}
		return
	}
	sc.Counters.FastPath++
	t := k.matT(e)
	m := float32(math.Inf(-1))
	for j := 0; j < s; j++ {
		col := t[j*s : j*s+s]
		var best float32
		for i, w := range col {
			if v := parent[i] * w; v > best {
				best = v
			}
		}
		if best < LogEps {
			best = LogEps
		}
		best *= sc.prod[j]
		sc.prod[j] = best
		if best > m {
			m = best
		}
	}
	if !(m >= rescaleFloor) {
		k.rescale(sc, m)
	}
}

// AccumulateReverse folds out-edge e backward through its matrix (the ψ
// direction of the traditional algorithm): raw[j] = Σ_k M[j,k]·child[k],
// which walks rows of the row-major matrix — already contiguous, so this
// direction reads Data, not T.
func (k *Kernel) AccumulateReverse(sc *Scratch, e int32, child []float32) {
	s := k.s
	if sc.log {
		msg := sc.msg[:s]
		k.rawReverseInto(msg, k.mat(e).Data, child)
		graph.Normalize(msg)
		acc := sc.acc[:s]
		for j := range acc {
			acc[j] += Logf(msg[j])
		}
		return
	}
	sc.Counters.FastPath++
	d := k.mat(e).Data
	m := float32(math.Inf(-1))
	for j := 0; j < s; j++ {
		row := d[j*s : j*s+s]
		var r float32
		i := 0
		for ; i+4 <= s; i += 4 {
			r += row[i]*child[i] + row[i+1]*child[i+1] + row[i+2]*child[i+2] + row[i+3]*child[i+3]
		}
		for ; i < s; i++ {
			r += row[i] * child[i]
		}
		if r < LogEps {
			r = LogEps
		}
		r *= sc.prod[j]
		sc.prod[j] = r
		if r > m {
			m = r
		}
	}
	if !(m >= rescaleFloor) {
		k.rescale(sc, m)
	}
}

// Finish completes the combine into dst: prior-multiply and normalize. A
// zero or non-finite result degrades to uniform, exactly like ExpNormalize.
func (k *Kernel) Finish(sc *Scratch, dst []float32) {
	s := k.s
	if sc.log {
		ExpNormalize(dst, sc.prior, sc.acc[:s])
		return
	}
	prior := sc.prior
	var sum float32
	for j := 0; j < s; j++ {
		v := prior[j] * sc.prod[j]
		dst[j] = v
		sum += v
	}
	if !(sum > 0) || math.IsInf(float64(sum), 0) {
		u := 1 / float32(s)
		for j := 0; j < s; j++ {
			dst[j] = u
		}
		return
	}
	inv := 1 / sum
	for j := 0; j < s; j++ {
		dst[j] *= inv
	}
}

// NodeUpdate runs the whole combine for node v, reading parent beliefs
// from the flat array `from` (stride States — pass the engine's prev
// buffer for Jacobi sweeps or g.Beliefs for asynchronous schedules) and
// writing the new belief into dst. It returns the in-degree processed.
func (k *Kernel) NodeUpdate(sc *Scratch, dst []float32, v int32, from []float32) int {
	g := k.g
	s := k.s
	lo, hi := g.InOffsets[v], g.InOffsets[v+1]
	k.Begin(sc, g.Priors[int(v)*s:int(v)*s+s], int(hi-lo))
	for _, e := range g.InEdges[lo:hi] {
		src := int(g.EdgeSrc[e])
		k.Accumulate(sc, e, from[src*s:src*s+s])
	}
	k.Finish(sc, dst)
	if k.damping > 0 {
		k.damp(dst, from[int(v)*s:int(v)*s+s])
	}
	return int(hi - lo)
}

// NodeUpdateMax is NodeUpdate with max-product semantics.
func (k *Kernel) NodeUpdateMax(sc *Scratch, dst []float32, v int32, from []float32) int {
	g := k.g
	s := k.s
	lo, hi := g.InOffsets[v], g.InOffsets[v+1]
	k.Begin(sc, g.Priors[int(v)*s:int(v)*s+s], int(hi-lo))
	for _, e := range g.InEdges[lo:hi] {
		src := int(g.EdgeSrc[e])
		k.AccumulateMax(sc, e, from[src*s:src*s+s])
	}
	k.Finish(sc, dst)
	if k.damping > 0 {
		k.damp(dst, from[int(v)*s:int(v)*s+s])
	}
	return int(hi - lo)
}

// Message writes the normalized message along edge e given the parent
// belief — the materialized form the edge paradigm folds into destination
// accumulators. In LogSpace mode it is bit-for-bit the historical
// computeMessage. Under VariantCircular the message is computed from the
// α-corrected parent and published to the correction state (sc provides
// the correction buffers; it is untouched on the vanilla path).
func (k *Kernel) Message(sc *Scratch, msg []float32, e int32, parent []float32) {
	if k.st != nil {
		k.messageCircular(sc, msg, e, parent)
		return
	}
	k.rawInto(msg, k.matT(e), parent)
	graph.Normalize(msg)
}

// rawInto computes the unnormalized gather raw[j] = Σ_i parent[i]·t[j*s+i]
// under the kernel's dispatch class. The strict class (-1) reproduces the
// historical PropagateInto summation order bit-for-bit (per output entry,
// ascending source state, no blocking).
func (k *Kernel) rawInto(dst, t, parent []float32) {
	s := k.s
	switch k.w {
	case 2:
		p0, p1 := parent[0], parent[1]
		dst[0] = p0*t[0] + p1*t[1]
		dst[1] = p0*t[2] + p1*t[3]
	case 3:
		p0, p1, p2 := parent[0], parent[1], parent[2]
		dst[0] = p0*t[0] + p1*t[1] + p2*t[2]
		dst[1] = p0*t[3] + p1*t[4] + p2*t[5]
		dst[2] = p0*t[6] + p1*t[7] + p2*t[8]
	case 4:
		p0, p1, p2, p3 := parent[0], parent[1], parent[2], parent[3]
		dst[0] = p0*t[0] + p1*t[1] + p2*t[2] + p3*t[3]
		dst[1] = p0*t[4] + p1*t[5] + p2*t[6] + p3*t[7]
		dst[2] = p0*t[8] + p1*t[9] + p2*t[10] + p3*t[11]
		dst[3] = p0*t[12] + p1*t[13] + p2*t[14] + p3*t[15]
	case 0:
		for j := 0; j < s; j++ {
			col := t[j*s : j*s+s]
			var r float32
			i := 0
			for ; i+4 <= s; i += 4 {
				r += parent[i]*col[i] + parent[i+1]*col[i+1] + parent[i+2]*col[i+2] + parent[i+3]*col[i+3]
			}
			for ; i < s; i++ {
				r += parent[i] * col[i]
			}
			dst[j] = r
		}
	default: // strict sequential reference
		for j := 0; j < s; j++ {
			col := t[j*s : j*s+s]
			var r float32
			for i := 0; i < s; i++ {
				r += parent[i] * col[i]
			}
			dst[j] = r
		}
	}
}

// rawMaxInto computes raw[j] = max_i parent[i]·t[j*s+i].
func (k *Kernel) rawMaxInto(dst, t, parent []float32) {
	s := k.s
	for j := 0; j < s; j++ {
		col := t[j*s : j*s+s]
		var best float32
		for i, w := range col {
			if v := parent[i] * w; v > best {
				best = v
			}
		}
		dst[j] = best
	}
}

// rawReverseInto computes raw[j] = Σ_k d[j*s+k]·child[k] over the
// row-major matrix data (the backward ψ direction, already contiguous).
func (k *Kernel) rawReverseInto(dst, d, child []float32) {
	s := k.s
	if k.w < 0 {
		for j := 0; j < s; j++ {
			row := d[j*s : j*s+s]
			var r float32
			for i := 0; i < s; i++ {
				r += row[i] * child[i]
			}
			dst[j] = r
		}
		return
	}
	for j := 0; j < s; j++ {
		row := d[j*s : j*s+s]
		var r float32
		i := 0
		for ; i+4 <= s; i += 4 {
			r += row[i]*child[i] + row[i+1]*child[i+1] + row[i+2]*child[i+2] + row[i+3]*child[i+3]
		}
		for ; i < s; i++ {
			r += row[i] * child[i]
		}
		dst[j] = r
	}
}

// Logf is a float32 natural logarithm clamped at LogEps, shared by every
// engine so that log-domain accumulators agree bit-for-bit across
// implementations.
func Logf(x float32) float32 {
	if x < LogEps {
		x = LogEps
	}
	return float32(math.Log(float64(x)))
}

// ExpNormalize writes normalize(prior · exp(acc)) into dst using the
// max-subtraction trick; dst, prior and acc must share one length.
// Entirely zero rows degrade to uniform. It is the log-space combine stage
// shared by every engine.
func ExpNormalize(dst, prior, acc []float32) {
	maxv := float32(math.Inf(-1))
	for _, a := range acc {
		if a > maxv {
			maxv = a
		}
	}
	var sum float32
	for j := range dst {
		v := prior[j] * float32(math.Exp(float64(acc[j]-maxv)))
		dst[j] = v
		sum += v
	}
	if sum <= 0 || math.IsNaN(float64(sum)) || math.IsInf(float64(sum), 0) {
		u := float32(1) / float32(len(dst))
		for j := range dst {
			dst[j] = u
		}
		return
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}
