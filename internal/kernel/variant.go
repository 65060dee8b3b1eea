package kernel

import (
	"fmt"
	"math"
	"sync/atomic"

	"credo/internal/graph"
)

// Variant names the message-update rule a run uses. The kernel implements
// all three; engines and the selector deal in this enum.
//
// The repo's message convention (bp package, Equation 2) computes a message
// from the FULL source belief — no division by the reverse message. On
// graphs with strong cyclic feedback that echo amplifies around loops and
// vanilla runs oscillate or diverge. The two robust variants counter it
// from opposite sides: damping slows every belief move, Circular BP
// (Bouttier/Jardri/Denève) removes an α-scaled share of the echo itself.
type Variant uint8

const (
	// VariantVanilla is the unmodified update rule — the bit-identical,
	// zero-allocation fast path every benchmark measures.
	VariantVanilla Variant = iota

	// VariantDamped blends each recomputed belief with the previous one:
	// b ← (1−d)·b_new + d·b_old. The classic stabilizer for synchronous
	// oscillation (bipartite flip-flopping under strong attractive
	// coupling).
	VariantDamped

	// VariantCircular applies Circular-BP loop correction: the message
	// along e=(u→v) is computed from the corrected source belief
	// b_u · m_{v→u}^(−α), cancelling an α share of the echo the reverse
	// edge fed into b_u. Requires per-edge correction state (the last
	// message sent on every edge) carried by the kernel.
	VariantCircular
)

// Variants lists every variant in a stable order for tables and sweeps.
func Variants() []Variant {
	return []Variant{VariantVanilla, VariantDamped, VariantCircular}
}

// String names the variant for flags, tables and test output.
func (v Variant) String() string {
	switch v {
	case VariantVanilla:
		return "vanilla"
	case VariantDamped:
		return "damped"
	case VariantCircular:
		return "circular"
	default:
		return "unknown"
	}
}

// ParseVariant parses a -variant flag value.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "vanilla", "":
		return VariantVanilla, nil
	case "damped":
		return VariantDamped, nil
	case "circular":
		return VariantCircular, nil
	default:
		return VariantVanilla, fmt.Errorf("kernel: unknown variant %q (want vanilla, damped or circular)", s)
	}
}

// Default strengths for the robust variants, calibrated on the enginetest
// hard-graph corpus: every named hard config that diverges under vanilla
// converges under both variants at these values (locked by tests there).
const (
	// DefaultDamping is the blend weight VariantDamped uses when Options
	// leave Damping unset.
	DefaultDamping = 0.5

	// DefaultAlpha is the loop-correction strength VariantCircular uses
	// when Config.Alpha is unset. α=1 cancels the full echo; on the sweep
	// engines (NewSweep), which divide out the very reverse message the
	// parent belief was built from, it is the standard BP message rule.
	// Fractional α interpolates toward vanilla.
	DefaultAlpha = 1.0
)

// edgeState is the per-run Circular-BP correction state: the last message
// sent along every directed edge plus the reverse-edge index. Every fold
// reads the reverse message from msg; where it publishes its own message
// depends on the engine's schedule:
//
//   - Live (New): the fold stores into msg, so the next fold to read the
//     edge sees it at once. The asynchronous engines (residual, relaxbp)
//     and the edge paradigm have no sweep to align with. Entries are
//     float32 bit patterns accessed atomically so concurrent engines
//     (relaxbp and the parallel edge paradigms) can read a reverse
//     message another worker is writing without a data race.
//   - Sweep (NewSweep): the fold stores into next, and EndSweep commits
//     next over msg at the sweep barrier. Every read within a sweep then
//     sees the messages as they stood at the end of the previous sweep,
//     the same snapshot as the Jacobi belief buffer, so the outcome does
//     not depend on node order or worker timing. next equals msg when a
//     sweep starts, so the messages into nodes the sweep does not update
//     (clamped nodes, work-queue skips) carry forward unchanged.
type edgeState struct {
	alpha float32
	rev   []int32  // rev[e] = edge id of the paired reverse edge, or -1
	msg   []uint32 // committed message per edge, len NumEdges·States, atomic bits
	next  []uint32 // sweep mode: this sweep's messages; nil when live
}

// newEdgeState builds the correction state for one run over g: the
// reverse-edge index and per-edge messages initialized uniform (a uniform
// reverse message raises every entry equally, so the first sweep's
// corrected messages equal vanilla's).
func newEdgeState(g *graph.Graph, states int, alpha float32) *edgeState {
	st := &edgeState{
		alpha: alpha,
		rev:   buildReverseIndex(g),
		msg:   make([]uint32, g.NumEdges*states),
	}
	u := math.Float32bits(1 / float32(states))
	for i := range st.msg {
		st.msg[i] = u
	}
	return st
}

// buildReverseIndex pairs each directed edge (u,v) with a reverse edge
// (v,u), multigraph-aware: the k-th parallel (u,v) edge pairs with the k-th
// parallel (v,u) edge. Edges without a reverse partner map to -1 and the
// circular correction is a no-op for them.
func buildReverseIndex(g *graph.Graph) []int32 {
	n := g.NumEdges
	rev := make([]int32, n)
	byPair := make(map[uint64][]int32, n)
	ord := make([]int32, n)
	for e := 0; e < n; e++ {
		key := uint64(uint32(g.EdgeSrc[e]))<<32 | uint64(uint32(g.EdgeDst[e]))
		ord[e] = int32(len(byPair[key]))
		byPair[key] = append(byPair[key], int32(e))
	}
	for e := 0; e < n; e++ {
		rkey := uint64(uint32(g.EdgeDst[e]))<<32 | uint64(uint32(g.EdgeSrc[e]))
		rlist := byPair[rkey]
		if int(ord[e]) < len(rlist) {
			rev[e] = rlist[ord[e]]
		} else {
			rev[e] = -1
		}
	}
	return rev
}

// load reads edge e's last message into dst.
func (st *edgeState) load(dst []float32, e int32, s int) {
	base := int(e) * s
	for j := 0; j < s; j++ {
		dst[j] = math.Float32frombits(atomic.LoadUint32(&st.msg[base+j]))
	}
}

// store publishes edge e's new message: to msg when live, to next under
// the sweep discipline.
func (st *edgeState) store(src []float32, e int32, s int) {
	dst := st.msg
	if st.next != nil {
		dst = st.next
	}
	base := int(e) * s
	for j := 0; j < s; j++ {
		atomic.StoreUint32(&dst[base+j], math.Float32bits(src[j]))
	}
}

// circularParent returns the α-corrected source belief for edge e: the
// parent belief with the reverse message's α-share divided out,
// renormalized by max-shift in log space so extreme corrections cannot
// overflow float32. Edges without a reverse partner return the parent
// unchanged. The result lives in sc.corr.
func (k *Kernel) circularParent(sc *Scratch, e int32, parent []float32) []float32 {
	r := k.st.rev[e]
	if r < 0 {
		return parent
	}
	s := k.s
	rm := sc.rmsg[:s]
	k.st.load(rm, r, s)
	cp := sc.corr[:s]
	alpha := float64(k.st.alpha)
	maxl := math.Inf(-1)
	for i := 0; i < s; i++ {
		l := float64(Logf(parent[i])) - alpha*float64(Logf(rm[i]))
		cp[i] = float32(l)
		if l > maxl {
			maxl = l
		}
	}
	for i := 0; i < s; i++ {
		cp[i] = float32(math.Exp(float64(cp[i]) - maxl))
	}
	return cp
}

// accumulateCircular is the Circular-BP fold of in-edge e: materialize the
// corrected, normalized message, publish it to the correction state, then
// fold it into whichever accumulator (linear or log) the combine is using.
func (k *Kernel) accumulateCircular(sc *Scratch, e int32, parent []float32, maxProduct bool) {
	s := k.s
	cp := k.circularParent(sc, e, parent)
	msg := sc.msg[:s]
	if maxProduct {
		k.rawMaxInto(msg, k.matT(e), cp)
	} else {
		k.rawInto(msg, k.matT(e), cp)
	}
	graph.Normalize(msg)
	k.st.store(msg, e, s)
	if sc.log {
		acc := sc.acc[:s]
		for j := range acc {
			acc[j] += Logf(msg[j])
		}
		return
	}
	sc.Counters.FastPath++
	m := float32(math.Inf(-1))
	for j := 0; j < s; j++ {
		v := msg[j]
		if v < LogEps {
			v = LogEps
		}
		v *= sc.prod[j]
		sc.prod[j] = v
		if v > m {
			m = v
		}
	}
	if !(m >= rescaleFloor) {
		k.rescale(sc, m)
	}
}

// messageCircular is the edge-paradigm form: the corrected normalized
// message is written to dst and published to the correction state.
func (k *Kernel) messageCircular(sc *Scratch, dst []float32, e int32, parent []float32) {
	cp := k.circularParent(sc, e, parent)
	k.rawInto(dst, k.matT(e), cp)
	graph.Normalize(dst)
	k.st.store(dst, e, k.s)
}

// damp blends dst with the previous belief old in place:
// dst ← (1−d)·dst + d·old. Both are distributions, so no renormalization.
func (k *Kernel) damp(dst, old []float32) {
	d := k.damping
	w := 1 - d
	for j := range dst {
		dst[j] = w*dst[j] + d*old[j]
	}
}
