package graph

import "fmt"

// CopyStateFrom resets g's node state — beliefs, priors and observed
// flags — to src's, leaving g's adjacency, names, joint matrices and
// messages untouched. It is the evidence-overlay primitive behind the
// serving layer: a resident graph stays pristine and read-only while
// each query leases a structural clone, re-bases its node state with
// CopyStateFrom (or, warm, copies only the rows that changed), clamps
// its own evidence and runs propagation, so concurrent queries never
// observe each other's clamps or beliefs.
//
// Messages are left as they were because the node paradigm never reads
// them: its kernel gathers parent beliefs. A caller about to run a
// message-reading engine (the edge paradigm) on the overlay resets them
// itself with ResetMessages; copying them here would cost O(E·S) on
// every lease for state almost no run reads.
//
// g and src must have the same shape (node count, edge count, belief
// width); a leased clone always does. Only g's arrays are written, so
// any number of overlays may CopyStateFrom one shared src concurrently.
func (g *Graph) CopyStateFrom(src *Graph) error {
	if g.NumNodes != src.NumNodes || g.NumEdges != src.NumEdges || g.States != src.States {
		return fmt.Errorf("graph: overlay shape %d nodes/%d edges/%d states does not match source %d/%d/%d",
			g.NumNodes, g.NumEdges, g.States, src.NumNodes, src.NumEdges, src.States)
	}
	copy(g.Beliefs, src.Beliefs)
	copy(g.Priors, src.Priors)
	copy(g.Observed, src.Observed)
	return nil
}
