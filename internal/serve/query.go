package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Engine override names accepted by queries (?engine= or
// Config default). Empty and "auto" both mean automatic selection.
const (
	EngineAuto     = "auto"
	EngineNode     = "node"
	EngineEdge     = "edge"
	EngineResidual = "residual"
	EngineRelax    = "relax"
	EnginePool     = "pool"
	// EngineBatch labels the responses of Server.QueryBatched. As a
	// query override it is still accepted and runs as auto.
	EngineBatch = "batch"
)

// queryPayload is the wire shape of a posterior query. Evidence is a
// list, not a map, so duplicate clamps of one node are visible to the
// decoder (encoding/json silently merges duplicate object keys) and are
// rejected.
type queryPayload struct {
	Evidence []evidencePayload `json:"evidence"`
	Nodes    []string          `json:"nodes"`
}

type evidencePayload struct {
	Node  string `json:"node"`
	State *int   `json:"state"`
}

// ResolvedQuery is a decoded, validated query bound to one resident:
// evidence as (node id, state) pairs sorted by node with one pair per
// node — the form the warm-start diff merges — and the resolved response
// node set, ascending and without duplicates (nil = all).
type ResolvedQuery struct {
	evidence []evPair
	nodes    []int32 // nil means every node
}

type evPair struct {
	node  int32
	state int32
}

// maxQueryBytes bounds a query document; the HTTP layer enforces the
// same limit on request bodies.
const maxQueryBytes = 1 << 20

// DecodeQuery parses and validates a posterior-query document against
// the resident's node space. It is strict by construction — unknown
// fields, trailing data, unresolvable or duplicate evidence nodes,
// missing or out-of-range states and malformed JSON all error and never
// panic (locked by FuzzQueryDecode).
func (r *Resident) DecodeQuery(data []byte) (*ResolvedQuery, error) {
	if len(data) > maxQueryBytes {
		return nil, fmt.Errorf("serve: query document exceeds %d bytes", maxQueryBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q queryPayload
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("serve: decode query: %w", err)
	}
	// One JSON value per document: trailing content is a malformed (or
	// smuggled) request, not data to ignore.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("serve: trailing data after query document")
	}

	rq := &ResolvedQuery{}
	for _, e := range q.Evidence {
		v, err := r.resolveNode(e.Node)
		if err != nil {
			return nil, fmt.Errorf("serve: evidence: %w", err)
		}
		if e.State == nil {
			return nil, fmt.Errorf("serve: evidence for %q has no state", e.Node)
		}
		st := *e.State
		if st < 0 || st >= r.base.States {
			return nil, fmt.Errorf("serve: evidence state %d for %q out of range [0,%d)", st, e.Node, r.base.States)
		}
		rq.evidence = append(rq.evidence, evPair{node: v, state: int32(st)})
	}
	slices.SortFunc(rq.evidence, func(a, b evPair) int { return cmp.Compare(a.node, b.node) })
	for i := 1; i < len(rq.evidence); i++ {
		if v := rq.evidence[i].node; v == rq.evidence[i-1].node {
			return nil, fmt.Errorf("serve: duplicate evidence for node %q", r.nodeLabel(v))
		}
	}
	// An omitted or null list exports every node; an empty one answers
	// none.
	if q.Nodes != nil {
		rq.nodes = make([]int32, 0, len(q.Nodes))
	}
	for _, n := range q.Nodes {
		v, err := r.resolveNode(n)
		if err != nil {
			return nil, fmt.Errorf("serve: nodes: %w", err)
		}
		rq.nodes = append(rq.nodes, v)
	}
	// Answers list nodes in id order, each once, however the query named
	// them.
	slices.Sort(rq.nodes)
	rq.nodes = slices.Compact(rq.nodes)
	return rq, nil
}

// resolveNode maps a wire node reference — a name or a decimal id — to
// a node index.
func (r *Resident) resolveNode(s string) (int32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty node reference")
	}
	if v, ok := r.names[s]; ok {
		return v, nil
	}
	id, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("unknown node %q", s)
	}
	if id < 0 || id >= r.base.NumNodes {
		return 0, fmt.Errorf("node id %d out of range [0,%d)", id, r.base.NumNodes)
	}
	return int32(id), nil
}

// ParseEngine validates an engine override, mapping "" to EngineAuto.
func ParseEngine(s string) (string, error) {
	switch s {
	case "", EngineAuto:
		return EngineAuto, nil
	case EngineNode, EngineEdge, EngineResidual, EngineRelax, EnginePool, EngineBatch:
		return s, nil
	}
	return "", fmt.Errorf("serve: unknown engine %q (want auto, node, edge, residual, relax, pool or batch)", s)
}
