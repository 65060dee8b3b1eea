package enginetest

import (
	"hash/fnv"
	"math"
	"testing"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/poolbp"
)

// beliefHash folds the exact bit patterns of the final beliefs into an
// FNV-64a digest so a golden can pin a full run to bit identity.
func beliefHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range g.Beliefs {
		bits := math.Float32bits(b)
		buf[0] = byte(bits)
		buf[1] = byte(bits >> 8)
		buf[2] = byte(bits >> 16)
		buf[3] = byte(bits >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// preVariantGoldens are FNV-64a digests of Float32bits of the final
// beliefs, captured on the commit BEFORE the variant layer (damping +
// Circular BP) entered internal/kernel. Damping=0 / vanilla must keep
// every engine bit-identical to these values: the variant branches are
// required to be completely invisible on the fast path.
//
// The six residual rows were re-captured when the sequential residual
// engine moved from eager successor refresh to estimate priorities: the
// new schedule applies updates in a different order, so its final
// beliefs differ within the convergence tolerance. They were captured
// from the new schedule with the kernels unchanged, and specialized still
// equals generic.
var preVariantGoldens = map[string]uint64{
	"synthetic-120x480-s3/node/specialized":       0x8620c6b3d6bef2da,
	"synthetic-120x480-s3/edge/specialized":       0x8764185f66caaa31,
	"synthetic-120x480-s3/residual/specialized":   0x26456315d9bd36ce,
	"synthetic-120x480-s3/maxproduct/specialized": 0x08bbfede0d364928,
	"synthetic-120x480-s3/pool4/specialized":      0x582b913274335c6c,
	"synthetic-120x480-s3/node/generic":           0x8620c6b3d6bef2da,
	"synthetic-120x480-s3/edge/generic":           0x8764185f66caaa31,
	"synthetic-120x480-s3/residual/generic":       0x26456315d9bd36ce,
	"synthetic-120x480-s3/maxproduct/generic":     0x08bbfede0d364928,
	"synthetic-120x480-s3/pool4/generic":          0x582b913274335c6c,
	"synthetic-120x480-s3/node/logspace":          0x8f69afc53238087d,
	"synthetic-120x480-s3/edge/logspace":          0x8764185f66caaa31,
	"synthetic-120x480-s3/residual/logspace":      0x2457ec0de72cc4d1,
	"synthetic-120x480-s3/maxproduct/logspace":    0x8a5d038ebd7994cb,
	"synthetic-120x480-s3/pool4/logspace":         0x8e709d7d57b049ac,
	"grid-12x12-s2/node/specialized":              0x5614045111398034,
	"grid-12x12-s2/edge/specialized":              0x8e13e45edf1b75b2,
	"grid-12x12-s2/residual/specialized":          0x05959f6c209e3b9c,
	"grid-12x12-s2/maxproduct/specialized":        0xe2bbebde64100384,
	"grid-12x12-s2/pool4/specialized":             0xb55d7d8140039ba5,
	"grid-12x12-s2/node/generic":                  0x5614045111398034,
	"grid-12x12-s2/edge/generic":                  0x8e13e45edf1b75b2,
	"grid-12x12-s2/residual/generic":              0x05959f6c209e3b9c,
	"grid-12x12-s2/maxproduct/generic":            0xe2bbebde64100384,
	"grid-12x12-s2/pool4/generic":                 0xb55d7d8140039ba5,
	"grid-12x12-s2/node/logspace":                 0x32e702b26efb9a62,
	"grid-12x12-s2/edge/logspace":                 0x8e13e45edf1b75b2,
	"grid-12x12-s2/residual/logspace":             0x5647035dbe847764,
	"grid-12x12-s2/maxproduct/logspace":           0xf04ef86a726dad4b,
	"grid-12x12-s2/pool4/logspace":                0x5fc6dfe0cad745a4,
}

func goldenGraphs() map[string]func(t *testing.T) *graph.Graph {
	return map[string]func(t *testing.T) *graph.Graph{
		"synthetic-120x480-s3": func(t *testing.T) *graph.Graph {
			g, err := gen.Synthetic(120, 480, gen.Config{Seed: 21, States: 3})
			if err != nil {
				t.Fatalf("synthetic: %v", err)
			}
			return g
		},
		"grid-12x12-s2": func(t *testing.T) *graph.Graph {
			g, err := gen.Grid(12, 12, gen.Config{Seed: 9, States: 2, Shared: true, Keep: 0.6})
			if err != nil {
				t.Fatalf("grid: %v", err)
			}
			return g
		},
	}
}

// TestVanillaBitIdenticalToPreVariantKernels locks the damping=0 /
// vanilla-variant path of every engine to the exact belief bits the
// kernels produced before the variant layer existed.
func TestVanillaBitIdenticalToPreVariantKernels(t *testing.T) {
	engines := []struct {
		name string
		run  func(g *graph.Graph, kc kernel.Config)
	}{
		{"node", func(g *graph.Graph, kc kernel.Config) { bp.RunNode(g, bp.Options{Kernel: kc}) }},
		{"edge", func(g *graph.Graph, kc kernel.Config) { bp.RunEdge(g, bp.Options{Kernel: kc}) }},
		{"residual", func(g *graph.Graph, kc kernel.Config) { bp.RunResidual(g, bp.Options{Kernel: kc}) }},
		{"maxproduct", func(g *graph.Graph, kc kernel.Config) { bp.RunMaxProduct(g, bp.Options{Kernel: kc}) }},
		{"pool4", func(g *graph.Graph, kc kernel.Config) {
			poolbp.RunNode(g, poolbp.Options{Workers: 4, Options: bp.Options{Kernel: kc}})
		}},
	}
	modes := []kernel.Mode{kernel.Specialized, kernel.Generic, kernel.LogSpace}
	for name, build := range goldenGraphs() {
		for _, eng := range engines {
			for _, mode := range modes {
				key := name + "/" + eng.name + "/" + mode.String()
				want, ok := preVariantGoldens[key]
				if !ok {
					t.Fatalf("no golden recorded for %s", key)
				}
				g := build(t)
				eng.run(g, kernel.Config{Mode: mode})
				if got := beliefHash(g); got != want {
					t.Errorf("%s: belief bits drifted from pre-variant kernels: got %#016x want %#016x", key, got, want)
				}
			}
		}
	}
}
