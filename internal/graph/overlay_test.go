package graph

import "testing"

// buildDiamond returns a small shared-matrix graph for overlay tests.
func buildOverlayDiamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(2)
	if err := b.SetShared(DiagonalJointMatrix(2, 0.8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := b.AddNode([]float32{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := b.AddUndirected(e[0], e[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCopyStateFrom(t *testing.T) {
	base := buildOverlayDiamond(t)
	overlay := base.Clone()

	// Perturb the overlay the way a query does: clamp evidence (mutating
	// beliefs, priors and observed) and scribble on messages.
	if err := overlay.Observe(1, 0); err != nil {
		t.Fatal(err)
	}
	overlay.Messages[0] = 0.123
	msgs := append([]float32(nil), overlay.Messages...)

	if err := overlay.CopyStateFrom(base); err != nil {
		t.Fatal(err)
	}
	for i := range base.Beliefs {
		if overlay.Beliefs[i] != base.Beliefs[i] {
			t.Fatalf("belief %d = %g, want %g", i, overlay.Beliefs[i], base.Beliefs[i])
		}
		if overlay.Priors[i] != base.Priors[i] {
			t.Fatalf("prior %d = %g, want %g", i, overlay.Priors[i], base.Priors[i])
		}
	}
	for i := range base.Observed {
		if overlay.Observed[i] != base.Observed[i] {
			t.Fatalf("observed %d = %v, want %v", i, overlay.Observed[i], base.Observed[i])
		}
	}
	// Node state only: messages keep whatever the overlay last held.
	for i := range msgs {
		if overlay.Messages[i] != msgs[i] {
			t.Fatalf("message %d = %g, want it left at %g", i, overlay.Messages[i], msgs[i])
		}
	}
	// ResetMessages is how a message-reading run gets the base's uniform
	// messages back.
	overlay.ResetMessages()
	for i := range base.Messages {
		if overlay.Messages[i] != base.Messages[i] {
			t.Fatalf("reset message %d = %g, want %g", i, overlay.Messages[i], base.Messages[i])
		}
	}

	// The base must never have been touched by the overlay's evidence.
	if base.Observed[1] {
		t.Fatal("base graph mutated by overlay evidence")
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyStateFromShapeMismatch(t *testing.T) {
	base := buildOverlayDiamond(t)
	b := NewBuilder(2)
	if _, err := b.AddNode([]float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	small, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := small.CopyStateFrom(base); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
