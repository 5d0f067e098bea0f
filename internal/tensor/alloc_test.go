//go:build !race

// The race detector randomly drops sync.Pool items, so arena hits and the
// allocation counts below are only stable without it.

package tensor

import (
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// TestWarmForwardAllocs caps the heap allocations of one warm forward at
// parallelism 1. With the weight cache and the arena warm, what remains is
// per-forward bookkeeping (geometry slices, kernel closures); a kernel or
// walker change that starts allocating tensors per layer trips the ceiling.
// Ten runs average out the odd arena miss after a GC empties the pools.
func TestWarmForwardAllocs(t *testing.T) {
	cases := []struct {
		model              *nn.Model
		floatMax, quantMax float64
	}{
		{nn.ToyChain("toy", 6, 2, 4, 64), 9, 16},
		{nn.MobileNetV1(), 31, 46},
	}
	for _, tc := range cases {
		m := tc.model
		t.Run(m.Name, func(t *testing.T) {
			e, err := NewExecutor(m, 1, WithParallelism(1), WithQuantized())
			if err != nil {
				t.Fatal(err)
			}
			in := RandomInput(m.Input, 2)
			full := partition.Full(m.Output().H)
			float := func() {
				out, err := e.RunSegment(0, m.NumLayers(), in, full)
				if err != nil {
					t.Fatal(err)
				}
				Recycle(out)
			}
			quant := func() {
				out, err := e.RunQ(in)
				if err != nil {
					t.Fatal(err)
				}
				RecycleQ(out)
			}
			float()
			quant()
			if got := testing.AllocsPerRun(10, float); got > tc.floatMax {
				t.Errorf("float RunSegment: %v allocs per forward, ceiling %v", got, tc.floatMax)
			}
			if got := testing.AllocsPerRun(10, quant); got > tc.quantMax {
				t.Errorf("RunQ: %v allocs per forward, ceiling %v", got, tc.quantMax)
			}
		})
	}
}
