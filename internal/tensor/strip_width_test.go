package tensor

import (
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// stripWidthModels are odd-extent stride-2 geometries where a layer never
// reads the last input column: InputRange asks for the full map width, but
// the exact-need region SegmentRects reports is one column narrower.
func stripWidthModels() []*nn.Model {
	s2 := func(name string, kind nn.Kind, k, outC int) nn.Layer {
		return nn.Layer{Name: name, Kind: kind, KH: k, KW: k, SH: 2, SW: 2, OutC: outC, Act: nn.ReLU}
	}
	models := []*nn.Model{
		{Name: "conv-s2", Input: nn.Shape{C: 3, H: 16, W: 16}, Layers: []nn.Layer{
			s2("c", nn.Conv, 3, 4),
		}},
		{Name: "chain-s2", Input: nn.Shape{C: 3, H: 16, W: 16}, Layers: []nn.Layer{
			s2("c1", nn.Conv, 3, 8),
			nn.Conv1x1("pw", 8, nn.ReLU),
			s2("p", nn.MaxPool, 2, 0),
			nn.Conv3x3("c2", 4, nn.ReLU),
		}},
		{Name: "block-s2", Input: nn.Shape{C: 4, H: 16, W: 16}, Layers: []nn.Layer{
			{Name: "b", Kind: nn.Block, Combine: nn.Concat, Act: nn.NoAct, Paths: [][]nn.Layer{
				{s2("bc", nn.Conv, 3, 4)},
				{s2("bp", nn.MaxPool, 3, 0)},
			}},
			nn.Conv3x3("head", 4, nn.ReLU),
		}},
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			panic(err)
		}
	}
	return models
}

// TestStripTileWidthContract pins what a stage sends a worker: a strip
// cut by InputRange spans the full map width even where the segment's
// exact-need region is narrower. Such a strip must run through
// RunSegment/RunSegmentQ, match the whole-map Run/RunQ rows, and match
// RunSegmentRect/RunSegmentRectQ run on the exact-need tile.
func TestStripTileWidthContract(t *testing.T) {
	for _, m := range stripWidthModels() {
		t.Run(m.Name, func(t *testing.T) {
			e, err := NewExecutor(m, 5, WithQuantized())
			if err != nil {
				t.Fatal(err)
			}
			calc := partition.NewCalc(m)
			n := m.NumLayers()
			out := m.Output()
			in := RandomInput(m.Input, 6)
			if need := calc.SegmentRects(0, n, partition.FullRect(out.H, out.W))[0]; need.Cols.Len() == m.Input.W {
				t.Fatalf("geometry reads every input column (need %v); the case is not covered", need)
			}
			whole, err := e.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			wholeQ, err := e.RunQ(in)
			if err != nil {
				t.Fatal(err)
			}
			scales, err := e.QuantScales()
			if err != nil {
				t.Fatal(err)
			}
			inQ := QuantizeTensor(in, scales[0])
			for _, part := range partition.Equal(out.H, 2) {
				inR := e.InputRange(0, n, part)
				strip := in.SliceRows(inR.Lo, inR.Hi)
				got, err := e.RunSegment(0, n, strip, part)
				if err != nil {
					t.Fatalf("float strip %v: %v", part, err)
				}
				if want := whole.SliceRows(part.Lo, part.Hi); !Equal(got, want) {
					t.Fatalf("float strip %v differs from Run", part)
				}
				rect := partition.Rect{Rows: part, Cols: partition.Full(out.W)}
				need := calc.SegmentRects(0, n, rect)[0]
				gotRect, err := e.RunSegmentRect(0, n, in.SliceRect(need), rect)
				if err != nil {
					t.Fatalf("float rect %v: %v", rect, err)
				}
				if !Equal(got, gotRect) {
					t.Fatalf("float strip %v differs from its exact-need rect", part)
				}

				stripQ := inQ.SliceRows(inR.Lo, inR.Hi)
				gotQ, err := e.RunSegmentQ(0, n, stripQ, part)
				if err != nil {
					t.Fatalf("int8 strip %v: %v", part, err)
				}
				if want := wholeQ.SliceRows(part.Lo, part.Hi); !EqualQ(gotQ, want) {
					t.Fatalf("int8 strip %v differs from RunQ", part)
				}
				gotRectQ, err := e.RunSegmentRectQ(0, n, inQ.SliceRect(need), rect)
				if err != nil {
					t.Fatalf("int8 rect %v: %v", rect, err)
				}
				if !EqualQ(gotQ, gotRectQ) {
					t.Fatalf("int8 strip %v differs from its exact-need rect", part)
				}
			}
		})
	}
}
