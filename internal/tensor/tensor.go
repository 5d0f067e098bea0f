// Package tensor is a pure-Go float32 CNN inference engine — the substitute
// for the paper's LibTorch/NNPACK backend. It exists so that the feature-map
// partition machinery can be verified end to end: executing a model segment
// on overlapping row tiles and stitching the strips must reproduce the
// whole-tensor inference bit for bit (per-pixel accumulation order is
// independent of the tile, so equality is exact, not approximate).
//
// Weights are generated deterministically from a seed, so distributed
// workers can materialise identical models without shipping parameters
// (geometry, not weights, is what the paper's scheduling problem depends
// on).
package tensor

import (
	"fmt"
	"math"

	"pico/internal/partition"
)

// Tensor is a CHW float32 feature map. Data is indexed (c*H + h)*W + w.
type Tensor struct {
	C, H, W int
	Data    []float32

	// slab, when non-nil, points at the full-capacity backing slice this
	// tensor drew from the arena; Recycle uses it to return the memory
	// without allocating. Tensors built by hand have a nil slab and are
	// simply garbage collected.
	slab *[]float32
}

// New allocates a zero tensor of the given extent.
func New(c, h, w int) Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid extent %dx%dx%d", c, h, w))
	}
	return Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// At returns the element at (c, h, w); no bounds checks beyond the slice's.
func (t *Tensor) At(c, h, w int) float32 { return t.Data[(c*t.H+h)*t.W+w] }

// Set writes the element at (c, h, w).
func (t *Tensor) Set(c, h, w int, v float32) { t.Data[(c*t.H+h)*t.W+w] = v }

// Elems returns the number of scalars.
func (t *Tensor) Elems() int { return t.C * t.H * t.W }

// Valid reports whether the header matches the data length.
func (t *Tensor) Valid() bool {
	return t.C > 0 && t.H > 0 && t.W > 0 && len(t.Data) == t.Elems()
}

// Clone returns a deep copy.
func (t *Tensor) Clone() Tensor {
	out := Tensor{C: t.C, H: t.H, W: t.W, Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// SliceRows copies rows [lo, hi) of every channel into a new tensor. The
// copy is arena-backed; callers that drop it on the hot path may Recycle it.
func (t *Tensor) SliceRows(lo, hi int) Tensor {
	return t.SliceRect(partition.Rect{Rows: partition.Range{Lo: lo, Hi: hi}, Cols: partition.Full(t.W)})
}

// SliceRect copies the region rect (clamped coordinates required) of every
// channel into an arena-backed tensor — what a grid leader sends each
// worker.
func (t *Tensor) SliceRect(rect partition.Rect) Tensor {
	checkRegion(rect, t.H, t.W)
	out := Alloc(t.C, rect.Rows.Len(), rect.Cols.Len())
	sliceRegion(out.Data, t.Data, t.C, t.H, t.W, rect)
	return out
}

// StitchRows reassembles a full feature map of the given height from
// disjoint row strips. strips[i] covers rows [los[i], los[i]+strips[i].H).
// Every row of [0, h) must be covered exactly once.
func StitchRows(strips []Tensor, los []int, h int) (Tensor, error) {
	if len(strips) == 0 || len(strips) != len(los) {
		return Tensor{}, fmt.Errorf("tensor: %d strips with %d offsets", len(strips), len(los))
	}
	rects := make([]partition.Rect, len(strips))
	for i, s := range strips {
		rects[i] = stripRect(los[i], s.H, strips[0].W)
	}
	return StitchGrid(strips, rects, h, strips[0].W)
}

// StitchGrid reassembles a full h x w feature map from disjoint rectangular
// tiles; tiles[i] covers rects[i]. Every cell must be covered exactly once.
func StitchGrid(tiles []Tensor, rects []partition.Rect, h, w int) (Tensor, error) {
	if len(tiles) == 0 || len(tiles) != len(rects) {
		return Tensor{}, fmt.Errorf("tensor: %d tiles with %d rects", len(tiles), len(rects))
	}
	planes := make([]plane[float32], len(tiles))
	for i, t := range tiles {
		planes[i] = plane[float32]{t.C, t.H, t.W, t.Data}
	}
	// Arena-backed: on success every cell is covered exactly once, so all
	// elements are written before the tensor is returned.
	out := Alloc(tiles[0].C, h, w)
	if err := stitchRegions(out.Data, out.C, h, w, planes, rects); err != nil {
		Recycle(out)
		return Tensor{}, err
	}
	return out, nil
}

// stripRect is the region of a full-width strip of h rows starting at lo.
func stripRect(lo, h, w int) partition.Rect {
	return partition.Rect{Rows: partition.Range{Lo: lo, Hi: lo + h}, Cols: partition.Full(w)}
}

// checkRegion panics unless rect is a non-empty region of an h x w map.
func checkRegion(rect partition.Rect, h, w int) {
	if rect.Rows.Lo < 0 || rect.Rows.Hi > h || rect.Cols.Lo < 0 || rect.Cols.Hi > w || rect.Empty() {
		panic(fmt.Sprintf("tensor: region %v of %dx%d", rect, h, w))
	}
}

// plane is the extent-and-data view Tensor and QTensor share, so one
// slice and one stitch implementation serve both element types.
type plane[E float32 | int8] struct {
	c, h, w int
	data    []E
}

// sliceRegion copies region rect of every channel of the c x h x w map src
// into dst, laid out c x rect.Rows.Len() x rect.Cols.Len().
func sliceRegion[E float32 | int8](dst, src []E, c, h, w int, rect partition.Rect) {
	rows, cols := rect.Rows.Len(), rect.Cols.Len()
	for ch := 0; ch < c; ch++ {
		if cols == w {
			// Full-width rows are one contiguous run per channel.
			copy(dst[ch*rows*w:(ch+1)*rows*w], src[(ch*h+rect.Rows.Lo)*w:(ch*h+rect.Rows.Hi)*w])
			continue
		}
		for y := 0; y < rows; y++ {
			copy(dst[(ch*rows+y)*cols:(ch*rows+y+1)*cols], src[(ch*h+rect.Rows.Lo+y)*w+rect.Cols.Lo:][:cols])
		}
	}
}

// stitchRegions copies tiles[i], which covers rects[i], into the c x h x w
// map dst, checking that every cell is covered exactly once.
func stitchRegions[E float32 | int8](dst []E, c, h, w int, tiles []plane[E], rects []partition.Rect) error {
	covered := make([]bool, h*w)
	for i, t := range tiles {
		rc := rects[i]
		if t.c != c || t.h != rc.Rows.Len() || t.w != rc.Cols.Len() {
			return fmt.Errorf("tensor: tile %d extent %dx%dx%d mismatches rect %v", i, t.c, t.h, t.w, rc)
		}
		if rc.Rows.Lo < 0 || rc.Rows.Hi > h || rc.Cols.Lo < 0 || rc.Cols.Hi > w {
			return fmt.Errorf("tensor: tile %d rect %v outside %dx%d", i, rc, h, w)
		}
		for r := rc.Rows.Lo; r < rc.Rows.Hi; r++ {
			for col := rc.Cols.Lo; col < rc.Cols.Hi; col++ {
				if covered[r*w+col] {
					return fmt.Errorf("tensor: cell (%d,%d) covered twice", r, col)
				}
				covered[r*w+col] = true
			}
		}
		for ch := 0; ch < c; ch++ {
			for y := 0; y < t.h; y++ {
				copy(dst[(ch*h+rc.Rows.Lo+y)*w+rc.Cols.Lo:][:t.w], t.data[(ch*t.h+y)*t.w:][:t.w])
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("tensor: cell (%d,%d) uncovered", i/w, i%w)
		}
	}
	return nil
}

// Equal reports exact bitwise equality of extent and data.
func Equal(a, b Tensor) bool {
	if a.C != b.C || a.H != b.H || a.W != b.W || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum elementwise absolute difference; +Inf when
// extents differ.
func MaxAbsDiff(a, b Tensor) float64 {
	if a.C != b.C || a.H != b.H || a.W != b.W {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}
