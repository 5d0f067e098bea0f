package tensor

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"pico/internal/nn"
	"pico/internal/partition"
)

// One segment walker serves every partition shape and precision. A tile is
// a region of a layer boundary's feature map, positioned by its global row
// and column origins; a row strip is simply a tile that spans the full map
// width. Each layer runs through the kernel table entry of the tile's
// dtype, and the tile geometry — not the caller — picks the kernel: a
// full-width tile takes the strip kernels (pointwise SIMD, fused depthwise
// taps, the 2x2 stride-2 pool), a narrower one the global-coordinate rect
// kernels. Per output element every kernel accumulates in the same order,
// so the choice never changes a bit.

// dtype indexes the kernel table.
type dtype int

const (
	dtFloat32 dtype = iota
	dtInt8
)

// tile carries one region in either precision: f when dt is dtFloat32, q
// when dt is dtInt8.
type tile struct {
	dt dtype
	f  Tensor
	q  QTensor
}

func (t tile) valid() bool {
	if t.dt == dtInt8 {
		return t.q.Valid()
	}
	return t.f.Valid()
}

func (t tile) extent() (c, h, w int) {
	if t.dt == dtInt8 {
		return t.q.C, t.q.H, t.q.W
	}
	return t.f.C, t.f.H, t.f.W
}

func (t tile) recycle() {
	if t.dt == dtInt8 {
		RecycleQ(t.q)
	} else {
		Recycle(t.f)
	}
}

// step is one layer application: layer l, whose weights are cached under
// key, maps region in of its inShape input onto region out of its outShape
// output. sIn and sOut are the calibrated boundary scales of int8 walks.
type step struct {
	l                 *nn.Layer
	key               string
	inShape, outShape nn.Shape
	in, out           partition.Rect
	sIn, sOut         float32
}

// fullWidth reports whether the step reads and writes every column of its
// maps: the strip geometry the row-indexed fast kernels expect.
func (s *step) fullWidth() bool {
	return s.in.Cols == partition.Full(s.inShape.W) && s.out.Cols == partition.Full(s.outShape.W)
}

// kernelSet is one dtype's row of the kernel table. Blocks are not in the
// table: they recurse into the walker and run in float32 either way.
type kernelSet struct {
	conv, pool, fc, gap func(e *Executor, s step, in tile) tile
}

var kernelTable = [...]kernelSet{
	dtFloat32: {
		conv: func(e *Executor, s step, in tile) tile {
			l := s.l
			wts := e.convW(s.key, l, s.inShape.C)
			switch {
			case !s.fullWidth():
				return tile{f: convForwardRect(in.f, s.in.Rows.Lo, s.in.Cols.Lo, s.inShape.H, s.inShape.W, l, wts, s.out, e.par)}
			case e.refKernels:
				return tile{f: convForwardRef(in.f, s.in.Rows.Lo, s.inShape.H, l, wts, s.out.Rows.Lo, s.out.Rows.Hi, e.par)}
			}
			return tile{f: convForward(in.f, s.in.Rows.Lo, s.inShape.H, l, wts, s.out.Rows.Lo, s.out.Rows.Hi, e.par)}
		},
		pool: func(e *Executor, s step, in tile) tile {
			switch {
			case !s.fullWidth():
				return tile{f: poolForwardRect(in.f, s.in.Rows.Lo, s.in.Cols.Lo, s.inShape.H, s.inShape.W, s.l, s.out, e.par)}
			case e.refKernels:
				return tile{f: poolForwardRef(in.f, s.in.Rows.Lo, s.inShape.H, s.l, s.out.Rows.Lo, s.out.Rows.Hi, e.par)}
			}
			return tile{f: poolForward(in.f, s.in.Rows.Lo, s.inShape.H, s.l, s.out.Rows.Lo, s.out.Rows.Hi, e.par)}
		},
		fc: func(e *Executor, s step, in tile) tile {
			wts := e.fcW(s.key, s.l, s.inShape.Elems())
			if e.refKernels {
				return tile{f: fcForwardRef(in.f, s.l, wts, e.par)}
			}
			return tile{f: fcForward(in.f, s.l, wts, e.par)}
		},
		gap: func(e *Executor, s step, in tile) tile {
			return tile{f: gapForward(in.f, s.l, e.par)}
		},
	},
	dtInt8: {
		conv: func(e *Executor, s step, in tile) tile {
			l := s.l
			qw := e.qconvW(s.key, l, s.inShape.C, s.sIn, s.sOut)
			var res QTensor
			switch {
			case !s.fullWidth():
				res = qconvForwardRect(in.q, s.in.Rows.Lo, s.in.Cols.Lo, s.inShape.H, s.inShape.W, l, qw, s.out, e.par)
			case e.refKernels:
				res = qconvForwardRef(in.q, s.in.Rows.Lo, s.inShape.H, l, qw, s.out.Rows.Lo, s.out.Rows.Hi, e.par)
			default:
				res = qconvForward(in.q, s.in.Rows.Lo, s.inShape.H, l, qw, s.out.Rows.Lo, s.out.Rows.Hi, e.par)
			}
			res.Scale = s.sOut
			return tile{dt: dtInt8, q: res}
		},
		pool: func(e *Executor, s step, in tile) tile {
			if !s.fullWidth() {
				return tile{dt: dtInt8, q: qpoolForwardRect(in.q, s.in.Rows.Lo, s.in.Cols.Lo, s.inShape.H, s.inShape.W, s.l, s.out, e.par)}
			}
			return tile{dt: dtInt8, q: qpoolForward(in.q, s.in.Rows.Lo, s.inShape.H, s.l, s.out.Rows.Lo, s.out.Rows.Hi, e.par)}
		},
		fc: func(e *Executor, s step, in tile) tile {
			qw := e.qfcW(s.key, s.l, s.inShape.Elems(), s.sIn, s.sOut)
			kernel := qfcForward
			if e.refKernels {
				kernel = qfcForwardRef
			}
			res := kernel(in.q, s.l, qw, e.par)
			res.Scale = s.sOut
			return tile{dt: dtInt8, q: res}
		},
		gap: func(e *Executor, s step, in tile) tile {
			return tile{dt: dtInt8, q: qgapForward(in.q, s.l, e.par)}
		},
	},
}

// modelStep describes model layer i producing region out from region in.
func (e *Executor) modelStep(i int, in, out partition.Rect) step {
	shapes := e.m.Shapes()
	return step{l: &e.m.Layers[i], key: strconv.Itoa(i), inShape: shapes[i], outShape: shapes[i+1], in: in, out: out}
}

// runSegment is the walker behind RunSegment, RunSegmentRect, RunSegmentQ
// and RunSegmentRectQ. It executes layers [from, to) producing region out
// of the last boundary from a tile holding exactly the region the segment
// needs at boundary from. strip widens every boundary's region to the full
// map width: a strip cut by InputRange spans the whole width even where the
// segment never reads the last columns.
func (e *Executor) runSegment(from, to int, in tile, out partition.Rect, strip bool) (tile, error) {
	if from < 0 || to > e.m.NumLayers() || from >= to {
		return tile{}, fmt.Errorf("tensor: invalid segment [%d,%d)", from, to)
	}
	shapes := e.m.Shapes()
	if strip {
		out.Cols = partition.Full(shapes[to].W)
	}
	if out.Empty() {
		return tile{}, fmt.Errorf("tensor: empty output region %v", out)
	}
	rects := e.calc.SegmentRects(from, to, out)
	if strip {
		for k := range rects {
			rects[k].Cols = partition.Full(shapes[from+k].W)
		}
	}
	if c, h, w := in.extent(); !in.valid() || c != shapes[from].C || h != rects[0].Rows.Len() || w != rects[0].Cols.Len() {
		return tile{}, fmt.Errorf("tensor: tile %dx%dx%d does not match required region %v of %v",
			c, h, w, rects[0], shapes[from])
	}
	var scales []float32
	if in.dt == dtInt8 {
		var err error
		if scales, err = e.QuantScales(); err != nil {
			return tile{}, err
		}
		// A mismatch means the sender calibrated a different model or
		// seed, which would silently corrupt every value.
		if math.Float32bits(in.q.Scale) != math.Float32bits(scales[from]) {
			return tile{}, fmt.Errorf("tensor: tile scale %g does not match calibrated boundary scale %g", in.q.Scale, scales[from])
		}
	}
	cur := in
	for i := from; i < to; i++ {
		s := e.modelStep(i, rects[i-from], rects[i-from+1])
		if scales != nil {
			s.sIn, s.sOut = scales[i], scales[i+1]
		}
		next, err := e.runLayer(s, cur)
		if err != nil {
			return tile{}, fmt.Errorf("tensor: layer %d (%s): %w", i, s.l.Name, err)
		}
		if i > from {
			// cur is an intermediate this segment produced (never the
			// caller's tile); its buffer is dead now.
			cur.recycle()
		}
		cur = next
	}
	return cur, nil
}

// runLayer applies one layer (possibly inside a block) through the kernel
// table, attributing kernel time to the layer's kind.
func (e *Executor) runLayer(s step, in tile) (tile, error) {
	l := s.l
	ks := &kernelTable[in.dt]
	var kernel func(*Executor, step, tile) tile
	counter := &e.stats.pool
	switch l.Kind {
	case nn.Conv:
		kernel, counter = ks.conv, e.stats.convCounter(l, s.inShape.C)
	case nn.MaxPool, nn.AvgPool:
		kernel = ks.pool
	case nn.FullyConnected, nn.GlobalAvgPool:
		if s.in != partition.FullRect(s.inShape.H, s.inShape.W) {
			return tile{}, fmt.Errorf("%v needs the full input map, got %v of %dx%d", l.Kind, s.in, s.inShape.H, s.inShape.W)
		}
		kernel = ks.gap
		if l.Kind == nn.FullyConnected {
			kernel, counter = ks.fc, &e.stats.fc
		}
	case nn.Block:
		return e.runBlock(s, in)
	default:
		return tile{}, fmt.Errorf("unsupported layer kind %v", l.Kind)
	}
	start := time.Now()
	out := kernel(e, s, in)
	e.stats.add(counter, time.Since(start))
	return out, nil
}

// runBlock executes a graph block: every path walks from its slice of the
// block's input tile to the block's output region, and the path outputs
// combine. Path intermediates are recycled as soon as the next layer
// consumes them, path outputs after merging. An int8 tile takes the hybrid
// route — dequantize, run the float block, requantize at the block's output
// scale — so every model runs under quant mode while the chain-structured
// hot models stay int8 end to end.
func (e *Executor) runBlock(s step, in tile) (tile, error) {
	if in.dt == dtInt8 {
		fin := tile{f: in.q.Dequantize()}
		res, err := e.runBlock(s, fin)
		fin.recycle()
		if err != nil {
			return tile{}, err
		}
		q := QuantizeTensor(res.f, s.sOut)
		res.recycle()
		return tile{dt: dtInt8, q: q}, nil
	}
	l := s.l
	var combined Tensor
	for pi, path := range l.Paths {
		// An empty path is the identity shortcut: block output cells map
		// one-to-one onto block input cells.
		needs := []partition.Rect{s.out}
		if len(path) > 0 {
			needs = e.calc.PathRects(path, s.out, s.inShape)
		}
		local := partition.Rect{
			Rows: partition.Range{Lo: needs[0].Rows.Lo - s.in.Rows.Lo, Hi: needs[0].Rows.Hi - s.in.Rows.Lo},
			Cols: partition.Range{Lo: needs[0].Cols.Lo - s.in.Cols.Lo, Hi: needs[0].Cols.Hi - s.in.Cols.Lo},
		}
		if local.Rows.Lo < 0 || local.Rows.Hi > in.f.H || local.Cols.Lo < 0 || local.Cols.Hi > in.f.W {
			return tile{}, fmt.Errorf("path %d needs %v outside tile %v", pi, needs[0], s.in)
		}
		cur := tile{f: in.f.SliceRect(local)}
		shape := s.inShape
		for li := range path {
			ps := step{
				l: &path[li], key: s.key + "/" + strconv.Itoa(pi) + "/" + strconv.Itoa(li),
				inShape: shape, in: needs[li], out: needs[li+1],
			}
			var err error
			if ps.outShape, err = ps.l.OutShape(shape); err != nil {
				return tile{}, err
			}
			next, err := e.runLayer(ps, cur)
			if err != nil {
				return tile{}, fmt.Errorf("path %d layer %d (%s): %w", pi, li, ps.l.Name, err)
			}
			cur.recycle() // the path-local copy or a path intermediate
			cur = next
			shape = ps.outShape
		}
		if pi == 0 {
			combined = cur.f
			continue
		}
		pOut := cur.f
		switch l.Combine {
		case nn.Add:
			if pOut.C != combined.C || pOut.H != combined.H || pOut.W != combined.W {
				return tile{}, fmt.Errorf("add path %d extent mismatch", pi)
			}
			for j := range combined.Data {
				combined.Data[j] += pOut.Data[j]
			}
			Recycle(pOut)
		case nn.Concat:
			if pOut.H != combined.H || pOut.W != combined.W {
				return tile{}, fmt.Errorf("concat path %d spatial mismatch", pi)
			}
			combined = concatChannels(combined, pOut)
		default:
			return tile{}, fmt.Errorf("invalid combine %v", l.Combine)
		}
	}
	applyActivation(combined.Data, l.Act)
	return tile{f: combined}, nil
}

// concatChannels merges two feature maps along the channel axis into an
// explicitly allocated buffer and recycles the inputs. An append onto
// a.Data would be wrong here: when a's backing array has spare capacity
// (always true for arena slabs), append writes b's channels into memory
// that other tensors may share.
func concatChannels(a, b Tensor) Tensor {
	merged := Alloc(a.C+b.C, a.H, a.W)
	copy(merged.Data, a.Data)
	copy(merged.Data[len(a.Data):], b.Data)
	Recycle(a)
	Recycle(b)
	return merged
}
