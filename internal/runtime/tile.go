package runtime

import (
	"fmt"

	"pico/internal/partition"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// tile is a feature map, or a region of one, in either wire dtype: a
// tensor.Tensor travels as wire.DTypeFloat32, a tensor.QTensor as
// wire.DTypeInt8. The dynamic type is the dtype tag, so one exec round
// trip, one worker handler and one stitch serve both precisions.
type tile any

// tileMeta is the header description of a tile: extent, wire dtype and,
// for int8 tiles, the quantization scale.
type tileMeta struct {
	c, h, w, dtype int
	scale          float32
}

// encodeTile returns t's header description and payload bytes; pooled
// reports whether the payload goes back to the buffer pool once sent. On
// little-endian hosts a float payload aliases the tensor's data, so the
// tensor must stay live until the payload is written.
func encodeTile(t tile) (m tileMeta, payload []byte, pooled bool) {
	if q, ok := t.(tensor.QTensor); ok {
		payload, pooled = wire.QTensorBytes(q)
		return tileMeta{q.C, q.H, q.W, wire.DTypeInt8, q.Scale}, payload, pooled
	}
	f := t.(tensor.Tensor)
	payload, pooled = wire.TensorBytes(f)
	return tileMeta{f.C, f.H, f.W, wire.DTypeFloat32, 0}, payload, pooled
}

// decodeTile copies a payload described by m into an arena-backed tile,
// rejecting dtypes the wire does not define.
func decodeTile(m tileMeta, payload []byte) (tile, error) {
	switch m.dtype {
	case wire.DTypeFloat32:
		return wire.DecodeTensor(m.c, m.h, m.w, payload)
	case wire.DTypeInt8:
		return wire.DecodeQTensor(m.c, m.h, m.w, m.scale, payload)
	}
	return nil, fmt.Errorf("runtime: unknown exec dtype %d", m.dtype)
}

// sliceTile copies region r of t, keeping its dtype (and scale).
func sliceTile(t tile, r partition.Rect) tile {
	if q, ok := t.(tensor.QTensor); ok {
		return q.SliceRect(r)
	}
	f := t.(tensor.Tensor)
	return f.SliceRect(r)
}

// recycleTile returns t's buffer to the tensor arena.
func recycleTile(t tile) {
	switch t := t.(type) {
	case tensor.QTensor:
		tensor.RecycleQ(t)
	case tensor.Tensor:
		tensor.Recycle(t)
	}
}

// stitchTiles reassembles an h x w map from tiles of one dtype; tiles[i]
// covers rects[i], and every cell must be covered exactly once.
func stitchTiles(tiles []tile, rects []partition.Rect, h, w int) (tile, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("runtime: nothing to stitch")
	}
	if _, ok := tiles[0].(tensor.QTensor); ok {
		qs, err := tilesOf[tensor.QTensor](tiles)
		if err != nil {
			return nil, err
		}
		return tensor.StitchGridQ(qs, rects, h, w)
	}
	fs, err := tilesOf[tensor.Tensor](tiles)
	if err != nil {
		return nil, err
	}
	return tensor.StitchGrid(fs, rects, h, w)
}

// tilesOf unboxes tiles that must all hold a T.
func tilesOf[T tensor.Tensor | tensor.QTensor](tiles []tile) ([]T, error) {
	out := make([]T, len(tiles))
	for i, t := range tiles {
		v, ok := t.(T)
		if !ok {
			return nil, fmt.Errorf("runtime: tile %d is a %T among %T tiles", i, t, out[0])
		}
		out[i] = v
	}
	return out, nil
}

// runTile executes an exec request's segment on in, in in's dtype: output
// rows [OutLo, OutHi) of a full-width strip, or with OutColHi > 0 the grid
// rect those rows span in columns [OutColLo, OutColHi). It also returns
// the region's modelled MACs, which drive speed emulation.
func runTile(e *tensor.Executor, hdr *wire.ExecHeader, in tile) (out tile, flops float64, err error) {
	rows := partition.Range{Lo: hdr.OutLo, Hi: hdr.OutHi}
	q, quant := in.(tensor.QTensor)
	f, _ := in.(tensor.Tensor)
	if hdr.OutColHi > 0 {
		rect := partition.Rect{Rows: rows, Cols: partition.Range{Lo: hdr.OutColLo, Hi: hdr.OutColHi}}
		if quant {
			out, err = e.RunSegmentRectQ(hdr.From, hdr.To, q, rect)
		} else {
			out, err = e.RunSegmentRect(hdr.From, hdr.To, f, rect)
		}
		if err != nil {
			return nil, 0, err
		}
		return out, float64(e.RectFLOPs(hdr.From, hdr.To, rect)), nil
	}
	if quant {
		out, err = e.RunSegmentQ(hdr.From, hdr.To, q, rows)
	} else {
		out, err = e.RunSegment(hdr.From, hdr.To, f, rows)
	}
	if err != nil {
		return nil, 0, err
	}
	return out, float64(e.RegionFLOPs(hdr.From, hdr.To, rows)), nil
}
