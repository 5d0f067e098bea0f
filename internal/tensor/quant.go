package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"pico/internal/nn"
	"pico/internal/partition"
)

// The int8 quantized path. Activations and weights are quantized with
// symmetric per-tensor (activations) and per-channel (weights) scales and a
// zero zero-point: float = Scale * int8. Kernels accumulate in int32 and
// requantize with a fused float epilogue (see requantRow). Because int32
// addition is associative and commutative, blocked kernels are free to
// reorder accumulation and still match the naive reference bit for bit —
// only the epilogue must be shared, which it is.

// QTensor is a CHW int8 feature map with a single symmetric quantization
// scale: the represented value of element q is Scale * float32(q). Data is
// indexed (c*H + h)*W + w, exactly like Tensor.
type QTensor struct {
	C, H, W int
	Scale   float32
	Data    []int8

	// slab mirrors Tensor.slab for the int8 arena (see AllocQ/RecycleQ).
	slab *[]int8
}

// Elems returns the number of scalars.
func (q *QTensor) Elems() int { return q.C * q.H * q.W }

// Valid reports whether the header matches the data length and the scale is
// usable (finite and positive).
func (q *QTensor) Valid() bool {
	s := float64(q.Scale)
	return q.C > 0 && q.H > 0 && q.W > 0 && len(q.Data) == q.Elems() &&
		s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s)
}

// At returns the element at (c, h, w).
func (q *QTensor) At(c, h, w int) int8 { return q.Data[(c*q.H+h)*q.W+w] }

// SliceRows copies rows [lo, hi) of every channel into a new arena-backed
// QTensor carrying the same scale.
func (q *QTensor) SliceRows(lo, hi int) QTensor {
	return q.SliceRect(partition.Rect{Rows: partition.Range{Lo: lo, Hi: hi}, Cols: partition.Full(q.W)})
}

// SliceRect copies the region rect of every channel into an arena-backed
// QTensor carrying the same scale — what a grid leader sends each worker
// under quantized plans.
func (q *QTensor) SliceRect(rect partition.Rect) QTensor {
	checkRegion(rect, q.H, q.W)
	out := AllocQ(q.C, rect.Rows.Len(), rect.Cols.Len(), q.Scale)
	sliceRegion(out.Data, q.Data, q.C, q.H, q.W, rect)
	return out
}

// Dequantize expands the tensor back to float32: v = Scale * q. The result
// is arena-backed.
func (q *QTensor) Dequantize() Tensor {
	out := Alloc(q.C, q.H, q.W)
	s := q.Scale
	for i, v := range q.Data {
		out.Data[i] = s * float32(v)
	}
	return out
}

// QuantizeTensor quantizes a float tensor at the given scale: q =
// clamp(round(v / scale)) with round-half-away-from-zero. The result is
// arena-backed. The vector path performs quantClamp's exact IEEE sequence
// lane-wise, so the output is bit-identical to the scalar loop for every
// finite input.
func QuantizeTensor(t Tensor, scale float32) QTensor {
	out := AllocQ(t.C, t.H, t.W, scale)
	inv := 1 / scale
	n := len(t.Data)
	i := 0
	if simdQuant && n >= 8 {
		m := n &^ 7
		qquantizeRow8(&out.Data[0], &t.Data[0], inv, m)
		i = m
	}
	for ; i < n; i++ {
		out.Data[i] = quantClamp(t.Data[i] * inv)
	}
	return out
}

// quantClamp rounds half away from zero and saturates to int8. The float
// clamp runs first so out-of-range values never hit Go's implementation-
// defined float-to-int conversion.
func quantClamp(v float32) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	if v >= 0 {
		return int8(int32(v + 0.5))
	}
	return int8(int32(v - 0.5))
}

// StitchRowsQ reassembles a full int8 feature map from disjoint row strips,
// mirroring StitchRows. All strips must carry the same scale.
func StitchRowsQ(strips []QTensor, los []int, h int) (QTensor, error) {
	if len(strips) == 0 || len(strips) != len(los) {
		return QTensor{}, fmt.Errorf("tensor: %d strips with %d offsets", len(strips), len(los))
	}
	rects := make([]partition.Rect, len(strips))
	for i, s := range strips {
		rects[i] = stripRect(los[i], s.H, strips[0].W)
	}
	return StitchGridQ(strips, rects, h, strips[0].W)
}

// StitchGridQ reassembles a full h x w int8 feature map from disjoint
// rectangular tiles; tiles[i] covers rects[i]. Every cell must be covered
// exactly once and every tile must carry bit-identical scales.
func StitchGridQ(tiles []QTensor, rects []partition.Rect, h, w int) (QTensor, error) {
	if len(tiles) == 0 || len(tiles) != len(rects) {
		return QTensor{}, fmt.Errorf("tensor: %d tiles with %d rects", len(tiles), len(rects))
	}
	planes := make([]plane[int8], len(tiles))
	for i, t := range tiles {
		if math.Float32bits(t.Scale) != math.Float32bits(tiles[0].Scale) {
			return QTensor{}, fmt.Errorf("tensor: tile %d scale %g mismatches %g", i, t.Scale, tiles[0].Scale)
		}
		planes[i] = plane[int8]{t.C, t.H, t.W, t.Data}
	}
	out := AllocQ(tiles[0].C, h, w, tiles[0].Scale)
	if err := stitchRegions(out.Data, out.C, h, w, planes, rects); err != nil {
		RecycleQ(out)
		return QTensor{}, err
	}
	return out, nil
}

// EqualQ reports exact equality of extent, scale bits and data.
func EqualQ(a, b QTensor) bool {
	if a.C != b.C || a.H != b.H || a.W != b.W || len(a.Data) != len(b.Data) {
		return false
	}
	if math.Float32bits(a.Scale) != math.Float32bits(b.Scale) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// qarena pools int8 backing slices like the float arena; the same class
// bounds apply (an int8 slab of class c is a quarter the bytes of the float
// one, still worth pooling).
var qarena [arenaMaxBits + 1]sync.Pool

// AllocQ returns an int8 tensor of the given extent and scale, arena-backed
// when possible. Contents are UNSPECIFIED, exactly like Alloc.
func AllocQ(c, h, w int, scale float32) QTensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid extent %dx%dx%d", c, h, w))
	}
	n := c * h * w
	cl := arenaClass(n)
	if cl < 0 {
		return QTensor{C: c, H: h, W: w, Scale: scale, Data: make([]int8, n)}
	}
	if v := qarena[cl].Get(); v != nil {
		slab := v.(*[]int8)
		return QTensor{C: c, H: h, W: w, Scale: scale, Data: (*slab)[:n], slab: slab}
	}
	s := make([]int8, 1<<cl)
	return QTensor{C: c, H: h, W: w, Scale: scale, Data: s[:n], slab: &s}
}

// RecycleQ returns an int8 tensor's backing slice to the arena; same
// ownership contract as Recycle.
func RecycleQ(q QTensor) {
	if q.slab == nil {
		return
	}
	n := cap(*q.slab)
	if n == 0 || n&(n-1) != 0 {
		return
	}
	cl := bits.Len(uint(n)) - 1
	if cl < arenaMinBits || cl > arenaMaxBits {
		return
	}
	qarena[cl].Put(q.slab)
}

// qconvWeights is a convolution quantized for int8 inference. wq mirrors
// convWeights.w's [outC][icg][kh][kw] layout with per-output-channel
// symmetric scales. The requantize epilogue folds everything that follows
// the integer accumulation into one affine per channel:
//
//	out_q = clampToInt8(round(float32(acc) * effScale[oc] + effBias[oc]))
//
// where effScale = sIn * sW[oc] * bnScale[oc] / sOut and effBias =
// (bias[oc] * bnScale[oc] + bnShift[oc]) / sOut — the convolution bias and
// the folded batch-norm affine ride along for free, and the activation is
// applied in the sOut-scaled domain (valid because sOut > 0).
type qconvWeights struct {
	wq       []int8
	effScale []float32
	effBias  []float32
	blocks   []qocBlock
}

// qocBlock is the int8 register tile. Unlike the float ocBlock, packed is
// always built — integer accumulation needs no zero-tap skip or raggedness
// fallback for bit-identity, so ragged tail blocks simply zero-pad the
// missing channels (their lanes are computed and discarded).
type qocBlock struct {
	oc0    int
	width  int
	icBase int
	// packed[((g*KH+kh)*KW+kw)*ocBlockWidth + b] = wq[oc0+b][icBase+g][kh][kw]
	packed []int8
	// packed32 is the same layout pre-widened to int32 for kernels whose
	// inner loop wants 32-bit weight lanes (the SIMD pointwise tile
	// broadcasts them directly instead of sign-extending per use).
	packed32 []int32
	// packedPair packs input-channel pairs for the VPMADDWD pointwise
	// tile: dword [p*4+b] holds channel 2p's weight for lane b in its low
	// int16 and channel 2p+1's in its high int16. Only built for 1x1
	// ungrouped convolutions; an odd trailing channel is handled by the
	// dispatch tail, not padded here.
	packedPair []int32
}

// genQConv derives the int8 form of already-generated float weights. icg is
// input channels per group; sIn/sOut are the activation scales at the
// layer's input and output boundaries.
func genQConv(cw *convWeights, l *nn.Layer, icg int, sIn, sOut float32) *qconvWeights {
	perOC := icg * l.KH * l.KW
	qw := &qconvWeights{
		wq:       make([]int8, len(cw.w)),
		effScale: make([]float32, l.OutC),
		effBias:  make([]float32, l.OutC),
	}
	for oc := 0; oc < l.OutC; oc++ {
		ws := cw.w[oc*perOC : (oc+1)*perOC]
		sW := scaleFor(maxAbs(ws))
		inv := 1 / sW
		for i, w := range ws {
			qw.wq[oc*perOC+i] = quantClamp(w * inv)
		}
		bnS, bnSh := float32(1), float32(0)
		if cw.bnScale != nil {
			bnS, bnSh = cw.bnScale[oc], cw.bnShift[oc]
		}
		qw.effScale[oc] = sIn * sW * bnS / sOut
		qw.effBias[oc] = (cw.bias[oc]*bnS + bnSh) / sOut
	}
	qw.pack(l, icg)
	return qw
}

// pack builds the always-dense int8 register-tile plan.
func (qw *qconvWeights) pack(l *nn.Layer, icg int) {
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	ocg := l.OutC / groups
	perOC := icg * l.KH * l.KW
	for g := 0; g < groups; g++ {
		for oc0 := g * ocg; oc0 < (g+1)*ocg; oc0 += ocBlockWidth {
			blk := qocBlock{
				oc0:    oc0,
				width:  min(ocBlockWidth, (g+1)*ocg-oc0),
				icBase: g * icg,
				packed: make([]int8, icg*l.KH*l.KW*ocBlockWidth),
			}
			for b := 0; b < blk.width; b++ {
				base := (oc0 + b) * perOC
				for gg := 0; gg < icg; gg++ {
					for kh := 0; kh < l.KH; kh++ {
						for kw := 0; kw < l.KW; kw++ {
							blk.packed[((gg*l.KH+kh)*l.KW+kw)*ocBlockWidth+b] =
								qw.wq[base+(gg*l.KH+kh)*l.KW+kw]
						}
					}
				}
			}
			blk.packed32 = make([]int32, len(blk.packed))
			for i, v := range blk.packed {
				blk.packed32[i] = int32(v)
			}
			if groups == 1 && l.KH == 1 && l.KW == 1 && icg >= 2 {
				blk.packedPair = make([]int32, (icg/2)*ocBlockWidth)
				for p := 0; p < icg/2; p++ {
					for b := 0; b < ocBlockWidth; b++ {
						we := blk.packed32[(2*p)*ocBlockWidth+b]
						wo := blk.packed32[(2*p+1)*ocBlockWidth+b]
						blk.packedPair[p*ocBlockWidth+b] =
							int32(uint32(uint16(int16(we))) | uint32(wo)<<16)
					}
				}
			}
			qw.blocks = append(qw.blocks, blk)
		}
	}
}

// qfcWeights is a fully connected layer quantized like qconvWeights, with
// per-output-feature weight scales.
type qfcWeights struct {
	wq       []int8
	effScale []float32
	effBias  []float32
}

func genQFC(fw *fcWeights, l *nn.Layer, inElems int, sIn, sOut float32) *qfcWeights {
	qw := &qfcWeights{
		wq:       make([]int8, len(fw.w)),
		effScale: make([]float32, l.OutF),
		effBias:  make([]float32, l.OutF),
	}
	for o := 0; o < l.OutF; o++ {
		ws := fw.w[o*inElems : (o+1)*inElems]
		sW := scaleFor(maxAbs(ws))
		inv := 1 / sW
		for i, w := range ws {
			qw.wq[o*inElems+i] = quantClamp(w * inv)
		}
		qw.effScale[o] = sIn * sW / sOut
		qw.effBias[o] = fw.bias[o] / sOut
	}
	return qw
}

// maxAbs returns the largest absolute value in xs (0 for an empty slice).
func maxAbs(xs []float32) float32 {
	var m float32
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// scaleFor maps a maximum absolute value to a symmetric int8 scale. A zero
// or non-finite range degrades to scale 1 so downstream math stays finite.
func scaleFor(maxabs float32) float32 {
	m := float64(maxabs)
	if !(m > 0) || math.IsInf(m, 0) || math.IsNaN(m) {
		return 1
	}
	return maxabs / 127
}

// requantRow applies the fused requantize+activation epilogue to one
// finished int32 accumulator row. This single function is shared by the
// reference and blocked quantized kernels: the int32 accumulators they
// produce are bit-identical by associativity, and funnelling the only float
// math through one code path keeps the final int8 outputs bit-identical
// too. The activation runs in the sOut-scaled domain, where ReLU and
// LeakyReLU commute with the positive rescale. The vector epilogue performs
// the identical IEEE operation sequence (separate multiply and add — never
// fused — plus quantClamp's clamp-then-round-half-away), so it is
// bit-identical to requantRowRef on every lane; the property suite asserts
// it.
func requantRow(dst []int8, acc []int32, scale, bias float32, act nn.Activation) {
	n := len(acc)
	i := 0
	if simdQuant && n >= 8 {
		code := 0
		switch act {
		case nn.ReLU:
			code = 1
		case nn.LeakyReLU:
			code = 2
		}
		m := n &^ 7
		qrequantRow8(&dst[0], &acc[0], scale, bias, code, m)
		i = m
	}
	for ; i < n; i++ {
		dst[i] = requant1(acc[i], scale, bias, act)
	}
}

// requantRowRef is the scalar reference epilogue the vector form is
// property-tested against.
func requantRowRef(dst []int8, acc []int32, scale, bias float32, act nn.Activation) {
	switch act {
	case nn.ReLU:
		for i, a := range acc {
			v := float32(a)*scale + bias
			if v < 0 {
				v = 0
			}
			dst[i] = quantClamp(v)
		}
	case nn.LeakyReLU:
		for i, a := range acc {
			v := float32(a)*scale + bias
			if v < 0 {
				v = 0.1 * v
			}
			dst[i] = quantClamp(v)
		}
	default:
		for i, a := range acc {
			dst[i] = quantClamp(float32(a)*scale + bias)
		}
	}
}

// requant1 is the scalar form of requantRow; the register-tiled pointwise
// kernel uses it on accumulators that never touch memory.
func requant1(a int32, scale, bias float32, act nn.Activation) int8 {
	v := float32(a)*scale + bias
	if v < 0 {
		switch act {
		case nn.ReLU:
			v = 0
		case nn.LeakyReLU:
			v = 0.1 * v
		}
	}
	return quantClamp(v)
}

// applyActivationQ applies an activation directly in the quantized domain
// (zero-point 0 makes ReLU an integer clamp; LeakyReLU requantizes the
// scaled negative). Pool layers use it, conv/fc fold activation into the
// requantize epilogue instead.
func applyActivationQ(xs []int8, a nn.Activation) {
	switch a {
	case nn.ReLU:
		for i, v := range xs {
			if v < 0 {
				xs[i] = 0
			}
		}
	case nn.LeakyReLU:
		for i, v := range xs {
			if v < 0 {
				xs[i] = quantClamp(0.1 * float32(v))
			}
		}
	}
}
