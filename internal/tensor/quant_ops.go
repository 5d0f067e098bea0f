package tensor

import (
	"fmt"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Quantized kernels. All of them accumulate in int32 and emit int8 through
// the shared requantize epilogue (see quant.go). Because integer addition is
// associative, the blocked kernels may reorder and batch accumulation freely
// and still match qconvForwardRef bit for bit — the property tests assert
// exactly that, mirroring the float32 contract.

// qconvForward dispatches the blocked int8 convolution kernels, mirroring
// convForward's shape dispatch.
func qconvForward(in QTensor, inLo, inHGlobal int, l *nn.Layer, qw *qconvWeights, outLo, outHi, par int) QTensor {
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	ocg := l.OutC / groups
	switch {
	case groups > 1 && icg == 1 && ocg == 1:
		return qconvForwardDepthwise(in, inLo, inHGlobal, l, qw, outLo, outHi, par)
	case groups == 1 && l.KH == 1 && l.KW == 1 && l.SH == 1 && l.SW == 1 && l.PH == 0 && l.PW == 0:
		if pointwiseSIMDAvailable((outHi - outLo) * in.W) {
			return qconvForwardPointwiseSIMD(in, inLo, inHGlobal, l, qw, outLo, outHi, par)
		}
		return qconvForwardPointwise(in, inLo, inHGlobal, l, qw, outLo, outHi, par)
	default:
		outW := (in.W+2*l.PW-l.KW)/l.SW + 1
		out := partition.Rect{Rows: partition.Range{Lo: outLo, Hi: outHi}, Cols: partition.Full(outW)}
		return qconvForwardRect(in, inLo, 0, inHGlobal, in.W, l, qw, out, par)
	}
}

// qconvForwardRef is the naive per-element reference: for every output cell
// it walks (ic, kh, kw) with full bounds checks and a single int32
// accumulator. The blocked kernels are property-tested bit-identical to it.
func qconvForwardRef(in QTensor, inLo, inHGlobal int, l *nn.Layer, qw *qconvWeights, outLo, outHi, par int) QTensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := AllocQ(l.OutC, outRows, outW, 1)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	ocg := l.OutC / groups
	perOC := icg * l.KH * l.KW
	parallelFor(l.OutC*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			oc := t / outRows
			or := t % outRows
			icBase := (oc / ocg) * icg
			dst := out.Data[t*outW : (t+1)*outW]
			ohGlobal := outLo + or
			for ow := 0; ow < outW; ow++ {
				var acc int32
				for g := 0; g < icg; g++ {
					ic := icBase + g
					for kh := 0; kh < l.KH; kh++ {
						ihGlobal := ohGlobal*l.SH - l.PH + kh
						if ihGlobal < 0 || ihGlobal >= inHGlobal {
							continue // zero padding row
						}
						ih := ihGlobal - inLo
						if ih < 0 || ih >= in.H {
							panic(fmt.Sprintf("tensor: qconv needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
						}
						for kw := 0; kw < l.KW; kw++ {
							iw := ow*l.SW - l.PW + kw
							if iw < 0 || iw >= in.W {
								continue
							}
							w := qw.wq[oc*perOC+(g*l.KH+kh)*l.KW+kw]
							acc += int32(w) * int32(in.Data[(ic*in.H+ih)*in.W+iw])
						}
					}
				}
				dst[ow] = requant1(acc, qw.effScale[oc], qw.effBias[oc], l.Act)
			}
		}
	})
	return out
}

// qconvRowBlk accumulates one packed int8 kernel row into four int32
// accumulator rows (accBuf at stride accStride) in a single sweep over the
// input row. Column geometry is expressed in GLOBAL coordinates so the same
// primitive serves whole-width strips (outColLo = inColLo = 0, inWGlobal =
// len(inRow)) and 2D grid tiles, whose tap bounds clamp against the full
// feature map while indexing the local tile rows. Dense stride-1 and
// stride-2 spans run through the vector tiles (see quant_simd.go).
func qconvRowBlk(accBuf []int32, accStride int, inRow []int8, pk32 []int32, kw, sw, pw, outColLo, inColLo, inWGlobal, outCols int) {
	if kw == 3 && sw == 1 && simdMac3 {
		// Dense interior where all three taps land in-bounds: run the fused
		// VPMADDWD tap-pair kernel there and sweep only the edge columns
		// tap-by-tap. Wrapping int32 addition makes the tap regrouping
		// bit-identical to the sequential tap sweep.
		olo := pw - outColLo
		if olo < 0 {
			olo = 0
		}
		ohi := inWGlobal - 2 + pw - outColLo
		if ohi > outCols {
			ohi = outCols
		}
		if olo < ohi && ohi-olo >= 16 {
			qconvRowBlkTaps(accBuf, accStride, inRow, pk32, kw, sw, pw, outColLo, inColLo, inWGlobal, 0, olo)
			n := ohi - olo
			iwFirst := outColLo + olo - pw - inColLo
			if iwFirst < 0 || iwFirst+n+1 >= len(inRow) {
				panic(fmt.Sprintf("tensor: qconv fused taps need cols [%d,%d] outside local row [0,%d)", iwFirst, iwFirst+n+1, len(inRow)))
			}
			mac3Rows4(accBuf[olo:], accStride, inRow[iwFirst:], pk32, n)
			qconvRowBlkTaps(accBuf, accStride, inRow, pk32, kw, sw, pw, outColLo, inColLo, inWGlobal, ohi, outCols)
			return
		}
	}
	qconvRowBlkTaps(accBuf, accStride, inRow, pk32, kw, sw, pw, outColLo, inColLo, inWGlobal, 0, outCols)
}

// qconvRowBlkTaps sweeps taps one at a time over output columns [oclA,oclB)
// of the row block; it is the edge/general form behind qconvRowBlk.
func qconvRowBlkTaps(accBuf []int32, accStride int, inRow []int8, pk32 []int32, kw, sw, pw, outColLo, inColLo, inWGlobal, oclA, oclB int) {
	for x := 0; x < kw; x++ {
		// Global input column touched by tap x of the first output column.
		base := outColLo*sw - pw + x
		oclLo := oclA
		if base < 0 {
			if lo := (-base + sw - 1) / sw; lo > oclLo {
				oclLo = lo
			}
		}
		oclHi := oclB
		if maxO := (inWGlobal - 1 - base) / sw; maxO+1 < oclHi {
			oclHi = maxO + 1
		}
		if oclLo >= oclHi {
			continue
		}
		n := oclHi - oclLo
		iwFirst := base + oclLo*sw - inColLo
		if iwFirst < 0 || iwFirst+(n-1)*sw >= len(inRow) {
			panic(fmt.Sprintf("tensor: qconv tap needs cols [%d,%d] outside local row [0,%d)", iwFirst, iwFirst+(n-1)*sw, len(inRow)))
		}
		w := pk32[x*ocBlockWidth : x*ocBlockWidth+ocBlockWidth]
		if sw <= 2 {
			macRows4(accBuf[oclLo:], accStride, inRow[iwFirst:], w, sw, n)
			continue
		}
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		a0 := accBuf
		a1 := accBuf[accStride:]
		a2 := accBuf[2*accStride:]
		a3 := accBuf[3*accStride:]
		iw := iwFirst
		for ow := oclLo; ow < oclHi; ow++ {
			vi := int32(inRow[iw])
			a0[ow] += w0 * vi
			a1[ow] += w1 * vi
			a2[ow] += w2 * vi
			a3[ow] += w3 * vi
			iw += sw
		}
	}
}

// qconvForwardPointwise is the throughput-critical kernel: 1x1 stride-1
// channel mixers are ~94% of MobileNetV1's MACs. It register-tiles 4 output
// channels x 4 output columns so the 16 int32 accumulators live in
// registers across the whole input-channel reduction — the float pointwise
// kernel's accumulator rows bounce through L1 every channel, which is
// exactly the traffic the int8 path eliminates.
func qconvForwardPointwise(in QTensor, inLo, inHGlobal int, l *nn.Layer, qw *qconvWeights, outLo, outHi, par int) QTensor {
	outW := in.W
	outRows := outHi - outLo
	out := AllocQ(l.OutC, outRows, outW, 1)
	rowStride := in.H * in.W
	grain := grainFor(ocBlockWidth * in.C * outW)
	parallelForGrain(len(qw.blocks)*outRows, par, grain, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			blk := &qw.blocks[u/outRows]
			or := u % outRows
			ih := outLo + or - inLo
			if ih < 0 || ih >= in.H {
				panic(fmt.Sprintf("tensor: qconv needs global row %d outside tile [%d,%d)", outLo+or, inLo, inLo+in.H))
			}
			inBase := ih * in.W
			var dsts [ocBlockWidth][]int8
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				dsts[b] = out.Data[(oc*outRows+or)*outW : (oc*outRows+or+1)*outW]
			}
			es0, eb0 := qw.effScale[blk.oc0], qw.effBias[blk.oc0]
			es1, eb1 := es0, eb0
			es2, eb2 := es0, eb0
			es3, eb3 := es0, eb0
			if blk.width > 1 {
				es1, eb1 = qw.effScale[blk.oc0+1], qw.effBias[blk.oc0+1]
			}
			if blk.width > 2 {
				es2, eb2 = qw.effScale[blk.oc0+2], qw.effBias[blk.oc0+2]
			}
			if blk.width > 3 {
				es3, eb3 = qw.effScale[blk.oc0+3], qw.effBias[blk.oc0+3]
			}
			act := l.Act
			x := 0
			for ; x+4 <= outW; x += 4 {
				var a00, a01, a02, a03 int32
				var a10, a11, a12, a13 int32
				var a20, a21, a22, a23 int32
				var a30, a31, a32, a33 int32
				idx := inBase + x
				for g := 0; g < in.C; g++ {
					src := in.Data[idx : idx+4 : idx+4]
					v0 := int32(src[0])
					v1 := int32(src[1])
					v2 := int32(src[2])
					v3 := int32(src[3])
					pk := blk.packed[g*ocBlockWidth : g*ocBlockWidth+4 : g*ocBlockWidth+4]
					w := int32(pk[0])
					a00 += w * v0
					a01 += w * v1
					a02 += w * v2
					a03 += w * v3
					w = int32(pk[1])
					a10 += w * v0
					a11 += w * v1
					a12 += w * v2
					a13 += w * v3
					w = int32(pk[2])
					a20 += w * v0
					a21 += w * v1
					a22 += w * v2
					a23 += w * v3
					w = int32(pk[3])
					a30 += w * v0
					a31 += w * v1
					a32 += w * v2
					a33 += w * v3
					idx += rowStride
				}
				d := dsts[0]
				d[x] = requant1(a00, es0, eb0, act)
				d[x+1] = requant1(a01, es0, eb0, act)
				d[x+2] = requant1(a02, es0, eb0, act)
				d[x+3] = requant1(a03, es0, eb0, act)
				if blk.width > 1 {
					d = dsts[1]
					d[x] = requant1(a10, es1, eb1, act)
					d[x+1] = requant1(a11, es1, eb1, act)
					d[x+2] = requant1(a12, es1, eb1, act)
					d[x+3] = requant1(a13, es1, eb1, act)
				}
				if blk.width > 2 {
					d = dsts[2]
					d[x] = requant1(a20, es2, eb2, act)
					d[x+1] = requant1(a21, es2, eb2, act)
					d[x+2] = requant1(a22, es2, eb2, act)
					d[x+3] = requant1(a23, es2, eb2, act)
				}
				if blk.width > 3 {
					d = dsts[3]
					d[x] = requant1(a30, es3, eb3, act)
					d[x+1] = requant1(a31, es3, eb3, act)
					d[x+2] = requant1(a32, es3, eb3, act)
					d[x+3] = requant1(a33, es3, eb3, act)
				}
			}
			for ; x < outW; x++ {
				var a0, a1, a2, a3 int32
				idx := inBase + x
				for g := 0; g < in.C; g++ {
					v := int32(in.Data[idx])
					pk := blk.packed[g*ocBlockWidth : g*ocBlockWidth+4 : g*ocBlockWidth+4]
					a0 += int32(pk[0]) * v
					a1 += int32(pk[1]) * v
					a2 += int32(pk[2]) * v
					a3 += int32(pk[3]) * v
					idx += rowStride
				}
				dsts[0][x] = requant1(a0, es0, eb0, act)
				if blk.width > 1 {
					dsts[1][x] = requant1(a1, es1, eb1, act)
				}
				if blk.width > 2 {
					dsts[2][x] = requant1(a2, es2, eb2, act)
				}
				if blk.width > 3 {
					dsts[3][x] = requant1(a3, es3, eb3, act)
				}
			}
		}
	})
	return out
}

// qpwTileCols is the column width of the SIMD pointwise tile: 4 output
// channels x 16 int32 accumulators fill eight 256-bit registers.
const qpwTileCols = 16

// qconvForwardPointwiseSIMD is the vector form of qconvForwardPointwise.
// A stride-1 unpadded 1x1 convolution maps output rows 1:1 onto input rows,
// so a whole strip flattens into one contiguous span of outRows*outW
// columns per channel; the kernel walks it in 16-column tiles whose 64
// int32 accumulators stay in registers across the full input-channel
// reduction (see simd_amd64.s). The final partial tile re-runs overlapped
// with its predecessor: accumulators restart from zero each tile, so the
// overlap recomputes byte-identical values. Bit-identity with the scalar
// kernels holds because vector multiply/add wraps exactly like Go int32.
func qconvForwardPointwiseSIMD(in QTensor, inLo, inHGlobal int, l *nn.Layer, qw *qconvWeights, outLo, outHi, par int) QTensor {
	outW := in.W
	outRows := outHi - outLo
	out := AllocQ(l.OutC, outRows, outW, 1)
	n := outRows * outW
	ihBase := outLo - inLo
	if ihBase < 0 || ihBase+outRows > in.H {
		panic(fmt.Sprintf("tensor: qconv needs global rows [%d,%d) outside tile [%d,%d)", outLo, outHi, inLo, inLo+in.H))
	}
	chanStride := in.H * in.W
	base := ihBase * in.W
	parallelForGrain(len(qw.blocks), par, grainFor(ocBlockWidth*in.C*n), func(lo, hi int) {
		var tile [ocBlockWidth * qpwTileCols]int32
		for u := lo; u < hi; u++ {
			blk := &qw.blocks[u]
			var dsts [ocBlockWidth][]int8
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				dsts[b] = out.Data[oc*n : (oc+1)*n]
			}
			for x0 := 0; ; x0 += qpwTileCols {
				if x0+qpwTileCols > n {
					x0 = n - qpwTileCols // overlapped tail, recomputed bit-identically
				}
				qpwTileDispatch(&tile, in.Data[base+x0:], blk, in.C, chanStride)
				for b := 0; b < blk.width; b++ {
					oc := blk.oc0 + b
					dst := dsts[b][x0 : x0+qpwTileCols]
					requantRow(dst, tile[b*qpwTileCols:(b+1)*qpwTileCols], qw.effScale[oc], qw.effBias[oc], l.Act)
				}
				if x0+qpwTileCols >= n {
					break
				}
			}
		}
	})
	return out
}

// qconvForwardDepthwise handles groups == channels int8 convolutions with a
// per-tap hoisted-bounds sweep into an int32 accumulator row.
func qconvForwardDepthwise(in QTensor, inLo, inHGlobal int, l *nn.Layer, qw *qconvWeights, outLo, outHi, par int) QTensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := AllocQ(l.OutC, outRows, outW, 1)
	grain := grainFor(l.KH * l.KW * outW)
	perOC := l.KH * l.KW
	parallelForGrain(l.OutC*outRows, par, grain, func(lo, hi int) {
		acc := make([]int32, outW)
		for t := lo; t < hi; t++ {
			oc := t / outRows
			or := t % outRows
			for i := range acc {
				acc[i] = 0
			}
			ohGlobal := outLo + or
			for kh := 0; kh < l.KH; kh++ {
				ihGlobal := ohGlobal*l.SH - l.PH + kh
				if ihGlobal < 0 || ihGlobal >= inHGlobal {
					continue // zero padding row
				}
				ih := ihGlobal - inLo
				if ih < 0 || ih >= in.H {
					panic(fmt.Sprintf("tensor: qconv needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
				}
				inRow := in.Data[(oc*in.H+ih)*in.W : (oc*in.H+ih+1)*in.W]
				wrow := qw.wq[oc*perOC+kh*l.KW : oc*perOC+(kh+1)*l.KW]
				qconvRowDW(acc, inRow, wrow, l.SW, l.PW, in.W, outW)
			}
			dst := out.Data[t*outW : (t+1)*outW]
			requantRow(dst, acc, qw.effScale[oc], qw.effBias[oc], l.Act)
		}
	})
	return out
}

// qconvRowDW accumulates one int8 kernel row over one input row. For the
// ubiquitous dense stride-1 3-tap case all three taps fuse into a single
// sweep (one accumulator-row pass instead of three).
func qconvRowDW(acc []int32, inRow []int8, wrow []int8, sw, pw, inW, outW int) {
	if sw == 1 && len(wrow) == 3 {
		w0, w1, w2 := int32(wrow[0]), int32(wrow[1]), int32(wrow[2])
		// Interior columns where all three taps are in range.
		loI := pw
		hiI := inW - 2 + pw
		if loI < 0 {
			loI = 0
		}
		if hiI > outW {
			hiI = outW
		}
		for _, b := range [2][2]int{{0, min(loI, outW)}, {max(hiI, 0), outW}} {
			for ow := b[0]; ow < b[1]; ow++ {
				iw := ow - pw
				var a int32
				if iw >= 0 && iw < inW {
					a += w0 * int32(inRow[iw])
				}
				if iw+1 >= 0 && iw+1 < inW {
					a += w1 * int32(inRow[iw+1])
				}
				if iw+2 >= 0 && iw+2 < inW {
					a += w2 * int32(inRow[iw+2])
				}
				acc[ow] += a
			}
		}
		if loI < hiI {
			n := hiI - loI
			w4 := [4]int32{w0, w1, w2, 0}
			dw3Row(acc[loI:][:n], inRow[loI-pw:], &w4, n)
		}
		return
	}
	for x, wv := range wrow {
		w := int32(wv)
		iwOff := x - pw
		owLo := 0
		if iwOff < 0 {
			owLo = (-iwOff + sw - 1) / sw
		}
		owHi := outW
		if maxOw := (inW - 1 - iwOff) / sw; maxOw+1 < owHi {
			owHi = maxOw + 1
		}
		iw := owLo*sw + iwOff
		for ow := owLo; ow < owHi; ow++ {
			acc[ow] += w * int32(inRow[iw])
			iw += sw
		}
	}
}

// qpoolForward pools directly in the quantized domain: max pooling compares
// int8 values exactly, average pooling sums valid cells into int32 and
// requantizes the float mean. The output inherits the input scale (a pooled
// value never leaves the input's range), which is why calibration assigns
// pool boundaries the pass-through scale. The kernel is tap-major (one
// hoisted-bounds sweep per kernel tap, like the float poolForward), with a
// vector row-pair reduction for the ubiquitous unpadded 2x2 stride-2 max;
// max is associative/commutative and the valid-cell count of an avg window
// separates into rowCount*colCount, so both orders are bit-identical to the
// per-cell reference qpoolForwardRef.
func qpoolForward(in QTensor, inLo, inHGlobal int, l *nn.Layer, outLo, outHi, par int) QTensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := AllocQ(in.C, outRows, outW, in.Scale)
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outW)
	fast := isMax && l.KH == 2 && l.KW == 2 && l.SH == 2 && l.SW == 2 && l.PH == 0 && l.PW == 0
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		var acc []int32
		var cntW []int32
		if !fast {
			acc = make([]int32, outW)
			if !isMax {
				cntW = make([]int32, outW)
			}
		}
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := out.Data[t*outW : (t+1)*outW]
			ohGlobal := outLo + or
			if fast {
				ihA := ohGlobal*2 - inLo
				if ihA < 0 || ihA+1 >= in.H {
					panic(fmt.Sprintf("tensor: qpool needs global rows %d,%d outside tile [%d,%d)", ohGlobal*2, ohGlobal*2+1, inLo, inLo+in.H))
				}
				rowA := in.Data[(c*in.H+ihA)*in.W : (c*in.H+ihA+1)*in.W]
				rowB := in.Data[(c*in.H+ihA+1)*in.W : (c*in.H+ihA+2)*in.W]
				maxPairRow(dst, rowA, rowB, outW)
				applyActivationQ(dst, l.Act)
				continue
			}
			if isMax {
				for i := range acc {
					acc[i] = -128
				}
			} else {
				for i := range acc {
					acc[i] = 0
				}
			}
			countH := int32(0)
			for kh := 0; kh < l.KH; kh++ {
				ihGlobal := ohGlobal*l.SH - l.PH + kh
				if ihGlobal < 0 || ihGlobal >= inHGlobal {
					continue
				}
				ih := ihGlobal - inLo
				if ih < 0 || ih >= in.H {
					panic(fmt.Sprintf("tensor: qpool needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
				}
				countH++
				inRow := in.Data[(c*in.H+ih)*in.W : (c*in.H+ih+1)*in.W]
				for kw := 0; kw < l.KW; kw++ {
					iwOff := kw - l.PW
					owLo := 0
					if iwOff < 0 {
						owLo = (-iwOff + l.SW - 1) / l.SW
					}
					owHi := outW
					if maxOw := (in.W - 1 - iwOff) / l.SW; maxOw+1 < owHi {
						owHi = maxOw + 1
					}
					iw := owLo*l.SW + iwOff
					if isMax {
						for ow := owLo; ow < owHi; ow++ {
							if v := int32(inRow[iw]); v > acc[ow] {
								acc[ow] = v
							}
							iw += l.SW
						}
					} else {
						for ow := owLo; ow < owHi; ow++ {
							acc[ow] += int32(inRow[iw])
							iw += l.SW
						}
					}
				}
			}
			if isMax {
				for ow, v := range acc {
					dst[ow] = int8(v)
				}
			} else {
				// Column validity is row-independent, so each window's
				// valid-cell count is countH * (valid columns at ow).
				for i := range cntW {
					cntW[i] = 0
				}
				for kw := 0; kw < l.KW; kw++ {
					iwOff := kw - l.PW
					owLo := 0
					if iwOff < 0 {
						owLo = (-iwOff + l.SW - 1) / l.SW
					}
					owHi := outW
					if maxOw := (in.W - 1 - iwOff) / l.SW; maxOw+1 < owHi {
						owHi = maxOw + 1
					}
					for ow := owLo; ow < owHi; ow++ {
						cntW[ow]++
					}
				}
				for ow, sum := range acc {
					if count := countH * cntW[ow]; count > 0 {
						dst[ow] = quantClamp(float32(sum) / float32(count))
					} else {
						dst[ow] = 0
					}
				}
			}
			applyActivationQ(dst, l.Act)
		}
	})
	return out
}

// qpoolForwardRef is the naive per-cell reference for qpoolForward: every
// output walks its full window with bounds checks. The tap-major kernel is
// property-tested bit-identical to it.
func qpoolForwardRef(in QTensor, inLo, inHGlobal int, l *nn.Layer, outLo, outHi, par int) QTensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := AllocQ(in.C, outRows, outW, in.Scale)
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outW)
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := out.Data[t*outW : (t+1)*outW]
			ohGlobal := outLo + or
			for ow := 0; ow < outW; ow++ {
				macc := int32(-128)
				var sum, count int32
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue
					}
					ih := ihGlobal - inLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: qpool needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
					}
					for kw := 0; kw < l.KW; kw++ {
						iw := ow*l.SW - l.PW + kw
						if iw < 0 || iw >= in.W {
							continue
						}
						v := int32(in.At(c, ih, iw))
						if isMax {
							if v > macc {
								macc = v
							}
						} else {
							sum += v
						}
						count++
					}
				}
				if isMax {
					dst[ow] = int8(macc)
				} else if count > 0 {
					dst[ow] = quantClamp(float32(sum) / float32(count))
				} else {
					dst[ow] = 0
				}
			}
			applyActivationQ(dst, l.Act)
		}
	})
	return out
}

// qgapForward is the quantized global average pool; like qpoolForward it
// keeps the input scale.
func qgapForward(in QTensor, l *nn.Layer, par int) QTensor {
	out := AllocQ(in.C, 1, 1, in.Scale)
	per := in.H * in.W
	parallelForGrain(in.C, par, grainFor(per), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			acc := sumI8(in.Data[c*per : (c+1)*per])
			out.Data[c] = quantClamp(float32(acc) / float32(per))
		}
	})
	applyActivationQ(out.Data, l.Act)
	return out
}

// qfcForward computes a quantized fully connected layer through the vector
// int8 dot kernel (scalar hosts fall back to a serial dot); integer
// associativity makes any lane split bit-identical to the serial reference.
func qfcForward(in QTensor, l *nn.Layer, qw *qfcWeights, par int) QTensor {
	out := AllocQ(l.OutF, 1, 1, 1)
	n := in.Elems()
	parallelForGrain(l.OutF, par, grainFor(n), func(lo, hi int) {
		for o := lo; o < hi; o++ {
			acc := dotI8(qw.wq[o*n:][:n], in.Data[:n])
			out.Data[o] = requant1(acc, qw.effScale[o], qw.effBias[o], l.Act)
		}
	})
	return out
}

// qfcForwardRef is the serial-dot-product reference for qfcForward.
func qfcForwardRef(in QTensor, l *nn.Layer, qw *qfcWeights, par int) QTensor {
	out := AllocQ(l.OutF, 1, 1, 1)
	n := in.Elems()
	parallelFor(l.OutF, par, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			row := qw.wq[o*n : (o+1)*n]
			var acc int32
			for i, v := range in.Data {
				acc += int32(row[i]) * int32(v)
			}
			out.Data[o] = requant1(acc, qw.effScale[o], qw.effBias[o], l.Act)
		}
	})
	return out
}
