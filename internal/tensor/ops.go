package tensor

import (
	"fmt"
	"math"

	"pico/internal/nn"
	"pico/internal/partition"
)

// convForward computes output rows [outLo, outHi) of a convolution.
//
// in holds input rows [inLo, inLo+in.H) of a feature map whose true global
// height is inHGlobal; rows outside [0, inHGlobal) are zero padding. The
// width axis is never split, so left/right padding is handled normally.
// Accumulation order per output element is (ic, kh, kw) regardless of the
// tile, which makes tiled execution bit-identical to whole-map execution.
//
// This is a dispatcher over cache-blocked kernels that all preserve that
// per-element order exactly (see DESIGN.md): a depthwise path (groups ==
// channels), a 1x1 stride-1 row-panel matmul path, and the general
// register-tiled rect kernel run at full width. convForwardRef keeps the
// original single-channel sweep for property tests and benchmarks.
func convForward(in Tensor, inLo, inHGlobal int, l *nn.Layer, wts *convWeights, outLo, outHi, par int) Tensor {
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	if len(wts.blocks) == 0 {
		// Hand-built weights without a register-tile plan (tests).
		return convForwardRef(in, inLo, inHGlobal, l, wts, outLo, outHi, par)
	}
	icg := in.C / groups
	ocg := l.OutC / groups
	switch {
	case groups > 1 && icg == 1 && ocg == 1:
		return convForwardDepthwise(in, inLo, inHGlobal, l, wts, outLo, outHi, par)
	case groups == 1 && l.KH == 1 && l.KW == 1 && l.SH == 1 && l.SW == 1 && l.PH == 0 && l.PW == 0:
		if floatPointwiseAvailable((outHi - outLo) * in.W) {
			return convForwardPointwiseSIMD(in, inLo, inHGlobal, l, wts, outLo, outHi, par)
		}
		return convForwardPointwise(in, inLo, inHGlobal, l, wts, outLo, outHi, par)
	default:
		outW := (in.W+2*l.PW-l.KW)/l.SW + 1
		out := partition.Rect{Rows: partition.Range{Lo: outLo, Hi: outHi}, Cols: partition.Full(outW)}
		return convForwardRectBlocked(in, inLo, 0, inHGlobal, in.W, l, wts, out, par)
	}
}

// convForwardRef is the pre-blocking engine: each (output channel, output
// row) pair re-reads its input rows independently. It remains the reference
// implementation that the blocked kernels are tested bit-identical against.
//
// The (output channel, output row) space is split into contiguous chunks
// executed on up to par pool workers. Each chunk owns a disjoint slice of
// the output and runs the unchanged per-element loop, so any worker count
// produces bit-identical results.
func convForwardRef(in Tensor, inLo, inHGlobal int, l *nn.Layer, wts *convWeights, outLo, outHi, par int) Tensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := Alloc(l.OutC, outRows, outW)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups // input channels per group
	ocg := l.OutC / groups
	parallelFor(l.OutC*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			oc := t / outRows
			or := t % outRows
			icBase := (oc / ocg) * icg
			acc := out.Data[t*outW : (t+1)*outW]
			for i := range acc {
				acc[i] = wts.bias[oc]
			}
			ohGlobal := outLo + or
			for g := 0; g < icg; g++ {
				ic := icBase + g
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue // zero padding row
					}
					ih := ihGlobal - inLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: conv needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					row := &wts.rows[(oc*icg+g)*l.KH+kh]
					convRow(acc, inRow, row, l.SW, l.PW, in.W, outW)
				}
			}
			finishChannel(acc, wts, oc, l.Act)
		}
	})
	return out
}

// convForwardPointwise handles 1x1 stride-1 unpadded convolutions — most of
// InceptionV3's channel mixers — as a blocked row-panel matrix multiply:
// output row or of an oc-block is sum over input channels of (scalar weight x
// input row), with no tap-bounds logic at all since output and input rows
// align 1:1.
func convForwardPointwise(in Tensor, inLo, inHGlobal int, l *nn.Layer, wts *convWeights, outLo, outHi, par int) Tensor {
	outW := in.W
	outRows := outHi - outLo
	out := Alloc(l.OutC, outRows, outW)
	grain := grainFor(ocBlockWidth * in.C * outW)
	parallelForGrain(len(wts.blocks)*outRows, par, grain, func(lo, hi int) {
		var accs [ocBlockWidth][]float32
		for u := lo; u < hi; u++ {
			blk := &wts.blocks[u/outRows]
			or := u % outRows
			ih := outLo + or - inLo
			if ih < 0 || ih >= in.H {
				panic(fmt.Sprintf("tensor: conv needs global row %d outside tile [%d,%d)", outLo+or, inLo, inLo+in.H))
			}
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				acc := out.Data[(oc*outRows+or)*outW : (oc*outRows+or+1)*outW]
				for i := range acc {
					acc[i] = wts.bias[oc]
				}
				accs[b] = acc
			}
			if blk.packed != nil {
				n := outW
				d0 := accs[0][:n]
				d1 := accs[1][:n]
				d2 := accs[2][:n]
				d3 := accs[3][:n]
				for g := 0; g < in.C; g++ {
					src := in.Data[(g*in.H+ih)*in.W:][:n]
					pk := blk.packed[g*ocBlockWidth:]
					w0, w1, w2, w3 := pk[0], pk[1], pk[2], pk[3]
					for i, v := range src {
						d0[i] += w0 * v
						d1[i] += w1 * v
						d2[i] += w2 * v
						d3[i] += w3 * v
					}
				}
			} else {
				for b := 0; b < blk.width; b++ {
					oc := blk.oc0 + b
					for g := 0; g < in.C; g++ {
						inRow := in.Data[(g*in.H+ih)*in.W:][:in.W]
						row := &wts.rows[oc*in.C+g]
						convRow(accs[b], inRow, row, 1, 0, in.W, outW)
					}
				}
			}
			for b := 0; b < blk.width; b++ {
				finishChannel(accs[b], wts, blk.oc0+b, l.Act)
			}
		}
	})
	return out
}

// convForwardPointwiseSIMD is the vector form of convForwardPointwise: the
// 1:1 row mapping lets the whole strip flatten into n = outRows*outW
// contiguous columns per channel, walked in 4-channel x 16-column tiles whose
// 64 float32 accumulators live in registers across the entire input-channel
// reduction. The tile seeds itself from the bias and accumulates channels in
// ascending order — the scalar kernel's exact chain per output element — and
// the overlapped final tile recomputes its columns from the bias again, so
// the overlap changes nothing.
func convForwardPointwiseSIMD(in Tensor, inLo, inHGlobal int, l *nn.Layer, wts *convWeights, outLo, outHi, par int) Tensor {
	outW := in.W
	outRows := outHi - outLo
	out := Alloc(l.OutC, outRows, outW)
	n := outRows * outW
	ihBase := outLo - inLo
	if ihBase < 0 || ihBase+outRows > in.H {
		panic(fmt.Sprintf("tensor: conv needs global rows [%d,%d) outside tile [%d,%d)", outLo, outHi, inLo, inLo+in.H))
	}
	chanStride := in.H * in.W
	base := ihBase * in.W
	parallelForGrain(len(wts.blocks), par, grainFor(ocBlockWidth*in.C*n), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			blk := &wts.blocks[u]
			if blk.packed == nil {
				// Ragged or sparse block: flattened per-channel sweep.
				for b := 0; b < blk.width; b++ {
					oc := blk.oc0 + b
					acc := out.Data[oc*n : (oc+1)*n]
					for i := range acc {
						acc[i] = wts.bias[oc]
					}
					for g := 0; g < in.C; g++ {
						src := in.Data[g*chanStride+base:][:n]
						row := &wts.rows[oc*in.C+g]
						convRow(acc, src, row, 1, 0, n, n)
					}
					finishChannel(acc, wts, oc, l.Act)
				}
				continue
			}
			acc := out.Data[blk.oc0*n:]
			for x0 := 0; ; x0 += fpwTileCols {
				if x0+fpwTileCols > n {
					x0 = n - fpwTileCols // overlapped tail, recomputed bit-identically
				}
				fpwTile16(&acc[x0], n, &in.Data[base+x0], chanStride, &blk.packed[0], &wts.bias[blk.oc0], in.C)
				if x0+fpwTileCols >= n {
					break
				}
			}
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				finishChannel(out.Data[oc*n:(oc+1)*n], wts, oc, l.Act)
			}
		}
	})
	return out
}

// convForwardDepthwise handles groups == channels convolutions — half of
// MobileNetV1's layers — where each output channel reads exactly one input
// channel. Register blocking across channels is impossible (adjacent output
// channels read different inputs), but dropping the grouped-index arithmetic
// and the inner channel loop still buys a measurable win on these thin
// kernels.
func convForwardDepthwise(in Tensor, inLo, inHGlobal int, l *nn.Layer, wts *convWeights, outLo, outHi, par int) Tensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := Alloc(l.OutC, outRows, outW)
	grain := grainFor(l.KH * l.KW * outW)
	parallelForGrain(l.OutC*outRows, par, grain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			oc := t / outRows
			or := t % outRows
			acc := out.Data[t*outW : (t+1)*outW]
			for i := range acc {
				acc[i] = wts.bias[oc]
			}
			ohGlobal := outLo + or
			for kh := 0; kh < l.KH; kh++ {
				ihGlobal := ohGlobal*l.SH - l.PH + kh
				if ihGlobal < 0 || ihGlobal >= inHGlobal {
					continue // zero padding row
				}
				ih := ihGlobal - inLo
				if ih < 0 || ih >= in.H {
					panic(fmt.Sprintf("tensor: conv needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
				}
				inRow := in.Data[(oc*in.H+ih)*in.W : (oc*in.H+ih+1)*in.W]
				row := &wts.rows[oc*l.KH+kh]
				if l.SW == 1 && l.KW == 3 && len(row.w) == 3 {
					// Dense stride-1 3-tap row (every MobileNet depthwise
					// layer): fuse the taps into one accumulator pass.
					convRow3(acc, inRow, row.w[0], row.w[1], row.w[2], l.PW, in.W, outW)
				} else {
					convRow(acc, inRow, row, l.SW, l.PW, in.W, outW)
				}
			}
			finishChannel(acc, wts, oc, l.Act)
		}
	})
	return out
}

// finishChannel applies the folded batch-norm affine and the activation to
// one finished output-channel row.
func finishChannel(acc []float32, wts *convWeights, oc int, act nn.Activation) {
	if wts.bnScale != nil {
		finishRowF(acc, wts.bnScale[oc], wts.bnShift[oc], true, act)
		return
	}
	finishRowF(acc, 0, 0, false, act)
}

// convRow accumulates one compacted kernel row over one input row. The taps
// iterate in ascending kw with zero weights already dropped at generation
// time, matching the original loop's order and w == 0 skip exactly.
func convRow(acc, inRow []float32, row *kernelRow, sw, pw, inW, outW int) {
	if sw == 1 {
		// Stride-1 fast path: the valid output span maps onto a
		// contiguous input span, so the inner loop is a bounds-check
		// free multiply-accumulate over two equal-length slices.
		for x, w := range row.w {
			iwOff := int(row.kw[x]) - pw
			owLo := 0
			if iwOff < 0 {
				owLo = -iwOff
			}
			owHi := outW
			if maxOw := inW - 1 - iwOff; maxOw+1 < owHi {
				owHi = maxOw + 1
			}
			if owLo >= owHi {
				continue
			}
			src := inRow[owLo+iwOff : owHi+iwOff]
			dst := acc[owLo:owHi]
			for i, v := range src {
				dst[i] += w * v
			}
		}
		return
	}
	for x, w := range row.w {
		// Valid output columns: 0 <= ow*SW - PW + kw < inW.
		iwOff := int(row.kw[x]) - pw
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
			acc[ow] += w * inRow[iw]
			iw += sw
		}
	}
}

// convRow3 accumulates a dense 3-tap stride-1 kernel row in a single sweep:
// the accumulator row is loaded and stored once instead of once per tap,
// which is the entire cost of a depthwise kernel. Per element the three
// multiply-adds are sequenced as separate statements in ascending kw — the
// identical float operation order to convRow's three per-tap passes — so
// results stay bit-identical to the reference. Callers must guarantee the
// row is dense (no zero taps dropped by compact): a skipped tap in the
// reference would make even adding a zero non-identical around signed
// zeros.
func convRow3(acc, inRow []float32, w0, w1, w2 float32, pw, inW, outW int) {
	// Interior columns where all three taps are in range: tap kw reads
	// inRow[ow-pw+kw], so ow >= pw and ow-pw+2 <= inW-1.
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
			v := acc[ow]
			if iw >= 0 && iw < inW {
				v += w0 * inRow[iw]
			}
			if iw+1 >= 0 && iw+1 < inW {
				v += w1 * inRow[iw+1]
			}
			if iw+2 >= 0 && iw+2 < inW {
				v += w2 * inRow[iw+2]
			}
			acc[ow] = v
		}
	}
	if loI < hiI {
		n := hiI - loI
		w4 := [4]float32{w0, w1, w2, 0}
		dw3RowF(acc[loI:][:n], inRow[loI-pw:], &w4, n)
	}
}

// convRowBlk accumulates one dense packed kernel row into four output
// channels' accumulator rows in a single sweep over the input row. pk holds
// the row's taps tap-major: pk[kw*ocBlockWidth+b] is channel b's weight for
// horizontal tap kw. Each channel's adds happen in ascending kw, identical
// to convRow over a dense compacted row, so per-channel accumulation chains
// are bit-identical to the reference.
//
// Coordinates are global like the int8 twin: the block covers output columns
// [outColLo, outColLo+outCols) of a map whose true width is inWGlobal, and
// inRow is the local slice starting at global input column inColLo. Strip
// execution passes outColLo = inColLo = 0 and inWGlobal = in.W; rect tiles
// pass their halo geometry.
func convRowBlk(accBuf []float32, accStride int, inRow, pk []float32, kw, sw, pw, outColLo, inColLo, inWGlobal, outCols int) {
	if kw == 3 && sw == 1 && simdFloat {
		// Dense interior where all three taps land in-bounds: run the fused
		// 3-tap kernel there and sweep only the edge columns tap-by-tap.
		// Per element the fused kernel chains the taps in ascending order —
		// the identical float sequence to three per-tap passes — so the
		// regrouping is bit-identical.
		olo := pw - outColLo
		if olo < 0 {
			olo = 0
		}
		ohi := inWGlobal - 2 + pw - outColLo
		if ohi > outCols {
			ohi = outCols
		}
		if olo < ohi && ohi-olo >= 8 {
			convRowBlkTaps(accBuf, accStride, inRow, pk, kw, sw, pw, outColLo, inColLo, inWGlobal, 0, olo)
			n := ohi - olo
			iwFirst := outColLo + olo - pw - inColLo
			if iwFirst < 0 || iwFirst+n+1 >= len(inRow) {
				panic(fmt.Sprintf("tensor: conv fused taps need cols [%d,%d] outside local row [0,%d)", iwFirst, iwFirst+n+1, len(inRow)))
			}
			mac3Rows4F(accBuf[olo:], accStride, inRow[iwFirst:], pk, n)
			convRowBlkTaps(accBuf, accStride, inRow, pk, kw, sw, pw, outColLo, inColLo, inWGlobal, ohi, outCols)
			return
		}
	}
	convRowBlkTaps(accBuf, accStride, inRow, pk, kw, sw, pw, outColLo, inColLo, inWGlobal, 0, outCols)
}

// convRowBlkTaps sweeps taps one at a time over output columns [oclA,oclB)
// of the row block; it is the edge/general form behind convRowBlk.
func convRowBlkTaps(accBuf []float32, accStride int, inRow, pk []float32, kw, sw, pw, outColLo, inColLo, inWGlobal, oclA, oclB int) {
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
			panic(fmt.Sprintf("tensor: conv tap needs cols [%d,%d] outside local row [0,%d)", iwFirst, iwFirst+(n-1)*sw, len(inRow)))
		}
		w := pk[x*ocBlockWidth : x*ocBlockWidth+ocBlockWidth]
		if sw <= 2 {
			macRows4F(accBuf[oclLo:], accStride, inRow[iwFirst:], w, sw, n)
			continue
		}
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		a0 := accBuf
		a1 := accBuf[accStride:]
		a2 := accBuf[2*accStride:]
		a3 := accBuf[3*accStride:]
		iw := iwFirst
		for ow := oclLo; ow < oclHi; ow++ {
			v := inRow[iw]
			a0[ow] += w0 * v
			a1[ow] += w1 * v
			a2[ow] += w2 * v
			a3[ow] += w3 * v
			iw += sw
		}
	}
}

// poolForward computes output rows [outLo, outHi) of a max or average pool
// under the same global-row-offset convention as convForward. Padding cells
// are excluded from both the max and the average (divisor counts valid cells
// only), so tile-boundary behaviour matches whole-map behaviour exactly.
//
// The hot loops are restructured tap-major: instead of re-deriving the
// window bounds and the (c*H+h)*W+w index for every cell, each (kh, kw) tap
// sweeps its valid output-column span over a hoisted input row. Per output
// element the taps still apply in ascending (kh, kw) order — the same order
// as poolForwardRef's per-cell walk — so max ties resolve identically and
// average sums accumulate in the same float order, keeping results
// bit-identical to the reference at any tile or parallelism.
func poolForward(in Tensor, inLo, inHGlobal int, l *nn.Layer, outLo, outHi, par int) Tensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := Alloc(in.C, outRows, outW)
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outW)
	// Unpadded 2x2 stride-2 max pool (every MobileNet/Inception reduction):
	// both taps of both rows are always in bounds, so the whole output row is
	// one vectorizable pair reduction with the scalar `if v > acc` semantics.
	fast := isMax && l.KH == 2 && l.KW == 2 && l.SH == 2 && l.SW == 2 && l.PH == 0 && l.PW == 0
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		var cnt []int32
		if !isMax {
			cnt = make([]int32, outW)
		}
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := out.Data[t*outW : (t+1)*outW]
			ohGlobal := outLo + or
			if fast {
				ihA := ohGlobal*2 - inLo
				if ihA < 0 || ihA+1 >= in.H {
					panic(fmt.Sprintf("tensor: pool needs global rows %d,%d outside tile [%d,%d)", ohGlobal*2, ohGlobal*2+1, inLo, inLo+in.H))
				}
				rowA := in.Data[(c*in.H+ihA)*in.W : (c*in.H+ihA+1)*in.W]
				rowB := in.Data[(c*in.H+ihA+1)*in.W : (c*in.H+ihA+2)*in.W]
				maxPairRowF(dst, rowA, rowB, outW)
				applyActivation(dst, l.Act)
				continue
			}
			init := float32(0)
			if isMax {
				init = negInf
			}
			for i := range dst {
				dst[i] = init
			}
			countH := int32(0)
			for kh := 0; kh < l.KH; kh++ {
				ihGlobal := ohGlobal*l.SH - l.PH + kh
				if ihGlobal < 0 || ihGlobal >= inHGlobal {
					continue
				}
				ih := ihGlobal - inLo
				if ih < 0 || ih >= in.H {
					panic(fmt.Sprintf("tensor: pool needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
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
							if v := inRow[iw]; v > dst[ow] {
								dst[ow] = v
							}
							iw += l.SW
						}
					} else {
						for ow := owLo; ow < owHi; ow++ {
							dst[ow] += inRow[iw]
							iw += l.SW
						}
					}
				}
			}
			if !isMax {
				// The per-cell divisor factors into valid rows x valid
				// columns; the column factor depends only on ow.
				for ow := range cnt {
					cnt[ow] = 0
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
						cnt[ow]++
					}
				}
				for ow, n := range cnt {
					if total := countH * n; total > 0 {
						dst[ow] /= float32(total)
					}
				}
			}
			applyActivation(dst, l.Act)
		}
	})
	return out
}

// poolForwardRef is the original per-cell pool loop, retained as the
// bit-identity reference for poolForward.
func poolForwardRef(in Tensor, inLo, inHGlobal int, l *nn.Layer, outLo, outHi, par int) Tensor {
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	outRows := outHi - outLo
	out := Alloc(in.C, outRows, outW)
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outW)
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := out.Data[t*outW : (t+1)*outW]
			ohGlobal := outLo + or
			for ow := 0; ow < outW; ow++ {
				var acc float32
				if isMax {
					acc = negInf
				}
				count := 0
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue
					}
					ih := ihGlobal - inLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: pool needs global row %d outside tile [%d,%d)", ihGlobal, inLo, inLo+in.H))
					}
					for kw := 0; kw < l.KW; kw++ {
						iw := ow*l.SW - l.PW + kw
						if iw < 0 || iw >= in.W {
							continue
						}
						v := in.At(c, ih, iw)
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
						count++
					}
				}
				if !isMax && count > 0 {
					acc /= float32(count)
				}
				dst[ow] = acc
			}
			applyActivation(dst, l.Act)
		}
	})
	return out
}

// fcForward computes a fully connected layer with register blocking: each
// pool chunk walks its output features in runs of ocBlockWidth, streaming the
// input vector once per run into four accumulators instead of once per
// feature. Each feature's dot product still sums in ascending element order,
// so results are bit-identical to fcForwardRef.
func fcForward(in Tensor, l *nn.Layer, wts *fcWeights, par int) Tensor {
	out := Alloc(l.OutF, 1, 1)
	n := in.Elems()
	nf := 0
	if wts.panels != nil && n > 0 {
		nf = len(wts.panels) / n
	}
	parallelForGrain(l.OutF, par, grainFor(n), func(lo, hi int) {
		o := lo
		if nf > 0 {
			// Transposed-panel vector path: 16 output features per call,
			// lanes are features, each feature's dot product still sums in
			// ascending element order. Walk scalar singles up to the next
			// panel boundary first so chunk splits land anywhere.
			for ; o < hi && o%16 != 0; o++ {
				acc := wts.bias[o]
				row := wts.w[o*n:][:n]
				for i, v := range in.Data[:n] {
					acc += row[i] * v
				}
				out.Data[o] = acc
			}
			for ; o+16 <= hi && o+16 <= nf; o += 16 {
				ffcPanel16(&out.Data[o], &wts.panels[o*n], &in.Data[0], &wts.bias[o], n)
			}
		}
		for ; o+ocBlockWidth <= hi; o += ocBlockWidth {
			acc0 := wts.bias[o]
			acc1 := wts.bias[o+1]
			acc2 := wts.bias[o+2]
			acc3 := wts.bias[o+3]
			r0 := wts.w[o*n:][:n]
			r1 := wts.w[(o+1)*n:][:n]
			r2 := wts.w[(o+2)*n:][:n]
			r3 := wts.w[(o+3)*n:][:n]
			for i, v := range in.Data[:n] {
				acc0 += r0[i] * v
				acc1 += r1[i] * v
				acc2 += r2[i] * v
				acc3 += r3[i] * v
			}
			out.Data[o] = acc0
			out.Data[o+1] = acc1
			out.Data[o+2] = acc2
			out.Data[o+3] = acc3
		}
		for ; o < hi; o++ {
			acc := wts.bias[o]
			row := wts.w[o*n:][:n]
			for i, v := range in.Data[:n] {
				acc += row[i] * v
			}
			out.Data[o] = acc
		}
	})
	applyActivation(out.Data, l.Act)
	return out
}

// fcForwardRef is the unblocked fully connected layer: one row dot product
// per output feature. Retained as the bit-identity reference for fcForward.
func fcForwardRef(in Tensor, l *nn.Layer, wts *fcWeights, par int) Tensor {
	out := Alloc(l.OutF, 1, 1)
	n := in.Elems()
	parallelFor(l.OutF, par, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			acc := wts.bias[o]
			row := wts.w[o*n : (o+1)*n]
			for i, v := range in.Data {
				acc += row[i] * v
			}
			out.Data[o] = acc
		}
	})
	applyActivation(out.Data, l.Act)
	return out
}

// gapForward computes a global average pool, parallelised across channels
// when the per-channel reduction is big enough to amortise a pool hand-off.
// Each channel sums its elements in ascending order regardless of the worker
// count, so results are bit-identical at any parallelism.
func gapForward(in Tensor, l *nn.Layer, par int) Tensor {
	out := Alloc(in.C, 1, 1)
	per := in.H * in.W
	parallelForGrain(in.C, par, grainFor(per), func(lo, hi int) {
		c := lo
		// Vector path: 8 channels reduce at once with lanes holding
		// channels, each channel still summing its elements in ascending
		// order (see gapSum8F).
		var sums [8]float32
		for ; c+8 <= hi; c += 8 {
			gapSum8F(&sums, in.Data[c*per:], per, per)
			for b := 0; b < 8; b++ {
				out.Data[c+b] = sums[b] / float32(per)
			}
		}
		for ; c < hi; c++ {
			var acc float32
			for _, v := range in.Data[c*per : (c+1)*per] {
				acc += v
			}
			out.Data[c] = acc / float32(per)
		}
	})
	applyActivation(out.Data, l.Act)
	return out
}

// negInf seeds max-pool accumulators so padding never wins.
var negInf = float32(math.Inf(-1))

func applyActivation(xs []float32, a nn.Activation) {
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
				xs[i] = 0.1 * v
			}
		}
	}
}
