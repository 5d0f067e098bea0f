package tensor

import (
	"fmt"

	"pico/internal/nn"
	"pico/internal/partition"
)

// This file extends tiled execution from row strips to DeepThings-style 2D
// rectangles: a worker receives a rectangular input region (with its global
// row/column offsets) and produces a rectangular output tile. As with
// strips, per-output-pixel accumulation order is tile-independent, so grid
// execution is bit-identical to whole-map execution. Kernels parallelise
// over (output channel, output row) chunks exactly like their strip
// counterparts in ops.go.

// convForwardRect computes the output rectangle out of a convolution from a
// tile holding input rows [inRowLo, inRowLo+in.H) and columns
// [inColLo, inColLo+in.W) of a feature map with global extent
// inHGlobal x inWGlobal. With a register-tile plan it dispatches to the
// blocked kernel, which shares convRowBlk (and its vector tiles) with the
// strip path; hand-built weights keep the original per-channel sweep.
func convForwardRect(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, wts *convWeights, out partition.Rect, par int) Tensor {
	if len(wts.blocks) > 0 {
		return convForwardRectBlocked(in, inRowLo, inColLo, inHGlobal, inWGlobal, l, wts, out, par)
	}
	return convForwardRectRef(in, inRowLo, inColLo, inHGlobal, inWGlobal, l, wts, out, par)
}

// convForwardRectBlocked is the general register-tiled conv, for rect
// tiles and (run at full width) for strips: each work unit is one output
// row of one oc-block, so every sweep over an input row feeds up to
// ocBlockWidth accumulator rows at once and input bandwidth drops by the
// block width. Work units are (block, row) pairs — a parallelFor chunk can
// never split a register block across workers — and the packed row
// primitive receives the tile's global column geometry.
//
// Per output element the accumulation order (bias, then g, kh, kw
// ascending) is the per-channel sweep's order: channels have independent
// accumulator chains, so interleaving the taps of four channels over the
// same input row reorders nothing within any one chain. The packed tap
// layout is only used for dense full-width blocks (see ocBlock.packed);
// ragged or sparse blocks fall back to the per-channel compacted rows,
// which preserves the zero-tap skip order exactly.
func convForwardRectBlocked(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, wts *convWeights, out partition.Rect, par int) Tensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := Alloc(l.OutC, outRows, outCols)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	grain := grainFor(ocBlockWidth * icg * l.KH * l.KW * outCols)
	accStride := outRows * outCols
	parallelForGrain(len(wts.blocks)*outRows, par, grain, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			blk := &wts.blocks[u/outRows]
			or := u % outRows
			ohGlobal := out.Rows.Lo + or
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				acc := res.Data[(oc*outRows+or)*outCols : (oc*outRows+or+1)*outCols]
				for i := range acc {
					acc[i] = wts.bias[oc]
				}
			}
			accBase := res.Data[(blk.oc0*outRows+or)*outCols:]
			for g := 0; g < icg; g++ {
				ic := blk.icBase + g
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue // true top/bottom padding
					}
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect conv needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					if blk.packed != nil {
						pk := blk.packed[(g*l.KH+kh)*l.KW*ocBlockWidth:]
						convRowBlk(accBase, accStride, inRow, pk, l.KW, l.SW, l.PW, out.Cols.Lo, inColLo, inWGlobal, outCols)
					} else {
						for b := 0; b < blk.width; b++ {
							oc := blk.oc0 + b
							row := &wts.rows[(oc*icg+g)*l.KH+kh]
							acc := res.Data[(oc*outRows+or)*outCols : (oc*outRows+or+1)*outCols]
							convRowRect(acc, inRow, row, l.SW, l.PW, out.Cols.Lo, inColLo, inWGlobal, in.W, outCols)
						}
					}
				}
			}
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				finishChannel(res.Data[(oc*outRows+or)*outCols:(oc*outRows+or+1)*outCols], wts, oc, l.Act)
			}
		}
	})
	return res
}

// convForwardRectRef is the original per-channel rect sweep, retained for
// hand-built weights without a register-tile plan (tests) and as the
// behavioural reference for the blocked kernel.
func convForwardRectRef(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, wts *convWeights, out partition.Rect, par int) Tensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := Alloc(l.OutC, outRows, outCols)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	ocg := l.OutC / groups
	parallelFor(l.OutC*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			oc := t / outRows
			or := t % outRows
			icBase := (oc / ocg) * icg
			acc := res.Data[t*outCols : (t+1)*outCols]
			for i := range acc {
				acc[i] = wts.bias[oc]
			}
			ohGlobal := out.Rows.Lo + or
			for g := 0; g < icg; g++ {
				ic := icBase + g
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue // true top/bottom padding
					}
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect conv needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					row := &wts.rows[(oc*icg+g)*l.KH+kh]
					convRowRect(acc, inRow, row, l.SW, l.PW, out.Cols.Lo, inColLo, inWGlobal, in.W, outCols)
				}
			}
			if wts.bnScale != nil {
				s, sh := wts.bnScale[oc], wts.bnShift[oc]
				for i := range acc {
					acc[i] = acc[i]*s + sh
				}
			}
			applyActivation(acc, l.Act)
		}
	})
	return res
}

// convRowRect accumulates one compacted kernel row over one input row of a
// rectangular tile. The global-padding and tile-coverage checks are hoisted
// out of the per-column loop: for a fixed tap, the valid output columns form
// one contiguous interval, computed once.
func convRowRect(acc, inRow []float32, row *kernelRow, sw, pw, outColLo, inColLo, inWGlobal, inW, outCols int) {
	for x, w := range row.w {
		// iwGlobal = base + ocl*sw; valid while 0 <= iwGlobal < inWGlobal.
		base := outColLo*sw - pw + int(row.kw[x])
		oclLo := 0
		if base < 0 {
			oclLo = (-base + sw - 1) / sw
		}
		oclHi := outCols
		if maxOcl := (inWGlobal - 1 - base) / sw; maxOcl+1 < oclHi {
			oclHi = maxOcl + 1
		}
		if oclLo >= oclHi {
			continue
		}
		iwFirst := base + oclLo*sw - inColLo
		iwLast := base + (oclHi-1)*sw - inColLo
		if iwFirst < 0 || iwLast >= inW {
			bad := iwFirst + inColLo
			if iwFirst >= 0 {
				bad = iwLast + inColLo
			}
			panic(fmt.Sprintf("tensor: rect conv needs global col %d outside tile [%d,%d)", bad, inColLo, inColLo+inW))
		}
		if sw == 1 {
			macRowF(acc[oclLo:oclHi], inRow[iwFirst:iwFirst+(oclHi-oclLo)], w)
			continue
		}
		iw := iwFirst
		for ocl := oclLo; ocl < oclHi; ocl++ {
			acc[ocl] += w * inRow[iw]
			iw += sw
		}
	}
}

// poolForwardRect is the rectangular-tile pool under the same conventions.
func poolForwardRect(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, out partition.Rect, par int) Tensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := Alloc(in.C, outRows, outCols)
	isMax := l.Kind == nn.MaxPool
	parallelFor(in.C*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := res.Data[t*outCols : (t+1)*outCols]
			ohGlobal := out.Rows.Lo + or
			for ocl := 0; ocl < outCols; ocl++ {
				owGlobal := out.Cols.Lo + ocl
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
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect pool needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					for kw := 0; kw < l.KW; kw++ {
						iwGlobal := owGlobal*l.SW - l.PW + kw
						if iwGlobal < 0 || iwGlobal >= inWGlobal {
							continue
						}
						iw := iwGlobal - inColLo
						if iw < 0 || iw >= in.W {
							panic(fmt.Sprintf("tensor: rect pool needs global col %d outside tile [%d,%d)", iwGlobal, inColLo, inColLo+in.W))
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
				dst[ocl] = acc
			}
			applyActivation(dst, l.Act)
		}
	})
	return res
}
